"""Slow reference arithmetic for BN254, kept only as test oracles.

Each routine is the plainest form of what ``nomsig.bn254`` computes faster:
the schoolbook Fp12 product over the 36 Fp2 products of its coefficients,
square-and-multiply exponentiation over it, the G1 curve equation, affine
binary double-and-add over any addition (on the Fp curves, over
``curve.add`` alone), the binary Jacobian ladder on the twist, the
complex-method Fp2 square root with its inversion, and the Miller loop over
the binary digits of 6u+2 with one inversion per line.

For the confirm/disavow protocols it holds what only the proofs of their
properties need: the witness relation itself, the zero-knowledge simulator
and the special-soundness extractor.
"""

from functools import partial

from nomsig import curve, zkproto
from nomsig.bn254 import (ATE_LOOP, F2_ZERO, F12_ONE, G1_B, G2_COFACTOR, TW_B, N, P, _f12_mul_f6,
                          _f12_mul_line, _jac_double_f2, _jac_madd_f2, _sqrt_fp, _to_affine_f2, _tw_frob,
                          f2_add, f2_inv, f2_mul, f2_mul_xi, f2_sqr, f2_sqrt, f2_sub, f12_inv,
                          f12_sqr, g2_mul, g2_neg)


def schoolbook_f12_mul(a, b):
    """a * b in Fp2[w] / (w^6 - XI): every coefficient product, then w^6 folded to XI."""
    c = [F2_ZERO] * 11
    for i in range(6):
        for j in range(6):
            c[i + j] = f2_add(c[i + j], f2_mul(a[i], b[j]))
    for k in range(10, 5, -1):
        c[k - 6] = f2_add(c[k - 6], f2_mul_xi(c[k]))
    return tuple(c[:6])


def f12_pow(a, e):
    """a^e by binary square-and-multiply over ``schoolbook_f12_mul``; e < 0 inverts first."""
    if e < 0:
        return f12_pow(f12_inv(a), -e)
    r = F12_ONE
    while e:
        if e & 1:
            r = schoolbook_f12_mul(r, a)
        a = schoolbook_f12_mul(a, a)
        e >>= 1
    return r


def g1_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return (y * y - x * x * x - G1_B) % P == 0


def affine_mul(add, pt, k):
    """k * pt for k >= 0 by binary double-and-add over the affine addition ``add`` alone."""
    acc = None
    for b in bin(k)[2:]:
        acc = add(acc, acc)
        if b == "1":
            acc = add(acc, pt)
    return acc


def curve_mul(p, pt, k):
    """k * pt for k >= 0 on a curve over Fp: ``affine_mul`` over ``curve.add``."""
    return affine_mul(partial(curve.add, p), pt, k)


def binary_g2_mul(pt, k):
    """k * pt for any twist point and any k: one Jacobian doubling per bit of |k|, a mixed addition per set bit."""
    if k < 0:
        pt, k = g2_neg(pt), -k
    if pt is None:
        return None
    acc = None
    for b in bin(k)[2:]:
        acc = _jac_double_f2(acc)
        if b == "1":
            acc = _jac_madd_f2(acc, pt)
    return _to_affine_f2(acc)


def complex_f2_sqrt(a):
    """A square root in Fp2 by the complex method, or None if a is not a square.

    x0 = sqrt((a0 +- sqrt(a0^2 + a1^2)) / 2) and x1 = a1 / (2*x0), trying both signs.
    """
    if a == F2_ZERO:
        return F2_ZERO
    a0, a1 = a
    if a1 == 0:
        r = _sqrt_fp(a0)
        if r is not None:
            return (r, 0)
        r = _sqrt_fp(-a0 % P)
        return None if r is None else (0, r)
    s = _sqrt_fp((a0 * a0 + a1 * a1) % P)
    if s is None:
        return None
    inv2 = (P + 1) // 2
    for sign in (s, -s % P):
        d = (a0 + sign) * inv2 % P
        x0 = _sqrt_fp(d)
        if x0 is None or x0 == 0:
            continue
        x1 = a1 * pow(2 * x0, -1, P) % P
        if f2_sqr((x0, x1)) == a:
            return (x0, x1)
    return None


def _binary_line_steps(f, ts, qs, ps):
    """(f times the line through each untwisted t, q at its G1 point (xp, -yp), the sums t + q)."""
    sums = []
    for (x1, y1), (x2, y2), (xp, nyp) in zip(ts, qs, ps):
        if x1 == x2 and f2_add(y1, y2) == F2_ZERO:  # vertical: xp - x1*w^2, which lies in Fp6
            f = _f12_mul_f6(f, (xp, 0, -x1[0], -x1[1], 0, 0))
            sums.append(None)
            continue
        if x1 == x2:
            m = f2_mul(f2_mul(f2_sqr(x1), (3, 0)), f2_inv(f2_mul(y1, (2, 0))))
        else:
            m = f2_mul(f2_sub(y2, y1), f2_inv(f2_sub(x2, x1)))
        f = _f12_mul_line(f, nyp, f2_mul(m, (xp, 0)), f2_sub(y1, f2_mul(m, x1)))  # m*xp*w - yp + (y1 - m*x1)*w^3
        x3 = f2_sub(f2_sub(f2_sqr(m), x1), x2)
        sums.append((x3, f2_sub(f2_mul(m, f2_sub(x1, x3)), y1)))
    return f, sums


def binary_multi_miller(pairs):
    """prod_i f_{6u+2, Q_i}(P_i) with the two Frobenius lines, over the binary digits of 6u+2.

    102 line steps: a doubling per bit after the leading one, an addition per
    set bit after it, and the two Frobenius lines. Each pair's line has its
    own inversion, and pairs on one G2 point are not grouped. A pair with None
    on either side contributes 1.
    """
    pairs = [(pt, q) for pt, q in pairs if pt is not None and q is not None]
    if not pairs:
        return F12_ONE
    ps = [(xp, -yp % P) for (xp, yp), _ in pairs]
    qs = [q for _, q in pairs]
    f, ts = F12_ONE, qs
    for i in range(ATE_LOOP.bit_length() - 2, -1, -1):
        f, ts = _binary_line_steps(f12_sqr(f), ts, ts, ps)
        if (ATE_LOOP >> i) & 1:
            f, ts = _binary_line_steps(f, ts, qs, ps)
    q1s = [_tw_frob(q) for q in qs]
    f, ts = _binary_line_steps(f, ts, q1s, ps)
    return _binary_line_steps(f, ts, [g2_neg(_tw_frob(q1)) for q1 in q1s], ps)[0]


def random_twist_point(draws):
    """A point of the twist from random x-coordinates, in G2 or not."""
    while True:
        x = (draws.randrange(P), draws.randrange(P))
        y = f2_sqrt(f2_add(f2_mul(f2_sqr(x), x), TW_B))
        if y is not None:
            return (x, y)


def torsion_point(draws, ell):
    """A twist point of order ell, for a prime ell dividing the cofactor."""
    t = None
    while t is None:
        t = g2_mul(random_twist_point(draws), N * (G2_COFACTOR // ell))
    return t


def holds_for(statement, y1, y2):
    """Whether (y1, y2) is a confirm witness of the statement: d = e3^y1 * e4^y2."""
    return statement.d == statement.backend.multi_exp([(statement.e3, y1), (statement.e4, y2)])


def simulate_transcript(statement, protocol, rng):
    """Accepting transcript built without the witness.

    The simulator exploits exactly what the committed challenge grants a
    zero-knowledge simulator: it learns c before emitting the first message.
    """
    b = statement.backend
    c = b.random_scalar(rng)
    rho = b.random_scalar(rng)
    tr = zkproto.Transcript(protocol)
    tr.commitment = zkproto.ChallengeCommitment(zkproto.commit_challenge(statement.g2ref, c, rho))
    tr.opening = zkproto.ChallengeOpening(c, rho)
    _, rows = zkproto.relation(protocol, statement)
    C = b.gt() ** b.random_nonzero_scalar(rng) if rows[2][1] is None else None
    fields, rows = zkproto.relation(protocol, statement, C)
    z = {f: b.random_scalar(rng) for f in fields}
    tr.first = zkproto.SigmaFirstMsg(*(zkproto._t(terms, image, z, c) for terms, image in rows), C)
    tr.response = zkproto.SigmaResponse(**z)
    tr.verdict = zkproto.check(protocol, statement, c, tr.first, tr.response)
    return tr


def extract_confirm_witness(statement, first, c1, resp1, c2, resp2):
    """Special soundness: two accepting transcripts over one first message
    with distinct challenges pin down (y1, y2)."""
    n = statement.backend.order
    if c1 == c2:
        raise zkproto.ProtocolError("challenges must differ")
    dc_inv = pow((c1 - c2) % n, -1, n)
    y1 = (resp1.z1 - resp2.z1) * dc_inv % n
    y2 = (resp1.z2 - resp2.z2) * dc_inv % n
    return y1, y2
