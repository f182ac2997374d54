"""Slow reference arithmetic for BN254, kept only as test oracles.

Each routine is the plainest form of what ``nomsig.bn254`` computes faster:
the schoolbook Fp12 product over the 36 Fp2 products of its coefficients,
square-and-multiply exponentiation over it, the G1 curve equation, affine
binary double-and-add over any addition (on the Fp curves, over
``curve_add``, the affine addition the batched ``curve.add_all`` is checked
against), the textbook chord-and-tangent addition on the twist,
the binary Jacobian ladder on the twist, a sum of
multiples of twist points as one ``g2_mul`` per term, the complex-method
Fp2 square root with its inversion, the affine Miller-loop lines with one
batched inversion per line step, and the Miller loop over the binary
digits of 6u+2 with one inversion per line.

For the confirm/disavow protocols it holds what only the proofs of their
properties need: the witness relation itself, the zero-knowledge simulator
and the special-soundness extractor; and the protocols with every relation
row over the statement's GT values d, e3 and e4 themselves, one product of
powers each, which the program's rows by bilinearity must match.

For the envelopes it holds the schema-v1 writer, which the program no
longer has: it rewrites an envelope with each G1 and G2 point compressed.
"""

import json
from functools import partial, reduce

from nomsig import envelopes, zkproto
from nomsig.algebra import get_backend
from nomsig.bn254 import (_ATE_STEPS, ATE_LOOP, F2_ZERO, F12_ONE, G1_B, G2, G2_COFACTOR, TW_B, N, P, _chord_sum,
                          _f12_mul_f6, _f12_mul_line, _jac_double_f2, _jac_madd_f2, _slopes, _sqrt_fp, _tw_frob,
                          f2_add, f2_inv, f2_mul, f2_mul_xi, f2_sqr, f2_sqrt, f2_sub, f12_inv,
                          f12_sqr, g2_add, g2_mul, g2_neg, g2_rhs)


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


def affine_add(p, q):
    """p + q on the twist by the textbook chord and tangent rule, with one ``f2_inv`` per sum."""
    if p is None or q is None:
        return q if p is None else p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if f2_add(y1, y2) == F2_ZERO:
            return None
        m = f2_mul(f2_mul(f2_sqr(x1), (3, 0)), f2_inv(f2_add(y1, y1)))
    else:
        m = f2_mul(f2_sub(y2, y1), f2_inv(f2_sub(x2, x1)))
    x3 = f2_sub(f2_sub(f2_sqr(m), x1), x2)
    return (x3, f2_sub(f2_mul(m, f2_sub(x1, x3)), y1))


def curve_add(p, a, b):
    """Affine a + b on a curve over Fp, with the chord (or tangent) slope and one inversion."""
    if a is None:
        return b
    if b is None:
        return a
    x1, y1 = a
    x2, y2 = b
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        m = 3 * x1 * x1 * pow(2 * y1, -1, p) % p
    else:
        m = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (m * m - x1 - x2) % p
    return (x3, (m * (x1 - x3) - y1) % p)


def curve_mul(p, pt, k):
    """k * pt for k >= 0 on a curve over Fp: ``affine_mul`` over ``curve_add``."""
    return affine_mul(partial(curve_add, p), pt, k)


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
    return G2.to_affine_all([acc])[0]


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


def affine_g2_lines(qs):
    """The affine Miller-loop lines of each finite twist point in qs: per point, a tuple of its 88 line steps.

    The steps of ``bn254.g2_lines`` with T kept affine: an entry is (m, c)
    for the line y = m*x + c through T and its addend, or (None, x1) where
    the line is vertical at T = (x1, y1). Each step takes the slopes of
    every point from one ``bn254._slopes`` call, so one batched inversion.
    """
    if not qs:
        return []
    q1s = [_tw_frob(q) for q in qs]
    addends = {1: qs, -1: [g2_neg(q) for q in qs], 2: q1s, 3: [g2_neg(_tw_frob(q1)) for q1 in q1s]}
    out = [[] for _ in qs]
    ts = qs
    for step in _ATE_STEPS:
        pairs = list(zip(ts, addends.get(step, ts)))
        ts = []
        for (t, q), m, lines in zip(pairs, _slopes(pairs), out):
            lines.append((None, t[0]) if m is None else (m, f2_sub(t[1], f2_mul(m, t[0]))))
            ts.append(m and _chord_sum(t, q, m))
    return [tuple(lines) for lines in out]


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


def off_curve_x(group):
    """The encoding of the smallest x = k (G1) or k + 0i (G2) with no point above it, as the decoder reads it."""
    k = 1
    while (_sqrt_fp((k**3 + G1_B) % P) if group == "G1" else f2_sqrt(g2_rhs((k, 0)))) is not None:
        k += 1
    return k.to_bytes(32, "big") if group == "G1" else bytes(32) + k.to_bytes(32, "big")


def naive_g2_msm(pts, ks):
    """sum k * pt over twist points: one ``g2_mul`` per term, folded with affine additions."""
    return reduce(g2_add, (g2_mul(pt, k) for pt, k in zip(pts, ks)), None)


def torsion_point(draws, ell):
    """A twist point of order ell, for a prime ell dividing the cofactor."""
    t = None
    while t is None:
        t = g2_mul(random_twist_point(draws), N * (G2_COFACTOR // ell))
    return t


def gt_values(s):
    """The statement's GT values d = e(g1, s3) / (e(gS, hS) e(gN, hN)), e3 and e4, one pairing product each."""
    b = s.backend
    return (b.pairing_product([(s.g1, s.s3)], [s.pk_s.miller, s.pk_n.miller]),
            b.pairing_product([(s.s1, s.fs_fn)]), b.pairing_product([(s.s2, s.fs_fn)]))


def holds_for(statement, y1, y2):
    """Whether (y1, y2) is a confirm witness of the statement: d = e3^y1 * e4^y2."""
    d, e3, e4 = gt_values(statement)
    return d == statement.backend.multi_exp([(e3, y1), (e4, y2)])


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
    tr.first = zkproto.SigmaFirstMsg(*(zkproto._t(statement, terms, image, z, c) for terms, image in rows), C)
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


def gt_relation(protocol, s, values, C=None):
    """``zkproto.relation`` with row 3 over the GT values (d, e3, e4) themselves, each row one ``multi_exp``."""
    d, e3, e4 = values
    if protocol == "confirm":
        return ["z1", "z2"], [
            ([(s.pk_n.x1, 1, "z1")], s.g2ref),
            ([(s.pk_n.x2, 1, "z2")], s.g2ref),
            ([(e3, 1, "z1"), (e4, 1, "z2")], d),
        ]
    one = s.backend.identity("G2")
    return ["z3", "z1", "z2"], [
        ([(s.pk_n.x1, 1, "z1"), (s.g2ref, -1, "z3")], one),
        ([(s.pk_n.x2, 1, "z2"), (s.g2ref, -1, "z3")], one),
        ([(d, -1, "z3"), (e3, 1, "z1"), (e4, 1, "z2")], None if C is None or C.is_identity() else C),
    ]


def _gt_row(terms, w, extra=()):
    return terms[0][0].backend.multi_exp([(x, sign * w[f]) for x, sign, f in terms] + list(extra))


def gt_run(protocol, s, sk_n, prover_rng, verifier_rng):
    """The transcript of ``zkproto.run_confirm`` or ``run_disavow`` on the same draws, in the same order (the
    verifier's c and rho, then the prover's beta and nonces), with every row from ``gt_relation``."""
    b, n = s.backend, s.backend.order
    c, rho = b.random_scalar(verifier_rng), b.random_scalar(verifier_rng)
    values = gt_values(s)
    fields, rows = gt_relation(protocol, s, values)
    beta = b.random_nonzero_scalar(prover_rng) if protocol == "disavow" else 1
    w = {"z3": beta, "z1": beta * sk_n.y1 % n, "z2": beta * sk_n.y2 % n}
    a = {f: b.random_scalar(prover_rng) for f in fields}
    tr = zkproto.Transcript(protocol)
    tr.commitment = zkproto.ChallengeCommitment(zkproto.commit_challenge(s.g2ref, c, rho))
    C = _gt_row(rows[2][0], w) if protocol == "disavow" else None
    tr.first = zkproto.SigmaFirstMsg(*(_gt_row(terms, a) for terms, _ in rows), C)
    tr.opening = zkproto.ChallengeOpening(c, rho)
    z = {f: (a[f] + c * w[f]) % n for f in fields}
    tr.response = zkproto.SigmaResponse(**z)
    _, rows = gt_relation(protocol, s, values, C)
    tr.verdict = all(image is not None and t == _gt_row(terms, z, [(image, -c)])
                     for (terms, image), t in zip(rows, (tr.first.t1, tr.first.t2, tr.first.t3)))
    return tr


# The CODEC fields that hold G1 or G2 points, and their group; a contract state nests key and sigma payloads.
POINT_FIELDS = {name: ftype[:2] for _, _, fields in envelopes.CODEC.values()
                for name, ftype in fields.items() if ftype[:2] in ("G1", "G2")}


def _compressed(group, hexdata, backend):
    """Hex of the backend's compressed encoding of the point whose schema-v2 words are hexdata."""
    data = bytes.fromhex(hexdata)
    if backend.name == "mock":
        return backend.serialize(group, int.from_bytes(data, "big")).hex()
    ws = [int.from_bytes(data[i : i + 32], "big") for i in range(0, len(data), 32)]
    pt = None if not any(ws) else tuple(ws) if group == "G1" else ((ws[1], ws[0]), (ws[3], ws[2]))
    return backend.serialize(group, pt).hex()


def v1_payload(payload, backend=None):
    """A schema-v2 payload with each G1 and G2 point re-encoded as schema v1 holds it, compressed."""
    if not isinstance(payload, dict):
        return payload
    backend = get_backend(payload["backend"]) if "backend" in payload else backend
    out = {}
    for key, v in payload.items():
        if key in POINT_FIELDS and v is not None:
            one = partial(_compressed, POINT_FIELDS[key], backend=backend)
            out[key] = [one(x) for x in v] if isinstance(v, list) else one(v)
        else:
            out[key] = v1_payload(v, backend)
    return out


def rewrite_as_v1(path):
    """Rewrite the envelope file at path as the schema-v1 writer wrote it: the points compressed, version 1."""
    with open(path) as fh:
        obj = json.load(fh)
    with open(path, "w") as fh:
        json.dump({**obj, "schema_version": 1, "payload": v1_payload(obj["payload"])}, fh, indent=2)
        fh.write("\n")
