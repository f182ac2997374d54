"""Arithmetic for the 254-bit Barreto-Naehrig curve (alt_bn128).

Base field Fp, the tower Fp2 -> Fp6 -> Fp12, point arithmetic on G1 (over
Fp) and on the sextic twist carrying G2 (over Fp2), and the optimal ate
pairing e: G1 x G2 -> GT (a subgroup of Fp12*).

G1 uses the Fp point arithmetic in ``curve``; G2 uses its Fp2 copy below,
whose ``_slope`` and ``_chord_end`` also give the Miller loop each line.

Representation conventions:
  - Fp elements are plain ints in [0, P).
  - Fp2 elements are pairs (a0, a1) meaning a0 + a1*i with i^2 = -1.
  - Fp12 elements are 6-tuples of Fp2 coefficients in w, with w^6 = XI
    where XI = 9 + i is the sextic non-residue.
  - Curve points are affine (x, y) tuples, or Jacobian (X, Y, Z) inside
    scalar multiplication; None is the point at infinity in both.

G2 points live on the D-type twist y^2 = x^3 + 3/XI over Fp2; the untwist
into E(Fp12) is (x*w^2, y*w^3) and only appears implicitly in the sparse
line evaluations of the Miller loop.

GT, and every value past the easy part of the final exponentiation, lies in
the cyclotomic subgroup of Fp12*: there ``f12_cyc_pow`` exponentiates with
cyclotomic squarings, and ``f12_pow`` is the generic square-and-multiply.
"""

from . import curve

# Curve parameter u and derived constants (36u^4 + 36u^3 + ...).
U = 4965661367192848881
P = 21888242871839275222246405745257275088696311157297823662689037894645226208583
N = 21888242871839275222246405745257275088548364400416034343698204186575808495617
ATE_LOOP = 6 * U + 2

# G2 subgroup cofactor on the twist: #E'(Fp2) = (2*P - N) * N.
G2_COFACTOR = 2 * P - N

XI = (9, 1)


# ---------------------------------------------------------------------------
# Fp2
# ---------------------------------------------------------------------------

F2_ZERO = (0, 0)
F2_ONE = (1, 0)


def f2_add(a, b):
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def f2_sub(a, b):
    return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)


def f2_neg(a):
    return (-a[0] % P, -a[1] % P)


def f2_conj(a):
    return (a[0], -a[1] % P)


def f2_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    return ((t0 - t1) % P, ((a0 + a1) * (b0 + b1) - t0 - t1) % P)


def f2_sqr(a):
    a0, a1 = a
    return ((a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P)


def f2_muli(a, k):
    """Multiply by an Fp scalar k."""
    return (a[0] * k % P, a[1] * k % P)


def f2_mul_xi(a):
    """Multiply by XI = 9 + i."""
    a0, a1 = a
    return ((9 * a0 - a1) % P, (9 * a1 + a0) % P)


def f2_inv(a):
    a0, a1 = a
    d = pow(a0 * a0 + a1 * a1, P - 2, P)
    return (a0 * d % P, -a1 * d % P)


def f2_pow(a, e):
    r = F2_ONE
    while e:
        if e & 1:
            r = f2_mul(r, a)
        a = f2_sqr(a)
        e >>= 1
    return r


def _sqrt_fp(a):
    # P = 3 mod 4
    r = pow(a, (P + 1) // 4, P)
    return r if r * r % P == a else None


def f2_sqrt(a):
    """Square root in Fp2 via the complex method, or None if a is not a QR."""
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
        x1 = a1 * pow(2 * x0, P - 2, P) % P
        if f2_sqr((x0, x1)) == a:
            return (x0, x1)
    return None


# ---------------------------------------------------------------------------
# Fp6 = Fp2[v] / (v^3 - XI), used only for Fp12 inversion
# ---------------------------------------------------------------------------


def _f6_mul(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    t00 = f2_mul(a0, b0)
    t11 = f2_mul(a1, b1)
    t22 = f2_mul(a2, b2)
    c0 = f2_add(t00, f2_mul_xi(f2_sub(f2_mul(f2_add(a1, a2), f2_add(b1, b2)), f2_add(t11, t22))))
    c1 = f2_add(f2_sub(f2_mul(f2_add(a0, a1), f2_add(b0, b1)), f2_add(t00, t11)), f2_mul_xi(t22))
    c2 = f2_add(f2_sub(f2_mul(f2_add(a0, a2), f2_add(b0, b2)), f2_add(t00, t22)), t11)
    return (c0, c1, c2)


def _f6_inv(a):
    a0, a1, a2 = a
    c0 = f2_sub(f2_sqr(a0), f2_mul_xi(f2_mul(a1, a2)))
    c1 = f2_sub(f2_mul_xi(f2_sqr(a2)), f2_mul(a0, a1))
    c2 = f2_sub(f2_sqr(a1), f2_mul(a0, a2))
    t = f2_add(f2_mul(a0, c0), f2_mul_xi(f2_add(f2_mul(a2, c1), f2_mul(a1, c2))))
    ti = f2_inv(t)
    return (f2_mul(c0, ti), f2_mul(c1, ti), f2_mul(c2, ti))


def _f6_mul_v(a):
    return (f2_mul_xi(a[2]), a[0], a[1])


def _f6_neg(a):
    return (f2_neg(a[0]), f2_neg(a[1]), f2_neg(a[2]))


def _f6_sub(a, b):
    return (f2_sub(a[0], b[0]), f2_sub(a[1], b[1]), f2_sub(a[2], b[2]))


# ---------------------------------------------------------------------------
# Fp12 = Fp2[w] / (w^6 - XI)
# ---------------------------------------------------------------------------

F12_ONE = (F2_ONE, F2_ZERO, F2_ZERO, F2_ZERO, F2_ZERO, F2_ZERO)


def f12_mul(a, b):
    c = [(0, 0)] * 11
    for i in range(6):
        ai = a[i]
        if ai == F2_ZERO:
            continue
        for j in range(6):
            if b[j] == F2_ZERO:
                continue
            c[i + j] = f2_add(c[i + j], f2_mul(ai, b[j]))
    for k in range(10, 5, -1):
        if c[k] != F2_ZERO:
            c[k - 6] = f2_add(c[k - 6], f2_mul_xi(c[k]))
    return tuple(c[:6])


def f12_sqr(a):
    return f12_mul(a, a)


def f12_conj(a):
    """The p^6-power Frobenius: negates the odd-w coefficients."""
    return (a[0], f2_neg(a[1]), a[2], f2_neg(a[3]), a[4], f2_neg(a[5]))


def f12_inv(a):
    # Split against the subfield Fp6 = Fp2[w^2]: a = a0 + a1*w.
    a0 = (a[0], a[2], a[4])
    a1 = (a[1], a[3], a[5])
    t = _f6_inv(_f6_sub(_f6_mul(a0, a0), _f6_mul_v(_f6_mul(a1, a1))))
    r0 = _f6_mul(a0, t)
    r1 = _f6_neg(_f6_mul(a1, t))
    return (r0[0], r1[0], r0[1], r1[1], r0[2], r1[2])


_FROB_GAMMA = tuple(f2_pow(XI, i * (P - 1) // 6) for i in range(6))


def f12_frob(a):
    """The p-power Frobenius."""
    return tuple(f2_mul(f2_conj(a[i]), _FROB_GAMMA[i]) for i in range(6))


def f12_pow(a, e):
    if e < 0:
        return f12_pow(f12_inv(a), -e)
    r = F12_ONE
    while e:
        if e & 1:
            r = f12_mul(r, a)
        a = f12_mul(a, a)
        e >>= 1
    return r


# ---------------------------------------------------------------------------
# The cyclotomic subgroup: a^(p^4 - p^2 + 1) = 1, which holds for every value
# after the easy part of the final exponentiation and so for all of GT. There
# the inverse is f12_conj and squaring has a cheaper form.
# ---------------------------------------------------------------------------


def f12_is_cyclotomic(a):
    """Whether a^(p^4) * a = a^(p^2), i.e. a^(p^4 - p^2 + 1) = 1 for a != 0: no squarings."""
    a2 = f12_frob(f12_frob(a))
    return f12_mul(f12_frob(f12_frob(a2)), a) == a2


def f12_cyc_sqr(a):
    """a^2 for a in the cyclotomic subgroup (Granger-Scott, PKC 2010).

    Over Fp4 = Fp2[s] with s = w^3, s^2 = XI, a is A + B*w + C*w^2 with
    A = a0 + a3*s, B = a1 + a4*s, C = a2 + a5*s, and
    a^2 = (3A^2 - 2conj(A)) + (3s*C^2 + 2conj(B))*w + (3B^2 - 2conj(C))*w^2,
    where conj(x + y*s) = x - y*s is the p^2-power Frobenius of Fp4.
    """
    a0, a1, a2, a3, a4, a5 = a
    A0, A1 = _f4_sqr(a0, a3)
    B0, B1 = _f4_sqr(a1, a4)
    C0, C1 = _f4_sqr(a2, a5)
    return (
        _cyc_coeff(A0, a0, -2),
        _cyc_coeff(f2_mul_xi(C1), a1, 2),
        _cyc_coeff(B0, a2, -2),
        _cyc_coeff(A1, a3, 2),
        _cyc_coeff(C0, a4, -2),
        _cyc_coeff(B1, a5, 2),
    )


def _f4_sqr(x, y):
    """(x + y*s)^2 = (x^2 + XI*y^2) + 2xy*s, from three Fp2 squarings."""
    t0 = f2_sqr(x)
    t1 = f2_sqr(y)
    return f2_add(t0, f2_mul_xi(t1)), f2_sub(f2_sqr(f2_add(x, y)), f2_add(t0, t1))


def _cyc_coeff(t, c, k):
    """3t + k*c in Fp2."""
    return ((3 * t[0] + k * c[0]) % P, (3 * t[1] + k * c[1]) % P)


def _naf(k):
    """The non-adjacent form of k >= 0: digits in {-1, 0, 1}, least significant first."""
    digits = []
    while k:
        d = 2 - (k & 3) if k & 1 else 0
        digits.append(d)
        k = (k - d) >> 1
    return digits


def f12_cyc_pow(a, k):
    """a^k for a in the cyclotomic subgroup and k >= 0.

    Cyclotomic squarings over the signed digits of k; a -1 digit multiplies
    by f12_conj(a), the inverse of a there.
    """
    a_inv = f12_conj(a)
    r = F12_ONE
    for d in reversed(_naf(k)):
        r = f12_cyc_sqr(r)
        if d == 1:
            r = f12_mul(r, a)
        elif d == -1:
            r = f12_mul(r, a_inv)
    return r


# ---------------------------------------------------------------------------
# G1: y^2 = x^3 + 3 over Fp
# ---------------------------------------------------------------------------

G1_B = 3
G1_GEN = (1, 2)


def g1_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return (y * y - x * x * x - G1_B) % P == 0


def g1_neg(pt):
    return None if pt is None else (pt[0], -pt[1] % P)


def g1_add(p, q):
    return curve.add(P, p, q)


def g1_mul(pt, k):
    """k * pt, with k reduced mod N."""
    return curve.mul(P, pt, k % N)


# ---------------------------------------------------------------------------
# G2 on the twist: y^2 = x^3 + 3/XI over Fp2
# ---------------------------------------------------------------------------

TW_B = f2_mul(f2_inv(XI), (3, 0))
G2_GEN = (
    (
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ),
    (
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ),
)


def g2_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return f2_sqr(y) == f2_add(f2_mul(f2_sqr(x), x), TW_B)


def g2_neg(pt):
    return None if pt is None else (pt[0], f2_neg(pt[1]))


# The Fp2 copy of the routines in ``curve``.


def _slope(p, q):
    """(numerator, denominator) of the chord or tangent slope through finite p, q.

    None if q = -p, where the line is vertical.
    """
    x1, y1 = p
    x2, y2 = q
    if x1 == x2:
        if f2_add(y1, y2) == F2_ZERO:
            return None
        return f2_muli(f2_sqr(x1), 3), f2_muli(y1, 2)
    return f2_sub(y2, y1), f2_sub(x2, x1)


def _chord_end(p, q, m):
    """p + q for finite p, q on a line of slope m."""
    x1, y1 = p
    x3 = f2_sub(f2_sub(f2_sqr(m), x1), q[0])
    return (x3, f2_sub(f2_mul(m, f2_sub(x1, x3)), y1))


def g2_add(p, q):
    if p is None:
        return q
    if q is None:
        return p
    s = _slope(p, q)
    return None if s is None else _chord_end(p, q, f2_mul(s[0], f2_inv(s[1])))


def _jac_double_f2(q):
    if q is None:
        return None
    x, y, z = q
    a = f2_sqr(x)
    b = f2_sqr(y)
    c = f2_sqr(b)
    d = f2_muli(f2_sub(f2_sub(f2_sqr(f2_add(x, b)), a), c), 2)
    e = f2_muli(a, 3)
    x3 = f2_sub(f2_sqr(e), f2_muli(d, 2))
    return (x3, f2_sub(f2_mul(e, f2_sub(d, x3)), f2_muli(c, 8)), f2_muli(f2_mul(y, z), 2))


def _jac_madd_f2(q, xa, ya):
    if q is None:
        return (xa, ya, F2_ONE)
    x, y, z = q
    z2 = f2_sqr(z)
    h = f2_sub(f2_mul(xa, z2), x)
    r = f2_sub(f2_mul(f2_mul(ya, z), z2), y)
    if h == F2_ZERO:
        return _jac_double_f2(q) if r == F2_ZERO else None
    hh = f2_sqr(h)
    hhh = f2_mul(h, hh)
    v = f2_mul(x, hh)
    x3 = f2_sub(f2_sub(f2_sqr(r), hhh), f2_muli(v, 2))
    return (x3, f2_sub(f2_mul(r, f2_sub(v, x3)), f2_mul(y, hhh)), f2_mul(z, h))


def _to_affine_f2(q):
    if q is None:
        return None
    zi = f2_inv(q[2])
    zi2 = f2_sqr(zi)
    return (f2_mul(q[0], zi2), f2_mul(f2_mul(q[1], zi2), zi))


def g2_mul(pt, k):
    # No reduction mod N here: cofactor clearing multiplies points outside G2.
    if k < 0:
        return g2_mul(g2_neg(pt), -k)
    if pt is None:
        return None
    xa, ya = pt
    acc = None
    for i in range(k.bit_length() - 1, -1, -1):
        acc = _jac_double_f2(acc)
        if (k >> i) & 1:
            acc = _jac_madd_f2(acc, xa, ya)
    return _to_affine_f2(acc)


# Frobenius on the twist: psi(x, y) = (conj(x)*XI^((p-1)/3), conj(y)*XI^((p-1)/2)).
_TW_FROB_X = f2_pow(XI, (P - 1) // 3)
_TW_FROB_Y = f2_pow(XI, (P - 1) // 2)


def _tw_frob(pt):
    return (f2_mul(f2_conj(pt[0]), _TW_FROB_X), f2_mul(f2_conj(pt[1]), _TW_FROB_Y))


def g2_sum(pts):
    """The sum of affine twist points (None for infinity): mixed Jacobian additions, one inversion."""
    acc = None
    for pt in pts:
        if pt is not None:
            acc = _jac_madd_f2(acc, *pt)
    return _to_affine_f2(acc)


def g2_in_subgroup(pt):
    """Whether pt is on the twist and in G2, the order-N subgroup.

    Tests [u+1]Q + psi([u]Q) + psi^2([u]Q) = psi^3([2u]Q) with psi the twist
    Frobenius (Dai-Lin-Zhao-Zhou, ePrint 2022/348): one 63-bit scalar
    multiplication where [N]Q = O takes a 254-bit one. [u]Q = O only for
    Q = O, since u < N.
    """
    if pt is None:
        return True
    if not g2_is_on_curve(pt):
        return False
    uq = g2_mul(pt, U)
    if uq is None:
        return False
    psi1 = _tw_frob(uq)
    psi2 = _tw_frob(psi1)
    psi3 = g2_neg(_tw_frob(psi2))
    return g2_sum([pt, uq, psi1, psi2, psi3, psi3]) is None


# Fixed-base tables: affine 2^i multiples of the generators.
_G1_POWS = [G1_GEN]
for _ in range(N.bit_length() - 1):
    _G1_POWS.append(g1_add(_G1_POWS[-1], _G1_POWS[-1]))
_G2_POWS = [G2_GEN]
for _ in range(N.bit_length() - 1):
    _G2_POWS.append(g2_add(_G2_POWS[-1], _G2_POWS[-1]))


def g1_mul_base(k):
    """k * G1_GEN using the precomputed doubling table."""
    return curve.mul_table(P, _G1_POWS, k % N)


def g2_mul_base(k):
    """k * G2_GEN using the precomputed doubling table."""
    k %= N
    return g2_sum(_G2_POWS[i] for i in range(k.bit_length()) if (k >> i) & 1)


# ---------------------------------------------------------------------------
# Optimal ate pairing
# ---------------------------------------------------------------------------


def _f2_batch_inv(xs):
    """Inverses of the nonzero xs with one f2_inv (Montgomery's simultaneous inversion)."""
    if not xs:
        return []
    prefix = [xs[0]]
    for x in xs[1:]:
        prefix.append(f2_mul(prefix[-1], x))
    inv = f2_inv(prefix[-1])
    out = [None] * len(xs)
    for i in range(len(xs) - 1, 0, -1):
        out[i] = f2_mul(inv, prefix[i - 1])
        inv = f2_mul(inv, xs[i])
    out[0] = inv
    return out


def _line_steps(f, ts, qs, ps):
    """(f times the line through each untwisted t, q at its G1 point, the sums t + q).

    ``ps`` holds each G1 point as (xp, -yp). One f2_inv serves every pair.
    """
    slopes = [_slope(t, q) for t, q in zip(ts, qs)]
    invs = iter(_f2_batch_inv([s[1] for s in slopes if s is not None]))
    sums = []
    for t, q, (xp, nyp), s in zip(ts, qs, ps, slopes):
        x1, y1 = t
        if s is None:  # vertical: xp - x1*w^2
            line = ((xp, 0), F2_ZERO, f2_neg(x1), F2_ZERO, F2_ZERO, F2_ZERO)
            sums.append(None)
        else:  # m*xp*w - yp + (y1 - m*x1)*w^3
            m = f2_mul(s[0], next(invs))
            line = ((nyp, 0), f2_muli(m, xp), F2_ZERO, f2_sub(y1, f2_mul(m, x1)), F2_ZERO, F2_ZERO)
            sums.append(_chord_end(t, q, m))
        f = f12_mul(f, line)
    return f, sums


def multi_miller(pairs):
    """prod_i f_{6u+2, Q_i}(P_i), with the two Frobenius correction lines, over (P_i, Q_i) pairs.

    The pairs share every squaring of the accumulator and one slope inversion
    per line step. A pair with None on either side contributes 1.
    """
    pairs = [(pt, q) for pt, q in pairs if pt is not None and q is not None]
    if not pairs:
        return F12_ONE
    ps = [(xp, -yp % P) for (xp, yp), _ in pairs]
    qs = [q for _, q in pairs]
    f, ts = F12_ONE, qs
    for i in range(ATE_LOOP.bit_length() - 2, -1, -1):
        f, ts = _line_steps(f12_sqr(f), ts, ts, ps)
        if (ATE_LOOP >> i) & 1:
            f, ts = _line_steps(f, ts, qs, ps)
    q1s = [_tw_frob(q) for q in qs]
    f, ts = _line_steps(f, ts, q1s, ps)
    return _line_steps(f, ts, [g2_neg(_tw_frob(q1)) for q1 in q1s], ps)[0]


def miller_loop(q, pt):
    """f_{6u+2, Q}(P): the one-pair ``multi_miller``."""
    return multi_miller([(pt, q)])


def easy_part(f):
    """f^((p^6 - 1)(p^2 + 1)), which lies in the cyclotomic subgroup."""
    f = f12_mul(f12_conj(f), f12_inv(f))  # ^(p^6 - 1)
    return f12_mul(f12_frob(f12_frob(f)), f)  # ^(p^2 + 1)


def final_exp(f):
    """f^((p^12 - 1) / N): the easy part, then the hard part (p^4 - p^2 + 1) / N.

    The hard exponent is l0 + l1*p + l2*p^2 + p^3 with l2 = 6u^2 + 1,
    l1 = -36u^3 - 18u^2 - 12u + 1 and l0 = -36u^3 - 30u^2 - 18u - 2. It is
    raised by three exponentiations by u, Frobenius maps and the addition
    chain y0 * y1^2 * y2^6 * y3^12 * y4^18 * y5^30 * y6^36 of Scott et al.
    (Pairing 2009); the inverses are conjugates.
    """
    f = easy_part(f)
    fu = f12_cyc_pow(f, U)
    fu2 = f12_cyc_pow(fu, U)
    fu3 = f12_cyc_pow(fu2, U)
    fp = f12_frob(f)
    fp2 = f12_frob(fp)
    y0 = f12_mul(f12_mul(fp, fp2), f12_frob(fp2))  # f^(p + p^2 + p^3)
    y1 = f12_conj(f)  # f^-1
    y2 = f12_frob(f12_frob(fu2))  # f^(u^2 p^2)
    y3 = f12_conj(f12_frob(fu))  # f^(-u p)
    y4 = f12_conj(f12_mul(fu, f12_frob(fu2)))  # f^(-u - u^2 p)
    y5 = f12_conj(fu2)  # f^(-u^2)
    y6 = f12_conj(f12_mul(fu3, f12_frob(fu3)))  # f^(-u^3 - u^3 p)
    t0 = f12_mul(f12_mul(f12_cyc_sqr(y6), y4), y5)
    t1 = f12_mul(f12_mul(y3, y5), t0)
    t0 = f12_mul(t0, y2)
    t1 = f12_cyc_sqr(f12_mul(f12_cyc_sqr(t1), t0))
    t0 = f12_cyc_sqr(f12_mul(t1, y1))
    return f12_mul(t0, f12_mul(t1, y0))


def pairing(p1, q2):
    """e(p1, q2) for p1 in G1 (affine/None) and q2 on the twist (affine/None)."""
    return final_exp(miller_loop(q2, p1))


def pairing_check(pairs):
    """Whether prod_i e(P_i, Q_i) = 1 over (G1, twist) pairs: one Miller loop, one final exponentiation."""
    return final_exp(multi_miller(pairs)) == F12_ONE

