"""Arithmetic for the 254-bit Barreto-Naehrig curve (alt_bn128).

Base field Fp, the tower Fp2 -> Fp6 -> Fp12, point arithmetic on G1 (over
Fp) and on the sextic twist carrying G2 (over Fp2), and the optimal ate
pairing e: G1 x G2 -> GT (a subgroup of Fp12*).

G1 uses the Fp point arithmetic in ``curve``; G2 uses its Fp2 copy below.
One affine chord routine, ``_chords``, serves ``g2_add``, the tables of
``g2_mul_gls`` and the Miller loop: over a list of (t, q) pairs it returns
each line's slope, its w^3 coefficient and the sum t + q, with one batched
inversion.

The Miller loop walks the signed digits of 6u+2: 65 doublings, 21 additions
and 2 Frobenius lines, 88 line steps. ``g2_lines`` computes each G2 point's
88 lines, one inversion per step for all points, and ``miller_eval``
evaluates them at the G1 points, sharing the squarings. The lines are a
function of the point alone, so a caller that keeps them skips the point's
chords the next time (Costello-Stebila, "Fixed Argument Pairings",
LATINCRYPT 2010); ``miller_loop`` keeps none.

Every exponentiation runs the one double-and-add loop ``curve.ladder``:
  - G1 ``g1_mul`` splits the scalar in two with the cube-root endomorphism
    (``curve.glv_mul``), a joint ladder over subset sums;
  - in the order-N subgroups, ``g2_mul_gls`` (also for powers of G2_GEN)
    and ``gt_pow_gls`` split it in four with the Frobenius, the same way,
    and run a product of powers as one ladder;
  - a G1 or G2 point raised to many powers keeps a Lim-Lee comb of 8 teeth
    (``curve.comb`` and ``g2_comb``, both ``curve.comb_table``): its terms
    take 32 steps of at most one table entry each, run as the last steps of
    the product's ladder beside its split terms (``glv_mul``, ``g2_mul_gls``),
    and ``g2_comb_powers`` runs a batch of powers of one point over its comb;
    the backend gives a point a comb at its 8th product, or at once for
    keygen's batch of powers of g2; GT elements keep none;
  - ``g2_mul`` (width-4 signed digits over pt, 3pt, 5pt, 7pt) and
    ``f12_cyc_pow`` (NAF digits) take any twist point or cyclotomic element
    and any scalar, for the subgroup tests, cofactor clearing and the final
    exponentiation.
The program takes no power through ``g1_mul_base`` or ``g2_mul_base``.

Decoding a G2 point costs two Fp exponentiations in ``f2_sqrt`` and the
subgroup test ``g2_in_subgroup``: 62 doublings and 13 mixed additions for
[u]Q, then five mixed additions whose Jacobian sum is tested for infinity.

Representation conventions:
  - Fp elements are plain ints in [0, P).
  - Fp2 elements are pairs (a0, a1) meaning a0 + a1*i with i^2 = -1.
  - Fp12 elements are 6-tuples of Fp2 coefficients in w, with w^6 = XI
    where XI = 9 + i is the sextic non-residue.
  - Curve points are affine (x, y) tuples, or Jacobian (X, Y, Z) inside
    scalar multiplication; None is the point at infinity in both.

G2 points live on the D-type twist y^2 = x^3 + 3/XI over Fp2; the untwist
into E(Fp12) is (x*w^2, y*w^3) and only appears implicitly in the sparse
line evaluations of the Miller loop, which ``_f12_mul_line`` multiplies in.

Inversions in Fp and Fp2 use Python's extended-Euclid ``pow(x, -1, P)``,
which raises ValueError on zero. Dense Fp12 products are Karatsuba over
Fp6 = Fp2[w^2], on plain ints reduced once per output coefficient.

GT, and every value past the easy part of the final exponentiation, lies in
the cyclotomic subgroup of Fp12*: there ``f12_cyc_pow`` exponentiates with
cyclotomic squarings.
"""

from functools import reduce

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


def f2_mul_xi(a):
    """Multiply by XI = 9 + i."""
    a0, a1 = a
    return ((9 * a0 - a1) % P, (9 * a1 + a0) % P)


def f2_inv(a):
    a0, a1 = a
    d = pow(a0 * a0 + a1 * a1, -1, P)
    return (a0 * d % P, -a1 * d % P)


def _sqrt_fp(a):
    # P = 3 mod 4
    r = pow(a, (P + 1) // 4, P)
    return r if r * r % P == a else None


def f2_sqrt(a):
    """A square root of a in Fp2, or None if a is not a square: two Fp exponentiations, no inversion.

    With a = a0 + a1*i and s = sqrt(a0^2 + a1^2) in Fp, a root x0 + x1*i has
    x0^2 = d = (a0 + s)/2 and x1 = a1/(2*x0). One exponentiation gives
    g = d^((p-3)/4), which is 1/sqrt(d) when d is a square (Scott, "Tricks of
    the trade", ePrint 2020/1497): then the root is (d*g, a1*g/2). Otherwise
    -d is a square, d*g is its root, and the root has x1^2 = -d: it is
    (a1*g/2, -d*g). For a1 = 0 one exponentiation finds the root of a0 or of
    -a0. Either root may come back; callers fix the sign.
    """
    a0, a1 = a
    if a1 == 0:
        r = pow(a0, (P + 1) // 4, P)
        return (r, 0) if r * r % P == a0 else (0, r)
    n = (a0 * a0 + a1 * a1) % P
    s = pow(n, (P + 1) // 4, P)
    if s * s % P != n:
        return None
    inv2 = (P + 1) // 2
    d = (a0 + s) * inv2 % P  # nonzero: d = 0 would need a1 = 0
    g = pow(d, (P - 3) // 4, P)
    t, v = d * g % P, a1 * g * inv2 % P
    root = (t, v) if t * t % P == d else (v, -t % P)
    return root if f2_sqr(root) == a else None


# ---------------------------------------------------------------------------
# Fp6 = Fp2[v] / (v^3 - XI) with v = w^2, the middle level of the tower.
#
# Here an Fp6 element c0 + c1*v + c2*v^2 is a flat 6-tuple of ints
# (c0[0], c0[1], c1[0], c1[1], c2[0], c2[1]). The products below take any
# ints, reduced or not, and return their six coefficients unreduced: each
# caller reduces each output coefficient mod P once.
# ---------------------------------------------------------------------------


def _f6_mul(a, b):
    """a * b, unreduced, with Karatsuba over Fp6 and within each of its 6 Fp2 products.

    c0 = a0*b0 + XI*(a1*b2 + a2*b1), c1 = a0*b1 + a1*b0 + XI*a2*b2 and
    c2 = a0*b2 + a2*b0 + a1*b1, each sum of cross terms taken as
    (ai + aj)(bi + bj) - ai*bi - aj*bj.
    """
    a00, a01, a10, a11, a20, a21 = a
    b00, b01, b10, b11, b20, b21 = b
    m, n = a00 * b00, a01 * b01
    t00, t01 = m - n, (a00 + a01) * (b00 + b01) - m - n  # a0*b0
    m, n = a10 * b10, a11 * b11
    t10, t11 = m - n, (a10 + a11) * (b10 + b11) - m - n  # a1*b1
    m, n = a20 * b20, a21 * b21
    t20, t21 = m - n, (a20 + a21) * (b20 + b21) - m - n  # a2*b2
    x0, x1, y0, y1 = a10 + a20, a11 + a21, b10 + b20, b11 + b21
    m, n = x0 * y0, x1 * y1
    u0, u1 = m - n - t10 - t20, (x0 + x1) * (y0 + y1) - m - n - t11 - t21  # a1*b2 + a2*b1
    x0, x1, y0, y1 = a00 + a10, a01 + a11, b00 + b10, b01 + b11
    m, n = x0 * y0, x1 * y1
    v0, v1 = m - n - t00 - t10, (x0 + x1) * (y0 + y1) - m - n - t01 - t11  # a0*b1 + a1*b0
    x0, x1, y0, y1 = a00 + a20, a01 + a21, b00 + b20, b01 + b21
    m, n = x0 * y0, x1 * y1  # for a0*b2 + a2*b0
    return (
        t00 + 9 * u0 - u1, t01 + 9 * u1 + u0,
        v0 + 9 * t20 - t21, v1 + 9 * t21 + t20,
        m - n - t00 - t20 + t10, (x0 + x1) * (y0 + y1) - m - n - t01 - t21 + t11,
    )


def _f6_mul_01(a, b0, b1):
    """a * (b0 + b1*v) for Fp2 pairs b0, b1, unreduced: 5 Fp2 products."""
    a00, a01, a10, a11, a20, a21 = a
    b00, b01 = b0
    b10, b11 = b1
    m, n = a00 * b00, a01 * b01
    t00, t01 = m - n, (a00 + a01) * (b00 + b01) - m - n  # a0*b0
    m, n = a10 * b10, a11 * b11
    t10, t11 = m - n, (a10 + a11) * (b10 + b11) - m - n  # a1*b1
    m, n = a20 * b10, a21 * b11
    u0, u1 = m - n, (a20 + a21) * (b10 + b11) - m - n  # a2*b1
    m, n = a20 * b00, a21 * b01
    s0, s1 = m - n, (a20 + a21) * (b00 + b01) - m - n  # a2*b0
    x0, x1, y0, y1 = a00 + a10, a01 + a11, b00 + b10, b01 + b11
    m, n = x0 * y0, x1 * y1  # for a0*b1 + a1*b0
    return (
        t00 + 9 * u0 - u1, t01 + 9 * u1 + u0,
        m - n - t00 - t10, (x0 + x1) * (y0 + y1) - m - n - t01 - t11,
        t10 + s0, t11 + s1,
    )


def _f6_inv(a):
    """The inverse of a nonzero Fp6 element a (any ints), reduced."""
    a0, a1, a2 = (a[0] % P, a[1] % P), (a[2] % P, a[3] % P), (a[4] % P, a[5] % P)
    c0 = f2_sub(f2_sqr(a0), f2_mul_xi(f2_mul(a1, a2)))
    c1 = f2_sub(f2_mul_xi(f2_sqr(a2)), f2_mul(a0, a1))
    c2 = f2_sub(f2_sqr(a1), f2_mul(a0, a2))
    t = f2_add(f2_mul(a0, c0), f2_mul_xi(f2_add(f2_mul(a2, c1), f2_mul(a1, c2))))
    ti = f2_inv(t)
    return (*f2_mul(c0, ti), *f2_mul(c1, ti), *f2_mul(c2, ti))


# ---------------------------------------------------------------------------
# Fp12 = Fp2[w] / (w^6 - XI) = Fp6[w] / (w^2 - v)
#
# a = A0 + A1*w with the Fp6 halves A0 = (a[0], a[2], a[4]) and
# A1 = (a[1], a[3], a[5]). Karatsuba over this split and over Fp6 gives a
# dense product of 18 Fp2 products (Devegili, O hEigeartaigh, Scott and
# Dahab, "Multiplication and Squaring on Pairing-Friendly Fields", 2006).
# ---------------------------------------------------------------------------

F12_ONE = (F2_ONE, F2_ZERO, F2_ZERO, F2_ZERO, F2_ZERO, F2_ZERO)


def f12_mul(a, b):
    """a * b = A0*B0 + v*A1*B1 + ((A0 + A1)(B0 + B1) - A0*B0 - A1*B1)*w."""
    (a00, a01), (a10, a11), (a20, a21), (a30, a31), (a40, a41), (a50, a51) = a
    (b00, b01), (b10, b11), (b20, b21), (b30, b31), (b40, b41), (b50, b51) = b
    t00, t01, t10, t11, t20, t21 = _f6_mul((a00, a01, a20, a21, a40, a41), (b00, b01, b20, b21, b40, b41))
    s00, s01, s10, s11, s20, s21 = _f6_mul((a10, a11, a30, a31, a50, a51), (b10, b11, b30, b31, b50, b51))
    u00, u01, u10, u11, u20, u21 = _f6_mul(
        (a00 + a10, a01 + a11, a20 + a30, a21 + a31, a40 + a50, a41 + a51),
        (b00 + b10, b01 + b11, b20 + b30, b21 + b31, b40 + b50, b41 + b51),
    )
    return (
        ((t00 + 9 * s20 - s21) % P, (t01 + 9 * s21 + s20) % P),
        ((u00 - t00 - s00) % P, (u01 - t01 - s01) % P),
        ((t10 + s00) % P, (t11 + s01) % P),
        ((u10 - t10 - s10) % P, (u11 - t11 - s11) % P),
        ((t20 + s10) % P, (t21 + s11) % P),
        ((u20 - t20 - s20) % P, (u21 - t21 - s21) % P),
    )


def f12_sqr(a):
    """a^2 by the complex method: with t = A0*A1, (A0 + A1)(A0 + v*A1) - t - v*t + 2t*w."""
    (a00, a01), (a10, a11), (a20, a21), (a30, a31), (a40, a41), (a50, a51) = a
    t0, t1, t2, t3, t4, t5 = _f6_mul((a00, a01, a20, a21, a40, a41), (a10, a11, a30, a31, a50, a51))
    u0, u1, u2, u3, u4, u5 = _f6_mul(
        (a00 + a10, a01 + a11, a20 + a30, a21 + a31, a40 + a50, a41 + a51),
        (a00 + 9 * a50 - a51, a01 + 9 * a51 + a50, a20 + a10, a21 + a11, a40 + a30, a41 + a31),
    )
    return (
        ((u0 - t0 - 9 * t4 + t5) % P, (u1 - t1 - 9 * t5 - t4) % P),
        (2 * t0 % P, 2 * t1 % P),
        ((u2 - t2 - t0) % P, (u3 - t3 - t1) % P),
        (2 * t2 % P, 2 * t3 % P),
        ((u4 - t4 - t2) % P, (u5 - t5 - t3) % P),
        (2 * t4 % P, 2 * t5 % P),
    )


def _f12_mul_line(f, l0, l1, l3):
    """f * (l0 + l1*w + l3*w^3) for l0 in Fp: the shape of every chord and tangent line.

    The line is L0 + L1*w with L0 = l0 and L1 = l1 + l3*v, so Karatsuba costs
    6 Fp-scalar products for F0*L0 and two sparse Fp6 products (Aranha et al.,
    EUROCRYPT 2011).
    """
    (a00, a01), (a10, a11), (a20, a21), (a30, a31), (a40, a41), (a50, a51) = f
    x0, x1, x2, x3, x4, x5 = a00 * l0, a01 * l0, a20 * l0, a21 * l0, a40 * l0, a41 * l0
    y0, y1, y2, y3, y4, y5 = _f6_mul_01((a10, a11, a30, a31, a50, a51), l1, l3)
    z0, z1, z2, z3, z4, z5 = _f6_mul_01(
        (a00 + a10, a01 + a11, a20 + a30, a21 + a31, a40 + a50, a41 + a51), (l0 + l1[0], l1[1]), l3
    )
    return (
        ((x0 + 9 * y4 - y5) % P, (x1 + 9 * y5 + y4) % P),
        ((z0 - x0 - y0) % P, (z1 - x1 - y1) % P),
        ((x2 + y0) % P, (x3 + y1) % P),
        ((z2 - x2 - y2) % P, (z3 - x3 - y3) % P),
        ((x4 + y2) % P, (x5 + y3) % P),
        ((z4 - x4 - y4) % P, (z5 - x5 - y5) % P),
    )


def _f12_mul_f6(a, b):
    """a * b for b in the subfield Fp6, given as a flat tuple: A0*b + A1*b*w."""
    c = _f6_mul((*a[0], *a[2], *a[4]), b)
    d = _f6_mul((*a[1], *a[3], *a[5]), b)
    return tuple((x[k] % P, x[k + 1] % P) for k in (0, 2, 4) for x in (c, d))


def f12_conj(a):
    """The p^6-power Frobenius: negates the odd-w coefficients."""
    return (a[0], f2_neg(a[1]), a[2], f2_neg(a[3]), a[4], f2_neg(a[5]))


def f12_inv(a):
    """(A0 - A1*w) / (A0^2 - v*A1^2)."""
    a0, a1 = (*a[0], *a[2], *a[4]), (*a[1], *a[3], *a[5])
    s, t = _f6_mul(a0, a0), _f6_mul(a1, a1)
    d = (s[0] - 9 * t[4] + t[5], s[1] - 9 * t[5] - t[4], s[2] - t[0], s[3] - t[1], s[4] - t[2], s[5] - t[3])
    return _f12_mul_f6(f12_conj(a), _f6_inv(d))


# XI^(i(p-1)/6) for i < 6, as powers of one exponentiation.
_FROB_GAMMA = [F2_ONE, curve.ladder(F2_ONE, curve.columns([(P - 1) // 6]), [None, XI], f2_sqr, f2_mul)]
for _ in range(4):
    _FROB_GAMMA.append(f2_mul(_FROB_GAMMA[-1], _FROB_GAMMA[1]))


def f12_frob(a):
    """The p-power Frobenius."""
    return tuple(f2_mul(f2_conj(a[i]), _FROB_GAMMA[i]) for i in range(6))


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
    (a00, a01), (a10, a11), (a20, a21), (a30, a31), (a40, a41), (a50, a51) = a
    A0, A1, A2, A3 = _f4_sqr(a00, a01, a30, a31)
    B0, B1, B2, B3 = _f4_sqr(a10, a11, a40, a41)
    C0, C1, C2, C3 = _f4_sqr(a20, a21, a50, a51)
    return (
        ((3 * A0 - 2 * a00) % P, (3 * A1 - 2 * a01) % P),
        ((3 * (9 * C2 - C3) + 2 * a10) % P, (3 * (9 * C3 + C2) + 2 * a11) % P),
        ((3 * B0 - 2 * a20) % P, (3 * B1 - 2 * a21) % P),
        ((3 * A2 + 2 * a30) % P, (3 * A3 + 2 * a31) % P),
        ((3 * C0 - 2 * a40) % P, (3 * C1 - 2 * a41) % P),
        ((3 * B2 + 2 * a50) % P, (3 * B3 + 2 * a51) % P),
    )


def _f4_sqr(x0, x1, y0, y1):
    """(x + y*s)^2 = (x^2 + XI*y^2) + 2xy*s as 4 unreduced ints, from three Fp2 squarings."""
    t0, t1 = (x0 + x1) * (x0 - x1), 2 * x0 * x1
    u0, u1 = (y0 + y1) * (y0 - y1), 2 * y0 * y1
    s0, s1 = x0 + y0, x1 + y1
    return t0 + 9 * u0 - u1, t1 + 9 * u1 + u0, (s0 + s1) * (s0 - s1) - t0 - u0, 2 * s0 * s1 - t1 - u1


def _naf(k, w=2):
    """The width-w non-adjacent form of k >= 0, least significant first.

    Each digit is 0 or odd with |d| < 2^(w-1), and a nonzero digit is followed
    by at least w - 1 zeros; w = 2 is the plain NAF, with digits in {-1, 0, 1}.
    """
    digits = []
    while k:
        d = 0
        if k & 1:
            d = k & ((1 << w) - 1)
            if d >> (w - 1):
                d -= 1 << w
        digits.append(d)
        k = (k - d) >> 1
    return digits


def f12_cyc_pow(a, k):
    """a^k for a in the cyclotomic subgroup and k >= 0.

    Cyclotomic squarings over the signed digits of k after the leading 1; a
    -1 digit multiplies by f12_conj(a), the inverse of a there.
    """
    digits = _naf(k)
    if not digits:
        return F12_ONE
    return curve.ladder(a, reversed(digits[:-1]), {1: a, -1: f12_conj(a)}, f12_cyc_sqr, f12_mul)


# ---------------------------------------------------------------------------
# G1: y^2 = x^3 + 3 over Fp
# ---------------------------------------------------------------------------

G1_B = 3
G1_GEN = (1, 2)


def g1_neg(pt):
    return None if pt is None else (pt[0], -pt[1] % P)


def g1_add(p, q):
    return curve.add(P, p, q)


# (x, y) -> (beta*x, y) is multiplication by lam on G1, with beta^3 = 1 in Fp.
G1_GLV = curve.glv(P, N, beta=18 * U**3 + 18 * U**2 + 9 * U + 1, lam=36 * U**3 + 18 * U**2 + 6 * U + 1)


def g1_mul(pt, k):
    """k * pt for pt on G1, with k reduced mod N: ``curve.glv_mul``, as G1 is the whole curve."""
    return curve.glv_mul(G1_GLV, [(pt, k % N)])


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


def g2_rhs(x):
    """x^3 + 3/XI, the right side of the twist equation."""
    return f2_add(f2_mul(f2_sqr(x), x), TW_B)


def g2_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return f2_sqr(y) == g2_rhs(x)


def g2_neg(pt):
    return None if pt is None else (pt[0], f2_neg(pt[1]))


# The Fp2 copy of the routines in ``curve``.


def _f2_batch_inv(xs):
    """Inverses of the nonzero Fp2 xs (any ints) with one f2_inv: Montgomery's simultaneous inversion.

    Each of its 3(n - 1) Fp2 products is inlined on plain ints.
    """
    if not xs:
        return []
    a0, a1 = xs[0]
    prefix = [(a0, a1)]
    for x0, x1 in xs[1:]:
        m, n = a0 * x0, a1 * x1
        a0, a1 = (m - n) % P, ((a0 + a1) * (x0 + x1) - m - n) % P
        prefix.append((a0, a1))
    i0, i1 = f2_inv((a0 % P, a1 % P))
    out = [None] * len(xs)
    for k in range(len(xs) - 1, 0, -1):
        a0, a1 = prefix[k - 1]
        m, n = i0 * a0, i1 * a1
        out[k] = ((m - n) % P, ((i0 + i1) * (a0 + a1) - m - n) % P)
        x0, x1 = xs[k]
        m, n = i0 * x0, i1 * x1
        i0, i1 = (m - n) % P, ((i0 + i1) * (x0 + x1) - m - n) % P
    out[0] = (i0, i1)
    return out


def _chords(pairs):
    """The line through each pair (t, q) of finite affine twist points, and the sum t + q.

    Returns, per pair, (m, c, t + q): the chord slope m, or the tangent's
    where t = q, and c = y1 - m*x1 for t = (x1, y1), so the line is
    y = m*x + c. Where t = -q the line is vertical and the entry is
    (None, None, None). One f2_inv serves every pair. Beyond its share of
    that inversion, a pair takes 3 Fp2 products and a squaring, and a
    tangent one more squaring, on plain ints.
    """
    nums, dens = [], []
    for ((a0, a1), (b0, b1)), ((c0, c1), (d0, d1)) in pairs:
        if a0 != c0 or a1 != c1:
            nums.append((d0 - b0, d1 - b1))
            dens.append((c0 - a0, c1 - a1))
        elif (b0 + d0) % P or (b1 + d1) % P:  # tangent: 3x1^2 / 2y1
            nums.append((3 * (a0 + a1) * (a0 - a1), 6 * a0 * a1))
            dens.append((2 * b0, 2 * b1))
        else:
            nums.append(None)
    invs = iter(_f2_batch_inv(dens))
    out = []
    for (((a0, a1), (b0, b1)), ((c0, c1), _)), num in zip(pairs, nums):
        if num is None:
            out.append((None, None, None))
            continue
        (n0, n1), (i0, i1) = num, next(invs)
        m, n = n0 * i0, n1 * i1
        m0, m1 = (m - n) % P, ((n0 + n1) * (i0 + i1) - m - n) % P  # slope
        x0, x1 = ((m0 + m1) * (m0 - m1) - a0 - c0) % P, (2 * m0 * m1 - a1 - c1) % P  # m^2 - x1 - x2
        m, n = m0 * a0, m1 * a1
        e0, e1 = (b0 - m + n) % P, (b1 - (m0 + m1) * (a0 + a1) + m + n) % P  # y1 - m*x1
        m, n = m0 * x0, m1 * x1
        out.append(((m0, m1), (e0, e1),
                    ((x0, x1), ((n - m - e0) % P, (m + n - (m0 + m1) * (x0 + x1) - e1) % P))))
    return out


def _g2_add_all(pairs):
    """p + q for each pair of affine twist points (None for infinity), with one inversion for all."""
    chords = iter(_chords([(p, q) for p, q in pairs if p is not None and q is not None]))
    return [q if p is None else p if q is None else next(chords)[2] for p, q in pairs]


def g2_add(p, q):
    """p + q on the twist: the one-pair case of ``_g2_add_all``."""
    return _g2_add_all([(p, q)])[0]


def _jac_double_f2(q):
    """2q for Jacobian q, on plain ints: the Fp copy's formulas with each Fp2 product inlined."""
    if q is None:
        return None
    (x0, x1), (y0, y1), (z0, z1) = q
    a0, a1 = (x0 + x1) * (x0 - x1) % P, 2 * x0 * x1 % P  # x^2
    b0, b1 = (y0 + y1) * (y0 - y1) % P, 2 * y0 * y1 % P  # y^2
    c0, c1 = (b0 + b1) * (b0 - b1) % P, 2 * b0 * b1 % P  # y^4
    s0, s1 = x0 + b0, x1 + b1
    d0, d1 = 2 * ((s0 + s1) * (s0 - s1) - a0 - c0) % P, 2 * (2 * s0 * s1 - a1 - c1) % P
    e0, e1 = 3 * a0, 3 * a1
    x30, x31 = ((e0 + e1) * (e0 - e1) - 2 * d0) % P, (2 * e0 * e1 - 2 * d1) % P
    t0, t1 = d0 - x30, d1 - x31
    m, n = e0 * t0, e1 * t1
    y30, y31 = (m - n - 8 * c0) % P, ((e0 + e1) * (t0 + t1) - m - n - 8 * c1) % P
    m, n = y0 * z0, y1 * z1
    return ((x30, x31), (y30, y31), (2 * (m - n) % P, 2 * ((y0 + y1) * (z0 + z1) - m - n) % P))


def _jac_madd_f2(q, a):
    """Jacobian q + affine a on plain ints; q for a = None, a doubling when they are equal, None when opposite."""
    if a is None:
        return q
    if q is None:
        return (*a, F2_ONE)
    (x0, x1), (y0, y1), (z0, z1) = q
    (a0, a1), (b0, b1) = a
    s0, s1 = (z0 + z1) * (z0 - z1) % P, 2 * z0 * z1 % P  # z^2
    m, n = a0 * s0, a1 * s1
    h0, h1 = (m - n - x0) % P, ((a0 + a1) * (s0 + s1) - m - n - x1) % P  # xa*z^2 - x
    m, n = z0 * s0, z1 * s1
    c0, c1 = (m - n) % P, ((z0 + z1) * (s0 + s1) - m - n) % P  # z^3
    m, n = b0 * c0, b1 * c1
    r0, r1 = (m - n - y0) % P, ((b0 + b1) * (c0 + c1) - m - n - y1) % P  # ya*z^3 - y
    if h0 == h1 == 0:
        return _jac_double_f2(q) if r0 == r1 == 0 else None
    u0, u1 = (h0 + h1) * (h0 - h1) % P, 2 * h0 * h1 % P  # h^2
    m, n = h0 * u0, h1 * u1
    g0, g1 = (m - n) % P, ((h0 + h1) * (u0 + u1) - m - n) % P  # h^3
    m, n = x0 * u0, x1 * u1
    v0, v1 = (m - n) % P, ((x0 + x1) * (u0 + u1) - m - n) % P  # x*h^2
    x30, x31 = ((r0 + r1) * (r0 - r1) - g0 - 2 * v0) % P, (2 * r0 * r1 - g1 - 2 * v1) % P
    t0, t1 = v0 - x30, v1 - x31
    m, n, e, f = r0 * t0, r1 * t1, y0 * g0, y1 * g1
    y30 = (m - n - e + f) % P
    y31 = ((r0 + r1) * (t0 + t1) - m - n - (y0 + y1) * (g0 + g1) + e + f) % P
    m, n = z0 * h0, z1 * h1
    return ((x30, x31), (y30, y31), ((m - n) % P, ((z0 + z1) * (h0 + h1) - m - n) % P))


def _to_affine_f2(q):
    return None if q is None else _batch_to_affine_f2([q])[0]


def _batch_to_affine_f2(qs):
    """Finite Jacobian points to affine, with one f2_inv for all of them."""
    out = []
    for (x, y, _), zi in zip(qs, _f2_batch_inv([q[2] for q in qs])):
        zi2 = f2_sqr(zi)
        out.append((f2_mul(x, zi2), f2_mul(f2_mul(y, zi2), zi)))
    return out


def g2_mul(pt, k):
    """k * pt for any twist point and any k, by a width-4 signed-digit (wNAF) ladder.

    The table maps the digits 1, 3, 5, 7 to pt, 3pt, 5pt, 7pt (2pt by one
    affine doubling, the odd multiples by mixed additions of it, then one
    batched inversion) and -1, -3, -5, -7 to their negatives. A nonzero
    digit is followed by at least three zero digits. No reduction mod N
    here: the subgroup test and cofactor clearing multiply points outside
    G2, and by scalars of N or more.
    The twist's order has no prime factor below 10069, so no table entry is
    infinity and none meets +-pt in its mixed addition.
    """
    if k < 0:
        pt, k = g2_neg(pt), -k
    if pt is None or k == 0:
        return None
    two = g2_add(pt, pt)
    odd = [(*pt, F2_ONE)]
    for _ in range(3):
        odd.append(_jac_madd_f2(odd[-1], two))
    table = {}
    for d, q in zip((1, 3, 5, 7), [pt, *_batch_to_affine_f2(odd[1:])]):
        table[d], table[-d] = q, g2_neg(q)
    return _to_affine_f2(curve.ladder(None, reversed(_naf(k, 4)), table, _jac_double_f2, _jac_madd_f2))


# Frobenius on the twist: psi(x, y) = (conj(x)*XI^((p-1)/3), conj(y)*XI^((p-1)/2)).
_TW_FROB_X = _FROB_GAMMA[2]
_TW_FROB_Y = _FROB_GAMMA[3]


def _tw_frob(pt):
    return (f2_mul(f2_conj(pt[0]), _TW_FROB_X), f2_mul(f2_conj(pt[1]), _TW_FROB_Y))


def _jac_sum_f2(pts):
    """The sum of affine twist points (None for infinity) as a Jacobian point, by mixed additions."""
    return reduce(_jac_madd_f2, pts, None)


def g2_sum(pts):
    """The sum of affine twist points (None for infinity): mixed Jacobian additions, one inversion."""
    return _to_affine_f2(_jac_sum_f2(pts))


# ---------------------------------------------------------------------------
# Products of powers in the order-N subgroups G2 and GT by a 4-dimensional
# split (Galbraith-Lin-Scott, EUROCRYPT 2009; Galbraith-Scott, Pairing 2008).
# On G2 the twist Frobenius psi, and on GT the p-power Frobenius, act as
# multiplication by p = 6u^2 mod N. A scalar k becomes k0 + k1*p + k2*p^2 +
# k3*p^3 mod N with |ki| < 2^65 by Babai rounding against the short basis
# below. A product of powers runs one joint ladder of at most 65 steps over
# all its terms' parts, so the terms share every doubling or squaring. The
# rows span a sublattice of index 3 (det 3N); that is enough, since each row
# alone sums to 0 mod N. Both paths hold only in the order-N subgroup, so
# the general g2_mul and f12_cyc_pow stay for everything else.
# ---------------------------------------------------------------------------

GLS_LATTICE = curve.lattice([
    (U + 1, U, U, -2 * U),
    (2 * U + 1, -U, -(U + 1), -U),
    (2 * U, 2 * U + 1, 2 * U + 1, 2 * U + 1),
    (U - 1, 4 * U + 2, -2 * U + 1, U - 1),
])


def _gls_table(terms, frob, neg, add_all):
    """The bit columns of one joint ladder for prod x^k over (x, k) terms, and the table they index.

    Each k splits in four parts, over x and its three Frobenius images,
    negated where the part is negative; each term gets the 16 subset sums of
    its four bases. The table maps a column, one bit of every part, to the
    sum of the entries it selects, one per term. ``add_all`` adds pairs,
    with None as the identity.
    """
    bases, parts = [], []
    for x, k in terms:
        for i, c in enumerate(curve.split(k % N, GLS_LATTICE)):
            x = frob(x) if i else x
            bases.append(x if c >= 0 else neg(x))
            parts.append(abs(c))
    sums = [[None] for _ in range(0, len(bases), 4)]
    for j in range(4):
        new = iter(add_all([(t, bases[4 * i + j]) for i, table in enumerate(sums) for t in table]))
        for table in sums:
            table += [next(new) for _ in table]
    cols = curve.columns(parts)
    keys = list(set(cols))
    acc = [None] * len(keys)
    for i, table in enumerate(sums):
        acc = add_all([(a, table[c >> 4 * i & 15]) for a, c in zip(acc, keys)])
    return cols, dict(zip(keys, acc))


def g2_mul_gls(terms, combs=()):
    """sum k * pt over (pt, k) terms, for points of G2 only, plus combs, by one joint ladder.

    The table takes 3 inversions for the subset sums and one per further
    term; the ladder makes one mixed addition per nonzero column. The
    (``g2_comb`` of pt, k) terms combs, with 0 <= k < 2^256, add theirs in
    its last 32 steps (``curve.comb_ladder``).
    """
    cols, table = _gls_table([(pt, k) for pt, k in terms if pt is not None], _tw_frob, g2_neg, _g2_add_all)
    return _to_affine_f2(curve.comb_ladder(cols, table, combs, _jac_double_f2, _jac_madd_f2))


def gt_pow_gls(terms):
    """prod a^k over (a, k) terms, for elements of GT only, by one joint ladder of cyclotomic squarings.

    A negative part takes the conjugate, the inverse in GT. The ladder
    starts from the first column's entry, so it never squares 1.
    """
    cols, table = _gls_table(terms, f12_frob, f12_conj,
                             lambda pairs: [b if a is None else a if b is None else f12_mul(a, b) for a, b in pairs])
    return curve.ladder(table[cols[0]], cols[1:], table, f12_cyc_sqr, f12_mul) if cols else F12_ONE


def g2_in_subgroup(pt):
    """Whether pt is on the twist and in G2, the order-N subgroup.

    Tests Q + R + psi(R) + psi^2(R) - 2psi^3(R) = O for R = [u]Q, with psi the
    twist Frobenius (Dai-Lin-Zhao-Zhou, ePrint 2022/348): one 63-bit ``g2_mul``
    (62 doublings, 13 mixed additions, one inversion for its table and one for
    R) where [N]Q = O takes a 254-bit one. The sum is five mixed additions and
    stays Jacobian: only its infinity is tested. [u]Q = O only for Q = O,
    since u < N.
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
    return _jac_sum_f2([pt, uq, psi1, psi2, psi3, psi3]) is None


def g1_mul_base(k):
    """k * G1_GEN, by the GLV split."""
    return g1_mul(G1_GEN, k)


def g2_mul_base(k):
    """k * G2_GEN, by the GLS split."""
    return g2_mul_gls([(G2_GEN, k)])


def g2_comb(pt):
    """The Lim-Lee comb of a finite point of G2 (``curve.comb_table``): one batched chord call per spoke."""
    return curve.comb_table(pt, _jac_double_f2, _jac_madd_f2, _batch_to_affine_f2, _g2_add_all)


def g2_comb_powers(comb, ks):
    """[k * pt for k in ks] over the comb of pt, None where k = 0 mod N.

    Each k runs one ``curve.comb_ladder`` of 32 doublings and at most 32
    mixed additions (``g2_mul_gls``: about 64 of each, after a 16-entry
    table), and one inversion normalizes every output.
    """
    outs = [curve.comb_ladder([], None, [(comb, k % N)], _jac_double_f2, _jac_madd_f2) for k in ks]
    finite = iter(_batch_to_affine_f2([q for q in outs if q is not None]))
    return [None if q is None else next(finite) for q in outs]


# ---------------------------------------------------------------------------
# Optimal ate pairing
# ---------------------------------------------------------------------------

# The 88 line steps over the signed digits of 6u+2, each named by the addend
# of the running point T: 0 doubles T, 1 and -1 add Q and -Q, 2 and 3 add
# the Frobenius images psi(Q) and -psi^2(Q).
_ATE_STEPS = [s for d in reversed(_naf(ATE_LOOP)[:-1]) for s in ((0, d) if d else (0,))] + [2, 3]


def g2_lines(qs):
    """The Miller-loop lines of each finite twist point in qs: per point, a tuple of its 88 line steps.

    The steps are 65 doublings, 21 additions (a -1 digit adds -Q) and the 2
    Frobenius lines. An entry is (m, c) for the line y = m*x + c through the
    running point T and its addend, or (None, x1) where the line is
    vertical at T = (x1, y1). Each step makes one ``_chords`` call over
    every point, so all points share its one inversion.
    """
    if not qs:
        return []
    q1s = [_tw_frob(q) for q in qs]
    addends = {1: qs, -1: [g2_neg(q) for q in qs], 2: q1s, 3: [g2_neg(_tw_frob(q1)) for q1 in q1s]}
    out = [[] for _ in qs]
    ts = qs
    for step in _ATE_STEPS:
        chords = _chords(list(zip(ts, addends.get(step, ts))))
        for (x1, _), (m, c, _), lines in zip(ts, chords, out):
            lines.append((None, x1) if m is None else (m, c))
        ts = [s for _, _, s in chords]
    return [tuple(lines) for lines in out]  # kept and shared by elements, so immutable


def miller_eval(pairs):
    """prod_i f_{6u+2, Q_i}(P_i) over (P_i, lines) pairs, the lines of Q_i from ``g2_lines``; up to a factor in Fp6.

    The pairs share every squaring of the accumulator. The untwisted line
    through T = (x1, y1) evaluated at (xp, yp) is m*xp*w - yp + c*w^3, or
    xp - x1*w^2 where it is vertical. The vertical line Miller's formula
    divides by at a -1 digit lies in Fp6, which the final exponentiation
    removes, so it is left out. A pair with None on either side contributes 1.
    """
    ps = [(pt[0], -pt[1] % P, lines) for pt, lines in pairs if pt is not None and lines is not None]
    f = F12_ONE
    if not ps:
        return f
    for k, step in enumerate(_ATE_STEPS):
        if step == 0:
            f = f12_sqr(f)
        for xp, nyp, lines in ps:
            m, c = lines[k]
            if m is None:  # lies in Fp6
                f = _f12_mul_f6(f, (xp, 0, -c[0], -c[1], 0, 0))
            else:
                f = _f12_mul_line(f, nyp, (m[0] * xp % P, m[1] * xp % P), c)
    return f


def miller_loop(q, pt):
    """f_{6u+2, Q}(P) with the two Frobenius correction lines, from Q's lines computed afresh and not kept."""
    return miller_eval([(pt, g2_lines([q])[0] if pt is not None and q is not None else None)])


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
