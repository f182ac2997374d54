"""Arithmetic for the 254-bit Barreto-Naehrig curve (alt_bn128).

Base field Fp, the tower Fp2 -> Fp6 -> Fp12, point arithmetic on G1 (over
Fp) and on the sextic twist carrying G2 (over Fp2), and the optimal ate
pairing e: G1 x G2 -> GT (a subgroup of Fp12*).

G1 uses the Fp point arithmetic in ``curve``; G2 has Fp2 versions of its
point formulas below and shares the rest of ``curve``. One slope routine,
``_slopes``, gives the chord or tangent slope of each of a list of (t, q)
pairs with one batched inversion, and ``_chord_sum`` each sum. Every affine
sum on the twist takes them through ``_g2_add_all``, the adder of the G2
record: ``g2_add``, G2 products, the batched subgroup test's buckets, the
split tables, the combs and the Waters tables. The Miller loop's lines
take neither.

The Miller loop walks the signed digits of 6u+2: 65 doublings, 21 additions
and 2 Frobenius lines, 88 line steps. ``g2_lines`` walks each G2 point in
Jacobian coordinates with no inversion (Costello-Lange-Naehrig, PKC 2010),
by the ladders' own doubling and mixed addition (``_jac_double`` and
``_jac_madd``, which also give the values a line takes from its step):
a step's line is lam times the affine line for some lam in Fp2*, and it
keeps conj(lam) times that, n times the affine line for n = lam*conj(lam)
in Fp, so its w^0 coefficient stays in Fp and the sparse product
``_f12_mul_line`` keeps its shape (Aranha et al., EUROCRYPT 2011).
``miller_eval`` evaluates the lines at the G1 points, sharing the
squarings; the factors n fall to the final exponentiation. The lines are a
function of the point alone, so a caller that keeps them skips the point's
walk the next time (Costello-Stebila, "Fixed Argument Pairings",
LATINCRYPT 2010); ``miller_loop`` keeps none.

Every exponentiation runs the one double-and-add loop ``curve.ladder``
over a record (``curve.Group``) of this module, ``G1``, ``G2`` or ``GT``:
  - a product of powers is one ``curve.multi_mul`` ladder: G1 splits each
    scalar in two with the cube-root endomorphism, G2 and GT, the order-N
    subgroups, in four with the Frobenius;
  - an element raised to many powers keeps a Lim-Lee comb
    (``curve.comb_table``), whose terms join a product's ladder, and
    ``curve.comb_powers`` steps keygen's batch of powers of g2 over one;
    the backend gives an element a comb at its 8th product, so a key's
    e(g^-1, h) in GT keeps one from the confirm and disavow proofs;
  - ``curve.wnaf_mul`` takes any twist point (``g2_mul``) or cyclotomic
    element and any scalar, for the subgroup tests, cofactor clearing, the
    final exponentiation and a decoded GT element's membership test.
The program takes no power through ``g1_mul_base`` or ``g2_mul_base``.

Decoding a G2 point costs an on-curve check of its (x, y), or for a
compressed x two Fp exponentiations in ``f2_sqrt``, and the subgroup test
``g2_in_subgroup``: [u]Q, then five mixed additions whose Jacobian sum is
tested for infinity.
``g2_all_in_subgroup`` tests a batch of points with 10 of those tests, on
random linear combinations with coefficients centred on 0, summed by
signed-digit buckets whose reductions the 10 rounds run in lockstep.

Representation conventions:
  - Fp elements are plain ints in [0, P).
  - Fp2 elements are pairs (a0, a1) meaning a0 + a1*i with i^2 = -1.
  - Fp12 elements are 6-tuples of Fp2 coefficients in w, with w^6 = XI
    where XI = 9 + i is the sextic non-residue.
  - Curve points are affine (x, y) tuples, or Jacobian (X, Y, Z) inside
    scalar multiplication and the Miller loop's walk; None is the point at
    infinity in both.

G2 points live on the D-type twist y^2 = x^3 + 3/XI over Fp2; the untwist
into E(Fp12) is (x*w^2, y*w^3) and only appears implicitly in the sparse
line evaluations of the Miller loop, which ``_f12_mul_line`` multiplies in.

Inversions use Python's extended-Euclid ``pow(x, -1, P)``, which raises
ValueError on zero. An Fp2 x is conj(x) over its norm in Fp, and a batch of
them takes one ``curve.batch_inv`` over the norms. Dense Fp12 products are
Karatsuba over Fp6 = Fp2[w^2], on plain ints reduced once per output
coefficient.

GT, and every value past the easy part of the final exponentiation, lies in
the cyclotomic subgroup of Fp12*, where the GT record squares by
``f12_cyc_sqr``.
"""

import hashlib
import struct
from functools import partial, reduce

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


# ---------------------------------------------------------------------------
# G1: y^2 = x^3 + 3 over Fp
# ---------------------------------------------------------------------------

G1_B = 3
G1_GEN = (1, 2)


# (x, y) -> (beta*x, y) is multiplication by lam on G1, with beta^3 = 1 in Fp.
G1 = curve.glv(P, N, beta=18 * U**3 + 18 * U**2 + 9 * U + 1, lam=36 * U**3 + 18 * U**2 + 6 * U + 1)


def g1_mul(pt, k):
    """k * pt for pt on G1, with k reduced mod N: ``curve.multi_mul``, as G1 is the whole curve."""
    return curve.multi_mul(G1, [(pt, k % N)])


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
    """Inverses of the nonzero Fp2 xs (any ints): conj(x) / (x0^2 + x1^2), the norms by ``curve.batch_inv``."""
    ds = curve.batch_inv(P, [x0 * x0 + x1 * x1 for x0, x1 in xs])
    return [(x0 * d % P, -x1 * d % P) for (x0, x1), d in zip(xs, ds)]


def _slopes(pairs):
    """The slope m of the line through each pair (t, q) of finite affine twist points.

    m is the chord's, or the tangent's where t = q; where t = -q the line is
    vertical and the entry is None. One batched inversion serves every pair.
    Beyond its share of that inversion, a slope takes one Fp2 product, and a
    tangent's a squaring more, on plain ints.
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
    for num in nums:
        if num is None:
            out.append(None)
            continue
        (n0, n1), (i0, i1) = num, next(invs)
        m, n = n0 * i0, n1 * i1
        out.append(((m - n) % P, ((n0 + n1) * (i0 + i1) - m - n) % P))
    return out


def _chord_sum(t, q, sl):
    """t + q for finite affine twist points from their line's slope sl = m: x3 = m^2 - x1 - x2, y3 = m(x1 - x3) - y1."""
    ((a0, a1), (b0, b1)), ((c0, c1), _), (m0, m1) = t, q, sl
    x0, x1 = ((m0 + m1) * (m0 - m1) - a0 - c0) % P, (2 * m0 * m1 - a1 - c1) % P
    t0, t1 = a0 - x0, a1 - x1
    m, n = m0 * t0, m1 * t1
    return ((x0, x1), ((m - n - b0) % P, ((m0 + m1) * (t0 + t1) - m - n - b1) % P))


def _g2_add_all(pairs):
    """p + q for each pair of affine twist points (None for infinity), with one inversion for all and no lines."""
    finite = [(p, q) for p, q in pairs if p is not None and q is not None]
    sums = iter([sl and _chord_sum(p, q, sl) for (p, q), sl in zip(finite, _slopes(finite))])
    return [q if p is None else p if q is None else next(sums) for p, q in pairs]


def g2_add(p, q):
    """p + q on the twist: the one-pair case of ``_g2_add_all``."""
    return _g2_add_all([(p, q)])[0]


def _jac_double(q):
    """2q for a finite Jacobian q on plain ints, and the Y^2 and 3X^2 of its tangent: the Fp copy's formulas."""
    (x0, x1), (y0, y1), (z0, z1) = q
    a0, a1 = (x0 + x1) * (x0 - x1) % P, 2 * x0 * x1 % P  # X^2
    b0, b1 = (y0 + y1) * (y0 - y1) % P, 2 * y0 * y1 % P  # Y^2
    c0, c1 = (b0 + b1) * (b0 - b1) % P, 2 * b0 * b1 % P  # Y^4
    s0, s1 = x0 + b0, x1 + b1
    d0, d1 = 2 * ((s0 + s1) * (s0 - s1) - a0 - c0) % P, 2 * (2 * s0 * s1 - a1 - c1) % P
    e0, e1 = 3 * a0, 3 * a1  # 3X^2
    x30, x31 = ((e0 + e1) * (e0 - e1) - 2 * d0) % P, (2 * e0 * e1 - 2 * d1) % P
    t0, t1 = d0 - x30, d1 - x31
    m, n = e0 * t0, e1 * t1
    y30, y31 = (m - n - 8 * c0) % P, ((e0 + e1) * (t0 + t1) - m - n - 8 * c1) % P
    m, n = y0 * z0, y1 * z1
    z3 = (2 * (m - n) % P, 2 * ((y0 + y1) * (z0 + z1) - m - n) % P)  # 2YZ
    return ((x30, x31), (y30, y31), z3), b0, b1, e0, e1


def _jac_double_f2(q):
    """2q for Jacobian q, on plain ints (``_jac_double``'s point)."""
    return None if q is None else _jac_double(q)[0]


def _jac_madd(q, a):
    """Finite Jacobian q + affine a on plain ints, or None where h = xa*Z^2 - X is 0 (a = +-q), and r = ya*Z^3 - Y."""
    (x0, x1), (y0, y1), (z0, z1) = q
    (a0, a1), (b0, b1) = a
    s0, s1 = (z0 + z1) * (z0 - z1) % P, 2 * z0 * z1 % P  # Z^2
    m, n = a0 * s0, a1 * s1
    h0, h1 = (m - n - x0) % P, ((a0 + a1) * (s0 + s1) - m - n - x1) % P  # xa*Z^2 - X
    m, n = z0 * s0, z1 * s1
    c0, c1 = (m - n) % P, ((z0 + z1) * (s0 + s1) - m - n) % P  # Z^3
    m, n = b0 * c0, b1 * c1
    r0, r1 = (m - n - y0) % P, ((b0 + b1) * (c0 + c1) - m - n - y1) % P  # ya*Z^3 - Y
    if h0 == h1 == 0:
        return None, r0, r1
    u0, u1 = (h0 + h1) * (h0 - h1) % P, 2 * h0 * h1 % P  # h^2
    m, n = h0 * u0, h1 * u1
    g0, g1 = (m - n) % P, ((h0 + h1) * (u0 + u1) - m - n) % P  # h^3
    m, n = x0 * u0, x1 * u1
    v0, v1 = (m - n) % P, ((x0 + x1) * (u0 + u1) - m - n) % P  # X*h^2
    x30, x31 = ((r0 + r1) * (r0 - r1) - g0 - 2 * v0) % P, (2 * r0 * r1 - g1 - 2 * v1) % P
    t0, t1 = v0 - x30, v1 - x31
    m, n, e, f = r0 * t0, r1 * t1, y0 * g0, y1 * g1
    y30 = (m - n - e + f) % P
    y31 = ((r0 + r1) * (t0 + t1) - m - n - (y0 + y1) * (g0 + g1) + e + f) % P
    m, n = z0 * h0, z1 * h1
    return ((x30, x31), (y30, y31), ((m - n) % P, ((z0 + z1) * (h0 + h1) - m - n) % P)), r0, r1


def _jac_madd_f2(q, a):
    """Jacobian q + affine a on plain ints; q for a = None, a doubling when they are equal, None when opposite."""
    if a is None:
        return q
    if q is None:
        return (*a, F2_ONE)
    s, r0, r1 = _jac_madd(q, a)
    return s or (_jac_double_f2(q) if r0 == r1 == 0 else None)


def _batch_to_affine_f2(qs):
    """Jacobian points to affine, None for infinity, with one batched inversion for all the finite ones."""
    zis, out = iter(_f2_batch_inv([q[2] for q in qs if q is not None])), []
    for q in qs:
        if q is not None:
            zi = next(zis)
            zi2 = f2_sqr(zi)
            q = (f2_mul(q[0], zi2), f2_mul(f2_mul(q[1], zi2), zi))
        out.append(q)
    return out


# Frobenius on the twist: psi(x, y) = (conj(x)*XI^((p-1)/3), conj(y)*XI^((p-1)/2)).
_TW_FROB_X = _FROB_GAMMA[2]
_TW_FROB_Y = _FROB_GAMMA[3]


def _tw_frob(pt):
    return (f2_mul(f2_conj(pt[0]), _TW_FROB_X), f2_mul(f2_conj(pt[1]), _TW_FROB_Y))


# ---------------------------------------------------------------------------
# Products of powers in the order-N subgroups G2 and GT by a 4-dimensional
# split (Galbraith-Lin-Scott, EUROCRYPT 2009; Galbraith-Scott, Pairing 2008).
# On G2 the twist Frobenius psi, and on GT the p-power Frobenius, act as
# multiplication by p = 6u^2 mod N. A scalar k becomes k0 + k1*p + k2*p^2 +
# k3*p^3 mod N with |ki| < 2^65 by Babai rounding against the short basis
# below. A product of powers runs one joint ladder of at most 65 steps over
# all its terms' parts, so the terms share every doubling or squaring. The
# rows span a sublattice of index 3 (det 3N); that is enough, since each row
# alone sums to 0 mod N. Both splits hold only in the order-N subgroup, so
# everything else takes ``curve.wnaf_mul``.
# ---------------------------------------------------------------------------

GLS_LATTICE = curve.lattice([
    (U + 1, U, U, -2 * U),
    (2 * U + 1, -U, -(U + 1), -U),
    (2 * U, 2 * U + 1, 2 * U + 1, 2 * U + 1),
    (U - 1, 4 * U + 2, -2 * U + 1, U - 1),
])


# GT's negation is the conjugate; it has no projective form, so its lift and ``to_affine_all`` change nothing.
G2 = curve.Group(_jac_double_f2, _jac_madd_f2, partial(_jac_madd_f2, None), _batch_to_affine_f2, _g2_add_all, g2_neg,
                 _tw_frob, GLS_LATTICE, None)
GT = curve.Group(f12_cyc_sqr, f12_mul, lambda a: a, list, lambda pairs: [f12_mul(a, b) for a, b in pairs], f12_conj,
                 f12_frob, GLS_LATTICE, F12_ONE)


def g2_mul(pt, k):
    """k * pt for any twist point and any k: ``curve.wnaf_mul`` on the G2 record, with no reduction mod N.

    The twist's order has no prime factor below 10069, so no table entry is
    infinity and none meets +-pt in its mixed addition.
    """
    return curve.wnaf_mul(G2, pt, k)


def g2_in_subgroup(pt):
    """Whether pt is on the twist and in G2, the order-N subgroup.

    Tests Q + R + psi(R) + psi^2(R) - 2psi^3(R) = O for R = [u]Q, with psi the
    twist Frobenius (Dai-Lin-Zhao-Zhou, ePrint 2022/348): one 63-bit ``g2_mul``
    (63 doublings, 16 mixed additions and 3 inversions) where [N]Q = O takes
    a 254-bit one. The sum is five mixed additions and stays Jacobian: only
    its infinity is tested. [u]Q = O only for Q = O, since u < N.
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
    return reduce(G2.add, [pt, uq, psi1, psi2, psi3, psi3], None) is None


# ---------------------------------------------------------------------------
# One subgroup test for a batch of twist points: small-exponent batching
# (Bellare-Garay-Rabin, EUROCRYPT 1998) of ``g2_in_subgroup``. Its inputs
# are not known to lie in G2, so only the general group law runs here.
# ---------------------------------------------------------------------------

BATCH_TAG = b"NOMSIG-G2-BATCH"
BATCH_PRIME = 10069  # the smallest prime factor of G2_COFACTOR
BATCH_ROUNDS = 10  # BATCH_PRIME^-10 < 2^-132


def g2_all_in_subgroup(pts):
    """Whether every point of pts, each on the twist or None, is in G2; a wrong yes has probability below 2^-132.

    Each of BATCH_ROUNDS rounds runs ``g2_in_subgroup`` on S = sum r_i * Q_i
    over the finite points, with fresh coefficients r_i uniform over the
    BATCH_PRIME consecutive integers centred on 0, [-5034, 5034]
    (``batch_coefficients`` less BATCH_PRIME // 2). Write Q_i = G_i + T_i
    with G_i in G2 and T_i in the torsion of order G2_COFACTOR, prime to N:
    S is in G2 exactly when sum r_i * T_i = O. If T_j != O, its order is a
    divisor of the cofactor above 1, so at least BATCH_PRIME, and the
    BATCH_PRIME values of r_j are distinct modulo it: whatever the other
    r_i, at most one r_j cancels it. So a round passes with probability at
    most 1/BATCH_PRIME and all of them with at most BATCH_PRIME^-BATCH_ROUNDS.
    The coefficients hash the points, so each try at a passing bad batch
    costs a hash. The rounds' sums come from one ``_g2_msm`` call.
    """
    pts = [q for q in pts if q is not None]
    n, mid = len(pts), BATCH_PRIME // 2
    rs = [r - mid for r in batch_coefficients(pts, BATCH_ROUNDS * n)]
    return all(map(g2_in_subgroup, _g2_msm(pts, [rs[k * n : (k + 1) * n] for k in range(BATCH_ROUNDS)])))


def batch_coefficients(pts, count):
    """count integers uniform in [0, BATCH_PRIME): 14-bit draws below it, from SHAKE-256 over the tag and pts.

    The hash takes every coordinate of every finite point in pts, in order.
    """
    h = hashlib.shake_256(BATCH_TAG)
    for (x0, x1), (y0, y1) in pts:
        h.update(b"".join(c.to_bytes(32, "big") for c in (x0, x1, y0, y1)))
    size = 4 * count  # expected to give 1.23 * count
    while True:
        draws = (r >> 2 for r in struct.unpack(f">{size // 2}H", h.digest(size)))
        rs = [r for r in draws if r < BATCH_PRIME]
        if len(rs) >= count:
            return rs[:count]
        size *= 2  # the longer digest extends the shorter one


def _g2_msm(pts, rounds):
    """Per list ks of rounds, sum k * pt over finite twist points pts and integers k of any sign (Pippenger).

    Each k is written in base 2^w with digits in [-2^(w-1), 2^(w-1)), where
    w grows with log n (7 for two public keys' 519 points, where a
    coefficient of ``g2_all_in_subgroup`` has two digits). In each digit
    position (window), bucket d gets the points whose digit is d or -d, the
    latter negated, each point at most once per call. Each round's buckets
    are added up by one ``curve.sums`` call, and only their sums are kept.
    A window's sum_d d * B_d is the sum of its running sums
    R_d = sum_{d' >= d} B_d'. The windows of all rounds take them in
    lockstep: from the top bucket index d down to 0, one ``_g2_add_all``
    call adds B_d to every window's R_(d+1) and R_(d+1) to its total.
    Horner's rule in 2^w then joins each round's windows, by w batched
    affine doublings and one batched addition per window, for all rounds.
    """
    w = max(3, len(pts).bit_length() - 3)
    half = 1 << (w - 1)
    negs = [g2_neg(pt) for pt in pts]
    buckets, sizes = [], []  # every round's windows from the lowest, each {d: B_d}; each round's window count
    for ks in rounds:
        windows = []
        for pt, neg, k in zip(pts, negs, ks):
            j = 0
            while k:
                d = (k + half) % (2 * half) - half
                k = (k - d) >> w
                if j == len(windows):
                    windows.append({})
                if d:
                    windows[j].setdefault(abs(d), []).append(pt if d > 0 else neg)
                j += 1
        sums = iter(curve.sums([b for bs in windows for b in bs.values()], _g2_add_all))
        buckets += [{d: next(sums) for d in bs} for bs in windows]
        sizes.append(len(windows))
    runs = totals = [None] * len(buckets)
    for d in range(max((max(bs, default=0) for bs in buckets), default=0), -1, -1):
        out = _g2_add_all([pair for r, t, bs in zip(runs, totals, buckets) for pair in ((r, bs.get(d)), (t, r))])
        runs, totals = out[::2], out[1::2]
    flat = iter(totals)
    totals = [[next(flat) for _ in range(size)] for size in sizes]  # per round
    accs = [None] * len(rounds)
    for j in reversed(range(max(sizes, default=0))):
        for _ in range(w):
            accs = _g2_add_all([(a, a) for a in accs])
        accs = _g2_add_all([(a, ts[j] if j < len(ts) else None) for a, ts in zip(accs, totals)])
    return accs


def g1_mul_base(k):
    """k * G1_GEN, by the GLV split."""
    return g1_mul(G1_GEN, k)


def g2_mul_base(k):
    """k * G2_GEN, by the GLS split."""
    return curve.multi_mul(G2, [(G2_GEN, k % N)])


# ---------------------------------------------------------------------------
# Optimal ate pairing
# ---------------------------------------------------------------------------

# The 88 line steps over the signed digits of 6u+2, each named by the addend
# of the running point T: 0 doubles T, 1 and -1 add Q and -Q, 2 and 3 add
# the Frobenius images psi(Q) and -psi^2(Q).
_ATE_STEPS = [s for d in reversed(curve.naf(ATE_LOOP)[:-1]) for s in ((0, d) if d else (0,))] + [2, 3]


def _tangent_step(t):
    """2t for a finite Jacobian twist point t = (X, Y, Z), and the tangent at t as a line entry (n, M, C).

    The tangent y = m*x + c has m = 3X^2 / (2Y*Z). Scaled by lam = 2Y*Z^3,
    the sum's Z3 times Z^2, it takes no division: lam*m = 3X^2*Z^2 and
    lam*c = 2Y^2 - 3X^3. Scaled once more by conj(lam), n = lam*conj(lam)
    lies in Fp and (M, C) = n*(m, c). The twist's order is odd, so Y != 0
    and n != 0. The doubling, its Y^2 and 3X^2 are ``_jac_double``'s, the
    formulas ``_jac_double_f2`` shares.
    """
    (x0, x1), _, (z0, z1) = t
    s, b0, b1, e0, e1 = _jac_double(t)
    w0, w1 = s[2]  # Z3 = 2YZ
    u0, u1 = (z0 + z1) * (z0 - z1) % P, 2 * z0 * z1 % P  # Z^2
    m, n = w0 * u0, w1 * u1
    l0, l1 = (m - n) % P, ((w0 + w1) * (u0 + u1) - m - n) % P  # lam
    m, n = e0 * u0, e1 * u1
    g0, g1 = m - n, (e0 + e1) * (u0 + u1) - m - n  # lam*m
    m, n = e0 * x0, e1 * x1
    h0, h1 = 2 * b0 - m + n, 2 * b1 - (e0 + e1) * (x0 + x1) + m + n  # lam*c
    m, n = l0 * g0, l1 * g1
    M = ((m + n) % P, ((l0 - l1) * (g0 + g1) - m + n) % P)  # conj(lam)*lam*m
    m, n = l0 * h0, l1 * h1
    C = ((m + n) % P, ((l0 - l1) * (h0 + h1) - m + n) % P)  # conj(lam)*lam*c
    return s, ((l0 * l0 + l1 * l1) % P, M, C)


def _chord_step(t, q):
    """t + q for a finite Jacobian twist point t = (X, Y, Z) and an affine q, and their chord as a line entry (n, M, C).

    With h = xq*Z^2 - X and r = yq*Z^3 - Y, the chord y = m*x + c has
    m = r / (Z*h). Scaled by lam = Z*h, the sum's Z3, lam*m = r and
    lam*c = lam*yq - r*xq; scaled by conj(lam) as in ``_tangent_step``,
    M = conj(lam)*r and C = n*yq - M*xq. Where h = 0, t = q or t = -q and
    the line is a tangent or vertical: no step of the loop meets either on
    a finite twist point, so the step raises. The sum and r are
    ``_jac_madd``'s, the formulas ``_jac_madd_f2`` shares.
    """
    s, r0, r1 = _jac_madd(t, q)
    if s is None:
        raise ValueError(f"Miller addition step meets {'T = Q' if r0 == r1 == 0 else 'T = -Q'}")
    (a0, a1), (b0, b1) = q
    l0, l1 = s[2]  # lam = Z3
    k = (l0 * l0 + l1 * l1) % P  # n
    m, n = l0 * r0, l1 * r1
    M0, M1 = (m + n) % P, ((l0 - l1) * (r0 + r1) - m + n) % P  # conj(lam)*r
    m, n = M0 * a0, M1 * a1
    C = ((k * b0 - m + n) % P, (k * b1 - (M0 + M1) * (a0 + a1) + m + n) % P)  # n*yq - M*xq
    return s, (k, (M0, M1), C)


def g2_lines(qs):
    """The Miller-loop lines of each finite twist point in qs: per point, a tuple of its 88 line steps.

    The steps are 65 doublings, 21 additions (a -1 digit adds -Q) and the 2
    Frobenius lines. Each point walks its running point T from Q in
    Jacobian coordinates, with no inversion: an entry is (n, M, C) from
    ``_tangent_step`` or ``_chord_step``, the line y = m*x + c through T
    and its addend scaled by n in Fp*, with M = n*m and C = n*c.
    """
    out = []
    for q in qs:
        q1 = _tw_frob(q)
        addends = {1: q, -1: g2_neg(q), 2: q1, 3: g2_neg(_tw_frob(q1))}
        t, lines = (*q, F2_ONE), []
        for step in _ATE_STEPS:
            t, line = _chord_step(t, addends[step]) if step else _tangent_step(t)
            lines.append(line)
        out.append(tuple(lines))  # kept and shared by elements, so immutable
    return out


def miller_eval(pairs):
    """prod_i f_{6u+2, Q_i}(P_i) over (P_i, lines) pairs, the lines of Q_i from ``g2_lines``; up to a factor in Fp6.

    The pairs share every squaring of the accumulator. The untwisted line
    through T = (x1, y1) evaluated at (xp, yp) is m*xp*w - yp + c*w^3, so an
    entry (n, M, C) multiplies in n*(-yp) + M*xp*w + C*w^3, n times that
    line. The factor n lies in Fp, and the vertical line Miller's formula
    divides by at a -1 digit in Fp6: the final exponentiation removes both,
    so they are left out. A pair with None on either side contributes 1.
    """
    ps = [(pt[0], -pt[1] % P, lines) for pt, lines in pairs if pt is not None and lines is not None]
    f = F12_ONE
    if not ps:
        return f
    for k, step in enumerate(_ATE_STEPS):
        if step == 0:
            f = f12_sqr(f)
        for xp, nyp, lines in ps:
            n, (m0, m1), c = lines[k]
            f = _f12_mul_line(f, n * nyp % P, (m0 * xp % P, m1 * xp % P), c)
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
    raised by three exponentiations by u (``curve.wnaf_mul`` on GT, 63
    cyclotomic squarings and 16 products each), Frobenius maps and the
    addition chain y0 * y1^2 * y2^6 * y3^12 * y4^18 * y5^30 * y6^36 of
    Scott et al. (Pairing 2009); the inverses are conjugates.
    """
    f = easy_part(f)
    fu = curve.wnaf_mul(GT, f, U)
    fu2 = curve.wnaf_mul(GT, fu, U)
    fu3 = curve.wnaf_mul(GT, fu2, U)
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
