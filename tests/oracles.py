"""Slow reference arithmetic for BN254, kept only as test oracles.

Each routine is the plainest form of what ``nomsig.bn254`` computes faster:
the schoolbook Fp12 product over the 36 Fp2 products of its coefficients,
square-and-multiply exponentiation over it, the G1 curve equation, the
binary double-and-add ladder on the twist and the complex-method Fp2 square
root with its inversion.
"""

from nomsig.bn254 import (F2_ZERO, F12_ONE, G1_B, P, _jac_double_f2, _jac_madd_f2, _sqrt_fp,
                          _to_affine_f2, f2_add, f2_mul, f2_mul_xi, f2_sqr, f12_inv, g2_neg)


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
            acc = _jac_madd_f2(acc, *pt)
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
