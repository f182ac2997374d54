"""Slow reference arithmetic for BN254, kept only as test oracles.

Each routine is the plainest form of what ``nomsig.bn254`` computes faster:
the schoolbook Fp12 product over the 36 Fp2 products of its coefficients,
square-and-multiply exponentiation over it, and the G1 curve equation.
"""

from nomsig.bn254 import F2_ZERO, F12_ONE, G1_B, P, f2_add, f2_mul, f2_mul_xi, f12_inv


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
