"""Point arithmetic on y^2 = x^3 + b over Fp, shared by BN254 G1 and secp256k1.

Every function takes the modulus p first; b never enters the formulas.
Points are affine (x, y) or Jacobian (X, Y, Z) for (X/Z^2, Y/Z^3), with
None as infinity. Both curves have odd order, so no point has y = 0 and
doubling never reaches infinity. ``bn254`` has the Fp2 copy for the twist.
"""


def add(p, a, b):
    """Affine a + b, with the chord (or tangent) slope and one inversion."""
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


def jac_double(p, q):
    """2q for Jacobian q."""
    if q is None:
        return None
    x, y, z = q
    a = x * x % p
    b = y * y % p
    c = b * b % p
    d = 2 * ((x + b) * (x + b) - a - c) % p
    e = 3 * a % p
    x3 = (e * e - 2 * d) % p
    return (x3, (e * (d - x3) - 8 * c) % p, 2 * y * z % p)


def jac_madd(p, q, xa, ya):
    """Jacobian q + affine (xa, ya); doubles when they are equal, None when opposite."""
    if q is None:
        return (xa, ya, 1)
    x, y, z = q
    z2 = z * z % p
    h = (xa * z2 - x) % p
    r = (ya * z * z2 - y) % p
    if h == 0:
        return jac_double(p, q) if r == 0 else None
    hh = h * h % p
    hhh = h * hh % p
    v = x * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return (x3, (r * (v - x3) - y * hhh) % p, z * h % p)


def to_affine(p, q):
    if q is None:
        return None
    zi = pow(q[2], -1, p)
    zi2 = zi * zi % p
    return (q[0] * zi2 % p, q[1] * zi2 * zi % p)


def mul(p, pt, k):
    """k * pt for k >= 0, by Jacobian doubling with mixed affine additions."""
    if pt is None:
        return None
    xa, ya = pt
    acc = None
    for i in range(k.bit_length() - 1, -1, -1):
        acc = jac_double(p, acc)
        if (k >> i) & 1:
            acc = jac_madd(p, acc, xa, ya)
    return to_affine(p, acc)


def mul_table(p, table, k):
    """k * G for k >= 0, summing table[i] = 2^i * G over the set bits of k."""
    acc = None
    for i in range(k.bit_length()):
        if (k >> i) & 1:
            acc = jac_madd(p, acc, *table[i])
    return to_affine(p, acc)
