"""Point arithmetic on y^2 = x^3 + b over Fp, shared by BN254 G1 and secp256k1.

Every function takes the modulus p first; b never enters the formulas.
Points are affine (x, y) or Jacobian (X, Y, Z) for (X/Z^2, Y/Z^3), with
None as infinity. Both curves have odd order, so no point has y = 0 and
doubling never reaches infinity. ``bn254`` has the Fp2 copy for the twist.

``ladder`` is the one double-and-add loop of the package: every
exponentiation in G1, G2, GT and secp256k1 runs it, over its own group's
doubling and addition. Here ``straus`` runs it over a table of subset sums
(Straus's joint ladder); on the order-n group, ``glv_mul`` first splits
each scalar into two parts of half its length with the cube-root
endomorphism (x, y) -> (beta*x, y) (Gallant-Lambert-Vanstone, CRYPTO 2001).
The lattice helpers below also split ``bn254``'s scalars in four for G2
and GT.

A point that is raised to many powers can keep a Lim-Lee comb (CRYPTO '94,
``comb_table``): with k = sum_i k_i 2^(32i) in eight 32-bit pieces, k * pt
is 32 doublings and at most 32 additions of table entries. ``comb_ladder``
runs those 32 steps as the last steps of a product's joint ladder, so comb
terms and split terms share one ladder. The same code serves G1 here and
G2 in ``bn254``.
"""

from collections import namedtuple
from functools import partial, reduce

COMB_TEETH = 8
COMB_ROWS = 32  # 8 teeth of 32 rows: any scalar below 2^256


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


def jac_madd(p, q, a):
    """Jacobian q + affine a; q for a = None, a doubling when they are equal, None when opposite."""
    if a is None:
        return q
    xa, ya = a
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


def batch_inv(p, xs):
    """Inverses of the nonzero xs mod p with one ``pow(., -1, p)``: Montgomery's simultaneous inversion."""
    prefix, acc = [], 1
    for x in xs:
        acc = acc * x % p
        prefix.append(acc)
    inv = pow(acc, -1, p)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % p
        inv = inv * xs[i] % p
    if xs:
        out[0] = inv
    return out


def add_all(p, pairs):
    """a + b for each pair (a, b) of affine points (None for infinity), as ``add`` with one inversion for all."""
    dens = [b[0] - a[0] if a[0] != b[0] else 2 * a[1] for a, b in pairs
            if a is not None and b is not None and (a[0] != b[0] or (a[1] + b[1]) % p)]
    invs = iter(batch_inv(p, dens))
    out = []
    for a, b in pairs:
        if a is None or b is None:
            out.append(b if a is None else a)
        elif a[0] == b[0] and (a[1] + b[1]) % p == 0:
            out.append(None)
        else:
            (x1, y1), (x2, y2) = a, b
            m = (y2 - y1 if x1 != x2 else 3 * x1 * x1) * next(invs) % p
            x3 = (m * m - x1 - x2) % p
            out.append((x3, (m * (x1 - x3) - y1) % p))
    return out


def subset_sums(bases, add_all):
    """All 2^len(bases) sums: entry j is the sum of bases[i] over the set bits i of j; entry 0 is None.

    ``add_all`` adds a list of pairs; each base's new sums are one call.
    """
    table = [None]
    for b in bases:
        table += [b] + add_all([(t, b) for t in table[1:]])
    return table


def columns(scalars):
    """The bit columns of scalars >= 0, most significant first: bit j of a column is a bit of scalars[j]."""
    width = max((k.bit_length() for k in scalars), default=0)
    rows = [format(k, f"0{width}b") for k in reversed(scalars)]
    return [int("".join(col), 2) for col in zip(*rows)] if width else []


def ladder(acc, steps, table, double, add):
    """From acc, for each step s: double, then add table[s] if s is nonzero.

    A step is a bit column over a table of subset sums (``straus``) or a
    signed digit over a table of odd multiples. ``double`` and ``add`` are
    the group's, so the loop serves every group of the package.
    """
    for s in steps:
        acc = double(acc)
        if s:
            acc = add(acc, table[s])
    return acc


def straus(p, bases, scalars, combs=()):
    """sum_i scalars[i] * bases[i] for affine bases and scalars >= 0, plus the ``comb_ladder`` terms combs.

    One Jacobian doubling per bit of the longest scalar and at most one mixed
    addition of a subset sum per bit (Straus's joint ladder).
    """
    table = subset_sums(bases, partial(add_all, p))
    acc = comb_ladder(columns(scalars), table, combs, partial(jac_double, p), partial(jac_madd, p))
    return to_affine(p, acc)


def comb_table(pt, double, madd, to_affine_all, add_all):
    """The Lim-Lee comb of the affine point pt: the 256 subset sums of its spokes 2^(32i) * pt, i < 8.

    The spokes take 224 Jacobian doublings and one ``to_affine_all`` call;
    the sums take one ``add_all`` call per spoke. Entry 0 is None.
    """
    spokes = [madd(None, pt)]
    for _ in range(COMB_TEETH - 1):  # a ladder of zero steps only doubles
        spokes.append(ladder(spokes[-1], [0] * COMB_ROWS, None, double, madd))
    return subset_sums(to_affine_all(spokes), add_all)


def comb(p, pt):
    """``comb_table`` of an affine point over Fp."""
    return comb_table(pt, partial(jac_double, p), partial(jac_madd, p),
                      lambda qs: [to_affine(p, q) for q in qs], partial(add_all, p))


def comb_ladder(steps, table, combs, double, madd):
    """The Jacobian sum of ``ladder(None, steps, table, double, madd)`` and of k * pt per (comb of pt, k) in combs.

    For 0 <= k < 2^256, step j of a comb term is the bit column j of k's
    eight 32-bit pieces, an index into the comb. The comb terms take the
    last 32 steps of the one ladder, or fewer for a short k: each adds at
    most one entry per step, beside the step's ``table`` entry.
    """
    if not combs:
        return ladder(None, steps, table, double, madd)
    mask = (1 << COMB_ROWS) - 1
    cols = [columns([k >> COMB_ROWS * i & mask for i in range(COMB_TEETH)]) for _, k in combs]
    if not steps and len(combs) == 1:  # one power: its columns index its comb, with no per-step lists
        return ladder(None, cols[0], combs[0][0], double, madd)
    n = max(len(steps), *map(len, cols))
    adds = [[table[s]] if s else [] for s in [0] * (n - len(steps)) + steps]
    for (sums, _), cs in zip(combs, cols):
        for entry, c in zip(adds[n - len(cs):], cs):
            if c:
                entry.append(sums[c])
    # the step indices 1..n pick each step's entries, which madd adds one by one
    return ladder(None, range(1, n + 1), [None, *adds], double, lambda acc, pts: reduce(madd, pts, acc))


# ---------------------------------------------------------------------------
# Scalar splitting by Babai rounding
# ---------------------------------------------------------------------------


# Rows v of the lattice {v : sum_i v[i] * lam^i = 0 mod n}, which need only
# span a sublattice, and their rounding constants: (k, 0, ..., 0) times the
# inverse of the row matrix is k * weights / det, with det > 0.
Lattice = namedtuple("Lattice", "basis weights det")


def _det(m):
    """The determinant of a small square integer matrix, by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def lattice(basis):
    """The Lattice of a basis, with its rounding constants from the first row of its adjugate."""
    basis = tuple(tuple(row) for row in basis)
    det = _det(basis)
    weights = [(-1) ** j * _det([row[1:] for i, row in enumerate(basis) if i != j]) for j in range(len(basis))]
    if det < 0:
        det, weights = -det, [-w for w in weights]
    return Lattice(basis, tuple(weights), det)


def split(k, lat):
    """Parts with sum_i parts[i] * lam^i = k mod n and |parts[i]| <= sum_j |basis[j][i]| / 2.

    Babai rounding: (k, 0, ..., 0) minus the lattice vector whose coordinates
    in the rows are those of (k, 0, ..., 0) rounded to integers.
    """
    cs = [(2 * k * w + lat.det) // (2 * lat.det) for w in lat.weights]
    parts = [-sum(c * row[i] for c, row in zip(cs, lat.basis)) for i in range(len(lat.basis))]
    parts[0] += k
    return parts


def glv_basis(n, lam):
    """Two short rows (a, b) with a + b*lam = 0 mod n, for prime n and lam^2 + lam + 1 = 0 mod n.

    The extended Euclid on (n, lam) keeps the rows (r_i, -t_i) with
    r_i = s_i*n + t_i*lam. With r_m the last remainder of at least sqrt(n),
    the basis is row m+1 and the shorter of rows m and m+2 (GLV, section 4).
    """
    rows = [(n, 0), (lam, -1)]
    while rows[-2][0] ** 2 >= n:
        (r0, v0), (r1, v1) = rows[-2:]
        q = r0 // r1
        rows.append((r0 - q * r1, v0 - q * v1))
    return rows[-2], min(rows[-3], rows[-1], key=lambda v: v[0] ** 2 + v[1] ** 2)


# A curve over Fp of prime order n on which (x, y) -> (beta*x, y) is multiplication by lam.
Glv = namedtuple("Glv", "p beta lat")


def glv(p, n, beta, lam):
    return Glv(p, beta, lattice(glv_basis(n, lam)))


def glv_mul(c, terms, combs=()):
    """sum k * pt over (pt, k) terms, for points of the order-n group of the Glv curve c, plus combs.

    Each k splits into k0 + k1*lam with halves of about log2(n)/2 bits, so m
    terms make one ``straus`` ladder over 2m bases: pt, (beta*x, y), each
    negated where its half is negative. The (comb of pt, k) terms combs, with
    0 <= k < 2^256, join the same ladder (``comb_ladder``).
    """
    p = c.p
    bases, scalars = [], []
    for pt, k in terms:
        if pt is None:
            continue
        x, y = pt
        for base, part in zip(((x, y), (c.beta * x % p, y)), split(k, c.lat)):
            bases.append(base if part >= 0 else (base[0], -base[1] % p))
            scalars.append(abs(part))
    return straus(p, bases, scalars, combs)
