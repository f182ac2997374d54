"""Point arithmetic on y^2 = x^3 + b over Fp, shared by BN254 G1 and secp256k1, and the powers of every group.

Every function takes the modulus p first; b never enters the formulas.
Points are affine (x, y) or Jacobian (X, Y, Z) for (X/Z^2, Y/Z^3), with
None as infinity. Both curves have odd order, so no point has y = 0 and
doubling never reaches infinity. ``bn254`` has the Fp2 copy for the twist.

Each group of the package is one ``Group`` record: ``glv`` makes a curve's
here (BN254 G1, secp256k1), ``bn254`` makes those of G2 and GT. ``ladder``
is the one double-and-add loop of the package, over a group's own doubling
and addition. ``multi_mul`` takes a product of powers in any record as one
joint ladder (Straus) over ``split_table``, which splits each scalar in
short parts with the record's endomorphism: in two on the curves, with
(x, y) -> (beta*x, y) (Gallant-Lambert-Vanstone, CRYPTO 2001), and in four
for G2 and GT. The split holds only in the subgroup of the lattice's order;
``wnaf_mul`` takes any element and any scalar by width-4 signed digits
(``naf``). Every batched sum takes the record's ``add_all``, which adds a
list of pairs in one call, as do the pairwise trees of ``sums``.

A point that is raised to many powers can keep a Lim-Lee comb (CRYPTO '94,
``comb_table``): with k = sum_i k_i 2^(16i) in its sixteen 16-bit pieces
(``comb_pieces``), k * pt is 16 doublings and at most 32 additions of
entries of two 256-entry tables, one over the spokes of bits 0-127 and one
over those of bits 128-255; a k below 2^128 reads the low table alone. A
comb is two kept ``split_table`` tables: a comb term's parts are its
pieces, so it joins the columns of a product's one ladder beside the split
terms. ``comb_powers`` steps many powers over one comb together.
"""

from collections import namedtuple
from functools import partial
from itertools import accumulate

COMB_TEETH = 16
COMB_ROWS = 16  # 16 teeth of 16 rows: any scalar below 2^256, in two tables of 8 teeth


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


def subset_sums(groups, add_all):
    """Per list of bases in groups, all 2^len(bases) sums: entry j sums bases[i] over the set bits i of j; entry 0 is None.

    ``add_all`` adds a list of pairs; the new sums of the i-th bases of
    every group are one call.
    """
    tables = [[None] for _ in groups]
    for i in range(max(map(len, groups), default=0)):
        new = iter(add_all([(t, bases[i]) for bases, table in zip(groups, tables) for t in table[1:]]))
        for bases, table in zip(groups, tables):
            table += [bases[i]] + [next(new) for _ in table[1:]]
    return tables


def sums(lists, add_all):
    """The sum of each list (None for an empty one) by pairwise trees: one ``add_all`` call per level for all lists."""
    while any(len(xs) > 1 for xs in lists):
        new = iter(add_all([pair for xs in lists for pair in zip(xs[::2], xs[1::2])]))
        lists = [[next(new) for _ in xs[1::2]] + xs[len(xs) & ~1 :] for xs in lists]
    return [xs[0] if xs else None for xs in lists]


def columns(scalars):
    """The bit columns of scalars >= 0, most significant first: bit j of a column is a bit of scalars[j]."""
    width = max((k.bit_length() for k in scalars), default=0)
    rows = [format(k, f"0{width}b") for k in reversed(scalars)]
    return [int("".join(col), 2) for col in zip(*rows)] if width else []


def ladder(acc, steps, table, double, add):
    """From acc, for each step s: double, then add table[s] if s is nonzero.

    A step is a bit column over a table of sums (``split_table``) or a
    signed digit over a table of odd multiples. ``double`` and ``add`` are
    the group's, so the loop serves every group of the package.
    """
    for s in steps:
        acc = double(acc)
        if s:
            acc = add(acc, table[s])
    return acc


def naf(k, w=2):
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


def wnaf_mul(g, x, k):
    """k * x for any element x of the group g and any integer k, by a width-4 signed-digit (wNAF) ladder.

    The table maps the digits 1, 3, 5, 7 to x, 3x, 5x, 7x (2x by one
    doubling, 3x, 5x and 7x by additions of it, each stage closed by one
    ``to_affine_all``) and -1, -3, -5, -7 to their negatives. The ladder
    starts from the leading digit's entry. No reduction and no split, so x
    need not lie in the subgroup of the record's lattice: the subgroup
    tests, cofactor clearing and the final exponentiation take this path.
    """
    if k < 0:
        x, k = g.neg(x), -k
    if k == 0 or x == g.one:
        return g.one
    odd = [g.lift(x)]
    two = g.to_affine_all([g.double(odd[0])])[0]
    for _ in range(3):
        odd.append(g.add(odd[-1], two))
    table = {s * d: e if s > 0 else g.neg(e) for d, e in zip((1, 3, 5, 7), [x, *g.to_affine_all(odd[1:])])
             for s in (1, -1)}
    digits = naf(k, 4)
    return g.to_affine_all([ladder(g.lift(table[digits[-1]]), reversed(digits[:-1]), table, g.double, g.add)])[0]


def comb_table(g, pt):
    """The Lim-Lee comb of pt in the group g: the 256 subset sums of its spokes 2^(16i) * pt, i < 8, and of i = 8 .. 15.

    The spokes take 240 doublings and one ``to_affine_all`` call; the sums
    take one ``add_all`` call per spoke of a half, 494 additions in 8
    calls. Entry 0 of each table is None.
    """
    spokes = [g.lift(pt)]
    for _ in range(COMB_TEETH - 1):  # a ladder of zero steps only doubles
        spokes.append(ladder(spokes[-1], [0] * COMB_ROWS, None, g.double, g.add))
    spokes = g.to_affine_all(spokes)
    return subset_sums([spokes[: COMB_TEETH // 2], spokes[COMB_TEETH // 2 :]], g.add_all)


def comb_pieces(k):
    """The sixteen 16-bit pieces k_i of 0 <= k < 2^256, k = sum_i k_i 2^(16i): a comb term's parts."""
    mask = (1 << COMB_ROWS) - 1
    return [k >> COMB_ROWS * i & mask for i in range(COMB_TEETH)]


def comb_powers(g, comb, ks):
    """[k * pt for k in ks], 0 <= k < 2^256, over the comb of pt in the group g, in lockstep.

    Every k takes the bit columns of its ``comb_pieces``: per column, one
    ``add_all`` call doubles every power, one adds each power's entry of the
    low table and one its entry of the high table. A power costs at most 16
    doublings and 32 additions, and a k below 2^128 adds no high entry.
    """
    low, high = comb
    cols = [columns(comb_pieces(k)) for k in ks]
    rows = max(map(len, cols), default=0)
    accs = [g.one] * len(ks)
    for row in zip(*([0] * (rows - len(c)) + c for c in cols)):
        accs = g.add_all([(a, a) for a in accs])
        accs = g.add_all([(a, low[c & 255]) for a, c in zip(accs, row)])
        accs = g.add_all([(a, high[c >> 8]) for a, c in zip(accs, row)])
    return accs


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


def split_table(g, terms, combs=()):
    """The bit columns of one joint ladder for sum k * x over (x, k) terms of g with x not None, and their table.

    Each k splits in d = len(g.lat.basis) parts over x and its images under
    g.endo, each negated where its part is negative, and each term keeps
    the 2^d subset sums of its d bases. A (comb of x, k) term in combs, with
    0 <= k < 2^256, has its ``comb_pieces`` for parts and its comb's two
    tables, each indexed by 8 pieces. A nonzero column, one bit of every
    part, maps to the ``sums`` of the entries it selects, at most one per
    table: a lone comb term with k < 2^128 selects one and needs no sum.
    """
    d = len(g.lat.basis)
    bases, parts = [], []
    for x, k in terms:
        if x is None:
            continue
        for i, c in enumerate(split(k, g.lat)):
            x = g.endo(x) if i else x
            bases.append(x if c >= 0 else g.neg(x))
            parts.append(abs(c))
    tables = subset_sums([bases[i : i + d] for i in range(0, len(bases), d)], g.add_all)
    widths = [d] * len(tables) + [COMB_TEETH // 2] * (2 * len(combs))
    tables += [table for comb, _ in combs for table in comb]
    parts += [piece for _, k in combs for piece in comb_pieces(k)]
    cols, shifts = columns(parts), [0, *accumulate(widths)]
    keys = [c for c in set(cols) if c]
    # a column's bits shifts[j] .. shifts[j] + widths[j] - 1 index table j
    entries = [[t[i] for t, at, w in zip(tables, shifts, widths) if (i := c >> at & (1 << w) - 1)] for c in keys]
    return cols, dict(zip(keys, sums(entries, g.add_all)))


def multi_mul(g, terms, combs=()):
    """sum k * x over (x, k) terms of the group g, plus (comb of x, k) terms combs, by one joint ladder.

    The scalars are taken as they are: a caller reduces them mod the
    group's order. The ladder starts from the first column's entry, lifted
    to its form, not from the identity, and ends with one
    ``to_affine_all``; the empty product is g.one.
    """
    cols, table = split_table(g, terms, combs)
    if not cols:
        return g.one
    return g.to_affine_all([ladder(g.lift(table[cols[0]]), cols[1:], table, g.double, g.add)])[0]


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


# A group's record: the ladder's doubling and its addition of an affine entry, the lift of an affine
# entry to the ladder's form and ``to_affine_all`` back, the batched affine ``add_all``, the negation,
# the endomorphism and the Lattice of its eigenvalue, and the identity.
Group = namedtuple("Group", "double add lift to_affine_all add_all neg endo lat one")


def glv(p, n, beta, lam):
    """The Group of a curve over Fp of prime order n on which (x, y) -> (beta*x, y) is multiplication by lam."""
    return Group(partial(jac_double, p), partial(jac_madd, p), partial(jac_madd, p, None),
                 lambda qs: [to_affine(p, q) for q in qs], partial(add_all, p),
                 lambda pt: None if pt is None else (pt[0], -pt[1] % p), lambda pt: (beta * pt[0] % p, pt[1]),
                 lattice(glv_basis(n, lam)), None)
