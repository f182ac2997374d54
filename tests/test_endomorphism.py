"""Endomorphism-split exponentiation (``curve.multi_mul``) against the plain ladders it replaces.

The 4-dimensional GLS split serves the G2 and GT records, the 2-dimensional
GLV split those of BN254 G1 and secp256k1. The oracles are the general
ladder ``curve.wnaf_mul`` on G2 and GT, which takes any point or cyclotomic
element and any scalar, and on the Fp curves affine binary double-and-add
over ``oracles.curve_add`` (``oracles.curve_mul``), which shares no code with
``curve.ladder``.
"""

import random
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomsig import bn254, curve, trigger
from nomsig.algebra import G2_BATCH_MIN, NotInSubgroup, RealBackend
from nomsig.bn254 import G1_GEN, G2_COFACTOR, G2_GEN, N, P, U, g2_add, g2_mul, g2_neg
from oracles import binary_g2_mul, curve_add, curve_mul

LAMBDA_G1 = 36 * U**3 + 18 * U**2 + 6 * U + 1
LAMBDA_GLS = 6 * U**2  # p mod N: the eigenvalue of psi on G2 and of the Frobenius on GT
gt_pow = partial(curve.wnaf_mul, bn254.GT)

# name -> (lattice, group order, eigenvalue)
SPLITS = {
    "gls": (bn254.GLS_LATTICE, N, LAMBDA_GLS),
    "bn254-g1": (bn254.G1.lat, N, LAMBDA_G1),
    "secp256k1": (trigger.GLV.lat, trigger.N, trigger.LAMBDA),
}


def _bound(lat, i):
    """Twice the Babai bound on part i: the sum of |row[i]| over the rows."""
    return sum(abs(row[i]) for row in lat.basis)


def check_split(name, k):
    lat, n, lam = SPLITS[name]
    parts = curve.split(k, lat)
    assert len(parts) == len(lat.basis)
    assert sum(c * pow(lam, i, n) for i, c in enumerate(parts)) % n == k % n
    for i, c in enumerate(parts):
        assert 2 * abs(c) <= _bound(lat, i)


@pytest.mark.parametrize("name", sorted(SPLITS))
def test_basis_rows_lie_in_their_lattice(name):
    lat, n, lam = SPLITS[name]
    for row in lat.basis:
        assert sum(c * pow(lam, i, n) for i, c in enumerate(row)) % n == 0
    assert lat.det > 0 and lat.det % n == 0  # the rows span a sublattice of index det / n
    assert curve.lattice(lat.basis) == lat


def test_split_bounds_fix_the_ladder_lengths():
    # four parts of at most 65 bits for G2 and GT; two of at most 129 bits on either curve
    assert all(_bound(bn254.GLS_LATTICE, i) < 2**66 for i in range(4))
    for name in ("bn254-g1", "secp256k1"):
        assert all(_bound(SPLITS[name][0], i) < 2**130 for i in range(2))


def test_endomorphisms_act_as_their_eigenvalues():
    # each record's endomorphism: (x, y) -> (beta*x, y) against affine double-and-add on the Fp curves,
    # psi and the Frobenius against p mod N
    for g, p, n, lam, gen in ((bn254.G1, P, N, LAMBDA_G1, G1_GEN),
                              (trigger.GLV, trigger.P, trigger.N, trigger.LAMBDA, trigger.G)):
        (bx, by), (x, y) = g.endo(gen), gen
        beta = bx * pow(x, -1, p) % p
        assert (lam * lam + lam + 1) % n == 0 and pow(beta, 3, p) == 1 != beta and by == y
        assert curve_mul(p, gen, lam) == g.endo(gen)
        assert g.endo((5, 7)) == (5 * beta % p, 7)
    assert P % N == LAMBDA_GLS
    assert bn254.G2.endo(G2_GEN) == bn254._tw_frob(G2_GEN) == g2_mul(G2_GEN, LAMBDA_GLS)
    e = bn254.pairing(G1_GEN, G2_GEN)
    assert bn254.GT.endo(e) == bn254.f12_frob(e) == gt_pow(e, LAMBDA_GLS)


@pytest.mark.parametrize("name", sorted(SPLITS))
def test_split_edge_scalars(name):
    _, n, lam = SPLITS[name]
    for k in (0, 1, 2, n - 1, lam, n - lam, lam * lam % n):
        check_split(name, k)


@pytest.mark.parametrize("name", sorted(SPLITS))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.integers(min_value=0, max_value=2**256 - 1))
def test_split_recombines_within_bound(name, k):
    check_split(name, k % SPLITS[name][1])


# ---------------------------------------------------------------------------
# The split paths against the general ladders
# ---------------------------------------------------------------------------


def _scalars(n, lam, draws):
    return [0, 1, 2, n - 1, lam, n - lam, 2**64, 2**65 - 1] + [draws.randrange(n) for _ in range(8)]


def _record(name, draws):
    """(record, order, eigenvalue, elements, k * x by the general ladder, the group law) of a record by name."""
    if name in ("bn254-g1", "secp256k1"):
        g, p, n, lam, gen = ((bn254.G1, P, N, LAMBDA_G1, G1_GEN) if name == "bn254-g1" else
                             (trigger.GLV, trigger.P, trigger.N, trigger.LAMBDA, trigger.G))
        xs = [gen, curve_mul(p, gen, draws.randrange(1, n)), curve_mul(p, gen, n - 1)]
        return g, n, lam, xs, lambda x, k: curve_mul(p, x, k), lambda a, b: curve_add(p, a, b)
    if name == "g2":
        xs = [G2_GEN, g2_mul(G2_GEN, draws.randrange(N)), g2_mul(G2_GEN, N - 1), g2_mul(G2_GEN, 2**200)]
        return bn254.G2, N, LAMBDA_GLS, xs, g2_mul, g2_add
    e = bn254.pairing(G1_GEN, G2_GEN)
    xs = [e, gt_pow(e, draws.randrange(N)), bn254.f12_conj(e)]
    return bn254.GT, N, LAMBDA_GLS, xs, gt_pow, bn254.f12_mul


@pytest.mark.parametrize("name", ["bn254-g1", "secp256k1", "g2", "gt"])
def test_multi_mul_matches_the_general_ladders(name):
    draws = random.Random(1403)
    g, n, lam, xs, mul, add = _record(name, draws)
    for x in xs:
        for k in _scalars(n, lam, draws) + [n]:
            assert curve.multi_mul(g, [(x, k)]) == mul(x, k), (x, k)
    # products of one term per element and up, alone and beside a None term
    for size in range(1, len(xs) + 1):
        ks = [draws.randrange(n) for _ in range(size)]
        want = reduce(add, [mul(x, k) for x, k in zip(xs, ks)])
        assert curve.multi_mul(g, list(zip(xs, ks))) == want
        assert curve.multi_mul(g, [(None, 3), *zip(xs, ks)]) == want
    # two terms that cancel, alone and beside a third, so the column entries meet the identity;
    # the identity as a base; the empty product
    k = draws.randrange(n)
    assert curve.multi_mul(g, [(xs[0], k), (g.neg(xs[0]), k)]) == g.one
    assert curve.multi_mul(g, [(xs[0], k), (g.neg(xs[0]), k), (xs[1], 1)]) == xs[1]
    assert curve.multi_mul(g, [(g.one, k)]) == g.one
    assert curve.multi_mul(g, []) == g.one


@pytest.mark.parametrize("name", ["bn254-g1", "secp256k1", "g2", "gt"])
def test_multi_mul_with_comb_terms_matches_the_general_ladders(name):
    draws = random.Random(1408)
    g, n, _, xs, mul, add = _record(name, draws)
    # comb terms alone, two together and beside split terms, against one ladder per term; a comb
    # term's k is not reduced, so 2^255 takes all sixteen pieces, the high table's among them
    ca, cb = curve.comb_table(g, xs[0]), curve.comb_table(g, xs[1])
    assert [len(t) for t in ca] == [256, 256] and ca[0][0] is ca[1][0] is None
    assert ca[0][1] == xs[0] and ca[1][1] == mul(xs[0], 2**128)
    for k in (0, 1, n - 1, 2**255, draws.randrange(n)):
        other = draws.randrange(n)
        assert curve.multi_mul(g, [], [(ca, k)]) == mul(xs[0], k)
        assert curve.multi_mul(g, [], [(ca, k), (cb, other)]) == add(mul(xs[0], k), mul(xs[1], other))
        assert curve.multi_mul(g, [(xs[2], other)], [(ca, k)]) == add(mul(xs[2], other), mul(xs[0], k))
        assert curve.multi_mul(g, [(xs[0], other)], [(ca, k)]) == mul(xs[0], (k + other) % n)
        assert curve.multi_mul(g, [(xs[0], other), (xs[1], k)], [(cb, other)]) == \
            add(mul(xs[0], other), mul(xs[1], (k + other) % n))


def test_g1_mul_matches_curve_mul():
    draws = random.Random(1404)
    pt = curve_mul(P, G1_GEN, draws.randrange(1, N))
    for k in _scalars(N, LAMBDA_G1, draws) + [N, N + 1, 3 * N + 7]:
        assert bn254.g1_mul(pt, k) == curve_mul(P, pt, k % N)
    assert bn254.g1_mul(None, 9) is None


def test_ladders_whose_mixed_addition_meets_an_equal_or_opposite_point(monkeypatch):
    # the joint ladder over the subset sums of the bases, as multi_mul runs it
    def joint(p, bases, scalars):
        table = curve.subset_sums([bases], lambda pairs: curve.add_all(p, pairs))[0]
        steps = curve.columns(scalars)
        return curve.to_affine(p, curve.ladder(None, steps, table, lambda q: curve.jac_double(p, q),
                                               lambda q, a: curve.jac_madd(p, q, a)))

    # bases (Q, 2Q) with scalars (2, 1): after one doubling the accumulator is 2Q, the next entry
    for p, pt, neg in ((P, G1_GEN, bn254.G1.neg), (trigger.P, trigger.G, lambda q: (q[0], trigger.P - q[1]))):
        two = curve_add(p, pt, pt)
        assert joint(p, [pt, two], [2, 1]) == curve_mul(p, pt, 4)
        assert joint(p, [pt, neg(two)], [2, 1]) is None
        assert joint(p, [pt, neg(pt)], [1, 1]) is None  # the subset sum itself is infinity
        assert joint(p, [pt, neg(pt)], [3, 1]) == two
        assert joint(p, [], []) is None

    # the same cases on the G2 record's ladder: the split is fixed, and the record's
    # twist Frobenius replaced so that the conjugates of Q are 2Q, 4Q, 8Q or -Q, Q, -Q
    def gls(parts, frob):
        monkeypatch.setattr(curve, "split", lambda k, lat: list(parts))
        return curve.multi_mul(bn254.G2._replace(endo=frob), [(G2_GEN, 1)])

    two = g2_add(G2_GEN, G2_GEN)
    assert gls([2, 1, 0, 0], lambda q: g2_add(q, q)) == g2_mul(G2_GEN, 4)
    assert gls([2, -1, 0, 0], lambda q: g2_add(q, q)) is None
    assert gls([1, 1, 0, 0], g2_neg) is None
    assert gls([3, 1, 0, 0], g2_neg) == two
    assert gls([0, 0, 0, 0], g2_neg) is None


def test_batched_affine_additions_match_add():
    # one inversion for the batch: chords, tangents, opposite points and infinity, on both Fp curves
    draws = random.Random(1408)
    for p, pt, n in ((P, G1_GEN, N), (trigger.P, trigger.G, trigger.N)):
        a, b = curve_mul(p, pt, draws.randrange(1, n)), curve_mul(p, pt, draws.randrange(1, n))
        pairs = [(a, b), (a, a), (a, (a[0], p - a[1])), (None, b), (a, None), (None, None), (b, a), (b, b)]
        assert curve.add_all(p, pairs) == [curve_add(p, x, y) for x, y in pairs]
        assert curve.add_all(p, []) == []


def test_joint_ladder_tables_and_additions_meet_equal_and_opposite_points(monkeypatch):
    # Two-term G2 products with each term's split fixed and the twist Frobenius
    # replaced, against the binary Jacobian ladder of the oracles. With psi = -1
    # a term's subset sums hold Q + (-Q) = O (a vertical chord), sums that add
    # a base to that O, and Q + Q (a tangent); the sums that combine the two
    # terms' entries per column meet the same cases, so the ladder adds O
    # entries; and a column's entry can equal the doubled accumulator or its
    # negative.
    def joint(terms, frob):
        splits = iter([parts for _, parts in terms])
        monkeypatch.setattr(curve, "split", lambda k, lat: list(next(splits)))
        return curve.multi_mul(bn254.G2._replace(endo=frob), [(pt, 1) for pt, _ in terms])

    def double(q):
        return g2_add(q, q)

    two = double(G2_GEN)
    cases = [
        # (terms, psi, k with the product = k * G2_GEN)
        ([(G2_GEN, [3, 1, 2, 5]), (G2_GEN, [1, 1, 0, 0])], g2_neg, 3 - 1 + 2 - 5),
        ([(G2_GEN, [3, -1, 2, 5]), (two, [-2, 1, 1, 3])], g2_neg, 3 + 1 + 2 - 5 + 2 * (-2 - 1 + 1 - 3)),
        ([(G2_GEN, [1, 0, 0, 0]), (G2_GEN, [-1, 0, 0, 0])], double, 0),
        ([(G2_GEN, [1, 0, 0, 0]), (G2_GEN, [1, 0, 0, 0])], double, 2),
        ([(G2_GEN, [2, 1, 0, 0]), (two, [1, 0, 0, 0])], double, 4 + 2),
        ([(G2_GEN, [2, -1, 0, 0]), (two, [-1, 0, 0, 0])], double, 0 - 2),
        ([(G2_GEN, [0, 1, 0, 0]), (G2_GEN, [2, 0, 0, 0])], double, 2 + 2),
        ([(G2_GEN, [0, -1, 0, 0]), (G2_GEN, [2, 0, 0, 0])], double, -2 + 2),
        ([(G2_GEN, [0, 0, 0, 0]), (two, [0, 0, 0, 0])], g2_neg, 0),
    ]
    for terms, frob, k in cases:
        assert joint(terms, frob) == binary_g2_mul(G2_GEN, k), (terms, k)


def _recover_oracle(sig, message):
    """The recovered key by two affine double-and-add ladders and one affine addition."""
    x = sig.r + (trigger.N if sig.recovery_id >= 2 else 0)
    y = pow((pow(x, 3, trigger.P) + 7) % trigger.P, (trigger.P + 1) // 4, trigger.P)
    if (y & 1) != (sig.recovery_id & 1):
        y = trigger.P - y
    z = trigger._msg_hash(message)
    r_inv = pow(sig.r, -1, trigger.N)
    neg_g = (trigger.GX, trigger.P - trigger.GY)
    return curve_add(trigger.P, curve_mul(trigger.P, (x, y), sig.s * r_inv % trigger.N),
                     curve_mul(trigger.P, neg_g, z * r_inv % trigger.N))


def test_ecdsa_recover_joint_ladder_matches_two_ladders():
    draws = random.Random(1405)
    for i in range(6):
        kp = trigger.ecdsa_keygen(b"glv-%d" % i)
        msg = b"message %d" % draws.getrandbits(64)
        sig = trigger.ecdsa_sign(kp.sk, msg)
        assert trigger.ecdsa_recover(sig, msg) == _recover_oracle(sig, msg) == kp.vk
    # R = G and R = -G: the joint table holds R + (-G) = O, or 2R
    msg = b"r is the generator"
    for rid in (0, 1):
        sig = trigger.EcdsaSignature(r=trigger.GX, s=draws.randrange(1, trigger.N // 2), recovery_id=rid)
        assert trigger.ecdsa_recover(sig, msg) == _recover_oracle(sig, msg)
    # R = G and s = z: then s/r * G - z/r * G = O
    msg = next(m for m in (b"zero key %d" % i for i in range(64))
               if 0 < trigger._msg_hash(m) % trigger.N <= trigger.N // 2)
    sig = trigger.EcdsaSignature(r=trigger.GX, s=trigger._msg_hash(msg) % trigger.N, recovery_id=trigger.GY & 1)
    with pytest.raises(trigger.RecoveryFailed, match="infinity"):
        trigger.ecdsa_recover(sig, msg)


# ---------------------------------------------------------------------------
# The subgroup-only rule: membership tests and cofactor work keep the general ladders
# ---------------------------------------------------------------------------


def test_subgroup_checks_do_not_use_the_split_paths(monkeypatch):
    def refuse(*args):
        raise AssertionError("a subgroup-only path ran on a value not known to be in the subgroup")

    def refusing(fn):
        """fn, refused for the G2 and GT records, whose splits hold only in the order-N subgroups."""
        return lambda g, *args: refuse() if g is bn254.G2 or g is bn254.GT else fn(g, *args)

    b = RealBackend()
    gt = b.gt() ** 12345
    g2 = b.g2() ** 678
    combed = b.g2()
    b.comb_of(combed, now=True)  # so that its base_powers meet only comb_powers
    batch = [(b.serialize("G2", (b.g2() ** k).value, c), c) for k in range(1, G2_BATCH_MIN + 1) for c in (True, False)]
    for name in ("split_table", "comb_table", "comb_powers"):
        monkeypatch.setattr(curve, name, refusing(getattr(curve, name)))
    # the refusal fires on a power in G2 or GT, but not in G1
    for x in (b.g2(), b.gt()):
        with pytest.raises(AssertionError, match="subgroup-only"):
            x ** 5
    for base in (b.g2(), combed):
        with pytest.raises(AssertionError, match="subgroup-only"):
            b.base_powers(base, [1, 2])
    assert b.g1() ** 5 == b.g1() * b.g1() ** 4
    assert b.element("G2", g2.to_bytes()) == g2
    assert b.element("G2", b.serialize("G2", g2.value, compressed=False), compressed=False) == g2
    assert b.element("GT", gt.to_bytes()) == gt
    pts = [b.point("G2", *e) for e in batch]
    assert pts == [b.deserialize("G2", *e) for e in batch] and b.first_outside_g2([pts]) is None
    h = b.hash_to_g2(b"subgroup-only")
    assert bn254.g2_in_subgroup(h.value)
    f = bn254.miller_loop(G2_GEN, G1_GEN)
    assert bn254.final_exp(f) == bn254.pairing(G1_GEN, G2_GEN)
    # the non-subgroup cases are still rejected
    draws = random.Random(1406)
    while True:
        x = (draws.randrange(P), draws.randrange(P))
        y = bn254.f2_sqrt(bn254.f2_add(bn254.f2_mul(bn254.f2_sqr(x), x), bn254.TW_B))
        if y is not None:
            break
    torsion = g2_mul((x, y), N)  # of order dividing the cofactor
    assert torsion is not None and g2_mul(torsion, G2_COFACTOR) is None
    with pytest.raises(NotInSubgroup):
        b.element("G2", b.serialize("G2", g2_add(G2_GEN, torsion)))
    bad = (b.serialize("G2", g2_add(G2_GEN, torsion), compressed=False), False)
    assert b.first_outside_g2([pts[:5], [b.point("G2", *bad)], pts[5:]]) == 1
    g = gt_pow(bn254.easy_part(tuple((draws.randrange(P), draws.randrange(P)) for _ in range(6))), N)
    assert g != bn254.F12_ONE
    with pytest.raises(NotInSubgroup):
        b.element("GT", b.serialize("GT", g))
