"""Endomorphism-split exponentiation against the plain ladders it replaces.

The 4-dimensional GLS split serves G2 and GT, the 2-dimensional GLV split
serves BN254 G1 and secp256k1. The oracles are the general ladders
``bn254.g2_mul`` and ``bn254.f12_cyc_pow``, which take any point or
cyclotomic element and any scalar, and on the Fp curves affine binary
double-and-add over ``curve.add`` (``oracles.curve_mul``), which shares no
code with ``curve.ladder``.
"""

import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomsig import bn254, curve, trigger
from nomsig.algebra import NotInSubgroup, RealBackend
from nomsig.bn254 import G1_GEN, G2_COFACTOR, G2_GEN, N, P, U, f12_cyc_pow, g2_add, g2_mul, g2_neg
from oracles import binary_g2_mul, curve_mul

LAMBDA_G1 = 36 * U**3 + 18 * U**2 + 6 * U + 1
LAMBDA_GLS = 6 * U**2  # p mod N: the eigenvalue of psi on G2 and of the Frobenius on GT

# name -> (lattice, group order, eigenvalue)
SPLITS = {
    "gls": (bn254.GLS_LATTICE, N, LAMBDA_GLS),
    "bn254-g1": (bn254.G1_GLV.lat, N, LAMBDA_G1),
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
    # the (beta, lam) pairs against affine double-and-add, and psi, the Frobenius against p mod N
    for c, n, lam, gen in ((bn254.G1_GLV, N, LAMBDA_G1, G1_GEN), (trigger.GLV, trigger.N, trigger.LAMBDA, trigger.G)):
        assert (lam * lam + lam + 1) % n == 0 and pow(c.beta, 3, c.p) == 1 != c.beta
        assert curve_mul(c.p, gen, lam) == (c.beta * gen[0] % c.p, gen[1])
    assert P % N == LAMBDA_GLS
    assert bn254._tw_frob(G2_GEN) == g2_mul(G2_GEN, LAMBDA_GLS)
    e = bn254.pairing(G1_GEN, G2_GEN)
    assert bn254.f12_frob(e) == f12_cyc_pow(e, LAMBDA_GLS)


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


def test_g2_mul_gls_matches_g2_mul():
    draws = random.Random(1401)
    pts = [G2_GEN, g2_mul(G2_GEN, draws.randrange(N)), g2_mul(G2_GEN, N - 1)]
    for q in pts:
        for k in _scalars(N, LAMBDA_GLS, draws):
            assert bn254.g2_mul_gls([(q, k)]) == g2_mul(q, k)
    assert bn254.g2_mul_gls([(None, 5)]) is None
    assert bn254.g2_mul_gls([(G2_GEN, N)]) is None


def test_gt_pow_gls_matches_f12_cyc_pow():
    draws = random.Random(1402)
    e = bn254.pairing(G1_GEN, G2_GEN)
    for a in (e, f12_cyc_pow(e, draws.randrange(N)), bn254.f12_conj(e)):
        for k in _scalars(N, LAMBDA_GLS, draws):
            assert bn254.gt_pow_gls([(a, k)]) == f12_cyc_pow(a, k)
    assert bn254.gt_pow_gls([(bn254.F12_ONE, draws.randrange(N))]) == bn254.F12_ONE
    assert bn254.gt_pow_gls([(e, N)]) == bn254.F12_ONE


@pytest.mark.parametrize("c", [bn254.G1_GLV, trigger.GLV], ids=["bn254-g1", "secp256k1"])
def test_glv_mul_matches_curve_mul(c):
    draws = random.Random(1403)
    n, lam, gen = (N, LAMBDA_G1, G1_GEN) if c is bn254.G1_GLV else (trigger.N, trigger.LAMBDA, trigger.G)
    pts = [gen, curve_mul(c.p, gen, draws.randrange(1, n))]
    for pt in pts:
        for k in _scalars(n, lam, draws):
            assert curve.glv_mul(c, [(pt, k)]) == curve_mul(c.p, pt, k)
    a, b = (draws.randrange(n) for _ in range(2))
    want = curve.add(c.p, curve_mul(c.p, pts[0], a), curve_mul(c.p, pts[1], b))
    assert curve.glv_mul(c, [(pts[0], a), (pts[1], b)]) == want
    assert curve.glv_mul(c, [(None, a), (pts[1], b)]) == curve_mul(c.p, pts[1], b)
    assert curve.glv_mul(c, [(pts[0], a), ((pts[0][0], -pts[0][1] % c.p), a)]) is None
    assert curve.glv_mul(c, []) is None


def test_g1_mul_matches_curve_mul():
    draws = random.Random(1404)
    pt = curve_mul(P, G1_GEN, draws.randrange(1, N))
    for k in _scalars(N, LAMBDA_G1, draws) + [N, N + 1, 3 * N + 7]:
        assert bn254.g1_mul(pt, k) == curve_mul(P, pt, k % N)
    assert bn254.g1_mul(None, 9) is None


def test_ladders_whose_mixed_addition_meets_an_equal_or_opposite_point(monkeypatch):
    # bases (Q, 2Q) with scalars (2, 1): after one doubling the accumulator is 2Q, the next entry
    for p, pt, neg in ((P, G1_GEN, bn254.g1_neg), (trigger.P, trigger.G, lambda q: (q[0], trigger.P - q[1]))):
        two = curve.add(p, pt, pt)
        assert curve.straus(p, [pt, two], [2, 1]) == curve_mul(p, pt, 4)
        assert curve.straus(p, [pt, neg(two)], [2, 1]) is None
        assert curve.straus(p, [pt, neg(pt)], [1, 1]) is None  # the subset sum itself is infinity
        assert curve.straus(p, [pt, neg(pt)], [3, 1]) == two
        assert curve.straus(p, [], []) is None

    # the same cases on g2_mul_gls's ladder: the split is fixed, and the
    # twist Frobenius replaced so that the conjugates of Q are 2Q, 4Q, 8Q or -Q, Q, -Q
    def gls(parts, frob):
        monkeypatch.setattr(curve, "split", lambda k, lat: list(parts))
        monkeypatch.setattr(bn254, "_tw_frob", frob)
        return bn254.g2_mul_gls([(G2_GEN, 1)])

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
        assert curve.add_all(p, pairs) == [curve.add(p, x, y) for x, y in pairs]
        assert curve.add_all(p, []) == []


def test_joint_products_match_the_general_ladders():
    draws = random.Random(1407)
    pts = [G2_GEN, g2_mul(G2_GEN, draws.randrange(N)), g2_mul(G2_GEN, N - 1), g2_mul(G2_GEN, 2**200)]
    e = bn254.pairing(G1_GEN, G2_GEN)
    els = [e, f12_cyc_pow(e, draws.randrange(N)), bn254.f12_conj(e)]
    for n in range(1, 5):
        ks = [draws.randrange(N) for _ in range(n)]
        want = bn254.g2_sum([g2_mul(q, k) for q, k in zip(pts, ks)])
        assert bn254.g2_mul_gls(list(zip(pts, ks))) == want
        assert bn254.g2_mul_gls([(None, 3), *zip(pts, ks)]) == want
    ks = [draws.randrange(N) for _ in els]
    want = reduce(bn254.f12_mul, [f12_cyc_pow(a, k) for a, k in zip(els, ks)])
    assert bn254.gt_pow_gls(list(zip(els, ks))) == want
    assert bn254.g2_mul_gls([]) is None and bn254.gt_pow_gls([]) == bn254.F12_ONE


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
        monkeypatch.setattr(bn254, "_tw_frob", frob)
        return bn254.g2_mul_gls([(pt, 1) for pt, _ in terms])

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
    return curve.add(trigger.P, curve_mul(trigger.P, (x, y), sig.s * r_inv % trigger.N),
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

    b = RealBackend()
    gt = b.gt() ** 12345
    g2 = b.g2() ** 678
    monkeypatch.setattr(bn254, "g2_mul_gls", refuse)
    monkeypatch.setattr(bn254, "gt_pow_gls", refuse)
    assert b.element("G2", g2.to_bytes()) == g2
    assert b.element("GT", gt.to_bytes()) == gt
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
    g = f12_cyc_pow(bn254.easy_part(tuple((draws.randrange(P), draws.randrange(P)) for _ in range(6))), N)
    assert g != bn254.F12_ONE
    with pytest.raises(NotInSubgroup):
        b.element("GT", b.serialize("GT", g))
