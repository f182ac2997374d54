import hashlib
import random

import pytest

from nomsig import bn254, curve, trigger
from nomsig.algebra import GroupElem, RealBackend
from nomsig.bn254 import (
    ATE_LOOP,
    F2_ZERO,
    F12_ONE,
    G1_GEN,
    G2_COFACTOR,
    G2_GEN,
    N,
    P,
    U,
    easy_part,
    f2_add,
    f2_inv,
    f2_mul,
    f2_neg,
    f2_sqr,
    f2_sqrt,
    f12_cyc_pow,
    f12_cyc_sqr,
    f12_inv,
    f12_is_cyclotomic,
    f12_mul,
    f12_sqr,
    g1_add,
    g1_mul,
    g1_mul_base,
    g1_neg,
    g2_add,
    g2_comb,
    g2_comb_powers,
    g2_in_subgroup,
    g2_is_on_curve,
    g2_mul,
    g2_mul_base,
    g2_neg,
    g2_sum,
    pairing,
)
from oracles import (affine_mul, binary_g2_mul, binary_multi_miller, complex_f2_sqrt, curve_mul, f12_pow,
                     g1_is_on_curve, random_twist_point, schoolbook_f12_mul, torsion_point)

rng = random.Random(1301)


def multi_miller(pairs):
    """The raw Miller loop over (G1, twist) pairs: one ``g2_lines`` batch over the distinct finite Q_i, nothing kept."""
    qs = list(dict.fromkeys(q for pt, q in pairs if pt is not None and q is not None))
    lines = dict(zip(qs, bn254.g2_lines(qs)))
    return bn254.miller_eval([(pt, lines.get(q)) for pt, q in pairs])


def naive_g1_mul(pt, k):
    # independent oracle: repeated affine addition
    acc = None
    for _ in range(k):
        acc = g1_add(acc, pt)
    return acc


GROUPS = {
    "G1": (G1_GEN, g1_add, g1_mul, g1_mul_base, g1_neg),
    "G2": (G2_GEN, g2_add, g2_mul, g2_mul_base, g2_neg),
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_fixed_variable_and_repeated_addition_agree(group):
    gen, add, mul, mul_base, neg = GROUPS[group]
    draws = random.Random(1302)
    for k in [0, 1, 2, N - 1, N, N + 1] + [draws.randrange(N) for _ in range(4)]:
        want = affine_mul(add, gen, k % N)
        assert mul(gen, k) == want
        assert mul_base(k) == want
    assert mul(gen, N - 1) == neg(gen)
    acc = None
    for k in range(1, 9):
        acc = add(acc, gen)
        assert mul(gen, k) == mul_base(k) == acc


def test_g2_mul_unreduced_scalars():
    # the subgroup check and cofactor clearing multiply by k >= N
    two = g2_add(G2_GEN, G2_GEN)
    assert g2_mul(G2_GEN, N + 2) == two  # the last mixed addition meets an equal point
    assert g2_mul(G2_GEN, 2 * N + 1) == G2_GEN
    assert g2_mul(G2_GEN, -(N + 2)) == g2_neg(two)


def test_fp_core_mixed_addition_of_equal_and_opposite_points():
    two = g1_add(G1_GEN, G1_GEN)
    assert curve.straus(P, [G1_GEN], [N + 2]) == two == curve_mul(P, G1_GEN, N + 2)
    assert curve.straus(P, [None], [5]) is None


def test_curve_constants():
    assert P % 4 == 3
    assert (P + 1 - N) ** 2 < 4 * P  # Hasse bound on the trace
    assert ATE_LOOP % 2 == 0


def test_generators_valid():
    assert g1_is_on_curve(G1_GEN)
    assert g2_is_on_curve(G2_GEN)
    assert g2_in_subgroup(G2_GEN)
    assert g1_mul(G1_GEN, N) is None
    assert g2_mul(G2_GEN, N) is None


def test_g1_mul_matches_naive_oracle():
    for k in (1, 2, 3, 7, 20, 59):
        assert g1_mul(G1_GEN, k) == naive_g1_mul(G1_GEN, k)


def test_g1_mul_pinned():
    x, y = g1_mul(G1_GEN, 5)
    assert x == 0x17C139DF0EFEE0F766BC0204762B774362E4DED88953A39CE849A8A7FA163FA9
    assert y == 0x01E0559BACB160664764A357AF8A9FE70BAA9258E0B959273FFC5718C6D4CC7C


def test_g2_mul_matches_addition_chain():
    p2 = g2_add(G2_GEN, G2_GEN)
    p5 = g2_add(g2_add(p2, p2), G2_GEN)
    assert g2_mul(G2_GEN, 5) == p5
    assert g2_mul(G2_GEN, -1) == (G2_GEN[0], (tuple((P - c) % P for c in G2_GEN[1])))


def test_fp2_arithmetic():
    for _ in range(20):
        a = (rng.randrange(P), rng.randrange(1, P))
        assert f2_mul(a, f2_inv(a)) == (1, 0)
        sq = f2_mul(a, a)
        r = f2_sqrt(sq)
        assert r is not None and f2_mul(r, r) == sq


def test_fp12_inverse():
    e = pairing(G1_GEN, G2_GEN)
    assert f12_mul(e, f12_inv(e)) == F12_ONE


# ---------------------------------------------------------------------------
# Field kernels against the schoolbook product and Fermat inversion
# ---------------------------------------------------------------------------


def _f12_operands(draws):
    """Dense values, values with zero Fp2 coefficients, all coefficients P - 1, and F12_ONE."""
    ops = [random_f12(draws) for _ in range(3)]
    for zeros in ({0}, {1, 3, 5}, {0, 2, 4}, {1, 2, 3, 4, 5}):
        ops.append(tuple(F2_ZERO if i in zeros else c for i, c in enumerate(random_f12(draws))))
    return ops + [((P - 1, P - 1),) * 6, F12_ONE]


def test_f12_mul_sqr_and_inv_match_schoolbook():
    ops = _f12_operands(random.Random(1310))
    for a in ops:
        assert f12_sqr(a) == schoolbook_f12_mul(a, a)
        assert schoolbook_f12_mul(a, f12_inv(a)) == F12_ONE
        for b in ops:
            assert f12_mul(a, b) == schoolbook_f12_mul(a, b)


def test_sparse_line_products_match_schoolbook():
    draws = random.Random(1311)
    for f in _f12_operands(draws):
        l0, x = draws.randrange(P), (draws.randrange(P), draws.randrange(P))
        l1, l3 = (draws.randrange(P), draws.randrange(P)), (P - 1, draws.randrange(P))
        line = ((l0, 0), l1, F2_ZERO, l3, F2_ZERO, F2_ZERO)
        assert bn254._f12_mul_line(f, l0, l1, l3) == schoolbook_f12_mul(f, line)
        vertical = ((l0, 0), F2_ZERO, f2_neg(x), F2_ZERO, F2_ZERO, F2_ZERO)
        assert bn254._f12_mul_f6(f, (l0, 0, *f2_neg(x), 0, 0)) == schoolbook_f12_mul(f, vertical)


def test_line_steps_match_dense_lines():
    # chord, tangent and vertical lines at P, built densely from the slope; miller_eval over 88
    # copies of one line entry squares at each doubling step and multiplies in the line each step
    xp, yp = g1_mul(G1_GEN, 5)
    t = g2_mul(G2_GEN, 3)
    x1, y1 = t
    cases = (g2_mul(G2_GEN, 7), t, g2_neg(t))
    chords = bn254._chords([(t, q) for q in cases])
    for q, (m, c, s) in zip(cases, chords):
        assert s == g2_add(t, q)
        got = bn254.miller_eval([((xp, yp), [(None, x1) if m is None else (m, c)] * 88)])
        if q == g2_neg(t):
            assert m is c is s is None
            line = ((xp, 0), F2_ZERO, f2_neg(x1), F2_ZERO, F2_ZERO, F2_ZERO)
        else:
            num, den = (f2_mul(f2_sqr(x1), (3, 0)), f2_add(y1, y1)) if q == t else (
                f2_add(q[1], f2_neg(y1)), f2_add(q[0], f2_neg(x1)))
            assert m == f2_mul(num, f2_inv(den))
            assert c == f2_add(y1, f2_neg(f2_mul(m, x1)))
            line = ((-yp % P, 0), f2_mul(m, (xp, 0)), F2_ZERO, c, F2_ZERO, F2_ZERO)
        want = F12_ONE
        for step in bn254._ATE_STEPS:
            want = schoolbook_f12_mul(schoolbook_f12_mul(want, want) if step == 0 else want, line)
        assert got == want
    assert g2_add(t, g2_neg(t)) is None and g2_add(t, None) == g2_add(None, t) == t


def test_inversions_match_fermat():
    draws = random.Random(1313)
    for a in [(1, 0), (0, 1), (P - 1, P - 1)] + [(draws.randrange(P), draws.randrange(P)) for _ in range(20)]:
        d = pow(a[0] * a[0] + a[1] * a[1], P - 2, P)
        assert f2_inv(a) == (a[0] * d % P, -a[1] * d % P)
    for p in (P, trigger.P):  # the Fp core serves BN254 G1 and secp256k1
        for _ in range(5):
            x, y, z = (draws.randrange(1, p) for _ in range(3))
            zi = pow(z, p - 2, p)
            assert curve.to_affine(p, (x, y, z)) == (x * zi * zi % p, y * zi * zi * zi % p)


def test_zero_has_no_inverse():
    # extended Euclid raises where Fermat's pow(0, p - 2, p) silently gave 0
    with pytest.raises(ValueError):
        f2_inv(F2_ZERO)
    with pytest.raises(ValueError):
        f12_inv((F2_ZERO,) * 6)
    for p in (P, trigger.P):
        with pytest.raises(ValueError):
            curve.to_affine(p, (1, 2, 0))


def test_pairing_bilinear():
    a, b = rng.randrange(1, N), rng.randrange(1, N)
    lhs = pairing(g1_mul(G1_GEN, a), g2_mul(G2_GEN, b))
    rhs = f12_pow(pairing(G1_GEN, G2_GEN), a * b % N)
    assert lhs == rhs


def test_miller_loop_inverts_once_per_line(monkeypatch):
    pairs = [(g1_mul(G1_GEN, k), g2_mul(G2_GEN, k + 1)) for k in range(1, 9)]
    digits = bn254._naf(ATE_LOOP)
    # a line per signed digit after the leading one, one more per nonzero digit, and two Frobenius lines
    steps = len(digits) - 1 + sum(1 for d in digits if d) - 1 + 2
    assert (len(digits) - 1, sum(1 for d in digits if d) - 1, steps) == (65, 21, 88)
    calls, batches = [], []
    chords = bn254._chords
    monkeypatch.setattr(bn254, "f2_inv", lambda a: calls.append(a) or f2_inv(a))
    monkeypatch.setattr(bn254, "_chords", lambda tqs: batches.append(len(tqs)) or chords(tqs))
    bn254.miller_loop(G2_GEN, G1_GEN)
    assert len(calls) == len(batches) == steps
    # eight pairs share one inversion per line step
    calls.clear()
    multi_miller(pairs)
    assert len(calls) == steps
    # two pairs on one G2 point share its chord: seven chords per step for eight pairs
    batches.clear()
    multi_miller([(g1_mul(G1_GEN, 9), G2_GEN), *pairs[:6], (g1_mul(G1_GEN, 10), G2_GEN)])
    assert batches == [7] * steps


def test_raw_miller_loop_keeps_no_lines(monkeypatch):
    # on raw tuples every call walks the whole loop: 88 chord batches and 88 inversions
    calls, batches = [], []
    chords = bn254._chords
    monkeypatch.setattr(bn254, "f2_inv", lambda a: calls.append(a) or f2_inv(a))
    monkeypatch.setattr(bn254, "_chords", lambda tqs: batches.append(len(tqs)) or chords(tqs))
    q, p = g2_mul(G2_GEN, 0x5EED), g1_mul(G1_GEN, 0xBEEF)
    for _ in range(2):
        calls.clear()
        batches.clear()
        bn254.miller_loop(q, p)
        assert len(calls) == 88 and batches == [1] * 88


def test_kept_lines_give_the_raw_loop_value(monkeypatch):
    # Miller values through the real backend, whose G2 elements keep their lines, equal the raw
    # loop's as Fp12 values: pairs 0 and 1 share a G2 value, 2 and 3 have None on one side,
    # 4 pairs with -Q of pair 5, and 7 reuses the G2 element of pair 6
    b = RealBackend()
    raw, _ = _mixed_pairs(random.Random(1316))
    raw[4] = (raw[4][0], g2_neg(raw[5][1]))
    raw[7] = (raw[7][0], raw[6][1])
    elems = [(GroupElem(b, "G1", p), GroupElem(b, "G2", q)) for p, q in raw]
    elems[7] = (elems[7][0], elems[6][1])
    values, batches = [], []
    final_exp, g2_lines = bn254.final_exp, bn254.g2_lines
    monkeypatch.setattr(bn254, "final_exp", lambda f: values.append(f) or final_exp(f))
    monkeypatch.setattr(bn254, "g2_lines", lambda qs: batches.append(qs) or g2_lines(qs))
    b.pairing(*elems[5])  # first in a one-pair pairing
    b.pairing_product(elems)  # then in an eight-pair product
    b.pairing_product(elems)  # every element now has its lines
    # one batch per product over the distinct values not met before, empty once all are kept
    assert batches == [[raw[5][1]], [raw[0][1], raw[2][1], raw[4][1], raw[6][1]], []]
    assert values == [multi_miller(raw[5:6]), multi_miller(raw), multi_miller(raw)]
    assert elems[3][1].lines is None and all(q.lines is not None for i, (_, q) in enumerate(elems) if i != 3)
    assert elems[0][1].lines is elems[1][1].lines and elems[7][1].lines == g2_lines([raw[7][1]])[0]


def _mixed_pairs(draws):
    """Eight (G1, G2) pairs and the discrete log of their pairing product.

    Pairs 0 and 1 share their G2 point; pairs 2 and 3 have None on one side.
    """
    a = [draws.randrange(1, N) for _ in range(8)]
    b = [draws.randrange(1, N) for _ in range(8)]
    b[1] = b[0]
    a[2] = b[3] = 0
    pairs = [(g1_mul(G1_GEN, x), g2_mul(G2_GEN, y)) for x, y in zip(a, b)]
    assert pairs[1][1] == pairs[0][1] and pairs[2][0] is None and pairs[3][1] is None
    return pairs, sum(x * y for x, y in zip(a, b)) % N


def test_multi_miller_matches_product_of_pairings():
    pairs, _ = _mixed_pairs(random.Random(1303))
    want = F12_ONE
    for n, (p, q) in enumerate(pairs, 1):
        want = f12_mul(want, pairing(p, q))
        assert bn254.final_exp(multi_miller(pairs[:n])) == want
    assert multi_miller([]) == multi_miller(pairs[2:4]) == F12_ONE


def test_multi_miller_matches_binary_loop_oracle(monkeypatch):
    # pairs 0 and 1 share a G2 point, 2 and 3 have None on one side, 4 pairs with -Q of pair 5,
    # and 6 and 7 are off G2: an order-10069 point and its sum with a point of G2
    draws = random.Random(1314)
    pairs, _ = _mixed_pairs(draws)
    t = torsion_point(draws, 10069)
    pairs[4] = (pairs[4][0], g2_neg(pairs[5][1]))
    pairs[6] = (pairs[6][0], t)
    pairs[7] = (pairs[7][0], g2_add(pairs[7][1], t))
    for n in range(1, 9):
        assert bn254.final_exp(multi_miller(pairs[:n])) == bn254.final_exp(binary_multi_miller(pairs[:n])), n
    # a point of each prime order of the twist makes only the 65 tangents of the doublings and
    # 23 chords, so no twist point meets a vertical line, or a tangent in an addition, in this loop
    torsion = [torsion_point(draws, ell) for ell in COFACTOR_PRIMES]
    kinds = []
    chords = bn254._chords

    def spy(tqs):
        out = chords(tqs)
        kinds.extend("vertical" if m is None else "tangent" if t == q else "chord"
                     for (t, q), (m, _, _) in zip(tqs, out))
        return out

    monkeypatch.setattr(bn254, "_chords", spy)
    for q in [G2_GEN, *torsion]:
        kinds.clear()
        multi_miller([(G1_GEN, q)])
        assert (kinds.count("tangent"), kinds.count("chord"), len(kinds)) == (65, 23, 88)


def test_pairing_check_verdicts(monkeypatch):
    b = RealBackend()
    pairs, s = _mixed_pairs(random.Random(1304))
    calls = []
    final_exp = bn254.final_exp
    monkeypatch.setattr(bn254, "final_exp", lambda f: calls.append(f) or final_exp(f))

    def pairing_check(raw):
        return b.pairing_check([(GroupElem(b, "G1", p), GroupElem(b, "G2", q)) for p, q in raw])

    assert pairing_check([])
    assert pairing_check(pairs + [(g1_mul(G1_GEN, -s), G2_GEN)])
    assert not pairing_check(pairs + [(g1_mul(G1_GEN, -s + 1), G2_GEN)])
    assert not pairing_check(pairs[:1])
    assert len(calls) == 4  # one final exponentiation per check, whatever the pair count


def test_pairing_pinned():
    # digest of e(G1_GEN, G2_GEN): 12 Fp coefficients, 32 bytes big-endian each
    e = pairing(G1_GEN, G2_GEN)
    raw = b"".join(c.to_bytes(32, "big") for coeff in e for c in coeff)
    assert hashlib.sha256(raw).hexdigest() == (
        "a0ffc0e668848ab9dc71bdd8266d647a346d814b9d2bcfc710c426ffdfd3922c"
    )


def test_pairing_non_degenerate_and_order():
    e = pairing(G1_GEN, G2_GEN)
    assert e != F12_ONE
    assert f12_pow(e, N) == F12_ONE


def test_pairing_linearity_in_first_argument():
    p7 = g1_mul(G1_GEN, 7)
    p11 = g1_mul(G1_GEN, 11)
    lhs = pairing(g1_add(p7, p11), G2_GEN)
    rhs = f12_mul(pairing(p7, G2_GEN), pairing(p11, G2_GEN))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Final exponentiation, cyclotomic arithmetic and G2 membership against slow oracles
# ---------------------------------------------------------------------------

HARD_EXP = (P**4 - P**2 + 1) // N

# The prime factors of the G2 cofactor; the last is the 178-bit one.
COFACTOR_PRIMES = [10069, 5864401, 1875725156269]
COFACTOR_PRIMES.append(G2_COFACTOR // (COFACTOR_PRIMES[0] * COFACTOR_PRIMES[1] * COFACTOR_PRIMES[2]))


def slow_final_exp(f):
    # oracle: the hard part as one square-and-multiply over the whole exponent
    return f12_pow(easy_part(f), HARD_EXP)


def random_f12(draws):
    return tuple((draws.randrange(P), draws.randrange(P)) for _ in range(6))


def slow_g2_in_subgroup(pt):
    return g2_is_on_curve(pt) and g2_mul(pt, N) is None


def test_hard_exponent_decomposes_in_u():
    l2 = 6 * U**2 + 1
    l1 = -36 * U**3 - 18 * U**2 - 12 * U + 1
    l0 = -36 * U**3 - 30 * U**2 - 18 * U - 2
    assert (P**4 - P**2 + 1) % N == 0
    assert l0 + l1 * P + l2 * P**2 + P**3 == HARD_EXP


def test_final_exp_matches_square_and_multiply_oracle():
    draws = random.Random(1305)
    for _ in range(5):
        f = random_f12(draws)
        assert bn254.final_exp(f) == slow_final_exp(f)
    pairs, _ = _mixed_pairs(random.Random(1306))
    for n in (1, 2, 8):
        f = multi_miller(pairs[:n])
        assert bn254.final_exp(f) == slow_final_exp(f)


def test_cyclotomic_squaring_matches_f12_mul():
    draws = random.Random(1307)
    assert f12_cyc_sqr(F12_ONE) == F12_ONE
    for _ in range(5):
        f = random_f12(draws)
        g = easy_part(f)
        assert f12_is_cyclotomic(g) and not f12_is_cyclotomic(f)
        assert f12_cyc_sqr(g) == f12_mul(g, g)


def test_cyclotomic_pow_matches_f12_pow():
    draws = random.Random(1308)
    e = pairing(G1_GEN, G2_GEN)
    g = easy_part(random_f12(draws))  # cyclotomic, not of order N
    for k in [0, 1, 2, 3, N - 1, N, U] + [draws.randrange(N) for _ in range(3)]:
        assert f12_cyc_pow(e, k) == f12_pow(e, k)
        assert f12_cyc_pow(g, k) == f12_pow(g, k)
    assert f12_cyc_pow(e, N) == F12_ONE and f12_cyc_pow(g, N) != F12_ONE


def test_g2_subgroup_check_matches_multiplication_by_n():
    draws = random.Random(1309)
    for _ in range(4):
        q = random_twist_point(draws)
        assert g2_in_subgroup(q) == slow_g2_in_subgroup(q) is False
        q = g2_mul(q, G2_COFACTOR)
        assert g2_in_subgroup(q) == slow_g2_in_subgroup(q) is True
    assert g2_in_subgroup(None)
    assert not g2_in_subgroup((G2_GEN[0], G2_GEN[0]))  # off the curve


@pytest.mark.parametrize("ell", COFACTOR_PRIMES, ids=lambda ell: f"{ell.bit_length()}bit")
def test_g2_subgroup_check_rejects_cofactor_torsion(ell):
    assert G2_COFACTOR % ell == 0
    draws = random.Random(ell)
    t = None
    while t is None:
        t = g2_mul(random_twist_point(draws), N * (G2_COFACTOR // ell))
    assert g2_mul(t, ell) is None  # t has order ell
    for q in (t, g2_add(G2_GEN, t)):
        assert not g2_in_subgroup(q) and not slow_g2_in_subgroup(q)


def test_g2_sum_matches_affine_fold():
    a, b, c = (g2_mul(G2_GEN, k) for k in (5, 7, 11))
    cases = [
        [],
        [None, a],
        [a, g2_neg(a), b],  # a partial sum passes through infinity
        [a, a, a],  # equal to the partial sum: a doubling
        [a, b, g2_neg(g2_add(a, b))],  # ends at infinity
        [a, b, a, g2_add(a, b), c, g2_neg(c), b],
    ]
    for pts in cases:
        want = None
        for pt in pts:
            want = g2_add(want, pt)
        assert g2_sum(pts) == want


# ---------------------------------------------------------------------------
# The decoding kernels against the routines they replaced: the signed-window
# ladder against the binary one, the progenitor square root against the
# complex method, and the operation counts of one membership test
# ---------------------------------------------------------------------------


def test_g2_mul_matches_binary_ladder(monkeypatch):
    draws = random.Random(1321)
    t = torsion_point(draws, 10069)
    pts = [G2_GEN, t, g2_add(G2_GEN, t), random_twist_point(draws), None]
    ks = [0, 1, 2, 7, 8, 15, 16, U, 2 * U, N - 1, N, N + 1, G2_COFACTOR,
          N - 2, 10069, 10069 - 10, draws.randrange(N * G2_COFACTOR)]
    met = set()
    madd = bn254._jac_madd_f2

    def spy(q, a):
        if bn254._to_affine_f2(q) == a:
            met.add("equal")
        elif bn254._to_affine_f2(q) == g2_neg(a):
            met.add("opposite")
        return madd(q, a)

    monkeypatch.setattr(bn254, "_jac_madd_f2", spy)
    for pt in pts:
        for k in ks:
            assert g2_mul(pt, k) == binary_g2_mul(pt, k), (pt, k)
            assert g2_mul(pt, -k) == binary_g2_mul(pt, -k), (pt, -k)
    # N - 2 on G2_GEN and 10059 on t end on -G2_GEN + -G2_GEN and -5t + -5t;
    # N and 10069 end on -dQ + dQ
    assert met == {"equal", "opposite"}


# Comb edges: the pieces' ends (2^32 - 1, 2^32), the top tooth (2^224, 2^253), the
# widest scalar and every reduction mod N; 0 between nonzero scalars keeps its None.
COMB_SCALARS = [0, 1, 2, N - 1, N, N + 1, -1, 2**32 - 1, 2**32, 0, 2**224, 2**253, 2**254 - 1]


def test_g2_comb_matches_gls_and_binary_ladder():
    draws = random.Random(1323)
    ks = COMB_SCALARS + [draws.randrange(N) for _ in range(50)]
    comb = g2_comb(G2_GEN)
    got = g2_comb_powers(comb, ks)
    assert got == [g2_mul_base(k) for k in ks]
    assert got == [binary_g2_mul(G2_GEN, k % N) for k in ks]
    assert got[0] is None and got[9] is None and got[1] == G2_GEN
    assert g2_comb_powers(comb, []) == []
    assert g2_comb_powers(comb, [0, N]) == [None, None]


def test_wnaf_digits():
    draws = random.Random(1322)
    for w in (2, 3, 4, 5):
        for k in [0, 1, 7, 8, 15, 16, U, N, G2_COFACTOR] + [draws.randrange(N) for _ in range(20)]:
            digits = bn254._naf(k, w)
            assert sum(d << i for i, d in enumerate(digits)) == k
            assert all(d == 0 or (d % 2 and abs(d) < 1 << (w - 1)) for d in digits)
            nonzero = [i for i, d in enumerate(digits) if d]
            assert all(j - i >= w for i, j in zip(nonzero, nonzero[1:]))
    # the subgroup test's [u]Q: 62 doublings and 13 mixed additions after the first digit
    assert len(bn254._naf(U, 4)) == 63 and sum(1 for d in bn254._naf(U, 4) if d) == 14


def _is_qr(x):
    return pow(x, (P - 1) // 2, P) == 1


def test_f2_sqrt_matches_complex_method_oracle():
    draws = random.Random(1323)
    squares = [f2_sqr((draws.randrange(P), draws.randrange(1, P))) for _ in range(40)]
    squares = [a for a in squares if a[1]]
    others = [(draws.randrange(P), draws.randrange(1, P)) for _ in range(40)]
    qr = next(x for x in range(2, 100) if _is_qr(x))
    nqr = next(x for x in range(2, 100) if not _is_qr(x))
    reals = [F2_ZERO, (qr, 0), (nqr, 0), (P - qr, 0), (P - nqr, 0), (1, 0), (P - 1, 0)]
    branches = set()
    for a in squares + others + reals:
        want, got = complex_f2_sqrt(a), f2_sqrt(a)
        if want is None:
            assert got is None, a
            continue
        assert got in (want, f2_neg(want)) and f2_sqr(got) == a, a
        if a[1]:
            s = pow((a[0] ** 2 + a[1] ** 2) % P, (P + 1) // 4, P)
            branches.add(_is_qr((a[0] + s) * ((P + 1) // 2) % P))
    # both outcomes of the d test, and some non-squares
    assert branches == {True, False}
    assert any(complex_f2_sqrt(a) is None for a in others)
    assert f2_sqrt(F2_ZERO) == F2_ZERO
    # a1 = 0: a0 a residue has a root in Fp, -a0 a residue a root in i*Fp
    assert f2_sqrt((qr, 0))[1] == 0 and f2_sqrt((nqr, 0))[0] == 0


def test_decode_kernel_operation_counts(monkeypatch):
    draws = random.Random(1324)
    counts = {"double": 0, "madd": 0, "inv": 0, "pow": 0}
    double, madd = bn254._jac_double_f2, bn254._jac_madd_f2

    def count(name, fn, *args):
        if args[0] is not None:  # an operation on infinity is a copy, not arithmetic
            counts[name] += 1
        return fn(*args)

    monkeypatch.setattr(bn254, "_jac_double_f2", lambda q: count("double", double, q))
    monkeypatch.setattr(bn254, "_jac_madd_f2", lambda q, a: count("madd", madd, q, a))
    monkeypatch.setattr(bn254, "f2_inv", lambda a: count("inv", f2_inv, a))
    for q in (g2_mul(G2_GEN, draws.randrange(1, N)), random_twist_point(draws)):
        counts.update(double=0, madd=0, inv=0)
        bn254.g2_in_subgroup(q)
        # was 62 doublings, 32 mixed additions and 2 inversions with the binary ladder
        assert counts["double"] == 62 and counts["madd"] <= 22 and counts["inv"] <= 3, counts

    def counting_pow(x, e, m=None):
        counts["inv" if e == -1 else "pow"] += 1
        return pow(x, e, m)

    monkeypatch.setattr(bn254, "pow", counting_pow, raising=False)
    for _ in range(5):
        a = f2_sqr((draws.randrange(P), draws.randrange(1, P)))
        counts.update(inv=0, pow=0)
        assert f2_sqr(f2_sqrt(a)) == a
        assert counts["pow"] == 2 and counts["inv"] == 0, counts
