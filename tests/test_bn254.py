import hashlib
import math
import random
from fractions import Fraction

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
    f12_cyc_sqr,
    f12_inv,
    f12_is_cyclotomic,
    f12_mul,
    f12_sqr,
    g1_mul,
    g1_mul_base,
    g2_add,
    g2_in_subgroup,
    g2_is_on_curve,
    g2_mul,
    g2_mul_base,
    g2_neg,
    pairing,
)
from oracles import (affine_add, affine_g2_lines, affine_mul, binary_g2_mul, binary_multi_miller, complex_f2_sqrt,
                     curve_add, curve_mul, f12_pow, g1_is_on_curve, naive_g2_msm, random_twist_point,
                     schoolbook_f12_mul, torsion_point)

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
        acc = curve_add(P, acc, pt)
    return acc


GROUPS = {
    "G1": (G1_GEN, lambda a, b: curve_add(P, a, b), g1_mul, g1_mul_base, bn254.G1.neg),
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


def test_fp_core_mixed_addition_of_equal_and_opposite_points(monkeypatch):
    # G1's joint ladder with the split fixed to (N + 2, 0): an unreduced part, so the
    # last mixed addition meets a point equal to the accumulator
    monkeypatch.setattr(curve, "split", lambda k, lat: [N + 2, 0])
    two = curve_add(P, G1_GEN, G1_GEN)
    assert curve.multi_mul(bn254.G1, [(G1_GEN, 1)]) == two == curve_mul(P, G1_GEN, N + 2)
    assert curve.multi_mul(bn254.G1, [(None, 5)]) is None


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


def _jacobian(pt, z):
    """The affine twist point pt as Jacobian (x*z^2, y*z^3, z)."""
    z2 = f2_sqr(z)
    return (f2_mul(pt[0], z2), f2_mul(pt[1], f2_mul(z2, z)), z)


def test_line_steps_match_dense_lines():
    # the tangent at T and the chord through T and each addend the loop takes, Q, psi(Q) and -psi^2(Q), from a
    # Jacobian T with Z != 1: each step's running point is the ladder's doubling or mixed addition coordinate
    # for coordinate, its affine sum T + Q, and its (n, M, C) = n*(m, c) for the dense line's slope m and c,
    # with n in Fp*; miller_eval over 88 copies of one entry squares at each doubling step and multiplies in n
    # times the line each step
    xp, yp = g1_mul(G1_GEN, 5)
    t = g2_mul(G2_GEN, 3)
    x1, y1 = t
    jt = _jacobian(t, (rng.randrange(1, P), rng.randrange(P)))
    q7 = g2_mul(G2_GEN, 7)
    q1 = bn254._tw_frob(q7)
    addends = (q7, q1, g2_neg(bn254._tw_frob(q1)))
    steps = [(t, bn254._tangent_step(jt), bn254._jac_double_f2(jt))]
    steps += [(q, bn254._chord_step(jt, q), bn254._jac_madd_f2(jt, q)) for q in addends]
    for q, (s, (n, big_m, big_c)), ladder in steps:
        assert s == ladder and bn254.G2.to_affine_all([s])[0] == g2_add(t, q)
        num, den = (f2_mul(f2_sqr(x1), (3, 0)), f2_add(y1, y1)) if q == t else (
            f2_add(q[1], f2_neg(y1)), f2_add(q[0], f2_neg(x1)))
        m = f2_mul(num, f2_inv(den))
        c = f2_add(y1, f2_neg(f2_mul(m, x1)))
        assert 0 < n < P and big_m == f2_mul(m, (n, 0)) and big_c == f2_mul(c, (n, 0))
        line = tuple(f2_mul(a, (n, 0)) for a in ((-yp % P, 0), f2_mul(m, (xp, 0)), F2_ZERO, c, F2_ZERO, F2_ZERO))
        want = F12_ONE
        for step in bn254._ATE_STEPS:
            want = schoolbook_f12_mul(schoolbook_f12_mul(want, want) if step == 0 else want, line)
        assert bn254.miller_eval([((xp, yp), [(n, big_m, big_c)] * 88)]) == want
    assert g2_add(t, g2_neg(t)) is None and g2_add(t, None) == g2_add(None, t) == t


def test_chord_step_raises_where_its_line_is_vertical_or_a_tangent():
    # T = -Q has a vertical line and T = Q a tangent, which an addition step does not form: both raise
    t = g2_mul(G2_GEN, 3)
    jt = _jacobian(t, (rng.randrange(1, P), rng.randrange(P)))
    with pytest.raises(ValueError, match="T = -Q"):
        bn254._chord_step(jt, g2_neg(t))
    with pytest.raises(ValueError, match="T = Q"):
        bn254._chord_step(jt, t)


def test_g2_lines_are_the_affine_lines_scaled_by_fp():
    # every step's (n, M, C) is the affine walk's (m, c) scaled by its n in Fp*: for G2_GEN, random points of
    # G2, and a point of each prime order of the twist with its sum with a point of G2
    draws = random.Random(1340)
    g2 = [g2_mul(G2_GEN, draws.randrange(1, N)) for _ in range(2)]
    torsion = [torsion_point(draws, ell) for ell in COFACTOR_PRIMES]
    qs = [G2_GEN, *g2, *torsion, *(g2_add(t, g2[0]) for t in torsion)]
    got, want = bn254.g2_lines(qs), affine_g2_lines(qs)
    assert len(got) == len(want) == len(qs)
    for lines, affine in zip(got, want):
        assert len(lines) == len(affine) == 88
        for (n, big_m, big_c), (m, c) in zip(lines, affine):
            assert 0 < n < P and big_m == f2_mul(m, (n, 0)) and big_c == f2_mul(c, (n, 0))


def test_sums_match_textbook_addition(monkeypatch):
    # one batch of chords, doublings, t + (-t), None operands and t with the points that share its x
    draws = random.Random(1312)
    t, q = g2_mul(G2_GEN, 11), random_twist_point(draws)
    pts = [g2_mul(G2_GEN, draws.randrange(1, N)) for _ in range(4)] + [q, torsion_point(draws, 10069)]
    pairs = [(a, b) for a in pts for b in pts] + [(t, t), (t, g2_neg(t)), (g2_neg(t), t), (g2_neg(t), g2_neg(t))]
    pairs += [(None, t), (t, None), (None, None), (q, g2_neg(q))]
    calls, batch_inv = [], curve.batch_inv
    monkeypatch.setattr(curve, "batch_inv", lambda p, xs: calls.append(xs) or batch_inv(p, xs))
    sums = bn254._g2_add_all(pairs)
    assert len(calls) == 1
    assert sums == [affine_add(a, b) for a, b in pairs]
    assert sums[-8:] == [g2_mul(G2_GEN, 22), None, None, g2_neg(g2_mul(G2_GEN, 22)), t, t, None, None]
    assert all(g2_is_on_curve(s) for s in sums)


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


def test_f2_batch_inv_matches_f2_inv():
    # unreduced inputs: negative coefficients, and coefficients of p or more
    draws = random.Random(1330)
    for n in (1, 2, 3, 5, 64, 261):
        xs = [(draws.randrange(-2 * P, 3 * P), draws.randrange(-2 * P, 3 * P)) for _ in range(n)]
        xs[0] = (P + 1, -P)  # 1 + 0i
        if n > 2:
            xs[1], xs[2] = (-1, 3 * P), (0, P - 1)
        assert bn254._f2_batch_inv(xs) == [f2_inv((x0 % P, x1 % P)) for x0, x1 in xs]
    assert bn254._f2_batch_inv([]) == []
    for zero in (F2_ZERO, (P, -P)):
        with pytest.raises(ValueError):
            bn254._f2_batch_inv([(1, 2), zero, (3, 4)])


def test_pairing_bilinear():
    a, b = rng.randrange(1, N), rng.randrange(1, N)
    lhs = pairing(g1_mul(G1_GEN, a), g2_mul(G2_GEN, b))
    rhs = f12_pow(pairing(G1_GEN, G2_GEN), a * b % N)
    assert lhs == rhs


def _spy_steps(monkeypatch):
    """A list that records "tangent" or "chord" for each Miller step ``g2_lines`` takes from here on."""
    kinds = []
    tangent, chord = bn254._tangent_step, bn254._chord_step
    monkeypatch.setattr(bn254, "_tangent_step", lambda t: kinds.append("tangent") or tangent(t))
    monkeypatch.setattr(bn254, "_chord_step", lambda t, q: kinds.append("chord") or chord(t, q))
    return kinds


def test_miller_loop_makes_no_inversion(monkeypatch):
    pairs = [(g1_mul(G1_GEN, k), g2_mul(G2_GEN, k + 1)) for k in range(1, 9)]
    digits = curve.naf(ATE_LOOP)
    # a line per signed digit after the leading one, one more per nonzero digit, and two Frobenius lines
    steps = len(digits) - 1 + sum(1 for d in digits if d) - 1 + 2
    assert (len(digits) - 1, sum(1 for d in digits if d) - 1, steps) == (65, 21, 88)
    # no batched inversion and no pow(., -1, .) in bn254 or curve; the spies see the one f2_inv makes
    inversions = []

    def spy_pow(x, e, m=None):
        if e < 0:
            inversions.append(x)
        return pow(x, e, m)

    for module in (bn254, curve):
        monkeypatch.setattr(module, "pow", spy_pow, raising=False)
    monkeypatch.setattr(curve, "batch_inv", lambda p, xs: inversions.append(xs) or [pow(x, -1, p) for x in xs])
    bn254.f2_inv((1, 2))
    assert len(inversions) == 1
    kinds = _spy_steps(monkeypatch)
    shared = [(g1_mul(G1_GEN, 9), G2_GEN), *pairs[:6], (g1_mul(G1_GEN, 10), G2_GEN)]
    # one pair, eight, and eight of which two share a G2 point and so its lines: seven walks
    for run, walks in ((lambda: bn254.miller_loop(G2_GEN, G1_GEN), 1), (lambda: multi_miller(pairs), 8),
                       (lambda: multi_miller(shared), 7)):
        inversions.clear()
        kinds.clear()
        run()
        assert not inversions and len(kinds) == walks * steps


def test_raw_miller_loop_keeps_no_lines(monkeypatch):
    # on raw tuples every call walks the whole loop: 88 line steps per call
    kinds = _spy_steps(monkeypatch)
    q, p = g2_mul(G2_GEN, 0x5EED), g1_mul(G1_GEN, 0xBEEF)
    for _ in range(2):
        kinds.clear()
        bn254.miller_loop(q, p)
        assert len(kinds) == 88


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
    b.pairing_product(elems[5:6])  # first in a one-pair pairing
    b.pairing_product(elems)  # then in an eight-pair product
    b.pairing_product(elems)  # every element now has its lines
    # one batch per product over the distinct values not met before, empty once all are kept
    assert batches == [[raw[5][1]], [raw[0][1], raw[2][1], raw[4][1], raw[6][1]], []]
    assert values == [multi_miller(raw[5:6]), multi_miller(raw), multi_miller(raw)]
    assert elems[3][1].lines is None and all(q.lines is not None for i, (_, q) in enumerate(elems) if i != 3)
    assert elems[0][1].lines is elems[1][1].lines and elems[7][1].lines == g2_lines([raw[7][1]])[0]


def test_held_miller_value_times_the_rest_is_the_joint_value():
    # a pair's raw loop value, held apart, times the Miller evaluation of the other pairs equals the
    # evaluation of all of them as an Fp12 value: for a finite pair, a None one and two held at once
    raw, _ = _mixed_pairs(random.Random(2201))
    joint = multi_miller(raw)
    for held in ([0], [2], [4, 7]):
        f = multi_miller([pq for i, pq in enumerate(raw) if i not in held])
        for i in held:
            f = f12_mul(bn254.miller_loop(raw[i][1], raw[i][0]), f)
        assert f == joint


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
    # a point of each prime order of the twist makes the 65 tangents of the doublings and 23 chords, and
    # no step raises, so no twist point meets a vertical line, or a tangent in an addition, in this loop
    torsion = [torsion_point(draws, ell) for ell in COFACTOR_PRIMES]
    kinds = _spy_steps(monkeypatch)
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
    lhs = pairing(curve_add(P, p7, p11), G2_GEN)
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


def test_cyclotomic_pow_by_u_operation_counts():
    # the table a^2, a^3, a^5, a^7 takes one squaring and 3 products, then 62 squarings and 13 products
    # for the digits after the leading one; plain NAF digits took 62 squarings and 23 products
    counts = {"sqr": 0, "mul": 0}
    sqr, mul = bn254.GT.double, bn254.GT.add
    gt = bn254.GT._replace(double=lambda a: counts.update(sqr=counts["sqr"] + 1) or sqr(a),
                           add=lambda a, b: counts.update(mul=counts["mul"] + 1) or mul(a, b))
    e = pairing(G1_GEN, G2_GEN)
    assert curve.wnaf_mul(gt, e, U) == f12_pow(e, U)
    assert counts == {"sqr": 63, "mul": 16}


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


# ---------------------------------------------------------------------------
# The decoding kernels against the routines they replaced: the signed-window
# ladder against the binary one, the progenitor square root against the
# complex method, and the operation counts of one membership test
# ---------------------------------------------------------------------------


def _wnaf_case(name, draws):
    """(record, order, bases, k * x for k >= 0 by the record's oracle) for the named record."""
    if name in ("g1", "secp256k1"):
        g, p, n, gen = (bn254.G1, P, N, G1_GEN) if name == "g1" else (trigger.GLV, trigger.P, trigger.N, trigger.G)
        return g, n, [gen, curve_mul(p, gen, draws.randrange(1, n))], lambda x, k: curve_mul(p, x, k)
    if name == "g2":
        t = torsion_point(draws, 10069)
        return bn254.G2, N, [G2_GEN, t, g2_add(G2_GEN, t), random_twist_point(draws)], binary_g2_mul
    # e in GT, and a cyclotomic element not of order N
    return bn254.GT, N, [pairing(G1_GEN, G2_GEN), easy_part(random_f12(draws))], f12_pow


@pytest.mark.parametrize("name", ["g1", "secp256k1", "g2", "gt"])
def test_wnaf_mul_matches_the_general_ladders(name):
    draws = random.Random(1321)
    g, n, xs, mul = _wnaf_case(name, draws)
    # 5, 7, 49, 83 and 119 lead with the width-4 digits 5, 7, 3, 5 and 7, the longer ones with 3, 5 and 7
    wide = [5, 7, 11, 13, 49, 83, 119, 2**64 - 1, 3 << 70 | 12345, 5 << 100 | 7, 7 << 200 | 99]
    assert {curve.naf(k, 4)[-1] for k in wide} == {1, 3, 5, 7}
    ks = [0, 1, 2, 8, 15, 16, U, 2 * U, n - 2, n - 1, n, n + 1, G2_COFACTOR, 10069, 10069 - 10,
          draws.randrange(n), draws.randrange(n * G2_COFACTOR)] + wide
    met = set()
    add = g.add

    def spy(q, a):
        if g.to_affine_all([q])[0] == a:
            met.add("equal")
        elif g.to_affine_all([q])[0] == g.neg(a):
            met.add("opposite")
        return add(q, a)

    spied = g._replace(add=spy)
    for x in xs:
        for k in ks:
            want = mul(x, k)
            assert curve.wnaf_mul(spied, x, k) == want, (x, k)
            assert curve.wnaf_mul(spied, x, -k) == g.neg(want), (x, -k)
    for k in (0, 1, -1, n - 1, n):
        assert curve.wnaf_mul(g, g.one, k) == g.one
    # n - 2 on an element of order n ends on -x + -x, and 10059 on the order-10069 point t on -5t + -5t;
    # n and 10069 end on -dx + dx
    assert met == {"equal", "opposite"}
    # the last base of G2 and GT lies outside the order-n subgroup
    assert curve.wnaf_mul(g, xs[0], n) == g.one
    assert (curve.wnaf_mul(g, xs[-1], n) == g.one) == (name in ("g1", "secp256k1"))


# Comb edges: the pieces' ends (2^16 - 1, 2^16, 2^32 - 1, 2^32), the low table's end
# (2^128 - 1, 2^128), the top teeth (2^224, 2^240, 2^253), the widest scalar and every
# reduction mod N; 0 between nonzero scalars keeps its None.
COMB_SCALARS = [0, 1, 2, N - 1, N, N + 1, -1, 2**32 - 1, 2**32, 0, 2**224, 2**253, 2**254 - 1,
                2**16 - 1, 2**16, 2**128 - 1, 2**128, 2**240]


def test_g2_comb_matches_gls_and_binary_ladder():
    draws = random.Random(1323)
    ks = [k % N if k < 0 else k for k in COMB_SCALARS + [draws.randrange(N) for _ in range(50)]]
    comb = curve.comb_table(bn254.G2, G2_GEN)
    got = curve.comb_powers(bn254.G2, comb, ks)
    assert got == [g2_mul_base(k) for k in ks]
    assert got == [binary_g2_mul(G2_GEN, k) for k in ks]
    assert got[0] is None and got[9] is None and got[1] == G2_GEN
    assert curve.comb_powers(bn254.G2, comb, []) == []
    assert curve.comb_powers(bn254.G2, comb, [0, N]) == [None, None]


@pytest.mark.parametrize("count, top", [(1, N), (300, N), (20, 2**128)], ids=["1", "300", "20-below-2^128"])
def test_g2_comb_powers_step_every_ladder_together(count, top):
    # per comb row, one batched doubling, then one batched addition of an entry of the low table and
    # one of the high table, whatever the number of powers; top - 1 has a piece of 16 bits, so 16 rows,
    # and powers below 2^128 add no entry of the high table
    draws = random.Random(1325)
    comb = curve.comb_table(bn254.G2, G2_GEN)
    low, high = ({id(e) for e in table} for table in comb)
    ks = [top - 1] + [draws.randrange(top) for _ in range(count - 1)]
    calls = []
    add_all = bn254.G2.add_all
    got = curve.comb_powers(bn254.G2._replace(add_all=lambda pairs: calls.append(pairs) or add_all(pairs)), comb, ks)
    assert len(calls) == 3 * curve.COMB_ROWS == 48 and {len(pairs) for pairs in calls} == {count}
    assert all(a is b for pairs in calls[0::3] for a, b in pairs)
    for adds, table in ((calls[1::3], low), (calls[2::3], high)):
        entries = [b for pairs in adds for _, b in pairs if b is not None]
        assert all(id(b) in table for b in entries) and bool(entries) == (table is low or top > 2**128)
    assert got == [g2_mul_base(k) for k in ks]


def test_wnaf_digits():
    draws = random.Random(1322)
    for w in (2, 3, 4, 5):
        for k in [0, 1, 7, 8, 15, 16, U, N, G2_COFACTOR] + [draws.randrange(N) for _ in range(20)]:
            digits = curve.naf(k, w)
            assert sum(d << i for i, d in enumerate(digits)) == k
            assert all(d == 0 or (d % 2 and abs(d) < 1 << (w - 1)) for d in digits)
            nonzero = [i for i, d in enumerate(digits) if d]
            assert all(j - i >= w for i, j in zip(nonzero, nonzero[1:]))
    # the subgroup test's [u]Q: 62 doublings and 13 mixed additions after the first digit
    assert len(curve.naf(U, 4)) == 63 and sum(1 for d in curve.naf(U, 4) if d) == 14


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
    double, madd, batch_inv = bn254.G2.double, bn254.G2.add, curve.batch_inv

    def count(name, fn, *args):
        if args[0] is not None:  # an operation on infinity is a copy, not arithmetic
            counts[name] += 1
        return fn(*args)

    monkeypatch.setattr(bn254, "G2", bn254.G2._replace(double=lambda q: count("double", double, q),
                                                       add=lambda q, a: count("madd", madd, q, a)))
    monkeypatch.setattr(curve, "batch_inv", lambda p, xs: count("inv", batch_inv, p, xs))
    for q in (g2_mul(G2_GEN, draws.randrange(1, N)), random_twist_point(draws)):
        counts.update(double=0, madd=0, inv=0)
        bn254.g2_in_subgroup(q)
        # 62 doublings in the ladder and one for the table's 2Q, which one of the 3 inversions normalizes;
        # the binary ladder took 62 doublings, 32 mixed additions and 2 inversions
        assert counts["double"] == 63 and counts["madd"] <= 22 and counts["inv"] == 3, counts

    def counting_pow(x, e, m=None):
        counts["inv" if e == -1 else "pow"] += 1
        return pow(x, e, m)

    monkeypatch.setattr(bn254, "pow", counting_pow, raising=False)
    for _ in range(5):
        a = f2_sqr((draws.randrange(P), draws.randrange(1, P)))
        counts.update(inv=0, pow=0)
        assert f2_sqr(f2_sqrt(a)) == a
        assert counts["pow"] == 2 and counts["inv"] == 0, counts


# ---------------------------------------------------------------------------
# The batched subgroup test: its sums against one g2_mul per term, its
# verdict against the per-point test, and the arithmetic of its bound
# ---------------------------------------------------------------------------


def _g2_points(draws, n):
    return [g2_mul(G2_GEN, draws.randrange(1, N)) for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 7, 33, 80])
def test_bucket_sums_match_naive_oracle(n):
    # the window width grows with n; torsion, equal and opposite points meet in the buckets
    draws = random.Random(1900 + n)
    pts = _g2_points(draws, n)
    pts[0] = g2_add(pts[0], torsion_point(draws, 10069))
    if n > 2:
        pts[1], pts[2] = pts[0], g2_neg(pts[0])
    half = bn254.BATCH_PRIME // 2
    rounds = [[draws.randrange(bn254.BATCH_PRIME) for _ in pts], [bn254.BATCH_PRIME - 1] * n,
              [0] * n, [draws.randrange(2**40) for _ in pts], [1 << 13] * n,
              # the centred coefficients of the batched subgroup test: both ends, mixed signs
              [half] * n, [-half] * n, [draws.randrange(-half, half + 1) for _ in pts],
              [(-1) ** i * half for i in range(n)], [-(2**40) + draws.randrange(2**41) for _ in pts]]
    want = [naive_g2_msm(pts, ks) for ks in rounds]
    for ks, sum_ in zip(rounds, want):
        assert bn254._g2_msm(pts, [ks]) == [sum_]
    # the rounds share their reductions, which must not mix them, an all-zero round included
    assert bn254._g2_msm(pts, rounds) == want
    assert bn254._g2_msm(pts, []) == [] and bn254._g2_msm([], [[], []]) == [None, None]


def _batch_verdicts(pts):
    return bn254.g2_all_in_subgroup(pts), all(g2_in_subgroup(q) for q in pts)


def test_batch_verdict_matches_per_point_on_good_points():
    draws = random.Random(1901)
    pts = _g2_points(draws, 40)
    assert _batch_verdicts(pts) == (True, True)
    # duplicate and opposite points and infinity entries
    pts = [pts[0], None, pts[0], g2_neg(pts[0]), *pts[1:20], None, g2_neg(pts[5]), pts[5], pts[5]]
    assert _batch_verdicts(pts) == (True, True)
    assert _batch_verdicts([None, None]) == (True, True)
    assert _batch_verdicts([]) == (True, True)


@pytest.mark.parametrize("ell", COFACTOR_PRIMES, ids=lambda ell: f"{ell.bit_length()}bit")
def test_batch_rejects_a_cofactor_component_anywhere(ell):
    draws = random.Random(1902 + ell % 1000)
    pts = _g2_points(draws, 40)
    t = torsion_point(draws, ell)
    for i in (0, 20, 39):
        bad = list(pts)
        bad[i] = g2_add(bad[i], t)
        assert _batch_verdicts(bad) == (False, False), i


def test_batch_rejects_opposite_torsion_parts():
    # the two components cancel in an unweighted sum, not in a weighted one
    draws = random.Random(1903)
    pts = _g2_points(draws, 40)
    for ell in (10069, 5864401):
        t = torsion_point(draws, ell)
        bad = list(pts)
        bad[3], bad[30] = g2_add(bad[3], t), g2_add(bad[30], g2_neg(t))
        assert g2_in_subgroup(g2_add(bad[3], bad[30]))
        assert _batch_verdicts(bad) == (False, False)


def test_batch_coefficients_bind_every_point(monkeypatch):
    draws = random.Random(1904)
    pts = _g2_points(draws, 12)
    count = bn254.BATCH_ROUNDS * len(pts)
    rs = bn254.batch_coefficients(pts, count)
    assert len(rs) == count and all(0 <= r < bn254.BATCH_PRIME for r in rs)
    assert max(rs) >= bn254.BATCH_PRIME - 500 and min(rs) < 500
    # the batch test takes them centred on 0, all its rounds in one sum call
    calls, msm = [], bn254._g2_msm
    monkeypatch.setattr(bn254, "_g2_msm", lambda qs, rounds: calls.append(rounds) or msm(qs, rounds))
    assert bn254.g2_all_in_subgroup([None, *pts])
    assert len(calls) == 1 and len(calls[0]) == bn254.BATCH_ROUNDS
    assert [r for ks in calls[0] for r in ks] == [r - bn254.BATCH_PRIME // 2 for r in rs]
    assert bn254.batch_coefficients(pts, count) == rs
    # the first draws of a longer request are the same draws
    assert bn254.batch_coefficients(pts, 4 * count)[:count] == rs
    for i in range(len(pts)):
        for other in (g2_neg(pts[i]), g2_add(pts[i], G2_GEN)):
            changed = pts[:i] + [other] + pts[i + 1:]
            assert bn254.batch_coefficients(changed, count) != rs, i
    assert bn254.batch_coefficients(pts[::-1], count) != rs


def test_batch_error_bound_is_below_2_to_the_minus_128():
    # a nonzero torsion part T_j has order at least the cofactor's smallest prime, so of the
    # BATCH_PRIME values of r_j at most one cancels it: a round passes with at most 1/BATCH_PRIME
    assert G2_COFACTOR % bn254.BATCH_PRIME == 0 and math.gcd(G2_COFACTOR, N) == 1
    assert all(G2_COFACTOR % d for d in range(2, bn254.BATCH_PRIME))
    assert min(COFACTOR_PRIMES) == bn254.BATCH_PRIME
    # the coefficients are BATCH_PRIME consecutive integers centred on 0, distinct mod every prime
    half = bn254.BATCH_PRIME // 2
    centred = range(-half, half + 1)
    assert len(centred) == bn254.BATCH_PRIME
    assert all(len({r % ell for r in centred}) == bn254.BATCH_PRIME for ell in COFACTOR_PRIMES)
    survival = max(Fraction(-(-bn254.BATCH_PRIME // ell), bn254.BATCH_PRIME) for ell in COFACTOR_PRIMES)
    assert survival == Fraction(1, bn254.BATCH_PRIME)
    assert survival**bn254.BATCH_ROUNDS <= Fraction(1, 2**128)
    assert survival**bn254.BATCH_ROUNDS <= Fraction(1, 2**132)
