import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomsig import bn254, curve
from nomsig.algebra import (
    COMB_USES,
    AlgebraError,
    GroupElem,
    MalformedEncoding,
    MockBackend,
    NotInSubgroup,
    NotOnCurve,
    RealBackend,
    bit,
    encode_parts,
    get_backend,
    hash_h1,
    hash_h2,
    point_words,
    words_point,
)
from nomsig.bn254 import N
from oracles import f12_pow, off_curve_x, torsion_point


def test_hash_h1_pinned():
    # frozen from the reference run; changing the tag or hash breaks these
    assert hash_h1(b"").hex() == "a66f6fc92da2e9b8dc859d5bda9e5a79ef4d2f5cb1ef1999b2cc94dc192421ef"
    assert hash_h1(b"abc").hex() == "944ee278877116655145f42f403a518bb048a006da3ade3c751e700de693e99e"


def test_hash_h2_pinned():
    assert hash_h2(b"", N) == 0x098A27C4ACEDF8322131A02EDD8F31C2D5E4B7259A7C9AF0695FFF7359905FE6
    assert hash_h2(b"abc", N) == 0x05D58C0C0360335A11A006A21AD341DCB70E4699911EB532FFDBBAF91EE8CED1


def test_hash_h2_in_range():
    rng = random.Random(5)
    for _ in range(200):
        data = rng.randbytes(rng.randrange(64))
        assert 0 <= hash_h2(data, N) < N


def test_encode_parts_unambiguous():
    assert encode_parts(b"ab", b"c") != encode_parts(b"a", b"bc")
    assert encode_parts(b"") != encode_parts()
    assert encode_parts(b"x", b"y") == encode_parts(b"x", b"y")


def test_bit_msb_first_one_indexed():
    data = bytes([0b10000001]) + bytes(31)
    assert bit(data, 1) == 1
    assert bit(data, 8) == 1
    assert all(bit(data, i) == 0 for i in range(2, 8))


def test_get_backend_names():
    assert get_backend("mock").name == "mock"
    assert get_backend("bn254").name == "bn254"
    assert get_backend("real").name == "bn254"
    with pytest.raises(AlgebraError):
        get_backend("nope")


def test_mock_group_laws():
    b = MockBackend()
    rng = random.Random(7)
    g = b.g2()
    x, y = b.random_scalar(rng), b.random_scalar(rng)
    assert g**x * g**y == g ** ((x + y) % b.order)
    assert (g**x) ** y == g ** (x * y % b.order)
    assert g**x / g**x == b.identity("G2")
    assert (~(g**x)) * g**x == b.identity("G2")


def test_mock_pairing_is_exponent_product():
    b = MockBackend()
    e = b.pairing_product([(b.g1() ** 6, b.g2() ** 9)])
    assert e == b.gt() ** 54


def test_serialization_roundtrip_mock():
    b = MockBackend()
    rng = random.Random(11)
    for group in ("G1", "G2", "GT"):
        for _ in range(50):
            el = getattr(b, group.lower())() ** b.random_scalar(rng)
            assert b.element(group, el.to_bytes()) == el


def test_serialization_roundtrip_real():
    b = RealBackend()
    rng = random.Random(13)
    for group in ("G1", "G2", "GT"):
        for _ in range(8):
            el = getattr(b, group.lower())() ** b.random_scalar(rng)
            back = b.element(group, el.to_bytes())
            assert back == el
            assert back.to_bytes() == el.to_bytes()


def test_real_identity_roundtrip():
    b = RealBackend()
    for group in ("G1", "G2"):
        ident = b.identity(group)
        assert b.element(group, ident.to_bytes()).is_identity()


def test_mock_rejects_out_of_range():
    b = MockBackend()
    with pytest.raises(MalformedEncoding):
        b.element("G1", b.order.to_bytes(32, "big"))
    with pytest.raises(MalformedEncoding):
        b.element("G1", b"short")


def test_real_rejects_malformed():
    b = RealBackend()
    with pytest.raises(MalformedEncoding):
        b.element("G1", bytes(10))
    with pytest.raises((NotOnCurve, MalformedEncoding)):
        # x = 4 has no point on y^2 = x^3 + 3
        b.element("G1", (4).to_bytes(32, "big"))
    with pytest.raises((NotOnCurve, NotInSubgroup, MalformedEncoding)):
        b.element("G2", bytes([0x01]) + bytes(63))
    with pytest.raises(NotInSubgroup):
        b.element("GT", bytes(384))  # zero is not in GT


def test_real_g2_subgroup_check_rejects_cofactor_points():
    # a random twist point is almost surely outside the order-N subgroup
    from nomsig.bn254 import P, TW_B, f2_add, f2_mul, f2_sqrt, g2_in_subgroup

    x = (5, 0)
    while True:
        rhs = f2_add(f2_mul(x, f2_mul(x, x)), TW_B)
        y = f2_sqrt(rhs)
        if y is not None:
            break
        x = (x[0] + 1, 0)
    assert not g2_in_subgroup((x, y))


def test_hash_to_g2_deterministic_and_in_group():
    for b in (MockBackend(), RealBackend()):
        a = b.hash_to_g2(b"domain-1")
        assert a == b.hash_to_g2(b"domain-1")
        assert a != b.hash_to_g2(b"domain-2")
        assert b.element("G2", a.to_bytes()) == a


def test_cross_backend_equality_is_false():
    assert MockBackend().g1() != RealBackend().g1()


@pytest.mark.parametrize("backend", [MockBackend(), RealBackend()], ids=["mock", "bn254"])
def test_pairing_check_agrees_with_separate_pairings(backend):
    b = backend
    rng = random.Random(17)
    g1, g2 = b.g1(), b.g2()
    a = [b.random_nonzero_scalar(rng) for _ in range(7)]
    c = [b.random_nonzero_scalar(rng) for _ in range(7)]
    c[1] = c[0]  # the same G2 point in two pairs
    a[2] = c[3] = 0  # the identity on either side
    base = [(g1**x, g2**y) for x, y in zip(a, c)]
    assert base[2][0].is_identity() and base[3][1].is_identity()
    separate = [b.pairing_product([(x, y)]) for x, y in base]
    for n in range(1, 9):
        # close the first n - 1 pairs with a pair that cancels them, off by one for odd n
        s = sum(x * y for x, y in zip(a[: n - 1], c[: n - 1])) + n % 2
        closing = (g1 ** (-s % b.order), g2)
        prod = b.pairing_product([closing])
        for e in separate[: n - 1]:
            prod = prod * e
        assert b.pairing_check(base[: n - 1] + [closing]) == prod.is_identity() == (n % 2 == 0)


@pytest.mark.parametrize("backend", [MockBackend(), RealBackend()], ids=["mock", "bn254"])
def test_pairing_product_matches_product_of_separate_pairings(backend):
    b = backend
    rng = random.Random(18)
    g1, g2 = b.g1(), b.g2()
    a = [b.random_nonzero_scalar(rng) for _ in range(8)]
    c = [b.random_nonzero_scalar(rng) for _ in range(8)]
    c[1] = c[0]  # the same G2 point in two pairs
    a[2] = c[3] = 0  # the identity on either side
    pairs = [(g1**x, g2**y) for x, y in zip(a, c)]
    assert b.pairing_product([]).is_identity()
    want = b.identity("GT")
    for n in range(1, 9):
        want = want * b.pairing_product([pairs[n - 1]])
        assert b.pairing_product(pairs[:n]) == want
    assert want == b.gt() ** (sum(x * y for x, y in zip(a, c)) % b.order)
    for k in (1, 4, 8):  # the first k pairs held as Miller values, the identity on either side among them
        assert b.pairing_product(pairs[k:], [b.miller_value(x, y) for x, y in pairs[:k]]) == want


def test_pairing_check_needs_g1_g2_pairs():
    b = MockBackend()
    for call in (b.pairing_check, b.pairing_product):
        with pytest.raises(AlgebraError):
            call([(b.g1(), b.g2()), (b.g2(), b.g1())])
    with pytest.raises(AlgebraError):
        b.pairing_product([(b.g2(), b.g2())])


@pytest.mark.parametrize("backend", [MockBackend(), RealBackend()], ids=["mock", "bn254"])
def test_product_matches_pairwise_fold(backend):
    b = backend
    for group in ("G1", "G2", "GT"):
        x, y, z = (getattr(b, group.lower())() ** k for k in (5, 9, 11))
        cases = [
            [x],
            [x, y, ~y, x, x, y],  # through the identity, then equal to the partial sum
            [x, x, x],  # a doubling
            [x, y, x, y],  # a doubling one level up, where bn254 adds G2 elements pairwise
            [x, y, ~(x * y)],  # ends at the identity
            [b.identity(group), x, y, x * y, z, ~z, y],
        ]
        for elems in cases:
            want = elems[0]
            for e in elems[1:]:
                want = want * e
            assert b.product(elems) == want
        assert b.product([x, ~x]).is_identity()
    with pytest.raises(AlgebraError):
        b.product([b.g1(), b.g2()])


@pytest.mark.parametrize("backend", [MockBackend(), RealBackend()], ids=["mock", "bn254"])
def test_add_all_matches_op_one_pair_at_a_time(backend):
    # the one group-law hook of a backend, over pairs gen^a * gen^c in one call: the identity
    # on either side, equal pairs and opposite pairs
    b = backend
    cases = [(5, 9), (5, 5), (5, -5), (0, 9), (5, 0), (0, 0), (9, 5), (-9, -9), (7, 11)]
    for group in ("G1", "G2", "GT"):
        gen = getattr(b, group.lower())()
        pairs = [((gen**a).value, (gen**c).value) for a, c in cases]
        got = b.add_all(group, pairs)
        assert got == [b.op(group, x, y) for x, y in pairs]
        assert got == [(gen ** (a + c)).value for a, c in cases]
        assert b.add_all(group, []) == []


def test_real_gt_decode_rejects_non_subgroup_values():
    from nomsig import bn254

    b = RealBackend()
    rng = random.Random(19)

    def encode(v):
        return b.serialize("GT", v)

    f = tuple((rng.randrange(bn254.P), rng.randrange(bn254.P)) for _ in range(6))
    assert not bn254.f12_is_cyclotomic(f)
    with pytest.raises(NotInSubgroup):
        b.element("GT", encode(f))
    # cyclotomic, but of an order dividing (p^4 - p^2 + 1) / N rather than N
    g = f12_pow(bn254.easy_part(f), N)
    assert bn254.f12_is_cyclotomic(g) and g != bn254.F12_ONE
    with pytest.raises(NotInSubgroup):
        b.element("GT", encode(g))
    e = b.gt() ** 12345
    assert b.element("GT", e.to_bytes()) == e
    assert b.element("GT", encode(bn254.F12_ONE)).is_identity()


def test_gt_membership_by_frobenius_agrees_with_the_order_check():
    # p - N = 6u^2, so a nonzero a has a^p = a^(6u^2) exactly when a^N = 1: the decoder accepts just
    # what a^N = 1 accepts, on GT elements, on 1, on cyclotomic values outside GT and on raw values
    assert bn254.P - N == 6 * bn254.U**2
    b, rng = RealBackend(), random.Random(23)
    raw = [tuple((rng.randrange(bn254.P), rng.randrange(bn254.P)) for _ in range(6)) for _ in range(3)]
    cyclotomic = [bn254.easy_part(f) for f in raw]
    assert all(map(bn254.f12_is_cyclotomic, cyclotomic))
    members = [bn254.F12_ONE, *((b.gt() ** rng.randrange(1, N)).value for _ in range(3))]
    verdicts = []
    for v in members + cyclotomic + raw:
        try:
            verdicts.append(b.element("GT", b.serialize("GT", v)).value == v)
        except NotInSubgroup:
            verdicts.append(False)
    assert verdicts == [f12_pow(v, N) == bn254.F12_ONE for v in members + cyclotomic + raw]
    assert verdicts == [True] * len(members) + [False] * (len(cyclotomic) + len(raw))


# Edge scalars for multi_exp: each is reduced mod N, so -3 is N - 3 and 2^300 wraps.
EDGE_SCALARS = [0, 1, N - 1, N, N + 5, -3, 2**300]


def _separate_powers(b, terms):
    """prod x^k over the terms, by separate ``**`` powers and products."""
    out = b.identity(terms[0][0].group)
    for x, k in terms:
        out = out * x**k
    return out


@pytest.mark.parametrize("group", ["G1", "G2", "GT"])
@pytest.mark.parametrize("backend", [MockBackend(), RealBackend()], ids=["mock", "bn254"])
def test_multi_exp_matches_separate_powers(backend, group):
    b = backend
    rng = random.Random(23)
    gen = getattr(b, group.lower())()
    x, y = gen**5, gen ** rng.randrange(N)
    bases = [x, y, gen, gen**9]
    # every edge scalar, on products of 1 to 4 terms, at every position
    for i, k in enumerate(EDGE_SCALARS):
        n = 1 + i % 4
        terms = [(base, k if j == i % n else rng.randrange(N)) for j, base in enumerate(bases[:n])]
        assert b.multi_exp(terms) == _separate_powers(b, terms)
    k = rng.randrange(N)
    assert b.multi_exp([(x, k), (y, 7), (x, N - 2)]) == _separate_powers(b, [(x, k), (y, 7), (x, N - 2)])
    assert b.multi_exp([(x, k), (~x, k)]).is_identity()
    assert b.multi_exp([(y, k), (~y, k), (x, 1)]) == x
    assert b.multi_exp([(b.identity(group), k), (y, 3)]) == y**3
    assert b.multi_exp([(b.identity(group), k)]).is_identity()
    with pytest.raises(AlgebraError):
        b.multi_exp([(b.g1(), 1), (b.g2(), 1)])


@pytest.mark.parametrize("group", ["G1", "G2", "GT"])
@pytest.mark.parametrize("backend", [MockBackend(), RealBackend()], ids=["mock", "bn254"])
def test_base_powers_match_generator_powers(backend, group):
    b = backend
    gen = getattr(b, group.lower())()
    ks = [*EDGE_SCALARS, 0, 2**32, random.Random(29).randrange(N)]
    got = b.base_powers(gen, ks)
    assert got == [gen**k for k in ks]
    assert all(x.group == group for x in got) and got[0].is_identity() and got[1] == gen
    assert b.base_powers(gen, []) == []


@settings(max_examples=12, deadline=None, derandomize=True)
@given(group=st.sampled_from(["G1", "G2", "GT"]),
       terms=st.lists(st.tuples(st.integers(0, 2**256), st.integers(-2**300, 2**300)), min_size=1, max_size=4))
def test_multi_exp_follows_the_mock_exponents(group, terms):
    # the bases are known powers of the generator, so the mock backend gives the product's exponent
    real, mock = RealBackend(), MockBackend()
    gen, mock_gen = getattr(real, group.lower())(), getattr(mock, group.lower())()
    got = real.multi_exp([(gen**a, k) for a, k in terms])
    assert got == gen ** mock.multi_exp([(mock_gen**a, k) for a, k in terms]).value


# ---------------------------------------------------------------------------
# Comb tables of held elements
# ---------------------------------------------------------------------------

# the ends of a 16-bit piece and of the low table (bits 0-127), the top bit and every reduction mod N
COMB_EDGES = [0, 1, N - 1, N, N + 1, -1, 2**256 - 1, 2**16 - 1, 2**16, 2**128 - 1, 2**128, 2**255]


def _plain(b, terms):
    """The value of prod x^k by the split ladder alone, ``curve.multi_mul`` over the group's record in ``bn254``."""
    return curve.multi_mul(getattr(bn254, terms[0][0].group), [(x.value, k % N) for x, k in terms])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(group=st.sampled_from(["G1", "G2", "GT"]),
       terms=st.lists(st.tuples(st.sampled_from([0, 1]) | st.integers(0, N - 1),
                                st.sampled_from(COMB_EDGES) | st.integers(-2**300, 2**300),
                                st.booleans()), min_size=1, max_size=4),
       again=st.none() | st.sampled_from(COMB_EDGES) | st.integers(0, N - 1))
def test_comb_products_follow_the_mock_exponents(group, terms, again):
    # term (a, k, comb): gen^a to the k, by gen^a's comb table where comb is set (none for
    # the identity, a = 0); ``again`` lists the first element a second time
    real, mock = RealBackend(), MockBackend()
    gen, mock_gen = getattr(real, group.lower())(), getattr(mock, group.lower())()
    elems = [gen**a for a, _, _ in terms]
    for x, (_, _, comb) in zip(elems, terms):
        if comb:
            real.comb_of(x, now=True)
    pairs = [(x, k) for x, (_, k, _) in zip(elems, terms)]
    exps = [(a, k) for a, k, _ in terms]
    if again is not None:
        pairs.append((elems[0], again))
        exps.append((terms[0][0], again))
    got = real.multi_exp(pairs)
    assert got == getattr(real, group.lower())() ** mock.multi_exp([(mock_gen**a, k) for a, k in exps]).value
    assert got.value == _plain(real, pairs)


@pytest.mark.parametrize("group", ["G1", "G2", "GT"])
def test_comb_products_at_the_edge_scalars(group):
    # comb alone, comb beside a split term (GLV on G1, GLS on G2) on either side, one element
    # twice, and beside the identity; the split terms' elements are new each time, so they keep none
    b = RealBackend()
    draws = random.Random(31)
    xv, yv = (getattr(b, group.lower())() ** draws.randrange(N)).value, getattr(b, group.lower())().value
    x = GroupElem(b, group, xv)
    assert isinstance(b.comb_of(x, now=True), list)
    for k in COMB_EDGES:
        for other in (None, 1, 7, N - 1, 2**256 - 1):
            y = GroupElem(b, group, yv)
            shapes = [[(x, k)]] if other is None else [
                [(x, k), (y, other)], [(y, other), (x, k)], [(x, k), (x, other)], [(x, k), (b.identity(group), other)]]
            for terms in shapes:
                assert b.multi_exp(terms).value == _plain(b, terms), (k, other)
                assert isinstance(y.comb, int)


@pytest.mark.parametrize("group", ["G1", "G2", "GT"])
def test_comb_table_is_written_once_at_the_nth_use(group, monkeypatch):
    b = RealBackend()
    build, builds = curve.comb_table, []
    monkeypatch.setattr(curve, "comb_table", lambda g, pt: builds.append(pt) or build(g, pt))
    x = getattr(b, group.lower())() ** 987654321
    for uses in range(1, COMB_USES):
        y = getattr(b, group.lower())() ** uses  # new, so it stays below the count
        assert (x**uses if uses % 2 else b.multi_exp([(x, uses), (y, 3)])) is not None
        assert x.comb == uses and builds == []
    got = x**11
    assert builds == [x.value] and isinstance(x.comb, list) and [len(t) for t in x.comb] == [256, 256]
    table = x.comb
    for k in (2, N - 1, 2**256 - 1):
        b.multi_exp([(x, k), (x, k + 1)])
    assert x.comb is table and len(builds) == 1
    assert got == getattr(b, group.lower())() ** (987654321 * 11)
    with pytest.raises(AttributeError):
        x.comb = None


@pytest.mark.parametrize("group", ["G1", "G2", "GT"])
def test_the_identity_keeps_no_comb(group):
    b = RealBackend()
    gen = getattr(b, group.lower())()
    one = b.identity(group)
    for k in range(COMB_USES + 1):
        assert b.multi_exp([(one, k + 5), (gen, 3)]) == gen**3
    assert b.comb_of(one, now=True) is None and one.comb == 0


@pytest.mark.parametrize("group", ["G1", "G2"])
@pytest.mark.parametrize("combs, splits", [(2, 0), (1, 1), (2, 2)])
def test_a_product_with_comb_terms_is_one_split_table_and_one_ladder(group, combs, splits, monkeypatch):
    # comb terms are terms of split_table: each nonzero step of the one ladder makes one mixed
    # addition, however many comb terms the product has
    b = RealBackend()
    draws = random.Random(29 + 3 * combs + splits)
    gen = getattr(b, group.lower())()
    terms = [(gen ** draws.randrange(1, N), draws.randrange(N)) for _ in range(combs + splits)]
    for x, _ in terms[:combs]:
        b.comb_of(x, now=True)
    want = b.multi_exp(terms)
    record, ladder, split_table = RealBackend.groups[group], curve.ladder, curve.split_table
    adds, walks, tables = [], [], []
    monkeypatch.setitem(RealBackend.groups, group, record._replace(add=lambda q, a: adds.append(1) or record.add(q, a)))
    monkeypatch.setattr(curve, "split_table", lambda *args: tables.append(1) or split_table(*args))

    def walk(acc, steps, *args):
        steps = list(steps)
        walks.append(sum(1 for s in steps if s))
        return ladder(acc, steps, *args)

    monkeypatch.setattr(curve, "ladder", walk)
    assert b.multi_exp(terms) == want
    assert len(tables) == len(walks) == 1 and 0 < len(adds) <= walks[0], (len(adds), walks)


@pytest.mark.parametrize("group", ["G1", "G2", "GT"])
def test_a_lone_comb_term_below_2_128_makes_no_column_sum(group, monkeypatch):
    # each column of a lone comb term selects one entry of each table it reads; below 2^128 it reads
    # only the low table, so no column takes a sum and the group adder is never called
    b = RealBackend()
    x = getattr(b, group.lower())() ** 987654321
    b.comb_of(x, now=True)
    record, calls = RealBackend.groups[group], []
    monkeypatch.setitem(RealBackend.groups, group,
                        record._replace(add_all=lambda pairs: calls.append(len(pairs)) or record.add_all(pairs)))
    for k in (1, 2**16 - 1, 2**16, 2**128 - 1, 2**128, random.Random(34).randrange(2**128)):
        calls.clear()
        got = b.multi_exp([(x, k)])
        assert calls == [], (k, calls)
        assert got.value == _plain(b, [(x, k)])
    # one column selects both tables' entry 1: one sum of one pair
    calls.clear()
    b.multi_exp([(x, 2**128 + 1)])
    assert calls == [1]


CODEC_REFUSALS = [
    ("G1", lambda: bytes(31), MalformedEncoding, "G1: expected 32 bytes, got 31"),
    ("G1", lambda: bytes(64), MalformedEncoding, "G1: expected 32 bytes, got 64"),
    ("G2", lambda: bytes(32), MalformedEncoding, "G2: expected 64 bytes, got 32"),
    ("G2", lambda: bytes(65), MalformedEncoding, "G2: expected 64 bytes, got 65"),
    ("G1", lambda: bytes([0xC0]) + bytes(31), MalformedEncoding, "G1: bad infinity encoding"),
    ("G2", lambda: bytes([0xC0]) + bytes(63), MalformedEncoding, "G2: bad infinity encoding"),
    ("G1", lambda: bytes([0x40]) + bytes(30) + b"\x01", MalformedEncoding, "G1: bad infinity encoding"),
    ("G2", lambda: bytes([0x41]) + bytes(63), MalformedEncoding, "G2: bad infinity encoding"),
    ("G1", lambda: bn254.P.to_bytes(32, "big"), MalformedEncoding, "G1: x out of range"),
    ("G2", lambda: bytes(32) + bn254.P.to_bytes(32, "big"), MalformedEncoding, "G2: x out of range"),  # c0 = p
    ("G2", lambda: bn254.P.to_bytes(32, "big") + bytes(32), MalformedEncoding, "G2: x out of range"),  # c1 = p
    ("G1", lambda: off_curve_x("G1"), NotOnCurve, "G1: x not on curve"),
    ("G2", lambda: off_curve_x("G2"), NotOnCurve, "G2: x not on curve"),
    ("GT", lambda: bytes(383), MalformedEncoding, "GT: expected 384 bytes"),
    ("GT", lambda: bytes(352) + bn254.P.to_bytes(32, "big"), MalformedEncoding, "GT: coefficient out of range"),
    ("GT", lambda: bytes(384), NotInSubgroup, "GT: not in the order-n subgroup"),
]


@pytest.mark.parametrize("group, data, error, message", CODEC_REFUSALS,
                         ids=[f"{g}-{m}-{i}" for i, (g, _, _, m) in enumerate(CODEC_REFUSALS)])
def test_real_codec_refusals_and_their_messages(group, data, error, message):
    with pytest.raises(AlgebraError) as info:
        RealBackend().deserialize(group, data())
    assert type(info.value) is error and str(info.value) == message


def _w(*ints) -> bytes:
    return b"".join(k.to_bytes(32, "big") for k in ints)


# The EIP-197 word codec: G1 (x, y), G2 (x_im, x_re, y_im, y_re), infinity all zeros.
WORD_REFUSALS = [
    ("G1", lambda: bytes(32), MalformedEncoding, "G1: expected 64 bytes, got 32"),
    ("G1", lambda: bytes(65), MalformedEncoding, "G1: expected 64 bytes, got 65"),
    ("G2", lambda: bytes(64), MalformedEncoding, "G2: expected 128 bytes, got 64"),
    ("G2", lambda: bytes(127), MalformedEncoding, "G2: expected 128 bytes, got 127"),
    ("G1", lambda: _w(bn254.P, 2), MalformedEncoding, "G1: coordinate out of range"),
    ("G1", lambda: _w(1, 2 + bn254.P), MalformedEncoding, "G1: coordinate out of range"),
    ("G2", lambda: _w(0, 0, 2**256 - 1, 0), MalformedEncoding, "G2: coordinate out of range"),
    ("G2", lambda: _w(0, 0, 0, bn254.P), MalformedEncoding, "G2: coordinate out of range"),
    ("G1", lambda: _w(1, 3), NotOnCurve, "G1: point not on curve"),  # x of a point, another y
    ("G1", lambda: _w(0, 1), NotOnCurve, "G1: point not on curve"),  # a zero x is no infinity
    ("G1", lambda: _w(2**200, 0), NotOnCurve, "G1: point not on curve"),
    ("G2", lambda: point_words("G2", bn254.G2_GEN)[:96] + _w(bn254.G2_GEN[1][0] + 1), NotOnCurve,
     "G2: point not on curve"),
    ("G2", lambda: _w(0, 0, 0, 1), NotOnCurve, "G2: point not on curve"),
    ("G2", lambda: off_curve_x("G2") + _w(0, 1), NotOnCurve, "G2: point not on curve"),
]


@pytest.mark.parametrize("group, data, error, message", WORD_REFUSALS,
                         ids=[f"{g}-{m}-{i}" for i, (g, _, _, m) in enumerate(WORD_REFUSALS)])
def test_real_word_codec_refusals_and_their_messages(group, data, error, message):
    with pytest.raises(AlgebraError) as info:
        RealBackend().deserialize(group, data(), compressed=False)
    assert type(info.value) is error and str(info.value) == message


def test_point_words_follow_the_eip197_layout():
    (x_re, x_im), (y_re, y_im) = bn254.G2_GEN
    assert point_words("G1", bn254.G1_GEN) == _w(1, 2)
    assert point_words("G2", bn254.G2_GEN) == _w(x_im, x_re, y_im, y_re)
    assert point_words("G1", None) == bytes(64) and point_words("G2", None) == bytes(128)
    assert words_point("G1", bytes(64)) is None and words_point("G2", bytes(128)) is None
    b = RealBackend()
    assert b.serialize("G2", bn254.G2_GEN, compressed=False) == point_words("G2", bn254.G2_GEN)
    assert b.serialize("GT", b.gt().value, compressed=False) == b.gt().to_bytes()  # one GT encoding


@pytest.mark.parametrize("group", ["G1", "G2"])
def test_real_codec_sign_bit_round_trips(group):
    # the sign bit is set for the larger y: y > (p-1)/2 on G1, and on G2 the test of y's c1, or of c0 where c1 = 0
    b = RealBackend()
    pt = b.g1() if group == "G1" else b.g2()
    seen = set()
    for el in (pt**5, ~pt**5):
        y = el.value[1]
        lead = y if group == "G1" else (y[1] or y[0])
        high = lead > (bn254.P - 1) // 2
        data = el.to_bytes()
        assert bool(data[0] & 0x80) == high and not data[0] & 0x40
        assert b.deserialize(group, data) == el.value
        seen.add(high)
    assert seen == {True, False}


@pytest.mark.parametrize("bad", [(), ((0, 0),), ((2, 100),), ((3, 1),), ((0, 200), (2, 5)), ((2, 5), (3, 0))],
                         ids=["none", "first", "middle", "last", "first-and-middle", "middle-and-last"])
def test_first_outside_g2_finds_the_first_bad_group(real_pipeline, bad, monkeypatch):
    # the two keys' Waters bases, an empty list and the keys' other G2 points, put on the twist from
    # compressed points or words, with points of order 10069 at (list, index): one batch over all, then
    # the lists before the last in order, up to the first that fails
    b, p = real_pipeline.par.backend, real_pipeline
    batches, all_in = [], bn254.g2_all_in_subgroup
    monkeypatch.setattr(bn254, "g2_all_in_subgroup", lambda pts: batches.append(len(pts)) or all_in(pts))
    for compressed in (True, False):
        datas = [[b.serialize("G2", e.value, compressed) for e in g]
                 for g in (p.pk_s.u, (), p.pk_n.uPrime, (p.pk_s.hS, p.pk_n.hN, p.pk_n.k, p.pk_n.x1, p.pk_n.x2))]
        for g, i in bad:
            datas[g][i] = b.serialize("G2", torsion_point(random.Random(10069), 10069), compressed)
        batches.clear()
        first = min((g for g, _ in bad), default=None)
        assert b.first_outside_g2([[b.point("G2", d, compressed) for d in g] for g in datas]) == first
        assert batches == {None: [519], 0: [519, 257], 2: [519, 257, 257], 3: [519, 257, 257]}[first], batches


def test_a_failed_batch_names_the_last_group_with_no_test_of_its_own(real_pipeline, monkeypatch):
    # a failed batch proves some point is outside G2: with the whole batch made to fail and the first
    # list passing, the second, the last non-empty one, is named untested; likewise when the first
    # list's own batch is made to pass wrongly over its order-10069 point
    b, p = real_pipeline.par.backend, real_pipeline
    values = [[u.value for u in p.pk_s.u], [u.value for u in p.pk_n.uPrime], []]
    calls, all_in = [], bn254.g2_all_in_subgroup
    monkeypatch.setattr(bn254, "g2_all_in_subgroup", lambda pts: calls.append(len(pts)) or len(calls) > 1)
    assert b.first_outside_g2(values) == 1 and calls == [514, 257]
    values[0][10] = torsion_point(random.Random(10069), 10069)
    calls.clear()
    assert b.first_outside_g2(values) == 1 and calls == [514, 257]
    monkeypatch.setattr(bn254, "g2_all_in_subgroup", all_in)
    assert b.first_outside_g2(values) == 0


def test_mock_point_checks_the_range_and_every_point_is_in_g2():
    b = MockBackend()
    for compressed in (True, False):  # one encoding of mock elements
        assert b.point("G2", b.serialize("G2", 5), compressed) == 5
        with pytest.raises(MalformedEncoding, match="exponent out of range"):
            b.point("G2", N.to_bytes(32, "big"), compressed)
    assert b.first_outside_g2([list(range(1, 9)), [], [9]]) is None
