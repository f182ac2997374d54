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
)
from nomsig.bn254 import N
from oracles import f12_pow


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
    e = b.pairing(b.g1() ** 6, b.g2() ** 9)
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
    separate = [b.pairing(x, y) for x, y in base]
    for n in range(1, 9):
        # close the first n - 1 pairs with a pair that cancels them, off by one for odd n
        s = sum(x * y for x, y in zip(a[: n - 1], c[: n - 1])) + n % 2
        closing = (g1 ** (-s % b.order), g2)
        prod = b.pairing(*closing)
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
        want = want * b.pairing(*pairs[n - 1])
        assert b.pairing_product(pairs[:n]) == want
    assert want == b.gt() ** (sum(x * y for x, y in zip(a, c)) % b.order)


def test_pairing_check_needs_g1_g2_pairs():
    b = MockBackend()
    for call in (b.pairing_check, b.pairing_product):
        with pytest.raises(AlgebraError):
            call([(b.g1(), b.g2()), (b.g2(), b.g1())])
    with pytest.raises(AlgebraError):
        b.pairing(b.g2(), b.g2())


@pytest.mark.parametrize("backend", [MockBackend(), RealBackend()], ids=["mock", "bn254"])
def test_product_matches_pairwise_fold(backend):
    b = backend
    for group in ("G1", "G2", "GT"):
        x = getattr(b, group.lower())() ** 5
        y = getattr(b, group.lower())() ** 9
        elems = [x, y, ~y, x, x, y]  # through the identity, then equal to the partial sum
        want = elems[0]
        for e in elems[1:]:
            want = want * e
        assert b.product(elems) == want
        assert b.product([x, ~x]).is_identity()
    with pytest.raises(AlgebraError):
        b.product([b.g1(), b.g2()])


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

COMB_EDGES = [0, 1, N - 1, N, N + 1, -1, 2**256 - 1]


def _plain(b, terms):
    """The value of prod x^k by the split ladders alone: ``glv_mul`` on G1, ``g2_mul_gls`` on G2."""
    values = [(x.value, k % N) for x, k in terms]
    return curve.glv_mul(bn254.G1_GLV, values) if terms[0][0].group == "G1" else bn254.g2_mul_gls(values)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(group=st.sampled_from(["G1", "G2"]),
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


@pytest.mark.parametrize("group", ["G1", "G2"])
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


@pytest.mark.parametrize("group", ["G1", "G2"])
def test_comb_table_is_written_once_at_the_nth_use(group, monkeypatch):
    b = RealBackend()
    module, name = (curve, "comb") if group == "G1" else (bn254, "g2_comb")
    build, builds = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args: builds.append(args[-1]) or build(*args))
    x = getattr(b, group.lower())() ** 987654321
    for uses in range(1, COMB_USES):
        y = getattr(b, group.lower())() ** uses  # new, so it stays below the count
        assert (x**uses if uses % 2 else b.multi_exp([(x, uses), (y, 3)])) is not None
        assert x.comb == uses and builds == []
    got = x**11
    assert builds == [x.value] and isinstance(x.comb, list) and len(x.comb) == 256
    table = x.comb
    for k in (2, N - 1, 2**256 - 1):
        b.multi_exp([(x, k), (x, k + 1)])
    assert x.comb is table and len(builds) == 1
    assert got == getattr(b, group.lower())() ** (987654321 * 11)
    with pytest.raises(AttributeError):
        x.comb = None
