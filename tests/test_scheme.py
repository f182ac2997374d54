import dataclasses
import hashlib
import random

import pytest

from nomsig import bn254, curve, scheme, zkproto
from nomsig.algebra import COMB_USES, ELL, MockBackend, RealBackend, encode_parts, hash_h1, bit
from nomsig.scheme import (
    DeltaMsg,
    LengthMismatch,
    NomSignature,
    VerificationToken,
    UnsupportedSecurityLevel,
    delta_checks,
    derive_values,
    waters_eval,
)

from conftest import Pipeline, fresh


def hw(data: bytes) -> int:
    return bin(int.from_bytes(data, "big")).count("1")


def test_setup_rejects_other_levels():
    with pytest.raises(UnsupportedSecurityLevel):
        scheme.setup(security=256, backend="mock")


def test_keygen_shapes(mock_pipeline):
    p = mock_pipeline
    assert len(p.pk_s.u) == ELL + 1
    assert len(p.pk_n.uPrime) == ELL + 1
    assert len(p.sk_n.vPrime) == ELL + 1
    # x1, x2 invert y1, y2 against g2
    assert p.pk_n.x1 ** p.sk_n.y1 == p.par.g2
    assert p.pk_n.x2 ** p.sk_n.y2 == p.par.g2


def test_honest_pipeline_accepts(mock_pipeline):
    ok, counts = mock_pipeline.verify()
    assert ok
    assert counts.pairing_pairs == 8


def test_addition_count_is_hamming_weight_based(mock_pipeline):
    p = mock_pipeline
    ok, counts = p.verify()
    assert ok
    d = derive_values(p.par, p.pk_s, p.pk_n, p.m, p.sigma)
    assert counts.ec_additions == hw(d.MS) + hw(d.MNbits) + 2
    # two recompute M_N, four apply the batching coefficients c1 and c2
    assert counts.scalar_mults == 6


def test_waters_eval_against_exponent_oracle():
    # mock backend: group ops are exponent arithmetic, checkable directly
    b = MockBackend()
    rng = random.Random(99)
    exps = [b.random_scalar(rng) for _ in range(257)]
    bases = tuple(b.g2() ** e for e in exps)
    mbits = rng.randbytes(32)
    want = exps[0] + sum(exps[i] for i in range(1, 257) if bit(mbits, i))
    assert waters_eval(bases, mbits) == b.g2() ** (want % b.order)


def test_waters_eval_length_checks(mock_pipeline):
    p = mock_pipeline
    with pytest.raises(LengthMismatch):
        waters_eval(p.pk_s.u[:-1], bytes(32))
    with pytest.raises(LengthMismatch):
        waters_eval(p.pk_s.u, bytes(31))


def test_tk_verify_equations_match_exponent_oracle(mock_pipeline):
    # independent verdict: recompute all three pairing equations in Z_n
    p = mock_pipeline
    n = p.par.order
    d = derive_values(p.par, p.pk_s, p.pk_n, p.m, p.sigma)
    fs = waters_eval(p.pk_s.u, d.MS).value
    fn = waters_eval(p.pk_n.uPrime, d.MNbits).value
    eq1 = p.sigma.s1.value * p.par.g2.value % n == p.tk.tk1.value * p.pk_n.x1.value % n
    eq2 = p.sigma.s2.value * p.par.g2.value % n == p.tk.tk2.value * p.pk_n.x2.value % n
    lhs = p.par.g1.value * p.sigma.s3.value % n
    rhs = (
        p.pk_s.gS.value * p.pk_s.hS.value
        + p.pk_n.gN.value * p.pk_n.hN.value
        + (p.tk.tk1.value + p.tk.tk2.value) * (fs + fn)
    ) % n
    assert eq1 and eq2 and lhs == rhs
    ok, _ = p.verify()
    assert ok


def test_tk_verify_coefficients_catch_cancelling_errors(mock_pipeline):
    # tk1 * g1^a and tk2 * g1^b with b = -a(x1 + F)/(x2 + F) in exponents: every
    # equation fails, but the errors cancel in the unweighted product of the pairs
    p = mock_pipeline
    b, n, g1, g2 = p.par.backend, p.par.order, p.par.g1, p.par.g2
    fs_fn = scheme.waters_product(p.pk_s, p.pk_n, derive_values(p.par, p.pk_s, p.pk_n, p.m, p.sigma))
    x1, x2, f = p.pk_n.x1.value, p.pk_n.x2.value, fs_fn.value
    a = 0x5EED
    e = -a * (x1 + f) * pow(x2 + f, -1, n) % n
    bad = VerificationToken(tk1=p.tk.tk1 * g1**a, tk2=p.tk.tk2 * g1**e)
    eqs = [
        [(p.sigma.s1, g2), (~bad.tk1, p.pk_n.x1)],
        [(p.sigma.s2, g2), (~bad.tk2, p.pk_n.x2)],
        [
            (g1, p.sigma.s3),
            (~p.pk_s.gS, p.pk_s.hS),
            (~p.pk_n.gN, p.pk_n.hN),
            (~(bad.tk1 * bad.tk2), fs_fn),
        ],
    ]
    assert not any(b.pairing_check(eq) for eq in eqs)
    assert b.pairing_check(eqs[0] + eqs[1] + eqs[2])
    ok, counts = scheme.tk_verify(p.par, p.pk_s, p.pk_n, p.m, p.sigma, bad)
    assert not ok and counts.pairing_pairs == 8


def test_tk_verify_coefficients_catch_token_errors_that_cancel_each_other(mock_pipeline):
    # tk1 * g1^a and tk2 * g1^b with a * x1 = -b * x2 in exponents, so E1 = E2^-1, and s3 * g2^((a + b) F),
    # which keeps the main equation: (1) and (2) fail, and their errors cancel under c1 = c2 = 1
    p = mock_pipeline
    b, n, g1, g2 = p.par.backend, p.par.order, p.par.g1, p.par.g2
    fs_fn = scheme.waters_product(p.pk_s, p.pk_n, derive_values(p.par, p.pk_s, p.pk_n, p.m, p.sigma))
    x1, x2 = p.pk_n.x1.value, p.pk_n.x2.value
    a = 0x5EED
    e = -a * x1 * pow(x2, -1, n) % n
    bad = VerificationToken(tk1=p.tk.tk1 * g1**a, tk2=p.tk.tk2 * g1**e)
    sigma = dataclasses.replace(p.sigma, s3=p.sigma.s3 * fs_fn ** (a + e))
    eq1 = [(sigma.s1, g2), (~bad.tk1, p.pk_n.x1)]
    eq2 = [(sigma.s2, g2), (~bad.tk2, p.pk_n.x2)]
    eq3 = [(g1, sigma.s3), (~p.pk_s.gS, p.pk_s.hS), (~p.pk_n.gN, p.pk_n.hN), (~(bad.tk1 * bad.tk2), fs_fn)]
    assert not b.pairing_check(eq1) and not b.pairing_check(eq2) and b.pairing_check(eq3)
    assert b.pairing_product(eq1) == ~b.pairing_product(eq2) and b.pairing_check(eq1 + eq2 + eq3)
    ok, counts = scheme.tk_verify(p.par, p.pk_s, p.pk_n, p.m, sigma, bad)
    assert not ok and counts.pairing_pairs == 8


def test_sigma_components_have_expected_exponents(mock_pipeline):
    # on the mock backend sigma_1 * y1 and sigma_2 * y2 must recombine to delta'_1
    p = mock_pipeline
    n = p.par.order
    combined = (p.sigma.s1.value * p.sk_n.y1 + p.sigma.s2.value * p.sk_n.y2) % n
    # e(g1, s3) identity implies combined equals the re-randomized r exponent;
    # check via the token equations instead of private delta randomness
    assert p.tk.tk1.value == p.sigma.s1.value * p.sk_n.y1 % n
    assert p.tk.tk2.value == p.sigma.s2.value * p.sk_n.y2 % n
    assert combined == (p.tk.tk1.value + p.tk.tk2.value) % n


def test_receive_rejects_wrong_message(mock_pipeline):
    p = mock_pipeline
    out = scheme.receive(
        p.par, p.pk_s, p.pk_n, p.m + b"x", p.delta, p.sk_n, random.Random(0)
    )
    assert out is None


def test_receive_rejects_mismatched_delta_exponents(mock_pipeline):
    p = mock_pipeline
    rng = random.Random(31)
    r1, r2 = rng.randrange(1, p.par.order), rng.randrange(1, p.par.order)
    assert r1 != r2
    fs = waters_eval(p.pk_s.u, hash_h1(b""))  # wrong F_S input does not matter here
    bad = DeltaMsg(
        d1=p.par.g1**r1,
        d2=p.par.g2**r2,  # inconsistent exponent
        d3=p.delta.d3,
    )
    waters_ok, consistent = delta_checks(p.par, p.pk_s, p.pk_n, p.m, bad)
    assert not consistent
    assert scheme.receive(p.par, p.pk_s, p.pk_n, p.m, bad, p.sk_n, rng) is None


def test_receive_rejects_wrong_signer_key(mock_pipeline):
    p = mock_pipeline
    rng = random.Random(77)
    _, other_sk = scheme.keygen_signer(p.par, rng)
    forged = scheme.sign(p.par, p.pk_s, p.pk_n, p.m, other_sk, rng)
    assert scheme.receive(p.par, p.pk_s, p.pk_n, p.m, forged, p.sk_n, rng) is None


def test_convert_rejects_tampered_sigma(mock_pipeline):
    p = mock_pipeline
    bad = NomSignature(p.sigma.s1, p.sigma.s2, p.sigma.s3, (p.sigma.s + 1) % p.par.order)
    assert scheme.convert(p.par, p.pk_s, p.pk_n, p.m, bad, p.sk_n) is None


def test_tk_verify_rejects_foreign_token(mock_pipeline):
    p = mock_pipeline
    q = Pipeline(seed=5151, backend="mock")
    ok, _ = scheme.tk_verify(p.par, p.pk_s, p.pk_n, p.m, p.sigma, q.tk)
    assert not ok


def test_signature_is_randomized(mock_pipeline):
    p = mock_pipeline
    other = scheme.receive(
        p.par, p.pk_s, p.pk_n, p.m, p.delta, p.sk_n, random.Random(123)
    )
    assert other is not None
    assert other != p.sigma  # re-randomization makes sigma unlinkable to delta


def test_real_backend_honest_pipeline(real_pipeline):
    ok, counts = real_pipeline.verify()
    assert ok
    assert counts.pairing_pairs == 8


@pytest.mark.parametrize("field", ["tk1", "tk2", "s3"])
def test_real_tk_verify_rejects_each_tampered_equation(real_pipeline, field):
    p = real_pipeline
    sigma, tk = p.sigma, p.tk
    if field == "s3":  # an error in the main equation alone, which takes the coefficient 1
        sigma = dataclasses.replace(sigma, s3=sigma.s3 * p.par.g2)
    else:
        tk = dataclasses.replace(tk, **{field: getattr(tk, field) * p.par.g1})
    ok, counts = scheme.tk_verify(p.par, p.pk_s, p.pk_n, p.m, sigma, tk)
    assert not ok and counts.pairing_pairs == 8


def test_waters_eval_real_matches_affine_fold():
    # the pairwise sum against the affine fold, through infinity and equal bases, by the fold
    # of the chosen bases and by a nibble table, whose first nibble's sums meet a + ~a and a + a
    b = RealBackend()
    g = b.g2()
    a = g**3
    # partial sums: a, infinity, a, 2a (a doubling), ...
    bases = [a, ~a, a, a, g**5, g**8] + [g ** (k + 20) for k in range(251)]
    held = tabled(bases)
    masks = [bytes([0b11111000, 0, 0xA5]) + bytes(29), b"\xff" * 32, random.Random(2021).randbytes(32)]
    assert bit(masks[0], 1) and bit(masks[0], 5) and not bit(masks[0], 6)
    for mbits in masks:
        want = bases[0]
        for i in range(1, 257):
            if bit(mbits, i):
                want = want * bases[i]
        for held_or_plain in (tuple(bases), held):
            assert waters_eval(held_or_plain, mbits) == want


def tabled(bases):
    """New WatersBases over bases that have built their nibble table."""
    held = scheme.WatersBases(bases)
    for _ in range(COMB_USES):
        held.nibble_table()
    assert isinstance(held.table, list) and len(held.table) == 64
    return held


def _bit_mask(*bits):
    """The 256-bit input with exactly the given bits set, 1-indexed, MSB of the first byte first."""
    return sum(1 << (256 - i) for i in bits).to_bytes(32, "big")


def test_nibble_table_matches_the_fold(real_pipeline):
    # all-zero, all-ones, each single bit at a nibble edge and random inputs, on both keys' bases
    draws = random.Random(2020)
    masks = [bytes(32), b"\xff" * 32, *(_bit_mask(i) for i in (1, 4, 5, 256))]
    masks += [draws.randbytes(32) for _ in range(4)]
    assert [bit(_bit_mask(5), i) for i in (4, 5, 6)] == [0, 1, 0]
    for bases in (real_pipeline.pk_s.u, real_pipeline.pk_n.uPrime):
        held = tabled(bases)
        for mbits in masks:
            assert waters_eval(held, mbits) == waters_eval(tuple(bases), mbits)


def test_keys_build_one_nibble_table_each_at_the_comb_count(real_pipeline, monkeypatch):
    # new key objects hold new bases: no table before their COMB_USES-th evaluation, then one
    # per key, kept for every later verification
    p = real_pipeline
    pk_s, pk_n = dataclasses.replace(p.pk_s), dataclasses.replace(p.pk_n)
    assert pk_s.u is not p.pk_s.u and pk_s.u.table == pk_n.uPrime.table == 0
    d = derive_values(p.par, p.pk_s, p.pk_n, p.m, p.sigma)
    built = []
    subset_sums = RealBackend.subset_sums
    monkeypatch.setattr(RealBackend, "subset_sums",
                        lambda self, group, groups: built.append(len(groups)) or subset_sums(self, group, groups))
    for i in range(1, COMB_USES + 3):
        ok, counts = scheme.tk_verify(p.par, pk_s, pk_n, p.m, p.sigma, p.tk)
        assert ok and counts.ec_additions == hw(d.MS) + hw(d.MNbits) + 2
        assert built == ([64, 64] if i >= COMB_USES else []), i
        assert isinstance(pk_s.u.table, list) is isinstance(pk_n.uPrime.table, list) is (i >= COMB_USES)


@pytest.mark.parametrize("keygen, powers", [(scheme.keygen_signer, 258), (scheme.keygen_nominee, 261)],
                         ids=["signer", "nominee"])
def test_keygen_takes_its_g2_powers_in_one_batch(keygen, powers, monkeypatch):
    # one base_powers call on the held g2, so one comb table; no G2 power of the key goes through g2_mul_base alone
    par = scheme.setup(backend="bn254")
    batches, singles = [], []
    base_powers, g2_mul_base = RealBackend.base_powers, bn254.g2_mul_base
    monkeypatch.setattr(RealBackend, "base_powers",
                        lambda self, base, ks: batches.append((base, len(ks))) or base_powers(self, base, ks))
    monkeypatch.setattr(bn254, "g2_mul_base", lambda k: singles.append(k) or g2_mul_base(k))
    keygen(par, random.Random(7))
    assert len(batches) == 1 and batches[0][0] is par.g2 and batches[0][1] == powers and singles == []


def _exponentiations(monkeypatch):
    """The group of each power the mock backend takes: one per term of a ``multi_exp``."""
    groups = []
    multi_exp = MockBackend.multi_exp
    monkeypatch.setattr(MockBackend, "multi_exp", lambda self, terms: groups.extend(
        x.group for x, _ in terms) or multi_exp(self, terms))
    return groups


def test_scalar_mult_tally_follows_the_exponentiations(mock_pipeline, monkeypatch):
    p = mock_pipeline
    groups = _exponentiations(monkeypatch)
    ok, counts = p.verify()
    assert ok and counts.scalar_mults == len(groups) == 6


def test_receive_makes_three_g1_and_eight_g2_exponentiations(mock_pipeline, monkeypatch):
    # the batched check's g2^c and d2^c, then s1 (two terms), s2, M_N (two terms) and s3 (three terms); and
    # on a secret key's first call the lone hN^alphaN it keeps
    p = mock_pipeline
    groups = _exponentiations(monkeypatch)
    sk_n = fresh(p.sk_n)
    for g2_powers in (8, 7):
        sigma = scheme.receive(p.par, p.pk_s, p.pk_n, p.m, p.delta, sk_n, random.Random(1))
        assert sigma is not None
        assert sorted(groups) == ["G1"] * 3 + ["G2"] * g2_powers
        groups.clear()


def _deltas(p):
    """(delta, its two verdicts): honest, bad in the Waters equation only, in the consistency only, in both.

    The last is bad in both with errors e(g1, g2) and e(g1, g2)^-1, which cancel in a product of the two
    checks without a coefficient.
    """
    d1, d2, d3 = p.delta.d1, p.delta.d2, p.delta.d3
    other_d2 = p.par.g2 ** random.Random(41).randrange(1, p.par.order)
    assert other_d2 != d2
    return [
        (p.delta, (True, True)),
        (DeltaMsg(d1, d2, d3 * p.par.g2), (False, True)),
        (DeltaMsg(d1, other_d2, d3), (True, False)),
        (DeltaMsg(d1, other_d2, d3 * p.par.g2), (False, False)),
        (DeltaMsg(d1, d2 * p.par.g2, d3 * p.par.g2), (False, False)),
    ]


@pytest.mark.parametrize("backend", ["mock", "bn254"])
def test_batched_delta_checks_give_both_verdicts(mock_pipeline, real_pipeline, backend):
    # each verdict is also the one of its own pairing check, as the two checks ran before they were batched
    p = mock_pipeline if backend == "mock" else real_pipeline
    check = p.par.backend.pairing_check
    fs = waters_eval(p.pk_s.u, scheme._ms_bits(p.pk_n, p.m))
    for delta, verdicts in _deltas(p):
        apart = (check([(~delta.d1, fs), (p.par.g1, delta.d3)], [p.pk_s.miller]),
                 check([(delta.d1, p.par.g2), (~p.par.g1, delta.d2)]))
        assert delta_checks(p.par, p.pk_s, p.pk_n, p.m, delta) == apart == verdicts
        assert (scheme.receive(p.par, p.pk_s, p.pk_n, p.m, delta, p.sk_n, random.Random(2)) is None) == (
            verdicts != (True, True))


def test_delta_checks_take_one_final_exponentiation_on_accept(real_pipeline, monkeypatch):
    # the batch alone on accept; on reject the batch, then the Waters and the consistency check apart
    p = real_pipeline
    calls = []
    final_exp = bn254.final_exp
    monkeypatch.setattr(bn254, "final_exp", lambda f: calls.append(f) or final_exp(f))
    for delta, verdicts in _deltas(p):
        calls.clear()
        assert delta_checks(p.par, p.pk_s, p.pk_n, p.m, delta) == verdicts
        assert len(calls) == (1 if verdicts == (True, True) else 3)
    batches, evaluated = [], []
    g2_lines, miller_eval = bn254.g2_lines, bn254.miller_eval
    monkeypatch.setattr(bn254, "g2_lines", lambda qs: batches.append(len(qs)) or g2_lines(qs))
    monkeypatch.setattr(bn254, "miller_eval", lambda pairs: evaluated.append(len(pairs)) or miller_eval(pairs))
    calls.clear()
    assert delta_checks(p.par, p.pk_s, p.pk_n, p.m, fresh(p.delta)) == (True, True)
    # two Miller pairs, (d1, F_S^-1 g2^c) and (g1, d3 d2^-c), whose G2 sides are walked in one batch
    assert len(calls) == 1 and batches == [2] and evaluated == [2]


def test_second_tk_verify_computes_only_the_new_lines(real_pipeline, monkeypatch):
    # the first call computes the lines of hS and of hN once each, for the keys' held Miller values, then
    # one batch for its 5 distinct G2 values (g2, x1, x2, s3, F_S * F_N); the second walks F_S * F_N alone
    p = real_pipeline
    par, pk_s, pk_n, sigma = fresh(p.par), fresh(p.pk_s), fresh(p.pk_n), fresh(p.sigma)
    batches, steps = [], []
    g2_lines, tangent, chord = bn254.g2_lines, bn254._tangent_step, bn254._chord_step
    monkeypatch.setattr(bn254, "g2_lines", lambda qs: batches.append(qs) or g2_lines(qs))
    monkeypatch.setattr(bn254, "_tangent_step", lambda t: steps.append(t) or tangent(t))
    monkeypatch.setattr(bn254, "_chord_step", lambda t, q: steps.append(t) or chord(t, q))
    for sizes in ((1, 1, 5), (1,)):
        batches.clear()
        steps.clear()
        ok, counts = scheme.tk_verify(par, pk_s, pk_n, p.m, sigma, p.tk)
        assert ok and counts.pairing_pairs == 8
        assert [len(qs) for qs in batches] == list(sizes) and len(steps) == 88 * sum(sizes)
    fs_fn = scheme.waters_product(p.pk_s, p.pk_n, derive_values(p.par, p.pk_s, p.pk_n, p.m, p.sigma))
    assert batches == [[fs_fn.value]]


def test_tk_verify_computes_each_key_miller_value_once(mock_pipeline, monkeypatch):
    # two verifications on one key pair: one miller_value call per key, for (gS^-1, hS) and (gN^-1, hN)
    p = mock_pipeline
    pk_s, pk_n = dataclasses.replace(p.pk_s), dataclasses.replace(p.pk_n)
    calls = []
    miller_value = MockBackend.miller_value
    monkeypatch.setattr(MockBackend, "miller_value", lambda self, a, b: calls.append((a, b)) or miller_value(self, a, b))
    for _ in range(2):
        assert scheme.tk_verify(p.par, pk_s, pk_n, p.m, p.sigma, p.tk)[0]
    assert calls == [(~pk_s.gS, pk_s.hS), (~pk_n.gN, pk_n.hN)]


def test_tk_verify_serializes_each_public_key_once(mock_pipeline, monkeypatch):
    # two verifications on one key pair encode each key once: 2 + 257 parts for pk_S, 3 + 257 + 2 for pk_N
    p = mock_pipeline
    pk_s, pk_n = dataclasses.replace(p.pk_s), dataclasses.replace(p.pk_n)
    sizes = []
    encode_parts = scheme.encode_parts
    monkeypatch.setattr(scheme, "encode_parts", lambda *parts: sizes.append(len(parts)) or encode_parts(*parts))
    for _ in range(2):
        assert scheme.tk_verify(p.par, pk_s, pk_n, p.m, p.sigma, p.tk)[0]
    assert sizes.count(259) == sizes.count(262) == 1
    assert pk_s.to_bytes() == p.pk_s.to_bytes() and pk_n.to_bytes() == p.pk_n.to_bytes()


def _spy_comb_builds(monkeypatch):
    """The value of each element whose comb table gets built, G1, G2 or GT."""
    built, comb_table = [], curve.comb_table
    monkeypatch.setattr(curve, "comb_table", lambda g, pt: built.append(pt) or comb_table(g, pt))
    return built


def test_both_keygens_take_their_powers_from_one_comb_of_g2(monkeypatch):
    par = scheme.setup(backend="bn254")
    built = _spy_comb_builds(monkeypatch)
    scheme.keygen_signer(par, random.Random(3))
    scheme.keygen_nominee(par, random.Random(4))
    assert built == [par.g2.value] and isinstance(par.g2.comb, list)


def test_only_held_elements_get_a_comb(real_pipeline, monkeypatch):
    # sessions on one params and key set: the held elements that recur reach the count and keep a
    # comb, the key pair's K in GT among them; hS and hN, raised once per secret key, d2, F_S and sigma,
    # new in each session, never do
    p = real_pipeline
    par, pk_s, pk_n, sk_s, sk_n = fresh(p.par), fresh(p.pk_s), fresh(p.pk_n), fresh(p.sk_s), fresh(p.sk_n)
    built = _spy_comb_builds(monkeypatch)
    held = [par.g1, par.g2, pk_s.gS, pk_n.gN, pk_n.k, pk_n.x1, pk_n.x2, pk_n.pair_K(pk_s),
            zkproto.pedersen_base(par.backend)]
    rng = random.Random(77)
    per_op = []
    for i in range(COMB_USES + 1):
        m = b"session %d" % i
        delta = scheme.sign(par, pk_s, pk_n, m, sk_s, rng)
        sigma = scheme.receive(par, pk_s, pk_n, m, delta, sk_n, rng)
        assert sigma is not None and scheme.convert(par, pk_s, pk_n, m, sigma, sk_n) is not None
        stmt = zkproto.derive_statement(par, pk_s, pk_n, m, sigma)
        assert zkproto.run_confirm(stmt, sk_n, rng, rng)[0]
        per_op += [delta.d2, sigma.s1, sigma.s2, sigma.s3]
        assert all(isinstance(e.comb, int) for e in per_op[-4:])
        per_op.append(scheme.waters_eval(pk_s.u, scheme._ms_bits(pk_n, m)))
    assert all(isinstance(e.comb, list) for e in (par.g1, par.g2, pk_n.k, pk_n.x1, pk_n.x2, pk_n.pair_K(pk_s)))
    assert len(built) == len(set(built)) and set(built) <= {e.value for e in held}
    assert not {e.value for e in per_op + [pk_s.hS, pk_n.hN]} & set(built)


@pytest.mark.parametrize("backend", ["mock", "bn254"])
def test_the_pairs_k_is_the_product_of_its_two_one_pair_values(mock_pipeline, real_pipeline, backend):
    # one final exponentiation of both keys' held Miller values, where each key took its own
    p = mock_pipeline if backend == "mock" else real_pipeline
    b, pk_s, pk_n = p.par.backend, fresh(p.pk_s), fresh(p.pk_n)
    apart = b.pairing_product([], [pk_s.miller]) * b.pairing_product([], [pk_n.miller])
    one_pair = b.pairing_product([(~pk_s.gS, pk_s.hS)]) * b.pairing_product([(~pk_n.gN, pk_n.hN)])
    assert pk_n.pair_K(pk_s) == apart == one_pair


@pytest.mark.parametrize("backend", ["mock", "bn254"])
def test_the_pairs_k_is_kept_for_the_signer_key_object(mock_pipeline, real_pipeline, backend):
    # the same key objects give the same K object; another signer key object, even a copy, gives a new
    # one, and a copy of the nominee key or of a secret key holds nothing
    p = mock_pipeline if backend == "mock" else real_pipeline
    pk_s, pk_n = fresh(p.pk_s), fresh(p.pk_n)
    K = pk_n.pair_K(pk_s)
    assert pk_n.pair_K(pk_s) is K
    copy = fresh(pk_s)
    assert pk_n.pair_K(copy) is not K and pk_n.pair_K(copy) == K
    other = dataclasses.replace(pk_s, gS=pk_s.gS * p.par.g1)
    assert pk_n.pair_K(other) is pk_n.pair_K(other) != K
    assert pk_n.pair_K(pk_s) is not K and pk_n.pair_K(pk_s) == K
    sk_s, sk_n = fresh(p.sk_s), fresh(p.sk_n)
    assert sk_s.H(pk_s) is sk_s.h[1] and sk_n.H(pk_n) is sk_n.h[1]
    assert fresh(pk_n).pair is fresh(sk_s).h is fresh(sk_n).h is None


@pytest.mark.parametrize("backend", ["mock", "bn254"])
def test_d3_and_s3_equal_the_joint_products(mock_pipeline, real_pipeline, backend):
    # d3 = H_S F_S^r and s3 = d3 H_N (F_S^r' d2^expo g2^(r' expo)) are the points that one product of
    # powers with the terms (hS, alphaS) and (hN, alphaN) gives
    p = mock_pipeline if backend == "mock" else real_pipeline
    b, par, pk_s, pk_n = p.par.backend, p.par, p.pk_s, p.pk_n
    for seed in range(3):
        m = b"joint products %d" % seed
        fs = waters_eval(pk_s.u, scheme._ms_bits(pk_n, m))
        delta = scheme.sign(par, pk_s, pk_n, m, p.sk_s, random.Random(seed))
        r = b.random_scalar(random.Random(seed))
        assert delta.d3 == b.multi_exp([(pk_s.hS, p.sk_s.alphaS), (fs, r)])
        sigma = scheme.receive(par, pk_s, pk_n, m, delta, p.sk_n, random.Random(seed + 100))
        rng = random.Random(seed + 100)
        _, r_prime, s = (b.random_scalar(rng) for _ in range(3))
        mn_bits = derive_values(par, pk_s, pk_n, m, sigma).MNbits
        expo = p.sk_n.vPrime[0] + sum(p.sk_n.vPrime[i] for i in range(1, ELL + 1) if bit(mn_bits, i))
        assert sigma.s == s and sigma.s3 == delta.d3 * b.multi_exp(
            [(fs, r_prime), (pk_n.hN, p.sk_n.alphaN), (delta.d2, expo), (par.g2, r_prime * expo)])


@pytest.mark.parametrize("backend", [MockBackend, RealBackend], ids=["mock", "bn254"])
def test_each_secret_key_object_raises_its_h_once(mock_pipeline, real_pipeline, backend, monkeypatch):
    # sign and receive take H_S = hS^alphaS and H_N = hN^alphaN from the secret key, which raises each
    # once for its public key; a copy of the secret key raises it again
    p = mock_pipeline if backend is MockBackend else real_pipeline
    raised = []
    multi_exp = backend.multi_exp
    monkeypatch.setattr(backend, "multi_exp", lambda self, terms: raised.extend(
        x for x, _ in terms if x is p.pk_s.hS or x is p.pk_n.hN) or multi_exp(self, terms))
    keys = [(fresh(p.sk_s), fresh(p.sk_n)) for _ in range(2)]
    for i, (sk_s, sk_n) in enumerate(keys[:1] * 3 + keys[1:]):
        m = b"held h %d" % i
        delta = scheme.sign(p.par, p.pk_s, p.pk_n, m, sk_s, random.Random(1))
        assert scheme.receive(p.par, p.pk_s, p.pk_n, m, delta, sk_n, random.Random(2)) is not None
    assert len(raised) == 4 and all(x is y for x, y in zip(raised, [p.pk_s.hS, p.pk_n.hN] * 2))
    assert all(sk_s.H(p.pk_s) == p.pk_s.hS**sk_s.alphaS and sk_n.H(p.pk_n) == p.pk_n.hN**sk_n.alphaN
               for sk_s, sk_n in keys)


@pytest.mark.parametrize("backend", ["mock", "bn254"])
def test_each_tamper_fails_exactly_its_relations(mock_pipeline, real_pipeline, backend):
    # the trigger workload's pairing tampers of tk1, tk2 and s3: checked alone, equations (1), (2) and (3)
    # fail just where a tamper touches them, and the batch rejects each
    p = mock_pipeline if backend == "mock" else real_pipeline
    fs_fn = scheme.waters_product(p.pk_s, p.pk_n, derive_values(p.par, p.pk_s, p.pk_n, p.m, p.sigma))
    for sigma, tk, failing in [(p.sigma, p.tk, set()),
                               (p.sigma, dataclasses.replace(p.tk, tk1=p.tk.tk1 * p.par.g1), {1, 3}),
                               (p.sigma, dataclasses.replace(p.tk, tk2=p.tk.tk2 * p.par.g1), {2, 3}),
                               (dataclasses.replace(p.sigma, s3=p.sigma.s3 * p.par.g2), p.tk, {3})]:
        relations = {1: scheme._token(p.par, sigma.s1, tk.tk1, p.pk_n.x1),
                     2: scheme._token(p.par, sigma.s2, tk.tk2, p.pk_n.x2),
                     3: scheme._main(p.par, p.pk_s, p.pk_n, sigma.s3, tk.tk1 * tk.tk2, fs_fn)}
        assert {i for i, rel in relations.items() if not scheme._check(p.par, [rel])[0]} == failing
        assert scheme.tk_verify(p.par, p.pk_s, p.pk_n, p.m, sigma, tk)[0] == (not failing)


@pytest.mark.parametrize("backend", [MockBackend, RealBackend], ids=["mock", "bn254"])
def test_each_check_evaluates_its_pairs_and_held_values(mock_pipeline, real_pipeline, backend, monkeypatch):
    # tk_verify: 5 pairs (6 G1 against 5 G2 elements, grouped by G2) for its 8 priced ones and both keys'
    # held values; receive on accept: (C) and (W) in one batch, 2 pairs (2 G1 against 4 G2 elements,
    # grouped by G1) and the signer key's; convert: (3) alone, 2 pairs (a tie, grouped by G2) and both keys'
    p = mock_pipeline if backend is MockBackend else real_pipeline
    seen = []
    product = backend.pairing_product_values
    monkeypatch.setattr(backend, "pairing_product_values",
                        lambda self, pairs, held: seen.append((len(pairs), len(held))) or product(self, pairs, held))
    ok, counts = p.verify()
    assert ok and counts.pairing_pairs == 8 and counts.scalar_mults == 6
    sigma = scheme.receive(p.par, p.pk_s, p.pk_n, p.m, p.delta, p.sk_n, random.Random(3))
    assert sigma is not None and scheme.convert(p.par, p.pk_s, p.pk_n, p.m, sigma, p.sk_n) is not None
    assert seen == [(5, 2), (2, 1), (2, 2)]


def _grouping_cases(p):
    """(terms, the group whose elements key the pairs) for ``pairs_by_smaller_side``."""
    b = p.par.backend
    rng = random.Random(43)

    def k():  # neither 1 nor -1
        return rng.randrange(2, p.par.order - 1)

    a1, a2, a3 = (p.par.g1 ** k() for _ in range(3))
    b1, b2, b3 = (p.par.g2 ** k() for _ in range(3))
    o1, o2 = b.identity("G1"), b.identity("G2")
    return [
        # repeated G1 elements, 2 against 3, each beside an exponent -1 or 1
        ([(a1, k(), b1), (a1, -1, b2), (a2, 1, b3), (a2, k(), b1)], "G1"),
        # receive's batch: d1 and g1 against g2, d2, F_S and d3
        ([(a1, k(), p.par.g2), (p.par.g1, k(), b2), (a1, -1, b3), (p.par.g1, 1, b1)], "G1"),
        # repeated G2 elements, 3 against 2
        ([(a1, k(), b1), (a2, 1, b1), (a3, -1, b2), (a1, k(), b2)], "G2"),
        # a tie, 2 against 2, with lone exponents 1 and -1
        ([(a1, 1, b1), (a2, -1, b2)], "G2"),
        # a tie, 1 against 1, whose G1 side is the identity
        ([(a1, 1, b1), (a1, -1, b1)], "G2"),
        # the identity on either side, grouped by G1 and by G2
        ([(o1, k(), b1), (a1, 1, o2), (a1, k(), b2)], "G1"),
        ([(a1, k(), o2), (a2, -1, o2), (o1, 1, b1)], "G2"),
    ]


@pytest.mark.parametrize("backend", ["mock", "bn254"])
def test_pairs_by_smaller_side_match_one_pairing_per_term(mock_pipeline, real_pipeline, backend):
    # the pairs multiply to prod e(a, b)^k taken one term per pair, one pair per distinct element of the
    # side with strictly fewer (G2 on a tie); exponents +-1 take no power, and a lone exponent 1 keeps
    # the term's own element, so its lines or comb
    p = mock_pipeline if backend == "mock" else real_pipeline
    b = p.par.backend
    for terms, by in _grouping_cases(p):
        pairs, powers = scheme.pairs_by_smaller_side(b, terms)
        side = 0 if by == "G1" else 1
        assert [pair[side] for pair in pairs] == list(dict.fromkeys(t[2 * side] for t in terms)), terms
        assert powers == sum(k not in (1, -1) for _, k, _ in terms)
        assert b.pairing_product(pairs) == b.product([b.pairing_product([(a, x)]) ** k for a, k, x in terms])
        for pair in pairs:
            mine = [t for t in terms if t[2 * side] == pair[side]]
            if len(mine) == 1 and mine[0][1] == 1:
                assert pair[1 - side] is mine[0][2 - 2 * side]


@pytest.mark.parametrize("backend", ["mock", "bn254"])
def test_op_counts_are_the_priced_pairs_the_additions_and_the_powers(mock_pipeline, real_pipeline, backend):
    p = mock_pipeline if backend == "mock" else real_pipeline
    d = derive_values(p.par, p.pk_s, p.pk_n, p.m, p.sigma)
    ok, counts = p.verify()
    assert ok and dataclasses.astuple(counts) == (8, hw(d.MS) + hw(d.MNbits) + 2, 6)


def test_coefficients_raise_the_written_elements(mock_pipeline, monkeypatch):
    # c1 and c2 are the two halves of one SHA-256 digest under TK_BATCH_TAG, c those of DELTA_BATCH_TAG;
    # tk1^-c1 and d2^-c are tk1 and d2 raised to the 128-bit c1 and c, then inverted, not their inverses
    # raised; receive's terms group by G1, so its G2 side, g2 and d2, takes the coefficient
    p = mock_pipeline
    powers = []
    multi_exp = MockBackend.multi_exp
    monkeypatch.setattr(MockBackend, "multi_exp", lambda self, terms: powers.append(terms) or multi_exp(self, terms))

    def halves(tag, *parts):
        digest = hashlib.sha256(tag + encode_parts(*parts)).digest()
        return int.from_bytes(digest[:16], "big"), int.from_bytes(digest[16:], "big")

    sigma, tk = p.sigma, p.tk
    c1, c2 = halves(scheme.TK_BATCH_TAG, p.pk_s.to_bytes(), p.pk_n.to_bytes(), p.m, sigma.s1.to_bytes(),
                    sigma.s2.to_bytes(), sigma.s3.to_bytes(), sigma.s.to_bytes(32, "big"), tk.tk1.to_bytes(),
                    tk.tk2.to_bytes())
    assert p.verify()[0]
    assert powers[1:] == [[(sigma.s1, c1), (sigma.s2, c2)], [(tk.tk1, c1)], [(tk.tk2, c2)]]
    assert all(x is y for (x, _), y in zip(powers[1] + powers[2] + powers[3], (sigma.s1, sigma.s2, tk.tk1, tk.tk2)))
    powers.clear()
    d = p.delta
    c, _ = halves(scheme.DELTA_BATCH_TAG, p.pk_s.to_bytes(), p.pk_n.to_bytes(), p.m, d.d1.to_bytes(),
                  d.d2.to_bytes(), d.d3.to_bytes())
    assert delta_checks(p.par, p.pk_s, p.pk_n, p.m, d) == (True, True)
    assert powers == [[(p.par.g2, c)], [(d.d2, c)]] and powers[0][0][0] is p.par.g2 and powers[1][0][0] is d.d2


def test_repeated_tk_verify_gives_sigma_and_token_a_comb(real_pipeline):
    # tk1 and tk2 enter their powers as written, so like s1 and s2 they reach the comb count and keep a
    # table, as the trigger workload's reused (sigma, tk) triples do; an inverse made per call never would
    p = real_pipeline
    sigma, tk = fresh(p.sigma), fresh(p.tk)
    for _ in range(COMB_USES + 1):
        assert scheme.tk_verify(p.par, p.pk_s, p.pk_n, p.m, sigma, tk)[0]
    assert all(isinstance(e.comb, list) for e in (tk.tk1, tk.tk2, sigma.s1, sigma.s2))
