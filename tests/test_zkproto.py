import dataclasses
import hashlib
import random

import pytest

from nomsig import bn254, scheme, zkproto
from nomsig.algebra import encode_parts
from nomsig.scheme import NomSignature, NomineeSecretKey, derive_values, waters_product
from nomsig.zkproto import (
    AbortBadOpening,
    ChallengeOpening,
    ProtocolError,
    Prover,
    Verifier,
    commit_challenge,
    derive_statement,
    pedersen_base,
    run_confirm,
    run_disavow,
)

from conftest import Pipeline, fresh
from oracles import extract_confirm_witness, gt_run, gt_values, holds_for, simulate_transcript


@pytest.fixture(scope="module")
def stmt(mock_pipeline):
    p = mock_pipeline
    return derive_statement(p.par, p.pk_s, p.pk_n, p.m, p.sigma)


@pytest.fixture(scope="module")
def bad_sigma_stmt(mock_pipeline):
    p = mock_pipeline
    bad = NomSignature(p.sigma.s1, p.sigma.s2, p.sigma.s3 * p.par.g2, p.sigma.s)
    return derive_statement(p.par, p.pk_s, p.pk_n, p.m, bad)


def test_statement_holds_for_witness(stmt, bad_sigma_stmt, mock_pipeline):
    sk = mock_pipeline.sk_n
    assert holds_for(stmt, sk.y1, sk.y2)
    assert not holds_for(bad_sigma_stmt, sk.y1, sk.y2)


@pytest.mark.parametrize("pipeline", ["mock_pipeline", "real_pipeline"])
def test_statement_d_is_e1_over_e2(request, pipeline):
    # d replaces the pair e1 = e(g1, s3), e2 = e(gS, hS) e(gN, hN) by their ratio, in the statement's form of it
    # (one pair and the key pair's K) and in the oracles' (one pair and both keys' held Miller values)
    p = request.getfixturevalue(pipeline)
    b = p.par.backend
    e1 = b.pairing_product([(p.par.g1, p.sigma.s3)])
    e2 = b.pairing_product([(p.pk_s.gS, p.pk_s.hS)]) * b.pairing_product([(p.pk_n.gN, p.pk_n.hN)])
    s = derive_statement(p.par, p.pk_s, p.pk_n, p.m, p.sigma)
    pairs, held = s.form("d")
    assert b.product([b.pairing_product(pairs), *held]) == gt_values(s)[0] == e1 / e2


def test_a_statement_makes_no_final_exponentiation_and_a_run_two_or_three(real_pipeline, monkeypatch):
    # confirm: the prover's t3 and the verifier's check; disavow: t3, C and the check; before the first
    # run that needs it, the key pair's K once
    p = real_pipeline
    pk_s, pk_n = fresh(p.pk_s), fresh(p.pk_n)
    calls = []
    final_exp = bn254.final_exp
    monkeypatch.setattr(bn254, "final_exp", lambda f: calls.append(f) or final_exp(f))
    s = derive_statement(p.par, pk_s, pk_n, p.m, p.sigma)
    bad = derive_statement(p.par, pk_s, pk_n, p.m, _tampered(p, "s3"))
    assert calls == []
    rng = random.Random(13)
    counts = []
    for run, statement in ((run_confirm, s), (run_confirm, s), (run_disavow, bad), (run_disavow, bad)):
        assert run(statement, p.sk_n, rng, rng)[0]
        counts.append(len(calls))
        calls.clear()
    assert counts == [2 + 1, 2, 3, 3]


def test_statement_computes_the_lines_of_fs_fn_once(real_pipeline, monkeypatch):
    # every row-3 value pairs F_S F_N, which the statement holds, so its 88 lines are computed once per
    # statement however many runs it serves
    p = real_pipeline
    batches = []
    g2_lines = bn254.g2_lines
    monkeypatch.setattr(bn254, "g2_lines", lambda qs: batches.append(qs) or g2_lines(qs))
    s = derive_statement(p.par, p.pk_s, p.pk_n, p.m, p.sigma)
    rng = random.Random(14)
    for run in (run_confirm, run_disavow, run_confirm):
        run(s, p.sk_n, rng, rng)
    fs_fn = waters_product(p.pk_s, p.pk_n, derive_values(p.par, p.pk_s, p.pk_n, p.m, p.sigma)).value
    assert [q for qs in batches for q in qs].count(fs_fn) == 1


def _tampered(p, kind):
    """sigma with one component moved, as the issue workload tampers it."""
    if kind == "s":
        return dataclasses.replace(p.sigma, s=(p.sigma.s + 1) % p.par.order)
    return dataclasses.replace(p.sigma, **{kind: getattr(p.sigma, kind) * (p.par.g2 if kind == "s3" else p.par.g1)})


def test_the_keys_k_values_keep_combs_by_the_second_issue_op(real_pipeline):
    # an issue op takes four products of powers of the pair's K: the confirm check, the disavow t3, C and check
    p = real_pipeline
    pk_s, pk_n, sk_s, sk_n = fresh(p.pk_s), fresh(p.pk_n), fresh(p.sk_s), fresh(p.sk_n)
    rng = random.Random(15)
    for op in range(2):
        m = b"issue op %d" % op
        sigma = scheme.receive(p.par, pk_s, pk_n, m, scheme.sign(p.par, pk_s, pk_n, m, sk_s, rng), sk_n, rng)
        assert run_confirm(derive_statement(p.par, pk_s, pk_n, m, sigma), sk_n, rng, rng)[0]
        bad = dataclasses.replace(sigma, s3=sigma.s3 * p.par.g2)
        assert run_disavow(derive_statement(p.par, pk_s, pk_n, m, bad), sk_n, rng, rng)[0]
        if op == 0:
            assert pk_n.pair_K(pk_s).comb == 4
    assert [len(t) for t in pk_n.pair_K(pk_s).comb] == [256, 256]


@pytest.mark.parametrize("pipeline", ["mock_pipeline", "real_pipeline"])
@pytest.mark.parametrize("kind", [None, "s1", "s2", "s3", "s"])
def test_runs_match_the_rows_over_gt_values(request, pipeline, kind):
    # every first message, response and verdict as the oracle computes them from d, e3 and e4 in GT:
    # confirm accepts and disavow rejects (C = 1) the honest sigma, and the other way round each tamper
    p = request.getfixturevalue(pipeline)
    s = derive_statement(p.par, p.pk_s, p.pk_n, p.m, p.sigma if kind is None else _tampered(p, kind))
    for protocol, run in (("confirm", run_confirm), ("disavow", run_disavow)):
        seed = f"{protocol}-{kind}"
        ok, tr = run(s, p.sk_n, random.Random(seed + "-prover"), random.Random(seed + "-verifier"))
        want = gt_run(protocol, s, p.sk_n, random.Random(seed + "-prover"), random.Random(seed + "-verifier"))
        assert tr == want
        assert ok is tr.verdict is ((kind is None) == (protocol == "confirm"))
        assert (tr.first.C is not None and tr.first.C.is_identity()) == (protocol == "disavow" and kind is None)


def test_confirm_completeness(stmt, mock_pipeline):
    rng = random.Random(1)
    for _ in range(10):
        ok, tr = run_confirm(stmt, mock_pipeline.sk_n, rng, rng)
        assert ok and tr.protocol == "confirm"


def test_confirm_rejects_invalid_sigma(bad_sigma_stmt, mock_pipeline):
    rng = random.Random(2)
    ok, _ = run_confirm(bad_sigma_stmt, mock_pipeline.sk_n, rng, rng)
    assert not ok


def test_disavow_completeness_on_invalid(bad_sigma_stmt, mock_pipeline):
    rng = random.Random(3)
    for _ in range(10):
        ok, _ = run_disavow(bad_sigma_stmt, mock_pipeline.sk_n, rng, rng)
        assert ok


def test_disavow_rejects_valid_sigma(stmt, mock_pipeline):
    # C collapses to the identity on a valid signature; the verifier refuses it
    rng = random.Random(4)
    ok, tr = run_disavow(stmt, mock_pipeline.sk_n, rng, rng)
    assert not ok
    assert tr.first.C.is_identity()


def test_wrong_witness_rejected(stmt, mock_pipeline):
    rng = random.Random(5)
    n = stmt.backend.order
    for _ in range(20):
        sk = mock_pipeline.sk_n
        fake = NomineeSecretKey(sk.alphaN, sk.vPrime, rng.randrange(1, n), rng.randrange(1, n))
        ok, _ = run_confirm(stmt, fake, rng, rng)
        assert not ok


def test_prover_aborts_on_bad_opening(stmt, mock_pipeline):
    rng = random.Random(6)
    verifier = Verifier("confirm", stmt, rng)
    prover = Prover("confirm", stmt, mock_pipeline.sk_n, rng)
    prover.first_message(verifier.commitment())
    good = verifier.opening()
    with pytest.raises(AbortBadOpening):
        prover.response(ChallengeOpening(good.c + 1, good.rho))


@pytest.mark.parametrize("prover_protocol, verifier_protocol", [("confirm", "disavow"), ("disavow", "confirm")])
def test_protocol_mismatch_rejects(stmt, bad_sigma_stmt, mock_pipeline, prover_protocol, verifier_protocol):
    # a confirm prover sends no C and no z3; a disavow prover answers another relation
    for s in (stmt, bad_sigma_stmt):
        rng = random.Random(12)
        verifier = Verifier(verifier_protocol, s, rng)
        prover = Prover(prover_protocol, s, mock_pipeline.sk_n, rng)
        first = prover.first_message(verifier.commitment())
        assert not verifier.verdict(first, prover.response(verifier.opening()))


def test_commitment_binding_to_base(stmt):
    b = stmt.backend
    rng = random.Random(7)
    c, rho = b.random_scalar(rng), b.random_scalar(rng)
    assert commit_challenge(stmt.g2ref, c, rho) == b.g2() ** c * pedersen_base(b) ** rho
    assert commit_challenge(stmt.g2ref, c, rho) != commit_challenge(stmt.g2ref, c + 1, rho)


def test_simulated_transcripts_verify(stmt, bad_sigma_stmt):
    rng = random.Random(8)
    for _ in range(20):
        assert simulate_transcript(stmt, "confirm", rng).verdict
        assert simulate_transcript(bad_sigma_stmt, "disavow", rng).verdict
    with pytest.raises(ProtocolError):
        simulate_transcript(stmt, "other", rng)


def test_special_soundness_extracts_witness(stmt, mock_pipeline):
    rng = random.Random(9)
    prover = Prover("confirm", stmt, mock_pipeline.sk_n, rng)
    b = stmt.backend
    c1, rho1 = b.random_scalar(rng), b.random_scalar(rng)
    c2, rho2 = b.random_scalar(rng), b.random_scalar(rng)
    # rewind: same first message answered under two different challenges
    first = prover.first_message(zkproto.ChallengeCommitment(commit_challenge(stmt.g2ref, c1, rho1)))
    resp1 = prover.response(ChallengeOpening(c1, rho1))
    prover._com = zkproto.ChallengeCommitment(commit_challenge(stmt.g2ref, c2, rho2))
    resp2 = prover.response(ChallengeOpening(c2, rho2))
    y1, y2 = extract_confirm_witness(stmt, first, c1, resp1, c2, resp2)
    assert (y1, y2) == (mock_pipeline.sk_n.y1, mock_pipeline.sk_n.y2)
    with pytest.raises(ProtocolError):
        extract_confirm_witness(stmt, first, c1, resp1, c1, resp1)


def test_statement_agrees_across_backends(real_pipeline):
    # real backend completeness, one run (pairing-heavy)
    p = real_pipeline
    s = derive_statement(p.par, p.pk_s, p.pk_n, p.m, p.sigma)
    assert holds_for(s, p.sk_n.y1, p.sk_n.y2)
    ok, _ = run_confirm(s, p.sk_n, random.Random(10), random.Random(11))
    assert ok


# sha256 over twelve bn254 transcripts per protocol on one statement each, as the split
# ladders alone compute them; from a base's 8th product on, the runs take it by its comb.
TRANSCRIPT_DIGESTS = {
    "confirm": "7807859e418bcbf64214839551bb9f8e9fd468d10393537dbec2052e07e7a8ff",
    "disavow": "96f914c9b94386492e526f3c2215730819d263260f1f810341c10dd1accadc40",
}
TRANSCRIPT_RUNS = 12


def _transcript_parts(tr):
    first, resp, opening = tr.first, tr.response, tr.opening
    elems = [tr.commitment.com, first.t1, first.t2, first.t3] + ([first.C] if first.C is not None else [])
    ints = [opening.c, opening.rho, resp.z1, resp.z2] + ([resp.z3] if resp.z3 is not None else [])
    return [e.to_bytes() for e in elems] + [k.to_bytes(32, "big") for k in ints] + [bytes([tr.verdict])]


@pytest.mark.parametrize("protocol", ["confirm", "disavow"])
def test_bn254_transcripts_match_pinned_digests(real_pipeline, protocol):
    p = real_pipeline
    sigma = p.sigma if protocol == "confirm" else NomSignature(p.sigma.s1, p.sigma.s2, p.sigma.s3 * p.par.g2, p.sigma.s)
    s = derive_statement(p.par, p.pk_s, p.pk_n, p.m, sigma)
    run = run_confirm if protocol == "confirm" else run_disavow
    h = hashlib.sha256()
    for i in range(TRANSCRIPT_RUNS):
        ok, tr = run(s, p.sk_n, random.Random(f"{protocol}-prover-{i}"), random.Random(f"{protocol}-verifier-{i}"))
        assert ok
        h.update(encode_parts(*_transcript_parts(tr)))
    assert h.hexdigest() == TRANSCRIPT_DIGESTS[protocol]
