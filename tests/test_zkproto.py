import hashlib
import random

import pytest

from nomsig import bn254, zkproto
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

from conftest import Pipeline
from oracles import extract_confirm_witness, holds_for, simulate_transcript


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
    # d replaces the pair e1 = e(g1, s3), e2 = e(gS, hS) e(gN, hN) by their ratio
    p = request.getfixturevalue(pipeline)
    b = p.par.backend
    e1 = b.pairing(p.par.g1, p.sigma.s3)
    e2 = b.pairing(p.pk_s.gS, p.pk_s.hS) * b.pairing(p.pk_n.gN, p.pk_n.hN)
    assert derive_statement(p.par, p.pk_s, p.pk_n, p.m, p.sigma).d == e1 / e2


def test_statement_makes_three_final_exponentiations(real_pipeline, monkeypatch):
    p = real_pipeline
    calls = []
    final_exp = bn254.final_exp
    monkeypatch.setattr(bn254, "final_exp", lambda f: calls.append(f) or final_exp(f))
    derive_statement(p.par, p.pk_s, p.pk_n, p.m, p.sigma)
    assert len(calls) == 3


def test_statement_computes_the_lines_of_fs_fn_once(real_pipeline, monkeypatch):
    # e3 = e(s1, F_S F_N) and e4 = e(s2, F_S F_N) share one element, so its 88 lines are computed once
    p = real_pipeline
    batches = []
    g2_lines = bn254.g2_lines
    monkeypatch.setattr(bn254, "g2_lines", lambda qs: batches.append(qs) or g2_lines(qs))
    derive_statement(p.par, p.pk_s, p.pk_n, p.m, p.sigma)
    fs_fn = waters_product(p.pk_s, p.pk_n, derive_values(p.par, p.pk_s, p.pk_n, p.m, p.sigma)).value
    assert [q for qs in batches for q in qs].count(fs_fn) == 1


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
