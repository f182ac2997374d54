import json
import random

import pytest
from click.testing import CliRunner

from nomsig import contract as ct
from nomsig import envelopes, scheme, trigger
from nomsig.cli import main

from conftest import Pipeline


@pytest.fixture()
def world(mock_pipeline):
    p = mock_pipeline
    op = trigger.ecdsa_keygen(b"op")
    inv = trigger.ecdsa_keygen(b"inv")
    op_addr, inv_addr = trigger.address_of(op.vk), trigger.address_of(inv.vk)
    ledger = ct.WalletLedger({op_addr: 100, inv_addr: 1000})
    state = ct.deploy(p.m, op_addr, inv_addr, p.pk_s, p.pk_n, p.par, 50, 500)
    return p, state, ledger, op, inv, op_addr, inv_addr


def submission(p, state, inv, nonce=1, amount=None):
    tx = ct.TransactionRecord(
        frm=trigger.address_of(inv.vk),
        to=state.operator,
        amount=state.investment_amount if amount is None else amount,
        nonce=nonce,
    )
    sig = trigger.ecdsa_sign(inv.sk, tx.serialize())
    return ct.TriggerSubmission(p.tk, tx, sig)


def run_to_stored(p, state, ledger):
    ct.pay_advance(state, ledger, state.advance_required)
    ct.store_signature(state, p.sigma)


def test_deploy_validations(world):
    p, state, ledger, *_ = world
    assert state.phase is ct.Phase.DEPLOYED
    with pytest.raises(ct.InvalidAmounts):
        ct.deploy(p.m, state.operator, state.investor, p.pk_s, p.pk_n, p.par, 0, 500)
    with pytest.raises(ct.InvalidAmounts):
        ct.deploy(p.m, state.operator, state.investor, p.pk_s, p.pk_n, p.par, 50, 0)
    with pytest.raises(ct.MalformedTransaction):
        ct.deploy(p.m, b"short", state.investor, p.pk_s, p.pk_n, p.par, 50, 500)


def test_ledger_basics():
    lg = ct.WalletLedger({b"a" * 20: 5})
    assert lg.balance_of(b"a" * 20) == 5
    with pytest.raises(ct.UnknownAddress):
        lg.balance_of(b"b" * 20)
    with pytest.raises(ct.InvalidAmounts):
        ct.WalletLedger({b"a" * 20: -1})


def test_advance_payment_flow(world):
    p, state, ledger, op, inv, op_addr, inv_addr = world
    with pytest.raises(ct.InsufficientAdvance):
        ct.pay_advance(state, ledger, 49)
    assert ledger.balance_of(inv_addr) == 1000  # rejected payment moves nothing
    ct.pay_advance(state, ledger, 50)
    assert state.phase is ct.Phase.ADVANCE_PAID
    assert ledger.balance_of(op_addr) == 150
    with pytest.raises(ct.WrongPhase):
        ct.pay_advance(state, ledger, 50)


def test_advance_insufficient_funds(world):
    p, state, ledger, op, inv, op_addr, inv_addr = world
    ledger.balances[inv_addr] = 10
    with pytest.raises(ct.InsufficientFunds):
        ct.pay_advance(state, ledger, 50)
    assert state.phase is ct.Phase.DEPLOYED


def test_store_signature_phase_machine(world):
    p, state, ledger, *_ = world
    with pytest.raises(ct.WrongPhase):
        ct.store_signature(state, p.sigma)
    ct.pay_advance(state, ledger, 50)
    ct.store_signature(state, p.sigma)
    assert state.phase is ct.Phase.SIGNATURE_STORED
    assert state.stored_sigma == p.sigma


def test_honest_trigger_executes(world):
    p, state, ledger, op, inv, op_addr, inv_addr = world
    run_to_stored(p, state, ledger)
    total = ledger.total_supply()
    receipt = ct.submit_trigger(state, ledger, submission(p, state, inv))
    assert receipt.verdict
    assert receipt.transfer == (inv_addr, op_addr, 500)
    assert state.phase is ct.Phase.EXECUTED
    assert ledger.balance_of(op_addr) == 650
    assert ledger.total_supply() == total
    assert receipt.gas.pairing_pairs == 8


def test_trigger_before_stored_is_wrong_phase(world):
    p, state, ledger, op, inv, *_ = world
    with pytest.raises(ct.WrongPhase):
        ct.submit_trigger(state, ledger, submission(p, state, inv))


def test_executed_is_terminal(world):
    p, state, ledger, op, inv, *_ = world
    run_to_stored(p, state, ledger)
    ct.submit_trigger(state, ledger, submission(p, state, inv, nonce=1))
    with pytest.raises(ct.WrongPhase):
        ct.submit_trigger(state, ledger, submission(p, state, inv, nonce=2))


def test_tampered_token_rejected_and_still_armed(world):
    p, state, ledger, op, inv, op_addr, inv_addr = world
    run_to_stored(p, state, ledger)
    sub = submission(p, state, inv)
    bad_tk = scheme.VerificationToken(sub.tk.tk1 * p.par.g1, sub.tk.tk2)
    before = dict(ledger.balances)
    receipt = ct.submit_trigger(
        state, ledger, ct.TriggerSubmission(bad_tk, sub.tx, sub.sig_e)
    )
    assert not receipt.verdict and receipt.transfer is None
    assert ledger.balances == before
    assert state.phase is ct.Phase.SIGNATURE_STORED
    # resubmission with the honest token succeeds
    assert ct.submit_trigger(state, ledger, sub).verdict


def test_bad_ecdsa_rejected(world):
    p, state, ledger, op, inv, *_ = world
    run_to_stored(p, state, ledger)
    sub = submission(p, state, inv)
    forged = trigger.ecdsa_sign(op.sk, sub.tx.serialize())  # wrong wallet
    receipt = ct.submit_trigger(state, ledger, ct.TriggerSubmission(sub.tk, sub.tx, forged))
    assert not receipt.verdict
    assert state.phase is ct.Phase.SIGNATURE_STORED


def test_malformed_transactions(world):
    p, state, ledger, op, inv, op_addr, inv_addr = world
    run_to_stored(p, state, ledger)
    with pytest.raises(ct.MalformedTransaction):
        ct.submit_trigger(state, ledger, submission(p, state, inv, amount=499))
    wrong_from = ct.TransactionRecord(op_addr, op_addr, 500, 1)
    with pytest.raises(ct.MalformedTransaction):
        ct.submit_trigger(
            state,
            ledger,
            ct.TriggerSubmission(p.tk, wrong_from, trigger.ecdsa_sign(inv.sk, wrong_from.serialize())),
        )
    with pytest.raises(ct.MalformedTransaction):
        ct.TransactionRecord(inv_addr, op_addr, -1, 1).serialize()
    with pytest.raises(ct.MalformedTransaction):
        ct.TransactionRecord(b"short", op_addr, 500, 1).serialize()


def test_nonce_replay_blocked(world):
    p, state, ledger, op, inv, *_ = world
    run_to_stored(p, state, ledger)
    state.used_nonces.add(9)
    with pytest.raises(ct.NonceReplayed):
        ct.submit_trigger(state, ledger, submission(p, state, inv, nonce=9))


@pytest.mark.parametrize("pipeline", ["mock_pipeline", "real_pipeline"])
def test_stored_state_holds_no_secret(request, tmp_path, pipeline):
    """The state envelope store-sig writes holds sigma and both public keys, and no secret scalar."""
    p = request.getfixturevalue(pipeline)
    op, inv = (trigger.address_of(trigger.ecdsa_keygen(seed).vk) for seed in (b"op", b"inv"))
    state, ledger = ct.deploy(p.m, op, inv, p.pk_s, p.pk_n, p.par, 50, 500), ct.WalletLedger({op: 0, inv: 1000})
    ct.pay_advance(state, ledger, 50)
    path, sigma = tmp_path / "state.json", tmp_path / "sigma.json"
    envelopes.write_object(path, state, ledger)
    envelopes.write_object(sigma, p.sigma)
    res = CliRunner().invoke(main, ["store-sig", "--state", str(path), "--sigma", str(sigma)])
    assert res.exit_code == 0, res.output
    text = path.read_text()
    payload = json.loads(text)["payload"]
    assert payload["phase"] == "SignatureStored"
    assert [payload[k] for k in ("sigma", "pk_s", "pk_n")] == [envelopes.to_payload(x)
                                                              for x in (p.sigma, p.pk_s, p.pk_n)]
    secrets = [p.sk_s.alphaS, p.sk_n.alphaN, p.sk_n.y1, p.sk_n.y2, *p.sk_n.vPrime]
    assert len(secrets) == 4 + scheme.ELL + 1
    assert not [k for k in secrets if hex(k) in text]
    # a mock element is its discrete log, so there gS's word is alphaS's and u'_i's is v'_i's
    if pipeline == "real_pipeline":
        assert not [k for k in secrets if f"{k:064x}" in text]


def test_conservation_across_random_call_sequences(mock_pipeline):
    p = mock_pipeline
    rng = random.Random(404)
    for trial in range(10):
        op = trigger.ecdsa_keygen(b"op-%d" % trial)
        inv = trigger.ecdsa_keygen(b"inv-%d" % trial)
        op_addr, inv_addr = trigger.address_of(op.vk), trigger.address_of(inv.vk)
        ledger = ct.WalletLedger({op_addr: rng.randrange(1000), inv_addr: 1000 + rng.randrange(1000)})
        total = ledger.total_supply()
        state = ct.deploy(p.m, op_addr, inv_addr, p.pk_s, p.pk_n, p.par, 50, 500)
        for step in (
            lambda: ct.pay_advance(state, ledger, rng.choice([10, 50, 80])),
            lambda: ct.store_signature(state, p.sigma),
            lambda: ct.submit_trigger(state, ledger, submission(p, state, inv, nonce=trial)),
        ):
            try:
                step()
            except ct.ContractError:
                pass
            assert ledger.total_supply() == total
            assert all(v >= 0 for v in ledger.balances.values())
