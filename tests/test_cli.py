import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from nomsig import bn254, curve, envelopes, scheme
from nomsig.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Full mock-backend pipeline driven through the CLI, artifacts on disk."""
    d = tmp_path_factory.mktemp("cli")
    (d / "m.bin").write_bytes(b"cli test program source")
    r = CliRunner()

    def run(*args, code=0):
        res = r.invoke(main, [str(a) for a in args])
        assert res.exit_code == code, res.output
        return res

    run("setup", "--backend", "mock", "--out", d / "params.json")
    run("keygen-signer", "--params", d / "params.json", "--seed", 1,
        "--pub-out", d / "spk.json", "--sec-out", d / "ssk.json")
    run("keygen-nominee", "--params", d / "params.json", "--seed", 2,
        "--pub-out", d / "npk.json", "--sec-out", d / "nsk.json")
    run("sign", "--params", d / "params.json", "--signer-pub", d / "spk.json",
        "--signer-sec", d / "ssk.json", "--nominee-pub", d / "npk.json",
        "--message-file", d / "m.bin", "--seed", 3, "--out", d / "delta.json")
    run("receive", "--params", d / "params.json", "--signer-pub", d / "spk.json",
        "--nominee-pub", d / "npk.json", "--nominee-sec", d / "nsk.json",
        "--message-file", d / "m.bin", "--delta", d / "delta.json",
        "--seed", 4, "--out", d / "sigma.json")
    run("convert", "--params", d / "params.json", "--signer-pub", d / "spk.json",
        "--nominee-pub", d / "npk.json", "--nominee-sec", d / "nsk.json",
        "--message-file", d / "m.bin", "--sigma", d / "sigma.json",
        "--out", d / "token.json")
    run("deploy", "--params", d / "params.json", "--signer-pub", d / "spk.json",
        "--nominee-pub", d / "npk.json", "--message-file", d / "m.bin",
        "--operator-seed", "op", "--investor-seed", "inv",
        "--investor-balance", 1000, "--advance", 100, "--investment", 700,
        "--state-out", d / "state.json")
    run("pay-advance", "--state", d / "state.json", "--amount", 100)
    run("store-sig", "--state", d / "state.json", "--sigma", d / "sigma.json")
    return d


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def test_trigger_accepts_and_reports_gas(workdir):
    d = workdir
    res = invoke("trigger", "--state", d / "state.json", "--token", d / "token.json",
                 "--investor-seed", "inv", "--nonce", 1,
                 "--receipt-out", d / "receipt.json")
    assert res.exit_code == 0, res.output
    assert "accept" in res.output
    assert "8 pairings" in res.output
    state = json.loads((d / "state.json").read_text())
    assert state["payload"]["phase"] == "Executed"


def test_report_gas_from_receipt(workdir):
    res = invoke("report-gas", "--receipt", workdir / "receipt.json")
    assert res.exit_code == 0
    assert "ecrecover=3000" in res.output


def test_report_gas_reference_counts():
    res = invoke("report-gas")
    assert res.exit_code == 0
    assert "tkverify=355400" in res.output
    assert "ratio: 118.5" in res.output


def test_report_gas_with_cost_table_override(workdir, tmp_path):
    path = tmp_path / "ct.json"
    path.write_text(json.dumps({"ecrecover": 7000}))
    res = invoke("report-gas", "--cost-table", path)
    assert res.exit_code == 0
    assert "ecrecover=7000" in res.output


def test_tampered_token_exits_1_ledger_unchanged(workdir, tmp_path):
    d = workdir
    # rearm a copy of the pre-execution state
    state = json.loads((d / "state.json").read_text())
    state["payload"]["phase"] = "SignatureStored"
    state["payload"]["used_nonces"] = []
    armed = tmp_path / "armed.json"
    armed.write_text(json.dumps(state))
    before = json.loads(armed.read_text())["payload"]["ledger"]

    token = json.loads((d / "token.json").read_text())
    raw = bytearray(bytes.fromhex(token["payload"]["tk1"]))
    raw[-1] ^= 1
    token["payload"]["tk1"] = raw.hex()
    bad = tmp_path / "token_bad.json"
    bad.write_text(json.dumps(token))

    res = invoke("trigger", "--state", armed, "--token", bad,
                 "--investor-seed", "inv", "--nonce", 7)
    assert res.exit_code == 1
    after = json.loads(armed.read_text())["payload"]
    assert after["ledger"] == before
    assert after["phase"] == "SignatureStored"


def test_malformed_envelope_exits_2(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = invoke("convert", "--params", workdir / "params.json",
                 "--signer-pub", workdir / "spk.json",
                 "--nominee-pub", workdir / "npk.json",
                 "--nominee-sec", workdir / "nsk.json",
                 "--message-file", workdir / "m.bin",
                 "--sigma", bad, "--out", tmp_path / "out.json")
    assert res.exit_code == 2

    wrong_kind = tmp_path / "wrong.json"
    wrong_kind.write_text((workdir / "token.json").read_text())
    res = invoke("store-sig", "--state", workdir / "state.json", "--sigma", wrong_kind)
    assert res.exit_code == 2


def test_non_string_scalar_exits_2(workdir, tmp_path):
    obj = json.loads((workdir / "sigma.json").read_text())
    obj["payload"]["s"] = 5
    bad = tmp_path / "sigma_int_s.json"
    bad.write_text(json.dumps(obj))
    res = invoke("convert", "--params", workdir / "params.json",
                 "--signer-pub", workdir / "spk.json",
                 "--nominee-pub", workdir / "npk.json",
                 "--nominee-sec", workdir / "nsk.json",
                 "--message-file", workdir / "m.bin",
                 "--sigma", bad, "--out", tmp_path / "out.json")
    assert res.exit_code == 2, res.output


def test_wrong_base_count_exits_2(workdir, tmp_path):
    obj = json.loads((workdir / "spk.json").read_text())
    obj["payload"]["u"] = obj["payload"]["u"][:10]
    bad = tmp_path / "spk_10.json"
    bad.write_text(json.dumps(obj))
    res = invoke("sign", "--params", workdir / "params.json", "--signer-pub", bad,
                 "--signer-sec", workdir / "ssk.json", "--nominee-pub", workdir / "npk.json",
                 "--message-file", workdir / "m.bin", "--seed", 3,
                 "--out", tmp_path / "delta.json")
    assert res.exit_code == 2, res.output


def test_unknown_schema_version_exits_2(workdir, tmp_path):
    obj = json.loads((workdir / "sigma.json").read_text())
    obj["schema_version"] = 99
    bad = tmp_path / "v99.json"
    bad.write_text(json.dumps(obj))
    res = invoke("convert", "--params", workdir / "params.json",
                 "--signer-pub", workdir / "spk.json",
                 "--nominee-pub", workdir / "npk.json",
                 "--nominee-sec", workdir / "nsk.json",
                 "--message-file", workdir / "m.bin",
                 "--sigma", bad, "--out", tmp_path / "out.json")
    assert res.exit_code == 2


def _edited(src, tmp_path, **fields):
    """A copy of the envelope at src with its payload fields replaced."""
    obj = json.loads(src.read_text())
    obj["payload"].update(fields)
    out = tmp_path / f"edited-{src.name}"
    out.write_text(json.dumps(obj))
    return out


def _rearmed_state(workdir, tmp_path, **fields):
    """The contract state as it stood after store-sig, with fields replaced."""
    return _edited(workdir / "state.json", tmp_path, phase="SignatureStored", used_nonces=[], **fields)


def assert_malformed(res):
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)


@pytest.mark.parametrize("s", [hex(2**300), "-5", "5", hex(2**254)])
def test_store_sig_rejects_non_canonical_scalar(workdir, tmp_path, s):
    state = _edited(workdir / "state.json", tmp_path, phase="AdvancePaid", sigma=None, used_nonces=[])
    sigma = _edited(workdir / "sigma.json", tmp_path, s=s)
    assert_malformed(invoke("store-sig", "--state", state, "--sigma", sigma))


def test_receive_rejects_zero_nominee_secret(workdir, tmp_path):
    d = workdir
    nsk = _edited(d / "nsk.json", tmp_path, y1="0x0")
    assert_malformed(invoke(
        "receive", "--params", d / "params.json", "--signer-pub", d / "spk.json",
        "--nominee-pub", d / "npk.json", "--nominee-sec", nsk, "--message-file", d / "m.bin",
        "--delta", d / "delta.json", "--seed", 4, "--out", tmp_path / "sigma.json"))


def test_sign_rejects_keys_of_another_backend(workdir, tmp_path):
    d = workdir
    params = tmp_path / "params-bn254.json"
    assert invoke("setup", "--backend", "bn254", "--out", params).exit_code == 0
    assert_malformed(invoke(
        "sign", "--params", params, "--signer-pub", d / "spk.json", "--signer-sec", d / "ssk.json",
        "--nominee-pub", d / "npk.json", "--message-file", d / "m.bin", "--seed", 3,
        "--out", tmp_path / "delta.json"))
    assert not (tmp_path / "delta.json").exists()


def test_trigger_rejects_state_of_another_backend(workdir, tmp_path):
    state = _rearmed_state(workdir, tmp_path, backend="bn254")
    assert_malformed(invoke("trigger", "--state", state, "--token", workdir / "token.json",
                            "--investor-seed", "inv", "--nonce", 5))


def test_setup_with_unknown_backend_exits_2(tmp_path):
    for name in ("foo", "real-curve", "mock-exponent"):
        assert_malformed(invoke("setup", "--backend", name, "--out", tmp_path / "params.json"))
    assert not (tmp_path / "params.json").exists()


@pytest.mark.parametrize("security", [256, "128"])
def test_unsupported_security_level_exits_2(workdir, tmp_path, security):
    params = _edited(workdir / "params.json", tmp_path, security=security)
    assert_malformed(invoke("keygen-signer", "--params", params, "--seed", 1,
                            "--pub-out", tmp_path / "spk.json", "--sec-out", tmp_path / "ssk.json"))


@pytest.mark.parametrize("ledger", [[], "negative"])
def test_malformed_ledger_exits_2(workdir, tmp_path, ledger):
    state = json.loads((workdir / "state.json").read_text())["payload"]
    if ledger == "negative":
        ledger = {addr: -1 for addr in state["ledger"]}
    path = _rearmed_state(workdir, tmp_path, ledger=ledger)
    assert_malformed(invoke("trigger", "--state", path, "--token", workdir / "token.json",
                            "--investor-seed", "inv", "--nonce", 5))
    assert_malformed(invoke("pay-advance", "--state", path, "--amount", 100))


def test_trigger_without_funds_is_a_reject(workdir, tmp_path):
    state = _rearmed_state(workdir, tmp_path, investment_amount=901)
    res = invoke("trigger", "--state", state, "--token", workdir / "token.json",
                 "--investor-seed", "inv", "--nonce", 5)
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    assert "reject" in res.output


def _receipt(tmp_path, edit_gas, transfer=None):
    gas = {"tkverify_gas": 355400, "ecrecover_gas": 3000, "total_gas": 358400, "pairing_pairs": 8,
           "ec_additions": 256, "unpriced_scalar_mults": 8, "eth_cost": None}
    payload = {"verdict": "reject" if transfer is None else "accept", "gas": edit_gas(gas),
               "transfer": transfer}
    path = tmp_path / "receipt.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "receipt", "payload": payload}))
    return path


@pytest.mark.parametrize("edit_gas", [
    lambda gas: [],
    lambda gas: {**gas, "ecrecover_gas": 0, "total_gas": gas["tkverify_gas"]},
], ids=["list", "zero-ecrecover"])
def test_malformed_receipt_gas_exits_2(tmp_path, edit_gas):
    res = invoke("report-gas", "--receipt", _receipt(tmp_path, edit_gas))
    assert_malformed(res)
    assert "tkverify=" not in res.output


def test_receipt_with_negative_eth_cost_exits_2(tmp_path):
    res = invoke("report-gas", "--receipt", _receipt(tmp_path, lambda gas: {**gas, "eth_cost": "-5"}))
    assert_malformed(res)
    assert "eth=" not in res.output


@pytest.mark.parametrize("edit", [
    {"amount": 2**300},
    {"from": ""},
    {"to": "ab" * 21},
], ids=["amount-2^300", "empty-from", "21-byte-to"])
def test_receipt_with_malformed_transfer_exits_2(tmp_path, edit):
    transfer = {"from": "11" * 20, "to": "22" * 20, "amount": 700, **edit}
    res = invoke("report-gas", "--receipt", _receipt(tmp_path, lambda gas: gas, transfer))
    assert_malformed(res)
    assert "tkverify=" not in res.output


def test_report_gas_from_well_formed_accept_receipt(tmp_path):
    transfer = {"from": "11" * 20, "to": "22" * 20, "amount": 2**256 - 1}
    res = invoke("report-gas", "--receipt", _receipt(tmp_path, lambda gas: gas, transfer))
    assert res.exit_code == 0 and "tkverify=355400" in res.output, res.output


def test_report_gas_with_zero_ecrecover_cost_exits_2(tmp_path):
    path = tmp_path / "ct.json"
    path.write_text(json.dumps({"ecrecover": 0}))
    assert_malformed(invoke("report-gas", "--cost-table", path))


@pytest.mark.parametrize("cost", [None, float("inf"), [1], "3000", True])
def test_mistyped_cost_table_exits_2(tmp_path, cost):
    path = tmp_path / "ct.json"
    path.write_text(json.dumps({"ecrecover": cost}))
    assert_malformed(invoke("report-gas", "--cost-table", path))


def test_negative_gas_price_exits_2():
    res = invoke("report-gas", "--gas-price", "-1")
    assert_malformed(res)
    assert "eth=" not in res.output


def test_negative_ec_additions_exits_2():
    res = invoke("report-gas", "--ec-additions", "-3000")
    assert_malformed(res)
    assert "tkverify=" not in res.output


def test_trigger_with_nonce_of_2_256_exits_2(workdir, tmp_path):
    # a nonce is a 256-bit word; one more bit used to end in an OverflowError traceback
    res = invoke("trigger", "--state", _rearmed_state(workdir, tmp_path), "--token",
                 workdir / "token.json", "--investor-seed", "inv", "--nonce", 2**256)
    assert_malformed(res)
    assert "nonce" in res.output


@pytest.mark.parametrize("option", ["--advance", "--investment"])
def test_deploy_with_amount_of_2_256_exits_2(workdir, tmp_path, option):
    d = workdir
    amounts = {"--advance": 100, "--investment": 700, option: 2**256}
    res = invoke("deploy", "--params", d / "params.json", "--signer-pub", d / "spk.json",
                 "--nominee-pub", d / "npk.json", "--message-file", d / "m.bin",
                 "--operator-seed", "op", "--investor-seed", "inv", "--investor-balance", 1000,
                 *[x for kv in amounts.items() for x in kv], "--state-out", tmp_path / "state.json")
    assert_malformed(res)
    assert not (tmp_path / "state.json").exists()
    # a state that already holds such an amount fails its trigger the same way
    state = _rearmed_state(workdir, tmp_path, investment_amount=2**256)
    assert_malformed(invoke("trigger", "--state", state, "--token", d / "token.json",
                            "--investor-seed", "inv", "--nonce", 5))


def _deploy(d, state_out, **balances):
    opts = {"--operator-balance": 0, "--investor-balance": 1000, **balances}
    return invoke("deploy", "--params", d / "params.json", "--signer-pub", d / "spk.json",
                  "--nominee-pub", d / "npk.json", "--message-file", d / "m.bin",
                  "--operator-seed", "op", "--investor-seed", "inv", "--advance", 100,
                  "--investment", 700, *[x for kv in opts.items() for x in kv], "--state-out", state_out)


@pytest.mark.parametrize("option", ["--investor-balance", "--operator-balance"])
def test_deploy_with_balance_of_2_256_exits_2(workdir, tmp_path, option):
    res = _deploy(workdir, tmp_path / "state.json", **{option: 2**256 + 5})
    assert_malformed(res)
    assert not (tmp_path / "state.json").exists()


@pytest.mark.parametrize("amount", [2**300, 2**256, -5], ids=["2^300", "2^256", "-5"])
def test_pay_advance_with_amount_outside_256_bits_exits_2(workdir, tmp_path, amount):
    state = tmp_path / "state.json"
    assert _deploy(workdir, state).exit_code == 0
    before = state.read_bytes()
    assert_malformed(invoke("pay-advance", "--state", state, "--amount", amount))
    assert state.read_bytes() == before


def test_pay_advance_that_would_overflow_a_balance_is_a_reject(workdir, tmp_path):
    state = tmp_path / "state.json"
    assert _deploy(workdir, state, **{"--operator-balance": 2**256 - 50}).exit_code == 0
    before = state.read_bytes()
    res = invoke("pay-advance", "--state", state, "--amount", 100)
    assert res.exit_code == 1 and "reject" in res.output, res.output
    assert state.read_bytes() == before


@pytest.mark.parametrize("field", ["operator", "investor", "ledger"])
def test_state_with_an_address_of_the_wrong_length_exits_2(workdir, tmp_path, field):
    payload = json.loads((workdir / "state.json").read_text())["payload"]
    ledger = dict(payload["ledger"])
    if field == "ledger":
        ledger["ab" * 19] = 0
        edits = {}
    else:  # the party keeps its account under the shortened address
        short = payload[field][:-2]
        ledger[short] = ledger.pop(payload[field])
        edits = {field: short}
    fields = {"phase": "Deployed", "sigma": None, "used_nonces": [], "ledger": ledger, **edits}
    path = _edited(workdir / "state.json", tmp_path, **fields)
    assert_malformed(invoke("pay-advance", "--state", path, "--amount", 100))


@pytest.mark.parametrize("field", ["ledger", "advance_required", "investment_amount", "used_nonces"])
def test_state_with_a_word_of_2_256_exits_2(workdir, tmp_path, field):
    payload = json.loads((workdir / "state.json").read_text())["payload"]
    value = {
        "ledger": {addr: 2**256 for addr in payload["ledger"]},
        "used_nonces": [2**256],
    }.get(field, 2**256)
    fields = {"phase": "Deployed", "sigma": None, "used_nonces": [], field: value}
    path = _edited(workdir / "state.json", tmp_path, **fields)
    assert_malformed(invoke("pay-advance", "--state", path, "--amount", 100))


def test_receive_rejects_foreign_delta(workdir, tmp_path):
    # delta signed for a different message must exit 1
    d = workdir
    (tmp_path / "m2.bin").write_bytes(b"different source")
    res = invoke("receive", "--params", d / "params.json", "--signer-pub", d / "spk.json",
                 "--nominee-pub", d / "npk.json", "--nominee-sec", d / "nsk.json",
                 "--message-file", tmp_path / "m2.bin", "--delta", d / "delta.json",
                 "--seed", 9, "--out", tmp_path / "sigma2.json")
    assert res.exit_code == 1


def test_demo_seed_42():
    res = invoke("demo", "--seed", 42)
    assert res.exit_code == 0, res.output
    assert "accept" in res.output
    assert "8 pairings" in res.output


def test_demo_with_unknown_backend_exits_2(tmp_path):
    assert_malformed(invoke("demo", "--backend", "nope", "--workdir", tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_demo_checks_workdir_before_keygen(tmp_path, monkeypatch):
    a_file = tmp_path / "a-file"
    a_file.write_text("kept")

    def unreachable(*_):
        raise AssertionError("keygen ran before --workdir was checked")

    monkeypatch.setattr(scheme, "keygen_signer", unreachable)
    assert_malformed(invoke("demo", "--workdir", a_file))
    assert a_file.read_text() == "kept"


@pytest.mark.parametrize(
    "case", ["setup", "keygen-signer", "keygen-signer-sec", "keygen-nominee-sec", "demo", "confirm", "disavow"]
)
def test_unwritable_output_exits_2(workdir, tmp_path, case):
    missing = tmp_path / "missing" / "out.json"
    a_file = tmp_path / "a-file"
    a_file.write_text("kept")
    args = {
        "setup": ["setup", "--backend", "mock", "--out", missing],
        "keygen-signer": ["keygen-signer", "--params", workdir / "params.json", "--seed", 1,
                          "--pub-out", missing, "--sec-out", tmp_path / "ssk.json"],
        "keygen-signer-sec": ["keygen-signer", "--params", workdir / "params.json", "--seed", 1,
                              "--pub-out", tmp_path / "spk.json", "--sec-out", missing],
        "keygen-nominee-sec": ["keygen-nominee", "--params", workdir / "params.json", "--seed", 2,
                               "--pub-out", tmp_path / "npk.json", "--sec-out", missing],
        "demo": ["demo", "--workdir", a_file],
        "confirm": _protocol_args(workdir, "confirm", "verifier", workdir / "sigma.json", a_file, 100)[3:],
        "disavow": _protocol_args(workdir, "disavow", "verifier", workdir / "sigma.json", a_file, 100)[3:],
    }[case]
    assert_malformed(invoke(*args))
    assert [p.name for p in tmp_path.iterdir()] == ["a-file"]
    assert a_file.read_text() == "kept"


def _protocol_args(d, proto, role, sigma, tdir, seed):
    args = [
        sys.executable, "-m", "nomsig.cli", proto, "--role", role,
        "--params", str(d / "params.json"), "--signer-pub", str(d / "spk.json"),
        "--nominee-pub", str(d / "npk.json"), "--message-file", str(d / "m.bin"),
        "--sigma", str(sigma), "--transport-dir", str(tdir), "--seed", str(seed),
    ]
    if role == "prover":
        args += ["--nominee-sec", str(d / "nsk.json")]
    return args


def run_two_party(d, proto, sigma, tdir, prover_proto=None):
    """Verifier and prover processes; each one's stdout carries its stderr too."""
    verifier = subprocess.Popen(
        _protocol_args(d, proto, "verifier", sigma, tdir, 100),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    prover = subprocess.run(
        _protocol_args(d, prover_proto or proto, "prover", sigma, tdir, 101),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=60,
    )
    vout, _ = verifier.communicate(timeout=60)
    return prover, verifier.returncode, vout


def test_two_process_confirm(workdir, tmp_path):
    prover, vcode, vout = run_two_party(workdir, "confirm", workdir / "sigma.json", tmp_path / "t1")
    assert prover.returncode == 0 and vcode == 0
    assert "verdict accept" in prover.stdout
    assert "verdict accept" in vout


def test_two_process_disavow_on_tampered_sigma(workdir, tmp_path):
    obj = json.loads((workdir / "sigma.json").read_text())
    s = int(obj["payload"]["s"], 16)
    obj["payload"]["s"] = hex(s + 1)
    bad = tmp_path / "sigma_bad.json"
    bad.write_text(json.dumps(obj))
    prover, vcode, vout = run_two_party(workdir, "disavow", bad, tmp_path / "t2")
    assert prover.returncode == 0 and vcode == 0
    assert "verdict accept" in vout


def test_two_process_confirm_rejects_tampered_sigma(workdir, tmp_path):
    obj = json.loads((workdir / "sigma.json").read_text())
    s = int(obj["payload"]["s"], 16)
    obj["payload"]["s"] = hex(s + 1)
    bad = tmp_path / "sigma_bad.json"
    bad.write_text(json.dumps(obj))
    prover, vcode, vout = run_two_party(workdir, "confirm", bad, tmp_path / "t3")
    assert prover.returncode == 1 and vcode == 1
    assert "verdict reject" in vout


@pytest.mark.parametrize("verifier_proto, prover_proto", [("disavow", "confirm"), ("confirm", "disavow")])
def test_two_process_protocol_mismatch_rejects(workdir, tmp_path, verifier_proto, prover_proto):
    prover, vcode, vout = run_two_party(workdir, verifier_proto, workdir / "sigma.json", tmp_path / "t4", prover_proto)
    assert prover.returncode == 1 and vcode == 1
    assert "verdict reject" in vout and "verdict reject" in prover.stdout
    assert "Traceback" not in vout + prover.stdout


@pytest.mark.parametrize("protocol", ["confirm", "disavow"])
def test_prover_without_nominee_secret_exits_2_before_reading_anything(workdir, tmp_path, monkeypatch, protocol):
    def refuse(*args):
        raise AssertionError("an input was decoded")

    monkeypatch.setattr(envelopes, "read_object", refuse)
    d, tdir = workdir, tmp_path / "transport"
    res = invoke(protocol, "--role", "prover", "--params", d / "params.json", "--signer-pub", d / "spk.json",
                 "--nominee-pub", d / "npk.json", "--message-file", d / "m.bin", "--sigma", d / "sigma.json",
                 "--transport-dir", tdir, "--seed", 5)
    assert_malformed(res)
    assert "requires --nominee-sec" in res.output
    assert not tdir.exists()


# Each command's options as (name, required, default, type), as the command line has offered them:
# the commands that read the scheme inputs take them from one decorator, and this pins what they keep.
COMMAND_OPTIONS = {
    "confirm": {
        ("--message-file", True, None, "path"), ("--nominee-pub", True, None, "path"),
        ("--nominee-sec", False, None, "path"), ("--params", True, None, "path"),
        ("--role", True, None, "choice"), ("--seed", True, None, "integer"), ("--sigma", True, None, "path"),
        ("--signer-pub", True, None, "path"), ("--transport-dir", True, None, "path"),
    },
    "convert": {
        ("--message-file", True, None, "path"), ("--nominee-pub", True, None, "path"),
        ("--nominee-sec", True, None, "path"), ("--out", True, None, "path"), ("--params", True, None, "path"),
        ("--sigma", True, None, "path"), ("--signer-pub", True, None, "path"),
    },
    "demo": {("--backend", False, "mock", "text"), ("--seed", False, 42, "integer"), ("--workdir", False, None, "path")},
    "deploy": {
        ("--advance", True, None, "integer"), ("--investment", True, None, "integer"),
        ("--investor-balance", True, None, "integer"), ("--investor-seed", True, None, "text"),
        ("--message-file", True, None, "path"), ("--nominee-pub", True, None, "path"),
        ("--operator-balance", False, 0, "integer"), ("--operator-seed", True, None, "text"),
        ("--params", True, None, "path"), ("--signer-pub", True, None, "path"), ("--state-out", True, None, "path"),
    },
    "disavow": {
        ("--message-file", True, None, "path"), ("--nominee-pub", True, None, "path"),
        ("--nominee-sec", False, None, "path"), ("--params", True, None, "path"),
        ("--role", True, None, "choice"), ("--seed", True, None, "integer"), ("--sigma", True, None, "path"),
        ("--signer-pub", True, None, "path"), ("--transport-dir", True, None, "path"),
    },
    "keygen-nominee": {
        ("--params", True, None, "path"), ("--pub-out", True, None, "path"), ("--sec-out", True, None, "path"),
        ("--seed", True, None, "integer"),
    },
    "keygen-signer": {
        ("--params", True, None, "path"), ("--pub-out", True, None, "path"), ("--sec-out", True, None, "path"),
        ("--seed", True, None, "integer"),
    },
    "pay-advance": {("--amount", True, None, "integer"), ("--state", True, None, "path")},
    "receive": {
        ("--delta", True, None, "path"), ("--message-file", True, None, "path"), ("--nominee-pub", True, None, "path"),
        ("--nominee-sec", True, None, "path"), ("--out", True, None, "path"), ("--params", True, None, "path"),
        ("--seed", True, None, "integer"), ("--signer-pub", True, None, "path"),
    },
    "report-gas": {
        ("--cost-table", False, None, "path"), ("--ec-additions", False, 256, "integer"),
        ("--gas-price", False, None, "text"), ("--pairing-pairs", False, 8, "integer"),
        ("--receipt", False, None, "path"),
    },
    "setup": {("--backend", False, "bn254", "text"), ("--out", True, None, "path")},
    "sign": {
        ("--message-file", True, None, "path"), ("--nominee-pub", True, None, "path"), ("--out", True, None, "path"),
        ("--params", True, None, "path"), ("--seed", True, None, "integer"), ("--signer-pub", True, None, "path"),
        ("--signer-sec", True, None, "path"),
    },
    "store-sig": {("--sigma", True, None, "path"), ("--state", True, None, "path")},
    "trigger": {
        ("--cost-table", False, None, "path"), ("--gas-price", False, None, "text"),
        ("--investor-seed", True, None, "text"), ("--nonce", False, 1, "integer"),
        ("--receipt-out", False, None, "path"), ("--state", True, None, "path"), ("--token", True, None, "path"),
    },
}


def test_every_command_keeps_its_options():
    got = {name: {(*p.opts, p.required, None if p.required else p.default, p.type.name) for p in cmd.params}
           for name, cmd in main.commands.items()}
    assert got == COMMAND_OPTIONS


def test_bn254_commands_build_no_comb_and_each_keygen_builds_one(tmp_path, monkeypatch):
    # the README pipeline on bn254, one command at a time in one process: no element of a
    # command meets enough products to keep a comb, and each keygen takes its powers from
    # the one comb of g2 it builds
    built = []
    g2_comb, comb = bn254.g2_comb, curve.comb
    monkeypatch.setattr(bn254, "g2_comb", lambda pt: built.append("G2") or g2_comb(pt))
    monkeypatch.setattr(curve, "comb", lambda p, pt: built.append("G1") or comb(p, pt))
    d = tmp_path
    (d / "m.bin").write_bytes(b"bn254 comb program")
    keys = ["--params", d / "params.json", "--signer-pub", d / "spk.json", "--nominee-pub", d / "npk.json"]
    nsec = ["--nominee-sec", d / "nsk.json", "--message-file", d / "m.bin"]
    commands = [
        ["setup", "--backend", "bn254", "--out", d / "params.json"],
        ["keygen-signer", "--params", d / "params.json", "--seed", 1, "--pub-out", d / "spk.json",
         "--sec-out", d / "ssk.json"],
        ["keygen-nominee", "--params", d / "params.json", "--seed", 2, "--pub-out", d / "npk.json",
         "--sec-out", d / "nsk.json"],
        ["sign", *keys, "--signer-sec", d / "ssk.json", "--message-file", d / "m.bin", "--seed", 3,
         "--out", d / "delta.json"],
        ["receive", *keys, *nsec, "--delta", d / "delta.json", "--seed", 4, "--out", d / "sigma.json"],
        ["convert", *keys, *nsec, "--sigma", d / "sigma.json", "--out", d / "token.json"],
        ["deploy", *keys, "--message-file", d / "m.bin", "--operator-seed", "op", "--investor-seed", "inv",
         "--investor-balance", 1000, "--advance", 100, "--investment", 700, "--state-out", d / "state.json"],
        ["pay-advance", "--state", d / "state.json", "--amount", 100],
        ["store-sig", "--state", d / "state.json", "--sigma", d / "sigma.json"],
        ["trigger", "--state", d / "state.json", "--token", d / "token.json", "--investor-seed", "inv",
         "--nonce", 1, "--receipt-out", d / "receipt.json"],
    ]
    for args in commands:
        built.clear()
        res = invoke(*args)
        assert res.exit_code == 0, res.output
        assert built == (["G2"] if args[0].startswith("keygen") else []), args[0]
    assert "accept" in res.output
