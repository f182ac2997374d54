import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

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


def run_two_party(d, proto, sigma, tdir):
    verifier = subprocess.Popen(
        _protocol_args(d, proto, "verifier", sigma, tdir, 100),
        stdout=subprocess.PIPE, text=True,
    )
    prover = subprocess.run(
        _protocol_args(d, proto, "prover", sigma, tdir, 101),
        stdout=subprocess.PIPE, text=True, timeout=60,
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
