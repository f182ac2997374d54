import dataclasses
import hashlib
import json
import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nomsig import algebra, bn254
from nomsig import contract as ct
from nomsig import envelopes as env
from nomsig import trigger, zkproto
from nomsig.algebra import ELL, AlgebraError, RealBackend, get_backend
from nomsig.bn254 import G1_GEN, G2_GEN, N, P, g2_add
from nomsig.cli import main
from nomsig.gasmodel import build_report
from nomsig.scheme import (
    DeltaMsg,
    NomSignature,
    NomineePublicKey,
    NomineeSecretKey,
    OpCounts,
    PublicParams,
    SignerPublicKey,
)

from oracles import off_curve_x, rewrite_as_v1, torsion_point, v1_payload

PASSES = ("commitment", "first", "opening", "response", "verdict")

# SHA-256 of each envelope file as the encoder wrote it before the table-driven
# codec replaced the per-type functions: schema-v1 bytes, which the v1 writer
# of ``oracles`` must still give, must not move.
GOLDEN = {
    "params": "eb9b245344a3ff1129794e8b1a44186ac83369663b1332363fbad2c744b6a3b6",
    "spk": "27e107fe231fefe27f183480bbd789b9f4ffff8e5d912c795ac21d32e5b38b3d",
    "ssk": "d2a7f97b49323aa46c7494782148e864d58477474bef936dda24e549ad495e6f",
    "npk": "53929dc7d94202d5cfa94439eef40cc1d616aa425a8489ab7d2cfb4aa1256811",
    "nsk": "86e1b429a059877e192c3614504c86889577c8458c982210089e69219c254158",
    "delta": "166ea41859adfc72417575153f699d04f1415cc83d9550571ba79aaa37b53cea",
    "sigma": "afe3fe0d78adc94450073cc56b9ef8f4d1379c3d6032b1771a1e258863f5b416",
    "token": "1c5e337455ac398ae839365d80769013a68413a9c2428516433af805506755d0",
    "state-deployed": "4ecf4a8ad30f01dda103e1664420a65b10599d99f77149ed52bad6c1197238ed",
    "state-advance": "e81d089a3c54a4b8e9b89bf24a789a858dae299a0f70f7a21d60ece812768a00",
    "state-stored": "f0497eaeada6c43fb7702d1b683faa86566b40d975c0265a03eb57b583b66411",
    "state-executed": "2d698ae0ebcb9db91412b4993c597f4c9fceeee75bfba1c6b509804fa6b953fa",
    "receipt-reject": "ae4ea48b2c79b6c0d2d2ee047f73160605dfe142e783611cd4541b9db8422f76",
    "receipt-accept": "2e721c476ee132ec2037ec25993d146d920f399902e514e038e3fe939b4c0d63",
    "confirm-commitment": "79548860f40116ba79d211803ea68d228fa2928d19551c7eedb0f37d9b883318",
    "confirm-first": "ec0a889bd9ee33f632772f2df8e3820a3acea263fec81201166fba22c459c50a",
    "confirm-opening": "17ac14a52317013b653262b6dcc88f83a5026a4f25556a16f68eda59dac76fd6",
    "confirm-response": "a6ca74907bb9bc660985686c36c0f5eb36cb2d9594a8a104466774cb066b3df4",
    "confirm-verdict": "3d573459a7bf75fb100d670e980755898b4d1244521d97121046e65f0759e1d6",
    "disavow-commitment": "79548860f40116ba79d211803ea68d228fa2928d19551c7eedb0f37d9b883318",
    "disavow-first": "d38fb0885c1909a18c04c2d323553230bbec99af652e91c940342abed45da364",
    "disavow-opening": "17ac14a52317013b653262b6dcc88f83a5026a4f25556a16f68eda59dac76fd6",
    "disavow-response": "890621e3b7df8e21c67e92bb2b47ae8b739d16e3b50f9a4caec2caeae9011b20",
    "disavow-verdict": "3d573459a7bf75fb100d670e980755898b4d1244521d97121046e65f0759e1d6",
}

GOLDEN_BN254 = {
    "spk": "bfd8af321125d8484323dd42276ef391f62f79fba4d67f139c4fdef35ce50e9c",
    "ssk": "aa846c9006b702a8b5ec2bef656dbd186ac1fc3ee53b58979bc1b4430b0de909",
    "npk": "fcae8ef528ce47f840fc6a0c534ad30965c36a861978b8f35db3d9483a19523d",
    "nsk": "cc6051214b54dfe68243a24e9269af2c2074dabcdd2f418a0c626b442fda3631",
    "delta": "75496001b145fa1d857802a4b99b969e498c76e389d2ee2b88f425460c4711af",
    "sigma": "679080bed7ea60ac3865bc45b0d7246bdc37b45cba771a110e025f021a19c878",
    "token": "20855d5478fb4c5b9f50d2704475379efb20c5fd4816c72454d254c7f5b50985",
}

# The schema-v2 bytes of the envelopes that hold G1 or G2 points; every other
# envelope is written as version 1, with its GOLDEN bytes.
GOLDEN_V2 = {
    "spk": "168d68d3ad324355f7fdc1374874e2cdeefd87f5bc8fdb04a475e03e95d6a3b2",
    "npk": "278aeea76c07389fc16f0d5b356d481a1fd12df73eb2f44b6edcfefc0bea5087",
    "delta": "7fcfc2353551fb92c15c46b28479be0aa0710a9a6bf402e5bd2118c04761046a",
    "sigma": "e3e843d3679a9c004f54d1def8d3621ffa846f1d073fb2604c332b2f9a37ac99",
    "token": "71b6cb005d8ae37fc45a2ab0b4696f7d0ee663e1c7aab2d36fd9a83ad83d1ae2",
    "state-deployed": "3dd8ba894ef1a7a505abfedc81ee4a8ce870f52c79b0b635f45c2d0ba3c42778",
    "state-advance": "eb259e584ae32585af1c05841842a9444ff0a32d4803ae52d96373c8078a169b",
    "state-stored": "03b06513b694acc0f8b544c1c43f29daf67898959db1fdd60aac954de5a6fe7c",
    "state-executed": "6f88b0134cddbdeba895d5bc4bacf045b4c3f0a96324d3e40f29085bc4d5ce49",
    "confirm-commitment": "190e227da08946bebc10eef8b137d92f5e49ca42484f6087eab1582d8f8fff4d",
    "confirm-first": "3d5828b46a5a81c1bbcf609cac3b0c49b256b2eb46638883600725cd24723f7a",
    "disavow-commitment": "190e227da08946bebc10eef8b137d92f5e49ca42484f6087eab1582d8f8fff4d",
    "disavow-first": "0570f3054b20642aeb6e1708515ec8c68cb80c9c537d72c4780b55ae7933cbef",
}

GOLDEN_BN254_V2 = {
    "spk": "6b241fc2c06a7571136947bec037936cc24f6b406a8db93d8826beb3b2e7539d",
    "npk": "4758c18531af1d23febb2a97df6e94888afe340321520d8d8d3fad48a5055f76",
    "delta": "42779aca407e667cecf4bd41e78a7133936998712daf8c7fc6d53718e79af75b",
    "sigma": "cef8e1991408f40e54de7258bfd5b2d93cf4f1a12c76439d7f02bb24e0c8849f",
    "token": "b6d2ab08945e05fe33cc4d2bc5d9a37f9fee7338845a9c275266bda53b63f26e",
}

# SHA-256 of the v2 file each bn254 command of ``OUTPUTS`` writes from ``real_dir``
# (or from ``real_dir_v1``), taken before comb terms joined ``curve.split_table``.
GOLDEN_BN254_CLI = {
    "sign": "da705eb42c7622ad566beb53ace2da1d57ba52a693fa38859a6741ba0f23ced5",
    "receive": "b2ac9d301936c206faba729704b30ac3732f738f52a2db56fb8be945cc02d98b",
    "convert": "b6d2ab08945e05fe33cc4d2bc5d9a37f9fee7338845a9c275266bda53b63f26e",
    "deploy": "8cb0bb74e96ca2ac226ff85d522d765392beed98dbed5e9a694ce492a6f998ef",
    "pay-advance": "b7e1c7a952e223a5567241b4fafcc0631b69455e8b669947912fda282616be14",
    "store-sig": "2e804ef441add280dd1792196133080d5a86cb64fff2d6937e25eda88be6dad9",
    "trigger": "4310f20aa253cda97c43ba13899cd5f9e4904ed97a15da185642ae4fc6c5b893",
}


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def _commands(d: Path) -> dict:
    """The non-interactive commands that read the pipeline's envelopes."""
    keys = ["--params", d / "params.json", "--signer-pub", d / "spk.json",
            "--nominee-pub", d / "npk.json"]
    nsec = ["--nominee-sec", d / "nsk.json", "--message-file", d / "m.bin"]
    trig = ["trigger", "--token", d / "token.json", "--investor-seed", "inv", "--nonce", 9]
    return {
        "sign": ["sign", *keys, "--signer-sec", d / "ssk.json", "--message-file", d / "m.bin",
                 "--seed", 3, "--out", d / "out.json"],
        "receive": ["receive", *keys, *nsec, "--delta", d / "delta.json", "--seed", 4,
                    "--out", d / "out.json"],
        "convert": ["convert", *keys, *nsec, "--sigma", d / "sigma.json", "--out", d / "out.json"],
        "deploy": ["deploy", *keys, "--message-file", d / "m.bin", "--operator-seed", "op",
                   "--investor-seed", "inv", "--investor-balance", 1000, "--advance", 100,
                   "--investment", 700, "--state-out", d / "out.json"],
        "pay-advance": ["pay-advance", "--state", d / "state-deployed.json", "--amount", 100],
        "store-sig": ["store-sig", "--state", d / "state-advance.json", "--sigma", d / "sigma.json"],
        "trigger": [*trig, "--state", d / "state-stored.json"],
        "trigger-executed": [*trig, "--state", d / "state-executed.json"],
        "report-accept": ["report-gas", "--receipt", d / "receipt-accept.json"],
        "report-reject": ["report-gas", "--receipt", d / "receipt-reject.json"],
    }


# Each envelope the CLI writes, the commands that read it, and their exit
# code on the unmutated files.
READERS = {
    "params": ["sign", "deploy"],
    "spk": ["sign", "deploy"],
    "ssk": ["sign"],
    "npk": ["sign", "deploy"],
    "nsk": ["receive", "convert"],
    "delta": ["receive"],
    "sigma": ["convert", "store-sig"],
    "token": ["trigger"],
    "state-deployed": ["pay-advance"],
    "state-advance": ["store-sig"],
    "state-stored": ["trigger"],
    "state-executed": ["trigger-executed"],
    "receipt-accept": ["report-accept"],
    "receipt-reject": ["report-reject"],
}
EXPECTED_EXIT = {"trigger-executed": 1}


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """The mock pipeline through the CLI, with the state saved after each phase."""
    d = tmp_path_factory.mktemp("golden")
    (d / "m.bin").write_bytes(b"golden program source")

    def run(*args, code=0):
        res = _run(*args)
        assert res.exit_code == code, res.output

    keys = ["--params", d / "params.json", "--signer-pub", d / "spk.json",
            "--nominee-pub", d / "npk.json"]
    nsec = ["--nominee-sec", d / "nsk.json", "--message-file", d / "m.bin"]
    run("setup", "--backend", "mock", "--out", d / "params.json")
    run("keygen-signer", "--params", d / "params.json", "--seed", 1,
        "--pub-out", d / "spk.json", "--sec-out", d / "ssk.json")
    run("keygen-nominee", "--params", d / "params.json", "--seed", 2,
        "--pub-out", d / "npk.json", "--sec-out", d / "nsk.json")
    run("sign", *keys, "--signer-sec", d / "ssk.json", "--message-file", d / "m.bin",
        "--seed", 3, "--out", d / "delta.json")
    run("receive", *keys, *nsec, "--delta", d / "delta.json", "--seed", 4, "--out", d / "sigma.json")
    run("convert", *keys, *nsec, "--sigma", d / "sigma.json", "--out", d / "token.json")
    run("deploy", *keys, "--message-file", d / "m.bin", "--operator-seed", "op",
        "--investor-seed", "inv", "--investor-balance", 1000, "--advance", 100,
        "--investment", 700, "--state-out", d / "state.json")
    shutil.copy(d / "state.json", d / "state-deployed.json")
    run("pay-advance", "--state", d / "state.json", "--amount", 100)
    shutil.copy(d / "state.json", d / "state-advance.json")
    run("store-sig", "--state", d / "state.json", "--sigma", d / "sigma.json")
    shutil.copy(d / "state.json", d / "state-stored.json")
    token = json.loads((d / "token.json").read_text())
    p = token["payload"]
    p["tk1"], p["tk2"] = p["tk2"], p["tk1"]
    (d / "token-bad.json").write_text(json.dumps(token))
    # With a gas price every receipt leaf is set: a null eth_cost replaced by
    # a numeric string would be a well-formed receipt, not a malformed one.
    trig = ["trigger", "--state", d / "state.json", "--investor-seed", "inv",
            "--gas-price", "1/50000000"]
    run(*trig, "--token", d / "token-bad.json", "--nonce", 1,
        "--receipt-out", d / "receipt-reject.json", code=1)
    run(*trig, "--token", d / "token.json", "--nonce", 2, "--receipt-out", d / "receipt-accept.json")
    shutil.copy(d / "state.json", d / "state-executed.json")
    return d


def _transcripts(d: Path) -> dict:
    """{protocol: (sigma, transcript)} as the two CLI processes run them on the
    pipeline in d: verifier seed 100, prover seed 101, confirm on sigma and
    disavow on sigma with s + 1."""
    par = env.read_object(str(d / "params.json"), PublicParams)
    pk_s = env.read_object(str(d / "spk.json"), SignerPublicKey, par.backend)
    pk_n = env.read_object(str(d / "npk.json"), NomineePublicKey, par.backend)
    sk_n = env.read_object(str(d / "nsk.json"), NomineeSecretKey)
    sigma = env.read_object(str(d / "sigma.json"), NomSignature, par.backend)
    m = (d / "m.bin").read_bytes()
    out = {}
    for proto, sig, run in (
        ("confirm", sigma, zkproto.run_confirm),
        ("disavow", dataclasses.replace(sigma, s=sigma.s + 1), zkproto.run_disavow),
    ):
        stmt = zkproto.derive_statement(par, pk_s, pk_n, m, sig)
        ok, tr = run(stmt, sk_n, random.Random(101), random.Random(100))
        assert ok
        out[proto] = sig, tr
    return out


def test_cli_envelopes_match_golden_digests(cli_dir, tmp_path):
    # the files as written, and as the v1 writer rewrites them
    paths = {name: cli_dir / f"{name}.json" for name in READERS}
    # The transport files as the two CLI processes write them.
    for proto, (_, tr) in _transcripts(cli_dir).items():
        for pass_name, msg in zip(PASSES, tr.messages()):
            paths[f"{proto}-{pass_name}"] = tmp_path / f"{proto}-{pass_name}.json"
            env.write_object(str(paths[f"{proto}-{pass_name}"]), msg, "mock")
    assert {name: _digest(path) for name, path in paths.items()} == {**GOLDEN, **GOLDEN_V2}
    assert _v1_digests(paths, tmp_path) == GOLDEN


def _v1_digests(paths: dict, tmp_path) -> dict:
    """The digest of each envelope of {name: path} as the v1 writer rewrites a copy of it."""
    out = {}
    for name, path in paths.items():
        v1 = shutil.copy(path, tmp_path / f"v1-{name}.json")
        rewrite_as_v1(v1)
        out[name] = _digest(v1)
    return out


def test_accept_receipt_holds_the_gas_figures(cli_dir):
    # 8 priced pairs at 45,000 + 34,000 each, 150 per addition, and the unpriced count of 6:
    # two scalar multiplications recompute M_N, four apply the batching coefficients
    gas = json.loads((cli_dir / "receipt-accept.json").read_text())["payload"]["gas"]
    tkv = 317_000 + 150 * 276
    assert gas == {"tkverify_gas": tkv, "ecrecover_gas": 3000, "total_gas": tkv + 3000, "pairing_pairs": 8,
                   "ec_additions": 276, "unpriced_scalar_mults": 6, "eth_cost": str(Fraction(tkv + 3000, 50_000_000))}


def test_real_backend_envelopes_match_golden_digests(real_pipeline, tmp_path):
    p = real_pipeline
    paths = {}
    for name, obj in (("spk", p.pk_s), ("ssk", p.sk_s), ("npk", p.pk_n), ("nsk", p.sk_n),
                      ("delta", p.delta), ("sigma", p.sigma), ("token", p.tk)):
        paths[name] = tmp_path / f"{name}.json"
        env.write_object(str(paths[name]), obj)
    assert {name: _digest(path) for name, path in paths.items()} == {**GOLDEN_BN254, **GOLDEN_BN254_V2}
    assert _v1_digests(paths, tmp_path) == GOLDEN_BN254


@pytest.mark.parametrize("command", sorted({c for cs in READERS.values() for c in cs}))
def test_reader_commands_run_on_unmutated_envelopes(cli_dir, command):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(shutil.copytree(cli_dir, Path(tmp) / "d"))
        res = _run(*_commands(d)[command])
        assert res.exit_code == EXPECTED_EXIT.get(command, 0), res.output


def _leaves(obj, path=()):
    """Paths to the leaves of a JSON value; a list contributes its first and
    last entry, so the 257-entry key vectors do not crowd out other fields."""
    if isinstance(obj, dict) and obj:
        return [leaf for k, v in obj.items() for leaf in _leaves(v, path + (k,))]
    if isinstance(obj, list) and obj:
        return [leaf for i in sorted({0, len(obj) - 1}) for leaf in _leaves(obj[i], path + (i,))]
    return [path]


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.lists(st.integers(), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
MUTATIONS = [(name, cmd) for name, cmds in READERS.items() for cmd in cmds]
# Fields that may be null: there null and a string are both of the field's type.
NULLABLE = {"eth_cost", "C", "z3"}


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mistype_one_leaf(obj, data):
    """Give one leaf of the JSON value obj a value of another JSON type, in place."""
    path = data.draw(st.sampled_from(_leaves(obj)), label="leaf")
    parent = _at(obj, path[:-1])
    old = parent[path[-1]]
    parent[path[-1]] = data.draw(JSON_VALUES.filter(
        lambda v: type(v) is not type(old) and not (path[-1] in NULLABLE and (v is None or isinstance(v, str)))),
        label="value")


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_mistyped_leaf_exits_2(cli_dir, data):
    name, command = data.draw(st.sampled_from(MUTATIONS), label="envelope, command")
    obj = json.loads((cli_dir / f"{name}.json").read_text())
    _mistype_one_leaf(obj, data)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(shutil.copytree(cli_dir, Path(tmp) / "d"))
        (d / f"{name}.json").write_text(json.dumps(obj))
        res = _run(*_commands(d)[command])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)


# Right JSON type, wrong content: field name -> "G1", "G2", "GT", "Zn" or "Zn*", from the envelope table.
FIELD_TYPES = {name: ftype.rstrip("[]?") for _, _, fields in env.CODEC.values() for name, ftype in fields.items()}
ROLES = ["params", "signer-public", "signer-secret", "nominee-public", "nominee-secret"]
CONTENT_CASES = ["uppercase hex", "leading-zero hex", "N or more", "zero for Zn*", "256 entries", "258 entries",
                 "swapped role", "other backend", "uppercase enum"]


def _targets(obj):
    """``_leaves`` and the paths to the key vectors, found by their last entry."""
    leaves = _leaves(obj)
    return leaves + [path[:-1] for path in leaves if path and path[-1] == ELL]


def _field_type(path):
    """The CODEC type of the field at path; a vector entry has its vector's."""
    return FIELD_TYPES.get(next((k for k in reversed(path) if isinstance(k, str)), None))


def _content_cases(path, old):
    """The CONTENT_CASES that apply to the value old at path."""
    if isinstance(old, list):
        return ["256 entries", "258 entries"] if len(old) == ELL + 1 else []
    if not isinstance(old, str):
        return []
    ftype, digits = _field_type(path), old.removeprefix("0x")
    if digits and set(digits) <= set("0123456789abcdef"):
        cases = ["uppercase hex"] if set(digits) & set("abcdef") else []
    else:
        cases = ["uppercase enum"] if old.upper() != old else []
    if ftype in ("Zn", "Zn*"):
        cases += ["leading-zero hex", "N or more"] + (["zero for Zn*"] if ftype == "Zn*" else [])
    if ftype in ("G1", "G2"):  # a mock element is its exponent: N or more is out of range
        cases.append("N or more")
    return cases + {"role": ["swapped role"], "backend": ["other backend"]}.get(path[-1], [])


def _wrong_content(case, path, old, data):
    if case == "uppercase hex":
        return "0x" + old[2:].upper() if old.startswith("0x") else old.upper()
    if case == "uppercase enum":
        return old.upper()
    if case == "leading-zero hex":
        return "0x0" + old[2:]
    if case == "N or more":
        k = data.draw(st.integers(N, 2**256 - 1), label="k")
        return hex(k) if _field_type(path).startswith("Zn") else k.to_bytes(32, "big").hex()
    if case == "zero for Zn*":
        return "0x0"
    if case in ("256 entries", "258 entries"):
        return old[:-1] if case == "256 entries" else old + old[-1:]
    if case == "swapped role":
        return data.draw(st.sampled_from([r for r in ROLES if r != old]), label="role")
    return "bn254"  # other backend, in a mock run


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_wrong_content_leaf_exits_2_and_writes_nothing(cli_dir, data):
    # each leaf keeps its JSON type; the command refuses the file before it writes anything
    case = data.draw(st.sampled_from(CONTENT_CASES), label="case")
    objs = {name: json.loads((cli_dir / f"{name}.json").read_text()) for name in READERS}
    name, command, path = data.draw(st.sampled_from([
        (name, cmd, path) for name, cmd in MUTATIONS for path in _targets(objs[name])
        if case in _content_cases(path, _at(objs[name], path))]), label="envelope, command, leaf")
    obj = objs[name]
    _at(obj, path[:-1])[path[-1]] = _wrong_content(case, path, _at(obj, path), data)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(shutil.copytree(cli_dir, Path(tmp) / "d"))
        (d / f"{name}.json").write_text(json.dumps(obj))
        before = {f.name: f.read_bytes() for f in d.iterdir()}
        res = _run(*_commands(d)[command])
        after = {f.name: f.read_bytes() for f in d.iterdir()}
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert after == before


# Transport files by pass number: the verifier writes the odd passes and
# reads the even ones, the prover the other way round.
PASS_FILES = {i: f"{i:02d}-{name}.json" for i, name in enumerate(PASSES, 1)}


@pytest.fixture(scope="module")
def transport_dir(cli_dir, tmp_path_factory):
    """Each protocol's sigma and its transport files, named {protocol}-{pass file}."""
    d = tmp_path_factory.mktemp("transport")
    for proto, (sig, tr) in _transcripts(cli_dir).items():
        env.write_object(str(d / f"{proto}-sigma.json"), sig)
        for i, msg in enumerate(tr.messages(), 1):
            env.write_object(str(d / f"{proto}-{PASS_FILES[i]}"), msg, "mock")
    return d


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_mistyped_transport_leaf_exits_2(cli_dir, transport_dir, data):
    # Every file the reading role will read is in --transport-dir before it
    # starts, one of them with a mistyped leaf, so no role waits on the other.
    proto, index = data.draw(st.sampled_from([(p, i) for p in ("confirm", "disavow") for i in PASS_FILES]),
                             label="protocol, pass")
    role, seed = ("prover", 101) if index % 2 else ("verifier", 100)
    obj = json.loads((transport_dir / f"{proto}-{PASS_FILES[index]}").read_text())
    _mistype_one_leaf(obj, data)
    d = cli_dir
    args = [proto, "--role", role, "--params", d / "params.json", "--signer-pub", d / "spk.json",
            "--nominee-pub", d / "npk.json", "--message-file", d / "m.bin",
            "--sigma", transport_dir / f"{proto}-sigma.json", "--seed", seed]
    if role == "prover":
        args += ["--nominee-sec", d / "nsk.json"]
    with tempfile.TemporaryDirectory() as tmp:
        for i in PASS_FILES:
            if i % 2 == index % 2:
                shutil.copy(transport_dir / f"{proto}-{PASS_FILES[i]}", Path(tmp) / PASS_FILES[i])
        (Path(tmp) / PASS_FILES[index]).write_text(json.dumps(obj))
        res = _run(*args, "--transport-dir", tmp)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)


def test_unmutated_transport_files_run_both_roles(cli_dir, transport_dir):
    # the campaign's baseline: with every pass file in place, each role finishes with the transcript's verdict
    d = cli_dir
    for proto in ("confirm", "disavow"):
        for role, seed in (("verifier", 100), ("prover", 101)):
            with tempfile.TemporaryDirectory() as tmp:
                for i in PASS_FILES:
                    if i % 2 == (role == "prover"):
                        shutil.copy(transport_dir / f"{proto}-{PASS_FILES[i]}", Path(tmp) / PASS_FILES[i])
                res = _run(proto, "--role", role, "--params", d / "params.json", "--signer-pub", d / "spk.json",
                           "--nominee-pub", d / "npk.json", "--nominee-sec", d / "nsk.json",
                           "--message-file", d / "m.bin", "--sigma", transport_dir / f"{proto}-sigma.json",
                           "--seed", seed, "--transport-dir", tmp)
                assert res.exit_code == 0, res.output
                assert "verdict accept" in res.output


@pytest.fixture(scope="module")
def real_dir(real_pipeline, tmp_path_factory):
    """The bn254 pipeline's envelopes under the names ``_commands`` reads, with the state after each phase."""
    p, d = real_pipeline, tmp_path_factory.mktemp("bn254")
    (d / "m.bin").write_bytes(p.m)
    for name, obj in (("params", p.par), ("spk", p.pk_s), ("ssk", p.sk_s), ("npk", p.pk_n),
                      ("nsk", p.sk_n), ("delta", p.delta), ("sigma", p.sigma), ("token", p.tk)):
        env.write_object(str(d / f"{name}.json"), obj)
    op, inv = (trigger.address_of(trigger.ecdsa_keygen(s).vk) for s in (b"op", b"inv"))
    state, ledger = ct.deploy(p.m, op, inv, p.pk_s, p.pk_n, p.par, 100, 700), ct.WalletLedger({op: 0, inv: 1000})
    env.write_object(str(d / "state-deployed.json"), state, ledger)
    ct.pay_advance(state, ledger, 100)
    env.write_object(str(d / "state-advance.json"), state, ledger)
    ct.store_signature(state, p.sigma)
    env.write_object(str(d / "state-stored.json"), state, ledger)
    return d


@pytest.fixture(scope="module")
def real_dir_v1(real_dir, tmp_path_factory):
    """``real_dir`` with every envelope as the schema-v1 writer wrote it."""
    d = Path(shutil.copytree(real_dir, tmp_path_factory.mktemp("bn254-v1") / "d"))
    for path in d.glob("*.json"):
        rewrite_as_v1(path)
    return d


def _words(*ints) -> bytes:
    return b"".join(k.to_bytes(32, "big") for k in ints)


def _bad_point(case, group, compressed=True) -> str:
    """Hex of a point encoding that must not decode, in a v1 (compressed) or a v2 file."""
    b, gen = get_backend("bn254"), G1_GEN if group == "G1" else G2_GEN
    y = gen[1] if group == "G1" else gen[1][0]  # the generator's y, or its real part
    words = algebra.point_words(group, gen)
    if case == "order 10069":
        return b.serialize("G2", torsion_point(random.Random(10069), 10069), compressed).hex()
    if case == "order 5864401 component":
        return b.serialize("G2", g2_add(G2_GEN, torsion_point(random.Random(5864401), 5864401)), compressed).hex()
    if case == "x of p or more":  # G2 puts x's imaginary part first: c1 = 0, c0 = p
        x = _words(P) if group == "G1" else _words(0, P)
        return (x if compressed else x + bytes(len(x))).hex()
    if case == "off the curve":  # an x with no point above it, and y = 1
        x, one = off_curve_x(group), _words(1) if group == "G1" else _words(0, 1)
        return (x if compressed else x + one).hex()
    if case == "y that does not match x":  # the generator's x with y + 1
        return (words[:-32] + _words(y + 1)).hex()
    if case == "y of p or more":  # the generator with y + p
        return (words[:-32] + _words(y + P)).hex()
    if case == "zero x, y off the curve":
        return (bytes(len(words) - 32) + _words(1)).hex()
    if case == "v1 length":
        return b.serialize(group, gen).hex()
    assert case == "v2 length"
    return words.hex()


BOUNDARY_MESSAGES = {"off the curve": "not on curve", "order 10069": "not in the prime-order subgroup",
                     "order 5864401 component": "not in the prime-order subgroup", "x of p or more": "out of range",
                     "y that does not match x": "point not on curve", "y of p or more": "coordinate out of range",
                     "zero x, y off the curve": "point not on curve", "v1 length": "bytes, got",
                     "v2 length": "bytes, got"}
BOUNDARY_CASES = [
    ("sigma", "convert", ("s1",), "off the curve"),
    ("sigma", "convert", ("s2",), "x of p or more"),
    ("sigma", "convert", ("s3",), "off the curve"),
    ("sigma", "convert", ("s3",), "order 10069"),
    ("sigma", "convert", ("s3",), "x of p or more"),
    ("spk", "sign", ("gS",), "x of p or more"),
    ("spk", "sign", ("hS",), "order 10069"),
    ("spk", "sign", ("u", ELL), "off the curve"),
    ("npk", "deploy", ("gN",), "off the curve"),
    ("npk", "deploy", ("uPrime", 0), "x of p or more"),
    ("npk", "deploy", ("x1",), "order 10069"),
    ("token", "trigger", ("tk1",), "off the curve"),
    ("token", "trigger", ("tk2",), "x of p or more"),
    ("state-deployed", "pay-advance", ("pk_s", "hS"), "order 10069"),
    ("state-advance", "store-sig", ("pk_n", "x1"), "off the curve"),
    ("state-stored", "trigger", ("sigma", "s3"), "x of p or more"),
    # inside the batches that decode a key's G2 points with one subgroup test
    ("spk", "sign", ("u", 128), "order 10069"),
    ("npk", "receive", ("uPrime", ELL), "order 5864401 component"),
    ("state-advance", "store-sig", ("pk_n", "uPrime", 0), "order 10069"),
    # inside the batch that decodes a stored state's keys and signature together
    ("state-stored", "trigger", ("sigma", "s3"), "order 10069"),
]
# A point of the other version's length, in each version's files.
V1_CASES = [
    ("spk", "sign", ("gS",), "v2 length"),
    ("npk", "sign", ("uPrime", 7), "v2 length"),
    ("state-stored", "trigger", ("sigma", "s3"), "v2 length"),
]
V2_CASES = [
    ("sigma", "convert", ("s1",), "y that does not match x"),
    ("sigma", "convert", ("s3",), "y that does not match x"),
    ("npk", "deploy", ("uPrime", 9), "y that does not match x"),
    ("spk", "sign", ("gS",), "y of p or more"),
    ("token", "trigger", ("tk2",), "y of p or more"),
    ("state-advance", "store-sig", ("pk_s", "u", 5), "y of p or more"),
    ("token", "trigger", ("tk1",), "zero x, y off the curve"),
    ("delta", "receive", ("d2",), "zero x, y off the curve"),
    ("npk", "convert", ("uPrime", 200), "order 10069"),
    ("spk", "sign", ("u", 3), "v1 length"),
    ("sigma", "convert", ("s2",), "v1 length"),
    ("state-deployed", "pay-advance", ("pk_n", "hN"), "v1 length"),
]
_CASE_IDS = dict(ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)


@pytest.mark.parametrize("name, command, path, case", BOUNDARY_CASES + V1_CASES, **_CASE_IDS)
def test_bad_bn254_point_exits_2_and_writes_nothing(real_dir_v1, name, command, path, case):
    # off the curve, outside G2 or out of range, in a v1 file: refused before any pairing sees it
    _exits_2_and_writes_nothing(real_dir_v1, name, command, path, _bad_point(case, _group(path)), case)


@pytest.mark.parametrize("name, command, path, case", BOUNDARY_CASES + V2_CASES, **_CASE_IDS)
def test_bad_bn254_point_in_a_v2_file_exits_2_and_writes_nothing(real_dir, name, command, path, case):
    _exits_2_and_writes_nothing(real_dir, name, command, path, _bad_point(case, _group(path), False), case)


def _group(path) -> str:
    return FIELD_TYPES[[f for f in path if isinstance(f, str)][-1]]  # a state nests the key or sigma field


def _exits_2_and_writes_nothing(real_dir, name, command, path, bad, case):
    obj = json.loads((real_dir / f"{name}.json").read_text())
    _at(obj["payload"], path[:-1])[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(shutil.copytree(real_dir, Path(tmp) / "d"))
        (d / f"{name}.json").write_text(json.dumps(obj))
        before = {f.name: f.read_bytes() for f in d.iterdir()}
        res = _run(*_commands(d)[command])
        after = {f.name: f.read_bytes() for f in d.iterdir()}
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert BOUNDARY_MESSAGES[case] in res.output and "Traceback" not in res.output
    assert after == before


@pytest.mark.parametrize("faults, message, decodes", [
    ({("npk", 100): "order 10069"}, "npk.json: G2: point not in the prime-order subgroup", 519),
    ({("spk", 100): "order 10069", ("npk", 100): "order 10069"},
     "spk.json: G2: point not in the prime-order subgroup", 519),
    ({("spk", 200): "off the curve", ("npk", 100): "order 10069"}, "spk.json: G2: point not on curve", 202),
    ({("spk", 100): "order 10069", ("npk", 0): "off the curve"},
     "spk.json: G2: point not in the prime-order subgroup", 261),
    ({("spk", None): "truncated", ("npk", 100): "order 10069"}, "spk.json: not valid JSON", 0),
], ids=["npk", "both", "off-curve-spk", "off-curve-npk", "truncated-spk"])
def test_a_bad_key_names_its_file_though_both_keys_share_a_batch(real_dir, faults, message, decodes, monkeypatch):
    # faults at u[i] or uPrime[i]: each field is decoded once, in order, up to the first that does not
    # decode, and the points before it take one subgroup test, so the first bad field in the command's
    # order is the one named, whether in that batch or not; no point is lifted or decoded twice
    seen, point, lifts, lift = [], RealBackend.point, [], algebra._lift
    monkeypatch.setattr(RealBackend, "point", lambda self, group, *a: seen.append(group) or point(self, group, *a))
    monkeypatch.setattr(algebra, "_lift", lambda *a: lifts.append(a) or lift(*a))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(shutil.copytree(real_dir, Path(tmp) / "d"))
        for (name, i), case in faults.items():
            obj = json.loads((d / f"{name}.json").read_text())
            if i is not None:
                obj["payload"]["u" if name == "spk" else "uPrime"][i] = _bad_point(case, "G2", False)
            text = json.dumps(obj)
            (d / f"{name}.json").write_text(text if i is not None else text[: len(text) // 2])
        res = _run(*_commands(d)["sign"])
        assert not (d / "out.json").exists()
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert message in res.output and "Traceback" not in res.output
    assert ("npk.json" in res.output) == message.startswith("npk.json")
    assert seen.count("G2") == decodes, seen.count("G2")
    assert lifts == []


@pytest.mark.parametrize("mock_first", [True, False])
def test_keys_of_two_backends_take_their_subgroup_tests_apart(mock_pipeline, real_dir, tmp_path, mock_first):
    # with no backend given, a mock signer key and a bn254 nominee key with an order-10069 point are read
    # together: each point takes its own backend's test, so the bn254 one is caught in either order
    env.write_object(str(tmp_path / "spk.json"), mock_pipeline.pk_s)
    obj = json.loads((real_dir / "npk.json").read_text())
    obj["payload"]["uPrime"][100] = _bad_point("order 10069", "G2", False)
    (tmp_path / "npk.json").write_text(json.dumps(obj))
    reads = [(str(tmp_path / "spk.json"), SignerPublicKey), (str(tmp_path / "npk.json"), NomineePublicKey)]
    with pytest.raises(env.EnvelopeError, match="npk.json: G2: point not in the prime-order subgroup"):
        env.read_objects(reads if mock_first else reads[::-1])


def test_a_bad_first_field_costs_no_batch(real_pipeline, monkeypatch):
    # gS, the signer key's one G1 field, comes before its 258 G2 points: none is decoded or tested
    batches, all_in = [], bn254.g2_all_in_subgroup
    monkeypatch.setattr(bn254, "g2_all_in_subgroup", lambda pts: batches.append(len(pts)) or all_in(pts))
    payload = env.to_payload(real_pipeline.pk_s)
    payload["gS"] = _bad_point("off the curve", "G1", False)
    with pytest.raises(AlgebraError, match="G1: point not on curve"):
        env.object_from_payload(SignerPublicKey, payload, real_pipeline.par.backend)
    assert batches == []


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ks=st.lists(st.one_of(st.just(0), st.integers(1, N - 1)), min_size=3, max_size=3))
def test_points_roundtrip_through_v2_payloads(real_pipeline, ks):
    # random G1 and G2 points, the identity among them, come back equal and hash to the same bytes
    b = real_pipeline.par.backend
    delta = DeltaMsg(b.g1() ** ks[0], b.g2() ** ks[1], b.g2() ** ks[2])
    payload = env.to_payload(delta)
    assert [len(payload[f]) for f in ("d1", "d2", "d3")] == [128, 256, 256]
    back = env.object_from_payload(DeltaMsg, payload, b)
    assert back == delta
    assert all(getattr(back, f).to_bytes() == getattr(delta, f).to_bytes() for f in ("d1", "d2", "d3"))


def test_keys_read_from_v1_and_v2_give_the_same_hash_inputs(real_pipeline):
    b = real_pipeline.par.backend
    for key in (real_pipeline.pk_s, real_pipeline.pk_n):
        payload = env.to_payload(key)
        for p, version in ((payload, 2), (v1_payload(payload), 1)):
            back = env.object_from_payload(type(key), p, b, version)
            assert back == key and back.to_bytes() == key.to_bytes()


# Each command whose output holds points, and the file it writes.
OUTPUTS = {"sign": "out.json", "receive": "out.json", "convert": "out.json", "deploy": "out.json",
           "pay-advance": "state-deployed.json", "store-sig": "state-advance.json", "trigger": "state-stored.json"}


def test_v1_inputs_give_the_bytes_that_v2_inputs_give(real_dir, real_dir_v1):
    # the bn254 pipeline's delta, sigma, token and states, from v1 files and from v2 files: v2 bytes both times
    outs = {}
    for src in (real_dir, real_dir_v1):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(shutil.copytree(src, Path(tmp) / "d"))
            for command, output in OUTPUTS.items():
                res = _run(*_commands(d)[command])
                assert res.exit_code == 0, res.output
                outs.setdefault(command, []).append((d / output).read_bytes())
    for command, (v2, v1) in outs.items():
        assert v1 == v2, command
        assert json.loads(v1)["schema_version"] == 2, command
        assert hashlib.sha256(v2).hexdigest() == GOLDEN_BN254_CLI[command], command


@pytest.mark.parametrize("v1_key", ["spk", "npk"])
def test_a_v1_key_and_a_v2_key_share_one_batch(real_dir, real_dir_v1, v1_key, monkeypatch):
    batches, all_in = [], bn254.g2_all_in_subgroup
    monkeypatch.setattr(bn254, "g2_all_in_subgroup", lambda pts: batches.append(len(pts)) or all_in(pts))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(shutil.copytree(real_dir, Path(tmp) / "d"))
        shutil.copy(real_dir_v1 / f"{v1_key}.json", d / f"{v1_key}.json")
        res = _run(*_commands(d)["sign"])
        assert res.exit_code == 0, res.output
    assert batches == [258 + 261]


def test_pay_advance_rewrites_a_v1_state_as_v2(real_dir_v1, tmp_path):
    path = shutil.copy(real_dir_v1 / "state-deployed.json", tmp_path / "state.json")
    state, ledger = env.read_object(str(path), ct.ContractState)
    ct.pay_advance(state, ledger, 100)
    res = _run("pay-advance", "--state", path, "--amount", 100)
    assert res.exit_code == 0, res.output
    assert json.loads(path.read_text())["schema_version"] == 2
    assert env.to_payload(*env.read_object(str(path), ct.ContractState)) == env.to_payload(state, ledger)


def test_a_key_takes_one_batched_subgroup_test(real_pipeline, monkeypatch):
    # 258 and 261 G2 points, each key in one batch: its 10 rounds' tests, not one test per point
    calls = []
    in_subgroup = bn254.g2_in_subgroup
    monkeypatch.setattr(bn254, "g2_in_subgroup", lambda pt: calls.append(pt) or in_subgroup(pt))
    b = real_pipeline.par.backend
    for key in (real_pipeline.pk_s, real_pipeline.pk_n):
        calls.clear()
        assert env.object_from_payload(type(key), env.to_payload(key), b) == key
        assert len(calls) == bn254.BATCH_ROUNDS, len(calls)


@pytest.mark.parametrize("faults, message", [
    ({("gS",): "off the curve", ("u", 7): "order 10069"}, "G1: x not on curve"),  # G1 before the G2 batch
    ({("u", 3): "order 10069", ("u", 7): "off the curve"}, "G2: point not in the prime-order subgroup"),
    ({("u", 3): "off the curve", ("u", 7): "order 10069"}, "G2: x not on curve"),
    ({("hS",): "order 10069", ("u", 0): "x of p or more"}, "G2: point not in the prime-order subgroup"),
])
def test_a_key_with_two_bad_points_names_the_first(real_pipeline, faults, message):
    # the points before the first field that does not decode take the subgroup test, so the first bad
    # field in order raises, in v1 and v2
    for version, compressed in env.COMPRESSED.items():
        payload = env.to_payload(real_pipeline.pk_s)
        if compressed:
            payload = v1_payload(payload)
        for path, case in faults.items():
            _at(payload, path[:-1])[path[-1]] = _bad_point(case, FIELD_TYPES[path[0]], compressed)
        with pytest.raises(AlgebraError, match=message if compressed else message.replace("x not", "point not")):
            env.object_from_payload(SignerPublicKey, payload, real_pipeline.par.backend, version)


def test_a_failed_key_batch_tests_its_bad_point_once(real_pipeline, monkeypatch):
    # an order-10069 point at u[200] of the key's 258 G2 points: one batch, whose first round fails, and
    # no test of its own, since the key is the one object read
    payload = env.to_payload(real_pipeline.pk_s)
    payload["u"][200] = _bad_point("order 10069", "G2", False)
    batches, calls = [], []
    all_in, in_subgroup = bn254.g2_all_in_subgroup, bn254.g2_in_subgroup
    monkeypatch.setattr(bn254, "g2_all_in_subgroup", lambda pts: batches.append(len(pts)) or all_in(pts))
    monkeypatch.setattr(bn254, "g2_in_subgroup", lambda pt: calls.append(pt) or in_subgroup(pt))
    with pytest.raises(AlgebraError, match="G2: point not in the prime-order subgroup"):
        env.object_from_payload(SignerPublicKey, payload, real_pipeline.par.backend)
    assert batches == [258] and len(calls) == 1, (batches, len(calls))


@pytest.mark.parametrize("key, i, ell", [("pk_n", 0, 10069), ("pk_n", 250, 10069), ("pk_s", 128, 5864401)],
                         ids=["uPrime0", "uPrime250", "u128"])
def test_a_bad_state_takes_one_batch(real_dir, tmp_path, key, i, ell, monkeypatch):
    # the CI exit-2 loop's torsion states: the state is one object, so its failed batch names it
    obj = json.loads((real_dir / "state-advance.json").read_text())
    field = obj["payload"][key]["uPrime" if key == "pk_n" else "u"]
    pt = g2_add(algebra.words_point("G2", bytes.fromhex(field[i])), torsion_point(random.Random(ell), ell))
    field[i] = algebra.point_words("G2", pt).hex()
    (tmp_path / "state.json").write_text(json.dumps(obj))
    batches, all_in = [], bn254.g2_all_in_subgroup
    monkeypatch.setattr(bn254, "g2_all_in_subgroup", lambda pts: batches.append(len(pts)) or all_in(pts))
    with pytest.raises(env.EnvelopeError, match="state.json: G2: point not in the prime-order subgroup"):
        env.read_object(str(tmp_path / "state.json"), ct.ContractState)
    assert batches == [258 + 261], batches


@pytest.mark.parametrize("bad_key", ["spk", "npk"])
def test_two_keys_with_a_bad_point_take_two_batches(real_dir, tmp_path, bad_key, monkeypatch):
    # the failed batch of both keys, then the signer key's own batch, which names the file either way
    for name in ("spk", "npk"):
        obj = json.loads((real_dir / f"{name}.json").read_text())
        if name == bad_key:
            obj["payload"]["u" if name == "spk" else "uPrime"][100] = _bad_point("order 10069", "G2", False)
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    batches, all_in = [], bn254.g2_all_in_subgroup
    monkeypatch.setattr(bn254, "g2_all_in_subgroup", lambda pts: batches.append(len(pts)) or all_in(pts))
    reads = [(str(tmp_path / "spk.json"), SignerPublicKey), (str(tmp_path / "npk.json"), NomineePublicKey)]
    with pytest.raises(env.EnvelopeError, match=f"{bad_key}.json: G2: point not in the prime-order subgroup"):
        env.read_objects(reads, get_backend("bn254"))
    assert batches == [519, 258], batches


def test_envelope_version_gate():
    good = env.make_envelope("sigma", {})
    assert good["schema_version"] == 2
    assert env.parse_envelope(good) == ("sigma", {}, 2)
    assert env.parse_envelope({**good, "schema_version": 1}) == ("sigma", {}, 1)
    for bad in (
        {"schema_version": 3, "kind": "sigma", "payload": {}},
        {"schema_version": 0, "kind": "sigma", "payload": {}},
        {"schema_version": True, "kind": "sigma", "payload": {}},
        {"schema_version": 2.0, "kind": "sigma", "payload": {}},
        {"schema_version": 1.0, "kind": "sigma", "payload": {}},
        {"schema_version": "2", "kind": "sigma", "payload": {}},
        {"kind": "sigma", "payload": {}},
        {"schema_version": 1, "kind": "nope", "payload": {}},
        {"schema_version": 1, "kind": "sigma", "payload": []},
        [],
    ):
        with pytest.raises(env.EnvelopeError):
            env.parse_envelope(bad)
    with pytest.raises(env.EnvelopeError):
        env.parse_envelope(good, expected_kind="token")
    with pytest.raises(env.EnvelopeError):
        env.make_envelope("nope", {})


def test_file_roundtrip(tmp_path):
    path = str(tmp_path / "x.json")
    env.write_envelope(path, "token", {"a": 1})
    assert env.read_envelope(path, "token") == ("token", {"a": 1}, 2)
    env.write_envelope(path, "token", {"a": 1}, 1)
    assert env.read_envelope(path, "token") == ("token", {"a": 1}, 1)
    (tmp_path / "bad.json").write_text("{nope")
    with pytest.raises(env.EnvelopeError):
        env.read_envelope(str(tmp_path / "bad.json"))
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    with pytest.raises(env.EnvelopeError):
        env.read_envelope(str(tmp_path / "binary.json"))


def _roundtrip(obj, backend=None, context=None):
    return env.object_from_payload(type(obj), env.to_payload(obj, context), backend)


def test_key_payload_roundtrips(mock_pipeline):
    p = mock_pipeline
    for obj in (p.pk_s, p.sk_s, p.pk_n, p.sk_n):
        assert _roundtrip(obj) == obj
        assert _roundtrip(obj, p.par.backend) == obj
    par2 = _roundtrip(p.par)
    assert par2.backend.name == p.par.backend.name and par2.order == p.par.order


def test_key_role_mismatch_rejected(mock_pipeline):
    payload = env.to_payload(mock_pipeline.pk_s)
    with pytest.raises(env.EnvelopeError):
        env.object_from_payload(NomineePublicKey, payload)
    with pytest.raises(env.EnvelopeError):
        env.object_from_payload(PublicParams, payload)


def test_artifact_roundtrips(mock_pipeline):
    p = mock_pipeline
    for obj in (p.delta, p.sigma, p.tk):
        assert _roundtrip(obj) == obj


def test_real_backend_artifact_roundtrips(real_pipeline):
    p = real_pipeline
    assert _roundtrip(p.sigma) == p.sigma
    assert _roundtrip(p.tk, p.par.backend) == p.tk


def test_every_codec_type_names_its_dataclass_fields():
    for cls, (kind, _, fields) in env.CODEC.items():
        assert kind in env.KINDS
        if cls is not bool:
            assert list(fields) == [f.name for f in dataclasses.fields(cls)]


def test_scalars_must_be_canonical_and_in_range(mock_pipeline):
    payload = env.to_payload(mock_pipeline.sigma)
    for bad in (hex(2**300), hex(N), "-5", "-0x5", "5", "0x05", "0X5", "", 5, None):
        with pytest.raises(env.EnvelopeError):
            env.object_from_payload(NomSignature, {**payload, "s": bad})
    assert env.object_from_payload(NomSignature, {**payload, "s": hex(N - 1)}).s == N - 1
    secret = env.to_payload(mock_pipeline.sk_n)
    for field in ("y1", "y2"):
        with pytest.raises(env.EnvelopeError):
            env.object_from_payload(NomineeSecretKey, {**secret, field: "0x0"})
    assert env.object_from_payload(NomineeSecretKey, {**secret, "alphaN": "0x0"}).alphaN == 0


def test_backend_must_match_the_commands(mock_pipeline):
    p = mock_pipeline
    real = get_backend("bn254")
    for obj in (p.pk_s, p.delta, p.sigma, p.tk):
        with pytest.raises(env.EnvelopeError):
            _roundtrip(obj, real)
    # A payload that names bn254 but holds mock encodings fails in the group decoding.
    with pytest.raises(AlgebraError):
        env.object_from_payload(DeltaMsg, {**env.to_payload(p.delta), "backend": "bn254"})
    # Secret keys hold no group element and name no backend.
    assert _roundtrip(p.sk_s, real) == p.sk_s
    assert "backend" not in env.to_payload(p.sk_s)


def test_contract_state_roundtrip(mock_pipeline):
    p = mock_pipeline
    op = trigger.address_of(trigger.ecdsa_keygen(b"o").vk)
    inv = trigger.address_of(trigger.ecdsa_keygen(b"i").vk)
    ledger = ct.WalletLedger({op: 7, inv: 900})
    state = ct.deploy(p.m, op, inv, p.pk_s, p.pk_n, p.par, 5, 300)
    ct.pay_advance(state, ledger, 5)
    ct.store_signature(state, p.sigma)
    state2, ledger2 = _roundtrip(state, context=ledger)
    assert state2.phase is state.phase
    assert state2.m == state.m
    assert state2.stored_sigma == state.stored_sigma
    assert state2.pk_s == state.pk_s and state2.pk_n == state.pk_n
    assert ledger2.balances == ledger.balances
    payload = env.to_payload(state, ledger)
    for edit in ({"sigma": None}, {"ledger": []}, {"ledger": {op.hex(): -1, inv.hex(): 900}},
                 {"ledger": {op.hex(): 7}}, {"phase": "Nope"}, {"used_nonces": 3},
                 {"pk_s": {**payload["pk_s"], "backend": "bn254"}}):
        with pytest.raises(env.EnvelopeError):
            env.object_from_payload(ct.ContractState, {**payload, **edit})


def test_contract_state_checks_its_other_fields_before_decoding_keys(real_pipeline, monkeypatch):
    # a malformed ledger or amount exits before the ~519 G2 points of the keys are decoded
    p = real_pipeline
    op = trigger.address_of(trigger.ecdsa_keygen(b"o").vk)
    inv = trigger.address_of(trigger.ecdsa_keygen(b"i").vk)
    state = ct.deploy(p.m, op, inv, p.pk_s, p.pk_n, p.par, 5, 300)
    payload = env.to_payload(state, ct.WalletLedger({op: 7, inv: 900}))

    def refuse(self, group, *_):
        raise AssertionError(f"decoded a {group} element")

    monkeypatch.setattr(type(p.par.backend), "deserialize", refuse)
    monkeypatch.setattr(type(p.par.backend), "point", refuse)
    for edit in ({"ledger": {op.hex(): 2**256, inv.hex(): 900}}, {"ledger": {op.hex(): 7}},
                 {"ledger": []}, {"advance_required": 2**256}, {"investment_amount": 0},
                 {"used_nonces": [2**256]}, {"used_nonces": [-1]}, {"operator": "zz"},
                 {"phase": "SignatureStored"}):
        with pytest.raises(env.EnvelopeError):
            env.object_from_payload(ct.ContractState, {**payload, **edit})
    with pytest.raises(AssertionError, match="decoded a G"):
        env.object_from_payload(ct.ContractState, payload)


def test_receipt_roundtrip():
    rep = build_report(OpCounts(8, 256, 2))
    rc = ct.ExecutionReceipt(verdict=True, gas=rep, transfer=(b"a" * 20, b"b" * 20, 5))
    assert _roundtrip(rc) == rc
    rc2 = ct.ExecutionReceipt(verdict=False, gas=rep)
    assert _roundtrip(rc2) == rc2
    payload = env.to_payload(rc)
    for edit in ({"verdict": "maybe"}, {"transfer": None}, {"gas": []},
                 {"gas": {**payload["gas"], "total_gas": 1}},
                 {"gas": {**payload["gas"], "eth_cost": 5}}):
        with pytest.raises(env.EnvelopeError):
            env.object_from_payload(ct.ExecutionReceipt, {**payload, **edit})


def test_transcript_messages_roundtrip(mock_pipeline):
    p = mock_pipeline
    stmt = zkproto.derive_statement(p.par, p.pk_s, p.pk_n, p.m, p.sigma)
    ok, tr = zkproto.run_confirm(stmt, p.sk_n, random.Random(1), random.Random(2))
    assert ok
    for pass_name, msg in zip(PASSES, tr.messages()):
        payload = env.to_payload(msg, "mock")
        assert payload["pass"] == pass_name
        assert env.object_from_payload(type(msg), payload) == msg
        assert env.object_from_payload(type(msg), payload, p.par.backend) == msg
        with pytest.raises(env.EnvelopeError):
            env.object_from_payload(type(msg), payload, get_backend("bn254"))
    with pytest.raises(env.EnvelopeError):
        env.to_payload(object(), "mock")
    with pytest.raises(env.EnvelopeError):
        env.object_from_payload(zkproto.ChallengeCommitment, {"backend": "mock", "pass": "nope", "body": {}})
    with pytest.raises(env.EnvelopeError):
        env.object_from_payload(bool, {"backend": "mock", "pass": "verdict", "body": {"verdict": 1}})


def test_disavow_messages_roundtrip_with_optional_fields(mock_pipeline):
    p = mock_pipeline
    bad = dataclasses.replace(p.sigma, s=(p.sigma.s + 1) % N)
    stmt = zkproto.derive_statement(p.par, p.pk_s, p.pk_n, p.m, bad)
    ok, tr = zkproto.run_disavow(stmt, p.sk_n, random.Random(3), random.Random(4))
    assert ok and tr.first.C is not None and tr.response.z3 is not None
    for msg in (tr.first, tr.response):
        assert _roundtrip(msg, context="mock") == msg
    assert env.to_payload(zkproto.SigmaResponse(1, 2), "mock")["body"]["z3"] is None
