"""The three workloads: ``trigger``, ``issue`` and ``cli``.

Each workload generates every input from its seed, sets up (a step that is
repeated and timed), yields ops for the closed loop, checks every op's
output, and reports its workload properties once the loop has ended.

* ``trigger``: the contract side. Each op is one ``contract.submit_trigger``
  on a freshly deployed, funded contract with sigma stored. Every fourth op
  is tampered (tk1, tk2, sigma.s3 or an ECDSA signature from the wrong key,
  in rotation) and must reject and leave the contract armed; the op after
  it is the honest submission (on the same contract, or on a fresh one when
  the stored sigma itself was tampered).
* ``issue``: the nominee session. Each op signs a fresh message through
  sign -> receive -> convert, confirms sigma, and disavows a copy of sigma
  with one tampered component.
* ``cli``: the README pipeline, one ``python -m nomsig.cli`` child process
  per op, whole passes at a time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random
from statistics import fmean, median

from harness import Op

PERFBENCH = Path(__file__).resolve().parent

TRIPLES = 3
TAMPERS = ("tk1", "tk2", "s3", "ecdsa")

# Gas figures from the paper and the precompile cost table.
PAIRINGS = 8
PAIRING_GAS = 45_000 + 34_000 * PAIRINGS
EC_ADD_GAS = 150
REFERENCE_GAS = 355_400
ECRECOVER_GAS = 3_000
REFERENCE_RATIO = 118.5
GAS_WINDOW = 1_000
# Standard deviation of one submission's gas over random inputs: two
# 256-bit Hamming weights, each with variance 64, priced at 150 gas an add.
WATERS_GAS_SD = EC_ADD_GAS * math.sqrt(2 * 64)

CHILD_TIMEOUT_S = 150


def hamming(bits: bytes) -> int:
    return int.from_bytes(bits, "big").bit_count()


def waters_weights(par, pk_s, pk_n, m, sigma) -> tuple[int, int]:
    """Hamming weights of the two Waters inputs, F_S's and F_N's."""
    from nomsig import scheme

    d = scheme.derive_values(par, pk_s, pk_n, m, sigma)
    return hamming(d.MS), hamming(d.MNbits)


def ecdsa_oracle_errors(sig, message: bytes, vk) -> list:
    """Check an ECDSA signature with the ``cryptography`` package's secp256k1."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import ec, utils
    from nomsig import trigger

    errors = []
    key = ec.EllipticCurvePublicNumbers(vk[0], vk[1], ec.SECP256K1()).public_key()
    try:
        key.verify(
            utils.encode_dss_signature(sig.r, sig.s),
            hashlib.sha256(message).digest(),
            ec.ECDSA(utils.Prehashed(hashes.SHA256())),
        )
    except InvalidSignature:
        errors.append("signature fails cryptography's secp256k1 ECDSA verification")
    if trigger.ecdsa_recover(sig, message) != vk:
        errors.append("ecdsa_recover did not return the signing key")
    return errors


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big") + part)
    return h.hexdigest()


class Workload:
    name = ""
    setup_reps = 3  # set-ups timed per run; setup_s is their median

    def __init__(self, seed: int, backend: str):
        self.seed = seed
        self.backend = backend
        # (name, errors) of checks outside the ops: set-up and whole-run checks.
        self.checks: list[tuple[str, list]] = []

    def setup(self):
        """One set-up; timed and repeated, so it must be repeatable."""

    def prepare(self):
        """Input preparation after the set-up; timed once, part of setup_s."""

    def after_setup(self):
        """Untimed work between set-up and the first op (oracle checks)."""

    def ops(self):
        raise NotImplementedError

    def finish(self, labels: list) -> dict:
        """Whole-run checks; returns the workload properties."""
        raise NotImplementedError

    def extra_metrics(self) -> dict:
        return {}

    def close(self):
        pass


# ---------------------------------------------------------------------------
# trigger
# ---------------------------------------------------------------------------


@dataclass
class Triple:
    m: bytes
    sigma: object
    tk: object
    balance: int
    advance: int
    investment: int
    tx: object
    sig_e: object
    sig_wrong: object
    ec_additions: int = 0
    waters_hw: float = 0.0


class TriggerWorkload(Workload):
    name = "trigger"

    def __init__(self, seed, backend):
        super().__init__(seed, backend)
        self.gas: list = []
        self.ratios: list = []

    def setup(self):
        from nomsig import scheme, trigger

        rng = Random(f"trigger-{self.seed}")
        self.par = scheme.setup(backend=self.backend)
        self.pk_s, self.sk_s = scheme.keygen_signer(self.par, rng)
        self.pk_n, self.sk_n = scheme.keygen_nominee(self.par, rng)
        operator = trigger.ecdsa_keygen(rng.randbytes(16))
        self.investor = trigger.ecdsa_keygen(rng.randbytes(16))
        self.wrong = trigger.ecdsa_keygen(rng.randbytes(16))
        self.op_addr = trigger.address_of(operator.vk)
        self.inv_addr = trigger.address_of(self.investor.vk)
        self.rng = rng

    def prepare(self):
        from nomsig import contract as ct
        from nomsig import scheme, trigger

        par, pk_s, pk_n, rng = self.par, self.pk_s, self.pk_n, self.rng
        self.triples = []
        for _ in range(TRIPLES):
            m = b"program " + rng.randbytes(24).hex().encode()
            delta = scheme.sign(par, pk_s, pk_n, m, self.sk_s, rng)
            sigma = scheme.receive(par, pk_s, pk_n, m, delta, self.sk_n, rng)
            tk = scheme.convert(par, pk_s, pk_n, m, sigma, self.sk_n)
            balance = rng.randrange(10_000, 1_000_000)
            advance = rng.randrange(1, 1_000)
            investment = rng.randrange(1_000, balance - advance)
            tx = ct.TransactionRecord(self.inv_addr, self.op_addr, investment, rng.randrange(1, 2**32))
            msg = tx.serialize()
            self.triples.append(Triple(
                m, sigma, tk, balance, advance, investment, tx,
                trigger.ecdsa_sign(self.investor.sk, msg), trigger.ecdsa_sign(self.wrong.sk, msg),
            ))

    def after_setup(self):
        from nomsig.scheme import VerificationToken

        par = self.par
        for j, tr in enumerate(self.triples):
            if tr.sigma is None or tr.tk is None:
                raise RuntimeError(f"set-up: receive or convert rejected honest triple {j}")
            msg = tr.tx.serialize()
            self.checks.append((f"triple {j} ECDSA", ecdsa_oracle_errors(tr.sig_e, msg, self.investor.vk)))
            self.checks.append((f"triple {j} wrong-key ECDSA", ecdsa_oracle_errors(tr.sig_wrong, msg, self.wrong.vk)))
            hw_s, hw_n = waters_weights(par, self.pk_s, self.pk_n, tr.m, tr.sigma)
            tr.ec_additions = hw_s + hw_n + 2
            tr.waters_hw = (hw_s + hw_n) / 2
        self.tampered = {
            "tk1": lambda tr: (tr.sigma, VerificationToken(tr.tk.tk1 * par.g1, tr.tk.tk2)),
            "tk2": lambda tr: (tr.sigma, VerificationToken(tr.tk.tk1, tr.tk.tk2 * par.g1)),
            "s3": lambda tr: (replace(tr.sigma, s3=tr.sigma.s3 * par.g2), tr.tk),
            "ecdsa": lambda tr: (tr.sigma, tr.tk),
        }

    def _arm(self, tr, sigma):
        from nomsig import contract as ct

        ledger = ct.WalletLedger({self.op_addr: 0, self.inv_addr: tr.balance})
        state = ct.deploy(tr.m, self.op_addr, self.inv_addr, self.pk_s, self.pk_n,
                          self.par, tr.advance, tr.investment)
        ct.pay_advance(state, ledger, tr.advance)
        ct.store_signature(state, sigma)
        return state, ledger

    def _submission(self, j, kind=None, armed=None, new_group=True):
        from nomsig import contract as ct

        tr = self.triples[j]
        sigma, tk = self.tampered[kind](tr) if kind else (tr.sigma, tr.tk)
        state, ledger = armed or self._arm(tr, sigma)
        sub = ct.TriggerSubmission(tk, tr.tx, tr.sig_wrong if kind == "ecdsa" else tr.sig_e)
        before, total = dict(ledger.balances), ledger.total_supply()

        def check(receipt):
            return self._check(tr, state, ledger, before, total, kind is None, receipt)

        op = Op(f"{kind or 'honest'}:{j}", lambda: ct.submit_trigger(state, ledger, sub),
                check, new_group)
        return op, (state, ledger)

    def ops(self):
        k = len(self.triples)
        for cycle in itertools.count():
            for j in ((2 * cycle) % k, (2 * cycle + 1) % k):
                yield self._submission(j)[0]
            kind = TAMPERS[cycle % len(TAMPERS)]
            j = cycle % k
            op, armed = self._submission(j, kind)
            yield op
            yield self._submission(j, armed=None if kind == "s3" else armed, new_group=False)[0]

    def _check(self, tr, state, ledger, before, total, expect, receipt) -> list:
        from nomsig import contract as ct
        from nomsig import gasmodel

        errors = []
        if receipt.verdict is not expect:
            errors.append(f"verdict {receipt.verdict}, expected {expect}")
        if ledger.total_supply() != total:
            errors.append("ledger supply not conserved")
        want = dict(before)
        if expect:
            want[self.inv_addr] -= tr.investment
            want[self.op_addr] += tr.investment
        if ledger.balances != want:
            errors.append("balances differ from the expected transfer")
        phase = ct.Phase.EXECUTED if expect else ct.Phase.SIGNATURE_STORED
        if state.phase is not phase:
            errors.append(f"phase {state.phase.value}, expected {phase.value}")
        gas = receipt.gas
        self.gas.append(gas.tkverify_gas)
        self.ratios.append(float(gasmodel.ratio_vs_ecrecover(gas)))
        if gas.pairing_pairs != PAIRINGS:
            errors.append(f"{gas.pairing_pairs} pairings metered, expected {PAIRINGS}")
        if gas.tkverify_gas != PAIRING_GAS + EC_ADD_GAS * gas.ec_additions:
            errors.append(f"gas {gas.tkverify_gas} does not price {gas.ec_additions} additions")
        if gas.ec_additions != tr.ec_additions:
            errors.append(f"{gas.ec_additions} additions metered, Waters inputs give {tr.ec_additions}")
        return errors

    def finish(self, labels):
        # The run's mean gas estimates the mean over random inputs from only
        # TRIPLES distinct Waters inputs, so the paper's 1,000-gas window is
        # widened by three standard errors of that estimate.
        window = GAS_WINDOW + 3 * WATERS_GAS_SD / math.sqrt(len(self.triples))
        mean_gas, mean_ratio = fmean(self.gas), fmean(self.ratios)
        self.checks.append(("tkverify_gas_mean", [] if abs(mean_gas - REFERENCE_GAS) <= window
                            else [f"mean gas {mean_gas:.1f} outside {REFERENCE_GAS} +- {window:.0f}"]))
        self.checks.append(("ecrecover ratio", [] if abs(mean_ratio - REFERENCE_RATIO) <= window / ECRECOVER_GAS
                            else [f"mean ratio {mean_ratio:.2f}, expected about {REFERENCE_RATIO}"]))
        ops = [label.split(":") for label in labels]
        # A tk1/tk2/s3 tamper changes (m, sigma, tk); a wrong ECDSA key does not.
        keys = [(j, kind if kind in ("tk1", "tk2", "s3") else "honest") for kind, j in ops]
        seen: set = set()
        repeats = 0
        for key in keys:
            repeats += key in seen
            seen.add(key)
        return {
            "input_digest": _digest(*(
                part for tr in self.triples
                for part in (tr.m, tr.sigma.s1.to_bytes(), tr.sigma.s2.to_bytes(),
                             tr.sigma.s3.to_bytes(), tr.tk.tk1.to_bytes(), tr.tk.tk2.to_bytes(),
                             tr.tx.serialize(), tr.sig_e.to_bytes(), tr.sig_wrong.to_bytes())
            )),
            "repeated_input_share": repeats / len(keys),
            "tampered_share": sum(kind != "honest" for kind, _ in ops) / len(ops),
            "mean_waters_hamming_weight": fmean(self.triples[int(j)].waters_hw for _, j in ops),
        }

    def extra_metrics(self):
        return {"tkverify_gas_mean": (fmean(self.gas), "gas")}


# ---------------------------------------------------------------------------
# issue
# ---------------------------------------------------------------------------


ISSUE_TAMPERS = ("s1", "s2", "s3", "s")
DIGEST_OPS = 16


class IssueWorkload(Workload):
    name = "issue"

    def __init__(self, seed, backend):
        super().__init__(seed, backend)
        self.messages: list = []
        self.weights: list = []

    def setup(self):
        from nomsig import scheme

        rng = Random(f"issue-{self.seed}")
        self.par = scheme.setup(backend=self.backend)
        self.pk_s, self.sk_s = scheme.keygen_signer(self.par, rng)
        self.pk_n, self.sk_n = scheme.keygen_nominee(self.par, rng)

    def _op_rng(self, i):
        rng = Random(f"issue-{self.seed}-{i}")
        return rng, rng.randbytes(32)

    def _tamper(self, sigma, kind):
        par = self.par
        if kind == "s":
            return replace(sigma, s=(sigma.s + 1) % par.order)
        g = par.g2 if kind == "s3" else par.g1
        return replace(sigma, **{kind: getattr(sigma, kind) * g})

    def ops(self):
        for i in itertools.count():
            rng, m = self._op_rng(i)
            kind = ISSUE_TAMPERS[i % len(ISSUE_TAMPERS)]
            yield Op(f"{kind}:{i}", lambda rng=rng, m=m, kind=kind: self._session(rng, m, kind),
                     lambda out, m=m: self._check(m, out))

    def _session(self, rng, m, kind):
        from nomsig import scheme, zkproto

        par, pk_s, pk_n, sk_n = self.par, self.pk_s, self.pk_n, self.sk_n
        delta = scheme.sign(par, pk_s, pk_n, m, self.sk_s, rng)
        sigma = scheme.receive(par, pk_s, pk_n, m, delta, sk_n, rng)
        if sigma is None:
            return {"sigma": None}
        tk = scheme.convert(par, pk_s, pk_n, m, sigma, sk_n)
        stmt = zkproto.derive_statement(par, pk_s, pk_n, m, sigma)
        confirm, _ = zkproto.run_confirm(stmt, sk_n, Random(rng.random()), Random(rng.random()))
        bad = zkproto.derive_statement(par, pk_s, pk_n, m, self._tamper(sigma, kind))
        disavow, _ = zkproto.run_disavow(bad, sk_n, Random(rng.random()), Random(rng.random()))
        return {"sigma": sigma, "tk": tk, "confirm": confirm, "disavow": disavow}

    def _check(self, m, out) -> list:
        self.messages.append(m)
        if out["sigma"] is None:
            return ["receive rejected an honest delta"]
        errors = []
        if out["tk"] is None:
            errors.append("convert rejected an honest sigma")
        if out["confirm"] is not True:
            errors.append("confirm rejected a valid sigma")
        if out["disavow"] is not True:
            errors.append("disavow rejected a tampered sigma")
        self.weights.extend(waters_weights(self.par, self.pk_s, self.pk_n, m, out["sigma"]))
        return errors

    def finish(self, labels):
        first = [self._op_rng(i)[1] for i in range(DIGEST_OPS)]
        return {
            "input_digest": _digest(self.pk_s.to_bytes(), self.pk_n.to_bytes(), *first),
            "repeated_input_share": 1 - len(set(self.messages)) / len(self.messages),
            # Every op disavows a tampered copy of its sigma.
            "tampered_share": 1.0,
            "mean_waters_hamming_weight": fmean(self.weights) if self.weights else 0.0,
        }


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


CLI_COMMANDS = [
    "setup", "keygen_signer", "keygen_nominee", "sign", "receive", "convert",
    "deploy", "pay_advance", "store_sig", "trigger_reject", "trigger_accept",
    "report_gas", "truncated_key",
]


class CliWorkload(Workload):
    name = "cli"
    setup_reps = 9  # the set-up is one short child process, so take more

    def __init__(self, seed, backend, root: Path, traced: bool, meter):
        super().__init__(seed, backend)
        self.traced = traced
        self.meter = meter
        self.workdir = root / ".perfbench-work" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.span_files: list = []
        self.weights: list = []
        self.argv_log: list = []

    def setup(self):
        rc, stderr = self._child([sys.executable, "-c", "import nomsig.cli"], self.workdir)
        if rc != 0:
            raise RuntimeError(f"importing nomsig.cli failed:\n{stderr}")

    def _child(self, cmd, cwd) -> tuple[int, str]:
        """Run one child process; its exit code and standard error."""
        proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, text=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.meter.child = proc.pid
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, stderr = proc.communicate()
        finally:
            self.meter.child = None
        return proc.returncode, stderr

    def _pass_steps(self, n):
        rng = Random(f"cli-{self.seed}-{n}")
        d = self.workdir / f"pass-{n}"
        m = rng.randbytes(48)
        seeds = [str(rng.randrange(2**31)) for _ in range(5)]
        balance = rng.randrange(10_000, 1_000_000)
        advance = rng.randrange(1, 1_000)
        investment = rng.randrange(1_000, balance - advance)
        op_seed, inv_seed = rng.randbytes(8).hex(), rng.randbytes(8).hex()
        nonce = str(rng.randrange(1, 2**32))
        keys = ["--params", "params.json", "--signer-pub", "spk.json", "--nominee-pub", "npk.json"]
        nsec = ["--nominee-sec", "nsk.json", "--message-file", "m.bin"]
        trig = ["trigger", "--state", "state.json", "--investor-seed", inv_seed, "--nonce", nonce]

        def start():
            d.mkdir()
            (d / "m.bin").write_bytes(m)

        def bad_token():
            env = json.loads((d / "token.json").read_text())
            p = env["payload"]
            p["tk1"], p["tk2"] = p["tk2"], p["tk1"]
            (d / "token-bad.json").write_text(json.dumps(env))

        def truncated_key():
            raw = (d / "spk.json").read_bytes()
            (d / "spk-truncated.json").write_bytes(raw[: len(raw) // 2])

        # (label, argv, expected exit code, untimed preparation, output file)
        return m, [
            ("setup", ["setup", "--backend", self.backend, "--out", "params.json"], 0, start, "params.json"),
            ("keygen_signer", ["keygen-signer", "--params", "params.json", "--seed", seeds[0],
                               "--pub-out", "spk.json", "--sec-out", "ssk.json"], 0, None, "ssk.json"),
            ("keygen_nominee", ["keygen-nominee", "--params", "params.json", "--seed", seeds[1],
                                "--pub-out", "npk.json", "--sec-out", "nsk.json"], 0, None, "nsk.json"),
            ("sign", ["sign", *keys, "--signer-sec", "ssk.json", "--message-file", "m.bin",
                      "--seed", seeds[2], "--out", "delta.json"], 0, None, "delta.json"),
            ("receive", ["receive", *keys, *nsec, "--delta", "delta.json", "--seed", seeds[3],
                         "--out", "sigma.json"], 0, None, "sigma.json"),
            ("convert", ["convert", *keys, *nsec, "--sigma", "sigma.json", "--out", "token.json"],
             0, None, "token.json"),
            ("deploy", ["deploy", *keys, "--message-file", "m.bin", "--operator-seed", op_seed,
                        "--investor-seed", inv_seed, "--investor-balance", str(balance),
                        "--advance", str(advance), "--investment", str(investment),
                        "--state-out", "state.json"], 0, None, "state.json"),
            ("pay_advance", ["pay-advance", "--state", "state.json", "--amount", str(advance)],
             0, None, None),
            ("store_sig", ["store-sig", "--state", "state.json", "--sigma", "sigma.json"], 0, None, None),
            ("trigger_reject", [*trig, "--token", "token-bad.json", "--receipt-out", "receipt-bad.json"],
             1, bad_token, "receipt-bad.json"),
            ("trigger_accept", [*trig, "--token", "token.json", "--receipt-out", "receipt.json"],
             0, None, "receipt.json"),
            ("report_gas", ["report-gas", "--receipt", "receipt.json"], 0, None, None),
            ("truncated_key", ["sign", "--params", "params.json", "--signer-pub", "spk-truncated.json",
                               "--signer-sec", "ssk.json", "--nominee-pub", "npk.json",
                               "--message-file", "m.bin", "--seed", seeds[4], "--out", "delta2.json"],
             2, truncated_key, None),
        ]

    def ops(self):
        for n in itertools.count():
            m, steps = self._pass_steps(n)
            d = self.workdir / f"pass-{n}"
            self.argv_log.append([m] + [" ".join(argv).encode() for _, argv, *_ in steps])
            for k, (label, argv, rc, prepare, output) in enumerate(steps):
                cmd = [sys.executable, "-m", "nomsig.cli", *argv]
                if self.traced:
                    spans = self.workdir / f"spans-{len(self.span_files)}.json"
                    self.span_files.append(spans)
                    cmd = [sys.executable, str(PERFBENCH / "cli_child.py"), str(spans), *argv]
                yield Op(label, lambda cmd=cmd: self._child(cmd, d),
                         lambda out, label=label, rc=rc, output=output: self._check(d, label, rc, output, out),
                         new_group=k == 0, prepare=prepare)

    def _check(self, d, label, rc, output, out) -> list:
        errors = []
        got, stderr = out
        if got != rc:
            tail = stderr.strip().splitlines()[-3:]
            errors.append(f"exit code {got}, expected {rc}: {' | '.join(tail)}")
        if output is not None and not (d / output).is_file():
            errors.append(f"{output} was not written")
        if label.startswith("trigger_") and (d / output).is_file():
            gas = json.loads((d / output).read_text())["payload"]["gas"]
            if gas["pairing_pairs"] != PAIRINGS or \
                    gas["tkverify_gas"] != PAIRING_GAS + EC_ADD_GAS * gas["ec_additions"]:
                errors.append(f"receipt gas {gas} does not follow the cost table")
            if label == "trigger_accept":
                self.weights.append((gas["ec_additions"] - 2) / 2)
        return errors

    def finish(self, labels):
        return {
            "input_digest": _digest(*self.argv_log[0]),
            "repeated_input_share": 0.0,
            "tampered_share": sum(lb in ("trigger_reject", "truncated_key") for lb in labels) / len(labels),
            "mean_waters_hamming_weight": fmean(self.weights) if self.weights else 0.0,
        }

    def command_times(self, labels, latencies) -> dict:
        out = {}
        for name in CLI_COMMANDS:
            times = [t for lb, t in zip(labels, latencies) if lb == name]
            out[f"cli.{name}_s"] = median(times) if times else 0.0
        return out

    def child_traces(self):
        """Spans and counts written by the traced children, in op order."""
        spans, counts = [], {}
        for op, path in enumerate(self.span_files):
            if not path.is_file():
                continue
            data = json.loads(path.read_text())
            base = len(spans)
            for name, start, end, parent, _ in data["spans"]:
                spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
            for name, value in data["counts"].items():
                counts[name] = counts.get(name, 0) + value
        return spans, counts

    def close(self):
        import shutil

        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


WORKLOADS = {"trigger": TriggerWorkload, "issue": IssueWorkload, "cli": CliWorkload}

