"""Command-line front end for the escrow pipeline.

Every stage reads and writes versioned JSON envelopes, so the output of
one command feeds the next. Exit codes are part of the interface: 0 for
accept or success, 1 for a verification reject, 2 for malformed input.
The interactive confirm/disavow protocols run as two cooperating
processes exchanging numbered message files in a transport directory.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path
from random import Random, SystemRandom

import click

from . import contract as ct
from . import envelopes as env
from . import gasmodel, scheme, trigger, zkproto
from .algebra import AlgebraError

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_MALFORMED = 2

TRANSPORT_TIMEOUT = 120.0

# The --seed of keygen-signer, keygen-nominee, sign, receive, confirm and disavow.
_seed_option = click.option("--seed", type=int, default=None, help="A seeded run is deterministic and meant for "
                            "tests: it repeats its secrets. Without --seed they are drawn from the OS by "
                            "random.SystemRandom, the class secrets.SystemRandom names.")


def _rng(seed):
    return SystemRandom() if seed is None else Random(seed)


class MalformedInput(click.ClickException):
    exit_code = EXIT_MALFORMED


# Which failure gets which exit code, for every command: a verification or
# contract reject exits 1 with "reject: <reason>", malformed input exits 2.
# REJECTS is matched first, since its classes are ContractErrors. Any other
# exception is a bug and keeps its traceback.
REJECTS = (ct.WrongPhase, ct.InsufficientAdvance, ct.InsufficientFunds, ct.BalanceOverflow, ct.NonceReplayed)
MALFORMED = (env.EnvelopeError, AlgebraError, scheme.SchemeError, ct.ContractError, gasmodel.GasModelError,
             OSError)


def _reject(reason) -> None:
    click.echo(f"reject: {reason}")
    sys.exit(EXIT_REJECT)


class _Commands(click.Group):
    """A command group that turns the failures in REJECTS and MALFORMED into their exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except REJECTS as exc:
            _reject(exc)
        except MALFORMED as exc:
            raise MalformedInput(str(exc)) from exc


def _write_keys(pub_out: str, pk, sec_out: str, sk) -> None:
    """Write the public and the secret key file, or neither."""
    env.write_object(pub_out, pk)
    try:
        env.write_object(sec_out, sk)
    except OSError:
        Path(pub_out).unlink()
        raise


def _cost_table(path) -> gasmodel.CostTable:
    return gasmodel.CostTable() if path is None else gasmodel.CostTable.from_file(path)


@click.group(cls=_Commands)
def main():
    """Nominative-signature escrow toolkit."""


@main.command("setup")
@click.option("--backend", default="bn254", show_default=True)
@click.option("--out", required=True, type=click.Path())
def cmd_setup(backend, out):
    """Write the public parameter envelope."""
    env.write_object(out, scheme.setup(backend=backend))
    click.echo(f"params written to {out}")


def _keygen_command(role: str) -> None:
    """Add keygen-<role>. It looks ``scheme.keygen_<role>`` up when it runs, so a later wrapper on it is called."""

    @main.command(f"keygen-{role}")
    @click.option("--params", "params_path", required=True, type=click.Path())
    @_seed_option
    @click.option("--pub-out", required=True, type=click.Path())
    @click.option("--sec-out", required=True, type=click.Path())
    def cmd(params_path, seed, pub_out, sec_out):
        pk, sk = getattr(scheme, f"keygen_{role}")(env.read_object(params_path, scheme.PublicParams), _rng(seed))
        _write_keys(pub_out, pk, sec_out, sk)
        click.echo(f"{role} keys written to {pub_out}, {sec_out}")


_keygen_command("signer")
_keygen_command("nominee")


def _scheme_inputs(fn):
    """Give a command the options --params, --signer-pub, --nominee-pub and
    --message-file, and call it with what they hold, (par, pk_s, pk_n, m)."""

    @functools.wraps(fn)
    def read(params_path, signer_pub, nominee_pub, message_file, **options):
        par = env.read_object(params_path, scheme.PublicParams)
        keys = [(signer_pub, scheme.SignerPublicKey), (nominee_pub, scheme.NomineePublicKey)]
        pk_s, pk_n = env.read_objects(keys, par.backend)  # both keys' G2 points in one batch
        return fn(par, pk_s, pk_n, Path(message_file).read_bytes(), **options)

    for opt in reversed([
        click.option("--params", "params_path", required=True, type=click.Path()),
        click.option("--signer-pub", required=True, type=click.Path()),
        click.option("--nominee-pub", required=True, type=click.Path()),
        click.option("--message-file", required=True, type=click.Path()),
    ]):
        read = opt(read)
    return read


@main.command("sign")
@_scheme_inputs
@click.option("--signer-sec", required=True, type=click.Path())
@_seed_option
@click.option("--out", required=True, type=click.Path())
def cmd_sign(par, pk_s, pk_n, m, signer_sec, seed, out):
    """Produce the signer's partial signature over the program source."""
    sk_s = env.read_object(signer_sec, scheme.SignerSecretKey)
    delta = scheme.sign(par, pk_s, pk_n, m, sk_s, _rng(seed))
    env.write_object(out, delta)
    click.echo(f"delta written to {out}")


@main.command("receive")
@_scheme_inputs
@click.option("--nominee-sec", required=True, type=click.Path())
@click.option("--delta", "delta_path", required=True, type=click.Path())
@_seed_option
@click.option("--out", required=True, type=click.Path())
def cmd_receive(par, pk_s, pk_n, m, nominee_sec, delta_path, seed, out):
    """Nominee check of the partial signature; writes sigma or rejects."""
    sk_n = env.read_object(nominee_sec, scheme.NomineeSecretKey)
    delta = env.read_object(delta_path, scheme.DeltaMsg, par.backend)
    sigma = scheme.receive(par, pk_s, pk_n, m, delta, sk_n, _rng(seed))
    if sigma is None:
        _reject("partial signature invalid")
    env.write_object(out, sigma)
    click.echo(f"sigma written to {out}")


@main.command("convert")
@_scheme_inputs
@click.option("--nominee-sec", required=True, type=click.Path())
@click.option("--sigma", "sigma_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def cmd_convert(par, pk_s, pk_n, m, nominee_sec, sigma_path, out):
    """Derive the public verification token from a valid sigma."""
    sk_n = env.read_object(nominee_sec, scheme.NomineeSecretKey)
    sigma = env.read_object(sigma_path, scheme.NomSignature, par.backend)
    tk = scheme.convert(par, pk_s, pk_n, m, sigma, sk_n)
    if tk is None:
        _reject("sigma invalid, no token issued")
    env.write_object(out, tk)
    click.echo(f"token written to {out}")


# ---------------------------------------------------------------------------
# Interactive protocols over a file-exchange transport
# ---------------------------------------------------------------------------

# One file per pass, named by the message type it carries; the verdict is a bool.
_PASS_FILES = {
    zkproto.ChallengeCommitment: "01-commitment.json",
    zkproto.SigmaFirstMsg: "02-first.json",
    zkproto.ChallengeOpening: "03-opening.json",
    zkproto.SigmaResponse: "04-response.json",
    bool: "05-verdict.json",
}


def _send(tdir: Path, backend, msg) -> None:
    env.write_object(str(tdir / _PASS_FILES[type(msg)]), msg, backend.name)


def _recv(tdir: Path, backend, cls):
    path = tdir / _PASS_FILES[cls]
    deadline = time.monotonic() + TRANSPORT_TIMEOUT
    while not path.exists():
        if time.monotonic() > deadline:
            raise MalformedInput(f"timed out waiting for {path.name}")
        time.sleep(0.05)
    return env.read_object(str(path), cls, backend)


def _interactive(protocol, par, pk_s, pk_n, m, role, nominee_sec, sigma_path, transport_dir, seed):
    sigma = env.read_object(sigma_path, scheme.NomSignature, par.backend)
    sk_n = env.read_object(nominee_sec, scheme.NomineeSecretKey) if role == "prover" else None
    stmt = zkproto.derive_statement(par, pk_s, pk_n, m, sigma)
    tdir = Path(transport_dir)
    tdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed)
    b = par.backend

    if role == "verifier":
        verifier = zkproto.Verifier(protocol, stmt, rng)
        _send(tdir, b, verifier.commitment())
        first = _recv(tdir, b, zkproto.SigmaFirstMsg)
        _send(tdir, b, verifier.opening())
        verdict = verifier.verdict(first, _recv(tdir, b, zkproto.SigmaResponse))
        _send(tdir, b, verdict)
    else:
        prover = zkproto.Prover(protocol, stmt, sk_n, rng)
        _send(tdir, b, prover.first_message(_recv(tdir, b, zkproto.ChallengeCommitment)))
        opening = _recv(tdir, b, zkproto.ChallengeOpening)
        try:
            _send(tdir, b, prover.response(opening))
        except zkproto.AbortBadOpening as exc:
            click.echo(f"abort: {exc}")
            sys.exit(EXIT_REJECT)
        verdict = _recv(tdir, b, bool)
    click.echo("verdict accept" if verdict else "verdict reject")
    sys.exit(EXIT_ACCEPT if verdict else EXIT_REJECT)


def _protocol_options(fn):
    """The other options of confirm and disavow; a prover without --nominee-sec is refused before any input is read."""

    @functools.wraps(fn)
    def checked(**options):
        if options["role"] == "prover" and options["nominee_sec"] is None:
            raise MalformedInput("the prover role requires --nominee-sec")
        return fn(**options)

    for opt in reversed([
        click.option("--role", type=click.Choice(["prover", "verifier"]), required=True),
        click.option("--nominee-sec", default=None, type=click.Path()),
        click.option("--sigma", "sigma_path", required=True, type=click.Path()),
        click.option("--transport-dir", required=True, type=click.Path()),
        _seed_option,
    ]):
        checked = opt(checked)
    return checked


@main.command("confirm")
@_protocol_options
@_scheme_inputs
def cmd_confirm(par, pk_s, pk_n, m, **options):
    """Interactive proof that sigma is the nominee's valid signature."""
    _interactive("confirm", par, pk_s, pk_n, m, **options)


@main.command("disavow")
@_protocol_options
@_scheme_inputs
def cmd_disavow(par, pk_s, pk_n, m, **options):
    """Interactive proof that sigma is not the nominee's valid signature."""
    _interactive("disavow", par, pk_s, pk_n, m, **options)


# ---------------------------------------------------------------------------
# Contract commands
# ---------------------------------------------------------------------------


@main.command("deploy")
@_scheme_inputs
@click.option("--operator-seed", required=True, help="wallet seed string for the operator")
@click.option("--investor-seed", required=True, help="wallet seed string for the investor")
@click.option("--operator-balance", type=int, default=0, show_default=True)
@click.option("--investor-balance", type=int, required=True)
@click.option("--advance", type=int, required=True)
@click.option("--investment", type=int, required=True)
@click.option("--state-out", required=True, type=click.Path())
def cmd_deploy(par, pk_s, pk_n, m, operator_seed, investor_seed, operator_balance, investor_balance,
               advance, investment, state_out):
    """Create the escrow contract and its wallet ledger."""
    op_addr = trigger.address_of(trigger.ecdsa_keygen(operator_seed.encode()).vk)
    inv_addr = trigger.address_of(trigger.ecdsa_keygen(investor_seed.encode()).vk)
    state = ct.deploy(m, op_addr, inv_addr, pk_s, pk_n, par, advance, investment)
    ledger = ct.WalletLedger({op_addr: operator_balance, inv_addr: investor_balance})
    env.write_object(state_out, state, ledger)
    click.echo(f"contract deployed, state in {state_out}")
    click.echo(f"operator {op_addr.hex()} investor {inv_addr.hex()}")


@main.command("pay-advance")
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--amount", type=int, required=True)
def cmd_pay_advance(state_path, amount):
    state, ledger = env.read_object(state_path, ct.ContractState)
    ct.pay_advance(state, ledger, amount)
    env.write_object(state_path, state, ledger)
    click.echo(f"advance of {amount} paid, phase {state.phase.value}")


@main.command("store-sig")
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--sigma", "sigma_path", required=True, type=click.Path())
def cmd_store_sig(state_path, sigma_path):
    state, ledger = env.read_object(state_path, ct.ContractState)
    sigma = env.read_object(sigma_path, scheme.NomSignature, state.par.backend)
    ct.store_signature(state, sigma)
    env.write_object(state_path, state, ledger)
    click.echo(f"signature stored, phase {state.phase.value}")


@main.command("trigger")
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--token", "token_path", required=True, type=click.Path())
@click.option("--investor-seed", required=True, help="wallet seed string; signs the transfer")
@click.option("--nonce", type=int, default=1, show_default=True)
@click.option("--cost-table", default=None, type=click.Path())
@click.option("--gas-price", default=None)
@click.option("--receipt-out", default=None, type=click.Path())
def cmd_trigger(state_path, token_path, investor_seed, nonce, cost_table, gas_price, receipt_out):
    """Submit the verification token plus a signed transfer transaction."""
    state, ledger = env.read_object(state_path, ct.ContractState)
    tk = env.read_object(token_path, scheme.VerificationToken, state.par.backend)
    table = _cost_table(cost_table)
    price = None if gas_price is None else gasmodel.parse_fraction(gas_price, "gas price")
    kp = trigger.ecdsa_keygen(investor_seed.encode())
    tx = ct.TransactionRecord(
        frm=trigger.address_of(kp.vk),
        to=state.operator,
        amount=state.investment_amount,
        nonce=nonce,
    )
    sig_e = trigger.ecdsa_sign(kp.sk, tx.serialize())
    receipt = ct.submit_trigger(state, ledger, ct.TriggerSubmission(tk, tx, sig_e), table, price)
    if receipt_out is not None:
        env.write_object(receipt_out, receipt)
    if receipt.verdict:
        env.write_object(state_path, state, ledger)
        click.echo("accept")
        _echo_gas(receipt.gas)
        sys.exit(EXIT_ACCEPT)
    click.echo("reject: verification failed, contract still armed")
    _echo_gas(receipt.gas)
    sys.exit(EXIT_REJECT)


def _echo_gas(report: gasmodel.GasReport) -> None:
    line = (
        f"gas: tkverify={report.tkverify_gas} ({report.pairing_pairs} pairings, batched) "
        f"ecrecover={report.ecrecover_gas} total={report.total_gas}"
    )
    if report.unpriced_scalar_mults:
        line += f" unpriced_scalar_mults={report.unpriced_scalar_mults}"
    if report.eth_cost is not None:
        line += f" eth={float(report.eth_cost):.8f}"
    click.echo(line)


@main.command("report-gas")
@click.option("--receipt", "receipt_path", default=None, type=click.Path())
@click.option("--pairing-pairs", type=int, default=8, show_default=True)
@click.option("--ec-additions", type=int, default=256, show_default=True)
@click.option("--cost-table", default=None, type=click.Path())
@click.option("--gas-price", default=None)
def cmd_report_gas(receipt_path, pairing_pairs, ec_additions, cost_table, gas_price):
    """Print a gas report, from a receipt or from explicit operation counts."""
    table = _cost_table(cost_table)
    price = gasmodel.DEFAULT_GAS_PRICE_ETH if gas_price is None else gasmodel.parse_fraction(gas_price, "gas price")
    if receipt_path is not None:
        report = env.read_object(receipt_path, ct.ExecutionReceipt).gas
    else:
        counts = scheme.OpCounts(pairing_pairs=pairing_pairs, ec_additions=ec_additions)
        report = gasmodel.build_report(counts, table, price)
    ratio = gasmodel.ratio_vs_ecrecover(report)
    _echo_gas(report)
    click.echo(f"tkverify / ecrecover gas ratio: {float(ratio):.1f}")


@main.command("demo")
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--backend", default="mock", show_default=True)
@click.option("--workdir", default=None, type=click.Path())
def cmd_demo(seed, backend, workdir):
    """Run the whole honest pipeline in-process and print the gas report."""
    import tempfile

    rng = Random(seed)
    par = scheme.setup(backend=backend)
    outdir = Path(workdir or tempfile.mkdtemp(prefix="nomsig-demo-"))
    outdir.mkdir(parents=True, exist_ok=True)
    pk_s, sk_s = scheme.keygen_signer(par, rng)
    pk_n, sk_n = scheme.keygen_nominee(par, rng)
    m = b"demo program source seed=%d" % seed
    delta = scheme.sign(par, pk_s, pk_n, m, sk_s, rng)
    sigma = scheme.receive(par, pk_s, pk_n, m, delta, sk_n, rng)
    if sigma is None:
        _reject("receive failed")
    tk = scheme.convert(par, pk_s, pk_n, m, sigma, sk_n)
    if tk is None:
        _reject("convert failed")

    op_kp = trigger.ecdsa_keygen(b"demo-operator-%d" % seed)
    inv_kp = trigger.ecdsa_keygen(b"demo-investor-%d" % seed)
    op_addr, inv_addr = trigger.address_of(op_kp.vk), trigger.address_of(inv_kp.vk)
    ledger = ct.WalletLedger({op_addr: 0, inv_addr: 1_000})
    state = ct.deploy(m, op_addr, inv_addr, pk_s, pk_n, par, 100, 700)
    ct.pay_advance(state, ledger, 100)
    ct.store_signature(state, sigma)
    tx = ct.TransactionRecord(inv_addr, op_addr, 700, nonce=1)
    sig_e = trigger.ecdsa_sign(inv_kp.sk, tx.serialize())
    receipt = ct.submit_trigger(
        state, ledger, ct.TriggerSubmission(tk, tx, sig_e),
        gas_price=gasmodel.DEFAULT_GAS_PRICE_ETH,
    )

    stmt = zkproto.derive_statement(par, pk_s, pk_n, m, sigma)
    ok_confirm, _ = zkproto.run_confirm(stmt, sk_n, Random(rng.random()), Random(rng.random()))

    env.write_object(str(outdir / "sigma.json"), sigma)
    env.write_object(str(outdir / "token.json"), tk)
    env.write_object(str(outdir / "receipt.json"), receipt)

    click.echo("accept" if receipt.verdict and ok_confirm else "reject")
    _echo_gas(receipt.gas)
    click.echo(f"confirm protocol: {'accept' if ok_confirm else 'reject'}")
    click.echo(f"operator balance {ledger.balance_of(op_addr)}, investor balance {ledger.balance_of(inv_addr)}")
    click.echo(f"artifacts in {outdir}")
    sys.exit(EXIT_ACCEPT if receipt.verdict and ok_confirm else EXIT_REJECT)


if __name__ == "__main__":
    main()
