"""Command-line front end for the escrow pipeline.

Every stage reads and writes versioned JSON envelopes, so the output of
one command feeds the next. Exit codes are part of the interface: 0 for
accept or success, 1 for a verification reject, 2 for malformed input.
The interactive confirm/disavow protocols run as two cooperating
processes exchanging numbered message files in a transport directory.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import click

from . import contract as ct
from . import envelopes as env
from . import gasmodel, scheme, trigger, zkproto
from .algebra import AlgebraError

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_MALFORMED = 2

TRANSPORT_TIMEOUT = 120.0


class MalformedInput(click.ClickException):
    exit_code = EXIT_MALFORMED


def _load(path: str, kind: str) -> dict:
    try:
        _, payload = env.read_envelope(path, kind)
        return payload
    except (env.EnvelopeError, OSError) as exc:
        raise MalformedInput(str(exc))


def _decode(fn, payload: dict):
    try:
        return fn(payload)
    except (env.EnvelopeError, AlgebraError, KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad envelope payload: {exc}")


def _read_message(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise MalformedInput(str(exc))


def _gas_price_opt(gas_price, use_default: bool):
    if gas_price is not None:
        try:
            return Fraction(gas_price)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"bad gas price: {exc}")
    return gasmodel.DEFAULT_GAS_PRICE_ETH if use_default else None


def _cost_table(path) -> gasmodel.CostTable:
    if path is None:
        return gasmodel.CostTable()
    try:
        return gasmodel.CostTable.from_file(path)
    except (gasmodel.GasModelError, OSError, ValueError) as exc:
        raise MalformedInput(f"bad cost table: {exc}")


@click.group()
def main():
    """Nominative-signature escrow toolkit."""


@main.command("setup")
@click.option("--backend", default="bn254", show_default=True)
@click.option("--out", required=True, type=click.Path())
def cmd_setup(backend, out):
    """Write the public parameter envelope."""
    try:
        par = scheme.setup(backend=backend)
    except (scheme.SchemeError, ValueError) as exc:
        raise MalformedInput(str(exc))
    env.write_envelope(out, "key", env.params_payload(par))
    click.echo(f"params written to {out}")


@main.command("keygen-signer")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--seed", type=int, required=True)
@click.option("--pub-out", required=True, type=click.Path())
@click.option("--sec-out", required=True, type=click.Path())
def cmd_keygen_signer(params_path, seed, pub_out, sec_out):
    par = _decode(env.params_from_payload, _load(params_path, "key"))
    pk, sk = scheme.keygen_signer(par, Random(seed))
    env.write_envelope(pub_out, "key", env.signer_public_payload(pk))
    env.write_envelope(sec_out, "key", env.signer_secret_payload(sk))
    click.echo(f"signer keys written to {pub_out}, {sec_out}")


@main.command("keygen-nominee")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--seed", type=int, required=True)
@click.option("--pub-out", required=True, type=click.Path())
@click.option("--sec-out", required=True, type=click.Path())
def cmd_keygen_nominee(params_path, seed, pub_out, sec_out):
    par = _decode(env.params_from_payload, _load(params_path, "key"))
    pk, sk = scheme.keygen_nominee(par, Random(seed))
    env.write_envelope(pub_out, "key", env.nominee_public_payload(pk))
    env.write_envelope(sec_out, "key", env.nominee_secret_payload(sk))
    click.echo(f"nominee keys written to {pub_out}, {sec_out}")


def _common_scheme_inputs(params_path, signer_pub, nominee_pub):
    par = _decode(env.params_from_payload, _load(params_path, "key"))
    pk_s = _decode(env.signer_public_from_payload, _load(signer_pub, "key"))
    pk_n = _decode(env.nominee_public_from_payload, _load(nominee_pub, "key"))
    return par, pk_s, pk_n


@main.command("sign")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--signer-pub", required=True, type=click.Path())
@click.option("--signer-sec", required=True, type=click.Path())
@click.option("--nominee-pub", required=True, type=click.Path())
@click.option("--message-file", required=True, type=click.Path())
@click.option("--seed", type=int, required=True)
@click.option("--out", required=True, type=click.Path())
def cmd_sign(params_path, signer_pub, signer_sec, nominee_pub, message_file, seed, out):
    """Produce the signer's partial signature over the program source."""
    par, pk_s, pk_n = _common_scheme_inputs(params_path, signer_pub, nominee_pub)
    sk_s = _decode(env.signer_secret_from_payload, _load(signer_sec, "key"))
    m = _read_message(message_file)
    delta = scheme.sign(par, pk_s, pk_n, m, sk_s, Random(seed))
    env.write_envelope(out, "delta", env.delta_payload(delta))
    click.echo(f"delta written to {out}")


@main.command("receive")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--signer-pub", required=True, type=click.Path())
@click.option("--nominee-pub", required=True, type=click.Path())
@click.option("--nominee-sec", required=True, type=click.Path())
@click.option("--message-file", required=True, type=click.Path())
@click.option("--delta", "delta_path", required=True, type=click.Path())
@click.option("--seed", type=int, required=True)
@click.option("--out", required=True, type=click.Path())
def cmd_receive(params_path, signer_pub, nominee_pub, nominee_sec, message_file, delta_path, seed, out):
    """Nominee check of the partial signature; writes sigma or rejects."""
    par, pk_s, pk_n = _common_scheme_inputs(params_path, signer_pub, nominee_pub)
    sk_n = _decode(env.nominee_secret_from_payload, _load(nominee_sec, "key"))
    m = _read_message(message_file)
    delta = _decode(env.delta_from_payload, _load(delta_path, "delta"))
    sigma = scheme.receive(par, pk_s, pk_n, m, delta, sk_n, Random(seed))
    if sigma is None:
        click.echo("reject: partial signature invalid")
        sys.exit(EXIT_REJECT)
    env.write_envelope(out, "sigma", env.sigma_payload(sigma))
    click.echo(f"sigma written to {out}")


@main.command("convert")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--signer-pub", required=True, type=click.Path())
@click.option("--nominee-pub", required=True, type=click.Path())
@click.option("--nominee-sec", required=True, type=click.Path())
@click.option("--message-file", required=True, type=click.Path())
@click.option("--sigma", "sigma_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def cmd_convert(params_path, signer_pub, nominee_pub, nominee_sec, message_file, sigma_path, out):
    """Derive the public verification token from a valid sigma."""
    par, pk_s, pk_n = _common_scheme_inputs(params_path, signer_pub, nominee_pub)
    sk_n = _decode(env.nominee_secret_from_payload, _load(nominee_sec, "key"))
    m = _read_message(message_file)
    sigma = _decode(env.sigma_from_payload, _load(sigma_path, "sigma"))
    tk = scheme.convert(par, pk_s, pk_n, m, sigma, sk_n)
    if tk is None:
        click.echo("reject: sigma invalid, no token issued")
        sys.exit(EXIT_REJECT)
    env.write_envelope(out, "token", env.token_payload(tk))
    click.echo(f"token written to {out}")


# ---------------------------------------------------------------------------
# Interactive protocols over a file-exchange transport
# ---------------------------------------------------------------------------

_PASS_FILES = {
    "commitment": "01-commitment.json",
    "first": "02-first.json",
    "opening": "03-opening.json",
    "response": "04-response.json",
    "verdict": "05-verdict.json",
}


def _send(tdir: Path, backend_name: str, pass_name: str, msg) -> None:
    payload = env.transcript_msg_payload(backend_name, pass_name, msg)
    tmp = tdir / (_PASS_FILES[pass_name] + ".tmp")
    env.write_envelope(str(tmp), "transcript-msg", payload)
    tmp.rename(tdir / _PASS_FILES[pass_name])


def _recv(tdir: Path, pass_name: str):
    path = tdir / _PASS_FILES[pass_name]
    deadline = time.monotonic() + TRANSPORT_TIMEOUT
    while not path.exists():
        if time.monotonic() > deadline:
            raise MalformedInput(f"timed out waiting for {path.name}")
        time.sleep(0.05)
    payload = _load(str(path), "transcript-msg")
    if payload.get("pass") != pass_name:
        raise MalformedInput(f"{path.name}: expected pass {pass_name!r}")
    return _decode(env.transcript_msg_from_payload, payload)


def _interactive(protocol, role, params_path, signer_pub, nominee_pub, nominee_sec,
                 message_file, sigma_path, transport_dir, seed):
    par, pk_s, pk_n = _common_scheme_inputs(params_path, signer_pub, nominee_pub)
    m = _read_message(message_file)
    sigma = _decode(env.sigma_from_payload, _load(sigma_path, "sigma"))
    stmt = zkproto.derive_statement(par, pk_s, pk_n, m, sigma)
    tdir = Path(transport_dir)
    tdir.mkdir(parents=True, exist_ok=True)
    rng = Random(seed)
    bname = par.backend.name

    if role == "verifier":
        cls = zkproto.ConfirmVerifier if protocol == "confirm" else zkproto.DisavowVerifier
        verifier = cls(stmt, rng)
        _send(tdir, bname, "commitment", verifier.commitment())
        first = _recv(tdir, "first")
        _send(tdir, bname, "opening", verifier.opening())
        response = _recv(tdir, "response")
        verdict = verifier.verdict(first, response)
        _send(tdir, bname, "verdict", verdict)
        click.echo("verdict accept" if verdict else "verdict reject")
        sys.exit(EXIT_ACCEPT if verdict else EXIT_REJECT)

    if nominee_sec is None:
        raise MalformedInput("the prover role requires --nominee-sec")
    sk_n = _decode(env.nominee_secret_from_payload, _load(nominee_sec, "key"))
    cls = zkproto.ConfirmProver if protocol == "confirm" else zkproto.DisavowProver
    prover = cls(stmt, sk_n, rng)
    commitment = _recv(tdir, "commitment")
    _send(tdir, bname, "first", prover.first_message(commitment))
    opening = _recv(tdir, "opening")
    try:
        _send(tdir, bname, "response", prover.response(opening))
    except zkproto.AbortBadOpening as exc:
        click.echo(f"abort: {exc}")
        sys.exit(EXIT_REJECT)
    verdict = _recv(tdir, "verdict")
    click.echo("verdict accept" if verdict else "verdict reject")
    sys.exit(EXIT_ACCEPT if verdict else EXIT_REJECT)


def _protocol_options(fn):
    opts = [
        click.option("--role", type=click.Choice(["prover", "verifier"]), required=True),
        click.option("--params", "params_path", required=True, type=click.Path()),
        click.option("--signer-pub", required=True, type=click.Path()),
        click.option("--nominee-pub", required=True, type=click.Path()),
        click.option("--nominee-sec", default=None, type=click.Path()),
        click.option("--message-file", required=True, type=click.Path()),
        click.option("--sigma", "sigma_path", required=True, type=click.Path()),
        click.option("--transport-dir", required=True, type=click.Path()),
        click.option("--seed", type=int, required=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@main.command("confirm")
@_protocol_options
def cmd_confirm(role, params_path, signer_pub, nominee_pub, nominee_sec,
                message_file, sigma_path, transport_dir, seed):
    """Interactive proof that sigma is the nominee's valid signature."""
    _interactive("confirm", role, params_path, signer_pub, nominee_pub, nominee_sec,
                 message_file, sigma_path, transport_dir, seed)


@main.command("disavow")
@_protocol_options
def cmd_disavow(role, params_path, signer_pub, nominee_pub, nominee_sec,
                message_file, sigma_path, transport_dir, seed):
    """Interactive proof that sigma is not the nominee's valid signature."""
    _interactive("disavow", role, params_path, signer_pub, nominee_pub, nominee_sec,
                 message_file, sigma_path, transport_dir, seed)


# ---------------------------------------------------------------------------
# Contract commands
# ---------------------------------------------------------------------------


@main.command("deploy")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--signer-pub", required=True, type=click.Path())
@click.option("--nominee-pub", required=True, type=click.Path())
@click.option("--message-file", required=True, type=click.Path())
@click.option("--operator-seed", required=True, help="wallet seed string for the operator")
@click.option("--investor-seed", required=True, help="wallet seed string for the investor")
@click.option("--operator-balance", type=int, default=0, show_default=True)
@click.option("--investor-balance", type=int, required=True)
@click.option("--advance", type=int, required=True)
@click.option("--investment", type=int, required=True)
@click.option("--state-out", required=True, type=click.Path())
def cmd_deploy(params_path, signer_pub, nominee_pub, message_file, operator_seed,
               investor_seed, operator_balance, investor_balance, advance, investment,
               state_out):
    """Create the escrow contract and its wallet ledger."""
    par, pk_s, pk_n = _common_scheme_inputs(params_path, signer_pub, nominee_pub)
    m = _read_message(message_file)
    op_addr = trigger.address_of(trigger.ecdsa_keygen(operator_seed.encode()).vk)
    inv_addr = trigger.address_of(trigger.ecdsa_keygen(investor_seed.encode()).vk)
    try:
        state = ct.deploy(m, op_addr, inv_addr, pk_s, pk_n, par, advance, investment)
        ledger = ct.WalletLedger({op_addr: operator_balance, inv_addr: investor_balance})
    except ct.ContractError as exc:
        raise MalformedInput(str(exc))
    env.write_envelope(state_out, "contract-state", env.contract_state_payload(state, ledger))
    click.echo(f"contract deployed, state in {state_out}")
    click.echo(f"operator {op_addr.hex()} investor {inv_addr.hex()}")


def _load_state(path):
    return _decode(env.contract_state_from_payload, _load(path, "contract-state"))


def _save_state(path, state, ledger):
    env.write_envelope(path, "contract-state", env.contract_state_payload(state, ledger))


@main.command("pay-advance")
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--amount", type=int, required=True)
def cmd_pay_advance(state_path, amount):
    state, ledger = _load_state(state_path)
    try:
        ct.pay_advance(state, ledger, amount)
    except (ct.WrongPhase, ct.InsufficientAdvance, ct.InsufficientFunds) as exc:
        click.echo(f"reject: {exc}")
        sys.exit(EXIT_REJECT)
    _save_state(state_path, state, ledger)
    click.echo(f"advance of {amount} paid, phase {state.phase.value}")


@main.command("store-sig")
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--sigma", "sigma_path", required=True, type=click.Path())
def cmd_store_sig(state_path, sigma_path):
    state, ledger = _load_state(state_path)
    sigma = _decode(env.sigma_from_payload, _load(sigma_path, "sigma"))
    try:
        ct.store_signature(state, sigma)
    except ct.WrongPhase as exc:
        click.echo(f"reject: {exc}")
        sys.exit(EXIT_REJECT)
    _save_state(state_path, state, ledger)
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
    state, ledger = _load_state(state_path)
    tk = _decode(env.token_from_payload, _load(token_path, "token"))
    table = _cost_table(cost_table)
    price = _gas_price_opt(gas_price, use_default=False)
    kp = trigger.ecdsa_keygen(investor_seed.encode())
    tx = ct.TransactionRecord(
        frm=trigger.address_of(kp.vk),
        to=state.operator,
        amount=state.investment_amount,
        nonce=nonce,
    )
    try:
        sig_e = trigger.ecdsa_sign(kp.sk, tx.serialize())
        receipt = ct.submit_trigger(
            state, ledger, ct.TriggerSubmission(tk, tx, sig_e), table, price
        )
    except (ct.WrongPhase, ct.NonceReplayed) as exc:
        click.echo(f"reject: {exc}")
        sys.exit(EXIT_REJECT)
    except ct.MalformedTransaction as exc:
        raise MalformedInput(str(exc))
    if receipt_out is not None:
        env.write_envelope(receipt_out, "receipt", env.receipt_payload(receipt))
    if receipt.verdict:
        _save_state(state_path, state, ledger)
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
    price = _gas_price_opt(gas_price, use_default=True)
    if receipt_path is not None:
        payload = _load(receipt_path, "receipt")
        report = _decode(env.receipt_from_payload, payload).gas
    else:
        counts = scheme.OpCounts(pairing_pairs=pairing_pairs, ec_additions=ec_additions)
        report = gasmodel.build_report(counts, table, price)
    _echo_gas(report)
    ratio = gasmodel.ratio_vs_ecrecover(report)
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
    pk_s, sk_s = scheme.keygen_signer(par, rng)
    pk_n, sk_n = scheme.keygen_nominee(par, rng)
    m = b"demo program source seed=%d" % seed
    delta = scheme.sign(par, pk_s, pk_n, m, sk_s, rng)
    sigma = scheme.receive(par, pk_s, pk_n, m, delta, sk_n, rng)
    if sigma is None:
        click.echo("reject: receive failed")
        sys.exit(EXIT_REJECT)
    tk = scheme.convert(par, pk_s, pk_n, m, sigma, sk_n)
    if tk is None:
        click.echo("reject: convert failed")
        sys.exit(EXIT_REJECT)

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

    outdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="nomsig-demo-"))
    outdir.mkdir(parents=True, exist_ok=True)
    env.write_envelope(str(outdir / "sigma.json"), "sigma", env.sigma_payload(sigma))
    env.write_envelope(str(outdir / "token.json"), "token", env.token_payload(tk))
    env.write_envelope(
        str(outdir / "receipt.json"), "receipt", env.receipt_payload(receipt)
    )

    click.echo("accept" if receipt.verdict and ok_confirm else "reject")
    _echo_gas(receipt.gas)
    click.echo(f"confirm protocol: {'accept' if ok_confirm else 'reject'}")
    click.echo(f"operator balance {ledger.balance_of(op_addr)}, investor balance {ledger.balance_of(inv_addr)}")
    click.echo(f"artifacts in {outdir}")
    sys.exit(EXIT_ACCEPT if receipt.verdict and ok_confirm else EXIT_REJECT)


if __name__ == "__main__":
    main()
