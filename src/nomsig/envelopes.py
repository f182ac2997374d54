"""Versioned JSON envelopes for every artifact the CLI moves between stages.

Each file is one JSON object: {"schema_version": 1, "kind": ..., payload}.
Payload group elements are hex of the backend's compressed encoding; the
backend name rides along so a consumer can rebuild elements in the right
groups. Unknown schema versions and wrong kinds are rejected outright.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .algebra import ELL, Backend, GroupElem, get_backend
from .contract import (
    ContractState,
    ExecutionReceipt,
    Phase,
    WalletLedger,
)
from .gasmodel import GasReport
from .scheme import (
    DeltaMsg,
    NomSignature,
    NomineePublicKey,
    NomineeSecretKey,
    PublicParams,
    SignerPublicKey,
    SignerSecretKey,
    VerificationToken,
    setup,
)

SCHEMA_VERSION = 1

KINDS = (
    "key",
    "delta",
    "sigma",
    "token",
    "transcript-msg",
    "contract-state",
    "receipt",
)


class EnvelopeError(Exception):
    pass


def _elem_hex(e: GroupElem) -> str:
    return e.to_bytes().hex()


def _elem(backend: Backend, group: str, hx: str) -> GroupElem:
    try:
        return backend.element(group, bytes.fromhex(hx))
    except ValueError as exc:
        raise EnvelopeError(f"bad hex in {group} element") from exc


def _vector(payload: dict, key: str, decode) -> tuple:
    """A key's per-bit vector: exactly ELL + 1 entries, each decoded."""
    items = payload[key]
    if not isinstance(items, list) or len(items) != ELL + 1:
        raise EnvelopeError(f"{key}: need a list of {ELL + 1} entries")
    return tuple(decode(v) for v in items)


def make_envelope(kind: str, payload: dict) -> dict:
    if kind not in KINDS:
        raise EnvelopeError(f"unknown envelope kind {kind!r}")
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}


def parse_envelope(obj, expected_kind: Optional[str] = None) -> tuple[str, dict]:
    if not isinstance(obj, dict):
        raise EnvelopeError("envelope must be a JSON object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise EnvelopeError(f"unsupported schema version {version!r}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise EnvelopeError(f"unknown envelope kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise EnvelopeError(f"expected a {expected_kind} envelope, got {kind}")
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        raise EnvelopeError("envelope payload must be a JSON object")
    return kind, payload


def write_envelope(path: str, kind: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(make_envelope(kind, payload), fh, indent=2)
        fh.write("\n")


def read_envelope(path: str, expected_kind: Optional[str] = None) -> tuple[str, dict]:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise EnvelopeError(f"{path}: not valid JSON") from exc
    return parse_envelope(obj, expected_kind)


# ---- scheme parameters and keys (all under kind "key", tagged by role) ----


def params_payload(par: PublicParams) -> dict:
    return {"role": "params", "backend": par.backend.name, "security": 128}


def params_from_payload(payload: dict) -> PublicParams:
    _expect_role(payload, "params")
    return setup(security=payload.get("security", 128), backend=payload["backend"])


def _expect_role(payload: dict, role: str) -> None:
    if payload.get("role") != role:
        raise EnvelopeError(f"expected key role {role!r}, got {payload.get('role')!r}")


def signer_public_payload(pk: SignerPublicKey) -> dict:
    return {
        "role": "signer-public",
        "backend": pk.gS.backend.name,
        "gS": _elem_hex(pk.gS),
        "hS": _elem_hex(pk.hS),
        "u": [_elem_hex(e) for e in pk.u],
    }


def signer_public_from_payload(payload: dict) -> SignerPublicKey:
    _expect_role(payload, "signer-public")
    b = get_backend(payload["backend"])
    return SignerPublicKey(
        gS=_elem(b, "G1", payload["gS"]),
        hS=_elem(b, "G2", payload["hS"]),
        u=_vector(payload, "u", lambda h: _elem(b, "G2", h)),
    )


def signer_secret_payload(sk: SignerSecretKey) -> dict:
    return {"role": "signer-secret", "alphaS": hex(sk.alphaS)}


def signer_secret_from_payload(payload: dict) -> SignerSecretKey:
    _expect_role(payload, "signer-secret")
    return SignerSecretKey(alphaS=int(payload["alphaS"], 16))


def nominee_public_payload(pk: NomineePublicKey) -> dict:
    return {
        "role": "nominee-public",
        "backend": pk.gN.backend.name,
        "gN": _elem_hex(pk.gN),
        "hN": _elem_hex(pk.hN),
        "k": _elem_hex(pk.k),
        "uPrime": [_elem_hex(e) for e in pk.uPrime],
        "x1": _elem_hex(pk.x1),
        "x2": _elem_hex(pk.x2),
    }


def nominee_public_from_payload(payload: dict) -> NomineePublicKey:
    _expect_role(payload, "nominee-public")
    b = get_backend(payload["backend"])
    return NomineePublicKey(
        gN=_elem(b, "G1", payload["gN"]),
        hN=_elem(b, "G2", payload["hN"]),
        k=_elem(b, "G2", payload["k"]),
        uPrime=_vector(payload, "uPrime", lambda h: _elem(b, "G2", h)),
        x1=_elem(b, "G2", payload["x1"]),
        x2=_elem(b, "G2", payload["x2"]),
    )


def nominee_secret_payload(sk: NomineeSecretKey) -> dict:
    return {
        "role": "nominee-secret",
        "alphaN": hex(sk.alphaN),
        "vPrime": [hex(v) for v in sk.vPrime],
        "y1": hex(sk.y1),
        "y2": hex(sk.y2),
    }


def nominee_secret_from_payload(payload: dict) -> NomineeSecretKey:
    _expect_role(payload, "nominee-secret")
    return NomineeSecretKey(
        alphaN=int(payload["alphaN"], 16),
        vPrime=_vector(payload, "vPrime", lambda v: int(v, 16)),
        y1=int(payload["y1"], 16),
        y2=int(payload["y2"], 16),
    )


# ---- message-flow artifacts ----


def delta_payload(delta: DeltaMsg) -> dict:
    return {
        "backend": delta.d1.backend.name,
        "d1": _elem_hex(delta.d1),
        "d2": _elem_hex(delta.d2),
        "d3": _elem_hex(delta.d3),
    }


def delta_from_payload(payload: dict) -> DeltaMsg:
    b = get_backend(payload["backend"])
    return DeltaMsg(
        d1=_elem(b, "G1", payload["d1"]),
        d2=_elem(b, "G2", payload["d2"]),
        d3=_elem(b, "G2", payload["d3"]),
    )


def sigma_payload(sigma: NomSignature) -> dict:
    return {
        "backend": sigma.s1.backend.name,
        "s1": _elem_hex(sigma.s1),
        "s2": _elem_hex(sigma.s2),
        "s3": _elem_hex(sigma.s3),
        "s": hex(sigma.s),
    }


def sigma_from_payload(payload: dict) -> NomSignature:
    b = get_backend(payload["backend"])
    return NomSignature(
        s1=_elem(b, "G1", payload["s1"]),
        s2=_elem(b, "G1", payload["s2"]),
        s3=_elem(b, "G2", payload["s3"]),
        s=int(payload["s"], 16),
    )


def token_payload(tk: VerificationToken) -> dict:
    return {
        "backend": tk.tk1.backend.name,
        "tk1": _elem_hex(tk.tk1),
        "tk2": _elem_hex(tk.tk2),
    }


def token_from_payload(payload: dict) -> VerificationToken:
    b = get_backend(payload["backend"])
    return VerificationToken(
        tk1=_elem(b, "G1", payload["tk1"]),
        tk2=_elem(b, "G1", payload["tk2"]),
    )


# ---- contract state, ledger, receipts ----


def contract_state_payload(state: ContractState, ledger: WalletLedger) -> dict:
    return {
        "backend": state.par.backend.name,
        "phase": state.phase.value,
        "m": state.m.hex(),
        "operator": state.operator.hex(),
        "investor": state.investor.hex(),
        "advance_required": state.advance_required,
        "investment_amount": state.investment_amount,
        "pk_s": signer_public_payload(state.pk_s),
        "pk_n": nominee_public_payload(state.pk_n),
        "sigma": None if state.stored_sigma is None else sigma_payload(state.stored_sigma),
        "used_nonces": sorted(state.used_nonces),
        "ledger": {addr.hex(): bal for addr, bal in sorted(ledger.balances.items())},
    }


def contract_state_from_payload(payload: dict) -> tuple[ContractState, WalletLedger]:
    par = setup(backend=payload["backend"])
    try:
        phase = Phase(payload["phase"])
    except ValueError as exc:
        raise EnvelopeError(f"unknown phase {payload['phase']!r}") from exc
    sigma = payload.get("sigma")
    state = ContractState(
        phase=phase,
        m=bytes.fromhex(payload["m"]),
        operator=bytes.fromhex(payload["operator"]),
        investor=bytes.fromhex(payload["investor"]),
        advance_required=int(payload["advance_required"]),
        investment_amount=int(payload["investment_amount"]),
        par=par,
        pk_s=signer_public_from_payload(payload["pk_s"]),
        pk_n=nominee_public_from_payload(payload["pk_n"]),
        stored_sigma=None if sigma is None else sigma_from_payload(sigma),
        used_nonces=set(int(n) for n in payload["used_nonces"]),
    )
    ledger = WalletLedger(
        {bytes.fromhex(a): int(v) for a, v in payload["ledger"].items()}
    )
    return state, ledger


def gas_report_payload(report: GasReport) -> dict:
    return {
        "tkverify_gas": report.tkverify_gas,
        "ecrecover_gas": report.ecrecover_gas,
        "total_gas": report.total_gas,
        "pairing_pairs": report.pairing_pairs,
        "ec_additions": report.ec_additions,
        "unpriced_scalar_mults": report.unpriced_scalar_mults,
        "eth_cost": None if report.eth_cost is None else str(report.eth_cost),
    }


def gas_report_from_payload(payload: dict) -> GasReport:
    eth = payload.get("eth_cost")
    return GasReport(
        tkverify_gas=int(payload["tkverify_gas"]),
        ecrecover_gas=int(payload["ecrecover_gas"]),
        pairing_pairs=int(payload.get("pairing_pairs", 0)),
        ec_additions=int(payload.get("ec_additions", 0)),
        unpriced_scalar_mults=int(payload.get("unpriced_scalar_mults", 0)),
        eth_cost=None if eth is None else Fraction(eth),
    )


def receipt_payload(receipt: ExecutionReceipt) -> dict:
    transfer = receipt.transfer
    return {
        "verdict": "accept" if receipt.verdict else "reject",
        "gas": gas_report_payload(receipt.gas),
        "transfer": None
        if transfer is None
        else {"from": transfer[0].hex(), "to": transfer[1].hex(), "amount": transfer[2]},
    }


def receipt_from_payload(payload: dict) -> ExecutionReceipt:
    transfer = payload.get("transfer")
    return ExecutionReceipt(
        verdict=payload["verdict"] == "accept",
        gas=gas_report_from_payload(payload["gas"]),
        transfer=None
        if transfer is None
        else (
            bytes.fromhex(transfer["from"]),
            bytes.fromhex(transfer["to"]),
            int(transfer["amount"]),
        ),
    )


# ---- interactive-protocol transport messages ----


def transcript_msg_payload(backend_name: str, pass_name: str, msg) -> dict:
    from .zkproto import ChallengeCommitment, ChallengeOpening, SigmaFirstMsg, SigmaResponse

    body: dict
    if isinstance(msg, ChallengeCommitment):
        body = {"com": _elem_hex(msg.com)}
    elif isinstance(msg, SigmaFirstMsg):
        body = {
            "t1": _elem_hex(msg.t1),
            "t2": _elem_hex(msg.t2),
            "t3": _elem_hex(msg.t3),
            "C": None if msg.C is None else _elem_hex(msg.C),
        }
    elif isinstance(msg, ChallengeOpening):
        body = {"c": hex(msg.c), "rho": hex(msg.rho)}
    elif isinstance(msg, SigmaResponse):
        body = {
            "z1": hex(msg.z1),
            "z2": hex(msg.z2),
            "z3": None if msg.z3 is None else hex(msg.z3),
        }
    elif isinstance(msg, bool):
        body = {"verdict": "accept" if msg else "reject"}
    else:
        raise EnvelopeError(f"unsupported transcript message {type(msg).__name__}")
    return {"backend": backend_name, "pass": pass_name, "body": body}


def transcript_msg_from_payload(payload: dict):
    from .zkproto import ChallengeCommitment, ChallengeOpening, SigmaFirstMsg, SigmaResponse

    b = get_backend(payload["backend"])
    body = payload["body"]
    pass_name = payload["pass"]
    if pass_name == "commitment":
        return ChallengeCommitment(com=_elem(b, "G2", body["com"]))
    if pass_name == "first":
        c = body.get("C")
        return SigmaFirstMsg(
            t1=_elem(b, "G2", body["t1"]),
            t2=_elem(b, "G2", body["t2"]),
            t3=_elem(b, "GT", body["t3"]),
            C=None if c is None else _elem(b, "GT", c),
        )
    if pass_name == "opening":
        return ChallengeOpening(c=int(body["c"], 16), rho=int(body["rho"], 16))
    if pass_name == "response":
        z3 = body.get("z3")
        return SigmaResponse(
            z1=int(body["z1"], 16),
            z2=int(body["z2"], 16),
            z3=None if z3 is None else int(z3, 16),
        )
    if pass_name == "verdict":
        return body["verdict"] == "accept"
    raise EnvelopeError(f"unknown transcript pass {pass_name!r}")
