"""Versioned JSON envelopes for every artifact the CLI moves between stages.

Each file is one JSON object: {"schema_version": 2, "kind": ..., payload}.
Keys, signatures, tokens and protocol messages follow one table, ``CODEC``.
Group elements are lowercase hex of the backend's encoding; the backend
name rides along so a consumer can rebuild elements in the right groups.
Each file's version decides its bn254 G1 and G2 point codec: version 2 has
the EIP-197 words (``algebra.point_words``), version 1, still read, the
compressed encoding, whose decoding takes a square root per point. Only
those points differ, so an envelope without one is written as version 1.
``objects_from_payloads`` is the one place that checks a payload's shape,
hex, vector lengths, group membership and backend; malformed input raises
EnvelopeError, or AlgebraError from the group decoding. It decodes each
field once, in order, a G2 point only onto the twist (``Backend.point``)
and into its object's list (a contract state's takes its keys' and its
signature's). The lists of the objects read together (a command's two
public keys), up to the first bad field, then take one subgroup test,
batched on bn254 (``Backend.first_outside_g2``): a failed batch proves a
point outside G2, so at most one more test per earlier object names the
object. A point outside G2 raises in place of any later field's error, so
the error names the first bad field, as if each object were decoded alone.
``read_objects`` reads the files of one batch and names the first that fails.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Optional

from .algebra import ELL, AlgebraError, Backend, GroupElem, NotInSubgroup, get_backend
from .bn254 import N
from .contract import UINT256_LIMIT, ContractState, ExecutionReceipt, Phase, WalletLedger
from .gasmodel import REPORT_COUNTS, GasModelError, GasReport, parse_fraction
from .scheme import (DeltaMsg, NomSignature, NomineePublicKey, NomineeSecretKey, PublicParams,
                     SignerPublicKey, SignerSecretKey, VerificationToken, setup)
from .trigger import ADDRESS_LEN
from .zkproto import ChallengeCommitment, ChallengeOpening, SigmaFirstMsg, SigmaResponse

SCHEMA_VERSION = 2
# Per readable schema version, whether its G1 and G2 points are compressed.
COMPRESSED = {1: True, 2: False}

TRANSPORT = "transcript-msg"
KINDS = ("key", "delta", "sigma", "token", TRANSPORT, "contract-state", "receipt")


class EnvelopeError(Exception):
    pass


# Field types: "G1", "G2", "GT" a group element, "Zn" a scalar in [0, N) and
# "Zn*" a nonzero one (both backends share the BN254 order N). A "[]" suffix
# is a list of ELL + 1 entries; a "?" suffix lets the field be null.
# Transport messages put the protocol pass where keys put their role.
CODEC = {
    SignerPublicKey: ("key", "signer-public", {"gS": "G1", "hS": "G2", "u": "G2[]"}),
    SignerSecretKey: ("key", "signer-secret", {"alphaS": "Zn"}),
    NomineePublicKey: ("key", "nominee-public", {
        "gN": "G1", "hN": "G2", "k": "G2", "uPrime": "G2[]", "x1": "G2", "x2": "G2"}),
    NomineeSecretKey: ("key", "nominee-secret", {
        "alphaN": "Zn", "vPrime": "Zn[]", "y1": "Zn*", "y2": "Zn*"}),
    DeltaMsg: ("delta", None, {"d1": "G1", "d2": "G2", "d3": "G2"}),
    NomSignature: ("sigma", None, {"s1": "G1", "s2": "G1", "s3": "G2", "s": "Zn"}),
    VerificationToken: ("token", None, {"tk1": "G1", "tk2": "G1"}),
    ChallengeCommitment: (TRANSPORT, "commitment", {"com": "G2"}),
    SigmaFirstMsg: (TRANSPORT, "first", {"t1": "G2", "t2": "G2", "t3": "GT", "C": "GT?"}),
    ChallengeOpening: (TRANSPORT, "opening", {"c": "Zn", "rho": "Zn"}),
    SigmaResponse: (TRANSPORT, "response", {"z1": "Zn", "z2": "Zn", "z3": "Zn?"}),
    bool: (TRANSPORT, "verdict", {}),  # body {"verdict": "accept" | "reject"}
}


def _out(v):
    if isinstance(v, GroupElem):
        return v.backend.serialize(v.group, v.value, compressed=False).hex()
    if isinstance(v, tuple):
        return [_out(x) for x in v]
    return None if v is None else hex(v)


def _in(ftype: str, v, b: Optional[Backend], name: str, g2: list, compressed: bool):
    """The field value v of type ftype; a G2 point is only put on the twist, and appended to ``g2`` for its
    subgroup test."""
    if ftype.endswith("?"):
        return None if v is None else _in(ftype[:-1], v, b, name, g2, compressed)
    if ftype.endswith("[]"):
        if not isinstance(v, list) or len(v) != ELL + 1:
            raise EnvelopeError(f"{name}: need a list of {ELL + 1} entries")
        return tuple(_in(ftype[:-2], x, b, name, g2, compressed) for x in v)
    if ftype == "G2":
        g2.append(GroupElem(b, ftype, b.point(ftype, _bytes(v, name), compressed)))
        return g2[-1]
    if ftype[0] == "G":
        return b.element(ftype, _bytes(v, name), compressed)
    low = 1 if ftype == "Zn*" else 0
    try:
        k = int(_of(str, v, name), 16)
    except ValueError:
        k = -1
    if v != hex(k) or not low <= k < N:
        raise EnvelopeError(f"{name}: need a canonical hex scalar in [{low}, N)")
    return k


def _of(t: type, v, name: str):
    if not isinstance(v, t):
        raise EnvelopeError(f"{name}: need a JSON {t.__name__}, got {v!r}")
    return v


def _bytes(v, name: str) -> bytes:
    if len(_of(str, v, name)) % 2 or v.strip("0123456789abcdef"):  # one string per byte string
        raise EnvelopeError(f"{name}: need a lowercase hex string")
    return bytes.fromhex(v)


def _address(v, name: str) -> bytes:
    a = _bytes(v, name)
    if len(a) != ADDRESS_LEN:
        raise EnvelopeError(f"{name}: need a {ADDRESS_LEN}-byte address, got {len(a)} bytes")
    return a


def _int(v, name: str, low: int = 0) -> int:
    if type(v) is not int or v < low:
        raise EnvelopeError(f"{name}: need an integer >= {low}, got {v!r}")
    return v


def _word(v, name: str, low: int = 0) -> int:
    """An integer in [low, 2^256): amounts, balances and nonces are 256-bit words."""
    if _int(v, name, low) >= UINT256_LIMIT:
        raise EnvelopeError(f"{name}: need an integer below 2^256, got {v!r}")
    return v


def _backend(payload: dict, expected: Optional[Backend]) -> Backend:
    name = payload.get("backend")
    if expected is None:
        return get_backend(_of(str, name, "backend"))
    if name != expected.name:
        raise EnvelopeError(f"backend {name!r} where this command uses {expected.name!r}")
    return expected


def to_payload(obj, context=None) -> dict:
    """The payload of ``obj``; ``context`` is a contract state's ledger or a
    transport message's backend name (not every message holds an element)."""
    if type(obj) in _HAND_WRITTEN:
        return _HAND_WRITTEN[type(obj)][1](obj, context)
    if type(obj) not in CODEC:
        raise EnvelopeError(f"no envelope for {type(obj).__name__}")
    kind, tag, fields = CODEC[type(obj)]
    body = {name: _out(getattr(obj, name)) for name in fields}
    if kind == TRANSPORT:
        if isinstance(obj, bool):
            body = {"verdict": "accept" if obj else "reject"}
        return {"backend": context, "pass": tag, "body": body}
    head = {} if tag is None else {"role": tag}
    elems = [getattr(obj, name) for name, ftype in fields.items() if ftype[0] == "G"]
    if elems:
        head["backend"] = elems[0].backend.name
    return {**head, **body}


def object_from_payload(cls, payload, backend: Optional[Backend] = None, version: int = SCHEMA_VERSION):
    """Decode ``payload``, of the given schema version, as a ``cls``; ``backend``, when given, must be the one
    it names."""
    return next(objects_from_payloads([(cls, payload, version)], backend))


def objects_from_payloads(items, backend: Optional[Backend] = None):
    """Yield each (cls, payload, version) of items decoded, in order, as ``object_from_payload`` decodes it: the
    first bad field of the first bad item raises.

    Each item's G2 points, up to that field, form a list; the lists take one
    subgroup test after the pass, each point by its element's backend, and a
    point outside G2 raises after the objects before its own, not a later error.
    """
    groups, decoded, error = [], [], None
    try:
        for cls, payload, version in items:
            groups.append([])
            decoded.append(_decode(cls, payload, backend, groups[-1], version))
    except (EnvelopeError, AlgebraError) as exc:
        error = exc
    bad = _first_outside_g2(groups)
    yield from decoded[:bad]
    if bad is not None:
        raise NotInSubgroup("G2: point not in the prime-order subgroup")
    if error is not None:
        raise error


def _first_outside_g2(groups: list[list[GroupElem]]) -> Optional[int]:
    """The index of the first of the lists of G2 elements that holds one outside G2, or None; each backend
    takes one ``first_outside_g2`` call over the lists, with other backends' elements left out."""
    backends = {e.backend.name: e.backend for g in groups for e in g}
    found = (b.first_outside_g2([[e.value for e in g if e.backend.name == name] for g in groups])
             for name, b in backends.items())
    return min((k for k in found if k is not None), default=None)


def _decode(cls, payload, backend: Optional[Backend], g2: list, version: int):
    payload = _of(dict, payload, "payload")
    if cls in _HAND_WRITTEN:
        return _HAND_WRITTEN[cls][2](payload, backend, g2, version)
    kind, tag, fields = CODEC[cls]
    b = None
    if kind == TRANSPORT:
        if payload.get("pass") != tag:
            raise EnvelopeError(f"expected pass {tag!r}, got {payload.get('pass')!r}")
        b, payload = _backend(payload, backend), _of(dict, payload.get("body"), "body")
    elif payload.get("role") != tag:
        raise EnvelopeError(f"expected key role {tag!r}, got {payload.get('role')!r}")
    elif any(ftype[0] == "G" for ftype in fields.values()):
        b = _backend(payload, backend)
    if cls is bool:
        if payload.get("verdict") not in ("accept", "reject"):
            raise EnvelopeError("verdict: need 'accept' or 'reject'")
        return payload["verdict"] == "accept"
    return cls(**{name: _in(ftype, payload.get(name), b, name, g2, COMPRESSED[version])
                  for name, ftype in fields.items()})


def _kind_of(cls) -> str:
    return (_HAND_WRITTEN.get(cls) or CODEC[cls])[0]


def _version_of(cls) -> int:
    """The schema version an object of cls is written at: 1, whose bytes are version 2's, if it holds no G1
    or G2 point."""
    fields = CODEC[cls][2] if cls in CODEC else {}
    points = cls is ContractState or any(ftype[:2] in ("G1", "G2") for ftype in fields.values())
    return SCHEMA_VERSION if points else 1


def make_envelope(kind: str, payload: dict, version: int = SCHEMA_VERSION) -> dict:
    if kind not in KINDS:
        raise EnvelopeError(f"unknown envelope kind {kind!r}")
    return {"schema_version": version, "kind": kind, "payload": payload}


def parse_envelope(obj, expected_kind: Optional[str] = None) -> tuple[str, dict, int]:
    """The kind, payload and schema version of an envelope."""
    if not isinstance(obj, dict):
        raise EnvelopeError("envelope must be a JSON object")
    version = obj.get("schema_version")
    if type(version) is not int or version not in COMPRESSED:
        raise EnvelopeError(f"unsupported schema version {version!r}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise EnvelopeError(f"unknown envelope kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise EnvelopeError(f"expected a {expected_kind} envelope, got {kind}")
    return kind, _of(dict, obj.get("payload"), "envelope payload"), version


def write_envelope(path: str, kind: str, payload: dict, version: int = SCHEMA_VERSION) -> None:
    """Write the envelope to a new file beside ``path``, then move it over ``path`` in one step.

    A write that fails midway (a full disk, an error in the dump) removes the
    new file and leaves ``path`` as it was; a killed process leaves at most a
    stray ``.tmp`` file. The new file is created as ``open(path, "w")`` would
    create it: mode 0o666 less the umask.
    """
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        fh = open(tmp, "x")
    except OSError as exc:  # a missing or unwritable directory: name the file asked for
        exc.filename = path
        raise
    try:
        with fh:
            json.dump(make_envelope(kind, payload, version), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_envelope(path: str, expected_kind: Optional[str] = None) -> tuple[str, dict, int]:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:  # nesting deeper than the parser's stack is invalid too
        raise EnvelopeError("not valid JSON") from exc
    return parse_envelope(obj, expected_kind)


def write_object(path: str, obj, context=None) -> None:
    """Write ``obj`` in its envelope; ``context`` as for ``to_payload``."""
    write_envelope(path, _kind_of(type(obj)), to_payload(obj, context), _version_of(type(obj)))


def read_object(path: str, cls, backend: Optional[Backend] = None):
    """Read a ``cls`` from its envelope, as ``read_objects`` reads one."""
    return read_objects([(path, cls)], backend)[0]


def read_objects(reads, backend: Optional[Backend] = None) -> list:
    """The object in the envelope of each (path, cls) of reads, decoded by ``objects_from_payloads``.
    The first file that fails, as if each were read and decoded alone, raises an EnvelopeError that
    starts with its path: the files before one that does not parse are decoded before its error."""
    items, objs, unread = [], [], None
    try:
        for path, cls in reads:
            items.append((cls, *read_envelope(path, _kind_of(cls))[1:]))
    except (EnvelopeError, OSError) as exc:
        unread = exc
    try:
        for obj in objects_from_payloads(items, backend):
            objs.append(obj)
        if unread is not None:
            raise unread
    except (EnvelopeError, AlgebraError, OSError) as exc:
        raise EnvelopeError(f"{reads[len(objs)][0]}: {exc}") from exc
    return objs


# ---- hand-written payloads: parameters, contract state, receipts ----


def params_payload(par: PublicParams, _=None) -> dict:
    return {"role": "params", "backend": par.backend.name, "security": 128}


def params_from_payload(payload: dict, backend: Optional[Backend] = None, *_) -> PublicParams:
    if payload.get("role") != "params":
        raise EnvelopeError(f"expected key role 'params', got {payload.get('role')!r}")
    security = payload.get("security", 128)
    if type(security) is not int or security != 128:
        raise EnvelopeError(f"only the 128-bit security level is supported, got {security!r}")
    return setup(backend=_backend(payload, backend))


def contract_state_payload(state: ContractState, ledger: WalletLedger) -> dict:
    return {
        "backend": state.par.backend.name,
        "phase": state.phase.value,
        "m": state.m.hex(),
        "operator": state.operator.hex(),
        "investor": state.investor.hex(),
        "advance_required": state.advance_required,
        "investment_amount": state.investment_amount,
        "pk_s": to_payload(state.pk_s),
        "pk_n": to_payload(state.pk_n),
        "sigma": None if state.stored_sigma is None else to_payload(state.stored_sigma),
        "used_nonces": sorted(state.used_nonces),
        "ledger": {addr.hex(): bal for addr, bal in sorted(ledger.balances.items())},
    }


def contract_state_from_payload(
    payload: dict, backend: Optional[Backend], g2: list, version: int
) -> tuple[ContractState, WalletLedger]:
    # the fields that need no group decoding first, so that a malformed one fails fast; then keys and signature
    par = setup(backend=_backend(payload, backend))
    try:
        phase = Phase(payload.get("phase"))
    except ValueError:
        raise EnvelopeError(f"unknown phase {payload.get('phase')!r}") from None
    sigma, nonces = payload.get("sigma"), _of(list, payload.get("used_nonces"), "used_nonces")
    if (sigma is None) != (phase in (Phase.DEPLOYED, Phase.ADVANCE_PAID)):
        raise EnvelopeError(f"phase {phase.value} and the stored signature disagree")
    byte_fields = {"m": _bytes(payload.get("m"), "m"),
                   **{name: _address(payload.get(name), name) for name in ("operator", "investor")}}
    amounts = {name: _word(payload.get(name), name, 1) for name in ("advance_required", "investment_amount")}
    used_nonces = {_word(n, "used_nonces") for n in nonces}
    ledger = WalletLedger({
        _address(a, "ledger"): _word(v, "ledger balance")
        for a, v in _of(dict, payload.get("ledger"), "ledger").items()
    })
    if not {byte_fields["operator"], byte_fields["investor"]} <= ledger.balances.keys():
        raise EnvelopeError("ledger: both parties need an account")
    pk_s, pk_n = (_decode(cls, payload.get(name), par.backend, g2, version)
                  for cls, name in ((SignerPublicKey, "pk_s"), (NomineePublicKey, "pk_n")))
    state = ContractState(
        phase=phase,
        **byte_fields,
        **amounts,
        par=par,
        pk_s=pk_s,
        pk_n=pk_n,
        stored_sigma=None if sigma is None else _decode(NomSignature, sigma, par.backend, g2, version),
        used_nonces=used_nonces,
    )
    return state, ledger


def gas_report_payload(report: GasReport) -> dict:
    eth = None if report.eth_cost is None else str(report.eth_cost)
    return {**{name: getattr(report, name) for name in REPORT_COUNTS}, "eth_cost": eth}


def gas_report_from_payload(payload: dict) -> GasReport:
    counts = {name: _int(payload.get(name), name) for name in REPORT_COUNTS}
    eth = payload.get("eth_cost")
    total = counts.pop("total_gas")
    try:
        eth = None if eth is None else parse_fraction(_of(str, eth, "eth_cost"), "eth_cost")
        report = GasReport(**counts, eth_cost=eth)
    except GasModelError as exc:
        raise EnvelopeError(str(exc)) from None
    if total != report.total_gas:
        raise EnvelopeError("total_gas is not tkverify_gas + ecrecover_gas")
    return report


def receipt_payload(receipt: ExecutionReceipt, _=None) -> dict:
    t = receipt.transfer
    return {
        "verdict": "accept" if receipt.verdict else "reject",
        "gas": gas_report_payload(receipt.gas),
        "transfer": None if t is None else {"from": t[0].hex(), "to": t[1].hex(), "amount": t[2]},
    }


def receipt_from_payload(payload: dict, *_) -> ExecutionReceipt:
    verdict, t = payload.get("verdict"), payload.get("transfer")
    if verdict not in ("accept", "reject") or (t is None) != (verdict == "reject"):
        raise EnvelopeError("need an accept verdict with a transfer or a reject without one")
    if t is not None:
        t = _of(dict, t, "transfer")
        t = (_address(t.get("from"), "from"), _address(t.get("to"), "to"), _word(t.get("amount"), "amount"))
    gas = gas_report_from_payload(_of(dict, payload.get("gas"), "gas"))
    return ExecutionReceipt(verdict=verdict == "accept", gas=gas, transfer=t)


# Artifacts whose payload is not one field map: kind, encoder, decoder.
_HAND_WRITTEN = {
    PublicParams: ("key", params_payload, params_from_payload),
    ContractState: ("contract-state", contract_state_payload, contract_state_from_payload),
    ExecutionReceipt: ("receipt", receipt_payload, receipt_from_payload),
}
