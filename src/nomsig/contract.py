"""Simulated escrow contract tying the nominative signature to fund release.

The operator deploys a contract over program source m, the investor pays
an advance, the operator stores the nominative signature on m, and the
investor later submits a verification token together with an ECDSA-signed
transaction. Funds move only when both verifications accept; a rejected
trigger leaves the contract armed so a corrected submission can follow.
Gas is metered and reported on every trigger, never debited from wallets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import encode_parts
from .gasmodel import CostTable, GasReport, build_report
from .scheme import (
    NomSignature,
    NomineePublicKey,
    PublicParams,
    SignerPublicKey,
    VerificationToken,
    field_parts,
    tk_verify,
)
from .trigger import ADDRESS_LEN, EcdsaSignature, verify_against_address

# Amounts and nonces are 256-bit words, as on the chain.
UINT256_LIMIT = 2**256


class ContractError(Exception):
    pass


class InvalidAmounts(ContractError):
    pass


class WrongPhase(ContractError):
    pass


class InsufficientAdvance(ContractError):
    pass


class InsufficientFunds(ContractError):
    pass


class BalanceOverflow(ContractError):
    pass


class NonceReplayed(ContractError):
    pass


class MalformedTransaction(ContractError):
    pass


class UnknownAddress(ContractError):
    pass


class Phase(enum.Enum):
    DEPLOYED = "Deployed"
    ADVANCE_PAID = "AdvancePaid"
    SIGNATURE_STORED = "SignatureStored"
    EXECUTED = "Executed"


class WalletLedger:
    """Map of address to balance, a 256-bit word, with a constant total supply."""

    def __init__(self, balances: Optional[dict[bytes, int]] = None):
        self.balances: dict[bytes, int] = {}
        for addr, amount in (balances or {}).items():
            if not 0 <= amount < UINT256_LIMIT:
                raise InvalidAmounts(f"balance for {addr.hex()} must be in [0, 2^256)")
            self.balances[addr] = amount

    def balance_of(self, addr: bytes) -> int:
        if addr not in self.balances:
            raise UnknownAddress(addr.hex())
        return self.balances[addr]

    def total_supply(self) -> int:
        return sum(self.balances.values())

    def transfer(self, frm: bytes, to: bytes, amount: int) -> None:
        if amount < 0:
            raise InvalidAmounts("transfer amount must be non-negative")
        if self.balance_of(frm) < amount:
            raise InsufficientFunds(
                f"{frm.hex()} holds {self.balances[frm]}, needs {amount}"
            )
        if to not in self.balances:
            raise UnknownAddress(to.hex())
        if to != frm and self.balances[to] + amount >= UINT256_LIMIT:
            raise BalanceOverflow(f"{to.hex()} would hold 2^256 or more")
        self.balances[frm] -= amount
        self.balances[to] += amount


@dataclass(frozen=True)
class TransactionRecord:
    frm: bytes
    to: bytes
    amount: int
    nonce: int

    def serialize(self) -> bytes:
        """Canonical byte form signed by the investor: from, to, amount, nonce."""
        if len(self.frm) != ADDRESS_LEN or len(self.to) != ADDRESS_LEN:
            raise MalformedTransaction("addresses must be 20 bytes")
        if not (0 <= self.amount < UINT256_LIMIT and 0 <= self.nonce < UINT256_LIMIT):
            raise MalformedTransaction("amount and nonce must be in [0, 2^256)")
        return encode_parts(*field_parts(self))


@dataclass(frozen=True)
class TriggerSubmission:
    tk: VerificationToken
    tx: TransactionRecord
    sig_e: EcdsaSignature


@dataclass(frozen=True)
class ExecutionReceipt:
    verdict: bool
    gas: GasReport
    transfer: Optional[tuple[bytes, bytes, int]] = None


@dataclass
class ContractState:
    phase: Phase
    m: bytes
    operator: bytes
    investor: bytes
    advance_required: int
    investment_amount: int
    par: PublicParams
    pk_s: SignerPublicKey
    pk_n: NomineePublicKey
    stored_sigma: Optional[NomSignature] = None
    used_nonces: set[int] = field(default_factory=set)


def deploy(
    m: bytes,
    operator: bytes,
    investor: bytes,
    pk_s: SignerPublicKey,
    pk_n: NomineePublicKey,
    par: PublicParams,
    advance_required: int,
    investment_amount: int,
) -> ContractState:
    if not (0 < advance_required < UINT256_LIMIT and 0 < investment_amount < UINT256_LIMIT):
        raise InvalidAmounts("advance and investment amounts must be in [1, 2^256)")
    if len(operator) != ADDRESS_LEN or len(investor) != ADDRESS_LEN:
        raise MalformedTransaction("party addresses must be 20 bytes")
    return ContractState(
        phase=Phase.DEPLOYED,
        m=m,
        operator=operator,
        investor=investor,
        advance_required=advance_required,
        investment_amount=investment_amount,
        par=par,
        pk_s=pk_s,
        pk_n=pk_n,
    )


def pay_advance(state: ContractState, ledger: WalletLedger, amount: int) -> None:
    if not 0 <= amount < UINT256_LIMIT:
        raise InvalidAmounts("the advance must be in [0, 2^256)")
    if state.phase is not Phase.DEPLOYED:
        raise WrongPhase(f"advance not accepted in phase {state.phase.value}")
    if amount < state.advance_required:
        raise InsufficientAdvance(
            f"paid {amount}, required {state.advance_required}; no further transactions"
        )
    ledger.transfer(state.investor, state.operator, amount)
    state.phase = Phase.ADVANCE_PAID


def store_signature(state: ContractState, sigma: NomSignature) -> None:
    # stored verbatim: nobody but the nominee can check it at this point
    if state.phase is not Phase.ADVANCE_PAID:
        raise WrongPhase(f"signature not accepted in phase {state.phase.value}")
    state.stored_sigma = sigma
    state.phase = Phase.SIGNATURE_STORED


def submit_trigger(
    state: ContractState,
    ledger: WalletLedger,
    sub: TriggerSubmission,
    table: CostTable = CostTable(),
    gas_price: Optional[Fraction] = None,
) -> ExecutionReceipt:
    if state.phase is not Phase.SIGNATURE_STORED:
        raise WrongPhase(f"trigger not accepted in phase {state.phase.value}")
    tx = sub.tx
    if tx.frm != state.investor or tx.to != state.operator:
        raise MalformedTransaction("transaction parties do not match the contract")
    if tx.amount != state.investment_amount:
        raise MalformedTransaction("transaction amount does not match the contract")
    if tx.nonce in state.used_nonces:
        raise NonceReplayed(f"nonce {tx.nonce} already used")
    message = tx.serialize()

    assert state.stored_sigma is not None
    tk_ok, counts = tk_verify(
        state.par, state.pk_s, state.pk_n, state.m, state.stored_sigma, sub.tk
    )
    ecdsa_ok = verify_against_address(sub.sig_e, message, state.investor)
    gas = build_report(counts, table, gas_price)

    if not (tk_ok and ecdsa_ok):
        # still armed: the investor may resubmit a corrected trigger
        return ExecutionReceipt(verdict=False, gas=gas)

    ledger.transfer(tx.frm, tx.to, tx.amount)
    state.used_nonces.add(tx.nonce)
    state.phase = Phase.EXECUTED
    return ExecutionReceipt(verdict=True, gas=gas, transfer=(tx.frm, tx.to, tx.amount))

