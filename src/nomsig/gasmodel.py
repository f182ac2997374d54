"""Precompile gas-cost model for the escrow contract's verification path.

Prices only what the priced precompiles charge for: one batched pairing
check (base + per-pair) plus curve additions, and the ecrecover call on
the trigger side. ``tk_verify`` runs exactly that one check, over the 8
pairs of its three equations combined by hash-derived coefficients, and
reports its tallies in ``OpCounts``. Its scalar multiplications carry no
price in the table; they are reported as an unpriced count so the report
stays honest about what it omits.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .scheme import OpCounts

# ETH per gas unit snapshot: 0.00629058 ETH for a 355,400 gas verification
DEFAULT_GAS_PRICE_ETH = Fraction(629058, 10**8) / 355400

# A gas report's integer figures in receipt order: each is below 2^64, as EVM gas is.
REPORT_COUNTS = ("tkverify_gas", "ecrecover_gas", "total_gas", "pairing_pairs", "ec_additions",
                 "unpriced_scalar_mults")


class GasModelError(Exception):
    pass


def parse_fraction(text: str, what: str) -> Fraction:
    """A non-negative decimal or n/d string, such as a gas price or an ETH cost, as a Fraction."""
    # Fraction expands a decimal exponent into a full integer: refuse one of 1000 or more in size first
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*\Z", text)
    if exponent and len(exponent[1].replace("_", "").lstrip("0")) > 3:
        raise GasModelError(f"bad {what}: exponent out of range")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GasModelError(f"bad {what}: {exc}") from None
    if value < 0:
        raise GasModelError(f"bad {what}: negative")
    return value


@dataclass(frozen=True)
class CostTable:
    pairing_base: int = 45000
    pairing_per_pair: int = 34000
    ec_add: int = 150
    ecrecover: int = 3000

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise GasModelError(f"negative cost for {f.name}")

    @classmethod
    def from_file(cls, path: str) -> "CostTable":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except (ValueError, RecursionError) as exc:  # nesting deeper than the parser's stack is invalid too
                raise GasModelError("cost table file is not valid JSON") from exc
        if not isinstance(raw, dict):
            raise GasModelError("cost table file must hold a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise GasModelError(f"unknown cost table fields: {sorted(unknown)}")
        if any(type(v) is not int for v in raw.values()):
            raise GasModelError("cost table values must be integers")
        return cls(**raw)


@dataclass(frozen=True)
class GasReport:
    tkverify_gas: int
    ecrecover_gas: int
    pairing_pairs: int = 0
    ec_additions: int = 0
    unpriced_scalar_mults: int = 0
    eth_cost: Optional[Fraction] = None

    def __post_init__(self):
        for name in REPORT_COUNTS:
            if not 0 <= getattr(self, name) < 2**64:
                raise GasModelError(f"{name} is outside [0, 2^64)")
        if self.eth_cost is not None and not 0 <= self.eth_cost < 2**256:  # bounded as a 256-bit word is
            raise GasModelError("eth_cost is outside [0, 2^256)")

    @property
    def total_gas(self) -> int:
        return self.tkverify_gas + self.ecrecover_gas


def price_pairing_call(n: int, table: CostTable = CostTable()) -> int:
    """Gas for one batched pairing check over n pairs."""
    if n < 0:
        raise GasModelError("pair count must be non-negative")
    return table.pairing_base + table.pairing_per_pair * n


def meter_tkverify(counts: OpCounts, table: CostTable = CostTable()) -> int:
    """Gas for an instrumented token verification: its one batched pairing check plus additions."""
    if counts.ec_additions < 0:
        raise GasModelError("addition count must be non-negative")
    return price_pairing_call(counts.pairing_pairs, table) + table.ec_add * counts.ec_additions


def build_report(
    counts: OpCounts,
    table: CostTable = CostTable(),
    gas_price: Optional[Fraction] = None,
) -> GasReport:
    tkv = meter_tkverify(counts, table)
    eth = None
    if gas_price is not None:
        eth = Fraction(gas_price) * (tkv + table.ecrecover)
    return GasReport(
        tkverify_gas=tkv,
        ecrecover_gas=table.ecrecover,
        pairing_pairs=counts.pairing_pairs,
        ec_additions=counts.ec_additions,
        unpriced_scalar_mults=counts.scalar_mults,
        eth_cost=eth,
    )


def ratio_vs_ecrecover(report: GasReport) -> Fraction:
    if report.ecrecover_gas <= 0:
        raise GasModelError("ecrecover gas must be positive")
    return Fraction(report.tkverify_gas, report.ecrecover_gas)
