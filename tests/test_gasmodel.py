import json
from fractions import Fraction

import pytest

from nomsig.gasmodel import (
    DEFAULT_GAS_PRICE_ETH,
    CostTable,
    GasModelError,
    GasReport,
    build_report,
    meter_tkverify,
    price_pairing_call,
    ratio_vs_ecrecover,
)
from nomsig.scheme import OpCounts


def test_default_table():
    t = CostTable()
    assert t.pairing_base == 45000
    assert t.pairing_per_pair == 34000
    assert t.ec_add == 150
    assert t.ecrecover == 3000


def test_pairing_call_prices():
    assert price_pairing_call(0) == 45000
    assert price_pairing_call(1) == 79000
    assert price_pairing_call(8) == 317000
    with pytest.raises(GasModelError):
        price_pairing_call(-1)


def test_meter_reference_points():
    assert meter_tkverify(OpCounts(pairing_pairs=8, ec_additions=256)) == 355400
    assert meter_tkverify(OpCounts(pairing_pairs=8, ec_additions=0)) == 317000
    assert meter_tkverify(OpCounts(pairing_pairs=8, ec_additions=514)) == 394100


def test_meter_rejects_negative_counts():
    for counts in (OpCounts(pairing_pairs=-8), OpCounts(pairing_pairs=8, ec_additions=-1)):
        with pytest.raises(GasModelError):
            meter_tkverify(counts)


def test_meter_linearity():
    base = meter_tkverify(OpCounts(pairing_pairs=3, ec_additions=10))
    assert meter_tkverify(OpCounts(pairing_pairs=4, ec_additions=10)) == base + 34000
    assert meter_tkverify(OpCounts(pairing_pairs=3, ec_additions=11)) == base + 150


def test_build_report_fields():
    counts = OpCounts(pairing_pairs=8, ec_additions=256, scalar_mults=2)
    rep = build_report(counts)
    assert rep.tkverify_gas == 355400
    assert rep.ecrecover_gas == 3000
    assert rep.total_gas == 358400
    assert rep.pairing_pairs == 8 and rep.ec_additions == 256
    assert rep.unpriced_scalar_mults == 2
    assert rep.eth_cost is None  # no price configured


def test_eth_cost_only_with_price():
    counts = OpCounts(pairing_pairs=8, ec_additions=256)
    rep = build_report(counts, gas_price=DEFAULT_GAS_PRICE_ETH)
    assert rep.eth_cost == DEFAULT_GAS_PRICE_ETH * 358400
    # the configured snapshot reproduces the reference conversion
    assert DEFAULT_GAS_PRICE_ETH * 355400 == Fraction(629058, 10**8)


def test_ratio():
    rep = build_report(OpCounts(pairing_pairs=8, ec_additions=256))
    assert ratio_vs_ecrecover(rep) == Fraction(355400, 3000)
    assert round(float(ratio_vs_ecrecover(rep)), 1) == 118.5
    assert ratio_vs_ecrecover(GasReport(tkverify_gas=100, ecrecover_gas=100)) == 1
    with pytest.raises(GasModelError):
        ratio_vs_ecrecover(GasReport(tkverify_gas=1, ecrecover_gas=0))


def test_table_from_file(tmp_path):
    path = tmp_path / "costs.json"
    path.write_text(json.dumps({"pairing_base": 80000, "ecrecover": 3500}))
    t = CostTable.from_file(str(path))
    assert t.pairing_base == 80000
    assert t.ecrecover == 3500
    assert t.ec_add == 150  # untouched defaults
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(GasModelError):
        CostTable.from_file(str(path))
    path.write_text("[]")
    with pytest.raises(GasModelError):
        CostTable.from_file(str(path))


def test_negative_costs_rejected():
    with pytest.raises(GasModelError):
        CostTable(ec_add=-1)
