"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Every check runs at its stated tolerance and trial count through the same
registry that backs ``chasescape verify --level full``.  Each criterion's
``details`` must also match ``tests/golden/verify_details.json`` byte for
byte; like the other goldens, that file changes only with a declared
change of the determinism contract.  To regenerate it:

    PYTHONPATH=src python tests/test_acceptance.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from chasescape.harness import canonical_json
from chasescape.verify import CRITERIA, run_criterion

_BY_ID = {c.cid: c for c in CRITERIA}

DETAILS_GOLDEN = Path(__file__).parent / "golden" / "verify_details.json"


def _golden_details() -> dict:
    return json.loads(DETAILS_GOLDEN.read_text(encoding="utf-8"))


def _run(cid):
    result = run_criterion(_BY_ID[cid])
    marker = "PASS" if result["passed"] else "FAIL"
    print(
        f"[criterion {result['id']:02d}] {result['name']}: {marker} "
        f"({result['runtime_seconds']:.2f}s / limit {result['runtime_limit_seconds']:.0f}s)"
    )
    assert result["passed"], f"{result['name']} failed: {result}"
    assert canonical_json(result["details"]) == canonical_json(_golden_details()[str(cid)])
    return result["details"]


def test_criterion_01_appendix_integral_identities():
    details = _run(1)
    assert details["worst_abs_diff"] < 1e-8


def test_criterion_02_terminal_value_laws():
    details = _run(2)
    assert details["process_ks_vs_gamma3"]["measured"] < 0.01
    assert details["limit_sum_vs_direct_ks"]["measured"] < 0.01


def test_criterion_03_cross_engine_law_equivalence():
    details = _run(3)
    for engine_report in details["engines"]:
        assert engine_report["chi_square"]["pvalue"] >= 0.001


def test_criterion_04_instant_conversion_identity():
    details = _run(4)
    assert details["worst_abs_diff"] < 1e-12


def test_criterion_05_alpha_one_equivalence():
    details = _run(5)
    assert details["max_abs_diff"] < 1e-12


def test_criterion_06_extinction_probability_trend():
    details = _run(6)
    assert details["critical"]["strictly_decreasing"]


def test_criterion_07_expected_white_trend():
    details = _run(7)
    for key in ("alpha_1.0", "alpha_3.0"):
        assert details[key]["strictly_decreasing"]


def test_criterion_08_conversion_growth_trend():
    details = _run(8)
    assert details["mean_gap_strictly_decreasing"]
    assert details["outside_band_fraction_decreasing"]


def test_criterion_09_fixation_time_scaling():
    details = _run(9)
    assert 0.85 <= details["measured"] <= 1.15


def test_criterion_10_z_identity():
    details = _run(10)
    assert abs(details["measured"] - 2.0) <= details["tolerance_3se"]


def test_criterion_11_trajectory_export():
    details = _run(11)
    assert details["w_variance"] > 0
    # the minimum over 100 seeds is reported, not asserted
    assert "w_min_observed" in details


def test_criterion_12_determinism():
    details = _run(12)
    assert details["parallelism_1_vs_8_identical"]
    assert all(details["engine_repeat_identical"].values())
    assert details["coupling_block_matches_per_trial"]


@pytest.mark.parametrize("cid", sorted(_BY_ID))
def test_registry_budgets_are_positive(cid):
    assert _BY_ID[cid].runtime_limit_seconds > 0


def _write_golden() -> None:
    details = {str(c.cid): run_criterion(c)["details"] for c in CRITERIA}
    DETAILS_GOLDEN.write_text(canonical_json(details), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_acceptance.py --write")
    _write_golden()
