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


def _check(criterion):
    result = run_criterion(criterion)
    marker = "PASS" if result["passed"] else "FAIL"
    print(
        f"[criterion {result['id']:02d}] {result['name']}: {marker} "
        f"({result['runtime_seconds']:.2f}s / limit {result['runtime_limit_seconds']:.0f}s)"
    )
    assert result["passed"], f"{result['name']} failed: {result}"
    golden = _golden_details()[str(criterion.cid)]
    assert canonical_json(result["details"]) == canonical_json(golden)


# one test per criterion, test_criterion_NN_<name>: every field a criterion
# reports is held by its pass flag or by the golden comparison
for _criterion in CRITERIA:
    _name = f"test_criterion_{_criterion.cid:02d}_{_criterion.name.replace('-', '_')}"
    globals()[_name] = lambda criterion=_criterion: _check(criterion)


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
