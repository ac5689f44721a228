#!/usr/bin/env python3
"""The mutant ledger: how much the tier-1 checks catch.

Each entry of LEDGER is a one-place edit of the source (a file, its old
text, the new text, and what the edit breaks).  For each entry the tool
copies the repository to a temporary directory, applies the edit there and
runs the tier-1 command in the copy.  It counts every failing test as
bytes, parity, law or other:

- bytes: the test compares fixed-seed output with a committed golden
  (tests/test_golden.py, and a criterion of tests/test_acceptance.py that
  fails on its ``details`` comparison);
- parity: the test holds one computation to another's exact result on the
  same stream (the PARITY ids below);
- law: the test checks an engine's output against an exact law or value
  (the LAW ids below, and a criterion that fails on its pass flag);
- other: anything else, such as a guard, a format or a stream layout.

A mutant is killed when a law or a parity test fails.  One that survives
is reported, never dropped from the ledger.  Each mutant costs one tier-1
run, so the tool is not part of tier-1; ``--check`` only checks the ledger
(names unique, each edit a change, each old text exactly once in its file),
which tier-1 runs.  Example:

    python scripts/mutants.py --output MUTANTS.json
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tier-1 less the ledger's own check, which fails in every mutated copy
# because the edit has replaced its old text
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
    "--deselect", "tests/test_scripts.py::test_mutant_ledger_entries_apply",
]

LEDGER = [
    {
        "name": "graph-holding-time-is-its-mean",
        "file": "src/chasescape/graph.py",
        "old": "clock += -log1p(-u_hold) / total",
        "new": "clock += 1.0 / total",
        "breaks": "the law of tau: each holding time is its mean 1/q, not Exp(q); "
        "W, C and E[tau] keep their laws",
    },
    {
        "name": "graph-grow-rate-is-lambda-r-w",
        "file": "src/chasescape/graph.py",
        "old": "rate_grow = lam * rw",
        "new": "rate_grow = lam * r * slot.count(_WHITE)",
        "breaks": "the grow class off the complete graph: lambda * r * w equals "
        "lambda * |red-white edges| only on K_{n+1}",
    },
    {
        "name": "graph-chase-paints-a-uniform-red-vertex",
        "file": "src/chasescape/graph.py",
        "old": "counts, count = (white, rw) if grow else (blue, rb)",
        "new": "counts, count = (white, rw) if grow else ([1] * len(slot), r)",
        "breaks": "the chase member rule: a chase paints a uniform red vertex, not "
        "one weighted by its blue neighbours; on K_{n+1} the law is the same",
    },
    {
        "name": "coupling-flag-probability-one-rate-high",
        "file": "src/chasescape/birth_death.py",
        "old": "thresholds = np.divide(-a, neg_rates[n:])",
        "new": "thresholds = np.divide(-a, neg_rates[n:] - 1)",
        "breaks": "the law of C: birth i converts with probability a / (i + c + 1), "
        "not a / (i + c); W and tau keep their laws",
    },
    {
        "name": "coupling-tau-at-the-birth-before",
        "file": "src/chasescape/birth_death.py",
        "old": "times[chunk] = beta[r, m - 1]",
        "new": "times[chunk] = beta[r, m - 2]",
        "breaks": "the law of tau: fixation is read at birth m - 1, not at birth m",
    },
    {
        "name": "coupling-spacings-without-negate",
        "file": "src/chasescape/birth_death.py",
        "old": "    np.negative(u, out=u)\n",
        "new": "",
        "breaks": "every clock: log1p(u) in place of log1p(-u) gives spacings of the "
        "wrong sign and law, so W, C and tau all move",
    },
    {
        "name": "coupling-block-mask-counts-birth-m-plus-one",
        "file": "src/chasescape/birth_death.py",
        "old": "np.arange(n + 1) < m[:, None]",
        "new": "np.arange(n + 1) <= m[:, None]",
        "breaks": "C in multi-row chunks only: the birth after the last one counts too; "
        "run_coupling's one-row branch keeps its bytes",
    },
    {
        "name": "streams-rekey-one-counter-step-late",
        "file": "src/chasescape/rng.py",
        "old": "[offset // 4, 0, 0, 0]",
        "new": "[offset // 4 + 1, 0, 0, 0]",
        "breaks": "the stream layout: each generator streams() hands out starts four "
        "uniforms late, so a block no longer gives make_rng's bytes; no law moves",
    },
    {
        "name": "chi-square-drops-its-trailing-group",
        "file": "src/chasescape/analytics.py",
        "old": "    if acc_e > 0.0 and grouped_exp:\n"
        "        grouped_obs[-1] += acc_o\n"
        "        grouped_exp[-1] += acc_e\n",
        "new": "",
        "breaks": "the goodness-of-fit check: a trailing underweight group is dropped, "
        "not folded into its predecessor, so its observations go unchecked",
    },
    {
        "name": "wilson-ci-halves-the-z-squared-shrink",
        "file": "src/chasescape/analytics.py",
        "old": "shrink = 1.0 + z * z / trials",
        "new": "shrink = 1.0 + z * z / (2.0 * trials)",
        "breaks": "the Wilson interval: its centre and half-width are divided by "
        "1 + z^2 / (2n), not 1 + z^2 / n, so it widens and its centre moves",
    },
    {
        "name": "dp-reads-w-one-b-below-the-top",
        "file": "src/chasescape/analytics.py",
        "old": "w_dist[ws[-1]] = dec_flow[-1]",
        "new": "w_dist[ws[-1]] = dec_flow[-2:][0]",
        "breaks": "the DP's law of W: P(W = w) is read one b below the top of an odd "
        "layer, from a state with three red, wherever the layer has two b",
    },
    {
        "name": "coupling-tau-scaled-by-1.08",
        "file": "src/chasescape/birth_death.py",
        "old": "times[chunk] = beta[r, m - 1]",
        "new": "times[chunk] = 1.08 * beta[r, m - 1]",
        "breaks": "the law of tau by a factor of 1.08; W and C keep their laws",
    },
    {
        "name": "dp-conversion-rate-one-nth-high",
        "file": "src/chasescape/analytics.py",
        "old": "a = params.conversion_rate",
        "new": "a = params.conversion_rate * (1 + 1 / n)",
        "breaks": "the DP oracle: it runs at conversion rate alpha (1 + 1/n), so every "
        "exact law it gives moves away from the engines'",
    },
]

# ids without their parameters, matched from the start
PARITY = [
    r"tests/test_graph\.py::test_run_paints_the_member_a_count_free_reference_paints$",
    r"tests/test_graph\.py::TestBookkeeping::test_matches_brute_force_recount_along_runs$",
    r"tests/test_harness\.py::Test(Chain|Coupling|Graph)Block::"
    r"test_block_matches_per_trial_kernel$",
    r"tests/test_harness\.py::TestChainBlock::test_fixations_end_at_every_offset_of_a_fold$",
    r"tests/test_harness\.py::TestParallelism::",
    r"tests/test_birth_death\.py::TestCoupling::test_matches_event_by_event_replay$",
    r"tests/test_chain\.py::TestRunToFixation::test_recorded_and_unrecorded_runs_agree$",
]
LAW = [
    r"tests/test_graph\.py::TestLawAgreement::test_(matches|coloring_dp|path_graph)",
    r"tests/test_harness\.py::TestMeanTau::",
    r"tests/test_harness\.py::TestEstimators::test_(expected_w|extinction_prob|conversion_over)",
    r"tests/test_chain\.py::TestRunToFixation::test_(against_exact|embedded_chain_law"
    r"|instant_conversion|two_vertex)",
    r"tests/test_birth_death\.py::TestCoupling::test_(joint_law|kortchemski_coupling"
    r"|instant_conversion)",
]
CRITERION = "tests/test_acceptance.py::test_criterion_"


def kind_of(test_id: str, message: str) -> str:
    """bytes, parity, law or other (see the module docstring)."""
    bare = test_id.split("[", 1)[0]
    if bare.startswith("tests/test_golden.py::"):
        return "bytes"
    if bare.startswith(CRITERION):
        # _check asserts the pass flag with "<name> failed: <result>", then
        # compares the details with the golden
        return "law" if " failed: " in message else "bytes"
    if any(re.match(pattern, bare) for pattern in PARITY):
        return "parity"
    if any(re.match(pattern, bare) for pattern in LAW):
        return "law"
    return "other"


def check_ledger() -> list[str]:
    """A problem per entry whose name repeats an earlier one's, whose new
    text equals its old text, or whose old text does not occur exactly once."""
    problems, names = [], set()
    for entry in LEDGER:
        if entry["name"] in names:
            problems.append(f"{entry['name']}: name repeats an earlier entry's")
        names.add(entry["name"])
        if entry["new"] == entry["old"]:
            problems.append(f"{entry['name']}: new text equals old text")
        count = (ROOT / entry["file"]).read_text(encoding="utf-8").count(entry["old"])
        if count != 1:
            problems.append(f"{entry['name']}: old text occurs {count} times in {entry['file']}")
    return problems


def failures(junit: Path) -> list[tuple[str, str]]:
    """(test id, first line of its failure) for each failing or erroring test."""
    found = []
    for case in ET.parse(junit).iter("testcase"):
        bad = case.find("failure")
        if bad is None:
            bad = case.find("error")
        if bad is None:
            continue
        path = case.get("file", "")
        module = path.removesuffix(".py").replace("/", ".")
        inner = case.get("classname", "").removeprefix(module).lstrip(".")
        test_id = "::".join(part for part in (path, inner, case.get("name")) if part)
        found.append((test_id, (bad.get("message") or "").split("\n", 1)[0]))
    return found


def run_mutant(entry: dict) -> dict:
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out", "cover"
    )
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        target = copy / entry["file"]
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(entry["old"], entry["new"], 1), encoding="utf-8")
        junit = Path(tmp) / "junit.xml"
        env = dict(os.environ, PYTHONPATH="src")
        start = time.monotonic()
        proc = subprocess.run(
            [*TIER1, "-p", "no:cacheprovider", "-o", "junit_family=xunit1", f"--junitxml={junit}"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        seconds = time.monotonic() - start
        failed = failures(junit) if junit.exists() else [("<no junit report>", proc.stderr[-500:])]
    tests = [
        {"id": test_id, "kind": kind_of(test_id, message), "message": message[:300]}
        for test_id, message in failed
    ]
    kinds = {
        kind: sum(t["kind"] == kind for t in tests) for kind in ("law", "parity", "bytes", "other")
    }
    return {
        **entry,
        "exit_code": proc.returncode,
        "tier1_seconds": round(seconds, 1),
        "failed": len(tests),
        "by_kind": kinds,
        "killed": kinds["law"] + kinds["parity"] > 0,
        "tests": tests,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--check", action="store_true", help="only check the ledger's entries"
    )
    parser.add_argument("--output", default=None, help="report path (default: stdout)")
    args = parser.parse_args()
    problems = check_ledger()
    if problems or args.check:
        print("\n".join(problems) or f"{len(LEDGER)} ledger entries apply", file=sys.stderr)
        return 1 if problems else 0
    results = []
    for entry in LEDGER:
        results.append(run_mutant(entry))
        r = results[-1]
        print(f"{r['name']}: {r['failed']} failed, {r['by_kind']}", file=sys.stderr)
    report = {
        "command": " ".join(["PYTHONPATH=src", "python", *TIER1[1:]]),
        "killed_when": "a law or a parity test fails",
        "mutants": results,
        "survivors": [r["name"] for r in results if not r["killed"]],
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
