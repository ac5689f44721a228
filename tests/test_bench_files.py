"""Every committed BENCH_*.json states a summary that its own runs give.

A BENCH file holds the final line of every paired perfbench run and a
summary per workload and metric.  This re-derives the summary from the runs:
per-side medians and inclusive quartiles, pair wins and losses, and the
gain and bound verdicts under the rule the file states.  The quartiles are
compared to a relative 1e-12, because the committed files were written by
different tools and differ in the last bit.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BOUNDS = {
    metric["name"]: metric["bound"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
}
SIDES = ("parent", "change")
CLAIM_RULE = re.compile(
    r"a gain is shown when the change wins at least (\d+) of (\d+) pairs and the medians "
    r"differ by more than the parent's interquartile range; a metric is within its bound "
    r"when the change's median is not worse than the parent's by more than the "
    r"BENCHMARK\.json bound"
)


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_the_committed_bench_files_are_found():
    names = {path.name for path in BENCH_FILES}
    assert {"BENCH_chain_lockstep.json", "BENCH_graph_ids.json"} <= names
    assert {"BENCH_coupling_kernel.json", "BENCH_graph_counts.json"} <= names


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_summary_follows_from_the_runs(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    rule = CLAIM_RULE.fullmatch(doc["method"]["claim_rule"])
    assert rule is not None, "the claim rule is not one this test knows"
    min_wins, pairs = int(rule[1]), int(rule[2])
    assert doc["method"]["pairs_per_workload"] == pairs
    commits = {"parent": doc["parent_commit"], "change": doc["change_commit"]}
    for workload, metrics in doc["summary"].items():
        runs = sorted(
            (run for run in doc["runs"] if run["workload"] == workload),
            key=lambda run: run["pair"],
        )
        by_side = {side: [run for run in runs if run["side"] == side] for side in SIDES}
        for side in SIDES:
            assert [run["pair"] for run in by_side[side]] == list(range(pairs))
            assert all(run["commit"] == commits[side] for run in by_side[side])
            assert all(run["exit_code"] == 0 for run in by_side[side])
            failed = sum(run["result"]["failed"] for run in by_side[side])
            attempted = sum(run["result"]["attempted"] for run in by_side[side])
            assert metrics["failed_ops"][side] == f"{failed}/{attempted}"
        for name, stated in metrics.items():
            if name == "failed_ops":
                continue
            values = {
                side: [run["result"]["metrics"][name]["value"] for run in by_side[side]]
                for side in SIDES
            }
            for side in SIDES:
                q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
                assert _close(stated[side]["median"], median), (workload, name, side)
                assert _close(stated[side]["q1"], q1), (workload, name, side)
                assert _close(stated[side]["q3"], q3), (workload, name, side)
                assert stated[side]["n"] == pairs
            assert stated["bound"] == BOUNDS[name]
            sign = 1.0 if stated["better"] == "higher" else -1.0
            gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            assert stated["pairs"] == pairs
            assert stated["change_wins"] == sum(g > 0 for g in gains), (workload, name)
            assert stated["change_losses"] == sum(g < 0 for g in gains), (workload, name)
            parent, change = stated["parent"]["median"], stated["change"]["median"]
            iqr = stated["parent"]["q3"] - stated["parent"]["q1"]
            assert _close(stated["parent_iqr"], iqr)
            assert _close(stated["median_change_frac"], (change - parent) / parent)
            gain = stated["change_wins"] >= min_wins and sign * (change - parent) > iqr
            within = sign * (change - parent) >= -stated["bound"] * parent
            assert stated["gain_shown"] is gain, (workload, name)
            assert stated["within_bound"] is within, (workload, name)
