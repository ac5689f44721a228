import dataclasses
import json
import math

import pytest

from chasescape import birth_death, verify
from chasescape.cli import main


def test_nan_terminal_samples_fail_the_law_instead_of_raising(monkeypatch):
    nan_sampler = lambda *args: math.nan
    monkeypatch.setattr(verify, "sample_terminal_gamma_process", nan_sampler)
    monkeypatch.setattr(verify, "sample_limit_sum", nan_sampler)
    passed, details = verify.check_terminal_laws()
    assert passed is False
    assert details["process_ks_vs_gamma3"]["ok"] is False
    assert details["limit_sum_vs_direct_ks"]["ok"] is False


def test_over_budget_criterion_fails_on_budget_not_on_law(monkeypatch, capsys):
    first = verify.CRITERIA[0]
    assert first.fast
    monkeypatch.setattr(
        verify, "CRITERIA", (dataclasses.replace(first, runtime_limit_seconds=0.0),)
    )
    code = main(["verify", "--level", "fast"])
    report = json.loads(capsys.readouterr().out)
    [entry] = report["criteria"]
    assert (entry["law_ok"], entry["within_budget"], entry["passed"]) == (True, False, False)
    assert report["passed"] is False and code == 1


def test_unknown_level_is_refused():
    with pytest.raises(ValueError, match="level must be 'fast' or 'full'"):
        verify.run_verification("quick")


def test_determinism_runs_the_coupling_block_over_two_chunks_and_a_lone_trial(monkeypatch):
    # criterion 12 holds the batched coupling block to run_coupling per trial;
    # with two full chunks and a one-trial chunk, both the multi-row
    # conversion mask and the one-row branch meet run_coupling
    chunk_rows = []
    spacings = birth_death._spacings

    def recording(u, neg_rates):
        chunk_rows.append(u.shape[0])
        return spacings(u, neg_rates)

    monkeypatch.setattr(birth_death, "_spacings", recording)
    passed, details = verify.check_determinism()
    assert passed and details["coupling_block_matches_per_trial"] is True
    rows = birth_death._chunk_rows(30)
    assert rows > 1
    # the two 20-trial repeat blocks, the batched block, one call per lone trial
    assert chunk_rows == [20, 20, rows, rows, 1] + [1] * (2 * rows + 1)
