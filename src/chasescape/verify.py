"""Built-in verification suite.

Each criterion is a self-contained check with a fixed seed, a runtime
budget, and a machine-readable result carrying measured-vs-expected values.
Limiting values are checked as exact-oracle agreement plus finite-n
trends, never as literal limits.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytics import (
    chi_square_gof,
    conversion_growth_limit,
    exact_distribution_W,
    expected_excess_closed,
    expected_excess_quadrature,
    expected_white_limit,
    extinction_limit,
    prob_gamma_less_exp_closed,
    prob_gamma_less_exp_quadrature,
)
from .birth_death import run_coupling, sample_limit_sum, sample_terminal_gamma_process
from .chain import (
    JumpRecord,
    check_trajectory,
    read_trajectory_csv,
    run_to_fixation,
    write_trajectory_csv,
)
from .harness import Engine, Estimator, ExperimentConfig, run_block, run_experiment, run_trials
from .params import InitMode, Params
from .rng import make_rng, stream_seed

ALPHA_GRID = (0.1, 0.3, 1.0, 2.0, 2.5, 4.0, 8.0)


def _three_se_check(measured: float, expected: float, se: float) -> dict:
    return {
        "measured": measured,
        "expected": expected,
        "tolerance_3se": 3.0 * se,
        "ok": abs(measured - expected) <= 3.0 * se,
    }


def _gap_ladder(key: str, value: Callable[[int], float], limit: float) -> list[dict]:
    """``{n, key: value(n), gap}`` rows at n = 100, 400, 1600; gap = |value - limit|."""
    rows = []
    for n in (100, 400, 1600):
        v = value(n)
        rows.append({"n": n, key: v, "gap": abs(v - limit)})
    return rows


def _strictly_decreasing(rows: list[dict], key: str = "gap") -> bool:
    return all(a[key] > b[key] for a, b in zip(rows, rows[1:]))


def check_appendix_identities() -> tuple[bool, dict]:
    rows = []
    for alpha in ALPHA_GRID:
        d1 = abs(prob_gamma_less_exp_closed(alpha) - prob_gamma_less_exp_quadrature(alpha))
        d2 = abs(expected_excess_closed(alpha) - expected_excess_quadrature(alpha))
        rows.append({"alpha": alpha, "gamma_vs_exp_diff": d1, "excess_diff": d2})
    worst = max(max(r["gamma_vs_exp_diff"], r["excess_diff"]) for r in rows)
    return worst < 1e-8, {"tolerance": 1e-8, "worst_abs_diff": worst, "grid": rows}


def check_terminal_laws() -> tuple[bool, dict]:
    from scipy.special import gammainc
    from scipy.stats import ks_1samp, ks_2samp

    n_samples = 10**5
    rng = make_rng(stream_seed(1002, 0))
    process_vals = np.array(
        [sample_terminal_gamma_process(3.0, 12.0, rng) for _ in range(n_samples)]
    )
    mean_check = _three_se_check(
        float(process_vals.mean()),
        3.0 - 2.0 * math.exp(-12.0),
        float(process_vals.std(ddof=1)) / math.sqrt(n_samples),
    )
    # asymp: an exact p-value costs 7x the statistic here and nothing reads
    # it; ks_2samp's exact mode would round D to a multiple of 1/lcm(n1, n2)
    ks_process = float(
        ks_1samp(process_vals, lambda xs: gammainc(3.0, xs), method="asymp").statistic
    )

    rng = make_rng(stream_seed(1002, 1))
    limit_vals = np.array([sample_limit_sum(1.5, 40.0, rng) for _ in range(n_samples)])
    direct_vals = rng.standard_gamma(1.5, size=n_samples)
    ks_pair = float(ks_2samp(limit_vals, direct_vals, method="asymp").statistic)

    rng = make_rng(stream_seed(1002, 2))
    laplace_vals = np.exp(
        -np.array([sample_limit_sum(2.0, 40.0, rng) for _ in range(n_samples)])
    )
    laplace_check = _three_se_check(
        float(laplace_vals.mean()), 0.25, float(laplace_vals.std(ddof=1)) / math.sqrt(n_samples)
    )

    details = {
        "process_mean_at_t12": mean_check,
        "process_ks_vs_gamma3": {"measured": ks_process, "threshold": 0.01, "ok": ks_process < 0.01},
        "limit_sum_vs_direct_ks": {"measured": ks_pair, "threshold": 0.01, "ok": ks_pair < 0.01},
        "laplace_at_s1_alpha2": laplace_check,
    }
    passed = all(part["ok"] for part in details.values())
    return passed, details


def _engine_agreement(
    engine: Engine, n: int, trials: int, seed: int
) -> dict:
    params = Params(n=n, lam=1.0, alpha=2.0)
    exact = exact_distribution_W(n, 1.0, 2.0)
    config = ExperimentConfig(
        params=params, trials=trials, seed=seed, estimator=Estimator.W_HISTOGRAM, engine=engine
    )
    w, _, _ = run_trials(config)
    counts = np.bincount(w, minlength=n + 1)
    p_exact = exact.extinction_probability
    p_hat = float(counts[0]) / trials
    se = math.sqrt(p_exact * (1.0 - p_exact) / trials)
    chi = chi_square_gof(counts, exact.probabilities)
    return {
        "engine": engine.value,
        "n": n,
        "trials": trials,
        "extinction": _three_se_check(p_hat, p_exact, se),
        "chi_square": {
            "statistic": chi.statistic,
            "dof": chi.dof,
            "pvalue": chi.pvalue,
            "significance": 0.001,
            "ok": chi.pvalue >= 0.001,
        },
    }


def check_cross_engine_laws() -> tuple[bool, dict]:
    reports = [
        _engine_agreement(Engine.CHAIN, 50, 10**5, 1003),
        _engine_agreement(Engine.GRAPH, 20, 10**4, 1013),
        _engine_agreement(Engine.COUPLING, 50, 10**5, 1023),
    ]
    passed = all(r["extinction"]["ok"] and r["chi_square"]["ok"] for r in reports)
    return passed, {"engines": reports}


def check_instant_conversion() -> tuple[bool, dict]:
    rows = []
    for n, lam, alpha in ((10, 1.0, 1.0), (100, 1.0, 4.0), (50, 2.0, 0.5)):
        exact = exact_distribution_W(n, lam, alpha)
        expected = alpha / (lam * n + alpha)
        diff = abs(float(exact.probabilities[n]) - expected)
        rows.append(
            {"n": n, "lambda": lam, "alpha": alpha,
             "measured": float(exact.probabilities[n]), "expected": expected, "abs_diff": diff}
        )
    worst = max(r["abs_diff"] for r in rows)
    return worst < 1e-12, {"tolerance": 1e-12, "worst_abs_diff": worst, "cases": rows}


def check_alpha_one_equivalence() -> tuple[bool, dict]:
    standard = exact_distribution_W(50, 1.0, 1.0, InitMode.STANDARD)
    kortchemski = exact_distribution_W(50, 1.0, 0.0, InitMode.KORTCHEMSKI)
    diff = float(np.max(np.abs(standard.probabilities - kortchemski.probabilities)))
    return diff < 1e-12, {
        "tolerance": 1e-12,
        "max_abs_diff": diff,
        "standard_extinction": standard.extinction_probability,
        "kortchemski_extinction": kortchemski.extinction_probability,
    }


def check_extinction_trend() -> tuple[bool, dict]:
    target = extinction_limit(1.0, 2.0)
    gaps = _gap_ladder(
        "extinction", lambda n: exact_distribution_W(n, 1.0, 2.0).extinction_probability, target
    )
    decreasing = _strictly_decreasing(gaps)
    sub = exact_distribution_W(1600, 0.5, 2.0).extinction_probability
    sup = exact_distribution_W(1600, 2.0, 2.0).extinction_probability
    details = {
        "critical": {"limit": target, "ladder": gaps, "strictly_decreasing": decreasing,
                     "final_gap": gaps[-1]["gap"]},
        "subcritical_n1600": {"measured": sub, "threshold": 0.05, "ok": sub < 0.05},
        "supercritical_n1600": {"measured": sup, "threshold": 0.95, "ok": sup > 0.95},
    }
    passed = decreasing and sub < 0.05 and sup > 0.95
    return passed, details


def check_expected_white_trend() -> tuple[bool, dict]:
    out = {}
    passed = True
    for alpha in (1.0, 3.0):
        limit = expected_white_limit(alpha)
        ladder = _gap_ladder(
            "expected_w", lambda n: exact_distribution_W(n, 1.0, alpha).expected_w, limit
        )
        decreasing = _strictly_decreasing(ladder)
        passed = passed and decreasing
        out[f"alpha_{alpha}"] = {
            "limit": limit,
            "ladder": ladder,
            "strictly_decreasing": decreasing,
            "final_relative_gap": ladder[-1]["gap"] / limit,
        }
    return passed, out


def check_conversion_trend() -> tuple[bool, dict]:
    target = conversion_growth_limit(4.0)
    rows = []
    for i, n in enumerate((100, 1000, 10000)):
        params = Params(n=n, lam=1.0, alpha=4.0)
        config = ExperimentConfig(
            params=params,
            trials=10**4,
            seed=1008 + i,
            estimator=Estimator.CONVERSION_OVER_LOG_N,
            engine=Engine.COUPLING,
        )
        _, c, _ = run_trials(config)
        scaled = c / math.log(n)
        rows.append(
            {
                "n": n,
                "mean": float(scaled.mean()),
                "gap": abs(float(scaled.mean()) - target),
                "fraction_outside_band": float(np.mean(np.abs(scaled - target) > 1.0)),
            }
        )
    mean_decreasing = _strictly_decreasing(rows)
    frac_decreasing = _strictly_decreasing(rows, "fraction_outside_band")
    details = {
        "limit": target,
        "ladder": rows,
        "mean_gap_strictly_decreasing": mean_decreasing,
        "outside_band_fraction_decreasing": frac_decreasing,
    }
    return mean_decreasing and frac_decreasing, details


def check_fixation_time_scaling() -> tuple[bool, dict]:
    n = 10**4
    params = Params(n=n, lam=1.0, alpha=1.0)
    config = ExperimentConfig(
        params=params,
        trials=10**3,
        seed=1009,
        estimator=Estimator.TAU_OVER_LOG_N,
        engine=Engine.COUPLING,
    )
    _, _, tau = run_trials(config)
    mean = float(np.mean(tau / math.log(n)))
    ok = 0.85 <= mean <= 1.15
    return ok, {"measured": mean, "band": [0.85, 1.15], "limit": 1.0, "n": n, "trials": 10**3}


def check_z_identity() -> tuple[bool, dict]:
    n_samples = 10**5
    alpha = 2.0
    rng = make_rng(stream_seed(1010, 0))
    g = rng.standard_gamma(alpha, size=n_samples)
    e = -np.log1p(-rng.random(n_samples))
    z = np.where(g > e, 1.0 + rng.poisson(np.clip(g - e, 0.0, None)), 0.0)
    check = _three_se_check(float(z.mean()), alpha, float(z.std(ddof=1)) / math.sqrt(n_samples))
    return check["ok"], check


def check_trajectory_export() -> tuple[bool, dict]:
    params = Params(n=100, lam=1.0, alpha=4.0)
    seed = 1011
    paths = []
    for i in range(100):
        records: list[JumpRecord] = []
        run_to_fixation(params, make_rng(stream_seed(seed, i)), records)
        check_trajectory(records, params)
        paths.append(records)
    w_samples = [records[-1].state.w for records in paths]
    buf = io.StringIO()
    write_trajectory_csv(paths[0], buf)
    buf.seek(0)
    roundtrip_ok = read_trajectory_csv(buf) == paths[0]
    variance = float(np.var(w_samples))
    details = {
        "seeds": 100,
        "w_variance": variance,
        "w_min_observed": int(min(w_samples)),
        "w_min_note": "small values expected at this configuration; reported, not asserted",
        "csv_roundtrip_ok": roundtrip_ok,
    }
    return variance > 0.0 and roundtrip_ok, details


def check_determinism() -> tuple[bool, dict]:
    params = Params(n=30, lam=1.0, alpha=1.5)
    base = dict(params=params, seed=1012, estimator=Estimator.EXPECTED_W)
    engines_ok = {}
    for engine in Engine:
        config = ExperimentConfig(engine=engine, trials=20, **base)
        first, second = run_block(config, 0, 20), run_block(config, 0, 20)
        engines_ok[engine.value] = all(map(np.array_equal, first, second))

    # the batched coupling block against one make_rng + run_coupling per
    # trial, over more trials than one chunk holds at n = 30
    start, stop = 7, 407
    batched = run_block(ExperimentConfig(engine=Engine.COUPLING, trials=stop, **base), start, stop)
    per_trial = [run_coupling(params, make_rng(stream_seed(1012, i))) for i in range(start, stop)]
    batched_ok = all(
        np.array_equal(column, [getattr(res, field) for res in per_trial])
        for column, field in zip(batched, ("white_survivors", "conversions", "fixation_time"))
    )

    chain = dict(base, trials=2000, engine=Engine.CHAIN)
    serial = run_experiment(ExperimentConfig(parallelism=1, **chain)).to_json()
    parallel = run_experiment(ExperimentConfig(parallelism=8, **chain)).to_json()
    merge_ok = serial == parallel
    details = {
        "engine_repeat_identical": engines_ok,
        "coupling_block_matches_per_trial": batched_ok,
        "parallelism_1_vs_8_identical": merge_ok,
    }
    return all(engines_ok.values()) and batched_ok and merge_ok, details


@dataclass(frozen=True)
class Criterion:
    cid: int
    name: str
    fast: bool
    runtime_limit_seconds: float
    run: Callable[[], tuple[bool, dict]]


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "appendix-integral-identities", True, 1.0, check_appendix_identities),
    Criterion(2, "terminal-value-laws", False, 120.0, check_terminal_laws),
    Criterion(3, "cross-engine-law-equivalence", False, 300.0, check_cross_engine_laws),
    Criterion(4, "instant-conversion-identity", True, 1.0, check_instant_conversion),
    Criterion(5, "alpha-one-equivalence", True, 1.0, check_alpha_one_equivalence),
    Criterion(6, "extinction-probability-trend", False, 120.0, check_extinction_trend),
    Criterion(7, "expected-white-trend", False, 120.0, check_expected_white_trend),
    Criterion(8, "conversion-growth-trend", False, 300.0, check_conversion_trend),
    Criterion(9, "fixation-time-scaling", False, 120.0, check_fixation_time_scaling),
    Criterion(10, "z-identity", True, 30.0, check_z_identity),
    Criterion(11, "trajectory-export", True, 30.0, check_trajectory_export),
    Criterion(12, "determinism", True, 30.0, check_determinism),
)


def run_criterion(criterion: Criterion) -> dict:
    """One criterion's report entry; ``passed`` is ``law_ok`` and ``within_budget``."""
    start = time.perf_counter()
    law_ok, details = criterion.run()
    elapsed = time.perf_counter() - start
    within_budget = elapsed < criterion.runtime_limit_seconds
    return {
        "id": criterion.cid,
        "name": criterion.name,
        "passed": law_ok and within_budget,
        "law_ok": law_ok,
        "within_budget": within_budget,
        "runtime_seconds": round(elapsed, 3),
        "runtime_limit_seconds": criterion.runtime_limit_seconds,
        "details": details,
    }


def run_verification(level: str = "full") -> dict:
    """Run the acceptance checks; ``fast`` restricts to the seconds-scale ones."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    selected = [c for c in CRITERIA if level == "full" or c.fast]
    # scipy.special is a one-off process cost, not any criterion's work, so
    # it loads before the first criterion's clock starts
    import scipy.special  # noqa: F401

    results = [run_criterion(c) for c in selected]
    return {
        "level": level,
        "passed": all(r["passed"] for r in results),
        "criteria": results,
    }

