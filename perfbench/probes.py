"""Measurements of one workload, each through the package's public surface.

Fresh-process probes (set-up, the ``chasescape estimate`` command, import
times) run the checkout's sources through ``PYTHONPATH``; in-process probes
call ``run_experiment``, ``cli.main`` and the engines directly.  The traced
probes replicate the harness trial loop (stream_seed -> make_rng -> engine
entry point) so that each layer gets its own span.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

import numpy as np

import chasescape as cs
import chasescape.cli  # noqa: F401 - the package does not import its CLI module
from tracing import Tracer
from workloads import Workload

SUBPROCESS_TIMEOUT_S = 60.0
RSS_SAMPLE_S = 0.02


# engine -> (span name of its public entry point, entry point)
KERNELS = {
    "coupling": ("birth_death.run_coupling", cs.run_coupling),
    "chain": ("chain.run_to_fixation", cs.run_to_fixation),
    "graph": ("graph.run_graph_to_fixation", cs.run_graph_to_fixation),
}

# what the `chasescape` console script runs
CLI_MAIN = "import sys; from chasescape.cli import main; sys.exit(main())"

# the calibration loop's typical time on the 2-vCPU host the benchmark was
# built on; timings are reported as if each op had run at that speed
CALIBRATION_NOMINAL_S = 0.0145


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine is right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return perf_counter() - t0


def subprocess_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(w: Workload, parallelism: int, env: dict, cwd: str) -> float:
    """Seconds a fresh interpreter takes to import chasescape and build the config."""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import chasescape as cs\n"
        f"cs.ExperimentConfig(params=cs.Params(n={w.n}, lam=1.0, alpha={w.alpha!r}), "
        f"trials={w.trials_per_op}, seed=0, estimator=cs.Estimator({w.estimator!r}), "
        f"engine=cs.Engine({w.engine!r}), parallelism={parallelism})\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return float(out.stdout)


def import_times(env: dict, cwd: str) -> tuple[float, float]:
    """Cumulative seconds of `chasescape` and `scipy.integrate` under -X importtime.

    A module that ``import chasescape`` does not load reports 0.
    """
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import chasescape"], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    cumulative = {}
    for line in out.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative["chasescape"], cumulative.get("scipy.integrate", 0.0)


@dataclass(frozen=True)
class Watched:
    stdout: str
    wall_s: float
    root_pid: int
    peak_mb: dict[int, float]  # highest VmHWM seen per process of the tree


def _vm_hwm_mb(pid: int) -> float | None:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return None  # a zombie has no memory lines


def _children(pid: int) -> list[int]:
    kids = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
            kids.extend(int(k) for k in fh.read().split())
    return kids


def _sample_tree(root: int, peaks: dict[int, float]) -> None:
    stack = [root]
    while stack:
        pid = stack.pop()
        try:
            hwm = _vm_hwm_mb(pid)
            stack.extend(_children(pid))
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading
        if hwm is not None:
            peaks[pid] = max(peaks.get(pid, 0.0), hwm)


def run_watched(argv: list[str], env: dict, cwd: str) -> Watched:
    """Run a command to completion, sampling the peak RSS of its process tree."""
    peaks: dict[int, float] = {}
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        while True:
            _sample_tree(proc.pid, peaks)
            try:
                out, err = proc.communicate(timeout=RSS_SAMPLE_S)
                break
            except subprocess.TimeoutExpired:
                if perf_counter() - t0 > SUBPROCESS_TIMEOUT_S:
                    raise
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"command exited with {proc.returncode}: {err.strip()[-500:]}")
    return Watched(out, wall, proc.pid, peaks)


def cli_op(w: Workload, seed: int, trials: int, parallelism: int, env: dict, cwd: str) -> Watched:
    """`chasescape estimate` for one op, in a fresh process."""
    return run_watched(
        [sys.executable, "-c", CLI_MAIN, *w.estimate_argv(seed, trials, parallelism)], env, cwd
    )


def inprocess_op(w: Workload, seed: int, trials: int, parallelism: int) -> tuple[str, float]:
    """Estimate JSON of one op and the wall seconds of its run_experiment call."""
    config = w.config(seed, trials, parallelism)
    t0 = perf_counter()
    summary = cs.run_experiment(config)
    seconds = perf_counter() - t0
    return summary.to_json(), seconds


@dataclass
class TrialCounts:
    """Per-trial outputs and work counts of one engine's traced trials."""

    w: np.ndarray
    c: np.ndarray
    tau: np.ndarray
    jumps: np.ndarray
    draws: np.ndarray  # Philox counter x 4: uniforms generated, buffered ones included


def replicate(tracer: Tracer, w: Workload, seed: int, trials: int) -> TrialCounts:
    """The harness trial loop for trials [0, trials), one span per layer call."""
    params = w.params()
    name, kernel = KERNELS[w.engine]
    dtypes = (np.int64, np.int64, np.float64, np.int64, np.int64)
    out = TrialCounts(*(np.empty(trials, dtype=t) for t in dtypes))
    record, now = tracer.record, perf_counter_ns
    with tracer.span("replicate"):
        if w.engine == "graph":
            graph = tracer.wrap("graph.complete_graph", cs.complete_graph)(params.total_vertices)
            args = (graph, params)
        else:
            args = (params,)
        for i in range(trials):
            t0 = now()
            s = cs.stream_seed(seed, i)
            t1 = now()
            rng = cs.make_rng(s)
            t2 = now()
            res = kernel(*args, rng)
            t3 = now()
            record("rng.stream_seed", t0, t1)
            record("rng.make_rng", t1, t2)
            record(name, t2, t3)
            out.w[i], out.c[i], out.tau[i] = res.white_survivors, res.conversions, res.fixation_time
            out.jumps[i] = res.jump_count
            out.draws[i] = int(rng.bit_generator.state["state"]["counter"][0]) * 4
    return out


@contextlib.contextmanager
def _traced_layers(tracer: Tracer, captured: list):
    """Wrap the harness entry points that `chasescape estimate` calls."""
    run_trials = cs.harness.run_trials

    def keep(config):
        result = run_trials(config)
        captured.append(result)
        return result

    patches = [
        (cs.cli, "run_experiment", tracer.wrap("run_experiment", cs.cli.run_experiment)),
        (cs.harness, "run_trials", tracer.wrap("harness.run_trials", keep)),
        (cs.harness, "summarize", tracer.wrap("harness.summarize", cs.harness.summarize)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def traced_cli(tracer: Tracer, w: Workload, seed: int, trials: int) -> tuple[str, tuple]:
    """In-process `chasescape estimate` at parallelism 1, traced.

    Returns the JSON it printed and the (W, C, tau) arrays of its run_trials.
    """
    captured: list = []
    buf = io.StringIO()
    with _traced_layers(tracer, captured), contextlib.redirect_stdout(buf):
        with tracer.span("cli.main"):
            rc = cs.cli.main(w.estimate_argv(seed, trials, 1))
    if rc != 0:
        raise RuntimeError(f"cli.main returned {rc}")
    return buf.getvalue(), captured[0]
