"""Command-line driver: simulate, estimate, exact, verify.

Exit codes: 0 on success, 1 when verification reports a failure, 2 on usage
or parameter errors and on requests over a resource cap.  Values supplied
through ``--config`` take precedence over the corresponding command-line
flags.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import replace

from .analytics import exact_distribution_W
from .chain import (
    TRAJECTORY_FIELDS,
    JumpRecord,
    run_to_fixation,
    trajectory_rows,
    write_trajectory_csv,
)
from .graph import parse_edge_list
from .harness import (
    Engine,
    Estimator,
    ExperimentConfig,
    canonical_json,
    params_as_dict,
    run_experiment,
)
from .params import InitMode, ParameterError, Params, ResourceLimitError, require_seed
from .rng import make_rng, stream_seed

_CONFIG_KEYS = {
    "n", "lambda", "alpha", "init", "engine", "trials", "seed",
    "parallelism", "estimator", "graph_file",
}

# allowed values of the enum-valued settings, for flags and config alike
_CHOICES = {
    "init": [m.value for m in InitMode],
    "engine": [e.value for e in Engine],
    "estimator": [e.value for e in Estimator],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chasescape",
        description="Chase-escape with conversion: simulators, exact oracles, Monte Carlo harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=100, help="white-site budget")
        p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="red spread rate")
        p.add_argument("--alpha", type=float, default=1.0, help="conversion rate")
        p.add_argument(
            "--init",
            choices=_CHOICES["init"],
            default=InitMode.STANDARD.value,
            help="initial condition mode",
        )

    sim = sub.add_parser("simulate", help="emit one trajectory as CSV (or JSON)")
    add_model_flags(sim)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", default=None, help="output path (default: stdout)")
    sim.add_argument("--format", choices=["csv", "json"], default="csv")

    est = sub.add_parser("estimate", help="Monte Carlo estimate with CI as JSON")
    add_model_flags(est)
    est.add_argument("--engine", choices=_CHOICES["engine"], default=Engine.CHAIN.value)
    est.add_argument(
        "--estimator", choices=_CHOICES["estimator"], default=Estimator.EXPECTED_W.value
    )
    est.add_argument("--trials", type=int, default=1000)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--parallelism", type=int, default=1)
    est.add_argument("--graph-file", dest="graph_file", default=None, help="edge list for the graph engine")
    est.add_argument("--config", default=None, help="JSON config; its values override flags")
    est.add_argument("--output", default=None)

    exact = sub.add_parser("exact", help="exact white-survivor distribution as JSON")
    add_model_flags(exact)
    exact.add_argument("--output", default=None)

    ver = sub.add_parser("verify", help="run the built-in verification suite")
    ver.add_argument("--level", choices=["fast", "full"], default="fast")
    ver.add_argument("--output", default=None)
    return parser


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _params_from_args(args: argparse.Namespace) -> Params:
    return Params(n=args.n, lam=args.lam, alpha=args.alpha, init_mode=InitMode(args.init))


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    require_seed("seed", args.seed)
    records: list[JumpRecord] = []
    run_to_fixation(params, make_rng(stream_seed(args.seed, 0)), records)
    if args.format == "csv":
        buf = io.StringIO()
        write_trajectory_csv(records, buf)
        text = buf.getvalue()
    else:
        jumps = [dict(zip(TRAJECTORY_FIELDS, row)) for row in trajectory_rows(records)]
        text = canonical_json({"params": params_as_dict(params), "jumps": jumps})
    _write_output(text, args.output)
    return 0


def _read_input(flag: str, path, parse):
    """``parse`` of the UTF-8 text of the file at ``path``; each error names
    the flag and the file.  One read decodes the whole file, so a bad byte's
    position is its offset in the file."""
    if not isinstance(path, str):  # open(5) would open file descriptor 5
        raise ParameterError(f"{flag} must be a path string, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        where = f"byte 0x{exc.object[exc.start]:02x} at position {exc.start}"
        raise ParameterError(f"{flag} {path}: not UTF-8 ({where})") from None
    except (ParameterError, json.JSONDecodeError) as exc:
        raise ParameterError(f"{flag} {path}: {exc}") from None


def _apply_config_file(args: argparse.Namespace) -> None:
    overrides = _read_input("--config", args.config, json.loads)
    if not isinstance(overrides, dict):
        raise ParameterError("config file must hold a JSON object")
    unknown = set(overrides) - _CONFIG_KEYS
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    mapping = {"lambda": "lam"}
    for key, value in overrides.items():
        choices = _CHOICES.get(key)
        if choices is not None and value not in choices:
            raise ParameterError(f"config {key}: invalid choice {value!r} (choose from {choices})")
        setattr(args, mapping.get(key, key), value)


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.config is not None:
        _apply_config_file(args)
    params = _params_from_args(args)
    config = ExperimentConfig(
        params=params,
        trials=args.trials,
        seed=args.seed,
        estimator=Estimator(args.estimator),
        engine=Engine(args.engine),
        parallelism=args.parallelism,
    )
    if args.graph_file is not None:  # parsed once, after the checks above, before any worker
        graph = _read_input("--graph-file", args.graph_file,
                            lambda text: parse_edge_list(text.split("\n"), params.total_vertices))
        config = replace(config, graph=graph)
    _write_output(run_experiment(config).to_json(), args.output)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    dist = exact_distribution_W(params.n, params.lam, params.alpha, params.init_mode)
    payload = {
        "params": params_as_dict(params),
        "distribution": dist.probabilities.tolist(),
        "expected_w": dist.expected_w,
        "expected_c": dist.expected_c,
        "extinction_probability": dist.extinction_probability,
    }
    _write_output(canonical_json(payload), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    report = run_verification(args.level)
    _write_output(canonical_json(report), args.output)
    return 0 if report["passed"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "exact": _cmd_exact,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ParameterError, ResourceLimitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
