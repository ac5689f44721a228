"""Command-line driver: simulate, estimate, exact, verify.

Exit codes: 0 on success, 1 when verification reports a failure, 2 on usage
or parameter errors and on requests over a resource cap.  Values supplied
through ``--config`` take precedence over the corresponding command-line
flags.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, TextIO

from .analytics import exact_distribution_W
from .chain import JumpRecord, run_to_fixation, trajectory_csv, trajectory_row
from .graph import parse_edge_list
from .harness import (
    Engine,
    Estimator,
    ExperimentConfig,
    canonical_json,
    params_as_dict,
    run_block,
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
    est.add_argument(
        "--parallelism", type=int, default=1,
        help="blocks, at most one per usable CPU; block 0 runs here and a pool runs the rest",
    )
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


def _check_writable(path: str | None) -> None:
    """Refuse an ``--output`` path that cannot be opened for writing, before
    any work.  An existing file keeps its bytes; a file the check creates is
    removed, so a refused run leaves no file behind."""
    if path is None:
        return
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ParameterError(f"--output {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The stream a command writes its output into: stdout, or the file at
    ``path``, opened once, when the command has nothing left to refuse."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _params_from_args(args: argparse.Namespace) -> Params:
    return Params(n=args.n, lam=args.lam, alpha=args.alpha, init_mode=InitMode(args.init))


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Write one trajectory, each jump as it is made.  Cut short (a signal, a
    write error), it leaves CSV that ends before fixation or JSON that does not parse."""
    params = _params_from_args(args)
    require_seed("seed", args.seed)
    if args.format == "csv":
        head, tail, row = trajectory_csv([]), "", trajectory_row
    else:  # the document's own text around its one jump
        doc = {"params": params_as_dict(params), "jumps": [None]}
        (head, tail), row = canonical_json(doc).split("null"), _json_jump
    index = itertools.count(1)
    with _output(args.output) as out:
        out.write(head)
        run_to_fixation(params, make_rng(stream_seed(args.seed, 0)),
                        lambda jump: out.write(row(next(index), jump)))
        out.write(tail)
    return 0


def _json_jump(index: int, jump: JumpRecord) -> str:
    """Jump ``index`` in a ``jumps`` list of :func:`canonical_json`'s layout."""
    t, (r, b, w), event = jump
    sep = ",\n    " if index > 1 else ""
    return (
        f'{sep}{{\n      "jump_index": {index},\n      "time": {t!r},\n      "r": {r},\n'
        f'      "b": {b},\n      "w": {w},\n      "event": "{event.value}"\n    }}'
    )


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
    except (ValueError, RecursionError) as exc:
        # a refusal, bad JSON or nesting too deep
        raise ParameterError(f"{flag} {path}: {exc}") from None
    except ResourceLimitError as exc:  # a graph over the cap, before it is built
        raise ResourceLimitError(f"{flag} {path}: {exc}") from None
    except OSError as exc:
        raise ParameterError(f"{flag} {path}: {exc.strerror}") from None


def _parse_config(text: str) -> dict:
    """The overrides a ``--config`` file holds, refused unless they form a
    JSON object of known keys whose enum values are valid choices."""
    overrides = json.loads(text, parse_int=_config_int)
    if not isinstance(overrides, dict):
        raise ParameterError("must hold a JSON object")
    unknown = set(overrides) - _CONFIG_KEYS
    if unknown:
        raise ParameterError(f"unknown keys: {sorted(unknown)}")
    for key, value in overrides.items():
        choices = _CHOICES.get(key)
        if choices is not None and value not in choices:
            raise ParameterError(f"{key}: invalid choice {value!r} (choose from {choices})")
    return overrides


def _config_int(text: str) -> int:
    """A ``--config`` integer, refused past Python's limit on digits in CLI words."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise ParameterError(f"an integer of {digits} digits is longer than any setting takes")


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config ``args`` ask for.  Without a graph file the empty block
    also refuses a request over an engine's cap, here rather than in the run."""
    config = ExperimentConfig(
        _params_from_args(args), trials=args.trials, seed=args.seed, parallelism=args.parallelism,
        estimator=Estimator(args.estimator), engine=Engine(args.engine),
    )
    if args.graph_file is None:
        run_block(config, 0, 0)
    return config


def _cmd_estimate(args: argparse.Namespace) -> int:
    flags = argparse.Namespace(**vars(args))
    overrides = {} if args.config is None else _read_input("--config", args.config, _parse_config)
    for key, value in overrides.items():
        setattr(args, "lam" if key == "lambda" else key, value)
    try:
        config = _experiment_config(args)
    except (ParameterError, ResourceLimitError) as exc:
        # the config file's fault unless the flags alone fail alike
        try:
            _experiment_config(flags)
        except (ParameterError, ResourceLimitError) as flag_exc:
            if str(flag_exc) == str(exc):
                raise
        raise type(exc)(f"--config {args.config}: {exc}") from None
    if args.graph_file is not None:  # parsed once, after the checks above, before any worker
        # a path from the config file is that file's fault, not the flag's
        blame = f"--config {args.config}: " if "graph_file" in overrides else ""
        if config.engine is not Engine.GRAPH:  # ExperimentConfig's refusal, before the read
            raise ParameterError(f"{blame}a graph only applies to the graph engine")
        vertices = config.params.total_vertices
        graph = _read_input(f"{blame}graph_file" if blame else "--graph-file", args.graph_file,
                            lambda text: parse_edge_list(text.split("\n"), vertices))
        config = replace(config, graph=graph)
    text = run_experiment(config).to_json()
    with _output(args.output) as out:
        out.write(text)
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
    with _output(args.output) as out:
        out.write(canonical_json(payload))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    report = run_verification(args.level)
    with _output(args.output) as out:
        out.write(canonical_json(report))
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
        _check_writable(args.output)
        return handlers[args.command](args)
    except (ParameterError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
