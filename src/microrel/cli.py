"""Command-line interface.

Subcommands:
    run       evaluate a scenario and write the report
    sweep     sensitivity of the system indices to islanding success
    sample    emit synthetic per-day resource/power traces for the fleet
    validate  schema-check a scenario file without simulating

Exit codes: 0 success, 2 argument error, 3 configuration error (including a
scenario the model cannot evaluate, such as one with no failures at all),
4 simulation did not converge, 5 I/O failure (including a failed fork or a
block worker that died).  Progress and diagnostics go
to stderr; report artifacts are written to --out or stdout and are
byte-identical for identical invocations, whatever the worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import engine, scenario_io
from .engine import Scenario
from .res_models import NumericsError, emit_trace, trace_to_delimited
from .scenario_io import ScenarioError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NO_CONVERGENCE = 4
EXIT_IO = 5

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_USAGE", "EXIT_CONFIG",
           "EXIT_NO_CONVERGENCE", "EXIT_IO"]


def _default_workers() -> int:
    """The CPUs this process may run on, or all of the host's where the
    platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microrel",
        description="Microgrid reliability assessment with renewable "
                    "generation and prioritized loads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="path to a scenario YAML file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario file's seed (the flag wins)")
        p.add_argument("--out", default=None,
                       help="write the artifact here instead of stdout")
        p.add_argument("--format", choices=["delimited", "structured"],
                       default="delimited", help="report serialization format")
        p.add_argument("--workers", type=int, default=_default_workers(),
                       help="simulation worker processes "
                            "(default: available parallelism; the result "
                            "does not depend on this)")

    p_run = sub.add_parser("run", help="evaluate a scenario")
    add_common(p_run)
    p_run.add_argument("--trace", default=None,
                       help="also write the per-year convergence trace here")

    p_sweep = sub.add_parser("sweep", help="islanding-success sensitivity sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--p", default=None,
                         help="comma-separated islanding-success probabilities "
                              "(default: the scenario's sweep_p list)")

    p_sample = sub.add_parser("sample", help="emit synthetic resource traces")
    p_sample.add_argument("scenario", help="path to a scenario YAML file")
    p_sample.add_argument("--seed", type=int, default=None,
                          help="override the scenario file's seed")
    p_sample.add_argument("--days", type=int, default=365,
                          help="number of days to emit (default 365)")
    p_sample.add_argument("--unit", default=None,
                          help="emit only this fleet unit")
    p_sample.add_argument("--out", default=None,
                          help="output file (single unit) or directory")

    p_validate = sub.add_parser("validate", help="schema-check a scenario file")
    p_validate.add_argument("scenario", help="path to a scenario YAML file")
    return parser


class _UsageError(Exception):
    """A command-line value the study cannot use."""


def _load_scenario(path: str, seed_override: Optional[int]) -> Scenario:
    text = Path(path).read_text()
    scenario = scenario_io.parse_scenario(text)
    if seed_override is not None:
        try:
            scenario = dataclasses.replace(scenario, seed=seed_override)
        except ValueError as exc:
            raise _UsageError(f"--seed: {exc}") from None
    return scenario


def _write_artifact(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _trace_text(result: engine.RunResult) -> str:
    lines = ["year,running_ens_kwh,statistic"]
    for year in range(result.years_run):
        stat = float(result.statistic[year])
        stat_text = "" if stat != stat else repr(stat)  # NaN -> blank
        lines.append(f"{year + 1},{float(result.running_ens[year])!r},{stat_text}")
    return "\n".join(lines) + "\n"


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    result = engine.run(scenario, workers=args.workers)
    report = scenario_io.build_report(result, scenario)
    _write_artifact(scenario_io.emit_report(report, args.format), args.out)
    if args.trace:
        _write_artifact(_trace_text(result), args.trace)
    _diag(f"{scenario.name}: {result.years_run} simulated years, "
          f"{'converged' if result.converged else 'max years reached'}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    if args.p is not None:
        try:
            p_values = [float(tok) for tok in args.p.split(",") if tok.strip()]
        except ValueError:
            _diag(f"--p must be a comma-separated number list, got {args.p!r}")
            return EXIT_USAGE
    elif scenario.sweep_p is not None:
        p_values = list(scenario.sweep_p)
    else:
        _diag("no --p given and the scenario has no sweep_p list")
        return EXIT_USAGE
    if not p_values or any(not 0.0 <= p <= 1.0 for p in p_values):
        _diag(f"sweep probabilities must lie in [0, 1], got {p_values}")
        return EXIT_USAGE
    sweep = engine.sensitivity_sweep(scenario, p_values, workers=args.workers)
    report = scenario_io.build_report(sweep.base, scenario, sweep_rows=sweep.rows)
    _write_artifact(scenario_io.emit_report(report, args.format), args.out)
    _diag(f"{scenario.name}: sweep over {len(p_values)} probabilities, "
          f"{'converged' if sweep.base.converged else 'max years reached'}")
    return EXIT_OK if sweep.base.converged else EXIT_NO_CONVERGENCE


def _cmd_sample(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    if args.days < 1:
        _diag(f"--days must be >= 1, got {args.days}")
        return EXIT_USAGE
    if args.unit is not None and all(u.name != args.unit for u in scenario.fleet):
        _diag(f"no fleet unit named {args.unit!r} in {scenario.name}")
        return EXIT_USAGE
    if not scenario.fleet:
        _diag(f"{scenario.name} has no fleet units to sample")
        return EXIT_USAGE
    # The stream layout follows the whole fleet, so one unit's trace is the
    # one it has in a whole-fleet sample.
    try:
        traces = emit_trace(scenario.fleet, scenario.distributions, args.days,
                            scenario.seed)
    except (MemoryError, ValueError):  # numpy refuses a too-large shape with ValueError
        _diag(f"--days {args.days} is too large to sample in memory")
        return EXIT_USAGE
    if args.unit is not None:
        traces = [t for t in traces if t.unit == args.unit]
    if args.out is None:
        if len(traces) > 1:
            _diag("writing multiple units to stdout is ambiguous; "
                  "pass --unit or --out <directory>")
            return EXIT_USAGE
        sys.stdout.write(trace_to_delimited(traces[0]))
        return EXIT_OK
    out = Path(args.out)
    if len(traces) == 1 and not out.is_dir():
        out.write_text(trace_to_delimited(traces[0]))
    else:
        out.mkdir(parents=True, exist_ok=True)
        for trace in traces:
            (out / f"{trace.unit}.csv").write_text(trace_to_delimited(trace))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario, None)
    _diag(f"{args.scenario}: scenario {scenario.name!r} is valid "
          f"({len(scenario.fleet)} fleet units, "
          f"{len(scenario.network.load_points)} load points)")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "sample": _cmd_sample,
    "validate": _cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        _diag(f"--workers must be >= 1, got {args.workers}")
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _diag(str(exc))
        return EXIT_USAGE
    except ScenarioError as exc:
        _diag(f"configuration error [{exc.code}] {exc}")
        return EXIT_CONFIG
    except (ArithmeticError, NumericsError, ValueError) as exc:
        # The scenario parsed, but the model cannot evaluate it (an
        # ArithmeticError: a division by zero, or an fsum's overflow).
        _diag(f"configuration error: {type(exc).__name__}: {exc}")
        return EXIT_CONFIG
    except OSError as exc:
        _diag(f"i/o error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
