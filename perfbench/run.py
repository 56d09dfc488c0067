"""microrel benchmark: sampling throughput, study latency and a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload horizon_mixed --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics of BENCHMARK.json with
tracing off; with ``--trace 1`` it runs traced and untraced passes of the
same pipeline and reports the per-layer metrics.  Every operation's output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
provenance (commit, CPU count, library versions, source line count) and the
sha256 of every report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
from workloads import EXIT_MAX_YEARS, EXIT_OK, WORKLOADS, Study, check_report_text, \
    check_result, write_scenarios

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

CLI_WORKERS = 2
PROBES = 7  # fresh processes per probe kind, after one unmeasured warm-up
CHILD_TIMEOUT_S = 150


def _median(values):
    if not values:
        raise SystemExit("error: every operation of a measurement failed")
    return statistics.median(values)


class Bench:
    def __init__(self, args, work: Path):
        self.workload = WORKLOADS[args.workload]
        self.horizon = self.workload.horizon
        if self.horizon is not None and args.horizon is not None:
            self.horizon = args.horizon
        self.seconds = args.seconds
        self.work = work
        self.paths = write_scenarios(SRC, work, self.workload, args.seed % 2**64,
                                     self.horizon)
        # Child processes cache bytecode, as an installed package would.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0
        self.first_delimited: dict[str, str] = {}
        self.first_structured: dict[str, str] = {}
        self.report_sha: dict[str, str] = {}
        from microrel import cli, engine, scenario_io
        self.cli, self.engine, self.scenario_io = cli, engine, scenario_io
        self.scenarios = {
            case: scenario_io.parse_scenario(path.read_text())
            for case, path in self.paths.items()
        }

    # -- bookkeeping -------------------------------------------------------

    def attempt(self, what: str, fn, *args):
        """Run one operation, count it, and count it failed on any problem.

        ``fn`` returns (value, problems).  The value (a timing) is returned
        even when the output is wrong; it is None when ``fn`` raised.
        """
        self.attempted += 1
        try:
            value, problems = fn(*args)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            value, problems = None, ["raised"]
        if problems:
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
        return value

    def _same_as_first(self, case: str, delimited: str, structured: str = None):
        """Every report of a study must equal its first one, byte for byte."""
        self.report_sha[case] = hashlib.sha256(delimited.encode()).hexdigest()
        problems = []
        if self.first_delimited.setdefault(case, delimited) != delimited:
            problems.append("delimited report differs from the first one")
        if structured is not None and \
                self.first_structured.setdefault(case, structured) != structured:
            problems.append("structured report differs from the first one")
        return problems

    # -- operations --------------------------------------------------------

    def in_process(self, study: Study, workers: int):
        """engine.run (or the sweep) at ``workers``; returns (wall, years)."""
        scenario = self.scenarios[study.case]
        start = time.perf_counter()
        if study.command == "sweep":
            sweep = self.engine.sensitivity_sweep(scenario, scenario.sweep_p,
                                                  workers=workers)
            result, rows = sweep.base, sweep.rows
        else:
            result, rows = self.engine.run(scenario, workers=workers), ()
        wall = time.perf_counter() - start
        report = self.scenario_io.build_report(result, scenario, sweep_rows=rows)
        problems = check_result(study, self.horizon, result)
        problems += self._same_as_first(
            study.case, self.scenario_io.emit_report(report),
            self.scenario_io.emit_report(report, "structured"))
        return (wall, result.years_run), problems

    def _cli_args(self, study: Study, workers: int) -> tuple[list[str], Path]:
        out = self.work / f"{study.case}.report.csv"
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        return [study.command, str(self.paths[study.case]),
                "--workers", str(workers), "--out", str(out)], out

    def _check_cli_output(self, study: Study, code: int, out: Path, stderr: str):
        expected = EXIT_OK if self.horizon is None else EXIT_MAX_YEARS
        if code != expected:
            return [f"exit code {code} != {expected}: {stderr.strip()[-300:]}"]
        text = out.read_text()
        problems = check_report_text(study, self.horizon, text, self.scenario_io)
        return problems + self._same_as_first(study.case, text)

    def cli_process(self, study: Study):
        """One fresh ``microrel`` CLI process; returns its wall time."""
        args, out = self._cli_args(study, CLI_WORKERS)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "microrel.cli", *args],
                              env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        return wall, self._check_cli_output(study, proc.returncode, out, proc.stderr)

    def cli_in_process(self, study: Study, workers: int):
        """``microrel.cli.main`` in this process; returns (exit code, report path)."""
        args, out = self._cli_args(study, workers)
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
                return self.cli.main(args), out
        except Exception:
            traceback.print_exc()
            return None, out

    def probe(self, mode: str, case: str):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), mode, str(self.paths[case])],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            return None, [f"probe {mode} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        return json.loads(proc.stdout.strip().splitlines()[-1]), []

    def probes(self, mode: str) -> dict[str, float]:
        case = self.workload.setup_case
        what = f"{mode} probe"
        self.attempt(what, self.probe, mode, case)  # warm-up: file cache and bytecode
        samples = [self.attempt(what, self.probe, mode, case) for _ in range(PROBES)]
        samples = [s for s in samples if s is not None]
        return {key: _median([s[key] for s in samples]) for key in (samples[0] if samples else {})}

    # -- runs --------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        studies = self.workload.studies
        w1, w2, cli = [], [], []
        deadline = time.perf_counter() + self.seconds
        cycles = 0
        while cycles == 0 or time.perf_counter() < deadline:
            cycles += 1
            for workers, sink in ((1, w1), (2, w2)):
                ops = [self.attempt(f"{s.case} in-process, {workers} worker(s)",
                                    self.in_process, s, workers) for s in studies]
                if None not in ops:
                    sink.append(sum(y for _, y in ops) / sum(t for t, _ in ops))
            walls = [self.attempt(f"{s.case} CLI process", self.cli_process, s)
                     for s in studies]
            if None not in walls:
                cli.append(statistics.fmean(walls))
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "years_per_s": _median(w1),
            "years_per_s_w2": _median(w2),
            "study_s": _median(cli),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics.update(self.probes("setup"))
        return metrics

    def traced_pass(self, traced: bool):
        """The CLI pipeline once per study, with or without the tracer.

        Outputs are checked after the pass, so the checks are not traced.
        """
        workers = 1 if self.horizon is not None else CLI_WORKERS
        recorder = tracing.Recorder()
        with tracing.installed(recorder) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            outcomes = [(study, *self.cli_in_process(study, workers))
                        for study in self.workload.studies]
            wall = time.perf_counter() - start
        for study, code, out in outcomes:
            self.attempt(f"{study.case} in-process CLI",
                         lambda: (None, self._check_cli_output(study, code, out, "")))
        return wall, recorder.spans

    def per_layer(self) -> dict[str, float]:
        # The first traced pass runs in a fresh process, so its counts include
        # lazy work such as the beta knot table; timings use the later passes.
        traced = [self.traced_pass(True)]
        untraced = []
        deadline = time.perf_counter() + self.seconds
        while True:
            untraced.append(self.traced_pass(False)[0])
            if time.perf_counter() >= deadline:
                break
            traced.append(self.traced_pass(True))
        warm = traced[1:] or traced
        _, metrics = tracing.summarize(traced[0][1])
        timings = [tracing.summarize(spans)[0] for _, spans in warm]
        for name in timings[0]:
            metrics[name] = _median([t[name] for t in timings])
        traced_wall = _median([wall for wall, _ in warm])
        untraced_wall = _median(untraced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics.update(self.probes("layers"))
        return metrics


def provenance() -> dict:
    import numpy
    import scipy
    import yaml
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
    sources = sorted((SRC / "microrel").glob("*.py"))
    digest = hashlib.sha256()
    for path in sorted((SRC / "microrel").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
    }


def expected_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_microrel() -> None:
    if not (SRC / "microrel" / "__init__.py").is_file():
        raise SystemExit(f"error: microrel sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import microrel
    if Path(microrel.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: microrel imported from {microrel.__file__}, not {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=int, default=None,
                        help="override a horizon workload's forced horizon "
                             "(used by the self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_microrel()
    units = expected_metrics(bool(args.trace))
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        bench = Bench(args, work)
        try:
            metrics = bench.per_layer() if args.trace else bench.end_to_end()
        except tracing.MissingTraceTarget as exc:
            raise SystemExit(f"error: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit("error: measured metrics do not match BENCHMARK.json: "
                         f"missing {sorted(set(units) - set(metrics))}, "
                         f"extra {sorted(set(metrics) - set(units))}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print("reports " + json.dumps(bench.report_sha, sort_keys=True))
    for name in units:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
