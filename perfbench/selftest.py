"""Self-test of the benchmark harness at a tiny horizon.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/selftest.py

It runs every workload in both modes for one second with the horizon cut to
1024 years and checks that each run exits 0, prints every metric named in
BENCHMARK.json with its unit, fails no operation, and that the trace
reaches every wrapped name (``res_models.beta_draws`` must be exactly 0 on
horizon_wind, which has no PV).  It also checks that
``engine.converge_rows_per_year`` grows with the horizon, and that the
benchmark exits non-zero without a result in a directory that holds only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TINY_HORIZON = 1024


def run(workload: str, trace: int, horizon: int = TINY_HORIZON, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--horizon", str(horizon)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc, label: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: {result['failed']} of {result['attempted']} "
                             f"operations failed\n{proc.stderr[-2000:]}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    traces = {}
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            metrics = result_of(run(workload, trace), label)["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != expected:
                raise AssertionError(f"{label}: metrics {got} != {expected}")
            if trace == 0 and not all(m["value"] > 0 for m in metrics.values()):
                raise AssertionError(f"{label}: an end-to-end metric is not positive")
            if trace == 1:
                traces[workload] = {name: m["value"] for name, m in metrics.items()}
            print(f"ok  {label}")

    wind, mixed = traces["horizon_wind"], traces["horizon_mixed"]
    if wind["res_models.beta_draws"] != 0:
        raise AssertionError("horizon_wind made beta draws")
    unreached = [name for name, value in mixed.items()
                 if name.startswith("calls.") and value == 0]
    if unreached or mixed["res_models.beta_draws"] == 0:
        raise AssertionError(f"horizon_mixed never reached {unreached}")
    print("ok  trace reaches every wrapped name; no beta draws on horizon_wind")

    longer = result_of(run("horizon_wind", 1, horizon=4 * TINY_HORIZON), "longer horizon")
    rows_long = longer["metrics"]["engine.converge_rows_per_year"]["value"]
    if not rows_long > wind["engine.converge_rows_per_year"]:
        raise AssertionError("converge_rows_per_year does not grow with the horizon")
    print("ok  converge_rows_per_year grows with the horizon")

    bare = Path(tempfile.mkdtemp(prefix=".work-selftest-", dir=BENCH_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        (bare / "perfbench").mkdir()
        for path in BENCH_DIR.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = run(workloads[0], 0, cwd=bare)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            raise AssertionError("benchmark ran without the microrel sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the microrel sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
