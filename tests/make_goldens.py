"""Rewrite every golden file under tests/data/ through the command line.

Run by hand from the root of a checkout, after a change that moves the
goldens on purpose (a new sampler, a new report field), then explain the
change in CHANGES.md:

    python tests/make_goldens.py

Each file is what ``python -m microrel.cli`` writes for a bundled scenario
at its own seed and default convergence, with ``src/`` on the import path:

- ``reports/<name>.csv`` and ``.json``: ``run`` (``sweep`` for the sweep
  study) in the delimited and structured formats, for every bundled study
  and for case3_twelve (case3 with eight more loads, test_scenario_io);
- ``traces/<case>/<unit>.csv``: ``sample --days 730`` for case2, case3 and
  case3_independent (case3 with ``shared_sample: false``).

pytest does not collect this file; the tests that read the goldens are
test_scenario_io's and test_cli's.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
DATA = TESTS / "data"
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

from microrel.scenario_io import _BUNDLED_NAMES, bundled_scenario_path  # noqa: E402
from test_scenario_io import twelve_load_doc  # noqa: E402


def cli(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "microrel.cli", *args], env=env, check=True)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        case3 = bundled_scenario_path("case3").read_text()
        scenarios = {name: bundled_scenario_path(name) for name in _BUNDLED_NAMES}
        scenarios["case3_twelve"] = Path(tmp, "case3_twelve.yaml")
        scenarios["case3_twelve"].write_text(
            yaml.safe_dump(twelve_load_doc(yaml.safe_load(case3))))
        independent = Path(tmp, "case3_independent.yaml")
        independent.write_text(case3.replace("shared_sample: true", "shared_sample: false"))

        for name, path in scenarios.items():
            command = "sweep" if name == "sweep" else "run"
            for fmt, suffix in (("delimited", "csv"), ("structured", "json")):
                cli(command, str(path), "--format", fmt,
                    "--out", str(DATA / "reports" / f"{name}.{suffix}"))
        for case, path in (("case2", scenarios["case2"]), ("case3", scenarios["case3"]),
                           ("case3_independent", independent)):
            out = DATA / "traces" / case
            shutil.rmtree(out, ignore_errors=True)
            cli("sample", str(path), "--days", "730", "--out", str(out))


if __name__ == "__main__":
    main()
