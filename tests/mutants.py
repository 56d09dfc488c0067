"""Remove or weaken each rounding margin of the bounds, one at a time, and
report which of the tests notice.

Run by hand from the root of a checkout; any arguments go to pytest in
place of the default (tests/test_res_models.py and tests/test_engine.py,
where the bound and count tests are):

    python tests/mutants.py
    python tests/mutants.py tests/test_res_models.py -k bounds

Each mutant below is one edit of ``src/microrel``, made to a margin or
guard whose need a docstring argues.  The script copies ``src/``,
``tests/``, ``pyproject.toml`` and ``README.md`` to a temporary directory
once; for each mutant it makes the edit there, runs pytest on the copy in
a fresh process that stops at the first failure, and undoes the edit.
The checkout is never changed.  A mutant is killed when a test fails, and survives when
every test passes: then no test shows that its margin is needed.  An edit
whose text is no longer in the source stops the script, so the list
cannot silently drift from the code.

pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TESTS = ["tests/test_res_models.py", "tests/test_engine.py"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of a checkout
    edits: tuple[tuple[str, str], ...]  # (text, its replacement), each text once


RES_MODELS = "src/microrel/res_models.py"
MUTANTS = [
    Mutant("Weibull end-speed margin removed", RES_MODELS, (
        ("    margin = _CELL_MARGIN * max(1.0, 1.0 / params.shape_k)\n",
         "    margin = 0.0\n"),)),
    Mutant("turbine power slack removed", RES_MODELS, (
        ("    slack = _CELL_MARGIN * device.p_rated * (1.0 + b)\n",
         "    slack = 0.0\n"),)),
    Mutant("PV power margin removed", RES_MODELS, (
        ("pv_power(device, r_low) * (1.0 - _CELL_MARGIN)", "pv_power(device, r_low)"),
        ("pv_power(device, r_high) * (1.0 + _CELL_MARGIN)", "pv_power(device, r_high)"))),
    Mutant("_stream_bounds fleet margin removed", RES_MODELS, (
        ("    margin = _CELL_MARGIN * sum(len(members) for _, _, members in used)"
         " * greatest.sum()\n",
         "    margin = 0.0\n"),)),
    Mutant("beta u-slack halved", RES_MODELS, (
        ("    return 2.0 * (_BETA_TOL + 2.0 * error)\n",
         "    return _BETA_TOL + 2.0 * error\n"),)),
    Mutant("beta_draw_bounds one-double widening removed", RES_MODELS, (
        ("    return (np.nextafter(np.maximum(low, 0.0), 0.0),\n"
         "            np.nextafter(np.minimum(high, 1.0), 1.0))\n",
         "    return np.maximum(low, 0.0), np.minimum(high, 1.0)\n"),)),
    Mutant("_TANGENT_TERMS_MAX lifted", RES_MODELS, (
        ("_TANGENT_TERMS_MAX = 2.0**14\n", "_TANGENT_TERMS_MAX = math.inf\n"),)),
]


def mutated(source: str, mutant: Mutant) -> str:
    for text, replacement in mutant.edits:
        count = source.count(text)
        if count != 1:
            raise SystemExit(f"mutant {mutant.name!r}: its text occurs {count} times "
                             f"in {mutant.path}, not once:\n{text}")
        source = source.replace(text, replacement)
    return source


def run_tests(copy: Path, args: list[str]) -> tuple[int, str]:
    """pytest's exit status on the copy, and its first failure line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(copy / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rf",
                           "-p", "no:cacheprovider", *args],
                          cwd=copy, env=env, capture_output=True, text=True)
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, failed[0] if failed else proc.stdout.strip()[-300:]


def main(args: list[str]) -> int:
    args = args or DEFAULT_TESTS
    killed = errors = 0
    with tempfile.TemporaryDirectory(prefix="microrel-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):  # test_docs reads README
            shutil.copy2(ROOT / name, copy / name)
        status, detail = run_tests(copy, args)
        if status != 0:
            print(f"the unmutated tests do not pass (pytest exit {status}):\n{detail}")
            return 1
        for mutant in MUTANTS:
            target = copy / mutant.path
            original = target.read_text()
            target.write_text(mutated(original, mutant))
            try:
                status, detail = run_tests(copy, args)
            finally:
                target.write_text(original)
            if status == 1:
                killed += 1
                print(f"killed    {mutant.name}: {detail}")
            elif status == 0:
                print(f"SURVIVED  {mutant.name}")
            else:
                errors += 1
                print(f"error     {mutant.name} (pytest exit {status}): {detail}")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
