"""Fresh-process probes: the costs a user pays once per process.

Usage (PYTHONPATH must hold the checkout's ``src``):

    python3 perfbench/probe.py setup  SCENARIO.yaml
    python3 perfbench/probe.py layers SCENARIO.yaml

``setup`` times ``import microrel``, parsing the scenario and a one-year
warm-up (``engine.simulate_year``), which fills lazy caches such as the beta
knot table.  ``layers`` times ``import microrel.cli`` alone and the first
``beta_inverse_cdf`` call, which includes the lazy table build.  Each prints
one JSON object.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _check_origin(module, src: Path) -> None:
    if Path(module.__file__).resolve().parent.parent != src:
        raise SystemExit(f"microrel was imported from {module.__file__}, not {src}")


def main(argv) -> int:
    mode, scenario_path = argv
    src = Path(__file__).resolve().parent.parent / "src"
    text = Path(scenario_path).read_text()
    if mode == "setup":
        start = time.perf_counter()
        import microrel
        from microrel import engine, scenario_io
        scenario = scenario_io.parse_scenario(text)
        engine.simulate_year(scenario, 0)
        elapsed = time.perf_counter() - start
        _check_origin(microrel, src)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    if mode == "layers":
        start = time.perf_counter()
        import microrel.cli
        imported = time.perf_counter()
        import numpy as np
        from microrel import res_models, scenario_io
        _check_origin(microrel, src)
        scenario = scenario_io.parse_scenario(text)
        u = (np.arange(365) + 0.5) / 365
        first = time.perf_counter()
        res_models.beta_inverse_cdf(scenario.distributions.irradiance, u)
        done = time.perf_counter()
        print(json.dumps({"cli.import_s": imported - start,
                          "res_models.beta_first_call_s": done - first}))
        return 0
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
