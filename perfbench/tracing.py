"""Outside-in layer tracing for microrel.

The traced run rebinds the module-level names that microrel's own code looks
up at call time (``engine._simulate_block``, ``res_models.betainc``, ...) to
thin wrappers that record one span per call: label, start, end, the span that
was open when the call began, and a work count taken from the arguments or
the result.  Nothing inside ``src/`` is instrumented; the wrappers are
installed for the duration of a ``with installed(recorder)`` block and the
original functions are restored afterwards.

Every wrapped name is also listed in ``BENCHMARK.json`` as a per-layer
``calls.<module>.<name>`` metric.  If microrel renames or deletes one of them,
``installed`` raises ``MissingTraceTarget`` before any span is recorded, so a
layer can never silently read as zero.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

import numpy as np


class MissingTraceTarget(LookupError):
    """A name the tracer wraps no longer exists in microrel."""


def _size_of_arg(position):
    def size(args, kwargs, result):
        return int(np.size(args[position]))
    return size


def _broadcast_size(args, kwargs, result):
    return int(np.broadcast(*args[:3]).size)


def _n_days(args, kwargs, result):
    return int(args[1].n_days)


def _rows(args, kwargs, result):
    return int(args[0].shape[0])


def _years_run(args, kwargs, result):
    return int(result.years_run)


def _text_bytes(args, kwargs, result):
    return len(result.encode())


def _no_size(args, kwargs, result):
    return 0


# (module, attribute, span label, work count).  The module attribute is the
# name microrel's callers resolve at call time, so rebinding it is enough.
WRAPPED = (
    ("engine", "run", "engine.run", _years_run),
    ("engine", "_simulate_block", "engine.block", _no_size),
    ("engine", "sample_daily_resources", "res_models.sample", _no_size),
    ("res_models", "sample_wind_speed", "res_models.weibull", _size_of_arg(1)),
    ("res_models", "beta_inverse_cdf", "res_models.beta_inv", _size_of_arg(1)),
    ("res_models", "betainc", "res_models.betainc", _broadcast_size),
    ("engine", "unit_power_series", "res_models.power", _n_days),
    ("engine", "_running_ens_series", "engine.running_ens", _rows),
    ("engine", "_convergence_statistic", "engine.statistic", _no_size),
    ("engine", "build_contribution_table", "network.table", _no_size),
    ("engine", "combine_analytical", "engine.combine", _no_size),
    ("engine", "compute_system_indices", "engine.system", _no_size),
    ("scenario_io", "parse_scenario", "scenario_io.parse", _no_size),
    ("scenario_io", "build_report", "scenario_io.build_report", _no_size),
    ("scenario_io", "emit_report", "scenario_io.emit_report", _text_bytes),
)

CALL_METRICS = tuple(f"calls.{module}.{attr}" for module, attr, _, _ in WRAPPED)


class Recorder:
    """In-memory span store.  Each span is [label, start, end, parent, size]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, label, fn, size):
        spans, open_stack = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [label, 0.0, 0.0, open_stack[-1] if open_stack else -1, 0]
            spans.append(span)
            open_stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_stack.pop()
            span[4] = size(args, kwargs, result)
            return result

        return traced


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Rebind every name in ``WRAPPED`` to a recording wrapper, then restore."""
    targets = []
    for module_name, attr, label, size in WRAPPED:
        module = importlib.import_module(f"microrel.{module_name}")
        if not hasattr(module, attr):
            raise MissingTraceTarget(
                f"traced name microrel.{module_name}.{attr} no longer exists; "
                "update perfbench/tracing.py and the matching "
                "calls.* metric in BENCHMARK.json"
            )
        targets.append((module, attr, getattr(module, attr), label, size))
    try:
        for module, attr, original, label, size in targets:
            setattr(module, attr, recorder.wrap(label, original, size))
        yield recorder
    finally:
        for module, attr, original, _, _ in targets:
            setattr(module, attr, original)


def summarize(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer times, and work and call counts, of one pass."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    work = defaultdict(int)
    calls = defaultdict(int)
    child_time = [0.0] * len(spans)
    for label, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    simulated: dict[int, int] = defaultdict(int)
    for index, (label, start, end, parent, size) in enumerate(spans):
        total[label] += end - start
        self_time[label] += end - start - child_time[index]
        work[label] += size
        calls[label] += 1
        # Every convergence pass inside run() sees all years simulated so
        # far, so the largest one is the run's simulated-year count.
        if label == "engine.running_ens" and parent >= 0 \
                and spans[parent][0] == "engine.run":
            simulated[parent] = max(simulated[parent], size)

    years_simulated = sum(simulated.values())
    draws = work["res_models.beta_inv"]
    timings = {
        "scenario_io.parse_s": total["scenario_io.parse"],
        "scenario_io.report_s": total["scenario_io.build_report"]
        + total["scenario_io.emit_report"],
        "network.table_s": total["network.table"],
        "res_models.beta_inv_s": total["res_models.beta_inv"],
        "res_models.sample_self_s": self_time["res_models.sample"],
        "res_models.weibull_s": total["res_models.weibull"],
        "res_models.power_s": total["res_models.power"],
        "engine.block_self_s": self_time["engine.block"],
        "engine.converge_s": total["engine.running_ens"] + total["engine.statistic"],
        "engine.combine_s": total["engine.combine"] + total["engine.system"],
        "engine.run_self_s": self_time["engine.run"],
    }
    counts = {
        "scenario_io.parse_calls": calls["scenario_io.parse"],
        "scenario_io.report_bytes": work["scenario_io.emit_report"],
        "res_models.beta_draws": draws,
        "res_models.betainc_evals_per_draw":
            work["res_models.betainc"] / draws if draws else 0.0,
        "res_models.weibull_draws": work["res_models.weibull"],
        "res_models.power_unit_days": work["res_models.power"],
        "engine.converge_rows_per_year":
            work["engine.running_ens"] / years_simulated if years_simulated else 0.0,
        "engine.years_simulated": years_simulated,
        "engine.useful_year_frac":
            work["engine.run"] / years_simulated if years_simulated else 0.0,
    }
    for (_, _, label, _), name in zip(WRAPPED, CALL_METRICS):
        counts[name] = calls[label]
    return timings, counts
