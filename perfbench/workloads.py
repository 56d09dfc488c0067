"""Workload definitions, scenario generation and output checks.

A workload is a list of studies (a bundled scenario plus the CLI subcommand
that runs it).  The benchmark seed becomes each generated scenario's seed, so
microrel only ever sees the generated YAML files.  Horizon workloads force a
fixed horizon: ``max_years`` is the horizon and the tolerance is unattainable,
so every run simulates exactly that many years and reports ``converged:
false`` (CLI exit code 4, "max years reached").
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

# The paper's Table VI.
TABLE_VI_CASE1 = (0.721, 7.624, 10.57, 42381.0, 60.544)
TABLE_VI_CASE3_ENS = 37965.0
CASE3_ENS_RTOL = 0.05

FORCED_TOLERANCE = 1e-300
EXIT_OK = 0
EXIT_MAX_YEARS = 4


@dataclass(frozen=True)
class Study:
    case: str
    command: str  # "run" or "sweep"


@dataclass(frozen=True)
class Workload:
    name: str
    studies: tuple[Study, ...]
    horizon: Optional[int]  # forced horizon in years; None = default convergence
    setup_case: str  # the scenario the fresh-process probes parse


WORKLOADS = {
    w.name: w for w in (
        Workload("horizon_mixed", (Study("case3", "run"),), 5_000, "case3"),
        Workload("horizon_wind", (Study("case2", "run"),), 20_000, "case2"),
        Workload("cli_studies",
                 (Study("case1", "run"), Study("case3", "run"),
                  Study("case4", "run"), Study("sweep", "sweep")), None, "case3"),
    )
}


def write_scenarios(src: Path, work: Path, workload: Workload, seed: int,
                    horizon: Optional[int]) -> dict[str, Path]:
    """Write one seeded scenario file per study; return case -> path."""
    paths = {}
    for study in workload.studies:
        bundled = src / "microrel" / "scenarios" / f"{study.case}.yaml"
        doc = yaml.safe_load(bundled.read_text())
        doc["meta"]["seed"] = seed
        if horizon is not None:
            doc["simulation"]["max_years"] = horizon
            doc["simulation"]["tolerance"] = FORCED_TOLERANCE
        path = work / f"{study.case}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        paths[study.case] = path
    return paths


def check_result(study: Study, horizon: Optional[int], result) -> list[str]:
    """Problems with one in-process result (an empty list means correct)."""
    problems = []
    if horizon is not None:
        if result.years_run != horizon:
            problems.append(f"years_run {result.years_run} != horizon {horizon}")
        if result.converged:
            problems.append("forced-horizon run reports converged")
        ens = result.system.ens
        if study.case == "case3" and \
                abs(ens - TABLE_VI_CASE3_ENS) > CASE3_ENS_RTOL * TABLE_VI_CASE3_ENS:
            problems.append(f"case3 ENS {ens:.1f} not within 5% of {TABLE_VI_CASE3_ENS}")
        if study.case == "case2" and not TABLE_VI_CASE3_ENS <= ens < TABLE_VI_CASE1[3]:
            problems.append(f"case2 ENS {ens:.1f} outside [37965, 42381)")
    elif not result.converged:
        problems.append("default-convergence run did not converge")
    return problems


def check_report_text(study: Study, horizon: Optional[int], text: str,
                      scenario_io) -> list[str]:
    """Problems with one delimited report as the CLI wrote it."""
    problems = []
    try:
        doc = scenario_io.parse_report(text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"report does not parse: {exc}"]
    if scenario_io.emit_report(doc) != text:
        problems.append("report does not round-trip through parse_report")
    system = (doc.system.saifi, doc.system.saidi, doc.system.caidi,
              doc.system.ens, doc.system.aens)
    if study.case == "case1" and system != TABLE_VI_CASE1:
        problems.append(f"case1 system row {system} != Table VI {TABLE_VI_CASE1}")
    if study.command == "sweep":
        zero = [row for p, row in doc.sensitivity if p == 0.0]
        if len(zero) != 1 or zero[0].ens != TABLE_VI_CASE1[3]:
            problems.append("sweep p=0 row does not equal the case1 ENS")
    if horizon is not None and (doc.years_run != horizon or doc.converged):
        problems.append("forced-horizon report has wrong years_run/converged")
    return problems
