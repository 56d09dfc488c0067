"""Microgrid reliability assessment with renewable generation and
prioritized loads.

The package couples daily Monte-Carlo sampling of wind and solar output
against priority-ordered islanded dispatch with an analytical feeder
interruption model, producing per-load-point and system reliability indices
and islanding-success sensitivity sweeps.
"""

from .engine import (
    LoadPointIndices,
    PResEstimate,
    RunResult,
    Scenario,
    SweepResult,
    SystemIndices,
    combine_analytical,
    compute_system_indices,
    priority_dispatch,
    run,
    sensitivity_sweep,
    simulate_year,
)
from .network import (
    ComponentReliability,
    LoadPoint,
    NetworkModel,
    analyze_failure_effects,
    build_contribution_table,
)
from .res_models import (
    BetaParams,
    DgUnit,
    PvArraySpec,
    ResourceDistributions,
    WeibullParams,
    WindTurbineSpec,
    beta_inverse_cdf,
    emit_trace,
    pv_power,
    sample_irradiance,
    sample_wind_speed,
    wind_power,
)
from .scenario_io import (
    ReportDocument,
    ScenarioError,
    build_report,
    bundled_scenarios,
    emit_report,
    emit_scenario,
    parse_report,
    parse_scenario,
)

__version__ = "0.1.0"
