"""Figures that README states about the code, recomputed and checked
against its text."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from microrel import engine, res_models
from microrel.engine import run
from microrel.scenario_io import bundled_scenarios


@pytest.fixture(scope="module")
def cases():
    return bundled_scenarios()


def _spaced(n: int) -> str:
    return f"{n:,}".replace(",", " ")


def test_readme_figures_of_open_days_and_beta_draws(cases, monkeypatch):
    # README, "Evaluation method", states two figures of the draws: the
    # open days of case2-4 over 2 048 years at the bundled seed under both
    # rules, and the beta draws of a forced 5 000-year case3 run at seed 7.
    readme = " ".join((Path(__file__).parent.parent / "README.md").read_text().split())
    open_days, original = [], engine.day_words

    def counted(lanes, *args):
        open_days.append(lanes.shape[0])
        return original(lanes, *args)

    monkeypatch.setattr(engine, "day_words", counted)
    figures = []  # "<days> (<share>%)" by rule, then case
    for rule in (engine.DISPATCH_BLOCKING, engine.DISPATCH_SERVE_IF_FITS):
        for name in ("case2", "case3", "case4"):
            ctx = engine._context_for(dataclasses.replace(cases[name], dispatch=rule))
            open_days.clear()
            for start in range(0, 2048, engine._YEARS_PER_BLOCK):
                engine._simulate_block(ctx, start, engine._YEARS_PER_BLOCK)
            n = sum(open_days)
            figures.append(f"{_spaced(n)} ({100 * n / (2048 * 365):.3f}%)")
    case2 = figures[0].replace(" (", " days (", 1)
    assert (f"Over 2 048 years at the bundled seed, {case2} are open on bundled case2, "
            f"{figures[1]} on case3 and {figures[2]} on case4 under their blocking "
            f"rule, and {figures[3]}, {figures[4]} and {figures[5]} under "
            "serve-if-fits.") in readme

    sizes, inverse = [], res_models.beta_inverse_cdf

    def inverted(params, u):
        sizes.append(np.size(u))
        return inverse(params, u)

    monkeypatch.setattr(res_models, "beta_inverse_cdf", inverted)
    result = run(dataclasses.replace(cases["case3"], seed=7, max_years=5000,
                                     tolerance=1e-300))
    assert result.years_run == 5000
    days = 5000 * 365
    assert (f"{_spaced(sum(sizes))} of the {_spaced(days)} irradiance days, "
            f"{100 * sum(sizes) / days:.3f}%, in {len(sizes)} calls, in a forced 5 000-year "
            "case3 run at seed 7 on one worker.") in readme


def test_readme_figures_of_the_beta_inverse_cdf(cases, monkeypatch):
    # README, "Evaluation method", states the CDF evaluations of a table
    # build, and the share of start points refined and the evaluations of
    # 100 000 draws at the bundled shape, each rounded as the text has it.
    readme = " ".join((Path(__file__).parent.parent / "README.md").read_text().split())
    params = cases["case3"].distributions.irradiance
    evaluations, refined = [], []
    betainc, refine = res_models.betainc, res_models._beta_refine

    def counted(a, b, x):
        evaluations.append(np.size(x))
        return betainc(a, b, x)

    def refining(params, table, cell, u, x, r):
        refined.append(x.size)
        return refine(params, table, cell, u, x, r)

    monkeypatch.setattr(res_models, "betainc", counted)
    monkeypatch.setattr(res_models, "_beta_refine", refining)
    res_models._beta_bracket_table.__wrapped__(params.alpha, params.beta)
    build = sum(evaluations)
    res_models._beta_bracket_table(params.alpha, params.beta)
    evaluations.clear()
    n = 100_000
    res_models.beta_inverse_cdf(params, np.random.default_rng(0).random(n))
    assert (f"Building the table takes about {_spaced(round(build, -2))} exact CDF "
            "evaluations, once per shape.") in readme
    assert f"For the bundled shape about {100 * sum(refined) / n:.1f}% of them" in readme
    assert (f"100 000 draws cost about {_spaced(round(sum(evaluations), -3))} "
            "CDF evaluations.") in readme
