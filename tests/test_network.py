"""Network-model tests: datasets, fault-effect analysis, contributions."""

import dataclasses
import math

import pytest

from microrel.network import (
    EFFECT_NONE,
    EFFECT_REPAIR,
    EFFECT_SWITCH,
    ComponentReliability,
    ContributionTable,
    FailureEffect,
    FeederSection,
    LoadPoint,
    LoadPointAggregate,
    NetworkModel,
    Switchgear,
    TopologyError,
    UpstreamLink,
    analyze_failure_effects,
    build_contribution_table,
    illustrative_feeder,
    load_calibrated_dataset,
)


# ---------------------------------------------------------------------------
# Calibrated dataset
# ---------------------------------------------------------------------------

def test_calibrated_dataset_customer_and_load_totals():
    net = load_calibrated_dataset()
    assert net.total_customers == 700
    assert net.total_load == pytest.approx(5500.0)


def test_calibrated_dataset_priority_order():
    assert load_calibrated_dataset().priority_order() == ("LP9", "LP3", "LP4", "LP2")


def test_calibrated_dataset_aggregates():
    net = load_calibrated_dataset()
    expected = {
        "LP2": (0.226, 3.017),
        "LP3": (0.226, 2.858),
        "LP4": (0.226, 2.328),
        "LP9": (0.156, 1.924),
    }
    for lp_id, (lam, lam_r) in expected.items():
        agg = net.aggregates[lp_id]
        assert agg.sum_lambda == pytest.approx(lam, abs=1e-12)
        assert agg.sum_lambda_r == pytest.approx(lam_r, abs=1e-12)


def test_calibrated_dataset_upstream():
    net = load_calibrated_dataset()
    assert net.upstream.failure_rate == 0.5
    assert net.upstream.repair_time == 10.0


# ---------------------------------------------------------------------------
# Contribution table
# ---------------------------------------------------------------------------

def test_aggregate_contribution_sums_match_dataset():
    net = load_calibrated_dataset()
    table = build_contribution_table(net)
    for lp_id, agg in net.aggregates.items():
        assert abs(table.sum_lambda(lp_id) - agg.sum_lambda) <= 1e-12
        assert abs(table.sum_lambda_r(lp_id) - agg.sum_lambda_r) <= 1e-12


def test_contribution_aggregates_equal_pair_sums():
    # Topology mode sums one (rate, duration) pair per interrupting section.
    net = illustrative_feeder()
    table = build_contribution_table(net)
    pairs = {lp.id: [] for lp in net.load_points}
    for sec in net.sections:
        for effect in analyze_failure_effects(net, sec.id):
            pairs[effect.load_point].append(
                (sec.reliability.failure_rate, effect.duration))
    assert table.load_point_ids == tuple(pairs)
    for lp_id, lp_pairs in pairs.items():
        assert table.sum_lambda(lp_id) == math.fsum(lam for lam, _ in lp_pairs)
        assert table.sum_lambda_r(lp_id) == math.fsum(lam * dur for lam, dur in lp_pairs)
    # LP4 is stranded by the s4 and s5 faults and switched for the other four.
    assert table.sum_lambda_r("LP4") == pytest.approx(
        (0.040 + 0.040) * 30.0 + (0.040 + 0.040 + 0.036 + 0.030) * 3.5, abs=1e-12)
    table = ContributionTable({"A": LoadPointAggregate(0.35, 2.7)})
    assert (table.sum_lambda("A"), table.sum_lambda_r("A")) == (0.35, 2.7)


def test_zero_failure_rate_network_has_zero_aggregates():
    net = NetworkModel(
        load_points=(LoadPoint("L1", 100.0, 10, 1),),
        upstream=UpstreamLink(0.5, 10.0),
        aggregates={"L1": LoadPointAggregate(0.0, 0.0)},
    )
    table = build_contribution_table(net)
    assert table.sum_lambda("L1") == 0.0
    assert table.sum_lambda_r("L1") == 0.0


def test_aggregate_requires_zero_duration_mass_for_zero_rate():
    with pytest.raises(ValueError):
        LoadPointAggregate(sum_lambda=0.0, sum_lambda_r=1.0)


# ---------------------------------------------------------------------------
# Fault-effect analysis on the illustrative topology
# ---------------------------------------------------------------------------

def test_section4_fault_strands_lp3_lp4_and_switches_the_rest():
    # The worked restoration example: a fault on the fourth main section
    # leaves LP3 and LP4 waiting for the repair while LP2 and LP9 come back
    # after switching.
    net = illustrative_feeder()
    effects = {e.load_point: e for e in analyze_failure_effects(net, "s4")}
    assert effects["LP3"].effect == EFFECT_REPAIR
    assert effects["LP3"].duration == 30.0
    assert effects["LP4"].effect == EFFECT_REPAIR
    assert effects["LP4"].duration == 30.0
    assert effects["LP2"].effect == EFFECT_SWITCH
    assert effects["LP2"].duration == 3.5
    assert effects["LP9"].effect == EFFECT_SWITCH
    assert effects["LP9"].duration == 3.5


def test_head_section_fault_strands_only_lp2():
    net = illustrative_feeder()
    effects = {e.load_point: e for e in analyze_failure_effects(net, "s1")}
    assert effects["LP2"].effect == EFFECT_REPAIR
    for lp in ("LP9", "LP3", "LP4"):
        assert effects[lp].effect == EFFECT_SWITCH


def test_every_section_classifies_every_load_point_exactly_once():
    net = illustrative_feeder()
    for sec in net.sections:
        effects = analyze_failure_effects(net, sec.id)
        assert sorted(e.load_point for e in effects) == ["LP2", "LP3", "LP4", "LP9"]
        for effect in effects:
            assert effect.effect in (EFFECT_REPAIR, EFFECT_SWITCH, EFFECT_NONE)


def test_single_section_feeder_repairs_everything():
    net = NetworkModel(
        load_points=(LoadPoint("L1", 100.0, 5, 1), LoadPoint("L2", 50.0, 5, 2)),
        upstream=UpstreamLink(0.5, 10.0),
        sections=(FeederSection("s1", ComponentReliability(0.1, 8.0),
                                parent=None, isolator_upstream=True,
                                load_points=("L1", "L2")),),
        switchgear=(Switchgear("feeder_breaker", 1.0),),
    )
    effects = analyze_failure_effects(net, "s1")
    assert all(e.effect == EFFECT_REPAIR and e.duration == 8.0 for e in effects)


def test_without_isolators_no_load_point_is_switch_class():
    base = illustrative_feeder()
    stripped = dataclasses.replace(
        base,
        sections=tuple(
            dataclasses.replace(sec, isolator_upstream=False,
                                isolator_downstream=False)
            for sec in base.sections
        ),
    )
    for sec in stripped.sections:
        effects = analyze_failure_effects(stripped, sec.id)
        assert all(e.effect == EFFECT_REPAIR for e in effects)


def test_tie_restores_tail_when_interior_zone_isolated():
    # Fault on s2: LP2 stays breaker-fed, LP9 is stranded on the faulted
    # section, and the downstream taps come back through the tie.
    net = illustrative_feeder()
    effects = {e.load_point: e for e in analyze_failure_effects(net, "s2")}
    assert effects["LP2"].effect == EFFECT_SWITCH
    assert effects["LP9"].effect == EFFECT_REPAIR
    assert effects["LP3"].effect == EFFECT_SWITCH
    assert effects["LP4"].effect == EFFECT_SWITCH


def test_topology_contribution_table_counts_all_sections():
    net = illustrative_feeder()
    table = build_contribution_table(net)
    total_rate = math.fsum(sec.reliability.failure_rate for sec in net.sections)
    for lp in net.load_points:
        # Every section failure interrupts every load point on this feeder.
        assert table.sum_lambda(lp.id) == pytest.approx(total_rate, abs=1e-12)
    for sec in net.sections:
        assert all(effect.effect != EFFECT_NONE
                   for effect in analyze_failure_effects(net, sec.id))


def test_analyze_rejects_unknown_section():
    with pytest.raises(TopologyError):
        analyze_failure_effects(illustrative_feeder(), "s99")


def test_analyze_rejects_aggregate_mode():
    with pytest.raises(TopologyError):
        analyze_failure_effects(load_calibrated_dataset(), "s1")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _lp(i: int) -> LoadPoint:
    return LoadPoint(f"L{i}", 10.0, 1, i)


def _section(sec_id: str, parent, **kwargs) -> FeederSection:
    return FeederSection(sec_id, ComponentReliability(0.1, 5.0), parent=parent,
                         **kwargs)


def test_topology_rejects_parent_cycle():
    with pytest.raises(TopologyError):
        NetworkModel(
            load_points=(_lp(1),),
            upstream=UpstreamLink(0.5, 10.0),
            sections=(
                _section("a", None, load_points=("L1",)),
                _section("b", "c"),
                _section("c", "b"),
            ),
            switchgear=(Switchgear("feeder_breaker", 1.0),),
        )


def test_topology_rejects_multiple_roots():
    with pytest.raises(TopologyError):
        NetworkModel(
            load_points=(_lp(1),),
            upstream=UpstreamLink(0.5, 10.0),
            sections=(_section("a", None, load_points=("L1",)),
                      _section("b", None)),
            switchgear=(Switchgear("feeder_breaker", 1.0),),
        )


def test_topology_rejects_unknown_parent():
    with pytest.raises(TopologyError):
        NetworkModel(
            load_points=(_lp(1),),
            upstream=UpstreamLink(0.5, 10.0),
            sections=(_section("a", None, load_points=("L1",)),
                      _section("b", "nope")),
            switchgear=(Switchgear("feeder_breaker", 1.0),),
        )


def test_topology_rejects_unattached_load_point():
    with pytest.raises(TopologyError):
        NetworkModel(
            load_points=(_lp(1), _lp(2)),
            upstream=UpstreamLink(0.5, 10.0),
            sections=(_section("a", None, load_points=("L1",)),),
            switchgear=(Switchgear("feeder_breaker", 1.0),),
        )


def test_topology_rejects_doubly_attached_load_point():
    with pytest.raises(TopologyError):
        NetworkModel(
            load_points=(_lp(1),),
            upstream=UpstreamLink(0.5, 10.0),
            sections=(_section("a", None, load_points=("L1",)),
                      _section("b", "a", load_points=("L1",))),
            switchgear=(Switchgear("feeder_breaker", 1.0),),
        )


def test_topology_requires_exactly_one_breaker():
    sections = (_section("a", None, load_points=("L1",)),)
    with pytest.raises(TopologyError):
        NetworkModel(load_points=(_lp(1),), upstream=UpstreamLink(0.5, 10.0),
                     sections=sections, switchgear=())
    with pytest.raises(TopologyError):
        NetworkModel(load_points=(_lp(1),), upstream=UpstreamLink(0.5, 10.0),
                     sections=sections,
                     switchgear=(Switchgear("feeder_breaker", 1.0),
                                 Switchgear("feeder_breaker", 2.0)))


def test_topology_rejects_second_tie_and_dangling_tie():
    sections = (_section("a", None, load_points=("L1",)),)
    breaker = Switchgear("feeder_breaker", 1.0)
    with pytest.raises(TopologyError):
        NetworkModel(load_points=(_lp(1),), upstream=UpstreamLink(0.5, 10.0),
                     sections=sections,
                     switchgear=(breaker,
                                 Switchgear("normally_open_tie", 1.0, "a"),
                                 Switchgear("normally_open_tie", 1.0, "a")))
    with pytest.raises(TopologyError):
        NetworkModel(load_points=(_lp(1),), upstream=UpstreamLink(0.5, 10.0),
                     sections=sections,
                     switchgear=(breaker,
                                 Switchgear("normally_open_tie", 1.0, "zz")))


def test_network_mode_is_exclusive():
    lp = (_lp(1),)
    up = UpstreamLink(0.5, 10.0)
    with pytest.raises(ValueError):
        NetworkModel(load_points=lp, upstream=up)  # neither mode
    with pytest.raises(ValueError):
        NetworkModel(
            load_points=lp, upstream=up,
            aggregates={"L1": LoadPointAggregate(0.1, 1.0)},
            sections=(_section("a", None, load_points=("L1",)),),
            switchgear=(Switchgear("feeder_breaker", 1.0),),
        )


def test_network_rejects_duplicate_ids_and_ranks():
    up = UpstreamLink(0.5, 10.0)
    with pytest.raises(ValueError):
        NetworkModel(load_points=(LoadPoint("X", 1.0, 1, 1), LoadPoint("X", 2.0, 1, 2)),
                     upstream=up,
                     aggregates={"X": LoadPointAggregate(0.0, 0.0)})
    with pytest.raises(ValueError):
        NetworkModel(load_points=(LoadPoint("X", 1.0, 1, 1), LoadPoint("Y", 2.0, 1, 1)),
                     upstream=up,
                     aggregates={"X": LoadPointAggregate(0.0, 0.0),
                                 "Y": LoadPointAggregate(0.0, 0.0)})


def test_aggregates_must_cover_load_points_exactly():
    up = UpstreamLink(0.5, 10.0)
    with pytest.raises(ValueError):
        NetworkModel(load_points=(_lp(1), _lp(2)), upstream=up,
                     aggregates={"L1": LoadPointAggregate(0.1, 1.0)})
    with pytest.raises(ValueError):
        NetworkModel(load_points=(_lp(1),), upstream=up,
                     aggregates={"L1": LoadPointAggregate(0.1, 1.0),
                                 "L9": LoadPointAggregate(0.1, 1.0)})


def test_failure_effect_none_requires_zero_duration():
    with pytest.raises(ValueError):
        FailureEffect("L1", EFFECT_NONE, 1.0)
    assert FailureEffect("L1", EFFECT_NONE, 0.0).duration == 0.0


def test_switchgear_validation():
    with pytest.raises(ValueError):
        Switchgear("fuse", 1.0)
    with pytest.raises(ValueError):
        Switchgear("normally_open_tie", 1.0)  # needs a location
    with pytest.raises(ValueError):
        Switchgear("isolator", -1.0)


def test_component_reliability_validation():
    with pytest.raises(ValueError):
        ComponentReliability(-0.1, 5.0)
    with pytest.raises(ValueError):
        ComponentReliability(0.1, float("inf"))
