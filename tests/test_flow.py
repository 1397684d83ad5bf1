"""Numerical integration across the chart atlas.

The compiled vector fields are checked against the exact algebra, then
the integrator's observable properties are pinned down: determinism,
chart-switch continuity, invariant-manifold preservation, reversibility,
and agreement with an independently integrated scalar reduction.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2lab import flow
from p2lab.exact import Polynomial, rf, rfvar
from p2lab.flow import (
    FlowState,
    IntegratorConfig,
    NoChart,
    StepFailure,
    _adaptive,
    best_chart,
    compile_rf,
    integrate,
    switch_continuity_ok,
    to_w1,
    transport,
    vector_field,
)


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=40)
@given(fracs, fracs, fracs)
def test_compiled_closures_match_exact_evaluation(a, b, c):
    q, p, t = rfvar("q"), rfvar("p"), rfvar("t")
    expr = (q ** 3 - 2 * p * t + Fraction(1, 2)) / (p ** 2 + 1)
    fn = compile_rf(expr, ("q", "p", "t"))
    exact = expr.eval_fractions({"q": a, "p": b, "t": c})
    got = fn(float(a), float(b), float(c))
    assert math.isclose(got, float(exact), rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("i,j", [("W1", "W3"), ("W3", "W12"), ("W1", "W12")])
def test_field_chain_rule_symbolic(i, j):
    assert flow.field_consistency_symbolic(i, j)


@pytest.mark.parametrize("i,j", [("W1", "W3"), ("W3", "W12"), ("W1", "W12")])
def test_field_chain_rule_numeric(i, j):
    assert flow.field_consistency_numeric(i, j) < 1e-12


def test_vector_field_at_a_point():
    fy, fz = vector_field("W1", 1.0, 2.0, 3.0, 0.5)
    assert fy == 1.0 + 2.0 + 1.5
    assert fz == -4.0 + 0.5


def test_chart_selection():
    # big fiber coordinate, small momentum: the reciprocal chart wins
    assert best_chart("W1", 1e3, 0.0, 0.0, 0.5, 1e8) == "W3"
    # everything moderate: stay where you are (ties break toward W1)
    assert best_chart("W3", 2.0, 0.1, 0.0, 0.5, 1e8) in ("W1", "W3", "W12")
    with pytest.raises(NoChart):
        best_chart("W1", 1e12, 1e12, 0.0, 0.5, 1e12 - 1)


def test_transport_round_trip_numeric():
    y, z = 0.7, -1.3
    y3, z3 = transport("W1", "W3", y, z, 0.4, 0.5)
    y1, z1 = transport("W3", "W1", y3, z3, 0.4, 0.5)
    assert math.isclose(y1, y, rel_tol=1e-14)
    assert math.isclose(z1, z, rel_tol=1e-13)


def test_integration_is_deterministic():
    config = IntegratorConfig()
    init = FlowState("W1", 0.0, 0.0, 0.0, 0.5)
    a = integrate(0.5, init, 4.0, config)
    b = integrate(0.5, init, 4.0, config)
    assert [(s.chart, s.y, s.z, s.t) for s in a.states] == \
        [(s.chart, s.y, s.z, s.t) for s in b.states]
    assert a.accepted == b.accepted and a.rejected == b.rejected


def test_pole_crossing_trajectory():
    config = IntegratorConfig()
    init = FlowState("W1", 0.0, 0.0, 0.0, 0.5)
    traj = integrate(0.5, init, 4.0, config)
    assert len(traj.switches) >= 2
    charts = [s.chart for s in traj.states]
    assert "W3" in charts                      # crossed through the pole chart
    assert traj.final.chart == "W1"
    assert traj.final.t == 4.0
    assert switch_continuity_ok(traj)
    # while in the pole chart the fiber coordinate passes through zero:
    # the solution genuinely blows up and comes back
    w3_ys = [s.y for s in traj.states if s.chart == "W3"]
    assert min(w3_ys) < 0 < max(w3_ys)


def test_reversibility():
    config = IntegratorConfig()
    init = FlowState("W1", 0.0, 0.0, 0.0, 0.5)
    err = flow.reversibility_error(0.5, init, 2.0, config)
    assert err < 1e-6


def test_riccati_reduction_agrees():
    worst_q, p_drift = flow.riccati_compare(0.0, 1.5, 0.0, IntegratorConfig())
    assert worst_q < 1e-8
    assert p_drift < 1e-12


def test_invariant_momentum_locus():
    config = IntegratorConfig()
    init = FlowState("W1", 0.3, 0.0, 0.0, 0.0)
    traj = integrate(0.0, init, 2.0, config)
    assert flow.invariant_drift(traj, "p") < 1e-8


def test_invariant_shifted_locus():
    config = IntegratorConfig()
    q0 = 0.3
    init = FlowState("W1", q0, -2 * q0 * q0, 0.0, -1.0)
    traj = integrate(-1.0, init, 2.0, config)
    assert flow.invariant_drift(traj, "shifted") < 1e-8


def test_backlund_commutes_with_flow():
    config = IntegratorConfig()
    init = FlowState("W1", 0.4, 0.2, 0.0, 0.5)
    err = flow.backlund_numeric_check(0.5, init, 2.0, config)
    assert err < 1e-6


def test_negation_at_origin_is_exact_identity():
    q, p, c2 = flow.apply_phase_map("negation", 0.37, -0.91, 1.1, 0.0)
    assert (q, p, c2) == (0.37, -0.91, 0.0)


def test_config_validation():
    with pytest.raises(flow.FlowError):
        IntegratorConfig(rtol=-1.0)
    with pytest.raises(flow.FlowError):
        IntegratorConfig(switch_threshold=0.0)


def test_to_w1_identity_on_base_chart():
    s = FlowState("W1", 0.25, -0.5, 1.0, 0.5)
    assert to_w1(s) == (0.25, -0.5)


def test_overflow_in_transport_means_outside_the_overlap():
    y, z = transport("W1", "W3", 1e200, 1.0, 0.0, 0.5)
    assert math.isnan(y) and math.isnan(z)
    with pytest.raises(NoChart):
        best_chart("W1", 1e200, 1.0, 0.0, 0.5)


def test_overflow_in_a_step_is_a_rejected_step():
    def overflowing(u, t):
        return (math.exp(1e3),)
    stats = [0, 0]
    with pytest.raises(StepFailure):
        _adaptive(overflowing, (0.0,), 0.0, 1.0, IntegratorConfig(), None,
                  stats)
    assert stats[0] == 0 and stats[1] > 0


def test_overflowing_start_raises_a_flow_error():
    with pytest.raises(flow.FlowError):
        integrate(0.5, FlowState("W1", 1e200, 0.0, 0.0, 0.5), 1.0)
