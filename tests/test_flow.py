"""Numerical integration across the chart atlas.

The compiled vector fields are checked against the exact algebra, then
the integrator's observable properties are pinned down: determinism,
chart-switch continuity, invariant-manifold preservation, reversibility,
and agreement with an independently integrated scalar reduction.
"""
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2lab import atlas, flow
from p2lab.exact import Polynomial, RationalFunction, rf, rfvar, var_index
from p2lab.flow import (
    _A,
    _B4,
    _B5,
    _C,
    FlowState,
    IntegratorConfig,
    NoChart,
    StepFailure,
    _adaptive,
    _step_fn,
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
def test_field_chain_rule_symbolic(i, j, passes):
    assert passes(f"field-chain-rule {i}.{j}")


def ref_field_consistency_symbolic(i, j):
    """The canonical-route chain rule that the unreduced one replaced."""
    tr = atlas.transition(i, j)
    (yy, yz, yt), (zy, zz, zt) = tr.jacobian
    fy_i, fz_i = atlas.hamilton_field(i)
    fy_j, fz_j = atlas.hamilton_field(j)
    b = tr.bindings()
    return ((yy * fy_i + yz * fz_i + yt - fy_j.substitute(b)).is_zero()
            and (zy * fy_i + zz * fz_i + zt - fz_j.substitute(b)).is_zero())


@pytest.mark.parametrize("i,j", [("W1", "W3"), ("W3", "W12"), ("W1", "W12"),
                                 ("W3", "W1"), ("W12", "W3"), ("W12", "W1")])
def test_field_chain_rule_routes_agree(i, j):
    assert flow.field_consistency_symbolic(i, j)
    assert ref_field_consistency_symbolic(i, j)


@pytest.mark.parametrize("i,j", [("W1", "W3"), ("W3", "W12"), ("W1", "W12")])
def test_field_chain_rule_numeric(i, j):
    assert flow.field_consistency_numeric(i, j) < 1e-12


def test_vector_field_at_a_point():
    fy, fz = vector_field("W1", 1.0, 2.0, 3.0, 0.5)
    assert fy == 1.0 + 2.0 + 1.5
    assert fz == -4.0 + 0.5


def test_chart_selection():
    # big fiber coordinate, small momentum: the reciprocal chart wins
    assert best_chart("W1", 1e3, 0.0, 0.0, 0.5) == "W3"
    # everything moderate: stay where you are (ties break toward W1)
    assert best_chart("W3", 2.0, 0.1, 0.0, 0.5) in ("W1", "W3", "W12")
    # flow.NO_CHART_BOUND (1e8) from both sides: the smallest chart size
    # here is max(|y|, |z|) in W1
    assert best_chart("W1", 5e7, 5e7, 0.0, 0.5) == "W1"
    with pytest.raises(NoChart):
        best_chart("W1", 2e8, 2e8, 0.0, 0.5)


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


def test_config_validation():
    with pytest.raises(flow.FlowError):
        IntegratorConfig(rtol=-1.0)
    with pytest.raises(flow.FlowError):
        IntegratorConfig(switch_threshold=0.0)
    for kwargs in ({"rtol": math.nan}, {"atol": math.nan},
                   {"switch_threshold": math.nan}):
        with pytest.raises(flow.FlowError):
            IntegratorConfig(**kwargs)


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


def test_non_finite_bounds_are_a_flow_error():
    for t0, t1 in ((0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(flow.FlowError):
            integrate(0.5, FlowState("W1", 0.0, 0.0, t0, 0.5), t1)


# ---------------------------------------------------------------------------
# generated code against the interpreted routes it replaced, bit for bit


def interpret_rf(expr, names):
    """The term-list interpreter that compile_rf's generated code
    replaced."""
    expr = RationalFunction.coerce(expr)
    idx = {var_index(n): k for k, n in enumerate(names)}

    def build(poly):
        return [(float(q), tuple((idx[i], p) for i, p in enumerate(e) if p))
                for e, q in poly.terms.items()]

    num_terms, den_terms = build(expr.num), build(expr.den)

    def ev(terms, args):
        total = 0.0
        for coeff, spots in terms:
            v = coeff
            for k, p in spots:
                v *= args[k] ** p
            total += v
        return total

    if expr.den.is_constant():
        d = float(expr.den.constant_value())
        return lambda *args: ev(num_terms, args) / d
    return lambda *args: ev(num_terms, args) / ev(den_terms, args)


def loop_step(f, u, t, h):
    """The generic stage loop that _step_fn's unrolled code replaced.  It
    summed with sum(), spelled out here as left-to-right addition from 0:
    sum() of floats is compensated from Python 3.12 on, plain before."""
    def comb(weights, m):
        acc = 0
        for r, w in enumerate(weights):
            acc = acc + w * k[r][m]
        return acc

    n = len(u)
    k = [f(u, t)]
    for s in range(1, 7):
        us = tuple(u[m] + h * comb(_A[s], m) for m in range(n))
        k.append(f(us, t + _C[s] * h))
    u5 = tuple(u[m] + h * comb(_B5, m) for m in range(n))
    err_w = [b5 - b4 for b5, b4 in zip(_B5, _B4)]
    err = tuple(h * comb(err_w, m) for m in range(n))
    return u5, err


def bits(values):
    return tuple(struct.pack("<d", v) for v in values)


def outcome(fn, *args):
    """Bits of the result, or the type of the float exception raised."""
    try:
        out = fn(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)
    return bits(out if isinstance(out, tuple) else (out,))


@st.composite
def exact_polys(draw, max_terms=6):
    out = Polynomial.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        mono = Polynomial.const(draw(fracs))
        for name in ("q", "p", "t"):
            mono = mono * Polynomial.variable(name) ** draw(st.integers(0, 3))
        out = out + mono
    return out


# compile_rf reads num and den as they stand, so no gcd is taken here
exact_exprs = st.builds(
    RationalFunction._coprime, exact_polys(),
    st.one_of(st.just(Polynomial.const(1)), exact_polys().filter(bool)))


# summing three or more terms in another order changes the rounding in
# about one example in ten, so this cheap property gets more examples
@settings(max_examples=300)
@given(exact_exprs, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
       st.floats(-4.0, 4.0))
def test_generated_rf_matches_the_interpreter_bit_for_bit(expr, q, p, t):
    names = ("q", "p", "t")
    assert outcome(compile_rf(expr, names), q, p, t) == \
        outcome(interpret_rf(expr, names), q, p, t)


def test_generated_rf_matches_the_interpreter_at_edge_values():
    q, p, t = rfvar("q"), rfvar("p"), rfvar("t")
    names = ("q", "p", "t")
    for expr in (q ** 3 - 2 * p * t + Fraction(1, 2),
                 (q ** 3 - 2 * p * t) / (p ** 2 - q)):
        for args in ((1e200, 1.0, 2.0), (1.0, 1.0, 2.0), (math.inf, 0.0, 1.0),
                     (math.nan, 2.0, 1.0), (-0.0, 0.0, -0.0)):
            assert outcome(compile_rf(expr, names), *args) == \
                outcome(interpret_rf(expr, names), *args)


moderate = st.floats(-3.0, 3.0)
step_sizes = st.one_of(st.floats(1e-8, 0.5), st.floats(-0.5, -1e-8))


def assert_step_matches_the_loop(f, u, t, h):
    step = _step_fn(len(u))
    try:
        ref_u5, ref_err = loop_step(f, u, t, h)
    except (ZeroDivisionError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            step(f, u, t, h, f(u, t))
        return
    u5, err, k7 = step(f, u, t, h, f(u, t))
    assert bits(u5) == bits(ref_u5) and bits(err) == bits(ref_err)
    # first same as last: the seventh stage is f at the new state.  Every
    # stage enters err, so a finite err means finite stages, which is
    # when the driver can accept the step and reuse k7.
    if all(map(math.isfinite, u5 + err)):
        assert bits(k7) == bits(f(u5, t + h))


@given(st.sampled_from(flow.atlas.CHARTS), moderate, moderate, moderate,
       moderate, step_sizes)
def test_generated_step_matches_the_loop_in_two_components(chart, y, z, t, c,
                                                           h):
    field = flow.chart_field(chart)
    assert_step_matches_the_loop(lambda u, t: field(u[0], u[1], t, c),
                                 (y, z), t, h)


@given(moderate, moderate, moderate, moderate, step_sizes)
def test_generated_step_matches_the_loop_in_one_component(a, b, q, t, h):
    def f(u, t):
        return (a * u[0] ** 2 + b * t,)
    assert_step_matches_the_loop(f, (q,), t, h)


# ---------------------------------------------------------------------------
# FSAL: first-stage reuse in the driver


@pytest.mark.parametrize("c,q0,p0,t1,rejects", [
    (0.5, 0.0, 0.0, 8.0, False),      # the README pole demo
    (0.5, -1.5, 1.5, 10.0, True),     # a dozen switches
])
def test_fsal_evaluations_per_step(monkeypatch, c, q0, p0, t1, rejects):
    calls = []
    chart_field = flow.chart_field

    def recording_chart_field(chart):
        fn = chart_field(chart)

        def field(y, z, t, c):
            calls.append((chart, y, z, t))
            return fn(y, z, t, c)
        return field

    monkeypatch.setattr(flow, "chart_field", recording_chart_field)
    traj = integrate(c, FlowState("W1", q0, p0, 0.0, c), t1)
    steps = traj.accepted + traj.rejected
    assert traj.switches and steps > 900 and (traj.rejected > 0) == rejects
    assert len(calls) <= 6 * steps + 1 + len(traj.switches)
    assert switch_continuity_ok(traj)
    # a step after a switch starts afresh, at the post-switch state
    firsts = [cur for prev, cur in zip(calls, calls[1:]) if cur[0] != prev[0]]
    assert firsts == [(ev.to_chart, ev.y_post, ev.z_post, ev.t)
                      for ev in traj.switches]
