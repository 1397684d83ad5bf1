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
    # the budget on q is test_acceptance.test_criterion_11_numerics'
    _, p_drift = flow.riccati_compare(0.0, 1.5, 0.0, IntegratorConfig())
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


@pytest.mark.parametrize("chart", ["W3", "W12"])
def test_to_w1_is_nan_on_the_removed_divisor(chart):
    # y = 0 is the divisor a pole chart adds: there is no base-chart point
    q, p = to_w1(FlowState(chart, 0.0, 1.0, 0.5, 0.5))
    assert math.isnan(q) and math.isnan(p)


def test_overflow_in_transport_means_outside_the_overlap():
    y, z = transport("W1", "W3", 1e200, 1.0, 0.0, 0.5)
    assert math.isnan(y) and math.isnan(z)
    with pytest.raises(NoChart):
        best_chart("W1", 1e200, 1.0, 0.0, 0.5)


def test_overflow_in_a_step_is_a_rejected_step():
    # q^100 overflows at q = 1e10, in the first stage and in every step
    bind = flow._step_fn((rfvar("q") ** 100,), ("q", "t"))
    config = IntegratorConfig()
    stats = [0, 0, 0]
    with pytest.raises(StepFailure):
        _adaptive(lambda: bind(config.rtol, config.atol), (1e10,), 0.0, 1.0,
                  config, None, stats)
    assert stats[0] == 0 and stats[1] > 0 and stats[2] == 0


def test_forced_accepts_are_counted_at_the_step_size_floor():
    # a step that never meets the tolerance: h shrinks to the floor, where
    # the driver accepts (and counts as forced) until h underflows
    def field(u, t):
        return (0.0,)

    def step(u, t, h, k1):
        return (u[0] + h,), 2.0, (0.0,)

    stats = [0, 0, 0]
    with pytest.raises(StepFailure, match="underflow"):
        _adaptive(lambda: (field, step), (0.0,), 0.0, 1.0,
                  IntegratorConfig(), None, stats)
    accepted, rejected, forced = stats
    assert forced == accepted > 0 and rejected > 0


@pytest.mark.parametrize("c,q0,p0,t1,counts,charts", [
    # the README pole demo: W1 and W3 only, no step rejected
    (0.5, 0.0, 0.0, 8.0, (946, 0, 0, 7), {"W1", "W3"}),
    # visits W12 and rejects steps (tests/w12_trajectory.sha256)
    (-1.0, -1.5, 0.0, 10.0, (1983, 9, 0, 15), {"W1", "W3", "W12"}),
])
def test_step_counts(c, q0, p0, t1, counts, charts):
    traj = integrate(c, FlowState("W1", q0, p0, 0.0, c), t1)
    assert (traj.accepted, traj.rejected, traj.forced,
            len(traj.switches)) == counts
    assert {s.chart for s in traj.states} == charts
    with pytest.raises(AttributeError):
        traj.forced = 1


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


def loop_step(f, u, t, h, k1):
    """The generic stage loop that _step_fn's unrolled code replaced.  It
    summed with sum(), spelled out here as left-to-right addition from 0:
    sum() of floats is compensated from Python 3.12 on, plain before."""
    def comb(weights, m):
        acc = 0
        for r, w in enumerate(weights):
            acc = acc + w * k[r][m]
        return acc

    n = len(u)
    k = [k1]
    for s in range(1, 7):
        us = tuple(u[m] + h * comb(_A[s], m) for m in range(n))
        k.append(f(us, t + _C[s] * h))
    u5 = tuple(u[m] + h * comb(_B5, m) for m in range(n))
    err_w = [b5 - b4 for b5, b4 in zip(_B5, _B4)]
    err = tuple(h * comb(err_w, m) for m in range(n))
    return u5, err, k[6]


def error_norm(u, u_new, err, rtol, atol):
    """The generic RMS loop that the generated step's inlined norm
    replaced."""
    acc = 0.0
    for m in range(len(u)):
        sc = atol + rtol * max(abs(u[m]), abs(u_new[m]))
        acc += (err[m] / sc) ** 2
    return math.sqrt(acc / len(u))


def reference_bind(f):
    """A ``bind`` of the shape _step_fn generates, built from the loops
    the generated code replaced; f(u, t, *params) is the field."""
    def bind(rtol, atol, *params):
        def field(u, t):
            return f(u, t, *params)

        def step(u, t, h, k1):
            u5, err, k7 = loop_step(field, u, t, h, k1)
            return u5, error_norm(u, u5, err, rtol, atol), k7
        return field, step
    return bind


def chart_reference_bind(chart):
    """reference_bind over the compiled chart field."""
    fn = flow.chart_field(chart)
    return reference_bind(lambda u, t, c: fn(u[0], u[1], t, c))


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
tolerances = st.floats(1e-13, 1e-3)


def flat(step):
    def run(u, t, h, k1):
        u5, norm, k7 = step(u, t, h, k1)
        return u5 + (norm,) + k7
    return run


def assert_step_matches_the_loop(bind, ref_bind, u, t, h, params, rtol,
                                 atol):
    field, step = bind(rtol, atol, *params)
    ref_field, ref_step = ref_bind(rtol, atol, *params)
    k1 = outcome(field, u, t)
    assert k1 == outcome(ref_field, u, t)
    if not isinstance(k1, tuple):
        return
    k1 = field(u, t)
    got = outcome(flat(step), u, t, h, k1)
    assert got == outcome(flat(ref_step), u, t, h, k1)
    if not isinstance(got, tuple):
        return
    # first same as last: the seventh stage is the field at the new state.
    # Every stage enters err, so a finite norm means finite stages, which
    # is when the driver can accept the step and reuse k7.
    u5, norm, k7 = step(u, t, h, k1)
    if all(map(math.isfinite, u5 + (norm,))):
        assert bits(k7) == bits(field(u5, t + h))


@given(st.sampled_from(flow.atlas.CHARTS), moderate, moderate, moderate,
       moderate, step_sizes, tolerances, tolerances)
def test_generated_step_matches_the_loop_in_two_components(chart, y, z, t, c,
                                                           h, rtol, atol):
    assert_step_matches_the_loop(flow._chart_step(chart),
                                 chart_reference_bind(chart),
                                 (y, z), t, h, (c,), rtol, atol)


@given(fracs, fracs, moderate, moderate, step_sizes, tolerances, tolerances)
def test_generated_step_matches_the_loop_in_one_component(a, b, q, t, h, rtol,
                                                          atol):
    expr = a * rfvar("q") ** 2 + b * rfvar("t")
    fn = compile_rf(expr, ("q", "t"))
    assert_step_matches_the_loop(flow._step_fn((expr,), ("q", "t")),
                                 reference_bind(lambda u, t: (fn(u[0], t),)),
                                 (q,), t, h, (), rtol, atol)


def test_generated_step_matches_the_loop_at_edge_values():
    for chart in flow.atlas.CHARTS:
        for y, z, h in ((1e100, 1.0, 0.1), (1e30, 1e30, -0.1),
                        (math.inf, 0.0, 0.1), (math.nan, 1.0, 0.1),
                        (-0.0, 0.0, 1e-300)):
            assert_step_matches_the_loop(flow._chart_step(chart),
                                         chart_reference_bind(chart),
                                         (y, z), 0.5, h, (0.25,), 1e-10,
                                         1e-12)


# ---------------------------------------------------------------------------
# FSAL: first-stage reuse in the driver


@pytest.mark.parametrize("c,q0,p0,t1,rejects", [
    (0.5, 0.0, 0.0, 8.0, False),      # the README pole demo
    (0.5, -1.5, 1.5, 10.0, True),     # a dozen switches
])
def test_fsal_evaluations_per_step(monkeypatch, c, q0, p0, t1, rejects):
    # The generated step evaluates its field inline, where no wrapper can
    # count it, so the same driver runs a reference step that records
    # every evaluation; its trajectory must equal the generated one's.
    fused = integrate(c, FlowState("W1", q0, p0, 0.0, c), t1)
    calls = []

    def recording_bind(chart):
        fn = flow.chart_field(chart)

        def field(u, t, c):
            calls.append((chart, u[0], u[1], t))
            return fn(u[0], u[1], t, c)
        return reference_bind(field)

    monkeypatch.setattr(flow, "_chart_step", recording_bind)
    traj = integrate(c, FlowState("W1", q0, p0, 0.0, c), t1)
    steps = traj.accepted + traj.rejected
    assert traj.switches and steps > 900 and (traj.rejected > 0) == rejects
    assert len(calls) <= 6 * steps + 1 + len(traj.switches)
    assert switch_continuity_ok(traj)
    # a step after a switch starts afresh, at the post-switch state
    firsts = [cur for prev, cur in zip(calls, calls[1:]) if cur[0] != prev[0]]
    assert firsts == [(ev.to_chart, ev.y_post, ev.z_post, ev.t)
                      for ev in traj.switches]
    assert [(s.chart, bits(s[1:])) for s in traj.states] == \
        [(s.chart, bits(s[1:])) for s in fused.states]
    assert traj.switches == fused.switches
    assert (traj.accepted, traj.rejected) == (fused.accepted, fused.rejected)
