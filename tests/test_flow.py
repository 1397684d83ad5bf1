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
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from p2lab import atlas, flow
from p2lab.exact import Polynomial, RationalFunction, rfvar, var_index
from p2lab.flow import (
    _A,
    _B4,
    _B5,
    _C,
    FlowState,
    IntegratorConfig,
    NoChart,
    StepFailure,
    StepStats,
    best_chart,
    compile_map,
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
    fn = compile_map((expr,), ("q", "p", "t"))
    exact = expr.eval_fractions({"q": a, "p": b, "t": c})
    (got,) = fn(float(a), float(b), float(c))
    assert math.isclose(got, float(exact), rel_tol=1e-12, abs_tol=1e-12)


def ref_field_consistency_symbolic(i, j):
    """The canonical-route chain rule that the unreduced one replaced."""
    tr = atlas.transition(i, j)
    (yy, yz, yt), (zy, zz, zt) = tr.jacobian
    fy_i, fz_i = atlas.hamilton_field(i)
    fy_j, fz_j = atlas.hamilton_field(j)
    b = tr.bindings
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


def ref_best_chart(chart, y, z, t, c):
    """best_chart as it was before its candidates were generated: each
    candidate through ``transport``, tested with isnan and isinf, sized
    with abs and max."""
    best = None
    best_size = math.inf
    for cand in atlas.CHARTS:
        yy, zz = transport(chart, cand, y, z, t, c)
        if math.isnan(yy) or math.isnan(zz) or math.isinf(yy) or math.isinf(zz):
            continue
        size = max(abs(yy), abs(zz))
        if size < best_size:
            best, best_size = cand, size
    if best is None or best_size > flow.NO_CHART_BOUND:
        raise NoChart(f"no finite chart at t={t} (smallest size {best_size})")
    return best


chart_coords = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1e200, -1e200, math.nan, math.inf, -math.inf,
                     5e7, -2e8, 1e-200]))
parameters = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3), fracs)


@given(st.sampled_from(atlas.CHARTS), chart_coords, chart_coords,
       st.floats(-3.0, 3.0), parameters)
# (1, 0) at t = -3, c = 0 is (1, 0) in all three charts: the tie goes to
# the first chart of the atlas from every source chart
@example("W1", 1.0, 0.0, -3.0, 0)
@example("W3", 1.0, 0.0, -3.0, Fraction(0))
@example("W12", 1.0, 0.0, -3.0, 0.0)
@example("W3", 1.0, -0.0, 0.0, 0)        # W1 and W3 tie at size 1
@example("W12", -0.0, 1.0, 0.5, 0.5)     # finite only in W12 itself
@example("W1", 2e8, 2e8, 0.0, 0.5)       # every finite size past the bound
@example("W3", math.nan, 1.0, 0.0, 0.5)  # no finite chart
def test_best_chart_matches_the_transport_route(chart, y, z, t, c):
    assert outcome_of(best_chart, chart, y, z, t, c) == \
        outcome_of(ref_best_chart, chart, y, z, t, c)


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


def test_riccati_reduction_agrees():
    # the budget on q is test_acceptance.test_criterion_11_numerics'
    _, p_drift = flow.riccati_compare(0.0, 1.5, 0.0, IntegratorConfig())
    assert p_drift < 1e-12


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


def run_loop(loop, u, t0, t1, threshold=math.inf, budget=flow.MAX_STEPS,
             h=None):
    """A generated loop from t0 towards t1, with first step h (by default
    integrate's), stopping at the first state past the threshold: (status,
    u, t, h, err_prev, records, stats), with the next step h and the PI
    memory err_prev as the loop returns them, each record a tuple (None,
    *u, t, None)."""
    stats, records = StepStats(), []
    h = flow._first_step(t0, t1) if h is None else h
    status, u, t, h, err_prev, _ = loop(u, t0, t1, h, 1.0, budget, threshold,
                                        lambda *state: "elsewhere", stats,
                                        records.append, tuple, None, None)
    return status, u, t, h, err_prev, records, stats


def test_overflow_in_a_step_is_a_rejected_step():
    # q^100 overflows at q = 1e10, in the first stage and in every step
    bind = flow._loop_fn((rfvar("q") ** 100,), ("q", "t"))
    config = IntegratorConfig()
    status, u, t, _, _, records, stats = run_loop(
        bind(config.rtol, config.atol), (1e10,), 0.0, 1.0)
    assert (status, u, t, records) == ("step size underflow", (1e10,), 0.0,
                                       [])
    assert stats.accepted == stats.forced == 0
    assert stats.rejected == stats.rejected_overflow > 0
    # every attempt evaluates the first stage afresh, and overflows there
    assert stats.field_evals == stats.rejected_overflow


def test_forced_accepts_are_counted_at_the_step_size_floor():
    # tolerances no step can meet: h shrinks to the floor, where the loop
    # accepts (and counts as forced) until h underflows
    bind = flow._loop_fn((rfvar("q") ** 2 + rfvar("t"),), ("q", "t"))
    status, _, t, _, _, records, stats = run_loop(bind(1e-100, 1e-100),
                                                  (0.5,), 0.0, 1.0)
    assert status == "step size underflow"
    assert stats.forced == stats.accepted == len(records) > 0
    assert stats.rejected == stats.rejected_error > 0
    assert 0.0 < t < 1e-12
    # integrate raises it
    with pytest.raises(StepFailure, match="underflow"):
        integrate(0.5, FlowState("W1", 0.5, 0.0, 0.0, 0.5), 1.0,
                  IntegratorConfig(rtol=1e-100, atol=1e-100))


def test_counts_are_written_back_when_the_chart_choice_fails():
    bind = flow._loop_fn((RationalFunction.coerce(0),), ("q", "t"))
    stats = StepStats()

    def pick(q, t):
        raise flow.NoChart("nowhere")

    with pytest.raises(flow.NoChart):
        bind(1e-10, 1e-12)((3.0,), 0.0, 1.0, 1e-3, 1.0, flow.MAX_STEPS, 2.0,
                           pick, stats, [].append, tuple, None, None)
    assert (stats.accepted, stats.field_evals, stats.h_max) == (1, 7, 1e-3)


def test_forced_accepts_are_counted_by_the_reference_driver():
    # the same with a step that never meets the tolerance, driven by the
    # step-by-step reference
    def field(u, t):
        return (0.0,)

    def step(u, t, h, k1):
        return (u[0] + h,), 2.0, (0.0,)

    stats = StepStats()
    with pytest.raises(StepFailure, match="underflow"):
        _adaptive(lambda: (field, step), (0.0,), 0.0, 1.0,
                  IntegratorConfig(), None, stats)
    assert stats.forced == stats.accepted > 0
    assert stats.rejected == stats.rejected_error > 0


def test_the_threshold_test_is_strict():
    # under a zero field the state stays on the threshold, which is not
    # past it: the loop runs to t1 without stopping for a chart switch
    loop = flow._loop_fn((RationalFunction.coerce(0),), ("q", "t"))(1e-10,
                                                                   1e-12)
    status, u, t, _, _, records, stats = run_loop(loop, (-3.0,), 0.0,
                                                  0.0012, 3.0)
    assert (status, u, t) == (None, (-3.0,), 0.0012)
    assert len(records) == stats.accepted == 2
    assert run_loop(loop, (-3.0,), 0.0, 0.0012, 2.999)[:3] == (
        "switch", (-3.0,), 1e-3)


def test_a_zero_error_norm_grows_h_by_the_top_factor():
    # under a zero field every error norm is 0: h grows fivefold up to
    # H_MAX and the loop reaches t1; before, it shrank about 3.5-fold a
    # step until it underflowed
    loop = flow._loop_fn((RationalFunction.coerce(0),), ("q", "t"))(1e-10,
                                                                   1e-12)
    got = run_loop(loop, (1.0,), 0.0, 1.0)
    status, u, t, h, _, records, _ = got
    assert (status, u, t, h) == (None, (1.0,), 1.0, flow.H_MAX)
    assert [r[-2] for r in records] == [0.001, 0.006, 0.031, 0.156, 0.406,
                                        0.656, 0.906, 1.0]
    assert_runs_agree(got, ref_run_loop(
        lambda: scalar_reference_bind(RationalFunction.coerce(0))(1e-10,
                                                                  1e-12),
        (1.0,), 0.0, 1.0, IntegratorConfig()))


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


@pytest.mark.parametrize("where", ["y", "z", "t", "c", "t1"])
def test_values_past_the_float_range_are_a_flow_error(where):
    # before, a raw OverflowError: "int too large to convert to float"
    v = {"y": 0.0, "z": 0.0, "t": 0.0, "c": 0.5, "t1": 1.0, where: 10 ** 400}
    with pytest.raises(flow.FlowError, match="float range"):
        integrate(v["c"], FlowState("W1", v["y"], v["z"], v["t"], 0.5),
                  v["t1"])


def test_non_finite_bounds_are_a_flow_error():
    for t0, t1 in ((0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(flow.FlowError):
            integrate(0.5, FlowState("W1", 0.0, 0.0, t0, 0.5), t1)


# ---------------------------------------------------------------------------
# generated code against the interpreted routes it replaced, bit for bit


def interpret_rf(expr, names):
    """The term-list interpreter that compile_map's generated code
    replaced, for one expression."""
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
    """The generic stage loop that _loop_fn's unrolled step replaced.  It
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
    """The generic RMS loop that the generated loop's inlined norm
    replaced."""
    acc = 0.0
    for m in range(len(u)):
        sc = atol + rtol * max(abs(u[m]), abs(u_new[m]))
        acc += (err[m] / sc) ** 2
    return math.sqrt(acc / len(u))


def reference_bind(f):
    """``bind(rtol, atol, *params) -> (field, step)`` for the reference
    driver, built from the loops the generated code replaced; f(u, t,
    *params) is the field."""
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


def scalar_reference_bind(expr):
    """reference_bind over the compiled scalar field dq/dt = expr(q, t)."""
    fn = compile_map((expr,), ("q", "t"))
    return reference_bind(lambda u, t: fn(u[0], t))


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


# compile_map reads num and den as they stand, so no gcd is taken here
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
    assert outcome(compile_map((expr,), names), q, p, t) == \
        outcome(interpret_rf(expr, names), q, p, t)


def test_generated_rf_matches_the_interpreter_at_edge_values():
    q, p, t = rfvar("q"), rfvar("p"), rfvar("t")
    names = ("q", "p", "t")
    for expr in (q ** 3 - 2 * p * t + Fraction(1, 2),
                 (q ** 3 - 2 * p * t) / (p ** 2 - q)):
        for args in ((1e200, 1.0, 2.0), (1.0, 1.0, 2.0), (math.inf, 0.0, 1.0),
                     (math.nan, 2.0, 1.0), (-0.0, 0.0, -0.0)):
            assert outcome(compile_map((expr,), names), *args) == \
                outcome(interpret_rf(expr, names), *args)


moderate = st.floats(-3.0, 3.0)
step_sizes = st.one_of(st.floats(1e-8, 0.5), st.floats(-0.5, -1e-8))
tolerances = st.floats(1e-13, 1e-3)


def assert_step_matches_the_loop(bind, ref_bind, u, t, h, params, rtol,
                                 atol, final=False):
    """One step of the generated loop, from (u, t) with step h, against
    one step of the reference driver over loop_step and error_norm.  The
    step ends at t1 = t + 2h, or at t1 = t + h when final (at t = 0.0
    that is h exactly, and a final step is not refused below the floor);
    either way h is not cut, and a budget of one step ends both runs
    after it."""
    config = IntegratorConfig(rtol=rtol, atol=atol)
    t1 = t + (h if final else 2 * h)
    got = run_loop(bind(rtol, atol, *params), u, t, t1, budget=1, h=h)
    want = ref_run_loop(lambda: ref_bind(rtol, atol, *params), u, t, t1,
                        config, budget=1, h=h)
    assert_runs_agree(got, want)
    # the step ran: the loop refuses only a non-finite state beforehand
    status, *_, stats = got
    assert stats.field_evals > 0 or status == "state became non-finite"
    # first same as last, which the loop relies on: the seventh stage is
    # the field at the new state.  Every stage enters err, so a finite
    # norm means finite stages, which is when a step can be accepted and
    # its k7 reused.
    field, step = ref_bind(rtol, atol, *params)
    try:
        k1 = field(u, t)
        u5, norm, k7 = step(u, t, h, k1)
    except (ZeroDivisionError, OverflowError):
        return
    if all(map(math.isfinite, u5 + (norm,))):
        assert bits(k7) == bits(field(u5, t + h))


@given(st.sampled_from(flow.atlas.CHARTS), moderate, moderate, moderate,
       moderate, step_sizes, tolerances, tolerances)
def test_generated_step_matches_the_loop_in_two_components(chart, y, z, t, c,
                                                           h, rtol, atol):
    assert_step_matches_the_loop(flow._chart_loop(chart),
                                 chart_reference_bind(chart),
                                 (y, z), t, h, (c,), rtol, atol)


@given(fracs, fracs, moderate, moderate, step_sizes, tolerances, tolerances)
# k1..k6 finite and k7 = inf: the reference's u5 (which adds 0.0 * k7) is
# nan, the generated loop's new state (the seventh stage's input) is
# finite, and both reject the step as non-finite after 7 field evaluations
@example(Fraction(3525313), Fraction(1), -0.12698774824222347, 0.0,
         0.001939454341782496, 1e-10, 1e-12)
def test_generated_step_matches_the_loop_in_one_component(a, b, q, t, h, rtol,
                                                          atol):
    expr = a * rfvar("q") ** 2 + b * rfvar("t")
    assert_step_matches_the_loop(flow._loop_fn((expr,), ("q", "t")),
                                 scalar_reference_bind(expr),
                                 (q,), t, h, (), rtol, atol)


def test_generated_step_matches_the_loop_at_edge_values():
    for chart in flow.atlas.CHARTS:
        for y, z, h in ((1e100, 1.0, 0.1), (1e30, 1e30, -0.1),
                        (math.inf, 0.0, 0.1), (math.nan, 1.0, 0.1),
                        (-0.0, 0.0, 1e-300), (1e-300, -0.0, 1e-300)):
            assert_step_matches_the_loop(flow._chart_loop(chart),
                                         chart_reference_bind(chart),
                                         (y, z), 0.0, h, (0.25,), 1e-10,
                                         1e-12, final=True)


# ---------------------------------------------------------------------------
# the generated loop against the step-by-step driver it replaced, bit for bit


def _adaptive(stepper, u0, t0, t1, config, on_accept=None, stats=None,
              budget=flow.MAX_STEPS, h0=None, end=None):
    """The step-by-step driver that the generated loop replaced: drive a
    system from t0 to t1 with PI step control, one step call at a time.

    ``stepper()`` returns a bound ``(field, step)`` pair; it is read at
    the start and again whenever on_accept replaces the state (chart
    switching hooks in there), which it must do with a new object.
    stats, when given, is a StepStats that receives the counts, also when
    the run fails.  ``budget`` is the step budget and ``h0``, when given,
    the first step.  ``end``, when given, is a list that receives the
    next step h and the PI memory err_prev, also when the run fails; the
    controller updates them before on_accept is called.

    The first stage is reused (FSAL): after a rejected step u and t are
    unchanged, and after an accepted step that on_accept left alone the
    step's last stage is the field at the new state.  Each step therefore
    costs six field evaluations, plus one at the start, after a replaced
    state and after an OverflowError."""
    isfinite = math.isfinite
    field, step = stepper()
    direction = 1.0 if t1 > t0 else -1.0
    u, t = u0, t0
    h = direction * min(flow.H_INIT, flow.H_MAX, abs(t1 - t0)) \
        if h0 is None else h0
    err_prev = 1.0
    steps = accepted = forced = evals = 0
    rej_error = rej_overflow = rej_non_finite = 0
    h_min, h_max = math.inf, 0.0
    k1 = None
    try:
        while (t1 - t) * direction > 0:
            steps += 1
            if steps > budget:
                raise StepFailure("step budget exhausted")
            floor = abs(t) if abs(t) > 1.0 else 1.0
            final_step = (t + h - t1) * direction >= 0
            if final_step:
                h = t1 - t
            elif abs(h) < 1e-14 * floor:
                # a final step may be below the floor: the span is that short
                raise StepFailure("step size underflow")
            if not all(map(isfinite, u)):
                raise StepFailure("state became non-finite")
            try:
                if k1 is None:
                    evals += 1
                    k1 = field(u, t)
                evals += 6
                u_new, norm, k7 = step(u, t, h, k1)
            except OverflowError:
                k1 = None
                rej_overflow += 1
                h = direction * abs(h) * 0.2
                continue
            if not isfinite(norm):
                rej_non_finite += 1
                h = direction * abs(h) * 0.2
                continue
            if norm <= 1.0 or abs(h) <= 1e-13 * floor:
                if norm > 1.0:
                    forced += 1
                t = t1 if final_step else t + h
                u = u_new
                accepted += 1
                h_min = min(h_min, abs(h))
                h_max = max(h_max, abs(h))
                fac = 0.9 * norm ** -0.14 * err_prev ** 0.08 if norm > 0 \
                    else 5.0
                err_prev = max(norm, 1e-10)
                h = direction * min(abs(h) * min(5.0, max(0.2, fac)),
                                    flow.H_MAX)
                if on_accept is not None:
                    u = on_accept(u, t)
                if u is not u_new:
                    field, step = stepper()
                    k1 = None
                else:
                    k1 = None if final_step else k7
            else:
                rej_error += 1
                fac = max(0.2, 0.9 * norm ** -0.2)
                h = direction * min(abs(h) * min(5.0, max(0.2, fac)),
                                    flow.H_MAX)
    finally:
        if end is not None:
            end[:] = h, err_prev
        if stats is not None:
            stats.field_evals += evals
            stats.accepted += accepted
            stats.rejected_error += rej_error
            stats.rejected_overflow += rej_overflow
            stats.rejected_non_finite += rej_non_finite
            stats.forced += forced
            stats.h_min = min(stats.h_min, h_min)
            stats.h_max = max(stats.h_max, h_max)
    return u


def ref_integrate(c, initial, t1, config=IntegratorConfig(),
                  bind_for=chart_reference_bind):
    """flow.integrate as it was on the step-by-step driver: the switch
    test runs in a callback after every accepted step.  ``bind_for(chart)``
    gives the chart's reference ``bind``."""
    traj = flow.Trajectory(c=float(c))
    traj.states.append(initial)
    record = traj.states.append
    chart_box = [initial.chart]
    cf = float(c)
    threshold = config.switch_threshold
    chart_steps = traj.stats.chart_steps

    def stepper():
        return bind_for(chart_box[0])(config.rtol, config.atol, c)

    def on_accept(u, t):
        y, z = u
        cur = chart_box[0]
        chart_steps[cur] = chart_steps.get(cur, 0) + 1
        if max(abs(y), abs(z)) > threshold:
            target = ref_best_chart(cur, y, z, t, c)
            if target != cur:
                y, z = transport(cur, target, y, z, t, c)
                traj.switches.append(flow.SwitchEvent(t, cur, target, u[0],
                                                      u[1], y, z))
                chart_box[0] = cur = target
                u = (y, z)
        record(FlowState(cur, y, z, t, cf))
        return u

    _adaptive(stepper, (initial.y, initial.z), initial.t, t1, config,
              on_accept, traj.stats)
    return traj


class Crossed(Exception):
    pass


def ref_run_loop(stepper, u, t0, t1, config, threshold=math.inf,
                 budget=flow.MAX_STEPS, h=None):
    """run_loop's answer from the reference driver."""
    stats, records, last, end = StepStats(), [], [u, t0], []

    def on_accept(u, t):
        last[:] = u, t
        if max(map(abs, u)) > threshold:
            raise Crossed
        records.append((None, *u, t, None))
        return u

    try:
        _adaptive(stepper, u, t0, t1, config, on_accept, stats, budget, h,
                  end)
        status = None
    except Crossed:
        status = "switch"
    except StepFailure as exc:
        status = str(exc)
    return (status, tuple(last[0]), last[1], *end, records, stats)


def record_bits(records):
    return [(r[0], bits(r[1:-1])) for r in records]


def note(run):
    """Hypothesis events: how a run ended and what it rejected."""
    status, *_, stats = run
    event(f"status {status}")
    for cause in ("rejected_error", "rejected_overflow",
                  "rejected_non_finite", "forced"):
        if getattr(stats, cause):
            event(cause)


def stats_fields(stats):
    """A StepStats's counts, in slot order, to compare two runs by."""
    return tuple(getattr(stats, name) for name in StepStats.__slots__)


def assert_runs_agree(got, want):
    """Status, final state, next step h, err_prev (both carry the last
    error norm's bits), records and stats, to the bit."""
    (status, u, *ends, records, stats), (status_r, u_r, *ends_r, records_r,
                                         stats_r) = got, want
    assert (status, bits(u), bits(ends)) == (status_r, bits(u_r),
                                             bits(ends_r))
    assert record_bits(records) == record_bits(records_r)
    assert stats_fields(stats) == stats_fields(stats_r)


def outcome_of(fn, *args):
    """The trajectory, or the type and message of the FlowError."""
    try:
        return fn(*args)
    except flow.FlowError as exc:
        return type(exc), str(exc)


def assert_trajectories_agree(got, want):
    if not isinstance(want, flow.Trajectory):
        assert got == want
        return
    assert [(s.chart, bits(s[1:])) for s in got.states] == \
        [(s.chart, bits(s[1:])) for s in want.states]
    assert [(e.from_chart, e.to_chart, bits(e[3:] + (e.t,)))
            for e in got.switches] == \
        [(e.from_chart, e.to_chart, bits(e[3:] + (e.t,)))
         for e in want.switches]
    assert stats_fields(got.stats) == stats_fields(want.stats)


big = st.sampled_from([1e150, -1e200, 1e300, 1.7e308, -0.0, math.inf,
                       math.nan])
starts = st.one_of(moderate, big)
spans = st.one_of(st.floats(-1.5, 1.5), st.sampled_from([1e-15, -1e-300]))
# at 1e-100 steps are forced at the step-size floor; at 1e-300 the norm
# overflows
loose = st.one_of(st.floats(1e-12, 1e-4), st.sampled_from([1e-100, 1e-300]))
budgets = st.one_of(st.just(flow.MAX_STEPS), st.integers(1, 40))
one_variable = st.one_of(
    st.builds(lambda a, b: a * rfvar("q") ** 2 + b * rfvar("t"), fracs,
              fracs),
    st.sampled_from([rfvar("q") ** 100,                # overflows
                     rfvar("q") * rfvar("t"),          # non-finite norm
                     RationalFunction.coerce(0)]))     # stays put


# None stands for |q0|: under the zero field the state stays there
thresholds = st.one_of(st.just(math.inf), st.none(), st.floats(1.01, 20.0))


@given(one_variable, starts, moderate, spans, loose, loose, budgets,
       thresholds)
@example(rfvar("q") * rfvar("t"), 1.7e308, 2.0, 1.0, 1e-10, 1e-12,
         flow.MAX_STEPS, math.inf)                     # non-finite norm
@example(RationalFunction.coerce(10 ** 308), 1.797e308, 0.0, 1.0, 1e-10,
         1e-12, flow.MAX_STEPS, math.inf)              # accepted into inf
@example(RationalFunction.coerce(0), -3.0, 0.0, 1.0, 1e-10, 1e-12,
         flow.MAX_STEPS, None)                         # on the threshold
@example(RationalFunction.coerce(0), -0.0, -0.0, -1.0, 1e-10, 1e-12,
         flow.MAX_STEPS, math.inf)                     # -0.0 state and time
# every step overflows, so h falls by 5 until it is below the floor
# 1e-14 * |t0|: at 3.3e-14, a step before it falls below 1e-14
@example(rfvar("q") ** 100, 1e150, -5.0, 1.0, 1e-10, 1e-12, flow.MAX_STEPS,
         math.inf)
# a negative state shrinking in magnitude (q' = q^2 from -1 to -1/2): the
# only case where the error scale max(|u|, |v|) is |u| and not |v|
@example(rfvar("q") ** 2, -1.0, 0.0, 1.0, 1e-6, 1e-12, flow.MAX_STEPS,
         math.inf)
def test_generated_loop_matches_the_driver_in_one_component(
        expr, q, t0, span, rtol, atol, budget, threshold):
    if threshold is None:
        threshold = abs(q)
    bind = flow._loop_fn((expr,), ("q", "t"))
    config = IntegratorConfig(rtol=rtol, atol=atol)
    got = run_loop(bind(rtol, atol), (q,), t0, t0 + span, threshold, budget)
    note(got)
    want = ref_run_loop(lambda: scalar_reference_bind(expr)(rtol, atol),
                        (q,), t0, t0 + span, config, threshold, budget)
    assert_runs_agree(got, want)


@given(st.sampled_from(flow.atlas.CHARTS), starts, starts, moderate,
       moderate, spans, loose, loose, budgets)
def test_generated_loop_matches_the_driver_in_two_components(
        chart, y, z, t0, c, span, rtol, atol, budget):
    config = IntegratorConfig(rtol=rtol, atol=atol)
    got = run_loop(flow._chart_loop(chart)(rtol, atol, c), (y, z), t0,
                   t0 + span, budget=budget)
    note(got)
    want = ref_run_loop(lambda: chart_reference_bind(chart)(rtol, atol, c),
                        (y, z), t0, t0 + span, config, budget=budget)
    assert_runs_agree(got, want)


@settings(max_examples=40)
@given(st.sampled_from(flow.atlas.CHARTS), moderate, moderate, moderate,
       moderate, st.floats(-2.5, 2.5), st.floats(1e-10, 1e-5),
       st.floats(1.5, 10.0))
def test_integrate_matches_the_driver_across_charts(chart, y, z, t0, c, span,
                                                    rtol, threshold):
    config = IntegratorConfig(rtol=rtol, atol=rtol / 100,
                              switch_threshold=threshold)
    start = FlowState(chart, y, z, t0, c)
    got = outcome_of(integrate, c, start, t0 + span, config)
    event(f"{len(got.switches)} switches" if isinstance(got, flow.Trajectory)
          else got[1])
    assert_trajectories_agree(
        got, outcome_of(ref_integrate, c, start, t0 + span, config))


@pytest.mark.parametrize("c,q0,p0,t1", [
    (0.5, 0.0, 0.0, 8.0),          # the README pole demo
    (-1.0, -1.5, 0.0, 10.0),       # the W12 trajectory
    (0.5, 1e200, 0.0, 1.0),        # overflows until h underflows
    (0.5, 0.0, 0.0, 1e-15),        # shorter than the step-size floor
    (0.5, 2e8, 2e8, 1.0),          # on the removed divisor: NoChart
])
def test_integrate_matches_the_driver(c, q0, p0, t1):
    start = FlowState("W1", q0, p0, 0.0, c)
    assert_trajectories_agree(outcome_of(integrate, c, start, t1),
                              outcome_of(ref_integrate, c, start, t1))


def test_riccati_comparison_is_unchanged():
    # the values of the step-by-step driver, to the bit
    worst, drift = flow.riccati_compare(0.0, 1.5, 0.0)
    assert (worst.hex(), drift.hex()) == ("0x1.6780000000000p-39",
                                          "0x0.0p+0")


# ---------------------------------------------------------------------------
# FSAL: first-stage reuse in the loop


@pytest.mark.parametrize("c,q0,p0,t1,rejects", [
    (0.5, 0.0, 0.0, 8.0, False),      # the README pole demo
    (0.5, -1.5, 1.5, 10.0, True),     # a dozen switches
])
def test_fsal_evaluations_per_step(c, q0, p0, t1, rejects):
    # The generated loop evaluates its field inline, where no wrapper can
    # count it, so the reference driver runs a reference step that records
    # every evaluation.  Its trajectory must equal the generated one's, and
    # its count the loop's field_evals.
    fused = integrate(c, FlowState("W1", q0, p0, 0.0, c), t1)
    calls = []

    def recording_bind(chart):
        fn = flow.chart_field(chart)

        def field(u, t, c):
            calls.append((chart, u[0], u[1], t))
            return fn(u[0], u[1], t, c)
        return reference_bind(field)

    traj = ref_integrate(c, FlowState("W1", q0, p0, 0.0, c), t1,
                         bind_for=recording_bind)
    steps = traj.accepted + traj.rejected
    assert traj.switches and steps > 900 and (traj.rejected > 0) == rejects
    assert len(calls) == fused.stats.field_evals == \
        6 * steps + 1 + len(traj.switches)
    assert switch_continuity_ok(traj)
    # a step after a switch starts afresh, at the post-switch state
    firsts = [cur for prev, cur in zip(calls, calls[1:]) if cur[0] != prev[0]]
    assert firsts == [(ev.to_chart, ev.y_post, ev.z_post, ev.t)
                      for ev in traj.switches]
    assert_trajectories_agree(fused, traj)


@pytest.mark.parametrize("q0,tol,field_evals", [
    (1e200, 1e-6, 16),        # the first stage overflows every time
    (0.0, 1e-300, 7 * 16),    # the error norm overflows after all stages
], ids=["first-stage-overflow", "norm-overflow"])
def test_field_evals_of_a_failed_run(q0, tol, field_evals):
    # StepStats counts one for every first stage started afresh and six
    # for every attempt whose first stage returned.  Both runs reject 16
    # steps for an OverflowError and fail; the reference driver's first
    # stages and step calls are counted from outside.
    config = IntegratorConfig(rtol=tol, atol=tol)
    initial = FlowState("W1", q0, 0.0, 0.0, 0.5)
    with pytest.raises(StepFailure, match="underflow") as fused:
        integrate(0.5, initial, 1.0, config)
    started, returned = [], []

    def counting_bind(chart):
        bind = chart_reference_bind(chart)

        def counted(rtol, atol, c):
            field, step = bind(rtol, atol, c)

            def first(u, t):
                started.append(t)
                return field(u, t)

            def attempt(u, t, h, k1):
                returned.append(h)
                return step(u, t, h, k1)
            return first, attempt
        return counted

    with pytest.raises(StepFailure, match="underflow"):
        ref_integrate(0.5, initial, 1.0, config, bind_for=counting_bind)
    stats = fused.value.stats
    assert stats["rejected"]["overflow"] == 16
    assert stats["field_evals"] == len(started) + 6 * len(returned) == \
        field_evals
