"""The blow-up engine: curve transforms through the eight centers,
derived divisor classes, and reproduction of the stated intersection
numbers from nothing but defining equations.  Verdicts the `verify`
registry states are asserted once, by `test_acceptance.test_check`."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2lab import blowup, lattice
from p2lab.blowup import (
    CurveSpec,
    NotSquarefree,
    RegimeSplit,
    chain_trace,
    curve_specs,
    engine_classes,
    multiplicities,
)
from p2lab.exact import Polynomial, rf


def test_section_multiplicities():
    spec = curve_specs()["S"]
    tr = chain_trace(spec)
    assert tr.multiplicities == (1, 1, 1, 1, 0, 0, 0, 0)
    # the section leaves the last chart through the fiber-coordinate
    # inversion with a single order of vanishing
    assert tr.dropped_section_power == 1


@pytest.mark.parametrize("name,mults", [
    ("C1", (1, 0, 0, 0, 0, 0, 0, 0)),
    ("C2", (1, 0, 0, 0, 0, 0, 0, 0)),
    ("C4", (1, 1, 1, 1, 1, 1, 1, 0)),
    ("C5", (0, 0, 0, 0, 0, 0, 0, 0)),
    ("C6", (1, 1, 1, 1, 1, 1, 1, 1)),
])
def test_curve_multiplicities(name, mults):
    assert multiplicities(curve_specs()[name]) == mults


def test_engine_agrees_with_registry():
    # the registry compares the classes both sides name; here, that the
    # curves which should be shared are
    for regime in lattice.REGIMES:
        shared = set(engine_classes(regime)) & set(lattice.named_classes(regime))
        split_out = {"c=0": {"C2", "C5"}, "c=-1": {"C6"}}.get(regime, set())
        assert {"S", "f", "C1", "C3", "C4", "C5", "C6"} - split_out <= shared


@pytest.mark.parametrize("regime", lattice.REGIMES)
def test_engine_classes_are_derived_once_and_read_only(regime):
    eng = engine_classes(regime)
    assert engine_classes(regime) is eng
    with pytest.raises(TypeError):
        eng["C1"] = eng["C3"]
    with pytest.raises(TypeError):
        del eng["S"]
    assert engine_classes(regime)["S"] == lattice.DivisorClass.of(S=1)


@pytest.mark.parametrize("regime", lattice.REGIMES)
def test_chart_changes_are_built_once_and_compose(regime):
    # W3 -> W1 followed by W1 -> W4 is the chart change W3 -> W4
    to_w4 = blowup._bindings("W1", "W4", regime)
    assert blowup._bindings("W1", "W4", regime) is to_w4
    with pytest.raises(TypeError):
        to_w4["y1"] = rf(1)
    composed = {v: e.substitute(to_w4)
                for v, e in blowup._bindings("W3", "W1", regime).items()}
    assert composed == dict(blowup._bindings("W3", "W4", regime))


def test_section_class_is_boundary_anchor():
    assert blowup.section_class() == lattice.named_classes()["D0"]


def test_regime_split_errors():
    # each degeneration shows up as the defining polynomial factoring
    # with a chart-variable component; the engine refuses to guess
    for name, regime in (("C2", "c=0"), ("C5", "c=0"), ("C6", "c=-1")):
        with pytest.raises(RegimeSplit):
            chain_trace(curve_specs(regime)[name], regime)


def test_squarefree_guard():
    y3 = Polynomial.variable("y3")
    bad = CurveSpec("doubled", "W3", y3 * y3)
    with pytest.raises(NotSquarefree):
        chain_trace(bad)


def test_stated_table_spot_values():
    rows = {(a, b): v for a, b, v in blowup.stated_intersections("generic")}
    assert rows[("C2", "C4")] == 2
    assert rows[("C1", "D1")] == 1
    assert rows[("C3", "D7")] == 1


def test_degenerate_regime_extra_component():
    # the splitting component is a new -2-curve attached to the graph
    e0 = engine_classes("c=0")
    assert lattice.pair(e0["C2prime"], e0["C2prime"]) == -2
    em = engine_classes("c=-1")
    assert lattice.pair(em["C4prime"], em["C4prime"]) == -2


def test_base_class_degrees():
    specs = curve_specs()
    # the section itself is excluded: its class is a basis element, not
    # a combination the (a, b) bookkeeping applies to
    with pytest.raises(blowup.BlowupError):
        blowup.base_class(specs["S"])
    assert blowup.base_class(specs["C1"]) == (0, 1)
    assert blowup.base_class(specs["C4"]) == (1, 2)
    assert blowup.base_class(specs["C6"]) == (1, 3)


def test_total_class_matches_engine():
    specs = curve_specs()
    eng = engine_classes()
    for name in ("C1", "C4", "C5", "C6"):
        assert blowup.total_class(specs[name]) == eng[name], name


def test_unreduced_numerators_match_the_canonical_route(monkeypatch):
    # the charts' traces from the pair's numerator against the ones from
    # the canonical numerator it replaced
    def traces():
        out = {}
        for regime in lattice.REGIMES:
            for name, spec in curve_specs(regime).items():
                out[regime, name] = (blowup.to_w1(spec, regime)
                                     if spec.chart != "W4" else None,
                                     blowup.to_w4(spec, regime))
                if name != "S":
                    out[regime, name] += blowup.base_class(spec, regime)
        return out

    got = traces()
    monkeypatch.setattr(blowup, "_numerator_after", lambda poly, bindings:
                        rf(poly).substitute(bindings).num)
    assert got == traces()


# -- the chain against the substitution it replaced --------------------------


def substitution_chain_trace(spec, regime="generic"):
    """chain_trace as it ran before the monomial map: each step took the
    local order from a translated copy of the curve, then substituted
    z = center + y' * z' into the untranslated one."""
    p0 = blowup._specialize(spec.poly, regime)
    chart_vars = {"W1": ("y1", "z1"), "W3": ("y3", "z3"),
                  "W4": ("y4", "z4")}[spec.chart]
    blowup._check_curve_ok(p0, regime, chart_vars)
    w4 = blowup.to_w4(spec, regime)
    trace = blowup.ChainTrace(w4_equation=w4)
    if w4 is None:
        return trace
    cval = blowup.REGIME_C[regime]
    c_poly = Polynomial.variable("c") if cval is None else Polynomial.const(cval)
    cur = w4
    for k, (ny, nz, center_fn) in enumerate(blowup._CHAIN):
        y_cur, z_cur = blowup._CHAIN_Y[k], blowup._CHAIN_Z[k]
        if k == 4:
            cur, trace.dropped_section_power = blowup._invert_z8(cur)
            if cur.is_constant():
                trace.steps.extend(blowup.ChainStep(j + 1, ("", ""), 0, cur)
                                   for j in range(k, 8))
                return trace
        center = center_fn(c_poly)
        local = cur.subs_poly({z_cur: Polynomial.variable(z_cur) + center})
        expected = blowup._vanishing_order(local, y_cur, z_cur)
        nyp, nzp = Polynomial.variable(ny), Polynomial.variable(nz)
        cur = cur.subs_poly({y_cur: nyp, z_cur: center + nyp * nzp})
        cur, m = blowup._strip_var(cur, ny)
        assert m == expected
        trace.steps.append(blowup.ChainStep(k + 1, (ny, nz), m, cur))
        if cur.is_constant():
            trace.steps.extend(blowup.ChainStep(j + 1, ("", ""), 0, cur)
                               for j in range(k + 1, 8))
            break
    return trace


def trace_or_error(fn, spec, regime):
    """The trace (W4 equation, steps with their multiplicities and strict
    transforms, dropped section power), or the error's type and message."""
    try:
        return fn(spec, regime)
    except blowup.BlowupError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("regime", lattice.REGIMES)
def test_chain_matches_the_substitution_route(regime):
    for name, spec in curve_specs(regime).items():
        assert trace_or_error(chain_trace, spec, regime) == \
            trace_or_error(substitution_chain_trace, spec, regime), name


def random_curve(chart, terms):
    """z + the sum of q * y^a * z^b * t^d * c^e in the chart's (y, z)."""
    y, z = (Polynomial.variable(chart.replace("W", v)) for v in "yz")
    t, c = Polynomial.variable("t"), Polynomial.variable("c")
    return CurveSpec("random", chart, sum(
        (q * y ** a * z ** b * t ** d * c ** e for q, a, b, d, e in terms), z))


small_curves = st.builds(
    random_curve, st.sampled_from(["W1", "W3"]),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3),
                       st.integers(0, 1), st.integers(0, 1),
                       st.integers(0, 1)), max_size=4))


@settings(max_examples=40, deadline=None)
@given(small_curves, st.sampled_from(lattice.REGIMES))
def test_random_curves_match_the_substitution_route(spec, regime):
    assert trace_or_error(chain_trace, spec, regime) == \
        trace_or_error(substitution_chain_trace, spec, regime)
