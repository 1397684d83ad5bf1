"""The blow-up engine: curve transforms through the eight centers,
derived divisor classes, and reproduction of the stated intersection
numbers from nothing but defining equations.  Verdicts the `verify`
registry states are asserted once, by `test_acceptance.test_check`."""
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2lab import atlas, backlund, blowup, exact, lattice
from p2lab.blowup import (
    CurveSpec,
    NotSquarefree,
    RegimeSplit,
    chain_trace,
    curve_specs,
    engine_classes,
    multiplicities,
)
from p2lab.exact import NVARS, Polynomial, rf, rfvar, var_index


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


# the chart changes the engine reads, as (source, target): each binds the
# source chart's variables to functions of the target chart's
CHART_CHANGES = (("W1", "W2"), ("W3", "W1"), ("W3", "W4"), ("W1", "W4"))


def canonical(bindings):
    return {v: e.canonical() for v, e in bindings.items()}


@pytest.mark.parametrize("regime", lattice.REGIMES)
def test_chart_changes_are_built_once_and_compose(regime):
    # each change the atlas declares is its transition back, with c set to
    # the regime's value; W1 -> W4 is the binding it replaced, and W3 -> W1
    # followed by W1 -> W4 is W3 -> W4.  The bindings are unreduced
    # quotients, compared by their canonical forms
    cval = blowup.REGIME_C[regime]
    at = {} if cval is None else {"c": rf(cval)}
    for source, target in CHART_CHANGES[:3]:
        tr = atlas.transition(target, source)
        assert canonical(blowup._bindings(source, target, regime)) == {
            v: e.substitute(at) for v, e in tr.bindings.items()}
    to_w4 = blowup._bindings("W1", "W4", regime)
    assert blowup._bindings("W1", "W4", regime) is to_w4
    with pytest.raises(TypeError):
        to_w4["y1"] = rf(1)
    c = rf(blowup._specialize(Polynomial.variable("c"), regime))
    y4, z4 = rfvar("y4"), rfvar("z4")
    assert canonical(to_w4) == {"y1": 1 / y4, "z1": y4 * (c * z4 - y4) / z4}
    composed = {v: e.substitute(to_w4).canonical()
                for v, e in blowup._bindings("W3", "W1", regime).items()}
    assert composed == canonical(blowup._bindings("W3", "W4", regime))


def test_chart_changes_take_no_gcd(monkeypatch):
    # each binding is a numerator over a monomial, built with no canonical
    # arithmetic; the atlas's transitions it reads are canonical, so they
    # are built before gcds are refused
    for i, j in (("W2", "W1"), ("W1", "W3"), ("W4", "W3"), ("W3", "W1")):
        atlas.transition(i, j)

    def refuse(a, b):
        raise AssertionError("a chart change took a gcd")
    monkeypatch.setattr(exact, "poly_gcd", refuse)
    blowup._bindings.cache_clear()
    for regime in lattice.REGIMES:
        for source, target in CHART_CHANGES:
            for v, e in blowup._bindings(source, target, regime).items():
                assert len(e.den.terms) == 1, (source, target, v)


def test_section_class_is_boundary_anchor():
    assert blowup.section_class() == lattice.named_classes()["D0"]


def test_regime_split_errors():
    # each degeneration shows up as the defining polynomial factoring
    # with a chart-variable component; the engine refuses to guess
    for name, regime in (("C2", "c=0"), ("C5", "c=0"), ("C6", "c=-1")):
        with pytest.raises(RegimeSplit):
            chain_trace(curve_specs(regime)[name], regime)


UNKNOWN_REGIME_CALLS = {
    "curve_specs": lambda: curve_specs("bogus"),
    "engine_classes": lambda: engine_classes("bogus"),
    "verify_intersection_table":
        lambda: blowup.verify_intersection_table("bogus"),
    "stated_intersections": lambda: blowup.stated_intersections("bogus"),
    "chain_trace": lambda: chain_trace(curve_specs()["C1"], "c=1"),
    "base_class": lambda: blowup.base_class(curve_specs()["C5"], "c=1"),
}


@pytest.mark.parametrize("call", UNKNOWN_REGIME_CALLS.values(),
                         ids=list(UNKNOWN_REGIME_CALLS))
def test_an_unknown_regime_is_a_blowup_error(call):
    # one lookup of the regime's c, not a raw KeyError, and never the
    # generic specs in silence
    with pytest.raises(blowup.BlowupError, match="unknown regime"):
        call()


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


# -- the chain's substitutions against the tuple route ------------------------
#
# The tuple route unpacks the public ``terms`` view (exponent tuples and
# Fraction coefficients) and repacks its result through ``Polynomial(...)``.


def tuple_strip_var(p, name):
    i = var_index(name)
    if p.is_zero():
        return p, 0
    k = min(e[i] for e in p.terms)
    if k == 0:
        return p, 0
    stripped = Polynomial({e[:i] + (e[i] - k,) + e[i + 1:]: q for e, q in p.terms.items()})
    return stripped, k


def tuple_vanishing_order(p, yname, zname):
    iy, iz = var_index(yname), var_index(zname)
    return min(e[iy] + e[iz] for e in p.terms)


def tuple_blow_up(p, yname, zname, ny, nz):
    iy, iz, jy, jz = (var_index(v) for v in (yname, zname, ny, nz))
    out = {}
    for e, q in p.terms.items():
        e2 = list(e)
        e2[iy] = e2[iz] = 0
        e2[jy] = e[iy] + e[iz]
        e2[jz] = e[iz]
        out[tuple(e2)] = q
    return Polynomial(out)


def tuple_invert_z8(p):
    iz = var_index("z8")
    iv = var_index("v8")
    d = max(e[iz] for e in p.terms)
    r = min(e[iz] for e in p.terms)
    out = {}
    for e, q in p.terms.items():
        e2 = list(e)
        e2[iz] = 0
        e2[iv] = d - e[iz]
        out[tuple(e2)] = q
    new = Polynomial(out)
    new, extra = tuple_strip_var(new, "v8")
    if extra:
        raise blowup.BlowupError("inversion must not leave a spurious v8 factor")
    return new, r


def polynomials(names, min_size=0):
    """Random polynomials in the named variables, with int coefficients up
    to 10**6 in size and small Fractions."""
    idx = [var_index(n) for n in names]

    def build(terms):
        out = {}
        for exps, q in terms.items():
            e = [0] * NVARS
            for i, k in zip(idx, exps):
                e[i] = k
            out[tuple(e)] = q
        return Polynomial(out)
    coeff = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                      st.fractions(max_denominator=12)).filter(bool)
    return st.dictionaries(st.tuples(*[st.integers(0, 5)] * len(names)), coeff,
                           min_size=min_size, max_size=7).map(build)


def as_listed(p):
    """p's terms in its own order, so a result must match term by term."""
    return list(p.terms.items())


@given(polynomials(("y4", "z4", "t", "c")), st.sampled_from(("y4", "z4", "c")),
       st.integers(0, 3))
def test_strip_var_matches_the_tuple_route(p, name, j):
    p = p * Polynomial.variable(name) ** j
    q, k = p.strip_var(name)
    q_ref, k_ref = tuple_strip_var(p, name)
    assert (as_listed(q), k) == (as_listed(q_ref), k_ref)
    assert q == q_ref


def chain_step(k):
    """Blow-up k + 1's chart (y, z), v8 for z8, its new (y, z) and its
    center with c symbolic."""
    y, z = blowup._CHAIN_CHARTS[k]
    return ((y, "v8" if z == "z8" else z), blowup._CHAIN_CHARTS[k + 1],
            blowup._CENTERS[k])


def step_polynomials(k):
    """k and a polynomial in blow-up k + 1's (y, z, t, c)."""
    return st.tuples(st.just(k), polynomials((*chain_step(k)[0], "t", "c"),
                                             min_size=1))


@given(st.integers(0, 7).flatmap(step_polynomials))
def test_blow_up_matches_the_tuple_route(args):
    k, p = args
    (y, z), (ny, nz), center = chain_step(k)
    # the prepared step blows up the center: move the origin there first
    got = p.subs_poly({z: Polynomial.variable(z) - center}).subs_poly(
        blowup._blow_ups("generic")[k])
    want = tuple_blow_up(p, y, z, ny, nz)
    assert as_listed(got) == as_listed(want) and got == want
    # the power of ny that factors out is the curve's order at the origin
    assert got.strip_var(ny)[1] == tuple_vanishing_order(p, y, z)


@pytest.mark.deep
@pytest.mark.parametrize("regime", lattice.REGIMES)
@given(polynomials(("y4", "z4", "t", "c"), min_size=1))
def test_the_prepared_blow_ups_match_the_two_step_route(regime, p4):
    # the route each prepared step replaced: translate z by the center,
    # then blow up the origin by y = ny, z = ny * nz; every step, on the
    # drawn curve moved into its chart
    for k, blow_up in enumerate(blowup._blow_ups(regime)):
        (y, z), (ny, nz), center = chain_step(k)
        p = p4.subs_poly({"y4": Polynomial.variable(y),
                          "z4": Polynomial.variable(z)})
        center = blowup._specialize(center, regime)
        translated = p.subs_poly({z: Polynomial.variable(z) + center}) \
            if center else p
        nyp = Polynomial.variable(ny)
        want = translated.subs_poly({y: nyp, z: nyp * Polynomial.variable(nz)})
        got = p.subs_poly(blow_up)
        assert got == want, k
        assert got.strip_var(ny)[1] == want.strip_var(ny)[1], k
        if not center:
            assert as_listed(got) == as_listed(want), k


def invert_z8(p):
    """The chain's inversion: strip the z8 factor, then clear z8 = 1/v8."""
    q, r = p.strip_var("z8")
    return blowup._numerator_after(q, blowup._INVERSION), r


@given(polynomials(("y8", "z8", "t", "c"), min_size=1))
def test_invert_z8_matches_the_tuple_route(p):
    q, r = invert_z8(p)
    q_ref, r_ref = tuple_invert_z8(p)
    assert (as_listed(q), r) == (as_listed(q_ref), r_ref)


@pytest.mark.parametrize("regime", lattice.REGIMES)
def test_inversion_leaves_no_v8_factor_on_the_engine_curves(monkeypatch, regime):
    # z8^k goes to v8^(d - k), so the terms of top z8 power keep v8^0
    inverted = []

    def recorded(poly, bindings):
        q = numerator_after(poly, bindings)
        if bindings is blowup._INVERSION:
            inverted.append((poly, q))
        return q
    numerator_after = blowup._numerator_after
    monkeypatch.setattr(blowup, "_numerator_after", recorded)
    for spec in curve_specs(regime).values():
        try:
            chain_trace(spec, regime)
        except RegimeSplit:
            continue
    assert inverted
    for p, q in inverted:
        assert p.strip_var("z8") == (p, 0)
        assert q.strip_var("v8") == (q, 0)
        assert q.degree_in("v8") == p.degree_in("z8")


# -- the chain against the substitution it replaced --------------------------


@mock.patch.object(Polynomial, "strip_var", tuple_strip_var)
def substitution_chain_trace(spec, regime="generic"):
    """chain_trace as it ran before the monomial map: each step took the
    local order from a translated copy of the curve, then substituted
    z = center + y' * z' into the untranslated one.  It strips, inverts
    and reads orders by the tuple route, also inside the engine's curve
    check and transport to W4, so it shares no monomial map with the
    engine."""
    p0 = blowup._specialize(spec.poly, regime)
    chart_vars = {"W1": ("y1", "z1"), "W3": ("y3", "z3"),
                  "W4": ("y4", "z4")}[spec.chart]
    blowup._check_curve_ok(p0, regime, chart_vars)
    w4 = blowup.to_w4(spec, regime)
    if w4 is None:
        return blowup.ChainTrace(None, (), 0)
    cur, steps, dropped = w4, [], 0
    for k in range(8):
        (y_cur, z_cur), (ny, nz), center = chain_step(k)
        if k == 4:
            cur, dropped = tuple_invert_z8(cur)
            if cur.is_constant():
                steps.extend(blowup.ChainStep(j + 1, ("", ""), 0, cur)
                             for j in range(k, 8))
                break
        center = blowup._specialize(center, regime)
        local = cur.subs_poly({z_cur: Polynomial.variable(z_cur) + center})
        expected = tuple_vanishing_order(local, y_cur, z_cur)
        nyp, nzp = Polynomial.variable(ny), Polynomial.variable(nz)
        cur = cur.subs_poly({y_cur: nyp, z_cur: center + nyp * nzp})
        cur, m = tuple_strip_var(cur, ny)
        assert m == expected
        steps.append(blowup.ChainStep(k + 1, (ny, nz), m, cur))
        if cur.is_constant():
            steps.extend(blowup.ChainStep(j + 1, ("", ""), 0, cur)
                         for j in range(k + 1, 8))
            break
    return blowup.ChainTrace(w4, tuple(steps), dropped)


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


def test_a_warm_round_of_chain_traces_builds_no_substitution(monkeypatch):
    # the chart changes, blow-ups and inversion are each prepared once per
    # regime, so a second round over every regime's curves builds none
    def traces():
        for regime in lattice.REGIMES:
            for spec in curve_specs(regime).values():
                try:
                    chain_trace(spec, regime)
                except RegimeSplit:
                    continue
    traces()
    built = []
    init = exact.Substitution.__init__

    def counted(self, bindings):
        built.append(bindings)
        init(self, bindings)
    monkeypatch.setattr(exact.Substitution, "__init__", counted)
    traces()
    assert built == []


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


@pytest.mark.xfail(raises=exact.ExactError, strict=True,
                   reason="_prs_gcd's pseudo-remainders pass the degree "
                          "ceiling (total degree 144 exceeds 127)")
def test_class_of_the_negation_image_of_c6():
    # C6 pulled through the phase negation (q, p, c) -> (q - c/p, p, -c),
    # as a W1 curve; the squarefree test's gcd raises in _prs_gcd
    m = backlund.phase_negation()
    y1, z1, c = (rf(Polynomial.variable(v)) for v in ("y1", "z1", "c"))
    at_w1 = {"q": y1, "p": z1, "c": c}
    image = rf(curve_specs()["C6"].poly).substitute(
        {"y1": m.q_img.substitute(at_w1), "z1": m.p_img.substitute(at_w1),
         "c": m.c_img.substitute(at_w1)})
    assert str(image.num) == (
        "2*y1^3*z1^3 + t*y1*z1^3 - 6*c*y1^2*z1^2 + y1*z1^4 - t*c*z1^2 "
        "+ 6*c^2*y1*z1 - 2*c*z1^3 - 2*c^3 + z1^3")
    blowup.total_class(CurveSpec("img", "W1", image.num), "generic")


@pytest.mark.parametrize("fn", [chain_trace, blowup.total_class],
                         ids=["chain_trace", "total_class"])
def test_a_curve_on_an_unknown_chart_raises_blowup_error(fn):
    # as base_class does, not a KeyError from the chart table
    with pytest.raises(blowup.BlowupError, match="from chart W9"):
        fn(CurveSpec("X", "W9", Polynomial.variable("y1")))
