"""The three-chart cover: transitions, Hamiltonians, gluing of the
fiberwise symplectic structure, the deformation cocycle, the parameter
involution (``backlund``'s reflection read on W1), and the vanishing-cycle
periods.  Verdicts the `verify` registry states are asserted once, by
`test_acceptance.test_check`; the zero checks are also run here against
the canonical route they replaced, on the identity and on a perturbed
negative control."""
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p2lab import atlas, backlund, blowup, flow
from p2lab.atlas import (
    CHARTS,
    hamiltonian,
    jacobian_det,
    period_c2_minus_c1,
    period_c4_minus_c3,
    transition,
)
from p2lab.exact import (
    Polynomial, Quotient, RationalFunction, rf, rfvar, rfvars, var_index,
)

PAIRS = (("W1", "W3"), ("W3", "W12"), ("W1", "W12"))
ORDERED_PAIRS = PAIRS + tuple((j, i) for i, j in PAIRS)


# -- the canonical route the zero checks replaced, kept as the reference ----
#
# Composition by canonical substitution (the former Transition.compose),
# the canonical pullback and the involution as the atlas once typed it on
# W1, each compared with ==.

def ref_compose(first, then):
    """The images of ``then`` after ``first``, canonical."""
    b = first.bindings
    return then.y_img.substitute(b), then.z_img.substitute(b)


def ref_round_trip_is_identity(i, j):
    y, z = ref_compose(atlas.transition(i, j), atlas.transition(j, i))
    sy, sz = atlas.CHART_VARS[i]
    return y == rfvar(sy) and z == rfvar(sz)


def ref_consistency_check(quartic_coeff=2, reflect_c_on_direct=False):
    t, c = rfvars("t", "c")
    y3, z3 = rfvars("y3", "z3")
    tail = (2 * c + 1) / y3 + t / y3 ** 2 + rf(quartic_coeff) / y3 ** 4
    step = atlas.Transition("W3", "W12", y3, z3 - tail)
    y, z = ref_compose(atlas.transition("W1", "W3"), step)
    direct = atlas.transition("W1", "W12")
    dy, dz = direct.y_img, direct.z_img
    if reflect_c_on_direct:
        dy = dy.substitute({"c": -1 - c})
        dz = dz.substitute({"c": -1 - c})
    return y == dy and z == dz


def ref_involution_w1(c_img):
    t, y1, z1 = rfvars("t", "y1", "z1")
    return {"y1": -y1, "z1": -(z1 + 2 * y1 ** 2 + t), "c": c_img}


def ref_involution_check(sigma):
    tr13, tr112 = atlas.transition("W1", "W3"), atlas.transition("W1", "W12")
    return (tr112.y_img.substitute(sigma) == -tr13.y_img
            and tr112.z_img.substitute(sigma) == -tr13.z_img
            and tr13.y_img.substitute(sigma) == -tr112.y_img
            and tr13.z_img.substitute(sigma) == -tr112.z_img)


def ref_involution_squared_is_identity(sigma):
    return all(v.substitute(sigma) == rfvar(k) for k, v in sigma.items())


def ref_pullback_one_form(form, tr):
    b = tr.bindings
    (yy, yz, _), (zy, zz, _) = tr.jacobian
    a, bb = form.dy.substitute(b), form.dz.substitute(b)
    return atlas.RelOneForm(a * yy + bb * zy, a * yz + bb * zz)


def ref_ks_cocycle_additivity():
    v13 = ref_pullback_one_form(atlas.ks_cocycle("W1", "W3"),
                                atlas.transition("W12", "W3"))
    return (v13 + atlas.ks_cocycle("W3", "W12")
            - atlas.ks_cocycle("W1", "W12")).is_zero()


def with_perturbed(monkeypatch, name, key, wrap):
    """Make atlas.<name>(*key) return wrap(its value); other calls are
    left as they are."""
    real = getattr(atlas, name)
    monkeypatch.setattr(atlas, name, lambda *a: wrap(real(*a)) if a == key
                        else real(*a))


@pytest.mark.parametrize("i,j", PAIRS)
def test_round_trips(i, j, monkeypatch):
    for a, b in ((i, j), (j, i)):
        assert atlas.round_trip_is_identity(a, b)
        assert ref_round_trip_is_identity(a, b)
    # a defect in either image of the return leg breaks the loop
    bump = rfvar("t") / rfvar(atlas.CHART_VARS[j][0])
    for dy, dz in ((bump, 0), (0, bump)):
        with monkeypatch.context() as m:
            with_perturbed(m, "transition", (j, i),
                           lambda tr: atlas.Transition(
                               tr.source, tr.target, tr.y_img + dy,
                               tr.z_img + dz))
            assert not atlas.round_trip_is_identity(i, j)
            assert not ref_round_trip_is_identity(i, j)


@pytest.mark.parametrize("i,j", PAIRS)
def test_fiberwise_jacobians_are_one(i, j):
    # the registry checks i -> j; the reverse direction is checked here
    assert (jacobian_det(j, i) - 1).is_zero()
    assert str(jacobian_det(j, i)) == "1"


@pytest.mark.parametrize("i,j", PAIRS + tuple((j, i) for i, j in PAIRS))
def test_transition_jacobian_is_declared_once(i, j):
    # one cached tuple of the six partials d(y_img, z_img)/d(sy, sz, t)
    tr = transition(i, j)
    sy, sz = atlas.CHART_VARS[i]
    want = tuple(tuple(img.partial(v) for v in (sy, sz, "t"))
                 for img in (tr.y_img, tr.z_img))
    assert tr.jacobian == want
    assert tr.jacobian is tr.jacobian


nonzero_fracs = st.fractions(min_value=-8, max_value=8,
                             max_denominator=6).filter(lambda x: x != 0)
fracs = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@settings(max_examples=40)
@given(nonzero_fracs, fracs, fracs, fracs)
def test_pointwise_round_trip(y, z, t, c):
    # evaluate the W1 -> W3 -> W1 loop at exact rational points
    fwd = transition("W1", "W3")
    back = transition("W3", "W1")
    y3, z3 = fwd.apply(y, z, t, c)
    assume(y3 != 0)
    y1, z1 = back.apply(y3, z3, t, c)
    assert (y1, z1) == (y, z)


def test_consistency_and_its_controls():
    for kw, want in (({}, True), ({"quartic_coeff": 1}, False),
                     ({"quartic_coeff": Fraction(5, 2)}, False),
                     ({"reflect_c_on_direct": True}, False)):
        assert atlas.consistency_check(**kw) is want, kw
        assert ref_consistency_check(**kw) is want, kw


def test_base_hamiltonian_is_the_phase_hamiltonian():
    h = hamiltonian("W1")
    y = Polynomial.variable("y1")
    z = Polynomial.variable("z1")
    t = Polynomial.variable("t")
    c = Polynomial.variable("c")
    half = Fraction(1, 2)
    want = y ** 2 * z + half * z ** 2 + half * t * z - c * y
    assert h == want


def test_other_hamiltonians_are_polynomial():
    h3 = hamiltonian("W3")
    h12 = hamiltonian("W12")
    assert h3.degree_in("y3") == 4
    assert h12.degree_in("y12") == 4
    # transported Hamiltonians lose all negative powers, which is the
    # whole point of the chart choice
    for h, (vy, vz) in ((h3, ("y3", "z3")), (h12, ("y12", "z12"))):
        assert all(all(e >= 0 for e in exp) for exp in h.terms)


def test_fields_are_derived_once_and_read_by_the_forms(monkeypatch):
    # a chart's own symplectic form reads dH/dy and dH/dz off the cached
    # field; an h_poly override differentiates, as every form did before
    atlas.hamilton_field.cache_clear()
    fields = {chart: atlas.hamilton_field(chart) for chart in CHARTS}
    assert atlas.hamilton_field.cache_info().misses == 3
    for i, j in PAIRS:
        transition(i, j).jacobian        # cached per transition

    def refused(self, name):
        raise AssertionError(f"partial in {name} taken again")
    monkeypatch.setattr(RationalFunction, "partial", refused)
    forms = {chart: atlas.symplectic_form(chart) for chart in CHARTS}
    for i, j in PAIRS:
        atlas.glue_residual(i, j)
    monkeypatch.undo()
    for chart in CHARTS:
        assert atlas.hamilton_field(chart) is fields[chart]
        h = rf(hamiltonian(chart))
        y, z = atlas.CHART_VARS[chart]
        got = forms[chart]
        want = atlas.symplectic_form(chart, hamiltonian(chart))
        for a, b in ((got.dy_dz, want.dy_dz), (got.dy_dt, h.partial(y)),
                     (got.dz_dt, h.partial(z)), (got.dy_dt, want.dy_dt),
                     (got.dz_dt, want.dz_dt)):
            # the same terms in the same order, which compiled code sums in
            assert (list(a.num.terms.items()), list(a.den.terms.items())) == \
                (list(b.num.terms.items()), list(b.den.terms.items()))


def terms(u):
    """A quotient's numerator and denominator terms, in order."""
    return list(u.num.terms.items()), list(u.den.terms.items())


def fresh_pulled_field(tr):
    """The target chart's field substituted afresh, as the gluing and the
    chain rule each did before the transition kept it."""
    b = tr.bindings
    return [terms(Quotient.of(f).substitute(b))
            for f in atlas.hamilton_field(tr.target)]


@pytest.mark.parametrize("i,j", ORDERED_PAIRS)
def test_pulled_field_is_derived_once_per_transition(i, j):
    tr = transition(i, j)
    assert tr.pulled_field is tr.pulled_field
    assert [terms(u) for u in tr.pulled_field] == fresh_pulled_field(tr)
    # a replaced transition derives its own from its own images
    bump = rfvar("t") / rfvar(atlas.CHART_VARS[i][0])
    other = atlas.Transition(tr.source, tr.target, tr.y_img + bump, tr.z_img)
    assert [terms(u) for u in other.pulled_field] == fresh_pulled_field(other)
    assert fresh_pulled_field(other) != fresh_pulled_field(tr)


def test_gluing_and_chain_rule_read_the_pulled_field(monkeypatch):
    for i, j in ORDERED_PAIRS:
        transition(i, j).pulled_field

    def refused(self, bindings):
        raise AssertionError("substituted again")
    monkeypatch.setattr(Quotient, "substitute", refused)
    for i, j in PAIRS:
        assert atlas.glue_residual(i, j).is_zero()
    for i, j in ORDERED_PAIRS:
        assert flow.field_consistency_symbolic(i, j)
    # an override on the target chart takes the generic pullback
    with pytest.raises(AssertionError, match="substituted again"):
        atlas.glue_residual("W1", "W3",
                            h_override={"W3": hamiltonian("W3")})
    monkeypatch.undo()
    for i, j in PAIRS:
        h = hamiltonian(j)
        assert atlas.glue_residual(i, j, h_override={j: h}).is_zero()
        bumped = h + Polynomial.variable(atlas.CHART_VARS[j][0])
        assert not atlas.glue_residual(i, j, h_override={j: bumped}).is_zero()


# -- the W12 chart read off the blow-up chain --------------------------------

def chain_images():
    """W12's coordinates as functions of W3's, and W3's as functions of
    W12's, composed from the fibre inversion W4 -> W3 of
    ``atlas.transition`` and the blow-ups centred at ``blowup._CENTERS``,
    with the inversion v8 = 1/z8 before the fifth."""
    inversion = transition("W4", "W3")

    def glue(y, z):
        # y3 = y4, z3 = 1/z4
        b = dict(zip(atlas.CHART_VARS["W4"], (y, z)))
        return tuple(f.substitute(b) for f in (inversion.y_img,
                                                inversion.z_img))

    y3, z3 = rfvars("y3", "z3")
    assert glue(*glue(y3, z3)) == (y3, z3)   # so it is W3 -> W4 as well
    # W3 -> W12: each blow-up takes z_next = (z_prev - center) / y
    y, z = glue(y3, z3)
    for k, center in enumerate(blowup._CENTERS):
        if k == 4:
            z = 1 / z
        z = (z - rf(center)) / y
    forward = (y, z)
    # W12 -> W3: z_prev = center + y * z_next, back down the chain
    y, z = rfvars("y12", "z12")
    for k in reversed(range(len(blowup._CENTERS))):
        z = rf(blowup._CENTERS[k]) + y * z
        if k == 4:
            z = 1 / z
    return forward, glue(y, z)


@pytest.mark.parametrize("i,j", [("W2", "W1"), ("W4", "W3")])
def test_fibre_inversions_are_involutions(i, j):
    # pulling the images through themselves gives the identity
    tr = transition(i, j)
    b = dict(zip(atlas.CHART_VARS[i], (tr.y_img, tr.z_img)))
    assert tuple(f.substitute(b) for f in (tr.y_img, tr.z_img)) == \
        tuple(rfvar(v) for v in atlas.CHART_VARS[i])


def test_w12_chart_is_the_blow_up_chain():
    forward, backward = chain_images()
    for tr, images in ((transition("W3", "W12"), forward),
                       (transition("W12", "W3"), backward)):
        assert images == (tr.y_img, tr.z_img), (tr.source, tr.target)
    # W1 -> W12 through W1 -> W3, and W12 -> W1 through W3 -> W1
    b13 = transition("W1", "W3").bindings
    tr = transition("W1", "W12")
    assert tuple(f.substitute(b13) for f in forward) == (tr.y_img, tr.z_img)
    b123 = {"y3": backward[0], "z3": backward[1]}
    back, tr = transition("W3", "W1"), transition("W12", "W1")
    assert (back.y_img.substitute(b123), back.z_img.substitute(b123)) == \
        (tr.y_img, tr.z_img)


def test_cocycle_values(monkeypatch):
    # the unreduced pullback canonicalizes to the canonical one
    for i, j in PAIRS:
        form = atlas.ks_cocycle(i, j)
        for tr in (transition(k, j) for k in CHARTS if k != j):
            got = atlas.pullback_one_form(form, tr)
            want = ref_pullback_one_form(form, tr)
            assert (got.dy.canonical(), got.dz.canonical()) == (want.dy,
                                                                 want.dz)
    assert atlas.ks_cocycle_additivity() and ref_ks_cocycle_additivity()
    # a defect in one value breaks additivity under both routes
    bump = atlas.RelOneForm(rf(0), 1 / rfvar("y12"))
    with_perturbed(monkeypatch, "ks_cocycle", ("W3", "W12"),
                   lambda v: v + bump)
    assert not atlas.ks_cocycle_additivity()
    assert not ref_ks_cocycle_additivity()


def test_involution_and_controls(monkeypatch):
    # backlund's reflection read on W1 is the substitution the atlas typed
    c = rfvar("c")
    assert backlund._reflection_on_w1() == ref_involution_w1(-(c + 1))
    for c_img, want in ((-(c + 1), True), (-c, False), (-c - 2, False)):
        sigma = ref_involution_w1(c_img)
        assert backlund._reflection_on_w1(c_img) == sigma
        assert backlund.involution_check(c_img) is want
        assert ref_involution_check(sigma) is want
    sigma = ref_involution_w1(-(c + 1))
    assert backlund.involution_squared_is_identity()
    assert ref_involution_squared_is_identity(sigma)
    # a map that also doubles y1 is not an involution, under either route
    real = backlund.phase_reflection()
    doubled = backlund.PhaseMap(real.name, 2 * real.q_img, real.p_img,
                                real.c_img)
    monkeypatch.setattr(backlund, "phase_reflection", lambda: doubled)
    assert backlund._reflection_on_w1() == {**sigma, "y1": 2 * sigma["y1"]}
    assert not backlund.involution_squared_is_identity()
    assert not ref_involution_squared_is_identity({**sigma,
                                                   "y1": 2 * sigma["y1"]})


@given(st.fractions(min_value=-6, max_value=6, max_denominator=8))
def test_period_linearity(c):
    assert period_c2_minus_c1(c) == c
    assert period_c4_minus_c3(c) == -1 - c


def test_periods_at_degeneration_points():
    # the cycles that collapse have vanishing period at their special value
    assert period_c2_minus_c1(Fraction(0)) == 0
    assert period_c4_minus_c3(Fraction(-1)) == 0


def per_call_period_c2_minus_c1(c0):
    """period_c2_minus_c1 as it was before the end points were derived
    once per process: the whole residue derivation, self-checks included,
    run again for every c0."""
    c0 = Fraction(c0)
    t, c = rfvars("t", "c")
    y3, z3 = rfvars("y3", "z3")
    y4, z4 = rfvars("y4", "z4")
    Y, z = rfvars("Y", "z")

    # dy3^dz3 in W4 coordinates: y3 = y4, z3 = 1/z4
    j34 = ((y4).partial("y4") * (1 / z4).partial("z4")
           - (y4).partial("z4") * (1 / z4).partial("y4"))
    if j34 != -1 / z4 ** 2:
        raise atlas.AtlasError("dy3^dz3 must be -(1/z4^2) dy4^dz4")

    # substitute y4 = Y z, z4 = z; the Jacobian multiplies the coefficient
    sub = {"y4": Y * z, "z4": z}
    jblow = ((Y * z).partial("Y") * z.partial("z")
             - (Y * z).partial("z") * z.partial("Y"))
    coeff = j34.substitute(sub) * jblow
    if coeff * z != -1:
        raise atlas.AtlasError("form must be -(1/z) dY^dz")

    c1_eq = rf(Polynomial.variable("y4")).substitute(sub)          # first section
    c2_eq = (Polynomial.variable("y4") - Polynomial.variable("c")
             * Polynomial.variable("z4"))
    c2_eq = rf(c2_eq).substitute(sub)                              # second section
    zi = var_index("z")
    ends = []
    for eq in (c1_eq, c2_eq):
        num = eq.num
        k = min(e[zi] for e in num.terms)  # exceptional factor off the strict transform
        stripped = Polynomial({e[:zi] + (e[zi] - k,) + e[zi + 1:]: q
                               for e, q in num.terms.items()})
        # linear in Y: root = -constant/lead
        lead = stripped.coeff_in("Y", 1)
        const = stripped - Polynomial.variable("Y") * lead
        root = rf(-const) / rf(lead)
        ends.append(root.eval_fractions({"c": c0}))
    return ends[1] - ends[0]


def test_period_ends_match_the_per_call_derivation():
    # on every c of the benchmark's periods commands, from a cold cache
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    atlas._period_ends.cache_clear()
    for c in workloads.PERIOD_C:
        assert period_c2_minus_c1(c) == per_call_period_c2_minus_c1(c), c
        assert period_c4_minus_c3(c) == per_call_period_c2_minus_c1(-1 - c), c
    assert atlas._period_ends.cache_info().misses == 1


def test_transition_domain_guard():
    from p2lab.exact import DivisionByZero
    with pytest.raises(DivisionByZero):
        transition("W1", "W3").apply(Fraction(0), Fraction(1),
                                     Fraction(0), Fraction(1))


def test_chart_names():
    assert CHARTS == ("W1", "W3", "W12")
    with pytest.raises(atlas.AtlasError):
        transition("W1", "W9")
