"""The three-chart cover: transitions, Hamiltonians, gluing of the
fiberwise symplectic structure, the deformation cocycle, the parameter
involution, and the vanishing-cycle periods.  Identities the `verify`
registry states are read from the session report (``passes``)."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p2lab import atlas
from p2lab.atlas import (
    CHARTS,
    hamiltonian,
    jacobian_det,
    period_c2_minus_c1,
    period_c4_minus_c3,
    transition,
)
from p2lab.exact import Polynomial

PAIRS = (("W1", "W3"), ("W3", "W12"), ("W1", "W12"))


@pytest.mark.parametrize("i,j", PAIRS)
def test_round_trips(i, j, passes):
    assert passes(f"round-trip {i}.{j}")


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


def test_consistency_and_its_controls(passes):
    assert passes("consistency", "control consistency-quartic",
                  "control consistency-reflected")


def test_base_hamiltonian_is_the_phase_hamiltonian():
    h = hamiltonian("W1").poly
    y = Polynomial.variable("y1")
    z = Polynomial.variable("z1")
    t = Polynomial.variable("t")
    c = Polynomial.variable("c")
    half = Fraction(1, 2)
    want = y ** 2 * z + half * z ** 2 + half * t * z - c * y
    assert h == want


def test_other_hamiltonians_are_polynomial():
    h3 = hamiltonian("W3").poly
    h12 = hamiltonian("W12").poly
    assert h3.degree_in("y3") == 4
    assert h12.degree_in("y12") == 4
    # transported Hamiltonians lose all negative powers, which is the
    # whole point of the chart choice
    for h, (vy, vz) in ((h3, ("y3", "z3")), (h12, ("y12", "z12"))):
        assert all(all(e >= 0 for e in exp) for exp in h.terms)


def test_hamilton_field_matches_phase_system(passes):
    assert passes("hamilton-field-base")


@pytest.mark.parametrize("i,j", PAIRS)
def test_symplectic_forms_glue(i, j, passes):
    assert passes(f"glue {i}.{j}")


def test_gluing_detects_perturbation(passes):
    assert passes("control glue-perturbed")


def test_cocycle_values(passes):
    assert passes("cocycle W1.W3", "cocycle W3.W12", "cocycle W1.W12",
                  "cocycle-additivity")


def test_involution_and_controls(passes):
    assert passes("involution", "involution-squared",
                  "control involution-unshifted")


@given(st.fractions(min_value=-6, max_value=6, max_denominator=8))
def test_period_linearity(c):
    assert period_c2_minus_c1(c) == c
    assert period_c4_minus_c3(c) == -1 - c


def test_periods_at_degeneration_points():
    # the cycles that collapse have vanishing period at their special value
    assert period_c2_minus_c1(Fraction(0)) == 0
    assert period_c4_minus_c3(Fraction(-1)) == 0


def test_transition_domain_guard():
    from p2lab.exact import DivisionByZero
    with pytest.raises(DivisionByZero):
        transition("W1", "W3").apply(Fraction(0), Fraction(1),
                                     Fraction(0), Fraction(1))


def test_chart_names():
    assert CHARTS == ("W1", "W3", "W12")
    with pytest.raises(atlas.AtlasError):
        transition("W1", "W9")
