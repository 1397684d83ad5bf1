"""Symbolic verification of the solution-level and phase-space symmetry
maps, with the negative controls that show the checks have teeth.
Verdicts the `verify` registry states are asserted once, by
`test_acceptance.test_check`."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2lab import atlas, backlund
from p2lab.backlund import (
    PII,
    PHASE,
    composition_coherence_check,
    identity_map,
    invariant_curve_division,
    negation,
    phase_negation,
    phase_reflection,
    phase_residual,
    phase_translation,
    phi_conjugation_check,
    pii_residual,
    shift_down,
    shift_up,
    sign_flip_only,
    unshifted_reflection,
)
from p2lab.exact import ExactError, Polynomial, rf, rfvar, rfvars


def test_reflection_needs_the_parameter_shift():
    # the registry's control renders the second residual; the first
    # vanishes
    assert phase_residual(unshifted_reflection())[0].is_zero()


def test_negation_pole_guard():
    # composing with anything that kills the momentum lands on the
    # negation's polar locus
    collapse = backlund.PhaseMap("collapse", rfvar("q"), rf(0), rfvar("c"))
    with pytest.raises(backlund.DenominatorVanishes):
        phase_negation().compose(collapse)


small = st.integers(-4, 4)


@settings(max_examples=30)
@given(small, small, small)
def test_derivations_satisfy_leibniz(a, b, k):
    y = rfvar("y")
    yp = rfvar("yp")
    t = rfvar("t")
    f = a * y ** 2 + k * t
    g = b * yp + y * t
    for d in (PII, PHASE):
        # PHASE ignores y/yp but linearity and Leibniz must hold anyway
        assert (d.of(f * g) - (d.of(f) * g + f * d.of(g))).is_zero()
        assert (d.of(f + g) - (d.of(f) + d.of(g))).is_zero()


def test_second_order_reduction():
    # the PII derivation applied twice to y recovers the right-hand side
    y = rfvar("y")
    t = rfvar("t")
    alpha = rfvar("alpha")
    assert (PII.of(PII.of(y)) - (2 * y ** 3 + t * y + alpha)).is_zero()


def test_phase_system_matches_scalar_form():
    # eliminating the momentum from the first-order system yields the
    # scalar second-order equation with alpha = c + 1/2
    q = rfvar("q")
    t = rfvar("t")
    c = rfvar("c")
    qdot = PHASE.of(q)
    qddot = PHASE.of(qdot)
    p = qdot - q ** 2 - t / 2
    rhs = 2 * q ** 3 + t * q + (c + Fraction(1, 2))
    assert (qddot - rhs - (PHASE.of(p) - (-2 * q * p + c)) ).is_zero()


CACHED_MAPS = (shift_up, phase_reflection, phase_negation, phase_translation)


@pytest.mark.parametrize("mk", CACHED_MAPS, ids=lambda mk: mk.__name__)
def test_cached_maps_equal_a_fresh_build(mk):
    # one object per process, equal to the map built afresh, term for term
    fresh = mk.__wrapped__()
    assert mk() is mk()
    assert mk() == fresh
    for name in ("r", "g") if mk is shift_up else ("q_img", "p_img", "c_img"):
        got, want = getattr(mk(), name), getattr(fresh, name)
        assert (list(got.num.terms.items()), list(got.den.terms.items())) == \
            (list(want.num.terms.items()), list(want.den.terms.items()))


def test_a_cold_backlund_suite_composes_the_translation_once(monkeypatch):
    from p2lab import cli
    for mk in CACHED_MAPS:
        mk.cache_clear()
    composed = []
    compose = backlund.PhaseMap.compose
    monkeypatch.setattr(backlund.PhaseMap, "compose",
                        lambda self, other: composed.append(1)
                        or compose(self, other))
    checks = cli.backlund_checks()
    assert all(c["status"] == "pass" for c in checks)
    assert composed == [1]
    assert [mk.cache_info().misses for mk in CACHED_MAPS] == [1, 1, 1, 1]


def test_a_wrong_reflection_fails_its_residual_and_the_involution(monkeypatch):
    # the atlas involution reads phase_reflection, so p -> 2q^2 - p - t
    # (still an involution) breaks both, and the control that prints the
    # reflection's second residual
    from p2lab import cli
    phase_translation()        # composed once, from the true reflection
    t, q, p = rfvars("t", "q", "p")
    real = phase_reflection()
    wrong = backlund.PhaseMap(real.name, real.q_img, 2 * q ** 2 - p - t,
                              real.c_img)
    monkeypatch.setattr(backlund, "phase_reflection", lambda: wrong)
    assert backlund.involution_squared_is_identity()
    failed = [c["id"] for c in cli.backlund_checks() + cli.atlas_checks()
              if c["status"] != "pass"]
    assert failed == ["phase residual phase-reflection",
                      "control unshifted-reflection", "involution"]


def test_translation_denominator_is_the_expected_quadric():
    m = phase_translation()
    den = m.q_img.den
    q = Polynomial.variable("q")
    p = Polynomial.variable("p")
    t = Polynomial.variable("t")
    assert den == 2 * q ** 2 + p + t


def test_invariant_curves():
    # a failed division carries no cofactor
    ok, cof = invariant_curve_division(Polynomial.variable("p"), 1)
    assert not ok and cof is None
    # the registry's curves, and scaled copies, under both routes
    p, q, t = (Polynomial.variable(n) for n in ("p", "q", "t"))
    for f, c0, want in ((p, 0, -2 * q), (p + 2 * q ** 2 + t, -1, 2 * q),
                        (p, 1, None), (3 * p, 0, -2 * q),
                        (Fraction(-1, 2) * (p + 2 * q ** 2 + t), -1, 2 * q),
                        (p + 2 * q ** 2 + t, 0, None)):
        got = invariant_curve_division(f, c0)
        assert got == (want is not None, want)
        assert got == ref_invariant_curve_division(f, c0)


def test_a_float_parameter_is_refused():
    # not read as the binary rational Fraction(0.1)
    with pytest.raises(ExactError, match="as a quotient"):
        invariant_curve_division(Polynomial.variable("p"), 0.1)


# -- the unreduced route against the canonical one --------------------------
#
# The residuals below are the canonical-route code the unreduced route
# replaced, kept verbatim as the reference: every intermediate value goes
# through RationalFunction operations.

def ref_pii_residual(m):
    t = rfvar("t")
    return PII.of(PII.of(m.r)) - 2 * m.r ** 3 - t * m.r - m.g


def ref_phase_residual(m):
    t = rfvar("t")
    r1 = PHASE.of(m.q_img) - (m.q_img ** 2 + m.p_img + t * Fraction(1, 2))
    r2 = PHASE.of(m.p_img) - (-2 * m.q_img * m.p_img + m.c_img)
    return r1, r2


def ref_phi_conjugation_residuals(p_image=None, c_image=None):
    binding = backlund.phase_bindings(p_image, c_image)
    return tuple(PII.of(binding[var]) - img.substitute(binding)
                 for var, img in PHASE.images if var != "t")


def ref_composition_coherence_residuals():
    up, tr = shift_up(), phase_translation()
    binding = backlund.phase_bindings()
    t = rfvar("t")
    q_res = tr.q_img.substitute(binding) - up.r
    p_new = PII.of(up.r) - up.r ** 2 - t * Fraction(1, 2)
    p_res = tr.p_img.substitute(binding) - p_new
    c_res = tr.c_img.substitute(binding) - (up.g - Fraction(1, 2))
    return q_res, p_res, c_res


def ref_invariant_curve_division(f, c0):
    spec = {"c": Polynomial.const(Fraction(c0))}
    f0 = f.subs_poly(spec)
    df0 = PHASE.of(f0).as_polynomial().subs_poly(spec)
    ratio = rf(df0) / rf(f0)
    if ratio.den.is_constant():
        return True, ratio.as_polynomial()
    return False, None


SOLUTION_MAPS = (shift_up, shift_down, negation, identity_map)
PHASE_MAPS = (phase_reflection, phase_negation, phase_translation)


def routed_checks():
    """(name, routed residuals, canonical references, a symmetry?) for
    every check the unreduced route decides, controls included."""
    out = []
    for mk in SOLUTION_MAPS + (sign_flip_only,):
        m = mk()
        out.append((f"pii {m.name}", (pii_residual(m),),
                    (ref_pii_residual(m),), mk is not sign_flip_only))
    for mk in PHASE_MAPS + (unshifted_reflection,):
        m = mk()
        out.append((f"phase {m.name}", phase_residual(m),
                    ref_phase_residual(m), mk is not unshifted_reflection))
    for kw in ({}, {"c_image": rfvar("alpha")}, {"p_image": rfvar("yp")}):
        out.append((f"conjugation {kw}",
                    backlund.phi_conjugation_residuals(**kw),
                    ref_phi_conjugation_residuals(**kw), not kw))
    out.append(("coherence", backlund.composition_coherence_residuals(),
                ref_composition_coherence_residuals(), True))
    return out


def test_routed_residuals_match_the_canonical_route():
    for name, rs, refs, symmetry in routed_checks():
        assert len(rs) == len(refs)
        for r, ref in zip(rs, refs):
            assert r.is_zero() == ref.is_zero(), name
            assert str(r) == str(ref), name
        assert all(r.is_zero() for r in rs) == symmetry, name


phase_monomials = st.tuples(st.integers(-3, 3), st.integers(0, 2),
                            st.integers(0, 2), st.integers(0, 1))


@settings(max_examples=80)
@given(st.lists(phase_monomials, min_size=1, max_size=4),
       st.sampled_from((-1, 0, 1, Fraction(1, 2))), st.integers(1, 2),
       st.integers(1, 3))
def test_invariant_division_matches_the_rf_quotient(terms, c0, n, k):
    # polynomial division against the canonical quotient it replaced, on
    # random curves in (q, p, c) and on powers of the two invariant
    # curves, which divide at their own parameter only.  The random
    # curves leave t out: with it, the reference's gcds reach the heavy
    # tail of the three-variable PRS (seconds per example).
    q, p, t, c = (Polynomial.variable(v) for v in ("q", "p", "t", "c"))
    f = sum((m * q ** a * p ** b * c ** e for m, a, b, e in terms),
            Polynomial.zero())
    for g in (f, k * p ** n, k * (p + 2 * q ** 2 + t) ** n):
        try:
            got = invariant_curve_division(g, c0)
        except backlund.BacklundError:
            continue
        assert got == ref_invariant_curve_division(g, c0)


def _random_point(rng, variables):
    return {v: Fraction(rng.randint(-60, 60), rng.randint(1, 25))
            for v in variables}


def test_schwartz_zippel_backstop():
    """Evaluate each routed residual's unreduced numerator at seeded random
    rational points off its denominator: every numerator of a passing
    check vanishes at every point, and some numerator of each control is
    nonzero at some point.  A nonzero numerator of degree k vanishes at a
    random point of S**n with probability at most k/|S| (Schwartz 1980)."""
    rng = random.Random(20261018)
    checks = [(name, rs, symmetry) for name, rs, _, symmetry in routed_checks()]
    for i, j in (("W1", "W3"), ("W3", "W12"), ("W1", "W12")):
        form = atlas.glue_residual(i, j)
        checks.append((f"glue {i}.{j}", (form.dy_dz, form.dy_dt, form.dz_dt),
                       True))
    bumped = atlas.hamiltonian("W1") + Polynomial.variable("y1")
    form = atlas.glue_residual("W1", "W3", h_override={"W1": bumped})
    checks.append(("glue perturbed", (form.dy_dz, form.dy_dt, form.dz_dt),
                   False))
    controls = 0
    for name, rs, symmetry in checks:
        values = []
        for r in rs:
            variables = set(r.num.variables()) | set(r.den.variables())
            for _ in range(8):
                pt = _random_point(rng, variables)
                while r.den.eval_fractions(pt) == 0:
                    pt = _random_point(rng, variables)
                values.append(r.num.eval_fractions(pt))
        if symmetry:
            assert all(v == 0 for v in values), name
        else:
            controls += 1
            assert any(v != 0 for v in values), name
    assert controls == 5


def test_routed_zero_checks_take_no_gcd(monkeypatch):
    from p2lab import exact
    # building the maps takes gcds; each is built once per process, so
    # the coherence check below reads the ones built here
    solution = [mk() for mk in (shift_up, shift_down, negation, identity_map)]
    phase = [mk() for mk in (phase_reflection, phase_negation,
                             phase_translation)]
    calls = []
    real = exact.poly_gcd
    monkeypatch.setattr(exact, "poly_gcd",
                        lambda a, b: calls.append(1) or real(a, b))
    for m in solution:
        r = pii_residual(m)
        assert r.is_zero() and str(r) == "0"
    for m in phase:
        assert all(r.is_zero() and str(r) == "0" for r in phase_residual(m))
    assert phi_conjugation_check()
    assert composition_coherence_check()
    assert calls == []
    # a nonzero value is printed through the canonical constructor
    assert str(pii_residual(sign_flip_only())) == "-2*alpha"
    assert calls
