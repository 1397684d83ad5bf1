"""Property tests for the exact polynomial and rational-function kernel.

Everything downstream trusts this layer blindly, so the algebraic laws
are exercised with random inputs rather than hand-picked examples.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2lab.exact import (
    DivisionByZero,
    IdenticallyZeroDenominator,
    NotPolynomial,
    Polynomial,
    RationalFunction,
    _prs_gcd,
    divexact,
    poly_gcd,
    poly_lcm,
    rf,
    rfvar,
)

VARS = ("q", "p", "t")

coeffs = st.integers(min_value=-9, max_value=9)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))


@st.composite
def polys(draw, max_terms=5, exps=exponents):
    out = Polynomial.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(coeffs)
        e = draw(exps)
        mono = Polynomial.const(c)
        for name, k in zip(VARS, e):
            mono = mono * Polynomial.variable(name) ** k
        out = out + mono
    return out


nonzero_polys = polys().filter(bool)

# gcd-heavy properties multiply three of these together, and the
# pseudo-remainder sequences grow fast; keep the factors small
small_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2),
                            st.integers(0, 1))
small_polys = polys(max_terms=3, exps=small_exponents).filter(bool)


# canonical operands for the fast-path properties; the reference route is
# the full gcd over the unreduced product, whose runtime has a heavy tail in
# the denominators' degrees, so those stay linear in each variable
linear_exponents = st.tuples(st.integers(0, 1), st.integers(0, 1),
                             st.integers(0, 1))
rationals = st.builds(RationalFunction, polys(max_terms=3, exps=small_exponents),
                      polys(max_terms=3, exps=linear_exponents).filter(bool))
tiny_polys = polys(max_terms=2, exps=small_exponents).filter(bool)
tiny_linear_polys = polys(max_terms=2, exps=linear_exponents).filter(bool)
multi_term_polys = polys(max_terms=3, exps=small_exponents).filter(
    lambda p: len(p.terms) > 1)


def _parts(r):
    return r.num.terms, r.den.terms


@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero() == a
    assert a * Polynomial.const(1) == a
    assert a - a == Polynomial.zero()


@given(polys(), polys())
def test_substitution_is_a_homomorphism(a, b):
    image = {"q": Polynomial.variable("t") + Polynomial.const(2),
             "p": Polynomial.variable("q") * Polynomial.variable("q")}
    assert (a + b).subs_poly(image) == a.subs_poly(image) + b.subs_poly(image)
    assert (a * b).subs_poly(image) == a.subs_poly(image) * b.subs_poly(image)


@given(polys(), polys())
def test_leibniz_rule(a, b):
    for v in VARS:
        assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


@given(polys(), polys())
def test_derivatives_commute(a, b):
    p = a * b
    assert p.diff("q").diff("p") == p.diff("p").diff("q")


@given(polys(), polys())
def test_evaluation_commutes_with_arithmetic(a, b):
    pt = {"q": Fraction(3, 2), "p": Fraction(-1, 3), "t": Fraction(5)}
    assert (a * b + a).eval_fractions(pt) == \
        a.eval_fractions(pt) * b.eval_fractions(pt) + a.eval_fractions(pt)


@settings(deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_divexact_inverts_multiplication(a, b):
    assert divexact(a * b, b) == a


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert divexact(a, g) * g == a
    assert divexact(b, g) * g == b


@settings(max_examples=25, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_gcd_absorbs_common_factor(a, b, g):
    h = poly_gcd(a * g, b * g)
    # g divides the gcd of (ag, bg); primitive parts needed since the
    # gcd is only defined up to a rational constant
    gp = g.primitive()
    q = divexact(h.primitive(), gp)     # raises if not divisible
    assert q * gp == h.primitive()
    w = poly_gcd(h, g)
    assert w.primitive() == gp or w.primitive() == -gp


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_lcm_times_gcd(a, b):
    lhs = (poly_gcd(a, b) * poly_lcm(a, b)).primitive()
    rhs = (a * b).primitive()
    assert lhs == rhs or lhs == -rhs


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=3, exps=small_exponents), small_polys, small_polys)
def test_rational_canonical_form(a, b, g):
    assert RationalFunction(a * g, b * g) == RationalFunction(a, b)


@settings(deadline=None)
@given(polys(max_terms=3, exps=small_exponents), small_polys)
def test_rational_denominator_normalization(a, b):
    r = RationalFunction(a, b)
    assert r.den.signed_content() == 1
    assert not (r.num.is_zero() and r.den != Polynomial.const(1))


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_rational_field_inverse(a, b):
    r = RationalFunction(a, b)
    assert r * (1 / r) == rf(1)
    assert r - r == rf(0)


@settings(max_examples=8, deadline=None)
@given(polys(max_terms=2, exps=small_exponents), small_polys,
       polys(max_terms=2, exps=small_exponents), small_polys)
def test_rational_quotient_rule(a, b, c, d):
    r = RationalFunction(a, b)
    s = RationalFunction(c, d)
    for v in ("q", "p"):
        assert (r * s).partial(v) == r.partial(v) * s + r * s.partial(v)


@settings(deadline=None)
@given(polys(max_terms=3, exps=small_exponents), small_polys)
def test_rational_evaluation(a, b):
    pt = {"q": Fraction(2), "p": Fraction(1, 7), "t": Fraction(-3, 4)}
    if b.eval_fractions(pt) == 0 or RationalFunction(a, b).den.eval_fractions(pt) == 0:
        return
    assert RationalFunction(a, b).eval_fractions(pt) == \
        a.eval_fractions(pt) / b.eval_fractions(pt)


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        RationalFunction(Polynomial.const(1), Polynomial.zero())
    with pytest.raises(DivisionByZero):
        rf(1) / rf(0)
    with pytest.raises(IdenticallyZeroDenominator):
        (1 / rfvar("q")).substitute({"q": rf(0)})


def test_as_polynomial_guard():
    q = rfvar("q")
    assert (q ** 2 / q).as_polynomial() == Polynomial.variable("q")
    with pytest.raises(NotPolynomial):
        (1 / q).as_polynomial()


def test_string_rendering_is_stable():
    q = Polynomial.variable("q")
    t = Polynomial.variable("t")
    p = 2 * q ** 3 + t * q + Polynomial.const(Fraction(1, 2))
    assert str(p) == "2*q^3 + t*q + 1/2"
    assert str(rf(p) / rf(t)) == "(2*q^3 + t*q + 1/2)/t"


def test_coeff_extraction():
    q = Polynomial.variable("q")
    t = Polynomial.variable("t")
    p = (q + t) ** 3
    assert p.coeff_in("q", 2) == 3 * t
    assert p.degree_in("q") == 3


@settings(max_examples=40, deadline=None)
@given(rationals, rationals)
def test_field_operations_match_full_canonicalization(a, b):
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    assert _parts(a + b) == _parts(RationalFunction(n1 * d2 + n2 * d1, d1 * d2))
    assert _parts(a - b) == _parts(RationalFunction(n1 * d2 - n2 * d1, d1 * d2))
    assert _parts(a * b) == _parts(RationalFunction(n1 * n2, d1 * d2))
    assert _parts(-a) == _parts(RationalFunction(-n1, d1))
    if b:
        assert _parts(a / b) == _parts(RationalFunction(n1 * d2, d1 * n2))


@settings(max_examples=25, deadline=None)
@given(tiny_polys, tiny_linear_polys, tiny_polys, tiny_linear_polys,
       tiny_linear_polys)
def test_sums_with_shared_denominator_factor(n1, d1, n2, d2, g):
    # force gcd(d1, d2) != 1 so the cancellation against g is exercised
    a = RationalFunction(n1, d1 * g)
    b = RationalFunction(n2, d2 * g)
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    assert _parts(a + b) == _parts(RationalFunction(n1 * d2 + n2 * d1, d1 * d2))
    assert _parts(a - b) == _parts(RationalFunction(n1 * d2 - n2 * d1, d1 * d2))


@settings(max_examples=40, deadline=None)
@given(rationals, st.integers(-3, 3))
def test_power_matches_full_canonicalization(a, k):
    if k < 0:
        if not a:
            return
        ref = RationalFunction(a.den ** -k, a.num ** -k)
    else:
        ref = RationalFunction(a.num ** k, a.den ** k)
    assert _parts(a ** k) == _parts(ref)


@settings(max_examples=40, deadline=None)
@given(rationals)
def test_partial_matches_full_canonicalization(a):
    n, d = a.num, a.den
    for v in VARS:
        ref = RationalFunction(n.diff(v) * d - n * d.diff(v), d * d)
        assert _parts(a.partial(v)) == _parts(ref)


def test_partial_cancels_when_denominator_is_constant_in_the_variable():
    y3, z3 = rfvar("y3"), rfvar("z3")
    assert ((y3 ** 4 * z3 - 2) / y3 ** 4).partial("z3") == 1


@settings(max_examples=40, deadline=None)
@given(multi_term_polys, st.integers(-5, 5).filter(bool))
def test_gcd_of_equal_arguments_matches_prs(a, k):
    assert poly_gcd(a, k * a) == _prs_gcd(a.primitive(), a.primitive())


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=1).filter(bool), multi_term_polys)
def test_gcd_with_monomial_matches_prs(m, b):
    ref = _prs_gcd(m.primitive(), b.primitive())
    assert poly_gcd(m, b) == ref
    assert poly_gcd(b, m) == ref
