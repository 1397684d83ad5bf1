"""Symmetry verification by differential algebra.

Everything here is a residual computation in an exact differential field:
a derivation is applied formally, the defining second-order rule replaces
second derivatives, and a map is a symmetry exactly when its residual
has a zero numerator.  No epsilon appears anywhere in this module.

The maps themselves are canonical ``RationalFunction`` values, and the
four the checks share are built once per process.  The residuals are
worked on ``exact.Quotient`` values, which take no gcd: a residual is
zero exactly when its numerator is the zero polynomial, and a nonzero one
is reduced to canonical form only when it is printed.

Two fields are in play.  At the solution level the alphabet is
(t, y, yp, alpha) with D(y) = yp and D(yp) = 2y^3 + t*y + alpha.  At the
Hamiltonian phase level it is (t, q, p, c), and D is the atlas's W1
Hamilton field read with (y1, z1) = (q, p): D(q) = q^2 + p + t/2 and
D(p) = -2qp + c.  The parameter change c = alpha - 1/2 together with
q = y, p = yp - y^2 - t/2 intertwines the two derivations, which is
itself one of the verified identities.  The phase maps are the one
declaration of the phase-side symmetries: the atlas involution reads
``phase_reflection`` on W1, and ``weyl``'s parameter maps are c-images.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import atlas
from .exact import (
    ExactError, IdenticallyZeroDenominator, Polynomial, Quotient,
    RationalFunction, Substitution, divexact, rf, rfvar, rfvars,
)


class BacklundError(Exception):
    pass


class DenominatorVanishes(BacklundError):
    """A composed map's denominator collapses to zero identically."""


# ---------------------------------------------------------------------------
# derivations

_HALF = Fraction(1, 2)


class Derivation(namedtuple("Derivation", "name images")):
    """D with prescribed images on the listed variables, ``images`` a
    tuple of (var, RationalFunction) pairs; all other variables are
    constants, and t always has image 1."""

    __slots__ = ()

    def of(self, expr):
        """D(expr): a canonical ``RationalFunction`` for one (or for
        anything it coerces), and an unreduced ``Quotient`` for a
        ``Quotient``."""
        if not isinstance(expr, Quotient):
            expr = RationalFunction.coerce(expr)
        terms = [expr.partial(var) * img for var, img in self.images]
        return sum(terms[1:], terms[0])


def _pii_derivation() -> Derivation:
    t, y, yp, alpha = rfvars("t", "y", "yp", "alpha")
    return Derivation("solution-level", (
        ("t", rf(1)),
        ("y", yp),
        ("yp", 2 * y ** 3 + t * y + alpha),
    ))


def _phase_derivation() -> Derivation:
    """W1's Hamilton field with (y1, z1) read as (q, p)."""
    as_phase = Substitution({"y1": rfvar("q"), "z1": rfvar("p")})
    fq, fp = (f.substitute(as_phase) for f in atlas.hamilton_field("W1"))
    return Derivation("phase-level", (("t", rf(1)), ("q", fq), ("p", fp)))


PII = _pii_derivation()
PHASE = _phase_derivation()


# ---------------------------------------------------------------------------
# solution-level maps


class PIIMap(namedtuple("PIIMap", "name r g")):
    """Solution image r(t, y, yp, alpha) and parameter image g(alpha)."""

    __slots__ = ()

    def __new__(cls, name, r, g):
        coerce = RationalFunction.coerce
        return super().__new__(cls, name, coerce(r), coerce(g))


@lru_cache(maxsize=None)
def shift_up() -> PIIMap:
    """Parameter raised by one."""
    t, y, yp, alpha = rfvars("t", "y", "yp", "alpha")
    return PIIMap("shift-up", -y - (alpha + _HALF) / (yp + y ** 2 + t * _HALF),
                  alpha + 1)


def shift_down() -> PIIMap:
    """Parameter lowered by one."""
    t, y, yp, alpha = rfvars("t", "y", "yp", "alpha")
    return PIIMap("shift-down", -y + (alpha - _HALF) / (yp - y ** 2 - t * _HALF),
                  alpha - 1)


def negation() -> PIIMap:
    """Solution and parameter both negated."""
    y, alpha = rfvars("y", "alpha")
    return PIIMap("negation", -y, -alpha)


def identity_map() -> PIIMap:
    y, alpha = rfvars("y", "alpha")
    return PIIMap("identity", y, alpha)


def sign_flip_only() -> PIIMap:
    """Negated solution with unshifted parameter; not a symmetry."""
    y, alpha = rfvars("y", "alpha")
    return PIIMap("sign-flip-only", -y, alpha)


def pii_residual(m: PIIMap) -> Quotient:
    """D(D(r)) - 2r^3 - t*r - g: zero exactly when m sends solutions at
    parameter alpha to solutions at parameter g(alpha)."""
    t = Polynomial.variable("t")
    r = Quotient.of(m.r)
    try:
        # both sides come out over den(r)^4, so the difference reuses it
        return PII.of(PII.of(r)) - (2 * r ** 3 + t * r + m.g)
    except IdenticallyZeroDenominator as e:
        raise DenominatorVanishes(m.name) from e


# ---------------------------------------------------------------------------
# phase-level maps


class PhaseMap(namedtuple("PhaseMap", "name q_img p_img c_img")):
    """(q, p) |-> (q_img, p_img) over the parameter change c |-> c_img."""

    __slots__ = ()

    def __new__(cls, name, q_img, p_img, c_img):
        coerce = RationalFunction.coerce
        return super().__new__(cls, name, coerce(q_img), coerce(p_img),
                               coerce(c_img))

    def compose(self, other: "PhaseMap") -> "PhaseMap":
        """self after other (c-images composed the same way)."""
        binding = Substitution(
            {"q": other.q_img, "p": other.p_img, "c": other.c_img})
        try:
            return PhaseMap(
                f"{self.name}*{other.name}",
                self.q_img.substitute(binding),
                self.p_img.substitute(binding),
                self.c_img.substitute({"c": other.c_img}),
            )
        except IdenticallyZeroDenominator as e:
            raise DenominatorVanishes(self.name) from e


@lru_cache(maxsize=None)
def phase_reflection() -> PhaseMap:
    """Involution over c |-> -1-c."""
    t, q, p, c = rfvars("t", "q", "p", "c")
    return PhaseMap("phase-reflection", -q, -2 * q ** 2 - p - t, -1 - c)


@lru_cache(maxsize=None)
def phase_negation() -> PhaseMap:
    """Involution over c |-> -c, regular off p = 0."""
    q, p, c = rfvars("q", "p", "c")
    return PhaseMap("phase-negation", q - c / p, p, -c)


@lru_cache(maxsize=None)
def phase_translation() -> PhaseMap:
    """c |-> c+1: the negation applied after the reflection, composed once
    per process."""
    return phase_negation().compose(phase_reflection())


def unshifted_reflection() -> PhaseMap:
    """Reflection formulas with the parameter left fixed; not a symmetry."""
    m = phase_reflection()
    return PhaseMap("unshifted-reflection", m.q_img, m.p_img, rfvar("c"))


def phase_residual(m: PhaseMap) -> tuple[Quotient, Quotient]:
    """D of each image minus the field's right-hand side at the images and
    at c_img; (0, 0) exactly when m is a symmetry."""
    images = {"q": m.q_img, "p": m.p_img, "c": m.c_img}
    binding = Substitution(images)
    try:
        return tuple(PHASE.of(Quotient.of(images[var]))
                     - Quotient.of(img).substitute(binding)
                     for var, img in PHASE.images if var != "t")
    except IdenticallyZeroDenominator as e:
        raise DenominatorVanishes(m.name) from e


# ---------------------------------------------------------------------------
# the reflection on the atlas


def _reflection_on_w1(c_img=None) -> dict:
    """``phase_reflection`` as a substitution on W1 data, (q, p) read as
    (y1, z1); ``c_img`` replaces its c-image."""
    m = phase_reflection()
    on_w1 = Substitution({"q": rfvar("y1"), "p": rfvar("z1")})
    return {"y1": m.q_img.substitute(on_w1), "z1": m.p_img.substitute(on_w1),
            "c": m.c_img if c_img is None else c_img}


def involution_check(c_img: RationalFunction | Polynomial | None = None) -> bool:
    """The reflection on W1 carries the W1-to-W12 rule to minus the
    W1-to-W3 one, and the W1-to-W3 rule to minus the W1-to-W12 one.  Any
    c-image other than -1 - c (the negative control) breaks this."""
    sigma = Substitution(_reflection_on_w1(c_img))
    tr13, tr112 = atlas.transition("W1", "W3"), atlas.transition("W1", "W12")
    return all((Quotient.of(a).substitute(sigma) + b).is_zero() for a, b in (
        (tr112.y_img, tr13.y_img), (tr112.z_img, tr13.z_img),
        (tr13.y_img, tr112.y_img), (tr13.z_img, tr112.z_img)))


def involution_squared_is_identity() -> bool:
    m = phase_reflection().compose(phase_reflection())
    return (m.q_img, m.p_img, m.c_img) == rfvars("q", "p", "c")


# ---------------------------------------------------------------------------
# the intertwining substitution


def phase_bindings(p_image: RationalFunction | None = None,
                   c_image: RationalFunction | None = None) -> dict:
    """Substitution expressing the phase variables through the solution
    alphabet: q = y, p = yp - y^2 - t/2, c = alpha - 1/2 (overridable for
    negative controls).  Built as polynomials, so no gcd is taken."""
    t, y, yp, alpha = (Polynomial.variable(n) for n in ("t", "y", "yp", "alpha"))
    return {
        "q": rf(y),
        "p": rf(yp - y ** 2 - t * _HALF) if p_image is None else p_image,
        "c": rf(alpha - _HALF) if c_image is None else c_image,
    }


def phi_conjugation_residuals(p_image=None, c_image=None):
    """How far the substitution fails to intertwine the two derivations:
    for each phase variable v, D_solution(v-expression) minus the
    substituted phase image of v."""
    binding = phase_bindings(p_image, c_image)
    prepared = Substitution(binding)
    out = []
    for var, img in PHASE.images:
        if var == "t":
            continue
        expr = Quotient.of(binding[var])
        out.append(PII.of(expr) - Quotient.of(img).substitute(prepared))
    return tuple(out)


def phi_conjugation_check(p_image=None, c_image=None) -> bool:
    return all(r.is_zero() for r in phi_conjugation_residuals(p_image, c_image))


def composition_coherence_residuals():
    """The phase translation, read through the substitution, against the
    solution-level shift-up: the q-components must agree as rational
    functions, and the translated p must be the substitution's p-image
    rebuilt from the shifted solution and its derivative."""
    up = shift_up()
    tr = phase_translation()
    binding = Substitution(phase_bindings())
    t = Polynomial.variable("t")
    r = Quotient.of(up.r)
    q_res = Quotient.of(tr.q_img).substitute(binding) - r
    p_new = PII.of(r) - r ** 2 - t * _HALF
    p_res = Quotient.of(tr.p_img).substitute(binding) - p_new
    c_res = Quotient.of(tr.c_img).substitute(binding) - up.g + _HALF
    return q_res, p_res, c_res


def composition_coherence_check() -> bool:
    return all(r.is_zero() for r in composition_coherence_residuals())


# ---------------------------------------------------------------------------
# invariant curves of the phase flow


def invariant_curve_division(f: Polynomial, c0) -> tuple[bool, Polynomial | None]:
    """Exact division test: is D(f), specialized to c = c0, a polynomial
    multiple of f?  Returns the cofactor on success."""
    if f.is_zero():
        raise BacklundError("zero polynomial")
    spec = Substitution({"c": Fraction(c0)})
    f0 = f.subs_poly(spec)
    if f0.is_zero() or f0.is_constant():
        raise BacklundError("curve degenerates at this parameter")
    # the phase images are polynomials, so D(f0) comes out over 1
    df0 = PHASE.of(Quotient.of(f0)).num.subs_poly(spec)
    try:
        return True, divexact(df0, f0)
    except ExactError:
        return False, None


# ---------------------------------------------------------------------------
# the quadric identity


def quadric_quadruple(chart: str) -> tuple:
    """The two coordinate quadruples that land on one affine quadric."""
    y1, z1, y3, z3, c = rfvars("y1", "z1", "y3", "z3", "c")
    if chart == "W1":
        return (rf(1), y1 * (c - y1 * z1), 2 * y1 * z1 - c, z1)
    if chart == "W3":
        return (rf(1), z3, c - 2 * y3 * z3, y3 * (c - y3 * z3))
    raise BacklundError(f"no quadruple for chart {chart!r}")


def quadric_residual(chart: str = "W1", corrected: bool = True) -> RationalFunction:
    """Substitute a quadruple into 4*x1*x3 + x2^2 - c^2*x0^2 (corrected
    sign) or into 4*x1*x3 - x2^2 + c^2*x0^2 (the published sign, kept as
    a nonzero witness)."""
    x0, x1, x2, x3 = quadric_quadruple(chart)
    c = rfvar("c")
    if corrected:
        return 4 * x1 * x3 + x2 ** 2 - c ** 2 * x0 ** 2
    return 4 * x1 * x3 - x2 ** 2 + c ** 2 * x0 ** 2
