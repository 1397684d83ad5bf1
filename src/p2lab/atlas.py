"""Three-chart symplectic atlas of the regular locus.

Charts are named W1, W3, W12; each carries fiber coordinates (y, z) over
the (t, c) base.  The ruled surface's charts W2 and W4 and its fibre
inversions W2 -> W1 and W4 -> W3 are declared here too, for the blow-up
engine and the period residue.  Transitions, Hamiltonians, relative
differential forms, the deformation cocycle and the vanishing-cycle
periods are all handled exactly.  The W1 Hamiltonian is the phase-space
one: ``backlund`` reads its field as the phase derivation, and checks
the parameter involution against these transitions with its reflection.
A check that only asks whether an identity holds substitutes into
``exact.Quotient`` values, which take no gcd, and tests the difference
for a zero numerator; canonical values are kept for what is printed or
compiled to float code.

Relative forms are taken over the c-line: t is a coordinate, c a
constant, matching the convention in which d kills dc but not dt.
Fixed-t statements drop the dt components.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from .exact import (
    Polynomial, Quotient, RationalFunction, Substitution, rf, rfvar, rfvars,
)

CHARTS = ("W1", "W3", "W12")
CHART_VARS = {"W1": ("y1", "z1"), "W2": ("y2", "z2"), "W3": ("y3", "z3"),
              "W4": ("y4", "z4"), "W12": ("y12", "z12")}

_HALF = Fraction(1, 2)


class AtlasError(Exception):
    pass


# ---------------------------------------------------------------------------
# transitions


class Transition(namedtuple("Transition", "source target y_img z_img")):
    """Target coordinates as rational functions of source coordinates
    (and t, c).  No ``__slots__``: the instance ``__dict__`` holds the
    cached properties."""

    @cached_property
    def jacobian(self) -> tuple:
        """((dy/dsy, dy/dsz, dy/dt), (dz/dsy, dz/dsz, dz/dt)): the target
        coordinates (y, z) differentiated by the source ones (sy, sz) and
        by t."""
        sy, sz = CHART_VARS[self.source]
        return tuple(tuple(img.partial(v) for v in (sy, sz, "t"))
                     for img in (self.y_img, self.z_img))

    @cached_property
    def pulled_field(self) -> tuple:
        """The target chart's Hamilton field (dy/dt, dz/dt) in source
        coordinates, as unreduced quotients; the gluing and chain-rule
        checks both read it."""
        b = self.bindings
        return tuple(Quotient.of(f).substitute(b)
                     for f in hamilton_field(self.target))

    @cached_property
    def bindings(self) -> Substitution:
        """The target chart's variables bound to their images, prepared
        once per transition."""
        ty, tz = CHART_VARS[self.target]
        return Substitution({ty: self.y_img, tz: self.z_img})

    def apply(self, y, z, t, c) -> tuple[Fraction, Fraction]:
        sy, sz = CHART_VARS[self.source]
        vals = {"t": t, "c": c, sy: y, sz: z}
        return self.y_img.eval_fractions(vals), self.z_img.eval_fractions(vals)


def _shear_tail(y: RationalFunction, c: RationalFunction,
                t: RationalFunction) -> RationalFunction:
    """(2c+1)/y + t/y^2 + 2/y^4, the z-offset between W3 and W12."""
    return (2 * c + 1) / y + t / y ** 2 + 2 / y ** 4


@lru_cache(maxsize=None)
def transition(source: str, target: str) -> Transition:
    if source == target:
        raise AtlasError("transition requires distinct charts")
    key = (source, target)
    if key in (("W2", "W1"), ("W4", "W3")):    # the fibre inversion z -> 1/z
        sy, sz = CHART_VARS[source]
        return Transition(source, target, rfvar(sy), 1 / rfvar(sz))
    t, c = rfvars("t", "c")
    y1, z1 = rfvars("y1", "z1")
    y3, z3 = rfvars("y3", "z3")
    y12, z12 = rfvars("y12", "z12")
    if key == ("W1", "W3"):
        return Transition("W1", "W3", 1 / y1, c * y1 - y1 ** 2 * z1)
    if key == ("W3", "W1"):
        return Transition("W3", "W1", 1 / y3, y3 * (c - y3 * z3))
    if key == ("W3", "W12"):
        return Transition("W3", "W12", y3, z3 - _shear_tail(y3, c, t))
    if key == ("W12", "W3"):
        return Transition("W12", "W3", y12, z12 + _shear_tail(y12, c, t))
    if key == ("W1", "W12"):
        return Transition("W1", "W12", 1 / y1,
                          -(c + 1) * y1 - y1 ** 2 * (z1 + 2 * y1 ** 2 + t))
    if key == ("W12", "W1"):
        return Transition("W12", "W1", 1 / y12,
                          y12 * (-(c + 1) - y12 * z12) - 2 / y12 ** 2 - t)
    raise AtlasError(f"unknown chart pair {key}")


def round_trip_is_identity(i: str, j: str) -> bool:
    b = transition(i, j).bindings
    back = transition(j, i)
    sy, sz = (Polynomial.variable(v) for v in CHART_VARS[i])
    return ((Quotient.of(back.y_img).substitute(b) - sy).is_zero()
            and (Quotient.of(back.z_img).substitute(b) - sz).is_zero())


def consistency_check(quartic_coeff=2, reflect_c_on_direct: bool = False) -> bool:
    """The W1-to-W12 rule must agree with the composite through W3.

    The default arguments reproduce the atlas; changing the quartic tail
    coefficient or reflecting c on one side are negative controls.
    """
    step = transition("W3", "W12")
    # a quartic coefficient k in place of 2 adds (2 - k)/y3^4 to z12
    step_z = Quotient.of(step.z_img) + Quotient(
        Polynomial.const(2 - quartic_coeff),
        Polynomial.variable("y3") ** 4)
    b = transition("W1", "W3").bindings
    direct = transition("W1", "W12")
    dy, dz = Quotient.of(direct.y_img), Quotient.of(direct.z_img)
    if reflect_c_on_direct:
        flip = {"c": -1 - Polynomial.variable("c")}
        dy, dz = dy.substitute(flip), dz.substitute(flip)
    return ((Quotient.of(step.y_img).substitute(b) - dy).is_zero()
            and (step_z.substitute(b) - dz).is_zero())


def jacobian_det(i: str, j: str) -> RationalFunction:
    """Fiberwise Jacobian determinant of the coordinate change at fixed
    (t, c); equals 1 on every pair, which is the symplectic statement."""
    (yy, yz, _), (zy, zz, _) = transition(i, j).jacobian
    return yy * zz - yz * zy


# ---------------------------------------------------------------------------
# Hamiltonians


@lru_cache(maxsize=None)
def hamiltonian(chart: str) -> Polynomial:
    """Polynomial Hamiltonian generating the flow in the given chart.

    The W1 one is the phase-space Hamiltonian; the others are obtained by
    transporting it through the transitions, with the W12 one corrected
    by -1/y12.  That these are polynomials is a nontrivial fact the
    as_polynomial call certifies (NotPolynomial would falsify it).
    """
    t, c = rfvars("t", "c")
    if chart == "W1":
        y, z = rfvars("y1", "z1")
        h = y ** 2 * z + _HALF * z ** 2 + _HALF * t * z - c * y
        return h.as_polynomial()
    if chart == "W3":
        h1 = rf(hamiltonian("W1"))
        return h1.substitute(transition("W3", "W1").bindings).as_polynomial()
    if chart == "W12":
        h3 = rf(hamiltonian("W3"))
        h12 = h3.substitute(transition("W12", "W3").bindings) - 1 / rfvar("y12")
        return h12.as_polynomial()
    raise AtlasError(f"unknown chart {chart!r}")


@lru_cache(maxsize=None)
def hamilton_field(chart: str) -> tuple[RationalFunction, RationalFunction]:
    """(dy/dt, dz/dt) = (dH/dz, -dH/dy): polynomial in every chart, derived
    once per chart (cached)."""
    h = rf(hamiltonian(chart))
    y, z = CHART_VARS[chart]
    return h.partial(z), -h.partial(y)


# ---------------------------------------------------------------------------
# relative forms over the c-line


class RelTwoForm(namedtuple("RelTwoForm", "dy_dz dy_dt dz_dt")):
    """A*dy^dz + B*dy^dt + C*dz^dt in a fixed chart's coordinates.  The
    coefficients are canonical in a chart's own form and unreduced
    quotients in a pulled-back form or a difference with one."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return (self.dy_dz.is_zero() and self.dy_dt.is_zero()
                and self.dz_dt.is_zero())

    def __sub__(self, other: "RelTwoForm") -> "RelTwoForm":
        return RelTwoForm(self.dy_dz - other.dy_dz,
                          self.dy_dt - other.dy_dt,
                          self.dz_dt - other.dz_dt)


class RelOneForm(namedtuple("RelOneForm", "dy dz")):
    """A*dy + B*dz at fixed (t, c).  The coefficients are canonical in a
    cocycle value and unreduced quotients in a pulled-back form or a sum
    with one."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return self.dy.is_zero() and self.dz.is_zero()

    def __add__(self, other: "RelOneForm") -> "RelOneForm":
        return RelOneForm(self.dy + other.dy, self.dz + other.dz)

    def __sub__(self, other: "RelOneForm") -> "RelOneForm":
        return RelOneForm(self.dy - other.dy, self.dz - other.dz)


def symplectic_form(chart: str, h_poly: Polynomial | None = None) -> RelTwoForm:
    """dy^dz + dH^dt in the chart's own coordinates.  The chart's own H
    reads its partials off ``hamilton_field``; an ``h_poly`` override is
    differentiated here."""
    if h_poly is None:
        fy, fz = hamilton_field(chart)
        return RelTwoForm(rf(1), -fz, fy)
    h = rf(h_poly)
    y, z = CHART_VARS[chart]
    return RelTwoForm(rf(1), h.partial(y), h.partial(z))


def pullback_two_form(form: RelTwoForm, tr: Transition) -> RelTwoForm:
    """Express a form on tr.target in tr.source coordinates.  The
    coefficients come out as unreduced quotients: they are only ever
    tested for zero, which needs no gcd."""
    b = tr.bindings
    return _pullback_coefficients(
        tr, *(Quotient.of(f).substitute(b)
              for f in (form.dy_dz, form.dy_dt, form.dz_dt)))


def _pullback_coefficients(tr: Transition, a, bb, cc) -> RelTwoForm:
    """The pulled-back form, given its coefficients a, bb, cc already
    substituted into tr.source coordinates."""
    (yy, yz, yt), (zy, zz, zt) = (map(Quotient.of, row) for row in tr.jacobian)
    return RelTwoForm(
        a * (yy * zz - yz * zy),
        a * (yy * zt - yt * zy) + bb * yy + cc * zy,
        a * (yz * zt - yt * zz) + bb * yz + cc * zz,
    )


def pullback_one_form(form: RelOneForm, tr: Transition) -> RelOneForm:
    """Express a one-form on tr.target in tr.source coordinates, with
    unreduced coefficients, like ``pullback_two_form``."""
    b = tr.bindings
    (yy, yz, _), (zy, zz, _) = (map(Quotient.of, row) for row in tr.jacobian)
    a, bb = (Quotient.of(f).substitute(b) for f in (form.dy, form.dz))
    return RelOneForm(a * yy + bb * zy, a * yz + bb * zz)


def glue_residual(i: str, j: str,
                  h_override: dict | None = None) -> RelTwoForm:
    """Pull the target chart's symplectic form back and subtract the
    source chart's: identically zero exactly when the two forms glue.

    ``h_override`` replaces named charts' Hamiltonians, for probing the
    uniqueness direction (any non-constant fiber perturbation breaks at
    least one pair).  Without an override the target chart's form is
    pulled back through ``Transition.pulled_field``.
    """
    h_override = h_override or {}
    tr = transition(i, j)
    form_i = symplectic_form(i, h_override.get(i))
    if j in h_override:
        pulled = pullback_two_form(symplectic_form(j, h_override[j]), tr)
    else:
        fy, fz = tr.pulled_field
        pulled = _pullback_coefficients(tr, Quotient.of(rf(1)), -fz, fy)
    return pulled - form_i


# ---------------------------------------------------------------------------
# deformation cocycle


@lru_cache(maxsize=None)
def ks_cocycle(i: str, j: str) -> RelOneForm:
    """d(H_i(tau) - H_j) at fixed (t, c), expressed on chart j, where
    tau carries chart-j coordinates to chart-i ones.  Measures how the
    two Hamiltonians disagree as functions on the overlap (cached)."""
    tau = transition(j, i)
    hi = rf(hamiltonian(i)).substitute(tau.bindings)
    diff = hi - rf(hamiltonian(j))
    y, z = CHART_VARS[j]
    return RelOneForm(diff.partial(y), diff.partial(z))


def ks_cocycle_additivity() -> bool:
    """value(1,3) transported to W12 plus value(3,12) equals value(1,12)."""
    v13 = pullback_one_form(ks_cocycle("W1", "W3"), transition("W12", "W3"))
    v312 = ks_cocycle("W3", "W12")
    v112 = ks_cocycle("W1", "W12")
    return (v13 + v312 - v112).is_zero()


# ---------------------------------------------------------------------------
# periods of the vanishing cycles


def period_c2_minus_c1(c0) -> Fraction:
    """Coefficient of 2*pi*i in the period of the fiber symplectic form
    over the cycle joining the two -1-sections across the first
    exceptional curve: the distance between the segment's end points
    (``_period_ends``) at c = c0."""
    at = {"c": c0}
    c1_end, c2_end = _period_ends()
    return c2_end.eval_fractions(at) - c1_end.eval_fractions(at)


@lru_cache(maxsize=None)
def _period_ends() -> tuple[RationalFunction, RationalFunction]:
    """The marked points Y(c) of C1 and C2 on the first exceptional line,
    derived once per process.

    The derivation is the residue argument run exactly: the form equals
    -(1/z4^2) dy4^dz4 beyond the section, the first-blow-up substitution
    y4 = Y*z, z4 = z turns it into (1/z) dz^dY, and the tube integral
    around z = 0 leaves the residue dY integrated along the segment of
    the exceptional line between the two marked points, Y = 0 and Y = c.
    """
    Y, z, z4 = rfvars("Y", "z", "z4")

    # dy3^dz3 in W4 coordinates, through the fibre inversion W4 -> W3
    j34 = jacobian_det("W4", "W3")
    if j34 != -1 / z4 ** 2:
        raise AtlasError("dy3^dz3 must be -(1/z4^2) dy4^dz4")

    # substitute y4 = Y z, z4 = z; the Jacobian multiplies the coefficient
    sub = Substitution({"y4": Y * z, "z4": z})
    jblow = ((Y * z).partial("Y") * z.partial("z")
             - (Y * z).partial("z") * z.partial("Y"))
    coeff = j34.substitute(sub) * jblow
    if coeff * z != -1:
        raise AtlasError("form must be -(1/z) dY^dz")

    # residue of (1/z) dz ^ dY along z = 0 is dY; integrate over the
    # segment between the marked points of the exceptional line.
    # Marked points: roots in Y of the two sections' strict transforms.
    c1_eq = rf(Polynomial.variable("y4")).substitute(sub)          # first section
    c2_eq = (Polynomial.variable("y4") - Polynomial.variable("c")
             * Polynomial.variable("z4"))
    c2_eq = rf(c2_eq).substitute(sub)                              # second section
    ends = []
    for eq in (c1_eq, c2_eq):
        # exceptional factor off the strict transform
        stripped, _ = eq.num.strip_var("z")
        # linear in Y: root = -constant/lead
        lead = stripped.coeff_in("Y", 1)
        const = stripped - Polynomial.variable("Y") * lead
        ends.append(rf(-const) / rf(lead))
    return tuple(ends)


def period_c4_minus_c3(c0) -> Fraction:
    """The companion cycle's period, via the parameter reflection that
    exchanges the two degenerations: evaluate at -1-c."""
    return period_c2_minus_c1(-1 - c0)
