"""Blow-up engine: curve classes recomputed from defining equations.

The compactified phase space is built from a ruled surface carrying four
affine charts W1..W4 glued by

    W1-W2:  y2 = y1,   z2 = 1/z1
    W1-W3:  y3 = 1/y1, z3 = c*y1 - y1^2*z1
    W3-W4:  y4 = y3,   z4 = 1/z3

followed by eight point blow-ups whose centers all sit over the W4 origin.
In the single z-descending coordinate chain the centers are, in order,

    step 1..4:  (y, z) = (0, 0), substitution  z_prev = y * z_next
    inversion:  v8 = 1/z8
    step 5:     (y8, v8) = (0, 2)
    step 6:     (y9, z9) = (0, 0)
    step 7:     (y10, z10) = (0, t)
    step 8:     (y11, z11) = (0, 2c+1)

A curve given by one polynomial equation in one ruled-surface chart is
pushed into this chain by substitution: each step is one substitution,
y = y_next, z = y_next * z_next + center, and the inversion substitutes
z8 = 1/v8 after stripping the curve's z8 factor.  The power of the
exceptional coordinate that factors out at each step is the multiplicity
of the strict transform at that center.  Together with the
class of the image in the ruled surface this yields the divisor class
upstairs.

Each chart change is an ``atlas.transition`` read backwards, built once
per regime; W1 -> W4 is W1 -> W3 pulled through W3 -> W4.  Transporting
equations between charts clears monomial denominators only; monomial
factors picked up by the numerator lie over the source chart's boundary
and are stripped.  The one coordinate change with a non-monomial
denominator (into W2 from W3/W4) is never needed: W2 data only enters
through curves defined on W1.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import atlas
from .exact import Polynomial, Quotient, Substitution, poly_gcd
from .lattice import DivisorClass, pair

REGIME_C = {"generic": None, "c=0": Fraction(0), "c=-1": Fraction(-1)}
# c set to its value, in each regime that fixes one
_AT_C = {regime: Substitution({"c": cval})
         for regime, cval in REGIME_C.items() if cval is not None}
# the slices of a curve along the section: z2 = 0 in W2 and z4 = 0 in W4
_ON_SECTION = {z: Substitution({z: 0}) for z in ("z2", "z4")}

# The chain's charts, from W4 to W12: blow-up k + 1 is centred in chart k
# and lands in chart k + 1; the fifth is centred in (y8, v8), v8 = 1/z8.
_CHAIN_CHARTS = (atlas.CHART_VARS["W4"],
                 *((f"y{k}", f"z{k}") for k in range(5, 12)),
                 atlas.CHART_VARS["W12"])
# The eight centers' z coordinates, in t and a symbolic c; every center
# has y = 0, on the previous exceptional curve.
_CENTERS = (*(Polynomial.zero(),) * 4, Polynomial.const(2), Polynomial.zero(),
            Polynomial.variable("t"), 2 * Polynomial.variable("c") + 1)
# The inversion z8 = 1/v8 before the fifth blow-up.  On a curve free of z8
# factors, clearing the denominator sends z8^k to v8^(d - k), d the top z8
# power, so the top terms keep v8^0 and no power of v8 divides the result.
_INVERSION = Substitution(
    {"z8": Quotient(Polynomial.const(1), Polynomial.variable("v8"))})


class BlowupError(Exception):
    pass


class NotSquarefree(BlowupError):
    """The defining polynomial has a repeated component."""


class RegimeSplit(BlowupError):
    """The curve is reducible in this regime; split it before computing."""


class CurveSpec(namedtuple("CurveSpec", "name chart poly proper_steps",
                           defaults=(8,))):
    """A curve on the ruled surface: one equation in one chart.

    ``proper_steps`` is how many blow-ups the transform is proper through
    (8 unless given); the remaining centers contribute nothing even if
    the strict transform passes through them (used for the
    total-transform convention of C4).
    """

    __slots__ = ()


def _p(name: str) -> Polynomial:
    return Polynomial.variable(name)


def curve_specs(regime: str = "generic") -> dict[str, CurveSpec]:
    """Defining data of the named affine curves (c still symbolic here)."""
    _regime_value(regime)       # an unknown regime raises
    t, c = _p("t"), _p("c")
    y1, z1 = _p("y1"), _p("z1")
    y3, z3 = _p("y3"), _p("z3")
    z4 = _p("z4")
    specs = {
        "S": CurveSpec("S", "W4", z4),
        "C1": CurveSpec("C1", "W3", y3),
        "C2": CurveSpec("C2", "W3", y3 * z3 - c),
        "C4": CurveSpec("C4", "W1", 2 * y1 ** 2 + z1 + t, proper_steps=7),
        "C5": CurveSpec("C5", "W1", y1 * z1 - c),
        "C6": CurveSpec("C6", "W1", 2 * y1 ** 3 + t * y1 + y1 * z1 + c + 1),
    }
    if regime == "c=0":
        specs["C2prime"] = CurveSpec("C2prime", "W1", z1)
    if regime == "c=-1":
        specs["C4prime"] = CurveSpec("C4prime", "W1", 2 * y1 ** 2 + z1 + t)
    return specs


# ---------------------------------------------------------------------------
# chart transport


def _regime_value(regime: str) -> Fraction | None:
    """c's value in the regime, None where c stays symbolic."""
    if regime not in REGIME_C:
        raise BlowupError(f"unknown regime {regime!r}")
    return REGIME_C[regime]


def _specialize(poly: Polynomial, regime: str) -> Polynomial:
    if _regime_value(regime) is None:
        return poly
    return poly.subs_poly(_AT_C[regime])


def _check_curve_ok(p: Polynomial, regime: str, chart_vars: tuple[str, str]) -> None:
    if p.is_zero():
        raise BlowupError("zero defining polynomial")
    # visible split: a chart variable factors off and a curve remains
    for v in chart_vars:
        stripped, k = p.strip_var(v)
        if k and not stripped.is_constant():
            raise RegimeSplit(
                f"in regime {regime!r} the curve factors as {v}^{k} * ({stripped})")
    # repeated components
    dy = p.diff(chart_vars[0])
    dz = p.diff(chart_vars[1])
    g = poly_gcd(p, poly_gcd(dy, dz) if dy and dz else (dy or dz))
    if not dy and not dz:
        raise BlowupError("equation does not involve the chart variables")
    if g.degree_in(chart_vars[0]) > 0 or g.degree_in(chart_vars[1]) > 0:
        raise NotSquarefree(f"repeated factor {g}")


@lru_cache(maxsize=None)
def _bindings(source: str, target: str, regime: str) -> Substitution:
    """The source -> target chart change in the regime: the source chart's
    variables bound to ``atlas.transition(target, source)``'s images with
    c set, built once as unreduced quotients over monomials, with no gcd
    taken, and prepared once."""
    if _regime_value(regime) is not None:
        at_c = _AT_C[regime]
        pairs = {v: e.substitute(at_c)
                 for v, e in _bindings(source, target, "generic").items()}
    elif (source, target) == ("W1", "W4"):
        inner = _bindings("W3", "W4", regime)
        pairs = {v: e.substitute(inner)
                 for v, e in _bindings("W1", "W3", regime).items()}
    else:
        return atlas.transition(target, source).bindings
    return Substitution(pairs)


@lru_cache(maxsize=None)
def _blow_ups(regime: str) -> tuple[Substitution, ...]:
    """The eight blow-ups in the regime, each prepared once: blow-up k + 1
    binds chart k's y = ny and z = ny * nz + center, c set in the center.
    y^a (z - center)^b goes to ny^(a+b) nz^b, so the power of ny that
    factors out is the curve's order at the center."""
    out = []
    for (y, z), (ny, nz), center in zip(_CHAIN_CHARTS, _CHAIN_CHARTS[1:],
                                        _CENTERS):
        z = "v8" if z == "z8" else z        # the fifth follows the inversion
        center = _specialize(center, regime)
        out.append(Substitution({y: _p(ny), z: _p(ny) * _p(nz) + center}))
    return tuple(out)


def _numerator_after(poly: Polynomial, bindings: Substitution) -> Polynomial:
    """Numerator of poly under the bindings, with no gcd taken.  The
    bindings' denominators are monomials in the target chart's variables,
    so this differs from the canonical numerator by a constant and at most
    such a monomial; the chart transports strip those variables wherever a
    monomial can arise, and make the result primitive.  The chain's z8
    inversion needs neither: its curve is free of z8 factors."""
    return Quotient.of(poly).substitute(bindings).num


def to_w1(spec: CurveSpec, regime: str) -> Polynomial | None:
    """Equation of the curve's trace on W1, or None if it misses W1."""
    p = _specialize(spec.poly, regime)
    if spec.chart == "W1":
        return p.primitive()
    if spec.chart == "W3":
        num = _numerator_after(p, _bindings("W3", "W1", regime))
        num, _ = num.strip_var("y1")
        return None if num.is_constant() else num.primitive()
    raise BlowupError(f"no W1 transport from chart {spec.chart}")


def to_w4(spec: CurveSpec, regime: str) -> Polynomial | None:
    """Equation of the curve's trace on W4, or None if it misses W4."""
    p = _specialize(spec.poly, regime)
    if spec.chart == "W4":
        return p.primitive()
    if spec.chart == "W3":
        num = _numerator_after(p, _bindings("W3", "W4", regime))
        return None if num.is_constant() else num.primitive()
    if spec.chart == "W1":
        num = _numerator_after(p, _bindings("W1", "W4", regime))
        num, _ = num.strip_var("y4")
        num, _ = num.strip_var("z4")
        return None if num.is_constant() else num.primitive()
    raise BlowupError(f"no W4 transport from chart {spec.chart}")


# ---------------------------------------------------------------------------
# the chain


ChainStep = namedtuple("ChainStep", "index chart_vars multiplicity strict")


class ChainTrace(namedtuple("ChainTrace",
                            "w4_equation steps dropped_section_power")):
    """The eight ``ChainStep``s of a curve, and the z8-adic valuation
    dropped at the inversion; no steps when it misses the W4 chart."""

    __slots__ = ()

    @property
    def multiplicities(self) -> tuple[int, ...]:
        if self.w4_equation is None:
            return (0,) * 8
        return tuple(s.multiplicity for s in self.steps)


def chain_trace(spec: CurveSpec, regime: str = "generic") -> ChainTrace:
    """Run the curve through all eight blow-ups, recording multiplicities."""
    p0 = _specialize(spec.poly, regime)
    _check_curve_ok(p0, regime, atlas.CHART_VARS[spec.chart])
    w4 = to_w4(spec, regime)
    if w4 is None:
        return ChainTrace(None, (), 0)
    cur, steps, dropped = w4, [], 0
    for k, blow_up in enumerate(_blow_ups(regime)):
        if k == 4:
            cur, dropped = cur.strip_var("z8")
            cur = _numerator_after(cur, _INVERSION)
            if cur.is_constant():
                break   # the whole curve lay in the section leaving the chart
        ny, nz = _CHAIN_CHARTS[k + 1]
        cur, m = cur.subs_poly(blow_up).strip_var(ny)
        steps.append(ChainStep(k + 1, (ny, nz), m, cur))
        if cur.is_constant():
            break
    steps.extend(ChainStep(j + 1, ("", ""), 0, cur)
                 for j in range(len(steps), 8))
    return ChainTrace(w4, tuple(steps), dropped)


def multiplicities(spec: CurveSpec, regime: str = "generic") -> tuple[int, ...]:
    return chain_trace(spec, regime).multiplicities


# ---------------------------------------------------------------------------
# classes


def base_class(spec: CurveSpec, regime: str = "generic") -> tuple[int, int]:
    """Class (a, b) = a*S + b*f of the curve's image in the ruled surface.

    a is the intersection with a generic fiber (degree in the fiber
    coordinate); b comes from pairing with the section S, which is the sum
    of the local contributions on W2 (all of S at finite base points) and
    at the single W4 point of S over the base point at infinity.
    """
    return _base_class(spec, regime, to_w4(spec, regime))


def _base_class(spec: CurveSpec, regime: str, w4: Polynomial | None) -> tuple[int, int]:
    """``base_class`` from the curve's W4 equation ``w4``, derived once by
    the caller."""
    if spec.name == "S":
        raise BlowupError("the section's class is the basis element S")
    fiber_coord = atlas.CHART_VARS[spec.chart][1]
    p = _specialize(spec.poly, regime)
    a = max(p.degree_in(fiber_coord), 0)

    # W2 contribution: substitute z1 = 1/z2, strip the spurious z2 powers,
    # and count the roots of the z2 = 0 slice with multiplicity.
    w2_part = 0
    w1 = to_w1(spec, regime)
    if w1 is not None:
        num = _numerator_after(w1, _bindings("W1", "W2", regime))
        num, _ = num.strip_var("z2")
        slice_ = num.subs_poly(_ON_SECTION["z2"])
        if slice_.is_zero():
            raise BlowupError("curve contains the section; self-pairing undefined")
        w2_part = max(slice_.degree_in("y2"), 0)

    # W4 contribution: vanishing order at y4 = 0 of the z4 = 0 slice.
    w4_part = 0
    if w4 is not None:
        slice_ = w4.subs_poly(_ON_SECTION["z4"])
        if slice_.is_zero():
            raise BlowupError("curve contains the section; self-pairing undefined")
        _, w4_part = slice_.strip_var("y4")

    b = w2_part + w4_part - 2 * a
    return a, b


def total_class(spec: CurveSpec, regime: str = "generic") -> DivisorClass:
    """Divisor class of the transform upstairs (proper through
    ``spec.proper_steps`` centers, total beyond).  The base class reads
    the chain trace's W4 equation, so the curve is moved to W4 once."""
    trace = chain_trace(spec, regime)
    a, b = _base_class(spec, regime, trace.w4_equation)
    m = trace.multiplicities
    coeffs = [a, b] + [-m[i] if i < spec.proper_steps else 0 for i in range(8)]
    return DivisorClass(tuple(coeffs))


def section_class(regime: str = "generic") -> DivisorClass:
    """Class of the section's proper transform (this is the boundary D0)."""
    m = multiplicities(curve_specs(regime)["S"], regime)
    return DivisorClass(tuple([1, 0] + [-x for x in m]))


@lru_cache(maxsize=None)
def engine_classes(regime: str = "generic") -> MappingProxyType:
    """Every named class this engine can derive in the given regime, as
    a read-only name -> DivisorClass mapping derived once per regime.

    Curves are recomputed from equations; the boundary components D1..D7
    and C3 are exceptional-divisor bookkeeping (each center lies on the
    previous exceptional curve, which the chain coordinates make visible:
    the new chart origin always has exceptional coordinate zero).
    """
    specs = curve_specs(regime)
    out: dict[str, DivisorClass] = {
        "S": DivisorClass.of(S=1),
        "f": DivisorClass.of(f=1),
        "D0": section_class(regime),
        "C3": DivisorClass.of(E8=1),
    }
    for i in range(1, 8):
        out[f"D{i}"] = DivisorClass.of(**{f"E{i}": 1, f"E{i+1}": -1})
    # canonical bookkeeping: ruled surface has K = -2S, each blow-up adds E
    out["K"] = DivisorClass.of(S=-2, **{f"E{i}": 1 for i in range(1, 9)})
    out["F"] = -out["K"]
    for name, spec in specs.items():
        if name == "S":
            continue
        try:
            out[name] = total_class(spec, regime)
        except RegimeSplit:
            continue
    if regime == "c=0" and "C2" not in out:
        out["C2"] = out["C1"] + out["C2prime"]
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# the stated intersection table


ALLOWLIST = frozenset({("C5", "D1"), ("C6", "D7")})


def stated_intersections(regime: str = "generic") -> list[tuple[str, str, int]]:
    """Intersection numbers asserted by the reference table shipped with
    this package.  Two entries (the allowlist) are known to disagree with
    the recomputation and are reported as such, never asserted."""
    _regime_value(regime)       # an unknown regime raises
    if regime == "generic":
        rows = [
            ("C1", "C1", -1), ("C2", "C2", -1), ("C1", "C2", 0),
            ("C3", "C3", -1), ("C4", "C4", -1), ("C3", "C4", 0),
            ("C1", "C3", 0), ("C1", "C4", 0), ("C2", "C3", 0), ("C2", "C4", 2),
            ("C1", "D1", 1), ("C2", "D1", 1), ("C3", "D7", 1), ("C4", "D7", 1),
            ("C5", "D0", 1), ("C5", "C1", 1), ("C5", "C2", 0),
            ("C5", "C3", 0), ("C5", "C4", 3), ("C5", "D1", 1),
            ("C6", "D0", 1), ("C6", "C1", 0), ("C6", "C2", 3),
            ("C6", "C3", 1), ("C6", "C4", 0), ("C6", "D7", 1),
        ]
        rows += [("C5", f"D{i}", 0) for i in range(2, 8)]
        rows += [("C6", f"D{i}", 0) for i in range(1, 7)]
        return rows
    if regime == "c=0":
        return [
            ("C1", "C1", -1), ("C2prime", "C2prime", -2), ("C1", "C2prime", 1),
            ("C1", "D1", 1),
        ] + [("C2prime", f"D{i}", 0) for i in range(8)]
    return [
        ("C3", "C3", -1), ("C4prime", "C4prime", -2), ("C3", "C4prime", 1),
        ("C3", "D7", 1),
    ] + [("C4prime", f"D{i}", 0) for i in range(8)]


# status is "pass", "fail" or "known-discrepancy"
TableCheck = namedtuple("TableCheck", "a b computed stated status")


def verify_intersection_table(regime: str = "generic") -> list[TableCheck]:
    """Recompute every stated intersection number from defining equations."""
    classes = engine_classes(regime)
    out = []
    for a, b, stated in stated_intersections(regime):
        computed = pair(classes[a], classes[b])
        if computed == stated:
            status = "pass"
        elif (a, b) in ALLOWLIST or (b, a) in ALLOWLIST:
            status = "known-discrepancy"
        else:
            status = "fail"
        out.append(TableCheck(a, b, computed, stated, status))
    return out
