"""Adaptive integration of the Hamiltonian flow across the chart atlas.

Movable poles of solutions are ordinary points of the flow in another
chart, so the integrator carries a chart label with the state and hops
charts whenever coordinates grow past a threshold.  Transitions use the
exact rational formulas evaluated in double precision; only the Runge-
Kutta steps are approximate.

The per-chart vector fields are compiled from the symbolically derived
Hamiltonians, and their mutual consistency through the transition chain
rule is checked both symbolically (once) and at random sample points.

Compiled code is generated Python source: straight-line float fields and
transitions, built once per expression, and for each chart one adaptive
loop, built when an integration first enters the chart.  The loop keeps
the state, the first stage and h in float locals and inlines the
unrolled Dormand-Prince step: the chart's Hamiltonian field is evaluated
in place at each of the seven stages, the seventh at the new state
itself (bit for bit: see ``_loop_fn``) and the next step's first (FSAL),
then the RMS error norm.  Around the step it runs the PI step control,
the step budget, the step-size floor, the cut of the final step to t1,
the handling of overflow and of non-finite values, the step statistics
and the chart-switch test, and it appends each accepted state itself.
It returns to Python only at t1, on a step failure, or to switch charts:
the transition and the switch event are Python, and the target chart's
loop starts with a fresh first stage.  The scalar Riccati comparison
runs through the same generator.

The chart choice and the CSV output are generated from the same
transition sources.  ``best_chart`` calls one generated function per
source chart that inlines the changes to all three candidates, and
``write_csv`` calls one generated row writer, built once per process,
with a branch per chart that inlines the chart's change to W1.  Both
evaluate a change as ``transport`` does, with (nan, nan) where it
divides by zero or overflows, so their charts and rows are those of
``transport`` (the transport-based routes are kept in tests/test_flow.py
and tests/test_cli.py as references).

The generated code computes the same values in the same order as a
term-by-term interpreter, a generic stage loop, a generic norm loop and
a step-by-step driver (all kept in tests/test_flow.py as references).
It only takes each power once per stage and each product of fixed
factors with a fresh first stage, leaves out factors 1.0 and exponents
1, writes a negative term as a subtraction, and spells min, max and abs
as comparisons, so its results agree with theirs to the bit.  (Spelled
so, |x| keeps the sign of a zero x and may flip that of a nan; those
values are only compared, or scaled by rtol and added to atol, which
cannot show either sign.)
"""
from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import lru_cache

from . import atlas, backlund
from .exact import Polynomial, Quotient, RationalFunction, var_index


class FlowError(Exception):
    pass


class NoChart(FlowError):
    """Point too close to the removed divisor: no chart keeps it finite."""


class StepFailure(FlowError):
    """Step size underflow or step budget exhausted.  ``stats`` is the
    failed trajectory's ``stats_record()``, or None where no trajectory
    was kept."""

    def __init__(self, message: str, stats: dict | None = None):
        super().__init__(message)
        self.stats = stats


# first and largest step, step budget, and best_chart's size bound
H_INIT = 1e-3
H_MAX = 0.25
MAX_STEPS = 200_000
NO_CHART_BOUND = 1e8


class IntegratorConfig(namedtuple("IntegratorConfig",
                                  "rtol atol switch_threshold")):
    __slots__ = ()

    def __new__(cls, rtol=1e-10, atol=1e-12, switch_threshold=5.0):
        # written so that nan fails too
        if not (rtol > 0 and atol > 0):
            raise FlowError("tolerances must be positive")
        if not switch_threshold > 1:
            raise FlowError("switch threshold must exceed 1")
        return super().__new__(cls, rtol, atol, switch_threshold)


FlowState = namedtuple("FlowState", "chart y z t c")
SwitchEvent = namedtuple(
    "SwitchEvent", "t from_chart to_chart y_pre z_pre y_post z_post")


class StepStats:
    """What one integration did.  A step is rejected for its error norm
    (above 1), for an OverflowError in its stages or its norm, or for a
    non-finite norm.  A forced step is one accepted at the step-size
    floor with an error norm above 1.  Field evaluations count one for
    every first stage started afresh and six for every attempt whose
    first stage returned, so an attempt whose first stage overflows counts
    one; h_min and h_max range over the accepted |h|, and chart_steps counts
    the accepted steps taken in each chart."""

    __slots__ = ("field_evals", "accepted", "rejected_error",
                 "rejected_overflow", "rejected_non_finite", "forced",
                 "h_min", "h_max", "chart_steps")

    def __init__(self):
        self.field_evals = self.accepted = self.forced = 0
        self.rejected_error = self.rejected_overflow = 0
        self.rejected_non_finite = 0
        self.h_min, self.h_max = math.inf, 0.0
        self.chart_steps = {}

    @property
    def rejected(self) -> int:
        return (self.rejected_error + self.rejected_overflow
                + self.rejected_non_finite)


class Trajectory:
    """The accepted states (``FlowState``s) and chart switches
    (``SwitchEvent``s) of one integration at parameter c, and its
    ``StepStats``."""

    __slots__ = ("c", "states", "switches", "stats")

    def __init__(self, c: float):
        self.c = c
        self.states, self.switches, self.stats = [], [], StepStats()

    @property
    def final(self) -> FlowState:
        return self.states[-1]

    @property
    def accepted(self) -> int:
        return self.stats.accepted

    @property
    def rejected(self) -> int:
        return self.stats.rejected

    @property
    def forced(self) -> int:
        """Accepted steps whose error norm exceeded 1: taken at the
        step-size floor, where the step cannot shrink further."""
        return self.stats.forced

    def stats_record(self) -> dict:
        """The stats as ``integrate --stats`` prints them; the h range is
        null when no step was accepted."""
        s = self.stats
        return {"field_evals": s.field_evals, "accepted": s.accepted,
                "rejected": {"error_norm": s.rejected_error,
                             "overflow": s.rejected_overflow,
                             "non_finite": s.rejected_non_finite},
                "forced": s.forced,
                "h_min": s.h_min if s.accepted else None,
                "h_max": s.h_max if s.accepted else None,
                "steps_per_chart": {chart: s.chart_steps.get(chart, 0)
                                    for chart in atlas.CHARTS},
                "switches": len(self.switches)}


# ---------------------------------------------------------------------------
# compiling exact expressions to straight-line float code


def _poly_source(poly: Polynomial, idx: dict, power=None, fold=None) -> str:
    """Float source of a polynomial over the arguments a0, a1, ...: each
    term is ``coeff * a_k ** p * ...`` multiplied left to right, and the
    terms are summed left to right from 0.0.  Three rewrites change no
    bit: a factor 1.0 and an exponent 1 are left out (x * 1.0 and x ** 1
    are x), and a term with a negative coefficient is subtracted with the
    coefficient's absolute value (negation is exact and rounding is
    symmetric, so s + (-c) * x is s - c * x).  ``power(k, p)``, when
    given, names the source of a_k ** p for p > 1; ``fold(factors)``,
    when given, maps a term's list of (k, source) factors, k None for the
    coefficient, to the sources to multiply."""
    total = "0.0"
    for e, q in poly.terms.items():
        coeff = float(q)
        sign = " - " if math.copysign(1.0, coeff) < 0 else " + "
        factors = [] if abs(coeff) == 1.0 else [(None, repr(abs(coeff)))]
        for i, p in enumerate(e):
            if p:
                if i not in idx:
                    raise FlowError(
                        f"expression uses unbound variable index {i}")
                k = idx[i]
                factors.append((k, f"a{k}" if p == 1 else
                                power(k, p) if power else f"a{k} ** {p}"))
        srcs = fold(factors) if fold else [src for _, src in factors]
        total += sign + (" * ".join(srcs) or "1.0")
    return total


def _rf_source(expr: RationalFunction | Polynomial,
               names: tuple[str, ...], power=None, fold=None) -> str:
    expr = RationalFunction.coerce(expr)
    idx = {var_index(n): k for k, n in enumerate(names)}
    num = _poly_source(expr.num, idx, power, fold)
    if expr.den.is_constant():
        d = float(expr.den.constant_value())
        return f"({num})" if d == 1.0 else f"({num}) / {d!r}"
    return f"({num}) / ({_poly_source(expr.den, idx, power, fold)})"


def compile_map(exprs, names: tuple[str, ...]):
    """Close exact expressions over an argument order: a plain float
    function of len(names) arguments, generated as one expression, that
    returns the tuple of their values, computed in order."""
    params = ", ".join(f"a{k}" for k in range(len(names)))
    body = "".join(f"{_rf_source(e, names)}, " for e in exprs)
    return eval(f"lambda {params}: ({body})", {})


@lru_cache(maxsize=None)
def chart_field(chart: str):
    """Compiled (y, z, t, c) -> (dy/dt, dz/dt) for one chart."""
    return compile_map(atlas.hamilton_field(chart),
                       atlas.CHART_VARS[chart] + ("t", "c"))


def vector_field(chart: str, y: float, z: float, t: float, c: float):
    return chart_field(chart)(y, z, t, c)


# ---------------------------------------------------------------------------
# chain-rule consistency of the compiled fields


def field_consistency_symbolic(i: str, j: str) -> bool:
    """Pushing the source field through the transition's Jacobian (with
    the explicit t-derivative of the change) must give the target field
    on the overlap, as an exact identity (on unreduced quotients, so no
    gcd is taken)."""
    tr = atlas.transition(i, j)
    (yy, yz, yt), (zy, zz, zt) = (map(Quotient.of, row) for row in tr.jacobian)
    fy_i, fz_i = atlas.hamilton_field(i)
    fy_j, fz_j = tr.pulled_field
    push_y = yy * fy_i + yz * fz_i + yt
    push_z = zy * fy_i + zz * fz_i + zt
    return (push_y - fy_j).is_zero() and (push_z - fz_j).is_zero()


@lru_cache(maxsize=None)
def _jacobian_fn(i: str, j: str):
    dy, dz = atlas.transition(i, j).jacobian
    return compile_map(dy + dz, atlas.CHART_VARS[i] + ("t", "c"))


def field_consistency_numeric(i: str, j: str, n: int = 100, seed: int = 0) -> float:
    """Max relative defect of the chain rule at random overlap points,
    with the transition Jacobian evaluated exactly (in float)."""
    rng = random.Random(seed)
    worst = 0.0
    jacobian = _jacobian_fn(i, j)
    for _ in range(n):
        y = rng.uniform(0.2, 2.0) * rng.choice((-1, 1))
        z = rng.uniform(0.2, 2.0) * rng.choice((-1, 1))
        t = rng.uniform(-1.0, 1.0)
        c = rng.uniform(-1.0, 1.0)
        yj, zj = transport(i, j, y, z, t, c)
        fy, fz = vector_field(i, y, z, t, c)
        gy, gz = vector_field(j, yj, zj, t, c)
        yy, yz, yt, zy, zz, zt = jacobian(y, z, t, c)
        push_y = yy * fy + yz * fz + yt
        push_z = zy * fy + zz * fz + zt
        for got, ref in ((push_y, gy), (push_z, gz)):
            scale = max(1.0, abs(ref))
            worst = max(worst, abs(got - ref) / scale)
    return worst


# ---------------------------------------------------------------------------
# chart policy


def best_chart(chart: str, y: float, z: float, t: float, c: float) -> str:
    """Chart in which the point has the smallest max(|y|, |z|), ties
    broken in the fixed order of the atlas; NoChart when every chart
    blows up past ``NO_CHART_BOUND`` (the point is numerically on the
    removed divisor).  A chart is a candidate where ``transport`` to it
    is finite."""
    best, best_size = _chooser(chart)(y, z, t, c)
    if best is None or best_size > NO_CHART_BOUND:
        raise NoChart(f"no finite chart at t={t} (smallest size {best_size})")
    return best


def _transport_source(i: str, j: str, y: str, z: str) -> list:
    """Source lines that set the names y and z to the chart change from i
    to j of the point (a0, a1) at (t, c) = (a2, a3): the identity when
    i == j, and (nan, nan) on a ZeroDivisionError or an OverflowError.
    ``transport``, the chart chooser and the row writer all evaluate a
    chart change through these lines."""
    if i == j:
        return [f"{y}, {z} = a0, a1"]
    tr = atlas.transition(i, j)
    names = atlas.CHART_VARS[i] + ("t", "c")
    y_src, z_src = (_rf_source(e, names) for e in (tr.y_img, tr.z_img))
    return ["try:", f"    {y} = {y_src}", f"    {z} = {z_src}",
            "except (ZeroDivisionError, OverflowError):",
            f"    {y} = {z} = nan"]


def _generated(lines, name: str):
    namespace = {"inf": math.inf, "nan": math.nan, "FlowError": FlowError,
                 "sqrt": math.sqrt, "isfinite": math.isfinite,
                 "new": tuple.__new__}
    exec("\n".join(lines), namespace)
    return namespace[name]


@lru_cache(maxsize=None)
def _transport_fn(i: str, j: str):
    return _generated(["def transport(a0, a1, a2, a3):",
                       *_block(1, _transport_source(i, j, "y", "z")),
                       "    return y, z"], "transport")


def transport(i: str, j: str, y: float, z: float, t: float, c: float):
    """Float evaluation of the exact chart change; (nan, nan) when the
    point sits outside the overlap."""
    return _transport_fn(i, j)(y, z, t, c)


@lru_cache(maxsize=None)
def _chooser(chart: str):
    """Generated ``choose(y, z, t, c) -> (best, best_size)`` for a point
    in ``chart``: ``best_chart``'s candidates in the order of the atlas,
    each chart change inlined.  max(|y|, |z|) and the finiteness test are
    spelled as comparisons: a candidate is taken when its size is below
    the best so far (at most inf) and its |z| is not nan, which skips
    exactly the candidates with a nan or an infinite coordinate.  The sign
    of a zero size cannot show."""
    lines = ["def choose(a0, a1, a2, a3):",
             "    best, best_size = None, inf"]
    for cand in atlas.CHARTS:
        lines += _block(1, [
            *_transport_source(chart, cand, "y_", "z_"),
            "ay = y_ if y_ > 0.0 else -y_",
            "az = z_ if z_ > 0.0 else -z_",
            "size = az if az > ay else ay",
            "if size < best_size and az == az:",
            f"    best, best_size = {cand!r}, size"])
    lines.append("    return best, best_size")
    return _generated(lines, "choose")


# ---------------------------------------------------------------------------
# embedded Runge-Kutta 5(4)


_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)


def _loop_fn(exprs, names: tuple[str, ...]):
    """Generated ``bind(rtol, atol, *params) -> loop`` for the system
    du/dt = exprs over ``names`` = state variables, then "t", then the
    parameters, which are bound once per integration; ``loop`` is
    described in ``_loop_source``.

    Its Dormand-Prince step from (u, t) with step h and first stage k1 =
    f(u, t) binds the arguments of each stage to the names a0, a1, ...
    that ``_rf_source`` emits and evaluates the exprs in place.  Every
    combination is ``u_m + h * (0.0 + w_1*k1_m + w_2*k2_m + ...)``, all
    tableau weights kept, zeros included.  The seventh stage's input, at
    stage 6's time t + 1.0*h, is the new state v: u5 weighs k1..k6 as
    ``_A[6]`` does and k7 by 0.0, and 0.0*k7 added to a sum started at
    +0.0 (never -0.0) changes no bit if k7 is finite; if not, err (which
    weighs k7 by -1/40) and the norm are non-finite whatever v is, and
    the step is rejected.  So k7 = f(v, t + h), the next step's first
    stage.  The error norm is the RMS of err_m / (atol + rtol *
    max(|u_m|, |v_m|)), summed left to right from 0.0, with err = u5 - u4."""
    n = len(exprs)
    powers = set()

    def power(k, p):
        powers.add((k, p))
        return f"a{k}_{p}"

    products = {}

    def fold(factors):
        # the leading factors that are fixed for an integration (the
        # coefficient and the parameters before the first state variable
        # or t) are one product, taken with the first stage
        run = 0
        while run < len(factors) and (factors[run][0] is None
                                      or factors[run][0] > n):
            run += 1
        srcs = [src for _, src in factors]
        if run < 2:
            return srcs
        head = " * ".join(srcs[:run])
        return [products.setdefault(head, f"b{len(products)}"), *srcs[run:]]

    srcs = [_rf_source(e, names, power, fold) for e in exprs]
    # each power is taken once where its base is bound: a state
    # variable's or t's once per stage, and a parameter's and the fixed
    # products with the first stage, which the loop evaluates on entry
    # and after an OverflowError (one of them may be what overflowed)
    fixed = [f"a{k}_{p} = a{k} ** {p}" for k, p in sorted(powers) if k > n]
    fixed += [f"{name} = {head}" for head, name in products.items()]
    moving = [f"a{k}_{p} = a{k} ** {p}" for k, p in sorted(powers) if k <= n]

    def comb(weights, m):
        return " + ".join(["0.0"] + [f"{w!r} * k{r + 1}_{m}"
                                     for r, w in enumerate(weights)])

    # k1 = f(u, t) from u_0, u_1, ... and t
    first = [*fixed, *(f"a{m} = u_{m}" for m in range(n)), f"a{n} = t",
             *moving, *(f"k1_{m} = {src}" for m, src in enumerate(srcs))]
    # stages 2 to 7 from u_m, t, h and k1_m, the seventh at the new state
    # v_m and stage 6's time; then the error norm (x_m is |v_m|)
    rest = []
    for s in range(1, 7):
        rest += [f"a{m} = {f'v_{m} = ' if s == 6 else ''}u_{m} + h * "
                 f"({comb(_A[s], m)})" for m in range(n)]
        if _C[s] != _C[s - 1]:
            rest.append(f"a{n} = t + {_C[s]!r} * h")
        rest += moving
        rest += [f"k{s + 1}_{m} = {src}" for m, src in enumerate(srcs)]
    err_w = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))
    terms = []
    for m in range(n):
        rest += [f"e_{m} = h * ({comb(err_w, m)})",
                 f"s_{m} = u_{m} if u_{m} > 0.0 else -u_{m}",
                 f"x_{m} = v_{m} if v_{m} > 0.0 else -v_{m}",
                 f"if x_{m} > s_{m}:",
                 f"    s_{m} = x_{m}"]
        terms.append(f" + (e_{m} / (atol + rtol * s_{m})) ** 2")
    rest.append(f"norm = sqrt((0.0{''.join(terms)}) / {n})")

    def vec(stem):
        return "(" + "".join(f"{stem}_{m}, " for m in range(n)) + ")"

    params = ", ".join(f"a{k}" for k in range(n + 1, len(names)))
    return _generated([f"def bind(rtol, atol, {params}):",
                       *_block(1, _loop_source(n, vec, first, rest)),
                       "    return loop"], "bind")


def _block(depth: int, lines) -> list:
    return ["    " * depth + line for line in lines]


def _loop_source(n, vec, first, rest):
    """Source lines of the generated adaptive loop

        loop(u, t, t1, h, err_prev, budget, threshold, pick, stats, record,
             kind, head, tail) -> (status, u, t, h, err_prev, target)

    for a system of n state variables; ``first`` and ``rest`` are the
    lines of the first stage and of the rest of the step.  It integrates
    from t towards t1, starting with step h and PI memory err_prev, and
    evaluates its first stage afresh.  Each accepted state is appended as
    ``tuple.__new__(kind, (head, *u, t, tail))`` through ``record``.  The
    counts of ``stats`` (a StepStats) are read on entry and written back
    on exit; the step budget counts the steps already in them.

    After an accepted step whose largest |u_m| exceeds ``threshold``,
    ``pick(*u, t)`` names the chart for the new state.  If that is
    ``head``, the state is recorded and the loop goes on, the step's last
    stage its next first stage (FSAL).  Otherwise the loop returns with
    status "switch" and the target, and the state is not recorded.  It
    also returns when it reaches t1 (status None) and with the message of
    a StepFailure.

    Every float operation is the one of the step-by-step driver it
    replaced (kept in tests/test_flow.py), in the same order: a step is
    cut to end at t1 when it would reach past it, and else refused below
    the step-size floor 1e-14 * max(|t|, 1); an OverflowError or a
    non-finite norm cuts h by 5 and evaluates the first stage afresh
    (after an OverflowError); a norm above 1 is accepted (and counted as
    forced) only at h <= 1e-13 * max(|t|, 1); ``min`` and ``max`` are
    spelled out as comparisons that pick the same operand, and so is
    ``abs`` (x if x > 0.0 else -x)."""
    us = vec("u")

    def clamp(fac):
        # h = direction * min(|h| * min(5.0, max(0.2, fac)), H_MAX)
        return [f"fac = {fac}",
                "fac = fac if fac > 0.2 else 0.2",
                "fac = fac if fac < 5.0 else 5.0",
                "h_new = ah * fac",
                f"h = direction * (h_new if h_new <= {H_MAX!r} "
                f"else {H_MAX!r})"]

    size = ["size = x_0", *(f"size = x_{m} if x_{m} > size else size"
                            for m in range(1, n))]
    stats = ("field_evals", "accepted", "rejected_error",
             "rejected_overflow", "rejected_non_finite", "forced", "h_min",
             "h_max")
    accept = [
        "if norm > 1.0:",
        "    forced += 1",
        "t = t1 if final_step else t + h",
        *(f"u_{m} = v_{m}" for m in range(n)),
        "accepted += 1",
        "if ah < h_min:",
        "    h_min = ah",
        "if ah > h_max:",
        "    h_max = ah",
        # a zero norm takes the clamp's top factor, the limit as norm -> 0+
        *clamp("0.9 * norm ** -0.14 * err_prev ** 0.08 if norm > 0 "
               "else 5.0"),
        "err_prev = 1e-10 if norm < 1e-10 else norm",
        *size,
        "if size > threshold:",
        f"    target = pick({us[1:-1]} t)",
        "    if target != head:",
        "        status = 'switch'",
        "        break",
        f"record(new(kind, (head, {us[1:-1]} t, tail)))",
        *(f"k1_{m} = k7_{m}" for m in range(n))]
    body = [
        "while (t1 - t) * direction > 0:",
        "    steps += 1",
        "    if steps > budget:",
        "        status = 'step budget exhausted'",
        "        break",
        "    floor = t if t > 1.0 else -t if t < -1.0 else 1.0",
        "    final_step = (t + h - t1) * direction >= 0",
        "    if final_step:",
        "        h = t1 - t",
        "    ah = h if h > 0.0 else -h",
        "    if not final_step and ah < 1e-14 * floor:",
        "        status = 'step size underflow'",
        "        break",
        "    if not (" + " and ".join(f"isfinite(u_{m})"
                                     for m in range(n)) + "):",
        "        status = 'state became non-finite'",
        "        break",
        "    try:",
        "        if fresh:",
        "            field_evals += 1",
        *_block(3, first),
        "            fresh = False",
        "        field_evals += 6",
        *_block(2, rest),
        "    except OverflowError:",
        "        fresh = True",
        "        rejected_overflow += 1",
        "        h = direction * abs(h) * 0.2",
        "        continue",
        "    if not isfinite(norm):",
        "        rejected_non_finite += 1",
        "        h = direction * abs(h) * 0.2",
        "        continue",
        "    if norm <= 1.0 or ah <= 1e-13 * floor:",
        *_block(2, accept),
        "    else:",
        "        rejected_error += 1",
        *_block(2, clamp("0.9 * norm ** -0.2"))]
    return [
        "def loop(u, t, t1, h, err_prev, budget, threshold, pick, stats, "
        "record, kind, head, tail):",
        f"    {us} = u",
        "    fresh = True",
        "    direction = 1.0 if t1 > t else -1.0",
        *(f"    {name} = stats.{name}" for name in stats),
        "    steps = (accepted + rejected_error + rejected_overflow"
        " + rejected_non_finite)",
        "    status = target = None",
        # the counts are written back also when pick raises
        "    try:",
        *_block(2, body),
        "    finally:",
        *(f"        stats.{name} = {name}" for name in stats),
        f"    return status, {us}, t, h, err_prev, target"]


@lru_cache(maxsize=None)
def _chart_loop(chart: str):
    """``bind(rtol, atol, c) -> loop`` for one chart's Hamiltonian field,
    compiled on the first integration that enters the chart."""
    return _loop_fn(atlas.hamilton_field(chart),
                    atlas.CHART_VARS[chart] + ("t", "c"))


def _first_step(t0: float, t1: float) -> float:
    direction = 1.0 if t1 > t0 else -1.0
    return direction * min(H_INIT, H_MAX, abs(t1 - t0))


def integrate(c: float, initial: FlowState, t1: float,
              config: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate from the initial state's time to t1, hopping charts as
    needed; every accepted step appends a sample.

    Each chart's generated loop runs until t1, or until an accepted state
    past the threshold is best kept in another chart (``best_chart``).
    Then the state moves there by the exact transition, the switch is
    recorded, and the other chart's loop goes on from a fresh first
    stage."""
    # an int or Fraction past the float range would raise OverflowError
    # in the loop; the values themselves are kept, so no bit changes
    try:
        for value in (c, initial.y, initial.z, initial.t, t1):
            float(value)
    except OverflowError:
        raise FlowError("integration input exceeds the float range") from None
    if not (math.isfinite(initial.t) and math.isfinite(t1)):
        raise FlowError("integration bounds must be finite")
    cf = float(c)
    traj = Trajectory(c=cf)
    traj.states.append(initial)
    record, stats = traj.states.append, traj.stats
    chart, u, t = initial.chart, (initial.y, initial.z), initial.t
    h, err_prev = _first_step(t, t1), 1.0

    def pick(y, z, t):
        return best_chart(chart, y, z, t, c)

    while True:
        loop = _chart_loop(chart)(config.rtol, config.atol, c)
        before = stats.accepted
        try:
            status, u, t, h, err_prev, target = loop(
                u, t, t1, h, err_prev, MAX_STEPS, config.switch_threshold,
                pick, stats, record, FlowState, chart, cf)
        finally:
            if stats.accepted > before:
                stats.chart_steps[chart] = (stats.chart_steps.get(chart, 0)
                                            + stats.accepted - before)
        if status != "switch":
            break
        y, z = u
        u = transport(chart, target, y, z, t, c)
        traj.switches.append(SwitchEvent(t, chart, target, y, z, *u))
        chart = target
        record(FlowState(chart, *u, t, cf))
    if status is not None:
        raise StepFailure(status, traj.stats_record())
    return traj


def switch_continuity_ok(traj: Trajectory) -> bool:
    """Replay every recorded switch through the exact transition and
    demand bit-for-bit agreement with what the integrator stored."""
    for ev in traj.switches:
        y2, z2 = transport(ev.from_chart, ev.to_chart, ev.y_pre, ev.z_pre,
                           ev.t, traj.c)
        if (y2, z2) != (ev.y_post, ev.z_post):
            return False
    return True


def to_w1(state: FlowState) -> tuple[float, float]:
    """(q, p) equivalents of a state; (nan, nan) where the transition to
    the base chart is undefined, as on the removed divisor (y = 0 in W3
    and W12)."""
    chart, y, z, t, c = state
    if chart == "W1":
        return y, z
    return transport(chart, "W1", y, z, t, c)


def write_csv(traj: Trajectory, write) -> None:
    """``integrate``'s CSV of a trajectory through ``write``: the header,
    then one call per state with its row (t, chart, y, z, the base-chart
    equivalents q and p, and 1 at a switch time, else 0).  Floats are
    printed with 17 significant digits, and q and p are ``to_w1``'s."""
    write("t,chart,y,z,q_equiv,p_equiv,switch_flag\n")
    _row_writer()(traj.states, {ev.t for ev in traj.switches}, write)


@lru_cache(maxsize=None)
def _row_writer():
    """Generated ``rows(states, switch_times, write)``, one branch per
    chart.  A base-chart row formats y and z once and writes them twice;
    a pole-chart row inlines the chart's change to W1, evaluated as
    ``transport`` evaluates it.  Each row is one %-format, which prints
    the digits of format(x, ".17g"), and the flag is the bool of the
    switch-time test printed by %d."""
    lines = ["def rows(states, switch_times, write):",
             "    for chart, a0, a1, a2, a3 in states:",
             "        if chart == 'W1':",
             "            yz = '%.17g,%.17g' % (a0, a1)",
             "            write('%.17g,W1,%s,%s,%d\\n'"
             " % (a2, yz, yz, a2 in switch_times))"]
    for chart in atlas.CHARTS:
        if chart == "W1":
            continue
        lines += [f"        elif chart == {chart!r}:",
                  *_block(3, _transport_source(chart, "W1", "q", "p")),
                  f"            write('%.17g,{chart},%.17g,%.17g,%.17g,%.17g,"
                  "%d\\n' % (a2, a0, a1, q, p, a2 in switch_times))"]
    lines += ["        else:",
              "            raise FlowError('unknown chart ' + repr(chart))"]
    return _generated(lines, "rows")


# ---------------------------------------------------------------------------
# derived checks


@lru_cache(maxsize=None)
def _phase_map_fn():
    m = backlund.phase_translation()
    return compile_map((m.q_img, m.p_img, m.c_img), ("q", "p", "t", "c"))


def apply_phase_map(q: float, p: float, t: float, c: float):
    """(q', p', c') under the exact translation c |-> c+1, in float."""
    try:
        return _phase_map_fn()(q, p, t, c)
    except ZeroDivisionError:
        raise FlowError("phase translation undefined at this state") from None


def backlund_numeric_check(c: float, initial: FlowState, t1: float,
                           config: IntegratorConfig = IntegratorConfig()
                           ) -> float:
    """Transform-then-integrate against integrate-then-transform, with
    the parameter translation.

    Both routes land at parameter c' and time t1; returns the max abs
    discrepancy of (q, p) there.
    """
    traj = integrate(c, initial, t1, config)
    q0, p0 = to_w1(initial)
    q1, p1 = to_w1(traj.final)

    q0m, p0m, c_new = apply_phase_map(q0, p0, initial.t, c)
    q1m, p1m, _ = apply_phase_map(q1, p1, t1, c)

    traj2 = integrate(c_new, FlowState("W1", q0m, p0m, initial.t, c_new),
                      t1, config)
    q2, p2 = to_w1(traj2.final)
    return max(abs(q2 - q1m), abs(p2 - p1m))


def reversibility_error(c: float, initial: FlowState, t1: float,
                        config: IntegratorConfig = IntegratorConfig()) -> float:
    """Integrate out and back; distance to the start in its own chart."""
    out = integrate(c, initial, t1, config)
    back = integrate(c, out.final, initial.t, config)
    y, z = transport(back.final.chart, initial.chart, back.final.y,
                     back.final.z, initial.t, c)
    return max(abs(y - initial.y), abs(z - initial.z))


def riccati_compare(t0: float, t1: float, q0: float,
                    config: IntegratorConfig = IntegratorConfig(),
                    checkpoints: int = 8) -> tuple[float, float]:
    """At the parameter value where the zero-p locus is invariant, the
    q-component must follow the scalar first-order equation
    dq/dt = q^2 + t/2, W1's first field component at z1 = 0.  Returns
    (max |q difference| over checkpoints, max |p| drift)."""
    c = 0.0
    fy, _ = atlas.hamilton_field("W1")
    scalar = _loop_fn((fy.substitute({"z1": 0}),),
                      ("y1", "t"))(config.rtol, config.atol)

    drift = 0.0
    worst = 0.0
    state = FlowState("W1", q0, 0.0, t0, c)
    u_scalar = (q0,)
    for k in range(1, checkpoints + 1):
        tk = t0 + (t1 - t0) * k / checkpoints
        traj = integrate(c, state, tk, config)
        state = traj.final
        drift = max(drift, max(abs(s.z) for s in traj.states
                               if s.chart in ("W1", "W3")))
        tj = tk - (t1 - t0) / checkpoints
        status, u_scalar, *_ = scalar(
            u_scalar, tj, tk, _first_step(tj, tk), 1.0, MAX_STEPS, math.inf,
            None, StepStats(), lambda state: None, tuple, None, None)
        if status is not None:
            raise StepFailure(status)
        if state.chart != "W1":
            raise FlowError("trajectory left the base chart; "
                            "pick a pole-free window for this comparison")
        worst = max(worst, abs(state.y - u_scalar[0]))
    return worst, drift


def invariant_drift(traj: Trajectory, locus: str) -> float:
    """Max defect of an invariant locus along a trajectory.

    ``locus`` is "p" (the zero-p curve, invariant at c = 0; equals the
    z-coordinate in both W1 and W3) or "shifted" (p + 2q^2 + t, invariant
    at c = -1; equals -y12^2*z12 in the third chart).
    """
    worst = 0.0
    for s in traj.states:
        if locus == "p":
            if s.chart == "W12":
                raise FlowError("zero-p locus never routes through W12")
            worst = max(worst, abs(s.z))
        elif locus == "shifted":
            if s.chart == "W12":
                worst = max(worst, abs(s.y ** 2 * s.z))
            else:
                q, p = to_w1(s)
                worst = max(worst, abs(p + 2 * q ** 2 + s.t))
        else:
            raise FlowError(f"unknown locus {locus!r}")
    return worst
