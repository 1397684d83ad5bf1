"""Adaptive integration of the Hamiltonian flow across the chart atlas.

Movable poles of solutions are ordinary points of the flow in another
chart, so the integrator carries a chart label with the state and hops
charts whenever coordinates grow past a threshold.  Transitions use the
exact rational formulas evaluated in double precision; only the Runge-
Kutta steps are approximate.

The per-chart vector fields are compiled from the symbolically derived
Hamiltonians, and their mutual consistency through the transition chain
rule is checked both symbolically (once) and at random sample points.

Compiled code is generated Python source: straight-line float fields
and transitions, built once per expression, and one unrolled
Dormand-Prince step per chart, built when an integration first enters
the chart.  The step evaluates the chart's Hamiltonian field in place at
each of its seven stages and the RMS error norm after them, and its last
stage is reused as the next step's first (FSAL).  The scalar Riccati
comparison goes through the same generator and driver.  The generated
code computes the same values in the same order as a term-by-term
interpreter, a generic stage loop and a generic norm loop (all kept in
tests/test_flow.py as references); it only takes each power once per
stage and leaves out factors 1.0 and exponents 1, so its results agree
with theirs to the bit.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import atlas, backlund
from .exact import Polynomial, RationalFunction, _Unreduced, var_index


class FlowError(Exception):
    pass


class NoChart(FlowError):
    """Point too close to the removed divisor: no chart keeps it finite."""


class StepFailure(FlowError):
    """Step size underflow or step budget exhausted."""


# first and largest step, step budget, and best_chart's size bound
H_INIT = 1e-3
H_MAX = 0.25
MAX_STEPS = 200_000
NO_CHART_BOUND = 1e8


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    switch_threshold: float = 5.0

    def __post_init__(self):
        # written so that nan fails too
        if not (self.rtol > 0 and self.atol > 0):
            raise FlowError("tolerances must be positive")
        if not self.switch_threshold > 1:
            raise FlowError("switch threshold must exceed 1")


class FlowState(NamedTuple):
    chart: str
    y: float
    z: float
    t: float
    c: float


@dataclass(frozen=True)
class SwitchEvent:
    t: float
    from_chart: str
    to_chart: str
    y_pre: float
    z_pre: float
    y_post: float
    z_post: float


@dataclass
class Trajectory:
    c: float
    states: list = field(default_factory=list)
    switches: list = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0
    _forced: int = 0

    @property
    def final(self) -> FlowState:
        return self.states[-1]

    @property
    def forced(self) -> int:
        """Accepted steps whose error norm exceeded 1: taken at the
        step-size floor, where the step cannot shrink further."""
        return self._forced


# ---------------------------------------------------------------------------
# compiling exact expressions to straight-line float code


def _poly_source(poly: Polynomial, idx: dict, power=None) -> str:
    """Float source of a polynomial over the arguments a0, a1, ...: each
    term is ``coeff * a_k ** p * ...`` multiplied left to right, and the
    terms are summed left to right from 0.0.  A factor 1.0 and an
    exponent 1 are left out, which changes no bit: x * 1.0 and x ** 1 are
    x.  ``power(k, p)``, when given, names the source of a_k ** p for
    p > 1."""
    total = "0.0"
    for e, q in poly.terms.items():
        coeff = float(q)
        factors = [] if coeff == 1.0 else [repr(coeff)]
        for i, p in enumerate(e):
            if p:
                if i not in idx:
                    raise FlowError(
                        f"expression uses unbound variable index {i}")
                k = idx[i]
                factors.append(f"a{k}" if p == 1 else
                               power(k, p) if power else f"a{k} ** {p}")
        total += " + " + (" * ".join(factors) or "1.0")
    return total


def _rf_source(expr: RationalFunction | Polynomial,
               names: tuple[str, ...], power=None) -> str:
    expr = RationalFunction.coerce(expr)
    idx = {var_index(n): k for k, n in enumerate(names)}
    num = _poly_source(expr.num, idx, power)
    if expr.den.is_constant():
        d = float(expr.den.constant_value())
        return f"({num})" if d == 1.0 else f"({num}) / {d!r}"
    return f"({num}) / ({_poly_source(expr.den, idx, power)})"


def _generated_lambda(body: str, names: tuple[str, ...]):
    params = ", ".join(f"a{k}" for k in range(len(names)))
    return eval(f"lambda {params}: {body}", {})


def compile_rf(expr: RationalFunction | Polynomial, names: tuple[str, ...]):
    """Close an exact expression over an argument order; returns a plain
    float function of len(names) arguments, generated as one expression."""
    return _generated_lambda(_rf_source(expr, names), names)


def compile_map(exprs, names: tuple[str, ...]):
    """Like ``compile_rf`` for several expressions at once: one generated
    function returning the tuple of their values, computed in order."""
    return _generated_lambda(
        "(" + "".join(f"{_rf_source(e, names)}, " for e in exprs) + ")",
        names)


@lru_cache(maxsize=None)
def chart_field(chart: str):
    """Compiled (y, z, t, c) -> (dy/dt, dz/dt) for one chart."""
    return compile_map(atlas.hamilton_field(chart),
                       atlas.CHART_VARS[chart] + ("t", "c"))


@lru_cache(maxsize=None)
def _transition_fn(i: str, j: str):
    tr = atlas.transition(i, j)
    return compile_map((tr.y_img, tr.z_img), atlas.CHART_VARS[i] + ("t", "c"))


def transport(i: str, j: str, y: float, z: float, t: float, c: float):
    """Float evaluation of the exact chart change; (nan, nan) when the
    point sits outside the overlap."""
    if i == j:
        return y, z
    try:
        return _transition_fn(i, j)(y, z, t, c)
    except (ZeroDivisionError, OverflowError):
        return math.nan, math.nan


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
    (yy, yz, yt), (zy, zz, zt) = (map(_Unreduced.of, row) for row in tr.jacobian)
    fy_i, fz_i = atlas.hamilton_field(i)
    fy_j, fz_j = map(_Unreduced.of, atlas.hamilton_field(j))
    b = tr.bindings()
    push_y = yy * fy_i + yz * fz_i + yt
    push_z = zy * fy_i + zz * fz_i + zt
    return ((push_y - fy_j.substitute(b)).is_zero()
            and (push_z - fz_j.substitute(b)).is_zero())


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
    removed divisor)."""
    best = None
    best_size = math.inf
    for cand in atlas.CHARTS:
        yy, zz = transport(chart, cand, y, z, t, c)
        if math.isnan(yy) or math.isnan(zz) or math.isinf(yy) or math.isinf(zz):
            continue
        size = max(abs(yy), abs(zz))
        if size < best_size:
            best, best_size = cand, size
    if best is None or best_size > NO_CHART_BOUND:
        raise NoChart(f"no finite chart at t={t} (smallest size {best_size})")
    return best


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


def _step_fn(exprs, names: tuple[str, ...]):
    """Generated ``bind(rtol, atol, *params) -> (field, step)`` for the
    system du/dt = exprs over ``names`` = state variables, then "t", then
    the parameters, which are bound once per integration.

    ``field(u, t)`` is the tuple of the exprs at (u, t).  ``step(u, t, h,
    k1) -> (u5, norm, k7)`` is one Dormand-Prince step with k1 = field(u,
    t): each stage binds its arguments to the names a0, a1, ... that
    ``_rf_source`` emits and evaluates the exprs in place.  Every
    combination is ``u_m + h * (0.0 + w_1*k1_m + w_2*k2_m + ...)``, all
    tableau weights kept, zeros included.  The seventh stage's input is
    therefore u5 bit for bit (``_A[6] == _B5[:6]``, ``_B5[6] == 0``, and
    its time is t + 1.0*h), so k7 = field(u5, t + h): the first stage of
    the next step when nothing moved the state in between.  ``norm`` is
    the RMS of err_m / (atol + rtol * max(|u_m|, |u5_m|)), summed left to
    right from 0.0, with err = u5 - u4."""
    n = len(exprs)
    powers = set()

    def power(k, p):
        powers.add((k, p))
        return f"a{k}_{p}"

    srcs = [_rf_source(e, names, power) for e in exprs]
    # each power is taken once where its base is bound: a parameter's
    # once per call, a state variable's or t's once per stage
    fixed = [f"        a{k}_{p} = a{k} ** {p}" for k, p in sorted(powers)
             if k > n]
    moving = [f"        a{k}_{p} = a{k} ** {p}" for k, p in sorted(powers)
              if k <= n]

    def comb(weights, m):
        return " + ".join(["0.0"] + [f"{w!r} * k{r + 1}_{m}"
                                     for r, w in enumerate(weights)])

    def vec(parts):
        return "(" + "".join(f"{p}, " for p in parts) + ")"

    params = ", ".join(f"a{k}" for k in range(n + 1, len(names)))
    lines = [f"def bind(rtol, atol, {params}):",
             "    def field(u, t):",
             f"        {vec(f'a{m}' for m in range(n))} = u",
             f"        a{n} = t",
             *fixed, *moving,
             f"        return {vec(srcs)}",
             "    def step(u, t, h, k1):",
             f"        {vec(f'u_{m}' for m in range(n))} = u",
             f"        {vec(f'k1_{m}' for m in range(n))} = k1",
             *fixed]
    for s in range(1, 7):
        lines += [f"        a{m} = u_{m} + h * ({comb(_A[s], m)})"
                  for m in range(n)]
        lines.append(f"        a{n} = t + {_C[s]!r} * h")
        lines += moving
        lines += [f"        k{s + 1}_{m} = {src}"
                  for m, src in enumerate(srcs)]
    err_w = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))
    terms = []
    for m in range(n):
        lines += [f"        v_{m} = u_{m} + h * ({comb(_B5, m)})",
                  f"        e_{m} = h * ({comb(err_w, m)})",
                  f"        s_{m} = abs(u_{m})",
                  f"        x_{m} = abs(v_{m})",
                  f"        if x_{m} > s_{m}:",
                  f"            s_{m} = x_{m}"]
        terms.append(f" + (e_{m} / (atol + rtol * s_{m})) ** 2")
    norm = f"sqrt((0.0{''.join(terms)}) / {n})"
    lines += [f"        return {vec(f'v_{m}' for m in range(n))}, {norm}, "
              f"{vec(f'k7_{m}' for m in range(n))}",
              "    return field, step"]
    namespace = {"sqrt": math.sqrt}
    exec("\n".join(lines), namespace)
    return namespace["bind"]


@lru_cache(maxsize=None)
def _chart_step(chart: str):
    """``bind(rtol, atol, c) -> (field, step)`` for one chart's Hamiltonian
    field, compiled on the first integration that enters the chart."""
    return _step_fn(atlas.hamilton_field(chart),
                    atlas.CHART_VARS[chart] + ("t", "c"))


def _adaptive(stepper, u0, t0, t1, config, on_accept=None, stats=None):
    """Drive a generated system from t0 to t1 with PI step control.

    ``stepper()`` returns a bound ``(field, step)`` pair; it is read at
    the start and again whenever on_accept replaces the state (chart
    switching hooks in there), which it must do with a new object.
    stats, when given, is a three-slot list receiving the [accepted,
    rejected, forced] counts; a forced step is one accepted at the
    step-size floor with an error norm above 1.

    The first stage is reused (FSAL): after a rejected step u and t are
    unchanged, and after an accepted step that on_accept left alone the
    step's last stage is the field at the new state.  Each step therefore
    costs six field evaluations, plus one at the start, after a replaced
    state and after an OverflowError."""
    if t1 == t0:
        return u0
    isfinite = math.isfinite
    field, step = stepper()
    direction = 1.0 if t1 > t0 else -1.0
    u, t = u0, t0
    h = direction * min(H_INIT, H_MAX, abs(t1 - t0))
    err_prev = 1.0
    steps = accepted = rejected = forced = 0
    k1 = None
    try:
        while (t1 - t) * direction > 0:
            steps += 1
            if steps > MAX_STEPS:
                raise StepFailure("step budget exhausted")
            floor = abs(t) if abs(t) > 1.0 else 1.0
            if abs(h) < 1e-14 * floor:
                raise StepFailure("step size underflow")
            final_step = (t + h - t1) * direction >= 0
            if final_step:
                h = t1 - t
            if not all(map(isfinite, u)):
                raise StepFailure("state became non-finite")
            try:
                if k1 is None:
                    k1 = field(u, t)
                u_new, norm, k7 = step(u, t, h, k1)
            except OverflowError:
                k1 = None
                norm = math.inf
            if not isfinite(norm):
                rejected += 1
                h = direction * abs(h) * 0.2
                continue
            if norm <= 1.0 or abs(h) <= 1e-13 * floor:
                if norm > 1.0:
                    forced += 1
                t = t1 if final_step else t + h
                u = u_new
                if on_accept is not None:
                    u = on_accept(u, t)
                if u is not u_new:
                    field, step = stepper()
                    k1 = None
                else:
                    k1 = None if final_step else k7
                accepted += 1
                fac = 0.9 * (norm ** -0.14 if norm > 0 else 2.0) \
                    * (err_prev ** 0.08)
                err_prev = max(norm, 1e-10)
            else:
                rejected += 1
                fac = max(0.2, 0.9 * norm ** -0.2)
            h = direction * min(abs(h) * min(5.0, max(0.2, fac)), H_MAX)
    finally:
        if stats is not None:
            stats[:] = accepted, rejected, forced
    return u


def integrate(c: float, initial: FlowState, t1: float,
              config: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate from the initial state's time to t1, hopping charts as
    needed; every accepted step appends a sample."""
    if not (math.isfinite(initial.t) and math.isfinite(t1)):
        raise FlowError("integration bounds must be finite")
    traj = Trajectory(c=float(c))
    traj.states.append(initial)
    record = traj.states.append
    chart_box = [initial.chart]
    cf = float(c)
    threshold = config.switch_threshold

    def stepper():
        return _chart_step(chart_box[0])(config.rtol, config.atol, c)

    def on_accept(u, t):
        y, z = u
        cur = chart_box[0]
        if max(abs(y), abs(z)) > threshold:
            target = best_chart(cur, y, z, t, c)
            if target != cur:
                y, z = transport(cur, target, y, z, t, c)
                traj.switches.append(SwitchEvent(t, cur, target, u[0], u[1],
                                                 y, z))
                chart_box[0] = cur = target
                u = (y, z)
        record(FlowState(cur, y, z, t, cf))
        return u

    stats = [0, 0, 0]
    _adaptive(stepper, (initial.y, initial.z), initial.t, t1, config,
              on_accept, stats)
    traj.accepted, traj.rejected, traj._forced = stats
    if traj.final.t != t1:
        # zero-length span: loop body never ran
        traj.states.append(FlowState(chart_box[0], initial.y, initial.z,
                                     t1, cf))
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
    dq/dt = q^2 + t/2.  Returns (max |q difference| over checkpoints,
    max |p| drift)."""
    c = 0.0
    q, t = RationalFunction.variable("q"), RationalFunction.variable("t")
    scalar = _step_fn((q ** 2 + Fraction(1, 2) * t,),
                      ("q", "t"))(config.rtol, config.atol)

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
        u_scalar = _adaptive(lambda: scalar, u_scalar,
                             tk - (t1 - t0) / checkpoints, tk, config)
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
