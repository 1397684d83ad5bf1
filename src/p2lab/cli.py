"""Command-line verification harness.

Every identity the package recomputes is exposed as a named check with a
status: pass, fail, or known-discrepancy.  The last is reserved for the
three documented points where the shipped reference values disagree with
the recomputation (two intersection numbers and the tail of the orbit
coefficient list); anything else that mismatches is a fail and flips the
exit code.

Output is deterministic: fixed check order, fixed table order, floats
printed with 17 significant digits.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import atlas, backlund, blowup, flow, intlinalg, lattice, weyl
from .exact import Polynomial, rfvar


def _entry(cid, status, computed=None, expected=None, note="") -> dict:
    """One check of the report; status is pass, fail or
    known-discrepancy."""
    return {"id": cid, "status": status, "computed": computed,
            "expected": expected, "note": note}


def _check(cid, ok, computed=None, expected=None, note="") -> dict:
    return _entry(cid, "pass" if ok else "fail", computed, expected, note)


# ---------------------------------------------------------------------------
# lattice suite (lattice + blow-up engine + isometry orbit)


def _affine_e7_cartan() -> list:
    edges = {(0, 4), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
    a = [[0] * 8 for _ in range(8)]
    for i in range(8):
        a[i][i] = 2
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    return a


def lattice_checks() -> list:
    checks = []
    reg = lattice.named_classes("generic")
    d = lattice.d_chain()

    cartan = _affine_e7_cartan()
    got = lattice.gram(d)
    want = [[-x for x in row] for row in cartan]
    checks.append(_check("dynkin-gram", got == want, got, want))

    marks = (2, 1, 2, 3, 4, 3, 2, 1)
    combo = lattice.DivisorClass.zero()
    for k, m in zip(marks, d):
        combo = combo + k * m
    kc = lattice.canonical_class()
    checks.append(_check("anticanonical-combination", kc == -combo,
                         list(kc.coeffs), list((-combo).coeffs)))

    f_cls = lattice.anticanonical_class()
    nulls = [lattice.pair(f_cls, f_cls)] + [lattice.pair(f_cls, di) for di in d]
    checks.append(_check("anticanonical-null", all(v == 0 for v in nulls),
                         nulls, [0] * 9))

    comp = lattice.ortho_complement(d)
    vanish = [reg["C2"] - reg["C1"], reg["C4"] - reg["C3"]]
    checks.append(_check("complement-forward",
                         lattice.sublattice_equal(comp, vanish),
                         [list(v.coeffs) for v in comp],
                         [list(v.coeffs) for v in vanish]))
    gram2 = lattice.gram(vanish)
    checks.append(_check("complement-gram", gram2 == [[-2, 2], [2, -2]],
                         gram2, [[-2, 2], [2, -2]]))
    back = lattice.ortho_complement(vanish)
    checks.append(_check("complement-reverse",
                         lattice.sublattice_equal(back, d),
                         [list(v.coeffs) for v in back], "span(D0..D7)"))

    coords = weyl.action_coordinates(reg["C2"])
    want_coords = [-1, 2, 1, -1, 0, 1, 2, 2, 2, 2]
    checks.append(_check("section-expansion", coords == want_coords,
                         coords, want_coords))

    inv = lattice.euler_invariants()
    got_inv = [inv.K2, inv.c2, inv.chi_theta, inv.h1_theta, inv.h1_log,
               inv.h1_log_plus]
    checks.append(_check("euler-invariants", got_inv == [0, 12, -10, 10, 2, 1],
                         got_inv, [0, 12, -10, 10, 2, 1]))

    u = lattice.diagonalize_unimodular()
    diag = intlinalg.matmul(intlinalg.matmul(intlinalg.transpose(u),
                                             lattice.GRAM), u)
    want_diag = [[(1 if i == 0 else -1) if i == j else 0
                  for j in range(10)] for i in range(10)]
    checks.append(_check("unimodular-diagonalization", diag == want_diag,
                         note="signature (1,9) realized over the integers"))

    # every stated intersection number, recomputed from curve equations
    for regime in lattice.REGIMES:
        for tc in blowup.verify_intersection_table(regime):
            checks.append(_entry(f"table[{regime}] {tc.a}.{tc.b}", tc.status,
                                 tc.computed, tc.stated))
        eng = blowup.engine_classes(regime)
        regn = lattice.named_classes(regime)
        for name in sorted(set(eng) & set(regn)):
            checks.append(_check(f"class[{regime}] {name}",
                                 eng[name] == regn[name],
                                 list(eng[name].coeffs),
                                 list(regn[name].coeffs)))

    e0 = blowup.engine_classes("c=0")
    checks.append(_check("splitting[c=0] C2",
                         e0["C1"] + e0["C2prime"] == reg["C2"],
                         list((e0["C1"] + e0["C2prime"]).coeffs),
                         list(reg["C2"].coeffs),
                         "the first section degenerates into two components"))
    em = blowup.engine_classes("c=-1")
    checks.append(_check("splitting[c=-1] C4",
                         em["C4prime"] + em["C3"] == em["C4"],
                         list((em["C4prime"] + em["C3"]).coeffs),
                         list(em["C4"].coeffs),
                         "the last section's transform picks up the final "
                         "exceptional curve"))

    # isometries and the -1-class orbit
    checks.append(_check("param-translation",
                         weyl.param_apply(["i", "j"], Fraction(5)) == 6,
                         str(weyl.param_apply(["i", "j"], Fraction(5))), "6",
                         "composite of the two reflections is the unit shift"))
    jm, im = weyl.jstar(), weyl.istar()
    checks.append(_check("isometry-reversing",
                         jm.is_involution()
                         and jm.apply(reg["C1"]) == reg["C3"]
                         and jm.apply(reg["D1"]) == reg["D7"]
                         and jm.apply(f_cls) == f_cls
                         and lattice.sublattice_equal(
                             [jm.apply(x) for x in d], d),
                         note="involution; swaps the sections, reverses the "
                              "boundary chain, fixes the anticanonical class"))
    checks.append(_check("isometry-fixing",
                         im.is_involution()
                         and im.apply(reg["C1"]) == reg["C2"]
                         and im.apply(reg["C3"]) == reg["C3"]
                         and lattice.sublattice_equal(
                             [im.apply(x) for x in d], d),
                         note="involution; exchanges the two -1-sections "
                              "over the same fiber"))

    # C1 and C3 pair with the vanishing cycles as the unit matrix, and every
    # D is orthogonal to both (complement-forward), so the (C1, C3)
    # coordinates of a class modulo span(D) are its pairings with them
    walk = weyl.orbit(50)
    unit = [[lattice.pair(b, v) for b in (reg["C1"], reg["C3"])]
            for v in vanish]
    orbit_ok = unit == [[1, 0], [0, 1]] and weyl.distinctness(50) and all(
        lattice.pair(cls, cls) == -1 and lattice.pair(cls, f_cls) == 1
        and weyl.gamma_mod(n) == weyl.gamma_mod_closed_form(n)
        == (lattice.pair(cls, vanish[0]), lattice.pair(cls, vanish[1]))
        for n, cls in enumerate(walk, 1))
    checks.append(_check("orbit-invariants", orbit_ok,
                         note="n <= 50: squares -1, meets the anticanonical "
                              "class once, all distinct, closed form holds"))
    seed = walk[0]
    checks.append(_check("orbit-seed", seed == reg["C2"], list(seed.coeffs),
                         list(reg["C2"].coeffs)))

    low = {n: weyl.gamma_mod(n) for n in (1, 2)}
    checks.append(_check("orbit-stated-low",
                         all(low[n] == weyl.STATED_GAMMA_MOD[n] for n in low),
                         {n: str(v) for n, v in low.items()},
                         {n: str(weyl.STATED_GAMMA_MOD[n]) for n in low}))
    high = {n: weyl.gamma_mod(n) for n in sorted(weyl.GAMMA_ALLOWLIST)}
    checks.append(_entry("orbit-stated-high", "known-discrepancy",
                         {n: str(v) for n, v in high.items()},
                         {n: str(weyl.STATED_GAMMA_MOD[n]) for n in high},
                         "the shipped reference list conflicts with its own "
                         "recurrence; the recurrence values are used"))
    return checks


# ---------------------------------------------------------------------------
# backlund suite


def backlund_checks() -> list:
    checks = []
    for mk in (backlund.shift_up, backlund.shift_down, backlund.negation,
               backlund.identity_map):
        m = mk()
        r = backlund.pii_residual(m)
        checks.append(_check(f"residual {m.name}", r.is_zero(), str(r), "0",
                             "ZERO" if r.is_zero() else "NONZERO"))
    r = backlund.pii_residual(backlund.sign_flip_only())
    checks.append(_check("control sign-flip-only", str(r) == "-2*alpha",
                         str(r), "-2*alpha", "NONZERO as required"))

    for mk in (backlund.phase_reflection, backlund.phase_negation,
               backlund.phase_translation):
        m = mk()
        r1, r2 = backlund.phase_residual(m)
        ok = r1.is_zero() and r2.is_zero()
        checks.append(_check(f"phase residual {m.name}", ok,
                             [str(r1), str(r2)], ["0", "0"],
                             "ZERO" if ok else "NONZERO"))
    _, r2 = backlund.phase_residual(backlund.unshifted_reflection())
    checks.append(_check("control unshifted-reflection", str(r2) == "-2*c - 1",
                         str(r2), "-2*c - 1", "NONZERO as required"))

    checks.append(_check("conjugation", backlund.phi_conjugation_check(),
                         note="substitution intertwines the two derivations"))
    checks.append(_check("control conjugation-wrong-shift",
                         not backlund.phi_conjugation_check(
                             c_image=rfvar("alpha"))))
    checks.append(_check("control conjugation-wrong-momentum",
                         not backlund.phi_conjugation_check(
                             p_image=rfvar("yp"))))
    checks.append(_check("composition-coherence",
                         backlund.composition_coherence_check(),
                         note="phase translation read through the "
                              "substitution is the solution-level up-shift"))

    p = Polynomial.variable("p")
    q = Polynomial.variable("q")
    t = Polynomial.variable("t")
    ok, cof = backlund.invariant_curve_division(p, 0)
    checks.append(_check("invariant zero-momentum at c=0",
                         ok and str(cof) == "-2*q", str(cof), "-2*q"))
    ok, cof = backlund.invariant_curve_division(p + 2 * q ** 2 + t, -1)
    checks.append(_check("invariant shifted locus at c=-1",
                         ok and str(cof) == "2*q", str(cof), "2*q"))
    ok, _ = backlund.invariant_curve_division(p, 1)
    checks.append(_check("control invariant at c=1", not ok, ok, False,
                         "the locus is not invariant away from c=0"))

    for chart in ("W1", "W3"):
        r = backlund.quadric_residual(chart)
        checks.append(_check(f"quadric {chart}", r.is_zero(), str(r), "0"))
    wit = backlund.quadric_residual("W1", corrected=False)
    want = "-8*y1^2*z1^2 + 8*c*y1*z1"
    checks.append(_check("control quadric-published-sign", str(wit) == want,
                         str(wit), want,
                         "equals 8*y1z1*(c - y1z1); the published sign "
                         "fails identically"))
    return checks


# ---------------------------------------------------------------------------
# atlas suite


def atlas_checks() -> list:
    checks = []
    pairs = (("W1", "W3"), ("W3", "W12"), ("W1", "W12"))
    for i, j in pairs:
        checks.append(_check(f"round-trip {i}.{j}",
                             atlas.round_trip_is_identity(i, j)
                             and atlas.round_trip_is_identity(j, i)))
        jd = atlas.jacobian_det(i, j)
        checks.append(_check(f"jacobian {i}.{j}", jd == 1,
                             str(jd), "1"))
    checks.append(_check("consistency", atlas.consistency_check()))
    checks.append(_check("control consistency-quartic",
                         not atlas.consistency_check(quartic_coeff=1)))
    checks.append(_check("control consistency-reflected",
                         not atlas.consistency_check(
                             reflect_c_on_direct=True)))

    for chart in ("W3", "W12"):
        h = atlas.hamiltonian(chart)       # NotPolynomial would propagate
        checks.append(_check(f"hamiltonian-polynomial {chart}", True,
                             str(h), "a polynomial"))
    fy, fz = atlas.hamilton_field("W1")
    y1, z1, tt, cc = (rfvar(n) for n in ("y1", "z1", "t", "c"))
    half = Fraction(1, 2)
    ok = fy == y1 ** 2 + z1 + half * tt and fz == -2 * y1 * z1 + cc
    checks.append(_check("hamilton-field-base", ok,
                         [str(fy), str(fz)],
                         ["y1^2 + z1 + t/2", "-2*y1*z1 + c"]))

    for i, j in pairs:
        checks.append(_check(f"glue {i}.{j}",
                             atlas.glue_residual(i, j).is_zero()))
    pert = atlas.glue_residual(
        "W1", "W3",
        h_override={"W1": atlas.hamiltonian("W1")
                    + Polynomial.variable("y1")})
    checks.append(_check("control glue-perturbed", not pert.is_zero(),
                         note="adding y1 to the base Hamiltonian breaks "
                              "the gluing, the uniqueness direction"))

    v13 = atlas.ks_cocycle("W1", "W3")
    v312 = atlas.ks_cocycle("W3", "W12")
    v112 = atlas.ks_cocycle("W1", "W12")
    checks.append(_check("cocycle W1.W3", v13.is_zero(),
                         [str(v13.dy), str(v13.dz)], ["0", "0"]))
    want = "-1/y12^2"
    checks.append(_check("cocycle W3.W12",
                         str(v312.dy) == want and v312.dz.is_zero(),
                         [str(v312.dy), str(v312.dz)], [want, "0"]))
    checks.append(_check("cocycle W1.W12",
                         str(v112.dy) == want and v112.dz.is_zero(),
                         [str(v112.dy), str(v112.dz)], [want, "0"],
                         "forced by additivity; a flat value here would "
                         "contradict the other two"))
    checks.append(_check("cocycle-additivity", atlas.ks_cocycle_additivity()))

    checks.append(_check("involution", backlund.involution_check()))
    checks.append(_check("control involution-unshifted",
                         not backlund.involution_check(c_img=-rfvar("c"))))
    checks.append(_check("involution-squared",
                         backlund.involution_squared_is_identity()))

    per = [atlas.period_c2_minus_c1(Fraction(0)),
           atlas.period_c2_minus_c1(Fraction(1)),
           atlas.period_c2_minus_c1(Fraction(7, 3))]
    checks.append(_check("period-first-cycle",
                         per == [Fraction(0), Fraction(1), Fraction(7, 3)],
                         [str(v) for v in per], ["0", "1", "7/3"],
                         "coefficient of 2*pi*i equals the parameter"))
    per2 = atlas.period_c4_minus_c3(Fraction(1, 2))
    checks.append(_check("period-second-cycle", per2 == Fraction(-3, 2),
                         str(per2), "-3/2",
                         "reflected parameter: -c-1"))

    for i, j in pairs:
        checks.append(_check(f"field-chain-rule {i}.{j}",
                             flow.field_consistency_symbolic(i, j)))
    return checks


_SUITES = {
    "lattice": lattice_checks,
    "backlund": backlund_checks,
    "atlas": atlas_checks,
}


def run_suite(name: str) -> dict:
    """The report of one suite, or of all three in order.  A suite that
    raises adds one fail check, ``suite-error[<name>]``, with the error
    as computed, after the checks of the suites that ran."""
    checks, errors = [], []
    for n in _SUITES if name == "all" else (name,):
        suite = _SUITES[n]
        try:
            checks.extend(suite())
        except Exception as exc:
            errors.append(_check(f"suite-error[{n}]", False,
                                 f"{type(exc).__name__}: {exc}"))
    return {"suite": name, "checks": checks + errors}


_INF = float("inf")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _json_key(k) -> str:
    """A dict key as json writes it, before quoting."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _json_float(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _dumps(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte.  Given ``indent``,
    json runs its pure-Python encoder; this writer walks dicts and lists
    itself, quotes strings with json's C function and writes a flat list
    of ints or of strings with one join.  A value or key that json
    refuses raises json's ``TypeError``."""
    out = []
    _write(value, "\n", out)
    return "".join(out)


def _write(v, nl: str, out: list) -> None:
    """Append v's JSON text to out; nl is a newline and the indent of the
    line v starts on."""
    if isinstance(v, str):
        out.append(_json_str(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, float):
        out.append(_json_float(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if all(type(x) is int for x in v):
            out.append(f"[{inner}{sep.join(map(int.__repr__, v))}{nl}]")
        elif all(type(x) is str for x in v):
            out.append(f"[{inner}{sep.join(map(_json_str, v))}{nl}]")
        else:
            head = "[" + inner
            for x in v:
                out.append(head)
                _write(x, inner, out)
                head = sep
            out.append(nl + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        head = "{" + inner
        for k, x in v.items():
            head += _json_str(k if type(k) is str else _json_key(k)) + ": "
            if type(x) is str:
                out.append(head + _json_str(x))
            else:
                out.append(head)
                _write(x, inner, out)
            head = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {v.__class__.__name__} "
                        f"is not JSON serializable")


def _print_report(rep: dict, as_json: bool) -> int:
    checks = rep["checks"]
    if as_json:
        print(_dumps(rep))
    else:
        for c in checks:
            line = f"[{c['status']}] {c['id']}"
            if c["note"]:
                line += f"  ({c['note']})"
            if c["status"] != "pass":
                line += f"  computed={c['computed']} expected={c['expected']}"
            print(line)
        n_fail = sum(1 for c in checks if c["status"] == "fail")
        n_known = sum(1 for c in checks if c["status"] == "known-discrepancy")
        print(f"{len(checks)} checks: {len(checks) - n_fail - n_known} pass, "
              f"{n_fail} fail, {n_known} known-discrepancy")
    return 1 if any(c["status"] == "fail" for c in checks) else 0


# ---------------------------------------------------------------------------
# other subcommands


def _cmd_curves(args) -> int:
    if args.discrepancies:
        rows = [tc for tc in blowup.verify_intersection_table(args.regime)
                if tc.status == "known-discrepancy"]
        for tc in rows:
            print(json.dumps({"curve_pair": [tc.a, tc.b],
                              "computed": tc.computed,
                              "stated": tc.stated}))
        return 0
    sys.stdout.write(lattice.intersection_table_csv(args.regime))
    return 0


def _cmd_gamma(args) -> int:
    if args.full:
        print(str(tuple(weyl.gamma_full(args.n).coeffs)))
    else:
        print(str(weyl.gamma_mod(args.n)))
    return 0


def _cmd_periods(args) -> int:
    print(f"period(C2-C1) = {atlas.period_c2_minus_c1(args.c)}")
    print(f"period(C4-C3) = {atlas.period_c4_minus_c3(args.c)}")
    return 0


def _cmd_orbit(args) -> int:
    for n, cls, sq, fp, mod in weyl.orbit_report(args.n_max):
        print(f"n={n} class={tuple(cls.coeffs)} square={sq} "
              f"anticanonical={fp} mod={mod}")
    return 0


# what json.dumps({"event": "switch", "t": f"{t:.17g}", "from": ...,
# "to": ...}) prints: neither the digits nor a chart name needs escaping
_SWITCH_EVENT = '{"event": "switch", "t": "%.17g", "from": "%s", "to": "%s"}\n'


def _cmd_integrate(args) -> int:
    c = float(args.c)
    config = flow.IntegratorConfig(rtol=args.rtol, atol=args.atol,
                                   switch_threshold=args.R)
    initial = flow.FlowState("W1", args.q0, args.p0, args.t0, c)
    traj = flow.integrate(c, initial, args.t1, config)
    flow.write_csv(traj, sys.stdout.write)
    write = sys.stderr.write
    for ev in traj.switches:
        write(_SWITCH_EVENT % (ev.t, ev.from_chart, ev.to_chart))
    if args.stats:
        print(json.dumps({"stats": traj.stats_record()}), file=sys.stderr)
    return 0


def _rational(text: str) -> Fraction:
    """A rational number c such that c and -1 - c print, as ``periods``
    prints them.  An exponent past the interpreter's limit on the digits
    of a printed int (``sys.get_int_max_str_digits``) is refused before
    ``Fraction`` expands it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    exp = re.search(r"[eE][-+]?([\d_]+)", text)
    try:
        if limit and exp and int(exp[1].replace("_", "")) >= limit:
            raise ValueError("exponent past the digit limit")
        c = Fraction(text)
        str(c), str(-1 - c)     # ValueError past the digit limit
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number that prints: {text!r}") from None
    return c


def _float_rational(text: str) -> Fraction:
    """A rational whose float does not overflow (integrate's --c)."""
    c = _rational(text)
    try:
        float(c)
    except OverflowError:
        raise argparse.ArgumentTypeError(
            f"not a finite number: {text!r}") from None
    return c


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"not a finite number: {text!r}")
    return x


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"not a positive integer: {text!r}")
    return int(text)


# The largest n that `gamma --n` and `orbit --n-max` take: `orbit` walks
# and reduces every class up to n, which takes about a second at this size.
ORBIT_N_MAX = 3000


def _orbit_n(text: str) -> int:
    n = _positive_int(text)
    if n > ORBIT_N_MAX:
        raise argparse.ArgumentTypeError(
            f"orbit index {text!r} exceeds the ceiling {ORBIT_N_MAX}")
    return n


class _Parser(argparse.ArgumentParser):
    """Usage errors are one line on stderr and exit status 2."""

    def error(self, message):
        self.exit(2, f"p2lab: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="p2lab",
        description="verification laboratory for the second Painleve "
                    "equation's space of initial conditions")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=[*_SUITES, "all"])
    v.add_argument("--json", action="store_true")

    cv = sub.add_parser("curves", help="intersection table as CSV")
    cv.add_argument("--regime", default="generic", choices=lattice.REGIMES)
    cv.add_argument("--discrepancies", action="store_true",
                    help="emit the known-discrepancy records as JSON lines")

    g = sub.add_parser("gamma", help="orbit class coefficients")
    g.add_argument("--n", type=_orbit_n, required=True)
    g.add_argument("--full", action="store_true")

    pe = sub.add_parser("periods", help="vanishing-cycle period coefficients")
    pe.add_argument("--c", type=_rational, required=True,
                    help="rational, e.g. 1/3")

    ob = sub.add_parser("orbit", help="orbit verification table")
    ob.add_argument("--n-max", type=_orbit_n, default=50)

    it = sub.add_parser("integrate", help="integrate one trajectory to CSV")
    it.add_argument("--c", type=_float_rational, required=True,
                    help="rational parameter")
    it.add_argument("--t0", type=_finite_float, required=True)
    it.add_argument("--t1", type=_finite_float, required=True)
    it.add_argument("--q0", type=_finite_float, required=True)
    it.add_argument("--p0", type=_finite_float, required=True)
    defaults = flow.IntegratorConfig()
    it.add_argument("--rtol", type=_finite_float, default=defaults.rtol)
    it.add_argument("--atol", type=_finite_float, default=defaults.atol)
    it.add_argument("--R", type=_finite_float,
                    default=defaults.switch_threshold)
    it.add_argument("--stats", action="store_true",
                    help="write the step statistics as one JSON line to "
                         "stderr")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built once per process: parsing leaves it
    unchanged."""
    return build_parser()


def run(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _print_report(run_suite(args.suite), args.json)
    if args.command == "curves":
        return _cmd_curves(args)
    if args.command == "gamma":
        return _cmd_gamma(args)
    if args.command == "periods":
        return _cmd_periods(args)
    if args.command == "orbit":
        return _cmd_orbit(args)
    if args.command == "integrate":
        try:
            return _cmd_integrate(args)
        except flow.FlowError as exc:
            stats = getattr(exc, "stats", None)
            if args.stats and stats is not None:
                print(json.dumps({"stats": stats}), file=sys.stderr)
            parser.error(str(exc))
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
