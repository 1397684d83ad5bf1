"""End-to-end checks of the command-line surface: output contracts,
exit codes, and byte-for-byte determinism across runs.  Output contracts
run in-process through ``cli.run``; the entry point, its exit codes and
determinism across processes run as subprocesses."""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import grid_digests
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from p2lab import (
    atlas, backlund, blowup, cli, flow, intlinalg, lattice, weyl,
)


def run_cli(env, *args):
    """One run of this checkout through the ``python -m p2lab.cli`` entry
    point, in the environment ``env``."""
    return subprocess.run([sys.executable, "-m", "p2lab.cli", *args],
                          capture_output=True, text=True, timeout=600,
                          env=env)


def run_in_process(capsys, *args):
    """Exit status, stdout and stderr of one in-process ``cli.run``,
    usage errors included."""
    try:
        code = cli.run(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_gamma_output(capsys):
    assert run_in_process(capsys, "gamma", "--n", "3") == (0, "(-3, 4)\n", "")


def test_gamma_full_vector(capsys):
    code, out, _ = run_in_process(capsys, "gamma", "--n", "1", "--full")
    assert code == 0
    assert out == "(1, -1, -1, 0, 0, 0, 0, 0, 0, 0)\n"


def test_periods_output(capsys):
    code, out, _ = run_in_process(capsys, "periods", "--c", "5/3")
    assert code == 0
    assert out.splitlines() == ["period(C2-C1) = 5/3", "period(C4-C3) = -8/3"]
    # exact: a parameter past the float range is no error here
    code, out, _ = run_in_process(capsys, "periods", "--c", "1e400")
    assert code == 0
    assert out.splitlines()[0] == f"period(C2-C1) = {10 ** 400}"


def test_periods_prints_every_value_it_accepts(capsys):
    # at the interpreter's digit limit c and -1 - c both print; one more
    # digit in either is a usage error, not a traceback
    limit = sys.get_int_max_str_digits()
    for c, minus_one_minus_c in ((f"1e{limit - 1}", f"-{10 ** (limit - 1) + 1}"),
                                 ("9" * (limit - 1), f"-{10 ** (limit - 1)}")):
        code, out, err = run_in_process(capsys, "periods", "--c", c)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"period(C4-C3) = {minus_one_minus_c}"
    for c in ("9" * limit, f"1e{limit}", f"1e-{limit}"):
        code, out, err = run_in_process(capsys, "periods", "--c", c)
        assert (code, out) == (2, "")
        assert err.startswith("p2lab: error: ") and len(err.splitlines()) == 1


def test_a_huge_exponent_is_refused_before_it_is_expanded(monkeypatch):
    # Fraction("1e999999999") would build a 10**999999999 before any check
    def refuse(text):
        raise AssertionError(f"Fraction({text!r}) was built")
    monkeypatch.setattr(cli, "Fraction", refuse)
    for text in ("1e999999999", "-1E+99_999_999_9", "0.5e-999999999"):
        with pytest.raises(argparse.ArgumentTypeError, match="that prints"):
            cli._rational(text)


def test_curves_csv(capsys):
    code, out, _ = run_in_process(capsys, "curves", "--regime", "generic")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    header = rows[0]
    c2_row = next(row for row in rows if row[0] == "C2")
    assert c2_row[header.index("C4")] == "2"


def test_curves_discrepancy_report(capsys):
    code, out, _ = run_in_process(capsys, "curves", "--regime", "generic",
                                  "--discrepancies")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [tuple(x["curve_pair"]) for x in recs] == [("C5", "D1"),
                                                      ("C6", "D7")]
    assert all(x["computed"] == 0 and x["stated"] == 1 for x in recs)


def test_verify_backlund_lines_and_exit(capsys):
    code, out, _ = run_in_process(capsys, "verify", "backlund")
    assert code == 0
    assert "[pass] residual shift-up  (ZERO)" in out
    summary = out.strip().splitlines()[-1]
    assert "0 fail" in summary and "0 known-discrepancy" in summary
    assert not any(line.startswith("[fail]") for line in out.splitlines())


def test_verify_all_known_discrepancies(capsys, report):
    # `verify all --json` prints the session report the gate reads
    code, out, _ = run_in_process(capsys, "verify", "all", "--json")
    assert code == 0
    want = {"suite": "all", "checks": list(report.values())}
    assert json.loads(out) == json.loads(json.dumps(want))
    known = {c["id"] for c in report.values()
             if c["status"] == "known-discrepancy"}
    assert known == {"table[generic] C5.D1", "table[generic] C6.D7",
                     "orbit-stated-high"}


def test_a_suite_that_raises_is_one_failed_check(monkeypatch, capsys, report):
    # the report still prints, with the checks of the suites that ran and
    # then one fail check for the suite that raised, and verify exits 1
    def broken():
        raise atlas.AtlasError("no chart change W4 -> W3")
    monkeypatch.setitem(cli._SUITES, "atlas", broken)
    code, out, err = run_in_process(capsys, "verify", "all", "--json")
    assert (code, err) == (1, "")
    *ran, last = json.loads(out)["checks"]
    assert ran == json.loads(json.dumps(list(report.values())[:len(ran)]))
    assert len(ran) + len(cli.atlas_checks()) == len(report)
    assert last == {"id": "suite-error[atlas]", "status": "fail",
                    "computed": "AtlasError: no chart change W4 -> W3",
                    "expected": None, "note": ""}
    code, out, err = run_in_process(capsys, "verify", "atlas")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "[fail] suite-error[atlas]  computed=AtlasError: no chart change "
        "W4 -> W3 expected=None",
        "1 checks: 0 pass, 1 fail, 0 known-discrepancy"]


def test_usage_error_exit_code(checkout_env):
    r = run_cli(checkout_env, "verify", "bogus")
    assert r.returncode == 2
    r = run_cli(checkout_env, "gamma")
    assert r.returncode == 2


def test_orbit_table(capsys):
    code, out, _ = run_in_process(capsys, "orbit", "--n-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("n=1 ")
    assert all("square=-1" in ln and "anticanonical=1" in ln
               for ln in lines)


def test_integrate_csv_and_switch_events(capsys):
    code, out, err = run_in_process(capsys, "integrate", "--c", "1/2",
                                    "--t0", "0", "--t1", "4",
                                    "--q0", "0", "--p0", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,chart,y,z,q_equiv,p_equiv,switch_flag"
    assert lines[1].startswith("0,W1,0,0,0,0,")
    last = lines[-1].split(",")
    assert last[0] == "4" and last[1] == "W1"
    events = [json.loads(ln) for ln in err.splitlines()]
    assert len(events) >= 2
    assert events[0]["from"] == "W1" and events[0]["to"] == "W3"
    flagged = [ln for ln in lines[1:] if ln.endswith(",1")]
    assert len(flagged) == len(events)


def test_outputs_are_byte_identical_across_runs(checkout_env):
    # separate processes: nothing may depend on hash seeds or ids
    for args in (("verify", "lattice", "--json"),
                 ("curves", "--regime", "c=0"),
                 ("integrate", "--c", "1/2", "--t0", "0", "--t1", "2",
                  "--q0", "0", "--p0", "0")):
        a = run_cli(checkout_env, *args)
        b = run_cli(checkout_env, *args)
        assert a.returncode == b.returncode == 0, (args, a.stderr)
        assert a.stdout == b.stdout and a.stderr == b.stderr, args


def test_pole_demo_digest(capsys):
    # the README pole demo's CSV, pinned across Python versions;
    # tests/grid_digests.py replays it under every interpreter
    want = (Path(__file__).parent / "pole_demo.sha256").read_text().strip()
    assert cli.run(grid_digests.POLE_DEMO) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_w12_trajectory_digest(capsys):
    # a trajectory through all three charts with rejected steps (1983
    # accepted, 9 rejected, 15 switches): the digest is of stdout followed
    # by stderr, pinned and replayed like the pole demo's
    want = (Path(__file__).parent / "w12_trajectory.sha256").read_text().strip()
    assert cli.run(grid_digests.W12_TRAJECTORY) == 0
    out, err = capsys.readouterr()
    assert "W12" in out
    assert hashlib.sha256((out + err).encode()).hexdigest() == want


VERIFY_TWICE = """
import contextlib, hashlib, io
from p2lab import cli
for _ in range(2):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify", "all", "--json"])
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_verify_report_matches_the_committed_digest_cold_and_warm(checkout_env):
    # one fresh process, so the first report is computed from cold caches
    # and the second from warm ones
    want = grid_digests.committed_verify_digest()
    r = subprocess.run([sys.executable, "-c", VERIFY_TWICE], capture_output=True,
                       text=True, timeout=600, env=checkout_env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [f"0 {want}"] * 2


@pytest.mark.parametrize("flags, env", [
    pytest.param(["-O"], {}, id="O"),
    *(pytest.param([], {"PYTHONHASHSEED": seed}, id=f"hashseed-{seed}")
      for seed in ("0", "1", "4242")),
])
def test_verify_report_digest_under_O_and_hash_seeds(checkout_env, flags, env):
    # the report may depend neither on assert statements nor on the order
    # of str-keyed sets and dicts
    r = subprocess.run([sys.executable, *flags, "-m", "p2lab.cli", "verify",
                        "all", "--json"], capture_output=True, timeout=600,
                       env={**checkout_env, **env})
    assert r.returncode == 0, r.stderr
    want = grid_digests.committed_verify_digest()
    assert hashlib.sha256(r.stdout).hexdigest() == want


# -- the report writer against json.dumps(indent=2), which it replaces ------

json_strings = st.text(st.one_of(
    st.characters(), st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)),
    max_size=6)
json_ints = st.one_of(st.integers(), st.integers(-10 ** 60, 10 ** 60))
# what a report holds: None, bools, ints and strings, in lists and in dicts
# keyed by strings or ints
json_scalars = st.one_of(st.none(), st.booleans(), json_ints, json_strings)
json_keys = st.one_of(json_strings, json_ints)
# flat lists of ints or of strings take the writer's one-join path; a bool
# among ints must not
json_values = st.recursive(
    st.one_of(json_scalars, st.lists(json_ints), st.lists(json_strings),
              st.lists(st.one_of(st.integers(), st.booleans()))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(json_keys, inner, max_size=4)),
    max_leaves=12)


@pytest.mark.deep
@given(json_values)
@example({"": [], "a": {}, 7: [], -3: [[]], "t": True, "f": False,
          "n": None, 0: [1, "x"], 10 ** 20: "y"})
@example([1, True, 2])
def test_the_report_writer_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), {1, 2}, {"a": [1, Fraction(1, 3)]}, {(1, 2): 3},
    [object()], b"x", {"k": {frozenset(): 1}}, [[1, 2], {"k": {3}}],
], ids=["Fraction", "set", "nested-Fraction", "tuple-key", "object",
        "bytes", "frozenset-key", "nested-set"])
def test_the_report_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        cli._dumps(value)
    # a refused key names the two key types a report holds
    assert str(got.value) == str(want.value).replace(
        "str, int, float, bool or None", "str or int")


@pytest.mark.parametrize("value, message", [
    (1.5, "Object of type float is not JSON serializable"),
    ([math.nan], "Object of type float is not JSON serializable"),
    ({"k": math.inf}, "Object of type float is not JSON serializable"),
    ({"k": (1, 2)}, "Object of type tuple is not JSON serializable"),
    ({1.5: 0}, "keys must be str or int, not float"),
    ({"a": {True: 0}}, "keys must be str or int, not bool"),
    ({None: 0}, "keys must be str or int, not NoneType"),
], ids=["float", "nan", "inf", "tuple", "float-key", "bool-key", "None-key"])
def test_the_report_writer_refuses_what_a_report_cannot_hold(value, message):
    # json writes each of these; a report holds none of them
    with pytest.raises(TypeError, match=f"^{message}$"):
        cli._dumps(value)


@pytest.mark.parametrize("suite", ["lattice", "backlund", "atlas", "all",
                                   "suite-error"])
def test_the_report_writer_writes_each_report_as_json_does(monkeypatch, suite):
    if suite == "suite-error":
        def broken():
            raise atlas.AtlasError("no chart change W4 -> W3")
        monkeypatch.setitem(cli._SUITES, "backlund", broken)
        rep = cli.run_suite("all")
        assert rep["checks"][-1]["id"] == "suite-error[backlund]"
    else:
        rep = cli.run_suite(suite)
    assert cli._dumps(rep) == json.dumps(rep, indent=2)


LIGHT_IMPORT = """
import sys, p2lab.cli
print(sorted(m for m in ("dataclasses", "inspect", "typing")
             if m in sys.modules))
"""


def test_the_cli_import_loads_no_dataclasses_inspect_or_typing(checkout_env):
    # start-up: the records are namedtuples and slotted classes, and the
    # stdlib modules the package imports load none of the three; -S keeps
    # site (and what it imports) out of the child
    r = subprocess.run([sys.executable, "-S", "-c", LIGHT_IMPORT],
                       capture_output=True, text=True, timeout=600,
                       env=checkout_env)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "[]\n"


def some_chain_trace():
    return blowup.chain_trace(blowup.curve_specs()["C1"])


@pytest.mark.parametrize("make, field", [
    pytest.param(lambda: atlas.transition("W1", "W3"), "y_img",
                 id="Transition"),
    pytest.param(lambda: atlas.symplectic_form("W1"), "dy_dz",
                 id="RelTwoForm"),
    pytest.param(lambda: atlas.RelOneForm(*atlas.hamilton_field("W1")), "dz",
                 id="RelOneForm"),
    pytest.param(lambda: backlund.PII, "images", id="Derivation"),
    pytest.param(backlund.shift_up, "g", id="PIIMap"),
    pytest.param(backlund.phase_reflection, "c_img", id="PhaseMap"),
    pytest.param(lambda: blowup.curve_specs()["C4"], "proper_steps",
                 id="CurveSpec"),
    pytest.param(lambda: some_chain_trace().steps[0], "multiplicity",
                 id="ChainStep"),
    pytest.param(some_chain_trace, "dropped_section_power", id="ChainTrace"),
    pytest.param(lambda: blowup.verify_intersection_table()[0], "status",
                 id="TableCheck"),
    pytest.param(lattice.DivisorClass.zero, "coeffs", id="DivisorClass"),
    pytest.param(lattice.euler_invariants, "K2", id="EulerInvariants"),
    pytest.param(weyl.istar, "matrix", id="LatticeIsometry"),
    pytest.param(flow.IntegratorConfig, "rtol", id="IntegratorConfig"),
    pytest.param(lambda: flow.FlowState("W1", 0.0, 0.0, 0.0, 0.5), "chart",
                 id="FlowState"),
    pytest.param(lambda: flow.SwitchEvent(1.0, "W1", "W3", 2.0, 0.0, 0.5,
                                          0.0), "to_chart", id="SwitchEvent"),
])
def test_a_field_of_an_immutable_record_cannot_be_assigned(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_integrate_grid_sample_matches_the_committed_digests():
    # every 29th command of the benchmark's integrate grid, and the pole
    # demo that ends it; CI replays all of them (tests/grid_digests.py)
    commands = grid_digests.integrate_grid()
    sample = commands[::29] + commands[-1:]
    assert grid_digests.mismatches(sample, grid_digests.load()) == []


def test_lattice_grid_sample_matches_the_committed_digests():
    # every curves table of the benchmark's lattice grid, whose columns are
    # in the registry's order, and every 23rd command; CI replays all of
    # them, cold and warm (tests/grid_digests.py)
    commands = grid_digests.load_workloads().lattice_grid()
    sample = [a for a in commands if a[0] == "curves"] + commands[::23]
    assert grid_digests.lattice_mismatches(sample) == []


def reference_output(traj):
    """``integrate``'s stdout and stderr for a trajectory as the command
    wrote them before its rows were generated: a generator of rows with
    one ``to_w1`` call per row outside the base chart, and one
    ``json.dumps`` per switch event."""
    switch_times = {ev.t for ev in traj.switches}
    to_w1 = flow.to_w1

    def rows():
        yield "t,chart,y,z,q_equiv,p_equiv,switch_flag\n"
        for s in traj.states:
            chart, y, z, t, _ = s
            flag = 1 if t in switch_times else 0
            if chart == "W1":
                yz = "%.17g,%.17g" % (y, z)
                yield "%.17g,W1,%s,%s,%d\n" % (t, yz, yz, flag)
            else:
                q, p = to_w1(s)
                yield "%.17g,%s,%.17g,%.17g,%.17g,%.17g,%d\n" % (
                    t, chart, y, z, q, p, flag)

    out, err = io.StringIO(), io.StringIO()
    out.writelines(rows())
    for ev in traj.switches:
        print(json.dumps({"event": "switch", "t": f"{ev.t:.17g}",
                          "from": ev.from_chart, "to": ev.to_chart}),
              file=err)
    return out.getvalue(), err.getvalue()


def integrate_output(argv, traj=None):
    """(stdout, stderr, trajectory) of one in-process ``integrate``
    command that must succeed; given ``traj``, ``flow.integrate`` returns
    it instead of integrating."""
    seen = []
    integrate = flow.integrate

    def recorded(*args):
        seen.append(traj if traj is not None else integrate(*args))
        return seen[-1]

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr(flow, "integrate", recorded)
        assert cli.run(argv) == 0
    return out.getvalue(), err.getvalue(), seen[0]


@settings(max_examples=30, deadline=None)
@given(st.fractions(-2, 2, max_denominator=6), st.floats(-1.5, 1.5),
       st.floats(-1.5, 1.5), st.floats(-6.0, 6.0))
@example(Fraction(-1), -1.5, 0.0, 10.0)        # the W12 trajectory
def test_generated_rows_match_the_reference_on_integrations(c, q0, p0, t1):
    out, err, traj = integrate_output(integrate_argv(
        c=c, q0=repr(q0), p0=repr(p0), t1=repr(t1)))
    event(f"{len(traj.switches)} switches")
    assert (out, err) == reference_output(traj)


# a pole-chart state on the removed divisor (y = 0 or -0.0) and one whose
# change to W1 overflows (y = +-1e200) prints nan for q_equiv and p_equiv
edge_coords = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1e200, -1e200, math.inf, -math.inf,
                     math.nan]))
times = st.one_of(st.floats(-10.0, 10.0),
                  st.sampled_from([0.0, -0.0, math.inf, math.nan]))
charts = st.sampled_from(atlas.CHARTS)


@st.composite
def trajectories(draw):
    """Hand-built trajectories: any states, and switch events at some of
    the states' times and at other times."""
    states = draw(st.lists(st.builds(flow.FlowState, charts, edge_coords,
                                     edge_coords, times, st.floats(-2, 2)),
                           min_size=1, max_size=12))
    at = draw(st.lists(st.one_of(st.sampled_from([s.t for s in states]),
                                 times), max_size=4))
    switches = [flow.SwitchEvent(t, draw(charts), draw(charts), 0.0, 0.0,
                                 0.0, 0.0) for t in at]
    return built_trajectory(states, switches)


def built_trajectory(states, switches=()):
    traj = flow.Trajectory(0.5)
    traj.states.extend(states)
    traj.switches.extend(switches)
    return traj


@given(trajectories())
@example(built_trajectory([
    flow.FlowState(chart, y, 1.0, 0.5, 0.5) for chart in ("W3", "W12")
    for y in (0.0, -0.0, 1e200, -1e200)]))
def test_generated_rows_match_the_reference_on_built_trajectories(traj):
    out, err, _ = integrate_output(integrate_argv(), traj)
    assert (out, err) == reference_output(traj)


POLE_DEMO_STATS = {
    "field_evals": 5684, "accepted": 946,
    "rejected": {"error_norm": 0, "overflow": 0, "non_finite": 0},
    "forced": 0, "h_min": 0.000772070560381874, "h_max": 0.025749308263414674,
    "steps_per_chart": {"W1": 433, "W3": 513, "W12": 0}, "switches": 7}
W12_STATS = {
    "field_evals": 11968, "accepted": 1983,
    "rejected": {"error_norm": 9, "overflow": 0, "non_finite": 0},
    "forced": 0, "h_min": 0.00015261333068394833,
    "h_max": 0.029327255579897574,
    "steps_per_chart": {"W1": 305, "W3": 800, "W12": 878}, "switches": 15}
# every error norm is 0, so h grows fivefold up to its cap; before, h
# shrank after each step until it underflowed (exit 2)
LOOSE_STATS = {
    "field_evals": 49, "accepted": 8,
    "rejected": {"error_norm": 0, "overflow": 0, "non_finite": 0},
    "forced": 0, "h_min": 0.001, "h_max": 0.25,
    "steps_per_chart": {"W1": 8, "W3": 0, "W12": 0}, "switches": 0}


@pytest.mark.parametrize("argv,stats", [
    (["integrate", "--c", "1/2", "--t0", "0", "--t1", "8", "--q0", "0",
      "--p0", "0"], POLE_DEMO_STATS),
    (["integrate", "--c=-1", "--t0=0.0", "--t1=10.0", "--q0=-1.5",
      "--p0=0.0"], W12_STATS),
    (["integrate", "--c", "1/2", "--t0", "0", "--t1", "1", "--q0", "0",
      "--p0", "0", "--rtol", "1e300"], LOOSE_STATS),
])
def test_integrate_stats(capsys, argv, stats):
    # --stats appends one JSON line to stderr and changes nothing else;
    # six field evaluations a step, and one more at the start and after
    # each switch
    plain = run_in_process(capsys, *argv)
    code, out, err = run_in_process(capsys, *argv, "--stats")
    last = err.splitlines()[-1]
    assert (code, out, err) == (plain[0], plain[1], plain[2] + last + "\n")
    # each integrates to t1
    t1 = cli.build_parser().parse_args(argv).t1
    assert code == 0 and float(out.splitlines()[-1].split(",")[0]) == t1
    assert json.loads(last) == {"stats": stats}
    assert stats["field_evals"] == 6 * (
        stats["accepted"] + sum(stats["rejected"].values())
    ) + 1 + stats["switches"]
    assert sum(stats["steps_per_chart"].values()) == stats["accepted"]


@pytest.mark.parametrize("t0,t1", [("5", "5.000000000000001"),
                                   ("0", "1e-15")])
def test_a_span_below_the_step_size_floor_is_one_final_step(capsys, t0, t1):
    # before, both exited 2 with "step size underflow": the floor was
    # tested before the step was cut to end at t1
    code, out, err = run_in_process(capsys, "integrate", "--c", "1/2",
                                    f"--t0={t0}", f"--t1={t1}", "--q0", "0",
                                    "--p0", "0", "--stats")
    rows = out.splitlines()[1:]
    assert code == 0 and len(rows) == 2
    assert [float(row.split(",")[0]) for row in rows] == [float(t0),
                                                          float(t1)]
    stats = json.loads(err)["stats"]
    assert (stats["accepted"], stats["h_min"]) == (
        1, float(t1) - float(t0))


def test_verify_all_computes_each_cocycle_once(capsys):
    # the cocycle checks and cocycle-additivity share three values
    atlas.ks_cocycle.cache_clear()
    assert cli.run(["verify", "all"]) == 0
    capsys.readouterr()
    info = atlas.ks_cocycle.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_verify_all_walks_the_orbit_once(monkeypatch, capsys):
    # From cold caches, one verify all walks the -1-class orbit once,
    # derives each regime's engine classes once (2,573 class applications
    # and 54 chain traces before both were shared), moves each curve to W4
    # once per regime (34 derivations before the chain trace shared its
    # equation), and takes one Smith form per sublattice containment test
    # (one per vector before), none when both lists hold the same classes.
    # The orbit check reads each class's mod-boundary pair as its pairings
    # with the vanishing cycles, so it takes no Smith form (58 in all
    # before, 50 of them one reduce_mod_boundary per orbit class).
    monkeypatch.setattr(weyl, "_WALK", [])
    for cached in (weyl._basis_change, weyl.jstar, weyl.istar,
                   weyl.tplus_star):
        cached.cache_clear()
    blowup.engine_classes.cache_clear()
    blowup._bindings.cache_clear()
    lattice.named_classes.cache_clear()
    atlas._period_ends.cache_clear()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(weyl.LatticeIsometry, "apply",
                        counted("apply", weyl.LatticeIsometry.apply))
    monkeypatch.setattr(blowup, "chain_trace",
                        counted("chain_trace", blowup.chain_trace))
    monkeypatch.setattr(blowup, "to_w4", counted("to_w4", blowup.to_w4))
    monkeypatch.setattr(intlinalg, "smith_normal_form",
                        counted("snf", intlinalg.smith_normal_form))
    monkeypatch.setattr(intlinalg, "det", counted("det", intlinalg.det))
    monkeypatch.setattr(weyl, "reduce_mod_boundary",
                        counted("reduce", weyl.reduce_mod_boundary))
    containment = []
    sublattice_equal = lattice.sublattice_equal

    def counted_sublattice_equal(gens_a, gens_b):
        before = calls["snf"]
        equal = sublattice_equal(gens_a, gens_b)
        containment.append((equal, calls["snf"] - before))
        return equal
    monkeypatch.setattr(lattice, "sublattice_equal", counted_sublattice_equal)
    assert cli.run(["verify", "all"]) == 0
    capsys.readouterr()
    assert 0 < calls["apply"] <= 125
    assert 0 < calls["chain_trace"] <= 20
    assert 0 < calls["to_w4"] <= 20
    # the two complements are two containment tests, one Smith form each;
    # jstar and istar only permute the D's, which takes none
    assert containment == [(True, 2), (True, 2), (True, 0), (True, 0)]
    # the two complements' kernels, the four containment solves and the
    # inverse of the action basis, which the section expansion reads (it
    # took a Smith-form solve of its own before)
    assert calls["snf"] == 7
    # that inverse's Smith form is the unimodularity check (a Bareiss
    # determinant checked it again before)
    assert calls["det"] == 0
    assert calls["reduce"] == 0


@pytest.mark.parametrize("wrong", ["closed-form", "recurrence-and-closed-form"])
def test_a_wrong_orbit_pair_fails_the_orbit_check(monkeypatch, wrong):
    # one wrong pair at n = 37 fails orbit-invariants; with the recurrence
    # and the closed form wrong alike, the vanishing-cycle pairings see it
    def bent(fn):
        return lambda n: (-n, n + 2) if n == 37 else fn(n)
    monkeypatch.setattr(weyl, "gamma_mod_closed_form",
                        bent(weyl.gamma_mod_closed_form))
    if wrong == "recurrence-and-closed-form":
        monkeypatch.setattr(weyl, "gamma_mod", bent(weyl.gamma_mod))
    status = {c["id"]: c["status"] for c in cli.lattice_checks()}
    assert status["orbit-invariants"] == "fail"
    assert status["orbit-seed"] == "pass"


def test_the_cached_parser_answers_like_fresh_ones(monkeypatch, capsys):
    # the parser is built once per process; a usage error must leave
    # nothing behind for the next command
    sequence = [["gamma", "--n", "0"], ["gamma", "--n", "3"],
                ["integrate", "--c", "1/2"], ["periods", "--c", "1/3"],
                ["verify"], ["orbit", "--n-max", "2"]]
    cached = [run_in_process(capsys, *argv) for argv in sequence]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run_in_process(capsys, *argv) for argv in sequence]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 2, 0, 2, 0]


def test_a_flow_error_is_a_one_line_usage_error(capsys):
    # every RK stage overflows, so the step size collapses; the next
    # command in the process is unaffected
    code, out, err = run_in_process(capsys, *integrate_argv(q0="1e200"))
    assert (code, out) == (2, "")
    assert err == "p2lab: error: step size underflow\n"
    assert run_in_process(capsys, "gamma", "--n", "3") == (0, "(-3, 4)\n",
                                                          "")


def underflow_stats(field_evals):
    # 16 steps, each rejected for an OverflowError, take h from 1e-3 under
    # the floor 1e-14
    return {"field_evals": field_evals, "accepted": 0,
            "rejected": {"error_norm": 0, "overflow": 16, "non_finite": 0},
            "forced": 0, "h_min": None, "h_max": None,
            "steps_per_chart": {"W1": 0, "W3": 0, "W12": 0}, "switches": 0}


UNDERFLOW = "p2lab: error: step size underflow\n"


@pytest.mark.parametrize("opts,stats,error", [
    # the error norm overflows after all seven stages of every step
    ({"rtol": "1e-300", "atol": "1e-300"}, underflow_stats(7 * 16),
     UNDERFLOW),
    # the first stage overflows every time
    ({"q0": "1e200"}, underflow_stats(16), UNDERFLOW),
    # on the removed divisor: one step in W1, then no chart keeps the
    # state finite; the stats count that segment's step
    ({"q0": "2e8", "p0": "2e8"},
     {"field_evals": 77, "accepted": 1,
      "rejected": {"error_norm": 7, "overflow": 4, "non_finite": 0},
      "forced": 0, "h_min": 8.638336954945925e-11,
      "h_max": 8.638336954945925e-11,
      "steps_per_chart": {"W1": 1, "W3": 0, "W12": 0}, "switches": 0},
     "p2lab: error: no finite chart at t=8.638336954945925e-11 "
     "(smallest size 203516080.9835717)\n"),
], ids=["norm-overflow", "first-stage-overflow", "no-chart"])
def test_a_failed_integration_writes_its_stats_before_the_error(capsys, opts,
                                                                stats, error):
    # stdout stays empty and the exit status 2; with --stats, stderr is
    # the stats line and then the one-line error
    argv = integrate_argv(**opts)
    assert run_in_process(capsys, *argv) == (2, "", error)
    code, out, err = run_in_process(capsys, *argv, "--stats")
    assert (code, out) == (2, "")
    first, last = err.splitlines(keepends=True)
    assert json.loads(first) == {"stats": stats}
    assert last == error


def integrate_argv(**opts):
    argv = {"c": "1/2", "t0": "0", "t1": "1", "q0": "0", "p0": "0", **opts}
    return ["integrate"] + [f"--{k}={v}" for k, v in argv.items()]


@pytest.mark.parametrize("argv", [
    lambda c: ["periods", f"--c={c}"],
    lambda c: integrate_argv(c=c),
], ids=["periods", "integrate"])
def test_c_refuses_underscores_and_inner_whitespace(argv, capsys):
    # Fraction takes the first two from 3.11 on and the last two from
    # 3.12 on; --c refuses all four on every interpreter
    for c in ("1_0", "1e1_0", "1 /3", "1/ 3"):
        assert run_in_process(capsys, *argv(c)) == (
            2, "", f"p2lab: error: argument --c: not a rational number "
                   f"that prints: {c!r}\n")
    # whitespace around the number is stripped, as every version does
    code, out, _ = run_in_process(capsys, *argv(" 1/3 "))
    assert code == 0 and out


def test_a_negative_rational_value_takes_an_equals_sign(capsys):
    # argparse reads "-1/2" after "--c" as an option, not as its value
    for argv in (["integrate", "--c", "-1/2", "--t0", "0", "--t1", "1",
                  "--q0", "0", "--p0", "0"], ["periods", "--c", "-1/3"]):
        assert run_in_process(capsys, *argv) == (
            2, "", "p2lab: error: argument --c: expected one argument\n")
    code, out, _ = run_in_process(capsys, *integrate_argv(c="-1/2"))
    assert code == 0 and out.splitlines()[-1].startswith("1,W1,")
    assert run_in_process(capsys, "periods", "--c=-1/3") == (
        0, "period(C2-C1) = -1/3\nperiod(C4-C3) = -2/3\n", "")


@pytest.mark.parametrize("argv", [
    ["gamma", "--n=99999999999999999999"],
    ["gamma", "--n=99999999999999999999", "--full"],
    ["orbit", "--n-max=99999999999999999999"],
    ["gamma", f"--n={cli.ORBIT_N_MAX + 1}"],
    ["orbit", f"--n-max={cli.ORBIT_N_MAX + 1}"],
])
def test_orbit_indices_past_the_ceiling_are_usage_errors(argv, capsys):
    # before, each of the first three ran until it was killed
    option, value = argv[1].split("=")
    assert run_in_process(capsys, *argv) == (
        2, "", f"p2lab: error: argument {option}: orbit index {value!r} "
               f"exceeds the ceiling {cli.ORBIT_N_MAX}\n")


def test_the_orbit_ceiling_is_allowed_and_stated(capsys):
    n = cli.ORBIT_N_MAX
    assert run_in_process(capsys, "gamma", f"--n={n}") == (
        0, f"{(-n, n + 1)}\n", "")
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert f"above {n}" in " ".join(readme.split())


def test_the_orbit_table_up_to_the_ceiling_has_the_closed_form_mod(capsys):
    # each row's mod-boundary pair is a Smith-form solve of its own
    n_max = cli.ORBIT_N_MAX
    code, out, err = run_in_process(capsys, "orbit", f"--n-max={n_max}")
    rows = out.splitlines()
    assert (code, err, len(rows)) == (0, "", n_max)
    bad = [row for n, row in enumerate(rows, 1)
           if not re.fullmatch(rf"n={n} .* mod=\(-{n}, {n + 1}\)", row)]
    assert not bad


@pytest.mark.parametrize("argv", [
    ["gamma", "--n", "0"],
    ["gamma", "--n", "x"],
    ["periods", "--c", "abc"],
    ["integrate", "--c", "1/0", "--t0", "0", "--t1", "1",
     "--q0", "0", "--p0", "0"],
    # every RK stage overflows, so the step size collapses: a FlowError
    ["integrate", "--c", "1/2", "--t0", "0", "--t1", "1",
     "--q0", "1e200", "--p0", "0"],
    integrate_argv(t1="x"),
    # non-finite numbers: before, --t1 nan printed a nan row and exited 0,
    # --t1 inf ran to the step budget and --rtol nan to step-size underflow
    *[integrate_argv(**{option: value})
      for option in ("t0", "t1", "q0", "p0", "rtol", "atol", "R")
      for value in ("nan", "inf", "-inf", "1e400")],
    # before, both printed an empty table and exited 0
    ["orbit", "--n-max", "0"],
    ["orbit", "--n-max", "-3"],
    # exact, but its float overflows: before, a traceback and exit 1
    integrate_argv(c="1e400"),
    integrate_argv(c="-1e400"),
    # exact, but past the digits an int prints: before, a traceback and
    # exit 1
    ["periods", "--c", "1e5000"],
    ["periods", "--c", "1e-5000"],
])
def test_bad_input_is_a_one_line_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("p2lab: error: ")


def test_the_integrate_defaults_are_the_integrator_configs():
    args = cli.build_parser().parse_args(integrate_argv())
    assert (args.rtol, args.atol, args.R) == tuple(flow.IntegratorConfig())


@pytest.mark.parametrize("script", ["orbit_growth", "table_audit",
                                    "pole_crossing_demo"])
def test_the_script_runs_to_completion(script, checkout_env, tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{script}.py"
    args = ["--out", str(tmp_path)] if script == "table_audit" else []
    r = subprocess.run([sys.executable, str(path), *args], capture_output=True,
                       text=True, timeout=600, env=checkout_env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr


def test_the_replay_script_imports_this_checkouts_src(tmp_path):
    # run as its docstring says, with nothing on PYTHONPATH, the replay's
    # in-process groups import the p2lab its child runs import
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = ("import runpy, sys; runpy.run_path(sys.argv[1]); "
            "import p2lab; print(p2lab.__file__)")
    r = subprocess.run([sys.executable, "-c", code,
                        str(Path(grid_digests.__file__).resolve())],
                       capture_output=True, text=True, timeout=600, env=env,
                       cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert Path(r.stdout.strip()).resolve() == \
        grid_digests.SRC / "p2lab" / "__init__.py"
