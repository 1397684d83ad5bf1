"""End-to-end checks of the command-line surface: output contracts,
exit codes, and byte-for-byte determinism across runs.  Output contracts
run in-process through ``cli.run``; the entry point, its exit codes and
determinism across processes run as subprocesses."""
import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from p2lab import atlas, blowup, cli, weyl


def run_cli(env, *args):
    """One run of this checkout through the ``python -m p2lab.cli`` entry
    point, in the environment ``env``."""
    return subprocess.run([sys.executable, "-m", "p2lab.cli", *args],
                          capture_output=True, text=True, timeout=600,
                          env=env)


def run_in_process(capsys, *args):
    """Exit status, stdout and stderr of one in-process ``cli.run``."""
    code = cli.run(list(args))
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
    # the README pole demo's CSV, pinned across Python versions; CI checks
    # the same digest file against the installed entry point
    want = (Path(__file__).parent / "pole_demo.sha256").read_text().strip()
    assert cli.run(["integrate", "--c", "1/2", "--t0", "0", "--t1", "8",
                    "--q0", "0", "--p0", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_w12_trajectory_digest(capsys):
    # a trajectory through all three charts with rejected steps (1983
    # accepted, 9 rejected, 15 switches): the digest is of stdout followed
    # by stderr, pinned like the pole demo's and checked in CI the same way
    want = (Path(__file__).parent / "w12_trajectory.sha256").read_text().strip()
    assert cli.run(["integrate", "--c=-1", "--t0=0.0", "--t1=10.0",
                    "--q0=-1.5", "--p0=0.0"]) == 0
    out, err = capsys.readouterr()
    assert "W12" in out
    assert hashlib.sha256((out + err).encode()).hexdigest() == want


def test_verify_all_computes_each_cocycle_once(capsys):
    # the cocycle checks and cocycle-additivity share three values
    atlas.ks_cocycle.cache_clear()
    assert cli.run(["verify", "all"]) == 0
    capsys.readouterr()
    info = atlas.ks_cocycle.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_verify_all_walks_the_orbit_once(monkeypatch, capsys):
    # From cold caches, one verify all walks the -1-class orbit once and
    # derives each regime's engine classes once (2,573 class applications
    # and 54 chain traces before both were shared).
    monkeypatch.setattr(weyl, "_WALK", [])
    blowup.engine_classes.cache_clear()
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
    assert cli.run(["verify", "all"]) == 0
    capsys.readouterr()
    assert 0 < calls["apply"] <= 125
    assert 0 < calls["chain_trace"] <= 20


def integrate_argv(**opts):
    argv = {"c": "1/2", "t0": "0", "t1": "1", "q0": "0", "p0": "0", **opts}
    return ["integrate"] + [f"--{k}={v}" for k, v in argv.items()]


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
])
def test_bad_input_is_a_one_line_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("p2lab: error: ")
