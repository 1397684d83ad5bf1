"""Seeded inputs and output checks for the three benchmark workloads.

Everything here is deterministic given the seed.  Inputs are drawn from
finite grids so that every possible input has a committed expectation in
``expected/``; ``make_expected.py`` enumerates the same grids to rebuild
those files from a known-good commit.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("verify_all", "integrate_poles", "lattice_tables")

# The calibration kernel (calib.py) that resembles each workload's work.
CALIBRATION_KERNEL = {"verify_all": "exact", "integrate_poles": "numeric",
                      "lattice_tables": "exact"}

# ---------------------------------------------------------------------------
# verify_all: fixed input, one fresh `p2lab verify all --json` per pass

VERIFY_ALL_ARGV = ["verify", "all", "--json"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_verify_all(stdout: str, returncode: int, expected: dict) -> str:
    """Empty string when the report matches the committed one, else the
    reason it does not."""
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        rep = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    got = [[c["id"], c["status"]] for c in rep.get("checks", [])]
    if got != expected["checks"]:
        return "check list or statuses differ from the committed list"
    if digest(stdout) != expected["sha256"]:
        return "stdout digest differs from the committed digest"
    return ""


# ---------------------------------------------------------------------------
# integrate_poles: batches of seeded trajectories through `p2lab integrate`

C_VALUES = tuple(str(Fraction(k, 6)) for k in range(-6, 7))  # has 0 and -1
QP_VALUES = tuple(k / 2 for k in range(-3, 4))    # |q0|, |p0| <= 1.5
WINDOW = (0.0, 10.0)
POLE_DEMO = ("1/2", 0.0, 8.0, 0.0, 0.0)           # the README example
PER_C_PER_PASS = 2                 # trajectories per c value per pass
# Final states are compared in the reference's chart: |got - ref| must not
# exceed FINAL_TOL * max(1, |ref|) in both coordinates.
FINAL_TOL = 1e-6


def integrate_argv(c, t0, t1, q0, p0) -> list:
    return ["integrate", f"--c={c}", f"--t0={t0!r}", f"--t1={t1!r}",
            f"--q0={q0!r}", f"--p0={p0!r}"]


def integrate_grid() -> list:
    """Every command integrate_poles can issue, as argv lists."""
    t0, t1 = WINDOW
    grid = [integrate_argv(c, t0, t1, q, p) for c in C_VALUES
            for q in QP_VALUES for p in QP_VALUES]
    return grid + [integrate_argv(*POLE_DEMO)]


def integrate_pass(rng: random.Random) -> list:
    """Every c value the same number of times, so that passes cost about
    the same; the seed picks (q0, p0) and the order."""
    t0, t1 = WINDOW
    batch = [integrate_argv(c, t0, t1, rng.choice(QP_VALUES),
                            rng.choice(QP_VALUES))
             for c in C_VALUES for _ in range(PER_C_PER_PASS)]
    batch.append(integrate_argv(*POLE_DEMO))
    rng.shuffle(batch)
    return batch


def final_state(stdout: str):
    """(t, chart, y, z) of the last CSV row."""
    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    t, chart, y, z = last.split(",")[:4]
    return float(t), chart, float(y), float(z)


def check_integrate(argv, stdout: str, returncode: int, expected: dict,
                    transport) -> str:
    """``transport`` is ``p2lab.flow.transport``: a final state that ended
    in another chart than the reference's is compared after the exact
    chart change."""
    if returncode != 0:
        return f"exit status {returncode}"
    ref = expected.get(" ".join(argv))
    if ref is None:
        return "no committed reference for this input"
    opts = dict(a[2:].split("=", 1) for a in argv[1:])
    t1 = float(opts["t1"])
    try:
        t, chart, y, z = final_state(stdout)
    except ValueError:
        return "last CSV row is malformed"
    if t != t1:
        return f"ended at t={t!r}, not t1={t1!r}"
    ref_chart, ref_y, ref_z = ref
    if chart != ref_chart:
        y, z = transport(chart, ref_chart, y, z, t, float(Fraction(opts["c"])))
    for got, want in ((y, ref_y), (z, ref_z)):
        if not (math.isfinite(got)
                and abs(got - want) <= FINAL_TOL * max(1.0, abs(want))):
            return (f"final state ({ref_chart}: {y!r}, {z!r}) is not within "
                    f"{FINAL_TOL} of ({ref_y!r}, {ref_z!r})")
    return ""


# ---------------------------------------------------------------------------
# lattice_tables: a seeded mix of in-process lattice-side commands

REGIMES = ("generic", "c=0", "c=-1")
ORBIT_N = tuple(range(100, 301, 10))
GAMMA_N = tuple(range(1, 301))
PERIOD_C = tuple(sorted({Fraction(p, q) for q in range(1, 7)
                         for p in range(-12, 13)}))
GAMMAS_PER_PASS = 6
PERIODS_PER_PASS = 6
ORBITS_PER_PASS = 2


def lattice_grid() -> list:
    """Every command lattice_tables can issue, as argv lists."""
    cmds = [["verify", "lattice", "--json"]]
    cmds += [["curves", f"--regime={r}"] + flag for r in REGIMES
             for flag in ([], ["--discrepancies"])]
    cmds += [["orbit", f"--n-max={n}"] for n in ORBIT_N]
    cmds += [["gamma", f"--n={n}", "--full"] for n in GAMMA_N]
    cmds += [["periods", f"--c={c}"] for c in PERIOD_C]
    return cmds


def lattice_pass(rng: random.Random) -> list:
    """One pass holds the same command kinds in the same numbers whatever
    the seed; the seed picks the parameters and the order."""
    cmds = [["verify", "lattice", "--json"]]
    cmds += [["curves", f"--regime={r}"] + flag for r in REGIMES
             for flag in ([], ["--discrepancies"])]
    cmds += [["orbit", f"--n-max={rng.choice(ORBIT_N)}"]
             for _ in range(ORBITS_PER_PASS)]
    cmds += [["gamma", f"--n={rng.choice(GAMMA_N)}", "--full"]
             for _ in range(GAMMAS_PER_PASS)]
    cmds += [["periods", f"--c={rng.choice(PERIOD_C)}"]
             for _ in range(PERIODS_PER_PASS)]
    rng.shuffle(cmds)
    return cmds


def check_lattice(argv, stdout: str, returncode: int, expected: dict) -> str:
    if returncode != 0:
        return f"exit status {returncode}"
    want = expected.get(" ".join(argv))
    if want is None:
        return "no committed digest for this command"
    if digest(stdout) != want:
        return "stdout digest differs from the committed digest"
    return ""


# ---------------------------------------------------------------------------


def passes(workload: str, seed: int):
    """Endless stream of seeded passes; the same seed gives the same
    stream.  A verify_all pass is the fixed verify command."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "verify_all":
            yield [VERIFY_ALL_ARGV]
        elif workload == "integrate_poles":
            yield integrate_pass(rng)
        elif workload == "lattice_tables":
            yield lattice_pass(rng)
        else:
            raise ValueError(f"unknown workload {workload!r}")


def load_expected(workload: str, directory=None) -> dict:
    path = Path(directory or EXPECTED_DIR) / f"{workload}.json"
    with open(path) as fh:
        return json.load(fh)
