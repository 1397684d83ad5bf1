"""Byte-identity replay of every pinned output, stdlib only:

- ``p2lab verify all --json`` against ``perfbench/expected/verify_all.json``
  (its check list and its sha256), which ``perfbench/make_expected.py``
  records: cold, as the first command of the process, then warm, and in
  child processes of the same interpreter under ``-O`` and under
  ``PYTHONHASHSEED`` 0, 1 and 4242;
- the 421 lattice-side commands of the benchmark grid's
  ``lattice_grid()`` (``perfbench/workloads.py``: curves, orbits, gammas
  and periods), twice, cold then warm;
- the 638 `p2lab integrate` commands of ``integrate_grid()``;
- the README pole demo, whose stdout's sha256 is ``tests/pole_demo.sha256``;
- the W12 trajectory, whose stdout then stderr hash to
  ``tests/w12_trajectory.sha256``.

    python tests/grid_digests.py            # replay, compare with the files
    python tests/grid_digests.py --write    # record the integrate digests,
                                            # on a tree known right

Every command runs in-process through ``p2lab.cli.run``, except the
child verify runs: each is ``python -m p2lab.cli`` with this checkout's
``src`` first on its ``PYTHONPATH``.  The script puts the same ``src``
first on its own ``sys.path`` when it loads, so both replay this tree,
with nothing installed too.  A lattice command's stdout is checked by ``workloads.check_lattice`` against
``perfbench/expected/lattice_tables.json``; the warm pass reads every
cache the cold pass filled.  An integrate command's digest is the sha256
of ``json.dumps([exit status, stdout, stderr])``; the digests are kept in
``tests/integrate_grid.json``, keyed by the space-joined argv.  The
script prints one line per group and exits 1 on any mismatch.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
DIGESTS = HERE / "integrate_grid.json"
POLE_DEMO = ["integrate", "--c", "1/2", "--t0", "0", "--t1", "8",
             "--q0", "0", "--p0", "0"]
W12_TRAJECTORY = ["integrate", "--c=-1", "--t0=0.0", "--t1=10.0",
                  "--q0=-1.5", "--p0=0.0"]


def load_workloads():
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def integrate_grid() -> list:
    return load_workloads().integrate_grid()


def run(argv) -> tuple:
    """Exit status, stdout and stderr of one in-process ``cli.run``."""
    from p2lab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(argv) -> str:
    return load_workloads().digest(json.dumps(list(run(argv))))


def load() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def mismatches(commands, expected: dict) -> list:
    """The integrate commands whose digest differs from the recorded
    one."""
    return [" ".join(argv) for argv in commands
            if digest(argv) != expected.get(" ".join(argv))]


def committed_verify_digest() -> str:
    """The sha256 of ``verify all --json`` that the benchmark checks, read
    here and never written."""
    return load_workloads().load_expected("verify_all")["sha256"]


def verify_mismatch() -> str:
    """Why ``verify all --json`` differs from the committed report, or the
    empty string."""
    wl = load_workloads()
    code, out, _ = run(wl.VERIFY_ALL_ARGV)
    return wl.check_verify_all(out, code, wl.load_expected("verify_all"))


# the child runs: (label, interpreter flags, environment additions)
CHILD_VERIFY_RUNS = (("-O", ["-O"], {}), *(
    (f"PYTHONHASHSEED={seed}", [], {"PYTHONHASHSEED": seed})
    for seed in ("0", "1", "4242")))


def child_verify_mismatch(flags, env) -> str:
    """Why ``verify all --json``, run in a child of this interpreter with
    the flags and the environment additions, differs from the committed
    report, or the empty string."""
    wl = load_workloads()
    child_env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    r = subprocess.run([sys.executable, *flags, "-m", "p2lab.cli",
                        *wl.VERIFY_ALL_ARGV], capture_output=True,
                       timeout=600, env=child_env)
    return wl.check_verify_all(r.stdout.decode("utf-8", "replace"),
                               r.returncode, wl.load_expected("verify_all"))


def pinned_mismatch(argv, name: str, with_stderr: bool = False) -> str:
    """Why the command's stdout (then stderr, with ``with_stderr``) does
    not hash to the digest in ``tests/<name>``, or the empty string."""
    want = (HERE / name).read_text().strip()
    code, out, err = run(argv)
    got = load_workloads().digest(out + err if with_stderr else out)
    if code != 0:
        return f"exit status {code}"
    return "" if got == want else f"sha256 {got}, not {want}"


def lattice_mismatches(commands) -> list:
    """The lattice commands whose stdout or exit status differs from the
    committed one, each with the reason."""
    wl = load_workloads()
    expected = wl.load_expected("lattice_tables")
    bad = []
    for argv in commands:
        rc, out, _ = run(argv)
        why = wl.check_lattice(argv, out, rc, expected)
        if why:
            bad.append(" ".join(argv) + ": " + why)
    return bad


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    commands = integrate_grid()
    if args == ["--write"]:
        table = {" ".join(a): digest(a) for a in commands}
        DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests to {DIGESTS.name}")
        return 0
    if args:
        print(__doc__, file=sys.stderr)
        return 2
    bad = []

    def report(lines, ok: str):
        bad.extend(lines)
        print("\n".join(lines) or ok)

    for label in ("cold", "warm"):
        why = verify_mismatch()
        report([f"verify all --json, {label}: {why}"] if why else [],
               f"verify all --json matches the committed report, {label}")
    for label, flags, env in CHILD_VERIFY_RUNS:
        why = child_verify_mismatch(flags, env)
        report([f"verify all --json, child {label}: {why}"] if why else [],
               f"verify all --json matches the committed report, "
               f"child {label}")
    lattice = load_workloads().lattice_grid()
    report([f"{label} {line}" for label in ("cold", "warm")
            for line in lattice_mismatches(lattice)],
           f"all {len(lattice)} lattice commands match, cold and warm")
    report(mismatches(commands, load()),
           f"all {len(commands)} integrate commands match")
    for label, argv, name, with_stderr in (
            ("pole demo", POLE_DEMO, "pole_demo.sha256", False),
            ("W12 trajectory (stdout, then stderr)", W12_TRAJECTORY,
             "w12_trajectory.sha256", True)):
        why = pinned_mismatch(argv, name, with_stderr)
        report([f"{label}: {why}"] if why else [],
               f"{label} matches tests/{name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
