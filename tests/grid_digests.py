"""Byte-identity replay of every command of the benchmark grid
(``perfbench/workloads.py``): the 421 lattice-side commands of
``lattice_grid()`` (curves, orbits, gammas and periods), twice in one
process, cold then warm, and the 638 `p2lab integrate` commands of
``integrate_grid()``.

    python tests/grid_digests.py            # replay, compare with the files
    python tests/grid_digests.py --write    # record the integrate digests,
                                            # on a tree known right

Each command runs in-process through ``p2lab.cli.run``.  A lattice
command's stdout is checked by ``workloads.check_lattice`` against
``perfbench/expected/lattice_tables.json``, which
``perfbench/make_expected.py`` records; the warm pass reads every cache
the cold pass filled.  An integrate command's digest is the sha256 of
``json.dumps([exit status, stdout, stderr])``; the digests are kept in
``tests/integrate_grid.json``, keyed by the space-joined argv.  The
script prints one line per group and exits 1 on any mismatch.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "integrate_grid.json"


def load_workloads():
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def integrate_grid() -> list:
    return load_workloads().integrate_grid()


def digest(argv) -> str:
    from p2lab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def load() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def mismatches(commands, expected: dict) -> list:
    """The integrate commands whose digest differs from the recorded
    one."""
    return [" ".join(argv) for argv in commands
            if digest(argv) != expected.get(" ".join(argv))]


def lattice_mismatches(commands) -> list:
    """The lattice commands whose stdout or exit status differs from the
    committed one, each with the reason."""
    from p2lab import cli
    wl = load_workloads()
    expected = wl.load_expected("lattice_tables")
    bad = []
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.run(argv)
        why = wl.check_lattice(argv, out.getvalue(), rc, expected)
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
    lattice = load_workloads().lattice_grid()
    bad_lattice = [f"{label} {line}" for label in ("cold", "warm")
                   for line in lattice_mismatches(lattice)]
    print("\n".join(bad_lattice)
          or f"all {len(lattice)} lattice commands match, cold and warm")
    bad = mismatches(commands, load())
    print("\n".join(bad) or f"all {len(commands)} integrate commands match")
    return 1 if bad or bad_lattice else 0


if __name__ == "__main__":
    sys.exit(main())
