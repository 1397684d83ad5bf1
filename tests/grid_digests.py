"""Byte-identity digests of every `p2lab integrate` command of the
benchmark grid (``perfbench/workloads.py``'s ``integrate_grid()``).

    python tests/grid_digests.py            # replay, compare with the file
    python tests/grid_digests.py --write    # record, on a tree known right

Each command runs in-process through ``p2lab.cli.run``; its digest is the
sha256 of ``json.dumps([exit status, stdout, stderr])``.  The digests are
kept in ``tests/integrate_grid.json``, keyed by the space-joined argv.
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


def integrate_grid() -> list:
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.integrate_grid()


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
    """The commands whose digest differs from the recorded one."""
    return [" ".join(argv) for argv in commands
            if digest(argv) != expected.get(" ".join(argv))]


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
    bad = mismatches(commands, load())
    print("\n".join(bad) or f"all {len(commands)} commands match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
