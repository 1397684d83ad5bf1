"""Rebuild the committed expectations in perfbench/expected/.

Run from the repository root on a commit whose outputs are known to be
right (the benchmark treats them as the reference from then on):

    python3 perfbench/make_expected.py [workload ...]

It enumerates every input a workload can draw, runs each through
``p2lab.cli.run`` and records the check list and digest (verify_all), the
final state of each trajectory (integrate_poles) or the stdout digest of
each command (lattice_tables).  Any non-zero exit aborts the rebuild.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from p2lab import cli  # noqa: E402


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit status {rc}")
    return out.getvalue()


def build(workload: str) -> dict:
    if workload == "verify_all":
        text = run_cli(wl.VERIFY_ALL_ARGV)
        checks = [[c["id"], c["status"]] for c in json.loads(text)["checks"]]
        return {"checks": checks, "sha256": wl.digest(text)}
    if workload == "integrate_poles":
        ref = {}
        for argv in wl.integrate_grid():
            _, chart, y, z = wl.final_state(run_cli(argv))
            ref[" ".join(argv)] = [chart, y, z]
        return ref
    if workload == "lattice_tables":
        return {" ".join(argv): wl.digest(run_cli(argv))
                for argv in wl.lattice_grid()}
    raise SystemExit(f"unknown workload {workload!r}")


def main(names) -> None:
    wl.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or wl.WORKLOADS:
        data = build(name)
        path = wl.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: {len(data)} entries")


if __name__ == "__main__":
    main(sys.argv[1:])
