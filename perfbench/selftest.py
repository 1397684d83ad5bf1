"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) it makes the smallest run,
``--seconds 1``, which is one pass, and asserts that the run passes and
prints every end-to-end metric by name with its unit.  It then corrupts
one committed expectation that every pass consults, in a temporary copy
of ``expected/``, and asserts that the same run now reports a failed
operation and exits non-zero, so the correctness gate is known to bite.
verify_all's pass is a full ``verify all``, so the whole test takes a
few minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from run import E2E, GATED  # noqa: E402


def run(workload, expected_dir=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    if expected_dir:
        cmd += ["--expected-dir", expected_dir]
    p = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().split("\n")
    return p.returncode, lines[:-1], json.loads(lines[-1])


def corrupt(workload: str, directory: Path) -> None:
    path = directory / f"{workload}.json"
    data = json.loads(path.read_text())
    if workload == "verify_all":
        data["checks"][0][1] = "fail"
    elif workload == "integrate_poles":
        ref = data[" ".join(wl.integrate_argv(*wl.POLE_DEMO))]
        ref[1] += 1.0
    else:
        data["verify lattice --json"] = "0" * 64
    path.write_text(json.dumps(data))


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def check(workload: str) -> None:
    rc, report, result = run(workload)
    expect(rc == 0, f"{workload}: exit status {rc}")
    expect(result["correct"] and result["failed"] == 0,
           f"{workload}: {result['failed']} failed operations")
    rows = [line.split() for line in report]
    for name, (unit, _) in E2E.items():
        expect(any(r[:1] == [name] and r[2:3] == [unit] for r in rows),
               f"{workload}: {name} [{unit}] not printed")
    for name in GATED:
        m = result["metrics"][name]
        expect(m["unit"] == E2E[name][0] and m["value"] > 0,
               f"{workload}: result metric {name} is {m}")
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for f in wl.EXPECTED_DIR.glob("*.json"):
            shutil.copy(f, tmp)
        corrupt(workload, Path(tmp))
        rc, _, result = run(workload, tmp)
    expect(rc != 0, f"{workload}: corrupted expectation still exits 0")
    expect(not result["correct"] and result["failed"] >= 1,
           f"{workload}: corrupted expectation not reported as a failure")
    print(f"{workload}: ok ({result['attempted']} operations, "
          f"{result['failed']} failed against the corrupted expectation)")


def main(names) -> int:
    for name in names or wl.WORKLOADS:
        check(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
