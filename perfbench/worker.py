"""Worker process: runs one workload's operations in-process and reports.

    python3 perfbench/worker.py --workload W [--seed N] [--seconds T |
        --passes P] [--trace] [--expected-dir DIR]
    python3 perfbench/worker.py --workload W --setup-only

Each operation is one ``p2lab.cli.run(argv)`` call with stdout and stderr
sent to in-memory sinks.  The worker times every operation, checks its
output against the committed expectation outside the timed region, and
prints one JSON report on its real stdout when done.  ``--setup-only``
does the workload's set-up, prints ``ready`` and exits; ``run.py`` times
that from process start.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
CHARTS = ("W1", "W3", "W12")


def setup(workload: str, tracer=None) -> None:
    """Import the package and, for integrate_poles, compile the three
    chart fields and six transitions that a first ``integrate`` call
    would compile."""
    from p2lab import cli, flow  # noqa: F401
    if workload != "integrate_poles":
        return
    if tracer is None:
        _compile(flow)
    else:
        with tracer.span("flow.chart_field_compile"):
            _compile(flow)


def _compile(flow) -> None:
    for chart in CHARTS:
        flow.chart_field(chart)
    for i in CHARTS:
        for j in CHARTS:
            if i != j:
                flow.transport(i, j, 1.0, 1.0, 0.0, 0.0)


def fits_no_more(begin: float, seconds: float, done: int) -> bool:
    """After ``done`` passes since ``begin``: would another pass of the
    mean length so far overrun ``seconds``?"""
    elapsed = perf_counter() - begin
    return elapsed * (done + 1) / done > seconds


def pass_record(sampler, times, steps) -> dict:
    """Raw and calibrated times of one pass; the sampler's own time is
    taken out of every operation it interrupted."""
    rec = {"wall_raw": 0.0, "cpu_raw": 0.0, "wall": 0.0, "cpu": 0.0,
           "ops_ms": [], "steps": steps}
    for t0, t1, cpu in times:
        stolen = sampler.stolen(t0, t1)
        f = sampler.factor(t0, t1)
        wall, cpu = t1 - t0 - stolen, max(cpu - stolen, 0.0)
        rec["wall_raw"] += wall
        rec["cpu_raw"] += cpu
        rec["wall"] += f * wall
        rec["cpu"] += f * cpu
        rec["ops_ms"].append(1000.0 * f * wall)
    return rec


def run_op(cli, argv):
    """(returncode or error text, stdout, start, end, cpu s) of one
    command."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = process_time(), perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except SystemExit as exc:          # argparse usage errors
        rc = exc.code
    except Exception as exc:           # a crash is a failed operation
        rc = f"{type(exc).__name__}: {exc}"
    t1, c1 = perf_counter(), process_time()
    return rc, out.getvalue(), t0, t1, c1 - c0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes instead of timing")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--expected-dir")
    args = ap.parse_args(argv)

    if args.setup_only:
        setup(args.workload)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    import gc
    import json

    sys.path.insert(0, str(HERE))
    import workloads as wl
    from calib import Sampler

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    from p2lab import cli, flow
    transport = flow.transport        # the checks must not be traced
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    setup(args.workload, tracer)
    setup_wall = perf_counter() - t0

    expected = wl.load_expected(args.workload, args.expected_dir)
    check = {
        "verify_all": lambda a, out, rc: wl.check_verify_all(
            out, rc, expected),
        "integrate_poles": lambda a, out, rc: wl.check_integrate(
            a, out, rc, expected, transport),
        "lattice_tables": lambda a, out, rc: wl.check_lattice(
            a, out, rc, expected),
    }[args.workload]

    passes, inputs, failures = [], [], []
    attempted = 0
    begin = perf_counter()
    on_sample = None
    if tracer is not None:
        def on_sample(t0, t1):
            tracer.record("calib.kernel", t0, t1)
    with Sampler(wl.CALIBRATION_KERNEL[args.workload], on_sample) as sampler:
        for argvs in wl.passes(args.workload, args.seed):
            gc.collect()    # every pass starts from a collected heap
            times = []
            steps = 0
            for a in argvs:
                if tracer is not None:
                    tracer.run_id = attempted
                rc, out, t0, t1, cpu = run_op(cli, a)
                times.append((t0, t1, cpu))
                attempted += 1
                why = check(a, out, rc)
                if why:
                    failures.append({"argv": a, "why": why})
                elif args.workload == "integrate_poles":
                    # rows after the header and the initial state
                    steps += out.count("\n") - 2
            passes.append((times, steps))
            inputs.append(argvs)
            if args.passes:
                if len(passes) >= args.passes:
                    break
            elif fits_no_more(begin, args.seconds, len(passes)):
                break
    ops_wall_gross = sum(t1 - t0 for times, _ in passes
                         for t0, t1, _ in times)
    passes = [pass_record(sampler, times, steps) for times, steps in passes]
    report = {"passes": passes, "inputs": inputs, "attempted": attempted,
              "failures": failures, "setup_wall": setup_wall,
              "ops_wall_gross": ops_wall_gross,
              "kernel_ms": [1000.0 * (e - s) for s, e in
                            zip(sampler.starts, sampler.ends)]}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
