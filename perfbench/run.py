"""p2lab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
        [--out results.jsonl] [--expected-dir DIR]

Run from the repository root.  Workloads (see BENCHMARK.json for why each
was chosen):

* ``verify_all``: fresh worker processes that each make one
  ``p2lab.cli.run(["verify", "all", "--json"])`` call.  The seed is
  unused: the input is fixed.
* ``integrate_poles``: one worker process integrates seeded batches of
  trajectories through ``p2lab.cli.run(["integrate", ...])``.
* ``lattice_tables``: one worker process runs seeded mixes of
  lattice-side CLI commands in-process.

A run makes at least one pass, and another while it is expected to end
within ``--seconds``.  With ``--trace 0`` the timed run prints the
end-to-end metrics; with ``--trace 1`` a fixed number of passes runs
twice in fresh workers, once plain and once under ``tracer.Tracer``, and
the per-layer metrics and the tracing overhead are printed.

Every output is checked against ``expected/``; any mismatch is a failed
operation and makes the exit status 1.  The last stdout line is the JSON
result; ``--out`` appends the full record (environment, inputs, per-pass
samples) as one JSON line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from calib import STARTUP_REF_CODE, STARTUP_REF_S  # noqa: E402
from tracer import LAYERS, METRICS as LAYER_METRICS  # noqa: E402
from worker import fits_no_more  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
# Passes per traced run: fixed so that counts repeat across runs.
TRACE_PASSES = {"verify_all": 1, "integrate_poles": 4, "lattice_tables": 8}

# name -> (unit, better).  GATED are the end-to-end metrics of
# BENCHMARK.json; the others are reported, where they apply, beside them.
# Times are in calibrated seconds (see calib.py).
E2E = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "failed_ratio": ("1", "lower"),
    # uncalibrated times and the kernel time the pass times are
    # calibrated with
    "wall_raw_s": ("s", "lower"),
    "cpu_raw_s": ("s", "lower"),
    "setup_raw_s": ("s", "lower"),
    "kernel_ms": ("ms", "lower"),
}
GATED = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"   # same set/dict orders, same counts
    return env


def time_to_ready(cmd) -> float:
    """Seconds from starting cmd to its ``ready`` line."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                         stdout=subprocess.PIPE)
    line = p.stdout.readline()
    dt = time.perf_counter() - t0
    p.stdout.close()
    if p.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"probe {cmd} failed")
    return dt


def setup_seconds(workload: str) -> tuple:
    """Raw and calibrated set-up times of fresh set-up-only workers; each
    sits between two reference start-ups (see calib.py)."""
    setup_cmd = [sys.executable, str(WORKER), "--workload", workload,
                 "--setup-only"]
    ref_cmd = [sys.executable, "-c",
               f"import sys; sys.path.insert(0, {str(HERE)!r})\n"
               + STARTUP_REF_CODE]
    refs = [time_to_ready(ref_cmd)]
    raw, cal = [], []
    for _ in range(SETUP_PROBES):
        raw.append(time_to_ready(setup_cmd))
        refs.append(time_to_ready(ref_cmd))
        cal.append(raw[-1] * STARTUP_REF_S / ((refs[-2] + refs[-1]) / 2))
    return raw, cal


def run_worker(workload, seed, seconds=None, passes=None, trace=False,
               expected_dir=None):
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--passes", str(passes)] if passes else ["--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if expected_dir:
        cmd += ["--expected-dir", expected_dir]
    p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    out = p.stdout.read()
    reader.join()
    p.stdout.close()
    p.stderr.close()
    # wait4 rather than wait: it also gives the worker's peak RSS
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise RuntimeError(f"worker exited with {p.returncode}:\n{err[0]}")
    report = json.loads(out.strip().rsplit("\n", 1)[-1])
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return report


def verify_processes(seconds, expected_dir=None):
    """verify_all passes: one fresh worker process each."""
    merged = {"passes": [], "inputs": [], "attempted": 0, "failures": [],
              "kernel_ms": [], "peak_rss_mb": 0.0}
    begin = time.perf_counter()
    while True:
        rep = run_worker("verify_all", 0, passes=1, expected_dir=expected_dir)
        for key in ("passes", "inputs", "failures", "kernel_ms"):
            merged[key] += rep[key]
        merged["attempted"] += rep["attempted"]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], rep["peak_rss_mb"])
        if fits_no_more(begin, seconds, len(merged["passes"])):
            return merged


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def timed_run(workload, seed, seconds, expected_dir):
    setup_raw, setup = setup_seconds(workload)
    if workload == "verify_all":
        rep = verify_processes(seconds, expected_dir)
    else:
        rep = run_worker(workload, seed, seconds=seconds,
                         expected_dir=expected_dir)
    ps = rep["passes"]
    walls = [p["wall"] for p in ps]
    cpus = [p["cpu"] for p in ps]
    ops = sorted(ms for p in ps for ms in p["ops_ms"])
    m = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "op_ms_p50": statistics.median(ops),
        "peak_rss_mb": rep["peak_rss_mb"],
        # a percentile needs at least ten samples beyond it
        "op_ms_p90": (statistics.quantiles(ops, n=10)[-1]
                      if len(ops) >= 100 else None),
        "steps_per_s": (sum(p["steps"] for p in ps) / sum(walls)
                        if workload == "integrate_poles" else None),
        "failed_ratio": len(rep["failures"]) / rep["attempted"],
        "wall_raw_s": statistics.median(p["wall_raw"] for p in ps),
        "cpu_raw_s": statistics.median(p["cpu_raw"] for p in ps),
        "setup_raw_s": statistics.median(setup_raw),
        "kernel_ms": statistics.median(rep["kernel_ms"]),
    }
    spread = {"wall_s": quartiles(walls), "cpu_s": quartiles(cpus),
              "setup_s": quartiles(setup)}
    samples = {"passes": len(walls), "ops": len(ops),
               "setup_probes": len(setup), "kernel": len(rep["kernel_ms"])}
    return m, spread, samples, rep


def traced_run(workload, seed, expected_dir):
    n = TRACE_PASSES[workload]
    plain = run_worker(workload, seed, passes=n, expected_dir=expected_dir)
    traced = run_worker(workload, seed, passes=n, trace=True,
                        expected_dir=expected_dir)
    m = dict(traced["trace"]["metrics"])
    untraced_wall = sum(p["wall"] for p in plain["passes"])
    traced_wall = sum(p["wall"] for p in traced["passes"])
    m["trace.traced_wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    rep = {"passes": traced["passes"], "inputs": traced["inputs"],
           "attempted": plain["attempted"] + traced["attempted"],
           "failures": plain["failures"] + traced["failures"],
           "spans": traced["trace"]["spans"],
           "calib_s": traced["trace"]["calib_s"],
           "base": traced["ops_wall_gross"] + traced["setup_wall"]}
    return m, rep


def environment(seed) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "loadavg_start": list(os.getloadavg()),
            "seed": seed, "hash_seed": 0,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSONL file")
    ap.add_argument("--expected-dir",
                    help="read expectations from here instead of expected/")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "p2lab" / "cli.py").is_file():
        print(f"run.py: no p2lab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # One core for this process and every child: the calibration kernel
    # then always runs where the work runs.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    env = environment(args.seed)
    env["cpu_pinned"] = cpu
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": env}
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} nproc={env['nproc']} "
          f"load={env['loadavg_start'][0]:.2f} cpu={env['cpu_model']!r}")

    if args.trace:
        m, rep = traced_run(args.workload, args.seed, args.expected_dir)
        out_metrics = {k: {"value": m[k], "unit": LAYER_METRICS[k][0]}
                       for k in LAYER_METRICS}
        base = rep["base"]
        print(f"per-layer self time, as a share of the traced worker's "
              f"set-up plus {len(rep['passes'])} passes, {base:.4f} s "
              f"({rep['spans']} spans):")
        for layer in LAYERS:
            v = m[f"self_s.{layer}"]
            print(f"  {layer:<10} {v:10.4f} s  {100 * v / base:6.2f} %")
        print(f"  {'(kernel)':<10} {rep['calib_s']:10.4f} s  "
              f"{100 * rep['calib_s'] / base:6.2f} %")
        unwrapped = base - rep["calib_s"] - sum(m[f"self_s.{layer}"]
                                                 for layer in LAYERS)
        print(f"  {'(harness)':<10} {unwrapped:10.4f} s  "
              f"{100 * unwrapped / base:6.2f} %")
        print(f"tracing overhead over the passes: traced "
              f"{m['trace.traced_wall_s']:.4f} s vs untraced "
              f"{m['trace.untraced_wall_s']:.4f} s, ratio "
              f"{m['trace.overhead_ratio']:.4f}")
        for k, (unit, _) in LAYER_METRICS.items():
            print(f"  {k:<38} {fmt(m[k]):>14} {unit}")
        record.update(metrics=out_metrics)
    else:
        m, spread, samples, rep = timed_run(
            args.workload, args.seed, args.seconds, args.expected_dir)
        for k, (unit, _) in E2E.items():
            extra = ""
            if k in spread:
                q1, q3 = spread[k]
                extra = f"  (q1 {q1:.6g}, q3 {q3:.6g})"
            print(f"  {k:<14} {fmt(m[k]):>14} {unit}{extra}")
        print(f"  samples: {samples}")
        out_metrics = {k: {"value": m[k], "unit": E2E[k][0]} for k in GATED}
        record.update(metrics=out_metrics,
                      extra_metrics={k: {"value": m[k], "unit": E2E[k][0]}
                                     for k in E2E if k not in GATED},
                      quartiles=spread, samples=samples,
                      passes=[{k: p[k] for k in ("wall", "cpu", "steps")}
                              for p in rep["passes"]])

    failed = len(rep["failures"])
    for f in rep["failures"][:20]:
        print(f"FAILED {' '.join(f['argv'])}: {f['why']}")
    record.update(attempted=rep["attempted"], failed=failed,
                  failures=rep["failures"], inputs=rep["inputs"])
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": rep["attempted"],
                      "failed": failed, "metrics": out_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
