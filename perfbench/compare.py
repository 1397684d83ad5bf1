"""Summarise or compare benchmark result files.

Result files are the JSONL files ``run.py --out FILE`` appends to, one
record per run.  Collect ten or more runs per workload on each side, for
example:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload lattice_tables --seed $s \\
            --seconds 30 --trace 0 --out parent.jsonl
    done

Then:

    python3 perfbench/compare.py summary parent.jsonl [--json]
    python3 perfbench/compare.py parent.jsonl change.jsonl

``summary`` prints, per workload and metric, the median, the quartiles
and the spread (q3 - q1) / median over the untraced runs.  Comparing
prints one row per workload and bounded metric with both sides' medians and
quartiles, the pairs the change wins (pairs are matched by seed; ties
count for neither side) and a verdict against BENCHMARK.json's bounds:

* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``improved``: the change wins at least 9 in 10 pairs and the medians
  differ by more than the parent's own quartile distance;
* ``unresolved``: the parent's own spread exceeds the bound and not every
  change run beats every parent run;
* ``unchanged``: otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import E2E  # noqa: E402

# The metrics reported beside the gated ones are judged by wall_s's bound.
EXTRA_BOUND_LIKE = {"op_ms_p50": "wall_s", "op_ms_p90": "wall_s",
                    "steps_per_s": "wall_s"}


def bounds() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    b = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for extra, like in EXTRA_BOUND_LIKE.items():
        b[extra] = b[like]
    b["failed_ratio"] = 0.0
    return b


def load(path) -> dict:
    """workload -> metric -> [(seed, value)] over untraced runs."""
    out = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            metrics = dict(rec["metrics"], **rec.get("extra_metrics", {}))
            for name, m in metrics.items():
                if m["value"] is not None:
                    out[rec["workload"]][name].append(
                        (rec["env"]["seed"], m["value"]))
    return out


def stats(values) -> dict:
    med = statistics.median(values)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (med, med))
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summary(paths, as_json: bool) -> None:
    merged = defaultdict(lambda: defaultdict(list))
    for p in paths:
        for wl, ms in load(p).items():
            for name, vals in ms.items():
                merged[wl][name].extend(vals)
    res = {wl: {name: dict(stats([v for _, v in vals]), unit=E2E[name][0])
                for name, vals in ms.items()}
           for wl, ms in merged.items()}
    if as_json:
        print(json.dumps(res, indent=1, sort_keys=True))
        return
    print(f"{'workload':<16} {'metric':<13} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8}")
    for wl, ms in sorted(res.items()):
        for name, s in ms.items():
            print(f"{wl:<16} {name:<13} {s['n']:>3} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.4f}")


def verdict(name, parent, change, bound) -> tuple:
    better = E2E[name][1]
    sign = 1.0 if better == "lower" else -1.0
    p = stats([v for _, v in parent])
    c = stats([v for _, v in change])
    # pair by seed where both sides ran it, else in order
    pv, cv = dict(parent), dict(change)
    common = sorted(set(pv) & set(cv))
    pairs = ([(pv[s], cv[s]) for s in common] if common else
             list(zip([v for _, v in parent], [v for _, v in change])))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    worse_by = (sign * (c["median"] - p["median"]) / p["median"]
                if p["median"] else sign * (c["median"] - p["median"]))
    all_better = all(sign * (b - a) < 0 for _, a in parent for _, b in change)
    if worse_by > bound:
        v = "worse"
    elif (pairs and wins >= 0.9 * len(pairs) and worse_by < 0
          and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        v = "improved"
    elif p["spread"] > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return p, c, wins, len(pairs), v


def compare(parent_path, change_path) -> int:
    b = bounds()
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<16} {'metric':<13} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    worst = 0
    for wl in sorted(set(parent) & set(change)):
        for name in E2E:
            if (name not in b or name not in parent[wl]
                    or name not in change[wl]):
                continue
            p, c, wins, n, v = verdict(name, parent[wl][name],
                                       change[wl][name], b[name])
            print(f"{wl:<16} {name:<13} "
                  f"{p['median']:>12.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  .ljust(65) +
                  f"{c['median']:>12.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  .ljust(36) + f"{wins:>3}/{n:<3} {v}")
            worst = max(worst, v == "worse")
    return 1 if worst else 0


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "summary":
        ap = argparse.ArgumentParser(prog="compare.py summary")
        ap.add_argument("files", nargs="+")
        ap.add_argument("--json", action="store_true")
        a = ap.parse_args(args[1:])
        summary(a.files, a.json)
        return 0
    ap = argparse.ArgumentParser(prog="compare.py")
    ap.add_argument("parent")
    ap.add_argument("change")
    a = ap.parse_args(args)
    return compare(a.parent, a.change)


if __name__ == "__main__":
    sys.exit(main())
