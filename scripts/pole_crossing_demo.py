#!/usr/bin/env python3
"""Integrate one trajectory through its movable poles and report what the
chart machinery did: where the integrator switched, how long it spent in
each chart, and how well the run reverses back onto its initial data.
"""
import argparse
from fractions import Fraction

from p2lab import flow


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", default="1/2", help="rational parameter")
    ap.add_argument("--t0", type=float, default=0.0)
    ap.add_argument("--t1", type=float, default=8.0)
    ap.add_argument("--q0", type=float, default=0.0)
    ap.add_argument("--p0", type=float, default=0.0)
    ap.add_argument("--rtol", type=float,
                    default=flow.IntegratorConfig().rtol)
    args = ap.parse_args()

    c = float(Fraction(args.c))
    config = flow.IntegratorConfig(rtol=args.rtol)
    init = flow.FlowState("W1", args.q0, args.p0, args.t0, c)
    traj = flow.integrate(c, init, args.t1, config)

    print(f"c = {args.c}   t in [{args.t0}, {args.t1}]   "
          f"start (q, p) = ({args.q0}, {args.p0})")
    print(f"steps: {traj.accepted} accepted, {traj.rejected} rejected, "
          f"{len(traj.switches)} chart switches")

    occupancy: dict = {}
    for s in traj.states:
        occupancy[s.chart] = occupancy.get(s.chart, 0) + 1
    for chart in ("W1", "W3", "W12"):
        if chart in occupancy:
            print(f"  {chart}: {occupancy[chart]} samples")

    print()
    for ev in traj.switches:
        print(f"switch at t = {ev.t:.12g}: {ev.from_chart} -> {ev.to_chart}  "
              f"({ev.from_chart} coords ({ev.y_pre:.6g}, {ev.z_pre:.6g}) -> "
              f"{ev.to_chart} coords ({ev.y_post:.6g}, {ev.z_post:.6g}))")
    print()
    print("switch continuity replays exactly:",
          flow.switch_continuity_ok(traj))

    err = flow.reversibility_error(c, init, args.t1, config)
    print(f"forward-backward reversibility error: {err:.3e}")

    q, p = flow.to_w1(traj.final)
    print(f"final state: chart {traj.final.chart}, (q, p) = ({q:.12g}, {p:.12g})")


if __name__ == "__main__":
    main()
