#!/usr/bin/env python3
"""Growth of the translation orbit of the off-boundary -1-class.

Each class in the orbit squares to -1 and meets the anticanonical class
once, yet the coefficients grow without bound: the degree against the
section basis grows quadratically in the translation power.  Printing the
first differences twice makes the quadratic growth visible by eye.
"""
import argparse

from p2lab import lattice, weyl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=16)
    args = ap.parse_args()

    classes = weyl.orbit(args.n_max)
    degs = []
    print(f"{'n':>3} {'deg':>6} {'mod':>12}  class")
    for n, g in enumerate(classes, 1):
        deg = g.coeffs[0]
        degs.append(deg)
        print(f"{n:>3} {deg:>6} {str(weyl.gamma_mod(n)):>12}  {g.coeffs}")

    d1 = [b - a for a, b in zip(degs, degs[1:])]
    d2 = [b - a for a, b in zip(d1, d1[1:])]
    print()
    print("first differences: ", d1)
    print("second differences:", d2)
    if len(set(d2)) == 1:
        print(f"constant second difference {d2[0]}: quadratic growth, "
              "so the classes are pairwise distinct")

    f_cls = lattice.anticanonical_class()
    assert all(lattice.pair(g, f_cls) == 1 for g in classes)


if __name__ == "__main__":
    main()
