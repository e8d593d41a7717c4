#!/usr/bin/env python3
"""Sweep the rate factor over the sample-size lattice for the three
polynomial-decay regimes and print the fitted growth exponents.

Usage: python scripts/rate_sweep.py [--n-max 10000000] [--r 4]
"""
import argparse
import math

import numpy as np

from mixbound import grid, mixing, rates


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=10**7)
    ap.add_argument("--n-min", type=int, default=10**3)
    ap.add_argument("--r", type=float, default=4.0)
    args = ap.parse_args()
    if not 2.0 < args.r < math.inf:   # the critical power r / (r - 2) needs r > 2
        ap.error(f"--r must be > 2 and finite, got {args.r}")

    members = [n for n in grid.lattice_members(3, args.n_max) if n >= args.n_min]
    if len(members) < 2:
        ap.error(f"[{args.n_min}, {args.n_max}] holds {len(members)} lattice "
                 f"point(s); a slope needs two")
    print(f"lattice points: {len(members)} in [{members[0]}, {members[-1]}]")
    crit = args.r / (args.r - 2.0)
    for m in (2 * crit, crit, 0.25 * crit):
        profile = mixing.polynomial_profile(m)
        regime, predicted = rates.regime_classify(m, args.r)
        factors = rates.rate_factors(members, args.r, profile)
        slope = rates.loglog_slope(members, factors)
        eff = members[-1] / factors[-1]
        target = "(log n)^{%.3g}" % predicted if regime == "critical" \
            else f"n^{predicted:+.4f}"
        print(f"m={m:6.3f} regime={regime:8s} fitted slope={slope:+.4f} "
              f"predicted growth {target}  effective n at top={eff:,.0f}")
        if regime == "critical":
            ratio = [f / np.log(n) ** (1 / m) for n, f in zip(members, factors)
                     if n >= args.n_max / 100]
            print(f"         critical ratio band: [{min(ratio):.3f}, {max(ratio):.3f}]")


if __name__ == "__main__":
    main()
