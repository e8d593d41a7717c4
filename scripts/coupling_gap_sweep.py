#!/usr/bin/env python3
"""Measure the path-vs-replica gap against the block length for an
autoregression and compare the fitted contraction slope with log(rho).

Usage: python scripts/coupling_gap_sweep.py [--rho 0.9] [--n 384] [--reps 500]
"""
import argparse
import math

from mixbound import coupling, function_classes, processes


def block_lengths(text: str) -> list[int]:
    """``--qs``: comma-separated integers; a bad one is a usage error."""
    return [int(q) for q in text.split(",")]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rho", type=float, default=0.9)
    ap.add_argument("--n", type=int, default=384)
    ap.add_argument("--qs", type=block_lengths, default="8,16,32")
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    model = processes.ar1_model(args.rho)
    members = function_classes.make_class("lipschitz5", model).members
    try:
        sweep = coupling.coupling_gap_sweep(model, members, args.n, args.qs,
                                            args.reps, args.seed)
    except ValueError as exc:
        ap.error(str(exc))
    for q, mean, se in zip(sweep.qs, sweep.means, sweep.std_errors):
        print(f"q={q:4d}  mean gap {mean:.5f} +- {se:.5f}")
    print(f"log-gap slope {sweep.log_slope:+.4f} vs log(rho) {math.log(args.rho):+.4f}")


if __name__ == "__main__":
    main()
