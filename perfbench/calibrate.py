"""Seed-sweep calibration of the statistical acceptance criteria (untimed).

    python3 perfbench/calibrate.py [--first 1] [--last 30] [--record]

Runs the coupling suite (A9, A10, A11, A12 and A14, the criteria decided
by Monte Carlo) at every seed in the range and counts passes per
criterion.  The counts are printed beside the ones recorded in
``perfbench/baseline.json``, so a later loss of calibration (fewer passes
of a criterion that should hold) or of power shows.  ``--record`` stores
this sweep as the new recorded counts.  The regular benchmark runs never
call this.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from run import HERE, OUT_DIR, SRC, blas_cap

BASELINE = HERE / "baseline.json"
SUITE = "coupling"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--last", type=int, default=30)
    parser.add_argument("--record", action="store_true",
                        help="store the counts in perfbench/baseline.json")
    args = parser.parse_args(argv)
    os.environ.update(blas_cap())
    sys.path.insert(0, str(SRC))
    from mixbound import acceptance as ac

    cids = ac.suite_criteria(SUITE)
    passes = dict.fromkeys(cids, 0)
    failures: dict[str, list[int]] = {cid: [] for cid in cids}
    seeds = range(args.first, args.last + 1)
    t0 = time.perf_counter()
    for seed in seeds:
        for res in ac.run_criteria(cids, seed=seed):
            if res.passed:
                passes[res.cid] += 1
            else:
                failures[res.cid].append(seed)
    elapsed = time.perf_counter() - t0
    sweep = {"suite": SUITE, "seeds": [args.first, args.last], "pass_counts": passes,
             "failing_seeds": failures, "seconds": round(elapsed, 1)}

    baseline = {}
    if BASELINE.is_file():
        baseline = json.loads(BASELINE.read_text())
    recorded = baseline.get("calibration", {})
    same_range = recorded.get("seeds") == sweep["seeds"]
    print(f"seeds {args.first}-{args.last}, {len(seeds)} seeds, {elapsed:.1f} s")
    print(f"{'criterion':<10}{'passes':>8}{'recorded':>10}")
    lost = False
    for cid in cids:
        ref = recorded.get("pass_counts", {}).get(cid) if same_range else None
        lost |= ref is not None and passes[cid] < ref
        print(f"{cid:<10}{passes[cid]:>8}{'' if ref is None else ref:>10}"
              + (f"   failing seeds {failures[cid]}" if failures[cid] else ""))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "calibration.json").write_text(json.dumps(sweep, indent=1))
    if args.record:
        baseline["calibration"] = sweep
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    if lost:
        print("fewer passes than recorded: calibration or power was lost")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
