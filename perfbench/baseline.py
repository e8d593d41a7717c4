"""Seed sweep of the benchmark, with a machine and version stamp.

    python3 perfbench/baseline.py [--seeds 1-10] [--record]

Runs ``run.py --trace 0`` once per seed on every workload, with the run length
from BENCHMARK.json, and prints for every end-to-end metric its median,
quartiles and the quartile spread as a share of the median, beside the
metric's bound (spreads of a steady benchmark stay below a third of it).
Then one ``--trace 1`` run per workload at the reference seed gives the
per-layer numbers.  Raw results go to ``.perfbench/sweep.json``;
``--record`` also stores the summary and the stamp in
``perfbench/baseline.json``.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

from run import HERE, OUT_DIR, REFERENCE_SEED, ROOT, WORKLOADS, bench_env, run_once

BASELINE = HERE / "baseline.json"


def stamp() -> dict:
    env = bench_env()
    probe = ("import json, numpy, scipy; cfg = numpy.show_config(mode='dicts'); "
             "blas = cfg['Build Dependencies']['blas']; "
             "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'blas': blas['name'] + ' ' + blas['version'], "
             "'blas_config': blas.get('openblas configuration', '')}))")
    versions = json.loads(subprocess.run([sys.executable, "-c", probe], env=env,
                                         capture_output=True, text=True,
                                         check=True).stdout)
    return {"cores": int(env["OPENBLAS_NUM_THREADS"]), "machine": platform.machine(),
            "cpu": _cpu_model(), "python": platform.python_version(), **versions}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict[str, list] = {}
    summary: dict[str, dict] = {}
    ok = True
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in args.seeds]
        raw[workload] = runs
        ok &= all(r["correct"] for r in runs)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": bound,
                          "unit": runs[0]["metrics"][name]["unit"]}
        traced = run_once(workload, REFERENCE_SEED, spec["run_seconds"], 1)
        raw[workload + "/trace"] = [traced]
        summary[workload] = {
            "seeds": [args.seeds[0], args.seeds[-1]],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": rows,
            "per_layer_at_reference_seed": {k: v["value"]
                                            for k, v in traced["metrics"].items()},
        }
        print(f"{workload}: {len(runs)} runs in {time.perf_counter() - t0:.0f} s, "
              f"{summary[workload]['failed']} of {summary[workload]['attempted']} "
              f"operations failed")
        for name, row in rows.items():
            flag = "" if row["spread"] < row["bound"] / 3 else \
                "   <-- spread above a third of the bound"
            print(f"  {name:<12} median {row['median']:10.4f} {row['unit']:<3} "
                  f"q1 {row['q1']:10.4f} q3 {row['q3']:10.4f} "
                  f"spread {row['spread']:6.3f} (bound {row['bound']}){flag}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "sweep.json").write_text(json.dumps(raw, indent=1))
    if args.record:
        record = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
        record.update({"stamp": stamp(), "run_seconds": spec["run_seconds"]})
        record.setdefault("workloads", {}).update(summary)
        BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
