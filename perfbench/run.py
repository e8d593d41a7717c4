"""mixbound benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload verify|exact|montecarlo --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; mixbound is imported from ``src/``.  Each run
is one closed loop with a single caller: every operation starts when the
previous one has returned.

``--trace 0`` measures the end-to-end metrics: set-up time of a fresh
interpreter, then an untimed warm-up pass, then timed passes for
``--seconds``, reporting the median pass.  At least three passes run, so
that the median is one; beyond those, no pass starts that would end past
the run length.
``--trace 1`` is the separate traced run: a warm-up pass, one untraced
pass and one pass under the tracer, reporting the per-layer metrics; the
spans are written to ``.perfbench/`` when the run ends.

A pass's time is the sum of its operations' program calls; the benchmark's
own checks and digests run after each call's clock has stopped.  Every
operation's outputs are digested.  An operation fails when it raises, exits
non-zero, fails a check, or when its digest differs from the first pass of
the run, from the recorded digest at the reference seed, or (for operations
whose outputs do not depend on the seed) from the recorded digest at any
seed.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
REFERENCE_SEED = 7
SETUP_RUNS = 3
MIN_PASSES = 3
SETUP_CODE = "import mixbound.cli as c; c._build_parser()"
WORKLOADS = ("verify", "exact", "montecarlo")
STAGES = ("rates", "gamma", "norms", "schedule", "simulate", "couple",
          "strongapprox", "lazy")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_cap() -> dict[str, str]:
    """BLAS thread counts capped at the cores this process may use."""
    return dict.fromkeys(BLAS_VARS, str(len(os.sched_getaffinity(0))))


def bench_env() -> dict[str, str]:
    """Environment of the benchmark's children: BLAS capped, mixbound from ``src``."""
    return {**os.environ, **blas_cap(), "PYTHONPATH": str(SRC)}


def fresh_interpreter(args: list[str]) -> tuple[float, str]:
    """Wall time and stderr of one fresh interpreter running ``args``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=bench_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr[-400:]}")
    return elapsed, proc.stderr


def import_times() -> dict[str, float]:
    """Cumulative import seconds of mixbound, scipy.stats and scipy.special."""
    _, log = fresh_interpreter(["-X", "importtime", "-c", SETUP_CODE])
    cumulative = {}
    for line in log.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = (p.strip() for p in line[len("import time:"):].split("|"))
            if cum.isdigit():
                cumulative[name] = int(cum) / 1e6
    return {"import.mixbound_s": cumulative["mixbound"],
            "import.scipy_stats_s": cumulative["scipy.stats"],
            "import.scipy_special_s": cumulative["scipy.special"]}


class Run:
    """Passes over one workload's operations, with their digests and failures."""

    def __init__(self, ops, seed: int, recorded: dict, workload: str):
        self.ops = ops
        self.reference = recorded.get("reference", {}).get(workload, {})
        self.at_reference_seed = seed == recorded.get("reference_seed")
        self.first: dict[str, str] | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self) -> tuple[float, dict[str, float]]:
        """Run every operation once; return the pass's program time and its
        per-stage split."""
        from workloads import digest

        stage_s = dict.fromkeys(STAGES, 0.0)
        wall = 0.0
        digests: dict[str, str] = {}
        for op in self.ops:
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                try:
                    result = op.call()
                finally:
                    elapsed = time.perf_counter() - t0
                    wall += elapsed
                    if op.stage in stage_s:
                        stage_s[op.stage] += elapsed
                outputs = op.check(result)
            except Exception as exc:  # boundary: record, keep measuring
                self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            check_recorded = self.at_reference_seed or op.fixed
            got = {f"{op.name}/{k}": digest(v) for k, v in outputs.items()}
            bad = [k for k, h in got.items()
                   if (self.first is not None and self.first.get(k) != h)
                   or (check_recorded and self.reference.get(k, h) != h)]
            if bad:
                self.failures.append(f"{op.name}: digest mismatch on {', '.join(bad)}")
            digests.update(got)
        if self.first is None:
            self.first = digests
        return wall, stage_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mixbound
    if Path(mixbound.__file__).resolve().parent != SRC / "mixbound":
        raise SystemExit(f"perfbench: imported mixbound from {mixbound.__file__}, "
                         f"not from {SRC}")
    import workloads
    from tracer import Tracer

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    work = OUT_DIR / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            layer = import_times()
        else:
            setup = statistics.median(fresh_interpreter(["-c", SETUP_CODE])[0]
                                      for _ in range(SETUP_RUNS))
        run = Run(workloads.build(workload, seed, work), seed, recorded, workload)
        run.one_pass()                                     # warm-up, untimed
        t_start = time.perf_counter()
        passes = [run.one_pass()]
        pass_s = time.perf_counter() - t_start              # checks included
        # Past MIN_PASSES, start a pass only if it should end within the run length.
        while not trace and (len(passes) < MIN_PASSES
                             or time.perf_counter() - t_start + pass_s <= seconds):
            passes.append(run.one_pass())
        walls = [w for w, _ in passes]
        wall = statistics.median(walls)
        if trace:
            tracer = Tracer()
            with tracer:
                traced_wall, _ = run.one_pass()
            layer.update(tracer.layer_metrics())
            layer["trace.overhead_s"] = traced_wall - wall
            for stage, secs in passes[0][1].items():
                layer[f"stage.{stage}_s"] = secs
            tracer.dump_spans(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    for line in run.failures:
        print(f"FAILED {line}")
    print(f"workload {workload}, seed {seed}: {len(walls)} timed pass(es) after one "
          f"warm-up; {run.attempted} operations attempted, {failed} failed "
          f"(fail_ratio {failed / run.attempted:.4g})")
    print("pass wall_s: " + ", ".join(f"{w:.4f}" for w in walls))
    stage_med = {s: statistics.median(p[1][s] for p in passes) for s in STAGES}
    print("stages (median s): " + ", ".join(
        f"{s}_s={v:.4f}" for s, v in stage_med.items() if v > 0))
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
        print(f"tracing overhead: {layer['trace.overhead_s']:+.4f} s "
              f"(traced {traced_wall:.4f} s vs untraced {wall:.4f} s)")
    else:
        values = {"setup_s": setup, "wall_s": wall, "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{name}: {values[name]:.4f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if any(part == "s" or part.endswith("_s") for part in name.split(".")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("per_partition"):
        return "ratio"
    return "count"


def run_once(workload: str, seed: int, seconds: float, trace: int,
             echo: bool = False) -> dict:
    """Run one workload in a fresh interpreter; return its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if echo:
        sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float) -> int:
    """One subprocess per workload; print every end-to-end metric as a table."""
    rows, status = [], 0
    for workload in WORKLOADS:
        result = run_once(workload, seed, seconds, 0, echo=True)
        status |= not result["correct"]
        ratio = result["failed"] / result["attempted"]
        rows.append((workload, result["metrics"], ratio))
    print(f"\n{'workload':<12}" + "".join(f"{f'{n} ({u})':>18}" for n, u in END_TO_END)
          + f"{'fail_ratio':>12}")
    for workload, metrics, ratio in rows:
        print(f"{workload:<12}" + "".join(f"{metrics[n]['value']:>18.4f}"
                                          for n, _ in END_TO_END) + f"{ratio:>12.4g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mixbound" / "cli.py").is_file():
        print(f"perfbench: no mixbound sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    # Cap BLAS threads before numpy is first imported.
    os.environ.update(blas_cap())
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
