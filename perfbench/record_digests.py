"""Record the reference output digests the benchmark checks against.

    python3 perfbench/record_digests.py

Runs one pass of every workload at the reference seed and writes
``perfbench/digests.json``: the digest of every canonical output at that
seed.  The runner checks them at that seed, and at every seed for the
operations marked ``fixed`` (their outputs do not depend on the seed).  It
then reruns the seed-7 verify in a fresh
interpreter without the benchmark's BLAS thread cap and reports whether
its report digest is unchanged.  Record only from a commit whose outputs
are known to be right.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import (BLAS_VARS, DIGESTS, OUT_DIR, REFERENCE_SEED, ROOT, SRC, bench_env,
                 blas_cap)


def main() -> int:
    os.environ.update(blas_cap())
    sys.path.insert(0, str(SRC))
    import workloads

    reference: dict[str, dict[str, str]] = {}
    OUT_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            for op in workloads.build(workload, REFERENCE_SEED, Path(tmp)):
                for key, data in op.run().items():
                    reference.setdefault(workload, {})[f"{op.name}/{key}"] = \
                        workloads.digest(data)
        print(f"{workload}: {len(reference[workload])} outputs digested")

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out = Path(tmp) / "verify.json"
        env = {k: v for k, v in bench_env().items() if k not in BLAS_VARS}
        subprocess.run([sys.executable, "-m", "mixbound.cli", "verify", "--suite", "all",
                        "--seed", str(REFERENCE_SEED), "--output", str(out)],
                       cwd=ROOT, env=env, check=True, capture_output=True, timeout=600)
        uncapped = workloads.digest(out.read_bytes())
    capped = reference["verify"]["verify/report"]
    print(f"seed-{REFERENCE_SEED} verify digest {capped}; without the BLAS cap "
          f"{'identical' if uncapped == capped else 'DIFFERENT: ' + uncapped}")

    DIGESTS.write_text(json.dumps({
        "reference_seed": REFERENCE_SEED,
        "reference": reference,
        "verify_digest_without_blas_cap": uncapped,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0 if uncapped == capped else 1


if __name__ == "__main__":
    sys.exit(main())
