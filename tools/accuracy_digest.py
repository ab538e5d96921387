"""SHA-256 of the benchmark's trial outcomes: equal digests mean identical results.

Run from the repository root:

    python3 tools/accuracy_digest.py

Runs ``perfbench/workloads.run_trial`` for trials 0-23 of every workload at
base seeds 1-3 (216 trials), with one BLAS thread, and hashes each trial's
``TrialOutcome.accuracy_key()`` in that order, each key's JSON text straight
after the last.  Per workload it prints the failures by cause, then per
scenario point the successes and, over them, the Hausdorff and anchor-error
p50 and max, and on points that fuse reflections the p50 and max of the fused
planes' normal and offset errors over every path; the last line is the
digest.  Compare the digests of
two checkouts to check that a change keeps every reported result bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, run_trial  # noqa: E402

BASE_SEEDS = (1, 2, 3)
TRIALS = 24


def main() -> int:
    digest = hashlib.sha256()
    for name, workload in WORKLOADS.items():
        failures = Counter()
        successes = defaultdict(list)
        for seed in BASE_SEEDS:
            for trial in range(TRIALS):
                outcome = run_trial(workload, seed, trial)
                digest.update(outcome.accuracy_key().encode())
                if outcome.ok:
                    successes[outcome.point].append(outcome.metrics)
                else:
                    failures[outcome.failure] += 1
        print(name, dict(sorted(failures.items())))
        for point in workload.points:
            ok = successes[point]
            line = f"  {point}: {len(ok)} ok"
            if ok:
                hausdorff = [m["hausdorff_m"] for m in ok]
                anchor = [m["anchor_err_m"] for m in ok]
                line += (f", hausdorff_m p50 {statistics.median(hausdorff):.6g}"
                         f" max {max(hausdorff):.6g}"
                         f", anchor_err_m p50 {statistics.median(anchor):.6g}"
                         f" max {max(anchor):.6g}")
                for metric in ("normal_err_rad", "offset_err_m"):
                    errs = [v for m in ok for k, v in m.items() if k.endswith(f"_{metric}")]
                    if errs:
                        line += (f", surface {metric} p50 {statistics.median(errs):.6g}"
                                 f" max {max(errs):.6g}")
            print(line)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
