"""SHA-256 of the benchmark's trial outcomes: equal digests mean identical results.

Run from the repository root:

    python3 tools/accuracy_digest.py

Runs ``perfbench/workloads.run_trial`` for trials 0-23 of every workload at
base seeds 1-3 (216 trials), with one BLAS thread, and hashes each trial's
``TrialOutcome.accuracy_key()`` in that order, each key's JSON text straight
after the last.  It prints the failures by cause per workload, then the
digest.  Compare the digests of two checkouts to check that a change keeps
every reported result bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import sys
from collections import Counter
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
        for seed in BASE_SEEDS:
            for trial in range(TRIALS):
                outcome = run_trial(workload, seed, trial)
                digest.update(outcome.accuracy_key().encode())
                if not outcome.ok:
                    failures[outcome.failure] += 1
        print(name, dict(sorted(failures.items())))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
