"""Accuracy ratchet: compares the benchmark's trial outcomes with ACCURACY.json.

Run from anywhere:

    python3 tools/accuracy_digest.py

Runs ``perfbench/workloads.run_trial`` for trials 0-23 of every workload at
base seeds 1-3, with one BLAS thread: the benchmark's three workloads and
``los_oblique``, which only the digest scores (288 trials).  Per scenario
point it counts the successes and the failures by cause, and over the
successes takes the p50 and max of the Hausdorff and anchor errors, and on
points that fuse reflections those of the fused planes' normal and offset
errors over every path.

Standard output is that summary as JSON, the content of ``ACCURACY.json`` at
the repository root; standard error has it in one line per point, then one
line per regression against the file, then the SHA-256 of every trial's
``TrialOutcome.accuracy_key()`` in run order.  Equal digests mean identical
results bit for bit; the digest moves with the BLAS kernels of the CPU.

``los_oblique`` is noiseless line of sight at 8 and 16 m with
``tv_direction`` (0.15, 0, 0.99), 9 degrees off the array normal.  Every
benchmark workload keeps the default bearing, 68 degrees off, where the
body's 3 m side points mostly along range, which the image resolves; near
broadside that side lies across range, along the image's weak axis.
Noiseless line-of-sight Hausdorff p50 was 1.19-1.28 m at this bearing against
0.73-0.78 m at the default one, so the ratchet also holds imaging at a bearing
where it is weak.

Exit status 1 means the run is worse than the file, or the file is missing or
does not hold the same points: a success count fell, a failure count by cause
rose, a figure rose above ``old * (1 + REL_TOL) + ABS_TOL``, or a figure the
file holds is missing from the run.  A change that
makes accuracy better rewrites the file from a run (write to another file and
move it over ``ACCURACY.json``: a shell redirect empties the file first).

The tolerances come from runs on one host (Intel Xeon, OpenBLAS 0.3.31)
with ``OPENBLAS_CORETYPE`` set to Sandybridge, Haswell and the default.  No
count moved.  The noiseless anchor, surface normal and offset errors, 1e-10
to 3e-8 m or rad, are rounding-level: they moved up to 1.35% relative, 9.6e-11
absolute, which ABS_TOL covers 100x over.  Every larger figure moved at most
1.5e-6 relative (Hausdorff 1e-10), which REL_TOL covers 7,000x over; a 1.2
spectral padding in place of 1.6 moves Hausdorff maxima by 3-4%, and fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, Workload, los_at, run_trial  # noqa: E402

ACCURACY_FILE = ROOT / "ACCURACY.json"
BASE_SEEDS = (1, 2, 3)
TRIALS = 24
REL_TOL = 0.01    # relative rise a figure may take
ABS_TOL = 1e-8    # and an absolute one, in m or rad
FIGURES = ("hausdorff_m", "anchor_err_m", "surface_normal_err_rad", "surface_offset_err_m")
OBLIQUE_DIRECTION = [0.15, 0.0, 0.99]


def los_oblique(distance_m: float) -> dict:
    config = los_at(distance_m)
    config["scene"]["tv_direction"] = list(OBLIQUE_DIRECTION)
    return config


# The benchmark's workloads, then the bearing only the digest scores.
SCORED = {**WORKLOADS, "los_oblique": Workload(
    "los_oblique", "line of sight near broadside, where the body's long side lies across range",
    "los", los_oblique, (8.0, 16.0), 0.11)}


def _p50_max(values: list[float]) -> dict:
    return {"p50": statistics.median(values), "max": max(values)}


def summarize(point_outcomes: list) -> dict:
    """Counts and error figures of one scenario point's trial outcomes."""
    ok = [o.metrics for o in point_outcomes if o.ok]
    entry = {"successes": len(ok),
             "failures": dict(sorted(Counter(o.failure for o in point_outcomes
                                             if not o.ok).items()))}
    if ok:
        entry["hausdorff_m"] = _p50_max([m["hausdorff_m"] for m in ok])
        entry["anchor_err_m"] = _p50_max([m["anchor_err_m"] for m in ok])
        for metric in ("normal_err_rad", "offset_err_m"):
            errs = [v for m in ok for k, v in m.items() if k.endswith(f"_{metric}")]
            if errs:
                entry[f"surface_{metric}"] = _p50_max(errs)
    return entry


def _line(point, entry: dict) -> str:
    line = f"  {point}: {entry['successes']} ok, failures {entry['failures']}"
    for name in FIGURES:
        if name in entry:
            line += f", {name} p50 {entry[name]['p50']:.6g} max {entry[name]['max']:.6g}"
    return line


def regressions(old: dict, new: dict) -> list[str]:
    """Each way ``new`` is worse than ``old``, or no longer has its points."""
    found = []
    for workload in sorted(old.keys() | new.keys()):
        if old.get(workload, {}).keys() != new.get(workload, {}).keys():
            found.append(f"{workload}: points {sorted(new.get(workload, {}))} "
                         f"differ from the file's {sorted(old.get(workload, {}))}")
            continue
        for point, was in old[workload].items():
            now, where = new[workload][point], f"{workload} {point}"
            if now["successes"] < was["successes"]:
                found.append(f"{where}: successes fell from {was['successes']} "
                             f"to {now['successes']}")
            for cause, count in now["failures"].items():
                if count > was["failures"].get(cause, 0):
                    found.append(f"{where}: {count} failures of {cause!r}, "
                                 f"was {was['failures'].get(cause, 0)}")
            for name in FIGURES:
                if name not in was:
                    continue
                if name not in now:
                    found.append(f"{where}: {name} is no longer reported")
                    continue
                for stat in ("p50", "max"):
                    limit = was[name][stat] * (1.0 + REL_TOL) + ABS_TOL
                    if now[name][stat] > limit:
                        found.append(f"{where}: {name} {stat} rose from {was[name][stat]!r} "
                                     f"to {now[name][stat]!r}, past {limit!r}")
    return found


def main() -> int:
    digest = hashlib.sha256()
    accuracy = {}
    for name, workload in SCORED.items():
        by_point = defaultdict(list)
        for seed in BASE_SEEDS:
            for trial in range(TRIALS):
                outcome = run_trial(workload, seed, trial)
                digest.update(outcome.accuracy_key().encode())
                by_point[outcome.point].append(outcome)
        accuracy[name] = {str(point): summarize(by_point[point]) for point in workload.points}
        print(name, file=sys.stderr)
        for point in workload.points:
            print(_line(point, accuracy[name][str(point)]), file=sys.stderr)
    print(json.dumps(accuracy, indent=2))

    try:
        found = regressions(json.loads(ACCURACY_FILE.read_text()), accuracy)
    except (OSError, ValueError) as exc:
        found = [f"cannot read {ACCURACY_FILE.name}: {exc}"]
    for line in found:
        print(f"regression: {line}", file=sys.stderr)
    print(digest.hexdigest(), file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
