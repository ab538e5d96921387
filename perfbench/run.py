"""Stage-timed Monte Carlo benchmark of the coposim pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload los_range --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one workload as a closed loop: one trial at a time, the next
starting when the last one ends.  A run is a whole number of rounds (one
trial per scenario point), sized so that it takes about ``--seconds`` on a
2-CPU x86-64 box; fixing the work per run keeps the trial mix, and so every
statistic, comparable between runs.  Set-up is timed in fresh interpreters
spread through the run, and trial 0 runs once untimed before the timed
trials; the timed repeat of trial 0 must report exactly the same accuracy
(the determinism check).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each trial
both untraced and traced, checks that both report the same accuracy, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the result object; the line before it is the full report
(accuracy, failures by cause, per-point figures and the environment).  The
process exits 1 when a check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is timed this many times per run, and the fastest time is reported:
# the same work repeated, where a busy host only ever adds time.
SETUP_PROBES = 5
# Address-space cap, nearly 3x the largest virtual size of a sound trial.  A
# diverged anchor estimate can set a millimetre voxel pitch and ask for tens of
# GiB; the cap turns that into a MemoryError, counted by cause like any failed
# trial, instead of memory taken from the rest of the machine.
MEMORY_CAP_BYTES = 2 << 30
TAIL_BEYOND = 10
GUESS_FALLBACK = "initial guess refinement failed"

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "peak_rss_mb": "MB",
}
# Reported beside the timed metrics; they repeat exactly for a seed.
ACCURACY = {
    "fail_rate": "1",
    "hausdorff_m_p50": "m",
    "hausdorff_m_max": "m",
    "anchor_err_m_p50": "m",
}
SELF_TIMES = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]
# Self times are seconds per traced trial; counts are means per call of the
# function they are read from, except the two per-trial sync counts.
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    "pipeline.self_s": "s",
    "imaging.voxels": "count",
    "imaging.spectrum_bins": "count",
    "imaging.peaks": "count",
    "imaging.voxel_bytes": "B",
    "combining.clusters": "count",
    "combining.primary_size": "count",
    "combining.fused_points": "count",
    "sync.gn_iterations": "count",
    "sync.not_converged": "1/trial",
    "sync.guess_fallbacks": "1/trial",
    "sync.sigma_err_ns_p50": "ns",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}


def pin_threads() -> None:
    """One BLAS/OpenMP thread (at most nproc): trials run one at a time in one
    process, and a fixed thread count keeps float reductions, and so the
    accuracy figures, the same on every machine.  Must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def cap_memory() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_CAP_BYTES, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def environment(seed: int) -> dict:
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"seed": seed, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), "nproc": nproc,
            "address_space_cap_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
            "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k}}


def setup_probe(config_json: str):
    """A callable that times one set-up in a fresh interpreter, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def probe() -> float:
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], input=config_json,
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    return probe


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with at least TAIL_BEYOND samples above it.

    Returns the value, its percentile by nearest rank, and the number of
    samples beyond it.  With TAIL_BEYOND or fewer samples none qualifies; the
    highest with at least a quarter of the samples beyond it stands in, as the
    maximum of so few samples is mostly the noisiest trial of the run.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else n // 4
    idx = n - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / n, beyond


def median_or_none(values):
    return statistics.median(values) if values else None


def accuracy(outcomes) -> dict:
    ok = [o.metrics for o in outcomes if o.ok]
    hausdorff = [m["hausdorff_m"] for m in ok]
    return {"fail_rate": sum(not o.ok for o in outcomes) / len(outcomes),
            "hausdorff_m_p50": median_or_none(hausdorff),
            "hausdorff_m_max": max(hausdorff) if hausdorff else None,
            "anchor_err_m_p50": median_or_none([m["anchor_err_m"] for m in ok])}


def failures_by_cause(outcomes) -> dict:
    counts: dict[str, int] = {}
    for o in outcomes:
        if not o.ok:
            counts[o.failure] = counts.get(o.failure, 0) + 1
    return dict(sorted(counts.items()))


def per_point(workload, outcomes) -> list[dict]:
    rows = []
    for point in workload.points:
        mine = [o for o in outcomes if o.point == point]
        rows.append({"point": point, "trials": len(mine),
                     "failed": sum(not o.ok for o in mine),
                     "trial_s_p50": median_or_none([o.wall_s for o in mine])})
    return rows


def untraced_run(workload, seed: int, seconds: float, probe, run_trial) -> tuple[dict, dict, list]:
    """Timed trials, with the set-up probes spread evenly between them.

    Probe time is kept out of the trial loop's time, so ``trials_per_s`` is
    trials over the seconds spent running them.
    """
    setup_times = [probe()]
    reference = run_trial(workload, seed, 0)          # warm-up, and the determinism reference
    n_trials = workload.rounds(seconds) * len(workload.points)
    probe_before = [i * n_trials // (SETUP_PROBES - 1) for i in range(1, SETUP_PROBES - 1)]
    outcomes, loop_s = [], 0.0
    for t in range(n_trials):
        setup_times += [probe() for _ in range(probe_before.count(t))]
        t0 = time.perf_counter()
        outcomes.append(run_trial(workload, seed, t))
        loop_s += time.perf_counter() - t0
    setup_times.append(probe())

    walls = [o.wall_s for o in outcomes]
    tail_s, tail_pct, beyond = tail(walls)
    metrics = {
        "setup_s": min(setup_times),
        "trials_per_s": len(outcomes) / loop_s,
        "trial_s_p50": statistics.median(walls),
        "trial_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    checks = {"deterministic": outcomes[0].accuracy_key() == reference.accuracy_key()}
    details = {"accuracy": accuracy(outcomes),
               "trial_s_tail": {"percentile": tail_pct, "samples": len(walls),
                                "samples_beyond": beyond},
               "setup_s_runs": setup_times}
    return metrics, {"checks": checks, **details}, outcomes


def traced_run(workload, seed: int, seconds: float, run_trial) -> tuple[dict, dict, list]:
    from coposim.scenario import ScenarioConfig
    clock_offset_s = ScenarioConfig().scene.clock_offset_s

    run_trial(workload, seed, 0)                      # warm-up
    n_trials = max(1, workload.rounds(seconds) // 2) * len(workload.points)
    tracer = Tracer()
    untraced, traced, fallbacks = [], [], 0
    for t in range(n_trials):
        # The second run of a trial is faster (its array shapes were just seen),
        # so which run goes first alternates to keep that out of the overhead.
        if t % 2:
            untraced.append(run_trial(workload, seed, t))
        with tracer.installed(), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traced.append(run_trial(workload, seed, t))
        fallbacks += sum(str(w.message).startswith(GUESS_FALLBACK) for w in caught)
        if not t % 2:
            untraced.append(run_trial(workload, seed, t))

    wall_s = sum(o.wall_s for o in traced)
    pipeline_self_s = wall_s - sum(tracer.self_s.values())
    obs = tracer.observed

    def mean(key):
        return statistics.fmean(obs[key]) if obs[key] else 0.0

    metrics = {f"{name}.self_s": tracer.self_s.get(name, 0.0) / n_trials for name in SELF_TIMES}
    metrics.update({
        "pipeline.self_s": pipeline_self_s / n_trials,
        **{key: mean(key) for key in ("imaging.voxels", "imaging.spectrum_bins", "imaging.peaks",
                                      "imaging.voxel_bytes", "combining.clusters",
                                      "combining.primary_size", "combining.fused_points",
                                      "sync.gn_iterations")},
        "sync.not_converged": sum(obs["sync.not_converged"]) / n_trials,
        "sync.guess_fallbacks": fallbacks / n_trials,
        "sync.sigma_err_ns_p50": median_or_none(
            [abs(s - clock_offset_s) * 1e9 for s in obs["sync.sigma_hat_s"]]) or 0.0,
        "trace.wall_s": wall_s / n_trials,
        "trace.overhead_pct": 100.0 * (wall_s / sum(o.wall_s for o in untraced) - 1.0),
    })
    checks = {
        "traced_matches_untraced": all(u.accuracy_key() == v.accuracy_key()
                                       for u, v in zip(untraced, traced)),
        "self_times_within_wall": pipeline_self_s >= 0.0,
    }
    details = {"accuracy": accuracy(traced), "calls": dict(sorted(tracer.calls.items()))}
    return metrics, {"checks": checks, **details}, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS, run_trial, scenario_seed

    workload = WORKLOADS[name]
    units = PER_LAYER if trace else END_TO_END
    if trace:
        metrics, details, outcomes = traced_run(workload, seed, seconds, run_trial)
    else:
        first_config = json.dumps(workload.config_dict(workload.points[0], scenario_seed(seed, 0)))
        probe = setup_probe(first_config)
        metrics, details, outcomes = untraced_run(workload, seed, seconds, probe, run_trial)
    correct = all(details["checks"].values())
    failed = sum(not o.ok for o in outcomes)
    with_units = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    for key, value in metrics.items():
        print(f"{name:14s} {key:36s} {value:14.6g} {units[key]}")
    if "trial_s_tail" in details:
        t = details["trial_s_tail"]
        print(f"{name:14s} trial_s_tail is p{t['percentile']:.4g} of {t['samples']} trials, "
              f"{t['samples_beyond']} beyond it")
    for key, value in details["accuracy"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:14s} {key:36s} {shown:>14s} {ACCURACY[key]}")
    report = {"workload": name, "trace": int(trace), "seconds": seconds,
              "rounds": len(outcomes) // len(workload.points), "correct": correct,
              "metrics": with_units, **details,
              "failures": failures_by_cause(outcomes),
              "points": per_point(workload, outcomes),
              "environment": environment(seed)}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": with_units}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process so peak memory is per workload."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=600)
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")  # all but the result
        if done.returncode not in (0, 1) or not done.stdout.strip():
            sys.stderr.write(done.stderr)
            print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(done.stdout.splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["los_range", "nlos_surfaces", "nlos_noise", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coposim" / "__init__.py").is_file():
        print(f"error: coposim sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    cap_memory()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
