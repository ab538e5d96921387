"""Checks of the benchmark itself: determinism, the output check and tracing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, TrialOutcome, check_trial, message_prefix, run_trial  # noqa: E402

from coposim.pipeline import run_sweep  # noqa: E402
from coposim.scenario import ScenarioConfig  # noqa: E402


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    for name in [*WORKLOADS, "all"]:
        assert bench.parse_args(["--workload", name, "--seed", "0"]).workload == name


@pytest.mark.parametrize("workload, trial", [("los_range", 3), ("nlos_noise", 0)])
def test_same_seed_gives_identical_accuracy(workload, trial):
    first = run_trial(WORKLOADS[workload], 7, trial)
    again = run_trial(WORKLOADS[workload], 7, trial)
    assert first.accuracy_key() == again.accuracy_key()
    assert run_trial(WORKLOADS[workload], 8, trial).accuracy_key() != first.accuracy_key()


def test_sweep_per_trial_metrics_do_not_depend_on_workers():
    config = ScenarioConfig.from_dict({
        "scene": {"has_los": True, "surfaces": [], "distance_m": 16.0},
        "waveform": {"tones": 64},
        "pipeline": {"box_extent_m": [4.0, 2.0, 4.0]},
        "sweep": {"trials": 2},
    })
    serial, _ = run_sweep(config, workers=1)
    parallel, _ = run_sweep(config, workers=2)
    assert len(serial.trials) == 2
    assert json.dumps(serial.trials, sort_keys=True) == json.dumps(parallel.trials, sort_keys=True)


def test_check_fails_non_finite_and_out_of_box_results():
    sound = {"anchor_err_m": 0.1, "hausdorff_m": 0.8, "rmse_m": 0.3, "detected_points": 60}
    assert check_trial(sound, 9.4) is None
    assert check_trial({**sound, "rmse_m": float("nan")}, 9.4) == "check: rmse_m is not finite"
    assert check_trial({**sound, "hausdorff_m": 5.4e6}, 9.4) == \
        "check: hausdorff_m exceeds the imaging-box diagonal"
    assert check_trial({**sound, "anchor_err_m": 1.08e7}, 9.4) == \
        "check: anchor_err_m exceeds the imaging-box diagonal"


def test_failures_count_by_cause_not_by_value():
    from coposim.errors import CoposimError
    assert message_prefix(CoposimError("combining stage: no clock cluster with >= 3 paths "
                                       "(cluster sizes [1, 1, 1])")) == \
        "CoposimError: combining stage: no clock cluster with >= # paths"
    assert message_prefix(MemoryError("Unable to allocate 39.0 GiB for an array with shape "
                                      "(2300, 1500, 900) and data type complex128")) == \
        "MemoryError: Unable to allocate # GiB for an array with shape"


def test_tail_is_the_highest_value_with_ten_beyond():
    assert bench.tail([float(v) for v in range(40)]) == (29.0, 75.0, 10)
    assert bench.tail([float(v) for v in range(9)]) == (6.0, 700.0 / 9, 2)   # a quarter beyond
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


class _FakeWorkload:
    points = (1, 2)

    def rounds(self, seconds):
        return 1


def test_determinism_failure_is_reported():
    calls = iter(range(100))

    def drifting_trial(workload, seed, trial):
        return TrialOutcome(point=workload.points[trial % 2], trial=trial, wall_s=0.01,
                            metrics={"hausdorff_m": float(next(calls)), "anchor_err_m": 0.0},
                            failure=None)

    metrics, details, outcomes = bench.untraced_run(_FakeWorkload(), 1, 1.0, lambda: 0.5,
                                                    drifting_trial)
    assert len(outcomes) == 2
    assert details["checks"] == {"deterministic": False}
    assert details["setup_s_runs"] == [0.5] * bench.SETUP_PROBES
    assert metrics["setup_s"] == 0.5


def test_fallback_warnings_are_counted_in_traced_trials():
    import warnings

    def warning_trial(workload, seed, trial):
        warnings.warn(f"{bench.GUESS_FALLBACK}; using the centroid", RuntimeWarning)
        warnings.warn("an unrelated warning", RuntimeWarning)
        return TrialOutcome(point=workload.points[trial % 2], trial=trial, wall_s=0.01,
                            metrics={"hausdorff_m": 1.0, "anchor_err_m": 0.0}, failure=None)

    metrics, details, traced = bench.traced_run(_FakeWorkload(), 1, 1.0, warning_trial)
    assert len(traced) == 2
    assert metrics["sync.guess_fallbacks"] == 1.0
    assert details["checks"]["traced_matches_untraced"]


def test_traced_run_accounts_for_the_wall_time_and_matches_untraced():
    metrics, details, traced = bench.traced_run(WORKLOADS["los_range"], 1, 1.0, run_trial)
    assert set(metrics) == set(bench.PER_LAYER)
    assert all(details["checks"].values())
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["pipeline.self_s"] >= 0.0
    assert metrics["imaging.voxels"] > 0 and metrics["imaging.peaks"] > 0
    assert metrics["combining.clusters"] == 0.0          # line of sight never combines
    assert metrics["sync.guess_fallbacks"] >= 0.0
    assert details["calls"]["imaging.inverse_3d_spectrum"] == len(traced)


def test_tracer_restores_the_package():
    import coposim.imaging as imaging
    import coposim.pipeline as pipeline
    original = imaging.detect_peaks
    with Tracer().installed():
        assert pipeline.detect_peaks is not original
        assert pipeline.detect_peaks.__wrapped__ is original
    assert pipeline.detect_peaks is original and imaging.detect_peaks is original


def test_exits_non_zero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "los_range",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
