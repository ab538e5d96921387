import json

from coposim.pipeline import run_los, run_sweep
from coposim.scenario import ScenarioConfig

# Small noiseless line-of-sight scenario: 64 tones and a compact box keep a
# trial well under a second.
NOISELESS_LOS = {
    "scene": {"has_los": True, "surfaces": [], "distance_m": 16.0},
    "waveform": {"tones": 64},
    "noise": {"phase_sigma_rad": 0.0, "snr_db": None},
    "pipeline": {"box_extent_m": [4.0, 2.0, 4.0]},
    "sweep": {"trials": 2},
}


def test_noiseless_los_trial_recovers_the_anchor():
    report, artifacts = run_los(ScenarioConfig.from_dict(NOISELESS_LOS))
    metrics = report.trials[0]
    assert metrics["anchor_err_m"] < 1e-6
    assert metrics["detected_points"] == len(artifacts.cloud) > 0
    assert report.aggregates["n_failed"] == 0


def test_sweep_trials_do_not_depend_on_worker_count():
    config = ScenarioConfig.from_dict(NOISELESS_LOS)
    serial, _ = run_sweep(config, workers=1)
    parallel, _ = run_sweep(config, workers=2)
    assert len(serial.trials) == 2
    assert json.dumps(serial.trials, sort_keys=True) == json.dumps(parallel.trials, sort_keys=True)
