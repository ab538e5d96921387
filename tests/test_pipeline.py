import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coposim
from coposim import imaging, pipeline
from coposim.analysis import hausdorff
from coposim.errors import ConfigError
from coposim.pipeline import run, run_los, run_nlos, run_sweep
from coposim.scenario import ScenarioConfig
from oracles import local_maxima_26

# Small noiseless line-of-sight scenario: 64 tones and a compact box keep a
# trial well under a second.
NOISELESS_LOS = {
    "scene": {"has_los": True, "surfaces": [], "distance_m": 16.0},
    "waveform": {"tones": 64},
    "noise": {"phase_sigma_rad": 0.0, "snr_db": None},
    "pipeline": {"box_extent_m": [4.0, 2.0, 4.0]},
    "sweep": {"trials": 2},
}

# Default box and tones at the default 8 m: the imaging products are large
# enough for a multithreaded BLAS to split them.
NOISELESS_LOS_8M = {
    "scene": {"has_los": True, "surfaces": []},
    "noise": {"phase_sigma_rad": 0.0, "snr_db": None},
}

# The same without line of sight: the three default reflecting surfaces.
NOISELESS_NLOS = {
    "waveform": {"tones": 64},
    "noise": {"phase_sigma_rad": 0.0, "snr_db": None},
    "pipeline": {"box_extent_m": [4.0, 2.0, 4.0]},
}
# Fused Hausdorff distance is 0.43-0.52 m on noise seeds 1-5 (about 2.5 range
# cells of 0.2 m at 64 tones) and per mapped path 0.40-0.78 m; both bounds
# leave about 45% headroom.
NLOS_HAUSDORFF_BOUND_M = 0.75
NLOS_PATH_HAUSDORFF_BOUND_M = 1.15


def test_noiseless_los_trial_recovers_the_anchor():
    report, artifacts = run(ScenarioConfig.from_dict(NOISELESS_LOS))
    metrics = report.trials[0]
    assert report.mode == "los"
    assert metrics["anchor_err_m"] < 1e-6
    assert metrics["path0_sync_converged"] is True
    assert metrics["detected_points"] == len(artifacts.cloud) > 0
    assert report.aggregates["n_failed"] == 0


# Noiseless line of sight at 6 m, default waveform and box.  On these noise
# seeds a start searched for on a grid over a fixed region sends the anchor
# solve 4.6e6 m off or into a rank-deficient solve.
NOISELESS_LOS_6M = {
    "scene": {"has_los": True, "surfaces": [], "distance_m": 6.0},
    "noise": {"phase_sigma_rad": 0.0, "snr_db": None},
}


@pytest.mark.parametrize("seed", [4008876094, 3983474997])
def test_noiseless_los_start_needs_no_search_region(seed):
    config = dict(NOISELESS_LOS_6M, noise={**NOISELESS_LOS_6M["noise"], "seed": seed})
    metrics = run(ScenarioConfig.from_dict(config))[0].trials[0]
    assert metrics["anchor_err_m"] < 1e-6
    assert metrics["path0_sync_converged"] is True


def test_sweep_trials_do_not_depend_on_worker_count():
    config = ScenarioConfig.from_dict(NOISELESS_LOS)
    serial, _ = run_sweep(config, workers=1)
    parallel, _ = run_sweep(config, workers=2)
    assert len(serial.trials) == 2
    assert json.dumps(serial.trials, sort_keys=True) == json.dumps(parallel.trials, sort_keys=True)


def package_env(**extra) -> dict:
    """Environment for a fresh interpreter that imports this ``coposim``."""
    src = str(Path(coposim.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def trial_with_blas_threads(threads: int) -> dict:
    """Metrics of one ``run`` trial in a fresh interpreter; BLAS reads its
    thread count when it loads, so the setting needs its own process."""
    env = package_env(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    script = ("import json, sys\n"
              "from coposim.pipeline import run\n"
              "from coposim.scenario import ScenarioConfig\n"
              "report, _ = run(ScenarioConfig.from_dict(json.loads(sys.argv[1])))\n"
              "print(json.dumps(report.trials[0]))\n")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(NOISELESS_LOS_8M)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def test_los_trial_does_not_depend_on_blas_threads():
    assert trial_with_blas_threads(1) == trial_with_blas_threads(2)


def test_los_trial_never_holds_its_full_volume(monkeypatch):
    # The default 8 m box: its volume (54 MB) outweighs every other array of
    # the trial, while the small box's 1.6 MB volume is below the spectra's.
    shapes = []
    inverse = imaging.inverse_3d_spectrum

    def recording_inverse(spec, box):
        shapes.append(box.shape)
        return inverse(spec, box)

    monkeypatch.setattr(imaging, "inverse_3d_spectrum", recording_inverse)
    config = ScenarioConfig.from_dict(NOISELESS_LOS_8M)
    tracemalloc.start()
    try:
        report, _ = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.trials[0]["detected_points"] > 0
    assert len(shapes) == 1 and peak < 16 * math.prod(shapes[0])


@pytest.mark.parametrize("config, paths", [(NOISELESS_LOS, 1), (NOISELESS_NLOS, 3)],
                         ids=["los", "nlos"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_peak_search_on_factored_spectra_matches_the_assembled_volume(monkeypatch, config,
                                                                      paths, seed):
    # Every spectrum the trial images: the bound-pruned search on the factored
    # spectrum gives the local maxima of its assembled volume.
    search = pipeline.detect_peaks
    compared = []

    def checked(spectrum, nu):
        found = {v: search(spectrum, v) for v in (0.2, nu, 1.0)}
        box, mag = spectrum.box, np.abs(spectrum.voxels)
        for v, rows in found.items():
            idx = np.array(local_maxima_26(mag, v), dtype=float).reshape(-1, 3)
            compared.append(np.array_equal(rows, box.origin + idx * box.spacing))
        return found[nu]

    monkeypatch.setattr(pipeline, "detect_peaks", checked)
    run(ScenarioConfig.from_dict(dict(config, noise={**config["noise"], "seed": seed})))
    assert len(compared) == 3 * paths and all(compared)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_noiseless_nlos_trial_fuses_the_reflections(seed):
    config = dict(NOISELESS_NLOS, noise={**NOISELESS_NLOS["noise"], "seed": seed})
    report, artifacts = run(ScenarioConfig.from_dict(config))
    metrics = report.trials[0]
    assert report.mode == "nlos"
    assert metrics["anchor_err_m"] < 1e-5
    assert metrics["hausdorff_m"] < NLOS_HAUSDORFF_BOUND_M
    assert sorted(artifacts.mapped_clouds) == [1, 2, 3]
    for pid, mapped in artifacts.mapped_clouds.items():
        assert metrics[f"path{pid}_hausdorff_m"] == hausdorff(mapped, artifacts.scene.tv_antennas)
        assert metrics[f"path{pid}_hausdorff_m"] < NLOS_PATH_HAUSDORFF_BOUND_M


def cli_run(tmp_path, scenario: dict, command: str = "run") -> dict:
    """The report that ``coposim COMMAND`` prints for the scenario."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    done = subprocess.run([sys.executable, "-m", "coposim.cli", command, str(path)],
                          env=package_env(), capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout)


def test_cli_run_prints_the_report(tmp_path):
    report = cli_run(tmp_path, NOISELESS_LOS)
    assert report["mode"] == "los"
    assert report["aggregates"]["n_failed"] == 0
    assert report["trials"][0]["anchor_err_m"] < 1e-6


def test_cli_run_fuses_a_scene_without_line_of_sight(tmp_path):
    report = cli_run(tmp_path, NOISELESS_NLOS)
    assert report["mode"] == "nlos"
    assert report["aggregates"]["n_failed"] == 0
    assert report["trials"][0]["anchor_err_m"] < 1e-5


def test_cli_sweep_counts_failures_by_type(tmp_path):
    # Scene validation rejects one receive antenna (sync needs at least 4), so
    # that point fails and the other runs.
    scenario = dict(NOISELESS_LOS, sweep={"trials": 1, "sv_antenna_counts": [1, 64]})
    report = cli_run(tmp_path, scenario, "sweep")
    assert report["aggregates"]["n_failed"] == 1
    assert report["aggregates"]["failures_by_type"] == {"ConfigError": 1}
    assert [row["fail_rate"] for row in report["sweep_rows"]] == [1.0, 0.0]


# A direct view that also has the three default reflecting surfaces: fused, so
# of the "nlos" kind.
LOS_WITH_SURFACES = {"scene": {"has_los": True}}


@pytest.mark.parametrize("entry, scenario", [(run_los, NOISELESS_LOS), (run_nlos, NOISELESS_NLOS)])
def test_named_entries_are_run_for_their_kind_of_scene(entry, scenario):
    config = ScenarioConfig.from_dict(scenario)
    named, _ = entry(config, workers=1)
    plain, _ = run(config)
    assert named.mode == plain.mode
    assert named.trials[0] == plain.trials[0]


@pytest.mark.parametrize("entry, other", [(run_los, NOISELESS_NLOS), (run_los, LOS_WITH_SURFACES),
                                          (run_nlos, NOISELESS_LOS)])
def test_named_entries_reject_the_other_kind_of_scene(entry, other):
    with pytest.raises(ConfigError, match=r"use run\(config\)"):
        entry(ScenarioConfig.from_dict(other), workers=1)


@pytest.mark.parametrize("entry, scenario", [(run_los, NOISELESS_LOS), (run_nlos, NOISELESS_NLOS)])
def test_named_entries_point_parallel_work_to_the_sweep(entry, scenario):
    with pytest.raises(ConfigError, match="run_sweep"):
        entry(ScenarioConfig.from_dict(scenario), workers=2)


def test_console_scripts_import_to_callables():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def test_pipeline_import_needs_no_scipy():
    script = "import sys, coposim.pipeline\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
