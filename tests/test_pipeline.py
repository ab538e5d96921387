import contextlib
import dataclasses
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
from coposim import cli, geometry, imaging, pipeline
from coposim.analysis import hausdorff, range_resolution
from coposim.combining import VirtualDetection
from coposim.errors import ConfigError, CoposimError
from coposim.pipeline import run, run_los, run_nlos, run_sweep
from coposim.scenario import (DEFAULT_SURFACE_POOL, ScenarioConfig, _stratified_rect,
                              aperture_antennas, build_scene, stratified_rows)
from coposim.sync import SyncResult
from coposim.waveform import MIN_FUSED_PATHS, validate_scene
from oracles import local_maxima_26, stratified_rect

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


def fused_paths(artifacts) -> dict:
    """The records of the trial's fused paths, by path id."""
    return {path.path_id: path for path in artifacts.paths if path.mapped is not None}


def test_noiseless_los_trial_recovers_the_anchor():
    report, artifacts = run(ScenarioConfig.from_dict(NOISELESS_LOS))
    metrics = report.trials[0]
    assert report.mode == "los"
    assert metrics["anchor_err_m"] < 1e-6
    assert metrics["path0_sync_converged"] is True
    assert metrics["detected_points"] == len(artifacts.cloud) > 0
    assert report.aggregates["n_failed"] == 0


def test_a_near_grazing_bearing_images_two_close_columns(monkeypatch):
    # At 88.5 deg off the array normal the path's bearing frame sees the array
    # nearly edge on: the resampled aperture has two columns much closer than
    # a row pitch, and the scene still images.  (89 deg is refused.)
    columns = []
    forward = imaging.forward_2d_spectrum

    def recording_forward(samples, pad):
        columns.append(samples.grid_x)
        return forward(samples, pad)

    monkeypatch.setattr(imaging, "forward_2d_spectrum", recording_forward)
    phi = math.radians(88.5)
    scene = {**NOISELESS_LOS["scene"], "tv_direction": [math.sin(phi), 0.0, math.cos(phi)]}
    config = ScenarioConfig.from_dict({**NOISELESS_LOS, "scene": scene, "sweep": {"trials": 1}})
    report, _ = run(config)
    assert report.aggregates["n_failed"] == 0
    assert report.trials[0]["anchor_err_m"] <= 1e-7
    assert len(columns) == 1 and len(columns[0]) == 2
    assert np.ptp(columns[0]) < pipeline._row_pitch(config) / 2


def test_an_anchor_pair_on_the_array_plane_ends_in_a_report_or_a_typed_failure(monkeypatch):
    # A wrong sync estimate on the array plane, as a 1000 s clock offset once
    # gave: anchor a at (1.9e15, -3.1e14, 0) m.  The path's bearing frame sees
    # the array edge on, its x spacing falls to 2.6e-16 m and the pad to 6.2e9
    # bins; only those within the band are formed, so the trial ends in a
    # report or a typed failure, not a MemoryError, and a sweep counts it.
    far = np.array([1.9e15, -3.1e14, 0.0])

    def on_plane(scene, path_id, *args):
        solves = (SyncResult(x, scene.clock_offset, np.zeros((3, 3)), 1, True)
                  for x in (far, far + [0.0, 0.0, 1.0]))
        return VirtualDetection(path_id, *solves)

    monkeypatch.setattr(pipeline, "_sync_path", on_plane)
    config = ScenarioConfig.from_dict({**NOISELESS_LOS, "sweep": {"trials": 1}})
    with contextlib.suppress(CoposimError):
        assert run(config)[0].aggregates["n_trials"] == 1
    assert run_sweep(config)[0].aggregates["n_trials"] == 1


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


@pytest.mark.parametrize("workers", [1, 2])
def test_a_one_point_sweep_reports_the_validation_warnings_of_its_run(workers):
    # The default array is sparser than c/(4 f_c): a run warns of it, and so
    # does a sweep of the same one trial, from a worker process as well.
    config = ScenarioConfig.from_dict({**NOISELESS_LOS, "sweep": {"trials": 1}})
    warned = run(config)[0].validation_warnings
    assert warned and run_sweep(config, workers=workers)[0].validation_warnings == warned


def test_sweep_counts_trials_of_a_configuration_that_is_not_finite(monkeypatch):
    # The sweep is checked as a configuration file is, before its first trial:
    # an infinite SNR, which only the API can set, once ran noiseless and
    # reported "snr_db": Infinity, and later failed each trial; now no trial
    # runs and none is counted.
    trials = []
    monkeypatch.setattr(pipeline, "_run_trial", lambda *args: trials.append(args))
    config = ScenarioConfig.from_dict(NOISELESS_LOS)
    config.noise.snr_db = math.inf
    with pytest.raises(ConfigError, match=r"^noise\.snr_db must be float>=-3000\?, got inf$"):
        run_sweep(config)
    assert trials == []


def test_each_sweep_trial_checks_its_configuration_once(monkeypatch):
    # run_sweep checks the whole configuration once, and each trial's
    # _run_trial checks the point's configuration once more.
    config = ScenarioConfig.from_dict(NOISELESS_LOS)
    calls = []
    original = pipeline.check

    def counted(checked):
        calls.append(checked)
        original(checked)

    for module in (coposim.scenario, pipeline):
        monkeypatch.setattr(module, "check", counted)
    report, _ = run_sweep(config)
    assert len(report.trials) == 2 and report.aggregates["n_failed"] == 0
    assert len(calls) == 1 + 2


def test_each_sweep_point_builds_one_configuration(monkeypatch):
    # Every trial of a point runs the one configuration built for the point;
    # ``seen`` keeps each object alive, so a reused id cannot pass for it.
    seen = []

    def trial(config, index):
        seen.append(config)
        return {"trial": index, "hausdorff_m": 0.0}, None, []

    monkeypatch.setattr(pipeline, "_run_trial", trial)
    sweep = {"trials": 3, "distance_m": [8.0, 12.0]}
    report, _ = run_sweep(ScenarioConfig.from_dict(dict(NOISELESS_LOS, sweep=sweep)))
    assert report.aggregates["n_failed"] == 0
    assert [c.scene.distance_m for c in seen] == [8.0] * 3 + [12.0] * 3
    assert all(c is seen[0] for c in seen[:3]) and all(c is seen[3] for c in seen[3:])
    assert seen[0] is not seen[3]


def test_sweep_points_are_the_trials_of_their_configurations():
    # Each point's trial is run() on the configuration written out by hand;
    # six surfaces exceed the pool of five, so that point fails its trial.
    sweep = {"trials": 1, "distance_m": [10.0], "surface_counts": [3, 5, 6],
             "sv_antenna_counts": [49]}
    report, _ = run_sweep(ScenarioConfig.from_dict(dict(NOISELESS_NLOS, sweep=sweep)))
    points = [(10.0, s, 49) for s in (3, 5, 6)]
    assert [(r["distance_m"], r["surfaces"], r["n_rx"]) for r in report.sweep_rows] == points
    assert [r["fail_rate"] for r in report.sweep_rows] == [0.0, 0.0, 1.0]
    assert report.aggregates["failures_by_type"] == {"ConfigError": 1}
    assert len(report.trials) == 2
    for trial, (d, s, r) in zip(report.trials, points):
        scene = {"distance_m": d, "sv_antenna_count": r,
                 "surfaces": [dict(x) for x in DEFAULT_SURFACE_POOL[:s]]}
        expected = run(ScenarioConfig.from_dict(dict(NOISELESS_NLOS, scene=scene)))[0].trials[0]
        assert trial == {**expected, "distance_m": d, "surfaces": s, "n_rx": r}


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
    # The default 8 m box: the volume of the window its path is imaged in
    # (19 MB; the whole box's would be 54 MB) is twice the trial's traced
    # peak, while the small box's 1.6 MB volume is below the spectra's.
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


def test_reconstruct_holds_about_one_spectrum_volume(monkeypatch):
    # The spectrum is streamed row by row from the 2-D transform into the
    # folded inverse, so beside the x product and the folded data no
    # (nfx, nfy, K) or (nfx, nfy, nfz) spectrum is held.  Holding both of
    # them at once peaks at about 2.4 volumes.
    bins, peaks = [], []
    remap = imaging.remap_to_sphere

    def recording_remap(spec, f_z, ref_depth):
        bins.append((len(spec.f_x), len(spec.f_y), len(f_z)))
        return remap(spec, f_z, ref_depth)

    def measured_reconstruct(*args, **kwargs):
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = imaging.reconstruct(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - live)
        return out

    monkeypatch.setattr(imaging, "remap_to_sphere", recording_remap)
    monkeypatch.setattr(pipeline, "reconstruct", measured_reconstruct)
    tracemalloc.start()
    try:
        report, _ = run(ScenarioConfig.from_dict(NOISELESS_LOS_8M))
    finally:
        tracemalloc.stop()
    assert report.trials[0]["detected_points"] > 0
    assert len(bins) == len(peaks) == 1
    assert peaks[0] < 1.5 * 16 * math.prod(bins[0])


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
            idx = np.array(local_maxima_26(mag, v), dtype=float).reshape(-1, 3) + box.first
            compared.append(np.array_equal(rows, box.origin + idx * box.spacing))
        return found[nu]

    monkeypatch.setattr(pipeline, "detect_peaks", checked)
    run(ScenarioConfig.from_dict(dict(config, noise={**config["noise"], "seed": seed})))
    assert len(compared) == 3 * paths and all(compared)


def test_every_true_image_lies_in_the_window_of_its_true_anchors(monkeypatch):
    # The window rule of ``_path_box`` with the noiseless margin, one range
    # cell, on every scene the benchmark's workloads build on base seeds 1-20.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, scenario_seed

    paths = 0
    for workload in WORKLOADS.values():
        for base in range(1, 21):
            for trial in range(24):
                point = workload.points[trial % len(workload.points)]
                config = ScenarioConfig.from_dict(
                    workload.config_dict(point, scenario_seed(base, trial)))
                scene, grid = build_scene(config), config.frequency_grid()
                a, b = scene.anchor_indices
                for image in scene.images.values():
                    rot, box, extent = pipeline._path_box(image[a], image[b], grid, config,
                                                          range_resolution(grid))
                    window = box.window(extent)
                    lo, hi = ([window.axis(i)[end] for i in range(3)] for end in (0, -1))
                    local = image @ rot.T
                    assert (local >= lo).all() and (local <= hi).all()
                    assert window.shape[0] < box.shape[0] and window.shape[2] < box.shape[2]
                    paths += 1
    assert paths == 20 * (24 + 96 + 72)


@pytest.mark.parametrize("config", [NOISELESS_LOS_6M, NOISELESS_NLOS], ids=["los-6m", "nlos"])
def test_window_detections_equal_those_of_the_configured_box(monkeypatch, config):
    # Each path's image is evaluated in its window; with the window widened
    # to the whole configured box, every path detects the same voxels.
    shapes = []
    search = pipeline.detect_peaks

    def recording_search(spectrum, nu):
        shapes.append(spectrum.box.shape)
        return search(spectrum, nu)

    monkeypatch.setattr(pipeline, "detect_peaks", recording_search)
    config = ScenarioConfig.from_dict(dict(config, noise={**config["noise"], "seed": 1}))
    windowed = run(config)[1].paths
    monkeypatch.setattr(imaging.ImagingBox, "window", lambda box, extent: box)
    whole = run(config)[1].paths
    assert len(windowed) == len(whole) == len(shapes) // 2 > 0
    for path, full, small, large in zip(windowed, whole, shapes, shapes[len(windowed):]):
        assert math.prod(small) < math.prod(large)
        assert np.array_equal(path.cloud, full.cloud)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_noiseless_nlos_trial_fuses_the_reflections(seed):
    config = dict(NOISELESS_NLOS, noise={**NOISELESS_NLOS["noise"], "seed": seed})
    report, artifacts = run(ScenarioConfig.from_dict(config))
    metrics = report.trials[0]
    assert report.mode == "nlos"
    assert metrics["anchor_err_m"] < 1e-7
    assert metrics["hausdorff_m"] < NLOS_HAUSDORFF_BOUND_M
    assert sorted(fused_paths(artifacts)) == [1, 2, 3]
    for pid, path in fused_paths(artifacts).items():
        assert metrics[f"path{pid}_hausdorff_m"] == hausdorff(path.mapped,
                                                              artifacts.scene.tv_antennas)
        assert metrics[f"path{pid}_hausdorff_m"] < NLOS_PATH_HAUSDORFF_BOUND_M
        # each fused plane is the planted one to within the anchors' rounding:
        # up to 8.4e-10 rad and 2.1e-9 m on seeds 1-5
        assert metrics[f"surface{pid}_normal_err_rad"] < 1e-7
        assert metrics[f"surface{pid}_offset_err_m"] < 1e-7


# The default scene without noise at 16 m: sync reads paths 1 and 3 one clock
# period (1/delta, about 85.3 ns) above the 20 ns offset and path 2 at it.
NOISELESS_NLOS_16M = {"scene": {"distance_m": 16.0},
                      "noise": {"phase_sigma_rad": 0.0, "snr_db": None}}


def test_clock_estimates_a_period_apart_share_a_cluster():
    report, artifacts = run(ScenarioConfig.from_dict(NOISELESS_NLOS_16M))
    metrics = report.trials[0]
    assert metrics["clusters"] == 1
    assert sorted(fused_paths(artifacts)) == [1, 2, 3]
    assert metrics["anchor_err_m"] < 1e-6
    assert metrics["hausdorff_m"] < NLOS_HAUSDORFF_BOUND_M
    assert metrics["sync_sigma_err_s"] < 1e-15


def test_clock_metrics_are_read_modulo_the_clock_period():
    # An offset of -30 ns is read as 1/delta - 30 ns: the same clock.
    scenario = {"scene": {"clock_offset_s": -3e-8},
                "noise": {"phase_sigma_rad": 0.0, "snr_db": None}}
    metrics = run(ScenarioConfig.from_dict(scenario))[0].trials[0]
    assert metrics["sync_sigma_err_s"] < 1e-15
    assert metrics["sync_discrepancy_s"] < 1e-15


CLOCK_SPLIT_S = 10e-9   # five times the clustering tolerance


def split_clock_of_path_two(monkeypatch) -> dict:
    """Shift path 2's clock estimate off the others and count the trial's calls
    to the clustering and to each per-path SFCW and imaging stage."""
    calls = dict.fromkeys(["group_by_clock", "simulate_sfcw", "reconstruct", "detect_peaks"], 0)
    sync_path = pipeline._sync_path

    def shifted(scene, path_id, *args):
        path = sync_path(scene, path_id, *args)
        if path_id == 2:
            path = VirtualDetection(path_id, *(
                dataclasses.replace(s, sigma_hat=s.sigma_hat + CLOCK_SPLIT_S)
                for s in (path.sync_a, path.sync_b)))
        return path

    def counted(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "_sync_path", shifted)
    for name in calls:
        monkeypatch.setattr(pipeline, name, counted(name))
    return calls


def test_trial_without_a_clock_cluster_fails_before_imaging(monkeypatch):
    calls = split_clock_of_path_two(monkeypatch)
    with pytest.raises(CoposimError) as raised:
        run(ScenarioConfig.from_dict(NOISELESS_NLOS))
    assert str(raised.value) == ("combining stage: no clock cluster with >= 3 paths "
                                 "(cluster sizes [2, 1])")
    assert calls == {"group_by_clock": 1, "simulate_sfcw": 0, "reconstruct": 0,
                     "detect_peaks": 0}


def test_fused_trial_clusters_once_and_images_only_its_cluster(monkeypatch):
    # Five surfaces: path 2 leaves a cluster of four, which alone is imaged and
    # fused.  Path 2 is synced and reported all the same, but holds no image.
    calls = split_clock_of_path_two(monkeypatch)
    scene = {"surfaces": [dict(s) for s in DEFAULT_SURFACE_POOL[:5]]}
    report, artifacts = run(ScenarioConfig.from_dict(dict(NOISELESS_NLOS, scene=scene)))
    metrics = report.trials[0]
    assert calls == {"group_by_clock": 1, "simulate_sfcw": 4, "reconstruct": 4,
                     "detect_peaks": 4}
    assert metrics["clusters"] == 2
    assert sorted(fused_paths(artifacts)) == [1, 3, 4, 5]
    assert all(metrics[f"path{pid}_points"] > 0 for pid in (1, 3, 4, 5))
    assert "path2_points" not in metrics and len(artifacts.paths[1].cloud) == 0
    assert "path2_anchor_err_m" in metrics and "path2_sync_converged" in metrics
    assert metrics["anchor_err_m"] < 1e-7


def test_fused_records_hold_their_plane_and_mapped_cloud(monkeypatch):
    # The five-surface trial above: each of the four fused paths' records holds
    # its plane and its cloud mirrored across it, path 2's record holds
    # neither, and every per-path fusion key is rebuilt from the records alone.
    split_clock_of_path_two(monkeypatch)
    scene = {"surfaces": [dict(s) for s in DEFAULT_SURFACE_POOL[:5]]}
    report, artifacts = run(ScenarioConfig.from_dict(dict(NOISELESS_NLOS, scene=scene)))
    assert [path.path_id for path in artifacts.paths] == [1, 2, 3, 4, 5]
    rebuilt = {}
    for path in artifacts.paths:
        pid, est = path.path_id, path.surface
        if pid == 2:
            assert path.mapped is None and est is None
            continue
        assert len(path.mapped) == len(path.cloud) > 0
        assert np.array_equal(path.mapped, geometry.mirror_point(est, path.cloud))
        planted = artifacts.scene.surfaces[pid - 1]
        dot = est.nx * planted.nx + est.nz * planted.nz
        cross = est.nx * planted.nz - est.nz * planted.nx
        rebuilt[f"path{pid}_hausdorff_m"] = hausdorff(path.mapped, artifacts.scene.tv_antennas)
        rebuilt[f"surface{pid}_normal_err_rad"] = math.atan2(abs(cross), abs(dot))
        rebuilt[f"surface{pid}_offset_err_m"] = abs(math.copysign(1.0, dot) * est.offset
                                                    - planted.offset)
    reported = {key: value for key, value in report.trials[0].items()
                if key.startswith("surface") or (key.startswith("path")
                                                 and key.endswith("_hausdorff_m"))}
    assert len(rebuilt) == 12 and reported == rebuilt


def test_fused_trial_mirrors_once_per_planted_surface(monkeypatch):
    # Each path is the scene's image of the transmit antennas, formed once per
    # trial: three planted surfaces, three mirrorings across them.  Fusion
    # mirrors the clouds across its estimated surfaces besides.
    config = ScenarioConfig.from_dict(NOISELESS_NLOS)
    planted = build_scene(config).surfaces
    original = geometry.mirror_point
    across = []

    def counted(surface, p):
        across.append(surface in planted)
        return original(surface, p)

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "coposim"]:
        if vars(module).get("mirror_point") is original:
            monkeypatch.setattr(module, "mirror_point", counted)
    run(config)
    assert sum(across) == 3 and len(across) > 3


def test_sweep_counts_a_trial_without_a_clock_cluster(monkeypatch):
    # The 3-surface point cannot cluster 3 paths and fails each trial; the
    # 5-surface point runs after it.
    calls = split_clock_of_path_two(monkeypatch)
    sweep = {"trials": 2, "surface_counts": [3, 5]}
    report, _ = run_sweep(ScenarioConfig.from_dict(dict(NOISELESS_NLOS, sweep=sweep)),
                          workers=1)
    assert report.aggregates["failures_by_type"] == {"CoposimError": 2}
    assert report.aggregates["n_trials"] == 4
    assert [row["fail_rate"] for row in report.sweep_rows] == [1.0, 0.0]
    assert [t["surfaces"] for t in report.trials] == [5, 5]
    assert calls["group_by_clock"] == 4 and calls["simulate_sfcw"] == 2 * 4


def test_report_reads_each_path_record(monkeypatch):
    # Only path 2's anchor-b solve fails to converge and reads a clock 1 ns
    # off: the report flags that path alone, the two solves disagree by 1 ns,
    # and clustering, which reads anchor a's clock, still fuses all three.
    sync_path = pipeline._sync_path

    def spoiled(scene, path_id, *args):
        path = sync_path(scene, path_id, *args)
        if path_id == 2:
            path = VirtualDetection(path_id, path.sync_a, dataclasses.replace(
                path.sync_b, converged=False, sigma_hat=path.sync_b.sigma_hat + 1e-9))
        return path

    monkeypatch.setattr(pipeline, "_sync_path", spoiled)
    report, artifacts = run(ScenarioConfig.from_dict(NOISELESS_NLOS))
    metrics = report.trials[0]
    assert [metrics[f"path{pid}_sync_converged"] for pid in (1, 2, 3)] == [True, False, True]
    assert metrics["sync_discrepancy_s"] == pytest.approx(1e-9, rel=1e-5)
    assert metrics["clusters"] == 1 and sorted(fused_paths(artifacts)) == [1, 2, 3]


@pytest.mark.parametrize("aperture", [(1.0, 1.0), (1.2, 0.6)])
@pytest.mark.parametrize("n_rx", [16, 36, 64, 100])
def test_rows_within_half_a_pitch_are_the_layout_rows(n_rx, aperture):
    # The trial images with one row pitch per layout: the antennas whose y
    # lies within half of it of each other must be exactly one stratified row.
    config = ScenarioConfig.from_dict({"scene": {"sv_aperture_m": list(aperture),
                                                 "sv_antenna_count": n_rx}})
    pitch = pipeline._row_pitch(config)
    cols = math.ceil(n_rx / stratified_rows(n_rx, *aperture))
    layout = {tuple(range(lo, min(lo + cols, n_rx))) for lo in range(0, n_rx, cols)}
    for seed in range(1, 21):
        sv = aperture_antennas(n_rx, aperture, np.random.default_rng(seed))
        rows = imaging._cluster_rows(sv[:, 1], pitch / 2)
        assert {tuple(sorted(r.tolist())) for r in rows} == layout


def test_stratified_placement_matches_the_pointwise_loop():
    # The vectorised placement draws in the loop's order, so its points are
    # the loop's bit for bit.
    cases = np.random.default_rng(7)
    for k in range(200):
        n = int(cases.integers(1, 130))
        width, height = cases.uniform(0.2, 3.0, size=2)
        jitter = cases.uniform(0.0, 0.45)
        got = _stratified_rect(n, width, height, jitter, np.random.default_rng(k))
        assert np.array_equal(got, stratified_rect(n, width, height, jitter,
                                                   np.random.default_rng(k)))


def test_every_traced_stage_runs_in_a_fused_trial(monkeypatch):
    # The benchmark's tracer wraps its stage functions by name; each must
    # still be called by a trial, whatever its signature.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import LAYERS, Tracer

    config = dict(NOISELESS_NLOS, noise={**NOISELESS_NLOS["noise"], "seed": 1})
    tracer = Tracer()
    with tracer.installed():
        run(ScenarioConfig.from_dict(config))
    names = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]
    assert [n for n in names if tracer.calls[n] < 1] == []


def cli_run(tmp_path, scenario: dict, command: str = "run") -> dict:
    """The report that ``coposim COMMAND`` prints for the scenario."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    done = subprocess.run([sys.executable, "-m", "coposim.cli", command, str(path)],
                          env=package_env(), capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout, parse_constant=reject_constant)


def reject_constant(token: str):
    raise ValueError(f"{token} is not valid JSON")


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
    # A point with no successful trial has no Hausdorff spread: null, not NaN.
    assert report["sweep_rows"][0]["hausdorff_med_m"] is None


# Pipeline tuning held as module constants, which a scenario file cannot set.
REMOVED_FIELDS = [("pipeline", "nu", 0.5), ("pipeline", "pad_factor", 1.6),
                  ("pipeline", "theta_grid_step_rad", 1e-3),
                  ("pipeline", "clock_cluster_tol_s", 2e-9),
                  ("pipeline", "direct_path_tol_m", 0.25),
                  ("waveform", "signature_fa_hz", 57e9 - 2 * 11.72e6),
                  ("waveform", "signature_fb_hz", 57e9 - 4 * 11.72e6)]


@pytest.mark.parametrize("section, name, value", REMOVED_FIELDS)
def test_fixed_tuning_is_not_a_configuration_field(tmp_path, capsys, section, name, value):
    scenario = dict(NOISELESS_LOS, **{section: {**NOISELESS_LOS.get(section, {}), name: value}})
    with pytest.raises(ConfigError, match="unrecognised configuration field"):
        ScenarioConfig.from_dict(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("coposim: error: unrecognised configuration field")


# Values of the wrong type or range, each of which once escaped as a traceback.
BAD_VALUES = [("scene", "distance_m", "far"), ("scene", "surfaces", 5),
              ("scene", "surfaces", [{"slope": 1.0}]), ("scene", "tv_direction", [1, 0]),
              ("scene", "has_los", "yes"), ("scene", "sv_antenna_count", 64.0),
              ("noise", "seed", -1), ("noise", "phase_sigma_rad", -1.0),
              ("waveform", "tones", 64.5), ("pipeline", "box_extent_m", [4.0, 2.0, "4"]),
              ("sweep", "sv_antenna_counts", [1.5]), ("sweep", "trials", None),
              # a surface has exactly the keys slope and intercept_m
              ("scene", "surfaces", [{"slope": 1.0, "intercept_m": 3.0, "vertical": "no"}]),
              ("scene", "surfaces", [{"slope": 1.0, "intercept_m": 3.0, "gamma_re": "x"}]),
              ("scene", "surfaces", [{"slope": 1.0, "intercept_m": 3.0, "colour": 5}]),
              # a negative count once ran pool[:-1], four surfaces, as "-1"
              ("sweep", "surface_counts", [-1]),
              # literals that overflow to infinity once ran, or escaped as a traceback
              ("noise", "snr_db", math.inf), ("noise", "snr_db", -math.inf),
              ("noise", "phase_sigma_rad", math.inf), ("scene", "distance_m", math.inf),
              ("scene", "distance_m", -math.inf), ("scene", "clock_offset_s", math.inf),
              ("scene", "clock_offset_s", -math.inf),
              # set in code, these once ran (2.5 antennas) or escaped from numpy
              ("scene", "tv_antenna_count", 2.5), ("pipeline", "box_extent_m", [4.0, 2.0]),
              # once refused only when the scene was built or the sweep began
              ("scene", "tv_direction", [0, 0, 0]), ("sweep", "trials", 0),
              ("sweep", "sv_antenna_counts", [0])]


def overflowing_json(scenario: dict) -> str:
    """The scenario as JSON, an infinite value written as the literal that overflows
    to it: ``json.dumps`` writes Infinity, which is not JSON and is refused as such."""
    return json.dumps(scenario).replace("Infinity", "1e400")


def assert_refused_at_load(tmp_path, capsys, section, name, value):
    """The value is a ConfigError of the loader, and ``run`` and ``sweep`` exit 2 on it
    with one line."""
    scenario = dict(NOISELESS_LOS, **{section: {**NOISELESS_LOS.get(section, {}), name: value}})
    with pytest.raises(ConfigError, match=rf"^{section}\.{name} must be "):
        ScenarioConfig.from_dict(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(overflowing_json(scenario))
    for command in ("run", "sweep"):
        assert cli.main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"coposim: error: {section}.{name} must be ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("section, name, value", BAD_VALUES)
def test_a_value_of_the_wrong_type_is_a_one_line_error(tmp_path, capsys, section, name, value):
    assert_refused_at_load(tmp_path, capsys, section, name, value)


def test_an_snr_past_the_float_range_is_refused_at_load(tmp_path, capsys):
    # The SFCW noise power 10^(-snr_db/10) leaves float64 near -3083 dB: -3100
    # once escaped from simulate_sfcw as an OverflowError.  -3000 still loads.
    assert_refused_at_load(tmp_path, capsys, "noise", "snr_db", -3100.0)
    assert ScenarioConfig.from_dict({"noise": {"snr_db": -3000.0}}).noise.snr_db == -3000.0


def test_an_integral_float_seed_is_refused_at_load(tmp_path, capsys):
    # The noise seed feeds numpy's seed sequence, which takes integers only.
    assert_refused_at_load(tmp_path, capsys, "noise", "seed", 2.0)


@pytest.mark.parametrize("offset", [1e-6, 1.0, 100.0, 1e3, 1e300, -1e300])
def test_a_clock_offset_is_read_modulo_the_beat_period(offset):
    # The scene holds the offset's remainder modulo 1/delta, which no receiver
    # can tell from it.  Unreduced, the symbol phases lost their precision:
    # 1 s read 0.091 m of anchor error and 100 s 3.43 m, both as successes,
    # 1e3 s failed as rank-deficient and 1e300 s left float64.
    def metrics(clock_offset_s):
        config = {**NOISELESS_LOS_8M,
                  "scene": {**NOISELESS_LOS_8M["scene"], "clock_offset_s": clock_offset_s}}
        return run(ScenarioConfig.from_dict(config))[0].trials[0]

    shifted, default = metrics(offset), metrics(2.0e-8)
    assert shifted["anchor_err_m"] <= 1e-8
    assert shifted["hausdorff_m"] == pytest.approx(default["hausdorff_m"], abs=1e-6)


# Values that load, but whose scene leaves the float64 range or precision: each
# once escaped from the trial as a traceback and aborted a sweep.
SCENES_PAST_FLOAT64 = [
    ("distance_m", 1e200, "scene stage: tv_antennas contains duplicate points"),
    ("tv_size_m", [1e200, 1.0, 1.0], "scene stage: a configured value is past the float64 range")]


@pytest.mark.parametrize("name, value, message", SCENES_PAST_FLOAT64)
def test_a_scene_past_float64_fails_its_trial_in_one_line(tmp_path, capsys, name, value, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**NOISELESS_LOS, "scene": {**NOISELESS_LOS["scene"], name: value}}))
    assert cli.main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"coposim: error: {message}")
    assert err.count("\n") == 1


def test_a_sweep_counts_a_trial_whose_body_is_past_float64():
    scenario = {**NOISELESS_LOS, "scene": {**NOISELESS_LOS["scene"], "tv_size_m": [1e200, 1, 1]},
                "sweep": {"trials": 1}}
    report, _ = run_sweep(ScenarioConfig.from_dict(scenario))
    assert report.aggregates["n_failed"] == 1
    assert report.aggregates["failures_by_type"] == {"CoposimError": 1}


# Values of the right type that no scene can take, each of which once escaped
# from the antenna generators or from Scene as a traceback, and later failed
# each trial of a sweep.
BAD_SCENES = [("tv_antenna_count", 1), ("tv_antenna_count", 0), ("sv_antenna_count", 0),
              ("sv_aperture_m", [0, 0]), ("sv_aperture_m", [1.0, 0.0]),
              ("tv_size_m", [0, 0, 0]), ("tv_size_m", [3.0, 1.0, 0.0])]


@pytest.mark.parametrize("name, value", BAD_SCENES)
def test_a_scene_out_of_range_is_a_one_line_error(tmp_path, capsys, name, value):
    assert_refused_at_load(tmp_path, capsys, "scene", name, value)


@pytest.mark.parametrize("section, name, value",
                         BAD_VALUES + [("scene", name, value) for name, value in BAD_SCENES])
def test_a_value_set_in_code_is_refused_by_run(section, name, value):
    # run() checks the configuration it is given, not only the file it came from.
    config = ScenarioConfig.from_dict(NOISELESS_LOS)
    setattr(getattr(config, section), name, value)
    with pytest.raises(ConfigError, match=rf"^{section}\.{name} must be "):
        run(config)


# Each sweep value, then an infinite SNR (reported as "snr_db": Infinity) and a
# distance of "far" (a ValueError from the point list): run_sweep once checked
# only the sweep section, and these two escaped.
SWEEP_SET_IN_CODE = ([(n, v) for s, n, v in BAD_VALUES if s == "sweep"]
                     + [("snr_db", math.inf), ("distance_m", "far")])


@pytest.mark.parametrize("name, value", SWEEP_SET_IN_CODE)
def test_a_sweep_value_set_in_code_is_refused_by_run_sweep(name, value):
    # run_sweep checks the whole configuration before it builds its points.
    section = {"snr_db": "noise", "distance_m": "scene"}.get(name, "sweep")
    config = ScenarioConfig.from_dict(NOISELESS_LOS)
    setattr(getattr(config, section), name, value)
    with pytest.raises(ConfigError, match=rf"^{section}\.{name} must be "):
        run_sweep(config)


# Scenarios refused in one line. A scene that builds but that a trial refuses
# before sync: a 30 m aperture steps 27 m between consecutive antennas, past
# the 12.8 m unwrap bound (once exit 1 from sync). An imaging box with an empty
# or a negative side, which once imaged one voxel or one x layer (exit 0), is
# refused at load. Three receive antennas, which give sync two range
# differences for three unknowns, are refused before sync too. A 10 MHz comb
# start loads, but puts the signature tones, two and four tone gaps below it,
# at negative frequencies.
BAD_TRIALS = [({"scene": {"sv_aperture_m": [30.0, 30.0]}},
               "consecutive antenna spacing 27.17 m exceeds the phase-unwrap bound 12.79 m"),
              ({"pipeline": {"box_extent_m": [0, 0, 0]}},
               "pipeline.box_extent_m must be float>0[3], got [0, 0, 0]"),
              ({"pipeline": {"box_extent_m": [-6, 4, 6]}},
               "pipeline.box_extent_m must be float>0[3], got [-6, 4, 6]"),
              ({"scene": {"sv_antenna_count": 3}},
               "clock-difference estimation needs at least 4 receive antennas, got 3"),
              ({"waveform": {"f1_hz": 1e7}},
               "signature tones and delta must be positive")]


@pytest.mark.parametrize("scenario, message", BAD_TRIALS)
def test_a_trial_the_pipeline_refuses_is_a_one_line_error(tmp_path, capsys, scenario, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**scenario, "noise": {"phase_sigma_rad": 0.0, "snr_db": None},
                                "sweep": {"trials": 1}}))
    assert cli.main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"coposim: error: {message}\n"
    try:
        ScenarioConfig.from_dict(scenario)
    except ConfigError as error:
        # The loader refuses it, so a sweep stops on the same line.
        assert str(error) == message
        assert cli.main(["sweep", str(path)]) == 2
        assert capsys.readouterr() == ("", f"coposim: error: {message}\n")
        return
    # A sweep counts the point's trial as failed instead of stopping.
    assert cli.main(["sweep", str(path)]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert report["aggregates"]["failures_by_type"] == {"ConfigError": 1}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_nan_and_infinity_are_not_json(tmp_path, capsys, token):
    path = tmp_path / "scenario.json"
    path.write_text('{"scene": {"distance_m": %s}}' % token)
    assert cli.main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"coposim: error: configuration is not valid JSON: {token} is not a JSON value\n"


@pytest.mark.parametrize("name, content", [("missing.json", None), ("folder", "dir"),
                                           ("latin1.json", b'{"scene": "\xe9"}')],
                         ids=["missing", "directory", "not-utf8"])
def test_a_configuration_file_that_cannot_be_read_is_a_one_line_error(tmp_path, capsys,
                                                                      name, content):
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert cli.main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"coposim: error: cannot read configuration file {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("scenario", [{"scen": {}}, {"scene": 5}, {"noise": None}])
def test_a_section_must_be_a_known_object(scenario):
    with pytest.raises(ConfigError, match="configuration sections are objects named"):
        ScenarioConfig.from_dict(scenario)


def test_of_two_unknown_fields_the_first_in_the_file_is_named():
    with pytest.raises(ConfigError, match=r"^unrecognised configuration field: scene\.zeta$"):
        ScenarioConfig.from_json('{"scene": {"zeta": 1, "alpha": 2}}')


def test_ints_load_as_floats_and_the_defaults_round_trip():
    config = ScenarioConfig()
    assert ScenarioConfig.from_dict({"scene": {"distance_m": 8, "tv_direction": [1, 0, 0]},
                                     "noise": {"snr_db": None, "seed": 0}}).scene.distance_m == 8
    assert ScenarioConfig.from_dict(config.to_dict()) == config


def test_cli_reports_a_scene_the_pipeline_rejects(tmp_path, capsys):
    # One receive antenna loads, but scene validation rejects it when the run
    # starts (sync needs at least 4).
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(NOISELESS_LOS, scene={**NOISELESS_LOS["scene"],
                                                          "sv_antenna_count": 1})))
    assert cli.main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("coposim: error: ") and err.count("\n") == 1
    assert "at least 4 receive antennas, got 1" in err


@pytest.mark.parametrize("distance_m", [0.0, 0.5])
def test_a_transmitter_at_or_behind_the_array_is_a_one_line_error(tmp_path, capsys, distance_m):
    # The body reaches z = 0.3 m below its centre: at 0 m and 0.5 m some of its
    # antennas lie at or behind the array, where sync cannot tell them from
    # their mirror twins in front, so the run stops before sync.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"scene": {"distance_m": distance_m},
                                "noise": {"phase_sigma_rad": 0.0, "snr_db": None}}))
    assert cli.main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("coposim: error: ") and err.count("\n") == 1
    assert "at or behind the receive array" in err


def test_cli_reports_a_failed_trial_in_one_line(tmp_path, capsys):
    # The default scene is noisy, and its trial 0 finds no clock cluster of 3.
    path = tmp_path / "scenario.json"
    path.write_text("{}")
    assert cli.main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("coposim: error: combining stage: no clock cluster with >= 3 paths "
                   "(cluster sizes [1, 1, 1])\n")


# A direct view that also has the three default reflecting surfaces: fused, so
# of the "nlos" kind.
LOS_WITH_SURFACES = {"scene": {"has_los": True}}

# A direct view and one surface: two paths, too few to fuse, so of the "los"
# kind.  Every trial of it once failed with clock cluster sizes [2].
LOS_WITH_ONE_SURFACE = {
    "scene": {"has_los": True, "surfaces": [dict(DEFAULT_SURFACE_POOL[0])]},
    "noise": {"phase_sigma_rad": 0.0, "snr_db": None},
}


def test_a_direct_view_with_one_surface_images_its_direct_path(monkeypatch):
    images = []
    original = pipeline.reconstruct

    def counted(*args):
        images.append(args)
        return original(*args)

    monkeypatch.setattr(pipeline, "reconstruct", counted)
    report, artifacts = run(ScenarioConfig.from_dict(LOS_WITH_ONE_SURFACE))
    assert report.mode == "los"
    assert report.aggregates["n_failed"] == 0
    assert [path.path_id for path in artifacts.paths] == [0, 1]
    # Only the direct path is imaged; the surface's path is synced and
    # reported without an image.
    metrics = report.trials[0]
    assert len(images) == 1
    assert "path1_points" not in metrics and len(artifacts.paths[1].cloud) == 0
    assert "path1_anchor_err_m" in metrics and "path1_sync_converged" in metrics
    # The estimate is the direct path's image, bit for bit that of the same
    # seed's scene without the surface.
    alone, alone_artifacts = run(ScenarioConfig.from_dict(
        {**LOS_WITH_ONE_SURFACE, "scene": {"has_los": True, "surfaces": []}}))
    assert np.array_equal(artifacts.cloud, alone_artifacts.cloud)
    assert report.trials[0]["hausdorff_m"] == alone.trials[0]["hausdorff_m"]


@pytest.mark.parametrize("has_los", [True, False])
@pytest.mark.parametrize("n_surfaces", range(5))
def test_every_scene_the_check_accepts_is_los_or_can_be_fused(has_los, n_surfaces):
    # One three-path rule: a direct view with too few surfaces to fuse is
    # "los", and a scene without one needs enough surfaces to fuse.
    config = ScenarioConfig.from_dict({"scene": {
        "has_los": has_los, "surfaces": [dict(s) for s in DEFAULT_SURFACE_POOL[:n_surfaces]]}})
    scene = build_scene(config)
    mode = pipeline._mode(scene)
    assert pipeline._mode(config.scene) == mode
    try:
        validate_scene(scene, config.frequency_grid())
    except ConfigError:
        assert not has_los and n_surfaces < MIN_FUSED_PATHS
        return
    assert mode == "los" or len(scene.images) >= MIN_FUSED_PATHS
    assert (mode == "los") == (has_los and len(scene.images) < MIN_FUSED_PATHS)


@pytest.mark.parametrize("entry, scenario", [(run_los, NOISELESS_LOS), (run_nlos, NOISELESS_NLOS)])
def test_named_entries_are_run_for_their_kind_of_scene(entry, scenario):
    config = ScenarioConfig.from_dict(scenario)
    named, _ = entry(config, workers=1)
    plain, _ = run(config)
    assert named.mode == plain.mode
    assert named.trials[0] == plain.trials[0]


@pytest.mark.parametrize("entry, other", [(run_los, NOISELESS_NLOS), (run_los, LOS_WITH_SURFACES),
                                          (run_nlos, NOISELESS_LOS),
                                          (run_nlos, LOS_WITH_ONE_SURFACE)])
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


def modules_loaded_by_pipeline_import(package: str) -> str:
    """The modules of ``package`` that a fresh ``import coposim.pipeline`` loads."""
    script = ("import sys, coposim.pipeline\n"
              f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    done = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_pipeline_import_needs_no_scipy():
    assert modules_loaded_by_pipeline_import("scipy") == "[]"


def test_pipeline_import_loads_no_multiprocessing():
    # Only a sweep on several workers starts a process pool.
    assert modules_loaded_by_pipeline_import("multiprocessing") == "[]"
