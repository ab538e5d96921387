"""Run orchestration: one trial path, single runs and Monte Carlo sweeps.

A trial simulates one snapshot, synchronises and images each path, and
fuses the virtual detections unless the scene has a line of sight and no
reflecting surfaces, in which case the direct path's image is the estimate.
All randomness is derived from (config seed, trial index), so results do not
depend on how a sweep spreads its trials over worker processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analysis import azimuth_resolution, hausdorff, range_resolution, rmse_nearest
from .channel import NoiseModel, simulate_sfcw, simulate_signature
from .combining import VirtualDetection, combine_cluster, group_by_clock
from .errors import ConfigError, CoposimError
from .geometry import SPEED_OF_LIGHT as C
from .geometry import Scene, directed_angle_xz, mirror_point
from .imaging import ImagingBox, detect_peaks, reconstruct
from .scenario import ScenarioConfig, build_scene, trial_noise_seed
from .sync import locate_and_sync
from .waveform import validate_scene


@dataclass
class TrialArtifacts:
    """Heavyweight per-trial outputs kept out of the serialisable report."""

    scene: Scene
    cloud: np.ndarray
    mapped_clouds: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class RunReport:
    mode: str
    config: dict
    config_hash: str
    seed: int
    version: str
    validation_warnings: list[str]
    trials: list[dict]
    aggregates: dict
    sweep_rows: list[dict] | None = None

    def to_json(self) -> str:
        import json
        return json.dumps(_plain(self.__dict__), indent=2, sort_keys=True)


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def _phase_noise_std_m(noise: NoiseModel, delta: float) -> float | None:
    """Range-difference noise implied by the per-antenna phase error."""
    if noise.phase_sigma <= 0:
        return None
    return math.sqrt(2.0) * C * noise.phase_sigma / (2.0 * math.pi * delta)


def _row_tolerance(config: ScenarioConfig, n_rx: int) -> float:
    w, h = config.scene.sv_aperture_m
    rows = max(1, int(math.floor(math.sqrt(n_rx * h / max(w, 1e-9)))))
    return 0.5 * h / rows


def _bearing_rotation(direction: np.ndarray) -> np.ndarray:
    """Rotation about Y aligning the X-Z bearing of ``direction`` with +Z."""
    phi = math.atan2(direction[0], direction[2])
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def _mode(scene) -> str:
    """"los" for a direct view and no surfaces, else "nlos"; ``scene`` is a Scene or SceneSpec."""
    return "los" if scene.has_los and not scene.surfaces else "nlos"


def _process_path(scene: Scene, sig_obs, config: ScenarioConfig,
                  noise: NoiseModel) -> tuple[VirtualDetection, bool, float]:
    """Sync, SFCW simulation and imaging of one path.

    Returns the detection, whether both anchor solves converged, and the
    disagreement of their clock estimates.
    """
    grid = config.frequency_grid()
    pspec = config.pipeline
    delta = grid.delta
    f_std = _phase_noise_std_m(noise, delta)

    sync_a = locate_and_sync(sig_obs, "a", delta, scene.sv_antennas, noise_std_m=f_std)
    sync_b = locate_and_sync(sig_obs, "b", delta, scene.sv_antennas, noise_std_m=f_std)
    sigma_hat = sync_a.sigma_hat

    pid = sig_obs.path_id
    sfcw_obs = simulate_sfcw(scene, grid, noise, sigma_estimate={pid: sigma_hat},
                             path_ids=[pid])[0]

    center = 0.5 * (sync_a.x_anchor + sync_b.x_anchor)
    rng_to_center = max(float(np.linalg.norm(center)), 1.0)
    dy = azimuth_resolution(rng_to_center, max(config.scene.sv_aperture_m), grid.center)
    pitch = [dy / 2, dy / 2, range_resolution(grid) / 2]

    # Image in the path's own frame: rotate about Y so the arrival bearing
    # (known per path from the anchor estimates) faces broadside.  This keeps
    # aperture rows intact and the virtual transmitter near zero spatial
    # frequency, where the sparse aperture is usable.
    rot = _bearing_rotation(center)
    row_tol = _row_tolerance(config, scene.n_sv)
    spectrum = reconstruct(sfcw_obs.sfcw, scene.sv_antennas @ rot.T, grid,
                           ImagingBox.centered(rot @ center, pspec.box_extent_m, pitch),
                           target_spacing=2.0 * row_tol, row_tol=row_tol,
                           pad_factor=pspec.pad_factor)
    cloud = detect_peaks(spectrum, pspec.nu) @ rot
    phi = directed_angle_xz(sync_a.x_anchor, sync_b.x_anchor)
    det = VirtualDetection(path_id=pid, x_a_virtual=sync_a.x_anchor,
                           x_b_virtual=sync_b.x_anchor, cloud=cloud,
                           sigma_hat=sigma_hat, baseline_angle=phi)
    return (det, sync_a.converged and sync_b.converged,
            abs(sync_a.sigma_hat - sync_b.sigma_hat))


def _run_trial(config: ScenarioConfig, trial: int = 0,
               distance=None, n_surfaces=None, n_rx=None):
    scene = build_scene(config, trial=trial, distance=distance,
                        n_surfaces=n_surfaces, n_rx=n_rx)
    grid = config.frequency_grid()
    report = validate_scene(scene, grid)
    if not report.ok:
        raise ConfigError("; ".join(report.errors))

    noise = NoiseModel(config.noise.phase_sigma_rad, config.noise.snr_db,
                       trial_noise_seed(config, trial))
    paths = [_process_path(scene, obs, config, noise)
             for obs in simulate_signature(scene, config.signature(), noise)]
    detections = [det for det, _, _ in paths]

    metrics: dict = {"trial": trial}
    metrics["sync_sigma_err_s"] = max(abs(d.sigma_hat - scene.clock_offset) for d in detections)
    metrics["sync_discrepancy_s"] = max(discrepancy for _, _, discrepancy in paths)

    for det, converged, _ in paths:
        pid = det.path_id
        surface = None if pid == 0 else scene.surfaces[pid - 1]
        true_virtual = scene.anchor_a if surface is None else mirror_point(surface, scene.anchor_a)
        metrics[f"path{pid}_anchor_err_m"] = float(np.linalg.norm(det.x_a_virtual - true_virtual))
        metrics[f"path{pid}_points"] = int(len(det.cloud))
        metrics[f"path{pid}_sync_converged"] = converged

    truth = scene.tv_antennas
    mapped_clouds = {}

    if _mode(scene) == "los":
        det = detections[0]
        cloud = det.cloud
        metrics["anchor_err_m"] = float(np.linalg.norm(det.x_a_virtual - scene.anchor_a))
        metrics["anchor_b_err_m"] = float(np.linalg.norm(det.x_b_virtual - scene.anchor_b))
    else:
        clusters = group_by_clock(detections, config.pipeline.clock_cluster_tol_s)
        clusters.sort(key=lambda c: (-len(c), min(d.path_id for d in c)))
        if not clusters or len(clusters[0]) < 3:
            raise CoposimError(
                f"combining stage: no clock cluster with >= 3 paths "
                f"(cluster sizes {[len(c) for c in clusters]})")
        res = combine_cluster(clusters[0], merge_radius=range_resolution(grid) / 2,
                              grid_step=config.pipeline.theta_grid_step_rad,
                              direct_path_tol=config.pipeline.direct_path_tol_m)
        cloud = res.actual_cloud
        metrics["theta_ref_rad"] = float(res.theta_ref)
        metrics["anchor_err_m"] = float(np.linalg.norm(res.x_a_star - scene.anchor_a))
        metrics["anchor_b_err_m"] = float(np.linalg.norm(res.x_b_star - scene.anchor_b))
        metrics["clusters"] = len(clusters)
        for pid, est, mapped in zip(res.path_ids, res.surfaces, res.mapped_clouds):
            mapped_clouds[pid] = mapped
            if len(mapped):
                metrics[f"path{pid}_hausdorff_m"] = hausdorff(mapped, truth)
            if est is not None and pid > 0:
                planted = scene.surfaces[pid - 1]
                if not est.vertical and not planted.vertical:
                    metrics[f"surface{pid}_slope_err"] = float(abs(est.slope - planted.slope))
                    metrics[f"surface{pid}_intercept_err_m"] = float(
                        abs(est.intercept - planted.intercept))

    if len(cloud) == 0:
        raise CoposimError("detection stage returned an empty point cloud")
    metrics["hausdorff_m"] = hausdorff(cloud, truth)
    metrics["rmse_m"] = rmse_nearest(cloud, truth)
    metrics["detected_points"] = int(len(cloud))
    return metrics, TrialArtifacts(scene, cloud, mapped_clouds), report.warnings


def _median_iqr(values) -> tuple[float, float]:
    """Median and interquartile range of the values, NaN for none."""
    if not len(values):
        return math.nan, math.nan
    q75, q25 = np.percentile(values, [75, 25])
    return float(np.median(values)), float(q75 - q25)


def _aggregate(trials: list[dict], failures: int) -> dict:
    vals = np.array([t["hausdorff_m"] for t in trials if "hausdorff_m" in t])
    agg = {"n_trials": len(trials) + failures, "n_failed": failures}
    if len(vals):
        agg["hausdorff_median_m"], agg["hausdorff_iqr_m"] = _median_iqr(vals)
    return agg


def _make_report(mode, config, warnings, trials, failures, sweep_rows=None) -> RunReport:
    return RunReport(mode=mode, config=config.to_dict(), config_hash=config.config_hash(),
                     seed=config.noise.seed, version=__version__,
                     validation_warnings=list(warnings), trials=trials,
                     aggregates=_aggregate(trials, failures), sweep_rows=sweep_rows)


def run(config: ScenarioConfig) -> tuple[RunReport, TrialArtifacts]:
    """One trial of the configured scene; the report's ``mode`` says whether
    it fused reflections ("nlos") or imaged a clear direct view ("los")."""
    metrics, artifacts, warns = _run_trial(config)
    return _make_report(_mode(artifacts.scene), config, warns, [metrics], 0), artifacts


def _run_checked(mode: str, config: ScenarioConfig, workers: int):
    if workers != 1:
        raise ConfigError(f"run_{mode} runs one trial in this process; for trials on "
                          f"{workers} workers use run_sweep(config, workers={workers})")
    if _mode(config.scene) != mode:
        raise ConfigError(f"run_{mode} got a {_mode(config.scene)} scene "
                          f"(line of sight {config.scene.has_los}, "
                          f"{len(config.scene.surfaces)} surfaces); use run(config)")
    return run(config)


def run_los(config: ScenarioConfig, workers: int = 1):
    """``run`` for a direct-view scene without surfaces; ``workers`` must be 1."""
    return _run_checked("los", config, workers)


def run_nlos(config: ScenarioConfig, workers: int = 1):
    """``run`` for a scene with surfaces or no direct view; ``workers`` must be 1."""
    return _run_checked("nlos", config, workers)


def _sweep_task(packed):
    config_dict, point, trial = packed
    config = ScenarioConfig.from_dict(config_dict)
    try:
        metrics, _, _ = _run_trial(config, trial=trial,
                                   distance=point.get("distance_m"),
                                   n_surfaces=point.get("surfaces"),
                                   n_rx=point.get("n_rx"))
        return point, trial, metrics, None
    except (CoposimError, np.linalg.LinAlgError) as exc:
        return point, trial, None, f"{type(exc).__name__}: {exc}"


def run_sweep(config: ScenarioConfig, workers: int = 1):
    """Cartesian sweep over distance / surface count / receive antennas.

    Per-trial failures are recorded in the fail rate instead of aborting the
    sweep.  Rows carry per-point medians and interquartile ranges.
    """
    sw = config.sweep
    distances = sw.distance_m or [config.scene.distance_m]
    counts = sw.surface_counts or [len(config.scene.surfaces)]
    rxs = sw.sv_antenna_counts or [config.scene.sv_antenna_count]
    points = [{"distance_m": float(d), "surfaces": int(s), "n_rx": int(r)}
              for d in distances for s in counts for r in rxs]
    if not points or sw.trials < 1:
        raise ConfigError("sweep needs at least one point and one trial")

    tasks = [(config.to_dict(), p, t) for p in points for t in range(sw.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_task, tasks))
    else:
        outcomes = [_sweep_task(t) for t in tasks]

    rows = []
    all_trials = []
    total_failures = 0
    for point in points:
        ok = [m for p, t, m, e in outcomes if p == point and m is not None]
        bad = [e for p, t, m, e in outcomes if p == point and e is not None]
        row = dict(point)
        row["hausdorff_med_m"], row["hausdorff_iqr_m"] = _median_iqr(
            np.array([m["hausdorff_m"] for m in ok]))
        row["fail_rate"] = len(bad) / sw.trials
        rows.append(row)
        all_trials.extend({**m, **point} for m in ok)
        total_failures += len(bad)
    return _make_report("sweep", config, [], all_trials, total_failures, sweep_rows=rows), None
