"""Run orchestration: one trial path, single runs and Monte Carlo sweeps.

A trial simulates one snapshot, syncs every path and chooses once the paths
its estimate reads: the direct path in mode "los" (a line of sight, and fewer
than ``MIN_FUSED_PATHS`` paths to fuse), else the largest clock cluster, which
fails the trial when it holds fewer.  Only those are simulated and imaged,
and the direct path's image or the cluster's fusion is the estimate; any other
path keeps its empty cloud.  From sync on, a path is one ``VirtualDetection``:
imaging sets its cloud, fusion its surface and mapped cloud, and the
clustering, the fusion and the report read it.
A configuration plus a trial index fix a trial: all randomness is derived
from (config seed, trial index), and a sweep point is written into the
configuration before its trials run, so results do not depend on how a
sweep spreads its trials over worker processes.

The tuning no study varies is fixed here: the peak threshold ``NU``, the
spectral padding ``PAD_FACTOR``, the clock clustering tolerance
``CLOCK_CLUSTER_TOL_S`` and the direct-path tolerance ``DIRECT_PATH_TOL_M``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .analysis import azimuth_resolution, hausdorff, range_resolution, rmse_nearest
from .channel import simulate_sfcw, simulate_signature
from .combining import VirtualDetection, clock_distance, combine_cluster, group_by_clock
from .errors import ConfigError, CoposimError
from .geometry import Scene
from .imaging import ImagingBox, detect_peaks, reconstruct
from .scenario import (DEFAULT_SURFACE_POOL, ScenarioConfig, build_scene, check,
                       stratified_rows, trial_noise_seed)
from .sync import locate_and_sync
from .waveform import MIN_FUSED_PATHS, validate_scene

NU = 0.5                       # peak threshold, relative to the image maximum
PAD_FACTOR = 1.6               # periodic image repeat over the box extent
CLOCK_CLUSTER_TOL_S = 2.0e-9   # clock estimates closer than this share a cluster
DIRECT_PATH_TOL_M = 0.25       # virtual anchor this close to the fused one: direct path


@dataclass
class TrialArtifacts:
    """Heavyweight per-trial outputs kept out of the serialisable report:
    the scene, the estimated cloud and every path's record, imaged or not."""

    scene: Scene
    cloud: np.ndarray
    paths: list[VirtualDetection]


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
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


def _row_pitch(config: ScenarioConfig) -> float:
    """Row pitch of the scene's stratified receive array (see ``aperture_antennas``)."""
    w, h = config.scene.sv_aperture_m
    return h / stratified_rows(config.scene.sv_antenna_count, w, h)


def _bearing_rotation(direction: np.ndarray) -> np.ndarray:
    """Rotation about Y aligning the X-Z bearing of ``direction`` with +Z."""
    phi = math.atan2(direction[0], direction[2])
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def _mode(scene) -> str:
    """"los" for a direct view with fewer than ``MIN_FUSED_PATHS`` paths (it and one
    per surface), else "nlos"; ``scene`` is a Scene or SceneSpec."""
    return "los" if scene.has_los and len(scene.surfaces) + 1 < MIN_FUSED_PATHS else "nlos"


def _sync_path(scene: Scene, path_id: int, symbols: np.ndarray, delta: float,
               phase_sigma: float) -> VirtualDetection:
    """Both anchor solves of a path, one per signature block, as its record with an empty cloud."""
    sync_a, sync_b = (locate_and_sync(block, delta, scene.sv_antennas, phase_sigma)
                      for block in symbols)
    return VirtualDetection(path_id, sync_a, sync_b)


def _path_box(x_a: np.ndarray, x_b: np.ndarray, grid, config: ScenarioConfig,
              margin: float) -> tuple[np.ndarray, ImagingBox, list[float]]:
    """A path's bearing rotation, its configured box and the extent of its window.

    Both boxes are centered on the virtual anchors' midpoint in the path's
    frame.  The window spans s + 2 * ``margin`` in X and Z, s being the
    anchors' X-Z distance, and the configured extent in Y.
    """
    center = 0.5 * (x_a + x_b)
    rng_to_center = max(float(np.linalg.norm(center)), 1.0)
    dy = azimuth_resolution(rng_to_center, max(config.scene.sv_aperture_m), grid.center)
    pitch = [dy / 2, dy / 2, range_resolution(grid) / 2]

    # Image in the path's own frame: rotate about Y so the arrival bearing
    # (known per path from the anchor estimates) faces broadside.  This keeps
    # aperture rows intact and the virtual transmitter near zero spatial
    # frequency, where the sparse aperture is usable.
    rot = _bearing_rotation(center)
    extent = config.pipeline.box_extent_m
    xz = math.hypot(x_a[0] - x_b[0], x_a[2] - x_b[2]) + 2.0 * margin
    return rot, ImagingBox.centered(rot @ center, extent, pitch), [xz, extent[1], xz]


def _image_path(det: VirtualDetection, scene: Scene, grid, seed: int,
                config: ScenarioConfig, row_pitch: float) -> None:
    """SFCW simulation and imaging of one synced path, which sets ``det.cloud``.

    The spectrum is sampled for the configured box (``box_extent_m``), but
    the image is evaluated only in the window the transmitter can occupy
    (``_path_box``, ``ImagingBox.window``).  Why the window holds it: the
    anchors are the widest X-Z pair of the body's antennas
    (``scenario._pick_anchors``), which sit on a cuboid shell, so they lie at
    or near opposite corners of the body's rectangular X-Z footprint, and
    the footprint lies in the disk that has the anchor pair as its diameter
    (Thales).  Mirroring across a vertical surface and the bearing rotation
    about Y keep X-Z distances, so in the path's frame every antenna lies
    within s/2 of the anchors' midpoint along X and along Z; a pair short of
    the corners leaves a sliver outside, 1 cm at most over the benchmark's
    scenes.  Nothing bounds Y, so the window keeps the configured height.

    The margin on each side is one range-resolution cell, c/B, as far as an
    edge antenna's detection can sit out, plus three standard deviations of
    the worse anchor solve's worst axis (the largest eigenvalue of its
    covariance), which is zero without phase noise.
    """
    sfcw = simulate_sfcw(scene, grid, config.noise.snr_db, seed, det.path_id, det.sigma_hat)
    margin = range_resolution(grid) + 3.0 * math.sqrt(
        max(np.linalg.eigvalsh(s.covariance)[-1] for s in (det.sync_a, det.sync_b)))
    rot, box, window = _path_box(det.x_a_virtual, det.x_b_virtual, grid, config, margin)
    spectrum = reconstruct(sfcw, scene.sv_antennas @ rot.T, grid, box, row_pitch, PAD_FACTOR,
                           window)
    det.cloud = detect_peaks(spectrum, NU) @ rot


def _run_trial(config: ScenarioConfig, trial: int = 0):
    """One trial: sync every path, choose the paths to read, image them and estimate.

    The configuration is checked against its declared field types first
    (``scenario.check``), so one built or changed in code is refused as a
    loaded file is.  The scene, its check and its signatures read the
    configuration alone; a value whose arithmetic leaves float64 there (a
    1e200 m body) fails the trial.
    After sync the trial chooses once the paths to image: the direct path in
    mode "los", else the largest clock cluster, which fails the trial before
    any imaging if it holds fewer than ``MIN_FUSED_PATHS``.  Each image holds
    at least its maximum.  The report's per-path keys are then read off each
    path's record in one loop, ``path{pid}_points`` for imaged paths only.
    """
    check(config)
    grid = config.frequency_grid()
    phase_sigma, seed = config.noise.phase_sigma_rad, trial_noise_seed(config, trial)
    try:
        with np.errstate(over="raise", invalid="raise"):
            scene = build_scene(config, trial)
            warnings = validate_scene(scene, grid)
            signatures = simulate_signature(scene, grid, phase_sigma, seed)
    except FloatingPointError as exc:
        raise CoposimError(f"scene stage: a configured value is past the float64 range "
                           f"({exc})") from exc

    detections = [_sync_path(scene, pid, symbols, grid.delta, phase_sigma)
                  for pid, symbols in signatures.items()]

    metrics: dict = {"trial": trial}
    if _mode(scene) == "los":
        imaged = detections[:1]   # path 0, the direct path, comes first
    else:
        clusters = group_by_clock(detections, CLOCK_CLUSTER_TOL_S, grid.period)
        clusters.sort(key=lambda c: (-len(c), min(d.path_id for d in c)))
        imaged = clusters[0]
        if len(imaged) < MIN_FUSED_PATHS:
            raise CoposimError(
                f"combining stage: no clock cluster with >= {MIN_FUSED_PATHS} paths "
                f"(cluster sizes {[len(c) for c in clusters]})")
        metrics["clusters"] = len(clusters)

    row_pitch = _row_pitch(config)
    for det in imaged:
        _image_path(det, scene, grid, seed, config, row_pitch)

    if len(imaged) == 1:
        (det,) = imaged
        cloud, x_a, x_b = det.cloud, det.x_a_virtual, det.x_b_virtual
    else:
        res = combine_cluster(imaged, merge_radius=range_resolution(grid) / 2,
                              direct_path_tol=DIRECT_PATH_TOL_M)
        cloud, x_a, x_b = res.actual_cloud, res.x_a_star, res.x_b_star
        metrics["theta_ref_rad"] = float(res.theta_ref)
        metrics["fusion_residual_m"] = float(res.residual_m)
    metrics["anchor_err_m"] = float(np.linalg.norm(x_a - scene.anchor_a))
    metrics["anchor_b_err_m"] = float(np.linalg.norm(x_b - scene.anchor_b))
    metrics["sync_sigma_err_s"] = float(max(
        clock_distance(d.sigma_hat, scene.clock_offset, grid.period) for d in detections))
    metrics["sync_discrepancy_s"] = float(max(
        clock_distance(d.sync_a.sigma_hat, d.sync_b.sigma_hat, grid.period) for d in detections))

    truth = scene.tv_antennas
    for det in detections:
        pid, est = det.path_id, det.surface
        true_virtual = scene.images[pid][scene.anchor_indices[0]]
        metrics[f"path{pid}_anchor_err_m"] = float(np.linalg.norm(det.x_a_virtual - true_virtual))
        if det in imaged:
            metrics[f"path{pid}_points"] = int(len(det.cloud))
        metrics[f"path{pid}_sync_converged"] = det.sync_a.converged and det.sync_b.converged
        if det.mapped is not None:
            metrics[f"path{pid}_hausdorff_m"] = hausdorff(det.mapped, truth)
        if est is not None and pid > 0:
            # A plane's normal is known only up to sign: align it with the planted one.
            planted = scene.surfaces[pid - 1]
            dot = est.nx * planted.nx + est.nz * planted.nz
            cross = est.nx * planted.nz - est.nz * planted.nx
            metrics[f"surface{pid}_normal_err_rad"] = math.atan2(abs(cross), abs(dot))
            metrics[f"surface{pid}_offset_err_m"] = abs(
                math.copysign(1.0, dot) * est.offset - planted.offset)

    metrics["hausdorff_m"] = hausdorff(cloud, truth)
    metrics["rmse_m"] = rmse_nearest(cloud, truth)
    metrics["detected_points"] = int(len(cloud))
    return metrics, TrialArtifacts(scene, cloud, detections), warnings


def _median_iqr(values) -> tuple[float | None, float | None]:
    """Median and interquartile range of the values, None (JSON null) for none."""
    if not len(values):
        return None, None
    q75, q25 = np.percentile(values, [75, 25])
    return float(np.median(values)), float(q75 - q25)


def _aggregate(trials: list[dict], failures: list[str]) -> dict:
    """Counts and Hausdorff spread; ``failures`` holds one "Type: message" per failed trial."""
    vals = np.array([t["hausdorff_m"] for t in trials if "hausdorff_m" in t])
    by_type = Counter(f.split(":", 1)[0] for f in failures)
    agg = {"n_trials": len(trials) + len(failures), "n_failed": len(failures),
           "failures_by_type": dict(sorted(by_type.items()))}
    if len(vals):
        agg["hausdorff_median_m"], agg["hausdorff_iqr_m"] = _median_iqr(vals)
    return agg


def _make_report(mode, config, warnings, trials, failures, sweep_rows=None) -> RunReport:
    return RunReport(mode=mode, config=config.to_dict(), config_hash=config.config_hash(),
                     seed=config.noise.seed, version=__version__,
                     validation_warnings=list(warnings), trials=trials,
                     aggregates=_aggregate(trials, failures), sweep_rows=sweep_rows)


def run(config: ScenarioConfig) -> tuple[RunReport, TrialArtifacts]:
    """One trial of the configured scene; the report's ``mode`` (``_mode``) says
    whether it fused reflections ("nlos") or imaged the direct view ("los")."""
    metrics, artifacts, warns = _run_trial(config)
    return _make_report(_mode(artifacts.scene), config, warns, [metrics], []), artifacts


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
    """``run`` for a scene of mode "los" (see ``_mode``); ``workers`` must be 1."""
    return _run_checked("los", config, workers)


def run_nlos(config: ScenarioConfig, workers: int = 1):
    """``run`` for a scene of mode "nlos" (see ``_mode``); ``workers`` must be 1."""
    return _run_checked("nlos", config, workers)


def _sweep_task(packed):
    """One trial's (metrics, warnings, failure); ``config`` may be the point's ConfigError."""
    config, trial = packed
    if isinstance(config, ConfigError):
        return None, [], f"ConfigError: {config}"
    try:
        metrics, _, warnings = _run_trial(config, trial)
        return metrics, warnings, None
    except (CoposimError, np.linalg.LinAlgError) as exc:
        return None, [], f"{type(exc).__name__}: {exc}"


def run_sweep(config: ScenarioConfig, workers: int = 1):
    """Cartesian sweep over distance / surface count / receive antennas.

    The whole configuration is checked first, so a bad value is one
    ``ConfigError`` before any trial runs.  Each point then makes one
    configuration, which all its trials run and ``_run_trial`` checks once
    per trial; a point that asks for more surfaces than the configured ones
    and the ``DEFAULT_SURFACE_POOL`` ones they lack fails each of its trials.

    Per-trial failures are recorded in the fail rate instead of aborting the
    sweep, and counted by exception type in the aggregates.  Rows carry
    per-point medians and interquartile ranges.  The report's validation
    warnings are its trials' distinct ones, in the order first seen.
    """
    check(config)
    sw, held = config.sweep, config.scene.surfaces
    distances = sw.distance_m or [config.scene.distance_m]
    counts = sw.surface_counts or [len(held)]
    rxs = sw.sv_antenna_counts or [config.scene.sv_antenna_count]
    points = [{"distance_m": float(d), "surfaces": int(s), "n_rx": int(r)}
              for d in distances for s in counts for r in rxs]
    pool = held + [dict(s) for s in DEFAULT_SURFACE_POOL
                   if not any(abs(s["slope"] - t["slope"]) < 1e-12
                              and abs(s["intercept_m"] - t["intercept_m"]) < 1e-12
                              for t in held)]
    configs = [ConfigError(f"requested {p['surfaces']} surfaces but only {len(pool)} available")
               if p["surfaces"] > len(pool) else
               replace(config, scene=replace(config.scene, distance_m=p["distance_m"],
                                             sv_antenna_count=p["n_rx"],
                                             surfaces=pool[:p["surfaces"]]))
               for p in points]

    tasks = [(c, t) for c in configs for t in range(sw.trials)]
    if workers > 1:
        # Imported here: multiprocessing adds 10-15 ms to the import, and a
        # single run or a one-worker sweep never uses it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as executor:
            outcomes = list(executor.map(_sweep_task, tasks))
    else:
        outcomes = [_sweep_task(t) for t in tasks]

    rows = []
    all_trials = []
    failures = []
    for k, point in enumerate(points):
        mine = outcomes[k * sw.trials:(k + 1) * sw.trials]   # tasks run point by point
        ok = [m for m, _, e in mine if m is not None]
        bad = [e for m, _, e in mine if e is not None]
        row = dict(point)
        row["hausdorff_med_m"], row["hausdorff_iqr_m"] = _median_iqr(
            np.array([m["hausdorff_m"] for m in ok]))
        row["fail_rate"] = len(bad) / sw.trials
        rows.append(row)
        all_trials.extend({**m, **point} for m in ok)
        failures.extend(bad)
    warnings = dict.fromkeys(w for _, warned, _ in outcomes for w in warned)
    return _make_report("sweep", config, warnings, all_trials, failures, sweep_rows=rows), None
