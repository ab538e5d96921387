"""Workload definitions and the scored Monte Carlo trial.

A workload is a list of scenario points.  One round runs one trial per point,
in order; trial ``t`` of a run with base seed ``s`` uses the scenario seed
derived from (s, t), so its scene and its noise are fixed by the pair.  Every
trial goes through the public entry points ``run_los`` / ``run_nlos`` with
``workers=1``.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from coposim.pipeline import run_los, run_nlos
from coposim.scenario import DEFAULT_SURFACE_POOL, ScenarioConfig

NOISELESS = {"phase_sigma_rad": 0.0, "snr_db": None}


def los_at(distance_m: float) -> dict:
    return {"scene": {"has_los": True, "surfaces": [], "distance_m": distance_m},
            "noise": dict(NOISELESS)}


def surfaces(count: int) -> dict:
    return {"scene": {"surfaces": [dict(s) for s in DEFAULT_SURFACE_POOL[:count]]},
            "noise": dict(NOISELESS)}


def phase_noise(phase_sigma_rad: float) -> dict:
    return {"scene": {}, "noise": {"phase_sigma_rad": phase_sigma_rad, "snr_db": 10.0}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str                  # "los" or "nlos"
    scenario: Callable[[object], dict]   # scenario point -> configuration overrides
    points: tuple              # one trial per point per round
    nominal_round_s: float     # seconds per round on a 2-CPU x86-64 box; sizes a run

    def config_dict(self, point, scenario_seed: int) -> dict:
        """Scenario configuration of one trial, as a user would write it in JSON."""
        config = self.scenario(point)
        config["noise"]["seed"] = scenario_seed
        return config

    def rounds(self, seconds: float) -> int:
        """Rounds in a run of nominally ``seconds``; fixed work keeps runs comparable."""
        return max(1, round(seconds / self.nominal_round_s))


WORKLOADS = {w.name: w for w in (
    Workload("los_range",
             "line of sight at 6-16 m: imaging is nearly the whole trial and the "
             "voxel count per path changes about 4x with range",
             "los", los_at, (6.0, 8.0, 12.0, 16.0), 3.4),
    Workload("nlos_surfaces",
             "no line of sight with 3 and 5 surfaces: L paths imaged per trial, "
             "and the theta search grows with L",
             "nlos", surfaces, (3, 5), 6.4),
    Workload("nlos_noise",
             "no line of sight at SNR 10 dB and phase noise 1e-4..1e-3 rad: noisy "
             "sync, and trials that abort after imaging",
             "nlos", phase_noise, (1e-4, 3e-4, 1e-3), 7.2),
)}


def scenario_seed(base_seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([base_seed, trial]).generate_state(1)[0])


@dataclass
class TrialOutcome:
    point: object
    trial: int
    wall_s: float
    metrics: dict | None       # the pipeline's trial metrics, kept even when the check fails
    failure: str | None        # "<ExceptionType>: <message prefix>" or "check: <reason>"

    @property
    def ok(self) -> bool:
        return self.failure is None

    def accuracy_key(self) -> str:
        """Everything a trial reports about accuracy; equal keys mean identical results."""
        return json.dumps([self.failure, self.metrics], sort_keys=True)


def message_prefix(exc: BaseException) -> str:
    """Exception type and message up to its first parenthesis, numbers masked,
    so that failures count by cause rather than by the values in the message."""
    text = re.sub(r"\d+(\.\d+)?", "#", str(exc).split(" (", 1)[0].strip())
    return f"{type(exc).__name__}: {text[:60]}"


def check_trial(metrics: dict, box_diagonal_m: float) -> str | None:
    """Reason a reported success is not a sound estimate, or None when it is.

    A diverged solve can still produce a point cloud, so a trial also fails
    when any reported number is non-finite or when its anchor or Hausdorff
    error exceeds the imaging-box diagonal.
    """
    for key, value in sorted(metrics.items()):
        if isinstance(value, float) and not math.isfinite(value):
            return f"check: {key} is not finite"
    for key in ("anchor_err_m", "hausdorff_m"):
        if metrics[key] > box_diagonal_m:
            return f"check: {key} exceeds the imaging-box diagonal"
    return None


def run_trial(workload: Workload, base_seed: int, trial: int) -> TrialOutcome:
    point = workload.points[trial % len(workload.points)]
    config = ScenarioConfig.from_dict(workload.config_dict(point, scenario_seed(base_seed, trial)))
    entry = run_los if workload.mode == "los" else run_nlos
    report = metrics = failure = None
    t0 = time.perf_counter()
    try:
        report, _ = entry(config, workers=1)
    except Exception as exc:  # every failure is a counted outcome of the trial
        failure = message_prefix(exc)
    wall = time.perf_counter() - t0
    if report is not None:
        metrics = report.trials[0]
        failure = check_trial(metrics, float(np.linalg.norm(config.pipeline.box_extent_m)))
    return TrialOutcome(point=point, trial=trial, wall_s=wall, metrics=metrics, failure=failure)
