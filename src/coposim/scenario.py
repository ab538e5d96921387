"""Scenario configuration (JSON) and deterministic scene synthesis.

All physical quantities carry SI units in their field names.  Antenna
placement is a seeded stratified jitter: receive antennas on the planar
aperture, transmit antennas over the cuboid shell of the vehicle body, so the
point set sketches its shape.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import ReflectionSurface, Scene
from .waveform import FrequencyGrid, SignatureConfig

# Extra reflectors used when sweeps ask for more surfaces than the base three.
DEFAULT_SURFACE_POOL = (
    {"slope": 1.02, "intercept_m": 3.0},
    {"slope": 0.25, "intercept_m": 3.25},
    {"slope": 3.0, "intercept_m": 4.0},
    {"slope": -0.3, "intercept_m": 8.0},
    {"slope": 2.0, "intercept_m": 6.0},
)


@dataclass
class SceneSpec:
    distance_m: float = 8.0
    tv_direction: list = field(default_factory=lambda: [0.925, 0.0, 0.38])
    tv_size_m: list = field(default_factory=lambda: [3.0, 1.0, 0.6])
    tv_antenna_count: int = 64
    sv_aperture_m: list = field(default_factory=lambda: [1.0, 1.0])
    sv_antenna_count: int = 64
    surfaces: list = field(default_factory=lambda: [dict(s) for s in DEFAULT_SURFACE_POOL[:3]])
    clock_offset_s: float = 2.0e-8
    has_los: bool = False


@dataclass
class WaveformSpec:
    f1_hz: float = 57.0e9
    tones: int = 128
    delta_hz: float = 11.72e6
    signature_fa_hz: float | None = None   # defaults to f1 - 2*delta
    signature_fb_hz: float | None = None   # defaults to f1 - 4*delta


@dataclass
class NoiseSpec:
    snr_db: float | None = 10.0
    phase_sigma_rad: float = 1.0e-3
    seed: int = 20240810


@dataclass
class PipelineSpec:
    nu: float = 0.5
    box_extent_m: list = field(default_factory=lambda: [6.0, 4.0, 6.0])
    theta_grid_step_rad: float = 1.0e-3
    clock_cluster_tol_s: float = 2.0e-9
    pad_factor: float = 1.6
    direct_path_tol_m: float = 0.25


@dataclass
class SweepSpec:
    distance_m: list | None = None
    surface_counts: list | None = None
    sv_antenna_counts: list | None = None
    trials: int = 100


@dataclass
class ScenarioConfig:
    scene: SceneSpec = field(default_factory=SceneSpec)
    waveform: WaveformSpec = field(default_factory=WaveformSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        try:
            return cls(scene=SceneSpec(**data.get("scene", {})),
                       waveform=WaveformSpec(**data.get("waveform", {})),
                       noise=NoiseSpec(**data.get("noise", {})),
                       pipeline=PipelineSpec(**data.get("pipeline", {})),
                       sweep=SweepSpec(**data.get("sweep", {})))
        except TypeError as exc:
            raise ConfigError(f"unrecognised configuration field: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be a JSON object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def frequency_grid(self) -> FrequencyGrid:
        w = self.waveform
        return FrequencyGrid(f1=w.f1_hz, tones=w.tones, delta=w.delta_hz)

    def signature(self) -> SignatureConfig:
        w = self.waveform
        fa = w.signature_fa_hz if w.signature_fa_hz is not None else w.f1_hz - 2 * w.delta_hz
        fb = w.signature_fb_hz if w.signature_fb_hz is not None else w.f1_hz - 4 * w.delta_hz
        return SignatureConfig(f_a=fa, f_b=fb, delta=w.delta_hz)


def _stratified_rect(n: int, width: float, height: float, jitter: float,
                     rng: np.random.Generator) -> np.ndarray:
    """n jittered points on a width x height rectangle centered at the origin.

    One point per cell of a near-square grid; jitter stays below half a cell
    so rows remain separable for the aperture resampler.
    """
    rows = max(1, int(math.floor(math.sqrt(n * height / max(width, 1e-9)))))
    cols = int(math.ceil(n / rows))
    pts = []
    cw, ch = width / cols, height / rows
    for i in range(n):
        r, c = divmod(i, cols)
        cx = -width / 2 + (c + 0.5) * cw
        cy = -height / 2 + (r + 0.5) * ch
        pts.append([cx + rng.uniform(-jitter, jitter) * cw,
                    cy + rng.uniform(-jitter, jitter) * ch])
    return np.array(pts)


def aperture_antennas(n: int, aperture: tuple[float, float],
                      rng: np.random.Generator, jitter: float = 0.2) -> np.ndarray:
    xy = _stratified_rect(n, aperture[0], aperture[1], jitter, rng)
    return np.concatenate([xy, np.zeros((n, 1))], axis=1)


def body_shell_antennas(n: int, size: tuple[float, float, float],
                        rng: np.random.Generator, jitter: float = 0.35) -> np.ndarray:
    """n jittered points over the six faces of a cuboid shell, area-weighted."""
    sx, sy, sz = size
    faces = [  # (axis held fixed, sign, u-axis, v-axis, area)
        (2, +1, 0, 1, sx * sy), (2, -1, 0, 1, sx * sy),
        (1, +1, 0, 2, sx * sz), (1, -1, 0, 2, sx * sz),
        (0, +1, 1, 2, sy * sz), (0, -1, 1, 2, sy * sz),
    ]
    total = sum(f[4] for f in faces)
    counts = [int(round(n * f[4] / total)) for f in faces]
    while sum(counts) > n:
        counts[int(np.argmax(counts))] -= 1
    while sum(counts) < n:
        counts[int(np.argmin(counts))] += 1
    half = np.array([sx, sy, sz]) / 2.0
    pts = []
    for (axis, sign, ua, va, _), cnt in zip(faces, counts):
        if cnt == 0:
            continue
        uv = _stratified_rect(cnt, 2 * half[ua], 2 * half[va], jitter, rng)
        block = np.zeros((cnt, 3))
        block[:, axis] = sign * half[axis]
        block[:, ua] = uv[:, 0]
        block[:, va] = uv[:, 1]
        pts.append(block)
    return np.concatenate(pts, axis=0)


def _pick_anchors(points: np.ndarray) -> tuple[int, int]:
    """Indices of the pair with the widest X-Z separation (baseline conditioning)."""
    xz = points[:, [0, 2]]
    d = np.linalg.norm(xz[:, None, :] - xz[None, :, :], axis=2)
    i, j = np.unravel_index(int(np.argmax(d)), d.shape)
    return (int(min(i, j)), int(max(i, j)))


def build_scene(config: ScenarioConfig, trial: int = 0,
                distance: float | None = None, n_surfaces: int | None = None,
                n_rx: int | None = None) -> Scene:
    """Instantiate the ground-truth scene for one trial.

    Placement randomness is derived from (seed, trial) alone, so a report is
    reproducible from its configuration.  ``distance``, ``n_surfaces`` and
    ``n_rx`` override the scene spec for sweep points.
    """
    sc = config.scene
    rng = np.random.default_rng(np.random.SeedSequence(config.noise.seed, spawn_key=(3, trial)))

    direction = np.asarray(sc.tv_direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ConfigError("tv_direction must be a nonzero vector")
    direction = direction / norm
    center = direction * (distance if distance is not None else sc.distance_m)

    tv = body_shell_antennas(sc.tv_antenna_count, tuple(sc.tv_size_m), rng) + center[None, :]
    sv = aperture_antennas(n_rx if n_rx is not None else sc.sv_antenna_count,
                           tuple(sc.sv_aperture_m), rng)

    surface_specs = list(sc.surfaces)
    count = n_surfaces if n_surfaces is not None else len(surface_specs)
    if count > len(surface_specs):
        extra = [s for s in DEFAULT_SURFACE_POOL
                 if not any(abs(s["slope"] - t["slope"]) < 1e-12
                            and abs(s["intercept_m"] - t["intercept_m"]) < 1e-12
                            for t in surface_specs)]
        surface_specs.extend(extra[:count - len(surface_specs)])
    if count > len(surface_specs):
        raise ConfigError(f"requested {count} surfaces but only {len(surface_specs)} available")
    surfaces = tuple(
        ReflectionSurface(slope=float(s["slope"]), intercept=float(s["intercept_m"]),
                          vertical=bool(s.get("vertical", False)),
                          gamma=complex(s.get("gamma_re", 1.0), s.get("gamma_im", 0.0)))
        for s in surface_specs[:count])

    return Scene(tv_antennas=tv, anchor_indices=_pick_anchors(tv), sv_antennas=sv,
                 surfaces=surfaces, clock_offset=sc.clock_offset_s, has_los=sc.has_los)


def trial_noise_seed(config: ScenarioConfig, trial: int) -> int:
    ss = np.random.SeedSequence(config.noise.seed, spawn_key=(4, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))
