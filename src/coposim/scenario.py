"""Scenario configuration (JSON) and deterministic scene synthesis.

A configuration plus a trial index fix a trial: ``build_scene(config,
trial)`` places the antennas from (seed, trial) alone, and a sweep point is
itself a configuration (see ``pipeline.run_sweep``).  The configuration
holds what a study varies, each field declared once with its JSON type
(``_field``); the tuning no study varies is module constants in
``pipeline``.  ``frequency_grid`` states the whole tone plan, and a scene's
clock offset is the configured one modulo the grid's beat period.

All physical quantities carry SI units in their field names.  Antenna
placement is a seeded stratified jitter: receive antennas on the planar
aperture, transmit antennas over the cuboid shell of the vehicle body, so the
point set sketches its shape.  A surface is configured by its X-Z trace z =
slope*x + intercept and built as the plane of the trace's normal and offset.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DegenerateGeometryError
from .geometry import ReflectionSurface, Scene
from .waveform import FrequencyGrid

# Extra reflectors used when sweeps ask for more surfaces than the base three.
DEFAULT_SURFACE_POOL = (
    {"slope": 1.02, "intercept_m": 3.0},
    {"slope": 0.25, "intercept_m": 3.25},
    {"slope": 3.0, "intercept_m": 4.0},
    {"slope": -0.3, "intercept_m": 8.0},
    {"slope": 2.0, "intercept_m": 6.0},
)


# The JSON type of a configuration field, and the one statement of its range:
# "float" (a finite number: an int passes, NaN and a literal that overflows to
# infinity, such as 1e400, not), "int", "bool", or "surface": exactly the float
# keys slope and intercept_m of a plane's trace, which ``build_scene`` turns into
# its unit normal and offset.  ">N" or ">=N" bounds a number, "[n]" makes a list
# of n ("[]": any length), "nonzero " bars all zeros, and "?" allows null.  A
# scene needs two transmit anchors, and antenna placement divides by each side.
# The SFCW noise power is 10^(-snr_db/10) times the signal's; it leaves
# float64 near -3083 dB, so snr_db stops at -3000.
def _field(kind: str, default):
    """A configuration field of JSON type ``kind``; each spec gets its own copy of ``default``."""
    return field(default_factory=lambda: copy.deepcopy(default), metadata={"kind": kind})


@dataclass
class SceneSpec:
    distance_m: float = _field("float", 8.0)
    tv_direction: list = _field("nonzero float[3]", [0.925, 0.0, 0.38])
    tv_size_m: list = _field("float>0[3]", [3.0, 1.0, 0.6])
    tv_antenna_count: int = _field("int>=2", 64)
    sv_aperture_m: list = _field("float>0[2]", [1.0, 1.0])
    sv_antenna_count: int = _field("int>=1", 64)
    surfaces: list = _field("surface[]", list(DEFAULT_SURFACE_POOL[:3]))
    clock_offset_s: float = _field("float", 2.0e-8)
    has_los: bool = _field("bool", False)


@dataclass
class WaveformSpec:
    f1_hz: float = _field("float>0", 57.0e9)
    tones: int = _field("int>=2", 128)
    delta_hz: float = _field("float>0", 11.72e6)


@dataclass
class NoiseSpec:
    snr_db: float | None = _field("float>=-3000?", 10.0)
    phase_sigma_rad: float = _field("float>=0", 1.0e-3)
    seed: int = _field("int>=0", 20240810)


@dataclass
class PipelineSpec:
    box_extent_m: list = _field("float>0[3]", [6.0, 4.0, 6.0])


@dataclass
class SweepSpec:
    distance_m: list | None = _field("float[]?", None)
    surface_counts: list | None = _field("int>=0[]?", None)
    sv_antenna_counts: list | None = _field("int>=1[]?", None)
    trials: int = _field("int>=1", 100)


def _reject_constant(token: str):
    """Refuse NaN and Infinity, which Python's json reads but JSON does not have."""
    raise ConfigError(f"configuration is not valid JSON: {token} is not a JSON value")


def _is(kind: str, value) -> bool:
    """Whether ``value`` has the JSON type ``kind`` (see ``_field``)."""
    if kind.endswith("?"):
        return value is None or _is(kind[:-1], value)
    if kind.startswith("nonzero "):
        return _is(kind[8:], value) and any(value)
    if kind.endswith("]"):
        item, n = kind[:-1].split("[")
        return (isinstance(value, (list, tuple)) and len(value) == int(n or len(value))
                and all(_is(item, v) for v in value))
    kind, _, bound = kind.partition(">")
    if bound:
        return _is(kind, value) and (value >= float(bound[1:]) if bound[0] == "="
                                     else value > float(bound))
    if kind == "surface":
        return (isinstance(value, dict) and value.keys() == {"slope", "intercept_m"}
                and _is("float[]", list(value.values())))
    if kind == "float":
        return type(value) in (int, float) and -math.inf < value < math.inf
    return type(value) in {"int": (int,), "bool": (bool,)}[kind]


def check(config: ScenarioConfig) -> None:
    """Raise a ConfigError for the first field of ``config`` not of its declared type."""
    for section in fields(config):
        spec = getattr(config, section.name)
        for f in fields(spec):
            value, kind = getattr(spec, f.name), f.metadata["kind"]
            if not _is(kind, value):
                raise ConfigError(f"{section.name}.{f.name} must be {kind}, got {value!r}")


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
        specs = {f.name: f.default_factory for f in fields(cls)}   # each section's spec class
        for section, values in data.items():
            if section not in specs or not isinstance(values, dict):
                raise ConfigError(f"configuration sections are objects named "
                                  f"{', '.join(specs)}; got {section!r}: {values!r}")
            known = {f.name for f in fields(specs[section])}
            for name in values:   # in file order
                if name not in known:
                    raise ConfigError(f"unrecognised configuration field: {section}.{name}")
        config = cls(**{name: spec(**data.get(name, {})) for name, spec in specs.items()})
        check(config)
        return config

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be a JSON object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
        return cls.from_json(text)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def frequency_grid(self) -> FrequencyGrid:
        w = self.waveform
        return FrequencyGrid(f1=w.f1_hz, tones=w.tones, delta=w.delta_hz)


# Placement jitter, in cells.  On the aperture, +-0.2 of a cell keeps the antennas
# of one row within 0.4 of a row pitch of each other and those of neighbouring
# rows 0.6 apart, so imaging's half-pitch split finds exactly the layout rows
# (``test_rows_within_half_a_pitch_are_the_layout_rows``).
APERTURE_JITTER = 0.2
BODY_SHELL_JITTER = 0.35


def stratified_rows(n: int, width: float, height: float) -> int:
    """Row count of the near-square grid that holds n points on a width x height rectangle."""
    return max(1, int(math.floor(math.sqrt(n * height / max(width, 1e-9)))))


def _stratified_rect(n: int, width: float, height: float, jitter: float,
                     rng: np.random.Generator) -> np.ndarray:
    """n jittered points on a width x height rectangle centered at the origin.

    One point per cell of a near-square grid; jitter stays below half a cell
    so rows remain separable for the aperture resampler.
    """
    rows = stratified_rows(n, width, height)
    cols = int(math.ceil(n / rows))
    cw, ch = width / cols, height / rows
    r, c = np.divmod(np.arange(n), cols)
    centers = np.stack([-width / 2 + (c + 0.5) * cw, -height / 2 + (r + 0.5) * ch], axis=1)
    return centers + rng.uniform(-jitter, jitter, size=(n, 2)) * [cw, ch]


def aperture_antennas(n: int, aperture: tuple[float, float], rng: np.random.Generator) -> np.ndarray:
    xy = _stratified_rect(n, aperture[0], aperture[1], APERTURE_JITTER, rng)
    return np.concatenate([xy, np.zeros((n, 1))], axis=1)


def body_shell_antennas(n: int, size: tuple[float, float, float],
                        rng: np.random.Generator) -> np.ndarray:
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
        uv = _stratified_rect(cnt, 2 * half[ua], 2 * half[va], BODY_SHELL_JITTER, rng)
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


def build_scene(config: ScenarioConfig, trial: int = 0) -> Scene:
    """Instantiate the ground-truth scene for one trial.

    Placement randomness is derived from (seed, trial) alone, so a report is
    reproducible from its configuration.  The configuration is taken as
    ``check`` passes it: the field types bar the directions, antenna counts
    and sizes no scene can take, and ``pipeline`` checks before it builds.
    A body placed so far out that its antennas round to the same points (a
    distance of 1e200 m) raises ``DegenerateGeometryError``.

    The scene's clock offset is the configured one's IEEE remainder modulo
    the beat period 1/delta, unchanged within half a period (42.7 ns at
    11.72 MHz).  No receiver can tell the two apart: their difference turns
    each signature pair by one common phase, and the SFCW comb by another.
    """
    sc = config.scene
    rng = np.random.default_rng(np.random.SeedSequence(config.noise.seed, spawn_key=(3, trial)))

    direction = np.asarray(sc.tv_direction, dtype=float)
    center = direction / np.linalg.norm(direction) * sc.distance_m

    tv = body_shell_antennas(sc.tv_antenna_count, tuple(sc.tv_size_m), rng) + center[None, :]
    sv = aperture_antennas(sc.sv_antenna_count, tuple(sc.sv_aperture_m), rng)
    surfaces = tuple(ReflectionSurface.from_trace(s["slope"], s["intercept_m"])
                     for s in sc.surfaces)

    anchors = _pick_anchors(tv)
    clock = math.remainder(sc.clock_offset_s, config.frequency_grid().period)
    try:
        return Scene(tv_antennas=tv, anchor_indices=anchors, sv_antennas=sv,
                     surfaces=surfaces, clock_offset=clock, has_los=sc.has_los)
    except ValueError as exc:
        raise DegenerateGeometryError(f"scene stage: {exc}") from exc


def trial_noise_seed(config: ScenarioConfig, trial: int) -> int:
    ss = np.random.SeedSequence(config.noise.seed, spawn_key=(4, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))
