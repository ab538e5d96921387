"""The accuracy ratchet's comparison, on small summaries and with no trials run."""

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "accuracy_digest.py"


@pytest.fixture(scope="module")
def digest():
    # The tool pins the BLAS thread variables when it loads; setting them here
    # first restores their old values afterwards, for later subprocesses.
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, "1")
        spec = importlib.util.spec_from_file_location("accuracy_digest", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


OLD = {"nlos_noise": {
    "0.0001": {"successes": 12, "failures": {"check: anchor": 2},
               "hausdorff_m": {"p50": 0.5, "max": 2.0},
               "surface_offset_err_m": {"p50": 0.1, "max": 0.3}},
    "0.001": {"successes": 1, "failures": {}, "hausdorff_m": {"p50": 7.0, "max": 7.0}}}}


def changed(edit, limit: float) -> dict:
    """OLD after ``edit(points, limit)``; ``limit`` is the highest hausdorff_m max
    of point 0.0001 that the tool lets pass."""
    new = copy.deepcopy(OLD)
    edit(new["nlos_noise"], limit)
    return new


def hausdorff_limit(digest) -> float:
    was = OLD["nlos_noise"]["0.0001"]["hausdorff_m"]["max"]
    return was * (1.0 + digest.REL_TOL) + digest.ABS_TOL


def set_hausdorff_max(value):
    return lambda points, limit: points["0.0001"]["hausdorff_m"].update(max=value(limit))


@pytest.mark.parametrize("edit", [lambda points, limit: None, set_hausdorff_max(lambda x: x)],
                         ids=["unchanged", "at-tolerance"])
def test_a_run_no_worse_than_the_file_passes(digest, edit):
    assert digest.regressions(OLD, changed(edit, hausdorff_limit(digest))) == []


@pytest.mark.parametrize("edit, message", [
    (lambda points, limit: points["0.0001"].update(successes=11),
     "nlos_noise 0.0001: successes fell from 12 to 11"),
    (lambda points, limit: points["0.001"]["failures"].update({"no cluster": 1}),
     "nlos_noise 0.001: 1 failures of 'no cluster', was 0"),
    (set_hausdorff_max(lambda x: math.nextafter(x, math.inf)),
     "nlos_noise 0.0001: hausdorff_m max rose from 2.0 to "),
    (lambda points, limit: points["0.0001"].pop("surface_offset_err_m"),
     "nlos_noise 0.0001: surface_offset_err_m is no longer reported"),
    (lambda points, limit: points.pop("0.001"),
     "nlos_noise: points ['0.0001'] differ from the file's ['0.0001', '0.001']"),
], ids=["successes", "failure-cause", "past-tolerance", "missing-figure", "missing-point"])
def test_each_kind_of_regression_is_found(digest, edit, message):
    found = digest.regressions(OLD, changed(edit, hausdorff_limit(digest)))
    assert len(found) == 1 and found[0].startswith(message)


def test_the_digest_alone_scores_an_oblique_bearing(digest):
    # Noiseless line of sight 9 degrees off the array normal, beside the
    # benchmark's workloads, which keep their default bearing.
    oblique = digest.SCORED["los_oblique"]
    assert list(digest.SCORED) == [*digest.WORKLOADS, "los_oblique"]
    assert oblique.mode == "los" and oblique.points == (8.0, 16.0)
    config = oblique.config_dict(8.0, 1)
    assert config["scene"] == {"has_los": True, "surfaces": [], "distance_m": 8.0,
                               "tv_direction": [0.15, 0.0, 0.99]}
    assert config["noise"] == {"phase_sigma_rad": 0.0, "snr_db": None, "seed": 1}


def test_the_file_holds_every_scored_point(digest):
    held = json.loads(digest.ACCURACY_FILE.read_text())
    assert {name: list(points) for name, points in held.items()} == {
        name: [str(p) for p in workload.points] for name, workload in digest.SCORED.items()}
