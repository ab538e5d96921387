"""The A/B tool's bootstrap, on made-up ratios with no trees run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_seed_gives_its_median_as_the_interval(ab):
    # Every draw takes the one seed with all its trials.
    assert ab.bootstrap_median([[0.9, 1.0, 1.1]]) == {
        "seeds": 1, "trials": 3, "median_ratio": 1.0, "ci95": [1.0, 1.0]}


def test_the_interval_resamples_whole_seeds(ab):
    # Two worker pairs that ran at different speeds.  A draw takes both seeds,
    # or one of them twice, so the interval runs from one seed's median to
    # the other's.
    summary = ab.bootstrap_median([[0.84, 0.85, 0.86], [0.99, 1.0, 1.01]])
    assert summary["seeds"] == 2 and summary["trials"] == 6
    assert summary["ci95"] == [0.85, 1.0]


def test_a_seed_without_trials_of_a_group_is_not_drawn(ab):
    assert ab.bootstrap_median([[], [0.97]])["seeds"] == 1
    assert ab.bootstrap_median([[], []]) is None


def test_a_worker_reports_the_minor_faults_of_its_trial(ab):
    worker = ab.Worker(TOOL.parents[1])
    try:
        reply = worker.run("los_range", 1, 0)
    finally:
        worker.close()
    assert reply["imaged"] and type(reply["minflt"]) is int and reply["minflt"] >= 0
