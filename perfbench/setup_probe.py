"""Time one set-up in a fresh interpreter and print the seconds it took.

Set-up is what a user pays before the first trial: importing the pipeline
(and with it numpy and scipy), loading a scenario configuration from JSON,
read here from standard input, and building its first scene.
"""

import sys
import time

t0 = time.perf_counter()

import coposim.pipeline  # noqa: E402,F401  (loads every module a trial uses)
from coposim.scenario import ScenarioConfig, build_scene  # noqa: E402

build_scene(ScenarioConfig.from_json(sys.stdin.read()))
print(time.perf_counter() - t0)
