"""Command line: ``coposim run CONFIG`` and ``coposim sweep CONFIG``.

Both load a scenario JSON file and print the run report as JSON.  ``run``
takes the line-of-sight pipeline when the scene has a direct view and no
reflecting surfaces, and the reflection pipeline otherwise; ``sweep`` runs
the configured sweep.
"""

from __future__ import annotations

import argparse

from .pipeline import run_los, run_nlos, run_sweep
from .scenario import ScenarioConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coposim", description="Run a scenario or its sweep and print the report as JSON.")
    parser.add_argument("command", choices=("run", "sweep"),
                        help="run: one trial; sweep: the configured sweep")
    parser.add_argument("config", help="scenario configuration JSON file")
    args = parser.parse_args(argv)

    config = ScenarioConfig.load(args.config)
    if args.command == "sweep":
        entry = run_sweep
    elif config.scene.has_los and not config.scene.surfaces:
        entry = run_los
    else:
        entry = run_nlos
    report, _ = entry(config)
    print(report.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
