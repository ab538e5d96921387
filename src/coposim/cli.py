"""Command line: ``coposim run CONFIG`` and ``coposim sweep CONFIG``.

Both load a scenario JSON file and print the run report as JSON.  ``run``
runs one trial of the scene (the report's ``mode`` says whether it imaged a
direct view or fused reflections); ``sweep`` runs the configured sweep.
"""

from __future__ import annotations

import argparse

from .pipeline import run, run_sweep
from .scenario import ScenarioConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coposim", description="Run a scenario or its sweep and print the report as JSON.")
    parser.add_argument("command", choices=("run", "sweep"),
                        help="run: one trial; sweep: the configured sweep")
    parser.add_argument("config", help="scenario configuration JSON file")
    args = parser.parse_args(argv)

    config = ScenarioConfig.load(args.config)
    report, _ = (run_sweep if args.command == "sweep" else run)(config)
    print(report.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
