"""Command line: ``coposim run CONFIG`` and ``coposim sweep CONFIG``.

Both load a scenario JSON file and print the run report as JSON.  ``run``
runs trial 0 of the scene; the report's ``mode`` is "los" when it imaged the
direct path alone (too few paths to fuse) and "nlos" when it fused a clock
cluster; a path it did not image has no ``path{id}_points`` key.  ``sweep``
runs the configured sweep, each point a configuration of its own.  A
configuration plus a trial index fix a trial, so the same file gives the same
report.  The file sets what a study varies.  A file that cannot be read as
UTF-8, a field it does not know, such as the pipeline tuning fixed as
constants in ``coposim.pipeline``, or a value outside the range its
``coposim.scenario`` field declares is a ``ConfigError`` when the file
loads, and so is a scene ``validate_scene`` refuses when ``run``'s trial
starts.  A ``ConfigError`` exits with status 2, as argparse does for a bad
command line, and any other failure of ``run``'s trial with status 1
(``sweep`` counts its failed trials); both print one line, ``coposim: error:
<message>``, to standard error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, CoposimError
from .pipeline import run, run_sweep
from .scenario import ScenarioConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coposim", description="Run a scenario or its sweep and print the report as JSON.")
    parser.add_argument("command", choices=("run", "sweep"),
                        help="run: one trial; sweep: the configured sweep")
    parser.add_argument("config", help="scenario configuration JSON file")
    args = parser.parse_args(argv)

    try:
        config = ScenarioConfig.load(args.config)
        report, _ = (run_sweep if args.command == "sweep" else run)(config)
    except CoposimError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    print(report.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
