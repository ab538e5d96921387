"""Interleaved per-trial A/B of two revisions on the benchmark's workloads.

Run from anywhere inside the repository:

    python3 tools/ab.py PARENT CHANGE --seeds 1201-1210 --trials 8
    python3 tools/ab.py HEAD HEAD --trials 2              # an A/A run

Each revision is extracted with ``git archive`` into its own temporary
directory, and one worker process per tree imports ``coposim`` and
``perfbench/workloads.py`` from that tree, with the benchmark's one BLAS
thread and memory cap (``perfbench/run.py``).  The tool drives both workers
trial by trial over pipes, and starts a fresh pair for each base seed: one
process can run several percent fast or slow for its whole life (three
trials in a row read 0.85 in one A/B pair), and fresh pairs confine that to
one seed's trials.  A trial is what ``workloads.run_trial`` runs for
(workload, base seed, trial index): every workload runs trial indices
0 .. ``--trials`` - 1 at each base seed.  Each trial runs three times on each
side, the side that goes first alternating from one run to the next, and
each side keeps its fastest time.  Both sides time the same trial within a
second of each other, so host drift, which moves run-level medians by
10-30% on a shared 2-CPU VM, cancels in the per-trial ratio B / A.

Standard output is one JSON report.  Per workload it gives the median ratio
and a 95% bootstrap CI, for every trial, for the imaged trials (those that
returned a report, whether or not ``check_trial`` passed them) and for the
failed ones (those that raised), beside each side's median time.  The
bootstrap resamples base seeds, each with all its trials, because a worker
pair lives for one seed and its trials share its speed: resampling trials
would take one slow pair's trials for independent ones and narrow the CI.
So the CI needs several seeds, and with one seed it is the median itself.
It lists every trial whose ``TrialOutcome.accuracy_key()`` differs between
the two trees or between the runs of one tree, with the trial metrics that
differ, and then every trial's times.  Beside each time stands the minor
page faults the worker took during that run (the ``ru_minflt`` difference
of ``resource.getrusage`` around ``run_trial``), and each workload gives
both sides' median count: a process's fault count follows its allocation
history, a bias on the times that the ratio alone does not show.  Standard
error has one line per workload.  Exit status 1 means some key differed; 2
means a revision could not be extracted.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 3
BOOTSTRAP = 2000


def worker(tree: str) -> None:
    """Run trials for the parent process: one JSON request line in, one JSON outcome out."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import run
    run.pin_threads()
    run.cap_memory()
    from workloads import WORKLOADS, run_trial
    for line in sys.stdin:
        name, seed, trial = json.loads(line)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        outcome = run_trial(WORKLOADS[name], seed, trial)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        print(json.dumps({"wall_s": outcome.wall_s, "minflt": faults,
                          "imaged": outcome.metrics is not None,
                          "key": outcome.accuracy_key()}), flush=True)


class Worker:
    def __init__(self, tree: Path):
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker", str(tree)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, name: str, seed: int, trial: int) -> dict:
        self.proc.stdin.write(json.dumps([name, seed, trial]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def extract(rev: str, into: Path) -> str:
    """Commit of ``rev``, whose tree is written into ``into``."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout   # bytes: a tar stream
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def bootstrap_median(by_seed: list[list[float]]) -> dict | None:
    """Median ratio and the 2.5 and 97.5 percentiles of its bootstrap distribution.

    ``by_seed`` holds each base seed's ratios; a draw takes as many seeds as
    there are, with replacement, each with all its trials.
    """
    by_seed = [ratios for ratios in by_seed if ratios]
    if not by_seed:
        return None
    import numpy as np   # not at module level: a worker pins its BLAS threads before numpy loads
    draws = np.random.default_rng(0).integers(0, len(by_seed), size=(BOOTSTRAP, len(by_seed)))
    lo, hi = np.percentile([np.median(np.concatenate([by_seed[i] for i in draw]))
                            for draw in draws], [2.5, 97.5])
    ratios = [r for seed in by_seed for r in seed]
    return {"seeds": len(by_seed), "trials": len(ratios),
            "median_ratio": round(statistics.median(ratios), 4),
            "ci95": [round(float(lo), 4), round(float(hi), 4)]}


def changed_metrics(key_a: str, key_b: str) -> dict:
    """The failure and each trial metric that differ between two accuracy keys, as [A, B]."""
    (fail_a, metrics_a), (fail_b, metrics_b) = json.loads(key_a), json.loads(key_b)
    metrics_a, metrics_b = metrics_a or {}, metrics_b or {}
    changed = {"failure": [fail_a, fail_b]} if fail_a != fail_b else {}
    for name in sorted(set(metrics_a) | set(metrics_b)):
        if metrics_a.get(name) != metrics_b.get(name):
            changed[name] = [metrics_a.get(name), metrics_b.get(name)]
    return changed


def run_both(sides: tuple[Worker, Worker], name: str, seed: int, trial: int,
             first: int) -> tuple[list, list]:
    """Outcomes of ``REPEATS`` runs of a trial per side; side ``first`` leads the first run."""
    runs = ([], [])
    for repeat in range(REPEATS):
        lead = (first + repeat) % 2
        for side in (lead, 1 - lead):
            runs[side].append(sides[side].run(name, seed, trial))
    return runs


def compare(trees: tuple[Path, Path], names: list[str], seeds: list[int],
            trials: int) -> tuple[dict, list, list]:
    summary, differing, rows = {}, [], []
    for name in names:
        groups = {"all": [], "imaged": [], "failed": []}   # per group, one list per seed
        best = ([], [])   # each side's fastest run of every trial
        for seed in seeds:
            for ratios in groups.values():
                ratios.append([])
            sides = (Worker(trees[0]), Worker(trees[1]))
            try:
                outcomes = [run_both(sides, name, seed, trial, (len(rows) + trial) % 2)
                            for trial in range(trials)]
            finally:
                for side in sides:
                    side.close()
            for trial, runs in enumerate(outcomes):
                fastest = [min(side, key=lambda r: r["wall_s"]) for side in runs]
                times = [r["wall_s"] for r in fastest]
                keys = [{r["key"] for r in side} for side in runs]
                equal = len(keys[0]) == len(keys[1]) == 1 and keys[0] == keys[1]
                if not equal:
                    differing.append({"workload": name, "seed": seed, "trial": trial,
                                      "repeatable": [len(k) == 1 for k in keys],
                                      "changed": changed_metrics(runs[0][0]["key"],
                                                                 runs[1][0]["key"])})
                imaged = runs[0][0]["imaged"]
                ratio = times[1] / times[0]
                groups["all"][-1].append(ratio)
                groups["imaged" if imaged else "failed"][-1].append(ratio)
                for side, run in zip(best, fastest):
                    side.append(run)
                rows.append({"workload": name, "seed": seed, "trial": trial,
                             "first": "AB"[len(rows) % 2], "a_s": times[0], "b_s": times[1],
                             "a_minflt": fastest[0]["minflt"], "b_minflt": fastest[1]["minflt"],
                             "imaged": imaged, "keys_equal": equal})
        summary[name] = {**{group: bootstrap_median(r) for group, r in groups.items()},
                         "a_median_s": statistics.median(r["wall_s"] for r in best[0]),
                         "b_median_s": statistics.median(r["wall_s"] for r in best[1]),
                         "a_median_minflt": statistics.median(r["minflt"] for r in best[0]),
                         "b_median_minflt": statistics.median(r["minflt"] for r in best[1]),
                         "keys_differ": sum(1 for d in differing if d["workload"] == name)}
        whole = summary[name]["all"]
        print(f"{name}: B/A {whole['median_ratio']} (CI {whole['ci95'][0]}-{whole['ci95'][1]}) "
              f"over {whole['seeds']} seeds, {whole['trials']} trials, "
              f"{summary[name]['keys_differ']} keys differ, minor faults median "
              f"{summary[name]['a_median_minflt']} / {summary[name]['b_median_minflt']}",
              file=sys.stderr)
    return summary, differing, rows


def seed_list(text: str) -> list[int]:
    """Base seeds from ``"1201-1210"``, ``"1,2,5"`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="revision A, the parent (any git revision)")
    parser.add_argument("b", help="revision B, the change")
    parser.add_argument("--workload", default="all",
                        help="los_range, nlos_surfaces, nlos_noise or all (default)")
    parser.add_argument("--seeds", type=seed_list, default=[1], help="base seeds (default 1)")
    parser.add_argument("--trials", type=int, default=8,
                        help="trial indices per base seed and workload (default 8)")
    args = parser.parse_args(argv)

    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    names = declared if args.workload == "all" else [args.workload]
    if not set(names) <= set(declared) or args.trials < 1:
        parser.error(f"--workload must be one of {', '.join(declared)} or all, "
                     "and --trials at least 1")
    with tempfile.TemporaryDirectory(prefix="coposim-ab-") as scratch:
        trees = (Path(scratch) / "a", Path(scratch) / "b")
        try:
            commits = [extract(rev, tree) for rev, tree in zip((args.a, args.b), trees)]
        except subprocess.CalledProcessError as exc:
            message = exc.stderr.decode() if isinstance(exc.stderr, bytes) else exc.stderr
            print(f"error: {' '.join(exc.cmd)}: {message.strip()}", file=sys.stderr)
            return 2
        summary, differing, rows = compare(trees, names, args.seeds, args.trials)
    print(json.dumps({"a": {"rev": args.a, "commit": commits[0]},
                      "b": {"rev": args.b, "commit": commits[1]},
                      "seeds": args.seeds, "trials_per_seed": args.trials,
                      "repeats": REPEATS, "workloads": summary,
                      "differing": differing, "trials": rows}))
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        sys.exit(main())
