"""Measuring process: runs one workload's passes in-process and prints one JSON line.

run.py starts this file with the BLAS thread count already fixed in its
environment and the checkout root as working directory. The package is
imported from ./src of that checkout, never from an installed copy.

Pass k runs the workload's commands with rng seed pass_seeds(seed, K)[k];
K is the number of distinct seeds a run measures, fixed by --seconds and
the workload's nominal pass time so that two builds measured with the same
seed see the same inputs. When the K passes end before --seconds, passes
repeat the same seeds until it has elapsed; a repeated seed must reproduce
its first pass exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from probes import Patches, Recorder, Tracer, originals
from workloads import WORKLOADS

SETUP_REPLAYS_PER_PASS = 2


def pass_seeds(seed, count):
    """The run's rng seeds: the given seed, then seeds derived from it."""
    derived = np.random.SeedSequence(seed).generate_state(max(count - 1, 0))
    return [seed] + [int(s) for s in derived]


def distinct_passes(seconds, nominal_pass_s):
    return max(1, round(seconds / nominal_pass_s))


def import_package(root):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qvortex
    import qvortex.cli

    if src not in Path(qvortex.__file__).resolve().parents:
        raise SystemExit(f"qvortex imported from {qvortex.__file__}, not from {src}")
    return qvortex


class Runner:
    """Runs passes of one workload and checks each against the gate."""

    def __init__(self, qv, workload, out_dir):
        self.qv = qv
        self.workload = workload
        self.out_dir = out_dir
        self.functions = originals(qv)
        self.first_by_seed = {}

    def run_pass(self, seed, tracer=None):
        recorder = Recorder(self.qv, self.functions)
        with Patches() as patches:
            if tracer is not None:
                tracer.install(patches)
            recorder.install(patches)
            results = []
            start = time.perf_counter()
            for argv in self.workload.commands(seed, self.out_dir):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.qv.cli.main(argv)
                results.append((argv, code, out.getvalue() + err.getvalue()))
            wall = time.perf_counter() - start
        if not recorder.solutions:
            raise RuntimeError("the pass made no minimize_on_sphere call the recorder could see")
        parsed = self.workload.read(self.out_dir, results, recorder.solutions)
        outcomes = self.workload.check(parsed)
        flagged = self.workload.check(self.workload.perturbed(parsed))
        record = {
            "seed": seed,
            "traced": tracer is not None,
            "wall_s": wall,
            "iterations": sum(s.iterations for s in recorder.solutions),
            "max_residual_error": max(s.residual_error for s in recorder.solutions),
            "operations": len(outcomes),
            "failed": [f"{o.label}: {o.reported_failure}".rstrip(": ") for o in outcomes if o.failed],
            "value_misses": [f"{o.label}: {m}" for o in outcomes for m in o.value_misses],
            # the gate must catch omega_sq raised by 3% on every pass
            "perturbation_caught": sum(o.failed for o in flagged) > sum(o.failed for o in outcomes),
            "replays": [recorder.replay_setup() for _ in range(SETUP_REPLAYS_PER_PASS)],
            "digest": json.dumps(parsed, sort_keys=True),
        }
        first = self.first_by_seed.setdefault(seed, record)
        if first is not record and (first["digest"], first["iterations"]) != (
            record["digest"], record["iterations"]
        ):
            record["value_misses"].append(f"seed {seed} did not reproduce its first pass")
        return record


def plain(runner, seeds, seconds):
    """Medians over the K seeds; a seed run more than once counts once, by its median."""
    records = []
    start = time.perf_counter()
    while len(records) < len(seeds) or time.perf_counter() - start < seconds:
        records.append(runner.run_pass(seeds[len(records) % len(seeds)]))
    distinct = records[: len(seeds)]
    walls = [statistics.median(r["wall_s"] for r in records if r["seed"] == s) for s in seeds]
    return records, {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(t for r in records for t in r["replays"]),
        "iterations": statistics.median(r["iterations"] for r in distinct),
        "max_residual_error": statistics.median(r["max_residual_error"] for r in distinct),
    }


def traced(runner, seeds, seconds):
    """Untraced and traced pass on the same seed, in alternating order; means of each."""
    records, layer_runs, untraced_walls = [], [], []
    start = time.perf_counter()
    while not layer_runs or (
        len(layer_runs) < len(seeds) and time.perf_counter() - start < seconds
    ):
        seed = seeds[len(layer_runs)]
        tracer = Tracer(runner.functions)
        if len(layer_runs) % 2:
            traced_pass, plain_pass = runner.run_pass(seed, tracer), runner.run_pass(seed)
        else:
            plain_pass, traced_pass = runner.run_pass(seed), runner.run_pass(seed, tracer)
        records += [plain_pass, traced_pass]
        untraced_walls.append(plain_pass["wall_s"])
        layer_runs.append(tracer.metrics(traced_pass["wall_s"]))
    metrics = {k: statistics.fmean(run[k] for run in layer_runs) for k in layer_runs[0]}
    metrics["trace.untraced_wall_s"] = statistics.fmean(untraced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return records, metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "trace"), default="plain")
    parser.add_argument("--passes", type=int, default=None,
                        help="distinct seeds to run (default: from --seconds)")
    args = parser.parse_args()

    root = Path.cwd()
    qv = import_package(root)
    workload = WORKLOADS[args.workload]
    count = args.passes or distinct_passes(args.seconds, workload.nominal_pass_s)
    seeds = pass_seeds(args.seed, count)
    runner = Runner(qv, workload, root / ".perfbench_out" / workload.name)
    if args.mode == "plain":
        records, metrics = plain(runner, seeds, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        records, metrics = traced(runner, seeds, args.seconds)
    for r in records:
        del r["digest"]
    print(json.dumps({"records": records, "metrics": metrics}))


if __name__ == "__main__":
    main()
