"""Benchmark of combscatter: three workloads, end-to-end metrics and a traced layer run.

    python3 perfbench/run.py --workload topology-census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run measures one workload.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` repeats the workload's tasks with spans recorded and
reports the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a report with the per-workload metric names, the
failures and the environment.  ``--workload all`` runs every workload both
ways and prints every metric with its unit.

The package is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import common
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("scheme-scan", "topology-census", "cli-cold")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("task_p50_s", "s", "lower"),
    ("tasks_per_s", "1/s", "higher"),
    ("side_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = tuple(
    [
        (f"{layer}.{stat}", unit, "lower")
        for layer in tracer.LAYERS
        for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
    ]
    + [
        (f"{tracer.SOLVE}.dim_max", "count", "lower"),
        (f"{tracer.SOLVE}.flops_computed", "flop", "lower"),
        (f"{tracer.SOLVE}.useful_ratio", "ratio", "higher"),
        (f"{tracer.FIT}.evals", "count", "lower"),
    ]
    + [(name, "s", "lower") for name in common.IMPORT_METRICS]
    + [(f"cli.{task}_s", "s", "lower") for task in common.CLI_TASKS]
    + [("trace.overhead_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower")]
)

# What the generic end-to-end names measure on each workload.
ROLE_NAMES = {
    "scheme-scan": {"task_p50_s": "sweep_s", "task_tail_s": "sweep_tail_s",
                    "tasks_per_s": "sweeps_per_s", "side_p50_s": "fit_s"},
    "topology-census": {"task_p50_s": "scheme_p50_s", "task_tail_s": "scheme_tail_s",
                        "tasks_per_s": "schemes_per_s", "side_p50_s": "search_s"},
    "cli-cold": {"task_p50_s": "cli_p50_s", "task_tail_s": "cli_tail_s",
                 "tasks_per_s": "cli_per_s", "side_p50_s": "cli_start_s"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args, workloads) -> dict[str, list[float]]:
    """Fresh interpreters that run the workload's set-up and exit.

    Each follows a reference process, and its ``scaled`` time is its CPU
    time over the reference's, as for the tasks (see ``workloads.scale``).
    """
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    reference = [sys.executable, *workloads.REFERENCE_PROCESS]
    samples = {"scaled": [], "cpu": [], "wall": [], "reference": []}
    for _ in range(SETUP_PROBES):
        before = common.cpu_seconds()
        subprocess.run(reference, timeout=PROBE_TIMEOUT_S, check=True)
        start, cpu_start = time.perf_counter(), common.cpu_seconds()
        subprocess.run(command, stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S, check=True)
        cpu = common.cpu_seconds() - cpu_start
        samples["wall"].append(time.perf_counter() - start)
        samples["cpu"].append(cpu)
        samples["reference"].append(cpu_start - before)
        samples["scaled"].append(cpu / (cpu_start - before) * workloads.REFERENCE_PROCESS_S)
    return samples


def end_to_end(args, workload, records, setup):
    main = workload.main_seconds(records)
    side = workload.side_seconds(records)
    tail_value, percentile, beyond = common.tail(main)
    values = {
        "setup_s": common.median(setup["scaled"]),
        "task_p50_s": common.median(main),
        "tasks_per_s": len(main) / sum(main),
        "side_p50_s": common.median(side),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    roles = ROLE_NAMES[args.workload]
    named = dict(values, task_tail_s=tail_value)
    report = {
        "as_named": {roles.get(name, name): value for name, value in named.items()},
        "tail_percentile": percentile,
        "tail_samples": len(main),
        "tail_samples_beyond": beyond,
        "side_samples": len(side),
        "setup_samples_s": setup,
        "subcommands_s": workload.subcommand_seconds(records),
        # the same medians in plain CPU time, unscaled, and in wall time,
        # which a busy host inflates further
        "cpu_s": {
            "setup": common.median(setup["cpu"]),
            "task_p50": common.median(workload.main_seconds(records, "seconds")),
            "side_p50": common.median(workload.side_seconds(records, "seconds")),
        },
        "wall_s": {
            "setup": common.median(setup["wall"]),
            "task_p50": common.median(workload.main_seconds(records, "wall")),
            "side_p50": common.median(workload.side_seconds(records, "wall")),
        },
    }
    references = [r.seconds for r in records if r.kind == "reference"]
    if references:
        report["cpu_s"]["reference_p50"] = common.median(references)
    return values, report


def per_layer(args, workload, untraced, traced):
    spans = workload.spans()
    values = tracer.layer_metrics(spans)
    values.update(workload.import_seconds())
    subcommands = workload.subcommand_seconds(untraced)
    for task in common.CLI_TASKS:
        values[f"cli.{task}_s"] = subcommands.get(f"cli.{task}_s", 0.0)
    plain = sum(r.seconds for r in untraced)
    overhead = sum(r.seconds for r in traced) - plain
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / plain
    trace_path = WORK / f"trace-{args.workload}.json"
    tracer.dump(trace_path, spans, workload=args.workload, seed=args.seed)
    report = {"trace_file": str(trace_path.relative_to(ROOT)), "spans": len(spans),
              "untraced_s": plain, "traced_s": plain + overhead}
    return values, report


def emit(args, spec, values, records, report, environment) -> None:
    failures = [f"{r.kind}: {r.error}" for r in records if not r.ok]
    failed = len(failures)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    for name, unit, _ in spec:
        print(f"{args.workload:<16} {name:<48} {values[name]!r:>24} {unit}")
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    report.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        failed_frac=failed / len(records), failures=failures[:20], environment=environment,
    )
    print(json.dumps({"report": report}))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {done.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"# {name} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for metric, entry in result["metrics"].items():
                print(f"{name:<16} {metric:<48} {entry['value']!r:>24} {entry['unit']}")
            status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "combscatter" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'combscatter'}", file=sys.stderr)
        return 2
    blas_source = common.fix_blas_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    sys.path.insert(0, str(SRC))
    origin = Path(importlib.util.find_spec("combscatter").origin).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: combscatter resolves to {origin}, not to {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import workloads  # after the BLAS thread setting: loads numpy

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, workdir)
    try:
        if args.setup_probe:
            workload.setup()
            return 0
        if args.trace == 0:
            setup = probe_setup(args, workloads)
            workload.setup()
            records = workload.loop(args.seconds)
            values, report = end_to_end(args, workload, records, setup)
            spec = END_TO_END
        else:
            workload.setup()
            recorder = tracer.Tracer()
            recorder.active = False
            workload.attach(recorder)
            done, plan = workload.plan(args.seconds / 3)
            # each planned task again untraced and traced, alternating which
            # goes first, so warm-up and drift do not bias the overhead
            untraced, traced = [], []
            for k, (kind, spec) in enumerate(plan):
                for active in ((False, True) if k % 2 == 0 else (True, False)):
                    recorder.active = active
                    (traced if active else untraced).append(workload.run(kind, spec))
            recorder.active = False
            records = done + untraced + traced
            values, report = per_layer(args, workload, untraced, traced)
            spec = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(args, spec, values, records, report, common.environment(blas_source))
    return 0


if __name__ == "__main__":
    sys.exit(main())
