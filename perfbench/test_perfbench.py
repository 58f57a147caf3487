"""Tests of the benchmark harness itself: span arithmetic, statistics, names, inputs."""

import json
import re
import subprocess
import sys
from pathlib import Path

import common
import run
import tracer
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# A metric name starts with a letter or digit and uses only [A-Za-z0-9_.-].
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(sid, parent, name, start, end, ok=True, dim=0):
    return [sid, parent, 0, name, start, end, ok, dim]


def test_self_time_subtracts_merged_children_only():
    spans = [
        span(0, -1, "analysis.fit_parameters", 0, 100),
        span(1, 0, "scattering.simulate_scattering", 10, 30),
        span(2, 0, "scattering.pump_off_scattering", 20, 50),  # overlaps span 1
        span(3, 1, "scattering.scattering_matrix", 12, 15),  # grandchild of 0
        span(4, 0, "scattering.assemble_system", 90, 120),  # runs past its parent
    ]
    selfs = tracer.self_times_ns(spans)
    assert selfs[0] == 100 - (50 - 10) - (100 - 90)
    assert selfs[1] == 20 - 3
    assert selfs[2] == 30
    assert selfs[3] == 3
    assert selfs[4] == 30


def test_layer_metrics_counts_fit_evaluations_and_solves():
    spans = [
        span(0, -1, "analysis.fit_parameters", 0, 1000),
        span(1, 0, "scattering.simulate_scattering", 0, 400),
        span(2, 1, "scattering.scattering_matrix", 100, 300, dim=10),
        span(3, 0, "scattering.simulate_scattering", 400, 800),
        span(4, 3, "scattering.scattering_matrix", 500, 700, ok=False, dim=20),
        span(5, -1, "scattering.simulate_scattering", 1000, 1100),  # not under a fit
    ]
    metrics = tracer.layer_metrics(spans)
    assert metrics["analysis.fit_parameters.calls"] == 1
    assert metrics["analysis.fit_parameters.total_s"] == 1000 / 1e9
    assert metrics["analysis.fit_parameters.self_s"] == 200 / 1e9
    assert metrics["analysis.fit_parameters.evals"] == 2
    assert metrics["scattering.scattering_matrix.calls"] == 2
    assert metrics["scattering.scattering_matrix.dim_max"] == 20
    assert metrics["scattering.scattering_matrix.useful_ratio"] == 0.5
    assert metrics["scattering.scattering_matrix.flops_computed"] == 32.0 / 3.0 * (10**3 + 20**3)
    assert metrics["cli.main.calls"] == 0


def test_merge_renumbers_parents_per_process():
    first = [span(0, -1, "cli.main", 0, 10), span(1, 0, "config.parse_config", 1, 2)]
    second = [span(0, -1, "cli.main", 0, 10)]
    merged = tracer.merge([(7, first), (8, second)])
    assert [s[tracer.ID] for s in merged] == [0, 1, 2]
    assert [s[tracer.PARENT] for s in merged] == [-1, 0, -1]
    assert [s[tracer.TASK] for s in merged] == [7, 7, 8]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    for n, percentile in ((24, 58), (27, 62), (100, 90), (400, 97), (1000, 99)):
        value, got, beyond = common.tail(list(range(1, n + 1)))
        assert got == percentile
        assert beyond >= 10
        assert value == n - beyond
    # with fewer than 20 samples the tail does not drop below the median
    value, got, beyond = common.tail(list(range(1, 16)))
    assert (value, got, beyond) == (8, 50, 7)


def test_cpu_clock_counts_waited_for_children():
    burn = "import time\nend = time.process_time() + 0.2\nwhile time.process_time() < end: pass"
    start = common.cpu_seconds()
    subprocess.run([sys.executable, "-c", burn], check=True)
    assert common.cpu_seconds() - start >= 0.2


def test_scale_divides_by_the_median_of_the_nearest_references():
    def record(kind, seconds):
        return workloads.Record(kind, None, seconds, seconds)

    records = [record("reference", s) for s in (1.0, 2.0, 3.0)]
    records.insert(1, record("task", 6.0))  # only references 1 before it, 2, 3 after
    records.append(record("task", 8.0))  # references 2, 3 before it, 9, 4 after
    records += [record("reference", 9.0), record("reference", 4.0)]
    workloads.scale(records, 0.5)
    assert records[1].scaled == 6.0 / 2.0 * 0.5
    assert records[4].scaled == 8.0 / 3.5 * 0.5
    assert all(r.scaled == 0.0 for r in records if r.kind == "reference")


def test_metric_names_use_the_allowed_charset():
    assert METRIC_NAME.fullmatch("cli.sample-covariance_s")
    for bad in ("", "_x", "a b", "a/b", "x" * 65, "é"):
        assert not METRIC_NAME.fullmatch(bad)
    names = [name for name, _, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(name) for name in names)


def test_benchmark_json_matches_the_harness():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(metrics)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_same_seed_gives_same_inputs():
    for make in (workloads.scheme_scan_inputs, workloads.census_inputs, workloads.cli_inputs):
        assert make(5) == make(5)
        assert make(5) != make(6)


def test_census_inputs_cycle_tone_counts_and_ladders():
    schemes = workloads.census_inputs(3)["schemes"]
    cycle = len(workloads.CENSUS_CYCLE)
    assert [len(tones) for _, tones in schemes[:cycle]] == [1, 2, 3, 4, 1, 2, 3, 4, 3]
    assert schemes[cycle - 1] == ("destructive", workloads.DESTRUCTIVE)
    assert schemes[2 * cycle - 1] == ("constructive", workloads.CONSTRUCTIVE)
    for kind, tones in schemes:
        if kind == "random":
            assert all(-8 <= o <= 8 and 0.01 <= r <= 0.12 for o, r, _ in tones)
            assert len({o for o, _, _ in tones}) == len(tones)


def test_cli_round_covers_every_timed_task():
    workload = workloads.CliCold(1, Path("unused"))
    workload.dir = Path("unused")
    assert [name for name, _, _ in workload.round_plan()] == list(common.CLI_TASKS)
    workload.round_specs = workload.round_plan()
    one_round = workload.round_tasks(workload.ROUND_SECONDS)
    assert [kind for kind, _ in one_round].count("start") == 7
    repeated = [s for s in workload.round_specs if s[0] in workload.REPEATED]
    assert len(repeated) == 4
    assert [spec for kind, spec in one_round if kind == "cli"] == workload.round_specs + repeated
    assert len(workload.round_tasks(2 * workload.ROUND_SECONDS)) == 2 * len(one_round)


def test_importtime_lines_give_cumulative_seconds():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:      1060 |     367058 |         scipy.linalg",
        "import time:      9819 |     206351 |         networkx",
        "import time:       966 |      22634 |       yaml",
        "import time:      1253 |     791892 |   combscatter",
        "import time:      8067 |     805365 | combscatter.cli",
        "import time:       500 |        500 | json",
        '{"error": "validation"}',
    ]
    got = workloads.parse_importtime(lines)
    assert got == {
        "import.combscatter_s": 0.805365,
        "import.scipy_linalg_s": 0.367058,
        "import.networkx_s": 0.206351,
        "import.yaml_s": 0.022634,
    }
