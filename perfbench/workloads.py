"""The benchmark's workloads: seeded inputs, timed tasks and output checks.

Each workload is a closed loop with one client: a task starts when the
previous one has finished and been checked.  Every input comes from the
seed; the package sees only the generated inputs.  Checks run outside the
timed region and, in a traced run, with tracing paused.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import common
import tracer as tracing

HERE = Path(__file__).resolve().parent
TRACE_CHILD = HERE / "trace_child.py"

# Strength ratio and phases of the acceptance suite's criterion-6 and
# criterion-10 scheme: three balanced pumps at -4/0/4.
RIDGE_RATIO = 0.085
THREE_PUMPS = (-4, 0, 4)
DESTRUCTIVE = tuple((o, RIDGE_RATIO, p) for o, p in zip(THREE_PUMPS, (0.0, 0.0, math.pi)))
CONSTRUCTIVE = tuple((o, RIDGE_RATIO, 0.0) for o in THREE_PUMPS)

DEFECT_TOL = 1e-9
ALL_PASS_TOL = 1e-10
SWEEP_TOL_DB = 1e-9
RIDGE_TOL = 0.01
CHILD_TIMEOUT_S = 150.0


@dataclass
class Record:
    """One attempted task: what ran, its CPU and wall seconds, and whether it passed."""

    kind: str
    spec: object
    seconds: float
    wall: float
    ok: bool = True
    error: str = ""
    # CPU seconds scaled by the reference runs beside the task (see scale)
    scaled: float = 0.0


# ---------------------------------------------------------------- reference

# Every timed task runs beside reference runs: fixed work that never touches
# the package.  On a shared 2-vCPU Xeon guest the CPU time of the same code
# moved by 20-40% between runs minutes apart, as the host's other guests
# came and went; the reference moved with it.  A task's end-to-end time is
# its CPU time over the median CPU time of the nearest reference runs (two
# before it, two after), multiplied by a fixed constant: the reference's
# median CPU time on that guest.  So the values read as seconds on that
# guest, and a change to the package moves them in full.
REFERENCE_WINDOW = 2
# In-process reference: dense complex solves of the size of a 95-mode
# system, and dictionary updates like the graph code's.
REFERENCE_DIM = 190
REFERENCE_UPDATES = 6000
# Out-of-process reference (cli-cold and the set-up probes): a fresh
# interpreter that imports the package's third-party dependencies.
REFERENCE_PROCESS = ["-c", "import numpy, scipy.linalg, networkx, yaml"]
REFERENCE_PROCESS_S = 0.73


def reference_system():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((REFERENCE_DIM, REFERENCE_DIM)) * (1 + 1j)
    return a + REFERENCE_DIM * np.eye(REFERENCE_DIM), np.eye(REFERENCE_DIM)


def scale(records, reference_s: float) -> None:
    """Set ``scaled`` on every task record from the reference records around it."""
    positions = [k for k, r in enumerate(records) if r.kind == "reference"]
    for k, record in enumerate(records):
        if record.kind == "reference":
            continue
        i = bisect.bisect(positions, k)
        near = positions[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW]
        record.scaled = record.seconds / common.median([records[p].seconds for p in near]) * reference_s


# ---------------------------------------------------------------- inputs


def _random_tones(rng, count):
    """Tones as drawn by acceptance criterion 8: offsets -8..8, ratios 0.01-0.12."""
    offsets = rng.choice(np.arange(-8, 9), size=count, replace=False)
    return tuple(
        (int(o), float(rng.uniform(0.01, 0.12)), float(rng.uniform(0.0, common.TWO_PI)))
        for o in offsets
    )


SWEEP_STEPS = 72
CHECKED_STEPS = 4
SCAN_PLAN = 512


def scheme_scan_inputs(seed: int) -> dict:
    """Phase sweeps: tones in turn, signal index and checked steps from the seed."""
    rng = np.random.default_rng(seed)
    sweeps = []
    for k in range(SCAN_PLAN):
        signal = int(rng.integers(-common.HALF_SPAN, common.HALF_SPAN + 1))
        steps = tuple(sorted(int(s) for s in rng.choice(SWEEP_STEPS, CHECKED_STEPS, replace=False)))
        sweeps.append((k % len(THREE_PUMPS), signal, steps))
    return {"sweeps": sweeps}


CENSUS_PLAN = 4096
# One cycle: random schemes of 1, 2, 3, 4, 1, 2, 3, 4 tones, then a ladder.
CENSUS_CYCLE = (1, 2, 3, 4, 1, 2, 3, 4, 0)
CENSUS_ROUNDS = 12
IMPOSSIBLE_EDGE = (-common.HALF_SPAN, 0)


def census_inputs(seed: int) -> dict:
    """Schemes as in criterion 8, with one in nine a criterion-6 ladder.

    Criterion 8 draws the tone count uniformly from 1-4; here the counts
    cycle so that every run sees them in equal shares, which keeps the
    per-run statistics from following the draw.  Ladders alternate between
    the destructive and the constructive scheme.

    Searches use two random tones; the target is the -20 dB graph at hidden
    phases plus an edge no scheme reaches (sum and difference of its modes
    both 47), so every search scans its full phase grid.
    """
    rng = np.random.default_rng(seed)
    schemes = []
    for k in range(CENSUS_PLAN):
        tones = CENSUS_CYCLE[k % len(CENSUS_CYCLE)]
        if tones:
            schemes.append(("random", _random_tones(rng, tones)))
        elif (k // len(CENSUS_CYCLE)) % 2 == 0:
            schemes.append(("destructive", DESTRUCTIVE))
        else:
            schemes.append(("constructive", CONSTRUCTIVE))
    searches = [
        (_random_tones(rng, 2), tuple(float(p) for p in rng.uniform(0.0, common.TWO_PI, 2)))
        for _ in range(CENSUS_ROUNDS)
    ]
    return {"schemes": schemes, "searches": searches}


def _config_text(amplitude, phases_deg, signal, mc_seed, swept_label, coupling="112 MHz"):
    """A config at the sizes of the bundled ``threepump.yaml``, with a small fit grid."""
    tones = "".join(
        f"  - offset: {o}\n    amplitude: {amplitude!r}\n    phase_deg: {p!r}\n"
        for o, p in zip(THREE_PUMPS, phases_deg)
    )
    # The fit grid (4 x 4) holds the true cell: g = amplitude/2, 112 MHz.
    return (
        "device:\n"
        "  resonance_frequency: 4.2 GHz\n"
        f"  port_coupling: {coupling}\n"
        "grid:\n"
        "  center: 4.2 GHz\n"
        "  spacing: 0.1 MHz\n"
        f"  half_span: {common.HALF_SPAN}\n"
        "scheme:\n"
        f"{tones}"
        "run:\n"
        "  threshold_db: -20.0\n"
        f"  steps: {SWEEP_STEPS}\n"
        f"  seed: {mc_seed}\n"
        "  samples: 100000\n"
        f"  signal_index: {signal}\n"
        f"  swept_tone: {swept_label}\n"
        "  phase_grid_points: 8\n"
        f"  fit_g_min: {amplitude / 4!r}\n"
        f"  fit_g_max: {amplitude!r}\n"
        "  fit_gamma_min: 56 MHz\n"
        "  fit_gamma_max: 224 MHz\n"
        "  fit_grid_points: 4\n"
    )


def cli_inputs(seed: int) -> dict:
    """One config drawn from the seed, an invalid twin, and a search target."""
    rng = np.random.default_rng(seed)
    ratio = float(rng.uniform(0.06, 0.10))
    amplitude = 2.0 * ratio * common.COUPLING_HZ / common.RESONANCE_HZ
    phases = [round(float(p), 3) for p in rng.uniform(0.0, 360.0, len(THREE_PUMPS))]
    signal = int(rng.integers(-common.HALF_SPAN, common.HALF_SPAN + 1))
    mc_seed = int(rng.integers(0, 2**31))
    swept = int(rng.integers(-1, 2))
    return {
        "ratio": ratio,
        "config": _config_text(amplitude, phases, signal, mc_seed, swept),
        # a frequency without its unit tag is a validation error (exit 2)
        "invalid": _config_text(amplitude, phases, signal, mc_seed, swept, coupling="112"),
        "target": json.dumps({"edges": [list(IMPOSSIBLE_EDGE)]}),
    }


# ---------------------------------------------------------------- checks


def particle_hole_defect(m) -> float:
    """Max-norm of ``M - Sx conj(M) Sx`` with Sx swapping each (a, a*) pair."""
    swap = np.arange(m.shape[0]) ^ 1
    return float(np.max(np.abs(m - np.conj(m)[np.ix_(swap, swap)])))


def symplectic_defect(sx) -> float:
    """Max-norm of ``Sx O Sx^T - O`` for the per-mode symplectic form O."""
    omega = np.kron(np.eye(sx.shape[0] // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return float(np.max(np.abs(sx @ omega @ sx.T - omega)))


def all_pass_problem(s_off) -> str | None:
    m = np.asarray(s_off.matrix)
    off = m - np.diag(np.diag(m))
    worst = max(float(np.max(np.abs(np.abs(np.diag(m)) - 1.0))), float(np.max(np.abs(off))))
    return None if worst < ALL_PASS_TOL else f"pump-off reference not all-pass ({worst:.2e})"


def graph_problem(cs, db, grid, graph, report) -> str | None:
    """Edges against a vectorized recomputation; components against the nodes."""
    half = grid.half_span
    w = cs.mode_level_db(db, grid)
    both = np.maximum(w, w.T)
    a, b = np.triu_indices(w.shape[0], 1)
    keep = both[a, b] >= graph.threshold_db
    expected = {
        (int(i) - half, int(j) - half): float(both[i, j]) for i, j in zip(a[keep], b[keep])
    }
    got = {(e.i, e.j): e.weight_db for e in graph.edges}
    if got != expected:
        return f"extract_graph at {graph.threshold_db} dB: {len(got)} edges, expected {len(expected)}"
    loops = [(int(i) - half, float(w[i, i])) for i in range(w.shape[0]) if w[i, i] >= graph.threshold_db]
    if list(graph.self_loops) != loops:
        return f"extract_graph at {graph.threshold_db} dB: self-loops differ"
    nodes = [n for comp in report.components for n in comp]
    if sorted(nodes) != list(grid.indices) or len(set(nodes)) != len(nodes):
        return "components do not partition the nodes"
    component = {n: k for k, comp in enumerate(report.components) for n in comp}
    if any(component[i] != component[j] for i, j in got):
        return "an edge joins two components"
    if len(report.labels) != len(report.components):
        return "one label per component expected"
    return None


def ladder_problem(cs, kind, report) -> str | None:
    """The criterion-6 schemes and their exact -20 dB labels."""
    labels = report.labels
    if kind == "destructive":
        sizes = sorted(len(c) for c in report.components)
        if sizes != [23, 24, 48] or any(lb is not cs.TopologyLabel.SQUARE_LADDER for lb in labels):
            return f"destructive scheme: sizes {sizes}, labels {[lb.value for lb in labels]}"
    elif kind == "constructive":
        if cs.TopologyLabel.LADDER_WITH_DIAGONALS not in labels:
            return f"constructive scheme: labels {[lb.value for lb in labels]}"
    return None


# ---------------------------------------------------------------- workloads


class Workload:
    """Round-based closed loop shared by the workloads.

    Each round starts with one side task and fills the rest of its time
    slot with main tasks (at least one).
    """

    name = ""
    main_kind = ""
    side_kind = ""
    rounds = 1
    # what one reference run does (here: repeats of the in-process work),
    # and its median CPU seconds on the guest described above
    REFERENCE = 1
    REFERENCE_S = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self._task = -1
        self._main = 0
        self.reference = reference_system()

    def setup(self) -> None:
        raise NotImplementedError

    def side_spec(self, round_index: int):
        raise NotImplementedError

    def main_spec(self, index: int):
        raise NotImplementedError

    def loop(self, seconds: float) -> list[Record]:
        records = []
        start = time.perf_counter()
        for r in range(self.rounds):
            slot_end = start + seconds * (r + 1) / self.rounds
            records += self.referenced(self.side_kind, self.side_spec(r))
            while True:
                records += self.referenced(self.main_kind, self.main_spec(self._main))
                self._main += 1
                if time.perf_counter() >= slot_end:
                    break
        records.append(self.run("reference", self.REFERENCE))
        scale(records, self.REFERENCE_S)
        return records

    def referenced(self, kind: str, spec) -> list[Record]:
        """A reference run, then the task."""
        return [self.run("reference", self.REFERENCE), self.run(kind, spec)]

    def plan(self, seconds: float):
        """Tasks for a traced run to repeat.

        Returns the records of the tasks already run to choose them and
        their ``(kind, spec)`` list, without the reference runs.
        """
        records = self.loop(seconds)
        return records, [(r.kind, r.spec) for r in records if r.kind != "reference"]

    def run(self, kind: str, spec) -> Record:
        self._task += 1
        if self.tracer is not None:
            self.tracer.task = self._task
        prepare = getattr(self, f"prepare_{kind}", None)
        if prepare is not None:
            prepare(spec)
        start, cpu = time.perf_counter(), common.cpu_seconds()
        try:
            out = getattr(self, f"task_{kind}")(spec)
        except Exception as exc:  # a failing task is counted; the run goes on
            return Record(kind, spec, common.cpu_seconds() - cpu, time.perf_counter() - start,
                          False, f"{type(exc).__name__}: {exc}")
        seconds, wall = common.cpu_seconds() - cpu, time.perf_counter() - start
        try:
            with self.untraced():
                problem = getattr(self, f"check_{kind}")(spec, out)
        except Exception as exc:  # a check that cannot run is a failed check
            problem = f"check raised {type(exc).__name__}: {exc}"
        return Record(kind, spec, seconds, wall, problem is None, problem or "")

    def untraced(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.active

    # timings the end-to-end metrics are taken from
    def main_seconds(self, records, field="scaled") -> list[float]:
        return _seconds(records, lambda r: r.kind == self.main_kind, field)

    def side_seconds(self, records, field="scaled") -> list[float]:
        return _seconds(records, lambda r: r.kind == self.side_kind, field)

    def task_reference(self, repeats):
        a, b = self.reference
        for _ in range(repeats):
            x = np.linalg.solve(a, b)
            counts: dict[int, int] = {}
            for i in range(REFERENCE_UPDATES):
                key = (i * 7919) % 1013
                counts[key] = counts.get(key, 0) + i
        return x

    def check_reference(self, repeats, x):
        a, b = self.reference
        residual = float(np.max(np.abs(a @ x - b)))
        return None if residual < 1e-9 else f"reference solve residual {residual:.2e}"

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # tracing
    def attach(self, tracer) -> None:
        self.tracer = tracer
        tracer.install()

    def spans(self) -> list[list]:
        return self.tracer.spans

    def import_seconds(self) -> dict[str, float]:
        """Median import times over fresh interpreters running ``import combscatter``."""
        runs = []
        for _ in range(3):
            done = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import combscatter"],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
            )
            runs.append(parse_importtime(done.stderr.splitlines()))
        return {key: common.median([r[key] for r in runs]) for key in runs[0]}

    def subcommand_seconds(self, records) -> dict[str, float]:
        return {}


def _seconds(records, keep, field="seconds") -> list[float]:
    chosen = [r for r in records if keep(r)]
    passed = [getattr(r, field) for r in chosen if r.ok]
    return passed or [getattr(r, field) for r in chosen]


def parse_importtime(lines) -> dict[str, float]:
    """Cumulative seconds of the tracked imports from ``-X importtime`` lines.

    ``combscatter`` counts every ``combscatter*`` entry imported at top level
    (the package and, for the CLI, ``combscatter.cli``).
    """
    cumulative: dict[str, float] = {}
    top_level = 0.0
    for line in lines:
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        name = raw.strip()
        seconds = int(parts[1]) / 1e6
        cumulative.setdefault(name, seconds)
        if name.startswith("combscatter") and raw.startswith(" ") and not raw.startswith("  "):
            top_level += seconds
    out = {key: cumulative.get(module, 0.0) for key, module in common.IMPORT_METRICS.items()}
    out["import.combscatter_s"] = top_level
    return out


class SchemeScan(Workload):
    """Criterion-10 self-fits and 72-step phase sweeps of the -4/0/4 scheme.

    Almost all time goes to resolve, assemble, solve and pump-off; graphs
    and gaussian are never called.
    """

    name = "scheme-scan"
    main_kind = "sweep"
    side_kind = "fit"
    rounds = 5
    REFERENCE = 4
    REFERENCE_S = 0.0285
    # 6 x 6 cells do not hold the true cell, so the refinement runs its course.
    FIT_GRID_POINTS = 6

    def setup(self):
        import combscatter as cs

        self.cs = cs
        self.inputs = scheme_scan_inputs(self.seed)
        self.grid = cs.ModeGrid(
            common.TWO_PI * common.RESONANCE_HZ, common.TWO_PI * common.SPACING_HZ, common.HALF_SPAN
        )
        self.device = cs.DeviceParams(
            common.TWO_PI * common.RESONANCE_HZ, common.TWO_PI * common.COUPLING_HZ
        )
        amplitude = cs.scale_for_ratio(RIDGE_RATIO, self.device)
        self.scheme = cs.PumpScheme.balanced(THREE_PUMPS, amplitude, [p for _, _, p in DESTRUCTIVE])
        self.measured = cs.simulate_scattering(self.grid, self.device, self.scheme)
        self.s_off = cs.pump_off_scattering(self.grid, self.device)
        self.ref = np.abs(np.diag(self.s_off.matrix))
        self.g_true = amplitude / 2.0

    def side_spec(self, round_index):
        return self.FIT_GRID_POINTS

    def main_spec(self, index):
        sweeps = self.inputs["sweeps"]
        return sweeps[index % len(sweeps)]

    def task_fit(self, grid_points):
        coupling = self.device.port_coupling
        return self.cs.fit_parameters(
            self.measured,
            self.grid,
            self.scheme,
            (0.5 * self.g_true, 2.0 * self.g_true),
            (0.5 * coupling, 2.0 * coupling),
            grid_points,
        )

    def check_fit(self, grid_points, result):
        error = abs(result.ridge_ratio - RIDGE_RATIO) / RIDGE_RATIO
        if error >= RIDGE_TOL:
            return f"fit ridge ratio {result.ridge_ratio:.6f}, {error:.2%} from {RIDGE_RATIO}"
        best = self.cs.DeviceParams(self.grid.center_frequency, result.best_gamma)
        return all_pass_problem(self.cs.pump_off_scattering(self.grid, best))

    def task_sweep(self, spec):
        tone, signal, _ = spec
        return self.cs.phase_sweep(self.scheme, tone, SWEEP_STEPS, signal, self.grid, self.device)

    def check_sweep(self, spec, result):
        tone, signal, steps = spec
        problem = all_pass_problem(self.s_off)
        if problem:
            return problem
        if not result.tracks:
            return f"sweep of tone {tone} at signal {signal} has no tracks"
        col = self.grid.a_slot(signal)
        for step in steps:
            phase = common.TWO_PI * step / SWEEP_STEPS
            if result.phases[step] != phase:
                return f"sweep phase {step} is {result.phases[step]!r}, expected {phase!r}"
            s = self.cs.simulate_scattering(
                self.grid, self.device, self.scheme.with_phase(tone, phase)
            ).matrix
            for track in result.tracks:
                mode = track.mode_index
                row = self.grid.a_conj_slot(mode) if track.order == 2 else self.grid.a_slot(mode)
                expected = 20.0 * math.log10(max(abs(s[row, col]) / self.ref[col], 1e-12))
                if abs(track.magnitudes_db[step] - expected) > SWEEP_TOL_DB:
                    return (
                        f"sweep track {track.label} step {step}: {track.magnitudes_db[step]!r} dB, "
                        f"independent simulate gives {expected!r} dB"
                    )
        return None


class TopologyCensus(Workload):
    """Characterise random schemes: simulate, normalize, graphs, topology, Gaussian.

    Side tasks are phase searches whose target forces the full grid.
    """

    name = "topology-census"
    main_kind = "scheme"
    side_kind = "search"
    rounds = CENSUS_ROUNDS
    REFERENCE = 1
    REFERENCE_S = 0.0072
    THRESHOLDS_DB = (-20.0, -26.0)
    SEARCH_POINTS = 8

    def setup(self):
        import combscatter as cs

        self.cs = cs
        inputs = census_inputs(self.seed)
        self.grid = cs.ModeGrid(
            common.TWO_PI * common.RESONANCE_HZ, common.TWO_PI * common.SPACING_HZ, common.HALF_SPAN
        )
        self.device = cs.DeviceParams(
            common.TWO_PI * common.RESONANCE_HZ, common.TWO_PI * common.COUPLING_HZ
        )
        self.s_off = cs.pump_off_scattering(self.grid, self.device)
        self.reference_problem = all_pass_problem(self.s_off)
        self.vacuum = cs.vacuum_covariance(self.grid)
        self.schemes = [(kind, self._scheme(tones)) for kind, tones in inputs["schemes"]]
        self.searches = []
        for tones, hidden in inputs["searches"]:
            scheme = self._scheme(tones)
            hidden_scheme = scheme
            for k, phase in enumerate(hidden):
                hidden_scheme = hidden_scheme.with_phase(k, phase)
            db = cs.normalize_pump_off(
                cs.simulate_scattering(self.grid, self.device, hidden_scheme), self.s_off
            )
            target = cs.extract_graph(db, self.grid, self.THRESHOLDS_DB[0]).edge_pairs()
            target.add(IMPOSSIBLE_EDGE)
            self.searches.append((scheme, sorted(target)))
        # first-call costs (BLAS thread start, lazy library paths) belong to set-up
        self.task_scheme(("destructive", self._scheme(DESTRUCTIVE)))

    def _scheme(self, tones):
        cs = self.cs
        return cs.PumpScheme(
            tuple(cs.PumpTone(o, cs.scale_for_ratio(r, self.device), p) for o, r, p in tones)
        )

    def side_spec(self, round_index):
        return round_index % len(self.searches)

    def main_spec(self, index):
        return index % len(self.schemes)

    def task_scheme(self, spec):
        cs, grid = self.cs, self.grid
        kind, scheme = self.schemes[spec] if isinstance(spec, int) else spec
        s = cs.simulate_scattering(grid, self.device, scheme)
        db = cs.normalize_pump_off(s, self.s_off)
        graphs = []
        for threshold in self.THRESHOLDS_DB:
            graph = cs.extract_graph(db, grid, threshold)
            graphs.append((graph, cs.topology_report(graph)))
        sx = cs.to_quadrature(s)
        defect = cs.symplectic_defect(sx)
        covariance = cs.propagate_covariance(sx, self.vacuum)
        return kind, s, db, graphs, sx, defect, covariance

    def check_scheme(self, spec, out):
        kind, s, db, graphs, sx, defect, covariance = out
        if self.reference_problem:
            return self.reference_problem
        ph = particle_hole_defect(s.matrix)
        if ph >= DEFECT_TOL:
            return f"{kind} scheme {spec}: particle-hole defect {ph:.3e}"
        sym = max(defect, symplectic_defect(sx.matrix))
        if sym >= DEFECT_TOL:
            return f"{kind} scheme {spec}: symplectic defect {sym:.3e}"
        for graph, report in graphs:
            problem = graph_problem(self.cs, db, self.grid, graph, report)
            if problem:
                return f"{kind} scheme {spec}: {problem}"
        problem = ladder_problem(self.cs, kind, graphs[0][1])
        if problem:
            return f"scheme {spec}: {problem}"
        if covariance.matrix.shape != sx.matrix.shape:
            return f"{kind} scheme {spec}: covariance shape {covariance.matrix.shape}"
        return None

    def task_search(self, index):
        scheme, target = self.searches[index]
        return self.cs.search_phases(
            scheme, target, self.SEARCH_POINTS, self.THRESHOLDS_DB[0], self.grid, self.device
        )

    def check_search(self, index, result):
        _, target = self.searches[index]
        if result.objective == 0:
            return f"search {index} reached its target, so it did not scan the full grid"
        achieved = result.graph.edge_pairs()
        if len(achieved ^ set(target)) != result.objective:
            return f"search {index}: objective {result.objective} disagrees with its graph"
        return None


class CliCold(Workload):
    """Fresh ``python -m combscatter.cli`` processes on configs the benchmark writes.

    A round runs every subcommand once, one invalid config, and the four
    one-second invocations a second time; before every second invocation, a
    side task starts the CLI for ``--help`` alone, which costs the
    interpreter start and the package imports.  Repeats of an invocation
    must reproduce its first output bytes.  The number of rounds follows
    from the requested seconds alone, so that every run has the same mix of
    invocations.

    Right before every invocation, after the start if there is one, the
    reference process runs: a fresh interpreter that imports the package's
    third-party dependencies and never the package.  With a reference
    before every second invocation only, the quartile spreads across five
    seeds were two to four times as wide.
    """

    name = "cli-cold"
    main_kind = "cli"
    side_kind = "start"
    # about one round (thirteen invocations, thirteen references and seven
    # starts) on a 2-CPU machine
    ROUND_SECONDS = 42.0
    REFERENCE = ("reference", REFERENCE_PROCESS, 0)
    REFERENCE_S = REFERENCE_PROCESS_S
    START = ("start", ["--help"], 0)
    # Run twice in every round, so that every run checks repeats and the
    # median invocation falls among these rather than on the edge between
    # them and the heavy ones.
    REPEATED = ("predict-idlers", "simulate", "graph", "covariance")

    def setup(self):
        self.inputs = cli_inputs(self.seed)
        self.dir = self.workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        files = {"config.yaml": "config", "invalid.yaml": "invalid", "target.json": "target"}
        for filename, key in files.items():
            (self.dir / filename).write_text(self.inputs[key])
        self.peak_rss_kb = 0
        self.references: dict[str, dict[str, str]] = {}
        self.child_spans: list[tuple[int, list]] = []
        self.child_imports: list[dict[str, float]] = []
        self.round_specs = self.round_plan()
        # compile and page in the package before the first timed process
        subprocess.run(
            [sys.executable, "-m", "combscatter.cli", "--help"],
            stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True,
        )

    def round_plan(self):
        """(name, argv, expected exit code) of each invocation of a round."""
        d = self.dir
        cfg, cmb = str(d / "config.yaml"), str(d / "simulate" / "s_matrix.cmb")
        plan = [
            ("predict-idlers", ["predict-idlers", cfg], 0),
            ("simulate", ["simulate", cfg], 0),
            ("graph", ["graph", cfg, "--data", cmb], 0),
            ("covariance", ["covariance", cfg], 0),
            ("sample-covariance", ["sample-covariance", cfg], 0),
            ("sweep-phase", ["sweep-phase", cfg], 0),
            ("search-phases", ["search-phases", cfg, "--target", str(d / "target.json")], 0),
            ("fit", ["fit", cfg, "--data", cmb], 0),
            ("invalid-config", ["simulate", str(d / "invalid.yaml")], 2),
        ]
        return [(name, argv + ["--out-dir", str(d / name)], code) for name, argv, code in plan]

    def round_tasks(self, seconds):
        rounds = max(1, round(seconds / self.ROUND_SECONDS))
        specs = self.round_specs + [s for s in self.round_specs if s[0] in self.REPEATED]
        one = []
        for k, spec in enumerate(specs):
            if k % 2 == 0:
                one.append((self.side_kind, self.START))
            one.append((self.main_kind, spec))
        return one * rounds

    def loop(self, seconds):
        records = []
        for kind, spec in self.round_tasks(seconds):
            records += self.referenced(kind, spec) if kind == self.main_kind else [self.run(kind, spec)]
        scale(records, self.REFERENCE_S)
        return records

    def plan(self, seconds):
        return [], self.round_tasks(seconds)

    def subcommand_seconds(self, records):
        return {
            f"cli.{name}_s": common.median(_seconds(records, lambda r, n=name: r.spec[0] == n))
            for name, _, _ in self.round_specs
        }

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024.0

    def attach(self, tracer):
        self.tracer = tracer

    def spans(self):
        return tracing.merge(self.child_spans)

    def import_seconds(self):
        runs = self.child_imports
        return {key: common.median([r[key] for r in runs]) for key in common.IMPORT_METRICS}

    def prepare_cli(self, spec):
        # every output checked below comes from the invocation being checked
        shutil.rmtree(self.dir / spec[0], ignore_errors=True)

    def task_start(self, spec):
        return self.task_cli(spec)

    def check_start(self, spec, out):
        return self.check_cli(spec, out)

    def task_reference(self, spec):
        name, argv, _ = spec
        return self._spawn(name, [sys.executable, *argv])[0]

    def check_reference(self, spec, code):
        stderr = (self.dir / f"{spec[0]}.stderr").read_text()
        if code != 0 or stderr:
            return f"reference process: exit code {code}, stderr {stderr[-200:]!r}"
        return None

    def task_cli(self, spec):
        name, argv, _ = spec
        # A traced run times both sides through the same entry script under
        # -X importtime; they differ only in whether spans are recorded.
        importtime = self.tracer is not None
        traced = self.tracing()
        if not importtime:
            command = [sys.executable, "-m", "combscatter.cli", *argv]
        else:
            spans_path = str(self.dir / f"{name}.spans.json") if traced else "-"
            command = [sys.executable, "-X", "importtime", str(TRACE_CHILD), spans_path, *argv]
        code, usage = self._spawn(name, command)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return code, importtime, traced

    def _spawn(self, name, command):
        """Run one child to its end; its exit code and resource usage."""
        with open(self.dir / f"{name}.stdout", "wb") as out, open(self.dir / f"{name}.stderr", "wb") as err:
            proc = subprocess.Popen(command, stdout=out, stderr=err, cwd=self.dir)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def check_cli(self, spec, out):
        name, _, expected = spec
        code, importtime, traced = out
        lines = (self.dir / f"{name}.stderr").read_text().splitlines()
        if importtime:
            self.child_imports.append(parse_importtime(lines))
        if traced:
            spans_path = self.dir / f"{name}.spans.json"
            if spans_path.exists():
                self.child_spans.append((self._task, json.loads(spans_path.read_text())["spans"]))
                spans_path.unlink()
        stderr = [line for line in lines if not line.startswith("import time:")]
        if code != expected:
            return f"{name}: exit code {code}, expected {expected}; stderr {stderr[-1:]}"
        out_dir = self.dir / name
        if expected != 0:
            try:
                detail = json.loads(stderr[-1]) if stderr else {}
            except json.JSONDecodeError:
                return f"{name}: stderr is not JSON: {stderr[-1]!r}"
            if detail.get("error") != "validation" or not any(
                "port_coupling" in issue for issue in detail.get("issues", ())
            ):
                return f"{name}: unexpected error report {detail}"
            if out_dir.exists() and any(out_dir.iterdir()):
                return f"{name}: wrote outputs although it failed"
            return None
        if stderr:
            return f"{name}: unexpected stderr {stderr[:2]}"
        stdout = (self.dir / f"{name}.stdout").read_text()
        if name == self.START[0]:
            return None if stdout.startswith("usage:") else f"--help: unexpected stdout {stdout[:80]!r}"
        if not stdout.startswith(spec[1][0] + ":"):
            return f"{name}: unexpected stdout {stdout[:80]!r}"
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())
        }
        reference = self.references.setdefault(name, digests)
        if digests != reference:
            return f"{name}: outputs differ from the first run of the same invocation"
        if name == "graph":
            if (out_dir / "topology.json").read_bytes() != (self.dir / "simulate" / "topology.json").read_bytes():
                return "graph --data topology differs from simulate's"
        elif name == "fit":
            ratio = json.loads((out_dir / "fit.json").read_text())["ridge_ratio"]
            error = abs(ratio - self.inputs["ratio"]) / self.inputs["ratio"]
            if error >= RIDGE_TOL:
                return f"fit ridge ratio {ratio}, {error:.2%} from {self.inputs['ratio']}"
        elif name == "search-phases":
            result = json.loads((out_dir / "phase_search.json").read_text())
            if result["objective_edge_difference"] == 0:
                return "search-phases reached its target, so it did not scan the full grid"
        return None


WORKLOADS = {w.name: w for w in (SchemeScan, TopologyCensus, CliCold)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
