"""Spans around calls into combscatter's public functions, recorded from outside.

``Tracer.install`` replaces each listed function, in its defining module and
in every package module that imported it by name, with a wrapper that
records a span: id, parent id, task id, name, start, end, whether it
returned, and for solves the matrix dimension.  Start and end are read from
the process's CPU clock, the clock of the end-to-end timings.  Spans stay in
memory until ``dump`` writes them out.  Only the standard library is used, so that a
traced child interpreter measures the package's own import cost; modules
beyond ``sys`` and ``time`` are imported where they are used, after the
package has loaded.
"""

import sys
import time

PACKAGE = "combscatter"

# The layers whose calls, total and self time a traced run reports.
LAYERS = (
    "model.resolve_couplings",
    "scattering.assemble_system",
    "scattering.scattering_matrix",
    "scattering.pump_off_scattering",
    "scattering.normalize_pump_off",
    "graphs.extract_graph",
    "graphs.topology_report",
    "gaussian.to_quadrature",
    "gaussian.propagate_covariance",
    "gaussian.symplectic_defect",
    "gaussian.sample_covariance",
    "analysis.phase_sweep",
    "analysis.fit_parameters",
    "analysis.search_phases",
    "config.parse_config",
    "datafiles.save_scattering",
    "datafiles.load_scattering_data",
    "cli.main",
)
SOLVE = "scattering.scattering_matrix"
SIMULATE = "scattering.simulate_scattering"
FIT = "analysis.fit_parameters"
# Spanned so that fit evaluations can be counted, but not reported as a layer.
TRACED = LAYERS + (SIMULATE,)

# Real floating-point operations of a dense complex LU (8/3 n^3) plus the
# full inverse from it (8 n^3), as the current solver performs them.
SOLVE_FLOPS_PER_CUBE = 32.0 / 3.0

# Span record fields.
ID, PARENT, TASK, NAME, START, END, OK, DIM = range(8)


def _solve_dim(args, kwargs):
    system = args[0] if args else kwargs["system"]
    return int(system.matrix.shape[0])


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = -1
        self.active = True
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        import functools

        dim_of = _solve_dim if name == SOLVE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            dim = dim_of(args, kwargs) if dim_of else 0
            record = [sid, parent, self.task, name, time.process_time_ns(), 0, False, dim]
            self.spans.append(record)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                record[OK] = True
                return result
            finally:
                record[END] = time.process_time_ns()
                self._stack.pop()

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self) -> int:
        """Wrap every traced function in every loaded package module.

        Returns the number of module attributes replaced.  Functions of
        modules that are not loaded (the CLI, in-process) are left alone.
        """
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        replaced = 0
        for qualified in TRACED:
            module_name, func_name = qualified.split(".")
            defining = sys.modules.get(f"{PACKAGE}.{module_name}")
            if defining is None:
                continue
            original = getattr(defining, func_name)
            if getattr(original, "__wrapped_by_tracer__", False):
                continue
            wrapper = self.wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced += 1
        return replaced

    def paused(self):
        """Record nothing inside the block (used around output checks)."""
        return _Paused(self)

    def dump(self, path, **meta) -> None:
        dump(path, self.spans, **meta)


class _Paused:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        self.previous, self.tracer.active = self.tracer.active, False

    def __exit__(self, *exc):
        self.tracer.active = self.previous


def dump(path, spans, **meta) -> None:
    """Write spans as JSON: field names, the given metadata, then the spans."""
    import json

    doc = {"fields": ["id", "parent", "task", "name", "start_cpu_ns", "end_cpu_ns", "ok", "dim"]}
    doc.update(meta)
    doc["spans"] = spans
    with open(path, "w") as out:
        json.dump(doc, out)


def merge(span_lists) -> list[list]:
    """Concatenate span lists from several processes, renumbering ids."""
    merged: list[list] = []
    for task, spans in span_lists:
        offset = len(merged)
        for span in spans:
            copy = list(span)
            copy[ID] += offset
            if copy[PARENT] >= 0:
                copy[PARENT] += offset
            copy[TASK] = task
            merged.append(copy)
    return merged


def self_times_ns(spans) -> dict[int, int]:
    """Self time of each span: its duration minus what its children cover.

    Children's intervals are clipped to the parent and merged, so
    overlapping children are not subtracted twice.
    """
    from collections import defaultdict

    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered, cursor = 0, start
        for child_start, child_end in sorted(children.get(span[ID], ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span[ID]] = (end - start) - covered
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer calls, total and self seconds, plus the solver and fit counts."""
    selfs = self_times_ns(spans)
    by_id = {span[ID]: span for span in spans}
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        mine = [span for span in spans if span[NAME] == layer]
        metrics[f"{layer}.calls"] = len(mine)
        metrics[f"{layer}.total_s"] = sum(span[END] - span[START] for span in mine) / 1e9
        metrics[f"{layer}.self_s"] = sum(selfs[span[ID]] for span in mine) / 1e9

    solves = [span for span in spans if span[NAME] == SOLVE]
    metrics[f"{SOLVE}.dim_max"] = max((span[DIM] for span in solves), default=0)
    metrics[f"{SOLVE}.flops_computed"] = sum(
        SOLVE_FLOPS_PER_CUBE * span[DIM] ** 3 for span in solves
    )
    metrics[f"{SOLVE}.useful_ratio"] = (
        sum(1 for span in solves if span[OK]) / len(solves) if solves else 0.0
    )

    def under_fit(span) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            ancestor = by_id[parent]
            if ancestor[NAME] == FIT:
                return True
            parent = ancestor[PARENT]
        return False

    fits = metrics[f"{FIT}.calls"]
    evals = sum(1 for span in spans if span[NAME] == SIMULATE and under_fit(span))
    metrics[f"{FIT}.evals"] = evals / fits if fits else 0.0
    return metrics
