"""Command-line interface.

Every subcommand reads a config (a file path or the name of a bundled
config), optionally a data file, and writes deterministic outputs into
``--out-dir``.  Exit codes are a stable contract: 0 success, 2 validation
failure, 3 above the oscillation threshold, 4 I/O or data-format failure.
Failures emit one machine-readable JSON line on stderr, which carries the
warnings the run raised before it failed.  Each subcommand imports the
modules it uses when it runs, so ``--help`` and a rejected command line
load neither numpy nor PyYAML.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

from . import CSV_FORMAT, NATIVE_FORMAT, __version__
from .errors import (
    AboveThresholdError,
    CombScatterError,
    ConfigError,
    DataFormatError,
    InvalidArgumentError,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ABOVE_THRESHOLD = 3
EXIT_IO = 4

_PHASE_FLAGS = {"phase_minus1": -1, "phase0": 0, "phase1": 1}


def _parse_phase(text: str) -> float:
    value = text.strip()
    try:
        if value.endswith("deg"):
            return math.radians(float(value[:-3]))
        if value.endswith("rad"):
            return float(value[:-3])
    except ValueError:
        pass
    raise InvalidArgumentError(
        f"phase {text!r} needs a number and a 'deg' or 'rad' suffix (e.g. 180deg, 3.14rad)"
    )


def _tone_position(scheme, label: int) -> int:
    """Map a pump label to its position in the scheme.

    Labels count outward from the middle tone in offset order, so an odd
    count runs ``-h..h`` and an even count skips 0 (four tones: -2, -1, 1, 2).
    """
    order = sorted(range(len(scheme.tones)), key=lambda i: scheme.tones[i].offset)
    count = len(order)
    if count == 0:
        raise InvalidArgumentError("scheme has no tones")
    half = count // 2
    labels = dict(zip([k for k in range(-half, half + 1) if k or count % 2], order))
    if label not in labels:
        raise InvalidArgumentError(
            f"tone label {label} not valid for a {count}-tone scheme "
            f"(valid: {sorted(labels)})"
        )
    return labels[label]


class _Run:
    """One subcommand's inputs, read once from its parsed command line.

    The config, its scheme with the phase flags applied, its ``run``
    settings with every run flag folded in, the grid and the device.  Each
    run flag obeys the rule of the run setting it overrides, and all are
    checked in ``RunOptions`` field order before any ``--data`` or
    ``--target`` file is read.
    """

    def __init__(self, args):
        from dataclasses import fields, replace

        from .config import RunOptions, bundled_config_path, parse_config, run_problem

        self.args = args
        name = args.config if args.config is not None else args.config_positional
        if name is None:
            raise InvalidArgumentError("no config given")
        path = Path(name)
        if not path.exists():
            try:
                path = bundled_config_path(name)
            except ConfigError:
                raise DataFormatError(f"config file {name!r} not found") from None
        self.config = parse_config(Path(path).read_text())
        self.scheme = self.config.to_scheme()
        for flag, label in _PHASE_FLAGS.items():
            raw = getattr(args, flag, None)
            if raw is not None:
                position = _tone_position(self.scheme, label)
                self.scheme = self.scheme.with_phase(position, _parse_phase(raw))
        flags = {}
        for setting in fields(RunOptions):
            value = getattr(args, setting.name, None)
            if value is not None:
                problem = run_problem(setting.name, value)
                if problem is not None:
                    raise InvalidArgumentError(f"{_FLAG_OF[setting.name]} {problem}")
                flags[setting.name] = value
        self.settings = replace(self.config.run, **flags)
        self.grid = self.config.to_mode_grid()
        self.params = self.config.to_device_params()

    def meta(self, **extra) -> dict:
        """The provenance every output embeds, with ``extra`` added."""
        from .config import serialize_config

        digest = hashlib.sha256(serialize_config(self.config).encode()).hexdigest()
        return {"tool": "combscatter", "version": __version__, "config_sha256": digest, **extra}

    def out(self, name: str) -> Path:
        out_dir = Path(self.args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir / name

    def data(self):
        """The ``--data`` matrix, which must lie on exactly the config's grid."""
        from .datafiles import load_scattering_data

        smat = load_scattering_data(self.args.data, self.args.format)
        if smat.grid != self.grid:
            raise DataFormatError(
                f"data grid ({_describe_grid(smat.grid)}) differs from "
                f"config grid ({_describe_grid(self.grid)})"
            )
        return smat


def _describe_grid(grid) -> str:
    """Mode count, center and spacing of a grid, in Hz."""
    center, spacing = (f / (2.0 * math.pi) for f in (grid.center_frequency, grid.spacing))
    return f"{grid.n_modes} modes, center {center!r} Hz, spacing {spacing!r} Hz"


def _write_mode_table(run: _Run, name: str, parts: tuple[str, str], matrix, meta: dict) -> None:
    """A 2n x 2n table whose rows and columns are the interleaved slots, two per mode."""
    from .datafiles import write_table

    slots = [f"{part}[{j}]" for j in run.grid.indices for part in parts]
    write_table(run.out(name), "row\\col", slots, slots, matrix, meta)


def _write_graph(run: _Run, db):
    """Threshold ``db`` into a graph; write ``graph.gv`` and ``topology.json``."""
    from .datafiles import topology_report_dict, write_json
    from .graphs import export_dot, extract_graph, topology_report

    graph = extract_graph(db, run.grid, run.settings.threshold_db)
    report = topology_report(graph)
    run.out("graph.gv").write_text(export_dot(graph, report))
    meta = run.meta(seed=run.settings.seed)
    write_json(run.out("topology.json"), topology_report_dict(graph, report), meta)
    return graph, report


def _quadrature(run: _Run):
    """The run's scattering matrix in the quadrature basis."""
    from .gaussian import to_quadrature
    from .scattering import simulate_scattering

    return to_quadrature(simulate_scattering(run.grid, run.params, run.scheme))


def _cmd_simulate(run: _Run) -> None:
    from .datafiles import save_scattering
    from .scattering import magnitude_db, simulate_scattering

    s_on = simulate_scattering(run.grid, run.params, run.scheme)
    db = magnitude_db(s_on.matrix)
    _, report = _write_graph(run, db)
    save_scattering(run.out("s_matrix.cmb"), s_on)
    _write_mode_table(run, "db_matrix.csv", ("a", "a*"), db, run.meta(seed=run.settings.seed))
    labels = ",".join(label.value for label in report.labels)
    print(
        f"simulate: {run.grid.n_modes} modes, condition {s_on.condition_estimate:.3e}, "
        f"{len(report.components)} components [{labels}]"
    )


def _cmd_graph(run: _Run) -> None:
    from .scattering import magnitude_db, simulate_scattering

    # the model's pump-off reference is the all-pass 1, so data of either
    # normalization tag and the simulated matrix read alike
    smat = run.data() if run.args.data else simulate_scattering(run.grid, run.params, run.scheme)
    graph, report = _write_graph(run, magnitude_db(smat.matrix))
    print(f"graph: {len(graph.edges)} edges, {len(report.components)} components")


def _cmd_sweep_phase(run: _Run) -> None:
    from .analysis import phase_sweep
    from .datafiles import write_table

    s = run.settings
    position = _tone_position(run.scheme, s.swept_tone)
    result = phase_sweep(run.scheme, position, s.steps, s.signal_index, run.grid, run.params)
    tracks = result.tracks
    values = [[t.magnitudes_db[step] for t in tracks] for step in range(s.steps)]
    write_table(run.out("sweep.csv"), "phase_rad", [t.label for t in tracks], result.phases,
                values, run.meta(seed=s.seed, evaluated=result.evaluated))
    print(f"sweep-phase: tone {s.swept_tone} over {s.steps} phases, {len(tracks)} tracks")


def _cmd_covariance(run: _Run) -> None:
    from .gaussian import propagate_covariance, symplectic_defect, vacuum_covariance

    sx = _quadrature(run)
    v_out = propagate_covariance(sx, vacuum_covariance(run.grid))
    defect = symplectic_defect(sx)
    meta = run.meta(seed=run.settings.seed, symplectic_defect=repr(defect))
    _write_mode_table(run, "covariance.csv", ("x", "p"), v_out.matrix, meta)
    print(f"covariance: analytic, defect {defect:.3e}")


def _cmd_sample_covariance(run: _Run) -> None:
    from .gaussian import sample_covariance

    samples, seed = run.settings.samples, run.settings.seed
    v = sample_covariance(_quadrature(run), samples, seed)
    meta = run.meta(seed=seed, samples=samples)
    _write_mode_table(run, "covariance_mc.csv", ("x", "p"), v.matrix, meta)
    print(f"sample-covariance: {samples} samples, seed {seed}")


def _cmd_fit(run: _Run) -> None:
    from .analysis import fit_parameters
    from .datafiles import write_json, write_table

    if not run.args.data:
        raise InvalidArgumentError("fit requires --data")
    if run.params.resonance_frequency != run.grid.center_frequency:
        warnings.warn(
            "fit pins the model's resonance at the comb centre "
            f"({run.config.center.render()}); the config's device.resonance_frequency "
            f"({run.config.resonance_frequency.render()}) is not used"
        )
    measured = run.data()
    s = run.settings
    result = fit_parameters(
        measured,
        run.grid,
        run.scheme,
        (s.fit_g_min, s.fit_g_max),
        (s.fit_gamma_min.angular, s.fit_gamma_max.angular),
        s.fit_grid_points,
    )
    payload = {
        "best_g": result.best_g,
        "best_gamma_rad_per_s": result.best_gamma,
        "best_gamma_hz": result.best_gamma / (2.0 * math.pi),
        "distance": result.distance,
        "ridge_ratio": result.ridge_ratio,
        "grid_points": int(result.surface.shape[0]),
    }
    meta = run.meta(
        evaluations=result.evaluations,
        converged=result.converged,
        cells_above_threshold=result.cells_above_threshold,
        worst_condition=repr(result.worst_condition),
    )
    write_json(run.out("fit.json"), payload, meta)
    write_table(run.out("fit_surface.csv"), "g\\gamma", result.gamma_values, result.g_values,
                result.surface, run.meta())
    print(f"fit: ridge ratio {result.ridge_ratio:.5f}, distance {result.distance:.3e}")


def _cmd_search_phases(run: _Run) -> None:
    from .analysis import search_phases
    from .datafiles import topology_report_dict, write_json

    if not run.args.target:
        raise InvalidArgumentError("search-phases requires --target")
    text = Path(run.args.target).read_text()
    # ValueError: not JSON, or an integer past Python's digit limit (text that
    # is not UTF-8 fails in read_text, for main to report); RecursionError: nested too deep
    try:
        target_doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"target file is not valid JSON: {exc}") from exc
    edges = target_doc.get("edges") if isinstance(target_doc, dict) else target_doc
    if not isinstance(edges, list):
        raise DataFormatError("target must be a JSON list of edges or have an 'edges' key")
    # type(...) is int: JSON true, 1.5 and "3" are no mode index
    if not all(
        isinstance(e, list) and len(e) >= 2 and type(e[0]) is int and type(e[1]) is int
        for e in edges
    ):
        raise DataFormatError("each target edge must start with two JSON integers")
    target = [(e[0], e[1]) for e in edges]
    s = run.settings
    result = search_phases(
        run.scheme, target, s.phase_grid_points, s.threshold_db, run.grid, run.params
    )
    payload = {
        "best_phases_rad": list(result.best_phases),
        "objective_edge_difference": result.objective,
        "achieved": topology_report_dict(result.graph, result.report),
    }
    skipped = result.skipped_above_threshold
    meta = run.meta(seed=s.seed, evaluated=result.evaluated, skipped_above_threshold=skipped)
    write_json(run.out("phase_search.json"), payload, meta)
    print(
        f"search-phases: objective {result.objective}, phases "
        + ",".join(f"{p:.4f}" for p in result.best_phases)
    )


def _cmd_predict_idlers(run: _Run) -> None:
    from .datafiles import write_json
    from .model import predicted_intermod_indices

    signal = run.settings.signal_index
    prediction = predicted_intermod_indices(signal, run.scheme, run.grid)
    payload = {
        "signal_index": signal,
        "second_order": list(prediction.second_order),
        "third_order": [[idx, count] for idx, count in prediction.third_order],
        "dropped_out_of_grid": prediction.dropped_out_of_grid,
    }
    write_json(run.out("idlers.json"), payload, run.meta())
    print(
        f"predict-idlers: signal {signal} -> 2nd order {list(prediction.second_order)}, "
        f"3rd order {[idx for idx, _ in prediction.third_order]}"
    )


_PHASES = ("--phase1", "--phase0", "--phase-1")
_FLAGS = {
    "--seed": {"type": int},
    "--threshold-db": {"type": float},
    "--phase1": {},
    "--phase0": {},
    "--phase-1": {"dest": "phase_minus1"},
    "--steps": {"type": int},
    "--samples": {"type": int},
    "--signal-index": {"type": int},
    "--tone": {"type": int, "dest": "swept_tone"},
    "--data": {},
    "--format": {"default": NATIVE_FORMAT, "choices": [NATIVE_FORMAT, CSV_FORMAT]},
    "--target": {},
    "--phase-grid-points": {"type": int},
}
# the flag that sets each destination, for messages about its value
_FLAG_OF = {spec.get("dest", flag[2:].replace("-", "_")): flag for flag, spec in _FLAGS.items()}

# Each subcommand registers only the flags it reads, besides the config and
# --out-dir, so a flag another subcommand reads is rejected, not ignored.
_COMMANDS = {
    "simulate": (_cmd_simulate, ("--seed", "--threshold-db", *_PHASES)),
    "graph": (_cmd_graph, ("--seed", "--threshold-db", *_PHASES, "--data", "--format")),
    "sweep-phase": (
        _cmd_sweep_phase, ("--seed", *_PHASES, "--steps", "--signal-index", "--tone")
    ),
    "covariance": (_cmd_covariance, ("--seed", *_PHASES)),
    "sample-covariance": (_cmd_sample_covariance, ("--seed", *_PHASES, "--samples")),
    "fit": (_cmd_fit, (*_PHASES, "--data", "--format")),
    "search-phases": (
        _cmd_search_phases,
        ("--seed", "--threshold-db", *_PHASES, "--target", "--phase-grid-points"),
    ),
    "predict-idlers": (_cmd_predict_idlers, ("--signal-index",)),
}


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as a validation error, not usage text."""

    def error(self, message):
        raise InvalidArgumentError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="combscatter",
        description="Multi-pump parametric mode scattering simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("config_positional", nargs="?", default=None, metavar="CONFIG")
        p.add_argument("--config", default=None)
        p.add_argument("--out-dir", default=".")
        for flag, spec in _FLAGS.items():
            if flag in flags:
                p.add_argument(flag, **spec)
    return parser


def _fail(kind: str, exc: Exception, code: int, caught) -> int:
    detail = {"error": kind, "message": str(exc)}
    if isinstance(exc, ConfigError):
        detail["issues"] = [str(i) for i in exc.issues]
    if isinstance(exc, AboveThresholdError) and exc.condition_estimate is not None:
        # strict JSON has no Infinity or NaN; a singular block's estimate is inf
        estimate = exc.condition_estimate
        detail["condition_estimate"] = estimate if math.isfinite(estimate) else None
    if caught:
        detail["warnings"] = [str(w.message) for w in caught]
    print(json.dumps(detail, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    # warnings are held back: a failure reports them inside its one JSON
    # line, a success shows them as they would have been shown
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = _build_parser().parse_args(argv)
            # the config loads before the command imports what it computes with
            _COMMANDS[args.command][0](_Run(args))
        except AboveThresholdError as exc:
            return _fail("above-threshold", exc, EXIT_ABOVE_THRESHOLD, caught)
        except (ConfigError, InvalidArgumentError) as exc:
            return _fail("validation", exc, EXIT_VALIDATION, caught)
        except (DataFormatError, OSError, UnicodeDecodeError) as exc:
            # UnicodeDecodeError: a config, target or CSV file that is not UTF-8 text
            return _fail("io", exc, EXIT_IO, caught)
        except CombScatterError as exc:
            return _fail("internal", exc, EXIT_VALIDATION, caught)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
