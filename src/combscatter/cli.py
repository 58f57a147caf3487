"""Command-line interface.

Every subcommand reads a config (a file path or the name of a bundled
config), optionally a data file, and writes deterministic outputs into
``--out-dir``.  Exit codes are a stable contract: 0 success, 2 validation
failure, 3 above the oscillation threshold, 4 I/O or data-format failure.
Failures emit a machine-readable JSON line on stderr.  Each subcommand
imports the modules it uses when it runs, so ``--help`` and a rejected
command line load none of numpy, networkx or PyYAML.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import CSV_FORMAT, NATIVE_FORMAT, __version__
from .errors import (
    AboveThresholdError,
    CombScatterError,
    ConfigError,
    DataFormatError,
    InvalidArgumentError,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig

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
    """Map a pump label (-1/0/1 style) to its position in the scheme."""
    order = sorted(range(len(scheme.tones)), key=lambda i: scheme.tones[i].offset)
    count = len(order)
    if count == 0:
        raise InvalidArgumentError("scheme has no tones")
    labels: dict[int, int]
    if count == 1:
        labels = {0: order[0]}
    elif count == 2:
        labels = {-1: order[0], 1: order[1]}
    elif count == 3:
        labels = {-1: order[0], 0: order[1], 1: order[2]}
    else:
        labels = {i: pos for i, pos in enumerate(order)}
    if label not in labels:
        raise InvalidArgumentError(
            f"tone label {label} not valid for a {count}-tone scheme "
            f"(valid: {sorted(labels)})"
        )
    return labels[label]


def _load_config(args) -> ExperimentConfig:
    from .config import bundled_config_path, parse_config

    name = args.config
    if name is None:
        raise InvalidArgumentError("no config given")
    path = Path(name)
    if not path.exists():
        try:
            path = bundled_config_path(name)
        except ConfigError:
            raise DataFormatError(f"config file {name!r} not found") from None
    return parse_config(Path(path).read_text())


def _scheme(config: ExperimentConfig, args):
    """The config's scheme with the phase flags applied."""
    scheme = config.to_scheme()
    for flag, label in _PHASE_FLAGS.items():
        raw = getattr(args, flag)
        if raw is not None:
            scheme = scheme.with_phase(_tone_position(scheme, label), _parse_phase(raw))
    return scheme


def _setting(config: ExperimentConfig, args, name: str):
    """A flag's value, or the config's ``run`` value when the flag is absent."""
    value = getattr(args, name)
    return getattr(config.run, name) if value is None else value


def _seed(config: ExperimentConfig, args) -> int:
    seed = _setting(config, args, "seed")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
    return seed


def _meta(config: ExperimentConfig, seed=None) -> dict:
    from .config import serialize_config

    digest = hashlib.sha256(serialize_config(config).encode()).hexdigest()
    meta = {"tool": "combscatter", "version": __version__, "config_sha256": digest}
    if seed is not None:
        meta["seed"] = seed
    return meta


def _out(args, name: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _cmd_simulate(config: ExperimentConfig, args) -> int:
    from .datafiles import save_scattering, topology_report_dict, write_db_matrix_csv, write_json
    from .graphs import export_dot, extract_graph, topology_report
    from .scattering import normalize_pump_off, pump_off_scattering, simulate_scattering

    scheme = _scheme(config, args)
    threshold, seed = _setting(config, args, "threshold_db"), _seed(config, args)
    grid, params = config.to_mode_grid(), config.to_device_params()
    s_on = simulate_scattering(grid, params, scheme)
    s_off = pump_off_scattering(grid, params)
    db = normalize_pump_off(s_on, s_off)
    graph = extract_graph(db, grid, threshold)
    report = topology_report(graph)
    meta = _meta(config, seed)
    save_scattering(_out(args, "s_matrix.cmb"), s_on)
    write_db_matrix_csv(_out(args, "db_matrix.csv"), db, grid, meta)
    _out(args, "graph.gv").write_text(export_dot(graph, report))
    write_json(_out(args, "topology.json"), topology_report_dict(graph, report), meta)
    labels = ",".join(label.value for label in report.labels)
    print(
        f"simulate: {grid.n_modes} modes, condition {s_on.condition_estimate:.3e}, "
        f"{len(report.components)} components [{labels}]"
    )
    return EXIT_OK


def _cmd_graph(config: ExperimentConfig, args) -> int:
    from .datafiles import load_scattering_data, topology_report_dict, write_json
    from .graphs import export_dot, extract_graph, topology_report
    from .scattering import (
        Normalization,
        magnitude_db,
        normalize_pump_off,
        pump_off_scattering,
        simulate_scattering,
    )

    scheme = _scheme(config, args)
    threshold, seed = _setting(config, args, "threshold_db"), _seed(config, args)
    grid, params = config.to_mode_grid(), config.to_device_params()
    if args.data:
        smat = load_scattering_data(args.data, args.format)
        if smat.grid.n_modes != grid.n_modes:
            raise DataFormatError(
                f"data has {smat.grid.n_modes} modes but config grid has {grid.n_modes}"
            )
        if smat.normalization is Normalization.PUMP_OFF_RELATIVE:
            db = magnitude_db(smat.matrix)
        else:
            db = normalize_pump_off(smat, pump_off_scattering(grid, params))
    else:
        db = normalize_pump_off(
            simulate_scattering(grid, params, scheme), pump_off_scattering(grid, params)
        )
    graph = extract_graph(db, grid, threshold)
    report = topology_report(graph)
    meta = _meta(config, seed)
    _out(args, "graph.gv").write_text(export_dot(graph, report))
    write_json(_out(args, "topology.json"), topology_report_dict(graph, report), meta)
    print(f"graph: {len(graph.edges)} edges, {len(report.components)} components")
    return EXIT_OK


def _cmd_sweep_phase(config: ExperimentConfig, args) -> int:
    from .analysis import phase_sweep
    from .datafiles import write_sweep_csv

    scheme, seed = _scheme(config, args), _seed(config, args)
    steps, signal = _setting(config, args, "steps"), _setting(config, args, "signal_index")
    grid, params = config.to_mode_grid(), config.to_device_params()
    tone_label = args.tone if args.tone is not None else config.run.swept_tone
    position = _tone_position(scheme, tone_label)
    result = phase_sweep(scheme, position, steps, signal, grid, params)
    write_sweep_csv(_out(args, "sweep.csv"), result, _meta(config, seed))
    print(f"sweep-phase: tone {tone_label} over {steps} phases, {len(result.tracks)} tracks")
    return EXIT_OK


def _cmd_covariance(config: ExperimentConfig, args) -> int:
    from .datafiles import write_covariance_csv
    from .gaussian import propagate_covariance, symplectic_defect, to_quadrature, vacuum_covariance
    from .scattering import simulate_scattering

    scheme, seed = _scheme(config, args), _seed(config, args)
    grid, params = config.to_mode_grid(), config.to_device_params()
    sx = to_quadrature(simulate_scattering(grid, params, scheme))
    v_out = propagate_covariance(sx, vacuum_covariance(grid))
    meta = _meta(config, seed)
    meta["symplectic_defect"] = repr(symplectic_defect(sx))
    write_covariance_csv(_out(args, "covariance.csv"), v_out.matrix, grid, meta)
    print(f"covariance: analytic, defect {symplectic_defect(sx):.3e}")
    return EXIT_OK


def _cmd_sample_covariance(config: ExperimentConfig, args) -> int:
    from .datafiles import write_covariance_csv
    from .gaussian import sample_covariance, to_quadrature
    from .scattering import simulate_scattering

    scheme, seed = _scheme(config, args), _seed(config, args)
    samples = _setting(config, args, "samples")
    grid, params = config.to_mode_grid(), config.to_device_params()
    sx = to_quadrature(simulate_scattering(grid, params, scheme))
    v = sample_covariance(sx, samples, seed)
    meta = _meta(config, seed)
    meta["samples"] = samples
    write_covariance_csv(_out(args, "covariance_mc.csv"), v.matrix, grid, meta)
    print(f"sample-covariance: {samples} samples, seed {seed}")
    return EXIT_OK


def _cmd_fit(config: ExperimentConfig, args) -> int:
    from .analysis import fit_parameters
    from .datafiles import load_scattering_data, write_json

    if not args.data:
        raise InvalidArgumentError("fit requires --data")
    grid = config.to_mode_grid()
    scheme_shape = _scheme(config, args)
    measured = load_scattering_data(args.data, args.format)
    run = config.run
    result = fit_parameters(
        measured,
        grid,
        scheme_shape,
        (run.fit_g_min, run.fit_g_max),
        (run.fit_gamma_min.angular, run.fit_gamma_max.angular),
        run.fit_grid_points,
    )
    meta = _meta(config)
    payload = {
        "best_g": result.best_g,
        "best_gamma_rad_per_s": result.best_gamma,
        "best_gamma_hz": result.best_gamma / (2.0 * math.pi),
        "distance": result.distance,
        "ridge_ratio": result.ridge_ratio,
        "grid_points": int(result.surface.shape[0]),
    }
    write_json(_out(args, "fit.json"), payload, meta)
    lines = [f"# {k}: {v}" for k, v in sorted(meta.items())]
    lines.append("g\\gamma," + ",".join(repr(float(g)) for g in result.gamma_values))
    for g, row in zip(result.g_values, result.surface):
        lines.append(repr(float(g)) + "," + ",".join(repr(float(d)) for d in row))
    _out(args, "fit_surface.csv").write_text("\n".join(lines) + "\n")
    print(f"fit: ridge ratio {result.ridge_ratio:.5f}, distance {result.distance:.3e}")
    return EXIT_OK


def _cmd_search_phases(config: ExperimentConfig, args) -> int:
    from .analysis import search_phases
    from .datafiles import topology_report_dict, write_json

    scheme = _scheme(config, args)
    threshold, seed = _setting(config, args, "threshold_db"), _seed(config, args)
    grid, params = config.to_mode_grid(), config.to_device_params()
    if not args.target:
        raise InvalidArgumentError("search-phases requires --target")
    try:
        target_doc = json.loads(Path(args.target).read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"target file is not valid JSON: {exc}") from exc
    edges = target_doc.get("edges") if isinstance(target_doc, dict) else target_doc
    if not isinstance(edges, list):
        raise DataFormatError("target must be a JSON list of edges or have an 'edges' key")
    try:
        target = [(int(e[0]), int(e[1])) for e in edges]
    except (LookupError, TypeError, ValueError, OverflowError):
        raise DataFormatError("each target edge must start with two mode indices") from None
    points = _setting(config, args, "phase_grid_points")
    result = search_phases(scheme, target, points, threshold, grid, params)
    payload = {
        "best_phases_rad": list(result.best_phases),
        "objective_edge_difference": result.objective,
        "achieved": topology_report_dict(result.graph, result.report),
    }
    write_json(_out(args, "phase_search.json"), payload, _meta(config, seed))
    print(
        f"search-phases: objective {result.objective}, phases "
        + ",".join(f"{p:.4f}" for p in result.best_phases)
    )
    return EXIT_OK


def _cmd_predict_idlers(config: ExperimentConfig, args) -> int:
    from .datafiles import write_json
    from .model import predicted_intermod_indices

    signal = _setting(config, args, "signal_index")
    grid = config.to_mode_grid()
    prediction = predicted_intermod_indices(signal, config.to_scheme(), grid)
    payload = {
        "signal_index": signal,
        "second_order": list(prediction.second_order),
        "third_order": [[idx, count] for idx, count in prediction.third_order],
        "dropped_out_of_grid": prediction.dropped_out_of_grid,
    }
    write_json(_out(args, "idlers.json"), payload, _meta(config))
    print(
        f"predict-idlers: signal {signal} -> 2nd order {list(prediction.second_order)}, "
        f"3rd order {[idx for idx, _ in prediction.third_order]}"
    )
    return EXIT_OK


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
    "--tone": {"type": int},
    "--data": {},
    "--format": {"default": NATIVE_FORMAT, "choices": [NATIVE_FORMAT, CSV_FORMAT]},
    "--target": {},
    "--phase-grid-points": {"type": int},
}

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


def _fail(kind: str, exc: Exception, code: int) -> int:
    detail = {"error": kind, "message": str(exc)}
    if isinstance(exc, ConfigError):
        detail["issues"] = [str(i) for i in exc.issues]
    if isinstance(exc, AboveThresholdError) and exc.condition_estimate is not None:
        detail["condition_estimate"] = exc.condition_estimate
    print(json.dumps(detail, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.config is None:
            args.config = args.config_positional
        # the config loads before the command imports what it computes with
        return _COMMANDS[args.command][0](_load_config(args), args)
    except AboveThresholdError as exc:
        return _fail("above-threshold", exc, EXIT_ABOVE_THRESHOLD)
    except (ConfigError, InvalidArgumentError) as exc:
        return _fail("validation", exc, EXIT_VALIDATION)
    except (DataFormatError, OSError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError: a config, target or CSV file that is not UTF-8 text
        return _fail("io", exc, EXIT_IO)
    except CombScatterError as exc:
        return _fail("internal", exc, EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
