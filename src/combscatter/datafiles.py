"""File formats: the native matrix container, CSV interchange, and reports.

The native container is a small self-describing binary: a fixed header
(magic, version, mode count, grid spacing and center, basis tag,
normalization tag) followed by the matrix payload as row-major float64
(re, im) pairs.  Generic CSV carries one complex entry per cell and always
requires an explicit JSON sidecar for the grid metadata and normalization
flag; the loader never guesses.  Text outputs embed the tool version and
the config hash so every file is traceable to what produced it.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import CSV_FORMAT, NATIVE_FORMAT
from .errors import DataFormatError, InvalidArgumentError
from .model import ModeGrid
from .scattering import Normalization, ScatteringMatrix

if TYPE_CHECKING:
    from .graphs import CorrelationGraph, TopologyReport

MAGIC = b"CMBSCAT1"
FORMAT_VERSION = 1
BASIS_TAG = "interleaved"
_HEADER = struct.Struct("<8sII dd 16s16s")

# wire names fit the fixed 16-byte header field
_NORMALIZATION_TAGS = {
    Normalization.RAW: "raw",
    Normalization.PUMP_OFF_RELATIVE: "pump_off_rel",
}
_TAGS_TO_NORMALIZATION = {tag: norm for norm, tag in _NORMALIZATION_TAGS.items()}


def _pad_tag(tag: str) -> bytes:
    raw = tag.encode("ascii")
    if len(raw) > 16:
        raise DataFormatError(f"tag {tag!r} longer than 16 bytes")
    return raw.ljust(16, b"\x00")


def save_scattering(path, smat: ScatteringMatrix) -> None:
    """Write a scattering matrix to the native container."""
    n = smat.grid.n_modes
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        n,
        smat.grid.spacing,
        smat.grid.center_frequency,
        _pad_tag(BASIS_TAG),
        _pad_tag(_NORMALIZATION_TAGS[smat.normalization]),
    )
    payload = np.ascontiguousarray(smat.matrix, dtype=complex).view(np.float64)
    Path(path).write_bytes(header + payload.tobytes())


def load_scattering(path) -> ScatteringMatrix:
    """Read a scattering matrix from the native container."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise DataFormatError("file too short for native container header")
    magic, version, n, spacing, center, basis_raw, norm_raw = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise DataFormatError(f"bad magic {magic!r}; not a native container")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported container version {version}")
    basis = basis_raw.rstrip(b"\x00").decode("ascii", "replace")
    if basis != BASIS_TAG:
        raise DataFormatError(
            f"basis tag {basis!r} not supported; convert to {BASIS_TAG!r} first"
        )
    norm_tag = norm_raw.rstrip(b"\x00").decode("ascii", "replace")
    if norm_tag not in _TAGS_TO_NORMALIZATION:
        raise DataFormatError(f"unknown normalization tag {norm_tag!r}")
    normalization = _TAGS_TO_NORMALIZATION[norm_tag]
    if n < 1 or n % 2 == 0:
        raise DataFormatError(f"mode count {n} must be odd and positive")
    expected = _HEADER.size + 2 * (2 * n) * (2 * n) * 8
    if len(blob) != expected:
        raise DataFormatError(f"payload size mismatch: {len(blob)} bytes, expected {expected}")
    matrix = np.frombuffer(blob, dtype=complex, offset=_HEADER.size).reshape(2 * n, 2 * n)
    if not np.all(np.isfinite(matrix.view(np.float64))):
        raise DataFormatError("matrix contains non-finite entries")
    try:
        grid = ModeGrid(center_frequency=center, spacing=spacing, half_span=(n - 1) // 2)
    except InvalidArgumentError as exc:
        raise DataFormatError(f"header grid: {exc}") from exc
    return ScatteringMatrix(matrix=matrix.copy(), grid=grid, normalization=normalization)


def _complex_repr(z: complex) -> str:
    return repr(complex(z)).strip("()")


def sidecar_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.name + ".meta.json")


def save_scattering_csv(path, smat: ScatteringMatrix) -> None:
    """Write a scattering matrix as CSV plus its JSON metadata sidecar."""
    rows = [
        ",".join(_complex_repr(z) for z in row) for row in np.asarray(smat.matrix)
    ]
    Path(path).write_text("\n".join(rows) + "\n")
    meta = {
        "basis": BASIS_TAG,
        "center_hz": smat.grid.center_frequency / (2.0 * np.pi),
        "n_modes": smat.grid.n_modes,
        "normalization": _NORMALIZATION_TAGS[smat.normalization],
        "spacing_hz": smat.grid.spacing / (2.0 * np.pi),
    }
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_scattering_csv(path, sidecar=None) -> ScatteringMatrix:
    """Read a generic CSV matrix; the sidecar metadata file is mandatory."""
    meta_path = Path(sidecar) if sidecar is not None else sidecar_path(path)
    if not meta_path.exists():
        raise DataFormatError(
            f"generic CSV requires a metadata sidecar; {meta_path} not found"
        )
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"sidecar is not valid JSON: {exc}") from exc
    for key in ("basis", "center_hz", "n_modes", "normalization", "spacing_hz"):
        if key not in meta:
            raise DataFormatError(f"sidecar missing required key {key!r}")
    if meta["basis"] != BASIS_TAG:
        raise DataFormatError(
            f"basis tag {meta['basis']!r} not supported; convert to {BASIS_TAG!r} first"
        )
    if meta["normalization"] not in _TAGS_TO_NORMALIZATION:
        raise DataFormatError(f"unknown normalization tag {meta['normalization']!r}")
    normalization = _TAGS_TO_NORMALIZATION[meta["normalization"]]
    n = meta["n_modes"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1 or n % 2 == 0:
        raise DataFormatError(f"mode count {n!r} must be odd and positive")
    for key in ("center_hz", "spacing_hz"):
        if isinstance(meta[key], bool) or not isinstance(meta[key], (int, float)):
            raise DataFormatError(f"sidecar {key} {meta[key]!r} must be a number")
    try:
        grid = ModeGrid(
            center_frequency=2.0 * np.pi * meta["center_hz"],
            spacing=2.0 * np.pi * meta["spacing_hz"],
            half_span=(n - 1) // 2,
        )
    except (InvalidArgumentError, OverflowError) as exc:
        raise DataFormatError(f"sidecar grid: {exc}") from exc
    dim = 2 * n
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != dim:
            raise DataFormatError(
                f"line {lineno}: expected {dim} columns, found {len(cells)}"
            )
        try:
            rows.append([complex(c.strip()) for c in cells])
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: bad complex entry ({exc})") from exc
    if len(rows) != dim:
        raise DataFormatError(f"expected {dim} rows, found {len(rows)}")
    matrix = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(matrix.view(np.float64))):
        raise DataFormatError("matrix contains non-finite entries")
    return ScatteringMatrix(matrix=matrix, grid=grid, normalization=normalization)


def load_scattering_data(path, format: str) -> ScatteringMatrix:
    """Load measured or simulated scattering data in a declared format."""
    if format == NATIVE_FORMAT:
        return load_scattering(path)
    if format == CSV_FORMAT:
        return load_scattering_csv(path)
    raise DataFormatError(
        f"unknown format {format!r}; use {NATIVE_FORMAT!r} or {CSV_FORMAT!r}"
    )


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {key}: {meta[key]}" for key in sorted(meta)]


def _slot_labels(grid: ModeGrid) -> list[str]:
    labels = []
    for j in grid.indices:
        labels.append(f"a[{j}]")
        labels.append(f"a*[{j}]")
    return labels


def write_db_matrix_csv(path, db_matrix: np.ndarray, grid: ModeGrid, meta: dict) -> None:
    """dB matrix as CSV with slot labels on both axes and a comment header."""
    labels = _slot_labels(grid)
    lines = _meta_lines(meta)
    lines.append("row\\col," + ",".join(labels))
    for label, row in zip(labels, np.asarray(db_matrix)):
        lines.append(label + "," + ",".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_covariance_csv(path, v: np.ndarray, grid: ModeGrid, meta: dict) -> None:
    """Quadrature covariance as CSV with x/p labels."""
    labels = []
    for j in grid.indices:
        labels.append(f"x[{j}]")
        labels.append(f"p[{j}]")
    lines = _meta_lines(meta)
    lines.append("row\\col," + ",".join(labels))
    for label, row in zip(labels, np.asarray(v)):
        lines.append(label + "," + ",".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_csv(path, result, meta: dict) -> None:
    """Phase sweep as CSV: one row per phase, one column per track."""
    lines = _meta_lines(meta)
    lines.append("phase_rad," + ",".join(t.label for t in result.tracks))
    for step, phase in enumerate(result.phases):
        cells = [repr(float(phase))]
        cells += [repr(float(t.magnitudes_db[step])) for t in result.tracks]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def topology_report_dict(graph: CorrelationGraph, report: TopologyReport) -> dict:
    return {
        "threshold_db": graph.threshold_db,
        "edge_count": len(graph.edges),
        "components": [
            {
                "nodes": list(comp),
                "label": report.labels[idx].value if idx < len(report.labels) else None,
                "rungs": [list(r) for r in report.ladder_rungs[idx]]
                if idx < len(report.ladder_rungs)
                else [],
            }
            for idx, comp in enumerate(report.components)
        ],
        "edges": [[e.i, e.j, e.weight_db] for e in graph.edges],
        "self_loops": [[i, w] for i, w in graph.self_loops],
    }


def write_json(path, payload: dict, meta: dict) -> None:
    """JSON report with stable key ordering and embedded provenance."""
    body = dict(payload)
    body["meta"] = {str(k): meta[k] for k in sorted(meta)}
    Path(path).write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")
