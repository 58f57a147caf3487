"""File formats: the native matrix container, CSV interchange, and reports.

The native container is a small self-describing binary: a fixed header
(magic, version, mode count, grid spacing and center, basis tag,
normalization tag) followed by the matrix payload as row-major float64
(re, im) pairs and a CRC-32 of everything before it, so a truncated or
corrupted file is rejected rather than read as other numbers.  Generic CSV
carries one complex entry per cell and always requires an explicit JSON
sidecar for the grid metadata and normalization tag; the loader never
guesses.  A data file says which of the two it is: one that starts with
the container's magic is native, any other is CSV and needs its sidecar.
Both normalization tags, ``raw`` and ``pump_off_rel``, are validated and
read alike, since the model's pump-off reference is exactly 1; the package
writes ``raw``.  Text outputs embed the tool version and the config hash
so every file is traceable to what produced it.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataFormatError, InvalidArgumentError
from .model import ModeGrid
from .scattering import ScatteringMatrix

if TYPE_CHECKING:
    from .graphs import CorrelationGraph, TopologyReport

MAGIC = b"CMBSCAT1"
FORMAT_VERSION = 2
BASIS_TAG = "interleaved"
_HEADER = struct.Struct("<8sII dd 16s16s")
# trails version-2 files; version 1 had none and still loads
_CHECKSUM = struct.Struct("<I")

# the normalization tags a file may carry, read alike; the package writes "raw"
_NORMALIZATION_TAGS = ("raw", "pump_off_rel")
# the basis and normalization tags the package writes, as 16-byte header fields
_BASIS_FIELD, _RAW_FIELD = (tag.encode("ascii").ljust(16, b"\x00") for tag in (BASIS_TAG, "raw"))


def save_scattering(path, smat: ScatteringMatrix) -> None:
    """Write a scattering matrix to the native container."""
    n = smat.grid.n_modes
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        n,
        smat.grid.spacing,
        smat.grid.center_frequency,
        _BASIS_FIELD,
        _RAW_FIELD,
    )
    blob = header + np.ascontiguousarray(smat.matrix, dtype=complex).tobytes()
    Path(path).write_bytes(blob + _CHECKSUM.pack(zlib.crc32(blob)))


def load_scattering(path) -> ScatteringMatrix:
    """Read a scattering matrix from the native container."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise DataFormatError("file too short for native container header")
    magic, version, n, spacing, center, basis_raw, norm_raw = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise DataFormatError(f"bad magic {magic!r}; not a native container")
    if version not in (1, FORMAT_VERSION):
        raise DataFormatError(f"unsupported container version {version}")
    trailer = _CHECKSUM.size if version == FORMAT_VERSION else 0
    basis, tag = (raw.rstrip(b"\x00").decode("ascii", "replace") for raw in (basis_raw, norm_raw))
    grid = _described_grid("header", basis, tag, n, center, spacing)
    expected = _HEADER.size + 2 * (2 * n) * (2 * n) * 8 + trailer
    if len(blob) != expected:
        raise DataFormatError(f"payload size mismatch: {len(blob)} bytes, expected {expected}")
    matrix = np.frombuffer(
        blob, dtype=complex, count=(2 * n) ** 2, offset=_HEADER.size
    ).reshape(2 * n, 2 * n)
    if trailer:
        (stored,) = _CHECKSUM.unpack_from(blob, expected - trailer)
        if stored != zlib.crc32(memoryview(blob)[: expected - trailer]):
            raise DataFormatError("checksum mismatch: the file is corrupted")
    # the type copies the file buffer's read-only view into an array of its own
    return _admitted(matrix, grid)


def _described_grid(source, basis, tag, n, center, spacing, to_angular=1.0) -> ModeGrid:
    """The grid a file's ``source`` ("header" or "sidecar") describes.

    The basis and normalization tags must be ones the package reads, and
    the mode count an odd positive integer; ``center`` and ``spacing``,
    times ``to_angular``, are the grid's angular frequencies.
    """
    if basis != BASIS_TAG:
        raise DataFormatError(f"basis tag {basis!r} not supported; convert to {BASIS_TAG!r} first")
    if not isinstance(tag, str) or tag not in _NORMALIZATION_TAGS:
        raise DataFormatError(f"unknown normalization tag {tag!r}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1 or n % 2 == 0:
        raise DataFormatError(f"mode count {n!r} must be odd and positive")
    # OverflowError: an integer sidecar frequency past the float range
    try:
        return ModeGrid(to_angular * center, to_angular * spacing, (n - 1) // 2)
    except (InvalidArgumentError, OverflowError) as exc:
        raise DataFormatError(f"{source} grid: {exc}") from exc


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
        "normalization": "raw",
        "spacing_hz": smat.grid.spacing / (2.0 * np.pi),
    }
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_scattering_csv(path) -> ScatteringMatrix:
    """Read a generic CSV matrix; its sidecar metadata file is mandatory."""
    meta_path = sidecar_path(path)
    if not meta_path.exists():
        raise DataFormatError(
            f"generic CSV requires a metadata sidecar; {meta_path} not found"
        )
    text = meta_path.read_text()
    # ValueError: not JSON, or an integer past Python's digit limit (text that
    # is not UTF-8 raises in read_text); RecursionError: nested too deep
    try:
        meta = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"sidecar is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataFormatError("sidecar must be a JSON object")
    for key in ("basis", "center_hz", "n_modes", "normalization", "spacing_hz"):
        if key not in meta:
            raise DataFormatError(f"sidecar missing required key {key!r}")
    for key in ("center_hz", "spacing_hz"):
        if isinstance(meta[key], bool) or not isinstance(meta[key], (int, float)):
            raise DataFormatError(f"sidecar {key} {meta[key]!r} must be a number")
    n = meta["n_modes"]
    grid = _described_grid(
        "sidecar", meta["basis"], meta["normalization"], n,
        meta["center_hz"], meta["spacing_hz"], 2.0 * np.pi,
    )
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 2 * n:
            raise DataFormatError(f"line {lineno}: expected {2 * n} columns, found {len(cells)}")
        try:
            rows.append([complex(c.strip()) for c in cells])
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: bad complex entry ({exc})") from exc
    return _admitted(rows, grid)


def _admitted(matrix, grid: ModeGrid) -> ScatteringMatrix:
    try:
        return ScatteringMatrix(matrix=matrix, grid=grid)
    except InvalidArgumentError as exc:
        raise DataFormatError(f"matrix: {exc}") from exc


def load_scattering_data(path) -> ScatteringMatrix:
    """Load measured or simulated scattering data as the file says it is stored.

    A file that starts with ``MAGIC`` is read as the native container, any
    other as generic CSV, whose sidecar must exist.
    """
    with open(path, "rb") as f:
        native = f.read(len(MAGIC)) == MAGIC
    if native:
        return load_scattering(path)
    meta_path = sidecar_path(path)
    if not meta_path.exists():
        raise DataFormatError(
            f"{path} is neither a native container (it does not start with {MAGIC!r}) "
            f"nor generic CSV ({meta_path} not found)"
        )
    return load_scattering_csv(path)


def _cell(x) -> str:
    """A label as given, a number as its shortest round-trip decimal."""
    return x if isinstance(x, str) else repr(float(x))


def write_table(path, corner: str, columns, rows, values, meta: dict) -> None:
    """Write a CSV table in the one layout every CSV output shares.

    ``# key: value`` lines for the sorted ``meta``, a header of ``corner``
    and the column labels, then one line per row: its label and its values.
    ``values`` holds one sequence per row; a table without columns still
    writes every row label.  The values go to Python floats in one
    ``tolist`` and are written by ``repr``, as ``_cell`` would write them.
    """
    lines = [f"# {key}: {meta[key]}" for key in sorted(meta)]
    lines.append(",".join([corner, *map(_cell, columns)]))
    for label, row in zip(rows, np.asarray(values, dtype=float).tolist(), strict=True):
        lines.append(",".join([_cell(label), *map(repr, row)]))
    Path(path).write_text("\n".join(lines) + "\n")


def topology_report_dict(graph: CorrelationGraph, report: TopologyReport) -> dict:
    return {
        "threshold_db": graph.threshold_db,
        "edge_count": len(graph.edges),
        "components": [
            {"nodes": list(comp), "label": label.value, "rungs": [list(r) for r in rungs]}
            for comp, label, rungs in zip(
                report.components, report.labels, report.ladder_rungs, strict=True
            )
        ],
        "edges": [[e.i, e.j, e.weight_db] for e in graph.edges],
        "self_loops": [[i, w] for i, w in graph.self_loops],
    }


def write_json(path, payload: dict, meta: dict) -> None:
    """JSON report with stable key ordering and embedded provenance."""
    body = dict(payload)
    body["meta"] = {str(k): meta[k] for k in sorted(meta)}
    Path(path).write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")
