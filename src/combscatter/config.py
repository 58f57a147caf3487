"""Experiment configuration: parsing, validation, canonical serialization.

Configs are YAML documents with four sections (``device``, ``grid``,
``scheme``, ``run``).  Frequencies are cyclic and carry a mandatory unit tag
(``4.2 GHz``, ``0.1 MHz``); bare numbers are rejected.  The core works in
angular frequency, converted once at this boundary.  Validation collects
every problem (with line and field context) instead of stopping at the
first, and ``serialize_config`` emits a canonical form that survives
parse/serialize round trips byte-for-byte.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import yaml

from .errors import ConfigError
from .model import MAX_HALF_SPAN, DeviceParams, ModeGrid, PumpScheme, PumpTone

TWO_PI = 2.0 * math.pi

_UNIT_FACTORS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_QUANTITY_RE = re.compile(
    r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(Hz|kHz|MHz|GHz)\s*$"
)


@dataclass(frozen=True)
class Quantity:
    """A cyclic frequency with its unit tag preserved for round-tripping."""

    value: float
    unit: str

    def __post_init__(self):
        if self.unit not in _UNIT_FACTORS:
            raise ConfigError([ConfigIssue("<quantity>", f"unknown unit {self.unit!r}")])

    @property
    def hz(self) -> float:
        return self.value * _UNIT_FACTORS[self.unit]

    @property
    def angular(self) -> float:
        return TWO_PI * self.hz

    def render(self) -> str:
        return f"{self.value!r} {self.unit}"


@dataclass(frozen=True)
class ConfigIssue:
    field: str
    message: str
    line: int | None = None

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{self.field}{where}: {self.message}"


@dataclass(frozen=True)
class ToneSpec:
    """One scheme entry as written in the config (phase unit preserved)."""

    offset: int
    amplitude: float
    phase_value: float = 0.0
    phase_unit: str = "deg"  # "deg" or "rad"

    @property
    def phase_rad(self) -> float:
        return math.radians(self.phase_value) if self.phase_unit == "deg" else self.phase_value


@dataclass(frozen=True)
class RunOptions:
    """Subcommand knobs; every field has a sensible default."""

    threshold_db: float = -20.0
    steps: int = 72
    seed: int = 1234
    samples: int = 100000
    signal_index: int = 0
    swept_tone: int = 0
    phase_grid_points: int = 8
    fit_g_min: float = 1e-4
    fit_g_max: float = 1e-2
    fit_gamma_min: Quantity = field(default_factory=lambda: Quantity(56.0, "MHz"))
    fit_gamma_max: Quantity = field(default_factory=lambda: Quantity(224.0, "MHz"))
    fit_grid_points: int = 40


@dataclass(frozen=True)
class ExperimentConfig:
    resonance_frequency: Quantity
    port_coupling: Quantity
    center: Quantity
    spacing: Quantity
    half_span: int
    scheme: tuple[ToneSpec, ...]
    run: RunOptions = field(default_factory=RunOptions)

    def to_device_params(self) -> DeviceParams:
        return DeviceParams(
            resonance_frequency=self.resonance_frequency.angular,
            port_coupling=self.port_coupling.angular,
        )

    def to_mode_grid(self) -> ModeGrid:
        return ModeGrid(
            center_frequency=self.center.angular,
            spacing=self.spacing.angular,
            half_span=self.half_span,
        )

    def to_scheme(self) -> PumpScheme:
        return PumpScheme(
            tuple(PumpTone(t.offset, t.amplitude, t.phase_rad) for t in self.scheme)
        )


# YAML 1.1 scalar rules (".nan", ".inf", "0x1F", "1_000", ...) for int and
# float nodes; the validator decides which values a field accepts.
_SCALARS = yaml.constructor.SafeConstructor()


class _Node:
    """A parsed YAML value with its source line, for error context."""

    __slots__ = ("value", "line")

    def __init__(self, value, line):
        self.value = value
        self.line = line


def _convert(node) -> _Node:
    line = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        mapping = {}
        for key_node, value_node in node.value:
            mapping[str(key_node.value)] = _convert(value_node)
        return _Node(mapping, line)
    if isinstance(node, yaml.SequenceNode):
        return _Node([_convert(v) for v in node.value], line)
    tag = node.tag
    raw = node.value
    if tag.endswith(":int"):
        return _Node(_SCALARS.construct_yaml_int(node), line)
    if tag.endswith(":float"):
        return _Node(_SCALARS.construct_yaml_float(node), line)
    if tag.endswith(":bool"):
        return _Node(raw.lower() in ("true", "yes", "on"), line)
    if tag.endswith(":null"):
        return _Node(None, line)
    return _Node(str(raw), line)


class _Validator:
    def __init__(self):
        self.issues: list[ConfigIssue] = []

    def problem(self, path: str, message: str, line=None):
        self.issues.append(ConfigIssue(path, message, line))

    def mapping(self, node: _Node, path: str, known: set[str]) -> dict:
        if not isinstance(node.value, dict):
            self.problem(path, "expected a mapping", node.line)
            return {}
        for key, child in node.value.items():
            if key not in known:
                self.problem(f"{path}.{key}", "unknown key", child.line)
        return node.value

    def quantity(self, node: _Node, path: str) -> Quantity | None:
        if isinstance(node.value, (int, float)):
            self.problem(path, "missing unit tag (write e.g. '4.2 GHz')", node.line)
            return None
        if not isinstance(node.value, str):
            self.problem(path, "expected a quantity string like '0.1 MHz'", node.line)
            return None
        match = _QUANTITY_RE.match(node.value)
        if not match:
            self.problem(path, f"cannot parse quantity {node.value!r}", node.line)
            return None
        got = Quantity(float(match.group(1)), match.group(2))
        if not math.isfinite(got.angular):
            self.problem(path, "must be finite", node.line)
            return None
        return got

    def positive_quantity(self, node: _Node, path: str) -> Quantity | None:
        got = self.quantity(node, path)
        if got is not None and got.hz <= 0:
            self.problem(path, "must be positive", node.line)
            return None
        return got

    def number(self, node: _Node, path: str, kind=float):
        if kind is int:
            if not isinstance(node.value, int):
                self.problem(path, "expected an integer", node.line)
                return None
            return node.value
        if not isinstance(node.value, (int, float)):
            self.problem(path, "expected a number", node.line)
            return None
        if not math.isfinite(node.value):
            self.problem(path, "must be finite", node.line)
            return None
        return float(node.value)


_RUN_KEYS = {f.name for f in fields(RunOptions)}


def _check_fit_ranges(v: _Validator, run: dict, run_kwargs: dict) -> None:
    """Each fit range's low end must lie below its high end, as the fit needs."""
    defaults = RunOptions()
    for low, high in (("fit_g_min", "fit_g_max"), ("fit_gamma_min", "fit_gamma_max")):
        given = [name for name in (low, high) if name in run]
        if not given or any(name not in run_kwargs for name in given):
            continue
        lo, hi = (run_kwargs.get(name, getattr(defaults, name)) for name in (low, high))
        if getattr(lo, "angular", lo) >= getattr(hi, "angular", hi):
            v.problem(f"run.{given[0]}", f"{low} must be below {high}", run[given[0]].line)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text.

    Raises ``ConfigError`` carrying every validation issue found, each with
    field path and source line.
    """
    try:
        root = yaml.compose(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark else None
        raise ConfigError([ConfigIssue("<document>", f"not valid YAML: {exc}", line)]) from exc
    if root is None:
        raise ConfigError([ConfigIssue("<document>", "empty configuration")])

    v = _Validator()
    top = v.mapping(_convert(root), "<top>", {"device", "grid", "scheme", "run"})

    resonance = coupling = center = spacing = None
    half_span = None
    if "device" in top:
        device = v.mapping(top["device"], "device", {"resonance_frequency", "port_coupling"})
        if "resonance_frequency" in device:
            resonance = v.positive_quantity(
                device["resonance_frequency"], "device.resonance_frequency"
            )
        else:
            v.problem("device.resonance_frequency", "missing", top["device"].line)
        if "port_coupling" in device:
            coupling = v.positive_quantity(device["port_coupling"], "device.port_coupling")
        else:
            v.problem("device.port_coupling", "missing", top["device"].line)
    else:
        v.problem("device", "missing section")

    if "grid" in top:
        grid = v.mapping(top["grid"], "grid", {"center", "spacing", "half_span"})
        if "center" in grid:
            center = v.quantity(grid["center"], "grid.center")
        else:
            v.problem("grid.center", "missing", top["grid"].line)
        if "spacing" in grid:
            spacing = v.positive_quantity(grid["spacing"], "grid.spacing")
        else:
            v.problem("grid.spacing", "missing", top["grid"].line)
        if "half_span" in grid:
            half_span = v.number(grid["half_span"], "grid.half_span", int)
            if half_span is not None and not 0 <= half_span <= MAX_HALF_SPAN:
                v.problem(
                    "grid.half_span", f"must be in 0..{MAX_HALF_SPAN}", grid["half_span"].line
                )
                half_span = None
        else:
            v.problem("grid.half_span", "missing", top["grid"].line)
    else:
        v.problem("grid", "missing section")

    tones: list[ToneSpec] = []
    if "scheme" in top:
        scheme_node = top["scheme"]
        if not isinstance(scheme_node.value, list):
            v.problem("scheme", "expected a list of tones", scheme_node.line)
        else:
            seen_offsets = set()
            for idx, tone_node in enumerate(scheme_node.value):
                path = f"scheme[{idx}]"
                tone = v.mapping(
                    tone_node, path, {"offset", "amplitude", "phase_deg", "phase_rad"}
                )
                offset = amplitude = None
                if "offset" in tone:
                    if isinstance(tone["offset"].value, int):
                        offset = tone["offset"].value
                    else:
                        v.problem(f"{path}.offset", "offset must be integer", tone["offset"].line)
                else:
                    v.problem(f"{path}.offset", "missing", tone_node.line)
                if "amplitude" in tone:
                    amplitude = v.number(tone["amplitude"], f"{path}.amplitude")
                    if amplitude is not None and amplitude < 0:
                        v.problem(
                            f"{path}.amplitude", "must be non-negative", tone["amplitude"].line
                        )
                        amplitude = None
                else:
                    v.problem(f"{path}.amplitude", "missing", tone_node.line)
                if "phase_deg" in tone and "phase_rad" in tone:
                    v.problem(path, "give phase_deg or phase_rad, not both", tone_node.line)
                phase_value, phase_unit = 0.0, "deg"
                if "phase_deg" in tone:
                    got = v.number(tone["phase_deg"], f"{path}.phase_deg")
                    if got is not None:
                        phase_value, phase_unit = got, "deg"
                elif "phase_rad" in tone:
                    got = v.number(tone["phase_rad"], f"{path}.phase_rad")
                    if got is not None:
                        phase_value, phase_unit = got, "rad"
                if offset is not None and amplitude is not None:
                    if offset in seen_offsets:
                        v.problem(f"{path}.offset", f"duplicate offset {offset}", tone_node.line)
                    else:
                        seen_offsets.add(offset)
                        tones.append(ToneSpec(offset, amplitude, phase_value, phase_unit))
    else:
        v.problem("scheme", "missing section")

    run_kwargs = {}
    if "run" in top:
        run = v.mapping(top["run"], "run", _RUN_KEYS)
        for name in ("threshold_db", "fit_g_min", "fit_g_max"):
            if name in run:
                got = v.number(run[name], f"run.{name}")
                if got is not None:
                    run_kwargs[name] = got
        for name in ("steps", "seed", "samples", "signal_index", "swept_tone",
                     "phase_grid_points", "fit_grid_points"):
            if name in run:
                got = v.number(run[name], f"run.{name}", int)
                if got is not None:
                    run_kwargs[name] = got
        if run_kwargs.get("seed", 0) < 0:
            v.problem("run.seed", "must be non-negative", run["seed"].line)
        for name in ("fit_g_min", "fit_g_max"):
            if run_kwargs.get(name, 1.0) <= 0:
                v.problem(f"run.{name}", "must be positive", run[name].line)
                del run_kwargs[name]
        for name in ("fit_gamma_min", "fit_gamma_max"):
            if name in run:
                got = v.positive_quantity(run[name], f"run.{name}")
                if got is not None:
                    run_kwargs[name] = got
        _check_fit_ranges(v, run, run_kwargs)

    if v.issues:
        raise ConfigError(v.issues)

    return ExperimentConfig(
        resonance_frequency=resonance,
        port_coupling=coupling,
        center=center,
        spacing=spacing,
        half_span=half_span,
        scheme=tuple(sorted(tones, key=lambda t: t.offset)),
        run=RunOptions(**run_kwargs),
    )


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form: fixed key order, shortest round-trip decimals."""
    lines = [
        "device:",
        f"  port_coupling: {config.port_coupling.render()}",
        f"  resonance_frequency: {config.resonance_frequency.render()}",
        "grid:",
        f"  center: {config.center.render()}",
        f"  half_span: {config.half_span}",
        f"  spacing: {config.spacing.render()}",
        "scheme:",
    ]
    for tone in sorted(config.scheme, key=lambda t: t.offset):
        lines.append(f"- amplitude: {tone.amplitude!r}")
        lines.append(f"  offset: {tone.offset}")
        lines.append(f"  phase_{tone.phase_unit}: {tone.phase_value!r}")
    run = config.run
    lines += [
        "run:",
        f"  fit_g_max: {run.fit_g_max!r}",
        f"  fit_g_min: {run.fit_g_min!r}",
        f"  fit_gamma_max: {run.fit_gamma_max.render()}",
        f"  fit_gamma_min: {run.fit_gamma_min.render()}",
        f"  fit_grid_points: {run.fit_grid_points}",
        f"  phase_grid_points: {run.phase_grid_points}",
        f"  samples: {run.samples}",
        f"  seed: {run.seed}",
        f"  signal_index: {run.signal_index}",
        f"  steps: {run.steps}",
        f"  swept_tone: {run.swept_tone}",
        f"  threshold_db: {run.threshold_db!r}",
    ]
    return "\n".join(lines) + "\n"


def bundled_config_path(name: str):
    """Filesystem path of a config shipped with the package."""
    from importlib import resources

    candidate = resources.files("combscatter") / "configs" / f"{name}.yaml"
    if not candidate.is_file():
        raise ConfigError([ConfigIssue("<config>", f"no bundled config named {name!r}")])
    return candidate
