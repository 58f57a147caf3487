"""Experiment configuration: parsing, validation, canonical serialization.

Configs are YAML documents with four sections (``device``, ``grid``,
``scheme``, ``run``).  Frequencies are cyclic and carry a mandatory unit tag
(``4.2 GHz``, ``0.1 MHz``); bare numbers are rejected.  The core works in
angular frequency, converted once at this boundary.  Validation collects
every problem (with line and field context) instead of stopping at the
first, and ``serialize_config`` emits a canonical form that survives
parse/serialize round trips byte-for-byte.

Validation reads the nodes ``yaml.compose`` returns, and only those the
schema names: an unknown key is reported and its value never read, an
alias in a read field resolves to its target, and a scalar is constructed
only when its field is read.  An explicit tag whose text does not parse
(``!!int "x1"``) is an issue like any other wrong value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import yaml

from .errors import ConfigError
from .model import (
    MAX_FIT_GRID_POINTS,
    MAX_HALF_SPAN,
    MAX_SWEEP_STEPS,
    MIN_GRID_POINTS,
    MIN_SAMPLES,
    MIN_SWEEP_STEPS,
    DeviceParams,
    ModeGrid,
    PumpScheme,
    PumpTone,
)

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
# float nodes; the validator decides which values a field accepts.  No
# field takes a boolean, so "yes" or "true" stays text, which no number,
# integer or quantity field accepts.
_SCALARS = yaml.constructor.SafeConstructor()


def _value(node: yaml.Node):
    """The value a reader sees in ``node``, constructed when it asks.

    An int or float scalar follows the YAML 1.1 rules, and one whose text
    they cannot read (``!!int "x1"``) stays text, so its reader reports it
    as it would any other wrong value.  A null scalar, a mapping and a
    sequence give None; any other scalar gives its text.
    """
    if not isinstance(node, yaml.ScalarNode) or node.tag.endswith(":null"):
        return None
    try:
        if node.tag.endswith(":int"):
            return _SCALARS.construct_yaml_int(node)
        if node.tag.endswith(":float"):
            return _SCALARS.construct_yaml_float(node)
    except (ValueError, IndexError, OverflowError):
        pass
    return node.value


def _key_name(key: yaml.Node) -> str:
    """A scalar key's text; a sequence or mapping key by its kind and place.

    A non-scalar key is never spelled out: an alias chain in it would
    repeat its target along every path, exponentially in the chain's length.
    """
    if isinstance(key, yaml.ScalarNode):
        return str(key.value)
    kind = "sequence" if isinstance(key, yaml.SequenceNode) else "mapping"
    mark = key.start_mark
    return f"<{kind} key at line {mark.line + 1}, column {mark.column + 1}>"


class _Validator:
    """Reads the nodes of ``yaml.compose`` that the schema names, and no other."""

    def __init__(self):
        self.issues: list[ConfigIssue] = []

    def problem(self, path: str, message: str, node: yaml.Node | None = None):
        line = None if node is None else node.start_mark.line + 1
        self.issues.append(ConfigIssue(path, message, line))

    def mapping(self, node: yaml.Node, path: str, known) -> dict:
        """A mapping node's children by key (the last of a repeated key)."""
        if not isinstance(node, yaml.MappingNode):
            self.problem(path, "expected a mapping", node)
            return {}
        given = {_key_name(key): child for key, child in node.value}
        for key, child in given.items():
            if key not in known:
                self.problem(f"{path}.{key}", "unknown key", child)
        return given

    def section(self, node: yaml.Node, path: str, readers: dict, optional=()) -> tuple[dict, dict]:
        """Read a mapping through a table of key -> reader.

        Unknown keys are reported first; then each key in table order is
        read, or reported missing at the mapping's line unless it is
        optional.  A reader reports its own problems and returns None for
        a value it rejects.  The result is the mapping's children by key
        and every value read.
        """
        given = self.mapping(node, path, readers)
        values = {}
        for key, reader in readers.items():
            if key in given:
                got = reader(given[key], f"{path}.{key}")
                if got is not None:
                    values[key] = got
            elif key not in optional:
                self.problem(f"{path}.{key}", "missing", node)
        return given, values

    def quantity(self, node: yaml.Node, path: str) -> Quantity | None:
        value = _value(node)
        if isinstance(value, (int, float)):
            self.problem(path, "missing unit tag (write e.g. '4.2 GHz')", node)
            return None
        if not isinstance(value, str):
            self.problem(path, "expected a quantity string like '0.1 MHz'", node)
            return None
        match = _QUANTITY_RE.match(value)
        if not match:
            self.problem(path, f"cannot parse quantity {value!r}", node)
            return None
        got = Quantity(float(match.group(1)), match.group(2))
        if not math.isfinite(got.angular):
            self.problem(path, "must be finite", node)
            return None
        return got

    def positive_quantity(self, node: yaml.Node, path: str) -> Quantity | None:
        got = self.quantity(node, path)
        if got is not None and got.hz <= 0:
            self.problem(path, "must be positive", node)
            return None
        return got

    def number(self, node: yaml.Node, path: str, kind=float):
        value = _value(node)
        if kind is int:
            if not isinstance(value, int):
                self.problem(path, "expected an integer", node)
                return None
            return value
        if not isinstance(value, (int, float)):
            self.problem(path, "expected a number", node)
            return None
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value):
            self.problem(path, "must be finite", node)
            return None
        return value

    def half_span(self, node: yaml.Node, path: str) -> int | None:
        got = self.number(node, path, int)
        if got is not None and not 0 <= got <= MAX_HALF_SPAN:
            self.problem(path, f"must be in 0..{MAX_HALF_SPAN}", node)
            return None
        return got

    def offset(self, node: yaml.Node, path: str) -> int | None:
        value = _value(node)
        if not isinstance(value, int):
            self.problem(path, "offset must be integer", node)
            return None
        return value

    def amplitude(self, node: yaml.Node, path: str) -> float | None:
        got = self.number(node, path)
        if got is not None and got < 0:
            self.problem(path, "must be non-negative", node)
            return None
        return got

    def setting(self, node: yaml.Node, path: str):
        """A ``run`` value, of its default's type and held to ``run_problem``."""
        name = path.removeprefix("run.")
        default = getattr(_RUN_DEFAULTS, name)
        if isinstance(default, Quantity):
            got = self.quantity(node, path)
        else:
            got = self.number(node, path, type(default))
        problem = None if got is None else run_problem(name, got)
        if problem is not None:
            self.problem(path, problem, node)
            return None
        return got


_RUN_DEFAULTS = RunOptions()
_RUN_KEYS = tuple(f.name for f in fields(RunOptions))

# the smallest value of each run size that its subcommand accepts
RUN_MINIMUMS = {
    "steps": MIN_SWEEP_STEPS,
    "samples": MIN_SAMPLES,
    "phase_grid_points": MIN_GRID_POINTS,
    "fit_grid_points": MIN_GRID_POINTS,
}

# the largest value of each run size that allocates in proportion to it
RUN_MAXIMUMS = {"steps": MAX_SWEEP_STEPS, "fit_grid_points": MAX_FIT_GRID_POINTS}

_POSITIVE = {"fit_g_min", "fit_g_max", "fit_gamma_min", "fit_gamma_max"}


def run_problem(name: str, value) -> str | None:
    """What is wrong with ``value`` as the run setting ``name``, or None.

    The one rule set for run settings: the config's ``run`` section and the
    CLI flags that override its keys are both held to it.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    if name == "seed" and value < 0:
        return "must be non-negative"
    if name in _POSITIVE and getattr(value, "hz", value) <= 0:
        return "must be positive"
    least, most = RUN_MINIMUMS.get(name), RUN_MAXIMUMS.get(name)
    if least is not None and value < least:
        return f"must be at least {least}"
    if most is not None and value > most:
        return f"must be at most {most}"
    return None


def _check_fit_ranges(v: _Validator, run: dict, run_kwargs: dict) -> None:
    """Each fit range's low end must lie below its high end, as the fit needs.

    ``run`` is the ``run`` section's children by key, ``run_kwargs`` the
    values read from them.
    """
    for low, high in (("fit_g_min", "fit_g_max"), ("fit_gamma_min", "fit_gamma_max")):
        given = [name for name in (low, high) if name in run]
        if not given or any(name not in run_kwargs for name in given):
            continue
        lo, hi = (run_kwargs.get(name, getattr(_RUN_DEFAULTS, name)) for name in (low, high))
        if getattr(lo, "angular", lo) >= getattr(hi, "angular", hi):
            v.problem(f"run.{given[0]}", f"{low} must be below {high}", run[given[0]])


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
    except RecursionError:
        raise ConfigError([ConfigIssue("<document>", "nested too deep")]) from None
    if root is None:
        raise ConfigError([ConfigIssue("<document>", "empty configuration")])

    v = _Validator()
    top = v.mapping(root, "<top>", {"device", "grid", "scheme", "run"})

    def section(name: str, readers: dict) -> dict:
        if name in top:
            return v.section(top[name], name, readers)[1]
        v.problem(name, "missing section")
        return {}

    device = section(
        "device", {"resonance_frequency": v.positive_quantity, "port_coupling": v.positive_quantity}
    )
    grid = section(
        "grid", {"center": v.quantity, "spacing": v.positive_quantity, "half_span": v.half_span}
    )

    tones: list[ToneSpec] = []
    tone_readers = {
        "offset": v.offset, "amplitude": v.amplitude, "phase_deg": v.number, "phase_rad": v.number
    }
    phases = {"phase_deg", "phase_rad"}
    if "scheme" in top:
        scheme_node = top["scheme"]
        if not isinstance(scheme_node, yaml.SequenceNode):
            v.problem("scheme", "expected a list of tones", scheme_node)
        else:
            seen_offsets = set()
            for idx, tone_node in enumerate(scheme_node.value):
                path = f"scheme[{idx}]"
                given, tone = v.section(tone_node, path, tone_readers, optional=phases)
                if phases <= given.keys():
                    v.problem(path, "give phase_deg or phase_rad, not both", tone_node)
                unit = "rad" if "phase_rad" in tone else "deg"
                phase = tone.get(f"phase_{unit}", 0.0)
                if "offset" in tone and "amplitude" in tone:
                    offset = tone["offset"]
                    if offset in seen_offsets:
                        v.problem(f"{path}.offset", f"duplicate offset {offset}", tone_node)
                    else:
                        seen_offsets.add(offset)
                        tones.append(ToneSpec(offset, tone["amplitude"], phase, unit))
    else:
        v.problem("scheme", "missing section")

    run_kwargs = {}
    if "run" in top:
        readers = dict.fromkeys(_RUN_KEYS, v.setting)
        run, run_kwargs = v.section(top["run"], "run", readers, optional=_RUN_KEYS)
        _check_fit_ranges(v, run, run_kwargs)

    if v.issues:
        raise ConfigError(v.issues)

    return ExperimentConfig(
        resonance_frequency=device["resonance_frequency"],
        port_coupling=device["port_coupling"],
        center=grid["center"],
        spacing=grid["spacing"],
        half_span=grid["half_span"],
        scheme=tuple(sorted(tones, key=lambda t: t.offset)),
        run=RunOptions(**run_kwargs),
    )


def _yaml_float(value: float) -> str:
    """Shortest round-trip decimal of ``value`` in a form YAML 1.1 reads as a float.

    YAML 1.1 needs a dot in a float, so ``repr``'s ``1e-05`` becomes ``1.0e-05``.
    """
    text = repr(float(value))
    if "e" in text and "." not in text:
        mantissa, exponent = text.split("e")
        text = f"{mantissa}.0e{exponent}"
    return text


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
        lines.append(f"- amplitude: {_yaml_float(tone.amplitude)}")
        lines.append(f"  offset: {tone.offset}")
        lines.append(f"  phase_{tone.phase_unit}: {_yaml_float(tone.phase_value)}")
    lines.append("run:")
    for name in sorted(_RUN_KEYS):
        value = getattr(config.run, name)
        if isinstance(value, Quantity):
            text = value.render()
        elif isinstance(value, float):
            text = _yaml_float(value)
        else:
            text = str(value)
        lines.append(f"  {name}: {text}")
    return "\n".join(lines) + "\n"


def bundled_config_path(name: str):
    """Filesystem path of a config shipped with the package."""
    from importlib import resources

    candidate = resources.files("combscatter") / "configs" / f"{name}.yaml"
    if not candidate.is_file():
        raise ConfigError([ConfigIssue("<config>", f"no bundled config named {name!r}")])
    return candidate
