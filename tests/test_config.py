"""Config parsing, validation, canonical serialization."""

import json
import math
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from combscatter import ConfigError, bundled_config_path, config, parse_config, serialize_config
from combscatter.model import (
    MAX_FIT_GRID_POINTS,
    MAX_HALF_SPAN,
    MAX_SWEEP_STEPS,
    MIN_GRID_POINTS,
    MIN_SAMPLES,
    MIN_SWEEP_STEPS,
)

GOOD = """
device:
  resonance_frequency: 4.2 GHz
  port_coupling: 112 MHz
grid:
  center: 4.2 GHz
  spacing: 0.1 MHz
  half_span: 47
scheme:
  - offset: -4
    amplitude: 0.004
    phase_deg: 0.0
  - offset: 0
    amplitude: 0.004
    phase_deg: 0.0
  - offset: 4
    amplitude: 0.004
    phase_deg: 180.0
run:
  threshold_db: -20.0
  signal_index: 28
"""


# each device, grid and last-tone key of GOOD: its line there and the kind it is read as
_EDGE_KEYS = {
    "device.resonance_frequency": ("resonance_frequency: 4.2 GHz", config.Quantity),
    "device.port_coupling": ("port_coupling: 112 MHz", config.Quantity),
    "grid.center": ("center: 4.2 GHz", config.Quantity),
    "grid.spacing": ("spacing: 0.1 MHz", config.Quantity),
    "grid.half_span": ("half_span: 47", int),
    "scheme[2].offset": ("offset: 4", int),
    "scheme[2].amplitude": ("amplitude: 0.004", float),
    "scheme[2].phase_deg": ("phase_deg: 180.0", float),
}
# zero, negative, tiny and huge values, the non-finite ones, integers past
# the float range, and floats as YAML 1.1 reads them (a dot and a signed exponent)
_EDGE_NUMBERS = st.one_of(
    st.sampled_from([
        "0", "-0.0", "-1", "5.0e-324", "-5.0e-324", "1.0e-330", "1.7976931348623157e+308",
        "-1.7976931348623157e+308", ".inf", "-.inf", ".nan", str(10**400), str(-10**400),
    ]),
    st.integers(-10**20, 10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17e}"),
)
_NON_INTEGERS = st.sampled_from(["2.5", "-3.5", "47.0", "1.0e+3"])


class TestParse:
    def test_bundled_threepump_matches_experiment_values(self):
        config = parse_config(bundled_config_path("threepump").read_text())
        assert config.half_span == 47
        assert config.to_mode_grid().n_modes == 95
        assert config.spacing.angular == pytest.approx(2 * math.pi * 0.1e6)
        assert tuple(t.offset for t in config.scheme) == (-4, 0, 4)
        assert config.to_device_params().port_coupling == pytest.approx(2 * math.pi * 112e6)

    def test_good_document(self):
        config = parse_config(GOOD)
        assert config.run.threshold_db == -20.0
        assert config.run.signal_index == 28
        scheme = config.to_scheme()
        assert scheme.tones[2].phase == pytest.approx(math.pi)

    def test_angular_conversion_happens_once_at_boundary(self):
        config = parse_config(GOOD)
        assert config.center.hz == pytest.approx(4.2e9)
        assert config.to_mode_grid().center_frequency == pytest.approx(2 * math.pi * 4.2e9)

    def test_non_integer_offset_rejected(self):
        bad = GOOD.replace("offset: -4", "offset: -3.5")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        issues = [(i.field, i.message) for i in excinfo.value.issues]
        assert issues == [("scheme[0].offset", "expected an integer")]

    def test_bare_number_frequency_rejected(self):
        bad = GOOD.replace("4.2 GHz", "4.2")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        assert any("unit" in str(i) for i in excinfo.value.issues)

    def test_unparseable_quantity_rejected(self):
        bad = GOOD.replace("4.2 GHz", "4.2e9")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        assert any("quantity" in str(i) for i in excinfo.value.issues)

    def test_unknown_key_rejected_with_line(self):
        bad = GOOD + "\nbogus: 3\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        issue = next(i for i in excinfo.value.issues if "bogus" in i.field)
        assert issue.line is not None

    def test_negative_amplitude_rejected(self):
        bad = GOOD.replace("amplitude: 0.004", "amplitude: -0.004", 1)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        assert any("non-negative" in str(i) for i in excinfo.value.issues)

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("amplitude: 0.004", "amplitude: .nan", "scheme[0].amplitude"),
            ("phase_deg: 180.0", "phase_deg: .inf", "scheme[2].phase_deg"),
            ("threshold_db: -20.0", "threshold_db: -.inf", "run.threshold_db"),
        ],
    )
    def test_non_finite_number_rejected_with_line(self, old, new, field):
        bad = GOOD.replace(old, new, 1)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        issue = next(i for i in excinfo.value.issues if i.field == field)
        assert "finite" in issue.message
        assert issue.line == next(k for k, text in enumerate(bad.splitlines(), 1) if new in text)

    @pytest.mark.parametrize("old", ["amplitude: 0.004", "threshold_db: -20.0"])
    def test_integer_past_the_float_range_rejected_as_non_finite(self, old):
        key = old.partition(":")[0]
        new = f"{key}: -{10**400}"
        bad = GOOD.replace(old, new, 1)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        (issue,) = excinfo.value.issues
        assert issue.message == "must be finite"
        assert issue.field.endswith(key)
        assert issue.line == next(k for k, text in enumerate(bad.splitlines(), 1) if new in text)

    @pytest.mark.parametrize(
        "old, new, field, message",
        [
            ("port_coupling: 112 MHz", "port_coupling: -112 MHz", "device.port_coupling", "positive"),
            ("port_coupling: 112 MHz", "port_coupling: 0 MHz", "device.port_coupling", "positive"),
            ("resonance_frequency: 4.2 GHz", "resonance_frequency: -4.2 GHz",
             "device.resonance_frequency", "positive"),
            ("spacing: 0.1 MHz", "spacing: 0 MHz", "grid.spacing", "positive"),
            ("center: 4.2 GHz", "center: 1e300 GHz", "grid.center", "finite"),
        ],
    )
    def test_bad_frequency_rejected_with_line(self, old, new, field, message):
        bad = GOOD.replace(old, new, 1)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        issue = next(i for i in excinfo.value.issues if i.field == field)
        assert message in issue.message
        assert issue.line == next(k for k, text in enumerate(bad.splitlines(), 1) if new in text)

    def test_negative_seed_rejected_with_line(self):
        bad = GOOD.replace("  signal_index: 28", "  signal_index: 28\n  seed: -1")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        issue = next(i for i in excinfo.value.issues if i.field == "run.seed")
        assert "non-negative" in issue.message
        assert issue.line == bad.splitlines().index("  seed: -1") + 1

    @pytest.mark.parametrize(
        "new, field",
        [
            ("fit_g_min: 0", "run.fit_g_min"),
            ("fit_g_max: -0.01", "run.fit_g_max"),
            ("fit_gamma_min: -56 MHz", "run.fit_gamma_min"),
            ("fit_gamma_max: 0 MHz", "run.fit_gamma_max"),
        ],
    )
    def test_non_positive_fit_bound_rejected_with_line(self, new, field):
        bad = GOOD.replace("  signal_index: 28", f"  signal_index: 28\n  {new}")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        (issue,) = excinfo.value.issues
        assert (issue.field, issue.message) == (field, "must be positive")
        assert issue.line == bad.splitlines().index(f"  {new}") + 1

    @pytest.mark.parametrize(
        "name, least",
        [
            ("steps", MIN_SWEEP_STEPS),
            ("samples", MIN_SAMPLES),
            ("phase_grid_points", MIN_GRID_POINTS),
            ("fit_grid_points", MIN_GRID_POINTS),
        ],
    )
    def test_run_size_below_minimum_rejected_with_line(self, name, least):
        new = f"{name}: {least - 1}"
        bad = GOOD.replace("  signal_index: 28", f"  signal_index: 28\n  {new}")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        (issue,) = excinfo.value.issues
        assert (issue.field, issue.message) == (f"run.{name}", f"must be at least {least}")
        assert issue.line == bad.splitlines().index(f"  {new}") + 1
        at_minimum = GOOD.replace("  signal_index: 28", f"  signal_index: 28\n  {name}: {least}")
        assert getattr(parse_config(at_minimum).run, name) == least

    @pytest.mark.parametrize(
        "name, most", [("steps", MAX_SWEEP_STEPS), ("fit_grid_points", MAX_FIT_GRID_POINTS)]
    )
    def test_run_size_above_maximum_rejected_with_line(self, name, most):
        new = f"{name}: {most + 1}"
        bad = GOOD.replace("  signal_index: 28", f"  signal_index: 28\n  {new}")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        (issue,) = excinfo.value.issues
        assert (issue.field, issue.message) == (f"run.{name}", f"must be at most {most}")
        assert issue.line == bad.splitlines().index(f"  {new}") + 1
        at_maximum = GOOD.replace("  signal_index: 28", f"  signal_index: 28\n  {name}: {most}")
        assert getattr(parse_config(at_maximum).run, name) == most

    @pytest.mark.parametrize(
        "lines, field, message",
        [
            (["fit_g_min: 0.02"], "run.fit_g_min", "fit_g_min must be below fit_g_max"),
            (["fit_g_max: 0.0001"], "run.fit_g_max", "fit_g_min must be below fit_g_max"),
            (["fit_g_min: 0.003", "fit_g_max: 0.003"], "run.fit_g_min",
             "fit_g_min must be below fit_g_max"),
            (["fit_gamma_min: 300 MHz"], "run.fit_gamma_min",
             "fit_gamma_min must be below fit_gamma_max"),
            (["fit_gamma_min: 0.2 GHz", "fit_gamma_max: 200 MHz"], "run.fit_gamma_min",
             "fit_gamma_min must be below fit_gamma_max"),
        ],
    )
    def test_empty_fit_range_rejected_with_line(self, lines, field, message):
        extra = "".join(f"\n  {line}" for line in lines)
        bad = GOOD.replace("  signal_index: 28", "  signal_index: 28" + extra)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        (issue,) = excinfo.value.issues
        assert (issue.field, issue.message) == (field, message)
        assert issue.line == bad.splitlines().index(f"  {lines[0]}") + 1

    def test_run_issues_come_in_field_order(self):
        lines = ["fit_g_min: 0", "samples: 1", "seed: -1", "steps: 4", "threshold_db: .nan"]
        bad = GOOD.replace("  signal_index: 28", "".join(f"  {line}\n" for line in lines))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        assert [(i.field, i.message) for i in excinfo.value.issues] == [
            ("run.threshold_db", "must be finite"),
            ("run.steps", f"must be at least {MIN_SWEEP_STEPS}"),
            ("run.seed", "must be non-negative"),
            ("run.samples", f"must be at least {MIN_SAMPLES}"),
            ("run.fit_g_min", "must be positive"),
        ]

    def test_fit_ranges_within_defaults_accepted(self):
        config = parse_config(
            GOOD.replace("  signal_index: 28", "  signal_index: 28\n  fit_g_min: 0.005")
        )
        assert (config.run.fit_g_min, config.run.fit_g_max) == (0.005, 0.01)

    def test_half_span_above_cap_rejected_without_allocating(self):
        bad = GOOD.replace("half_span: 47", f"half_span: {10**7}")
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(ConfigError) as excinfo:
                parse_config(bad)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (issue,) = excinfo.value.issues
        assert issue.field == "grid.half_span"
        assert issue.message == f"must be in 0..{MAX_HALF_SPAN}"
        assert issue.line == bad.splitlines().index(f"  half_span: {10**7}") + 1
        assert peak < 1_000_000
        assert elapsed < 0.5

    def test_half_span_at_cap_accepted(self):
        config = parse_config(GOOD.replace("half_span: 47", f"half_span: {MAX_HALF_SPAN}"))
        assert config.to_mode_grid().n_modes == 2 * MAX_HALF_SPAN + 1

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("offset: -4", "offset: yes", "scheme[0].offset"),
            ("amplitude: 0.004", "amplitude: true", "scheme[0].amplitude"),
            ("phase_deg: 180.0", "phase_deg: on", "scheme[2].phase_deg"),
            ("half_span: 47", "half_span: True", "grid.half_span"),
            ("signal_index: 28", "signal_index: no", "run.signal_index"),
            ("signal_index: 28", "signal_index: 28\n  seed: yes", "run.seed"),
            ("threshold_db: -20.0", "threshold_db: false", "run.threshold_db"),
        ],
    )
    def test_boolean_rejected_where_a_number_is_expected(self, old, new, field):
        bad = GOOD.replace(old, new, 1)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        (issue,) = excinfo.value.issues
        assert issue.field == field
        last = new.splitlines()[-1]
        assert issue.line == next(k for k, text in enumerate(bad.splitlines(), 1) if last in text)

    def test_yaml_integer_forms_accepted(self):
        config = parse_config(GOOD.replace("half_span: 47", "half_span: 0x2F"))
        assert config.half_span == 47

    def test_all_errors_collected(self):
        bad = (
            GOOD.replace("offset: -4", "offset: -3.5")
            .replace("4.2 GHz", "4.2e9")
            .replace("amplitude: 0.004", "amplitude: -1", 1)
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        assert len(excinfo.value.issues) >= 3

    def test_duplicate_offsets_rejected(self):
        bad = GOOD.replace("offset: -4", "offset: 0", 1)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        assert any("duplicate" in str(i) for i in excinfo.value.issues)

    def test_both_phase_keys_rejected(self):
        bad = GOOD.replace("phase_deg: 180.0", "phase_deg: 180.0\n    phase_rad: 1.0")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_not_yaml_at_all(self):
        with pytest.raises(ConfigError):
            parse_config("]junk: [")

    def test_missing_sections_reported(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("device:\n  resonance_frequency: 1 GHz\n")
        fields = {i.field for i in excinfo.value.issues}
        assert "grid" in fields and "scheme" in fields

    def test_unknown_keys_are_reported_and_never_read(self, monkeypatch):
        # each anchor lists ten aliases of the one before: 10**8 paths reach
        # the innermost list, which a walk per path would take hours on
        chain = ["a0: &a0 [1, 2.5]"] + [
            f"a{k}: &a{k} [{', '.join([f'*a{k - 1}'] * 10)}]" for k in range(1, 9)
        ]
        text = GOOD + "\n".join(chain) + "\n"
        first = text.splitlines().index(chain[0]) + 1
        constructed = []
        for name in ("construct_yaml_int", "construct_yaml_float"):
            def spy(node, construct=getattr(config._SCALARS, name)):
                constructed.append(node.start_mark.line + 1)
                return construct(node)

            monkeypatch.setattr(config._SCALARS, name, spy)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert [(i.field, i.message, i.line) for i in excinfo.value.issues] == [
            (f"<top>.a{k}", "unknown key", first + k) for k in range(9)
        ]
        assert constructed and max(constructed) < first

    def test_non_scalar_key_is_named_by_its_kind_and_place(self):
        # each link aliases the one before twice: spelled out, the last key
        # would hold 2**30 scalars
        chain = ["extra:", "  - &a0 [1, 1]"] + [
            f"  - &a{k} [*a{k - 1}, *a{k - 1}]" for k in range(1, 30)
        ]
        text = GOOD + "\n".join([*chain, "? *a29", ": 1", "? {x: [1, 2]}", ": 2"]) + "\n"
        extra = text.splitlines().index("extra:") + 1
        start = time.perf_counter()
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert time.perf_counter() - start < 1.0
        assert len(str(excinfo.value)) < 1024
        # an alias names the node it points to, at that node's place
        assert [(i.field, i.message, i.line) for i in excinfo.value.issues] == [
            ("<top>.extra", "unknown key", extra + 1),
            (f"<top>.<sequence key at line {extra + 30}, column 5>", "unknown key", extra + 32),
            (f"<top>.<mapping key at line {extra + 33}, column 3>", "unknown key", extra + 34),
        ]

    @pytest.mark.parametrize(
        "section, issues",
        [
            ("scheme: &s [*s]", [("scheme[0]", "expected a mapping"),
                                 ("scheme[0].offset", "missing"),
                                 ("scheme[0].amplitude", "missing")]),
            ("run: &r {steps: *r}", [("run.steps", "expected an integer")]),
        ],
    )
    def test_recursive_alias_in_a_read_field_is_an_issue(self, section, issues):
        text = GOOD.split(section.partition(" ")[0])[0] + section + "\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        line = len(text.splitlines())
        assert [(i.field, i.message, i.line) for i in excinfo.value.issues] == [
            (field, message, line) for field, message in issues
        ]

    @pytest.mark.parametrize(
        "old, new, field, message",
        [
            ("half_span: 47", f'half_span: !!{tag} "{text}"', "grid.half_span",
             "expected an integer")
            for tag, text in [("float", "abc"), ("int", "x1"), ("int", ""), ("float", ""),
                              ("int", "0b"), ("float", "."), ("int", "0x")]
        ] + [
            ("amplitude: 0.004", "amplitude: !!float 'x'", "scheme[0].amplitude",
             "expected a number"),
            pytest.param("amplitude: 0.004", "amplitude: " + ":".join(["1"] * 200) + ".0",
                         "scheme[0].amplitude", "expected a number",
                         id="sexagesimal-past-the-float-range"),
            pytest.param("half_span: 47", f"half_span: {'1' * 5000}", "grid.half_span",
                         "expected an integer", id="integer-past-the-digit-limit"),
            ("run:", "extra: !!float nope\nrun:", "<top>.extra", "unknown key"),
        ],
    )
    def test_tagged_text_that_does_not_parse_is_an_issue(self, old, new, field, message):
        bad = GOOD.replace(old, new, 1)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        (issue,) = excinfo.value.issues
        assert (issue.field, issue.message) == (field, message)
        first = new.splitlines()[0]
        assert issue.line == next(k for k, text in enumerate(bad.splitlines(), 1) if first in text)

    @settings(max_examples=200, deadline=None)
    @given(
        tag=st.sampled_from(["!!int", "!!float", "!!null", "!!bool", "!!str"]),
        text=st.text(),
        place=st.sampled_from([
            ("  half_span: 47", "  half_span: {}", "grid.half_span"),
            ("    amplitude: 0.004", "    amplitude: {}", "scheme[0].amplitude"),
            ("  signal_index: 28", "  signal_index: 28\n  steps: {}", "run.steps"),
            ("  port_coupling: 112 MHz", "  port_coupling: {}", "device.port_coupling"),
            ("run:", "extra: {}\nrun:", "<top>.extra"),
        ]),
    )
    @example(tag="!!int", text="", place=("run:", "extra: {}\nrun:", "<top>.extra"))
    def test_tagged_scalar_is_a_value_or_an_issue(self, tag, text, place):
        old, new, field = place
        value = f"{tag} {json.dumps(text)}"
        bad = GOOD.replace(old, new.format(value), 1)
        try:
            parse_config(bad)
        except ConfigError as exc:
            line = next(k for k, row in enumerate(bad.splitlines(), 1) if value in row)
            assert {(i.field, i.line) for i in exc.issues} == {(field, line)}

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ("{a: ", "}")])
    def test_nesting_past_the_stack_is_one_issue(self, opening, closing):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("a: " + opening * 5000 + closing * 5000)
        assert [i.message for i in excinfo.value.issues] == ["nested too deep"]

    def test_recursive_alias_is_an_unknown_key(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(GOOD + "loop: &loop [1, *loop]\n")
        assert [i.field for i in excinfo.value.issues] == ["<top>.loop"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), key=st.sampled_from(sorted(_EDGE_KEYS)))
    def test_config_edge_agrees_with_the_model_types(self, data, key):
        # A value the config accepts must build the model's records, whose
        # own rules guard API callers; one it rejects is an issue at its key.
        # The tone is the last, so a duplicate offset is reported there too.
        old, kind = _EDGE_KEYS[key]
        number = data.draw(_EDGE_NUMBERS | (_NON_INTEGERS if kind is int else st.nothing()))
        if kind is config.Quantity and data.draw(st.booleans()):
            number = f"{number} {data.draw(st.sampled_from(['Hz', 'kHz', 'MHz', 'GHz']))}"
        new = f"{old.partition(':')[0]}: {number}"
        head, _, tail = GOOD.rpartition(old)
        text = head + new + tail
        try:
            parsed = parse_config(text)
        except ConfigError as exc:
            line = len((head + new).splitlines())
            assert {(i.field, i.line) for i in exc.issues} == {(key, line)}
        else:
            parsed.to_device_params()
            parsed.to_mode_grid()
            parsed.to_scheme()


# units other than GHz and MHz, a phase in radians, a negative phase in
# degrees, and an amplitude whose repr has no dot
MIXED = """
device:
  resonance_frequency: 4200000 kHz
  port_coupling: 112000000 Hz
grid:
  center: 4.2 GHz
  spacing: 100 kHz
  half_span: 10
scheme:
  - offset: 3
    amplitude: 0.004
    phase_deg: -45.5
  - offset: -2
    amplitude: 1.0e-05
    phase_rad: 0.5
run:
  fit_gamma_min: 56000 kHz
  threshold_db: -25.5
"""

CANONICAL_MIXED = """\
device:
  port_coupling: 112000000.0 Hz
  resonance_frequency: 4200000.0 kHz
grid:
  center: 4.2 GHz
  half_span: 10
  spacing: 100.0 kHz
scheme:
- amplitude: 1.0e-05
  offset: -2
  phase_rad: 0.5
- amplitude: 0.004
  offset: 3
  phase_deg: -45.5
run:
  fit_g_max: 0.01
  fit_g_min: 0.0001
  fit_gamma_max: 224.0 MHz
  fit_gamma_min: 56000.0 kHz
  fit_grid_points: 40
  phase_grid_points: 8
  samples: 100000
  seed: 1234
  signal_index: 0
  steps: 72
  swept_tone: 0
  threshold_db: -25.5
"""

CANONICAL_THREEPUMP = """\
device:
  port_coupling: 112.0 MHz
  resonance_frequency: 4.2 GHz
grid:
  center: 4.2 GHz
  half_span: 47
  spacing: 0.1 MHz
scheme:
- amplitude: 0.004533333333333334
  offset: -4
  phase_deg: 0.0
- amplitude: 0.004533333333333334
  offset: 0
  phase_deg: 0.0
- amplitude: 0.004533333333333334
  offset: 4
  phase_deg: 0.0
run:
  fit_g_max: 0.005
  fit_g_min: 0.0005
  fit_gamma_max: 224.0 MHz
  fit_gamma_min: 56.0 MHz
  fit_grid_points: 40
  phase_grid_points: 8
  samples: 100000
  seed: 1234
  signal_index: 28
  steps: 72
  swept_tone: 1
  threshold_db: -20.0
"""


class TestRoundTrip:
    def test_parse_serialize_parse_equal(self):
        first = parse_config(GOOD)
        text = serialize_config(first)
        second = parse_config(text)
        assert first == second

    def test_serialization_is_canonical_fixed_point(self):
        text = serialize_config(parse_config(GOOD))
        assert serialize_config(parse_config(text)) == text

    def test_bundled_configs_round_trip(self):
        for name in ("onepump", "twopump", "threepump"):
            config = parse_config(bundled_config_path(name).read_text())
            assert parse_config(serialize_config(config)) == config

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_parse_serialize_parse_is_a_fixed_point(self, data):
        # floats written with a dot and a signed exponent, which YAML 1.1 reads as floats
        def number(**bounds):
            return f"{data.draw(st.floats(allow_nan=False, allow_infinity=False, **bounds)):.17e}"

        def quantity():
            value = data.draw(st.floats(1e-3, 1e3))
            return f"{value:.17e} {data.draw(st.sampled_from(['Hz', 'kHz', 'MHz', 'GHz']))}"

        g_low, g_high = sorted(data.draw(st.floats(1e-300, 1e300)) for _ in range(2))
        gamma_low, gamma_high = sorted(data.draw(st.floats(1.0, 1e3)) for _ in range(2))
        assume(g_low < g_high and gamma_low < gamma_high)
        offsets = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4, unique=True))
        lines = ["device:", f"  resonance_frequency: {quantity()}",
                 f"  port_coupling: {quantity()}", "grid:", f"  center: {quantity()}",
                 f"  spacing: {quantity()}", f"  half_span: {data.draw(st.integers(0, 50))}",
                 "scheme:"]
        for offset in offsets:
            unit = data.draw(st.sampled_from(["deg", "rad"]))
            lines += [f"  - offset: {offset}", f"    amplitude: {number(min_value=0.0)}",
                      f"    phase_{unit}: {number()}"]
        lines += ["run:", f"  threshold_db: {number()}", f"  fit_g_min: {g_low:.17e}",
                  f"  fit_g_max: {g_high:.17e}", f"  fit_gamma_min: {gamma_low:.17e} MHz",
                  f"  fit_gamma_max: {gamma_high:.17e} MHz"]
        first = parse_config("\n".join(lines) + "\n")
        text = serialize_config(first)
        assert parse_config(text) == first
        assert serialize_config(parse_config(text)) == text

    def test_float_without_a_dot_round_trips(self):
        config = parse_config(GOOD + "  fit_g_min: 1.0e-05\n  fit_g_max: 1.0e+16\n")
        text = serialize_config(config)
        assert "  fit_g_min: 1.0e-05\n" in text
        assert parse_config(text) == config

    @pytest.mark.parametrize("text, canonical", [
        (bundled_config_path("threepump").read_text(), CANONICAL_THREEPUMP),
        (MIXED, CANONICAL_MIXED),
    ], ids=["threepump", "mixed"])
    def test_canonical_form_is_pinned(self, text, canonical):
        # every output's config_sha256 hashes this text, so no byte may move
        assert serialize_config(parse_config(text)) == canonical

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError):
            bundled_config_path("fourpump")
