"""Config parsing, validation, canonical serialization."""

import math
import time
import tracemalloc

import pytest

from combscatter import ConfigError, bundled_config_path, parse_config, serialize_config
from combscatter.model import MAX_HALF_SPAN

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
        assert any("offset must be integer" in str(i) for i in excinfo.value.issues)

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

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError):
            bundled_config_path("fourpump")
