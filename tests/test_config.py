"""Config parsing, validation, canonical serialization."""

import math

import pytest

from combscatter import ConfigError, bundled_config_path, parse_config, serialize_config

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
