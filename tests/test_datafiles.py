"""Native container and CSV interchange round trips."""

import json
import struct

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from combscatter import (
    DataFormatError,
    ModeGrid,
    ScatteringMatrix,
    pump_off_scattering,
    simulate_scattering,
)
from combscatter.datafiles import (
    MAGIC,
    load_scattering,
    load_scattering_csv,
    load_scattering_data,
    save_scattering,
    save_scattering_csv,
    sidecar_path,
    write_table,
)
from conftest import balanced_scheme, write_native_payload


@pytest.fixture()
def sample(grid, device):
    return simulate_scattering(grid, device, balanced_scheme(device, [-4, 0, 4], 0.05))


# any JSON value: floats include NaN and both infinities, and the integers
# reach past the float range both ways
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.integers(10**308, 10**400) | st.integers(-(10**400), -(10**308)),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
MISSING = object()


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory, device):
    """A generic CSV file of 3 modes, with its sidecar's keys and values."""
    grid = ModeGrid(device.resonance_frequency, 2.0 * np.pi * 1e5, 1)
    path = tmp_path_factory.mktemp("sidecar") / "s.csv"
    scheme = balanced_scheme(device, [0], 0.05)
    save_scattering_csv(path, simulate_scattering(grid, device, scheme))
    return path, json.loads(sidecar_path(path).read_text())


class TestNative:
    def test_round_trip_bit_identical(self, tmp_path, sample):
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        loaded = load_scattering(path)
        assert np.array_equal(loaded.matrix, sample.matrix)
        assert loaded.grid == sample.grid

    def test_bad_magic_rejected(self, tmp_path, sample):
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            load_scattering(path)

    def test_blocked_basis_tag_rejected_naming_expected(self, tmp_path, sample):
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        blob = bytearray(path.read_bytes())
        # basis tag lives after magic, version, n, spacing, center
        offset = 8 + 4 + 4 + 8 + 8
        blob[offset : offset + 16] = b"blocked".ljust(16, b"\x00")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as excinfo:
            load_scattering(path)
        assert "interleaved" in str(excinfo.value)

    @pytest.mark.parametrize("spacing", [-1.0, 0.0, float("nan")])
    def test_bad_header_spacing_rejected(self, tmp_path, sample, spacing):
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        blob = bytearray(path.read_bytes())
        blob[16:24] = struct.pack("<d", spacing)  # after magic, version, n
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            load_scattering(path)

    def test_truncated_payload_rejected(self, tmp_path, sample):
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(DataFormatError):
            load_scattering(path)

    def test_flipped_payload_bit_rejected(self, tmp_path, sample):
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        blob = bytearray(path.read_bytes())
        blob[1000] ^= 0x01  # a low mantissa bit: still a finite number
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="checksum"):
            load_scattering(path)

    def test_version_1_file_without_checksum_loads(self, tmp_path, sample):
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        blob = path.read_bytes()
        path.write_bytes(blob[:8] + struct.pack("<I", 1) + blob[12:-4])
        loaded = load_scattering(path)
        assert np.array_equal(loaded.matrix, sample.matrix)
        assert loaded.grid == sample.grid

    def test_version_1_file_with_a_trailer_is_rejected(self, tmp_path, sample):
        # version 1 has no checksum, so a trailer is 4 bytes more than its payload
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        blob = path.read_bytes()
        path.write_bytes(blob[:8] + struct.pack("<I", 1) + blob[12:])
        mismatch = f"payload size mismatch: {len(blob)} bytes, expected {len(blob) - 4}"
        with pytest.raises(DataFormatError, match=mismatch):
            load_scattering(path)

    def test_non_finite_rejected(self, tmp_path, grid, device):
        # a NaN payload under a valid checksum, written as bytes, since no
        # ScatteringMatrix holds one: the type's admission refuses it
        path = tmp_path / "s.cmb"
        matrix = pump_off_scattering(grid, device).matrix.copy()
        matrix[0, 0] = complex(np.nan, matrix[0, 0].imag)
        write_native_payload(path, matrix, grid)
        with pytest.raises(DataFormatError, match="must be finite"):
            load_scattering(path)

    def test_unknown_tag_rejected(self, tmp_path, sample):
        path = tmp_path / "s.cmb"
        write_native_payload(path, sample.matrix, sample.grid, "guessed")
        with pytest.raises(DataFormatError, match="unknown normalization tag 'guessed'"):
            load_scattering(path)

    def test_package_writes_raw(self, tmp_path, sample):
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        raw = tmp_path / "raw.cmb"
        write_native_payload(raw, sample.matrix, sample.grid, "raw")
        assert path.read_bytes() == raw.read_bytes()
        save_scattering_csv(tmp_path / "s.csv", sample)
        assert json.loads(sidecar_path(tmp_path / "s.csv").read_text())["normalization"] == "raw"


def _neither(path) -> str:
    return (
        f"{path} is neither a native container (it does not start with {MAGIC!r}) "
        f"nor generic CSV ({sidecar_path(path)} not found)"
    )


class TestRecognition:
    """A data file is read as its first bytes say, whatever its name."""

    def test_native_named_csv_loads_as_native(self, tmp_path, sample):
        path = tmp_path / "s.csv"
        save_scattering(path, sample)
        loaded = load_scattering_data(path)
        assert np.array_equal(loaded.matrix, sample.matrix)
        assert loaded.grid == sample.grid

    def test_csv_named_cmb_loads_as_csv(self, tmp_path, sample):
        path = tmp_path / "s.cmb"
        save_scattering_csv(path, sample)
        loaded = load_scattering_data(path)
        assert np.array_equal(loaded.matrix, sample.matrix)
        assert loaded.grid == sample.grid

    def test_empty_file_is_neither(self, tmp_path):
        path = tmp_path / "s.cmb"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError) as excinfo:
            load_scattering_data(path)
        assert str(excinfo.value) == _neither(path)

    @pytest.mark.parametrize("byte", range(len(MAGIC)))
    def test_flipped_magic_byte_is_neither(self, tmp_path, sample, byte):
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        blob = bytearray(path.read_bytes())
        blob[byte] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as excinfo:
            load_scattering_data(path)
        assert str(excinfo.value) == _neither(path)

    @pytest.mark.parametrize(
        "keep, message",
        [(len(MAGIC), "file too short"), (60, "file too short"), (-16, "payload size mismatch")],
    )
    def test_truncated_native_file_reports_the_container(
        self, tmp_path, sample, keep, message
    ):
        path = tmp_path / "s.cmb"
        save_scattering(path, sample)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DataFormatError, match=message):
            load_scattering_data(path)

    def test_pump_off_relative_native_file_loads(self, tmp_path, sample):
        path = tmp_path / "s.cmb"
        write_native_payload(path, sample.matrix, sample.grid, "pump_off_rel")
        loaded = load_scattering_data(path)
        assert np.array_equal(loaded.matrix, sample.matrix)
        assert loaded.grid == sample.grid

    def test_pump_off_relative_csv_loads(self, tmp_path, sample):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        meta = json.loads(sidecar_path(path).read_text())
        sidecar_path(path).write_text(json.dumps({**meta, "normalization": "pump_off_rel"}))
        loaded = load_scattering_data(path)
        assert np.array_equal(loaded.matrix, sample.matrix)
        assert loaded.grid == sample.grid


class TestCsv:
    def test_round_trip(self, tmp_path, sample):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        loaded = load_scattering_data(path)
        assert np.array_equal(loaded.matrix, sample.matrix)
        assert loaded.grid == sample.grid

    def test_missing_sidecar_rejected(self, tmp_path, sample):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        sidecar_path(path).unlink()
        with pytest.raises(DataFormatError) as excinfo:
            load_scattering_csv(path)
        assert "sidecar" in str(excinfo.value)

    def test_wrong_column_count_rejected(self, tmp_path, sample):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        lines = path.read_text().splitlines()
        lines[0] = ",".join(lines[0].split(",")[:-1])  # drop one column
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_scattering_csv(path)
        assert "columns" in str(excinfo.value)

    def test_sidecar_normalization_flag_is_mandatory(self, tmp_path, sample):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        meta = json.loads(sidecar_path(path).read_text())
        del meta["normalization"]
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(DataFormatError) as excinfo:
            load_scattering_csv(path)
        assert "normalization" in str(excinfo.value)

    def test_unknown_normalization_rejected(self, tmp_path, sample):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        meta = json.loads(sidecar_path(path).read_text())
        meta["normalization"] = "guessed"
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(DataFormatError):
            load_scattering_csv(path)

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda meta: json.dumps(sorted(meta)),
            lambda meta: "5",
            lambda meta: json.dumps(" ".join(sorted(meta))),
            lambda meta: "null",
            lambda meta: json.dumps({**meta, "normalization": ["raw"]}),
            lambda meta: "[" * 100_000 + "]" * 100_000,
            lambda meta: json.dumps(meta)[:-1] + ', "long": 1' + "0" * 5000 + "}",
        ],
        ids=[
            "key-list", "number", "key-string", "null", "normalization-list", "deep", "long-int"
        ],
    )
    def test_malformed_sidecar_rejected(self, tmp_path, sample, malformed):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        meta = json.loads(sidecar_path(path).read_text())
        sidecar_path(path).write_text(malformed(meta))
        with pytest.raises(DataFormatError):
            load_scattering_csv(path)

    def test_bad_complex_entry_reports_line(self, tmp_path, sample):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[0] = "not-a-number"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_scattering_csv(path)
        assert "line 3" in str(excinfo.value)

    @pytest.mark.parametrize("n_modes", [4, 0, -3, 2.5, "5", True, None])
    def test_sidecar_mode_count_must_be_odd_and_positive(self, tmp_path, sample, n_modes):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        meta = json.loads(sidecar_path(path).read_text())
        meta["n_modes"] = n_modes
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(DataFormatError) as excinfo:
            load_scattering_csv(path)
        assert "odd and positive" in str(excinfo.value)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("center_hz", "four GHz"),
            ("center_hz", "4.2e9"),
            ("center_hz", True),
            ("center_hz", None),
            ("center_hz", float("nan")),
            ("center_hz", float("inf")),
            pytest.param("center_hz", 10**400, id="center_hz-huge-int"),
            ("spacing_hz", "0.1 MHz"),
            ("spacing_hz", -1e5),
            ("spacing_hz", 0),
            ("spacing_hz", float("-inf")),
        ],
    )
    def test_sidecar_frequencies_must_be_finite_numbers(self, tmp_path, sample, key, value):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        meta = json.loads(sidecar_path(path).read_text())
        meta[key] = value
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(DataFormatError):
            load_scattering_csv(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_sidecar_loads_or_is_a_data_format_error(self, small_csv, data):
        path, meta = small_csv
        meta = dict(meta)
        # any of the keys, each missing, near its valid value or any JSON value
        near = ["interleaved", "blocked", "raw", "pump_off_rel", 1, 3, 5, 3.0, -1e5, 0, 1e300]
        for key in data.draw(st.sets(st.sampled_from(sorted(meta))), label="keys"):
            drawn = data.draw(st.just(MISSING) | st.sampled_from(near) | JSON_VALUES, label=key)
            if drawn is MISSING:
                del meta[key]
            else:
                meta[key] = drawn
        sidecar_path(path).write_text(json.dumps(meta))
        try:
            loaded = load_scattering_data(path)
        except DataFormatError:
            event("rejected")
            return
        event("loaded")
        assert isinstance(loaded, ScatteringMatrix)

    def test_integer_sidecar_frequencies_accepted(self, tmp_path, sample):
        path = tmp_path / "s.csv"
        save_scattering_csv(path, sample)
        meta = json.loads(sidecar_path(path).read_text())
        meta["center_hz"], meta["spacing_hz"] = 4_200_000_000, 100_000
        sidecar_path(path).write_text(json.dumps(meta))
        grid = load_scattering_csv(path).grid
        assert grid.center_frequency == 2.0 * np.pi * 4.2e9
        assert grid.spacing == 2.0 * np.pi * 1e5


class TestTable:
    def test_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, "row\\col", ["a", 0.5], ["r0", 1], np.array([[1.0, -np.inf], [0.1, 2]]),
                    {"version": "0.1.0", "seed": 3})
        assert path.read_text() == (
            "# seed: 3\n# version: 0.1.0\nrow\\col,a,0.5\nr0,1.0,-inf\n1.0,0.1,2.0\n"
        )

    def test_table_without_columns_keeps_its_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, "phase_rad", [], [0.0, 3.14], [[], []], {})
        assert path.read_text() == "phase_rad\n0.0\n3.14\n"

    def test_row_count_must_match(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", "x", ["a"], ["r0", "r1"], [[1.0]], {})
