"""End-to-end command-line runs: outputs, determinism, exit codes."""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from combscatter import cli
from combscatter.cli import main
from combscatter import RunOptions, bundled_config_path
from combscatter.datafiles import load_scattering, save_scattering_csv, sidecar_path

BUNDLED = sorted(
    p.name.removesuffix(".yaml")
    for p in (resources.files("combscatter") / "configs").iterdir()
    if p.name.endswith(".yaml")
)

SMALL = """
device:
  resonance_frequency: 4.2 GHz
  port_coupling: 112 MHz
grid:
  center: 4.2 GHz
  spacing: 0.1 MHz
  half_span: 12
scheme:
  - offset: -4
    amplitude: 0.004533333333333334
    phase_deg: 0.0
  - offset: 0
    amplitude: 0.004533333333333334
    phase_deg: 0.0
  - offset: 4
    amplitude: 0.004533333333333334
    phase_deg: 0.0
run:
  threshold_db: -20.0
  steps: 16
  seed: 77
  samples: 2000
  signal_index: 5
  swept_tone: 1
  fit_g_min: 0.002
  fit_g_max: 0.008
  fit_gamma_min: 60 MHz
  fit_gamma_max: 200 MHz
  fit_grid_points: 6
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL)
    return path


def run(args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_threepump_destructive_reports_square_ladders(self, tmp_path):
        out = tmp_path / "out"
        code = run(["simulate", bundled_config_path("threepump"),
                    "--phase1", "180deg", "--out-dir", out])
        assert code == 0
        report = json.loads((out / "topology.json").read_text())
        labels = [c["label"] for c in report["components"]]
        assert labels == ["square_ladder"] * 3
        assert sorted(len(c["nodes"]) for c in report["components"]) == [23, 24, 48]
        assert (out / "db_matrix.csv").exists()
        assert (out / "s_matrix.cmb").exists()
        assert (out / "graph.gv").exists()

    def test_outputs_embed_provenance(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", small_config, "--out-dir", out]) == 0
        text = (out / "db_matrix.csv").read_text()
        assert "# config_sha256:" in text
        assert "# version:" in text
        report = json.loads((out / "topology.json").read_text())
        assert report["meta"]["tool"] == "combscatter"

    def test_byte_deterministic(self, small_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["simulate", small_config, "--out-dir", out_a])
        run(["simulate", small_config, "--out-dir", out_b])
        for name in ("db_matrix.csv", "topology.json", "graph.gv", "s_matrix.cmb"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_phase_flag_with_radians(self, small_config, tmp_path):
        code = run(["simulate", small_config, "--phase1", "3.14159rad",
                    "--out-dir", tmp_path / "r"])
        assert code == 0


class TestSweep:
    def test_row_and_column_shape(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run(["sweep-phase", small_config, "--tone", "1", "--steps", "16",
                    "--out-dir", out]) == 0
        lines = [l for l in (out / "sweep.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        header, *rows = lines
        assert len(rows) == 16
        columns = header.split(",")
        assert columns[0] == "phase_rad"
        assert all(len(r.split(",")) == len(columns) for r in rows)


    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_bundled_config_sweeps(self, name, tmp_path):
        assert run(["sweep-phase", name, "--out-dir", tmp_path]) == 0
        assert (tmp_path / "sweep.csv").exists()


class TestCovariance:
    def test_analytic_and_sampled(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run(["covariance", small_config, "--out-dir", out]) == 0
        assert run(["sample-covariance", small_config, "--samples", "2000",
                    "--seed", "3", "--out-dir", out]) == 0
        assert (out / "covariance.csv").exists()
        assert (out / "covariance_mc.csv").exists()

    def test_sampled_depends_on_seed_only(self, small_config, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run(["sample-covariance", small_config, "--seed", "5", "--out-dir", a])
        run(["sample-covariance", small_config, "--seed", "5", "--out-dir", b])
        run(["sample-covariance", small_config, "--seed", "6", "--out-dir", c])
        assert (a / "covariance_mc.csv").read_bytes() == (b / "covariance_mc.csv").read_bytes()
        assert (a / "covariance_mc.csv").read_bytes() != (c / "covariance_mc.csv").read_bytes()


class TestFit:
    def test_self_fit_round_trip(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", small_config, "--out-dir", out]) == 0
        assert run(["fit", small_config, "--data", out / "s_matrix.cmb",
                    "--out-dir", out]) == 0
        fit = json.loads((out / "fit.json").read_text())
        generating = 0.085
        assert abs(fit["ridge_ratio"] - generating) / generating < 0.01
        assert (out / "fit_surface.csv").exists()

    def test_fit_honours_phase_flags(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", small_config, "--phase1", "180deg", "--out-dir", out]) == 0
        assert run(["fit", small_config, "--phase1", "180deg",
                    "--data", out / "s_matrix.cmb", "--out-dir", out]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert abs(fit["ridge_ratio"] - 0.085) / 0.085 < 0.01

    def test_fit_requires_data(self, small_config, tmp_path):
        assert run(["fit", small_config, "--out-dir", tmp_path]) == 2


class TestSearchPhases:
    def test_reaches_target_from_simulated_topology(self, small_config, tmp_path):
        out = tmp_path / "out"
        run(["simulate", small_config, "--phase1", "180deg", "--out-dir", out])
        assert run(["search-phases", small_config, "--target", out / "topology.json",
                    "--phase-grid-points", "4", "--out-dir", out]) == 0
        result = json.loads((out / "phase_search.json").read_text())
        assert result["objective_edge_difference"] == 0


class TestPredictIdlers:
    def test_writes_indices(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run(["predict-idlers", small_config, "--signal-index", "5",
                    "--out-dir", out]) == 0
        doc = json.loads((out / "idlers.json").read_text())
        assert doc["second_order"] == [-9, -5, -1]
        assert doc["third_order"] == [[-3, 1], [1, 2], [9, 2]]
        assert doc["dropped_out_of_grid"]  # the product at 5 + 8 = 13 leaves J=12


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("device:\n  resonance_frequency: 4.2\n")
        assert run(["simulate", bad, "--out-dir", tmp_path]) == 2

    def test_above_threshold_is_3(self, tmp_path):
        # the degenerate center-mode block goes singular at this amplitude
        config = tmp_path / "hot.yaml"
        config.write_text(SMALL.replace("0.004533333333333334", "0.02666666666666667"))
        assert run(["simulate", config, "--out-dir", tmp_path / "o"]) == 3

    def test_missing_data_file_is_4(self, small_config, tmp_path):
        assert run(["fit", small_config, "--data", tmp_path / "nope.cmb",
                    "--out-dir", tmp_path]) == 4

    def test_missing_config_is_4(self, tmp_path):
        assert run(["simulate", tmp_path / "absent.yaml", "--out-dir", tmp_path]) == 4

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_non_finite_yaml_number_is_2(self, tmp_path, capsys, value):
        config = tmp_path / "nan.yaml"
        config.write_text(SMALL.replace("0.004533333333333334", value, 1))
        assert run(["simulate", config, "--out-dir", tmp_path / "o"]) == 2
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "validation"
        assert any("scheme[0].amplitude (line" in issue for issue in doc["issues"])

    def test_negative_seed_flag_is_2(self, small_config, tmp_path, capsys):
        assert run(["sample-covariance", small_config, "--seed", "-1",
                    "--out-dir", tmp_path]) == 2
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "validation"

    def test_negative_seed_in_config_is_2(self, tmp_path, capsys):
        config = tmp_path / "seed.yaml"
        config.write_text(SMALL.replace("seed: 77", "seed: -1"))
        assert run(["sample-covariance", config, "--out-dir", tmp_path / "o"]) == 2
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert any("run.seed (line" in issue for issue in doc["issues"])

    def test_non_integer_csv_mode_count_is_4(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", small_config, "--out-dir", out]) == 0
        data = out / "s.csv"
        save_scattering_csv(data, load_scattering(out / "s_matrix.cmb"))
        meta = json.loads(sidecar_path(data).read_text())
        meta["n_modes"] = 25.5  # int() would truncate it to the true 25
        sidecar_path(data).write_text(json.dumps(meta))
        assert run(["graph", small_config, "--data", data, "--format", "generic-csv",
                    "--out-dir", out]) == 4

    @pytest.mark.parametrize(
        "key, value", [("center_hz", "four GHz"), ("spacing_hz", -1e5)]
    )
    def test_bad_csv_sidecar_frequency_is_4(self, small_config, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        assert run(["simulate", small_config, "--out-dir", out]) == 0
        data = out / "s.csv"
        save_scattering_csv(data, load_scattering(out / "s_matrix.cmb"))
        meta = json.loads(sidecar_path(data).read_text())
        meta[key] = value
        sidecar_path(data).write_text(json.dumps(meta))
        capsys.readouterr()
        assert run(["graph", small_config, "--data", data, "--format", "generic-csv",
                    "--out-dir", out]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_negative_port_coupling_is_2_with_line(self, tmp_path, capsys):
        config = tmp_path / "coupling.yaml"
        config.write_text(SMALL.replace("port_coupling: 112 MHz", "port_coupling: -112 MHz"))
        assert run(["simulate", config, "--out-dir", tmp_path / "o"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["issues"] == ["device.port_coupling (line 4): must be positive"]

    @pytest.mark.parametrize(
        "old, new, issue",
        [
            ("fit_gamma_min: 60 MHz", "fit_gamma_min: -56 MHz",
             "run.fit_gamma_min (line 28): must be positive"),
            ("fit_g_max: 0.008", "fit_g_max: 0.001",
             "run.fit_g_min (line 26): fit_g_min must be below fit_g_max"),
            ("half_span: 12", "half_span: 10000000", "grid.half_span (line 8): must be in 0..500"),
        ],
    )
    def test_invalid_run_range_or_grid_size_is_2_with_line(self, tmp_path, capsys, old, new, issue):
        config = tmp_path / "bad.yaml"
        config.write_text(SMALL.replace(old, new))
        data = tmp_path / "s.cmb"
        data.write_bytes(b"")
        assert run(["fit", config, "--data", data, "--out-dir", tmp_path / "o"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["issues"] == [issue]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["simulate", "{cfg}", "--phase1", "deg"], "validation"),
            (["simulate", "{cfg}", "--phase1=-abcrad"], "validation"),
            (["search-phases", "{cfg}", "--target", "{dir}/ragged.json"], "io"),
            (["search-phases", "{cfg}", "--target", "{dir}/binary.json"], "io"),
            (["simulate", "{dir}/binary.json"], "io"),
        ],
    )
    def test_malformed_phase_target_or_text_is_one_json_line(
        self, small_config, tmp_path, capsys, argv, error
    ):
        (tmp_path / "ragged.json").write_text('[[0, 1], [2]]')
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe[")
        argv = [a.format(cfg=small_config, dir=tmp_path) for a in argv]
        assert run(argv + ["--out-dir", tmp_path / "o"]) == (2 if error == "validation" else 4)
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == error

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "{cfg}", "--seed", "abc"],
            ["simulate", "{cfg}", "--bogus"],
            ["predict-idlers", "{cfg}", "--samples", "5"],
            ["predict-idlers", "{cfg}", "--phase1", "180deg"],
            ["fit", "{cfg}", "--seed", "3", "--data", "{cfg}"],
            ["covariance", "{cfg}", "--steps", "4"],
            ["graph", "{cfg}", "--format", "xlsx"],
            ["sweep-phase", "{cfg}", "--tone"],
            ["no-such-command", "{cfg}"],
            [],
        ],
    )
    def test_rejected_command_line_is_one_json_line(self, small_config, tmp_path, capsys, argv):
        argv = [a.format(cfg=small_config) for a in argv] + (["--out-dir", tmp_path] if argv else [])
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == "validation"

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_exits_0_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: combscatter")

    def test_machine_readable_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("grid: []\n")
        run(["simulate", bad, "--out-dir", tmp_path])
        err = capsys.readouterr().err
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["error"] == "validation"
        assert doc["issues"]


# -- exit-code contract under fuzzed configs and flags ------------------------

_BAD_NUMBERS = [".nan", ".inf", "-.inf", "nan", "-1", "0", "abc", "10000000", "[1]"]
_BAD_QUANTITIES = ["0 MHz", "-5 MHz", "1e300 GHz", "12", ".nan", "nan MHz", "4.2 THz"]
_QUANTITIES = {"resonance_frequency", "port_coupling", "center", "spacing",
               "fit_gamma_min", "fit_gamma_max"}


def _one_in(k):
    """True with probability 1/k (``st.integers`` would favour its bounds)."""
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def _fuzzed_config(draw):
    """Config text; one in four has one or two broken fields."""
    half = draw(st.integers(0, 6))
    fields = {
        "resonance_frequency": st.just("4.2 GHz"),
        "port_coupling": st.sampled_from(["112 MHz", "56 MHz"]),
        "center": st.sampled_from(["4.2 GHz", "4.2001 GHz"]),
        "spacing": st.sampled_from(["0.1 MHz", "1 MHz"]),
        "half_span": st.just(str(half)),
        # 0.02666... puts the degenerate centre block of a zero-offset tone on threshold
        "amplitude": st.one_of(st.sampled_from([0.0045, 0.02666666666666667, 0.04]),
                               st.floats(0, 0.05)).map(repr),
        "threshold_db": st.floats(-40, -5).map(repr),
        "steps": st.integers(8, 10).map(str),
        "seed": st.integers(0, 2**32).map(str),
        "samples": st.integers(2, 200).map(str),
        "signal_index": st.integers(-half - 1, half + 1).map(str),
        "swept_tone": st.integers(-2, 2).map(str),
        "phase_grid_points": st.just("4"),
        "fit_g_min": st.sampled_from(["0.002", "0.0005"]),
        "fit_g_max": st.sampled_from(["0.008", "0.01"]),
        "fit_gamma_min": st.just("60 MHz"),
        "fit_gamma_max": st.sampled_from(["200 MHz", "224 MHz"]),
        "fit_grid_points": st.just("4"),
    }
    broken = set()
    if draw(_one_in(4)):
        broken = draw(st.sets(st.sampled_from(sorted(fields)), min_size=1, max_size=2))
    value = {
        name: draw(st.sampled_from(_BAD_QUANTITIES if name in _QUANTITIES else _BAD_NUMBERS)
                   if name in broken else strategy)
        for name, strategy in fields.items()
    }
    # mostly three tones, where every phase flag and tone label is valid
    count = draw(st.sampled_from([3, 3, 3, 2, 1]))
    offsets = draw(st.lists(st.integers(-2 * half - 2, 2 * half + 2),
                            min_size=count, max_size=count, unique=True))
    lines = ["device:"]
    lines += [f"  {k}: {value[k]}" for k in ("resonance_frequency", "port_coupling")]
    lines += ["grid:"] + [f"  {k}: {value[k]}" for k in ("center", "spacing", "half_span")]
    lines += ["scheme:"]
    for k, offset in enumerate(offsets):
        amplitude = value["amplitude"] if k == 0 else draw(fields["amplitude"])
        phase = draw(st.floats(-360, 360))
        lines += [f"  - offset: {offset}", f"    amplitude: {amplitude}", f"    phase_deg: {phase!r}"]
    lines += ["run:"] + [f"  {k}: {value[k]}" for k in fields if k in RunOptions.__dataclass_fields__]
    return "\n".join(lines) + "\n"


# Per flag: values a valid run may take, and values that must be rejected cleanly.
_FLAG_VALUES = {
    "--seed": (["0", "7", "99999999999"], ["-1", "x"]),
    "--threshold-db": (["-20", "-30.5"], ["nan", "inf", "-inf", "x"]),
    "--phase1": (["180deg", "1rad"], ["nandeg", "infdeg", "abcdeg", "90", "1e400deg"]),
    "--phase0": (["90deg", "-1rad"], ["nanrad", "deg"]),
    "--phase-1": (["45deg", "0rad"], ["1e400deg", "x"]),
    "--steps": (["8", "12"], ["0", "7", "-3"]),
    "--samples": (["2", "50"], ["0", "1", "-5"]),
    "--signal-index": (["0", "3", "-2"], ["40", "-7"]),
    "--tone": (["-1", "0", "1"], ["2", "9"]),
    "--data": (["simulated"], ["missing.cmb", "garbage.bin"]),  # suffix follows --format
    "--format": (["artifact-native", "generic-csv"], ["xlsx"]),
    "--target": (["edges.json"], ["far.json", "ragged.json", "bad.json", "scalar.json",
                                  "binary.json", "missing.json"]),
    "--phase-grid-points": (["4"], ["0", "3"]),
}

# The input file a subcommand reads; given in three runs of four, so that
# most runs get past it.
_INPUT = {"fit": "--data", "graph": "--data", "search-phases": "--target"}

_TARGETS = {
    "edges.json": '{"edges": [[0, 1], [-1, 1]]}',
    "far.json": "[[0, 999]]",
    "ragged.json": '[[1], [2, "x"], {"a": 1}, 3, [Infinity, 1], [NaN, 0]]',
    "bad.json": "[[0, 1",
    "scalar.json": "7",
}


def _write_inputs(root, config_text, with_data):
    """Config, target and data files one fuzzed invocation may name."""
    config = root / "config.yaml"
    config.write_text(config_text)
    for name, text in _TARGETS.items():
        (root / name).write_text(text)
    (root / "binary.json").write_bytes(b"\xff\xfe\x00[")
    (root / "garbage.bin").write_bytes(b"\xff\x00CMBSCAT1" + bytes(range(256)))
    if with_data:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(["simulate", str(config), "--out-dir", str(root / "sim")])
        simulated = root / "sim" / "s_matrix.cmb"
        if simulated.exists():
            simulated.rename(root / "simulated.cmb")
            save_scattering_csv(root / "simulated.csv", load_scattering(root / "simulated.cmb"))
    return config


class TestExitCodeContract:
    """Every input ends in exit 0, 2, 3 or 4, and a failure in one JSON line."""

    # fuzzed grids (a 0 MHz centre, say) may leave the band; that warning is advice
    @pytest.mark.filterwarnings("ignore::combscatter.model.BandMismatchWarning")
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @settings(max_examples=25, deadline=None)
    @given(config_text=_fuzzed_config(), data=st.data())
    def test_fuzzed_invocation(self, command, config_text, data):
        assert set(_FLAG_VALUES) == set(cli._FLAGS)
        flags = data.draw(st.lists(st.sampled_from(cli._COMMANDS[command][1]),
                                   unique=True, max_size=4))
        if command in _INPUT and _INPUT[command] not in flags and not data.draw(_one_in(4)):
            flags.append(_INPUT[command])
        if data.draw(_one_in(10)):  # now and then a flag of any subcommand
            flags.append(data.draw(st.sampled_from(sorted(_FLAG_VALUES))))
        broken = set()
        if flags and data.draw(_one_in(3)):
            broken = {data.draw(st.sampled_from(flags))}
        values = {}
        for flag in flags:
            good, bad = _FLAG_VALUES[flag]
            values[flag] = data.draw(st.sampled_from(bad if flag in broken else good))
        if values.get("--data") == "simulated":
            values["--data"] += ".csv" if values.get("--format") == "generic-csv" else ".cmb"
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            config = _write_inputs(root, config_text, "--data" in values)
            argv = [command, str(config), "--out-dir", str(root / "out")]
            for flag, value in values.items():
                argv.append(f"{flag}={root / value if flag in ('--data', '--target') else value}")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        event(f"exit {code}{' with --data' * ('--data' in values)}")
        assert code in (0, 2, 3, 4), argv
        if code:
            (line,) = err.getvalue().splitlines()
            assert json.loads(line)["error"] in ("validation", "above-threshold", "io", "internal")
        else:
            assert err.getvalue() == ""
