"""End-to-end command-line runs: outputs, determinism, exit codes."""

import json
from importlib import resources

import pytest

from combscatter.cli import main
from combscatter import bundled_config_path
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
