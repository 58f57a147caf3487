"""End-to-end command-line runs: outputs, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from combscatter import __version__, cli
from combscatter.cli import main
from combscatter import (
    AboveThresholdError,
    InvalidArgumentError,
    PumpScheme,
    RunOptions,
    bundled_config_path,
    parse_config,
    phase_sweep,
)
from combscatter.datafiles import (
    load_scattering,
    save_scattering,
    save_scattering_csv,
    sidecar_path,
)
from conftest import write_native_payload

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


def run_traced(args):
    """``run`` under tracemalloc: the exit code and the peak of traced bytes."""
    tracemalloc.start()
    try:
        return run(args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def strict_json(line):
    """Parse one line as RFC 8259 JSON: no Infinity, -Infinity or NaN."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(line, parse_constant=reject)


def run_fresh(args):
    """One CLI run in a fresh interpreter, where warnings reach stderr unseen by pytest."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "combscatter.cli", *map(str, args)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )


# four tones, so the labels run -2, -1, 1, 2 and the default swept_tone 0 is none
FOUR = SMALL.split("scheme:")[0] + """scheme:
  - offset: -6
    amplitude: 0.003
  - offset: -2
    amplitude: 0.003
  - offset: 2
    amplitude: 0.003
  - offset: 6
    amplitude: 0.003
run:
  steps: 16
  signal_index: 5
"""

# 13 modes 100 MHz apart reach 5.4 linewidths from resonance, which warns
WIDE = """
device:
  resonance_frequency: 4.2 GHz
  port_coupling: 112 MHz
grid:
  center: 4.2 GHz
  spacing: 100 MHz
  half_span: 6
scheme:
  - offset: 0
    amplitude: {amplitude}
"""


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
        for out in (out_a, out_b):
            assert run(["sweep-phase", small_config, "--tone", "1", "--out-dir", out]) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

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

    def test_four_tone_label_2_sweeps_the_highest_tone(self, tmp_path, capsys):
        config = tmp_path / "four.yaml"
        config.write_text(FOUR)
        assert run(["sweep-phase", config, "--tone", "2", "--out-dir", tmp_path]) == 0
        parsed = parse_config(FOUR)
        scheme = parsed.to_scheme()
        highest = max(range(4), key=lambda i: scheme.tones[i].offset)
        expected = phase_sweep(scheme, highest, 16, 5, parsed.to_mode_grid(),
                               parsed.to_device_params())
        _, *rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()
                    if not line.startswith("#")]
        assert [float(row[0]) for row in rows] == list(expected.phases)
        assert [[float(cell) for cell in row[1:]] for row in rows] == [
            [track.magnitudes_db[step] for track in expected.tracks] for step in range(16)
        ]
        # the config's default swept_tone 0 names no tone of an even count
        capsys.readouterr()
        assert run(["sweep-phase", config, "--out-dir", tmp_path]) == 2
        assert json.loads(capsys.readouterr().err)["message"] == (
            "tone label 0 not valid for a 4-tone scheme (valid: [-2, -1, 1, 2])"
        )


@pytest.mark.parametrize(
    "count, labels",
    [(1, [0]), (2, [-1, 1]), (3, [-1, 0, 1]), (4, [-2, -1, 1, 2]), (5, [-2, -1, 0, 1, 2])],
)
def test_tone_labels_count_outward_from_the_middle(count, labels):
    offsets = [3, -5, 9, 0, -1][:count]
    scheme = PumpScheme.balanced(offsets, 0.001)
    by_offset = sorted(range(count), key=lambda i: offsets[i])
    assert [cli._tone_position(scheme, label) for label in labels] == by_offset
    for label in sorted(set(range(-3, 4)) - set(labels)):
        with pytest.raises(InvalidArgumentError, match=re.escape(f"(valid: {labels})")):
            cli._tone_position(scheme, label)


@pytest.mark.parametrize(
    "name, digest",
    [
        ("onepump", "f9837833eb7738b78a012aeee9bff6808a45b978f8e5acf9344914b8de42aae8"),
        ("twopump", "096e303bb728c38e8246fa11541048a87aec4029a8cbd26be9c679f00ba6a58d"),
        ("threepump", "baaeddc3a4b31e8b3d0c7215fe890db1b61324c60d51b43cf8ac0da29ae76a50"),
    ],
)
def test_bundled_config_hash_is_pinned(name, digest, tmp_path):
    assert run(["predict-idlers", name, "--out-dir", tmp_path]) == 0
    assert json.loads((tmp_path / "idlers.json").read_text())["meta"]["config_sha256"] == digest


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

    @pytest.mark.parametrize("name", ["onepump", "twopump", "threepump"])
    def test_bundled_self_fit_recovers_coupling(self, name, tmp_path, recwarn):
        out = tmp_path / "out"
        assert run(["simulate", name, "--out-dir", out]) == 0
        assert run(["fit", name, "--data", out / "s_matrix.cmb", "--out-dir", out]) == 0
        assert not recwarn
        fit = json.loads((out / "fit.json").read_text())
        assert abs(fit["best_gamma_hz"] - 112e6) / 112e6 < 1e-4
        meta = fit["meta"]
        assert meta["converged"] is True
        assert meta["evaluations"] >= 40 * 40
        surface = [
            line.split(",")[1:]
            for line in (out / "fit_surface.csv").read_text().splitlines()
            if not line.startswith(("#", "g\\gamma"))
        ]
        assert meta["cells_above_threshold"] == sum(cell == "inf" for row in surface for cell in row)
        # a repr'd float, as the other float diagnostics in meta
        worst = float(meta["worst_condition"])
        assert meta["worst_condition"] == repr(worst) and 1.0 <= worst <= 1e12

    def test_fit_requires_data(self, small_config, tmp_path):
        assert run(["fit", small_config, "--out-dir", tmp_path]) == 2

    def test_detuned_resonance_self_fits_as_well_as_the_centred_one(self, tmp_path, recwarn):
        # the threepump copy with its resonance 3 MHz (30 spacings) off centre;
        # the fit models the resonance the config gives, as simulate does
        detuned = tmp_path / "detuned.yaml"
        detuned.write_text(bundled_config_path("threepump").read_text().replace(
            "resonance_frequency: 4.2 GHz", "resonance_frequency: 4.203 GHz"))
        fits = []
        for config in ("threepump", detuned):
            out = tmp_path / Path(config).stem
            assert run(["simulate", config, "--out-dir", out]) == 0
            assert run(["fit", config, "--data", out / "s_matrix.cmb", "--out-dir", out]) == 0
            fits.append(json.loads((out / "fit.json").read_text()))
        assert not recwarn
        centred, off_centre = fits
        assert off_centre["meta"]["converged"] is True
        assert off_centre["distance"] <= 10 * centred["distance"]
        assert abs(off_centre["ridge_ratio"] - centred["ridge_ratio"]) < 0.01 * centred["ridge_ratio"]


class TestGraph:
    def test_threshold_below_the_floor_keeps_the_floors_edges(self, small_config, tmp_path):
        # the pairs off the blocks clamp to the -240 dB floor and never count,
        # so a threshold under the floor draws the graph a threshold at it draws
        reports = []
        for threshold in (-300, -240):
            out = tmp_path / str(threshold)
            assert run(["graph", small_config, f"--threshold-db={threshold}",
                        "--out-dir", out]) == 0
            reports.append(json.loads((out / "topology.json").read_text()))
        below, at = reports
        keys = ("edge_count", "edges", "self_loops", "components")
        assert [below[k] for k in keys] == [at[k] for k in keys]
        assert all(weight > -240 for *_, weight in below["edges"])
        # -4/0/4 joins modes 0 mod 4, modes 2 mod 4 and the odd modes, never across
        assert [len(c["nodes"]) for c in below["components"]] == [7, 12, 6]

    @pytest.mark.parametrize("flag", ["--phase1", "--phase0", "--phase-1"])
    def test_phase_flag_with_data_is_2_before_the_data_is_read(
        self, small_config, tmp_path, capsys, flag
    ):
        # the data file is missing: reading it would exit 4
        out = tmp_path / "o"
        assert run(["graph", small_config, "--data", tmp_path / "absent.cmb", flag, "90deg",
                    "--out-dir", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        doc = strict_json(line)
        assert doc["error"] == "validation"
        assert doc["message"].startswith(f"{flag} not allowed with --data")
        assert not out.exists()


class TestSearchPhases:
    def test_reaches_target_from_simulated_topology(self, small_config, tmp_path):
        out = tmp_path / "out"
        run(["simulate", small_config, "--phase1", "180deg", "--out-dir", out])
        assert run(["search-phases", small_config, "--target", out / "topology.json",
                    "--phase-grid-points", "4", "--out-dir", out]) == 0
        result = json.loads((out / "phase_search.json").read_text())
        assert result["objective_edge_difference"] == 0

    def test_full_scan_counts_one_simulation_per_curvature(self, small_config, tmp_path):
        target = tmp_path / "far.json"
        target.write_text("[[-12, 0]]")  # crosses the residue classes: never reached
        assert run(["search-phases", small_config, "--target", target,
                    "--phase-grid-points", "4", "--out-dir", tmp_path]) == 0
        meta = json.loads((tmp_path / "phase_search.json").read_text())["meta"]
        assert (meta["evaluated"], meta["skipped_above_threshold"]) == (4, 0)


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

    def test_tagged_text_that_does_not_parse_is_2(self, tmp_path, capsys):
        text = bundled_config_path("threepump").read_text()
        config = tmp_path / "tagged.yaml"
        config.write_text(text.replace("half_span: 47", 'half_span: !!int "x1"'))
        capsys.readouterr()
        assert run(["predict-idlers", config, "--out-dir", tmp_path / "o"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        number = text.splitlines().index("  half_span: 47") + 1
        assert strict_json(line)["issues"] == [
            f"grid.half_span (line {number}): expected an integer"
        ]

    def test_alias_chain_key_is_2_with_a_short_issue(self, tmp_path, capsys):
        # spelled out, the key would hold 2**30 scalars
        chain = ["extra:", "  - &a0 [1, 1]"] + [
            f"  - &a{k} [*a{k - 1}, *a{k - 1}]" for k in range(1, 30)
        ]
        config = tmp_path / "keyed.yaml"
        text = bundled_config_path("threepump").read_text()
        config.write_text(text + "\n".join([*chain, "? *a29", ": 1"]) + "\n")
        capsys.readouterr()
        assert run(["predict-idlers", config, "--out-dir", tmp_path / "o"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert len(line) < 1024
        extra = len(text.splitlines()) + 1
        key = f"<sequence key at line {extra + 30}, column 5>"
        assert strict_json(line)["issues"] == [
            f"<top>.extra (line {extra + 1}): unknown key",
            f"<top>.{key} (line {extra + 32}): unknown key",
        ]

    def test_above_threshold_is_3(self, tmp_path, capsys):
        # every tone at ratio 1/2, far past the threshold of the three together
        config = tmp_path / "hot.yaml"
        config.write_text(SMALL.replace("0.004533333333333334", "0.02666666666666667"))
        assert run(["simulate", config, "--out-dir", tmp_path / "o"]) == 3
        # a 0.001 Hz linewidth: the pumps are far past threshold, and the comb
        # reaches 4.7e14 linewidths, which warns; the all-pass pump-off
        # diagonal alone exceeds the condition cap, and no run path inverts it
        narrow = tmp_path / "narrow.yaml"
        narrow.write_text(
            bundled_config_path("threepump").read_text()
            .replace("port_coupling: 112 MHz", "port_coupling: 0.001 Hz")
            .replace("spacing: 0.1 MHz", "spacing: 10.0 GHz")
        )
        target = tmp_path / "target.json"
        target.write_text("[[0, 1]]")
        capsys.readouterr()
        for argv, message in [
            (["sweep-phase"], "above threshold at swept phase 0.000000 rad: parametric "
             "oscillation threshold reached: the system is dynamically unstable"),
            (["search-phases", "--target", target], "every phase combination was above threshold"),
        ]:
            assert run([argv[0], narrow, *argv[1:], "--out-dir", tmp_path / "n"]) == 3
            (line,) = capsys.readouterr().err.splitlines()
            doc = strict_json(line)
            assert doc["message"].startswith(message)
            (warning,) = doc["warnings"]
            assert warning.startswith("mode comb extends 469999999999999.9 linewidths")

    @pytest.mark.parametrize("config_text", [
        # one pump at ratio 0.75, 1.5 times its threshold
        bundled_config_path("onepump").read_text(),
        # -4/0/4 on 13 modes, every tone at ratio 0.75
        SMALL.replace("half_span: 12", "half_span: 6"),
    ], ids=["onepump", "three-tones-13-modes"])
    def test_unstable_pump_is_3_with_one_strict_line(self, tmp_path, capsys, config_text):
        config = tmp_path / "hot.yaml"
        config.write_text(config_text.replace("0.004533333333333334", "0.04"))
        assert run(["simulate", config, "--out-dir", tmp_path / "o"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        doc = strict_json(line)
        assert doc["error"] == "above-threshold"
        assert "dynamically unstable" in doc["message"]

    def test_infinite_condition_estimate_is_null(self, capsys):
        error = AboveThresholdError("singular", condition_estimate=math.inf)
        assert cli._fail("above-threshold", error, cli.EXIT_ABOVE_THRESHOLD, []) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert strict_json(line) == {
            "condition_estimate": None, "error": "above-threshold", "message": "singular"
        }

    def test_failure_after_a_warning_is_one_json_line(self, tmp_path):
        # on resonance, the centre mode at ratio 0.6 is unstable
        config = tmp_path / "wide.yaml"
        config.write_text(WIDE.format(amplitude=0.032))
        done = run_fresh(["covariance", config, "--out-dir", tmp_path / "o"])
        assert done.returncode == 3
        (line,) = done.stderr.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "above-threshold"
        (warning,) = doc["warnings"]
        assert "5.4 linewidths from resonance" in warning

    def test_success_shows_its_warning_as_before(self, tmp_path):
        config = tmp_path / "wide.yaml"
        config.write_text(WIDE.format(amplitude=0.01))
        done = run_fresh(["covariance", config, "--out-dir", tmp_path / "o"])
        assert done.returncode == 0
        assert done.stdout.startswith("covariance: analytic")
        first, source = done.stderr.splitlines()
        assert first.endswith(
            "BandMismatchWarning: mode comb extends 5.4 linewidths from resonance; "
            "the frequency-independent coupling model is doubtful there"
        )
        # the warning points at the CLI line that called into the package
        assert first.split(":")[0].endswith("cli.py")
        assert source.strip() == (
            "return to_quadrature(simulate_scattering(run.grid, run.params, run.scheme))"
        )

    def test_run_size_below_minimum_is_2_with_line(self, tmp_path, capsys):
        config = tmp_path / "steps.yaml"
        config.write_text(SMALL.replace("steps: 16", "steps: 4"))
        assert run(["sweep-phase", config, "--out-dir", tmp_path / "o"]) == 2
        line = SMALL.splitlines().index("  steps: 16") + 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["issues"] == [f"run.steps (line {line}): must be at least 8"]

    @pytest.mark.parametrize(
        "command, flag, least",
        [
            ("sweep-phase", "--steps", 8),
            ("sample-covariance", "--samples", 2),
            ("search-phases", "--phase-grid-points", 4),
        ],
    )
    def test_run_size_flag_below_minimum_names_the_flag(
        self, small_config, tmp_path, capsys, command, flag, least
    ):
        target = tmp_path / "target.json"
        target.write_text("[[0, 1]]")
        extra = ["--target", target] if command == "search-phases" else []
        argv = [command, small_config, flag, str(least - 1), *extra, "--out-dir", tmp_path]
        assert run(argv) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc == {"error": "validation", "message": f"{flag} must be at least {least}"}
        argv[3] = str(least)
        assert run(argv) == 0

    @pytest.mark.parametrize(
        "command, old, new",
        [
            ("sweep-phase", "  steps: 16", "  steps: 2000000000"),
            ("fit", "  fit_grid_points: 6", "  fit_grid_points: 200000"),
        ],
    )
    def test_oversized_run_is_2_with_one_json_line(
        self, small_config, tmp_path, capsys, command, old, new
    ):
        # either size would allocate far beyond memory before the first step
        out = tmp_path / "out"
        assert run(["simulate", small_config, "--out-dir", out]) == 0
        config = tmp_path / "big.yaml"
        config.write_text(SMALL.replace(old, new))
        capsys.readouterr()
        extra = ["--data", out / "s_matrix.cmb"] if command == "fit" else []
        assert run([command, config, *extra, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        key, most = (("steps", 10000) if command == "sweep-phase" else ("fit_grid_points", 500))
        line = SMALL.splitlines().index(old) + 1
        assert json.loads(err)["issues"] == [f"run.{key} (line {line}): must be at most {most}"]

    def test_oversized_phase_search_is_2_before_it_enumerates(self, tmp_path, capsys):
        # four tones leave two gauge-invariant phase combinations, so a grid of
        # 10 000 points would key 1e8 classes before its first simulation
        tone = "  - offset: 8\n    amplitude: 0.004533333333333334\n    phase_deg: 0.0\n"
        config = tmp_path / "four.yaml"
        config.write_text(SMALL.replace("run:\n", tone + "run:\n"))
        target = tmp_path / "target.json"
        target.write_text("[[0, 1]]")
        argv = ["search-phases", config, "--target", target, "--phase-grid-points", "10000",
                "--out-dir", tmp_path / "o"]
        code, peak = run_traced(argv)
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert strict_json(line) == {
            "error": "validation",
            "message": "phase_grid_points: 10000**2 gauge classes exceed 65536",
        }
        assert peak < 8 << 20

    def test_two_tone_search_on_a_huge_grid_simulates_once(self, tmp_path):
        # two tones have one gauge class, so no grid size costs more than it
        tone = "  - offset: 4\n    amplitude: 0.004533333333333334\n    phase_deg: 0.0\n"
        config = tmp_path / "two.yaml"
        config.write_text(SMALL.replace(tone, ""))
        target = tmp_path / "target.json"
        target.write_text("[[0, 1]]")
        argv = ["search-phases", config, "--target", target, "--phase-grid-points",
                str(10**9), "--out-dir", tmp_path / "o"]
        code, peak = run_traced(argv)
        assert code == 0
        meta = json.loads((tmp_path / "o" / "phase_search.json").read_text())["meta"]
        assert meta["evaluated"] == 1
        assert peak < 8 << 20

    def test_oversized_steps_flag_is_2(self, small_config, tmp_path, capsys):
        argv = ["sweep-phase", small_config, "--steps", "2000000000", "--out-dir", tmp_path]
        assert run(argv) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc == {"error": "validation", "message": "--steps must be at most 10000"}

    @pytest.mark.parametrize(
        "key, value", [("fit_g_min", "0"), ("fit_g_min", "-0.002"),
                       ("fit_gamma_min", "0 MHz"), ("fit_gamma_min", "-56 MHz")],
    )
    def test_non_positive_fit_minimum_is_2_with_line(
        self, small_config, tmp_path, capsys, key, value
    ):
        out = tmp_path / "out"
        assert run(["simulate", small_config, "--out-dir", out]) == 0
        old = next(line for line in SMALL.splitlines() if line.startswith(f"  {key}:"))
        config = tmp_path / "bad_fit.yaml"
        config.write_text(SMALL.replace(old, f"  {key}: {value}"))
        capsys.readouterr()
        assert run(["fit", config, "--data", out / "s_matrix.cmb", "--out-dir", out]) == 2
        line = SMALL.splitlines().index(old) + 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["issues"] == [f"run.{key} (line {line}): must be positive"]

    def test_missing_data_file_is_4(self, small_config, tmp_path):
        assert run(["fit", small_config, "--data", tmp_path / "nope.cmb",
                    "--out-dir", tmp_path]) == 4

    @pytest.mark.parametrize(
        "command, tag", [("graph", "raw"), ("graph", "pump_off_rel"), ("fit", "raw")]
    )
    @pytest.mark.parametrize(
        "old, new, grid",
        [
            ("half_span: 12", "half_span: 6",
             "13 modes, center 4200000000.0 Hz, spacing 100000.0 Hz"),
            ("spacing: 0.1 MHz", "spacing: 0.2 MHz",
             "25 modes, center 4200000000.0 Hz, spacing 200000.0 Hz"),
            ("center: 4.2 GHz", "center: 4.3 GHz",
             "25 modes, center 4300000000.0 Hz, spacing 100000.0 Hz"),
        ],
        ids=["half_span", "spacing", "center"],
    )
    def test_data_on_another_grid_is_4(
        self, small_config, tmp_path, capsys, command, tag, old, new, grid
    ):
        data = tmp_path / "s_matrix.cmb"
        assert run(["simulate", small_config, "--out-dir", tmp_path]) == 0
        if tag == "pump_off_rel":
            smat = load_scattering(data)
            write_native_payload(data, smat.matrix, smat.grid, tag)
        other = tmp_path / "other.yaml"
        other.write_text(SMALL.replace(old, new))
        capsys.readouterr()
        assert run([command, other, "--data", data, "--out-dir", tmp_path / "o"]) == 4
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "io"
        assert doc["message"] == (
            "data grid (25 modes, center 4200000000.0 Hz, spacing 100000.0 Hz) differs from "
            f"config grid ({grid})"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["graph", "fit"])
    @pytest.mark.parametrize("kind", ["native", "csv"])
    def test_non_finite_data_is_4_with_one_json_line(
        self, small_config, tmp_path, capsys, command, kind
    ):
        # a NaN in a file that is otherwise whole: the matrix type refuses it
        out = tmp_path / "out"
        assert run(["simulate", small_config, "--out-dir", out]) == 0
        data = out / "s_matrix.cmb"
        if kind == "csv":
            save_scattering_csv(out / "s.csv", load_scattering(data))
            data = out / "s.csv"
            rows = [line.split(",") for line in data.read_text().splitlines()]
            rows[3][5] = "nan"
            data.write_text("".join(",".join(row) + "\n" for row in rows))
        else:
            saved = load_scattering(data)
            matrix = saved.matrix.copy()
            matrix[0, 7] = math.nan
            write_native_payload(data, matrix, saved.grid)
        capsys.readouterr()
        assert run([command, small_config, "--data", data, "--out-dir", tmp_path / "o"]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        doc = strict_json(line)
        assert doc["error"] == "io"
        assert doc["message"] == "matrix: scattering matrix must be finite"
        assert not (tmp_path / "o").exists()

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
        assert run(["graph", small_config, "--data", data, "--out-dir", out]) == 4

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
        assert run(["graph", small_config, "--data", data, "--out-dir", out]) == 4
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
            (["search-phases", "{cfg}", "--target", "{dir}/deep.json"], "io"),
            (["search-phases", "{cfg}", "--target", "{dir}/fraction.json"], "io"),
            (["search-phases", "{cfg}", "--target", "{dir}/boolean.json"], "io"),
            (["search-phases", "{cfg}", "--target", "{dir}/string.json"], "io"),
            (["search-phases", "{cfg}", "--target", "{dir}/huge.json"], "io"),
            (["search-phases", "{cfg}", "--target", "{dir}/long.json"], "io"),
            (["simulate", "{dir}/binary.json"], "io"),
        ],
    )
    def test_malformed_phase_target_or_text_is_one_json_line(
        self, small_config, tmp_path, capsys, argv, error
    ):
        (tmp_path / "ragged.json").write_text('[[0, 1], [2]]')
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe[")
        (tmp_path / "deep.json").write_text("[" * 100_000)
        # an edge index must be a JSON integer, not a number or value int() accepts
        (tmp_path / "fraction.json").write_text("[[1.5, 2.7]]")
        (tmp_path / "boolean.json").write_text("[[true, 2]]")
        (tmp_path / "string.json").write_text('[["3", "4"]]')
        (tmp_path / "huge.json").write_text("[[1e300, 2]]")
        # past Python's 4,300-digit limit, json.loads raises a plain ValueError
        (tmp_path / "long.json").write_text("[[1" + "0" * 5000 + ", 2]]")
        argv = [a.format(cfg=small_config, dir=tmp_path) for a in argv]
        assert run(argv + ["--out-dir", tmp_path / "o"]) == (2 if error == "validation" else 4)
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == error

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-covariance", "{cfg}", "--seed", "abc"],
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


class TestRunSettingFlags:
    """A flag obeys the rules of the ``run`` key it overrides."""

    @pytest.mark.parametrize("command", ["simulate", "graph", "search-phases"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_flag_is_2_before_any_output(
        self, small_config, tmp_path, capsys, command, value
    ):
        target = tmp_path / "target.json"
        target.write_text("[[0, 1]]")
        extra = ["--target", target] if command == "search-phases" else []
        out = tmp_path / "o"
        assert run([command, small_config, f"--threshold-db={value}", *extra,
                    "--out-dir", out]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert strict_json(line) == {
            "error": "validation", "message": "--threshold-db must be finite"
        }
        assert not out.exists()

    # one case per subcommand with a run flag; "missing" names a file that is not there
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--threshold-db", "inf"], "--threshold-db"),
            (["graph", "--threshold-db", "nan", "--data", "missing"], "--threshold-db"),
            (["sweep-phase", "--steps", "2"], "--steps"),
            (["sample-covariance", "--samples", "1"], "--samples"),
            # both flags are bad; the checks follow RunOptions field order
            (["sample-covariance", "--samples", "1", "--seed", "-1"], "--seed"),
            (["search-phases", "--phase-grid-points", "2", "--target", "missing"],
             "--phase-grid-points"),
        ],
    )
    def test_flags_are_checked_before_any_file_is_read(
        self, small_config, tmp_path, capsys, argv, flag
    ):
        out = tmp_path / "o"
        args = [tmp_path / "missing.json" if a == "missing" else a for a in argv[1:]]
        assert run([argv[0], small_config, *args, "--out-dir", out]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "validation"
        assert doc["message"].startswith(f"{flag} must be")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("simulate", "--threshold-db", ".nan"),
            ("sample-covariance", "--seed", "-1"),
            ("sweep-phase", "--steps", "7"),
            ("sweep-phase", "--steps", "10001"),
            ("sample-covariance", "--samples", "1"),
            ("search-phases", "--phase-grid-points", "3"),
        ],
    )
    def test_flag_and_run_key_report_the_same_problem(
        self, small_config, tmp_path, capsys, command, flag, value
    ):
        target = tmp_path / "target.json"
        target.write_text("[[0, 1]]")
        extra = ["--target", target] if command == "search-phases" else []
        flag_value = "nan" if value == ".nan" else value
        assert run([command, small_config, f"{flag}={flag_value}", *extra,
                    "--out-dir", tmp_path / "a"]) == 2
        from_flag = json.loads(capsys.readouterr().err)["message"]
        key = flag[2:].replace("-", "_")
        line = f"  {key}: {value}"
        config = tmp_path / "bad.yaml"
        config.write_text(re.sub(rf"  {key}: .*", line, SMALL) if key in SMALL else SMALL + line)
        assert run([command, config, *extra, "--out-dir", tmp_path / "b"]) == 2
        (issue,) = json.loads(capsys.readouterr().err)["issues"]
        assert from_flag.removeprefix(flag) == issue.partition("):")[2]


class TestEachInputOnce:
    """The config is named once, as CONFIG, and only ``sample-covariance`` takes ``--seed``."""

    # the input file each subcommand needs to run at all
    EXTRA = {"graph": ["--data", "s_matrix.cmb"], "fit": ["--data", "s_matrix.cmb"],
             "search-phases": ["--target", "target.json"]}

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        (root / "small.yaml").write_text(SMALL)
        (root / "target.json").write_text("[[0, 1]]")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["simulate", root / "small.yaml", "--out-dir", root]) == 0
        return root

    @pytest.mark.parametrize(
        "command, case",
        [(c, "--config") for c in sorted(cli._COMMANDS)]
        + [(c, "--seed") for c in sorted(cli._COMMANDS) if c != "sample-covariance"]
        + [(c, "no CONFIG") for c in sorted(cli._COMMANDS)]
        + [(c, "--format") for c in ("fit", "graph")],
    )
    def test_second_spelling_or_missing_config_is_2_before_any_output(
        self, root, tmp_path, capsys, command, case
    ):
        config = root / "small.yaml"
        extra = [root / name if name.endswith((".cmb", ".json")) else name
                 for name in self.EXTRA.get(command, [])]
        argv, message = {
            "--config": ([config, "--config", config], "unrecognized arguments: --config"),
            "--seed": ([config, "--seed", "1"], "unrecognized arguments: --seed 1"),
            "no CONFIG": ([], "the following arguments are required: CONFIG"),
            # a data file says what it holds
            "--format": ([config, "--format", "generic-csv"],
                         "unrecognized arguments: --format generic-csv"),
        }[case]
        out = tmp_path / "o"
        assert run([command, *argv, *extra, "--out-dir", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        doc = strict_json(line)
        assert doc["error"] == "validation"
        assert message in doc["message"]
        assert not out.exists()

    def test_only_the_draw_records_a_seed(self, root, tmp_path):
        config = root / "small.yaml"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["sample-covariance", config, "--samples", "2", "--seed", "3",
                        "--out-dir", tmp_path]) == 0
            assert run(["search-phases", config, "--target", root / "target.json",
                        "--out-dir", tmp_path]) == 0
        meta = (tmp_path / "covariance_mc.csv").read_text().splitlines()[:6]
        assert "# samples: 2" in meta and "# seed: 3" in meta
        for report in (root / "topology.json", tmp_path / "phase_search.json"):
            assert "seed" not in json.loads(report.read_text())["meta"]


def _retag_sidecar(path, tag):
    meta = json.loads(sidecar_path(path).read_text())
    sidecar_path(path).write_text(json.dumps({**meta, "normalization": tag}))


def _csv_tagged(tag):
    def write(path, smat):
        save_scattering_csv(path, smat)
        _retag_sidecar(path, tag)
    return write


def _native_tagged(tag):
    return lambda path, smat: write_native_payload(path, smat.matrix, smat.grid, tag)


class TestDataRecognition:
    """``--data`` is read as its first bytes say, whatever the file's name."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("recognition")
        (root / "small.yaml").write_text(SMALL)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["simulate", root / "small.yaml", "--out-dir", root / "sim"]) == 0
        return root

    @staticmethod
    def graph_bytes(root, data, out):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["graph", root / "small.yaml", "--data", data, "--out-dir", out]) == 0
        return [(out / name).read_bytes() for name in ("graph.gv", "topology.json")]

    @pytest.mark.parametrize(
        "name, write",
        [
            ("native.csv", save_scattering),
            ("csv.cmb", save_scattering_csv),
            ("native_rel.cmb", _native_tagged("pump_off_rel")),
            ("csv_rel.csv", _csv_tagged("pump_off_rel")),
        ],
        ids=["native-named-csv", "csv-named-cmb", "native-pump-off-rel", "csv-pump-off-rel"],
    )
    def test_graph_reads_either_kind_and_tag_alike(self, root, tmp_path, name, write):
        raw = root / "sim" / "s_matrix.cmb"
        data = tmp_path / name
        write(data, load_scattering(raw))
        want = self.graph_bytes(root, raw, tmp_path / "raw")
        assert self.graph_bytes(root, data, tmp_path / "o") == want

    @pytest.mark.parametrize("case", ["empty", "flipped-magic"])
    def test_file_of_neither_kind_is_4_naming_both(self, root, tmp_path, capsys, case):
        data = tmp_path / "s.cmb"
        blob = bytearray((root / "sim" / "s_matrix.cmb").read_bytes())
        blob[3] ^= 0x20
        data.write_bytes(b"" if case == "empty" else bytes(blob))
        out = tmp_path / "o"
        assert run(["graph", root / "small.yaml", "--data", data, "--out-dir", out]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert strict_json(line) == {
            "error": "io",
            "message": f"{data} is neither a native container (it does not start with "
            f"b'CMBSCAT1') nor generic CSV ({data}.meta.json not found)",
        }
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, write", [("s.cmb", _native_tagged("guessed")), ("s.csv", _csv_tagged("guessed"))],
        ids=["native", "csv"],
    )
    def test_unknown_tag_is_4(self, root, tmp_path, capsys, name, write):
        data = tmp_path / name
        write(data, load_scattering(root / "sim" / "s_matrix.cmb"))
        assert run(["fit", root / "small.yaml", "--data", data, "--out-dir", tmp_path / "o"]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert strict_json(line) == {"error": "io", "message": "unknown normalization tag 'guessed'"}


# 3 modes and one tone that couples none of them: a pump-off run whose
# sweep has no intermodulation product to track
THREE = """
device:
  resonance_frequency: 4.2 GHz
  port_coupling: 112 MHz
grid:
  center: 4.2 GHz
  spacing: 0.1 MHz
  half_span: 1
scheme:
  - offset: 10
    amplitude: 0.0045
run:
  steps: 8
  seed: 5
  fit_grid_points: 4
"""

_THREE_SHA = "83df247ea287bf8b6a44b4eed7ce6b6ab4301f9c097dcb3a41a456bb388b8a96"


def _same_cell(got, want):
    """Equal text, or numbers that differ only in the last bits, which BLAS
    and the summation order decide."""
    try:
        return got == want or float(got) == pytest.approx(float(want), rel=1e-9, abs=1e-15)
    except ValueError:
        return False


def assert_starts_with(path, want):
    """``path`` begins with the lines of ``want``, cell for cell."""
    got = path.read_text().splitlines()[: len(want)]
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        got_cells, want_cells = re.split(r",|: ", got_line), re.split(r",|: ", want_line)
        assert len(got_cells) == len(want_cells), got_line
        assert all(map(_same_cell, got_cells, want_cells)), (got_line, want_line)


class TestTableLayout:
    """Every CSV table: sorted meta lines, a header, one labelled line per row."""

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("three")
        config = root / "three.yaml"
        config.write_text(THREE)
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("simulate", "covariance", "sweep-phase"):
                assert run([command, config, "--out-dir", root]) == 0
            assert run(["fit", config, "--data", root / "s_matrix.cmb", "--out-dir", root]) == 0
        return root

    def meta(self, *lines):
        return [f"# config_sha256: {_THREE_SHA}", *lines, "# tool: combscatter",
                f"# version: {__version__}"]

    def test_db_matrix(self, out):
        assert_starts_with(out / "db_matrix.csv", [
            *self.meta(),
            "row\\col,a[-1],a*[-1],a[0],a*[0],a[1],a*[1]",
            "a[-1],0.0,-240.0,-240.0,-240.0,-240.0,-240.0",
        ])

    def test_covariance(self, out):
        assert_starts_with(out / "covariance.csv", [
            *self.meta("# symplectic_defect: 1.1102230246251565e-16"),
            "row\\col,x[-1],p[-1],x[0],p[0],x[1],p[1]",
            "x[-1],0.49999999999999994,-9.894330692639654e-20,0.0,0.0,0.0,0.0",
        ])

    def test_fit_surface(self, out):
        assert_starts_with(out / "fit_surface.csv", [
            *self.meta(),
            "g\\gamma,351858377.2020568,703716754.4041137,1055575131.6061704,1407433508.8082273",
            "0.0001,0.007142800200993408,4.44092597968927e-16,0.002380946897628626,"
            "0.0035714214536530535",
        ])

    def test_sweep_without_tracks_keeps_one_row_per_phase(self, out):
        assert (out / "sweep.csv").read_text().splitlines() == [
            *self.meta("# evaluated: 1"),
            "phase_rad",
            "0.0",
            "0.7853981633974483",
            "1.5707963267948966",
            "2.356194490192345",
            "3.141592653589793",
            "3.9269908169872414",
            "4.71238898038469",
            "5.497787143782138",
        ]


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


class TestCorruptedData:
    @pytest.fixture(scope="class")
    def simulated(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corrupted")
        (root / "small.yaml").write_text(SMALL)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["simulate", root / "small.yaml", "--out-dir", root]) == 0
        return root / "small.yaml", (root / "s_matrix.cmb").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_or_bit_flipped_file_is_4(self, simulated, data):
        config, blob = simulated
        if data.draw(st.booleans()):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
            event("truncated")
        else:
            flipped = bytearray(blob)
            bits = st.sets(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=3)
            for bit in data.draw(bits):
                flipped[bit // 8] ^= 1 << bit % 8
            blob = bytes(flipped)
            event("flipped in the header" if blob[:64] != simulated[1][:64] else "flipped")
        command = data.draw(st.sampled_from(["graph", "fit"]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.cmb"
            path.write_bytes(blob)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([command, config, "--data", path, "--out-dir", Path(tmp) / "out"])
        assert code == 4
        (line,) = err.getvalue().splitlines()
        assert json.loads(line)["error"] == "io"


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
    # badmeta.csv's sidecar is a JSON list; garbage.bin has the magic past its start
    "--data": (["simulated.cmb", "simulated.csv"],
               ["missing.cmb", "garbage.bin", "badmeta.csv"]),
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
    (root / "badmeta.csv").write_text("0j,0j\n0j,0j\n")
    sidecar_path(root / "badmeta.csv").write_text(
        json.dumps(["basis", "center_hz", "n_modes", "normalization", "spacing_hz"])
    )
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
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            config = _write_inputs(root, config_text, "--data" in values)
            argv = [command, str(config), "--out-dir", str(root / "out")]
            for flag, value in values.items():
                argv.append(f"{flag}={root / value if flag in ('--data', '--target') else value}")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 0:
                for report in (root / "out").rglob("*.json"):
                    strict_json(report.read_text())
        event(f"exit {code}{' with --data' * ('--data' in values)}")
        assert code in (0, 2, 3, 4), argv
        if code:
            (line,) = err.getvalue().splitlines()
            assert strict_json(line)["error"] in ("validation", "above-threshold", "io", "internal")
        else:
            assert err.getvalue() == ""
