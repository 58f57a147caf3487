"""Import boundaries: each entry point loads only the modules its job uses.

The subprocess tests start a fresh interpreter, run one entry point there
and report which of the heavy third-party modules ended up in
``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import combscatter
from combscatter import parse_config, simulate_scattering
from combscatter.datafiles import save_scattering

HEAVY = ("networkx", "numpy", "yaml")

# A fresh interpreter runs ``import combscatter`` (argv null) or
# ``cli.main(argv)`` and prints its exit code and the heavy modules loaded.
PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import combscatter
else:
    import combscatter.cli
    try:
        code = combscatter.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "loaded": [m for m in HEAVY if m in sys.modules]}))
""".replace("HEAVY", repr(HEAVY))

SMALL = """
device:
  resonance_frequency: 4.2 GHz
  port_coupling: 112 MHz
grid:
  center: 4.2 GHz
  spacing: 0.1 MHz
  half_span: 6
scheme:
  - offset: -4
    amplitude: 0.0045
  - offset: 0
    amplitude: 0.0045
  - offset: 4
    amplitude: 0.0045
run:
  steps: 8
  samples: 500
  swept_tone: 1
  fit_g_min: 0.002
  fit_g_max: 0.008
  fit_grid_points: 4
"""

# The 65 public names of the package, written out so that the lazy export
# table cannot drop or add one unnoticed.
PUBLIC_NAMES = {
    "AboveThresholdError", "BandMismatchWarning", "BasisInconsistencyError",
    "CombScatterError", "ConfigError", "CorrelationGraph", "Coupling", "CouplingSet",
    "CovarianceMatrix", "DataFormatError", "DegenerateNormalizationError", "DeviceParams",
    "ExperimentConfig", "FitInfeasibleError", "FitResult", "GraphEdge",
    "IntermodPrediction", "InternalConsistencyError", "InvalidArgumentError", "ModeGrid",
    "Normalization", "PhaseSearchResult", "PhaseSweepResult", "PumpScheme", "PumpTone",
    "QuadratureScattering", "Quantity", "RunOptions", "ScatteringMatrix", "SweepTrack",
    "SystemMatrix", "ToneSpec", "TopologyLabel", "TopologyReport", "__version__",
    "assemble_system", "build_mode_grid", "bundled_config_path", "classify_topology",
    "connected_components", "export_dot", "extract_graph", "fit_parameters",
    "magnitude_db", "mode_level_db", "normalize_pump_off", "parse_config",
    "particle_hole_defect", "phase_sweep", "predicted_intermod_indices",
    "propagate_covariance", "pump_off_normalized_db", "pump_off_scattering",
    "resolve_couplings", "sample_covariance", "scale_for_ratio", "scattering_matrix",
    "search_phases", "serialize_config", "simulate_scattering", "symplectic_defect",
    "symplectic_form", "to_quadrature", "topology_report", "vacuum_covariance",
}


def probe(argv):
    """Exit code and heavy modules loaded by one fresh-interpreter run."""
    src = str(Path(combscatter.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    return result["code"], set(result["loaded"])


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small config and a native data file simulated from it."""
    root = tmp_path_factory.mktemp("imports")
    config = root / "small.yaml"
    config.write_text(SMALL)
    parsed = parse_config(SMALL)
    s = simulate_scattering(parsed.to_mode_grid(), parsed.to_device_params(), parsed.to_scheme())
    save_scattering(root / "s.cmb", s)
    return root


class TestFreshInterpreter:
    def test_import_package_loads_no_heavy_module(self):
        assert probe(None) == (None, set())

    def test_help_loads_no_heavy_module(self):
        assert probe(["--help"]) == (0, set())

    def test_rejected_command_line_loads_no_heavy_module(self, small):
        assert probe(["predict-idlers", str(small / "small.yaml"), "--samples", "5"]) == (2, set())

    def test_invalid_config_loads_no_networkx_or_numpy(self, small):
        bad = small / "bad.yaml"
        bad.write_text("device:\n  resonance_frequency: 4.2\n")
        code, loaded = probe(["simulate", str(bad), "--out-dir", str(small / "bad")])
        assert code == 2
        assert loaded.isdisjoint({"networkx", "numpy"})

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict-idlers"],
            ["covariance"],
            ["sample-covariance"],
            ["sweep-phase"],
            ["fit", "--data", "{root}/s.cmb"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_subcommand_without_graphs_loads_no_networkx(self, small, argv):
        command, *flags = [a.format(root=small) for a in argv]
        out = small / command
        code, loaded = probe([command, str(small / "small.yaml"), *flags, "--out-dir", str(out)])
        assert code == 0
        assert "networkx" not in loaded
        assert any(out.iterdir())

    def test_simulate_runs_end_to_end(self, small):
        out = small / "simulate"
        code, loaded = probe(["simulate", str(small / "small.yaml"), "--out-dir", str(out)])
        assert code == 0
        assert loaded == set(HEAVY)
        names = {p.name for p in out.iterdir()}
        assert names == {"s_matrix.cmb", "db_matrix.csv", "graph.gv", "topology.json"}


class TestLazyExports:
    def test_all_is_unchanged(self):
        assert set(combscatter.__all__) == PUBLIC_NAMES
        assert len(combscatter.__all__) == len(PUBLIC_NAMES)

    def test_every_name_resolves_and_is_listed_by_dir(self):
        for name in combscatter.__all__:
            assert getattr(combscatter, name) is not None
        assert PUBLIC_NAMES <= set(dir(combscatter))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from combscatter import *", namespace)
        assert PUBLIC_NAMES <= set(namespace)
        assert namespace["ModeGrid"] is combscatter.model.ModeGrid

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            combscatter.no_such_name
