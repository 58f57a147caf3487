"""Multi-pump parametric mode scattering in a driven frequency comb.

Simulates the multi-mode scattering matrix of a parametrically pumped
harmonic oscillator measured on an orthogonal frequency comb, propagates
Gaussian covariances through it, extracts thresholded correlation graphs,
reproduces pump-phase interference, and fits model parameters to measured
scattering data.

Importing the package loads no submodule: each exported name imports its
module on first use (PEP 562), so numpy and PyYAML load only when a name
that needs them is used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": "FitResult PhaseSearchResult PhaseSweepResult SweepTrack fit_parameters "
    "phase_sweep search_phases",
    "config": "ExperimentConfig Quantity RunOptions ToneSpec bundled_config_path "
    "parse_config serialize_config",
    "errors": "AboveThresholdError BasisInconsistencyError CombScatterError ConfigError "
    "DataFormatError DegenerateNormalizationError FitInfeasibleError "
    "InternalConsistencyError InvalidArgumentError",
    "gaussian": "CovarianceMatrix QuadratureScattering propagate_covariance "
    "sample_covariance symplectic_defect to_quadrature vacuum_covariance",
    "graphs": "CorrelationGraph GraphEdge TopologyLabel TopologyReport export_dot "
    "extract_graph mode_level_db topology_report",
    "model": "BandMismatchWarning Coupling CouplingSet DeviceParams IntermodPrediction "
    "ModeGrid PumpScheme PumpTone predicted_intermod_indices resolve_couplings",
    "scattering": "ScatteringMatrix SystemMatrix assemble_system magnitude_db "
    "normalize_pump_off particle_hole_defect pump_off_scattering scale_for_ratio "
    "scattering_matrix simulate_scattering",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
