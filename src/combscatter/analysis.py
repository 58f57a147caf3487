"""Pump-phase interference sweeps, parameter fitting, and phase search.

Sweep points and fit-grid cells are mutually independent pure evaluations;
results are always gathered in index order so output is deterministic
regardless of how callers parallelize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AboveThresholdError, FitInfeasibleError, InvalidArgumentError
from .model import (
    DeviceParams,
    ModeGrid,
    PumpScheme,
    PumpTone,
    check_band,
    predicted_intermod_indices,
)
from .scattering import (
    DEFAULT_CONDITION_CAP,
    ScatteringMatrix,
    _block_index,
    _block_pieces,
    _gain,
    _invert_blocks,
    _pump_off_diagonal,
    magnitude_db,
    normalize_pump_off,
    pump_off_scattering,
    simulate_scattering,
)

if TYPE_CHECKING:
    from .graphs import CorrelationGraph, TopologyReport

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SweepTrack:
    """Magnitude of one intermodulation product across a phase sweep.

    ``order`` is 2 for signal-with-one-pump products and 3 for
    signal-with-two-pumps products.  ``pump_indices`` labels the generating
    tone (2nd order) or every ordered tone pair landing on this mode (3rd
    order, the interfering paths).  Second-order products emerge on the
    conjugate row of their mode, third-order products on the amplitude row.
    """

    order: int
    pump_indices: tuple
    mode_index: int
    magnitudes_db: np.ndarray

    def __post_init__(self):
        mags = np.asarray(self.magnitudes_db, dtype=float)
        mags.flags.writeable = False
        object.__setattr__(self, "magnitudes_db", mags)

    @property
    def label(self) -> str:
        """Column-safe track name (no commas, CSV headers embed it)."""
        if self.order == 2:
            return f"o2[k={self.pump_indices[0]}]@{self.mode_index}"
        paths = "+".join(f"({k};{m})" for k, m in self.pump_indices)
        return f"o3[{paths}]@{self.mode_index}"


@dataclass(frozen=True)
class PhaseSweepResult:
    swept_tone: int
    signal_index: int
    phases: np.ndarray
    tracks: tuple[SweepTrack, ...]

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)

    def track(self, order: int, mode_index: int) -> SweepTrack:
        for t in self.tracks:
            if t.order == order and t.mode_index == mode_index:
                return t
        raise KeyError(f"no order-{order} track at mode {mode_index}")


def phase_sweep(
    base_scheme: PumpScheme,
    swept_tone: int,
    steps: int,
    signal_index: int,
    grid: ModeGrid,
    params: DeviceParams,
) -> PhaseSweepResult:
    """Sweep one tone's phase and record every intermodulation product.

    The swept phases are ``steps`` equally spaced values covering a full
    turn, endpoint excluded.  At each phase the scattering matrix is
    recomputed and the pump-off-normalized dB magnitude of every 2nd- and
    3rd-order product of the driven mode is recorded.  The drive column is
    the signal mode's amplitude column; idlers are read from conjugate
    rows, two-pump products from amplitude rows.

    Raises the above-threshold error annotated with the offending phase if
    any sweep point crosses the oscillation threshold.
    """
    if steps < 8:
        raise InvalidArgumentError("steps must be at least 8")
    if not 0 <= swept_tone < len(base_scheme.tones):
        raise InvalidArgumentError(f"swept tone index {swept_tone} out of range")
    prediction = predicted_intermod_indices(signal_index, base_scheme, grid)
    offsets = base_scheme.offsets
    second_tracks = [
        (k, off - signal_index)
        for k, off in enumerate(offsets)
        if grid.contains(off - signal_index)
    ]
    third_paths: dict[int, list[tuple[int, int]]] = {idx: [] for idx, _ in prediction.third_order}
    for ka, a in enumerate(offsets):
        for kb, b in enumerate(offsets):
            if ka == kb:
                continue
            idx = a - b + signal_index
            if idx in third_paths:
                third_paths[idx].append((ka, kb))

    phases = np.array([TWO_PI * k / steps for k in range(steps)])
    col = grid.a_slot(signal_index)
    third_modes = sorted(third_paths)
    rows = [grid.a_conj_slot(m) for _, m in second_tracks] + [grid.a_slot(m) for m in third_modes]
    reference = abs(_pump_off_diagonal(grid, params)[0][col])
    gain = _gain(params.port_coupling)

    # only the swept tone's pieces change from step to step
    pieces = _block_pieces(grid, params, base_scheme)
    swept = base_scheme.tones[swept_tone]
    fixed = pieces.stacks(
        params.port_coupling,
        pieces.coupling(
            [0.0 if t == swept_tone else tone.strength for t, tone in enumerate(base_scheme.tones)]
        ),
    )
    # the driven column lies in one block: its group, row in the group and position
    for group, block in enumerate(pieces.blocks):
        hits = np.argwhere(block == col)
        if len(hits):
            member, position = hits[0]
            break
    slots = pieces.blocks[group][member]

    data = np.empty((len(rows), steps))
    column = np.zeros(2 * grid.n_modes, dtype=complex)
    for step, phase in enumerate(phases):
        strength = PumpTone(swept.offset, swept.amplitude, float(phase)).strength
        stacks = [
            stack + strength * amplitude + np.conj(strength) * conjugate
            for stack, amplitude, conjugate in zip(
                fixed, pieces.amplitude[swept_tone], pieces.conjugate[swept_tone]
            )
        ]
        try:
            inverses, _ = _invert_blocks(stacks, DEFAULT_CONDITION_CAP)
        except AboveThresholdError as exc:
            raise AboveThresholdError(
                f"above threshold at swept phase {phase:.6f} rad: {exc}",
                condition_estimate=exc.condition_estimate,
                phase=float(phase),
            ) from exc
        column[slots] = gain * inverses[group][member, :, position]
        column[col] -= 1.0
        data[:, step] = magnitude_db(column[rows] / reference)

    second_data, third_data = data[: len(second_tracks)], data[len(second_tracks) :]
    tracks = [
        SweepTrack(2, (k,), mode, second_data[t]) for t, (k, mode) in enumerate(second_tracks)
    ]
    tracks += [
        SweepTrack(3, tuple(third_paths[mode]), mode, third_data[t])
        for t, mode in enumerate(third_modes)
    ]
    return PhaseSweepResult(
        swept_tone=swept_tone,
        signal_index=signal_index,
        phases=phases,
        tracks=tuple(tracks),
    )


@dataclass(frozen=True)
class FitResult:
    """Grid-plus-refinement fit of pump strength and port coupling.

    ``surface`` samples the distance on the (strength, coupling) grid given
    by ``g_values`` x ``gamma_values``; above-threshold cells hold +inf.
    ``ridge_ratio`` is the identifiable dimensionless combination
    (resonance frequency times strength over coupling) at the optimum.
    """

    best_g: float
    best_gamma: float
    distance: float
    surface: np.ndarray
    g_values: np.ndarray
    gamma_values: np.ndarray
    ridge_ratio: float

    def __post_init__(self):
        for name in ("surface", "g_values", "gamma_values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def fit_parameters(
    s_measured,
    grid: ModeGrid,
    scheme_shape: PumpScheme,
    g_range: tuple[float, float],
    gamma_range: tuple[float, float],
    grid_points: int,
    refine_steps: int = 60,
    condition_cap: float = DEFAULT_CONDITION_CAP,
) -> FitResult:
    """Least-squares fit of the balanced pump strength and port coupling.

    The model pins the resonance at the grid center (pumps are placed
    symmetrically around twice the comb center), sets every tone of
    ``scheme_shape`` to the common strength ``g`` under test, and compares
    complex scattering matrices normalized to their own pump-off reference,
    summing squared entry differences.  The coarse grid scan is followed by
    a local coordinate-descent pass around the best cell.

    Only the pump strength and the port coupling change from cell to cell,
    so the blocks of the system are split once into their fixed and
    strength-scaled pieces; each cell recombines and inverts them, and the
    distance is summed block by block (the model is zero off the blocks).

    Above-threshold cells score +inf rather than raising; if the whole
    surface is infinite the fit is infeasible and raises.
    """
    measured = s_measured.matrix if isinstance(s_measured, ScatteringMatrix) else np.asarray(s_measured, dtype=complex)
    if measured.shape != (2 * grid.n_modes, 2 * grid.n_modes):
        raise InvalidArgumentError("measured matrix does not match the grid dimension")
    if grid_points < 4:
        raise InvalidArgumentError("grid_points must be at least 4")
    g_lo, g_hi = map(float, g_range)
    gamma_lo, gamma_hi = map(float, gamma_range)
    if not (0 < g_lo < g_hi and 0 < gamma_lo < gamma_hi):
        raise InvalidArgumentError("fit ranges must be positive and increasing")

    omega0 = grid.center_frequency
    # every cell's stack is detuning + gamma/2 * I + g * coupling, from
    # pieces built once at the top of the coupling range
    pieces = _block_pieces(grid, DeviceParams(omega0, gamma_hi), scheme_shape)
    coupling = pieces.coupling(
        [complex(math.cos(t.phase), math.sin(t.phase)) for t in scheme_shape.tones]
    )
    indices = [_block_index(block) for block in pieces.blocks]
    measured_blocks = [measured[index] for index in indices]
    outside = np.ones(measured.shape, dtype=bool)
    for index in indices:
        outside[index] = False
    # the model vanishes off the blocks, where the distance is the data's own
    outside_norm = float(np.sum(np.abs(measured[outside]) ** 2))

    def evaluate(g: float, gamma: float) -> float:
        if g <= 0 or gamma <= 0:
            return np.inf
        params = DeviceParams(resonance_frequency=omega0, port_coupling=gamma)
        check_band(grid, params)
        try:
            inverses, _ = _invert_blocks(
                pieces.stacks(gamma, [g * c for c in coupling]), condition_cap
            )
        except AboveThresholdError:
            return np.inf
        reference = np.abs(_pump_off_diagonal(grid, params)[0])
        gain = _gain(gamma)
        models = [
            (gain * inverse - np.eye(block.shape[1])) / reference[block][:, np.newaxis, :]
            for block, inverse in zip(pieces.blocks, inverses)
        ]
        # one-time global phase alignment: instruments carry an arbitrary
        # electrical delay, so the mean diagonal phase is referenced out
        inner = sum(
            np.sum(data.diagonal(0, 1, 2) * np.conj(model.diagonal(0, 1, 2)))
            for data, model in zip(measured_blocks, models)
        )
        rotation = inner / abs(inner) if abs(inner) > 0 else 1.0
        inside = sum(
            np.sum(np.abs(data - rotation * model) ** 2)
            for data, model in zip(measured_blocks, models)
        )
        return float(np.sqrt(outside_norm + inside))

    g_values = np.linspace(g_lo, g_hi, grid_points)
    gamma_values = np.linspace(gamma_lo, gamma_hi, grid_points)
    surface = np.empty((grid_points, grid_points))
    for a, g in enumerate(g_values):
        for b, gamma in enumerate(gamma_values):
            surface[a, b] = evaluate(g, gamma)
    if not np.any(np.isfinite(surface)):
        raise FitInfeasibleError("every fit cell is above the oscillation threshold")

    a0, b0 = np.unravel_index(np.argmin(surface), surface.shape)
    best_g, best_gamma = float(g_values[a0]), float(gamma_values[b0])
    best_d = float(surface[a0, b0])

    step_g = (g_hi - g_lo) / (grid_points - 1)
    step_gamma = (gamma_hi - gamma_lo) / (grid_points - 1)
    for _ in range(refine_steps):
        improved = False
        for dg, dgamma in ((step_g, 0.0), (-step_g, 0.0), (0.0, step_gamma), (0.0, -step_gamma)):
            d = evaluate(best_g + dg, best_gamma + dgamma)
            if d < best_d:
                best_g, best_gamma, best_d = best_g + dg, best_gamma + dgamma, d
                improved = True
        if not improved:
            step_g *= 0.5
            step_gamma *= 0.5
            if step_g < 1e-6 * (g_hi - g_lo):
                break

    return FitResult(
        best_g=best_g,
        best_gamma=best_gamma,
        distance=best_d,
        surface=surface,
        g_values=g_values,
        gamma_values=gamma_values,
        ridge_ratio=omega0 * best_g / best_gamma,
    )


@dataclass(frozen=True)
class PhaseSearchResult:
    best_phases: tuple[float, ...]
    objective: int
    graph: CorrelationGraph
    report: TopologyReport


def search_phases(
    scheme: PumpScheme,
    target_adjacency,
    phase_grid_points: int,
    threshold_db: float,
    grid: ModeGrid,
    params: DeviceParams,
    swept_tones=None,
) -> PhaseSearchResult:
    """Exhaustive phase-grid search for a target correlation topology.

    Sweeps the phases of ``swept_tones`` (default: every tone) over a
    uniform grid of ``phase_grid_points`` values per tone and scores each
    combination by the symmetric-difference edge count between the achieved
    thresholded graph and the target adjacency.  Ties break toward the
    lexicographically smallest phase vector, so the search is deterministic;
    combinations that cross the oscillation threshold are skipped.  The
    least-bad phases are returned even when the target is unreachable.
    """
    # graphs loads networkx, which only this function of the module needs
    from .graphs import extract_graph, topology_report

    if phase_grid_points < 4:
        raise InvalidArgumentError("phase_grid_points must be at least 4")
    if swept_tones is None:
        swept_tones = tuple(range(len(scheme.tones)))
    swept_tones = tuple(swept_tones)
    for t in swept_tones:
        if not 0 <= t < len(scheme.tones):
            raise InvalidArgumentError(f"swept tone index {t} out of range")

    target = set()
    for i, j in target_adjacency:
        if i == j:
            continue
        if not (grid.contains(i) and grid.contains(j)):
            raise InvalidArgumentError(f"target edge ({i}, {j}) leaves the grid")
        target.add((min(i, j), max(i, j)))

    s_off = pump_off_scattering(grid, params)
    grid_phases = [TWO_PI * k / phase_grid_points for k in range(phase_grid_points)]

    best = None  # (objective, phases)
    combo = [0] * len(swept_tones)
    total = phase_grid_points ** len(swept_tones)
    for flat in range(total):
        rest = flat
        for pos in range(len(swept_tones) - 1, -1, -1):
            combo[pos] = rest % phase_grid_points
            rest //= phase_grid_points
        phases = tuple(grid_phases[c] for c in combo)
        trial = scheme
        for tone, phase in zip(swept_tones, phases):
            trial = trial.with_phase(tone, phase)
        try:
            s_on = simulate_scattering(grid, params, trial)
        except AboveThresholdError:
            continue
        db = normalize_pump_off(s_on, s_off)
        achieved = extract_graph(db, grid, threshold_db).edge_pairs()
        objective = len(achieved ^ target)
        if best is None or objective < best[0]:
            best = (objective, phases)
        if best[0] == 0:
            # lexicographic enumeration: the first zero is the lex-smallest
            break
    if best is None:
        raise AboveThresholdError("every phase combination was above threshold")

    final = scheme
    for tone, phase in zip(swept_tones, best[1]):
        final = final.with_phase(tone, phase)
    db = normalize_pump_off(simulate_scattering(grid, params, final), s_off)
    graph = extract_graph(db, grid, threshold_db)
    return PhaseSearchResult(
        best_phases=best[1],
        objective=best[0],
        graph=graph,
        report=topology_report(graph),
    )
