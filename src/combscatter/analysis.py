"""Pump-phase interference sweeps, parameter fitting, and phase search.

Sweep points and fit-grid cells are mutually independent pure evaluations;
results are always gathered in index order so output is deterministic
regardless of how callers parallelize.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AboveThresholdError, FitInfeasibleError, InvalidArgumentError
from .graphs import CorrelationGraph, TopologyReport, extract_graph, topology_report
from .model import (
    MAX_FIT_GRID_POINTS,
    MAX_PHASE_CLASSES,
    MAX_SWEEP_STEPS,
    MIN_GRID_POINTS,
    MIN_SWEEP_STEPS,
    DeviceParams,
    ModeGrid,
    PumpScheme,
    _intermod_paths,
    _tone_strength,
    gauge_invariant_basis,
)
from .scattering import (
    CONDITION_CAP,
    ScatteringMatrix,
    _block_pieces,
    _disc_bound,
    _frozen,
    _invert_blocks,
    _scattering,
    _spectral_floor,
    magnitude_db,
)

TWO_PI = 2.0 * math.pi

# A sweep solves the half-size system of its driven block for this many
# bytes of stacked complements at a time: 113 steps on 24 conjugate slots,
# so a 72-step sweep of a 95-mode -4/0/4 comb is one solve, while a
# 10,000-step sweep holds a few MB.  A complement larger than this, as on
# a 1,001-mode comb, is solved alone.
_CHUNK_BYTES = 1 << 20

# The fit's descent stops after this many rounds if its steps have not
# shrunk to convergence by then.
REFINE_ROUNDS = 60


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
        object.__setattr__(self, "magnitudes_db", _frozen(self.magnitudes_db, float))

    @property
    def label(self) -> str:
        """Column-safe track name (no commas, CSV headers embed it)."""
        if self.order == 2:
            return f"o2[k={self.pump_indices[0]}]@{self.mode_index}"
        paths = "+".join(f"({k};{m})" for k, m in self.pump_indices)
        return f"o3[{paths}]@{self.mode_index}"


@dataclass(frozen=True)
class PhaseSweepResult:
    """The tracks of a phase sweep; ``evaluated`` counts the gauge classes solved."""

    swept_tone: int
    signal_index: int
    phases: np.ndarray
    tracks: tuple[SweepTrack, ...]
    evaluated: int

    def __post_init__(self):
        object.__setattr__(self, "phases", _frozen(self.phases, float))

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
    turn, endpoint excluded.  At each phase the dB magnitude of every 2nd-
    and 3rd-order product of the driven mode is recorded, relative to the
    all-pass pump-off reflection, which is 1: one track per on-grid product
    of ``_intermod_paths``, the indices and order the idler prediction
    reports, labelled with the tone or ordered tone pairs that reach it.
    The drive column is the signal mode's amplitude column; idlers are read
    from conjugate rows, two-pump products from amplitude rows.

    Only that column is computed.  It lies in one block of the system,
    ``[[D, K], [K^H, D_c]]`` with its amplitude slots first and ``D``
    diagonal, read off that block's quarters, so it is solved on the
    conjugate slots alone, through the Schur complement ``D_c + Y K`` with
    ``Y = -K^H D^-1``.  The swept tone's entries of ``K`` move with its
    strength ``s``, those of ``Y`` with ``conj(s)``, and ``|s|`` is the
    same at every phase, so the complement is one fixed matrix plus ``s``
    and ``conj(s)`` times two more, all three formed once per sweep from
    the four products of the two parts of ``Y`` and ``K``.  The steps'
    complements are stacked and solved by one batched solve, up to
    ``_CHUNK_BYTES`` of complements at a time.  A driven slot alone in its
    block leaves the half-size system empty.  Only the track rows are then
    evaluated, through a row-to-slot map made once per sweep: a conjugate
    row is read off the solved half ``x_c``, an amplitude row is
    ``(e - K x_c) / D`` on its rows of the two parts of ``K``, gathered
    once per sweep, and a row outside the block is an exact zero.

    Only a step's gauge class is solved.  Rephasing the modes shifts the
    tone at offset ``m`` by ``2*alpha + beta*m`` and changes no ``|S_ij|``
    and no stability (``gauge_invariant_basis``), so two steps whose
    phases agree on every invariant combination modulo a full turn give
    the same tracks.  One step moves the combination of basis vector ``v``
    by ``v[swept_tone] / steps`` of a turn, so steps ``k`` and
    ``k + period`` are one class, with ``period = steps // gcd(steps, c)``
    over the swept tone's coefficients ``c``: one step for one or two
    tones, 36 for the centre tone of a 72-step -4/0/4 sweep, ``steps`` for
    an outer tone.  Steps ``0 .. period - 1`` are solved in step order and
    the later members of each class copy their first member's column.

    The threshold gate is the one every simulation applies.  When the
    base scheme's column discs certify it (``_disc_bound``), the gate is
    cleared once for the whole sweep.  The discs are read in closed form:
    both columns of mode ``p`` hold one entry of modulus
    ``resonance * |s_t|`` for each tone ``t`` whose partner ``m_t - p`` is
    on the grid, so they have margin ``gamma/2 - c_p`` and 1-norm
    ``|gamma/2 + i*detuning_p| + c_p``, with ``c_p`` the sum of those
    entries; no stack is gathered.  They depend only on the diagonal and
    the magnitudes ``|s_t|``, which the phase moves by a few ulps, while a
    bound within the cap demands a margin of at least
    ``2e-12 * ||B||_1``.  Otherwise the first step of each class goes
    through the gate.  Raises the above-threshold error annotated with the
    offending phase if any sweep point is dynamically unstable, at or past
    the threshold; a class's first member precedes every other, so the
    phase named is the first unstable one.  ``evaluated`` on the result is
    the number of classes solved, ``period``.
    """
    if not MIN_SWEEP_STEPS <= steps <= MAX_SWEEP_STEPS:
        raise InvalidArgumentError(f"steps must be in {MIN_SWEEP_STEPS}..{MAX_SWEEP_STEPS}")
    if not 0 <= swept_tone < len(base_scheme.tones):
        raise InvalidArgumentError(f"swept tone index {swept_tone} out of range")
    second, third, _ = _intermod_paths(signal_index, base_scheme, grid)
    # (order, tones, mode, row) of every track
    products = [(2, (k,), mode, grid.a_conj_slot(mode)) for k, mode in second]
    products += [(3, tuple(paths), mode, grid.a_slot(mode)) for mode, paths in third.items()]

    phases = np.array([TWO_PI * k / steps for k in range(steps)])
    coefficients = (vector[swept_tone] for vector in gauge_invariant_basis(base_scheme.offsets))
    period = steps // math.gcd(steps, *coefficients)
    col = grid.a_slot(signal_index)
    rows = [row for *_, row in products]
    gamma = params.port_coupling

    # only the swept tone's strength changes from step to step
    base = np.array([tone.strength for tone in base_scheme.tones])
    swept = base_scheme.tones[swept_tone]
    strengths = np.array([_tone_strength(swept.amplitude, phase) for phase in phases[:period]])
    pieces = _block_pieces(grid, params, base_scheme)

    # the swept tone's magnitude is the same at every phase, so one
    # certificate can clear the threshold gate for the whole sweep
    if _disc_bound(pieces, base, gamma) > CONDITION_CAP:
        for phase, strength in zip(phases[:period], strengths):
            step = base.copy()
            step[swept_tone] = strength
            try:
                _invert_blocks(pieces, step, gamma)
            except AboveThresholdError as exc:
                raise AboveThresholdError(
                    f"above threshold at swept phase {phase:.6f} rad: {exc}",
                    condition_estimate=exc.condition_estimate,
                    phase=float(phase),
                ) from exc

    # the driven block, [[D, K], [K^H, D_c]] with its amplitude slots first
    driven = pieces.block_of(col)
    slots = driven.blocks[0][0]
    e = int(np.flatnonzero(slots == col)[0])
    # K = K_0 + s K_1 and Y = Y_0 + conj(s) Y_1, read off the stacks without
    # the swept tone and with it alone at strength 1, which share D; so
    # D_c + Y K = (D_c + Y_0 K_0) + s Y_0 K_1 + conj(s) Y_1 K_0 + |s|^2 Y_1 K_1
    alone = np.arange(len(base)) == swept_tone
    (pair,) = driven.stacks([np.where(alone, 0.0, base), alone], gamma)
    k, d, d_c, y = pair.k[:, 0], pair.d[0], pair.d_c[0], pair.y()[:, 0]
    h = len(d_c)
    yk = y[:, np.newaxis] @ k
    fixed = yk[0, 0]
    fixed[np.arange(h), np.arange(h)] += d_c
    fixed += abs(base[swept_tone]) ** 2 * yk[1, 1]
    terms = np.stack((fixed, yk[0, 1], yk[1, 0])).reshape(3, -1)
    weights = np.stack((np.ones(period), strengths, strengths.conj()), axis=1)

    # each track row is an amplitude slot of the block, (e - K x_c) / D, one
    # of its conjugate slots, read off x_c, or a row outside it, a zero
    place = np.full(2 * grid.n_modes, -1)
    place[slots] = np.arange(len(slots))
    position = place[rows]
    amplitude = (position >= 0) & (position < len(d))
    conjugate = position >= len(d)
    k_rows = k[:, position[amplitude]].swapaxes(1, 2)
    d_rows = d[position[amplitude]]
    driven_row = np.array(rows) == col
    drives = y[:, :, e]

    chunk = max(1, _CHUNK_BYTES // (16 * max(1, h) ** 2))
    data = np.empty((len(rows), period))
    for start in range(0, period, chunk):
        stop = min(start + chunk, period)
        _, s, conj_s = weights[start:stop].T
        complement = (weights[start:stop] @ terms).reshape(stop - start, h, h)
        # x_c = S^-1 Y e on the conjugate slots, then e - K x_c on the
        # tracked amplitude rows
        drive = drives[0] + conj_s[:, np.newaxis] * drives[1]
        x_c = np.linalg.solve(complement, drive[:, :, np.newaxis])[:, :, 0]
        x_a = -(x_c @ k_rows[0]) - s[:, np.newaxis] * (x_c @ k_rows[1])
        x_a[:, driven_row[amplitude]] += 1.0
        column = np.zeros((stop - start, len(rows)), dtype=complex)
        column[:, amplitude] = x_a / d_rows
        column[:, conjugate] = x_c[:, position[conjugate] - len(d)]
        column *= gamma
        column[:, driven_row] -= 1.0
        data[:, start:stop] = magnitude_db(column).T

    tracks = tuple(
        SweepTrack(order, tones, mode, magnitudes)
        for (order, tones, mode, _), magnitudes in zip(products, np.tile(data, steps // period))
    )
    return PhaseSweepResult(
        swept_tone=swept_tone,
        signal_index=signal_index,
        phases=phases,
        tracks=tracks,
        evaluated=period,
    )


@dataclass(frozen=True)
class FitResult:
    """Grid-plus-refinement fit of pump strength and port coupling.

    ``surface`` samples the distance on the (strength, coupling) grid given
    by ``g_values`` x ``gamma_values``; above-threshold cells hold +inf, and
    ``cells_above_threshold`` counts them.  ``ridge_ratio`` is the
    dimensionless combination (resonance frequency times strength over
    coupling) at the optimum, the direction the distance is most sensitive
    to.  ``evaluations`` is the number of distinct cells evaluated, grid
    and refinement together, and ``converged`` tells whether the
    refinement's steps fell below their stop size within its
    ``REFINE_ROUNDS`` rounds.  ``worst_condition`` is the largest exact
    1-norm condition number among the evaluated cells below threshold.
    """

    best_g: float
    best_gamma: float
    distance: float
    surface: np.ndarray
    g_values: np.ndarray
    gamma_values: np.ndarray
    ridge_ratio: float
    evaluations: int
    converged: bool
    cells_above_threshold: int
    worst_condition: float

    def __post_init__(self):
        for name in ("surface", "g_values", "gamma_values"):
            object.__setattr__(self, name, _frozen(getattr(self, name), float))


def fit_parameters(
    s_measured,
    grid: ModeGrid,
    scheme_shape: PumpScheme,
    g_range: tuple[float, float],
    gamma_range: tuple[float, float],
    grid_points: int,
    *,
    resonance: float | None = None,
) -> FitResult:
    """Least-squares fit of the balanced pump strength and port coupling.

    The model is the device resonant at ``resonance``, the comb centre
    unless given; it enters both the detuning of every mode and the
    coupling scale of every tone, as in ``simulate_scattering``, and it
    scales ``ridge_ratio``.  The model sets every tone of
    ``scheme_shape`` to the common strength ``g`` under test, and compares
    complex scattering matrices, summing squared entry differences.  The
    model of a cell is ``gamma * M^-1 - I`` itself: its pump-off reference is
    the all-pass reflection, of modulus 1, and it is not divided by.

    The coarse grid scan is followed by a descent from the best cell along
    the valley of the distance, along which ``g / gamma`` stays nearly
    constant.  It works in the coordinates ``r = g / gamma`` and
    ``gamma``: each round tries, in turn, the four neighbours one step away
    in ``r`` at fixed ``gamma`` and in ``gamma`` at fixed ``r``, and moves
    to each one that lowers the distance.  A round that finds none halves
    both steps, which start at one grid step in ``g`` (over the best
    cell's ``gamma``) and in ``gamma``; the fit has converged once the
    ``gamma`` step falls below ``1e-6`` of its range, and stops after
    ``REFINE_ROUNDS`` (60) rounds otherwise.  The best cell is kept as the
    pair that was evaluated, so a refinement that never moves returns the
    grid cell as it is.

    Only the pump strength and the port coupling change from cell to cell,
    so the blocks of the system are split once into pieces; each cell's
    stacks go through the threshold gate ``_invert_blocks``, and the
    distance is taken over the conjugate rows of the inverses and their
    mirror, the entries ``simulate_scattering`` writes (the model is zero
    off the blocks); no whole inverse is formed.  The measured entries are
    gathered once per fit, through the same index ``_BlockPieces.written``
    that the writer walks, into one flat array, and each cell writes its
    model in the same layout, ``gamma * [Z W]`` and its conjugate less the
    diagonal 1, so the alignment and the residual are a few numpy
    reductions.  Those are numpy's own pairwise sums, one per
    group's rows or mirror, never a BLAS product, so the distance does not
    depend on the BLAS thread count.
    A block group the gate sends to its eigenvalues reads them from one
    spectrum per strength, shared by every coupling, and a revisited cell
    is evaluated once.

    A measured array that ``ScatteringMatrix`` refuses on ``grid``, a matrix
    on another mode count, a range that is not positive, finite and
    increasing, or a resonance that is not positive and finite, raises
    before any cell is evaluated.  Dynamically unstable
    cells, at or past the oscillation threshold, score +inf rather than
    raising; if the whole surface is infinite the fit is infeasible and raises.

    The band check runs once, when the pieces are taken at the bottom of
    the coupling range: there the comb spans the most linewidths, so one
    ``BandMismatchWarning`` (naming the count at ``gamma_lo``) stands for
    every grid cell.  Refinement cells below ``gamma_lo`` no longer warn on
    their own.
    """
    if not isinstance(s_measured, ScatteringMatrix):
        s_measured = ScatteringMatrix(s_measured, grid)
    if s_measured.n_modes != grid.n_modes:
        raise InvalidArgumentError("measured matrix does not match the grid dimension")
    measured = s_measured.matrix
    if not MIN_GRID_POINTS <= grid_points <= MAX_FIT_GRID_POINTS:
        raise InvalidArgumentError(
            f"grid_points must be in {MIN_GRID_POINTS}..{MAX_FIT_GRID_POINTS}"
        )
    g_lo, g_hi = map(float, g_range)
    gamma_lo, gamma_hi = map(float, gamma_range)
    if not (0 < g_lo < g_hi < math.inf and 0 < gamma_lo < gamma_hi < math.inf):
        raise InvalidArgumentError("fit ranges must be positive, finite and increasing")

    omega0 = grid.center_frequency if resonance is None else float(resonance)
    # every cell's tones have strength g at the shape's phases, on a device
    # resonant at omega0; gamma_lo makes the band check the strictest
    pieces = _block_pieces(grid, DeviceParams(omega0, gamma_lo), scheme_shape)
    unit_strengths = np.array([_tone_strength(2.0, t.phase) for t in scheme_shape.tones])
    # the data at the index _scattering writes each group through, its rows
    # [Z W] and their mirror, laid out flat as each cell writes its model:
    # per group k, its rows at [start, middle) and their mirror at
    # [middle, stop).  These halves are the terms of the distance, each with
    # its slice of the data and of diagonal, the entries of the model
    # gamma * M^-1 - I that take off 1, where the index's row and column meet
    groups, terms, data, diagonal = [], [], [], []
    outside = np.ones(measured.shape, dtype=bool)
    stop = on_diagonal = 0
    for k, *indices in pieces.written:
        start = stop
        for index in indices:
            data.append(measured[index].ravel())
            outside[index] = False
            at = np.flatnonzero(index[0] == index[1])
            diagonal.append(stop + at)
            size = data[-1].size
            terms.append((slice(stop, stop + size), slice(on_diagonal, on_diagonal + at.size)))
            stop += size
            on_diagonal += at.size
        groups.append((k, start, start + size, stop))
    data = np.concatenate(data)
    diagonal = np.concatenate(diagonal)
    data_diagonal = data[diagonal]
    # the model vanishes off the blocks, where the distance is the data's own
    outside_norm = float(np.sum(np.abs(measured[outside]) ** 2))

    # M - gamma/2 does not depend on gamma, so one spectrum per strength
    # serves every coupling
    @functools.cache
    def floor(g: float, k: int) -> float:
        stack = pieces.stacks(g * unit_strengths, 0.0)[k]
        return _spectral_floor(stack.whole(), pieces.blocks[k])

    worst_condition = 0.0

    # the refinement revisits cells; each (g, gamma) pair is evaluated once
    @functools.cache
    def evaluate(g: float, gamma: float) -> float:
        nonlocal worst_condition
        if g <= 0 or gamma <= 0:
            return np.inf
        try:
            inverses, condition = _invert_blocks(
                pieces, g * unit_strengths, gamma, lambda k: gamma / 2.0 + floor(g, k)
            )
        except AboveThresholdError:
            return np.inf
        worst_condition = max(worst_condition, condition)
        # the model's conjugate rows gamma * [Z W] - I and their mirror
        model = np.empty(len(data), dtype=complex)
        for k, start, middle, stop in groups:
            rows = model[start:middle]
            np.multiply(inverses[k], gamma, out=rows.reshape(inverses[k].shape))
            np.conjugate(rows, out=model[middle:stop])
        model[diagonal] -= 1.0
        # one-time global phase alignment: instruments carry an arbitrary
        # electrical delay, so the mean diagonal phase is referenced out.
        # Near the optimum the distance is what is left of entries of order
        # 1, whose last digits follow the order of summation, so each term
        # is summed on its own and the terms in turn
        products = data_diagonal * model[diagonal].conj()
        inner = sum(np.sum(products[diagonals]) for _, diagonals in terms)
        rotation = inner / abs(inner) if abs(inner) > 0 else 1.0
        model *= rotation
        np.subtract(data, model, out=model)
        residuals = np.abs(model) ** 2
        inside = sum(np.sum(residuals[entries]) for entries, _ in terms)
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

    # axis-aligned steps in (g, gamma) zig-zag across the valley and stall
    ratio = best_g / best_gamma
    step_ratio = (g_hi - g_lo) / (grid_points - 1) / best_gamma
    step_gamma = (gamma_hi - gamma_lo) / (grid_points - 1)
    converged = False
    for _ in range(REFINE_ROUNDS):
        improved = False
        for dr, dgamma in (
            (step_ratio, 0.0), (-step_ratio, 0.0), (0.0, step_gamma), (0.0, -step_gamma)
        ):
            r, gamma = ratio + dr, best_gamma + dgamma
            g = r * gamma
            d = evaluate(g, gamma)
            if d < best_d:
                ratio, best_g, best_gamma, best_d = r, g, gamma, d
                improved = True
        if not improved:
            step_ratio *= 0.5
            step_gamma *= 0.5
            if step_gamma < 1e-6 * (gamma_hi - gamma_lo):
                converged = True
                break

    return FitResult(
        best_g=best_g,
        best_gamma=best_gamma,
        distance=best_d,
        surface=surface,
        g_values=g_values,
        gamma_values=gamma_values,
        ridge_ratio=omega0 * best_g / best_gamma,
        evaluations=evaluate.cache_info().currsize,
        converged=converged,
        cells_above_threshold=int(np.isinf(surface).sum()),
        worst_condition=worst_condition,
    )


@dataclass(frozen=True)
class PhaseSearchResult:
    """Best phases of a search, their graph and topology, and its counts.

    ``evaluated`` is the number of gauge classes evaluated and
    ``skipped_above_threshold`` the number of those found above threshold.
    """

    best_phases: tuple[float, ...]
    objective: int
    graph: CorrelationGraph
    report: TopologyReport
    evaluated: int
    skipped_above_threshold: int


def search_phases(
    scheme: PumpScheme,
    target_adjacency,
    phase_grid_points: int,
    threshold_db: float,
    grid: ModeGrid,
    params: DeviceParams,
) -> PhaseSearchResult:
    """Phase-grid search for a target correlation topology.

    Sweeps the phase of every tone over a uniform grid of
    ``phase_grid_points`` values and scores each combination by the
    symmetric-difference edge count between the achieved thresholded graph
    and the target adjacency.

    Only some phase combinations are physical.  Rephasing the modes shifts
    the phase of the tone at offset ``m`` by ``2*alpha + beta*m`` for any
    ``alpha`` and ``beta`` and changes no ``|S_ij|`` and no stability, so
    the score depends only on the combinations ``sum(c_t*phi_t)`` with
    ``sum(c_t) == 0`` and ``sum(c_t*m_t) == 0`` (for -4/0/4 the curvature
    ``phi_-4 - 2*phi_0 + phi_4``; for one or two tones none at all).  Grid
    combinations that agree on every such combination modulo a full turn
    form a gauge class, and each class is evaluated once: at most
    ``phase_grid_points ** (T - 2)`` evaluations for T >= 2 tones, and one
    for one or two tones.  A grid that would key more than
    ``MAX_PHASE_CLASSES`` classes is rejected before any is enumerated.

    Only the tone phases change from class to class, so the blocks of the
    system are split once into pieces.  A class restacks the pieces at its
    tone strengths, passes the threshold gate ``_invert_blocks`` and places
    the block inverses into the dense scattering matrix, whose dB
    magnitudes ``extract_graph`` thresholds: the all-pass pump-off
    reference is 1, so nothing is divided.  The band check runs once, with
    the pieces.

    Combinations are enumerated lexicographically and ties break toward the
    lexicographically smallest phase vector, which is the member of its
    class that is evaluated, so the search is deterministic.  A class is
    keyed by its combinations modulo ``phase_grid_points``.  The basis
    spans the whole lattice of invariant combinations, so the grid reaches
    every key, and the walk stops as soon as it has seen
    ``phase_grid_points ** len(basis)`` classes, since every later
    combination repeats a class.  Classes that cross the oscillation
    threshold are skipped.  The least-bad phases are returned even when the
    target is unreachable.
    """
    if phase_grid_points < MIN_GRID_POINTS:
        raise InvalidArgumentError(f"phase_grid_points must be at least {MIN_GRID_POINTS}")
    if math.isnan(threshold_db):
        raise InvalidArgumentError("threshold_db must not be NaN")

    target = set()
    for i, j in target_adjacency:
        if i == j:
            continue
        if not (grid.contains(i) and grid.contains(j)):
            raise InvalidArgumentError(f"target edge ({i}, {j}) leaves the grid")
        target.add((min(i, j), max(i, j)))

    basis = gauge_invariant_basis(scheme.offsets)
    class_count = int(phase_grid_points) ** len(basis)
    if class_count > MAX_PHASE_CLASSES:
        raise InvalidArgumentError(
            f"phase_grid_points: {phase_grid_points}**{len(basis)} gauge classes exceed "
            f"{MAX_PHASE_CLASSES}"
        )
    pieces = _block_pieces(grid, params, scheme)
    gamma = params.port_coupling

    best = None  # (objective, phases, graph)
    seen = set()
    skipped = 0
    # product copies its range into a tuple, so keep it small: with no
    # invariant combination every phase vector is in the first one's class,
    # and otherwise the check above holds the grid to MAX_PHASE_CLASSES points
    points = range(phase_grid_points if basis else 1)
    for combo in itertools.product(points, repeat=len(scheme.tones)):
        if len(seen) == class_count:
            break
        key = tuple(
            sum(c * i for c, i in zip(vector, combo)) % phase_grid_points for vector in basis
        )
        if key in seen:
            # a later member of a class scores as its first and cannot win a tie
            continue
        seen.add(key)
        phases = tuple(TWO_PI * c / phase_grid_points for c in combo)
        strengths = [_tone_strength(t.amplitude, p) for t, p in zip(scheme.tones, phases)]
        try:
            s, _ = _scattering(pieces, strengths, gamma)
        except AboveThresholdError:
            skipped += 1
            continue
        graph = extract_graph(magnitude_db(s), grid, threshold_db)
        objective = len(graph.edge_pairs() ^ target)
        if best is None or objective < best[0]:
            best = (objective, phases, graph)
        if best[0] == 0:
            # lexicographic enumeration: the first zero is the lex-smallest
            break
    if best is None:
        raise AboveThresholdError("every phase combination was above threshold")

    objective, phases, graph = best
    return PhaseSearchResult(
        best_phases=phases,
        objective=objective,
        graph=graph,
        report=topology_report(graph),
        evaluated=len(seen),
        skipped_above_threshold=skipped,
    )
