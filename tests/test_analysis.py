"""Phase sweeps, parameter fitting, phase search."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from combscatter import (
    AboveThresholdError,
    BandMismatchWarning,
    DeviceParams,
    FitInfeasibleError,
    InvalidArgumentError,
    ModeGrid,
    PumpScheme,
    PumpTone,
    TopologyLabel,
    extract_graph,
    fit_parameters,
    magnitude_db,
    mode_level_db,
    normalize_pump_off,
    phase_sweep,
    predicted_intermod_indices,
    pump_off_scattering,
    search_phases,
    simulate_scattering,
    topology_report,
)
from combscatter import analysis, scattering
from combscatter.model import MAX_HALF_SPAN
from combscatter.scattering import CONDITION_CAP, DB_FLOOR, _block_pieces, _disc_bound
from conftest import (
    COUPLING,
    RESONANCE,
    SPACING,
    TWO_PI,
    balanced_scheme,
    fit_in_rounds,
    simulated_db,
    small_schemes,
)
from dense_reference import dense_column, dense_system, rounding, simulate_dense
from search_reference import exhaustive_search


def aligned_distance(measured, model):
    """Reference distance on full matrices, after one global phase alignment."""
    inner = np.sum(np.diag(measured) * np.conj(np.diag(model)))
    if abs(inner) > 0:
        model = model * (inner / abs(inner))
    return float(np.sqrt(np.sum(np.abs(measured - model) ** 2)))


def dense_cell(measured, grid, shape, g, gamma):
    """Reference fit cell: the distance of full S over its full pump-off
    reference, and the condition number of the dense system."""
    params = DeviceParams(grid.center_frequency, gamma)
    scheme = PumpScheme(tuple(PumpTone(t.offset, 2.0 * g, t.phase) for t in shape.tones))
    try:
        s_on = simulate_dense(grid, params, scheme)
    except AboveThresholdError:
        return math.inf, math.inf
    reference = np.abs(np.diag(pump_off_scattering(grid, params).matrix))
    distance = aligned_distance(measured, s_on.matrix / reference[np.newaxis, :])
    return distance, s_on.condition_estimate


def dense_distance(measured, grid, shape, g, gamma):
    """Reference fit cell: full S over its full pump-off reference."""
    return dense_cell(measured, grid, shape, g, gamma)[0]


def assert_same_search(result, expected):
    """A search result against the exhaustive one, simulated by the dense
    chain: the same objective, phases, edges, loops and report, and edge
    weights to rounding."""
    objective, phases, graph, report = expected
    assert (result.objective, result.best_phases, result.report) == (objective, phases, report)
    found = result.graph
    assert (found.nodes, found.threshold_db) == (graph.nodes, graph.threshold_db)
    assert [(e.i, e.j) for e in found.edges] == [(e.i, e.j) for e in graph.edges]
    assert [mode for mode, _ in found.self_loops] == [mode for mode, _ in graph.self_loops]
    weights = [e.weight_db for e in found.edges] + [w for _, w in found.self_loops]
    reference = [e.weight_db for e in graph.edges] + [w for _, w in graph.self_loops]
    assert weights == pytest.approx(reference, rel=0, abs=1e-9)


def ladder(device, ratio, phase):
    """-4/0/4 with the lowest tone at pi and the centre tone at ``phase``."""
    return balanced_scheme(device, [-4, 0, 4], ratio, [np.pi, phase, 0.0])


def mode_pair_db(grid, scheme, phases):
    """Symmetric mode-pair dB weights (what the graph thresholds) at given phases.

    None where the phases put the scheme above threshold.
    """
    device = DeviceParams(RESONANCE, COUPLING)
    for tone, phase in enumerate(phases):
        scheme = scheme.with_phase(tone, phase)
    try:
        db = normalize_pump_off(
            simulate_dense(grid, device, scheme), pump_off_scattering(grid, device)
        )
    except AboveThresholdError:
        return None
    reduced = mode_level_db(db, grid)
    return np.maximum(reduced, reduced.T)


def assert_tracks_equal_simulated_columns(
    scheme, swept, signal, grid, device, steps=8, sampled=None
):
    """A sweep's tracks against the driven column of the whole system at each
    phase, or at the ``sampled`` steps only."""
    result = phase_sweep(scheme, swept, steps, signal, grid, device)
    reference = np.abs(np.diag(pump_off_scattering(grid, device).matrix))
    col = grid.a_slot(signal)
    for step in range(steps) if sampled is None else sampled:
        phase = result.phases[step]
        column = dense_column(grid, device, scheme.with_phase(swept, phase), col) / reference[col]
        for track in result.tracks:
            mode = track.mode_index
            row = grid.a_conj_slot(mode) if track.order == 2 else grid.a_slot(mode)
            assert track.magnitudes_db[step] == pytest.approx(
                magnitude_db(column[row]), rel=1e-12, abs=1e-12
            )


@st.composite
def search_cases(draw):
    """A small search: 1-4 tones, every one swept, and a random target.

    The threshold cuts through the mode pair whose weight moves most between
    two random grid phase combinations, and the target is the graph at one
    of them, so the objective depends on the phases whenever they matter.
    Tone ratios up to 0.3 can put a combination above threshold; without
    its weights the threshold is -20 dB, and without the target graph's
    the target is only the random edges.
    """
    half_span = draw(st.integers(2, 5))
    count = draw(st.integers(1, 4))
    offsets = draw(
        st.lists(
            st.integers(-2 * half_span, 2 * half_span), min_size=count, max_size=count, unique=True
        )
    )
    tones = tuple(
        PumpTone(o, 2.0 * draw(st.floats(0.01, 0.3)) * COUPLING / RESONANCE,
                 draw(st.floats(0.0, TWO_PI)))
        for o in offsets
    )
    scheme = PumpScheme(tones)
    points = draw(st.integers(4, 6 if count < 4 else 4))
    grid = ModeGrid(RESONANCE + draw(st.sampled_from((0.0, 0.3))) * COUPLING, SPACING, half_span)
    combos = st.lists(st.integers(0, points - 1), min_size=count, max_size=count)
    hidden, other = (
        mode_pair_db(grid, scheme, [TWO_PI * k / points for k in draw(combos)])
        for _ in range(2)
    )
    threshold, target = -20.0, []
    if hidden is not None and other is not None:
        moved = np.abs(hidden - other)
        i, j = np.unravel_index(np.argmax(moved), moved.shape)
        if moved[i, j] > 1e-6:
            threshold = 0.5 * (hidden[i, j] + other[i, j])
    if hidden is not None:
        target = [
            (int(a) - half_span, int(b) - half_span)
            for a, b in zip(*np.nonzero(hidden >= threshold))
        ]
    nodes = st.integers(-half_span, half_span)
    target += draw(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=2))
    return scheme, target, points, threshold, grid


@pytest.fixture(scope="module")
def sweep_phi1(grid, device):
    scheme = balanced_scheme(device, [-4, 0, 4], 0.06)
    return phase_sweep(scheme, swept_tone=2, steps=72, signal_index=28,
                       grid=grid, params=device)


class TestPhaseSweep:
    def test_shape_and_phase_grid(self, sweep_phi1):
        assert len(sweep_phi1.phases) == 72
        assert sweep_phi1.phases[0] == 0.0
        assert np.all(np.diff(sweep_phi1.phases) > 0)
        assert sweep_phi1.phases[-1] < TWO_PI

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.none(), small_schemes()), st.data())
    def test_tracks_match_predictions(self, grid, device, sweep_phi1, case, data):
        # None stands for the bundled sweep; a drawn case sweeps a random
        # tone of a random scheme, its signal often at the grid's edge
        if case is None:
            scheme, result = balanced_scheme(device, [-4, 0, 4], 0.06), sweep_phi1
        else:
            grid, scheme = case
            half = grid.half_span
            signal = data.draw(st.sampled_from([-half, half]) | st.integers(-half, half))
            swept = data.draw(st.integers(0, len(scheme.tones) - 1))
            result = phase_sweep(scheme, swept, 8, signal, grid, device)
        signal = result.signal_index
        predicted = predicted_intermod_indices(signal, scheme, grid)
        second = [t for t in result.tracks if t.order == 2]
        third = [t for t in result.tracks if t.order == 3]
        assert tuple(t.mode_index for t in second) == predicted.second_order
        for track in second:
            (k,) = track.pump_indices
            assert scheme.offsets[k] - signal == track.mode_index
        assert tuple((t.mode_index, len(t.pump_indices)) for t in third) == predicted.third_order
        for track in third:
            for ka, kb in track.pump_indices:
                assert ka != kb
                assert scheme.offsets[ka] - scheme.offsets[kb] + signal == track.mode_index

    def test_second_order_tracks_vary_weakly(self, sweep_phi1):
        for mode in (-32, -28, -24):
            mags = sweep_phi1.track(2, mode).magnitudes_db
            assert mags.max() - mags.min() < 1.0

    def test_third_order_interference_dip_at_pi(self, sweep_phi1):
        mags = sweep_phi1.track(3, 32).magnitudes_db
        phases = sweep_phi1.phases
        assert phases[np.argmin(mags)] == pytest.approx(np.pi)
        assert mags[0] - mags.min() > 25.0

    def test_coinciding_track_has_two_paths(self, sweep_phi1):
        track = sweep_phi1.track(3, 32)
        assert len(track.pump_indices) == 2

    def test_full_turn_periodicity(self, grid, device):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.06)
        base = phase_sweep(scheme, 2, 8, 28, grid, device)
        wrapped = phase_sweep(
            scheme.with_phase(2, scheme.tones[2].phase + TWO_PI), 2, 8, 28, grid, device
        )
        for a, b in zip(base.tracks, wrapped.tracks):
            assert np.allclose(a.magnitudes_db, b.magnitudes_db, atol=1e-9)

    def test_central_pump_pi_periodic_with_quarter_minima(self, grid, device):
        # a half-turn of the central pump is a passive basis rotation, so
        # every magnitude is pi-periodic to solver precision
        scheme = balanced_scheme(device, [-4, 0, 4], 0.06)
        sweep = phase_sweep(scheme, 1, 72, 28, grid, device)
        mags = sweep.track(3, 32).magnitudes_db
        half = len(mags) // 2
        assert np.max(np.abs(mags[:half] - mags[half:])) < 1e-9
        minima = set(np.flatnonzero(mags <= mags.min() + 1e-9))
        assert minima == {18, 54}  # pi/2 and 3*pi/2 on the 72-point grid

    @pytest.mark.parametrize("swept, period", [(0, 72), (1, 36), (2, 72)])
    def test_steps_of_one_gauge_class_share_their_tracks(self, grid, device, swept, period):
        # the curvature phi_-4 - 2*phi_0 + phi_4 is the one invariant, so a
        # half-turn of the centre tone, 36 of 72 steps, is a gauge shift
        sweep = phase_sweep(balanced_scheme(device, [-4, 0, 4], 0.085), swept, 72, 28, grid, device)
        assert sweep.evaluated == period
        data = np.array([t.magnitudes_db for t in sweep.tracks])
        assert np.array_equal(data, np.tile(data[:, :period], 72 // period))

    @settings(max_examples=40, deadline=None)
    @given(small_schemes().filter(lambda case: len(case[1].tones) <= 2), st.data())
    def test_one_or_two_tone_tracks_are_constant(self, case, data):
        # no phase of one or two tones is physical: the whole sweep is one class
        grid, scheme = case
        device = DeviceParams(RESONANCE, COUPLING)
        swept = data.draw(st.integers(0, len(scheme.tones) - 1))
        signal = data.draw(st.integers(-grid.half_span, grid.half_span))
        sweep = phase_sweep(scheme, swept, data.draw(st.integers(8, 20)), signal, grid, device)
        assert sweep.evaluated == 1
        for track in sweep.tracks:
            first = np.full_like(track.magnitudes_db, track.magnitudes_db[0])
            assert track.magnitudes_db.tobytes() == first.tobytes()

    def test_interference_zero_tracks_fixed_tone_phases(self, grid, device):
        # the two-path amplitude cancels where the swept phase equals
        # 2*phi_central - phi_other_edge - pi; weak pumping keeps higher
        # orders below the grid resolution
        for phi_m1, phi_0 in ((0.0, 0.0), (0.7, 0.3), (1.2, 2.0)):
            scheme = balanced_scheme(device, [-4, 0, 4], 0.01, [phi_m1, phi_0, 0.0])
            sweep = phase_sweep(scheme, 2, 64, 28, grid, device)
            mags = sweep.track(3, 32).magnitudes_db
            predicted = (2 * phi_0 - phi_m1 - np.pi) % TWO_PI
            found = sweep.phases[np.argmin(mags)]
            step = TWO_PI / 64
            delta = abs((found - predicted + np.pi) % TWO_PI - np.pi)
            assert delta <= step

    def test_above_threshold_carries_phase(self, device):
        grid = ModeGrid(RESONANCE, SPACING, 1)
        scheme = balanced_scheme(device, [0], 0.6)
        with pytest.raises(AboveThresholdError, match="dynamically unstable") as excinfo:
            phase_sweep(scheme, 0, 8, 0, grid, device)
        assert excinfo.value.phase == 0.0

    def test_non_driven_block_crossing_raises_with_its_phase(self, device):
        # on 11 modes at ratio 0.22 the blocks of modes 0 and 1 are unstable
        # with the centre tone at pi/2 and stable at 0 and pi/4, while the
        # block of modes -2 and 2, which holds the signal, stays clear
        grid = ModeGrid(RESONANCE, SPACING, 5)
        gamma = device.port_coupling
        margins = []
        for phase in (0.0, np.pi / 4, np.pi / 2):
            system = dense_system(grid, device, ladder(device, 0.22, phase))
            margins.append(np.linalg.eigvals(system.matrix).real.min())
        assert margins[0] > 0.1 * gamma and margins[1] > 0.005 * gamma
        assert margins[2] < -0.03 * gamma
        blocks = _block_pieces(grid, device, ladder(device, 0.22, np.pi / 2)).blocks
        row = next(row for b in blocks for row in b if grid.a_slot(2) in row)
        assert np.linalg.eigvals(system.matrix[np.ix_(row, row)]).real.min() > 0.05 * gamma
        with pytest.raises(AboveThresholdError, match="dynamically unstable") as excinfo:
            phase_sweep(ladder(device, 0.22, 0.0), 1, 8, 2, grid, device)
        assert excinfo.value.phase == np.pi / 2
        assert excinfo.value.condition_estimate is None

    @settings(max_examples=40, deadline=None)
    @given(small_schemes(), st.data())
    def test_tracks_equal_simulated_columns(self, case, data):
        grid, scheme = case
        device = DeviceParams(RESONANCE, COUPLING)
        swept = data.draw(st.integers(0, len(scheme.tones) - 1))
        signal = data.draw(st.integers(-grid.half_span, grid.half_span))
        assert_tracks_equal_simulated_columns(scheme, swept, signal, grid, device)

    @pytest.mark.parametrize("signal, size, slots_per_mode", [(28, 46, 2), (5, 48, 1)])
    def test_72_step_sweeps_of_every_tone_equal_dense_columns(
        self, grid, device, signal, size, slots_per_mode
    ):
        # an even signal drives a self-mirror block, both slots of each of
        # its modes; an odd one drives one block of a mirror pair
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        driven = _block_pieces(grid, device, scheme).block_of(grid.a_slot(signal))
        # amplitude slots first, each part in ascending order
        parity = driven.blocks[0][0] % 2
        assert np.all(np.diff(parity) >= 0)
        assert all(np.all(np.diff(driven.blocks[0][0][parity == p]) > 0) for p in (0, 1))
        modes = driven.blocks[0][0] // 2
        assert len(modes) == size
        assert np.all(np.bincount(modes)[modes] == slots_per_mode)
        for swept in range(3):
            assert_tracks_equal_simulated_columns(scheme, swept, signal, grid, device, steps=72)

    @pytest.mark.parametrize("swept, period", [(0, 72), (1, 36), (2, 72)])
    def test_benchmark_sweep_is_one_solve(self, grid, device, monkeypatch, swept, period):
        # every class of a 72-step -4/0/4 sweep on its 24 conjugate slots
        # fits one batch
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        shapes = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append(a.shape) or solve(a, b))
        phase_sweep(scheme, swept, 72, 5, grid, device)
        assert shapes == [(period, 24, 24)]

    def test_classes_across_solve_batches_equal_dense_columns(self, grid, device, monkeypatch):
        # an outer tone has 1,000 classes at 1,000 steps, more than one batch
        # holds; the samples straddle the batch edges.  The phases keep every
        # track above -80 dB: at an interference null (-114 dB near step 999
        # of the pi-phased ladder) the dB of an entry is only as exact as the
        # rounding of its column, in the dense reference as in the sweep
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.4, 1.3, 2.9])
        batches = []
        solve = np.linalg.solve
        monkeypatch.setattr(
            # the dense reference solves one whole system, two-dimensional
            np.linalg, "solve", lambda a, b: a.ndim == 3 and batches.append(len(a)) or solve(a, b)
        )
        chunk = analysis._CHUNK_BYTES // (16 * 24**2)
        sampled = [0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, 500, 999]
        assert_tracks_equal_simulated_columns(scheme, 0, 5, grid, device, 1000, sampled)
        assert batches == [chunk] * (1000 // chunk) + [1000 % chunk]

    def test_many_step_sweep_solves_a_batch_at_a_time(self, grid, device):
        # the complements of all 10,000 classes at once would take 92 MB
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        phase_sweep(scheme, 0, 8, 5, grid, device)
        tracemalloc.start()
        try:
            result = phase_sweep(scheme, 0, 10_000, 5, grid, device)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.evaluated == 10_000
        assert peak < 8e6

    @pytest.mark.parametrize("swept", [0, 1])
    def test_driven_slot_alone_in_its_block(self, device, swept):
        # neither tone reaches mode -3 from the grid, so its amplitude slot
        # is a 1 x 1 block and the half-size system on its conjugate slots
        # is empty; its one product, at -3 + 6 - 5 through an idler off the
        # grid, lies outside the block and stays at the floor
        grid = ModeGrid(RESONANCE, SPACING, 3)
        scheme = balanced_scheme(device, [5, 6], 0.1, [0.3, 1.1])
        driven = _block_pieces(grid, device, scheme).block_of(grid.a_slot(-3))
        assert driven.blocks[0].shape == (1, 1)
        result = phase_sweep(scheme, swept, 8, -3, grid, device)
        assert result.evaluated == 1
        assert [track.label for track in result.tracks] == ["o3[(1;0)]@-2"]
        assert np.all(result.tracks[0].magnitudes_db == DB_FLOOR)
        assert_tracks_equal_simulated_columns(scheme, swept, -3, grid, device)

    @pytest.mark.parametrize("swept", [0, 1, 2])
    def test_uncertified_scheme_tracks_equal_simulated_columns(self, grid, device, swept):
        # the tone ratios sum to 0.51 > 1/2, so the column discs do not clear
        # the gate and every step takes the exact one; every step is stable
        scheme = ladder(device, 0.17, 0.0)
        pieces = _block_pieces(grid, device, scheme)
        strengths = [t.strength for t in scheme.tones]
        assert _disc_bound(pieces, strengths, device.port_coupling) > CONDITION_CAP
        assert_tracks_equal_simulated_columns(scheme, swept, 5, grid, device)

    def test_uncertified_step_decomposes_one_block_of_each_mirror_pair(
        self, grid, device, monkeypatch
    ):
        # the 48-slot group holds a block that is its own mirror and a mirror
        # pair; a step that needs its eigenvalues decomposes two of the three
        scheme = ladder(device, 0.17, 0.0)
        pieces = _block_pieces(grid, device, scheme)
        halves = {b.shape[1]: int(np.sum(b.min(axis=1) % 2 == 0)) for b in pieces.blocks}
        assert (halves[48], len(pieces.blocks[-1])) == (2, 3)
        spectra = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: spectra.append(a.shape) or eigvals(a))
        phase_sweep(scheme, 1, 8, 5, grid, device)
        assert any(size == 48 for _, size, _ in spectra)
        assert all(count <= halves[size] for count, size, _ in spectra)

    @pytest.mark.parametrize("swept, gated", [(0, 8), (1, 4), (2, 8)])
    def test_uncertified_sweep_gates_the_first_step_of_each_class(
        self, grid, device, monkeypatch, swept, gated
    ):
        calls = []
        invert = analysis._invert_blocks
        monkeypatch.setattr(
            analysis, "_invert_blocks", lambda *args: calls.append(1) or invert(*args)
        )
        phase_sweep(ladder(device, 0.17, 0.0), swept, 8, 5, grid, device)
        assert len(calls) == gated

    @pytest.mark.parametrize("swept", [0, 1, 2])
    def test_unstable_step_of_an_uncertified_sweep_raises_with_its_phase(
        self, grid, device, swept
    ):
        # at ratio 0.2 some steps are dynamically unstable, though no matrix
        # is singular; the sweep stops at the first of them
        scheme = ladder(device, 0.2, 0.0)
        phases = TWO_PI * np.arange(8) / 8
        margins = [
            np.linalg.eigvals(
                dense_system(grid, device, scheme.with_phase(swept, phase)).matrix
            ).real.min()
            for phase in phases
        ]
        assert min(margins) < -0.08 * device.port_coupling
        with pytest.raises(AboveThresholdError) as excinfo:
            phase_sweep(scheme, swept, 8, 5, grid, device)
        assert excinfo.value.phase == phases[np.argmax(np.array(margins) <= 0)]
        assert "dynamically unstable" in str(excinfo.value)

    def test_largest_comb_sweeps_without_its_dense_system(self, device):
        # the dense 2002 x 2002 system of 1,001 modes alone takes 64 MB
        grid = ModeGrid(RESONANCE, SPACING, MAX_HALF_SPAN)
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        tracemalloc.start()
        try:
            phase_sweep(scheme, 1, 8, 0, grid, device)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6

    def test_sweep_certificate_holds_one_block_at_a_time(self, device):
        # the pieces of 1,001 modes peak at 18.9 MB; bounding every group's
        # stack at once took the sweep to 30.1 MB
        grid = ModeGrid(RESONANCE, SPACING, MAX_HALF_SPAN)
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        tracemalloc.start()
        try:
            phase_sweep(scheme, 0, 8, 0, grid, device)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_step_maximum_enforced_before_allocating(self, grid, device):
        scheme = balanced_scheme(device, [0], 0.05)
        with pytest.raises(InvalidArgumentError, match="in 8..10000"):
            phase_sweep(scheme, 0, 2_000_000_000, 0, grid, device)

    def test_step_minimum_enforced(self, grid, device):
        scheme = balanced_scheme(device, [0], 0.05)
        with pytest.raises(InvalidArgumentError):
            phase_sweep(scheme, 0, 7, 0, grid, device)


@st.composite
def self_fit_cases(draw):
    """A 9-19 mode grid centred on the resonance, 1-3 equal tones at random
    phases and ratio, and a coupling: the truth of a self-fit."""
    half_span = draw(st.integers(4, 9))
    offsets = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3, unique=True))
    phases = [draw(st.floats(0.0, TWO_PI)) for _ in offsets]
    device = DeviceParams(RESONANCE, TWO_PI * draw(st.floats(60e6, 200e6)))
    scheme = balanced_scheme(device, sorted(offsets), draw(st.floats(0.03, 0.12)), phases)
    return ModeGrid(RESONANCE, SPACING, half_span), device, scheme


def noisy_destructive(grid, device, sigma, seed):
    """Bundled threepump with its +4 tone at pi, and its ``S`` plus complex
    Gaussian noise of ``E|n|^2 = sigma^2`` on every entry."""
    scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
    s = simulate_scattering(grid, device, scheme).matrix
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
    return scheme, s + sigma / math.sqrt(2.0) * noise


NOISY = [(sigma, seed) for sigma in (1e-3, 1e-2) for seed in (1, 2, 3)]


class TestNoisyGraph:
    @pytest.mark.parametrize("sigma, seed", NOISY)
    def test_destructive_threepump_stays_three_square_ladders(self, grid, device, sigma, seed):
        # noise-free, the verdict holds for thresholds on (-23.161, -8.918]
        # dB; noise of -60 and -40 dB per entry carries no weight across it
        _, measured = noisy_destructive(grid, device, sigma, seed)
        report = topology_report(extract_graph(magnitude_db(measured), grid, -20.0))
        assert report.labels == (TopologyLabel.SQUARE_LADDER,) * 3


class TestFit:
    @pytest.mark.parametrize("sigma, seed", NOISY)
    def test_noisy_self_fit_recovers_ratio_and_coupling(self, grid, device, sigma, seed):
        # a 12 x 12 grid over the bundled ranges; the noise breaks the
        # particle-hole symmetry of the data, which the model keeps
        scheme, measured = noisy_destructive(grid, device, sigma, seed)
        result = fit_parameters(
            measured, grid, scheme, (5e-4, 5e-3), (TWO_PI * 56e6, TWO_PI * 224e6), 12
        )
        assert result.converged
        assert abs(result.ridge_ratio / 0.085 - 1.0) < 1e-3
        assert abs(result.best_gamma / COUPLING - 1.0) < 2e-2

    def test_self_fit_recovers_ratio(self, grid, device):
        g_true = 0.085 * COUPLING / RESONANCE
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        measured = simulate_scattering(grid, device, scheme)
        result = fit_parameters(
            measured,
            grid,
            scheme,
            g_range=(0.5 * g_true, 2.0 * g_true),
            gamma_range=(0.5 * COUPLING, 2.0 * COUPLING),
            grid_points=12,
        )
        true_ratio = RESONANCE * g_true / COUPLING
        assert abs(result.ridge_ratio - true_ratio) / true_ratio < 0.01

    def test_scheme_scan_self_fit_converges_on_its_own_data(self, grid, device):
        # a 6 x 6 grid misses the true cell, so the refinement runs its course
        g_true = 0.085 * COUPLING / RESONANCE
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        measured = simulate_scattering(grid, device, scheme)
        result = fit_parameters(
            measured,
            grid,
            scheme,
            g_range=(0.5 * g_true, 2.0 * g_true),
            gamma_range=(0.5 * COUPLING, 2.0 * COUPLING),
            grid_points=6,
        )
        assert abs(result.best_gamma - COUPLING) / COUPLING < 1e-4
        assert result.distance < 1e-4
        assert result.converged

    def test_fit_models_the_resonance_it_is_given(self, grid, device):
        # a device resonant 30 spacings above the comb centre; the default,
        # the centre itself, is the same fit bit for bit when passed
        g_true = 0.085 * COUPLING / RESONANCE
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        ranges = ((0.5 * g_true, 2.0 * g_true), (0.5 * COUPLING, 2.0 * COUPLING), 6)
        centred = fit_parameters(simulate_scattering(grid, device, scheme), grid, scheme, *ranges)
        explicit = fit_parameters(
            simulate_scattering(grid, device, scheme), grid, scheme, *ranges,
            resonance=grid.center_frequency,
        )
        assert (explicit.distance, explicit.ridge_ratio) == (centred.distance, centred.ridge_ratio)
        detuned = DeviceParams(RESONANCE + 30 * SPACING, COUPLING)
        measured = simulate_scattering(grid, detuned, scheme)
        result = fit_parameters(
            measured, grid, scheme, *ranges, resonance=detuned.resonance_frequency
        )
        true_ratio = detuned.resonance_frequency * g_true / COUPLING
        assert abs(result.ridge_ratio - true_ratio) / true_ratio < 1e-4
        assert abs(result.best_gamma - COUPLING) / COUPLING < 1e-4
        assert result.distance <= 10 * centred.distance
        with pytest.raises(InvalidArgumentError, match="resonance_frequency must be positive"):
            fit_parameters(measured, grid, scheme, *ranges, resonance=math.nan)

    @settings(max_examples=20, deadline=None)
    @given(self_fit_cases())
    def test_self_fit_recovers_coupling(self, case):
        grid, device, scheme = case
        g_true = scheme.tones[0].amplitude / 2.0
        coupling = device.port_coupling
        measured = simulate_scattering(grid, device, scheme)
        result = fit_parameters(
            measured, grid, scheme, (0.5 * g_true, 2.0 * g_true), (0.5 * coupling, 2.0 * coupling), 6
        )
        assert abs(result.best_gamma - coupling) / coupling < 1e-4

    def test_band_warns_once_at_the_bottom_of_the_coupling_range(self, device):
        # 21 modes 20 MHz apart reach 200 MHz from resonance: 40 linewidths
        # at 5 MHz, and beyond the band for every coupling below 66.7 MHz
        grid = ModeGrid(RESONANCE, TWO_PI * 20e6, 10)
        g_true = 0.085 * COUPLING / RESONANCE
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        measured = simulate_scattering(grid, device, scheme)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_parameters(
                measured, grid, scheme, (0.5 * g_true, 2.0 * g_true), (TWO_PI * 5e6, 2 * COUPLING), 8
            )
        assert [(w.category, str(w.message)) for w in caught] == [(
            BandMismatchWarning,
            "mode comb extends 40.0 linewidths from resonance; "
            "the frequency-independent coupling model is doubtful there",
        )]

    def test_true_cell_on_the_grid_is_kept_bit_for_bit(self, grid, device):
        # the second g and the second coupling of the 4 x 4 grid are the
        # truth, where no step of the refinement lowers the distance
        g_true = 0.085 * COUPLING / RESONANCE
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        measured = simulate_scattering(grid, device, scheme)
        result = fit_parameters(
            measured, grid, scheme, (0.5 * g_true, 2.0 * g_true), (0.5 * COUPLING, 2.0 * COUPLING), 4
        )
        assert result.g_values[1] == pytest.approx(g_true, rel=1e-15)
        assert result.gamma_values[1] == pytest.approx(COUPLING, rel=1e-15)
        assert (result.best_g, result.best_gamma, result.distance) == (
            result.g_values[1], result.gamma_values[1], result.surface[1, 1]
        )

    def test_diagnostics_count_cells_and_report_convergence(self, device):
        # ratios 0.05 to 0.6 put cells past the threshold
        grid = ModeGrid(RESONANCE, SPACING, 6)
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        measured = simulate_scattering(grid, device, scheme)
        args = (
            measured, grid, scheme,
            (0.05 * COUPLING / RESONANCE, 0.6 * COUPLING / RESONANCE),
            (0.5 * COUPLING, 2.0 * COUPLING),
            6,
        )
        scan = fit_in_rounds(0, *args)
        above = int(np.isinf(scan.surface).sum())
        assert 0 < above < 36
        assert (scan.evaluations, scan.converged, scan.cells_above_threshold) == (36, False, above)
        assert not fit_in_rounds(3, *args).converged
        refined = fit_parameters(*args)
        assert refined.converged and refined.evaluations > 36
        assert refined.cells_above_threshold == above

    def test_worst_condition_is_the_largest_below_threshold_cell(self, device):
        # ratios 0.05 to 0.6: the scan has cells on both sides of the threshold
        grid = ModeGrid(RESONANCE, SPACING, 6)
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        measured = simulate_scattering(grid, device, scheme)
        scan = fit_in_rounds(
            0,
            measured, grid, scheme,
            (0.05 * COUPLING / RESONANCE, 0.6 * COUPLING / RESONANCE),
            (0.5 * COUPLING, 2.0 * COUPLING),
            6,
        )
        conditions = [
            simulate_dense(
                grid,
                DeviceParams(RESONANCE, gamma),
                PumpScheme(tuple(PumpTone(t.offset, 2.0 * g, t.phase) for t in scheme.tones)),
            ).condition_estimate
            for a, g in enumerate(scan.g_values)
            for b, gamma in enumerate(scan.gamma_values)
            if np.isfinite(scan.surface[a, b])
        ]
        assert 0 < len(conditions) < 36
        assert scan.worst_condition == pytest.approx(max(conditions), rel=1e-12)

    def test_valley_floor_is_flat(self, grid, device):
        g_true = 0.085 * COUPLING / RESONANCE
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        measured = simulate_scattering(grid, device, scheme)
        result = fit_parameters(
            measured, grid, scheme,
            g_range=(0.5 * g_true, 2.0 * g_true),
            gamma_range=(0.5 * COUPLING, 2.0 * COUPLING),
            grid_points=12,
        )
        surface = result.surface
        along = surface.min(axis=0)
        across = surface[:, int(np.argmin(surface.min(axis=0)))]
        assert np.var(along) < 1e-2 * np.var(across)

    def test_scheme_shape_mismatch_is_visible(self, grid, device):
        g_true = 0.085 * COUPLING / RESONANCE
        three = balanced_scheme(device, [-4, 0, 4], 0.085)
        one = balanced_scheme(device, [0], 0.085)
        measured = simulate_scattering(grid, device, three)
        kwargs = dict(
            g_range=(0.5 * g_true, 2.0 * g_true),
            gamma_range=(0.5 * COUPLING, 2.0 * COUPLING),
            grid_points=8,
        )
        good = fit_parameters(measured, grid, three, **kwargs)
        bad = fit_parameters(measured, grid, one, **kwargs)
        assert bad.distance > 100 * max(good.distance, 1e-9)

    def test_rescaling_leaves_scattering_invariant(self, device):
        # with detunings and strength scaled together with the coupling, the
        # model depends only on the dimensionless ratios
        for scale in (0.5, 2.0, 3.7):
            grid_a = ModeGrid(RESONANCE, SPACING, 9)
            grid_b = ModeGrid(RESONANCE, SPACING * scale, 9)
            dev_a = DeviceParams(RESONANCE, COUPLING)
            dev_b = DeviceParams(RESONANCE, COUPLING * scale)
            s_a = simulate_scattering(grid_a, dev_a, balanced_scheme(dev_a, [-4, 0, 4], 0.07))
            s_b = simulate_scattering(grid_b, dev_b, balanced_scheme(dev_b, [-4, 0, 4], 0.07))
            assert np.allclose(s_a.matrix, s_b.matrix, atol=1e-12)

    def test_all_infinite_surface_raises(self, device):
        # strength ratios from 0.6/1.1 to 0.9/0.9: every cell is past 1/2
        grid = ModeGrid(RESONANCE, SPACING, 1)
        scheme = balanced_scheme(device, [0], 0.2)
        measured = simulate_scattering(grid, device, balanced_scheme(device, [0], 0.05))
        with pytest.raises(FitInfeasibleError):
            fit_parameters(
                measured, grid, scheme,
                g_range=(0.6 * COUPLING / RESONANCE, 0.9 * COUPLING / RESONANCE),
                gamma_range=(0.9 * COUPLING, 1.1 * COUPLING),
                grid_points=4,
            )

    @settings(max_examples=30, deadline=None)
    @given(small_schemes(), st.integers(0, 2**32 - 1))
    def test_block_space_matches_full_matrix_distance(self, case, seed):
        grid, scheme = case
        truth = DeviceParams(grid.center_frequency, COUPLING)
        rng = np.random.default_rng(seed)
        measured = simulate_scattering(grid, truth, scheme).matrix
        measured = measured + 1e-3 * (
            rng.normal(size=measured.shape) + 1j * rng.normal(size=measured.shape)
        )
        # strength ratios from 0.01 to 1 put cells on both sides of the threshold
        g_range = (0.01 * COUPLING / RESONANCE, 1.0 * COUPLING / RESONANCE)
        gamma_range = (0.5 * COUPLING, 2.0 * COUPLING)
        result = fit_in_rounds(0, measured, grid, scheme, g_range, gamma_range, 5)
        expected, condition = np.moveaxis(np.array([
            [dense_cell(measured, grid, scheme, g, gamma) for gamma in result.gamma_values]
            for g in result.g_values
        ]), -1, 0)
        assert np.array_equal(np.isinf(result.surface), np.isinf(expected))
        # the dense inverse agrees with the block inverses to rounding, which
        # grows with the condition number near the threshold
        finite = np.isfinite(expected)
        rtol = rounding(condition[finite])
        assert np.all(np.abs(result.surface[finite] - expected[finite]) <= rtol * expected[finite])
        refined = fit_parameters(measured, grid, scheme, g_range, gamma_range, 5)
        assert refined.distance == pytest.approx(
            dense_distance(measured, grid, scheme, refined.best_g, refined.best_gamma),
            rel=1e-12,
        )

    @pytest.mark.filterwarnings("ignore::combscatter.model.BandMismatchWarning")
    def test_group_of_one_member_of_each_pair_gets_its_floor(self, device, monkeypatch):
        # -2/5 on 95 modes 10 MHz apart: one (2, 27) group holds only blocks
        # whose smallest slot is a conjugate slot; cells from ratio 0.42
        # send it to the spectral stage, where its floor is +inf and its
        # mirror group, open in the same cells, decomposes the pair once per
        # strength; the surface is the dense one
        grid = ModeGrid(RESONANCE, TWO_PI * 10e6, 47)
        scheme = balanced_scheme(device, [-2, 5], 0.3, [0.3, 1.0])
        measured = simulate_scattering(grid, device, scheme)
        floors = []
        spectral_floor = analysis._spectral_floor

        def recorded(stack, block):
            floors.append((block, spectral_floor(stack, block)))
            return floors[-1][1]

        monkeypatch.setattr(analysis, "_spectral_floor", recorded)
        decomposed = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: decomposed.append(a.shape) or eigvals(a)
        )
        g_range = (0.3 * COUPLING / RESONANCE, 0.5 * COUPLING / RESONANCE)
        gamma_range = (0.9 * COUPLING, 1.1 * COUPLING)
        result = fit_in_rounds(0, measured, grid, scheme, g_range, gamma_range, 5)
        odd = [floor for block, floor in floors if np.all(block.min(axis=1) % 2 == 1)]
        assert odd and all(floor == np.inf for floor in odd)
        pairs = [block for block, _ in floors if block.shape == (2, 27)]
        assert decomposed.count((2, 27, 27)) == len(pairs) - len(odd) > 0
        expected = np.array([
            [dense_distance(measured.matrix, grid, scheme, g, gamma)
             for gamma in result.gamma_values]
            for g in result.g_values
        ])
        assert 0 < result.cells_above_threshold < 25
        assert np.array_equal(np.isinf(result.surface), np.isinf(expected))
        # the true cell's distance is rounding, 7e-15
        finite = np.isfinite(expected)
        np.testing.assert_allclose(
            result.surface[finite], expected[finite], rtol=1e-12, atol=1e-14
        )

    def test_one_spectrum_per_strength_and_block_group(self, device, monkeypatch):
        # ratios 0.05 to 0.6 cross the threshold, so cells of every g row
        # reach the eigenvalue stage at several couplings
        grid = ModeGrid(RESONANCE, SPACING, 6)
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        measured = simulate_scattering(grid, device, scheme)
        spectra = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: spectra.append(a) or eigvals(a))
        points = 6
        result = fit_in_rounds(
            0,
            measured, grid, scheme,
            g_range=(0.05 * COUPLING / RESONANCE, 0.6 * COUPLING / RESONANCE),
            gamma_range=(0.5 * COUPLING, 2.0 * COUPLING),
            grid_points=points,
        )
        assert np.isinf(result.surface).any() and np.isfinite(result.surface).any()
        groups = len(_block_pieces(grid, device, scheme).blocks)
        assert 0 < len(spectra) <= points * groups

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_measured_entry_rejected(self, device, bad):
        grid = ModeGrid(RESONANCE, SPACING, 3)
        scheme = balanced_scheme(device, [0], 0.05)
        measured = simulate_scattering(grid, device, scheme).matrix.copy()
        measured[2, 5] = bad
        with pytest.raises(InvalidArgumentError, match="scattering matrix must be finite"):
            fit_parameters(measured, grid, scheme, (1e-3, 2e-3), (1.0, 2.0), 4)

    @pytest.mark.parametrize(
        "g_range, gamma_range",
        [
            ((1e-4, np.inf), (0.5 * COUPLING, 2.0 * COUPLING)),
            ((1e-4, 1e-2), (0.5 * COUPLING, np.inf)),
            ((1e-4, np.nan), (0.5 * COUPLING, 2.0 * COUPLING)),
        ],
    )
    def test_non_finite_range_end_rejected(self, device, g_range, gamma_range):
        grid = ModeGrid(RESONANCE, SPACING, 3)
        scheme = balanced_scheme(device, [0], 0.05)
        measured = simulate_scattering(grid, device, scheme)
        with pytest.raises(InvalidArgumentError, match="fit ranges must be positive, finite"):
            fit_parameters(measured, grid, scheme, g_range, gamma_range, 4)

    def test_validation(self, grid, device):
        scheme = balanced_scheme(device, [0], 0.05)
        measured = simulate_scattering(grid, device, scheme)
        with pytest.raises(InvalidArgumentError):
            fit_parameters(measured, grid, scheme, (1e-3, 2e-3), (1.0, 2.0), 3)
        with pytest.raises(InvalidArgumentError):
            fit_parameters(measured, grid, scheme, (2e-3, 1e-3), (1.0, 2.0), 5)
        with pytest.raises(InvalidArgumentError):
            fit_parameters(np.eye(4), grid, scheme, (1e-3, 2e-3), (1.0, 2.0), 5)
        with pytest.raises(InvalidArgumentError, match="in 4..500"):
            fit_parameters(measured, grid, scheme, (1e-3, 2e-3), (1.0, 2.0), 200_000)


class TestSearchPhases:
    def test_recovers_destructive_phase_for_ladder_target(self, device):
        grid = ModeGrid(RESONANCE, SPACING, 12)
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        target_db = simulated_db(grid, device, scheme.with_phase(2, np.pi))
        from combscatter import extract_graph

        target = extract_graph(target_db, grid, -20.0).edge_pairs()
        result = search_phases(scheme, target, 8, -20.0, grid, device)
        assert result.objective == 0
        # the achieved interference combination is destructive: the edge
        # phases minus twice the center phase land on pi (mod 2pi)
        phi_m1, phi_0, phi_1 = result.best_phases
        curvature = (phi_1 + phi_m1 - 2 * phi_0) % TWO_PI
        assert min(abs(curvature - np.pi), abs(curvature + np.pi - TWO_PI)) <= TWO_PI / 8
        labels = set(result.report.labels)
        assert labels == {TopologyLabel.SQUARE_LADDER}

    def test_start_point_target_is_zero_objective(self, device):
        grid = ModeGrid(RESONANCE, SPACING, 8)
        scheme = balanced_scheme(device, [-2, 2], 0.085)
        db = simulated_db(grid, device, scheme)
        from combscatter import extract_graph

        target = extract_graph(db, grid, -20.0).edge_pairs()
        result = search_phases(scheme, target, 4, -20.0, grid, device)
        assert result.objective == 0
        assert result.best_phases == (0.0, 0.0)

    def test_unreachable_edges_stay_unreached(self, device):
        grid = ModeGrid(RESONANCE, SPACING, 8)
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        # an odd-even edge crosses the residue classes: no phase reaches it
        target = [(0, 1)]
        result = search_phases(scheme, target, 4, -20.0, grid, device)
        assert result.objective > 0
        assert (0, 1) not in result.graph.edge_pairs()

    @settings(max_examples=100, deadline=None)
    @given(search_cases())
    def test_equals_exhaustive_search(self, case):
        scheme, target, points, threshold, grid = case
        device = DeviceParams(RESONANCE, COUPLING)
        args = (scheme, target, points, threshold, grid, device)
        try:
            expected = exhaustive_search(*args)
        except AboveThresholdError:
            event("every combination above threshold")
            with pytest.raises(AboveThresholdError, match="every phase combination"):
                search_phases(*args)
            return
        result = search_phases(*args)
        event(f"{len(scheme.tones)} tones, objective {result.objective}")
        assert_same_search(result, expected)
        assert 1 <= result.evaluated <= points ** len(scheme.tones)

    @pytest.mark.parametrize("half_span", [12, 47])
    def test_ladder_search_simulates_one_combination_per_curvature(self, device, half_span):
        # half_span 47 is the bundled size, whose blocks hold 48 slots
        grid = ModeGrid(RESONANCE, SPACING, half_span)
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        # (-12, 0) crosses the residue classes: the full grid is scanned
        args = (scheme, [(-12, 0)], 8, -20.0, grid, device)
        result = search_phases(*args)
        assert (result.evaluated, result.skipped_above_threshold) == (8, 0)
        expected = exhaustive_search(*args)
        assert_same_search(result, expected)

    @pytest.mark.parametrize("points", [4, 5, 6])
    def test_walk_stops_after_the_last_class(self, device, points):
        # (-3, 0) is unreachable, so every curvature class is simulated; the
        # first P combinations already cover all P of them
        grid = ModeGrid(RESONANCE, SPACING, 3)
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        args = (scheme, [(-3, 0)], points, -20.0, grid, device)
        result = search_phases(*args)
        assert result.evaluated == points
        expected = exhaustive_search(*args)
        assert_same_search(result, expected)

    def test_fine_three_tone_grid_simulates_only_its_classes(self, device):
        # 128 ** 3 combinations and 128 classes: the walk ends after the first 128
        grid = ModeGrid(RESONANCE, SPACING, 3)
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        result = search_phases(scheme, [(-3, 0)], 128, -20.0, grid, device)
        assert (result.evaluated, result.skipped_above_threshold) == (128, 0)
        assert result.objective > 0

    def test_two_tone_search_is_one_simulation(self, device):
        grid = ModeGrid(RESONANCE, SPACING, 8)
        scheme = balanced_scheme(device, [-3, 5], 0.085, [0.4, 2.0])
        result = search_phases(scheme, [(-8, 0)], 8, -20.0, grid, device)
        assert (result.evaluated, result.skipped_above_threshold) == (1, 0)
        assert result.best_phases == (0.0, 0.0)

    def test_above_threshold_class_is_skipped_once(self, device):
        grid = ModeGrid(RESONANCE, SPACING, 5)
        gamma = device.port_coupling
        # at ratio 0.21 zero curvature is unstable, (0, 0, 0) and its 63
        # gauge partners, and the curvatures +-pi/4 next to it are stable
        for phase, sign in ((np.pi / 2, -1), (3 * np.pi / 8, 1), (5 * np.pi / 8, 1)):
            system = dense_system(grid, device, ladder(device, 0.21, phase))
            assert sign * np.linalg.eigvals(system.matrix).real.min() > 0.002 * gamma
        scheme = ladder(device, 0.21, 0.0)
        args = (scheme, [(-5, 0)], 8, -20.0, grid, device)
        result = search_phases(*args)
        assert (result.evaluated, result.skipped_above_threshold) == (8, 1)
        expected = exhaustive_search(*args)
        assert_same_search(result, expected)

    def test_band_warns_once_at_the_callers_line(self):
        # 21 modes 20 MHz apart reach 200 MHz from resonance: 40 linewidths at 5 MHz
        narrow = DeviceParams(RESONANCE, TWO_PI * 5e6)
        grid = ModeGrid(RESONANCE, TWO_PI * 20e6, 10)
        scheme = balanced_scheme(narrow, [-4, 0, 4], 0.085)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = search_phases(scheme, [(0, 1)], 8, -20.0, grid, narrow)
        assert result.evaluated == 8
        assert [(w.category, str(w.message), w.filename) for w in caught] == [(
            BandMismatchWarning,
            "mode comb extends 40.0 linewidths from resonance; "
            "the frequency-independent coupling model is doubtful there",
            __file__,
        )]

    def test_every_class_above_threshold_raises(self, device):
        # the centre mode on resonance at ratio 0.6 is unstable at every phase
        grid = ModeGrid(RESONANCE, SPACING, 1)
        with pytest.raises(AboveThresholdError, match="every phase combination"):
            search_phases(balanced_scheme(device, [0], 0.6), [], 4, -20.0, grid, device)

    def test_validation(self, grid, device):
        scheme = balanced_scheme(device, [0], 0.05)
        with pytest.raises(InvalidArgumentError):
            search_phases(scheme, [], 3, -20.0, grid, device)
        with pytest.raises(InvalidArgumentError):
            search_phases(scheme, [(0, 99)], 4, -20.0, grid, device)
        # checked with the arguments, before the system is split
        with pytest.raises(InvalidArgumentError, match="threshold_db must not be NaN"):
            search_phases(scheme, [], 4, math.nan, grid, None)


@pytest.mark.parametrize("kind", ["simulate", "search", "sweep", "fit"])
def test_analyses_split_once_and_never_assemble(device, monkeypatch, kind):
    # a simulation, and an analysis however many points it evaluates, splits
    # the system into block pieces once and never assembles the dense system;
    # taking the pieces builds the diagonal of M once, and a pump-off
    # reference (the diagonal alone, inverted) would build it again
    grid = ModeGrid(RESONANCE, SPACING, 12)
    scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
    g, gamma = 0.085 * COUPLING / RESONANCE, COUPLING
    measured = simulate_scattering(grid, device, scheme)
    # the simulation of the measured matrix made the split this run would reuse
    scattering._split.cache_clear()
    runs = {
        "simulate": lambda: simulate_scattering(grid, device, scheme).n_modes,
        "search": lambda: search_phases(scheme, [(-12, 0)], 8, -20.0, grid, device).evaluated,
        "sweep": lambda: len(phase_sweep(scheme, 1, 8, 0, grid, device).phases),
        "fit": lambda: fit_in_rounds(
            2, measured, grid, scheme, (0.5 * g, 2 * g), (0.5 * gamma, 2 * gamma), 4
        ).evaluations,
    }
    calls = {"split": 0, "assemble": 0, "diagonal": 0}

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    split = counting("split", _block_pieces)
    monkeypatch.setattr(analysis, "_block_pieces", split)
    monkeypatch.setattr(scattering, "_block_pieces", split)
    monkeypatch.setattr(
        scattering, "assemble_system", counting("assemble", scattering.assemble_system)
    )
    monkeypatch.setattr(scattering, "_diagonal", counting("diagonal", scattering._diagonal))
    assert runs[kind]() >= 8
    assert calls == {"split": 1, "assemble": 0, "diagonal": 1}
