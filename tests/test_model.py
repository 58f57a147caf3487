"""Mode grid, pump schemes, coupling resolution, intermod bookkeeping."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from combscatter import (
    BandMismatchWarning,
    DeviceParams,
    InvalidArgumentError,
    ModeGrid,
    PumpScheme,
    PumpTone,
    predicted_intermod_indices,
    resolve_couplings,
)
from combscatter.model import MAX_HALF_SPAN, gauge_invariant_basis
from conftest import (
    COUPLING,
    RESONANCE,
    SPACING,
    TWO_PI,
    balanced_scheme,
    brute_force_pairs,
)


class TestDeviceParams:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_non_finite_or_non_positive_frequencies(self, bad):
        with pytest.raises(InvalidArgumentError):
            DeviceParams(bad, COUPLING)
        with pytest.raises(InvalidArgumentError):
            DeviceParams(RESONANCE, bad)


class TestModeGrid:
    def test_experiment_grid_has_95_modes(self):
        grid = ModeGrid(TWO_PI * 4.2e9, TWO_PI * 0.1e6, 47)
        assert grid.n_modes == 95
        assert list(grid.indices) == list(range(-47, 48))

    def test_degenerate_grid_single_mode(self):
        grid = ModeGrid(1.0e9, 1.0, 0)
        assert grid.n_modes == 1
        assert grid.frequency(0) == 1.0e9

    def test_linear_indexing_is_exact(self, grid):
        assert grid.frequency(-47) == grid.center_frequency - 47 * grid.spacing
        for j in (-47, -1, 0, 13, 47):
            assert grid.frequency(j) == grid.center_frequency + j * grid.spacing

    def test_rejects_non_positive_spacing(self):
        with pytest.raises(InvalidArgumentError):
            ModeGrid(1.0, 0.0, 3)
        with pytest.raises(InvalidArgumentError):
            ModeGrid(1.0, -2.0, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_center_and_spacing(self, bad):
        with pytest.raises(InvalidArgumentError):
            ModeGrid(bad, 1.0, 3)
        with pytest.raises(InvalidArgumentError):
            ModeGrid(1.0, bad, 3)

    @pytest.mark.parametrize("bad", [MAX_HALF_SPAN + 1, 10**7, -1, 2.5, math.nan, math.inf])
    def test_rejects_half_span_outside_cap(self, bad):
        with pytest.raises(InvalidArgumentError, match="half_span"):
            ModeGrid(1.0, 1.0, bad)

    def test_largest_grid_accepted(self):
        assert ModeGrid(1.0, 1.0, MAX_HALF_SPAN).n_modes == 2 * MAX_HALF_SPAN + 1

    def test_out_of_range_index_rejected(self, grid):
        with pytest.raises(InvalidArgumentError):
            grid.frequency(48)

    def test_interleaved_slots(self, grid):
        assert grid.a_slot(-47) == 0
        assert grid.a_conj_slot(-47) == 1
        assert grid.a_slot(47) == 2 * 94
        assert grid.a_conj_slot(0) == 2 * 47 + 1


class TestPumpScheme:
    def test_strength_is_half_amplitude_at_phase(self):
        tone = PumpTone(offset=4, amplitude=0.02, phase=0.7)
        assert tone.strength == pytest.approx(0.01 * np.exp(0.7j), rel=1e-15)

    def test_phase_wraps_into_canonical_interval(self):
        assert PumpTone(0, 1.0, TWO_PI).phase == 0.0
        assert 0.0 <= PumpTone(0, 1.0, -0.5).phase < TWO_PI

    def test_negative_amplitude_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PumpTone(0, -1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_and_phase_rejected(self, bad):
        with pytest.raises(InvalidArgumentError):
            PumpTone(0, bad, 0.0)
        with pytest.raises(InvalidArgumentError):
            PumpTone(0, 1.0, bad)

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PumpScheme((PumpTone(0, 0.1), PumpTone(0, 0.2)))

    def test_with_phase_replaces_single_tone(self):
        scheme = PumpScheme.balanced([-4, 0, 4], 0.01)
        shifted = scheme.with_phase(2, 1.0)
        assert shifted.tones[2].phase == pytest.approx(1.0)
        assert shifted.tones[:2] == scheme.tones[:2]


def integer_det(rows):
    """Exact determinant of a small integer matrix, by cofactor expansion."""
    if not rows:
        return 1
    return sum(
        (-1) ** col * rows[0][col] * integer_det([row[:col] + row[col + 1 :] for row in rows[1:]])
        for col in range(len(rows))
    )


class TestGaugeInvariantBasis:
    def test_three_tone_ladder_is_the_curvature(self):
        (vector,) = gauge_invariant_basis((-4, 0, 4))
        assert vector in ((1, -2, 1), (-1, 2, -1))

    @pytest.mark.parametrize("offsets", [(), (0,), (-4, 4), (3, -7), (0, 1)])
    def test_one_or_two_tones_have_no_invariant(self, offsets):
        assert gauge_invariant_basis(offsets) == ()

    @given(st.lists(st.integers(-12, 12), min_size=3, max_size=5, unique=True))
    def test_basis_spans_the_whole_invariant_lattice(self, offsets):
        basis = gauge_invariant_basis(offsets)
        assert len(basis) == len(offsets) - 2
        for vector in basis:
            assert sum(vector) == 0
            assert sum(c * m for c, m in zip(vector, offsets)) == 0
        # full rank with coprime maximal minors: no sublattice of the kernel
        minors = [
            integer_det([[vector[t] for t in chosen] for vector in basis])
            for chosen in combinations(range(len(offsets)), len(basis))
        ]
        assert math.gcd(*minors) == 1


class TestResolveCouplings:
    def test_three_pump_partners_of_mode_28(self, grid, device):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        couplings = resolve_couplings(grid, scheme, device)
        partners = {c.i + c.j - 28 for c in couplings.entries if 28 in (c.i, c.j)}
        assert sorted(partners) == [-32, -28, -24]

    def test_single_pump_is_antidiagonal(self, grid, device):
        scheme = balanced_scheme(device, [0], 0.085)
        couplings = resolve_couplings(grid, scheme, device)
        pairs = {(c.i, c.j) for c in couplings}
        assert pairs == {(min(i, -i), max(i, -i)) for i in grid.indices}

    def test_two_pump_pairs_match_brute_force(self, grid, device):
        scheme = balanced_scheme(device, [-2, 2], 0.05)
        couplings = resolve_couplings(grid, scheme, device)
        pairs = {(c.i, c.j) for c in couplings}
        assert pairs == brute_force_pairs([-2, 2], grid.half_span)
        assert (1, 1) in pairs  # degenerate squeezing retained
        assert (-3, 1) in pairs

    def test_random_schemes_match_brute_force(self, grid, device):
        rng = np.random.default_rng(5)
        for _ in range(20):
            count = rng.integers(1, 5)
            offsets = rng.choice(np.arange(-9, 10), size=count, replace=False)
            scheme = balanced_scheme(device, [int(o) for o in offsets], 0.02)
            pairs = {(c.i, c.j) for c in resolve_couplings(grid, scheme, device)}
            assert pairs == brute_force_pairs(offsets, grid.half_span)

    def test_grid_closure(self, grid, device):
        rng = np.random.default_rng(11)
        for _ in range(20):
            offsets = rng.choice(np.arange(-2 * grid.half_span, 2 * grid.half_span + 1),
                                 size=3, replace=False)
            scheme = balanced_scheme(device, [int(o) for o in offsets], 0.02)
            for entry in resolve_couplings(grid, scheme, device):
                assert grid.contains(entry.i) and grid.contains(entry.j)
                assert entry.i + entry.j in scheme.offsets

    def test_strength_carries_resonance_prefactor(self, grid, device):
        scheme = PumpScheme((PumpTone(0, 0.01, 0.4),))
        couplings = resolve_couplings(grid, scheme, device)
        expected = device.resonance_frequency * 0.005 * np.exp(0.4j)
        for entry in couplings:
            assert entry.strength == pytest.approx(expected, rel=1e-15)

    def test_phase_shift_scales_only_that_tones_entries(self, grid, device):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.05)
        delta = 0.9
        shifted = scheme.with_phase(1, scheme.tones[1].phase + delta)
        base = {(c.i, c.j): c.strength for c in resolve_couplings(grid, scheme, device)}
        after = {(c.i, c.j): c.strength for c in resolve_couplings(grid, shifted, device)}
        assert set(base) == set(after)
        rot = np.exp(1j * delta)
        for pair, strength in base.items():
            if sum(pair) == 0:
                assert after[pair] == pytest.approx(strength * rot, rel=1e-12)
            else:
                assert after[pair] == strength

    def test_out_of_band_tone_contributes_nothing(self, grid, device):
        scheme = balanced_scheme(device, [2 * grid.half_span + 5], 0.05)
        assert len(resolve_couplings(grid, scheme, device)) == 0

    def test_empty_scheme_gives_empty_set(self, grid, device):
        assert len(resolve_couplings(grid, PumpScheme(()), device)) == 0

    def test_residue_partition_of_three_pump_graph(self, grid, device):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.05)
        couplings = resolve_couplings(grid, scheme, device)
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(grid.indices)
        g.add_edges_from((c.i, c.j) for c in couplings)
        comps = sorted(nx.connected_components(g), key=len)
        assert [len(c) for c in comps] == [23, 24, 48]
        assert {i % 4 for i in comps[0]} == {0}
        assert {i % 4 for i in comps[1]} == {2}
        assert all(i % 2 for i in comps[2])

    def test_band_warning_when_comb_leaves_linewidth(self):
        device = DeviceParams(RESONANCE, TWO_PI * 1e6)  # 1 MHz linewidth
        grid = ModeGrid(RESONANCE, SPACING, 47)  # comb spans +-4.7 MHz
        with pytest.warns(BandMismatchWarning):
            resolve_couplings(grid, PumpScheme.balanced([0], 0.001), device)

    @pytest.mark.parametrize(
        "entry", ["resolve_couplings", "simulate_scattering", "phase_sweep", "fit_parameters",
                  "search_phases"],
    )
    def test_band_warning_points_at_the_caller(self, entry, monkeypatch):
        import combscatter

        monkeypatch.setattr("combscatter.analysis.REFINE_ROUNDS", 2)
        device = DeviceParams(RESONANCE, COUPLING)
        grid = ModeGrid(RESONANCE, TWO_PI * 100e6, 4)  # 3.6 linewidths from resonance
        scheme = balanced_scheme(device, [-2, 2], 0.05)
        calls = {
            "resolve_couplings": lambda: resolve_couplings(grid, scheme, device),
            "simulate_scattering": lambda: combscatter.simulate_scattering(grid, device, scheme),
            "phase_sweep": lambda: combscatter.phase_sweep(scheme, 0, 8, 1, grid, device),
            "fit_parameters": lambda: combscatter.fit_parameters(
                combscatter.simulate_scattering(grid, device, scheme), grid, scheme,
                (1e-4, 1e-2), (0.5 * COUPLING, 2 * COUPLING), 4),
            "search_phases": lambda: combscatter.search_phases(
                scheme, [(-4, 1)], 4, -20.0, grid, device),
        }
        with pytest.warns(BandMismatchWarning) as record:
            calls[entry]()
        assert {w.filename for w in record} == {__file__}

    def test_no_warning_inside_band(self, grid, device):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", BandMismatchWarning)
            resolve_couplings(grid, PumpScheme.balanced([0], 0.001), device)


class TestPredictedIntermod:
    def test_three_pump_signal_28(self, grid, device):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        pred = predicted_intermod_indices(28, scheme, grid)
        assert pred.second_order == (-32, -28, -24)
        # brute force over ordered tone pairs
        expected = {}
        for a in (-4, 0, 4):
            for b in (-4, 0, 4):
                if a != b:
                    expected[a - b + 28] = expected.get(a - b + 28, 0) + 1
        assert dict(pred.third_order) == expected
        assert dict(pred.third_order) == {20: 1, 24: 2, 32: 2, 36: 1}
        assert not pred.dropped_out_of_grid

    def test_single_pump_has_no_third_order(self, grid, device):
        pred = predicted_intermod_indices(5, balanced_scheme(device, [0], 0.05), grid)
        assert pred.second_order == (-5,)
        assert pred.third_order == ()

    def test_centre_signal_second_order(self, grid, device):
        pred = predicted_intermod_indices(0, balanced_scheme(device, [-4, 0, 4], 0.05), grid)
        assert pred.second_order == (-4, 0, 4)

    def test_out_of_grid_products_dropped_and_flagged(self, grid, device):
        pred = predicted_intermod_indices(
            45, balanced_scheme(device, [-4, 0, 4], 0.05), grid
        )
        # third order at 45 + 8 = 53 leaves the grid
        assert pred.dropped_out_of_grid
        assert all(grid.contains(i) for i, _ in pred.third_order)

    def test_signal_outside_grid_rejected(self, grid, device):
        with pytest.raises(InvalidArgumentError):
            predicted_intermod_indices(48, balanced_scheme(device, [0], 0.05), grid)
