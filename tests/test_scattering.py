"""System assembly, inversion, pump-off normalization."""

import dataclasses
import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import combscatter as cs
from combscatter import (
    AboveThresholdError,
    BandMismatchWarning,
    Coupling,
    CouplingSet,
    DegenerateNormalizationError,
    DeviceParams,
    InternalConsistencyError,
    ModeGrid,
    PumpScheme,
    PumpTone,
    assemble_system,
    bundled_config_path,
    fit_parameters,
    magnitude_db,
    normalize_pump_off,
    parse_config,
    particle_hole_defect,
    phase_sweep,
    pump_off_scattering,
    resolve_couplings,
    scattering_matrix,
    search_phases,
    simulate_scattering,
)
from combscatter.datafiles import load_scattering, load_scattering_csv, sidecar_path
from combscatter import scattering
from combscatter.model import MAX_HALF_SPAN
from combscatter.scattering import (
    CONDITION_CAP,
    ScatteringMatrix,
    _Quarters,
    _block_pieces,
    _disc_bound,
    _invert_blocks,
    _split,
)
from conftest import (
    COUPLING,
    RESONANCE,
    SPACING,
    TWO_PI,
    analytic_two_mode_block,
    balanced_scheme,
    fit_in_rounds,
    small_schemes,
    write_native_payload,
)
import split_reference
from dense_reference import dense_system, rounding, simulate_dense


# a tone amplitude at strength ratio 0.05
EDGE_AMPLITUDE = 0.1 * COUPLING / RESONANCE


def reported_margin(error):
    """The smallest eigenvalue real part an above-threshold message names."""
    return float(re.search(r"real part (\S+) <= 0", str(error)).group(1))


def random_scheme(rng, max_ratio=0.1):
    count = int(rng.integers(1, 5))
    offsets = rng.choice(np.arange(-8, 9), size=count, replace=False)
    tones = balanced_scheme(
        DeviceParams(RESONANCE, COUPLING), [int(o) for o in offsets], 1.0
    ).tones
    out = []
    for t in tones:
        ratio = float(rng.uniform(0.01, max_ratio))
        amp = 2.0 * ratio * COUPLING / RESONANCE
        out.append(PumpTone(t.offset, amp, float(rng.uniform(0, TWO_PI))))
    return PumpScheme(tuple(out))


class TestAssemble:
    def test_zero_pump_system_is_diagonal(self, grid, device):
        system = assemble_system(grid, device, CouplingSet())
        off_diag = system.matrix - np.diag(np.diag(system.matrix))
        assert np.all(off_diag == 0)
        assert system.k_coupling == pytest.approx(np.sqrt(device.port_coupling))

    def test_diagonal_follows_detuning_convention(self, grid, device):
        system = assemble_system(grid, device, CouplingSet())
        j = 13
        detuning = device.resonance_frequency - grid.frequency(j)
        expected = 1j * detuning + device.port_coupling / 2
        assert system.matrix[grid.a_slot(j), grid.a_slot(j)] == expected
        assert system.matrix[grid.a_conj_slot(j), grid.a_conj_slot(j)] == np.conj(expected)

    def test_particle_hole_structure_exact(self, grid, device):
        rng = np.random.default_rng(3)
        for _ in range(5):
            scheme = random_scheme(rng)
            system = assemble_system(grid, device, resolve_couplings(grid, scheme, device))
            assert particle_hole_defect(system.matrix) == 0.0

    def test_particle_hole_defect_matches_the_gather_formula(self):
        # the defect as first written: the whole matrix against the conjugate
        # of its slot-swapped copy
        def gathered(m):
            swap = np.arange(m.shape[0]) ^ 1
            return float(np.max(np.abs(m - np.conj(m[np.ix_(swap, swap)]))))

        rng = np.random.default_rng(11)
        for size in (2, 4, 10, 38, 190):
            shape = (size, size)
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            swap = np.arange(size) ^ 1
            symmetric = 0.5 * (m + np.conj(m[np.ix_(swap, swap)]))
            perturbed = symmetric + 1e-13 * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
            assert particle_hole_defect(symmetric) == gathered(symmetric) == 0.0
            for matrix in (m, perturbed):
                assert particle_hole_defect(matrix) == gathered(matrix)
            assert 0.0 < particle_hole_defect(perturbed) < 1e-12

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3)])
    def test_particle_hole_defect_rejects_a_malformed_array(self, shape):
        with pytest.raises(cs.InvalidArgumentError, match="square matrix of even side"):
            particle_hole_defect(np.eye(*shape))

    def test_coupling_outside_grid_rejected(self, grid, device):
        bad = CouplingSet((Coupling(0, 48, 1.0 + 0j),))
        with pytest.raises(InternalConsistencyError):
            assemble_system(grid, device, bad)

    def test_coupling_entry_orientation(self, grid, device):
        strength = 2.0e8 * np.exp(0.3j)
        system = assemble_system(grid, device, CouplingSet((Coupling(1, 3, strength),)))
        assert system.matrix[grid.a_slot(1), grid.a_conj_slot(3)] == -1j * strength
        assert system.matrix[grid.a_slot(3), grid.a_conj_slot(1)] == -1j * strength
        assert system.matrix[grid.a_conj_slot(1), grid.a_slot(3)] == np.conj(-1j * strength)

    def test_degenerate_coupling_populates_cross_entry_once(self, grid, device):
        strength = 1.0e8 + 0j
        system = assemble_system(grid, device, CouplingSet((Coupling(2, 2, strength),)))
        assert system.matrix[grid.a_slot(2), grid.a_conj_slot(2)] == -1j * strength


@st.composite
def pump_off_cases(draw):
    """A grid of 1-81 modes, off resonance, and a port coupling for it.

    The farthest mode lies up to 2e16 half-linewidths from resonance, far
    past the condition cap: a system with no pump is stable whatever its
    condition, and its reflection is written down, not inverted.
    """
    half_span = draw(st.integers(0, 40))
    reach = RESONANCE * draw(st.floats(1e-6, 0.5))  # the comb's half-width
    width = 10.0 ** draw(st.floats(-2.0, 16.0))  # reach in half-linewidths
    centre = RESONANCE + draw(st.floats(-1.0, 1.0)) * reach
    grid = ModeGrid(centre, reach / max(half_span, 1), half_span)
    return grid, DeviceParams(RESONANCE, 2.0 * reach / width)


class TestScatteringMatrix:
    @settings(max_examples=200, deadline=None)
    @given(pump_off_cases())
    @example((ModeGrid(RESONANCE, SPACING, 47), DeviceParams(RESONANCE, COUPLING)))
    # mode 0 on resonance and mode 40 1e11 half-linewidths from it
    @example((ModeGrid(RESONANCE, RESONANCE / 80, 40), DeviceParams(RESONANCE, RESONANCE / 1e11)))
    # condition 9.4e14, past the cap, with no pump to make it unstable
    @example((ModeGrid(RESONANCE, TWO_PI * 10e9, 47), DeviceParams(RESONANCE, TWO_PI * 0.001)))
    def test_pump_off_all_pass(self, case):
        # the closed form every run path relies on: |S_off| = 1 to rounding
        grid, device = case
        s = pump_off_scattering(grid, device).matrix
        diagonal = np.diag(s)
        assert np.max(np.abs(np.abs(diagonal) - 1.0)) <= 8 * np.finfo(float).eps
        assert np.count_nonzero(s - np.diag(diagonal)) == 0

    def test_two_mode_oracle_50_random_triples(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            gamma = TWO_PI * 10 ** rng.uniform(6.5, 8.8)
            spacing = gamma * 10 ** rng.uniform(-4, -0.7)
            threshold = np.sqrt(spacing**2 + gamma**2 / 4)
            magnitude = rng.uniform(0.05, 0.8) * threshold
            strength = magnitude * np.exp(1j * rng.uniform(0, TWO_PI))
            grid = ModeGrid(RESONANCE, spacing, 1)
            device = DeviceParams(RESONANCE, gamma)
            system = assemble_system(
                grid, device, CouplingSet((Coupling(-1, 1, strength),))
            )
            s = scattering_matrix(system).matrix
            s_ii, s_ij, s_ji, s_jj = analytic_two_mode_block(
                spacing, -spacing, gamma, strength
            )
            scale = max(abs(s_ii), abs(s_ij))
            err = max(
                abs(s[grid.a_slot(-1), grid.a_slot(-1)] - s_ii),
                abs(s[grid.a_slot(-1), grid.a_conj_slot(1)] - s_ij),
                abs(s[grid.a_conj_slot(1), grid.a_slot(-1)] - s_ji),
                abs(s[grid.a_conj_slot(1), grid.a_conj_slot(1)] - s_jj),
            )
            worst = max(worst, err / scale)
        assert worst < 1e-12

    def test_signal_gain_minus_idler_gain_is_unity(self, grid, device):
        # Bogoliubov relation of the lossless model, mode pair (28, -28)
        scheme = balanced_scheme(device, [0], 0.2)
        s = simulate_scattering(grid, device, scheme).matrix
        gain = abs(s[grid.a_slot(28), grid.a_slot(28)]) ** 2
        idler = abs(s[grid.a_slot(28), grid.a_conj_slot(-28)]) ** 2
        assert gain - idler == pytest.approx(1.0, rel=1e-10)

    def test_driven_column_dominated_by_direct_idlers(self, grid, device):
        # driving mode 28 of the three-pump scheme, the three strongest
        # off-diagonal responses are the directly pumped partners
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        s = simulate_scattering(grid, device, scheme).matrix
        column = np.abs(s[:, grid.a_slot(28)])
        column[grid.a_slot(28)] = 0.0  # drop the reflection
        top_rows = np.argsort(column)[-3:]
        expected = {grid.a_conj_slot(m) for m in (-32, -28, -24)}
        assert set(top_rows.tolist()) == expected

    def test_particle_hole_structure_of_s(self, grid, device):
        rng = np.random.default_rng(7)
        for _ in range(5):
            s = simulate_scattering(grid, device, random_scheme(rng))
            assert particle_hole_defect(s.matrix) < 1e-10

    def test_zero_amplitude_recovers_pump_off_exactly(self, grid, device):
        # bit for bit the inverted pump-off diagonal of the assembled path,
        # and the closed form conj(z) / z to rounding
        scheme = balanced_scheme(device, [-4, 0, 4], 0.0)
        s_zero = simulate_scattering(grid, device, scheme).matrix
        assembled = scattering_matrix(assemble_system(grid, device, CouplingSet())).matrix
        assert np.array_equal(s_zero, assembled)
        s_off = pump_off_scattering(grid, device).matrix
        assert np.max(np.abs(s_zero - s_off)) <= 8 * np.finfo(float).eps

    def test_construction_is_order_independent(self, grid, device):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.07)
        couplings = resolve_couplings(grid, scheme, device)
        shuffled = list(couplings.entries)
        np.random.default_rng(0).shuffle(shuffled)
        a = assemble_system(grid, device, couplings).matrix
        b = assemble_system(grid, device, CouplingSet(tuple(shuffled))).matrix
        assert np.array_equal(a, b)

    def test_global_pump_phase_leaves_magnitudes_invariant(self, grid, device):
        base = balanced_scheme(device, [-4, 0, 4], 0.085, [0.3, 1.1, 2.0])
        delta = 0.77
        shifted = PumpScheme(
            tuple(
                type(t)(t.offset, t.amplitude, t.phase + delta) for t in base.tones
            )
        )
        s0 = simulate_scattering(grid, device, base).matrix
        s1 = simulate_scattering(grid, device, shifted).matrix
        assert np.max(np.abs(np.abs(s0) - np.abs(s1))) < 1e-10

    def test_single_pump_phase_invariance(self, grid, device):
        a = simulate_scattering(grid, device, balanced_scheme(device, [0], 0.085, [0.0]))
        b = simulate_scattering(grid, device, balanced_scheme(device, [0], 0.085, [2.4]))
        assert np.max(np.abs(np.abs(a.matrix) - np.abs(b.matrix))) < 1e-10

    def test_two_pump_relative_phase_invariance(self, grid, device):
        a = simulate_scattering(
            grid, device, balanced_scheme(device, [-2, 2], 0.085, [0.0, 0.0])
        )
        b = simulate_scattering(
            grid, device, balanced_scheme(device, [-2, 2], 0.085, [0.0, 1.9])
        )
        assert np.max(np.abs(np.abs(a.matrix) - np.abs(b.matrix))) < 1e-10

    def test_condition_estimate_grows_toward_threshold(self, device):
        # single coupled pair on resonance: threshold at ratio 1/2
        grid = ModeGrid(RESONANCE, TWO_PI * 0.1e6, 1)
        conds = []
        for ratio in (0.1, 0.3, 0.45, 0.49):
            scheme = balanced_scheme(device, [0], ratio)
            conds.append(simulate_scattering(grid, device, scheme).condition_estimate)
        assert all(a < b for a, b in zip(conds, conds[1:]))

    def test_above_threshold_raises(self, device):
        # the degenerate center-mode block is singular at ratio 1/2; just below
        # it the system is stable but its condition number passes the cap
        grid = ModeGrid(RESONANCE, TWO_PI * 0.1e6, 1)
        scheme = balanced_scheme(device, [0], 0.5 - 1e-13)
        system = assemble_system(grid, device, resolve_couplings(grid, scheme, device))
        assert np.linalg.eigvals(system.matrix).real.min() > 5e-14 * device.port_coupling
        with pytest.raises(AboveThresholdError, match="exceeds cap") as info:
            simulate_scattering(grid, device, scheme)
        assert info.value.condition_estimate > 5 * CONDITION_CAP

    def test_over_cap_message_says_stable_not_threshold_reached(self, device):
        # a stable system over the cap is told apart from an unstable one by
        # its message alone: both raise the same error and exit 3
        grid = ModeGrid(RESONANCE, TWO_PI * 0.1e6, 1)
        scheme = balanced_scheme(device, [0], 0.5 - 1e-13)
        system = assemble_system(grid, device, resolve_couplings(grid, scheme, device))
        for run in (lambda: simulate_scattering(grid, device, scheme),
                    lambda: scattering_matrix(system)):
            with pytest.raises(AboveThresholdError, match="exceeds cap") as info:
                run()
            assert "threshold reached" not in str(info.value)
            assert "is stable" in str(info.value)

    @pytest.mark.parametrize("ratio", [0.51, 0.8])
    def test_one_pump_past_half_raises(self, device, ratio):
        # past ratio 1/2 the centre pair is unstable, though far from singular
        grid = ModeGrid(RESONANCE, SPACING, 1)
        with pytest.raises(AboveThresholdError, match="dynamically unstable"):
            simulate_scattering(grid, device, balanced_scheme(device, [0], ratio))

    def test_unstable_system_decomposes_one_block_of_each_mirror_pair(
        self, grid, device, monkeypatch
    ):
        # one pump at offset 0 pairs a_i with a*_-i: 95 two-slot blocks, the
        # centre one its own mirror, the other 94 in 47 mirror pairs; past
        # ratio 1/2 the Cholesky stage fails and the group needs its spectrum
        scheme = balanced_scheme(device, [0], 0.6)
        (pairs,) = _block_pieces(grid, device, scheme).blocks
        assert pairs.shape == (95, 2) and np.sum(pairs.min(axis=1) % 2 == 0) == 48
        decomposed = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: decomposed.append(len(a)) or eigvals(a))
        with pytest.raises(AboveThresholdError, match="dynamically unstable") as info:
            simulate_scattering(grid, device, scheme)
        assert decomposed == [48]
        assert reported_margin(info.value) == pytest.approx(-0.1 * device.port_coupling, rel=1e-6)

    @pytest.mark.filterwarnings("ignore::combscatter.model.BandMismatchWarning")
    @pytest.mark.parametrize("ratio", [0.44, 0.45, 0.455])
    def test_group_of_one_member_of_each_pair_leaves_its_spectrum_to_its_mirror(
        self, device, monkeypatch, ratio
    ):
        # -2/5 on 95 modes 10 MHz apart: two (2, 27) groups, each the other's
        # mirror; the one with 13 amplitude slots holds only blocks whose
        # smallest slot is a conjugate slot, so it picks none and decomposes
        # nothing, and its mirror group, open with it, decomposes the pair
        # once; from ratio 0.45 that mirror group is found unstable
        grid = ModeGrid(RESONANCE, TWO_PI * 10e6, 47)
        scheme = balanced_scheme(device, [-2, 5], ratio, [0.3, 1.0])
        blocks = _block_pieces(grid, device, scheme).blocks
        (odd,) = [b for b in blocks if b.shape == (2, 27) and np.sum(b[0] % 2 == 0) == 13]
        assert np.all(odd.min(axis=1) % 2 == 1)
        system = dense_system(grid, device, scheme)
        floor = np.linalg.eigvals(system.matrix).real.min()
        reference = scattering_matrix(system) if floor > 0 else None
        decomposed = []
        eigvals = np.linalg.eigvals

        def recorded(a):
            decomposed.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        if floor > 0:
            s = simulate_scattering(grid, device, scheme)
            assert_agrees(s, reference)
        else:
            with pytest.raises(AboveThresholdError) as info:
                simulate_scattering(grid, device, scheme)
            assert str(info.value) == (
                "parametric oscillation threshold reached: the system is dynamically "
                f"unstable, with an eigenvalue of real part {floor:.6e} <= 0"
            )
        assert decomposed.count((2, 27, 27)) == 1

    @pytest.mark.parametrize("ratio", [0.25, 0.34])
    def test_ladder_at_destructive_phase_past_threshold_raises(self, grid, device, ratio):
        # -4/0/4 at phases pi/0/0 on 95 modes: margins -0.042 and -0.242 gamma
        scheme = balanced_scheme(device, [-4, 0, 4], ratio, [np.pi, 0.0, 0.0])
        with pytest.raises(AboveThresholdError, match="dynamically unstable"):
            simulate_scattering(grid, device, scheme)

    @pytest.mark.parametrize("ratio", [0.1, 0.3, 0.49, 0.51, 0.8])
    def test_pair_margin_is_half_gamma_minus_coupling(self, device, ratio):
        # on resonance the pair block is (gamma/2) I plus a Hermitian part with
        # eigenvalues +-|c|, so its smallest real part is gamma/2 - |c|
        grid = ModeGrid(RESONANCE, SPACING, 1)
        scheme = balanced_scheme(device, [0], ratio)
        system = assemble_system(grid, device, resolve_couplings(grid, scheme, device))
        blocks = _block_pieces(grid, device, scheme).blocks
        block = next(b for group in blocks for b in group if grid.a_slot(0) in b)
        gamma = device.port_coupling
        margin = gamma / 2.0 - abs(resolve_couplings(grid, scheme, device).entries[0].strength)
        assert margin == pytest.approx((0.5 - ratio) * gamma, rel=1e-12)
        lowest = np.linalg.eigvals(system.matrix[np.ix_(block, block)]).real.min()
        assert lowest == pytest.approx(margin, abs=1e-12 * gamma)
        if margin < 0:
            with pytest.raises(AboveThresholdError) as info:
                scattering_matrix(system)
            assert reported_margin(info.value) == pytest.approx(margin, rel=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(small_schemes(), st.floats(0.1, 15.0))
    def test_raises_exactly_when_an_eigenvalue_leaves_the_right_half_plane(self, case, scale):
        # tone ratios from 0.001 to 1.5: well below, at and past the threshold
        grid, scheme = strengths_scaled(case, scale)
        device = DeviceParams(RESONANCE, COUPLING)
        system = assemble_system(grid, device, resolve_couplings(grid, scheme, device))
        margin = np.linalg.eigvals(system.matrix).real.min()
        try:
            simulate_scattering(grid, device, scheme)
        except AboveThresholdError:
            event("above threshold")
            assert margin <= 1e-9 * COUPLING
        else:
            assert margin > -1e-9 * COUPLING

    def test_dense_chain_reads_no_block_code(self, grid, device, monkeypatch):
        # the dense reference inverts M whole, so with the block partition,
        # the block pieces and the block inverter broken it still gets S,
        # and its gate still finds an unstable system
        stable = balanced_scheme(device, [-4, 0, 4], 0.085, [0.4, 1.3, 2.9])
        unstable = balanced_scheme(device, [-4, 0, 4], 0.25, [np.pi, 0.0, 0.0])
        expected = simulate_scattering(grid, device, stable)

        def broken(*args, **kwargs):
            raise AssertionError("the dense chain reached the block solver")

        for name in ("_invert_blocks", "_block_partition", "_block_pieces"):
            monkeypatch.setattr(scattering, name, broken)
        assert_agrees(expected, simulate_dense(grid, device, stable))
        with pytest.raises(AboveThresholdError, match="dynamically unstable"):
            simulate_dense(grid, device, unstable)

    def test_matrices_are_read_only(self, grid, device):
        s = pump_off_scattering(grid, device)
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 0.0


def loop_assembly(grid, device, couplings):
    """Reference assembly: one mode and one coupling at a time."""
    gamma = device.port_coupling
    m = np.zeros((2 * grid.n_modes, 2 * grid.n_modes), dtype=complex)
    for j in grid.indices:
        detuning = device.resonance_frequency - grid.frequency(j)
        m[grid.a_slot(j), grid.a_slot(j)] = 1j * detuning + gamma / 2.0
        m[grid.a_conj_slot(j), grid.a_conj_slot(j)] = -1j * detuning + gamma / 2.0
    for e in couplings:
        off = -1j * e.strength
        m[grid.a_slot(e.i), grid.a_conj_slot(e.j)] += off
        m[grid.a_conj_slot(e.i), grid.a_slot(e.j)] += np.conj(off)
        if e.i != e.j:
            m[grid.a_slot(e.j), grid.a_conj_slot(e.i)] += off
            m[grid.a_conj_slot(e.j), grid.a_slot(e.i)] += np.conj(off)
    return m


def block_labels(blocks, size):
    """Block number of every slot; each slot must appear in exactly one block."""
    slots = np.concatenate([b.ravel() for b in blocks])
    assert np.array_equal(np.sort(slots), np.arange(size))
    labels = np.empty(len(slots), dtype=int)
    first = 0
    for b in blocks:
        labels[b] = first + np.arange(len(b))[:, np.newaxis]
        first += len(b)
    return labels


class TestBlockSolver:
    @settings(max_examples=80, deadline=None)
    @given(small_schemes())
    def test_matches_loop_assembly_and_dense_inverse(self, case):
        grid, scheme = case
        device = DeviceParams(RESONANCE, COUPLING)
        couplings = resolve_couplings(grid, scheme, device)
        system = assemble_system(grid, device, couplings)
        assert np.array_equal(system.matrix, loop_assembly(grid, device, couplings))
        s = simulate_scattering(grid, device, scheme)
        assert_agrees(s, scattering_matrix(system))

    @settings(max_examples=80, deadline=None)
    @given(small_schemes())
    def test_blocks_partition_the_slots_and_are_connected(self, case):
        grid, scheme = case
        device = DeviceParams(RESONANCE, COUPLING)
        system = assemble_system(grid, device, resolve_couplings(grid, scheme, device))
        blocks = _block_pieces(grid, device, scheme).blocks
        # groups keyed by size and amplitude count, ascending; each row its
        # amplitude slots, then its conjugate slots, each part ascending;
        # rows ordered by their smallest slot
        keys = [(b.shape[1], int(np.sum(b[0] % 2 == 0))) for b in blocks]
        assert keys == sorted(set(keys))
        for (_, h), b in zip(keys, blocks):
            assert np.all(b[:, :h] % 2 == 0) and np.all(b[:, h:] % 2 == 1)
            assert np.all(np.diff(b[:, :h]) > 0) and np.all(np.diff(b[:, h:]) > 0)
            assert np.all(np.diff(b.min(axis=1)) > 0)
        labels = block_labels(blocks, len(system.matrix))
        rows, cols = np.nonzero(system.matrix)
        assert np.array_equal(labels[rows], labels[cols])
        # each block is one component: a walk along nonzeros reaches all of it
        for block in (row for b in blocks for row in b):
            members, seen, todo = set(block.tolist()), {int(block[0])}, [int(block[0])]
            while todo:
                slot = todo.pop()
                for nxt in np.nonzero(system.matrix[slot])[0].tolist():
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            assert seen == members

    def test_three_pump_blocks_follow_residues(self, grid, device):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        blocks = _block_pieces(grid, device, scheme).blocks
        sizes = sorted(b.shape[1] for b in blocks for _ in range(len(b)))
        assert sizes == [46, 48, 48, 48]

    def test_pump_off_is_singletons_with_closed_form(self, grid, device):
        # two groups of 1 x 1 blocks: the conjugate slots, with no amplitude
        # slot, and then the amplitude slots
        conjugates, amplitudes = _block_pieces(grid, device, PumpScheme(())).blocks
        assert np.array_equal(conjugates, np.arange(1, 2 * grid.n_modes, 2)[:, np.newaxis])
        assert np.array_equal(amplitudes, np.arange(0, 2 * grid.n_modes, 2)[:, np.newaxis])
        s = pump_off_scattering(grid, device).matrix
        gamma = device.port_coupling
        detuning = np.array([device.resonance_frequency - grid.frequency(j) for j in grid.indices])
        expected = np.empty(2 * grid.n_modes, dtype=complex)
        expected[0::2] = gamma / (gamma / 2 + 1j * detuning) - 1
        expected[1::2] = gamma / (gamma / 2 - 1j * detuning) - 1
        np.testing.assert_allclose(np.diag(s), expected, rtol=1e-14, atol=0)
        assert np.count_nonzero(s - np.diag(np.diag(s))) == 0

    @settings(max_examples=40, deadline=None)
    @given(small_schemes())
    def test_pump_off_is_the_assembled_path_to_rounding(self, case):
        # conj(z) / z against gamma * z^-1 - 1 behind the gate: entries of
        # modulus 1 and the two condition numbers agree to a few ulps
        grid, _ = case
        device = DeviceParams(RESONANCE, COUPLING)
        closed = pump_off_scattering(grid, device)
        assembled = scattering_matrix(assemble_system(grid, device, CouplingSet()))
        eps = np.finfo(float).eps
        assert np.max(np.abs(closed.matrix - assembled.matrix)) <= 8 * eps
        assert closed.condition_estimate == pytest.approx(
            assembled.condition_estimate, rel=4 * eps, abs=0
        )

    @settings(max_examples=60, deadline=None)
    @given(small_schemes(), st.floats(0.3, 3.0))
    # a zero-amplitude tone; a tone beyond +-2J, which couples no pairs; a
    # lone tone at offset 0 on one mode, its degenerate pair only; no tones
    @example((ModeGrid(RESONANCE, SPACING, 3), PumpScheme((
        PumpTone(-2, 0.0, 1.0), PumpTone(2, EDGE_AMPLITUDE, 2.0)))), 1.0)
    @example((ModeGrid(RESONANCE, SPACING, 2), PumpScheme((
        PumpTone(9, EDGE_AMPLITUDE), PumpTone(-1, EDGE_AMPLITUDE, 4.0)))), 1.0)
    @example((ModeGrid(RESONANCE, SPACING, 0), PumpScheme((PumpTone(0, EDGE_AMPLITUDE, 0.5),))), 1.0)
    @example((ModeGrid(RESONANCE, SPACING, 3), PumpScheme(())), 1.0)
    def test_pieces_rebuild_the_assembled_blocks_bit_for_bit(self, case, scale):
        # np.array_equal, since for a zero-amplitude tone the two paths
        # differ in the sign of zero
        grid, scheme = case
        device = DeviceParams(RESONANCE, scale * COUPLING)
        pieces = _block_pieces(grid, device, scheme)
        system = assemble_system(grid, device, resolve_couplings(grid, scheme, device))
        strengths = [t.strength for t in scheme.tones]
        stacks = pieces.stacks(strengths, device.port_coupling)
        assert len(stacks) == len(pieces.blocks)
        for block, stack in zip(pieces.blocks, stacks):
            # the quarters, assembled amplitude slots first, are the gather
            # of the assembled matrix on the block's slots in their order
            rows, cols = block[:, :, np.newaxis], block[:, np.newaxis, :]
            assert np.array_equal(stack.whole(), system.matrix[rows, cols])
        # leading step axes broadcast: each step's stacks are the single ones
        steps = pieces.stacks([strengths, np.conj(strengths)], device.port_coupling)
        for single, stepped in zip(stacks, steps):
            first = _Quarters(stepped.k[0], stepped.d, stepped.d_c)
            assert np.array_equal(first.whole(), single.whole())

    @settings(max_examples=60, deadline=None)
    @given(small_schemes(min_tones=0, ratios=st.one_of(st.just(0.0), st.floats(0.01, 0.6))))
    def test_simulation_is_the_dense_chain(self, case):
        # ratios up to 0.6 cross the threshold; both paths raise there, and
        # below it agree to rounding
        grid, scheme = case
        device = DeviceParams(RESONANCE, COUPLING)
        outcomes = []
        for simulate in (simulate_scattering, simulate_dense):
            try:
                outcomes.append(simulate(grid, device, scheme))
            except AboveThresholdError as error:
                outcomes.append(error)
        pieces, dense = outcomes
        above = isinstance(dense, AboveThresholdError)
        assert isinstance(pieces, AboveThresholdError) == above
        if above:
            event("above threshold")
        else:
            assert_agrees(pieces, dense, rounding(dense.condition_estimate))

    def test_largest_comb_simulates_without_its_dense_system(self, device):
        # S of 1,001 modes takes 64 MB; the dense system beside it took a
        # one-tone simulation to 128.7 MB
        grid = ModeGrid(RESONANCE, SPACING, MAX_HALF_SPAN)
        scheme = balanced_scheme(device, [0], 0.085)
        tracemalloc.start()
        try:
            simulate_scattering(grid, device, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96e6

    def test_one_singular_block_among_healthy_ones_raises(self, device):
        grid = ModeGrid(RESONANCE, SPACING, 2)
        gamma = device.port_coupling
        # on resonance, the centre mode's 2x2 block has eigenvalues
        # gamma/2 +- |c|: singular at c = gamma/2, unstable past it
        def system(c):
            couplings = CouplingSet((Coupling(-2, 1, 0.1 * gamma), Coupling(0, 0, c)))
            return assemble_system(grid, device, couplings)

        # stable by 1e-13 gamma, so only the condition cap catches it
        near = system(gamma / 2 * (1 - 2e-13))
        assert np.linalg.eigvals(near.matrix).real.min() > 5e-14 * gamma
        with pytest.raises(AboveThresholdError, match="exceeds cap") as info:
            scattering_matrix(near)
        assert info.value.condition_estimate > 5 * CONDITION_CAP
        with pytest.raises(AboveThresholdError, match="dynamically unstable") as info:
            scattering_matrix(system(0.6 * gamma))
        assert info.value.condition_estimate is None
        assert reported_margin(info.value) == pytest.approx(-0.1 * gamma, rel=1e-6)


def gathered(matrix, blocks):
    """The stacks of ``matrix`` on the block groups ``blocks``, whole."""
    return [matrix[b[:, :, np.newaxis], b[:, np.newaxis, :]] for b in blocks]


def assert_agrees(s, reference, rtol=1e-12):
    """``S`` and its condition against the dense reference's, to ``rtol``."""
    assert np.max(np.abs(s.matrix - reference.matrix)) <= rtol * np.max(np.abs(reference.matrix))
    assert s.condition_estimate == pytest.approx(reference.condition_estimate, rel=rtol)


def placed(stacks, blocks, size):
    """Block stacks put back on their slots of a ``size x size`` matrix, zero elsewhere."""
    m = np.zeros((size, size), dtype=complex)
    for block, stack in zip(blocks, stacks):
        m[block[:, :, np.newaxis], block[:, np.newaxis, :]] = stack
    return m


def group_kind(block):
    """How the blocks of a group relate to their mirrors, the blocks on the swapped slots."""
    if block.shape[1] == 1:
        return "1x1"
    if 2 * np.sum(block[0] % 2) != block.shape[1]:
        # amplitude and conjugate counts differ, so each mirror is in another group
        return "one of each pair"
    own_mirror = [np.array_equal(np.sort(row ^ 1), np.sort(row)) for row in block]
    if all(own_mirror):
        return "self-mirror"
    return "mixed" if any(own_mirror) else "mirror pairs"


def placed_inverses(inverses, blocks):
    """The conjugate rows ``_invert_blocks`` returns and their mirrors, placed
    as ``_scattering`` places them, and the count of writes to each entry."""
    size = sum(block.size for block in blocks)
    inverse, written = np.zeros((size, size), dtype=complex), np.zeros((size, size), dtype=int)
    for block, rows in zip(blocks, inverses):
        # a group with no conjugate slot has no rows; its mirror group's hold them
        assert (rows is None) == np.all(block % 2 == 0)
        if rows is None:
            continue
        conjugate = block[:, block.shape[1] - rows.shape[1] :]
        for r, c, values in ((conjugate, block, rows), (conjugate ^ 1, block ^ 1, rows.conj())):
            inverse[r[:, :, np.newaxis], c[:, np.newaxis, :]] = values
            written[r[:, :, np.newaxis], c[:, np.newaxis, :]] += 1
    return inverse, written


def assert_inverses_are_plain_inverses(pieces, strengths, gamma, stacks, rtol=1e-12):
    """``_invert_blocks`` against ``np.linalg.inv`` of each block of ``stacks``
    on its own, to ``rtol``: its rows and their mirrors write every entry of
    every block once, and nothing else; returns the kinds of the groups it saw."""
    blocks = pieces.blocks
    inverses, cond = _invert_blocks(pieces, strengths, gamma)
    inverse, written = placed_inverses(inverses, blocks)
    norm = inverse_norm = 0.0
    for block, stack in zip(blocks, stacks):
        for row, b in zip(block, stack):
            index = np.ix_(row, row)
            assert np.all(written[index] == 1)
            reference = np.linalg.inv(b)
            assert np.linalg.norm(inverse[index] - reference) <= rtol * np.linalg.norm(reference)
            norm = max(norm, np.linalg.norm(b, 1))
            inverse_norm = max(inverse_norm, np.linalg.norm(reference, 1))
    assert written.sum() == sum(block.shape[0] * block.shape[1] ** 2 for block in blocks)
    assert cond == pytest.approx(norm * inverse_norm, rel=rtol)
    return [group_kind(block) for block in blocks]


@st.composite
def criterion_8_schemes(draw):
    """Schemes as acceptance criterion 8 draws them on the bundled comb: 1-4
    distinct offsets in -8..8, strength ratios 0.01-0.12, any phases."""
    offsets = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=4, unique=True))
    device = DeviceParams(RESONANCE, COUPLING)
    return PumpScheme(tuple(
        PumpTone(o, 2.0 * draw(st.floats(0.01, 0.12)) * COUPLING / RESONANCE,
                 draw(st.floats(0.0, TWO_PI)))
        for o in offsets
    )), device


class TestQuarterInverse:
    """The Schur inverse on the conjugate slots of every block and what it relies on."""

    @settings(max_examples=80, deadline=None)
    @given(small_schemes(min_tones=0), st.floats(0.3, 3.0))
    @example((ModeGrid(RESONANCE, SPACING, 0), PumpScheme((PumpTone(0, EDGE_AMPLITUDE, 0.5),))), 1.0)
    def test_stacks_are_diagonal_between_amplitudes_and_particle_hole_exact(self, case, scale):
        grid, scheme = case
        device = DeviceParams(RESONANCE, scale * COUPLING)
        size = 2 * grid.n_modes
        pieces = _block_pieces(grid, device, scheme)
        strengths = [t.strength for t in scheme.tones]
        stacks = [stack.whole() for stack in pieces.stacks(strengths, device.port_coupling)]
        assembled = gathered(dense_system(grid, device, scheme).matrix, pieces.blocks)
        blocks = pieces.blocks
        for group in (stacks, assembled):
            m = placed(group, blocks, size)
            amplitudes = m[0::2, 0::2]
            assert np.array_equal(amplitudes, np.diag(np.diag(amplitudes)))
            assert particle_hole_defect(m) == 0.0
            # the conjugate-row quarter, which the Schur path takes as K^H
            for block, stack in zip(blocks, group):
                h = int(np.sum(block[0] % 2 == 0))
                assert np.array_equal(stack[:, h:, :h], stack[:, :h, h:].conj().swapaxes(1, 2))

    @settings(max_examples=100, deadline=None)
    @given(small_schemes(min_tones=0))
    @example((ModeGrid(RESONANCE, SPACING, 0), PumpScheme((PumpTone(0, EDGE_AMPLITUDE, 0.5),))))
    def test_drawn_inverses_are_plain_inverses(self, case):
        grid, scheme = case
        device = DeviceParams(RESONANCE, COUPLING)
        pieces = _block_pieces(grid, device, scheme)
        strengths = [t.strength for t in scheme.tones]
        gamma = device.port_coupling
        stacks = [stack.whole() for stack in pieces.stacks(strengths, gamma)]
        for kind in assert_inverses_are_plain_inverses(pieces, strengths, gamma, stacks):
            event(kind)

    @pytest.mark.parametrize(
        "half_span, offsets, ratio, kinds",
        [
            (47, [-4, 0, 4], 0.085, ["self-mirror", "mixed"]),
            (47, [-3, 1, 5, 8], 0.05, ["self-mirror"]),
            (47, [1], 0.085, ["1x1", "1x1", "mirror pairs"]),
            (47, [0], 0.085, ["mixed"]),
            (47, [-4, 4], 0.085, ["one of each pair", "one of each pair", "mixed"]),
            (47, [-2, 5], 0.085, ["self-mirror", "one of each pair", "one of each pair",
                                  "mirror pairs"]),
            (47, [], 0.0, ["1x1", "1x1"]),
            (0, [0], 0.085, ["self-mirror"]),
        ],
    )
    def test_every_group_kind_inverts_as_plain_inverses(
        self, device, half_span, offsets, ratio, kinds
    ):
        grid = ModeGrid(RESONANCE, SPACING, half_span)
        scheme = balanced_scheme(device, offsets, ratio)
        pieces = _block_pieces(grid, device, scheme)
        strengths = [t.strength for t in scheme.tones]
        gamma = device.port_coupling
        stacks = [stack.whole() for stack in pieces.stacks(strengths, gamma)]
        assert assert_inverses_are_plain_inverses(pieces, strengths, gamma, stacks) == kinds

    @settings(max_examples=100, deadline=None)
    @given(criterion_8_schemes())
    # one self-mirror block on all 190 slots, and blocks in mirror pairs
    @example((balanced_scheme(DeviceParams(RESONANCE, COUPLING), [-3, 1, 5, 8], 0.05,
                              [0.3, 1.1, 2.0, 4.4]), DeviceParams(RESONANCE, COUPLING)))
    @example((balanced_scheme(DeviceParams(RESONANCE, COUPLING), [-2, 5], 0.1),
              DeviceParams(RESONANCE, COUPLING)))
    def test_s_is_exactly_particle_hole_symmetric(self, grid, case):
        # every group writes its conjugate rows and their conjugates on the
        # swapped slots, so each entry of S is the exact mirror of another
        scheme, device = case
        for block in _block_pieces(grid, device, scheme).blocks:
            event(group_kind(block))
        s = simulate_scattering(grid, device, scheme)
        assert particle_hole_defect(s.matrix) == 0.0

    @pytest.mark.parametrize("name", ["onepump", "twopump", "threepump"])
    def test_bundled_configs_match_one_plain_inverse_of_the_whole_system(self, name):
        config = parse_config(bundled_config_path(name).read_text())
        grid, params = config.to_mode_grid(), config.to_device_params()
        scheme = config.to_scheme()
        s = simulate_scattering(grid, params, scheme)
        reference = simulate_dense(grid, params, scheme)
        difference = np.linalg.norm(s.matrix - reference.matrix)
        assert difference <= 1e-12 * np.linalg.norm(reference.matrix)
        assert s.condition_estimate == pytest.approx(reference.condition_estimate, rel=1e-12)


class TestGroupKinds:
    """Each kind of group, written into S through the one index, against one
    plain inverse of the whole system."""

    @pytest.mark.parametrize(
        "offsets, shapes, kinds",
        [
            # one self-mirror block on every slot, its rows all of S's odd
            # rows and their mirror all of its even rows
            ([-4, 0, 5], [(1, 190)], ["self-mirror"]),
            # the two blocks of a mirror pair, each in a group of its own,
            # each writing the rows the other lacks, beside a group of two
            # self-mirror blocks
            ([-2, 2], [(1, 47), (1, 47), (2, 48)],
             ["one of each pair", "one of each pair", "self-mirror"]),
            # one self-mirror block beside a group holding another and a pair
            ([-4, 0, 4], [(1, 46), (3, 48)], ["self-mirror", "mixed"]),
        ],
    )
    def test_matches_one_plain_inverse_of_the_whole_system(self, grid, device, offsets, shapes,
                                                           kinds):
        scheme = balanced_scheme(device, offsets, 0.085, [0.4, 1.3, 2.9][: len(offsets)])
        pieces = _block_pieces(grid, device, scheme)
        assert [b.shape for b in pieces.blocks] == shapes
        assert [group_kind(b) for b in pieces.blocks] == kinds
        s = simulate_scattering(grid, device, scheme)
        assert_agrees(s, simulate_dense(grid, device, scheme))
        assert particle_hole_defect(s.matrix) == 0.0

    def test_group_with_no_conjugate_slot_is_not_inverted(self, grid, device, monkeypatch):
        # at offset 3 no tone reaches modes -47..-45: their amplitude slots
        # are a group with no conjugate slot, whose inverses are the mirrors
        # of the rows the group of their conjugate slots writes
        scheme = balanced_scheme(device, [3], 0.085, [0.4])
        pieces = _block_pieces(grid, device, scheme)
        assert [b.shape for b in pieces.blocks] == [(3, 1), (3, 1), (92, 2)]
        assert [slot.shape for slot in pieces.slot] == [(3, 0, 1), (3, 1, 0), (92, 1, 1)]
        shapes = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
        s = simulate_scattering(grid, device, scheme)
        assert shapes == [(3, 1, 1), (92, 1, 1)]
        assert_agrees(s, simulate_dense(grid, device, scheme))
        assert particle_hole_defect(s.matrix) == 0.0
        inverses, _ = _invert_blocks(pieces, [t.strength for t in scheme.tones], COUPLING)
        assert inverses[1] is None
        assert [k for k, *_ in pieces.written] == [0, 2]

    @pytest.mark.parametrize(
        "offsets", [[3], [-4, 0, 5], [-2, 2], [-4, 0, 4], [-2, 5], [1], []]
    )
    def test_written_index_covers_every_block_entry_once(self, grid, device, offsets):
        # written holds exactly the groups with a conjugate slot, and their
        # rows and mirrors together reach every entry of every block once
        pieces = _block_pieces(grid, device, balanced_scheme(device, offsets, 0.085))
        conjugate = [k for k, block in enumerate(pieces.blocks) if np.any(block % 2)]
        assert [k for k, *_ in pieces.written] == conjugate
        count = np.zeros((2 * grid.n_modes,) * 2, dtype=int)
        for k, *indices in pieces.written:
            block, slot = pieces.blocks[k], pieces.slot[k]
            for rows, columns in indices:
                shape = np.broadcast(rows, columns).shape
                assert shape == (len(block), slot.shape[-1], block.shape[1])
                np.add.at(count, (rows, columns), 1)
        expected = np.zeros_like(count)
        for block in pieces.blocks:
            expected[block[:, :, np.newaxis], block[:, np.newaxis, :]] = 1
        assert np.array_equal(count, expected)

    @pytest.mark.parametrize(
        "ratio, phases, stages",
        [
            (0.1675, [0.0, 1.0, 2.0], ["cholesky"]),
            (0.17, [0.0, 0.0, 0.0], ["cholesky", "eigvals"]),
            (0.2, [0.0, 0.0, 0.0], ["cholesky", "eigvals"]),
        ],
    )
    def test_open_self_mirror_block_reaches_the_whole_block_stages(
        self, grid, device, monkeypatch, ratio, phases, stages
    ):
        # the discs leave the one 190-slot block open near the threshold, so
        # its Hermitian part, and then its spectrum, decide on the whole block
        scheme = balanced_scheme(device, [-4, 0, 5], ratio, phases)
        pieces = _block_pieces(grid, device, scheme)
        strengths = [t.strength for t in scheme.tones]
        assert (pieces.discs(strengths, device.port_coupling)[1] <= 0).any()
        system = dense_system(grid, device, scheme)
        floor = np.linalg.eigvals(system.matrix).real.min()
        reference = scattering_matrix(system) if floor > 0 else None
        seen = []
        for name in ("cholesky", "eigvals"):
            run = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda a, run=run, name=name: seen.append((name, a.shape)) or run(a)
            )
        if floor > 0:
            assert_agrees(simulate_scattering(grid, device, scheme), reference)
        else:
            with pytest.raises(AboveThresholdError) as info:
                simulate_scattering(grid, device, scheme)
            assert str(info.value) == (
                "parametric oscillation threshold reached: the system is dynamically "
                f"unstable, with an eigenvalue of real part {floor:.6e} <= 0"
            )
        assert seen == [(name, (1, 190, 190)) for name in stages]


def certified(grid, device, scheme, cap):
    pieces = _block_pieces(grid, device, scheme)
    return _disc_bound(pieces, [t.strength for t in scheme.tones], device.port_coupling) <= cap


def strengths_scaled(case, scale):
    """A drawn case with every tone amplitude scaled by ``scale``."""
    grid, scheme = case
    return grid, PumpScheme(
        tuple(PumpTone(t.offset, scale * t.amplitude, t.phase) for t in scheme.tones)
    )


class TestThresholdCertificate:
    @settings(max_examples=150, deadline=None)
    @given(small_schemes(), st.floats(0.1, 15.0), st.floats(1.0, 12.0), st.floats(0.3, 3.0))
    def test_certified_blocks_are_within_cap_and_stable(self, case, scale, log_cap, coupling):
        # tone ratios from 0.001 to 1.5: well below, at and past the threshold
        grid, scheme = strengths_scaled(case, scale)
        device = DeviceParams(RESONANCE, coupling * COUPLING)
        gamma, cap = device.port_coupling, 10.0**log_cap
        pieces = _block_pieces(grid, device, scheme)
        clear = certified(grid, device, scheme, cap)
        event(f"certified: {clear}")
        if not clear:
            return
        strengths = [t.strength for t in scheme.tones]
        stacks = pieces.stacks(strengths, gamma)
        blocks = [block for stack in stacks for block in stack.whole()]
        norm = max(np.linalg.norm(block, 1) for block in blocks)
        inverse_norm = max(np.linalg.norm(np.linalg.inv(block), 1) for block in blocks)
        assert norm * inverse_norm <= cap
        assert _invert_blocks(pieces, strengths, gamma)[1] <= cap
        assert all(np.linalg.eigvals(block).real.min() > 0 for block in blocks)

    @settings(max_examples=100, deadline=None)
    @given(small_schemes(), st.floats(0.1, 15.0), st.floats(0.3, 3.0))
    def test_certificate_holds_at_every_phase(self, case, scale, coupling):
        # the disc margins see only the tone magnitudes, so one certificate
        # at the scheme's own phases covers a sweep of any tone
        grid, scheme = strengths_scaled(case, scale)
        device = DeviceParams(RESONANCE, coupling * COUPLING)
        gamma = device.port_coupling
        pieces = _block_pieces(grid, device, scheme)
        clear = certified(grid, device, scheme, CONDITION_CAP)
        event(f"certified: {clear}")
        if not clear:
            return
        for tone in range(len(scheme.tones)):
            for phase in TWO_PI * np.arange(8) / 8:
                rephased = scheme.with_phase(tone, float(phase))
                assert certified(grid, device, rephased, CONDITION_CAP)
                strengths = [t.strength for t in rephased.tones]
                assert _invert_blocks(pieces, strengths, gamma)[1] <= CONDITION_CAP

    @pytest.mark.parametrize("offsets", [[0], [-4, 0, 4]])
    @pytest.mark.parametrize("ratio", [0.01, 0.1, 0.15])
    def test_never_certifies_a_cap_below_the_exact_condition(self, device, offsets, ratio):
        grid = ModeGrid(RESONANCE, SPACING, 6)
        scheme = balanced_scheme(device, offsets, ratio, [1.0, 2.0, 3.0][: len(offsets)])
        pieces = _block_pieces(grid, device, scheme)
        gamma = device.port_coupling
        condition = _invert_blocks(pieces, [t.strength for t in scheme.tones], gamma)[1]
        assert certified(grid, device, scheme, 1e12)
        assert not certified(grid, device, scheme, 0.999 * condition)

    @settings(max_examples=150, deadline=None)
    @given(small_schemes(), st.floats(0.1, 15.0), st.floats(0.3, 3.0))
    def test_invert_is_the_exact_gate_on_the_assembled_blocks(self, case, scale, coupling):
        # the verdict of the dense reference, and below the threshold the
        # plain inverses of the blocks gathered from the assembled matrix
        grid, scheme = strengths_scaled(case, scale)
        device = DeviceParams(RESONANCE, coupling * COUPLING)
        gamma = device.port_coupling
        system = assemble_system(grid, device, resolve_couplings(grid, scheme, device))
        pieces = _block_pieces(grid, device, scheme)
        strengths = [t.strength for t in scheme.tones]
        try:
            reference = scattering_matrix(system)
        except AboveThresholdError:
            event("above threshold")
            with pytest.raises(AboveThresholdError):
                _invert_blocks(pieces, strengths, gamma)
            return
        event(f"certified: {certified(grid, device, scheme, 1e12)}")
        rtol = rounding(reference.condition_estimate)
        assembled = gathered(system.matrix, pieces.blocks)
        assert_inverses_are_plain_inverses(pieces, strengths, gamma, assembled, rtol)
        assert _invert_blocks(pieces, strengths, gamma)[1] == pytest.approx(
            reference.condition_estimate, rel=rtol
        )

    @pytest.mark.parametrize("ratio, expected", [(0.49, True), (0.5, False), (0.51, False)])
    def test_single_pair_bound_is_its_exact_threshold(self, device, ratio, expected):
        # a one-tone pair block is stable exactly while ratio < 1/2
        grid = ModeGrid(RESONANCE, SPACING, 3)
        scheme = balanced_scheme(device, [0], ratio, [1.0])
        assert certified(grid, device, scheme, 1e12) is expected

    @settings(max_examples=150, deadline=None)
    @given(small_schemes(min_tones=0), st.floats(0.1, 15.0), st.floats(0.3, 3.0))
    def test_closed_form_discs_are_the_assembled_column_sums(self, case, scale, coupling):
        # each column of M lies in one block, so the column sums of the
        # whole assembled matrix are those of its blocks; a mode's two
        # columns, at slots 2p and 2p + 1, share one norm and one margin
        grid, scheme = strengths_scaled(case, scale)
        device = DeviceParams(RESONANCE, coupling * COUPLING)
        pieces = _block_pieces(grid, device, scheme)
        norms, margins = pieces.discs([t.strength for t in scheme.tones], device.port_coupling)
        m = dense_system(grid, device, scheme).matrix
        columns = np.abs(m).sum(axis=0)
        expected = m.diagonal().real - (columns - np.abs(m.diagonal()))
        assert np.all(np.abs(np.repeat(norms, 2) - columns) <= 1e-14 * columns)
        assert np.all(np.abs(np.repeat(margins, 2) - expected) <= 1e-14 * columns)

    @settings(max_examples=100, deadline=None)
    @given(criterion_8_schemes(), st.floats(0.5, 6.0))
    # ratios 0.12 for each of four tones, scaled past 1/2 in sum
    @example((balanced_scheme(DeviceParams(RESONANCE, COUPLING), [-3, 1, 5, 8], 0.12),
              DeviceParams(RESONANCE, COUPLING)), 1.5)
    def test_open_flags_are_the_column_discs_of_the_assembled_blocks(self, grid, case, scale):
        # the gate opens a block when a mode of one of its slots has a
        # closed-form margin <= 0: that is the column Gershgorin test on the
        # block gathered from the assembled matrix, and a block and its
        # mirror, on the same modes, open together
        scheme, device = case
        _, scheme = strengths_scaled((grid, scheme), scale)
        gamma = device.port_coupling
        pieces = _block_pieces(grid, device, scheme)
        margins = pieces.discs([t.strength for t in scheme.tones], gamma)[1]
        assume(np.all(np.abs(margins) > 1e-12 * gamma))
        m = dense_system(grid, device, scheme).matrix
        flags = {}
        for block, whole in zip(pieces.blocks, gathered(m, pieces.blocks)):
            is_open = (margins <= 0)[block >> 1].any(axis=1)
            diagonal = np.diagonal(whole, axis1=1, axis2=2)
            off = np.abs(whole).sum(axis=1) - np.abs(diagonal)
            assert np.array_equal(is_open, (diagonal.real <= off).any(axis=1))
            flags.update((frozenset(row.tolist()), bool(flag)) for row, flag in zip(block, is_open))
        event(f"open blocks: {any(flags.values())}")
        for row, flag in flags.items():
            assert flags[frozenset(slot ^ 1 for slot in row)] == flag


class TestGaugeInvariance:
    @settings(max_examples=60, deadline=None)
    @given(small_schemes(), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_rephasing_the_modes_leaves_magnitudes(self, case, alpha, beta):
        # a_k -> exp(i(alpha + beta*k)) a_k shifts tone m by 2*alpha + beta*m
        grid, scheme = case
        device = DeviceParams(RESONANCE, COUPLING)
        shifted = PumpScheme(
            tuple(PumpTone(t.offset, t.amplitude, t.phase + 2 * alpha + beta * t.offset)
                  for t in scheme.tones)
        )
        s = np.abs(simulate_scattering(grid, device, scheme).matrix)
        s_shifted = np.abs(simulate_scattering(grid, device, shifted).matrix)
        assert np.max(np.abs(s_shifted - s)) <= 1e-12 * np.max(s)


@st.composite
def comb_sequences(draw):
    """1-8 (grid, device, scheme) draws on one half span, where grids differ
    only in centre or spacing and devices only in resonance; the values come
    from small pools, so a draw often repeats the one before it."""
    half_span = draw(st.integers(1, 6))
    offsets = st.lists(st.integers(-2 * half_span - 1, 2 * half_span + 1), max_size=4, unique=True)
    pool = draw(st.lists(offsets, min_size=1, max_size=3))
    draws = st.tuples(
        st.sampled_from([RESONANCE, RESONANCE + 0.3 * COUPLING]),
        st.sampled_from([SPACING, 1.5 * SPACING]),
        st.sampled_from([RESONANCE, RESONANCE - 0.2 * COUPLING]),
        st.sampled_from(pool),
    )
    return [
        (ModeGrid(center, spacing, half_span), DeviceParams(resonance, COUPLING),
         PumpScheme.balanced(offs, EDGE_AMPLITUDE))
        for center, spacing, resonance, offs in draw(st.lists(draws, min_size=1, max_size=8))
    ]


def piece_arrays(pieces):
    return [*pieces.blocks, pieces.diagonal, *pieces.slot, pieces.reach]


def identical(a, b):
    """Results equal field by field, arrays byte for byte."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            identical(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    return a == b


class TestSplitCache:
    """The split of the last comb, kept read-only and shared by the calls on it."""

    @settings(max_examples=60, deadline=None)
    @given(comb_sequences())
    def test_served_pieces_are_a_fresh_split(self, sequence):
        _split.cache_clear()
        previous = None
        for grid, device, scheme in sequence:
            hits = _split.cache_info().hits
            served = _block_pieces(grid, device, scheme)
            hit = _split.cache_info().hits > hits
            event("hit" if hit else "miss")
            # the split is keyed on the mode count and offsets alone: a new
            # centre, spacing or resonance on the same comb still hits
            assert hit == ((grid.half_span, scheme.offsets) == previous)
            previous = (grid.half_span, scheme.offsets)
            _split.cache_clear()
            fresh = _block_pieces(grid, device, scheme)
            assert served is not fresh
            assert served.resonance == fresh.resonance
            assert len(piece_arrays(served)) == len(piece_arrays(fresh))
            for a, b in zip(piece_arrays(served), piece_arrays(fresh)):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_cached_arrays_are_read_only(self, grid, device):
        pieces = _block_pieces(grid, device, balanced_scheme(device, [-4, 0, 4], 0.085))
        again = _block_pieces(grid, device, balanced_scheme(device, [-4, 0, 4], 0.05))
        cached = [*pieces.blocks, *pieces.slot, pieces.reach]
        again_cached = [*again.blocks, *again.slot, again.reach]
        assert all(a is b for a, b in zip(again_cached, cached, strict=True))
        for array in piece_arrays(pieces):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = array[(0,) * array.ndim]

    def test_slot_maps_take_one_byte_per_entry(self, grid, device):
        pieces = _block_pieces(grid, device, balanced_scheme(device, [-3, 1, 5, 8], 0.05))
        assert all(slot.dtype == np.uint8 for slot in pieces.slot)

    @pytest.mark.parametrize("kind", ["simulate", "sweep", "fit", "search"])
    def test_cold_and_warm_runs_are_identical(self, grid, device, kind):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        g, gamma = 0.085 * COUPLING / RESONANCE, COUPLING
        measured = simulate_scattering(grid, device, scheme)
        runs = {
            "simulate": lambda: simulate_scattering(grid, device, scheme),
            "sweep": lambda: phase_sweep(scheme, 1, 72, 3, grid, device),
            "fit": lambda: fit_parameters(
                measured, grid, scheme, (0.5 * g, 2 * g), (0.5 * gamma, 2 * gamma), 4
            ),
            "search": lambda: search_phases(scheme, [(-12, 0)], 8, -20.0, grid, device),
        }
        _split.cache_clear()
        cold = runs[kind]()
        assert _split.cache_info().misses == 1
        warm = runs[kind]()
        assert _split.cache_info().hits == 1
        assert identical(cold, warm)

    def test_detuned_device_shares_the_split_with_its_fit(self, device):
        # the fit models a device resonant at the comb centre; a device 3 MHz
        # off it has another detuning diagonal but the same split
        grid = ModeGrid(RESONANCE, SPACING, 10)
        detuned = DeviceParams(RESONANCE + TWO_PI * 3e6, COUPLING)
        scheme = balanced_scheme(detuned, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        g, gamma = 0.085 * COUPLING / RESONANCE, COUPLING
        _split.cache_clear()
        measured = simulate_scattering(grid, detuned, scheme)
        fit_in_rounds(
            2, measured, grid, scheme, (0.5 * g, 2 * g), (0.5 * gamma, 2 * gamma), 4
        )
        phase_sweep(scheme, 1, 8, 3, grid, detuned)
        search_phases(scheme, [(-10, 0)], 4, -20.0, grid, detuned)
        assert _split.cache_info().misses == 1

    @pytest.mark.parametrize("kind", ["simulate", "sweep"])
    def test_band_warns_on_every_call(self, kind):
        # 21 modes 20 MHz apart reach 200 MHz from resonance: 40 linewidths at 5 MHz
        narrow = DeviceParams(RESONANCE, TWO_PI * 5e6)
        grid = ModeGrid(RESONANCE, TWO_PI * 20e6, 10)
        scheme = balanced_scheme(narrow, [-4, 0, 4], 0.085)
        runs = {
            "simulate": lambda: simulate_scattering(grid, narrow, scheme),
            "sweep": lambda: phase_sweep(scheme, 1, 8, 0, grid, narrow),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs[kind]()
            hits = _split.cache_info().hits
            runs[kind]()
        assert _split.cache_info().hits == hits + 1
        assert [(w.category, w.filename) for w in caught] == [(BandMismatchWarning, __file__)] * 2


@st.composite
def split_cases(draw):
    """A half span of 0-60 and 0-5 distinct offsets, some past the grid's reach of 4J."""
    half_span = draw(st.integers(0, 60))
    near = st.integers(-4 * half_span - 3, 4 * half_span + 3)
    offsets = draw(st.lists(st.one_of(near, st.integers()), max_size=5, unique=True))
    return half_span, tuple(offsets)


class TestSplit:
    """The split against its mode-sum reference, and what it adds beside the maps."""

    @settings(max_examples=150, deadline=None)
    @given(split_cases())
    @example((MAX_HALF_SPAN, (-4, 0, 4)))
    @example((MAX_HALF_SPAN, (0,)))
    @example((3, (10**30, -(10**30), 1)))
    @example((0, ()))
    def test_equals_the_mode_sum_reference_byte_for_byte(self, case):
        half_span, offsets = case
        _split.cache_clear()
        blocks, slots, locator, reach = _split(half_span, offsets)
        expected_blocks, expected_slots = split_reference.split(half_span, offsets)
        assert identical(blocks, expected_blocks)
        assert identical(slots, expected_slots)
        assert not any(a.flags.writeable for a in (*blocks, *slots, locator, reach))
        # each tone reaches the modes whose partner m - p is on the grid
        modes = range(-half_span, half_span + 1)
        expected_reach = [[abs(m - p) <= half_span for p in modes] for m in offsets]
        assert identical(reach, np.array(expected_reach, dtype=bool).reshape(reach.shape))
        # every slot's group and row hold it
        assert locator.shape == (2 * (2 * half_span + 1), 2)
        for k, block in enumerate(blocks):
            assert np.all(locator[block, 0] == k)
            assert np.all(locator[block, 1] == np.arange(len(block))[:, np.newaxis])

    @settings(max_examples=60, deadline=None)
    @given(small_schemes(min_tones=0))
    def test_block_of_every_slot_is_its_block_amplitudes_first(self, case):
        grid, scheme = case
        pieces = _block_pieces(grid, DeviceParams(RESONANCE, COUPLING), scheme)
        strengths = [t.strength for t in scheme.tones]
        for slot in range(2 * grid.n_modes):
            # the block row holding the slot, found by scanning every group
            k, member = next(
                (k, at[0])
                for k, block in enumerate(pieces.blocks)
                for at in np.argwhere(block == slot)
            )
            driven = pieces.block_of(slot)
            row = driven.blocks[0][0]
            assert np.array_equal(row, pieces.blocks[k][member])
            assert np.array_equal(driven.slot[0][0], pieces.slot[k][member])
            assert driven.locator is None
            # amplitude slots first, each part ascending, the map's rows
            h = driven.slot[0].shape[1]
            assert np.all(row[:h] % 2 == 0) and np.all(row[h:] % 2 == 1)
            assert np.all(np.diff(row[:h]) > 0) and np.all(np.diff(row[h:]) > 0)
            # its quarters are the group's at that row
            (alone,) = driven.stacks(strengths, COUPLING)
            group = pieces.stacks(strengths, COUPLING)[k]
            assert np.array_equal(alone.whole()[0], group.whole()[member])


class TestNormalizePumpOff:
    def test_pump_off_against_itself(self, grid, device):
        s_off = pump_off_scattering(grid, device)
        db = normalize_pump_off(s_off, s_off)
        assert np.max(np.abs(np.diag(db))) < 1e-9
        off = db - np.diag(np.diag(db))
        assert np.min(off + np.eye(len(db)) * 1e9) == -240.0  # clamped floor

    def test_lossless_db_equals_raw_magnitude(self, grid, device):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        s_on = simulate_scattering(grid, device, scheme)
        s_off = pump_off_scattering(grid, device)
        db = normalize_pump_off(s_on, s_off)
        raw = 20 * np.log10(np.maximum(np.abs(s_on.matrix), 1e-12))
        assert np.allclose(db, raw, atol=1e-9)

    def test_each_column_is_divided_by_its_reference(self, grid, device):
        # a reference of moduli 0.3-3, so a row-wise division would show;
        # the real quotient |S_on| / ref rounds apart from |S_on / ref| by
        # a few ulps of the magnitude
        s_on = simulate_scattering(grid, device, balanced_scheme(device, [-4, 0, 4], 0.085))
        rng = np.random.default_rng(43)
        dim = 2 * grid.n_modes
        ref = rng.uniform(0.3, 3.0, dim) * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
        s_off = ScatteringMatrix(np.diag(ref), grid)
        expected = magnitude_db(s_on.matrix / np.abs(ref)[np.newaxis, :])
        db = normalize_pump_off(s_on, s_off)
        assert np.max(np.abs(db - expected)) <= 1e-12

    def test_degenerate_reference_rejected(self, grid, device):
        s_off = pump_off_scattering(grid, device)
        broken = np.array(s_off.matrix)
        broken[0, 0] = 0.0
        fake = ScatteringMatrix(broken, grid)
        with pytest.raises(DegenerateNormalizationError):
            normalize_pump_off(s_off, fake)

    def test_grid_mismatch_rejected(self, grid, device):
        other = ModeGrid(grid.center_frequency, grid.spacing, 3)
        with pytest.raises(InternalConsistencyError):
            normalize_pump_off(
                pump_off_scattering(grid, device), pump_off_scattering(other, device)
            )



# Each public array-holding type, built around a caller's array, and the
# array it stores.  Each caller's array already has the stored dtype, so no
# conversion makes the copy.
CALLER_ARRAYS = {
    "SystemMatrix.matrix": (lambda a: cs.SystemMatrix(a, 1.0, GRID).matrix, complex),
    "ScatteringMatrix": (lambda a: ScatteringMatrix(a, GRID).matrix, complex),
    "QuadratureScattering": (lambda a: cs.QuadratureScattering(a, GRID, 0.0).matrix, float),
    "CovarianceMatrix": (lambda a: cs.CovarianceMatrix(a).matrix, float),
    "SweepTrack": (lambda a: cs.SweepTrack(2, (0,), 1, a).magnitudes_db, float),
    "PhaseSweepResult": (lambda a: cs.PhaseSweepResult(0, 1, a, (), 1).phases, float),
    "FitResult": (
        lambda a: cs.FitResult(1.0, 1.0, 0.0, a, a, a, 1.0, 16, True, 0, 1.0).surface, float
    ),
}
GRID = ModeGrid(RESONANCE, SPACING, 0)


class TestCallerArrays:
    @pytest.mark.parametrize("name", sorted(CALLER_ARRAYS))
    def test_caller_array_stays_writeable_and_apart(self, name):
        build, dtype = CALLER_ARRAYS[name]
        a = np.eye(2, dtype=dtype)
        stored = build(a)
        assert a.flags.writeable
        a[0, 0] = 2
        assert stored[0, 0] == 1
        assert not stored.flags.writeable

    @pytest.mark.parametrize("name", sorted(CALLER_ARRAYS))
    def test_read_only_caller_array_is_copied(self, name):
        build, dtype = CALLER_ARRAYS[name]
        a = np.eye(2, dtype=dtype)
        a.flags.writeable = False
        stored = build(a)
        # numpy lets the owner of an array's data make it writeable again
        a.flags.writeable = True
        a[0, 0] = 2
        assert stored[0, 0] == 1


def write_csv(path, matrix, grid):
    """A generic CSV of ``matrix`` as it stands, and the sidecar of ``grid``."""
    path.write_text("".join(",".join(repr(complex(z)).strip("()") for z in row) + "\n"
                            for row in matrix))
    meta = {"basis": "interleaved", "center_hz": grid.center_frequency / TWO_PI,
            "n_modes": grid.n_modes, "normalization": "raw", "spacing_hz": grid.spacing / TWO_PI}
    sidecar_path(path).write_text(json.dumps(meta))


@st.composite
def inadmissible_matrices(draw):
    """A grid of 1-9 modes and a matrix no ``ScatteringMatrix`` on it admits:
    its ``2n x 2n`` shape with one NaN or infinite part, or another count of
    entries (a native payload has no shape of its own, so ``4n^2`` entries
    in any shape read back as ``2n x 2n``)."""
    grid = ModeGrid(RESONANCE, SPACING, draw(st.integers(0, 4)))
    dim = 2 * grid.n_modes
    if draw(st.booleans()):
        matrix = np.eye(dim, dtype=complex)
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        row, col = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        matrix[row, col] = complex(bad, 0.0) if draw(st.booleans()) else complex(0.0, bad)
        event("non-finite")
    else:
        sides = st.integers(1, dim + 4)
        shape = draw(st.tuples(sides, sides).filter(lambda s: s[0] * s[1] != dim * dim))
        matrix = np.eye(*shape, dtype=complex)
        event("mis-shaped")
    return grid, matrix


class TestAdmission:
    """``ScatteringMatrix`` is the one rule for what a scattering matrix is."""

    @settings(max_examples=80, deadline=None)
    @given(inadmissible_matrices())
    @example((ModeGrid(RESONANCE, SPACING, 1), np.eye(4, dtype=complex)))
    @example((ModeGrid(RESONANCE, SPACING, 1), np.diag([np.nan, 1, 1, 1, 1, 1]).astype(complex)))
    def test_inadmissible_matrix_is_refused_everywhere(self, case):
        grid, matrix = case
        with pytest.raises(cs.InvalidArgumentError, match="^scattering matrix"):
            ScatteringMatrix(matrix, grid)
        scheme = PumpScheme((PumpTone(0, EDGE_AMPLITUDE),))
        with pytest.raises(cs.InvalidArgumentError, match="^scattering matrix"):
            fit_parameters(matrix, grid, scheme, (1e-3, 2e-3), (1.0, 2.0), 4)
        with tempfile.TemporaryDirectory() as tmp:
            native, csv = Path(tmp) / "s.cmb", Path(tmp) / "s.csv"
            write_native_payload(native, matrix, grid)
            write_csv(csv, matrix, grid)
            with pytest.raises(cs.DataFormatError):
                load_scattering(native)
            with pytest.raises(cs.DataFormatError):
                load_scattering_csv(csv)

    def test_sealed_matrix_skips_the_scan(self, grid, device):
        # the package's own matrices are admitted without a second look;
        # a caller's matrix is scanned once
        with mock.patch.object(scattering, "_admit", wraps=scattering._admit) as admit:
            s = simulate_scattering(grid, device, balanced_scheme(device, [-4, 0, 4], 0.085))
            pump_off_scattering(grid, device)
            assert admit.call_count == 0
            ScatteringMatrix(s.matrix, grid)
            assert admit.call_count == 1
