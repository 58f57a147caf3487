"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Pump strengths are quoted as the identifiable ratio
(resonance frequency times complex tone strength over port coupling).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from combscatter import (
    Coupling,
    CouplingSet,
    DeviceParams,
    ModeGrid,
    PumpScheme,
    PumpTone,
    TopologyLabel,
    assemble_system,
    extract_graph,
    fit_parameters,
    normalize_pump_off,
    phase_sweep,
    propagate_covariance,
    pump_off_scattering,
    sample_covariance,
    scale_for_ratio,
    scattering_matrix,
    simulate_scattering,
    symplectic_defect,
    to_quadrature,
    topology_report,
    vacuum_covariance,
)
from combscatter.gaussian import VACUUM_SCALE
from conftest import COUPLING, RESONANCE, SPACING, TWO_PI, analytic_two_mode_block, balanced_scheme
from connectivity_reference import connectivity_pattern

# Operating strength for the topology criteria.  It must land in the window
# where the -20 dB graph keeps only directly pumped pairs while the
# two-pump products sit between -26 and -20 dB; against the full-linewidth
# coupling used throughout this package that window is centred near 0.085
# (the same operating point quoted as 0.14 against the half linewidth).
RIDGE_RATIO = 0.085

# Weaker drives for the interference and covariance criteria, inside the
# regime where the leading mixing orders are cleanly separated.
SWEEP_RATIO = 0.06
MIRROR_RATIO = 0.010
MC_SEED = 3


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number:2d} PASS  {description} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def warmed_up(grid, device):
    # spin up BLAS threads outside the timed sections
    pump_off_scattering(ModeGrid(RESONANCE, SPACING, 5), device)
    return True


def test_criterion_01_pump_off_all_pass(grid, device, warmed_up):
    with criterion(1, "pump-off all-pass reflection"):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.0)
        started = time.perf_counter()
        s = simulate_scattering(grid, device, scheme)
        elapsed = time.perf_counter() - started
        diag = np.abs(np.diag(s.matrix))
        assert grid.n_modes == 95
        assert np.max(np.abs(diag - 1.0)) < 1e-10
        off = np.array(s.matrix)
        np.fill_diagonal(off, 0.0)
        assert np.max(np.abs(off)) < 1e-10
        assert elapsed < 0.1


def test_criterion_02_two_mode_oracle(device, warmed_up):
    with criterion(2, "two-mode analytic oracle, 50 random triples"):
        started = time.perf_counter()
        rng = np.random.default_rng(20240809)
        worst = 0.0
        for _ in range(50):
            gamma = TWO_PI * 10 ** rng.uniform(6.5, 8.8)
            spacing = gamma * 10 ** rng.uniform(-4, -0.7)
            threshold = np.sqrt(spacing**2 + gamma**2 / 4.0)
            strength = rng.uniform(0.05, 0.8) * threshold * np.exp(1j * rng.uniform(0, TWO_PI))
            pair_grid = ModeGrid(RESONANCE, spacing, 1)
            pair_device = DeviceParams(RESONANCE, gamma)
            system = assemble_system(
                pair_grid, pair_device, CouplingSet((Coupling(-1, 1, strength),))
            )
            s = scattering_matrix(system).matrix
            s_ii, s_ij, s_ji, s_jj = analytic_two_mode_block(
                spacing, -spacing, gamma, strength
            )
            a, b = pair_grid.a_slot(-1), pair_grid.a_conj_slot(1)
            scale = max(abs(s_ii), abs(s_ij))
            worst = max(
                worst,
                max(
                    abs(s[a, a] - s_ii),
                    abs(s[a, b] - s_ij),
                    abs(s[b, a] - s_ji),
                    abs(s[b, b] - s_jj),
                )
                / scale,
            )
        assert worst < 1e-12
        assert time.perf_counter() - started < 1.0


def test_criterion_03_single_pump_matching(grid, device, warmed_up):
    with criterion(3, "single-pump anti-diagonal perfect matching"):
        started = time.perf_counter()
        scheme = balanced_scheme(device, [0], RIDGE_RATIO, [0.0])
        s_on = simulate_scattering(grid, device, scheme)
        s_off = pump_off_scattering(grid, device)
        graph = extract_graph(normalize_pump_off(s_on, s_off), grid, -20.0)
        # every mode j != 0 pairs with -j alone; mode 0 has no edge
        assert graph.edge_pairs() == {(-j, j) for j in grid.indices if j > 0}
        rotated = simulate_scattering(grid, device, scheme.with_phase(0, 1.9))
        assert np.max(np.abs(np.abs(s_on.matrix) - np.abs(rotated.matrix))) < 1e-10
        assert time.perf_counter() - started < 1.0


def test_criterion_04_two_pump_chains(grid, device, warmed_up):
    with criterion(4, "two-pump trio of chain components"):
        scheme = balanced_scheme(device, [-2, 2], RIDGE_RATIO)
        s_on = simulate_scattering(grid, device, scheme)
        s_off = pump_off_scattering(grid, device)
        graph = extract_graph(normalize_pump_off(s_on, s_off), grid, -20.0)
        report = topology_report(graph)
        assert len(report.components) == 3
        assert all(label is TopologyLabel.CHAIN for label in report.labels)
        rotated = simulate_scattering(grid, device, scheme.with_phase(1, 2.4))
        assert np.max(np.abs(np.abs(s_on.matrix) - np.abs(rotated.matrix))) < 1e-10


def test_criterion_05_three_pump_interference(grid, device, warmed_up):
    with criterion(5, "three-pump interference: sweeps of the edge and central pump"):
        started = time.perf_counter()
        scheme = balanced_scheme(device, [-4, 0, 4], SWEEP_RATIO)
        signal = 28

        edge = phase_sweep(scheme, swept_tone=2, steps=72, signal_index=signal,
                           grid=grid, params=device)
        for mode in (-32, -28, -24):
            mags = edge.track(2, mode).magnitudes_db
            assert mags.max() - mags.min() < 1.0
        for mode in (signal + 4, signal - 4):
            mags = edge.track(3, mode).magnitudes_db
            at_zero = mags[0]
            at_pi = mags[np.flatnonzero(edge.phases == np.pi)[0]]
            assert at_zero - at_pi >= 25.0

        central = phase_sweep(scheme, swept_tone=1, steps=72, signal_index=signal,
                              grid=grid, params=device)
        mags = central.track(3, signal + 4).magnitudes_db
        half = len(mags) // 2
        assert np.max(np.abs(mags[:half] - mags[half:])) < 1e-6
        minima = set(np.flatnonzero(mags <= mags.min() + 1e-9))
        quarter = len(mags) // 4
        assert minima == {quarter, 3 * quarter}  # pi/2 and 3pi/2

        assert time.perf_counter() - started < 10.0


def test_criterion_06_square_ladder_reproduction(grid, device, warmed_up):
    with criterion(6, "square ladders at destructive phase, diagonals at constructive"):
        started = time.perf_counter()
        s_off = pump_off_scattering(grid, device)

        destructive = balanced_scheme(device, [-4, 0, 4], RIDGE_RATIO, [0.0, 0.0, np.pi])
        db = normalize_pump_off(simulate_scattering(grid, device, destructive), s_off)
        report = topology_report(extract_graph(db, grid, -20.0))
        assert sorted(len(c) for c in report.components) == [23, 24, 48]
        assert all(label is TopologyLabel.SQUARE_LADDER for label in report.labels)

        constructive = balanced_scheme(device, [-4, 0, 4], RIDGE_RATIO, [0.0, 0.0, 0.0])
        db0 = normalize_pump_off(simulate_scattering(grid, device, constructive), s_off)
        report0 = topology_report(extract_graph(db0, grid, -20.0))
        assert any(
            label is TopologyLabel.LADDER_WITH_DIAGONALS for label in report0.labels
        )
        assert time.perf_counter() - started < 2.0


def test_criterion_07_next_nearest_neighbor_emergence(grid, device, warmed_up):
    with criterion(7, "next-nearest neighbors appear only below -26 dB"):
        scheme = balanced_scheme(device, [-4, 0, 4], RIDGE_RATIO, [0.0, 0.0, np.pi])
        db = normalize_pump_off(
            simulate_scattering(grid, device, scheme), pump_off_scattering(grid, device)
        )
        at_20 = extract_graph(db, grid, -20.0).edge_pairs()
        at_26 = extract_graph(db, grid, -26.0).edge_pairs()
        added = at_26 - at_20
        assert (1, 9) in added
        assert (-7, 1) in added


def test_criterion_08_symplecticity_of_random_schemes(grid, device, warmed_up):
    with criterion(8, "symplectic quadrature scattering for 100 random schemes"):
        started = time.perf_counter()
        rng = np.random.default_rng(31415926)
        for _ in range(100):
            count = int(rng.integers(1, 5))
            offsets = rng.choice(np.arange(-8, 9), size=count, replace=False)
            tones = tuple(
                PumpTone(
                    int(offset),
                    scale_for_ratio(float(rng.uniform(0.01, 0.12)), device),
                    float(rng.uniform(0.0, TWO_PI)),
                )
                for offset in offsets
            )
            sx = to_quadrature(simulate_scattering(grid, device, PumpScheme(tones)))
            assert symplectic_defect(sx) < 1e-9
        assert time.perf_counter() - started < 30.0


def test_criterion_09_covariance_mirror_and_monte_carlo(grid, device, warmed_up):
    with criterion(9, "covariance mirrors scattering connectivity; Monte Carlo agrees"):
        for phase in (0.0, np.pi):
            scheme = balanced_scheme(device, [-4, 0, 4], MIRROR_RATIO, [0.0, 0.0, phase])
            s = simulate_scattering(grid, device, scheme)
            v = propagate_covariance(to_quadrature(s), vacuum_covariance(grid))
            assert np.array_equal(
                connectivity_pattern(s.matrix), connectivity_pattern(v.matrix)
            )

        scheme = balanced_scheme(device, [-4, 0, 4], MIRROR_RATIO, [0.0, 0.0, np.pi])
        sx = to_quadrature(simulate_scattering(grid, device, scheme))
        exact = propagate_covariance(sx, vacuum_covariance(grid))
        samples = 100_000
        sampled = sample_covariance(sx, samples, seed=MC_SEED)
        tolerance = 5.0 * VACUUM_SCALE / np.sqrt(samples)
        assert np.max(np.abs(sampled.matrix - exact.matrix)) < tolerance


def test_criterion_10_fit_round_trip(grid, device, warmed_up):
    with criterion(10, "self-fit recovers the strength ratio along a flat valley"):
        started = time.perf_counter()
        g_true = RIDGE_RATIO * COUPLING / RESONANCE
        scheme = balanced_scheme(device, [-4, 0, 4], RIDGE_RATIO, [0.0, 0.0, np.pi])
        measured = simulate_scattering(grid, device, scheme)
        result = fit_parameters(
            measured,
            grid,
            scheme,
            g_range=(0.5 * g_true, 2.0 * g_true),
            gamma_range=(0.5 * COUPLING, 2.0 * COUPLING),
            grid_points=40,
        )
        true_ratio = RESONANCE * g_true / COUPLING
        assert abs(result.ridge_ratio - true_ratio) / true_ratio < 0.01

        surface = result.surface
        along = surface.min(axis=0)  # valley floor, one point per coupling column
        across = surface[:, int(np.argmin(along))]
        assert np.var(along) < 1e-2 * np.var(across)
        assert time.perf_counter() - started < 60.0
