"""Quadrature transform, covariance propagation, Monte Carlo sampling."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from combscatter import (
    BasisInconsistencyError,
    Coupling,
    CouplingSet,
    CovarianceMatrix,
    DeviceParams,
    InvalidArgumentError,
    ModeGrid,
    QuadratureScattering,
    assemble_system,
    propagate_covariance,
    pump_off_scattering,
    sample_covariance,
    scattering_matrix,
    simulate_scattering,
    symplectic_defect,
    to_quadrature,
    vacuum_covariance,
)
from combscatter.gaussian import _SAMPLE_CHUNK, IMAG_RESIDUAL_TOL, VACUUM_SCALE
from combscatter.scattering import ScatteringMatrix
from conftest import (
    COUPLING,
    RESONANCE,
    SPACING,
    TWO_PI,
    analytic_two_mode_block,
    balanced_scheme,
    same_bits_but_nan,
    special_float_matrices,
)
from connectivity_reference import block_magnitudes, connectivity_pattern
from quadrature_reference import complex_closed_form, quadrature_transform, symplectic_form
from test_scattering import random_scheme


@st.composite
def particle_hole_scattering(draw):
    """A random particle-hole-symmetric matrix on 1-13 modes: each mode
    pair's block is ``[[a, b], [conj(b), conj(a)]]``."""
    grid = ModeGrid(RESONANCE, TWO_PI * 0.1e6, draw(st.integers(0, 6)))
    n = grid.n_modes
    parts = [draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0))) for _ in range(4)]
    a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    m = np.empty((2 * n, 2 * n), dtype=complex)
    m[0::2, 0::2], m[0::2, 1::2] = a, b
    m[1::2, 0::2], m[1::2, 1::2] = np.conj(b), np.conj(a)
    return ScatteringMatrix(m, grid)


@st.composite
def near_particle_hole_scattering(draw):
    """A particle-hole-symmetric matrix plus an arbitrary complex one at a
    scale from none to far past ``IMAG_RESIDUAL_TOL``."""
    s = draw(particle_hole_scattering())
    dim = 2 * s.n_modes
    parts = [draw(arrays(float, (dim, dim), elements=st.floats(-2.0, 2.0))) for _ in range(2)]
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-9, 3e-9, 1e-6, 1.0]))
    m = s.matrix + scale * (parts[0] + 1j * parts[1])
    return ScatteringMatrix(m, s.grid)


@st.composite
def real_square_matrices(draw, max_half_span=4, bound=1e3):
    """An arbitrary real matrix on the slots of a 1-9 mode grid."""
    grid = ModeGrid(RESONANCE, SPACING, draw(st.integers(0, max_half_span)))
    dim = 2 * grid.n_modes
    return QuadratureScattering(
        draw(arrays(float, (dim, dim), elements=st.floats(-bound, bound))), grid, 0.0
    )


@st.composite
def simulated_quadratures(draw):
    """``to_quadrature`` of a random 1-4 tone scheme on 13 modes."""
    grid = ModeGrid(RESONANCE, SPACING, 6)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scheme = random_scheme(rng)
    return to_quadrature(simulate_scattering(grid, DeviceParams(RESONANCE, COUPLING), scheme))


def counted_cholesky():
    """``np.linalg.cholesky`` patched to count its calls, as a context manager."""
    return mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky)


def identity_scattering(grid):
    return ScatteringMatrix(np.eye(2 * grid.n_modes, dtype=complex), grid)


class TestToQuadrature:
    def test_identity_maps_to_identity(self, grid):
        sx = to_quadrature(identity_scattering(grid))
        assert np.allclose(sx.matrix, np.eye(2 * grid.n_modes), atol=1e-14)
        assert sx.imag_residual < 1e-15

    def test_pump_off_phases_become_rotations(self, grid, device):
        s_off = pump_off_scattering(grid, device)
        sx = to_quadrature(s_off)
        for j in grid.indices:
            theta = np.angle(s_off.matrix[grid.a_slot(j), grid.a_slot(j)])
            block = sx.matrix[
                grid.a_slot(j) : grid.a_slot(j) + 2, grid.a_slot(j) : grid.a_slot(j) + 2
            ]
            rotation = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            assert np.allclose(block, rotation, atol=1e-12)

    def test_two_mode_squeezing_block_matches_oracle(self, device):
        spacing = TWO_PI * 0.1e6
        grid = ModeGrid(RESONANCE, spacing, 1)
        strength = 0.3 * (device.port_coupling / 2) * np.exp(0.6j)
        system = assemble_system(grid, device, CouplingSet((Coupling(-1, 1, strength),)))
        sx = to_quadrature(scattering_matrix(system))

        s_ii, s_ij, s_ji, s_jj = analytic_two_mode_block(spacing, -spacing,
                                                         device.port_coupling, strength)
        # assemble the analytic 4x4 interleaved block for modes (-1, +1) and
        # rotate it to quadratures independently of the library transform
        s4 = np.zeros((4, 4), dtype=complex)
        s4[0, 0], s4[0, 3], s4[3, 0], s4[3, 3] = s_ii, s_ij, s_ji, s_jj
        s4[1, 1], s4[1, 2], s4[2, 1], s4[2, 2] = (
            np.conj(s_ii), np.conj(s_ij), np.conj(s_ji), np.conj(s_jj),
        )
        u2 = np.array([[1, 1], [-1j, 1j]]) / np.sqrt(2)
        u4 = np.kron(np.eye(2), u2)
        expected = (u4 @ s4 @ u4.conj().T).real

        slots = [0, 1, 4, 5]  # modes -1 and +1 in the 3-mode grid
        got = sx.matrix[np.ix_(slots, slots)]
        assert np.allclose(got, expected, atol=1e-12)

    def test_malformed_basis_rejected(self, grid):
        broken = np.eye(2 * grid.n_modes, dtype=complex)
        broken[0, 1] = 0.5j  # violates particle-hole structure
        fake = ScatteringMatrix(broken, grid)
        with pytest.raises(BasisInconsistencyError):
            to_quadrature(fake)

    def test_residual_recorded_below_tolerance(self, grid, device):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        sx = to_quadrature(simulate_scattering(grid, device, scheme))
        assert sx.imag_residual < 1e-9


class TestClosedFormsAgainstKron:
    """The per-mode closed forms equal the dense products with the kron matrices."""

    @settings(max_examples=100, deadline=None)
    @given(s=particle_hole_scattering())
    def test_to_quadrature(self, s):
        u = quadrature_transform(s.n_modes)
        reference = u @ s.matrix @ u.conj().T
        scale = max(float(np.max(np.abs(reference))), 1e-300)
        sx = to_quadrature(s)
        assert np.max(np.abs(sx.matrix - reference.real)) <= 1e-13 * scale
        assert sx.imag_residual <= 1e-13 * scale
        assert float(np.max(np.abs(reference.imag))) <= 1e-13 * scale

    @settings(max_examples=100, deadline=None)
    @given(s=particle_hole_scattering())
    def test_symplectic_defect(self, s):
        sx = to_quadrature(s)
        omega = symplectic_form(s.n_modes)
        reference = float(np.max(np.abs(sx.matrix @ omega @ sx.matrix.T - omega)))
        assert abs(symplectic_defect(sx) - reference) <= 1e-13 * max(reference, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(s=near_particle_hole_scattering())
    def test_to_quadrature_equals_the_complex_closed_form(self, s):
        # the real quarters and the residual are the bits of the filled
        # complex product, and a rejection carries its residual
        expected, residual = complex_closed_form(s.matrix)
        if residual > IMAG_RESIDUAL_TOL:
            with pytest.raises(BasisInconsistencyError) as info:
                to_quadrature(s)
            assert str(info.value) == (
                f"imaginary residual {residual:.3e} exceeds {IMAG_RESIDUAL_TOL:.1e}: "
                "input is not a particle-hole symmetric scattering matrix"
            )
        else:
            sx = to_quadrature(s)
            assert np.array_equal(sx.matrix, expected)
            assert sx.imag_residual == residual

    @settings(max_examples=150, deadline=None)
    @given(sx=real_square_matrices())
    def test_symplectic_defect_of_any_real_matrix(self, sx):
        # the half-size product sums in another order than the dense one:
        # both lie within about k u max(|Sx| |Sx|^T) of the exact one, k = 2n
        m = sx.matrix
        omega = symplectic_form(sx.grid.n_modes)
        reference = float(np.max(np.abs(m @ omega @ m.T - omega)))
        eps = np.finfo(float).eps
        slack = 2 * m.shape[0] * eps * float(np.max(np.abs(m) @ np.abs(m).T)) + eps
        assert abs(symplectic_defect(sx) - reference) <= slack


class TestSymplectic:
    def test_identity_has_zero_defect(self, grid):
        sx = QuadratureScattering(np.eye(2 * grid.n_modes), grid, 0.0)
        assert symplectic_defect(sx) == 0.0

    def test_random_below_threshold_schemes(self, grid, device):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            sx = to_quadrature(simulate_scattering(grid, device, random_scheme(rng)))
            assert symplectic_defect(sx) < 1e-9

    def test_broken_row_detected(self, grid, device):
        sx = to_quadrature(pump_off_scattering(grid, device))
        broken = np.array(sx.matrix)
        broken[3, :] = 0.0
        assert symplectic_defect(QuadratureScattering(broken, grid, 0.0)) > 0.5

    def test_symplectic_form_shape(self):
        omega = symplectic_form(2)
        assert omega.shape == (4, 4)
        assert np.array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
        assert np.array_equal(omega @ omega, -np.eye(4))


class TestPropagate:
    def test_identity_scattering_keeps_input(self, grid):
        sx = QuadratureScattering(np.eye(2 * grid.n_modes), grid, 0.0)
        v_in = vacuum_covariance(grid)
        v_out = propagate_covariance(sx, v_in)
        assert np.array_equal(v_out.matrix, v_in.matrix)

    def test_uncertainty_like_bound_on_diagonal_blocks(self, grid, device):
        rng = np.random.default_rng(17)
        for _ in range(10):
            sx = to_quadrature(simulate_scattering(grid, device, random_scheme(rng)))
            v = propagate_covariance(sx, vacuum_covariance(grid)).matrix
            for k in range(grid.n_modes):
                block = v[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
                assert np.linalg.det(block) >= 0.25 * (1 - 1e-9)

    def test_dimension_mismatch_rejected(self, grid):
        sx = QuadratureScattering(np.eye(2 * grid.n_modes), grid, 0.0)
        with pytest.raises(InvalidArgumentError):
            propagate_covariance(sx, CovarianceMatrix(0.5 * np.eye(4)))

    def test_restriction_commutes_on_closed_mode_classes(self, grid, device):
        # the three-pump residue classes are closed under coupling, so
        # propagating then restricting equals restricting then propagating
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, np.pi])
        sx = to_quadrature(simulate_scattering(grid, device, scheme))
        v_full = propagate_covariance(sx, vacuum_covariance(grid)).matrix
        for residue in (0, 2):
            modes = [j for j in grid.indices if j % 4 == residue]
            slots = np.array(
                [s for j in modes for s in (grid.a_slot(j), grid.a_slot(j) + 1)]
            )
            sub_sx = sx.matrix[np.ix_(slots, slots)]
            v_sub = 0.5 * sub_sx @ sub_sx.T
            assert np.allclose(v_full[np.ix_(slots, slots)], v_sub, atol=1e-10)

    def test_symmetry_enforced(self, grid, device):
        scheme = balanced_scheme(device, [-4, 0, 4], 0.085)
        sx = to_quadrature(simulate_scattering(grid, device, scheme))
        v = propagate_covariance(sx, vacuum_covariance(grid)).matrix
        assert np.array_equal(v, v.T)

    def test_scalar_identity_input_matches_two_products(self, grid, device):
        rng = np.random.default_rng(23)
        for _ in range(6):
            sx = to_quadrature(simulate_scattering(grid, device, random_scheme(rng)))
            for scale in (0.5, 1.7):
                v_in = CovarianceMatrix(scale * np.eye(2 * grid.n_modes))
                v = propagate_covariance(sx, v_in).matrix
                assert np.array_equal(v, v.T)
                general = sx.matrix @ v_in.matrix @ sx.matrix.T
                general = 0.5 * (general + general.T)
                assert np.max(np.abs(v - general)) <= 1e-14 * np.max(np.abs(general))

    def test_other_inputs_take_two_products(self, grid, device):
        sx = to_quadrature(
            simulate_scattering(grid, device, balanced_scheme(device, [-4, 0, 4], 0.085))
        )
        rng = np.random.default_rng(29)
        mix = rng.normal(size=(2 * grid.n_modes, 2 * grid.n_modes))
        for v_in in (np.diag(np.linspace(0.5, 1.5, 2 * grid.n_modes)), mix @ mix.T):
            v = propagate_covariance(sx, CovarianceMatrix(v_in)).matrix
            expected = sx.matrix @ v_in @ sx.matrix.T
            assert np.array_equal(v, v.T)
            assert np.max(np.abs(v - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestPsdCertificate:
    """``propagate_covariance`` proves a vacuum output PSD by a rounding bound."""

    @settings(max_examples=80, deadline=None)
    @given(
        sx=st.one_of(simulated_quadratures(), real_square_matrices(),
                     real_square_matrices(max_half_span=1, bound=1e6)),
        scale=st.one_of(st.just(VACUUM_SCALE), st.floats(0.0, 1e3)),
    )
    def test_cleared_covariances_are_psd_to_half_tolerance(self, sx, scale):
        v_in = CovarianceMatrix(scale * np.eye(sx.matrix.shape[0]))
        with counted_cholesky() as cholesky:
            v = propagate_covariance(sx, v_in).matrix
        # tr G and ||G||_F are at most 2n max|G|, so the bound clears every
        # scalar input c >= 0 up to 237 modes
        assert cholesky.call_count == 0
        tol = 1e-10 * max(1.0, float(np.max(np.abs(v))))
        assert float(np.min(np.linalg.eigvalsh(v))) >= -0.5 * tol

    def test_census_vacuum_needs_no_cholesky(self, grid, device):
        rng = np.random.default_rng(31)
        vacuum = vacuum_covariance(grid)
        sxs = [to_quadrature(simulate_scattering(grid, device, random_scheme(rng)))
               for _ in range(4)]
        with counted_cholesky() as cholesky:
            for sx in sxs:
                propagate_covariance(sx, vacuum)
        assert cholesky.call_count == 0

    @pytest.mark.parametrize("v_in", [
        pytest.param(lambda dim: -1e-12 * np.eye(dim), id="tiny-negative-scalar"),
        pytest.param(lambda dim: np.diag(np.linspace(0.5, 1.5, dim)), id="non-scalar"),
    ])
    def test_uncertified_inputs_take_one_cholesky(self, grid, device, v_in):
        sx = to_quadrature(
            simulate_scattering(grid, device, balanced_scheme(device, [-4, 0, 4], 0.085))
        )
        v_in = CovarianceMatrix(v_in(sx.matrix.shape[0]))
        with counted_cholesky() as cholesky:
            propagate_covariance(sx, v_in)
        assert cholesky.call_count == 1

    def test_bound_past_half_tolerance_at_1001_modes_takes_one_cholesky(self):
        grid = ModeGrid(RESONANCE, SPACING, 500)
        sx = QuadratureScattering(np.eye(2 * grid.n_modes), grid, 0.0)
        vacuum = vacuum_covariance(grid)
        with counted_cholesky() as cholesky:
            v = propagate_covariance(sx, vacuum)
        assert cholesky.call_count == 1
        assert np.array_equal(v.matrix, vacuum.matrix)

    def test_caller_matrix_has_no_certificate(self, grid):
        with counted_cholesky() as cholesky:
            CovarianceMatrix(VACUUM_SCALE * np.eye(2 * grid.n_modes))
        assert cholesky.call_count == 1


class TestCovarianceMatrix:
    def test_rejects_asymmetric(self):
        bad = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(InvalidArgumentError):
            CovarianceMatrix(bad)

    def test_rejects_negative_definite(self):
        with pytest.raises(InvalidArgumentError):
            CovarianceMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize(
        "bad",
        [np.full((4, 4), np.nan), np.diag([1.0, 1.0, np.inf, 1.0]), np.diag([-np.inf, 1.0])],
    )
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            CovarianceMatrix(bad)

    @pytest.mark.parametrize("multiple", [0.0, -0.4, -0.99, -1.01, -2.0])
    def test_psd_decision_and_message_as_eigvalsh(self, multiple, monkeypatch):
        # lambda_min(v) = multiple * tol, with tol = 1e-10 * max(1, max|v|)
        q, _ = np.linalg.qr(np.random.default_rng(41).normal(size=(12, 12)))
        base = q @ np.diag(np.arange(12.0)) @ q.T
        base = 0.5 * (base + base.T)
        tol = 1e-10 * max(1.0, float(np.max(np.abs(base))))
        v = base + multiple * tol * np.eye(12)
        min_eig = float(np.min(np.linalg.eigvalsh(v)))
        assert abs(min_eig - multiple * tol) < 1e-3 * tol
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        if min_eig < -tol:
            with pytest.raises(InvalidArgumentError) as info:
                CovarianceMatrix(v)
            assert str(info.value) == f"covariance not PSD (min eigenvalue {min_eig:.2e})"
        else:
            assert np.array_equal(CovarianceMatrix(v).matrix, v)
        # the Cholesky factor of v + tol/2 I settles it alone when it exists
        assert bool(calls) == (multiple < -0.5)

    def test_vacuum_default_scale(self, grid):
        v = vacuum_covariance(grid)
        assert VACUUM_SCALE == 0.5
        assert np.array_equal(v.matrix, VACUUM_SCALE * np.eye(2 * grid.n_modes))


def looped_sample_covariance(sx, sample_count, seed):
    """Reference Monte Carlo covariance: a fresh ``rng.normal`` array per chunk."""
    rng = np.random.default_rng(seed)
    dim = sx.matrix.shape[0]
    std = np.sqrt(VACUUM_SCALE)
    total = np.zeros(dim)
    products = np.zeros((dim, dim))
    drawn = 0
    while drawn < sample_count:
        count = min(_SAMPLE_CHUNK, sample_count - drawn)
        z = rng.normal(0.0, std, size=(count, dim))
        total += z.sum(axis=0)
        products += z.T @ z
        drawn += count
    mean = total / sample_count
    c_z = (products - sample_count * np.outer(mean, mean)) / (sample_count - 1)
    v = sx.matrix @ c_z @ sx.matrix.T
    return 0.5 * (v + v.T)


class TestSampleCovariance:
    def test_identity_diagonal_within_two_percent(self, grid):
        sx = QuadratureScattering(np.eye(2 * grid.n_modes), grid, 0.0)
        v = sample_covariance(sx, 100_000, seed=7)
        assert np.max(np.abs(np.diag(v.matrix) - 0.5)) < 0.02 * 0.5 * 2

    def test_same_seed_bit_identical(self, grid, device):
        sx = to_quadrature(
            simulate_scattering(grid, device, balanced_scheme(device, [-4, 0, 4], 0.05))
        )
        a = sample_covariance(sx, 5000, seed=99)
        b = sample_covariance(sx, 5000, seed=99)
        assert np.array_equal(a.matrix, b.matrix)

    def test_convergence_rate_toward_analytic(self, grid, device):
        sx = to_quadrature(
            simulate_scattering(grid, device, balanced_scheme(device, [-4, 0, 4], 0.05))
        )
        exact = propagate_covariance(sx, vacuum_covariance(grid)).matrix
        errors = []
        for count in (1000, 10_000, 100_000):
            sampled = sample_covariance(sx, count, seed=5).matrix
            errors.append(np.max(np.abs(sampled - exact)))
        assert errors[0] > errors[1] > errors[2]
        # max-entry error shrinks roughly like 1/sqrt(count): two decades of
        # samples must buy at least a factor 3 (10x up to extreme-value drift)
        assert errors[0] / errors[2] > 3.0

    def test_estimator_unbiased_over_seeds(self, grid, device):
        sx = to_quadrature(
            simulate_scattering(grid, device, balanced_scheme(device, [0], 0.1))
        )
        exact = propagate_covariance(sx, vacuum_covariance(grid)).matrix
        acc = np.zeros_like(exact)
        single = None
        for seed in range(8):
            v = sample_covariance(sx, 4000, seed=seed).matrix
            if single is None:
                single = np.max(np.abs(v - exact))
            acc += v
        pooled = np.max(np.abs(acc / 8 - exact))
        assert pooled < single

    def test_raw_draw_sums_match_mapped_samples(self, grid, device):
        # the same stream, mapped sample by sample: two chunks, the last partial
        sx = to_quadrature(
            simulate_scattering(grid, device, balanced_scheme(device, [-4, 0, 4], 0.085))
        )
        count = 20_000
        v = sample_covariance(sx, count, seed=3).matrix
        z = np.random.default_rng(3).normal(0.0, np.sqrt(0.5), size=(count, 2 * grid.n_modes))
        expected = np.cov(z @ sx.matrix.T, rowvar=False)
        assert np.linalg.norm(v - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("count", [2, _SAMPLE_CHUNK, 40_000])
    def test_in_place_draws_match_the_looped_reference(self, grid, device, count):
        # the fewest samples, exactly one chunk, and a partial last chunk
        sx = to_quadrature(
            simulate_scattering(grid, device, balanced_scheme(device, [-4, 0, 4], 0.085))
        )
        v = sample_covariance(sx, count, seed=21).matrix
        assert np.array_equal(v, looped_sample_covariance(sx, count, seed=21))

    def test_holds_one_chunk_in_memory(self, device):
        grid = ModeGrid(center_frequency=RESONANCE, spacing=SPACING, half_span=6)
        dim = 2 * grid.n_modes
        sx = to_quadrature(
            simulate_scattering(grid, device, balanced_scheme(device, [-4, 0, 4], 0.05))
        )
        chunk_bytes = _SAMPLE_CHUNK * dim * 8
        sample_covariance(sx, 2, seed=4)  # first-call set-up is not per chunk
        tracemalloc.start()
        try:
            sample_covariance(sx, 3 * _SAMPLE_CHUNK, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk buffer, and a few dim x dim sums and products beside it
        assert peak < 1.25 * chunk_bytes + 16 * dim * dim * 8

    def test_too_few_samples_rejected(self, grid):
        sx = QuadratureScattering(np.eye(2 * grid.n_modes), grid, 0.0)
        with pytest.raises(InvalidArgumentError):
            sample_covariance(sx, 1, seed=0)

    def test_negative_seed_rejected(self, grid):
        sx = QuadratureScattering(np.eye(2 * grid.n_modes), grid, 0.0)
        with pytest.raises(InvalidArgumentError):
            sample_covariance(sx, 100, seed=-1)


class TestConnectivityMirror:
    def test_three_pump_patterns_match_scattering(self, grid, device):
        for phase in (0.0, np.pi):
            scheme = balanced_scheme(device, [-4, 0, 4], 0.01, [0.0, 0.0, phase])
            s = simulate_scattering(grid, device, scheme)
            sx = to_quadrature(s)
            v = propagate_covariance(sx, vacuum_covariance(grid))
            assert np.array_equal(
                connectivity_pattern(s.matrix), connectivity_pattern(v.matrix)
            )

    def test_one_and_two_pump_patterns_match(self, grid, device):
        for offsets in ([0], [-2, 2]):
            scheme = balanced_scheme(device, offsets, 0.02, [0.4] * len(offsets))
            s = simulate_scattering(grid, device, scheme)
            v = propagate_covariance(to_quadrature(s), vacuum_covariance(grid))
            assert np.array_equal(
                connectivity_pattern(s.matrix), connectivity_pattern(v.matrix)
            )

    @settings(max_examples=100, deadline=None)
    @given(special_float_matrices())
    def test_block_magnitudes_equal_reshape_reduction(self, m):
        n = m.shape[0] // 2
        expected = np.abs(m).reshape(n, 2, n, 2).max(axis=(1, 3))
        assert same_bits_but_nan(block_magnitudes(m), expected)

    def test_quadrature_transform_is_unitary(self):
        u = quadrature_transform(5)
        assert np.allclose(u @ u.conj().T, np.eye(10), atol=1e-15)
