"""Quadrature-basis transforms and Gaussian covariance propagation.

A scattering matrix with particle-hole structure becomes a real matrix in
the per-mode quadrature basis ``x = (a + a*)/sqrt(2)``,
``p = (a - a*)/(sqrt(2) i)``; for the lossless single-port model it is
symplectic there.  Gaussian states then propagate by congruence of their
covariance matrix, which this module computes both analytically and by
seeded Monte Carlo sampling.

Monte Carlo draws come from one numpy PCG64 stream (``default_rng``) per
call, in fixed chunks of ``_SAMPLE_CHUNK`` samples drawn into one chunk
buffer.  A fixed seed gives the same draws on every platform; the chunk
products go through BLAS, so the covariance is bit-identical from run to
run on one machine and BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisInconsistencyError, InvalidArgumentError
from .model import MIN_SAMPLES, ModeGrid
from .scattering import ScatteringMatrix, _frozen, _Sealed

# Variance of each vacuum quadrature in natural units: the quantum of
# fluctuation is absorbed here, so sampled processes have std 1/sqrt(2).
VACUUM_SCALE = 0.5

IMAG_RESIDUAL_TOL = 1e-9

# Monte Carlo draws this many samples at a time, so memory stays bounded
# whatever the sample count.  The chunking fixes the summation grouping,
# so changing it changes the covariance in its last bits.
_SAMPLE_CHUNK = 16384


@dataclass(frozen=True)
class QuadratureScattering:
    """Scattering matrix in the interleaved quadrature basis (x, p per mode).

    ``imag_residual`` records the largest imaginary part discarded when
    projecting to a real matrix; it stays far below tolerance whenever the
    source matrix has proper particle-hole structure.
    """

    matrix: np.ndarray
    grid: ModeGrid
    imag_residual: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix, float))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-semidefinite quadrature covariance matrix.

    Every construction checks finiteness, symmetry to ``1e-12`` and
    positive semidefiniteness to ``tol = 1e-10``, both relative to
    ``max(1, max|v|)``.  The PSD check first tries a Cholesky factorization
    of ``v + (tol/2) I``: if it succeeds, ``v`` is PSD to within ``tol/2``
    (up to the factorization's rounding) and is accepted.  Only when it fails does ``eigvalsh`` run and decide,
    rejecting ``v`` when its smallest eigenvalue is below ``-tol``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        v = _frozen(self.matrix, float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidArgumentError("covariance matrix must be square")
        if not np.isfinite(v).all():
            raise InvalidArgumentError("covariance has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(v)))) if v.size else 1.0
        sym_defect = float(np.max(np.abs(v - v.T))) if v.size else 0.0
        if sym_defect > 1e-12 * scale:
            raise InvalidArgumentError(f"covariance not symmetric (defect {sym_defect:.2e})")
        tol = 1e-10 * scale
        if v.size and not _cholesky_certifies(v, 0.5 * tol):
            min_eig = float(np.min(np.linalg.eigvalsh(v)))
            if min_eig < -tol:
                raise InvalidArgumentError(f"covariance not PSD (min eigenvalue {min_eig:.2e})")
        object.__setattr__(self, "matrix", v)


def _cholesky_certifies(v: np.ndarray, shift: float) -> bool:
    """True when ``v + shift * I`` has a Cholesky factor, so ``v >= -shift``."""
    shifted = v.copy()
    shifted.flat[:: v.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def to_quadrature(s: ScatteringMatrix) -> QuadratureScattering:
    """Express a scattering matrix in the quadrature basis.

    Computes ``U S U+`` with the per-mode canonical block
    ``[[1, 1], [-i, i]] / sqrt(2)`` of ``U`` and keeps the real part.  A
    residual imaginary part above ``IMAG_RESIDUAL_TOL`` means the input
    lacks particle-hole structure (malformed basis), which raises.

    Per mode pair the product is a closed form in the 2x2 block
    ``[[a, b], [c, d]]`` (amplitude/conjugate rows and columns):
    ``[[a+b+c+d, i(a-b+c-d)], [i(c+d-a-b), a-b-c+d]] / 2``, evaluated for
    all pairs at once on strided views.
    """
    m = s.matrix
    a, b = m[0::2, 0::2], m[0::2, 1::2]
    c, d = m[1::2, 0::2], m[1::2, 1::2]
    ac, bd, ca, db = a + c, b + d, c - a, d - b
    sx = np.empty_like(m)
    sx[0::2, 0::2] = ac + bd
    sx[0::2, 1::2] = 1j * (ac - bd)
    sx[1::2, 0::2] = 1j * (ca + db)
    sx[1::2, 1::2] = db - ca
    sx *= 0.5
    residual = float(np.max(np.abs(sx.imag)))
    if residual > IMAG_RESIDUAL_TOL:
        raise BasisInconsistencyError(
            f"imaginary residual {residual:.3e} exceeds {IMAG_RESIDUAL_TOL:.1e}: "
            "input is not a particle-hole symmetric scattering matrix"
        )
    return QuadratureScattering(matrix=sx.real, grid=s.grid, imag_residual=residual)


def symplectic_defect(sx: QuadratureScattering) -> float:
    """Max-norm of ``Sx O Sx^T - O`` against the symplectic form ``O``.

    ``Sx O`` swaps each mode's column pair and negates the new first column;
    ``O`` is then subtracted on its 2n nonzero entries.
    """
    m = sx.matrix
    m_omega = np.empty_like(m)
    m_omega[:, 0::2] = -m[:, 1::2]
    m_omega[:, 1::2] = m[:, 0::2]
    product = m_omega @ m.T
    modes = np.arange(0, m.shape[0], 2)
    product[modes, modes + 1] -= 1.0
    product[modes + 1, modes] += 1.0
    return float(np.max(np.abs(product)))


def vacuum_covariance(grid: ModeGrid) -> CovarianceMatrix:
    """Uncorrelated vacuum input: ``VACUUM_SCALE`` times the identity."""
    return CovarianceMatrix(_Sealed(VACUUM_SCALE * np.eye(2 * grid.n_modes)))


def propagate_covariance(
    sx: QuadratureScattering, v_in: CovarianceMatrix
) -> CovarianceMatrix:
    """Propagate a covariance through the scattering: ``Sx V Sx^T``.

    A scalar-identity input ``c I`` (every vacuum input) propagates as
    ``c (Sx Sx^T)``: one symmetric rank-k product, exactly symmetric as
    computed.  Any other input takes the two products, and symmetry is
    enforced by averaging with the transpose, guarding against accumulation
    of rounding asymmetry.  The congruence preserves positive
    semidefiniteness, and the result is checked again on construction.
    """
    m, v = sx.matrix, v_in.matrix
    if v.shape != m.shape:
        raise InvalidArgumentError("covariance and scattering dimensions differ")
    diagonal = v.diagonal()
    if np.count_nonzero(v) == np.count_nonzero(diagonal) and np.all(diagonal == diagonal[:1]):
        # numpy runs a @ a.T as one syrk call
        v_out = diagonal[0] * (m @ m.T)
    else:
        v_out = m @ v @ m.T
        v_out = 0.5 * (v_out + v_out.T)
    return CovarianceMatrix(_Sealed(v_out))


def sample_covariance(sx: QuadratureScattering, sample_count: int, seed: int) -> CovarianceMatrix:
    """Estimate the output covariance by Monte Carlo vacuum sampling.

    Draws ``sample_count`` i.i.d. quadrature vectors ``z`` of independent
    zero-mean Gaussians with standard deviation ``sqrt(VACUUM_SCALE)``,
    in chunks, and returns the empirical (mean-subtracted, unbiased)
    covariance of the outputs ``Sx z``.  The chunks accumulate only the raw
    sums ``sum(z)`` and ``z^T z``; ``Sx`` is applied once at the end,
    ``V = Sx C_z Sx^T``, which equals the covariance of the mapped samples
    up to rounding.  Bit-identical for a fixed seed on one machine and BLAS.

    Each chunk is drawn in place into one buffer of
    ``min(_SAMPLE_CHUNK, sample_count) x 2n`` doubles, so sampling holds one
    chunk in memory besides the ``2n x 2n`` sums.
    """
    if sample_count < MIN_SAMPLES:
        raise InvalidArgumentError(f"sample_count must be at least {MIN_SAMPLES}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    dim = sx.matrix.shape[0]
    std = np.sqrt(VACUUM_SCALE)
    total = np.zeros(dim)
    products = np.zeros((dim, dim))
    buffer = np.empty((min(_SAMPLE_CHUNK, sample_count), dim))
    drawn = 0
    while drawn < sample_count:
        z = buffer[: min(_SAMPLE_CHUNK, sample_count - drawn)]
        # numpy draws normal(0, std) as 0 + std * standard_normal: the same
        # values and generator state, without a second chunk alive
        rng.standard_normal(out=z)
        z *= std
        total += z.sum(axis=0)
        products += z.T @ z
        drawn += len(z)
    mean = total / sample_count
    c_z = (products - sample_count * np.outer(mean, mean)) / (sample_count - 1)
    v = sx.matrix @ c_z @ sx.matrix.T
    v = 0.5 * (v + v.T)
    return CovarianceMatrix(_Sealed(v))

