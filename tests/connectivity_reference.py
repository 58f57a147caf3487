"""Mode-connectivity pattern of a matrix in the interleaved basis.

The covariance mirror checks compare the pattern of a scattering matrix
with that of the covariance matrix it propagates to; the package itself
reduces matrices to mode level only through ``graphs.mode_level_db``.
"""

import numpy as np


def block_magnitudes(matrix: np.ndarray) -> np.ndarray:
    """Mode-level reduction: max absolute entry of each per-mode 2x2 block.

    The maximum of the four strided views, one per block position.
    """
    m = np.abs(np.asarray(matrix))
    return np.maximum(
        np.maximum(m[0::2, 0::2], m[0::2, 1::2]), np.maximum(m[1::2, 0::2], m[1::2, 1::2])
    )


def connectivity_pattern(matrix: np.ndarray) -> np.ndarray:
    """Boolean mode-connectivity pattern of a matrix in an interleaved basis.

    Reduces to per-mode-pair block magnitudes, zeroes the diagonal, and
    thresholds at 1e-2 times the largest off-diagonal block.  Used to compare
    the connectivity of scattering and covariance matrices on an equal
    footing.
    """
    blocks = block_magnitudes(matrix)
    np.fill_diagonal(blocks, 0.0)
    peak = float(blocks.max())
    if peak == 0.0:
        return np.zeros_like(blocks, dtype=bool)
    return blocks >= 1e-2 * peak
