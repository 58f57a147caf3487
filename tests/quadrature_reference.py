"""Dense kron references of the quadrature closed forms.

``gaussian.to_quadrature`` and ``gaussian.symplectic_defect`` apply the
per-mode 2x2 blocks on strided views without building a 2n x 2n matrix;
the tests compare them with the dense products of these block-diagonal
matrices.
"""

import numpy as np

# Per-mode canonical map from (a, a*) to (x, p).
_U2 = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)


def quadrature_transform(n_modes: int) -> np.ndarray:
    """Block-diagonal unitary mapping the interleaved (a, a*) basis to (x, p)."""
    return np.kron(np.eye(n_modes), _U2)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one 2x2 rotation generator per mode."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
