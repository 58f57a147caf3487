"""Dense kron references of the quadrature closed forms.

``gaussian.to_quadrature`` and ``gaussian.symplectic_defect`` apply the
per-mode 2x2 blocks on strided views without building a 2n x 2n matrix;
the tests compare them with the dense products of these block-diagonal
matrices, and ``to_quadrature`` also with ``complex_closed_form``.
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


def complex_closed_form(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``to_quadrature``'s closed form on a complex 2n x 2n matrix.

    Fills the whole complex product, scales it, and returns its real part
    and the largest modulus of its imaginary part.  ``to_quadrature`` forms
    the real part and the residual from the same sums without it, and must
    give the same bits.
    """
    a, b = m[0::2, 0::2], m[0::2, 1::2]
    c, d = m[1::2, 0::2], m[1::2, 1::2]
    ac, bd, ca, db = a + c, b + d, c - a, d - b
    sx = np.empty_like(m)
    sx[0::2, 0::2] = ac + bd
    sx[0::2, 1::2] = 1j * (ac - bd)
    sx[1::2, 0::2] = 1j * (ca + db)
    sx[1::2, 1::2] = db - ca
    sx *= 0.5
    return sx.real.copy(), float(np.max(np.abs(sx.imag)))
