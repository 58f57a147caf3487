"""Dense references for every simulation.

The package splits each system into block pieces, scattered from the
offsets' reflections, and restacks them (``scattering._block_pieces``),
whether it simulates one scheme, sweeps a phase, fits or searches; every
block is stacked by its quarters, inverted on its conjugate slots, and
written into ``S`` with its particle-hole mirror.  The tests check those
paths against the other builder: the public dense chain, which resolves
a list of coupled pairs tone by tone, assembles the ``2n x 2n`` system
and gathers its blocks back out of it.  That chain
still inverts through the package's block inverter, so
``dense_scattering`` also checks the inverter: it inverts the whole
assembled system with one plain ``np.linalg.inv``, and ``dense_column``,
which checks the phase sweep's half-size solve, solves it for one column
with one plain ``np.linalg.solve``.
"""

import numpy as np

from combscatter import assemble_system, resolve_couplings, scattering_matrix


def dense_system(grid, params, scheme):
    """The assembled ``SystemMatrix`` of ``scheme``."""
    return assemble_system(grid, params, resolve_couplings(grid, scheme, params))


def simulate_dense(grid, params, scheme):
    """``simulate_scattering`` by the dense chain."""
    return scattering_matrix(dense_system(grid, params, scheme))


def dense_scattering(system):
    """``S = gamma * M^-1 - I`` and the 1-norm condition, ``M`` inverted whole."""
    m = system.matrix
    inverse = np.linalg.inv(m)
    s = system.k_coupling**2 * inverse - np.eye(len(m))
    return s, np.linalg.norm(m, 1) * np.linalg.norm(inverse, 1)


def dense_column(grid, params, scheme, slot):
    """Column ``slot`` of ``S = gamma * M^-1 - I``, ``M`` solved whole."""
    system = dense_system(grid, params, scheme)
    drive = np.zeros(len(system.matrix))
    drive[slot] = 1.0
    column = system.k_coupling**2 * np.linalg.solve(system.matrix, drive)
    column[slot] -= 1.0
    return column
