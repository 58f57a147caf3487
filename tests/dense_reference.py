"""Dense references for every simulation.

The package splits each system into block pieces, scattered from the
offsets' reflections, and restacks them (``scattering._block_pieces``),
whether it simulates one scheme, sweeps a phase, fits or searches; every
block is stacked by its quarters, inverted on its conjugate slots, and
written into ``S`` with its particle-hole mirror.  The tests check those
paths against the other builder: the public dense chain, which resolves
a list of coupled pairs tone by tone, assembles the ``2n x 2n`` system
and inverts it whole with one ``np.linalg.inv`` (``scattering_matrix``),
behind the column discs of all of ``M`` and, where they fail, its
spectrum.  It reads neither the block partition nor the block inverter,
so it checks both.  ``dense_column``, which checks the phase sweep's
half-size solve, solves the assembled system for one column with one
plain ``np.linalg.solve``.
"""

import numpy as np

from combscatter import assemble_system, resolve_couplings, scattering_matrix


def dense_system(grid, params, scheme):
    """The assembled ``SystemMatrix`` of ``scheme``."""
    return assemble_system(grid, params, resolve_couplings(grid, scheme, params))


def simulate_dense(grid, params, scheme):
    """``simulate_scattering`` by the dense chain."""
    return scattering_matrix(dense_system(grid, params, scheme))


def rounding(cond):
    """The relative agreement of the block inverses with the whole ``M``'s
    inverse for a system of condition ``cond``: the two round differently,
    by an amount that grows with the condition near the threshold."""
    return 1e-12 * np.maximum(1.0, 1e-3 * cond)


def dense_column(grid, params, scheme, slot):
    """Column ``slot`` of ``S = gamma * M^-1 - I``, ``M`` solved whole."""
    system = dense_system(grid, params, scheme)
    drive = np.zeros(len(system.matrix))
    drive[slot] = 1.0
    column = system.k_coupling**2 * np.linalg.solve(system.matrix, drive)
    column[slot] -= 1.0
    return column
