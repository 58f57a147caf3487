"""Harmonic-balance system assembly and scattering-matrix computation.

The linearized equations of motion for the comb amplitudes close into a
``2n x 2n`` linear system over the interleaved vector
``(a_-J, a*_-J, ..., a_J, a*_J)``.  Frequency matching lets a pump tone
couple only the amplitude of one mode to the conjugate amplitude of its
partner, so the system splits into independent blocks: the connected
components of the comb's coupling graph.  Each block is inverted on its
own and the input-output matching condition turns the block inverses into
the scattering matrix; magnitudes are reported in dB relative to the
pump-off reflection.  With one over-coupled port and no internal loss that
reflection, ``(gamma/2 -+ i*detuning) / (gamma/2 +- i*detuning)``, is
all-pass, of modulus 1 in closed form, so no run path computes it or
divides by it; ``pump_off_scattering`` writes it down, inverting nothing,
for callers who want it.  Every block lives as its quarters from gather
to ``S``: on its slots, amplitude slots first, it reads
``[[D, K], [K^H, D_c]]`` with ``D`` and ``D_c`` diagonal, so the stack
holds only ``K`` and the two diagonals (``_Quarters``).  It is inverted
through the Schur complement on its conjugate slots into the conjugate
rows ``[Z W]`` of its inverse, which go into ``S`` together with their
particle-hole mirror, conjugated on the swapped slots, through one index
(``_BlockPieces.written``) that the gate, the writer and the fit all
walk.  A block that holds both slots of each of its modes is its own
mirror, so those rows are all of it; the two blocks of a mirror pair each
write the rows the other lacks, so ``S`` is particle-hole symmetric by
construction.  The whole block is formed only when the gate must look
past its discs.

The model holds only below the parametric oscillation threshold, where
every eigenvalue of ``M`` has a positive real part (the Hurwitz condition,
Gardiner & Collett, PRA 31, 3761, 1985); ``_invert_blocks`` is the one
gate that decides it on the blocks, and the only code that inverts block
stacks.  Its first stage, the column Gershgorin discs, also bounds the
condition (Varah, Linear Algebra Appl. 11, 3, 1975), which lets a phase
sweep clear the gate once for all its steps (``_disc_bound``).  Both read
the discs in closed form (``_BlockPieces.discs``): both columns of mode
``p`` hold one entry of modulus ``resonance * |s_t|`` per tone ``t`` whose
partner ``m_t - p`` is on the grid, so with ``c_p`` their sum the margin
is ``gamma/2 - c_p`` and the 1-norm ``|gamma/2 + i*detuning_p| + c_p``, at
``O(n * T)`` cost with no stack gathered.  Every simulation, sweep, fit
and search splits the system into an index map onto the tone strengths,
scattered from the offsets' reflections (``_split``), and restacks it at
every point.  The split depends only on the mode count and the tone
offsets, so it is made once per comb and offsets: the package keeps a
read-only split of the last comb, and concurrent calls may share it; each
call brings its own device's detuning diagonal, which every stack reads
by slot.  The dense chain ``resolve_couplings`` -> ``assemble_system`` ->
``scattering_matrix`` serves hand-made coupling sets and the tests as an
independent reference: it inverts ``M`` whole, after the same discs taken
on all of ``M`` and its spectrum where they fail, and reads neither the
split nor the block inverter; no run path calls it.  A caller's matrix is
checked once, by ``ScatteringMatrix``.  Otherwise pure functions on
immutable inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AboveThresholdError,
    DegenerateNormalizationError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from .model import CouplingSet, DeviceParams, ModeGrid, PumpScheme, check_band

# A numerical guard, not the threshold: a stable system whose condition
# number exceeds this sits so close to the threshold that its inverse is
# dominated by rounding, and is reported as above threshold.
CONDITION_CAP = 1e12

# Magnitudes below 1e-12 clamp to -240 dB so text outputs stay finite.
DB_FLOOR = -240.0
_DB_FLOOR_AMPLITUDE = 10.0 ** (DB_FLOOR / 20.0)


class _Sealed:
    """An array the package has just built and writes no more.

    Passed to a type in place of the array, it lets ``_frozen`` keep the
    array without a copy, and ``ScatteringMatrix`` skip its admission scan;
    no public call makes one.  ``eig_floor``, when given, is a lower bound
    that the producer proved for the smallest eigenvalue of the (symmetric)
    array; ``CovarianceMatrix`` accepts it in place of a factorization.
    """

    __slots__ = ("array", "eig_floor")

    def __init__(self, array: np.ndarray, eig_floor: float | None = None):
        self.array = array
        self.eig_floor = eig_floor


def _frozen(value, dtype) -> np.ndarray:
    """``value`` as a read-only array that no other code holds.

    A ``_Sealed`` array is kept as it is.  Anything else is copied, so an
    array the caller holds, read-only or not, stays the caller's: writing
    it, or making it writeable again first, does not reach the copy.
    """
    if isinstance(value, _Sealed):
        a = np.asarray(value.array, dtype=dtype)
    else:
        a = np.array(value, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SystemMatrix:
    """Coefficient matrix of the harmonic-balance system.

    ``matrix`` holds the left-hand-side coefficients in the interleaved
    basis: the row of a mode amplitude carries ``i*(w0 - w_i) + gamma/2``
    on the diagonal (detuning convention) and ``-i * strength`` in the
    conjugate column of every coupled partner; conjugate-amplitude rows are
    the complex-conjugate mirrors, so the whole matrix satisfies the
    particle-hole symmetry ``M = Sx conj(M) Sx`` with ``Sx`` the per-mode
    swap of each interleaved pair.  ``k_coupling`` is the constant diagonal
    of the mode/transmission-line coupling matrix, ``sqrt(gamma)``.
    """

    matrix: np.ndarray
    k_coupling: float
    grid: ModeGrid

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix, complex))


@dataclass(frozen=True)
class ScatteringMatrix:
    """Input-output scattering matrix in the interleaved (a, a*) basis; a caller's
    ``matrix`` that is not finite and ``2n x 2n`` raises ``InvalidArgumentError``."""

    matrix: np.ndarray
    grid: ModeGrid
    condition_estimate: float = float("nan")

    def __post_init__(self):
        matrix = _frozen(self.matrix, complex)
        if not isinstance(self.matrix, _Sealed):
            _admit(matrix, self.grid)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_modes(self) -> int:
        return self.grid.n_modes


def _admit(matrix: np.ndarray, grid: ModeGrid) -> None:
    """Raise unless ``matrix`` is a finite ``2n x 2n`` array on ``grid``."""
    shape = (2 * grid.n_modes,) * 2
    if matrix.shape != shape:
        raise InvalidArgumentError(f"scattering matrix is {matrix.shape}, not {shape}")
    if not np.isfinite(matrix).all():
        raise InvalidArgumentError("scattering matrix must be finite")


def particle_hole_defect(matrix: np.ndarray) -> float:
    """Max-norm violation of ``M = Sx conj(M) Sx``.

    ``Sx`` exchanges slots 2k and 2k+1, so each entry is compared with the
    conjugate of its mirror in the opposite strided quarter.  Since
    ``|a - conj(b)| = |b - conj(a)|``, two of the four quarters hold every
    value.  A matrix that is not square of even side raises.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 or not m.size:
        raise InvalidArgumentError(f"not a square matrix of even side: {m.shape}")
    diagonal = np.abs(m[0::2, 0::2] - np.conj(m[1::2, 1::2]))
    off_diagonal = np.abs(m[0::2, 1::2] - np.conj(m[1::2, 0::2]))
    return float(np.maximum(diagonal.max(), off_diagonal.max()))


def _block_partition(size: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Connected components of the slot graph with edges ``u[k] -- v[k]``.

    Every slot points at a smaller-or-equal slot of its component; each
    round hooks the root of every edge end onto the smaller of the two
    roots and then jumps pointers until every slot points at its root, so
    the final root of a component is its smallest slot.

    Returns the components of the ``size`` slots as block groups: one
    ``(count, size)`` integer array per distinct block size and amplitude
    (even) slot count, in ascending order of the two.  Each row lists the
    amplitude slots of one block in ascending order and then its conjugate
    slots in ascending order, and rows are ordered by their smallest slot.
    ``_split`` takes the blocks of ``M`` from it, with the coupled slot
    pairs as edges, so no nonzero of ``M`` joins two blocks.
    """
    root = np.arange(size)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            break
        low = np.minimum(ru, rv)
        np.minimum.at(root, ru, low)
        np.minimum.at(root, rv, low)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # by component, its even (amplitude) slots before its odd ones
    parity = np.arange(size) % 2
    order = np.argsort(2 * root + parity, kind="stable")
    _, starts, sizes = np.unique(root[order], return_index=True, return_counts=True)
    amplitudes = np.add.reduceat(1 - parity[order], starts)
    # the distinct keys, ascending; a plain np.unique would import numpy.ma
    groups = []
    for s in np.flatnonzero(np.bincount(sizes)):
        for h in np.flatnonzero(np.bincount(amplitudes[sizes == s])):
            first = starts[(sizes == s) & (amplitudes == h)]
            groups.append(order[first[:, np.newaxis] + np.arange(s)])
    return tuple(groups)


def _diagonal(grid: ModeGrid, resonance: float) -> np.ndarray:
    """The ``+-i*(resonance - w_p)`` of every slot: the diagonal of ``M`` less ``gamma/2``."""
    half = grid.half_span
    detuning = resonance - (grid.center_frequency + np.arange(-half, half + 1) * grid.spacing)
    diagonal = np.empty(2 * grid.n_modes, dtype=complex)
    diagonal[0::2] = 1j * detuning
    diagonal[1::2] = -1j * detuning
    return diagonal


def assemble_system(
    grid: ModeGrid, params: DeviceParams, couplings: CouplingSet
) -> SystemMatrix:
    """Build the harmonic-balance coefficient matrix.

    Each mode contributes a 2x2 diagonal block with detuning and damping;
    each coupling entry populates the amplitude-to-conjugate positions of
    its pair (both orientations) and their conjugate mirrors.  A coupling
    referencing an index off the grid is an internal inconsistency, not a
    user error.
    """
    half = grid.half_span
    gamma = params.port_coupling
    m = np.diag(_diagonal(grid, params.resonance_frequency) + gamma / 2.0)

    entries = couplings.entries
    count = len(entries)
    i = np.fromiter((e.i for e in entries), dtype=np.intp, count=count)
    j = np.fromiter((e.j for e in entries), dtype=np.intp, count=count)
    outside = (np.abs(i) > half) | (np.abs(j) > half)
    if outside.any():
        k = int(np.argmax(outside))
        raise InternalConsistencyError(
            f"coupling ({entries[k].i}, {entries[k].j}) references a mode outside the grid"
        )
    off = -1j * np.fromiter((e.strength for e in entries), dtype=complex, count=count)
    a_i, a_j = 2 * (i + half), 2 * (j + half)
    distinct = i != j
    rows = np.concatenate((a_i, a_i + 1, a_j[distinct], a_j[distinct] + 1))
    cols = np.concatenate((a_j + 1, a_j, a_i[distinct] + 1, a_i[distinct]))
    values = np.concatenate((off, off.conj(), off[distinct], off[distinct].conj()))
    np.add.at(m, (rows, cols), values)
    return SystemMatrix(_Sealed(m), float(np.sqrt(gamma)), grid)


class _Quarters:
    """A stack of blocks of ``M`` held by its quarters.

    On its slots, amplitude slots first, a block reads
    ``[[D, K], [K^H, D_c]]``: ``D`` and ``D_c``, on its amplitude and
    conjugate slots, are diagonal, since a tone joins an amplitude only to
    a conjugate, and the entry joining ``a*_q`` to ``a_p`` is the conjugate
    of the one joining ``a_p`` to ``a*_q``.  ``k`` is ``K`` of every block,
    ``(..., count, h, h_c)``, amplitude rows by conjugate columns; ``d`` and
    ``d_c`` are the diagonals, ``(count, h)`` and ``(count, h_c)``.
    """

    __slots__ = ("k", "d", "d_c")

    def __init__(self, k: np.ndarray, d: np.ndarray, d_c: np.ndarray):
        self.k = k
        self.d = d
        self.d_c = d_c

    def __getitem__(self, which) -> _Quarters:
        """The blocks ``which`` of a stack with no leading axes."""
        return _Quarters(self.k[which], self.d[which], self.d_c[which])

    def whole(self) -> np.ndarray:
        """The blocks themselves, amplitude slots first."""
        h = self.d.shape[-1]
        size = h + self.d_c.shape[-1]
        blocks = np.zeros(self.k.shape[:-2] + (size, size), dtype=complex)
        blocks[..., :h, h:] = self.k
        blocks[..., h:, :h] = self.k.conj().swapaxes(-1, -2)
        i = np.arange(size)
        blocks[..., i, i] = np.concatenate((self.d, self.d_c), axis=-1)
        return blocks

    def y(self) -> np.ndarray:
        """``Y = -K^H D^-1`` of every block, ``(..., count, h_c, h)``."""
        return self.k.conj().swapaxes(-1, -2) / -self.d[..., np.newaxis, :]

    def inverse(self) -> np.ndarray:
        """``[Z W]``, the conjugate rows of every inverse, ``(count, h_c, h + h_c)``.

        ``W = (D_c + Y K)^-1 = (D_c - K^H D^-1 K)^-1`` inverts the Schur
        complement of ``D`` and ``Z = W Y``; the amplitude rows are the
        conjugates of the mirror block's conjugate rows (``_scattering``).
        """
        y = self.y()
        schur = y @ self.k
        i = np.arange(schur.shape[-1])
        schur[..., i, i] += self.d_c
        w = np.linalg.inv(schur)
        return np.concatenate((w @ y, w), axis=-1)


def _disc_bound(pieces: _BlockPieces, strengths, gamma: float) -> float:
    """Twice ``max ||B||_1 / min margin`` over every block of ``M``, or +inf if a margin is <= 0.

    The column discs of ``pieces`` at ``strengths`` and ``gamma``
    (``_BlockPieces.discs``).  Positive margins put every eigenvalue in the
    right half-plane (column Gershgorin discs), and Varah's bound applied
    to ``B^T`` gives ``||B^-1||_1 <= 1 / min margin``, so this bounds the
    1-norm condition; the factor 2 covers rounding.  A bound within
    ``CONDITION_CAP`` certifies that ``_invert_blocks`` would pass;
    ``phase_sweep`` takes it once, at its base phases, to clear the gate
    for every step.
    """
    norms, margins = pieces.discs(strengths, gamma)
    margin = float(margins.min())
    return 2.0 * float(norms.max()) / margin if margin > 0 else math.inf


def _spectral_floor(stack: np.ndarray, block: np.ndarray) -> float:
    """Least real part of the spectrum of the whole blocks ``stack`` on the slots ``block``.

    A block's mirror, on the swapped slots of its modes, is its conjugate
    and has the conjugate spectrum, so of each pair only the block whose
    smallest slot is an amplitude slot is decomposed; a block holding both
    slots of a mode is its own mirror, and its smallest slot is an
    amplitude slot.  A group keyed by its amplitude count may hold only
    the other members of pairs whose mirrors lie in another group; such a
    group decomposes nothing and returns +inf.  Its mirror group holds the
    picked members, which are open exactly when its blocks are
    (``_invert_blocks``), so the spectrum of every pair is still read once.
    """
    picked = block.min(axis=1) % 2 == 0
    if not picked.any():
        return math.inf
    return np.linalg.eigvals(stack[picked]).real.min()


def _unstable(floor: float) -> AboveThresholdError:
    return AboveThresholdError(
        "parametric oscillation threshold reached: the system is dynamically "
        f"unstable, with an eigenvalue of real part {floor:.6e} <= 0"
    )


def _over_cap(cond: float) -> AboveThresholdError:
    return AboveThresholdError(
        "ill-conditioned near the parametric oscillation threshold: the system "
        f"is stable, but its condition number {cond:.3e} exceeds cap {CONDITION_CAP:.1e}",
        condition_estimate=cond,
    )


def _invert_blocks(
    pieces: _BlockPieces, strengths, gamma: float, lowest=None
) -> tuple[list, float]:
    """Invert the blocks of ``pieces`` at ``strengths`` and ``gamma`` behind the threshold gate.

    First the gate: every block must be stable, every eigenvalue with a
    positive real part, or this raises naming the smallest real part.  A
    block passes when it lies inside its column Gershgorin discs
    (``Re B_jj > sum_{i != j} |B_ij|``), read per mode in closed form
    (``_BlockPieces.discs``): a block is open when a mode of one of its
    slots has a margin <= 0, so a block and its mirror, on the same modes,
    are open together.  The open blocks of a group pass when their
    Hermitian parts, formed whole, all have a Cholesky factor, which puts
    their numerical ranges in the right half-plane.  One failed factor
    sends the group to the eigenvalues of its open blocks, one block of
    each mirror pair (``_spectral_floor``), or to ``lowest(k)``, the
    caller's floor over at least the blocks of group ``k``.

    Then the inverses: every group that ``pieces.written`` holds goes
    through the Schur complement on its conjugate slots and returns
    ``[Z W]``, the conjugate rows of each inverse (``_Quarters.inverse``);
    no whole block or inverse is formed.  The amplitude rows of a block's
    inverse are the conjugate rows of its mirror's, conjugated on the
    swapped slots, since ``M`` is exactly particle-hole symmetric
    (``M = Sx conj(M) Sx``).  A group with no conjugate slot (the uncoupled
    amplitude slots of a one-tone scheme) has no such rows and is never
    visited: its entry is ``None``, since its mirror group's rows already
    hold its blocks' inverses.

    Returns the inverses, by group, and the exact 1-norm condition number
    ``max_b ||B_b||_1 * max_b ||B_b^-1||_1`` of the block-diagonal matrix
    they form: every column of it, or of its inverse, lies inside one
    block, and each column of the inverse is summed per slot from the
    ``[Z W]`` holding it and from the mirror rows, at the columns of the
    index ``written`` gives each.  A condition number that is not finite
    or exceeds ``CONDITION_CAP`` raises too.
    """
    stacks = pieces.stacks(strengths, gamma)
    norms, margins = pieces.discs(strengths, gamma)
    open_modes = margins <= 0
    if open_modes.any():
        for k, (block, stack) in enumerate(zip(pieces.blocks, stacks)):
            is_open = open_modes[block >> 1].any(axis=1)
            if not is_open.any():
                continue
            open_blocks = stack[is_open].whole()
            try:
                np.linalg.cholesky(0.5 * (open_blocks + open_blocks.conj().swapaxes(1, 2)))
            except np.linalg.LinAlgError:
                floor = (
                    _spectral_floor(open_blocks, block[is_open]) if lowest is None else lowest(k)
                )
                if not floor > 0:
                    raise _unstable(floor) from None
    inverses = [None] * len(stacks)
    columns = np.zeros(len(pieces.diagonal))
    try:
        for k, (_, own), (_, swapped) in pieces.written:
            inverses[k] = stacks[k].inverse()
            sums = np.abs(inverses[k]).sum(axis=1, keepdims=True)
            columns[own] += sums
            columns[swapped] += sums
    except np.linalg.LinAlgError:
        cond = np.inf
    else:
        cond = float(norms.max() * columns.max())
    if not cond <= CONDITION_CAP:
        raise _over_cap(cond)
    return inverses, cond


def scattering_matrix(system: SystemMatrix) -> ScatteringMatrix:
    """Invert the harmonic-balance system whole into a scattering matrix.

    The dense reference: it reads neither the block split nor the block
    inverter.  The gate is the same test on all of ``M``: a system inside
    its column Gershgorin discs is stable, and otherwise the least real
    part of the spectrum of ``M`` decides; a dynamically unstable system,
    at or past the parametric oscillation threshold, raises
    ``AboveThresholdError`` before anything is inverted.  Then one
    ``np.linalg.inv`` of ``M``.  The reported condition estimate is the
    exact 1-norm condition number ``||M||_1 * ||M^-1||_1``; one above
    ``CONDITION_CAP`` raises too.

    With the coupling matrix a constant ``sqrt(gamma)`` on the diagonal,
    the input-output relation reduces to ``S = gamma * M^-1 - I`` for the
    stored coefficient matrix (the conventional factor of i is absorbed in
    the stored rows).
    """
    m = system.matrix
    columns = np.abs(m).sum(axis=0)
    diagonal = m.diagonal()
    if not np.all(diagonal.real > columns - np.abs(diagonal)):
        floor = np.linalg.eigvals(m).real.min()
        if not floor > 0:
            raise _unstable(floor)
    try:
        inverse = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        cond = np.inf
    else:
        cond = float(columns.max() * np.abs(inverse).sum(axis=0).max())
    if not cond <= CONDITION_CAP:
        raise _over_cap(cond)
    s = system.k_coupling**2 * inverse
    s[np.diag_indices_from(s)] -= 1.0
    return ScatteringMatrix(_Sealed(s), system.grid, condition_estimate=cond)


def _scattering(pieces: _BlockPieces, strengths, gamma: float) -> tuple[np.ndarray, float]:
    """The dense ``S = gamma * M^-1 - I`` of ``pieces`` at ``strengths``, and its condition.

    The blocks go through the threshold gate ``_invert_blocks``; entries
    off the blocks are exact zeros before the identity is taken off.  Each
    group that ``pieces.written`` holds writes ``gamma * [Z W]`` on the
    rows of its conjugate slots and its mirror, ``gamma * conj([Z W])``, on
    the swapped rows and columns (slot ``^ 1``), through that one index: a
    block holding both slots of each of its modes writes all its rows, and
    each block of a mirror pair the rows the other lacks, so every entry of
    every block is written once.
    """
    inverses, cond = _invert_blocks(pieces, strengths, gamma)
    size = len(pieces.diagonal)
    s = np.zeros((size, size), dtype=complex)
    # the mirror is gamma times the conjugate, not the conjugate of the
    # product: a zero imaginary part of a positive entry then stays +0
    for k, at, mirror in pieces.written:
        s[at] = gamma * inverses[k]
        s[mirror] = gamma * inverses[k].conj()
    s[np.diag_indices_from(s)] -= 1.0
    return s, cond


@dataclass(frozen=True)
class _BlockPieces:
    """The blocks of ``M`` as an index map onto the tone strengths.

    The tone at offset ``m`` owns the entries joining ``a_p`` and ``a*_q``
    with ``p + q = m``: ``c_t = u * s_t`` in amplitude rows, for tone
    strengths ``s_t``, ``t < T``, and ``u = -i * resonance``, the entry at
    strength 1; the conjugate rows hold their conjugates.  ``diagonal``
    holds the comb's ``+-i*detuning`` once, by slot.  For block group
    ``k`` (as in ``blocks``, amplitude slots first), ``slot[k]`` indexes
    each entry of its ``K`` quarter, amplitude rows by conjugate columns,
    into ``(c_0, ..., c_T-1, 0)``, the last where no tone couples.  That
    gather, with ``diagonal[blocks[k]] + gamma/2`` split at the amplitude
    count, is the ``_Quarters`` of the assembled stack for port coupling
    ``gamma``, bit for bit but for the sign of a zero.  ``reach[t, p]`` tells
    whether the partner ``m_t - p`` of mode ``p`` (in ascending mode order)
    is on the grid, that is, whether tone ``t`` puts an entry in the
    columns of mode ``p``; ``discs`` sums them.

    ``written`` holds where the conjugate rows ``[Z W]`` of each group's
    inverses, and their mirror, go in ``S``.  ``locator`` names the group
    and row of each slot, ``(2n, 2)``; it is ``None`` on the pieces of one
    block that ``block_of`` returns.  The ``blocks``, ``slot``, ``locator``
    and ``reach`` maps are shared by every call on the same mode count and
    offsets, whatever its grid or resonance, so they are read-only, as is
    each call's ``diagonal``.
    Each ``slot`` map is stored in ``np.min_scalar_type(T)``, one byte per
    entry below 256 tones: the map of every group of a 1,001-mode comb
    stays small beside the stacks a call gathers from it.
    """

    blocks: tuple[np.ndarray, ...]
    diagonal: np.ndarray
    slot: tuple[np.ndarray, ...]
    resonance: float
    locator: np.ndarray | None
    reach: np.ndarray

    def discs(self, strengths, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """Per mode, the 1-norm and the disc margin of both its columns of ``M``.

        In the amplitude column of mode ``p``, and in its conjugate column
        alike, each tone ``t`` whose partner ``m_t - p`` is on the grid puts
        one entry of modulus ``resonance * |s_t|``; with ``c_p`` their sum,
        both columns have the 1-norm ``|gamma/2 + i*detuning_p| + c_p`` and
        the margin ``Re B_jj - sum_{i != j} |B_ij| = gamma/2 - c_p``.  That
        is ``O(n * T)``, with no stack gathered.
        """
        magnitudes = np.abs(np.asarray(strengths, dtype=complex))
        off_diagonal = self.resonance * (magnitudes @ self.reach)
        diagonal = np.hypot(gamma / 2.0, self.diagonal[0::2].imag)
        return diagonal + off_diagonal, gamma / 2.0 - off_diagonal

    @functools.cached_property
    def written(self) -> tuple:
        """Where each group's conjugate rows ``[Z W]`` and their mirror go in ``S``.

        Holds ``k, at, mirror`` for every group ``k`` with a conjugate slot:
        ``at`` indexes its ``[Z W]``, ``(count, h_c, size)``, the rows of
        its conjugate slots by the columns of its slots, and ``mirror`` the
        same entries on the swapped slots (``^ 1``).  A group with no
        conjugate slot has no such rows; its mirror group's rows hold its
        blocks' inverses.  Built once per pieces, since a fit reads it at
        every cell.
        """
        index = []
        for k, (block, slot) in enumerate(zip(self.blocks, self.slot)):
            if slot.shape[-1]:
                rows, columns = block[:, slot.shape[-2] :, np.newaxis], block[:, np.newaxis, :]
                index.append((k, (rows, columns), (rows ^ 1, columns ^ 1)))
        return tuple(index)

    def stacks(self, strengths, gamma: float) -> list[_Quarters]:
        """Every group's ``_Quarters``; leading axes of ``strengths`` lead its ``K``."""
        s = np.asarray(strengths, dtype=complex)
        u = complex(0.0, -self.resonance)
        entries = np.concatenate((u * s, np.zeros(s.shape[:-1] + (1,))), axis=-1)
        stacks = []
        for block, slot in zip(self.blocks, self.slot):
            diagonal = self.diagonal[block] + gamma / 2.0
            h = slot.shape[-2]
            stacks.append(_Quarters(entries[..., slot], diagonal[:, :h], diagonal[:, h:]))
        return stacks

    def block_of(self, slot: int) -> _BlockPieces:
        """The pieces of the one block holding ``slot``."""
        k, member = self.locator[slot]
        return _BlockPieces(
            (self.blocks[k][member : member + 1],),
            self.diagonal,
            (self.slot[k][member : member + 1],),
            self.resonance,
            None,
            self.reach,
        )


def _block_pieces(grid: ModeGrid, params: DeviceParams, scheme: PumpScheme) -> _BlockPieces:
    """The ``_BlockPieces`` of the system of ``scheme`` on ``grid`` and ``params``.

    The band check runs on every call, so a warning names each caller.
    The block partition, slot maps, locator and reach come from ``_split``,
    memoized on the mode count and the offsets; the ``+-i*detuning``
    diagonal of the grid and the resonance of ``params`` is built once per
    call, and each stack reads its blocks' entries from it.  Every array of
    the pieces is read-only.
    """
    check_band(grid, params)
    blocks, slot, locator, reach = _split(grid.half_span, scheme.offsets)
    diagonal = _diagonal(grid, params.resonance_frequency)
    diagonal.flags.writeable = False
    return _BlockPieces(blocks, diagonal, slot, params.resonance_frequency, locator, reach)


@functools.lru_cache(maxsize=1)
def _split(half_span: int, offsets: tuple[int, ...]) -> tuple:
    """The read-only ``blocks``, ``slot``, ``locator`` and ``reach`` of ``_BlockPieces``.

    The tone at offset ``m`` joins ``a_p`` and ``a*_q`` at the reflection
    ``q = m + 2J - p`` of each position ``p`` where ``q`` is on the grid:
    those ``O(n * T)`` pairs are the edges of the block partition, and
    they are every coupled entry of every ``K``, so each group's map is
    scattered from them, ``t`` at ``(a_p, a*_q)``, into a map filled with
    the no-tone slot ``T``.  The offsets are pairwise distinct, so no entry
    is written twice.  A tone is in the partition whatever its amplitude,
    and no map holds a frequency, so a split made once serves every
    strength, phase, port coupling, resonance and comb of
    ``2 * half_span + 1`` modes.
    """
    tones, span, n_modes = len(offsets), 2 * half_span, 2 * half_span + 1
    index = np.min_scalar_type(tones)
    near = [t for t, m in enumerate(offsets) if abs(m) <= span]
    # each tone's reflection q = m + 2J - p of every position p
    partner = np.array([offsets[t] + span for t in near], dtype=np.intp)[:, np.newaxis]
    partner = partner - np.arange(n_modes)
    on = (partner >= 0) & (partner < n_modes)
    reach = np.zeros((tones, n_modes), dtype=bool)
    reach[near] = on
    tone, p = np.nonzero(on)
    amplitude, conjugate = 2 * p, 2 * partner[on] + 1
    blocks = _block_partition(2 * n_modes, amplitude, conjugate)

    # where each slot sits: its group, its row and its place in the row; a
    # conjugate slot's column of K is its place less the amplitude count
    locator = np.empty((2 * n_modes, 2), dtype=np.intp)
    place = np.empty(2 * n_modes, dtype=np.intp)
    for k, block in enumerate(blocks):
        locator[block, 0] = k
        locator[block, 1] = np.arange(len(block))[:, np.newaxis]
        place[block] = np.arange(block.shape[1])
    values = np.array(near, dtype=index)[tone]
    group, member = locator[amplitude].T
    slots = []
    for k, block in enumerate(blocks):
        h = int(np.count_nonzero(block[0] % 2 == 0))
        slot = np.full((len(block), h, block.shape[1] - h), tones, dtype=index)
        mine = group == k
        slot[member[mine], place[amplitude[mine]], place[conjugate[mine]] - h] = values[mine]
        slots.append(slot)
    for array in (*blocks, *slots, locator, reach):
        array.flags.writeable = False
    return blocks, tuple(slots), locator, reach


def simulate_scattering(
    grid: ModeGrid, params: DeviceParams, scheme: PumpScheme
) -> ScatteringMatrix:
    """Split the system into block pieces, stack them at the tone strengths, and invert.

    These are the calls a phase search makes for one gauge class: the
    dense ``M`` is never built, and the one threshold gate
    ``_invert_blocks`` decides stability.  Values and condition number
    agree with those of the dense ``scattering_matrix`` on the assembled
    system to rounding, and the two reach the same verdict but at the
    threshold itself.
    """
    pieces = _block_pieces(grid, params, scheme)
    strengths = [tone.strength for tone in scheme.tones]
    s, cond = _scattering(pieces, strengths, params.port_coupling)
    return ScatteringMatrix(_Sealed(s), grid, condition_estimate=cond)


def pump_off_scattering(grid: ModeGrid, params: DeviceParams) -> ScatteringMatrix:
    """Scattering with all pumps off: diagonal all-pass reflection, in closed form.

    Each slot reflects ``gamma / z - 1 = conj(z) / z`` for its diagonal
    ``z = gamma/2 +- i*detuning``.  A system with no pump is stable by
    construction, so nothing is inverted; the condition is ``max|z| / min|z|``.
    """
    z = _diagonal(grid, params.resonance_frequency) + params.port_coupling / 2.0
    cond = float(np.abs(z).max() / np.abs(z).min())
    return ScatteringMatrix(_Sealed(np.diag(z.conj() / z)), grid, condition_estimate=cond)


def magnitude_db(values: np.ndarray) -> np.ndarray:
    """20*log10 magnitude with the clamp floor applied, in one float buffer."""
    return _decibels(np.asarray(np.abs(values), dtype=float))


def _decibels(db: np.ndarray) -> np.ndarray:
    """Turn a buffer of magnitudes into clamped dB in place, and return it."""
    np.maximum(db, _DB_FLOOR_AMPLITUDE, out=db)
    np.log10(db, out=db)
    db *= 20.0
    return db[()]


def normalize_pump_off(s_on: ScatteringMatrix, s_off: ScatteringMatrix) -> np.ndarray:
    """Express scattering magnitudes in dB relative to the pump-off case.

    Entry ``(i, j)`` becomes ``20*log10(|S_on[i, j]| / |S_off[j, j]|)``:
    each column is referenced to the pump-off reflection magnitude of the
    driven mode.  In the lossless single-port model the reference is
    exactly 1 and the result equals the raw dB magnitude.
    """
    if s_on.grid != s_off.grid:
        raise InternalConsistencyError("pump-on and pump-off matrices use different grids")
    ref = np.abs(np.diag(s_off.matrix))
    if np.any(ref < 1e-12):
        raise DegenerateNormalizationError(
            "pump-off reflection vanishes on some mode; cannot normalize"
        )
    magnitudes = np.abs(s_on.matrix)
    magnitudes /= ref
    return _decibels(magnitudes)


def scale_for_ratio(ratio: float, params: DeviceParams) -> float:
    """Tone amplitude giving the dimensionless strength ratio.

    ``ratio`` is the identifiable combination (resonance frequency times
    complex-strength magnitude over port coupling); the returned amplitude
    is twice the complex-strength magnitude.
    """
    if ratio < 0:
        raise InvalidArgumentError("ratio must be non-negative")
    return 2.0 * ratio * params.port_coupling / params.resonance_frequency
