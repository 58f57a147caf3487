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
divides by it; ``pump_off_scattering`` and ``normalize_pump_off`` keep
the explicit reference for callers who want it.  A self-mirror block,
one holding both slots of every mode it touches, is its own particle-hole
mirror: it is inverted through its half-size Schur complement, and the
symmetry supplies two of the four quarters of its inverse.  Groups
holding mirror pairs go to ``np.linalg.inv``.

The model holds only below the parametric oscillation threshold, where
every eigenvalue of ``M`` has a positive real part (the Hurwitz condition,
Gardiner & Collett, PRA 31, 3761, 1985); ``_invert_blocks`` is the one
gate that decides it, and the only code that inverts block stacks.  Its
first stage, the column Gershgorin discs, also bounds the condition
(Varah, Linear Algebra Appl. 11, 3, 1975), which lets a phase sweep clear
the gate once for all its steps.  Every simulation, sweep, fit and
search splits the system, by mode sum, into an index map onto the tone
strengths, and restacks it at every point.  The split depends only on the
mode count and the tone offsets, so it is made once per comb and offsets:
the package keeps a read-only split of the last comb, and concurrent calls
may share it; each call gathers its own device's detuning onto it.  The
dense chain ``resolve_couplings`` -> ``assemble_system`` ->
``scattering_matrix`` serves hand-made coupling sets and the tests as an
independent reference; no run path calls it.  Otherwise pure functions on
immutable inputs.
"""

from __future__ import annotations

import enum
import functools
import itertools
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
    array without a copy; no public call makes one.  ``eig_floor``, when
    given, is a lower bound that the producer proved for the smallest
    eigenvalue of the (symmetric) array; ``CovarianceMatrix`` accepts it in
    place of a factorization.
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


class Normalization(enum.Enum):
    RAW = "raw"
    PUMP_OFF_RELATIVE = "pump_off_relative"


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

    ``blocks`` partitions the ``2n`` slots into the independent blocks of
    ``matrix``: one ``(count, size)`` integer array per distinct block
    size, in ascending size.  Each row lists the slots of one block in
    ascending order, rows are ordered by their first slot, and no nonzero
    of ``matrix`` joins two blocks.
    """

    matrix: np.ndarray
    k_coupling: float
    grid: ModeGrid
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix, complex))
        blocks = tuple(_frozen(b, np.intp) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)


@dataclass(frozen=True)
class ScatteringMatrix:
    """Input-output scattering matrix in the interleaved (a, a*) basis."""

    matrix: np.ndarray
    grid: ModeGrid
    normalization: Normalization = Normalization.RAW
    condition_estimate: float = float("nan")

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix, complex))

    @property
    def n_modes(self) -> int:
        return self.grid.n_modes


def particle_hole_defect(matrix: np.ndarray) -> float:
    """Max-norm violation of ``M = Sx conj(M) Sx``.

    ``Sx`` exchanges slots 2k and 2k+1, so each entry is compared with the
    conjugate of its mirror in the opposite strided quarter.  Since
    ``|a - conj(b)| = |b - conj(a)|``, two of the four quarters hold every
    value.
    """
    m = np.asarray(matrix)
    diagonal = np.abs(m[0::2, 0::2] - np.conj(m[1::2, 1::2]))
    off_diagonal = np.abs(m[0::2, 1::2] - np.conj(m[1::2, 0::2]))
    return float(np.maximum(diagonal.max(), off_diagonal.max()))


def _block_partition(size: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Connected components of the slot graph with edges ``u[k] -- v[k]``.

    Every slot points at a smaller-or-equal slot of its component; each
    round hooks the root of every edge end onto the smaller of the two
    roots and then jumps pointers until every slot points at its root, so
    the final root of a component is its smallest slot.  Returns the
    components grouped by size as described on ``SystemMatrix.blocks``.
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
    order = np.argsort(root, kind="stable")
    _, starts, sizes = np.unique(root[order], return_index=True, return_counts=True)
    # the distinct sizes, ascending; a plain np.unique would import numpy.ma
    distinct = np.flatnonzero(np.bincount(sizes))
    return tuple(order[starts[sizes == s][:, np.newaxis] + np.arange(s)] for s in distinct)


def _diagonal(grid: ModeGrid, resonance: float) -> np.ndarray:
    """The ``+-i*detuning`` of every slot: the diagonal of ``M`` less ``gamma/2``."""
    half = grid.half_span
    detuning = resonance - (grid.center_frequency + np.arange(-half, half + 1) * grid.spacing)
    diagonal = np.empty(2 * grid.n_modes, dtype=complex)
    diagonal[0::2] = 1j * detuning
    diagonal[1::2] = -1j * detuning
    return diagonal


def assemble_system(
    grid: ModeGrid, params: DeviceParams, couplings: CouplingSet
) -> SystemMatrix:
    """Build the harmonic-balance coefficient matrix and its block partition.

    Each mode contributes a 2x2 diagonal block with detuning and damping;
    each coupling entry populates the amplitude-to-conjugate positions of
    its pair (both orientations) and their conjugate mirrors.  The same
    slot pairs ``a_i -- a*_j`` and ``a_j -- a*_i`` are the edges whose
    connected components make the independent blocks.  A coupling
    referencing an index off the grid is an internal inconsistency, not a
    user error.
    """
    n = grid.n_modes
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

    blocks = _block_partition(2 * n, np.concatenate((a_i, a_j)), np.concatenate((a_j, a_i)) + 1)
    return SystemMatrix(_Sealed(m), float(np.sqrt(gamma)), grid, blocks)


def _gain(gamma: float) -> float:
    """Input-output factor ``gamma`` as applied: the square of ``sqrt(gamma)``.

    ``SystemMatrix`` stores the coupling ``sqrt(gamma)``; every path that
    turns block inverses into scattering entries squares that stored value,
    so they all agree bit for bit.
    """
    return float(np.sqrt(gamma)) ** 2


def _block_index(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays gathering a ``(count, size)`` block group."""
    return block[:, :, np.newaxis], block[:, np.newaxis, :]


def _column_margins(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of the last two axes: ``sum_i |B_ij|`` and ``Re B_jj - sum_{i != j} |B_ij|``."""
    columns = np.abs(stack).sum(axis=-2)
    diagonal = stack.diagonal(0, -2, -1)
    return columns, diagonal.real - (columns - np.abs(diagonal))


def _dominance_bound(stacks) -> float:
    """Twice ``max ||B||_1 / min margin`` over every block, or +inf if a margin is <= 0.

    Positive column margins put every eigenvalue in the right half-plane
    (column Gershgorin discs), and Varah's bound applied to ``B^T`` gives
    ``||B^-1||_1 <= 1 / min margin``, so this bounds the 1-norm condition;
    the factor 2 covers rounding.  A bound within ``CONDITION_CAP``
    certifies that ``_invert_blocks`` would pass; ``phase_sweep`` takes it
    once, at its base phases, to clear the gate for every step.  The stacks
    are read one at a time, so an iterator need hold only one of them.
    """
    norm, margin = 0.0, math.inf
    for stack in stacks:
        columns, margins = _column_margins(stack)
        norm = max(norm, float(columns.max()))
        margin = float(np.minimum(margin, margins.min()))
    return 2.0 * norm / margin if margin > 0 else math.inf


def _spectral_floor(stack: np.ndarray, block: np.ndarray) -> float:
    """Least real part of the spectrum of the ``stack`` blocks on the slots ``block``.

    A block's mirror, on the swapped slots of its modes, is its conjugate
    and has the conjugate spectrum, so of each pair only the block that
    starts at an amplitude slot is decomposed; a block holding both slots
    of a mode is its own mirror, and starts at its amplitude slot.
    """
    return np.linalg.eigvals(stack[block[:, 0] % 2 == 0]).real.min()


# the amplitude and conjugate slots of a block on interleaved slots (a_p, a*_p)
_INTERLEAVED = (slice(0, None, 2), slice(1, None, 2))


def _schur_complement(stack: np.ndarray, amplitude, conjugate) -> tuple[np.ndarray, np.ndarray]:
    """``D_c + Y K`` and ``Y = -L D^-1`` of a stack read as ``[[D, K], [L, D_c]]``.

    ``amplitude`` and ``conjugate`` are the slices of the last two axes
    that hold a block's amplitude and conjugate slots.  ``D``, on the
    amplitude slots, is diagonal, since a tone joins an amplitude only to a
    conjugate; the first result is the Schur complement of ``D``.  A
    self-mirror block on ``_INTERLEAVED`` slots, one holding both slots of
    each of its modes, is ``[[D, K], [conj K, conj D]]``.
    """
    d = stack[:, amplitude, amplitude].diagonal(0, 1, 2)
    k = np.ascontiguousarray(stack[:, amplitude, conjugate])
    y = stack[:, conjugate, amplitude] / -d[:, np.newaxis, :]
    return stack[:, conjugate, conjugate] + y @ k, y


def _self_mirror_inverse(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The inverses of self-mirror blocks from ``W``, the inverse of their Schur complement.

    With ``Z = W Y`` the inverse of ``[[D, K], [conj K, conj D]]`` is
    ``[[conj W, conj Z], [Z, W]]``: particle-hole symmetry, which the
    inverse inherits, gives the two quarters on amplitude rows.
    """
    amplitude, conjugate = _INTERLEAVED
    z = w @ y
    inverse = np.empty((len(w), 2 * w.shape[1], 2 * w.shape[1]), dtype=w.dtype)
    inverse[:, conjugate, conjugate] = w
    inverse[:, conjugate, amplitude] = z
    inverse[:, amplitude, amplitude] = w.conj()
    inverse[:, amplitude, conjugate] = z.conj()
    return inverse


def _invert_blocks(stacks, blocks, lowest=None) -> tuple[list[np.ndarray], float]:
    """Invert ``(count, size, size)`` block stacks behind the threshold gate.

    ``stacks[k]`` holds the blocks on the slots ``blocks[k]``, a group as in
    ``SystemMatrix.blocks``.  First the gate: every block must be stable,
    every eigenvalue with a positive real part, or this raises naming the
    smallest real part.  A group passes when each of its blocks lies inside
    its column Gershgorin discs (``Re B_jj > sum_{i != j} |B_ij|``), or
    else when the Hermitian parts of the blocks the discs leave open all
    have a Cholesky factor, which puts their numerical ranges in the right
    half-plane.  One failed factor sends the group to the eigenvalues of
    one block of each open mirror pair (``_spectral_floor``; a block is open
    exactly when its mirror is), or to ``lowest(k)``, the caller's floor
    over at least the blocks of group ``k``.

    Then the inverses.  A group of self-mirror blocks, each holding both
    slots of every one of its modes, goes through the half-size Schur
    complement of its blocks (``_schur_complement``,
    ``_self_mirror_inverse``); any other group, one holding a mirror pair,
    goes whole through ``np.linalg.inv``, since splitting a mixed group
    saves little on large blocks and loses on small ones.  The Schur path
    reads only the amplitude rows and relies on two facts of every stack,
    which ``_block_pieces`` and ``assemble_system`` give by construction:
    the entries joining two amplitude slots are zero off the diagonal, and
    the stack is exactly particle-hole symmetric (``M = Sx conj(M) Sx``).
    ``phase_sweep`` relies on the first fact too: it solves its driven
    column through the same Schur complement, on a block of either kind,
    with the amplitude slots of the block read as one diagonal quarter.

    Returns the inverses and the exact 1-norm condition number
    ``max_b ||B_b||_1 * max_b ||B_b^-1||_1`` of the block-diagonal matrix
    they form (every column of it, or of its inverse, lies inside one
    block).  A condition number that is not finite or exceeds
    ``CONDITION_CAP`` raises too.
    """
    norm = 0.0
    for k, stack in enumerate(stacks):
        columns, margins = _column_margins(stack)
        norm = np.maximum(norm, columns.max())
        is_open = (margins <= 0).any(axis=1)
        open_blocks = stack[is_open]
        if len(open_blocks) == 0:
            continue
        try:
            np.linalg.cholesky(0.5 * (open_blocks + open_blocks.conj().swapaxes(1, 2)))
        except np.linalg.LinAlgError:
            floor = (
                _spectral_floor(open_blocks, blocks[k][is_open]) if lowest is None else lowest(k)
            )
            if not floor > 0:
                raise AboveThresholdError(
                    "parametric oscillation threshold reached: the system is dynamically "
                    f"unstable, with an eigenvalue of real part {floor:.6e} <= 0"
                ) from None
    inverses = []
    inverse_norm = 0.0
    try:
        for stack, block in zip(stacks, blocks):
            # self-mirror exactly when the first two slots are 2p and 2p + 1:
            # the block's mirror then shares a slot with it, so is the block
            if block.shape[1] > 1 and (block[:, 1] == (block[:, 0] | 1)).all():
                schur, y = _schur_complement(stack, *_INTERLEAVED)
                inverse = _self_mirror_inverse(np.linalg.inv(schur), y)
            else:
                inverse = np.linalg.inv(stack)
            inverses.append(inverse)
            inverse_norm = np.maximum(inverse_norm, np.abs(inverse).sum(axis=1).max())
    except np.linalg.LinAlgError:
        cond = np.inf
    else:
        cond = float(norm * inverse_norm)
    if not cond <= CONDITION_CAP:
        raise AboveThresholdError(
            "parametric oscillation threshold reached: system condition number "
            f"{cond:.3e} exceeds cap {CONDITION_CAP:.1e}",
            condition_estimate=cond,
        )
    return inverses, cond


def scattering_matrix(system: SystemMatrix) -> ScatteringMatrix:
    """Invert the harmonic-balance system into a scattering matrix.

    The blocks of each size are gathered into one stack and inverted in a
    single batched call; the inverse of the whole system is block-diagonal
    with exact zeros between blocks.  A dynamically unstable system, at or
    past the parametric oscillation threshold, raises ``AboveThresholdError``
    before anything is inverted.  The reported condition estimate is the
    exact 1-norm condition number ``||M||_1 * max_b ||B_b^-1||_1``, read off
    the block inverses; one above ``CONDITION_CAP`` raises too.

    With the coupling matrix a constant ``sqrt(gamma)`` on the diagonal,
    the input-output relation reduces to ``S = gamma * M^-1 - I`` for the
    stored coefficient matrix (the conventional factor of i is absorbed in
    the stored rows).
    """
    m = system.matrix
    stacks = [m[_block_index(block)] for block in system.blocks]
    s, cond = _scattering(stacks, system.blocks, system.k_coupling**2)
    return ScatteringMatrix(_Sealed(s), system.grid, Normalization.RAW, condition_estimate=cond)


def _scattering(stacks, blocks, gain: float) -> tuple[np.ndarray, float]:
    """The dense ``S = gain * M^-1 - I`` of the block groups ``blocks``, and its condition.

    ``stacks`` go through the threshold gate ``_invert_blocks``; entries
    off the blocks are exact zeros before the identity is taken off.
    """
    inverses, cond = _invert_blocks(stacks, blocks)
    size = sum(block.size for block in blocks)
    s = np.zeros((size, size), dtype=complex)
    for block, inverse in zip(blocks, inverses):
        s[_block_index(block)] = gain * inverse
    s[np.diag_indices_from(s)] -= 1.0
    return s, cond


@dataclass(frozen=True)
class _BlockPieces:
    """The blocks of ``M`` as an index map onto the tone strengths.

    The tone at offset ``m`` owns the entries joining ``a_p`` and ``a*_q``
    with ``p + q = m``: ``c_t = u * s_t`` in amplitude rows and
    ``conj(u) * conj(s_t)`` in conjugate rows, for tone strengths ``s_t``,
    ``t < T``, and ``u = -i * resonance``, the entry at strength 1.  For
    block group ``k`` (as in ``blocks``), ``detuning[k]`` holds every
    block's ``+-i*detuning`` diagonal and ``slot[k]`` indexes each entry
    into ``(c_0, ..., c_T-1, conj(c_0), ..., conj(c_T-1), 0)``, the last
    where no tone couples.  That gather plus ``diag(detuning[k] + gamma/2)``
    is the assembled stack for port coupling ``gamma``, bit for bit but for
    the sign of a zero.

    The ``blocks`` and ``slot`` maps are shared by every call on the same
    mode count and offsets, whatever its grid or resonance, so they are
    read-only, as is each call's ``detuning``.  Each ``slot`` map is stored
    in ``np.min_scalar_type(2 * T)``, one byte per entry below 128 tones:
    the map of every group of a 1,001-mode comb stays small beside the
    stacks a call gathers from it.
    """

    blocks: tuple[np.ndarray, ...]
    detuning: tuple[np.ndarray, ...]
    slot: tuple[np.ndarray, ...]
    resonance: float

    def stacks(self, strengths, gamma: float) -> list[np.ndarray]:
        """Every group's stack of ``M``; leading axes of ``strengths`` lead."""
        return list(self._gather(strengths, gamma, zip(self.detuning, self.slot)))

    def each_block(self, strengths, gamma: float):
        """Every block of ``stacks``, in its order, built only when it is asked for."""
        pieces = zip(itertools.chain(*self.detuning), itertools.chain(*self.slot))
        return self._gather(strengths, gamma, pieces)

    def _gather(self, strengths, gamma: float, pieces):
        """The stack of each ``(detuning, slot)`` of ``pieces``, one at a time."""
        s = np.asarray(strengths, dtype=complex)
        u = complex(0.0, -self.resonance)
        zero = np.zeros(s.shape[:-1] + (1,))
        entries = np.concatenate((u * s, u.conjugate() * s.conj(), zero), axis=-1)
        for detuning, slot in pieces:
            stack = entries[..., slot]
            diagonal = np.arange(slot.shape[-1])
            stack[..., diagonal, diagonal] += detuning + gamma / 2.0
            yield stack

    def block_of(self, slot: int) -> _BlockPieces:
        """The pieces of the one block holding ``slot``, its amplitude slots first."""
        k, member = next(
            (k, at[0]) for k, block in enumerate(self.blocks) for at in np.argwhere(block == slot)
        )
        parity = np.argsort(self.blocks[k][member] % 2, kind="stable")
        return _BlockPieces(
            (self.blocks[k][member, parity][np.newaxis],),
            (self.detuning[k][member, parity][np.newaxis],),
            (self.slot[k][member][parity[:, np.newaxis], parity][np.newaxis],),
            self.resonance,
        )


def _block_pieces(grid: ModeGrid, params: DeviceParams, scheme: PumpScheme) -> _BlockPieces:
    """The ``_BlockPieces`` of the system of ``scheme`` on ``grid`` and ``params``.

    The band check runs on every call, so a warning names each caller.
    The block partition and slot maps come from ``_split``, memoized on the
    mode count and the offsets; the ``+-i*detuning`` diagonal of the grid
    and the resonance of ``params`` is built once per call and gathered
    onto the blocks.  Every array of the pieces is read-only.
    """
    check_band(grid, params)
    blocks, slot = _split(grid.half_span, scheme.offsets)
    diagonal = _diagonal(grid, params.resonance_frequency)
    detuning = tuple(diagonal[block] for block in blocks)
    for array in detuning:
        array.flags.writeable = False
    return _BlockPieces(blocks, detuning, slot, params.resonance_frequency)


@functools.lru_cache(maxsize=1)
def _split(half_span: int, offsets: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """The read-only ``blocks`` and ``slot`` maps of ``_BlockPieces``, by mode sum alone.

    One lookup by mode sum names the tone of every mode pair: its pairs
    ``a_p -- a*_q`` are the edges of the block partition, and an entry
    takes its tone's slot where its row and column parities differ.  A
    tone is in the partition whatever its amplitude, and no map holds a
    frequency, so a split made once serves every strength, phase, port
    coupling, resonance and comb of ``2 * half_span + 1`` modes.
    """
    tones, reach, n_modes = len(offsets), 2 * half_span, 2 * half_span + 1
    index = np.min_scalar_type(2 * tones)
    tone_of = np.full(2 * reach + 1, tones, dtype=index)  # by mode sum + reach; T for none
    for t, m in enumerate(offsets):
        if abs(m) <= reach:
            tone_of[m + reach] = t
    position = np.arange(n_modes)
    p, q = np.nonzero(tone_of[position[:, np.newaxis] + position] < tones)
    blocks = _block_partition(2 * n_modes, 2 * p, 2 * q + 1)
    slots = []
    for block in blocks:
        rows, cols = _block_index(block)
        tone = tone_of[rows // 2 + cols // 2]
        coupled = (rows % 2 != cols % 2) & (tone < tones)
        tone += (tones * (rows % 2)).astype(index)
        slots.append(np.where(coupled, tone, index.type(2 * tones)))
    for array in (*blocks, *slots):
        array.flags.writeable = False
    return blocks, tuple(slots)


def simulate_scattering(
    grid: ModeGrid, params: DeviceParams, scheme: PumpScheme
) -> ScatteringMatrix:
    """Split the system into block pieces, stack them at the tone strengths, and invert.

    These are the calls a phase search makes for one gauge class: the
    dense ``M`` is never built, and the one threshold gate
    ``_invert_blocks`` decides stability.  Values and condition number are
    those of ``scattering_matrix`` on the assembled system, bit for bit but
    for the sign of a zero where a tone has amplitude 0.
    """
    pieces = _block_pieces(grid, params, scheme)
    gamma = params.port_coupling
    stacks = pieces.stacks([tone.strength for tone in scheme.tones], gamma)
    s, cond = _scattering(stacks, pieces.blocks, _gain(gamma))
    return ScatteringMatrix(_Sealed(s), grid, Normalization.RAW, condition_estimate=cond)


def pump_off_scattering(grid: ModeGrid, params: DeviceParams) -> ScatteringMatrix:
    """Scattering with all pumps off: diagonal all-pass reflection.

    Each slot reflects ``gamma / (gamma/2 +- i*detuning) - 1``, of modulus 1.
    With no pump every slot is its own 1x1 block, so the diagonal goes
    through ``_scattering`` as one group of them; values and condition
    number are those of ``scattering_matrix`` on the assembled pump-off
    system, bit for bit.  No run path calls this: every one takes it as 1.
    """
    diagonal = _diagonal(grid, params.resonance_frequency) + params.port_coupling / 2.0
    slots = np.arange(len(diagonal))[:, np.newaxis]
    stacks = [diagonal[:, np.newaxis, np.newaxis]]
    s, cond = _scattering(stacks, (slots,), _gain(params.port_coupling))
    return ScatteringMatrix(_Sealed(s), grid, Normalization.RAW, condition_estimate=cond)


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


def pump_off_normalized_db(
    grid: ModeGrid, params: DeviceParams, scheme: PumpScheme
) -> np.ndarray:
    """Simulate a scheme and give its magnitudes in dB relative to the pump-off reflection.

    The reference is the all-pass reflection, of modulus 1 in closed form, so
    this is the dB magnitude of the simulated matrix; nothing is divided.
    """
    return magnitude_db(simulate_scattering(grid, params, scheme).matrix)


def scale_for_ratio(ratio: float, params: DeviceParams) -> float:
    """Tone amplitude giving the dimensionless strength ratio.

    ``ratio`` is the identifiable combination (resonance frequency times
    complex-strength magnitude over port coupling); the returned amplitude
    is twice the complex-strength magnitude.
    """
    if ratio < 0:
        raise InvalidArgumentError("ratio must be non-negative")
    return 2.0 * ratio * params.port_coupling / params.resonance_frequency
