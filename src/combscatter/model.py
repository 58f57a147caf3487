"""Mode basis, device parameters, pump schemes, and coupling resolution.

The measurement basis is a frequency comb of ``n = 2J + 1`` modes spaced by
``spacing`` and centered at half the reference pump frequency.  Pump tones sit
near twice the center frequency, offset by an integer number of grid spacings,
so every frequency-matching condition between modes and pumps reduces to
integer arithmetic on mode indices.

All types are immutable after construction and safe to share across threads;
the operations in this module are pure functions.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field

from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi

# Modes further than this many linewidths from resonance trigger a warning:
# the frequency-independent coupling assumption degrades out there.
BAND_LINEWIDTHS = 3.0

# The largest comb: 1001 modes, whose dense 2n x 2n complex scattering
# matrix takes 64 MB.  Larger grids are rejected before anything is allocated.
MAX_HALF_SPAN = 500

# The smallest run sizes the analyses accept; the config validator, the
# sweep, the Monte Carlo draw, the fit and the phase search all read these.
MIN_SWEEP_STEPS = 8
MIN_SAMPLES = 2
MIN_GRID_POINTS = 4

# The largest run sizes of the analyses that allocate in proportion to
# them: a sweep's phases and tracks, a fit's square surface with its memo of
# evaluated cells, and the gauge-class keys (about 170 B each) a phase search
# keeps, one per class it evaluates on the block pieces.  Larger values are
# rejected before anything is allocated.
MAX_SWEEP_STEPS = 10_000
MAX_FIT_GRID_POINTS = 500
MAX_PHASE_CLASSES = 1 << 16


class BandMismatchWarning(UserWarning):
    """The mode comb extends beyond a few linewidths of the resonance."""


@dataclass(frozen=True)
class DeviceParams:
    """Oscillator parameters: resonance and transmission-line coupling.

    Parameters
    ----------
    resonance_frequency : float
        Angular resonance frequency of the oscillator, rad/s.
    port_coupling : float
        Effective coupling rate to the transmission line, rad/s.  For a
        single over-coupled port with negligible internal loss this equals
        the measured linewidth.
    """

    resonance_frequency: float
    port_coupling: float

    def __post_init__(self):
        if not (self.resonance_frequency > 0 and math.isfinite(self.resonance_frequency)):
            raise InvalidArgumentError("resonance_frequency must be positive and finite")
        if not (self.port_coupling > 0 and math.isfinite(self.port_coupling)):
            raise InvalidArgumentError("port_coupling must be positive and finite")


@dataclass(frozen=True)
class ModeGrid:
    """Orthogonal frequency comb of ``2*half_span + 1`` modes.

    Mode index ``j`` runs over ``-half_span .. +half_span``; index 0 sits at
    ``center_frequency`` and the frequency of mode ``j`` is always computed
    as ``center_frequency + j*spacing`` (never accumulated).  The spacing
    is the inverse of the measurement window, which makes the comb modes
    mutually orthogonal over that window.
    """

    center_frequency: float
    spacing: float
    half_span: int

    def __post_init__(self):
        if not math.isfinite(self.center_frequency):
            raise InvalidArgumentError("center_frequency must be finite")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise InvalidArgumentError("spacing must be positive and finite")
        if not (0 <= self.half_span <= MAX_HALF_SPAN and self.half_span == int(self.half_span)):
            raise InvalidArgumentError(
                f"half_span must be an integer in 0..{MAX_HALF_SPAN}, got {self.half_span!r}"
            )
        object.__setattr__(self, "half_span", int(self.half_span))

    @property
    def n_modes(self) -> int:
        return 2 * self.half_span + 1

    @property
    def indices(self) -> range:
        return range(-self.half_span, self.half_span + 1)

    def contains(self, index: int) -> bool:
        return -self.half_span <= index <= self.half_span

    def frequency(self, index: int) -> float:
        """Angular frequency of mode ``index``."""
        if not self.contains(index):
            raise InvalidArgumentError(f"mode index {index} outside grid (J={self.half_span})")
        return self.center_frequency + index * self.spacing

    def position(self, index: int) -> int:
        """0-based position of mode ``index`` in mode-level arrays."""
        if not self.contains(index):
            raise InvalidArgumentError(f"mode index {index} outside grid (J={self.half_span})")
        return index + self.half_span

    def a_slot(self, index: int) -> int:
        """Row/column of the mode amplitude in the interleaved (a, a*) basis."""
        return 2 * self.position(index)

    def a_conj_slot(self, index: int) -> int:
        """Row/column of the conjugate amplitude in the interleaved basis."""
        return 2 * self.position(index) + 1


def _wrap_phase(phase: float) -> float:
    wrapped = math.fmod(phase, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    # fmod can return TWO_PI for inputs just below a multiple of it
    if wrapped >= TWO_PI:
        wrapped -= TWO_PI
    return wrapped


def _tone_strength(amplitude: float, phase: float) -> complex:
    """Complex strength of a tone: half the amplitude at the phase wrapped to [0, 2pi).

    The one home of the rule: ``PumpTone.strength`` and every analysis that
    varies a phase without building a tone call it, so all agree bit for bit.
    """
    phase = _wrap_phase(phase)
    return 0.5 * amplitude * complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True)
class PumpTone:
    """One pump tone, placed at ``2*center + offset*spacing``.

    ``offset`` is the integer grid offset of the tone from twice the comb
    center; ``amplitude`` is the dimensionless drive strength before the
    resonance-frequency prefactor; ``phase`` is stored wrapped to [0, 2pi).
    The complex strength ``(amplitude/2) * exp(i*phase)`` is always derived,
    never stored.
    """

    offset: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.offset != int(self.offset):
            raise InvalidArgumentError("pump offset must be an integer grid multiple")
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise InvalidArgumentError("pump amplitude must be non-negative and finite")
        if not math.isfinite(self.phase):
            raise InvalidArgumentError("pump phase must be finite")
        object.__setattr__(self, "offset", int(self.offset))
        object.__setattr__(self, "phase", _wrap_phase(float(self.phase)))

    @property
    def strength(self) -> complex:
        """Complex pump strength, half the amplitude at the stored phase."""
        return _tone_strength(self.amplitude, self.phase)


@dataclass(frozen=True)
class PumpScheme:
    """An ordered collection of pump tones with pairwise distinct offsets."""

    tones: tuple[PumpTone, ...]

    def __post_init__(self):
        tones = tuple(self.tones)
        object.__setattr__(self, "tones", tones)
        offsets = [t.offset for t in tones]
        if len(set(offsets)) != len(offsets):
            raise InvalidArgumentError(
                "pump offsets must be pairwise distinct; merge coincident tones first"
            )

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(t.offset for t in self.tones)

    @classmethod
    def balanced(cls, offsets, amplitude: float, phases=None) -> "PumpScheme":
        """Equal-amplitude scheme over the given offsets."""
        offs = list(offsets)
        if phases is None:
            phases = [0.0] * len(offs)
        phases = list(phases)
        if len(phases) != len(offs):
            raise InvalidArgumentError("phases must match offsets in length")
        return cls(tuple(PumpTone(o, amplitude, p) for o, p in zip(offs, phases)))

    def with_phase(self, tone_index: int, phase: float) -> "PumpScheme":
        """Copy of the scheme with one tone's phase replaced."""
        if not 0 <= tone_index < len(self.tones):
            raise InvalidArgumentError(f"tone index {tone_index} out of range")
        tones = list(self.tones)
        old = tones[tone_index]
        tones[tone_index] = PumpTone(old.offset, old.amplitude, phase)
        return PumpScheme(tuple(tones))


def gauge_invariant_basis(offsets) -> tuple[tuple[int, ...], ...]:
    """Integer basis of the tone-phase combinations that change ``|S|``.

    Rephasing the modes by ``a_k -> exp(i(alpha + beta*k)) a_k`` is a
    diagonal unitary similarity of the system: it shifts the phase of the
    tone at offset ``m`` by ``2*alpha + beta*m`` and leaves every ``|S_ij|``
    and the stability unchanged.  Only the combinations ``sum(c_t*phi_t)``
    with ``sum(c_t) == 0`` and ``sum(c_t*m_t) == 0`` survive every such
    shift.  The returned vectors span that whole lattice over the integers
    (not a sublattice of it): they are the kernel columns of a unimodular
    column reduction of the 2 x T matrix ``[1; m]``.  One or two distinct
    offsets give an empty basis: no phase of theirs is physical.
    """
    size = len(offsets)
    # each column: its image under [1; m], then its coefficient vector
    columns = [[1, int(m)] + [int(i == j) for i in range(size)] for j, m in enumerate(offsets)]
    pivot = 0
    for row in (0, 1):
        while True:
            live = [c for c in columns[pivot:] if c[row]]
            if not live:
                break
            head = min(live, key=lambda c: abs(c[row]))
            rest = [c for c in columns[pivot:] if c is not head]
            for c in rest:
                q = c[row] // head[row]
                c[:] = [x - q * y for x, y in zip(c, head)]
            columns[pivot:] = [head, *rest]
            if not any(c[row] for c in rest):
                pivot += 1
                break
    return tuple(tuple(c[2:]) for c in columns[pivot:])


@dataclass(frozen=True)
class Coupling:
    """One coupled mode pair: pump tone ``i + j = offset`` links a_i to a*_j.

    Stored once per unordered pair with ``i <= j``; ``i == j`` marks a
    degenerate (single-mode squeezing) process.  ``strength`` carries the
    resonance-frequency prefactor times the complex pump strength.
    """

    i: int
    j: int
    strength: complex


@dataclass(frozen=True)
class CouplingSet:
    """All couplings a pump scheme induces on a grid."""

    entries: tuple[Coupling, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if e.i > e.j:
                raise InvalidArgumentError("couplings must be stored with i <= j")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


_PACKAGE = __name__.rpartition(".")[0]


def _in_library(frame) -> bool:
    """Whether a frame runs one of the package's library modules; the CLI
    calls into the package like any other script."""
    name = frame.f_globals.get("__name__", "")
    return name.startswith(_PACKAGE + ".") and name != _PACKAGE + ".cli"


def check_band(grid: ModeGrid, params: DeviceParams) -> None:
    """Warn when the comb extends beyond a few linewidths of resonance.

    The warning is attributed to the code that called the public entry
    point (the first frame outside the library modules), however deep in
    the package the check runs.
    """
    edge = max(
        abs(grid.frequency(-grid.half_span) - params.resonance_frequency),
        abs(grid.frequency(grid.half_span) - params.resonance_frequency),
    )
    if edge > BAND_LINEWIDTHS * params.port_coupling:
        level, frame = 1, sys._getframe()
        while frame is not None and _in_library(frame):
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"mode comb extends {edge / params.port_coupling:.1f} linewidths from "
            "resonance; the frequency-independent coupling model is doubtful there",
            BandMismatchWarning,
            stacklevel=level,
        )


def resolve_couplings(grid: ModeGrid, scheme: PumpScheme, params: DeviceParams) -> CouplingSet:
    """Enumerate the mode pairs each pump tone couples.

    A tone at offset ``m`` couples the pair ``(i, j)`` exactly when
    ``i + j = m`` with both indices on the grid: the tone frequency then
    equals the sum of the two mode frequencies, so the pump converts
    between the pair's amplitude and conjugate amplitude with a
    time-independent coefficient.  Counter-rotating combinations land far
    outside the comb and are dropped.  Degenerate pairs (``i == j``) are
    retained; they drive single-mode squeezing.

    The coupling strength is the resonance frequency times the tone's
    complex strength, identical for every pair the tone creates.  Tones
    whose offset magnitude exceeds ``2*half_span`` simply contribute no
    pairs.  An empty result is valid.
    """
    check_band(grid, params)
    half = grid.half_span
    entries = []
    for tone in scheme.tones:
        strength = params.resonance_frequency * tone.strength
        lo = max(-half, tone.offset - half)
        for i in range(lo, half + 1):
            j = tone.offset - i
            if i > j:
                break
            if -half <= j <= half:
                entries.append(Coupling(i, j, strength))
    entries.sort(key=lambda e: (e.i, e.j))
    return CouplingSet(tuple(entries))


@dataclass(frozen=True)
class IntermodPrediction:
    """Mode indices where intermodulation products of a signal appear.

    ``second_order`` lists one idler index per tone (signal mixing with a
    single pump).  ``third_order`` lists (index, path_count) pairs for
    signal mixing with two distinct pumps; the path count records how many
    ordered tone pairs land on the same index, i.e. how many mixing paths
    interfere there.  Products falling outside the grid are dropped and
    flagged.
    """

    second_order: tuple[int, ...]
    third_order: tuple[tuple[int, int], ...]
    dropped_out_of_grid: bool


def _intermod_paths(signal_index: int, scheme: PumpScheme, grid: ModeGrid):
    """The on-grid intermodulation products of a signal, with the tones that make them.

    Returns ``(second, third, dropped)``: ``second`` holds ``(tone, index)``
    for each one-pump idler on the grid, in tone order; ``third`` maps each
    on-grid two-pump index, in ascending order, to the ordered tone pairs
    ``(ka, kb)`` landing there; ``dropped`` tells whether any product left
    the grid.
    """
    if not grid.contains(signal_index):
        raise InvalidArgumentError(f"signal index {signal_index} outside grid")
    offsets = scheme.offsets
    idlers = [(k, m - signal_index) for k, m in enumerate(offsets)]
    paths: dict[int, list[tuple[int, int]]] = {}
    for ka, kb in itertools.permutations(range(len(offsets)), 2):
        paths.setdefault(offsets[ka] - offsets[kb] + signal_index, []).append((ka, kb))
    second = [(k, idx) for k, idx in idlers if grid.contains(idx)]
    third = {idx: paths[idx] for idx in sorted(paths) if grid.contains(idx)}
    return second, third, len(second) < len(idlers) or len(third) < len(paths)


def predicted_intermod_indices(
    signal_index: int, scheme: PumpScheme, grid: ModeGrid
) -> IntermodPrediction:
    """Intermodulation bookkeeping for a signal injected at ``signal_index``.

    A pump at offset ``m`` scatters the signal ``s`` to the idler index
    ``m - s``; two distinct pumps at offsets ``m`` and ``l`` scatter it to
    ``m - l + s``.  Indices are exact integers because pumps are locked to
    the comb.  The indices and path counts are those of the tracks
    ``phase_sweep`` records: both read them from ``_intermod_paths``.
    """
    second, third, dropped = _intermod_paths(signal_index, scheme, grid)
    return IntermodPrediction(
        second_order=tuple(idx for _, idx in second),
        third_order=tuple((idx, len(pairs)) for idx, pairs in third.items()),
        dropped_out_of_grid=dropped,
    )
