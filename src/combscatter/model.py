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

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi

# Modes further than this many linewidths from resonance trigger a warning:
# the frequency-independent coupling assumption degrades out there.
BAND_LINEWIDTHS = 3.0

# The largest comb: 1001 modes, whose dense 2n x 2n complex scattering
# matrix takes 64 MB.  Larger grids are rejected before anything is allocated.
MAX_HALF_SPAN = 500


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
    as ``center_frequency + j*spacing`` (never accumulated).
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


def build_mode_grid(center_frequency: float, spacing: float, half_span: int) -> ModeGrid:
    """Construct the measurement comb.

    The spacing is the inverse of the measurement window, which makes the
    comb modes mutually orthogonal over that window.
    """
    return ModeGrid(center_frequency=center_frequency, spacing=spacing, half_span=half_span)


def _wrap_phase(phase: float) -> float:
    wrapped = math.fmod(phase, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    # fmod can return TWO_PI for inputs just below a multiple of it
    if wrapped >= TWO_PI:
        wrapped -= TWO_PI
    return wrapped


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
        return 0.5 * self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))

    def frequency(self, grid: ModeGrid) -> float:
        """Angular frequency of the tone on the given grid."""
        return 2.0 * grid.center_frequency + self.offset * grid.spacing


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

    @classmethod
    def merged(cls, tones) -> "PumpScheme":
        """Build a scheme from tones, merging coincident offsets.

        Tones at the same offset are combined by complex addition of their
        strengths; the merged tone keeps the resulting amplitude and phase.
        """
        total: dict[int, complex] = {}
        order: list[int] = []
        for t in tones:
            if t.offset not in total:
                total[t.offset] = 0j
                order.append(t.offset)
            total[t.offset] += t.strength
        merged = []
        for off in order:
            g = total[off]
            merged.append(PumpTone(off, 2.0 * abs(g), math.atan2(g.imag, g.real)))
        return cls(tuple(merged))

    def with_phase(self, tone_index: int, phase: float) -> "PumpScheme":
        """Copy of the scheme with one tone's phase replaced."""
        if not 0 <= tone_index < len(self.tones):
            raise InvalidArgumentError(f"tone index {tone_index} out of range")
        tones = list(self.tones)
        old = tones[tone_index]
        tones[tone_index] = PumpTone(old.offset, old.amplitude, phase)
        return PumpScheme(tuple(tones))

    def with_amplitude(self, amplitude: float) -> "PumpScheme":
        """Copy of the scheme with every tone set to the same amplitude."""
        return PumpScheme(tuple(PumpTone(t.offset, amplitude, t.phase) for t in self.tones))


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

    def partners(self, index: int) -> tuple[int, ...]:
        """Modes coupled to ``index``, in ascending order (may include itself)."""
        out = set()
        for e in self.entries:
            if e.i == index:
                out.add(e.j)
            if e.j == index:
                out.add(e.i)
        return tuple(sorted(out))


def check_band(grid: ModeGrid, params: DeviceParams) -> None:
    """Warn when the comb extends beyond a few linewidths of resonance."""
    edge = max(
        abs(grid.frequency(-grid.half_span) - params.resonance_frequency),
        abs(grid.frequency(grid.half_span) - params.resonance_frequency),
    )
    if edge > BAND_LINEWIDTHS * params.port_coupling:
        warnings.warn(
            f"mode comb extends {edge / params.port_coupling:.1f} linewidths from "
            "resonance; the frequency-independent coupling model is doubtful there",
            BandMismatchWarning,
            stacklevel=2,
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


def predicted_intermod_indices(
    signal_index: int, scheme: PumpScheme, grid: ModeGrid
) -> IntermodPrediction:
    """Intermodulation bookkeeping for a signal injected at ``signal_index``.

    A pump at offset ``m`` scatters the signal ``s`` to the idler index
    ``m - s``; two distinct pumps at offsets ``m`` and ``l`` scatter it to
    ``m - l + s``.  Indices are exact integers because pumps are locked to
    the comb.
    """
    if not grid.contains(signal_index):
        raise InvalidArgumentError(f"signal index {signal_index} outside grid")
    dropped = False
    second = []
    for tone in scheme.tones:
        idx = tone.offset - signal_index
        if grid.contains(idx):
            second.append(idx)
        else:
            dropped = True
    third: Counter[int] = Counter()
    for a in scheme.tones:
        for b in scheme.tones:
            if a.offset == b.offset:
                continue
            idx = a.offset - b.offset + signal_index
            if grid.contains(idx):
                third[idx] += 1
            else:
                dropped = True
    return IntermodPrediction(
        second_order=tuple(second),
        third_order=tuple(sorted(third.items())),
        dropped_out_of_grid=dropped,
    )
