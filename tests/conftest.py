"""Shared fixtures and independent oracles used across the test suite."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from combscatter import (
    DeviceParams,
    ModeGrid,
    PumpScheme,
    PumpTone,
    fit_parameters,
    magnitude_db,
    scale_for_ratio,
    simulate_scattering,
)
from combscatter import analysis, datafiles

TWO_PI = 2.0 * math.pi

# Device and comb values used throughout: resonance 4.2 GHz, linewidth
# 112 MHz, spacing 0.1 MHz, 95 modes.
RESONANCE = TWO_PI * 4.2e9
COUPLING = TWO_PI * 112e6
SPACING = TWO_PI * 0.1e6
HALF_SPAN = 47


@pytest.fixture(scope="session")
def device():
    return DeviceParams(resonance_frequency=RESONANCE, port_coupling=COUPLING)


@pytest.fixture(scope="session")
def grid():
    return ModeGrid(center_frequency=RESONANCE, spacing=SPACING, half_span=HALF_SPAN)


def balanced_scheme(device, offsets, ratio, phases=None) -> PumpScheme:
    """Equal-strength scheme at a given dimensionless strength ratio."""
    return PumpScheme.balanced(offsets, scale_for_ratio(ratio, device), phases)


def fit_in_rounds(rounds, *args, **kwargs):
    """``fit_parameters`` with its descent cut to at most ``rounds`` rounds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "REFINE_ROUNDS", rounds)
        return fit_parameters(*args, **kwargs)


def simulated_db(grid, device, scheme):
    """dB magnitudes of a simulated scheme, which are relative to the
    all-pass pump-off reflection as they stand."""
    return magnitude_db(simulate_scattering(grid, device, scheme).matrix)


def write_native_payload(path, matrix, grid, tag="raw"):
    """Write ``matrix`` as it stands, NaN or mis-shaped, into a current native
    container on ``grid`` with normalization ``tag``, under a valid checksum;
    ``save_scattering`` takes only a matrix ``ScatteringMatrix`` admitted, and
    writes only ``raw``."""
    header = datafiles._HEADER.pack(
        datafiles.MAGIC,
        datafiles.FORMAT_VERSION,
        grid.n_modes,
        grid.spacing,
        grid.center_frequency,
        datafiles._BASIS_FIELD,
        tag.encode("ascii").ljust(16, b"\x00"),
    )
    blob = header + np.ascontiguousarray(matrix, dtype=complex).tobytes()
    path.write_bytes(blob + datafiles._CHECKSUM.pack(zlib.crc32(blob)))


def analytic_two_mode_block(detuning_i, detuning_j, gamma, strength):
    """Hand inversion of the two-mode parametric block.

    For a single coupling between modes i and j the 4x4 system splits into
    two conjugate 2x2 blocks.  Solving the (a_i, a*_j) block by hand:

        [ d_i     -i c ] [a_i ]   [sqrt(g) b_i ]
        [ i c*    e_j  ] [a*_j] = [sqrt(g) b*_j]

    with d_i = i*detuning_i + gamma/2, e_j = -i*detuning_j + gamma/2 and
    c the complex coupling strength.  Cramer inversion and the input-output
    relation give the four scattering entries returned here as
    (S_ii, S_ij*, S_j*i, S_j*j*).
    """
    d_i = 1j * detuning_i + gamma / 2.0
    e_j = -1j * detuning_j + gamma / 2.0
    det = d_i * e_j - abs(strength) ** 2
    s_ii = gamma * e_j / det - 1.0
    s_ij = 1j * gamma * strength / det
    s_ji = -1j * gamma * np.conj(strength) / det
    s_jj = gamma * d_i / det - 1.0
    return s_ii, s_ij, s_ji, s_jj


def brute_force_pairs(offsets, half_span):
    """Enumerate coupled (i, j) pairs by scanning the whole index square."""
    pairs = set()
    for m in offsets:
        for i in range(-half_span, half_span + 1):
            for j in range(-half_span, half_span + 1):
                if i + j == m:
                    pairs.add((min(i, j), max(i, j)))
    return pairs


@st.composite
def small_schemes(draw, min_tones=1, ratios=st.floats(0.01, 0.1)):
    """A grid of 3-13 modes, detuned from resonance, and ``min_tones``-4
    random tones, each at a strength ratio drawn from ``ratios``."""
    half_span = draw(st.integers(1, 6))
    offsets = draw(
        st.lists(
            st.integers(-2 * half_span - 1, 2 * half_span + 1),
            min_size=min_tones,
            max_size=4,
            unique=True,
        )
    )
    tones = tuple(
        PumpTone(o, 2.0 * draw(ratios) * COUPLING / RESONANCE, draw(st.floats(0.0, TWO_PI)))
        for o in offsets
    )
    detuning = draw(st.floats(-0.5, 0.5)) * COUPLING
    return ModeGrid(RESONANCE + detuning, SPACING, half_span), PumpScheme(tones)


# Entries that make a max reduction order-sensitive: NaN, both infinities
# and both zeros.
SPECIAL_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf)


@st.composite
def special_float_matrices(draw):
    """A 2n x 2n float matrix on n = 1-9 modes (odd, as a ModeGrid has),
    mixing arbitrary floats with NaN, +-inf and +-0.0."""
    n = 2 * draw(st.integers(0, 4)) + 1
    elements = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True))
    return draw(arrays(float, (2 * n, 2 * n), elements=elements))


def same_bits_but_nan(a, b):
    """True when two float arrays agree bit for bit, signed zeros included,
    except that any two NaNs match: numpy's max reductions do not define
    which NaN payload or sign they return."""
    a, b = np.asarray(a), np.asarray(b)
    canonical = [np.where(np.isnan(x), math.nan, x).tobytes() for x in (a, b)]
    return a.shape == b.shape and canonical[0] == canonical[1]
