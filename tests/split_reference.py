"""The split of a comb with its slot maps built by mode sum.

``scattering._split`` scatters each block group's slot map from the tone
reflections that make the block partition.  This builds the same maps the
older way, which the tests hold it to byte for byte: a table of every mode
sum names the tone of each block entry, and the entry takes that tone's
slot where its row and column parities differ.
"""

import numpy as np

from combscatter.scattering import _block_index, _block_partition


def split(half_span, offsets):
    """The read-only ``blocks`` and ``slot`` maps of ``scattering._split``."""
    tones, reach, n_modes = len(offsets), 2 * half_span, 2 * half_span + 1
    index = np.min_scalar_type(2 * tones)
    tone_of = np.full(2 * reach + 1, tones, dtype=index)  # by mode sum + reach; T for none
    for t, m in enumerate(offsets):
        if abs(m) <= reach:
            tone_of[m + reach] = t
    # each tone's reflection q = m + 2J - p of every position p
    partner = np.flatnonzero(tone_of < tones)[:, np.newaxis] - np.arange(n_modes)
    on = (partner >= 0) & (partner < n_modes)
    blocks = _block_partition(2 * n_modes, 2 * np.nonzero(on)[1], 2 * partner[on] + 1)
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
