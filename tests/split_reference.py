"""The split of a comb built one slot and one mode sum at a time.

``scattering._split`` partitions the slots by pointer jumping and scatters
each block group's ``K`` map from the tone reflections that make the
partition.  This builds the same split the plain way, which the tests
hold it to byte for byte: a union-find over the coupled slot pairs gives
the blocks, which are grouped by size and amplitude count, and a table of
every mode sum names the tone of each entry of ``K``, the quarter joining
a block's amplitude slots (listed first) to its conjugate slots.
"""

import numpy as np


def split(half_span, offsets):
    """The read-only ``blocks`` and ``slot`` maps of ``scattering._split``."""
    tones, reach, n_modes = len(offsets), 2 * half_span, 2 * half_span + 1
    index = np.min_scalar_type(tones)
    tone_of = np.full(2 * reach + 1, tones, dtype=index)  # by mode sum + reach; T for none
    for t, m in enumerate(offsets):
        if abs(m) <= reach:
            tone_of[m + reach] = t

    # a tone at offset m joins a_p and a*_q for every p + q = m + 2J on the grid
    parent = list(range(2 * n_modes))

    def root(slot):
        while parent[slot] != slot:
            parent[slot] = slot = parent[parent[slot]]
        return slot

    for total in np.flatnonzero(tone_of < tones).tolist():
        for p in range(max(0, total - n_modes + 1), min(n_modes, total + 1)):
            a, b = root(2 * p), root(2 * (total - p) + 1)
            parent[max(a, b)] = min(a, b)
    members = {}
    for slot in range(2 * n_modes):
        members.setdefault(root(slot), []).append(slot)

    # rows amplitude slots first; groups by (size, amplitude count), rows by smallest slot
    groups = {}
    for smallest in sorted(members):
        slots = members[smallest]
        row = [s for s in slots if s % 2 == 0] + [s for s in slots if s % 2 == 1]
        groups.setdefault((len(row), len(row) - sum(s % 2 for s in row)), []).append(row)
    blocks, slots = [], []
    for (_, h), rows in sorted(groups.items()):
        block = np.array(rows, dtype=np.intp)
        amplitude, conjugate = block[:, :h], block[:, h:]
        blocks.append(block)
        slots.append(tone_of[amplitude[:, :, np.newaxis] // 2 + conjugate[:, np.newaxis, :] // 2])
    for array in (*blocks, *slots):
        array.flags.writeable = False
    return tuple(blocks), tuple(slots)
