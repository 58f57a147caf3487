"""Exhaustive reference for the phase search.

This is the earlier implementation of ``search_phases``: it simulates every
combination of the phase grid, in lexicographic order, with no regard for
which combinations are gauge-equivalent, each by the dense chain rather
than the block pieces the package restacks.  The tests require the package,
which simulates one combination per gauge class, to reproduce it exactly.
"""

import math

from combscatter import (
    AboveThresholdError,
    extract_graph,
    magnitude_db,
    topology_report,
)
from dense_reference import simulate_dense

TWO_PI = 2.0 * math.pi


def exhaustive_search(scheme, target_adjacency, points, threshold_db, grid, params):
    """(objective, best phases, graph, report) of the full-grid search over every tone."""
    target = {(min(i, j), max(i, j)) for i, j in target_adjacency if i != j}
    grid_phases = [TWO_PI * k / points for k in range(points)]
    best = None
    for flat in range(points ** len(scheme.tones)):
        combo, rest = [], flat
        for _ in scheme.tones:
            combo.append(rest % points)
            rest //= points
        phases = tuple(grid_phases[c] for c in reversed(combo))
        trial = scheme
        for tone, phase in enumerate(phases):
            trial = trial.with_phase(tone, phase)
        try:
            s_on = simulate_dense(grid, params, trial)
        except AboveThresholdError:
            continue
        achieved = extract_graph(magnitude_db(s_on.matrix), grid, threshold_db)
        objective = len(achieved.edge_pairs() ^ target)
        if best is None or objective < best[0]:
            best = (objective, phases, achieved)
        if best[0] == 0:
            break
    if best is None:
        raise AboveThresholdError("every phase combination was above threshold")
    objective, phases, graph = best
    return objective, phases, graph, topology_report(graph)
