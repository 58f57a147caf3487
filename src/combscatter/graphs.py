"""Thresholded correlation graphs and topology classification.

A dB scattering matrix reduces to a mode-level weight matrix (max over each
mode pair's four amplitude/conjugate entries); edges are the off-diagonal
weights at or above threshold, found by one array comparison.  Degenerate
squeezing shows up on the diagonal block's cross entries and is kept as
self-loops, which never participate in topology classification.

Classification is purely structural (node labels never matter): a component
is a square ladder when it is isomorphic to the two-rails-plus-rungs
template after peeling at most two boundary defects, and a ladder with
diagonals when every cell additionally carries both diagonal chords, which
turns the component into a chain of 4-cliques glued along rungs.  Each
component runs one peel-and-match pass, and the match that sets its label
also gives its rung pairs.

The pass works on plain adjacency: one insertion-ordered neighbor dict per
node, built once per report, gives the components by breadth-first search,
and ``topology_report`` classifies only those connected components.
Counting comes first: each peeled node takes one or two edges with it, so
a component none of whose peelable node and edge counts fits either
template is OTHER without a variant enumerated.  Otherwise a component's
peel variants are enumerated once, as sets of removed nodes, and both
matchers share them.  Each variant's size, edge count and degrees come
from the adjacency and the removed set.  A variant that meets a matcher's
necessary conditions is then walked from its smallest end: rung
by rung along the two rails for a square ladder, and from K4 cell to K4
cell for a ladder with diagonals.  A walk that visits every node has found
the template's whole edge count, so it proves the match.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .model import ModeGrid
from .scattering import DB_FLOOR

# A finite comb truncates an infinite ladder mid-pattern; tolerate this many
# peeled boundary nodes (pendants or triangle caps) before template matching.
BOUNDARY_DEFECT_BUDGET = 2


class TopologyLabel(enum.Enum):
    ISOLATED = "isolated"
    PAIR = "pair"
    CHAIN = "chain"
    SQUARE_LADDER = "square_ladder"
    LADDER_WITH_DIAGONALS = "ladder_with_diagonals"
    OTHER = "other"


@dataclass(frozen=True)
class GraphEdge:
    """Undirected weighted edge; stored once with ``i < j``."""

    i: int
    j: int
    weight_db: float


@dataclass(frozen=True)
class CorrelationGraph:
    """Thresholded mode-connectivity graph extracted from a dB matrix."""

    nodes: tuple[int, ...]
    edges: tuple[GraphEdge, ...]
    self_loops: tuple[tuple[int, float], ...]
    threshold_db: float

    def edge_pairs(self) -> set[tuple[int, int]]:
        return {(e.i, e.j) for e in self.edges}


@dataclass(frozen=True)
class TopologyReport:
    """Connected components with structural labels.

    ``labels`` and ``ladder_rungs`` hold one entry per component.
    ``ladder_rungs`` lists, for each ladder-type component, its rung pairs;
    other components get an empty tuple.
    """

    components: tuple[tuple[int, ...], ...]
    labels: tuple[TopologyLabel, ...]
    ladder_rungs: tuple[tuple[tuple[int, int], ...], ...]


def mode_level_db(db_matrix: np.ndarray, grid: ModeGrid) -> np.ndarray:
    """Reduce a 2n x 2n dB matrix to n x n per-mode weights.

    Off-diagonal mode pairs take the maximum over their four
    amplitude/conjugate block entries.  The diagonal takes only the two
    cross entries (amplitude to conjugate), which carry degenerate
    squeezing; the reflection entries would otherwise put a trivial
    self-loop on every mode.

    The block maximum is taken over the four strided views, one per block
    position, instead of a reduction over a reshaped array.  ``np.maximum``
    propagates NaN, so a NaN anywhere in ``db_matrix`` reaches the block
    maxima, and one check of them raises ``InvalidArgumentError`` for it:
    a NaN weight would otherwise compare false with every threshold and
    drop its mode pair without a word.
    """
    m = np.asarray(db_matrix, dtype=float)
    n = grid.n_modes
    if m.shape != (2 * n, 2 * n):
        raise InvalidArgumentError(f"dB matrix must be {2 * n}x{2 * n} for this grid")
    reduced = np.maximum(
        np.maximum(m[0::2, 0::2], m[0::2, 1::2]), np.maximum(m[1::2, 0::2], m[1::2, 1::2])
    )
    if np.isnan(reduced).any():
        raise InvalidArgumentError("dB matrix must not hold NaN")
    cross = np.maximum(m[::2, 1::2].diagonal(), m[1::2, ::2].diagonal())
    np.fill_diagonal(reduced, cross)
    return reduced


def extract_graph(
    db_matrix: np.ndarray, grid: ModeGrid, threshold_db: float
) -> CorrelationGraph:
    """Threshold a dB matrix into a correlation graph.

    Edges are exactly the off-diagonal mode pairs whose weight (max of the
    two directions) reaches the threshold and lies above ``DB_FLOOR``, and
    self-loops the modes whose cross weight does: a weight at the floor is
    a clamped magnitude, such as the exact zero between two blocks, and
    never counts, whatever the threshold.  A threshold of ``+inf`` keeps
    nothing and ``-inf`` every weight above the floor; a NaN one raises, as
    no weight could reach it, and so does a NaN entry (``mode_level_db``).
    The result is deterministic, ordered by ascending mode index.
    """
    if math.isnan(threshold_db):
        raise InvalidArgumentError("threshold_db must not be NaN")
    reduced = mode_level_db(db_matrix, grid)
    half = grid.half_span
    weights = np.maximum(reduced, reduced.T)
    rows, cols = np.nonzero(np.triu((weights >= threshold_db) & (weights > DB_FLOOR), 1))
    diagonal = reduced.diagonal()
    (loops,) = np.nonzero((diagonal >= threshold_db) & (diagonal > DB_FLOOR))
    # tolist() yields Python int and float, so the reports stay JSON-serializable
    i, j, w = (rows - half).tolist(), (cols - half).tolist(), weights[rows, cols].tolist()
    return CorrelationGraph(
        nodes=tuple(grid.indices),
        edges=tuple(map(GraphEdge, i, j, w)),
        self_loops=tuple(zip((loops - half).tolist(), diagonal[loops].tolist())),
        threshold_db=float(threshold_db),
    )


def _adjacency(nodes, edges) -> dict[int, dict[int, None]]:
    """Insertion-ordered neighbor dicts over ``nodes``.

    Self-loops and edges with an endpoint outside ``nodes`` are dropped.
    """
    adj: dict[int, dict[int, None]] = {v: {} for v in nodes}
    for e in edges:
        if e.i != e.j and e.i in adj and e.j in adj:
            adj[e.i][e.j] = None
            adj[e.j][e.i] = None
    return adj


def _reach(adj, start) -> list[int]:
    """Nodes connected to ``start``, in breadth-first order."""
    found, order = {start}, [start]
    for v in order:  # the loop also visits the nodes appended while it runs
        for u in adj[v]:
            if u not in found:
                found.add(u)
                order.append(u)
    return order


def _components(adj) -> tuple[tuple[int, ...], ...]:
    """Components as sorted tuples, ordered by their smallest node."""
    seen: set[int] = set()
    comps = []
    for start in sorted(adj):
        if start not in seen:
            comp = _reach(adj, start)
            seen.update(comp)
            comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _peel_variants(adj, nodes, budget: int):
    """Yield the removed-node sets of ``nodes`` peeled by up to ``budget`` defects.

    Defect candidates are structural boundary artifacts of a truncated
    ladder: pendant nodes (degree 1) and triangle caps (degree-2 nodes whose
    two neighbors are adjacent), with degrees counted among the nodes not
    yet removed.  Peeling is breadth-first over removal counts, and nodes
    are tried in ascending order, so the least-modified variant comes first;
    each set of removed nodes is yielded once.
    """
    seen = {frozenset()}
    frontier = [frozenset()]
    yield frozenset()
    for _ in range(budget):
        next_frontier = []
        for removed in frontier:
            for v in nodes:
                if v in removed:
                    continue
                live = [u for u in adj[v] if u not in removed]
                if len(live) == 1 or (len(live) == 2 and live[1] in adj[live[0]]):
                    peeled = removed | {v}
                    if peeled not in seen:
                        seen.add(peeled)
                        next_frontier.append(peeled)
                        yield peeled
        frontier = next_frontier


def _ladder_counts(size: int, edges: int) -> bool:
    """The size and edge conditions ``_match_ladder`` relies on: k = size / 2
    rungs and 3k - 2 edges."""
    return size >= 4 and size % 2 == 0 and edges == 3 * (size // 2) - 2


def _clique_chain_counts(size: int, edges: int) -> bool:
    """The size and edge conditions ``_match_clique_chain`` relies on: k
    cells have 2(k + 1) nodes and 5k + 1 edges."""
    return size >= 4 and size % 2 == 0 and 2 * edges == 5 * size - 8


def _some_variant_counts(size: int, edges: int) -> bool:
    """Whether any peel variant of a component could meet a template's counts.

    Peeling ``r <= BOUNDARY_DEFECT_BUDGET`` nodes leaves ``size - r`` nodes,
    and each peeled node, a pendant or a triangle cap, takes 1 or 2 edges
    with it, so ``edges - lost`` edges with ``r <= lost <= 2r``.
    """
    return any(
        counts(size - r, edges - lost)
        for r in range(BOUNDARY_DEFECT_BUDGET + 1)
        for lost in range(r, 2 * r + 1)
        for counts in (_ladder_counts, _clique_chain_counts)
    )


def _match_ladder(adj, nodes, removed):
    """Return the rung pairs if the variant is exactly a square ladder, else None.

    The variant must pass ``_ladder_counts``: k = size / 2 rungs and 3k - 2
    edges; it is then walked only if it has four degree-2 corners and every
    other node has degree 3.  The walk starts at the smallest corner
    and its rung partner, and each next rung is the current rung nodes' one
    unvisited rail neighbor each.  For k >= 3 the rung set is unique, since
    every automorphism of the ladder maps rungs to rungs, and a corner's
    partner is its one degree-2 neighbor.  The 4-cycle (k = 2) has two rung
    sets; there the smallest node's rung partner is its larger neighbor.

    Every edge then joins the two nodes of a rung or a rung node to its
    step, so k rungs hold at most k + 2(k - 1) = 3k - 2 edges: a walk that
    visits every node has found every rung's edge, and the variant is the
    template.
    """
    live = {v: [u for u in adj[v] if u not in removed] for v in nodes if v not in removed}
    if sorted(map(len, live.values())) != [2] * 4 + [3] * (len(live) - 4):
        return None
    corner = min(v for v in live if len(live[v]) == 2)
    partner = max((u for u in live[corner] if len(live[u]) == 2), default=None)
    if partner is None:
        return None
    rung, visited, rungs = (corner, partner), set(), []
    while True:
        visited.update(rung)
        rungs.append(tuple(sorted(rung)))
        steps = [[u for u in live[v] if u not in visited] for v in rung]
        if steps == [[], []]:
            return tuple(sorted(rungs)) if len(visited) == len(live) else None
        if [len(s) for s in steps] != [1, 1]:
            return None
        rung = (steps[0][0], steps[1][0])


def _match_clique_chain(adj, nodes, removed):
    """Return shared rung pairs if the variant is a chain of K4s glued on rungs.

    Every maximal clique is a K4 cell, and the cells form a path in which
    consecutive ones share one rung edge.  A square ladder with both
    diagonals in every cell is such a chain; so is one where a node lies in
    three or more consecutive cells, as at the hub of a fan of K4s.  The
    variant must pass ``_clique_chain_counts``: 2(k + 1) nodes and 5k + 1
    edges.

    The walk starts at the end cell of the smallest node of degree 3 with a
    neighbor of degree 3: the two nodes that only that cell holds.  The next
    cell is the current one's rung with the unvisited nodes that have two or
    more neighbors in the current cell; these must be two adjacent nodes
    with two common neighbors there, the rung.  Each cell is then a K4 that
    adds two nodes and shares no edge but its rung with earlier cells, so a
    walk that visits every node has found k cells with 5k + 1 edges, and
    leaves no room for another edge.  A single K4 shares no rung.
    """
    live = {v: {u for u in adj[v] if u not in removed} for v in nodes if v not in removed}
    ends = [v for v in live if len(live[v]) == 3 and any(len(live[u]) == 3 for u in live[v])]
    cell = {min(ends), *live[min(ends)]} if ends else set()
    if not ends or any(len(live[v] & cell) != 3 for v in cell):
        return None
    visited, shared = set(cell), []
    while True:
        reached = set().union(*(live[v] for v in cell)) - visited
        fresh = sorted(u for u in reached if len(live[u] & cell) >= 2)
        if not fresh:
            return tuple(sorted(shared)) if len(visited) == len(live) else None
        rung = cell & live[fresh[0]] & live[fresh[-1]]
        if len(fresh) != 2 or fresh[1] not in live[fresh[0]] or len(rung) != 2:
            return None
        shared.append(tuple(sorted(rung)))
        cell = rung | set(fresh)
        visited |= cell


def _classify(adj, nodes):
    """Label and rung pairs of one component, from a single peel-and-match.

    ``nodes`` is one connected component of ``adj``, sorted, so one with an
    edge fewer than nodes and no degree above two is a path, a chain.  The
    peel variants are enumerated once, as removed-node sets, and each
    carries its size and edge count.  Ladder matches take priority over
    clique chains; within each, the least-peeled variant that matches gives
    both the label and the rungs.  A variant is walked only if it passes
    the matcher's size and edge conditions.  When no count that peeling can
    leave meets either template's (``_some_variant_counts``), the component
    is OTHER before any variant is enumerated.
    """
    size = len(nodes)
    edges = sum(len(adj[v]) for v in nodes) // 2
    if size == 1:
        return TopologyLabel.ISOLATED, ()
    if size == 2 and edges == 1:
        return TopologyLabel.PAIR, ()
    if max(len(adj[v]) for v in nodes) <= 2 and edges == size - 1:
        return TopologyLabel.CHAIN, ()
    if not _some_variant_counts(size, edges):
        return TopologyLabel.OTHER, ()
    variants = []
    for removed in _peel_variants(adj, nodes, BOUNDARY_DEFECT_BUDGET):
        # an edge between two removed nodes is counted in both their degrees
        inner = sum(u in removed for r in removed for u in adj[r]) // 2
        lost = sum(len(adj[r]) for r in removed) - inner
        variants.append((removed, size - len(removed), edges - lost))
    for label, counts, match in (
        (TopologyLabel.SQUARE_LADDER, _ladder_counts, _match_ladder),
        (TopologyLabel.LADDER_WITH_DIAGONALS, _clique_chain_counts, _match_clique_chain),
    ):
        for removed, variant_size, variant_edges in variants:
            if counts(variant_size, variant_edges):
                rungs = match(adj, nodes, removed)
                if rungs is not None:
                    return label, rungs
    return TopologyLabel.OTHER, ()


def topology_report(graph: CorrelationGraph) -> TopologyReport:
    """Full report: components, labels, and rung pairs for ladder types.

    Labels depend only on the edge structure (never on weights or on index
    arithmetic): single nodes are isolated, one edge over two nodes is a
    pair, an acyclic path is a chain, and ladder recognition tolerates up
    to two peeled boundary defects from the finite comb truncation.  Edges
    with an endpoint outside ``graph.nodes`` are ignored.
    """
    adj = _adjacency(graph.nodes, graph.edges)
    components = _components(adj)
    results = [_classify(adj, comp) for comp in components]
    return TopologyReport(
        components=components,
        labels=tuple(label for label, _ in results),
        ladder_rungs=tuple(rungs for _, rungs in results),
    )


def export_dot(graph: CorrelationGraph, report: TopologyReport) -> str:
    """Render the graph as deterministic DOT text, one block per component.

    Nodes are labeled by mode index, edges annotated with their weight
    rounded to 0.1 dB; identical inputs always produce identical bytes.
    """
    lines = [
        "graph correlation {",
        f"  // threshold_db={graph.threshold_db!r}",
    ]
    edge_lookup: dict[tuple[int, int], float] = {(e.i, e.j): e.weight_db for e in graph.edges}
    loop_lookup = dict(graph.self_loops)
    component_of = {node: idx for idx, comp in enumerate(report.components) for node in comp}
    edge_lines: list[list[str]] = [[] for _ in report.components]
    for (i, j), w in sorted(edge_lookup.items()):
        if i in component_of:
            edge_lines[component_of[i]].append(f'    "{i}" -- "{j}" [label="{w:.1f}"];')
    for idx, (comp, label) in enumerate(zip(report.components, report.labels, strict=True)):
        lines += [f"  subgraph cluster_{idx} {{", f'    label="{label.value}";']
        for node in comp:
            lines.append(f'    "{node}";')
        for node in comp:
            if node in loop_lookup:
                lines.append(f'    "{node}" -- "{node}" [label="{loop_lookup[node]:.1f}"];')
        lines.extend(edge_lines[idx])
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
