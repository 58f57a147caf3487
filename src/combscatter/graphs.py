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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations

import networkx as nx
import numpy as np

from .errors import InvalidArgumentError
from .model import ModeGrid

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

    def neighbors(self, index: int) -> tuple[int, ...]:
        out = set()
        for e in self.edges:
            if e.i == index:
                out.add(e.j)
            elif e.j == index:
                out.add(e.i)
        return tuple(sorted(out))


@dataclass(frozen=True)
class TopologyReport:
    """Connected components with structural labels.

    ``ladder_rungs`` lists, for each ladder-type component, its rung pairs;
    other components get an empty tuple.
    """

    components: tuple[tuple[int, ...], ...]
    labels: tuple[TopologyLabel, ...] = field(default_factory=tuple)
    ladder_rungs: tuple[tuple[tuple[int, int], ...], ...] = field(default_factory=tuple)


def mode_level_db(db_matrix: np.ndarray, grid: ModeGrid) -> np.ndarray:
    """Reduce a 2n x 2n dB matrix to n x n per-mode weights.

    Off-diagonal mode pairs take the maximum over their four
    amplitude/conjugate block entries.  The diagonal takes only the two
    cross entries (amplitude to conjugate), which carry degenerate
    squeezing; the reflection entries would otherwise put a trivial
    self-loop on every mode.
    """
    m = np.asarray(db_matrix, dtype=float)
    n = grid.n_modes
    if m.shape != (2 * n, 2 * n):
        raise InvalidArgumentError(f"dB matrix must be {2 * n}x{2 * n} for this grid")
    reduced = m.reshape(n, 2, n, 2).max(axis=(1, 3))
    cross = np.maximum(m[::2, 1::2].diagonal(), m[1::2, ::2].diagonal())
    np.fill_diagonal(reduced, cross)
    return reduced


def extract_graph(
    db_matrix: np.ndarray, grid: ModeGrid, threshold_db: float
) -> CorrelationGraph:
    """Threshold a dB matrix into a correlation graph.

    Edges are exactly the off-diagonal mode pairs whose weight (max of the
    two directions) reaches the threshold; the result is deterministic,
    ordered by ascending mode index.
    """
    reduced = mode_level_db(db_matrix, grid)
    half = grid.half_span
    weights = np.maximum(reduced, reduced.T)
    rows, cols = np.nonzero(np.triu(weights >= threshold_db, 1))
    diagonal = reduced.diagonal()
    (loops,) = np.nonzero(diagonal >= threshold_db)
    # tolist() yields Python int and float, so the reports stay JSON-serializable
    i, j, w = (rows - half).tolist(), (cols - half).tolist(), weights[rows, cols].tolist()
    return CorrelationGraph(
        nodes=tuple(grid.indices),
        edges=tuple(map(GraphEdge, i, j, w)),
        self_loops=tuple(zip((loops - half).tolist(), diagonal[loops].tolist())),
        threshold_db=float(threshold_db),
    )


def _as_nx(nodes, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from((e.i, e.j) for e in edges if e.i in g and e.j in g and e.i != e.j)
    return g


def connected_components(graph: CorrelationGraph) -> TopologyReport:
    """Connected components, ordered by smallest contained mode index."""
    g = _as_nx(graph.nodes, graph.edges)
    comps = sorted((tuple(sorted(c)) for c in nx.connected_components(g)), key=lambda c: c[0])
    return TopologyReport(components=tuple(comps))


def _peel_variants(g: nx.Graph, budget: int):
    """Yield ``g`` and its variants after peeling up to ``budget`` defects.

    Defect candidates are structural boundary artifacts of a truncated
    ladder: pendant nodes (degree 1) and triangle caps (degree-2 nodes whose
    two neighbors are adjacent).  Peeling is breadth-first over removal
    counts so the least-modified variant is tried first.  A variant copies
    its parent minus one node, keeping the node order the rung match reads.
    """
    seen = {frozenset(g)}
    frontier = [g]
    yield g
    for _ in range(budget):
        next_frontier = []
        for h in frontier:
            for v in sorted(h):
                deg = h.degree(v)
                if deg == 1 or (deg == 2 and h.has_edge(*h.neighbors(v))):
                    rest = frozenset(h) - {v}
                    if rest in seen or not rest:
                        continue
                    seen.add(rest)
                    sub = h.copy()
                    sub.remove_node(v)
                    next_frontier.append(sub)
                    yield sub
        frontier = next_frontier


def _match_ladder(g: nx.Graph):
    """Return the rung pairs if ``g`` is exactly a square ladder, else None."""
    size = g.number_of_nodes()
    if size < 4 or size % 2:
        return None
    k = size // 2
    if g.number_of_edges() != 3 * k - 2:
        return None
    degrees = sorted(d for _, d in g.degree())
    expected = sorted([2] * 4 + [3] * (size - 4)) if k > 2 else [2] * 4
    if degrees != expected:
        return None
    template = nx.ladder_graph(k)
    matcher = nx.isomorphism.GraphMatcher(template, g)
    if not matcher.is_isomorphic():
        return None
    mapping = matcher.mapping
    return tuple(sorted(tuple(sorted((mapping[r], mapping[r + k]))) for r in range(k)))


def _match_clique_chain(g: nx.Graph):
    """Return shared rung pairs if ``g`` is a chain of K4s glued on rungs.

    This is a square ladder with both diagonals in every cell: each cell's
    four nodes form a clique and consecutive cliques share exactly one rung
    edge.
    """
    size = g.number_of_nodes()
    if size < 4 or size % 2:
        return None
    cliques = [frozenset(c) for c in nx.find_cliques(g)]
    if any(len(c) != 4 for c in cliques):
        return None
    cells = len(cliques)
    if size != 2 * (cells + 1):
        return None
    if g.number_of_edges() != 6 * cells - (cells - 1):
        return None
    adjacency = {c: [] for c in cliques}
    shared_pairs = []
    for c1, c2 in combinations(cliques, 2):
        shared = c1 & c2
        if len(shared) > 2:
            return None
        if len(shared) == 2:
            pair = tuple(sorted(shared))
            if not g.has_edge(*pair):
                return None
            adjacency[c1].append(c2)
            adjacency[c2].append(c1)
            shared_pairs.append(pair)
    if cells > 1:
        deg = sorted(len(v) for v in adjacency.values())
        if deg != sorted([1, 1] + [2] * (cells - 2)):
            return None
        chain = nx.Graph((id(a), id(b)) for a, v in adjacency.items() for b in v)
        if not nx.is_connected(chain):
            return None
    return tuple(sorted(shared_pairs))


def _classify(g: nx.Graph):
    """Label and rung pairs of one component, from a single peel-and-match.

    Ladder matches take priority over clique chains; within each, the
    least-peeled variant that matches gives both the label and the rungs.
    """
    size = g.number_of_nodes()
    if size == 1:
        return TopologyLabel.ISOLATED, ()
    if size == 2 and g.number_of_edges() == 1:
        return TopologyLabel.PAIR, ()
    if max((d for _, d in g.degree()), default=0) <= 2 and nx.is_tree(g):
        return TopologyLabel.CHAIN, ()
    for label, match in (
        (TopologyLabel.SQUARE_LADDER, _match_ladder),
        (TopologyLabel.LADDER_WITH_DIAGONALS, _match_clique_chain),
    ):
        for variant in _peel_variants(g, BOUNDARY_DEFECT_BUDGET):
            rungs = match(variant)
            if rungs is not None:
                return label, rungs
    return TopologyLabel.OTHER, ()


def classify_topology(component, edges) -> TopologyLabel:
    """Structurally classify one connected component.

    Labels depend only on the edge structure (never on weights or on index
    arithmetic): single nodes are isolated, one edge over two nodes is a
    pair, an acyclic path is a chain, and ladder recognition tolerates up
    to two peeled boundary defects from the finite comb truncation.
    """
    nodes = sorted(set(component))
    if not nodes:
        raise InvalidArgumentError("a component needs at least one node")
    return _classify(_as_nx(nodes, edges))[0]


def topology_report(graph: CorrelationGraph) -> TopologyReport:
    """Full report: components, labels, and rung pairs for ladder types."""
    components = connected_components(graph).components
    results = [_classify(_as_nx(comp, graph.edges)) for comp in components]
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
    for idx, comp in enumerate(report.components):
        label = report.labels[idx].value if idx < len(report.labels) else ""
        lines.append(f"  subgraph cluster_{idx} {{")
        if label:
            lines.append(f'    label="{label}";')
        comp_set = set(comp)
        for node in comp:
            lines.append(f'    "{node}";')
        for node in comp:
            if node in loop_lookup:
                lines.append(f'    "{node}" -- "{node}" [label="{loop_lookup[node]:.1f}"];')
        for (i, j), w in sorted(edge_lookup.items()):
            if i in comp_set:
                lines.append(f'    "{i}" -- "{j}" [label="{w:.1f}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
