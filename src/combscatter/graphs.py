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
node, built once per report, gives the components by breadth-first search.
A component's peel variants are enumerated once, as sets of removed nodes,
and both matchers share them.  Each variant's size, edge count and degrees
come from the adjacency and the removed set, and a networkx graph is built
only for a variant that meets a matcher's necessary conditions; networkx
itself serves only the two matchers (VF2 isomorphism and maximal cliques).
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

    The block maximum is taken over the four strided views, one per block
    position, instead of a reduction over a reshaped array.
    """
    m = np.asarray(db_matrix, dtype=float)
    n = grid.n_modes
    if m.shape != (2 * n, 2 * n):
        raise InvalidArgumentError(f"dB matrix must be {2 * n}x{2 * n} for this grid")
    reduced = np.maximum(
        np.maximum(m[0::2, 0::2], m[0::2, 1::2]), np.maximum(m[1::2, 0::2], m[1::2, 1::2])
    )
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


def connected_components(graph: CorrelationGraph) -> TopologyReport:
    """Connected components, ordered by smallest contained mode index."""
    return TopologyReport(components=_components(_adjacency(graph.nodes, graph.edges)))


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


def _ladder_admits(adj, nodes, removed, size: int, edges: int) -> bool:
    """The size, edge count and degree conditions ``_match_ladder`` relies on."""
    if size < 4 or size % 2 or edges != 3 * (size // 2) - 2:
        return False
    degrees = sorted(
        sum(u not in removed for u in adj[v]) for v in nodes if v not in removed
    )
    return degrees == [2] * 4 + [3] * (size - 4)


def _clique_chain_admits(adj, nodes, removed, size: int, edges: int) -> bool:
    """The size and edge conditions ``_match_clique_chain`` relies on: k
    cells have 2(k + 1) nodes and 5k + 1 edges."""
    return size >= 4 and size % 2 == 0 and 2 * edges == 5 * size - 8


def _materialize(adj, nodes, removed) -> nx.Graph:
    """One variant as a networkx graph.

    Nodes go in component order and edges in adjacency order, as copying
    the component's graph and deleting the removed nodes would give them;
    VF2 follows the node order, so the rungs it picks stay the same.
    """
    kept = [v for v in nodes if v not in removed]
    g = nx.Graph()
    g.add_nodes_from(kept)
    g.add_edges_from((v, u) for v in kept for u in adj[v] if u not in removed)
    return g


def _match_ladder(g: nx.Graph):
    """Return the rung pairs if ``g`` is exactly a square ladder, else None.

    ``g`` must pass ``_ladder_admits``: an even size of at least 4, the
    ladder's edge count and its degree multiset.
    """
    k = g.number_of_nodes() // 2
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
    edge.  ``g`` must pass ``_clique_chain_admits``: an even size of at
    least 4 and the edge count of a chain of that many nodes.
    """
    size = g.number_of_nodes()
    cliques = [frozenset(c) for c in nx.find_cliques(g)]
    if any(len(c) != 4 for c in cliques):
        return None
    cells = len(cliques)
    # with 2(cells + 1) nodes the admitted edge count is 5 * cells + 1
    if size != 2 * (cells + 1):
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


def _classify(adj, nodes):
    """Label and rung pairs of one component, from a single peel-and-match.

    ``nodes`` is sorted and ``adj`` holds every edge among them.  The peel
    variants are enumerated once, as removed-node sets, and each carries its
    size and edge count.  Ladder matches take priority over clique chains;
    within each, the least-peeled variant that matches gives both the label
    and the rungs.  A networkx graph is built only for a variant that passes
    the matcher's size, edge and degree conditions.
    """
    size = len(nodes)
    edges = sum(len(adj[v]) for v in nodes) // 2
    if size == 1:
        return TopologyLabel.ISOLATED, ()
    if size == 2 and edges == 1:
        return TopologyLabel.PAIR, ()
    # classify_topology may pass nodes that are not all connected
    if (
        max(len(adj[v]) for v in nodes) <= 2
        and edges == size - 1
        and len(_reach(adj, nodes[0])) == size
    ):
        return TopologyLabel.CHAIN, ()
    variants = []
    for removed in _peel_variants(adj, nodes, BOUNDARY_DEFECT_BUDGET):
        # an edge between two removed nodes is counted in both their degrees
        inner = sum(u in removed for r in removed for u in adj[r]) // 2
        lost = sum(len(adj[r]) for r in removed) - inner
        variants.append((removed, size - len(removed), edges - lost))
    for label, admits, match in (
        (TopologyLabel.SQUARE_LADDER, _ladder_admits, _match_ladder),
        (TopologyLabel.LADDER_WITH_DIAGONALS, _clique_chain_admits, _match_clique_chain),
    ):
        for removed, variant_size, variant_edges in variants:
            if admits(adj, nodes, removed, variant_size, variant_edges):
                rungs = match(_materialize(adj, nodes, removed))
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
    return _classify(_adjacency(nodes, edges), nodes)[0]


def topology_report(graph: CorrelationGraph) -> TopologyReport:
    """Full report: components, labels, and rung pairs for ladder types."""
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
