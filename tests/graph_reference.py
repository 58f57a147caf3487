"""Loop and three-pass references for graph extraction and classification.

These are the earlier implementations of ``extract_graph`` (a Python loop
over mode pairs) and of topology classification (one peel-and-match pass
for the label of each component, over ladders and then clique chains, and
another for its rungs, each variant rebuilt from a subgraph view), with
the components taken from networkx.  The tests require the package to
reproduce them exactly.
"""

from itertools import combinations

import networkx as nx
import numpy as np

from combscatter import GraphEdge, TopologyLabel, TopologyReport
from combscatter.graphs import BOUNDARY_DEFECT_BUDGET, mode_level_db


def extract_edges(db_matrix, grid, threshold_db):
    """(edges, self_loops) of the threshold graph, by a loop over mode pairs."""
    reduced = mode_level_db(db_matrix, grid)
    n, half = grid.n_modes, grid.half_span
    weights = np.maximum(reduced, reduced.T)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if weights[a, b] >= threshold_db:
                edges.append(GraphEdge(a - half, b - half, float(weights[a, b])))
    loops = [(a - half, float(reduced[a, a])) for a in range(n) if reduced[a, a] >= threshold_db]
    return tuple(edges), tuple(loops)


def _as_nx(nodes, edges):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from((e.i, e.j) for e in edges if e.i in g and e.j in g and e.i != e.j)
    return g


def _peel_variants(g, budget):
    seen = {frozenset(g.nodes)}
    frontier = [g]
    yield g
    for _ in range(budget):
        next_frontier = []
        for h in frontier:
            for v in sorted(h.nodes):
                deg = h.degree(v)
                if deg == 1 or (deg == 2 and h.has_edge(*tuple(h.neighbors(v)))):
                    rest = frozenset(h.nodes) - {v}
                    if rest in seen or not rest:
                        continue
                    seen.add(rest)
                    sub = nx.Graph(h.subgraph(rest))
                    next_frontier.append(sub)
                    yield sub
        frontier = next_frontier


def _match_ladder(g):
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
    matcher = nx.isomorphism.GraphMatcher(nx.ladder_graph(k), g)
    if not matcher.is_isomorphic():
        return None
    mapping = matcher.mapping
    return tuple(sorted(tuple(sorted((mapping[r], mapping[r + k]))) for r in range(k)))


def _match_clique_chain(g):
    size = g.number_of_nodes()
    if size < 4 or size % 2:
        return None
    cliques = [frozenset(c) for c in nx.find_cliques(g)]
    if any(len(c) != 4 for c in cliques):
        return None
    cells = len(cliques)
    if size != 2 * (cells + 1) or g.number_of_edges() != 6 * cells - (cells - 1):
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


def classify_topology(component, edges):
    nodes = sorted(set(component))
    g = _as_nx(nodes, edges)
    if len(nodes) == 1:
        return TopologyLabel.ISOLATED
    if len(nodes) == 2 and g.number_of_edges() == 1:
        return TopologyLabel.PAIR
    if max(dict(g.degree()).values(), default=0) <= 2 and nx.is_tree(g):
        return TopologyLabel.CHAIN
    for variant in _peel_variants(g, BOUNDARY_DEFECT_BUDGET):
        if _match_ladder(variant) is not None:
            return TopologyLabel.SQUARE_LADDER
    for variant in _peel_variants(g, BOUNDARY_DEFECT_BUDGET):
        if _match_clique_chain(variant) is not None:
            return TopologyLabel.LADDER_WITH_DIAGONALS
    return TopologyLabel.OTHER


def _component_rungs(component, edges, label):
    g = _as_nx(sorted(set(component)), edges)
    matcher = _match_ladder if label is TopologyLabel.SQUARE_LADDER else _match_clique_chain
    for variant in _peel_variants(g, BOUNDARY_DEFECT_BUDGET):
        rungs = matcher(variant)
        if rungs is not None:
            return rungs
    return ()


def components(graph):
    """Connected components as sorted tuples, ordered by smallest node."""
    g = _as_nx(graph.nodes, graph.edges)
    return tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(g)))


def topology_report(graph):
    comps = components(graph)
    labels, rungs = [], []
    for comp in comps:
        label = classify_topology(comp, graph.edges)
        labels.append(label)
        if label in (TopologyLabel.SQUARE_LADDER, TopologyLabel.LADDER_WITH_DIAGONALS):
            rungs.append(_component_rungs(comp, graph.edges, label))
        else:
            rungs.append(())
    return TopologyReport(components=comps, labels=tuple(labels), ladder_rungs=tuple(rungs))
