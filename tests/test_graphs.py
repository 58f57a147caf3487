"""Graph extraction, components, topology classification, DOT export."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import graph_reference

from combscatter import (
    CorrelationGraph,
    GraphEdge,
    InvalidArgumentError,
    ModeGrid,
    TopologyLabel,
    classify_topology,
    connected_components,
    export_dot,
    extract_graph,
    mode_level_db,
    pump_off_normalized_db,
    topology_report,
)
from combscatter.datafiles import topology_report_dict
from conftest import RESONANCE, SPACING, balanced_scheme


def make_graph(nodes, pairs, loops=(), threshold=-20.0):
    edges = tuple(GraphEdge(min(i, j), max(i, j), -5.0) for i, j in pairs)
    return CorrelationGraph(
        nodes=tuple(sorted(nodes)),
        edges=edges,
        self_loops=tuple((i, -8.0) for i in loops),
        threshold_db=threshold,
    )


def ladder_pairs(rail_a, rail_b):
    pairs = set(zip(rail_a, rail_b))
    pairs |= set(zip(rail_a, rail_a[1:]))
    pairs |= set(zip(rail_b, rail_b[1:]))
    return pairs


@st.composite
def defect_graphs(draw):
    """1-3 disjoint parts on shuffled labels: random small graphs, or square
    ladders and clique chains carrying 0-3 pendants or triangle caps."""
    pairs, size = set(), 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["ladder", "clique_chain", "random"]))
        if kind == "random":
            n = draw(st.integers(1, 8))
            local = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
            local = {(a, b) for a, b in local if a < b}
        else:
            k = draw(st.integers(2, 6))
            rail_a, rail_b = list(range(k)), list(range(k, 2 * k))
            local = ladder_pairs(rail_a, rail_b)
            if kind == "clique_chain":
                local |= set(zip(rail_a, rail_b[1:])) | set(zip(rail_b, rail_a[1:]))
            n = 2 * k
            for _ in range(draw(st.integers(0, 3))):
                if draw(st.booleans()):
                    local.add((draw(st.integers(0, n - 1)), n))
                else:
                    a, b = draw(st.sampled_from(sorted(local)))
                    local |= {(a, n), (b, n)}
                n += 1
        pairs |= {(a + size, b + size) for a, b in local}
        size += n
    labels = draw(st.lists(st.integers(-60, 60), min_size=size, max_size=size, unique=True))
    return make_graph(labels, [(labels[a], labels[b]) for a, b in pairs])


@pytest.fixture(scope="module")
def three_pump_db(grid, device):
    return {
        phase: pump_off_normalized_db(
            grid, device, balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, phase])
        )
        for phase in (0.0, np.pi)
    }


class TestModeLevelReduction:
    def test_uses_cross_entries_on_diagonal(self, grid, device):
        db = pump_off_normalized_db(grid, device, balanced_scheme(device, [0], 0.085))
        reduced = mode_level_db(db, grid)
        # reflection is ~0 dB but the diagonal keeps only degenerate squeezing
        center = grid.position(0)
        assert reduced[center, center] > -20.0  # mode 0 squeezes itself
        other = grid.position(5)
        assert reduced[other, other] < -100.0

    def test_offdiagonal_takes_block_max(self, grid, device):
        db = pump_off_normalized_db(grid, device, balanced_scheme(device, [0], 0.085))
        reduced = mode_level_db(db, grid)
        i, j = grid.position(7), grid.position(-7)
        block = db[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
        assert reduced[i, j] == block.max()

    def test_dimension_checked(self, grid):
        with pytest.raises(Exception):
            mode_level_db(np.zeros((4, 4)), grid)


class TestExtractGraph:
    def test_single_pump_perfect_matching(self, grid, device):
        db = pump_off_normalized_db(grid, device, balanced_scheme(device, [0], 0.085))
        graph = extract_graph(db, grid, -20.0)
        for j in grid.indices:
            if j == 0:
                assert graph.neighbors(j) == ()
            else:
                assert graph.neighbors(j) == (-j,)
        assert [i for i, _ in graph.self_loops] == [0]

    def test_threshold_above_everything_gives_edgeless(self, grid, device):
        db = pump_off_normalized_db(grid, device, balanced_scheme(device, [0], 0.085))
        graph = extract_graph(db, grid, +50.0)
        assert graph.edges == ()

    def test_three_pump_destructive_neighbor_sets(self, grid, device, three_pump_db):
        graph = extract_graph(three_pump_db[np.pi], grid, -20.0)
        for j in grid.indices:
            expected = {k for k in (-4 - j, -j, 4 - j) if grid.contains(k) and k != j}
            assert set(graph.neighbors(j)) == expected

    def test_monotone_in_threshold(self, grid, device, three_pump_db):
        tighter = extract_graph(three_pump_db[np.pi], grid, -20.0).edge_pairs()
        looser = extract_graph(three_pump_db[np.pi], grid, -26.0).edge_pairs()
        assert looser >= tighter

    def test_minus_26_db_adds_next_nearest_neighbors(self, grid, device, three_pump_db):
        at_20 = extract_graph(three_pump_db[np.pi], grid, -20.0).edge_pairs()
        at_26 = extract_graph(three_pump_db[np.pi], grid, -26.0).edge_pairs()
        added = at_26 - at_20
        assert (1, 9) in added
        assert (-7, 1) in added

    @settings(max_examples=150, deadline=None)
    @given(
        half_span=st.integers(0, 6),
        data=st.data(),
        threshold=st.integers(-40, 5).map(float),
    )
    def test_equals_loop_reference(self, half_span, data, threshold):
        small = ModeGrid(RESONANCE, SPACING, half_span)
        dim = 2 * small.n_modes
        # integer dB values make weights tie with the threshold
        values = st.one_of(
            st.integers(-45, 10).map(float), st.floats(-60.0, 10.0), st.just(np.nan)
        )
        db = data.draw(arrays(float, (dim, dim), elements=values))
        graph = extract_graph(db, small, threshold)
        edges, loops = graph_reference.extract_edges(db, small, threshold)
        assert [(e.i, e.j) for e in graph.edges] == [(e.i, e.j) for e in edges]
        assert [e.weight_db.hex() for e in graph.edges] == [e.weight_db.hex() for e in edges]
        assert [(i, w.hex()) for i, w in graph.self_loops] == [(i, w.hex()) for i, w in loops]
        assert all(type(e.i) is type(e.j) is int for e in graph.edges)
        assert all(type(e.weight_db) is float for e in graph.edges)
        assert all(type(i) is int and type(w) is float for i, w in graph.self_loops)
        json.dumps(topology_report_dict(graph, topology_report(graph)))

    def test_edges_stored_sorted_with_max_weight(self, grid, device, three_pump_db):
        graph = extract_graph(three_pump_db[np.pi], grid, -20.0)
        reduced = mode_level_db(three_pump_db[np.pi], grid)
        for e in graph.edges:
            assert e.i < e.j
            a, b = grid.position(e.i), grid.position(e.j)
            assert e.weight_db == max(reduced[a, b], reduced[b, a])


class TestConnectedComponents:
    def test_three_pump_components(self, grid, device, three_pump_db):
        graph = extract_graph(three_pump_db[np.pi], grid, -20.0)
        report = connected_components(graph)
        sizes = sorted(len(c) for c in report.components)
        assert sizes == [23, 24, 48]

    def test_two_pump_three_chains(self, grid, device):
        db = pump_off_normalized_db(grid, device, balanced_scheme(device, [-2, 2], 0.085))
        graph = extract_graph(db, grid, -20.0)
        report = topology_report(graph)
        assert len(report.components) == 3
        assert all(label is TopologyLabel.CHAIN for label in report.labels)
        evens = [c for c in report.components if 0 in c]
        assert len(evens[0]) == 47
        odd_comps = [c for c in report.components if 0 not in c]
        assert all(all(j % 2 for j in c) for c in odd_comps)

    def test_three_pump_component_count_for_any_span(self, device):
        for half_span in (6, 9, 13, 20, 33):
            small = ModeGrid(RESONANCE, SPACING, half_span)
            db = pump_off_normalized_db(
                small, device, balanced_scheme(device, [-4, 0, 4], 0.085)
            )
            report = connected_components(extract_graph(db, small, -20.0))
            assert len(report.components) == 3

    def test_edgeless_graph_gives_singletons(self, grid, device):
        db = pump_off_normalized_db(grid, device, balanced_scheme(device, [0], 0.085))
        graph = extract_graph(db, grid, +50.0)
        report = connected_components(graph)
        assert len(report.components) == grid.n_modes
        assert all(len(c) == 1 for c in report.components)

    def test_ordering_by_smallest_node(self, grid, device, three_pump_db):
        graph = extract_graph(three_pump_db[np.pi], grid, -20.0)
        comps = connected_components(graph).components
        firsts = [c[0] for c in comps]
        assert firsts == sorted(firsts)
        assert all(list(c) == sorted(c) for c in comps)


class TestClassifyTopology:
    def test_isolated_and_pair(self):
        g = make_graph([3], [])
        assert classify_topology((3,), g.edges) is TopologyLabel.ISOLATED
        g = make_graph([1, -1], [(1, -1)])
        assert classify_topology((1, -1), g.edges) is TopologyLabel.PAIR

    def test_empty_component_rejected(self):
        with pytest.raises(InvalidArgumentError, match="at least one node"):
            classify_topology((), ())

    def test_node_less_graph_gives_empty_report(self):
        report = topology_report(make_graph([], []))
        assert (report.components, report.labels, report.ladder_rungs) == ((), (), ())

    def test_chain(self):
        nodes = list(range(6))
        g = make_graph(nodes, list(zip(nodes, nodes[1:])))
        assert classify_topology(nodes, g.edges) is TopologyLabel.CHAIN

    def test_synthetic_square_ladder(self):
        rail_a = list(range(0, 10))
        rail_b = list(range(100, 110))
        g = make_graph(rail_a + rail_b, ladder_pairs(rail_a, rail_b))
        assert classify_topology(rail_a + rail_b, g.edges) is TopologyLabel.SQUARE_LADDER

    def test_ladder_with_cap_node_still_ladder(self):
        rail_a = list(range(0, 10))
        rail_b = list(range(100, 110))
        pairs = ladder_pairs(rail_a, rail_b) | {(500, 0), (500, 100)}
        nodes = rail_a + rail_b + [500]
        g = make_graph(nodes, pairs)
        assert classify_topology(nodes, g.edges) is TopologyLabel.SQUARE_LADDER

    def test_ladder_with_all_diagonals(self):
        rail_a = list(range(0, 8))
        rail_b = list(range(100, 108))
        pairs = ladder_pairs(rail_a, rail_b)
        pairs |= set(zip(rail_a, rail_b[1:]))
        pairs |= set(zip(rail_b, rail_a[1:]))
        nodes = rail_a + rail_b
        g = make_graph(nodes, pairs)
        assert classify_topology(nodes, g.edges) is TopologyLabel.LADDER_WITH_DIAGONALS

    def test_other_for_dense_junk(self):
        nodes = list(range(7))
        pairs = [(i, j) for i in nodes for j in nodes if i < j]  # complete graph K7
        g = make_graph(nodes, pairs)
        assert classify_topology(nodes, g.edges) is TopologyLabel.OTHER

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(31)
        rail_a = list(range(0, 12))
        rail_b = list(range(12, 24))
        pairs = ladder_pairs(rail_a, rail_b)
        relabel = dict(zip(range(24), rng.permutation(np.arange(1000, 1024))))
        moved = [(int(relabel[i]), int(relabel[j])) for i, j in pairs]
        g = make_graph(list(relabel.values()), moved)
        label = classify_topology(list(relabel.values()), g.edges)
        assert label is TopologyLabel.SQUARE_LADDER

    def test_three_pump_labels(self, grid, device, three_pump_db):
        for phase, expected in ((np.pi, TopologyLabel.SQUARE_LADDER),
                                (0.0, TopologyLabel.LADDER_WITH_DIAGONALS)):
            graph = extract_graph(three_pump_db[phase], grid, -20.0)
            report = topology_report(graph)
            assert all(label is expected for label in report.labels)

    def test_rungs_reported_for_ladders(self, grid, device, three_pump_db):
        graph = extract_graph(three_pump_db[np.pi], grid, -20.0)
        report = topology_report(graph)
        for comp, rungs in zip(report.components, report.ladder_rungs):
            assert rungs
            # every reported rung is an edge inside the component
            pairs = graph.edge_pairs()
            for i, j in rungs:
                assert (min(i, j), max(i, j)) in pairs

    @settings(max_examples=300, deadline=None)
    @given(graph=defect_graphs())
    def test_single_pass_equals_three_pass_reference(self, graph):
        report = topology_report(graph)
        assert report == graph_reference.topology_report(graph)
        for comp, label in zip(report.components, report.labels):
            assert classify_topology(comp[::-1], graph.edges) is label

    def test_self_loops_do_not_affect_labels(self):
        g = make_graph([1, -1], [(1, -1)], loops=[1, -1])
        assert classify_topology((1, -1), g.edges) is TopologyLabel.PAIR


class TestExportDot:
    def test_deterministic_bytes(self, grid, device, three_pump_db):
        graph = extract_graph(three_pump_db[np.pi], grid, -20.0)
        report = topology_report(graph)
        assert export_dot(graph, report) == export_dot(graph, report)

    def test_edgeless_lists_isolated_nodes(self):
        g = make_graph([1, 2, 3], [])
        text = export_dot(g, topology_report(g))
        for node in (1, 2, 3):
            assert f'"{node}";' in text
        assert "--" not in text

    def test_pair_edge_label_rounded(self):
        g = CorrelationGraph(
            nodes=(-3, -1, 1),
            edges=(GraphEdge(-1, 1, -3.24),),
            self_loops=(),
            threshold_db=-20.0,
        )
        text = export_dot(g, topology_report(g))
        assert '"-1" -- "1" [label="-3.2"];' in text

    def test_self_loops_rendered(self):
        g = make_graph([0, 1, -1], [(1, -1)], loops=[0])
        text = export_dot(g, topology_report(g))
        assert '"0" -- "0"' in text
