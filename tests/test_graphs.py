"""Graph extraction, components, topology classification, DOT export."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import graph_reference

from combscatter import (
    CorrelationGraph,
    GraphEdge,
    InvalidArgumentError,
    ModeGrid,
    TopologyLabel,
    export_dot,
    extract_graph,
    mode_level_db,
    topology_report,
)
from combscatter import graphs
from combscatter.datafiles import topology_report_dict
from combscatter.scattering import DB_FLOOR
from conftest import (
    RESONANCE,
    SPACING,
    balanced_scheme,
    same_bits_but_nan,
    simulated_db,
    special_float_matrices,
)


def make_graph(nodes, pairs, loops=(), threshold=-20.0):
    edges = tuple(GraphEdge(min(i, j), max(i, j), -5.0) for i, j in pairs)
    return CorrelationGraph(
        nodes=tuple(sorted(nodes)),
        edges=edges,
        self_loops=tuple((i, -8.0) for i in loops),
        threshold_db=threshold,
    )


def labels_of(nodes, pairs, loops=()):
    """The labels ``topology_report`` gives the graph of ``pairs`` on ``nodes``."""
    return topology_report(make_graph(nodes, pairs, loops)).labels


def ladder_pairs(rail_a, rail_b):
    pairs = set(zip(rail_a, rail_b))
    pairs |= set(zip(rail_a, rail_a[1:]))
    pairs |= set(zip(rail_b, rail_b[1:]))
    return pairs


@st.composite
def defect_graphs(draw, max_defects=3):
    """1-3 disjoint parts on shuffled labels: random small graphs, some with
    a cluster of 3-6 pendants, or square ladders and clique chains of 2-12
    cells carrying 0 to ``max_defects`` pendants or triangle caps."""
    pairs, size = set(), 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["ladder", "clique_chain", "random"]))
        if kind == "random":
            n = draw(st.integers(1, 8))
            local = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
            local = {(a, b) for a, b in local if a < b}
            if draw(st.booleans()):
                # pendant-heavy parts fan the peel out the most
                hubs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
                for _ in range(draw(st.integers(3, 6))):
                    local.add((draw(st.sampled_from(hubs)), n))
                    n += 1
        else:
            k = draw(st.integers(2, 12))
            rail_a, rail_b = list(range(k)), list(range(k, 2 * k))
            local = ladder_pairs(rail_a, rail_b)
            if kind == "clique_chain":
                local |= set(zip(rail_a, rail_b[1:])) | set(zip(rail_b, rail_a[1:]))
            n = 2 * k
            for _ in range(draw(st.integers(0, max_defects))):
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


@st.composite
def k4_chains(draw):
    """A chain of 1-7 K4 cells on shuffled labels, then at most one edge
    added or removed or one pendant.  Each next cell keeps a drawn pair of
    the current one other than the pair that cell shares with the one
    before, so a node may lie in three or more cells, as in a fan of K4s."""
    cell, kept, n = (0, 1, 2, 3), None, 4
    pairs = set(itertools.combinations(cell, 2))
    for _ in range(draw(st.integers(0, 6))):
        keep = draw(st.sampled_from([p for p in itertools.combinations(cell, 2) if p != kept]))
        cell, kept, n = (*keep, n, n + 1), keep, n + 2
        pairs |= set(itertools.combinations(cell, 2))
    change = draw(st.sampled_from(["none", "add", "remove", "pendant"]))
    if change == "add":
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        pairs.add((min(a, b), max(a, b)))
    elif change == "remove":
        pairs.discard(draw(st.sampled_from(sorted(pairs))))
    elif change == "pendant":
        pairs.add((draw(st.integers(0, n - 1)), n))
        n += 1
    labels = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n, unique=True))
    return make_graph(labels, [(labels[a], labels[b]) for a, b in pairs])


@st.composite
def random_graphs(draw):
    """Up to 25 nodes on labels -30..30 and a random edge set among them."""
    nodes = draw(st.lists(st.integers(-30, 30), unique=True, max_size=25))
    index = st.integers(0, max(len(nodes) - 1, 0))
    pairs = draw(st.sets(st.tuples(index, index), max_size=40))
    return make_graph(nodes, {(nodes[a], nodes[b]) for a, b in pairs if a < b})


# integer dB values make weights tie with the integer thresholds
DB_VALUES = st.one_of(st.integers(-45, 10).map(float), st.floats(-60.0, 10.0))


@st.composite
def db_matrices(draw, dim):
    """A (dim, dim) dB matrix of the values in ``DB_VALUES``, drawn from a seed.

    The seed fills the matrix with floats in [-60, 10], a drawn share of
    them replaced by integers in [-45, 10]; up to eight entries drawn from
    ``DB_VALUES`` itself then go at drawn positions.  Drawing a few numbers
    per matrix, not one per entry, keeps each example cheap.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    db = rng.uniform(-60.0, 10.0, (dim, dim))
    ties = rng.random((dim, dim)) < draw(st.floats(0.0, 1.0))
    db[ties] = rng.integers(-45, 11, int(ties.sum()))
    index = st.integers(0, dim - 1)
    for i, j, value in draw(st.lists(st.tuples(index, index, DB_VALUES), max_size=8)):
        db[i, j] = value
    return db


@pytest.fixture(scope="module")
def three_pump_db(grid, device):
    return {
        phase: simulated_db(
            grid, device, balanced_scheme(device, [-4, 0, 4], 0.085, [0.0, 0.0, phase])
        )
        for phase in (0.0, np.pi)
    }


class TestModeLevelReduction:
    def test_uses_cross_entries_on_diagonal(self, grid, device):
        db = simulated_db(grid, device, balanced_scheme(device, [0], 0.085))
        reduced = mode_level_db(db, grid)
        # reflection is ~0 dB but the diagonal keeps only degenerate squeezing
        center = grid.position(0)
        assert reduced[center, center] > -20.0  # mode 0 squeezes itself
        other = grid.position(5)
        assert reduced[other, other] < -100.0

    def test_offdiagonal_takes_block_max(self, grid, device):
        db = simulated_db(grid, device, balanced_scheme(device, [0], 0.085))
        reduced = mode_level_db(db, grid)
        i, j = grid.position(7), grid.position(-7)
        block = db[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
        assert reduced[i, j] == block.max()

    def test_dimension_checked(self, grid):
        with pytest.raises(Exception):
            mode_level_db(np.zeros((4, 4)), grid)

    @settings(max_examples=100, deadline=None)
    @given(special_float_matrices())
    def test_equals_reshape_reduction_bit_for_bit(self, m):
        n = m.shape[0] // 2
        grid = ModeGrid(RESONANCE, SPACING, (n - 1) // 2)
        if np.isnan(m).any():
            with pytest.raises(InvalidArgumentError, match="must not hold NaN"):
                mode_level_db(m, grid)
            return
        expected = m.reshape(n, 2, n, 2).max(axis=(1, 3))
        np.fill_diagonal(expected, np.maximum(m[::2, 1::2].diagonal(), m[1::2, ::2].diagonal()))
        assert same_bits_but_nan(mode_level_db(m, grid), expected)


class TestExtractGraph:
    def test_single_pump_perfect_matching(self, grid, device):
        db = simulated_db(grid, device, balanced_scheme(device, [0], 0.085))
        graph = extract_graph(db, grid, -20.0)
        # every mode j != 0 pairs with -j alone; mode 0 only with itself
        assert graph.edge_pairs() == {(-j, j) for j in grid.indices if j > 0}
        assert [i for i, _ in graph.self_loops] == [0]

    def test_threshold_above_everything_gives_edgeless(self, grid, device):
        db = simulated_db(grid, device, balanced_scheme(device, [0], 0.085))
        graph = extract_graph(db, grid, +50.0)
        assert graph.edges == ()

    @pytest.mark.parametrize("threshold", [DB_FLOOR, -300.0])
    def test_weights_at_the_floor_never_count(self, grid, device, threshold):
        db = simulated_db(grid, device, balanced_scheme(device, [0], 0.085))
        graph = extract_graph(db, grid, threshold)
        # the pairs off the 2 x 2 blocks clamp to the floor and stay out
        assert graph.edge_pairs() == {(-j, j) for j in grid.indices if j > 0}
        assert [i for i, _ in graph.self_loops] == [0]
        floor = np.full((2 * grid.n_modes, 2 * grid.n_modes), DB_FLOOR)
        floor[0, 3] = np.nextafter(DB_FLOOR, 0.0)
        graph = extract_graph(floor, grid, threshold)
        assert (graph.edge_pairs(), graph.self_loops) == ({(grid.indices[0], grid.indices[1])}, ())

    @pytest.mark.parametrize("threshold, edges", [(math.inf, 0), (-math.inf, 47)])
    def test_nan_threshold_rejected_and_infinities_keep_their_meaning(
        self, grid, device, threshold, edges
    ):
        db = simulated_db(grid, device, balanced_scheme(device, [0], 0.085))
        with pytest.raises(InvalidArgumentError, match="threshold_db must not be NaN"):
            extract_graph(db, grid, math.nan)
        assert len(extract_graph(db, grid, threshold).edges) == edges

    def test_three_pump_destructive_neighbor_sets(self, grid, device, three_pump_db):
        graph = extract_graph(three_pump_db[np.pi], grid, -20.0)
        expected = {
            (min(j, k), max(j, k))
            for j in grid.indices
            for k in (-4 - j, -j, 4 - j)
            if grid.contains(k) and k != j
        }
        assert graph.edge_pairs() == expected

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
        db = data.draw(db_matrices(2 * small.n_modes))
        graph = extract_graph(db, small, threshold)
        edges, loops = graph_reference.extract_edges(db, small, threshold)
        assert [(e.i, e.j) for e in graph.edges] == [(e.i, e.j) for e in edges]
        assert [e.weight_db.hex() for e in graph.edges] == [e.weight_db.hex() for e in edges]
        assert [(i, w.hex()) for i, w in graph.self_loops] == [(i, w.hex()) for i, w in loops]
        assert all(type(e.i) is type(e.j) is int for e in graph.edges)
        assert all(type(e.weight_db) is float for e in graph.edges)
        assert all(type(i) is int and type(w) is float for i, w in graph.self_loops)
        json.dumps(topology_report_dict(graph, topology_report(graph)))

    @settings(max_examples=100, deadline=None)
    @given(half_span=st.integers(0, 6), data=st.data())
    def test_a_nan_entry_raises(self, half_span, data):
        # a NaN weight compares false with every threshold, so it would
        # drop its mode pair; any entry, reflection or cross, raises
        small = ModeGrid(RESONANCE, SPACING, half_span)
        db = data.draw(db_matrices(2 * small.n_modes))
        index = st.integers(0, 2 * small.n_modes - 1)
        db[data.draw(index), data.draw(index)] = np.nan
        with pytest.raises(InvalidArgumentError, match="dB matrix must not hold NaN"):
            mode_level_db(db, small)
        with pytest.raises(InvalidArgumentError, match="dB matrix must not hold NaN"):
            extract_graph(db, small, -20.0)

    def test_nan_pair_of_an_all_floor_comb_raises(self):
        # every entry -100 dB and the (0, 3) entry NaN: the pair of modes
        # -1 and 0 used to drop out of the graph, which had no edge
        small = ModeGrid(RESONANCE, SPACING, 1)
        db = np.full((6, 6), -100.0)
        db[0, 3] = np.nan
        with pytest.raises(InvalidArgumentError, match="dB matrix must not hold NaN"):
            mode_level_db(db, small)
        with pytest.raises(InvalidArgumentError, match="dB matrix must not hold NaN"):
            extract_graph(db, small, -20.0)

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
        report = topology_report(graph)
        sizes = sorted(len(c) for c in report.components)
        assert sizes == [23, 24, 48]

    def test_two_pump_three_chains(self, grid, device):
        db = simulated_db(grid, device, balanced_scheme(device, [-2, 2], 0.085))
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
            db = simulated_db(small, device, balanced_scheme(device, [-4, 0, 4], 0.085))
            report = topology_report(extract_graph(db, small, -20.0))
            assert len(report.components) == 3

    def test_edgeless_graph_gives_singletons(self, grid, device):
        db = simulated_db(grid, device, balanced_scheme(device, [0], 0.085))
        graph = extract_graph(db, grid, +50.0)
        report = topology_report(graph)
        assert len(report.components) == grid.n_modes
        assert all(len(c) == 1 for c in report.components)

    @settings(max_examples=200, deadline=None)
    @given(graph=random_graphs())
    def test_equal_networkx_components(self, graph):
        assert topology_report(graph).components == graph_reference.components(graph)

    def test_ordering_by_smallest_node(self, grid, device, three_pump_db):
        graph = extract_graph(three_pump_db[np.pi], grid, -20.0)
        comps = topology_report(graph).components
        firsts = [c[0] for c in comps]
        assert firsts == sorted(firsts)
        assert all(list(c) == sorted(c) for c in comps)


class TestClassifyTopology:
    def test_isolated_and_pair(self):
        assert labels_of([3], []) == (TopologyLabel.ISOLATED,)
        assert labels_of([1, -1], [(1, -1)]) == (TopologyLabel.PAIR,)

    def test_node_less_graph_gives_empty_report(self):
        report = topology_report(make_graph([], []))
        assert (report.components, report.labels, report.ladder_rungs) == ((), (), ())

    def test_chain(self):
        nodes = list(range(6))
        assert labels_of(nodes, zip(nodes, nodes[1:])) == (TopologyLabel.CHAIN,)

    def test_synthetic_square_ladder(self):
        rail_a = list(range(0, 10))
        rail_b = list(range(100, 110))
        labels = labels_of(rail_a + rail_b, ladder_pairs(rail_a, rail_b))
        assert labels == (TopologyLabel.SQUARE_LADDER,)

    def test_ladder_with_cap_node_still_ladder(self):
        rail_a = list(range(0, 10))
        rail_b = list(range(100, 110))
        pairs = ladder_pairs(rail_a, rail_b) | {(500, 0), (500, 100)}
        nodes = rail_a + rail_b + [500]
        assert labels_of(nodes, pairs) == (TopologyLabel.SQUARE_LADDER,)

    def test_ladder_with_all_diagonals(self):
        rail_a = list(range(0, 8))
        rail_b = list(range(100, 108))
        pairs = ladder_pairs(rail_a, rail_b)
        pairs |= set(zip(rail_a, rail_b[1:]))
        pairs |= set(zip(rail_b, rail_a[1:]))
        nodes = rail_a + rail_b
        assert labels_of(nodes, pairs) == (TopologyLabel.LADDER_WITH_DIAGONALS,)

    def test_four_cycle_pairs_smallest_node_with_its_larger_neighbor(self):
        for cycle in itertools.permutations((-3, 0, 2, 7)):
            pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
            at = cycle.index(-3)
            partner = max(cycle[at - 1], cycle[(at + 1) % 4])
            expected = ((-3, partner), tuple(sorted({0, 2, 7} - {partner})))
            for order in itertools.permutations(pairs):
                report = topology_report(make_graph(cycle, order))
                assert report.labels == (TopologyLabel.SQUARE_LADDER,)
                assert report.ladder_rungs == (expected,)

    def test_ladders_of_three_or_more_rungs_give_their_unique_rungs(self):
        rng = np.random.default_rng(11)
        for k in range(3, 13):
            labels = rng.permutation(np.arange(-50, 50))[: 2 * k].tolist()
            rail_a, rail_b = labels[:k], labels[k:]
            pairs = sorted(ladder_pairs(rail_a, rail_b))
            order = rng.permutation(len(pairs))
            report = topology_report(make_graph(labels, [pairs[i] for i in order]))
            assert report.labels == (TopologyLabel.SQUARE_LADDER,)
            rungs = tuple(sorted((min(a, b), max(a, b)) for a, b in zip(rail_a, rail_b)))
            assert report.ladder_rungs == (rungs,)

    def test_single_k4_is_a_ladder_with_diagonals_without_shared_rungs(self):
        nodes = [-5, 1, 4, 9]
        report = topology_report(make_graph(nodes, itertools.combinations(nodes, 2)))
        assert report.labels == (TopologyLabel.LADDER_WITH_DIAGONALS,)
        assert report.ladder_rungs == ((),)

    def test_k4_chain_whose_cells_share_a_hub_node(self):
        # cells abpq, abcd and bcrs: b lies in all three
        cells = ("abpq", "abcd", "bcrs")
        pairs = {p for cell in cells for p in itertools.combinations(cell, 2)}
        # the first labelling starts at p and q; in the second d, with no
        # degree-3 neighbor, is the smallest node
        for labels in (dict(zip("pqabcdrs", range(8))), dict(zip("dpqabcrs", range(8)))):
            graph = make_graph(labels.values(), [(labels[u], labels[v]) for u, v in pairs])
            report = topology_report(graph)
            assert report.labels == (TopologyLabel.LADDER_WITH_DIAGONALS,)
            rungs = tuple(sorted(tuple(sorted((labels[u], labels[v]))) for u, v in ("ab", "bc")))
            assert report.ladder_rungs == (rungs,)
            assert report == graph_reference.topology_report(graph)

    @settings(max_examples=200, deadline=None)
    @given(graph=k4_chains())
    def test_k4_chains_equal_the_reference(self, graph):
        assert topology_report(graph) == graph_reference.topology_report(graph)

    def test_k4_chain_with_a_chord_is_not_a_ladder_with_diagonals(self):
        rail_a, rail_b = [0, 1, 2, 3], [4, 5, 6, 7]
        chain = ladder_pairs(rail_a, rail_b) | set(zip(rail_a, rail_b[1:]))
        chain |= set(zip(rail_b, rail_a[1:]))
        nodes = rail_a + rail_b
        assert labels_of(nodes, chain) == (TopologyLabel.LADDER_WITH_DIAGONALS,)
        # one chord more, and one chord in place of a diagonal (same edge count)
        for pairs in (chain | {(0, 7)}, chain - {(0, 5)} | {(0, 7)}):
            graph = make_graph(nodes, pairs)
            report = topology_report(graph)
            assert report.labels == (TopologyLabel.OTHER,)
            assert report == graph_reference.topology_report(graph)

    def test_walks_that_leave_the_template_are_rejected(self):
        # a 3-rung ladder's counts and degrees, but node 2 steps to two nodes
        ladder_like = [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (4, 5)]
        # the same counts and degrees, but corner 0 has no degree-2 neighbor
        capped_cycle = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5)]
        # a 4-cell K4 chain's counts, but the walk fans out to three nodes twice
        chain_like = [
            (0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4), (2, 5), (2, 6), (3, 6),
            (3, 7), (4, 5), (4, 7), (5, 6), (5, 8), (5, 9), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
        ]
        # K4 chains' counts, with p and q (nodes 0 and 1) of degree 3 as at an
        # end; cells pqab and abcd, then one break each
        chain = "pq pa pb qa qb ab ac ad bc bd cd"
        broken = (
            chain.replace("qa", "qc"),  # the first cell misses qa
            chain.replace(" cd", "") + " ce cf de df ef ae",  # the pair c, d is not adjacent
            chain + " ec ed fc fb ef",  # the new pair e, f shares only c as a rung
            # three new nodes c, d, e reach rung ab, and then f, g, h rung cd
            "pq pa pb qa qb ab ac ad ae bc bd be cd de fc fd gc gd hc hd fg",
            # g and h each touch one node of a cell, so the walk never reaches them
            chain + " ce cf de df ef gh ga ge hb hf",
        )
        labels = {node: i for i, node in enumerate("pqabcdefgh")}
        lettered = [[(labels[u], labels[v]) for u, v in edges.split()] for edges in broken]
        for pairs in (ladder_like, capped_cycle, chain_like, *lettered):
            graph = make_graph(range(max(map(max, pairs)) + 1), pairs)
            report = topology_report(graph)
            assert report.labels == (TopologyLabel.OTHER,)
            assert report == graph_reference.topology_report(graph)

    def test_ladder_beside_a_k4_is_not_one_ladder(self):
        # 10 nodes, 13 edges and four degree-2 corners, like a 5-rung ladder
        rail_a, rail_b, clique = [0, 1, 2], [3, 4, 5], [6, 7, 8, 9]
        pairs = ladder_pairs(rail_a, rail_b) | set(itertools.combinations(clique, 2))
        report = topology_report(make_graph(rail_a + rail_b + clique, pairs))
        assert report.components == (tuple(rail_a + rail_b), tuple(clique))
        assert report.labels == (
            TopologyLabel.SQUARE_LADDER, TopologyLabel.LADDER_WITH_DIAGONALS
        )

    def test_other_for_dense_junk(self):
        nodes = list(range(7))
        pairs = [(i, j) for i in nodes for j in nodes if i < j]  # complete graph K7
        assert labels_of(nodes, pairs) == (TopologyLabel.OTHER,)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(31)
        rail_a = list(range(0, 12))
        rail_b = list(range(12, 24))
        pairs = ladder_pairs(rail_a, rail_b)
        relabel = dict(zip(range(24), rng.permutation(np.arange(1000, 1024))))
        moved = [(int(relabel[i]), int(relabel[j])) for i, j in pairs]
        assert labels_of(relabel.values(), moved) == (TopologyLabel.SQUARE_LADDER,)

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
        assert topology_report(graph) == graph_reference.topology_report(graph)

    @settings(max_examples=300, deadline=None)
    @given(graph=st.one_of(random_graphs(), defect_graphs(max_defects=2)))
    def test_counting_rules_out_only_what_no_variant_matches(self, graph):
        # a component whose peelable counts fit neither template is OTHER
        # before any peel variant is enumerated; the reference enumerates
        # and matches every variant
        report = topology_report(graph)
        expected = graph_reference.topology_report(graph)
        assert report == expected
        pairs = graph.edge_pairs()
        for comp, label in zip(expected.components, expected.labels):
            members = set(comp)
            edges = sum(i in members and j in members for i, j in pairs)
            if len(comp) > 2 and not graphs._some_variant_counts(len(comp), edges):
                event("ruled out by counting")
                assert label in (TopologyLabel.CHAIN, TopologyLabel.OTHER)

    def test_self_loops_do_not_affect_labels(self):
        assert labels_of([1, -1], [(1, -1)], loops=[1, -1]) == (TopologyLabel.PAIR,)


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

    def test_each_cluster_lists_its_own_edges_in_order(self):
        # two interleaved components, edges given out of order
        g = make_graph(range(-3, 4), [(2, 0), (-3, 3), (-2, 0), (-1, 1), (-3, 1)])
        report = topology_report(g)
        clusters = export_dot(g, report).split("subgraph")[1:]
        assert len(clusters) == len(report.components)
        for comp, cluster in zip(report.components, clusters):
            edges = [line.split(" [")[0].strip() for line in cluster.splitlines() if "--" in line]
            expected = sorted((e.i, e.j) for e in g.edges if e.i in comp)
            assert edges == [f'"{i}" -- "{j}"' for i, j in expected]

    def test_self_loops_rendered(self):
        g = make_graph([0, 1, -1], [(1, -1)], loops=[0])
        text = export_dot(g, topology_report(g))
        assert '"0" -- "0"' in text
