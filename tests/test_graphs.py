import copy
import json
import pickle
import random

import pytest

from matchpoly.errors import (
    BadSize,
    BadVertex,
    DuplicateEdge,
    NotATree,
    SelfLoop,
    UnknownBuiltin,
)
from matchpoly.graphs import (
    Graph,
    builtin,
    count_trees,
    enumerate_trees,
    labeled_tree_code,
    load_graph,
    path_graph,
    star_graph,
)

from .oracles import TREE_COUNTS, labeled_trees, prufer_class_codes


class TestLoadGraph:
    def test_p2(self):
        g = load_graph('{"n":2,"edges":[[0,1]]}')
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            load_graph('{"n":2,"edges":[[0,1],[1,0]]}')

    def test_bad_vertex(self):
        with pytest.raises(BadVertex):
            load_graph('{"n":3,"edges":[[0,3]]}')

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            load_graph('{"n":3,"edges":[[1,1]]}')

    def test_labels_roundtrip(self):
        g = load_graph('{"n":2,"edges":[[0,1]],"labels":["a","b"]}')
        assert g.label(0) == "a"
        assert json.loads(json.dumps(g.to_json())) == g.to_json()

    def test_duplicate_labels(self):
        with pytest.raises(BadVertex):
            load_graph('{"n":3,"edges":[[0,1],[1,2]],"labels":["a","a","b"]}')
        with pytest.raises(BadVertex):
            Graph(2, [(0, 1)], labels=[1, "1"])  # equal once made strings
        assert Graph(2, [(0, 1)], labels=[1, "2"]).labels == ("1", "2")

    def test_bad_n(self):
        with pytest.raises(BadSize):
            load_graph('{"n":-1,"edges":[]}')
        with pytest.raises(BadSize):
            load_graph('{"edges":[]}')


class TestBuiltins:
    def test_path(self):
        g = builtin("P:7")
        assert g.n == 7 and g.m == 6
        assert all(g.degree(v) <= 2 for v in range(7))

    def test_star(self):
        g = builtin("star:4")
        assert g.n == 4 and g.m == 3
        assert g.degree(0) == 3

    def test_t9_shape(self):
        g = builtin("paper:T9")
        assert g.n == 9 and g.m == 8
        leaves = {g.label(v) for v in range(9) if g.degree(v) == 1}
        assert leaves == {"v1", "v8", "v9"}

    def test_g14_shape(self):
        g = builtin("paper:G14")
        assert g.n == 14 and g.m == 17
        comps = g.component_vertex_sets()
        assert len(comps) == 1
        # each 7-vertex half has a hamiltonian path via its chords
        order = ["t2", "t1", "t3", "t4", "t5", "t7", "t6"]
        ids = {g.label(v): v for v in range(14)}
        for a, b in zip(order, order[1:]):
            assert g.has_edge(ids[a], ids[b])

    def test_unknown(self):
        for name in ("Q:3", "paper:T10", "star:", "P:x", "nope"):
            with pytest.raises(UnknownBuiltin):
                builtin(name)

    def test_size_validation(self):
        with pytest.raises(BadSize):
            path_graph(0)
        with pytest.raises(BadSize):
            star_graph(0)


class TestSubgraphs:
    def test_delete_endpoint_of_path(self):
        g = path_graph(7)
        sub, kept = g.delete_vertices([6])
        assert sub == path_graph(6)
        assert kept == (0, 1, 2, 3, 4, 5)

    def test_delete_center_of_t9(self):
        g = builtin("paper:T9")
        sub, kept = g.delete_vertices([4])
        comps = [c.n for c, _ in sub.components()]
        assert sorted(comps) == [2, 2, 4]

    def test_delete_nothing(self):
        g = builtin("paper:T9")
        sub, kept = g.delete_vertices([])
        assert sub == g and kept == tuple(range(9))

    def test_delete_out_of_range(self):
        with pytest.raises(BadVertex):
            path_graph(3).delete_vertices([5])

    def test_edge_filtering(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, kept = g.delete_vertices([2])
        assert kept == (0, 1, 3, 4)
        assert sub.edges == ((0, 1), (2, 3))

    def test_components_order_and_maps(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        comps = g.components()
        assert [c.n for c, _ in comps] == [2, 3]
        assert [kept for _, kept in comps] == [(0, 1), (2, 3, 4)]

    def test_components_edgeless(self):
        g = Graph(3)
        assert [c.n for c, _ in g.components()] == [1, 1, 1]

    def test_connected_graph_single_component(self):
        g = builtin("paper:G14")
        assert [c.n for c, _ in g.components()] == [14]


def _random_relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


class TestComponentCache:
    def test_survives_pickle_copy_and_deepcopy(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)], labels="abcdef")
        comps = g.component_vertex_sets()
        assert comps == ((0, 1, 2), (3, 4), (5,))
        assert g.component_vertex_sets() is comps
        for clone in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert clone == g and hash(clone) == hash(g)
            assert clone.labels == g.labels
            assert clone.component_vertex_sets() == comps
            assert clone.is_forest and not clone.is_connected
            assert clone.canonical_code() == g.canonical_code()
            assert [kept for _, kept in clone.components()] == list(comps)

    def test_connected_graph_is_its_own_component(self):
        g = builtin("paper:G14")
        [(sub, kept)] = g.components()
        assert sub is g and kept == tuple(range(14))


class TestCanonicalCode:
    def test_relabel_invariance(self):
        rng = random.Random(2024)
        for n in range(1, 10):
            for g in enumerate_trees(n):
                code = g.canonical_code()
                for _ in range(100):
                    edges = _random_relabel(rng, n, g.edges)
                    assert labeled_tree_code(n, edges) == code

    def test_distinguishes_nonisomorphic(self):
        assert labeled_tree_code(4, [(0, 1), (1, 2), (2, 3)]) != labeled_tree_code(
            4, [(0, 1), (0, 2), (0, 3)]
        )

    def test_forest_code_is_component_sorted(self):
        g1 = Graph(5, [(0, 1), (2, 3), (3, 4)])
        g2 = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert g1.canonical_code() == g2.canonical_code()

    def test_non_forest_rejected(self):
        with pytest.raises(NotATree):
            Graph(3, [(0, 1), (1, 2), (0, 2)]).canonical_code()


class TestCanonicalCodeCache:
    """The code is kept on the graph but stays a cache: a pure function of
    the edges, outside equality, hashing and pickles."""

    def test_repeat_pickle_and_relabelling(self):
        rng = random.Random(7)
        g = Graph(8, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6)])
        code = g.canonical_code()
        assert g.canonical_code() is code
        assert pickle.loads(pickle.dumps(g)).canonical_code() == code
        relabelled = Graph(8, _random_relabel(rng, 8, g.edges))
        assert relabelled.canonical_code() == code

    def test_outside_equality_hashing_and_pickles(self):
        fresh = Graph(5, [(0, 1), (1, 2), (3, 4)])
        coded = Graph(5, [(0, 1), (1, 2), (3, 4)])
        before = pickle.dumps(coded)
        coded.canonical_code()
        assert coded == fresh and hash(coded) == hash(fresh)
        assert pickle.dumps(coded) == before == pickle.dumps(fresh)
        assert pickle.loads(before)._code is None

    def test_cycle_still_rejected(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        for _ in range(2):
            with pytest.raises(NotATree):
                g.canonical_code()


class TestEnumeration:
    def test_counts(self):
        for n, want in TREE_COUNTS.items():
            assert count_trees(n) == want

    def test_small_sets(self):
        got = {g.canonical_code() for g in enumerate_trees(4)}
        assert got == {path_graph(4).canonical_code(), star_graph(4).canonical_code()}
        assert [g.n for g in enumerate_trees(2)] == [2]

    def test_no_duplicate_codes(self):
        for n in range(1, 10):
            codes = [g.canonical_code() for g in enumerate_trees(n)]
            assert len(codes) == len(set(codes))

    def test_prufer_cross_validation_small(self):
        for n in range(1, 8):
            enumerated = {g.canonical_code() for g in enumerate_trees(n)}
            assert prufer_class_codes(n) == enumerated

    def test_every_labeled_tree_represented(self):
        for n in range(1, 8):
            enumerated = {g.canonical_code() for g in enumerate_trees(n)}
            for edges in labeled_trees(n):
                assert labeled_tree_code(n, edges) in enumerated

    def test_deterministic_order(self):
        a = [g.edges for g in enumerate_trees(7)]
        b = [g.edges for g in enumerate_trees(7)]
        assert a == b

    def test_bad_size(self):
        with pytest.raises(BadSize):
            list(enumerate_trees(0))
        with pytest.raises(BadSize):
            list(enumerate_trees(13))
        assert count_trees(13, cap=13) > count_trees(12)


class TestDot:
    def test_dot_shape(self):
        g = builtin("paper:T9")
        dot = g.to_dot()
        assert dot.startswith("graph G {")
        assert '0 [label="v1"];' in dot
        assert "0 -- 1;" in dot
        assert "pos=" not in dot
        assert dot.rstrip().endswith("}")
