import itertools
import random

import pytest

from matchpoly.covers import (
    PathCover,
    certify_main,
    enumerate_covers,
    is_extremal,
    min_path_cover,
    path_mult,
    path_polynomial,
)
from matchpoly.errors import InvalidCover, TooLarge
from matchpoly.exactalg import AlgebraicRootClass, IntPoly
from matchpoly.graphs import (
    Graph,
    builtin,
    enumerate_trees,
    path_graph,
    random_connected_graph,
)
from matchpoly.matchcore import matching_polynomial
from matchpoly.thetaclass import root_classes

from .oracles import (
    brute_count_covers,
    brute_lexmin_max_subset,
    brute_min_cover_size,
    prufer_edges,
)

X = AlgebraicRootClass(IntPoly.x())
X_MINUS_1 = AlgebraicRootClass(IntPoly.parse("x - 1"))
SQRT3 = AlgebraicRootClass(IntPoly.parse("x^2 - 3"))


class TestPathPolynomials:
    def test_matches_matching_polynomial(self):
        for k in range(9):
            want = matching_polynomial(path_graph(k)) if k else IntPoly.one()
            assert path_polynomial(k) == want

    def test_path_mult(self):
        assert path_mult(7, SQRT3) == 0
        assert path_mult(5, SQRT3) == 1
        assert path_mult(1, X) == 1


class TestMinCover:
    def test_path_is_one(self):
        assert min_path_cover(path_graph(7)).paths == ((0, 1, 2, 3, 4, 5, 6),)

    def test_t9_is_two(self):
        cover = min_path_cover(builtin("paper:T9"))
        assert cover.size == 2
        assert len(cover.edge_subset()) == 7

    def test_g14_two_sevens(self):
        cover = min_path_cover(builtin("paper:G14"))
        assert sorted(len(p) for p in cover.paths) == [7, 7]

    def test_star(self):
        cover = min_path_cover(builtin("star:4"))
        assert cover.size == 2

    def test_single_vertex_and_empty(self):
        assert min_path_cover(Graph(1)).paths == ((0,),)
        assert min_path_cover(Graph(0)).paths == ()

    def test_matches_bruteforce_on_all_trees(self):
        for n in range(1, 10):
            for g in enumerate_trees(n):
                assert min_path_cover(g).size == brute_min_cover_size(g)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(15)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 7))
            assert min_path_cover(g).size == brute_min_cover_size(g)

    def test_lexicographically_smallest_on_trees(self):
        # among maximum subsets the DP must pick the lexicographically least
        for n in range(2, 8):
            for g in enumerate_trees(n):
                got = min_path_cover(g).edge_subset()
                best = None
                m = g.m
                for mask in range(1 << m):
                    subset = tuple(g.edges[i] for i in range(m) if mask >> i & 1)
                    if len(subset) != len(got):
                        continue
                    deg = [0] * g.n
                    ok = True
                    for u, v in subset:
                        deg[u] += 1
                        deg[v] += 1
                        if deg[u] > 2 or deg[v] > 2:
                            ok = False
                            break
                    if ok and (best is None or subset < best):
                        best = subset
                assert got == best

    def test_too_large_nonforest(self):
        n = 18
        edges = [(i, (i + 1) % n) for i in range(n)]
        with pytest.raises(TooLarge):
            min_path_cover(Graph(n, edges))

    def test_cover_validates(self):
        for g in (builtin("paper:T9"), builtin("paper:G14"), builtin("star:4")):
            min_path_cover(g).validate(g)

    def test_search_starts_at_matching_lower_bound(self, monkeypatch):
        # K3,13: n - 2*nu = 16 - 6 = 10, so no m below 10 is searched.
        from matchpoly import covers

        sizes = []

        def spy(G, m):
            sizes.append(m)
            return enumerate_covers(G, m)

        monkeypatch.setattr(covers, "enumerate_covers", spy)
        k313 = Graph(16, [(a, b) for a in range(3) for b in range(3, 16)])
        cover = min_path_cover(k313)
        cover.validate(k313)
        assert cover.size == 10
        assert sizes == [10]


class TestMinCoverTieBreak:
    """On every graph, the minimum cover is the lexicographically smallest
    maximum acyclic degree-<=2 edge subset."""

    def test_oracle_rejects_cycles(self):
        triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert brute_lexmin_max_subset(triangle) == ((0, 1), (0, 2))

    def test_every_nonforest_on_five_vertices(self):
        pairs = list(itertools.combinations(range(5), 2))
        checked = 0
        for mask in range(1 << len(pairs)):
            g = Graph(5, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if g.is_forest:
                continue
            assert min_path_cover(g).edge_subset() == brute_lexmin_max_subset(g), g.edges
            checked += 1
        assert checked == 733

    def test_seeded_cyclic_graphs(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 8), require_cycle=True)
            assert min_path_cover(g).edge_subset() == brute_lexmin_max_subset(g), g.edges

    def test_seeded_forests(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(3, 13)
            tree = Graph(n, prufer_edges([rng.randrange(n) for _ in range(n - 2)], n))
            g = Graph(n, [e for e in tree.edges if rng.random() < 0.75])
            assert min_path_cover(g).edge_subset() == brute_lexmin_max_subset(g), g.edges


class TestEnumerate:
    def test_spec_counts(self):
        assert len(list(enumerate_covers(path_graph(3), 1))) == 1
        assert len(list(enumerate_covers(builtin("star:4"), 2))) == 3
        assert len(list(enumerate_covers(path_graph(4), 2))) == 3

    def test_duality_and_validity(self):
        g = builtin("paper:T9")
        for m in range(2, 6):
            for cover in enumerate_covers(g, m):
                cover.validate(g)
                assert cover.size == m
                assert len(cover.edge_subset()) == g.n - m

    def test_matches_bruteforce_counts(self):
        rng = random.Random(8)
        graphs = [g for n in range(2, 7) for g in enumerate_trees(n)]
        graphs += [random_connected_graph(rng, rng.randint(2, 6)) for _ in range(10)]
        for g in graphs:
            for m in range(1, g.n + 1):
                assert len(list(enumerate_covers(g, m))) == brute_count_covers(g, m)

    def test_all_singletons_cover(self):
        g = builtin("star:4")
        covers = list(enumerate_covers(g, 4))
        assert covers == [PathCover(paths=((0,), (1,), (2,), (3,)))]

    def test_impossible_sizes(self):
        assert list(enumerate_covers(path_graph(3), 5)) == []
        g = Graph(4, [(0, 1), (2, 3)])
        assert list(enumerate_covers(g, 1)) == []  # two components need two paths

    def test_deterministic_order(self):
        g = builtin("paper:T9")
        a = [c.paths for c in enumerate_covers(g, 3)]
        b = [c.paths for c in enumerate_covers(g, 3)]
        assert a == b
        subsets = [c.edge_subset() for c in enumerate_covers(g, 3)]
        assert subsets == sorted(subsets)


class TestExtremal:
    def test_star_cover_is_extremal_at_zero(self):
        g = builtin("star:4")
        Q = PathCover(paths=((1, 0, 2), (3,)))
        rep = is_extremal(g, X, Q)
        assert rep.verdict
        assert rep.condition_a == (True, True)
        (cross,) = [c for c in rep.cross_edges]
        assert cross.witnessed

    def test_t9_cover_fails_condition_a(self):
        g = builtin("paper:T9")
        Q = PathCover(paths=((0, 1, 2, 3, 4, 5, 7), (6, 8)))
        rep = is_extremal(g, X_MINUS_1, Q)
        assert not rep.verdict
        assert rep.condition_a == (False, True)  # mu(P7) at 1 is 1, not 0

    def test_p5_single_path_vacuous(self):
        g = path_graph(5)
        Q = PathCover(paths=(tuple(range(5)),))
        rep = is_extremal(g, SQRT3, Q)
        assert rep.verdict
        assert rep.cross_edges == ()

    def test_specialness_is_relative_to_path(self):
        # v4 in T9 is neutral in the tree but positions are judged inside the
        # 7-vertex path, where no vertex is neutral for its root classes.
        g = builtin("paper:T9")
        Q = PathCover(paths=((0, 1, 2, 3, 4, 5, 7), (6, 8)))
        seven = AlgebraicRootClass(IntPoly.parse("x^2 - 2"))  # root of mu(P7)
        rep = is_extremal(g, seven, Q)
        assert rep.condition_a[0]  # x^2 - 2 divides mu(P7)

    def test_invalid_covers_rejected(self):
        g = builtin("star:4")
        with pytest.raises(InvalidCover):
            is_extremal(g, X, PathCover(paths=((0, 1), (1, 2), (3,))))
        with pytest.raises(InvalidCover):
            is_extremal(g, X, PathCover(paths=((0, 1),)))
        with pytest.raises(InvalidCover):
            is_extremal(g, X, PathCover(paths=((1, 2), (0,), (3,))))  # not an edge

    def test_json(self):
        g = builtin("star:4")
        data = is_extremal(g, X, PathCover(paths=((1, 0, 2), (3,)))).to_json(g)
        assert data["extremal"] is True
        assert data["condition_a"] == [True, True]


class TestCertify:
    def test_star(self):
        v = certify_main(builtin("star:4"))
        assert v.min_cover_size == 2
        assert v.max_mult == 2
        assert v.biconditional_ok
        assert v.counterexample is None
        assert v.mult_le_cover

    def test_t9(self):
        v = certify_main(builtin("paper:T9"))
        assert v.min_cover_size == 2
        assert v.max_mult == 1
        assert v.biconditional_ok

    def test_g14_fails_with_two_sevens(self):
        v = certify_main(builtin("paper:G14"))
        assert v.min_cover_size == 2
        assert v.max_mult == 2
        assert v.mult_le_cover
        assert not v.biconditional_ok
        ce = v.counterexample
        assert ce is not None
        assert sorted(len(p) for p in ce.cover.paths) == [7, 7]
        assert ce.rootclass.minpoly == IntPoly.parse("x^2 - 3")

    def test_path(self):
        v = certify_main(path_graph(6))
        assert v.min_cover_size == 1 and v.max_mult == 1 and v.biconditional_ok

    def test_two_component_forest(self):
        g = Graph(4, [(0, 1), (2, 3)])
        v = certify_main(g)
        assert v.forest_mode
        assert v.biconditional_ok

    def test_double_root_trees_have_extremal_two_covers(self):
        # whenever a tree has a root class of multiplicity two, every cover
        # by two paths must be extremal for it
        instances = 0
        for n in range(2, 10):
            for g in enumerate_trees(n):
                doubles = [rc for rc, m in root_classes(g) if m == 2]
                if not doubles:
                    continue
                for Q in enumerate_covers(g, 2):
                    for rc in doubles:
                        assert is_extremal(g, rc, Q).verdict
                        instances += 1
        assert instances > 0

    def test_json(self):
        data = certify_main(builtin("paper:G14")).to_json(builtin("paper:G14"))
        assert data["biconditional_ok"] is False
        assert "counterexample" in data
