import random

import pytest

from matchpoly.errors import TooLarge
from matchpoly.exactalg import IntPoly, root_multiplicity
from matchpoly.graphs import Graph, builtin, enumerate_trees, path_graph, random_graph
from matchpoly.matchcore import (
    _LRUCache,
    check_identities,
    matching_counts,
    matching_polynomial,
    matching_polynomial_recurrence,
)


class TestKnownPolynomials:
    def test_p7(self):
        want = IntPoly.parse("x^7 - 6*x^5 + 10*x^3 - 4*x")
        assert matching_polynomial(builtin("P:7")) == want
        assert matching_polynomial_recurrence(builtin("P:7")) == want

    def test_t9(self):
        want = IntPoly.parse("x^9 - 8*x^7 + 20*x^5 - 18*x^3 + 5*x")
        assert matching_polynomial(builtin("paper:T9")) == want
        assert matching_polynomial_recurrence(builtin("paper:T9")) == want

    def test_single_vertex(self):
        assert matching_polynomial(Graph(1)) == IntPoly.x()

    def test_empty_graph(self):
        assert matching_polynomial(Graph(0)) == IntPoly.one()

    def test_star(self):
        assert matching_polynomial(builtin("star:4")) == IntPoly.parse("x^4 - 3*x^2")

    def test_disconnected_product(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        assert matching_polynomial(g) == matching_polynomial(
            path_graph(2)
        ) * matching_polynomial(path_graph(3))


class TestCountsOracle:
    def test_p7_counts(self):
        counts = matching_counts(builtin("P:7")).counts
        assert counts[2] == 10
        assert counts[3] == 4
        assert counts == (1, 6, 10, 4)

    def test_star_counts(self):
        assert matching_counts(builtin("star:4")).counts == (1, 3, 0)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            matching_counts(path_graph(26))
        matching_counts(path_graph(25))  # 24 edges: at the limit

    def test_polynomial_assembly(self):
        mc = matching_counts(builtin("P:7"))
        assert mc.to_polynomial() == matching_polynomial(builtin("P:7"))


class TestOracleEquivalence:
    def test_all_trees_up_to_7(self):
        for n in range(1, 8):
            for g in enumerate_trees(n):
                assert matching_counts(g).to_polynomial() == matching_polynomial(g)

    def test_recurrence_agrees_on_trees(self):
        for n in range(1, 8):
            for g in enumerate_trees(n):
                assert matching_polynomial_recurrence(g) == matching_polynomial(g)

    def test_random_graphs(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 7))
            mu = matching_polynomial(g)
            assert matching_counts(g).to_polynomial() == mu
            assert matching_polynomial_recurrence(g) == mu


class TestStructure:
    def test_monic_degree_and_sign_pattern(self):
        rng = random.Random(3)
        graphs = [builtin("paper:T9"), builtin("paper:G14")] + [
            random_graph(rng, rng.randint(1, 7)) for _ in range(40)
        ]
        for g in graphs:
            mu = matching_polynomial(g)
            assert mu.is_monic and mu.degree == g.n
            for i, c in enumerate(mu.coeffs):
                k2 = g.n - i
                if k2 % 2 == 1:
                    assert c == 0
                else:
                    k = k2 // 2
                    if c:
                        assert (c > 0) == (k % 2 == 0)

    def test_mult_of_zero_root_is_uncovered_vertices(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7))
            counts = matching_counts(g).counts
            max_matching = max(k for k, c in enumerate(counts) if c)
            mu = matching_polynomial(g)
            assert root_multiplicity(mu, IntPoly.x()) == g.n - 2 * max_matching

    def test_paths_are_squarefree(self):
        for n in range(1, 11):
            mu = matching_polynomial(path_graph(n))
            assert mu.gcd(mu.derivative()).degree == 0


class TestIdentities:
    def test_p4_exhaustive(self):
        rep = check_identities(builtin("P:4"), trials=8)
        assert rep.passed and rep.failures == ()

    def test_disconnected(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        assert check_identities(g, trials=6).passed

    def test_g14(self):
        assert check_identities(builtin("paper:G14"), trials=10).passed

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            check_identities(builtin("P:4"), trials=0)

    def test_exhaustive_by_default(self):
        g = builtin("paper:G14")
        rep = check_identities(g)
        assert rep.passed and rep.failures == ()
        assert rep.checks_run == g.m + 2 * g.n

    def test_deterministic_given_seed(self):
        a = check_identities(builtin("paper:T9"), trials=5, seed=3)
        b = check_identities(builtin("paper:T9"), trials=5, seed=3)
        assert a == b


class TestCache:
    def test_results_survive_tiny_cache(self):
        cache = _LRUCache(4)
        for n in (3, 5, 7):
            g = path_graph(n)
            assert matching_polynomial(g, cache) == matching_polynomial(g)
        assert len(cache) <= 4

    def test_eviction(self):
        cache = _LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("c") == 3

    def test_isomorphic_forest_sharing(self):
        cache = _LRUCache(64)
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(0, 2), (1, 2)])  # isomorphic relabeling
        matching_polynomial(a, cache)
        before = len(cache)
        matching_polynomial(b, cache)
        assert len(cache) == before
