import math
import pickle
import random
import time

import pytest

from matchpoly import matchcore
from matchpoly.errors import TooLarge
from matchpoly.exactalg import IntPoly, root_multiplicity
from matchpoly.graphs import (
    Graph,
    builtin,
    enumerate_trees,
    path_graph,
    random_connected_graph,
    random_graph,
)
from matchpoly.matchcore import (
    _MEMO_BUDGET,
    _DeletionRecurrence,
    _LRUCache,
    check_identities,
    deletion_polynomials,
    matching_counts,
    matching_polynomial,
    matching_polynomial_recurrence,
    vertex_deleted_polynomials,
)
from matchpoly.thetaclass import root_classes, theta_partition


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


def _all_graphs_on(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def _cyclic_graphs():
    rng = random.Random(2024)
    return [random_connected_graph(rng, rng.randint(3, 10), True) for _ in range(30)]


def _complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _over_budget_graph():
    rng = random.Random(1)
    return Graph(22, [(u, v) for u in range(22) for v in range(u + 1, 22) if rng.random() < 0.5])


class TestDeletionRecurrence:
    def test_all_graphs_on_five_vertices(self):
        graphs = list(_all_graphs_on(5))
        assert len(graphs) == 1024
        for g in graphs:
            mu = matching_polynomial(g)
            assert mu == matching_polynomial_recurrence(g)
            assert mu == matching_counts(g).to_polynomial()

    def test_seeded_cyclic_graphs(self):
        for g in _cyclic_graphs():
            assert not g.is_forest
            mu = matching_polynomial(g)
            assert mu == matching_polynomial_recurrence(g)
            assert mu == matching_counts(g).to_polynomial()

    def test_vertex_deleted_polynomials(self):
        graphs = list(_all_graphs_on(5)) + _cyclic_graphs()
        graphs += [_complete(n) for n in range(1, 9)]
        for g in graphs:
            polys = vertex_deleted_polynomials(g)
            assert len(polys) == g.n
            for u in range(g.n):
                sub, _ = g.delete_vertices([u])
                assert polys[u] == matching_polynomial_recurrence(sub)

    def test_deletion_polynomials_of_vertex_sets(self):
        g = builtin("paper:G14")
        drops = [(), (0,), (3, 10), (0, 1, 2), tuple(range(14))]
        for S, mu in zip(drops, deletion_polynomials(g, drops)):
            sub, _ = g.delete_vertices(S)
            assert mu == matching_polynomial_recurrence(sub)

    def test_kept_on_graph_outside_equality_and_pickle(self):
        g = builtin("paper:G14")
        polys = vertex_deleted_polynomials(g)
        assert vertex_deleted_polynomials(g) is polys
        fresh = Graph(g.n, g.edges, g.labels)
        assert fresh == g and hash(fresh) == hash(g)
        assert pickle.loads(pickle.dumps(g))._deleted_mu is None

    def test_over_budget_raises_promptly(self):
        g = _over_budget_graph()
        start = time.monotonic()
        with pytest.raises(TooLarge, match=str(_MEMO_BUDGET)):
            matching_polynomial(g, _LRUCache(64))
        assert time.monotonic() - start < 60


def _complete_union(copies, k):
    return Graph(
        copies * k,
        [(c * k + u, c * k + v) for c in range(copies) for u in range(k) for v in range(u + 1, k)],
    )


def _mu_complete(n):
    """mu(K_n) from the closed-form matching counts n! / (k! (n - 2k)! 2^k)."""
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        count = math.factorial(n) // (math.factorial(k) * math.factorial(n - 2 * k) * 2**k)
        coeffs[n - 2 * k] = (-1) ** k * count
    return IntPoly(coeffs)


class TestSharedShapes:
    """Connected pieces that are relabelled copies of each other share one
    cache entry, so dense and repetitive graphs stay far below the budget."""

    def test_closed_form_matches_counts(self):
        for n in range(1, 8):
            assert _mu_complete(n) == matching_counts(_complete(n)).to_polynomial()
        g = _complete_union(2, 5)
        assert matching_polynomial(g) == matching_counts(g).to_polynomial()

    def test_complete_graph_k30(self):
        start = time.monotonic()
        assert matching_polynomial(_complete(30), _LRUCache(64)) == _mu_complete(30)
        assert set(vertex_deleted_polynomials(_complete(30))) == {_mu_complete(29)}
        assert time.monotonic() - start < 10

    def test_union_of_complete_graphs(self):
        start = time.monotonic()
        for copies, k in [(6, 12), (8, 20)]:
            g = _complete_union(copies, k)
            assert matching_polynomial(g, _LRUCache(64)) == _mu_complete(k) ** copies
            rest = _mu_complete(k - 1) * _mu_complete(k) ** (copies - 1)
            assert set(vertex_deleted_polynomials(g)) == {rest}
        assert time.monotonic() - start < 10

    def test_subproblem_count_is_small(self):
        run = _DeletionRecurrence(_complete(30), _LRUCache(64))
        run.mu((1 << 30) - 1)
        assert len(run.memo) < 30 * 30


class TestBudgetPerDeletion:
    def test_family_fits_when_each_member_fits(self, monkeypatch):
        """Every mu(G - u) may add the whole budget to the shared memo: a
        budget that mu(G) and each mu(G - u) fit in alone lets theta_partition
        through, though the family's memo as a whole outgrows it."""
        g = builtin("paper:G14")
        full = (1 << g.n) - 1
        alone = _DeletionRecurrence(g, _LRUCache(64))
        alone.mu(full)
        budget = len(alone.memo)
        family = _DeletionRecurrence(g, _LRUCache(64))
        for u in range(g.n):
            single = _DeletionRecurrence(g, _LRUCache(64))
            single.mu(full & ~(1 << u))
            assert len(single.memo) <= budget
            family.mu(full & ~(1 << u))
        assert len(family.memo) > budget
        monkeypatch.setattr(matchcore, "_MEMO_BUDGET", budget)
        monkeypatch.setattr(matchcore, "_cache", _LRUCache(64))
        fresh = Graph(g.n, g.edges, g.labels)
        theta = max(root_classes(fresh), key=lambda pair: pair[1])[0]
        part = theta_partition(fresh, theta)
        for u in range(g.n):
            sub, _ = g.delete_vertices([u])
            delta = root_multiplicity(matching_polynomial_recurrence(sub), theta.minpoly) - part.mult
            assert part.signs[u].value == {-1: "essential", 0: "neutral", 1: "positive"}[delta]

    def test_family_over_budget_still_raises(self):
        g = _over_budget_graph()
        with pytest.raises(TooLarge, match=str(_MEMO_BUDGET)):
            deletion_polynomials(g, [()])
