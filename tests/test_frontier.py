"""The frontier pass: mu(G) and every mu(G - u) of a graph with cycles whose
greedy vertex order keeps few vertices on the frontier, from one pass over
the order and one pass back; checked against the deletion recurrence (the
frontier switched off), the naive recurrence and transfer counts."""

import importlib.util
import itertools
import random
import time
from pathlib import Path

import pytest

from matchpoly import matchcore
from matchpoly.exactalg import IntPoly
from matchpoly.graphs import Graph, builtin, path_graph, star_graph
from matchpoly.matchcore import (
    _FRONTIER_WIDTH,
    _DeletionRecurrence,
    _LRUCache,
    check_identities,
    deletion_polynomials,
    matching_counts,
    matching_polynomial,
    matching_polynomial_recurrence,
    vertex_deleted_polynomials,
)

from .oracles import prufer_edges
from .test_matchcore import _complete
from .test_packed_recurrence import _cycle, _mu_complete, _mu_triangle_chain, _triangle_chain


def _graph_query_inputs(count: int) -> list[Graph]:
    """The first ``count`` seed-0 inputs of the graph-queries benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [Graph(n, e) for n, e in itertools.islice(workloads.graph_query_inputs(0), count)]


def _gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(f"{n}:{p}:{seed}")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _ladder(k: int) -> Graph:
    """The 2 x k ladder: rails 0..k-1 and k..2k-1, rungs i - (k + i)."""
    return Graph(2 * k, [(i, i + 1) for i in range(k - 1)]
                 + [(k + i, k + i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)])


def _from_counts(n: int, counts) -> IntPoly:
    coeffs = [0] * (n + 1)
    for j, p in enumerate(counts):
        coeffs[n - 2 * j] = (-1) ** j * p
    return IntPoly(coeffs)


def _mu_ladder(k: int) -> IntPoly:
    """Matching counts by transfer over the rungs left to right: ``counts[s]``
    (in t) counts the matchings so far whose vertices matched in the last
    rung are s (bit 0 the top end, bit 1 the bottom end).  A rail edge into
    the next rung needs its left end free; the next rung's own edge needs
    both its ends free."""
    t, zero = IntPoly.x(), IntPoly.zero()
    counts = [IntPoly.one(), zero, zero, t]
    for _ in range(k - 1):
        nxt = [zero] * 4
        for s, c in enumerate(counts):
            for rails in range(4):
                if not rails & s:
                    term = c * t ** rails.bit_count()
                    nxt[rails] = nxt[rails] + term
                    if not rails:
                        nxt[3] = nxt[3] + term * t
        counts = nxt
    return _from_counts(2 * k, sum(counts, zero).coeffs)


def _family(g: Graph) -> tuple:
    """mu(G) and every mu(G - u), from fresh passes with a fresh cache."""
    fresh = Graph(g.n, g.edges)
    return matching_polynomial(fresh, _LRUCache(64)), vertex_deleted_polynomials(fresh)


@pytest.fixture
def recurrence(monkeypatch):
    """``_family`` with the frontier pass switched off."""

    def family(g: Graph) -> tuple:
        with monkeypatch.context() as m:
            m.setattr(matchcore, "_FRONTIER_WIDTH", 0)
            m.setattr(matchcore, "_cache", _LRUCache(1 << 10))
            return _family(g)

    return family


def _takes_frontier(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return not g.is_forest and bool(_DeletionRecurrence(g, _LRUCache(4))._frontier_steps(full))


def _naive_family(g: Graph) -> tuple:
    return matching_polynomial_recurrence(g), tuple(
        matching_polynomial_recurrence(g.delete_vertices([u])[0]) for u in range(g.n))


class TestAgainstRecurrence:
    def test_graph_queries_inputs(self, recurrence):
        graphs = _graph_query_inputs(300)
        assert all(_takes_frontier(g) for g in graphs)
        for i, g in enumerate(graphs):
            mu, deleted = _family(g)
            assert (mu, deleted) == recurrence(g)
            if i % 6 == 0:  # the naive recurrence is exponential: a sample
                assert mu == matching_polynomial_recurrence(g)
            if i % 50 == 0:
                assert (mu, deleted) == _naive_family(g)

    def test_seeded_gnp(self, recurrence):
        taken = 0
        for p in (0.2, 0.35, 0.5):
            for n in range(1, 15):
                for seed in range(2):
                    g = _gnp(n, p, seed)
                    taken += _takes_frontier(g)
                    mu, deleted = _family(g)
                    assert (mu, deleted) == recurrence(g)
                    if n <= 9:
                        assert (mu, deleted) == _naive_family(g)
                    elif seed == 0:
                        assert mu == matching_polynomial_recurrence(g)
        assert taken >= 40

    def test_disconnected_graphs_with_cycles(self, recurrence):
        c5, c4, k4 = _cycle(5).edges, _cycle(4).edges, _complete(4).edges

        def shift(edges, by):
            return [(u + by, v + by) for u, v in edges]

        graphs = [
            Graph(9, [*c5, *shift(c4, 5)]),  # two cycles
            Graph(11, [*c4, *shift(prufer_edges([0, 3, 3, 5, 1], 7), 4)]),  # a cycle beside a tree
            Graph(5, k4),  # an isolated vertex
            Graph(10, [*k4, *shift(c5, 4), (9, 4)]),  # a cycle beside a clique, joined
            Graph(12, [*shift(k4, 2), *shift(c4, 7), (0, 1), (6, 11)]),
        ]
        for g in graphs:
            assert _takes_frontier(g)
            assert _family(g) == recurrence(g) == _naive_family(g)

    def test_vertex_sets_of_one_graph(self):
        """Each mu(G - S) of ``deletion_polynomials`` is a pass of its own,
        over a mask that may be a forest, disconnected or empty."""
        g = builtin("paper:G14")
        g = Graph(g.n, [*g.edges, (0, 13), (2, 9)])
        drops = [(), (0,), (3, 10), (0, 1, 2), (0, 2), tuple(range(14))]
        expected = [matching_polynomial_recurrence(g.delete_vertices(S)[0]) for S in drops]
        assert deletion_polynomials(g, drops) == expected
        with pytest.MonkeyPatch.context() as m:
            m.setattr(matchcore, "_FRONTIER_WIDTH", 0)
            assert deletion_polynomials(g, drops) == expected


class TestRouting:
    def test_complete_graphs_at_the_width_limit(self):
        assert _FRONTIER_WIDTH == 12
        for n, frontier in ((12, True), (13, False)):
            g = _complete(n)
            run = _DeletionRecurrence(g, _LRUCache(64))
            assert run.mu((1 << n) - 1) == _mu_complete(n)
            assert (len(run.memo) == 2) == frontier  # the empty mask and K_n alone
            assert set(vertex_deleted_polynomials(g)) == {_mu_complete(n - 1)}

    def test_forests_never_order_a_frontier(self, monkeypatch):
        def refuse(self, mask):
            raise RuntimeError("frontier order asked for on a forest")

        monkeypatch.setattr(_DeletionRecurrence, "_frontier_steps", refuse)
        monkeypatch.setattr(matchcore, "_cache", _LRUCache(64))
        rng = random.Random(7)
        forests = [Graph(0), Graph(4), path_graph(9), star_graph(6), builtin("paper:T9"),
                   Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)]),
                   Graph(30, prufer_edges([rng.randrange(30) for _ in range(28)], 30))]
        for g in forests:
            mu = matching_polynomial(g)
            assert len(vertex_deleted_polynomials(g)) == g.n
            if g.n <= 9:
                assert mu == matching_polynomial_recurrence(g)
                assert deletion_polynomials(g, [(), (0,)])[0] == mu

    def test_forest_masks_of_a_graph_with_cycles(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])  # a triangle with a tail
        run = _DeletionRecurrence(g, _LRUCache(64))
        full = (1 << g.n) - 1
        assert run._frontier_steps(full)
        for u in (0, 1, 2):
            assert run._frontier_steps(full & ~(1 << u)) is None
        assert run._frontier_steps(full & ~(1 << 4))

    def test_packing_width_64(self, recurrence):
        g = _ladder(14)  # at most 2 * 6^13 matchings
        run = _DeletionRecurrence(g, _LRUCache(64))
        assert run.base == 64 and _takes_frontier(g)
        assert run.mu((1 << g.n) - 1) == _mu_ladder(14)
        assert len(run.memo) == 2
        assert _family(g) == recurrence(g)


class TestLyingFrontier:
    def test_one_extra_matching_is_caught(self, monkeypatch):
        # C4 with a pendant vertex: mu(G) and mu(G - 4) take the frontier pass,
        # G - e and the other G - u are forests and take the tree pass.
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
        monkeypatch.setattr(matchcore, "_cache", _LRUCache(64))
        assert check_identities(g).passed
        frontier = _DeletionRecurrence._frontier

        def lying(self, steps):
            packed, deleted = frontier(self, steps)
            return packed + (1 << self.base), deleted  # one 1-matching too many

        monkeypatch.setattr(_DeletionRecurrence, "_frontier", lying)
        monkeypatch.setattr(matchcore, "_cache", _LRUCache(64))
        rep = check_identities(g)
        assert not rep.passed
        assert {name for name, _ in rep.failures} == {
            "edge-recurrence", "vertex-recurrence", "component-product"}


class TestLadders:
    def test_transfer_count(self):
        for k in range(1, 6):
            mu = matching_polynomial(_ladder(k), _LRUCache(64))
            assert mu == _mu_ladder(k) == matching_counts(_ladder(k)).to_polynomial()

    def test_ladders_up_to_50_rungs(self):
        start = time.monotonic()
        for k in range(1, 51):
            assert matching_polynomial(_ladder(k), _LRUCache(64)) == _mu_ladder(k)
        assert time.monotonic() - start < 20


class TestCycleChains:
    def test_family_of_150_triangles(self):
        g = _triangle_chain(150)
        start = time.monotonic()
        deleted = vertex_deleted_polynomials(g)
        assert time.monotonic() - start < 5
        # d/dx mu(G) = sum_u mu(G - u): each k-matching misses n - 2k vertices.
        assert sum(deleted, IntPoly.zero()) == _mu_triangle_chain(150).derivative()

    def test_family_of_40_triangles_against_recurrence(self, recurrence):
        g = _triangle_chain(40)
        assert _takes_frontier(g)
        assert vertex_deleted_polynomials(Graph(g.n, g.edges)) == recurrence(g)[1]
