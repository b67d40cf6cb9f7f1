"""One recurrence pass gives mu(G) and every mu(G - u), on matching counts
packed into one int per polynomial; checked where the counts overflow 64
bits, across packing widths, and through the family kept on the graph."""

import math
import random
import time

from matchpoly import matchcore
from matchpoly.exactalg import IntPoly
from matchpoly.graphs import Graph, builtin, path_graph
from matchpoly.matchcore import (
    _FAMILY_LIMIT,
    _DeletionRecurrence,
    _LRUCache,
    deletion_polynomials,
    matching_polynomial,
    matching_polynomial_recurrence,
    vertex_deleted_polynomials,
)

from .oracles import prufer_edges


def _mu_forest(G: Graph) -> IntPoly:
    """Rooted DP per tree component: a child subtree T_w joins v's part H by
    mu(H + T_w + vw) = mu(H) mu(T_w) - mu(H - v) mu(T_w - w)."""
    result, seen = IntPoly.one(), set()
    for root in range(G.n):
        if root in seen:
            continue
        parent, order = {root: -1}, [root]
        for v in order:
            for w in G.neighbors(v):
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        seen.update(order)
        with_v, without_v = {}, {}
        for v in reversed(order):
            a, b = IntPoly.x(), IntPoly.one()
            for w in G.neighbors(v):
                if parent[w] == v:
                    a, b = a * with_v[w] - b * without_v[w], b * with_v[w]
            with_v[v], without_v[v] = a, b
        result = result * with_v[root]
    return result


def _mu_complete(n: int) -> IntPoly:
    """mu(K_n) from the closed-form matching counts n! / (k! (n - 2k)! 2^k)."""
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        count = math.factorial(n) // (math.factorial(k) * math.factorial(n - 2 * k) * 2**k)
        coeffs[n - 2 * k] = (-1) ** k * count
    return IntPoly(coeffs)


def _complete_union(copies: int, k: int, offset: int = 0) -> list[tuple[int, int]]:
    return [
        (offset + c * k + u, offset + c * k + v)
        for c in range(copies)
        for u in range(k)
        for v in range(u + 1, k)
    ]


def _prufer120() -> Graph:
    rng = random.Random(120)
    return Graph(120, prufer_edges([rng.randrange(120) for _ in range(118)], 120))


def _widest(mu: IntPoly) -> int:
    return max(abs(c) for c in mu.coeffs)


class TestCountsBeyond64Bits:
    def test_forests_against_tree_dp(self):
        for g in (path_graph(100), _prufer120()):
            mu = matching_polynomial(g, _LRUCache(64))
            assert mu == _mu_forest(g)
            assert _widest(mu) > 2**64
            deleted = vertex_deleted_polynomials(g)
            assert len(deleted) == g.n
            for u, got in enumerate(deleted):
                assert got == _mu_forest(g.delete_vertices([u])[0])

    def test_complete_graphs_against_closed_form(self):
        k30 = Graph(30, _complete_union(1, 30))
        assert matching_polynomial(k30, _LRUCache(64)) == _mu_complete(30)
        assert _DeletionRecurrence(k30, _LRUCache(4)).base == 128  # 30! > 2^64
        assert set(vertex_deleted_polynomials(k30)) == {_mu_complete(29)}
        union = Graph(160, _complete_union(8, 20))
        assert matching_polynomial(union, _LRUCache(64)) == _mu_complete(20) ** 8
        assert _widest(_mu_complete(20) ** 8) > 2**64
        rest = _mu_complete(19) * _mu_complete(20) ** 7
        assert set(vertex_deleted_polynomials(union)) == {rest}

    def test_many_equal_components(self):
        """A spider: deleting its centre leaves 200 copies of P2."""
        legs = 200
        g = Graph(2 * legs + 1, [(0, i) for i in range(1, legs + 1)]
                  + [(i, i + legs) for i in range(1, legs + 1)])
        assert matching_polynomial(g, _LRUCache(64)) == _mu_forest(g)
        deleted = vertex_deleted_polynomials(g)
        for u in (0, 1, legs, legs + 1, 2 * legs):
            assert deleted[u] == _mu_forest(g.delete_vertices([u])[0])


class _RecordingCache(_LRUCache):
    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.hits = []

    def get(self, key):
        value = super().get(key)
        if value is not None:
            self.hits.append(key)
        return value


def _piece_key(k: int, edges) -> int:
    return sum((1 << i * k + j for i, j in edges), 1 << k * k)


class TestPackingWidth:
    def test_width_bounds_the_matchings_of_the_graph(self):
        def base(g):
            return _DeletionRecurrence(g, _LRUCache(4)).base

        assert base(Graph(0)) == base(path_graph(5)) == 32
        assert base(Graph(13, _complete_union(1, 13))) == 64  # 13! > 2^32
        assert base(Graph(30, _complete_union(1, 30))) == 128  # 30! > 2^96

    def test_piece_is_not_shared_across_widths(self):
        cache = _RecordingCache(1 << 10)
        p5 = path_graph(5)
        key = _piece_key(5, p5.edges)
        narrow = Graph(18, list(p5.edges) + _complete_union(1, 13, offset=5))
        assert _DeletionRecurrence(narrow, cache).base == 64
        assert matching_polynomial(narrow, cache) == _mu_forest(p5) * _mu_complete(13)
        assert (64, key) in cache._data
        wide = Graph(35, list(p5.edges) + _complete_union(1, 30, offset=5))
        assert _DeletionRecurrence(wide, cache).base == 128
        cache.hits.clear()
        assert matching_polynomial(wide, cache) == _mu_forest(p5) * _mu_complete(30)
        assert (128, key) in cache._data
        assert not [k for k in cache.hits if k[0] == 64]
        deleted = vertex_deleted_polynomials(wide)
        for u in range(5):
            assert deleted[u] == _mu_forest(p5.delete_vertices([u])[0]) * _mu_complete(30)
        assert set(deleted[5:]) == {_mu_forest(p5) * _mu_complete(29)}


class TestFamilyKeptOnGraph:
    def test_matching_polynomial_fills_the_family(self, monkeypatch):
        runs = []

        class Counting(_DeletionRecurrence):
            def __init__(self, G, cache):
                super().__init__(G, cache)
                runs.append(self)

        monkeypatch.setattr(matchcore, "_DeletionRecurrence", Counting)
        monkeypatch.setattr(matchcore, "_cache", _LRUCache(64))
        for g in (builtin("paper:G14"), builtin("paper:T9"), Graph(4, [(0, 1), (2, 3)])):
            assert g._deleted_mu is None
            runs.clear()
            matching_polynomial(g)
            assert len(runs) == 1 and g._deleted_mu is not None
            memo = len(runs[0].memo)
            polys = vertex_deleted_polynomials(g)
            assert len(runs) == 1 and len(runs[0].memo) == memo
            assert polys is g._deleted_mu
            for u, mu in enumerate(polys):
                assert mu == matching_polynomial_recurrence(g.delete_vertices([u])[0])

    def test_cache_hit_leaves_the_family_to_a_later_pass(self):
        cache = _LRUCache(64)
        g = builtin("paper:G14")
        matching_polynomial(g, cache)
        fresh = Graph(g.n, g.edges)
        assert matching_polynomial(fresh, cache) == matching_polynomial(g)
        assert fresh._deleted_mu is None
        assert vertex_deleted_polynomials(fresh) == g._deleted_mu


def _caterpillar(spine: int) -> Graph:
    """A path of ``spine`` vertices with one leaf hung on each."""
    return Graph(2 * spine, [(i, i + 1) for i in range(spine - 1)]
                 + [(i, spine + i) for i in range(spine)])


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _spider(legs: int) -> Graph:
    return Graph(2 * legs + 1, [(0, i) for i in range(1, legs + 1)]
                 + [(i, i + legs) for i in range(1, legs + 1)])


def _triangle_chain(k: int) -> Graph:
    """k triangles in a row, triangle i on 2i, 2i + 1, 2i + 2."""
    return Graph(2 * k + 1, [e for i in range(k)
                             for e in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 2))])


def _mu_triangle_chain(k: int) -> IntPoly:
    """Matching counts by transfer over the triangles (a, b, c) left to
    right, a shared with the triangle before and c with the one after:
    ``free`` and ``taken`` count the matchings so far (in t) that leave the
    next a free or match it.  Edge ab or ac needs a free; bc does not."""
    t, free, taken = IntPoly.x(), IntPoly.one(), IntPoly.zero()
    for _ in range(k):
        free, taken = free + taken + t * free, t * free + t * (free + taken)
    n, counts = 2 * k + 1, (free + taken).coeffs
    coeffs = [0] * (n + 1)
    for j, p in enumerate(counts):
        coeffs[n - 2 * j] = (-1) ** j * p
    return IntPoly(coeffs)


class TestLongGraphs:
    """Inputs far past Python's recursion limit: the pass keeps an explicit
    stack, and tree pieces take a rooted pass instead of deletions."""

    def test_long_forests_against_tree_dp(self):
        for g in (path_graph(1000), _caterpillar(500)):
            assert matching_polynomial(g, _LRUCache(64)) == _mu_forest(g)
            assert g._deleted_mu is None  # beyond the family limit: mu alone

    def test_family_of_long_forests(self):
        for g in (path_graph(400), _caterpillar(200)):
            deleted = vertex_deleted_polynomials(g)
            for u in (0, 1, g.n // 2 - 1, g.n // 2, g.n - 2, g.n - 1):
                assert deleted[u] == _mu_forest(g.delete_vertices([u])[0])

    def test_long_cycle(self):
        n = 400
        paths = {k: _mu_forest(path_graph(k)) for k in (n - 2, n - 1, n)}
        g = _cycle(n)
        assert matching_polynomial(g, _LRUCache(64)) == paths[n] - paths[n - 2]
        assert set(vertex_deleted_polynomials(g)) == {paths[n - 1]}

    def test_deep_chain_of_cycles(self):
        """Every deletion leaves a shorter chain beside small pieces, so the
        pass goes about one level deeper per triangle."""
        for k in (1, 2, 5):
            assert matching_polynomial(_triangle_chain(k)) == matching_polynomial_recurrence(
                _triangle_chain(k))
            assert _mu_triangle_chain(k) == matching_polynomial_recurrence(_triangle_chain(k))
        assert matching_polynomial(_triangle_chain(400), _LRUCache(64)) == _mu_triangle_chain(400)
        g = _triangle_chain(40)
        assert g.n > _FAMILY_LIMIT
        assert vertex_deleted_polynomials(g) == tuple(
            deletion_polynomials(g, [(u,) for u in range(g.n)]))

    def test_mu_of_large_trees_is_linear(self):
        """A large tree's mu takes the pass down alone, with no family."""
        start = time.monotonic()
        for g in (builtin("star:800"), _spider(200), path_graph(1000)):
            assert matching_polynomial(g, _LRUCache(64)) == _mu_forest(g)
            assert g._deleted_mu is None
        assert time.monotonic() - start < 20  # about 0.5 s, nearly all in _mu_forest

    def test_family_limit(self):
        for n in (_FAMILY_LIMIT, _FAMILY_LIMIT + 1):
            g = _cycle(n)
            matching_polynomial(g, _LRUCache(64))
            assert (g._deleted_mu is not None) == (n <= _FAMILY_LIMIT)
