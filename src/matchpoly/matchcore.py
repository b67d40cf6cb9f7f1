"""Matching polynomials, matching-count oracle, and recurrence identity checks.

The matching polynomial of a graph on n vertices is
``sum_k (-1)^k p(G,k) x^(n-2k)`` where p(G,k) counts k-edge matchings.
Forests use a linear-time rooted DP; general graphs fall back to the vertex
deletion recurrence with a bounded, canonically keyed memo cache so that
isomorphic forest subproblems share entries.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import TooLarge
from .exactalg import IntPoly
from .graphs import Graph

_ORACLE_EDGE_LIMIT = 24
DEFAULT_CACHE_CAPACITY = 1 << 13


class _LRUCache:
    """Bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        try:
            self._data.move_to_end(key)
            return self._data[key]
        except KeyError:
            return None

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


_cache = _LRUCache(DEFAULT_CACHE_CAPACITY)


def matching_polynomial(G: Graph, cache: Optional[_LRUCache] = None) -> IntPoly:
    """The matching polynomial of G: monic, degree |V(G)|."""
    if cache is None:
        cache = _cache
    if G.is_forest:
        return _mu_forest(G, cache)
    result = IntPoly.one()
    for sub, _ in G.components():
        result = result * _mu_connected(sub, cache)
    return result


def _mu_forest(G: Graph, cache) -> IntPoly:
    key = G.canonical_code()
    hit = cache.get(key)
    if hit is not None:
        return hit
    result = IntPoly.one()
    for comp in G.component_vertex_sets():
        result = result * _mu_tree(G.adjacency, comp)
    cache.put(key, result)
    return result


def _mu_tree(adjacency: Sequence[Sequence[int]], comp: Sequence[int]) -> IntPoly:
    """Rooted two-polynomial DP over one tree component.

    For each vertex: the polynomial of its subtree and of the subtree with
    the vertex removed; the parent combines children with one x-multiply.
    """
    x = IntPoly.x()
    root = comp[0]
    parent = {root: -1}
    order = [root]
    for v in order:
        for w in adjacency[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    with_v: dict[int, IntPoly] = {}
    without_v: dict[int, IntPoly] = {}
    for v in reversed(order):
        kids = [w for w in adjacency[v] if parent.get(w) == v]
        if not kids:
            with_v[v] = x
            without_v[v] = IntPoly.one()
            continue
        fs = [with_v[w] for w in kids]
        prefix = [IntPoly.one()]
        for f in fs:
            prefix.append(prefix[-1] * f)
        suffix = [IntPoly.one()]
        for f in reversed(fs):
            suffix.append(suffix[-1] * f)
        suffix.reverse()
        everything = prefix[-1]
        acc = IntPoly.zero()
        for i, w in enumerate(kids):
            acc = acc + without_v[w] * prefix[i] * suffix[i + 1]
        without_v[v] = everything
        with_v[v] = x * everything - acc
    return with_v[root]


def _mu_connected(G: Graph, cache) -> IntPoly:
    if G.is_forest:
        return _mu_forest(G, cache)
    key = (G.n, G.edges)
    hit = cache.get(key)
    if hit is not None:
        return hit
    # Vertex recurrence on a max-degree vertex, smallest id on ties.
    u = max(range(G.n), key=lambda v: (G.degree(v), -v))
    rest, _ = G.delete_vertices([u])
    result = IntPoly.x() * matching_polynomial(rest, cache)
    for v in G.neighbors(u):
        minus_uv, _ = G.delete_vertices([u, v])
        result = result - matching_polynomial(minus_uv, cache)
    cache.put(key, result)
    return result


def matching_polynomial_recurrence(G: Graph) -> IntPoly:
    """Reference implementation straight from the deletion recurrences.

    Deliberately naive (no caching, no forest fast path); used to cross-check
    the production path.
    """
    if G.m == 0:
        return IntPoly.monomial(1, G.n)
    u = max(range(G.n), key=lambda v: (G.degree(v), -v))
    rest, _ = G.delete_vertices([u])
    result = IntPoly.x() * matching_polynomial_recurrence(rest)
    for v in G.neighbors(u):
        minus_uv, _ = G.delete_vertices([u, v])
        result = result - matching_polynomial_recurrence(minus_uv)
    return result


# -- brute-force oracle ------------------------------------------------------


@dataclass(frozen=True)
class MatchCounts:
    """p(G,0), p(G,1), ..., p(G, floor(n/2)) by explicit enumeration."""

    n: int
    counts: tuple[int, ...]

    def to_polynomial(self) -> IntPoly:
        out = [0] * (self.n + 1)
        for k, p in enumerate(self.counts):
            out[self.n - 2 * k] += p if k % 2 == 0 else -p
        return IntPoly(out)


def matching_counts(G: Graph) -> MatchCounts:
    """Count matchings of every size by depth-first subset enumeration."""
    if G.m > _ORACLE_EDGE_LIMIT:
        raise TooLarge(f"oracle handles up to {_ORACLE_EDGE_LIMIT} edges, got {G.m}")
    counts = [0] * (G.n // 2 + 1)
    counts[0] = 1
    edges = G.edges
    m = len(edges)

    def extend(start: int, used: int, k: int) -> None:
        for j in range(start, m):
            u, v = edges[j]
            bits = (1 << u) | (1 << v)
            if used & bits:
                continue
            counts[k + 1] += 1
            extend(j + 1, used | bits, k + 1)

    extend(0, 0, 0)
    return MatchCounts(G.n, tuple(counts))


# -- identity checks -----------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    passed: bool
    checks_run: int
    failures: tuple[tuple[str, str], ...]  # (check name, detail)


def check_identities(
    G: Graph, trials: Optional[int] = None, seed: int = 0
) -> IdentityReport:
    """Verify the edge-deletion and vertex-deletion recurrences and the
    product over components.

    By default every edge and every vertex is checked, and the product on
    G - u for every vertex u.  With ``trials`` set, that many seeded random
    picks of an edge and of a vertex are checked instead, and the product
    once on G itself.  Failures name the check: ``edge-recurrence``,
    ``vertex-recurrence`` or ``component-product``.
    """
    if trials is None:
        edges, vertices = G.edges, range(G.n)
    elif trials < 1:
        raise ValueError("trials must be >= 1")
    else:
        rng = random.Random(seed)
        edges, vertices = [], []
        for _ in range(trials):
            if G.m:
                edges.append(G.edges[rng.randrange(G.m)])
            if G.n:
                vertices.append(rng.randrange(G.n))
    failures = []
    checks = 0
    mu = matching_polynomial(G)

    if trials is not None:
        prod = _component_product(G)
        checks += 1
        if prod != mu:
            failures.append(("component-product", f"{prod} != {mu}"))

    x = IntPoly.x()
    for u, v in edges:
        minus_e = Graph(G.n, [e for e in G.edges if e != (u, v)], G.labels)
        minus_uv, _ = G.delete_vertices([u, v])
        checks += 1
        lhs = matching_polynomial(minus_e) - matching_polynomial(minus_uv)
        if lhs != mu:
            failures.append(("edge-recurrence", f"edge ({u},{v}): {lhs} != {mu}"))
    for u in vertices:
        rest, _ = G.delete_vertices([u])
        acc = x * matching_polynomial(rest)
        for v in G.neighbors(u):
            minus_uv, _ = G.delete_vertices([u, v])
            acc = acc - matching_polynomial(minus_uv)
        checks += 1
        if acc != mu:
            failures.append(("vertex-recurrence", f"vertex {u}: {acc} != {mu}"))
        if trials is None:
            checks += 1
            if _component_product(rest) != matching_polynomial(rest):
                failures.append(("component-product", f"after deleting {u}"))
    return IdentityReport(passed=not failures, checks_run=checks, failures=tuple(failures))


def _component_product(G: Graph) -> IntPoly:
    prod = IntPoly.one()
    for sub, _ in G.components():
        prod = prod * matching_polynomial(sub)
    return prod
