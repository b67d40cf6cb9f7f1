"""Matching polynomials, matching-count oracle, and recurrence identity checks.

The matching polynomial of a graph on n vertices is
``sum_k (-1)^k p(G,k) x^(n-2k)`` where p(G,k) counts k-edge matchings.
Every matching polynomial, and every family mu(G - S) asked for together,
comes from one vertex deletion recurrence on vertex bitmasks of one graph;
tree pieces use a linear-time rooted DP and a bounded cache keyed by
canonical code, so isomorphic subtrees are shared across graphs and sweeps.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import TooLarge
from .exactalg import IntPoly
from .graphs import Graph, _tree_code_local

_ORACLE_EDGE_LIMIT = 24
DEFAULT_CACHE_CAPACITY = 1 << 13
_MEMO_BUDGET = 1 << 17  # new subproblems per mu asked for; G(20, 1/2) needs 53k


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

    def __len__(self) -> int:
        return len(self._data)


_cache = _LRUCache(DEFAULT_CACHE_CAPACITY)


def matching_polynomial(G: Graph, cache: Optional[_LRUCache] = None) -> IntPoly:
    """The matching polynomial of G: monic, degree |V(G)|."""
    cache = _cache if cache is None else cache
    key = G.canonical_code() if G.is_forest else (G.n, G.edges)
    result = cache.get(key)
    if result is None:
        result = _DeletionRecurrence(G, cache).mu((1 << G.n) - 1)
        cache.put(key, result)
    return result


def deletion_polynomials(G: Graph, drops: Sequence[Sequence[int]]) -> list[IntPoly]:
    """mu(G - S) for every vertex set S in ``drops``, from one shared memo."""
    run, full, out = _DeletionRecurrence(G, _cache), (1 << G.n) - 1, []
    for S in drops:
        run.start = len(run.memo)  # each mu(G - S) may add the whole budget
        out.append(run.mu(full & ~sum(1 << v for v in set(S))))
    return out


def vertex_deleted_polynomials(G: Graph) -> tuple[IntPoly, ...]:
    """mu(G - u) for every vertex u, computed once per graph and kept on it."""
    if G._deleted_mu is None:
        polys = tuple(deletion_polynomials(G, [(u,) for u in range(G.n)]))
        object.__setattr__(G, "_deleted_mu", polys)
    return G._deleted_mu


class _DeletionRecurrence:
    """mu of the induced subgraphs G[S] of one graph, S a vertex bitmask,
    memoized by S; a disconnected G[S] is the product of its components.  A
    connected one, relabelled 0..k-1 in vertex order, is cached under its tree
    code or else under the integer with bit i*k + j per edge ij (i < j) and bit
    k*k; a tree misses into the rooted DP, any other piece deletes a max-degree
    u (smallest id on ties): mu = x mu(S - u) - sum_v mu(S - u - v)."""

    def __init__(self, G: Graph, cache):
        self.adjacency = G.adjacency
        self.nbr = [sum(1 << w for w in a) for a in G.adjacency]
        self.cache = cache
        self.memo: dict[int, IntPoly] = {0: IntPoly.one()}
        self.start = 0

    def mu(self, mask: int) -> IntPoly:
        if mask in self.memo:
            return self.memo[mask]
        comps, rest = [], mask
        while rest:
            comp, frontier = 0, rest & -rest
            while frontier:
                comp |= frontier
                low = frontier & -frontier
                frontier ^= low | self.nbr[low.bit_length() - 1] & rest & ~comp
            comps.append(comp)
            rest &= ~comp
        if len(comps) > 1:
            result = math.prod(map(self.mu, comps))
        else:
            verts = [v for v in range(mask.bit_length()) if mask >> v & 1]
            index = {v: i for i, v in enumerate(verts)}
            adj = [[index[w] for w in self.adjacency[v] if mask >> w & 1] for v in verts]
            k = len(verts)
            tree = sum(map(len, adj)) == 2 * k - 2
            key = _tree_code_local(k, adj) if tree else sum(
                [1 << i * k + j for i, a in enumerate(adj) for j in a if i < j], 1 << k * k)
            result = self.cache.get(key)
            if result is None:
                result = _mu_tree(adj, 0) if tree else self._delete(mask, verts, adj)
                self.cache.put(key, result)
        self.memo[mask] = result
        if len(self.memo) - self.start > _MEMO_BUDGET:
            raise TooLarge(f"{len(self.memo) - self.start} subproblems exceed {_MEMO_BUDGET}")
        return result

    def _delete(self, mask: int, verts: list[int], adj: list[list[int]]) -> IntPoly:
        u = verts[max(range(len(verts)), key=lambda i: (len(adj[i]), -i))]
        coeffs = [0, *self.mu(mask & ~(1 << u)).coeffs]
        for v in self.adjacency[u]:
            if mask >> v & 1:
                for i, c in enumerate(self.mu(mask & ~(1 << u | 1 << v)).coeffs):
                    coeffs[i] -= c
        return IntPoly(coeffs)


def _mu_tree(adjacency: Sequence[Sequence[int]], root: int) -> IntPoly:
    """Rooted DP over one tree: for each vertex v, mu of its subtree T_v
    with and without v.  Each child w joins v by the edge recurrence
    mu(H + vw) = mu(H) mu(T_w) - mu(H - v) mu(T_w - w)."""
    parent = {root: -1}
    order = [root]
    for v in order:
        for w in adjacency[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    with_v, without_v = {}, {}
    for v in reversed(order):
        a, b = IntPoly.x(), IntPoly.one()
        for w in adjacency[v]:
            if parent[w] == v:
                a, b = a * with_v[w] - b * without_v[w], b * with_v[w]
        with_v[v], without_v[v] = a, b
    return with_v[root]


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
