"""Matching polynomials, matching-count oracle, and recurrence identity checks.

The matching polynomial of a graph on n vertices is
``sum_k (-1)^k p(G,k) x^(n-2k)`` where p(G,k) counts k-edge matchings.
Counts are computed as m = sum_k p_k t^k, packed into one int per polynomial.
Every matching polynomial comes from one vertex deletion recurrence on vertex
bitmasks of one graph; tree pieces take a rooted pass, and narrow graphs
with cycles a frontier pass.  On graphs of up to 64 vertices the same pass
also yields mu(G - u) for every vertex u: each memo entry then carries the
counts of its subgraph and of each one-vertex deletion, which a tree piece
gets from a rooted pass down and back up and the frontier from a pass
back.  Connected pieces of up to 64 vertices are shared across graphs and
sweeps through a bounded cache keyed by their relabelled edge set, whole
forests by canonical code.  For tree eigenvectors, a pass down and one from
the root give mu(K - P_rv) for every v of a subtree K.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import Optional, Sequence

from .errors import TooLarge
from .exactalg import IntPoly
from .graphs import Graph, bfs_rooting

_ORACLE_EDGE_LIMIT = 24
DEFAULT_CACHE_CAPACITY = 1 << 13
_MEMO_BUDGET = 1 << 17  # new recurrence subproblems per mu asked for; G(20, 1/2) needs 53k
# Up to this many vertices mu(G) keeps every mu(G - u) from the same pass.
# Beyond it the family, n polynomials beside mu, can cost n times the time
# and memory of mu alone, so it waits until asked for.
_FAMILY_LIMIT = 64
# Connected pieces of more vertices are neither keyed nor cached: a k-vertex
# key takes k^2 bits, the deletions about k^2 / 2 counts, and so large a
# piece seldom recurs.
_PIECE_LIMIT = 64
# Graphs with cycles whose greedy order keeps at most this many vertices on
# the frontier take the frontier pass: (n + m) 2^12 packed counts at most.
_FRONTIER_WIDTH = 12


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
    """The matching polynomial of G: monic, degree |V(G)|.  On a cache miss
    for G of up to ``_FAMILY_LIMIT`` vertices the same pass also keeps every
    mu(G - u) on G."""
    cache = _cache if cache is None else cache
    # Other graphs are keyed by their edges as bytes: many results are
    # kept, and the bytes take a tenth of the memory of the tuple of edges.
    key = G.canonical_code() if G.is_forest else (G.n, array("I", chain(*G.edges)).tobytes())
    result = cache.get(key)
    if result is None:
        if G.n <= _FAMILY_LIMIT:
            result = _one_pass(G, cache)
        else:
            result = _DeletionRecurrence(G, cache, deletions=False).mu((1 << G.n) - 1)
        cache.put(key, result)
    return result


def deletion_polynomials(G: Graph, drops: Sequence[Sequence[int]]) -> list[IntPoly]:
    """mu(G - S) for every vertex set S in ``drops``, from one shared memo."""
    run = _DeletionRecurrence(G, _cache, deletions=False)
    full, out = (1 << G.n) - 1, []
    for S in drops:
        run.start = len(run.memo)  # each mu(G - S) may add the whole budget
        out.append(run.mu(full & ~sum(1 << v for v in set(S))))
    return out


def vertex_deleted_polynomials(G: Graph) -> tuple[IntPoly, ...]:
    """mu(G - u) for every vertex u, computed once per graph and kept on it."""
    if G._deleted_mu is None:
        _one_pass(G, _cache)
    return G._deleted_mu


def _one_pass(G: Graph, cache) -> IntPoly:
    """mu(G), keeping every mu(G - u) on G, from one recurrence pass."""
    run = _DeletionRecurrence(G, cache)
    packed, deleted = run.family((1 << G.n) - 1)
    if G._deleted_mu is None:
        polys = tuple(_unpack(d, G.n - 1, run.base) for d in deleted)
        object.__setattr__(G, "_deleted_mu", polys)
    return _unpack(packed, G.n, run.base)


def _unpack(packed: int, n: int, base: int) -> IntPoly:
    """The matching polynomial on n vertices whose k-matching count is slot
    k of ``packed``: its coefficient of x^(n - 2k) is (-1)^k p_k."""
    coeffs, slot, k = [0] * (n + 1), (1 << base) - 1, 0
    while packed:
        coeffs[n - 2 * k] = -(packed & slot) if k & 1 else packed & slot
        packed, k = packed >> base, k + 1
    return IntPoly(coeffs)


def _vertices(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _count_base(adjacency: Sequence[Sequence[int]]) -> int:
    """Bits per packed count: each vertex picks at most one later partner, so
    prod_v (1 + #later neighbours) bounds the matchings of every subgraph."""
    bound = math.prod(1 + sum(w > v for w in a) for v, a in enumerate(adjacency))
    return 32 * -(-bound.bit_length() // 32)


def _down_pass(adj: list[list[int]], base: int, keep: bool) -> tuple:
    """Breadth-first order, parents, and m(T_v), m(T_v - v) for the subtree T_v
    of every v of a tree on 0..k-1 rooted at 0: a child subtree T_w joins v's
    part H by m(H + T_w + vw) = m(H) m(T_w) + t m(H - v) m(T_w - w).  Unless
    ``keep``, a subtree's counts are dropped once joined."""
    order, parent = bfs_rooting(adj, 0)
    with_v, without_v = [1] * len(adj), [1] * len(adj)
    for v in reversed(order):
        a = b = 1
        for w in adj[v]:
            if w != parent[v]:
                a, b = a * with_v[w] + (b * without_v[w] << base), b * with_v[w]
                if not keep:
                    with_v[w] = without_v[w] = None
        with_v[v], without_v[v] = a, b
    return order, parent, with_v, without_v


def _tree_counts(adj: list[list[int]], base: int, deletions: bool) -> tuple:
    """m(T) of a tree T on 0..k-1 rooted at 0 and, with ``deletions``,
    m(T - w) for every vertex w, from the pass down and one back up.

    The pass back up uses that T - w is T - T_w beside T_w - w.  With p the
    parent of w, T - T_w is p joined to its other parts X (the other child
    subtrees and, above p, T - T_p), each met at one vertex x:
    m(T - T_w - p) = P = prod m(X) and m(T - T_w) = P + t Q, where
    Q = sum_X m(X - x) prod_{Y != X} m(Y), from prefix and suffix joins."""
    order, parent, with_v, without_v = _down_pass(adj, base, deletions)
    if not deletions:
        return with_v[0], ()
    up, up_without_p = [1] * len(adj), [1] * len(adj)  # m(T - T_v), m(T - T_v - p)
    for p in order:
        kids = [w for w in adj[p] if w != parent[p]]
        parts = [(with_v[w], without_v[w]) for w in kids]
        if p:
            parts.append((up[p], up_without_p[p]))
        before = [(1, 0)]
        for a, b in parts[:len(kids) - 1]:
            P, Q = before[-1]
            before.append((P * a, Q * a + P * b))
        P2, Q2 = 1, 0
        for i in reversed(range(len(parts))):
            if i < len(kids):
                P1, Q1 = before[i]
                up_without_p[kids[i]] = P = P1 * P2
                up[kids[i]] = P + (Q1 * P2 + P1 * Q2 << base)
            if i:
                a, b = parts[i]
                P2, Q2 = a * P2, b * P2 + a * Q2
    return with_v[0], tuple(u * w for u, w in zip(up, without_v))


def _rooted_path_polynomials(G: Graph, verts: Sequence[int]) -> list[IntPoly]:
    """mu(K - P_rv) for every v in the sorted ``verts`` of a subtree K of G, P_rv
    its path from r = verts[0].  Rooted at r, m(K - P_rr) = m(T_r - r), and a
    child w of p has m(K - P_rw) = m(K - P_rp) m(T_w - w) / m(T_w), an exact
    division: the packed m(T_p - p) is the product of its children's m(T_c)."""
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[w] for w in G.adjacency[v] if w in index] for v in verts]
    base = _count_base(adj)
    order, parent, with_v, without_v = _down_pass(adj, base, True)
    out, size = [without_v[0]] * len(adj), [len(adj) - 1] * len(adj)  # m, |K - P_rv|
    for w in order[1:]:
        p = parent[w]
        out[w], size[w] = out[p] // with_v[w] * without_v[w], size[p] - 1
    return [_unpack(c, k, base) for c, k in zip(out, size)]


class _DeletionRecurrence:
    """Matching counts of the induced subgraphs G[S] of one graph, S a vertex
    bitmask, packed into one int per polynomial with ``base`` bits per
    count (``_count_base``).  With ``deletions`` each entry also holds the
    counts of G[S - w] for every w in S, in vertex order; without, an empty
    tuple.

    Entries are memoized by S.  A disconnected G[S] is kept as its product
    and components; its deletions are rebuilt on use.  A connected one,
    relabelled 0..k-1 in vertex order, is cached if it has at most
    ``_PIECE_LIMIT`` vertices, under (base, the integer with bit i*k + j per
    edge ij (i < j) and bit k*k): as bytes holding its count and its
    deletions, or as its count alone, which a pass with deletions takes for
    a miss.  On a miss a tree takes ``_tree_counts``; any other piece
    deletes a max-degree u (smallest id on ties):
    m(S) = m(S - u) + t sum_v m(S - u - v) over the neighbours v of u, and
    for w != u, m(S - w) = m(S - u - w) + t sum_{v != w} m(S - u - v - w).

    The entries a mask needs are solved first from an explicit stack, not by
    recursion, so no recursion limit caps the size of a graph.  Before that,
    the mask asked for takes the frontier pass if G and G[S] have cycles and
    the greedy order of G[S] keeps at most ``_FRONTIER_WIDTH`` vertices on
    the frontier: one memo entry, not cached, not counted in the budget."""

    def __init__(self, G: Graph, cache, deletions: bool = True):
        self.adjacency = G.adjacency
        self.nbr = [sum(1 << w for w in a) for a in G.adjacency]
        self.base = _count_base(G.adjacency)
        self.deletions = deletions
        self.cache = cache
        self.memo: dict[int, tuple] = {0: (1, ())}
        self.start = 0
        self.cyclic = not G.is_forest

    def mu(self, mask: int) -> IntPoly:
        return _unpack(self.entry(mask)[0], mask.bit_count(), self.base)

    def family(self, mask: int) -> tuple[int, tuple[int, ...]]:
        """m(S) and m(S - w) for every w in S."""
        return self._with_deletions(self.entry(mask))

    def entry(self, mask: int) -> tuple:
        """The memo entry of S: m(S) and its deletions or, for a disconnected
        S, m(S), its components and the vertex order of their deletions."""
        found = self.memo.get(mask)
        if found is not None:
            return found
        if self.cyclic and (steps := self._frontier_steps(mask)):
            self.memo[mask] = found = self._frontier(steps)
            return found
        stack, waiting = [mask], {}
        while stack:
            S = stack[-1]
            if S in self.memo:
                stack.pop()
                continue
            finish = waiting.pop(S, None)  # set once every mask S needs is in
            if finish is None:
                needs, finish = self._plan(S)
                needs = [T for T in needs if T not in self.memo]
                if needs:
                    waiting[S] = finish
                    stack += reversed(needs)
                    continue
            stack.pop()
            self.memo[S] = finish()
            new = len(self.memo) - self.start
            if new > _MEMO_BUDGET:
                raise TooLarge(f"{new} subproblems exceed {_MEMO_BUDGET}")
        return self.memo[mask]

    def _frontier_steps(self, mask: int) -> Optional[list]:
        """The greedy order of G[S] as steps (bit of v, bits of its placed
        neighbours, (w, bit) of each w forgotten after v), each vertex on the
        frontier holding the lowest free bit; None if G[S] is a forest or
        needs more than ``_FRONTIER_WIDTH`` bits."""
        left = {v: self.nbr[v] & mask for v in _vertices(mask)}  # unplaced neighbours
        placed = dict.fromkeys(left, 0)  # placed neighbours, for unplaced vertices
        heap = sorted((0, a.bit_count(), v) for v, a in left.items())  # stale entries are skipped
        bit, free, steps, edges, comps = {}, (1 << _FRONTIER_WIDTH) - 1, [], 0, 0
        while placed:
            count, _, v = heapq.heappop(heap)
            if placed.get(v) != -count:
                continue
            if not free:
                return None
            bit[v] = low = free & -free
            free ^= low
            del placed[v]
            earlier = []
            for u in _vertices(self.nbr[v] & mask):
                left[u] &= ~(1 << v)
                if u in placed:
                    placed[u] += 1
                    heapq.heappush(heap, (-placed[u], (self.nbr[u] & mask).bit_count(), u))
                else:
                    earlier.append(u)
            edges, comps = edges + len(earlier), comps + (not earlier)  # v starts a component
            done = [(w, bit[w]) for w in (v, *earlier) if not left[w]]
            free |= sum(b for _, b in done)
            steps.append((low, [bit[u] for u in earlier], done))
        return None if edges == len(left) - comps else steps

    def _frontier(self, steps: list) -> tuple:
        """m(S) from one pass over the frontier steps of S, and with
        ``deletions`` every m(S - w) from a pass back.

        The table F maps the set of matched frontier vertices to the counts
        of the matchings placed so far: an edge ab lifts each set without a
        or b to the set with both, one edge more; forgetting w merges the
        sets with and without w.  The pass back keeps the counts B of the
        completions of each set by the edges still to come, so at the step
        that forgets w, m(S - w) = sum F(T) B(T) over the sets T without w,
        each product bounded by the matchings of S - w."""
        base, table, kept = self.base, {0: 1}, []
        for low, earlier, done in steps:
            for b in earlier:
                pair = low | b
                for T, c in list(table.items()):
                    if not T & pair:
                        table[T | pair] = table.get(T | pair, 0) + (c << base)
            for _, b in done:
                if self.deletions:
                    kept.append(table)
                merged = {}
                for T, c in table.items():
                    merged[T & ~b] = merged.get(T & ~b, 0) + c
                table = merged
        if not self.deletions:
            return table[0], ()
        table, deleted = {0: 1}, {}
        for low, earlier, done in reversed(steps):
            for w, b in reversed(done):
                deleted[w] = sum(c * table[T] for T, c in kept.pop().items() if not T & b)
                table.update([(T | b, c) for T, c in table.items()])
            for b in reversed(earlier):
                pair = low | b
                for T in table:
                    if not T & pair:
                        table[T] += table[T | pair] << base
            table = {T: c for T, c in table.items() if not T & low}
        return table[0], tuple(deleted[w] for w in sorted(deleted))

    def _plan(self, mask: int) -> tuple:
        """The masks the entry of S needs, and a function that builds it
        once they are in the memo."""
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
            return comps, lambda: self._join(comps)
        verts = _vertices(mask)
        index = {v: i for i, v in enumerate(verts)}
        adj = [[index[w] for w in self.adjacency[v] if mask >> w & 1] for v in verts]
        k, key = len(verts), None
        if k <= _PIECE_LIMIT:
            key = self.base, sum(
                [1 << i * k + j for i, a in enumerate(adj) for j in a if i < j], 1 << k * k)
            frozen = self.cache.get(key)
            if isinstance(frozen, bytes) or frozen is not None and not self.deletions:
                return (), lambda: self._thaw(frozen, k)
        if sum(map(len, adj)) == 2 * k - 2:
            return (), lambda: self._keep(key, _tree_counts(adj, self.base, self.deletions))
        i = max(range(k), key=lambda j: (len(adj[j]), -j))
        rest = mask & ~(1 << verts[i])
        needs = [rest, *(rest & ~(1 << verts[j]) for j in adj[i])]
        return needs, lambda: self._keep(key, self._delete(i, adj[i], needs))

    def _keep(self, key, result: tuple) -> tuple:
        """Cache a piece that has a key: with deletions as bytes, every count
        in the width of m(S), the largest; without, as its count."""
        packed, deleted = result
        if key is not None:
            width = (packed.bit_length() + 7) // 8
            self.cache.put(key, b"".join(c.to_bytes(width, "little") for c in (packed, *deleted))
                           if self.deletions else packed)
        return result

    def _thaw(self, frozen, k: int) -> tuple:
        if isinstance(frozen, int):
            return frozen, ()
        width = len(frozen) // (k + 1)
        if not self.deletions:
            return int.from_bytes(frozen[:width], "little"), ()
        packed, *deleted = [int.from_bytes(frozen[i:i + width], "little")
                            for i in range(0, len(frozen), width)]
        return packed, tuple(deleted)

    def _join(self, comps: list[int]) -> tuple:
        product = math.prod(self.memo[c][0] for c in comps)
        if not self.deletions:
            return product, ()
        joined = [v for c in comps for v in _vertices(c)]
        return product, comps, sorted(range(len(joined)), key=joined.__getitem__)

    def _with_deletions(self, found: tuple) -> tuple:
        """A memo entry with its deletions.  For a disconnected S, deleting w
        from one component multiplies its own deletion by the product of the
        other components."""
        if len(found) == 2:
            return found
        product, comps, order = found
        joined, others = [], {}
        for c in comps:
            packed, deleted = self.memo[c]
            if packed not in others:  # many equal small pieces are common
                others[packed] = product // packed
            joined += [d * others[packed] for d in deleted]
        return product, tuple(map(joined.__getitem__, order))

    def _delete(self, i: int, nbrs: list[int], needs: list[int]) -> tuple:
        """The entry of S from those of S - u and every S - u - v, with u
        vertex i of S and ``nbrs`` the positions of its neighbours."""
        if not self.deletions:
            pairs = sum(self.memo[rest][0] for rest in needs[1:])
            return self.memo[needs[0]][0] + (pairs << self.base), ()
        without_u, deleted = self._with_deletions(self.memo[needs[0]])
        pairs, sums = 0, [0] * len(deleted)
        for j, rest in zip(nbrs, needs[1:]):
            packed, below = self._with_deletions(self.memo[rest])
            pairs += packed
            j -= j > i  # position of v in S - u
            sums = list(map(add, sums, (*below[:j], 0, *below[j:])))
        out = [d + (s << self.base) for d, s in zip(deleted, sums)]
        out.insert(i, without_u)
        return without_u + (pairs << self.base), tuple(out)


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


def check_identities(G: Graph) -> IdentityReport:
    """Verify the edge-deletion and vertex-deletion recurrences on every edge
    and every vertex, and the product over components on G - u for every
    vertex u.  Failures name the check: ``edge-recurrence``,
    ``vertex-recurrence`` or ``component-product``.

    Each mu(G - u) is the family kept beside mu(G) and each mu(G - u - v)
    comes from one ``deletion_polynomials`` call on G's masks, while G - e
    and the components of G - u are graphs of their own, so every identity
    compares two separate computations.
    """
    failures = []
    mu, x = matching_polynomial(G), IntPoly.x()
    minus_u = vertex_deleted_polynomials(G)
    minus_uv = dict(zip(G.edges, deletion_polynomials(G, G.edges)))
    for u, v in G.edges:
        minus_e = Graph(G.n, [e for e in G.edges if e != (u, v)], G.labels)
        lhs = matching_polynomial(minus_e) - minus_uv[u, v]
        if lhs != mu:
            failures.append(("edge-recurrence", f"edge ({u},{v}): {lhs} != {mu}"))
    for u in range(G.n):
        acc = x * minus_u[u]
        for v in G.neighbors(u):
            acc = acc - minus_uv[min(u, v), max(u, v)]
        if acc != mu:
            failures.append(("vertex-recurrence", f"vertex {u}: {acc} != {mu}"))
        if _component_product(G.delete_vertices([u])[0]) != minus_u[u]:
            failures.append(("component-product", f"after deleting {u}"))
    return IdentityReport(
        passed=not failures, checks_run=G.m + 2 * G.n, failures=tuple(failures))


def _component_product(G: Graph) -> IntPoly:
    return math.prod((matching_polynomial(sub) for sub, _ in G.components()), start=IntPoly.one())
