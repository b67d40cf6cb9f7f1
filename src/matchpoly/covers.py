"""Path covers: minimum covers, exhaustive enumeration, extremality
certificates read from path periods, and the main biconditional verdict.

A cover is canonically an acyclic edge subset S with maximum degree 2; the
paths are its components, and |paths| = |V| - |S|.  Minimizing the number of
paths is maximizing |S|.

The verdict on a forest is read from cover counts (all covers, and those
extremal for each path period) from one leaf-up DP; covers are enumerated
only on non-forests, and on a forest only to find the first counterexample
once the counts report a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import InvalidCover, TooLarge
from .exactalg import AlgebraicRootClass, IntPoly
from .graphs import Graph, bfs_rooting
from .matchcore import matching_polynomial
from .thetaclass import path_period, period_divides, root_classes

_GENERAL_COVER_LIMIT = 16


@dataclass(frozen=True)
class PathCover:
    """Vertex-disjoint paths covering all vertices of a graph."""

    paths: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.paths)

    def edge_subset(self) -> tuple[tuple[int, int], ...]:
        out = []
        for p in self.paths:
            for a, b in zip(p, p[1:]):
                out.append((a, b) if a < b else (b, a))
        return tuple(sorted(out))

    def validate(self, G: Graph) -> None:
        seen: set[int] = set()
        for p in self.paths:
            if not p:
                raise InvalidCover("empty path in cover")
            for v in p:
                if not (0 <= v < G.n):
                    raise InvalidCover(f"vertex {v} out of range")
                if v in seen:
                    raise InvalidCover(f"vertex {v} appears twice")
                seen.add(v)
            for a, b in zip(p, p[1:]):
                if not G.has_edge(a, b):
                    raise InvalidCover(f"({a},{b}) is not an edge of the graph")
        if len(seen) != G.n:
            raise InvalidCover("cover does not reach every vertex")

    @staticmethod
    def from_edge_subset(G: Graph, subset: Sequence[tuple[int, int]]) -> "PathCover":
        adj: dict[int, list[int]] = {v: [] for v in range(G.n)}
        for u, v in subset:
            adj[u].append(v)
            adj[v].append(u)
        paths = []
        visited: set[int] = set()
        for start in range(G.n):
            if start in visited:
                continue
            # Walk to an endpoint of this component, then along it.
            end = start
            prev = -1
            while len(adj[end]) > 1:
                prev, end = end, [w for w in adj[end] if w != prev][0]
            seq, prev = [end], -1
            while nxt := [w for w in adj[seq[-1]] if w != prev]:
                prev = seq[-1]
                seq.append(nxt[0])
            visited.update(seq)
            if seq[0] > seq[-1]:
                seq.reverse()
            paths.append(tuple(seq))
        paths.sort(key=lambda p: (min(p), p))
        return PathCover(paths=tuple(paths))

    def to_json(self) -> dict:
        return {"paths": [list(p) for p in self.paths]}


# -- minimum cover -------------------------------------------------------------


def min_path_cover(G: Graph) -> PathCover:
    """A cover by the minimum number of vertex-disjoint paths.

    Ties are broken toward the lexicographically smallest edge subset.
    Forests use an exact leaf-up DP; other graphs up to 16 vertices take the
    first cover that ``enumerate_covers`` yields for the smallest m.
    """
    if G.is_forest:
        return PathCover.from_edge_subset(G, _forest_lexmin_subset(G))
    if G.n > _GENERAL_COVER_LIMIT:
        raise TooLarge(
            f"minimum path cover on non-forests handles n <= {_GENERAL_COVER_LIMIT}"
        )
    # A path on k vertices leaves at most one unmatched, so at least
    # n - 2*nu(G) paths are needed: the lowest power of x in mu(G).  m = n
    # always yields the edgeless cover, so the search ends.
    low = next(i for i, c in enumerate(matching_polynomial(G).coeffs) if c)
    return next(Q for m in range(max(low, 1), G.n + 1) for Q in enumerate_covers(G, m))


def _forest_lexmin_subset(G: Graph) -> tuple[tuple[int, int], ...]:
    """Lexicographically smallest maximum degree-<=2 edge subset of a forest.

    A leaf-up DP on each rooted component keeps val[v] = the best subset size
    in v's subtree with at most 0, 1 and 2 child edges kept at v.  Edges are
    decided in order: an edge is kept iff its component's best stays at the
    maximum with the edge forced in, and is forced out otherwise.  A decision
    changes val only on the root path of the edge's upper end, which is
    recomputed up to the first vertex whose val does not change.
    """
    NEG = -(10**9)
    parent, root = [-1] * G.n, [-1] * G.n
    kids: list[list[int]] = [[] for _ in range(G.n)]
    # kept[c]: the edge from c to its parent is undecided (None), in or out.
    kept: list[Optional[bool]] = [None] * G.n
    val: list[tuple[int, ...]] = [(0, 0, 0)] * G.n

    def node(v: int) -> tuple[int, ...]:
        base = forced = 0
        deltas = []
        for c in kids[v]:
            open1 = max(val[c][0], val[c][1])
            any2 = val[c][2]
            if kept[c]:
                forced += 1
                base += open1 + 1
            else:
                base += any2
                if kept[c] is None:
                    deltas.append(open1 + 1 - any2)
        if forced > 2:
            return (NEG, NEG, NEG)
        deltas.sort(reverse=True)
        return tuple(
            NEG if budget < forced else base + sum(d for d in deltas[: budget - forced] if d > 0)
            for budget in range(3)
        )

    def settle(v: int) -> None:
        while v >= 0 and (new := node(v)) != val[v]:
            val[v] = new
            v = parent[v]

    best = {}
    for comp in G.component_vertex_sets():
        order, par = bfs_rooting(G.adjacency, comp[0])
        for v in reversed(order):
            parent[v], root[v] = par[v], comp[0]
            kids[v] = [w for w in G.adjacency[v] if par[w] == v]
            val[v] = node(v)
        best[comp[0]] = max(val[comp[0]])
    chosen: list[tuple[int, int]] = []
    for u, v in G.edges:
        top, child = (u, v) if parent[v] == u else (v, u)
        kept[child] = True
        settle(top)
        if max(val[root[top]]) == best[root[top]]:
            chosen.append((u, v))
        else:
            kept[child] = False
            settle(top)
    if len(chosen) != sum(best.values()):
        raise RuntimeError("lexicographic forest cover fell short of the maximum")
    return tuple(chosen)


# -- cover enumeration ------------------------------------------------------------


def enumerate_covers(G: Graph, m: int) -> Iterator[PathCover]:
    """All covers with exactly m paths, in lexicographic edge-subset order.

    Edges are decided in order, kept before left out.  A branch is cut when
    the degree capacity cannot reach the target: with room[v] the edges at v
    not left out, no subset of them with maximum degree 2 has more than
    cap // 2 edges, cap = sum of min(2, room[v]).  Keeping an edge leaves cap
    as it is; leaving it out lowers cap by 1 at each end with room <= 2.
    Equivalently, with deg[v] the kept and rem[v] the undecided edges at v,
    at most (sum of min(2 - deg[v], rem[v])) // 2 more edges can be kept.
    Only branches without a cover are cut, so the covers and their order
    are those of the plain search.
    """
    is_forest = G.is_forest
    if not is_forest and G.n > _GENERAL_COVER_LIMIT:
        raise TooLarge(
            f"cover enumeration on non-forests handles n <= {_GENERAL_COVER_LIMIT}"
        )
    target = G.n - m
    if target < 0 or m < 1 and G.n > 0:
        return
    if target == 0:
        yield PathCover.from_edge_subset(G, ())
        return
    edges = G.edges
    deg = [0] * G.n
    room = [len(nbrs) for nbrs in G.adjacency]
    # end[v]: the other end of the path that v ends (v itself when isolated);
    # stale once v is interior, but only read while deg[v] < 2.
    end = list(range(G.n))
    chosen: list[tuple[int, int]] = []

    def rec(i: int, cap: int) -> Iterator[PathCover]:
        # Entered while len(chosen) < target <= cap // 2 <= the number of
        # edges kept or undecided, so edge i exists.
        u, v = edges[i]
        if deg[u] < 2 and deg[v] < 2 and end[u] != v:
            a, b = end[u], end[v]
            end[a], end[b] = b, a
            deg[u] += 1
            deg[v] += 1
            chosen.append(edges[i])
            if len(chosen) == target:
                yield PathCover.from_edge_subset(G, tuple(chosen))
            else:
                yield from rec(i + 1, cap)
            chosen.pop()
            end[a], end[b] = u, v
            deg[u] -= 1
            deg[v] -= 1
        cap -= (room[u] <= 2) + (room[v] <= 2)
        if cap // 2 >= target:
            room[u] -= 1
            room[v] -= 1
            yield from rec(i + 1, cap)
            room[u] += 1
            room[v] += 1

    cap = sum(min(2, r) for r in room)
    if cap // 2 >= target:
        yield from rec(0, cap)


# -- extremality ------------------------------------------------------------------


def path_polynomial(k: int) -> IntPoly:
    """Matching polynomial of the path on k vertices (k = 0 gives 1)."""
    prev, cur = IntPoly(), IntPoly.one()
    for _ in range(k):
        prev, cur = cur, IntPoly.x() * cur - prev
    return cur


def path_mult(k: int, theta: AlgebraicRootClass) -> int:
    """Multiplicity of the root class in mu(P_k): 1 iff its period divides k + 1."""
    return int(period_divides(path_period(theta.minpoly, k), k + 1))


@dataclass(frozen=True)
class CrossEdge:
    edge: tuple[int, int]
    u_special: bool
    v_special: bool

    @property
    def witnessed(self) -> bool:
        return self.u_special or self.v_special


@dataclass(frozen=True)
class ExtremalReport:
    rootclass: AlgebraicRootClass
    cover: PathCover
    condition_a: tuple[bool, ...]
    cross_edges: tuple[CrossEdge, ...]

    @property
    def verdict(self) -> bool:
        return all(self.condition_a) and all(c.witnessed for c in self.cross_edges)

    def to_json(self, G: Graph) -> dict:
        return {
            "rootclass": self.rootclass.to_json(),
            "cover": self.cover.to_json(),
            "condition_a": list(self.condition_a),
            "cross_edges": [
                {
                    "edge": [G.label(c.edge[0]), G.label(c.edge[1])],
                    "u_special_in_path": c.u_special,
                    "v_special_in_path": c.v_special,
                    "witnessed": c.witnessed,
                }
                for c in self.cross_edges
            ],
            "extremal": self.verdict,
        }


def _layout(G: Graph, Q: PathCover) -> tuple[tuple[int, ...], list[tuple]]:
    """A cover, validated, as extremality reads it: the vertex count of every
    path, and every cross edge with the path and position of each end."""
    Q.validate(G)
    where = {v: (pi, j) for pi, p in enumerate(Q.paths) for j, v in enumerate(p)}
    cross = [(e, *where[e[0]], *where[e[1]]) for e in G.edges]
    return tuple(map(len, Q.paths)), [c for c in cross if c[1] != c[3]]


def _extremal(lengths: tuple[int, ...], cross: list[tuple], q: int) -> bool:
    """Extremality for path period q.  Once q divides every vertex count + 1,
    position j of a path is special iff q | j + 1."""
    return all(period_divides(q, k + 1) for k in lengths) and all(
        period_divides(q, ju + 1) or period_divides(q, jv + 1) for _, _, ju, _, jv in cross
    )


def is_extremal(G: Graph, theta: AlgebraicRootClass, Q: PathCover) -> ExtremalReport:
    """Certificate for the two extremality conditions: the root class divides
    every path's matching polynomial, and every cross edge has an endpoint
    that is special within its own path.  Both are read from the class's
    path period q: P_k has the class iff q | k + 1, and then position j is
    special iff q | j + 1."""
    lengths, cross_edges = _layout(G, Q)
    q = path_period(theta.minpoly, G.n)
    cond_a = tuple(period_divides(q, k + 1) for k in lengths)

    def special(path: int, j: int) -> bool:
        return cond_a[path] and period_divides(q, j + 1)

    cross = tuple(
        CrossEdge(e, special(pu, ju), special(pv, jv))
        for e, pu, ju, pv, jv in cross_edges
    )
    return ExtremalReport(rootclass=theta, cover=Q, condition_a=cond_a, cross_edges=cross)


# -- main theorem verdict ------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    cover: PathCover
    rootclass: AlgebraicRootClass
    reason: str


@dataclass(frozen=True)
class MainVerdict:
    min_cover_size: int
    max_mult: int
    witnesses: tuple[AlgebraicRootClass, ...]
    mult_le_cover: bool
    biconditional_ok: bool
    counterexample: Optional[Counterexample]
    covers_checked: int
    violations: int
    forest_mode: bool

    def to_json(self, G: Graph) -> dict:
        out = {
            "min_cover_size": self.min_cover_size,
            "max_mult": self.max_mult,
            "witnesses": [rc.to_json() for rc in self.witnesses],
            "mult_le_cover": self.mult_le_cover,
            "biconditional_ok": self.biconditional_ok,
            "covers_checked": self.covers_checked,
            "violations": self.violations,
            "forest_mode": self.forest_mode,
        }
        if self.counterexample is not None:
            out["counterexample"] = {
                "cover": self.counterexample.cover.to_json(),
                "rootclass": self.counterexample.rootclass.to_json(),
                "reason": self.counterexample.reason,
            }
        return out


def _forest_cover_counts(G: Graph, q: int, top: int) -> list[int]:
    """The covers of the forest G by m = 0..top paths that are extremal for
    path period q >= 1 as ``_extremal`` decides it (q = 1: all covers), from
    one leaf-up pass per rooted component.

    v's path either goes on up, with j = its vertex count from the lower end
    through v, mod q, or closes at v, special or not.  Each child keeps its
    edge to v (at most two do) or leaves a cross edge, which a non-special
    child makes v witness.  A path closing at v needs q | j + 1, or
    q | a + b + 2 for two kept children of residues a and b; v is special
    iff q | j, or q | a + 1.  Counts are polynomials in the number of closed
    paths, packed ``base`` bits per count: a forest has < 2^n covers.
    """
    base = max(G.n, 1)
    mask = (1 << base * (top + 1)) - 1
    total = 1
    up: list[dict[int, int]] = [{} for _ in range(G.n)]
    closed = [(0, 0)] * G.n  # (not special, special), one more path each
    for comp in G.component_vertex_sets():
        order, parent = bfs_rooting(G.adjacency, comp[0])
        for v in reversed(order):
            # (kept children, their residue or v's speciality, v must witness)
            acc = {(0, 0, False): 1}
            for c in (c for c in G.adjacency[v] if parent[c] == v):
                plain, special = closed[c]
                new: dict[tuple, int] = {}
                for (k, x, need), a in acc.items():
                    moves = [((k, x, need), special), ((k, x, True), plain)]
                    if k == 0:
                        moves += [((1, r, need), b) for r, b in up[c].items()]
                    elif k == 1:
                        moves.append(((2, (x + 1) % q == 0, need), up[c].get((-x - 2) % q, 0)))
                    for key, b in moves:
                        if b:
                            new[key] = new.get(key, 0) + (a * b & mask)
                acc = new
            ends = [0, 0]
            for (k, x, need), a in acc.items():
                j = (x + 1) % q
                special = x if k == 2 else j == 0
                if need and not special:
                    continue
                if k < 2:
                    up[v][j] = up[v].get(j, 0) + a
                if k == 2 or (j + 1) % q == 0:
                    ends[special] += a
            closed[v] = (ends[0] << base & mask, ends[1] << base & mask)
        total = total * sum(closed[comp[0]]) & mask
    return [total >> base * m & (1 << base) - 1 for m in range(top + 1)]


def _reason(msize: int, c: int, mult: int, max_mult: int, ext: bool, f: IntPoly) -> Optional[str]:
    """Why an m-path cover, extremal for a class or not, breaks the
    biconditional, or None."""
    if msize == c and mult == c and not ext:
        return f"multiplicity of {f} is {mult} = min cover size, but the cover is not extremal"
    if ext and mult != msize:
        return f"{msize}-path cover is extremal for {f}, but the multiplicity is {mult}"
    if ext and msize != max_mult:
        return f"extremal {msize}-path cover for {f}, but the maximum multiplicity is {max_mult}"
    return None


def _judge_enumerated(
    G: Graph, classes: list, periods: list[int], c: int, top: int, max_mult: int
) -> Iterator[Optional[Counterexample]]:
    """For every cover of c..top paths in enumeration order, then every root
    class: the violation the pair makes, or None."""
    for msize in range(c, top + 1):
        for Q in enumerate_covers(G, msize):
            layout = _layout(G, Q)
            for (rc, mult), q in zip(classes, periods):
                reason = _reason(msize, c, mult, max_mult, _extremal(*layout, q), rc.minpoly)
                yield None if reason is None else Counterexample(Q, rc, reason)


def certify_main(G: Graph, converse_cap: int = 4) -> MainVerdict:
    """Check the cover/multiplicity biconditional on one graph.

    Computes the minimum cover size c and maximum root multiplicity M,
    records M <= c, then tests every cover of size c against every root
    class: multiplicity equal to c must coincide with extremality.  Covers of
    sizes up to ``converse_cap`` are additionally tested in the converse
    direction (an extremal cover of size m forces multiplicity m, attained as
    the maximum).  On non-forests the verdict simply reports the outcome; the
    biconditional is expected to fail there.

    A forest is certified from ``_forest_cover_counts``, and enumerates
    covers only to find the first counterexample once the counts report a
    violation.  Other graphs judge every enumerated cover.
    """
    classes = root_classes(G)
    max_mult = max((m for _, m in classes), default=0)
    witnesses = tuple(rc for rc, m in classes if m == max_mult)
    periods = [path_period(rc.minpoly, G.n) for rc, _ in classes]
    counterexample: Optional[Counterexample] = None
    if G.is_forest:
        counts = _forest_cover_counts(G, 1, G.n)
        c = next(m for m, k in enumerate(counts) if k)
        top = max(c, min(converse_cap, G.n))
        ext = {q: _forest_cover_counts(G, q, top) if q else [0] * (top + 1) for q in set(periods)}
        checked = sum(counts[c : top + 1]) * len(classes)
        # The three reasons of ``_reason``, which exclude each other.
        violations = sum(
            (mult == c) * (counts[c] - ext[q][c])
            + sum(ext[q][m] for m in range(c, top + 1) if mult != m or m != max_mult)
            for (_, mult), q in zip(classes, periods)
        )
        if violations:
            judged = _judge_enumerated(G, classes, periods, c, top, max_mult)
            counterexample = next(filter(None, judged), None)
    else:
        c = min_path_cover(G).size
        top = max(c, min(converse_cap, G.n))
        checked = violations = 0
        for found in _judge_enumerated(G, classes, periods, c, top, max_mult):
            checked += 1
            violations += found is not None
            counterexample = counterexample or found
    return MainVerdict(
        min_cover_size=c,
        max_mult=max_mult,
        witnesses=witnesses,
        mult_le_cover=max_mult <= c,
        biconditional_ok=violations == 0 and max_mult <= c,
        counterexample=counterexample,
        covers_checked=checked,
        violations=violations,
        forest_mode=G.is_forest,
    )
