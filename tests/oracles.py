"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: Prufer enumeration of labeled trees,
exhaustive edge-subset search for covers, and Kronecker interpolation for
irreducibility.  The production code must agree with these on small inputs.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import multiprocessing
from fractions import Fraction
from typing import Iterator, Sequence

from matchpoly.covers import PathCover, enumerate_covers, min_path_cover, path_polynomial
from matchpoly.exactalg import AlgebraicRootClass, IntPoly, NumberFieldElem, root_multiplicity
from matchpoly.graphs import Graph, labeled_tree_code
from matchpoly.matchcore import deletion_polynomials
from matchpoly.thetaclass import EigvecResult, root_classes, theta_partition

TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}


def prufer_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prufer sequence over vertices 0..n-1 into tree edges."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def labeled_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """All n^(n-2) labeled trees on 0..n-1."""
    if n == 1:
        yield []
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_edges(seq, n)


def _codes_for_prefix(args: tuple[int, int]) -> set[bytes]:
    n, first = args
    codes = set()
    for rest in itertools.product(range(n), repeat=n - 3):
        seq = (first,) + rest
        codes.add(labeled_tree_code(n, prufer_edges(seq, n)))
    return codes


def prufer_class_codes(n: int, jobs: int = 1) -> set[bytes]:
    """Canonical codes of every labeled tree on n vertices."""
    if n == 1:
        return {labeled_tree_code(1, [])}
    if n == 2:
        return {labeled_tree_code(2, [(0, 1)])}
    if jobs > 1 and n >= 7:
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            parts = pool.map(_codes_for_prefix, [(n, first) for first in range(n)])
        return set().union(*parts)
    codes = set()
    for edges in labeled_trees(n):
        codes.add(labeled_tree_code(n, edges))
    return codes


# -- covers --------------------------------------------------------------------


def enumerate_covers_reference(G: Graph, m: int) -> Iterator[PathCover]:
    """All covers with exactly m paths, in lexicographic edge-subset order, by
    the plain include/exclude search that cuts a branch only when too few
    edges remain."""
    target = G.n - m
    if target < 0 or m < 1 and G.n > 0:
        return
    edges = G.edges
    me = len(edges)
    deg = [0] * G.n
    end = list(range(G.n))
    chosen: list[tuple[int, int]] = []

    def rec(i: int) -> Iterator[PathCover]:
        if len(chosen) == target:
            yield PathCover.from_edge_subset(G, tuple(chosen))
            return
        if i == me or len(chosen) + (me - i) < target:
            return
        u, v = edges[i]
        if deg[u] < 2 and deg[v] < 2 and end[u] != v:
            a, b = end[u], end[v]
            end[a], end[b] = b, a
            deg[u] += 1
            deg[v] += 1
            chosen.append(edges[i])
            yield from rec(i + 1)
            chosen.pop()
            end[a], end[b] = u, v
            deg[u] -= 1
            deg[v] -= 1
        yield from rec(i + 1)

    yield from rec(0)


def brute_max_deg2_acyclic(G: Graph) -> int:
    """Maximum size of an acyclic degree-<=2 edge subset, by full enumeration."""
    best = 0
    m = G.m
    for mask in range(1 << m):
        subset = [G.edges[i] for i in range(m) if mask >> i & 1]
        if len(subset) <= best:
            continue
        deg = [0] * G.n
        parent = list(range(G.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        ok = True
        for u, v in subset:
            deg[u] += 1
            deg[v] += 1
            if deg[u] > 2 or deg[v] > 2:
                ok = False
                break
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            best = len(subset)
    return best


def brute_min_cover_size(G: Graph) -> int:
    return G.n - brute_max_deg2_acyclic(G)


def brute_count_covers(G: Graph, m: int) -> int:
    """Number of covers with exactly m paths, by full subset enumeration."""
    target = G.n - m
    count = 0
    for mask in range(1 << G.m):
        subset = [G.edges[i] for i in range(G.m) if mask >> i & 1]
        if len(subset) != target:
            continue
        deg = [0] * G.n
        parent = list(range(G.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        ok = True
        for u, v in subset:
            deg[u] += 1
            deg[v] += 1
            if deg[u] > 2 or deg[v] > 2:
                ok = False
                break
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def brute_lexmin_max_subset(G: Graph) -> tuple[tuple[int, int], ...]:
    """The lexicographically smallest acyclic degree-<=2 edge subset of
    maximum size: edge subsets of each size, largest size first, in
    lexicographic order, until one is a union of paths."""
    for size in range(min(G.m, G.n - 1), -1, -1):
        for subset in itertools.combinations(G.edges, size):
            if _is_path_union(G.n, subset):
                return subset
    raise AssertionError("the empty subset is always a union of paths")


def _is_path_union(n: int, subset: Sequence[tuple[int, int]]) -> bool:
    deg = [0] * n
    component = list(range(n))
    for u, v in subset:
        deg[u] += 1
        deg[v] += 1
        if deg[u] > 2 or deg[v] > 2 or component[u] == component[v]:
            return False
        old, new = component[u], component[v]
        component = [new if c == old else c for c in component]
    return True


# -- extremality by division ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _path_mult_by_division(k: int, f: IntPoly) -> int:
    return root_multiplicity(path_polynomial(k), f)


@functools.lru_cache(maxsize=None)
def _path_deltas(k: int, f: IntPoly) -> tuple[int, ...]:
    """How deleting each position j of P_k moves the multiplicity of f: it
    leaves P_j and P_(k-1-j)."""
    mult = functools.partial(_path_mult_by_division, f=f)
    return tuple(mult(j) + mult(k - 1 - j) - mult(k) for j in range(k))


def extremality_by_division(G: Graph, f: IntPoly, Q) -> tuple[tuple[bool, ...], tuple]:
    """Condition (a) per path, and (edge, u special, v special) per cross
    edge, from the multiplicity of f in the matching polynomials of the
    paths: position j is special when it is not essential (delta -1) but a
    neighbour in its path is."""

    def special(k: int, j: int) -> bool:
        delta = _path_deltas(k, f)
        return delta[j] != -1 and -1 in delta[max(j - 1, 0) : j + 2]

    where = {v: (pi, j) for pi, p in enumerate(Q.paths) for j, v in enumerate(p)}
    cross = []
    for u, v in G.edges:
        (pu, ju), (pv, jv) = where[u], where[v]
        if pu != pv:
            cross.append(
                ((u, v), special(len(Q.paths[pu]), ju), special(len(Q.paths[pv]), jv))
            )
    return tuple(_path_mult_by_division(len(p), f) >= 1 for p in Q.paths), tuple(cross)


def certify_main_reference(G: Graph, converse_cap: int = 4) -> tuple[int, int, object]:
    """(covers checked, violations, first counterexample as (cover, root
    class, reason) or None) of the cover/multiplicity biconditional, by
    judging every (cover, class) pair on its own with
    ``extremality_by_division``."""
    classes = root_classes(G)
    c = min_path_cover(G).size
    max_mult = max((m for _, m in classes), default=0)
    checked = violations = 0
    first = None
    for msize in range(c, max(c, min(converse_cap, G.n)) + 1):
        for Q in enumerate_covers(G, msize):
            Q.validate(G)
            for rc, mult in classes:
                cond_a, cross = extremality_by_division(G, rc.minpoly, Q)
                ext = all(cond_a) and all(us or vs for _, us, vs in cross)
                checked += 1
                reason = None
                if msize == c and mult == c and not ext:
                    reason = (
                        f"multiplicity of {rc.minpoly} is {mult} = min cover size, "
                        "but the cover is not extremal"
                    )
                elif ext and mult != msize:
                    reason = (
                        f"{msize}-path cover is extremal for {rc.minpoly}, "
                        f"but the multiplicity is {mult}"
                    )
                elif ext and msize != max_mult:
                    reason = (
                        f"extremal {msize}-path cover for {rc.minpoly}, but the "
                        f"maximum multiplicity is {max_mult}"
                    )
                if reason is not None:
                    violations += 1
                    if first is None:
                        first = (Q, rc, reason)
    return checked, violations, first


# -- irreducibility ----------------------------------------------------------------


def _divisors_signed(v: int) -> list[int]:
    out = []
    a = abs(v)
    for d in range(1, a + 1):
        if a % d == 0:
            out.extend((d, -d))
    return out


def kronecker_irreducible(p: IntPoly) -> bool:
    """Kronecker's method: p (primitive, degree >= 2) is reducible iff some
    integer polynomial of degree <= deg(p)/2, interpolated through divisors
    of p's values at small integer points, divides it."""
    d = p.degree
    assert d >= 1
    if d == 1:
        return True
    points: list[int] = []
    k = 0
    while len(points) < d // 2 + 1:
        for cand in (k, -k) if k else (0,):
            if p.evaluate(cand) != 0 and cand not in points:
                points.append(cand)
        k += 1
    for target in range(1, d // 2 + 1):
        pts = points[: target + 1]
        value_divisors = [_divisors_signed(p.evaluate(x)) for x in pts]
        for combo in itertools.product(*value_divisors):
            cand = _interpolate(pts, combo)
            if cand is None or cand.degree < 1:
                continue
            if p.exact_div(cand) is not None:
                return False
    return True


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> IntPoly | None:
    """Lagrange interpolation; None unless the result has integer coefficients."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] += c * (-xs[j])
                new[k + 1] += c
            basis = new
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i]) / denom
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    if any(c.denominator != 1 for c in coeffs):
        return None
    return IntPoly([int(c) for c in coeffs])


# -- tree eigenvectors by recursion on relabelled subgraphs ---------------------------


def construct_eigenvector_reference(T: Graph, theta: AlgebraicRootClass) -> EigvecResult:
    """The eigenvector of a tree built as the recursion on min(A) builds it:
    each component of T - u is a relabelled subgraph with its own vector,
    which is rescaled entry by entry; an all-essential component takes the
    column x_v = mu(T - P_0v)(theta) / mu(T - 0)(theta) from
    ``deletion_polynomials`` on the component itself."""
    part = theta_partition(T, theta)
    values = _construct_reference(T, theta, part.D, part.A)
    return EigvecResult(rootclass=theta, values=tuple(values))


def _construct_reference(
    T: Graph, theta: AlgebraicRootClass, D: frozenset[int], A: frozenset[int]
) -> list[NumberFieldElem]:
    if len(D) == T.n:
        paths = T.paths_from(0)
        column = [
            NumberFieldElem(theta, mu)
            for mu in deletion_polynomials(T, [paths[v] for v in range(T.n)])
        ]
        inv = column[0].inverse()
        return [x * inv for x in column]

    u = min(A)
    forest, kept_forest = T.delete_vertices([u])
    values = [theta.zero() for _ in range(T.n)]
    essential, rooted = [], []
    for comp, kept_comp in forest.components():
        orig = [kept_forest[i] for i in kept_comp]
        local = next(i for i, v in enumerate(orig) if T.has_edge(u, v))
        D_comp = frozenset(i for i, v in enumerate(orig) if v in D)
        A_comp = frozenset(i for i, v in enumerate(orig) if v in A)
        group = (comp, orig, local, D_comp, A_comp)
        if orig[local] in D:
            essential.append(group)
        elif D_comp:
            rooted.append(group)

    k = len(essential)
    if k < 2:
        raise RuntimeError("a special vertex must touch >= 2 essential contacts")
    alphas = [1] * (k - 1) + [-(k - 1)]
    for alpha, (comp, orig, local, D_comp, A_comp) in zip(alphas, essential):
        vec = _construct_reference(comp, theta, D_comp, A_comp)
        scale = theta.from_int(alpha) / vec[local]
        for i, v in enumerate(orig):
            values[v] = vec[i] * scale
    for comp, orig, local, D_comp, A_comp in rooted:
        vec = _construct_reference(comp, theta, D_comp, A_comp)
        if not vec[local].is_zero:
            raise RuntimeError("a non-essential contact must have a zero eigenvector value")
        for i, v in enumerate(orig):
            values[v] = vec[i]
    return values


def verify_eigenvector_reference(
    G: Graph, theta: AlgebraicRootClass, values: Sequence[NumberFieldElem]
) -> bool:
    """The eigenvalue condition by field arithmetic, one addition at a time."""
    if len(values) != G.n or all(e.is_zero for e in values):
        return False
    gen = theta.generator()
    for v in range(G.n):
        acc = theta.zero()
        for w in G.neighbors(v):
            acc = acc + values[w]
        if gen * values[v] != acc:
            return False
    return True
