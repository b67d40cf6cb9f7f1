"""Immutable simple graphs, forest canonical codes, and tree enumeration.

Vertices are 0..n-1.  Edges are stored as a sorted tuple of (u, v) pairs with
u < v.  Operations that drop vertices return a relabeling map alongside the
new graph, so classification results can be reported in original ids.
"""

from __future__ import annotations

import functools
import json
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    BadSize,
    BadVertex,
    DuplicateEdge,
    NotATree,
    SelfLoop,
    UnknownBuiltin,
)

DEFAULT_TREE_CAP = 12


class Graph:
    """An immutable simple graph."""

    # Caches kept out of equality, hashing and pickling: _split for
    # component_vertex_sets, _code for canonical_code, _deleted_mu for
    # matchcore.vertex_deleted_polynomials, _partition for the last
    # thetaclass.theta_partition.
    __slots__ = (
        "n", "edges", "labels", "adjacency", "_split", "_code", "_deleted_mu", "_partition"
    )

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: Optional[tuple[str, ...]]
    adjacency: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        n: int,
        edges: Iterable[Sequence[int]] = (),
        labels: Optional[Sequence[str]] = None,
    ):
        if n < 0:
            raise BadSize(f"vertex count must be >= 0, got {n}")
        norm = []
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n) or not (0 <= v < n):
                raise BadVertex(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise DuplicateEdge(f"duplicate edge {a}")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise BadSize(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise BadVertex("vertex labels must be distinct")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))
        for cache in ("_split", "_code", "_deleted_mu", "_partition"):
            object.__setattr__(self, cache, None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.n, self.edges, self.labels))

    # -- basics --------------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"

    # -- connectivity ----------------------------------------------------------

    def component_vertex_sets(self) -> tuple[tuple[int, ...], ...]:
        """Sorted vertex sets of the components by smallest vertex, computed once."""
        if self._split is not None:
            return self._split
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            for v in comp:
                for w in self.adjacency[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            comps.append(tuple(sorted(comp)))
        object.__setattr__(self, "_split", tuple(comps))
        return self._split

    @property
    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_vertex_sets()) == 1

    @property
    def is_forest(self) -> bool:
        return self.m == self.n - len(self.component_vertex_sets())

    @property
    def is_tree(self) -> bool:
        return self.n >= 1 and self.m == self.n - 1 and self.is_connected

    # -- subgraphs ---------------------------------------------------------------

    def delete_vertices(self, drop: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the complement of ``drop``; also returns the
        kept original ids (new vertex i was old vertex kept[i])."""
        dropset = set()
        for v in drop:
            if not (0 <= v < self.n):
                raise BadVertex(f"vertex {v} out of range for n={self.n}")
            dropset.add(v)
        kept = tuple(v for v in range(self.n) if v not in dropset)
        remap = {old: new for new, old in enumerate(kept)}
        edges = [
            (remap[u], remap[v])
            for u, v in self.edges
            if u not in dropset and v not in dropset
        ]
        labels = tuple(self.label(v) for v in kept) if self.labels is not None else None
        return Graph(len(kept), edges, labels), kept

    def paths_from(self, root: int) -> dict[int, tuple[int, ...]]:
        """In a forest, the path from ``root`` to every vertex of its
        component (``root`` itself gives ``(root,)``), in breadth-first order."""
        order, parent = bfs_rooting(self.adjacency, root)
        paths = {root: (root,)}
        for v in order[1:]:
            paths[v] = paths[parent[v]] + (v,)
        return paths

    def components(self) -> list[tuple["Graph", tuple[int, ...]]]:
        """Connected components with relabeling maps, ordered by smallest
        original vertex id; a connected graph is its own component."""
        comps = self.component_vertex_sets()
        if len(comps) == 1:
            return [(self, comps[0])]
        return [self.delete_vertices(set(range(self.n)) - set(c)) for c in comps]

    # -- canonical form (forests only) ---------------------------------------------

    def canonical_code(self) -> bytes:
        """AHU canonical code over centroid rootings; equal iff isomorphic.

        Defined for forests only; the forest code is the sorted concatenation
        of its tree components' codes.  Computed once per graph.
        """
        if self._code is not None:
            return self._code
        if not self.is_forest:
            raise NotATree(f"canonical codes are defined for forests only: {self!r}")
        codes = []
        for comp in self.component_vertex_sets():
            index = {v: i for i, v in enumerate(comp)}
            adj = [[index[w] for w in self.adjacency[v]] for v in comp]
            codes.append(_tree_code_local(len(comp), adj))
        object.__setattr__(self, "_code", b"".join(sorted(codes)))
        return self._code

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {"n": self.n, "edges": [list(e) for e in self.edges]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in range(self.n):
            lines.append(f'  {v} [label="{self.label(v)}"];')
        for u, v in self.edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_graph(text) -> Graph:
    """Build a Graph from a JSON document (text or already-parsed dict)."""
    try:
        doc = json.loads(text) if isinstance(text, (str, bytes)) else text
    except ValueError as exc:
        raise BadSize(f"graph document is not JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc:
        raise BadSize("graph JSON must be an object with an 'n' field")
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise BadSize(f"'n' must be a non-negative integer, got {n!r}")
    edges = doc.get("edges", [])
    if not isinstance(edges, (list, tuple)):
        raise BadVertex(f"'edges' must be a list of pairs, got {edges!r}")
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2 or not all(map(_is_int, e)):
            raise BadVertex(f"edge entries must be pairs of integer vertex ids, got {e!r}")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, (list, tuple)):
        raise BadSize(f"'labels' must be a list, got {labels!r}")
    return Graph(n, edges, labels)


# -- built-in graphs -------------------------------------------------------------


def path_graph(k: int) -> Graph:
    if k < 1:
        raise BadSize(f"path needs >= 1 vertices, got {k}")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def star_graph(k: int) -> Graph:
    """Star on k vertices: center 0 plus k-1 leaves."""
    if k < 1:
        raise BadSize(f"star needs >= 1 vertices, got {k}")
    return Graph(k, [(0, i) for i in range(1, k)])


def _paper_t9() -> Graph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 7), (6, 8)]
    return Graph(9, edges, labels=[f"v{i}" for i in range(1, 10)])


def _paper_g14() -> Graph:
    half = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 2), (4, 6)]
    edges = list(half) + [(u + 7, v + 7) for u, v in half] + [(3, 10)]
    labels = [f"t{i}" for i in range(1, 8)] + [f"b{i}" for i in range(1, 8)]
    return Graph(14, edges, labels=labels)


def builtin(name: str) -> Graph:
    """Built-in graphs: ``P:k``, ``star:k``, ``paper:T9``, ``paper:G14``."""
    kind, _, arg = name.partition(":")
    if kind == "P" and arg:
        try:
            return path_graph(int(arg))
        except ValueError:
            pass
    elif kind == "star" and arg:
        try:
            return star_graph(int(arg))
        except ValueError:
            pass
    elif kind == "paper":
        if arg == "T9":
            return _paper_t9()
        if arg == "G14":
            return _paper_g14()
    raise UnknownBuiltin(f"no built-in graph named {name!r}")


# -- breadth-first rooting ---------------------------------------------------------


def bfs_rooting(adj: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order of the component of ``root``, and every vertex's
    parent in the search tree: -1 for the root, -2 outside the component."""
    order, parent = [root], [-2] * len(adj)
    parent[root] = -1
    for v in order:
        for w in adj[v]:
            if parent[w] == -2:
                parent[w] = v
                order.append(w)
    return order, parent


# -- AHU canonical code ------------------------------------------------------------


def _tree_code_local(k: int, adj: Sequence[Sequence[int]]) -> bytes:
    order, parent = bfs_rooting(adj, 0)
    size = [1] * k
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    best = k
    centroids = []
    for v in range(k):
        heaviest = k - size[v]
        pv = parent[v]
        for w in adj[v]:
            if w != pv and size[w] > heaviest:
                heaviest = size[w]
        if heaviest < best:
            best = heaviest
            centroids = [v]
        elif heaviest == best:
            centroids.append(v)
    return min(_rooted_code_local(k, adj, c) for c in centroids)


def _rooted_code_local(k: int, adj: Sequence[Sequence[int]], root: int) -> bytes:
    order, parent = bfs_rooting(adj, root)
    code: list[bytes] = [b""] * k
    for v in reversed(order):
        kids = [code[w] for w in adj[v] if parent[w] == v]
        if kids:
            kids.sort()
            code[v] = b"(" + b"".join(kids) + b")"
        else:
            code[v] = b"()"
    return code[root]


def labeled_tree_code(n: int, edges: Sequence[tuple[int, int]]) -> bytes:
    """Canonical code of a labeled tree given directly by its edge list."""
    if n == 1:
        return b"()"
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return _tree_code_local(n, adj)


# -- free tree enumeration -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tree_reps(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One labeled representative per isomorphism class of trees on n
    vertices, ordered by canonical code.

    Grow-and-dedup: every n-vertex tree arises from an (n-1)-vertex tree by
    attaching a leaf, so extending each representative at every vertex and
    deduplicating by canonical code is exhaustive.
    """
    if n == 1:
        return ((),)
    by_code: dict[bytes, tuple[tuple[int, int], ...]] = {}
    for edges in _tree_reps(n - 1):
        for v in range(n - 1):
            cand = edges + ((v, n - 1),)
            code = labeled_tree_code(n, cand)
            if code not in by_code:
                by_code[code] = cand
    return tuple(by_code[c] for c in sorted(by_code))


def enumerate_trees(n: int, cap: int = DEFAULT_TREE_CAP) -> Iterator[Graph]:
    """All non-isomorphic free trees on n vertices, in deterministic order."""
    if not (1 <= n <= cap):
        raise BadSize(f"tree enumeration supports 1 <= n <= {cap}, got {n}")
    for edges in _tree_reps(n):
        yield Graph(n, edges)


def count_trees(n: int, cap: int = DEFAULT_TREE_CAP) -> int:
    if not (1 <= n <= cap):
        raise BadSize(f"tree enumeration supports 1 <= n <= {cap}, got {n}")
    return len(_tree_reps(n))


# -- random graphs for spot checks ------------------------------------------------


def random_graph(rng, n: int) -> Graph:
    """Erdos-Renyi graph with a density drawn per call."""
    p = rng.uniform(0.2, 0.8)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(rng, n: int, require_cycle: bool = False) -> Graph:
    """Rejection-sample a connected (optionally non-forest) graph."""
    while True:
        g = random_graph(rng, n)
        if not g.is_connected:
            continue
        if require_cycle and g.is_forest:
            continue
        return g
