"""Seeded inputs, operations and output checks for the benchmark workloads.

Every generator takes the seed as an argument; the library only ever sees
the generated graphs.  An operation ("op") is one sweep item or one query.
Checks run outside the timed region and never raise: they return a list of
problems, and an op with problems counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("sweep-theorems", "sweep-eigen", "tree-queries", "graph-queries")

# Sweep workloads: (campaign, largest tree size, seeded random graphs the
# campaign adds).  The random-graph counts are the library's fixed campaign
# sizes; they are restated here so that a changed item count is caught.
SWEEPS = {
    "sweep-theorems": (("main-theorem", 10, 200), ("interlacing", 9, 100)),
    "sweep-eigen": (("eigenvector", 10, 0), ("gallai", 9, 0)),
}
TINY_SWEEPS = {
    "sweep-theorems": (("main-theorem", 6, 200), ("interlacing", 5, 100)),
    "sweep-eigen": (("eigenvector", 6, 0), ("gallai", 5, 0)),
}

# Query workloads: vertex-count range, and for graph-queries the range of
# extra edges on top of a spanning tree as a multiple of n.
TREE_N = (10, 18)
GRAPH_N = (10, 13)
GRAPH_EXTRA_PER_N = 1.5
TINY_TREE_N = (5, 7)
TINY_GRAPH_N = (5, 6)
MIN_QUERY_OPS = 120


def prufer_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniformly random labeled tree on n vertices, decoded from a Prufer
    sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = [w for w in range(n) if degree[w] == 1]
    edges.append((u, v))
    return sorted(edges)


def _strata(values: list):
    """Endless stream cycling through ``values`` (sorted from cheap to
    costly) in one fixed low-discrepancy order.

    The order does not depend on the seed, so every run sees the same sizes
    in the same proportion and only the graphs of each size vary with the
    seed.  Cycle position j takes the value of rank frac(j * golden ratio),
    so every prefix of a cycle spreads evenly over the cost range and a run
    that stops mid-cycle is not skewed toward cheap or costly sizes.
    """
    golden = (5**0.5 - 1) / 2
    cycle = [values[i] for i in sorted(range(len(values)), key=lambda i: (i * golden) % 1.0)]
    while True:
        yield from cycle


def tree_query_inputs(seed: int, tiny: bool = False):
    """Endless stream of (n, edges) for Prufer-random trees."""
    lo, hi = TINY_TREE_N if tiny else TREE_N
    rng = random.Random(f"tree-queries:{seed}")
    for n in _strata(list(range(lo, hi + 1))):
        yield n, tuple(prufer_tree_edges(rng, n))


def graph_query_inputs(seed: int, tiny: bool = False):
    """Endless stream of (n, edges) for connected graphs with cycles: a
    Prufer-random spanning tree plus 1 to floor(1.5 n) extra edges."""
    lo, hi = TINY_GRAPH_N if tiny else GRAPH_N
    rng = random.Random(f"graph-queries:{seed}")
    sizes = sorted(
        ((n, extra)
         for n in range(lo, hi + 1)
         for extra in range(1, min(int(GRAPH_EXTRA_PER_N * n), n * (n - 1) // 2 - (n - 1)) + 1)),
        key=lambda size: (size[1], size[0]),
    )
    for n, extra in _strata(sizes):
        edges = set(prufer_tree_edges(rng, n))
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        edges.update(rng.sample(non_edges, extra))
        yield n, tuple(sorted(edges))


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- query ops -------------------------------------------------------------------


def run_query(mp, graph, eigenvectors: bool) -> dict:
    """One library-session query; returns the raw outputs for checking."""
    mu = mp.matching_polynomial(graph)
    classes = mp.root_classes(graph)
    parts = []
    for rc, _ in classes:
        part = mp.theta_partition(graph, rc)
        vec = mp.construct_eigenvector(graph, rc) if eigenvectors else None
        parts.append((part, vec))
    cover = mp.min_path_cover(graph)
    return {"mu": mu, "classes": classes, "parts": parts, "cover": cover}


def check_query(mp, graph, out: dict, eigenvectors: bool) -> tuple[list[str], str]:
    """Seed-independent checks of one query, and the digest of its canonical
    output (the CLI JSON payloads of factor, partition, eigvec and cover)."""
    problems = []
    mu, classes, parts, cover = out["mu"], out["classes"], out["parts"], out["cover"]
    factored = mp.FactoredPoly(unit=1, factors=tuple((rc.minpoly, e) for rc, e in classes))
    if factored.expand() != mu:
        problems.append("product of root classes != mu")
    for (rc, e), (part, vec) in zip(classes, parts):
        if part.mult != e:
            problems.append(f"{rc.minpoly}: partition mult {part.mult} != factor exponent {e}")
        if eigenvectors:
            if not mp.verify_eigenvector(graph, rc, vec.values):
                problems.append(f"{rc.minpoly}: eigenvalue condition fails")
            if vec.support() != part.D:
                problems.append(f"{rc.minpoly}: eigenvector support != D")
    try:
        cover.validate(graph)
    except mp.errors.InvalidCover as exc:
        problems.append(f"invalid cover: {exc}")
    max_mult = max((e for _, e in classes), default=0)
    if cover.size < max_mult:
        problems.append(f"cover size {cover.size} < max multiplicity {max_mult}")
    canonical = {
        "mu": mu.to_json(),
        "classes": [[rc.to_json(), e] for rc, e in classes],
        "partitions": [part.to_json(graph) for part, _ in parts],
        "eigenvectors": [vec.to_json(graph) for _, vec in parts if vec is not None],
        "cover": cover.to_json(),
    }
    return problems, digest(canonical)


def check_sweep(report, expected_items: int) -> tuple[int, list[str]]:
    """Failed items of one campaign report (items named in a violation), and
    the problems found."""
    problems = []
    failed_idents = {v.ident for v in report.violations}
    for v in report.violations[:5]:
        problems.append(f"violation {v.ident} {v.check}: {v.detail}")
    if report.items != expected_items:
        problems.append(f"{report.items} items, expected {expected_items}")
        return expected_items, problems
    return len(failed_idents), problems
