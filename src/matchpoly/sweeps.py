"""Exhaustive theorem-verification campaigns over enumerated trees.

Each campaign turns one cluster of statements into per-item checks: items are
trees (or paths, forests, seeded random graphs), workers evaluate every check
exactly, and partial results merge associatively, so reports are byte-stable
for any worker count.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .covers import certify_main, min_path_cover, path_polynomial
from .errors import BadSize, UnknownCampaign
from .exactalg import kernel_basis, root_multiplicity
from .graphs import (
    DEFAULT_TREE_CAP,
    Graph,
    enumerate_trees,
    path_graph,
    random_connected_graph,
)
from .matchcore import check_identities, deletion_polynomials, vertex_deleted_polynomials
from .thetaclass import (
    Sign,
    _signed,
    adjacency_minus_theta,
    check_stability,
    construct_eigenvector,
    forest_nullity,
    path_period,
    period_divides,
    root_classes,
    theta_partition,
    verify_eigenvector,
)

_PATH_CAP = 64
_FOREST_COMPONENT_CAP = 8
_RANDOM_GRAPHS_MAIN = 200
_RANDOM_GRAPHS_INTERLACING = 100
_RANDOM_GRAPH_MAX_N = 8
# Signs a vertex may take after a positive vertex is deleted, by its sign before.
_AFTER_POSITIVE_DELETION = {
    Sign.ESSENTIAL: (Sign.ESSENTIAL,),
    Sign.POSITIVE: (Sign.ESSENTIAL, Sign.POSITIVE),
    Sign.NEUTRAL: (Sign.ESSENTIAL, Sign.NEUTRAL),
}


@dataclass(frozen=True)
class SweepConfig:
    campaign: str
    n_max: int
    n_min: int = 1
    jobs: int = 1
    seed: int = 0
    converse_cap: int = 4


@dataclass(frozen=True)
class Violation:
    ident: str
    check: str
    detail: str

    def to_json(self) -> dict:
        return {"ident": self.ident, "check": self.check, "detail": self.detail}


@dataclass(frozen=True)
class SweepReport:
    campaign: str
    n_min: int
    n_max: int
    seed: int
    items: int
    checks_run: int
    violations: tuple[Violation, ...]
    elapsed: float = field(compare=False, default=0.0)

    @property
    def exit_code(self) -> int:
        return 0 if not self.violations else 1

    def to_json(self) -> dict:
        """Canonical report payload; timing is deliberately excluded so that
        reports are byte-identical across runs and worker counts."""
        return {
            "schema": 1,
            "campaign": self.campaign,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "seed": self.seed,
            "items": self.items,
            "checks_run": self.checks_run,
            "violations": [v.to_json() for v in self.violations],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"


# -- work items -----------------------------------------------------------------

# An item is (campaign, ident, kind, n, edges, extra); everything picklable.


def _sizes(cfg: SweepConfig, cap: int, bound: str = "1 <= n <= ") -> range:
    """The campaign's sizes n_min..n_max, which must lie within [1, cap]."""
    if not (1 <= cfg.n_min <= cfg.n_max <= cap):
        raise BadSize(f"{cfg.campaign} sweep supports {bound}{cap}")
    return range(cfg.n_min, cfg.n_max + 1)


def _tree_items(cfg: SweepConfig, extra: Optional[int] = None) -> list[tuple]:
    items = []
    for n in _sizes(cfg, DEFAULT_TREE_CAP):
        for g in enumerate_trees(n):
            ident = f"tree:{n}:{g.canonical_code().decode()}"
            items.append((cfg.campaign, ident, "tree", g.n, g.edges, extra))
    return items


def _random_items(cfg: SweepConfig, count: int, require_cycle: bool) -> list[tuple]:
    rng = random.Random(cfg.seed)
    items = []
    for i in range(count):
        lo = 3 if require_cycle else 1
        n = rng.randint(lo, _RANDOM_GRAPH_MAX_N)
        g = random_connected_graph(rng, n, require_cycle=require_cycle)
        items.append((cfg.campaign, f"random:{i}", "random-graph", g.n, g.edges, None))
    return items


def _interlacing_items(cfg: SweepConfig) -> list[tuple]:
    return _tree_items(cfg) + _random_items(cfg, _RANDOM_GRAPHS_INTERLACING, True)


def _main_theorem_items(cfg: SweepConfig) -> list[tuple]:
    return _tree_items(cfg, cfg.converse_cap) + _random_items(cfg, _RANDOM_GRAPHS_MAIN, False)


def _path_items(cfg: SweepConfig) -> list[tuple]:
    sizes = _sizes(cfg, _PATH_CAP)
    return [(cfg.campaign, f"P:{n}", "path", n, (), None) for n in sizes if n >= 2]


def _forest_items(cfg: SweepConfig) -> list[tuple]:
    reps = []
    for n in _sizes(cfg, _FOREST_COMPONENT_CAP, "component sizes <= "):
        for g in enumerate_trees(n):
            reps.append((g.n, g.edges, g.canonical_code().decode()))
    items = []
    for (n1, e1, c1), (n2, e2, c2) in itertools.combinations_with_replacement(reps, 2):
        edges = tuple(e1) + tuple((u + n1, v + n1) for u, v in e2)
        ident = f"forest:{c1}|{c2}"
        items.append((cfg.campaign, ident, "forest", n1 + n2, edges, cfg.converse_cap))
    return items


def _build_items(cfg: SweepConfig) -> list[tuple]:
    if cfg.campaign not in CAMPAIGNS:
        raise UnknownCampaign(
            f"unknown campaign {cfg.campaign!r}; choose from {', '.join(CAMPAIGNS)}"
        )
    build, _ = CAMPAIGNS[cfg.campaign]
    return build(cfg)


# -- per-item checks ----------------------------------------------------------------


def _run_item(item: tuple) -> tuple[int, list[tuple[str, str, str]]]:
    """Checks and violations of one item.  An exception raised by a check is
    reported as an "exception" violation of the item, so one bad item cannot
    abort the sweep."""
    campaign, ident, kind, n, edges, extra = item
    checks = 0
    bad: list[tuple[str, str, str]] = []

    def fail(check: str, detail: str) -> None:
        bad.append((ident, check, detail))

    try:
        g = Graph(n, edges) if kind != "path" else path_graph(n)
        _, check = CAMPAIGNS[campaign]
        checks += check(g, kind, extra, fail)
    except Exception as exc:
        fail("exception", f"{type(exc).__name__}: {exc}")
    return checks, bad


def _check_identities(g: Graph, fail) -> int:
    report = check_identities(g)
    for check, detail in report.failures:
        fail(check, detail)
    return report.checks_run


def _tree_paths(g: Graph) -> Iterable[list[int]]:
    """Vertex sequences of all paths (>= 1 vertices) in a forest."""
    for u in range(g.n):
        yield [u]
    for u in range(g.n):
        for v, path in g.paths_from(u).items():
            if v > u:
                yield list(reversed(path))


def _check_interlacing(g: Graph, fail, include_paths: bool) -> int:
    checks = 0
    classes = root_classes(g)
    paths = list(_tree_paths(g)) if include_paths else []
    path_deleted = deletion_polynomials(g, paths)
    for rc, mult in classes:
        in_range = True
        for u, mu in enumerate(vertex_deleted_polynomials(g)):
            delta = root_multiplicity(mu, rc.minpoly) - mult
            checks += 1
            if delta not in (-1, 0, 1):
                in_range = False
                fail("interlacing", f"class {rc.minpoly}, vertex {u}: delta {delta}")
        # Vertex signs, and so the theta-partition, exist only when every
        # deletion moves the multiplicity by at most one.
        if in_range:
            part = theta_partition(g, rc)
            for u, v in g.edges:
                pair = {part.signs[u], part.signs[v]}
                checks += 1
                if pair == {Sign.NEUTRAL, Sign.ESSENTIAL}:
                    fail(
                        "neutral-essential-edge",
                        f"class {rc.minpoly}: edge ({u},{v}) joins neutral to essential",
                    )
            for u in range(g.n):
                if part.signs[u] != Sign.POSITIVE:
                    continue
                sub, kept = g.delete_vertices([u])
                after = theta_partition(sub, rc, allow_nonroot=True)
                for new, old in enumerate(kept):
                    before_sign = part.signs[old]
                    after_sign = after.signs[new]
                    checks += 1
                    if after_sign not in _AFTER_POSITIVE_DELETION[before_sign]:
                        fail(
                            "positive-deletion",
                            f"class {rc.minpoly}: deleting positive {u} moved {old} "
                            f"from {before_sign.value} to {after_sign.value}",
                        )
        for seq, mu in zip(paths, path_deleted):
            checks += 1
            if root_multiplicity(mu, rc.minpoly) < mult - 1:
                fail(
                    "path-deletion",
                    f"class {rc.minpoly}: deleting path {seq} dropped "
                    "multiplicity by more than one",
                )
    return checks


def _check_gallai(g: Graph, fail) -> int:
    """Gallai's lemma and its neighbours, per root class.  On an all-essential
    tree the kernel of A - theta*I has dimension ``forest_nullity`` and holds
    the eigenvector x when x passes the exact check; a witness that fails it
    leaves the kernel to elimination (``kernel_basis``)."""
    checks = 0
    for rc, mult in root_classes(g):
        part = theta_partition(g, rc)
        checks += 1
        if mult > 0 and not part.D:
            fail("essential-exists", f"class {rc.minpoly}: positive mult but empty D")
        checks += 1
        if len(part.D) == g.n and mult != 1:
            fail("gallai", f"class {rc.minpoly}: all essential but mult {mult}")
        for u in sorted(part.A):
            ess = sum(1 for w in g.neighbors(u) if part.signs[w] == Sign.ESSENTIAL)
            checks += 1
            if ess < 2:
                fail(
                    "special-two-essential",
                    f"class {rc.minpoly}: special {u} has {ess} essential neighbors",
                )
        if len(part.D) == g.n:
            checks += 1
            # The witness exists only for a simple root; () fails the check.
            x = construct_eigenvector(g, rc).values if mult == 1 else ()
            if verify_eigenvector(g, rc, x):
                dim, vec = forest_nullity(g, rc), x
            else:
                basis = kernel_basis(adjacency_minus_theta(g, rc))
                dim, vec = len(basis), basis[0] if basis else ()
            if dim != 1:
                fail("gallai-kernel", f"class {rc.minpoly}: kernel dim {dim}")
            elif any(e.is_zero for e in vec):
                fail("all-essential-kernel", f"class {rc.minpoly}: kernel vector has a zero")
    return checks


def _check_stability_all(g: Graph, fail) -> int:
    checks = 0
    for rc, _ in root_classes(g):
        part = theta_partition(g, rc)
        for u in sorted(part.A):
            rep = check_stability(g, rc, u)
            checks += 1
            if not rep.stable:
                moved = [r for r in rep.records if not r.preserved]
                fail(
                    "stability",
                    f"class {rc.minpoly}: deleting special {u} moved "
                    + ", ".join(f"{r.vertex}:{r.before_class}->{r.after_class}" for r in moved),
                )
    return checks


def _check_eigenvector(g: Graph, fail) -> int:
    checks = 0
    for rc, _ in root_classes(g):
        vec = construct_eigenvector(g, rc)
        checks += 1
        if not verify_eigenvector(g, rc, vec.values):
            fail("eigenvalue-condition", f"class {rc.minpoly}")
        part = theta_partition(g, rc)
        checks += 1
        if vec.support() != part.D:
            fail(
                "eigenvector-support",
                f"class {rc.minpoly}: support {sorted(vec.support())} != D {sorted(part.D)}",
            )
    return checks


def _check_path_lemmas(n: int, fail) -> int:
    checks = 0
    g = path_graph(n)
    gcd = path_polynomial(n).gcd(path_polynomial(n - 1))
    checks += 1
    if gcd.degree != 0:
        fail("consecutive-coprime", f"gcd(mu(P{n}), mu(P{n-1})) = {gcd}")
    for rc, _ in root_classes(g):
        part = theta_partition(g, rc)
        on = functools.partial(period_divides, path_period(rc.minpoly, n))
        checks += 1
        if part.signs[0] != Sign.ESSENTIAL or part.signs[n - 1] != Sign.ESSENTIAL:
            fail("path-endpoints", f"class {rc.minpoly}: endpoint not essential")
        for j in range(n):
            checks += 1
            if part.signs[j] == Sign.NEUTRAL:
                fail("path-no-neutral", f"class {rc.minpoly}: position {j} neutral")
            if part.signs[j] == Sign.POSITIVE and not part.special[j]:
                fail(
                    "path-positive-special",
                    f"class {rc.minpoly}: position {j} positive but not special",
                )
            # The period rule that extremality checks read (deleting j leaves
            # P_j and P_{n-1-j}; j is special iff q | n + 1 and q | j + 1)
            # must agree with direct classification.
            checks += 1
            if _signed(on(j + 1) + on(n - j) - on(n + 1)) != part.signs[j]:
                fail("path-sign-closed-form", f"class {rc.minpoly}: position {j}")
            checks += 1
            if (on(n + 1) and on(j + 1)) != part.special[j]:
                fail("path-special-closed-form", f"class {rc.minpoly}: position {j}")
    return checks


def _check_main_theorem(g: Graph, converse_cap: Optional[int], fail) -> int:
    verdict = certify_main(g, converse_cap=4 if converse_cap is None else converse_cap)
    checks = verdict.covers_checked + 1
    if not verdict.mult_le_cover:
        fail(
            "max-mult-bound",
            f"max mult {verdict.max_mult} exceeds min cover {verdict.min_cover_size}",
        )
    if verdict.violations:
        first = verdict.counterexample.reason
        fail("biconditional", f"{verdict.violations} violation(s); first: {first}")
    return checks


def _check_cover_bound(g: Graph, fail) -> int:
    cover = min_path_cover(g)
    max_mult = max((m for _, m in root_classes(g)), default=0)
    if max_mult > cover.size:
        fail(
            "max-mult-bound",
            f"max mult {max_mult} exceeds min cover size {cover.size}",
        )
    return 1


# Campaign -> (item builder, checker), in report order.  A checker takes an
# item's graph, kind and extra field and a ``fail`` callback, and returns its
# check count; the lambdas look the check functions up when called, so a
# rebound module attribute takes effect.
CAMPAIGNS = {
    "identities": (_tree_items, lambda g, kind, extra, fail: _check_identities(g, fail)),
    "interlacing": (
        _interlacing_items,
        lambda g, kind, extra, fail: _check_interlacing(
            g, fail, include_paths=(kind == "tree" and g.n <= 8)
        ),
    ),
    "gallai": (_tree_items, lambda g, kind, extra, fail: _check_gallai(g, fail)),
    "stability": (_tree_items, lambda g, kind, extra, fail: _check_stability_all(g, fail)),
    "eigenvector": (_tree_items, lambda g, kind, extra, fail: _check_eigenvector(g, fail)),
    "paths": (_path_items, lambda g, kind, extra, fail: _check_path_lemmas(g.n, fail)),
    "main-theorem": (
        _main_theorem_items,
        lambda g, kind, extra, fail: (
            _check_main_theorem(g, extra, fail)
            if kind == "tree"
            else _check_cover_bound(g, fail)
        ),
    ),
    "forest-converse": (
        _forest_items,
        lambda g, kind, extra, fail: _check_main_theorem(g, extra, fail),
    ),
}


# -- runner ---------------------------------------------------------------------


def default_jobs() -> int:
    return os.cpu_count() or 1


def worker_count(jobs: int, n_items: int) -> int:
    """Worker processes for a sweep: ``jobs`` clamped to [1, min(cpu count,
    items)], since more workers than cores or items only add overhead."""
    return max(1, min(jobs, default_jobs(), n_items))


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Run one campaign; deterministic output for any job count."""
    start = time.monotonic()
    items = _build_items(cfg)
    results: list[tuple[int, list[tuple[str, str, str]]]] = []
    workers = worker_count(cfg.jobs, len(items))
    if workers == 1:
        results = [_run_item(it) for it in items]
    else:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = list(pool.imap_unordered(_run_item, items, chunksize=4))
    checks = 0
    violations: list[Violation] = []
    for c, bad in results:
        checks += c
        violations.extend(Violation(*b) for b in bad)
    violations.sort(key=lambda v: (v.ident, v.check, v.detail))
    return SweepReport(
        campaign=cfg.campaign,
        n_min=cfg.n_min,
        n_max=cfg.n_max,
        seed=cfg.seed,
        items=len(items),
        checks_run=checks,
        violations=tuple(violations),
        elapsed=time.monotonic() - start,
    )
