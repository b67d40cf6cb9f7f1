"""Exhaustive theorem-verification campaigns over enumerated trees.

Each campaign turns one cluster of statements into per-item checks: items are
trees (or paths, forests, seeded random graphs), workers evaluate every check
exactly, and partial results merge associatively, so reports are byte-stable
for any worker count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .covers import (
    _path_position_sign,
    _special_in_path,
    certify_main,
    min_path_cover,
    path_polynomial,
)
from .errors import BadSize, UnknownCampaign
from .exactalg import IntPoly, kernel_basis
from .graphs import (
    DEFAULT_TREE_CAP,
    Graph,
    enumerate_trees,
    path_graph,
    random_connected_graph,
)
from .matchcore import matching_polynomial
from .thetaclass import (
    Sign,
    check_stability,
    construct_eigenvector,
    mult_of,
    root_classes,
    theta_partition,
    verify_eigenvector,
)

CAMPAIGNS = (
    "identities",
    "interlacing",
    "gallai",
    "stability",
    "eigenvector",
    "paths",
    "main-theorem",
    "forest-converse",
)

_PATH_CAP = 64
_FOREST_COMPONENT_CAP = 8
_RANDOM_GRAPHS_MAIN = 200
_RANDOM_GRAPHS_INTERLACING = 100
_RANDOM_GRAPH_MAX_N = 8


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


def _tree_items(campaign: str, n_min: int, n_max: int) -> list[tuple]:
    items = []
    for n in range(n_min, n_max + 1):
        for g in enumerate_trees(n):
            ident = f"tree:{n}:{g.canonical_code().decode()}"
            items.append((campaign, ident, "tree", g.n, g.edges, None))
    return items


def _random_items(campaign: str, kind: str, count: int, seed: int, require_cycle: bool):
    rng = random.Random(seed)
    items = []
    for i in range(count):
        lo = 3 if require_cycle else 1
        n = rng.randint(lo, _RANDOM_GRAPH_MAX_N)
        g = random_connected_graph(rng, n, require_cycle=require_cycle)
        items.append((campaign, f"random:{i}", kind, g.n, g.edges, None))
    return items


def _build_items(cfg: SweepConfig) -> list[tuple]:
    c = cfg.campaign
    if c in ("identities", "interlacing", "gallai", "stability", "eigenvector"):
        if not (1 <= cfg.n_min <= cfg.n_max <= DEFAULT_TREE_CAP):
            raise BadSize(f"{c} sweep supports 1 <= n <= {DEFAULT_TREE_CAP}")
        items = _tree_items(c, cfg.n_min, cfg.n_max)
        if c == "interlacing":
            items += _random_items(
                c, "random-graph", _RANDOM_GRAPHS_INTERLACING, cfg.seed, True
            )
        return items
    if c == "paths":
        if not (1 <= cfg.n_min <= cfg.n_max <= _PATH_CAP):
            raise BadSize(f"paths sweep supports 1 <= n <= {_PATH_CAP}")
        return [
            (c, f"P:{n}", "path", n, (), None) for n in range(max(cfg.n_min, 2), cfg.n_max + 1)
        ]
    if c == "main-theorem":
        if not (1 <= cfg.n_min <= cfg.n_max <= DEFAULT_TREE_CAP):
            raise BadSize(f"main-theorem sweep supports 1 <= n <= {DEFAULT_TREE_CAP}")
        items = []
        for campaign, ident, kind, n, edges, _ in _tree_items(c, cfg.n_min, cfg.n_max):
            items.append((campaign, ident, kind, n, edges, cfg.converse_cap))
        for campaign, ident, kind, n, edges, _ in _random_items(
            c, "random-graph", _RANDOM_GRAPHS_MAIN, cfg.seed, False
        ):
            items.append((campaign, ident, kind, n, edges, None))
        return items
    if c == "forest-converse":
        if not (1 <= cfg.n_min <= cfg.n_max <= _FOREST_COMPONENT_CAP):
            raise BadSize(
                f"forest-converse sweep supports component sizes <= {_FOREST_COMPONENT_CAP}"
            )
        reps = []
        for n in range(cfg.n_min, cfg.n_max + 1):
            for g in enumerate_trees(n):
                reps.append((g.n, g.edges, g.canonical_code().decode()))
        items = []
        for i in range(len(reps)):
            for j in range(i, len(reps)):
                n1, e1, c1 = reps[i]
                n2, e2, c2 = reps[j]
                edges = tuple(e1) + tuple((u + n1, v + n1) for u, v in e2)
                ident = f"forest:{c1}|{c2}"
                items.append((c, ident, "forest", n1 + n2, edges, cfg.converse_cap))
        return items
    raise UnknownCampaign(f"unknown campaign {c!r}; choose from {', '.join(CAMPAIGNS)}")


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
        if campaign == "identities":
            checks += _check_identities_exhaustive(g, fail)
        elif campaign == "interlacing":
            checks += _check_interlacing(g, fail, include_paths=(kind == "tree" and n <= 8))
        elif campaign == "gallai":
            checks += _check_gallai(g, fail)
        elif campaign == "stability":
            checks += _check_stability_all(g, fail)
        elif campaign == "eigenvector":
            checks += _check_eigenvector(g, fail)
        elif campaign == "paths":
            checks += _check_path_lemmas(n, fail)
        elif campaign == "main-theorem":
            if kind == "tree" or kind == "forest":
                checks += _check_main_theorem(g, extra, fail)
            else:
                checks += _check_cover_bound(g, fail)
        elif campaign == "forest-converse":
            checks += _check_main_theorem(g, extra, fail)
        else:  # pragma: no cover - guarded by _build_items
            raise UnknownCampaign(campaign)
    except Exception as exc:
        fail("exception", f"{type(exc).__name__}: {exc}")
    return checks, bad


def _check_identities_exhaustive(g: Graph, fail) -> int:
    checks = 0
    mu = matching_polynomial(g)
    x = IntPoly.x()
    for u, v in g.edges:
        minus_e = Graph(g.n, [e for e in g.edges if e != (u, v)])
        minus_uv, _ = g.delete_vertices([u, v])
        lhs = matching_polynomial(minus_e) - matching_polynomial(minus_uv)
        checks += 1
        if lhs != mu:
            fail("edge-recurrence", f"edge ({u},{v}): {lhs} != {mu}")
    for u in range(g.n):
        rest, _ = g.delete_vertices([u])
        acc = x * matching_polynomial(rest)
        for v in g.neighbors(u):
            minus_uv, _ = g.delete_vertices([u, v])
            acc = acc - matching_polynomial(minus_uv)
        checks += 1
        if acc != mu:
            fail("vertex-recurrence", f"vertex {u}: {acc} != {mu}")
        prod = IntPoly.one()
        for sub, _ in rest.components():
            prod = prod * matching_polynomial(sub)
        checks += 1
        if prod != matching_polynomial(rest):
            fail("component-product", f"after deleting {u}")
    return checks


def _tree_paths(g: Graph) -> Iterable[list[int]]:
    """Vertex sequences of all paths (>= 1 vertices) in a forest."""
    for u in range(g.n):
        yield [u]
    for u in range(g.n):
        parent = {u: -1}
        order = [u]
        for v in order:
            for w in g.adjacency[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        for v in order:
            if v <= u:
                continue
            seq = [v]
            while seq[-1] != u:
                seq.append(parent[seq[-1]])
            yield seq


def _check_interlacing(g: Graph, fail, include_paths: bool) -> int:
    checks = 0
    classes = root_classes(g)
    for rc, mult in classes:
        part = theta_partition(g, rc)
        for u in range(g.n):
            sub, _ = g.delete_vertices([u])
            delta = mult_of(sub, rc) - mult
            checks += 1
            if delta not in (-1, 0, 1):
                fail("interlacing", f"class {rc.minpoly}, vertex {u}: delta {delta}")
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
                ok = (
                    (before_sign == Sign.ESSENTIAL and after_sign == Sign.ESSENTIAL)
                    or (
                        before_sign == Sign.POSITIVE
                        and after_sign in (Sign.ESSENTIAL, Sign.POSITIVE)
                    )
                    or (
                        before_sign == Sign.NEUTRAL
                        and after_sign in (Sign.ESSENTIAL, Sign.NEUTRAL)
                    )
                )
                if not ok:
                    fail(
                        "positive-deletion",
                        f"class {rc.minpoly}: deleting positive {u} moved {old} "
                        f"from {before_sign.value} to {after_sign.value}",
                    )
        if include_paths:
            for seq in _tree_paths(g):
                sub, _ = g.delete_vertices(seq)
                checks += 1
                if mult_of(sub, rc) < mult - 1:
                    fail(
                        "path-deletion",
                        f"class {rc.minpoly}: deleting path {seq} dropped "
                        "multiplicity by more than one",
                    )
    return checks


def _check_gallai(g: Graph, fail) -> int:
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
            gen = rc.generator()
            one = rc.one()
            zero = rc.zero()
            matrix = [
                [one if g.has_edge(i, j) else (-gen if i == j else zero) for j in range(g.n)]
                for i in range(g.n)
            ]
            basis = kernel_basis(matrix)
            checks += 1
            if len(basis) != 1:
                fail("gallai-kernel", f"class {rc.minpoly}: kernel dim {len(basis)}")
            elif any(e.is_zero for e in basis[0]):
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
            # The closed-form position signs must agree with direct
            # classification (the fast path used by extremality checks).
            checks += 1
            if _path_position_sign(n, j, rc) != part.signs[j]:
                fail("path-sign-closed-form", f"class {rc.minpoly}: position {j}")
            checks += 1
            if _special_in_path(n, j, rc) != part.special[j]:
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
        ce = verdict.counterexample
        assert ce is not None
        fail("biconditional", f"{verdict.violations} violation(s); first: {ce.reason}")
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
