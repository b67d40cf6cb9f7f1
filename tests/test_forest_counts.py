"""Cover counts of forests: ``covers._forest_cover_counts`` gives N[m], the
number of covers by m paths (period 1), and E_q[m], the number extremal for
path period q.  ``certify_main`` reads a forest's verdict from these counts
and enumerates only to find the first counterexample.  Both are checked
against enumeration with extremality decided by division, and a lying count
or multiplicity must show in that comparison."""

import random

import pytest

from matchpoly import covers
from matchpoly.covers import certify_main
from matchpoly.graphs import Graph, enumerate_trees
from matchpoly.thetaclass import _path_minpoly, path_period, root_classes

from . import oracles
from .oracles import certify_main_reference, enumerate_covers_reference, extremality_by_division
from .test_path_period import NON_PATH, _two_tree_forests

TREES_9 = [g for n in range(1, 10) for g in enumerate_trees(n)]


def _random_forests(count: int, seed: int = 0) -> list[Graph]:
    """Seeded forests on 1..11 vertices: each vertex v > 0 joins a random
    earlier vertex with probability 3/4, so components vary in number."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 11)
        out.append(Graph(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.75]))
    return out


FORESTS = _two_tree_forests(5) + _random_forests(40)


def _enumerated_counts(g: Graph, f) -> list[int]:
    """Covers by m = 0..n paths, all of them (f None) or those extremal for
    the class with minimal polynomial f, by enumeration and division."""
    out = [0] * (g.n + 1)
    for m in range(g.n + 1):
        for Q in enumerate_covers_reference(g, m):
            if f is None:
                out[m] += 1
                continue
            cond_a, cross = extremality_by_division(g, f, Q)
            out[m] += all(cond_a) and all(us or vs for _, us, vs in cross)
    return out


def _check_counts(g: Graph) -> None:
    # Psi_2q has period q; every class brings its own period.
    polys = {1: None} | {q: _path_minpoly(2 * q) for q in range(2, 7)}
    for rc, _ in root_classes(g):
        polys.setdefault(path_period(rc.minpoly, g.n), rc.minpoly)
    for q, f in polys.items():
        if q:
            want = _enumerated_counts(g, f)
            assert covers._forest_cover_counts(g, q, g.n) == want, (g.edges, q)


def _verdict_and_reference(g: Graph, converse_cap: int) -> tuple:
    got = certify_main(g, converse_cap=converse_cap)
    ce = got.counterexample
    mine = (got.covers_checked, got.violations, ce and (ce.cover, ce.rootclass, ce.reason))
    return mine, certify_main_reference(g, converse_cap)


CAPS = (0, 4, 6, None)  # None: the graph's order


class TestCounts:
    def test_trees_up_to_9(self):
        assert len(TREES_9) == 95
        for g in TREES_9:
            _check_counts(g)

    def test_forests(self):
        assert len(_two_tree_forests(5)) == 36
        for g in FORESTS:
            _check_counts(g)

    def test_empty_and_single_vertex(self):
        assert covers._forest_cover_counts(Graph(0, []), 1, 0) == [1]
        assert covers._forest_cover_counts(Graph(1, []), 1, 1) == [0, 1]
        assert covers._forest_cover_counts(Graph(1, []), 2, 1) == [0, 1]
        assert covers._forest_cover_counts(Graph(1, []), 3, 1) == [0, 0]

    def test_truncated_at_top(self):
        for g in TREES_9[-10:]:
            full = covers._forest_cover_counts(g, 1, g.n)
            assert covers._forest_cover_counts(g, 1, 3) == full[:4]


class TestCertify:
    @pytest.mark.parametrize("cap", CAPS)
    def test_trees_up_to_10(self, cap):
        graphs = [g for n in range(1, 11) for g in enumerate_trees(n)]
        for g in graphs + [Graph(0, [])]:
            mine, ref = _verdict_and_reference(g, g.n if cap is None else cap)
            assert mine == ref, g.edges

    @pytest.mark.parametrize("cap", CAPS)
    def test_forests(self, cap):
        for g in FORESTS:
            mine, ref = _verdict_and_reference(g, g.n if cap is None else cap)
            assert mine == ref, g.edges

    def test_empty_and_single_vertex(self):
        assert certify_main(Graph(0, [])).covers_checked == 0
        assert certify_main(Graph(1, [])).covers_checked == 1


def _shifted_classes(g: Graph):
    """The root classes with every multiplicity one higher."""
    return [(rc, m + 1) for rc, m in root_classes(g)]


def _with_higher_class(g: Graph):
    """The root classes and one more, of no path, above all of them."""
    classes = root_classes(g)
    return classes + [(NON_PATH, max((m for _, m in classes), default=0) + 1)]


class TestFallback:
    @pytest.mark.parametrize("patched", [_shifted_classes, _with_higher_class])
    def test_patched_multiplicities_are_reported(self, monkeypatch, patched):
        monkeypatch.setattr(covers, "root_classes", patched)
        monkeypatch.setattr(oracles, "root_classes", patched)
        reported = 0
        for g in TREES_9[:40] + FORESTS[:20]:
            for cap in (4, g.n):
                mine, ref = _verdict_and_reference(g, cap)
                assert mine == ref, g.edges
                reported += mine[1] > 0 and mine[2] is not None
        assert reported > 50

    def test_counterexample_is_enumerated_only_on_violation(self, monkeypatch):
        calls = []
        enumerate_covers = covers.enumerate_covers

        def spy(g, m):
            calls.append(m)
            return enumerate_covers(g, m)

        monkeypatch.setattr(covers, "enumerate_covers", spy)
        for g in TREES_9:
            certify_main(g)
        assert calls == []
        monkeypatch.setattr(covers, "root_classes", _shifted_classes)
        assert certify_main(TREES_9[-1]).counterexample is not None
        assert calls


class TestLyingCounts:
    @staticmethod
    def _caught(monkeypatch, lie) -> int:
        counts = covers._forest_cover_counts
        monkeypatch.setattr(
            covers, "_forest_cover_counts",
            lambda g, q, top: counts(g, q, top) if q == 1 else lie(g, q, top, counts),
        )
        pairs = (_verdict_and_reference(g, 4) for g in TREES_9)
        return sum(mine != ref for mine, ref in pairs)

    def test_no_extremal_cover(self, monkeypatch):
        assert self._caught(monkeypatch, lambda g, q, top, counts: [0] * (top + 1)) > 0

    def test_every_cover_extremal(self, monkeypatch):
        assert self._caught(monkeypatch, lambda g, q, top, counts: counts(g, 1, top)) > 0
