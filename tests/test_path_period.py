"""The period q of a path class, from which covers read every path fact:
theta divides mu(P_k), and then once, iff q | k + 1, and position j of such
a path is special iff q | j + 1.  Checked against multiplicities by
division, and the cover/multiplicity verdict against a per-pair reference."""

import itertools
import math
import random

from matchpoly import thetaclass
from matchpoly.cli import main
from matchpoly.covers import certify_main, enumerate_covers, is_extremal, path_polynomial
from matchpoly.exactalg import AlgebraicRootClass, IntPoly, root_multiplicity
from matchpoly.graphs import Graph, builtin, enumerate_trees, random_connected_graph
from matchpoly.thetaclass import _path_minpoly, path_period, root_classes

from .oracles import certify_main_reference, extremality_by_division

K_MAX = 40
NON_PATH = AlgebraicRootClass(IntPoly.parse("x^2 - 5"))


def _cyclic_graphs(count: int = 100, seed: int = 0) -> list[Graph]:
    """The seeded graphs with a cycle that the interlacing sweep draws."""
    rng = random.Random(seed)
    return [
        random_connected_graph(rng, rng.randint(3, 8), require_cycle=True) for _ in range(count)
    ]


def _two_tree_forests(n_max: int) -> list[Graph]:
    trees = [g for n in range(1, n_max + 1) for g in enumerate_trees(n)]
    out = []
    for a, b in itertools.combinations_with_replacement(trees, 2):
        out.append(Graph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]))
    return out


class TestPathPeriod:
    def test_against_its_definition(self):
        graphs = [g for n in range(1, 11) for g in enumerate_trees(n)] + _cyclic_graphs()
        classes = {rc.minpoly for g in graphs for rc, _ in root_classes(g)}
        classes |= {_path_minpoly(m) for m in range(3, 61)}
        paths = [path_polynomial(k) for k in range(K_MAX + 1)]
        periods = set()
        for f in classes:
            mults = [root_multiplicity(p, f) for p in paths]
            # q is the smallest k + 1 with f dividing mu(P_k), and f divides
            # mu(P_k) once iff q | k + 1.
            q = next((k + 1 for k, e in enumerate(mults) if e), 0)
            assert mults == [int(q > 0 and (k + 1) % q == 0) for k in range(K_MAX + 1)], f
            for k in range(K_MAX + 1):
                assert path_period(f, k) == (q if 0 < q <= k + 1 else 0), (f, k)
            periods.add(q)
        assert 0 in periods and set(range(2, 31)) <= periods

    def test_psi_m_has_period_from_its_order(self):
        for m in range(3, 61):
            assert path_period(_path_minpoly(m), 2 * m) == (m // 2 if m % 2 == 0 else m)

    def test_non_path_class_builds_no_psi(self, monkeypatch):
        built = []
        psi = thetaclass._path_minpoly

        def recording(m):
            built.append(m)
            return psi(m)

        monkeypatch.setattr(thetaclass, "_path_minpoly", recording)
        assert path_period(IntPoly.parse("x^2 - 5"), 400) == 0
        assert path_period(IntPoly.parse("x^3 - 3*x + 7"), 400) == 0
        assert built == []
        assert path_period(IntPoly.parse("x^2 - 2"), 400) == 4
        assert built == [8]


class TestPathPolynomial:
    def test_closed_form_up_to_1200(self):
        # mu(P_k) = sum over i of (-1)^i C(k - i, i) x^(k - 2i).
        for k in list(range(K_MAX + 1)) + [1200]:
            want = [0] * (k + 1)
            for i in range(k // 2 + 1):
                want[k - 2 * i] = (-1) ** i * math.comb(k - i, i)
            assert path_polynomial(k) == IntPoly(want), k

    def test_cli_cover_of_a_long_path(self, capsys):
        assert main(["cover", "--graph", "builtin:P:3000", "--theta", "x"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("minimum cover: 1 path(s)")
        assert out.rstrip().endswith("extremal for x: False")  # mu(P_3000)(0) != 0


class TestCertifyAgainstPerPairReference:
    @staticmethod
    def _same(g: Graph, converse_cap: int = 4) -> int:
        got = certify_main(g, converse_cap=converse_cap)
        checked, violations, first = certify_main_reference(g, converse_cap)
        assert (got.covers_checked, got.violations) == (checked, violations)
        ce = got.counterexample
        assert (ce and (ce.cover, ce.rootclass, ce.reason)) == first
        return violations

    def test_trees_up_to_9(self):
        assert sum(self._same(g) for n in range(1, 10) for g in enumerate_trees(n)) == 0

    def test_two_tree_forests(self):
        forests = _two_tree_forests(5)
        assert len(forests) == 36
        assert sum(self._same(g, converse_cap=6) for g in forests) == 0

    def test_g14(self):
        assert self._same(builtin("paper:G14")) > 0

    def test_cyclic_graphs_with_violations(self):
        assert sum(self._same(g) > 0 for g in _cyclic_graphs(10)) > 0


class TestExtremalAgainstDivision:
    def test_every_cover_and_class(self):
        graphs = [g for n in range(1, 9) for g in enumerate_trees(n)]
        graphs += _cyclic_graphs(20) + [builtin("paper:G14")]
        pairs = 0
        for g in graphs:
            classes = [rc for rc, _ in root_classes(g)] + [NON_PATH]
            for m in range(1, min(g.n, 3 if g.n < 14 else 2) + 1):
                for Q in enumerate_covers(g, m):
                    for rc in classes:
                        rep = is_extremal(g, rc, Q)
                        cond_a, cross = extremality_by_division(g, rc.minpoly, Q)
                        assert rep.condition_a == cond_a
                        got = tuple((c.edge, c.u_special, c.v_special) for c in rep.cross_edges)
                        assert got == cross
                        assert rep.verdict == (all(cond_a) and all(u or v for _, u, v in cross))
                        pairs += 1
        assert pairs > 1000
