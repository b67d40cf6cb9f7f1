"""The path classes that ``root_classes`` divides out of the matching
polynomial before it factors the rest: the minimal polynomials Psi_m of
2cos(2 pi / m), built from cyclotomic polynomials without factoring."""

import math
from fractions import Fraction

from matchpoly import thetaclass
from matchpoly.covers import path_polynomial
from matchpoly.exactalg import IntPoly, factor_irreducible
from matchpoly.graphs import Graph, enumerate_trees, path_graph
from matchpoly.matchcore import matching_polynomial
from matchpoly.thetaclass import (
    _cyclotomic,
    _cyclotomic_value,
    _lifted_value,
    _path_minpoly,
    _path_orders,
    root_classes,
)


def _paths(*lengths: int) -> Graph:
    """The disjoint union of paths with the given vertex counts."""
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + i + 1) for i in range(k - 1)]
        start += k
    return Graph(start, edges)


def _complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _agrees(g: Graph) -> bool:
    got = [(rc.minpoly, e) for rc, e in root_classes(g)]
    return got == list(factor_irreducible(matching_polynomial(g)).factors)


def _phi(m: int) -> int:
    return sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)


class TestTable:
    def test_small_cases(self):
        assert _path_minpoly(3) == IntPoly.parse("x + 1")
        assert _path_minpoly(4) == IntPoly.x()
        assert _path_minpoly(5) == IntPoly.parse("x^2 + x - 1")
        assert _path_minpoly(6) == IntPoly.parse("x - 1")
        assert _path_minpoly(8) == IntPoly.parse("x^2 - 2")
        assert _path_minpoly(10) == IntPoly.parse("x^2 - x - 1")
        assert _path_minpoly(12) == IntPoly.parse("x^2 - 3")

    def test_factors_of_path_polynomials_up_to_40(self):
        for k in range(1, 41):
            want = sorted(
                (_path_minpoly(m) for m in range(3, 2 * k + 3) if 2 * (k + 1) % m == 0),
                key=IntPoly.sort_key,
            )
            assert list(factor_irreducible(path_polynomial(k)).factors) == [(f, 1) for f in want], k

    def test_psi_is_irreducible_of_half_the_totient(self):
        for m in range(3, 61):
            psi = _path_minpoly(m)
            assert psi.is_monic and psi.degree == _phi(m) // 2
            assert factor_irreducible(psi).factors == ((psi, 1),), m

    def test_candidates_per_degree(self):
        assert len(_path_orders(18)) == 27
        assert len(_path_orders(120)) == 180
        for n in range(1, 41):
            want = {m for k in range(1, n + 1) for m in range(3, 2 * k + 3) if 2 * (k + 1) % m == 0}
            assert _path_orders(n) == sorted(want), n

    def test_prefilter_values(self):
        for b in (3, thetaclass._PEEL_POINT):
            for m in range(1, 61):
                assert _cyclotomic_value(m, b) == _cyclotomic(m).evaluate(b), (m, b)
        for p in (_path_minpoly(7), path_polynomial(9), IntPoly.parse("3x^4 - x + 2")):
            for b in (2, 3, 10):
                n = p.degree
                want = b**n * sum(a * (b + Fraction(1, b)) ** k for k, a in enumerate(p.coeffs))
                assert _lifted_value(p, b) == want
        # Psi_m | p makes Phi_m(b) divide the lifted value, with the lifted
        # value of the quotient as cofactor.
        b = thetaclass._PEEL_POINT
        for m in range(3, 31):
            p = _path_minpoly(m) * path_polynomial(5)
            assert _lifted_value(p, b) == _cyclotomic_value(m, b) * _lifted_value(path_polynomial(5), b)


class TestRootClasses:
    def test_trees_up_to_10(self):
        trees = [g for n in range(1, 11) for g in enumerate_trees(n)]
        assert len(trees) == 201
        assert all(_agrees(g) for g in trees)

    def test_unions_of_paths_have_repeated_path_classes(self):
        for lengths in ((3, 3, 7), (1, 1), (2, 2, 2), (5, 11, 5), (3, 7, 15, 1), (23, 23)):
            g = _paths(*lengths)
            assert _agrees(g), lengths
            assert max(e for _, e in root_classes(g)) > 1, lengths

    def test_complete_graphs(self):
        for n in range(1, 8):
            assert _agrees(_complete(n)), n
        path_classes = {_path_minpoly(m) for m in _path_orders(7)}
        for n in (4, 6):
            assert not path_classes & {rc.minpoly for rc, _ in root_classes(_complete(n))}

    def test_only_the_cofactor_is_factored(self, monkeypatch):
        factored = []

        def recording(p):
            factored.append(p)
            return factor_irreducible(p)

        monkeypatch.setattr(thetaclass, "factor_irreducible", recording)
        root_classes(path_graph(12))
        root_classes(_paths(3, 3, 7))
        assert factored == []
        g = _complete(6)
        root_classes(g)
        assert factored == [matching_polynomial(g)]

    def test_a_false_prefilter_pass_is_refused_by_exact_division(self, monkeypatch):
        # At b = 3, Phi_m(b) often divides the lifted value of mu although
        # Psi_m does not divide mu.
        path_classes = {_path_minpoly(m) for m in _path_orders(20)}
        refused = []
        exact_div = IntPoly.exact_div

        def recording(self, d):
            q = exact_div(self, d)
            if q is None and d in path_classes:
                refused.append(d)
            return q

        graphs = [g for n in range(1, 10) for g in enumerate_trees(n)]
        graphs += [_paths(3, 3, 7), _complete(5), _complete(6)]
        want = [root_classes(g) for g in graphs]
        monkeypatch.setattr(thetaclass, "_PEEL_POINT", 3)
        monkeypatch.setattr(IntPoly, "exact_div", recording)
        assert [root_classes(g) for g in graphs] == want
        assert len(refused) > 0
