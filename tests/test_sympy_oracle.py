"""Optional differential tests against sympy (skipped when it is absent).

On a forest the characteristic polynomial of the adjacency matrix equals the
matching polynomial, so sympy's ``charpoly`` checks the matching-polynomial
engine and its ``factor_list`` checks the factorization, on every tree with
n <= 8.
"""

import pytest

sympy = pytest.importorskip("sympy")

from matchpoly.exactalg import IntPoly, factor_irreducible  # noqa: E402
from matchpoly.graphs import enumerate_trees  # noqa: E402
from matchpoly.matchcore import matching_polynomial  # noqa: E402

X = sympy.Symbol("x")


def _intpoly(expr) -> IntPoly:
    return IntPoly(int(c) for c in reversed(sympy.Poly(expr, X).all_coeffs()))


def _trees():
    for n in range(1, 9):
        yield from enumerate_trees(n)


def test_charpoly_equals_matching_polynomial():
    checked = 0
    for g in _trees():
        adjacency = sympy.zeros(g.n, g.n)
        for u, v in g.edges:
            adjacency[u, v] = adjacency[v, u] = 1
        assert _intpoly(adjacency.charpoly(X).as_expr()) == matching_polynomial(g), g.edges
        checked += 1
    assert checked == 48


def test_factor_list_agrees_with_factor_irreducible():
    for g in _trees():
        mu = matching_polynomial(g)
        unit, factors = sympy.factor_list(sympy.Poly(list(reversed(mu.coeffs)), X).as_expr(), X)
        want = sorted(((_intpoly(f), e) for f, e in factors), key=lambda fe: fe[0].sort_key())
        got = factor_irreducible(mu)
        assert got.unit == int(unit)
        assert list(got.factors) == want, g.edges
