"""Optional differential tests against sympy (skipped when it is absent).

On a forest the characteristic polynomial of the adjacency matrix equals the
matching polynomial, so sympy's ``charpoly`` checks the matching-polynomial
engine and its ``factor_list`` checks the factorization, on every tree with
n <= 8.  ``factor_list`` also checks the factorization of the matching
polynomials of every tree with n <= 10 and of seeded cyclic graphs, and so
do ``root_classes``, which divides out the path classes before factoring;
sympy's ``gcd`` checks ``IntPoly.gcd``, and its Sturm-based ``count_roots``
checks every display bracket of those classes.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from matchpoly.exactalg import AlgebraicRootClass, IntPoly, factor_irreducible  # noqa: E402
from matchpoly.graphs import Graph, enumerate_trees  # noqa: E402
from matchpoly.matchcore import matching_polynomial  # noqa: E402
from matchpoly.thetaclass import root_classes  # noqa: E402

from .oracles import prufer_edges  # noqa: E402

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


def _graph_queries(count: int):
    """The first ``count`` graphs of the graph-queries benchmark at seed 0:
    a Prufer-random spanning tree on 10 to 13 vertices plus 1 to
    floor(1.5 n) extra edges, the (n, extra) sizes taken in a fixed
    golden-ratio order."""
    rng = random.Random("graph-queries:0")
    sizes = sorted(
        ((n, extra) for n in range(10, 14) for extra in range(1, int(1.5 * n) + 1)),
        key=lambda size: (size[1], size[0]),
    )
    golden = (5**0.5 - 1) / 2
    order = sorted(range(len(sizes)), key=lambda i: (i * golden) % 1.0)
    for j in range(count):
        n, extra = sizes[order[j % len(order)]]
        edges = set(prufer_edges([rng.randrange(n) for _ in range(n - 2)], n))
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        edges.update(rng.sample(non_edges, extra))
        yield Graph(n, sorted(edges))


def test_factor_list_agrees_on_trees_to_10_and_cyclic_graphs():
    graphs = [g for n in range(1, 11) for g in enumerate_trees(n)]
    assert len(graphs) == 201
    graphs += _graph_queries(60)
    for g in graphs:
        mu = matching_polynomial(g)
        unit, factors = sympy.factor_list(sympy.Poly(list(reversed(mu.coeffs)), X).as_expr(), X)
        want = sorted(((_intpoly(f), e) for f, e in factors), key=lambda fe: fe[0].sort_key())
        got = factor_irreducible(mu)
        assert got.unit == int(unit)
        assert list(got.factors) == want, g.edges
        assert [(rc.minpoly, e) for rc, e in root_classes(g)] == want, g.edges


def test_brackets_hold_the_largest_root():
    graphs = [g for n in range(1, 10) for g in enumerate_trees(n)]
    graphs += _graph_queries(60)
    polys = {rc.minpoly for g in graphs for rc, _ in root_classes(g)}
    for f in polys:
        bracket = AlgebraicRootClass(f).isolating_interval
        p = sympy.Poly(list(reversed(f.coeffs)), X)
        assert (bracket is None) == (p.count_roots() == 0), f
        if bracket is None:
            continue
        lo, hi = (sympy.Rational(b.numerator, b.denominator) for b in bracket)
        assert hi - lo <= sympy.Rational(1, 64), f
        assert p.count_roots(lo, hi) >= 1, f
        assert p.count_roots(hi, None) == (p.eval(hi) == 0), f  # nothing above hi
    assert len(polys) > 60


def test_gcd_matches_sympy():
    def poly(*coeffs):
        return IntPoly(coeffs)

    def sympy_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
        pa, pb = (
            sympy.Poly(sum(c * X**i for i, c in enumerate(p.coeffs)), X, domain="ZZ")
            for p in (a, b)
        )
        return _intpoly(sympy.gcd(pa, pb))

    def rand() -> IntPoly:
        lead = rng.choice((-3, -2, -1, 1, 2, 3))
        return IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 4))] + [lead])

    cases = [
        (IntPoly(), IntPoly()),
        (IntPoly(), poly(6, 0, -3)),
        (poly(-4), IntPoly()),
        (poly(-4), poly(0, 6)),
        (poly(6), poly(4)),
        (poly(-2, -2), poly(-4, -4)),
        (poly(0, 0, -6), poly(0, 4, 4)),
        (poly(3, 0, -9), poly(0, -6, 0, 12)),
    ]
    rng = random.Random(41)
    for _ in range(150):
        a, b, g = rand(), rand(), rand()
        cases.append((a * g * rng.choice((1, 2, -3)), b * g))
    for a, b in cases:
        assert a.gcd(b) == sympy_gcd(a, b), (a, b)
        assert b.gcd(a) == sympy_gcd(a, b), (a, b)
