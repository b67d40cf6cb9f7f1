"""The even-polynomial certificate of ``factor._zassenhaus_monic``: an even
f = nu(x^2) with f(0) != 0, nu irreducible and (-1)^(deg f / 2) nu(0) not a
perfect square is irreducible.  Factorizations must equal those of the
general path, reached through f(x + 1), which is not even."""

import importlib.util
import itertools
import math
from pathlib import Path

import pytest

from matchpoly.exactalg import IntPoly, factor, factor_irreducible
from matchpoly.graphs import Graph, enumerate_trees
from matchpoly.matchcore import matching_polynomial

from .test_frontier import _graph_query_inputs


def _tree_query_inputs(count: int) -> list[Graph]:
    """The first ``count`` seed-0 inputs of the tree-queries benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [Graph(n, e) for n, e in itertools.islice(workloads.tree_query_inputs(0), count)]


def _shift(p: IntPoly, a: int) -> IntPoly:
    """p(x + a), by Horner's rule."""
    out = IntPoly.zero()
    for c in reversed(p.coeffs):
        out = out * IntPoly((a, 1)) + IntPoly.const(c)
    return out


def _is_even(f: IntPoly) -> bool:
    return f.degree % 2 == 0 and f.coeffs[0] != 0 and not any(f.coeffs[1::2])


def _certified(f: IntPoly) -> bool:
    """Whether f is even with (-1)^(deg f / 2) f(0) not a perfect square."""
    nu0 = (-1) ** (f.degree // 2) * f.coeffs[0]
    return _is_even(f) and (nu0 < 0 or math.isqrt(nu0) ** 2 != nu0)


def _general_path(p: IntPoly):
    """factor_irreducible(p) through p(x + 1), shifted back by x -> x - 1,
    refusing any even input to ``_zassenhaus_monic``."""
    zassenhaus = factor._zassenhaus_monic

    def refuse_even(f):
        if _is_even(f):
            raise AssertionError(f"the general path met the even {f}")
        return zassenhaus(f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factor, "_zassenhaus_monic", refuse_even)
        shifted = factor_irreducible(_shift(p, 1))
    factors = sorted(((_shift(f, -1), e) for f, e in shifted.factors),
                     key=lambda fe: fe[0].sort_key())
    return factor.FactoredPoly(unit=shifted.unit, factors=tuple(factors))


def _assert_general(polys) -> int:
    """Compare every factorization with the general path; return how many
    inputs of ``_zassenhaus_monic`` met the certificate's conditions and
    came out irreducible."""
    zassenhaus = factor._zassenhaus_monic
    irreducible_even = 0

    def count(f):
        nonlocal irreducible_even
        out = zassenhaus(f)
        irreducible_even += _certified(f) and len(out) == 1
        return out

    for p in polys:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(factor, "_zassenhaus_monic", count)
            got = factor_irreducible(p)
        assert got == _general_path(p), p
    return irreducible_even


def test_trees_up_to_10():
    mus = {matching_polynomial(g) for n in range(1, 11) for g in enumerate_trees(n)}
    assert _assert_general(sorted(mus, key=IntPoly.sort_key)) > 60


def test_graph_and_tree_queries():
    graphs = _graph_query_inputs(300) + _tree_query_inputs(300)
    assert _assert_general(matching_polynomial(g) for g in graphs) > 300


def test_every_product_g_of_x_times_g_of_minus_x():
    polys = []
    for deg in range(1, 4):
        for low in itertools.product(range(-2, 3), repeat=deg):
            g = IntPoly(low + (1,))
            polys.append(g * IntPoly(tuple((-1) ** i * c for i, c in enumerate(g.coeffs))))
    assert len(polys) == 5 + 5**2 + 5**3
    _assert_general(polys)


@pytest.mark.parametrize(
    "text, factors",
    [
        ("x^4 - 3*x^2 + 1", ["x^2 - x - 1", "x^2 + x - 1"]),
        ("x^4 + 1", ["x^4 + 1"]),
        ("x^4 - 2", ["x^4 - 2"]),
        ("x^2 + 3", ["x^2 + 3"]),
        ("x^2 - 4", ["x - 2", "x + 2"]),
    ],
)
def test_fixed_cases(text, factors):
    got = factor_irreducible(IntPoly.parse(text))
    assert got.factors == tuple((IntPoly.parse(f), 1) for f in factors)


def test_half_degree_is_enough(monkeypatch):
    # Graph-queries input 1: mu has degree 12 and mu(0) = 2, not a square.
    mu = matching_polynomial(_graph_query_inputs(2)[1])
    assert mu.degree == 12 and _is_even(mu) and math.isqrt(mu.coeffs[0]) ** 2 != mu.coeffs[0]
    distinct_degree = factor._distinct_degree

    def half_only(f, p):
        if len(f) - 1 > 6:
            raise AssertionError("factored mod p at full degree")
        return distinct_degree(f, p)

    def refuse_lift(*args):
        raise AssertionError("Hensel lifting")

    monkeypatch.setattr(factor, "_distinct_degree", half_only)
    monkeypatch.setattr(factor, "_hensel_lift_tree", refuse_lift)
    assert factor_irreducible(mu).factors == ((mu, 1),)


def test_lying_square_test_is_caught(monkeypatch):
    # Every g(x) g(-x) with g irreducible has a square (-1)^d nu(0) = g(0)^2;
    # a square test that always says "not a square" keeps such f whole.
    monkeypatch.setattr(factor, "_is_square", lambda a: False)
    polys = []
    for deg in range(1, 4):
        for low in itertools.product(range(-2, 3), repeat=deg):
            g = IntPoly(low + (1,))
            polys.append(g * IntPoly(tuple((-1) ** i * c for i, c in enumerate(g.coeffs))))
    pairs = [(factor_irreducible(p), _general_path(p)) for p in polys]
    wrong = [(got, want) for got, want in pairs if got != want]
    assert wrong and all(len(got.factors) < len(want.factors) for got, want in wrong)
