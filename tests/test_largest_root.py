"""``largest_real_root_interval`` isolates only the largest root, yet its
bracket is bit-identical to the last bracket of ``isolate_real_roots``."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from matchpoly.exactalg import (
    AlgebraicRootClass,
    IntPoly,
    isolate_real_roots,
    largest_real_root_interval,
    realroots,
)
from matchpoly.matchcore import matching_polynomial
from matchpoly.thetaclass import root_classes

from .test_cover_pruning import corpus
from .test_frontier import _graph_query_inputs

GOLDEN = Path(__file__).with_name("golden_brackets.json")


def _last(p: IntPoly):
    intervals = isolate_real_roots(p)
    return (intervals[-1].lo, intervals[-1].hi) if intervals else None


def _assert_same(polys) -> int:
    checked = 0
    for p in polys:
        assert largest_real_root_interval(p) == _last(p), p
        checked += 1
    return checked


def test_classes_and_mu_of_the_cover_corpus():
    polys = set()
    for g in corpus():
        polys.add(matching_polynomial(g))
        polys.update(rc.minpoly for rc, _ in root_classes(g))
    assert _assert_same(sorted(polys, key=lambda p: p.coeffs)) > 250


def test_golden_brackets():
    for coeffs, lo, hi in json.loads(GOLDEN.read_text()):
        p = IntPoly(coeffs)
        assert largest_real_root_interval(p) == _last(p) == (Fraction(*lo), Fraction(*hi))


def test_repeated_and_several_squarefree_parts():
    rng = random.Random(31)
    polys = [IntPoly.parse(s) for s in ("x^4 - 3*x^2", "x^2 + 1", "7", "x^5")]
    polys.append(IntPoly.parse("x - 1") ** 3)
    for _ in range(150):
        f, g = (IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))] + [1])
                for _ in range(2))
        polys += [f * f, f * f * f * g, f * g * g, f * IntPoly.x() ** 2]
    assert _assert_same(polys) == len(polys)


def test_random_polynomials():
    rng = random.Random(37)
    polys = []
    for _ in range(400):
        deg = rng.randint(1, 9)
        polys.append(IntPoly([rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 3)]))
    _assert_same(polys)


def test_touching_brackets_and_exact_tops(monkeypatch):
    replayed = []

    def spy(brackets):
        replayed.append(len(brackets))
        separate(brackets)

    separate = realroots._separate
    monkeypatch.setattr(realroots, "_separate", spy)
    # Square-free products of two and three factors a*x + c with roots
    # about 1/128 apart: the brackets of the top two roots often share an end
    # after refinement, and that of the second root often shares its other
    # end with the third, which must not matter.
    lins = [IntPoly((c, a)) for a in (127, 128, 129) for c in (-3, -2, -1, 1, 2, 3)]
    polys = [f * g for f, g in itertools.combinations(lins, 2)]
    polys += [f * g * h for f, g, h in itertools.combinations(lins, 3)]
    _assert_same(polys)
    assert replayed.count(2) > 200
    # The root 0 is the first midpoint, an exact bracket made before the
    # bracket of -1 below it.
    p = IntPoly.parse("x^2 + x")
    assert largest_real_root_interval(p) == _last(p) == (0, 0)


def test_one_part_needs_no_full_isolation(monkeypatch):
    rc = max((rc for rc, _ in root_classes(_graph_query_inputs(1)[0])), key=lambda rc: rc.degree)
    assert rc.degree >= 8
    want = _last(rc.minpoly)

    def refuse(p, max_width=None):
        raise AssertionError("isolated every root")

    monkeypatch.setattr(realroots, "isolate_real_roots", refuse)
    assert largest_real_root_interval(rc.minpoly) == want
    assert AlgebraicRootClass(rc.minpoly).isolating_interval == want


def test_square_free_input_runs_no_gcd(monkeypatch):
    polys = [rc.minpoly for g in _graph_query_inputs(20) for rc, _ in root_classes(g)]
    polys += [IntPoly.parse("x^4 - 3*x^2 + 1"), IntPoly.parse("-2*x^3 + 4*x")]
    want = [_last(p) for p in polys]

    def refuse(p):
        raise AssertionError("ran a square-free decomposition")

    monkeypatch.setattr(realroots, "squarefree_decompose", refuse)
    assert [largest_real_root_interval(p) for p in polys] == want


def test_repeated_roots_take_the_decomposition(monkeypatch):
    f = IntPoly.parse("x^2 - 3")
    polys = [f**2, f**3 * IntPoly.parse("x - 5"), IntPoly.parse("x - 1") ** 4, IntPoly.x() ** 3]
    want = [_last(p) for p in polys]
    decomposed = []

    def spy(p):
        decomposed.append(p)
        return decompose(p)

    decompose = realroots.squarefree_decompose
    monkeypatch.setattr(realroots, "squarefree_decompose", spy)
    assert [largest_real_root_interval(p) for p in polys] == want
    assert set(decomposed) == set(polys)


def test_classes_of_graph_queries():
    polys = {rc.minpoly for g in _graph_query_inputs(300) for rc, _ in root_classes(g)}
    assert _assert_same(sorted(polys, key=IntPoly.sort_key)) > 300


def _plain_variations(chain, x: Fraction):
    """Sign variations by Fraction evaluation of every row."""
    signs = []
    for k, cs in enumerate(chain):
        v = IntPoly(cs).evaluate(x)
        if v == 0 and k == 0:
            return None
        if v:
            signs.append(v > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_variations_of_even_and_odd_rows():
    rng = random.Random(41)
    chains = [realroots.sturm_chain(p) for p in (
        IntPoly.parse("x^4 - 3*x^2 + 1"), IntPoly.parse("x^5 - 5*x^3 + 5*x"),
        IntPoly.parse("x^6 - 7*x^4 + 2*x^2 - 1"), IntPoly.parse("x^3 - 2*x + 1"))]
    chains += [realroots.sturm_chain(rc.minpoly)
               for g in _graph_query_inputs(10) for rc, _ in root_classes(g)]
    points = [Fraction(0), Fraction(1), Fraction(-1)]
    points += [Fraction(rng.randint(-400, 400), rng.randint(1, 64)) for _ in range(40)]
    for chain in chains:
        for x in points:
            assert realroots._variations(chain, x) == _plain_variations(chain, x), (chain, x)
