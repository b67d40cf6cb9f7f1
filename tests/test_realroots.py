import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from matchpoly.errors import ZeroPolynomial
from matchpoly.exactalg import (
    IntPoly,
    factor_irreducible,
    isolate_real_roots,
    largest_real_root_interval,
    squarefree_decompose,
    sturm_chain,
)
from matchpoly.graphs import enumerate_trees, path_graph
from matchpoly.matchcore import matching_polynomial


def parse(s):
    return IntPoly.parse(s)


class TestExamples:
    def test_exact_rational_root(self):
        got = isolate_real_roots(parse("x"))
        assert len(got) == 1
        assert (got[0].lo, got[0].hi, got[0].multiplicity) == (0, 0, 1)

    def test_sqrt2_brackets(self):
        got = isolate_real_roots(parse("x^2 - 2"))
        assert len(got) == 2
        neg, pos = got
        assert Fraction(-2) < neg.lo <= neg.hi < Fraction(-1)
        assert Fraction(1) < pos.lo <= pos.hi < Fraction(2)

    def test_no_real_roots(self):
        assert isolate_real_roots(parse("x^2 + 1")) == []

    def test_multiplicities(self):
        got = isolate_real_roots(parse("x^4 - 3*x^2"))
        mids = [float(i.midpoint()) for i in got]
        assert [i.multiplicity for i in got] == [1, 2, 1]
        assert abs(mids[0] + 3**0.5) < 0.05
        assert got[1].lo == got[1].hi == 0
        assert abs(mids[2] - 3**0.5) < 0.05

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            isolate_real_roots(IntPoly())

    def test_largest_real_root_interval(self):
        lo, hi = largest_real_root_interval(parse("x^2 - 3"))
        assert Fraction(17, 10) < lo <= hi < Fraction(9, 5)
        assert largest_real_root_interval(parse("x^2 + 4")) is None


class TestProperties:
    def _assert_valid(self, p, intervals):
        # disjoint and sorted
        for a, b in zip(intervals, intervals[1:]):
            assert a.hi < b.lo
        parts = squarefree_decompose(p)
        # multiplicity sum bounded by degree
        assert sum(i.multiplicity for i in intervals) <= p.degree
        for iv in intervals:
            if iv.lo == iv.hi:
                assert p.evaluate(iv.lo) == 0
                continue
            # exactly one squarefree part changes sign in the bracket
            changing = [
                part
                for part, _ in parts
                if part.evaluate(iv.lo) * part.evaluate(iv.hi) < 0
            ]
            assert len(changing) == 1

    def test_random_polynomials(self):
        rng = random.Random(11)
        for _ in range(120):
            deg = rng.randint(1, 7)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
            p = IntPoly(coeffs)
            if p.degree < 1:
                continue
            self._assert_valid(p, isolate_real_roots(p))

    def test_known_root_counts(self):
        # (x-1)(x-2)(x-3) has exactly three isolated roots
        p = parse("x - 1") * parse("x - 2") * parse("x - 3")
        got = isolate_real_roots(p)
        assert len(got) == 3
        for iv, want in zip(got, (1, 2, 3)):
            assert iv.lo <= want <= iv.hi

    def test_tight_cluster_separated(self):
        # roots at 0 and 1/64 force refinement below the default width
        p = parse("x") * (IntPoly((-1, 64)))
        got = isolate_real_roots(p)
        assert len(got) == 2
        assert got[0].hi < got[1].lo

    def test_json_shape(self):
        iv = isolate_real_roots(parse("x^2 - 2"))[1]
        data = iv.to_json()
        assert set(data) == {"lo", "hi", "approx", "multiplicity"}
        assert abs(data["approx"] - 2**0.5) < 0.02


def _rational_sturm_chain(p):
    """Reference: the classical Sturm sequence over the rationals."""
    f0 = [Fraction(c) for c in p.coeffs]
    f1 = [Fraction(c) for c in p.derivative().coeffs]
    chain = [f0]
    while f1:
        chain.append(f1)
        rem = list(f0)
        for i in range(len(rem) - len(f1), -1, -1):
            t = rem[i + len(f1) - 1] / f1[-1]
            for j, c in enumerate(f1):
                rem[i + j] -= t * c
        rem = rem[: len(f1) - 1]
        while rem and not rem[-1]:
            rem.pop()
        f0, f1 = f1, [-c for c in rem]
    return chain


class TestIntegerSturmChain:
    def test_rows_are_positive_multiples_of_rational_rows(self):
        rng = random.Random(23)
        for _ in range(200):
            deg = rng.randint(1, 9)
            p = IntPoly([rng.randint(-30, 30) for _ in range(deg)] + [rng.randint(1, 9)])
            if p.degree < 1:
                continue
            for part, _ in squarefree_decompose(p):
                got = sturm_chain(part)
                want = _rational_sturm_chain(part)
                assert len(got) == len(want)
                for row, ref in zip(got, want):
                    assert all(isinstance(c, int) for c in row)
                    assert len(row) == len(ref)
                    scale = Fraction(row[-1]) / ref[-1]
                    assert scale > 0
                    assert [scale * c for c in ref] == list(row)


class TestGoldenBrackets:
    """Brackets of the largest real root of every irreducible factor of mu
    over all trees with n <= 8 and the paths P2..P30, recorded with the
    earlier implementation that evaluated Sturm sequences over Fractions.
    Display brackets (and the ``approx`` values printed from them) must not
    change when the isolation kernel does."""

    GOLDEN = Path(__file__).with_name("golden_brackets.json")

    def test_fixture_covers_the_factors(self):
        want = set()
        graphs = [g for n in range(1, 9) for g in enumerate_trees(n)]
        graphs += [path_graph(n) for n in range(2, 31)]
        for g in graphs:
            for f, _ in factor_irreducible(matching_polynomial(g)).factors:
                want.add(f.coeffs)
        rows = json.loads(self.GOLDEN.read_text())
        assert {tuple(coeffs) for coeffs, _, _ in rows} == want

    def test_brackets_unchanged(self):
        for coeffs, lo, hi in json.loads(self.GOLDEN.read_text()):
            got = largest_real_root_interval(IntPoly(coeffs))
            assert got == (Fraction(*lo), Fraction(*hi)), coeffs
