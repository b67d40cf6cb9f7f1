import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchpoly.errors import InvalidFactor, ZeroPolynomial
from matchpoly.exactalg import IntPoly, root_multiplicity, squarefree_decompose
from matchpoly.exactalg.intpoly import _pseudo_divmod
from matchpoly.graphs import enumerate_trees, star_graph
from matchpoly.matchcore import matching_polynomial, vertex_deleted_polynomials

X = IntPoly.x()


def poly(*coeffs):
    return IntPoly(coeffs)


small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=8))


class TestBasics:
    def test_zero_degree_sentinel(self):
        assert IntPoly().degree == -1
        assert IntPoly((0, 0, 0)).degree == -1
        assert IntPoly().is_zero

    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)

    def test_str_and_parse_roundtrip(self):
        p = poly(-4, 0, 10, 0, -6, 0, 1)
        assert str(p) == "x^6 - 6*x^4 + 10*x^2 - 4"
        assert IntPoly.parse(str(p)) == p

    def test_parse_variants(self):
        assert IntPoly.parse("x^2 - 3") == poly(-3, 0, 1)
        assert IntPoly.parse("2*x + 1") == poly(1, 2)
        assert IntPoly.parse("-x") == poly(0, -1)
        assert IntPoly.parse("7") == poly(7)
        assert IntPoly.parse("3x^2 + x") == poly(0, 1, 3)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            IntPoly.parse("x^2 ++ 1")
        with pytest.raises(ValueError):
            IntPoly.parse("2y + 1")
        with pytest.raises(ValueError):
            IntPoly.parse("")

    def test_json_roundtrip(self):
        p = poly(-4, 0, 10)
        assert IntPoly.from_json(p.to_json()) == p
        with pytest.raises(ValueError):
            IntPoly.from_json([1, 2.5])

    @given(small_polys, small_polys)
    def test_mul_degree_and_commutativity(self, a, b):
        assert a * b == b * a
        if not a.is_zero and not b.is_zero:
            assert (a * b).degree == a.degree + b.degree

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_pow(self):
        assert (X + IntPoly.one()) ** 2 == poly(1, 2, 1)
        assert X**0 == IntPoly.one()

    def test_evaluate(self):
        p = IntPoly.parse("x^7 - 6*x^5 + 10*x^3 - 4*x")
        assert p.evaluate(1) == 1
        assert p.evaluate(0) == 0
        assert p.evaluate(-2) == -(2**7) + 6 * 2**5 - 10 * 8 + 8

    def test_derivative(self):
        assert poly(5, 3, 0, 2).derivative() == poly(3, 0, 6)


class TestDivision:
    def test_exact_div(self):
        num = poly(-1, 0, 1)  # x^2 - 1
        assert num.exact_div(poly(-1, 1)) == poly(1, 1)
        assert num.exact_div(poly(1, 1)) == poly(-1, 1)
        assert num.exact_div(poly(1, 1, 1)) is None
        assert poly(0, 2).exact_div(poly(0, 4)) is None

    def test_exact_div_zero_divisor(self):
        with pytest.raises(ZeroPolynomial):
            poly(1).exact_div(IntPoly())

    @given(small_polys, small_polys)
    @settings(max_examples=80)
    def test_exact_div_recovers_factor(self, a, b):
        if a.is_zero or b.is_zero:
            return
        assert (a * b).exact_div(b) == a

    def test_divmod_monic(self):
        q, r = poly(1, 2, 3, 4).divmod_monic(poly(1, 1))
        assert poly(1, 1) * q + r == poly(1, 2, 3, 4)
        assert r.degree < 1


def _rational_divmod(a: IntPoly, b: IntPoly):
    """Long division over Q, as an oracle: quotient and remainder lists."""
    rem = [Fraction(c) for c in a.coeffs]
    q = [Fraction(0)] * max(len(rem) - len(b.coeffs) + 1, 0)
    for i in reversed(range(len(q))):
        q[i] = rem[i + len(b.coeffs) - 1] / b.leading
        for j, c in enumerate(b.coeffs):
            rem[i + j] -= q[i] * c
    return q, rem


class TestDivisionIdentities:
    """Every division entry point meets its defining identity."""

    @staticmethod
    def _random(rng, degree):
        lead = rng.choice((-3, -2, -1, 1, 2, 3))
        return IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [lead])

    def test_seeded_identities(self):
        rng = random.Random(20261019)
        for _ in range(400):
            a = IntPoly() if rng.random() < 0.1 else self._random(rng, rng.randint(0, 8))
            b = self._random(rng, rng.randint(0, 5))
            k = max(a.degree - b.degree + 1, 0)
            q, r = _pseudo_divmod(a, b)
            assert a * b.leading**k == q * b + r and r.degree < b.degree
            monic = IntPoly(b.coeffs[:-1] + (1,))
            q, r = a.divmod_monic(monic)
            assert a == q * monic + r and r.degree < monic.degree
            exact = a.exact_div(b)
            rq, rr = _rational_divmod(a, b)
            if any(rr) or any(c.denominator != 1 for c in rq):
                assert exact is None, (a, b)
            else:
                assert exact is not None and exact * b == a, (a, b)
            assert (a * b).exact_div(b) == a

    def test_zero_dividend(self):
        d = poly(3, 0, 2)
        assert IntPoly().exact_div(d) == IntPoly()
        assert IntPoly().divmod_monic(poly(3, 1)) == (IntPoly(), IntPoly())
        assert _pseudo_divmod(IntPoly(), d) == (IntPoly(), IntPoly())

    def test_dividend_of_lower_degree(self):
        a, d = poly(1, -4), poly(2, 0, 1)
        assert a.exact_div(d) is None
        assert a.divmod_monic(d) == (IntPoly(), a)
        assert _pseudo_divmod(a, poly(1, 0, 3)) == (IntPoly(), a)

    def test_non_monic_divisor(self):
        assert poly(1, 0, 1).exact_div(poly(0, 2)) is None  # quotient x/2
        assert poly(1, 0, 2).exact_div(poly(0, 2)) is None  # remainder 1
        assert poly(3, 3).exact_div(poly(2, 2)) is None  # quotient 3/2
        assert poly(-6, -2, 4).exact_div(poly(-3, 2)) == poly(2, 2)
        with pytest.raises(ValueError):
            poly(1, 2, 3).divmod_monic(poly(1, 2))
        # lc(b)^2 * (x^2 + 1) = (2x - 1) * (2x + 1) + 5
        assert _pseudo_divmod(poly(1, 0, 1), poly(1, 2)) == (poly(-1, 2), poly(5))


class TestGcd:
    def test_simple(self):
        a = poly(-1, 0, 1)  # (x-1)(x+1)
        b = poly(1, 2, 1)  # (x+1)^2
        assert a.gcd(b) == poly(1, 1)

    def test_coprime(self):
        assert poly(-2, 0, 1).gcd(poly(-3, 0, 1)).degree == 0

    def test_content_folded_in(self):
        a = poly(0, 2)  # 2x
        b = poly(0, 0, 4)  # 4x^2
        assert a.gcd(b) == poly(0, 2)

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=40)
    def test_common_factor_detected(self, a, b, g):
        if g.degree < 1:
            return
        d = (a * g).gcd(b * g)
        assert d.exact_div(g.primitive_part()) is not None or (a * g).is_zero


class TestSquarefree:
    def test_already_squarefree(self):
        assert squarefree_decompose(poly(-1, 0, 1)) == [(poly(-1, 0, 1), 1)]

    def test_pure_power(self):
        assert squarefree_decompose(poly(0, 0, 0, 1)) == [(poly(0, 1), 3)]

    def test_mixed(self):
        # x^4 - 3x^2 = x^2 (x^2 - 3)
        got = squarefree_decompose(poly(0, 0, -3, 0, 1))
        assert got == [(poly(0, 1), 2), (poly(-3, 0, 1), 1)]

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            squarefree_decompose(IntPoly())

    def test_random_reconstruction(self):
        rng = random.Random(7)
        for _ in range(150):
            parts = []
            prod = IntPoly.one()
            for mult in range(1, rng.randint(2, 4)):
                f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1])
                if f.degree < 1:
                    continue
                parts.append((f, mult))
                prod = prod * f**mult
            if prod.degree < 1:
                continue
            got = squarefree_decompose(prod)
            rebuilt = IntPoly.one()
            for part, mult in got:
                rebuilt = rebuilt * part**mult
                assert part.gcd(part.derivative()).degree == 0
            for (p1, _), (p2, _) in zip(got, got[1:]):
                assert p1.gcd(p2).degree == 0
            cont = prod.content() * (1 if prod.leading > 0 else -1)
            assert rebuilt * cont == prod


class TestRootMultiplicity:
    def test_spec_examples(self):
        mu_t9 = IntPoly.parse("x^9 - 8*x^7 + 20*x^5 - 18*x^3 + 5*x")
        assert root_multiplicity(mu_t9, IntPoly.parse("x - 1")) == 1
        mu_p7 = IntPoly.parse("x^7 - 6*x^5 + 10*x^3 - 4*x")
        assert root_multiplicity(mu_p7, IntPoly.parse("x^2 - 3")) == 0

    def test_exact_powers(self):
        f = poly(-2, 0, 1)
        p = f**3 * poly(1, 1)
        k = root_multiplicity(p, f)
        assert k == 3
        assert p.exact_div(f**3) is not None
        assert p.exact_div(f**4) is None

    def test_rejects_bad_divisors(self):
        with pytest.raises(InvalidFactor):
            root_multiplicity(poly(0, 1), poly(0, 2))
        with pytest.raises(InvalidFactor):
            root_multiplicity(poly(0, 1), poly(5))
        with pytest.raises(ZeroPolynomial):
            root_multiplicity(IntPoly(), poly(0, 1))


def _divide_out(p, f):
    """Reference multiplicity: divide by f one power at a time."""
    k = 0
    while (q := p.exact_div(f)) is not None:
        p, k = q, k + 1
    return k


class TestMultiplicityOfX:
    def test_trees_up_to_10(self):
        for n in range(1, 11):
            for t in enumerate_trees(n):
                mu = matching_polynomial(t)
                assert root_multiplicity(mu, X) == _divide_out(mu, X)

    def test_large_star_and_its_deletions(self):
        g = star_graph(400)
        polys = {matching_polynomial(g), *vertex_deleted_polynomials(g)}
        for mu in polys:
            assert root_multiplicity(mu, X) == _divide_out(mu, X)
        assert {root_multiplicity(mu, X) for mu in polys} == {397, 398, 399}

    def test_monomials_and_constants(self):
        for k in range(12):
            for c in (1, -3, 7):
                p = IntPoly.monomial(c, k)
                assert root_multiplicity(p, X) == _divide_out(p, X) == k
            assert root_multiplicity(p + poly(5), X) == 0


class TestMultiplicityByPowers:
    """For f != x the multiplicity comes from dividing by f, f^2, f^4, ...
    and then bisecting, so it takes O(log k) exact divisions."""

    def test_trees_up_to_10(self):
        from matchpoly.exactalg import factor_irreducible

        for n in range(1, 11):
            for t in enumerate_trees(n):
                mu = matching_polynomial(t)
                divisors = [f for f, _ in factor_irreducible(mu).factors if f != X]
                divisors += [poly(-1, 1), poly(-2, 0, 1), poly(1, 1, 1)]
                for f in divisors:
                    assert root_multiplicity(mu, f) == _divide_out(mu, f)
                    assert root_multiplicity(mu * f**3, f) == _divide_out(mu, f) + 3

    def test_spider_at_one(self, monkeypatch):
        """Centre 0 with 200 legs of length 2: mu = (x^2 - 1)^199 (x^3 - 201x)."""
        import time

        from matchpoly.graphs import Graph

        legs = 200
        g = Graph(2 * legs + 1, [(0, i) for i in range(1, legs + 1)]
                  + [(i, i + legs) for i in range(1, legs + 1)])
        mu = matching_polynomial(g)
        assert mu == (poly(-1, 0, 1) ** 199) * poly(0, -201, 0, 1)
        deleted = vertex_deleted_polynomials(g)
        polys = [mu, deleted[0], deleted[1], deleted[legs + 1]]
        f = poly(-1, 1)
        divisions = []
        exact_div = IntPoly.exact_div

        def counting(p, d):
            divisions.append(d.degree)
            return exact_div(p, d)

        monkeypatch.setattr(IntPoly, "exact_div", counting)
        start = time.monotonic()
        assert [root_multiplicity(p, f) for p in polys] == [199, 200, 198, 198]
        assert time.monotonic() - start < 5
        assert len(divisions) <= 4 * 18  # 2 log2(k) + 2 each; 200 one at a time
        monkeypatch.undo()
        assert [_divide_out(p, f) for p in polys] == [199, 200, 198, 198]
        start = time.monotonic()
        assert {root_multiplicity(p, f) for p in deleted} == {198, 200}
        assert time.monotonic() - start < 60
