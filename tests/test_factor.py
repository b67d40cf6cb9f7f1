import random

import pytest

from matchpoly.errors import ZeroPolynomial
from matchpoly.exactalg import IntPoly, factor_irreducible
from matchpoly.exactalg.factor import _pdivmod_monic, _pmul, _pxgcd, _zadd

from .oracles import kronecker_irreducible


def parse(s):
    return IntPoly.parse(s)


class TestSpecExamples:
    def test_difference_of_squares(self):
        f = factor_irreducible(parse("x^2 - 1"))
        assert f.unit == 1
        assert f.factors == ((parse("x - 1"), 1), (parse("x + 1"), 1))

    def test_path7_polynomial(self):
        mu = parse("x^7 - 6*x^5 + 10*x^3 - 4*x")
        f = factor_irreducible(mu)
        factors = [p for p, _ in f.factors]
        assert parse("x") in factors
        assert parse("x^2 - 2") in factors
        assert parse("x^4 - 4*x^2 + 2") in factors
        assert f.expand() == mu
        for p in factors:
            assert kronecker_irreducible(p)

    def test_t9_polynomial_contains_x_minus_1(self):
        mu = parse("x^9 - 8*x^7 + 20*x^5 - 18*x^3 + 5*x")
        f = factor_irreducible(mu)
        assert (parse("x - 1"), 1) in f.factors

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            factor_irreducible(IntPoly())

    def test_constant(self):
        f = factor_irreducible(IntPoly((-6,)))
        assert f.unit == -6 and f.factors == ()

    def test_deterministic_factor_order(self):
        f = factor_irreducible(parse("x^3 - x"))
        degrees = [(p.degree, p.coeffs) for p, _ in f.factors]
        assert degrees == sorted(degrees)


class TestRandomRoundTrip:
    def _random_poly(self, rng, max_deg, monic):
        deg = rng.randint(1, max_deg)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)]
        if monic:
            return IntPoly(coeffs + [1])
        lc = 0
        while lc == 0:
            lc = rng.randint(-9, 9)
        return IntPoly(coeffs + [lc])

    def test_thousand_products(self):
        rng = random.Random(20240)
        for i in range(1000):
            p = self._random_poly(rng, 12, monic=False)
            q = self._random_poly(rng, 12, monic=False)
            pq = p * q
            f = factor_irreducible(pq)
            assert f.expand() == pq
            assert sum(g.degree * e for g, e in f.factors) == pq.degree
            for g, _ in f.factors:
                assert g.leading > 0
                assert g.content() == 1
                assert g.gcd(g.derivative()).degree == 0

    def test_monic_products_have_monic_factors(self):
        rng = random.Random(99)
        for _ in range(200):
            p = self._random_poly(rng, 8, monic=True)
            q = self._random_poly(rng, 8, monic=True)
            f = factor_irreducible(p * q)
            assert abs(f.unit) == 1
            for g, _ in f.factors:
                assert g.is_monic

    def test_pairwise_coprime_factors(self):
        rng = random.Random(5)
        for _ in range(100):
            p = self._random_poly(rng, 6, monic=True)
            q = self._random_poly(rng, 6, monic=True)
            f = factor_irreducible(p * q * p)
            parts = [g for g, _ in f.factors]
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert parts[i].gcd(parts[j]).degree == 0

    def test_kronecker_agreement_small(self):
        # Every factor reported irreducible must pass the interpolation oracle.
        rng = random.Random(31)
        for _ in range(40):
            p = self._random_poly(rng, 6, monic=True)
            for g, _ in factor_irreducible(p).factors:
                assert kronecker_irreducible(g), f"{g} claimed irreducible"


class TestStress:
    def test_high_multiplicity(self):
        p = parse("x - 2") ** 5 * parse("x^2 + 1") ** 2
        f = factor_irreducible(p)
        assert f.factors == ((parse("x - 2"), 5), (parse("x^2 + 1"), 2))

    def test_cyclotomic_like(self):
        # x^12 - 1 has the classic six cyclotomic factors.
        f = factor_irreducible(parse("x^12 - 1"))
        assert f.expand() == parse("x^12 - 1")
        assert len(f.factors) == 6
        assert all(e == 1 for _, e in f.factors)

    def test_big_content_and_sign(self):
        p = parse("x^2 - 1") * IntPoly((-12,))
        f = factor_irreducible(p)
        assert f.unit == -12
        assert f.expand() == p


class TestDegreePatterns:
    """Distinct-degree patterns modulo several primes bound the degrees of
    rational factors; only one prime is split into irreducibles."""

    def test_irreducible_but_reducible_mod_every_prime(self):
        # Both split mod every prime into quadratics (or smaller), so only
        # recombination can show they are irreducible.
        for s in ("x^4 - 10*x^2 + 1", "x^4 + 1"):
            f = factor_irreducible(parse(s))
            assert f.unit == 1 and f.factors == ((parse(s), 1),)

    def test_x8_minus_1(self):
        f = factor_irreducible(parse("x^8 - 1"))
        assert f.factors == (
            (parse("x - 1"), 1), (parse("x + 1"), 1), (parse("x^2 + 1"), 1), (parse("x^4 + 1"), 1),
        )

    def test_product_of_two_quadratics(self):
        f = factor_irreducible(parse("x^2 - 2") * parse("x^2 - 3"))
        assert f.factors == ((parse("x^2 - 3"), 1), (parse("x^2 - 2"), 1))

    def test_factors_of_degrees_one_to_four(self):
        parts = [parse("x - 3"), parse("x^2 + x + 1"), parse("x^3 - 2"), parse("x^4 - 4*x^2 + 2")]
        product = IntPoly.one()
        for g in parts:
            product = product * g
        f = factor_irreducible(product)
        assert f.unit == 1
        assert [g for g, _ in f.factors] == parts

    def test_patterns_prove_irreducibility_without_lifting(self, monkeypatch):
        # Degree patterns: mod 3 {1,1,2,2}, mod 5 {2,4}, mod 7 {3,3}.  No prime
        # alone is irreducible, but the only degree sums all three allow are
        # 0 and 6.
        from matchpoly.exactalg import factor as factor_mod

        def no_lifting(*args):
            raise AssertionError("Hensel lifting ran on a proven irreducible")

        monkeypatch.setattr(factor_mod, "_hensel_lift_tree", no_lifting)
        mu = parse("x^6 - 10*x^4 + 19*x^2 - 4")
        assert factor_irreducible(mu).factors == ((mu, 1),)

    def test_recombination_skips_excluded_degree_sums(self, monkeypatch):
        # The matching polynomial of the 10-vertex tree below is square-free
        # with rational factors of degrees 2, 2 and 6.  Mod 3 it splits into
        # degrees 2, 2, 3, 3; mod 7 into 2, 2, 2, 4, so no factor over Q has
        # odd degree and no subset of degree 3 or 5 may be tried.
        from matchpoly.exactalg import factor as factor_mod
        from matchpoly.graphs import Graph
        from matchpoly.matchcore import matching_polynomial

        tree = Graph(10, [(0, 1), (0, 2), (0, 9), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8)])
        mu = matching_polynomial(tree)
        assert mu == parse("x^10 - 9*x^8 + 27*x^6 - 31*x^4 + 11*x^2 - 1")
        modular_degrees: list[int] = []
        lift = factor_mod._hensel_lift_tree

        def recording_lift(f, parts, p, target):
            modular_degrees.extend(len(u) - 1 for u in parts)
            return lift(f, parts, p, target)

        trial_degrees: list[int] = []
        exact_div = IntPoly.exact_div

        def recording_div(self, other):
            trial_degrees.append(other.degree)
            return exact_div(self, other)

        monkeypatch.setattr(factor_mod, "_hensel_lift_tree", recording_lift)
        monkeypatch.setattr(IntPoly, "exact_div", recording_div)
        got = factor_mod._zassenhaus_monic(mu)
        monkeypatch.undo()
        assert sorted(g.degree for g in got) == [2, 2, 6]
        assert sorted(modular_degrees) == [2, 2, 3, 3]
        assert trial_degrees and all(d % 2 == 0 for d in trial_degrees)


class TestModularExtendedGcd:
    """s*a + t*b = g (mod p) with g monic, the gcd of a and b mod p."""

    @staticmethod
    def _check(a, b, p):
        g, s, t = _pxgcd(a, b, p)
        assert _zadd(_pmul(s, a, p), _pmul(t, b, p), p) == g
        if not any(c % p for c in a + b):
            assert g == []
            return
        assert g[-1] == 1
        for f in (a, b):
            assert _pdivmod_monic(f, g, p)[1] == []

    def test_seeded(self):
        rng = random.Random(12)
        for p in (3, 5, 7, 13, 101):
            for _ in range(60):
                a, b = ([rng.randrange(p) for _ in range(rng.randint(0, 8))] for _ in range(2))
                self._check(a, b, p)
                common = [rng.randrange(p) for _ in range(3)] + [rng.randrange(1, p)]
                self._check(_pmul(a, common, p), _pmul(b, common, p), p)

    def test_zero_inputs(self):
        for a, b in (([], []), ([2, 1], []), ([], [3, 2]), ([0, 0], [4, 0, 3]), ([5], [])):
            self._check(a, b, 7)

