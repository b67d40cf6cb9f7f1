"""The integer representation of Q(theta): an IntPoly numerator over one
positive denominator, in lowest terms, reduced modulo the minimal polynomial."""

import math
import random
from fractions import Fraction

import pytest

from matchpoly.errors import DivisionByZero
from matchpoly.exactalg import AlgebraicRootClass, IntPoly, NumberFieldElem
from matchpoly.graphs import Graph
from matchpoly.thetaclass import root_classes

from .oracles import prufer_edges
from .test_numberfield import QUARTIC, SQRT2, SQRT3


def _prufer18_factor() -> AlgebraicRootClass:
    """The largest root class of mu of a seeded 18-vertex Prufer tree."""
    rng = random.Random(0)
    g = Graph(18, prufer_edges([rng.randrange(18) for _ in range(16)], 18))
    rc = max((rc for rc, _ in root_classes(g)), key=lambda rc: rc.degree)
    assert rc.degree >= 5
    return rc


FIELDS = [SQRT2, SQRT3, QUARTIC, _prufer18_factor()]


def _random_elem(rng: random.Random, field: AlgebraicRootClass) -> NumberFieldElem:
    return NumberFieldElem(
        field, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(field.degree)]
    )


def _assert_normal(e: NumberFieldElem) -> None:
    assert isinstance(e.num, IntPoly)
    assert e.den > 0
    assert math.gcd(e.num.content(), e.den) == 1
    assert e.num.degree < e.field.degree


@pytest.mark.parametrize("field", FIELDS, ids=["sqrt2", "sqrt3", "quartic", "prufer18"])
class TestInvariants:
    def test_every_operation_keeps_lowest_terms(self, field):
        rng = random.Random(field.degree)
        for _ in range(40):
            a, b = _random_elem(rng, field), _random_elem(rng, field)
            results = [a, b, a + b, a - b, a * b, -a, a ** rng.randint(0, 4)]
            if not b.is_zero:
                results += [a / b, b ** -rng.randint(1, 3)]
            for e in results:
                _assert_normal(e)

    def test_div_then_mul_round_trips(self, field):
        rng = random.Random(100 + field.degree)
        for _ in range(40):
            a, b = _random_elem(rng, field), _random_elem(rng, field)
            if not b.is_zero:
                assert a / b * b == a

    def test_fraction_coefficients_match_numerator_over_denominator(self, field):
        rng = random.Random(200 + field.degree)
        for _ in range(40):
            den = rng.choice([-1, 1]) * rng.randint(1, 30)
            nums = [rng.randint(-60, 60) for _ in range(rng.randint(0, 2 * field.degree))]
            from_fractions = NumberFieldElem(field, [Fraction(c, den) for c in nums])
            assert from_fractions == NumberFieldElem(field, IntPoly(nums), den)
            _assert_normal(from_fractions)


class TestRepresentation:
    def test_zero_is_zero_over_one(self):
        for zero in (SQRT3.zero(), NumberFieldElem(SQRT3, IntPoly(), 7), SQRT3.one() - 1):
            assert (zero.num, zero.den) == (IntPoly(), 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            NumberFieldElem(SQRT3, IntPoly.one(), 0)

    def test_reducible_modulus_detected_on_inverse(self):
        rc = AlgebraicRootClass(IntPoly.parse("x^2 - 1"))
        with pytest.raises(ValueError):
            (rc.generator() - 1).inverse()

    @pytest.mark.parametrize(
        "value, text",
        [
            (lambda: 1 / (SQRT3.generator() - 1), "1/2*t + 1/2"),
            (lambda: 1 / SQRT3.generator(), "1/3*t"),
            (lambda: (2 - SQRT3.generator()) / 3, "-1/3*t + 2/3"),
            (lambda: SQRT3.one() * -7 / 2, "-7/2"),
            (lambda: SQRT3.zero(), "0"),
            (lambda: Fraction(3, 4) / (SQRT2.generator() * 3 - Fraction(1, 2)), "9/71*t + 3/142"),
            (lambda: 1 / QUARTIC.generator(), "-1/2*t^3 + 2*t"),
            (lambda: 1 / (QUARTIC.generator() + 1), "t^3 - t^2 - 3*t + 3"),
            (
                lambda: (QUARTIC.generator() ** 2 - 3) / (2 * QUARTIC.generator() + 5),
                "-26/257*t^3 + 65/257*t^2 + 70/257*t - 175/257",
            ),
            (lambda: QUARTIC.generator() ** 5, "4*t^3 - 2*t"),
        ],
    )
    def test_golden_str(self, value, text):
        assert str(value()) == text
