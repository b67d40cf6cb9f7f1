import copy
import pickle
import random
from fractions import Fraction

import pytest

from matchpoly.errors import DivisionByZero, ModulusMismatch, ShapeError
from matchpoly.exactalg import (
    AlgebraicRootClass,
    IntPoly,
    NumberFieldElem,
    kernel_basis,
    nf_div,
)
from matchpoly.graphs import builtin

SQRT3 = AlgebraicRootClass(IntPoly.parse("x^2 - 3"))
SQRT2 = AlgebraicRootClass(IntPoly.parse("x^2 - 2"))
QUARTIC = AlgebraicRootClass(IntPoly.parse("x^4 - 4*x^2 + 2"))


def elem(field, *coeffs):
    return NumberFieldElem(field, [Fraction(c) for c in coeffs])


class TestRootClass:
    def test_requires_monic_nonconstant(self):
        with pytest.raises(ValueError):
            AlgebraicRootClass(IntPoly.parse("2*x - 1"))
        with pytest.raises(ValueError):
            AlgebraicRootClass(IntPoly.parse("5"))

    def test_generator_degree_one(self):
        rc = AlgebraicRootClass(IntPoly.parse("x - 4"))
        assert rc.generator() == elem(rc, 4)

    def test_approx_from_interval(self):
        rc = AlgebraicRootClass(IntPoly.parse("x^2 - 3"))
        lo, hi = rc.isolating_interval
        assert lo < hi and rc.approx() == float((lo + hi) / 2)
        assert abs(rc.approx() - 3**0.5) <= float(hi - lo)


class TestDivision:
    def test_inverse_of_generator(self):
        # theta^-1 = theta/3 when theta^2 = 3
        one = SQRT3.one()
        theta = SQRT3.generator()
        assert nf_div(one, theta) == elem(SQRT3, 0, Fraction(1, 3))

    def test_inverse_of_integer(self):
        assert nf_div(SQRT3.one(), SQRT3.from_int(2)) == elem(SQRT3, Fraction(1, 2))

    def test_inverse_of_theta_minus_one(self):
        # (theta-1)(theta+1) = 2, so 1/(theta-1) = (theta+1)/2
        theta = SQRT3.generator()
        got = nf_div(SQRT3.one(), theta - SQRT3.one())
        assert got == elem(SQRT3, Fraction(1, 2), Fraction(1, 2))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            nf_div(SQRT3.one(), SQRT3.zero())

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            SQRT3.one() + SQRT2.one()
        with pytest.raises(ModulusMismatch):
            nf_div(SQRT3.one(), SQRT2.one())

    @pytest.mark.parametrize("field", [SQRT2, SQRT3, QUARTIC])
    def test_div_mul_roundtrip(self, field):
        rng = random.Random(hash(field.minpoly.coeffs) & 0xFFFF)
        deg = field.degree
        for _ in range(120):
            a = elem(field, *[rng.randint(-9, 9) for _ in range(deg)])
            b = elem(field, *[rng.randint(-9, 9) for _ in range(deg)])
            if b.is_zero:
                continue
            assert nf_div(a * b, b) == a
            assert (a / b) * b == a

    def test_pow_and_minpoly_reduction(self):
        theta = QUARTIC.generator()
        # theta^4 = 4 theta^2 - 2
        assert theta**4 == 4 * theta * theta - QUARTIC.from_int(2)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        one, zero = SQRT3.one(), SQRT3.zero()
        assert kernel_basis([[one, zero], [zero, one]]) == []

    def test_zero_matrix_full_kernel(self):
        zero = SQRT3.zero()
        basis = kernel_basis([[zero, zero], [zero, zero]])
        assert len(basis) == 2
        assert basis[0][0] == SQRT3.one()
        assert basis[1][1] == SQRT3.one()

    def test_path2_adjacency_minus_theta(self):
        rc = AlgebraicRootClass(IntPoly.parse("x^2 - 1"))
        theta = rc.generator()
        one = rc.one()
        basis = kernel_basis([[-theta, one], [one, -theta]])
        assert basis == [[rc.one(), theta]]

    def test_ragged_rejected(self):
        one = SQRT3.one()
        with pytest.raises(ShapeError):
            kernel_basis([[one, one], [one]])

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(4)
        field = SQRT2
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [
                [elem(field, rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            for vec in kernel_basis(rows):
                for row in rows:
                    acc = field.zero()
                    for a, b in zip(row, vec):
                        acc = acc + a * b
                    assert acc.is_zero


class TestCopying:
    @pytest.mark.parametrize(
        "copier", [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))]
    )
    def test_round_trip(self, copier):
        t9 = builtin("paper:T9")
        objects = [IntPoly.parse("x^2 - 3"), t9, SQRT3, elem(QUARTIC, 1, -2, 0, 3)]
        for obj in objects:
            assert copier(obj) == obj
        assert copier(t9).labels == t9.labels

    def test_pickle_keeps_the_minimal_polynomial_only(self):
        lazy = AlgebraicRootClass(IntPoly.parse("x^2 - 3"))
        before = pickle.dumps(lazy)
        isolated = lazy.isolating_interval
        assert pickle.dumps(lazy) == before
        assert before == pickle.dumps(AlgebraicRootClass(IntPoly.parse("x^2 - 3")))
        assert pickle.loads(pickle.dumps(lazy)).isolating_interval == isolated
