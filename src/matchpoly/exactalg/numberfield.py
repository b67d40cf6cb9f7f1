"""Exact arithmetic in Q[x]/(m(x)) for a monic irreducible modulus m.

A root class stands for "a root of m" without ever choosing a numeric value;
an element is an integer residue polynomial over one positive integer
denominator.  As m is monic, reducing modulo it stays in Z[x], so all
arithmetic is integer arithmetic.  This is enough for every multiplicity,
sign, and eigenvector computation downstream, since those depend on the root
only through divisibility by its minimal polynomial.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence

from ..errors import DivisionByZero, ModulusMismatch, ShapeError
from .intpoly import IntPoly, _pseudo_divmod
from .realroots import largest_real_root_interval


@functools.lru_cache(maxsize=1024)
def _bracket(minpoly: IntPoly) -> Optional[tuple[Fraction, Fraction]]:
    # Looked up by its global name on each miss, so a patched isolator is seen.
    return largest_real_root_interval(minpoly)


class AlgebraicRootClass:
    """A monic irreducible integer polynomial standing for one of its roots.

    A class is its minimal polynomial and nothing else: equality, hashing and
    pickling depend on it alone.  ``isolating_interval`` is an exact rational
    bracket around the largest real root, for display only (``None`` if there
    is no real root).  It is isolated on first read and memoized per minimal
    polynomial, so code that only decides through the minimal polynomial
    never isolates a root.
    """

    __slots__ = ("minpoly",)

    def __init__(self, minpoly: IntPoly):
        if not minpoly.is_monic or minpoly.degree < 1:
            raise ValueError(f"minimal polynomial must be monic of degree >= 1: {minpoly}")
        object.__setattr__(self, "minpoly", minpoly)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicRootClass is immutable")

    def __reduce__(self):
        return (AlgebraicRootClass, (self.minpoly,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraicRootClass):
            return NotImplemented
        return self.minpoly == other.minpoly

    def __hash__(self) -> int:
        return hash(self.minpoly)

    def __repr__(self) -> str:
        return f"AlgebraicRootClass({self.minpoly})"

    @property
    def isolating_interval(self) -> Optional[tuple[Fraction, Fraction]]:
        return _bracket(self.minpoly)

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    def generator(self) -> NumberFieldElem:
        """The residue of x, i.e. the root itself as a field element."""
        return NumberFieldElem(self, IntPoly.x())

    def zero(self) -> NumberFieldElem:
        return NumberFieldElem(self, IntPoly())

    def one(self) -> NumberFieldElem:
        return NumberFieldElem(self, IntPoly.one())

    def from_int(self, c: int) -> NumberFieldElem:
        return NumberFieldElem(self, IntPoly.const(c))

    def approx(self) -> Optional[float]:
        if self.isolating_interval is None:
            return None
        lo, hi = self.isolating_interval
        return float((lo + hi) / 2)

    def to_json(self) -> dict:
        out: dict = {"minpoly": self.minpoly.to_json()}
        if self.isolating_interval is not None:
            lo, hi = self.isolating_interval
            out["approx"] = [float(lo), float(hi)]
        return out

    def __str__(self) -> str:
        a = self.approx()
        tail = f" (root near {a:.4g})" if a is not None else ""
        return f"{self.minpoly}{tail}"


class NumberFieldElem:
    """An element num/den of Q[x]/(minpoly): an integer polynomial num of
    degree < deg minpoly over an integer den > 0, with gcd(content(num), den)
    = 1: each element has one representation, and zero is (0, 1).

    ``num`` may also be a sequence of int or Fraction coefficients, constant
    term first; any ``num`` is reduced modulo the minimal polynomial.
    """

    __slots__ = ("field", "num", "den")

    field: AlgebraicRootClass
    num: IntPoly
    den: int

    def __init__(
        self,
        field: AlgebraicRootClass,
        num: IntPoly | Sequence[int | Fraction],
        den: int = 1,
    ):
        if not isinstance(num, IntPoly):
            cs = list(num)
            lcm = math.lcm(*(c.denominator for c in cs))
            num = IntPoly(c.numerator * (lcm // c.denominator) for c in cs)
            den *= lcm
        if den == 0:
            raise DivisionByZero("number field element with denominator 0")
        if num.degree >= field.degree:
            num = num.divmod_monic(field.minpoly)[1]
        g = math.gcd(den, *num.coeffs)
        if den < 0:
            g = -g
        if g != 1:
            num, den = IntPoly(c // g for c in num.coeffs), den // g
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("NumberFieldElem is immutable")

    def __reduce__(self):
        return (NumberFieldElem, (self.field, self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return not self.num

    def _coerce(self, other) -> NumberFieldElem:
        if isinstance(other, NumberFieldElem):
            if other.field.minpoly != self.field.minpoly:
                raise ModulusMismatch(
                    f"mixed moduli {self.field.minpoly} and {other.field.minpoly}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return NumberFieldElem(self.field, (other,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> NumberFieldElem:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return NumberFieldElem(
            self.field, self.num * o.den + o.num * self.den, self.den * o.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> NumberFieldElem:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return NumberFieldElem(
            self.field, self.num * o.den - o.num * self.den, self.den * o.den
        )

    def __rsub__(self, other) -> NumberFieldElem:
        return (-self) + other

    def __neg__(self) -> NumberFieldElem:
        return NumberFieldElem(self.field, -self.num, self.den)

    def __mul__(self, other) -> NumberFieldElem:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return NumberFieldElem(self.field, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> NumberFieldElem:
        """Fraction-free extended Euclid on (minpoly, num): each pair (r, s)
        keeps s*num = r modulo minpoly and is divided by its common content;
        at a nonzero integer r, the inverse of num/den is den*s/r."""
        if self.is_zero:
            raise DivisionByZero("inverse of zero in the number field")
        r0, s0 = self.field.minpoly, IntPoly()
        r1, s1 = self.num, IntPoly.one()
        while r1.degree > 0:
            scale = r1.leading ** (r0.degree - r1.degree + 1)
            q, r = _pseudo_divmod(r0, r1)
            if r.is_zero:
                # Cannot happen for an irreducible modulus and nonzero element.
                raise ValueError(f"modulus {self.field.minpoly} is not irreducible")
            s = s0 * scale - q * s1
            g = math.gcd(*r.coeffs, *s.coeffs)
            r0, s0 = r1, s1
            r1, s1 = IntPoly(c // g for c in r.coeffs), IntPoly(c // g for c in s.coeffs)
        return NumberFieldElem(self.field, s1 * self.den, r1.leading)

    def __truediv__(self, other) -> NumberFieldElem:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> NumberFieldElem:
        return self.inverse() * other

    def __pow__(self, n: int) -> NumberFieldElem:
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumberFieldElem):
            if isinstance(other, (int, Fraction)):
                other = NumberFieldElem(self.field, (other,))
            else:
                return NotImplemented
        return (
            self.field.minpoly == other.field.minpoly
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.field.minpoly, self.num, self.den))

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for i in range(self.num.degree, -1, -1):
            c = Fraction(self.num[i], self.den)
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = (first_body if first_sign == "+" else f"-{first_body}")
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"NumberFieldElem({self} mod {self.field.minpoly})"


def nf_div(a: NumberFieldElem, b: NumberFieldElem) -> NumberFieldElem:
    """a / b in the shared number field; extended-Euclid inverse."""
    return a / b


def kernel_basis(rows: Sequence[Sequence[NumberFieldElem]]) -> list[list[NumberFieldElem]]:
    """Basis of the null space of a matrix over one number field.

    Gaussian elimination with exact rational arithmetic; each basis vector is
    scaled so its first nonzero coordinate is 1.  Returns [] iff the matrix
    has full column rank (for a square matrix: iff it is nonsingular).  The
    ``gallai`` sweep runs it only on an eigenvector witness that fails the
    exact check.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ShapeError("ragged matrix")
    field = mat[0][0].field if ncols else None
    for r in mat:
        for e in r:
            if e.field.minpoly != mat[0][0].field.minpoly:
                raise ModulusMismatch("matrix entries use different moduli")
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, len(mat)):
            if not mat[r][col].is_zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        inv = mat[row][col].inverse()
        mat[row] = [e * inv for e in mat[row]]
        for r in range(len(mat)):
            if r != row and not mat[r][col].is_zero:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
    if field is None and pivots:
        raise RuntimeError("pivots found in a matrix without columns")
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[NumberFieldElem]] = []
    for fc in free:
        vec = [field.zero() for _ in range(ncols)]  # type: ignore[union-attr]
        vec[fc] = field.one()  # type: ignore[union-attr]
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        lead = next(e for e in vec if not e.is_zero)
        inv = lead.inverse()
        basis.append([e * inv for e in vec])
    return basis
