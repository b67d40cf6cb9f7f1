"""Exact arithmetic in Q[x]/(m(x)) for a monic irreducible modulus m.

A root class stands for "a root of m" without ever choosing a numeric value;
elements are residue polynomials with rational coefficients.  This is enough
for every multiplicity, sign, and eigenvector computation downstream, since
those depend on the root only through divisibility by its minimal polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from ..errors import DivisionByZero, ModulusMismatch, ShapeError
from .intpoly import IntPoly
from .realroots import largest_real_root_interval

QPoly = tuple[Fraction, ...]

_UNSET = object()


class AlgebraicRootClass:
    """A monic irreducible integer polynomial standing for one of its roots.

    ``isolating_interval`` is an exact rational bracket around the largest
    real root, for display only (``None`` if there is no real root).  Unless
    one is passed in, it is isolated on first read and cached, so code that
    only decides through the minimal polynomial never isolates a root.
    Equality and hashing depend on the minimal polynomial alone.
    """

    __slots__ = ("minpoly", "_given", "_interval")

    def __init__(self, minpoly: IntPoly, isolating_interval: object = _UNSET):
        if not minpoly.is_monic or minpoly.degree < 1:
            raise ValueError(f"minimal polynomial must be monic of degree >= 1: {minpoly}")
        object.__setattr__(self, "minpoly", minpoly)
        object.__setattr__(self, "_given", isolating_interval)
        object.__setattr__(self, "_interval", isolating_interval)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicRootClass is immutable")

    def __reduce__(self):
        # A lazily isolated bracket is dropped: the copy isolates its own.
        if self._given is _UNSET:
            return (AlgebraicRootClass, (self.minpoly,))
        return (AlgebraicRootClass, (self.minpoly, self._given))

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
        if self._interval is _UNSET:
            object.__setattr__(self, "_interval", largest_real_root_interval(self.minpoly))
        return self._interval

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    def generator(self) -> NumberFieldElem:
        """The residue of x, i.e. the root itself as a field element."""
        if self.degree == 1:
            return NumberFieldElem(self, (Fraction(-self.minpoly[0]),))
        return NumberFieldElem(self, (Fraction(0), Fraction(1)))

    def zero(self) -> NumberFieldElem:
        return NumberFieldElem(self, ())

    def one(self) -> NumberFieldElem:
        return NumberFieldElem(self, (Fraction(1),))

    def from_int(self, c: int) -> NumberFieldElem:
        return NumberFieldElem(self, (Fraction(c),))

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


def _qtrim(cs: list[Fraction]) -> QPoly:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _qdivmod(a: Sequence[Fraction], d: Sequence[Fraction]) -> tuple[QPoly, QPoly]:
    rem = list(a)
    dn = len(d)
    if len(rem) < dn:
        return (), _qtrim(rem)
    inv = 1 / d[-1]
    q = [Fraction(0)] * (len(rem) - dn + 1)
    for i in range(len(rem) - dn, -1, -1):
        t = rem[i + dn - 1] * inv
        if t:
            q[i] = t
            for j in range(dn):
                rem[i + j] -= t * d[j]
    return _qtrim(q), _qtrim(rem[: dn - 1])


def _qmul(a: Sequence[Fraction], b: Sequence[Fraction]) -> QPoly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _qtrim(out)


def _qxgcd(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly, QPoly]:
    """(g, s, t) with s*a + t*b = g over Q[x]."""
    r0, r1 = a, b
    s0, s1 = (Fraction(1),), ()
    t0, t1 = (), (Fraction(1),)
    while r1:
        q, r = _qdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _qtrim([x - y for x, y in _zip0(s0, _qmul(q, s1))])
        t0, t1 = t1, _qtrim([x - y for x, y in _zip0(t0, _qmul(q, t1))])
    return r0, s0, t0


def _zip0(a: Sequence[Fraction], b: Sequence[Fraction]):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else Fraction(0)), (b[i] if i < len(b) else Fraction(0))


class NumberFieldElem:
    """An element of Q[x]/(minpoly), stored as a reduced residue polynomial."""

    __slots__ = ("field", "rep")

    field: AlgebraicRootClass
    rep: QPoly

    def __init__(self, field: AlgebraicRootClass, rep: Sequence[Fraction | int]):
        coeffs = [Fraction(c) for c in rep]
        if len(coeffs) >= field.degree + 1:
            mod = tuple(Fraction(c) for c in field.minpoly.coeffs)
            _, coeffs = _qdivmod(coeffs, mod)
            coeffs = list(coeffs)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", _qtrim(list(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("NumberFieldElem is immutable")

    def __reduce__(self):
        return (NumberFieldElem, (self.field, self.rep))

    @property
    def is_zero(self) -> bool:
        return not self.rep

    def _coerce(self, other) -> NumberFieldElem:
        if isinstance(other, NumberFieldElem):
            if other.field.minpoly != self.field.minpoly:
                raise ModulusMismatch(
                    f"mixed moduli {self.field.minpoly} and {other.field.minpoly}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return NumberFieldElem(self.field, (Fraction(other),))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> NumberFieldElem:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return NumberFieldElem(self.field, [a + b for a, b in _zip0(self.rep, o.rep)])

    __radd__ = __add__

    def __sub__(self, other) -> NumberFieldElem:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return NumberFieldElem(self.field, [a - b for a, b in _zip0(self.rep, o.rep)])

    def __rsub__(self, other) -> NumberFieldElem:
        return (-self) + other

    def __neg__(self) -> NumberFieldElem:
        return NumberFieldElem(self.field, [-c for c in self.rep])

    def __mul__(self, other) -> NumberFieldElem:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return NumberFieldElem(self.field, _qmul(self.rep, o.rep))

    __rmul__ = __mul__

    def inverse(self) -> NumberFieldElem:
        if self.is_zero:
            raise DivisionByZero("inverse of zero in the number field")
        mod = tuple(Fraction(c) for c in self.field.minpoly.coeffs)
        g, s, _ = _qxgcd(self.rep, mod)
        if len(g) != 1:
            # Cannot happen for an irreducible modulus and nonzero element.
            raise ValueError(f"modulus {self.field.minpoly} is not irreducible")
        inv = 1 / g[0]
        return NumberFieldElem(self.field, [c * inv for c in s])

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
                other = NumberFieldElem(self.field, (Fraction(other),))
            else:
                return NotImplemented
        return self.field.minpoly == other.field.minpoly and self.rep == other.rep

    def __hash__(self) -> int:
        return hash((self.field.minpoly, self.rep))

    def __str__(self) -> str:
        if not self.rep:
            return "0"
        parts = []
        for i in range(len(self.rep) - 1, -1, -1):
            c = self.rep[i]
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
    has full column rank (for a square matrix: iff it is nonsingular).
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
