"""Dense univariate polynomials with arbitrary-precision integer coefficients.

Coefficients are stored constant-term first: ``coeffs[i]`` is the coefficient
of x^i.  The zero polynomial is the empty tuple and has degree -1.  All values
are immutable; every operation returns a new polynomial.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, Optional, Sequence

from ..errors import ZeroPolynomial


class IntPoly:
    """An integer polynomial, e.g. ``IntPoly([-4, 0, 10, 0, -6, 0, 1])``."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        return (IntPoly, (self.coeffs,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> IntPoly:
        return IntPoly()

    @staticmethod
    def one() -> IntPoly:
        return IntPoly((1,))

    @staticmethod
    def x() -> IntPoly:
        return IntPoly((0, 1))

    @staticmethod
    def const(c: int) -> IntPoly:
        return IntPoly((c,))

    @staticmethod
    def monomial(c: int, k: int) -> IntPoly:
        """c * x^k"""
        return IntPoly((0,) * k + (c,))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def sort_key(self) -> tuple:
        """Deterministic ordering key: degree first, then coefficients."""
        return (self.degree, self.coeffs)

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: IntPoly) -> IntPoly:
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(out)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> IntPoly:
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def evaluate(self, point):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    # -- division ----------------------------------------------------------

    def exact_div(self, d: IntPoly) -> Optional[IntPoly]:
        """Return q with self = q*d exactly over the integers, else None."""
        if d.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        if self.is_zero:
            return IntPoly()
        if self.degree < d.degree:
            return None
        qr = _divmod(self, d)
        return qr[0] if qr is not None and qr[1].is_zero else None

    def divmod_monic(self, d: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Quotient and remainder for a monic divisor (stays in Z[x])."""
        if not d.is_monic:
            raise ValueError("divisor must be monic")
        return _divmod(self, d)

    # -- content / gcd -----------------------------------------------------

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def primitive_part(self) -> IntPoly:
        """self / content, keeping the sign of the leading coefficient."""
        g = self.content()
        if g in (0, 1):
            return self
        return IntPoly(tuple(c // g for c in self.coeffs))

    def gcd(self, other: IntPoly) -> IntPoly:
        """Polynomial gcd over Z, normalized to positive leading coefficient.

        Primitive remainder sequence (Knuth, TAOCP vol. 2, 4.6.1): each
        pseudo-remainder is cut to its primitive part, which keeps the
        coefficients from growing; the gcd of the two contents is folded
        back in at the end.
        """
        a, b = self, other
        if a.is_zero or b.is_zero:
            p = b if a.is_zero else a
            return p if p.leading > 0 else -p
        cont = math.gcd(a.content(), b.content())
        # A first pseudo-remainder of lower degree than the divisor is the
        # dividend itself, which swaps the pair.
        a, b = a.primitive_part(), b.primitive_part()
        while b.degree > 0:
            r = _pseudo_divmod(a, b)[1]
            if r.is_zero:
                break
            a, b = b, r.primitive_part()
        if b.degree == 0:
            b = IntPoly((1,))
        if b.leading < 0:
            b = -b
        return b * cont if cont > 1 else b

    # -- text / JSON forms ---------------------------------------------------

    def to_json(self) -> list[int]:
        """Dense JSON array [c_0, ..., c_k]."""
        return list(self.coeffs)

    @staticmethod
    def from_json(data: Sequence[int]) -> IntPoly:
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in data):
            raise ValueError("polynomial JSON array must hold integers")
        return IntPoly(data)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({self})"

    _TERM_RE = re.compile(
        r"""\s*(?P<sign>[+-]?)\s*
            (?:
              (?P<coeff>\d+)\s*(?:\*\s*)?(?P<var1>x(?:\^(?P<exp1>\d+))?)?
              |
              (?P<var2>x(?:\^(?P<exp2>\d+))?)
            )\s*""",
        re.VERBOSE,
    )

    @staticmethod
    def parse(text: str) -> IntPoly:
        """Parse the text form ``c_k*x^k + ... + c_0`` (also accepts ``x^2 - 3``)."""
        coeffs: dict[int, int] = {}
        pos = 0
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        first = True
        while pos < len(s):
            m = IntPoly._TERM_RE.match(s, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
            if not first and m.group("sign") == "":
                raise ValueError(f"missing +/- before {s[pos:]!r}")
            sign = -1 if m.group("sign") == "-" else 1
            if m.group("coeff") is not None:
                c = int(m.group("coeff"))
                var = m.group("var1")
                exp = m.group("exp1")
            else:
                c = 1
                var = m.group("var2")
                exp = m.group("exp2")
            k = 0
            if var is not None:
                k = int(exp) if exp is not None else 1
            coeffs[k] = coeffs.get(k, 0) + sign * c
            pos = m.end()
            first = False
        out = [0] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return IntPoly(out)


def _divide_exactly(p: IntPoly, d: IntPoly) -> IntPoly:
    """p / d for a d that must divide p exactly; RuntimeError otherwise."""
    q = p.exact_div(d)
    if q is None:
        raise RuntimeError(f"{d} does not divide {p} exactly")
    return q


def _divmod(a: IntPoly, b: IntPoly) -> Optional[tuple[IntPoly, IntPoly]]:
    """Long division over Z: (q, r) with a = q*b + r and deg r < deg b, or
    None as soon as a quotient coefficient is not an integer (never for a
    monic b).  The one integer division loop of the package."""
    rem = list(a.coeffs)
    bc = b.coeffs
    lc, bn = bc[-1], len(bc)
    q = [0] * max(len(rem) - bn + 1, 0)
    for i in range(len(rem) - bn, -1, -1):
        lead = rem[i + bn - 1]
        if lead == 0:
            continue
        t, r = divmod(lead, lc)
        if r != 0:
            return None
        q[i] = t
        for j, c in enumerate(bc):
            rem[i + j] -= t * c
    return IntPoly(q), IntPoly(rem[: bn - 1])


def _pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Pseudo-division over Z: (q, r) with lc(b)^(deg a - deg b + 1) * a =
    q*b + r and deg r < deg b."""
    d = a.degree - b.degree
    if d < 0:
        return IntPoly(), a
    qr = _divmod(a * b.leading ** (d + 1), b)
    if qr is None:
        raise RuntimeError("pseudo-division left a fractional quotient")
    return qr


def squarefree_decompose(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun decomposition: p = unit * prod(part_i ^ mult_i) with square-free,
    pairwise-coprime, primitive parts of positive leading coefficient.

    Constant polynomials decompose into an empty list.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if p.degree == 0:
        return []
    pp = p.primitive_part()
    if pp.leading < 0:
        pp = -pp
    dp = pp.derivative()
    g = pp.gcd(dp)
    out: list[tuple[IntPoly, int]] = []
    if g.degree == 0:
        return [(pp, 1)]
    c = _divide_exactly(pp, g)
    d = _divide_exactly(dp, g) - c.derivative()
    i = 1
    while c.degree > 0:
        part = c.gcd(d)
        if part.degree > 0:
            out.append((part, i))
            c = _divide_exactly(c, part)
            d = _divide_exactly(d, part)
        d = d - c.derivative()
        i += 1
    out.sort(key=lambda pm: pm[0].sort_key())
    return out


def root_multiplicity(p: IntPoly, f: IntPoly) -> int:
    """Largest k with f^k dividing p exactly over the integers."""
    if p.is_zero:
        raise ZeroPolynomial("multiplicity in the zero polynomial")
    if not f.is_monic or f.degree < 1:
        from ..errors import InvalidFactor

        raise InvalidFactor(f"divisor must be monic of degree >= 1, got {f}")
    if f.coeffs == (0, 1):
        return next(i for i, c in enumerate(p.coeffs) if c)
    # Divide by f, f^2, f^4, ... while they divide, then bisect the rest:
    # O(log k) exact divisions instead of k.
    powers, k = [f], 0
    while (q := p.exact_div(powers[-1])) is not None:
        p, k = q, k + (1 << len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for i in reversed(range(len(powers) - 1)):
        if (q := p.exact_div(powers[i])) is not None:
            p, k = q, k + (1 << i)
    return k


