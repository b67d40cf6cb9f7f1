"""Real root isolation with Sturm sequences, integer sign evaluation and
exact rational endpoints.

Intervals are for display only downstream (e.g. showing that a root class is
"the root near 1.732"), and root classes isolate theirs lazily, on first
display; all actual decisions in the package are made through divisibility,
never through these numeric brackets.

Each Sturm row is kept as a primitive integer polynomial, a positive rational
multiple of the classical row over the rationals, so its sign at every point
is the same.  The sign at p/q (q > 0) is that of the homogenised value
sum c_i p^i q^(d-i), computed by Horner's rule in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from ..errors import ZeroPolynomial
from .intpoly import IntPoly, _pseudo_divmod, squarefree_decompose

_DEFAULT_WIDTH = Fraction(1, 64)

ZRow = tuple[int, ...]


@dataclass(frozen=True)
class RealRootInterval:
    """A closed rational interval containing exactly one distinct real root."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_json(self) -> dict:
        return {
            "lo": [self.lo.numerator, self.lo.denominator],
            "hi": [self.hi.numerator, self.hi.denominator],
            "approx": float(self.midpoint()),
            "multiplicity": self.multiplicity,
        }


def sturm_chain(f: IntPoly) -> list[ZRow]:
    """Sturm sequence of a square-free polynomial, each row scaled by a
    positive rational to a primitive integer polynomial.

    The pseudo-remainder is lc^(delta+1) times the remainder over the
    rationals, so it is negated unless that power is negative; a primitive
    part is unique up to sign, so the rows match the rational ones."""
    f0, f1 = f.primitive_part(), f.derivative().primitive_part()
    chain = [f0.coeffs]
    while f1:
        chain.append(f1.coeffs)
        rem = _pseudo_divmod(f0, f1)[1]
        if f1.leading > 0 or (f0.degree - f1.degree) % 2:
            rem = -rem
        f0, f1 = f1, rem.primitive_part()
    return chain


def _variations(chain: Sequence[ZRow], x: Fraction) -> Optional[int]:
    """Sign variations of the chain at x, or None when x is a root of the
    chain's polynomial."""
    p, q = x.numerator, x.denominator
    qpow = [1]
    for _ in range(len(chain[0]) - 1):
        qpow.append(qpow[-1] * q)
    p2 = p * p
    count = 0
    last = 0
    for k, cs in enumerate(chain):
        d = len(cs) - 1
        acc = cs[d]
        if d and not any(cs[d - 1::-2]):
            # Only powers x^i with i = d (mod 2): Horner in p^2, times p
            # when d is odd.
            for i in range(d - 2, -1, -2):
                acc = acc * p2 + cs[i] * qpow[d - i]
            if d % 2:
                acc *= p
        else:
            for i in range(d - 1, -1, -1):
                acc = acc * p + cs[i] * qpow[d - i]
        if not acc:
            if k == 0:
                return None
            continue
        sign = 1 if acc > 0 else -1
        if sign != last and last:
            count += 1
        last = sign
    return count


class _Bracket:
    """Mutable bracket around one root of one square-free part, with the
    chain's sign variations at its lower end."""

    __slots__ = ("lo", "hi", "vlo", "chain", "multiplicity")

    def __init__(self, lo, hi, vlo, chain, multiplicity):
        self.lo = lo
        self.hi = hi
        self.vlo = vlo
        self.chain = chain
        self.multiplicity = multiplicity

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def bisect(self) -> None:
        """Halve the bracket, keeping the side holding the root."""
        if self.exact:
            return
        mid = (self.lo + self.hi) / 2
        v = _variations(self.chain, mid)
        if v is None:
            self.lo = self.hi = mid
        elif self.vlo - v == 1:
            self.hi = mid
        else:
            self.lo, self.vlo = mid, v


def _cauchy_bound(cs: ZRow) -> Fraction:
    m = max((abs(c) for c in cs[:-1]), default=0)
    return 1 + Fraction(m, abs(cs[-1]))


def _isolate_squarefree(chain: Sequence[ZRow], multiplicity: int) -> Iterator[_Bracket]:
    """Brackets around the real roots of a square-free part, given its
    Sturm chain, by subdivision that searches the right half first.  The
    stack stays sorted with the rightmost interval on top, so the brackets
    that are not exact come out from the largest root down."""
    bound = _cauchy_bound(chain[0])
    stack = [(-bound, bound, _variations(chain, -bound), _variations(chain, bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        cnt = vlo - vhi
        if cnt == 0:
            continue
        if cnt == 1:
            yield _Bracket(lo, hi, vlo, chain, multiplicity)
            continue
        mid = (lo + hi) / 2
        vmid = _variations(chain, mid)
        if vmid is None:
            delta = (hi - lo) / 4
            while True:
                below = _variations(chain, mid - delta)
                above = None if below is None else _variations(chain, mid + delta)
                if above is not None and below - above <= 1:
                    break
                delta /= 2
            yield _Bracket(mid, mid, None, chain, multiplicity)
            stack.append((lo, mid - delta, vlo, below))
            stack.append((mid + delta, hi, above, vhi))
        else:
            stack.append((lo, mid, vlo, vmid))
            stack.append((mid, hi, vmid, vhi))


def _refine(b: _Bracket, max_width: Fraction) -> None:
    while not b.exact and b.hi - b.lo > max_width:
        b.bisect()


def _separate(brackets: Sequence[_Bracket]) -> None:
    """Shrink brackets until they are pairwise disjoint as closed sets; the
    roots are distinct, so this terminates."""
    changed = True
    while changed:
        changed = False
        for i in range(len(brackets)):
            for j in range(i + 1, len(brackets)):
                a, b = brackets[i], brackets[j]
                if a.hi >= b.lo and b.hi >= a.lo:
                    a.bisect()
                    b.bisect()
                    changed = True


def isolate_real_roots(
    p: IntPoly, max_width: Fraction = _DEFAULT_WIDTH
) -> list[RealRootInterval]:
    """Disjoint, sorted intervals bracketing every distinct real root of p,
    with multiplicities from the square-free decomposition."""
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    brackets: list[_Bracket] = []
    for part, mult in squarefree_decompose(p):
        brackets.extend(_isolate_squarefree(sturm_chain(part), mult))
    for b in brackets:
        _refine(b, max_width)
    _separate(brackets)
    brackets.sort(key=lambda br: (br.lo, br.hi))
    return [RealRootInterval(b.lo, b.hi, b.multiplicity) for b in brackets]


def largest_real_root_interval(p: IntPoly) -> tuple[Fraction, Fraction] | None:
    """Bracket for the largest real root of p, or None if p has no real root:
    the last bracket of ``isolate_real_roots(p)``.

    With one square-free part, the subdivision stops at the first inexact
    bracket below the top one.  Brackets of one part have disjoint
    interiors, so in the disjointness pass the top bracket can meet only
    that one, at a shared end.  A third bracket can meet the second only at
    its lower end; the pass bisects the top pair first, after which the
    second bracket meets at most one of the two, so the third never moves
    the top.  The pass is replayed on the top two.  Exact brackets meet
    nothing; one made before the first inexact bracket may lie above it.

    The Sturm chain of p is the remainder sequence of p and p', so p is
    square-free, and is its own single part, when the chain ends in a
    constant; no gcd is run then.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    chain, mult = sturm_chain(p), 1
    if p.degree == 0 or len(chain[-1]) > 1:
        parts = squarefree_decompose(p)
        if len(parts) != 1:
            intervals = isolate_real_roots(p)
            return (intervals[-1].lo, intervals[-1].hi) if intervals else None
        part, mult = parts[0]
        chain = sturm_chain(part)
    top: Optional[_Bracket] = None
    for b in _isolate_squarefree(chain, mult):
        if top is None or top.exact and b.lo > top.lo:
            top = b
            _refine(top, _DEFAULT_WIDTH)
        elif top.exact:
            break
        elif not b.exact:
            if b.hi >= top.lo:
                _refine(b, _DEFAULT_WIDTH)
                _separate([top, b])
            break
    return None if top is None else (top.lo, top.hi)
