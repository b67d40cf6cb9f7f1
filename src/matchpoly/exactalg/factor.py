"""Irreducible factorization of integer polynomials over the rationals.

Pipeline: square-free (Yun) decomposition; for an even part f = nu(x^2)
with f(0) != 0 and d = deg nu, a certificate at half the degree: if
(-1)^d nu(0) is not a perfect square and nu is irreducible (factored the
same way), then f is irreducible.  The reason: an irreducible factor g of f
is not odd, as f(0) != 0; unless g = f, it pairs with (-1)^d g(-x), so that
f = (-1)^d g(x) g(-x) and (-1)^d nu(0) = g(0)^2.  Every other part goes
through distinct-degree factorization modulo up to four small primes,
whose factor-degree patterns are intersected into the set of degrees a
rational factor can have (Musser 1978), so that f is proven irreducible as
soon as that set is {0, deg f}; equal-degree splitting (Cantor-Zassenhaus)
only for the prime with the fewest modular factors; Hensel lifting to a
coefficient bound; then subset recombination (Zassenhaus) that skips every
subset whose degree the patterns exclude.  Degrees at desk scale stay
small, so recombination blowup is not a concern and no lattice reduction
is needed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from ..errors import ZeroPolynomial
from .intpoly import IntPoly, squarefree_decompose


@dataclass(frozen=True)
class FactoredPoly:
    """A factorization ``unit * prod(factor ** exponent)``.

    Factors are primitive with positive leading coefficient, pairwise
    coprime, square-free, and sorted by (degree, coefficient tuple).  The
    unit carries the sign and integer content, so it is +-1 whenever the
    input is monic.
    """

    unit: int
    factors: tuple[tuple[IntPoly, int], ...]

    def expand(self) -> IntPoly:
        out = IntPoly.const(self.unit)
        for f, e in self.factors:
            out = out * f**e
        return out


def factor_irreducible(p: IntPoly) -> FactoredPoly:
    """Factor a nonzero integer polynomial into rational irreducibles."""
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    cont = p.content()
    if p.leading < 0:
        cont = -cont
    if p.degree == 0:
        return FactoredPoly(unit=cont, factors=())
    collected: dict[IntPoly, int] = {}
    for part, mult in squarefree_decompose(p):
        for irr in _factor_squarefree(part):
            collected[irr] = collected.get(irr, 0) + mult
    factors = tuple(sorted(collected.items(), key=lambda fe: fe[0].sort_key()))
    result = FactoredPoly(unit=cont, factors=factors)
    if result.expand() != p:
        raise RuntimeError("factorization failed to round-trip")
    return result


def _factor_squarefree(f: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a primitive square-free f with positive lc."""
    out: list[IntPoly] = []
    if f.coeffs[0] == 0:
        out.append(IntPoly.x())
        f = IntPoly(f.coeffs[1:])
    if f.degree == 0:
        return out
    if f.degree == 1:
        out.append(f)
        return out
    if f.is_monic:
        out.extend(_zassenhaus_monic(f))
        return out
    # Monicize: g(y) = lc^(n-1) * f(y/lc) is monic with integer coefficients;
    # pull factors of f back out of the factors of g.
    c = f.leading
    n = f.degree
    g = IntPoly(tuple(f.coeffs[i] * c ** (n - 1 - i) for i in range(n)) + (1,))
    mapped_all = []
    for gf in _zassenhaus_monic(g):
        mapped = IntPoly(tuple(a * c**j for j, a in enumerate(gf.coeffs)))
        mapped = mapped.primitive_part()
        if mapped.leading < 0:
            mapped = -mapped
        mapped_all.append(mapped)
    prod = IntPoly.one()
    for q in mapped_all:
        prod = prod * q
    if prod != f:
        raise RuntimeError("monicized factors failed to map back")
    out.extend(mapped_all)
    return out


# -- Zassenhaus ------------------------------------------------------------


_DEFAULT_PRIME_TRIES = 4


def _small_primes():
    yield from (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    n = 59
    while True:
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _is_square(a: int) -> bool:
    return a >= 0 and math.isqrt(a) ** 2 == a


def _zassenhaus_monic(f: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a monic square-free integer polynomial."""
    n = f.degree
    # f = nu(x^2) with nu irreducible and f(0) != 0 factors only as
    # (-1)^d g(x) g(-x), d = n/2, which needs (-1)^d nu(0) = g(0)^2.
    cs = f.coeffs
    if n % 2 == 0 and cs[0] and not any(cs[1::2]):
        nu0 = -cs[0] if n % 4 else cs[0]
        if not _is_square(nu0) and len(_zassenhaus_monic(IntPoly(cs[::2]))) == 1:
            return [f]
    irreducible = 1 | 1 << n
    # Bit k of `allowed` is set iff every tried prime's distinct-degree
    # pattern has a set of modular factors of total degree k: the degree of
    # any rational factor must be such a k.  Split only the prime with the
    # fewest modular factors into irreducibles.
    allowed = (1 << (n + 1)) - 1
    best: tuple[int, list[int], list[tuple[list[int], int]], int] | None = None
    tried = 0
    for p in _small_primes():
        fp = [c % p for c in f.coeffs]
        if _pgcd(fp, _pderiv(fp, p), p) != [1]:
            continue
        blocks = _distinct_degree(fp, p)
        tried += 1
        count = 0
        sums = 1
        for block, d in blocks:
            for _ in range((len(block) - 1) // d):
                sums |= sums << d
                count += 1
        allowed &= sums
        if best is None or count < best[3]:
            best = (p, fp, blocks, count)
        if allowed == irreducible or tried >= _DEFAULT_PRIME_TRIES:
            break
    if best is None:
        raise RuntimeError("no small prime keeps the polynomial square-free")
    if allowed == irreducible:
        return [f]
    p, fp, blocks, _ = best
    seed = len(fp) ^ (p << 16)
    for c in fp:
        seed = (seed * 1000003 + c) & 0xFFFFFFFF
    rng = random.Random(seed)
    modular = [u for block, d in blocks for u in _equal_degree_split(block, d, p, rng)]
    modular.sort(key=lambda u: (len(u), u))

    # Mignotte: a monic divisor g of f has |coeff| <= 2^deg(g) * ||f||_2.
    norm2 = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    bound = (1 << n) * norm2
    target = 2 * bound + 1
    modulus, lifted = _hensel_lift_tree(f, modular, p, target)

    lifted.sort(key=lambda u: (len(u), u))
    factors: list[IntPoly] = []
    remaining = f
    s = 1
    while 2 * s <= len(lifted):
        found = True
        while found:
            found = False
            for subset in itertools.combinations(range(len(lifted)), s):
                if not allowed >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                    continue
                cand = [1]
                for i in subset:
                    cand = _pmul(cand, lifted[i], modulus)
                candidate = IntPoly(tuple(_symmetric(c, modulus) for c in cand))
                q = remaining.exact_div(candidate)
                if q is not None:
                    factors.append(candidate)
                    remaining = q
                    lifted = [u for i, u in enumerate(lifted) if i not in subset]
                    found = 2 * s <= len(lifted)
                    break
        s += 1
    if remaining.degree >= 1:
        factors.append(remaining)
    return factors


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if 2 * c > m else c


# -- Hensel lifting ----------------------------------------------------------


def _hensel_lift_tree(
    f: IntPoly, parts: list[list[int]], p: int, target: int
) -> tuple[int, list[list[int]]]:
    """Lift f = prod(parts) (mod p) to (mod p^2^k >= target).

    f and all parts are monic; returns (modulus, lifted parts).
    """
    modulus = p
    while modulus < target:
        modulus *= modulus
    return modulus, _lift_split(list(f.coeffs), parts, p, target)


def _lift_split(f: list[int], parts: list[list[int]], p: int, target: int) -> list[list[int]]:
    if len(parts) == 1:
        # The single part must equal f mod the final modulus.
        m = p
        while m < target:
            m *= m
        return [[c % m for c in f]]
    half = len(parts) // 2
    g = [1]
    for u in parts[:half]:
        g = _pmul(g, u, p)
    h = [1]
    for u in parts[half:]:
        h = _pmul(h, u, p)
    gg, s, t = _pxgcd(g, h, p)
    if gg != [1]:
        raise RuntimeError("lift halves not coprime mod p")
    m = p
    while m < target:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _lift_split(g, parts[:half], p, target) + _lift_split(h, parts[half:], p, target)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to (mod m^2)."""
    mm = m * m
    e = _zsub(f, _pmul(g, h, mm), mm)
    q, r = _pdivmod_monic(_pmul(s, e, mm), h, mm)
    g1 = _ztrim([(a + b + c) % mm for a, b, c in itertools.zip_longest(
        g, _pmul(t, e, mm), _pmul(q, g, mm), fillvalue=0)])
    h1 = _ztrim([(a + b) % mm for a, b in itertools.zip_longest(h, r, fillvalue=0)])
    b = _zsub(_zadd(_pmul(s, g1, mm), _pmul(t, h1, mm), mm), [1], mm)
    c, d = _pdivmod_monic(_pmul(s, b, mm), h1, mm)
    s1 = _zsub(s, d, mm)
    t1 = _zsub(t, _zadd(_pmul(t, b, mm), _pmul(c, g1, mm), mm), mm)
    return g1, h1, s1, t1


# -- dense polynomial arithmetic over Z/mZ (lists, constant term first) ------


def _ztrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zadd(a, b, m):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _ztrim(out)


def _zsub(a, b, m):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _ztrim(out)


def _pmul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _ztrim([c % m for c in out])


def _pdivmod_monic(a, d, m):
    """Division by a monic polynomial over Z/mZ."""
    if not (d and d[-1] == 1):
        raise RuntimeError("divisor must be monic mod m")
    rem = [c % m for c in a]
    dn = len(d)
    if len(rem) < dn:
        return [], _ztrim(rem)
    q = [0] * (len(rem) - dn + 1)
    for i in range(len(rem) - dn, -1, -1):
        t = rem[i + dn - 1]
        if t:
            q[i] = t
            for j, c in enumerate(d):
                rem[i + j] = (rem[i + j] - t * c) % m
    return _ztrim(q), _ztrim(rem[: dn - 1])


def _pderiv(a, p):
    return _ztrim([i * c % p for i, c in enumerate(a)][1:])


def _pmonic(rows, p):
    """Scale every row by the inverse of the leading coefficient of the
    first, which must be nonzero, over the field Z/pZ."""
    inv = pow(rows[0][-1], p - 2, p)
    return [[c * inv % p for c in row] for row in rows]


def _pgcd(a, b, p):
    """Monic gcd over Z/pZ ([] when both are zero)."""
    a = _ztrim([c % p for c in a])
    b = _ztrim([c % p for c in b])
    while b:
        b = _pmonic([b], p)[0]
        a, b = b, _pdivmod_monic(a, b, p)[1]
    return _pmonic([a], p)[0] if a else []


def _pxgcd(a, b, p):
    """Extended gcd over Z/pZ: returns (g, s, t) with s*a + t*b = g, g monic.
    Each remainder is scaled to monic, with its cofactors, before dividing."""
    r0, r1 = _ztrim([c % p for c in a]), _ztrim([c % p for c in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        r1, s1, t1 = _pmonic([r1, s1, t1], p)
        q, r = _pdivmod_monic(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zsub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _zsub(t0, _pmul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    return tuple(_pmonic([r0, s0, t0], p))


def _ppow_mod(base, exp, f, p):
    """base^exp mod a monic f over Z/pZ."""
    result = [1]
    b = _pdivmod_monic(base, f, p)[1]
    while exp:
        if exp & 1:
            result = _pdivmod_monic(_pmul(result, b, p), f, p)[1]
        b = _pdivmod_monic(_pmul(b, b, p), f, p)[1]
        exp >>= 1
    return result


# -- factorization over Z/pZ (Cantor-Zassenhaus) -----------------------------


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(product of all degree-d irreducible factors, d) for each degree d
    that occurs in a monic square-free f over Z/pZ, in increasing d."""
    blocks: list[tuple[list[int], int]] = []
    g = list(f)
    xq = [0, 1]
    d = 1
    while 2 * d <= len(g) - 1:
        xq = _ppow_mod(xq, p, g, p)
        splitter = _pgcd(_zsub(xq, [0, 1], p), g, p)
        if len(splitter) > 1:
            blocks.append((splitter, d))
            g, r = _pdivmod_monic(g, splitter, p)
            if r:
                raise RuntimeError("distinct-degree splitter does not divide mod p")
            xq = _pdivmod_monic(xq, g, p)[1]
        d += 1
    if len(g) > 1:
        blocks.append((g, len(g) - 1))
    return blocks


def _equal_degree_split(f: list[int], d: int, p: int, rng) -> list[list[int]]:
    """Split a product of distinct degree-d irreducibles over Z/pZ."""
    n = len(f) - 1
    if n == d:
        return [f]
    exponent = (p**d - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _ztrim(a)
        if len(a) <= 1:
            continue
        g = _pgcd(a, f, p)
        if 1 < len(g) < len(f):
            pass
        else:
            b = _ppow_mod(a, exponent, f, p)
            g = _pgcd(_zsub(b, [1], p), f, p)
            if not (1 < len(g) < len(f)):
                continue
        q, r = _pdivmod_monic(f, g, p)
        if r:
            raise RuntimeError("equal-degree split does not divide mod p")
        return _equal_degree_split(g, d, p, rng) + _equal_degree_split(q, d, p, rng)
