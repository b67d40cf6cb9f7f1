"""Root classes of the matching polynomial, vertex sign classification,
theta-partitions, the stability check, and exact eigenvector construction.

A root is always handled through its minimal polynomial: the multiplicity of
the root class in a graph is the number of times the minimal polynomial
divides the matching polynomial, and vertex signs come from how that
multiplicity moves under vertex deletion (it changes by at most one).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BadVertex, ModulusMismatch, NotARoot, NotATree, NotSpecial
from .exactalg import (
    AlgebraicRootClass,
    FactoredPoly,
    IntPoly,
    NumberFieldElem,
    factor_irreducible,
    root_multiplicity,
)
from .graphs import Graph, bfs_rooting
from .matchcore import (
    _rooted_path_polynomials,
    matching_polynomial,
    vertex_deleted_polynomials,
)


class Sign(enum.Enum):
    """Deletion moves the root multiplicity by -1, 0, or +1."""

    ESSENTIAL = "essential"
    NEUTRAL = "neutral"
    POSITIVE = "positive"

    @property
    def symbol(self) -> str:
        return {"essential": "-", "neutral": "*", "positive": "+"}[self.value]


@dataclass(frozen=True)
class VertexSign:
    sign: Sign
    special: bool

    def __post_init__(self):
        if self.special and self.sign == Sign.ESSENTIAL:
            raise ValueError("a special vertex is by definition not essential")


@dataclass(frozen=True)
class ThetaPartition:
    """D = essential, A = special, C = everything else."""

    rootclass: AlgebraicRootClass
    mult: int
    signs: tuple[Sign, ...]
    special: tuple[bool, ...]

    @property
    def D(self) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.signs) if s == Sign.ESSENTIAL)

    @property
    def A(self) -> frozenset[int]:
        return frozenset(v for v, sp in enumerate(self.special) if sp)

    @property
    def C(self) -> frozenset[int]:
        return frozenset(
            v
            for v, s in enumerate(self.signs)
            if s != Sign.ESSENTIAL and not self.special[v]
        )

    def vertex_class(self, v: int) -> str:
        if self.signs[v] == Sign.ESSENTIAL:
            return "D"
        return "A" if self.special[v] else "C"

    def to_json(self, G: Graph) -> dict:
        return {
            "rootclass": self.rootclass.to_json(),
            "mult": self.mult,
            "signs": {G.label(v): s.value for v, s in enumerate(self.signs)},
            "special": [G.label(v) for v in sorted(self.A)],
            "D": [G.label(v) for v in sorted(self.D)],
            "A": [G.label(v) for v in sorted(self.A)],
            "C": [G.label(v) for v in sorted(self.C)],
        }


def mult_of(G: Graph, theta: AlgebraicRootClass) -> int:
    """Multiplicity of the root class in the matching polynomial of G."""
    return root_multiplicity(matching_polynomial(G), theta.minpoly)


def root_classes(G: Graph) -> list[tuple[AlgebraicRootClass, int]]:
    """Irreducible root classes of the matching polynomial, with
    multiplicities, in deterministic (degree, coefficients) order.

    The path classes (the factors of the mu(P_k), see ``_path_minpoly``) are
    divided out first, and only the cofactor goes to ``factor_irreducible``.
    """
    mu = matching_polynomial(G)
    if mu.degree < 1:
        return []
    rest, value = mu, _lifted_value(mu, _PEEL_POINT)
    found: dict[IntPoly, int] = {}
    for m in _path_orders(mu.degree):
        # Psi_m | rest forces Phi_m(b) | b^deg(rest) rest(b + 1/b), with the
        # quotient's value as cofactor; exact_div decides.
        at = _cyclotomic_value(m, _PEEL_POINT)
        while value % at == 0 and (q := rest.exact_div(psi := _path_minpoly(m))) is not None:
            rest, value = q, value // at
            found[psi] = found.get(psi, 0) + 1
    if rest.degree >= 1:
        found.update(factor_irreducible(rest).factors)
    factors = tuple(sorted(found.items(), key=lambda fe: fe[0].sort_key()))
    if FactoredPoly(unit=1, factors=factors).expand() != mu:
        raise RuntimeError("root classes failed to round-trip to the matching polynomial")
    return [(AlgebraicRootClass(f), e) for f, e in factors]


# -- path classes ----------------------------------------------------------------

# The point b at which root_classes tests Phi_m(b) before dividing by Psi_m.
# Phi_m has twice the degree of Psi_m, so Phi_m(2^32) is as large as
# Psi_m(2^64) and a false pass is as rare.
_PEEL_POINT = 1 << 32


@functools.lru_cache(maxsize=None)
def _cyclotomic(m: int) -> IntPoly:
    """Phi_m, by exact division of z^m - 1 by Phi_d for every d | m, d < m."""
    out = IntPoly.monomial(1, m) - IntPoly.one()
    for d in range(1, m // 2 + 1):
        if m % d == 0:
            out = out.exact_div(_cyclotomic(d))
            if out is None:
                raise RuntimeError(f"a cyclotomic factor of z^{m} - 1 does not divide it")
    return out


@functools.lru_cache(maxsize=None)
def _path_minpoly(m: int) -> IntPoly:
    """Psi_m, the minimal polynomial of 2cos(2 pi / m) for m >= 3.

    mu(P_k) = U_k(x/2), whose irreducible factors are exactly the Psi_m with
    m >= 3 dividing 2(k + 1) (Watkins and Zeitlin, Amer. Math. Monthly 1993).
    The palindromic Phi_m(z) = z^h Psi_m(z + 1/z), h = phi(m)/2, is rewritten
    through D_j(z + 1/z) = z^j + z^-j: D_0 = 2, D_1 = x and
    D_{j+1} = x D_j - D_{j-1}.
    """
    c = _cyclotomic(m).coeffs
    h = (len(c) - 1) // 2
    out = IntPoly.const(c[h])
    prev, cur = IntPoly.const(2), IntPoly.x()
    for j in range(1, h + 1):
        out = out + cur * c[h + j]
        prev, cur = cur, IntPoly.x() * cur - prev
    return out


def _path_orders(n: int) -> list[int]:
    """Every m >= 3 that divides 2(k + 1) for some k <= n: the orders of the
    path classes a degree-n polynomial can have."""
    return [m for m in range(3, 2 * n + 3) if m % 2 == 0 or m <= n + 1]


def path_period(f: IntPoly, n: int) -> int:
    """The period q of the class with minimal polynomial f on the paths with
    at most n vertices (0 if none): f divides mu(P_k), and then once, iff
    q | k + 1.  Psi_m has the roots 2cos(pi t / q) in lowest terms, q = m/2
    for m even and m for m odd; it is built only for an order m whose
    Phi_m(b) equals b^deg(f) f(b + 1/b) at b = 2^32."""
    value = _lifted_value(f, _PEEL_POINT)
    for m in _path_orders(n):
        if _cyclotomic_value(m, _PEEL_POINT) == value and _path_minpoly(m) == f:
            return m // 2 if m % 2 == 0 else m
    return 0


def period_divides(q: int, k: int) -> bool:
    """q | k for a path period q; period 0 (no path class) divides nothing."""
    return q > 0 and k % q == 0


@functools.lru_cache(maxsize=None)
def _cyclotomic_value(m: int, b: int) -> int:
    """Phi_m(b) for an integer b >= 2, from b^m - 1 = prod over d | m of
    Phi_d(b), without building Phi_m."""
    out = b**m - 1
    for d in range(1, m // 2 + 1):
        if m % d == 0:
            out //= _cyclotomic_value(d, b)
    return out


def _lifted_value(p: IntPoly, b: int) -> int:
    """b^n p(b + 1/b) for n = deg p: the value at b of z^n p(z + 1/z), which
    Phi_m(z) divides whenever Psi_m divides p."""
    c = b * b + 1
    out, power = 0, 1
    for a in reversed(p.coeffs):
        out = out * c + a * power
        power *= b
    return out


def _signed(delta: int) -> Sign:
    if delta == -1:
        return Sign.ESSENTIAL
    if delta == 0:
        return Sign.NEUTRAL
    if delta == 1:
        return Sign.POSITIVE
    raise AssertionError(f"interlacing violated: multiplicity moved by {delta}")


def classify_vertex(
    G: Graph, theta: AlgebraicRootClass, u: int, allow_nonroot: bool = False
) -> VertexSign:
    """Sign of one vertex, with its special flag, read from the graph's
    theta-partition.  The root class must divide the matching polynomial
    unless ``allow_nonroot`` is set (then no vertex is special)."""
    if not (0 <= u < G.n):
        raise BadVertex(f"vertex {u} out of range for n={G.n}")
    part = theta_partition(G, theta, allow_nonroot)
    return VertexSign(part.signs[u], part.special[u])


def _vertex_sign(G: Graph, theta: AlgebraicRootClass, u: int, m: int) -> Sign:
    return _signed(root_multiplicity(vertex_deleted_polynomials(G)[u], theta.minpoly) - m)


def theta_partition(
    G: Graph, theta: AlgebraicRootClass, allow_nonroot: bool = False
) -> ThetaPartition:
    """Classify every vertex and split them into the D/A/C classes.  The last
    partition is kept on the graph, so a caller that goes on to build the
    eigenvector of the same class does not classify again."""
    part = G._partition
    if part is not None and part.rootclass != theta:
        part = None
    m = mult_of(G, theta) if part is None else part.mult
    if m == 0 and not allow_nonroot:
        raise NotARoot(f"{theta.minpoly} does not divide the matching polynomial")
    if part is None:
        signs = tuple(_vertex_sign(G, theta, u, m) for u in range(G.n))
        special = tuple(
            signs[u] != Sign.ESSENTIAL
            and any(signs[w] == Sign.ESSENTIAL for w in G.neighbors(u))
            for u in range(G.n)
        )
        part = ThetaPartition(rootclass=theta, mult=m, signs=signs, special=special)
        object.__setattr__(G, "_partition", part)
    return part


# -- stability ----------------------------------------------------------------


@dataclass(frozen=True)
class VertexStability:
    vertex: int
    before_sign: Sign
    after_sign: Sign
    before_class: str
    after_class: str

    @property
    def preserved(self) -> bool:
        return self.before_class == self.after_class


@dataclass(frozen=True)
class StabilityReport:
    rootclass: AlgebraicRootClass
    deleted: int
    stable: bool
    records: tuple[VertexStability, ...]

    def to_json(self, G: Graph) -> dict:
        return {
            "rootclass": self.rootclass.to_json(),
            "deleted": G.label(self.deleted),
            "stable": self.stable,
            "vertices": [
                {
                    "vertex": G.label(r.vertex),
                    "before": {"sign": r.before_sign.value, "class": r.before_class},
                    "after": {"sign": r.after_sign.value, "class": r.after_class},
                    "preserved": r.preserved,
                }
                for r in self.records
            ],
        }


def check_stability(T: Graph, theta: AlgebraicRootClass, u: int) -> StabilityReport:
    """Delete a special vertex and report, per remaining vertex, whether its
    D/A/C class is preserved; the verdict is "stable" iff all are."""
    if not T.is_tree:
        raise NotATree("stability check requires a tree")
    if not (0 <= u < T.n):
        raise BadVertex(f"vertex {u} out of range for n={T.n}")
    before = theta_partition(T, theta)
    if u not in before.A:
        raise NotSpecial(
            f"vertex {T.label(u)} is not special "
            f"(sign {before.signs[u].value}); stability is only promised for special vertices"
        )
    sub, kept = T.delete_vertices([u])
    after = theta_partition(sub, theta)
    records = []
    for new, old in enumerate(kept):
        records.append(
            VertexStability(
                vertex=old,
                before_sign=before.signs[old],
                after_sign=after.signs[new],
                before_class=before.vertex_class(old),
                after_class=after.vertex_class(new),
            )
        )
    return StabilityReport(
        rootclass=theta,
        deleted=u,
        stable=all(r.preserved for r in records),
        records=tuple(records),
    )


# -- eigenvector construction ----------------------------------------------------


@dataclass(frozen=True)
class EigvecResult:
    rootclass: AlgebraicRootClass
    values: tuple[NumberFieldElem, ...]

    def support(self) -> frozenset[int]:
        return frozenset(v for v, e in enumerate(self.values) if not e.is_zero)

    def to_json(self, G: Graph) -> dict:
        return {
            "rootclass": self.rootclass.to_json(),
            "values": {G.label(v): str(e) for v, e in enumerate(self.values)},
            "support": [G.label(v) for v in sorted(self.support())],
        }


def construct_eigenvector(T: Graph, theta: AlgebraicRootClass) -> EigvecResult:
    """An exact eigenvector of the tree for the root class, nonzero on every
    essential vertex.  A non-essential neighbour of an essential vertex is
    special, so each component K of T - A lies in D or misses it.

    On a K in D, x_v = mu(K - P_rv)(theta) / mu(K - r)(theta), r = min K and
    P_rv the path from r to v (a column of adj(theta*I - A_K)).  The special
    vertices glue these, smallest first: of the components of S - u, S the
    piece holding u, those with an essential contact are scaled to contact
    values 1, ..., 1, -(k - 1), those with a non-essential contact keep their
    vectors, and the rest and u get zero; so each entry is one product in
    Q(theta).  By the stability lemma (Ku and Chen, JCTB 2010) the partition
    of T, computed once, holds on every piece.
    """
    if not T.is_tree:
        raise NotATree("eigenvector construction requires a tree")
    part = theta_partition(T, theta, allow_nonroot=True)
    if part.mult == 0:
        raise NotARoot(f"{theta.minpoly} is not a root class of this tree")
    return EigvecResult(rootclass=theta, values=tuple(_glue(T, theta, part.D, part.A)))


def _glue(T: Graph, theta: AlgebraicRootClass, D: frozenset, A: frozenset) -> list:
    """The eigenvector from one column and one factor per leaf."""
    if any(w not in D and w not in A for v in D for w in T.neighbors(v)):
        raise RuntimeError("a component of T - A mixes essential and non-essential vertices")
    column: dict[int, tuple[int, IntPoly]] = {}  # v in D -> (r = min K, mu(K - P_rv))

    def factors(S: set[int]) -> dict[int, NumberFieldElem]:
        # f_K for each leaf K in S (x_v = mu(K - P_rv)(theta) f_K on S's vector)
        if S <= D:
            r, K = min(S), sorted(S)
            column.update((v, (r, mu)) for v, mu in zip(K, _rooted_path_polynomials(T, K)))
            top = NumberFieldElem(theta, column[r][1])
            if top.is_zero:
                raise RuntimeError(f"mu(K - {r}) vanishes at theta: vertex {r} is not essential")
            return {r: top.inverse()}
        u = min(S & A)
        rest = S - {u}
        parts = sorted((_component(T, c, rest), c) for c in T.neighbors(u) if c in rest)
        if (k := sum(c in D for _, c in parts)) < 2:
            raise RuntimeError("a special vertex must touch >= 2 essential contacts")
        out, alphas = {}, iter([1] * (k - 1) + [-(k - 1)])
        for K, c in parts:
            if c in D:  # scaled to the contact value alpha
                sub, (r, mu) = factors(set(K)), column[c]
                scale = theta.from_int(next(alphas)) / NumberFieldElem(
                    theta, mu * sub[r].num, sub[r].den)
                out.update((r, f * scale) for r, f in sub.items())
            elif not D.isdisjoint(K):
                out.update(factors(set(K)))
        return out

    values, f = [theta.zero()] * T.n, factors(set(range(T.n)))
    for v, (r, mu) in column.items():
        values[v] = NumberFieldElem(theta, mu * f[r].num, f[r].den)
    return values


def _component(T: Graph, v: int, inside) -> list[int]:
    """The sorted vertices of the component of v in T[inside]."""
    seen, stack = {v}, [v]
    while stack:
        new = [w for w in T.adjacency[stack.pop()] if w in inside and w not in seen]
        seen.update(new)
        stack += new
    return sorted(seen)


def _adjugate_column(T: Graph, theta: AlgebraicRootClass) -> list[NumberFieldElem]:
    """x_v = mu(T - P_0v)(theta) / mu(T - 0)(theta): the whole tree as one leaf."""
    return _glue(T, theta, frozenset(range(T.n)), frozenset())


def adjacency_minus_theta(
    G: Graph, theta: AlgebraicRootClass
) -> list[list[NumberFieldElem]]:
    """The matrix A - theta*I of G over Q(theta); its kernel is the
    eigenspace of the root class."""
    one, zero, neg = theta.one(), theta.zero(), -theta.generator()
    return [
        [one if G.has_edge(i, j) else (neg if i == j else zero) for j in range(G.n)]
        for i in range(G.n)
    ]


def forest_nullity(G: Graph, theta: AlgebraicRootClass) -> int:
    """The nullity of A - theta*I for a forest G, by the leaf-up congruence of
    Jacobs and Trevisan (Linear Algebra Appl. 434, 2011): every vertex starts
    at -theta and subtracts 1/a(c) for each child c still joined to it; if a
    child is at zero, that child is set to 2, the vertex to -1/2, and the
    vertex is cut from its parent.  The zeros left on the diagonal count the
    nullity, which on a forest is the multiplicity of theta in mu(G)."""
    if not G.is_forest:
        raise NotATree("the leaf-up diagonalisation requires a forest")
    a, joined = [-theta.generator()] * G.n, [True] * G.n
    for comp in G.component_vertex_sets():
        order, parent = bfs_rooting(G.adjacency, comp[0])
        for v in reversed(order):
            kids = [c for c in G.adjacency[v] if parent[c] == v and joined[c]]
            zero = next((c for c in kids if a[c].is_zero), None)
            if zero is None:
                for c in kids:
                    a[v] = a[v] - a[c].inverse()
            else:
                a[zero], a[v], joined[v] = theta.from_int(2), theta.from_int(-1) / 2, False
    return sum(e.is_zero for e in a)


def verify_eigenvector(
    G: Graph, theta: AlgebraicRootClass, values: Sequence[NumberFieldElem]
) -> bool:
    """Exact check that ``values`` is an eigenvector: one entry per vertex,
    not all zero, and at every v, theta x_v minus the neighbours' x_w, over one
    common denominator, vanishes modulo the minimal polynomial."""
    if len(values) != G.n or all(e.is_zero for e in values):
        return False
    f = theta.minpoly
    if any(e.field.minpoly != f for e in values):
        raise ModulusMismatch(f"an entry is not in the field of {f}")
    for v in range(G.n):
        own, nbrs = values[v], [values[w] for w in G.neighbors(v)]
        den = math.lcm(own.den, *(e.den for e in nbrs))
        diff = [0, *(c * (den // own.den) for c in own.num.coeffs)] + [0] * f.degree
        for e in nbrs:
            for i, c in enumerate(e.num.coeffs):
                diff[i] -= c * (den // e.den)
        if IntPoly(diff).divmod_monic(f)[1]:
            return False
    return True
