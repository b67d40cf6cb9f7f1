"""Tree eigenvectors from one rooted pass per component of T[D].

``construct_eigenvector`` must give the very vectors of the recursion on
relabelled subgraphs (``tests/oracles.py``), entry for entry and byte for
byte; the rooted path pass must give every mu(K - P_rv); a wrong shortcut in
the pass must be caught; and ``verify_eigenvector`` must reach the verdict of
plain field arithmetic.
"""

import itertools
import random

import pytest

from matchpoly import thetaclass
from matchpoly.errors import ModulusMismatch
from matchpoly.exactalg import AlgebraicRootClass, IntPoly, NumberFieldElem
from matchpoly.graphs import Graph, enumerate_trees, path_graph, star_graph
from matchpoly.matchcore import (
    _rooted_path_polynomials,
    matching_polynomial,
    matching_polynomial_recurrence,
)
from matchpoly.thetaclass import (
    construct_eigenvector,
    root_classes,
    theta_partition,
    verify_eigenvector,
)

from .oracles import (
    construct_eigenvector_reference,
    prufer_edges,
    verify_eigenvector_reference,
)


def _prufer(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, prufer_edges([rng.randrange(n) for _ in range(n - 2)], n))


def _spider(legs) -> Graph:
    """A centre 0 with one path of each given length hanging off it."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph(n, edges)


def _small_trees(n_max: int):
    return [g for n in range(1, n_max + 1) for g in enumerate_trees(n)]


def _pairs(graphs):
    return [(g, rc) for g in graphs for rc, _ in root_classes(g)]


def _same_as_reference(g: Graph, rc: AlgebraicRootClass) -> bool:
    got, want = construct_eigenvector(g, rc), construct_eigenvector_reference(g, rc)
    return got.values == want.values and got.to_json(g) == want.to_json(g)


def _components_of_D(g: Graph, D) -> list[list[int]]:
    """The vertex sets of the components of T[D], in original ids."""
    sub, kept = g.delete_vertices(set(range(g.n)) - set(D))
    return [[kept[i] for i in comp] for comp in sub.component_vertex_sets()]


class TestSameVectorsAsTheRecursion:
    def test_every_class_of_every_tree_up_to_11(self):
        pairs = _pairs(_small_trees(11))
        assert len(pairs) == 1286
        for g, rc in pairs:
            assert _same_as_reference(g, rc), (g, rc)

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_prufer_trees_up_to_40(self, seed):
        for g, rc in _pairs(_prufer(n, seed) for n in range(2, 41)):
            assert _same_as_reference(g, rc), (g, rc)

    def test_stars_spiders_and_paths(self):
        graphs = [star_graph(k) for k in range(1, 13)]
        graphs += [_spider(legs) for k in range(2, 5)
                   for legs in itertools.combinations_with_replacement(range(1, 5), k)]
        graphs += [path_graph(k) for k in range(1, 31)]
        for g, rc in _pairs(graphs):
            assert _same_as_reference(g, rc), (g, rc)


class TestRootedPathPass:
    """mu(K - P_rv) for every v of a subtree K, r = min K, against the
    polynomial of the subgraph that ``delete_vertices`` builds."""

    @staticmethod
    def _check(g: Graph, K: list[int], mu_of) -> int:
        paths = g.paths_from(K[0])
        got = _rooted_path_polynomials(g, K)
        assert len(got) == len(K)
        for v, mu in zip(K, got):
            drop = set(range(g.n)) - set(K) | set(paths[v])
            assert mu == mu_of(g.delete_vertices(drop)[0]), (g, K, v)
        return len(K)

    def test_components_of_D_up_to_9(self):
        checked = 0
        for g, rc in _pairs(_small_trees(9)):
            for K in _components_of_D(g, theta_partition(g, rc).D):
                checked += self._check(g, K, matching_polynomial_recurrence)
        assert checked > 1000

    def test_whole_tree_up_to_9(self):
        for g in _small_trees(9):
            self._check(g, list(range(g.n)), matching_polynomial_recurrence)

    def test_single_vertex(self):
        for g in (Graph(1), path_graph(5), star_graph(4)):
            for v in range(g.n):
                assert _rooted_path_polynomials(g, [v]) == [IntPoly.one()]

    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_prufer_trees_of_60(self, seed):
        g = _prufer(60, seed)
        self._check(g, list(range(60)), matching_polynomial)
        for rc, _ in root_classes(g):
            for K in _components_of_D(g, theta_partition(g, rc).D):
                self._check(g, K, matching_polynomial)


def _dropping_a_sibling(g: Graph, verts: list[int]) -> list[IntPoly]:
    """The path pass, except that at the first vertex w with a sibling c, the
    factor m(T_c) is left out of m(K - P_rw)."""
    out = _rooted_path_polynomials(g, verts)
    paths = g.paths_from(verts[0])
    for i, w in enumerate(verts[1:], 1):
        siblings = [c for c in verts[1:] if c != w and paths[c][:-1] == paths[w][:-1]]
        if siblings:
            below = [v for v in verts if siblings[0] in paths[v]]
            sub, _ = g.delete_vertices(set(range(g.n)) - set(below))
            out[i] = out[i].exact_div(matching_polynomial(sub)) * IntPoly.monomial(1, len(below))
            return out
    return out


class TestWrongShortcutsAreCaught:
    """Each test makes one part of the construction lie and asserts that a
    check fails on some tree with n <= 8."""

    @staticmethod
    def _outcomes(monkeypatch, patch) -> tuple[int, int]:
        """(pairs failing verify_eigenvector, pairs differing from the
        reference) with ``patch`` applied to the construction only."""
        pairs = _pairs(_small_trees(8))
        want = [construct_eigenvector_reference(g, rc).values for g, rc in pairs]
        with monkeypatch.context() as m:
            patch(m)
            got = [construct_eigenvector(g, rc).values for g, rc in pairs]
        rejected = sum(not verify_eigenvector(g, rc, x) for (g, rc), x in zip(pairs, got))
        return rejected, sum(x != y for x, y in zip(got, want))

    def test_no_patch_is_clean(self, monkeypatch):
        assert self._outcomes(monkeypatch, lambda m: None) == (0, 0)

    def test_path_pass_dropping_a_sibling_factor(self, monkeypatch):
        rejected, differing = self._outcomes(
            monkeypatch,
            lambda m: m.setattr(thetaclass, "_rooted_path_polynomials", _dropping_a_sibling))
        assert rejected > 0 and differing >= rejected

    def test_contact_weights_all_one(self, monkeypatch):
        rejected, _ = self._outcomes(
            monkeypatch,
            lambda m: m.setattr(AlgebraicRootClass, "from_int", lambda self, c: self.one()))
        assert rejected > 0

    def test_leaf_without_normalisation(self, monkeypatch):
        # The leaf factor 1 / mu(K - r)(theta) becomes 1, while the division
        # that scales to the contact values keeps the true inverse.
        inverse = NumberFieldElem.inverse

        def patch(m):
            m.setattr(NumberFieldElem, "__truediv__", lambda a, b: a * inverse(b))
            m.setattr(NumberFieldElem, "inverse", lambda self: self.field.one())

        rejected, differing = self._outcomes(monkeypatch, patch)
        assert rejected == 0 and differing > 0  # still eigenvectors, but not the same


class TestVerifyVerdict:
    """One reduction per vertex over a common denominator decides as the
    field arithmetic of ``verify_eigenvector_reference`` does."""

    @staticmethod
    def _vectors():
        pairs = _pairs(_small_trees(9) + [_prufer(n, s) for n in (12, 18, 30) for s in range(3)])
        rng = random.Random(0)
        for g, rc in pairs:
            x = list(construct_eigenvector(g, rc).values)
            yield g, rc, x
            for _ in range(2):
                y = list(x)
                for v in rng.sample(range(g.n), min(g.n, rng.randint(1, 3))):
                    y[v] = y[v] + 1
                yield g, rc, y
            if g.n > 1:  # an entry moved to a neighbour's value, still in Q(theta)
                y = list(x)
                y[0] = y[g.neighbors(0)[0]]
                yield g, rc, y

    def test_same_verdict_as_field_arithmetic(self):
        verdicts = [0, 0]
        for g, rc, x in self._vectors():
            want = verify_eigenvector_reference(g, rc, x)
            assert verify_eigenvector(g, rc, x) == want, (g, rc, x)
            verdicts[want] += 1
        assert verdicts[0] > 0 and verdicts[1] > 0

    def test_mixed_fields_raise(self):
        g = path_graph(2)
        rc = AlgebraicRootClass(IntPoly.parse("x - 1"))
        other = AlgebraicRootClass(IntPoly.parse("x + 1"))
        with pytest.raises(ModulusMismatch):
            verify_eigenvector(g, rc, [rc.one(), other.one()])
