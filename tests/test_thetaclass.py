import random

import pytest

from matchpoly.errors import BadVertex, NotARoot, NotATree, NotSpecial
from matchpoly.exactalg import (
    AlgebraicRootClass,
    IntPoly,
    kernel_basis,
    largest_real_root_interval,
)
from matchpoly import thetaclass
from matchpoly.graphs import Graph, builtin, enumerate_trees, path_graph, star_graph
from matchpoly.thetaclass import (
    Sign,
    _adjugate_column,
    adjacency_minus_theta,
    check_stability,
    classify_vertex,
    construct_eigenvector,
    mult_of,
    root_classes,
    theta_partition,
    verify_eigenvector,
)

from .oracles import prufer_edges

X_MINUS_1 = AlgebraicRootClass(IntPoly.parse("x - 1"))
X = AlgebraicRootClass(IntPoly.x())
SQRT3 = AlgebraicRootClass(IntPoly.parse("x^2 - 3"))

T9 = builtin("paper:T9")
STAR4 = builtin("star:4")


class TestRootClasses:
    def test_p2(self):
        got = [(rc.minpoly, m) for rc, m in root_classes(path_graph(2))]
        assert got == [(IntPoly.parse("x - 1"), 1), (IntPoly.parse("x + 1"), 1)]

    def test_t9_contains_x_minus_1(self):
        got = {(rc.minpoly.coeffs, m) for rc, m in root_classes(T9)}
        assert (IntPoly.parse("x - 1").coeffs, 1) in got

    def test_star_max_mult(self):
        classes = root_classes(STAR4)
        by_poly = {rc.minpoly: m for rc, m in classes}
        assert by_poly[IntPoly.x()] == 2
        assert max(by_poly.values()) == 2

    def test_intervals_attached_for_real_classes(self):
        for rc, _ in root_classes(path_graph(4)):
            assert rc.isolating_interval is not None

    def test_empty_for_trivial(self):
        assert root_classes(Graph(0)) == []

    def test_identity_is_the_minimal_polynomial(self):
        graphs = [g for n in range(1, 8) for g in enumerate_trees(n)] + [builtin("paper:G14")]
        for g in graphs:
            for rc, _ in root_classes(g):
                bare = AlgebraicRootClass(rc.minpoly)
                assert rc == bare and hash(rc) == hash(bare)
                assert rc.isolating_interval == largest_real_root_interval(rc.minpoly)
                assert rc == bare  # isolating on one side changes nothing

    def test_no_real_root_no_bracket(self):
        assert AlgebraicRootClass(IntPoly.parse("x^2 + 1")).isolating_interval is None
        assert AlgebraicRootClass(IntPoly.parse("x^2 + 1")).to_json() == {"minpoly": [1, 0, 1]}


class TestClassify:
    def test_t9_sign_table(self):
        want = "*++*+----"
        got = "".join(
            classify_vertex(T9, X_MINUS_1, v).sign.symbol for v in range(9)
        )
        assert got == want

    def test_v5_is_special(self):
        vs = classify_vertex(T9, X_MINUS_1, 4)
        assert vs.sign == Sign.POSITIVE and vs.special

    def test_v2_positive_not_special(self):
        vs = classify_vertex(T9, X_MINUS_1, 1)
        assert vs.sign == Sign.POSITIVE and not vs.special

    def test_path_endpoints_essential_for_all_classes(self):
        p7 = path_graph(7)
        for rc, _ in root_classes(p7):
            for endpoint in (0, 6):
                assert classify_vertex(p7, rc, endpoint).sign == Sign.ESSENTIAL

    def test_nonroot_needs_flag(self):
        p7 = path_graph(7)
        with pytest.raises(NotARoot):
            classify_vertex(p7, SQRT3, 0)
        vs = classify_vertex(p7, SQRT3, 0, allow_nonroot=True)
        assert vs.sign in (Sign.NEUTRAL, Sign.POSITIVE)
        assert not vs.special

    def test_bad_vertex(self):
        with pytest.raises(BadVertex):
            classify_vertex(T9, X_MINUS_1, 9)


class TestClassifyAgreesWithPartition:
    def test_every_vertex_of_every_tree_up_to_8(self):
        direct = {-1: Sign.ESSENTIAL, 0: Sign.NEUTRAL, 1: Sign.POSITIVE}
        for n in range(1, 9):
            for g in enumerate_trees(n):
                for rc, m in root_classes(g):
                    part = theta_partition(g, rc)
                    for u in range(g.n):
                        sub, _ = g.delete_vertices([u])
                        assert part.signs[u] == direct[mult_of(sub, rc) - m]
                        vs = classify_vertex(g, rc, u)
                        assert (vs.sign, vs.special) == (part.signs[u], part.special[u])


class TestPartition:
    def test_t9(self):
        part = theta_partition(T9, X_MINUS_1)
        assert part.mult == 1
        assert part.D == frozenset({5, 6, 7, 8})
        assert part.A == frozenset({4})
        assert part.C == frozenset({0, 1, 2, 3})

    def test_star_at_zero(self):
        part = theta_partition(STAR4, X)
        assert part.D == frozenset({1, 2, 3})
        assert part.A == frozenset({0})
        assert part.C == frozenset()

    def test_p2_all_essential(self):
        part = theta_partition(path_graph(2), X_MINUS_1)
        assert part.D == frozenset({0, 1})
        assert part.A == part.C == frozenset()

    def test_classes_partition_vertices(self):
        for n in range(1, 7):
            for g in enumerate_trees(n):
                for rc, _ in root_classes(g):
                    part = theta_partition(g, rc)
                    assert part.D | part.A | part.C == frozenset(range(n))
                    assert not (part.D & part.A)
                    assert not (part.D & part.C)
                    assert not (part.A & part.C)

    def test_json_schema(self):
        data = theta_partition(T9, X_MINUS_1).to_json(T9)
        assert set(data) == {"rootclass", "mult", "signs", "special", "D", "A", "C"}
        assert data["signs"]["v6"] == "essential"
        assert data["A"] == ["v5"]
        assert data["mult"] == 1


class TestStability:
    def test_t9_delete_special(self):
        rep = check_stability(T9, X_MINUS_1, 4)
        assert rep.stable
        after = {T9.label(r.vertex): r.after_sign.symbol for r in rep.records}
        assert after == {
            "v1": "*", "v2": "+", "v3": "+", "v4": "*",
            "v6": "-", "v7": "-", "v8": "-", "v9": "-",
        }

    def test_t9_nonspecial_rejected(self):
        with pytest.raises(NotSpecial):
            check_stability(T9, X_MINUS_1, 2)

    def test_t9_minus_v3_direct_partition(self):
        sub, kept = T9.delete_vertices([2])
        part = theta_partition(sub, X_MINUS_1)
        signs = {sub.label(i): part.signs[i].symbol for i in range(sub.n)}
        assert signs == {
            "v1": "-", "v2": "-", "v4": "*", "v5": "+",
            "v6": "-", "v7": "-", "v8": "-", "v9": "-",
        }

    def test_star_center(self):
        rep = check_stability(STAR4, X, 0)
        assert rep.stable

    def test_classical_zero_root_case(self):
        # the zero root class is the textbook Gallai-Edmonds setting; every
        # special-vertex deletion must be stable there too
        checked = 0
        for n in range(1, 10):
            for g in enumerate_trees(n):
                if mult_of(g, X) == 0:
                    continue
                part = theta_partition(g, X)
                for u in sorted(part.A):
                    assert check_stability(g, X, u).stable
                    checked += 1
        assert checked > 0

    def test_requires_tree(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotATree):
            check_stability(g, X_MINUS_1, 0)

    def test_json(self):
        data = check_stability(T9, X_MINUS_1, 4).to_json(T9)
        assert data["stable"] is True
        assert data["deleted"] == "v5"
        assert len(data["vertices"]) == 8


class TestEigenvector:
    def test_star_values(self):
        res = construct_eigenvector(STAR4, X)
        vals = [str(e) for e in res.values]
        assert vals == ["0", "1", "1", "-2"]
        assert res.support() == frozenset({1, 2, 3})
        assert verify_eigenvector(STAR4, X, res.values)

    def test_verify_rejects_the_zero_vector(self):
        assert not verify_eigenvector(STAR4, X, [X.zero()] * 4)
        assert not verify_eigenvector(Graph(1), X, [X.zero()])
        assert verify_eigenvector(Graph(1), X, [X.one()])

    def test_verify_rejects_the_wrong_length(self):
        values = construct_eigenvector(STAR4, X).values
        assert not verify_eigenvector(STAR4, X, values[:3])
        assert not verify_eigenvector(STAR4, X, values + (X.zero(),))
        assert not verify_eigenvector(STAR4, X, ())

    def test_p2(self):
        res = construct_eigenvector(path_graph(2), X_MINUS_1)
        assert [str(e) for e in res.values] == ["1", "1"]

    def test_t9(self):
        res = construct_eigenvector(T9, X_MINUS_1)
        assert res.support() == frozenset({5, 6, 7, 8})
        assert [str(res.values[v]) for v in (5, 6, 7, 8)] == ["1", "-1", "1", "-1"]
        assert verify_eigenvector(T9, X_MINUS_1, res.values)

    def test_irrational_class(self):
        p5 = path_graph(5)
        res = construct_eigenvector(p5, SQRT3)
        assert verify_eigenvector(p5, SQRT3, res.values)
        part = theta_partition(p5, SQRT3)
        assert res.support() == part.D

    def test_support_equals_D_small_trees(self):
        for n in range(1, 8):
            for g in enumerate_trees(n):
                for rc, _ in root_classes(g):
                    res = construct_eigenvector(g, rc)
                    assert verify_eigenvector(g, rc, res.values)
                    assert res.support() == theta_partition(g, rc).D

    def test_errors(self):
        with pytest.raises(NotARoot):
            construct_eigenvector(path_graph(7), SQRT3)
        with pytest.raises(NotATree):
            construct_eigenvector(Graph(3, [(0, 1), (1, 2), (0, 2)]), X_MINUS_1)

    def test_one_multiplicity_per_eigenvector(self, monkeypatch):
        calls = []
        original = thetaclass.mult_of

        def counting(G, theta):
            calls.append(G)
            return original(G, theta)

        monkeypatch.setattr(thetaclass, "mult_of", counting)
        res = construct_eigenvector(builtin("paper:T9"), X_MINUS_1)
        assert len(calls) == 1
        assert res.support()
        with pytest.raises(NotARoot, match="is not a root class of this tree"):
            construct_eigenvector(path_graph(7), SQRT3)

    def test_mult_of_semantics(self):
        assert mult_of(STAR4, X) == 2
        assert mult_of(Graph(0), X) == 0

    def test_adjugate_column_zero_denominator_raises(self):
        # mu(K1,3 - 0) = x^3 vanishes at theta = 0: a RuntimeError, not an assert.
        with pytest.raises(RuntimeError, match="vertex 0 is not essential"):
            _adjugate_column(STAR4, X)

    def test_adjugate_column_matches_kernel_basis(self):
        pairs = 0
        for n in range(1, 9):
            for g in enumerate_trees(n):
                for rc, _ in root_classes(g):
                    if len(theta_partition(g, rc).D) != g.n:
                        continue
                    want = kernel_basis(adjacency_minus_theta(g, rc))
                    assert len(want) == 1
                    assert _adjugate_column(g, rc) == want[0]
                    pairs += 1
        assert pairs == 65


class TestEigenvectorStability:
    """The theta-partition of the whole tree is computed once; components
    inherit their classes by the stability lemma."""

    @staticmethod
    def _prufer30() -> Graph:
        rng = random.Random(0)
        return Graph(30, prufer_edges([rng.randrange(30) for _ in range(28)], 30))

    def test_one_partition_per_call(self, monkeypatch):
        calls = []
        partition = thetaclass.theta_partition

        def counting(G, theta, allow_nonroot=False):
            calls.append(G.n)
            return partition(G, theta, allow_nonroot)

        monkeypatch.setattr(thetaclass, "theta_partition", counting)
        tree = self._prufer30()
        cases = [(T9, X_MINUS_1), (star_graph(6), X)]
        cases += [(tree, rc) for rc, _ in root_classes(tree) if partition(tree, rc).A]
        assert len(cases) == 4
        for g, rc in cases:
            calls.clear()
            res = construct_eigenvector(g, rc)
            assert calls == [g.n]
            assert verify_eigenvector(g, rc, res.values)
            assert res.support() == partition(g, rc).D

    def test_support_equals_D_up_to_9(self):
        pairs = 0
        for n in range(1, 10):
            for g in enumerate_trees(n):
                for rc, _ in root_classes(g):
                    res = construct_eigenvector(g, rc)
                    assert verify_eigenvector(g, rc, res.values)
                    assert res.support() == theta_partition(g, rc).D
                    pairs += 1
        assert pairs == 275


class TestPartitionKeptOnGraph:
    """theta_partition is computed once per graph and root class when the
    eigenvector follows; the last partition is kept on the graph, outside
    equality, hashing and pickling."""

    def test_computed_once_per_class(self, monkeypatch):
        import pickle

        signs = []
        vertex_sign = thetaclass._vertex_sign

        def counting(G, theta, u, m):
            signs.append(u)
            return vertex_sign(G, theta, u, m)

        monkeypatch.setattr(thetaclass, "_vertex_sign", counting)
        rng = random.Random(3)
        tree = Graph(18, prufer_edges([rng.randrange(18) for _ in range(16)], 18))
        classes = root_classes(tree)
        for rc, _ in classes:
            part = theta_partition(tree, rc)
            construct_eigenvector(tree, rc)
            assert theta_partition(tree, rc) is part
        assert len(signs) == tree.n * len(classes)
        fresh = Graph(tree.n, tree.edges)
        assert fresh == tree and hash(fresh) == hash(tree)
        assert tree._partition is not None
        assert fresh._partition is None and pickle.loads(pickle.dumps(tree))._partition is None

    def test_equal_classes_are_interchangeable(self):
        g = builtin("paper:T9")
        first = theta_partition(g, X_MINUS_1)
        equal = AlgebraicRootClass(IntPoly.parse("x - 1"))
        again = theta_partition(g, equal)
        assert equal is not X_MINUS_1 and again.rootclass == equal
        assert again.signs == first.signs and again.special == first.special
        assert again.to_json(g) == first.to_json(g)
        assert again.to_json(g) == theta_partition(builtin("paper:T9"), equal).to_json(g)

    def test_nonroot_raises_unless_allowed(self):
        g = path_graph(3)
        with pytest.raises(NotARoot):
            theta_partition(g, SQRT3)
        assert theta_partition(g, SQRT3, allow_nonroot=True).mult == 0
        with pytest.raises(NotARoot):
            theta_partition(g, SQRT3)
