"""The leaf-up diagonalisation ``forest_nullity`` against the factoring
pipeline: on a forest the nullity of A - theta*I is the multiplicity of theta
in mu, so it must give every ``root_classes`` exponent and, on T - u, every
``theta_partition`` sign.  A lying nullity must be caught by the ``gallai``
sweep."""

import hashlib

import pytest

from matchpoly import sweeps
from matchpoly.errors import NotATree
from matchpoly.exactalg import AlgebraicRootClass, IntPoly
from matchpoly.graphs import Graph, builtin, enumerate_trees
from matchpoly.sweeps import SweepConfig, Violation, run_sweep
from matchpoly.thetaclass import Sign, forest_nullity, root_classes, theta_partition

from .test_cli import _prufer_tree_edges
from .test_gallai_certificate import GALLAI_8_SHA256, _all_essential_pairs

_SIGN_OF_DELTA = {-1: Sign.ESSENTIAL, 0: Sign.NEUTRAL, 1: Sign.POSITIVE}


def _assert_matches_pipeline(g: Graph) -> int:
    """Compare every class's nullity, on g and on every g - u, with the
    exponent and the vertex signs; return the number of classes."""
    classes = root_classes(g)
    for rc, mult in classes:
        assert forest_nullity(g, rc) == mult, (g, rc)
        signs = theta_partition(g, rc).signs
        for u in range(g.n):
            sub, _ = g.delete_vertices([u])
            assert _SIGN_OF_DELTA[forest_nullity(sub, rc) - mult] == signs[u], (g, rc, u)
    return len(classes)


def test_equals_factoring_on_every_tree_up_to_9():
    classes = sum(_assert_matches_pipeline(g) for n in range(1, 10) for g in enumerate_trees(n))
    assert classes == 275


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [30, 60])
def test_equals_factoring_on_seeded_prufer_trees(seed, n):
    assert _assert_matches_pipeline(Graph(n, _prufer_tree_edges(seed, n))) > 0


def test_multiple_roots_and_forests():
    x = AlgebraicRootClass(IntPoly.x())
    assert forest_nullity(builtin("star:6"), x) == 4
    assert forest_nullity(Graph(5, [(0, 1), (2, 3)]), x) == 1
    golden = AlgebraicRootClass(IntPoly.parse("x^2 - x - 1"))
    assert forest_nullity(Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]), golden) == 2


def test_a_cycle_is_refused():
    with pytest.raises(NotATree):
        forest_nullity(Graph(3, [(0, 1), (1, 2), (0, 2)]), AlgebraicRootClass(IntPoly.x()))


@pytest.mark.parametrize("lie", [2, 0])
def test_lying_nullity_is_caught(monkeypatch, lie):
    monkeypatch.setattr(sweeps, "forest_nullity", lambda g, rc: lie)
    report = run_sweep(SweepConfig(campaign="gallai", n_max=8))
    want = [
        Violation(
            f"tree:{g.n}:{g.canonical_code().decode()}",
            "gallai-kernel",
            f"class {rc.minpoly}: kernel dim {lie}",
        )
        for g, rc, _ in _all_essential_pairs(8)
    ]
    assert sorted(report.violations, key=repr) == sorted(want, key=repr)
    assert hashlib.sha256(report.to_json_text().encode()).hexdigest() != GALLAI_8_SHA256
