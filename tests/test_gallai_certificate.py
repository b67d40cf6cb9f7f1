"""The certificate that replaces elimination in the ``gallai`` sweep: an
exactly verified witness plus the exact nullity from the leaf-up
diagonalisation (``forest_nullity``), with ``kernel_basis`` only for a witness
that fails the exact check."""

import hashlib

import pytest

from matchpoly import sweeps
from matchpoly.exactalg import AlgebraicRootClass, IntPoly, kernel_basis
from matchpoly.graphs import Graph, builtin, enumerate_trees, path_graph
from matchpoly.sweeps import SweepConfig, run_sweep
from matchpoly.thetaclass import (
    EigvecResult,
    adjacency_minus_theta,
    construct_eigenvector,
    forest_nullity,
    root_classes,
    theta_partition,
    verify_eigenvector,
)

X = AlgebraicRootClass(IntPoly.x())
# sha256 of the gallai n <= 8 report as elimination alone produced it.
GALLAI_8_SHA256 = "be5f7def326fbf15cc1804e48ac62e642f2d843370c900d14662839cc3cf1bae"


def _all_essential_pairs(n_max):
    for n in range(1, n_max + 1):
        for g in enumerate_trees(n):
            for rc, mult in root_classes(g):
                if len(theta_partition(g, rc).D) == g.n:
                    yield g, rc, mult


def _gallai_8() -> str:
    return run_sweep(SweepConfig(campaign="gallai", n_max=8)).to_json_text()


@pytest.fixture
def eliminations(monkeypatch):
    """Count the pairs that fall back to ``kernel_basis``."""
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return kernel_basis(rows)

    monkeypatch.setattr(sweeps, "kernel_basis", counting)
    return calls


class TestCertificate:
    def test_proven_and_equal_to_elimination_up_to_10(self):
        pairs = 0
        for g, rc, mult in _all_essential_pairs(10):
            assert mult == 1
            x = construct_eigenvector(g, rc).values
            matrix = adjacency_minus_theta(g, rc)
            assert verify_eigenvector(g, rc, x)
            assert forest_nullity(g, rc) == 1
            (want,) = kernel_basis(matrix)
            lead = next(e for e in x if not e.is_zero)
            assert [e / lead for e in x] == want
            pairs += 1
        assert pairs == 261

    def test_never_proves_nullity_two(self):
        assert forest_nullity(builtin("star:4"), X) == 2

    def test_never_proves_a_multiple_root(self):
        # On a tree the nullity of A - theta*I is the multiplicity of theta.
        seen = 0
        for n in range(1, 9):
            for g in enumerate_trees(n):
                for rc, mult in root_classes(g):
                    if mult >= 2:
                        assert forest_nullity(g, rc) == mult
                        seen += 1
        assert seen > 0

    def test_trivial_shapes(self):
        assert forest_nullity(Graph(0, []), X) == 0
        assert forest_nullity(Graph(1, []), X) == 1


class TestFallback:
    def test_sweep_certifies_everything_up_to_8(self, eliminations):
        text = _gallai_8()
        assert hashlib.sha256(text.encode()).hexdigest() == GALLAI_8_SHA256
        assert eliminations == []

    def test_certificate_off_is_elimination(self, monkeypatch, eliminations):
        monkeypatch.setattr(sweeps, "verify_eigenvector", lambda g, rc, x: False)
        text = _gallai_8()
        assert hashlib.sha256(text.encode()).hexdigest() == GALLAI_8_SHA256
        assert len(eliminations) == sum(1 for _ in _all_essential_pairs(8))

    def test_perturbed_witness_falls_back(self, monkeypatch, eliminations):
        def perturbed(g, rc):
            values = construct_eigenvector(g, rc).values
            return EigvecResult(rc, values[:-1] + (values[-1] + 1,))

        monkeypatch.setattr(sweeps, "construct_eigenvector", perturbed)
        text = _gallai_8()
        assert hashlib.sha256(text.encode()).hexdigest() == GALLAI_8_SHA256
        # On one vertex (theta = 0) the perturbed (2) is still a kernel vector.
        assert len(eliminations) == sum(1 for g, _, _ in _all_essential_pairs(8) if g.n > 1)

    def test_kernel_dim_text_unchanged(self, monkeypatch):
        monkeypatch.setattr(sweeps, "verify_eigenvector", lambda g, rc, x: False)
        monkeypatch.setattr(sweeps, "kernel_basis", lambda rows: [[], []])
        bad = []
        assert sweeps._check_gallai(path_graph(2), lambda *a: bad.append(a)) == 6
        assert bad == [
            ("gallai-kernel", "class x - 1: kernel dim 2"),
            ("gallai-kernel", "class x + 1: kernel dim 2"),
        ]
