"""The certificate that replaces elimination in the ``gallai`` sweep: an
exactly verified witness plus a rank bound mod p, with ``kernel_basis`` as the
fallback whenever either half is not proven."""

import hashlib
import random

import pytest

from matchpoly import sweeps
from matchpoly.exactalg import AlgebraicRootClass, IntPoly, kernel_basis, numberfield
from matchpoly.exactalg.factor import _equal_degree_split, _pgcd, _ppow_mod, _zsub
from matchpoly.exactalg.numberfield import _RANK_PRIMES, _root_mod_p, nullity_at_most_one
from matchpoly.graphs import builtin, enumerate_trees, path_graph
from matchpoly.sweeps import SweepConfig, run_sweep
from matchpoly.thetaclass import (
    EigvecResult,
    adjacency_minus_theta,
    construct_eigenvector,
    root_classes,
    theta_partition,
    verify_eigenvector,
)

X = AlgebraicRootClass(IntPoly.x())
GOLDEN = AlgebraicRootClass(IntPoly.parse("x^2 - x - 1"))
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
            assert nullity_at_most_one(matrix)
            (want,) = kernel_basis(matrix)
            lead = next(e for e in x if not e.is_zero)
            assert [e / lead for e in x] == want
            pairs += 1
        assert pairs == 261

    def test_never_proves_nullity_two(self):
        assert not nullity_at_most_one(adjacency_minus_theta(builtin("star:4"), X))
        one, zero = GOLDEN.one(), GOLDEN.zero()
        rows = [[one, GOLDEN.generator(), zero], [zero] * 3, [zero] * 3]
        assert not nullity_at_most_one(rows)

    def test_never_proves_a_multiple_root(self):
        # On a tree the nullity of A - theta*I is the multiplicity of theta.
        seen = 0
        for n in range(1, 9):
            for g in enumerate_trees(n):
                for rc, mult in root_classes(g):
                    if mult >= 2:
                        assert not nullity_at_most_one(adjacency_minus_theta(g, rc))
                        seen += 1
        assert seen > 0

    def test_trivial_shapes(self):
        assert nullity_at_most_one([])
        assert nullity_at_most_one([[X.zero()]])

    def test_no_root_mod_p_is_skipped(self):
        # x^2 - x - 1 has a root mod p iff p = +-1 (mod 5).
        for p in (1048583, 1048613, 1048627):
            assert p % 5 in (2, 3) and _root_mod_p(GOLDEN.minpoly, p) is None
        r = _root_mod_p(GOLDEN.minpoly, 1048601)
        assert (r * r - r - 1) % 1048601 == 0

    def test_root_is_the_first_of_the_full_split(self):
        # _root_mod_p follows only the first part of each split; the root must
        # be the first linear factor of the full split with the same seed.
        def full_split_root(f, p):
            fp = [c % p for c in f.coeffs]
            roots = _pgcd(_zsub(_ppow_mod([0, 1], p, fp, p), [0, 1], p), fp, p)
            if len(roots) < 2:
                return None
            return -_equal_degree_split(roots, 1, p, random.Random(p))[0][0] % p

        minpolys = {
            rc.minpoly for n in range(1, 10) for g in enumerate_trees(n) for rc, _ in root_classes(g)
        }
        found = 0
        for f in sorted(minpolys, key=IntPoly.sort_key):
            for p in _RANK_PRIMES:
                r = _root_mod_p.__wrapped__(f, p)
                assert r == full_split_root(f, p), (f, p)
                found += r is not None
        assert len(minpolys) > 20 and found > len(minpolys)


class TestFallback:
    def test_sweep_certifies_everything_up_to_8(self, eliminations):
        text = _gallai_8()
        assert hashlib.sha256(text.encode()).hexdigest() == GALLAI_8_SHA256
        assert eliminations == []

    def test_certificate_off_is_elimination(self, monkeypatch, eliminations):
        monkeypatch.setattr(sweeps, "nullity_at_most_one", lambda rows: False)
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

    def test_patched_rank_falls_back(self, monkeypatch, eliminations):
        monkeypatch.setattr(numberfield, "_rank_mod_p", lambda mat, p: 0)
        text = _gallai_8()
        assert hashlib.sha256(text.encode()).hexdigest() == GALLAI_8_SHA256
        # Only 1 x 1 matrices need no rank.
        assert len(eliminations) == sum(1 for g, _, _ in _all_essential_pairs(8) if g.n > 1)

    def test_primes_without_a_root_fall_back(self, monkeypatch, eliminations):
        monkeypatch.setattr(numberfield, "_RANK_PRIMES", (1048583, 1048613, 1048627))
        text = _gallai_8()
        assert hashlib.sha256(text.encode()).hexdigest() == GALLAI_8_SHA256
        assert eliminations
        eliminations.clear()
        bad = []
        assert sweeps._check_gallai(path_graph(4), lambda *a: bad.append(a)) == 6
        assert eliminations == [4, 4] and bad == []

    def test_kernel_dim_text_unchanged(self, monkeypatch):
        monkeypatch.setattr(sweeps, "nullity_at_most_one", lambda rows: False)
        monkeypatch.setattr(sweeps, "kernel_basis", lambda rows: [[], []])
        bad = []
        assert sweeps._check_gallai(path_graph(2), lambda *a: bad.append(a)) == 6
        assert bad == [
            ("gallai-kernel", "class x - 1: kernel dim 2"),
            ("gallai-kernel", "class x + 1: kernel dim 2"),
        ]
