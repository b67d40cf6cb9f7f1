"""The degree-capacity bound of ``enumerate_covers`` cuts only branches
without a cover: for every m the pruned search yields the same covers, in
the same order, as the plain include/exclude search in ``oracles``."""

import itertools

from matchpoly.covers import enumerate_covers, min_path_cover
from matchpoly.graphs import Graph, builtin, enumerate_trees

from .oracles import enumerate_covers_reference
from .test_frontier import _gnp, _graph_query_inputs
from .test_path_period import _two_tree_forests

# Each list of covers is compared up to this many entries.
CAP = 200


def corpus() -> list[Graph]:
    """Trees n <= 9, two-tree forests with components n <= 5, paper:G14, the
    first 30 seed-0 graph-queries inputs and seeded G(n, 0.35) with n <= 9."""
    graphs = [g for n in range(1, 10) for g in enumerate_trees(n)]
    graphs += _two_tree_forests(5)
    graphs.append(builtin("paper:G14"))
    graphs += _graph_query_inputs(30)
    graphs += [_gnp(n, 0.35, seed) for n in range(1, 10) for seed in range(5)]
    return graphs


def _paths(covers) -> list:
    return [Q.paths for Q in itertools.islice(covers, CAP)]


def test_same_covers_for_every_m():
    for g in corpus():
        for m in range(g.n + 2):
            want = _paths(enumerate_covers_reference(g, m))
            assert _paths(enumerate_covers(g, m)) == want, (g.n, g.edges, m)


def test_every_minimum_cover_of_dense_graphs():
    # Uncapped: every cover of the first 10 graph-queries inputs at the
    # smallest m that has one, where the bound cuts the most.
    for g in _graph_query_inputs(10):
        m = min_path_cover(g).size
        assert _paths(enumerate_covers(g, m - 1)) == []
        got = [Q.paths for Q in enumerate_covers(g, m)]
        assert got == [Q.paths for Q in enumerate_covers_reference(g, m)]
