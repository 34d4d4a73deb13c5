import numpy as np
import pytest

import oracles
from ramlab import graph_core
from ramlab.errors import (
    Asymmetric,
    DegreeTooSmall,
    Disconnected,
    IrregularGraph,
    NonSimple,
    SelfLoop,
)


def test_k4_edge_space(k4):
    es = graph_core.validate_and_index(k4)
    assert es.N == 12
    rev = es.rev
    assert np.array_equal(rev[rev], np.arange(12))
    assert (rev != np.arange(12)).all()  # fixed-point free
    assert np.array_equal(es.tail[rev], es.head)


def test_petersen_edge_space(petersen):
    es = graph_core.validate_and_index(petersen)
    assert es.N == 30
    assert np.array_equal(es.rev[es.rev], np.arange(30))


def test_edge_id_convention(petersen):
    # id = d*u + rank of head in u's sorted neighbor list
    es = graph_core.validate_and_index(petersen)
    for e in range(es.N):
        u = e // petersen.d
        assert es.tail[e] == u
        assert es.head[e] == petersen.neighbors(u)[e % petersen.d]


def test_ids_partition_by_tail(lift20):
    es = graph_core.validate_and_index(lift20)
    d = lift20.d
    assert np.all(es.tail * d <= np.arange(es.N))
    assert np.all(np.arange(es.N) < (es.tail + 1) * d)


def test_bfs_k4(k4):
    assert graph_core.bfs_distances(k4, 0).tolist() == [0, 1, 1, 1]


def test_bfs_petersen_diameter_two(petersen):
    for x in range(10):
        assert graph_core.bfs_distances(petersen, x).max() == 2


def test_bfs_matches_dict_oracle(rand3_50, lift20):
    for g in (rand3_50, lift20):
        adj = oracles.adjacency_dict(g)
        for x in (0, g.n // 2, g.n - 1):
            expected = oracles.bfs_dict(adj, x)
            got = graph_core.bfs_distances(g, x)
            assert [got[v] for v in range(g.n)] == [expected[v] for v in range(g.n)]


def test_bfs_source_range(k4):
    with pytest.raises(IndexError):
        graph_core.bfs_distances(k4, 4)


def test_metrics_small(k4, k33, petersen):
    assert graph_core.graph_metrics(k4) == {"diameter": 1, "girth": 3, "bipartite": False}
    assert graph_core.graph_metrics(k33) == {"diameter": 2, "girth": 4, "bipartite": True}
    assert graph_core.graph_metrics(petersen) == {"diameter": 2, "girth": 5,
                                                  "bipartite": False}


def test_metrics_match_oracles(rand3_50, lift20, c6_x_k4):
    for g in (rand3_50, lift20, c6_x_k4):
        adj = oracles.adjacency_dict(g)
        m = graph_core.graph_metrics(g)
        assert m["diameter"] == oracles.diameter_dict(adj)
        assert m["girth"] == oracles.girth_edge_removal(adj)


def test_distance_profile_k4(k4):
    prof = graph_core.distance_profile(k4, 0, 0.0)
    # distances {0,1,1,1} all differ from log_2 4 = 2, so every vertex exceeds
    assert prof.histogram.tolist() == [1, 3]
    assert prof.exceedance == 4
    assert prof.n == 4
    assert prof.median == 1


def test_distance_profile_full_window(test_graphs):
    for g in test_graphs.values():
        prof = graph_core.distance_profile(g, 0, float(g.n))
        assert prof.exceedance == 0
        assert prof.histogram.sum() == g.n


def test_histogram_growth_bound(test_graphs):
    # sphere sizes in a d-regular graph: hist[l] <= d (d-1)^(l-1)
    for g in test_graphs.values():
        prof = graph_core.distance_profile(g, 0, 0.0)
        for level, count in enumerate(prof.histogram):
            if level == 0:
                assert count == 1
            else:
                assert count <= g.d * (g.d - 1) ** (level - 1)


def test_diameter_volume_lower_bound(test_graphs):
    for g in test_graphs.values():
        lb = graph_core.diameter_volume_lower_bound(g.n, g.d)
        assert graph_core.graph_metrics(g)["diameter"] >= lb


def test_bipartition_crosses_every_edge(k33, lps13):
    for g in (k33, lps13):
        side = g.bipartition
        tails = np.repeat(np.arange(g.n), g.d)
        assert np.all(side[tails] != side[g.indices])


def test_rejects_irregular():
    with pytest.raises(IrregularGraph):
        graph_core.from_edges(4, 3, [(0, 1), (0, 2), (0, 3), (1, 2)])


def test_rejects_self_loop():
    adj = [[0, 1, 2], [0, 2, 3], [0, 1, 3], [1, 2, 0]]
    with pytest.raises(SelfLoop):
        graph_core.from_adjacency(adj, 3)


def test_rejects_parallel_edge():
    adj = [[1, 1, 2], [0, 0, 2], [0, 1, 3], [2, 0, 1]]
    with pytest.raises(NonSimple):
        graph_core.from_adjacency(adj, 3)


def test_rejects_asymmetric():
    adj = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 1]]
    with pytest.raises((Asymmetric, NonSimple)):
        graph_core.from_adjacency(adj, 3)


def test_asymmetric_rows_name_the_edge():
    # 4 lists 2 but 2 does not list 4; validate_and_index re-checks a graph
    # made without from_adjacency
    rows = [[1, 2, 3], [0, 2, 4], [0, 1, 3], [0, 2, 4], [1, 2, 3]]
    with pytest.raises(Asymmetric, match=r"edge \(4, 2\)"):
        graph_core.from_adjacency(rows, 3)
    graph = graph_core.RegularGraph(n=5, d=3, indices=np.array(rows, np.int32).ravel())
    with pytest.raises(Asymmetric, match=r"edge \(4, 2\)"):
        graph_core.validate_and_index(graph)


@pytest.mark.parametrize("n, d, edges", [(3, 2, [(0, 1), (0, 2), (1, 2)]), (2, 1, [(0, 1)])])
def test_rejects_degree_below_three(n, d, edges):
    with pytest.raises(DegreeTooSmall):
        graph_core.from_edges(n, d, edges)


def test_rejects_disconnected():
    # two disjoint copies of K4
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges]
    with pytest.raises(Disconnected):
        graph_core.from_edges(8, 3, edges)


def test_graph_immutable(k4):
    with pytest.raises(ValueError):
        k4.indices[0] = 5
