"""Kernel checks: graph_core's single-source BFS and all-sources BFS sweep
against brute-force oracles (the tree DP is checked in test_walk_engine.py)."""

import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ramlab import builders, graph_core
from ramlab.builders import LiftSpec
from ramlab.errors import Disconnected

# lift bases: Petersen (girth 5) and Heawood (girth 6, LCF notation [5,-5]^7)
_CUBIC_BASES = {
    "petersen": builders.build_named("petersen"),
    "heawood": graph_core.from_edges(14, 3, [(i, (i + 1) % 14) for i in range(14)]
                                     + [(i, (i + 5) % 14) for i in range(0, 14, 2)]),
}


def _oracle_eccentricities(adj: dict) -> list:
    out = []
    for s in range(len(adj)):
        dist = oracles.bfs_dict(adj, s)
        out.append(max(dist.values()) if len(dist) == len(adj) else -1)
    return out


def _indices(adj: dict) -> np.ndarray:
    return np.array([adj[u] for u in range(len(adj))], dtype=np.int32).ravel()


def _random_regular_adjacency(n: int, d: int, seed: int) -> dict:
    """Simple d-regular graph, possibly disconnected: a circulant scrambled
    by random double-edge swaps (rejection-sampled pairings rarely come out
    simple at d=5)."""
    rng = random.Random(seed)
    edges = sorted({tuple(sorted((i, (i + k) % n)))
                    for i in range(n) for k in range(1, d // 2 + 1)})
    if d % 2:
        edges += [(i, i + n // 2) for i in range(n // 2)]
    present = {frozenset(e) for e in edges}
    for _ in range(10 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, e) = edges[i], edges[j][::rng.choice((1, -1))]
        new = (frozenset((a, c)), frozenset((b, e)))
        if any(len(x) < 2 or x in present for x in new):
            continue
        present -= {frozenset(edges[i]), frozenset(edges[j])}
        present |= set(new)
        edges[i], edges[j] = (a, c), (b, e)
    adj = {u: [] for u in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return {u: sorted(nbrs) for u, nbrs in adj.items()}


@pytest.mark.parametrize("name", ["lift20", "lps13", "two_k4"])
def test_bfs_distances_match_deque_oracle(request, k4, name):
    # two disjoint copies of K4 stand in for a graph: the RegularGraph
    # constructor refuses a disconnected one, and bfs_distances counts the
    # vertices that the oracle leaves at -1
    if name == "two_k4":
        g = SimpleNamespace(n=2 * k4.n, d=k4.d,
                            indices=np.concatenate([k4.indices, k4.indices + k4.n]))
    else:
        g = request.getfixturevalue(name)
    adj = {u: g.indices[u * g.d:(u + 1) * g.d].tolist() for u in range(g.n)}
    for src in sorted({0, g.n // 2 - 1, g.n // 2, g.n - 1}):
        expected = oracles.bfs_array(adj, src)
        if -1 in expected:
            with pytest.raises(Disconnected,
                               match=f"^{expected.count(-1)} vertices unreachable from {src}$"):
                graph_core.bfs_distances(g, src)
        else:
            assert graph_core.bfs_distances(g, src).tolist() == expected


def _check_sweep(adj: dict, d: int, block_words: int):
    with mock.patch.object(graph_core, "_BLOCK_WORDS", block_words):
        ecc, girth = graph_core._eccentricities_and_girth(_indices(adj), d, np.arange(len(adj)))
    assert ecc.tolist() == _oracle_eccentricities(adj)
    assert girth == oracles.girth_edge_removal(adj)


@pytest.mark.parametrize("name", ["petersen", "k33", "rand3_50", "lift20", "c6_x_k4"])
def test_eccentricities_match_oracle(name, request):
    g = request.getfixturevalue(name)
    ecc, _ = graph_core._eccentricities_and_girth(g.indices, g.d, np.arange(g.n))
    assert ecc.tolist() == _oracle_eccentricities(oracles.adjacency_dict(g))


@pytest.mark.parametrize("name", ["petersen", "k33", "rand3_50", "lift20", "c6_x_k4"])
def test_girth_matches_oracle(name, request):
    g = request.getfixturevalue(name)
    _, girth = graph_core._eccentricities_and_girth(g.indices, g.d, np.arange(g.n))
    assert girth == oracles.girth_edge_removal(oracles.adjacency_dict(g))


def _seen_cycle(adj: dict, sources) -> int:
    """The shortest cycle the sweep from ``sources`` reports: a source s
    sees min |C| + 2 dist(s, C) over the cycles C, that is min over w of
    girth_through(w) + 2 dist(s, w); 2n+1 if no source sees a cycle."""
    through = {w: oracles.girth_through(adj, w) for w in adj}
    seen = [length + 2 * dist
            for s in sources for w, dist in oracles.bfs_dict(adj, s).items()
            if (length := through[w]) is not None]
    return min(seen, default=2 * len(adj) + 1)


@given(n=st.sampled_from([63, 64, 65, 127, 128, 129]), d=st.sampled_from([3, 4, 5]),
       block_words=st.sampled_from([1, 2, graph_core._BLOCK_WORDS]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=30, deadline=None)
def test_sweep_from_a_subset_of_sources_matches_oracles(n, d, block_words, seed, data):
    # the sources cross word and block edges in any order; each keeps its
    # own eccentricity, and the girth is the shortest cycle one of them sees
    assume(n * d % 2 == 0)
    adj = _random_regular_adjacency(n, d, seed)
    sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    with mock.patch.object(graph_core, "_BLOCK_WORDS", block_words):
        ecc, girth = graph_core._eccentricities_and_girth(_indices(adj), d, np.array(sources))
    everyone = _oracle_eccentricities(adj)
    assert ecc.tolist() == [everyone[s] for s in sources]
    assert girth == _seen_cycle(adj, sources)


def test_a_source_sees_a_cycle_it_does_not_lie_on(rand3_50):
    # the shortest cycle through vertex 1 has length 6, but a 3-cycle lies
    # one step away, and the sweep from 1 alone reports 3 + 2*1
    adj = oracles.adjacency_dict(rand3_50)
    _, girth = graph_core._eccentricities_and_girth(rand3_50.indices, 3, np.array([1]))
    assert oracles.girth_through(adj, 1) == 6
    assert girth == _seen_cycle(adj, [1]) == 5


@given(n=st.sampled_from([63, 64, 65, 127, 128, 129]), d=st.sampled_from([3, 4, 5]),
       block_words=st.sampled_from([1, 2, graph_core._BLOCK_WORDS]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sweep_matches_oracles_across_word_and_block_edges(n, d, block_words, seed):
    assume(n * d % 2 == 0)
    _check_sweep(_random_regular_adjacency(n, d, seed), d, block_words)


@given(base=st.sampled_from(sorted(_CUBIC_BASES)), k=st.sampled_from([5, 7, 10]),
       block_words=st.sampled_from([1, 2, graph_core._BLOCK_WORDS]),
       seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_sweep_matches_oracles_on_cubic_lifts(base, k, block_words, seed):
    # random graphs this small nearly always have girth 3 or 4; lifts of
    # girth-5 and girth-6 bases reach the deeper odd and even cycle tests
    lift = builders.build_random_lift(LiftSpec(base=_CUBIC_BASES[base], n=k, seed=seed))
    _check_sweep(oracles.adjacency_dict(lift), 3, block_words)


def test_disjoint_petersens_have_no_eccentricity(petersen):
    indices = np.concatenate([petersen.indices, petersen.indices + petersen.n])
    ecc, girth = graph_core._eccentricities_and_girth(indices, petersen.d,
                                                      np.arange(2 * petersen.n))
    assert ecc.tolist() == [-1] * (2 * petersen.n)
    assert girth == 5
