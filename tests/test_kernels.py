"""Kernel checks: the all-sources BFS sweep against brute-force oracles, and
backend equivalence of every numba kernel with its numpy twin (the walk
steps are numpy only and are checked in test_walk_engine.py)."""

import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ramlab import _kernels, builders, graph_core
from ramlab._backend import NUMBA_AVAILABLE
from ramlab.builders import LiftSpec

needs_numba = pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")

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


def _check_sweep(adj: dict, d: int, block_words: int):
    with mock.patch.object(_kernels, "_BLOCK_WORDS", block_words):
        ecc, girth = _kernels.eccentricities_and_girth(_indices(adj), d)
    assert ecc.tolist() == _oracle_eccentricities(adj)
    assert girth == oracles.girth_edge_removal(adj)


@pytest.mark.parametrize("name", ["petersen", "k33", "rand3_50", "lift20", "c6_x_k4"])
def test_eccentricities_match_oracle(name, request):
    g = request.getfixturevalue(name)
    ecc, _ = _kernels.eccentricities_and_girth(g.indices, g.d)
    assert ecc.tolist() == _oracle_eccentricities(oracles.adjacency_dict(g))


@pytest.mark.parametrize("name", ["petersen", "k33", "rand3_50", "lift20", "c6_x_k4"])
def test_girth_matches_oracle(name, request):
    g = request.getfixturevalue(name)
    _, girth = _kernels.eccentricities_and_girth(g.indices, g.d)
    assert girth == oracles.girth_edge_removal(oracles.adjacency_dict(g))


@given(n=st.sampled_from([63, 64, 65, 127, 128, 129]), d=st.sampled_from([3, 4, 5]),
       block_words=st.sampled_from([1, 2, _kernels._BLOCK_WORDS]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sweep_matches_oracles_across_word_and_block_edges(n, d, block_words, seed):
    assume(n * d % 2 == 0)
    _check_sweep(_random_regular_adjacency(n, d, seed), d, block_words)


@given(base=st.sampled_from(sorted(_CUBIC_BASES)), k=st.sampled_from([5, 7, 10]),
       block_words=st.sampled_from([1, 2, _kernels._BLOCK_WORDS]),
       seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_sweep_matches_oracles_on_cubic_lifts(base, k, block_words, seed):
    # random graphs this small nearly always have girth 3 or 4; lifts of
    # girth-5 and girth-6 bases reach the deeper odd and even cycle tests
    lift = builders.build_random_lift(LiftSpec(base=_CUBIC_BASES[base], n=k, seed=seed))
    _check_sweep(oracles.adjacency_dict(lift), 3, block_words)


def test_disjoint_petersens_have_no_eccentricity(petersen):
    indices = np.concatenate([petersen.indices, petersen.indices + petersen.n])
    ecc, girth = _kernels.eccentricities_and_girth(indices, petersen.d)
    assert ecc.tolist() == [-1] * (2 * petersen.n)
    assert girth == 5


@pytest.fixture(scope="module")
def impls():
    return _kernels.implementations()


@pytest.fixture(scope="module")
def graphs(petersen, rand3_50, lift20, k33):
    return [petersen, rand3_50, lift20, k33]


@needs_numba
def test_bfs_equivalence(impls, graphs):
    for g in graphs:
        for src in (0, g.n - 1):
            a = impls["numba"]["bfs_distances"](g.indices, g.d, src)
            b = impls["numpy"]["bfs_distances"](g.indices, g.d, src)
            assert np.array_equal(a, b)


@needs_numba
def test_b_apply_equivalence(impls, graphs):
    rng = np.random.default_rng(0)
    for g in graphs:
        es = graph_core.validate_and_index(g)
        e = rng.random(es.N)
        e /= e.sum()
        a = impls["numba"]["b_apply"](es.head, es.rev, g.d, e)
        b = impls["numpy"]["b_apply"](es.head, es.rev, g.d, e)
        assert np.abs(a - b).max() < 1e-14


@needs_numba
def test_tree_step_equivalence(impls):
    for d in (3, 6):
        row = np.zeros(64)
        row[0] = 1.0
        row_np = row.copy()
        for _ in range(60):
            row = impls["numba"]["tree_step"](row, d)
            row_np = impls["numpy"]["tree_step"](row_np, d)
        assert np.abs(row - row_np).max() < 1e-16
        lrow = np.full(64, -np.inf)
        lrow[0] = 0.0
        lrow_np = lrow.copy()
        for _ in range(60):
            lrow = impls["numba"]["tree_log_step"](lrow, d)
            lrow_np = impls["numpy"]["tree_log_step"](lrow_np, d)
        mask = np.isfinite(lrow_np)
        assert np.array_equal(np.isfinite(lrow), mask)
        assert np.abs(lrow[mask] - lrow_np[mask]).max() < 1e-12


@needs_numba
def test_env_flag_forces_numpy_backend():
    code = (
        "import os; os.environ['RAMLAB_PURE_NUMPY'] = '1'; "
        "import ramlab; assert ramlab.backend_name() == 'numpy', ramlab.backend_name(); "
        "from ramlab import builders, graph_core; "
        "g = builders.build_named('petersen'); "
        "m = graph_core.graph_metrics(g); "
        "assert m == {'diameter': 2, 'girth': 5, 'bipartite': False}, m; "
        "print('numpy backend ok')"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "numpy backend ok" in out.stdout
