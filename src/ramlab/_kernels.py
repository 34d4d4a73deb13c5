"""Hot numeric kernels: BFS metrics, the nonbacktracking operator, tree DP.

The all-sources sweep ``eccentricities_and_girth`` is numpy only, and so are
the batched walk steps in ``walk_engine``. Every other kernel has a numba
``@njit`` implementation and a vectorized pure-numpy twin;
``_backend.USING_NUMBA`` picks which one the module-level names bind to.
``implementations()`` exposes both for the equivalence tests.

Conventions: a d-regular graph is its flat adjacency array ``indices`` of
length n*d (row u = sorted neighbors of u). Directed edge e has tail e // d,
head ``head[e]`` and reversal ``rev[e]``.
"""

import math

import numpy as np

from ._backend import USING_NUMBA, njit

# --------------------------------------------------------------------------
# BFS distances
# --------------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _bfs_fill(indices, d, src, dist, queue):
    """BFS from src into preallocated dist/queue; returns #vertices reached."""
    n = dist.shape[0]
    for i in range(n):
        dist[i] = -1
    dist[src] = 0
    queue[0] = src
    qhead = 0
    qtail = 1
    while qhead < qtail:
        u = queue[qhead]
        qhead += 1
        du = dist[u]
        base = u * d
        for j in range(d):
            v = indices[base + j]
            if dist[v] < 0:
                dist[v] = du + 1
                queue[qtail] = v
                qtail += 1
    return qtail


@njit(cache=True, nogil=True)
def _bfs_numba(indices, d, src):
    n = indices.shape[0] // d
    dist = np.empty(n, np.int32)
    queue = np.empty(n, np.int32)
    _bfs_fill(indices, d, src, dist, queue)
    return dist


def _bfs_numpy(indices, d, src):
    n = indices.shape[0] // d
    dist = np.full(n, -1, np.int32)
    dist[src] = 0
    frontier = np.array([src], dtype=np.int64)
    offsets = np.arange(d, dtype=np.int64)
    level = 0
    while frontier.size:
        nb = indices[(frontier[:, None] * d + offsets).ravel()]
        nb = np.unique(nb)
        nb = nb[dist[nb] < 0]
        level += 1
        dist[nb] = level
        frontier = nb.astype(np.int64)
    return dist


# --------------------------------------------------------------------------
# All-sources BFS: every eccentricity and the girth in one bit-parallel sweep
# --------------------------------------------------------------------------

# Sources per sweep are at most 64 * _BLOCK_WORDS; each of the sweep's six
# (n, _BLOCK_WORDS) uint64 work arrays takes up to n * 8 * _BLOCK_WORDS bytes.
_BLOCK_WORDS = 64


def _source_bits(words, width):
    """Bit b of word w, as a bool per source 64*w + b < width."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(bool)


def eccentricities_and_girth(indices, d):
    """Per-source eccentricities (-1 for a source that misses a vertex) and
    the girth (2n+1 if acyclic), by multi-source BFS (Then et al., "The More
    the Merrier", PVLDB 2014).

    Vertex v holds the set of sources that have reached it, 64 per uint64
    word, so one level of every BFS in a block is d row gathers plus bitwise
    ops. Until the girth is found the same gathers look for the shortest
    cycle through a source at level L: an edge inside the frontier closes
    one of length 2L+1, and a new vertex reached from two frontier neighbors
    closes one of length 2L+2. Every source on a shortest cycle sees it.
    """
    n = indices.shape[0] // d
    cols = [indices[j::d].astype(np.intp) for j in range(d)]
    ecc = np.empty(n, np.int32)
    best = 2 * n + 1
    words = min(_BLOCK_WORDS, (n + 63) // 64)
    frontier, unseen, reach, twice, gather, tmp = (
        np.empty((n, words), np.uint64) for _ in range(6))
    for start in range(0, n, 64 * words):
        width = min(64 * words, n - start)
        src = np.arange(width)
        frontier.fill(0)
        frontier[start + src, src >> 6] = np.uint64(1) << (src & 63).astype(np.uint64)
        np.invert(frontier, out=unseen)
        last = np.zeros(width, np.int32)
        level = 0
        while True:
            odd, even = 2 * level + 1 < best, 2 * level + 2 < best
            reach.fill(0)
            if even:
                twice.fill(0)
            for col in cols:
                np.take(frontier, col, axis=0, out=gather)
                if odd and np.bitwise_and(frontier, gather, out=tmp).any():
                    best = 2 * level + 1
                    odd = even = False
                if even:
                    twice |= np.bitwise_and(reach, gather, out=tmp)
                reach |= gather
            np.bitwise_and(reach, unseen, out=frontier)
            if even and np.bitwise_and(twice, frontier, out=tmp).any():
                best = 2 * level + 2
            hit = np.bitwise_or.reduce(frontier, axis=0)
            if not hit.any():
                break
            level += 1
            last[_source_bits(hit, width)] = level
            unseen ^= frontier
        missed = _source_bits(np.bitwise_or.reduce(unseen, axis=0), width)
        ecc[start:start + width] = np.where(missed, -1, last)
    return ecc, best


# --------------------------------------------------------------------------
# The nonbacktracking operator B applied to an edge function.
# --------------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _b_apply_numba(head, rev, d, vec):
    N = vec.shape[0]
    n = N // d
    outsum = np.empty(n, np.float64)
    for v in range(n):
        s = 0.0
        base = v * d
        for j in range(d):
            s += vec[base + j]
        outsum[v] = s
    out = np.empty(N, np.float64)
    for e in range(N):
        out[e] = outsum[head[e]] - vec[rev[e]]
    return out


def _b_apply_numpy(head, rev, d, vec):
    outsum = vec.reshape(-1, d).sum(axis=1)
    return outsum[head] - vec[rev]


# --------------------------------------------------------------------------
# Reflected biased walk on the nonnegative integers (distance from the root
# of the infinite d-regular tree): one DP step on the probability row.
# From 0 the walk moves to 1 with probability 1; from k >= 1 it moves up
# with probability (d-1)/d and down with probability 1/d.
# --------------------------------------------------------------------------


@njit(cache=True, nogil=True)
def _tree_step_numba(old, d):
    K = old.shape[0]
    up = (d - 1.0) / d
    down = 1.0 / d
    new = np.zeros(K, np.float64)
    new[0] = down * old[1]
    if K > 2:
        new[1] = old[0] + down * old[2]
    else:
        new[1] = old[0]
    for k in range(2, K - 1):
        new[k] = up * old[k - 1] + down * old[k + 1]
    if K >= 3:
        new[K - 1] = up * old[K - 2]
    return new


def _tree_step_numpy(old, d):
    K = old.shape[0]
    up = (d - 1.0) / d
    down = 1.0 / d
    new = np.zeros(K, np.float64)
    new[0] = down * old[1]
    if K > 2:
        new[1] = old[0] + down * old[2]
        new[2:-1] = up * old[1:-2] + down * old[3:]
        new[-1] = up * old[-2]
    else:
        new[1] = old[0]
    return new


@njit(cache=True, nogil=True)
def _tree_log_step_numba(old, d):
    # log-space twin of _tree_step: the deep return tail sits hundreds of
    # e-folds below the mode, beyond float64's linear dynamic range.
    K = old.shape[0]
    lup = np.log((d - 1.0) / d)
    ldown = np.log(1.0 / d)
    new = np.full(K, -np.inf)
    new[0] = ldown + old[1]
    if K > 2:
        a = old[0]
        b = ldown + old[2]
        new[1] = _logaddexp(a, b)
        for k in range(2, K - 1):
            new[k] = _logaddexp(lup + old[k - 1], ldown + old[k + 1])
        new[K - 1] = lup + old[K - 2]
    else:
        new[1] = old[0]
    return new


@njit(cache=True, nogil=True)
def _logaddexp(a, b):
    if a == -np.inf:
        return b
    if b == -np.inf:
        return a
    if a < b:
        a, b = b, a
    return a + np.log1p(np.exp(b - a))


def _tree_log_step_numpy(old, d):
    K = old.shape[0]
    lup = math.log((d - 1.0) / d)
    ldown = math.log(1.0 / d)
    new = np.full(K, -np.inf)
    new[0] = ldown + old[1]
    if K > 2:
        new[1] = np.logaddexp(old[0], ldown + old[2])
        new[2:-1] = np.logaddexp(lup + old[1:-2], ldown + old[3:])
        new[-1] = lup + old[-2]
    else:
        new[1] = old[0]
    return new


# --------------------------------------------------------------------------
# Backend selection
# --------------------------------------------------------------------------

_NUMBA_IMPLS = {
    "bfs_distances": _bfs_numba,
    "b_apply": _b_apply_numba,
    "tree_step": _tree_step_numba,
    "tree_log_step": _tree_log_step_numba,
}

_NUMPY_IMPLS = {
    "bfs_distances": _bfs_numpy,
    "b_apply": _b_apply_numpy,
    "tree_step": _tree_step_numpy,
    "tree_log_step": _tree_log_step_numpy,
}

_ACTIVE = _NUMBA_IMPLS if USING_NUMBA else _NUMPY_IMPLS

bfs_distances = _ACTIVE["bfs_distances"]
b_apply = _ACTIVE["b_apply"]
tree_step = _ACTIVE["tree_step"]
tree_log_step = _ACTIVE["tree_log_step"]


def implementations():
    """Both kernel sets, keyed by backend name (for the equivalence tests)."""
    out = {"numpy": dict(_NUMPY_IMPLS)}
    from ._backend import NUMBA_AVAILABLE

    if NUMBA_AVAILABLE:
        out["numba"] = dict(_NUMBA_IMPLS)
    return out
