"""Hot numeric kernels, numpy only: BFS distances and the all-sources
sweep for eccentricities and girth.

Conventions: a d-regular graph is its flat adjacency array ``indices`` of
length n*d (row u = sorted neighbors of u).
"""

import numpy as np


def bfs_distances(indices, d, src):
    """Distances from src (-1 where unreachable), one frontier per level."""
    rows = indices.reshape(-1, d)
    dist = np.full(rows.shape[0], -1, np.int32)
    dist[src] = 0
    frontier = np.array([src])
    level = 0
    while frontier.size:
        # sorting, not np.unique's hashing, drops the repeats; the cost
        # follows the frontier, not n, so long thin graphs stay cheap
        nb = rows[frontier].ravel()
        nb = np.sort(nb[dist[nb] < 0])
        level += 1
        dist[nb] = level
        keep = np.ones(nb.size, bool)
        keep[1:] = nb[1:] != nb[:-1]
        frontier = nb[keep]
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
