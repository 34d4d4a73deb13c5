"""Immutable regular-graph representation and BFS-based metrics.

A graph is made in one of two ways: ``RegularGraph(n, d, indices)`` from
n*d integers, its n neighbour rows one after another, each in any order, or
``from_edges(n, d, edges)`` from an undirected edge list. Either way it is
checked once, when it is made, and carries its edge reversal ``rev``, its
two-colouring ``bipartition``, the orbit table ``orbits`` of its free cyclic
``translation`` when it was given one, and, when it was given any
automorphism, the smallest vertex of each orbit of the group they generate,
``representatives``.
``graph_metrics`` sweeps BFS from those representatives only: an
automorphism preserves distances and maps cycles onto cycles, so one source
per orbit gives the exact diameter and girth.

A graph is stored in compressed row form: ``indices`` is a flat int32 array
of length n*d whose slice [u*d:(u+1)*d] lists the (sorted) neighbors of u.
Directed edges are indexed e = d*u + rank, where rank is the position of the
head in u's sorted neighbor list; this makes edge ids reproducible across
runs. Instances are immutable after construction and safe to share across
threads.

A build works in int32, one neighbour column at a time. The constructor
range-checks the given integers in their own dtype, casts them once to
int32 (the kept ``indices``) and sorts each row in place; it then counts
each arc's reverse rank into the kept ``rev`` one column of the rows at a
time. Besides the caller's array, its N-size arrays (N = n*d arcs) alive at
once are ``indices``, ``rev``, one int32 column gather and one boolean mask:
about 15 bytes per arc at its peak for d = 3. ``from_edges`` sorts one
int64 key per arc, tail*n + head for both orientations, in place and takes
it mod n as the rows: about 26 bytes per arc at its peak for d = 3, the
constructor's arrays included.
"""

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (
    Asymmetric,
    Disconnected,
    InvariantViolation,
    IrregularGraph,
    NonSimple,
    SelfLoop,
    SizeCap,
    UsageError,
)
from .theory import check_regular

_MAX_ARCS = 2**31 - 1  # arc ids and rev are int32


@dataclass(frozen=True)
class RegularGraph:
    """Connected simple d-regular graph (d >= 3) with n*d <= 2**31 - 1 arcs,
    checked when it is made: ``indices`` must hold n*d integers, the n
    neighbour rows. The first out-of-range neighbor raises, checked in the
    given dtype; the rows are then cast to int32 and sorted in place, and the
    first self-loop, parallel edge, arc without reverse or unreachable vertex
    raises. The reverse ranks are counted one neighbour column at a time, so
    no (N, d) array is made: ``indices``, ``rev``, one column gather and one
    mask are the N-size arrays alive at once.

    ``translation`` and each of ``automorphisms``, when given, are vertex
    permutations that must map neighbour rows onto neighbour rows; each is
    checked once, and InvariantViolation is raised otherwise.
    ``translation`` is a permutation sigma whose cyclic group must act
    freely (every orbit has m = ord(sigma) >= 2 vertices); it is kept as the
    (n/m, m) int32 table orbits[i, k] = sigma^k(r_i), r_i the smallest
    vertex of the i-th orbit and r_0 < r_1 < ... The group that the
    translation and the automorphisms generate need not act freely; its
    orbits are kept as ``representatives``, the smallest vertex of each,
    ascending. ``orbits`` is None without a translation, and
    ``representatives`` is None for a graph given no permutation."""

    n: int
    d: int
    indices: np.ndarray
    provenance: dict = field(default_factory=dict)
    translation: InitVar[np.ndarray | None] = None
    automorphisms: InitVar[tuple] = ()
    # set by the constructor, read-only: the edge reversal (validate_and_index),
    # the int8 two-colouring, None unless the graph is bipartite, the orbit
    # table of the translation, None without one, and the int32 orbit
    # representatives of the group, None without a permutation
    rev: np.ndarray = field(init=False, repr=False)
    bipartition: np.ndarray | None = field(init=False, repr=False)
    orbits: np.ndarray | None = field(init=False, repr=False)
    representatives: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self, translation, automorphisms):
        n, d = self.n, self.d
        _check_size(n, d)
        try:
            flat = np.asarray(self.indices)
        except ValueError:  # numpy refuses a ragged sequence
            raise IrregularGraph(f"indices must hold n*d = {n * d} integers, "
                                 "got a ragged sequence") from None
        if flat.size != n * d or flat.dtype.kind not in "iu":
            raise IrregularGraph(f"indices must hold n*d = {n * d} integers, "
                                 f"got {flat.size} of dtype {flat.dtype}")
        # range first, in the given dtype: the int32 cast below would wrap a
        # wide value such as 2**32 + v back into [0, n)
        bad = np.flatnonzero((flat < 0) | (flat >= n))
        if bad.size:
            raise IrregularGraph(f"vertex {bad[0] // d} lists a neighbor outside [0, {n})")
        indices = flat.astype(np.int32, order="C").ravel()  # a copy: sorted in place
        rows = indices.reshape(n, d)
        rows.sort(axis=1)
        vertex = np.arange(n, dtype=np.int32)[:, None]
        for fault, error, what in (
                (rows == vertex, SelfLoop, "is adjacent to itself"),
                (rows[:, 1:] == rows[:, :-1], NonSimple, "has a parallel edge")):
            bad = np.flatnonzero(fault.any(axis=1))
            if bad.size:
                raise error(f"vertex {bad[0]} {what}")
        indices.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        # rev[e] = d * head + rank, the tail's position in the head's sorted
        # row, counted one neighbour column at a time. Columns j < d - 1
        # count min(rank, d - 1), still the tail's position if the row holds
        # it at all, so indices[rev] is the tail exactly for an arc with a
        # reverse. No overflow: n*d < 2**31 (_check_size).
        rev = np.multiply(rows, d, dtype=np.int32)
        for j in range(d - 1):
            rev += rows[:, j][rows] < vertex
        bad = np.flatnonzero(indices[rev] != vertex)
        if bad.size:
            raise Asymmetric(f"edge ({bad[0] // d}, {indices[bad[0]]}) has no reverse entry")
        rev = rev.ravel()
        parity = (bfs_distances(self, 0) % 2).astype(np.int8)
        bipartition = parity if np.all(parity[rows] != parity[:, None]) else None
        group = [] if translation is None else [_automorphism(rows, translation, "translation")]
        orbits = _orbit_table(group[0]) if group else None
        group += [_automorphism(rows, perm, f"automorphisms[{i}]")
                  for i, perm in enumerate(automorphisms)]
        representatives = _orbit_representatives(group) if group else None
        for name, values in (("rev", rev), ("bipartition", bipartition), ("orbits", orbits),
                             ("representatives", representatives)):
            if values is not None:
                values.setflags(write=False)
            object.__setattr__(self, name, values)

    @property
    def bipartite(self) -> bool:
        return self.bipartition is not None

    def edges(self):
        """Undirected edges as (u, v) with u < v, lexicographically sorted."""
        tails = np.repeat(np.arange(self.n, dtype=np.int64), self.d)
        heads = self.indices.astype(np.int64)
        keep = tails < heads
        return list(zip(tails[keep].tolist(), heads[keep].tolist()))


def adjacency_sparse(graph: RegularGraph):
    """Adjacency matrix as a scipy.sparse CSR matrix, each row's columns in
    neighbor order. scipy is imported here, not with the module, so that a
    run that needs no sparse matrix does not load it."""
    import scipy.sparse

    indptr = np.arange(0, (graph.n + 1) * graph.d, graph.d)
    data = np.ones(graph.n * graph.d)
    return scipy.sparse.csr_matrix((data, graph.indices, indptr),
                                   shape=(graph.n, graph.n))


def from_edges(n: int, d: int, edges, provenance: dict | None = None) -> RegularGraph:
    """Build and validate a RegularGraph from undirected edges, each listed
    once in any order and orientation: (u, v) pairs or an (m, 2) int array."""
    try:
        pairs = np.asarray(edges)
    except ValueError:  # numpy refuses a ragged sequence
        raise IrregularGraph("edges must be (u, v) integer pairs, "
                             "got a ragged sequence") from None
    if pairs.size and not (pairs.ndim == 2 and pairs.shape[1] == 2
                           and pairs.dtype.kind in "iu"):
        raise IrregularGraph(f"edges must be (u, v) integer pairs, got an array of "
                             f"shape {pairs.shape} and dtype {pairs.dtype}")
    pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
    outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if outside.size:
        edge = tuple(pairs[outside[0]].tolist())
        raise IrregularGraph(f"edge {edge} has an endpoint outside [0, {n})")
    _check_size(n, d)
    degree = np.bincount(pairs.ravel(), minlength=n)
    bad = np.flatnonzero(degree != d)
    if bad.size:
        raise IrregularGraph(f"vertex {bad[0]} has degree {degree[bad[0]]}, expected {d}")
    # one int64 key tail*n + head per arc, both orientations (below n**2 <
    # 2**62), sorted in place, so its remainders mod n are the rows, grouped
    # by tail and sorted
    (u, v), m = pairs.T, len(pairs)
    key = np.empty(2 * m, np.int64)
    np.multiply(u, n, out=key[:m])
    key[:m] += v
    np.multiply(v, n, out=key[m:])
    key[m:] += u
    key.sort()
    np.remainder(key, n, out=key)
    return RegularGraph(n=n, d=d, indices=key, provenance=provenance or {})


def _check_size(n: int, d: int):
    """UsageError unless d >= 3 and n > d (theory.check_regular), then
    SizeCap unless the n*d arc ids fit in int32."""
    check_regular(n, d)
    if n * d > _MAX_ARCS:
        raise SizeCap(f"n*d = {n * d} arcs exceed the int32 arc ids' cap of {_MAX_ARCS}")


def _automorphism(rows: np.ndarray, perm, name: str) -> np.ndarray:
    """``perm`` as an intp array, checked to be a vertex permutation that
    maps the sorted neighbour rows ``rows`` onto rows (InvariantViolation
    otherwise)."""
    n = len(rows)
    sigma = np.asarray(perm)
    if not (sigma.shape == (n,) and sigma.dtype.kind in "iu"
            and np.array_equal(np.sort(sigma), np.arange(n))):
        raise InvariantViolation(f"{name} is not a permutation of [0, {n})")
    sigma = sigma.astype(np.intp)
    moved = np.flatnonzero((np.sort(sigma[rows], axis=1) != rows[sigma]).any(axis=1))
    if moved.size:
        raise InvariantViolation(
            f"{name} is not an automorphism: it does not map the neighbours "
            f"of vertex {moved[0]} onto those of its image {sigma[moved[0]]}")
    return sigma


def _orbit_table(sigma: np.ndarray) -> np.ndarray:
    """The orbit table of a checked automorphism sigma whose cyclic group
    must act freely (see RegularGraph)."""
    n = len(sigma)
    # pointer doubling: low[v] = min sigma^i(v) over i < 2^k, ptr = sigma^(2^k)
    low, ptr = np.arange(n), sigma
    for _ in range((n - 1).bit_length()):
        low, ptr = np.minimum(low, low[ptr]), ptr[ptr]
    sizes = np.bincount(low, minlength=n)
    first = np.flatnonzero(sizes)  # the smallest vertex of each orbit
    m = int(sizes[first[0]])
    if m < 2 or (sizes[first] != m).any():
        raise InvariantViolation(
            f"translation does not act freely: its orbits have sizes "
            f"{sorted(set(sizes[first].tolist()))}")
    orbits = np.empty((first.size, m), dtype=np.int32)
    orbits[:, 0] = first
    for k in range(1, m):
        orbits[:, k] = sigma[orbits[:, k - 1]]
    return orbits


def _orbit_representatives(group: list) -> np.ndarray:
    """The smallest vertex of each orbit of the group that the permutations
    in ``group`` generate, ascending: the components of the Schreier graph
    v ~ g(v), found by min-label propagation with pointer jumping. label[v]
    is always a vertex of v's orbit no larger than v, so it only falls, and
    once no edge lowers it every orbit holds its smallest vertex."""
    n = len(group[0])
    label = np.arange(n)
    while True:
        before = label.copy()
        for g in group:
            np.minimum(label, label[g], out=label)
            label[g] = np.minimum(label[g], label)  # g is one-to-one
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if np.array_equal(label, before):
            return np.flatnonzero(label == np.arange(n)).astype(np.int32)


def validate_and_index(graph: RegularGraph) -> np.ndarray:
    """The edge reversal: read-only int32 rev with rev[e] the id of the
    reverse of directed edge e (tail e // d, head indices[e])."""
    return graph.rev


def bfs_distances(graph: RegularGraph, x: int) -> np.ndarray:
    """Exact shortest-path distances from x, one frontier per level; raises
    Disconnected otherwise."""
    if not 0 <= x < graph.n:
        raise UsageError(f"source {x} outside [0, {graph.n})")
    rows = graph.indices.reshape(-1, graph.d)
    dist = np.full(graph.n, -1, np.int32)
    dist[x] = 0
    frontier = np.array([x])
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
    if (dist < 0).any():
        raise Disconnected(f"{int((dist < 0).sum())} vertices unreachable from {x}")
    return dist


def distance_profile(graph: RegularGraph, x: int, window_radius: float) -> dict:
    """Histogram of the distances from source x, their median, and the
    count ("exceedance") and fraction of the y with |dist(x,y) - log_{d-1} n|
    exceeding the window radius."""
    if not window_radius >= 0:
        raise UsageError(f"window_radius must be >= 0, got {window_radius}")
    dist = bfs_distances(graph, x)
    hist = np.bincount(dist)
    center = math.log(graph.n) / math.log(graph.d - 1)
    exceed = int(np.count_nonzero(np.abs(dist - center) > window_radius))
    cum = np.cumsum(hist)
    median = int(np.searchsorted(cum, (graph.n + 1) // 2))
    return {"source": x, "histogram": hist, "median": median, "window_radius": window_radius,
            "exceedance": exceed, "exceedance_fraction": exceed / graph.n}


def graph_metrics(graph: RegularGraph) -> dict:
    """Exact diameter and girth, both from one bit-parallel BFS sweep (64
    sources per uint64 word) from one source per orbit of the graph's group,
    ``representatives``, or from every vertex of a graph with no group, plus
    the bipartiteness flag. An automorphism preserves distances, so the
    diameter is the largest eccentricity of a representative; every cycle is
    the image of a cycle through a representative, so the girth is the
    shortest cycle a representative sees."""
    sources = np.arange(graph.n) if graph.representatives is None else graph.representatives
    ecc, girth = _eccentricities_and_girth(graph.indices, graph.d, sources)
    if (ecc < 0).any():
        raise Disconnected("graph is not connected")
    return {
        "diameter": int(ecc.max()),
        "girth": int(girth),
        "bipartite": graph.bipartite,
    }


# --------------------------------------------------------------------------
# Multi-source BFS: eccentricities and the girth in one bit-parallel sweep
# --------------------------------------------------------------------------

# Sources per sweep are at most 64 * _BLOCK_WORDS; each of the sweep's six
# (n, _BLOCK_WORDS) uint64 work arrays takes up to n * 8 * _BLOCK_WORDS bytes.
_BLOCK_WORDS = 64


def _source_bits(words, width):
    """Bit b of word w, as a bool per source 64*w + b < width."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(bool)


def _eccentricities_and_girth(indices, d, sources):
    """The eccentricity of each of ``sources`` (-1 for a source that misses
    a vertex) and the length of the shortest cycle they see (2n+1 if none),
    by multi-source BFS (Then et al., "The More the Merrier", PVLDB 2014).

    Vertex v holds the set of sources that have reached it, 64 per uint64
    word, so one level of every BFS in a block is d row gathers plus bitwise
    ops. Until the girth is found the same gathers look for the shortest
    cycle through a source at level L: an edge inside the frontier closes
    one of length 2L+1, and a new vertex reached from two frontier neighbors
    closes one of length 2L+2. A source s sees min |C| + 2 dist(s, C) over
    the cycles C, so every source on a shortest cycle sees it.
    """
    n = indices.shape[0] // d
    cols = [indices[j::d].astype(np.intp) for j in range(d)]
    ecc = np.empty(sources.size, np.int32)
    best = 2 * n + 1
    words = min(_BLOCK_WORDS, (sources.size + 63) // 64)
    frontier, unseen, reach, twice, gather, tmp = (
        np.empty((n, words), np.uint64) for _ in range(6))
    for start in range(0, sources.size, 64 * words):
        width = min(64 * words, sources.size - start)
        src = np.arange(width)
        frontier.fill(0)
        frontier[sources[start:start + width], src >> 6] = (
            np.uint64(1) << (src & 63).astype(np.uint64))
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
