"""Exact walk-distribution evolution and mixing measurements.

Distributions are dense arrays over the kernel's states: the vertices for
``srw*``, the arcs for ``nbrw*``, where arc e = d*tail + rank lies on its
tail's side of a bipartition. The generator ``evolve`` advances a batch of
them, one column per start. The mixing curve and the all-starts cutoff
profile are thin callers of one max-over-starts pass over it, which
measures each law from the uniform law on all states or on one side; the
NBRW projection reads one law from it.
The cutoff profile's predictions come from ``theory``, the home of the
closed forms and of the infinite tree; nothing there imports this module.
"""

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import theory
from .errors import SizeCap, SpaceMismatch, SupportViolation, UsageError
from .graph_core import RegularGraph, adjacency_sparse, validate_and_index

KERNELS = ("srw", "nbrw", "srw_lazy", "nbrw_lazy")

_SUM_TOL = 1e-12

# Byte budget of one (states x block) float64 array in _max_over_starts; a
# step holds a few such arrays at once, in every worker thread, and each
# block keeps one more as reduction scratch.
_BLOCK_BYTES = 1 << 19

# The walk budget, in state-steps. A step costs about 14 ns per state (the
# NBRW mixing curve over 600k edges, the slowest per state, ran 7.4e7
# state-steps/s on a 2-vCPU Xeon VM) plus a fixed 30-50 us, charged as
# _STEP_STATES more states; _WORK_CAP is about a minute of that. Each
# finite p of a mixing curve adds a reduction per step: a fixed 2.4 us plus
# 1-4 ns per state (the most for a fractional p), charged as _P_STATES
# plus a quarter of the states. These figures are for the step and the
# reductions taken one after the other; on two or more CPUs a one-block
# pass of _HELPER_STATES or more states may reduce beside the next step, so
# the budget can be conservative there.
_WORK_CAP = 4 * 10**9
_STEP_STATES = 4096
_P_STATES = 256

# With two or more CPUs, a one-block pass reduces on a helper thread from
# this many states up (a 2 MiB law). Handing a time to the helper costs about
# 40 us, and below this the two threads did not run at once: on a 2-vCPU
# Xeon VM the NBRW curve of a Petersen lift took 1.97x the inline time per
# step at 30 states, 1.15x at 30k and 1.05-1.10x at 150k, where no run used
# more than one CPU at a time. At 300k states 4 of 5 runs used 1.7 CPUs and
# took about 0.65x the inline time. With one CPU the helper only takes turns
# with the step: the walks benchmark's 600k-state mix took 0.641 s with it
# against 0.618 s inline (medians of 4 alternating pairs).
_HELPER_STATES = 1 << 18


def _check_work(states: int, starts: int, t_max: int, p_count: int = 0):
    """SizeCap, with the estimate, if evolving `starts` laws over `states`
    states up to t_max, with `p_count` D_p reductions per step, costs more
    than _WORK_CAP state-steps."""
    work = (states * starts + _STEP_STATES + p_count * (states // 4 + _P_STATES)) * (t_max + 1)
    if work > _WORK_CAP:
        raise SizeCap(f"evolving {starts} start(s) over {states} states to t={t_max} "
                      f"with {p_count} p value(s) costs {work:.3g} state-steps, above "
                      f"the walk budget of {_WORK_CAP:.3g}")


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one
    (Linux), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_laws(x: np.ndarray) -> np.ndarray:
    """Return x if x (or each column of a 2-D x) is a probability law."""
    # written so that NaN fails both checks; min and einsum's column sums
    # make no bool temporary and no strided axis-0 reduction
    if not x.min() >= 0:
        raise ValueError("probability vector has negative or NaN entries")
    sums = np.einsum("i...->...", x)
    if not (abs(sums - 1.0) <= _SUM_TOL).all():
        raise ValueError(f"probability vector sums to {sums!r}, not 1")
    return x


def _per_vertex(graph: RegularGraph, kernel: str) -> int:
    """States per vertex of `kernel`'s state space: 1 for ``srw*``, whose
    states are the vertices, d for ``nbrw*``, whose state e = d*tail + rank
    is an arc. UsageError for a kernel outside KERNELS."""
    if kernel not in KERNELS:
        raise UsageError(f"unknown kernel {kernel!r}, expected one of {', '.join(KERNELS)}")
    return 1 if kernel.startswith("srw") else graph.d


def evolve(graph: RegularGraph, kernel: str, starts):
    """Yield (t, X) for t = 0, 1, ...: column j of X is the law at time t of
    the walk from state starts[j] (a float ``starts`` holds initial laws;
    any dtype but integers or floats is a UsageError).
    Lazy kernels yield the mean of the pure laws at t-1 and t for t >= 1.
    Each step is taken on demand and every array is checked column by
    column; callers must not modify it. A yielded array is never written
    again, here or by a later step, so another thread may read it while
    the next step is computed."""
    size = graph.n * _per_vertex(graph, kernel)
    base, d = kernel.removesuffix("_lazy"), graph.d
    if base == "srw":
        adj = adjacency_sparse(graph)
    else:
        # intp once per walk: np.take would convert the int32 rev, an 8N-byte
        # copy, on every step
        rev = validate_and_index(graph).astype(np.intp)
    starts = np.asarray(starts)
    if starts.dtype.kind == "f":
        if starts.shape[:1] != (size,):
            raise SpaceMismatch(f"{kernel} laws live on {size} states, got {starts.shape}")
        x = np.array(starts).reshape(size, -1)
    elif starts.dtype.kind not in "iu":
        raise UsageError(f"starts must be integer states or float laws, got dtype {starts.dtype}")
    else:
        if not ((starts >= 0) & (starts < size)).all():
            raise UsageError(f"start states must lie in [0, {size}) for {kernel}")
        x = np.zeros((size, starts.size))
        x[starts, np.arange(starts.size)] = 1.0
    prev = None
    for t in itertools.count():
        _check_laws(x)
        yield t, x if prev is None or base == kernel else _check_laws(0.5 * (prev + x))
        # Each state adds its d inflows one at a time in neighbor order (the
        # CSR product sums a row in column order; numpy's .sum(axis=1) would
        # add pairwise for d >= 8), so a column of a batch equals that law
        # stepped alone, to the last bit.
        prev = x
        if base == "srw":
            x = adj @ prev
            x /= d
        else:  # edge (u, v) gets the inflow of u less the mass on (v, u)
            inflow = np.take(prev, rev, axis=0).reshape(graph.n, d, -1)
            into = np.add(inflow[:, 0], inflow[:, 1])
            for j in range(2, d):
                into += inflow[:, j]
            x = np.subtract(into[:, None], inflow, out=inflow)
            x /= d - 1
            x = x.reshape(size, -1)


class _Reference:
    """The uniform law on a boolean support mask over the states, held as
    that support and its one weight 1/count; per law, one difference pass
    gives the TV and one ratio pass D_inf and every D_p. The passes write
    into scratch arrays the caller owns, so a reduction allocates nothing of
    state size."""

    def __init__(self, support: np.ndarray):
        self.weight = 1.0 / int(np.count_nonzero(support))
        self.support = None if support.all() else support
        # a scalar broadcasts to the same bits as the full uniform array
        self.values = self.weight if self.support is None else np.where(support, self.weight, 0.0)
        if self.support is not None:
            # the indices of x[support] and x[~support], in the order a mask takes them
            self.inside = np.flatnonzero(self.support)
            self.outside = np.flatnonzero(~self.support)

    def tv(self, x: np.ndarray, diff: np.ndarray) -> list:
        """TV distance of each row of a 2-D x, through diff, a C-ordered
        array of x's shape; a row is summed as a contiguous 1-D array, so it
        gives the bits of that law on its own."""
        np.subtract(x, self.values, out=diff)
        return [0.5 * float(row.sum()) for row in np.abs(diff, out=diff)]

    def lp(self, x: np.ndarray, p_list, a: np.ndarray, terms: np.ndarray) -> list:
        """L^p(reference) norm of x/ref - 1 for each p in p_list (inf
        allowed), through a and terms, two 1-D arrays at least as long as x."""
        if self.support is not None:
            # mode="clip" takes into `out` unbuffered ("raise" copies it)
            outside = np.take(x, self.outside, out=a[: self.outside.size], mode="clip")
            if outside.max() > 0:
                raise SupportViolation(
                    f"distribution puts mass {outside.max():g} outside the "
                    "reference support")
            x = np.take(x, self.inside, out=a[: self.inside.size], mode="clip")
        a = np.divide(x, self.weight, out=a[: x.size])
        a -= 1.0
        np.abs(a, out=a)
        terms = terms[: a.size]
        return [float(a.max()) if math.isinf(p) else self._mean_power(a, p, terms)
                for p in p_list]

    def _mean_power(self, a: np.ndarray, p: float, terms: np.ndarray) -> float:
        """(sum of weight * a^p)^(1/p), through terms; a ** 1.0 is a to the
        bit, so p = 1 skips the power."""
        if p == 1.0:
            np.multiply(a, self.weight, out=terms)
        else:
            np.power(a, p, out=terms)
            terms *= self.weight
        return float(terms.sum() ** (1.0 / p))


def _max_over_starts(graph: RegularGraph, kernel: str, starts, times, p_list,
                     parity: bool = True) -> tuple:
    """(rows, reference): rows[i] is the max over `starts` of the TV distance
    and of D_p for each p in p_list (inf allowed) at times[i], an increasing
    range or list that is tested for membership, never expanded; distances
    are taken at those times alone. With `parity`, on a bipartite graph and
    a pure kernel, a walk from a state on side q (a vertex's side, or an
    arc's tail's side) is compared at time t with the uniform law on the
    states of side (q + t) % 2 ("parity-alternating"), else with the
    uniform law on all states ("full"). UsageError for an unknown kernel, no
    start, starts that are not integers, or a start outside the states;
    SizeCap before the first step above the walk budget (_check_work, which
    counts the finite p).

    Starts evolve in blocks of at most _BLOCK_BYTES per (states x block)
    array, each on one side of a bipartite graph. With one CPU in the
    affinity mask every block runs on the calling thread, one after the
    other, and no thread starts. With two or more, several blocks run on a
    pool with one worker per CPU (at most one per block), which overlap,
    since the sparse product and numpy's array operations release the GIL.
    One block runs on the calling thread; from _HELPER_STATES states up, one
    helper thread reduces each time t before t_max while the calling thread
    computes step t+1, reading the law that evolve yielded and never writes
    again. The calling thread waits for t's row before it hands over the
    law at t+1, so the helper holds at most one law beyond those evolve
    keeps. Each block reduces into two scratch arrays it allocates once, so
    no thread allocates state-size arrays per time. The max is taken per
    block and then over blocks, so the rows do not depend on the block
    width, the worker count or the helper. An error raised in a block or in
    the helper propagates to the caller."""
    per_vertex = _per_vertex(graph, kernel)
    states = graph.n * per_vertex
    starts = np.asarray(list(starts))
    if not starts.size:
        raise UsageError("need at least one start vertex")
    if starts.dtype.kind not in "iu":
        raise UsageError(f"start states must be integers, got dtype {starts.dtype}")
    outside = starts[(starts < 0) | (starts >= states)]
    if outside.size:
        raise UsageError(f"start {outside[0]} outside [0, {states}) for {kernel}")
    t_max = times[-1]
    _check_work(states, starts.size, t_max, sum(not math.isinf(p) for p in p_list))

    if parity and graph.bipartite and not kernel.endswith("_lazy"):
        sides = np.repeat(graph.bipartition, per_vertex)
        refs = [_Reference(sides == q) for q in (0, 1)]
        side = sides[starts]
    else:
        refs = [_Reference(np.ones(states, bool))]
        side = np.zeros(starts.size, dtype=int)
    width = max(1, _BLOCK_BYTES // (8 * states))
    blocks = [(q, group[i : i + width]) for q in (0, 1) for group in [starts[side == q]]
              for i in range(0, group.size, width)]

    def block_max(block, helper=None) -> list:
        q, block_starts = block
        diff, terms = np.empty((block_starts.size, states)), np.empty(states)

        def reduce(t, x) -> list:
            ref = refs[(q + t) % len(refs)]
            d_p = zip(*(ref.lp(col, p_list, diff[0], terms) for col in x.T)) if p_list else ()
            return [max(column) for column in (ref.tv(x.T, diff), *d_p)]

        rows, pending = [], None
        for t, x in evolve(graph, kernel, block_starts):
            if pending is not None:
                rows.append(pending.result())
                pending = None
            if t in times:
                if helper is None or t == t_max:
                    rows.append(reduce(t, x))
                else:
                    pending = helper.submit(reduce, t, x)
            if t == t_max:
                return rows

    cpus = _cpu_count()
    if cpus == 1 or (len(blocks) == 1 and states < _HELPER_STATES):
        per_block = [block_max(block) for block in blocks]
    else:
        from concurrent import futures

        with futures.ThreadPoolExecutor(min(cpus, len(blocks))) as pool:
            if len(blocks) == 1:
                per_block = [block_max(blocks[0], helper=pool)]
            else:
                per_block = list(pool.map(block_max, blocks))
    rows = np.array([[max(column) for column in zip(*at_t)] for at_t in zip(*per_block)])
    return rows, "parity-alternating" if len(refs) == 2 else "full"


@dataclass(frozen=True)
class MixingCurve:
    """Distances to stationarity at times 0..t_max from a fixed start."""

    kernel: str
    start: int
    times: np.ndarray
    d_tv: np.ndarray
    d_p: dict
    d_inf: np.ndarray
    reference: str


def mixing_curve(graph: RegularGraph, kernel: str, start: int, t_max: int,
                 p_list=(), reference: str = "auto") -> MixingCurve:
    """Distances to stationarity at t = 0..t_max of the walk from one start
    state: the one-start case of _max_over_starts. reference='auto' compares
    a bipartite pure chain with the uniform law on the side the walk
    occupies at t, 'full' with the uniform law on the whole space; a lazy
    kernel averages the pure laws at t-1 and t and always takes 'full'.
    SizeCap as in _max_over_starts."""
    if reference not in ("auto", "full"):
        raise UsageError(f"unknown reference mode {reference!r}")
    if t_max < 0:
        raise UsageError(f"t_max must be >= 0, got {t_max}")
    p_list = [float(p) for p in p_list]
    if not all(p >= 1 for p in p_list):  # NaN fails too
        raise UsageError(f"every p must be in [1, inf], got {p_list}")
    p_list = sorted({p for p in p_list if not math.isinf(p)})
    rows, label = _max_over_starts(graph, kernel, [start], range(t_max + 1),
                                   [math.inf, *p_list], parity=reference == "auto")
    d_tv, d_inf, *d_p = rows.T
    return MixingCurve(kernel=kernel, start=start, times=np.arange(t_max + 1), d_tv=d_tv,
                       d_p=dict(zip(p_list, d_p)), d_inf=d_inf, reference=label)


def empirical_cutoff_profile(graph: RegularGraph, starts, s_grid) -> list:
    """Max-over-starts SRW TV distance at t = round(t_star + s*window) for
    each s, paired with the Gaussian profile prediction and the "reference"
    it is measured from: one _max_over_starts pass over the grid times. The
    graph must already be certified (weakly) Ramanujan by the caller.
    UsageError for no starts, an empty grid, or an s whose t is not finite;
    SizeCap as in _max_over_starts."""
    pred = theory.cutoff_prediction(graph.n, graph.d)
    s_grid = [float(s) for s in s_grid]
    if not s_grid:
        raise UsageError("need at least one s")
    t_of_s = {}
    for s in s_grid:
        t = pred.t_star + s * pred.window
        if not math.isfinite(t):
            raise UsageError(f"s={s} gives t = t_star + s*window = {t}, not a finite time")
        t_of_s[s] = max(0, round(t))
    times = sorted(set(t_of_s.values()))
    rows, label = _max_over_starts(graph, "srw", starts, times, [])
    tv = dict(zip(times, rows[:, 0]))
    return [
        {"s": s, "t": t_of_s[s], "empirical": float(tv[t_of_s[s]]),
         "predicted": theory.profile_value(s, graph.d), "reference": label}
        for s in s_grid
    ]


def default_start_sample(graph: RegularGraph, seed: int = 0,
                         sample_size: int | None = None) -> np.ndarray:
    """Start vertices for max-over-starts measurements: a seeded sample of
    sample_size vertices, sorted; without one, every vertex up to n=2000
    and 16 above. UsageError for a negative seed, whatever n is, and unless
    the sample size lies in [1, n]."""
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    if sample_size is None:
        if graph.n <= 2000:
            return np.arange(graph.n)
        sample_size = 16
    if not 1 <= sample_size <= graph.n:
        raise UsageError(f"sample size {sample_size} outside [1, n={graph.n}]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(graph.n, size=sample_size, replace=False))


# --------------------------------------------------------------------------
# NBRW projection
# --------------------------------------------------------------------------


def nbrw_projected(graph: RegularGraph, x: int, k: int) -> np.ndarray:
    """Law of the head vertex after k-1 NBRW steps from a uniform edge out
    of x (k=0 gives the point mass at x, k=1 the uniform neighbor); SizeCap
    before the first step above the walk budget (_check_work)."""
    if k < 0:
        raise UsageError(f"k must be >= 0, got {k}")
    if not 0 <= x < graph.n:
        raise UsageError(f"start vertex {x} outside [0, {graph.n})")
    _check_work(graph.n * graph.d, 1, k - 1)
    if k == 0:
        point = np.zeros(graph.n)
        point[x] = 1.0
        return point
    out_edges = np.zeros(graph.n * graph.d)
    out_edges[x * graph.d : (x + 1) * graph.d] = 1.0 / graph.d
    laws = evolve(graph, "nbrw", out_edges)
    _, edge = next(itertools.islice(laws, k - 1, None))
    return np.bincount(graph.indices, weights=edge[:, 0], minlength=graph.n)

