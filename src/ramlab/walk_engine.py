"""Exact walk-distribution evolution and mixing measurements.

Distributions are dense arrays over vertices (SRW) or directed edges (NBRW).
The generator ``evolve`` advances a batch of them, one column per start; the
mixing curve, the all-starts cutoff profile and the NBRW projections are thin
loops over it. The infinite d-regular tree enters through the radial dynamic
program for the reflected biased walk, which supplies exact return
probabilities, L^p norms, and the sphere-mixture identity for the SRW law.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    NotReached,
    ParityOnNonBipartite,
    SpaceMismatch,
    SupportViolation,
)
from .graph_core import (
    DirectedEdgeSpace,
    RegularGraph,
    adjacency_sparse,
    validate_and_index,
)

VERTICES = "vertices"
EDGES = "edges"

KERNELS = ("srw", "nbrw", "srw_lazy", "nbrw_lazy")

_SUM_TOL = 1e-12

# Full-table horizon cap; longer horizons use the streaming helpers below.
TABLE_HORIZON_CAP = 4096

# Byte budget of one (states x block) float64 array in the all-starts cutoff
# profile; a step holds a few such arrays at once.
_BLOCK_BYTES = 4 << 20


def _check_laws(x: np.ndarray) -> np.ndarray:
    """Return x if x (or each column of a 2-D x) is a probability law."""
    # written so that NaN fails both checks
    if not (x >= 0).all():
        raise ValueError("probability vector has negative or NaN entries")
    sums = x.sum(axis=0)
    if not (abs(sums - 1.0) <= _SUM_TOL).all():
        raise ValueError(f"probability vector sums to {sums!r}, not 1")
    return x


@dataclass(frozen=True)
class ProbabilityVector:
    """Exact distribution over vertices or directed edges."""

    space: str
    values: np.ndarray

    def __post_init__(self):
        _check_laws(self.values)

    @property
    def size(self) -> int:
        return self.values.shape[0]


def delta(space: str, size: int, state: int) -> ProbabilityVector:
    values = np.zeros(size)
    values[state] = 1.0
    return ProbabilityVector(space, values)


def stationary(space: str, graph: RegularGraph,
               parity: int | None = None) -> ProbabilityVector:
    """Uniform stationary measure, optionally restricted to a parity class.

    For vertices, parity selects one side of the bipartition; for edges it
    selects the N/2 directed edges originating from that side.
    """
    if space not in (VERTICES, EDGES):
        raise SpaceMismatch(f"unknown space {space!r}")
    if parity is None:
        size = graph.n if space == VERTICES else graph.n * graph.d
        return ProbabilityVector(space, np.full(size, 1.0 / size))
    if not graph.bipartite:
        raise ParityOnNonBipartite("parity restriction requires a bipartite graph")
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    if space == VERTICES:
        mask = graph.bipartition == parity
    else:
        mask = np.repeat(graph.bipartition == parity, graph.d)
    values = np.where(mask, 1.0 / int(mask.sum()), 0.0)
    return ProbabilityVector(space, values)


def step(graph: RegularGraph, edge_space: DirectedEdgeSpace | None,
         kernel: str, dist: ProbabilityVector) -> ProbabilityVector:
    """One application of the SRW kernel P or the NBRW kernel B/(d-1)."""
    if kernel == "srw":
        if dist.space != VERTICES:
            raise SpaceMismatch("SRW acts on vertex distributions")
    elif kernel == "nbrw":
        if dist.space != EDGES:
            raise SpaceMismatch("NBRW acts on directed-edge distributions")
    else:
        raise SpaceMismatch(f"unknown kernel {kernel!r}")
    _, x = next(itertools.islice(evolve(graph, kernel, dist.values, edge_space), 1, None))
    return ProbabilityVector(dist.space, x[:, 0])


def evolve(graph: RegularGraph, kernel: str, starts,
           edge_space: DirectedEdgeSpace | None = None):
    """Yield (t, X) for t = 0, 1, ...: column j of X is the law at time t of
    the walk from state starts[j] (a float ``starts`` holds initial laws).
    Lazy kernels yield the mean of the pure laws at t-1 and t for t >= 1.
    Each step is taken on demand and every array is checked column by
    column; callers must not modify it."""
    if kernel not in KERNELS:
        raise SpaceMismatch(f"unknown kernel {kernel!r}")
    base, d = kernel.removesuffix("_lazy"), graph.d
    if base == "srw":
        size, adj = graph.n, adjacency_sparse(graph)
    else:
        size, rev = graph.n * d, (edge_space or validate_and_index(graph)).rev
    starts = np.asarray(starts)
    if starts.dtype.kind == "f":
        x = np.array(starts).reshape(size, -1)
    else:
        if not ((starts >= 0) & (starts < size)).all():
            raise IndexError(f"start states must lie in [0, {size})")
        x = np.zeros((size, starts.size))
        x[starts, np.arange(starts.size)] = 1.0
    prev = None
    for t in itertools.count():
        _check_laws(x)
        yield t, x if prev is None or base == kernel else _check_laws(0.5 * (prev + x))
        # Each state adds its d inflows one at a time in neighbor order (the
        # CSR product sums a row in column order), so a column of a batch
        # equals that law stepped alone, to the last bit.
        prev = x
        if base == "srw":
            x = (adj @ prev) / d
        else:  # edge (u, v) gets the inflow of u less the mass on (v, u)
            inflow = prev[rev]
            x = inflow[0::d].copy()
            for j in range(1, d):
                x += inflow[j::d]
            x = (np.repeat(x, d, axis=0) - inflow) / (d - 1)


class _Reference:
    """A reference law with its support found once; per law, one difference
    pass gives the TV and one ratio pass D_inf and every D_p."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.support = None if (values > 0).all() else values > 0
        self.weights = values if self.support is None else values[self.support]

    def tv(self, x: np.ndarray) -> list:
        """TV distance of x, or of each row of a 2-D x; a row is summed as a
        contiguous 1-D array, so it gives the bits of that law on its own."""
        diff = np.subtract(np.atleast_2d(x), self.values, order="C")
        return [0.5 * float(row.sum()) for row in np.abs(diff, out=diff)]

    def lp(self, x: np.ndarray, p_list) -> list:
        """L^p(reference) norm of x/ref - 1 for each p in p_list (inf allowed)."""
        if self.support is None:
            ratio = x / self.values
        else:
            outside = x[~self.support]
            if outside.max() > 0:
                raise SupportViolation(
                    f"distribution puts mass {outside.max():g} outside the "
                    "reference support")
            ratio = x[self.support] / self.weights
        ratio -= 1.0
        a = np.abs(ratio, out=ratio)
        return [float(a.max()) if math.isinf(p)
                else float((self.weights * a ** p).sum() ** (1.0 / p)) for p in p_list]


def distance_to_stationarity(dist: ProbabilityVector,
                             reference: ProbabilityVector, p: float) -> float:
    """L^p(reference) norm of dist/reference - 1; p=1 equals twice the TV."""
    if dist.space != reference.space or dist.size != reference.size:
        raise SpaceMismatch("distribution and reference live on different spaces")
    if p < 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    return _Reference(reference.values).lp(dist.values, [p])[0]


def tv_distance(dist: ProbabilityVector, reference: ProbabilityVector) -> float:
    if dist.space != reference.space or dist.size != reference.size:
        raise SpaceMismatch("distribution and reference live on different spaces")
    return _Reference(reference.values).tv(dist.values)[0]


def l2_squared_uniform(values: np.ndarray, support_size: int) -> float:
    """Chi-square expansion under the uniform reference on the support:
    m * sum(values^2) - 1."""
    return support_size * float((values**2).sum()) - 1.0


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
    metadata: dict = field(default_factory=dict)

    def distances(self, p) -> np.ndarray:
        if p == "tv":
            return self.d_tv
        p = float(p)
        if math.isinf(p):
            return self.d_inf
        if p in self.d_p:
            return self.d_p[p]
        raise KeyError(f"p={p} was not requested for this curve")


def mixing_curve(graph: RegularGraph, kernel: str, start: int, t_max: int,
                 p_list=(), edge_space: DirectedEdgeSpace | None = None,
                 reference: str = "auto") -> MixingCurve:
    """Evolve one start state and record all requested distances per time.

    reference='auto' compares bipartite pure chains against the uniform
    measure on the parity class the walk occupies at each time; 'full'
    always compares against the uniform measure on the whole space. Lazy
    kernels average the time-(t-1) and time-t pure distributions (the lazy
    first step) and always use the full reference.
    """
    if reference not in ("auto", "full"):
        raise ValueError(f"unknown reference mode {reference!r}")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    space = VERTICES if kernel.startswith("srw") else EDGES
    if reference == "auto" and graph.bipartite and not kernel.endswith("_lazy"):
        p0 = int(graph.bipartition[start if space == VERTICES else start // graph.d])
        refs = [_Reference(stationary(space, graph, parity=q).values) for q in (p0, 1 - p0)]
    else:
        refs = [_Reference(stationary(space, graph).values)]
    p_list = sorted({float(p) for p in p_list if not math.isinf(float(p))})

    rows = []
    for t, x in evolve(graph, kernel, [start], edge_space):
        ref = refs[t % len(refs)]
        rows.append(ref.tv(x[:, 0]) + ref.lp(x[:, 0], [math.inf, *p_list]))
        if t == t_max:
            break
    d_tv, d_inf, *d_p = np.array(rows).T

    return MixingCurve(
        kernel=kernel, start=start, times=np.arange(t_max + 1), d_tv=d_tv,
        d_p=dict(zip(p_list, d_p)), d_inf=d_inf,
        reference="parity-alternating" if len(refs) == 2 else "full",
        metadata={"graph": dict(graph.provenance), "n": graph.n, "d": graph.d,
                  "p_list": p_list, "t_max": t_max},
    )


def mixing_time(curve: MixingCurve, eps: float, p="tv") -> int:
    """First time the requested distance drops to eps (the first crossing;
    L^p NBRW distances need not be monotone)."""
    values = curve.distances(p)
    hits = np.flatnonzero(values <= eps)
    if hits.size == 0:
        raise NotReached(int(curve.times[-1]))
    return int(curve.times[hits[0]])


def default_start_sample(graph: RegularGraph, seed: int = 0,
                         sample_size: int = 16) -> np.ndarray:
    """Start vertices for max-over-starts measurements: every vertex up to
    n=2000, a seeded sample above; ValueError if the sample size is below 1
    or, where a sample is drawn, above n."""
    if sample_size < 1 or (graph.n > 2000 and sample_size > graph.n):
        raise ValueError(f"sample size {sample_size} outside [1, n={graph.n}]")
    if graph.n <= 2000:
        return np.arange(graph.n)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(graph.n, size=sample_size, replace=False))


# --------------------------------------------------------------------------
# NBRW projection and the sphere-mixture identity for the SRW law
# --------------------------------------------------------------------------


def _uniform_out_edges(graph: RegularGraph, x: int) -> np.ndarray:
    edge = np.zeros(graph.n * graph.d)
    edge[x * graph.d : (x + 1) * graph.d] = 1.0 / graph.d
    return edge


def nbrw_projected(graph: RegularGraph, edge_space: DirectedEdgeSpace,
                   x: int, k: int) -> ProbabilityVector:
    """Law of the head vertex after k-1 NBRW steps from a uniform edge out
    of x (k=0 gives the point mass at x, k=1 the uniform neighbor)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return delta(VERTICES, graph.n, x)
    laws = evolve(graph, "nbrw", _uniform_out_edges(graph, x), edge_space)
    _, edge = next(itertools.islice(laws, k - 1, None))
    values = np.bincount(edge_space.head, weights=edge[:, 0], minlength=graph.n)
    return ProbabilityVector(VERTICES, values)


def srw_mixture_residual(graph: RegularGraph, x: int, t: int,
                         edge_space: DirectedEdgeSpace | None = None) -> float:
    """Sup-norm gap between the t-step SRW law from x and its expansion as a
    mixture of projected NBRW laws weighted by the tree radial distribution.
    The identity is exact; the residual only measures accumulated rounding.
    """
    if edge_space is None:
        edge_space = validate_and_index(graph)
    _, srw = next(itertools.islice(evolve(graph, "srw", [x]), t, None))

    radial = tree_distance_row(graph.d, t)
    mixture = radial[0] * delta(VERTICES, graph.n, x).values
    edges = evolve(graph, "nbrw", _uniform_out_edges(graph, x), edge_space)
    # zip asks range first, so no NBRW step is taken past k = t
    for k, (_, edge) in zip(range(1, t + 1), edges):
        if radial[k] > 0:
            proj = np.bincount(edge_space.head, weights=edge[:, 0], minlength=graph.n)
            mixture = mixture + radial[k] * proj
    return float(np.abs(srw[:, 0] - mixture).max())


# --------------------------------------------------------------------------
# Infinite-tree radial walk (reflected biased walk on the nonnegative
# integers: from 0 up with probability 1, from k >= 1 up with probability
# (d-1)/d and down with probability 1/d)
# --------------------------------------------------------------------------


def sphere_sizes(d: int, k_max: int) -> np.ndarray:
    """Tree sphere sizes: 1, d, d(d-1), ..., d(d-1)^(k-1)."""
    sizes = np.empty(k_max + 1)
    sizes[0] = 1.0
    if k_max >= 1:
        sizes[1:] = d * np.power(float(d - 1), np.arange(k_max))
    return sizes


@dataclass(frozen=True)
class TreeRadialTable:
    """Radial law of SRW on the infinite d-regular tree up to a horizon.

    table[t, k] = probability the walk sits at distance k from the root at
    time t; zero unless k <= t and k = t (mod 2).
    """

    d: int
    horizon: int
    table: np.ndarray

    def row(self, t: int) -> np.ndarray:
        return self.table[t]

    def return_probability(self, t: int) -> float:
        """Q^t(root, root); zero at odd t."""
        return float(self.table[t, 0])

    def lp_norm(self, t: int, p: float) -> float:
        return tree_lp_norm(self.d, self.table[t], p)


def tree_lp_norm(d: int, radial_row: np.ndarray, p: float) -> float:
    """L^p norm of the tree vertex law whose radial distribution is given:
    the law is uniform on each sphere, so the p-th power sums
    sphere^(1-p) * P(k)^p over distances k."""
    if p < 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    sizes = sphere_sizes(d, radial_row.shape[0] - 1)
    if math.isinf(p):
        return float((radial_row / sizes).max())
    mask = radial_row > 0
    terms = sizes[mask] ** (1.0 - p) * radial_row[mask] ** p
    return float(terms.sum() ** (1.0 / p))


def tree_radial(d: int, horizon: int) -> TreeRadialTable:
    """Exact radial DP table for times 0..horizon."""
    if d < 3:
        raise ValueError("tree walk requires d >= 3")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > TABLE_HORIZON_CAP:
        raise ValueError(
            f"full table capped at horizon {TABLE_HORIZON_CAP}; use "
            "tree_distance_row / tree_return_probabilities for long horizons")
    table = np.zeros((horizon + 1, horizon + 1))
    table[0, 0] = 1.0
    row = table[0]
    for t in range(1, horizon + 1):
        row = _kernels.tree_step(row, d)
        table[t] = row
    return TreeRadialTable(d=d, horizon=horizon, table=table)


def tree_distance_row(d: int, t: int) -> np.ndarray:
    """Radial distribution at a single time t (memory O(t))."""
    row = np.zeros(t + 1 if t > 0 else 2)
    row[0] = 1.0
    for _ in range(t):
        row = _kernels.tree_step(row, d)
    return row[: t + 1]


def tree_return_probabilities(d: int, t_max: int) -> np.ndarray:
    """Q^t(root, root) for t = 0..t_max without storing the full table."""
    row = np.zeros(t_max + 1 if t_max > 0 else 2)
    row[0] = 1.0
    out = np.zeros(t_max + 1)
    out[0] = 1.0
    for t in range(1, t_max + 1):
        row = _kernels.tree_step(row, d)
        out[t] = row[0]
    return out


def tree_log_row(d: int, t: int) -> np.ndarray:
    """log P(|X_t| = k) for k = 0..t via the log-space DP (the deep tail
    sits too many e-folds below the mode for the linear DP to hold it)."""
    row = np.full(t + 1 if t > 0 else 2, -np.inf)
    row[0] = 0.0
    for _ in range(t):
        row = _kernels.tree_log_step(row, d)
    return row[: t + 1]


def tree_return_log_probabilities(d: int, t_max: int) -> np.ndarray:
    """log Q^t(root, root) for t = 0..t_max (-inf at odd t)."""
    row = np.full(t_max + 1 if t_max > 0 else 2, -np.inf)
    row[0] = 0.0
    out = np.full(t_max + 1, -np.inf)
    out[0] = 0.0
    for t in range(1, t_max + 1):
        row = _kernels.tree_log_step(row, d)
        out[t] = row[0]
    return out


# --------------------------------------------------------------------------
# Cutoff profile measurement
# --------------------------------------------------------------------------


def empirical_cutoff_profile(graph: RegularGraph, starts, s_grid) -> list:
    """Max-over-starts TV distance at t = round(t_star + s*window) for each
    s, paired with the Gaussian profile prediction. The graph must already
    be certified (weakly) Ramanujan by the caller. Starts evolve together
    in blocks of at most _BLOCK_BYTES per (n x block) array."""
    from . import theory

    starts = list(starts)
    if not starts:
        raise ValueError("need at least one start vertex")
    pred = theory.cutoff_prediction(graph.n, graph.d)
    s_grid = [float(s) for s in s_grid]
    t_of_s = {s: max(0, round(pred.t_star + s * pred.window)) for s in s_grid}
    t_max = max(t_of_s.values())

    best = dict.fromkeys(t_of_s.values(), 0.0)
    ref = _Reference(stationary(VERTICES, graph).values)
    width = max(1, _BLOCK_BYTES // (8 * graph.n))
    for i in range(0, len(starts), width):
        for t, x in evolve(graph, "srw", starts[i : i + width]):
            if t in best:
                best[t] = max(best[t], *ref.tv(x.T))
            if t == t_max:
                break

    return [
        {"s": s, "t": t_of_s[s], "empirical": best[t_of_s[s]],
         "predicted": theory.profile_value(s, graph.d)}
        for s in s_grid
    ]
