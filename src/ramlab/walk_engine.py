"""Exact walk-distribution evolution and mixing measurements.

Distributions are dense vectors over vertices (SRW) or directed edges
(NBRW), evolved matrix-free from the compressed adjacency. The infinite
d-regular tree enters through the radial dynamic program for the reflected
biased walk, which supplies exact return probabilities, L^p norms, and the
sphere-mixture identity for the SRW law.
"""

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
from .graph_core import DirectedEdgeSpace, RegularGraph, validate_and_index

VERTICES = "vertices"
EDGES = "edges"

KERNELS = ("srw", "nbrw", "srw_lazy", "nbrw_lazy")

_SUM_TOL = 1e-12

# Full-table horizon cap; longer horizons use the streaming helpers below.
TABLE_HORIZON_CAP = 4096


@dataclass(frozen=True)
class ProbabilityVector:
    """Exact distribution over vertices or directed edges."""

    space: str
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        # written so that NaN fails both checks
        if not (v >= 0).all():
            raise ValueError("probability vector has negative or NaN entries")
        if not abs(float(v.sum()) - 1.0) <= _SUM_TOL:
            raise ValueError(f"probability vector sums to {v.sum()!r}, not 1")

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
        out = _kernels.srw_step(graph.indices, graph.d, dist.values)
    elif kernel == "nbrw":
        if dist.space != EDGES:
            raise SpaceMismatch("NBRW acts on directed-edge distributions")
        if edge_space is None:
            edge_space = validate_and_index(graph)
        out = _kernels.nbrw_step(edge_space.head, edge_space.rev, graph.d, dist.values)
    else:
        raise SpaceMismatch(f"unknown kernel {kernel!r}")
    return ProbabilityVector(dist.space, out)


def distance_to_stationarity(dist: ProbabilityVector,
                             reference: ProbabilityVector, p: float) -> float:
    """L^p(reference) norm of dist/reference - 1; p=1 equals twice the TV."""
    if dist.space != reference.space or dist.size != reference.size:
        raise SpaceMismatch("distribution and reference live on different spaces")
    if p < 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    ref = reference.values
    support = ref > 0
    outside = dist.values[~support]
    if outside.size and outside.max() > 0:
        raise SupportViolation(
            f"distribution puts mass {outside.max():g} outside the reference support")
    ratio = dist.values[support] / ref[support] - 1.0
    if math.isinf(p):
        return float(np.abs(ratio).max())
    return float((ref[support] * np.abs(ratio) ** p).sum() ** (1.0 / p))


def tv_distance(dist: ProbabilityVector, reference: ProbabilityVector) -> float:
    if dist.space != reference.space or dist.size != reference.size:
        raise SpaceMismatch("distribution and reference live on different spaces")
    return 0.5 * float(np.abs(dist.values - reference.values).sum())


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


def _start_parity(graph: RegularGraph, kernel: str, start: int) -> int:
    if kernel.startswith("srw"):
        return int(graph.bipartition[start])
    return int(graph.bipartition[start // graph.d])


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
    if kernel not in KERNELS:
        raise SpaceMismatch(f"unknown kernel {kernel!r}")
    if reference not in ("auto", "full"):
        raise ValueError(f"unknown reference mode {reference!r}")
    lazy = kernel.endswith("_lazy")
    base = "srw" if kernel.startswith("srw") else "nbrw"
    space = VERTICES if base == "srw" else EDGES
    size = graph.n if space == VERTICES else graph.n * graph.d
    if base == "nbrw" and edge_space is None:
        edge_space = validate_and_index(graph)

    alternating = reference == "auto" and graph.bipartite and not lazy
    full_ref = stationary(space, graph)
    if alternating:
        p0 = _start_parity(graph, kernel, start)
        refs = (stationary(space, graph, parity=p0),
                stationary(space, graph, parity=1 - p0))

    p_list = sorted({float(p) for p in p_list if not math.isinf(float(p))})
    times = np.arange(t_max + 1)
    d_tv = np.empty(t_max + 1)
    d_inf = np.empty(t_max + 1)
    d_p = {p: np.empty(t_max + 1) for p in p_list}

    cur = delta(space, size, start)
    prev = None
    for t in range(t_max + 1):
        if lazy and t >= 1:
            shown = ProbabilityVector(space, 0.5 * (prev.values + cur.values))
        else:
            shown = cur
        ref = refs[t % 2] if alternating else full_ref
        d_tv[t] = tv_distance(shown, ref)
        d_inf[t] = distance_to_stationarity(shown, ref, math.inf)
        for p in p_list:
            d_p[p][t] = distance_to_stationarity(shown, ref, p)
        if t < t_max:
            prev = cur
            cur = step(graph, edge_space, base, cur)

    return MixingCurve(
        kernel=kernel, start=start, times=times, d_tv=d_tv, d_p=d_p, d_inf=d_inf,
        reference="parity-alternating" if alternating else "full",
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
    n=2000, a seeded sample above."""
    if graph.n <= 2000:
        return np.arange(graph.n)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(graph.n, size=sample_size, replace=False))


# --------------------------------------------------------------------------
# NBRW projection and the sphere-mixture identity for the SRW law
# --------------------------------------------------------------------------


def nbrw_projected(graph: RegularGraph, edge_space: DirectedEdgeSpace,
                   x: int, k: int) -> ProbabilityVector:
    """Law of the head vertex after k-1 NBRW steps from a uniform edge out
    of x (k=0 gives the point mass at x, k=1 the uniform neighbor)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return delta(VERTICES, graph.n, x)
    edge = np.zeros(edge_space.N)
    edge[x * graph.d : (x + 1) * graph.d] = 1.0 / graph.d
    for _ in range(k - 1):
        edge = _kernels.nbrw_step(edge_space.head, edge_space.rev, graph.d, edge)
    values = np.bincount(edge_space.head, weights=edge, minlength=graph.n)
    return ProbabilityVector(VERTICES, values)


def srw_mixture_residual(graph: RegularGraph, x: int, t: int,
                         edge_space: DirectedEdgeSpace | None = None) -> float:
    """Sup-norm gap between the t-step SRW law from x and its expansion as a
    mixture of projected NBRW laws weighted by the tree radial distribution.
    The identity is exact; the residual only measures accumulated rounding.
    """
    if edge_space is None:
        edge_space = validate_and_index(graph)
    d = graph.d
    srw = delta(VERTICES, graph.n, x)
    for _ in range(t):
        srw = step(graph, None, "srw", srw)

    radial = tree_distance_row(d, t)
    mixture = radial[0] * delta(VERTICES, graph.n, x).values
    edge = np.zeros(edge_space.N)
    edge[x * d : (x + 1) * d] = 1.0 / d
    for k in range(1, t + 1):
        if radial[k] > 0:
            proj = np.bincount(edge_space.head, weights=edge, minlength=graph.n)
            mixture = mixture + radial[k] * proj
        if k < t:
            edge = _kernels.nbrw_step(edge_space.head, edge_space.rev, d, edge)
    return float(np.abs(srw.values - mixture).max())


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
    be certified (weakly) Ramanujan by the caller."""
    from . import theory

    starts = list(starts)
    if not starts:
        raise ValueError("need at least one start vertex")
    pred = theory.cutoff_prediction(graph.n, graph.d)
    s_grid = [float(s) for s in s_grid]
    t_of_s = {s: max(0, round(pred.t_star + s * pred.window)) for s in s_grid}
    t_need = sorted(set(t_of_s.values()))
    t_max = t_need[-1]

    best = {t: 0.0 for t in t_need}
    ref = stationary(VERTICES, graph)
    for x in starts:
        cur = delta(VERTICES, graph.n, int(x))
        for t in range(t_max + 1):
            if t in best:
                best[t] = max(best[t], tv_distance(cur, ref))
            if t < t_max:
                cur = step(graph, None, "srw", cur)

    return [
        {"s": s, "t": t_of_s[s], "empirical": best[t_of_s[s]],
         "predicted": theory.profile_value(s, graph.d)}
        for s in s_grid
    ]
