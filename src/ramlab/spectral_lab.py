"""Adjacency spectra, Ramanujan certification, and the constructive block
decomposition of the nonbacktracking operator B.

B acts on directed edges by B[(u,v),(x,y)] = 1 iff v = x and u != y. It is
unitarily similar to a block-diagonal matrix: the principal eigenvalue d-1
(plus -(d-1) when bipartite), one upper-triangular 2x2 block per nontrivial
adjacency eigenvalue with diagonal theta, theta' solving
theta^2 - lambda*theta + (d-1) = 0, and runs of -1 and +1 whose multiplicities
are fixed by n and N. The decomposition is built explicitly here from the
adjacency eigenvectors via the edge lift (T_theta f)(x,y) = theta f(y) - f(x)
and the star-space construction for the +-1 eigenvectors.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import _kernels, theory
from .errors import (
    EigenbasisNotOrthonormal,
    GraphIsBipartite,
    NotRamanujan,
    NotReached,
    SizeCap,
    VerificationFailed,
)
from .graph_core import (
    DirectedEdgeSpace,
    RegularGraph,
    adjacency_sparse,
    validate_and_index,
)
from .walk_engine import evolve, l2_squared_uniform

DENSE_CAP_DEFAULT = 4000
RAMANUJAN_TOL = 1e-9
JORDAN_TOL = 1e-9
TRIVIAL_TOL = 1e-8


def adjacency_dense(graph: RegularGraph) -> np.ndarray:
    a = np.zeros((graph.n, graph.n))
    tails = np.repeat(np.arange(graph.n), graph.d)
    a[tails, graph.indices] = 1.0
    return a


# --------------------------------------------------------------------------
# Spectrum reports and certification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted adjacency eigenvalues with Ramanujan certification fields.

    Partial reports hold only bracketing extremes (enough to bound every
    nontrivial eigenvalue) and are marked accordingly.
    """

    n: int
    d: int
    bipartite: bool
    eigenvalues: np.ndarray
    partial: bool
    max_nontrivial_abs: float

    @property
    def trivial(self) -> tuple:
        return (self.d, -self.d) if self.bipartite else (self.d,)

    @property
    def ramanujan_bound(self) -> float:
        return 2 * math.sqrt(self.d - 1)

    @property
    def ramanujan(self) -> bool:
        return self.max_nontrivial_abs <= self.ramanujan_bound + RAMANUJAN_TOL

    @property
    def weak_margin(self) -> float:
        return max(0.0, self.max_nontrivial_abs - self.ramanujan_bound)

    def nontrivial(self) -> np.ndarray:
        """Eigenvalues with one copy of each trivial value removed.
        Requires a full report."""
        if self.partial:
            raise SizeCap("nontrivial list requires a full spectrum")
        eigs = list(self.eigenvalues)
        eigs.pop(int(np.argmin(np.abs(np.array(eigs) - self.d))))
        if self.bipartite:
            eigs.pop(int(np.argmin(np.abs(np.array(eigs) + self.d))))
        return np.array(eigs)

    def exceptional(self, delta_threshold: float) -> np.ndarray:
        nt = self.nontrivial()
        return nt[np.abs(nt) > self.ramanujan_bound + delta_threshold]


def report_from_eigenvalues(eigenvalues, n: int, d: int,
                            bipartite: bool | None = None) -> SpectrumReport:
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    if bipartite is None:
        bipartite = abs(eigs[-1] + d) <= TRIVIAL_TOL
    rep = SpectrumReport(n=n, d=d, bipartite=bool(bipartite), eigenvalues=eigs,
                         partial=False, max_nontrivial_abs=0.0)
    max_abs = float(np.abs(rep.nontrivial()).max()) if n > 1 else 0.0
    return SpectrumReport(n=n, d=d, bipartite=bool(bipartite), eigenvalues=eigs,
                          partial=False, max_nontrivial_abs=max_abs)


def adjacency_spectrum(graph: RegularGraph, dense_cap: int = DENSE_CAP_DEFAULT,
                       full: bool = False) -> SpectrumReport:
    """Full dense symmetric eigensolve up to the cap; above it, only the
    bracketing extreme eigenvalues are computed by Lanczos iteration and the
    report is marked partial. Demanding full above the cap raises SizeCap."""
    if graph.n <= dense_cap:
        eigs = np.linalg.eigvalsh(adjacency_dense(graph))[::-1]
        return report_from_eigenvalues(eigs, graph.n, graph.d, graph.bipartite)
    if full:
        raise SizeCap(f"full spectrum demanded for n={graph.n} > cap={dense_cap}")
    a = adjacency_sparse(graph)
    v0 = np.ones(graph.n)
    top = np.sort(scipy.sparse.linalg.eigsh(a, k=2, which="LA", v0=v0,
                                            return_eigenvectors=False))[::-1]
    bot = np.sort(scipy.sparse.linalg.eigsh(a, k=2, which="SA", v0=v0,
                                            return_eigenvectors=False))
    lam2 = top[1]
    low = bot[1] if graph.bipartite else bot[0]
    max_abs = float(max(abs(lam2), abs(low)))
    eigs = np.sort(np.concatenate([top, bot]))[::-1]
    return SpectrumReport(n=graph.n, d=graph.d, bipartite=graph.bipartite,
                          eigenvalues=eigs, partial=True,
                          max_nontrivial_abs=max_abs)


@dataclass(frozen=True)
class Certificate:
    kind: str  # ramanujan | weakly_ramanujan | weakly_with_exceptions | not_certified
    delta: float = 0.0
    exceptional_count: int = 0
    exceptional_max_abs: float = 0.0

    def certified(self) -> bool:
        return self.kind != "not_certified"


def certify(report: SpectrumReport, delta_threshold: float = 0.1,
            exceptional_budget: int = 0, eps_prime: float = 0.01) -> Certificate:
    """Classify the spectrum. Exceptions beyond the delta threshold are
    tolerated up to the budget provided they stay below d - eps_prime; a
    partial (extreme-bracketed) report supports the first two verdicts."""
    bound = report.ramanujan_bound
    if report.max_nontrivial_abs >= report.d - eps_prime:
        return Certificate(kind="not_certified",
                           delta=report.weak_margin)
    if report.max_nontrivial_abs <= bound + RAMANUJAN_TOL:
        return Certificate(kind="ramanujan")
    if report.weak_margin <= delta_threshold:
        return Certificate(kind="weakly_ramanujan", delta=report.weak_margin)
    if report.partial:
        return Certificate(kind="not_certified", delta=report.weak_margin)
    exceptional = report.exceptional(delta_threshold)
    if 0 < exceptional.size <= exceptional_budget:
        nt = report.nontrivial()
        rest = nt[np.abs(nt) <= bound + delta_threshold]
        rest_margin = max(0.0, float(np.abs(rest).max()) - bound) if rest.size else 0.0
        return Certificate(kind="weakly_with_exceptions", delta=rest_margin,
                           exceptional_count=int(exceptional.size),
                           exceptional_max_abs=float(np.abs(exceptional).max()))
    return Certificate(kind="not_certified", delta=report.weak_margin)


# --------------------------------------------------------------------------
# theta / alpha closed forms
# --------------------------------------------------------------------------


def theta_pair(lam: float, d: int) -> tuple:
    """Both roots of theta^2 - lam*theta + (d-1) = 0, ordered by
    (real, imaginary) part descending."""
    if abs(lam) > d + TRIVIAL_TOL:
        raise ValueError(f"|lambda| must be <= d, got {lam}")
    disc = complex(lam / 2) ** 2 - (d - 1)
    root = cmath.sqrt(disc)
    a, b = lam / 2 + root, lam / 2 - root
    if (a.real, a.imag) >= (b.real, b.imag):
        return a, b
    return b, a


def alpha_exact(lam: float, d: int) -> float:
    """Modulus of the off-diagonal block entry: 0 at lambda = -d, d-2 inside
    the Ramanujan interval, sqrt(d^2 - lambda^2) between 2 sqrt(d-1) and d."""
    if abs(lam) > d + TRIVIAL_TOL or abs(lam - d) <= TRIVIAL_TOL:
        raise ValueError(f"lambda must satisfy |lambda| <= d, lambda != d; got {lam}")
    if abs(lam + d) <= TRIVIAL_TOL:
        return 0.0
    if abs(lam) <= 2 * math.sqrt(d - 1) + JORDAN_TOL:
        return float(d - 2)
    return math.sqrt(d * d - lam * lam)


# --------------------------------------------------------------------------
# The nonbacktracking operator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BOperator:
    """Matrix-free handle on B with optional dense materialization."""

    graph: RegularGraph
    edge_space: DirectedEdgeSpace
    dense_cap: int = DENSE_CAP_DEFAULT

    def apply(self, vec: np.ndarray) -> np.ndarray:
        es = self.edge_space
        return _kernels.b_apply(es.head, es.rev, self.graph.d, vec)

    def dense(self) -> np.ndarray:
        es, d = self.edge_space, self.graph.d
        if es.N > self.dense_cap:
            raise SizeCap(f"dense B demanded for N={es.N} > cap={self.dense_cap}")
        mat = np.zeros((es.N, es.N))
        rows = np.arange(es.N)
        for j in range(d):
            mat[rows, es.head * d + j] = 1.0
        mat[rows, es.rev] = 0.0
        return mat


def build_B(graph: RegularGraph, edge_space: DirectedEdgeSpace | None = None,
            dense_cap: int = DENSE_CAP_DEFAULT) -> BOperator:
    if edge_space is None:
        edge_space = validate_and_index(graph)
    return BOperator(graph=graph, edge_space=edge_space, dense_cap=dense_cap)


# --------------------------------------------------------------------------
# The constructive block decomposition B = U Lambda U*
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One 2x2 upper-triangular block of Lambda (columns col, col+1 of U)."""

    lam: float
    theta: complex
    theta_prime: complex
    alpha: complex
    jordan: bool
    col: int


@dataclass(frozen=True)
class BlockDecomposition:
    n: int
    d: int
    N: int
    bipartite: bool
    U: np.ndarray
    blocks: list
    minus_one_multiplicity: int
    plus_one_multiplicity: int
    metadata: dict = field(default_factory=dict)

    def eigenvalue_multiset(self) -> np.ndarray:
        """Predicted spectrum of B with multiplicity: the diagonal of Lambda."""
        eigs = [complex(self.d - 1)]
        if self.bipartite:
            eigs.append(complex(-(self.d - 1)))
        for b in self.blocks:
            eigs.extend((b.theta, b.theta_prime))
        eigs.extend([complex(-1.0)] * self.minus_one_multiplicity)
        eigs.extend([complex(1.0)] * self.plus_one_multiplicity)
        return np.array(eigs)


def _star_complement(edge_space: DirectedEdgeSpace, n: int, sign: int) -> np.ndarray:
    """Orthonormal basis of the -sign eigenspace of B: edge functions with
    f(rev e) = sign f(e) orthogonal to the star vectors 1_{tail x} + sign
    1_{head x}. In the half-edge basis (delta_rep + sign delta_rev)/sqrt(2)
    the stars are the columns of `coords`; the columns of a pivoted QR's Q
    past the numerical rank (scipy.linalg.null_space's threshold) span their
    complement."""
    reps = np.flatnonzero(np.arange(edge_space.N) < edge_space.rev)
    rows = np.arange(reps.size)
    coords = np.zeros((reps.size, n))
    coords[rows, edge_space.tail[reps].astype(np.int64)] += math.sqrt(2)
    coords[rows, edge_space.head[reps].astype(np.int64)] += sign * math.sqrt(2)
    q, r, _ = scipy.linalg.qr(coords, pivoting=True)
    r_diag = np.abs(np.diag(r))
    rank = int((r_diag > max(coords.shape) * np.finfo(float).eps * r_diag[0]).sum())
    z = q[:, rank:] / math.sqrt(2)
    cols = np.zeros((edge_space.N, z.shape[1]))
    cols[reps] = z
    cols[edge_space.rev[reps]] = sign * z
    return cols


def build_decomposition(graph: RegularGraph,
                        edge_space: DirectedEdgeSpace | None = None,
                        dense_cap: int = DENSE_CAP_DEFAULT) -> BlockDecomposition:
    """Explicit unitary U and block data such that B = U Lambda U*.

    Columns: the principal constant vector (and its signed analogue when
    bipartite), then per nontrivial adjacency eigenpair (lambda, f) the pair
    w = T_theta f normalized and w'' obtained by orthonormalizing
    T_theta' f against w (T_{1+theta} f at the threshold, where the block is
    a Jordan cell), then orthonormal bases of the +-1 eigenspaces obtained by
    projecting the star vectors out of the (anti)symmetric half-edge spaces.
    """
    n, d = graph.n, graph.d
    N = n * d
    if N > dense_cap:
        raise SizeCap(f"decomposition demanded for N={N} > cap={dense_cap}")
    if edge_space is None:
        edge_space = validate_and_index(graph)
    head = edge_space.head.astype(np.int64)
    tail = edge_space.tail.astype(np.int64)

    eigs, vecs = np.linalg.eigh(adjacency_dense(graph))
    order = np.argsort(eigs)[::-1]
    eigs, vecs = eigs[order], vecs[:, order]
    ortho = np.abs(vecs.T @ vecs - np.eye(n)).max()
    if ortho > 1e-10:
        raise EigenbasisNotOrthonormal(f"adjacency eigenbasis residual {ortho:g}")

    trivial = {0}
    if graph.bipartite:
        if abs(eigs[-1] + d) > TRIVIAL_TOL:
            raise EigenbasisNotOrthonormal("bipartite graph lacks eigenvalue -d")
        trivial.add(n - 1)

    U = np.zeros((N, N), dtype=complex)
    U[:, 0] = 1.0 / math.sqrt(N)
    col = 1
    if graph.bipartite:
        signs = np.where(graph.bipartition[tail] == 0, 1.0, -1.0)
        U[:, 1] = signs / math.sqrt(N)
        col = 2

    threshold = 2 * math.sqrt(d - 1)
    blocks = []
    for i in range(n):
        if i in trivial:
            continue
        lam = float(eigs[i])
        f = vecs[:, i]
        fh, ft = f[head], f[tail]
        if abs(abs(lam) - threshold) <= JORDAN_TOL:
            th = lam / 2.0
            w_raw = th * fh - ft
            wp_raw = (1.0 + th) * fh - ft
            nw = float(np.linalg.norm(w_raw))
            npp = float(np.linalg.norm(wp_raw))
            w = w_raw / nw
            wp = wp_raw / npp
            beta = float(w @ wp)
            denom = math.sqrt(1.0 - beta * beta)
            w2 = (wp - beta * w) / denom
            alpha = (nw / npp) / denom
            blocks.append(Block(lam=lam, theta=complex(th), theta_prime=complex(th),
                                alpha=complex(alpha), jordan=True, col=col))
        else:
            th, thp = theta_pair(lam, d)
            w_raw = th * fh - ft
            wp_raw = thp * fh - ft
            w = w_raw / np.linalg.norm(w_raw)
            wp = wp_raw / np.linalg.norm(wp_raw)
            beta = complex(np.vdot(w, wp))
            denom = math.sqrt(max(1.0 - abs(beta) ** 2, 0.0))
            w2 = (wp - beta * w) / denom
            alpha = beta * (thp - th) / denom
            blocks.append(Block(lam=lam, theta=th, theta_prime=thp,
                                alpha=alpha, jordan=False, col=col))
        U[:, col] = w
        U[:, col + 1] = w2
        col += 2

    plus_cols = _star_complement(edge_space, n, sign=-1)
    minus_cols = _star_complement(edge_space, n, sign=+1)

    m_plus_expected = N // 2 - n + 1
    m_minus_expected = N // 2 - n + 1 if graph.bipartite else N // 2 - n
    if plus_cols.shape[1] != m_plus_expected:
        raise VerificationFailed(
            "star_space", f"+1 eigenspace dim {plus_cols.shape[1]} != {m_plus_expected}")
    if minus_cols.shape[1] != m_minus_expected:
        raise VerificationFailed(
            "star_space", f"-1 eigenspace dim {minus_cols.shape[1]} != {m_minus_expected}")

    U[:, col : col + m_minus_expected] = minus_cols
    col += m_minus_expected
    U[:, col : col + m_plus_expected] = plus_cols
    col += m_plus_expected
    if col != N:
        raise VerificationFailed("dimension", f"assembled {col} columns, expected {N}")

    return BlockDecomposition(
        n=n, d=d, N=N, bipartite=graph.bipartite, U=U, blocks=blocks,
        minus_one_multiplicity=m_minus_expected,
        plus_one_multiplicity=m_plus_expected,
        metadata={"graph": dict(graph.provenance)},
    )


def verify_decomposition(b_dense: np.ndarray, dec: BlockDecomposition,
                         tol_recon: float = 1e-8, tol_unitary: float = 1e-10,
                         tol_bass: float = 1e-6, tol_alpha: float = 1e-8,
                         tol_opnorm: float = 1e-8,
                         raise_on_fail: bool = False) -> dict:
    """Residual report: bounds on every entry of |B - U Lambda U*| and on
    | ||B|| - (d-1) |, unitarity, the Bass eigenvalue-multiset match, and the
    off-diagonal moduli against their closed form.

    With R = B U - U Lambda, B - U Lambda U* = R U* + B (I - U U*), so every
    entry is at most max_i |R_i| max_j |U_j| + max_i |B_i| ||U*U - I||_F, with
    |X_i| the 2-norm of row i (for square U, ||I - U U*||_2 = ||I - U*U||_2).
    ||B||^2, the top eigenvalue of B B^T, lies between the Rayleigh quotient
    |B^T 1|^2 / N and the largest row sum of |B| |B|^T. B U is sparse and
    U Lambda a column scaling: eigvals(B) and U*U are the only cubic steps."""
    U, N, top = dec.U, dec.N, dec.d - 1
    diag = dec.eigenvalue_multiset()
    gram = U.conj().T @ U
    gram[np.diag_indices(N)] -= 1.0
    unitary = float(np.abs(gram).max())
    gram_err = float(np.linalg.norm(gram))
    del gram

    b_csr = scipy.sparse.csr_array(b_dense)
    resid = b_csr @ U
    resid -= U * diag
    cols = np.array([blk.col for blk in dec.blocks], dtype=np.int64)
    resid[:, cols + 1] -= U[:, cols] * np.array([blk.alpha for blk in dec.blocks])
    b_row = math.sqrt(float(b_csr.power(2).sum(axis=1).max()))
    recon = (float(np.linalg.norm(resid, axis=1).max())
             * float(np.linalg.norm(U, axis=1).max()) + b_row * gram_err)
    del resid

    bass = _multiset_distance(np.linalg.eigvals(b_dense), diag)

    col_sums = b_csr.sum(axis=0)
    low = math.sqrt(float(col_sums @ col_sums) / N)
    b_abs = abs(b_csr)
    high = math.sqrt(float((b_abs @ b_abs.sum(axis=0)).max()))
    opnorm_err = max(abs(high - top), abs(low - top))

    alpha_err = 0.0
    for b in dec.blocks:
        alpha_err = max(alpha_err, abs(abs(b.alpha) - alpha_exact(b.lam, dec.d)))

    report = {
        "reconstruction": recon,
        "unitarity": unitary,
        "bass_multiset": bass,
        "operator_norm": opnorm_err,
        "alpha": alpha_err,
        "ok": (recon <= tol_recon and unitary <= tol_unitary and bass <= tol_bass
               and opnorm_err <= tol_opnorm and alpha_err <= tol_alpha),
    }
    if raise_on_fail and not report["ok"]:
        for key, tol in (("reconstruction", tol_recon), ("unitarity", tol_unitary),
                         ("bass_multiset", tol_bass), ("operator_norm", tol_opnorm),
                         ("alpha", tol_alpha)):
            if report[key] > tol:
                raise VerificationFailed(key, f"residual {report[key]:g} > {tol:g}")
    return report


def _multiset_distance(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Greedy nearest matching of two complex multisets; returns the largest
    matched distance (inf on size mismatch)."""
    if actual.shape != predicted.shape:
        return math.inf
    order_a = np.lexsort((actual.imag, actual.real))
    order_p = np.lexsort((predicted.imag, predicted.real))
    a, p = actual[order_a], predicted[order_p]
    direct = float(np.abs(a - p).max())
    if direct < 1e-8:
        return direct
    used = np.zeros(a.size, dtype=bool)
    worst = 0.0
    for val in p:
        idx = np.flatnonzero(~used)
        j = idx[np.argmin(np.abs(a[idx] - val))]
        used[j] = True
        worst = max(worst, float(abs(a[j] - val)))
    return worst


# --------------------------------------------------------------------------
# gamma, the L^2 bound, and the exact transitive L^2 mixing formula
# --------------------------------------------------------------------------


def gamma(theta: complex, alpha: complex, t: int) -> complex:
    """gamma(t) = alpha * sum_{j<t} theta^j conj(theta)^(t-1-j), in closed
    form: alpha*t*theta^(t-1) for real theta, else the geometric quotient."""
    if t < 1:
        raise ValueError("t must be >= 1")
    theta = complex(theta)
    if theta.imag == 0:
        return alpha * t * theta.real ** (t - 1)
    bar = theta.conjugate()
    return alpha * (bar**t - theta**t) / (bar - theta)


def nbrw_l2_bound(n: int, d: int, t: int) -> dict:
    """Spectral upper bound on the squared edge-space L^2 distance of the
    NBRW on a non-bipartite Ramanujan graph, with the threshold time and the
    limiting constant c(d)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    log_dm1 = math.log(d - 1)
    return {
        "bound": 2.0 * d * n * (d - 1.0) ** (-t) * (4 * (d - 1) * t * t + 1),
        "threshold_time": theory.nbrw_threshold_time(n, d),
        "c_d": 8 * (d - 1) / log_dm1**2 + 1,
    }


def upsilon_l2_transitive(graph: RegularGraph, report: SpectrumReport,
                          eps: float, edge_space: DirectedEdgeSpace | None = None,
                          start_edge: int = 0) -> dict:
    """Exact L^2 mixing-time prediction for the NBRW on a vertex-transitive
    non-bipartite Ramanujan graph, cross-checked against the measured first
    time the squared edge-space L^2 distance drops to eps.

    Upsilon averages U_{k-1}(lambda/(2 sqrt(d-1)))^2 over the n-1 nontrivial
    eigenvalues at the integer index k = ceil(log_{d-1} n), with the
    second-kind convention U_{k-1}(cos x) = sin(kx)/sin(x).
    """
    d, n = graph.d, graph.n
    if graph.bipartite:
        raise GraphIsBipartite("exact L^2 formula requires a non-bipartite graph")
    if not report.ramanujan:
        raise NotRamanujan(f"max nontrivial |lambda| = {report.max_nontrivial_abs:g}")
    k = theory._iceil(math.log(n) / math.log(d - 1))
    ups = upsilon(report, k)
    predicted = theory._iceil(
        (math.log(n) + math.log(ups + 2.0) + math.log(1.0 / eps)) / math.log(d - 1))

    for measured, mu in evolve(graph, "nbrw", [start_edge], edge_space):
        if measured > predicted + 15:
            raise NotReached(predicted + 15)
        if l2_squared_uniform(mu[:, 0], n * d) <= eps:
            break
    return {"k": k, "upsilon": ups, "predicted": predicted, "measured": measured,
            "match": predicted == measured}


def upsilon(report: SpectrumReport, k: int) -> float:
    """Upsilon_G(k) = (d-2)^2/(d-1) * mean over nontrivial eigenvalues of
    U_{k-1}(lambda/(2 sqrt(d-1)))^2."""
    d = report.d
    x = report.nontrivial() / (2 * math.sqrt(d - 1))
    phi = np.arccos(np.clip(x, -1.0, 1.0))
    sin_phi = np.sin(phi)
    # sin(k phi)/sin(phi) -> k cos(phi)^(k-1) as phi -> 0 or pi
    safe = sin_phi > 1e-8
    u = np.empty_like(phi)
    u[safe] = np.sin(k * phi[safe]) / sin_phi[safe]
    u[~safe] = k * np.sign(np.cos(phi[~safe])) ** ((k - 1) % 2)
    return (d - 2) ** 2 / (d - 1) * float(np.mean(u**2))
