"""Adjacency spectra, Ramanujan certification, and the constructive block
decomposition of the nonbacktracking operator B.

B acts on directed edges by B[(u,v),(x,y)] = 1 iff v = x and u != y. It is
unitarily similar to Lambda, a diagonal plus a superdiagonal: d-1 (and
-(d-1) when bipartite), one 2x2 block per nontrivial adjacency eigenvalue
lambda, with diagonal theta, theta' solving theta^2 - lambda*theta + (d-1) = 0
and superdiagonal alpha, on columns first + 2i, first + 2i + 1 (first = 1 +
bipartite), then runs of -1 and +1 of lengths fixed by n and N. It is built
here from the adjacency eigenvectors via the edge lift (T_theta f)(x,y) =
theta f(y) - f(x) and the star-space construction for the +-1 eigenvectors.

scipy is imported by the functions that call it: Lanczos, the sparse B,
the decomposition's eigensolve (LAPACK's dsyevd) and its Gram check (BLAS
dsyrk), the star spaces' unpivoted QR (dgeqrf with dormqr), the packed
Hermitian Gram product and the sparse LU. The exact spectrum and every
other path that needs none of them leave it unloaded, which is why the
spectrum's solves stay on numpy's eigvalsh. Besides U (16N^2 bytes) a
dense decomposition holds no N x N array: the eigensolve overwrites the
n x n A in place, the star-space QR works on N/2-row arrays and writes its
basis straight into U's columns, and verification reduces the Gram
triangle of U*U in the packed form LAPACK writes it in, N(N+1)/2 entries
(half of U), with no unpacked copy.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenbasisNotOrthonormal, SizeCap, UsageError, VerificationFailed
from .graph_core import RegularGraph, adjacency_sparse

DENSE_CAP = 4000  # the size rule of adjacency_spectrum and build_decomposition
RAMANUJAN_TOL = 1e-9
JORDAN_TOL = 1e-9
TRIVIAL_TOL = 1e-8
EPS_PRIME = 0.01  # certify: no exception may come this close to d

# Byte budget of one row block of an N-column complex array, and of one
# column chunk of the packed Gram triangle, in verify_decomposition; a
# block step holds a few such arrays at once.
_BLOCK_BYTES = 1 << 22


# --------------------------------------------------------------------------
# Spectrum reports and certification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted adjacency eigenvalues with Ramanujan certification fields.

    ``method`` records how the eigenvalues were found: "dense" (one n x n
    eigensolve), "translation_blocks" (the Fourier blocks of the graph's
    translation) or "ritz_estimate" (Lanczos Ritz values with no error
    bound). A Ritz report is partial: it holds only bracketing extremes,
    enough to bound every nontrivial eigenvalue. ``blocks`` is the (count,
    order) of the Hermitian blocks an exact path solved, None for Ritz.
    """

    n: int
    d: int
    bipartite: bool
    eigenvalues: np.ndarray
    method: str
    max_nontrivial_abs: float
    blocks: tuple | None = None

    @property
    def partial(self) -> bool:
        return self.method == "ritz_estimate"

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
        return _drop_trivial(self.eigenvalues, self.d, self.bipartite)

    def exceptional(self, delta_threshold: float) -> np.ndarray:
        nt = self.nontrivial()
        return nt[np.abs(nt) > self.ramanujan_bound + delta_threshold]


def _drop_trivial(eigs: np.ndarray, d: int, bipartite: bool) -> np.ndarray:
    """eigs less the entry nearest d and, when bipartite, the one nearest -d."""
    eigs = np.delete(eigs, np.argmin(np.abs(eigs - d)))
    return np.delete(eigs, np.argmin(np.abs(eigs + d))) if bipartite else eigs


def report_from_eigenvalues(eigenvalues, n: int, d: int, bipartite: bool,
                            method: str, blocks: tuple | None = None) -> SpectrumReport:
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    max_abs = float(np.abs(_drop_trivial(eigs, d, bipartite)).max()) if n > 1 else 0.0
    return SpectrumReport(n=n, d=d, bipartite=bool(bipartite), eigenvalues=eigs,
                          method=method, max_nontrivial_abs=max_abs, blocks=blocks)


def adjacency_spectrum(graph: RegularGraph) -> SpectrumReport:
    """The adjacency spectrum, by one of two paths.

    - Exact blocks (Babai, JCTB 1979): the graph's translation sigma of
      order m (graph.orbits, an (n/m, m) table; without one, m = 1 and the
      one column np.arange(n)) commutes with A, so with omega = e^{2 pi i/m}
      each f(sigma^k(r_i)) = x_i omega^{jk} maps to omega^{jk} (M_j x)_i,
      where M_j[i, i'] sums omega^{j delta} over the d arcs
      r_i -> sigma^delta(r_i') (delta mod m). The Hermitian n/m x n/m blocks
      M_j carry the whole spectrum, and M_{m-j} = conj(M_j) has M_j's, so
      floor(m/2)+1 solves give it: M_0 (A for m = 1) and M_{m/2} real, the
      rest complex. Taken while (floor(m/2)+1) (n/m)^3 <= DENSE_CAP^3 (for
      m = 1, n <= DENSE_CAP), with method "dense" for m = 1 and
      "translation_blocks" otherwise.
    - ritz_estimate: otherwise; only the bracketing extreme eigenvalues, by
      Lanczos iteration, with the report marked partial. Lanczos starts
      from a seeded random vector: from the Perron vector 1, ARPACK restarts
      from an unseeded one.
    """
    n, d = graph.n, graph.d
    orbits = np.arange(n)[:, None] if graph.orbits is None else graph.orbits
    order, m = orbits.shape
    if (m // 2 + 1) * order**3 > DENSE_CAP**3:
        import scipy.sparse.linalg

        v0 = np.random.default_rng(0).standard_normal(n)
        extremes = [scipy.sparse.linalg.eigsh(adjacency_sparse(graph), k=2, which=which, v0=v0,
                                              return_eigenvectors=False)
                    for which in ("LA", "SA")]
        return report_from_eigenvalues(np.concatenate(extremes), n, d, graph.bipartite,
                                       "ritz_estimate")
    where = np.empty(n, dtype=np.int64)  # sigma^k(r_i) sits at i * m + k
    where[orbits] = np.arange(n).reshape(order, m)
    heads = where[graph.indices.reshape(n, d)[orbits[:, 0]]]
    cell = (np.arange(order)[:, None] * order + heads // m).ravel()
    delta = (heads % m).ravel()
    eigs = []
    for j in range(m // 2 + 1):
        phase = 2 * math.pi / m * (j * delta % m)
        block = np.bincount(cell, np.cos(phase), order * order)
        pair = 0 < 2 * j < m  # M_j and M_{m-j}
        if pair:
            block = block + 1j * np.bincount(cell, np.sin(phase), order * order)
        eigs += [np.linalg.eigvalsh(block.reshape(order, order))] * (1 + pair)
    return report_from_eigenvalues(np.concatenate(eigs), n, d, graph.bipartite,
                                   "dense" if m == 1 else "translation_blocks",
                                   blocks=(m // 2 + 1, order))


@dataclass(frozen=True)
class Certificate:
    kind: str  # ramanujan | weakly_ramanujan | weakly_with_exceptions | not_certified
    delta: float = 0.0
    exceptional_count: int = 0
    exceptional_max_abs: float = 0.0


def certify(report: SpectrumReport, delta_threshold: float = 0.1,
            exceptional_budget: int = 0) -> Certificate:
    """Classify the spectrum. Exceptions beyond the delta threshold are
    tolerated up to the budget provided they stay below d - EPS_PRIME; a
    partial (extreme-bracketed) report supports the first two verdicts.
    UsageError unless the threshold is finite and >= 0 and the budget >= 0."""
    if not (math.isfinite(delta_threshold) and delta_threshold >= 0):
        raise UsageError(f"delta threshold must be finite and >= 0, got {delta_threshold}")
    if not exceptional_budget >= 0:
        raise UsageError(f"exceptional budget must be >= 0, got {exceptional_budget}")
    bound = report.ramanujan_bound
    if report.max_nontrivial_abs >= report.d - EPS_PRIME:
        return Certificate(kind="not_certified",
                           delta=report.weak_margin)
    if report.ramanujan:
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
        raise UsageError(f"|lambda| must be <= d, got {lam}")
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
        raise UsageError(f"lambda must satisfy |lambda| <= d, lambda != d; got {lam}")
    if abs(lam + d) <= TRIVIAL_TOL:
        return 0.0
    if abs(lam) <= 2 * math.sqrt(d - 1) + JORDAN_TOL:
        return float(d - 2)
    return math.sqrt(d * d - lam * lam)


# --------------------------------------------------------------------------
# The nonbacktracking operator
# --------------------------------------------------------------------------


def build_B(graph: RegularGraph):
    """B as a scipy.sparse CSR array: row e holds the out-edges of the head
    of e (its neighbor entry indices[e]) except the reverse of e."""
    import scipy.sparse

    rev, d, N = graph.rev, graph.d, graph.n * graph.d
    cols = graph.indices.astype(np.int64)[:, None] * d + np.arange(d)
    cols = cols[cols != rev[:, None]]
    return scipy.sparse.csr_array(
        (np.ones(cols.size), cols, np.arange(0, cols.size + 1, d - 1)),
        shape=(N, N))


# --------------------------------------------------------------------------
# The constructive block decomposition B = U Lambda U*
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    """B = U Lambda U* with Lambda held as arrays: ``diag``, its diagonal in
    U's column order, and ``lam``, ``alpha``, ``jordan`` with one entry per
    nontrivial adjacency eigenvalue. Block i sits on columns (first + 2i,
    first + 2i + 1), first = 1 + bipartite: theta and theta' on the diagonal
    and alpha[i], Lambda's one off-diagonal entry in row first + 2i.
    jordan[i] marks theta = theta' (|lambda| = 2 sqrt(d-1))."""

    n: int
    d: int
    N: int
    bipartite: bool
    U: np.ndarray
    diag: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    jordan: np.ndarray
    minus_one_multiplicity: int
    plus_one_multiplicity: int


def _lapack(routine, *args, **kwargs):
    """Call a scipy.linalg.lapack routine with the workspace its lwork=-1
    query asks for. Returns the routine's outputs without its work array
    and info."""
    lwork = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    *out, _, info = routine(*args, lwork=lwork, **kwargs)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to {routine.__name__}")
    return out


def _star_complement(graph: RegularGraph, sign: int, out: np.ndarray) -> None:
    """Write an orthonormal basis of the -sign eigenspace of B into the
    columns of `out`, an N-row view of U: edge functions with
    f(rev e) = sign f(e) orthogonal to the star vectors 1_{tail x} + sign
    1_{head x}. In the half-edge basis (delta_rep + sign delta_rev)/sqrt(2)
    the stars are the columns of `coords`; the columns of an unpivoted
    Householder QR's Q past the numerical rank (scipy.linalg.null_space's
    threshold on |diag R|) span their complement, and dormqr forms only
    those columns. No pivoting is needed: the graph is connected, so any
    n - 1 stars are independent and the one possible dependency involves
    every star, which puts the one small diagonal entry of R last.
    VerificationFailed unless the small entries all come last and the
    eigenspace has exactly out.shape[1] dimensions."""
    import scipy.linalg.lapack

    rev = graph.rev
    reps = np.flatnonzero(np.arange(rev.size) < rev)
    rows = np.arange(reps.size)
    coords = np.zeros((reps.size, graph.n), order="F")
    coords[rows, reps // graph.d] += math.sqrt(2)
    coords[rows, graph.indices[reps].astype(np.int64)] += sign * math.sqrt(2)
    qr, tau = _lapack(scipy.linalg.lapack.dgeqrf, coords, overwrite_a=1)
    r_diag = np.abs(np.diag(qr))
    large = r_diag > max(qr.shape) * np.finfo(float).eps * r_diag.max()
    rank = int(large.sum())
    if not large[:rank].all():
        raise VerificationFailed(
            "star_space", f"{-sign:+d} star columns dependent before the last")
    if reps.size - rank != out.shape[1]:
        raise VerificationFailed(
            "star_space", f"{-sign:+d} eigenspace dim {reps.size - rank} != {out.shape[1]}")
    z = np.zeros((reps.size, out.shape[1]), order="F")
    np.fill_diagonal(z[rank:], 1.0)
    (z,) = _lapack(scipy.linalg.lapack.dormqr, "L", "N", qr, tau, z, overwrite_c=1)
    z /= math.sqrt(2)
    out[reps] = z
    if sign < 0:
        np.negative(z, out=z)
    out[rev[reps]] = z


def build_decomposition(graph: RegularGraph) -> BlockDecomposition:
    """Explicit unitary U and Lambda's arrays such that B = U Lambda U*.

    Columns: the principal constant vector (and its signed analogue when
    bipartite), then per nontrivial adjacency eigenpair (lambda, f) the pair
    w = T_theta f normalized and w'' obtained by orthonormalizing
    T_theta' f against w (T_{1+theta} f at the threshold, where the block is
    a Jordan cell), then orthonormal bases of the +-1 eigenspaces obtained by
    projecting the star vectors out of the (anti)symmetric half-edge spaces.
    The adjacency eigenpairs come from LAPACK's divide-and-conquer dsyevd
    (scipy.linalg.eigh, in place on A) and are checked orthonormal by one
    BLAS dsyrk; the star spaces from an unpivoted Householder QR (dgeqrf,
    with dormqr forming only the columns of Q past the rank).
    SizeCap when N > DENSE_CAP.
    """
    import scipy.linalg
    n, d = graph.n, graph.d
    N = n * d
    if N > DENSE_CAP:
        raise SizeCap(f"decomposition demanded for N={N} > cap={DENSE_CAP}")
    head = graph.indices.astype(np.int64)
    tail = np.repeat(np.arange(n, dtype=np.int64), d)

    # the same dsyevd as np.linalg.eigh, but the F-ordered A is overwritten
    # by the eigenvectors with no copy, and the check holds one n x n triangle
    eigs, vecs = scipy.linalg.eigh(adjacency_sparse(graph).toarray(order="F"),
                                   driver="evd", overwrite_a=True)
    gram = scipy.linalg.blas.dsyrk(1.0, vecs, trans=1)  # V^T V above, zeros below
    gram[np.diag_indices(n)] -= 1.0
    ortho = np.abs(gram, out=gram).max()
    del gram
    order = np.argsort(eigs)[::-1]
    eigs, vecs = eigs[order], vecs[:, order]
    if ortho > 1e-10:
        raise EigenbasisNotOrthonormal(f"adjacency eigenbasis residual {ortho:g}")

    trivial = {0}
    if graph.bipartite:
        if abs(eigs[-1] + d) > TRIVIAL_TOL:
            raise EigenbasisNotOrthonormal("bipartite graph lacks eigenvalue -d")
        trivial.add(n - 1)

    U = np.zeros((N, N), dtype=complex)
    diag = np.empty(N, dtype=complex)
    U[:, 0] = 1.0 / math.sqrt(N)
    diag[0] = d - 1
    col = 1
    if graph.bipartite:
        signs = np.where(graph.bipartition[tail] == 0, 1.0, -1.0)
        U[:, 1] = signs / math.sqrt(N)
        diag[1] = -(d - 1)
        col = 2

    threshold = 2 * math.sqrt(d - 1)
    lams, alphas, jordans = [], [], []
    for i in range(n):
        if i in trivial:
            continue
        lam = float(eigs[i])
        f = vecs[:, i]
        fh, ft = f[head], f[tail]
        # B T_s f = theta' T_s f + (s - theta') T_theta f: s = theta' gives an
        # eigenvector, s = 1 + theta the Jordan partner where theta = theta'
        jordan = abs(abs(lam) - threshold) <= JORDAN_TOL
        th, thp = (lam / 2.0, lam / 2.0) if jordan else theta_pair(lam, d)
        gap = 1.0 if jordan else 0.0
        w_raw = th * fh - ft
        v_raw = (thp + gap) * fh - ft
        nw, nv = float(np.linalg.norm(w_raw)), float(np.linalg.norm(v_raw))
        w, v = w_raw / nw, v_raw / nv
        beta = np.vdot(w, v)
        denom = math.sqrt(max(1.0 - abs(beta) ** 2, 0.0))
        w2 = (v - beta * w) / denom
        alpha = (complex(beta) * (thp - th) + gap * nw / nv) / denom
        lams.append(lam)
        alphas.append(alpha)
        jordans.append(jordan)
        U[:, col] = w
        U[:, col + 1] = w2
        diag[col : col + 2] = th, thp
        col += 2

    m_plus_expected = N // 2 - n + 1
    m_minus_expected = N // 2 - n + 1 if graph.bipartite else N // 2 - n
    minus, plus = col, col + m_minus_expected
    col = plus + m_plus_expected
    _star_complement(graph, -1, U[:, plus:col])
    _star_complement(graph, +1, U[:, minus:plus])
    diag[minus:plus] = -1.0
    diag[plus:col] = 1.0
    if col != N:
        raise VerificationFailed("dimension", f"assembled {col} columns, expected {N}")

    return BlockDecomposition(
        n=n, d=d, N=N, bipartite=graph.bipartite, U=U, diag=diag, lam=np.array(lams),
        alpha=np.array(alphas, dtype=complex), jordan=np.array(jordans, dtype=bool),
        minus_one_multiplicity=m_minus_expected,
        plus_one_multiplicity=m_plus_expected,
    )


def bass_points(d: int) -> list:
    """The points u = e^{i phi} / (2(d-1)) at which the Bass check compares
    det(I - uB) with the predicted multiset. The phases are fixed, not
    drawn, so that identical runs write identical reports."""
    return [cmath.rect(1.0 / (2 * (d - 1)), phi) for phi in (0.3, 1.3, 2.3, 3.3)]


def _lu_i_minus_ub(b_csc, u: complex):
    """SuperLU factors of I - uB with the diagonal as pivots. For |u| (d-1)
    < 1, I - uB is strictly diagonally dominant by rows and by columns, so
    elimination needs no pivoting; SymmetricMode then keeps the row
    permutation equal to the column one, and det(I - uB) is the product of
    U's diagonal with no permutation sign."""
    import scipy.sparse.linalg

    m = scipy.sparse.eye_array(b_csc.shape[0], dtype=complex, format="csc") - u * b_csc
    return scipy.sparse.linalg.splu(m, diag_pivot_thresh=0, options=dict(SymmetricMode=True))


def _bass_mismatch(b_csr, multiset: np.ndarray, d: int) -> float:
    """Largest |log det(I - uB) - sum log(1 - u mu)| over the Bass points,
    modulo 2 pi i, with mu running over the predicted multiset. inf when
    I - uB is singular or needs an off-diagonal pivot (as only a corrupted B
    can), or when the multiset holds NaN."""
    b_csc = b_csr.tocsc()
    worst = 0.0
    for u in bass_points(d):
        try:
            lu = _lu_i_minus_ub(b_csc, u)
        except RuntimeError:  # SuperLU: factor is exactly singular
            return math.inf
        if not np.array_equal(lu.perm_r, lu.perm_c):
            return math.inf
        diff = complex(np.log(lu.U.diagonal()).sum() - np.log(1 - u * multiset).sum())
        if not cmath.isfinite(diff):
            return math.inf
        diff -= 2j * math.pi * round(diff.imag / (2 * math.pi))
        worst = max(worst, abs(diff))
    return worst


def _row_norms_sq(x: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each row of a complex array whose rows are
    contiguous, from its float64 view: no conjugate or modulus copy."""
    flat = x.view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def verify_decomposition(b, dec: BlockDecomposition,
                         tol_recon: float = 1e-8, tol_unitary: float = 1e-10,
                         tol_bass: float = 1e-9, tol_alpha: float = 1e-8,
                         tol_opnorm: float = 1e-8) -> dict:
    """Residual report for B, given as a dense or a sparse array: bounds on
    every entry of |B - U Lambda U*| and on | ||B|| - (d-1) |, unitarity,
    the Ihara-Bass determinant check of the eigenvalue multiset, and the
    off-diagonal moduli against their closed form.

    With R = B U - U Lambda, B - U Lambda U* = R U* + B (I - U U*), so every
    entry is at most max_i |R_i| max_j |U_j| + max_i |B_i| ||U*U - I||_F, with
    |X_i| the 2-norm of row i (for square U, ||I - U U*||_2 = ||I - U*U||_2).
    ||B||^2, the top eigenvalue of B B^T, lies between the Rayleigh quotient
    |B^T 1|^2 / N and the largest row sum of |B| |B|^T. The multiset check
    compares log det(I - uB), from a sparse LU, with sum log(1 - u mu) over
    the diagonal of Lambda at the fixed Bass points (Ihara-Bass:
    det(I - uB) = prod (1 - u mu) over the spectrum of B).

    U*U is the only cubic step: one Hermitian product (LAPACK's ZHFRK, at
    ZHERK's speed and half the flops of a full complex product), which
    stores one triangle in rectangular full packed form, N(N+1)/2 entries,
    each once. The max and the sum of squares of its defects do not depend
    on where an entry lies, so they are taken on the packed array itself,
    after 1 is subtracted at the N places that hold the diagonal: the
    modulus one column chunk of at most _BLOCK_BYTES at a time, the squares
    with no temporary. Besides U the check holds the packed triangle, half
    an N x N array, and one column chunk; it frees the triangle before the
    rows of R = B U - U Lambda (a sparse product, a column scaling and the
    alpha terms) are reduced one row block of at most _BLOCK_BYTES at a
    time. Each row of R is reduced whole, so the report does not depend on
    the block height or the chunk width. Every reduction carries a NaN
    through to its key, so a NaN in B, U, Lambda, alpha or lam gives ok False."""
    import scipy.linalg.lapack
    import scipy.sparse

    U, N, top, diag = np.ascontiguousarray(dec.U), dec.N, dec.d - 1, dec.diag
    height = min(N, max(1, _BLOCK_BYTES // (16 * N)))
    row_blocks = [slice(r0, min(r0 + height, N)) for r0 in range(0, N, height)]

    # on the F-ordered view U.T, zhfrk packs the lower triangle of
    # conj(U*U) into an (N+1) x N/2 F-ordered array (LAPACK's TRANSR='N',
    # UPLO='L'; N = nd is even). Row i < N/2 of the triangle ends at
    # arf[i+1, i] and row N/2 + i at arf[i, i]: those are the diagonal.
    arf = scipy.linalg.lapack.zhfrk(N, N, 1.0, U.T, 0.0, np.empty(N * (N + 1) // 2, complex),
                                    transr="N", uplo="L", trans="N", overwrite_c=1)
    arf = arf.reshape(N + 1, N // 2, order="F")
    half = np.arange(N // 2)
    arf[half + 1, half] -= 1.0
    arf[half, half] -= 1.0
    gram_diag = np.concatenate((arf[half + 1, half], arf[half, half]))
    width = max(1, _BLOCK_BYTES // (16 * (N + 1)))
    unitary = float(np.max([np.abs(arf[:, c : c + width]).max() for c in range(0, N // 2, width)]))
    # ||U*U - I||_F^2 counts each off-diagonal entry of the triangle twice;
    # arf.T is C-ordered, so its row norms need no copy
    gram_err = math.sqrt(2 * float(_row_norms_sq(arf.T).sum())
                         - float(np.vdot(gram_diag, gram_diag).real))
    del arf

    b_csr = scipy.sparse.csr_array(b)
    first, k = 1 + dec.bipartite, dec.alpha.size
    row_max = []
    for rows in row_blocks:
        resid = b_csr[rows] @ U
        resid -= U[rows] * diag
        resid[:, first + 1 : first + 2 * k : 2] -= U[rows, first : first + 2 * k : 2] * dec.alpha
        row_max.append(_row_norms_sq(resid).max())
    resid_sq = float(np.max(row_max))
    b_row = math.sqrt(float(b_csr.power(2).sum(axis=1).max()))
    recon = (math.sqrt(resid_sq) * math.sqrt(float(_row_norms_sq(U).max()))
             + b_row * gram_err)

    bass = _bass_mismatch(b_csr, diag, dec.d)

    col_sums = b_csr.sum(axis=0)
    low = math.sqrt(float(col_sums @ col_sums) / N)
    b_abs = abs(b_csr)
    high = math.sqrt(float((b_abs @ b_abs.sum(axis=0)).max()))
    opnorm_err = float(np.max([abs(high - top), abs(low - top)]))

    # np.abs rounds a complex modulus differently from abs(); hypot does not
    alpha_abs = np.hypot(dec.alpha.real, dec.alpha.imag).tolist()
    alpha_err = float(np.max([abs(a - alpha_exact(lam, dec.d))
                              for a, lam in zip(alpha_abs, dec.lam.tolist())], initial=0.0))

    return {
        "reconstruction": recon,
        "unitarity": unitary,
        "bass_multiset": bass,
        "operator_norm": opnorm_err,
        "alpha": alpha_err,
        "ok": (recon <= tol_recon and unitary <= tol_unitary and bass <= tol_bass
               and opnorm_err <= tol_opnorm and alpha_err <= tol_alpha),
    }
