"""Independent brute-force references used to validate the package, and
the drivers of the acceptance criteria.

The references are deliberately naive and share no code path with the
package kernels: dict-based BFS, dense matrix powers from the operator
definitions, and exact-fraction dynamic programs. The dense decomposition
check borrows only the package's alpha closed form and the points at which
it evaluates det(I - uB), which it is not meant to replace. The acceptance
drivers at the end measure with the package's own walks and spectra and
compare the result with a closed form.
"""

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np
import scipy.linalg

from ramlab import theory, walk_engine
from ramlab.errors import (
    Asymmetric,
    Disconnected,
    IrregularGraph,
    NonSimple,
    SelfLoop,
    UsageError,
)
from ramlab.spectral_lab import alpha_exact, bass_points


def adjacency_dict(graph):
    return dict(enumerate(graph.indices.reshape(graph.n, graph.d).tolist()))


def reversal_dict(adj: dict, d: int) -> list:
    """rev[e] for e = d*u + i, the arc from u to adj[u][i] (rows sorted): the
    id d*v + j of the arc from v = adj[u][i] back to u = adj[v][j]."""
    return [d * v + adj[v].index(u) for u in range(len(adj)) for v in adj[u]]


def bfs_dict(adj: dict, src: int) -> dict:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def regular_graph_loop(adj, d: int):
    """(indices, bipartition) of a simple connected d-regular graph by a
    per-vertex loop over its neighbour rows (a list or a dict), raising the
    package's error for the same first fault: rows are checked vertex by
    vertex for degree, self-loop, parallel edge and range, then every arc for
    its reverse, then connectivity by dict BFS from vertex 0, whose distance
    parities give the two-colouring."""
    n = len(adj)
    if d < 3:
        raise UsageError(f"need d >= 3, got d={d}")
    if n <= d:
        raise UsageError(f"need n > d, got n={n}, d={d}")
    indices = np.empty(n * d, dtype=np.int32)
    rows = {}
    for u in range(n):
        nbrs = sorted(adj[u])
        if len(nbrs) != d:
            raise IrregularGraph(f"vertex {u} has degree {len(nbrs)}, expected {d}")
        if any(v == u for v in nbrs):
            raise SelfLoop(f"vertex {u} is adjacent to itself")
        if len(set(nbrs)) != d:
            raise NonSimple(f"vertex {u} has a parallel edge")
        if any(v < 0 or v >= n for v in nbrs):
            raise IrregularGraph(f"vertex {u} lists a neighbor outside [0, {n})")
        indices[u * d : (u + 1) * d] = nbrs
        rows[u] = [int(v) for v in nbrs]
    for u in range(n):
        for v in rows[u]:
            if u not in rows[v]:
                raise Asymmetric(f"edge ({u}, {v}) has no reverse entry")
    dist = bfs_dict(rows, 0)
    if len(dist) < n:
        raise Disconnected(f"{n - len(dist)} vertices unreachable from 0")
    if all(dist[u] % 2 != dist[v] % 2 for u in range(n) for v in rows[u]):
        return indices, np.array([dist[u] % 2 for u in range(n)], dtype=np.int8)
    return indices, None


def rows_from_edges(n: int, edges) -> list:
    """Neighbour rows of an undirected edge list, by appending both ends."""
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    return rows


def _lps_canon(m: tuple, q: int) -> tuple:
    x = next(x for x in m if x % q)
    inv = pow(x, q - 2, q)
    return tuple(inv * y % q for y in m)


def _lps_matmul(a: tuple, b: tuple, q: int) -> tuple:
    return ((a[0] * b[0] + a[1] * b[2]) % q, (a[0] * b[1] + a[1] * b[3]) % q,
            (a[2] * b[0] + a[3] * b[2]) % q, (a[2] * b[1] + a[3] * b[3]) % q)


def _lps_search(p: int, q: int) -> tuple:
    """(orbit, heads, psl): the identity's orbit under right multiplication
    by the generators in breadth-first order, and heads[d*k + j] the orbit
    position of orbit[k] times generator j."""
    i = next(x for x in range(2, q) if x * x % q == q - 1)
    r = math.isqrt(p)
    sols = [(a0, a1, a2, a3) for a0 in range(1, r + 1, 2)
            for a1, a2, a3 in itertools.product(range(-r, r + 1), repeat=3)
            if a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 == p and a1 % 2 == a2 % 2 == a3 % 2 == 0]
    gens = [_lps_canon((a0 + i * a1, a2 + i * a3, -a2 + i * a3, a0 - i * a1), q)
            for a0, a1, a2, a3 in sols]
    assert len(set(gens)) == p + 1
    psl = any(x * x % q == p % q for x in range(1, q))
    orbit, position = [_lps_canon((1, 0, 0, 1), q)], {}
    position[orbit[0]] = 0
    heads = []
    for m in orbit:
        for s in gens:
            ms = _lps_canon(_lps_matmul(m, s, q), q)
            if ms not in position:
                position[ms] = len(orbit)
                orbit.append(ms)
            heads.append(position[ms])
    assert len(orbit) == q * (q * q - 1) // (2 if psl else 1)
    return orbit, heads, psl


def lps_orbit(p: int, q: int) -> tuple:
    """(rows, provenance) of the LPS graph X^{p,q} by a breadth-first search
    of the identity's orbit under right multiplication by the generators,
    with scalar tuple arithmetic mod q: rows[v] lists the neighbours of the
    v-th orbit element in sorted (lexicographic) order of canonical forms."""
    orbit, heads, psl = _lps_search(p, q)
    label = {m: v for v, m in enumerate(sorted(orbit))}
    d = p + 1
    rows = [None] * len(orbit)
    for k, m in enumerate(orbit):
        rows[label[m]] = [label[orbit[h]] for h in heads[d * k : d * (k + 1)]]
    provenance = {"family": "lps", "p": p, "q": q,
                  "group": ("PSL(2,%d)" if psl else "PGL(2,%d)") % q, "bipartite": not psl}
    return rows, provenance


def lps_translation(p: int, q: int) -> list:
    """sigma[v], the label of u * m for the v-th element m of lps_orbit's
    sorted element list and u = [[1, 1], [0, 1]], by tuple arithmetic."""
    elements = sorted(_lps_search(p, q)[0])
    label = {m: v for v, m in enumerate(elements)}
    return [label[_lps_canon(_lps_matmul((1, 1, 0, 1), m, q), q)] for m in elements]


def bfs_array(adj: dict, src: int) -> list:
    """bfs_dict's distances as a list over every vertex, -1 where unreachable."""
    dist = bfs_dict(adj, src)
    return [dist.get(v, -1) for v in range(len(adj))]


def diameter_dict(adj: dict) -> int:
    return max(max(bfs_dict(adj, s).values()) for s in adj)


def girth_edge_removal(adj: dict) -> int:
    """Shortest cycle through each edge: remove the edge, find the distance
    between its endpoints, add one."""
    best = None
    for u in adj:
        for v in adj[u]:
            if u < v:
                trimmed = {w: [x for x in nbrs if (w, x) not in ((u, v), (v, u))]
                           for w, nbrs in adj.items()}
                dist = bfs_dict(trimmed, u)
                if v in dist:
                    cycle = dist[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def girth_through(adj: dict, v: int):
    """Shortest cycle through v, None if v lies on none: for each edge at v,
    remove it and add one to the distance from v to the other end."""
    best = None
    for u in adj[v]:
        trimmed = {**adj, v: [x for x in adj[v] if x != u],
                   u: [x for x in adj[u] if x != v]}
        dist = bfs_dict(trimmed, v)
        if u in dist and (best is None or dist[u] + 1 < best):
            best = dist[u] + 1
    return best


def srw_dense(graph, x: int, t: int) -> np.ndarray:
    """SRW law via dense matrix powers of A/d."""
    a = np.zeros((graph.n, graph.n))
    for u, nbrs in adjacency_dict(graph).items():
        a[u, nbrs] = 1.0
    p = a / graph.d
    mu = np.zeros(graph.n)
    mu[x] = 1.0
    for _ in range(t):
        mu = mu @ p
    return mu


def srw_step_rows(graph, mu: np.ndarray) -> np.ndarray:
    """One SRW step of a single law as a row sum over sorted neighbors; numpy
    adds fewer than 8 terms in sequence, so for d <= 7 this matches any
    in-order summation to the last bit."""
    return mu[graph.indices].reshape(-1, graph.d).sum(axis=1) / graph.d


def directed_edges(graph) -> tuple:
    """(tail, head, rev) arrays over the directed edges e = d*u + rank, rank
    the position of the head in u's sorted neighbor list; rev[e] is found by
    looking the edge (head, tail) up among all of them."""
    edges = [(u, v) for u, nbrs in adjacency_dict(graph).items() for v in sorted(nbrs)]
    ids = {edge: e for e, edge in enumerate(edges)}
    tail, head = np.array(edges, dtype=np.int64).T
    return tail, head, np.array([ids[v, u] for u, v in edges], dtype=np.int64)


def nbrw_step_bincount(graph, mu: np.ndarray) -> np.ndarray:
    """One NBRW step of a single law: the mass into each vertex (bincount
    over heads, in edge order), less the reversal, over d-1."""
    _, head, rev = directed_edges(graph)
    into = np.bincount(head, weights=mu, minlength=graph.n)
    return (np.repeat(into, graph.d) - mu[rev]) / (graph.d - 1)


def cutoff_profile_records(graph, starts, s_grid) -> list:
    """(s, t, max-over-starts TV at t, Gaussian prediction) per s, with
    t = round(t_star + s * window), by a per-start loop over Python lists.

    Each SRW step adds a vertex's neighbors one at a time in sorted order
    and divides by d, and each TV is half numpy's 1-D sum of |mu - 1/n|, so
    the records are exact to the last bit, not just close."""
    n, d = graph.n, graph.d
    log_n = math.log(n) / math.log(d - 1)
    t_star, window = d / (d - 2) * log_n, math.sqrt(log_n)
    c_d = (d - 2) ** 1.5 / (2 * math.sqrt(d * (d - 1)))
    times = {s: max(0, round(t_star + s * window)) for s in s_grid}
    nbrs = adjacency_dict(graph)
    best = dict.fromkeys(times.values(), 0.0)
    for x in starts:
        mu = [0.0] * n
        mu[x] = 1.0
        for t in range(max(times.values()) + 1):
            if t in best:
                tv = 0.5 * float(np.abs(np.array(mu) - 1.0 / n).sum())
                best[t] = max(best[t], tv)
            new = []
            for u in range(n):
                total = 0.0
                for v in nbrs[u]:
                    total += mu[v]
                new.append(total / d)
            mu = new
    return [(s, times[s], best[times[s]], 0.5 * math.erfc(c_d * s / math.sqrt(2)))
            for s in s_grid]


def nbrw_dense_matrix(graph) -> np.ndarray:
    """B from its definition, by double loop over directed edge pairs."""
    tail, head, _ = directed_edges(graph)
    N = tail.size
    b = np.zeros((N, N))
    for e in range(N):
        u, v = int(tail[e]), int(head[e])
        for f in range(N):
            x, y = int(tail[f]), int(head[f])
            if v == x and u != y:
                b[e, f] = 1.0
    return b


def nbrw_dense(graph, start: int, t: int) -> np.ndarray:
    b = nbrw_dense_matrix(graph)
    mu = np.zeros(b.shape[0])
    mu[start] = 1.0
    for _ in range(t):
        mu = mu @ b / (graph.d - 1)
    return mu


def tree_radial_fractions(d: int, t: int) -> dict:
    """Exact radial law of the reflected biased walk as Fractions."""
    row = {0: Fraction(1)}
    up, down = Fraction(d - 1, d), Fraction(1, d)
    for _ in range(t):
        new = {}
        for k, prob in row.items():
            if k == 0:
                new[1] = new.get(1, Fraction(0)) + prob
            else:
                new[k + 1] = new.get(k + 1, Fraction(0)) + prob * up
                new[k - 1] = new.get(k - 1, Fraction(0)) + prob * down
        row = new
    return row


def tree_step(old: np.ndarray, d: int) -> np.ndarray:
    """One step of the radial DP on a full-length row (every entry up to the
    row's end is recomputed): the exact float reference for tree_rows."""
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


def tree_log_step(old: np.ndarray, d: int) -> np.ndarray:
    """tree_step on a row of logs."""
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


def gamma_direct(theta: complex, alpha: complex, t: int) -> complex:
    bar = complex(theta).conjugate()
    return alpha * sum(theta**j * bar ** (t - 1 - j) for j in range(t))


def tv_direct(mu: np.ndarray, ref: np.ndarray) -> float:
    return 0.5 * float(np.abs(mu - ref).sum())


def lp_distance_direct(mu: np.ndarray, ref: np.ndarray, p: float) -> float:
    mask = ref > 0
    ratio = mu[mask] / ref[mask] - 1.0
    if np.isinf(p):
        return float(np.abs(ratio).max())
    return float((ref[mask] * np.abs(ratio) ** p).sum() ** (1 / p))


def lambda_dense(dec) -> np.ndarray:
    """Lambda of a BlockDecomposition written out entry by entry: its
    diagonal, and alpha[i] at (first + 2i, first + 2i + 1) with first 2 on
    a bipartite graph and 1 otherwise."""
    lam = np.zeros((dec.N, dec.N), dtype=complex)
    for j, mu in enumerate(dec.diag):
        lam[j, j] = mu
    first = 2 if dec.bipartite else 1
    for i, a in enumerate(dec.alpha):
        lam[first + 2 * i, first + 2 * i + 1] = a
    return lam


# verify_decomposition's default tolerance for each report key
DECOMPOSITION_TOLERANCES = {"reconstruction": 1e-8, "unitarity": 1e-10,
                            "bass_multiset": 1e-9, "operator_norm": 1e-8, "alpha": 1e-8}


def multiset_distance(actual: np.ndarray, predicted: np.ndarray) -> float:
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


def logdet(mat: np.ndarray) -> complex:
    """log det of a dense matrix, up to a multiple of 2 pi i."""
    sign, logabs = np.linalg.slogdet(mat)
    return complex(logabs, np.angle(sign))


def bass_mismatch_dense(b_dense, dec) -> float:
    """Largest |log det(I - uB) - sum log(1 - u mu)| modulo 2 pi i over the
    package's Bass points, with det from a dense LU (slogdet) and mu running
    over the predicted multiset."""
    multiset = dec.diag
    if multiset.size != dec.N:
        return math.inf
    worst = 0.0
    for u in bass_points(dec.d):
        diff = logdet(np.eye(dec.N) - u * b_dense) - complex(np.log(1 - u * multiset).sum())
        diff -= 2j * math.pi * round(diff.imag / (2 * math.pi))
        worst = max(worst, abs(diff))
    return worst


def verify_decomposition_dense(b_dense, dec) -> dict:
    """spectral_lab.verify_decomposition's report by dense products: the
    largest entry of |B - U Lambda U*| itself, | ||B|| - (d-1) | from the
    top eigenvalue of B B^T, and the Bass determinant mismatch from dense
    slogdet, with the verdict at the default tolerances. unitarity and alpha
    are computed as in the package. eigvals_multiset, outside the verdict,
    is the distance from the dense eigvals(B) to the predicted multiset."""
    U = dec.U
    top = scipy.linalg.eigh(b_dense @ b_dense.T, eigvals_only=True,
                            subset_by_index=(dec.N - 1, dec.N - 1))[0]
    report = {
        "reconstruction": float(np.abs(b_dense - U @ lambda_dense(dec) @ U.conj().T).max()),
        "unitarity": float(np.abs(U.conj().T @ U - np.eye(dec.N)).max()),
        "bass_multiset": bass_mismatch_dense(b_dense, dec),
        "operator_norm": abs(math.sqrt(float(top)) - (dec.d - 1)),
        "alpha": max((abs(abs(a) - alpha_exact(lam, dec.d))
                       for a, lam in zip(dec.alpha.tolist(), dec.lam.tolist())), default=0.0),
    }
    report["ok"] = all(report[k] <= tol for k, tol in DECOMPOSITION_TOLERANCES.items())
    report["eigvals_multiset"] = multiset_distance(np.linalg.eigvals(b_dense), dec.diag)
    return report


def ihara_bass_logs(graph, multiset, u: complex) -> tuple:
    """Logs of the three sides of the Ihara-Bass identity at complex u,
    det(I - uB) = (1 - u^2)^(m-n) det((1 + (d-1)u^2) I - uA)
                = prod over the multiset of (1 - u mu),
    with B and A written out from their definitions (m = nd/2 edges). Each
    log is defined up to a multiple of 2 pi i."""
    n, d = graph.n, graph.d
    a = np.zeros((n, n))
    for x, nbrs in adjacency_dict(graph).items():
        a[x, nbrs] = 1.0
    b = nbrw_dense_matrix(graph)
    lhs = logdet(np.eye(n * d) - u * b)
    bass = ((n * d // 2 - n) * complex(np.log(1 - u * u))
            + logdet((1 + (d - 1) * u * u) * np.eye(n) - u * a))
    product = complex(np.log(1 - u * np.asarray(multiset)).sum())
    return lhs, bass, product


def csv_value(value) -> str:
    """One CSV cell, printed value by value: a float (np.float64 included)
    at 17 significant digits, anything else through str."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def csv_text(header, records, comments) -> str:
    """A CSV file rendered record by record: '# ' comment lines, the header,
    then one comma-joined line of csv_value cells per record."""
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    lines += [",".join(map(csv_value, record)) for record in records]
    return "".join(line + "\n" for line in lines)


def is_covering_map(lift, base, cover: int) -> bool:
    """Check that w -> w // cover is a locally bijective homomorphism."""
    if lift.n != base.n * cover or lift.d != base.d:
        return False
    projected = np.sort(lift.indices.reshape(-1, lift.d) // cover, axis=1)
    base_rows = base.indices.reshape(-1, base.d)[np.arange(lift.n) // cover]
    return bool(np.array_equal(projected, base_rows))


def lp_objective(p: float, d: int, beta: float) -> float:
    """f(beta) = ((p-1)/p)(2 beta - 1) + H_{d-1}(beta || (d-1)/d)."""
    return ((1.0 if math.isinf(p) else (p - 1) / p) * (2 * beta - 1)
            + theory.relative_entropy(beta, (d - 1) / d, d - 1))


def beta_star_grid(p: float, d: int, tol: float = 1e-8) -> float:
    """Brute-force grid minimizer of the L^p entropy objective over
    [1/2, (d-1)/d], refined until the grid spacing drops below tol."""
    lo, hi = 0.5, (d - 1) / d
    while True:
        m = 2000
        step = (hi - lo) / m
        values = [lp_objective(p, d, lo + i * step) for i in range(m + 1)]
        i_best = min(range(m + 1), key=values.__getitem__)
        if step < tol:
            return lo + i_best * step
        lo, hi = (max(0.5, lo + (i_best - 1) * step),
                  min((d - 1) / d, lo + (i_best + 1) * step))


# --- acceptance drivers ---------------------------------------------------------


def curve_distances(curve, p) -> np.ndarray:
    """A MixingCurve's TV distances (p = "tv"), L^inf distances (p = inf) or
    the L^p distances of a requested finite p."""
    if p == "tv":
        return curve.d_tv
    return curve.d_inf if math.isinf(p) else curve.d_p[float(p)]


def mixing_time(curve, eps: float, p="tv"):
    """First time the requested distance drops to eps (the first crossing;
    L^p NBRW distances need not be monotone), None if the curve never does."""
    hits = np.flatnonzero(curve_distances(curve, p) <= eps)
    return int(curve.times[hits[0]]) if hits.size else None


def srw_mixture_residual(graph, x: int, t: int) -> float:
    """Sup-norm gap between the t-step SRW law from x and its expansion as a
    mixture of projected NBRW laws weighted by the tree radial distribution.
    The identity is exact; the residual only measures accumulated rounding.
    """
    n, d = graph.n, graph.d
    out_edges = np.zeros(n * d)
    out_edges[x * d : (x + 1) * d] = 1.0 / d
    edges = walk_engine.evolve(graph, "nbrw", out_edges)
    _, radial = next(itertools.islice(theory.tree_rows(d, t), t, None))
    mixture = np.zeros(n)
    mixture[x] = radial[0]
    # zip asks range first, so no NBRW step is taken past k = t
    for k, (_, edge) in zip(range(1, t + 1), edges):
        if radial[k] > 0:
            proj = np.bincount(graph.indices, weights=edge[:, 0], minlength=n)
            mixture = mixture + radial[k] * proj

    _, srw = next(itertools.islice(walk_engine.evolve(graph, "srw", [x]), t, None))
    return float(np.abs(srw[:, 0] - mixture).max())


def gamma(theta: complex, alpha: complex, t: int) -> complex:
    """gamma(t) = alpha * sum_{j<t} theta^j conj(theta)^(t-1-j), t >= 1, in
    closed form: alpha*t*theta^(t-1) for real theta, else the geometric
    quotient."""
    theta = complex(theta)
    if theta.imag == 0:
        return alpha * t * theta.real ** (t - 1)
    bar = theta.conjugate()
    return alpha * (bar**t - theta**t) / (bar - theta)


def upsilon(report, k: int) -> float:
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


def upsilon_l2_transitive(graph, report, eps: float) -> dict:
    """Exact L^2 mixing time of the NBRW on an arc-transitive non-bipartite
    Ramanujan graph: the first t at which the chi-square distance from the
    uniform law, started from one directed edge, drops to eps. It is predicted
    from the spectrum and cross-checked against the measured first such t
    from directed edge 0 (None if not reached by the prediction + 15).

    B = U Lambda U* with U unitary, so ||B^t||_F^2 = ||Lambda^t||_F^2, which
    sums (d-1)^(2t) for the principal eigenvalue, |theta|^(2t) +
    |theta'|^(2t) + |gamma_i(t)|^2 = 2 (d-1)^t + |gamma_i(t)|^2 for each of
    the n-1 blocks, and 1 for each of the N - 2n + 1 eigenvalues +-1. As
    |gamma_i(t)|^2 = (d-2)^2 (d-1)^(t-1) U_{t-1}(lambda_i/(2 sqrt(d-1)))^2,
    the chi-square averaged over the N starting edges is

        ((n-1) (Upsilon(t) + 2) (d-1)^t + N - 2n + 1) / (d-1)^(2t),

    and on an arc-transitive graph every starting edge has this value. Its
    leading term n (Upsilon(k) + 2) / (d-1)^t, with Upsilon frozen at
    k = ceil(log_{d-1} n), is not exact: on K4 it is reached one step late
    at eps = 0.5 and 1e-4.
    """
    assert not graph.bipartite and report.ramanujan
    d, n = graph.d, graph.n
    N = n * d
    # both sides reach eps within 1e-9 relative: a distance equal to eps in
    # exact arithmetic (K4 at eps = 0.5) may round to either side of it
    reach = eps * (1 + 1e-9)
    predicted = next(
        t for t in itertools.count()
        if ((n - 1) * (upsilon(report, t) + 2.0) * (d - 1) ** t + N - 2 * n + 1)
        / (d - 1) ** (2 * t) <= reach)
    laws = itertools.islice(walk_engine.evolve(graph, "nbrw", [0]), predicted + 16)
    # chi-square expansion under the uniform law: N * sum(mu^2) - 1
    measured = next((t for t, mu in laws if N * float((mu[:, 0] ** 2).sum()) - 1.0 <= reach),
                    None)
    return {"predicted": predicted, "measured": measured, "match": predicted == measured}
