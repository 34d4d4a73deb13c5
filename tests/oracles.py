"""Independent brute-force references used to validate the package.

Everything here is deliberately naive and shares no code path with the
package kernels: dict-based BFS, dense matrix powers from the operator
definitions, and exact-fraction dynamic programs. The dense decomposition
check borrows only the package's eigenvalue matching and alpha closed form,
which it is not meant to replace.
"""

import math
from collections import deque
from fractions import Fraction

import numpy as np
import scipy.linalg

from ramlab.spectral_lab import _multiset_distance, alpha_exact


def adjacency_dict(graph):
    return {u: [int(v) for v in graph.neighbors(u)] for u in range(graph.n)}


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


def srw_dense(graph, x: int, t: int) -> np.ndarray:
    """SRW law via dense matrix powers of A/d."""
    a = np.zeros((graph.n, graph.n))
    for u in range(graph.n):
        for v in graph.neighbors(u):
            a[u, v] = 1.0
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


def nbrw_step_bincount(graph, edge_space, mu: np.ndarray) -> np.ndarray:
    """One NBRW step of a single law: the mass into each vertex (bincount
    over heads, in edge order), less the reversal, over d-1."""
    into = np.bincount(edge_space.head, weights=mu, minlength=graph.n)
    return (np.repeat(into, graph.d) - mu[edge_space.rev]) / (graph.d - 1)


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


def nbrw_dense_matrix(graph, edge_space) -> np.ndarray:
    """B from its definition, by double loop over directed edge pairs."""
    N = edge_space.N
    b = np.zeros((N, N))
    for e in range(N):
        u, v = int(edge_space.tail[e]), int(edge_space.head[e])
        for f in range(N):
            x, y = int(edge_space.tail[f]), int(edge_space.head[f])
            if v == x and u != y:
                b[e, f] = 1.0
    return b


def nbrw_dense(graph, edge_space, start: int, t: int) -> np.ndarray:
    b = nbrw_dense_matrix(graph, edge_space)
    mu = np.zeros(edge_space.N)
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


def gamma_direct(theta: complex, alpha: complex, t: int) -> complex:
    bar = complex(theta).conjugate()
    return alpha * sum(theta**j * bar ** (t - 1 - j) for j in range(t))


def lp_distance_direct(mu: np.ndarray, ref: np.ndarray, p: float) -> float:
    mask = ref > 0
    ratio = mu[mask] / ref[mask] - 1.0
    if np.isinf(p):
        return float(np.abs(ratio).max())
    return float((ref[mask] * np.abs(ratio) ** p).sum() ** (1 / p))


def lambda_dense(dec) -> np.ndarray:
    """Lambda of a BlockDecomposition written out entry by entry."""
    lam = np.zeros((dec.N, dec.N), dtype=complex)
    lam[0, 0] = dec.d - 1
    col = 2 if dec.bipartite else 1
    if dec.bipartite:
        lam[1, 1] = -(dec.d - 1)
    for b in dec.blocks:
        lam[b.col, b.col] = b.theta
        lam[b.col, b.col + 1] = b.alpha
        lam[b.col + 1, b.col + 1] = b.theta_prime
        col = b.col + 2
    for _ in range(dec.minus_one_multiplicity):
        lam[col, col] = -1.0
        col += 1
    for _ in range(dec.plus_one_multiplicity):
        lam[col, col] = 1.0
        col += 1
    return lam


# verify_decomposition's default tolerance for each report key
DECOMPOSITION_TOLERANCES = {"reconstruction": 1e-8, "unitarity": 1e-10,
                            "bass_multiset": 1e-6, "operator_norm": 1e-8, "alpha": 1e-8}


def verify_decomposition_dense(b_dense, dec) -> dict:
    """spectral_lab.verify_decomposition's report by dense products: the
    largest entry of |B - U Lambda U*| itself, and | ||B|| - (d-1) | from the
    top eigenvalue of B B^T, with the verdict at the default tolerances.
    unitarity, bass_multiset and alpha are computed as in the package."""
    U = dec.U
    top = scipy.linalg.eigh(b_dense @ b_dense.T, eigvals_only=True,
                            subset_by_index=(dec.N - 1, dec.N - 1))[0]
    report = {
        "reconstruction": float(np.abs(b_dense - U @ lambda_dense(dec) @ U.conj().T).max()),
        "unitarity": float(np.abs(U.conj().T @ U - np.eye(dec.N)).max()),
        "bass_multiset": _multiset_distance(np.linalg.eigvals(b_dense),
                                            dec.eigenvalue_multiset()),
        "operator_norm": abs(math.sqrt(float(top)) - (dec.d - 1)),
        "alpha": max((abs(abs(b.alpha) - alpha_exact(b.lam, dec.d)) for b in dec.blocks),
                     default=0.0),
    }
    report["ok"] = all(report[k] <= tol for k, tol in DECOMPOSITION_TOLERANCES.items())
    return report


def ihara_bass_logs(graph, edge_space, multiset, u: complex) -> tuple:
    """Logs of the three sides of the Ihara-Bass identity at complex u,
    det(I - uB) = (1 - u^2)^(m-n) det((1 + (d-1)u^2) I - uA)
                = prod over the multiset of (1 - u mu),
    with B and A written out from their definitions (m = nd/2 edges). Each
    log is defined up to a multiple of 2 pi i."""
    n, d = graph.n, graph.d
    a = np.zeros((n, n))
    for x, nbrs in adjacency_dict(graph).items():
        a[x, nbrs] = 1.0
    b = nbrw_dense_matrix(graph, edge_space)

    def logdet(mat):
        sign, logabs = np.linalg.slogdet(mat)
        return complex(logabs, np.angle(sign))

    lhs = logdet(np.eye(edge_space.N) - u * b)
    bass = ((n * d // 2 - n) * complex(np.log(1 - u * u))
            + logdet((1 + (d - 1) * u * u) * np.eye(n) - u * a))
    product = complex(np.log(1 - u * np.asarray(multiset)).sum())
    return lhs, bass, product
