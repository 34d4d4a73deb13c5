"""Independent checks of the artifacts each CLI call writes.

References are computed here with scipy.sparse and dense linear algebra,
sharing no code with ramlab's kernels; the graphs come from ramlab's
builders, called directly with the same parameters as the CLI call. Each
check factory returns ``check(out_dir)``, which raises CheckFailed. A
reference is computed once per factory and reused for every repetition.

Every check also confirms the call did the work requested (all starts, all
times, all table rows), so a change that does less work fails rather than
passing as a speed-up.
"""

import functools
import hashlib
import importlib.util
import inspect
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

ROOT = Path(__file__).resolve().parents[1]

# Agreement between two float64 evaluations of the same quantity that sum in
# different orders; far above rounding, far below any digit of the artifact.
REL_TOL = 1e-9
ABS_TOL = 1e-12
TREE_EXACT_HORIZON = 60  # tree rows up to this t are compared with exact fractions


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(actual, expected, what):
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    _require(actual.shape == expected.shape,
             f"{what}: shape {actual.shape} != {expected.shape}")
    bad = np.abs(actual - expected) > ABS_TOL + REL_TOL * np.abs(expected)
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        raise CheckFailed(f"{what}[{i}]: {actual.ravel()[i]!r} != {expected.ravel()[i]!r}")


def _manifest_sha(out: Path, subcommand: str) -> str:
    raw = (out / "manifest.json").read_bytes()
    _require(json.loads(raw)["subcommand"] == subcommand,
             f"manifest is not for {subcommand}")
    return hashlib.sha256(raw).hexdigest()


def _load_json(out: Path, name: str, subcommand: str) -> dict:
    data = json.loads((out / name).read_text())
    _require(data.get("_manifest_sha256") == _manifest_sha(out, subcommand),
             f"{name} does not reference its manifest")
    return data


def _load_csv(out: Path, name: str, subcommand: str):
    """(comments as dict, header, rows as float array)."""
    lines = (out / name).read_text().splitlines()
    comments = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            for tok in line[2:].split(" "):
                key, _, value = tok.partition("=")
                comments[key] = value
        else:
            body.append(line)
    _require(comments.get("manifest_sha256") == _manifest_sha(out, subcommand),
             f"{name} does not reference its manifest")
    header = body[0].split(",")
    rows = np.array([r.split(",") for r in body[1:]], dtype=float)
    return comments, header, rows.reshape(-1, len(header))


def _adjacency(graph) -> scipy.sparse.csr_matrix:
    n, d = graph.n, graph.d
    tails = np.repeat(np.arange(n), d)
    heads = np.asarray(graph.indices, dtype=np.int64)
    return scipy.sparse.csr_matrix((np.ones(n * d, dtype=np.int64), (tails, heads)),
                                   shape=(n, n))


def _is_bipartite(a: scipy.sparse.csr_matrix) -> bool:
    dist = scipy.sparse.csgraph.shortest_path(a, unweighted=True, indices=0)
    parity = dist.astype(np.int64) % 2
    rows, cols = a.nonzero()
    return bool(np.all(parity[rows] != parity[cols]))


def nonbacktracking_girth(a: scipy.sparse.csr_matrix, d: int, k_max: int) -> int:
    """Smallest k with tr(A_k) > 0, where A_k counts nonbacktracking walks:
    A_1 = A, A_2 = A^2 - dI, A_{k+1} = A A_k - (d-1) A_{k-1}."""
    prev = a.toarray()
    if np.trace(prev) > 0:
        return 1
    cur = a @ prev - d * np.eye(a.shape[0], dtype=np.int64)
    for k in range(2, k_max + 1):
        if np.trace(cur) > 0:
            return k
        prev, cur = cur, a @ cur - (d - 1) * prev
    raise CheckFailed(f"no cycle of length <= {k_max}")


# --------------------------------------------------------------------------
# structure: metrics
# --------------------------------------------------------------------------


def metrics_check(spec):
    @functools.cache
    def reference():
        graph = spec.build()
        a = _adjacency(graph)
        dist = scipy.sparse.csgraph.shortest_path(a, unweighted=True)
        _require(np.isfinite(dist).all(), "reference graph is disconnected")
        diameter = int(dist.max())
        return {
            "n": graph.n,
            "d": graph.d,
            "diameter": diameter,
            "girth": nonbacktracking_girth(a, graph.d, 2 * diameter + 1),
            "bipartite": _is_bipartite(a),
            "histogram": np.bincount(dist[0].astype(np.int64)).tolist(),
        }

    def check(out: Path):
        data = _load_json(out, "metrics.json", "metrics")
        ref = reference()
        for key in ("n", "d", "diameter", "girth", "bipartite"):
            _require(data[key] == ref[key], f"{key}: {data[key]!r} != {ref[key]!r}")
        _require(data["profile"]["source"] == 0, "distance profile not from vertex 0")
        _require(data["profile"]["histogram"] == ref["histogram"],
                 "distance histogram from vertex 0 differs")

    return check


# --------------------------------------------------------------------------
# walks: profile and tree
# --------------------------------------------------------------------------


def profile_check(spec):
    @functools.cache
    def graph_and_matrix():
        graph = spec.build()
        return graph, (_adjacency(graph) / graph.d).tocsr()

    @functools.cache
    def max_tv(times: tuple) -> tuple:
        """Max over all starts of the TV distance to uniform at each time."""
        graph, p = graph_and_matrix()
        law = np.eye(graph.n)  # row x is the law from start x; P is symmetric
        out = {}
        for t in range(max(times) + 1):
            if t in times:
                out[t] = float((0.5 * np.abs(law - 1.0 / graph.n).sum(axis=1)).max())
            law = p @ law
        return tuple(out[t] for t in times)

    def check(out: Path):
        comments, header, rows = _load_csv(out, "cutoff_profile.csv", "profile")
        graph, _ = graph_and_matrix()
        _require(header == ["s", "t", "empirical", "predicted"], f"header {header}")
        # the benchmark profiles graphs with n <= 2000, where every vertex is a start
        starts = [int(x) for x in comments["starts"].split(",")]
        _require(starts == list(range(graph.n)),
                 f"profile used {len(starts)} starts, not all {graph.n} vertices")
        times = tuple(int(t) for t in rows[:, 1])
        _require(rows.shape[0] == 5 and np.array_equal(rows[:, 0], [-2, -1, 0, 1, 2]),
                 "profile rows are not the default s grid")
        _close(rows[:, 2], max_tv(times), "empirical")

    return check


def _oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("ramlab_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree_check(d: int, horizon: int):
    @functools.cache
    def reference():
        oracles = _oracles()
        exact = {t: oracles.tree_radial_fractions(d, t)
                 for t in range(min(horizon, TREE_EXACT_HORIZON) + 1)}
        keys = np.array([(t, k) for t in range(horizon + 1)
                         for k in range(t % 2, t + 1, 2)], dtype=float)
        return exact, keys

    def check(out: Path):
        _, header, rows = _load_csv(out, "tree_radial.csv", "tree")
        _require(header == ["t", "k", "probability"], f"header {header}")
        exact, keys = reference()
        order = np.lexsort((rows[:, 1], rows[:, 0]))
        rows = rows[order]
        _require(rows.shape[0] == keys.shape[0],
                 f"{rows.shape[0]} rows, expected one per nonzero (t, k): {keys.shape[0]}")
        _require(np.array_equal(rows[:, :2], keys), "rows are not the nonzero (t, k) cells")
        for t, law in exact.items():
            sel = rows[:, 0] == t
            expected = [float(law[int(k)]) for k in rows[sel, 1]]
            _close(rows[sel, 2], expected, f"tree t={t}")
        totals = np.bincount(rows[:, 0].astype(np.int64), weights=rows[:, 2])
        _close(totals, np.ones(horizon + 1), "tree row sums")

    return check


# --------------------------------------------------------------------------
# walks: NBRW mixing curve
# --------------------------------------------------------------------------


def nbrw_matrix(graph) -> scipy.sparse.csr_matrix:
    """B/(d-1) over directed edges e = d*u + rank, with B[e, f] = 1 when f
    leaves the head of e and does not return to its tail."""
    n, d = graph.n, graph.d
    heads = np.asarray(graph.indices, dtype=np.int64)
    tails = np.repeat(np.arange(n, dtype=np.int64), d)
    e = np.repeat(np.arange(n * d, dtype=np.int64), d)
    f = (heads[:, None] * d + np.arange(d)).ravel()
    keep = heads[f] != tails[e]
    return scipy.sparse.csr_matrix(
        (np.full(int(keep.sum()), 1.0 / (d - 1)), (e[keep], f[keep])), shape=(n * d, n * d))


def mix_check(spec, tmax: int):
    @functools.cache
    def reference():
        graph = spec.build()
        _require(not _is_bipartite(_adjacency(graph)), "reference graph is bipartite")
        step = nbrw_matrix(graph).T.tocsr()
        size = step.shape[0]
        law = np.zeros(size)
        law[0] = 1.0
        out = []
        for t in range(tmax + 1):
            ratio = law * size - 1.0
            out.append([t, 0.5 * np.abs(law - 1.0 / size).sum(), np.abs(ratio).mean(),
                        math.sqrt((ratio**2).mean()), np.abs(ratio).max()])
            law = step @ law
        return np.array(out)

    def check(out: Path):
        comments, header, rows = _load_csv(out, "mixing_curve.csv", "mix")
        _require(header == ["t", "d_tv", "d_1", "d_2", "d_inf"], f"header {header}")
        _require(comments.get("kernel") == "nbrw" and comments.get("start") == "0",
                 "mix did not run the NBRW kernel from edge 0")
        _require(comments.get("reference") == "full", "non-bipartite graph needs reference=full")
        _require(rows.shape[0] == tmax + 1, f"{rows.shape[0]} rows, expected {tmax + 1}")
        _close(rows, reference(), "mixing curve")

    return check


# --------------------------------------------------------------------------
# spectral: decompose and certify
# --------------------------------------------------------------------------


def decomposition_tolerances() -> dict:
    """Residual tolerances at verify_decomposition's own defaults."""
    from ramlab import spectral_lab

    params = inspect.signature(spectral_lab.verify_decomposition).parameters
    return {"reconstruction": params["tol_recon"].default,
            "unitarity": params["tol_unitary"].default,
            "bass_multiset": params["tol_bass"].default,
            "operator_norm": params["tol_opnorm"].default,
            "alpha": params["tol_alpha"].default}


def decompose_check():
    def check(out: Path):
        data = _load_json(out, "decomposition.json", "decompose")
        _require(data["ok"] is True, "decomposition verdict is not ok")
        for key, tol in decomposition_tolerances().items():
            _require(data[key] <= tol, f"residual {key}={data[key]!r} > {tol!r}")

    return check


def certify_check(kind: str):
    def check(out: Path):
        # certify runs the spectrum command, whose manifest it writes
        data = _load_json(out, "certificate.json", "spectrum")
        _require(data["kind"] == kind, f"certificate {data['kind']!r}, expected {kind!r}")
        _require(data["partial"] is False, "certificate rests on a partial spectrum")

    return check
