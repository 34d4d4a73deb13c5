"""Graph family constructors and edge-list file I/O.

Families: LPS Cayley graphs over PSL/PGL(2, F_q), uniform random regular
graphs via the configuration model with rejection, random n-lifts, and a few
named small graphs. All builders are deterministic functions of their
arguments including the seed.
"""

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from . import graph_core
from .errors import (
    Disconnected,
    InvariantViolation,
    NonSimple,
    ParseError,
    RamlabError,
    SamplingExhausted,
    SizeCap,
    UsageError,
)
from .graph_core import RegularGraph
from .theory import check_regular

RETRY_BUDGET = 100
MAX_EXPECTED_ATTEMPTS = 1e5  # of random_regular pairings per simple graph


# --------------------------------------------------------------------------
# LPS Cayley graphs
# --------------------------------------------------------------------------


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    return all(m % k for k in range(2, int(math.isqrt(m)) + 1))


def _grid(*axes) -> np.ndarray:
    """Rows of the Cartesian product of the axes, in lexicographic order
    when every axis is sorted."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))


def _sqrt_minus_one(q: int) -> int:
    roots = np.flatnonzero(np.arange(q) ** 2 % q == q - 1)
    if roots.size == 0:
        raise InvariantViolation(f"-1 is not a square mod {q}; need q = 1 (mod 4)")
    return int(roots[0])


@dataclass(frozen=True)
class LpsParams:
    """Parameters of the degree-(p+1) LPS Cayley graph.

    The graph lives on PSL(2, F_q) when p is a quadratic residue mod q
    (non-bipartite, q(q^2-1)/2 vertices) and on PGL(2, F_q) otherwise
    (bipartite, q(q^2-1) vertices).
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if not (_is_prime(p) and _is_prime(q)):
            raise UsageError(f"p={p}, q={q} must both be prime")
        if p % 4 != 1 or q % 4 != 1:
            raise UsageError("p and q must both be congruent to 1 mod 4")
        if p == q:
            raise UsageError("p and q must be distinct")
        if q * q <= 4 * p:
            raise UsageError(f"need q > 2*sqrt(p), got q={q}, p={p}")

    @property
    def degree(self) -> int:
        return self.p + 1

    @property
    def psl_case(self) -> bool:
        return pow(self.p, (self.q - 1) // 2, self.q) == 1  # Euler's criterion

    @property
    def group(self) -> str:
        return "PSL(2,%d)" % self.q if self.psl_case else "PGL(2,%d)" % self.q


def _quaternion_generators(p: int) -> np.ndarray:
    """The p+1 integer solutions of a0^2+a1^2+a2^2+a3^2 = p with a0 odd
    positive and a1, a2, a3 even, as sorted rows (a0, a1, a2, a3)."""
    r = math.isqrt(p)
    even = np.arange(-(r // 2) * 2, r + 1, 2)
    sols = _grid(np.arange(1, r + 1, 2), even, even, even)
    sols = sols[(sols**2).sum(axis=1) == p]
    if len(sols) != p + 1:
        raise InvariantViolation(f"found {len(sols)} quaternion solutions for p={p}, "
                                 f"expected {p + 1}")
    return sols


def _canon(m: np.ndarray, q: int) -> np.ndarray:
    """Projective canonical forms of the rows (a, b, c, d) of m, entries in
    [0, q): each row scaled so that its first nonzero entry is 1. An
    invertible matrix has a or b nonzero; a row with a = b = 0 maps to 0."""
    f = np.arange(q)
    inverse = (np.outer(f, f) % q == 1).argmax(axis=1)  # inverse[0] = 0
    lead = np.where(m[:, 0] != 0, m[:, 0], m[:, 1])
    return m * inverse[lead, None] % q


def _group_elements(q: int, psl: bool) -> np.ndarray:
    """Canonical forms of PGL(2, F_q) in lexicographic order: (0, 1, c, d)
    with c != 0, then (1, b, c, d) with d != bc. For PSL(2, F_q), only those
    with a square determinant (a class that scaling by a unit preserves)."""
    f = np.arange(q)
    elems = np.concatenate([_grid(0, 1, f[1:], f), _grid(1, f, f, f)])
    det = (elems[:, 0] * elems[:, 3] - elems[:, 1] * elems[:, 2]) % q
    if not psl:
        return elems[det != 0]
    square = np.zeros(q, dtype=bool)
    square[f[1:] ** 2 % q] = True
    return elems[square[det]]


def lps_generator_matrices(params: LpsParams) -> np.ndarray:
    """Canonical generator rows (a, b, c, d) in PGL(2, F_q), one per
    quaternion solution; closed under inversion."""
    p, q = params.p, params.q
    i = _sqrt_minus_one(q)
    a0, a1, a2, a3 = _quaternion_generators(p).T
    gens = _canon(np.stack([a0 + i * a1, a2 + i * a3, -a2 + i * a3, a0 - i * a1], 1) % q, q)
    if len(np.unique(gens, axis=0)) != p + 1:
        raise NonSimple(f"generators collide in PGL(2,{q}); parameters too small")
    return gens


def build_lps(params: LpsParams) -> RegularGraph:
    """Connected (p+1)-regular LPS Cayley graph on PSL or PGL(2, F_q).

    Vertex v is the v-th canonical group element in lexicographic order and
    its neighbours are the products v * s over the generators s. Every
    product must be an enumerated element, and the constructor's
    connectivity check proves that the generators generate the group.
    Left multiplication by any element commutes with the right products, so
    it is an automorphism. Left multiplication by u = [[1, 1], [0, 1]] fixes
    no vertex and has order q (u lies in PSL, so it also keeps the
    bipartition); it goes to the constructor as the graph's translation.
    Left multiplication by w = [[1, 0], [1, 1]] goes as an automorphism, and
    u and w generate SL(2, F_q); on PGL, so does diag(nu, 1) for the
    smallest non-residue nu, which swaps the two cosets of PSL. The graph is
    then vertex-transitive, with representatives [0], and InvariantViolation
    is raised otherwise. SizeCap, before any element is listed, where the
    group's q(q^2-1)/2 or q(q^2-1) vertices have more than 2^31 - 1 arcs."""
    q, d = params.q, params.degree
    graph_core._check_size(q * (q * q - 1) // (2 if params.psl_case else 1), d)
    elems = _group_elements(q, params.psl_case)
    place = q ** np.arange(3, -1, -1)  # sorted rows have sorted keys
    keys = elems @ place
    mats = elems.reshape(-1, 2, 2)

    def vertices(products: np.ndarray) -> np.ndarray:
        """The vertex of each product; InvariantViolation unless it is one."""
        prod = _canon(products.reshape(-1, 4) % q, q) @ place
        found = np.searchsorted(keys, prod)
        if not np.array_equal(keys[np.minimum(found, len(keys) - 1)], prod):
            raise InvariantViolation(f"a product with a generator lies outside {params.group}")
        return found

    rows = np.stack([vertices(mats @ s.reshape(2, 2))
                     for s in lps_generator_matrices(params)], axis=1)
    translation = vertices(np.array([[1, 1], [0, 1]]) @ mats)
    left = [[[1, 0], [1, 1]]]
    if not params.psl_case:
        nu = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
        left.append([[nu, 0], [0, 1]])
    automorphisms = [vertices(np.array(g) @ mats) for g in left]

    provenance = {
        "family": "lps",
        "p": params.p,
        "q": q,
        "group": params.group,
        "bipartite": not params.psl_case,
    }
    graph = RegularGraph(n=len(elems), d=d, indices=rows, provenance=provenance,
                         translation=translation, automorphisms=automorphisms)
    if graph.bipartite != (not params.psl_case):
        raise InvariantViolation("LPS bipartiteness disagrees with the residue test")
    if graph.representatives.size != 1:
        raise InvariantViolation(f"left multiplications leave {graph.representatives.size} "
                                 f"vertex orbits of {params.group}, not one")
    return graph


# --------------------------------------------------------------------------
# Random regular graphs (configuration model with rejection)
# --------------------------------------------------------------------------


def build_random_regular(n: int, d: int, seed: int) -> RegularGraph:
    """Simple connected d-regular graph on n vertices, rejection-sampled from
    the configuration model. All attempts draw from one default_rng(seed)
    stream, so different seeds give independent samples. A uniform pairing
    is simple with probability about e^{-(d^2-1)/4}, so at most
    ceil(20 e^{(d^2-1)/4}) pairings are drawn. Before any draw: UsageError
    unless check_regular(n, d) passes, n*d is even and seed >= 0, then
    SizeCap above 2^31 - 1 arcs or MAX_EXPECTED_ATTEMPTS (d >= 7)."""
    check_regular(n, d)
    if (n * d) % 2:
        raise UsageError(f"n*d must be even, got n={n}, d={d}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    graph_core._check_size(n, d)
    log_expected = (d * d - 1) / 4
    if log_expected > math.log(MAX_EXPECTED_ATTEMPTS):
        raise SizeCap(
            f"d={d} needs about e^{log_expected:g} pairings per simple graph, "
            f"more than {MAX_EXPECTED_ATTEMPTS:g}; random_regular takes d <= 6")
    budget = math.ceil(20 * math.exp(log_expected))
    provenance = {"family": "random_regular", "n": n, "d": d, "seed": seed}
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        stubs = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), d))
        u, v = stubs[0::2], stubs[1::2]
        if (u == v).any():
            continue
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * n + hi
        if np.unique(keys).size != keys.size:
            continue
        try:
            return graph_core.from_edges(n, d, np.stack([lo, hi], 1), provenance)
        except Disconnected:
            continue
    raise SamplingExhausted(
        f"no simple connected pairing in {budget} attempts (n={n}, d={d}, seed={seed})")


# --------------------------------------------------------------------------
# Random lifts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftSpec:
    """Random n-lift request: each base edge gets a uniform fiber matching."""

    base: RegularGraph
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise UsageError(f"cover number must be >= 1, got {self.n}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")


def build_random_lift(spec: LiftSpec) -> RegularGraph:
    """Uniform random lift: vertex (u, i) maps to u*n + i; each base edge
    {u, v} (u < v) is replaced by the matching i ~ sigma(i) between the
    fibers. A disconnected sample is redrawn from the same seeded stream.
    SizeCap, before any draw, where the lift's arcs exceed 2^31 - 1."""
    base, n = spec.base, spec.n
    graph_core._check_size(base.n * n, base.d)
    tails = np.repeat(np.arange(base.n, dtype=np.int64), base.d)
    provenance = {
        "family": "random_lift",
        "base": base.provenance or {"n": base.n, "d": base.d},
        "cover": n,
        "seed": spec.seed,
    }
    # Fiber i of base edge {u, v} (u < v) joins u*n + i to v*n + sigma(i),
    # one permutation sigma per base edge in base.edges() order.
    keep = tails < base.indices
    lo = (tails[keep, None] * n + np.arange(n)).ravel()
    hi_fiber = np.repeat(base.indices[keep].astype(np.int64) * n, n)
    rng = np.random.default_rng(spec.seed)
    for _ in range(RETRY_BUDGET):
        sigma = np.concatenate([rng.permutation(n) for _ in range(keep.sum())])
        try:
            return graph_core.from_edges(base.n * n, base.d,
                                         np.stack([lo, hi_fiber + sigma], 1), provenance)
        except Disconnected:
            continue
    raise SamplingExhausted(
        f"no connected lift in {RETRY_BUDGET} attempts (cover={n}, seed={spec.seed})")


# --------------------------------------------------------------------------
# Named graphs
# --------------------------------------------------------------------------

_NAME_RE = re.compile(r"^([a-z_]+)(?:\((\d+)\))?$")


def build_named(name: str) -> RegularGraph:
    """Named small graphs: complete(k), complete_bipartite(k), petersen;
    UsageError for another name or a degree below 3, as in complete(3)."""
    m = _NAME_RE.match(name.strip().lower())
    if not m:
        raise UsageError(f"cannot parse graph name {name!r}")
    base, arg = m.group(1), m.group(2)
    if base == "cycle":  # cycle(k) is 2-regular
        check_regular(None, 2)
    if base in ("complete", "complete_bipartite"):
        if arg is None:
            raise UsageError(f"{base}(k) needs its k, got {name!r}")
        k = int(arg)
        if base == "complete":
            edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
            return graph_core.from_edges(k, k - 1, edges, {"family": "complete", "k": k})
        edges = [(u, k + v) for u in range(k) for v in range(k)]
        return graph_core.from_edges(2 * k, k, edges,
                                     {"family": "complete_bipartite", "k": k})
    if base == "petersen":
        edges = []
        for i in range(5):
            edges.append((i, (i + 1) % 5))          # outer cycle
            edges.append((i, 5 + i))                # spokes
            edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        return graph_core.from_edges(10, 3, edges, {"family": "petersen"})
    raise UsageError(f"unknown graph name {name!r}")


# --------------------------------------------------------------------------
# Edge-list file I/O
# --------------------------------------------------------------------------


def save_graph(graph: RegularGraph, path: str):
    """Canonical text form: 'n d' header then 'u v' per edge, u < v, sorted.
    Round-trips bit-exactly. Provenance goes to a JSON sidecar."""
    lines = [f"{graph.n} {graph.d}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path + ".json", "w", newline="\n") as fh:
        json.dump({"provenance": graph.provenance, "n": graph.n, "d": graph.d,
                   "bipartite": graph.bipartite}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_graph(path: str) -> RegularGraph:
    """Load and fully revalidate a graph file written by save_graph."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1,
                         f"{path}: byte {exc.start} is not UTF-8 text") from None
    if not raw:
        raise ParseError(1, "empty file")
    header = raw[0].split()
    if len(header) != 2:
        raise ParseError(1, f"expected 'n d', got {raw[0]!r}")
    try:
        n, d = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(1, f"expected integers 'n d', got {raw[0]!r}") from None
    edges = []
    prev = (-1, -1)
    for lineno, line in enumerate(raw[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"expected integers, got {line!r}") from None
        if not (0 <= u < v < n):
            raise ParseError(lineno, f"need 0 <= u < v < n, got {u} {v}")
        if (u, v) <= prev:
            raise ParseError(lineno, "edges must be strictly sorted lexicographically")
        prev = (u, v)
        edges.append((u, v))
    try:
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
    except FileNotFoundError:
        sidecar = {}
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ParseError(getattr(exc, "lineno", 1), f"{path}.json: not JSON: {exc}") from None
    if not (isinstance(sidecar, dict) and isinstance(sidecar.get("provenance", {}), dict)):
        raise ParseError(1, f"{path}.json: not an object with an object 'provenance'")
    try:
        graph = graph_core.from_edges(n, d, edges, sidecar.get("provenance", {}))
    except RamlabError as exc:
        raise InvariantViolation(f"loaded graph fails invariants: {exc}") from exc
    if "bipartite" in sidecar and bool(sidecar["bipartite"]) != graph.bipartite:
        raise InvariantViolation(
            "recomputed bipartiteness disagrees with the provenance sidecar")
    return graph
