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
    BadParams,
    BaseHasSelfLoop,
    DegreeTooSmall,
    Disconnected,
    InvariantViolation,
    NonSimple,
    ParseError,
    RamlabError,
    SamplingExhausted,
    UnknownName,
)
from .graph_core import RegularGraph

RETRY_BUDGET = 100
MAX_EXPECTED_ATTEMPTS = 1e5  # of random_regular pairings per simple graph


# --------------------------------------------------------------------------
# LPS Cayley graphs
# --------------------------------------------------------------------------


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    return all(m % k for k in range(2, int(math.isqrt(m)) + 1))


def _sqrt_minus_one(q: int) -> int:
    for i in range(2, q):
        if (i * i) % q == q - 1:
            return i
    raise BadParams(f"-1 is not a square mod {q}; need q = 1 (mod 4)")


def _is_quadratic_residue(a: int, q: int) -> bool:
    a %= q
    return any((x * x) % q == a for x in range(1, q))


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
            raise BadParams(f"p={p}, q={q} must both be prime")
        if p % 4 != 1 or q % 4 != 1:
            raise BadParams("p and q must both be congruent to 1 mod 4")
        if p == q:
            raise BadParams("p and q must be distinct")
        if q * q <= 4 * p:
            raise BadParams(f"need q > 2*sqrt(p), got q={q}, p={p}")

    @property
    def degree(self) -> int:
        return self.p + 1

    @property
    def psl_case(self) -> bool:
        return _is_quadratic_residue(self.p, self.q)

    @property
    def group(self) -> str:
        return "PSL(2,%d)" % self.q if self.psl_case else "PGL(2,%d)" % self.q

    @property
    def expected_n(self) -> int:
        order = self.q * (self.q * self.q - 1)
        return order // 2 if self.psl_case else order


def _quaternion_generators(p: int):
    """The p+1 integer solutions of a0^2+a1^2+a2^2+a3^2 = p with a0 odd
    positive and a1, a2, a3 even."""
    sols = []
    r = int(math.isqrt(p))
    for a0 in range(1, r + 1, 2):
        for a1 in range(-r, r + 1):
            if a1 % 2:
                continue
            for a2 in range(-r, r + 1):
                if a2 % 2:
                    continue
                rem = p - a0 * a0 - a1 * a1 - a2 * a2
                if rem < 0:
                    continue
                a3 = int(math.isqrt(rem))
                if a3 * a3 == rem and a3 % 2 == 0:
                    for s3 in {a3, -a3}:
                        sols.append((a0, a1, a2, s3))
    sols = sorted(set(sols))
    if len(sols) != p + 1:
        raise BadParams(f"found {len(sols)} quaternion solutions for p={p}, expected {p + 1}")
    return sols


def _canon(m: tuple, q: int) -> tuple:
    """Projective canonical form: scale so the first nonzero entry is 1."""
    for x in m:
        if x % q:
            inv = pow(x, q - 2, q)
            return tuple((inv * y) % q for y in m)
    raise BadParams("zero matrix is not a group element")


def _matmul(a: tuple, b: tuple, q: int) -> tuple:
    return (
        (a[0] * b[0] + a[1] * b[2]) % q,
        (a[0] * b[1] + a[1] * b[3]) % q,
        (a[2] * b[0] + a[3] * b[2]) % q,
        (a[2] * b[1] + a[3] * b[3]) % q,
    )


def lps_generator_matrices(params: LpsParams):
    """Canonicalized generator set in PGL(2, F_q); closed under inversion."""
    p, q = params.p, params.q
    i = _sqrt_minus_one(q)
    gens = []
    for a0, a1, a2, a3 in _quaternion_generators(p):
        m = (
            (a0 + i * a1) % q,
            (a2 + i * a3) % q,
            (-a2 + i * a3) % q,
            (a0 - i * a1) % q,
        )
        gens.append(_canon(m, q))
    if len(set(gens)) != p + 1:
        raise NonSimple(f"generators collide in PGL(2,{q}); parameters too small")
    return gens


def build_lps(params: LpsParams) -> RegularGraph:
    """Connected (p+1)-regular LPS Cayley graph on PSL or PGL(2, F_q)."""
    q = params.q
    gens = lps_generator_matrices(params)
    identity = _canon((1, 0, 0, 1), q)

    # BFS orbit of the identity under right multiplication by the generators
    # (the loop visits what it appends); heads[d*k + j] is the position of
    # orbit[k] * gens[j]. Vertices are numbered in sorted element order.
    position = {identity: 0}
    orbit, heads = [identity], []
    for m in orbit:
        for s in gens:
            ms = _canon(_matmul(m, s, q), q)
            if ms not in position:
                position[ms] = len(orbit)
                orbit.append(ms)
            heads.append(position[ms])
    n, d = len(orbit), params.degree
    if n != params.expected_n:
        raise BadParams(f"generated group has order {n}, expected {params.expected_n}")
    order = np.array(sorted(range(n), key=orbit.__getitem__))  # vertex -> orbit position
    rows = np.argsort(order)[np.array(heads).reshape(n, d)[order]]

    provenance = {
        "family": "lps",
        "p": params.p,
        "q": q,
        "group": params.group,
        "bipartite": not params.psl_case,
    }
    graph = graph_core.from_adjacency(rows, d, provenance)
    if graph.bipartite != (not params.psl_case):
        raise InvariantViolation("LPS bipartiteness disagrees with the residue test")
    return graph


# --------------------------------------------------------------------------
# Random regular graphs (configuration model with rejection)
# --------------------------------------------------------------------------


def build_random_regular(n: int, d: int, seed: int) -> RegularGraph:
    """Simple connected d-regular graph on n vertices, rejection-sampled from
    the configuration model. All attempts draw from one default_rng(seed)
    stream, so different seeds give independent samples. A uniform pairing
    is simple with probability about e^{-(d^2-1)/4}, so at most
    ceil(20 e^{(d^2-1)/4}) pairings are drawn; where e^{(d^2-1)/4} exceeds
    MAX_EXPECTED_ATTEMPTS (d >= 7), SamplingExhausted is raised at once."""
    if d < 3:
        raise DegreeTooSmall(f"this package requires d >= 3, got d={d}")
    if (n * d) % 2:
        raise BadParams(f"n*d must be even, got n={n}, d={d}")
    if n <= d:
        raise BadParams(f"need n > d, got n={n}, d={d}")
    if seed < 0:
        raise BadParams(f"seed must be >= 0, got {seed}")
    log_expected = (d * d - 1) / 4
    if log_expected > math.log(MAX_EXPECTED_ATTEMPTS):
        raise SamplingExhausted(
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
            raise BadParams(f"cover number must be >= 1, got {self.n}")
        if self.seed < 0:
            raise BadParams(f"seed must be >= 0, got {self.seed}")


def build_random_lift(spec: LiftSpec) -> RegularGraph:
    """Uniform random lift: vertex (u, i) maps to u*n + i; each base edge
    {u, v} (u < v) is replaced by the matching i ~ sigma(i) between the
    fibers. A disconnected sample is redrawn from the same seeded stream."""
    base, n = spec.base, spec.n
    tails = np.repeat(np.arange(base.n, dtype=np.int64), base.d)
    if (tails == base.indices).any():
        raise BaseHasSelfLoop("lift base contains a self-loop")
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


def is_covering_map(lift: RegularGraph, base: RegularGraph, cover: int) -> bool:
    """Check that w -> w // cover is a locally bijective homomorphism."""
    if lift.n != base.n * cover or lift.d != base.d:
        return False
    projected = np.sort(lift.indices.reshape(-1, lift.d) // cover, axis=1)
    base_rows = base.indices.reshape(-1, base.d)[np.arange(lift.n) // cover]
    return bool(np.array_equal(projected, base_rows))


# --------------------------------------------------------------------------
# Named graphs
# --------------------------------------------------------------------------

_NAME_RE = re.compile(r"^([a-z_]+)(?:\((\d+)\))?$")


def build_named(name: str) -> RegularGraph:
    """Named small graphs: complete(k), complete_bipartite(k), petersen."""
    m = _NAME_RE.match(name.strip().lower())
    if not m:
        raise UnknownName(f"cannot parse graph name {name!r}")
    base, arg = m.group(1), m.group(2)
    k = int(arg) if arg is not None else None
    if base == "cycle":
        raise DegreeTooSmall("cycles have degree 2; this package requires d >= 3")
    if base == "complete":
        if k is None or k < 4:
            raise DegreeTooSmall(f"complete(k) needs k >= 4, got {k}")
        edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
        return graph_core.from_edges(k, k - 1, edges, {"family": "complete", "k": k})
    if base == "complete_bipartite":
        if k is None or k < 3:
            raise DegreeTooSmall(f"complete_bipartite(k) needs k >= 3, got {k}")
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
    raise UnknownName(f"unknown graph name {name!r}")


# --------------------------------------------------------------------------
# Edge-list file I/O
# --------------------------------------------------------------------------


def save_graph(graph: RegularGraph, path: str, sidecar: bool = True):
    """Canonical text form: 'n d' header then 'u v' per edge, u < v, sorted.
    Round-trips bit-exactly. Provenance goes to a JSON sidecar."""
    lines = [f"{graph.n} {graph.d}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if sidecar:
        with open(path + ".json", "w", newline="\n") as fh:
            json.dump({"provenance": graph.provenance, "n": graph.n, "d": graph.d,
                       "bipartite": graph.bipartite}, fh, sort_keys=True, indent=2)
            fh.write("\n")


def load_graph(path: str) -> RegularGraph:
    """Load and fully revalidate a graph file written by save_graph."""
    with open(path) as fh:
        raw = fh.read().splitlines()
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
    provenance = {}
    try:
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
        provenance = sidecar.get("provenance", {})
    except FileNotFoundError:
        sidecar = None
    try:
        graph = graph_core.from_edges(n, d, edges, provenance)
    except RamlabError as exc:
        raise InvariantViolation(f"loaded graph fails invariants: {exc}") from exc
    if sidecar is not None and "bipartite" in sidecar:
        if bool(sidecar["bipartite"]) != graph.bipartite:
            raise InvariantViolation(
                "recomputed bipartiteness disagrees with the provenance sidecar")
    return graph
