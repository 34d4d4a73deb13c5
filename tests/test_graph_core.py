import re
import tracemalloc

import numpy as np
import pytest

import oracles
from ramlab import builders, graph_core, theory
from ramlab.builders import LiftSpec, LpsParams
from ramlab.errors import (
    Asymmetric,
    Disconnected,
    InvariantViolation,
    IrregularGraph,
    NonSimple,
    RamlabError,
    SelfLoop,
    SizeCap,
    UsageError,
)


def test_k4_edge_space(k4):
    rev = graph_core.validate_and_index(k4)
    assert rev.shape == (12,) and rev.dtype == np.int32 and not rev.flags.writeable
    assert np.array_equal(rev[rev], np.arange(12))
    assert (rev != np.arange(12)).all()  # fixed-point free
    # the tail of the reverse is the head
    assert np.array_equal(rev // k4.d, k4.indices)


def test_petersen_edge_space(petersen):
    rev = graph_core.validate_and_index(petersen)
    assert rev.shape == (30,)
    assert np.array_equal(rev[rev], np.arange(30))


def test_edge_id_convention(petersen):
    # id = d*u + rank of head in u's sorted neighbor list, so the reverse of
    # e = (u, v) is d*v + rank of u in v's list
    rev = graph_core.validate_and_index(petersen)
    d = petersen.d
    for e in range(petersen.n * d):
        u, v = e // d, petersen.indices[e]
        assert rev[e] // d == v
        assert petersen.indices[rev[e]] == u


def test_ids_partition_by_tail(lift20):
    # the reverse of e lies in the id block d*v .. d*v + d - 1 of its head v
    rev = graph_core.validate_and_index(lift20)
    head = lift20.indices.astype(np.int64)
    d = lift20.d
    assert np.all(head * d <= rev)
    assert np.all(rev < (head + 1) * d)


def test_bfs_k4(k4):
    assert graph_core.bfs_distances(k4, 0).tolist() == [0, 1, 1, 1]


def test_bfs_petersen_diameter_two(petersen):
    for x in range(10):
        assert graph_core.bfs_distances(petersen, x).max() == 2


def test_bfs_matches_dict_oracle(rand3_50, lift20):
    for g in (rand3_50, lift20):
        adj = oracles.adjacency_dict(g)
        for x in (0, g.n // 2, g.n - 1):
            expected = oracles.bfs_dict(adj, x)
            got = graph_core.bfs_distances(g, x)
            assert [got[v] for v in range(g.n)] == [expected[v] for v in range(g.n)]


def test_bfs_source_range(k4):
    with pytest.raises(UsageError):
        graph_core.bfs_distances(k4, 4)


def test_metrics_small(k4, k33, petersen):
    assert graph_core.graph_metrics(k4) == {"diameter": 1, "girth": 3, "bipartite": False}
    assert graph_core.graph_metrics(k33) == {"diameter": 2, "girth": 4, "bipartite": True}
    assert graph_core.graph_metrics(petersen) == {"diameter": 2, "girth": 5,
                                                  "bipartite": False}


def test_metrics_match_oracles(rand3_50, lift20, c6_x_k4):
    for g in (rand3_50, lift20, c6_x_k4):
        adj = oracles.adjacency_dict(g)
        m = graph_core.graph_metrics(g)
        assert m["diameter"] == oracles.diameter_dict(adj)
        assert m["girth"] == oracles.girth_edge_removal(adj)


def test_distance_profile_k4(k4):
    prof = graph_core.distance_profile(k4, 0, 0.0)
    # distances {0,1,1,1} all differ from log_2 4 = 2, so every vertex exceeds
    assert prof["histogram"].tolist() == [1, 3]
    assert prof["exceedance"] == 4
    assert prof["exceedance_fraction"] == 1.0
    assert prof["median"] == 1


def test_distance_profile_full_window(test_graphs):
    for g in test_graphs.values():
        prof = graph_core.distance_profile(g, 0, float(g.n))
        assert prof["exceedance"] == 0
        assert prof["histogram"].sum() == g.n


def test_histogram_growth_bound(test_graphs):
    # sphere sizes in a d-regular graph: hist[l] <= d (d-1)^(l-1)
    for g in test_graphs.values():
        prof = graph_core.distance_profile(g, 0, 0.0)
        for level, count in enumerate(prof["histogram"]):
            if level == 0:
                assert count == 1
            else:
                assert count <= g.d * (g.d - 1) ** (level - 1)


def test_diameter_volume_lower_bound(test_graphs):
    for g in test_graphs.values():
        lb = theory.diameter_volume_lower_bound(g.n, g.d)
        assert graph_core.graph_metrics(g)["diameter"] >= lb


def test_bipartition_crosses_every_edge(k33, lps13):
    for g in (k33, lps13):
        side = g.bipartition
        tails = np.repeat(np.arange(g.n), g.d)
        assert np.all(side[tails] != side[g.indices])


def test_rejects_irregular():
    with pytest.raises(IrregularGraph):
        graph_core.from_edges(4, 3, [(0, 1), (0, 2), (0, 3), (1, 2)])


def test_rejects_self_loop():
    adj = [[0, 1, 2], [0, 2, 3], [0, 1, 3], [1, 2, 0]]
    with pytest.raises(SelfLoop):
        graph_core.RegularGraph(n=4, d=3, indices=np.array(adj).ravel())


def test_rejects_parallel_edge():
    adj = [[1, 1, 2], [0, 0, 2], [0, 1, 3], [2, 0, 1]]
    with pytest.raises(NonSimple):
        graph_core.RegularGraph(n=4, d=3, indices=np.array(adj).ravel())


def test_rejects_asymmetric():
    adj = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 1]]
    with pytest.raises((Asymmetric, NonSimple)):
        graph_core.RegularGraph(n=4, d=3, indices=np.array(adj).ravel())


def test_asymmetric_rows_name_the_edge():
    # 4 lists 2 but 2 does not list 4: no graph with these rows can be made,
    # so none reaches an NBRW entry point
    rows = [[1, 2, 3], [0, 2, 4], [0, 1, 3], [0, 2, 4], [1, 2, 3]]
    with pytest.raises(Asymmetric, match=r"edge \(4, 2\)"):
        graph_core.RegularGraph(n=5, d=3, indices=np.array(rows, np.int32).ravel())


@pytest.mark.parametrize("n, d, edges", [(3, 2, [(0, 1), (0, 2), (1, 2)]), (2, 1, [(0, 1)])])
def test_rejects_degree_below_three(n, d, edges):
    with pytest.raises(UsageError):
        graph_core.from_edges(n, d, edges)


def test_rejects_more_arcs_than_int32_ids():
    # 3 * 2**30 arcs would wrap the int32 rev; refused before indices is read
    with pytest.raises(SizeCap, match=r"^n\*d = 3221225472 arcs exceed "):
        graph_core.RegularGraph(n=2**30, d=3, indices=np.empty(0, np.int32))


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_working_memory(petersen):
    # the graph keeps 8 bytes per arc (indices, rev); the build may hold a few
    # more N-size arrays at once, but no (N, d) array or second int64 copy
    g = builders.build_random_lift(LiftSpec(base=petersen, n=2000, seed=0))
    arcs = g.n * g.d
    pairs = np.array(g.edges(), dtype=np.int64)
    rows = np.ascontiguousarray(g.indices.reshape(g.n, g.d)[:, ::-1])
    assert _traced_peak(lambda: graph_core.from_edges(g.n, g.d, pairs)) <= 36 * arcs
    assert _traced_peak(lambda: graph_core.RegularGraph(n=g.n, d=g.d, indices=rows)) <= 24 * arcs


def test_rejects_disconnected():
    # two disjoint copies of K4
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges]
    with pytest.raises(Disconnected):
        graph_core.from_edges(8, 3, edges)


@pytest.mark.parametrize("edges, named", [
    ([(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3)], r"edge \(0, 4\)"),
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, -1)], r"edge \(2, -1\)"),
], ids=["above", "negative"])
def test_from_edges_rejects_endpoint_outside(edges, named):
    with pytest.raises(IrregularGraph, match=named + r" has an endpoint outside \[0, 4\)"):
        graph_core.from_edges(4, 3, edges)


@pytest.mark.parametrize("edges, got", [
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3.9)],
     r"an array of shape \(6, 2\) and dtype float64"),
    ([(0, 1, 2)], r"an array of shape \(1, 3\) and dtype int64"),
    ([(0, 1), (0, 1, 2)], r"a ragged sequence"),
], ids=["float_endpoint", "triple", "ragged"])
def test_from_edges_rejects_non_integer_pairs(edges, got):
    # an endpoint 3.9 is refused, not truncated to 3
    with pytest.raises(IrregularGraph, match=r"^edges must be \(u, v\) integer pairs, "
                                             r"got " + got + "$"):
        graph_core.from_edges(4, 3, edges)


def test_constructor_rejects_wrong_number_of_entries():
    with pytest.raises(IrregularGraph,
                       match=r"^indices must hold n\*d = 30 integers, got 5 of dtype int64$"):
        graph_core.RegularGraph(n=10, d=3, indices=np.arange(5))
    # a ragged sequence of rows, vertex 1 short of a neighbour
    with pytest.raises(IrregularGraph,
                       match=r"^indices must hold n\*d = 12 integers, got a ragged sequence$"):
        graph_core.RegularGraph(n=4, d=3, indices=[[1, 2, 3], [0, 2], [0, 1, 3], [0, 1, 2]])


def test_constructor_rejects_float_entry(petersen):
    # 1.7 in place of vertex 0's neighbour 1 is refused, not truncated to 1
    indices = petersen.indices.astype(float)
    indices[0] += 0.7
    with pytest.raises(IrregularGraph,
                       match=r"^indices must hold n\*d = 30 integers, got 30 of dtype float64$"):
        graph_core.RegularGraph(n=10, d=3, indices=indices)


@pytest.fixture(scope="module")
def constructed_graphs(test_graphs, lps29, c6_x_k4, criterion1_graphs, petersen):
    graphs = dict(test_graphs, lps29=lps29, c6_x_k4=c6_x_k4, **criterion1_graphs)
    graphs["lift200"] = builders.build_random_lift(LiftSpec(base=petersen, n=200, seed=0))
    return graphs


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_constructor_matches_loop_oracle(constructed_graphs):
    # every builder's graph has the indices and bipartition that the
    # per-vertex reference constructor gives for its edges
    for name, g in constructed_graphs.items():
        indices, bipartition = oracles.regular_graph_loop(
            oracles.rows_from_edges(g.n, g.edges()), g.d)
        assert _same_bits(g.indices, indices), name
        assert _same_bits(g.bipartition, bipartition), name


def test_from_edges_ignores_order_and_orientation(constructed_graphs):
    rng = np.random.default_rng(0)
    for name, g in constructed_graphs.items():
        edges = rng.permutation(np.array(g.edges()))
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        for form in (edges, edges.tolist()):
            h = graph_core.from_edges(g.n, g.d, form)
            assert _same_bits(h.indices, g.indices), name
            assert _same_bits(h.bipartition, g.bipartition), name


def _inject(rows, fault, u):
    """Petersen rows with one fault at vertex u, and the error it raises."""
    rows = [list(r) for r in rows]
    v = rows[u][0]
    if fault == "degree":
        rows[u] = rows[u][1:]
        return rows, IrregularGraph
    if fault == "self_loop":
        rows[u][0] = u
        return rows, SelfLoop
    if fault == "parallel":
        rows[u][1] = v
        return rows, NonSimple
    if fault in ("above", "negative"):
        rows[u][0] = len(rows) if fault == "above" else -1
        return rows, IrregularGraph
    if fault == "wide":  # out of range, but not once cast to int32
        if u % 2 == 0:  # an int64 2**32 + v, which the cast wraps back to v
            rows[u][0] = 2**32 + v
            return rows, IrregularGraph
        # the largest uint64, every entry a uint64 so the rows stay unsigned
        rows[u][0] = 2**64 - 1
        return [[np.uint64(w) for w in r] for r in rows], IrregularGraph
    # asymmetric: u lists w in place of v, so neither v -> u nor u -> w has
    # a reverse; the first such arc has tail min(u, v)
    rows[u][0] = next(w for w in range(len(rows)) if w != u and w not in rows[u])
    return rows, Asymmetric


# an (n, d) array has no row of another length
_FAULTS = [(fault, form)
           for fault in ["degree", "self_loop", "parallel", "above", "negative", "wide",
                         "asymmetric"]
           for form in ["list", "dict", "array"] if (fault, form) != ("degree", "array")]


@pytest.mark.parametrize("fault", ["self_loop", "parallel", "above", "negative", "wide",
                                   "asymmetric", "disconnected"])
def test_constructor_raises_as_loop_oracle(petersen, fault):
    # a RegularGraph made from unsorted rows with one fault raises the
    # error, word for word, that the per-vertex loop oracle raises for them
    if fault == "disconnected":  # two disjoint copies of K4
        rows = [[v + 4 * (u // 4) for v in range(4) if v != u % 4] for u in range(8)]
    else:
        rows, _ = _inject(petersen.indices.reshape(10, 3).tolist(), fault, 4)
    rows = [row[::-1] for row in rows]
    with pytest.raises(RamlabError) as expected:
        oracles.regular_graph_loop(rows, 3)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        graph_core.RegularGraph(n=len(rows), d=3, indices=np.array(rows).ravel())


def test_graph_carries_its_reversal(constructed_graphs):
    for name, g in constructed_graphs.items():
        assert graph_core.validate_and_index(g) is g.rev, name
        expected = oracles.reversal_dict(oracles.adjacency_dict(g), g.d)
        assert g.rev.dtype == np.int32 and g.rev.tolist() == expected, name
        for values in (g.indices, g.rev, g.bipartition):
            if values is not None:
                with pytest.raises(ValueError, match="read-only"):
                    values[0] = 0


def test_bipartition_is_not_a_constructor_argument(k33):
    with pytest.raises(TypeError):
        graph_core.RegularGraph(n=6, d=3, indices=k33.indices,
                                bipartition=k33.bipartition)


@pytest.mark.parametrize("u", [0, 4, 9])
@pytest.mark.parametrize("fault, form", _FAULTS)
def test_single_fault_names_first_vertex(petersen, fault, form, u):
    # the loop oracle reads the rows as given, the constructor reads them
    # one after another as n*d integers
    rows, error = _inject(petersen.indices.reshape(10, 3).tolist(), fault, u)
    first = min(u, int(petersen.indices[3 * u])) if fault == "asymmetric" else u
    adj = dict(enumerate(rows)) if form == "dict" else np.array(rows) if form == "array" else rows
    named = rf"^(?:vertex |edge \(){first}\b"
    with pytest.raises(error, match=named):
        oracles.regular_graph_loop(adj, 3)
    if fault == "degree":  # a short row leaves 29 integers, which name no vertex
        named = r"^indices must hold n\*d = 30 integers, got 29 "
    with pytest.raises(error, match=named):
        graph_core.RegularGraph(n=10, d=3, indices=[v for w in range(10) for v in adj[w]])


def test_array_of_wrong_width_names_vertex_zero(petersen):
    # 40 integers for n*d = 30 are refused whole, before any row is read
    rows = np.hstack([petersen.indices.reshape(10, 3), np.zeros((10, 1), np.int32)])
    with pytest.raises(IrregularGraph, match=r"^indices must hold n\*d = 30 integers, got 40 "):
        graph_core.RegularGraph(n=10, d=3, indices=rows)


def test_graph_immutable(k4):
    with pytest.raises(ValueError):
        k4.indices[0] = 5


# --- translations -------------------------------------------------------------

_PETERSEN_ROTATION = [1, 2, 3, 4, 0, 6, 7, 8, 9, 5]  # i -> i+1 on both 5-cycles


def _with_translation(graph, translation):
    return graph_core.RegularGraph(n=graph.n, d=graph.d, indices=graph.indices,
                                   provenance=graph.provenance, translation=translation)


def test_translation_orbit_table(petersen):
    g = _with_translation(petersen, _PETERSEN_ROTATION)
    assert g.orbits.tolist() == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert g.orbits.dtype == np.int32 and not g.orbits.flags.writeable
    assert petersen.orbits is None
    assert g.indices.tobytes() == petersen.indices.tobytes()


@pytest.mark.parametrize("translation", [
    [1, 2, 3, 4, 0, 6, 7, 8, 9],              # too short
    [1, 2, 3, 4, 0, 6, 7, 8, 9, 9],           # not one-to-one
    [1, 2, 3, 4, 0, 6, 7, 8, 9, 10],          # outside [0, n)
    [1, 2, 3, 4, 0, 6, 7, 8, 9, -5],          # negative
    np.array(_PETERSEN_ROTATION, dtype=float),
], ids=["short", "repeat", "above", "negative", "float"])
def test_translation_must_be_a_permutation(petersen, translation):
    with pytest.raises(InvariantViolation, match="not a permutation"):
        _with_translation(petersen, translation)


def test_translation_must_be_an_automorphism(petersen):
    swap = list(range(10))
    swap[0], swap[1] = 1, 0  # the edge {0, 4} would go to {1, 4}
    with pytest.raises(InvariantViolation, match="not an automorphism"):
        _with_translation(petersen, swap)


@pytest.mark.parametrize("name, translation, sizes", [
    ("petersen", [0, 4, 3, 2, 1, 5, 9, 8, 7, 6], "[1, 2]"),  # reflection: fixes 0, 5
    ("complete(5)", [1, 0, 3, 4, 2], "[2, 3]"),               # no fixed point
    ("petersen", list(range(10)), "[1]"),                     # the identity
], ids=["fixed_points", "unequal_orbits", "identity"])
def test_translation_must_act_freely(name, translation, sizes):
    graph = builders.build_named(name)
    with pytest.raises(InvariantViolation, match=re.escape(f"orbits have sizes {sizes}")):
        _with_translation(graph, translation)


# --- automorphism groups --------------------------------------------------------

# outer i -> inner 5 + 2i, inner 5 + i -> outer 2i (mod 5): swaps the two 5-cycles
_PETERSEN_SWAP = [5, 7, 9, 6, 8, 0, 2, 4, 1, 3]


def _c6_x_k4_group(c6_x_k4, k4_cycle):
    shift = (np.arange(24) + 4) % 24  # (i, j) -> (i + 1, j)
    cycle = [4 * (v // 4) + (v + 1) % 4 for v in range(24)]  # (i, j) -> (i, j + 1)
    return graph_core.RegularGraph(n=24, d=5, indices=c6_x_k4.indices, translation=shift,
                                   automorphisms=[cycle] if k4_cycle else [])


@pytest.mark.parametrize("automorphism", [
    [1, 2, 3, 4, 0, 6, 7, 8, 9, 9],           # not one-to-one
    [1, 2, 3, 4, 0, 6, 7, 8, 9, -5],          # negative
    np.array(_PETERSEN_ROTATION, dtype=float),
], ids=["repeat", "negative", "float"])
def test_automorphisms_must_be_permutations(petersen, automorphism):
    with pytest.raises(InvariantViolation, match=r"^automorphisms\[1\] is not a permutation"):
        graph_core.RegularGraph(n=10, d=3, indices=petersen.indices,
                                automorphisms=[_PETERSEN_SWAP, automorphism])


def test_automorphisms_must_map_rows_onto_rows(petersen):
    swap = list(range(10))
    swap[0], swap[1] = 1, 0  # the edge {0, 4} would go to {1, 4}
    with pytest.raises(InvariantViolation, match=r"^automorphisms\[0\] is not an automorphism"):
        graph_core.RegularGraph(n=10, d=3, indices=petersen.indices, automorphisms=[swap])


@pytest.mark.parametrize("translation, automorphisms, representatives", [
    (_PETERSEN_ROTATION, [], [0, 5]),
    (None, [_PETERSEN_ROTATION], [0, 5]),
    (None, [[0, 4, 3, 2, 1, 5, 9, 8, 7, 6]], [0, 1, 2, 5, 6, 7]),  # a reflection
    (_PETERSEN_ROTATION, [_PETERSEN_SWAP], [0]),
    (None, [_PETERSEN_SWAP], [0, 1, 2]),
], ids=["rotation", "rotation_as_automorphism", "reflection", "rotation_and_swap", "swap"])
def test_representatives_are_the_smallest_vertex_of_each_orbit(
        petersen, translation, automorphisms, representatives):
    g = graph_core.RegularGraph(n=10, d=3, indices=petersen.indices, translation=translation,
                                automorphisms=automorphisms)
    assert g.representatives.tolist() == representatives
    assert g.representatives.dtype == np.int32 and not g.representatives.flags.writeable


def test_lps_graphs_are_one_orbit(lps13, lps29):
    for g in (lps13, builders.build_lps(LpsParams(5, 17)), lps29):
        assert g.representatives.tolist() == [0]


def test_graphs_without_a_group_keep_no_representatives(test_graphs, c6_x_k4):
    for name in ("k4", "k33", "petersen", "rand3_50", "lift20"):
        assert test_graphs[name].representatives is None, name
    assert c6_x_k4.representatives is None


@pytest.mark.parametrize("name", ["lps13", "lps29", "petersen", "c6_x_k4", "c6_x_k4_cycle"])
def test_metrics_from_representatives_equal_the_all_sources_sweep(request, name):
    if name == "petersen":
        g = _with_translation(request.getfixturevalue(name), _PETERSEN_ROTATION)
        assert g.representatives.tolist() == [0, 5]
    elif name.startswith("c6_x_k4"):
        g = _c6_x_k4_group(request.getfixturevalue("c6_x_k4"), name.endswith("cycle"))
        assert g.representatives.tolist() == ([0] if name.endswith("cycle") else [0, 1, 2, 3])
    else:
        g = request.getfixturevalue(name)
    ecc, girth = graph_core._eccentricities_and_girth(g.indices, g.d, np.arange(g.n))
    assert graph_core.graph_metrics(g) == {"diameter": int(ecc.max()), "girth": girth,
                                           "bipartite": g.bipartite}
