import json

import numpy as np
import pytest

import oracles
from ramlab import builders, graph_core
from ramlab.builders import LiftSpec, LpsParams
from ramlab.errors import (
    Disconnected,
    InvariantViolation,
    ParseError,
    SizeCap,
    UsageError,
)


# --- LPS Cayley graphs ------------------------------------------------------


def test_lps_params_validation():
    with pytest.raises(UsageError):
        LpsParams(4, 13)           # p not prime
    with pytest.raises(UsageError):
        LpsParams(5, 11)           # q = 3 mod 4
    with pytest.raises(UsageError):
        LpsParams(5, 5)            # p = q
    with pytest.raises(UsageError):
        LpsParams(13, 5)           # q <= 2 sqrt(p)


def test_lps_generators_symmetric():
    q = 13
    gens = builders.lps_generator_matrices(LpsParams(5, q))
    assert gens.shape == (6, 4)
    assert np.array_equal(builders._canon(gens, q), gens)
    # closed under inversion: the adjugate of each generator is again one
    adjugate = builders._canon(gens[:, [3, 1, 2, 0]] * [1, -1, -1, 1] % q, q)
    assert np.array_equal(np.unique(adjugate, axis=0), np.unique(gens, axis=0))


def test_psl_case_matches_residue_scan():
    primes = [m for m in range(5, 120, 4) if builders._is_prime(m)]
    for p in primes:
        for q in primes:
            if p != q and q * q > 4 * p:
                squares = {x * x % q for x in range(1, q)}
                assert LpsParams(p, q).psl_case == (p % q in squares), (p, q)


@pytest.mark.parametrize("p, q", [(5, 13), (5, 17), (5, 29), (13, 17), (17, 13)])
def test_lps_matches_orbit_oracle(p, q):
    rows, provenance = oracles.lps_orbit(p, q)
    indices, bipartition = oracles.regular_graph_loop(rows, p + 1)
    g = builders.build_lps(LpsParams(p, q))
    assert g.indices.dtype == indices.dtype and g.indices.tobytes() == indices.tobytes()
    if bipartition is None:
        assert g.bipartition is None
    else:
        assert g.bipartition.dtype == bipartition.dtype
        assert g.bipartition.tobytes() == bipartition.tobytes()
    assert json.dumps(g.provenance) == json.dumps(provenance)


@pytest.mark.parametrize("p, q", [(5, 13), (5, 17), (5, 29), (13, 17), (17, 13)])
def test_lps_translation_matches_oracle(p, q):
    # left multiplication by [[1, 1], [0, 1]]: orbits of size q, sigma read
    # back from the table equal to the tuple-arithmetic oracle
    g = builders.build_lps(LpsParams(p, q))
    assert g.orbits.shape == (g.n // q, q) and g.orbits.dtype == np.int32
    assert not g.orbits.flags.writeable
    with pytest.raises(ValueError):
        g.orbits[0, 0] = 1
    sigma = np.empty(g.n, dtype=np.int64)
    sigma[g.orbits] = np.roll(g.orbits, -1, axis=1)
    assert sigma.tolist() == oracles.lps_translation(p, q)
    assert np.array_equal(g.orbits[:, 0], np.sort(g.orbits.min(axis=1)))


@pytest.mark.parametrize("kept, orbits", [(0, 168), (1, 2)])
def test_lps_refuses_more_than_one_orbit(monkeypatch, kept, orbits):
    # the translation alone leaves n/q orbits, and u and w without diag(nu, 1)
    # leave the two cosets of PSL in PGL
    def fewer(*args, automorphisms, **kwargs):
        return graph_core.RegularGraph(*args, automorphisms=automorphisms[:kept], **kwargs)

    monkeypatch.setattr(builders, "RegularGraph", fewer)
    with pytest.raises(InvariantViolation,
                       match=rf"leave {orbits} vertex orbits of PGL\(2,13\), not one"):
        builders.build_lps(LpsParams(5, 13))


def test_lps_generators_must_generate_the_group(monkeypatch):
    # 5 is a square mod 29: the generators reach only PSL(2,29), half of PGL(2,29)
    monkeypatch.setattr(LpsParams, "psl_case", property(lambda self: False))
    with pytest.raises(Disconnected):
        builders.build_lps(LpsParams(5, 29))


def test_lps_products_must_stay_in_the_group(monkeypatch):
    # 5 is not a square mod 13: each generator maps PSL(2,13) to its other coset
    monkeypatch.setattr(LpsParams, "psl_case", property(lambda self: True))
    with pytest.raises(InvariantViolation, match=r"outside PSL\(2,13\)"):
        builders.build_lps(LpsParams(5, 13))


def test_lps_5_13(lps13):
    assert (lps13.n, lps13.d) == (2184, 6)
    assert lps13.bipartite
    assert lps13.provenance["group"] == "PGL(2,13)"


def test_lps_5_17():
    g = builders.build_lps(LpsParams(5, 17))
    assert (g.n, g.d) == (4896, 6)
    assert g.bipartite


def test_lps_5_29(lps29):
    assert (lps29.n, lps29.d) == (12180, 6)
    assert not lps29.bipartite
    assert lps29.provenance["group"] == "PSL(2,29)"


def test_lps_vertex_transitive_profiles(lps13):
    # vertex-transitivity spot check: identical distance histograms from
    # 10 random sources
    rng = np.random.default_rng(1)
    base = graph_core.distance_profile(lps13, 0, 0.0)["histogram"].tolist()
    for x in rng.choice(lps13.n, 10, replace=False):
        hist = graph_core.distance_profile(lps13, int(x), 0.0)["histogram"].tolist()
        assert hist == base


# --- random regular graphs --------------------------------------------------


def test_random_regular_k4():
    # the only simple 3-regular graph on 4 vertices
    for seed in (0, 1, 2):
        g = builders.build_random_regular(4, 3, seed)
        assert g.indices.tolist() == builders.build_named("complete(4)").indices.tolist()


def test_random_regular_invariants():
    g = builders.build_random_regular(100, 3, 1)
    assert (g.n, g.d) == (100, 3)
    # construction already validates; re-run the indexer as a cross-check
    graph_core.validate_and_index(g)


def test_random_regular_deterministic():
    a = builders.build_random_regular(60, 4, 9)
    b = builders.build_random_regular(60, 4, 9)
    assert np.array_equal(a.indices, b.indices)


def test_random_regular_seeds_give_distinct_graphs():
    # one stream per seed: a retry must not land on the next seed's graph
    graphs = {builders.build_random_regular(600, 3, seed).indices.tobytes()
              for seed in range(1, 6)}
    assert len(graphs) == 5


@pytest.mark.parametrize("n, d", [(60, 4), (100, 5)])
def test_random_regular_budget_grows_with_degree(n, d):
    for seed in range(20):
        assert builders.build_random_regular(n, d, seed).d == d


def test_random_regular_refuses_degree_seven_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(SizeCap, match="d=7"):
        builders.build_random_regular(100, 7, 0)


@pytest.mark.parametrize("n, d", [(5, -2), (10, -1), (10, 0), (5, 1), (10, 2)])
def test_random_regular_refuses_degree_below_three_before_sampling(monkeypatch, n, d):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(UsageError, match=f"d={d}"):
        builders.build_random_regular(n, d, 0)


def test_random_regular_rejects_odd_total():
    with pytest.raises(UsageError):
        builders.build_random_regular(5, 3, 0)


# --- random lifts -------------------------------------------------------------


def test_identity_lift_is_base(k4):
    lifted = builders.build_random_lift(LiftSpec(base=k4, n=1, seed=0))
    assert lifted.indices.tolist() == k4.indices.tolist()


def test_lift_projects_onto_base(k4):
    lifted = builders.build_random_lift(LiftSpec(base=k4, n=2, seed=0))
    assert (lifted.n, lifted.d) == (8, 3)
    assert oracles.is_covering_map(lifted, k4, 2)


def test_lift20_covering_map(lift20, petersen):
    assert (lift20.n, lift20.d) == (200, 3)
    assert oracles.is_covering_map(lift20, petersen, 20)


def test_covering_map_rejects_non_cover(lift20, petersen):
    assert not oracles.is_covering_map(builders.build_random_regular(200, 3, 0), petersen, 20)
    # swapping two vertices of different fibers breaks the projection
    perm = np.arange(200)
    perm[[0, 199]] = [199, 0]
    rows = perm[lift20.indices.reshape(200, 3)][perm]
    swapped = graph_core.RegularGraph(n=200, d=3, indices=rows.ravel())
    assert not oracles.is_covering_map(swapped, petersen, 20)


def test_lift_deterministic(petersen):
    a = builders.build_random_lift(LiftSpec(petersen, 7, 3))
    b = builders.build_random_lift(LiftSpec(petersen, 7, 3))
    assert np.array_equal(a.indices, b.indices)


# --- named graphs -------------------------------------------------------------


def test_named_complete(k4):
    assert (k4.n, k4.d) == (4, 3)


def test_named_petersen(petersen):
    assert (petersen.n, petersen.d) == (10, 3)
    assert graph_core.graph_metrics(petersen)["girth"] == 5


def test_named_cycle_rejected():
    with pytest.raises(UsageError):
        builders.build_named("cycle")


def test_named_unknown():
    with pytest.raises(UsageError):
        builders.build_named("dodecahedron")


# --- file I/O -----------------------------------------------------------------


def test_roundtrip_bit_exact(tmp_path, k4, petersen, lps13):
    for g in (k4, petersen, lps13):
        path = tmp_path / "g.edges"
        builders.save_graph(g, str(path))
        text1 = path.read_bytes()
        loaded = builders.load_graph(str(path))
        assert np.array_equal(loaded.indices, g.indices)
        builders.save_graph(loaded, str(path))
        assert path.read_bytes() == text1


def test_load_recomputes_bipartite_flag(tmp_path, lps13):
    path = tmp_path / "lps.edges"
    builders.save_graph(lps13, str(path))
    loaded = builders.load_graph(str(path))
    assert loaded.bipartite
    assert loaded.provenance == lps13.provenance


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("not a header\n0 1\n")
    with pytest.raises(ParseError) as err:
        builders.load_graph(str(path))
    assert err.value.line == 1


def test_malformed_edge_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("4 3\n0 1\n0 2\n0 x\n")
    with pytest.raises(ParseError) as err:
        builders.load_graph(str(path))
    assert err.value.line == 4


def test_unsorted_edges_rejected(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("4 3\n0 2\n0 1\n0 3\n1 2\n1 3\n2 3\n")
    with pytest.raises(ParseError):
        builders.load_graph(str(path))


@pytest.mark.parametrize("sidecar", ['{"provenance": {"family": ', "\xff", "[1, 2]",
                                     '{"provenance": [1]}', '{"provenance": "lps"}'],
                         ids=["truncated", "not_utf8", "list", "provenance_list",
                              "provenance_string"])
def test_malformed_sidecar_is_a_parse_error(tmp_path, k4, sidecar):
    path = tmp_path / "g.edges"
    builders.save_graph(k4, str(path))
    (tmp_path / "g.edges.json").write_text(sidecar, encoding="latin-1")
    with pytest.raises(ParseError, match="g.edges.json"):
        builders.load_graph(str(path))


def test_non_utf8_graph_file_is_a_parse_error(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"4 3\n0 1\xff\n")
    with pytest.raises(ParseError, match="g.edges") as err:
        builders.load_graph(str(path))
    assert err.value.line == 2


def test_invariant_violation_on_load(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("4 3\n0 1\n0 2\n1 2\n")  # not 3-regular
    with pytest.raises(InvariantViolation):
        builders.load_graph(str(path))
