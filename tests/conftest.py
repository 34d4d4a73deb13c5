import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ramlab import builders, graph_core
from ramlab.builders import LiftSpec, LpsParams


@pytest.fixture(scope="session")
def k4():
    return builders.build_named("complete(4)")


@pytest.fixture(scope="session")
def k33():
    return builders.build_named("complete_bipartite(3)")


@pytest.fixture(scope="session")
def petersen():
    return builders.build_named("petersen")


@pytest.fixture(scope="session")
def rand3_50():
    return builders.build_random_regular(50, 3, 100)


@pytest.fixture(scope="session")
def lift20(petersen):
    return builders.build_random_lift(LiftSpec(base=petersen, n=20, seed=5))


@pytest.fixture(scope="session")
def lps13():
    return builders.build_lps(LpsParams(5, 13))


@pytest.fixture(scope="session")
def lps29():
    return builders.build_lps(LpsParams(5, 29))


@pytest.fixture(scope="session")
def c6_x_k4():
    """Cartesian product C6 x K4: 5-regular with adjacency eigenvalue
    4 = 2 sqrt(d-1) exactly, exercising the Jordan branch."""
    edges = set()

    def vid(i, j):
        return i * 4 + j

    for i in range(6):
        for j in range(4):
            for j2 in range(j + 1, 4):
                edges.add((vid(i, j), vid(i, j2)))
            u, v = vid(i, j), vid((i + 1) % 6, j)
            edges.add((min(u, v), max(u, v)))
    return graph_core.from_edges(24, 5, sorted(edges), {"family": "c6_x_k4"})


@pytest.fixture(scope="session")
def small_graphs(k4, k33, petersen):
    return {"k4": k4, "k33": k33, "petersen": petersen}


@pytest.fixture(scope="session")
def test_graphs(k4, k33, petersen, rand3_50, lift20, lps13):
    """The standing desk-scale test-graph suite (n <= 5000)."""
    return {
        "k4": k4,
        "k33": k33,
        "petersen": petersen,
        "rand3_50": rand3_50,
        "lift20": lift20,
        "lps13": lps13,
    }


@pytest.fixture(scope="session")
def criterion1_graphs(k4, k33, petersen):
    """The graphs of acceptance criterion 1 (decomposition exactness)."""
    graphs = {"K4": k4, "K3,3": k33, "Petersen": petersen}
    for seed in (100, 200, 300, 400, 500):
        graphs[f"rand3(50,seed={seed})"] = builders.build_random_regular(50, 3, seed)
    graphs["20-lift(Petersen)"] = builders.build_random_lift(
        LiftSpec(base=petersen, n=20, seed=5))
    return graphs
