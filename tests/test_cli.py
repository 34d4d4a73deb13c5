import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import oracles
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ramlab import cli, spectral_lab, walk_engine
from ramlab.errors import SupportViolation, UsageError


def run(args):
    return cli.main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_build_and_certify_roundtrip(tmp_path):
    out = str(tmp_path / "b")
    assert run(["build", "--family", "named", "--name", "petersen",
                "--out-dir", out]) == 0
    assert (tmp_path / "b" / "graph.edges").exists()
    assert (tmp_path / "b" / "graph.edges.json").exists()
    out2 = str(tmp_path / "c")
    assert run(["certify", "--file", os.path.join(out, "graph.edges"),
                "--out-dir", out2]) == 0
    cert = json.loads(read(os.path.join(out2, "certificate.json")))
    assert cert["kind"] == "ramanujan"


def test_metrics_json(tmp_path):
    out = str(tmp_path)
    assert run(["metrics", "--family", "named", "--name", "petersen",
                "--out-dir", out]) == 0
    payload = json.loads(read(os.path.join(out, "metrics.json")))
    assert payload["diameter"] == 2 and payload["girth"] == 5
    assert payload["profile"]["histogram"] == [1, 3, 6]


def test_mix_csv_columns(tmp_path):
    out = str(tmp_path)
    assert run(["mix", "--family", "named", "--name", "complete(4)",
                "--kernel", "nbrw", "--start", "0", "--tmax", "5",
                "--p-list", "1,2,inf", "--out-dir", out]) == 0
    lines = read(os.path.join(out, "mixing_curve.csv")).decode().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("manifest_sha256=" in c for c in comments)
    assert any("kernel=nbrw" in c for c in comments)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "t,d_tv,d_1,d_2,d_inf"
    first = [l for l in lines if not l.startswith("#")][1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(11 / 12)


def test_mix_columns_have_distinct_names(tmp_path):
    # p = 2 and 2.0000001 print alike under %g; each column is named by a
    # label that reads back as its p
    out = str(tmp_path)
    assert run(["mix", "--name", "petersen", "--p-list", "2,2.0000001,1,1.5,3",
                "--out-dir", out]) == 0
    lines = read(os.path.join(out, "mixing_curve.csv")).decode().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "t,d_tv,d_1,d_1.5,d_2,d_2.0000001,d_3,d_inf"
    labels = [name.removeprefix("d_") for name in header.split(",")[2:-1]]
    assert [float(x) for x in labels] == [1.0, 1.5, 2.0, 2.0000001, 3.0]


def test_lift_base_beside_a_directory_of_its_name(tmp_path, monkeypatch):
    # a directory named like the base graph is not an edge-list file
    monkeypatch.chdir(tmp_path)
    assert run(["build", "--name", "petersen", "--out-dir", "petersen"]) == 0
    assert run(["build", "--family", "random_lift", "--base", "petersen", "--cover", "2",
                "--out-dir", "lift"]) == 0
    payload = json.loads(read(os.path.join("lift", "build.json")))
    assert payload["n"] == 20


def test_mix_nbrw_l2_bound_column(tmp_path):
    # D2 column of an LPS NBRW run satisfies the spectral bound at every t
    out = str(tmp_path)
    assert run(["mix", "--family", "lps", "--p", "5", "--q", "13",
                "--kernel", "nbrw", "--tmax", "20", "--p-list", "2",
                "--out-dir", out]) == 0
    lines = [l for l in read(os.path.join(out, "mixing_curve.csv")).decode().splitlines()
             if not l.startswith("#")]
    n, d = 2184, 6
    for row in lines[1:]:
        t_s, _, d2_s, _ = row.split(",")
        t = int(t_s)
        if t >= 1:
            bound = n * d * (d - 1.0) ** (-t) * (4 * (d - 1) * t * t + 1)
            assert float(d2_s) ** 2 <= bound


def test_theory_json(tmp_path):
    out = str(tmp_path)
    assert run(["theory", "--n", "1000", "--d", "3", "--p", "2",
                "--out-dir", out]) == 0
    payload = json.loads(read(os.path.join(out, "theory.json")))
    rho = payload["rho"]
    assert payload["c_dp"] * math.log(1000) / math.log(2) == pytest.approx(
        0.5 * math.log(1000) / math.log(1 / rho))


def test_theory_subnormal_eps(tmp_path):
    # 1/eps overflows at eps = 1e-320; the bound is still a finite integer
    assert run(["theory", "--n", "100", "--d", "3", "--eps", "1e-320",
                "--out-dir", str(tmp_path)]) == 0
    payload = json.loads(read(os.path.join(str(tmp_path), "theory.json")))
    assert payload["nbrw_tmix_lower"] == 9 - math.ceil(320 * math.log2(10))


def test_tree_csv(tmp_path):
    out = str(tmp_path)
    assert run(["tree", "--d", "3", "--horizon", "6", "--out-dir", out]) == 0
    lines = [l for l in read(os.path.join(out, "tree_radial.csv")).decode().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "t,k,probability"
    records = {(int(r.split(",")[0]), int(r.split(",")[1])): float(r.split(",")[2])
               for r in lines[1:]}
    assert records[(2, 0)] == pytest.approx(1 / 3)
    assert records[(4, 0)] == pytest.approx(5 / 27)


@pytest.mark.parametrize("d, horizon", [(3, 400), (6, 200)])
def test_tree_csv_lists_every_positive_entry(tmp_path, d, horizon):
    assert run(["tree", "--d", str(d), "--horizon", str(horizon),
                "--out-dir", str(tmp_path)]) == 0
    lines = read(os.path.join(str(tmp_path), "tree_radial.csv")).decode().splitlines()
    row = np.zeros(horizon + 1)
    row[0] = 1.0
    expected = []
    for t in range(horizon + 1):
        if t:
            row = oracles.tree_step(row, d)
        expected += [f"{t},{k},{row[k]:.17g}" for k in range(t + 1) if row[k] > 0]
    assert lines[3:] == expected


def test_decompose_exit_code(tmp_path):
    out = str(tmp_path)
    assert run(["decompose", "--family", "named", "--name", "complete(4)",
                "--out-dir", out]) == 0
    payload = json.loads(read(os.path.join(out, "decomposition.json")))
    assert payload["ok"] is True
    assert payload["minus_one_multiplicity"] == 2
    assert payload["plus_one_multiplicity"] == 3


def test_decompose_builds_no_dense_b(tmp_path, monkeypatch):
    # the residual report comes from sparse B alone: no N x N sparse array or
    # matrix is densified, and no eigvals(B); the n x n adjacency matrix is
    # densified once for its eigendecomposition
    n, d = 200, 3

    def fail(*args, **kwargs):
        raise AssertionError("dense path called")

    def refuse_edge_sized(densify):
        def guarded(self, *args, **kwargs):
            if self.shape[0] == n * d:
                fail()
            return densify(self, *args, **kwargs)
        return guarded

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    sparse_types = [cls for cls in vars(scipy.sparse).values() if isinstance(cls, type)
                    and issubclass(cls, (scipy.sparse.sparray, scipy.sparse.spmatrix))]
    for cls in {base for cls in sparse_types for base in cls.__mro__}:
        for name in ("toarray", "todense"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, refuse_edge_sized(vars(cls)[name]))
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        assert run(["decompose", "--family", "random_regular", "--n", str(n), "--d", str(d),
                    "--out-dir", out]) == 0
    assert json.loads(read(os.path.join(outs[0], "decomposition.json")))["ok"] is True
    for name in ("blocks.csv", "decomposition.json", "manifest.json"):
        assert read(os.path.join(outs[0], name)) == read(os.path.join(outs[1], name)), name


def test_profile_csv(tmp_path):
    out = str(tmp_path)
    assert run(["profile", "--family", "named", "--name", "petersen",
                "--s-grid", "0,1", "--out-dir", out]) == 0
    text = read(os.path.join(out, "cutoff_profile.csv")).decode()
    assert "reference=full" in _comments(text)  # Petersen is not bipartite
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "s,t,empirical,predicted"
    s0 = lines[1].split(",")
    assert float(s0[3]) == 0.5  # P(Z > 0)


@pytest.mark.parametrize("flags, count", [([], 10), (["--starts", "3"], 3)],
                         ids=["default", "starts_3"])
def test_profile_honours_starts(tmp_path, flags, count):
    # without --starts every vertex up to n = 2000 is a start; a given
    # number of seeded starts is honoured at any n
    assert run(["profile", "--name", "petersen", *flags, "--out-dir", str(tmp_path)]) == 0
    comment, = (c for c in _comments(read(os.path.join(str(tmp_path), "cutoff_profile.csv"))
                                     .decode()) if c.startswith("starts="))
    starts = [int(x) for x in comment.removeprefix("starts=").split(",")]
    assert len(set(starts)) == len(starts) == count and set(starts) <= set(range(10))


def test_deterministic_outputs(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["mix", "--family", "random_regular", "--n", "20", "--d", "3",
            "--seed", "4", "--kernel", "srw", "--tmax", "8", "--p-list", "1,2"]
    assert run(args + ["--out-dir", a]) == 0
    assert run(args + ["--out-dir", b]) == 0
    assert read(os.path.join(a, "mixing_curve.csv")) == read(os.path.join(b, "mixing_curve.csv"))
    assert read(os.path.join(a, "manifest.json")) != b""


def test_outputs_reference_manifest(tmp_path):
    import hashlib

    out = str(tmp_path)
    assert run(["spectrum", "--family", "named", "--name", "complete(4)",
                "--out-dir", out]) == 0
    sha = hashlib.sha256(read(os.path.join(out, "manifest.json"))).hexdigest()
    csv_head = read(os.path.join(out, "spectrum.csv")).decode().splitlines()[0]
    assert csv_head == f"# manifest_sha256={sha}"
    cert = json.loads(read(os.path.join(out, "certificate.json")))
    assert cert["_manifest_sha256"] == sha


_PROFILE_GRAPHS = {  # conftest fixture -> the CLI flags that build it
    "petersen": ["--family", "named", "--name", "petersen"],
    "rand3_50": ["--family", "random_regular", "--n", "50", "--d", "3", "--seed", "100"],
}


@pytest.mark.parametrize("name", sorted(_PROFILE_GRAPHS))
@pytest.mark.parametrize("width", [1, 3, "all"])
def test_profile_matches_per_start_oracle(tmp_path, monkeypatch, request, name, width):
    # the batched evolution gives the per-start loop's records to the last
    # bit, whether a block holds 1 start, 3 starts or every start at once,
    # and whether 1, 2 or 3 worker threads evolve the blocks
    g = request.getfixturevalue(name)
    block = width if width != "all" else g.n + 1
    monkeypatch.setattr(walk_engine, "_BLOCK_BYTES", 8 * g.n * block)
    s_grid = [-1.5, -1.0, 0.0, 0.5, 1.0, 2.0]
    expected = [",".join([format(s, ".17g"), str(t), format(tv, ".17g"),
                          format(pred, ".17g")])
                for s, t, tv, pred in oracles.cutoff_profile_records(g, range(g.n), s_grid)]
    for workers in (1, 2, 3):
        monkeypatch.setattr(walk_engine, "_cpu_count", lambda: workers)
        out = str(tmp_path / str(workers))
        assert run(["profile", *_PROFILE_GRAPHS[name],
                    "--s-grid=" + ",".join(map(str, s_grid)), "--out-dir", out]) == 0
        lines = [l for l in read(os.path.join(out, "cutoff_profile.csv"))
                 .decode().splitlines() if not l.startswith("#")]
        assert lines == ["s,t,empirical,predicted"] + expected, workers


@pytest.mark.parametrize("exc", [MemoryError("out of memory"),
                                 SupportViolation("mass outside the support"),
                                 UsageError("start outside the graph")],
                         ids=lambda exc: type(exc).__name__)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_profile_worker_error_exit_code(tmp_path, capsys, monkeypatch, rand3_50, workers, exc):
    # an error raised while a worker thread evolves one block of starts
    # reaches cli.main as if raised in the caller: the same exit code and
    # JSON line, and no artifact
    evolve, raised_in = walk_engine.evolve, []

    def failing_evolve(graph, kernel, starts):
        if 7 in starts:
            raised_in.append(threading.current_thread())
            raise exc
        return evolve(graph, kernel, starts)

    monkeypatch.setattr(walk_engine, "evolve", failing_evolve)
    monkeypatch.setattr(walk_engine, "_BLOCK_BYTES", 8 * rand3_50.n * 3)
    monkeypatch.setattr(walk_engine, "_cpu_count", lambda: workers)
    code = run(["profile", *_PROFILE_GRAPHS["rand3_50"], "--out-dir", str(tmp_path)])
    assert code == (2 if isinstance(exc, UsageError) else 4)
    assert raised_in and raised_in[0] is not threading.main_thread()
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(l) for l in lines] == [{"error": type(exc).__name__,
                                               "message": str(exc)}]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc", [MemoryError("out of memory"),
                                 SupportViolation("mass outside the support")],
                         ids=lambda exc: type(exc).__name__)
def test_mix_helper_error_exit_code(tmp_path, capsys, monkeypatch, exc):
    # an error raised while the helper thread reduces one time of a mixing
    # curve reaches cli.main as if raised in the caller: the same exit code
    # and JSON line, no artifact, and the helper thread is gone
    lp, raised_in = walk_engine._Reference.lp, []

    def failing_lp(self, *args):
        if threading.current_thread() is not threading.main_thread():
            raised_in.append(threading.current_thread())
            raise exc
        return lp(self, *args)

    monkeypatch.setattr(walk_engine._Reference, "lp", failing_lp)
    monkeypatch.setattr(walk_engine, "_cpu_count", lambda: 2)
    monkeypatch.setattr(walk_engine, "_HELPER_STATES", 0)
    threads = threading.active_count()
    code = run(["mix", "--name", "petersen", "--kernel", "nbrw", "--tmax", "5",
                "--p-list", "2", "--out-dir", str(tmp_path)])
    assert code == 4
    assert raised_in
    assert threading.active_count() == threads
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(l) for l in lines] == [{"error": type(exc).__name__,
                                               "message": str(exc)}]
    assert list(tmp_path.iterdir()) == []


def test_computation_error_exit_code(tmp_path):
    # invalid LPS parameters -> machine-readable error, exit 4
    assert run(["build", "--family", "lps", "--p", "4", "--q", "13",
                "--out-dir", str(tmp_path)]) == 4


@pytest.mark.parametrize("name", ["complete(4)", "complete_bipartite(3)"])
def test_metrics_default_window_below_ten_vertices(tmp_path, name):
    # the default radius 3 log(log10 n) / log(d-1) is negative for n < 10
    assert run(["metrics", "--family", "named", "--name", name,
                "--out-dir", str(tmp_path)]) == 0
    payload = json.loads(read(os.path.join(str(tmp_path), "metrics.json")))
    assert payload["profile"]["window_radius"] == 0.0


def _assert_rejected(out_dir, capsys, argv, code=2, error="UsageError"):
    # a rejected input -> one JSON line on stderr naming the error, the exit
    # code, and no artifacts
    assert run(argv + ["--out-dir", str(out_dir)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == error
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["profile", "--name", "petersen", "--s-grid", "1e12"],
    ["profile", "--family", "random_regular", "--n", "2002", "--s-grid", "0,1e300"],
    ["mix", "--name", "petersen", "--tmax", str(10**12)],
    ["mix", "--name", "petersen", "--kernel", "nbrw_lazy", "--tmax", "1000000"],
    ["mix", "--family", "lps", "--p", "5", "--q", "13", "--kernel", "nbrw", "--tmax", "400000"],
    # each p adds a reduction per step: 500 of them are refused at a t_max
    # that the walk alone stays under
    *(["mix", "--name", "petersen", "--p-list", ",".join(str(1 + k / 100) for k in range(500)),
       "--tmax", tmax] for tmax in ("1000000", "100000")),
])
def test_walk_beyond_budget_exit_code(tmp_path, capsys, argv):
    # refused before the first step, with the estimate, in well under a second
    start = time.perf_counter()
    _assert_rejected(tmp_path, capsys, argv, 4, "SizeCap")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("flags", [["--source", "50"], ["--source", "-1"],
                                   ["--window-radius", "-1"], ["--window-radius", "nan"]])
def test_metrics_out_of_range_exit_code(tmp_path, capsys, flags):
    _assert_rejected(tmp_path, capsys,
                        ["metrics", "--family", "named", "--name", "petersen"] + flags)


@pytest.mark.parametrize("argv", [
    ["mix", "--name", "petersen", "--start", "99999"],
    ["mix", "--name", "petersen", "--start", "-1"],
    ["mix", "--name", "petersen", "--kernel", "nbrw", "--start", "30"],
    ["mix", "--name", "petersen", "--tmax", "-1"],
    ["tree", "--d", "2"],
    ["tree", "--d", "3", "--horizon", "0"],
    ["tree", "--d", "3", "--horizon", str(cli.TABLE_HORIZON_CAP + 1)],
    ["theory", "--n", "1", "--d", "3"],
    ["theory", "--n", "3", "--d", "3"],
    ["theory", "--n", "100", "--d", "2"],
    ["theory", "--n", "100", "--d", "3", "--eps", "2"],
    ["theory", "--n", "100", "--d", "3", "--delta", "-1"],
    ["theory", "--n", "100", "--d", "3", "--delta", "inf"],
    ["theory", "--n", "100", "--d", "3", "--p", "1"],
    ["theory", "--n", "100", "--d", "3", "--p", "0.5"],
    ["theory", "--n", "100", "--d", "3", "--p", "0"],
    ["theory", "--n", "100", "--d", "3", "--lam", "5"],
    ["profile", "--family", "random_regular", "--n", "2002", "--starts", "5000"],
    ["profile", "--family", "random_regular", "--n", "2002", "--starts", "-1"],
    ["profile", "--name", "petersen", "--starts", "0"],
    ["profile", "--name", "petersen", "--starts", "11"],
    ["profile", "--name", "petersen", "--s-grid", "a,b"],
    ["profile", "--name", "petersen", "--s-grid", "0,inf"],
    ["profile", "--name", "petersen", "--s-grid", "1e308"],
    ["profile", "--name", "petersen", "--s-grid", ","],
    ["mix", "--name", "petersen", "--p-list", "1,x"],
    ["mix", "--name", "petersen", "--p-list", "nan,0.5", "--tmax", "3"],
    ["mix", "--name", "petersen", "--p-list", "2,0.5"],
    ["mix", "--name", "petersen", "--p-list", "nan"],
    ["spectrum", "--name", "petersen", "--delta-threshold", "nan"],
    ["spectrum", "--name", "petersen", "--delta-threshold", "-1"],
    ["certify", "--name", "petersen", "--delta-threshold", "inf"],
    ["certify", "--name", "petersen", "--exceptional-budget", "-1"],
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_out_of_range_exit_code(tmp_path, capsys, argv):
    _assert_rejected(tmp_path, capsys, argv)


@pytest.mark.parametrize("sidecar", ['{"provenance": {"family": ', "[1, 2]",
                                     '{"provenance": [1]}'])
def test_malformed_sidecar_exit_code(tmp_path, capsys, sidecar):
    # a graph file whose provenance sidecar is broken: exit 4, one JSON line
    assert run(["build", "--name", "petersen", "--out-dir", str(tmp_path)]) == 0
    (tmp_path / "graph.edges.json").write_text(sidecar)
    _assert_rejected(tmp_path / "out", capsys,
                     ["metrics", "--file", str(tmp_path / "graph.edges")], 4, "ParseError")


@pytest.mark.parametrize("source", ["random_regular", "file"])
@pytest.mark.parametrize("argv", [["metrics"], ["profile"], ["mix", "--kernel", "nbrw"],
                                  ["spectrum"], ["decompose"]],
                         ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_degree_below_three_exit_code(tmp_path, capsys, argv, source):
    # the triangle is 2-regular: every subcommand refuses it with exit 4
    if source == "file":
        path = tmp_path / "triangle.edges"
        path.write_text("3 2\n0 1\n0 2\n1 2\n")
        graph, error = ["--file", str(path)], "InvariantViolation"
    else:
        graph, error = ["--family", "random_regular", "--n", "3", "--d", "2"], "DegreeTooSmall"
    _assert_rejected(tmp_path / "out", capsys, argv + graph, 4, error)


@pytest.mark.parametrize("argv", [
    ["build", "--family", "random_regular", "--n", "10", "--seed", "-1"],
    ["build", "--family", "random_lift", "--cover", "3", "--seed", "-1"],
], ids=["random_regular", "random_lift"])
def test_negative_seed_exit_code(tmp_path, capsys, argv):
    _assert_rejected(tmp_path, capsys, argv, 4, "BadParams")


@pytest.mark.parametrize("argv", [
    ["theory", "--n", str(10**400), "--d", str(10**399)],
    ["theory", "--n", str(10**400), "--d", "3", "--lam", "2.5"],
    ["tree", "--d", str(10**400), "--horizon", "3"],
], ids=["theory", "theory_lam", "tree"])
def test_integer_beyond_float_range_exit_code(tmp_path, capsys, argv):
    # the closed forms convert n and d to float, which overflows
    _assert_rejected(tmp_path, capsys, argv, 4, "OverflowError")


def test_random_regular_degree_seven_exit_code(tmp_path, capsys, monkeypatch):
    # refused before any pairing is drawn
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    _assert_rejected(tmp_path, capsys, ["build", "--family", "random_regular",
                                        "--n", "100", "--d", "7"], 4, "SamplingExhausted")


@pytest.mark.parametrize("d", ["-2", "0", "1"])
def test_random_regular_degree_below_three_exit_code(tmp_path, capsys, d):
    # refused before sampling, where a negative degree used to reach np.repeat
    _assert_rejected(tmp_path, capsys, ["build", "--family", "random_regular",
                                        "--n", "5", "--d", d], 4, "DegreeTooSmall")


# Numeric flag values: small integers with 0 and negatives, a fraction, NaN
# and infinities. No value exceeds 12, which bounds every graph (n <= 12),
# --horizon, --starts and --start. theory's --n and --d and
# tree's --d only enter closed forms, so they also draw integers near and
# beyond the float range. --tmax and the --s-grid entries also draw times far
# beyond the walk budget, which must be refused before the first step.
_NUMBER = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(["0.5", "nan", "inf", "-inf"]))
_CLOSED_FORM_INT = st.one_of(_NUMBER, st.sampled_from([10**300, 10**308, 10**309, 10**400])
                             .map(str))
_HUGE_TIMES = ["1000000000000", str(10**30), "1e12", "1e300"]
_TIME = st.one_of(st.sampled_from(_HUGE_TIMES), _NUMBER)
_NUMBERS = st.lists(_NUMBER, max_size=3).map(",".join)
_S_GRID = st.lists(_TIME, max_size=3).map(",".join)
_GRAPH = st.one_of(
    st.sampled_from(["petersen", "complete(3)", "complete(4)", "complete(7)",
                     "complete_bipartite(2)", "complete_bipartite(3)", "cycle(5)"])
    .map(lambda name: ["--family", "named", "--name", name]),
    st.tuples(st.integers(-1, 12), st.integers(-2, 5), st.integers(-1, 3))
    .map(lambda t: ["--family", "random_regular", "--n", str(t[0]), "--d", str(t[1]),
                    "--seed", str(t[2])]),
)
_SPECTRUM_FLAGS = {"--delta-threshold": _NUMBER, "--exceptional-budget": _NUMBER}
_FLAGS = {
    "build": {},
    "metrics": {"--source": _NUMBER, "--window-radius": _NUMBER},
    "mix": {"--kernel": st.sampled_from(walk_engine.KERNELS), "--start": _NUMBER,
            "--tmax": _TIME, "--p-list": _NUMBERS,
            "--reference": st.sampled_from(["auto", "full"])},
    "profile": {"--s-grid": _S_GRID, "--starts": _NUMBER},
    "spectrum": _SPECTRUM_FLAGS,
    "decompose": {},
    "certify": _SPECTRUM_FLAGS,
    "theory": {"--p": _NUMBER, "--lam": _NUMBER, "--eps": _NUMBER, "--delta": _NUMBER},
    "tree": {"--horizon": _NUMBER},
}


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    if sub == "theory":
        argv = [sub, "--n", draw(_CLOSED_FORM_INT), "--d", draw(_CLOSED_FORM_INT)]
    elif sub == "tree":
        argv = [sub, "--d", draw(_CLOSED_FORM_INT)]
    else:
        argv = [sub, *draw(_GRAPH)]
    for flag, values in _FLAGS[sub].items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@given(argv=_argv())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fuzzed_argv_exit_code(argv):
    # every argument vector ends in a documented exit code, never a
    # traceback; derandomized, so every run draws the same 300 vectors. A
    # vector that asks for a time beyond the walk budget is refused within a
    # second, with one JSON line and no artifact
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        start, parsed = time.perf_counter(), True
        try:
            code = run(argv + ["--out-dir", out])
        except SystemExit as exc:  # argparse rejects the vector
            code, parsed = exc.code, False
        elapsed = time.perf_counter() - start
        artifacts = os.listdir(out)
    assert code in (0, 2, 3, 4), code
    assert "Traceback" not in err.getvalue()
    if parsed and any(value in _HUGE_TIMES for value in ",".join(argv).split(",")):
        assert elapsed < 1.0, elapsed
        assert code != 0 and artifacts == [], (code, artifacts)
        line, = err.getvalue().splitlines()
        json.loads(line)


def test_fuzz_table_lists_every_subcommand_flag():
    # adding or deleting a subcommand's flag fails here until _FLAGS follows;
    # the graph flags, --out-dir and the required flags that _argv draws
    # itself are not listed there
    shared = argparse.ArgumentParser()
    cli._graph_args(shared)
    shared_flags = {tuple(action.option_strings) for action in shared._actions}
    subs, = (action for action in cli.build_parser()._actions
             if isinstance(action, argparse._SubParsersAction))
    flags = {name: {flag for action in sub._actions
                    if not action.required and tuple(action.option_strings) not in shared_flags
                    for flag in action.option_strings}
             for name, sub in subs.choices.items()}
    assert flags == {name: set(table) for name, table in _FLAGS.items()}


@pytest.mark.parametrize("exc", [MemoryError("out of memory"),
                                 np.linalg.LinAlgError("SVD did not converge"),
                                 scipy.sparse.linalg.ArpackError(-9999)],
                         ids=lambda exc: type(exc).__name__)
def test_library_failure_exit_code(tmp_path, capsys, monkeypatch, exc):
    # a failure inside numpy/scipy -> one JSON line on stderr, exit 4, and no
    # artifact
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)  # dense and block spectra
    for graph in (["--name", "petersen"], ["--family", "lps", "--p", "5", "--q", "13"]):
        assert run(["spectrum", *graph, "--out-dir", str(tmp_path)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == type(exc).__name__
        assert list(tmp_path.iterdir()) == []


def test_ritz_failure_exit_code(tmp_path, capsys, monkeypatch):
    # ARPACK failing at the real Lanczos call site: the CLI imports scipy's
    # ArpackError only when a failure reaches it, and still maps it to exit 4
    def fail(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackError(-9999)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    monkeypatch.setattr(spectral_lab, "DENSE_CAP", 5)
    assert run(["spectrum", "--name", "petersen", "--out-dir", str(tmp_path)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ArpackError"
    assert list(tmp_path.iterdir()) == []


def test_non_utf8_graph_file_exit_code(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_bytes(b"4 3\n0 1\xff\n")
    assert run(["metrics", "--file", str(path), "--out-dir", str(tmp_path / "o")]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ParseError" and "g.edges" in error["message"]


@pytest.mark.parametrize("graph, cap, method, blocks", [
    (["--family", "lps", "--p", "5", "--q", "17"], None, "translation_blocks", " blocks=9x288"),
    (["--name", "petersen"], None, "dense", ""),
    (["--name", "petersen"], 4, "ritz_estimate", ""),
], ids=["lps_5_17", "petersen", "petersen_cap_4"])
def test_spectrum_records_its_method(tmp_path, monkeypatch, graph, cap, method, blocks):
    # LPS(5,17), n = 4896 above the cap, gets a full certified spectrum
    if cap is not None:
        monkeypatch.setattr(spectral_lab, "DENSE_CAP", cap)
    assert run(["spectrum", *graph, "--out-dir", str(tmp_path)]) == 0
    cert = json.loads(read(os.path.join(str(tmp_path), "certificate.json")))
    assert cert["kind"] == "ramanujan" and cert["spectrum_method"] == method
    assert cert["partial"] is (method == "ritz_estimate")
    comment = read(os.path.join(str(tmp_path), "spectrum.csv")).decode().splitlines()[1]
    assert comment.endswith(f" method={method}{blocks}")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["not-a-subcommand"])
    assert err.value.code == 2


def test_emit_csv_empty_records(tmp_path):
    path = str(tmp_path / "empty.csv")
    cli.emit_csv(path, ["a", "b"], [], ["note=1"])
    assert read(path).decode() == "# note=1\na,b\n"
    assert read(path).decode() == oracles.csv_text(["a", "b"], [], ["note=1"])


_CSV_VALUES = {
    "minus_zero": -0.0, "inf": math.inf, "minus_inf": -math.inf, "nan": math.nan,
    "subnormal": 5e-324, "max": 1.7976931348623157e308, "tenth": 0.1,
    "np_float64": np.float64(-1 / 3), "np_int64": np.int64(-7), "int": 2**62,
}


@pytest.mark.parametrize("value", list(_CSV_VALUES.values()), ids=list(_CSV_VALUES))
def test_emit_csv_value_matches_oracle(tmp_path, value):
    path = str(tmp_path / "v.csv")
    cli.emit_csv(path, ["i", "x"], [([3, 4], [value, value])], ["note=1"])
    assert read(path).decode() == oracles.csv_text(["i", "x"], [[3, value], [4, value]],
                                                   ["note=1"])


def test_emit_csv_blocks_match_oracle(tmp_path):
    # blocks of 0, 1 and several rows; int columns as lists, numpy int32 and
    # int64 arrays and numpy scalars; float columns as arrays and lists
    blocks = [
        (np.arange(3, dtype=np.int32), np.array([0.5, -0.0, 1e-300]), [1, -2, 0]),
        ([], [], []),
        ([np.int64(9)], [np.float64(math.nan)], np.array([-(2**40)])),
        (np.array([], np.int64), np.array([]), np.array([], np.int64)),
        (range(10, 14), [0.1, 0.2, math.inf, 2.0], np.arange(4) - 2),
    ]
    path = str(tmp_path / "b.csv")
    cli.emit_csv(path, ["a", "b", "c"], iter(blocks), ["x", "y"])
    records = [record for block in blocks for record in zip(*block)]
    assert read(path).decode() == oracles.csv_text(["a", "b", "c"], records, ["x", "y"])


def _comments(text: str) -> list:
    return [line[2:] for line in text.splitlines() if line.startswith("# ")]


@pytest.mark.parametrize("d", [3, 4, 7])
@pytest.mark.parametrize("horizon", [1, 2, 57])
def test_tree_csv_matches_oracle_rendering(tmp_path, d, horizon):
    assert run(["tree", "--d", str(d), "--horizon", str(horizon),
                "--out-dir", str(tmp_path)]) == 0
    text = read(os.path.join(str(tmp_path), "tree_radial.csv")).decode()
    records = [(t, k, p) for t, row in walk_engine.tree_rows(d, horizon)
               for k, p in enumerate(row.tolist()) if p > 0]
    assert text == oracles.csv_text(["t", "k", "probability"], records, _comments(text))


def _mix_records(g):
    curve = walk_engine.mixing_curve(g, "nbrw", 5, 12, p_list=[1.0, 2.0, math.inf],
                                     reference="auto")
    p_list = sorted(curve.d_p)
    header = ["t", "d_tv", *(f"d_{p:g}" for p in p_list), "d_inf"]
    return header, [[int(t), curve.d_tv[i], *(curve.d_p[p][i] for p in p_list),
                     curve.d_inf[i]] for i, t in enumerate(curve.times)]


def _profile_records(g):
    starts = walk_engine.default_start_sample(g, seed=100, sample_size=7)
    records = walk_engine.empirical_cutoff_profile(g, starts, [-1.0, 0.0, 0.5, 2.0])
    return (["s", "t", "empirical", "predicted"],
            [[r["s"], r["t"], r["empirical"], r["predicted"]] for r in records])


def _spectrum_records(g):
    report = spectral_lab.adjacency_spectrum(g)
    return ["i", "eigenvalue"], [[i, float(v)] for i, v in enumerate(report.eigenvalues)]


def _decompose_records(g):
    dec = spectral_lab.build_decomposition(g)
    return (["lambda", "theta_re", "theta_im", "theta_prime_re", "theta_prime_im",
             "alpha_abs", "jordan"],
            [[b.lam, b.theta.real, b.theta.imag, b.theta_prime.real, b.theta_prime.imag,
              abs(b.alpha), int(b.jordan)] for b in dec.blocks])


_ARTIFACTS = {  # subcommand -> (its flags past the graph, CSV file, oracle records)
    "mix": (["--kernel", "nbrw", "--start", "5", "--tmax", "12", "--p-list", "1,2,inf"],
            "mixing_curve.csv", _mix_records),
    "profile": (["--s-grid=-1,0,0.5,2", "--starts", "7"], "cutoff_profile.csv",
                _profile_records),
    "spectrum": ([], "spectrum.csv", _spectrum_records),
    "decompose": ([], "blocks.csv", _decompose_records),
}


@pytest.mark.parametrize("sub", sorted(_ARTIFACTS))
def test_artifact_csv_matches_oracle_rendering(tmp_path, rand3_50, sub):
    # every graph CSV the CLI writes (tree's is checked above) has the bytes
    # of its records printed value by value; rand3_50's spectrum and blocks
    # hold irrational values
    flags, name, records_of = _ARTIFACTS[sub]
    assert run([sub, *_PROFILE_GRAPHS["rand3_50"], *flags, "--out-dir", str(tmp_path)]) == 0
    text = read(os.path.join(str(tmp_path), name)).decode()
    header, records = records_of(rand3_50)
    assert text == oracles.csv_text(header, records, _comments(text))


def test_build_json_echoes_provenance(tmp_path):
    out = str(tmp_path)
    assert run(["build", "--family", "lps", "--p", "5", "--q", "13",
                "--out-dir", out]) == 0
    payload = json.loads(read(os.path.join(out, "build.json")))
    assert payload["provenance"] == {"family": "lps", "p": 5, "q": 13,
                                     "group": "PGL(2,13)", "bipartite": True}
    sidecar = json.loads(read(os.path.join(out, "graph.edges.json")))
    assert sidecar["provenance"] == payload["provenance"]


def test_build_json_does_not_depend_on_out_dir(tmp_path):
    # build.json names the edge list beside the manifest, not under --out-dir
    outs = [tmp_path / "a", tmp_path / "deeper" / "b"]
    for out in outs:
        assert run(["build", "--name", "petersen", "--out-dir", str(out)]) == 0
    assert json.loads(read(outs[0] / "build.json"))["path"] == "graph.edges"
    for name in ("build.json", "graph.edges", "manifest.json"):
        assert read(outs[0] / name) == read(outs[1] / name), name


def test_lift_of_edge_file_matches_lift_of_named_base(tmp_path):
    # an existing path as --base is read as an edge file, provenance sidecar
    # included, and lifts exactly as the named graph it was saved from
    assert run(["build", "--family", "named", "--name", "petersen",
                "--out-dir", str(tmp_path / "base")]) == 0
    lift = ["build", "--family", "random_lift", "--cover", "3", "--seed", "1"]
    outs = [tmp_path / "from_file", tmp_path / "from_name"]
    for out, base in zip(outs, [str(tmp_path / "base" / "graph.edges"), "petersen"]):
        assert run(lift + ["--base", base, "--out-dir", str(out)]) == 0
    for name in ("graph.edges", "graph.edges.json"):
        assert read(outs[0] / name) == read(outs[1] / name), name
    payloads = [json.loads(read(out / "build.json")) for out in outs]
    for payload in payloads:
        del payload["_manifest_sha256"]  # the manifests echo different --base values
    assert payloads[0] == payloads[1]


def test_mix_lps29_example_line(tmp_path, lps29):
    # the flagship invocation: NBRW on LPS(5,29), D_2 column obeys the
    # spectral bound at every time
    out = str(tmp_path)
    assert run(["mix", "--family", "lps", "--p", "5", "--q", "29",
                "--kernel", "nbrw", "--p-list", "1,2", "--tmax", "30",
                "--out-dir", out]) == 0
    lines = [l for l in read(os.path.join(out, "mixing_curve.csv")).decode().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "t,d_tv,d_1,d_2,d_inf"
    n, d = 12180, 6
    for row in lines[2:]:
        cells = row.split(",")
        t, d2 = int(cells[0]), float(cells[3])
        bound = 2 * n * d * (d - 1.0) ** (-t) * (4 * (d - 1) * t * t + 1)
        assert d2 ** 2 <= bound


# Run in a fresh interpreter: ramlab.cli, then each argv in turn in a new out
# dir, printing after each the exit code and the scipy modules loaded so far,
# and whether the import loaded concurrent.futures.
_STARTUP_SCRIPT = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import ramlab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

futures = "concurrent.futures" in sys.modules
report = [["import ramlab.cli", 0, scipy_modules()]]
for argv in json.loads(sys.argv[2]):
    with tempfile.TemporaryDirectory() as out:
        code = ramlab.cli.main(argv + ["--out-dir", out])
    report.append([" ".join(argv), code, scipy_modules()])
print(json.dumps({"futures_at_import": futures, "report": report}))
"""

_SCIPY_FREE_RUNS = [
    ["build", "--name", "petersen"],
    ["build", "--family", "lps", "--p", "5", "--q", "13"],
    ["build", "--family", "random_regular", "--n", "50", "--d", "3"],
    ["build", "--family", "random_lift", "--base", "petersen", "--cover", "3"],
    ["metrics", "--family", "lps", "--p", "5", "--q", "13"],
    ["mix", "--name", "petersen", "--kernel", "nbrw", "--tmax", "5"],
    ["tree", "--d", "3", "--horizon", "10"],
    ["theory", "--n", "100", "--d", "3"],
    ["certify", "--family", "lps", "--p", "5", "--q", "13"],
    ["certify", "--name", "petersen"],
]
_SCIPY_RUNS = [
    ["mix", "--name", "petersen", "--kernel", "srw", "--tmax", "5"],
    ["profile", "--name", "petersen"],
    ["decompose", "--name", "petersen"],
]


def test_cli_starts_without_scipy():
    # importing the CLI and every run that needs no sparse matrix, Lanczos,
    # QR or LU leave scipy unloaded; the runs that need it still succeed.
    # The import leaves concurrent.futures unloaded too: only the walk
    # pass's threads need it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, src, json.dumps(_SCIPY_FREE_RUNS + _SCIPY_RUNS)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["futures_at_import"]
    report = result["report"]
    free = report[: 1 + len(_SCIPY_FREE_RUNS)]
    assert all(code == 0 and not loaded for _, code, loaded in free), free
    assert all(code == 0 for _, code, _ in report[len(free):]), report
