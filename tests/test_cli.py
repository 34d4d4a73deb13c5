import json
import math
import os

import oracles
import pytest

from ramlab import cli, walk_engine


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
    table = walk_engine.tree_radial(d, horizon).table
    expected = [f"{t},{k},{float(table[t, k]):.17g}" for t in range(horizon + 1)
                for k in range(t + 1) if table[t, k] > 0]
    assert lines[3:] == expected


def test_decompose_exit_code(tmp_path):
    out = str(tmp_path)
    assert run(["decompose", "--family", "named", "--name", "complete(4)",
                "--out-dir", out]) == 0
    payload = json.loads(read(os.path.join(out, "decomposition.json")))
    assert payload["ok"] is True
    assert payload["minus_one_multiplicity"] == 2
    assert payload["plus_one_multiplicity"] == 3


def test_profile_csv(tmp_path):
    out = str(tmp_path)
    assert run(["profile", "--family", "named", "--name", "petersen",
                "--s-grid", "0,1", "--out-dir", out]) == 0
    lines = [l for l in read(os.path.join(out, "cutoff_profile.csv")).decode().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "s,t,empirical,predicted"
    s0 = lines[1].split(",")
    assert float(s0[3]) == 0.5  # P(Z > 0)


def test_deterministic_outputs(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["mix", "--family", "random_regular", "--n", "20", "--d", "3",
            "--seed", "4", "--kernel", "srw", "--tmax", "8", "--pmax", "2"]
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
    # bit, whether a block holds 1 start, 3 starts or every start at once
    g = request.getfixturevalue(name)
    block = width if width != "all" else g.n + 1
    monkeypatch.setattr(walk_engine, "_BLOCK_BYTES", 8 * g.n * block)
    s_grid = [-1.5, -1.0, 0.0, 0.5, 1.0, 2.0]
    assert run(["profile", *_PROFILE_GRAPHS[name], "--s-grid=" + ",".join(map(str, s_grid)),
                "--out-dir", str(tmp_path)]) == 0
    lines = [l for l in read(os.path.join(str(tmp_path), "cutoff_profile.csv"))
             .decode().splitlines() if not l.startswith("#")]
    expected = [",".join([format(s, ".17g"), str(t), format(tv, ".17g"),
                          format(pred, ".17g")])
                for s, t, tv, pred in oracles.cutoff_profile_records(g, range(g.n), s_grid)]
    assert lines == ["s,t,empirical,predicted"] + expected


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


def _assert_usage_error(tmp_path, capsys, argv):
    # a value argparse cannot range-check -> one JSON line on stderr, exit 2,
    # and no artifacts
    assert run(argv + ["--out-dir", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "UsageError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--source", "50"], ["--source", "-1"],
                                   ["--window-radius", "-1"], ["--window-radius", "nan"]])
def test_metrics_out_of_range_exit_code(tmp_path, capsys, flags):
    _assert_usage_error(tmp_path, capsys,
                        ["metrics", "--family", "named", "--name", "petersen"] + flags)


@pytest.mark.parametrize("argv", [
    ["mix", "--name", "petersen", "--start", "99999"],
    ["mix", "--name", "petersen", "--start", "-1"],
    ["mix", "--name", "petersen", "--kernel", "nbrw", "--start", "30"],
    ["mix", "--name", "petersen", "--tmax", "-1"],
    ["tree", "--d", "2"],
    ["tree", "--d", "3", "--horizon", "0"],
    ["tree", "--d", "3", "--horizon", str(walk_engine.TABLE_HORIZON_CAP + 1)],
    ["theory", "--n", "1", "--d", "3"],
    ["theory", "--n", "100", "--d", "2"],
    ["theory", "--n", "100", "--d", "3", "--eps", "2"],
    ["theory", "--n", "100", "--d", "3", "--delta", "-1"],
    ["theory", "--n", "100", "--d", "3", "--p", "1"],
    ["theory", "--n", "100", "--d", "3", "--p", "0.5"],
    ["theory", "--n", "100", "--d", "3", "--lam", "5"],
    ["profile", "--family", "random_regular", "--n", "2002", "--starts", "5000"],
    ["profile", "--family", "random_regular", "--n", "2002", "--starts", "-1"],
    ["profile", "--name", "petersen", "--starts", "0"],
    ["profile", "--name", "petersen", "--s-grid", "a,b"],
    ["profile", "--name", "petersen", "--s-grid", "0,inf"],
    ["mix", "--name", "petersen", "--p-list", "1,x"],
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_out_of_range_exit_code(tmp_path, capsys, argv):
    _assert_usage_error(tmp_path, capsys, argv)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["not-a-subcommand"])
    assert err.value.code == 2


def test_emit_csv_empty_records(tmp_path):
    path = str(tmp_path / "empty.csv")
    cli.emit_csv(path, ["a", "b"], [], ["note=1"])
    assert read(path).decode() == "# note=1\na,b\n"


def test_build_json_echoes_provenance(tmp_path):
    out = str(tmp_path)
    assert run(["build", "--family", "lps", "--p", "5", "--q", "13",
                "--out-dir", out]) == 0
    payload = json.loads(read(os.path.join(out, "build.json")))
    assert payload["provenance"] == {"family": "lps", "p": 5, "q": 13,
                                     "group": "PGL(2,13)", "bipartite": True}
    sidecar = json.loads(read(os.path.join(out, "graph.edges.json")))
    assert sidecar["provenance"] == payload["provenance"]


def test_mix_lps29_example_line(tmp_path, lps29):
    # the flagship invocation: NBRW on LPS(5,29), D_2 column obeys the
    # spectral bound at every time
    out = str(tmp_path)
    assert run(["mix", "--family", "lps", "--p", "5", "--q", "29",
                "--kernel", "nbrw", "--pmax", "2", "--tmax", "30",
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
