"""Command-line orchestration: build graphs, run measurements and
verifications, and emit deterministic CSV/JSON artifacts.

Every run writes a manifest JSON echoing the fully resolved configuration;
each output file embeds the manifest's content hash so artifacts can be
traced back to the exact invocation. Exit codes: 0 success, 2 usage error,
3 verification failure, 4 computation error.
"""

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, builders, graph_core, spectral_lab, theory, walk_engine
from ._backend import backend_name
from .errors import LambdaOutOfRange, POutOfRange, RamlabError, UsageError, VerificationFailed


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(path: str, header: list, rows: list, comments: list):
    """Deterministic CSV: '#' comment lines, a header row, then records with
    floats printed at 17 significant digits and '\\n' newlines."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_json(path: str, payload: dict, manifest_sha256: str):
    payload = dict(payload)
    payload["_manifest_sha256"] = manifest_sha256
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_manifest(out_dir: str, subcommand: str, config: dict) -> str:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "version": __version__,
        "backend": backend_name(),
    }
    text = json.dumps(manifest, sort_keys=True, indent=2, default=_json_default) + "\n"
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# Graph resolution from CLI flags
# --------------------------------------------------------------------------


def resolve_graph(args) -> graph_core.RegularGraph:
    if getattr(args, "file", None):
        return builders.load_graph(args.file)
    family = args.family
    if family == "lps":
        return builders.build_lps(builders.LpsParams(args.p_prime, args.q_prime))
    if family == "random_regular":
        return builders.build_random_regular(args.n, args.d, args.seed)
    if family == "random_lift":
        base = (builders.load_graph(args.base) if os.path.exists(args.base)
                else builders.build_named(args.base))
        return builders.build_random_lift(
            builders.LiftSpec(base=base, n=args.cover, seed=args.seed))
    if family == "named":
        return builders.build_named(args.name)
    raise RamlabError(f"unknown family {family!r}")


def _graph_args(sub, need_source=True):
    if need_source:
        sub.add_argument("--file", help="edge-list file (overrides --family)")
        sub.add_argument("--family",
                         choices=["lps", "random_regular", "random_lift", "named"],
                         default="named")
        sub.add_argument("--p", "--p-prime", dest="p_prime", type=int, default=5,
                         help="LPS prime p (degree p+1)")
        sub.add_argument("--q", "--q-prime", dest="q_prime", type=int, default=13,
                         help="LPS prime q")
        sub.add_argument("--n", type=int, default=100)
        sub.add_argument("--d", type=int, default=3)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--base", default="petersen",
                         help="lift base: named graph or edge-list path")
        sub.add_argument("--cover", type=int, default=2, help="lift fiber size")
        sub.add_argument("--name", default="petersen", help="named graph")
    sub.add_argument("--out-dir", default=".")
    sub.add_argument("--dense-cap", type=int, default=spectral_lab.DENSE_CAP_DEFAULT)


def _config_of(args) -> dict:
    # out_dir is where artifacts land, not part of the run identity: identical
    # configs must hash identically regardless of destination
    skip = {"func", "out_dir"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _parse_floats(flag: str, arg: str) -> list:
    """Comma list of floats, blank entries skipped, inf or oo for infinity."""
    try:
        return [math.inf if tok.strip() in ("inf", "oo") else float(tok)
                for tok in arg.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_build(args) -> int:
    graph = resolve_graph(args)
    sha = write_manifest(args.out_dir, "build", _config_of(args))
    path = os.path.join(args.out_dir, "graph.edges")
    builders.save_graph(graph, path)
    emit_json(os.path.join(args.out_dir, "build.json"),
              {"n": graph.n, "d": graph.d, "bipartite": graph.bipartite,
               "provenance": graph.provenance, "path": path}, sha)
    print(f"built n={graph.n} d={graph.d} bipartite={graph.bipartite} -> {path}")
    return 0


def cmd_metrics(args) -> int:
    if args.window_radius is not None and not args.window_radius >= 0:
        raise UsageError(f"--window-radius must be >= 0, got {args.window_radius}")
    graph = resolve_graph(args)
    if not 0 <= args.source < graph.n:
        raise UsageError(f"--source {args.source} outside [0, {graph.n})")
    sha = write_manifest(args.out_dir, "metrics", _config_of(args))
    metrics = graph_core.graph_metrics(graph)
    radius = args.window_radius
    if radius is None:
        # log log n is negative below n = 10
        radius = max(0.0, 3 * math.log(math.log10(graph.n)) / math.log(graph.d - 1))
    profile = graph_core.distance_profile(graph, args.source, radius)
    payload = {
        **metrics,
        "n": graph.n,
        "d": graph.d,
        "volume_lower_bound": graph_core.diameter_volume_lower_bound(graph.n, graph.d),
        "profile": {
            "source": profile.source,
            "histogram": profile.histogram,
            "median": profile.median,
            "window_radius": profile.window_radius,
            "exceedance": profile.exceedance,
            "exceedance_fraction": profile.exceedance_fraction,
        },
    }
    emit_json(os.path.join(args.out_dir, "metrics.json"), payload, sha)
    print(f"diameter={metrics['diameter']} girth={metrics['girth']} "
          f"bipartite={metrics['bipartite']}")
    return 0


def cmd_mix(args) -> int:
    if args.tmax < 0:
        raise UsageError(f"--tmax must be >= 0, got {args.tmax}")
    p_list = (_parse_floats("--p-list", args.p_list) if args.p_list
              else list(range(1, args.pmax + 1)))
    graph = resolve_graph(args)
    states = graph.n if args.kernel.startswith("srw") else graph.n * graph.d
    if not 0 <= args.start < states:
        raise UsageError(f"--start {args.start} outside [0, {states}) for {args.kernel}")
    sha = write_manifest(args.out_dir, "mix", _config_of(args))
    curve = walk_engine.mixing_curve(graph, args.kernel, args.start, args.tmax,
                                     p_list=p_list, reference=args.reference)
    header = ["t", "d_tv"]
    header += [f"d_{p:g}" for p in sorted(curve.d_p)]
    header += ["d_inf"]
    rows = []
    for i, t in enumerate(curve.times):
        row = [int(t), curve.d_tv[i]]
        row += [curve.d_p[p][i] for p in sorted(curve.d_p)]
        row += [curve.d_inf[i]]
        rows.append(row)
    comments = [
        f"manifest_sha256={sha}",
        f"kernel={curve.kernel} start={curve.start} reference={curve.reference}",
        f"graph={json.dumps(graph.provenance, sort_keys=True)}",
    ]
    out = os.path.join(args.out_dir, "mixing_curve.csv")
    emit_csv(out, header, rows, comments)
    print(f"wrote {out} ({args.tmax + 1} times)")
    return 0


def cmd_profile(args) -> int:
    s_grid = _parse_floats("--s-grid", args.s_grid)
    if not s_grid or not all(map(math.isfinite, s_grid)):
        raise UsageError(f"--s-grid needs finite values, got {args.s_grid!r}")
    graph = resolve_graph(args)
    try:
        rng_starts = walk_engine.default_start_sample(graph, seed=args.seed,
                                                      sample_size=args.starts)
    except ValueError as exc:  # a sample size outside [1, n]
        raise UsageError(f"--starts: {exc}") from exc
    sha = write_manifest(args.out_dir, "profile", _config_of(args))
    records = walk_engine.empirical_cutoff_profile(graph, rng_starts, s_grid)
    comments = [
        f"manifest_sha256={sha}",
        f"starts={','.join(str(int(x)) for x in rng_starts)}",
        f"graph={json.dumps(graph.provenance, sort_keys=True)}",
    ]
    out = os.path.join(args.out_dir, "cutoff_profile.csv")
    emit_csv(out, ["s", "t", "empirical", "predicted"],
             [[r["s"], r["t"], r["empirical"], r["predicted"]] for r in records],
             comments)
    print(f"wrote {out}")
    return 0


def cmd_spectrum(args) -> int:
    graph = resolve_graph(args)
    sha = write_manifest(args.out_dir, "spectrum", _config_of(args))
    report = spectral_lab.adjacency_spectrum(graph, dense_cap=args.dense_cap)
    cert = spectral_lab.certify(report, delta_threshold=args.delta_threshold,
                                exceptional_budget=args.exceptional_budget)
    out = os.path.join(args.out_dir, "spectrum.csv")
    emit_csv(out, ["i", "eigenvalue"],
             [[i, float(v)] for i, v in enumerate(report.eigenvalues)],
             [f"manifest_sha256={sha}",
              f"partial={report.partial} n={report.n} d={report.d}"])
    emit_json(os.path.join(args.out_dir, "certificate.json"), {
        "kind": cert.kind, "delta": cert.delta,
        "exceptional_count": cert.exceptional_count,
        "exceptional_max_abs": cert.exceptional_max_abs,
        "partial": report.partial,
        "max_nontrivial_abs": report.max_nontrivial_abs,
        "ramanujan_bound": report.ramanujan_bound,
    }, sha)
    print(f"certificate: {cert.kind} (delta={cert.delta:g})")
    return 0


def cmd_decompose(args) -> int:
    graph = resolve_graph(args)
    sha = write_manifest(args.out_dir, "decompose", _config_of(args))
    es = graph_core.validate_and_index(graph)
    dec = spectral_lab.build_decomposition(graph, es, dense_cap=args.dense_cap)
    b_dense = spectral_lab.build_B(graph, es, dense_cap=args.dense_cap).dense()
    report = spectral_lab.verify_decomposition(b_dense, dec)
    rows = [[b.lam, b.theta.real, b.theta.imag, b.theta_prime.real,
             b.theta_prime.imag, abs(b.alpha), int(b.jordan)] for b in dec.blocks]
    emit_csv(os.path.join(args.out_dir, "blocks.csv"),
             ["lambda", "theta_re", "theta_im", "theta_prime_re",
              "theta_prime_im", "alpha_abs", "jordan"],
             rows, [f"manifest_sha256={sha}",
                    f"n={dec.n} d={dec.d} N={dec.N} bipartite={dec.bipartite}"])
    emit_json(os.path.join(args.out_dir, "decomposition.json"), {
        **{k: v for k, v in report.items()},
        "minus_one_multiplicity": dec.minus_one_multiplicity,
        "plus_one_multiplicity": dec.plus_one_multiplicity,
    }, sha)
    print(f"residuals: recon={report['reconstruction']:.3g} "
          f"unitary={report['unitarity']:.3g} bass={report['bass_multiset']:.3g} "
          f"ok={report['ok']}")
    return 0 if report["ok"] else 3


def cmd_certify(args) -> int:
    code = cmd_spectrum(args)
    return code


def cmd_theory(args) -> int:
    try:
        payload = theory.predictions_json(
            args.n, args.d,
            p=args.p if args.p else None,
            lam=args.lam, eps=args.eps, delta=args.delta)
    except (ValueError, POutOfRange, LambdaOutOfRange) as exc:  # range checks on the flags
        raise UsageError(str(exc)) from exc
    os.makedirs(args.out_dir, exist_ok=True)
    sha = write_manifest(args.out_dir, "theory", _config_of(args))
    emit_json(os.path.join(args.out_dir, "theory.json"), payload, sha)
    print(json.dumps({k: v for k, v in payload.items() if not isinstance(v, dict)},
                     sort_keys=True, default=_json_default))
    return 0


def cmd_tree(args) -> int:
    try:
        table = walk_engine.tree_radial(args.d, args.horizon)
    except ValueError as exc:  # d < 3, or a horizon outside [1, TABLE_HORIZON_CAP]
        raise UsageError(str(exc)) from exc
    os.makedirs(args.out_dir, exist_ok=True)
    sha = write_manifest(args.out_dir, "tree", _config_of(args))
    rows = []
    for t in range(args.horizon + 1):
        row = table.row(t)[: t + 1]
        ks = np.flatnonzero(row > 0)
        rows.extend(zip([t] * ks.size, ks.tolist(), row[ks].tolist()))
    out = os.path.join(args.out_dir, "tree_radial.csv")
    emit_csv(out, ["t", "k", "probability"], rows,
             [f"manifest_sha256={sha}", f"d={args.d} horizon={args.horizon}"])
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramlab",
        description="Random-walk mixing laboratory for regular graphs")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("build", help="construct a graph and write its edge list")
    _graph_args(p)
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("metrics", help="diameter/girth/distance-profile JSON")
    _graph_args(p)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--window-radius", type=float, default=None)
    p.set_defaults(func=cmd_metrics)

    p = subs.add_parser("mix", help="mixing-curve CSV for one start state")
    _graph_args(p)
    p.add_argument("--kernel", choices=list(walk_engine.KERNELS), default="srw")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--tmax", type=int, default=30)
    p.add_argument("--pmax", type=int, default=2,
                   help="record D_p for integer p = 1..pmax")
    p.add_argument("--p-list", default=None,
                   help="explicit comma list of p values (inf allowed); overrides --pmax")
    p.add_argument("--reference", choices=["auto", "full"], default="auto")
    p.set_defaults(func=cmd_mix)

    p = subs.add_parser("profile", help="cutoff-profile CSV (empirical vs Gaussian)")
    _graph_args(p)
    p.add_argument("--s-grid", default="-2,-1,0,1,2")
    p.add_argument("--starts", type=int, default=16)
    p.set_defaults(func=cmd_profile)

    p = subs.add_parser("spectrum", help="eigenvalue CSV plus certificate JSON")
    _graph_args(p)
    p.add_argument("--delta-threshold", type=float, default=0.1)
    p.add_argument("--exceptional-budget", type=int, default=0)
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("decompose", help="block decomposition residual report")
    _graph_args(p)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("certify", help="Ramanujan / weakly-Ramanujan certificate")
    _graph_args(p)
    p.add_argument("--delta-threshold", type=float, default=0.1)
    p.add_argument("--exceptional-budget", type=int, default=0)
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("theory", help="closed-form prediction JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_theory)

    p = subs.add_parser("tree", help="tree radial-walk table CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--horizon", type=int, default=30)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_tree)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "out_dir"):
        os.makedirs(args.out_dir, exist_ok=True)
    try:
        return args.func(args)
    except VerificationFailed as exc:
        print(json.dumps({"error": "verification", "component": exc.component,
                          "message": str(exc)}), file=sys.stderr)
        return 3
    except (RamlabError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 4


if __name__ == "__main__":
    sys.exit(main())
