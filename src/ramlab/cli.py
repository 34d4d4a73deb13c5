"""Command-line orchestration: build graphs, run measurements and
verifications, and emit deterministic CSV/JSON artifacts.

Every run writes a manifest JSON echoing the fully resolved configuration;
each output file embeds the manifest's content hash so artifacts can be
traced back to the exact invocation. Exit codes: 0 success, 2 usage error,
3 verification failure, 4 computation error.

A flag's range is checked by the library function that takes it, which
raises UsageError; each command computes first and writes its manifest and
artifacts afterwards, so a refused run leaves none.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import sys

import numpy as np
from numpy.linalg import LinAlgError

from . import __version__, builders, graph_core, spectral_lab, theory, walk_engine
from .errors import RamlabError, UsageError, VerificationFailed

# Largest `tree --horizon`. It bounds the CSV, which lists every positive
# (t, k) cell: about horizon^2 / 4 lines.
TABLE_HORIZON_CAP = 4096


def emit_csv(path: str, header: list, blocks, comments: list):
    """Deterministic CSV: '#' comment lines, a header row, then the records
    of each block, written as it comes; ``blocks`` may be any iterable. A
    block is a tuple of equal-length columns. An integer column prints as
    %d and any other column as %.17g (floats at 17 significant digits), and
    lines end in '\\n'. Each block is formatted by one % operation."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(header) + "\n")
        for block in blocks:
            cols = [np.asarray(col) for col in block]
            line = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in cols)
            cells = itertools.chain.from_iterable(zip(*(col.tolist() for col in cols)))
            fh.write((line + "\n") * len(cols[0]) % tuple(cells))


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
        base = (builders.load_graph(args.base) if os.path.isfile(args.base)
                else builders.build_named(args.base))
        return builders.build_random_lift(
            builders.LiftSpec(base=base, n=args.cover, seed=args.seed))
    return builders.build_named(args.name)  # argparse allows only "named" here


def _graph_args(sub):
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
    # named relative to the manifest: build.json does not depend on --out-dir
    emit_json(os.path.join(args.out_dir, "build.json"),
              {"n": graph.n, "d": graph.d, "bipartite": graph.bipartite,
               "provenance": graph.provenance, "path": "graph.edges"}, sha)
    print(f"built n={graph.n} d={graph.d} bipartite={graph.bipartite} -> {path}")
    return 0


def cmd_metrics(args) -> int:
    graph = resolve_graph(args)
    radius = args.window_radius
    if radius is None:
        # the window is negative below n = 10
        radius = max(0.0, theory.log_log_window(graph.n, graph.d))
    profile = graph_core.distance_profile(graph, args.source, radius)
    metrics = graph_core.graph_metrics(graph)
    payload = {
        **metrics,
        "n": graph.n,
        "d": graph.d,
        "volume_lower_bound": theory.diameter_volume_lower_bound(graph.n, graph.d),
        "profile": profile,
    }
    sha = write_manifest(args.out_dir, "metrics", _config_of(args))
    emit_json(os.path.join(args.out_dir, "metrics.json"), payload, sha)
    print(f"diameter={metrics['diameter']} girth={metrics['girth']} "
          f"bipartite={metrics['bipartite']}")
    return 0


def cmd_mix(args) -> int:
    p_list = _parse_floats("--p-list", args.p_list)
    graph = resolve_graph(args)
    curve = walk_engine.mixing_curve(graph, args.kernel, args.start, args.tmax,
                                     p_list=p_list, reference=args.reference)
    sha = write_manifest(args.out_dir, "mix", _config_of(args))
    # repr(p) round-trips, so distinct p values get distinct column names
    labels = [repr(p).removesuffix(".0") for p in sorted(curve.d_p)]
    header = ["t", "d_tv", *(f"d_{label}" for label in labels), "d_inf"]
    columns = (curve.times, curve.d_tv, *(curve.d_p[p] for p in sorted(curve.d_p)),
               curve.d_inf)
    comments = [
        f"manifest_sha256={sha}",
        f"kernel={curve.kernel} start={curve.start} reference={curve.reference}",
        f"graph={json.dumps(graph.provenance, sort_keys=True)}",
    ]
    out = os.path.join(args.out_dir, "mixing_curve.csv")
    emit_csv(out, header, [columns], comments)
    print(f"wrote {out} ({args.tmax + 1} times)")
    return 0


def cmd_profile(args) -> int:
    s_grid = _parse_floats("--s-grid", args.s_grid)
    graph = resolve_graph(args)
    rng_starts = walk_engine.default_start_sample(graph, seed=args.seed,
                                                  sample_size=args.starts)
    records = walk_engine.empirical_cutoff_profile(graph, rng_starts, s_grid)
    sha = write_manifest(args.out_dir, "profile", _config_of(args))
    comments = [
        f"manifest_sha256={sha}",
        f"starts={','.join(str(int(x)) for x in rng_starts)}",
        f"reference={records[0]['reference']}",
        f"graph={json.dumps(graph.provenance, sort_keys=True)}",
    ]
    out = os.path.join(args.out_dir, "cutoff_profile.csv")
    emit_csv(out, ["s", "t", "empirical", "predicted"],
             [[[r[key] for r in records] for key in ("s", "t", "empirical", "predicted")]],
             comments)
    print(f"wrote {out}")
    return 0


def cmd_spectrum(args) -> int:
    graph = resolve_graph(args)
    report = spectral_lab.adjacency_spectrum(graph)
    cert = spectral_lab.certify(report, delta_threshold=args.delta_threshold,
                                exceptional_budget=args.exceptional_budget)
    sha = write_manifest(args.out_dir, "spectrum", _config_of(args))
    method = report.method
    if method == "translation_blocks":  # the solved blocks: count x order
        method += " blocks={}x{}".format(*report.blocks)
    out = os.path.join(args.out_dir, "spectrum.csv")
    emit_csv(out, ["i", "eigenvalue"],
             [(np.arange(report.eigenvalues.size), report.eigenvalues)],
             [f"manifest_sha256={sha}",
              f"partial={report.partial} n={report.n} d={report.d} method={method}"])
    emit_json(os.path.join(args.out_dir, "certificate.json"), {
        "kind": cert.kind, "delta": cert.delta,
        "exceptional_count": cert.exceptional_count,
        "exceptional_max_abs": cert.exceptional_max_abs,
        "partial": report.partial,
        "max_nontrivial_abs": report.max_nontrivial_abs,
        "ramanujan_bound": report.ramanujan_bound,
        "spectrum_method": report.method,
    }, sha)
    print(f"certificate: {cert.kind} (delta={cert.delta:g})")
    return 0


def cmd_decompose(args) -> int:
    graph = resolve_graph(args)
    dec = spectral_lab.build_decomposition(graph)
    report = spectral_lab.verify_decomposition(spectral_lab.build_B(graph), dec)
    sha = write_manifest(args.out_dir, "decompose", _config_of(args))
    pairs = dec.diag[1 + dec.bipartite :][: 2 * dec.alpha.size].reshape(-1, 2).T
    emit_csv(os.path.join(args.out_dir, "blocks.csv"),
             ["lambda", "theta_re", "theta_im", "theta_prime_re",
              "theta_prime_im", "alpha_abs", "jordan"],
             [(dec.lam, pairs[0].real, pairs[0].imag, pairs[1].real, pairs[1].imag,
               np.hypot(dec.alpha.real, dec.alpha.imag), dec.jordan.astype(int))],
             [f"manifest_sha256={sha}",
              f"n={dec.n} d={dec.d} N={dec.N} bipartite={dec.bipartite}"])
    emit_json(os.path.join(args.out_dir, "decomposition.json"), {
        **report,
        "minus_one_multiplicity": dec.minus_one_multiplicity,
        "plus_one_multiplicity": dec.plus_one_multiplicity,
    }, sha)
    print(f"residuals: recon={report['reconstruction']:.3g} "
          f"unitary={report['unitarity']:.3g} bass={report['bass_multiset']:.3g} "
          f"ok={report['ok']}")
    return 0 if report["ok"] else 3


def cmd_theory(args) -> int:
    payload = theory.predictions_json(args.n, args.d, p=args.p, lam=args.lam,
                                      eps=args.eps, delta=args.delta)
    sha = write_manifest(args.out_dir, "theory", _config_of(args))
    emit_json(os.path.join(args.out_dir, "theory.json"), payload, sha)
    print(json.dumps({k: v for k, v in payload.items() if not isinstance(v, dict)},
                     sort_keys=True, default=_json_default))
    return 0


def cmd_tree(args) -> int:
    if not 1 <= args.horizon <= TABLE_HORIZON_CAP:
        raise UsageError(f"--horizon must be in [1, {TABLE_HORIZON_CAP}], got {args.horizon}")
    # theory.tree_rows checks d at once; rows are computed as the CSV is written
    rows = theory.tree_rows(args.d, args.horizon)
    sha = write_manifest(args.out_dir, "tree", _config_of(args))
    out = os.path.join(args.out_dir, "tree_radial.csv")
    emit_csv(out, ["t", "k", "probability"],
             ((np.full(k.size, t), k, row[k])
              for t, row in rows for k in [np.flatnonzero(row > 0)]),
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
    # the graph flags are made once and shared, ahead of each subcommand's own
    graph = argparse.ArgumentParser(add_help=False)
    _graph_args(graph)

    p = subs.add_parser("build", parents=[graph],
                        help="construct a graph and write its edge list")
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("metrics", parents=[graph],
                        help="diameter/girth/distance-profile JSON")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--window-radius", type=float, default=None)
    p.set_defaults(func=cmd_metrics)

    p = subs.add_parser("mix", parents=[graph], help="mixing-curve CSV for one start state")
    p.add_argument("--kernel", choices=list(walk_engine.KERNELS), default="srw")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--tmax", type=int, default=30)
    p.add_argument("--p-list", default="1,2",
                   help="comma list of the p values of the D_p columns (inf allowed)")
    p.add_argument("--reference", choices=["auto", "full"], default="auto")
    p.set_defaults(func=cmd_mix)

    p = subs.add_parser("profile", parents=[graph],
                        help="cutoff-profile CSV (empirical vs Gaussian)")
    p.add_argument("--s-grid", default="-2,-1,0,1,2")
    p.add_argument("--starts", type=int, default=None,
                   help="number of seeded starts (default: every vertex up to n = 2000, "
                        "else 16)")
    p.set_defaults(func=cmd_profile)

    # certify is spectrum under a second name; the manifest config records
    # which name was typed
    for name, text in (("spectrum", "eigenvalue CSV plus certificate JSON"),
                       ("certify", "Ramanujan / weakly-Ramanujan certificate")):
        p = subs.add_parser(name, parents=[graph], help=text)
        p.add_argument("--delta-threshold", type=float, default=0.1)
        p.add_argument("--exceptional-budget", type=int, default=0)
        p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("decompose", parents=[graph],
                        help="block decomposition residual report")
    p.set_defaults(func=cmd_decompose)

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
    except Exception as exc:
        if not isinstance(exc, (RamlabError, OSError, MemoryError, OverflowError, LinAlgError)):
            # ARPACK's error class lives in scipy, which only a run that
            # called ARPACK has loaded: import it here, not with this module
            from scipy.sparse.linalg import ArpackError

            if not isinstance(exc, ArpackError):
                raise
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 4


if __name__ == "__main__":
    sys.exit(main())
