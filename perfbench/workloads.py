"""Benchmark workloads: fixed sequences of ramlab CLI calls.

Each workload is a list of calls made in-process, one at a time, through
``ramlab.cli.main(argv)``. Every call carries the independent check that its
artifacts must pass.

Seed rule: every random graph in a workload takes ``--seed`` equal to the
workload seed given to the benchmark. LPS graphs and the tree table take no
seed, so they are the same under every workload seed.
"""

from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class GraphSpec:
    """A graph named by CLI flags, buildable outside the CLI for checks."""

    family: str
    flags: tuple  # ((flag, value), ...) in CLI order

    def argv(self) -> list:
        out = ["--family", self.family]
        for flag, value in self.flags:
            out += [flag, str(value)]
        return out

    def build(self):
        from ramlab import builders

        f = dict(self.flags)
        if self.family == "lps":
            return builders.build_lps(builders.LpsParams(f["--p"], f["--q"]))
        if self.family == "random_regular":
            return builders.build_random_regular(f["--n"], f["--d"], f["--seed"])
        if self.family == "random_lift":
            base = builders.build_named(f["--base"])
            return builders.build_random_lift(
                builders.LiftSpec(base=base, n=f["--cover"], seed=f["--seed"]))
        raise ValueError(f"unknown family {self.family!r}")


def lps(p: int, q: int) -> GraphSpec:
    return GraphSpec("lps", (("--p", p), ("--q", q)))


def rand_regular(n: int, d: int, seed: int) -> GraphSpec:
    return GraphSpec("random_regular", (("--n", n), ("--d", d), ("--seed", seed)))


def lift(base: str, cover: int, seed: int) -> GraphSpec:
    return GraphSpec("random_lift", (("--base", base), ("--cover", cover), ("--seed", seed)))


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``label`` names its per-call time, ``argv`` omits
    ``--out-dir``, and ``check(out_dir)`` raises CheckFailed on a bad artifact."""

    label: str
    argv: list
    check: Callable


def metrics(spec: GraphSpec) -> Call:
    return Call("metrics_s", ["metrics", *spec.argv()], checks.metrics_check(spec))


def profile(spec: GraphSpec) -> Call:
    return Call("profile_s", ["profile", *spec.argv()], checks.profile_check(spec))


def mix_nbrw(spec: GraphSpec, tmax: int) -> Call:
    argv = ["mix", *spec.argv(), "--kernel", "nbrw", "--tmax", str(tmax), "--p-list", "1,2"]
    return Call("mix_s", argv, checks.mix_check(spec, tmax))


def tree(d: int, horizon: int) -> Call:
    argv = ["tree", "--d", str(d), "--horizon", str(horizon)]
    return Call("tree_s", argv, checks.tree_check(d, horizon))


def decompose(spec: GraphSpec) -> Call:
    return Call("decompose_s", ["decompose", *spec.argv()], checks.decompose_check())


def certify(spec: GraphSpec, kind: str) -> Call:
    return Call("certify_s", ["certify", *spec.argv()], checks.certify_check(kind))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Callable  # workload seed -> list of Call


# Why each workload, beyond its one-line reason:
# - structure: eccentricity BFS plus the girth search take ~98% of traced self
#   time, so a graph_core BFS change shows here and nowhere else.
# - walks: two opposite evolution shapes. profile is 2000 small evolutions
#   dominated by per-step Python overhead, where batching helps; mix is one
#   large evolution bound by memory traffic and the distance reductions, where
#   batching cannot help (their per-call times are printed and recorded). The
#   mix graph is a random lift of the Petersen graph, not a configuration-model
#   rand3(200000): rejection sampling there takes 1 to 19 attempts depending on
#   the seed, which moves the call's time by up to 2 s between seeds; a lift's
#   build time does not depend on the seed. tree is the call where CSV output
#   does most of the work.
# - spectral: spectral_lab takes ~99% of self time; decompose verification is
#   dense O(N^3) work (eigvals(B), U Lambda U*, B B^T) and the peak memory.
#   N=1800 rather than 2400: at 2400 one decompose call takes about 10 s, so
#   a 30 s run holds only two of them, too few for a steady median.
WORKLOADS = {w.name: w for w in (
    Workload(
        "structure",
        "metrics on LPS(5,13) and rand3(2000): all-pairs eccentricity BFS and "
        "the girth search in graph_core",
        lambda seed: [metrics(lps(5, 13)), metrics(rand_regular(2000, 3, seed))]),
    Workload(
        "walks",
        "profile over all 2000 starts of rand3(2000), an NBRW mixing curve over "
        "N=600k edges of a 200k-vertex lift, and a 1000-step tree table",
        lambda seed: [profile(rand_regular(2000, 3, seed)),
                      mix_nbrw(lift("petersen", 20000, seed), 60),
                      tree(3, 1000)]),
    Workload(
        "spectral",
        "decompose rand3(600) (dense O(N^3) verification at N=1800) and certify "
        "LPS(5,13) (dense eigensolve, n=2184)",
        lambda seed: [decompose(rand_regular(600, 3, seed)),
                      certify(lps(5, 13), "ramanujan")]),
)}
