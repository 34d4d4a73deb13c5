import itertools
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ramlab import builders, graph_core, theory, walk_engine
from ramlab.errors import SizeCap, SpaceMismatch, SupportViolation, UsageError
from ramlab.theory import tree_lp_norm, tree_rows
from ramlab.walk_engine import MixingCurve, evolve, mixing_curve, nbrw_projected


# --- stationary measures ------------------------------------------------------
# the engine measures a walk from the uniform law on its states, or on one
# side's states; at t = 0 the law is a point mass, so the distance from the
# uniform law on m states is 1 - 1/m in TV and m - 1 in L^inf


def test_stationary_vertices_k4(k4):
    assert np.allclose(_uniform(k4, "srw"), 0.25)
    curve = mixing_curve(k4, "srw", 0, 0)
    assert np.isclose(curve.d_tv[0], 3 / 4)
    assert np.isclose(curve.d_inf[0], 3.0)


def test_stationary_edges_k4(k4):
    assert np.allclose(_uniform(k4, "nbrw"), 1 / 12)
    curve = mixing_curve(k4, "nbrw", 0, 0)
    assert np.isclose(curve.d_tv[0], 11 / 12)
    assert np.isclose(curve.d_inf[0], 11.0)


def test_stationary_parity_k33(k33):
    pi0 = _uniform(k33, "srw", 0)
    side = k33.bipartition == 0
    assert np.allclose(pi0[side], 1 / 3)
    assert np.allclose(pi0[~side], 0.0)
    pie = _uniform(k33, "nbrw", 0)
    assert np.isclose(pie.sum(), 1.0)
    assert (pie > 0).sum() == 9  # N/2 directed edges out of one side
    vertex = int(np.flatnonzero(side)[0])
    # 'auto' takes the start's side: 3 vertices, or the 9 arcs out of them;
    # 'full' takes all 6 vertices, or all 18 arcs
    for kernel, start, m in (("srw", vertex, 3), ("nbrw", vertex * k33.d, 9)):
        auto = mixing_curve(k33, kernel, start, 0)
        full = mixing_curve(k33, kernel, start, 0, reference="full")
        assert np.isclose(auto.d_tv[0], 1 - 1 / m), kernel
        assert np.isclose(full.d_tv[0], 1 - 1 / (2 * m)), kernel


# --- kernel steps ---------------------------------------------------------------


def _law_at(g, kernel, start, t):
    """Column 0 of evolve's law at time t from one start state or law."""
    return next(itertools.islice(evolve(g, kernel, start), t, None))[1][:, 0]


def test_srw_step_k4(k4):
    out = _law_at(k4, "srw", [0], 1)
    assert np.allclose(out, [0, 1 / 3, 1 / 3, 1 / 3])


def test_nbrw_step_k4(k4):
    e01 = 0 * 3 + 0  # edge (0,1): first neighbor of 0
    out = _law_at(k4, "nbrw", [e01], 1)
    # successors are (1,2) and (1,3), each with mass 1/2
    nz = np.flatnonzero(out)
    assert len(nz) == 2
    assert np.allclose(out[nz], 0.5)
    assert all(e // k4.d == 1 and k4.indices[e] in (2, 3) for e in nz)


def test_nbrw_uniform_fixed_point(test_graphs):
    for g in test_graphs.values():
        pi = np.full(g.n * g.d, 1.0 / (g.n * g.d))
        out = _law_at(g, "nbrw", pi, 1)
        assert np.abs(out - pi).max() < 1e-16


def test_space_mismatch(k4):
    # a law over the other state space; an unknown kernel is an argument
    # out of range, not a law on the wrong space
    with pytest.raises(SpaceMismatch):
        next(evolve(k4, "nbrw", np.full(4, 1 / 4)))
    with pytest.raises(SpaceMismatch):
        next(evolve(k4, "srw", np.full(12, 1 / 12)))
    with pytest.raises(UsageError, match="unknown kernel 'lazy'"):
        next(evolve(k4, "lazy", [0]))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_mass_conservation(seed):
    g = _petersen()
    rng = np.random.default_rng(seed)
    v = rng.random(g.n)
    assert abs(_law_at(g, "srw", v / v.sum(), 1).sum() - 1.0) < 1e-14
    e = rng.random(g.n * g.d)
    assert abs(_law_at(g, "nbrw", e / e.sum(), 1).sum() - 1.0) < 1e-14


def _petersen():
    from ramlab import builders

    return builders.build_named("petersen")


def test_kernels_match_dense_oracles(petersen, k33):
    for g in (petersen, k33):
        for t in (1, 3, 7, 12):
            mine = _law_at(g, "srw", [0], t)
            assert np.abs(mine - oracles.srw_dense(g, 0, t)).max() < 1e-14
            mu = _law_at(g, "nbrw", [0], t)
            assert np.abs(mu - oracles.nbrw_dense(g, 0, t)).max() < 1e-14


# --- batched evolution --------------------------------------------------------------


def _single_laws(g, kernel, start, t_max):
    """Laws at times 0..t_max by repeated single-vector stepping with the
    oracle kernels (exact to the last bit for SRW with d <= 7, and for NBRW
    with every d, since bincount adds in edge order); a lazy kernel shows
    the mean of consecutive pure laws."""
    base = kernel.removesuffix("_lazy")
    mu = np.zeros(g.n if base == "srw" else g.n * g.d)
    mu[start] = 1.0
    pure = [mu]
    for _ in range(t_max):
        mu = (oracles.srw_step_rows(g, mu) if base == "srw"
              else oracles.nbrw_step_bincount(g, mu))
        pure.append(mu)
    if kernel == base:
        return pure
    return pure[:1] + [0.5 * (a + b) for a, b in zip(pure, pure[1:])]


@pytest.mark.parametrize("name, kernel", [
    *itertools.product(["petersen", "k33", "rand3_50", "lps13"], walk_engine.KERNELS),
    # d = 9: a pairwise sum over the in-edges would differ from the oracle
    ("k10", "nbrw"), ("k10", "nbrw_lazy")])
def test_evolve_equals_single_vector_stepping(name, kernel, request):
    g = request.getfixturevalue(name)
    size = g.n if kernel.startswith("srw") else g.n * g.d
    starts = [0, 1, size // 2, size - 1]
    t_max = 12
    single = [_single_laws(g, kernel, x, t_max) for x in starts]
    for t, laws in evolve(g, kernel, starts):
        assert laws.shape == (size, len(starts))
        for j in range(len(starts)):
            assert np.array_equal(laws[:, j], single[j][t]), (t, starts[j])
        if t == t_max:
            break


def test_evolve_matches_dense_oracles_beyond_unrolled_sums():
    # d = 9 rows are longer than numpy's 8-way unrolled pairwise sums; the
    # kernels still add inflows one at a time
    g = builders.build_named("complete(10)")
    srw = evolve(g, "srw", [0, 3, 9])
    nbrw = evolve(g, "nbrw", [0, 40, 89])
    for (t, laws), (_, edge_laws) in zip(srw, nbrw):
        for j, x in enumerate((0, 3, 9)):
            assert np.abs(laws[:, j] - oracles.srw_dense(g, x, t)).max() <= 1e-15
        for j, e in enumerate((0, 40, 89)):
            assert np.abs(edge_laws[:, j] - oracles.nbrw_dense(g, e, t)).max() <= 1e-15
        if t == 10:
            break


def test_evolve_from_initial_laws(petersen):
    law = np.full(30, 1 / 30)
    for t, x in evolve(petersen, "nbrw", law):
        assert x.shape == (30, 1)
        assert np.abs(x[:, 0] - law).max() < 1e-16
        if t == 5:
            break


@pytest.mark.parametrize("starts", [[10], [-1], [0, 30]])
def test_evolve_rejects_states_outside_the_space(petersen, starts):
    with pytest.raises(UsageError):
        next(evolve(petersen, "srw", starts))


def test_evolve_checks_every_column(petersen):
    bad = np.full((petersen.n, 2), 1.0 / petersen.n)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        next(evolve(petersen, "srw", bad))


def _negative_entry(col):
    col[0] -= 0.5
    col[1] += 0.5


def _nan_entry(col):
    col[0] = np.nan


def _sum_above_one(col):
    col[0] += 1e-9


@pytest.mark.parametrize("kernel", ["srw", "nbrw"])
@pytest.mark.parametrize("spoil", [_negative_entry, _nan_entry, _sum_above_one])
def test_evolve_rejects_one_bad_column(petersen, kernel, spoil):
    # the only bad column of the batch sits between two good ones
    size = petersen.n if kernel == "srw" else petersen.n * petersen.d
    laws = np.full((size, 3), 1.0 / size)
    spoil(laws[:, 1])
    with pytest.raises(ValueError):
        next(evolve(petersen, kernel, laws))


@pytest.mark.parametrize("width", [1, 2, 3, 5, 10])
def test_profile_blocks_keep_every_start(rand3_50, monkeypatch, width):
    # the start with the largest TV sits at every position of a block in
    # turn, among starts whose TV is strictly smaller, on the calling thread
    # (one CPU) and on 2 and 3 worker threads that switch every microsecond;
    # at width 10 all 10 starts fit in one block, which runs on the calling
    # thread
    g = rand3_50
    monkeypatch.setattr(walk_engine, "_BLOCK_BYTES", 8 * g.n * width)
    tv = {x: oracles.cutoff_profile_records(g, [x], [0.0])[0][2] for x in range(g.n)}
    top = max(tv, key=tv.get)
    others = [x for x in range(g.n) if tv[x] < tv[top]][:9]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(walk_engine, "_cpu_count", lambda: workers)
            for pos in range(len(others) + 1):
                starts = others[:pos] + [top] + others[pos:]
                record, = walk_engine.empirical_cutoff_profile(g, starts, [0.0])
                assert record["empirical"] == tv[top], (workers, pos)
    finally:
        sys.setswitchinterval(interval)


def test_one_cpu_starts_no_thread(rand3_50, monkeypatch):
    # with one CPU in the affinity mask, a pass of four blocks evolves each
    # on the calling thread and starts no thread; with two, the same pass
    # starts its pool's threads
    evolve, evolved_on = walk_engine.evolve, []

    def recording_evolve(graph, kernel, starts):
        evolved_on.append(threading.current_thread())
        return evolve(graph, kernel, starts)

    def refuse_start(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(walk_engine, "evolve", recording_evolve)
    monkeypatch.setattr(walk_engine, "_BLOCK_BYTES", 8 * rand3_50.n * 3)
    monkeypatch.setattr(threading.Thread, "start", refuse_start)
    monkeypatch.setattr(walk_engine, "_cpu_count", lambda: 1)
    walk_engine.empirical_cutoff_profile(rand3_50, range(10), [0.0])
    assert evolved_on == [threading.main_thread()] * 4
    monkeypatch.setattr(walk_engine, "_cpu_count", lambda: 2)
    with pytest.raises(AssertionError, match="started"):
        walk_engine.empirical_cutoff_profile(rand3_50, range(10), [0.0])


# Run in a fresh interpreter with the helper thread on (argv[2] == "helper")
# or off: build a Petersen lift and take its NBRW mixing curve, then do it
# five more times, printing the number of states and the peak RSS in bytes
# after the first curve and after the sixth. The peak is this process
# image's (VmHWM): on Linux ru_maxrss also counts the RSS of the process
# that spawned it, which can be the larger.
_REPEATED_CURVE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from ramlab import builders, walk_engine

walk_engine._cpu_count = lambda: 2
walk_engine._HELPER_STATES = 0 if sys.argv[2] == "helper" else float("inf")
petersen = builders.build_named("petersen")

def curve():
    g = builders.build_random_lift(builders.LiftSpec(base=petersen, n=10000, seed=1))
    walk_engine.mixing_curve(g, "nbrw", 0, 30, p_list=[1.0, 2.0])
    return g.n * g.d

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) * 1024

states, first = curve(), peak()
for _ in range(5):
    curve()
print(states, first, peak())
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_mixing_curve_helper_keeps_the_peak_rss():
    # the helper thread that reduces time t beside step t+1 allocates nothing
    # of state size: arrays it allocated would stay in its malloc arena and
    # raise the peak of every later call by a few laws, and a step taken off
    # the calling thread would raise the first call's peak as well
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    peaks = {}
    for mode in ("inline", "helper"):
        proc = subprocess.run([sys.executable, "-c", _REPEATED_CURVE_SCRIPT, src, mode],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        states, first, last = map(int, proc.stdout.split())
        assert states >= 150_000
        assert last - first < 8 * states, (mode, last - first, 8 * states)
        peaks[mode] = last
    assert abs(peaks["helper"] - peaks["inline"]) < 8 * states, (peaks, 8 * states)


@pytest.fixture(scope="module")
def k33_lift20(k33):
    return builders.build_random_lift(builders.LiftSpec(base=k33, n=20, seed=1))


@pytest.mark.parametrize("kernel", walk_engine.KERNELS)
@pytest.mark.parametrize("name", ["lps13", "k33_lift20", "rand3_50"])
def test_helper_rows_equal_inline_rows(request, monkeypatch, name, kernel):
    # the helper thread (forced on below _HELPER_STATES) reduces time t while
    # the calling thread takes step t+1, and gives the bits of the inline
    # reductions, which run below _HELPER_STATES or with one CPU: the
    # parity-alternating support path (lps13 and k33_lift20 under a pure
    # kernel) and the full reference, for p = 1, 1.5, 2 and inf, with
    # threads that switch every microsecond
    g = request.getfixturevalue(name)
    reduce_threads, tv = set(), walk_engine._Reference.tv

    def recording_tv(self, x, diff):
        reduce_threads.add(threading.current_thread())
        return tv(self, x, diff)

    monkeypatch.setattr(walk_engine._Reference, "tv", recording_tv)
    curves = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for mode, cpus, helper_states in (("small", 2, g.n * g.d + 1), ("one_cpu", 1, 0),
                                          ("helper", 2, 0)):
            monkeypatch.setattr(walk_engine, "_cpu_count", lambda: cpus)
            monkeypatch.setattr(walk_engine, "_HELPER_STATES", helper_states)
            reduce_threads.clear()
            curves[mode] = mixing_curve(g, kernel, 1, 20, p_list=[1.0, 1.5, 2.0, math.inf])
            assert (reduce_threads == {threading.main_thread()}) == (mode != "helper"), mode
    finally:
        sys.setswitchinterval(interval)
    inline, helper = curves["small"], curves["helper"]
    for column in ("d_tv", "d_inf"):
        assert getattr(curves["one_cpu"], column).tobytes() == getattr(inline, column).tobytes()
    assert inline.reference == helper.reference == (
        "parity-alternating" if g.bipartite and not kernel.endswith("_lazy") else "full")
    for column in ("d_tv", "d_inf"):
        assert getattr(inline, column).tobytes() == getattr(helper, column).tobytes(), column
    assert inline.d_p.keys() == helper.d_p.keys() == {1.0, 1.5, 2.0}
    for p in inline.d_p:
        assert inline.d_p[p].tobytes() == helper.d_p[p].tobytes(), p


@pytest.mark.parametrize("width", [3, "default"])
@pytest.mark.parametrize("name", ["lps13", "k33_lift20"])
def test_bipartite_profile_compares_each_side_with_its_parity(request, monkeypatch,
                                                              name, width):
    # each start's walk is compared with the uniform law on the side it
    # occupies at t, as mixing_curve's reference='auto' does, to the last bit
    # (K3,3 itself reads 0 at every grid time, hence its 20-lift)
    g = request.getfixturevalue(name)
    assert g.bipartite
    if width != "default":
        monkeypatch.setattr(walk_engine, "_BLOCK_BYTES", 8 * g.n * width)
    starts = walk_engine.default_start_sample(g)
    records = walk_engine.empirical_cutoff_profile(g, starts, [-2.0, -1.0, 0.0, 1.0, 2.0])
    for r in records:
        assert r["reference"] == "parity-alternating"
        assert r["empirical"] == max(mixing_curve(g, "srw", int(x), r["t"]).d_tv[r["t"]]
                                     for x in starts), r


def _uniform(g, kernel, side=None):
    """The uniform law on the kernel's states, a vertex for srw and an arc
    e = d*tail + rank for nbrw, or on the states of one side of the
    bipartition: its n/2 vertices, or the N/2 arcs out of them."""
    per_vertex = 1 if kernel.startswith("srw") else g.d
    if side is None:
        return np.full(g.n * per_vertex, 1.0 / (g.n * per_vertex))
    on_side = np.repeat(g.bipartition == side, per_vertex)
    return np.where(on_side, 1.0 / (g.n * per_vertex // 2), 0.0)


def test_curves_measure_from_the_uniform_law_on_the_walks_side(k33, k33_lift20):
    # on a bipartite graph a pure walk from a state on side q is measured at
    # t from the uniform law on the states of side (q + t) % 2, and
    # reference='full' from the uniform law on all states, to the last bit
    # of the direct TV; from either side, for vertices and for arcs
    for g, kernel, q in itertools.product((k33, k33_lift20), ("srw", "nbrw"), (0, 1)):
        vertex = int(np.flatnonzero(g.bipartition == q)[-1])
        start = vertex if kernel == "srw" else vertex * g.d + g.d - 1
        laws = _single_laws(g, kernel, start, 12)
        for reference in ("auto", "full"):
            curve = mixing_curve(g, kernel, start, 12, reference=reference)
            for t, mu in enumerate(laws):
                ref = (_uniform(g, kernel, (q + t) % 2) if reference == "auto"
                       else _uniform(g, kernel))
                assert curve.d_tv[t] == oracles.tv_direct(mu, ref), (g.n, kernel, q, t)
        # the walk only ever visits the states of the side the reference takes
        assert all(mu[_uniform(g, kernel, (q + t) % 2) == 0].max() == 0
                   for t, mu in enumerate(laws))


@pytest.mark.parametrize("reference", ["auto", "full"])
@pytest.mark.parametrize("kernel", ["srw", "nbrw"])
@pytest.mark.parametrize("name", ["k33", "lps13"])
def test_curve_columns_equal_public_distances(name, kernel, reference, request):
    # one ratio pass per time gives the same bits as the naive reductions;
    # k33 and lps13 are bipartite, so 'auto' alternates the parity reference
    g = request.getfixturevalue(name)
    p_list = [1.0, 1.5, 2.0, 3.0]
    curve = mixing_curve(g, kernel, 1, 15, p_list=p_list, reference=reference)
    p0 = int(g.bipartition[1 if kernel == "srw" else 1 // g.d])
    for t, mu in enumerate(_single_laws(g, kernel, 1, 15)):
        ref = (_uniform(g, kernel, (p0 + t) % 2) if reference == "auto"
               else _uniform(g, kernel))
        assert curve.d_tv[t] == oracles.tv_direct(mu, ref)
        assert curve.d_inf[t] == oracles.lp_distance_direct(mu, ref, math.inf)
        for p in p_list:
            assert curve.d_p[p][t] == oracles.lp_distance_direct(mu, ref, p)


def test_curve_rejects_bad_start_and_horizon(petersen):
    with pytest.raises(UsageError):
        mixing_curve(petersen, "nbrw", 30, 5)
    with pytest.raises(ValueError):
        mixing_curve(petersen, "srw", 0, -1)


@pytest.mark.parametrize("p_list", [[math.nan], [2.0, 0.5], [0], [-math.inf]])
def test_curve_rejects_p_below_one_or_nan(petersen, p_list):
    with pytest.raises(ValueError):
        mixing_curve(petersen, "srw", 0, 3, p_list=p_list)


# --- distances ------------------------------------------------------------------


def test_distance_examples(k4, k33):
    # the point mass at t = 0 on K4; on K3,3 the law at t = 1 is exactly
    # the parity reference
    curve = mixing_curve(k4, "srw", 0, 0, p_list=[1.0])
    assert math.isclose(curve.d_p[1.0][0], 1.5)
    assert math.isclose(curve.d_tv[0], 0.75)
    curve = mixing_curve(k33, "srw", 0, 1, p_list=[2.0])
    assert curve.reference == "parity-alternating"
    assert curve.d_p[2.0][1] == curve.d_tv[1] == curve.d_inf[1] == 0.0


def test_distance_srw_k4_t1(k4):
    curve = mixing_curve(k4, "srw", 0, 1, p_list=[1.0])
    assert math.isclose(curve.d_p[1.0][1], 0.5)
    assert math.isclose(curve.d_tv[1], 0.25)


def test_d1_equals_twice_tv(test_graphs):
    for g in test_graphs.values():
        curve = mixing_curve(g, "srw", 0, 3, p_list=[1.0], reference="full")
        assert math.isclose(curve.d_p[1.0][3], 2 * curve.d_tv[3], rel_tol=1e-12)


def test_dp_monotone_in_p(petersen):
    p_list = [1, 1.5, 2, 3, 5, 25]
    curve = mixing_curve(petersen, "srw", 0, 4, p_list=p_list)
    values = [curve.d_p[float(p)][4] for p in p_list] + [curve.d_inf[4]]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_chi2_expansion_cross_check(petersen):
    # n * sum(mu^2) - 1 equals the squared L2 distance under uniform
    direct = mixing_curve(petersen, "srw", 0, 5, p_list=[2.0]).d_p[2.0][5] ** 2
    mu = _law_at(petersen, "srw", [0], 5)
    expansion = petersen.n * float((mu**2).sum()) - 1.0
    assert math.isclose(direct, expansion, rel_tol=1e-10)


def test_support_violation(k33):
    side = int(k33.bipartition[0])
    wrong_side = walk_engine._Reference(k33.bipartition == 1 - side)
    with pytest.raises(SupportViolation):
        wrong_side.lp(_uniform(k33, "srw", side), [2.0], *np.empty((2, k33.n)))


# --- mixing curves ---------------------------------------------------------------


def test_nbrw_curve_t0(k4):
    curve = mixing_curve(k4, "nbrw", 0, 0)
    assert math.isclose(curve.d_tv[0], 11 / 12)


def test_tv_nonincreasing(test_graphs):
    for name, g in test_graphs.items():
        t_max = 50 if g.n <= 10 else 20
        for kernel in ("srw", "nbrw"):
            curve = mixing_curve(g, kernel, 0, t_max)
            assert np.all(np.diff(curve.d_tv) <= 1e-12), (name, kernel)


def test_bipartite_reference_alternates(k33):
    curve = mixing_curve(k33, "srw", 0, 10)
    assert curve.reference == "parity-alternating"
    # against the parity reference the walk actually mixes
    assert curve.d_tv[10] < 1e-6


def test_bipartite_full_reference_plateaus(k33):
    curve = mixing_curve(k33, "srw", 0, 40, reference="full")
    assert curve.reference == "full"
    assert abs(curve.d_tv[40] - 0.5) < 1e-12


def test_lazy_kernel_mixes_bipartite(k33):
    curve = mixing_curve(k33, "srw_lazy", 0, 40)
    assert curve.reference == "full"
    assert curve.d_tv[40] < 1e-3


def test_lazy_is_half_sum_of_pure(k33):
    pure = [x[:, 0].copy() for _, x in itertools.islice(evolve(k33, "srw", [0]), 6)]
    lazy = mixing_curve(k33, "srw_lazy", 0, 5, p_list=[2.0])
    ref = np.full(6, 1 / 6)
    for t in range(1, 6):
        mixed = 0.5 * (pure[t - 1] + pure[t])
        assert math.isclose(lazy.d_tv[t], oracles.tv_direct(mixed, ref), abs_tol=1e-15)


def test_mixing_time_first_crossing():
    curve = MixingCurve(kernel="srw", start=0, times=np.arange(3),
                        d_tv=np.array([0.9, 0.4, 0.05]), d_p={}, d_inf=np.zeros(3),
                        reference="full")
    assert oracles.mixing_time(curve, 0.1) == 2
    assert oracles.mixing_time(curve, 0.95) == 0
    assert oracles.mixing_time(curve, 0.01) is None


# --- NBRW projection and the mixture identity -----------------------------------


def test_nbrw_projected_small_k(k4):
    assert np.allclose(nbrw_projected(k4, 0, 0), [1, 0, 0, 0])
    assert np.allclose(nbrw_projected(k4, 0, 1), [0, 1 / 3, 1 / 3, 1 / 3])


def test_nbrw_projected_petersen_depth2(petersen):
    # girth 5: no collisions at depth 2, uniform over the six distance-2 vertices
    mu = nbrw_projected(petersen, 0, 2)
    dist = graph_core.bfs_distances(petersen, 0)
    far = dist == 2
    assert far.sum() == 6
    assert np.allclose(mu[far], 1 / 6)
    assert np.allclose(mu[~far], 0.0)


def test_nbrw_projected_beyond_budget_raises_size_cap(petersen, monkeypatch):
    # charged for its k - 1 steps over the 30 arcs like every evolution, and
    # refused before the first step
    def no_steps(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(walk_engine, "evolve", no_steps)
    with pytest.raises(SizeCap, match=r"^evolving 1 start\(s\) over 30 states to t=9999999999 "):
        nbrw_projected(petersen, 0, 10**10)


@pytest.mark.parametrize("x", [-1, 10])
def test_projections_reject_start_outside(petersen, x):
    for k in (0, 1, 2):
        with pytest.raises(UsageError, match=r"outside \[0, 10\)"):
            nbrw_projected(petersen, x, k)


def test_mixture_residual_examples(k4, petersen, lps13):
    assert oracles.srw_mixture_residual(k4, 0, 3) <= 1e-12
    assert oracles.srw_mixture_residual(petersen, 0, 10) <= 1e-12
    assert oracles.srw_mixture_residual(lps13, 0, 15) <= 1e-11


# --- tree radial walk -------------------------------------------------------------


def _tree_row(d, t, log=False):
    return next(itertools.islice(tree_rows(d, t, log), t, None))[1]


def test_tree_first_steps():
    rows = dict(tree_rows(3, 4))
    assert rows[1][1] == 1.0
    assert math.isclose(rows[2][0], 1 / 3)
    assert math.isclose(rows[2][2], 2 / 3)


def test_tree_q2_q4_exact():
    for d in (3, 4, 6):
        rows = dict(tree_rows(d, 4))
        assert rows[2][0] == 1 / d
        assert math.isclose(rows[4][0], (2 * d - 1) / d**3, rel_tol=1e-15)


def test_tree_matches_fraction_oracle():
    for d in (3, 5):
        rows = dict(tree_rows(d, 10))
        for t in (1, 2, 5, 10):
            exact = oracles.tree_radial_fractions(d, t)
            for k in range(t + 1):
                assert math.isclose(rows[t][k], float(exact.get(k, 0)),
                                    rel_tol=1e-13, abs_tol=1e-15)


def test_tree_rows_sum_and_parity():
    for t, row in tree_rows(4, 31):
        assert row.shape == (t + 1,)
        assert math.isclose(row.sum(), 1.0, rel_tol=1e-13)
        assert np.all(row[(np.arange(row.size) + t) % 2 == 1] == 0)


def test_tree_recursion_property():
    d = 6
    rows = dict(tree_rows(d, 20))
    up, down = (d - 1) / d, 1 / d
    for t in range(20):
        row, nxt = rows[t], rows[t + 1]
        expect = np.zeros_like(nxt)
        expect[1] += row[0]
        for k in range(1, row.size):
            expect[k + 1] += up * row[k]
            expect[k - 1] += down * row[k]
        assert np.abs(nxt - expect).max() < 1e-15


@pytest.mark.parametrize("log", [False, True])
@pytest.mark.parametrize("d", [3, 4, 6, 7])
def test_tree_rows_match_full_length_oracle_bitwise(d, log):
    # the oracle recomputes all 301 entries every step; tree_rows only the
    # k <= t, which must not change a bit
    t_max = 300
    step = oracles.tree_log_step if log else oracles.tree_step
    full = np.full(t_max + 1, -np.inf if log else 0.0)
    full[0] = 0.0 if log else 1.0
    for t, row in tree_rows(d, t_max, log):
        if t:
            full = step(full, d)
        assert np.array_equal(row, full[: t + 1])


def test_tree_rows_stay_valid_and_reject_bad_input():
    rows = list(tree_rows(3, 50))
    assert [t for t, _ in rows] == list(range(51))
    assert all(np.array_equal(row, _tree_row(3, t)) for t, row in rows)
    assert [row.tolist() for _, row in tree_rows(5, 0, log=True)] == [[0.0]]
    for d, t_max in ((2, 5), (3, -1)):
        with pytest.raises(ValueError):
            tree_rows(d, t_max)


def test_tree_lp_norms():
    row = _tree_row(3, 9)
    assert math.isclose(tree_lp_norm(3, row, 1), 1.0, rel_tol=1e-12)
    # p=2 norm against direct summation over tree vertices
    sizes = theory.sphere_sizes(3, 9)
    direct = math.sqrt(float(((row / sizes) ** 2 * sizes).sum()))
    assert math.isclose(tree_lp_norm(3, row, 2), direct, rel_tol=1e-12)
    assert math.isclose(tree_lp_norm(3, row, math.inf), float((row / sizes).max()),
                        rel_tol=1e-12)


@pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
def test_tree_lp_norm_rejects_p_below_one(p):
    with pytest.raises(ValueError, match="p must be in"):
        tree_lp_norm(3, _tree_row(3, 9), p)


def test_tree_log_matches_linear():
    for d in (3, 6):
        for (t, lin), (_, log) in zip(tree_rows(d, 60), tree_rows(d, 60, log=True)):
            mask = lin > 0
            assert np.array_equal(mask, np.isfinite(log))
            assert np.abs(np.exp(log[mask]) / lin[mask] - 1).max() < 1e-12, t


def test_ballot_reflection_ratio_bounded():
    # P(|X_t| = k) / ((k+1)/t * P(Bin(t,(d-1)/d) = (k+t)/2)) stays in a
    # bounded positive interval; the constants are not pinned, so only
    # positivity and a generous empirical band are asserted (and reported).
    from scipy.stats import binom

    for d in (3, 6):
        ratios = []
        for t in (10, 100, 500, 2000):
            logrow = _tree_row(d, t, log=True)
            k = np.arange(t + 1)
            valid = (k + t) % 2 == 0
            k = k[valid]
            logrow = logrow[valid]
            logpmf = binom.logpmf((k + t) // 2, t, (d - 1) / d)
            logden = np.log((k + 1) / t) + logpmf
            keep = np.isfinite(logrow) & np.isfinite(logden)
            ratios.extend(np.exp(logrow[keep] - logden[keep]).tolist())
        lo, hi = min(ratios), max(ratios)
        assert 0 < lo <= hi < math.inf
        assert hi / lo < 25, f"d={d}: empirical ratio band [{lo:.3f}, {hi:.3f}]"


# --- Cauchy-Schwarz chaining ------------------------------------------------------


def test_dinf_bounded_by_d2_product(k4, petersen, k33):
    for g in (k4, petersen, k33):
        N = g.n * g.d
        d2 = np.zeros(21)
        dinf = np.zeros(21)
        for e in range(N):
            curve = mixing_curve(g, "nbrw", e, 20, p_list=[2.0], reference="full")
            d2 = np.maximum(d2, curve.d_p[2.0])
            dinf = np.maximum(dinf, curve.d_inf)
        for s in range(1, 11):
            for t in range(1, 11):
                assert dinf[s + t] <= d2[s] * d2[t] + 1e-9


def test_curve_d1_column_is_twice_tv(petersen):
    curve = mixing_curve(petersen, "srw", 0, 12, p_list=[1.0])
    assert np.abs(curve.d_p[1.0] - 2 * curve.d_tv).max() < 1e-12


def test_lps29_nbrw_tmix_counting_example(lps29):
    from ramlab import theory

    curve = mixing_curve(lps29, "nbrw", 0, 20, p_list=[1.0], reference="full")
    t_mix = oracles.mixing_time(curve, 0.2, p=1.0)
    assert t_mix >= theory.nbrw_tmix_lower(lps29.n, lps29.d, 1 / 5) == 6


def _first_law(k4, values):
    return next(evolve(k4, "srw", np.array(values + [0.0, 0.0])))[1]


def test_probability_vector_validation(k4):
    with pytest.raises(ValueError):
        _first_law(k4, [0.5, 0.6])
    with pytest.raises(ValueError):
        _first_law(k4, [1.2, -0.2])
    assert _first_law(k4, [0.5, 0.5])[:2, 0].tolist() == [0.5, 0.5]


@pytest.mark.parametrize("values", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0],
                                    [np.inf, -np.inf]])
def test_probability_vector_rejects_nan_and_inf(k4, values):
    with pytest.raises(ValueError):
        _first_law(k4, values)


def test_lazy_nbrw_mixes_bipartite(k33):
    curve = mixing_curve(k33, "nbrw_lazy", 0, 40)
    assert curve.reference == "full"
    assert curve.d_tv[40] < 1e-3
