"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Two sub-criteria assert
published constants that the exact computation demonstrably contradicts
(the Gaussian-profile tolerance at the pinned graph size, and the tree
return-probability prefactor); they are implemented faithfully and marked
strict-xfail, with the analysis in README's acceptance paragraph.
"""

import itertools
import math

import numpy as np
import oracles
import pytest

from ramlab import graph_core, spectral_lab, theory, walk_engine

TEST_GRAPH_NAMES = ["k4", "k33", "petersen", "rand3_50", "lift20", "lps13"]


def _report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def suite(k4, k33, petersen, rand3_50, lift20, lps13):
    return dict(zip(TEST_GRAPH_NAMES, [k4, k33, petersen, rand3_50, lift20, lps13]))


@pytest.fixture(scope="module")
def lps29_certified(lps29):
    report = spectral_lab.adjacency_spectrum(lps29)
    cert = spectral_lab.certify(report)
    assert cert.kind == "ramanujan", cert
    return lps29


# -----------------------------------------------------------------------------
# 1. Decomposition exactness
# -----------------------------------------------------------------------------


def test_criterion_1_decomposition_exactness(criterion1_graphs):
    # bass_multiset is the Ihara-Bass determinant mismatch; the multiset of
    # the dense eigvals(B) is also matched to the prediction at 1e-6
    worst = {"reconstruction": 0.0, "unitarity": 0.0, "bass_multiset": 0.0,
             "alpha": 0.0, "eigvals_multiset": 0.0}
    for name, g in criterion1_graphs.items():
        dec = spectral_lab.build_decomposition(g)
        b = spectral_lab.build_B(g).toarray()
        rep = spectral_lab.verify_decomposition(
            b, dec, tol_recon=1e-8, tol_unitary=1e-10, tol_bass=1e-9,
            tol_alpha=1e-8)
        rep["eigvals_multiset"] = oracles.multiset_distance(np.linalg.eigvals(b), dec.diag)
        n, N = g.n, g.n * g.d
        want_minus = N // 2 - n + 1 if g.bipartite else N // 2 - n
        assert dec.minus_one_multiplicity == want_minus, name
        assert dec.plus_one_multiplicity == N // 2 - n + 1, name
        assert rep["ok"], (name, rep)
        assert rep["eigvals_multiset"] <= 1e-6, (name, rep)
        for key in worst:
            worst[key] = max(worst[key], rep[key])
    _report("1", True,
            f"decomposition exact on {len(criterion1_graphs)} graphs; worst residuals "
            + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# -----------------------------------------------------------------------------
# 2. SRW sphere-mixture identity
# -----------------------------------------------------------------------------


def test_criterion_2_srw_mixture_identity(suite):
    worst = 0.0
    for name, g in suite.items():
        if g.n > 5000:
            continue
        for t in range(1, 31):
            r = oracles.srw_mixture_residual(g, 0, t)
            worst = max(worst, r)
            assert r <= 1e-11, (name, t, r)
    _report("2", True, f"sup-norm mixture residual <= 1e-11 for t <= 30; worst {worst:.2e}")


# -----------------------------------------------------------------------------
# 3. NBRW L^2 bound on LPS(5,29)
# -----------------------------------------------------------------------------


def test_criterion_3_nbrw_l2_bound(lps29_certified):
    g = lps29_certified
    n, d, N = g.n, g.d, g.n * g.d
    assert (n, d, N) == (12180, 6, 73080)
    rng = np.random.default_rng(0)
    starts = rng.choice(N, size=3, replace=False)
    c_d = 40 / math.log(5) ** 2 + 1
    t_threshold = theory.nbrw_threshold_time(n, d)
    assert t_threshold == 9
    at_threshold = 0.0
    min_ratio = math.inf
    for e0 in starts:
        for t, mu in itertools.islice(walk_engine.evolve(g, "nbrw", [e0]), 1, 31):
            mu = mu[:, 0]
            d2_sq = N * float((mu * mu).sum()) - 1.0
            bound = 2 * N * 5.0 ** (-t) * (20 * t * t + 1)
            assert d2_sq <= bound, (int(e0), t, d2_sq, bound)
            min_ratio = min(min_ratio, bound / d2_sq)
            if t == t_threshold:
                at_threshold = max(at_threshold, d2_sq)
    assert at_threshold <= c_d / math.log(n), (at_threshold, c_d / math.log(n))
    _report("3", True,
            f"D2^2 <= 2N 5^-t (20t^2+1) for t<=30 (min bound/measured {min_ratio:.1f}); "
            f"at t={t_threshold}: {at_threshold:.4f} <= c(6)/log n = {c_d / math.log(n):.4f}")


# -----------------------------------------------------------------------------
# 4. Cutoff profile on LPS(5,29)
# -----------------------------------------------------------------------------


def _profile_records(g):
    rng = np.random.default_rng(1)
    starts = rng.choice(g.n, size=4, replace=False)  # vertex-transitive; sampled
    return walk_engine.empirical_cutoff_profile(g, starts, [-2, -1, 0, 1, 2])


@pytest.mark.xfail(
    strict=True,
    reason="finite-size deviation: at n=12180 the measured cutoff center sits "
    "0.82 windows left of t_star, so s in {-1, 0} miss the asymptotic "
    "profile by ~0.20 > 0.1; see README, acceptance paragraph",
)
def test_criterion_4_cutoff_profile(lps29_certified):
    records = _profile_records(lps29_certified)
    for r in records:
        diff = abs(r["empirical"] - r["predicted"])
        print(f"  s={r['s']:+.0f} t={r['t']}: empirical={r['empirical']:.4f} "
              f"predicted={r['predicted']:.4f} |diff|={diff:.4f}")
    worst = max(abs(r["empirical"] - r["predicted"]) for r in records)
    _report("4", worst <= 0.1, f"max |empirical - P(Z > c_6 s)| = {worst:.4f} (tol 0.1)")


def test_criterion_4_reported_deviations(lps29_certified):
    """Deviation report accompanying the asymptotic-profile criterion: the
    profile is monotone with matching Gaussian tails, and the finite-size
    center shift stays under one cutoff window."""
    g = lps29_certified
    records = _profile_records(g)
    lines = [f"s={r['s']:+.0f} t={r['t']} empirical={r['empirical']:.4f} "
             f"predicted={r['predicted']:.4f} diff={r['empirical'] - r['predicted']:+.4f}"
             for r in records]
    emp = [r["empirical"] for r in records]
    assert all(a >= b for a, b in zip(emp, emp[1:])), "profile not decreasing in s"
    assert abs(records[0]["empirical"] - records[0]["predicted"]) <= 0.1  # s = -2
    assert abs(records[-1]["empirical"] - records[-1]["predicted"]) <= 0.1  # s = +2

    pred = theory.cutoff_prediction(g.n, g.d)
    tvs = walk_engine.mixing_curve(g, "srw", 0, 15, reference="full").d_tv
    t_half = next(i + (tvs[i] - 0.5) / (tvs[i] - tvs[i + 1])
                  for i in range(15) if tvs[i] >= 0.5 > tvs[i + 1])
    shift = (t_half - pred.t_star) / pred.window
    assert abs(shift) < 1.0, shift
    _report("4-report", True,
            "deviations: " + "; ".join(lines) + f"; center shift {shift:+.2f} windows")


# -----------------------------------------------------------------------------
# 5. NBRW mixing-time lower bound
# -----------------------------------------------------------------------------


def test_criterion_5_nbrw_lower_bound(suite, lps29_certified):
    graphs = dict(suite)
    graphs["lps29"] = lps29_certified
    details = []
    for name, g in graphs.items():
        N = g.n * g.d
        starts = [0, N // 3, 2 * N // 3]
        for eps in (0.2, 0.5):
            bound = theory.nbrw_tmix_lower(g.n, g.d, eps)
            t_max = bound + 30
            measured = 0
            for e0 in starts:
                curve = walk_engine.mixing_curve(g, "nbrw", e0, t_max,
                                                 reference="full")
                t_mix = oracles.mixing_time(curve, 1 - eps)
                measured = max(measured, t_max + 1 if t_mix is None else t_mix)
            assert measured >= bound, (name, eps, measured, bound)
            details.append(f"{name}@{eps}: {measured}>={bound}")
    _report("5", True, "t_mix(1-eps) >= counting bound on every test graph: "
            + ", ".join(details))


# -----------------------------------------------------------------------------
# 6. Distance profile and diameter bounds on LPS(5,29)
# -----------------------------------------------------------------------------


def test_criterion_6_distance_profile(lps29_certified):
    g = lps29_certified
    radius = 3 * math.log(math.log10(g.n)) / math.log(g.d - 1)
    rng = np.random.default_rng(0)
    worst = 0.0
    for x in rng.choice(g.n, size=10, replace=False):
        prof = graph_core.distance_profile(g, int(x), radius)
        worst = max(worst, prof["exceedance_fraction"])
        assert prof["exceedance_fraction"] <= 0.05, (int(x), prof["exceedance_fraction"])
    metrics = graph_core.graph_metrics(g)
    cfm = theory.diameter_bounds(g.n, g.d, 2 * math.sqrt(5))["cfm"]
    assert cfm == 13
    vol = theory.diameter_volume_lower_bound(g.n, g.d)
    assert vol <= metrics["diameter"] <= cfm
    _report("6", True,
            f"worst exceedance fraction {worst:.4f} <= 0.05; diameter "
            f"{metrics['diameter']} within [{vol:.2f}, {cfm}]")


# -----------------------------------------------------------------------------
# 7. Exact transitive L^2 formula on Petersen and K4
# -----------------------------------------------------------------------------


def test_criterion_7_transitive_l2_formula(petersen, k4):
    details = []
    for name, graph in (("petersen", petersen), ("K4", k4)):
        report = spectral_lab.adjacency_spectrum(graph)
        outs = {}
        for eps in (0.5, 0.1, 0.01, 1e-4):
            out = oracles.upsilon_l2_transitive(graph, report, eps)
            assert out["match"], (name, eps, out)
            outs[eps] = out
        details.append(f"{name} " + ", ".join(f"eps={e}: {o['predicted']}"
                                              for e, o in outs.items()))
    _report("7", True, "predicted == measured NBRW L2 mixing time, from "
            "((n-1)(Upsilon(t)+2)(d-1)^t + N-2n+1)/(d-1)^(2t): " + "; ".join(details))


# -----------------------------------------------------------------------------
# 8. L^p theory consistency
# -----------------------------------------------------------------------------


def test_criterion_8_lp_theory(suite):
    # regime continuity at p = 2
    for d in range(3, 13):
        n = 1000
        rho = 2 * math.sqrt(d - 1) / d
        left = theory.lp_prediction(2.0, d, n).c_dp * math.log(n) / math.log(d - 1)
        right = 0.5 * math.log(n) / math.log(1 / rho)
        assert abs(left - right) <= 1e-9, d
    # closed-form minimizer equals the grid minimizer
    for d in (3, 6, 12):
        for p in (1.3, 1.7, 2.0, 4.0, math.inf):
            assert abs(theory.lp_prediction(p, d, 100).beta_star
                       - oracles.beta_star_grid(p, d)) <= 1e-6, (d, p)
    # p -> 1 limit of c_{d,p}
    assert abs(theory.lp_prediction(1.0001, 3, 100).c_dp - 3.0) <= 1e-2
    # strict L1/L2 location gap for d in 3..50
    assert all(theory.l1_l2_gap(d)["f"] > 0 for d in range(3, 51))
    _report("8", True, "regime continuity, grid minimizer, p->1 limit, f(d) > 0")


# -----------------------------------------------------------------------------
# 9. Tree oracle
# -----------------------------------------------------------------------------


def test_criterion_9a_tree_exact_values():
    for d in (3, 4, 6):
        rows = dict(theory.tree_rows(d, 4))
        assert rows[2][0] == 1 / d
        assert math.isclose(rows[4][0], (2 * d - 1) / d**3, rel_tol=1e-15)
    _report("9a", True, "Q^2 = 1/d and Q^4 = (2d-1)/d^3 exact for d in {3,4,6}")


def _return_ratio(d: int, t: int) -> float:
    _, row = next(itertools.islice(theory.tree_rows(d, 2 * t, log=True), 2 * t, None))
    rho = 2 * math.sqrt(d - 1) / d
    return math.exp(row[0] - 2 * t * math.log(rho) + 1.5 * math.log(t))


@pytest.mark.xfail(
    strict=True,
    reason="published prefactor 2 rho^2/((1-rho^2) sqrt(pi)) disagrees with the "
    "DP limit d(d-1)/((d-2)^2 sqrt(pi)) by the factor 8/d; see README, acceptance paragraph",
)
def test_criterion_9b_return_ratio_published_constant():
    worst = 0.0
    for d in (3, 4, 6):
        rho = 2 * math.sqrt(d - 1) / d
        published = 2 * rho**2 / ((1 - rho**2) * math.sqrt(math.pi))
        ratio = _return_ratio(d, 2000)
        rel = abs(ratio / published - 1)
        print(f"  d={d}: Q^(2t) rho^(-2t) t^(3/2) = {ratio:.6f}, "
              f"published limit {published:.6f}, rel err {rel:.2%}")
        worst = max(worst, rel)
    _report("9b", worst <= 0.02,
            f"return-probability ratio within 2% of published constant (worst {worst:.2%})")


def test_criterion_9b_return_ratio_derived_constant():
    """Cross-check of the same DP against the prefactor derived from the
    Green function 2(d-1)/(d-2+sqrt(d^2-4(d-1)z^2)): the square-root
    singularity at z = 1/rho gives Q^(2t) ~ d(d-1)/((d-2)^2 sqrt(pi))
    t^(-3/2) rho^(2t), which the DP matches within 2% at t=2000."""
    worst = 0.0
    for d in (3, 4, 6):
        derived = d * (d - 1) / ((d - 2) ** 2 * math.sqrt(math.pi))
        rel = abs(_return_ratio(d, 2000) / derived - 1)
        worst = max(worst, rel)
        assert rel <= 0.02, (d, rel)
    _report("9b'", True,
            f"ratio within 2% of the Green-function constant (worst {worst:.2%})")


def test_criterion_9c_radial_clt():
    worst = 0.0
    for d in (3, 4, 6):
        _, row = next(itertools.islice(theory.tree_rows(d, 10_000), 10_000, None))
        k = np.arange(row.size, dtype=float)
        mean = float((k * row).sum())
        var = float((k * k * row).sum()) - mean**2
        drift = (d - 2) / d * 10_000
        v = 4 * (d - 1) / d**2 * 10_000
        worst = max(worst, abs(mean / drift - 1), abs(var / v - 1))
        assert abs(mean / drift - 1) <= 0.005, (d, mean, drift)
        assert abs(var / v - 1) <= 0.005, (d, var, v)
    _report("9c", True, f"radial mean/variance within 0.5% at t=1e4 (worst {worst:.4%})")


# -----------------------------------------------------------------------------
# 10. L^p dominance chain
# -----------------------------------------------------------------------------


def test_criterion_10_lp_dominance(suite, lps29_certified):
    p_finite = [1.5, 2.0, 3.0]
    p_all = p_finite + [math.inf]
    # tree lower bound below every measured D_p
    tree_bounds = {}
    for name, g in suite.items():
        key = (g.n, g.d)
        if key not in tree_bounds:
            tree_bounds[key] = {(p, t): theory.lp_lower_bound(g.n, g.d, p, t)
                                for p in p_all for t in range(1, 16)}
        starts = walk_engine.default_start_sample(g, seed=0)
        maxed = {(p, t): 0.0 for p in p_all for t in range(1, 16)}
        for x in starts:
            curve = walk_engine.mixing_curve(g, "srw", int(x), 15,
                                             p_list=p_finite, reference="full")
            for p in p_all:
                vals = oracles.curve_distances(curve, p)
                for t in range(1, 16):
                    maxed[(p, t)] = max(maxed[(p, t)], vals[t])
        for (p, t), measured in maxed.items():
            bound = tree_bounds[key][(p, t)]
            assert measured >= bound - 1e-9, (name, p, t, measured, bound)

    # Riesz-Thorin consequence on certified non-bipartite Ramanujan graphs
    ramanujan = {"k4": suite["k4"], "petersen": suite["petersen"],
                 "lps29": lps29_certified}
    for name, g in ramanujan.items():
        rho = 2 * math.sqrt(g.d - 1) / g.d
        starts = range(g.n) if g.n <= 10 else [0]
        for x in starts:
            curve = walk_engine.mixing_curve(g, "srw", int(x), 30,
                                             p_list=[2.0, 4.0], reference="full")
            for p in (2.0, 4.0, math.inf):
                expo = 1.0 if math.isinf(p) else (p - 1) / p
                for t in range(31):
                    ub = g.n**expo * rho**t
                    assert oracles.curve_distances(curve, p)[t] <= ub * (1 + 1e-12), (name, p, t)
    _report("10", True,
            "tree lower bound <= measured D_p (p in {1.5,2,3,inf}, t<=15) and "
            "D_p <= n^((p-1)/p) rho^t on Ramanujan graphs (p in {2,4,inf}, t<=30)")
