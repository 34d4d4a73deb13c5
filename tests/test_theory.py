import math

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramlab import graph_core, theory
from ramlab.errors import AlphaDegenerate, UsageError


# --- cutoff prediction ------------------------------------------------------


def test_cutoff_constants_d3():
    pred = theory.cutoff_prediction(1000, 3)
    assert pred.c_d == pytest.approx(1 / (2 * math.sqrt(6)))
    assert pred.rho == pytest.approx(2 * math.sqrt(2) / 3)


def test_t_star_lps():
    pred = theory.cutoff_prediction(12180, 6)
    assert pred.t_star == pytest.approx(1.5 * math.log(12180) / math.log(5))
    assert pred.t_star == pytest.approx(8.77, abs=0.01)


def test_profile_value():
    assert theory.profile_value(0.0, 6) == 0.5
    assert theory.profile_value(50.0, 3) < 1e-12
    assert theory.profile_value(-50.0, 3) > 1 - 1e-12
    assert theory.profile_value(1.0, 3) == pytest.approx(0.41913, abs=1e-5)


# --- relative entropy ---------------------------------------------------------


def test_relative_entropy_examples():
    assert theory.relative_entropy(0.3, 0.3, 2) == 0.0
    assert theory.relative_entropy(1.0, 0.5, 2) == pytest.approx(1.0)
    d = 5
    rho = 2 * math.sqrt(d - 1) / d
    lhs = theory.relative_entropy(0.5, (d - 1) / d, d - 1)
    assert lhs == pytest.approx(math.log(1 / rho) / math.log(d - 1))


def test_relative_entropy_degenerate():
    with pytest.raises(AlphaDegenerate):
        theory.relative_entropy(0.5, 1.0, 2)
    assert theory.relative_entropy(1.0, 1.0, 2) == 0.0


@given(beta=st.floats(0, 1), alpha=st.floats(0.01, 0.99), base=st.floats(1.5, 20))
@settings(max_examples=200, deadline=None)
def test_relative_entropy_nonnegative(beta, alpha, base):
    h = theory.relative_entropy(beta, alpha, base)
    assert h >= -1e-15
    if abs(beta - alpha) > 1e-6:
        assert h > 0


# --- L^p predictions -------------------------------------------------------------


def test_beta_star_at_two():
    for d in range(3, 13):
        assert theory.lp_prediction(2.0, d, 100).beta_star == 0.5


def test_regime_continuity_at_two():
    for d in range(3, 13):
        n = 1000
        rho = 2 * math.sqrt(d - 1) / d
        left = theory.lp_prediction(2.0, d, n).c_dp * math.log(n) / math.log(d - 1)
        right = 0.5 * math.log(n) / math.log(1 / rho)
        assert abs(left - right) < 1e-9


def test_grid_minimizer_agrees():
    for d in (3, 6, 12):
        for p in (1.3, 1.7, 2.0, 4.0, math.inf):
            closed = theory.lp_prediction(p, d, 100).beta_star
            grid = oracles.beta_star_grid(p, d)
            assert abs(closed - grid) < 1e-6


def test_p_to_one_limit():
    c = theory.lp_prediction(1.0001, 3, 100).c_dp
    assert abs(c - 3.0) < 1e-2


def test_p_out_of_range():
    with pytest.raises(UsageError):
        theory.lp_prediction(1.0, 3, 100)
    with pytest.raises(UsageError):
        theory.lp_prediction(0.5, 3, 100)


def test_location_monotone_structure():
    # location -> t_star as p -> 1+, and grows with p toward log_{1/rho} n
    d, n = 3, 10**6
    pred = theory.cutoff_prediction(n, d)
    locs = [theory.lp_prediction(p, d, n).location for p in (1.001, 1.5, 2, 4, math.inf)]
    assert locs[0] == pytest.approx(pred.t_star, rel=1e-2)
    assert all(a <= b + 1e-9 for a, b in zip(locs, locs[1:]))
    rho = pred.rho
    assert locs[-1] == pytest.approx(math.log(n) / math.log(1 / rho))


# --- tree lower bounds --------------------------------------------------------------


def test_lp_lower_bound_p1_trivial():
    # p = 1: n^0 ||Q||_1 - 1 = 0
    assert theory.lp_lower_bound(1000, 3, 1.0, 25) == pytest.approx(0.0, abs=1e-12)


def test_lp_lower_bound_infty_formula():
    d, n, t = 3, 100, 6
    row = dict(theory.tree_rows(d, t))[t]
    sizes = theory.sphere_sizes(d, t)
    want = n * float((row / sizes).max()) - 1
    assert theory.lp_lower_bound(n, d, math.inf, t) == pytest.approx(want)


def test_lp_lower_bound_rejects_nan_p():
    with pytest.raises(ValueError, match="p must be in"):
        theory.lp_lower_bound(1000, 3, math.nan, 5)


# --- profile lower bound, counting bounds, diameter ----------------------------------


def test_srw_lower_profile():
    out = theory.srw_lower_profile(1000, 3, 0.2, 0.0)
    assert out["bound"] == pytest.approx(0.3)
    out = theory.srw_lower_profile(1000, 3, 0.2, 50.0)
    assert out["bound"] == pytest.approx(0.8, abs=1e-9)
    out = theory.srw_lower_profile(12180, 6, 0.1, 1.0)
    assert out["t"] == pytest.approx(1.5 * math.log(0.1 * 12180 / 6) / math.log(5))
    assert out["bound"] == pytest.approx(
        0.9 - theory.profile_value(1.0, 6), abs=1e-12)
    assert out["eval_time"] == pytest.approx(out["t"] - math.sqrt(math.log(12180) / math.log(5)))


def test_nbrw_tmix_lower_values():
    assert theory.nbrw_tmix_lower(12180, 6, 0.2) == 6
    assert theory.nbrw_tmix_lower(12180, 6, 1.0) == 7
    assert theory.nbrw_tmix_lower(4, 3, 0.5) == 3


def test_diameter_bounds_lps_values():
    out = theory.diameter_bounds(12180, 6, 2 * math.sqrt(5))
    assert out["chung"] == 33
    assert out["cfm"] == 13
    assert out["alon_milman"] == pytest.approx(
        2 * math.sqrt(12 / (6 - 2 * math.sqrt(5))) * math.log2(12180))


def test_cfm_asymptotics_ramanujan():
    # cosh((1/2) log(d-1)) = d / (2 sqrt(d-1)) makes the CFM bound roughly
    # 2 log_{d-1} n + O(1) at lambda = 2 sqrt(d-1)
    n, d = 12180, 6
    out = theory.diameter_bounds(n, d, 2 * math.sqrt(d - 1))
    assert abs(out["cfm"] - 2 * math.log(n) / math.log(d - 1)) < 3.0


def test_diameter_bounds_validate_lambda():
    with pytest.raises(UsageError):
        theory.diameter_bounds(100, 6, 6.0)
    with pytest.raises(UsageError):
        theory.diameter_bounds(100, 6, 0.0)


def test_small_graph_diameters_below_bounds(small_graphs):
    # non-bipartite only: the spectral diameter bounds take lambda over all
    # non-principal eigenvalues, and -d makes them void on bipartite graphs
    from ramlab import spectral_lab

    for g in small_graphs.values():
        if g.bipartite:
            continue
        rep = spectral_lab.adjacency_spectrum(g)
        lam = rep.max_nontrivial_abs
        diam = graph_core.graph_metrics(g)["diameter"]
        bounds = theory.diameter_bounds(g.n, g.d, lam)
        assert diam <= bounds["alon_milman"]
        assert diam <= bounds["chung"]
        assert diam <= bounds["cfm"]


def test_weakly_adjusted_time():
    assert theory.weakly_adjusted_time(12180, 6, 0.0) == 9
    assert theory.nbrw_threshold_time(12180, 6) == 9
    times = [theory.weakly_adjusted_time(12180, 6, delta)
             for delta in (0.0, 0.01, 0.04, 0.1, 0.5)]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_l1_l2_gap():
    out = theory.l1_l2_gap(3)
    assert out["f"] == pytest.approx(math.log(2) / 3 - 2 * math.log(3 / (2 * math.sqrt(2))))
    assert out["f"] > 0
    assert out["location_ratio"] > 1
    # f -> 0 as d -> 2+
    assert theory.l1_l2_gap(2.0001)["f"] < 1e-7
    # f'(d) = 2 log(d-1)/d^2 by central differences
    for d in (3.0, 5.0, 9.0):
        h = 1e-6
        fd = (theory.l1_l2_gap(d + h)["f"] - theory.l1_l2_gap(d - h)["f"]) / (2 * h)
        assert fd == pytest.approx(2 * math.log(d - 1) / d**2, rel=1e-5)


def test_predictions_json_keys():
    out = theory.predictions_json(1000, 3, p=2.0, lam=2.5, eps=0.2, delta=0.01)
    for key in ("t_star", "c_d", "rho", "c_dp", "beta_star", "diameter_bounds",
                "nbrw_tmix_lower", "weakly_time", "threshold_time", "f_gap"):
        assert key in out
    # regime-continuity identity as exported
    rho = out["rho"]
    assert out["c_dp"] * math.log(1000) / math.log(2) == pytest.approx(
        0.5 * math.log(1000) / math.log(1 / rho))
