"""Every range check on a public function's argument raises UsageError,
which is also a ValueError, with a message naming the bad value."""

import math

import pytest

from ramlab import builders, graph_core, spectral_lab, theory, walk_engine
from ramlab.builders import LiftSpec, LpsParams
from ramlab.errors import UsageError


def _report(petersen):
    return spectral_lab.adjacency_spectrum(petersen)


# (id, call on the fixture graphs, message pattern)
_CASES = [
    # walk_engine
    ("mixing_curve_t_max", lambda g: walk_engine.mixing_curve(g["petersen"], "srw", 0, -1),
     r"t_max must be >= 0, got -1"),
    ("mixing_curve_p_below_one",
     lambda g: walk_engine.mixing_curve(g["petersen"], "srw", 0, 3, p_list=[2, 0.5]),
     r"every p must be in \[1, inf\]"),
    ("mixing_curve_p_nan",
     lambda g: walk_engine.mixing_curve(g["petersen"], "srw", 0, 3, p_list=[math.nan]),
     r"every p must be in \[1, inf\]"),
    ("mixing_curve_reference",
     lambda g: walk_engine.mixing_curve(g["petersen"], "srw", 0, 3, reference="half"),
     r"unknown reference mode 'half'"),
    # k33 is bipartite: the start is checked before its parity is read
    ("mixing_curve_start_negative", lambda g: walk_engine.mixing_curve(g["k33"], "srw", -1, 3),
     r"start -1 outside \[0, 6\) for srw"),
    ("mixing_curve_start_past_edges",
     lambda g: walk_engine.mixing_curve(g["k33"], "nbrw", 18, 3),
     r"start 18 outside \[0, 18\) for nbrw"),
    ("evolve_start", lambda g: next(walk_engine.evolve(g["petersen"], "srw", [0, 10])),
     r"start states must lie in \[0, 10\) for srw"),
    # a start that is not an integer is refused before it is read as an
    # index (a bool or a float would index the bipartition, or pass as a law)
    ("mixing_curve_start_float", lambda g: walk_engine.mixing_curve(g["k33"], "srw", 1.5, 2),
     r"start states must be integers, got dtype float64"),
    ("mixing_curve_start_bool", lambda g: walk_engine.mixing_curve(g["k33"], "srw", True, 2),
     r"start states must be integers, got dtype bool"),
    ("profile_start_float",
     lambda g: walk_engine.empirical_cutoff_profile(g["petersen"], [1.5], [0.0]),
     r"start states must be integers, got dtype float64"),
    ("profile_starts_float",
     lambda g: walk_engine.empirical_cutoff_profile(g["petersen"], [0.0, 1.0], [0.0]),
     r"start states must be integers, got dtype float64"),
    ("evolve_start_string", lambda g: next(walk_engine.evolve(g["petersen"], "srw", ["1"])),
     r"starts must be integer states or float laws, got dtype <U1"),
    ("evolve_kernel", lambda g: next(walk_engine.evolve(g["petersen"], "bogus", [0])),
     r"unknown kernel 'bogus'"),
    # the kernel is checked before the start is read as a vertex or an arc
    ("mixing_curve_kernel", lambda g: walk_engine.mixing_curve(g["petersen"], "bogus", 0, 3),
     r"unknown kernel 'bogus'"),
    ("default_start_sample", lambda g: walk_engine.default_start_sample(g["petersen"],
                                                                         sample_size=0),
     r"sample size 0 outside \[1, n=10\]"),
    ("default_start_sample_seed",
     lambda g: walk_engine.default_start_sample(g["petersen"], seed=-1, sample_size=3),
     r"seed must be >= 0, got -1"),
    ("nbrw_projected_k", lambda g: walk_engine.nbrw_projected(g["petersen"], 0, -1),
     r"k must be >= 0, got -1"),
    ("nbrw_projected_x", lambda g: walk_engine.nbrw_projected(g["petersen"], 10, 2),
     r"start vertex 10 outside \[0, 10\)"),
    ("profile_no_starts",
     lambda g: walk_engine.empirical_cutoff_profile(g["petersen"], [], [0.0]),
     r"at least one start"),
    ("profile_empty_grid",
     lambda g: walk_engine.empirical_cutoff_profile(g["petersen"], [0], []),
     r"at least one s"),
    ("profile_s_overflows",
     lambda g: walk_engine.empirical_cutoff_profile(g["petersen"], [0], [0.0, 1e308]),
     r"s=1e\+308 gives t = .* = inf, not a finite time"),
    ("profile_s_inf",
     lambda g: walk_engine.empirical_cutoff_profile(g["petersen"], [0], [-math.inf]),
     r"not a finite time"),
    ("profile_s_nan",
     lambda g: walk_engine.empirical_cutoff_profile(g["petersen"], [0], [math.nan]),
     r"= nan, not a finite time"),
    # graph_core
    ("bfs_source_negative", lambda g: graph_core.bfs_distances(g["petersen"], -1),
     r"source -1 outside \[0, 10\)"),
    ("bfs_source_past_n", lambda g: graph_core.bfs_distances(g["petersen"], 10),
     r"source 10 outside \[0, 10\)"),
    ("distance_profile_radius", lambda g: graph_core.distance_profile(g["petersen"], 0, -1.0),
     r"window_radius must be >= 0, got -1.0"),
    ("distance_profile_radius_nan",
     lambda g: graph_core.distance_profile(g["petersen"], 0, math.nan),
     r"window_radius must be >= 0, got nan"),
    # spectral_lab
    ("certify_delta_nan", lambda g: spectral_lab.certify(_report(g["petersen"]), math.nan),
     r"delta threshold must be finite and >= 0, got nan"),
    ("certify_delta_inf", lambda g: spectral_lab.certify(_report(g["petersen"]), math.inf),
     r"delta threshold must be finite and >= 0, got inf"),
    ("certify_delta_negative", lambda g: spectral_lab.certify(_report(g["petersen"]), -1.0),
     r"delta threshold must be finite and >= 0, got -1.0"),
    ("certify_budget", lambda g: spectral_lab.certify(_report(g["petersen"]), 0.1, -1),
     r"exceptional budget must be >= 0, got -1"),
    ("theta_pair", lambda g: spectral_lab.theta_pair(3.5, 3), r"\|lambda\| must be <= d"),
    ("alpha_exact", lambda g: spectral_lab.alpha_exact(3.0, 3), r"lambda != d"),
    # graph_core: the (n, d) rule, checked before the rows are read
    ("from_edges_d", lambda g: graph_core.from_edges(3, 2, [(0, 1), (0, 2), (1, 2)]),
     r"need d >= 3, got d=2"),
    ("regular_graph_n", lambda g: graph_core.RegularGraph(n=3, d=3, indices=[1, 2, 0] * 3),
     r"need n > d, got n=3, d=3"),
    # builders: every parameter check
    ("lps_not_prime", lambda g: LpsParams(4, 13), r"p=4, q=13 must both be prime"),
    ("lps_not_one_mod_four", lambda g: LpsParams(5, 11), r"congruent to 1 mod 4"),
    ("lps_equal", lambda g: LpsParams(5, 5), r"must be distinct"),
    ("lps_q_small", lambda g: LpsParams(13, 5), r"need q > 2\*sqrt\(p\), got q=5, p=13"),
    ("lift_cover", lambda g: LiftSpec(g["petersen"], 0, 0), r"cover number must be >= 1, got 0"),
    ("lift_seed", lambda g: LiftSpec(g["petersen"], 2, -1), r"seed must be >= 0, got -1"),
    ("named_unparsed", lambda g: builders.build_named("k4!"), r"cannot parse graph name 'k4!'"),
    ("named_unknown", lambda g: builders.build_named("dodecahedron"),
     r"unknown graph name 'dodecahedron'"),
    ("named_cycle", lambda g: builders.build_named("cycle(5)"), r"need d >= 3, got d=2"),
    ("named_complete_no_k", lambda g: builders.build_named("complete"),
     r"complete\(k\) needs its k"),
    ("named_complete_3", lambda g: builders.build_named("complete(3)"), r"need d >= 3, got d=2"),
    ("named_complete_bipartite_2", lambda g: builders.build_named("complete_bipartite(2)"),
     r"need d >= 3, got d=2"),
    ("random_regular_d", lambda g: builders.build_random_regular(5, -2, 0),
     r"need d >= 3, got d=-2"),
    ("random_regular_n", lambda g: builders.build_random_regular(4, 4, 0),
     r"need n > d, got n=4, d=4"),
    ("random_regular_odd", lambda g: builders.build_random_regular(5, 3, 0),
     r"n\*d must be even, got n=5, d=3"),
    ("random_regular_seed", lambda g: builders.build_random_regular(10, 3, -1),
     r"seed must be >= 0, got -1"),
    # theory
    ("profile_value_d", lambda g: theory.profile_value(0.0, 2), r"need d >= 3, got d=2"),
    ("relative_entropy_beta", lambda g: theory.relative_entropy(1.5, 0.5, 2.0),
     r"beta and alpha must lie in \[0, 1\]"),
    ("relative_entropy_base", lambda g: theory.relative_entropy(0.5, 0.5, 1.0),
     r"base must exceed 1, got 1.0"),
    ("lp_prediction_p", lambda g: theory.lp_prediction(1.0, 3, 100),
     r"p must lie in \(1, inf\], got 1.0"),
    ("lp_lower_bound_t", lambda g: theory.lp_lower_bound(100, 3, 2.0, 0),
     r"t must be >= 1, got 0"),
    ("srw_lower_profile_eps", lambda g: theory.srw_lower_profile(100, 3, 1.0, 0.0),
     r"eps must be in \(0,1\), got 1.0"),
    ("nbrw_tmix_lower_eps", lambda g: theory.nbrw_tmix_lower(100, 3, 0.0),
     r"eps must be in \(0,1\], got 0.0"),
    ("diameter_bounds_lam", lambda g: theory.diameter_bounds(100, 6, 6.0),
     r"need 0 < lambda < d, got lambda=6.0, d=6"),
    ("diameter_bounds_lam_near_d", lambda g: theory.diameter_bounds(100, 6, 6.0 - 1e-12),
     r"too close to d=6"),
    ("weakly_adjusted_time_delta", lambda g: theory.weakly_adjusted_time(100, 3, math.inf),
     r"delta must be finite and >= 0, got inf"),
    ("l1_l2_gap_d", lambda g: theory.l1_l2_gap(2), r"need d > 2, got d=2"),
    ("tree_rows_d", lambda g: theory.tree_rows(2, 5), r"need d >= 3, got d=2"),
    ("tree_rows_t_max", lambda g: theory.tree_rows(3, -1), r"t_max must be >= 0, got -1"),
    ("tree_lp_norm_p", lambda g: theory.tree_lp_norm(3, theory.sphere_sizes(3, 2), 0.5),
     r"p must be in \[1, inf\], got 0.5"),
]

# theory: every function that takes n and d refuses d < 3 at (100, 2) and
# n <= d at (3, 3) through check_regular
_ND_CALLS = {
    "cutoff_prediction": theory.cutoff_prediction,
    "lp_prediction": lambda n, d: theory.lp_prediction(2.0, d, n),
    "lp_lower_bound": lambda n, d: theory.lp_lower_bound(n, d, 2.0, 3),
    "nbrw_tmix_lower": lambda n, d: theory.nbrw_tmix_lower(n, d, 0.5),
    "diameter_volume_lower_bound": theory.diameter_volume_lower_bound,
    "diameter_bounds": lambda n, d: theory.diameter_bounds(n, d, 1.0),
    "nbrw_threshold_time": theory.nbrw_threshold_time,
    "log_log_window": theory.log_log_window,
    "weakly_adjusted_time": lambda n, d: theory.weakly_adjusted_time(n, d, 0.0),
}
_CASES += [(f"{name}_{which}", lambda g, call=call, n=n, d=d: call(n, d), match)
           for name, call in _ND_CALLS.items()
           for which, n, d, match in [("d", 100, 2, r"need d >= 3, got d=2"),
                                      ("n", 3, 3, r"need n > d, got n=3, d=3")]]


@pytest.mark.parametrize("call, match", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_argument_out_of_range_raises_usage_error(small_graphs, call, match):
    with pytest.raises(ValueError, match=match) as info:
        call(small_graphs)
    assert info.type is UsageError


def test_nbrw_tmix_lower_subnormal_eps():
    # log_2(1/eps) is taken as -log(eps) / log 2: 1/eps would overflow
    assert theory.nbrw_tmix_lower(100, 3, 1e-320) == 9 - math.ceil(320 * math.log2(10))
    for eps in (1e-300, 1e-9, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0):
        for d in (3, 4, 6, 14):
            old = theory._iceil(math.log(1 / eps) / math.log(d - 1))
            assert theory.nbrw_tmix_lower(1000, d, eps) == (
                theory._iceil(math.log(d * 1000) / math.log(d - 1)) - old)
