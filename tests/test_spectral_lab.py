import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ramlab import builders, graph_core, spectral_lab
from ramlab.errors import GraphIsBipartite, NotRamanujan, SizeCap, VerificationFailed
from ramlab.spectral_lab import (
    adjacency_spectrum,
    alpha_exact,
    build_B,
    build_decomposition,
    certify,
    gamma,
    nbrw_l2_bound,
    report_from_eigenvalues,
    theta_pair,
    upsilon,
    upsilon_l2_transitive,
    verify_decomposition,
)


# --- spectra ------------------------------------------------------------------


def test_spectrum_k4(k4):
    rep = adjacency_spectrum(k4)
    assert np.allclose(rep.eigenvalues, [3, -1, -1, -1])
    assert rep.ramanujan
    assert rep.trivial == (3,)


def test_spectrum_petersen(petersen):
    rep = adjacency_spectrum(petersen)
    assert np.allclose(rep.eigenvalues, [3] + [1] * 5 + [-2] * 4)
    assert rep.ramanujan


def test_spectrum_k33(k33):
    rep = adjacency_spectrum(k33)
    assert np.allclose(rep.eigenvalues, [3, 0, 0, 0, 0, -3])
    assert rep.bipartite
    assert rep.ramanujan
    assert rep.trivial == (3, -3)


def test_spectrum_trace_zero(test_graphs):
    for g in test_graphs.values():
        if g.n <= spectral_lab.DENSE_CAP_DEFAULT:
            rep = adjacency_spectrum(g)
            assert abs(rep.eigenvalues.sum()) < 1e-8 * g.n
            assert abs(rep.eigenvalues[0] - g.d) < 1e-10
            # -d present iff bipartite
            assert (abs(rep.eigenvalues[-1] + g.d) < 1e-8) == g.bipartite


def test_partial_spectrum_pipeline(petersen):
    rep = adjacency_spectrum(petersen, dense_cap=4)
    assert rep.partial
    assert abs(rep.max_nontrivial_abs - 2.0) < 1e-8
    assert certify(rep).kind == "ramanujan"
    with pytest.raises(SizeCap):
        adjacency_spectrum(petersen, dense_cap=4, full=True)
    with pytest.raises(SizeCap):
        rep.nontrivial()


# --- certification ---------------------------------------------------------------


def test_certify_petersen(petersen):
    assert certify(adjacency_spectrum(petersen)).kind == "ramanujan"


def test_certify_weakly():
    d = 3
    lam = 2 * math.sqrt(2) + 0.1
    rep = report_from_eigenvalues([3, lam, 0.5, -0.5, -1, -2.1], 6, d,
                                  bipartite=False)
    cert = certify(rep, delta_threshold=0.2)
    assert cert.kind == "weakly_ramanujan"
    assert math.isclose(cert.delta, 0.1, abs_tol=1e-12)


def test_certify_disconnected_not_certified():
    rep = report_from_eigenvalues([3, 3, -1, -1, -2, -2], 6, 3, bipartite=False)
    assert certify(rep).kind == "not_certified"


def test_certify_with_exceptions():
    d = 3
    eigs = [3, 2.95, 1, -1, -1, -2]
    rep = report_from_eigenvalues(eigs, 6, d, bipartite=False)
    cert = certify(rep, delta_threshold=0.01, exceptional_budget=1, eps_prime=0.01)
    assert cert.kind == "weakly_with_exceptions"
    assert cert.exceptional_count == 1
    assert math.isclose(cert.exceptional_max_abs, 2.95)
    # budget 0 refuses
    assert certify(rep, delta_threshold=0.01, exceptional_budget=0).kind == "not_certified"


# --- theta / alpha ---------------------------------------------------------------


def test_theta_examples():
    a, b = theta_pair(0.0, 3)
    assert a == pytest.approx(1j * math.sqrt(2))
    assert b == pytest.approx(-1j * math.sqrt(2))
    assert theta_pair(5, 5) == (pytest.approx(4.0), pytest.approx(1.0))
    thr = 2 * math.sqrt(2)
    a, b = theta_pair(thr, 3)
    assert a == pytest.approx(math.sqrt(2)) and b == pytest.approx(math.sqrt(2))


@given(lam=st.floats(-6, 6), d=st.integers(3, 12))
@settings(max_examples=200, deadline=None)
def test_theta_pair_is_quadratic_root(lam, d):
    if abs(lam) > d:
        return
    a, b = theta_pair(lam, d)
    assert cmath.isclose(a + b, lam, abs_tol=1e-9)
    assert cmath.isclose(a * b, d - 1, abs_tol=1e-9)


def test_weakly_theta_closed_form():
    # |lambda| = (1+eps) 2 sqrt(d-1) gives real roots
    # (1 + eps +- sqrt(eps (2+eps))) sqrt(d-1)
    for d in (3, 6):
        for eps in (1e-6, 1e-3, 0.05):
            lam = (1 + eps) * 2 * math.sqrt(d - 1)
            a, b = theta_pair(lam, d)
            want_a = (1 + eps + math.sqrt(eps * (2 + eps))) * math.sqrt(d - 1)
            want_b = (1 + eps - math.sqrt(eps * (2 + eps))) * math.sqrt(d - 1)
            assert abs(a - want_a) < 1e-12 * max(1, abs(want_a))
            assert abs(b - want_b) < 1e-12 * max(1, abs(want_b))


def test_alpha_exact_cases():
    assert alpha_exact(1.0, 3) == 1.0
    assert alpha_exact(-3.0, 3) == 0.0
    assert math.isclose(alpha_exact(2.9, 3), math.sqrt(9 - 8.41))
    assert alpha_exact(2 * math.sqrt(2), 3) == 1.0  # threshold counts as inside
    with pytest.raises(ValueError):
        alpha_exact(3.0, 3)


# --- the operator B ---------------------------------------------------------------


def test_b_row_sums_and_principal(k4):
    es = graph_core.validate_and_index(k4)
    op = build_B(k4, es)
    dense = op.dense()
    assert np.all(dense.sum(axis=1) == 2)
    ones = np.ones(12)
    assert np.allclose(op.apply(ones), 2 * ones)


def test_b_matches_definition(small_graphs, rand3_50):
    for g in list(small_graphs.values()) + [rand3_50]:
        es = graph_core.validate_and_index(g)
        dense = build_B(g, es).dense()
        assert np.array_equal(dense, oracles.nbrw_dense_matrix(g, es))


def test_b_apply_matches_dense(petersen):
    es = graph_core.validate_and_index(petersen)
    op = build_B(petersen, es)
    dense = op.dense()
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(es.N)
        assert np.abs(op.apply(v) - dense @ v).max() < 1e-12


def test_bbstar_three_case_formula(k4):
    es = graph_core.validate_and_index(k4)
    b = build_B(k4, es).dense()
    bbt = b @ b.T
    d = k4.d
    for e in range(es.N):
        for f in range(es.N):
            same_head = es.head[e] == es.head[f]
            if e == f:
                assert bbt[e, f] == d - 1
            elif same_head and es.tail[e] != es.tail[f]:
                assert bbt[e, f] == d - 2
            else:
                assert bbt[e, f] == 0


def test_b_dense_size_cap(petersen):
    es = graph_core.validate_and_index(petersen)
    with pytest.raises(SizeCap):
        build_B(petersen, es, dense_cap=10).dense()


# --- block decomposition -----------------------------------------------------------


def test_k4_block_structure(k4):
    es = graph_core.validate_and_index(k4)
    dec = build_decomposition(k4, es)
    assert (dec.minus_one_multiplicity, dec.plus_one_multiplicity) == (2, 3)
    assert len(dec.blocks) == 3
    want = {(-1 + 1j * math.sqrt(7)) / 2, (-1 - 1j * math.sqrt(7)) / 2}
    for b in dec.blocks:
        assert abs(b.theta - max(want, key=lambda w: w.imag)) < 1e-12
        assert abs(b.theta_prime - b.theta.conjugate()) < 1e-12
        assert math.isclose(abs(b.theta), math.sqrt(2), rel_tol=1e-12)
        assert math.isclose(abs(b.alpha), 1.0, rel_tol=1e-10)
    # column count: 1 + 6 + 2 + 3 = 12 = N
    assert 1 + 2 * len(dec.blocks) + 2 + 3 == dec.N


def test_k33_block_structure(k33):
    es = graph_core.validate_and_index(k33)
    dec = build_decomposition(k33, es)
    assert dec.bipartite
    assert dec.minus_one_multiplicity == 4  # N/2 - n + 1 = 9 - 6 + 1
    assert dec.plus_one_multiplicity == 4
    assert len(dec.blocks) == 4  # nontrivial eigenvalue 0 with multiplicity 4
    assert dec.eigenvalue_multiset()[1] == -(k33.d - 1)  # the -(d-1) principal pair entry


def test_petersen_alpha_values(petersen):
    es = graph_core.validate_and_index(petersen)
    dec = build_decomposition(petersen, es)
    assert len(dec.blocks) == 9
    for b in dec.blocks:
        assert math.isclose(abs(b.alpha), 1.0, rel_tol=1e-10)  # d - 2


def test_ramanujan_blocks_conjugate(petersen, rand3_50):
    for g in (petersen, rand3_50):
        rep = adjacency_spectrum(g)
        es = graph_core.validate_and_index(g)
        dec = build_decomposition(g, es)
        if rep.ramanujan and not g.bipartite:
            for b in dec.blocks:
                assert abs(b.theta_prime - b.theta.conjugate()) < 1e-9
                assert abs(abs(b.theta) - math.sqrt(g.d - 1)) < 1e-9


def test_jordan_branch(c6_x_k4):
    es = graph_core.validate_and_index(c6_x_k4)
    dec = build_decomposition(c6_x_k4, es)
    jordan = [b for b in dec.blocks if b.jordan]
    assert len(jordan) == 2  # eigenvalue 4 = 2 sqrt(4) has multiplicity 2
    for b in jordan:
        assert abs(b.theta - 2.0) < 1e-8
        assert abs(b.theta - b.theta_prime) < 1e-12
        assert abs(abs(b.alpha) - 3.0) < 1e-8  # d - 2
    rep = verify_decomposition(build_B(c6_x_k4, es).dense(), dec)
    assert rep["ok"], rep


def test_parseval_rows(petersen):
    es = graph_core.validate_and_index(petersen)
    dec = build_decomposition(petersen, es)
    row_norms = (np.abs(dec.U) ** 2).sum(axis=1)
    assert np.abs(row_norms - 1.0).max() < 1e-10


def test_alpha_below_2d_minus_2(test_graphs):
    for g in test_graphs.values():
        if g.n * g.d > 800:
            continue
        es = graph_core.validate_and_index(g)
        dec = build_decomposition(g, es)
        for b in dec.blocks:
            assert abs(b.alpha) < 2 * (g.d - 1)


# the dense oracle's eigh(B B^T) reads up to ~1e-15 where the exact
# | ||B|| - (d-1) | is 0 (0/1 matrix with row and column sums d-1)
_DENSE_EIGH_ROUNDING = 1e-14


def _decomposed(g):
    es = graph_core.validate_and_index(g)
    return build_decomposition(g, es), build_B(g, es).dense()


def _assert_bounds_oracle(rep, oracle):
    assert rep["ok"] == oracle["ok"]
    assert rep["reconstruction"] >= oracle["reconstruction"]
    assert rep["operator_norm"] >= oracle["operator_norm"] - _DENSE_EIGH_ROUNDING
    for key in ("unitarity", "bass_multiset", "alpha"):
        assert rep[key] == oracle[key], key


def test_verify_bounds_dense_oracle(criterion1_graphs):
    # the residual and row-sum bounds are never below the dense values, and
    # every verdict agrees with the dense check
    graphs = {**criterion1_graphs,
              "rand4(100)": builders.build_random_regular(100, 4, 0),
              "rand3(200)": builders.build_random_regular(200, 3, 0)}
    for name, g in graphs.items():
        dec, b = _decomposed(g)
        rep = verify_decomposition(b, dec)
        assert rep["ok"], (name, rep)
        _assert_bounds_oracle(rep, oracles.verify_decomposition_dense(b, dec))


def _add_b_entry(b, dec):
    b[0, np.flatnonzero(b[0] == 0)[0]] = 1.0
    return b, dec


def _drop_b_entry(b, dec):
    b[0, np.flatnonzero(b[0])[0]] = 0.0
    return b, dec


def _negative_b_entry(b, dec):
    # ||B|| rises above d-1 while the signed row sums of B B^T stay at most
    # (d-1)^2: only the row sums of |B| |B|^T show it
    b[2, np.flatnonzero(b[2] == 0)[0]] = -1.0
    return b, dec


def _damp_b_rows(b, dec):
    # halve all rows but one per head vertex: ||B|| falls further below d-1
    # than the largest row sum of B B^T shows, so the lower bound must see it
    head = np.argmax(b > 0, axis=1) // dec.d
    damp = np.full(dec.N, 0.5)
    damp[np.unique(head, return_index=True)[1]] = 1.0
    return b * damp[:, None], dec


def _scale_alpha(b, dec):
    blocks = list(dec.blocks)
    blocks[0] = replace(blocks[0], alpha=blocks[0].alpha * (1 + 1e-6))
    return b, replace(dec, blocks=blocks)


def _move_theta(b, dec):
    blocks = list(dec.blocks)
    blocks[-1] = replace(blocks[-1], theta=blocks[-1].theta + 1e-3)
    return b, replace(dec, blocks=blocks)


def _move_u_entry(b, dec):
    u = dec.U.copy()
    u[0, 3] += 1e-3
    return b, replace(dec, U=u)


def _scale_u_column(b, dec):
    # B U = U Lambda still holds; only the B (I - U U*) term sees it
    u = dec.U.copy()
    u[:, 0] *= 1 + 1e-3
    return b, replace(dec, U=u)


def _swap_u_columns(b, dec):
    # the principal column (eigenvalue d-1) and the last (+1 eigenspace)
    u = dec.U.copy()
    u[:, [0, -1]] = u[:, [-1, 0]]
    return b, replace(dec, U=u)


_MUTATIONS = {  # mutation -> the report key that must catch it
    _add_b_entry: "reconstruction",
    _drop_b_entry: "reconstruction",
    _negative_b_entry: "reconstruction",
    _damp_b_rows: "operator_norm",
    _scale_alpha: "alpha",
    _move_theta: "bass_multiset",
    _move_u_entry: "unitarity",
    _scale_u_column: "unitarity",
    _swap_u_columns: "reconstruction",
}
def test_verify_detects_corruption(k4, k33, petersen, c6_x_k4):
    # each one-entry corruption flips the verdict through the key it targets,
    # and the bounds stay at or above the dense values
    for g in (k4, k33, petersen, c6_x_k4):
        dec, b = _decomposed(g)
        for mutate, key in _MUTATIONS.items():
            b_bad, dec_bad = mutate(b.copy(), dec)
            rep = verify_decomposition(b_bad, dec_bad)
            assert not rep["ok"], (mutate.__name__, rep)
            assert rep[key] > oracles.DECOMPOSITION_TOLERANCES[key], (mutate.__name__, rep)
            with pytest.raises(VerificationFailed):
                verify_decomposition(b_bad, dec_bad, raise_on_fail=True)
            _assert_bounds_oracle(rep, oracles.verify_decomposition_dense(b_bad, dec_bad))


def test_ihara_bass_determinant(criterion1_graphs):
    # det(I - uB) = (1 - u^2)^(m-n) det((1 + (d-1)u^2) I - uA)
    #             = prod (1 - u mu) over the predicted multiset,
    # a check of the multiset that does not go through eigvals
    rng = np.random.default_rng(7)
    for name, g in criterion1_graphs.items():
        es = graph_core.validate_and_index(g)
        multiset = build_decomposition(g, es).eigenvalue_multiset()
        for _ in range(3):
            u = cmath.rect(rng.uniform(0.1, 0.95) / (g.d - 1), rng.uniform(-math.pi, math.pi))
            lhs, bass, product = oracles.ihara_bass_logs(g, es, multiset, u)
            for other in (bass, product):
                diff = lhs - other
                # logs agree up to a multiple of 2 pi i
                diff -= 2j * math.pi * round(diff.imag / (2 * math.pi))
                assert abs(diff) <= 1e-9 * max(1.0, abs(lhs)), (name, u, lhs, other)


def test_decomposition_size_cap(petersen):
    with pytest.raises(SizeCap):
        build_decomposition(petersen, dense_cap=10)


# --- gamma and the L2 machinery -----------------------------------------------------


def test_gamma_t1_is_alpha():
    assert gamma(1.5 + 0.5j, 2.0 + 0j, 1) == 2.0 + 0j


def test_gamma_real_theta():
    assert gamma(1.7, 0.9, 3) == pytest.approx(3 * 0.9 * 1.7**2)


def test_gamma_matches_direct_sum():
    theta = math.sqrt(2) * cmath.exp(1j * math.pi / 3)
    for t in (1, 2, 4, 9):
        want = oracles.gamma_direct(theta, 1.0, t)
        # theta^t can be nearly real, cancelling the quotient to ~0; compare
        # at the scale of the summands t |theta|^(t-1)
        scale = t * abs(theta) ** (t - 1)
        assert abs(gamma(theta, 1.0, t) - want) < 1e-13 * scale


def test_gamma_bound():
    d = 5
    rng = np.random.default_rng(0)
    for _ in range(50):
        phi = rng.uniform(0, math.pi)
        theta = math.sqrt(d - 1) * cmath.exp(1j * phi)
        alpha = rng.uniform(0, 2 * (d - 1))
        for t in (1, 3, 10):
            assert abs(gamma(theta, alpha, t)) <= 2 * (d - 1) * t * abs(theta) ** (t - 1) + 1e-9


def test_nbrw_l2_bound_values():
    out = nbrw_l2_bound(4, 3, 1)
    assert out["bound"] == pytest.approx(108.0)
    out = nbrw_l2_bound(12180, 6, 9)
    assert out["threshold_time"] == 9
    assert out["c_d"] == pytest.approx(40 / math.log(5) ** 2 + 1)
    # bound is eventually decreasing in t
    vals = [nbrw_l2_bound(12180, 6, t)["bound"] for t in range(3, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- exact transitive L2 mixing -------------------------------------------------------


def test_upsilon_at_one(petersen, k4):
    for g in (petersen, k4):
        rep = adjacency_spectrum(g)
        assert upsilon(rep, 1) == pytest.approx((g.d - 2) ** 2 / (g.d - 1))


def test_gamma_sine_identity(petersen):
    # |gamma_i(t)| = (d-2) (d-1)^((t-1)/2) |sin(t phi)/sin(phi)|
    d = petersen.d
    rep = adjacency_spectrum(petersen)
    for lam in (1.0, -2.0):
        theta, _ = theta_pair(lam, d)
        phi = math.acos(lam / (2 * math.sqrt(d - 1)))
        for t in (1, 3, 7, 12):
            lhs = abs(gamma(theta, d - 2, t))
            rhs = (d - 2) * (d - 1) ** ((t - 1) / 2) * abs(math.sin(t * phi) / math.sin(phi))
            assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


def test_upsilon_l2_transitive_petersen(petersen):
    rep = adjacency_spectrum(petersen)
    for eps in (0.5, 0.1, 0.01):
        out = upsilon_l2_transitive(petersen, rep, eps)
        assert out["match"], out


def test_upsilon_rejects_bipartite_and_nonramanujan(k33, k4):
    rep = adjacency_spectrum(k33)
    with pytest.raises(GraphIsBipartite):
        upsilon_l2_transitive(k33, rep, 0.1)
    fake = report_from_eigenvalues([3, 2.95, -1, -1], 4, 3, bipartite=False)
    with pytest.raises(NotRamanujan):
        upsilon_l2_transitive(k4, fake, 0.1)
