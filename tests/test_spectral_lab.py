import cmath
import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ramlab import builders, graph_core, spectral_lab, walk_engine
from ramlab.errors import SizeCap, VerificationFailed
from ramlab.spectral_lab import (
    adjacency_spectrum,
    alpha_exact,
    build_B,
    build_decomposition,
    certify,
    report_from_eigenvalues,
    theta_pair,
    verify_decomposition,
)


# --- spectra ------------------------------------------------------------------


def test_spectrum_k4(k4):
    rep = adjacency_spectrum(k4)
    assert np.allclose(rep.eigenvalues, [3, -1, -1, -1])
    assert rep.ramanujan
    assert np.allclose(rep.nontrivial(), [-1, -1, -1])  # one copy of d dropped


def test_spectrum_petersen(petersen):
    rep = adjacency_spectrum(petersen)
    assert np.allclose(rep.eigenvalues, [3] + [1] * 5 + [-2] * 4)
    assert rep.ramanujan


def test_spectrum_k33(k33):
    rep = adjacency_spectrum(k33)
    assert np.allclose(rep.eigenvalues, [3, 0, 0, 0, 0, -3])
    assert rep.bipartite
    assert rep.ramanujan
    assert np.allclose(rep.nontrivial(), [0, 0, 0, 0])  # d and -d dropped


def test_spectrum_trace_zero(test_graphs):
    for g in test_graphs.values():
        if g.n <= spectral_lab.DENSE_CAP:
            rep = adjacency_spectrum(g)
            assert abs(rep.eigenvalues.sum()) < 1e-8 * g.n
            assert abs(rep.eigenvalues[0] - g.d) < 1e-10
            # -d present iff bipartite
            assert (abs(rep.eigenvalues[-1] + g.d) < 1e-8) == g.bipartite


def _spectrum_at_cap(monkeypatch, graph, cap):
    with monkeypatch.context() as patch:
        patch.setattr(spectral_lab, "DENSE_CAP", cap)
        return adjacency_spectrum(graph)


def test_partial_spectrum_pipeline(monkeypatch, petersen):
    rep = _spectrum_at_cap(monkeypatch, petersen, 4)
    assert rep.partial
    assert abs(rep.max_nontrivial_abs - 2.0) < 1e-8
    assert certify(rep).kind == "ramanujan"
    with pytest.raises(SizeCap):
        rep.nontrivial()


def test_partial_spectrum_is_reproducible(monkeypatch, lps13):
    # Lanczos above the cap gives the same bits on every call, within 1e-10
    # of the dense eigenvalues it brackets
    first, second = (_spectrum_at_cap(monkeypatch, lps13, 10) for _ in range(2))
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.max_nontrivial_abs == second.max_nontrivial_abs
    dense = adjacency_spectrum(lps13).eigenvalues
    assert np.abs(first.eigenvalues - dense[[0, 1, -2, -1]]).max() < 1e-10
    assert abs(first.max_nontrivial_abs - np.abs(dense[1:-1]).max()) < 1e-10


@pytest.mark.parametrize("p, q", [(5, 13), (13, 17), (17, 13), (5, 17)])
def test_translation_blocks_match_dense(p, q):
    g = builders.build_lps(builders.LpsParams(p, q))
    rep = adjacency_spectrum(g)
    assert rep.method == "translation_blocks" and not rep.partial
    dense = np.linalg.eigvalsh(graph_core.adjacency_sparse(g).toarray())[::-1]
    assert np.abs(rep.eigenvalues - dense).max() < 1e-10
    assert rep.ramanujan


def test_spectrum_method_follows_the_cap(monkeypatch, petersen, lps13):
    # LPS(5,13) has 7 solved blocks of order 168: the rule
    # (floor(m/2)+1) (n/m)^3 <= cap^3 holds iff cap >= 322
    assert _spectrum_at_cap(monkeypatch, lps13, 322).method == "translation_blocks"
    assert _spectrum_at_cap(monkeypatch, lps13, 321).method == "ritz_estimate"
    # a graph without a translation keeps the dense and Lanczos paths
    assert adjacency_spectrum(petersen).method == "dense"
    assert _spectrum_at_cap(monkeypatch, petersen, 4).method == "ritz_estimate"


@pytest.mark.parametrize("name", ["petersen", "k10", "k33", "rand3_50", "lift20"])
def test_dense_spectrum_is_the_one_block_case(request, name):
    # a graph without a translation is its own one Fourier block, M_0 = A:
    # its report holds the dense adjacency solve's eigenvalues, bit for bit
    g = request.getfixturevalue(name)
    rep = adjacency_spectrum(g)
    assert rep.method == "dense" and rep.blocks == (1, g.n)
    dense = np.linalg.eigvalsh(graph_core.adjacency_sparse(g).toarray())[::-1]
    assert np.array_equal(rep.eigenvalues, dense)


def test_translation_spectrum_trace_identity(lps29):
    # sum lambda^k = tr(A^k) = n W_k(0) on a vertex-transitive graph, W_k(0)
    # the exact count of closed k-walks at vertex 0; n = 12180 is above the cap
    rep = adjacency_spectrum(lps29)
    assert rep.method == "translation_blocks" and rep.eigenvalues.size == lps29.n
    a = graph_core.adjacency_sparse(lps29).astype(np.int64)
    walks = np.zeros(lps29.n, dtype=np.int64)
    walks[0] = 1
    for k in range(1, 13):
        walks = a @ walks
        exact = lps29.n * int(walks[0])
        assert abs(float((rep.eigenvalues**k).sum()) - exact) <= 1e-10 * max(exact, 6**k), k


def test_translation_spectrum_l2_identity(lps29):
    # SRW from vertex 0 on the non-bipartite, vertex-transitive LPS(5,29):
    # D_2(t)^2 = sum over nontrivial lambda of (lambda/d)^(2t)
    rep = adjacency_spectrum(lps29)
    curve = walk_engine.mixing_curve(lps29, "srw", 0, 20, p_list=[2])
    ratios = rep.nontrivial() / lps29.d
    for t in range(1, 21):
        spectral = float((ratios ** (2 * t)).sum())
        assert abs(curve.d_p[2.0][t] ** 2 - spectral) <= 1e-10 * spectral, t


# --- certification ---------------------------------------------------------------


def test_certify_petersen(petersen):
    assert certify(adjacency_spectrum(petersen)).kind == "ramanujan"


def test_certify_weakly():
    d = 3
    lam = 2 * math.sqrt(2) + 0.1
    rep = report_from_eigenvalues([3, lam, 0.5, -0.5, -1, -2.1], 6, d,
                                  bipartite=False, method="dense")
    cert = certify(rep, delta_threshold=0.2)
    assert cert.kind == "weakly_ramanujan"
    assert math.isclose(cert.delta, 0.1, abs_tol=1e-12)


def test_certify_disconnected_not_certified():
    rep = report_from_eigenvalues([3, 3, -1, -1, -2, -2], 6, 3, bipartite=False,
                                  method="dense")
    assert certify(rep).kind == "not_certified"


def test_certify_with_exceptions():
    d = 3
    eigs = [3, 2.95, 1, -1, -1, -2]
    rep = report_from_eigenvalues(eigs, 6, d, bipartite=False, method="dense")
    cert = certify(rep, delta_threshold=0.01, exceptional_budget=1)
    assert cert.kind == "weakly_with_exceptions"
    assert cert.exceptional_count == 1
    assert math.isclose(cert.exceptional_max_abs, 2.95)
    # budget 0 refuses
    assert certify(rep, delta_threshold=0.01, exceptional_budget=0).kind == "not_certified"


def test_certify_rejects_bad_limits():
    # the prism C20 x K2: max nontrivial |lambda| 2.902 against the bound 2.828
    edges = [(i, (i + 1) % 20) for i in range(20)]
    edges += [(20 + i, 20 + (i + 1) % 20) for i in range(20)]
    edges += [(i, 20 + i) for i in range(20)]
    prism = graph_core.from_edges(40, 3, sorted((min(e), max(e)) for e in edges),
                                  {"family": "prism"})
    rep = adjacency_spectrum(prism)
    assert certify(rep).kind == "weakly_ramanujan"
    for delta, budget in ((-1.0, 100), (math.nan, 0), (math.inf, 0), (0.1, -1)):
        with pytest.raises(ValueError):
            certify(rep, delta_threshold=delta, exceptional_budget=budget)


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
    b = build_B(k4)
    assert np.all(b.toarray().sum(axis=1) == 2)
    ones = np.ones(12)
    assert np.allclose(b @ ones, 2 * ones)


def test_b_matches_definition(criterion1_graphs, rand3_50, c6_x_k4):
    # the CSR form, entry for entry
    for name, g in {**criterion1_graphs, "rand3_50": rand3_50, "c6_x_k4": c6_x_k4}.items():
        b = build_B(g)
        assert b.has_canonical_format, name
        assert np.array_equal(b.toarray(), oracles.nbrw_dense_matrix(g)), name


def test_bbstar_three_case_formula(k4):
    tail, head, _ = oracles.directed_edges(k4)
    b = build_B(k4).toarray()
    bbt = b @ b.T
    d = k4.d
    for e in range(tail.size):
        for f in range(tail.size):
            same_head = head[e] == head[f]
            if e == f:
                assert bbt[e, f] == d - 1
            elif same_head and tail[e] != tail[f]:
                assert bbt[e, f] == d - 2
            else:
                assert bbt[e, f] == 0


def test_bass_lu_keeps_diagonal_pivots(criterion1_graphs, c6_x_k4):
    # at |u| (d-1) = 1/2, I - uB factors with no pivoting, and the sum of the
    # logs of U's diagonal is log det(I - uB)
    for name, g in {**criterion1_graphs, "c6_x_k4": c6_x_k4}.items():
        b = build_B(g)
        for u in spectral_lab.bass_points(g.d):
            lu = spectral_lab._lu_i_minus_ub(b.tocsc(), u)
            assert np.array_equal(lu.perm_r, lu.perm_c), (name, u)
            diff = np.log(lu.U.diagonal()).sum() - oracles.logdet(np.eye(b.shape[0]) - u * b.toarray())
            diff -= 2j * math.pi * round(diff.imag / (2 * math.pi))
            assert abs(diff) <= 1e-12, (name, u, diff)


# --- block decomposition -----------------------------------------------------------


def _thetas(dec) -> tuple:
    """(theta, theta') of each 2x2 block of Lambda, read off its diagonal."""
    first = 2 if dec.bipartite else 1
    return (dec.diag[first : first + 2 * dec.alpha.size : 2],
            dec.diag[first + 1 : first + 2 * dec.alpha.size : 2])


def test_lambda_diagonal_layout(k4, k33, petersen, c6_x_k4):
    # the diagonal holds d-1, -(d-1) when bipartite, the roots of
    # theta^2 - lambda theta + (d-1) (lambda/2 twice at the threshold) of
    # each nontrivial eigenvalue in the order of lam, then the -1 and +1
    # runs; lam is the nontrivial spectrum, one entry per block
    for g in (k4, k33, petersen, c6_x_k4):
        dec = build_decomposition(g)
        want = [g.d - 1] + ([-(g.d - 1)] if g.bipartite else [])
        for lam, jordan in zip(dec.lam.tolist(), dec.jordan.tolist()):
            want += [lam / 2, lam / 2] if jordan else theta_pair(lam, g.d)
        want += [-1.0] * dec.minus_one_multiplicity + [1.0] * dec.plus_one_multiplicity
        assert dec.diag.tolist() == want
        assert dec.lam.size == dec.alpha.size == dec.jordan.size
        assert np.allclose(np.sort(dec.lam), np.sort(adjacency_spectrum(g).nontrivial()))


def test_k4_block_structure(k4):
    dec = build_decomposition(k4)
    assert (dec.minus_one_multiplicity, dec.plus_one_multiplicity) == (2, 3)
    assert dec.alpha.size == 3
    want = {(-1 + 1j * math.sqrt(7)) / 2, (-1 - 1j * math.sqrt(7)) / 2}
    for theta, theta_prime, alpha in zip(*_thetas(dec), dec.alpha):
        assert abs(theta - max(want, key=lambda w: w.imag)) < 1e-12
        assert abs(theta_prime - theta.conjugate()) < 1e-12
        assert math.isclose(abs(theta), math.sqrt(2), rel_tol=1e-12)
        assert math.isclose(abs(alpha), 1.0, rel_tol=1e-10)
    # column count: 1 + 6 + 2 + 3 = 12 = N
    assert 1 + 2 * dec.alpha.size + 2 + 3 == dec.N == dec.diag.size


def test_k33_block_structure(k33):
    dec = build_decomposition(k33)
    assert dec.bipartite
    assert dec.minus_one_multiplicity == 4  # N/2 - n + 1 = 9 - 6 + 1
    assert dec.plus_one_multiplicity == 4
    assert dec.alpha.size == 4  # nontrivial eigenvalue 0 with multiplicity 4
    assert dec.diag[1] == -(k33.d - 1)  # the -(d-1) principal pair entry


def test_petersen_alpha_values(petersen):
    dec = build_decomposition(petersen)
    assert dec.alpha.size == 9
    for alpha in dec.alpha:
        assert math.isclose(abs(alpha), 1.0, rel_tol=1e-10)  # d - 2


def test_ramanujan_blocks_conjugate(petersen, rand3_50):
    for g in (petersen, rand3_50):
        rep = adjacency_spectrum(g)
        dec = build_decomposition(g)
        if rep.ramanujan and not g.bipartite:
            for theta, theta_prime in zip(*_thetas(dec)):
                assert abs(theta_prime - theta.conjugate()) < 1e-9
                assert abs(abs(theta) - math.sqrt(g.d - 1)) < 1e-9


def test_jordan_branch(c6_x_k4):
    dec = build_decomposition(c6_x_k4)
    theta, theta_prime = (t[dec.jordan] for t in _thetas(dec))
    assert theta.size == 2  # eigenvalue 4 = 2 sqrt(4) has multiplicity 2
    for th, thp, alpha in zip(theta, theta_prime, dec.alpha[dec.jordan]):
        assert abs(th - 2.0) < 1e-8
        assert abs(th - thp) < 1e-12
        assert abs(abs(alpha) - 3.0) < 1e-8  # d - 2
    rep = verify_decomposition(build_B(c6_x_k4), dec)
    assert rep["ok"], rep
    assert rep["bass_multiset"] <= 1e-12, rep


def test_parseval_rows(petersen):
    dec = build_decomposition(petersen)
    row_norms = (np.abs(dec.U) ** 2).sum(axis=1)
    assert np.abs(row_norms - 1.0).max() < 1e-10


def test_alpha_below_2d_minus_2(test_graphs):
    for g in test_graphs.values():
        if g.n * g.d > 800:
            continue
        dec = build_decomposition(g)
        for alpha in dec.alpha:
            assert abs(alpha) < 2 * (g.d - 1)


# the dense oracle's eigh(B B^T) reads up to ~1e-15 where the exact
# | ||B|| - (d-1) | is 0 (0/1 matrix with row and column sums d-1)
_DENSE_EIGH_ROUNDING = 1e-14


def _decomposed(g):
    return build_decomposition(g), build_B(g).toarray()


# SuperLU and LAPACK's dense LU round log det(I - uB) differently
_LOGDET_ROUNDING = 1e-12


def _assert_bounds_oracle(rep, oracle):
    assert rep["ok"] == oracle["ok"]
    assert rep["reconstruction"] >= oracle["reconstruction"]
    assert rep["operator_norm"] >= oracle["operator_norm"] - _DENSE_EIGH_ROUNDING
    for key in ("unitarity", "alpha"):
        assert rep[key] == oracle[key], key
    bass, tol = rep["bass_multiset"], oracles.DECOMPOSITION_TOLERANCES["bass_multiset"]
    assert math.isclose(bass, oracle["bass_multiset"], rel_tol=0, abs_tol=_LOGDET_ROUNDING)
    assert (bass <= tol) == (oracle["bass_multiset"] <= tol)


def test_default_tolerances_match_oracle():
    params = inspect.signature(verify_decomposition).parameters
    defaults = {"reconstruction": "tol_recon", "unitarity": "tol_unitary",
                "bass_multiset": "tol_bass", "operator_norm": "tol_opnorm", "alpha": "tol_alpha"}
    assert {key: params[name].default for key, name in defaults.items()} == \
        oracles.DECOMPOSITION_TOLERANCES


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
        # the CSR that build_B makes gives the report the dense B gives
        assert verify_decomposition(build_B(g), dec) == rep, name
        _assert_bounds_oracle(rep, oracles.verify_decomposition_dense(b, dec))


def test_verify_report_independent_of_row_blocks(k33, petersen, c6_x_k4, rand3_50,
                                                 monkeypatch):
    # every row is reduced whole, so one-row blocks and a single block of all
    # N rows give the report of the default budget, to the last bit
    for g in (k33, petersen, c6_x_k4, rand3_50):
        dec, b = build_decomposition(g), build_B(g)
        rep = verify_decomposition(b, dec)
        for budget in (1, 16 * dec.N * (dec.N + 1)):
            with monkeypatch.context() as m:
                m.setattr(spectral_lab, "_BLOCK_BYTES", budget)
                assert verify_decomposition(b, dec) == rep, (g.provenance, budget)


def test_verify_fortran_ordered_u(petersen, c6_x_k4, rand3_50):
    for g in (petersen, c6_x_k4, rand3_50):
        dec, b = build_decomposition(g), build_B(g)
        dec_f = replace(dec, U=np.asfortranarray(dec.U))
        assert dec_f.U.flags.f_contiguous and not dec_f.U.flags.c_contiguous
        assert verify_decomposition(b, dec_f) == verify_decomposition(b, dec)


def _traced_peak(call):
    """The peak of tracemalloc's traced bytes over one call and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_verify_holds_no_second_dense_array():
    # besides U, verification holds the packed Gram triangle (half an N x N
    # complex array) and one column chunk of it, and frees the triangle
    # before the residual's row blocks: this reads about 0.59. A copy of the
    # triangle's rows, the triangle held through the residual pass, or any
    # second full N x N complex array reads above 0.7
    g = builders.build_random_regular(400, 3, 0)
    dec, b = build_decomposition(g), build_B(g)
    assert dec.N == 1200
    verify_decomposition(b, dec)  # scipy's first-call allocations stay out
    peak, rep = _traced_peak(lambda: verify_decomposition(b, dec))
    assert rep["ok"], rep
    assert peak < 0.7 * 16 * dec.N**2, peak / (16 * dec.N**2)


def test_build_holds_u_and_small_temporaries():
    # U plus the n x n eigensolve and the star-space QR, whose Q is formed
    # only in the N/2 x (N/2 - n + 1) columns it keeps and written straight
    # into U's columns: this reads about 1.20; the full N/2 x N/2 Q read
    # 1.27, and scipy's Q, R and copies and separate basis arrays 1.78
    g = builders.build_random_regular(400, 3, 0)
    build_decomposition(g)  # scipy's first-call allocations stay out
    peak, dec = _traced_peak(lambda: build_decomposition(g))
    assert dec.N == 1200
    assert peak < 1.25 * 16 * dec.N**2, peak / (16 * dec.N**2)


@pytest.mark.parametrize("name", ["petersen", "k33"])
def test_verify_reads_the_packed_gram_diagonal(small_graphs, name):
    # zhfrk's packed triangle is reduced where it lies, with row i < N/2
    # ending at arf[i+1, i] and row N/2 + i at arf[i, i]: a column scaled
    # off unit norm moves one diagonal entry, a column added into another
    # one entry below the diagonal, on either side of N/2 or across it
    # (N/2 = 15 for Petersen, 9, odd, for K3,3). A wrong diagonal would
    # read about 1 against the dense value of about 1e-7.
    dec, b = _decomposed(small_graphs[name])
    N, k = dec.N, dec.N // 2
    perturbed = []
    for c in (0, k - 1, k, N - 1):
        u = dec.U.copy()
        u[:, c] *= 1 + 1e-7
        perturbed.append((f"scale column {c}", u))
    for a, c in ((1, k - 2), (k + 1, N - 2), (3, k + 2)):
        u = dec.U.copy()
        u[:, c] += 1e-7 * u[:, a]
        perturbed.append((f"add column {a} to {c}", u))
    for what, u in perturbed:
        dec_bad = replace(dec, U=u)
        rep = verify_decomposition(b, dec_bad)
        oracle = oracles.verify_decomposition_dense(b, dec_bad)
        assert math.isclose(rep["unitarity"], oracle["unitarity"], rel_tol=1e-9), \
            (what, rep["unitarity"], oracle["unitarity"])
        assert rep["reconstruction"] >= oracle["reconstruction"], (what, rep, oracle)
        assert not rep["ok"], (what, rep)


@pytest.mark.parametrize("N", range(2, 41, 2))
def test_rfp_rows_match_ztfttr(N):
    # the two facts verify_decomposition reads the packed triangle by, on
    # LAPACK's own unpacking: row i < N/2 ends at arf[i+1, i] and row
    # N/2 + i at arf[i, i], and the packed array holds each entry of the
    # lower triangle once (the trailing half by its conjugate)
    k = N // 2
    rng = np.random.default_rng(N)
    packed = rng.standard_normal(N * (N + 1) // 2) + 1j * rng.standard_normal(N * (N + 1) // 2)
    full, info = scipy.linalg.lapack.ztfttr(N, packed, transr="N", uplo="L")
    assert info == 0
    arf = packed.reshape(N + 1, k, order="F")
    half = np.arange(k)
    assert np.array_equal(np.concatenate((arf[half + 1, half], arf[half, half].conj())),
                          np.diag(full))
    lower = full[np.tril_indices(N)]
    assert np.array_equal(np.sort(np.abs(packed)), np.sort(np.abs(lower)))


@pytest.mark.parametrize("sign", (+1, -1))
def test_star_complement_spans_scipy_null_space(k33, petersen, c6_x_k4, rand3_50, sign):
    # the columns, times sqrt 2, are an orthonormal basis of the complement
    # that scipy.linalg.qr's pivoted Q past the rank spans, on the
    # representative rows, and sign times them on the reversed ones
    for g in (k33, petersen, c6_x_k4, rand3_50):
        rev = g.rev
        reps = np.flatnonzero(np.arange(rev.size) < rev)
        coords = np.zeros((reps.size, g.n))
        coords[np.arange(reps.size), reps // g.d] += math.sqrt(2)
        coords[np.arange(reps.size), g.indices[reps]] += sign * math.sqrt(2)
        q, r, _ = scipy.linalg.qr(coords, pivoting=True)
        r_diag = np.abs(np.diag(r))
        rank = int((r_diag > max(coords.shape) * np.finfo(float).eps * r_diag[0]).sum())
        out = np.full((rev.size, reps.size - rank), np.nan + 0j)
        spectral_lab._star_complement(g, sign, out)
        z = out[reps]
        assert not z.imag.any(), g.provenance
        z = z.real
        eye = np.eye(z.shape[1])
        assert np.abs(2 * z.T @ z - eye).max() < 1e-14, g.provenance
        assert np.abs(2 * z @ z.T - q[:, rank:] @ q[:, rank:].T).max() < 1e-13, g.provenance
        assert np.abs(coords.T @ z).max() < 1e-13, g.provenance
        assert np.array_equal(out[rev[reps]], sign * out[reps]), g.provenance
        with pytest.raises(VerificationFailed):
            spectral_lab._star_complement(g, sign, out[:, 1:])


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
    alpha = dec.alpha.copy()
    alpha[0] *= 1 + 1e-6
    return b, replace(dec, alpha=alpha)


def _shift_last_theta(dec, shift):
    # the theta of the last 2x2 block of Lambda
    diag = dec.diag.copy()
    diag[(2 if dec.bipartite else 1) + 2 * (dec.alpha.size - 1)] += shift
    return replace(dec, diag=diag)


def _move_theta(b, dec):
    return b, _shift_last_theta(dec, 1e-3)


def _nudge_theta(b, dec):
    # below the 1e-6 at which the eigvals(B) multiset check passed
    return b, _shift_last_theta(dec, 1e-7)


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
    _nudge_theta: "bass_multiset",
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
            oracle = oracles.verify_decomposition_dense(b_bad, dec_bad)
            _assert_bounds_oracle(rep, oracle)
            if mutate is _nudge_theta:  # the eigvals(B) multiset check at 1e-6 misses it
                assert oracle["eigvals_multiset"] <= 1e-6, oracle


def test_verify_carries_nan_to_the_keys_it_reaches(petersen):
    # Python's max(x, nan) is x: each reduction must carry a NaN through, so
    # that a NaN alpha, lambda or entry of B fails the verdict
    dec, b = _decomposed(petersen)
    alpha, lam, b_nan = dec.alpha.copy(), dec.lam.copy(), b.copy()
    alpha[0], lam[0], b_nan[0, 1] = np.nan, np.nan, np.nan
    for b_bad, dec_bad, keys in ((b, replace(dec, alpha=alpha), ("alpha", "reconstruction")),
                                 (b, replace(dec, lam=lam), ("alpha",)),
                                 (b_nan, dec, ("reconstruction", "operator_norm"))):
        rep = verify_decomposition(b_bad, dec_bad)
        assert not rep["ok"], rep
        assert all(math.isnan(rep[key]) for key in keys), (keys, rep)


def test_bass_check_survives_a_failed_factor(petersen, monkeypatch):
    # a NaN in B or in the multiset, or an I - uB that SuperLU finds
    # singular: the check reports inf and the verdict fails, with no exception
    dec, b = _decomposed(petersen)
    b_nan = b.copy()
    b_nan[0, 1] = np.nan
    diag = dec.diag.copy()
    diag[1] = complex(math.nan)  # the theta of Petersen's first block
    for b_bad, dec_bad in ((b_nan, dec), (b, replace(dec, diag=diag))):
        rep = verify_decomposition(b_bad, dec_bad)
        assert rep["bass_multiset"] == math.inf and not rep["ok"], rep

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    rep = verify_decomposition(b, dec)
    assert rep["bass_multiset"] == math.inf and not rep["ok"], rep


def test_ihara_bass_determinant(criterion1_graphs):
    # det(I - uB) = (1 - u^2)^(m-n) det((1 + (d-1)u^2) I - uA)
    #             = prod (1 - u mu) over the predicted multiset,
    # a check of the multiset that does not go through eigvals
    rng = np.random.default_rng(7)
    for name, g in criterion1_graphs.items():
        multiset = build_decomposition(g).diag
        for _ in range(3):
            u = cmath.rect(rng.uniform(0.1, 0.95) / (g.d - 1), rng.uniform(-math.pi, math.pi))
            lhs, bass, product = oracles.ihara_bass_logs(g, multiset, u)
            for other in (bass, product):
                diff = lhs - other
                # logs agree up to a multiple of 2 pi i
                diff -= 2j * math.pi * round(diff.imag / (2 * math.pi))
                assert abs(diff) <= 1e-9 * max(1.0, abs(lhs)), (name, u, lhs, other)


def test_decomposition_size_cap(monkeypatch, petersen):
    monkeypatch.setattr(spectral_lab, "DENSE_CAP", 10)
    with pytest.raises(SizeCap):
        build_decomposition(petersen)


# --- the oracles' gamma, the off-diagonal entry of Lambda^t ---------------------------


def test_gamma_t1_is_alpha():
    assert oracles.gamma(1.5 + 0.5j, 2.0 + 0j, 1) == 2.0 + 0j


def test_gamma_real_theta():
    assert oracles.gamma(1.7, 0.9, 3) == pytest.approx(3 * 0.9 * 1.7**2)


def test_gamma_matches_direct_sum():
    theta = math.sqrt(2) * cmath.exp(1j * math.pi / 3)
    for t in (1, 2, 4, 9):
        want = oracles.gamma_direct(theta, 1.0, t)
        # theta^t can be nearly real, cancelling the quotient to ~0; compare
        # at the scale of the summands t |theta|^(t-1)
        scale = t * abs(theta) ** (t - 1)
        assert abs(oracles.gamma(theta, 1.0, t) - want) < 1e-13 * scale


def test_gamma_bound():
    d = 5
    rng = np.random.default_rng(0)
    for _ in range(50):
        phi = rng.uniform(0, math.pi)
        theta = math.sqrt(d - 1) * cmath.exp(1j * phi)
        alpha = rng.uniform(0, 2 * (d - 1))
        for t in (1, 3, 10):
            bound = 2 * (d - 1) * t * abs(theta) ** (t - 1)
            assert abs(oracles.gamma(theta, alpha, t)) <= bound + 1e-9


# --- the oracles' exact transitive L2 mixing ------------------------------------------


def test_upsilon_at_one(petersen, k4):
    for g in (petersen, k4):
        rep = adjacency_spectrum(g)
        assert oracles.upsilon(rep, 1) == pytest.approx((g.d - 2) ** 2 / (g.d - 1))


def test_gamma_sine_identity(petersen):
    # |gamma_i(t)| = (d-2) (d-1)^((t-1)/2) |sin(t phi)/sin(phi)|
    d = petersen.d
    rep = adjacency_spectrum(petersen)
    for lam in (1.0, -2.0):
        theta, _ = theta_pair(lam, d)
        phi = math.acos(lam / (2 * math.sqrt(d - 1)))
        for t in (1, 3, 7, 12):
            lhs = abs(oracles.gamma(theta, d - 2, t))
            rhs = (d - 2) * (d - 1) ** ((t - 1) / 2) * abs(math.sin(t * phi) / math.sin(phi))
            assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


def test_upsilon_l2_transitive_petersen(petersen):
    rep = adjacency_spectrum(petersen)
    for eps in (0.5, 0.1, 0.01):
        out = oracles.upsilon_l2_transitive(petersen, rep, eps)
        assert out["match"], out
