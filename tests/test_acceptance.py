"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test prints a single machine-readable pass/fail line (unbuffered past
pytest's capture) and then asserts, so the gate reads out as eight lines.
"""

import filecmp
import time

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from astzeros import (
    CauchyWindowKernel,
    ExperimentConfig,
    LogFreqGrid,
    ObservationWindow,
    TimeGrid,
    WindowParams,
    basis_ft,
    cauchy_riemann_residual,
    classify_inner,
    closed_form_ast_basis,
    compare_to_theory,
    dast_direct,
    dast_spectral,
    estimate_pair_correlation,
    expected_count,
    gaf_zeros,
    run_experiment,
    sample_gaf,
    sample_white_noise,
    theoretical_pair_correlation,
    truncation_order,
    write_bundle,
)
from helpers import synth_basis_signal


def _verdict(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {k}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_direct_spectral_equivalence(capsys):
    # 10 complex-noise seeds, N = 256, M = 64: max relative error < 1e-6,
    # runtime < 10 s
    t0 = time.perf_counter()
    tg = TimeGrid.from_sampling(0.0, 64.0, 256)
    fg = LogFreqGrid(2.0 ** -3, 2.0, 64)
    p = WindowParams.from_alpha(50.0)
    kern = CauchyWindowKernel(p)
    worst = 0.0
    for seed in range(10):
        y = sample_white_noise(256, seed, grid=tg)
        Sd = dast_direct(y, fg, p, kernel=kern)
        Ss = dast_spectral(y, fg, p)
        err = np.max(np.abs(Sd.values - Ss.values)) / np.max(np.abs(Ss.values))
        worst = max(worst, err)
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 10.0
    _verdict(capsys, 1, ok,
             f"direct vs spectral max rel err {worst:.3e} "
             f"(tol 1e-06), runtime {dt:.1f}s (limit 10s)")


def test_criterion_2_closed_form_basis_oracle(capsys):
    # transformed basis signals match the closed form for
    # n in {0, 1, 5, 20} at alpha = 50: relative error < 1e-2, runtime < 30 s
    t0 = time.perf_counter()
    p = WindowParams.from_alpha(50.0)
    tg = TimeGrid.from_sampling(-4.0, 128.0, 1024)
    fg = LogFreqGrid(2.0 ** -1, 2.0 ** 1.5, 32)
    x = tg.nodes()
    xis = fg.channels()
    worst = 0.0
    for n in (0, 1, 5, 20):
        sig = synth_basis_signal(n, tg, p)
        S = dast_spectral(sig, fg, p)
        assert S.log_scale == 0.0
        ref = closed_form_ast_basis(n, x[:, None], xis[None, :], p)
        err = np.max(
            np.max(np.abs(S.values - ref), axis=0)
            / np.max(np.abs(ref), axis=0)
        )
        worst = max(worst, err)
    dt = time.perf_counter() - t0
    ok = worst < 1e-2 and dt < 30.0
    _verdict(capsys, 2, ok,
             f"basis orders (0,1,5,20) max rel err {worst:.3e} "
             f"(tol 1e-02), runtime {dt:.1f}s (limit 30s)")


def test_criterion_3_gram_matrix_orthogonality(capsys):
    # the quadrature Gram matrix of the basis family for n, m <= 5 is a
    # constant multiple of identity: off-diagonals < 1e-8 x diagonal;
    # the measured constant is recorded, not asserted.  Each product is
    # nu^(2 beta) e^(-4 pi nu) times a polynomial of degree <= 10, so with
    # t = 4 pi nu the generalized Gauss-Laguerre rule for the weight
    # t^(2 beta) e^(-t) with 8 nodes integrates it exactly up to rounding.
    p = WindowParams(2.0)
    t, wt = roots_genlaguerre(8, 2 * p.beta)
    nu = t / (4 * np.pi)
    wt = wt / (t ** (2 * p.beta) * np.exp(-t)) / (4 * np.pi)
    F = [basis_ft(n, nu, p) for n in range(6)]
    G = np.empty((6, 6))
    for n in range(6):
        for m in range(n, 6):
            G[n, m] = G[m, n] = np.sum(wt * F[n] * F[m])
    diag = np.diag(G)
    off = np.max(np.abs(G - np.diag(diag)))
    diag_spread = np.max(np.abs(diag - diag.mean()))
    const = diag.mean()
    derived = np.pi ** (2 * p.beta + 1)  # analytic value of the constant
    ok = off < 1e-8 * const and diag_spread < 1e-8 * const
    _verdict(capsys, 3, ok,
             f"Gram n,m<=5: max off-diag {off:.2e} vs 1e-8*diag "
             f"{1e-8 * const:.2e}; measured constant {const:.12f} "
             f"(analytic {derived:.12f})")


def test_criterion_4_gaf_count_oracle(capsys):
    # alpha = 10, r_max = 0.9, truncation by the tail rule, 200 seeds:
    # mean zero count within 3 standard errors of alpha r^2/(1-r^2);
    # runtime < 2 min
    t0 = time.perf_counter()
    alpha, r = 10.0, 0.9
    trunc = truncation_order(alpha, r)
    counts = np.array(
        [len(gaf_zeros(sample_gaf(alpha, trunc, s), r)) for s in range(200)]
    )
    mean = counts.mean()
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    target = expected_count(alpha, r)
    dt = time.perf_counter() - t0
    ok = abs(mean - target) < 3 * se and dt < 120.0
    _verdict(capsys, 4, ok,
             f"mean count {mean:.2f} vs expected {target:.2f} "
             f"(|diff| {abs(mean - target):.2f} < 3 SE = {3 * se:.2f}), "
             f"runtime {dt:.0f}s (limit 120s)")


def test_criterion_5_gaf_pair_correlation(capsys):
    # alpha in {50, 300}, 100 seeds: MAD between the estimated and the
    # closed-form pair correlation < 0.05 on r in [0.02, 0.5]; the analytic
    # checkpoints hold to 1e-12
    ck1 = abs(theoretical_pair_correlation(1.0, np.sqrt(0.5)) - 0.75)
    ck2 = abs(theoretical_pair_correlation(7.0, 1.0 - 1e-8) - 1.0)
    checkpoints_ok = ck1 < 1e-12 and ck2 < 1e-12

    R_w, h = 0.8, 0.02
    bins = 0.02 + 0.01 * np.arange(49)  # 0.02 .. 0.50
    guard = 0.5 + h / 2
    win = ObservationWindow.from_disk(R_w)
    results = {}
    t0 = time.perf_counter()
    for alpha in (50.0, 300.0):
        trunc = truncation_order(alpha, R_w)
        acc = np.zeros_like(bins)
        used = 0
        for seed in range(100):
            pts = gaf_zeros(sample_gaf(alpha, trunc, seed), R_w)
            inner = classify_inner(pts, win, guard)
            if not np.any(inner):
                continue
            acc += estimate_pair_correlation(pts, inner, bins, h,
                                             alpha).g_values
            used += 1
        g_mean = acc / used
        g_th = theoretical_pair_correlation(alpha, bins)
        results[alpha] = (np.mean(np.abs(g_mean - g_th)), used)
    dt = time.perf_counter() - t0
    ok = checkpoints_ok and all(mad < 0.05 for mad, _ in results.values())
    _verdict(capsys, 5, ok,
             f"MAD alpha=50: {results[50.0][0]:.4f}, alpha=300: "
             f"{results[300.0][0]:.4f} (tol 0.05, 100 seeds each); "
             f"checkpoints dev {max(ck1, ck2):.1e} (tol 1e-12); "
             f"runtime {dt:.0f}s")


def test_criterion_6_reduced_experiment(capsys):
    # desk-scale run (alpha = 300, N = 2000, fs = 2000, M = 300, R = 20):
    # mean pair correlation within +-0.1 of theory on r in [0.05, 0.5],
    # zero counts within 10% of the expected window count, runtime < 10 min;
    # monotonic degradation: MAD(alpha=50) >= MAD(alpha=500) on matched runs
    t0 = time.perf_counter()
    base = dict(n_samples=2000, fs=2000.0, n_channels=300, realizations=20,
                seed=0)
    bundle = run_experiment(ExperimentConfig(alpha=300.0, **base))
    s300 = compare_to_theory(bundle, r_lo=0.05, r_hi=0.5)
    max_dev = s300["max_dev"]
    count_ok = abs(s300["count_ratio"] - 1.0) <= 0.10
    mad50 = compare_to_theory(
        run_experiment(ExperimentConfig(alpha=50.0, **base)), 0.05, 0.5
    )["mad"]
    mad500 = compare_to_theory(
        run_experiment(ExperimentConfig(alpha=500.0, **base)), 0.05, 0.5
    )["mad"]
    dt = time.perf_counter() - t0
    ok = max_dev <= 0.1 and count_ok and mad50 >= mad500 and dt < 600.0
    _verdict(capsys, 6, ok,
             f"alpha=300 R=20: max |g_mean - g_th| {max_dev:.4f} "
             f"(tol 0.1), count ratio {s300['count_ratio']:.4f} "
             f"(tol 1 +- 0.1); MAD alpha=50 {mad50:.4f} >= "
             f"MAD alpha=500 {mad500:.4f}; runtime {dt:.0f}s (limit 600s)")


def test_criterion_7_analyticity(capsys):
    # at full figure resolution (N = 4000, fs = 400, M = 600,
    # xi in [2^-6, 2^3.3], alpha = 300) the median discrete
    # Cauchy-Riemann residual of the demodulated transform is below
    # 0.05 x the median gradient magnitude
    tg = TimeGrid.from_sampling(0.0, 400.0, 4000)
    fg = LogFreqGrid(2.0 ** -6, 2.0 ** 3.3, 600)
    p = WindowParams.from_alpha(300.0)
    y = sample_white_noise(4000, 123, grid=tg)
    S = dast_spectral(y, fg, p)
    res, grad = cauchy_riemann_residual(S)
    ratio = res / grad
    ok = ratio < 0.05
    _verdict(capsys, 7, ok,
             f"median CR residual / median gradient = {ratio:.4f} "
             f"(tol 0.05)")


def test_criterion_8_determinism_across_workers(capsys, tmp_path):
    # identical output files for worker counts 1 and 8 at a fixed seed
    cfg = ExperimentConfig(alpha=50.0, n_samples=512, fs=512.0,
                           n_channels=80, realizations=8, seed=42,
                           r_max=0.3)
    d1, d8 = tmp_path / "w1", tmp_path / "w8"
    write_bundle(run_experiment(cfg, workers=1), d1)
    write_bundle(run_experiment(cfg, workers=8), d8)
    names = ("pair_correlation.csv", "intensity.csv", "zero_counts.csv")
    same = {n: filecmp.cmp(d1 / n, d8 / n, shallow=False) for n in names}
    ok = all(same.values())
    _verdict(capsys, 8, ok,
             "workers 1 vs 8 bitwise file comparison: "
             + ", ".join(f"{n}={'equal' if v else 'DIFFER'}"
                         for n, v in same.items()))
