import numpy as np
import pytest

from astzeros import (
    CauchyWindowKernel,
    DiscreteSignal,
    LogFreqGrid,
    TFMatrix,
    TimeGrid,
    WindowParams,
    cauchy_riemann_residual,
    dast_direct,
    dast_spectral,
    extract_analytic_part,
    multiplier_cutoff,
    sample_white_noise,
)
from astzeros.transform import _spectral_plan, default_log_scale
from helpers import closed_form_psi, dast_spectral_reference


def test_time_grid_properties():
    tg = TimeGrid(0.0, 3.0, 4)
    assert tg.delta_x == 1.0
    assert tg.sample_rate == 1.0
    assert np.array_equal(tg.nodes(), [0.0, 1.0, 2.0, 3.0])
    tg2 = TimeGrid.from_sampling(-4.0, 128.0, 1024)
    assert tg2.delta_x == pytest.approx(1.0 / 128.0)
    assert tg2.x_min == -4.0
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 8)


def test_freq_grid_is_log2_spaced():
    fg = LogFreqGrid(0.25, 4.0, 5)
    ch = fg.channels()
    assert ch[0] == pytest.approx(0.25)
    assert ch[-1] == pytest.approx(4.0)
    assert np.allclose(np.diff(np.log2(ch)), fg.delta_log2)
    with pytest.raises(ValueError):
        LogFreqGrid(1.0, 2.0, 1)
    with pytest.raises(ValueError):
        LogFreqGrid(-1.0, 2.0, 4)


def test_grids_and_signal_validation():
    tg, fg = TimeGrid(0.0, 1.0, 16), LogFreqGrid(0.5, 2.0, 4)
    assert tg.n_samples == 16 and fg.n_channels == 4
    with pytest.raises(ValueError):
        DiscreteSignal(np.zeros(5), tg)


def test_white_noise_seed_determinism_and_kinds():
    a = sample_white_noise(64, 7).samples
    b = sample_white_noise(64, 7).samples
    c = sample_white_noise(64, 8).samples
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    r = sample_white_noise(64, 7, kind="real").samples
    assert np.all(r.imag == 0)
    with pytest.raises(ValueError):
        sample_white_noise(64, 7, kind="uniform")


def test_white_noise_unit_variance():
    z = sample_white_noise(200000, 11).samples
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.01)


@pytest.mark.parametrize("beta", [2.0, 24.5, 149.5])
def test_kernel_matches_closed_form_window(beta):
    p = WindowParams(beta)
    kern = CauchyWindowKernel(p)
    u = np.linspace(-20.0, 20.0, 4001)
    ref = closed_form_psi(u, p)
    err = np.max(np.abs(kern.psi(u) - ref)) / np.max(np.abs(ref))
    assert err < 1e-8


def test_direct_and_spectral_agree():
    tg = TimeGrid.from_sampling(0.0, 32.0, 128)
    fg = LogFreqGrid(0.25, 2.0, 16)
    p = WindowParams.from_alpha(20.0)
    y = sample_white_noise(128, 0, grid=tg)
    Sd = dast_direct(y, fg, p)
    Ss = dast_spectral(y, fg, p)
    assert Sd.log_scale == Ss.log_scale
    err = np.max(np.abs(Sd.values - Ss.values)) / np.max(np.abs(Ss.values))
    assert err < 1e-9


def test_spectral_linearity_and_zero_input():
    tg = TimeGrid.from_sampling(0.0, 16.0, 64)
    fg = LogFreqGrid(0.5, 2.0, 6)
    p = WindowParams(5.0)
    y1 = sample_white_noise(64, 1, grid=tg)
    y2 = sample_white_noise(64, 2, grid=tg)
    mix = DiscreteSignal(2.0 * y1.samples - 1j * y2.samples, tg)
    S = dast_spectral(mix, fg, p)
    S1 = dast_spectral(y1, fg, p)
    S2 = dast_spectral(y2, fg, p)
    assert np.allclose(S.values, 2.0 * S1.values - 1j * S2.values, rtol=1e-12)
    S0 = dast_spectral(DiscreteSignal(np.zeros(64), tg), fg, p)
    assert np.all(S0.values == 0)


# (n, fs, M, xi_min, xi_max, alpha): even and odd n, M not a multiple of
# the 128-channel block, and alpha=300 configs, whose default log_scale is
# nonzero
PLAN_CASES = [
    (512, 64.0, 64, 0.25, 8.0, 50.0),
    (513, 64.0, 200, 0.25, 8.0, 50.0),
    (2001, 2000.0, 7, 0.5, 8.0, 300.0),
    (16, 4.0, 8, 0.5, 2.0, 20.0),
    (1024, 256.0, 130, 2.0 ** -6, 16.0, 300.0),
]


@pytest.mark.parametrize("n, fs, m, xi_min, xi_max, alpha", PLAN_CASES)
def test_spectral_plan_matches_per_call_formula(n, fs, m, xi_min, xi_max,
                                                alpha):
    tg = TimeGrid.from_sampling(0.0, fs, n)
    fg = LogFreqGrid(xi_min, xi_max, m)
    p = WindowParams.from_alpha(alpha)
    y = sample_white_noise(n, 6, grid=tg)
    S = dast_spectral(y, fg, p)
    log_scale = default_log_scale(fg, p)
    assert S.log_scale == log_scale
    assert np.array_equal(S.values,
                          dast_spectral_reference(y, fg, p, log_scale))


def test_spectral_plan_is_not_stale_across_configs():
    tg = TimeGrid.from_sampling(0.0, 64.0, 256)
    fg_a = LogFreqGrid(0.25, 8.0, 40)
    fg_b = LogFreqGrid(0.25, 8.0, 41)
    p = WindowParams.from_alpha(50.0)
    y = sample_white_noise(256, 2, grid=tg)
    first = dast_spectral(y, fg_a, p).values
    other = dast_spectral(y, fg_b, p).values
    again = dast_spectral(y, fg_a, p).values
    assert other.shape == (256, 41)
    assert np.array_equal(again, first)
    # a different time grid or window with the same shapes
    shifted = TimeGrid.from_sampling(1.0, 64.0, 256)
    y_s = DiscreteSignal(y.samples, shifted)
    assert not np.array_equal(dast_spectral(y_s, fg_a, p).values, first)
    assert not np.array_equal(
        dast_spectral(y, fg_a, WindowParams.from_alpha(60.0)).values, first)
    assert np.array_equal(dast_spectral(y, fg_a, p).values, first)


def test_spectral_plan_is_read_only():
    tg = TimeGrid.from_sampling(0.0, 16.0, 64)
    fg = LogFreqGrid(0.5, 2.0, 6)
    plan = _spectral_plan(tg, fg, 5.0, 0.0)
    for _, mult, phase in plan:
        with pytest.raises(ValueError):
            mult[1, 0] = 0.0
        with pytest.raises(ValueError):
            phase[0, 0] = 0.0


def test_explicit_log_scale_gets_its_own_plan():
    tg = TimeGrid.from_sampling(0.0, 16.0, 64)
    fg = LogFreqGrid(0.5, 2.0, 6)
    p = WindowParams(5.0)
    y = sample_white_noise(64, 8, grid=tg)
    S0 = dast_spectral(y, fg, p)
    assert S0.log_scale == 0.0
    S3 = dast_spectral(y, fg, p, log_scale=3.0)
    assert S3.log_scale == 3.0
    assert np.array_equal(S3.values, dast_spectral_reference(y, fg, p, 3.0))
    assert np.allclose(S3.values * np.exp(3.0), S0.values, rtol=1e-12)
    assert not np.array_equal(S3.values, S0.values)


def test_second_call_leaves_first_result_unchanged():
    # each call writes into its own output; nothing of one result is
    # shared with the next call on the same cached plan
    tg = TimeGrid.from_sampling(0.0, 16.0, 300)
    fg = LogFreqGrid(0.25, 4.0, 140)  # two blocks, the second partial
    p = WindowParams(5.0)
    y1 = sample_white_noise(300, 1, grid=tg)
    y2 = sample_white_noise(300, 2, grid=tg)
    S1 = dast_spectral(y1, fg, p)
    first = S1.values.copy()
    S2 = dast_spectral(y2, fg, p)
    assert not np.shares_memory(S1.values, S2.values)
    assert np.array_equal(S1.values, first)
    assert np.array_equal(S1.values, dast_spectral_reference(y1, fg, p, 0.0))


def test_negative_frequency_tone_is_annihilated():
    # analytic-signal convention: content on negative frequencies (and the
    # DC bin) contributes nothing
    n = 128
    tg = TimeGrid.from_sampling(0.0, 16.0, n)
    fg = LogFreqGrid(0.5, 2.0, 6)
    p = WindowParams(5.0)
    x = tg.nodes()
    f0 = 3.0  # multiple of the bin spacing 1/8
    neg = DiscreteSignal(np.exp(-2j * np.pi * f0 * x), tg)
    pos = DiscreteSignal(np.exp(+2j * np.pi * f0 * x), tg)
    Sn = dast_spectral(neg, fg, p)
    Sp = dast_spectral(pos, fg, p)
    assert np.max(np.abs(Sn.values)) < 1e-12 * np.max(np.abs(Sp.values))


def test_modulus_is_shift_equivariant():
    # the spectral transform is circular: shifting the signal circularly
    # shifts the modulus rows
    n, s = 64, 17
    tg = TimeGrid.from_sampling(0.0, 16.0, n)
    fg = LogFreqGrid(0.5, 2.0, 6)
    p = WindowParams(5.0)
    y = sample_white_noise(n, 4, grid=tg)
    y_shift = DiscreteSignal(np.roll(y.samples, s), tg)
    A = np.abs(dast_spectral(y, fg, p).values)
    B = np.abs(dast_spectral(y_shift, fg, p).values)
    assert np.allclose(B, np.roll(A, s, axis=0), rtol=1e-9, atol=1e-12 * A.max())


def test_multiplier_cutoff_hits_tolerance():
    p = WindowParams(24.5)
    xi, tol = 2.0, 1e-12
    nu_c = multiplier_cutoff(xi, p, tol)
    nu_pk = p.beta * xi / (2 * np.pi)
    log_ratio = (p.beta * (np.log(nu_c) - np.log(nu_pk))
                 - 2 * np.pi * (nu_c - nu_pk) / xi)
    assert log_ratio == pytest.approx(np.log(tol), rel=1e-8)
    assert multiplier_cutoff(4.0, p) > nu_c  # monotone in xi


def test_log_scale_keeps_large_alpha_finite():
    fg = LogFreqGrid(2.0 ** -6, 16.0, 32)
    p = WindowParams.from_alpha(500.0)
    assert default_log_scale(fg, p) > 0
    assert default_log_scale(LogFreqGrid(0.5, 2.0, 8), WindowParams(5.0)) == 0
    tg = TimeGrid.from_sampling(0.0, 256.0, 256)
    y = sample_white_noise(256, 5, grid=tg)
    S = dast_spectral(y, fg, p)
    assert np.all(np.isfinite(S.values))
    assert np.max(np.abs(S.values)) > 0


def test_extract_analytic_part_preserves_modulus_shape():
    tg = TimeGrid.from_sampling(0.0, 64.0, 256)
    fg = LogFreqGrid(0.25, 4.0, 32)
    p = WindowParams.from_alpha(50.0)
    y = sample_white_noise(256, 9, grid=tg)
    S = dast_spectral(y, fg, p)
    F = extract_analytic_part(S)
    assert np.all(np.isfinite(F))
    ratio = np.abs(F) / np.abs(S.values)
    # the factor divided out is unimodular up to one global constant, so
    # |F| / |S| is constant and the zero sets coincide exactly
    assert np.allclose(ratio, ratio.flat[0], rtol=1e-12)


def test_cauchy_riemann_residual_detects_analyticity():
    tg = TimeGrid.from_sampling(0.0, 64.0, 512)
    fg = LogFreqGrid(0.125, 4.0, 128)
    p = WindowParams.from_alpha(50.0)
    y = sample_white_noise(512, 3, grid=tg)
    S = dast_spectral(y, fg, p)
    res, grad = cauchy_riemann_residual(S)
    assert res < 0.05 * grad
    # the conjugated field is anti-analytic: the same statistic must blow up
    S_conj = TFMatrix(np.conj(S.values), tg, fg, p, S.log_scale)
    res_c, grad_c = cauchy_riemann_residual(S_conj)
    assert res_c > 0.5 * grad_c
