import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

import astzeros.gaf as gaf_module
from astzeros import (
    GafSample,
    expected_count,
    gaf_zeros,
    sample_gaf,
    theoretical_pair_correlation,
    truncation_order,
)
from helpers import winding_count


def _poly_sample(coeffs, alpha=2.0):
    c = np.asarray(coeffs, dtype=complex)
    return GafSample(alpha, len(c), 0.0, c)


def test_sample_gaf_determinism_and_validation():
    a = sample_gaf(20.0, 64, 5)
    b = sample_gaf(20.0, 64, 5)
    c = sample_gaf(20.0, 64, 6)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    with pytest.raises(ValueError):
        sample_gaf(-1.0, 64, 5)
    with pytest.raises(ValueError):
        GafSample(2.0, 3, 0.0, np.zeros(2))


def test_known_linear_root():
    # c0 + c1 w = 0 at w = -c0/c1
    z = gaf_zeros(_poly_sample([0.2 - 0.1j, 1.0 + 0.5j]), 0.9)
    assert len(z) == 1
    assert z[0] == pytest.approx(-(0.2 - 0.1j) / (1.0 + 0.5j), abs=1e-10)


def test_known_quadratic_roots():
    r1, r2 = 0.3, -0.2 + 0.4j
    coeffs = [r1 * r2, -(r1 + r2), 1.0]
    z = np.sort_complex(gaf_zeros(_poly_sample(coeffs), 0.9))
    expect = np.sort_complex(np.array([r1, r2]))
    assert np.allclose(z, expect, atol=1e-10)


def test_roots_outside_radius_are_dropped():
    z = gaf_zeros(_poly_sample([-0.9, 0.0, 1.0]), 0.5)  # roots at +-0.948...
    assert len(z) == 0


def test_root_at_origin_is_kept():
    z = gaf_zeros(_poly_sample([0.0, 1.0, 0.5]), 0.9)
    assert np.any(np.abs(z) == 0)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        gaf_zeros(_poly_sample([0.0, 0.0, 0.0]), 0.5)


def test_real_coefficients_give_conjugate_root_pairs():
    rng = np.random.default_rng(3)
    g = sample_gaf(30.0, truncation_order(30.0, 0.8), 11)
    coeffs = np.abs(g.coeffs) * np.sign(rng.standard_normal(len(g.coeffs)))
    z = gaf_zeros(GafSample(30.0, len(coeffs), g.log_amp_scale, coeffs), 0.8)
    off_axis = z[np.abs(z.imag) > 1e-8]
    for w in off_axis:
        assert np.min(np.abs(off_axis - np.conj(w))) < 1e-8


def test_zeros_are_distinct_and_inside():
    g = sample_gaf(50.0, truncation_order(50.0, 0.8), 123)
    z = gaf_zeros(g, 0.8)
    assert np.all(np.abs(z) <= 0.8)
    if len(z) > 1:
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1e-9


@pytest.mark.parametrize("alpha,seed", [
    (300.0, 22), (300.0, 55), (300.0, 91), (300.0, 95),
    (400.0, 0), (400.0, 1), (500.0, 0),
])
def test_zero_set_is_complete_at_large_alpha(alpha, seed):
    # criterion-5 seeds at alpha=300, and alpha up to 500: every zero in the
    # disk is returned, once, as counted by the argument principle
    r = 0.8
    g = sample_gaf(alpha, truncation_order(alpha, r), seed)
    z = gaf_zeros(g, r)
    assert np.all(np.abs(z) <= r)
    d = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-9
    assert len(z) == winding_count(g.coeffs, r)


def test_lost_root_raises_with_counts(monkeypatch):
    # a root lost inside the disk is caught by the certificate, and the
    # error names both counts and the realization's shape
    find_all = gaf_module._aberth

    def lose_innermost(c):
        w = find_all(c)
        return np.delete(w, np.argmin(np.abs(w)))

    g = sample_gaf(50.0, truncation_order(50.0, 0.8), 0)
    n = len(gaf_zeros(g, 0.8))
    monkeypatch.setattr(gaf_module, "_aberth", lose_innermost)
    with pytest.raises(ArithmeticError, match=(
            rf"{n - 1} roots returned, {n} certified "
            rf"\(alpha=50, degree {g.truncation - 1}, r_max=0.8\)")):
        gaf_zeros(g, 0.8)


def test_mean_count_matches_intensity():
    alpha, r = 5.0, 0.8
    trunc = truncation_order(alpha, r)
    counts = [len(gaf_zeros(sample_gaf(alpha, trunc, s), r))
              for s in range(80)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert abs(mean - expected_count(alpha, r)) < 4 * se


@pytest.mark.parametrize("alpha,r", [(10.0, 0.9), (50.0, 0.8)])
def test_truncation_rule_bounds_tail(alpha, r):
    N = truncation_order(alpha, r)
    n = np.arange(N + 5000)
    log_terms = gammaln(alpha + n) - gammaln(n + 1.0) + 2 * n * np.log(r)
    log_total = logsumexp(log_terms)
    log_tail = logsumexp(log_terms[N:])
    assert 0.5 * (log_tail - log_total) < np.log(1e-8)


def test_truncation_rule_monotonicity():
    assert truncation_order(10.0, 0.9) > truncation_order(10.0, 0.5)
    assert truncation_order(300.0, 0.8) > truncation_order(10.0, 0.8)
    with pytest.raises(ValueError):
        truncation_order(10.0, 1.0)


def test_large_alpha_representation_stays_finite():
    g = sample_gaf(500.0, 4000, 0)
    assert np.all(np.isfinite(g.coeffs))
    assert np.isfinite(g.log_amp_scale)
    assert np.max(np.abs(g.coeffs)) > 0


def test_pair_correlation_checkpoints():
    # alpha = 1 at r^2 = 1/2: exact value 3/4
    assert theoretical_pair_correlation(1.0, np.sqrt(0.5)) == pytest.approx(
        0.75, abs=1e-12
    )
    # r -> 1: complete decorrelation, g -> 1
    assert theoretical_pair_correlation(7.0, 1.0 - 1e-8) == pytest.approx(
        1.0, abs=1e-12
    )
    # r -> 0: quadratic repulsion g ~ r^2 (alpha+1)^2 / (2 alpha)
    alpha, r = 500.0, 1e-4
    g = theoretical_pair_correlation(alpha, r)
    assert np.isfinite(g)
    assert g / r ** 2 == pytest.approx((alpha + 1) ** 2 / (2 * alpha), rel=1e-3)
    with pytest.raises(ValueError):
        theoretical_pair_correlation(2.0, 1.5)
