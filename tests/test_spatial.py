import numpy as np
import pytest

from astzeros import (
    ObservationWindow,
    cayley_to_disk,
    classify_inner,
    estimate_pair_correlation,
)
from helpers import mobius_disk, sample_poisson_disk


def test_window_validation():
    with pytest.raises(ValueError):
        ObservationWindow(np.zeros(0, complex))
    with pytest.raises(ValueError):
        ObservationWindow(np.array([0.5, 1.2j]))
    with pytest.raises(ValueError):
        ObservationWindow.from_disk(1.0)


def test_disk_window_boundary():
    win = ObservationWindow.from_disk(0.7, n_points=256)
    assert len(win.boundary) == 256
    assert np.allclose(np.abs(win.boundary), 0.7)


def test_halfplane_rect_window():
    per = ObservationWindow.from_halfplane_rect(0.0, 2.0, 0.5, 4.0,
                                                points_per_side=64)
    assert len(per.boundary) == 2 * 64
    # the time-periodic window keeps exactly the Cayley images of the two
    # scale lines
    xs = np.linspace(0.0, 2.0, 64)
    expect = cayley_to_disk(np.concatenate([xs + 0.5j, xs + 4.0j]))
    assert np.allclose(per.boundary, expect)
    with pytest.raises(ValueError):
        ObservationWindow.from_halfplane_rect(0.0, 1.0, 2.0, 1.0)


def test_classify_inner_against_closed_form():
    # for the centered disk window of radius R, the minimum pseudo-distance
    # from a point at radius rho < R to the boundary is (R - rho)/(1 - R rho)
    R, guard = 0.8, 0.3
    win = ObservationWindow.from_disk(R, n_points=4096)
    rng = np.random.default_rng(0)
    pts = np.sqrt(rng.random(300)) * R * np.exp(2j * np.pi * rng.random(300))
    rho = np.abs(pts)
    p_min = (R - rho) / (1.0 - R * rho)
    sure = np.abs(p_min - guard) > 1e-3  # skip the discretization boundary
    got = classify_inner(pts, win, guard)
    assert np.array_equal(got[sure], (p_min > guard)[sure])


def test_classify_inner_matches_bruteforce():
    win = ObservationWindow.from_halfplane_rect(0.0, 4.0, 0.2, 3.0,
                                                points_per_side=128)
    rng = np.random.default_rng(1)
    z = rng.random(60) * 4.0 + 1j * (0.2 + rng.random(60) * 2.8)
    pts = cayley_to_disk(z)
    got = classify_inner(pts, win, 0.3)
    brute = np.empty(len(pts), dtype=bool)
    for i, w in enumerate(pts):
        dmin = min(
            abs(w - b) / abs(1.0 - np.conj(b) * w) for b in win.boundary
        )
        brute[i] = dmin > 0.3
    assert np.array_equal(got, brute)


def test_classify_inner_empty_and_validation():
    win = ObservationWindow.from_disk(0.5)
    assert classify_inner(np.zeros(0, complex), win, 0.2).size == 0
    with pytest.raises(ValueError):
        classify_inner(np.array([0.1 + 0j]), win, 0.0)


def test_pair_correlation_two_point_exact():
    r0, h, alpha = 0.3, 0.05, 7.0
    pts = np.array([0.0 + 0j, r0 + 0j])
    st = estimate_pair_correlation(pts, np.array([True, True]),
                                   np.array([r0]), h, alpha)
    assert st.n_pairs[0] == 2  # both ordered pairs
    expect = (1 - r0 ** 2) ** 2 / (2 * alpha * h * r0 * 2) * 2
    assert st.g_values[0] == pytest.approx(expect, rel=1e-12)
    assert st.n_centers == 2


def test_pair_correlation_poisson_calibration():
    # for a Poisson process matched to the zero intensity, g is
    # identically 1; the estimator mean over seeds must recover that
    alpha, R, guard, h = 50.0, 0.8, 0.31, 0.05
    bins = np.array([0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
    win = ObservationWindow.from_disk(R)
    acc = np.zeros_like(bins)
    n_runs = 80
    rng = np.random.default_rng(12345)
    for _ in range(n_runs):
        pts = sample_poisson_disk(alpha, R, rng)
        inner = classify_inner(pts, win, guard)
        if not np.any(inner):
            n_runs -= 1
            continue
        acc += estimate_pair_correlation(pts, inner, bins, h, alpha).g_values
    mean_g = np.mean(acc / n_runs)
    assert abs(mean_g - 1.0) < 0.05


def test_pair_correlation_is_isometry_invariant():
    rng = np.random.default_rng(5)
    pts = sample_poisson_disk(40.0, 0.7, rng)
    win = ObservationWindow.from_disk(0.7)
    inner = classify_inner(pts, win, 0.3)
    bins = np.linspace(0.1, 0.25, 4)
    st = estimate_pair_correlation(pts, inner, bins, 0.05, 40.0)
    a = 0.25 - 0.15j
    pts_m = mobius_disk(pts, a, 1.1)
    win_m = ObservationWindow(mobius_disk(win.boundary, a, 1.1))
    inner_m = classify_inner(pts_m, win_m, 0.3)
    assert np.array_equal(inner, inner_m)
    st_m = estimate_pair_correlation(pts_m, inner_m, bins, 0.05, 40.0)
    assert np.allclose(st.g_values, st_m.g_values, rtol=1e-10)
    assert np.array_equal(st.n_pairs, st_m.n_pairs)


def test_pair_correlation_validation():
    pts = np.array([0.0 + 0j, 0.3 + 0j])
    mask = np.array([True, True])
    with pytest.raises(ValueError):
        estimate_pair_correlation(pts, mask, np.array([0.01]), 0.05, 5.0)
    with pytest.raises(ValueError):
        estimate_pair_correlation(pts, mask, np.array([0.3]), -0.1, 5.0)
    with pytest.raises(ValueError):
        estimate_pair_correlation(pts, np.array([True]), np.array([0.3]),
                                  0.05, 5.0)
    with pytest.raises(ValueError):
        estimate_pair_correlation(pts, np.array([False, False]),
                                  np.array([0.3]), 0.05, 5.0)
