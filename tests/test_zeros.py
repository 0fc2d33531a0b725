import numpy as np
import pytest

from astzeros import (
    GuardSpec,
    LogFreqGrid,
    TFMatrix,
    TimeGrid,
    WindowParams,
    cayley_to_disk,
    detect_zeros,
    dast_spectral,
    sample_white_noise,
    time_guard_margin,
)
from helpers import detect_zeros_reference

P = WindowParams(5.0)


def _matrix(values):
    """Transform matrix whose values are ``values`` with channel m scaled by
    xi_m^((alpha+1)/2), the white-noise ramp that ``detect_zeros``
    divides out, so the channel-flattened moduli are ``values``."""
    n, n_ch = values.shape
    tg = TimeGrid.from_sampling(0.0, 1.0, n)
    fg = LogFreqGrid(0.5, 2.0, n_ch)
    ramp = fg.channels() ** ((P.alpha + 1) / 2)
    v = (np.asarray(values, float) * ramp).astype(complex)
    return TFMatrix(v, tg, fg, P, 0.0)


def test_guard_spec_validation():
    with pytest.raises(ValueError):
        GuardSpec(border_cells=0)
    with pytest.raises(ValueError):
        GuardSpec(freq_channels=-1)


def test_single_dip_is_found():
    v = np.ones((12, 8))
    v[5, 4] = 0.1
    zs = detect_zeros(_matrix(v), GuardSpec(1, 0, None))
    assert len(zs) == 1
    assert zs.j[0] == 5 and zs.m[0] == 4


def test_plateau_yields_no_zeros():
    zs = detect_zeros(_matrix(np.ones((10, 10))), GuardSpec(1, 0, None))
    assert len(zs) == 0


def test_exact_zero_always_detected_with_channel_flattening():
    rng = np.random.default_rng(0)
    v = rng.random((16, 9)) + 0.5
    v[7, 3] = 0.0
    zs = detect_zeros(_matrix(v), GuardSpec(1, 0, None))
    assert (7, 3) in set(zip(zs.j, zs.m))


def test_global_scaling_invariance():
    rng = np.random.default_rng(1)
    v = rng.random((20, 12)) + 0.1
    g = GuardSpec(1, 0, None)
    z1 = detect_zeros(_matrix(v), g)
    z2 = detect_zeros(_matrix(1e7 * v), g)
    assert np.array_equal(z1.j, z2.j) and np.array_equal(z1.m, z2.m)


def test_output_is_sorted_by_channel_then_time():
    v = np.ones((14, 10))
    v[8, 2] = 0.1
    v[3, 2] = 0.1
    v[5, 7] = 0.1
    zs = detect_zeros(_matrix(v), GuardSpec(1, 0, None))
    assert list(zip(zs.m, zs.j)) == [(2, 3), (2, 8), (7, 5)]


def test_frequency_guard_removes_edge_channels():
    v = np.ones((14, 10))
    v[6, 2] = 0.1
    v[6, 5] = 0.1
    loose = detect_zeros(_matrix(v), GuardSpec(1, 0, None))
    tight = detect_zeros(_matrix(v), GuardSpec(1, 3, None))
    assert set(zip(loose.j, loose.m)) == {(6, 2), (6, 5)}
    assert set(zip(tight.j, tight.m)) == {(6, 5)}


def test_guard_monotonicity_on_noise():
    tg = TimeGrid.from_sampling(0.0, 64.0, 128)
    fg = LogFreqGrid(0.25, 2.0, 24)
    y = sample_white_noise(128, 5, grid=tg)
    S = dast_spectral(y, fg, WindowParams.from_alpha(20.0))
    sets = []
    for g in (0, 2, 5):
        zs = detect_zeros(S, GuardSpec(1, g, None))
        sets.append(set(zip(zs.j, zs.m)))
    assert sets[2] <= sets[1] <= sets[0]


def test_time_guard_margin_formula_and_monotonicity():
    beta, tol = 5.0, 1e-4
    for xi in (0.5, 1.0, 4.0):
        u = time_guard_margin(xi, beta, tol) * xi
        # envelope |1 + i u|^-(beta+1) equals tol at the margin
        assert (1 + u ** 2) ** (-(beta + 1) / 2) == pytest.approx(tol, rel=1e-12)
    assert time_guard_margin(4.0, beta, tol) < time_guard_margin(1.0, beta, tol)


def test_time_guard_drops_edge_zeros():
    v = np.ones((40, 8))
    v[2, 4] = 0.1   # close to the left time edge
    v[20, 4] = 0.1  # mid-signal
    periodic = detect_zeros(_matrix(v), GuardSpec(1, 0, None))
    guarded = detect_zeros(_matrix(v), GuardSpec(1, 0, 1e-4))
    assert (2, 4) in set(zip(periodic.j, periodic.m))
    assert (2, 4) not in set(zip(guarded.j, guarded.m))
    assert (20, 4) in set(zip(guarded.j, guarded.m))


def test_matches_bruteforce_on_white_noise():
    tg = TimeGrid.from_sampling(0.0, 32.0, 64)
    fg = LogFreqGrid(0.25, 2.0, 12)
    p = WindowParams.from_alpha(20.0)
    y = sample_white_noise(64, 9, grid=tg)
    S = dast_spectral(y, fg, p)
    zs = detect_zeros(S, GuardSpec(1, 0, None))
    # independent reimplementation: flatten the per-channel white-noise
    # std and take strict 8-neighbor minima with explicit loops
    a = np.abs(S.values) / fg.channels()[None, :] ** ((p.alpha + 1) / 2)
    found = set()
    for j in range(1, 63):
        for m in range(1, 11):
            nb = [a[j + dj, m + dm]
                  for dj in (-1, 0, 1) for dm in (-1, 0, 1)
                  if (dj, dm) != (0, 0)]
            if all(a[j, m] < b for b in nb):
                found.add((j, m))
    assert set(zip(zs.j, zs.m)) == found


def _assert_same_as_full_grid(S, guard):
    zs = detect_zeros(S, guard)
    ref = detect_zeros_reference(S, guard)
    for got, want in zip((zs.j, zs.m, zs.x, zs.xi, zs.w), ref):
        assert np.array_equal(got, want)
    return len(zs)


def test_candidate_detection_matches_full_grid():
    # the candidate pass must return exactly the zero set of the full-grid
    # 8-neighbor formula, bit for bit, under every guard
    tg = TimeGrid.from_sampling(0.0, 2000.0, 2000)
    fg = LogFreqGrid(2.0 ** -6, 16.0, 300)
    guards = (GuardSpec(1, 2, None), GuardSpec(), GuardSpec(3, 0, None),
              GuardSpec(1, 0, None))
    cases = [(300.0, s) for s in range(10)] + [(500.0, 0)]
    for alpha, seed in cases:
        y = sample_white_noise(2000, np.random.SeedSequence([0, seed]),
                               grid=tg)
        S = dast_spectral(y, fg, WindowParams.from_alpha(alpha))
        for guard in guards:
            assert _assert_same_as_full_grid(S, guard) > 100

    # hand-built grids: ties between neighbors, exact zeros, inf and NaN
    rng = np.random.default_rng(3)
    v = np.round(rng.random((30, 12)) * 4.0) + 1.0  # many equal neighbors
    v[4, 3] = v[10, 6] = v[11, 6] = 0.0  # isolated and adjacent exact zeros
    v[15, 2] = v[16, 9] = np.inf
    v[20, 5] = v[21, 7] = np.nan
    v[22, 7] = 0.5  # a dip next to a NaN
    v[8, 9] = 0.5  # a dip next to an inf ...
    v[8, 10] = np.inf  # ... across channels
    for guard in (GuardSpec(1, 0, None), GuardSpec(2, 3, 1e-4)):
        _assert_same_as_full_grid(_matrix(v), guard)
        _assert_same_as_full_grid(_matrix(v[::-1]), guard)
    assert _assert_same_as_full_grid(_matrix(v), GuardSpec(1, 0, None)) > 0


def test_disk_coordinates_match_cayley_map():
    v = np.ones((12, 8))
    v[5, 4] = 0.1
    zs = detect_zeros(_matrix(v), GuardSpec(1, 0, None))
    expect = cayley_to_disk(zs.x[0] + 1j / zs.xi[0])
    assert zs.w[0] == pytest.approx(expect, rel=1e-13)


def test_small_grid_rejected():
    with pytest.raises(ValueError):
        detect_zeros(_matrix(np.ones((2, 8))))
