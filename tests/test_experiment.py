import dataclasses
import filecmp

import numpy as np
import pytest

from astzeros import (
    ExperimentConfig,
    compare_to_theory,
    run_experiment,
    write_bundle,
)
from astzeros.experiment import quantile_nearest_rank

TINY = dict(alpha=50.0, n_samples=512, fs=512.0, n_channels=80,
            xi_min=2.0 ** -6, xi_max=16.0, realizations=3, seed=7,
            r_max=0.3)


def test_config_validation_and_derived_fields():
    cfg = ExperimentConfig(**TINY)
    assert cfg.duration == pytest.approx(1.0)
    assert cfg.guard_radius == pytest.approx(cfg.r_max + cfg.h / 2)
    assert ExperimentConfig(**{**TINY, "r_guard": 0.4}).guard_radius == 0.4
    bins = cfg.r_bins()
    assert bins[0] == pytest.approx(cfg.r_min)
    assert bins[-1] == pytest.approx(cfg.r_max)
    assert np.allclose(np.diff(bins), cfg.r_step)
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(realizations=0)
    with pytest.raises(ValueError):
        ExperimentConfig(r_min=0.6, r_max=0.5)
    # configuration errors surface at construction, not inside a
    # realization
    with pytest.raises(ValueError, match="noise_kind"):
        ExperimentConfig(noise_kind="gauss")
    with pytest.raises(ValueError, match="channel"):
        ExperimentConfig(n_channels=1)
    with pytest.raises(ValueError, match="xi_max > xi_min"):
        ExperimentConfig(xi_min=16.0, xi_max=2.0)


def test_config_hash_tracks_fields():
    a = ExperimentConfig(**TINY)
    b = ExperimentConfig(**TINY)
    c = ExperimentConfig(**{**TINY, "seed": 8})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 16
    int(a.config_hash(), 16)  # hex string


def test_quantile_nearest_rank_against_sort_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((11, 5))
    for q in (0.05, 0.5, 0.95, 1.0):
        got = quantile_nearest_rank(x, q)
        rank = max(int(np.ceil(q * 11)) - 1, 0)
        expect = np.sort(x, axis=0)[rank]
        assert np.array_equal(got, expect)
    with pytest.raises(ValueError):
        quantile_nearest_rank(x, 0.0)


def test_run_is_deterministic_across_worker_counts(tmp_path):
    cfg = ExperimentConfig(**TINY)
    b1 = run_experiment(cfg, workers=1)
    b2 = run_experiment(cfg, workers=2)
    assert np.array_equal(b1.g_per_realization, b2.g_per_realization)
    assert np.array_equal(b1.zero_counts, b2.zero_counts)
    assert np.array_equal(b1.intensity_count_mean, b2.intensity_count_mean)
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    write_bundle(b1, d1)
    write_bundle(b2, d2)
    for name in ("pair_correlation.csv", "intensity.csv", "zero_counts.csv"):
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False)


def test_bundle_shapes_and_summary():
    cfg = ExperimentConfig(**TINY)
    b = run_experiment(cfg)
    n_bins = len(cfg.r_bins())
    assert b.g_per_realization.shape == (cfg.realizations, n_bins)
    assert b.g_mean.shape == (n_bins,)
    assert len(b.zero_counts) == cfg.realizations
    assert np.all(b.zero_counts > 0)
    assert b.expected_zero_count > 0
    summary = compare_to_theory(b, r_lo=cfg.r_min, r_hi=cfg.r_max)
    assert set(summary) == {"alpha", "mad", "max_dev", "coverage",
                            "count_ratio"}
    assert summary["count_ratio"] > 0
    assert 0.0 <= summary["coverage"] <= 1.0


def test_write_bundle_artifacts(tmp_path):
    cfg = ExperimentConfig(**{**TINY, "realizations": 2, "keep_zeros": True,
                              "out_dir": str(tmp_path / "res")})
    b = run_experiment(cfg)
    out = write_bundle(b)
    files = {"pair_correlation.csv", "intensity.csv", "zero_counts.csv",
             "zeros_0000.csv", "zeros_0001.csv"}
    import os
    assert files <= set(os.listdir(out))
    head = open(os.path.join(out, "pair_correlation.csv")).readline()
    assert head == f"# config_hash={b.config_hash}\n"


def test_seed_changes_results():
    cfg_a = ExperimentConfig(**TINY)
    cfg_b = ExperimentConfig(**{**TINY, "seed": 8})
    ba = run_experiment(cfg_a)
    bb = run_experiment(cfg_b)
    assert not np.array_equal(ba.zero_counts, bb.zero_counts) or \
        not np.array_equal(ba.g_per_realization, bb.g_per_realization)


def test_workers_do_not_enter_the_config():
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert "workers" not in names


# at this guard radius the center-scale cap leaves realizations 0 and 1 of
# seed 7 with no inner center, and 2 and 3 with some
SPARSE = {**TINY, "r_guard": 0.57, "realizations": 4}


def test_realization_without_centers_is_left_out_of_g(tmp_path):
    cfg = ExperimentConfig(**SPARSE)
    b = run_experiment(cfg)
    assert list(b.inner_counts) == [0, 0, 3, 1]
    assert np.all(b.zero_counts > 0)
    g = b.g_per_realization
    assert np.all(np.isnan(g[:2])) and np.all(np.isfinite(g[2:]))
    assert np.array_equal(b.g_mean, np.mean(g[2:], axis=0))
    assert np.array_equal(b.g_q05, quantile_nearest_rank(g[2:], 0.05))
    assert np.array_equal(b.g_q95, quantile_nearest_rank(g[2:], 0.95))
    b2 = run_experiment(cfg, workers=2)
    write_bundle(b, tmp_path / "w1")
    write_bundle(b2, tmp_path / "w2")
    for name in ("pair_correlation.csv", "intensity.csv", "zero_counts.csv"):
        assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w2" / name,
                           shallow=False)
    rows = (tmp_path / "w1" / "zero_counts.csv").read_text().splitlines()
    assert rows[-4].endswith(",0") and rows[-3].endswith(",0")


def test_no_center_in_any_realization_raises():
    cfg = ExperimentConfig(**{**SPARSE, "r_guard": 0.6})
    with pytest.raises(ValueError, match="no inner centers in any of the 4"):
        run_experiment(cfg)


def test_realization_error_names_index_and_seed(monkeypatch):
    import astzeros.experiment as aexp

    calls = {"n": 0}
    real_detect = aexp.detect_zeros

    def failing_second(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise FloatingPointError("forced")
        return real_detect(*args, **kwargs)

    monkeypatch.setattr(aexp, "detect_zeros", failing_second)
    with pytest.raises(RuntimeError) as info:
        run_experiment(ExperimentConfig(**TINY))
    assert str(info.value) == ("realization 1 (SeedSequence([7, 1])) "
                               "failed: FloatingPointError: forced")
    assert isinstance(info.value.__cause__, FloatingPointError)
