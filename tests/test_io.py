import tracemalloc

import numpy as np
import pytest

from astzeros import (
    GuardSpec,
    LogFreqGrid,
    RadialStats,
    TimeGrid,
    WindowParams,
    dast_spectral,
    detect_zeros,
    sample_white_noise,
)
from astzeros import io as zio


def _signal(n=32, seed=0):
    tg = TimeGrid.from_sampling(0.0, 8.0, n)
    return sample_white_noise(n, seed, grid=tg)


def test_signal_csv_roundtrip(tmp_path):
    sig = _signal()
    path = tmp_path / "sig.csv"
    zio.write_signal_csv(sig, path)
    back = zio.read_signal_csv(path)
    assert back.grid == sig.grid
    assert np.array_equal(back.samples, sig.samples)


def test_signal_binary_roundtrip(tmp_path):
    sig = _signal()
    path = tmp_path / "sig.bin"
    zio.write_signal_binary(sig, path)
    back = zio.read_signal_binary(path)
    assert back.grid.n_samples == sig.grid.n_samples
    assert back.grid.sample_rate == pytest.approx(sig.grid.sample_rate)
    assert np.array_equal(back.samples, sig.samples)


def test_signal_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(ValueError):
        zio.read_signal_binary(path)
    zio.write_signal_binary(_signal(), path)
    path.write_bytes(path.read_bytes()[:-8])  # truncate payload
    with pytest.raises(ValueError):
        zio.read_signal_binary(path)


def _assert_tfmatrix_roundtrip(S, path):
    zio.write_tfmatrix(S, path)
    back = zio.read_tfmatrix(path)
    assert back.time_grid == S.time_grid
    assert back.freq_grid == S.freq_grid
    assert back.params == S.params
    assert back.log_scale == S.log_scale
    assert back.values.dtype == np.complex128
    assert back.values.tobytes() == S.values.tobytes()


def test_tfmatrix_roundtrip(tmp_path):
    sig = _signal()
    fg = LogFreqGrid(0.5, 2.0, 6)
    S = dast_spectral(sig, fg, WindowParams(5.0))
    _assert_tfmatrix_roundtrip(S, tmp_path / "tf.npz")


def test_tfmatrix_roundtrip_keeps_overflow_rescale(tmp_path):
    # at alpha=300 the channel multipliers overflow without the shared
    # amplitude rescale, so the file must carry log_scale exactly
    tg = TimeGrid.from_sampling(0.0, 64.0, 64)
    sig = sample_white_noise(64, 1, grid=tg)
    S = dast_spectral(sig, LogFreqGrid(2.0, 16.0, 6),
                      WindowParams.from_alpha(300.0))
    assert S.log_scale > 0 and np.any(S.values != 0)
    _assert_tfmatrix_roundtrip(S, tmp_path / "tf.npz")


def test_tfmatrix_write_makes_no_copy_of_values(tmp_path):
    # the values member is written from the array's own buffer: the
    # traced peak stays far below one copy of the matrix (np.savez makes
    # a full one through tobytes)
    tg = TimeGrid.from_sampling(0.0, 256.0, 512)
    S = dast_spectral(sample_white_noise(512, 2, grid=tg),
                      LogFreqGrid(0.25, 8.0, 128), WindowParams(5.0))
    tracemalloc.start()
    try:
        zio.write_tfmatrix(S, tmp_path / "tf.npz")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S.values.nbytes / 2
    assert zio.read_tfmatrix(tmp_path / "tf.npz").values.tobytes() == \
        S.values.tobytes()


def test_tfmatrix_reader_rejects_other_files(tmp_path):
    sig = _signal()
    S = dast_spectral(sig, LogFreqGrid(0.5, 2.0, 6), WindowParams(5.0))
    good = tmp_path / "tf.npz"
    zio.write_tfmatrix(S, good)
    payload = good.read_bytes()
    bad = tmp_path / "bad"
    csv_transform = ("# beta=5.0\n# convention=physical\n"
                     "j,m,x,xi,re,im,abs\n0,0,0.0,0.5,1.0,0.0,1.0\n")
    for content in (csv_transform.encode(),
                    bytes(range(256)) * 4,
                    b"",
                    payload[:len(payload) // 2],
                    payload[:-1]):
        bad.write_bytes(content)
        with pytest.raises(ValueError):
            zio.read_tfmatrix(bad)
    np.save(bad.with_suffix(".npy"), S.values)  # a bare array, no metadata
    with pytest.raises(ValueError):
        zio.read_tfmatrix(bad.with_suffix(".npy"))
    np.savez(bad.with_suffix(".npz"), values=S.values)  # metadata missing
    with pytest.raises(ValueError):
        zio.read_tfmatrix(bad.with_suffix(".npz"))


def test_zeroset_csv_roundtrip(tmp_path):
    sig = _signal(64, 3)
    fg = LogFreqGrid(0.5, 2.0, 10)
    S = dast_spectral(sig, fg, WindowParams(5.0))
    zs = detect_zeros(S, GuardSpec(1, 0, None))
    path = tmp_path / "zeros.csv"
    zio.write_zeroset_csv(zs, path, meta={"seed": 3})
    w = zio.read_zeros_csv(path)
    assert np.array_equal(w, zs.w)


def test_zeros_csv_without_grid_columns(tmp_path):
    w = np.array([0.1 + 0.2j, -0.3j])
    path = tmp_path / "gaf.csv"
    zio.write_zeros_csv(path, None, None, w, meta={"alpha": 10.0})
    assert np.array_equal(zio.read_zeros_csv(path), w)
    assert zio._read_meta(path)["alpha"] == "10.0"


def test_radial_stats_csv(tmp_path):
    st = RadialStats(np.array([0.1, 0.2]), np.array([0.5, 1.5]),
                     np.array([3, 9]), 0.05, 7)
    path = tmp_path / "stats.csv"
    zio.write_radial_stats_csv(st, path, meta={"alpha": 5.0})
    lines = path.read_text().splitlines()
    assert lines[0] == "# alpha=5.0"
    assert lines[1] == "r,g_hat,n_pairs,n_centers"
    assert lines[2].startswith("0.1,0.5,3,7")


def test_writes_are_deterministic(tmp_path):
    sig = _signal()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    zio.write_signal_csv(sig, a)
    zio.write_signal_csv(sig, b)
    assert a.read_bytes() == b.read_bytes()
