"""Readers and writers for signals, transform matrices, zero sets, and
spatial statistics.

Transform matrices are binary only: an uncompressed ``.npz`` with the
complex128 ``values`` and the grid, window and scale metadata as 0-d
arrays.  Signals are CSV or packed binary; zero sets and statistics are
CSV.  All text output is written with explicit repr-precision floats and
fixed key ordering so that identical inputs produce byte-identical files.
Metadata rides in ``# key=value`` comment lines ahead of the column
header.
"""

import struct
import zipfile

import numpy as np
from numpy.lib import format as npy

from .transform import DiscreteSignal, LogFreqGrid, TFMatrix, TimeGrid
from .windows import WindowParams
from .zeros import ZeroSet

_SIGNAL_MAGIC = b"ASTZSIG1"


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_meta(f, meta: dict):
    for k in meta:
        f.write(f"# {k}={meta[k]}\n")


def _read_meta(path):
    meta = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k.strip()] = v.strip()
    return meta


def write_signal_csv(sig: DiscreteSignal, path):
    with open(path, "w") as f:
        _write_meta(f, {
            "x_min": _fmt(sig.grid.x_min),
            "x_max": _fmt(sig.grid.x_max),
            "n_samples": sig.grid.n_samples,
        })
        f.write("index,real,imag\n")
        for i, v in enumerate(sig.samples):
            f.write(f"{i},{_fmt(v.real)},{_fmt(v.imag)}\n")


def read_signal_csv(path) -> DiscreteSignal:
    meta = _read_meta(path)
    data = np.loadtxt(path, delimiter=",", skiprows=len(meta) + 1, ndmin=2)
    grid = TimeGrid(float(meta["x_min"]), float(meta["x_max"]),
                    int(meta["n_samples"]))
    return DiscreteSignal(data[:, 1] + 1j * data[:, 2], grid)


def write_signal_binary(sig: DiscreteSignal, path):
    """Little-endian binary: 8-byte magic, uint64 N, float64 sample rate,
    then interleaved float64 (re, im) pairs.  Time origin is zero."""
    with open(path, "wb") as f:
        f.write(_SIGNAL_MAGIC)
        f.write(struct.pack("<Qd", sig.grid.n_samples, sig.grid.sample_rate))
        inter = np.empty(2 * len(sig.samples))
        inter[0::2] = sig.samples.real
        inter[1::2] = sig.samples.imag
        f.write(inter.astype("<f8").tobytes())


def read_signal_binary(path) -> DiscreteSignal:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != _SIGNAL_MAGIC:
            raise ValueError("not a signal file (bad magic)")
        n, rate = struct.unpack("<Qd", f.read(16))
        inter = np.frombuffer(f.read(16 * n), dtype="<f8")
    if len(inter) != 2 * n:
        raise ValueError("truncated signal payload")
    grid = TimeGrid.from_sampling(0.0, rate, n)
    return DiscreteSignal(inter[0::2] + 1j * inter[1::2], grid)


def write_tfmatrix(S: TFMatrix, path):
    """Uncompressed ``.npz``: ``values`` (complex128, as in memory) and the
    grid, window and scale metadata as 0-d arrays, written to ``path`` as
    given.  Each member is an ``.npy`` header followed by the array's own
    buffer, so no serialized copy of ``values`` is made (``np.savez``
    copies it through ``tobytes``)."""
    arrays = {
        "values": S.values, "beta": S.params.beta, "log_scale": S.log_scale,
        "x_min": S.time_grid.x_min, "x_max": S.time_grid.x_max,
        "n_samples": S.time_grid.n_samples,
        "xi_min": S.freq_grid.xi_min, "xi_max": S.freq_grid.xi_max,
        "n_channels": S.freq_grid.n_channels,
    }
    with zipfile.ZipFile(path, "w", allowZip64=True) as zf:
        for name, a in arrays.items():
            a = np.asarray(a, order="C")
            with zf.open(name + ".npy", "w", force_zip64=True) as member:
                npy.write_array_header_1_0(
                    member, npy.header_data_from_array_1_0(a))
                member.write(a.reshape(-1).view(np.uint8).data)


def read_tfmatrix(path) -> TFMatrix:
    """Inverse of ``write_tfmatrix``.  Anything else (a text file, a
    truncated archive, a missing or malformed field) raises
    ``ValueError``."""
    try:
        with np.load(path, allow_pickle=False) as z:
            tg = TimeGrid(float(z["x_min"]), float(z["x_max"]),
                          int(z["n_samples"]))
            fg = LogFreqGrid(float(z["xi_min"]), float(z["xi_max"]),
                             int(z["n_channels"]))
            S = TFMatrix(z["values"], tg, fg, WindowParams(float(z["beta"])),
                         float(z["log_scale"]))
    except (ValueError, TypeError, KeyError, EOFError,
            zipfile.BadZipFile) as exc:
        raise ValueError(f"not a transform file: {exc!r}") from exc
    if S.values.dtype != np.complex128:
        raise ValueError(f"transform values must be complex128, "
                         f"not {S.values.dtype}")
    return S


def write_zeros_csv(path, x, xi, w, j=None, m=None, meta=None):
    """Zero list; grid indices are left empty for zeros without a grid
    (e.g. sampled analytic-function zeros)."""
    with open(path, "w") as f:
        _write_meta(f, meta or {})
        f.write("j,m,x,xi,re_w,im_w\n")
        for k in range(len(w)):
            js = "" if j is None else str(int(j[k]))
            ms = "" if m is None else str(int(m[k]))
            xs = "" if x is None else _fmt(x[k])
            xis = "" if xi is None else _fmt(xi[k])
            f.write(f"{js},{ms},{xs},{xis},"
                    f"{_fmt(w[k].real)},{_fmt(w[k].imag)}\n")


def write_zeroset_csv(zs: ZeroSet, path, meta=None):
    write_zeros_csv(path, zs.x, zs.xi, zs.w, zs.j, zs.m, meta)


def read_zeros_csv(path) -> np.ndarray:
    """Disk points only (the last two columns); grid columns may be empty."""
    w = []
    with open(path) as f:
        rows = [ln for ln in f if not ln.startswith("#")]
    for ln in rows[1:]:
        parts = ln.strip().split(",")
        w.append(float(parts[4]) + 1j * float(parts[5]))
    return np.asarray(w, dtype=complex)


def write_radial_stats_csv(stats, path, meta=None):
    with open(path, "w") as f:
        _write_meta(f, meta or {})
        f.write("r,g_hat,n_pairs,n_centers\n")
        for i, r in enumerate(stats.r_bins):
            f.write(f"{_fmt(r)},{_fmt(stats.g_values[i])},"
                    f"{int(stats.n_pairs[i])},{stats.n_centers}\n")
