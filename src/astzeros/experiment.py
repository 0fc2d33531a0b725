"""Seeded Monte Carlo harness: white noise -> transform -> zeros -> disk
statistics, aggregated over realizations with reproducible parallelism.

Time-edge handling exploits the exact time-periodicity of the spectral
transform: instead of discarding edge columns, the detected zeros are
extended by periodic copies one period to each side, the observation
window keeps only its scale (top/bottom) boundaries, and centers are
capped at the scale where an interaction ring would wrap more than once
around the period.

Determinism: realization r uses the RNG stream SeedSequence([seed, r]);
aggregation is a fold in realization-index order, so results are bitwise
independent of the worker count.

Faults stay local where they can: a realization with no inner center
records n_centers = 0 and a NaN row of g, and is left out of the g
summaries.  Any other error in a realization is re-raised naming its
index and RNG stream.
"""

import dataclasses
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gaf import expected_count, theoretical_pair_correlation
from .geometry import cayley_to_disk, pseudo_hyperbolic_distance
from .io import _fmt, write_zeros_csv
from .spatial import (ObservationWindow, classify_inner,
                      estimate_pair_correlation, radial_bins)
from .transform import (
    LogFreqGrid,
    TimeGrid,
    dast_spectral,
    sample_white_noise,
)
from .windows import WindowParams
from .zeros import GuardSpec, detect_zeros


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float = 300.0
    n_samples: int = 2000
    fs: float = 2000.0
    n_channels: int = 300
    xi_min: float = 2.0 ** -6
    xi_max: float = 16.0
    realizations: int = 20
    seed: int = 0
    h: float = 0.02
    r_min: float = 0.05
    r_max: float = 0.5
    r_step: float = 0.01
    r_guard: float = -1.0  # negative: use r_max + h/2
    guard_channels: int = 2
    noise_kind: str = "complex"
    out_dir: str = "results"
    keep_zeros: bool = False

    def __post_init__(self):
        if self.alpha <= 1 or self.n_samples < 8 or self.fs <= 0:
            raise ValueError("invalid signal parameters")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if not (0 < self.r_min < self.r_max < 1) or self.r_step <= 0:
            raise ValueError("invalid radial bin range")
        if self.noise_kind not in ("complex", "real"):
            raise ValueError("noise_kind must be 'complex' or 'real'")
        LogFreqGrid(self.xi_min, self.xi_max, self.n_channels)  # validates

    @property
    def duration(self) -> float:
        """Signal period in seconds (the circular-transform period)."""
        return self.n_samples / self.fs

    def _radial_bins(self):
        return radial_bins(self.r_min, self.r_max, self.r_step, self.h,
                           self.r_guard)

    @property
    def guard_radius(self) -> float:
        return self._radial_bins()[1]

    def r_bins(self) -> np.ndarray:
        return self._radial_bins()[0]

    def config_hash(self) -> str:
        text = "\n".join(
            f"{f.name}={getattr(self, f.name)}"
            for f in dataclasses.fields(self)
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ResultBundle:
    config: ExperimentConfig
    config_hash: str
    r_bins: np.ndarray
    g_per_realization: np.ndarray  # (R, n_bins); NaN rows: no inner center
    g_mean: np.ndarray  # g_mean, g_q05, g_q95: over rows with centers
    g_q05: np.ndarray
    g_q95: np.ndarray
    g_theory: np.ndarray
    zero_counts: np.ndarray  # zeros in the guarded window, per realization
    inner_counts: np.ndarray
    expected_zero_count: float
    intensity_r: np.ndarray  # pseudo-hyperbolic radii
    intensity_count_mean: np.ndarray
    intensity_expected: np.ndarray
    zero_sets: list = None  # per-realization (x, xi, w) when kept


def _window_geometry(cfg: ExperimentConfig):
    """Kept-channel scale band, observation window, and the periodic cap
    on center scales."""
    fg = LogFreqGrid(cfg.xi_min, cfg.xi_max, cfg.n_channels)
    xis = fg.channels()
    g = max(1, cfg.guard_channels)
    y_lo = 1.0 / xis[cfg.n_channels - 1 - g]
    y_hi = 1.0 / xis[g]
    period = cfg.duration
    win = ObservationWindow.from_halfplane_rect(0.0, period, y_lo, y_hi)
    r_g = cfg.guard_radius
    # an interaction ring of radius r_g at height y has Euclidean width
    # 4 r_g y / (1 - r_g^2); capping it below one period keeps periodic
    # neighbor counting unambiguous
    y_cap = period * (1.0 - r_g ** 2) / (4.0 * r_g)
    return fg, win, y_lo, y_hi, y_cap


def _realization(cfg: ExperimentConfig, index: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
    tg = TimeGrid.from_sampling(0.0, cfg.fs, cfg.n_samples)
    fg, win, y_lo, y_hi, y_cap = _window_geometry(cfg)
    p = WindowParams.from_alpha(cfg.alpha)
    y = sample_white_noise(cfg.n_samples, rng, cfg.noise_kind, grid=tg)
    S = dast_spectral(y, fg, p)
    guard = GuardSpec(border_cells=1, freq_channels=cfg.guard_channels,
                      envelope_tol=None)
    zs = detect_zeros(S, guard)

    period = cfg.duration
    z_half = zs.x + 1j / zs.xi
    points = cayley_to_disk(
        np.concatenate([z_half, z_half - period, z_half + period])
    )
    base = points[: len(zs)]
    inner = np.zeros(len(points), dtype=bool)
    if len(zs):
        scale = 1.0 / zs.xi
        inner_base = classify_inner(base, win, cfg.guard_radius) & \
            (scale <= y_cap)
        inner[: len(base)] = inner_base
    if np.any(inner):
        st = estimate_pair_correlation(points, inner, cfg.r_bins(), cfg.h,
                                       cfg.alpha)
        g, n_centers = st.g_values, st.n_centers
    else:
        g, n_centers = np.full(len(cfg.r_bins()), np.nan), 0

    # intensity: growing disks around a fixed in-window reference point
    y_ref = np.sqrt(y_lo * min(y_hi, y_cap))
    w_ref = cayley_to_disk(period / 2.0 + 1j * y_ref)
    r_allow = min(
        (y_ref - y_lo) / (y_ref + y_lo),
        (y_hi - y_ref) / (y_hi + y_ref),
        (np.sqrt(4.0 * y_ref ** 2 + period ** 2) - 2.0 * y_ref) / period,
    )
    r_int = np.linspace(0.1, 0.95 * r_allow, 5)
    d_ref = pseudo_hyperbolic_distance(points, w_ref) if len(points) else \
        np.zeros(0)
    counts = np.array([np.count_nonzero(d_ref < r) for r in r_int])

    out = {
        "index": index,
        "g": g,
        "n_centers": n_centers,
        "zero_count": len(zs),
        "intensity_r": r_int,
        "intensity_counts": counts,
    }
    if cfg.keep_zeros:
        out["zeros"] = (zs.x, zs.xi, base)
    return out


def _run_realization(cfg: ExperimentConfig, index: int) -> dict:
    """``_realization``, re-raising any error with the realization index
    and its RNG stream."""
    try:
        return _realization(cfg, index)
    except Exception as exc:
        raise RuntimeError(
            f"realization {index} (SeedSequence([{cfg.seed}, {index}])) "
            f"failed: {type(exc).__name__}: {exc}"
        ) from exc


def quantile_nearest_rank(values: np.ndarray, q: float, axis=0) -> np.ndarray:
    """Nearest-rank (no interpolation) empirical quantile: the element of
    rank ceil(q n) of the sorted sample."""
    if not (0 < q <= 1):
        raise ValueError("q must be in (0, 1]")
    s = np.sort(values, axis=axis)
    n = s.shape[axis]
    rank = max(int(np.ceil(q * n)) - 1, 0)
    return np.take(s, rank, axis=axis)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ResultBundle:
    indices = range(cfg.realizations)
    if workers <= 1:
        results = [_run_realization(cfg, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_realization,
                                    [cfg] * cfg.realizations, indices))
    results.sort(key=lambda d: d["index"])

    r_bins = cfg.r_bins()
    g_all = np.array([d["g"] for d in results])
    has_centers = np.array([d["n_centers"] > 0 for d in results])
    if not np.any(has_centers):
        raise ValueError(
            f"no inner centers in any of the {cfg.realizations} "
            f"realizations: the window is too small for the guard radius "
            f"{cfg.guard_radius:g}"
        )
    g_ok = g_all[has_centers]
    g_mean = np.mean(g_ok, axis=0)
    g_q05 = quantile_nearest_rank(g_ok, 0.05)
    g_q95 = quantile_nearest_rank(g_ok, 0.95)
    g_theory = theoretical_pair_correlation(cfg.alpha, r_bins)

    _, _, y_lo, y_hi, _ = _window_geometry(cfg)
    expected = cfg.alpha / (4.0 * np.pi) * cfg.duration * (1 / y_lo - 1 / y_hi)
    r_int = results[0]["intensity_r"]
    int_counts = np.array([d["intensity_counts"] for d in results])
    zero_sets = [d["zeros"] for d in results] if cfg.keep_zeros else None
    return ResultBundle(
        config=cfg,
        config_hash=cfg.config_hash(),
        r_bins=r_bins,
        g_per_realization=g_all,
        g_mean=g_mean,
        g_q05=g_q05,
        g_q95=g_q95,
        g_theory=g_theory,
        zero_counts=np.array([d["zero_count"] for d in results]),
        inner_counts=np.array([d["n_centers"] for d in results]),
        expected_zero_count=expected,
        intensity_r=r_int,
        intensity_count_mean=np.mean(int_counts, axis=0),
        intensity_expected=np.array(
            [expected_count(cfg.alpha, r) for r in r_int]
        ),
        zero_sets=zero_sets,
    )


def compare_to_theory(bundle: ResultBundle, r_lo=0.05, r_hi=0.5) -> dict:
    """Mean absolute deviation from the closed-form pair correlation, the
    quantile-band coverage of the theory curve, and the zero-count ratio
    against the expected count in the guarded window."""
    sel = (bundle.r_bins >= r_lo) & (bundle.r_bins <= r_hi)
    dev = np.abs(bundle.g_mean[sel] - bundle.g_theory[sel])
    covered = (bundle.g_q05[sel] <= bundle.g_theory[sel]) & (
        bundle.g_theory[sel] <= bundle.g_q95[sel]
    )
    return {
        "alpha": bundle.config.alpha,
        "mad": float(np.mean(dev)),
        "max_dev": float(np.max(dev)),
        "coverage": float(np.mean(covered)),
        "count_ratio": float(
            np.mean(bundle.zero_counts) / bundle.expected_zero_count
        ),
    }


def write_bundle(bundle: ResultBundle, out_dir=None):
    cfg = bundle.config
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    meta = [f"# config_hash={bundle.config_hash}\n"]
    meta += [
        f"# {f.name}={getattr(cfg, f.name)}\n"
        for f in dataclasses.fields(cfg)
    ]
    with open(os.path.join(out_dir, "pair_correlation.csv"), "w") as f:
        f.writelines(meta)
        f.write("alpha,r,g_mean,g_q05,g_q95,g_theory\n")
        for i, r in enumerate(bundle.r_bins):
            f.write(
                f"{_fmt(cfg.alpha)},{_fmt(r)},{_fmt(bundle.g_mean[i])},"
                f"{_fmt(bundle.g_q05[i])},{_fmt(bundle.g_q95[i])},"
                f"{_fmt(bundle.g_theory[i])}\n"
            )
    with open(os.path.join(out_dir, "intensity.csv"), "w") as f:
        f.writelines(meta)
        f.write("alpha,r_pseudo,count_mean,expected_count\n")
        for i, r in enumerate(bundle.intensity_r):
            f.write(
                f"{_fmt(cfg.alpha)},{_fmt(r)},"
                f"{_fmt(bundle.intensity_count_mean[i])},"
                f"{_fmt(bundle.intensity_expected[i])}\n"
            )
    with open(os.path.join(out_dir, "zero_counts.csv"), "w") as f:
        f.writelines(meta)
        f.write("realization,zero_count,inner_count\n")
        for i in range(cfg.realizations):
            f.write(f"{i},{bundle.zero_counts[i]},{bundle.inner_counts[i]}\n")
    if bundle.zero_sets is not None:
        for i, (x, xi, w) in enumerate(bundle.zero_sets):
            write_zeros_csv(
                os.path.join(out_dir, f"zeros_{i:04d}.csv"),
                x, xi, w,
                meta={"config_hash": bundle.config_hash, "realization": i},
            )
    return out_dir
