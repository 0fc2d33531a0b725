"""Sampling grids, discrete white noise, and the discrete analytic
Stockwell transform.

Two evaluators are provided.  ``dast_direct`` is a literal-sum reference:
for each channel it correlates the signal with time-domain window samples
obtained by numerical Fourier synthesis.  ``dast_spectral`` is the fast
path: per channel, a Fourier multiplier supported on positive frequencies
is applied via the FFT.  Under the default physical-units convention the
two agree to near machine precision and both reproduce the closed-form
transform of the orthogonal basis family.  The multipliers and modulations
of the last (grids, beta, log_scale) configuration are cached: one plan of
n*M*16 + ceil(n/2)*M*8 bytes for n samples and M channels.  A call needs
no buffer beyond its n*M*16-byte output, which holds each block's inverse
FFT in place.

Amplitude bookkeeping is done in the log domain.  A per-matrix
``log_scale`` L is chosen from the channel range so that stored values are
exp(-L) times the physical transform; for moderate window parameters L is
zero and values are physical.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import gammaln

from .windows import TWO_PI, WindowParams

PHYSICAL = "physical"
LITERAL = "literal"
_BLOCK = 128  # channels per inverse FFT batch


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time nodes x_n = x_min + n*delta_x, n = 0..N-1."""

    x_min: float
    x_max: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("need at least two time samples")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def delta_x(self) -> float:
        return (self.x_max - self.x_min) / (self.n_samples - 1)

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.delta_x

    def nodes(self) -> np.ndarray:
        return self.x_min + self.delta_x * np.arange(self.n_samples)

    @classmethod
    def from_sampling(cls, x_min: float, sample_rate: float, n_samples: int):
        return cls(x_min, x_min + (n_samples - 1) / sample_rate, n_samples)


@dataclass(frozen=True)
class LogFreqGrid:
    """Log2-spaced frequency channels between xi_min and xi_max."""

    xi_min: float
    xi_max: float
    n_channels: int

    def __post_init__(self):
        if self.n_channels < 2:
            raise ValueError("need at least two frequency channels")
        if not (self.xi_max > self.xi_min > 0):
            raise ValueError("need xi_max > xi_min > 0")

    @property
    def delta_log2(self) -> float:
        return (np.log2(self.xi_max) - np.log2(self.xi_min)) / (self.n_channels - 1)

    def channels(self) -> np.ndarray:
        m = np.arange(self.n_channels)
        return 2.0 ** (np.log2(self.xi_min) + m * self.delta_log2)


@dataclass(frozen=True)
class DiscreteSignal:
    samples: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=complex)
        )
        if self.samples.ndim != 1 or len(self.samples) != self.grid.n_samples:
            raise ValueError("sample count must match the time grid")


@dataclass(frozen=True)
class TFMatrix:
    """Transform values on the (time, channel) grid.

    ``values[j, m]`` holds exp(-log_scale) times the physical transform at
    time node j and frequency channel m.
    """

    values: np.ndarray
    time_grid: TimeGrid
    freq_grid: LogFreqGrid
    params: WindowParams
    convention: str = PHYSICAL
    log_scale: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.time_grid.n_samples, self.freq_grid.n_channels):
            raise ValueError("matrix shape must match the grids")
        object.__setattr__(self, "values", v)


def sample_white_noise(n_samples, seed, kind="complex", grid=None):
    """Standard Gaussian noise; the complex kind has E|z|^2 = 1.

    ``seed`` may be an integer, a SeedSequence, or a Generator.
    """
    rng = np.random.default_rng(seed)
    if kind == "complex":
        z = (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples))
        z /= np.sqrt(2.0)
    elif kind == "real":
        z = rng.standard_normal(n_samples).astype(complex)
    else:
        raise ValueError("kind must be 'real' or 'complex'")
    if grid is None:
        grid = TimeGrid(0.0, float(n_samples - 1), n_samples)
    return DiscreteSignal(z, grid)


def _tail_ratio(beta: float, log_tol: float) -> float:
    """Solve beta*(log t + 1 - t) = log_tol for t > 1."""
    target = log_tol / beta
    f = lambda t: np.log(t) + 1.0 - t - target
    hi = 2.0
    while f(hi) > 0:
        hi *= 2.0
    return brentq(f, 1.0, hi)


def multiplier_cutoff(xi, p: WindowParams, tol=1e-12) -> float:
    """Frequency above which a channel's Fourier multiplier falls below
    ``tol`` times its peak.  Keeping this under the Nyquist frequency keeps
    the channel alias-free."""
    t_star = _tail_ratio(p.beta, np.log(tol))
    return xi * t_star * p.beta / TWO_PI


class CauchyWindowKernel:
    """Time-domain window samples by dense inverse-Fourier synthesis.

    The frequency profile nu^beta e^(-2 pi nu) is normalized by its peak,
    synthesized on a fine time grid with the FFT, and interpolated with a
    cubic spline.  ``eval_normalized`` returns psi(u) / (sqrt(2 pi)
    e^(log_peak)); callers fold log_peak into their own log-domain
    amplitude.  The synthesis error is bounded by the envelope tolerance
    (truncation) plus the spline interpolation error, both far below 1e-8
    for the default oversampling.
    """

    def __init__(self, params: WindowParams, oversample=128,
                 envelope_tol=1e-13, u_cap=1e3):
        b = params.beta
        self.params = params
        self.log_peak = b * (np.log(b / TWO_PI) - 1.0)
        # frequency extent: where the normalized profile drops below 1e-18
        t_hi = _tail_ratio(b, np.log(1e-18))
        nu_hi = t_hi * b / TWO_PI
        # time extent from the |1 + i u|^-(beta+1) envelope
        self.u_span = min(
            u_cap, np.sqrt(envelope_tol ** (-2.0 / (b + 1.0)) - 1.0)
        )
        du = 1.0 / (oversample * nu_hi)
        n_fft = next_fast_len(int(np.ceil(2.5 * self.u_span / du)))
        dnu = 1.0 / (n_fft * du)
        nu = dnu * np.arange(n_fft)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_prof = b * np.log(nu) - TWO_PI * nu - self.log_peak
        log_prof[0] = -np.inf
        prof = np.where(log_prof > -745.0, np.exp(log_prof), 0.0)
        # q_j = dnu * sum_k prof_k e^{+2 pi i nu_k u_j} on u_j = j*du
        q = np.fft.fftshift(ifft(prof) / du)
        u = du * (np.arange(n_fft) - n_fft // 2)
        keep = np.abs(u) <= 1.02 * self.u_span
        self._spline = CubicSpline(u[keep], q[keep])
        self._u_lo, self._u_hi = u[keep][0], u[keep][-1]

    def eval_normalized(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape, dtype=complex)
        inside = (u >= self._u_lo) & (u <= self._u_hi)
        out[inside] = self._spline(u[inside])
        return out

    def psi(self, u) -> np.ndarray:
        """Physical window values (may overflow for very large beta)."""
        amp = np.sqrt(TWO_PI) * np.exp(self.log_peak)
        return amp * self.eval_normalized(u)


def default_log_scale(fg: LogFreqGrid, p: WindowParams) -> float:
    """Shared amplitude scale keeping channel multipliers finite."""
    b = p.beta
    peak = np.max(b * (np.log(b * fg.channels() / TWO_PI) - 1.0))
    return max(0.0, peak - 600.0)


def dast_direct(y: DiscreteSignal, fg: LogFreqGrid, p: WindowParams,
                convention: str = PHYSICAL, kernel: CauchyWindowKernel = None,
                log_scale: float = None) -> TFMatrix:
    """Reference evaluator: per-channel correlation with synthesized window
    samples.

    The physical convention uses the circular (periodized) window, matching
    the spectral evaluator's implicit periodicity; the literal convention
    reproduces the plain sum with the e^{-i(2 pi / N) xi_m x_n} exponent
    and applies no periodization or amplitude rescaling.
    """
    if convention not in (PHYSICAL, LITERAL):
        raise ValueError("unknown convention")
    if kernel is None:
        kernel = CauchyWindowKernel(p)
    n = y.grid.n_samples
    dx = y.grid.delta_x
    x = y.grid.nodes()
    xis = fg.channels()
    period = n * dx
    if log_scale is None:
        log_scale = default_log_scale(fg, p) if convention == PHYSICAL else 0.0
    out = np.empty((n, fg.n_channels), dtype=complex)
    sig = y.samples
    if convention == PHYSICAL:
        # circular lag grid, signed distances in (-N/2, N/2]
        delta = ((np.arange(n) + n // 2) % n) - n // 2
        for m, xi in enumerate(xis):
            u0 = xi * dx * delta
            n_alias = int(np.ceil(kernel.u_span / (xi * period))) + 1
            k = np.zeros(n, dtype=complex)
            for a in range(-n_alias, n_alias + 1):
                k += np.conj(kernel.eval_normalized(u0 + a * xi * period))
            row = np.array([np.dot(sig, np.roll(k, j)) for j in range(n)])
            log_amp = (
                (p.beta + 1.5) * np.log(xi) + np.log(dx)
                + kernel.log_peak - log_scale
            )
            out[:, m] = np.exp(log_amp) * np.exp(-2j * np.pi * xi * x) * row
    else:
        amp = np.sqrt(TWO_PI) * np.exp(kernel.log_peak)
        for m, xi in enumerate(xis):
            phase = np.exp(-1j * (TWO_PI / n) * xi * x) * sig
            for j in range(n):
                u = xi * (x - x[j])
                w = np.conj(kernel.eval_normalized(u)) * np.exp(2j * np.pi * u)
                out[j, m] = amp * np.dot(phase, w)
    return TFMatrix(out, y.grid, fg, p, convention, log_scale)


@lru_cache(maxsize=1)
def _spectral_plan(grid: TimeGrid, fg: LogFreqGrid, beta: float,
                   log_scale: float):
    """Per block of channels: the slice, the multiplier on bins 0..ceil(n/2)-1
    (the zero Nyquist and negative bins are left out) and the modulation.
    Read-only, since every call with this configuration shares them."""
    n = grid.n_samples
    half = (n + 1) // 2
    x = grid.nodes()
    xis = fg.channels()
    nu = np.fft.fftfreq(n, d=grid.delta_x)[:half]
    pos = nu > 0
    log_nu = np.zeros(half)
    log_nu[pos] = np.log(nu[pos])
    plan = []
    for start in range(0, fg.n_channels, _BLOCK):
        sl = slice(start, min(start + _BLOCK, fg.n_channels))
        xi_b = xis[sl]
        # both factors are computed in place in the arrays the plan keeps:
        # block-size temporaries would stay resident as free heap beside it
        log_mult = TWO_PI * nu[:, None] / xi_b[None, :]
        np.subtract(beta * log_nu[:, None], log_mult, out=log_mult)
        log_mult -= log_scale
        mult = np.zeros_like(log_mult)
        ok = pos[:, None] & (log_mult > -745.0)
        mult[ok] = np.exp(log_mult[ok])
        phase = np.empty((n, len(xi_b)), dtype=complex)
        np.multiply(-2j * np.pi, np.outer(x, xi_b), out=phase)
        np.exp(phase, out=phase)
        np.multiply(np.sqrt(xi_b)[None, :], phase, out=phase)
        mult.setflags(write=False)
        phase.setflags(write=False)
        plan.append((sl, mult, phase))
    return tuple(plan)


def dast_spectral(y: DiscreteSignal, fg: LogFreqGrid, p: WindowParams,
                  log_scale: float = None) -> TFMatrix:
    """Fast evaluator: per channel, multiply positive-frequency bins of the
    signal spectrum by nu^beta e^(-2 pi nu / xi), zero the DC, Nyquist and
    negative bins, inverse-transform, and modulate by
    sqrt(xi) e^(-2 pi i xi x).  These signal-independent factors are cached
    for the last configuration: n*M*16 + ceil(n/2)*M*8 bytes for n samples
    and M channels (12 MB at 2000x300).

    Per call the only array of that size is the n*M*16-byte output
    (9.6 MB at 2000x300).  Each block of channels is filled, inverse
    transformed and modulated in place inside its own columns of the
    output, so no block buffer or padded copy is allocated."""
    n = y.grid.n_samples
    half = (n + 1) // 2
    if log_scale is None:
        log_scale = default_log_scale(fg, p)
    plan = _spectral_plan(y.grid, fg, p.beta, log_scale)
    spec = fft(y.samples)[:half, None]
    out = np.empty((n, fg.n_channels), dtype=complex)
    out[half:] = 0
    for sl, mult, phase in plan:
        blk = out[:, sl]
        np.multiply(spec, mult, out=blk[:half])
        # scipy.fft transforms a complex input in place under overwrite_x
        # (no padding asked for), so blk now holds the inverse FFT; a
        # multiply reading the returned array would copy the block
        ifft(blk, axis=0, overwrite_x=True)
        np.multiply(blk, phase, out=blk)
    return TFMatrix(out, y.grid, fg, p, PHYSICAL, log_scale)


def extract_analytic_part(S: TFMatrix) -> np.ndarray:
    """Divide out the nonvanishing modulation factor, exposing samples of
    an analytic function of z = x + i/xi (times one global constant).

    The stored physical-convention values already carry the xi-power part
    of the nonvanishing factor, so only the e^(-2 pi i xi x) phase needs
    removing; a single global constant recenters the white-noise amplitude
    envelope so the result spans the double range even when the raw
    channel amplitudes could not.  The residual sqrt(xi) prefactor is not
    analytic, but its contribution to the relative Cauchy-Riemann residual
    is O(1/alpha).  Moduli (hence zeros) match the input cell for cell up
    to the global constant.
    """
    b = S.params.beta
    x = S.time_grid.nodes()
    xis = S.freq_grid.channels()
    # expected log-amplitude per channel for white noise, used only to
    # pick the centering constant
    env = 0.5 * (
        np.log(xis) + gammaln(2 * b + 1)
        + (2 * b + 1) * np.log(xis / (2 * TWO_PI))
    ) - S.log_scale
    c0 = 0.5 * (np.max(env) + np.min(env))
    return S.values * np.exp(2j * np.pi * np.outer(x, xis) - c0)


def cauchy_riemann_residual(S: TFMatrix):
    """Median discrete Cauchy-Riemann residual of the extracted analytic
    part, in disk coordinates, normalized per cell by |F|.

    Finite differences are taken on log F — ratios F(neighbor)/F(cell)
    are insensitive to the amplitude envelope, which spans too many orders
    of magnitude at large alpha for raw differences to be meaningful.
    Returns (median |dF/d(conj w)| / |F|, median |dF/dw| / |F|) over
    interior grid cells; the first should be a small fraction of the
    second when the transform is analytic up to discretization.
    """
    F = extract_analytic_part(S)
    x = S.time_grid.nodes()
    xis = S.freq_grid.channels()
    y = 1.0 / xis
    dx = S.time_grid.delta_x

    # Differentiate log F rather than F: the deterministic amplitude
    # envelope makes F jump by order-one factors between neighboring
    # channels, which would dominate the finite-difference truncation
    # error, while log F varies slowly.  Each one-sided step uses a
    # principal-value log of the neighbor ratio, which is branch-safe as
    # long as the phase advances less than pi per cell.
    def step(num, den):
        return np.log(num / den)

    sx_p = step(F[2:, 1:-1], F[1:-1, 1:-1])
    sx_m = step(F[1:-1, 1:-1], F[:-2, 1:-1])
    d_x = (sx_p + sx_m) / (2.0 * dx)

    sy_p = step(F[1:-1, 2:], F[1:-1, 1:-1])
    sy_m = step(F[1:-1, 1:-1], F[1:-1, :-2])
    h_p = y[2:] - y[1:-1]   # negative: y decreases with channel index
    h_m = y[1:-1] - y[:-2]
    # nonuniform-grid central first derivative from the one-sided steps
    w_p = (h_m / (h_p * (h_p + h_m)))[None, :]
    w_m = (h_p / (h_m * (h_p + h_m)))[None, :]
    d_y = sy_p * w_p + sy_m * w_m

    d_zbar = 0.5 * (d_x + 1j * d_y)
    d_z = 0.5 * (d_x - 1j * d_y)
    z = x[1:-1, None] + 1j * y[None, 1:-1]
    jac = np.abs(2.0 / (z + 1j) ** 2)  # |Cayley derivative|
    res = np.abs(d_zbar) / jac
    grad = np.abs(d_z) / jac
    ok = np.isfinite(res) & np.isfinite(grad)
    return float(np.median(res[ok])), float(np.median(grad[ok]))
