"""Shared oracles for the test suite.

Everything here is independent of the library internals it is used to
check: closed-form expressions, inverse-CDF samplers, and Mobius maps.
"""

import numpy as np
from scipy.fft import fft, ifft
from scipy.special import gammaln

from astzeros import (DiscreteSignal, LogFreqGrid, TimeGrid, WindowParams,
                      basis_ft, cayley_to_disk, time_guard_margin)


def closed_form_psi(u, p: WindowParams):
    """Time-domain analysis window from the explicit integral:

        psi(u) = sqrt(2*pi) * Gamma(beta+1) * (2*pi)^-(beta+1) * (1-iu)^-(beta+1)
    """
    u = np.asarray(u, dtype=float)
    b = p.beta
    log_amp = 0.5 * np.log(2 * np.pi) + gammaln(b + 1) \
        - (b + 1) * np.log(2 * np.pi)
    return np.exp(log_amp - (b + 1) * np.log(1.0 - 1j * u))


def synth_basis_signal(n: int, grid: TimeGrid, p: WindowParams) -> DiscreteSignal:
    """Sample the n-th basis function on a time grid by Fourier synthesis.

    The basis function is supported on positive frequencies and decays like
    exp(-2*pi*nu), so summing the first N positive frequency bins of the
    grid's Fourier dual reproduces the samples to near roundoff provided
    the Nyquist frequency covers the spectral support.
    """
    N = grid.n_samples
    dnu = grid.sample_rate / N
    nu = dnu * np.arange(N)
    F = basis_ft(n, nu, p) * np.exp(2j * np.pi * nu * grid.x_min)
    samples = np.fft.ifft(F) * N * dnu
    return DiscreteSignal(samples, grid)



def dast_spectral_reference(y: DiscreteSignal, fg: LogFreqGrid,
                            p: WindowParams, log_scale: float) -> np.ndarray:
    """Spectral transform values rebuilt from scratch on every call, all
    channels at once: the full n-row multiplier nu^beta e^(-2 pi nu / xi)
    e^(-log_scale) with the DC, Nyquist and negative bins zeroed, one
    inverse FFT, then the sqrt(xi) e^(-2 pi i xi x) modulation."""
    n = y.grid.n_samples
    x = y.grid.nodes()
    xis = fg.channels()
    spec = fft(y.samples)
    nu = np.fft.fftfreq(n, d=y.grid.delta_x)
    pos = nu > 0
    if n % 2 == 0:
        pos[n // 2] = False
    log_nu = np.zeros(n)
    log_nu[pos] = np.log(nu[pos])
    log_mult = (p.beta * log_nu[:, None]
                - 2 * np.pi * nu[:, None] / xis[None, :] - log_scale)
    mult = np.zeros_like(log_mult)
    ok = pos[:, None] & (log_mult > -745.0)
    mult[ok] = np.exp(log_mult[ok])
    cols = ifft(spec[:, None] * mult, axis=0)
    phase = np.sqrt(xis)[None, :] * np.exp(-2j * np.pi * np.outer(x, xis))
    return cols * phase


def detect_zeros_reference(S, guard):
    """Zero detection by the full-grid formula: strict 8-neighbor minima of
    the per-channel shifted log-modulus over all interior cells, then the
    border, frequency and time guards, sorted by channel, then time.
    Returns (j, m, x, xi, w)."""
    n, n_ch = S.values.shape
    alpha = 2.0 * S.params.beta + 1.0
    with np.errstate(divide="ignore"):
        a = np.log(np.abs(S.values))
    a = a - 0.5 * (alpha + 1.0) * np.log(S.freq_grid.channels())[None, :]
    is_min = np.ones((n - 2, n_ch - 2), dtype=bool)
    center = a[1:-1, 1:-1]
    for dj in (-1, 0, 1):
        for dm in (-1, 0, 1):
            if dj == 0 and dm == 0:
                continue
            is_min &= center < a[1 + dj:n - 1 + dj, 1 + dm:n_ch - 1 + dm]
    mask = np.zeros((n, n_ch), dtype=bool)
    mask[1:-1, 1:-1] = is_min

    b = guard.border_cells
    mask[:b, :] = False
    mask[n - b:, :] = False
    g = max(b, guard.freq_channels)
    mask[:, :g] = False
    mask[:, n_ch - g:] = False

    x = S.time_grid.nodes()
    xis = S.freq_grid.channels()
    if guard.envelope_tol is not None:
        for m in range(n_ch):
            margin = time_guard_margin(
                xis[m], S.params.beta, guard.envelope_tol
            )
            edge = (x < S.time_grid.x_min + margin) | (
                x > S.time_grid.x_max - margin
            )
            mask[edge, m] = False

    jj, mm = np.nonzero(mask)
    order = np.lexsort((jj, mm))
    jj, mm = jj[order], mm[order]
    zx = x[jj]
    zxi = xis[mm]
    w = cayley_to_disk(zx + 1j / zxi)
    return jj, mm, zx, zxi, np.atleast_1d(w)

def sample_poisson_disk(alpha: float, radius: float, rng) -> np.ndarray:
    """Poisson point process on the pseudo-hyperbolic disk of the given
    radius whose mean measure matches the zero intensity: expected count
    in radius r is alpha * r^2 / (1 - r^2).

    Radial inverse CDF: with t = u * R^2/(1-R^2), the radius is
    sqrt(t / (1 + t)); angles are uniform.
    """
    lam = alpha * radius ** 2 / (1.0 - radius ** 2)
    n = rng.poisson(lam)
    t = rng.random(n) * (radius ** 2 / (1.0 - radius ** 2))
    r = np.sqrt(t / (1.0 + t))
    ang = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * ang)


def mobius_disk(w, a, phi=0.0):
    """Disk automorphism e^{i phi} (w - a)/(1 - conj(a) w); an isometry of
    both the pseudo-hyperbolic and the hyperbolic distance."""
    return np.exp(1j * phi) * (w - a) / (1.0 - np.conj(a) * w)


def winding_count(coeffs, r, max_step=np.pi / 8):
    """Number of zeros of sum_n c_n w^n in |w| < r by the argument principle.

    The series is sampled on |w| = r at 64 points per coefficient (one
    zero-padded FFT) and the phase steps are summed.  A step larger than
    ``max_step`` (a zero close to the circle) is resampled 64 times finer
    by direct evaluation until no step is that large.
    """
    a = np.asarray(coeffs, dtype=complex) * r ** np.arange(len(coeffs))
    m = 64 * len(a)

    def phase_change(theta, values):
        steps = np.angle(values[1:] / values[:-1])
        total = np.sum(steps)
        for i in np.flatnonzero(np.abs(steps) > max_step):
            if theta[i + 1] - theta[i] < 1e-13:
                raise ValueError("a zero lies on the circle")
            fine = np.linspace(theta[i], theta[i + 1], 65)
            total += phase_change(fine, np.polyval(a[::-1], np.exp(1j * fine)))
            total -= steps[i]
        return total

    values = np.fft.ifft(a, m) * m
    theta = 2.0 * np.pi * np.arange(m + 1) / m
    turns = phase_change(theta, np.append(values, values[0])) / (2.0 * np.pi)
    return int(round(turns))
