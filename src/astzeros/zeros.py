"""Zero localization on the transform grid and mapping to the disk.

A grid cell is a zero when its modulus is strictly below the modulus at
all eight neighbors.  Guard margins drop border cells, a configurable
number of extreme frequency channels, and time columns where a channel's
window support reaches past the signal edges.

Detection runs in two passes.  A candidate pass keeps the cells whose
modulus is strictly below both time neighbors in the same channel: two
comparisons over the grid, which leave about 4% of the cells of white
noise.  The exact 8-neighbor test on the per-channel rescaled
log-modulus then runs on the candidates only.  Within a channel that
test is monotone in the modulus, so it cannot pass a cell the candidate
pass dropped, and the zero set equals the full-grid test's bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import cayley_to_disk
from .transform import TFMatrix


@dataclass(frozen=True)
class GuardSpec:
    """Edge-guard configuration for zero detection.

    ``border_cells``: cells dropped on every grid edge (minimum 1 — the
    minimum rule needs a full neighborhood).
    ``freq_channels``: extra channels dropped at each frequency extreme.
    ``envelope_tol``: per-channel time margin covers the region where the
    window envelope exceeds this fraction of its peak; None disables the
    time margin (appropriate when the signal is treated as periodic).
    """

    border_cells: int = 1
    freq_channels: int = 2
    envelope_tol: float = 1e-4

    def __post_init__(self):
        if self.border_cells < 1:
            raise ValueError("at least one border cell must be guarded")
        if self.freq_channels < 0:
            raise ValueError("freq_channels must be nonnegative")


@dataclass(frozen=True)
class ZeroSet:
    """Zeros as grid indices, physical coordinates, and disk points."""

    j: np.ndarray
    m: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    w: np.ndarray

    def __len__(self):
        return len(self.j)


def time_guard_margin(xi: float, beta: float, envelope_tol: float) -> float:
    """Half-width (seconds) where the window envelope |1 + i u|^-(beta+1)
    at channel xi exceeds ``envelope_tol`` of its peak."""
    u = np.sqrt(envelope_tol ** (-2.0 / (beta + 1.0)) - 1.0)
    return u / xi


def detect_zeros(S: TFMatrix, guard: GuardSpec = GuardSpec()) -> ZeroSet:
    n, n_ch = S.values.shape
    if n < 3 or n_ch < 3:
        raise ValueError("grid too small for neighbor comparison")
    # Candidates: cells inside the border guard whose modulus is strictly
    # below both time neighbors in the same channel.  The exact test below
    # compares a monotone function of |S| within each channel, so every
    # cell that passes it is a candidate.
    b = guard.border_cells
    g = max(b, guard.freq_channels)
    A = np.abs(S.values)
    rows = A[b:n - b]
    cand = (rows < A[b - 1:n - b - 1]) & (rows < A[b + 1:n - b + 1])
    f = np.flatnonzero(cand) + b * n_ch
    mm = f % n_ch
    inside = (mm >= g) & (mm < n_ch - g)
    f, mm = f[inside], mm[inside]

    x = S.time_grid.nodes()
    xis = S.freq_grid.channels()
    if guard.envelope_tol is not None:
        margin = time_guard_margin(xis, S.params.beta, guard.envelope_tol)
        xj, mg = x[f // n_ch], margin[mm]
        edge = (xj < S.time_grid.x_min + mg) | (xj > S.time_grid.x_max - mg)
        f, mm = f[~edge], mm[~edge]

    # Exact test on the candidates: strictly below all eight neighbors in
    # log-modulus, one neighbor at a time, dropping a candidate at its
    # first failure.  For the physical convention the white-noise variance
    # of a channel grows like xi^(alpha+1), a deterministic
    # ~2^(alpha/2)-per-octave ramp that would swamp the cross-channel
    # comparison.  Dividing each channel by its standard-deviation scale is
    # a positive per-channel rescaling: it moves no zero but makes moduli
    # comparable between neighboring channels.  Working on log-modulus
    # keeps the rescaling from under- or overflowing.
    shift = np.zeros(n_ch)
    if S.convention == "physical":
        alpha = 2.0 * S.params.beta + 1.0
        shift = 0.5 * (alpha + 1.0) * np.log(xis)
    flat = A.ravel()
    with np.errstate(divide="ignore"):
        a = np.log(flat[f]) - shift[mm]
        for dj, dm in ((0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1),
                       (-1, 0), (1, 0)):
            lower = a < np.log(flat[f + dj * n_ch + dm]) - shift[mm + dm]
            f, mm, a = f[lower], mm[lower], a[lower]

    jj = f // n_ch
    order = np.lexsort((jj, mm))
    jj, mm = jj[order], mm[order]
    zx = x[jj]
    zxi = xis[mm]
    w = cayley_to_disk(zx + 1j / zxi)
    return ZeroSet(jj, mm, zx, zxi, np.atleast_1d(w))
