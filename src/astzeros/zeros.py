"""Zero localization on the transform grid and mapping to the disk.

A grid cell is a zero when its modulus is strictly below the modulus at
all eight neighbors.  Guard margins drop border cells, a configurable
number of extreme frequency channels, and time columns where a channel's
window support reaches past the signal edges.
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
    # For the physical convention the white-noise variance of a channel
    # grows like xi^(alpha+1), a deterministic ~2^(alpha/2)-per-octave ramp
    # that would swamp the cross-channel minimum test.  Dividing each
    # channel by its standard-deviation scale is a positive per-channel
    # rescaling: it moves no zero but makes moduli comparable between
    # neighboring channels.  Comparisons are done on log-modulus so the
    # rescaling never under- or overflows.
    with np.errstate(divide="ignore"):
        a = np.log(np.abs(S.values))
    if S.convention == "physical":
        alpha = 2.0 * S.params.beta + 1.0
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
    return ZeroSet(jj, mm, zx, zxi, np.atleast_1d(w))
