"""Empirical spatial statistics of disk point sets: first intensity and the
edge-corrected pair correlation estimator.

Edge correction is of the reduced-sample kind: pair counting is averaged
only over "inner" centers whose full interaction ring lies inside the
observation window, while every in-window point may serve as a neighbor.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (
    MetricConvention,
    cayley_to_disk,
    hyperbolic_disk_area,
    hyperbolic_distance,
    pseudo_hyperbolic_distance,
)


@dataclass(frozen=True)
class ObservationWindow:
    """Window represented by a densified boundary polyline in the disk."""

    boundary: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundary, dtype=complex)
        if b.size == 0:
            raise ValueError("window boundary is empty")
        if np.any(np.abs(b) >= 1.0):
            raise ValueError("boundary must lie inside the unit disk")
        object.__setattr__(self, "boundary", b)

    @classmethod
    def from_disk(cls, radius: float, n_points: int = 1024):
        """Centered disk of pseudo-hyperbolic radius ``radius``."""
        if not (0 < radius < 1):
            raise ValueError("radius must be in (0, 1)")
        t = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
        return cls(radius * np.exp(1j * t))

    @classmethod
    def from_halfplane_rect(cls, x_min, x_max, y_min, y_max,
                            points_per_side: int = 256,
                            periodic_x: bool = False):
        """Cayley image of the rectangle [x_min, x_max] x [y_min, y_max]
        in (time, scale) coordinates.

        With ``periodic_x`` the signal is treated as time-periodic, so the
        left/right sides are not real boundaries: only the top and bottom
        sides (scale extremes) are densified.
        """
        if not (x_max > x_min and y_max > y_min > 0):
            raise ValueError("degenerate rectangle")
        xs = np.linspace(x_min, x_max, points_per_side)
        ys = np.linspace(y_min, y_max, points_per_side)
        sides = [xs + 1j * y_min, xs + 1j * y_max]
        if not periodic_x:
            sides += [x_min + 1j * ys, x_max + 1j * ys]
        return cls(cayley_to_disk(np.concatenate(sides)))


@dataclass(frozen=True)
class RadialStats:
    """Binned pair-correlation estimate on pseudo-hyperbolic radii."""

    r_bins: np.ndarray
    g_values: np.ndarray
    n_pairs: np.ndarray
    h: float
    n_centers: int

    def __post_init__(self):
        r = np.asarray(self.r_bins, dtype=float)
        if np.any(np.diff(r) <= 0):
            raise ValueError("r_bins must be strictly increasing")
        if np.any((r <= 0) | (r >= 1)):
            raise ValueError("r_bins must lie in (0, 1)")
        object.__setattr__(self, "r_bins", r)


def radial_bins(r_min: float, r_max: float, r_step: float, h: float,
                r_guard: float):
    """Bin radii r_min, r_min + r_step, ... through r_max (the step count
    rounded to the nearest integer), and the inner-center guard radius:
    ``r_guard`` when positive, else r_max + h/2, the reach of the last
    bin's ring."""
    n = int(np.floor((r_max - r_min) / r_step + 0.5)) + 1
    guard = r_guard if r_guard > 0 else r_max + h / 2
    return r_min + r_step * np.arange(n), guard


def classify_inner(points, win: ObservationWindow, r_guard: float):
    """Mask of points whose minimum pseudo-hyperbolic distance to the
    densified window boundary exceeds r_guard."""
    if not (0 < r_guard < 1):
        raise ValueError("r_guard must be in (0, 1)")
    points = np.asarray(points, dtype=complex)
    if points.size == 0:
        return np.zeros(0, dtype=bool)
    d = pseudo_hyperbolic_distance(
        points[:, None], win.boundary[None, :]
    )
    return np.min(d, axis=1) > r_guard


def estimate_intensity(points, center, r_prime: float,
                       convention=MetricConvention.FACTOR4) -> float:
    """Point count within hyperbolic distance r_prime of ``center``,
    divided by the hyperbolic disk area of the chosen convention."""
    if r_prime <= 0:
        raise ValueError("r_prime must be positive")
    points = np.asarray(points, dtype=complex)
    if points.size == 0:
        return 0.0
    count = np.count_nonzero(
        hyperbolic_distance(points, center) < r_prime
    )
    return count / hyperbolic_disk_area(r_prime, convention)


def estimate_pair_correlation(points, inner_mask, r_bins, h: float,
                              alpha: float) -> RadialStats:
    """Edge-corrected pair correlation estimate.

    For each bin radius r, ordered pairs (z, w) with z an inner center,
    w any other point, and |p(z, w) - r| < h/2 are counted and divided by
    the number of centers and by the expected Poisson pair count per
    center,

        g_hat(r) = (1 - r^2)^2 / (2 alpha h r n_c) * pair_count(r),

    the constant fixed by intensity-times-ring-area under either metric
    convention and validated against Poisson and analytic oracles.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    points = np.asarray(points, dtype=complex)
    r_bins = np.asarray(r_bins, dtype=float)
    if np.any((r_bins <= h / 2) | (r_bins >= 1 - h / 2)):
        raise ValueError("bins must lie within (h/2, 1 - h/2)")
    inner_mask = np.asarray(inner_mask, dtype=bool)
    if inner_mask.shape != points.shape:
        raise ValueError("mask length must match points")
    n_c = int(np.count_nonzero(inner_mask))
    if n_c == 0:
        raise ValueError("no inner centers: window too small for the guard")
    centers = points[inner_mask]
    d = pseudo_hyperbolic_distance(centers[:, None], points[None, :])
    # remove self-pairs: each center is also one of the points
    self_col = np.nonzero(inner_mask)[0]
    d[np.arange(n_c), self_col] = np.inf
    n_pairs = np.array(
        [np.count_nonzero(np.abs(d - r) < h / 2) for r in r_bins]
    )
    norm = (1.0 - r_bins ** 2) ** 2 / (2.0 * alpha * h * r_bins * n_c)
    return RadialStats(r_bins, norm * n_pairs, n_pairs, h, n_c)
