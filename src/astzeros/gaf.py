"""Hyperbolic Gaussian analytic function: truncated sampling, certified
zero extraction, and closed-form first- and second-order statistics.

The random series sum_n zeta_n sqrt(Gamma(alpha+n)/n!) w^n is sampled as a
polynomial of configurable truncation order.  Coefficient magnitudes are
stored with a single global log-amplitude scale so that any alpha up to
several hundred fits in doubles; zeros are invariant under that scale.

All zeros of the truncated series are found at once by Aberth-Ehrlich
iteration started on the Newton polygon, and the set kept in the disk is
certified complete by the argument principle (see ``gaf_zeros``).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


@dataclass(frozen=True)
class GafSample:
    alpha: float
    truncation: int
    log_amp_scale: float
    coeffs: np.ndarray  # scaled: coeffs[n] * exp(log_amp_scale) is physical
    seed: object = None

    def __post_init__(self):
        if len(self.coeffs) != self.truncation:
            raise ValueError("coefficient count must equal truncation order")


def _log_sigma(alpha: float, n: np.ndarray) -> np.ndarray:
    """log of the coefficient standard deviation sqrt(Gamma(alpha+n)/n!)."""
    return 0.5 * (gammaln(alpha + n) - gammaln(n + 1.0))


def truncation_order(alpha: float, r_max: float, rel_tol: float = 1e-8) -> int:
    """Smallest order N such that the tail standard deviation at radius
    r_max is below rel_tol times the full-series standard deviation.

    The full variance at radius r is Gamma(alpha) / (1 - r^2)^alpha; the
    tail is bounded by a geometric series once the term ratio
    (alpha+n)/(n+1) * r^2 drops below one.
    """
    if not (0 < r_max < 1):
        raise ValueError("r_max must be in (0, 1)")
    log_total = gammaln(alpha) - alpha * np.log1p(-r_max ** 2)
    log_target = log_total + 2.0 * np.log(rel_tol)
    n = max(8, int(alpha * r_max ** 2 / (1.0 - r_max ** 2)))
    while True:
        ratio = (alpha + n) / (n + 1.0) * r_max ** 2
        if ratio < 1.0:
            log_term = 2.0 * _log_sigma(alpha, np.array(n))[()] \
                + 2.0 * n * np.log(r_max)
            log_tail = log_term - np.log1p(-ratio)
            if log_tail < log_target:
                return n + 1
        n = n + max(1, n // 8)


def sample_gaf(alpha: float, truncation: int, seed) -> GafSample:
    if alpha <= 0 or truncation < 1:
        raise ValueError("need alpha > 0 and truncation >= 1")
    rng = np.random.default_rng(seed)
    n = np.arange(truncation)
    zeta = (rng.standard_normal(truncation)
            + 1j * rng.standard_normal(truncation)) / np.sqrt(2.0)
    log_sig = _log_sigma(alpha, n)
    scale = float(np.max(log_sig))
    coeffs = zeta * np.exp(log_sig - scale)
    return GafSample(alpha, truncation, scale, coeffs, seed)


_EPS = np.finfo(float).eps


def _horner(c: np.ndarray, z: np.ndarray):
    """p(z), p'(z) and sum_n |c_n| |z|^n for p(z) = sum_n c_n z^n."""
    p = np.full(z.shape, c[-1], dtype=complex)
    dp = np.zeros_like(p)
    s = np.full(z.shape, abs(c[-1]))
    az = np.abs(z)
    for cn, an in zip(c[-2::-1], np.abs(c[-2::-1])):
        dp = dp * z + p
        p = p * z + cn
        s = s * az + an
    return p, dp, s


def _newton_ratio(c: np.ndarray, w: np.ndarray):
    """Newton correction p(w)/p'(w) and relative residual
    |p(w)| / sum_n |c_n| |w|^n at each w.

    Horner runs on p where |w| <= 1 and on the reversed polynomial
    q(v) = v^d p(1/v) at v = 1/w elsewhere, so no power of a modulus above
    one is formed; p/p' = w q / (d q - v q').
    """
    ratio = np.empty(w.shape, dtype=complex)
    res = np.empty(w.shape)
    inside = np.abs(w) <= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if inside.any():
            p, dp, s = _horner(c, w[inside])
            ratio[inside] = p / dp
            res[inside] = np.abs(p) / s
        if not inside.all():
            wo = w[~inside]
            v = 1.0 / wo
            q, dq, s = _horner(c[::-1], v)
            ratio[~inside] = wo * q / ((len(c) - 1) * q - v * dq)
            res[~inside] = np.abs(q) / s
    return ratio, res


def _start_points(c: np.ndarray) -> np.ndarray:
    """Aberth start points from the Newton polygon (Bini 1996).

    Each edge (i, j) of the upper convex hull of (n, log|c_n|) carries
    j - i roots of modulus about (|c_i| / |c_j|)^(1/(j-i)); they are spread
    evenly on that circle, with an offset that differs between edges.
    """
    d = len(c) - 1
    with np.errstate(divide="ignore"):
        logc = np.log(np.abs(c)).tolist()
    hull = [0]
    for n in range(1, d + 1):
        if logc[n] == -np.inf:
            continue
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (logc[j] - logc[i]) * (n - i) > (logc[n] - logc[i]) * (j - i):
                break
            hull.pop()  # j lies on or below the chord from i to n
        hull.append(n)
    starts = []
    for i, j in zip(hull[:-1], hull[1:]):
        k = j - i
        radius = np.exp((logc[i] - logc[j]) / k)
        angle = 2.0 * np.pi * (np.arange(k) / k + i / d) + 0.7
        starts.append(radius * np.exp(1j * angle))
    return np.concatenate(starts)


def _aberth(c: np.ndarray) -> np.ndarray:
    """All d roots of sum c_n w^n (c_0 and c_d nonzero) by Aberth-Ehrlich
    iteration.  A root stops moving once its relative residual is at the
    rounding level of Horner's rule, 2 d eps; the iteration runs until
    every root has done so.  From Newton-polygon starts that takes 12-22
    sweeps up to degree 1420; the cap of 200 only bounds the time spent
    before the certificate in gaf_zeros rejects a set that did not
    converge."""
    d = len(c) - 1
    w = _start_points(c)
    active = np.arange(d)
    for _ in range(200):
        ratio, res = _newton_ratio(c, w[active])
        moving = ~(res <= 2 * d * _EPS)
        active, ratio = active[moving], ratio[moving]
        if len(active) == 0:
            break
        diff = w[active, None] - w[None, :]
        diff[np.arange(len(active)), active] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            step = ratio / (1.0 - ratio * np.sum(1.0 / diff, axis=1))
        w[active] -= np.where(np.isfinite(step), step, 0.0)
    return w


def _winding_number(c: np.ndarray, r: float):
    """Number of zeros of sum c_n w^n in |w| < r by the argument principle,
    or None when a zero lies on the circle to rounding.

    The circle is sampled by FFT.  With a_n = c_n r^n, the value at angle
    theta + t differs from p(theta) by at most t |p_theta(theta)| +
    t^2 M2 / 2, M2 = sum n^2 |a_n|.  An arc over which that bound (plus the
    evaluation error) stays below |p(theta)| is mapped into a disk that
    excludes 0, so its phase change is the principal angle between its end
    values; every other arc is split in 16 and tested again.
    """
    d = len(c) - 1
    n = np.arange(d + 1)
    a = c * r ** n
    scale = np.sum(np.abs(a))
    m2 = np.sum(n ** 2 * np.abs(a))
    m = 1 << int(np.ceil(np.log2(64 * (d + 1))))
    err = (2 * (d + 1) + np.sqrt(m) * np.log2(m)) * _EPS * scale
    p = np.fft.ifft(a, m) * m
    dp = np.fft.ifft(1j * n * a, m) * m  # d/dtheta
    h = 2.0 * np.pi / m
    t0 = h * np.arange(m)
    p0, dp0, p1 = p, dp, np.roll(p, -1)
    turns = 0.0
    while True:
        ok = np.abs(p0) > h * np.abs(dp0) + 0.5 * h * h * m2 + 2.0 * err
        turns += np.sum(np.angle(p1[ok] / p0[ok]))
        if ok.all():
            break
        t0, p0, dp0, p1 = t0[~ok], p0[~ok], dp0[~ok], p1[~ok]
        h /= 16
        if h < 1e-14 or np.any(np.abs(p0) <= 2.0 * err):
            return None  # no finer sampling can pass the test
        t = t0[:, None] + h * np.arange(1, 16)
        z = np.exp(1j * t)
        pz, dpz, _ = _horner(a, z)
        pz, dpz = np.c_[p0, pz], np.c_[dp0, 1j * z * dpz]
        t0, p0, dp0 = np.c_[t0, t].ravel(), pz.ravel(), dpz.ravel()
        p1 = np.c_[pz[:, 1:], p1].ravel()
    k = turns / (2.0 * np.pi)
    return int(round(k)) if abs(k - round(k)) < 0.25 else None


def gaf_zeros(g: GafSample, r_max: float,
              residual_tol: float = 1e-8) -> np.ndarray:
    """Zeros of the truncated series with |w| <= r_max, complete and
    certified, sorted by modulus.

    Zero low-order coefficients give exact roots at the origin and are
    deflated; zero top coefficients lower the degree d.  All d remaining
    roots are found at once by Aberth-Ehrlich iteration started on the
    Newton polygon (Bini 1996; Bini & Robol 2014, MPSolve).  Each root is
    iterated until its own relative residual reaches the rounding level;
    p/p' is evaluated by Horner's rule where |w| <= 1 and on the reversed
    polynomial elsewhere, so coefficients spanning hundreds of orders of
    magnitude neither overflow nor need rescaling.  No BLAS or LAPACK call
    is made, so the result does not depend on the thread count.

    The roots with |w| <= r_max are Newton-polished and kept.  The set is
    then certified:

    - every kept root passes the relative residual test
      |p(w)| / sum_n |c_n| |w|^n < residual_tol;
    - the inclusion disks |z - w| <= d |p(w)/p'(w)| (widened by the
      evaluation error) of the kept roots are pairwise disjoint and lie
      inside |w| < r_max, so each holds a distinct zero;
    - their number equals the winding number of the series on
      |w| = r_max.

    If any of these fails, ArithmeticError is raised naming the returned
    and the certified count, alpha, the degree and r_max; an incomplete
    set is never returned.
    """
    if not (0 < r_max < 1):
        raise ValueError("r_max must be in (0, 1)")
    c = np.asarray(g.coeffs, dtype=complex)
    nonzero = np.flatnonzero(c)
    if len(nonzero) == 0:
        raise ValueError("zero polynomial has no isolated zeros")
    at_origin = np.zeros(nonzero[0], dtype=complex)
    c = c[nonzero[0]:nonzero[-1] + 1]
    d = len(c) - 1
    if d == 0:
        return at_origin
    w = _aberth(c)
    w = w[np.abs(w) <= r_max]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            p, dp, _ = _horner(c, w)
            w = w - np.where(dp != 0, p / dp, 0.0)
        w = w[np.abs(w) <= r_max]
        p, dp, s = _horner(c, w)
        res = np.abs(p) / s
        radius = d * (np.abs(p) + 2 * d * _EPS * s) / np.abs(dp)
    problems = []
    if np.any(~(res < residual_tol)):
        problems.append(f"worst relative residual {np.max(res):.2e} "
                        f"(tol {residual_tol:.0e})")
    if np.any(~(np.abs(w) + radius < r_max)):
        problems.append("an inclusion disk crosses |w| = r_max")
    if len(w) > 1:
        gap = np.abs(w[:, None] - w[None, :]) - radius[:, None] \
            - radius[None, :]
        np.fill_diagonal(gap, np.inf)
        if np.any(~(gap > 0)):
            problems.append("inclusion disks overlap")
    certified = _winding_number(c, r_max)
    if certified is None:
        problems.append("winding number undecided")
    elif certified != len(w):
        problems.append("count differs from the winding number")
    if problems:
        n0 = len(at_origin)
        shown = "undecided" if certified is None else certified + n0
        raise ArithmeticError(
            f"gaf_zeros: {len(w) + n0} roots returned, {shown} certified "
            f"(alpha={g.alpha:g}, degree {d + n0}, r_max={r_max:g}): "
            + "; ".join(problems)
        )
    w = w[np.argsort(np.abs(w), kind="stable")]
    return np.concatenate([at_origin, w])


def expected_count(alpha: float, r: float) -> float:
    """Expected number of zeros in a pseudo-hyperbolic disk of radius r:
    the intensity anchor, free of any metric normalization."""
    return alpha * r ** 2 / (1.0 - r ** 2)


def theoretical_pair_correlation(alpha: float, r):
    """Closed-form pair correlation at pseudo-hyperbolic distance r.

    With s = 1 - r^2 and q = 1 - s^alpha:

        g(r) = [ s^alpha (alpha(1-s) - s q)^2 + (alpha s^alpha (1-s) - q)^2 ] / q^3

    q is evaluated as -expm1(alpha log s) so the r -> 0 limit is stable.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    r = np.asarray(r, dtype=float)
    if np.any((r <= 0) | (r >= 1)):
        raise ValueError("r must lie in (0, 1)")
    log_s = np.log1p(-r ** 2)
    s = np.exp(log_s)
    s_a = np.exp(alpha * log_s)
    q = -np.expm1(alpha * log_s)
    num = s_a * (alpha * (1.0 - s) - s * q) ** 2 \
        + (alpha * s_a * (1.0 - s) - q) ** 2
    out = num / q ** 3
    return out[()] if out.ndim == 0 else out
