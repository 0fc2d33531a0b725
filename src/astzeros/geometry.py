"""Poincare disk model: the Cayley map and the pseudo-hyperbolic distance.

All functions accept scalars or numpy arrays and broadcast elementwise.
Half-plane points are complex numbers x + i*y with y > 0, disk points are
complex numbers of modulus < 1.
"""

import numpy as np


def cayley_to_disk(z):
    """Map the upper half-plane to the unit disk, w = (z - i)/(z + i)."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("point not in the upper half-plane (requires Im z > 0)")
    w = (z - 1j) / (z + 1j)
    return w[()] if w.ndim == 0 else w


def pseudo_hyperbolic_distance(w1, w2):
    """p(w1, w2) = |w1 - w2| / |1 - conj(w2)*w1|, in [0, 1) on the disk."""
    w1 = np.asarray(w1, dtype=complex)
    w2 = np.asarray(w2, dtype=complex)
    p = np.abs(w1 - w2) / np.abs(1.0 - np.conj(w2) * w1)
    return p[()] if p.ndim == 0 else p
