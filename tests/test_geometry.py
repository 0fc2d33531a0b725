import numpy as np
import pytest

from astzeros import cayley_to_disk, pseudo_hyperbolic_distance
from helpers import mobius_disk


def _random_halfplane(rng, n):
    return rng.standard_normal(n) * 3 + 1j * np.exp(rng.standard_normal(n))


def _random_disk(rng, n, r=0.95):
    return (np.sqrt(rng.random(n)) * r
            * np.exp(2j * np.pi * rng.random(n)))


def test_cayley_maps_i_to_origin():
    assert cayley_to_disk(1j) == 0


def test_cayley_roundtrip():
    rng = np.random.default_rng(1)
    z = _random_halfplane(rng, 200)
    w = cayley_to_disk(z)
    assert np.all(np.abs(w) < 1)
    # inverse Cayley map z = i (1 + w) / (1 - w)
    assert np.allclose(1j * (1 + w) / (1 - w), z, rtol=1e-12, atol=1e-12)


def test_cayley_rejects_lower_halfplane():
    with pytest.raises(ValueError):
        cayley_to_disk(1.0 - 0.5j)
    with pytest.raises(ValueError):
        cayley_to_disk(2.0 + 0j)


def test_pseudo_distance_to_origin_is_modulus():
    rng = np.random.default_rng(2)
    w = _random_disk(rng, 100)
    assert np.allclose(pseudo_hyperbolic_distance(w, 0.0), np.abs(w))


def test_pseudo_distance_symmetry_and_range():
    rng = np.random.default_rng(3)
    w1 = _random_disk(rng, 100)
    w2 = _random_disk(rng, 100)
    p12 = pseudo_hyperbolic_distance(w1, w2)
    p21 = pseudo_hyperbolic_distance(w2, w1)
    assert np.allclose(p12, p21)
    assert np.all((p12 >= 0) & (p12 < 1))


def test_distances_are_mobius_invariant():
    rng = np.random.default_rng(4)
    w1 = _random_disk(rng, 50)
    w2 = _random_disk(rng, 50)
    a = 0.3 - 0.4j
    m1, m2 = mobius_disk(w1, a, 0.7), mobius_disk(w2, a, 0.7)
    assert np.allclose(
        pseudo_hyperbolic_distance(m1, m2),
        pseudo_hyperbolic_distance(w1, w2),
        rtol=1e-12,
    )
