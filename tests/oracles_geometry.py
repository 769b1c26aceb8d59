"""Brute-force superposition oracle and rotation angle used by the
geometry tests.

Independent of the package under test: rotations come from a
deterministic low-discrepancy quaternion grid, and the best RMSD over
the grid is found by exhaustive evaluation with the optimal centroid
translation folded in analytically.
"""

from functools import lru_cache

import numpy as np

_PHI = np.sqrt(2.0)
_PSI = 1.533751168755204288118041


def super_fibonacci_quaternions(n):
    """Deterministic near-uniform covering of the unit quaternions."""
    s = np.arange(n, dtype=np.float64) + 0.5
    t = s / n
    r = np.sqrt(t)
    big_r = np.sqrt(1.0 - t)
    alpha = 2.0 * np.pi * s / _PHI
    beta = 2.0 * np.pi * s / _PSI
    return np.stack(
        [r * np.sin(alpha), r * np.cos(alpha), big_r * np.sin(beta), big_r * np.cos(beta)],
        axis=1,
    )


def quaternions_to_matrices(q):
    """Vectorized unit-quaternion (w, x, y, z) to rotation matrices."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((q.shape[0], 3, 3), dtype=np.float64)
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


@lru_cache(maxsize=1)
def rotation_grid(n=1_000_000):
    return quaternions_to_matrices(super_fibonacci_quaternions(n))


def grid_min_rmsd(p, q, n=1_000_000):
    """Smallest RMSD over the n-rotation grid, optimal translation each.

    For a fixed rotation the optimal translation aligns the centroids,
    so the search reduces to centered clouds; the per-rotation squared
    error is then a constant minus a trace term, evaluated for every
    grid rotation at once.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    p_c = p - p.mean(axis=0)
    q_c = q - q.mean(axis=0)
    count = p.shape[0]
    const = np.sum(p_c * p_c) / count + np.sum(q_c * q_c) / count
    cross = p_c.T @ q_c
    rots = rotation_grid(n)
    trace_terms = np.einsum("rab,ba->r", rots, cross)
    sq = const - (2.0 / count) * trace_terms
    return float(np.sqrt(max(0.0, float(sq.min()))))


def rotation_angle(rotation):
    """Rotation angle in radians recovered from the matrix trace."""
    cos_theta = (np.trace(rotation) - 1.0) / 2.0
    return float(np.arccos(np.clip(cos_theta, -1.0, 1.0)))
