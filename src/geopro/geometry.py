"""3D rigid-body geometry for backbone work.

Points are float64 numpy arrays: a single point has shape (3,), a point
list has shape (N, 3), with coordinates in Angstrom.  All functions are
pure; the ones that take an ``rng`` expect one ``numpy.random.Generator``
per caller.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegeneracyError, DimensionError, DomainError

_ORTHO_TOL = 1e-10


def _as_points(pts, name):
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DimensionError(
            "%s must be an (N, 3) array of points, got shape %s" % (name, (arr.shape,))
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("%s contains non-finite coordinates" % name)
    return arr


@dataclass
class RigidTransform:
    """A rotation (possibly improper) plus a translation.

    ``rotation`` is a 3x3 orthogonal matrix, ``translation`` a 3-vector.
    Orthogonality is checked on construction.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if self.rotation.shape != (3, 3):
            raise DimensionError(
                "rotation must be 3x3, got shape %s" % (self.rotation.shape,)
            )
        if self.translation.shape != (3,):
            raise DimensionError(
                "translation must be a 3-vector, got shape %s"
                % (self.translation.shape,)
            )
        if not np.all(np.isfinite(self.rotation)) or not np.all(
            np.isfinite(self.translation)
        ):
            raise ContractError("rigid transform has non-finite entries")
        gram = self.rotation.T @ self.rotation
        if np.max(np.abs(gram - np.eye(3))) > _ORTHO_TOL:
            raise ContractError("rotation matrix is not orthogonal")
        det = np.linalg.det(self.rotation)
        if min(abs(det - 1.0), abs(det + 1.0)) > _ORTHO_TOL:
            raise ContractError("rotation matrix determinant must be +1 or -1")


def sample_sphere_point(center, radius, omega1, omega2):
    """Point on the sphere of the given radius around ``center``.

    The two angles parameterize the surface as
    (sin w1 cos w2, sin w1 sin w2, cos w1) scaled by the radius, with
    w1 in [0, pi] and w2 in [0, 2*pi].
    """
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (3,):
        raise DimensionError("center must be a 3-vector, got shape %s" % (center.shape,))
    if radius <= 0.0:
        raise DomainError("radius must be positive, got %r" % radius)
    if not 0.0 <= omega1 <= np.pi:
        raise DomainError("omega1 must lie in [0, pi], got %r" % omega1)
    if not 0.0 <= omega2 <= 2.0 * np.pi:
        raise DomainError("omega2 must lie in [0, 2*pi], got %r" % omega2)
    direction = np.array(
        [
            np.sin(omega1) * np.cos(omega2),
            np.sin(omega1) * np.sin(omega2),
            np.cos(omega1),
        ]
    )
    return center + radius * direction


def _quaternion_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_rigid(rng, reflect=False):
    """Random rigid transform for property tests.

    The rotation is drawn uniformly over the rotation group via a
    normalized Gaussian quaternion; ``reflect=True`` composes a fixed
    mirror so the determinant becomes -1.  The translation is uniform
    in [-10, 10]^3 Angstrom.
    """
    q = rng.normal(size=4)
    while np.linalg.norm(q) < 1e-8:
        q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    rotation = _quaternion_to_matrix(q)
    if reflect:
        rotation = rotation @ np.diag([1.0, 1.0, -1.0])
    translation = rng.uniform(-10.0, 10.0, size=3)
    return RigidTransform(rotation, translation)


def apply_rigid(transform, pts):
    """Map every point p to rotation @ p + translation.

    Accepts any array whose last axis has length 3 and returns an array
    of the same shape.
    """
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] != 3:
        raise DimensionError(
            "points must have a trailing axis of length 3, got shape %s" % (arr.shape,)
        )
    return arr @ transform.rotation.T + transform.translation


def kabsch(mobile, target):
    """Optimal rigid superposition of ``mobile`` onto ``target``.

    Returns ``(transform, rmsd)`` where the transform minimizes the sum
    of squared distances between mapped mobile points and the target,
    and ``rmsd`` is the minimized root-mean-square deviation.  The
    rotation is forced proper (determinant +1) by flipping the sign of
    the smallest singular direction when needed.
    """
    p = _as_points(mobile, "mobile")
    q = _as_points(target, "target")
    if p.shape[0] != q.shape[0]:
        raise ContractError(
            "point lists must have equal length, got %d and %d"
            % (p.shape[0], q.shape[0])
        )
    if p.shape[0] < 3:
        raise ContractError("superposition needs at least 3 points, got %d" % p.shape[0])
    p_center = p.mean(axis=0)
    q_center = q.mean(axis=0)
    p_c = p - p_center
    q_c = q - q_center
    for name, centered in (("mobile", p_c), ("target", q_c)):
        rank = int(np.linalg.matrix_rank(centered))
        if rank < 2:
            raise DegeneracyError(
                "%s point cloud is degenerate with rank %d; "
                "superposition needs rank 2 or higher" % (name, rank)
            )
    cross = p_c.T @ q_c
    u, _, vt = np.linalg.svd(cross)
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    correction = np.diag([1.0, 1.0, sign])
    rotation = vt.T @ correction @ u.T
    translation = q_center - rotation @ p_center
    moved = p_c @ rotation.T
    value = float(np.sqrt(np.mean(np.sum((moved - q_c) ** 2, axis=1))))
    return RigidTransform(rotation, translation), value


def superposed_rmsd(mobile, target):
    """RMSD after optimal rigid superposition."""
    return kabsch(mobile, target)[1]


def coordinate_rmsd(pts_a, pts_b):
    """RMSD in the shared frame, without any superposition."""
    a = _as_points(pts_a, "pts_a")
    b = _as_points(pts_b, "pts_b")
    if a.shape[0] != b.shape[0]:
        raise ContractError(
            "point lists must have equal length, got %d and %d"
            % (a.shape[0], b.shape[0])
        )
    if a.shape[0] == 0:
        raise ContractError("point lists must be non-empty")
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


def tm_d0(l_target):
    """Distance scale d0 for the similarity score, floored at 0.5."""
    if l_target < 3:
        raise DomainError("l_target must be at least 3, got %r" % l_target)
    return float(max(0.5, 1.24 * np.cbrt(l_target - 15.0) - 1.8))


def tm_score(mobile, target, l_target):
    """Length-normalized structure similarity in (0, 1].

    Superposes ``mobile`` onto ``target`` once and averages
    1 / (1 + (d_i / d0)^2) over all positions.
    """
    p = _as_points(mobile, "mobile")
    q = _as_points(target, "target")
    if p.shape[0] != l_target or q.shape[0] != l_target:
        raise ContractError(
            "expected %d points in both structures, got %d and %d"
            % (l_target, p.shape[0], q.shape[0])
        )
    d0 = tm_d0(l_target)
    transform, _ = kabsch(p, q)
    dists = np.linalg.norm(apply_rigid(transform, p) - q, axis=1)
    return float(np.mean(1.0 / (1.0 + (dists / d0) ** 2)))
