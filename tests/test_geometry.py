import numpy as np
import pytest

from geopro import geometry as geo
from geopro.errors import ContractError, DegeneracyError, DimensionError, DomainError

from oracles_geometry import grid_min_rmsd, rotation_angle


def test_sphere_point_axis_cases():
    origin = np.zeros(3)
    out = geo.sample_sphere_point(origin, 3.75, np.pi / 2, 0.0)
    assert np.allclose(out, [3.75, 0.0, 0.0], atol=1e-12)
    out = geo.sample_sphere_point(origin, 3.75, 0.0, 1.2345)
    assert np.allclose(out, [0.0, 0.0, 3.75], atol=1e-12)
    out = geo.sample_sphere_point(np.array([1.0, 2.0, 3.0]), 3.75, np.pi / 2, np.pi / 2)
    assert np.allclose(out, [1.0, 5.75, 3.0], atol=1e-12)


def test_sphere_point_radius_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        center = rng.normal(scale=5.0, size=3)
        radius = rng.uniform(0.5, 8.0)
        w1 = rng.uniform(0.0, np.pi)
        w2 = rng.uniform(0.0, 2.0 * np.pi)
        out = geo.sample_sphere_point(center, radius, w1, w2)
        assert abs(np.linalg.norm(out - center) - radius) < 1e-12


def test_sphere_point_rejects_bad_inputs():
    origin = np.zeros(3)
    with pytest.raises(DomainError):
        geo.sample_sphere_point(origin, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        geo.sample_sphere_point(origin, -2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        geo.sample_sphere_point(origin, 1.0, -0.1, 1.0)
    with pytest.raises(DomainError):
        geo.sample_sphere_point(origin, 1.0, 1.0, 7.0)
    with pytest.raises(DimensionError):
        geo.sample_sphere_point(np.zeros(2), 1.0, 1.0, 1.0)


def test_rigid_transform_validation():
    with pytest.raises(ContractError):
        geo.RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(DimensionError):
        geo.RigidTransform(np.eye(4), np.zeros(3))
    with pytest.raises(DimensionError):
        geo.RigidTransform(np.eye(3), np.zeros(2))
    geo.RigidTransform(np.eye(3), np.zeros(3))


def test_random_rigid_orthogonality_and_reflection():
    rng = np.random.default_rng(11)
    for i in range(50):
        t = geo.random_rigid(rng, reflect=(i % 2 == 1))
        gram = t.rotation.T @ t.rotation
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10
        det = np.linalg.det(t.rotation)
        if i % 2 == 1:
            assert abs(det + 1.0) < 1e-10
        else:
            assert abs(det - 1.0) < 1e-10
        assert np.all(np.abs(t.translation) <= 10.0)


def test_random_rigid_mean_rotation_angle():
    # Monte-Carlo check against the known mean angle of a uniformly
    # random 3D rotation, pi/2 + 2/pi radians (about 126.5 degrees).
    rng = np.random.default_rng(23)
    angles = [
        np.degrees(rotation_angle(geo.random_rigid(rng).rotation))
        for _ in range(10_000)
    ]
    assert abs(np.mean(angles) - 126.5) < 2.0


def test_apply_rigid_identity_shift_and_isometry():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(8, 3))
    ident = geo.RigidTransform(np.eye(3), np.zeros(3))
    assert np.array_equal(geo.apply_rigid(ident, pts), pts)

    shift = geo.RigidTransform(np.eye(3), np.ones(3))
    assert np.allclose(geo.apply_rigid(shift, pts), pts + 1.0, atol=1e-15)

    t = geo.random_rigid(rng, reflect=True)
    moved = geo.apply_rigid(t, pts)
    diff_before = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    diff_after = np.linalg.norm(moved[:, None, :] - moved[None, :, :], axis=-1)
    assert np.max(np.abs(diff_before - diff_after)) < 1e-10


def test_kabsch_identical_clouds():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 3))
    transform, value = geo.kabsch(pts, pts)
    assert value < 1e-12
    assert np.allclose(transform.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(transform.translation, np.zeros(3), atol=1e-9)


def test_kabsch_recovers_exact_rigid_copy():
    rng = np.random.default_rng(9)
    pts = rng.normal(scale=2.0, size=(7, 3))
    rot_z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    shift = np.array([5.0, 0.0, 0.0])
    target = pts @ rot_z.T + shift
    transform, value = geo.kabsch(pts, target)
    assert value < 1e-10
    assert np.allclose(transform.rotation, rot_z, atol=1e-9)
    assert np.allclose(transform.translation, shift, atol=1e-9)


def test_kabsch_matches_rotation_grid_brute_force():
    # The grid search can never beat the closed-form optimum, and with
    # a million rotations it must come within 1e-3 of it.
    for seed in (1000, 1007, 1013):
        rng = np.random.default_rng(seed)
        p = rng.normal(scale=0.5, size=(5, 3))
        q = rng.normal(scale=0.5, size=(5, 3))
        _, exact = geo.kabsch(p, q)
        approx = grid_min_rmsd(p, q)
        assert approx >= exact - 1e-9
        assert approx - exact < 1e-3


def test_kabsch_error_contracts():
    rng = np.random.default_rng(13)
    good = rng.normal(size=(5, 3))
    with pytest.raises(ContractError):
        geo.kabsch(good, rng.normal(size=(6, 3)))
    with pytest.raises(ContractError):
        geo.kabsch(good[:2], good[:2])
    line = np.outer(np.arange(5.0), np.array([1.0, 2.0, -0.5]))
    with pytest.raises(DegeneracyError) as err:
        geo.kabsch(line, good)
    assert "rank 1" in str(err.value)
    flat = np.tile(np.array([1.0, 1.0, 1.0]), (5, 1))
    with pytest.raises(DegeneracyError) as err:
        geo.kabsch(good, flat)
    assert "rank 0" in str(err.value)


def test_rigid_copy_and_symmetry_properties():
    rng = np.random.default_rng(17)
    for i in range(20):
        pts = rng.normal(scale=3.0, size=(9, 3))
        t = geo.random_rigid(rng, reflect=(i % 3 == 0))
        copied = geo.apply_rigid(t, pts)
        if np.linalg.det(t.rotation) < 0.0:
            # A mirrored copy is generally not reachable by a proper
            # rotation, so only proper copies must superpose to zero.
            continue
        assert geo.kabsch(pts, copied)[1] < 1e-9

    for _ in range(10):
        p = rng.normal(size=(6, 3))
        q = rng.normal(size=(6, 3))
        assert abs(geo.superposed_rmsd(p, q) - geo.superposed_rmsd(q, p)) < 1e-10


def test_tm_score_identical_structures_is_one():
    rng = np.random.default_rng(19)
    pts = rng.normal(scale=4.0, size=(21, 3))
    assert geo.tm_score(pts, pts, 21) == 1.0


def test_tm_d0_floor_case():
    raw = 1.24 * 6.0 ** (1.0 / 3.0) - 1.8
    assert raw < 0.5
    assert abs(raw - 0.4532) < 5e-4
    assert geo.tm_d0(21) == 0.5
    assert abs(geo.tm_d0(100) - (1.24 * 85.0 ** (1.0 / 3.0) - 1.8)) < 1e-12
    with pytest.raises(DomainError):
        geo.tm_d0(2)


def test_tm_score_constant_distance_closed_form():
    base = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    scaled = 1.3 * base
    # The optimal superposition of a cloud onto its scaled copy is the
    # identity, leaving every pair at distance 0.3 exactly.
    d0 = geo.tm_d0(6)
    expected = 1.0 / (1.0 + (0.3 / d0) ** 2)
    assert abs(geo.tm_score(base, scaled, 6) - expected) < 1e-12


def test_tm_score_rigid_invariance():
    rng = np.random.default_rng(29)
    p = rng.normal(scale=3.0, size=(12, 3))
    q = rng.normal(scale=3.0, size=(12, 3))
    base = geo.tm_score(p, q, 12)
    for _ in range(8):
        # Proper motions only: superposition enforces a proper rotation,
        # so a mirrored structure is genuinely allowed to score lower.
        t = geo.random_rigid(rng)
        assert abs(geo.tm_score(geo.apply_rigid(t, p), q, 12) - base) < 1e-9
        assert abs(geo.tm_score(p, geo.apply_rigid(t, q), 12) - base) < 1e-9


def test_tm_score_length_contract():
    rng = np.random.default_rng(37)
    p = rng.normal(size=(10, 3))
    with pytest.raises(ContractError):
        geo.tm_score(p, p, 11)


def test_coordinate_rmsd_known_value():
    rng = np.random.default_rng(41)
    pts = rng.normal(size=(6, 3))
    shifted = pts + 1.0
    assert abs(geo.coordinate_rmsd(pts, shifted) - np.sqrt(3.0)) < 1e-12
    with pytest.raises(ContractError):
        geo.coordinate_rmsd(pts, pts[:4])
