"""Frame-tagged SE(3) transforms and point clouds."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crossnav.geometry import (
    FrameId,
    FrameMismatch,
    InvalidRotation,
    PointCloud,
    RigidTransform,
    compose,
    invert,
    optical_to_physical,
    rot_x,
    rot_y,
    rot_z,
    transform_points,
)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR, with the det sign fixed to +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_transform(rng, from_frame=FrameId.ROBOT_BASE, to_frame=FrameId.WORLD):
    return RigidTransform(
        random_rotation(rng), rng.normal(scale=3.0, size=3), from_frame, to_frame
    )


class TestRotationHelpers:
    def test_rot_z_quarter_turn(self):
        assert_allclose(rot_z(np.pi / 2) @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_rot_x_quarter_turn(self):
        assert_allclose(rot_x(np.pi / 2) @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], atol=1e-15)

    def test_rot_y_quarter_turn(self):
        # positive pitch tips +x toward -z (right-handed about +y)
        assert_allclose(rot_y(np.pi / 2) @ [1.0, 0.0, 0.0], [0.0, 0.0, -1.0], atol=1e-15)

    @pytest.mark.parametrize("make", [rot_x, rot_y, rot_z])
    def test_proper_rotations(self, make, rng):
        for angle in rng.uniform(-np.pi, np.pi, size=10):
            r = make(angle)
            assert_allclose(r.T @ r, np.eye(3), atol=1e-15)
            assert np.linalg.det(r) == pytest.approx(1.0)


class TestRigidTransformValidation:
    def test_identity(self):
        t = RigidTransform.identity(FrameId.WORLD)
        assert t.from_frame is t.to_frame is FrameId.WORLD
        assert_allclose(t.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidRotation):
            RigidTransform(np.eye(4), np.zeros(3), FrameId.WORLD, FrameId.WORLD)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidRotation):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3), FrameId.WORLD, FrameId.WORLD)

    def test_rejects_reflection(self):
        mirror = np.diag([1.0, 1.0, -1.0])  # orthonormal but det -1
        with pytest.raises(InvalidRotation):
            RigidTransform(mirror, np.zeros(3), FrameId.WORLD, FrameId.WORLD)

    def test_rejects_nan_rotation(self):
        bad = np.eye(3)
        bad[0, 0] = np.nan
        with pytest.raises(InvalidRotation):
            RigidTransform(bad, np.zeros(3), FrameId.WORLD, FrameId.WORLD)

    def test_rejects_non_finite_translation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), np.array([0.0, np.inf, 0.0]), FrameId.WORLD, FrameId.WORLD)


class TestCompose:
    def test_requires_matching_frames(self):
        a = RigidTransform.identity(FrameId.WORLD)
        b = RigidTransform.identity(FrameId.ROBOT_BASE)
        with pytest.raises(FrameMismatch):
            compose(a, b)

    def test_applies_right_transform_first(self, rng):
        b = RigidTransform(rot_z(0.3), np.array([1.0, 0.0, 0.0]),
                           FrameId.ROBOT_BASE, FrameId.PHYSICAL_DOG)
        a = RigidTransform(rot_y(-0.7), np.array([0.0, 2.0, 0.0]),
                           FrameId.PHYSICAL_DOG, FrameId.WORLD)
        ab = compose(a, b)
        assert ab.from_frame is FrameId.ROBOT_BASE
        assert ab.to_frame is FrameId.WORLD
        pts = rng.normal(size=(20, 3))
        assert_allclose(ab.apply(pts), a.apply(b.apply(pts)), atol=1e-12)


class TestInvert:
    def test_swaps_frames(self, rng):
        t = random_transform(rng)
        inv = invert(t)
        assert inv.from_frame is t.to_frame
        assert inv.to_frame is t.from_frame

    def test_round_trip_is_identity(self, rng):
        for _ in range(50):
            t = random_transform(rng)
            eye = compose(invert(t), t)
            assert np.max(np.abs(eye.rotation - np.eye(3))) < 1e-9
            assert np.max(np.abs(eye.translation)) < 1e-9


class TestOpticalConvention:
    def test_axis_mapping(self):
        t = optical_to_physical(FrameId.OPTICAL_DOG)
        # optical forward (+z) is physical forward (+x)
        assert_allclose(t.apply(np.array([0.0, 0.0, 1.0])), [1.0, 0.0, 0.0], atol=1e-15)
        # optical right (+x) is physical right (-y)
        assert_allclose(t.apply(np.array([1.0, 0.0, 0.0])), [0.0, -1.0, 0.0], atol=1e-15)
        # optical down (+y) is physical down (-z)
        assert_allclose(t.apply(np.array([0.0, 1.0, 0.0])), [0.0, 0.0, -1.0], atol=1e-15)

    def test_frame_pairs(self):
        assert optical_to_physical(FrameId.OPTICAL_DOG).to_frame is FrameId.PHYSICAL_DOG
        assert optical_to_physical(FrameId.OPTICAL_HUMAN).to_frame is FrameId.PHYSICAL_HUMAN

    def test_rejects_non_optical_frame(self):
        with pytest.raises(FrameMismatch):
            optical_to_physical(FrameId.WORLD)


class TestPointCloud:
    def test_reshapes_and_counts(self):
        cloud = PointCloud(np.arange(6.0), FrameId.WORLD)
        assert cloud.points.shape == (2, 3)
        assert len(cloud) == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]), FrameId.WORLD)

    def test_empty(self):
        cloud = PointCloud.empty(FrameId.OPTICAL_HUMAN)
        assert len(cloud) == 0 and cloud.frame is FrameId.OPTICAL_HUMAN

    def test_transform_points_checks_frame(self, rng):
        t = random_transform(rng, FrameId.ROBOT_BASE, FrameId.WORLD)
        cloud = PointCloud(rng.normal(size=(5, 3)), FrameId.WORLD)
        with pytest.raises(FrameMismatch):
            transform_points(t, cloud)

    def test_transform_points_round_trip(self, rng):
        t = random_transform(rng, FrameId.ROBOT_BASE, FrameId.WORLD)
        cloud = PointCloud(rng.normal(size=(40, 3)), FrameId.ROBOT_BASE)
        out = transform_points(t, cloud)
        assert out.frame is FrameId.WORLD
        back = transform_points(invert(t), out)
        assert_allclose(back.points, cloud.points, atol=1e-9)


@given(
    angle=st.floats(-np.pi, np.pi, allow_nan=False),
    tx=st.floats(-10.0, 10.0),
    ty=st.floats(-10.0, 10.0),
    px=st.floats(-5.0, 5.0),
    py=st.floats(-5.0, 5.0),
    pz=st.floats(-5.0, 5.0),
)
def test_apply_then_invert_restores_point(angle, tx, ty, px, py, pz):
    t = RigidTransform(rot_z(angle), np.array([tx, ty, 0.0]), FrameId.ROBOT_BASE, FrameId.WORLD)
    p = np.array([px, py, pz])
    assert_allclose(invert(t).apply(t.apply(p)), p, atol=1e-9)
