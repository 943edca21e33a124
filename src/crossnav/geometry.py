"""SE(3) rigid transforms with runtime frame checking.

Frame conventions:
- Physical frames: x forward, y left, z up.
- Optical frames: x right (image u), y down (image v), z forward.

A ``RigidTransform`` maps coordinates expressed in ``from_frame`` into
``to_frame``: ``p_to = R @ p_from + t``. Composition reads right to left,
so ``compose(a, b)`` applies ``b`` first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

ORTHONORMALITY_TOL = 1e-9


class FrameId(Enum):
    WORLD = "world"
    ROBOT_BASE = "robot_base"
    PHYSICAL_DOG = "physical_dog"
    OPTICAL_DOG = "optical_dog"
    PHYSICAL_HUMAN = "physical_human"
    OPTICAL_HUMAN = "optical_human"


#: optical frame -> the physical frame of the same sensor
OPTICAL_PHYSICAL_PAIRS = {
    FrameId.OPTICAL_DOG: FrameId.PHYSICAL_DOG,
    FrameId.OPTICAL_HUMAN: FrameId.PHYSICAL_HUMAN,
}


class FrameMismatch(Exception):
    """Raised when an operation chains transforms or clouds across frames."""


class InvalidRotation(Exception):
    """Raised when a rotation matrix is not orthonormal with det +1."""


_EYE3 = np.eye(3)


def _check_rotation(rotation: np.ndarray) -> np.ndarray:
    rotation = np.asarray(rotation, dtype=np.float64)
    if rotation.shape != (3, 3):
        raise InvalidRotation(f"rotation must be 3x3, got {rotation.shape}")
    err = np.max(np.abs(rotation.T @ rotation - _EYE3))
    if not err <= ORTHONORMALITY_TOL:  # NaN-safe: comparisons with NaN are False
        raise InvalidRotation(f"rotation not orthonormal (max error {err:.3e})")
    # 3x3 determinant by cofactor expansion; this runs on every pose update
    # and np.linalg.det's LAPACK round trip doubles the cost of the check
    (a, b, c), (d, e, f), (g, h, i) = rotation.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not abs(det - 1.0) <= ORTHONORMALITY_TOL:
        raise InvalidRotation(f"rotation determinant {det!r} != +1")
    return rotation


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose tagged with source and target frames.

    ``stamp`` is simulation time in seconds; static extrinsics leave it None.
    """

    rotation: np.ndarray
    translation: np.ndarray
    from_frame: FrameId
    to_frame: FrameId
    stamp: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "rotation", _check_rotation(self.rotation))
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls, frame: FrameId, stamp: Optional[float] = None) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3), frame, frame, stamp)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map (N, 3) or (3,) coordinates from ``from_frame`` into ``to_frame``."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Chain two transforms: the result applies ``b`` first, then ``a``.

    Requires ``a.from_frame == b.to_frame``; maps ``b.from_frame`` into
    ``a.to_frame``.
    """
    if a.from_frame != b.to_frame:
        raise FrameMismatch(
            f"cannot compose: left consumes {a.from_frame.value}, "
            f"right produces {b.to_frame.value}"
        )
    stamp = a.stamp if a.stamp is not None else b.stamp
    return RigidTransform(
        a.rotation @ b.rotation,
        a.rotation @ b.translation + a.translation,
        b.from_frame,
        a.to_frame,
        stamp,
    )


def invert(t: RigidTransform) -> RigidTransform:
    """Inverse transform: swapped frames, R.T, -R.T @ t."""
    rot_inv = t.rotation.T
    return RigidTransform(rot_inv, -rot_inv @ t.translation, t.to_frame, t.from_frame, t.stamp)


def optical_to_physical(optical_frame: FrameId = FrameId.OPTICAL_DOG) -> RigidTransform:
    """Fixed optical-to-physical rotation for a sensor.

    Maps optical axes (x right, y down, z forward) onto physical axes
    (x forward, y left, z up): a pure rotation, identical for both sensors.
    """
    if optical_frame not in OPTICAL_PHYSICAL_PAIRS:
        raise FrameMismatch(f"{optical_frame.value} is not an optical frame")
    rotation = np.array(
        [
            [0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
        ]
    )
    return RigidTransform(rotation, np.zeros(3), optical_frame, OPTICAL_PHYSICAL_PAIRS[optical_frame])


@dataclass(frozen=True)
class PointCloud:
    """Metric 3D points tagged with the frame they are expressed in."""

    points: np.ndarray  # (N, 3) float64
    frame: FrameId
    stamp: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empty(cls, frame: FrameId, stamp: float = 0.0) -> "PointCloud":
        return cls(np.zeros((0, 3)), frame, stamp)


def transform_points(t: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Re-express a cloud in ``t.to_frame``; point count and order preserved."""
    if cloud.frame != t.from_frame:
        raise FrameMismatch(
            f"cloud is in {cloud.frame.value}, transform consumes {t.from_frame.value}"
        )
    return PointCloud(t.apply(cloud.points), t.to_frame, cloud.stamp)
