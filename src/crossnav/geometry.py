"""SE(3) rigid transforms with runtime frame checking.

Frame conventions:
- Physical frames: x forward, y left, z up.
- Optical frames: x right (image u), y down (image v), z forward.

A ``RigidTransform`` maps coordinates expressed in ``from_frame`` into
``to_frame``: ``p_to = R @ p_from + t``. Composition reads right to left,
so ``compose(a, b)`` applies ``b`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


def _check_rotation(rotation: np.ndarray) -> np.ndarray:
    rotation = np.asarray(rotation, dtype=np.float64)
    if rotation.shape != (3, 3):
        raise InvalidRotation(f"rotation must be 3x3, got {rotation.shape}")
    # on Python floats: this runs on every pose update, and numpy's per-call
    # overhead on a 3x3 matrix costs more than the arithmetic
    (a, b, c), (d, e, f), (g, h, i) = rotation.tolist()
    # the entries of R.T @ R - I; it is symmetric, so six cover it
    errs = (
        a * a + d * d + g * g - 1.0,
        b * b + e * e + h * h - 1.0,
        c * c + f * f + i * i - 1.0,
        a * b + d * e + g * h,
        a * c + d * f + g * i,
        b * c + e * f + h * i,
    )
    if not all(abs(x) <= ORTHONORMALITY_TOL for x in errs):  # NaN-safe: NaN compares False
        err = math.nan if any(map(math.isnan, errs)) else max(map(abs, errs))
        raise InvalidRotation(f"rotation not orthonormal (max error {err:.3e})")
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not abs(det - 1.0) <= ORTHONORMALITY_TOL:
        raise InvalidRotation(f"rotation determinant {det!r} != +1")
    return rotation


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose tagged with source and target frames.

    It carries no time: the simulation runs on one clock, and every task is
    handed the current time directly.
    """

    rotation: np.ndarray
    translation: np.ndarray
    from_frame: FrameId
    to_frame: FrameId

    def __post_init__(self):
        object.__setattr__(self, "rotation", _check_rotation(self.rotation))
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError("translation must be finite")
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls, frame: FrameId) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3), frame, frame)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map (N, 3) or (3,) coordinates from ``from_frame`` into ``to_frame``.

        The points are worked on columns by ``coordinates``, with no matrix
        product, so a point's bits depend on that point alone: the same in a
        subset of a cloud as in the whole, and the same under every BLAS
        kernel numpy may pick. An (N, 3) result is the transpose of those
        rows, so each of its columns is contiguous.
        """
        pts = np.asarray(points, dtype=np.float64)
        return self.coordinates(*pts.reshape(-1, 3).T).T.reshape(pts.shape)

    def coordinates(self, x, y, z, rows: slice = slice(0, 3)) -> np.ndarray:
        """Output coordinates ``rows`` of the points whose input coordinates are
        the arrays x, y, z, one output row per coordinate.

        Row i is ((x R[i,0] + y R[i,1]) + z R[i,2]) + t[i], rounded in that
        order.
        """
        r = self.rotation[rows]
        out = r[:, 0:1] * x
        out += r[:, 1:2] * y
        out += r[:, 2:3] * z
        out += self.translation[rows, None]
        return out


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
    return RigidTransform(
        a.rotation @ b.rotation, a.rotation @ b.translation + a.translation, b.from_frame, a.to_frame
    )


def invert(t: RigidTransform) -> RigidTransform:
    """Inverse transform: swapped frames, R.T, -R.T @ t."""
    rot_inv = t.rotation.T
    return RigidTransform(rot_inv, -rot_inv @ t.translation, t.to_frame, t.from_frame)


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

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empty(cls, frame: FrameId) -> "PointCloud":
        return cls(np.zeros((0, 3)), frame)


def transform_points(t: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Re-express a cloud in ``t.to_frame``; point count and order preserved."""
    if cloud.frame != t.from_frame:
        raise FrameMismatch(
            f"cloud is in {cloud.frame.value}, transform consumes {t.from_frame.value}"
        )
    if len(cloud) == 0:  # most chest frames: nothing in reach returns
        return PointCloud.empty(t.to_frame)
    return PointCloud(t.apply(cloud.points), t.to_frame)
