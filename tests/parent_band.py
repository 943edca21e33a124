"""The robot branch's height band as it was worked before the z-first step.

It is the reference of ``tests/test_perception.py::TestZFirstBand``. The
whole optical cloud went into the robot base frame, and the z test ran on
the result: ``band`` keeps that chain, and ``passthrough_filter`` and the
matrix-product ``apply`` are kept verbatim, names included. Nothing else
uses them.
"""

import numpy as np

from crossnav.geometry import FrameId, FrameMismatch, PointCloud, RigidTransform, transform_points
from crossnav.world import DepthImage, deproject


def apply(t: RigidTransform, points: np.ndarray) -> np.ndarray:
    """``RigidTransform.apply`` as it was: one matrix product, worked by BLAS."""
    pts = np.asarray(points, dtype=np.float64)
    return pts @ t.rotation.T + t.translation


def passthrough_filter(cloud: PointCloud, z_min: float, z_max: float) -> PointCloud:
    """Keep exactly the points with z_min <= z <= z_max, preserving order.

    Drops ground returns below the band and structures above the robot's
    clearance height. The cloud must already be in the robot base frame.
    """
    if cloud.frame != FrameId.ROBOT_BASE:
        raise FrameMismatch(f"passthrough expects robot_base cloud, got {cloud.frame.value}")
    z = cloud.points[:, 2]
    mask = (z >= z_min) & (z <= z_max)
    return PointCloud(cloud.points[mask], cloud.frame)


def band(img: DepthImage, mount: RigidTransform, z_min: float, z_max: float) -> PointCloud:
    """The band of ``robot_branch_observation``: deproject, the whole cloud into the base frame, then the z test."""
    cloud = transform_points(mount, deproject(img))
    return passthrough_filter(cloud, z_min, z_max)
