"""Potential-field baseline navigation over the inflated local costmap.

Potentials (robot base frame, robot at ``robot_xy``):

- attractive: U_att = 1/2 * k_att * ||robot - goal||^2
- repulsive, per non-free cell at distance d (clamped below by res/2):
  U_rep = 1/2 * k_rep * (1/d - 1/d0)^2 for d < d0, else 0

The force is the negative gradient of their sum; an admittance law with
first-order smoothing turns it into a velocity command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

from .perception import FREE, Costmap2D


class CommandSource(Enum):
    APF = "apf"
    HUMAN = "human"
    WALKER = "walker"  # unassisted baseline; never enters arbitration


@dataclass(frozen=True)
class VelocityCommand:
    """Timestamped planar twist; the currency both branches publish."""

    v_x: float
    v_y: float
    w_z: float
    stamp: float
    source: CommandSource

    @classmethod
    def zero(cls, stamp: float, source: CommandSource) -> "VelocityCommand":
        return cls(0.0, 0.0, 0.0, stamp, source)


@dataclass(frozen=True)
class ForceVector:
    fx: float
    fy: float

    def __post_init__(self):
        if not (math.isfinite(self.fx) and math.isfinite(self.fy)):
            raise ValueError("force components must be finite")

    def __add__(self, other: "ForceVector") -> "ForceVector":
        return ForceVector(self.fx + other.fx, self.fy + other.fy)

    def as_array(self) -> np.ndarray:
        return np.array([self.fx, self.fy])


@dataclass(frozen=True)
class ApfParams:
    k_att: float = 1.0
    k_rep: float = 0.05
    d0: float = 1.0  # repulsive influence radius, meters
    v_max: float = 0.6
    w_max: float = 1.2
    admittance_gain: float = 0.5
    yaw_gain: float = 1.5
    smoothing_alpha: float = 0.3

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"ApfParams.{f.name} must be finite")
        for name in ("k_att", "k_rep", "d0", "v_max", "w_max", "admittance_gain", "yaw_gain"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ApfParams.{name} must be strictly positive")
        if not (0.0 < self.smoothing_alpha <= 1.0):
            raise ValueError("smoothing_alpha must lie in (0, 1]")


def attractive_force(robot_xy, goal_xy, k_att: float) -> ForceVector:
    """Linear pull toward the goal: F = k_att * (goal - robot)."""
    f = k_att * (np.asarray(goal_xy, dtype=np.float64) - np.asarray(robot_xy, dtype=np.float64))
    return ForceVector(float(f[0]), float(f[1]))


def _repulsive_terms(robot_xy, costmap: Costmap2D, d0: float):
    """Distances (raw and clamped) from the robot to each in-range non-free cell.

    Only the d0 window is scanned: the cells whose centers lie within d0 of
    the robot along each axis, padded by one cell against rounding and
    clipped to the grid. The window keeps the grid's row-major order, and
    the ``d < d0`` mask drops every cell outside it, so the cells come out
    in the order that a scan of the whole grid gives.
    """
    robot = np.asarray(robot_xy, dtype=np.float64)
    rx, ry = robot.tolist()
    ox, oy = costmap.origin.tolist()
    res = costmap.resolution
    i0, i1 = _window(rx - ox, d0, res, costmap.width)
    j0, j1 = _window(ry - oy, d0, res, costmap.height)
    if i0 >= i1 or j0 >= j1:
        return None
    ix, iy = np.divmod(np.flatnonzero(costmap.cells[i0:i1, j0:j1] != FREE), j1 - j0)
    if ix.size == 0:
        return None
    diff = robot - (costmap.origin + (np.stack([ix + i0, iy + j0], axis=1) + 0.5) * res)
    d = np.hypot(diff[:, 0], diff[:, 1])
    mask = (d < d0) & (d > 1e-12)
    if not mask.any():
        return None
    d = d[mask]
    return diff[mask], d, np.maximum(d, res / 2.0)


def _window(offset: float, d0: float, res: float, n: int):
    """Index range [lo, hi) of the cells i whose centers (i + 0.5) * res lie
    within d0 of ``offset`` along one axis, padded by one cell on each side
    and clipped to [0, n)."""
    lo = (offset - d0) / res - 0.5
    hi = (offset + d0) / res - 0.5
    if not lo <= hi:  # NaN: no cell is in range
        return 0, 0
    # clamped first, so that an infinite offset or d0 still gives whole numbers
    lo, hi = min(max(lo, -1.0), n), min(max(hi, -1.0), n)
    return max(math.ceil(lo) - 1, 0), min(math.floor(hi) + 2, n)


def repulsive_force(robot_xy, costmap: Costmap2D, k_rep: float, d0: float) -> ForceVector:
    """Sum of per-cell pushes k_rep * (1/d - 1/d0) / d^2 away from the cell.

    Zero when no non-free cell lies within d0. The distance in the magnitude
    is clamped below by half a cell to avoid the singularity at the center.
    """
    terms = _repulsive_terms(robot_xy, costmap, d0)
    if terms is None:
        return ForceVector(0.0, 0.0)
    diff, d, d_clamped = terms
    mag = k_rep * (1.0 / d_clamped - 1.0 / d0) / (d_clamped * d_clamped)
    f = (diff / d[:, None] * mag[:, None]).sum(axis=0)
    return ForceVector(float(f[0]), float(f[1]))


def apf_force(robot_xy, goal_xy, costmap: Costmap2D, params: ApfParams) -> ForceVector:
    """Combined negative-gradient force at the robot's position."""
    return attractive_force(robot_xy, goal_xy, params.k_att) + repulsive_force(
        robot_xy, costmap, params.k_rep, params.d0
    )


def potential(robot_xy, goal_xy, costmap: Costmap2D, params: ApfParams) -> float:
    """Scalar field whose negative gradient apf_force implements.

    Exposed so tests can pin the force to this declaration by finite
    differences.
    """
    diff = np.asarray(goal_xy, dtype=np.float64) - np.asarray(robot_xy, dtype=np.float64)
    u = 0.5 * params.k_att * float(diff @ diff)
    terms = _repulsive_terms(robot_xy, costmap, params.d0)
    if terms is not None:
        _, _, d_clamped = terms
        u += float(np.sum(0.5 * params.k_rep * (1.0 / d_clamped - 1.0 / params.d0) ** 2))
    return u


# a backward force mostly turns the platform rather than reversing it; a
# legged guide backs up only at a crawl
_REVERSE_FRACTION = 0.25


def admittance_map(
    f: ForceVector,
    params: ApfParams,
    prev: Optional[VelocityCommand],
    now: float,
) -> VelocityCommand:
    """Force to velocity: forward speed from the heading-aligned component,
    yaw toward the force direction, first-order smoothed and clamped.
    """
    v_target = params.admittance_gain * f.fx
    w_target = params.yaw_gain * math.atan2(f.fy, f.fx) if (f.fx, f.fy) != (0.0, 0.0) else 0.0
    alpha = params.smoothing_alpha
    v_prev = prev.v_x if prev is not None else 0.0
    w_prev = prev.w_z if prev is not None else 0.0
    v_x = v_prev + alpha * (v_target - v_prev)
    w_z = w_prev + alpha * (w_target - w_prev)
    v_x = min(max(v_x, -_REVERSE_FRACTION * params.v_max), params.v_max)
    w_z = min(max(w_z, -params.w_max), params.w_max)
    return VelocityCommand(v_x, 0.0, w_z, now, CommandSource.APF)
