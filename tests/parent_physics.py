"""The world step as it was computed on numpy arrays.

It is the reference of ``tests/test_sim.py::TestScalarPhysicsIsExact``.
The four functions below are kept verbatim, names included, so that the
scalar physics tick in ``crossnav.sim`` can be compared with them byte for
byte. Nothing else uses them.
"""

import math
from typing import Optional

import numpy as np

from crossnav.planner import VelocityCommand
from crossnav.sim import FollowerParams, SimParams, WorldState, _wrap_angle
from crossnav.world import Scene


def _integrate_unicycle(pose: np.ndarray, cmd: VelocityCommand, dt: float) -> np.ndarray:
    x, y, th = pose
    c, s = math.cos(th), math.sin(th)
    return np.array(
        [
            x + (cmd.v_x * c - cmd.v_y * s) * dt,
            y + (cmd.v_x * s + cmd.v_y * c) * dt,
            _wrap_angle(th + cmd.w_z * dt),
        ]
    )


def human_follower(state: WorldState, params: FollowerParams, dt: float) -> np.ndarray:
    """One follower update: new (x, y, heading) for the human."""
    robot_xy = state.robot_pose[:2]
    human_xy = state.human_pose[:2]
    offset = robot_xy - human_xy
    dist = float(np.hypot(offset[0], offset[1]))
    if dist < 1e-9:
        heading = state.human_pose[2]
        direction = np.array([math.cos(heading), math.sin(heading)])
    else:
        direction = offset / dist
    # walk only when the leash is taut; a slack leash means wait, never back up
    advance = max(dist - params.leash_length_m, 0.0)
    speed = min(params.gain_hz * advance, params.speed_cap_mps)
    new_xy = human_xy + speed * direction * dt
    to_robot = robot_xy - new_xy
    if float(np.hypot(to_robot[0], to_robot[1])) > 1e-9:
        heading = math.atan2(to_robot[1], to_robot[0])
    else:
        heading = state.human_pose[2]
    return np.array([new_xy[0], new_xy[1], heading])


def _clamp_to_corridor(xy: np.ndarray, scene: Scene, margin: float) -> np.ndarray:
    return np.minimum(np.maximum(xy, scene.corridor_min + margin), scene.corridor_max - margin)


def step(
    state: WorldState,
    v_cmd: VelocityCommand,
    dt: float,
    scene: Scene,
    follower: Optional[FollowerParams] = None,
    drive_human: bool = False,
) -> WorldState:
    """Advance the world by dt under the executed command.

    Normally the command drives the robot and the human follows on the
    leash; with ``drive_human`` the command moves the human directly and the
    robot stays parked (the unassisted baseline). Positions are clamped to
    the corridor walls.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if drive_human:
        human = _integrate_unicycle(state.human_pose, v_cmd, dt)
        human[:2] = _clamp_to_corridor(human[:2], scene, scene.body_radius_m)
        robot = state.robot_pose.copy()
        robot_vel = state.robot_vel
    else:
        f = follower if follower is not None else FollowerParams(
            scene.leash_length_m, SimParams.follower_gain_hz, SimParams.human_speed_cap_mps
        )
        human = human_follower(state, f, dt)
        human[:2] = _clamp_to_corridor(human[:2], scene, scene.body_radius_m)
        robot = _integrate_unicycle(state.robot_pose, v_cmd, dt)
        robot[:2] = _clamp_to_corridor(robot[:2], scene, 0.0)
        robot_vel = v_cmd
    return WorldState(
        robot_pose=robot,
        robot_vel=robot_vel,
        human_pose=human,
        human_bend=state.human_bend,
    )

