"""Closed-loop episode engine.

One episode couples a differential-drive robot (with strafe), a leashed
human follower, two depth cameras at different heights, the potential-field
planner, the reactive chest-view branch, the priority arbiter, and the
depth sentinel. Tasks run at fixed rates on a single discrete event
timeline with integer-nanosecond timestamps, so a given (scenario,
condition, seed) always replays the exact same episode. That timeline is
the only clock: ``step`` moves poses and keeps no time, and the time of the
state, of each trace row and of every check on time is a tick time of it.
The physics state is plain Python floats: each pose is an (x, y, heading)
triple, and ``step`` returns a new state rather than changing its input.

Three study conditions are supported: an unassisted walker baseline, a
robot-only stack (no chest view), and the full cross-view stack.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arbiter import ArbiterConfig, ArbitrationDecision, command_norm
from .arbiter import tick as arbiter_tick
from .geometry import (
    OPTICAL_PHYSICAL_PAIRS,
    FrameId,
    PointCloud,
    RigidTransform,
    compose,
    optical_to_physical,
    rot_y,
    transform_points,
)
from .human_branch import HumanBranch, HumanSafetyParams
from .perception import Costmap2D, build_costmap, inflate, passthrough_filter
from .planner import ApfParams, CommandSource, VelocityCommand, admittance_map, apf_force
from .sentinel import (
    Describer,
    HazardEvent,
    ObstacleSighting,
    RoiOutOfBounds,
    RoiSpec,
    SentinelConfig,
    TemplateDescriber,
    check_trigger,
    default_roi,
    describe,
    roi_min_depth,
)
from .world import (
    CameraIntrinsics,
    DepthImage,
    ObstacleKind,
    Scene,
    apply_depth_noise,
    deproject,
    render_depth,
)

TRACE_HEADER = "t,robot_x,robot_y,robot_theta,human_x,human_y,source,A,v_x,v_y,w_z,min_roi_depth,event"
# one trace row, in TRACE_HEADER's columns: t and the two poses, then the
# command columns already formatted by _COMMAND_COLUMNS, then the events;
# ``%.6f`` of a float gives the bytes of the f-string ``{x:.6f}`` on the same
# value, float64 or float
_ROW = "%.3f,%.6f,%.6f,%.6f,%.6f,%.6f,%s%s"
# source, A, v_x, v_y, w_z, min_roi_depth and the comma before the events;
# they change only when a task changes the command or the ROI depth
_COMMAND_COLUMNS = "%s,%s,%.6f,%.6f,%.6f,%s,"


class ConfigError(Exception):
    """Raised when an episode configuration cannot be run."""


class Condition(Enum):
    UNASSISTED = "unassisted"
    SINGLE_VIEW = "singleview"
    CROSS_VIEW = "crossview"


class BendPose(Enum):
    UPRIGHT = "upright"
    BENT = "bent"


class TerminationStatus(Enum):
    GOAL = "goal"
    STALLED = "stalled"
    TIMEOUT = "timeout"


@dataclass
class WorldState:
    """The poses and the executed command; the time is the scheduler's.

    Each pose is a tuple of three Python floats, (x, y, heading) in the
    world frame, so a pose is never changed in place: ``step`` builds the
    next state's poses as new tuples.
    """

    robot_pose: Tuple[float, float, float]
    robot_vel: VelocityCommand  # executed command
    human_pose: Tuple[float, float, float]
    human_bend: BendPose


@dataclass(frozen=True)
class FollowerParams:
    """Leashed-human model: first-order pursuit of a standoff point.

    The target sits on the human-to-robot line at leash length from the
    robot, which is what a taut leash enforces; the head (and chest camera)
    faces the robot.
    """

    leash_length_m: float
    gain_hz: float
    speed_cap_mps: float


@dataclass(frozen=True)
class SensorRig:
    """Camera intrinsics and mounting for both viewpoints.

    The intrinsics check themselves; the mounting numbers must be finite,
    or the first tick that poses a camera would fail inside the episode.
    """

    robot_intrinsics: CameraIntrinsics
    chest_intrinsics: CameraIntrinsics
    robot_mount_xyz: np.ndarray = (0.25, 0.0, 0.35)
    robot_mount_pitch_rad: float = 0.0
    chest_forward_m: float = 0.05
    bend_pitch_rad: float = math.radians(55.0)  # camera pitch-down when bent

    def __post_init__(self):
        object.__setattr__(
            self, "robot_mount_xyz", np.asarray(self.robot_mount_xyz, dtype=np.float64).reshape(3)
        )
        for name in ("robot_mount_xyz", "robot_mount_pitch_rad", "chest_forward_m", "bend_pitch_rad"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"rig.{name} must be finite")


def default_rig(
    image_width_px: int = 160,
    image_height_px: int = 120,
    hfov_deg: float = 60.0,
    # the phone camera is wider than the robot's depth module, which keeps
    # close overhead hazards inside the upward half of the image longer
    chest_hfov_deg: float = 75.0,
    max_range_m: float = 5.0,
) -> SensorRig:
    """Both cameras share one sensor size and range; only the fields of view differ."""

    def camera(fov_deg: float) -> CameraIntrinsics:
        return CameraIntrinsics.from_fov(image_width_px, image_height_px, fov_deg, max_range_m)

    return SensorRig(robot_intrinsics=camera(hfov_deg), chest_intrinsics=camera(chest_hfov_deg))


@dataclass(frozen=True)
class PerceptionSpec:
    """Robot-branch costmap layout (robot base frame) and the height band."""

    origin_xy: np.ndarray = (-1.0, -2.5)
    resolution_m: float = 0.05
    width: int = 100
    height: int = 100
    r_inf_m: float = 0.35
    z_band_low_m: float = 0.02
    z_band_high_m: float = 0.50  # robot pass-under clearance

    def __post_init__(self):
        object.__setattr__(
            self, "origin_xy", np.asarray(self.origin_xy, dtype=np.float64).reshape(2)
        )
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)).all():
                raise ConfigError(f"perception.{f.name} must be finite")
        for name in ("width", "height"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"perception.{name} must be an integer")
        if self.resolution_m <= 0:
            raise ConfigError("perception.resolution_m must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("perception grid must be non-empty")
        if self.r_inf_m < 0:
            raise ConfigError("perception.r_inf_m must be non-negative")
        if self.z_band_low_m >= self.z_band_high_m:
            raise ConfigError("perception z band is empty")


@dataclass(frozen=True)
class SimParams:
    dt: float = 0.02  # physics step, 50 Hz
    timeout_s: float = 120.0
    goal_tolerance_m: float = 0.2
    # the chassis treats command components at or below this as zero; this is
    # also what turns the brake sentinel into an actual standstill
    exec_min_command: float = 0.05
    stall_norm: float = 1e-3
    stall_window_s: float = 2.0
    stall_grace_s: float = 5.0
    planner_rate_hz: float = 10.0
    chest_rate_hz: float = 15.0
    follower_gain_hz: float = 2.0
    human_speed_cap_mps: float = 1.5
    robot_radius_m: float = 0.25
    robot_height_m: float = 0.40
    collision_debounce_s: float = 1.0
    walker_rate_hz: float = 10.0
    walker_speed_mps: float = 0.5
    walker_heading_sigma_rad: float = 0.25
    walker_backoff_s: float = 0.4
    walker_sidestep_s: float = 0.8
    depth_sigma_m: float = 0.0
    # seconds of banded returns remembered by the planner so an obstacle
    # keeps repelling briefly after it slides out of the camera cone
    costmap_memory_s: float = 1.5

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        for name in ("dt", "timeout_s", "planner_rate_hz", "chest_rate_hz", "walker_rate_hz",
                     "follower_gain_hz", "human_speed_cap_mps", "robot_radius_m", "robot_height_m",
                     "walker_speed_mps"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("goal_tolerance_m", "exec_min_command", "stall_norm", "stall_window_s",
                     "stall_grace_s", "collision_debounce_s", "walker_heading_sigma_rad",
                     "walker_backoff_s", "walker_sidestep_s", "depth_sigma_m", "costmap_memory_s"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class EpisodeConfig:
    """Fully resolved inputs for one episode (everything but condition/seed)."""

    scene: Scene
    rig: SensorRig
    perception: PerceptionSpec
    apf: ApfParams
    safety: HumanSafetyParams
    arbiter: ArbiterConfig
    sentinel: SentinelConfig
    sim: SimParams
    name: str = "scenario"
    sentinel_enabled: bool = True
    bend_window_s: Optional[Tuple[float, float]] = None
    jitter_xy_m: float = 0.0

    def validate(self) -> None:
        try:
            self.scene.validate(robot_clearance_m=self.perception.z_band_high_m)
        except ValueError as exc:
            raise ConfigError(f"scene: {exc}") from exc
        if not 0 <= self.jitter_xy_m < math.inf:  # NaN fails too
            raise ConfigError("jitter_xy_m must be non-negative and finite")
        if self.bend_window_s is not None:
            lo, hi = self.bend_window_s
            if not 0 <= lo < hi < math.inf:
                raise ConfigError("bend_window_s must be an increasing non-negative pair of finite numbers")
        if self.scene.leash_length_m <= 2.0 * self.sim.robot_radius_m:
            raise ConfigError("leash_length_m must exceed the robot body length")
        if self.sentinel.roi is not None:
            try:
                self.sentinel.roi.check_fits(self.rig.robot_intrinsics)
            except RoiOutOfBounds as exc:
                raise ConfigError(f"sentinel.roi: {exc}") from exc


# ---------------------------------------------------------------------------
# kinematics


def _wrap_angle(a: float) -> float:
    return math.atan2(math.sin(a), math.cos(a))


# The physics tick runs on Python floats: each pose is a float triple. Float
# arithmetic rounds exactly as float64 numpy does, so each expression below
# keeps the operands and the order of the array code it replaced. A distance
# that enters a pose stays np.hypot, since math.hypot rounds differently; a
# distance that is only compared with a bound goes through _hypot_vs, which
# gives np.hypot's answer to that comparison.


def _hypot_vs(dx: float, dy: float, bound: float) -> float:
    """np.hypot(dx, dy) as seen by a comparison with ``bound``.

    Outside a relative band of about 5e-10 around ``bound``, the squared
    distance settles the comparison: its rounding error is near 1e-16, so
    math.sqrt of it lies on np.hypot's side of ``bound``, strictly, and is
    returned. np.hypot itself is returned inside the band, for a NaN (which
    fails both tests), and for a ``bound`` outside (1e-150, 1e150), whose
    square may overflow or be subnormal, where rounding is no longer
    relative. So ``<``, ``<=``, ``>``, ``>=`` and ``==`` against ``bound``
    answer as on np.hypot, and np.hypot is rarely called.
    """
    if 1e-150 < bound < 1e150:
        d2, b2 = dx * dx + dy * dy, bound * bound
        if d2 < b2 * (1.0 - 1e-9) or d2 > b2 * (1.0 + 1e-9):
            return math.sqrt(d2)
    return float(np.hypot(dx, dy))


def _integrate_unicycle(
    x: float, y: float, th: float, cmd: VelocityCommand, dt: float
) -> Tuple[float, float, float]:
    c, s = math.cos(th), math.sin(th)
    return (
        x + (cmd.v_x * c - cmd.v_y * s) * dt,
        y + (cmd.v_x * s + cmd.v_y * c) * dt,
        _wrap_angle(th + cmd.w_z * dt),
    )


def human_follower(state: WorldState, params: FollowerParams, dt: float) -> Tuple[float, float, float]:
    """One follower update: new (x, y, heading) for the human, as floats."""
    rx, ry, _ = state.robot_pose
    hx, hy, hh = state.human_pose
    ox, oy = rx - hx, ry - hy
    dist = float(np.hypot(ox, oy))
    if dist < 1e-9:
        dx, dy = math.cos(hh), math.sin(hh)
    else:
        dx, dy = ox / dist, oy / dist
    # walk only when the leash is taut; a slack leash means wait, never back up.
    # As max(advance, 0.0) and min(speed, cap), compared, not called: a NaN
    # and a tie keep the first value
    advance = dist - params.leash_length_m
    if advance < 0.0:
        advance = 0.0
    speed = params.gain_hz * advance
    if params.speed_cap_mps < speed:
        speed = params.speed_cap_mps
    nx, ny = hx + speed * dx * dt, hy + speed * dy * dt
    tx, ty = rx - nx, ry - ny
    heading = math.atan2(ty, tx) if _hypot_vs(tx, ty, 1e-9) > 1e-9 else hh
    return nx, ny, heading


def _clamp_to_corridor(
    x: float, y: float, heading: float, scene: Scene, margin: float
) -> Tuple[float, float, float]:
    """The pose with x and y clamped to the corridor less ``margin``: min(hi, max(lo, v)) by comparisons.

    The wall's own value wins a tie, signed zero included, as in numpy's
    float64 minimum/maximum on x86, and on a corridor narrower than twice
    the margin the high wall wins. A NaN passes through as it does there,
    where min/max would put it on the low wall.
    """
    lo_x, lo_y, hi_x, hi_y = scene.corridor_bounds
    lo, hi = lo_x + margin, hi_x - margin
    if x > lo:
        if not x < hi:
            x = hi
    elif x == x:
        x = lo if lo < hi else hi
    lo, hi = lo_y + margin, hi_y - margin
    if y > lo:
        if not y < hi:
            y = hi
    elif y == y:
        y = lo if lo < hi else hi
    return x, y, heading


def step(
    state: WorldState,
    v_cmd: VelocityCommand,
    dt: float,
    scene: Scene,
    follower: Optional[FollowerParams] = None,
    drive_human: bool = False,
) -> WorldState:
    """The world after dt under the executed command, as a new state.

    Normally the command drives the robot and the human follows on the
    leash; with ``drive_human`` the command moves the human directly and the
    robot stays parked (the unassisted baseline). Positions are clamped to
    the corridor walls. ``state`` is left as it is; the poses of the state
    returned are new (x, y, heading) float triples, save a parked robot's,
    which is the same immutable tuple.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if drive_human:
        human = _integrate_unicycle(*state.human_pose, v_cmd, dt)
        robot = state.robot_pose
        robot_vel = state.robot_vel
    else:
        f = follower if follower is not None else FollowerParams(
            scene.leash_length_m, SimParams.follower_gain_hz, SimParams.human_speed_cap_mps
        )
        human = human_follower(state, f, dt)
        robot = _clamp_to_corridor(*_integrate_unicycle(*state.robot_pose, v_cmd, dt), scene, 0.0)
        robot_vel = v_cmd
    return WorldState(
        robot, robot_vel, _clamp_to_corridor(*human, scene, scene.body_radius_m), state.human_bend
    )


# ---------------------------------------------------------------------------
# sensing pipelines (shared by the engine and by offline analysis)


@functools.lru_cache(maxsize=16)
def _mount(
    optical_frame: FrameId, parent_frame: FrameId, pitch_rad: float, xyz: Tuple[float, float, float]
) -> RigidTransform:
    """Static camera extrinsic: optical frame -> the frame the camera is mounted on.

    The camera's physical frame sits at ``xyz`` in ``parent_frame``, pitched
    down by ``pitch_rad``. Mounts are rigid, so each distinct one is built
    once and shared by every tick; its arrays are read-only.
    """
    parent_from_physical = RigidTransform(
        rot_y(pitch_rad), np.array(xyz), OPTICAL_PHYSICAL_PAIRS[optical_frame], parent_frame
    )
    mount = compose(parent_from_physical, optical_to_physical(optical_frame))
    mount.rotation.flags.writeable = False
    mount.translation.flags.writeable = False
    return mount


def _robot_mount(rig: SensorRig) -> RigidTransform:
    """Robot optical frame -> robot base frame."""
    return _mount(
        FrameId.OPTICAL_DOG, FrameId.ROBOT_BASE, rig.robot_mount_pitch_rad, tuple(rig.robot_mount_xyz.tolist())
    )


def _chest_mount(rig: SensorRig, bend: BendPose, chest_height_m: float) -> RigidTransform:
    """Chest optical frame -> ground-anchored body frame; bending only pitches it."""
    pitch = rig.bend_pitch_rad if bend is BendPose.BENT else 0.0
    return _mount(
        FrameId.OPTICAL_HUMAN, FrameId.PHYSICAL_HUMAN, pitch, (rig.chest_forward_m, 0.0, chest_height_m)
    )


def _world_pose(pose, mount: RigidTransform) -> RigidTransform:
    """compose(RigidTransform(rot_z(heading), (x, y, 0)), mount) for pose (x, y, heading), on floats.

    One checked transform and no matrix product: as in
    ``RigidTransform.apply``, every sum rounds in a fixed order, so no BLAS
    kernel reaches a camera pose. Each rotation entry is accumulated as
    ((0.0 + a_i0 b_0j) + a_i1 b_1j) + a_i2 b_2j, and the translation
    rot_z(heading) @ t + (x, y, 0) in the same order; the cosine and sine
    are numpy's, as in ``rot_z``. That order gives the bits of ``compose``
    under OpenBLAS's Nehalem and Haswell kernels on every shipped rig
    (``tests/test_sim.py::TestCameraPosesOnFloats`` holds it to them).
    """
    x, y, heading = map(float, pose)
    c, s = float(np.cos(heading)), float(np.sin(heading))
    a = ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = mount.rotation.tolist()
    t0, t1, t2 = mount.translation.tolist()
    rotation = [
        [((0.0 + a0 * m00) + a1 * m10) + a2 * m20,
         ((0.0 + a0 * m01) + a1 * m11) + a2 * m21,
         ((0.0 + a0 * m02) + a1 * m12) + a2 * m22]
        for a0, a1, a2 in a
    ]
    translation = [
        (((0.0 + a0 * t0) + a1 * t1) + a2 * t2) + o for (a0, a1, a2), o in zip(a, (x, y, 0.0))
    ]
    return RigidTransform(np.array(rotation), np.array(translation), mount.from_frame, FrameId.WORLD)


def robot_camera_pose(robot_pose: np.ndarray, rig: SensorRig) -> RigidTransform:
    """World pose of the robot's forward depth camera (optical frame)."""
    return _world_pose(robot_pose, _robot_mount(rig))


def chest_camera_pose(
    human_pose: np.ndarray, bend: BendPose, rig: SensorRig, chest_height_m: float
) -> RigidTransform:
    """World pose of the chest-mounted depth camera; bending pitches it down."""
    return _world_pose(human_pose, _chest_mount(rig, bend, chest_height_m))


def robot_branch_observation(
    scene: Scene,
    robot_pose: np.ndarray,
    rig: SensorRig,
    spec: PerceptionSpec,
    depth_sigma: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    extra_xy: Optional[np.ndarray] = None,
) -> Tuple[DepthImage, PointCloud, Costmap2D]:
    """Robot-view sensing: depth image, height-banded base-frame cloud, inflated costmap.

    ``extra_xy`` stamps additional base-frame ground points (e.g. short-term
    memory of obstacles that just left the camera cone) into the costmap
    before inflation.
    """
    img = render_depth(scene, robot_camera_pose(robot_pose, rig), rig.robot_intrinsics)
    if depth_sigma > 0 and rng is not None:
        img = apply_depth_noise(img, depth_sigma, rng)
    band = passthrough_filter(deproject(img), spec.z_band_low_m, spec.z_band_high_m, _robot_mount(rig))
    grid = build_costmap(band, spec.origin_xy, spec.resolution_m, spec.width, spec.height, extra_xy)
    return img, band, inflate(grid, spec.r_inf_m)


def chest_observation(
    scene: Scene,
    human_pose: np.ndarray,
    bend: BendPose,
    rig: SensorRig,
    depth_sigma: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[DepthImage, PointCloud]:
    """Chest-view sensing: depth image and the cloud in the human body frame."""
    pose = chest_camera_pose(human_pose, bend, rig, scene.chest_height_m)
    img = render_depth(scene, pose, rig.chest_intrinsics)
    if depth_sigma > 0 and rng is not None:
        img = apply_depth_noise(img, depth_sigma, rng)
    cloud = transform_points(_chest_mount(rig, bend, scene.chest_height_m), deproject(img))
    return img, cloud


# Slack (meters) on both tests of the chest-scene cull. It only ever keeps
# more obstacles; the float rounding of a hit point within the 5 m sensing
# range is many orders of magnitude below it.
_CULL_SLACK_M = 1e-3


def chest_camera_in_hazard_box(rig: SensorRig, chest_height_m: float, safety: HumanSafetyParams) -> bool:
    """Whether the chest camera sits inside the hazard box of ``corridor_scene``.

    Bending only pitches the camera, so its body-frame position is
    (chest_forward_m, 0, chest_height_m) in either posture.
    """
    reach = safety.d_safe + safety.release_hysteresis
    return 0.0 < rig.chest_forward_m <= reach and safety.z_low <= chest_height_m <= safety.z_high


def corridor_scene(
    scene: Scene, human_pose: np.ndarray, safety: HumanSafetyParams, previous: Optional[Scene] = None
) -> Scene:
    """The scene without the obstacles that cannot touch the chest branch's hazard box.

    In the human body frame the box is x in (0, D], |y| <= corridor_half_width
    and z in [z_low, z_high], with D = d_safe + release_hysteresis: every
    point ``detect_hazard`` can report, idle or engaged. An obstacle is kept
    when its height span meets the band and its footprint comes within the
    box's circumradius of the box's centre, both with ``_CULL_SLACK_M``.

    When the camera is inside the box (``chest_camera_in_hazard_box``) the
    cull is exact for the hazard: anything that hides a box point lies on the
    segment from the camera to it, which the convex box contains, so it is
    kept. The box points of a noise-free cloud are then bitwise the same, in
    the same order, and ``detect_hazard`` returns the same point. Returns
    ``scene`` itself when every obstacle is kept, and ``previous`` (an
    earlier result) when it holds the very obstacles kept.
    """
    half_reach = 0.5 * (safety.d_safe + safety.release_hysteresis)
    x, y, heading = human_pose
    centre = (x + half_reach * math.cos(heading), y + half_reach * math.sin(heading))
    radius = math.hypot(half_reach, safety.corridor_half_width) + _CULL_SLACK_M
    kept = tuple(
        ob
        for ob in scene.obstacles
        if ob.z_max >= safety.z_low - _CULL_SLACK_M
        and ob.z_min <= safety.z_high + _CULL_SLACK_M
        and ob.footprint_distance(centre) <= radius
    )
    if len(kept) == len(scene.obstacles):
        return scene
    if previous is not None and len(previous.obstacles) == len(kept) and all(
        a is b for a, b in zip(previous.obstacles, kept)
    ):
        return previous
    return replace(scene, obstacles=kept)


def robot_camera_in_band(rig: SensorRig, spec: PerceptionSpec, roi: RoiSpec) -> bool:
    """Whether the robot camera sits inside the height band and no ray of ``roi`` rises.

    The base-frame rise of the ray (x, y, 1) in the optical frame is
    R[2,0] x + R[2,1] y + R[2,2] on the robot mount's rotation R, linear in
    (x, y), so over the region's pixels it is greatest at one of the four
    corner pixels. Bending and heading leave the robot camera as it is.
    """
    if not spec.z_band_low_m <= rig.robot_mount_xyz[2] <= spec.z_band_high_m:
        return False
    intr = rig.robot_intrinsics
    r0, r1, r2 = _robot_mount(rig).rotation[2].tolist()
    return all(
        r0 * ((u - intr.cx) / intr.fx) + r1 * ((v - intr.cy) / intr.fy) + r2 <= 0.0
        for u in (roi.u_min, roi.u_max - 1)
        for v in (roi.v_min, roi.v_max - 1)
    )


def band_scene(scene: Scene, spec: PerceptionSpec) -> Scene:
    """The scene without the obstacles wholly above the robot branch's height band.

    An obstacle is dropped when its bottom lies more than ``_CULL_SLACK_M``
    above ``z_band_high_m``.

    When ``robot_camera_in_band`` holds the cull is exact for the robot
    branch. A ray from the camera, which is inside the band, whose first hit
    lies above the band is rising, so every later hit of it lies above the
    band too; and no ray of the region of interest rises, so none reaches an
    obstacle above the camera. The band points of a noise-free frame are then
    bitwise the same, in the same order, and so is the region's least depth.
    Returns ``scene`` itself when every obstacle is kept.
    """
    top = spec.z_band_high_m + _CULL_SLACK_M
    kept = tuple(ob for ob in scene.obstacles if ob.z_min <= top)
    if len(kept) == len(scene.obstacles):
        return scene
    return replace(scene, obstacles=kept)


def frustum_summary(scene: Scene, robot_pose: np.ndarray, rig: SensorRig) -> List[ObstacleSighting]:
    """Ground-truth list of obstacles inside the robot camera's view cone."""
    x, y, th = robot_pose
    c, s = math.cos(th), math.sin(th)
    cam_xy = np.array(
        [x + c * rig.robot_mount_xyz[0] - s * rig.robot_mount_xyz[1],
         y + s * rig.robot_mount_xyz[0] + c * rig.robot_mount_xyz[1]]
    )
    intr = rig.robot_intrinsics
    half_fov = math.atan((intr.width / 2.0) / intr.fx)
    sightings = []
    for ob in scene.obstacles:
        rel = ob.center - cam_xy
        bearing = _wrap_angle(math.atan2(rel[1], rel[0]) - th)
        rng_m = max(ob.footprint_distance(cam_xy), 0.0)
        if rng_m <= intr.max_range and abs(bearing) <= half_fov + 0.1:
            sightings.append(
                ObstacleSighting(ob.obstacle_id, ob.kind.value, math.degrees(bearing), rng_m)
            )
    sightings.sort(key=lambda sgt: sgt.range_m)
    return sightings


# ---------------------------------------------------------------------------
# collision accounting


@dataclass(frozen=True)
class CollisionEvent:
    time: float
    agent: str  # "human" | "robot"
    obstacle_id: str
    kind: ObstacleKind


# Slack (meters) on the reach of every (agent, obstacle) pair in
# ``CollisionTracker``. A point's distance to a footprint is never less than
# its distance to the footprint's circumscribing circle, so the bound only
# has to absorb float rounding, about 1e-15 m at corridor scale. With no
# slack, a point on a box's corner diagonal at exactly that reach can be
# rejected while the footprint test finds it touching.
_REACH_SLACK_M = 1e-6


class _AgentPairs:
    """One agent's (agent, obstacle) pairs and the anchor of its clearance skip.

    While the agent is less than ``clear`` from (x, y), none of its pairs is
    within reach; ``clear_sq`` is clear², and 0.0 when there is no anchor,
    which no squared distance is below.
    """

    __slots__ = ("pairs", "x", "y", "clear_sq")

    def __init__(self, pairs: list):
        self.pairs = pairs
        self.x = self.y = self.clear_sq = 0.0


class CollisionTracker:
    """Entering-transition collision counter with per-obstacle debounce.

    The human is a vertical cylinder from the ground to head height; the
    robot a shorter, wider one. Re-contact with the same obstacle inside the
    debounce window is not a new event. Times are tick times, whole numbers
    of nanoseconds, and the window is compared in those nanoseconds: a
    re-contact exactly one window after an event is a new event.

    The (agent, obstacle) pairs whose height spans can meet are listed once,
    each with its squared reach (footprint circumradius + agent radius +
    ``_REACH_SLACK_M``)². ``update`` runs the exact footprint test only on
    pairs whose centres are within reach, so its booleans are those of
    ``Obstacle.overlaps_vertical_cylinder``. Contact is kept per (agent,
    obstacle id), so a scene that uses an id twice is refused. With
    ``robot_enabled`` False no robot pair is listed, so the robot position
    ``update`` is given meets no obstacle.

    Clearance skip: after a pass over all of an agent's pairs with none
    within reach, the agent's position is kept with its clearance, the least
    over its pairs of (distance to the centre − reach) less
    ``_REACH_SLACK_M``. While the agent stays closer than that to the kept
    position its pairs are skipped. This is exact: by the triangle
    inequality no skipped pair is within reach, so no boolean and no event
    changes, and none of the agent's pairs is in contact. A pass that finds
    a pair within reach keeps no position.
    """

    def __init__(self, scene: Scene, sim: SimParams, robot_enabled: bool = True):
        scene.check_unique_ids()
        self.sim = sim
        agents = [("human", scene.body_radius_m, scene.head_height_m)]
        if robot_enabled:
            agents.append(("robot", sim.robot_radius_m, sim.robot_height_m))

        pairs: Dict[str, list] = {agent: [] for agent, _, _ in agents}
        # obstacle order, human before robot: the order events come out in
        self._order: Dict[Tuple[str, str], int] = {}
        for ob in scene.obstacles:
            cx, cy = ob.center.tolist()
            for agent, radius, height in agents:
                if ob.z_min >= height or ob.z_max <= 0.0:
                    continue  # the z test of overlaps_vertical_cylinder: never over
                reach_sq = (ob.circumradius + radius + _REACH_SLACK_M) ** 2
                key = (agent, ob.obstacle_id)
                self._order[key] = len(self._order)
                pairs[agent].append((key, ob, cx, cy, reach_sq, math.sqrt(reach_sq), radius))
        self._human = _AgentPairs(pairs["human"])
        self._robot = _AgentPairs(pairs.get("robot", []))
        self._touching: set = set()  # (agent, obstacle_id) keys in contact
        self._debounce_ns = round(sim.collision_debounce_s * 1e9)
        self._last_event: Dict[Tuple[str, str], int] = {}  # tick time of the last event, in ns

    def in_contact(self, agent: str = "human") -> bool:
        return any(key[0] == agent for key in self._touching)

    def update(self, now: float, human_xy, robot_xy) -> List[CollisionEvent]:
        """Events of the agents at these positions; each is (x, y) or a pose, read for its first two entries."""
        events: List[CollisionEvent] = []
        agent = self._human
        x, y = human_xy[0], human_xy[1]
        dx, dy = x - agent.x, y - agent.y
        if not dx * dx + dy * dy < agent.clear_sq:
            self._pass(agent, x, y, now, events)
        agent = self._robot
        x, y = robot_xy[0], robot_xy[1]
        dx, dy = x - agent.x, y - agent.y
        if not dx * dx + dy * dy < agent.clear_sq:
            n = len(events)
            self._pass(agent, x, y, now, events)
            if 0 < n < len(events):  # both agents met something: obstacle order, human first
                events.sort(key=lambda ev: self._order[ev.agent, ev.obstacle_id])
        return events

    def _pass(self, agent: _AgentPairs, x: float, y: float, now: float, events: List[CollisionEvent]) -> None:
        """Test all of the agent's pairs at (x, y), then anchor its clearance skip there or drop it."""
        touching = self._touching
        clear = math.inf
        for key, ob, cx, cy, reach_sq, reach, radius in agent.pairs:
            dx, dy = x - cx, y - cy
            d2 = dx * dx + dy * dy
            if d2 <= reach_sq:
                clear = 0.0  # within reach: no anchor, and no later gap is below 0
                if ob.footprint_distance((x, y)) <= radius:
                    if key not in touching:
                        touching.add(key)
                        now_ns = round(now * 1e9)
                        last = self._last_event.get(key)
                        if last is None or now_ns - last >= self._debounce_ns:
                            events.append(CollisionEvent(now, key[0], ob.obstacle_id, ob.kind))
                            self._last_event[key] = now_ns
                    continue
            else:
                gap = math.sqrt(d2) - reach
                if gap < clear:
                    clear = gap
            touching.discard(key)
        clear -= _REACH_SLACK_M
        agent.x, agent.y = x, y
        agent.clear_sq = clear * clear if clear > 0.0 else 0.0


def detect_collisions(state: WorldState, now: float, tracker: CollisionTracker) -> List[CollisionEvent]:
    """Entering-transition events at ``state``, which is at time ``now`` (tracker holds history)."""
    return tracker.update(now, state.human_pose, state.robot_pose)


# ---------------------------------------------------------------------------
# unassisted baseline


@dataclass
class WalkerState:
    mode: str = "forward"  # forward | backoff | sidestep
    until: float = 0.0
    side: int = 1
    streak: int = 0  # consecutive contacts in the same engagement
    last_contact: float = -math.inf


def unassisted_walker(
    state: WorldState,
    scene: Scene,
    walker: WalkerState,
    rng: np.random.Generator,
    sim: SimParams,
    in_contact: bool,
    now: float,
) -> VelocityCommand:
    """Goal-directed walking with seeded heading wobble and a contact reflex.

    On contact the walker backs off, sidesteps, and resumes. Repeated
    contacts in quick succession keep the same side and sidestep further,
    the way a person probes around something they keep bumping into. It has
    no access to any sensor data.
    """
    jitter = float(rng.normal(0.0, sim.walker_heading_sigma_rad))
    speed = sim.walker_speed_mps
    if walker.mode == "forward" and in_contact:
        if now - walker.last_contact > 4.0:
            walker.streak = 1
            walker.side = 1 if rng.random() < 0.5 else -1
        else:
            walker.streak = min(walker.streak + 1, 4)
        walker.last_contact = now
        walker.mode = "backoff"
        walker.until = now + sim.walker_backoff_s
    if walker.mode == "backoff":
        if now >= walker.until:
            walker.mode = "sidestep"
            walker.until = now + sim.walker_sidestep_s * walker.streak
        else:
            return VelocityCommand(-0.6 * speed, 0.0, 0.0, now, CommandSource.WALKER)
    if walker.mode == "sidestep":
        if now >= walker.until:
            walker.mode = "forward"
        else:
            return VelocityCommand(0.0, walker.side * 0.6 * speed, 0.0, now, CommandSource.WALKER)
    goal = scene.goal
    hx, hy, heading = state.human_pose
    bearing = math.atan2(goal[1] - hy, goal[0] - hx)
    err = _wrap_angle(bearing + jitter - heading)
    w = min(max(2.0 * err, -1.5), 1.5)
    return VelocityCommand(speed, 0.0, w, now, CommandSource.WALKER)


# ---------------------------------------------------------------------------
# episode report


@dataclass(frozen=True)
class EpisodeReport:
    condition: Condition
    seed: int
    status: TerminationStatus
    completion_time_s: Optional[float]  # None unless the goal was reached
    collisions_total: int
    collisions_ground: int
    collisions_overhead: int
    robot_contacts: int  # diagnostics; not part of the study counts
    announcements: int
    trace_path: str

    def __post_init__(self):
        if self.collisions_total != self.collisions_ground + self.collisions_overhead:
            raise ValueError("collision counts are inconsistent")

    def to_text_record(self) -> str:
        if self.status is TerminationStatus.GOAL:
            outcome = f"goal in {self.completion_time_s:.3f} s"
        else:
            outcome = f"DNF ({self.status.value})"
        return (
            f"{self.condition.value} seed={self.seed}: {outcome}, "
            f"collisions={self.collisions_total} "
            f"(ground {self.collisions_ground}, overhead {self.collisions_overhead}), "
            f"robot contacts {self.robot_contacts}, announcements {self.announcements}, "
            f"trace {self.trace_path}"
        )


def unique_cells(cells: np.ndarray) -> np.ndarray:
    """The distinct rows of an (N, 2) int64 array, sorted: ``np.unique(cells, axis=0)``.

    Each row packs into one int64 key, ``(ix << 32) + (iy + 2**31)``, which
    is monotone in (ix, iy) while both fit in an int32, so the sorted keys
    unpack to the same rows in the same order, far faster than a row sort.
    The keys are sorted and a key kept where it differs from the one before
    it, which is what ``np.unique`` returns; ``np.unique`` itself takes a
    hash path on int64 keys in numpy 2.x that costs several times the sort
    on the few hundred keys of a frame.
    """
    keys = np.sort((cells[:, 0] << 32) + (cells[:, 1] + 2**31))
    first = np.empty(keys.shape, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    return np.column_stack([keys >> 32, (keys & 0xFFFFFFFF) - 2**31])


def jitter_scene(scene: Scene, amount: float, rng: np.random.Generator) -> Scene:
    """Shift every obstacle by an independent uniform offset in x and y."""
    if amount <= 0:
        return scene
    moved = tuple(
        replace(ob, center=ob.center + rng.uniform(-amount, amount, size=2))
        for ob in scene.obstacles
    )
    return replace(scene, obstacles=moved)


# ---------------------------------------------------------------------------
# engine


def _tick_ns(k: int, rate_hz: float) -> int:
    """Time of tick ``k`` of a task at ``rate_hz``, in integer nanoseconds; tick 0 is at 0."""
    return round(k * 1e9 / rate_hz)  # round of a float is an int


class _Episode:
    def __init__(
        self,
        config: EpisodeConfig,
        condition: Condition,
        seed: int,
        out_dir: Path,
        trace_name: Optional[str],
        describer: Optional[Describer],
    ):
        config.validate()
        self.config = config
        self.condition = condition
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.trace_name = trace_name or f"{config.name}_{condition.value}_seed{seed:04d}.csv"

        # one stream per consumer, so that the chest camera's noise draws
        # leave the robot camera's as they are in single-view at the same seed
        streams = np.random.SeedSequence(seed).spawn(4)
        rng_scene = np.random.default_rng(streams[0])
        self.rng_walker = np.random.default_rng(streams[1])
        self.rng_robot_noise = np.random.default_rng(streams[2])
        self.rng_chest_noise = np.random.default_rng(streams[3])

        self.scene = jitter_scene(config.scene, config.jitter_xy_m, rng_scene)
        try:
            self.scene.validate(robot_clearance_m=config.perception.z_band_high_m)
        except ValueError as exc:
            raise ConfigError(f"jittered scene invalid: {exc}") from exc

        x, y, heading = self.scene.start_robot.tolist()
        leash = self.scene.leash_length_m
        # the unassisted walker moves the person and leaves the robot parked
        self.drive_human = condition is Condition.UNASSISTED
        init_source = CommandSource.WALKER if self.drive_human else CommandSource.APF
        self.executed = VelocityCommand.zero(0.0, init_source)
        self.state = WorldState(
            robot_pose=(x, y, heading),
            robot_vel=self.executed,
            human_pose=(x - leash * math.cos(heading), y - leash * math.sin(heading), heading),
            human_bend=self._bend_at(0.0),
        )

        self.goal_x, self.goal_y = self.scene.goal.tolist()
        self.follower = FollowerParams(
            self.scene.leash_length_m, config.sim.follower_gain_hz, config.sim.human_speed_cap_mps
        )
        self.branch = HumanBranch(config.safety)
        self.tracker = CollisionTracker(
            self.scene, config.sim, robot_enabled=condition is not Condition.UNASSISTED
        )
        self.walker = WalkerState()
        self.describer = describer if describer is not None else TemplateDescriber()
        self.roi = config.sentinel.roi or default_roi(config.rig.robot_intrinsics)
        # the cull changes which pixels are valid, so with noise on it would
        # change how many noise values each chest frame draws
        self.cull_chest_scene = config.sim.depth_sigma_m == 0 and chest_camera_in_hazard_box(
            config.rig, self.scene.chest_height_m, config.safety
        )
        self.chest_scene: Optional[Scene] = None  # the last culled chest scene
        # the robot camera's scene: its cull depends on no pose, so it is made
        # once, and, as for the chest, never with noise on
        self.robot_scene = self.scene
        if config.sim.depth_sigma_m == 0 and robot_camera_in_band(config.rig, config.perception, self.roi):
            self.robot_scene = band_scene(self.scene, config.perception)

        # each branch's newest command, None before its first
        self.apf_cmd: Optional[VelocityCommand] = None
        self.human_cmd: Optional[VelocityCommand] = None
        self.cloud_memory: List[Tuple[float, np.ndarray]] = []  # (expiry, world xy)
        self.decision: Optional[ArbitrationDecision] = None
        self.roi_depth: Optional[float] = None
        self._command_changed()
        self.last_fire: Optional[float] = None
        self.announcements: List[HazardEvent] = []
        self.rows: List[str] = []
        self.collisions: List[CollisionEvent] = []
        self.stall_since_ns: Optional[int] = None
        self.stall_window_ns = round(config.sim.stall_window_s * 1e9)
        self.status: Optional[TerminationStatus] = None
        # the time of ``state``: after physics tick k, the scheduler's time of tick k + 1
        self.time = 0.0
        self.physics_ticks = 0
        self.physics_rate_hz = 1.0 / config.sim.dt

    # -- schedule -----------------------------------------------------------

    def _tasks(self) -> List[Tuple[float, int, Callable[[float], None]]]:
        """(rate Hz, priority, tick) per task; at one instant lower priorities tick first."""
        sim = self.config.sim
        physics = (self.physics_rate_hz, 40, self._physics_tick)
        if self.condition is Condition.UNASSISTED:
            return [(sim.walker_rate_hz, 30, self._walker_tick), physics]
        tasks = [
            (sim.planner_rate_hz, 10, self._planner_tick),
            (self.config.arbiter.tick_rate, 30, self._arbiter_tick),
            physics,
        ]
        if self.condition is Condition.CROSS_VIEW:
            tasks.append((sim.chest_rate_hz, 20, self._chest_tick))
        return tasks

    def run(self) -> EpisodeReport:
        self.rows.append(self._format_row(events=[]))
        tasks = self._tasks()
        # (t_ns, priority, task index, ticks done); priorities are distinct,
        # so the index never decides the order
        heap = [(0, priority, i, 0) for i, (_, priority, _) in enumerate(tasks)]
        heapq.heapify(heap)
        while self.status is None:
            t_ns, priority, i, k = heapq.heappop(heap)
            rate, _, tick = tasks[i]
            tick(t_ns * 1e-9)
            heapq.heappush(heap, (_tick_ns(k + 1, rate), priority, i, k + 1))
        return self._finish()

    # -- tasks ---------------------------------------------------------------

    def _planner_tick(self, now: float) -> None:
        cfg = self.config
        x, y, th = self.state.robot_pose
        c, s = math.cos(th), math.sin(th)
        extra = None
        if self.cloud_memory:
            self.cloud_memory = [item for item in self.cloud_memory if item[0] > now]
            if self.cloud_memory:
                world = np.vstack([pts for _, pts in self.cloud_memory])
                # column by column: numpy's broadcast over rows of two is slow
                rx, ry = world[:, 0] - x, world[:, 1] - y
                extra = np.column_stack([c * rx + s * ry, -s * rx + c * ry])
        img, band, costmap = robot_branch_observation(
            self.robot_scene,
            self.state.robot_pose,
            cfg.rig,
            cfg.perception,
            depth_sigma=cfg.sim.depth_sigma_m,
            rng=self.rng_robot_noise,
            extra_xy=extra,
        )
        if cfg.sim.costmap_memory_s > 0 and band.points.shape[0] > 0:
            # remember this frame's occupied cells in the world frame,
            # decimated to the grid pitch
            bxy = band.points[:, :2]
            wxy = np.column_stack(
                [x + c * bxy[:, 0] - s * bxy[:, 1], y + s * bxy[:, 0] + c * bxy[:, 1]]
            )
            res = cfg.perception.resolution_m
            cells = unique_cells(np.round(wxy / res).astype(np.int64))
            self.cloud_memory.append((now + cfg.sim.costmap_memory_s, cells * res))
        dx, dy = self.scene.goal[0] - x, self.scene.goal[1] - y
        goal_base = np.array([c * dx + s * dy, -s * dx + c * dy])
        force = apf_force(np.zeros(2), goal_base, costmap, cfg.apf)
        self.apf_cmd = admittance_map(force, cfg.apf, self.apf_cmd, now)

        self.roi_depth = roi_min_depth(img, self.roi)
        self._command_changed()
        if cfg.sentinel_enabled:
            trig = check_trigger(self.roi_depth, now, cfg.sentinel, self.last_fire)
            if trig is not None:
                self.last_fire = trig.stamp
                # announcements stay out of the command trace: the sentinel is
                # a passenger-facing channel and must not perturb what the
                # trace records about executed motion
                event = describe(
                    trig, frustum_summary(self.scene, self.state.robot_pose, cfg.rig), self.describer
                )
                self.announcements.append(event)

    def _chest_tick(self, now: float) -> None:
        cfg = self.config
        scene = self.scene
        if self.cull_chest_scene:
            scene = self.chest_scene = corridor_scene(
                scene, self.state.human_pose, cfg.safety, self.chest_scene
            )
        _, cloud = chest_observation(
            scene,
            self.state.human_pose,
            self.state.human_bend,
            cfg.rig,
            depth_sigma=cfg.sim.depth_sigma_m,
            rng=self.rng_chest_noise,
        )
        self.human_cmd = self.branch.update(cloud, now)

    def _arbiter_tick(self, now: float) -> None:
        decision = arbiter_tick(self.apf_cmd, self.human_cmd, now, self.config.arbiter)
        self.decision = decision
        self.executed = _exec_round(decision.selected, self.config.sim.exec_min_command)
        self._command_changed()

    def _walker_tick(self, now: float) -> None:
        self.executed = unassisted_walker(
            self.state,
            self.scene,
            self.walker,
            self.rng_walker,
            self.config.sim,
            self.tracker.in_contact("human"),
            now,
        )
        self._command_changed()

    def _physics_tick(self, now: float) -> None:
        """Step from ``now`` to the next physics tick's time and judge the state there."""
        sim = self.config.sim
        self.state = step(self.state, self.executed, sim.dt, self.scene, self.follower, self.drive_human)
        self.physics_ticks += 1
        t_ns = _tick_ns(self.physics_ticks, self.physics_rate_hz)
        t = self.time = t_ns * 1e-9
        if self.config.bend_window_s is not None:
            self.state.human_bend = self._bend_at(t)

        events: List[str] = []
        for ev in detect_collisions(self.state, t, self.tracker):
            self.collisions.append(ev)
            if ev.agent == "human":
                events.append(f"collision:{ev.kind.value}:{ev.obstacle_id}")
            else:
                events.append(f"robot_contact:{ev.obstacle_id}")

        x, y, _ = self.state.human_pose if self.drive_human else self.state.robot_pose
        tolerance = sim.goal_tolerance_m
        if _hypot_vs(self.goal_x - x, self.goal_y - y, tolerance) <= tolerance:
            self.status = TerminationStatus.GOAL
        elif self._stalled(t, t_ns):
            self.status = TerminationStatus.STALLED
        elif t >= sim.timeout_s:
            self.status = TerminationStatus.TIMEOUT
        if self.status is not None:
            events.append(self.status.value)
        self.rows.append(self._format_row(events))

    def _stalled(self, t: float, t_ns: int) -> bool:
        """Whether the command has stayed below the stall norm for the stall window, past the grace.

        The window is measured on the tick times in whole nanoseconds, so a
        stall of exactly ``stall_window_s`` ends the episode.
        """
        sim = self.config.sim
        if t <= sim.stall_grace_s or self.executed_norm >= sim.stall_norm:
            self.stall_since_ns = None
            return False
        if self.stall_since_ns is None:
            self.stall_since_ns = t_ns
            return False
        return t_ns - self.stall_since_ns >= self.stall_window_ns

    def _bend_at(self, t: float) -> BendPose:
        win = self.config.bend_window_s
        if win is not None and win[0] <= t < win[1]:
            return BendPose.BENT
        return BendPose.UPRIGHT

    # -- output ---------------------------------------------------------------

    def _command_changed(self) -> None:
        """Format the command columns and the norm of ``executed`` once per change.

        Every write to ``executed``, ``decision`` or ``roi_depth`` is followed
        by this call, so the physics ticks in between reuse both.
        """
        cmd = self.executed
        a = self.decision.a if self.decision is not None else 0
        depth = "" if self.roi_depth is None else "%.3f" % self.roi_depth
        self.command_columns = _COMMAND_COLUMNS % (cmd.source.value, a, cmd.v_x, cmd.v_y, cmd.w_z, depth)
        self.executed_norm = command_norm(cmd, self.config.arbiter.char_length)

    def _format_row(self, events: Sequence[str]) -> str:
        rx, ry, rth = self.state.robot_pose
        hx, hy, _ = self.state.human_pose
        return _ROW % (self.time, rx, ry, rth, hx, hy, self.command_columns, "|".join(events))

    def _finish(self) -> EpisodeReport:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = self.out_dir / self.trace_name
        trace_path.write_text(TRACE_HEADER + "\n" + "\n".join(self.rows) + "\n")
        if self.config.sentinel_enabled and self.condition is not Condition.UNASSISTED:
            lines = [f"{ev.stamp:.3f}\t{ev.announcement}" for ev in self.announcements]
            trace_path.with_suffix(".announcements.txt").write_text(
                "\n".join(lines) + ("\n" if lines else "")
            )
        human_hits = [ev for ev in self.collisions if ev.agent == "human"]
        ground = sum(1 for ev in human_hits if ev.kind is ObstacleKind.GROUND)
        overhead = sum(1 for ev in human_hits if ev.kind is ObstacleKind.OVERHEAD)
        robot_hits = sum(1 for ev in self.collisions if ev.agent == "robot")
        return EpisodeReport(
            condition=self.condition,
            seed=self.seed,
            status=self.status,
            completion_time_s=self.time if self.status is TerminationStatus.GOAL else None,
            collisions_total=ground + overhead,
            collisions_ground=ground,
            collisions_overhead=overhead,
            robot_contacts=robot_hits,
            announcements=len(self.announcements),
            trace_path=str(trace_path),
        )


def _exec_round(cmd: VelocityCommand, threshold: float) -> VelocityCommand:
    """Chassis-side rounding: components at or below the threshold become zero."""

    def snap(v: float) -> float:
        return 0.0 if abs(v) <= threshold else v

    return VelocityCommand(snap(cmd.v_x), snap(cmd.v_y), snap(cmd.w_z), cmd.stamp, cmd.source)


def check_seed(seed) -> None:
    """Raise ConfigError naming ``seed`` unless it is a non-negative integer (a bool is not one)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed {seed!r} must be a non-negative integer")


def run_episode(
    config: EpisodeConfig,
    condition: Condition,
    seed: int,
    out_dir,
    trace_name: Optional[str] = None,
    describer: Optional[Describer] = None,
) -> EpisodeReport:
    """Run one deterministic episode and write its trace.

    Identical (config, condition, seed) inputs produce byte-identical trace
    files. Raises ConfigError for invalid scenarios and for a seed that is
    not a non-negative integer.
    """
    check_seed(seed)
    return _Episode(config, condition, seed, Path(out_dir), trace_name, describer).run()
