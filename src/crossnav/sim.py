"""Closed-loop episode engine.

One episode couples a differential-drive robot (with strafe), a leashed
human follower, two depth cameras at different heights, the potential-field
planner, the reactive chest-view branch, the priority arbiter, and the
depth sentinel. Tasks run at fixed rates on a single discrete event
timeline with integer-nanosecond timestamps, so a given (scenario,
condition, seed) always replays the exact same episode.

Three study conditions are supported: an unassisted walker baseline, a
robot-only stack (no chest view), and the full cross-view stack.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arbiter import ArbiterConfig, ArbitrationDecision, LatestValueStore, command_norm
from .arbiter import tick as arbiter_tick
from .geometry import (
    OPTICAL_PHYSICAL_PAIRS,
    FrameId,
    PointCloud,
    RigidTransform,
    compose,
    optical_to_physical,
    rot_y,
    rot_z,
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
    """Everything that evolves during an episode; advanced only by step()."""

    time: float
    robot_pose: np.ndarray  # (3,) x, y, theta in the world frame
    robot_vel: VelocityCommand  # executed command
    human_pose: np.ndarray  # (3,) x, y, heading
    human_bend: BendPose
    rng_seed: int


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
    """Camera intrinsics and mounting for both viewpoints."""

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
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")
        for name in ("planner_rate_hz", "chest_rate_hz", "walker_rate_hz"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.exec_min_command < 0 or self.depth_sigma_m < 0:
            raise ConfigError("exec_min_command and depth_sigma_m must be non-negative")
        if self.costmap_memory_s < 0:
            raise ConfigError("costmap_memory_s must be non-negative")


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
            raise ConfigError(str(exc)) from exc
        if self.jitter_xy_m < 0:
            raise ConfigError("jitter_xy_m must be non-negative")
        if self.bend_window_s is not None:
            lo, hi = self.bend_window_s
            if lo >= hi or lo < 0:
                raise ConfigError("bend_window_s must be an increasing non-negative pair")
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
        time=state.time + dt,
        robot_pose=robot,
        robot_vel=robot_vel,
        human_pose=human,
        human_bend=state.human_bend,
        rng_seed=state.rng_seed,
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


def robot_camera_pose(robot_pose: np.ndarray, rig: SensorRig, stamp: float = 0.0) -> RigidTransform:
    """World pose of the robot's forward depth camera (optical frame)."""
    x, y, th = robot_pose
    world_from_base = RigidTransform(rot_z(th), np.array([x, y, 0.0]), FrameId.ROBOT_BASE, FrameId.WORLD, stamp)
    return compose(world_from_base, _robot_mount(rig))


def chest_camera_pose(
    human_pose: np.ndarray, bend: BendPose, rig: SensorRig, chest_height_m: float, stamp: float = 0.0
) -> RigidTransform:
    """World pose of the chest-mounted depth camera; bending pitches it down."""
    x, y, heading = human_pose
    world_from_body = RigidTransform(
        rot_z(heading), np.array([x, y, 0.0]), FrameId.PHYSICAL_HUMAN, FrameId.WORLD, stamp
    )
    return compose(world_from_body, _chest_mount(rig, bend, chest_height_m))


def robot_branch_observation(
    scene: Scene,
    robot_pose: np.ndarray,
    rig: SensorRig,
    spec: PerceptionSpec,
    stamp: float = 0.0,
    depth_sigma: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    extra_xy: Optional[np.ndarray] = None,
) -> Tuple[DepthImage, PointCloud, Costmap2D]:
    """Robot-view sensing: depth image, height-banded base-frame cloud, inflated costmap.

    ``extra_xy`` stamps additional base-frame ground points (e.g. short-term
    memory of obstacles that just left the camera cone) into the costmap
    before inflation.
    """
    img = render_depth(scene, robot_camera_pose(robot_pose, rig, stamp), rig.robot_intrinsics)
    if depth_sigma > 0 and rng is not None:
        img = apply_depth_noise(img, depth_sigma, rng)
    cloud = transform_points(_robot_mount(rig), deproject(img))
    band = passthrough_filter(cloud, spec.z_band_low_m, spec.z_band_high_m)
    map_points = band.points
    if extra_xy is not None and extra_xy.shape[0] > 0:
        pad = np.column_stack([extra_xy, np.zeros(extra_xy.shape[0])])
        map_points = np.vstack([map_points, pad]) if map_points.size else pad
    merged = PointCloud(map_points, FrameId.ROBOT_BASE, stamp)
    grid = build_costmap(merged, spec.origin_xy, spec.resolution_m, spec.width, spec.height)
    return img, band, inflate(grid, spec.r_inf_m)


def chest_observation(
    scene: Scene,
    human_pose: np.ndarray,
    bend: BendPose,
    rig: SensorRig,
    stamp: float = 0.0,
    depth_sigma: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[DepthImage, PointCloud]:
    """Chest-view sensing: depth image and the cloud in the human body frame."""
    pose = chest_camera_pose(human_pose, bend, rig, scene.chest_height_m, stamp)
    img = render_depth(scene, pose, rig.chest_intrinsics)
    if depth_sigma > 0 and rng is not None:
        img = apply_depth_noise(img, depth_sigma, rng)
    cloud = transform_points(_chest_mount(rig, bend, scene.chest_height_m), deproject(img))
    return img, cloud


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


class CollisionTracker:
    """Entering-transition collision counter with per-obstacle debounce.

    The human is a vertical cylinder from the ground to head height; the
    robot a shorter, wider one. Re-contact with the same obstacle inside the
    debounce window is not a new event.
    """

    def __init__(self, scene: Scene, sim: SimParams, robot_enabled: bool = True):
        self.scene = scene
        self.sim = sim
        self.robot_enabled = robot_enabled
        self._overlap: Dict[Tuple[str, str], bool] = {}
        self._last_event: Dict[Tuple[str, str], float] = {}

    def in_contact(self, agent: str = "human") -> bool:
        return any(over and key[0] == agent for key, over in self._overlap.items())

    def _transition(
        self, agent: str, obstacle_id: str, kind: ObstacleKind, over: bool, now: float, out: list
    ) -> None:
        key = (agent, obstacle_id)
        if over and not self._overlap.get(key, False):
            last = self._last_event.get(key)
            if last is None or now - last >= self.sim.collision_debounce_s:
                out.append(CollisionEvent(now, agent, obstacle_id, kind))
                self._last_event[key] = now
        self._overlap[key] = over

    def update(self, now: float, human_xy: np.ndarray, robot_xy: Optional[np.ndarray]) -> List[CollisionEvent]:
        events: List[CollisionEvent] = []
        for ob in self.scene.obstacles:
            over_h = ob.overlaps_vertical_cylinder(
                human_xy, self.scene.body_radius_m, 0.0, self.scene.head_height_m
            )
            self._transition("human", ob.obstacle_id, ob.kind, over_h, now, events)
            if self.robot_enabled and robot_xy is not None:
                over_r = ob.overlaps_vertical_cylinder(
                    robot_xy, self.sim.robot_radius_m, 0.0, self.sim.robot_height_m
                )
                self._transition("robot", ob.obstacle_id, ob.kind, over_r, now, events)
        return events


def detect_collisions(state: WorldState, scene: Scene, tracker: CollisionTracker) -> List[CollisionEvent]:
    """Entering-transition events at the current state (tracker holds history)."""
    robot_xy = state.robot_pose[:2] if tracker.robot_enabled else None
    return tracker.update(state.time, state.human_pose[:2], robot_xy)


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

        streams = np.random.SeedSequence(seed).spawn(3)
        rng_scene = np.random.default_rng(streams[0])
        self.rng_walker = np.random.default_rng(streams[1])
        self.rng_noise = np.random.default_rng(streams[2])

        self.scene = jitter_scene(config.scene, config.jitter_xy_m, rng_scene)
        try:
            self.scene.validate(robot_clearance_m=config.perception.z_band_high_m)
        except ValueError as exc:
            raise ConfigError(f"jittered scene invalid: {exc}") from exc

        start = self.scene.start_robot
        heading = float(start[2])
        human_xy = start[:2] - self.scene.leash_length_m * np.array(
            [math.cos(heading), math.sin(heading)]
        )
        init_source = (
            CommandSource.WALKER if condition is Condition.UNASSISTED else CommandSource.APF
        )
        self.executed = VelocityCommand.zero(0.0, init_source)
        self.state = WorldState(
            time=0.0,
            robot_pose=start.copy(),
            robot_vel=self.executed,
            human_pose=np.array([human_xy[0], human_xy[1], heading]),
            human_bend=self._bend_at(0.0),
            rng_seed=seed,
        )

        self.follower = FollowerParams(
            self.scene.leash_length_m, config.sim.follower_gain_hz, config.sim.human_speed_cap_mps
        )
        self.store = LatestValueStore()
        self.branch = HumanBranch(config.safety)
        self.tracker = CollisionTracker(
            self.scene, config.sim, robot_enabled=condition is not Condition.UNASSISTED
        )
        self.walker = WalkerState()
        self.describer = describer if describer is not None else TemplateDescriber()
        self.roi = config.sentinel.roi or default_roi(config.rig.robot_intrinsics)

        self.prev_apf: Optional[VelocityCommand] = None
        self.cloud_memory: List[Tuple[float, np.ndarray]] = []  # (expiry, world xy)
        self.decision: Optional[ArbitrationDecision] = None
        self.roi_depth: Optional[float] = None
        self.last_fire: Optional[float] = None
        self.announcements: List[HazardEvent] = []
        self.rows: List[str] = []
        self.collisions: List[CollisionEvent] = []
        self.stall_since: Optional[float] = None
        self.status: Optional[TerminationStatus] = None
        self.end_time: Optional[float] = None

    # -- schedule -----------------------------------------------------------

    def _tasks(self) -> List[Tuple[float, int, Callable[[float], None]]]:
        """(rate Hz, priority, tick) per task; at one instant lower priorities tick first."""
        sim = self.config.sim
        physics = (1.0 / sim.dt, 40, self._physics_tick)
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
            heapq.heappush(heap, (int(round((k + 1) * 1e9 / rate)), priority, i, k + 1))
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
                rel = world - (x, y)
                extra = np.column_stack(
                    [c * rel[:, 0] + s * rel[:, 1], -s * rel[:, 0] + c * rel[:, 1]]
                )
        img, band, costmap = robot_branch_observation(
            self.scene,
            self.state.robot_pose,
            cfg.rig,
            cfg.perception,
            stamp=now,
            depth_sigma=cfg.sim.depth_sigma_m,
            rng=self.rng_noise,
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
            cells = np.unique(np.round(wxy / res).astype(np.int64), axis=0)
            self.cloud_memory.append((now + cfg.sim.costmap_memory_s, cells * res))
        dx, dy = self.scene.goal[0] - x, self.scene.goal[1] - y
        goal_base = np.array([c * dx + s * dy, -s * dx + c * dy])
        force = apf_force(np.zeros(2), goal_base, costmap, cfg.apf)
        cmd = admittance_map(force, cfg.apf, self.prev_apf, now)
        self.prev_apf = cmd
        self.store.publish(cmd)

        self.roi_depth = roi_min_depth(img, self.roi)
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
        _, cloud = chest_observation(
            self.scene,
            self.state.human_pose,
            self.state.human_bend,
            cfg.rig,
            stamp=now,
            depth_sigma=cfg.sim.depth_sigma_m,
            rng=self.rng_noise,
        )
        self.store.publish(self.branch.update(cloud, now))

    def _arbiter_tick(self, now: float) -> None:
        decision = arbiter_tick(self.store, now, self.config.arbiter)
        self.decision = decision
        self.executed = _exec_round(decision.selected, self.config.sim.exec_min_command)

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

    def _physics_tick(self, now: float) -> None:
        sim = self.config.sim
        self.state = step(
            self.state,
            self.executed,
            sim.dt,
            self.scene,
            self.follower,
            drive_human=self.condition is Condition.UNASSISTED,
        )
        self.state.human_bend = self._bend_at(self.state.time)

        events: List[str] = []
        for ev in detect_collisions(self.state, self.scene, self.tracker):
            self.collisions.append(ev)
            if ev.agent == "human":
                events.append(f"collision:{ev.kind.value}:{ev.obstacle_id}")
            else:
                events.append(f"robot_contact:{ev.obstacle_id}")

        goal_xy = (
            self.state.human_pose[:2]
            if self.condition is Condition.UNASSISTED
            else self.state.robot_pose[:2]
        )
        dist_goal = float(np.hypot(*(self.scene.goal - goal_xy)))
        if dist_goal <= sim.goal_tolerance_m:
            self.status = TerminationStatus.GOAL
        elif self._stalled(now):
            self.status = TerminationStatus.STALLED
        elif self.state.time >= sim.timeout_s - 1e-9:
            self.status = TerminationStatus.TIMEOUT
        if self.status is not None:
            events.append(self.status.value)
            self.end_time = self.state.time
        self.rows.append(self._format_row(events))

    def _stalled(self, now: float) -> bool:
        sim = self.config.sim
        if self.state.time <= sim.stall_grace_s:
            return False
        norm = command_norm(self.executed, self.config.arbiter.char_length)
        if norm >= sim.stall_norm:
            self.stall_since = None
            return False
        if self.stall_since is None:
            self.stall_since = self.state.time
            return False
        return self.state.time - self.stall_since >= sim.stall_window_s

    def _bend_at(self, t: float) -> BendPose:
        win = self.config.bend_window_s
        if win is not None and win[0] <= t < win[1]:
            return BendPose.BENT
        return BendPose.UPRIGHT

    # -- output ---------------------------------------------------------------

    def _format_row(self, events: Sequence[str]) -> str:
        st = self.state
        cmd = self.executed
        a = self.decision.a if self.decision is not None else 0
        depth = "" if self.roi_depth is None else f"{self.roi_depth:.3f}"
        return (
            f"{st.time:.3f},{st.robot_pose[0]:.6f},{st.robot_pose[1]:.6f},{st.robot_pose[2]:.6f},"
            f"{st.human_pose[0]:.6f},{st.human_pose[1]:.6f},{cmd.source.value},{a},"
            f"{cmd.v_x:.6f},{cmd.v_y:.6f},{cmd.w_z:.6f},{depth},{'|'.join(events)}"
        )

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
            completion_time_s=self.end_time if self.status is TerminationStatus.GOAL else None,
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

    return replace(cmd, v_x=snap(cmd.v_x), v_y=snap(cmd.v_y), w_z=snap(cmd.w_z))


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
    files. Raises ConfigError for invalid scenarios.
    """
    return _Episode(config, condition, seed, Path(out_dir), trace_name, describer).run()
