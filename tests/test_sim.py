"""World stepping, sensing pipelines, collision accounting, and full episodes."""

import csv
import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from crossnav import sim
from crossnav.arbiter import ArbiterConfig, ArbitrationDecision, command_norm
from crossnav.geometry import FrameId, RigidTransform, compose, rot_z
from crossnav.harness import load_scenario
from crossnav.human_branch import HumanSafetyParams, detect_hazard
from crossnav.perception import nonfree_centers
from crossnav.planner import ApfParams, CommandSource, VelocityCommand
from crossnav.sentinel import SentinelConfig
from crossnav.sim import (
    BendPose,
    CollisionTracker,
    Condition,
    ConfigError,
    EpisodeConfig,
    EpisodeReport,
    FollowerParams,
    PerceptionSpec,
    SensorRig,
    SimParams,
    TerminationStatus,
    TRACE_HEADER,
    WalkerState,
    WorldState,
    _Episode,
    _chest_mount,
    _exec_round,
    _mount,
    _robot_mount,
    chest_camera_pose,
    chest_camera_in_hazard_box,
    chest_observation,
    corridor_scene,
    default_rig,
    detect_collisions,
    frustum_summary,
    human_follower,
    jitter_scene,
    robot_branch_observation,
    robot_camera_pose,
    run_episode,
    step,
    unassisted_walker,
    unique_cells,
)
from crossnav.world import Obstacle, ObstacleKind, ObstacleShape, Scene

import parent_physics
from test_golden import _openblas_picks_kernels_and_cpu_has_avx2


def box(center, half, z=(0.0, 0.5), kind=ObstacleKind.GROUND, oid="b"):
    return Obstacle(oid, ObstacleShape.BOX, np.array(center), z[0], z[1], kind,
                    half_extents=np.array(half))


def cyl(center, radius, z, kind=ObstacleKind.OVERHEAD, oid="c"):
    return Obstacle(oid, ObstacleShape.CYLINDER, np.array(center), z[0], z[1], kind,
                    radius=radius)


def scene_of(obstacles=(), goal=(3.5, 0.0), corridor=((-2.0, -2.0), (6.0, 2.0)),
             start=(0.0, 0.0, 0.0)):
    return Scene(
        obstacles=tuple(obstacles),
        start_robot=np.array(start),
        goal=np.array(goal),
        corridor_min=np.array(corridor[0]),
        corridor_max=np.array(corridor[1]),
        leash_length_m=1.0,
        chest_height_m=1.1,
        body_radius_m=0.25,
        head_height_m=1.7,
    )


def config_of(scene, name="mini", **kw):
    sim_kw = kw.pop("sim", {})
    sim_kw.setdefault("timeout_s", 40.0)
    return EpisodeConfig(
        scene=scene,
        rig=kw.pop("rig", default_rig()),
        perception=PerceptionSpec(),
        apf=ApfParams(),
        safety=kw.pop("safety", HumanSafetyParams(d_safe=1.2)),
        arbiter=ArbiterConfig(),
        sentinel=SentinelConfig(),
        sim=SimParams(**sim_kw),
        name=name,
        **kw,
    )


def world_state(robot=(0.0, 0.0, 0.0), human=(-1.0, 0.0, 0.0)):
    return WorldState(
        robot_pose=tuple(map(float, robot)),
        robot_vel=VelocityCommand.zero(0.0, CommandSource.APF),
        human_pose=tuple(map(float, human)),
        human_bend=BendPose.UPRIGHT,
    )


def cmd(v_x=0.0, v_y=0.0, w_z=0.0, source=CommandSource.APF):
    return VelocityCommand(v_x, v_y, w_z, 0.0, source)


EMPTY = scene_of()


class TestStepKinematics:
    def test_straight_line(self):
        s1 = step(world_state(), cmd(v_x=1.0), 0.02, EMPTY)
        np.testing.assert_allclose(s1.robot_pose, [0.02, 0.0, 0.0], atol=1e-15)

    def test_step_keeps_no_time(self):
        # the scheduler is the only clock: the state carries poses and the command
        assert [f.name for f in dataclasses.fields(WorldState)] == [
            "robot_pose", "robot_vel", "human_pose", "human_bend"
        ]

    def test_strafe_moves_along_body_y(self):
        s1 = step(world_state(), cmd(v_y=0.5), 0.02, EMPTY)
        np.testing.assert_allclose(s1.robot_pose, [0.0, 0.01, 0.0], atol=1e-15)

    def test_heading_rotates_the_body_frame(self):
        s1 = step(world_state(robot=(0.0, 0.0, math.pi / 2)), cmd(v_x=1.0), 0.02, EMPTY)
        np.testing.assert_allclose(s1.robot_pose[:2], [0.0, 0.02], atol=1e-15)

    def test_turn_integrates_and_wraps(self):
        s1 = step(world_state(robot=(0.0, 0.0, 3.13)), cmd(w_z=1.0), 0.02, EMPTY)
        expect = math.atan2(math.sin(3.15), math.cos(3.15))
        assert s1.robot_pose[2] == pytest.approx(expect)
        assert s1.robot_pose[2] < 0  # wrapped past pi

    def test_euler_update_matches_formula(self, rng):
        for _ in range(20):
            pose = rng.uniform(-1.0, 1.0, 3)
            v_x, v_y, w_z = rng.uniform(-0.5, 0.5, 3)
            s1 = step(world_state(robot=pose), cmd(v_x, v_y, w_z), 0.02, EMPTY)
            c, s = math.cos(pose[2]), math.sin(pose[2])
            assert s1.robot_pose[0] == pytest.approx(pose[0] + (v_x * c - v_y * s) * 0.02)
            assert s1.robot_pose[1] == pytest.approx(pose[1] + (v_x * s + v_y * c) * 0.02)

    def test_executed_command_is_recorded(self):
        c = cmd(v_x=0.3)
        s1 = step(world_state(), c, 0.02, EMPTY)
        assert s1.robot_vel is c

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            step(world_state(), cmd(), 0.0, EMPTY)


class TestCorridorClamp:
    def test_robot_stops_at_the_wall(self):
        state = world_state(robot=(5.99, 0.0, 0.0))
        s1 = step(state, cmd(v_x=1.0), 0.02, EMPTY)
        assert s1.robot_pose[0] == 6.0  # corridor_max.x

    def test_human_keeps_body_radius_from_the_wall(self):
        state = world_state(human=(0.0, 1.74, math.pi / 2))
        s1 = step(state, cmd(v_x=1.0), 0.02, EMPTY, drive_human=True)
        assert s1.human_pose[1] == pytest.approx(2.0 - EMPTY.body_radius_m)


class TestHumanFollower:
    def test_taut_leash_pulls_at_capped_speed(self):
        state = world_state(robot=(3.0, 0.0, 0.0), human=(0.0, 0.0, 0.0))
        params = FollowerParams(leash_length_m=1.0, gain_hz=2.0, speed_cap_mps=1.5)
        new = human_follower(state, params, 0.02)
        # advance 2 m, gain 2 -> 4 m/s, capped at 1.5
        np.testing.assert_allclose(new[:2], [1.5 * 0.02, 0.0], atol=1e-15)
        assert new[2] == pytest.approx(0.0)  # faces the robot

    def test_proportional_below_the_cap(self):
        state = world_state(robot=(1.4, 0.0, 0.0), human=(0.0, 0.0, 0.0))
        params = FollowerParams(1.0, 2.0, 1.5)
        new = human_follower(state, params, 0.02)
        assert new[0] == pytest.approx(2.0 * 0.4 * 0.02)

    def test_slack_leash_waits(self):
        state = world_state(robot=(0.5, 0.3, 0.0), human=(0.0, 0.0, 0.7))
        new = human_follower(state, FollowerParams(1.0, 2.0, 1.5), 0.02)
        np.testing.assert_allclose(new[:2], [0.0, 0.0])
        # the head still tracks the robot even while standing
        assert new[2] == pytest.approx(math.atan2(0.3, 0.5))

    def test_exactly_leash_length_is_slack(self):
        state = world_state(robot=(1.0, 0.0, 0.0), human=(0.0, 0.0, 0.0))
        new = human_follower(state, FollowerParams(1.0, 2.0, 1.5), 0.02)
        np.testing.assert_allclose(new[:2], [0.0, 0.0])

    def test_coincident_positions_stay_finite(self):
        state = world_state(robot=(0.0, 0.0, 0.0), human=(0.0, 0.0, 0.4))
        new = human_follower(state, FollowerParams(1.0, 2.0, 1.5), 0.02)
        assert np.all(np.isfinite(new))
        assert new[2] == pytest.approx(0.4)  # keeps the previous heading

    def test_never_backs_up_or_overshoots(self, rng):
        # while gain * dt <= 1 the follower never crosses inside leash range
        params = FollowerParams(1.0, 2.0, 1.5)
        for _ in range(50):
            robot = rng.uniform(-3.0, 3.0, 2)
            human = rng.uniform(-3.0, 3.0, 2)
            state = world_state(robot=(*robot, 0.0), human=(*human, 0.0))
            before = float(np.hypot(*(robot - human)))
            new = human_follower(state, params, 0.02)
            after = float(np.hypot(*(robot - new[:2])))
            if before >= params.leash_length_m:
                assert params.leash_length_m - 1e-12 <= after <= before + 1e-12
            else:
                np.testing.assert_allclose(new[:2], human)


class TestDriveHuman:
    def test_command_moves_the_human_and_parks_the_robot(self):
        state = world_state(robot=(2.0, 1.0, 0.3), human=(0.0, 0.0, 0.0))
        s1 = step(state, cmd(v_x=0.5), 0.02, EMPTY, drive_human=True)
        np.testing.assert_allclose(s1.human_pose, [0.01, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(s1.robot_pose, state.robot_pose)
        assert s1.robot_vel is state.robot_vel


class TestScalarPhysicsIsExact:
    """``step`` and ``human_follower`` on float triples give the bytes of the array code.

    The reference is the array code itself, kept verbatim in
    ``tests/parent_physics.py``, run on the same state with its poses
    converted by ``np.array``. The random states put poses on and beyond
    every corridor wall (the human's margin is its body radius, the
    robot's 0), signed zeros on walls at zero, headings within 1e-12 of
    +-pi, leash distances below 1e-9, and both values of ``drive_human``.
    Some commands and poses hold a NaN or an infinity, which must come out
    as the array code gives them, not clamped onto a wall.
    """

    CASES = 24_000

    @staticmethod
    def coordinate(r, lo, hi, margin):
        pick = r.randrange(6)
        if pick == 0:
            return r.uniform(lo, hi)
        if pick == 1:
            return r.choice((lo, hi, lo + margin, hi - margin))  # on a wall
        if pick == 2:
            return lo - margin - r.uniform(0.0, 1.0)  # beyond the low wall
        if pick == 3:
            return hi - margin + r.uniform(0.0, 1.0)  # beyond the high wall
        if pick == 4:
            return r.choice((0.0, -0.0))
        return r.uniform(lo, hi) + r.uniform(-1e-12, 1e-12)

    @staticmethod
    def bound(r, margin, sign):
        """A wall coordinate: random, on a 1/8 m grid, or one that puts the wall at +-0."""
        pick = r.randrange(4)
        if pick == 0:
            return sign * r.uniform(0.5, 6.0)
        if pick == 1:
            return sign * r.randrange(1, 48) / 8.0
        if pick == 2:
            return -sign * margin  # the human's wall at zero
        return r.choice((0.0, -0.0))  # the robot's wall at zero

    @staticmethod
    def heading(r):
        pick = r.randrange(4)
        if pick == 0:
            return r.uniform(-math.pi, math.pi)
        if pick == 1:
            return r.choice((math.pi, -math.pi)) + r.uniform(-1e-12, 1e-12)
        if pick == 2:
            return r.choice((math.pi, -math.pi, 0.0, -0.0))
        return r.choice((1.0, -1.0)) * (math.pi - r.randrange(0, 5) * 1e-13)

    @staticmethod
    def component(r, scale):
        pick = r.randrange(4)
        if pick == 0:
            return r.choice((0.0, -0.0))
        if pick == 1:
            return np.float64(r.uniform(-scale, scale))
        return r.uniform(-scale, scale)

    def random_case(self, r):
        body = r.choice((0.18, 0.25, 0.0, r.uniform(0.0, 0.4)))
        margin = r.choice((body, 0.0))
        lo = [self.bound(r, margin, -1.0) for _ in range(2)]
        hi = [self.bound(r, margin, 1.0) for _ in range(2)]
        scene = dataclasses.replace(
            EMPTY, corridor_min=np.array(lo), corridor_max=np.array(hi),
            body_radius_m=body, leash_length_m=r.uniform(0.6, 1.5),
        )
        robot_margin, human_margin = (0.0, body) if r.random() < 0.5 else (body, 0.0)
        robot = [self.coordinate(r, lo[i], hi[i], robot_margin) for i in range(2)] + [self.heading(r)]
        pick = r.randrange(4)
        if pick == 0:  # leash distance below 1e-9, or none at all
            size = r.choice((0.0, r.uniform(0.0, 1e-9), 1e-9 * (1.0 - 1e-16)))
            angle = r.uniform(-math.pi, math.pi)
            human = [robot[0] + size * math.cos(angle), robot[1] + size * math.sin(angle)]
        elif pick == 1:  # exactly leash length along an axis
            human = [robot[0] - scene.leash_length_m, robot[1]]
        else:
            human = [self.coordinate(r, lo[i], hi[i], human_margin) for i in range(2)]
        human.append(self.heading(r))
        if r.random() < 0.03:
            (robot if r.random() < 0.5 else human)[r.randrange(3)] = r.choice((math.nan, -math.nan))
        state = WorldState(
            robot_pose=tuple(robot),
            robot_vel=cmd(),
            human_pose=tuple(human),
            human_bend=BendPose.UPRIGHT,
        )
        components = [self.component(r, 1.5), self.component(r, 0.6), self.component(r, 3.0)]
        if r.random() < 0.1:
            # an infinite turn rate would make math.cos raise in both versions
            i = r.randrange(3)
            components[i] = r.choice((math.nan, -math.nan) if i == 2 else (math.nan, -math.nan, math.inf, -math.inf))
        v_cmd = cmd(*components)
        follower = r.choice((None, FollowerParams(scene.leash_length_m, r.uniform(0.5, 4.0), r.uniform(0.2, 2.0))))
        dt = r.choice((0.02, r.uniform(1e-3, 0.1)))
        return state, v_cmd, dt, scene, follower, r.random() < 0.5

    @staticmethod
    def same_bits(new, old):
        """The same bytes, save that a NaN matches a NaN of either sign.

        IEEE 754 leaves the sign of a NaN made from NaN operands open, and
        it varies with the operand order the compiled code picks; the trace
        writes every NaN as ``nan``.
        """
        nan = np.isnan(new)
        return np.array_equal(nan, np.isnan(old)) and new[~nan].tobytes() == old[~nan].tobytes()

    @staticmethod
    def as_arrays(state):
        """The state with its poses as the float64 arrays the reference takes."""
        return dataclasses.replace(state, robot_pose=np.array(state.robot_pose), human_pose=np.array(state.human_pose))

    def test_step_and_follower_match_the_array_code_bytewise(self):
        r = random.Random(20261019)
        seen = dict.fromkeys(
            ("drive_human", "follow", "walls", "signed_zero_walls", "short_leash", "near_pi", "non_finite"), 0
        )
        for i in range(self.CASES):
            state, v_cmd, dt, scene, follower, drive_human = self.random_case(r)
            args = (v_cmd, dt, scene, follower, drive_human)
            got, want = step(state, *args), parent_physics.step(self.as_arrays(state), *args)
            for name in ("robot_pose", "human_pose"):
                new, old = getattr(got, name), getattr(want, name)
                # immutable, so no later write can reach the input state through it
                assert type(new) is tuple and len(new) == 3 and all(isinstance(v, float) for v in new), (i, name)
                assert self.same_bits(np.array(new), old), (i, name, state, args, new, old)
            assert got.robot_vel is want.robot_vel and got.human_bend is want.human_bend
            if not drive_human:
                params = follower or FollowerParams(scene.leash_length_m, 2.0, 1.5)
                new = np.array(human_follower(state, params, dt))
                assert self.same_bits(new, parent_physics.human_follower(self.as_arrays(state), params, dt)), i
            seen["drive_human" if drive_human else "follow"] += 1
            walls = set(scene.corridor_min.tolist() + scene.corridor_max.tolist())
            walls |= {w + s * scene.body_radius_m for w in walls for s in (1, -1)}
            on_walls = [v for v in got.robot_pose[:2] + got.human_pose[:2] if v in walls]
            seen["walls"] += bool(on_walls)
            seen["signed_zero_walls"] += any(v == 0.0 for v in on_walls)
            gap = np.subtract(state.robot_pose[:2], state.human_pose[:2])
            seen["short_leash"] += (not drive_human) and float(np.hypot(gap[0], gap[1])) < 1e-9
            seen["near_pi"] += any(abs(abs(p[2]) - math.pi) <= 1e-12 for p in (state.robot_pose, state.human_pose))
            seen["non_finite"] += not np.isfinite([v_cmd.v_x, v_cmd.v_y, v_cmd.w_z]).all() or not (
                np.isfinite(state.robot_pose).all() and np.isfinite(state.human_pose).all()
            )
        # every region the docstring names was reached, many times over
        assert min(seen.values()) > 300, seen


class TestCameraPoses:
    def test_robot_camera_frames_and_mount_offset(self):
        rig = default_rig()
        pose = robot_camera_pose(np.array([1.0, 2.0, math.pi / 2]), rig)
        assert pose.from_frame is FrameId.OPTICAL_DOG
        assert pose.to_frame is FrameId.WORLD
        np.testing.assert_allclose(pose.translation, [1.0, 2.25, 0.35], atol=1e-12)

    def test_robot_optical_axis_follows_heading(self):
        rig = default_rig()
        for th in (0.0, 1.1, -2.0):
            pose = robot_camera_pose(np.array([0.0, 0.0, th]), rig)
            axis = pose.rotation @ np.array([0.0, 0.0, 1.0])
            np.testing.assert_allclose(axis, [math.cos(th), math.sin(th), 0.0], atol=1e-12)

    def test_robot_mount_pitch_tilts_the_axis_down(self):
        rig = SensorRig(
            robot_intrinsics=default_rig().robot_intrinsics,
            chest_intrinsics=default_rig().chest_intrinsics,
            robot_mount_pitch_rad=0.3,
        )
        pose = robot_camera_pose(np.zeros(3), rig)
        axis = pose.rotation @ np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(axis, [math.cos(0.3), 0.0, -math.sin(0.3)], atol=1e-12)

    def test_chest_camera_upright(self):
        rig = default_rig()
        pose = chest_camera_pose(np.array([0.5, -0.2, math.pi]), BendPose.UPRIGHT, rig, 1.1)
        assert pose.from_frame is FrameId.OPTICAL_HUMAN
        assert pose.to_frame is FrameId.WORLD
        np.testing.assert_allclose(pose.translation, [0.5 - 0.05, -0.2, 1.1], atol=1e-12)
        axis = pose.rotation @ np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(axis, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_bending_pitches_the_chest_camera_down(self):
        rig = default_rig()
        human = np.array([0.0, 0.0, 0.0])
        pose = chest_camera_pose(human, BendPose.BENT, rig, 1.1)
        axis = pose.rotation @ np.array([0.0, 0.0, 1.0])
        p = rig.bend_pitch_rad
        np.testing.assert_allclose(axis, [math.cos(p), 0.0, -math.sin(p)], atol=1e-12)
        # bending does not change where the camera sits
        upright = chest_camera_pose(human, BendPose.UPRIGHT, rig, 1.1)
        np.testing.assert_allclose(pose.translation, upright.translation)


def pose_bytes(t):
    return t.rotation.tobytes(), t.translation.tobytes(), t.from_frame, t.to_frame


@pytest.fixture
def transforms_built(monkeypatch):
    """Counter of RigidTransforms constructed while the test runs."""
    count = [0]
    original = RigidTransform.__post_init__

    def counted(self):
        count[0] += 1
        original(self)

    monkeypatch.setattr(RigidTransform, "__post_init__", counted)
    return count


class TestMounts:
    """Camera mounts are static, so each distinct one is built once and shared."""

    def test_a_replaced_rig_gets_a_new_mount(self):
        rig = default_rig()
        moved = dataclasses.replace(rig, robot_mount_xyz=(0.3, 0.1, 0.4), robot_mount_pitch_rad=0.2)
        assert _robot_mount(moved) is not _robot_mount(rig)
        pose = robot_camera_pose(np.zeros(3), moved)
        np.testing.assert_allclose(pose.translation, [0.3, 0.1, 0.4], atol=1e-12)
        axis = pose.rotation @ np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(axis, [math.cos(0.2), 0.0, -math.sin(0.2)], atol=1e-12)
        bent = dataclasses.replace(rig, bend_pitch_rad=0.4, chest_forward_m=0.1)
        assert _chest_mount(bent, BendPose.BENT, 1.1) is not _chest_mount(rig, BendPose.BENT, 1.1)
        np.testing.assert_allclose(
            chest_camera_pose(np.zeros(3), BendPose.BENT, bent, 1.1).translation, [0.1, 0.0, 1.1], atol=1e-12
        )

    def test_negative_zero_builds_the_same_bytes(self):
        # the cache takes -0.0 and 0.0 as one key, so whichever is built
        # first must not matter
        _mount.cache_clear()
        signed = _mount(FrameId.OPTICAL_DOG, FrameId.ROBOT_BASE, -0.0, (0.25, -0.0, -0.0))
        _mount.cache_clear()
        plain = _mount(FrameId.OPTICAL_DOG, FrameId.ROBOT_BASE, 0.0, (0.25, 0.0, 0.0))
        assert pose_bytes(signed) == pose_bytes(plain)

    def test_the_mount_is_built_once(self):
        rig = default_rig()
        assert _robot_mount(rig) is _robot_mount(default_rig())
        for bend in BendPose:
            assert _chest_mount(rig, bend, 1.1) is _chest_mount(default_rig(), bend, 1.1)
        # shared by every caller, so no caller may write to it
        mount = _robot_mount(rig)
        assert not mount.rotation.flags.writeable and not mount.translation.flags.writeable

    def test_a_tick_builds_only_the_platform_pose_and_its_composition(self, transforms_built):
        rig = default_rig()
        scene = scene_of([box((1.5, 0.0), (0.2, 0.3)), cyl((1.5, 0.5), 0.2, (1.0, 1.4))])
        human = np.array([-1.0, 0.0, 0.0])
        robot_branch_observation(scene, np.zeros(3), rig, PerceptionSpec())  # warm-up
        for bend in BendPose:
            chest_observation(scene, human, bend, rig)
        # one checked transform per frame: the world pose, composed on floats
        transforms_built[0] = 0
        robot_branch_observation(scene, np.array([0.1, 0.0, 0.2]), rig, PerceptionSpec())
        assert transforms_built[0] == 1
        for bend in BendPose:
            transforms_built[0] = 0
            chest_observation(scene, human, bend, rig)
            assert transforms_built[0] == 1


#: prints how many camera poses built on floats differ in bits from the
#: composition, then the sha256 of 2,000 random 3x3 products, which shows
#: which BLAS kernel ran
_KERNEL_POSES = """
import hashlib
import numpy as np
from test_sim import TestCameraPosesOnFloats
print(sum(got != want for got, want in TestCameraPosesOnFloats.bit_pairs()))
a, b = np.random.default_rng(0).normal(size=(2, 2000, 3, 3))
print(hashlib.sha256(b"".join((x @ y).tobytes() for x, y in zip(a, b))).hexdigest())
"""


class TestCameraPosesOnFloats:
    """The world camera poses, built on floats, agree with the composition they replaced.

    ``compose`` takes a BLAS 3x3 product, whose bits may follow the kernel, so
    the bitwise check runs under each kernel it was checked on and the
    tolerance check on every host.
    """

    HEADINGS = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)

    @staticmethod
    def composed(pose, mount):
        x, y, th = pose
        platform = RigidTransform(rot_z(th), np.array([x, y, 0.0]), mount.to_frame, FrameId.WORLD)
        return compose(platform, mount)

    @classmethod
    def poses(cls, rng):
        out = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), rng.uniform(-7.0, 7.0))
               for _ in range(150)]
        for th in cls.HEADINGS:
            out += [(0.0, -0.0, th), (-0.0, 0.0, th), tuple(rng.uniform(-5.0, 5.0, size=2)) + (th,)]
        return out

    @classmethod
    def pairs(cls):
        """(float pose, composed pose, lateral offset) for every robot and chest camera case."""
        rng = np.random.default_rng(20261022)
        rigs = [default_rig()] + [
            dataclasses.replace(
                default_rig(),
                robot_mount_xyz=(rng.uniform(-0.5, 0.5), rng.choice([0.0, -0.0]), rng.uniform(0.0, 1.0)),
                robot_mount_pitch_rad=rng.uniform(-0.6, 0.6),
                chest_forward_m=rng.choice([0.0, rng.uniform(0.0, 0.3)]),
                bend_pitch_rad=rng.uniform(0.0, 0.9),
            )
            for _ in range(6)
        ]
        for rig in rigs:
            for pose in cls.poses(rng):
                yield robot_camera_pose(np.array(pose), rig), cls.composed(pose, _robot_mount(rig)), False
                for bend in BendPose:
                    for height in (1.1, 1.3):
                        got = chest_camera_pose(np.array(pose), bend, rig, height)
                        yield got, cls.composed(pose, _chest_mount(rig, bend, height)), False
        rng = np.random.default_rng(20261023)
        rig = dataclasses.replace(default_rig(), robot_mount_xyz=(0.2, 0.13, 0.4), robot_mount_pitch_rad=0.3)
        for pose in cls.poses(rng):
            yield robot_camera_pose(np.array(pose), rig), cls.composed(pose, _robot_mount(rig)), True

    @classmethod
    def bit_pairs(cls):
        """The bytes each float pose must share with its composition.

        All of them with no lateral mount offset; with one, only the rotation,
        since a kernel may fuse the multiply-adds of the translation's product.
        """
        for got, want, lateral in cls.pairs():
            if lateral:
                yield got.rotation.tobytes(), want.rotation.tobytes()
            else:
                yield pose_bytes(got), pose_bytes(want)

    def test_agrees_with_the_composition_to_rounding(self):
        for got, want, _ in self.pairs():
            assert (got.from_frame, got.to_frame) == (want.from_frame, want.to_frame)
            np.testing.assert_allclose(got.rotation, want.rotation, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(got.translation, want.translation, rtol=0.0, atol=1e-14)

    @pytest.mark.skipif(not _openblas_picks_kernels_and_cpu_has_avx2(),
                        reason="needs numpy on OpenBLAS DYNAMIC_ARCH and an x86-64 CPU with avx2")
    def test_matches_the_composition_bitwise_under_each_blas_kernel(self):
        paths = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).resolve().parent)]
        products = set()
        for kernel in ("Nehalem", "Haswell"):
            env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
                       PYTHONPATH=os.pathsep.join(filter(None, paths + [os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", _KERNEL_POSES], env=env,
                                 capture_output=True, text=True, check=True)
            mismatches, product = run.stdout.split()
            assert mismatches == "0", kernel
            products.add(product)
        assert len(products) == 2  # the two kernels really ran: their products differ in bits


class TestRobotBranchObservation:
    SPEC = PerceptionSpec()

    def test_the_band_goes_to_the_costmap_as_it_is_without_memory(self, monkeypatch):
        seen = []  # the filtered band, then the cloud the costmap is built from
        band_of, build = sim.passthrough_filter, sim.build_costmap
        monkeypatch.setattr(sim, "passthrough_filter", lambda *args: seen.append(band_of(*args)) or seen[-1])
        monkeypatch.setattr(sim, "build_costmap", lambda cloud, *args: seen.append(cloud) or build(cloud, *args))
        scene = scene_of([box((1.5, 0.0), (0.2, 0.3))])
        robot_branch_observation(scene, np.zeros(3), default_rig(), self.SPEC)
        band, mapped = seen
        assert len(band) > 0 and mapped is band

    def test_ground_obstacle_lands_in_the_costmap(self):
        scene = scene_of([box((1.5, 0.0), (0.2, 0.3))])
        img, band, costmap = robot_branch_observation(scene, np.zeros(3), default_rig(), self.SPEC)
        assert np.isfinite(img.depth).any()
        assert band.points.shape[0] > 0
        assert np.all(band.points[:, 2] >= self.SPEC.z_band_low_m)
        assert np.all(band.points[:, 2] <= self.SPEC.z_band_high_m)
        centers = nonfree_centers(costmap)
        assert centers.shape[0] > 0
        slack = self.SPEC.r_inf_m + self.SPEC.resolution_m * math.sqrt(2.0)
        for c in centers:
            assert scene.obstacles[0].footprint_distance(c) <= slack

    def test_overhead_obstacle_is_invisible_to_the_robot_map(self):
        # hangs above the pass-under clearance: the height band drops it even
        # if the camera happened to return it
        scene = scene_of([cyl((1.5, 0.0), 0.25, (1.6, 1.8))])
        _, band, costmap = robot_branch_observation(scene, np.zeros(3), default_rig(), self.SPEC)
        assert band.points.shape[0] == 0
        assert nonfree_centers(costmap).shape[0] == 0

    def test_extra_points_are_stamped_before_inflation(self):
        extra = np.array([[1.0, 0.0]])
        _, _, costmap = robot_branch_observation(
            scene_of(), np.zeros(3), default_rig(), self.SPEC, extra_xy=extra
        )
        centers = nonfree_centers(costmap)
        assert centers.shape[0] > 0
        dists = np.hypot(centers[:, 0] - 1.0, centers[:, 1])
        assert dists.min() <= self.SPEC.resolution_m  # the seed cell itself
        assert dists.max() <= self.SPEC.r_inf_m + self.SPEC.resolution_m * math.sqrt(2.0)

    def test_depth_noise_is_seeded(self):
        scene = scene_of([box((1.5, 0.0), (0.2, 0.3))])
        imgs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            img, _, _ = robot_branch_observation(
                scene, np.zeros(3), default_rig(), self.SPEC, depth_sigma=0.05, rng=rng
            )
            imgs.append(img.depth)
        np.testing.assert_array_equal(imgs[0], imgs[1])
        clean, _, _ = robot_branch_observation(scene, np.zeros(3), default_rig(), self.SPEC)
        assert not np.array_equal(imgs[0], clean.depth)


class TestChestObservation:
    LAMP = scene_of([cyl((4.0, 0.0), 0.25, (1.6, 1.8))], goal=(5.0, 0.0))

    def test_cloud_is_in_the_human_body_frame(self):
        _, cloud = chest_observation(self.LAMP, np.array([2.5, 0.0, 0.0]), BendPose.UPRIGHT, default_rig())
        assert cloud.frame is FrameId.PHYSICAL_HUMAN

    def test_upright_sees_the_overhead_hazard(self):
        _, cloud = chest_observation(self.LAMP, np.array([2.5, 0.0, 0.0]), BendPose.UPRIGHT, default_rig())
        pts = cloud.points
        assert pts.shape[0] >= 50
        # returns sit on the lamp surface: head height, ahead of the chest
        assert np.all(pts[:, 2] >= 1.6 - 1e-6)
        assert np.all(pts[:, 2] <= 1.8 + 1e-6)
        assert np.all(pts[:, 0] >= 1.0)

    def test_bending_loses_the_overhead_hazard(self):
        _, cloud = chest_observation(self.LAMP, np.array([2.5, 0.0, 0.0]), BendPose.BENT, default_rig())
        assert cloud.points.shape[0] == 0


class TestFrustumSummary:
    def test_obstacle_ahead_is_sighted_with_range_and_bearing(self):
        ob = box((2.0, 0.0), (0.3, 0.3), oid="crate")
        sightings = frustum_summary(scene_of([ob]), np.zeros(3), default_rig())
        assert [s.obstacle_id for s in sightings] == ["crate"]
        s = sightings[0]
        assert s.kind == "ground"
        assert s.bearing_deg == pytest.approx(0.0, abs=1e-9)
        # range is measured from the camera, which sits 0.25 m ahead of base
        assert s.range_m == pytest.approx(2.0 - 0.25 - 0.3)

    def test_obstacle_behind_is_not_sighted(self):
        sightings = frustum_summary(scene_of([box((-2.0, 0.0), (0.3, 0.3))]), np.zeros(3), default_rig())
        assert sightings == []

    def test_obstacle_beyond_max_range_is_not_sighted(self):
        sightings = frustum_summary(scene_of([box((8.0, 0.0), (0.3, 0.3))], corridor=((-2.0, -2.0), (9.0, 2.0))), np.zeros(3), default_rig())
        assert sightings == []

    def test_sorted_nearest_first(self):
        scene = scene_of([box((3.0, 0.3), (0.2, 0.2), oid="far"), box((1.5, -0.3), (0.2, 0.2), oid="near")])
        sightings = frustum_summary(scene, np.zeros(3), default_rig())
        assert [s.obstacle_id for s in sightings] == ["near", "far"]


class TestCollisionTracker:
    SIM = SimParams()
    AWAY = np.array([-1.5, 1.5])  # a robot position clear of every test obstacle

    def test_entering_transition_counts_once(self):
        scene = scene_of([box((1.0, 0.0), (0.3, 0.3))])
        tracker = CollisionTracker(scene, self.SIM)
        inside, outside = np.array([1.0, 0.0]), np.array([4.0, 0.0])
        assert len(tracker.update(0.0, inside, self.AWAY)) == 1
        assert len(tracker.update(0.1, inside, self.AWAY)) == 0  # still overlapping
        assert tracker.in_contact("human")
        assert len(tracker.update(0.2, outside, self.AWAY)) == 0
        assert not tracker.in_contact("human")

    def test_recontact_is_debounced(self):
        scene = scene_of([box((1.0, 0.0), (0.3, 0.3))])
        tracker = CollisionTracker(scene, self.SIM)
        inside, outside = np.array([1.0, 0.0]), np.array([4.0, 0.0])
        tracker.update(0.0, inside, self.AWAY)
        tracker.update(0.2, outside, self.AWAY)
        # bouncing straight back in is the same event
        assert len(tracker.update(0.4, inside, self.AWAY)) == 0
        tracker.update(0.6, outside, self.AWAY)
        # a full debounce window later it counts again
        assert len(tracker.update(1.0 + 1e-6, inside, self.AWAY)) == 1

    def test_overhead_hits_the_head_but_not_the_robot(self):
        scene = scene_of([cyl((1.0, 0.0), 0.25, (1.6, 1.8))])
        tracker = CollisionTracker(scene, self.SIM)
        xy = np.array([1.0, 0.0])
        events = tracker.update(0.0, xy, xy)
        assert [ev.agent for ev in events] == ["human"]
        assert events[0].kind is ObstacleKind.OVERHEAD

    def test_ground_obstacle_can_hit_both(self):
        scene = scene_of([box((1.0, 0.0), (0.3, 0.3))])
        tracker = CollisionTracker(scene, self.SIM)
        xy = np.array([1.0, 0.0])
        events = tracker.update(0.0, xy, xy)
        assert sorted(ev.agent for ev in events) == ["human", "robot"]

    def test_robot_disabled_for_the_unassisted_baseline(self):
        scene = scene_of([box((1.0, 0.0), (0.3, 0.3))])
        tracker = CollisionTracker(scene, self.SIM, robot_enabled=False)
        state = world_state(robot=(1.0, 0.0, 0.0), human=(4.0, 0.0, 0.0))
        assert detect_collisions(state, 0.0, tracker) == []

    def test_events_of_one_tick_come_in_obstacle_order_human_first(self):
        scene = scene_of([box((1.0, 0.0), (0.3, 0.3), oid="A"), box((4.0, 0.0), (0.3, 0.3), oid="B")])
        tracker = CollisionTracker(scene, self.SIM)
        events = tracker.update(0.0, np.array([4.0, 0.0]), np.array([1.0, 0.0]))
        assert [(ev.agent, ev.obstacle_id) for ev in events] == [("robot", "A"), ("human", "B")]
        both = CollisionTracker(scene, self.SIM).update(0.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert [(ev.agent, ev.obstacle_id) for ev in both] == [("human", "A"), ("robot", "A")]

    def test_overhead_obstacle_never_hits_the_robot(self):
        scene = scene_of([
            cyl((1.0, 0.0), 0.25, (1.6, 1.8)),
            box((3.0, 0.0), (0.3, 0.3), (0.6, 1.2), ObstacleKind.OVERHEAD, "shelf"),
        ])
        tracker = CollisionTracker(scene, self.SIM)
        far = np.array([-1.5, 1.5])
        for i, x in enumerate(np.linspace(0.0, 4.0, 81)):
            robot = np.array([x, 0.0]) if i % 2 == 0 else far
            assert [ev for ev in tracker.update(2.0 * i, far, robot) if ev.agent == "robot"] == []
        assert not tracker.in_contact("robot")


class _ScalarTracker:
    """The collision tracker as it was before its pair list: the reference.

    Every update tests every obstacle against both agents with
    ``overlaps_vertical_cylinder``.
    """

    def __init__(self, scene, sim, robot_enabled=True):
        self.scene = scene
        self.sim = sim
        self.robot_enabled = robot_enabled
        self._overlap = {}
        self._last_event = {}

    def in_contact(self, agent="human"):
        return any(over and key[0] == agent for key, over in self._overlap.items())

    def _transition(self, agent, obstacle_id, kind, over, now, out):
        key = (agent, obstacle_id)
        if over and not self._overlap.get(key, False):
            last = self._last_event.get(key)
            if last is None or now - last >= self.sim.collision_debounce_s:
                out.append(sim.CollisionEvent(now, agent, obstacle_id, kind))
                self._last_event[key] = now
        self._overlap[key] = over

    def update(self, now, human_xy, robot_xy):
        events = []
        for ob in self.scene.obstacles:
            over_h = ob.overlaps_vertical_cylinder(
                human_xy, self.scene.body_radius_m, 0.0, self.scene.head_height_m
            )
            self._transition("human", ob.obstacle_id, ob.kind, over_h, now, events)
            if self.robot_enabled:
                over_r = ob.overlaps_vertical_cylinder(
                    robot_xy, self.sim.robot_radius_m, 0.0, self.sim.robot_height_m
                )
                self._transition("robot", ob.obstacle_id, ob.kind, over_r, now, events)
        return events


class TestCollisionBroadPhase:
    """The tracker's pair list and reach bound change no boolean and no event."""

    SCENES = 40
    TICKS = 300

    @staticmethod
    def z_span(rng, robot_h, head_h):
        """A height span below the robot's top, between it and the head, or above the head."""
        band = rng.integers(0, 6)
        if band == 0:
            return 0.0, float(rng.uniform(0.05, robot_h))
        if band == 1:
            lo = float(rng.uniform(robot_h, head_h - 0.1))
            return lo, float(rng.uniform(lo + 0.01, head_h + 0.2))
        if band == 2:
            lo = float(rng.uniform(head_h, head_h + 0.5))
            return lo, lo + 0.2
        if band == 3:
            return robot_h, head_h  # touches each top exactly: the robot never meets it
        if band == 4:
            return head_h, head_h + 0.3  # rests exactly on the head: nobody meets it
        return -0.3, 0.0  # below the floor

    def random_scene(self, rng):
        """Boxes and cylinders, half of them on a 1/16 m grid so boundary probes are exact."""
        dyadic = bool(rng.integers(0, 2))

        def length(lo, hi):
            v = rng.uniform(lo, hi)
            return float(np.round(v * 16) / 16) if dyadic else float(v)

        sim_params = SimParams(robot_radius_m=length(0.15, 0.35), robot_height_m=length(0.3, 0.6))
        head_h = length(1.5, 1.9)
        n = int(rng.integers(1, 8))
        ids = [f"o{i}" for i in range(n)]  # unique: the tracker refuses a repeated id
        obstacles = []
        for oid in ids:
            center = (length(-2.0, 2.0), length(-1.0, 1.0))
            z = self.z_span(rng, sim_params.robot_height_m, head_h)
            kind = ObstacleKind.OVERHEAD if z[0] > sim_params.robot_height_m else ObstacleKind.GROUND
            if rng.random() < 0.5:
                ob = box(center, (length(0.05, 0.6), length(0.05, 0.6)), z, kind, oid)
            else:
                ob = cyl(center, length(0.05, 0.5), z, kind, oid)
            obstacles.append(ob)
        scene = dataclasses.replace(
            scene_of(obstacles, corridor=((-3.0, -2.0), (3.0, 2.0))),
            body_radius_m=length(0.1, 0.3),
            head_height_m=head_h,
        )
        return scene, sim_params

    @staticmethod
    def probes(ob, r):
        """Points whose footprint distance is r, or whose centre distance is R + r, give or take ulps."""
        c = ob.center
        points = []
        for k in (-3, -1, 0, 1, 3):
            if ob.shape is ObstacleShape.BOX:
                hx, hy = ob.half_extents
                reach = math.hypot(hx, hy) + r
                reach += k * np.spacing(reach)
                for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                    points.append(c + reach * np.array([sx * hx, sy * hy]) / math.hypot(hx, hy))
                edge = hx + r + k * np.spacing(hx + r)
                points.append(c + np.array([edge, 0.0]))
                points.append(c + np.array([0.0, -(hy + r + k * np.spacing(hy + r))]))
            else:
                reach = ob.radius + r + k * np.spacing(ob.radius + r)
                for a in (0.0, 0.5 * math.pi, 0.7):
                    points.append(c + reach * np.array([math.cos(a), math.sin(a)]))
        return points

    def test_matches_the_scalar_tracker_on_random_scenes(self):
        rng = np.random.default_rng(20261019)
        exact_boundary = events = 0
        for _ in range(self.SCENES):
            scene, sim_params = self.random_scene(rng)
            robot_enabled = rng.random() < 0.8
            tracker = CollisionTracker(scene, sim_params, robot_enabled)
            reference = _ScalarTracker(scene, sim_params, robot_enabled)
            probes = {}
            for name, r in (("human", scene.body_radius_m), ("robot", sim_params.robot_radius_m)):
                probes[name] = [p for ob in scene.obstacles for p in self.probes(ob, r)]
                exact_boundary += sum(
                    ob.footprint_distance(p) == r for ob in scene.obstacles for p in probes[name]
                )
            pos = {"human": np.array([-2.5, 0.0]), "robot": np.array([-2.0, 0.0])}
            now = 0.0
            for _ in range(self.TICKS):
                now += float(rng.choice([0.05, 0.4, 1.1]))
                for name in pos:
                    if rng.random() < 0.4:
                        pos[name] = probes[name][int(rng.integers(len(probes[name])))]
                    else:
                        pos[name] = np.clip(pos[name] + rng.normal(0.0, 0.2, 2), (-3.0, -2.0), (3.0, 2.0))
                got = tracker.update(now, pos["human"], pos["robot"])
                want = reference.update(now, pos["human"], pos["robot"])
                assert [dataclasses.astuple(ev) for ev in got] == [dataclasses.astuple(ev) for ev in want]
                for agent in ("human", "robot"):
                    assert tracker.in_contact(agent) == reference.in_contact(agent)
                events += len(want)
        # the probes did reach the boundary, and contacts did happen
        assert exact_boundary > 100
        assert events > 500

    @staticmethod
    def small_steps(rng, start, end):
        """Points from ``start`` towards ``end``, 0.005-0.05 m apart, the last exactly ``end``."""
        start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
        gap = float(np.hypot(*(end - start)))
        points, done = [], float(rng.uniform(0.005, 0.05))
        while done < gap:
            points.append(start + (end - start) * (done / gap))
            done += float(rng.uniform(0.005, 0.05))
        return points + [end]

    def path(self, rng, pos, probes):
        """The next stretch of an agent's positions from ``pos``.

        Either a random walk of 0.005-0.05 m steps, or an approach in such
        steps to a boundary probe, a pause on it and a retreat the same way.
        """
        if rng.random() < 0.6:
            points = []
            for _ in range(int(rng.integers(10, 80))):
                angle, size = rng.uniform(-math.pi, math.pi), rng.uniform(0.005, 0.05)
                pos = np.clip(pos + size * np.array([math.cos(angle), math.sin(angle)]), (-3.0, -2.0), (3.0, 2.0))
                points.append(pos)
            return points
        probe = probes[int(rng.integers(len(probes)))]
        there = self.small_steps(rng, pos, probe)
        return there + [probe] * int(rng.integers(0, 4)) + self.small_steps(rng, probe, pos)

    def test_the_clearance_skip_matches_the_scalar_tracker_on_small_steps(self):
        """The skip fires on most ticks, yet every event and contact flag is the reference's."""
        rng = np.random.default_rng(20261020)
        agent_ticks = passes = events = probe_ticks = 0
        for _ in range(self.SCENES):
            scene, sim_params = self.random_scene(rng)
            robot_enabled = rng.random() < 0.8
            tracker = CollisionTracker(scene, sim_params, robot_enabled)
            reference = _ScalarTracker(scene, sim_params, robot_enabled)
            full_pass = tracker._pass

            def counted(agent, *args, full_pass=full_pass):
                nonlocal passes
                passes += bool(agent.pairs)
                full_pass(agent, *args)

            tracker._pass = counted
            with_pairs = sum(bool(agent.pairs) for agent in (tracker._human, tracker._robot))
            probes = {
                name: [p for ob in scene.obstacles for p in self.probes(ob, r)]
                for name, r in (("human", scene.body_radius_m), ("robot", sim_params.robot_radius_m))
            }
            pos = {"human": np.array([-2.5, 0.0]), "robot": np.array([-2.0, 0.0])}
            ahead = {"human": [], "robot": []}
            now = 0.0
            for _ in range(4 * self.TICKS):
                now += 0.02 if rng.random() < 0.95 else 1.1
                for name in pos:
                    if not ahead[name]:
                        ahead[name] = self.path(rng, pos[name], probes[name])[::-1]
                    pos[name] = ahead[name].pop()
                    probe_ticks += any(pos[name] is p for p in probes[name])
                got = tracker.update(now, pos["human"], pos["robot"])
                want = reference.update(now, pos["human"], pos["robot"])
                assert [dataclasses.astuple(ev) for ev in got] == [dataclasses.astuple(ev) for ev in want]
                for agent in ("human", "robot"):
                    assert tracker.in_contact(agent) == reference.in_contact(agent)
                events += len(want)
                agent_ticks += with_pairs
        # the skip fired on most ticks, and contacts and boundary probes did happen
        assert passes < 0.5 * agent_ticks, (passes, agent_ticks)
        assert events > 200 and probe_ticks > 500, (events, probe_ticks)

    def test_a_repeated_obstacle_id_is_refused(self):
        # height-disjoint twins: the second is out of the robot's reach, the first out of the head's
        scene = scene_of(
            [
                box((1.0, 0.0), (0.2, 0.2), z=(0.0, 0.4), oid="cab"),
                box((2.0, 0.5), (0.2, 0.2), z=(1.0, 1.4), kind=ObstacleKind.OVERHEAD, oid="cab"),
            ]
        )
        for robot_enabled in (True, False):
            with pytest.raises(ValueError, match="obstacle cab: id is used by an earlier obstacle"):
                CollisionTracker(scene, SimParams(), robot_enabled)

class TestUnassistedWalker:
    def quiet_sim(self):
        # binary-exact reflex durations so window expiries land on the tick
        return SimParams(walker_heading_sigma_rad=0.0, walker_speed_mps=0.5,
                         walker_backoff_s=0.5, walker_sidestep_s=0.75)

    def test_walks_toward_the_goal(self):
        sim = self.quiet_sim()
        state = world_state(human=(0.0, 0.0, 0.0))
        walker = WalkerState()
        rng = np.random.default_rng(7)
        c = unassisted_walker(state, scene_of(goal=(4.0, 0.0)), walker, rng, sim, False, 0.0)
        assert c.source is CommandSource.WALKER
        assert (c.v_x, c.v_y, c.w_z) == (0.5, 0.0, 0.0)

    def test_turn_rate_is_clamped(self):
        sim = self.quiet_sim()
        state = world_state(human=(0.0, 0.0, math.pi))  # facing away from the goal
        c = unassisted_walker(state, scene_of(goal=(4.0, 0.0)), WalkerState(),
                              np.random.default_rng(7), sim, False, 0.0)
        assert abs(c.w_z) == 1.5

    def test_contact_reflex_backoff_then_sidestep(self):
        sim = self.quiet_sim()
        scene = scene_of(goal=(4.0, 0.0))
        state = world_state(human=(0.0, 0.0, 0.0))
        walker = WalkerState()
        rng = np.random.default_rng(7)
        hit = unassisted_walker(state, scene, walker, rng, sim, True, 0.0)
        assert (hit.v_x, hit.v_y) == (-0.3, 0.0)
        assert walker.streak == 1
        side = walker.side
        # still backing off inside the window
        mid = unassisted_walker(state, scene, walker, rng, sim, False, 0.25)
        assert mid.v_x == -0.3
        # backoff expires into a sidestep on the chosen side
        stepped = unassisted_walker(state, scene, walker, rng, sim, False, 0.5)
        assert (stepped.v_x, stepped.v_y) == (0.0, side * 0.3)
        # sidestep window is walker_sidestep_s * streak
        assert walker.until == 0.5 + 0.75
        forward = unassisted_walker(state, scene, walker, rng, sim, False, 1.25)
        assert forward.v_x == 0.5

    def test_repeat_contacts_escalate_and_keep_the_side(self):
        sim = self.quiet_sim()
        scene = scene_of(goal=(4.0, 0.0))
        state = world_state(human=(0.0, 0.0, 0.0))
        walker = WalkerState()
        rng = np.random.default_rng(7)
        unassisted_walker(state, scene, walker, rng, sim, True, 0.0)
        first_side = walker.side
        # walk the reflex through to forward, then hit again soon after
        unassisted_walker(state, scene, walker, rng, sim, False, 0.5)
        unassisted_walker(state, scene, walker, rng, sim, False, 1.25)
        unassisted_walker(state, scene, walker, rng, sim, True, 1.5)
        assert walker.streak == 2
        assert walker.side == first_side
        stepped = unassisted_walker(state, scene, walker, rng, sim, False, 2.0)
        assert stepped.v_y == first_side * 0.3
        assert walker.until == 2.0 + 0.75 * 2

    def test_a_calm_spell_resets_the_streak(self):
        sim = self.quiet_sim()
        scene = scene_of(goal=(4.0, 0.0))
        state = world_state(human=(0.0, 0.0, 0.0))
        walker = WalkerState()
        rng = np.random.default_rng(7)
        unassisted_walker(state, scene, walker, rng, sim, True, 0.0)
        unassisted_walker(state, scene, walker, rng, sim, False, 0.5)
        unassisted_walker(state, scene, walker, rng, sim, False, 1.25)
        unassisted_walker(state, scene, walker, rng, sim, True, 6.0)
        assert walker.streak == 1


class TestExecRound:
    def test_small_components_snap_to_zero(self):
        out = _exec_round(cmd(0.04, -0.05, 0.050), 0.05)
        assert (out.v_x, out.v_y, out.w_z) == (0.0, 0.0, 0.0)

    def test_brake_sentinel_becomes_a_standstill(self):
        brake = VelocityCommand(0.0, 0.02, 0.0, 1.0, CommandSource.HUMAN)
        out = _exec_round(brake, 0.05)
        assert (out.v_x, out.v_y, out.w_z) == (0.0, 0.0, 0.0)
        assert out.source is CommandSource.HUMAN  # provenance survives rounding

    def test_components_above_threshold_pass_through(self):
        out = _exec_round(cmd(0.3, -0.2, 0.0500001), 0.05)
        assert (out.v_x, out.v_y, out.w_z) == (0.3, -0.2, 0.0500001)


class TestJitterScene:
    def test_zero_amount_is_identity(self):
        scene = scene_of([box((1.0, 0.0), (0.2, 0.2))])
        assert jitter_scene(scene, 0.0, np.random.default_rng(0)) is scene

    def test_offsets_are_bounded_and_seeded(self):
        scene = scene_of([box((1.0, 0.0), (0.2, 0.2)), cyl((3.0, 0.5), 0.3, (1.6, 1.8))])
        a = jitter_scene(scene, 0.15, np.random.default_rng(5))
        b = jitter_scene(scene, 0.15, np.random.default_rng(5))
        for moved, orig in zip(a.obstacles, scene.obstacles):
            assert np.all(np.abs(moved.center - orig.center) <= 0.15)
            assert moved.z_min == orig.z_min and moved.kind is orig.kind
        for x, y in zip(a.obstacles, b.obstacles):
            np.testing.assert_array_equal(x.center, y.center)
        assert any(np.any(m.center != o.center) for m, o in zip(a.obstacles, scene.obstacles))


class TestEpisodeReport:
    def test_collision_counts_must_be_consistent(self):
        with pytest.raises(ValueError):
            EpisodeReport(Condition.CROSS_VIEW, 0, TerminationStatus.GOAL, 10.0,
                          3, 1, 1, 0, 0, "x.csv")

    def test_text_record_formats(self):
        rep = EpisodeReport(Condition.CROSS_VIEW, 3, TerminationStatus.GOAL, 12.34,
                            2, 1, 1, 0, 1, "trace.csv")
        text = rep.to_text_record()
        assert "crossview seed=3" in text and "goal in 12.340 s" in text
        dnf = EpisodeReport(Condition.UNASSISTED, 0, TerminationStatus.TIMEOUT, None,
                            0, 0, 0, 0, 0, "t.csv")
        assert "DNF (timeout)" in dnf.to_text_record()


class TestConfigValidation:
    def test_leash_shorter_than_the_robot_is_rejected(self):
        scene = scene_of()
        scene = Scene(scene.obstacles, scene.start_robot, scene.goal, scene.corridor_min,
                      scene.corridor_max, 0.4, 1.1, 0.25, 1.7)
        with pytest.raises(ConfigError):
            config_of(scene).validate()

    def test_goal_outside_the_corridor_is_rejected(self):
        with pytest.raises(ConfigError):
            config_of(scene_of(goal=(7.0, 0.0))).validate()

    def test_bend_window_must_increase(self):
        with pytest.raises(ConfigError):
            config_of(scene_of(), bend_window_s=(2.0, 2.0)).validate()
        with pytest.raises(ConfigError):
            config_of(scene_of(), bend_window_s=(-1.0, 2.0)).validate()

    @pytest.mark.parametrize("window", [(math.nan, 5.0), (2.0, math.nan), (2.0, math.inf), (-math.inf, 5.0)])
    def test_a_non_finite_bend_window_is_rejected(self, window):
        # (nan, 5.0) passed both order tests, and its episode never bent
        with pytest.raises(ConfigError, match="bend_window_s must be an increasing non-negative pair of finite"):
            config_of(scene_of(), bend_window_s=window).validate()

    def test_negative_jitter_is_rejected(self):
        with pytest.raises(ConfigError):
            config_of(scene_of(), jitter_xy_m=-0.1).validate()

    @pytest.mark.parametrize("jitter", [math.nan, math.inf])
    def test_non_finite_jitter_is_rejected_before_the_episode_runs(self, tmp_path, jitter):
        # it used to pass, and run_episode died in numpy with an OverflowError
        with pytest.raises(ConfigError, match="jitter_xy_m must be non-negative and finite"):
            run_episode(config_of(MINI, jitter_xy_m=jitter), Condition.UNASSISTED, 0, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_sim_params_validation(self):
        for kw in ({"dt": 0.0}, {"timeout_s": 0.0}, {"planner_rate_hz": 0.0},
                   {"exec_min_command": -0.1}, {"costmap_memory_s": -1.0},
                   {"walker_heading_sigma_rad": math.nan}):
            with pytest.raises(ConfigError):
                SimParams(**kw)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SimParams)])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_sim_params_refuse_non_finite_values(self, name, value):
        # timeout_s=inf constructed, and an episode that neither reached the
        # goal nor stalled would never end
        with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
            SimParams(**{name: value})

    def test_perception_spec_validation(self):
        for kw in ({"resolution_m": 0.0}, {"width": 0}, {"r_inf_m": -0.1},
                   {"z_band_low_m": 0.5, "z_band_high_m": 0.5}):
            with pytest.raises(ConfigError):
                PerceptionSpec(**kw)

    # (class, the error it raises, the prefix of its messages, field)
    CONFIG_FIELDS = [
        (cls, error, prefix, f.name)
        for cls, error, prefix in (
            (PerceptionSpec, ConfigError, "perception."),
            (ApfParams, ValueError, "ApfParams."),
            (HumanSafetyParams, ValueError, ""),
            (ArbiterConfig, ValueError, ""),
            (SentinelConfig, ValueError, ""),
        )
        for f in dataclasses.fields(cls)
        if f.name != "roi"  # a pixel region, checked by RoiSpec
    ]

    @pytest.mark.parametrize(
        "cls, error, prefix, name", CONFIG_FIELDS, ids=[f"{c[0].__name__}.{c[3]}" for c in CONFIG_FIELDS]
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_config_classes_refuse_non_finite_values(self, cls, error, prefix, name, value):
        # each constructed: an infinite inflation radius or staleness timeout,
        # a NaN costmap resolution
        arg = (value, 0.0) if name == "origin_xy" else value
        with pytest.raises(error, match=f"^{re.escape(prefix + name)} must be finite$"):
            cls(**{name: arg})

    @pytest.mark.parametrize("name", ["leash_length_m", "body_radius_m", "head_height_m", "chest_height_m"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1.0])
    def test_scene_body_and_leash_sizes_must_be_positive_and_finite(self, name, value):
        rule = "finite" if value == math.inf else "positive"
        with pytest.raises(ConfigError, match=f"^scene: {name} must be {rule}$"):
            config_of(dataclasses.replace(MINI, **{name: value})).validate()

    @pytest.mark.parametrize("condition", [Condition.UNASSISTED, Condition.SINGLE_VIEW])
    def test_a_nan_leash_is_refused_before_the_episode_runs(self, tmp_path, condition):
        # it ran a whole episode with a person at (nan, nan), who never collided
        with pytest.raises(ConfigError, match="leash_length_m must be positive"):
            run_episode(config_of(dataclasses.replace(MINI, leash_length_m=math.nan)), condition, 0, tmp_path)
        assert not any(tmp_path.iterdir())


MINI = scene_of([box((1.8, 0.15), (0.2, 0.2), oid="bin")])
LAMP_MINI = scene_of([cyl((2.0, 0.0), 0.25, (1.6, 1.8), oid="lamp")], goal=(4.0, 0.0))


class TestPosesAreFloatTriples:
    @pytest.mark.parametrize("condition", list(Condition))
    def test_every_row_of_an_episode_reads_poses_of_three_python_floats(self, tmp_path, monkeypatch, condition):
        # a numpy scalar in a pose would keep the trace bytes, but slow the
        # float arithmetic of every tick after it
        format_row = _Episode._format_row
        poses = []

        def checked(episode, events):
            poses.extend((episode.state.robot_pose, episode.state.human_pose))
            return format_row(episode, events)

        monkeypatch.setattr(_Episode, "_format_row", checked)
        lamp_and_bin = scene_of([*LAMP_MINI.obstacles, *MINI.obstacles], goal=(4.0, 0.0))
        run_episode(config_of(lamp_and_bin), condition, 0, tmp_path)
        assert len(poses) > 200
        for pose in poses:
            assert type(pose) is tuple and [type(v) for v in pose] == [float] * 3, pose


class TestFormatRow:
    """A row built from ``_command_changed``'s columns and ``_format_row`` has the bytes of the f-string it replaced."""

    @staticmethod
    def f_string_row(t, st, cmd, decision, roi_depth, events):
        # the row as the f-string wrote it, verbatim, save that the time
        # is the episode's and no longer the state's
        a = decision.a if decision is not None else 0
        depth = "" if roi_depth is None else f"{roi_depth:.3f}"
        return (
            f"{t:.3f},{st.robot_pose[0]:.6f},{st.robot_pose[1]:.6f},{st.robot_pose[2]:.6f},"
            f"{st.human_pose[0]:.6f},{st.human_pose[1]:.6f},{cmd.source.value},{a},"
            f"{cmd.v_x:.6f},{cmd.v_y:.6f},{cmd.w_z:.6f},{depth},{'|'.join(events)}"
        )

    @staticmethod
    def edge_values():
        """np.float64 values on and one ulp either side of the rounding edges of %.6f and %.3f, and NaN and inf."""
        edges = [0.0, 5e-7, 2.5e-7, 1.5e-6, 0.0005, 1.0005, 2.0000005, 12.3456785, 72.86000000000264]
        edges += [(k + 0.5) * 1e-6 for k in range(-4, 4)] + [1e6 + 5e-7, math.pi]
        out = []
        for e in edges:
            for v in (e, np.nextafter(e, math.inf), np.nextafter(e, -math.inf)):
                out += [np.float64(v), np.float64(-v)]
        return out + [np.float64(math.nan), np.float64(math.inf), np.float64(-math.inf)]

    @staticmethod
    def row(t, state, executed, decision, roi_depth, events):
        """The row of an episode holding these values, its command columns formatted first."""
        episode = types.SimpleNamespace(
            time=t, state=state, executed=executed, decision=decision, roi_depth=roi_depth,
            config=types.SimpleNamespace(arbiter=ArbiterConfig()),
        )
        _Episode._command_changed(episode)
        return _Episode._format_row(episode, events)

    def test_rows_match_the_f_string_bytewise(self):
        values = self.edge_values()
        rng = np.random.default_rng(7)
        events_cases = ([], ["goal"], ["collision:overhead:lamp", "robot_contact:cab", "timeout"])

        def pick():
            if rng.random() < 0.8:
                return values[int(rng.integers(len(values)))]
            return np.float64(rng.normal(0.0, 5.0))

        for i in range(2000):
            t = pick()
            state = WorldState(
                robot_pose=np.array([pick(), pick(), pick()]),
                robot_vel=cmd(),
                human_pose=np.array([pick(), pick(), pick()]),
                human_bend=BendPose.UPRIGHT,
            )
            source = CommandSource.WALKER if i % 2 else CommandSource.HUMAN
            executed = VelocityCommand(pick(), pick(), pick(), 0.0, source)
            decision = None if i % 3 == 0 else ArbitrationDecision(i % 2, executed)
            roi_depth = (None, pick(), float(pick()), np.float64(math.inf))[i % 4]
            events = events_cases[i % 3]
            got = self.row(t, state, executed, decision, roi_depth, events)
            assert got == self.f_string_row(t, state, executed, decision, roi_depth, events), i
        negative_zero = self.row(
            0.0, world_state(robot=(-0.0, -1e-9, 0.0), human=(-0.0, 0.0, 0.0)), cmd(-0.0), None, None, []
        )
        assert negative_zero == "0.000,-0.000000,-0.000000,0.000000,-0.000000,0.000000,apf,0,-0.000000,0.000000,0.000000,,"

    @pytest.mark.parametrize("condition", [Condition.UNASSISTED, Condition.CROSS_VIEW])
    def test_every_row_of_an_episode_shows_the_command_of_its_tick(self, tmp_path, monkeypatch, condition):
        """The command columns are formatted when a task changes them, yet each row is the f-string of its tick."""
        format_row = _Episode._format_row
        rows = []

        def checked(episode, events):
            row = format_row(episode, events)
            assert row == self.f_string_row(
                episode.time, episode.state, episode.executed, episode.decision, episode.roi_depth, events
            ), len(rows)
            assert episode.executed_norm == command_norm(episode.executed, episode.config.arbiter.char_length)
            rows.append(row)
            return row

        monkeypatch.setattr(_Episode, "_format_row", checked)
        lamp_and_bin = scene_of([*LAMP_MINI.obstacles, *MINI.obstacles], goal=(4.0, 0.0))
        run_episode(config_of(lamp_and_bin, safety=HumanSafetyParams(d_safe=1.2, recovery_duration=2.0)),
                    condition, 0, tmp_path)
        commands = [row.split(",", 6)[6].rsplit(",", 1)[0] for row in rows]
        changes = sum(a != b for a, b in zip(commands, commands[1:]))
        # the command changes mid-episode, and most rows repeat their predecessor's
        assert 10 < changes < len(rows) / 2
        if condition is Condition.CROSS_VIEW:
            assert {c.split(",")[0] for c in commands} == {"apf", "human"}
            assert any(c.split(",")[-1] for c in commands)  # a ROI depth was seen


class TestHypotVs:
    """``_hypot_vs(dx, dy, r)`` compares with r as ``np.hypot(dx, dy)`` does."""

    BOUNDS = (0.0, 1e-200, 1e-161, 1e-158, 1e-154, 1e-9, 0.05, 0.2, 3.0, 1e150, 1e155)

    @staticmethod
    def cases(r, rng):
        """Points on the circle of radius r moved by up to 3 ulps per component, and scaled across the band's edges."""

        def ulps(v, k):
            for _ in range(abs(k)):
                v = float(np.nextafter(v, math.copysign(math.inf, k)))
            return v

        out = []
        for theta in [0.0, math.pi / 4, math.pi / 2, 2.0, *rng.uniform(-math.pi, math.pi, 8).tolist()]:
            x, y = r * math.cos(theta), r * math.sin(theta)
            out += [(ulps(x, i), ulps(y, j)) for i in range(-3, 4) for j in range(-3, 4)]
            for f in (1 - 6e-10, 1 - 5e-10, 1 - 4e-10, 1 - 1e-12, 1 + 1e-12, 1 + 4e-10, 1 + 5e-10, 1 + 6e-10):
                out += [(x * f, y * f), (x * f, y)]
        return out

    @staticmethod
    def wild():
        """Signed zeros, subnormals, tiny, huge, NaN and infinite components."""
        values = [0.0, 5e-324, 2.2e-308, 1e-170, 1e-9, 0.1, 1.0, 1e155, 1e300, 1.7e308,
                  math.nan, math.inf]
        values += [-v for v in values]
        return [(a, b) for a in values for b in values]

    def test_every_comparison_agrees_with_np_hypot(self):
        rng = np.random.default_rng(11)
        ops = (float.__lt__, float.__le__, float.__gt__, float.__ge__, float.__eq__)
        checked = 0
        for r in self.BOUNDS:
            points = self.cases(r, rng) + self.wild()
            scale = r if r > 0 else 1.0
            points += [tuple(p) for p in rng.normal(0.0, scale, (200, 2)).tolist()]
            for dx, dy in points:
                with np.errstate(over="ignore"):  # 1.7e308 components
                    got, want = sim._hypot_vs(dx, dy, r), float(np.hypot(dx, dy))
                for op in ops:
                    assert op(got, r) == op(want, r), (dx, dy, r, op)
                checked += 1
        assert checked > 5000

    def test_is_np_hypot_inside_the_band(self):
        x, y = 0.2 * math.cos(1.0), 0.2 * math.sin(1.0)
        assert sim._hypot_vs(x, y, 0.2) == float(np.hypot(x, y))
        assert math.isnan(sim._hypot_vs(math.nan, 0.0, 0.2))
        assert sim._hypot_vs(math.inf, math.nan, 0.2) == math.inf  # np.hypot's answer, not NaN


class TestRunEpisode:
    def test_all_conditions_reach_the_goal(self, tmp_path):
        cfg = config_of(MINI)
        for condition in Condition:
            rep = run_episode(cfg, condition, 0, out_dir=tmp_path)
            assert rep.status is TerminationStatus.GOAL
            assert rep.completion_time_s is not None
            expected = tmp_path / f"mini_{condition.value}_seed0000.csv"
            assert Path(rep.trace_path) == expected
            assert expected.exists()

    def test_trace_format(self, tmp_path):
        rep = run_episode(config_of(MINI), Condition.SINGLE_VIEW, 0, out_dir=tmp_path)
        lines = Path(rep.trace_path).read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        rows = list(csv.DictReader(lines))
        times = [float(r["t"]) for r in rows]
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[-1] == pytest.approx(rep.completion_time_s)
        assert rows[-1]["event"] == "goal"
        assert all(len(line.split(",")) == 13 for line in lines[1:])

    def test_condition_source_isolation(self, tmp_path):
        cfg = config_of(LAMP_MINI, safety=HumanSafetyParams(d_safe=1.2, recovery_duration=2.0))
        allowed = {
            Condition.UNASSISTED: {"walker"},
            Condition.SINGLE_VIEW: {"apf"},
            Condition.CROSS_VIEW: {"apf", "human"},
        }
        seen = {}
        for condition in Condition:
            rep = run_episode(cfg, condition, 0, out_dir=tmp_path)
            with open(rep.trace_path) as fh:
                seen[condition] = {r["source"] for r in csv.DictReader(fh)}
            assert seen[condition] <= allowed[condition]
        # the chest branch actually fires on this course
        assert "human" in seen[Condition.CROSS_VIEW]

    def test_stalls_when_the_executor_deadband_pins_the_robot(self, tmp_path):
        cfg = config_of(
            scene_of(goal=(1.0, 0.0)),
            sim={"exec_min_command": 0.2, "stall_grace_s": 1.0, "stall_window_s": 1.0,
                 "timeout_s": 30.0},
        )
        rep = run_episode(cfg, Condition.SINGLE_VIEW, 0, out_dir=tmp_path)
        assert rep.status is TerminationStatus.STALLED
        assert rep.completion_time_s is None

    def test_times_out_when_the_goal_is_unreachable_in_time(self, tmp_path):
        cfg = config_of(scene_of(goal=(5.0, 0.0)), sim={"timeout_s": 1.0})
        rep = run_episode(cfg, Condition.UNASSISTED, 0, out_dir=tmp_path)
        assert rep.status is TerminationStatus.TIMEOUT
        lines = Path(rep.trace_path).read_text().splitlines()
        assert len(lines) == 52  # header + t=0 row + 50 physics rows

    def test_goal_inside_tolerance_terminates_immediately(self, tmp_path):
        cfg = config_of(scene_of(goal=(0.05, 0.0)))
        rep = run_episode(cfg, Condition.SINGLE_VIEW, 0, out_dir=tmp_path)
        assert rep.status is TerminationStatus.GOAL
        assert rep.completion_time_s == pytest.approx(cfg.sim.dt)

    def test_announcement_side_channel(self, tmp_path):
        rep = run_episode(config_of(MINI), Condition.SINGLE_VIEW, 0, out_dir=tmp_path)
        side = Path(rep.trace_path).with_suffix(".announcements.txt")
        assert side.exists()
        lines = [ln for ln in side.read_text().splitlines() if ln]
        assert len(lines) == rep.announcements
        assert rep.announcements >= 1
        for ln in lines:
            stamp, text = ln.split("\t", 1)
            assert float(stamp) >= 0.0 and text

    @pytest.mark.parametrize("seed", [-1, 0.0, 2.5, False, "0", None])
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused(self, tmp_path, seed):
        with pytest.raises(ConfigError, match=f"seed {seed!r} must be a non-negative integer"):
            run_episode(config_of(MINI), Condition.UNASSISTED, seed, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_a_numpy_integer_seed_runs_as_the_int(self, tmp_path):
        a = run_episode(config_of(MINI), Condition.UNASSISTED, np.int64(3), out_dir=tmp_path / "a")
        b = run_episode(config_of(MINI), Condition.UNASSISTED, 3, out_dir=tmp_path / "b")
        assert Path(a.trace_path).read_bytes() == Path(b.trace_path).read_bytes()

    def test_unassisted_has_no_announcement_channel(self, tmp_path):
        rep = run_episode(config_of(MINI), Condition.UNASSISTED, 0, out_dir=tmp_path)
        assert rep.announcements == 0
        assert not Path(rep.trace_path).with_suffix(".announcements.txt").exists()

    def test_failing_describer_never_perturbs_motion(self, tmp_path):
        def broken(sightings, prompt):
            raise RuntimeError("offline")

        ok = run_episode(config_of(MINI), Condition.SINGLE_VIEW, 0,
                         out_dir=tmp_path / "ok")
        bad = run_episode(config_of(MINI), Condition.SINGLE_VIEW, 0,
                          out_dir=tmp_path / "bad", describer=broken)
        assert Path(ok.trace_path).read_bytes() == Path(bad.trace_path).read_bytes()
        assert ok.announcements == bad.announcements >= 1
        # the failed description is logged as an empty line, not dropped
        side = Path(bad.trace_path).with_suffix(".announcements.txt")
        assert all(ln.endswith("\t") for ln in side.read_text().splitlines() if ln)


class TestOneClock:
    """The scheduler's integer-nanosecond tick times are the only time in an episode."""

    @staticmethod
    def trace_rows(report):
        with open(report.trace_path) as fh:
            return list(csv.DictReader(fh))

    def test_canonical_unassisted_seed_0_completes_at_its_tick_time(self, tmp_path):
        report = run_episode(load_scenario("canonical"), Condition.UNASSISTED, 0, tmp_path)
        # a float sum of dt read 72.86000000000264
        assert report.status is TerminationStatus.GOAL and report.completion_time_s == 72.86

    def test_a_recontact_one_second_after_the_last_event_is_a_new_event(self, tmp_path):
        # the person touches the chair again 1.000 s after its first event; a
        # float sum of dt read that gap as 0.9999999999999787, inside the
        # 1 s debounce, and dropped the second event
        report = run_episode(load_scenario("canonical"), Condition.UNASSISTED, 13, tmp_path)
        chair = [r["t"] for r in self.trace_rows(report) if "collision:ground:chair" in r["event"]]
        assert chair[:2] == ["10.860", "11.860"]
        assert report.collisions_ground == 3

    @pytest.mark.parametrize("ticks", [1, 3, 29, 50, 71, 97])
    def test_a_timeout_on_a_tick_boundary_ends_on_that_ticks_row(self, tmp_path, ticks):
        timeout = ticks / 50  # the double nearest ticks * 0.02 s
        report = run_episode(config_of(MINI, sim={"timeout_s": timeout}), Condition.UNASSISTED, 0, tmp_path)
        rows = self.trace_rows(report)
        assert report.status is TerminationStatus.TIMEOUT
        assert len(rows) == ticks + 1
        assert rows[-1]["t"] == f"{timeout:.3f}" and rows[-1]["event"] == "timeout"

    def test_a_timeout_just_past_a_tick_waits_for_the_next_tick(self, tmp_path):
        # within the 1e-9 s slack the timeout test once had
        report = run_episode(config_of(MINI, sim={"timeout_s": 1.0 + 5e-10}), Condition.UNASSISTED, 0, tmp_path)
        assert self.trace_rows(report)[-1]["t"] == "1.020"

    def test_a_tick_time_never_reads_below_its_decimal_value(self):
        """So ``t >= c``, for a constant c on a tick boundary, holds from that tick on.

        A tick time is t_ns * 1e-9, and the double 1e-9 lies above 1e-9, so
        by monotone rounding t_ns * 1e-9 is never below t_ns / 1e9, the
        double nearest the decimal time.
        """
        above = 0
        for rate in (50.0, 1.0 / 0.02, 10.0, 15.0, 20.0, 1.0 / 0.03, 1.0 / 0.007):
            for k in range(12_000):
                t_ns = sim._tick_ns(k, rate)
                assert t_ns * 1e-9 >= t_ns / 1e9, (rate, k)
                above += t_ns * 1e-9 > t_ns / 1e9
        r = random.Random(17)
        for _ in range(20_000):
            t_ns = r.randrange(2**53)
            assert t_ns * 1e-9 >= t_ns / 1e9, t_ns
        assert above > 10_000  # the case the property is about occurs

    def test_every_task_reads_a_state_at_the_first_physics_instant_not_before_its_now(self, tmp_path, monkeypatch):
        # physics ticks last at an instant, so a task on the physics grid reads
        # the state at its own now, and one between (15 Hz chest) the state
        # physics has already stepped to the next grid instant
        seen = []
        for name in ("_planner_tick", "_chest_tick", "_arbiter_tick", "_walker_tick"):
            def checked(episode, now, tick=getattr(_Episode, name)):
                seen.append((episode.time, now))
                tick(episode, now)

            monkeypatch.setattr(_Episode, name, checked)
        for condition in (Condition.UNASSISTED, Condition.CROSS_VIEW):
            run_episode(config_of(MINI), condition, 0, tmp_path)
        dt_ns = 20_000_000
        for t, now in seen:
            t_ns, now_ns = round(t * 1e9), round(now * 1e9)
            assert t_ns % dt_ns == 0 and now_ns <= t_ns < now_ns + dt_ns, (t, now)
            # on the physics grid a task's now is the state's time, bit for bit
            assert (t == now) == (t_ns == now_ns), (t, now)
        on_grid = sum(t == now for t, now in seen)
        assert on_grid > 300 and len(seen) - on_grid > 50  # the 15 Hz chest ticks fall between


def hazard_bytes(hazard):
    """Everything a HazardInfo holds, comparable bit for bit; None stays None."""
    if hazard is None:
        return None
    return hazard.nearest_point.tobytes(), hazard.distance, hazard.lateral_offset, hazard.height


class TestCorridorCull:
    """Dropping the obstacles that cannot touch the hazard box changes no bit of the hazard."""

    @staticmethod
    def random_case(rng):
        """A random scene, human pose and safety params with the chest camera inside the box.

        Besides four obstacles anywhere, each scene holds one probe of the
        box's edge: a cylinder poking a few centimetres into one of its far
        corners, where the circle test is tightest, or a slab one ulp
        outside the band, some of whose face returns rounding puts inside.
        """
        chest = rng.uniform(1.0, 1.5)
        d_safe = rng.uniform(0.8, 1.8)
        safety = HumanSafetyParams(
            corridor_half_width=rng.uniform(0.2, 0.6),
            z_low=rng.uniform(0.2, chest),
            z_high=rng.uniform(chest, 2.2),
            d_safe=d_safe,
            d_brake=0.5 * d_safe,
            release_hysteresis=rng.choice([0.0, rng.uniform(0.0, 0.4)]),
        )
        reach = safety.d_safe + safety.release_hysteresis
        half = safety.corridor_half_width
        human = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-np.pi, np.pi)])
        c, s = math.cos(human[2]), math.sin(human[2])

        def world_xy(fwd, lat):
            return human[0] + c * fwd - s * lat, human[1] + s * fwd + c * lat

        if rng.uniform() < 0.5:
            side = rng.choice([-1.0, 1.0])
            diagonal = np.array([reach / 2.0, side * half]) / math.hypot(reach / 2.0, half)
            radius = rng.uniform(0.05, 0.15)
            fwd, lat = np.array([reach, side * half]) + diagonal * (radius + rng.uniform(-0.06, 0.03))
            probe = cyl(world_xy(fwd, lat), radius, (0.0, 2.5), oid="corner")
        else:
            if rng.uniform() < 0.5:
                z0 = float(np.nextafter(safety.z_high, np.inf))
                z = (z0, z0 + rng.uniform(0.05, 0.5))
            else:
                z1 = float(np.nextafter(safety.z_low, -np.inf))
                z = (max(z1 - rng.uniform(0.05, 0.5), 0.0), z1)
            xy = world_xy(rng.uniform(0.5, reach + 0.5), rng.uniform(-half, half))
            probe = box(xy, rng.uniform(0.1, 0.6, 2), z, oid="slab")
        obstacles = [probe]
        for k in range(4):
            xy = world_xy(rng.uniform(-1.0, 4.0), rng.uniform(-2.5, 2.5))
            z0 = rng.uniform(0.0, 2.0)
            z = (z0, z0 + rng.uniform(0.05, 1.0))
            if rng.uniform() < 0.5:
                obstacles.append(box(xy, rng.uniform(0.05, 0.6, 2), z, oid=f"b{k}"))
            else:
                obstacles.append(cyl(xy, rng.uniform(0.05, 0.4), z, oid=f"c{k}"))
        scene = dataclasses.replace(scene_of(obstacles), chest_height_m=chest)
        return scene, human, safety

    def test_hazard_is_bitwise_the_same(self):
        # with the cull's slack set to 0, 8 of these 120 cases differ; with
        # its circle 5 cm smaller, 17 do
        rng = np.random.default_rng(7)
        rig = default_rig()
        culled = hazards = cases = 0
        for case in range(120):
            scene, human, safety = self.random_case(rng)
            assert chest_camera_in_hazard_box(rig, scene.chest_height_m, safety)
            engaged = dataclasses.replace(safety, d_safe=safety.d_safe + safety.release_hysteresis)
            bend = BendPose.BENT if case % 3 == 0 else BendPose.UPRIGHT
            kept = corridor_scene(scene, human, safety)
            culled += len(kept.obstacles) < len(scene.obstacles)
            _, full_cloud = chest_observation(scene, human, bend, rig)
            _, kept_cloud = chest_observation(kept, human, bend, rig)
            for params in (safety, engaged):
                want = hazard_bytes(detect_hazard(full_cloud, params))
                assert hazard_bytes(detect_hazard(kept_cloud, params)) == want, f"case {case}"
                hazards += want is not None
                cases += 1
        # neither side of the comparison may be trivial
        assert culled >= 60
        assert 0.1 * cases <= hazards <= 0.9 * cases

    def test_every_obstacle_kept_gives_the_scene_itself(self):
        safety = HumanSafetyParams()
        scene = scene_of([cyl((1.0, 0.0), 0.2, (1.0, 1.5))])
        assert corridor_scene(scene, np.zeros(3), safety) is scene

    def test_obstacles_out_of_the_band_or_out_of_reach_are_dropped(self):
        safety = HumanSafetyParams(z_low=1.0, z_high=1.9, d_safe=1.2, release_hysteresis=0.2)
        keep = cyl((1.0, 0.0), 0.2, (1.0, 1.5), oid="lamp")
        low = box((1.0, 0.0), (0.2, 0.2), (0.0, 0.9), oid="bin")
        far = cyl((3.0, 0.0), 0.2, (1.0, 1.5), oid="far")
        behind = cyl((-1.0, 0.0), 0.2, (1.0, 1.5), oid="behind")
        scene = scene_of([keep, low, far, behind])
        kept = corridor_scene(scene, np.zeros(3), safety)
        assert [ob.obstacle_id for ob in kept.obstacles] == ["lamp"]
        # the box turns with the body: facing -x, only "behind" is ahead
        turned = corridor_scene(scene, np.array([0.0, 0.0, math.pi]), safety)
        assert [ob.obstacle_id for ob in turned.obstacles] == ["behind"]


# a lamp in the band ahead of the human and a bin below it, beyond the box's reach
CULL_SCENE = scene_of(
    [cyl((0.5, 0.0), 0.25, (1.0, 1.6), oid="lamp"), box((4.0, 1.0), (0.2, 0.2), (0.0, 0.5), oid="bin")],
    goal=(5.0, 0.0),
)


@pytest.fixture
def chest_scenes(monkeypatch):
    """The scenes that chest_observation is called with, in order."""
    seen = []
    original = sim.chest_observation

    def recording(scene, *args, **kwargs):
        seen.append(scene)
        return original(scene, *args, **kwargs)

    monkeypatch.setattr(sim, "chest_observation", recording)
    return seen


class TestChestTick:
    """The engine culls the chest scene only where the cull is exact: camera in the box, no noise."""

    def episode(self, tmp_path, **kw):
        return _Episode(config_of(CULL_SCENE, **kw), Condition.CROSS_VIEW, 0, tmp_path, None, None)

    def test_a_noise_free_tick_renders_the_culled_scene(self, tmp_path, chest_scenes):
        ep = self.episode(tmp_path, safety=HumanSafetyParams(z_low=0.8, z_high=1.9))
        ep._chest_tick(0.0)
        assert [ob.obstacle_id for ob in chest_scenes[0].obstacles] == ["lamp"]

    @pytest.mark.parametrize(
        "kw",
        [
            {"sim": {"depth_sigma_m": 0.02}},
            {"safety": HumanSafetyParams(z_low=1.2, z_high=1.9)},  # camera under the band
            {"safety": HumanSafetyParams(z_low=0.3, z_high=1.0)},  # camera over the band
            {"rig": dataclasses.replace(default_rig(), chest_forward_m=2.0)},  # camera beyond reach
            {"rig": dataclasses.replace(default_rig(), chest_forward_m=0.0)},  # camera not ahead of the body
        ],
        ids=["noise", "camera_under_band", "camera_over_band", "camera_beyond_reach", "camera_at_x0"],
    )
    def test_the_full_scene_is_rendered_otherwise(self, tmp_path, chest_scenes, kw):
        ep = self.episode(tmp_path, **kw)
        ep._chest_tick(0.0)
        assert len(chest_scenes) == 1 and chest_scenes[0] is ep.scene

    def test_one_render_per_tick(self, tmp_path, monkeypatch):
        renders = []
        original = sim.render_depth
        monkeypatch.setattr(sim, "render_depth", lambda *a: renders.append(a[0]) or original(*a))
        # the lamp is beyond this shorter reach, so the culled scene is empty
        ep = self.episode(tmp_path, safety=HumanSafetyParams(d_safe=0.6, d_brake=0.3, release_hysteresis=0.0))
        for k in range(3):
            ep._chest_tick(k / 15.0)
            assert len(renders) == k + 1
            assert renders[-1].obstacles == ()


class TestNoiseStreams:
    def test_the_robot_stream_starts_the_same_in_single_and_cross_view(self, tmp_path):
        cfg = config_of(CULL_SCENE, sim={"depth_sigma_m": 0.03})
        states = [
            _Episode(cfg, condition, 5, tmp_path, None, None).rng_robot_noise.bit_generator.state
            for condition in (Condition.SINGLE_VIEW, Condition.CROSS_VIEW)
        ]
        assert states[0] == states[1]

    def test_chest_noise_leaves_the_robot_stream_alone(self, tmp_path):
        cfg = config_of(CULL_SCENE, sim={"depth_sigma_m": 0.03})
        ep = _Episode(cfg, Condition.CROSS_VIEW, 5, tmp_path, None, None)
        robot = ep.rng_robot_noise.bit_generator.state
        chest = ep.rng_chest_noise.bit_generator.state
        ep._chest_tick(0.0)
        assert ep.rng_robot_noise.bit_generator.state == robot
        assert ep.rng_chest_noise.bit_generator.state != chest


class TestUniqueCells:
    def test_matches_the_row_sort_bitwise(self):
        rng = np.random.default_rng(3)
        lim = 2**31
        for span in (3, 1000, lim):
            cells = rng.integers(max(-span, -lim), min(span, lim), size=(500, 2), dtype=np.int64)
            cells = np.vstack([cells, cells[:100], [[-lim, -lim], [lim - 1, lim - 1], [-lim, lim - 1], [0, -1]]])
            got, want = unique_cells(cells), np.unique(cells, axis=0)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_empty_and_single_rows(self):
        for cells in (np.zeros((0, 2), dtype=np.int64), np.array([[-4, 7]], dtype=np.int64)):
            assert unique_cells(cells).tobytes() == np.unique(cells, axis=0).tobytes()
