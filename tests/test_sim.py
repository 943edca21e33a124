"""World stepping, sensing pipelines, collision accounting, and full episodes."""

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from crossnav.arbiter import ArbiterConfig
from crossnav.geometry import FrameId, RigidTransform
from crossnav.human_branch import HumanSafetyParams
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
    _chest_mount,
    _exec_round,
    _mount,
    _robot_mount,
    chest_camera_pose,
    chest_observation,
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
)
from crossnav.world import Obstacle, ObstacleKind, ObstacleShape, Scene


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
        rig=default_rig(),
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
        time=0.0,
        robot_pose=np.array(robot, dtype=float),
        robot_vel=VelocityCommand.zero(0.0, CommandSource.APF),
        human_pose=np.array(human, dtype=float),
        human_bend=BendPose.UPRIGHT,
        rng_seed=0,
    )


def cmd(v_x=0.0, v_y=0.0, w_z=0.0, source=CommandSource.APF):
    return VelocityCommand(v_x, v_y, w_z, 0.0, source)


EMPTY = scene_of()


class TestStepKinematics:
    def test_straight_line(self):
        s1 = step(world_state(), cmd(v_x=1.0), 0.02, EMPTY)
        np.testing.assert_allclose(s1.robot_pose, [0.02, 0.0, 0.0], atol=1e-15)
        assert s1.time == 0.02

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


class TestCameraPoses:
    def test_robot_camera_frames_and_mount_offset(self):
        rig = default_rig()
        pose = robot_camera_pose(np.array([1.0, 2.0, math.pi / 2]), rig, stamp=3.0)
        assert pose.from_frame is FrameId.OPTICAL_DOG
        assert pose.to_frame is FrameId.WORLD
        assert pose.stamp == 3.0
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
    return t.rotation.tobytes(), t.translation.tobytes(), t.from_frame, t.to_frame, t.stamp


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
        transforms_built[0] = 0
        robot_branch_observation(scene, np.array([0.1, 0.0, 0.2]), rig, PerceptionSpec(), stamp=0.1)
        assert transforms_built[0] == 2
        for bend in BendPose:
            transforms_built[0] = 0
            chest_observation(scene, human, bend, rig, stamp=0.1)
            assert transforms_built[0] == 2


class TestRobotBranchObservation:
    SPEC = PerceptionSpec()

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

    def test_entering_transition_counts_once(self):
        scene = scene_of([box((1.0, 0.0), (0.3, 0.3))])
        tracker = CollisionTracker(scene, self.SIM)
        inside, outside = np.array([1.0, 0.0]), np.array([4.0, 0.0])
        assert len(tracker.update(0.0, inside, None)) == 1
        assert len(tracker.update(0.1, inside, None)) == 0  # still overlapping
        assert tracker.in_contact("human")
        assert len(tracker.update(0.2, outside, None)) == 0
        assert not tracker.in_contact("human")

    def test_recontact_is_debounced(self):
        scene = scene_of([box((1.0, 0.0), (0.3, 0.3))])
        tracker = CollisionTracker(scene, self.SIM)
        inside, outside = np.array([1.0, 0.0]), np.array([4.0, 0.0])
        tracker.update(0.0, inside, None)
        tracker.update(0.2, outside, None)
        # bouncing straight back in is the same event
        assert len(tracker.update(0.4, inside, None)) == 0
        tracker.update(0.6, outside, None)
        # a full debounce window later it counts again
        assert len(tracker.update(1.0 + 1e-6, inside, None)) == 1

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
        assert detect_collisions(state, scene, tracker) == []


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

    def test_negative_jitter_is_rejected(self):
        with pytest.raises(ConfigError):
            config_of(scene_of(), jitter_xy_m=-0.1).validate()

    def test_sim_params_validation(self):
        for kw in ({"dt": 0.0}, {"timeout_s": 0.0}, {"planner_rate_hz": 0.0},
                   {"exec_min_command": -0.1}, {"costmap_memory_s": -1.0}):
            with pytest.raises(ConfigError):
                SimParams(**kw)

    def test_perception_spec_validation(self):
        for kw in ({"resolution_m": 0.0}, {"width": 0}, {"r_inf_m": -0.1},
                   {"z_band_low_m": 0.5, "z_band_high_m": 0.5}):
            with pytest.raises(ConfigError):
                PerceptionSpec(**kw)


MINI = scene_of([box((1.8, 0.15), (0.2, 0.2), oid="bin")])
LAMP_MINI = scene_of([cyl((2.0, 0.0), 0.25, (1.6, 1.8), oid="lamp")], goal=(4.0, 0.0))


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
