"""Obstacle course model and the analytic depth renderer.

The renderer is pinned two ways: exact closed-form cases where the geometry
makes the answer obvious, and a slow inside-test ray march as an independent
oracle on randomized scenes.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import parent_casters
import parent_render
import parent_windows
from crossnav import world
from crossnav.geometry import FrameId, RigidTransform, rot_y, rot_z
from crossnav.sentinel import RoiSpec, default_roi, roi_min_depth
from crossnav.sim import BendPose, chest_camera_pose, default_rig, robot_camera_pose
from crossnav.world import (
    CameraIntrinsics,
    DepthImage,
    Obstacle,
    ObstacleKind,
    ObstacleShape,
    Scene,
    _cone_normals,
    _outside_cone,
    _pixel_window,
    _ray_axes,
    _ray_component,
    _raycast_box,
    _raycast_cylinder,
    _view_cone,
    apply_depth_noise,
    deproject,
    render_depth,
)


def box(oid, cx, cy, hx, hy, z0, z1, kind=ObstacleKind.GROUND):
    return Obstacle(oid, ObstacleShape.BOX, np.array([cx, cy]), z0, z1, kind,
                    half_extents=np.array([hx, hy]))


def cyl(oid, cx, cy, r, z0, z1, kind=ObstacleKind.GROUND):
    return Obstacle(oid, ObstacleShape.CYLINDER, np.array([cx, cy]), z0, z1, kind, radius=r)


def camera_pose(xyz, yaw=0.0, pitch=0.0):
    """Optical frame posed in the world: +z optical along world yaw/pitch."""
    opt_to_phys = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    rot = rot_z(yaw) @ rot_y(pitch) @ opt_to_phys
    return RigidTransform(rot, np.asarray(xyz, dtype=float), FrameId.OPTICAL_DOG, FrameId.WORLD)


def scene_of(*obstacles):
    return Scene(
        obstacles=obstacles,
        start_robot=np.array([0.0, 0.0, 0.0]),
        goal=np.array([5.0, 0.0]),
        corridor_min=np.array([-10.0, -10.0]),
        corridor_max=np.array([10.0, 10.0]),
        leash_length_m=1.0,
        chest_height_m=1.3,
        body_radius_m=0.18,
        head_height_m=1.75,
    )


INTR = CameraIntrinsics.from_fov(width=64, height=48, hfov_deg=60.0, max_range=5.0)


class TestObstacle:
    def test_box_needs_half_extents(self):
        with pytest.raises(ValueError):
            Obstacle("b", ObstacleShape.BOX, np.zeros(2), 0.0, 1.0, ObstacleKind.GROUND)

    def test_cylinder_needs_radius(self):
        with pytest.raises(ValueError):
            Obstacle("c", ObstacleShape.CYLINDER, np.zeros(2), 0.0, 1.0, ObstacleKind.GROUND)

    def test_rejects_empty_z_span(self):
        with pytest.raises(ValueError):
            cyl("c", 0.0, 0.0, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("field, value", [
        ("center", (np.nan, 0.0)), ("center", (0.0, np.inf)), ("z_min", np.nan), ("z_min", -np.inf),
        ("z_max", np.nan), ("z_max", np.inf), ("radius", np.nan), ("radius", np.inf),
        ("half_extents", (np.nan, 0.2)), ("half_extents", (0.2, np.inf)),
    ])
    def test_rejects_non_finite_geometry(self, field, value):
        shape = ObstacleShape.BOX if field == "half_extents" else ObstacleShape.CYLINDER
        args = dict(obstacle_id="o", shape=shape, center=np.zeros(2), z_min=0.0, z_max=1.0,
                    kind=ObstacleKind.GROUND, half_extents=np.array([0.2, 0.2]), radius=0.2)
        Obstacle(**args)  # the base case is valid
        with pytest.raises(ValueError, match="finite"):
            Obstacle(**{**args, field: value})

    def test_cylinder_footprint_distance(self):
        c = cyl("c", 1.0, 0.0, 0.5, 0.0, 1.0)
        assert c.footprint_distance([3.0, 0.0]) == pytest.approx(1.5)
        assert c.footprint_distance([1.0, 0.0]) == pytest.approx(-0.5)

    def test_box_footprint_distance_corner(self):
        b = box("b", 0.0, 0.0, 1.0, 1.0, 0.0, 1.0)
        # outside past a corner: euclidean to the corner
        assert b.footprint_distance([2.0, 2.0]) == pytest.approx(np.sqrt(2.0))
        # inside: negative distance to the nearest face
        assert b.footprint_distance([0.5, 0.0]) == pytest.approx(-0.5)

    def test_overlap_requires_z_intersection(self):
        lamp = cyl("lamp", 0.0, 0.0, 0.3, 1.6, 1.8, ObstacleKind.OVERHEAD)
        assert not lamp.overlaps_vertical_cylinder([0.0, 0.0], 0.2, 0.0, 0.4)  # robot body
        assert lamp.overlaps_vertical_cylinder([0.0, 0.0], 0.2, 0.0, 1.75)  # human body
        # exactly touching footprints still counts
        assert lamp.overlaps_vertical_cylinder([0.5, 0.0], 0.2, 0.0, 1.75)


class TestScene:
    def test_validate_goal_in_corridor(self):
        s = scene_of()
        object.__setattr__(s, "goal", np.array([99.0, 0.0]))
        with pytest.raises(ValueError, match="goal"):
            s.validate(robot_clearance_m=0.5)

    def test_validate_body_sizes_are_positive_and_not_nan(self):
        for value in (-0.18, float("nan")):
            s = scene_of()
            object.__setattr__(s, "body_radius_m", value)
            with pytest.raises(ValueError, match="body_radius_m must be positive"):
                s.validate(robot_clearance_m=0.5)

    def test_validate_overhead_above_clearance(self):
        s = scene_of(cyl("low_lamp", 2.0, 0.0, 0.3, 0.4, 0.9, ObstacleKind.OVERHEAD))
        with pytest.raises(ValueError, match="low_lamp"):
            s.validate(robot_clearance_m=0.5)

    def test_validate_start_outside_ground_obstacles(self):
        s = scene_of(box("blocker", 0.0, 0.0, 0.5, 0.5, 0.0, 1.0))
        with pytest.raises(ValueError, match="blocker"):
            s.validate(robot_clearance_m=0.5)

    def test_validate_repeated_obstacle_id(self):
        s = scene_of(box("cab", 2.0, 0.0, 0.3, 0.3, 0.0, 0.9), box("cab", 4.0, 0.0, 0.3, 0.3, 0.0, 0.9))
        with pytest.raises(ValueError, match="cab"):
            s.validate(robot_clearance_m=0.5)

    def test_only_kind(self):
        s = scene_of(
            box("cab", 2.0, 0.0, 0.3, 0.3, 0.0, 0.9),
            cyl("lamp", 4.0, 0.0, 0.2, 1.6, 1.8, ObstacleKind.OVERHEAD),
        )
        kept = s.only_kind(ObstacleKind.OVERHEAD)
        assert [ob.obstacle_id for ob in kept.obstacles] == ["lamp"]
        assert s.only_kind(ObstacleKind.GROUND).obstacles[0].obstacle_id == "cab"


class TestIntrinsics:
    def test_from_fov_recovers_angle(self):
        intr = CameraIntrinsics.from_fov(width=160, height=120, hfov_deg=75.0, max_range=5.0)
        hfov = 2.0 * np.degrees(np.arctan((intr.width / 2.0) / intr.fx))
        assert hfov == pytest.approx(75.0)
        assert intr.cx == 80.0 and intr.cy == 60.0

    def test_from_fov_stores_python_floats(self):
        # the pixel windows run on Python floats; a numpy scalar here would
        # send their arithmetic through numpy
        intr = CameraIntrinsics.from_fov(width=160, height=120, hfov_deg=60.0, max_range=5.0)
        assert [type(v) for v in (intr.fx, intr.fy, intr.cx, intr.cy)] == [float] * 4

    @pytest.mark.parametrize("hfov_deg", [0.0, -10.0, 180.0, 200.0, float("nan")])
    def test_from_fov_rejects_degenerate_field_of_view(self, hfov_deg):
        # 0 deg gives an infinite focal length, 180 deg a vanishing one
        with pytest.raises(ValueError, match="field of view"):
            CameraIntrinsics.from_fov(width=160, height=120, hfov_deg=hfov_deg, max_range=5.0)

    @pytest.mark.parametrize("field, value", [
        ("fx", np.nan), ("fx", np.inf), ("fy", np.nan), ("fy", np.inf), ("fy", -1.0),
        ("max_range", np.nan), ("max_range", np.inf), ("max_range", 0.0),
    ])
    def test_rejects_non_finite_or_non_positive_scales(self, field, value):
        good = dict(fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=160, height=120, max_range=5.0)
        CameraIntrinsics(**good)
        with pytest.raises(ValueError, match="positive and finite"):
            CameraIntrinsics(**{**good, field: value})

    def test_rejects_bad_principal_point(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(100.0, 100.0, 200.0, 60.0, 160, 120, 5.0)

    def test_pixel_directions_center_ray(self):
        # the ray of pixel (v, u) is (x[u], y[v], 1): unit optical z, so hit parameter == depth
        x, y = _ray_axes(INTR)
        assert x.shape == (INTR.width,) and y.shape == (INTR.height,)
        assert_allclose([x[int(INTR.cx)], y[int(INTR.cy)]], [0.0, 0.0], atol=1e-12)
        assert_allclose(np.diff(x), 1.0 / INTR.fx)
        assert_allclose(np.diff(y), 1.0 / INTR.fy)


class TestRenderExactCases:
    def test_frontal_box_face_is_constant_depth(self):
        # slab at world x in [2.0, 3.0] wide enough to fill the frustum
        scene = scene_of(box("wall", 2.5, 0.0, 0.5, 10.0, -10.0, 10.0))
        img = render_depth(scene, camera_pose([0.0, 0.0, 0.0]), INTR)
        assert img.frame is FrameId.OPTICAL_DOG
        assert np.all(img.valid_mask())
        assert_allclose(img.depth, 2.0)  # axis-aligned slab: exact

    def test_center_ray_cylinder_depth(self):
        scene = scene_of(cyl("post", 3.0, 0.0, 0.5, -5.0, 5.0))
        img = render_depth(scene, camera_pose([0.0, 0.0, 0.0]), INTR)
        assert img.depth[int(INTR.cy), int(INTR.cx)] == pytest.approx(2.5, abs=1e-12)

    def test_cylinder_cap_from_above(self):
        scene = scene_of(cyl("stump", 0.0, 0.0, 1.0, 0.0, 1.0))
        img = render_depth(scene, camera_pose([0.0, 0.0, 4.0], pitch=np.pi / 2), INTR)
        # looking straight down from 4 m onto a cap at z = 1
        assert img.depth[int(INTR.cy), int(INTR.cx)] == pytest.approx(3.0, abs=1e-12)

    def test_beyond_max_range_is_invalid(self):
        scene = scene_of(box("far", 8.0, 0.0, 0.5, 10.0, -10.0, 10.0))
        img = render_depth(scene, camera_pose([0.0, 0.0, 0.0]), INTR)
        assert not img.valid_mask().any()

    def test_obstacle_behind_camera_ignored(self):
        scene = scene_of(box("behind", -2.0, 0.0, 0.5, 10.0, -10.0, 10.0))
        img = render_depth(scene, camera_pose([0.0, 0.0, 0.0]), INTR)
        assert not img.valid_mask().any()

    def test_nearest_of_two_wins(self):
        scene = scene_of(
            box("near", 2.5, 0.0, 0.5, 10.0, -10.0, 10.0),
            box("far_slab", 4.0, 0.0, 0.2, 10.0, -10.0, 10.0),
        )
        img = render_depth(scene, camera_pose([0.0, 0.0, 0.0]), INTR)
        assert_allclose(img.depth, 2.0)

    def test_requires_world_target_frame(self):
        pose = RigidTransform(np.eye(3), np.zeros(3), FrameId.OPTICAL_DOG, FrameId.ROBOT_BASE)
        with pytest.raises(ValueError):
            render_depth(scene_of(), pose, INTR)

    def test_render_is_deterministic(self):
        scene = scene_of(cyl("post", 3.0, 0.2, 0.5, 0.0, 2.0))
        a = render_depth(scene, camera_pose([0.0, 0.0, 0.3]), INTR)
        b = render_depth(scene, camera_pose([0.0, 0.0, 0.3]), INTR)
        assert np.array_equal(a.depth, b.depth, equal_nan=True)


def _inside(scene, p):
    for ob in scene.obstacles:
        if ob.z_min <= p[2] <= ob.z_max and ob.footprint_distance(p[:2]) <= 0.0:
            return True
    return False


def _march_depth(scene, origin, direction, max_range, step=1e-3):
    """First inside sample along the ray, refined by bisection; inf if none."""
    n = int(max_range / step) + 1
    prev_t = 0.0
    for i in range(1, n + 1):
        t = i * step
        if _inside(scene, origin + t * direction):
            lo, hi = prev_t, t
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if _inside(scene, origin + mid * direction):
                    hi = mid
                else:
                    lo = mid
            return hi
        prev_t = t
    return np.inf


def _full_image_rays(intr, rotation):
    """World-frame ray components (dx, dy, dz) of every pixel, each (H, W), by render_depth's formula."""
    x, y = _ray_axes(intr)
    r = rotation.tolist()
    return tuple(r[i][0] * x + r[i][1] * y[:, None] + r[i][2] for i in range(3))


class TestRenderAgainstMarchOracle:
    def test_randomized_scenes(self, rng):
        intr = CameraIntrinsics.from_fov(width=32, height=24, hfov_deg=60.0, max_range=5.0)
        for trial in range(4):
            obstacles = [
                box("b0", rng.uniform(1.0, 4.0), rng.uniform(-1.5, 1.5),
                    rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), 0.0, rng.uniform(0.5, 2.0)),
                cyl("c0", rng.uniform(1.0, 4.0), rng.uniform(-1.5, 1.5),
                    rng.uniform(0.15, 0.6), rng.uniform(0.0, 0.5), rng.uniform(1.0, 2.2)),
            ]
            scene = scene_of(*obstacles)
            pose = camera_pose([0.0, rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.2)],
                               yaw=rng.uniform(-0.3, 0.3))
            img = render_depth(scene, pose, intr)
            world_dirs = np.stack(_full_image_rays(intr, pose.rotation), axis=-1).reshape(-1, 3)

            pixels = rng.choice(intr.width * intr.height, size=60, replace=False)
            disagreements = 0
            for pix in pixels:
                d = world_dirs[pix]
                t_march = _march_depth(scene, pose.translation, d, intr.max_range)
                t_render = img.depth.ravel()[pix]
                t_render = np.inf if np.isnan(t_render) else t_render
                if np.isinf(t_march) != np.isinf(t_render):
                    # a graze thinner than the march step; tolerate a few
                    disagreements += 1
                    continue
                if np.isfinite(t_march):
                    assert t_render == pytest.approx(t_march, abs=2e-3), (
                        f"trial {trial} pixel {pix}"
                    )
            assert disagreements <= 3


def _full_image_cast(scene, pose, intr):
    """Every pixel against every obstacle: the unculled reference for render_depth."""
    rays = _full_image_rays(intr, pose.rotation)
    origin = pose.translation
    t_best = np.full((intr.height, intr.width), np.inf)
    for ob in scene.obstacles:
        if ob.shape is ObstacleShape.BOX:
            bmin = [*(ob.center - ob.half_extents), ob.z_min]
            bmax = [*(ob.center + ob.half_extents), ob.z_max]
            _raycast_box(origin, *rays, bmin, bmax, t_best)
        else:
            _raycast_cylinder(origin, *rays, ob.center, ob.radius, ob.z_min, ob.z_max, t_best)
    return np.where((t_best > 0) & (t_best <= intr.max_range), t_best, np.nan)


def _corners(lo, hi):
    """The 8 corners of box [lo, hi], (8, 3)."""
    return np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])


def _window(ob, pose, intr):
    """The pixel window of an obstacle's bounding box, as render_depth finds it."""
    return _pixel_window(*ob.bounds, pose.translation.tolist(), pose.rotation.tolist(), intr)


class TestRenderCullingIsExact:
    """Casting each obstacle only against its pixel window changes no bit of the image."""

    def _culling_branch(self, ob, pose, intr):
        lo, hi = ob.bounds
        qz = (_corners(lo, hi) - pose.translation) @ pose.rotation[:, 2]
        window = _window(ob, pose, intr)
        if np.all(qz <= 0.0):
            assert window is None
            return "behind"
        if np.any(qz <= 0.0):
            if window is None:
                return "straddling, off image"
            # the box's section with the camera plane reaches a side in u and one in v
            rows, cols = window
            assert rows.start == 0 or rows.stop == intr.height
            assert cols.start == 0 or cols.stop == intr.width
            if window == (slice(0, intr.height), slice(0, intr.width)):
                return "straddling, full image"
            return "straddling, bounded"
        return "outside" if window is None else "inside"

    @staticmethod
    def _frame_kind(windows, intr):
        """How the cast windows of one render lie: none, one, or two disjoint ones with a gap."""
        if len(windows) < 2:
            return ("no window", "one window")[len(windows)]
        cast = np.zeros((intr.height, intr.width), dtype=int)
        for window in windows:
            cast[window] += 1
        rows = slice(min(w[0].start for w in windows), max(w[0].stop for w in windows))
        cols = slice(min(w[1].start for w in windows), max(w[1].stop for w in windows))
        if len(windows) == 2 and cast.max() == 1 and not cast[rows, cols].all():
            return "two disjoint windows, uncast pixels between"
        return "other"

    def test_matches_full_image_cast_bitwise(self, rng, monkeypatch):
        windows = []  # the cast windows of the current render
        window_of = world._pixel_window

        def recording(*args):
            window = window_of(*args)
            if window is not None:
                windows.append(window)
            return window

        monkeypatch.setattr(world, "_pixel_window", recording)
        intr = CameraIntrinsics.from_fov(width=64, height=48, hfov_deg=70.0, max_range=5.0)
        seen, frames = set(), set()
        for trial in range(24):
            yaw = rng.uniform(-np.pi, np.pi)
            cam = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.5)])
            pose = camera_pose(cam, yaw=yaw, pitch=rng.uniform(-0.25, 0.25))
            fwd = np.array([np.cos(yaw), np.sin(yaw)])
            left = np.array([-fwd[1], fwd[0]])
            side = rng.choice([-1.0, 1.0])
            # (forward, lateral) of each obstacle centre, aimed at one culling branch each
            placements = [
                (-rng.uniform(2.0, 3.0), rng.uniform(-1.0, 1.0)),  # behind the camera
                (rng.uniform(-0.1, 0.1), side * rng.uniform(0.5, 1.5)),  # across its plane, beside
                (rng.uniform(1.2, 1.8), -side * rng.uniform(3.0, 3.5)),  # beside the frustum
                (rng.uniform(1.0, 3.5), rng.uniform(-0.5, 0.5)),  # in view
                (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),  # anywhere
            ]
            if trial % 3 == 0:  # across its plane, around the camera: it hides the rest
                placements.append((rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)))
            obstacles = []
            for k, (f, lat) in enumerate(placements):
                cx, cy = cam[:2] + f * fwd + lat * left
                z0 = rng.uniform(0.0, 1.0)
                z1 = z0 + rng.uniform(0.3, 1.5)
                if rng.uniform() < 0.5:
                    ob = box(f"b{k}", cx, cy, rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4), z0, z1)
                else:
                    ob = cyl(f"c{k}", cx, cy, rng.uniform(0.1, 0.4), z0, z1)
                obstacles.append(ob)
                seen.add(self._culling_branch(ob, pose, intr))
            # the whole scene, then each obstacle and each pair alone: frames
            # with no window, one, and several, apart or overlapping
            for subset in [obstacles, *([ob] for ob in obstacles), *itertools.combinations(obstacles, 2)]:
                scene = scene_of(*subset)
                windows.clear()
                img = render_depth(scene, pose, intr)
                frames.add(self._frame_kind(windows, intr))
                assert img.depth.tobytes() == _full_image_cast(scene, pose, intr).tobytes(), (
                    f"trial {trial}, obstacles {[ob.obstacle_id for ob in subset]}"
                )
        assert seen == {"behind", "straddling, bounded", "straddling, full image",
                        "straddling, off image", "outside", "inside"}
        assert {"no window", "one window", "two disjoint windows, uncast pixels between"} <= frames


def _lone_obstacle(rng):
    """A random (obstacle, camera pose, intrinsics) for the pixel window tests.

    The draws favour boxes and cylinders across the camera plane, and the
    cases where the window rule is tight: a box edge crossing the camera
    plane within 1e-12 m of the optical axis, the camera inside a box, and a
    box face at the camera's height.
    """
    width, height = int(rng.integers(8, 41)), int(rng.integers(6, 31))
    f = (width / 2.0) / np.tan(np.radians(rng.uniform(20.0, 150.0)) / 2.0)
    intr = CameraIntrinsics(f, f * rng.uniform(0.7, 1.4), rng.uniform(0.0, width - 1e-9),
                            rng.uniform(0.0, height - 1e-9), width, height, 5.0)
    case = rng.choice(["across", "axis", "inside", "level", "anywhere"],
                      p=[0.4, 0.15, 0.15, 0.15, 0.15])
    axis_aligned = case in ("axis", "level") and rng.uniform() < 0.7
    yaw = rng.integers(4) * np.pi / 2 if axis_aligned else rng.uniform(-np.pi, np.pi)
    pitch = 0.0 if axis_aligned else rng.uniform(-1.2, 1.2)
    cam = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.5)])
    pose = camera_pose(cam, yaw=yaw, pitch=pitch)
    hx, hy = rng.uniform(0.05, 0.8, size=2)
    z0 = rng.uniform(-0.5, 1.5)
    z1 = z0 + rng.uniform(0.1, 1.5)
    if case == "across":
        fwd, lat = rng.uniform(-0.4, 0.4), rng.uniform(-1.5, 1.5)
        cxy = cam[:2] + fwd * np.array([np.cos(yaw), np.sin(yaw)]) \
            + lat * np.array([-np.sin(yaw), np.cos(yaw)])
    elif case == "axis":
        # one face plane within 1e-12 m of the camera, so edges cross near the axis
        offset = rng.choice([0.0, 1e-13, -1e-13, 1e-12, -1e-12])
        sign = rng.choice([-1.0, 1.0])
        cxy = cam[:2] + rng.uniform(-0.5, 0.5, size=2)
        axis = rng.integers(2)
        cxy[axis] = cam[axis] + sign * ((hx, hy)[axis] + offset)
        z0, z1 = cam[2] - rng.uniform(0.1, 1.0), cam[2] + rng.uniform(0.1, 1.0)
    elif case == "inside":
        cxy = cam[:2] + rng.uniform(-1.0, 1.0, size=2) * (hx, hy)
        z0, z1 = cam[2] - rng.uniform(0.01, 1.0), cam[2] + rng.uniform(0.01, 1.0)
    elif case == "level":
        cxy = cam[:2] + rng.uniform(-1.0, 1.0, size=2)
        if rng.uniform() < 0.5:
            z0 = cam[2]
            z1 = z0 + rng.uniform(0.1, 1.0)
        else:
            z1 = cam[2]
            z0 = z1 - rng.uniform(0.1, 1.0)
    else:
        cxy = cam[:2] + rng.uniform(-2.0, 2.0, size=2)
    if rng.uniform() < 0.3:
        ob = cyl("c", cxy[0], cxy[1], max(hx, hy), z0, z1)
    else:
        ob = box("b", cxy[0], cxy[1], hx, hy, z0, z1)
    return ob, pose, intr


class TestWindowsHoldEveryHit:
    """Every pixel whose ray hits a lone obstacle lies in that obstacle's window.

    One obstacle per scene (see ``_lone_obstacle``), so no nearer obstacle can
    hide a pixel that the window misses.
    """

    def test_every_hit_pixel_lies_in_the_window(self):
        rng = np.random.default_rng(20261019)
        straddling = 0
        for trial in range(800):
            ob, pose, intr = _lone_obstacle(rng)
            lo, hi = ob.bounds
            window = _window(ob, pose, intr)
            rays = _full_image_rays(intr, pose.rotation)
            t = np.full(rays[0].shape, np.inf)
            if ob.shape is ObstacleShape.BOX:
                _raycast_box(pose.translation, *rays, lo, hi, t)
            else:
                _raycast_cylinder(pose.translation, *rays, ob.center, ob.radius, ob.z_min, ob.z_max, t)
            hit = np.isfinite(t)
            if window is not None:
                hit[window] = False
            assert not hit.any(), f"trial {trial}: {ob} misses pixels {np.argwhere(hit)[:5]}"
            qz = (_corners(lo, hi) - pose.translation) @ pose.rotation[:, 2]
            straddling += bool(qz.min() <= 0.0 < qz.max())
        assert straddling > 400


class TestWindowsMatchTheArrayCode:
    """The float windows equal those of the numpy code they replaced (``tests/parent_windows.py``)."""

    def test_same_windows_as_the_array_code(self):
        rng = np.random.default_rng(20261020)
        straddling = 0
        for trial in range(2400):
            ob, pose, intr = _lone_obstacle(rng)
            lo, hi = ob.bounds
            want = parent_windows._pixel_windows(
                np.array([lo]), np.array([hi]), pose.translation, pose.rotation, intr
            )[0]
            assert _window(ob, pose, intr) == want, f"trial {trial}: {ob}"
            qz = (_corners(lo, hi) - pose.translation) @ pose.rotation[:, 2]
            straddling += bool(qz.min() <= 0.0 < qz.max())
        assert straddling > 1000


def _edge_obstacle(rng):
    """A small random (obstacle, camera pose, intrinsics) near a side of the view cone.

    The obstacle's centre projects to a pixel within a few pixels of an image
    edge, at a depth that is sometimes around or behind the camera plane, so
    the view-cone planes and the window bounds are both tight. Some are
    specks of at most 10 micrometres across a cone plane, which a cull with
    a millimetre less slack would drop with their windows.
    """
    width, height = int(rng.integers(8, 41)), int(rng.integers(6, 31))
    f = (width / 2.0) / np.tan(np.radians(rng.uniform(20.0, 150.0)) / 2.0)
    intr = CameraIntrinsics(f, f * rng.uniform(0.7, 1.4), rng.uniform(0.0, width - 1e-9),
                            rng.uniform(0.0, height - 1e-9), width, height, 5.0)
    cam = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.5)])
    pose = camera_pose(cam, yaw=rng.uniform(-np.pi, np.pi), pitch=rng.uniform(-1.2, 1.2))
    u, v = (rng.choice([rng.uniform(-6.0, 3.0), rng.uniform(n - 3.0, n + 6.0), rng.uniform(0.0, n)])
            for n in (width, height))
    depth = rng.uniform(0.5, 4.0) if rng.uniform() < 0.8 else rng.uniform(-0.3, 0.3)
    size = rng.uniform(0.002, 0.2)
    if rng.uniform() < 0.3:  # a speck within a hundredth of a pixel of a cone plane
        u, v = rng.choice([-2.0, width + 1.0]), rng.uniform(0.0, height)
        if rng.uniform() < 0.5:
            u, v = rng.uniform(0.0, width), rng.choice([-2.0, height + 1.0])
        u, v, depth = u + rng.uniform(-0.01, 0.01), v + rng.uniform(-0.01, 0.01), rng.uniform(0.5, 4.0)
        size = rng.uniform(1e-7, 1e-5)
    q = np.array([depth * (u - intr.cx) / intr.fx, depth * (v - intr.cy) / intr.fy, depth])
    cx, cy, cz = pose.rotation @ q + pose.translation
    if rng.uniform() < 0.5:
        ob = cyl("c", cx, cy, size, cz - size, cz + size)
    else:
        ob = box("b", cx, cy, size, rng.uniform(0.002, 0.2), cz - size, cz + size)
    return ob, pose, intr


def _dropped(ob, pose, normals):
    """Whether the view-cone cull of ``render_depth`` drops the obstacle, given the cone's optical normals."""
    return _outside_cone(ob.bounding_sphere, pose.translation.tolist(), pose.rotation.tolist(), normals)


class TestViewConeCull:
    """An obstacle that the view-cone cull drops has no pixel window, so dropping it changes no bit."""

    def test_every_dropped_obstacle_has_no_window(self):
        rng = np.random.default_rng(20261022)
        by_plane = [0] * 5
        dropped = kept_with_window = inward_misses = 0
        cases = [_edge_obstacle(rng) for _ in range(1500)] + [_lone_obstacle(rng) for _ in range(500)]
        for _ in range(100):
            scene, pose, intr = _random_view(rng)
            cases += [(ob, pose, intr) for ob in scene.obstacles]
        for trial, (ob, pose, intr) in enumerate(cases):
            window = _window(ob, pose, intr)
            cone = _view_cone(intr)
            if _dropped(ob, pose, cone):
                assert window is None, f"case {trial}: {ob} dropped with window {window}"
                dropped += 1
                for k, normal in enumerate(cone):
                    by_plane[k] += _dropped(ob, pose, (normal,))
            else:
                kept_with_window += window is not None
            # each plane one pixel further in would drop obstacles that have a window
            inward = _cone_normals(intr, -1.0, float(intr.width), -1.0, float(intr.height))
            inward_misses += window is not None and _dropped(ob, pose, inward)
        assert dropped > 500 and kept_with_window > 500
        assert min(by_plane) > 20, by_plane  # the camera plane, then columns -2, W + 1, rows -2, H + 1
        assert inward_misses > 20

    def test_the_planes_are_unit_and_outward(self):
        intr = CameraIntrinsics(50.0, 40.0, 20.5, 11.0, 40, 24, 5.0)
        normals = _view_cone(intr)
        assert all(math.isclose(math.hypot(*n), 1.0, rel_tol=1e-15) for n in normals)
        # a point just past each plane, in front of the camera, and one just inside it
        for n, (u, v) in zip(normals[1:], [(-2.0, 11.0), (41.0, 11.0), (20.5, -2.0), (20.5, 25.0)]):
            q = np.array([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, 1.0])
            assert abs(np.dot(n, q)) < 1e-12  # on the plane
            inward = np.array([(intr.cx - u) / intr.fx, (intr.cy - v) / intr.fy, 0.0]) * 1e-3
            assert np.dot(n, q - inward) > 0.0 > np.dot(n, q + inward)
        assert normals[0] == (0.0, 0.0, -1.0)


class TestRaysAtTheirShape:
    """Rays built at the shape they vary over render the bits of 2-D rays (``tests/parent_render.py``)."""

    def test_a_dropped_term_keeps_the_bits_of_the_full_sum(self):
        xs = np.array([-1.5, -0.0, 0.0, 0.25, 3.0, 5e-324])
        ys = np.array([-2.0, -0.0, 0.0, 0.5, 5e-324])[:, None]
        values = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5e-7]
        shapes = set()
        for a, b, k in itertools.product(values, repeat=3):
            got = _ray_component(a, b, k, xs, ys)
            want = a * xs + b * ys + k
            assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes(), (a, b, k)
            droppable = k != 0.0 or math.copysign(1.0, k) > 0.0
            assert got.shape == (want.shape if not droppable or a * b != 0.0
                                 else xs.shape if b == 0.0 else ys.shape), (a, b, k)
            shapes.add(got.shape)
        assert shapes == {xs.shape, ys.shape, (ys.shape[0], xs.shape[0])}

    @staticmethod
    def _scene_around(rng, cam, heading):
        """Obstacles around a camera, with one box whose face plane holds the camera centre."""
        fwd = np.array([math.cos(heading), math.sin(heading)])
        left = np.array([-fwd[1], fwd[0]])
        obstacles = []
        for k in range(int(rng.integers(1, 5))):
            f, lat = rng.uniform(-1.0, 4.0), rng.uniform(-2.0, 2.0)
            cx, cy = cam[:2] + f * fwd + lat * left
            z0 = rng.uniform(-0.2, 1.6)
            z1 = z0 + rng.uniform(0.1, 1.2)
            if rng.uniform() < 0.5:
                obstacles.append(box(f"b{k}", cx, cy, rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5), z0, z1))
            else:
                obstacles.append(cyl(f"c{k}", cx, cy, rng.uniform(0.05, 0.5), z0, z1))
        # a face through the camera: x, y or z, on its low or high side
        axis, side = int(rng.integers(3)), float(rng.choice([-1.0, 1.0]))
        half = np.array([0.25, 0.375, 0.5])
        centre = np.array([cam[0] + rng.uniform(0.5, 1.5), cam[1] + rng.uniform(-0.5, 0.5), cam[2]])
        centre[axis] = cam[axis] + side * half[axis]
        for _ in range(4):  # the face is centre -+ half: step the centre until it lands on the camera
            face = centre[axis] - side * half[axis]
            if face == cam[axis]:
                break
            centre[axis] = np.nextafter(centre[axis], math.inf if face < cam[axis] else -math.inf)
        face = box("face", centre[0], centre[1], half[0], half[1], centre[2] - half[2], centre[2] + half[2])
        obstacles.append(face)
        lo, hi = face.bounds
        on_face = cam[axis] in (lo[axis], hi[axis])
        return scene_of(*obstacles), on_face

    @pytest.mark.parametrize("heading", [0.0, -0.0, math.pi / 2, -math.pi / 2, 0.7, -2.4])
    def test_renders_match_the_2d_ray_oracle(self, heading):
        rng = np.random.default_rng(20261023)
        level_rig = default_rig()
        pitched_rig = dataclasses.replace(level_rig, robot_mount_pitch_rad=0.2)
        odd_rig = default_rig(image_width_px=37, image_height_px=23, hfov_deg=70.0)
        frames = {"return": 0, "empty": 0, "on face": 0}
        for trial in range(40):
            xy = rng.uniform(-1.0, 1.0, size=2)
            views = [
                ("robot", robot_camera_pose((*xy, heading), rig), rig.robot_intrinsics)
                for rig in (level_rig, pitched_rig, odd_rig)
            ] + [
                ("chest", chest_camera_pose((*xy, heading), bend, rig, 1.3), rig.chest_intrinsics)
                for bend in (BendPose.UPRIGHT, BendPose.BENT) for rig in (level_rig, odd_rig)
            ]
            for name, pose, intr in views:
                cam = pose.translation
                scene, on_face = self._scene_around(rng, cam, heading)
                got = render_depth(scene, pose, intr)
                want = parent_render.render_depth(scene, pose, intr)
                assert got.box == want.box, f"trial {trial}, {name}"
                assert got.depth.tobytes() == want.depth.tobytes(), f"trial {trial}, {name}"
                frames["return" if got.box[0] < got.box[1] else "empty"] += 1
                frames["on face"] += on_face
        assert frames["return"] > 200 and frames["on face"] > 200 and frames["empty"] > 5, frames


def _caster_case(rng):
    """Random rays, a random box and cylinder, and an origin, for the caster oracle.

    About one ray component in six is zero, so vertical rays, rays parallel
    to the caps and rays parallel to box faces all occur; the origin is
    sometimes inside the solid, on a face or cap plane, or on the axis.
    """
    shape = (int(rng.integers(1, 9)), int(rng.integers(1, 13)))
    rays = rng.normal(size=(3, *shape))
    for d in rays:
        d[rng.random(shape) < 0.17] = rng.choice([0.0, -0.0])
    center = rng.uniform(-1.0, 1.0, size=2)
    half = rng.uniform(0.05, 1.0, size=2)
    z1 = rng.uniform(-0.5, 1.0)
    z2 = z1 + rng.uniform(0.05, 1.5)
    lo, hi = [*(center - half), z1], [*(center + half), z2]
    origin = rng.uniform(-2.0, 2.0, size=3)
    case = rng.choice(["anywhere", "inside", "face", "cap", "axis"])
    if case == "inside":
        origin = rng.uniform(lo, hi)
    elif case == "face":
        axis = int(rng.integers(3))
        origin[axis] = (lo, hi)[int(rng.integers(2))][axis]
    elif case == "cap":
        origin[2] = (z1, z2)[int(rng.integers(2))]
    elif case == "axis":
        origin[:2] = center
    return rays, origin.tolist(), lo, hi, center, float(half.min()), z1, z2


class TestCastersMatchTheParentCode:
    """The casters lower a buffer to the bits of the old casters (``tests/parent_casters.py``)."""

    def test_same_bits_fresh_and_in_place(self):
        rng = np.random.default_rng(20261020)
        hits = {"box": 0, "cylinder": 0, "vertical": 0, "level": 0}
        for trial in range(4000):
            (dx, dy, dz), origin, lo, hi, center, r, z1, z2 = _caster_case(rng)
            for kind, new, old in (
                ("box", lambda best: _raycast_box(origin, dx, dy, dz, lo, hi, best),
                 lambda: parent_casters._raycast_box(origin, dx, dy, dz, lo, hi)),
                ("cylinder", lambda best: _raycast_cylinder(origin, dx, dy, dz, center, r, z1, z2, best),
                 lambda: parent_casters._raycast_cylinder(origin, dx, dy, dz, center, r, z1, z2)),
            ):
                want = old()
                assert new(np.full(dx.shape, np.inf)).tobytes() == want.tobytes(), f"trial {trial}: {kind}"
                # on a strided window of a larger buffer, as render_depth passes it
                buffer = rng.choice([np.inf, 0.5, 2.0, 7.0], size=(dx.shape[0] + 2, dx.shape[1] + 3))
                window = buffer[1:-1, 2:-1]
                expect = np.minimum(window, want)
                assert new(window) is window
                assert window.tobytes() == expect.tobytes(), f"trial {trial}: {kind} in place"
                found = np.isfinite(want)
                hits[kind] += int(found.sum())
                hits["vertical"] += int(found[(dx == 0) & (dy == 0)].sum())
                hits["level"] += int(found[dz == 0].sum())
        assert min(hits.values()) > 50, hits


class TestCastersTakeBroadcastComponents:
    """A ray component given as one row or one column lowers the buffer to the bits of the full component."""

    def test_row_and_column_components_match_full_ones(self):
        rng = np.random.default_rng(20261024)
        shapes = set()
        for trial in range(3000):
            (dx, dy, dz), origin, lo, hi, center, r, z1, z2 = _caster_case(rng)
            rows, cols = dx.shape
            parts = []
            for d in (dx, dy, dz):
                kind = int(rng.integers(3))  # full, one row (1-D, per column), one column (per row)
                parts.append((d, d[0], d[:, :1])[kind])
            shapes.add(tuple(p.ndim == 1 or p.shape[1] == 1 and cols > 1 for p in parts))
            full = [np.broadcast_to(p, (rows, cols)).copy() for p in parts]
            for caster, args in ((_raycast_box, (lo, hi)), (_raycast_cylinder, (center, r, z1, z2))):
                buffer = rng.choice([np.inf, 0.5, 2.0, 7.0], size=(rows + 2, cols + 3))
                want = caster(origin, *full, *args, buffer[1:-1, 2:-1].copy())
                window = buffer[1:-1, 2:-1]
                assert caster(origin, *parts, *args, window) is window
                assert window.tobytes() == want.tobytes(), f"trial {trial}: {caster.__name__}"
        assert len(shapes) == 8


def _random_view(rng):
    """A random (scene, camera pose, intrinsics) of zero to four obstacles around the camera.

    Obstacles go behind the camera, across its plane, beside the frustum, in
    view or anywhere, as in the culling test, so frames with no return, with
    one window and with several all occur.
    """
    intr = CameraIntrinsics.from_fov(width=int(rng.integers(16, 65)), height=int(rng.integers(12, 49)),
                                     hfov_deg=rng.uniform(40.0, 100.0), max_range=5.0)
    yaw = rng.uniform(-np.pi, np.pi)
    cam = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.5)])
    pose = camera_pose(cam, yaw=yaw, pitch=rng.uniform(-0.4, 0.4))
    fwd, left = np.array([np.cos(yaw), np.sin(yaw)]), np.array([-np.sin(yaw), np.cos(yaw)])
    obstacles = []
    for k in range(int(rng.integers(0, 5))):
        f, lat = [(-rng.uniform(1.0, 3.0), rng.uniform(-1.0, 1.0)),  # behind the camera
                  (rng.uniform(-0.1, 0.1), rng.uniform(-1.5, 1.5)),  # across its plane
                  (rng.uniform(1.0, 2.0), rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 4.0)),  # beside
                  (rng.uniform(0.5, 4.0), rng.uniform(-1.0, 1.0)),  # in view
                  tuple(rng.uniform(-4.0, 4.0, size=2))][int(rng.integers(5))]
        cx, cy = cam[:2] + f * fwd + lat * left
        z0 = rng.uniform(-0.2, 1.5)
        z1 = z0 + rng.uniform(0.1, 1.2)
        if rng.uniform() < 0.5:
            obstacles.append(box(f"b{k}", cx, cy, rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5), z0, z1))
        else:
            obstacles.append(cyl(f"c{k}", cx, cy, rng.uniform(0.05, 0.5), z0, z1))
    return scene_of(*obstacles), pose, intr


class TestReturnBox:
    """A rendered image's return box holds every return, and readers of the box see the whole image."""

    def test_a_box_less_image_has_the_whole_image_as_its_box(self):
        img = DepthImage(INTR, np.full((INTR.height, INTR.width), np.nan), FrameId.OPTICAL_DOG)
        assert img.box == (0, INTR.height, 0, INTR.width)

    @pytest.mark.parametrize("bad", [(2, 1, 0, 4), (0, 4, 5, 4), (-1, 4, 0, 4), (0, 49, 0, 4),
                                     (0, 4, 0, 65), (0, 4, 0)])
    def test_a_box_outside_the_image_is_refused(self, bad):
        with pytest.raises(ValueError):
            DepthImage(INTR, np.zeros((INTR.height, INTR.width)), FrameId.OPTICAL_DOG, bad)

    def test_a_box_takes_integers_only(self):
        depth = np.zeros((INTR.height, INTR.width))
        with pytest.raises(TypeError):
            DepthImage(INTR, depth, FrameId.OPTICAL_DOG, (0.0, 4, 0, 4))
        img = DepthImage(INTR, depth, FrameId.OPTICAL_DOG, tuple(np.array([1, 4, 0, 0])))
        assert img.box == (1, 4, 0, 0) and all(type(v) is int for v in img.box)

    def test_readers_of_the_box_match_the_whole_image_on_random_scenes(self):
        rng = np.random.default_rng(20261021)
        kinds = set()
        for trial in range(400):
            scene, pose, intr = _random_view(rng)
            img = render_depth(scene, pose, intr)
            noisy = trial % 3 == 0
            if noisy:
                img = apply_depth_noise(img, 0.05, rng)
            top, bottom, left, right = img.box
            outside = np.isfinite(img.depth)
            outside[top:bottom, left:right] = False
            assert not outside.any(), f"trial {trial}: a return outside {img.box}"
            plain = DepthImage(img.intrinsics, img.depth, img.frame)  # the whole image as its box
            got, want = deproject(img), deproject(plain)
            assert got.frame is want.frame
            assert got.points.tobytes() == want.points.tobytes(), f"trial {trial}"
            rois = [default_roi(intr)]
            for _ in range(4):
                v0, u0 = int(rng.integers(intr.height)), int(rng.integers(intr.width))
                rois.append(RoiSpec(u0, int(rng.integers(u0 + 1, intr.width + 1)),
                                    v0, int(rng.integers(v0 + 1, intr.height + 1))))
            for roi in rois:
                d, d_plain = roi_min_depth(img, roi), roi_min_depth(plain, roi)
                assert (d is None) == (d_plain is None) and (d is None or d.hex() == d_plain.hex())
            empty = top == bottom
            kinds.add(("noisy" if noisy else "clean", "empty" if empty else
                       "whole" if img.box == plain.box else "part"))
            if not empty:
                assert len(got) > 0 or np.isnan(img.depth).all()
        assert kinds == {(n, b) for n in ("noisy", "clean") for b in ("empty", "part", "whole")}


class TestFramesWithNoReturn:
    def test_share_one_read_only_nan_depth_and_noise_copies_it(self, rng):
        pose = camera_pose([0.0, 0.0, 1.0])  # looking along +x
        empty = render_depth(scene_of(), pose, INTR)
        behind = render_depth(scene_of(box("behind", -2.0, 0.0, 0.3, 0.3, 0.0, 2.0)), pose, INTR)
        assert empty.box == behind.box == (0, 0, 0, 0)
        assert empty.depth is behind.depth and np.isnan(empty.depth).all()
        assert empty.depth.shape == (INTR.height, INTR.width)
        with pytest.raises(ValueError, match="read-only"):
            empty.depth[0, 0] = 1.0
        noisy = apply_depth_noise(empty, 0.05, rng)
        assert noisy.box == (0, 0, 0, 0) and noisy.depth is not empty.depth
        assert noisy.depth.flags.writeable and np.isnan(noisy.depth).all()
        # a frame with a return gets a depth of its own
        ahead = render_depth(scene_of(box("ahead", 2.0, 0.0, 0.3, 0.3, 0.0, 2.0)), pose, INTR)
        assert ahead.depth.flags.writeable and np.isfinite(ahead.depth).any()


class TestRaysAreBuiltOnlyWhenCast:
    def test_a_scene_with_nothing_in_view_renders_no_return_and_builds_no_ray(self, monkeypatch):
        built = []  # one entry per window of rays cast against an obstacle
        for name in ("_raycast_box", "_raycast_cylinder"):
            original = getattr(world, name)
            monkeypatch.setattr(world, name, lambda *args, cast=original: built.append(args) or cast(*args))
        pose = camera_pose([0.0, 0.0, 1.0])  # looking along +x
        behind = box("behind", -2.0, 0.0, 0.3, 0.3, 0.0, 2.0)
        beside = box("beside", 1.0, 3.0, 0.3, 0.3, 0.0, 2.0)
        far = box("far", 9.0, 0.0, 0.3, 0.3, 0.0, 2.0)
        # across the camera plane, wholly beside the frustum
        across = box("across", 0.0, 3.0, 0.3, 0.3, 0.0, 2.0)
        for scene in (scene_of(), scene_of(behind), scene_of(behind, beside, far),
                      scene_of(across)):
            img = render_depth(scene, pose, INTR)
            assert np.isnan(img.depth).all()
        assert built == []
        ahead = box("ahead", 2.0, 0.0, 0.3, 0.3, 0.0, 2.0)
        img = render_depth(scene_of(behind, ahead), pose, INTR)
        assert len(built) == 1 and np.isfinite(img.depth).any()


class TestDeproject:
    def test_round_trip_depths(self):
        scene = scene_of(box("wall", 2.5, 0.0, 0.5, 10.0, -10.0, 10.0))
        img = render_depth(scene, camera_pose([0.0, 0.0, 0.0]), INTR)
        cloud = deproject(img)
        assert len(cloud) == int(img.valid_mask().sum())
        assert cloud.frame is img.frame
        # optical z of each point equals the pixel depth it came from
        assert_allclose(cloud.points[:, 2], img.depth.ravel()[img.valid_mask().ravel()])

    def test_synthetic_image_known_points(self):
        depth = np.full((INTR.height, INTR.width), np.nan)
        depth[int(INTR.cy), int(INTR.cx)] = 2.0
        img = DepthImage(INTR, depth, FrameId.OPTICAL_HUMAN)
        cloud = deproject(img)
        assert cloud.frame is FrameId.OPTICAL_HUMAN
        assert_allclose(cloud.points, [[0.0, 0.0, 2.0]], atol=1e-12)

    def test_points_are_the_axis_formula_bitwise(self, rng):
        # non-square, off-centre principal point: rows and columns cannot be swapped unseen
        intr = CameraIntrinsics(41.0, 37.0, 5.3, 17.9, 37, 23, 5.0)
        depth = rng.uniform(0.01, intr.max_range, size=(intr.height, intr.width))
        specials = [np.nan, 0.0, -0.0, -1.0, np.inf, -np.inf, intr.max_range, 1e-300]
        picks = rng.choice(depth.size, size=(len(specials), 20), replace=False)
        for value, where in zip(specials, picks):
            depth.flat[where] = value
        cloud = deproject(DepthImage(intr, depth, FrameId.OPTICAL_DOG))
        x, y = _ray_axes(intr)
        expected = [(x[c] * d, y[r] * d, d) for r in range(intr.height) for c in range(intr.width)
                    if np.isfinite(d := depth[r, c]) and d > 0]
        assert len(expected) == depth.size - 6 * 20
        assert cloud.points.tobytes() == np.array(expected).tobytes()


class TestDepthNoise:
    def test_sigma_zero_is_identity(self, rng):
        scene = scene_of(box("wall", 2.5, 0.0, 0.5, 10.0, -10.0, 10.0))
        img = render_depth(scene, camera_pose([0.0, 0.0, 0.0]), INTR)
        assert apply_depth_noise(img, 0.0, rng) is img

    def test_noise_only_touches_valid_pixels(self, rng):
        depth = np.full((INTR.height, INTR.width), np.nan)
        depth[0, :8] = 3.0
        img = DepthImage(INTR, depth, FrameId.OPTICAL_DOG)
        noisy = apply_depth_noise(img, 0.05, rng)
        assert np.isnan(noisy.depth[1:]).all()
        changed = noisy.depth[0, :8]
        assert np.all(changed != 3.0) and np.all(changed > 0)
        assert np.all(changed <= INTR.max_range)

    @staticmethod
    def whole_image_noise(img, sigma, rng):
        # apply_depth_noise's body when it scanned the whole image, verbatim
        mask = img.valid_mask()
        noisy = img.depth.copy()
        noisy[mask] = np.clip(
            noisy[mask] + rng.normal(0.0, sigma, size=int(mask.sum())),
            np.finfo(np.float64).tiny,
            img.intrinsics.max_range,
        )
        return noisy

    def test_scanning_the_box_gives_the_bytes_of_a_whole_image_scan(self):
        """Same depths and same generator state after, on random images and return boxes."""
        r = np.random.default_rng(20261020)
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 1e-300, INTR.max_range, INTR.max_range - 1e-3]
        kinds = set()
        for i in range(600):
            h, w = INTR.height, INTR.width
            top, bottom = sorted(r.integers(0, h + 1, size=2).tolist())
            left, right = sorted(r.integers(0, w + 1, size=2).tolist())
            if i % 10 == 0:
                top, bottom, left, right = (0, h, 0, w) if i % 20 else (3, 3, 5, 9)
            # outside the box no depth is finite; inside it every kind occurs
            depth = r.choice([np.nan, np.inf, -np.inf], size=(h, w), p=[0.8, 0.1, 0.1])
            inside = r.uniform(0.1, INTR.max_range, size=(bottom - top, right - left))
            pick = r.random(inside.shape)
            inside[pick < 0.3] = np.nan
            special = pick > 0.9
            inside[special] = r.choice(specials, size=int(special.sum()))
            depth[top:bottom, left:right] = inside
            img = DepthImage(INTR, depth, FrameId.OPTICAL_DOG, (top, bottom, left, right))
            sigma = float(r.choice([0.01, 0.05, 3.0]))
            seed = int(r.integers(2**32))
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = self.whole_image_noise(img, sigma, want_rng)
            got = apply_depth_noise(img, sigma, got_rng)
            assert got.depth.tobytes() == want.tobytes(), i
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, i
            assert got.box == img.box and got.depth.flags.writeable and got.depth is not img.depth
            kinds.add("empty" if top == bottom or left == right else "whole" if bottom - top == h
                      and right - left == w else "part")
        assert kinds == {"empty", "part", "whole"}

    def test_mismatched_shape_rejected(self):
        with pytest.raises(ValueError):
            DepthImage(INTR, np.zeros((2, 2)), FrameId.OPTICAL_DOG)
