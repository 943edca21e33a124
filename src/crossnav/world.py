"""Scene primitives and synthetic depth sensing.

Obstacles are analytic solids (axis-aligned boxes and vertical cylinders)
with explicit height extents, so a low obstacle and a hanging one differ
only in [z_min, z_max]. Rendering is an exact per-pixel ray cast, which
keeps both viewpoints deterministic and mesh-free. Each obstacle is cast only
against the pixel window of its projected bounding box; the window holds every
pixel whose ray can hit it, so the image is bitwise that of a full-image cast.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .geometry import FrameId, PointCloud, RigidTransform

_EPS = 1e-12


class ObstacleShape(Enum):
    BOX = "box"
    CYLINDER = "cylinder"


class ObstacleKind(Enum):
    GROUND = "ground"
    OVERHEAD = "overhead"


@dataclass(frozen=True)
class Obstacle:
    """A vertical prism in the world frame: 2D footprint swept over [z_min, z_max]."""

    obstacle_id: str
    shape: ObstacleShape
    center: np.ndarray  # (2,) meters, world frame
    z_min: float
    z_max: float
    kind: ObstacleKind
    half_extents: Optional[np.ndarray] = None  # (2,), boxes only
    radius: Optional[float] = None  # cylinders only

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64).reshape(2))
        if self.z_min >= self.z_max:
            raise ValueError(f"obstacle {self.obstacle_id}: z_min must be < z_max")
        if self.shape is ObstacleShape.BOX:
            if self.half_extents is None:
                raise ValueError(f"obstacle {self.obstacle_id}: box needs half_extents")
            he = np.asarray(self.half_extents, dtype=np.float64).reshape(2)
            if np.any(he <= 0):
                raise ValueError(f"obstacle {self.obstacle_id}: half_extents must be positive")
            object.__setattr__(self, "half_extents", he)
        else:
            if self.radius is None or self.radius <= 0:
                raise ValueError(f"obstacle {self.obstacle_id}: cylinder needs positive radius")

    def footprint_distance(self, xy) -> float:
        """Signed 2D distance from a point to the footprint boundary (< 0 inside)."""
        p = np.asarray(xy, dtype=np.float64) - self.center
        if self.shape is ObstacleShape.CYLINDER:
            return float(np.hypot(p[0], p[1]) - self.radius)
        q = np.abs(p) - self.half_extents
        outside = np.hypot(max(q[0], 0.0), max(q[1], 0.0))
        inside = min(max(q[0], q[1]), 0.0)
        return float(outside + inside)

    def overlaps_vertical_cylinder(self, xy, radius: float, z_low: float, z_high: float) -> bool:
        """True when a body cylinder (footprint circle + height span) intersects this solid."""
        if self.z_min >= z_high or self.z_max <= z_low:
            return False
        return self.footprint_distance(xy) <= radius


@dataclass(frozen=True)
class Scene:
    """Static obstacle course: corridor bounds, start pose, goal, and the follower's body model."""

    obstacles: tuple
    start_robot: np.ndarray  # (3,): x, y, theta
    goal: np.ndarray  # (2,)
    corridor_min: np.ndarray  # (2,)
    corridor_max: np.ndarray  # (2,)
    leash_length_m: float = 1.0
    chest_height_m: float = 1.30
    body_radius_m: float = 0.18
    head_height_m: float = 1.75

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for name in ("start_robot", "goal", "corridor_min", "corridor_max"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, v)

    def validate(self, robot_clearance_m: float) -> None:
        """Enforce scene invariants; raises ValueError naming the offender."""
        lo, hi = self.corridor_min, self.corridor_max
        if np.any(lo >= hi):
            raise ValueError("corridor bounds are empty")
        if np.any(self.goal < lo) or np.any(self.goal > hi):
            raise ValueError("goal lies outside corridor bounds")
        for ob in self.obstacles:
            if ob.kind is ObstacleKind.OVERHEAD and ob.z_min <= robot_clearance_m:
                raise ValueError(
                    f"obstacle {ob.obstacle_id}: overhead but z_min {ob.z_min} "
                    f"is not above robot clearance {robot_clearance_m}"
                )
            if ob.kind is ObstacleKind.GROUND and ob.footprint_distance(self.start_robot[:2]) <= 0:
                raise ValueError(f"start pose intersects obstacle {ob.obstacle_id}")

    def only_kind(self, kind: ObstacleKind) -> "Scene":
        """Copy of the scene keeping only obstacles of one kind (attribution helper)."""
        return replace(self, obstacles=tuple(ob for ob in self.obstacles if ob.kind is kind))


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    max_range: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")

    @classmethod
    def from_fov(
        cls, width: int, height: int, hfov_deg: float, max_range: float
    ) -> "CameraIntrinsics":
        """Square-pixel pinhole from a horizontal field of view."""
        if not 0.0 < hfov_deg < 180.0:
            raise ValueError(f"field of view {hfov_deg} deg must lie strictly between 0 and 180")
        f = (width / 2.0) / np.tan(np.radians(hfov_deg) / 2.0)
        return cls(f, f, width / 2.0, height / 2.0, width, height, max_range)


@dataclass(frozen=True)
class DepthImage:
    """Per-pixel metric depth (optical Z); NaN marks pixels with no return."""

    intrinsics: CameraIntrinsics
    depth: np.ndarray  # (height, width) float64, NaN = invalid
    frame: FrameId
    stamp: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.depth, dtype=np.float64)
        if d.shape != (self.intrinsics.height, self.intrinsics.width):
            raise ValueError(f"depth shape {d.shape} does not match intrinsics")
        object.__setattr__(self, "depth", d)

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.depth) & (self.depth > 0)


@functools.lru_cache(maxsize=8)
def _pixel_dirs(fx: float, fy: float, cx: float, cy: float, width: int, height: int) -> np.ndarray:
    """Unnormalized optical-frame ray directions, (H*W, 3), z component = 1."""
    u = np.arange(width, dtype=np.float64)
    v = np.arange(height, dtype=np.float64)
    xs = (u - cx) / fx
    ys = (v - cy) / fy
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel(), np.ones(width * height)], axis=1)


def pixel_directions(intr: CameraIntrinsics) -> np.ndarray:
    return _pixel_dirs(intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height)


def _raycast_boxes(origin, dirs, bounds_min, bounds_max) -> np.ndarray:
    """Nearest positive hit parameter per ray against K boxes; inf where none.

    Rays with a zero direction component that start on a slab face are treated
    as inside that slab (fmin/fmax drop the resulting NaNs).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs  # (N, 3), +-inf on zero components
    ix, iy, iz = inv[:, 0], inv[:, 1], inv[:, 2]
    ox, oy, oz = origin
    best = np.full(dirs.shape[0], np.inf)
    with np.errstate(invalid="ignore"):
        for bmin, bmax in zip(bounds_min, bounds_max):
            tx1 = (bmin[0] - ox) * ix
            tx2 = (bmax[0] - ox) * ix
            ty1 = (bmin[1] - oy) * iy
            ty2 = (bmax[1] - oy) * iy
            tz1 = (bmin[2] - oz) * iz
            tz2 = (bmax[2] - oz) * iz
            t_near = np.fmax(np.fmax(np.fmin(tx1, tx2), np.fmin(ty1, ty2)),
                             np.fmin(tz1, tz2))
            t_far = np.fmin(np.fmin(np.fmax(tx1, tx2), np.fmax(ty1, ty2)),
                            np.fmax(tz1, tz2))
            t = np.where(t_near > _EPS, t_near, t_far)  # origin inside: first exit
            t[~((t_far >= t_near) & (t_far > _EPS))] = np.inf
            np.minimum(best, t, out=best)
    return best


def _raycast_cylinders(origin, dirs, centers, radii, z_lims) -> np.ndarray:
    """Nearest positive hit per ray against K vertical cylinders (sides and caps)."""
    ox, oy, oz = origin
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    a = dx * dx + dy * dy
    a_ok = a > _EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_a = np.where(a_ok, a, np.inf) ** -1.0
        inv_dz = 1.0 / dz  # +-inf on horizontal-plane-parallel rays
    best = np.full(dirs.shape[0], np.inf)
    with np.errstate(invalid="ignore"):
        for (cx0, cy0), r, (z1, z2) in zip(centers, radii, z_lims):
            px, py = ox - cx0, oy - cy0
            half_b = px * dx + py * dy
            c = px * px + py * py - r * r  # scalar: camera offset is per-cylinder
            disc = half_b * half_b - a * c
            ok = a_ok & (disc >= 0.0)
            sq = np.sqrt(np.where(ok, disc, 0.0))
            for sign in (-1.0, 1.0):
                t = (sign * sq - half_b) * inv_a
                z = oz + t * dz
                t[~(ok & (t > _EPS) & (z >= z1) & (z <= z2))] = np.inf
                np.minimum(best, t, out=best)
            # caps
            for z_cap in (z1, z2):
                t = (z_cap - oz) * inv_dz
                hx = ox + t * dx - cx0
                hy = oy + t * dy - cy0
                t[~(np.isfinite(t) & (t > _EPS) & (hx * hx + hy * hy <= r * r))] = np.inf
                np.minimum(best, t, out=best)
    return best


def _aabbs(obstacles: Sequence[Obstacle]):
    """World-frame axis-aligned bounds (lo, hi) of the obstacles, each (K, 3)."""
    centers = np.array([ob.center for ob in obstacles])
    half = np.array([ob.half_extents if ob.shape is ObstacleShape.BOX else (ob.radius, ob.radius)
                     for ob in obstacles])
    z = np.array([(ob.z_min, ob.z_max) for ob in obstacles])
    return np.column_stack([centers - half, z[:, 0]]), np.column_stack([centers + half, z[:, 1]])


# which of (lo, hi) each of a box's 8 corners takes per axis
_CORNER_PICKS = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=bool)


def _pixel_windows(lo, hi, origin, rotation, intr: CameraIntrinsics):
    """Per box [lo[k], hi[k]]: the pixel (rows, cols) slices whose rays can hit it, or None.

    The box corners go into the optical frame. A hit has optical depth
    t > _EPS, so a box wholly at q_z <= 0 is never hit. A box wholly in front
    projects inside the convex hull of its projected corners, padded here by
    one pixel against rounding. A box straddling the camera plane has no
    bounded projection and gets the full image.
    """
    corners = np.where(_CORNER_PICKS, hi[:, None, :], lo[:, None, :])  # (K, 8, 3)
    q = (corners - origin) @ rotation
    in_front = q[..., 2] > 0.0
    qz = np.where(in_front, q[..., 2], 1.0)  # other rows are never projected
    with np.errstate(over="ignore"):  # q_z near 0 sends u, v towards +-inf
        u = intr.fx * q[..., 0] / qz + intr.cx
        v = intr.fy * q[..., 1] / qz + intr.cy
    # clip before the int cast: harmless for the window, and inf cannot be cast
    u = np.clip(u, -2.0, intr.width + 1.0)
    v = np.clip(v, -2.0, intr.height + 1.0)
    c0 = np.maximum(np.floor(u.min(axis=1)) - 1, 0).astype(int).tolist()
    c1 = np.minimum(np.ceil(u.max(axis=1)) + 1, intr.width - 1).astype(int).tolist()
    r0 = np.maximum(np.floor(v.min(axis=1)) - 1, 0).astype(int).tolist()
    r1 = np.minimum(np.ceil(v.max(axis=1)) + 1, intr.height - 1).astype(int).tolist()
    full = slice(0, intr.height), slice(0, intr.width)
    windows = []
    for k, front in enumerate(in_front.tolist()):
        if not all(front):
            windows.append(full if any(front) else None)
        elif c0[k] > c1[k] or r0[k] > r1[k]:
            windows.append(None)
        else:
            windows.append((slice(r0[k], r1[k] + 1), slice(c0[k], c1[k] + 1)))
    return windows


def render_depth(
    scene: Scene, camera_pose_world: RigidTransform, intr: CameraIntrinsics
) -> DepthImage:
    """Ray-cast each obstacle against the pixels that can see it; depth is the optical Z of the hit.

    Each reachable obstacle is cast only against the pixel window of its
    projected bounding box (see ``_pixel_windows``): skipped when wholly behind
    the camera or outside the image, the full image when it straddles the
    camera plane. Pixels outside the window cannot hit it, the per-ray
    arithmetic is the same as a full-image cast, and the per-pixel minimum
    is order-free, so the image is bitwise that of casting every pixel
    against every obstacle.

    ``camera_pose_world`` must map an optical frame into the world frame.
    Pixels with no hit inside (0, max_range] are NaN. Pure and deterministic.
    """
    if camera_pose_world.to_frame != FrameId.WORLD:
        raise ValueError("camera pose must map into the world frame")
    rotation = camera_pose_world.rotation
    dirs = (pixel_directions(intr) @ rotation.T).reshape(intr.height, intr.width, 3)
    origin = camera_pose_world.translation

    # prune obstacles that no ray can reach: a hit at parameter t lies at
    # euclidean distance t * |dir| <= max_range * max|dir| from the origin
    corner = max(
        abs(-intr.cx / intr.fx), abs((intr.width - intr.cx) / intr.fx)
    ), max(abs(-intr.cy / intr.fy), abs((intr.height - intr.cy) / intr.fy))
    reach = intr.max_range * float(np.sqrt(1.0 + corner[0] ** 2 + corner[1] ** 2))

    def reachable(ob: Obstacle) -> bool:
        planar = max(ob.footprint_distance(origin[:2]), 0.0)
        z_gap = max(ob.z_min - origin[2], origin[2] - ob.z_max, 0.0)
        return float(np.hypot(planar, z_gap)) <= reach

    # dirs have unit optical-z, so the hit parameter t equals the optical depth
    t_best = np.full((intr.height, intr.width), np.inf)
    visible = [ob for ob in scene.obstacles if reachable(ob)]
    if visible:
        lo, hi = _aabbs(visible)
        windows = _pixel_windows(lo, hi, origin, rotation, intr)
        for ob, window, ob_lo, ob_hi in zip(visible, windows, lo, hi):
            if window is None:
                continue
            win_dirs = dirs[window].reshape(-1, 3)
            if ob.shape is ObstacleShape.BOX:
                t = _raycast_boxes(origin, win_dirs, [ob_lo], [ob_hi])
            else:
                t = _raycast_cylinders(
                    origin, win_dirs, [ob.center], [ob.radius], [(ob.z_min, ob.z_max)]
                )
            best = t_best[window]
            np.minimum(best, t.reshape(best.shape), out=best)

    depth = np.where((t_best > 0) & (t_best <= intr.max_range), t_best, np.nan)
    return DepthImage(
        intr,
        depth,
        camera_pose_world.from_frame,
        camera_pose_world.stamp or 0.0,
    )


def apply_depth_noise(img: DepthImage, sigma: float, rng: np.random.Generator) -> DepthImage:
    """Zero-mean Gaussian depth noise on valid pixels, clipped to (0, max_range]."""
    if sigma <= 0:
        return img
    mask = img.valid_mask()
    noisy = img.depth.copy()
    noisy[mask] = np.clip(
        noisy[mask] + rng.normal(0.0, sigma, size=int(mask.sum())),
        np.finfo(np.float64).tiny,
        img.intrinsics.max_range,
    )
    return DepthImage(img.intrinsics, noisy, img.frame, img.stamp)


def deproject(img: DepthImage) -> PointCloud:
    """Back-project valid pixels into an optical-frame point cloud (row-major order)."""
    dirs = pixel_directions(img.intrinsics)
    flat = img.depth.ravel()
    mask = np.isfinite(flat) & (flat > 0)
    points = dirs[mask] * flat[mask, None]
    return PointCloud(points, img.frame, img.stamp)
