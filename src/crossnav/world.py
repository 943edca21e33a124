"""Scene primitives and synthetic depth sensing.

Obstacles are analytic solids (axis-aligned boxes and vertical cylinders)
with explicit height extents, so a low obstacle and a hanging one differ
only in [z_min, z_max]. Rendering is an exact per-pixel ray cast, which
keeps both viewpoints deterministic and mesh-free. Each obstacle is cast only
against the pixel window of the part of its bounding box in front of the
camera; the window holds every pixel whose ray can hit it, so the image is
bitwise that of a full-image cast. A box that straddles the camera plane is
bounded by its in-front corners, and its window runs to an image edge only on
a side that the box's section with the camera plane reaches. The windows are
found on Python floats, one box at a time, without a matrix product. A render
allocates its hit buffer only over the union box of the cast windows, so its
cost follows the cast pixels, not the image. The image carries that union box
as its return box (``DepthImage.box``), and ``deproject`` scans only the box.
A frame that casts nothing has the empty box and shares one read-only all-NaN
depth array with every such frame of its camera.

A frame does only per-frame work. Each obstacle computes its bounds and
bounding sphere once, on first use. Before its window is sought, an obstacle
whose sphere lies wholly past one of five planes through the camera centre
is skipped: the camera plane and the planes of columns -2 and W + 1 and rows
-2 and H + 1, past which the window would be None anyway. Each world ray
component is built at the shape it varies over, one row, one column or the
whole window; on a camera with no pitch x and y vary by column and z by row.
A term is left out only when its coefficient is 0.0 and the constant is
nonzero or +0.0, so that every ray keeps the bits of the full sum.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Tuple

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
        center = np.asarray(self.center, dtype=np.float64).reshape(2)
        object.__setattr__(self, "center", center)
        if not all(map(math.isfinite, (*center.tolist(), self.z_min, self.z_max))):
            raise ValueError(f"obstacle {self.obstacle_id}: center and z span must be finite")
        if self.z_min >= self.z_max:
            raise ValueError(f"obstacle {self.obstacle_id}: z_min must be < z_max")
        if self.shape is ObstacleShape.BOX:
            if self.half_extents is None:
                raise ValueError(f"obstacle {self.obstacle_id}: box needs half_extents")
            he = np.asarray(self.half_extents, dtype=np.float64).reshape(2)
            if not all(0.0 < h < math.inf for h in he.tolist()):  # NaN too
                raise ValueError(f"obstacle {self.obstacle_id}: half_extents must be positive and finite")
            object.__setattr__(self, "half_extents", he)
        else:
            if self.radius is None or not 0.0 < self.radius < math.inf:  # NaN too
                raise ValueError(f"obstacle {self.obstacle_id}: cylinder needs a positive, finite radius")

    def footprint_distance(self, xy) -> float:
        """Signed 2D distance from a point to the footprint boundary (< 0 inside)."""
        p = np.asarray(xy, dtype=np.float64) - self.center
        if self.shape is ObstacleShape.CYLINDER:
            return float(np.hypot(p[0], p[1]) - self.radius)
        q = np.abs(p) - self.half_extents
        outside = np.hypot(max(q[0], 0.0), max(q[1], 0.0))
        inside = min(max(q[0], q[1]), 0.0)
        return float(outside + inside)

    @functools.cached_property
    def bounds(self) -> Tuple[Tuple[float, float, float], Tuple[float, float, float]]:
        """World-frame axis-aligned bounds (lo, hi), each three Python floats, computed once per obstacle."""
        cx, cy = self.center.tolist()
        hx, hy = self.half_extents.tolist() if self.shape is ObstacleShape.BOX else (self.radius, self.radius)
        z0, z1 = float(self.z_min), float(self.z_max)
        return (cx - hx, cy - hy, z0), (cx + hx, cy + hy, z1)

    @functools.cached_property
    def bounding_sphere(self) -> Tuple[Tuple[float, float, float], float]:
        """(centre, radius) of the sphere through the corners of ``bounds``, as Python floats."""
        lo, hi = self.bounds
        return (
            tuple(0.5 * (l + h) for l, h in zip(lo, hi)),
            0.5 * math.sqrt(sum((h - l) ** 2 for l, h in zip(lo, hi))),
        )

    @property
    def circumradius(self) -> float:
        """Radius of the smallest circle about ``center`` that holds the footprint."""
        if self.shape is ObstacleShape.CYLINDER:
            return float(self.radius)
        return float(np.hypot(self.half_extents[0], self.half_extents[1]))

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

    @functools.cached_property
    def corridor_bounds(self) -> Tuple[float, float, float, float]:
        """(min x, min y, max x, max y) of the corridor as Python floats, read once per scene."""
        return (*self.corridor_min.tolist(), *self.corridor_max.tolist())

    def validate(self, robot_clearance_m: float) -> None:
        """Enforce scene invariants; raises ValueError naming the offender."""
        for name in ("leash_length_m", "body_radius_m", "head_height_m", "chest_height_m"):
            value = getattr(self, name)
            if not value > 0:  # NaN too
                raise ValueError(f"{name} must be positive")
            if value == math.inf:
                raise ValueError(f"{name} must be finite")
        lo, hi = self.corridor_min, self.corridor_max
        if np.any(lo >= hi):
            raise ValueError("corridor bounds are empty")
        if np.any(self.goal < lo) or np.any(self.goal > hi):
            raise ValueError("goal lies outside corridor bounds")
        self.check_unique_ids()
        for ob in self.obstacles:
            if ob.kind is ObstacleKind.OVERHEAD and ob.z_min <= robot_clearance_m:
                raise ValueError(
                    f"obstacle {ob.obstacle_id}: overhead but z_min {ob.z_min} "
                    f"is not above robot clearance {robot_clearance_m}"
                )
            if ob.kind is ObstacleKind.GROUND and ob.footprint_distance(self.start_robot[:2]) <= 0:
                raise ValueError(f"start pose intersects obstacle {ob.obstacle_id}")

    def check_unique_ids(self) -> None:
        """Raise ValueError naming the first obstacle id that an earlier obstacle uses.

        Collision state is kept per (agent, obstacle id), so an id names one obstacle.
        """
        seen = set()
        for ob in self.obstacles:
            if ob.obstacle_id in seen:
                raise ValueError(f"obstacle {ob.obstacle_id}: id is used by an earlier obstacle")
            seen.add(ob.obstacle_id)

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
        if not all(v > 0 and math.isfinite(v) for v in (self.fx, self.fy)):  # NaN too
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if not (self.max_range > 0 and math.isfinite(self.max_range)):
            raise ValueError("max_range must be positive and finite")

    @classmethod
    def from_fov(
        cls, width: int, height: int, hfov_deg: float, max_range: float
    ) -> "CameraIntrinsics":
        """Square-pixel pinhole from a horizontal field of view."""
        if not 0.0 < hfov_deg < 180.0:
            raise ValueError(f"field of view {hfov_deg} deg must lie strictly between 0 and 180")
        f = float((width / 2.0) / np.tan(np.radians(hfov_deg) / 2.0))
        return cls(f, f, width / 2.0, height / 2.0, width, height, max_range)


@dataclass(frozen=True)
class DepthImage:
    """Per-pixel metric depth (optical Z); NaN marks pixels with no return.

    ``box`` is the return box (top, bottom, left, right): rows [top, bottom)
    and columns [left, right) hold every pixel with a finite depth, so a
    reader may scan the box alone. Top equal to bottom, or left to right, is
    an empty box: the image has no return. None, the default, means the whole
    image and is stored as such, so images built without a box still work.
    The box is checked against the image size, not against the depths.
    ``depth`` may be read-only: ``render_depth`` shares one array among its
    frames with no return. Copy it before writing to it.
    """

    intrinsics: CameraIntrinsics
    depth: np.ndarray  # (height, width) float64, NaN = invalid
    frame: FrameId
    box: Optional[Tuple[int, int, int, int]] = None

    def __post_init__(self):
        d = np.asarray(self.depth, dtype=np.float64)
        height, width = self.intrinsics.height, self.intrinsics.width
        if d.shape != (height, width):
            raise ValueError(f"depth shape {d.shape} does not match intrinsics")
        object.__setattr__(self, "depth", d)
        if self.box is None:
            object.__setattr__(self, "box", (0, height, 0, width))
            return
        top, bottom, left, right = box = tuple(map(operator.index, self.box))  # integers only
        if not (0 <= top <= bottom <= height and 0 <= left <= right <= width):
            raise ValueError(f"return box {box} does not fit the {width}x{height} image")
        object.__setattr__(self, "box", box)

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.depth) & (self.depth > 0)


@functools.lru_cache(maxsize=8)
def _ray_axes(intr: CameraIntrinsics):
    """Optical (x per column, y per row) of the pixel rays (x, y, 1), read-only.

    The ray of pixel (row v, column u) is (x[u], y[v], 1): unit optical z, so a
    hit parameter t equals the optical depth.
    """
    x = (np.arange(intr.width, dtype=np.float64) - intr.cx) / intr.fx
    y = (np.arange(intr.height, dtype=np.float64) - intr.cy) / intr.fy
    x.flags.writeable = y.flags.writeable = False
    return x, y


@functools.lru_cache(maxsize=8)
def _no_returns(intr: CameraIntrinsics) -> np.ndarray:
    """The all-NaN depth of a frame that casts nothing, read-only and shared by every such frame."""
    depth = np.full((intr.height, intr.width), np.nan)
    depth.flags.writeable = False
    return depth


def _raycast_box(origin, dx, dy, dz, lo, hi, best) -> np.ndarray:
    """Lower ``best`` to the nearest positive hit parameter of each ray (dx, dy, dz) against box [lo, hi].

    ``best`` (inf: no hit yet) is updated in place and returned. The
    components broadcast to its shape: one that varies only by column or by
    row may come as a row or a column, and its slab is then worked at that
    shape. Rays with a zero direction component that start on a slab face
    are treated as inside that slab (fmin/fmax drop the resulting NaNs).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # slab by slab: near = fmax of the entries, far = fmin of the exits
        for axis, (d, o, low, high) in enumerate(zip((dx, dy, dz), origin, lo, hi)):
            t2 = np.divide(1.0, d)  # +-inf on zero components
            t1 = (low - o) * t2
            t2 *= high - o
            entry, exit_ = np.fmin(t1, t2), np.fmax(t1, t2, out=t1)
            if axis == 0:
                near, far = entry, exit_
            else:  # in place only where the slabs have one shape
                near = np.fmax(near, entry, out=near if near.shape == entry.shape else None)
                far = np.fmin(far, exit_, out=far if far.shape == exit_.shape else None)
        valid = far >= near
        valid &= far > _EPS
        # the entry where it lies ahead, else the exit (the origin is inside)
        np.copyto(far, near, where=near > _EPS)
        np.minimum(best, far, out=best, where=valid)
    return best


def _raycast_cylinder(origin, dx, dy, dz, center, r, z1, z2, best) -> np.ndarray:
    """Lower ``best`` to the nearest positive hit of each ray (dx, dy, dz) against one vertical cylinder.

    Sides and caps; ``best`` (inf: no hit yet) is updated in place and
    returned. The components broadcast to its shape, as for
    ``_raycast_box``: the side roots are worked at the shape of (dx, dy) and
    the cap parameters at that of dz. A hit parameter that is NaN or not
    above _EPS fails its test, so rays parallel to the axis (no side hit)
    and to the caps (an infinite cap parameter leaves the radius test NaN or
    inf) need no mask of their own.
    """
    ox, oy, oz = origin
    cx0, cy0 = center
    px, py = ox - cx0, oy - cy0
    a = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_a = np.divide(1.0, a, out=np.zeros_like(a), where=a > _EPS)  # 0: t is 0 or NaN
        half_b = px * dx + py * dy
        disc = half_b * half_b
        disc -= a * (px * px + py * py - r * r)  # the scalar is per-cylinder
        sq = np.sqrt(disc, out=disc)  # NaN where the ray misses the circle
        t = np.add(sq, half_b)
        np.negative(t, out=t)  # the near root, -(sq + half_b) / a
        z = np.empty(best.shape)
        valid = np.empty(best.shape, dtype=bool)
        for root in range(2):
            if root:
                np.subtract(sq, half_b, out=t)  # the far root
            t *= inv_a
            np.multiply(t, dz, out=z)
            z += oz
            np.greater(t, _EPS, out=valid)
            valid &= z >= z1
            valid &= z <= z2
            np.minimum(best, t, out=best, where=valid)
        # caps
        inv_dz = np.divide(1.0, dz)  # +-inf on rays parallel to the caps
        hx, hy = z, np.empty(best.shape)
        for z_cap in (z1, z2):
            t = inv_dz * (z_cap - oz)
            np.multiply(t, dx, out=hx)
            hx += ox
            hx -= cx0
            np.multiply(t, dy, out=hy)
            hy += oy
            hy -= cy0
            hx *= hx
            hy *= hy
            hx += hy
            np.greater(t, _EPS, out=valid)
            valid &= hx <= r * r
            np.minimum(best, t, out=best, where=valid)
    return best


def _ray_component(a: float, b: float, k: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """a * xs + b * ys + k at the shape it varies over: one row, one column, or both.

    ``xs`` holds a window's optical x per column (1-D) and ``ys`` its optical
    y per row (a column), so the sum is the world component (a, b, k) of the
    window's rays. A term whose coefficient is 0.0, of either sign, is a
    signed zero. Adding it leaves a nonzero partial sum as it is; a zero
    partial sum may change sign, but adding k then gives k when k is
    nonzero and +0.0 when k is +0.0, either way. So when k is nonzero or
    +0.0 such a term is dropped, and every element keeps the bits of the
    full sum; when k is -0.0 both terms stay.
    """
    if k != 0.0 or math.copysign(1.0, k) > 0.0:
        if b == 0.0:
            return a * xs + k
        if a == 0.0:
            return b * ys + k
    return a * xs + b * ys + k


# a box's 12 edges as corner index pairs: corners 4i + 2j + k differing in one bit
_EDGES = ((0, 4), (1, 5), (2, 6), (3, 7), (0, 2), (1, 3), (4, 6), (5, 7), (0, 1), (2, 3), (4, 5), (6, 7))
# optical x or y (meters) within which a section point counts as on the axis;
# it only widens windows, and sits far above the rounding of a crossing point
_SECTION_TOL = 1e-9


def _pixel_span(low: float, high: float, size: int):
    """Pixel indices [first, last] covering [low, high], padded by one and clipped to [0, size - 1]."""
    # clip before rounding: harmless for the span, and inf has no integer
    first = max(math.floor(min(max(low, -2.0), size + 1.0)) - 1, 0)
    last = min(math.ceil(min(max(high, -2.0), size + 1.0)) + 1, size - 1)
    return first, last


def _pixel_window(lo, hi, origin, r, intr: CameraIntrinsics):
    """The pixel (rows, cols) slices whose rays can hit box [lo, hi], or None.

    All arguments are Python floats: ``origin`` is the camera position and
    ``r`` its rotation as nested lists. The box corners c go into the optical
    frame component by component, q_i = (c - origin) . r[:, i], with no
    matrix product. A hit has optical depth t > _EPS, so it lies in the box's
    part at q_z > 0, and a box wholly at q_z <= 0 is never hit. That part
    projects to a convex set, and u and v are monotone along every segment
    of it, so:

    - a box wholly in front projects inside the bounds of its projected
      corners;
    - a box straddling the camera plane projects inside the bounds of its
      in-front corners, except that it is unbounded towards a side where its
      section at q_z = 0 reaches that side: towards the last column when the
      optical x of some crossing of a box edge with q_z = 0 exceeds
      -_SECTION_TOL, towards column 0 when one is below +_SECTION_TOL, and
      likewise rows with optical y. Near a section point at optical x < 0 the
      projection runs off towards u = -inf only, so the other bound holds.

    The bounds are padded by one pixel against rounding and clipped to the
    image; a window that misses the image is None.
    """
    ox, oy, oz = origin
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    q = []  # optical corners; corner 4i + 2j + k takes (lo, hi)[i] in x, [j] in y, [k] in z
    for cx in (lo[0] - ox, hi[0] - ox):
        ax, ay, az = cx * r00, cx * r01, cx * r02
        for cy in (lo[1] - oy, hi[1] - oy):
            bx, by, bz = ax + cy * r10, ay + cy * r11, az + cy * r12
            for cz in (lo[2] - oz, hi[2] - oz):
                q.append((bx + cz * r20, by + cz * r21, bz + cz * r22))
    front = [c for c in q if c[2] > 0.0]
    if not front:
        return None
    fx, fy, px, py = intr.fx, intr.fy, intr.cx, intr.cy
    us = [fx * x / z + px for x, _, z in front]  # q_z near 0 sends u, v towards +-inf
    vs = [fy * y / z + py for _, y, z in front]
    u_min, u_max, v_min, v_max = min(us), max(us), min(vs), max(vs)
    if len(front) < 8:  # straddling: open the sides that the section reaches
        for a, b in _EDGES:
            (ax, ay, az), (bx, by, bz) = q[a], q[b]
            if (az > 0.0) != (bz > 0.0):
                w = az / (az - bz)
                sx, sy = ax + w * (bx - ax), ay + w * (by - ay)
                if sx < _SECTION_TOL:
                    u_min = -math.inf
                if sx > -_SECTION_TOL:
                    u_max = math.inf
                if sy < _SECTION_TOL:
                    v_min = -math.inf
                if sy > -_SECTION_TOL:
                    v_max = math.inf
    c0, c1 = _pixel_span(u_min, u_max, intr.width)
    r0, r1 = _pixel_span(v_min, v_max, intr.height)
    if c0 > c1 or r0 > r1:
        return None
    return slice(r0, r1 + 1), slice(c0, c1 + 1)


# meters by which an obstacle's bounding sphere must clear a plane of the view
# cone to be culled; far above the rounding of the sphere and of the corners
# that _pixel_window projects, so the cull only drops windows that are None
_CONE_SLACK_M = 1e-6


def _cone_normals(intr: CameraIntrinsics, u_low: float, u_high: float, v_low: float, v_high: float):
    """Unit outward normals, in the optical frame, of five planes through the camera centre.

    The camera plane (outward: q_z < 0), then the planes of the pixel
    columns u_low and u_high and the rows v_low and v_high. The plane of
    column u holds the optical points with fx q_x + (cx - u) q_z = 0, so in
    front of the camera its outer side is u < u_low, or u > u_high; rows
    likewise with fy, cy and q_y.
    """
    normals = [(0.0, 0.0, -1.0)]
    for axis, f, c, low, high in ((0, intr.fx, intr.cx, u_low, u_high), (1, intr.fy, intr.cy, v_low, v_high)):
        for sign, edge in ((-1.0, low), (1.0, high)):
            n = [0.0, 0.0, sign * (c - edge)]
            n[axis] = sign * f
            norm = math.hypot(n[axis], n[2])
            normals.append((n[0] / norm, n[1] / norm, n[2] / norm))
    return tuple(normals)


@functools.lru_cache(maxsize=8)
def _view_cone(intr: CameraIntrinsics):
    """The planes past which ``_pixel_window`` gives no window: columns -2 and W + 1, rows -2 and H + 1.

    ``_pixel_span`` clips the bounds there and pads them by one pixel, so a
    span wholly at u <= -2 or u >= W + 1 (and so for v) is empty. A box in
    front of the camera and wholly past one of these planes projects past
    it. A box across the camera plane and wholly past it has every section
    point with the camera plane strictly past it too, so its window is not
    opened towards the image on that side.
    """
    return _cone_normals(intr, -2.0, intr.width + 1.0, -2.0, intr.height + 1.0)


def _outside_cone(sphere, origin, r, normals) -> bool:
    """Whether a bounding sphere (centre, radius) lies wholly past one of the planes, by _CONE_SLACK_M.

    ``normals`` are optical-frame plane normals through the camera centre,
    as ``_view_cone`` gives them; ``origin`` and ``r`` are the camera's
    position and rotation as Python floats. The centre goes into the
    optical frame component by component, as in ``_pixel_window``.
    """
    (sx, sy, sz), radius = sphere
    ox, oy, oz = origin
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    dx, dy, dz = sx - ox, sy - oy, sz - oz
    qx = dx * r00 + dy * r10 + dz * r20
    qy = dx * r01 + dy * r11 + dz * r21
    qz = dx * r02 + dy * r12 + dz * r22
    clear = radius + _CONE_SLACK_M
    for nx, ny, nz in normals:
        if nx * qx + ny * qy + nz * qz > clear:
            return True
    return False


def render_depth(
    scene: Scene, camera_pose_world: RigidTransform, intr: CameraIntrinsics
) -> DepthImage:
    """Ray-cast each obstacle against the pixels that can see it; depth is the optical Z of the hit.

    Each obstacle whose bounding box is within reach of a ray is cast only
    against the pixel window of the part of that box in front of the camera
    (see ``_pixel_window``, which works on Python floats, one box at a time):
    skipped when wholly behind the camera or outside the image. A box
    straddling the camera plane is bounded by its in-front corners, and its
    window runs to an image edge only on a side that its section with the
    camera plane reaches, since a hit has positive optical depth. Pixels
    outside the window cannot hit the obstacle, each ray is built
    element-wise from its pixel's column and row so it has the same bits in
    any window, and the per-pixel minimum is order-free, so the image is
    bitwise that of casting every pixel against every obstacle.

    Three shortcuts keep that per frame work only. Each obstacle's bounds
    and bounding sphere are computed once per obstacle (``Obstacle.bounds``,
    ``Obstacle.bounding_sphere``). An obstacle whose sphere lies wholly past
    one of the view-cone planes of ``_view_cone`` is skipped before its
    window is sought, since that window would be None. And each world ray
    component is built at the shape it varies over (``_ray_component``): on
    a camera with no pitch, x and y per column and z per row. A term is
    dropped only when its coefficient is 0.0 and the constant is nonzero or
    +0.0, so every ray keeps its bits, and the casters take the components
    broadcast.

    Rays, the hit buffer and the range select cover only the union box of
    the cast windows, which is the image's return box. A frame that casts
    nothing gets the empty box (0, 0, 0, 0) and a shared read-only all-NaN
    depth (``_no_returns``), so it allocates nothing; other frames get a fresh
    NaN-filled depth of their own.

    ``camera_pose_world`` must map an optical frame into the world frame.
    Pixels with no hit inside (0, max_range] are NaN. Pure and deterministic.
    """
    if camera_pose_world.to_frame != FrameId.WORLD:
        raise ValueError("camera pose must map into the world frame")
    origin = camera_pose_world.translation.tolist()
    r = camera_pose_world.rotation.tolist()

    # prune obstacles that no ray can reach: a hit at parameter t lies at
    # euclidean distance t * |dir| <= max_range * max|dir| from the origin
    corner_x = max(abs(-intr.cx / intr.fx), abs((intr.width - intr.cx) / intr.fx))
    corner_y = max(abs(-intr.cy / intr.fy), abs((intr.height - intr.cy) / intr.fy))
    reach = intr.max_range * math.sqrt(1.0 + corner_x**2 + corner_y**2)

    cone = None  # the view cone, looked up once an obstacle is within reach
    cast = []  # (obstacle, lo, hi, window)
    for ob in scene.obstacles:
        lo, hi = ob.bounds
        # distance from the origin to the bounding box, which is at most the
        # obstacle's; the 1e-9 m slack against rounding only keeps obstacles
        # whose hits all lie beyond max_range and so come out NaN
        gap = 0.0
        for o, l, h in zip(origin, lo, hi):
            g = max(l - o, o - h, 0.0)
            gap += g * g
        if math.sqrt(gap) > reach + 1e-9:
            continue
        if cone is None:
            cone = _view_cone(intr)
        if _outside_cone(ob.bounding_sphere, origin, r, cone):
            continue
        window = _pixel_window(lo, hi, origin, r, intr)
        if window is not None:
            cast.append((ob, lo, hi, window))
    if not cast:
        return DepthImage(intr, _no_returns(intr), camera_pose_world.from_frame, (0, 0, 0, 0))

    # the union box of the windows holds every cast pixel
    top = min(w[0].start for *_, w in cast)
    bottom = max(w[0].stop for *_, w in cast)
    left = min(w[1].start for *_, w in cast)
    right = max(w[1].stop for *_, w in cast)
    t_best = np.full((bottom - top, right - left), np.inf)
    x, y = _ray_axes(intr)
    for ob, lo, hi, (rows, cols) in cast:
        # the window's rays, element-wise from its columns and rows
        xs, ys = x[cols], y[rows, None]
        dx, dy, dz = (_ray_component(*r[i], xs, ys) for i in range(3))
        best = t_best[rows.start - top:rows.stop - top, cols.start - left:cols.stop - left]
        if ob.shape is ObstacleShape.BOX:
            _raycast_box(origin, dx, dy, dz, lo, hi, best)
        else:
            _raycast_cylinder(origin, dx, dy, dz, ob.center, ob.radius, ob.z_min, ob.z_max, best)

    depth = np.full((intr.height, intr.width), np.nan)
    np.copyto(depth[top:bottom, left:right], t_best, where=(t_best > 0) & (t_best <= intr.max_range))
    return DepthImage(intr, depth, camera_pose_world.from_frame, (top, bottom, left, right))


def apply_depth_noise(img: DepthImage, sigma: float, rng: np.random.Generator) -> DepthImage:
    """Zero-mean Gaussian depth noise on valid pixels, clipped to (0, max_range]; keeps the return box.

    Only the box is scanned: it holds every valid pixel, in the image's
    row-major order, so the draws are those of a whole-image scan. The depth
    returned is a writable copy.
    """
    if sigma <= 0:
        return img
    noisy = img.depth.copy()
    top, bottom, left, right = img.box
    window = noisy[top:bottom, left:right]  # a view: writes land in noisy
    mask = np.isfinite(window) & (window > 0)
    window[mask] = np.clip(
        window[mask] + rng.normal(0.0, sigma, size=int(mask.sum())),
        np.finfo(np.float64).tiny,
        img.intrinsics.max_range,
    )
    return DepthImage(img.intrinsics, noisy, img.frame, img.box)


def deproject(img: DepthImage) -> PointCloud:
    """Back-project valid pixels into an optical-frame point cloud (row-major order).

    Only the image's return box is scanned. It holds every valid pixel, and
    its own row-major order is the image's, so the cloud is that of a scan of
    the whole image; an empty box costs no scan at all.
    """
    top, bottom, left, right = img.box
    if top == bottom or left == right:
        return PointCloud(np.empty((0, 3)), img.frame)
    x, y = _ray_axes(img.intrinsics)
    flat = img.depth[top:bottom, left:right].ravel()
    index = np.flatnonzero(flat > 0)  # NaN fails the test; +inf is dropped next
    index = index[np.isfinite(flat[index])]
    rows, cols = np.divmod(index, right - left)
    d = flat[index]
    points = np.empty((index.size, 3))
    np.multiply(x[left:right][cols], d, out=points[:, 0])
    np.multiply(y[top:bottom][rows], d, out=points[:, 1])
    points[:, 2] = d
    return PointCloud(points, img.frame)
