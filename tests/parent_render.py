"""The depth render as it was with 2-D rays and per-frame bounds.

It is the reference of ``tests/test_world.py::TestRaysAtTheirShape``.
``render_depth``, its casters ``_raycast_box`` and ``_raycast_cylinder`` and
``_bounds`` are kept verbatim, names included: every ray component is built
over the whole window, and every obstacle's bounds are found per frame. The
windows themselves and the ray axes are shared with ``crossnav.world``, whose
``_pixel_window`` is held to the array code by ``tests/parent_windows.py``.
Nothing else uses them.
"""

import math

import numpy as np

from crossnav.geometry import FrameId, RigidTransform
from crossnav.world import (
    CameraIntrinsics,
    DepthImage,
    Obstacle,
    ObstacleShape,
    Scene,
    _no_returns,
    _pixel_window,
    _ray_axes,
)

_EPS = 1e-12


def _raycast_box(origin, dx, dy, dz, lo, hi, best) -> np.ndarray:
    """Lower ``best`` to the nearest positive hit parameter of each ray (dx, dy, dz) against box [lo, hi].

    ``best`` (inf: no hit yet) is updated in place and returned. Rays with a
    zero direction component that start on a slab face are treated as inside
    that slab (fmin/fmax drop the resulting NaNs).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # slab by slab: near = fmax of the entries, far = fmin of the exits
        for axis, (d, o, low, high) in enumerate(zip((dx, dy, dz), origin, lo, hi)):
            t2 = np.divide(1.0, d)  # +-inf on zero components
            t1 = (low - o) * t2
            t2 *= high - o
            if axis == 0:
                near, far = np.fmin(t1, t2), np.fmax(t1, t2, out=t1)
            else:
                np.fmax(near, np.fmin(t1, t2), out=near)
                np.fmin(far, np.fmax(t1, t2, out=t1), out=far)
        valid = far >= near
        valid &= far > _EPS
        # the entry where it lies ahead, else the exit (the origin is inside)
        np.copyto(far, near, where=near > _EPS)
        np.minimum(best, far, out=best, where=valid)
    return best


def _raycast_cylinder(origin, dx, dy, dz, center, r, z1, z2, best) -> np.ndarray:
    """Lower ``best`` to the nearest positive hit of each ray (dx, dy, dz) against one vertical cylinder.

    Sides and caps; ``best`` (inf: no hit yet) is updated in place and
    returned. A hit parameter that is NaN or not above _EPS fails its test,
    so rays parallel to the axis (no side hit) and to the caps (an infinite
    cap parameter leaves the radius test NaN or inf) need no mask of their own.
    """
    ox, oy, oz = origin
    cx0, cy0 = center
    px, py = ox - cx0, oy - cy0
    a = dx * dx
    a += dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_a = np.divide(1.0, a, out=np.zeros_like(a), where=a > _EPS)  # 0: t is 0 or NaN
        half_b = px * dx
        half_b += py * dy
        disc = half_b * half_b
        disc -= a * (px * px + py * py - r * r)  # the scalar is per-cylinder
        sq = np.sqrt(disc, out=disc)  # NaN where the ray misses the circle
        t = np.add(sq, half_b)
        np.negative(t, out=t)  # the near root, -(sq + half_b) / a
        z = np.empty_like(t)
        valid = np.empty(t.shape, dtype=bool)
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
        hx, hy = z, np.empty_like(t)
        for z_cap in (z1, z2):
            np.multiply(inv_dz, z_cap - oz, out=t)
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


def _bounds(ob: Obstacle):
    """World-frame axis-aligned bounds (lo, hi) of an obstacle, each three Python floats."""
    cx, cy = ob.center.tolist()
    hx, hy = ob.half_extents.tolist() if ob.shape is ObstacleShape.BOX else (ob.radius, ob.radius)
    z0, z1 = float(ob.z_min), float(ob.z_max)
    return (cx - hx, cy - hy, z0), (cx + hx, cy + hy, z1)



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

    cast = []  # (obstacle, lo, hi, window)
    for ob in scene.obstacles:
        lo, hi = _bounds(ob)
        # distance from the origin to the bounding box, which is at most the
        # obstacle's; the 1e-9 m slack against rounding only keeps obstacles
        # whose hits all lie beyond max_range and so come out NaN
        gap = 0.0
        for o, l, h in zip(origin, lo, hi):
            g = max(l - o, o - h, 0.0)
            gap += g * g
        if math.sqrt(gap) > reach + 1e-9:
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
        dx, dy, dz = (r[i][0] * xs + r[i][1] * ys + r[i][2] for i in range(3))
        best = t_best[rows.start - top:rows.stop - top, cols.start - left:cols.stop - left]
        if ob.shape is ObstacleShape.BOX:
            _raycast_box(origin, dx, dy, dz, lo, hi, best)
        else:
            _raycast_cylinder(origin, dx, dy, dz, ob.center, ob.radius, ob.z_min, ob.z_max, best)

    depth = np.full((intr.height, intr.width), np.nan)
    np.copyto(depth[top:bottom, left:right], t_best, where=(t_best > 0) & (t_best <= intr.max_range))
    return DepthImage(intr, depth, camera_pose_world.from_frame, (top, bottom, left, right))
