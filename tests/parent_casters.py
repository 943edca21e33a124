"""The ray casters as they were before they lowered a caller's buffer in place.

It is the reference of ``tests/test_world.py::TestCastersMatchTheParentCode``.
``_raycast_box`` and ``_raycast_cylinder`` are kept verbatim, names included,
so that the casters of ``crossnav.world`` can be compared with them bit for
bit. Nothing else uses them.
"""

import numpy as np

_EPS = 1e-12


def _raycast_box(origin, dx, dy, dz, lo, hi) -> np.ndarray:
    """Nearest positive hit parameter of each ray (dx, dy, dz) against box [lo, hi]; inf where none.

    Rays with a zero direction component that start on a slab face are treated
    as inside that slab (fmin/fmax drop the resulting NaNs).
    """
    ox, oy, oz = origin
    with np.errstate(divide="ignore", invalid="ignore"):
        ix, iy, iz = 1.0 / dx, 1.0 / dy, 1.0 / dz  # +-inf on zero components
        tx1 = (lo[0] - ox) * ix
        tx2 = (hi[0] - ox) * ix
        ty1 = (lo[1] - oy) * iy
        ty2 = (hi[1] - oy) * iy
        tz1 = (lo[2] - oz) * iz
        tz2 = (hi[2] - oz) * iz
        t_near = np.fmax(np.fmax(np.fmin(tx1, tx2), np.fmin(ty1, ty2)), np.fmin(tz1, tz2))
        t_far = np.fmin(np.fmin(np.fmax(tx1, tx2), np.fmax(ty1, ty2)), np.fmax(tz1, tz2))
        t = np.where(t_near > _EPS, t_near, t_far)  # origin inside: first exit
        t[~((t_far >= t_near) & (t_far > _EPS))] = np.inf
    return t


def _raycast_cylinder(origin, dx, dy, dz, center, r, z1, z2) -> np.ndarray:
    """Nearest positive hit of each ray (dx, dy, dz) against one vertical cylinder (sides and caps)."""
    ox, oy, oz = origin
    cx0, cy0 = center
    a = dx * dx + dy * dy
    a_ok = a > _EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_a = np.where(a_ok, a, np.inf) ** -1.0
        inv_dz = 1.0 / dz  # +-inf on horizontal-plane-parallel rays
    best = np.full(a.shape, np.inf)
    with np.errstate(invalid="ignore"):
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
