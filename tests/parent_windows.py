"""The pixel windows as they were computed on numpy arrays.

It is the reference of ``tests/test_world.py::TestWindowsMatchTheArrayCode``.
``_pixel_windows`` and its tables are kept verbatim, names included, so that
the float windows of ``crossnav.world._pixel_window`` can be compared with
them. Nothing else uses them.
"""

import numpy as np

from crossnav.world import CameraIntrinsics


# which of (lo, hi) each of a box's 8 corners takes per axis
_CORNER_PICKS = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=bool)
# a box's 12 edges as corner index pairs: corners 4i + 2j + k differing in one bit
_EDGE_A = np.array([0, 1, 2, 3, 0, 1, 4, 5, 0, 2, 4, 6])
_EDGE_B = np.array([4, 5, 6, 7, 2, 3, 6, 7, 1, 3, 5, 7])
# optical x or y (meters) within which a section point counts as on the axis;
# it only widens windows, and sits far above the rounding of a crossing point
_SECTION_TOL = 1e-9


def _pixel_windows(lo, hi, origin, rotation, intr: CameraIntrinsics):
    """Per box [lo[k], hi[k]]: the pixel (rows, cols) slices whose rays can hit it, or None.

    The box corners go into the optical frame. A hit has optical depth
    t > _EPS, so it lies in the box's part at q_z > 0, and a box wholly at
    q_z <= 0 is never hit. That part projects to a convex set, and u and v
    are monotone along every segment of it, so:

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
    corners = np.where(_CORNER_PICKS, hi[:, None, :], lo[:, None, :])  # (K, 8, 3)
    q = (corners - origin) @ rotation
    in_front = q[..., 2] > 0.0
    qz = np.where(in_front, q[..., 2], 1.0)  # other rows are never projected
    with np.errstate(over="ignore"):  # q_z near 0 sends u, v towards +-inf
        u = intr.fx * q[..., 0] / qz + intr.cx
        v = intr.fy * q[..., 1] / qz + intr.cy
    u_min, u_max, v_min, v_max = u.min(axis=1), u.max(axis=1), v.min(axis=1), v.max(axis=1)
    fronts = in_front.tolist()
    straddling = [k for k, front in enumerate(fronts) if any(front) and not all(front)]
    if straddling:
        qs, front = q[straddling], in_front[straddling]
        a, b = qs[:, _EDGE_A], qs[:, _EDGE_B]  # (S, 12, 3) edge ends
        crosses = (a[..., 2] > 0.0) != (b[..., 2] > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # edges that do not cross
            section = a + (a[..., 2] / (a[..., 2] - b[..., 2]))[..., None] * (b - a)
        for lows, highs, proj, axis in ((u_min, u_max, u, 0), (v_min, v_max, v, 1)):
            s = section[..., axis]
            low = np.where(front, proj[straddling], np.inf).min(axis=1)
            high = np.where(front, proj[straddling], -np.inf).max(axis=1)
            lows[straddling] = np.where((crosses & (s < _SECTION_TOL)).any(axis=1), -np.inf, low)
            highs[straddling] = np.where((crosses & (s > -_SECTION_TOL)).any(axis=1), np.inf, high)
    # clip before the int cast: harmless for the window, and inf cannot be cast
    u_min, u_max = np.clip(u_min, -2.0, intr.width + 1.0), np.clip(u_max, -2.0, intr.width + 1.0)
    v_min, v_max = np.clip(v_min, -2.0, intr.height + 1.0), np.clip(v_max, -2.0, intr.height + 1.0)
    c0 = np.maximum(np.floor(u_min) - 1, 0).astype(int).tolist()
    c1 = np.minimum(np.ceil(u_max) + 1, intr.width - 1).astype(int).tolist()
    r0 = np.maximum(np.floor(v_min) - 1, 0).astype(int).tolist()
    r1 = np.minimum(np.ceil(v_max) + 1, intr.height - 1).astype(int).tolist()
    windows = []
    for k, front in enumerate(fronts):
        if not any(front) or c0[k] > c1[k] or r0[k] > r1[k]:
            windows.append(None)
        else:
            windows.append((slice(r0[k], r1[k] + 1), slice(c0[k], c1[k] + 1)))
    return windows
