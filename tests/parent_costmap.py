"""The costmap path and the rotation check as they were computed on full-grid scans.

It is the reference of ``tests/test_costmap_oracle.py``. ``inflate``,
``cell_centers`` (a method of ``Costmap2D`` then, a function taking the map
here), ``_repulsive_terms`` and ``_check_rotation`` are kept verbatim, with
the helpers and constants they read, so that the flat-index scans of
``crossnav.perception`` and ``crossnav.planner`` and the float check of
``crossnav.geometry`` can be compared with them. So is ``build_costmap``,
which took one cloud; ``merged_costmap`` is the robot branch's merge of the
band and the memory points into that cloud, as it was. Nothing else uses
them.
"""

import functools

import numpy as np

from crossnav.geometry import FrameId, InvalidRotation, PointCloud
from crossnav.perception import FREE, INFLATED, OCCUPIED, Costmap2D, InvalidGrid

ORTHONORMALITY_TOL = 1e-9
_DISK_EDGE_TOL = 1e-9
_EYE3 = np.eye(3)


def cell_centers(self: Costmap2D, mask: np.ndarray) -> np.ndarray:
    """Metric centers of the cells selected by a boolean mask, as (N, 2)."""
    ix, iy = np.nonzero(mask)
    return self.origin + (np.stack([ix, iy], axis=1) + 0.5) * self.resolution


def nonfree_centers(costmap: Costmap2D) -> np.ndarray:
    """Metric centers of all Occupied and Inflated cells, as (N, 2)."""
    return cell_centers(costmap, costmap.cells != FREE)


@functools.lru_cache(maxsize=16)
def _disk_offsets(r_inf: float, resolution: float) -> np.ndarray:
    """Integer cell offsets whose centers lie within the inflation disk, (M, 2)."""
    r = int(np.floor((r_inf + _DISK_EDGE_TOL) / resolution))
    di = np.arange(-r, r + 1)
    dist_m = np.hypot(di[:, None], di[None, :]) * resolution
    return np.argwhere(dist_m <= r_inf + _DISK_EDGE_TOL) - r


def inflate(costmap: Costmap2D, r_inf: float) -> Costmap2D:
    """Mark Free cells within r_inf (center to center, Euclidean) of an Occupied cell.

    Occupied cells are unchanged; idempotent for a fixed radius.
    """
    if r_inf < 0:
        raise ValueError(f"inflation radius must be non-negative, got {r_inf}")
    occupied = np.argwhere(costmap.cells == OCCUPIED)
    if r_inf + _DISK_EDGE_TOL < costmap.resolution or len(occupied) == 0:
        # no neighbor center can be closer than one cell pitch
        return Costmap2D(costmap.origin, costmap.resolution, costmap.cells.copy())
    # stamp the disk onto every occupied cell; much cheaper than a dense
    # morphology pass since occupancy is sparse on these grids
    stamped = (occupied[:, None, :] + _disk_offsets(r_inf, costmap.resolution)).reshape(-1, 2)
    keep = (
        (stamped[:, 0] >= 0)
        & (stamped[:, 0] < costmap.width)
        & (stamped[:, 1] >= 0)
        & (stamped[:, 1] < costmap.height)
    )
    stamped = stamped[keep]
    cells = costmap.cells.copy()
    reach = np.zeros(cells.shape, dtype=bool)
    reach[stamped[:, 0], stamped[:, 1]] = True
    cells[reach & (costmap.cells == FREE)] = INFLATED
    return Costmap2D(costmap.origin, costmap.resolution, cells)


def _repulsive_terms(robot_xy, costmap: Costmap2D, d0: float):
    """Distances (raw and clamped) from the robot to each in-range non-free cell."""
    cells = nonfree_centers(costmap)
    if cells.shape[0] == 0:
        return None
    diff = np.asarray(robot_xy, dtype=np.float64) - cells
    d = np.hypot(diff[:, 0], diff[:, 1])
    mask = (d < d0) & (d > 1e-12)
    if not mask.any():
        return None
    d = d[mask]
    return diff[mask], d, np.maximum(d, costmap.resolution / 2.0)


def _check_rotation(rotation: np.ndarray) -> np.ndarray:
    rotation = np.asarray(rotation, dtype=np.float64)
    if rotation.shape != (3, 3):
        raise InvalidRotation(f"rotation must be 3x3, got {rotation.shape}")
    err = np.max(np.abs(rotation.T @ rotation - _EYE3))
    if not err <= ORTHONORMALITY_TOL:  # NaN-safe: comparisons with NaN are False
        raise InvalidRotation(f"rotation not orthonormal (max error {err:.3e})")
    # 3x3 determinant by cofactor expansion; this runs on every pose update
    # and np.linalg.det's LAPACK round trip doubles the cost of the check
    (a, b, c), (d, e, f), (g, h, i) = rotation.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not abs(det - 1.0) <= ORTHONORMALITY_TOL:
        raise InvalidRotation(f"rotation determinant {det!r} != +1")
    return rotation


def build_costmap(
    cloud: PointCloud,
    origin,
    resolution: float,
    width: int,
    height: int,
) -> Costmap2D:
    """Project points onto the XY plane and mark their cells Occupied.

    Points outside the grid bounds are ignored.
    """
    if resolution <= 0 or width == 0 or height == 0:
        raise InvalidGrid(
            f"invalid grid spec: resolution={resolution}, width={width}, height={height}"
        )
    origin = np.asarray(origin, dtype=np.float64).reshape(2)
    cells = np.zeros((width, height), dtype=np.uint8)
    if len(cloud) > 0:
        idx = np.floor((cloud.points[:, :2] - origin) / resolution).astype(np.int64)
        inside = (idx[:, 0] >= 0) & (idx[:, 0] < width) & (idx[:, 1] >= 0) & (idx[:, 1] < height)
        idx = idx[inside]
        cells[idx[:, 0], idx[:, 1]] = OCCUPIED
    return Costmap2D(origin, resolution, cells)


def merged_costmap(band: PointCloud, extra_xy, origin, resolution, width, height) -> Costmap2D:
    """The uninflated map of ``crossnav.sim.robot_branch_observation``: memory stacked under the band."""
    merged = band
    if extra_xy is not None and extra_xy.shape[0] > 0:
        pad = np.column_stack([extra_xy, np.zeros(extra_xy.shape[0])])
        merged = PointCloud(np.vstack([band.points, pad]) if len(band) else pad, FrameId.ROBOT_BASE)
    return build_costmap(merged, origin, resolution, width, height)
