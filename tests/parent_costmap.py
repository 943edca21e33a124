"""The costmap path and the rotation check as they were computed on full-grid scans.

It is the reference of ``tests/test_costmap_oracle.py``. ``inflate``,
``cell_centers`` (a method of ``Costmap2D`` then, a function taking the map
here), ``_repulsive_terms`` and ``_check_rotation`` are kept verbatim, with
the helpers and constants they read, so that the flat-index scans of
``crossnav.perception`` and ``crossnav.planner`` and the float check of
``crossnav.geometry`` can be compared with them. Nothing else uses them.
"""

import functools

import numpy as np

from crossnav.geometry import InvalidRotation
from crossnav.perception import FREE, INFLATED, OCCUPIED, Costmap2D

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
