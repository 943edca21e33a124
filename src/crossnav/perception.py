"""Robot-branch perception: height-band filtering and the inflated local costmap.

The costmap lives in the robot base frame. Cells are indexed ``[ix, iy]``
with ``ix = floor((x - origin_x) / resolution)``, so the array shape is
(width, height).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import FrameId, FrameMismatch, PointCloud

FREE = np.uint8(0)
OCCUPIED = np.uint8(1)
INFLATED = np.uint8(2)


class InvalidGrid(Exception):
    """Raised for non-positive resolution or empty grid dimensions."""


def passthrough_filter(cloud: PointCloud, z_min: float, z_max: float) -> PointCloud:
    """Keep exactly the points with z_min <= z <= z_max, preserving order.

    Drops ground returns below the band and structures above the robot's
    clearance height. The cloud must already be in the robot base frame.
    """
    if cloud.frame != FrameId.ROBOT_BASE:
        raise FrameMismatch(f"passthrough expects robot_base cloud, got {cloud.frame.value}")
    z = cloud.points[:, 2]
    mask = (z >= z_min) & (z <= z_max)
    return PointCloud(cloud.points[mask], cloud.frame, cloud.stamp)


@dataclass(frozen=True)
class Costmap2D:
    """Local occupancy grid: origin is the metric position of cell (0, 0)'s corner."""

    origin: np.ndarray  # (2,) meters, robot base frame
    resolution: float  # meters per cell
    cells: np.ndarray  # (width, height) uint8 of FREE/OCCUPIED/INFLATED

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64).reshape(2))
        if self.resolution <= 0:
            raise InvalidGrid(f"resolution must be positive, got {self.resolution}")
        cells = np.asarray(self.cells, dtype=np.uint8)
        if cells.ndim != 2 or cells.shape[0] == 0 or cells.shape[1] == 0:
            raise InvalidGrid(f"grid must be 2D and non-empty, got shape {cells.shape}")
        object.__setattr__(self, "cells", cells)

    @property
    def width(self) -> int:
        return self.cells.shape[0]

    @property
    def height(self) -> int:
        return self.cells.shape[1]

    def cell_centers(self, mask: np.ndarray) -> np.ndarray:
        """Metric centers of the cells selected by a boolean mask, as (N, 2)."""
        ix, iy = np.nonzero(mask)
        return self.origin + (np.stack([ix, iy], axis=1) + 0.5) * self.resolution


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


# Absolute slack (meters) on the inflation disk boundary. Keeps cells at an
# exact multiple of the resolution (e.g. r_inf = 7 cells) inside the disk
# despite rounding in r_inf / resolution.
_DISK_EDGE_TOL = 1e-9


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


def nonfree_centers(costmap: Costmap2D) -> np.ndarray:
    """Metric centers of all Occupied and Inflated cells, as (N, 2)."""
    return costmap.cell_centers(costmap.cells != FREE)


def costmap_to_csv(costmap: Costmap2D) -> str:
    """CSV snapshot: header with grid metadata, then one row per y (top first)."""
    lines = [
        f"# origin_x_m={costmap.origin[0]:.6f} origin_y_m={costmap.origin[1]:.6f} "
        f"resolution_m={costmap.resolution:.6f} width={costmap.width} height={costmap.height}"
    ]
    for iy in range(costmap.height - 1, -1, -1):
        lines.append(",".join(str(int(v)) for v in costmap.cells[:, iy]))
    return "\n".join(lines) + "\n"
