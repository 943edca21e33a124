"""Robot-branch perception: height-band filtering and the inflated local costmap.

The costmap lives in the robot base frame. Cells are indexed ``[ix, iy]``
with ``ix = floor((x - origin_x) / resolution)``, so the array shape is
(width, height).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

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
    return PointCloud(cloud.points[mask], cloud.frame)


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
        """Metric centers of the cells selected by a boolean mask, as (N, 2), row-major."""
        ix, iy = np.divmod(np.flatnonzero(mask), np.shape(mask)[1])
        return self.origin + (np.stack([ix, iy], axis=1) + 0.5) * self.resolution


def build_costmap(
    cloud: PointCloud,
    origin,
    resolution: float,
    width: int,
    height: int,
    extra_xy: Optional[np.ndarray] = None,
) -> Costmap2D:
    """Project points onto the XY plane and mark their cells Occupied.

    ``extra_xy`` is an (N, 2) array of further points in the cloud's frame
    (the planner's memory of recent cells), marked the same way without
    being merged into the cloud: marking is order-free, so the map is that
    of one cloud holding both. Points outside the grid bounds are ignored.
    Each axis is worked as a column on its own, with the arithmetic of
    ``floor((xy - origin) / resolution)``.
    """
    if resolution <= 0 or width == 0 or height == 0:
        raise InvalidGrid(
            f"invalid grid spec: resolution={resolution}, width={width}, height={height}"
        )
    origin = np.asarray(origin, dtype=np.float64).reshape(2)
    ox, oy = origin.tolist()
    cells = np.zeros((width, height), dtype=np.uint8)
    flat = cells.reshape(-1)
    for xy in (cloud.points, extra_xy):
        if xy is None or xy.shape[0] == 0:
            continue
        ix = np.floor((xy[:, 0] - ox) / resolution).astype(np.int64)
        iy = np.floor((xy[:, 1] - oy) / resolution).astype(np.int64)
        inside = ix.view(np.uint64) < width  # a negative index wraps above any width
        inside &= iy.view(np.uint64) < height
        ix *= height
        ix += iy
        flat[ix[inside]] = OCCUPIED
    return Costmap2D(origin, resolution, cells)


# Absolute slack (meters) on the inflation disk boundary. Keeps cells at an
# exact multiple of the resolution (e.g. r_inf = 7 cells) inside the disk
# despite rounding in r_inf / resolution.
_DISK_EDGE_TOL = 1e-9


@functools.lru_cache(maxsize=16)
def _disk_offsets(r_inf: float, resolution: float, height: int):
    """The inflation disk's radius r in cells, and the offsets of the cells whose
    centers lie within the disk as flat indices into a grid of ``height + 2r``
    columns."""
    r = int(np.floor((r_inf + _DISK_EDGE_TOL) / resolution))
    di = np.arange(-r, r + 1)
    dist_m = np.hypot(di[:, None], di[None, :]) * resolution
    dx, dy = np.nonzero(dist_m <= r_inf + _DISK_EDGE_TOL)
    return r, (dx - r) * (height + 2 * r) + (dy - r)


def inflate(costmap: Costmap2D, r_inf: float) -> Costmap2D:
    """Mark Free cells within r_inf (center to center, Euclidean) of an Occupied cell.

    Occupied cells are unchanged; idempotent for a fixed radius. Occupancy is
    sparse on these grids, so the cached disk is stamped onto each Occupied
    cell rather than run as a dense morphology pass: the stamps go into a
    bool grid padded by the disk radius r on every side, as flat offsets
    ``di * (height + 2r) + dj``, so no stamp leaves it and none needs a
    bounds test; the unpadded middle is the reach.
    """
    if r_inf < 0:
        raise ValueError(f"inflation radius must be non-negative, got {r_inf}")
    cells = costmap.cells.copy()
    occupied = np.flatnonzero(cells == OCCUPIED)
    if occupied.size == 0 or r_inf + _DISK_EDGE_TOL < costmap.resolution:
        # nothing to stamp, or no neighbor center is closer than one cell pitch
        return Costmap2D(costmap.origin, costmap.resolution, cells)
    width, height = cells.shape
    r, disk = _disk_offsets(r_inf, costmap.resolution, height)
    ix, iy = np.divmod(occupied, height)
    padded = np.zeros((width + 2 * r, height + 2 * r), dtype=bool)
    padded.reshape(-1)[((ix + r) * (height + 2 * r) + (iy + r))[:, None] + disk] = True
    cells[padded[r : r + width, r : r + height] & (costmap.cells == FREE)] = INFLATED
    return Costmap2D(costmap.origin, costmap.resolution, cells)


def nonfree_centers(costmap: Costmap2D) -> np.ndarray:
    """Metric centers of all Occupied and Inflated cells, as (N, 2)."""
    return costmap.cell_centers(costmap.cells != FREE)
