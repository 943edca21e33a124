"""Height-band filtering, occupancy building, and disk inflation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossnav.geometry import FrameId, PointCloud
from crossnav.perception import (
    FREE,
    INFLATED,
    OCCUPIED,
    Costmap2D,
    InvalidGrid,
    build_costmap,
    inflate,
    nonfree_centers,
    passthrough_filter,
)


def grid(cells, origin=(0.0, 0.0), res=0.05):
    return Costmap2D(np.asarray(origin, dtype=float), res, np.asarray(cells, dtype=np.uint8))


def brute_force_inflate(costmap: Costmap2D, r_inf: float, tol: float = 1e-9) -> np.ndarray:
    """All-pairs reference: a free cell is inflated iff some occupied cell
    center lies within r_inf (plus boundary slack) of its center."""
    cells = costmap.cells.copy()
    occ = np.argwhere(costmap.cells == OCCUPIED)
    if occ.shape[0] == 0:
        return cells
    for ix in range(costmap.width):
        for iy in range(costmap.height):
            if cells[ix, iy] != FREE:
                continue
            d = np.hypot(occ[:, 0] - ix, occ[:, 1] - iy) * costmap.resolution
            if np.any(d <= r_inf + tol):
                cells[ix, iy] = INFLATED
    return cells


class TestPassthrough:
    def test_keeps_band_inclusive(self):
        pts = np.array([[0, 0, 0.019], [0, 0, 0.02], [0, 0, 0.3], [0, 0, 0.5], [0, 0, 0.501]])
        cloud = PointCloud(pts, FrameId.ROBOT_BASE)
        kept = passthrough_filter(cloud, 0.02, 0.5)
        assert kept.points.shape[0] == 3
        assert kept.points[:, 2].tolist() == [0.02, 0.3, 0.5]
        assert kept.frame is FrameId.ROBOT_BASE

    def test_preserves_order(self, rng):
        pts = rng.uniform(-1, 1, size=(200, 3))
        kept = passthrough_filter(PointCloud(pts, FrameId.ROBOT_BASE), -0.5, 0.5)
        mask = (pts[:, 2] >= -0.5) & (pts[:, 2] <= 0.5)
        assert np.array_equal(kept.points, pts[mask])

    def test_empty_in_empty_out(self):
        kept = passthrough_filter(PointCloud.empty(FrameId.ROBOT_BASE), 0.0, 1.0)
        assert len(kept) == 0


class TestBuildCostmap:
    def test_floor_indexing(self):
        cloud = PointCloud(np.array([[0.26, 0.09, 0.0]]), FrameId.ROBOT_BASE)
        cm = build_costmap(cloud, (0.0, 0.0), 0.1, 5, 5)
        assert cm.cells[2, 0] == OCCUPIED
        assert int((cm.cells == OCCUPIED).sum()) == 1

    def test_point_on_boundary_goes_up(self):
        # floor((0.1 - 0) / 0.1) = 1: boundary points land in the upper cell
        cloud = PointCloud(np.array([[0.1, 0.0, 0.0]]), FrameId.ROBOT_BASE)
        cm = build_costmap(cloud, (0.0, 0.0), 0.1, 5, 5)
        assert cm.cells[1, 0] == OCCUPIED

    def test_out_of_bounds_ignored(self):
        pts = np.array([[-0.01, 0.0, 0.0], [0.51, 0.0, 0.0], [0.0, 0.9, 0.0]])
        cm = build_costmap(PointCloud(pts, FrameId.ROBOT_BASE), (0.0, 0.0), 0.1, 5, 5)
        assert not (cm.cells != FREE).any()

    def test_empty_cloud_all_free(self):
        cm = build_costmap(PointCloud.empty(FrameId.ROBOT_BASE), (0.0, 0.0), 0.1, 4, 6)
        assert cm.cells.shape == (4, 6)
        assert not (cm.cells != FREE).any()

    def test_invalid_grid_rejected(self):
        with pytest.raises(InvalidGrid):
            build_costmap(PointCloud.empty(FrameId.ROBOT_BASE), (0.0, 0.0), 0.0, 4, 4)
        with pytest.raises(InvalidGrid):
            build_costmap(PointCloud.empty(FrameId.ROBOT_BASE), (0.0, 0.0), 0.1, 0, 4)

    @given(
        x=st.floats(0.0, 0.499),
        y=st.floats(0.0, 0.499),
    )
    def test_occupied_cell_contains_point(self, x, y):
        cm = build_costmap(
            PointCloud(np.array([[x, y, 0.0]]), FrameId.ROBOT_BASE), (0.0, 0.0), 0.05, 10, 10
        )
        ix, iy = np.argwhere(cm.cells == OCCUPIED)[0]
        assert ix * 0.05 <= x < (ix + 1) * 0.05
        assert iy * 0.05 <= y < (iy + 1) * 0.05


class TestInflate:
    def test_matches_brute_force_on_random_grids(self, rng):
        for _ in range(10):
            w, h = rng.integers(3, 24, size=2)
            cells = np.where(rng.random((w, h)) < 0.15, OCCUPIED, FREE).astype(np.uint8)
            r = float(rng.choice([0.0, 0.1, 0.35]))
            cm = grid(cells)
            assert np.array_equal(inflate(cm, r).cells, brute_force_inflate(cm, r))

    def test_occupied_cells_are_preserved(self):
        cells = np.zeros((9, 9), dtype=np.uint8)
        cells[4, 4] = OCCUPIED
        out = inflate(grid(cells), 0.15)
        assert out.cells[4, 4] == OCCUPIED
        assert (out.cells == OCCUPIED).sum() == 1

    def test_exact_radius_multiple_included(self):
        # r_inf an exact number of cells: the boundary ring must be inside
        cells = np.zeros((15, 15), dtype=np.uint8)
        cells[7, 7] = OCCUPIED
        out = inflate(grid(cells), 0.35)  # 7 cells at res 0.05
        assert out.cells[0, 7] == INFLATED
        assert out.cells[14, 7] == INFLATED

    def test_zero_radius_is_identity(self):
        cells = np.zeros((5, 5), dtype=np.uint8)
        cells[2, 2] = OCCUPIED
        out = inflate(grid(cells), 0.0)
        assert np.array_equal(out.cells, cells)

    def test_idempotent(self, rng):
        cells = np.where(rng.random((20, 20)) < 0.1, OCCUPIED, FREE).astype(np.uint8)
        once = inflate(grid(cells), 0.2)
        twice = inflate(once, 0.2)
        assert np.array_equal(once.cells, twice.cells)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            inflate(grid(np.zeros((3, 3), dtype=np.uint8)), -0.1)

    def test_input_never_mutated(self):
        cells = np.zeros((7, 7), dtype=np.uint8)
        cells[3, 3] = OCCUPIED
        cm = grid(cells)
        inflate(cm, 0.2)
        assert (cm.cells == OCCUPIED).sum() == 1
        assert not (cm.cells == INFLATED).any()


class TestCostmapViews:
    def test_cell_centers(self):
        cells = np.zeros((4, 4), dtype=np.uint8)
        cells[1, 2] = OCCUPIED
        cm = grid(cells, origin=(-0.1, 0.3), res=0.2)
        centers = nonfree_centers(cm)
        np.testing.assert_allclose(centers, [[-0.1 + 0.3, 0.3 + 0.5]])
