"""The flat-index costmap path and the float rotation check against the full-grid code.

``tests/parent_costmap.py`` keeps the numpy versions of ``inflate``,
``Costmap2D.cell_centers``, ``planner._repulsive_terms`` and
``geometry._check_rotation``. The cells, centers, forces and potentials here
must match them bit for bit, and the rotation check must accept and refuse
the same matrices.
"""

import math

import numpy as np
import pytest

import parent_costmap as parent
from crossnav import planner
from crossnav.geometry import FrameId, InvalidRotation, PointCloud, RigidTransform, _check_rotation
from crossnav.perception import FREE, OCCUPIED, Costmap2D, build_costmap, inflate
from crossnav.planner import ApfParams, potential, repulsive_force

# (width, height): square, both non-square orientations, and single rows and columns
SHAPES = [(100, 100), (37, 23), (23, 37), (64, 17), (1, 9), (9, 1), (2, 2)]
RESOLUTIONS = [0.05, 0.07, 0.1]


def _grid(cells, res, origin=(-1.0, -2.5)):
    return Costmap2D(np.asarray(origin, dtype=np.float64), res, np.asarray(cells, dtype=np.uint8))


def _occupancy(rng, shape):
    """Seeded occupancies: empty, edges and corners, lone corners, sparse, dense blobs."""
    w, h = shape
    yield np.zeros(shape, dtype=np.uint8)
    edges = np.zeros(shape, dtype=np.uint8)
    edges[0, :] = edges[-1, :] = edges[:, 0] = edges[:, -1] = OCCUPIED
    yield edges
    for i, j in ((0, 0), (0, h - 1), (w - 1, 0), (w - 1, h - 1)):
        corner = np.zeros(shape, dtype=np.uint8)
        corner[i, j] = OCCUPIED
        yield corner
    for p in (0.005, 0.03, 0.2):
        yield (rng.random(shape) < p).astype(np.uint8)
    blobs = np.zeros(shape, dtype=np.uint8)
    ii, jj = np.meshgrid(np.arange(w), np.arange(h), indexing="ij")
    for _ in range(3):
        ci, cj, rad = rng.uniform(0, w), rng.uniform(0, h), rng.uniform(1.0, max(1.5, 0.4 * max(w, h)))
        blobs[((ii - ci) ** 2 + (jj - cj) ** 2 < rad * rad) & (rng.random(shape) < 0.8)] = OCCUPIED
    yield blobs


def _costmaps(seed=0):
    rng = np.random.default_rng(seed)
    for shape in SHAPES:
        for res in RESOLUTIONS:
            for cells in _occupancy(rng, shape):
                yield _grid(cells, res, origin=rng.uniform(-3.0, 1.0, size=2))


def _radii(res, rng):
    """Below the pitch, at exact multiples of it, and between them."""
    return [0.0, 0.4 * res, res * (1 - 1e-12), res, 2 * res, 3 * res, 7 * res] + list(
        rng.uniform(res, 8 * res, size=3)
    )


class TestInflateMatchesTheFullGridCode:
    def test_cells_are_bitwise_equal(self):
        rng = np.random.default_rng(1)
        compared = occupied_edges = 0
        for cm in _costmaps():
            for r_inf in _radii(cm.resolution, rng):
                got, want = inflate(cm, r_inf), parent.inflate(cm, r_inf)
                assert got.cells.tobytes() == want.cells.tobytes(), (cm.cells.shape, r_inf)
                assert got.origin.tobytes() == want.origin.tobytes()
                assert got.resolution == want.resolution
                compared += 1
                occupied_edges += bool(got.cells[[0, -1], :].any() or got.cells[:, [0, -1]].any())
        assert compared > 1500 and occupied_edges > 1000

    def test_cell_centers_are_bitwise_equal(self):
        rng = np.random.default_rng(2)
        for cm in _costmaps(seed=2):
            for mask in (cm.cells != FREE, rng.random(cm.cells.shape) < 0.3):
                got = cm.cell_centers(mask)
                want = parent.cell_centers(cm, mask)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _robot_positions(cm, d0, rng):
    """Inside the grid, near and on its edges, and outside it, so that the
    d0 window is clipped on every side; plus positions that put a non-free
    cell's center within a few ulps of d0 along an axis, where the window's
    rounding pad matters."""
    lo = cm.origin
    hi = cm.origin + np.array(cm.cells.shape) * cm.resolution
    span = hi - lo
    out = [lo + span * rng.random(2) for _ in range(4)]
    out += [lo + span * rng.uniform(-0.2, 1.2, size=2) for _ in range(4)]
    out += [lo - 0.5 * d0, hi + 0.5 * d0, lo - 2 * d0, np.array([lo[0], hi[1]]), (lo + hi) / 2]
    centers = parent.nonfree_centers(cm)
    if len(centers):
        for c in centers[rng.integers(len(centers), size=2)]:
            for axis in (0, 1):
                for sign in (-1.0, 1.0):
                    for k in (-1, 0, 1):
                        p = c.copy()
                        p[axis] += sign * d0
                        p[axis] = p[axis] + k * math.ulp(p[axis])
                        out.append(p)
    return out


class TestRepulsionMatchesTheFullGridCode:
    def test_terms_forces_and_potentials_are_bitwise_equal(self, monkeypatch):
        rng = np.random.default_rng(3)
        cases = []
        for n, cm in enumerate(_costmaps(seed=3)):
            if n % 3:  # a third of the grids keeps the test short
                continue
            grid = inflate(cm, 2.5 * cm.resolution)
            for d0 in (0.3, 1.0, float(rng.uniform(0.05, 2.0))):
                for robot in _robot_positions(grid, d0, rng):
                    cases.append((robot, grid, d0))
        goal = np.array([3.0, 0.4])

        def run():
            out = []
            for robot, grid, d0 in cases:
                params = ApfParams(d0=d0)
                f = repulsive_force(robot, grid, params.k_rep, d0)
                u = potential(robot, goal, grid, params)
                out.append((planner._repulsive_terms(robot, grid, d0), f.fx, f.fy, u))
            return out

        got = run()
        monkeypatch.setattr(planner, "_repulsive_terms", parent._repulsive_terms)
        want = run()

        in_range = 0
        for (g_terms, *g_vals), (w_terms, *w_vals), (robot, grid, d0) in zip(got, want, cases):
            where = (grid.cells.shape, grid.resolution, robot.tolist(), d0)
            assert (g_terms is None) == (w_terms is None), where
            if g_terms is not None:
                in_range += 1
                for g, w in zip(g_terms, w_terms):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), where
            # compared as bytes, so that -0.0 and NaN compare exactly
            assert np.array(g_vals).tobytes() == np.array(w_vals).tobytes(), where
        assert len(cases) > 5000 and in_range > 2000

    def test_non_finite_robot_or_radius_is_out_of_range(self):
        cm = inflate(_grid(np.eye(20, dtype=np.uint8), 0.05), 0.1)
        for robot, d0 in (
            ((math.nan, 0.0), 1.0),
            ((math.inf, 0.0), 1.0),
            ((0.0, -math.inf), 1.0),
            ((0.0, 0.0), math.nan),
            ((math.inf, 0.0), math.inf),
        ):
            assert planner._repulsive_terms(robot, cm, d0) is None
            assert parent._repulsive_terms(robot, cm, d0) is None
        got = planner._repulsive_terms((0.0, 0.0), cm, math.inf)
        want = parent._repulsive_terms((0.0, 0.0), cm, math.inf)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _accepts(check, m):
    try:
        with np.errstate(invalid="ignore"):  # the array code's matmul warns on NaN
            out = check(m)
    except InvalidRotation:
        return False
    assert out.dtype == np.float64 and out.shape == (3, 3)
    return True


class TestRotationCheckMatchesTheArrayCode:
    def test_same_decisions(self):
        rng = np.random.default_rng(4)
        cases = []
        for _ in range(200):
            rot = _random_rotation(rng)
            cases += [
                (rot, True),
                (rot + 1e-12 * rng.normal(size=(3, 3)), True),
                (rot * (1 + 1e-6), False),
                (rot @ np.diag([1.0, 1.0, -1.0]), False),  # a reflection
            ]
            for bad in (math.nan, math.inf, -math.inf):
                m = rot.copy()
                m[tuple(rng.integers(3, size=2))] = bad
                cases.append((m, False))
        for m, expected in cases:
            assert _accepts(_check_rotation, m) == _accepts(parent._check_rotation, m) == expected

    def test_every_entry_may_be_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            for idx in np.ndindex(3, 3):
                m = np.eye(3)
                m[idx] = bad
                assert not _accepts(_check_rotation, m)
                assert not _accepts(parent._check_rotation, m)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3), (9,), (3, 3, 1), (1, 3, 3), ()])
    def test_wrong_shapes_are_refused_alike(self, shape):
        m = np.ones(shape)
        for check in (_check_rotation, parent._check_rotation):
            with pytest.raises(InvalidRotation, match="must be 3x3"):
                check(m)

    def test_returns_the_float_array(self):
        rot = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
        got, want = _check_rotation(rot), parent._check_rotation(rot)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_translations_and_points_refuse_non_finite_values(bad):
    for i in range(3):
        t = np.zeros(3)
        t[i] = bad
        with pytest.raises(ValueError, match="translation must be finite"):
            RigidTransform(np.eye(3), t, FrameId.ROBOT_BASE, FrameId.WORLD)
        pts = np.ones((4, 3))
        pts[2, i] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PointCloud(pts, FrameId.WORLD)


class TestMemoryIsStampedStraightIntoTheGrid:
    """The band and the memory points marked one after the other give the map of one merged cloud."""

    @staticmethod
    def _points(rng, n, columns, res, origin, shape):
        """Points over and around the grid; a quarter of them on cell edges, some on its bounds."""
        w, h = shape
        lo, hi = np.asarray(origin) - 3 * res, np.asarray(origin) + (np.array([w, h]) + 3) * res
        pts = rng.uniform(np.r_[lo, -1.0][:columns], np.r_[hi, 1.0][:columns], size=(n, columns))
        edges = rng.random(n) < 0.25
        cells = rng.integers(-2, max(w, h) + 3, size=(n, 2))
        pts[edges, :2] = np.asarray(origin) + cells[edges] * res
        return pts

    def test_same_cells_as_the_merged_cloud(self):
        rng = np.random.default_rng(20261021)
        kinds = set()
        for trial in range(600):
            shape = SHAPES[trial % len(SHAPES)]
            res = RESOLUTIONS[trial % len(RESOLUTIONS)]
            origin = tuple(rng.uniform(-3.0, 1.0, size=2))
            n_band, n_memory = (int(rng.integers(0, 3)) * int(rng.integers(0, 400)) for _ in range(2))
            band = PointCloud(self._points(rng, n_band, 3, res, origin, shape), FrameId.ROBOT_BASE)
            memory = None if trial % 7 == 0 else self._points(rng, n_memory, 2, res, origin, shape)
            got = build_costmap(band, origin, res, *shape, memory)
            want = parent.merged_costmap(band, memory, origin, res, *shape)
            assert got.cells.tobytes() == want.cells.tobytes(), f"trial {trial}"
            assert got.origin.tobytes() == want.origin.tobytes() and got.resolution == want.resolution
            kinds.add((n_band > 0, "none" if memory is None else len(memory) > 0))
        assert kinds == {(b, m) for b in (False, True) for m in ("none", False, True)}
