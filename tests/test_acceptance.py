"""End-to-end checks of the stack's externally observable guarantees.

Each test pins a behavior of the assembled system rather than a unit:
arbitration exactness, planner force/potential consistency, inflation
against an all-pairs oracle, transform round-trips, the low/high viewpoint
split, batch condition trends, the bend-window failure mode, the sentinel
contract, trace determinism, and the override turn profile. Timed checks
assert their wall-clock budget so performance regressions fail loudly.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np

from crossnav.arbiter import ArbiterConfig, arbitrate, tick
from crossnav.geometry import (
    FrameId,
    PointCloud,
    RigidTransform,
    compose,
    invert,
    transform_points,
)
from crossnav.harness import (
    SweepSpec,
    command_columns,
    load_scenario,
    read_trace,
    run_sweep,
    summarize,
)
from crossnav.perception import (
    FREE,
    INFLATED,
    OCCUPIED,
    Costmap2D,
    build_costmap,
    inflate,
    nonfree_centers,
)
from crossnav.planner import (
    ApfParams,
    CommandSource,
    VelocityCommand,
    apf_force,
    potential,
)
from crossnav.sentinel import SentinelConfig, check_trigger
from crossnav.sim import (
    BendPose,
    Condition,
    chest_observation,
    robot_branch_observation,
    run_episode,
)
from crossnav.world import ObstacleKind


# ---------------------------------------------------------------------------
# arbitration: the override law is exact and never blends commands


class TestArbitrationExactness:
    def test_truth_table_is_exact_and_unmixed(self):
        start = time.perf_counter()
        cfg = ArbiterConfig()
        eps = cfg.epsilon
        now = 40.0
        stale_stamp = now - cfg.staleness_timeout - 1e-6
        for norm in (0.0, eps - 1e-9, eps, eps + 1e-9, 0.3):
            for planner_fresh in (True, False):
                planner_cmd = VelocityCommand(
                    0.25, 0.0, -0.4, now if planner_fresh else stale_stamp, CommandSource.APF
                )
                human_cmd = VelocityCommand(norm, 0.0, 0.0, now, CommandSource.HUMAN)
                expect = 1 if norm > eps else 0

                # the pure selection law: output is one input object, verbatim
                decision = arbitrate(planner_cmd, human_cmd, cfg)
                assert decision.a == expect
                assert decision.a in (0, 1)
                assert decision.selected is (human_cmd if expect else planner_cmd)

                # the same table through the staleness-aware tick path
                ticked = tick(planner_cmd, human_cmd, now, cfg)
                assert ticked.a == expect
                if expect:
                    assert ticked.selected.source is CommandSource.HUMAN
                    assert (ticked.selected.v_x, ticked.selected.w_z) == (norm, 0.0)
                elif planner_fresh:
                    assert ticked.selected.source is CommandSource.APF
                    assert (ticked.selected.v_x, ticked.selected.w_z) == (0.25, -0.4)
                else:
                    # planner silent and no override: a commanded stop, not a blend
                    vals = (ticked.selected.v_x, ticked.selected.v_y, ticked.selected.w_z)
                    assert vals == (0.0, 0.0, 0.0)
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# planner: the published force really is the negative gradient of the
# published scalar field


class TestPlannerFieldConsistency:
    def test_force_matches_declared_potential(self):
        start = time.perf_counter()
        rng = np.random.default_rng(987654)
        h = 1e-5
        checked = 0
        while checked < 100:
            params = ApfParams(
                k_att=float(rng.uniform(0.5, 2.0)),
                k_rep=float(rng.uniform(0.01, 0.10)),
                d0=float(rng.uniform(0.6, 1.4)),
            )
            obstacle_xy = rng.uniform(-2.4, 2.4, 2)
            cloud = PointCloud(np.array([[obstacle_xy[0], obstacle_xy[1], 0.1]]), FrameId.ROBOT_BASE)
            grid = build_costmap(cloud, (-2.5, -2.5), 0.05, 100, 100)
            center = nonfree_centers(grid)[0]
            goal = rng.uniform(-3.0, 3.0, 2)
            robot = rng.uniform(-2.9, 2.9, 2)
            d = float(np.hypot(robot[0] - center[0], robot[1] - center[1]))
            # stay clear of the two non-smooth radii: the sub-cell distance
            # clamp and the cutoff where the cell enters the repulsive range
            if d <= grid.resolution / 2 + 1e-3 or abs(d - params.d0) <= 1e-3:
                continue
            f = apf_force(robot, goal, grid, params)
            force = np.array([f.fx, f.fy])
            if np.linalg.norm(force) < 1e-3:
                continue  # relative error is meaningless at a force balance
            fd = np.empty(2)
            for i in range(2):
                hi = robot.copy()
                lo = robot.copy()
                hi[i] += h
                lo[i] -= h
                fd[i] = -(
                    potential(hi, goal, grid, params) - potential(lo, goal, grid, params)
                ) / (2.0 * h)
            err = float(np.linalg.norm(force - fd))
            assert err <= 1e-4 * float(np.linalg.norm(fd)), (robot, center, goal, params)
            checked += 1
        assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# costmap inflation vs. a vectorized all-pairs reference


def brute_disk_inflation(grid: Costmap2D, r_inf: float, tol: float = 1e-9) -> np.ndarray:
    """Reference: a free cell inflates iff any occupied center is within r_inf."""
    cells = grid.cells.copy()
    occ = np.argwhere(cells == OCCUPIED)
    if occ.shape[0] == 0:
        return cells
    ix, iy = np.nonzero(cells == FREE)
    d = np.hypot(ix[:, None] - occ[None, :, 0], iy[:, None] - occ[None, :, 1])
    hit = (d * grid.resolution <= r_inf + tol).any(axis=1)
    cells[ix[hit], iy[hit]] = INFLATED
    return cells


class TestInflationOracle:
    def test_matches_all_pairs_disk(self):
        start = time.perf_counter()
        rng = np.random.default_rng(24680)
        for _ in range(50):
            w = int(rng.integers(4, 65))
            hgt = int(rng.integers(4, 65))
            density = rng.uniform(0.02, 0.12)
            cells = np.where(rng.random((w, hgt)) < density, OCCUPIED, FREE).astype(np.uint8)
            grid = Costmap2D(rng.uniform(-2.0, 2.0, 2), 0.05, cells)
            for r_inf in (0.0, 0.1, 0.35):
                assert np.array_equal(
                    inflate(grid, r_inf).cells, brute_disk_inflation(grid, r_inf)
                ), (w, hgt, r_inf)
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# rigid transforms: compose/invert round-trips at tight tolerance


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestTransformRoundTrips:
    def test_compose_invert_identities(self):
        rng = np.random.default_rng(13579)
        eye = np.eye(3)
        for _ in range(1000):
            t1 = RigidTransform(
                _random_rotation(rng),
                rng.normal(scale=3.0, size=3),
                FrameId.ROBOT_BASE,
                FrameId.WORLD,
            )
            t2 = RigidTransform(
                _random_rotation(rng),
                rng.normal(scale=3.0, size=3),
                FrameId.WORLD,
                FrameId.PHYSICAL_DOG,
            )
            pts = PointCloud(rng.normal(scale=4.0, size=(20, 3)), FrameId.ROBOT_BASE)

            ident = compose(invert(t1), t1)
            assert np.max(np.abs(ident.rotation - eye)) <= 1e-9
            assert np.max(np.abs(ident.translation)) <= 1e-9

            back = transform_points(invert(t1), transform_points(t1, pts))
            assert np.max(np.abs(back.points - pts.points)) <= 1e-9

            chained = transform_points(t2, transform_points(t1, pts))
            direct = transform_points(compose(t2, t1), pts)
            assert np.max(np.abs(chained.points - direct.points)) <= 1e-9

            twice = invert(invert(t1))
            assert np.max(np.abs(twice.rotation - t1.rotation)) <= 1e-9
            assert np.max(np.abs(twice.translation - t1.translation)) <= 1e-9


# ---------------------------------------------------------------------------
# viewpoint split: hanging obstacles are invisible to the low branch but
# well sampled by the chest branch


class TestViewpointSplit:
    def test_overhead_hazard_invisible_low_visible_high(self):
        start = time.perf_counter()
        cfg = load_scenario("canonical")
        overhead_only = cfg.scene.only_kind(ObstacleKind.OVERHEAD)
        robot_pose = np.array([5.8, 1.0, 0.0])  # one meter short of the lamp
        human_pose = np.array([4.8, 1.0, 0.0])  # a leash length behind

        _, _, grid = robot_branch_observation(overhead_only, robot_pose, cfg.rig, cfg.perception)
        assert int(np.count_nonzero(grid.cells != FREE)) == 0

        _, cloud = chest_observation(
            overhead_only, human_pose, BendPose.UPRIGHT, cfg.rig
        )
        assert cloud.points.shape[0] >= 50
        # every return sits in the hazard band the human branch screens
        assert np.all(cloud.points[:, 2] >= cfg.safety.z_low)
        assert np.all(cloud.points[:, 2] <= cfg.safety.z_high)

        # noiseless sensing is exactly repeatable
        _, _, grid2 = robot_branch_observation(overhead_only, robot_pose, cfg.rig, cfg.perception)
        _, cloud2 = chest_observation(overhead_only, human_pose, BendPose.UPRIGHT, cfg.rig)
        assert np.array_equal(grid.cells, grid2.cells)
        assert np.array_equal(cloud.points, cloud2.points)
        assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# batch trends across the three assistance conditions


class TestConditionTrends:
    def test_twenty_seed_batch_reproduces_ordering(self, tmp_path):
        start = time.perf_counter()
        spec = SweepSpec(
            "canonical",
            (Condition.UNASSISTED, Condition.SINGLE_VIEW, Condition.CROSS_VIEW),
            tuple(range(20)),
            tmp_path,
        )
        reports = run_sweep(spec)
        elapsed = time.perf_counter() - start
        stats = summarize(reports)
        una = stats[Condition.UNASSISTED]
        single = stats[Condition.SINGLE_VIEW]
        cross = stats[Condition.CROSS_VIEW]

        assert una.mean_collisions - single.mean_collisions >= 0.3
        assert single.mean_collisions - cross.mean_collisions >= 0.3
        assert single.mean_overhead >= 1.0
        assert cross.mean_overhead <= 0.3
        assert not np.isnan(single.mean_time_s) and not np.isnan(cross.mean_time_s)
        # guarding the human adds caution, so the guarded condition is slower
        assert single.mean_time_s < cross.mean_time_s
        assert elapsed < 120.0


# ---------------------------------------------------------------------------
# bending the camera down forfeits the overhead view


class TestBendWindow:
    def test_bent_pass_collides_where_upright_clears(self, tmp_path):
        bent_cfg = load_scenario("canonical_bend")
        upright_cfg = dataclasses.replace(bent_cfg, bend_window_s=None)
        found = False
        for seed in range(20):
            bent = run_episode(bent_cfg, Condition.CROSS_VIEW, seed, tmp_path / "bent")
            if bent.collisions_overhead < 1:
                continue
            upright = run_episode(
                upright_cfg, Condition.CROSS_VIEW, seed, tmp_path / "upright"
            )
            if upright.collisions_overhead == 0:
                found = True
                break
        assert found, "no seed showed a bent-only overhead collision"


# ---------------------------------------------------------------------------
# sentinel: threshold strictness, debounce schedule, and non-interference


class TestSentinelContract:
    def test_trigger_threshold_is_strict(self):
        cfg = SentinelConfig(d_crit=1.2, debounce=0.5)
        assert check_trigger(1.2, 0.0, cfg, None) is None
        assert check_trigger(1.2 - 1e-9, 0.0, cfg, None) is not None
        assert check_trigger(1.2 + 1e-9, 0.0, cfg, None) is None
        assert check_trigger(None, 0.0, cfg, None) is None  # blank region

    def test_replayed_timeline_fires_on_schedule(self):
        cfg = SentinelConfig(d_crit=1.0, debounce=0.5)
        dips = [(0.25, 1.0), (1.75, 1.875), (3.0, 3.5)]

        def depth_at(t: float) -> float:
            return 0.8 if any(lo <= t <= hi for lo, hi in dips) else 2.0

        fired = []
        last = None
        for k in range(33):  # 0.0 .. 4.0 in exact eighth-second steps
            t = k * 0.125
            trig = check_trigger(depth_at(t), t, cfg, last)
            if trig is not None:
                fired.append(t)
                last = t
        # hand-derived: first sample of each dip, then every debounce period
        # while the dip persists (an age exactly equal to the debounce fires)
        assert fired == [0.25, 0.75, 1.75, 3.0, 3.5]

    def test_disabling_leaves_commands_identical(self, tmp_path):
        # the canonical course brings the forward view within d_crit of the
        # ground clutter, so the enabled runs actually announce
        cfg_on = load_scenario("canonical")
        cfg_off = dataclasses.replace(cfg_on, sentinel_enabled=False)
        for seed in (0, 1):
            on = run_episode(cfg_on, Condition.CROSS_VIEW, seed, tmp_path / "on")
            off = run_episode(cfg_off, Condition.CROSS_VIEW, seed, tmp_path / "off")
            assert on.announcements >= 1
            assert off.announcements == 0
            assert not Path(off.trace_path).with_suffix(".announcements.txt").exists()
            # the announcement path is observe-only: executed commands match
            assert command_columns(on.trace_path) == command_columns(off.trace_path)


# ---------------------------------------------------------------------------
# bit-for-bit repeatability of full episodes


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cases = [
            ("canonical", Condition.CROSS_VIEW, 3),
            ("canonical_bend", Condition.CROSS_VIEW, 5),
            ("hanging_lamp", Condition.SINGLE_VIEW, 1),
        ]
        for name, condition, seed in cases:
            cfg = load_scenario(name)
            first = run_episode(cfg, condition, seed, tmp_path / "a")
            second = run_episode(cfg, condition, seed, tmp_path / "b")
            a, b = Path(first.trace_path), Path(second.trace_path)
            assert a.name == b.name
            assert a.read_bytes() == b.read_bytes(), (name, condition, seed)
            side_a = a.with_suffix(".announcements.txt")
            side_b = b.with_suffix(".announcements.txt")
            assert side_a.exists() == side_b.exists()
            if side_a.exists():
                assert side_a.read_bytes() == side_b.read_bytes()


# ---------------------------------------------------------------------------
# override profile: one turn away, one opposite steer-back, then handback


def _sign_runs(values: np.ndarray):
    runs = []
    for s in np.sign(values).astype(int):
        if runs and runs[-1][0] == s:
            runs[-1][1] += 1
        else:
            runs.append([s, 1])
    return [(s, n) for s, n in runs]


class TestOverrideProfile:
    def test_turn_then_opposite_recovery_then_handback(self, tmp_path):
        cfg = load_scenario("hanging_lamp")
        report = run_episode(cfg, Condition.CROSS_VIEW, 0, tmp_path)
        data = read_trace(report.trace_path)
        src = np.array(data.source)

        idx = np.flatnonzero(src == "human")
        assert idx.size > 0
        assert np.all(np.diff(idx) == 1)  # exactly one contiguous override
        assert idx[0] > 0 and src[idx[0] - 1] == "apf"
        assert idx[-1] + 1 < len(src) and src[idx[-1] + 1] == "apf"

        runs = _sign_runs(data.v[idx, 2])
        turning = [(s, n) for s, n in runs if s != 0]
        assert len(turning) == 2, runs
        assert turning[0][0] == -turning[1][0]
        assert runs[0][0] != 0  # the evasive turn starts immediately
        assert runs[-1][0] != 0  # control returns right after the steer-back
