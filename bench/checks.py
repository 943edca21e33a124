"""Correctness checks of the benchmark's episodes, made apart from the program.

Each check returns a list of failure messages; an empty list means it held.
The checks read the trace CSV text and the scenario YAML themselves, and
the depth check casts its own rays one pixel at a time, so none of them
reuses the code path it checks.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

TERMINAL_EVENTS = ("goal", "stalled", "timeout")
NUMERIC_COLUMNS = (
    "t", "robot_x", "robot_y", "robot_theta", "human_x", "human_y", "A", "v_x", "v_y", "w_z",
)
# trace values are printed with 3 (time) and 6 (poses) decimals
_T_TOL = 6e-4
_XY_TOL = 2e-6


class Trace:
    """The rows of one trace CSV, by column name."""

    def __init__(self, text: str):
        lines = text.rstrip("\n").split("\n")
        self.header = lines[0].split(",")
        self.rows = [line.split(",") for line in lines[1:]]
        self._col = {name: i for i, name in enumerate(self.header)}

    def column(self, name):
        i = self._col[name]
        return [row[i] for row in self.rows]

    def floats(self, name):
        return [float(v) for v in self.column(name)]

    def events(self):
        return [[e for e in cell.split("|") if e] for cell in self.column("event")]


def check_trace(text: str, scenario: dict, dt: float, goal_tolerance: float, report) -> list:
    """Invariants every episode's trace must hold.

    ``scenario`` is the raw YAML mapping; ``report`` the episode's
    ``EpisodeReport``.
    """
    fails = []
    tr = Trace(text)
    if not tr.rows:
        return ["trace has no rows"]
    if any(len(row) != len(tr.header) for row in tr.rows):
        fails.append("a row has the wrong number of fields")
        return fails

    cols = {name: tr.floats(name) for name in NUMERIC_COLUMNS}
    depth = [float(v) for v in tr.column("min_roi_depth") if v]
    if not all(math.isfinite(v) for values in cols.values() for v in values + depth):
        fails.append("non-finite value in trace")

    t = cols["t"]
    bad_t = [i for i, ti in enumerate(t) if abs(ti - i * dt) > _T_TOL]
    if bad_t:
        fails.append(f"time does not advance by dt={dt} per row (first at row {bad_t[0]})")

    scene = scenario["scene"]
    lo, hi = scene["corridor_min_m"], scene["corridor_max_m"]
    for agent in ("robot", "human"):
        xs, ys = cols[agent + "_x"], cols[agent + "_y"]
        outside = [
            i for i, (x, y) in enumerate(zip(xs, ys))
            if not (lo[0] - _XY_TOL <= x <= hi[0] + _XY_TOL and lo[1] - _XY_TOL <= y <= hi[1] + _XY_TOL)
        ]
        if outside:
            fails.append(f"{agent} outside the corridor at row {outside[0]}")

    events = tr.events()
    terminal = [(i, e) for i, evs in enumerate(events) for e in evs if e in TERMINAL_EVENTS]
    if len(terminal) != 1 or terminal[0][0] != len(events) - 1:
        fails.append(f"expected one terminal event on the last row, found {terminal}")
    elif terminal[0][1] != report.status.value:
        fails.append(f"terminal event {terminal[0][1]} but report says {report.status.value}")
    elif terminal[0][1] == "goal":
        agent = "human" if report.condition.value == "unassisted" else "robot"
        gx, gy = scene["goal_m"]
        dist = math.hypot(cols[agent + "_x"][-1] - gx, cols[agent + "_y"][-1] - gy)
        if dist > goal_tolerance + _XY_TOL:
            fails.append(f"goal reported but the {agent} is {dist:.4f} m from the goal")

    hits = [e.split(":") for evs in events for e in evs if e.startswith("collision:")]
    ground = sum(1 for h in hits if h[1] == "ground")
    overhead = sum(1 for h in hits if h[1] == "overhead")
    if (ground, overhead) != (report.collisions_ground, report.collisions_overhead):
        fails.append(
            f"report counts ground={report.collisions_ground} overhead={report.collisions_overhead} "
            f"but the trace has {ground} and {overhead} collision events"
        )
    return fails


def robot_never_moves(text: str) -> list:
    tr = Trace(text)
    poses = set(zip(tr.column("robot_x"), tr.column("robot_y"), tr.column("robot_theta")))
    return [] if len(poses) == 1 else [f"robot pose changes ({len(poses)} distinct poses)"]


def never_human_source(text: str) -> list:
    n = Trace(text).column("source").count("human")
    return [] if n == 0 else [f"{n} rows with source human"]


# ---------------------------------------------------------------------------
# workload checks


def check_study(reports, texts) -> list:
    """The study's three claims as means over the workload's seeds.

    ``reports`` and ``texts`` map (scenario, condition, seed) to the episode
    report and trace text. Thresholds are those of the acceptance test.
    """
    fails = []

    def mean(scenario, condition, field):
        return statistics.fmean(
            getattr(r, field) for (s, c, _), r in reports.items() if s == scenario and c == condition
        )

    una = mean("canonical", "unassisted", "collisions_total")
    single = mean("canonical", "singleview", "collisions_total")
    cross = mean("canonical", "crossview", "collisions_total")
    if not (una - single >= 0.3 and single - cross >= 0.3):
        fails.append(f"mean collisions do not fall: unassisted {una}, singleview {single}, crossview {cross}")
    single_over = mean("canonical", "singleview", "collisions_overhead")
    cross_over = mean("canonical", "crossview", "collisions_overhead")
    if single_over < 1.0:
        fails.append(f"singleview mean overhead collisions {single_over} < 1.0")
    if cross_over > 0.3:
        fails.append(f"crossview mean overhead collisions {cross_over} > 0.3")
    bent_over = mean("canonical_bend", "crossview", "collisions_overhead")
    if not bent_over > cross_over:
        fails.append(f"bent crossview overhead {bent_over} not above upright {cross_over}")
    for (s, c, seed), text in texts.items():
        if c == "singleview":
            fails += [f"{s} {c} seed {seed}: {m}" for m in never_human_source(text)]
        if c == "unassisted":
            fails += [f"{s} {c} seed {seed}: {m}" for m in robot_never_moves(text)]
    return fails


def check_override(digests, text: str, scenario: dict) -> list:
    """hanging_lamp under crossview: one replayed episode, one clean override.

    ``digests`` maps each episode to its trace's sha256; ``text`` is one
    of the traces.
    """
    fails = []
    if len(set(digests.values())) != 1:
        fails.append(f"the seeds wrote {len(set(digests.values()))} different traces, not one")
    tr = Trace(text)
    a = tr.column("A")
    source = tr.column("source")
    override_rows = [i for i, v in enumerate(a) if v == "1"]
    if not override_rows:
        fails.append("no row has A=1")
    elif "apf" not in source[override_rows[-1] + 1 : -1]:
        fails.append("control does not return to apf before the goal")
    scene = scenario["scene"]
    lamp = next(ob for ob in scene["obstacles"] if ob["kind"] == "overhead")
    clearance = lamp["radius_m"] + scene["body_radius_m"]
    lx, ly = lamp["center_m"]
    closest = min(
        math.hypot(x - lx, y - ly) for x, y in zip(tr.floats("human_x"), tr.floats("human_y"))
    )
    if closest < clearance - _XY_TOL:
        fails.append(f"human came {closest:.4f} m from the lamp axis, inside {clearance} m")
    return fails


# ---------------------------------------------------------------------------
# render calls against the schedule


def scheduled_ticks(last_t: float, dt: float, rate_hz: float) -> int:
    """Ticks of a task at ``rate_hz`` up to the last physics tick.

    The trace's last row is written after the physics step that started at
    ``last_t - dt``; every task due at or before that instant has run, since
    physics has the lowest priority at equal time stamps.
    """
    end_ns = round((last_t - dt) * 1e9)
    k = 0
    while round(k * 1e9 / rate_hz) <= end_ns:
        k += 1
    return k


def expected_renders(ends, configs) -> int:
    """Robot renders (one per planner tick) plus chest renders (one per chest tick).

    ``ends`` maps (scenario, condition, seed) to (last time stamp, rows) of
    each episode's trace.
    """
    total = 0
    for (scenario, condition, _), (last_t, _) in ends.items():
        if condition == "unassisted":
            continue
        sim = configs[scenario].sim
        total += scheduled_ticks(last_t, sim.dt, sim.planner_rate_hz)
        if condition == "crossview":
            total += scheduled_ticks(last_t, sim.dt, sim.chest_rate_hz)
    return total


# ---------------------------------------------------------------------------
# depth: a scalar ray cast written apart from crossnav.world

_EPS = 1e-12


def _slab(o, d, lo, hi):
    """Entry and exit parameters of a ray in one axis slab, or None for a miss."""
    if d == 0.0:
        return (-math.inf, math.inf) if lo <= o <= hi else None
    t1, t2 = (lo - o) / d, (hi - o) / d
    return (t1, t2) if t1 <= t2 else (t2, t1)


def ray_box(origin, d, lo, hi):
    near, far = -math.inf, math.inf
    for axis in range(3):
        span = _slab(origin[axis], d[axis], lo[axis], hi[axis])
        if span is None:
            return math.inf
        near, far = max(near, span[0]), min(far, span[1])
    if far < near or far <= _EPS:
        return math.inf
    return near if near > _EPS else far


def ray_cylinder(origin, d, center, radius, z1, z2):
    ox, oy, oz = origin
    dx, dy, dz = d
    px, py = ox - center[0], oy - center[1]
    best = math.inf
    a = dx * dx + dy * dy
    if a > _EPS:
        half_b = px * dx + py * dy
        disc = half_b * half_b - a * (px * px + py * py - radius * radius)
        if disc >= 0.0:
            for root in (-math.sqrt(disc), math.sqrt(disc)):
                t = (root - half_b) / a
                if t > _EPS and z1 <= oz + t * dz <= z2:
                    best = min(best, t)
    if dz != 0.0:
        for zc in (z1, z2):
            t = (zc - oz) / dz
            hx, hy = px + t * dx, py + t * dy
            if t > _EPS and hx * hx + hy * hy <= radius * radius:
                best = min(best, t)
    return best


def scalar_depth(obstacles, origin, rotation, intr, u, v):
    """Optical depth of pixel (u, v), or NaN with no hit inside (0, max_range]."""
    fx, fy, cx, cy = (float(x) for x in (intr.fx, intr.fy, intr.cx, intr.cy))
    ray = ((u - cx) / fx, (v - cy) / fy, 1.0)
    d = tuple(sum(rotation[r][k] * ray[k] for k in range(3)) for r in range(3))
    best = math.inf
    for ob in obstacles:
        z1, z2 = ob["z_span_m"]
        cx, cy = ob["center_m"]
        if ob.get("shape", "box") == "box":
            hx, hy = ob["half_extents_m"]
            t = ray_box(origin, d, (cx - hx, cy - hy, z1), (cx + hx, cy + hy, z2))
        else:
            t = ray_cylinder(origin, d, (cx, cy), ob["radius_m"], z1, z2)
        best = min(best, t)
    return best if 0.0 < best <= float(intr.max_range) else math.nan


def compare_depth(depth, obstacles, pose, intr, pixels, tol=1e-9) -> list:
    """Rendered depth at ``pixels`` against the scalar cast; messages for mismatches."""
    origin = tuple(float(x) for x in pose.translation)
    rotation = pose.rotation.tolist()
    fails = []
    for v, u in pixels:
        want = scalar_depth(obstacles, origin, rotation, intr, u, v)
        got = float(depth[v, u])
        same = (math.isnan(want) and math.isnan(got)) or abs(got - want) <= tol
        if not same:
            fails.append(f"pixel ({u}, {v}): rendered {got!r}, ray cast {want!r}")
    return fails


def sample_pixels(depth, rng, count):
    """Half the pixels among the rendered hits, the rest anywhere in the image."""
    h, w = depth.shape
    hits = np.argwhere(np.isfinite(depth))
    picks = []
    if len(hits):
        picks += [(int(v), int(u)) for v, u in hits[rng.choice(len(hits), size=count // 2)]]
    rows = rng.integers(0, h, size=count - len(picks))
    cols = rng.integers(0, w, size=count - len(picks))
    return picks + list(zip(rows.tolist(), cols.tolist()))
