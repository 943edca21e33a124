"""Spans around the calls crossnav's engine makes into each layer.

The tracer wraps, from outside the package, the public names that
``crossnav.sim`` and ``crossnav.harness`` look up in their own module
namespaces, plus ``HumanBranch.update`` and ``RigidTransform`` construction
on their classes. Every wrapped call appends one span: its name, its start
and end (``time.perf_counter``), the index of the span that was open when
it began, and optionally one number read from its arguments or its result.
Spans stay in memory; ``layer_metrics`` turns the traced passes into the
per-layer figures. ``uninstall`` puts every original object back, so the
untraced passes run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np


def _valid_pixels(args, result):
    return int(np.count_nonzero(np.isfinite(result.depth)))


def _occupied_cells(args, result):
    return int(np.count_nonzero(result.cells == 1))  # perception.OCCUPIED


def _cloud_and_override(args, result):
    # HumanBranch.update(self, cloud, now): points seen, and whether the
    # branch asked for control (any non-zero command component)
    return len(args[1]), bool(result.v_x or result.v_y or result.w_z)


def _human_selected(args, result):
    return result.a


def _fired(args, result):
    return result is not None


def targets(sim, harness, geometry, human_branch):
    """(owner, attribute, span name, measure) for every traced call."""
    return [
        (sim, "run_episode", "run_episode", None),
        (harness, "run_episode", "run_episode", None),
        (harness, "load_scenario", "load_scenario", None),
        (sim, "robot_branch_observation", "robot_branch_observation", None),
        (sim, "chest_observation", "chest_observation", None),
        (sim, "robot_camera_pose", "robot_camera_pose", None),
        (sim, "chest_camera_pose", "chest_camera_pose", None),
        (sim, "step", "step", None),
        (sim, "detect_collisions", "detect_collisions", None),
        (sim, "unassisted_walker", "unassisted_walker", None),
        (sim, "render_depth", "render_depth", _valid_pixels),
        (sim, "deproject", "deproject", None),
        (sim, "transform_points", "transform_points", None),
        (sim, "compose", "compose", None),
        (sim, "optical_to_physical", "optical_to_physical", None),
        (geometry.RigidTransform, "__init__", "RigidTransform", None),
        (sim, "passthrough_filter", "passthrough_filter", None),
        (sim, "build_costmap", "build_costmap", _occupied_cells),
        (sim, "inflate", "inflate", None),
        (sim, "apf_force", "apf_force", None),
        (sim, "admittance_map", "admittance_map", None),
        (human_branch.HumanBranch, "update", "HumanBranch.update", _cloud_and_override),
        (sim, "arbiter_tick", "arbiter.tick", _human_selected),
        (sim, "roi_min_depth", "roi_min_depth", None),
        (sim, "check_trigger", "check_trigger", _fired),
        (sim, "describe", "describe", None),
        (sim, "frustum_summary", "frustum_summary", None),
    ]


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, target_list):
        self._targets = target_list
        self._saved = []
        self.spans = []  # [name, start, end, parent index, measured value]
        self._stack = []

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[1] = start
                stack.pop()
            if measure is not None:
                rec[4] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, measure in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, measure))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


# ---------------------------------------------------------------------------
# per-layer figures


#: per-call timings in ms: metric name -> (span name, parent span name or None, self time?)
PER_CALL_MS = {
    "world.render_robot_ms": ("render_depth", "robot_branch_observation", False),
    "world.render_chest_ms": ("render_depth", "chest_observation", False),
    "world.deproject_ms": ("deproject", None, False),
    "geometry.transform_points_ms": ("transform_points", None, False),
    "sim.robot_obs_self_ms": ("robot_branch_observation", None, True),
    "sim.chest_obs_self_ms": ("chest_observation", None, True),
    "sim.step_ms": ("step", None, False),
    "sim.collisions_ms": ("detect_collisions", None, False),
    "sim.walker_ms": ("unassisted_walker", None, False),
    "perception.passthrough_ms": ("passthrough_filter", None, False),
    "perception.build_costmap_ms": ("build_costmap", None, False),
    "perception.inflate_ms": ("inflate", None, False),
    "planner.apf_ms": ("apf_force", None, False),
    "planner.admittance_ms": ("admittance_map", None, False),
    "human_branch.update_ms": ("HumanBranch.update", None, False),
    "arbiter.tick_ms": ("arbiter.tick", None, False),
    "sentinel.roi_ms": ("roi_min_depth", None, False),
    "sentinel.frustum_ms": ("frustum_summary", None, False),
    "sentinel.describe_ms": ("describe", None, False),
    "harness.load_scenario_ms": ("load_scenario", None, False),
}

#: per-pass figures from one traced pass: metric name -> unit
PER_PASS = {
    "world.render_calls": "count",
    "world.render_share": "fraction",
    "world.valid_px_per_frame": "px",
    "geometry.transforms_built": "count",
    "sim.engine_self_s": "s",
    "sim.physics_ticks": "count",
    "perception.occupied_cells": "cells",
    "human_branch.cloud_points": "points",
    "human_branch.override_ticks": "count",
    "arbiter.human_selected": "count",
    "sentinel.fires": "count",
    "harness.load_calls": "count",
}

#: the percentiles a tail may be read at, highest first
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(samples) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    The ladder runs from 99.9 down to 75, so which one is read follows from
    the sample count alone. Below forty samples a tail would be no tail, and
    the median is given instead; with no samples, 0.
    """
    n = len(samples)
    if n == 0:
        return 0.0
    if n >= 40:
        cuts = statistics.quantiles(samples, n=1000, method="inclusive")
        for pct in _TAIL_LADDER:
            if n * (1.0 - pct / 100.0) >= 10.0:
                return cuts[int(round(pct * 10)) - 1]
    return statistics.median(samples)


class SpanTable:
    """Durations, self times and parents of one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_time = [rec[2] - rec[1] - c for rec, c in zip(spans, child)]

    def select(self, name, parent=None):
        spans = self.spans
        return [
            i
            for i, rec in enumerate(spans)
            if rec[0] == name and (parent is None or (rec[3] >= 0 and spans[rec[3]][0] == parent))
        ]

    def durations_ms(self, name, parent=None, self_only=False):
        if self_only:
            return [self.self_time[i] * 1e3 for i in self.select(name, parent)]
        return [(self.spans[i][2] - self.spans[i][1]) * 1e3 for i in self.select(name, parent)]

    def values(self, name):
        return [self.spans[i][4] for i in self.select(name)]


def pass_figures(table: SpanTable, pass_wall_s: float, setup_loads: int) -> dict:
    """The per-pass figures of one traced pass."""
    renders = table.select("render_depth")
    render_s = sum(table.spans[i][2] - table.spans[i][1] for i in renders)
    valid = table.values("render_depth")
    occupied = table.values("build_costmap")
    branch = table.values("HumanBranch.update")
    return {
        "world.render_calls": len(renders),
        "world.render_share": render_s / pass_wall_s,
        "world.valid_px_per_frame": statistics.fmean(valid) if valid else 0.0,
        "geometry.transforms_built": len(table.select("RigidTransform")),
        "sim.engine_self_s": sum(table.self_time[i] for i in table.select("run_episode")),
        "sim.physics_ticks": len(table.select("step")),
        "perception.occupied_cells": statistics.fmean(occupied) if occupied else 0.0,
        "human_branch.cloud_points": statistics.fmean(p for p, _ in branch) if branch else 0.0,
        "human_branch.override_ticks": sum(1 for _, asked in branch if asked),
        "arbiter.human_selected": sum(table.values("arbiter.tick")),
        "sentinel.fires": sum(1 for fired in table.values("check_trigger") if fired),
        "harness.load_calls": len(table.select("load_scenario")) + setup_loads,
    }


def layer_metrics(tables, pass_walls, setup_table: SpanTable) -> dict:
    """Per-layer metrics over the traced passes: {name: (value, unit)}.

    Per-call timings pool the samples of every traced pass (and, for
    ``load_scenario``, those of the traced set-up). Counts are those of the
    first traced pass, since every pass runs the same episodes; the two
    per-pass times are medians over the traced passes.
    """
    out = {}
    for metric, (name, parent, self_only) in PER_CALL_MS.items():
        samples = []
        for table in tables + [setup_table]:
            samples.extend(table.durations_ms(name, parent, self_only))
        out[metric] = (statistics.median(samples) if samples else 0.0, "ms")
        out[metric + ".tail"] = (tail(samples), "ms")
        out[metric + ".n"] = (len(samples), "count")
    setup_loads = len(setup_table.select("load_scenario"))
    figures = [pass_figures(t, w, setup_loads) for t, w in zip(tables, pass_walls)]
    for metric, unit in PER_PASS.items():
        if metric in ("world.render_share", "sim.engine_self_s"):
            value = statistics.median(f[metric] for f in figures)
        else:
            value = figures[0][metric]
        out[metric] = (value, unit)
    return out
