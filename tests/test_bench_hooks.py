"""The benchmark's hooks into the package: every traced name exists and comes back intact.

``bench/tracer.py`` wraps names it looks up in the package's module and class
namespaces, and ``bench/selftest.py`` shows that the benchmark's checks can
fail. A renamed or dropped name would otherwise surface only when a
benchmark record runs.
"""

import collections
import importlib.util
import subprocess
import sys
from pathlib import Path

from crossnav import geometry, harness, human_branch, sim

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TARGETS = tracer.targets(sim, harness, geometry, human_branch)


def test_every_traced_name_exists_on_its_owner():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in TARGETS if attr not in vars(owner)]
    assert missing == []


def test_install_then_uninstall_restores_the_originals():
    before = [vars(owner)[attr] for owner, attr, _, _ in TARGETS]
    hooks = tracer.Tracer(TARGETS)
    hooks.install()
    try:
        wrapped = [vars(owner)[attr] for owner, attr, _, _ in TARGETS]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        hooks.uninstall()
    after = [vars(owner)[attr] for owner, attr, _, _ in TARGETS]
    assert all(a is b for a, b in zip(after, before))


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_planner_tick_runs_each_costmap_and_planner_layer_once(tmp_path):
    # the per-layer figures are means over these spans; a refactor that
    # stopped calling one through its module attribute would zero its figure
    config = harness.load_scenario("hanging_lamp")
    hooks = tracer.Tracer(TARGETS)
    hooks.install()
    try:
        sim.run_episode(config, sim.Condition.CROSS_VIEW, 0, tmp_path)
    finally:
        hooks.uninstall()
    spans = hooks.take()
    counts = collections.Counter(name for name, *_ in spans)
    ticks = counts["robot_branch_observation"]
    assert ticks > 100
    per_tick = ("passthrough_filter", "build_costmap", "inflate", "apf_force", "admittance_map", "roi_min_depth")
    assert {name: counts[name] for name in per_tick} == dict.fromkeys(per_tick, ticks)
    # the sensing layers run inside the observation, where the tracer
    # attributes them
    for name, _, _, parent, _ in spans:
        if name in ("passthrough_filter", "build_costmap", "inflate"):
            assert spans[parent][0] == "robot_branch_observation"
