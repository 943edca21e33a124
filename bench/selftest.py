"""Show that the benchmark's checks can fail.

Run from the root of a checkout:

    python3 bench/selftest.py

It runs one real episode (canonical, singleview, seed 0: two overhead
collisions) and renders one robot frame, confirms the checks pass on them,
then feeds each check a corrupted copy and confirms that the matching check
fails: one row moved outside the corridor, one collision event dropped, and
one depth value moved by 1 mm. Exits 0 only if every case behaves so.
"""

import os
import sys

import run  # sets the thread count and the import path, as a benchmark run does


def _move_row_outside(text: str, corridor_max_x: float) -> str:
    lines = text.split("\n")
    row = lines[len(lines) // 2].split(",")
    row[4] = f"{corridor_max_x + 0.5:.6f}"  # human_x
    lines[len(lines) // 2] = ",".join(row)
    return "\n".join(lines)


def _drop_collision(text: str) -> str:
    lines = text.split("\n")
    for i, line in enumerate(lines):
        head, _, event = line.rpartition(",")
        kept = [e for e in event.split("|") if not e.startswith("collision:")]
        if len(kept) != len(event.split("|")):
            lines[i] = head + "," + "|".join(kept)
            return "\n".join(lines)
    raise AssertionError("trace has no collision event to drop")


def main() -> int:
    geometry, harness, human_branch, sim = run.import_crossnav()
    import numpy as np
    import yaml

    import checks

    out_dir = run.ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    try:
        config = harness.load_scenario("canonical")
        doc = yaml.safe_load(harness.find_scenario("canonical").read_text())
        report = sim.run_episode(config, sim.Condition.SINGLE_VIEW, 0, out_dir)
        with open(report.trace_path) as fh:
            text = fh.read()
    finally:
        run.remove_out_dir(out_dir)

    def trace_fails(t):
        return checks.check_trace(t, doc, config.sim.dt, config.sim.goal_tolerance_m, report)

    pose = sim.robot_camera_pose(config.scene.start_robot, config.rig)
    intr = config.rig.robot_intrinsics
    depth = sim.render_depth(config.scene, pose, intr).depth
    pixels = checks.sample_pixels(depth, np.random.default_rng(0), 64)
    obstacles = doc["scene"]["obstacles"]
    perturbed = depth.copy()
    v, u = pixels[0]  # the first half of the sample lies on rendered hits
    perturbed[v, u] += 1e-3

    cases = [
        ("clean trace passes", trace_fails(text), None),
        ("row outside the corridor", trace_fails(_move_row_outside(text, doc["scene"]["corridor_max_m"][0])),
         "outside the corridor"),
        ("dropped collision event", trace_fails(_drop_collision(text)), "collision events"),
        ("clean depth passes", checks.compare_depth(depth, obstacles, pose, intr, pixels), None),
        ("depth moved by 1 mm", checks.compare_depth(perturbed, obstacles, pose, intr, pixels),
         f"pixel ({u}, {v})"),
    ]
    ok = True
    for label, fails, expect in cases:
        if expect is None:
            good = not fails
        else:
            good = len(fails) == 1 and expect in fails[0]
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: {fails or 'no failures'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
