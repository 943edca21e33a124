"""A walking tour of the local planner's force field.

One box sits between the start and the goal. The planner sums an attractive
pull toward the goal and, inside the influence radius d0, a repulsive push
from every non-free costmap cell; the commanded motion follows the negative
gradient of that scalar field through a first-order admittance map. The
script prints the field along the centerline, checks the force against a
finite-difference gradient at one probe, and rolls the admittance commands
forward to show the detour.

Run:  python3 demos/potential_field_tour.py
"""

import numpy as np

from crossnav.geometry import FrameId, PointCloud
from crossnav.perception import build_costmap, inflate, nonfree_centers
from crossnav.planner import ApfParams, admittance_map, apf_force, potential


def box_outline(center, half, z=0.1, step=0.05) -> np.ndarray:
    """Sample the box rim the way a depth camera sweep would see it."""
    cx, cy = center
    hx, hy = half
    xs = np.arange(cx - hx, cx + hx + 1e-9, step)
    ys = np.arange(cy - hy, cy + hy + 1e-9, step)
    rim = [np.column_stack([xs, np.full_like(xs, cy - hy)]),
           np.column_stack([xs, np.full_like(xs, cy + hy)]),
           np.column_stack([np.full_like(ys, cx - hx), ys]),
           np.column_stack([np.full_like(ys, cx + hx), ys])]
    xy = np.vstack(rim)
    return np.column_stack([xy, np.full(len(xy), z)])


def main() -> None:
    params = ApfParams()
    goal = np.array([4.0, 0.0])
    cloud = PointCloud(box_outline((2.0, 0.1), (0.25, 0.25)), FrameId.ROBOT_BASE)
    grid = inflate(build_costmap(cloud, (-0.5, -2.0), 0.05, 110, 80), 0.2)
    print(f"one box at (2.0, 0.1); costmap has {len(nonfree_centers(grid))} non-free cells\n")

    print("potential and force along the centerline y = 0:")
    print(f"{'x [m]':>6} {'U':>9} {'F_x':>9} {'F_y':>9}")
    for x in np.arange(0.0, 4.01, 0.5):
        p = np.array([x, 0.0])
        u = potential(p, goal, grid, params)
        f = apf_force(p, goal, grid, params)
        print(f"{x:>6.1f} {u:>9.3f} {f.fx:>9.3f} {f.fy:>9.3f}")
    print("(the push spikes near the box and dies past the influence radius)\n")

    probe = np.array([1.2, -0.3])
    f = apf_force(probe, goal, grid, params)
    h = 1e-5
    fd = [-(potential(probe + d, goal, grid, params) - potential(probe - d, goal, grid, params))
          / (2 * h)
          for d in (np.array([h, 0.0]), np.array([0.0, h]))]
    print(f"probe {probe}: force ({f.fx:+.6f}, {f.fy:+.6f})")
    print(f"         finite diff ({fd[0]:+.6f}, {fd[1]:+.6f})  -- same field, by construction\n")

    # roll the admittance commands forward from the start in robot steps
    pose = np.array([0.0, 0.0])
    prev = None
    dt = 0.1
    print("admittance rollout (0.1 s steps, position every second):")
    for k in range(400):
        t = k * dt
        force = apf_force(pose, goal, grid, params)
        cmd = admittance_map(force, params, prev, t)
        prev = cmd
        # treat the command as a world-frame step: enough for a field tour
        direction = np.array([force.fx, force.fy])
        n = np.linalg.norm(direction)
        if n > 1e-9:
            pose = pose + direction / n * abs(cmd.v_x) * dt
        if k % 10 == 0:
            print(f"  t={t:>5.1f}s  pos=({pose[0]:+.2f}, {pose[1]:+.2f})  "
                  f"v={cmd.v_x:+.2f} m/s")
        if np.linalg.norm(goal - pose) < 0.15:
            print(f"  t={t:>5.1f}s  reached the goal at ({pose[0]:+.2f}, {pose[1]:+.2f})")
            break
    else:
        print("  rollout did not converge (try a smaller repulsive gain)")


if __name__ == "__main__":
    main()
