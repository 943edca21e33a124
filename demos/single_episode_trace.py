"""One guided pass under a hanging lamp, beginning to end.

Runs the hanging_lamp scenario in the crossview condition (robot planner
plus chest-view guard), reads the trace back, and prints a character plot
of both paths with the command timeline underneath. The override shows up
as a block of human-sourced commands: a turn away from the lamp, a creep
past it, and an opposite steer-back before the planner takes over again.
Also writes an SVG rendering next to the trace.

Run:  python3 demos/single_episode_trace.py
"""

from pathlib import Path

import numpy as np

from crossnav.harness import load_scenario, read_trace
from crossnav.sim import Condition, run_episode
from crossnav.trace_plots import render_trace_svg, render_trace_text

OUT = Path(__file__).resolve().parent / "demo_out"


def main() -> None:
    cfg = load_scenario("hanging_lamp")
    report = run_episode(cfg, Condition.CROSS_VIEW, seed=0, out_dir=OUT)
    print(report.to_text_record(), "\n")

    trace = read_trace(report.trace_path)
    print(render_trace_text(trace))

    src = np.array(trace.source)
    idx = np.flatnonzero(src == "human")
    if idx.size:
        t0, t1 = trace.t[idx[0]], trace.t[idx[-1]]
        w = trace.v[idx, 2]
        print(f"\noverride window: t = {t0:.2f}..{t1:.2f} s "
              f"({idx.size} ticks under human-branch control)")
        print(f"  turn away : w_z = {w.min():+.2f} rad/s at its strongest")
        print(f"  steer back: w_z = {w.max():+.2f} rad/s to rejoin the old heading")
        dt = float(trace.t[1] - trace.t[0])
        print(f"  net turn  : {w.sum() * dt:+.4f} rad (cancels by design)")
    else:
        print("\nno override occurred (unexpected for this scenario)")

    svg_path = Path(report.trace_path).with_suffix(".svg")
    svg_path.write_text(render_trace_svg(trace))
    print(f"\ntrace: {report.trace_path}")
    print(f"plot : {svg_path}")


if __name__ == "__main__":
    main()
