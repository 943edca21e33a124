"""Pictures of a trace: a character plot for the terminal and a standalone SVG.

Both read a ``TraceData`` (``harness.read_trace``) and draw the top-down
paths of the robot and the person, with the command timeline: which branch
was in control, and the turn rate ``w_z``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .harness import TraceData


def render_trace_text(trace: TraceData, width: int = 72, height: int = 20) -> str:
    """Character plot: top-down paths, then a command timeline strip."""
    pts = np.vstack([trace.robot_xy, trace.human_xy])
    lo = pts.min(axis=0) - 0.2
    hi = pts.max(axis=0) + 0.2
    span = np.maximum(hi - lo, 1e-6)
    grid = [[" "] * width for _ in range(height)]

    def mark(xy: np.ndarray, glyph: str) -> None:
        cols = np.clip(((xy[:, 0] - lo[0]) / span[0] * (width - 1)).astype(int), 0, width - 1)
        rows = np.clip(((xy[:, 1] - lo[1]) / span[1] * (height - 1)).astype(int), 0, height - 1)
        for cc, rr in zip(cols, rows):
            row = height - 1 - rr
            grid[row][cc] = "@" if grid[row][cc] not in (" ", glyph) else glyph

    mark(trace.human_xy, "o")
    mark(trace.robot_xy, "*")
    panel = "\n".join("".join(row) for row in grid)

    n = len(trace.t)
    cols = min(width, n)
    idx = np.linspace(0, n - 1, cols).astype(int)
    src_strip = "".join(
        "H" if trace.a[i] else ("w" if trace.source[i] == "walker" else ".") for i in idx
    )
    w_strip = "".join("+" if trace.v[i, 2] > 1e-6 else ("-" if trace.v[i, 2] < -1e-6 else "0") for i in idx)
    legend = (
        f"x: [{lo[0]:.2f}, {hi[0]:.2f}] m   y: [{lo[1]:.2f}, {hi[1]:.2f}] m   "
        f"t: [{trace.t[0]:.2f}, {trace.t[-1]:.2f}] s   (* robot, o human, @ both)"
    )
    return "\n".join(
        [panel, legend, "", "source  " + src_strip, "w_z     " + w_strip]
    )


def _svg_polyline(xy: Sequence[Tuple[float, float]], color: str, width: float = 1.5) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in xy)
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{pts}"/>'


def render_trace_svg(trace: TraceData) -> str:
    """Standalone SVG: the top-down trajectory and the w_z profile with
    override intervals shaded."""
    w_px, h_path, h_vel, pad = 640.0, 280.0, 140.0, 30.0
    pts = np.vstack([trace.robot_xy, trace.human_xy])
    lo = pts.min(axis=0) - 0.2
    hi = pts.max(axis=0) + 0.2
    span = np.maximum(hi - lo, 1e-6)

    def to_path(xy: np.ndarray) -> List[Tuple[float, float]]:
        xs = pad + (xy[:, 0] - lo[0]) / span[0] * (w_px - 2 * pad)
        ys = pad + (1.0 - (xy[:, 1] - lo[1]) / span[1]) * (h_path - 2 * pad)
        return list(zip(xs, ys))

    t0, t1 = float(trace.t[0]), float(trace.t[-1])
    t_span = max(t1 - t0, 1e-6)
    w_abs = max(float(np.abs(trace.v[:, 2]).max()), 1e-6)
    y_mid = h_path + pad + (h_vel - 2 * pad) / 2.0

    def vel_pts() -> List[Tuple[float, float]]:
        xs = pad + (trace.t - t0) / t_span * (w_px - 2 * pad)
        ys = y_mid - trace.v[:, 2] / w_abs * (h_vel - 2 * pad) / 2.0
        return list(zip(xs, ys))

    shades = []
    in_block = None
    a = trace.a
    for i in range(len(a)):
        if a[i] and in_block is None:
            in_block = trace.t[i]
        if (not a[i] or i == len(a) - 1) and in_block is not None:
            x0 = pad + (in_block - t0) / t_span * (w_px - 2 * pad)
            x1 = pad + (trace.t[i] - t0) / t_span * (w_px - 2 * pad)
            shades.append(
                f'<rect x="{x0:.2f}" y="{h_path + pad:.2f}" width="{max(x1 - x0, 1.0):.2f}" '
                f'height="{h_vel - 2 * pad:.2f}" fill="#f5b7b1" opacity="0.6"/>'
            )
            in_block = None

    total_h = h_path + h_vel
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w_px:.0f} {total_h:.0f}">',
        f'<rect width="{w_px:.0f}" height="{total_h:.0f}" fill="white"/>',
        *shades,
        _svg_polyline(to_path(trace.human_xy), "#e67e22"),
        _svg_polyline(to_path(trace.robot_xy), "#2980b9"),
        f'<line x1="{pad}" y1="{y_mid:.2f}" x2="{w_px - pad}" y2="{y_mid:.2f}" stroke="#bbb"/>',
        _svg_polyline(vel_pts(), "#27ae60", 1.0),
        f'<text x="{pad}" y="18" font-size="12" fill="#333">robot (blue) and human (orange) paths; '
        f"w_z profile below, override intervals shaded</text>",
        "</svg>",
    ]
    return "\n".join(parts)
