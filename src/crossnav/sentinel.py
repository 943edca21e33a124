"""Event-triggered hazard announcements: cheap depth gate, pluggable describer.

A fixed image region covering the forward path is thresholded on its minimum
valid depth; crossing the critical distance fires a (debounced) trigger. The
trigger hands a structured summary of what is actually in front to a
describer, whose text is logged for the user. Description is informational
only and never feeds back into motion commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .world import CameraIntrinsics, DepthImage

HAZARD_PROMPT = "Obstacle close ahead. Say briefly what it is and where it sits."

#: bearings within this many degrees of straight ahead read as "center"
CENTER_BEARING_DEG = 10.0


class RoiOutOfBounds(Exception):
    """Raised when a region of interest does not fit the image."""


@dataclass(frozen=True)
class RoiSpec:
    """Half-open pixel bounds [u_min, u_max) x [v_min, v_max) on the depth image."""

    u_min: int
    u_max: int
    v_min: int
    v_max: int

    def __post_init__(self):
        if self.u_min >= self.u_max or self.v_min >= self.v_max:
            raise RoiOutOfBounds("region of interest is empty")
        if self.u_min < 0 or self.v_min < 0:
            raise RoiOutOfBounds("region of interest has negative bounds")

    def check_fits(self, intr: CameraIntrinsics) -> None:
        if self.u_max > intr.width or self.v_max > intr.height:
            raise RoiOutOfBounds(
                f"roi ({self.u_min}:{self.u_max}, {self.v_min}:{self.v_max}) exceeds "
                f"{intr.width}x{intr.height} image"
            )


def default_roi(intr: CameraIntrinsics) -> RoiSpec:
    """Central 40% of the width, rows from the horizon line down to 80% height."""
    u_min = int(round(0.3 * intr.width))
    u_max = int(round(0.7 * intr.width))
    v_min = int(round(intr.cy))
    v_max = int(round(0.8 * intr.height))
    return RoiSpec(u_min, u_max, v_min, v_max)


@dataclass(frozen=True)
class SentinelConfig:
    d_crit: float = 1.2  # critical depth threshold, meters
    debounce: float = 3.0  # minimum seconds between announcements
    roi: Optional[RoiSpec] = None  # None: derive from the image intrinsics

    def __post_init__(self):
        for name in ("d_crit", "debounce"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.d_crit <= 0:
            raise ValueError("d_crit must be positive")
        if self.debounce < 0:
            raise ValueError("debounce must be non-negative")


def roi_min_depth(img: DepthImage, roi: RoiSpec) -> Optional[float]:
    """Minimum valid depth inside the region, or None when nothing returns.

    Only the region's overlap with the image's return box is scanned, since
    no valid pixel lies outside the box.
    """
    roi.check_fits(img.intrinsics)
    top, bottom, left, right = img.box
    v_min, v_max = max(roi.v_min, top), min(roi.v_max, bottom)
    u_min, u_max = max(roi.u_min, left), min(roi.u_max, right)
    if v_min >= v_max or u_min >= u_max:
        return None
    window = img.depth[v_min:v_max, u_min:u_max]
    valid = np.isfinite(window) & (window > 0)
    if not valid.any():
        return None
    return float(window[valid].min())


@dataclass(frozen=True)
class Trigger:
    stamp: float
    min_depth: float


def check_trigger(
    d_min: Optional[float], now: float, cfg: SentinelConfig, last_fire: Optional[float]
) -> Optional[Trigger]:
    """Fire iff a valid minimum depth lies strictly below d_crit and the
    debounce window since the previous fire has elapsed. The returned
    trigger's stamp becomes the new last_fire."""
    if d_min is None or not d_min < cfg.d_crit:
        return None
    if last_fire is not None and now - last_fire < cfg.debounce:
        return None
    return Trigger(now, d_min)


@dataclass(frozen=True)
class ObstacleSighting:
    """Ground-truth view of one obstacle inside the robot camera frustum."""

    obstacle_id: str
    kind: str  # "ground" | "overhead"
    bearing_deg: float  # + = left of the camera axis
    range_m: float


@dataclass(frozen=True)
class HazardEvent:
    stamp: float
    min_depth: float
    scene_summary: tuple
    announcement: str


Describer = Callable[[Sequence[ObstacleSighting], str], str]


def _side_word(bearing_deg: float) -> str:
    if bearing_deg > CENTER_BEARING_DEG:
        return "left"
    if bearing_deg < -CENTER_BEARING_DEG:
        return "right"
    return "center"


class TemplateDescriber:
    """Deterministic stand-in for a vision-language describer."""

    def __call__(self, sightings: Sequence[ObstacleSighting], prompt: str) -> str:
        nearest = min(sightings, key=lambda s: s.range_m)
        return (
            f"{nearest.kind} obstacle {nearest.obstacle_id} ahead, "
            f"{nearest.range_m:.1f} meters, {_side_word(nearest.bearing_deg)}"
        )


def describe(
    trigger: Trigger,
    scene_summary: Sequence[ObstacleSighting],
    describer: Optional[Describer],
) -> HazardEvent:
    """Produce the announcement event for a fired trigger.

    An empty frustum summary falls back to a range-only phrase; a failing
    describer yields an event with an empty announcement. Either way the
    event is returned and navigation is never blocked.
    """
    summary = tuple(scene_summary)
    if not summary:
        announcement = f"obstacle ahead, {trigger.min_depth:.1f} meters"
    else:
        fn: Describer = describer if describer is not None else TemplateDescriber()
        try:
            announcement = fn(summary, HAZARD_PROMPT)
        except Exception:
            announcement = ""
    return HazardEvent(trigger.stamp, trigger.min_depth, summary, announcement)
