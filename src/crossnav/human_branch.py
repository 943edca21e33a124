"""Chest-camera reactive branch: corridor hazard check and override commands.

Works directly on the raw cloud in the human's ground-anchored body frame
(x forward, y left, z = height above ground); no map is built. Produces
exact-zero commands when quiescent so the arbiter's deadband hands control
to the planner, and a small four-phase state machine (idle, evade, brake,
recovery) when a hazard sits inside the safety margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Optional

import numpy as np

from .geometry import FrameId, FrameMismatch, PointCloud
from .planner import CommandSource, VelocityCommand


@dataclass(frozen=True)
class HumanSafetyParams:
    corridor_half_width: float = 0.35  # |y| bound of the forward check, meters
    z_low: float = 0.30  # exposure band, meters above ground (knee..head)
    z_high: float = 1.90
    d_safe: float = 1.2  # critical safety margin, meters
    d_brake: float = 0.5  # braking distance, meters
    v_evade: float = 0.3  # m/s
    w_evade: float = 0.9  # rad/s
    release_hysteresis: float = 0.2  # meters added to d_safe while not idle
    recovery_duration: float = 1.0  # seconds of steer-back after clearing
    brake_hold: float = 0.6  # seconds of full stop before turning away in place
    brake_signal: float = 0.02  # sentinel magnitude encoding an active brake
    max_evade_turn: float = 1.2  # rad of cumulative turn per engagement

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not (0 < self.d_brake < self.d_safe):
            raise ValueError("need 0 < d_brake < d_safe")
        if self.z_low >= self.z_high:
            raise ValueError("need z_low < z_high")
        if self.corridor_half_width <= 0 or self.v_evade <= 0 or self.w_evade <= 0:
            raise ValueError("corridor_half_width, v_evade, w_evade must be positive")
        if self.release_hysteresis < 0 or self.recovery_duration <= 0 or self.brake_hold <= 0:
            raise ValueError("hysteresis must be >= 0; durations must be positive")
        if self.brake_signal <= 0:
            raise ValueError("brake_signal must be positive")
        if self.max_evade_turn <= 0:
            raise ValueError("max_evade_turn must be positive")


@dataclass(frozen=True)
class HazardInfo:
    """Nearest in-corridor return, relative to the human."""

    nearest_point: np.ndarray  # (3,), human body frame
    distance: float  # forward range, meters
    lateral_offset: float  # signed, + = left
    height: float  # meters above ground


def detect_hazard(cloud: PointCloud, params: HumanSafetyParams) -> Optional[HazardInfo]:
    """Scan the raw cloud for the nearest point inside the forward corridor.

    Corridor: x > 0, |y| <= corridor_half_width, z inside the exposure band.
    Returns the minimum-x point when it lies within d_safe, else None.
    """
    if cloud.frame != FrameId.PHYSICAL_HUMAN:
        raise FrameMismatch(
            f"hazard check expects physical_human cloud, got {cloud.frame.value}"
        )
    pts = cloud.points
    if pts.shape[0] == 0:
        return None
    mask = (
        (pts[:, 0] > 0)
        & (np.abs(pts[:, 1]) <= params.corridor_half_width)
        & (pts[:, 2] >= params.z_low)
        & (pts[:, 2] <= params.z_high)
    )
    if not mask.any():
        return None
    candidates = pts[mask]
    nearest = candidates[np.argmin(candidates[:, 0])]
    if nearest[0] > params.d_safe:
        return None
    return HazardInfo(nearest.copy(), float(nearest[0]), float(nearest[1]), float(nearest[2]))


class Phase(Enum):
    IDLE = "idle"
    EVADE = "evade"
    BRAKE = "brake"
    RECOVERY = "recovery"


@dataclass
class ReactiveState:
    phase: Phase = Phase.IDLE
    turn_dir: int = -1  # -1 = steer right, +1 = steer left; default right
    brake_entered: float = 0.0
    recovery_until: float = 0.0
    turn_used: float = 0.0  # rad accumulated since the engagement started
    recover_turn: float = 0.0  # rad of steer-back left in the recovery phase
    turning: bool = False  # last emitted command carried a turn rate
    last_tick: Optional[float] = None


def _steer_dir(h: HazardInfo, state: ReactiveState) -> int:
    # steer away from the hazard's side; dead-center keeps the previous choice
    if h.lateral_offset > 0:
        return -1
    if h.lateral_offset < 0:
        return 1
    return state.turn_dir


def _brake_command(params: HumanSafetyParams, now: float) -> VelocityCommand:
    # nonzero sentinel so the arbiter selects this branch; the executor
    # rounds it to a standstill
    return VelocityCommand(0.0, params.brake_signal, 0.0, now, CommandSource.HUMAN)


def _evade_turn_rate(params: HumanSafetyParams, state: ReactiveState) -> float:
    """Evade turn rate, or 0 once the per-engagement budget is spent.

    Without the cap a slow evade circles in place (turn radius v_x / w_evade)
    and never displaces the leashed pair; with it the dog turns away, then
    holds the diverged heading and walks clear.
    """
    if state.turn_used < params.max_evade_turn:
        state.turning = True
        return state.turn_dir * params.w_evade
    state.turning = False
    return 0.0


def _evade_command(
    h: HazardInfo, params: HumanSafetyParams, state: ReactiveState, now: float
) -> VelocityCommand:
    frac = (h.distance - params.d_brake) / (params.d_safe - params.d_brake)
    v_x = params.v_evade * min(max(frac, 0.0), 1.0)
    w_z = _evade_turn_rate(params, state)
    if w_z == 0.0:
        # turn budget spent: the heading is already diverged, so hold a
        # speed floor that survives the executor deadband and drags the
        # leashed pair sideways until the hazard clears
        v_x = max(v_x, 0.75 * params.v_evade)
    return VelocityCommand(v_x, 0.0, w_z, now, CommandSource.HUMAN)


def _enter_recovery(
    params: HumanSafetyParams, state: ReactiveState, now: float
) -> VelocityCommand:
    state.phase = Phase.RECOVERY
    state.recovery_until = now + params.recovery_duration
    # steer back only as far as this engagement actually turned, then ride
    # the restored heading straight until the window closes
    state.recover_turn = state.turn_used
    state.turn_used = 0.0
    return _recovery_step(params, state, now)


def _recovery_step(
    params: HumanSafetyParams, state: ReactiveState, now: float
) -> VelocityCommand:
    # ride the diverged heading first — the hazard may have merely dropped
    # out of view — and schedule the steer-back to finish with the window
    remaining = state.recovery_until - now
    turn_time = state.recover_turn / params.w_evade
    if state.recover_turn > 0.0 and remaining <= turn_time:
        state.turning = True
        w_z = -state.turn_dir * params.w_evade
    else:
        state.turning = False
        w_z = 0.0
    return VelocityCommand(params.v_evade, 0.0, w_z, now, CommandSource.HUMAN)


def reactive_command(
    h: Optional[HazardInfo],
    params: HumanSafetyParams,
    state: ReactiveState,
    now: float,
) -> VelocityCommand:
    """Advance the override state machine one tick and emit its command.

    Quiescent phases emit an exact zero, ceding control to the planner.
    Mutates ``state``.
    """
    # charge the turn budget for the interval the previous command was held
    if state.last_tick is not None and state.turning:
        turned = params.w_evade * max(now - state.last_tick, 0.0)
        if state.phase is Phase.RECOVERY:
            state.recover_turn -= turned
        else:
            state.turn_used += turned
    state.last_tick = now

    if state.phase is Phase.IDLE:
        if h is None:
            state.turning = False
            return VelocityCommand.zero(now, CommandSource.HUMAN)
        state.turn_dir = _steer_dir(h, state)
        state.phase = Phase.EVADE
        state.turn_used = 0.0
        # fall through to evade/brake handling below

    if state.phase is Phase.RECOVERY:
        if h is not None:
            state.turn_dir = _steer_dir(h, state)
            state.phase = Phase.EVADE
            state.turn_used = 0.0
        elif now >= state.recovery_until:
            state.phase = Phase.IDLE
            state.turning = False
            return VelocityCommand.zero(now, CommandSource.HUMAN)
        else:
            return _recovery_step(params, state, now)

    if state.phase is Phase.EVADE:
        if h is None:
            return _enter_recovery(params, state, now)
        state.turn_dir = _steer_dir(h, state)
        if h.distance <= params.d_brake:
            state.phase = Phase.BRAKE
            state.brake_entered = now
            state.turning = False
            return _brake_command(params, now)
        return _evade_command(h, params, state, now)

    # BRAKE
    if h is None:
        return _enter_recovery(params, state, now)
    if h.distance > params.d_brake:
        state.phase = Phase.EVADE
        state.turn_dir = _steer_dir(h, state)
        return _evade_command(h, params, state, now)
    if now - state.brake_entered >= params.brake_hold:
        # hazard pinned inside the brake radius: turn away in place while
        # budget remains, then creep out on the diverged heading so the
        # pair does not freeze forever
        state.turn_dir = _steer_dir(h, state)
        w_z = _evade_turn_rate(params, state)
        v_x = 0.0 if w_z != 0.0 else 0.5 * params.v_evade
        return VelocityCommand(v_x, 0.0, w_z, now, CommandSource.HUMAN)
    state.turning = False
    return _brake_command(params, now)


class HumanBranch:
    """Per-tick wrapper: detection with release hysteresis plus the state machine."""

    def __init__(self, params: HumanSafetyParams):
        self.params = params
        self._engaged_params = replace(params, d_safe=params.d_safe + params.release_hysteresis)
        self.state = ReactiveState()

    def update(self, cloud: PointCloud, now: float) -> VelocityCommand:
        engaged = self.state.phase is not Phase.IDLE
        hazard = detect_hazard(cloud, self._engaged_params if engaged else self.params)
        return reactive_command(hazard, self.params, self.state, now)
