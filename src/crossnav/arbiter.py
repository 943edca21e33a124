"""Priority-based command multiplexing between the two branches.

The human branch wins whenever its command magnitude exceeds the deadband;
otherwise the planner drives. Selection is a hard switch, never a blend.
Each branch's task keeps its newest command; the arbiter reads both at its
own tick rate and drops any older than the staleness timeout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .planner import CommandSource, VelocityCommand


@dataclass(frozen=True)
class ArbiterConfig:
    epsilon: float = 0.01  # deadband on the human-command magnitude, m/s
    staleness_timeout: float = 0.5  # seconds
    tick_rate: float = 20.0  # Hz
    char_length: float = 0.5  # meters; weights w_z in the mixed-unit norm

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.staleness_timeout <= 0 or self.tick_rate <= 0 or self.char_length <= 0:
            raise ValueError("timeout, tick_rate and char_length must be positive")


def command_norm(cmd: VelocityCommand, char_length: float) -> float:
    """Euclidean magnitude of (v_x, v_y, w_z * char_length)."""
    return math.sqrt(cmd.v_x**2 + cmd.v_y**2 + (cmd.w_z * char_length) ** 2)


@dataclass(frozen=True)
class ArbitrationDecision:
    a: int  # 1 = human branch selected
    selected: VelocityCommand

    def __post_init__(self):
        if self.a not in (0, 1):
            raise ValueError("arbitration flag must be 0 or 1")


def arbitrate(
    v_apf: VelocityCommand, v_human: VelocityCommand, cfg: ArbiterConfig
) -> ArbitrationDecision:
    """Boolean selection: the human command iff its magnitude strictly exceeds epsilon.

    The returned command is exactly one of the inputs.
    """
    a = 1 if command_norm(v_human, cfg.char_length) > cfg.epsilon else 0
    return ArbitrationDecision(a, v_human if a == 1 else v_apf)


def tick(
    v_apf: Optional[VelocityCommand],
    v_human: Optional[VelocityCommand],
    now: float,
    cfg: ArbiterConfig,
) -> ArbitrationDecision:
    """One arbiter cycle over each branch's newest command, None before its first.

    A command older than the staleness timeout is treated as absent; with both
    branches absent the executed command is a zero (stop) fail-safe.
    """
    if v_apf is None or now - v_apf.stamp > cfg.staleness_timeout:
        v_apf = VelocityCommand.zero(now, CommandSource.APF)
    if v_human is None or now - v_human.stamp > cfg.staleness_timeout:
        return ArbitrationDecision(0, v_apf)
    return arbitrate(v_apf, v_human, cfg)
