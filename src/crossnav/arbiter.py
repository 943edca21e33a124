"""Priority-based command multiplexing between the two branches.

The human branch wins whenever its command magnitude exceeds the deadband;
otherwise the planner drives. Selection is a hard switch, never a blend.
Producers publish at their own rates into a keep-last-one store; the arbiter
consumes the newest fresh value per branch at its own tick rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from .planner import CommandSource, VelocityCommand


@dataclass(frozen=True)
class ArbiterConfig:
    epsilon: float = 0.01  # deadband on the human-command magnitude, m/s
    staleness_timeout: float = 0.5  # seconds
    tick_rate: float = 20.0  # Hz
    char_length: float = 0.5  # meters; weights w_z in the mixed-unit norm

    def __post_init__(self):
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
    stamp: float

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
    selected = v_human if a == 1 else v_apf
    return ArbitrationDecision(a, selected, max(v_apf.stamp, v_human.stamp))


class LatestValueStore:
    """Keep-last-one channel per branch.

    Producers and the arbiter run as tasks of one single-threaded event
    loop, so a publish never overlaps a read.
    """

    def __init__(self):
        self._latest: Dict[CommandSource, VelocityCommand] = {}

    def publish(self, cmd: VelocityCommand) -> None:
        self._latest[cmd.source] = cmd

    def latest(self, source: CommandSource) -> Optional[VelocityCommand]:
        return self._latest.get(source)

    def snapshot(self) -> Dict[CommandSource, VelocityCommand]:
        return dict(self._latest)


def tick(store: LatestValueStore, now: float, cfg: ArbiterConfig) -> ArbitrationDecision:
    """One arbiter cycle over the newest per-branch values.

    A branch older than the staleness timeout is treated as absent; with both
    branches absent the executed command is a zero (stop) fail-safe.
    """
    latest = store.snapshot()

    def fresh(source: CommandSource) -> Optional[VelocityCommand]:
        cmd = latest.get(source)
        if cmd is None or now - cmd.stamp > cfg.staleness_timeout:
            return None
        return cmd

    v_apf = fresh(CommandSource.APF)
    v_human = fresh(CommandSource.HUMAN)
    stop = VelocityCommand.zero(now, CommandSource.APF)
    if v_human is not None:
        decision = arbitrate(v_apf if v_apf is not None else stop, v_human, cfg)
        return ArbitrationDecision(decision.a, decision.selected, now)
    if v_apf is not None:
        return ArbitrationDecision(0, v_apf, now)
    return ArbitrationDecision(0, stop, now)
