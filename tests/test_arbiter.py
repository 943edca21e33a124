"""Hard-switch command arbitration and the staleness fallback."""

import math

import pytest

from crossnav.arbiter import (
    ArbiterConfig,
    ArbitrationDecision,
    arbitrate,
    command_norm,
    tick,
)
from crossnav.planner import CommandSource, VelocityCommand


CFG = ArbiterConfig()


def apf(v_x=0.2, w_z=0.0, stamp=0.0):
    return VelocityCommand(v_x, 0.0, w_z, stamp, CommandSource.APF)


def human(v_x=0.0, v_y=0.0, w_z=0.0, stamp=0.0):
    return VelocityCommand(v_x, v_y, w_z, stamp, CommandSource.HUMAN)


class TestCommandNorm:
    def test_formula(self, rng):
        for _ in range(20):
            v_x, v_y, w_z = rng.uniform(-1.0, 1.0, 3)
            cmd = VelocityCommand(v_x, v_y, w_z, 0.0, CommandSource.APF)
            expect = math.sqrt(v_x**2 + v_y**2 + (w_z * 0.5) ** 2)
            assert command_norm(cmd, 0.5) == pytest.approx(expect, rel=1e-12)

    def test_char_length_weights_only_the_turn_rate(self):
        spin = human(w_z=1.0)
        assert command_norm(spin, 0.5) == pytest.approx(0.5)
        assert command_norm(spin, 2.0) == pytest.approx(2.0)
        assert command_norm(human(v_x=0.3), 2.0) == pytest.approx(0.3)

    def test_zero_command(self):
        assert command_norm(VelocityCommand.zero(0.0, CommandSource.APF), 0.5) == 0.0


class TestArbitrate:
    def test_returns_exactly_one_input(self, rng):
        # a hard switch: the selected object is one of the two inputs, so a
        # blended command can never leak out
        for _ in range(50):
            a = apf(*rng.uniform(-0.5, 0.5, 2))
            h = human(*rng.uniform(-0.5, 0.5, 3))
            decision = arbitrate(a, h, CFG)
            assert decision.selected is a or decision.selected is h
            assert decision.a in (0, 1)
            assert (decision.selected is h) == (decision.a == 1)

    def test_threshold_is_strict(self):
        eps = CFG.epsilon
        at = human(v_x=eps)
        above = human(v_x=eps + 1e-9)
        below = human(v_x=eps - 1e-9)
        assert arbitrate(apf(), at, CFG).a == 0
        assert arbitrate(apf(), above, CFG).a == 1
        assert arbitrate(apf(), below, CFG).a == 0

    def test_turn_only_override_can_win(self):
        # w_z alone crosses the deadband once scaled by char_length
        spin = human(w_z=3 * CFG.epsilon / CFG.char_length)
        assert arbitrate(apf(), spin, CFG).a == 1


class TestTick:
    def test_fresh_human_above_deadband_wins(self):
        decision = tick(apf(stamp=1.0), human(v_x=0.3, stamp=1.0), 1.02, CFG)
        assert decision.a == 1 and decision.selected.source is CommandSource.HUMAN

    def test_quiescent_human_cedes_to_planner(self):
        decision = tick(apf(v_x=0.25, stamp=1.0), human(stamp=1.0), 1.02, CFG)  # exact zero
        assert decision.a == 0 and decision.selected.source is CommandSource.APF
        assert decision.selected.v_x == 0.25

    def test_staleness_boundary(self):
        v_human = human(v_x=0.3, stamp=0.0)
        # age == timeout is still fresh; anything older is dropped
        assert tick(None, v_human, CFG.staleness_timeout, CFG).a == 1
        assert tick(None, v_human, CFG.staleness_timeout + 1e-9, CFG).a == 0

    def test_stale_human_falls_back_to_planner(self):
        decision = tick(apf(v_x=0.2, stamp=2.0), human(v_x=0.3, stamp=0.0), 2.1, CFG)
        assert decision.a == 0 and decision.selected.v_x == 0.2

    def test_both_stale_is_a_zero_stop(self):
        decision = tick(apf(v_x=0.2, stamp=0.0), human(v_x=0.3, stamp=0.0), 5.0, CFG)
        assert decision.a == 0
        assert decision.selected.v_x == 0.0 and decision.selected.w_z == 0.0
        assert decision.selected.source is CommandSource.APF

    def test_empty_store_is_a_zero_stop(self):
        # no command from either branch yet
        decision = tick(None, None, 0.0, CFG)
        assert decision.a == 0 and decision.selected.v_x == 0.0

    def test_stale_planner_does_not_block_human(self):
        decision = tick(apf(v_x=0.2, stamp=0.0), human(v_x=0.3, stamp=5.0), 5.1, CFG)
        assert decision.a == 1 and decision.selected.v_x == 0.3


class TestValidation:
    def test_config_rejects_nonpositive_fields(self):
        for kw in (
            {"epsilon": 0.0},
            {"staleness_timeout": 0.0},
            {"tick_rate": -1.0},
            {"char_length": 0.0},
        ):
            with pytest.raises(ValueError):
                ArbiterConfig(**kw)

    def test_decision_flag_must_be_boolean(self):
        with pytest.raises(ValueError):
            ArbitrationDecision(2, apf())
