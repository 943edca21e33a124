"""Scenario schema, sweeps, summaries, and trace file utilities."""

import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from crossnav import cli, harness
from crossnav.harness import (
    ConditionSummary,
    ParseError,
    SweepSpec,
    TraceData,
    ValidationError,
    build_config,
    command_columns,
    config_to_dict,
    effective_config_text,
    find_scenario,
    format_summary_table,
    load_scenario,
    parse_seed_range,
    read_trace,
    render_trace_svg,
    render_trace_text,
    run_sweep,
    summarize,
)
from crossnav.sentinel import RoiSpec, SentinelConfig
from crossnav.sim import Condition, ConfigError, EpisodeReport, TerminationStatus, run_episode
from crossnav.world import ObstacleKind, ObstacleShape

DATA = Path(__file__).parent / "data"
MINI = DATA / "mini.yaml"


def minimal_raw():
    """Smallest scenario mapping that passes validation."""
    return {
        "scene": {
            "corridor_min_m": [-2.0, -2.0],
            "corridor_max_m": [6.0, 2.0],
            "start_robot_pose": [0.0, 0.0, 0.0],
            "goal_m": [3.5, 0.0],
        }
    }


class TestFindScenario:
    def test_shipped_name_resolves(self):
        path = find_scenario("hanging_lamp")
        assert path.name == "hanging_lamp.yaml"
        assert path.exists()

    def test_explicit_path_wins(self):
        assert find_scenario(MINI) == MINI
        assert find_scenario(str(MINI)) == MINI

    def test_unknown_name_lists_the_options(self):
        with pytest.raises(ParseError, match="hanging_lamp"):
            find_scenario("no_such_course")


class TestLoadScenario:
    def test_mini_fixture(self):
        cfg = load_scenario(MINI)
        assert cfg.name == "mini"
        np.testing.assert_allclose(cfg.scene.goal, [3.5, 0.0])
        assert cfg.sim.timeout_s == 40.0
        assert cfg.safety.d_safe == 1.2
        (ob,) = cfg.scene.obstacles
        assert ob.obstacle_id == "bin"
        assert ob.shape is ObstacleShape.BOX and ob.kind is ObstacleKind.GROUND
        np.testing.assert_allclose(ob.center, [1.8, 0.15])
        # untouched sections fall back to defaults
        assert cfg.apf.k_att == 1.0
        assert cfg.arbiter.epsilon == 0.01

    def test_all_shipped_scenarios_load(self):
        scenario_dir = find_scenario("canonical").parent
        names = sorted(p.stem for p in scenario_dir.glob("*.yaml"))
        assert names == ["canonical", "canonical_bend", "hanging_lamp"]
        for name in names:
            cfg = load_scenario(name)
            assert cfg.name == name

    def test_canonical_course_mixes_both_obstacle_kinds(self):
        cfg = load_scenario("canonical")
        kinds = [ob.kind for ob in cfg.scene.obstacles]
        assert kinds.count(ObstacleKind.GROUND) == 3
        assert kinds.count(ObstacleKind.OVERHEAD) == 2

    def test_bend_variant_only_adds_the_window(self):
        plain = load_scenario("canonical")
        bend = load_scenario("canonical_bend")
        assert plain.bend_window_s is None
        assert bend.bend_window_s is not None
        lo, hi = bend.bend_window_s
        assert 0 <= lo < hi
        stripped = dataclasses.replace(bend, bend_window_s=None, name="canonical")
        assert effective_config_text(stripped) == effective_config_text(plain)

    def test_empty_file_is_a_parse_error(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        with pytest.raises(ParseError):
            load_scenario(p)

    def test_non_mapping_top_level_is_a_parse_error(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ParseError):
            load_scenario(p)

    def test_broken_yaml_is_a_parse_error(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("scene: [unclosed\n")
        with pytest.raises(ParseError):
            load_scenario(p)

    def test_broken_yaml_is_a_parse_error_under_the_python_parser_too(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_YAML_LOADER", yaml.SafeLoader)
        p = tmp_path / "broken.yaml"
        p.write_text("scene: [unclosed\n")
        with pytest.raises(ParseError):
            load_scenario(p)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
    def test_libyaml_parses_every_yaml_file_as_the_python_parser_does(self, monkeypatch):
        assert harness._YAML_LOADER is yaml.CSafeLoader
        files = sorted(find_scenario("canonical").parent.glob("*.yaml")) + sorted(DATA.glob("*.yaml"))
        assert len(files) == 5
        for path in files:
            text = path.read_text()
            assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader), path
        for name in ("canonical", "canonical_bend", "hanging_lamp", MINI):
            fast = effective_config_text(load_scenario(name))
            monkeypatch.setattr(harness, "_YAML_LOADER", yaml.SafeLoader)
            assert effective_config_text(load_scenario(name)) == fast
            monkeypatch.undo()


class TestSchema:
    def test_unknown_top_level_key(self):
        raw = minimal_raw()
        raw["plannerr"] = {}
        with pytest.raises(ParseError, match=r"unknown key scenario\.plannerr"):
            build_config(raw)

    def test_unknown_nested_key(self):
        raw = minimal_raw()
        raw["planner"] = {"k_atx": 2.0}
        with pytest.raises(ParseError, match=r"unknown key planner\.k_atx"):
            build_config(raw)

    def test_wrong_type_names_the_field(self):
        raw = minimal_raw()
        raw["planner"] = {"k_att": "strong"}
        with pytest.raises(ValidationError, match=r"planner\.k_att must be a number"):
            build_config(raw)

    def test_bool_is_not_a_number(self):
        raw = minimal_raw()
        raw["arbiter"] = {"epsilon_mps": True}
        with pytest.raises(ValidationError, match=r"arbiter\.epsilon_mps"):
            build_config(raw)

    def test_integer_fields_reject_floats(self):
        raw = minimal_raw()
        raw["costmap"] = {"width_cells": 99.5}
        with pytest.raises(ValidationError, match=r"costmap\.width_cells must be an integer"):
            build_config(raw)

    def test_missing_required_scene_field(self):
        raw = minimal_raw()
        del raw["scene"]["goal_m"]
        with pytest.raises(ValidationError, match=r"scene\.goal_m is required"):
            build_config(raw)

    def test_scene_section_is_required(self):
        with pytest.raises(ValidationError, match="scene section is required"):
            build_config({})

    def test_vector_length_is_checked(self):
        raw = minimal_raw()
        raw["scene"]["goal_m"] = [3.5]
        with pytest.raises(ValidationError, match="list of 2 numbers"):
            build_config(raw)

    def test_obstacle_shape_must_be_known(self):
        raw = minimal_raw()
        raw["scene"]["obstacles"] = [
            {"shape": "sphere", "center_m": [1.0, 0.0], "z_span_m": [0.0, 1.0]}
        ]
        with pytest.raises(ValidationError, match=r"scene\.obstacles\[0\]"):
            build_config(raw)

    def test_box_needs_half_extents(self):
        raw = minimal_raw()
        raw["scene"]["obstacles"] = [
            {"shape": "box", "center_m": [1.0, 0.0], "z_span_m": [0.0, 1.0]}
        ]
        with pytest.raises(ValidationError, match="half_extents"):
            build_config(raw)

    def test_invariant_breaches_name_the_section(self):
        raw = minimal_raw()
        raw["safety"] = {"d_safe_m": 0.5, "d_brake_m": 0.5}
        with pytest.raises(ValidationError, match="safety:"):
            build_config(raw)

    def test_cross_section_invariants_are_checked(self):
        raw = minimal_raw()
        raw["scene"]["goal_m"] = [7.0, 0.0]  # outside the corridor
        with pytest.raises(ValidationError):
            build_config(raw)

    def test_repeated_obstacle_ids_are_refused(self, tmp_path, capsys):
        raw = minimal_raw()
        cab = {"shape": "box", "center_m": [1.0, 1.0], "half_extents_m": [0.3, 0.3], "z_span_m": [0.0, 0.9]}
        raw["scene"]["obstacles"] = [dict(cab, id="cab"), dict(cab, id="cab", center_m=[2.5, -1.0])]
        with pytest.raises(ValidationError, match="cab"):
            build_config(raw)
        path = tmp_path / "twin_cabs.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["check", "--scenario", str(path)]) == 2
        assert "cab" in capsys.readouterr().err
        # a config built in code is refused when its episode starts
        raw["scene"]["obstacles"][1]["id"] = "cab2"
        config = build_config(raw)
        first, second = config.scene.obstacles
        twins = dataclasses.replace(config.scene, obstacles=(first, dataclasses.replace(second, obstacle_id="cab")))
        with pytest.raises(ConfigError, match="cab"):
            run_episode(dataclasses.replace(config, scene=twins), Condition.UNASSISTED, 0, tmp_path)
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "section, key, value, rule",
        [
            ("sim", "robot_radius_m", 0.0, "positive"),
            ("sim", "robot_height_m", -0.4, "positive"),
            ("sim", "follower_gain_hz", 0.0, "positive"),
            ("sim", "human_speed_cap_mps", -1.5, "positive"),
            ("sim", "walker_speed_mps", 0.0, "positive"),
            ("sim", "goal_tolerance_m", -0.2, "non-negative"),
            ("sim", "stall_window_s", -2.0, "non-negative"),
            ("sim", "stall_grace_s", -5.0, "non-negative"),
            ("sim", "collision_debounce_s", -1.0, "non-negative"),
            ("sim", "walker_heading_sigma_rad", -0.25, "non-negative"),
            ("scene", "body_radius_m", -0.18, "positive"),
            ("scene", "head_height_m", 0.0, "positive"),
            ("scene", "chest_height_m", -1.3, "positive"),
        ],
    )
    def test_out_of_range_body_and_sim_values_are_refused(self, section, key, value, rule, tmp_path, capsys):
        raw = minimal_raw()
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ValidationError, match=rf"^{section}: {key} must be {rule}$"):
            build_config(raw)
        path = tmp_path / "out_of_range.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["check", "--scenario", str(path)]) == 2
        assert f"{section}: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("planner", "k_att", math.nan),
            ("costmap", "resolution_m", math.nan),
            ("arbiter", "epsilon_mps", math.nan),
            ("sentinel", "d_crit_m", math.nan),
            ("scene", "leash_length_m", math.nan),
            ("scene", "body_radius_m", math.nan),
            ("sim", "walker_heading_sigma_rad", math.nan),
            ("episode", "jitter_xy_m", math.nan),
            ("scene", "goal_m", [math.nan, 0.0]),
            ("costmap", "origin_m", [math.nan, 0.0]),
            ("sensors", "max_range_m", math.inf),
            ("sim", "timeout_s", math.inf),
            ("safety", "d_safe_m", -math.inf),
            ("sentinel", "roi", [40, 120, 60, math.inf]),
            ("planner", "k_rep", 10**400),
        ],
    )
    def test_non_finite_values_are_refused(self, section, key, value, tmp_path, capsys):
        raw = minimal_raw()
        raw.setdefault(section, {})[key] = value
        path = tmp_path / "non_finite.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ValidationError, match=rf"^{section}\.{key} must be finite$"):
            load_scenario(path)
        assert cli.main(["check", "--scenario", str(path)]) == 2
        assert f"{section}.{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("scene", "goal_m", ["3.5", 0.0]),
            ("scene", "goal_m", [3.5, True]),
            ("costmap", "origin_m", [0.0, None]),
            ("sensors", "robot_mount_xyz_m", [0.1, 0.0, "0.4"]),
            ("sentinel", "roi", [40, 120, 60, False]),
        ],
    )
    def test_vector_elements_must_be_numbers(self, section, key, value):
        raw = minimal_raw()
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ValidationError, match=rf"^{section}\.{key} must be a number$"):
            build_config(raw)

    def test_non_finite_obstacle_values_are_refused(self):
        raw = minimal_raw()
        lamp = {"shape": "cylinder", "center_m": [1.0, 0.5], "z_span_m": [1.6, 1.8], "radius_m": 0.2}
        for key, value in (("radius_m", math.nan), ("center_m", [1.0, math.inf]), ("z_span_m", [1.6, math.nan])):
            raw["scene"]["obstacles"] = [dict(lamp, **{key: value})]
            with pytest.raises(ValidationError, match=rf"^scene\.obstacles\[0\]\.{key} must be finite$"):
                build_config(raw)

    def test_sentinel_enabled_must_be_boolean(self):
        raw = minimal_raw()
        raw["sentinel"] = {"enabled": "yes please"}
        with pytest.raises(ValidationError, match=r"sentinel\.enabled"):
            build_config(raw)

    def test_sentinel_roi_round_trips(self):
        raw = minimal_raw()
        raw["sentinel"] = {"roi": [40, 120, 60, 96]}
        cfg = build_config(raw)
        roi = cfg.sentinel.roi
        assert (roi.u_min, roi.u_max, roi.v_min, roi.v_max) == (40, 120, 60, 96)

    @pytest.mark.parametrize("roi", [[40.9, 120.2, 60, 96], [40, 120, 60, 96.5]])
    def test_sentinel_roi_bounds_must_be_whole_pixels(self, roi):
        raw = minimal_raw()
        raw["sentinel"] = {"roi": roi}
        with pytest.raises(ValidationError, match=r"^sentinel\.roi must be a list of 4 whole pixel bounds$"):
            build_config(raw)
        raw["sentinel"] = {"roi": [float(b) for b in (40, 120, 60, 96)]}
        assert build_config(raw).sentinel.roi == RoiSpec(40, 120, 60, 96)

    def test_sentinel_roi_wider_than_the_image_is_rejected(self):
        raw = minimal_raw()
        raw["sentinel"] = {"roi": [10, 200, 2, 3]}
        with pytest.raises(ValidationError, match=r"^sentinel\.roi: .* exceeds 160x120 image$"):
            build_config(raw)

    def test_sentinel_roi_must_fit_a_narrower_image(self):
        raw = minimal_raw()
        raw["sentinel"] = {"roi": [40, 120, 60, 96]}
        raw["sensors"] = {"image_width_px": 100}
        with pytest.raises(ValidationError, match=r"^sentinel\.roi: .* exceeds 100x120 image$"):
            build_config(raw)
        raw["sensors"] = {"image_width_px": 120}
        assert build_config(raw).sentinel.roi.u_max == 120

    def test_sentinel_roi_is_checked_on_configs_built_in_code(self):
        config = dataclasses.replace(
            build_config(minimal_raw()), sentinel=SentinelConfig(roi=RoiSpec(10, 200, 2, 3))
        )
        with pytest.raises(ConfigError, match=r"^sentinel\.roi: "):
            config.validate()

    def test_bend_window_round_trips(self):
        raw = minimal_raw()
        raw["episode"] = {"bend_window_s": [2.0, 5.0]}
        assert build_config(raw).bend_window_s == (2.0, 5.0)

    @pytest.mark.parametrize(
        "section, key, length",
        [
            ("costmap", "origin_m", 2),
            ("costmap", "z_band_m", 2),
            ("safety", "z_band_m", 2),
            ("sensors", "robot_mount_xyz_m", 3),
        ],
    )
    def test_null_vector_names_the_field(self, section, key, length):
        raw = minimal_raw()
        raw[section] = {key: None}
        with pytest.raises(ValidationError, match=rf"^{section}\.{key} must be a list of {length} numbers$"):
            build_config(raw)

    @pytest.mark.parametrize("section, key", [("sentinel", "roi"), ("episode", "bend_window_s")])
    def test_null_leaves_an_optional_vector_unset(self, section, key):
        raw = minimal_raw()
        raw[section] = {key: None}
        assert config_to_dict(build_config(raw)) == config_to_dict(build_config(minimal_raw()))

    def test_obstacle_radius_must_be_a_number(self):
        raw = minimal_raw()
        raw["scene"]["obstacles"] = [
            {"shape": "cylinder", "center_m": [1.0, 0.5], "z_span_m": [0.0, 1.0], "radius_m": [0.2]}
        ]
        with pytest.raises(ValidationError, match=r"scene\.obstacles\[0\]\.radius_m must be a number"):
            build_config(raw)

    @pytest.mark.parametrize("key", ["hfov_deg", "chest_hfov_deg"])
    @pytest.mark.parametrize("degrees", [0, 180])
    def test_degenerate_field_of_view_is_rejected(self, key, degrees):
        raw = minimal_raw()
        raw["sensors"] = {key: degrees}
        with pytest.raises(ValidationError, match=r"^sensors: field of view"):
            build_config(raw)

    def test_defaults_are_filled_in(self):
        cfg = build_config(minimal_raw())
        assert cfg.sim.dt == 0.02
        assert cfg.perception.r_inf_m == 0.35
        assert cfg.sentinel_enabled is True
        assert cfg.rig.robot_intrinsics.width == 160


def _fx(width, hfov_deg):
    return (width / 2.0) / math.tan(math.radians(hfov_deg) / 2.0)


# Every key each section accepts, a valid value for it that differs from
# mini.yaml's, and the leaves of config_to_dict that value must set; no other
# leaf may change.
EVERY_KEY = [
    ("scene", "corridor_min_m", [-3.0, -2.5], {"scene.corridor_min": [-3.0, -2.5]}),
    ("scene", "corridor_max_m", [7.0, 2.5], {"scene.corridor_max": [7.0, 2.5]}),
    ("scene", "start_robot_pose", [0.0, -0.5, 0.1], {"scene.start_robot": [0.0, -0.5, 0.1]}),
    ("scene", "goal_m", [4.0, 0.5], {"scene.goal": [4.0, 0.5]}),
    ("scene", "leash_length_m", 1.2, {"scene.leash_length_m": 1.2}),
    ("scene", "chest_height_m", 1.25, {"scene.chest_height_m": 1.25}),
    ("scene", "body_radius_m", 0.2, {"scene.body_radius_m": 0.2}),
    ("scene", "head_height_m", 1.8, {"scene.head_height_m": 1.8}),
    ("scene", "obstacles", [], {"scene.obstacles": []}),
    ("sensors", "image_width_px", 128, {
        f"rig.{cam}.{leaf}": value
        for cam, hfov in (("robot_intrinsics", 60.0), ("chest_intrinsics", 75.0))
        for leaf, value in (("width", 128), ("cx", 64.0), ("fx", _fx(128, hfov)), ("fy", _fx(128, hfov)))
    }),
    ("sensors", "image_height_px", 96, {
        f"rig.{cam}.{leaf}": value
        for cam in ("robot_intrinsics", "chest_intrinsics")
        for leaf, value in (("height", 96), ("cy", 48.0))
    }),
    ("sensors", "hfov_deg", 50.0, {f"rig.robot_intrinsics.{f}": _fx(160, 50.0) for f in ("fx", "fy")}),
    ("sensors", "chest_hfov_deg", 70.0, {f"rig.chest_intrinsics.{f}": _fx(160, 70.0) for f in ("fx", "fy")}),
    ("sensors", "max_range_m", 4.0, {
        "rig.robot_intrinsics.max_range": 4.0, "rig.chest_intrinsics.max_range": 4.0,
    }),
    ("sensors", "robot_mount_xyz_m", [0.2, 0.0, 0.3], {"rig.robot_mount_xyz": [0.2, 0.0, 0.3]}),
    ("sensors", "robot_mount_pitch_deg", 10.0, {"rig.robot_mount_pitch_rad": math.radians(10.0)}),
    ("sensors", "chest_forward_m", 0.08, {"rig.chest_forward_m": 0.08}),
    ("sensors", "bend_pitch_deg", 40.0, {"rig.bend_pitch_rad": math.radians(40.0)}),
    ("sensors", "depth_sigma_m", 0.01, {"sim.depth_sigma_m": 0.01}),
    ("planner", "k_att", 1.5, {"apf.k_att": 1.5}),
    ("planner", "k_rep", 0.08, {"apf.k_rep": 0.08}),
    ("planner", "d0_m", 0.8, {"apf.d0": 0.8}),
    ("planner", "v_max_mps", 0.5, {"apf.v_max": 0.5}),
    ("planner", "w_max_radps", 1.0, {"apf.w_max": 1.0}),
    ("planner", "admittance_gain", 0.6, {"apf.admittance_gain": 0.6}),
    ("planner", "yaw_gain", 1.2, {"apf.yaw_gain": 1.2}),
    ("planner", "smoothing_alpha", 0.5, {"apf.smoothing_alpha": 0.5}),
    ("costmap", "origin_m", [-1.5, -2.0], {"perception.origin_xy": [-1.5, -2.0]}),
    ("costmap", "resolution_m", 0.1, {"perception.resolution_m": 0.1}),
    ("costmap", "width_cells", 80, {"perception.width": 80}),
    ("costmap", "height_cells", 90, {"perception.height": 90}),
    ("costmap", "r_inf_m", 0.3, {"perception.r_inf_m": 0.3}),
    ("costmap", "z_band_m", [0.05, 0.45], {
        "perception.z_band_low_m": 0.05, "perception.z_band_high_m": 0.45,
    }),
    ("safety", "corridor_half_width_m", 0.4, {"safety.corridor_half_width": 0.4}),
    ("safety", "z_band_m", [0.4, 1.8], {"safety.z_low": 0.4, "safety.z_high": 1.8}),
    ("safety", "d_safe_m", 1.4, {"safety.d_safe": 1.4}),
    ("safety", "d_brake_m", 0.4, {"safety.d_brake": 0.4}),
    ("safety", "v_evade_mps", 0.25, {"safety.v_evade": 0.25}),
    ("safety", "w_evade_radps", 0.8, {"safety.w_evade": 0.8}),
    ("safety", "release_hysteresis_m", 0.3, {"safety.release_hysteresis": 0.3}),
    ("safety", "recovery_duration_s", 2.0, {"safety.recovery_duration": 2.0}),
    ("safety", "brake_hold_s", 0.5, {"safety.brake_hold": 0.5}),
    ("safety", "brake_signal_mps", 0.03, {"safety.brake_signal": 0.03}),
    ("safety", "max_evade_turn_rad", 1.0, {"safety.max_evade_turn": 1.0}),
    ("arbiter", "epsilon_mps", 0.02, {"arbiter.epsilon": 0.02}),
    ("arbiter", "staleness_timeout_s", 0.4, {"arbiter.staleness_timeout": 0.4}),
    ("arbiter", "tick_rate_hz", 25.0, {"arbiter.tick_rate": 25.0}),
    ("arbiter", "char_length_m", 0.6, {"arbiter.char_length": 0.6}),
    ("sentinel", "enabled", False, {"sentinel_enabled": False}),
    ("sentinel", "d_crit_m", 1.0, {"sentinel.d_crit": 1.0}),
    ("sentinel", "debounce_s", 2.0, {"sentinel.debounce": 2.0}),
    ("sentinel", "roi", [40, 120, 60, 96], {
        "sentinel.roi.u_min": 40, "sentinel.roi.u_max": 120,
        "sentinel.roi.v_min": 60, "sentinel.roi.v_max": 96,
    }),
    ("sim", "dt_s", 0.025, {"sim.dt": 0.025}),
    ("sim", "timeout_s", 60.0, {"sim.timeout_s": 60.0}),
    ("sim", "goal_tolerance_m", 0.25, {"sim.goal_tolerance_m": 0.25}),
    ("sim", "exec_min_command", 0.04, {"sim.exec_min_command": 0.04}),
    ("sim", "stall_window_s", 3.0, {"sim.stall_window_s": 3.0}),
    ("sim", "stall_grace_s", 6.0, {"sim.stall_grace_s": 6.0}),
    ("sim", "planner_rate_hz", 12.0, {"sim.planner_rate_hz": 12.0}),
    ("sim", "chest_rate_hz", 12.0, {"sim.chest_rate_hz": 12.0}),
    ("sim", "follower_gain_hz", 2.5, {"sim.follower_gain_hz": 2.5}),
    ("sim", "human_speed_cap_mps", 1.2, {"sim.human_speed_cap_mps": 1.2}),
    ("sim", "robot_radius_m", 0.3, {"sim.robot_radius_m": 0.3}),
    ("sim", "robot_height_m", 0.45, {"sim.robot_height_m": 0.45}),
    ("sim", "collision_debounce_s", 0.8, {"sim.collision_debounce_s": 0.8}),
    ("sim", "walker_rate_hz", 8.0, {"sim.walker_rate_hz": 8.0}),
    ("sim", "walker_speed_mps", 0.4, {"sim.walker_speed_mps": 0.4}),
    ("sim", "walker_heading_sigma_rad", 0.3, {"sim.walker_heading_sigma_rad": 0.3}),
    ("sim", "costmap_memory_s", 1.0, {"sim.costmap_memory_s": 1.0}),
    ("episode", "jitter_xy_m", 0.1, {"jitter_xy_m": 0.1}),
    ("episode", "bend_window_s", [2.0, 5.0], {"bend_window_s": [2.0, 5.0]}),
]


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


class TestEveryKeySetsItsField:
    @pytest.mark.parametrize(
        "section, key, value, expected", EVERY_KEY, ids=[f"{s}.{k}" for s, k, _, _ in EVERY_KEY]
    )
    def test_key_sets_exactly_its_leaves(self, section, key, value, expected):
        raw = yaml.safe_load(MINI.read_text())
        before = dict(_leaves(config_to_dict(build_config(copy.deepcopy(raw)))))
        raw.setdefault(section, {})[key] = value
        after = dict(_leaves(config_to_dict(build_config(raw))))
        changed = {leaf: v for leaf, v in after.items() if before.get(leaf, ...) != v}
        assert changed.keys() == expected.keys()
        for leaf, want in expected.items():
            assert changed[leaf] == (pytest.approx(want) if isinstance(want, float) else want), leaf


class TestConfigDump:
    def test_dict_dump_is_json_serializable(self):
        cfg = load_scenario(MINI)
        dumped = config_to_dict(cfg)
        json.dumps(dumped)  # would raise on ndarray / Enum leftovers
        assert dumped["name"] == "mini"
        assert dumped["scene"]["goal"] == [3.5, 0.0]
        assert dumped["scene"]["obstacles"][0]["kind"] == "ground"

    def test_effective_text_round_trips_through_yaml(self):
        cfg = load_scenario(MINI)
        assert yaml.safe_load(effective_config_text(cfg)) == config_to_dict(cfg)

    def test_canonical_effective_snapshot(self):
        # frozen copy of every resolved default for the main course; a diff
        # here means a default changed and recorded results no longer apply
        expected = (DATA / "canonical_effective.yaml").read_text()
        assert effective_config_text(load_scenario("canonical")) == expected


class TestSeedRange:
    def test_single_seed(self):
        assert parse_seed_range("7") == (7,)

    def test_inclusive_range(self):
        assert parse_seed_range("0..4") == (0, 1, 2, 3, 4)
        assert parse_seed_range("3..3") == (3,)

    def test_descending_range_is_rejected(self):
        with pytest.raises(ConfigError, match="seeds range '4..2' is empty"):
            parse_seed_range("4..2")

    def test_garbage_is_rejected(self):
        for text in ("five", "1..x", "3..", "", "2.5"):
            with pytest.raises(ConfigError, match=f"seeds {text!r} must be an integer or a range"):
                parse_seed_range(text)


def report_of(condition, seed=0, status=TerminationStatus.GOAL, time_s=10.0,
              ground=0, overhead=0, announcements=0):
    return EpisodeReport(
        condition=condition,
        seed=seed,
        status=status,
        completion_time_s=time_s if status is TerminationStatus.GOAL else None,
        collisions_total=ground + overhead,
        collisions_ground=ground,
        collisions_overhead=overhead,
        robot_contacts=0,
        announcements=announcements,
        trace_path="trace.csv",
    )


class TestSweep:
    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="conditions must list at least one condition"):
            SweepSpec(str(MINI), (), (0,), "out")
        with pytest.raises(ConfigError, match="seeds must list at least one seed"):
            SweepSpec(str(MINI), (Condition.UNASSISTED,), (), "out")
        for jobs in (0, -1, 1.5, True, "2"):
            with pytest.raises(ConfigError, match=f"jobs {jobs!r} must be a positive integer"):
                SweepSpec(str(MINI), (Condition.UNASSISTED,), (0,), "out", jobs=jobs)
        SweepSpec(str(MINI), (Condition.UNASSISTED,), (0,), "out", jobs=np.int64(2))

    def test_spec_refuses_a_repeated_condition_or_seed(self):
        # a repeat would run the same episode twice over one trace file and
        # count it twice in the summary
        with pytest.raises(ConfigError, match="conditions list singleview more than once"):
            SweepSpec(str(MINI), (Condition.SINGLE_VIEW, Condition.SINGLE_VIEW), (0,), "out")
        with pytest.raises(ConfigError, match="seeds list 3 more than once"):
            SweepSpec(str(MINI), (Condition.UNASSISTED,), (3, 1, 3), "out")
        SweepSpec(str(MINI), (Condition.UNASSISTED, Condition.SINGLE_VIEW), (1, 3), "out")

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3"])
    def test_spec_refuses_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match=f"seed {seed!r} must be a non-negative integer"):
            SweepSpec(str(MINI), (Condition.UNASSISTED,), (0, seed), "out")
        SweepSpec(str(MINI), (Condition.UNASSISTED,), (0, np.int64(4)), "out")

    @pytest.mark.parametrize("argv", [["run", "--seed", "-1"], ["sweep", "--seeds=-2..-1"]])
    def test_cli_refuses_a_negative_seed_naming_it(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main(argv + ["--scenario", str(MINI), "--out", str(out)]) == 2
        assert "seed -" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_refuses_a_repeated_condition_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--scenario", str(MINI), "--seeds", "0", "--out", str(out)]
        assert cli.main(argv + ["--conditions", "singleview,singleview"]) == 2
        assert "conditions list singleview more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--jobs", "0"], "jobs 0 must be a positive integer"),
        (["--conditions", ","], "conditions must list at least one condition"),
        (["--conditions", "unassisted,walking"], "conditions: 'walking' is not a valid Condition"),
        (["--seeds", "4..2"], "seeds range '4..2' is empty"),
        (["--seeds", "0..three"], "seeds '0..three' must be an integer or a range A..B"),
        (["--seeds", "0,1"], "seeds '0,1' must be an integer or a range A..B"),
    ])
    def test_cli_exits_2_on_a_bad_sweep_spec_naming_the_field(self, tmp_path, capsys, args, message):
        # 2 is the exit code for bad input; 1 is kept for failures while running
        out = tmp_path / "sweep"
        argv = ["sweep", "--scenario", str(MINI), "--seeds", "0", "--out", str(out)]
        assert cli.main(argv + args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_runs_every_cell_in_stable_order(self, tmp_path):
        spec = SweepSpec(
            scenario=str(MINI),
            conditions=(Condition.UNASSISTED, Condition.SINGLE_VIEW),
            seeds=(0, 1),
            out_dir=str(tmp_path),
        )
        reports = run_sweep(spec)
        assert [(r.condition, r.seed) for r in reports] == [
            (Condition.UNASSISTED, 0),
            (Condition.UNASSISTED, 1),
            (Condition.SINGLE_VIEW, 0),
            (Condition.SINGLE_VIEW, 1),
        ]
        for r in reports:
            assert Path(r.trace_path).exists()

    def test_sentinel_override_silences_announcements(self, tmp_path):
        spec = SweepSpec(
            scenario=str(MINI),
            conditions=(Condition.SINGLE_VIEW,),
            seeds=(0,),
            out_dir=str(tmp_path),
            sentinel_enabled=False,
        )
        (report,) = run_sweep(spec)
        assert report.announcements == 0
        assert not Path(report.trace_path).with_suffix(".announcements.txt").exists()

    def test_two_jobs_match_one_job(self, tmp_path):
        def sweep(jobs):
            out = tmp_path / f"jobs{jobs}"
            reports = run_sweep(SweepSpec(str(MINI), tuple(Condition), (0, 1), str(out), jobs=jobs))
            return reports, {p.name: p.read_bytes() for p in out.iterdir()}

        serial, serial_files = sweep(1)
        parallel, parallel_files = sweep(2)
        assert [dataclasses.replace(r, trace_path=Path(r.trace_path).name) for r in parallel] == [
            dataclasses.replace(r, trace_path=Path(r.trace_path).name) for r in serial
        ]
        assert len(serial_files) == 10  # 6 traces, 4 announcement files
        assert parallel_files == serial_files

    def test_summarize_means_and_stds(self):
        reports = [
            report_of(Condition.CROSS_VIEW, 0, time_s=10.0, ground=1, announcements=2),
            report_of(Condition.CROSS_VIEW, 1, time_s=14.0, overhead=2, announcements=1),
            report_of(Condition.CROSS_VIEW, 2, status=TerminationStatus.TIMEOUT, ground=3),
        ]
        summary = summarize(reports)[Condition.CROSS_VIEW]
        assert summary.episodes == 3 and summary.completed == 2
        assert summary.mean_collisions == pytest.approx(np.mean([1, 2, 3]))
        assert summary.std_collisions == pytest.approx(np.std([1, 2, 3], ddof=1))
        assert summary.mean_ground == pytest.approx(np.mean([1, 0, 3]))
        assert summary.mean_overhead == pytest.approx(np.mean([0, 2, 0]))
        # completion stats cover only episodes that reached the goal
        assert summary.mean_time_s == pytest.approx(12.0)
        assert summary.std_time_s == pytest.approx(np.std([10.0, 14.0], ddof=1))
        assert summary.announcements == 3

    def test_summarize_without_completions(self):
        reports = [report_of(Condition.UNASSISTED, 0, status=TerminationStatus.TIMEOUT)]
        summary = summarize(reports)[Condition.UNASSISTED]
        assert summary.completed == 0
        assert math.isnan(summary.mean_time_s)
        assert summary.std_time_s == 0.0

    def test_summarize_skips_absent_conditions(self):
        out = summarize([report_of(Condition.CROSS_VIEW)])
        assert set(out) == {Condition.CROSS_VIEW}

    def test_format_summary_table(self):
        table = format_summary_table(
            summarize(
                [
                    report_of(Condition.UNASSISTED, status=TerminationStatus.TIMEOUT),
                    report_of(Condition.CROSS_VIEW, time_s=12.34, announcements=5),
                ]
            )
        )
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two condition rows
        assert "unassisted" in lines[2] and "—" in lines[2]
        assert "crossview" in lines[3] and "12.34" in lines[3]


def synthetic_trace():
    n = 40
    t = np.linspace(0.0, 3.9, n)
    a = np.zeros(n, dtype=int)
    a[10:20] = 1
    v = np.zeros((n, 3))
    v[10:20, 2] = 0.9
    v[25:30, 2] = -0.9
    robot = np.column_stack([np.linspace(0, 4, n), np.zeros(n)])
    human = np.column_stack([np.linspace(-1, 3, n), 0.2 * np.ones(n)])
    source = ["human" if flag else "apf" for flag in a]
    return TraceData(
        t=t,
        robot_xy=robot,
        robot_theta=np.zeros(n),
        human_xy=human,
        source=source,
        a=a,
        v=v,
        min_roi_depth=np.full(n, np.nan),
        event=[""] * n,
    )


class TestTraceUtils:
    def test_read_trace_round_trip(self, tmp_path):
        rep = run_episode(load_scenario(MINI), Condition.SINGLE_VIEW, 0, out_dir=tmp_path)
        trace = read_trace(rep.trace_path)
        n = len(trace.t)
        assert trace.robot_xy.shape == (n, 2)
        assert trace.human_xy.shape == (n, 2)
        assert trace.v.shape == (n, 3)
        assert len(trace.source) == len(trace.event) == n
        assert trace.t[0] == 0.0
        assert set(trace.source) == {"apf"}
        assert trace.event[-1] == "goal"
        # depth column is NaN before the first planner frame, numeric after
        assert math.isnan(trace.min_roi_depth[0])
        assert np.isfinite(trace.min_roi_depth).any()

    def test_read_trace_rejects_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("t,robot_x\n")
        with pytest.raises(ValueError):
            read_trace(p)

    def test_command_columns_subset(self, tmp_path):
        rep = run_episode(load_scenario(MINI), Condition.SINGLE_VIEW, 0, out_dir=tmp_path)
        text = command_columns(rep.trace_path)
        first = text.splitlines()[0].split(",")
        assert len(first) == 6
        assert first[0] == "0.000" and first[1] == "apf"

    def test_render_text_layout(self):
        out = render_trace_text(synthetic_trace(), width=60, height=12)
        lines = out.splitlines()
        panel, legend, strip_src, strip_w = lines[:12], lines[12], lines[14], lines[15]
        assert all(len(row) <= 60 for row in panel)
        assert "* robot, o human" in legend
        assert strip_src.startswith("source")
        body = strip_src.split("source  ", 1)[1]
        assert "H" in body and "." in body
        wbody = strip_w.split("w_z     ", 1)[1]
        assert "+" in wbody and "-" in wbody and "0" in wbody

    def test_render_svg_structure(self):
        svg = render_trace_svg(synthetic_trace())
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3  # human path, robot path, w_z profile
        # one shaded override interval for the single contiguous a == 1 block
        assert svg.count("<rect") == 2  # background + one shade
        assert "</svg>" in svg
