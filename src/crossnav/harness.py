"""Scenario files, batch sweeps, and trace utilities.

Scenario files are YAML with explicit units in key names (``d_safe_m``,
``tick_rate_hz``); every key is validated and unknown keys are rejected so a
typo cannot silently fall back to a default. ``_SCHEMA`` lists the keys of
each section and the config dataclass each one fills. The defaults live on
those dataclasses (and on ``sim.default_rig``), not here: a key a file omits
is never passed. ``crossnav check --print-effective`` prints every resolved
value.
"""

from __future__ import annotations

import csv
import dataclasses
import inspect
import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .arbiter import ArbiterConfig
from .human_branch import HumanSafetyParams
from .planner import ApfParams
from .sentinel import RoiOutOfBounds, RoiSpec, SentinelConfig
from .sim import (
    Condition,
    ConfigError,
    EpisodeConfig,
    EpisodeReport,
    PerceptionSpec,
    SensorRig,
    SimParams,
    TerminationStatus,
    check_seed,
    default_rig,
    run_episode,
)
from .world import Obstacle, ObstacleKind, ObstacleShape, Scene


class ParseError(Exception):
    """Malformed scenario file: bad syntax, wrong structure, or unknown keys."""


class ValidationError(Exception):
    """Well-formed scenario that breaks an invariant; names the field."""


_SCENARIO_DIR = Path(__file__).parent / "scenarios"


def find_scenario(name_or_path) -> Path:
    """Resolve a scenario argument: a file path, or the name of a shipped file."""
    p = Path(name_or_path)
    if p.suffix in (".yaml", ".yml") and p.exists():
        return p
    shipped = _SCENARIO_DIR / f"{name_or_path}.yaml"
    if shipped.exists():
        return shipped
    if p.exists():
        return p
    names = sorted(f.stem for f in _SCENARIO_DIR.glob("*.yaml"))
    raise ParseError(f"no scenario {name_or_path!r}; shipped scenarios: {', '.join(names)}")


# ---------------------------------------------------------------------------
# schema


def _require_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"{path} must be a mapping")
    return value


def _check_keys(mapping: dict, allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ParseError(f"unknown key {path}.{unknown[0]}")


# Each section lists, per constructor it fills, the keys it accepts. A key
# names its parameter directly or with a unit suffix (``d0_m`` -> ``d0``,
# ``tick_rate_hz`` -> ``tick_rate``); a ``_deg`` key fills the ``_rad``
# parameter of the same stem, converted. Only the keys a file sets are passed,
# so every default lives on its dataclass (or on ``default_rig``) alone.
_SCHEMA = {
    "scene": {
        Scene: "obstacles start_robot_pose goal_m corridor_min_m corridor_max_m"
        " leash_length_m chest_height_m body_radius_m head_height_m",
    },
    "sensors": {
        default_rig: "image_width_px image_height_px hfov_deg chest_hfov_deg max_range_m",
        SensorRig: "robot_mount_xyz_m robot_mount_pitch_deg chest_forward_m bend_pitch_deg",
        SimParams: "depth_sigma_m",
    },
    "planner": {
        ApfParams: "k_att k_rep d0_m v_max_mps w_max_radps admittance_gain yaw_gain smoothing_alpha",
    },
    "costmap": {PerceptionSpec: "origin_m resolution_m width_cells height_cells r_inf_m z_band_m"},
    "safety": {
        HumanSafetyParams: "corridor_half_width_m z_band_m d_safe_m d_brake_m v_evade_mps w_evade_radps"
        " release_hysteresis_m recovery_duration_s brake_hold_s brake_signal_mps max_evade_turn_rad",
    },
    "arbiter": {ArbiterConfig: "epsilon_mps staleness_timeout_s tick_rate_hz char_length_m"},
    "sentinel": {SentinelConfig: "d_crit_m debounce_s roi", EpisodeConfig: "enabled"},
    "sim": {
        SimParams: "dt_s timeout_s goal_tolerance_m exec_min_command stall_window_s stall_grace_s"
        " planner_rate_hz chest_rate_hz follower_gain_hz human_speed_cap_mps robot_radius_m"
        " robot_height_m collision_debounce_s walker_rate_hz walker_speed_mps"
        " walker_heading_sigma_rad costmap_memory_s",
    },
    "episode": {EpisodeConfig: "jitter_xy_m bend_window_s"},
}

# Keys that the suffix rule does not map; a tuple splits a pair over two fields.
_RENAMED = {
    "scene.start_robot_pose": "start_robot",
    "costmap.origin_m": "origin_xy",
    "costmap.z_band_m": ("z_band_low_m", "z_band_high_m"),
    "safety.z_band_m": ("z_low", "z_high"),
    "sentinel.enabled": "sentinel_enabled",
}

# Keys holding a list of numbers, and its length. Every other key but those
# in ``_READERS`` holds a scalar of its default's type.
_VECTORS = {
    "scene.start_robot_pose": 3,
    "scene.goal_m": 2,
    "scene.corridor_min_m": 2,
    "scene.corridor_max_m": 2,
    "sensors.robot_mount_xyz_m": 3,
    "costmap.origin_m": 2,
    "costmap.z_band_m": 2,
    "safety.z_band_m": 2,
    "episode.bend_window_s": 2,
}

_TOP_KEYS = ("name", *_SCHEMA)


def _number(value, path: str) -> float:
    """An int or float as a float; refuses booleans, NaN, the infinities and ints too big for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{path} must be finite")
    return number


def _vector(value, length: int, path: str) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ValidationError(f"{path} must be a list of {length} numbers")
    return tuple(_number(v, path) for v in value)


def _obstacles(value, path: str) -> Tuple[Obstacle, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{path} must be a list")
    return tuple(_parse_obstacle(entry, i) for i, entry in enumerate(value))


def _roi(value, path: str) -> RoiSpec:
    bounds = _vector(value, 4, path)
    if not all(b.is_integer() for b in bounds):
        raise ValidationError(f"{path} must be a list of 4 whole pixel bounds")
    try:
        return RoiSpec(*(int(b) for b in bounds))
    except RoiOutOfBounds as exc:
        raise ValidationError(f"{path}: {exc}") from exc


_READERS = {"scene.obstacles": _obstacles, "sentinel.roi": _roi}


def _value(value, default, path: str):
    """Check one value a file sets against the kind of its key."""
    if path in _READERS:
        return _READERS[path](value, path)
    if path in _VECTORS:
        return _vector(value, _VECTORS[path], path)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValidationError(f"{path} must be a boolean")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{path} must be an integer")
        return value
    return _number(value, path)


def _field(key: str, params) -> str:
    stem = key.rpartition("_")[0]
    for name in (key, stem + "_rad" if key.endswith("_deg") else stem):
        if name in params:
            return name
    raise KeyError(f"no parameter for scenario key {key!r}")


def _resolve() -> Dict[str, list]:
    """Per section: (key, constructor, parameter name or pair, its default) for each key."""
    resolved: Dict[str, list] = {}
    for section, rows in _SCHEMA.items():
        for target, keys in rows.items():
            params = inspect.signature(target).parameters
            for key in keys.split():
                names = _RENAMED.get(f"{section}.{key}") or _field(key, params)
                default = params[names[0] if isinstance(names, tuple) else names].default
                resolved.setdefault(section, []).append((key, target, names, default))
    return resolved


_KEYS = _resolve()


def _read(raw: dict) -> Dict[object, dict]:
    """Keyword arguments for each constructor in the schema, from the keys a file sets."""
    args: Dict[object, dict] = {target: {} for rows in _SCHEMA.values() for target in rows}
    for section, keys in _KEYS.items():
        sec = _require_mapping(raw.get(section), section)
        _check_keys(sec, [key for key, *_ in keys], section)
        for key, target, names, default in keys:
            path = f"{section}.{key}"
            value = sec.get(key)
            # the scene's vectors have no default
            if value is None and default is inspect.Parameter.empty and path in _VECTORS:
                raise ValidationError(f"{path} is required")
            if key not in sec or (value is None and default is None):
                continue  # unset: the default stands
            value = _value(value, default, path)
            if isinstance(names, tuple):
                args[target].update(zip(names, value))
            elif key.endswith("_deg") and names.endswith("_rad"):
                args[target][names] = math.radians(value)
            else:
                args[target][names] = value
    return args


def _make(section: str, build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except (ValueError, ConfigError) as exc:
        raise ValidationError(f"{section}: {exc}") from exc


def _parse_obstacle(entry, index: int) -> Obstacle:
    path = f"scene.obstacles[{index}]"
    entry = _require_mapping(entry, path)
    _check_keys(entry, ("id", "shape", "kind", "center_m", "half_extents_m", "radius_m", "z_span_m"), path)
    try:
        shape = ObstacleShape(entry.get("shape", "box"))
        kind = ObstacleKind(entry.get("kind", "ground"))
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    for key in ("center_m", "z_span_m"):
        if entry.get(key) is None:
            raise ValidationError(f"{path}.{key} is required")
    center = _vector(entry["center_m"], 2, f"{path}.center_m")
    z_span = _vector(entry["z_span_m"], 2, f"{path}.z_span_m")
    half = entry.get("half_extents_m")
    radius = entry.get("radius_m")
    return _make(
        path,
        Obstacle,
        obstacle_id=str(entry.get("id", f"obstacle_{index}")),
        shape=shape,
        center=center,
        z_min=z_span[0],
        z_max=z_span[1],
        kind=kind,
        half_extents=None if half is None else _vector(half, 2, f"{path}.half_extents_m"),
        radius=None if radius is None else _number(radius, f"{path}.radius_m"),
    )


def build_config(raw: dict, default_name: str = "scenario") -> EpisodeConfig:
    """Turn a parsed scenario mapping into a validated EpisodeConfig."""
    raw = _require_mapping(raw, "scenario")
    _check_keys(raw, _TOP_KEYS, "scenario")
    if not _require_mapping(raw.get("scene"), "scene"):
        raise ValidationError("scene section is required")
    args = _read(raw)
    rig = _make("sensors", default_rig, **args[default_rig])
    config = EpisodeConfig(
        scene=_make("scene", Scene, **{"obstacles": (), **args[Scene]}),
        rig=_make("sensors", dataclasses.replace, rig, **args[SensorRig]),
        perception=_make("costmap", PerceptionSpec, **args[PerceptionSpec]),
        apf=_make("planner", ApfParams, **args[ApfParams]),
        safety=_make("safety", HumanSafetyParams, **args[HumanSafetyParams]),
        arbiter=_make("arbiter", ArbiterConfig, **args[ArbiterConfig]),
        sentinel=_make("sentinel", SentinelConfig, **args[SentinelConfig]),
        sim=_make("sim", SimParams, **args[SimParams]),
        name=str(raw.get("name", default_name)),
        **args[EpisodeConfig],
    )
    try:
        config.validate()
    except ConfigError as exc:
        raise ValidationError(str(exc)) from exc
    return config


# libyaml's parser where PyYAML was built with it: the same safe constructors
# and resolvers as yaml.safe_load, so the same mappings, about 8x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(name_or_path) -> EpisodeConfig:
    """Load and fully validate a scenario file.

    Raises ParseError for malformed files or unknown keys, ValidationError
    (naming the field) for invariant breaches.
    """
    path = find_scenario(name_or_path)
    try:
        raw = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if raw is None:
        raise ParseError(f"{path}: empty scenario file")
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return build_config(raw, default_name=path.stem)


def config_to_dict(config: EpisodeConfig) -> dict:
    """Fully resolved configuration as plain data (for snapshots and dumps)."""

    def conv(v):
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [conv(x) for x in v]
        if isinstance(v, np.ndarray):
            return [conv(x) for x in v.tolist()]
        if isinstance(v, Enum):
            return v.value
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        return v

    return conv(dataclasses.asdict(config))


def effective_config_text(config: EpisodeConfig) -> str:
    return yaml.safe_dump(config_to_dict(config), sort_keys=True)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    scenario: str
    conditions: Tuple[Condition, ...]
    seeds: Tuple[int, ...]
    out_dir: str
    jobs: int = 1
    sentinel_enabled: Optional[bool] = None  # None: as the scenario says

    def __post_init__(self):
        for name in ("conditions", "seeds"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must list at least one {name[:-1]}")
        for seed in self.seeds:
            check_seed(seed)
        for name, values in (("conditions", self.conditions), ("seeds", self.seeds)):
            for i, v in enumerate(values):
                if v in values[:i]:  # the same episode would run twice over one trace
                    raise ConfigError(f"{name} list {getattr(v, 'value', v)} more than once")
        if isinstance(self.jobs, bool) or not isinstance(self.jobs, numbers.Integral) or self.jobs < 1:
            raise ConfigError(f"jobs {self.jobs!r} must be a positive integer")


def parse_seed_range(text: str) -> Tuple[int, ...]:
    """Parse "A..B" (inclusive) or a single integer; ConfigError names what is wrong."""
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:
        raise ConfigError(f"seeds {text!r} must be an integer or a range A..B") from None
    if hi < lo:
        raise ConfigError(f"seeds range {text!r} is empty")
    return tuple(range(lo, hi + 1))


def run_sweep(spec: SweepSpec) -> List[EpisodeReport]:
    """Execute every (condition, seed) episode; order of reports is stable.

    The scenario is loaded once per sweep. ``run_episode`` is this module's
    global, looked up at call time, so a wrapper installed there sees every
    episode.
    """
    config = load_scenario(spec.scenario)
    if spec.sentinel_enabled is not None:
        config = dataclasses.replace(config, sentinel_enabled=spec.sentinel_enabled)
    conditions, seeds = zip(*itertools.product(spec.conditions, spec.seeds))
    args = (itertools.repeat(config), conditions, seeds, itertools.repeat(spec.out_dir))
    if spec.jobs == 1:
        return list(map(run_episode, *args))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
        return list(pool.map(run_episode, *args))


@dataclass(frozen=True)
class ConditionSummary:
    condition: Condition
    episodes: int
    completed: int
    mean_collisions: float
    std_collisions: float
    mean_ground: float
    mean_overhead: float
    mean_time_s: float  # over completed episodes; nan when none finished
    std_time_s: float
    announcements: int


def summarize(reports: Sequence[EpisodeReport]) -> Dict[Condition, ConditionSummary]:
    """Per-condition mean and std of collision counts and completion times.

    A pure function of the reports; completion statistics cover only
    episodes that reached the goal.
    """
    out: Dict[Condition, ConditionSummary] = {}
    for condition in Condition:
        batch = [r for r in reports if r.condition is condition]
        if not batch:
            continue
        totals = np.array([r.collisions_total for r in batch], dtype=float)
        ground = np.array([r.collisions_ground for r in batch], dtype=float)
        overhead = np.array([r.collisions_overhead for r in batch], dtype=float)
        times = np.array(
            [r.completion_time_s for r in batch if r.status is TerminationStatus.GOAL], dtype=float
        )
        out[condition] = ConditionSummary(
            condition=condition,
            episodes=len(batch),
            completed=int(times.size),
            mean_collisions=float(totals.mean()),
            std_collisions=float(totals.std(ddof=1)) if totals.size > 1 else 0.0,
            mean_ground=float(ground.mean()),
            mean_overhead=float(overhead.mean()),
            mean_time_s=float(times.mean()) if times.size else float("nan"),
            std_time_s=float(times.std(ddof=1)) if times.size > 1 else 0.0,
            announcements=sum(r.announcements for r in batch),
        )
    return out


def format_summary_table(summaries: Dict[Condition, ConditionSummary]) -> str:
    header = (
        f"{'condition':<12} {'n':>3} {'done':>4} {'collisions':>14} "
        f"{'ground':>7} {'overhead':>9} {'time [s]':>16} {'announce':>9}"
    )
    lines = [header, "-" * len(header)]
    for condition in Condition:
        s = summaries.get(condition)
        if s is None:
            continue
        time_part = (
            f"{s.mean_time_s:7.2f} ± {s.std_time_s:5.2f}" if s.completed else f"{'—':>15}"
        )
        lines.append(
            f"{s.condition.value:<12} {s.episodes:>3} {s.completed:>4} "
            f"{s.mean_collisions:6.2f} ± {s.std_collisions:4.2f} "
            f"{s.mean_ground:7.2f} {s.mean_overhead:9.2f} {time_part:>16} {s.announcements:>9}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# trace files


@dataclass(frozen=True)
class TraceData:
    t: np.ndarray
    robot_xy: np.ndarray  # (N, 2)
    robot_theta: np.ndarray
    human_xy: np.ndarray  # (N, 2)
    source: List[str]
    a: np.ndarray  # int
    v: np.ndarray  # (N, 3) v_x, v_y, w_z
    min_roi_depth: np.ndarray  # NaN where blank
    event: List[str]


def read_trace(path) -> TraceData:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty trace")
    n = len(rows)
    t = np.array([float(r["t"]) for r in rows])
    robot = np.array([[float(r["robot_x"]), float(r["robot_y"])] for r in rows])
    theta = np.array([float(r["robot_theta"]) for r in rows])
    human = np.array([[float(r["human_x"]), float(r["human_y"])] for r in rows])
    v = np.array([[float(r["v_x"]), float(r["v_y"]), float(r["w_z"])] for r in rows])
    depth = np.array(
        [float(r["min_roi_depth"]) if r["min_roi_depth"] else math.nan for r in rows]
    )
    return TraceData(
        t=t,
        robot_xy=robot,
        robot_theta=theta,
        human_xy=human,
        source=[r["source"] for r in rows],
        a=np.array([int(r["A"]) for r in rows]),
        v=v,
        min_roi_depth=depth,
        event=[r["event"] for r in rows],
    )


def command_columns(path) -> str:
    """The executed-command portion of a trace (t, source, A, v_x, v_y, w_z).

    Lets tests compare control behavior between runs whose diagnostic
    columns legitimately differ (for example with the sentinel disabled).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        lines = [
            ",".join((r["t"], r["source"], r["A"], r["v_x"], r["v_y"], r["w_z"])) for r in reader
        ]
    return "\n".join(lines)
