"""Cross-view guide-robot navigation: a deterministic closed-loop simulation.

A low quadruped-style robot plans over its own depth view while a chest-height
camera worn by the guided human covers the hazards the robot cannot see
(hanging lamps, branches). A reactive branch turns that second viewpoint into
velocity overrides with strict priority over the planner, and a depth sentinel
turns near-field geometry into spoken-style announcements.
"""

from .arbiter import ArbiterConfig, ArbitrationDecision, arbitrate, command_norm
from .geometry import (
    FrameId,
    FrameMismatch,
    InvalidRotation,
    PointCloud,
    RigidTransform,
    compose,
    invert,
    optical_to_physical,
    transform_points,
)
from .harness import (
    ConditionSummary,
    ParseError,
    SweepSpec,
    TraceData,
    ValidationError,
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
from .human_branch import HazardInfo, HumanBranch, HumanSafetyParams, Phase, detect_hazard
from .perception import (
    FREE,
    INFLATED,
    OCCUPIED,
    Costmap2D,
    InvalidGrid,
    build_costmap,
    inflate,
    nonfree_centers,
    passthrough_filter,
)
from .planner import (
    ApfParams,
    CommandSource,
    ForceVector,
    VelocityCommand,
    admittance_map,
    apf_force,
    attractive_force,
    potential,
    repulsive_force,
)
from .sentinel import (
    HazardEvent,
    ObstacleSighting,
    RoiSpec,
    SentinelConfig,
    TemplateDescriber,
    check_trigger,
    default_roi,
    describe,
    roi_min_depth,
)
from .sim import (
    BendPose,
    CollisionTracker,
    Condition,
    ConfigError,
    EpisodeConfig,
    EpisodeReport,
    PerceptionSpec,
    SensorRig,
    SimParams,
    TerminationStatus,
    WorldState,
    chest_observation,
    default_rig,
    human_follower,
    jitter_scene,
    robot_branch_observation,
    run_episode,
    step,
)
from .world import (
    CameraIntrinsics,
    DepthImage,
    Obstacle,
    ObstacleKind,
    ObstacleShape,
    Scene,
    apply_depth_noise,
    deproject,
    render_depth,
)

__version__ = "0.1.0"
