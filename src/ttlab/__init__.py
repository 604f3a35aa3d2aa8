"""Team-triggered coordination lab: simulator and library for promise-based
multi-agent formation control."""

from .config import (
    ConfigError,
    DwellConfig,
    ScenarioConfig,
    bundled_config,
    load_config,
    save_config,
    validate_config,
)
from .controllers import team_control, u_double_star
from .engine import (
    Engine,
    EngineInvariantError,
    MessageRecord,
    RunResult,
    run,
    run_compare,
    run_self_triggered,
    sweep_lambda,
    write_outputs,
)
from .model import (
    CommGraph,
    ControlInput,
    DiskSet,
    FormationSpec,
    Limits,
    UnicycleState,
    lyapunov,
    lyapunov_gradient,
    safe_mode,
    step_unicycle,
    wrap_angle,
)
from .network import Channel, NetworkParams
from .promises import (
    DynamicBall,
    Promise,
    StaticBall,
    check_breach,
    make_promise,
    validate_noisy_promise,
    view_disk_at,
)
from .triggers import adaptive_dwell, li_v_sup

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "CommGraph",
    "ConfigError",
    "ControlInput",
    "DiskSet",
    "DwellConfig",
    "DynamicBall",
    "Engine",
    "EngineInvariantError",
    "FormationSpec",
    "Limits",
    "MessageRecord",
    "NetworkParams",
    "Promise",
    "RunResult",
    "ScenarioConfig",
    "StaticBall",
    "UnicycleState",
    "adaptive_dwell",
    "bundled_config",
    "check_breach",
    "li_v_sup",
    "load_config",
    "lyapunov",
    "lyapunov_gradient",
    "make_promise",
    "run",
    "run_compare",
    "run_self_triggered",
    "safe_mode",
    "save_config",
    "step_unicycle",
    "sweep_lambda",
    "team_control",
    "u_double_star",
    "validate_config",
    "validate_noisy_promise",
    "view_disk_at",
    "wrap_angle",
    "write_outputs",
]
