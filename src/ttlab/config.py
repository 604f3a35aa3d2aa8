"""Scenario configuration: INI parsing, validation, and serialization.

The exact section and key names are documented in docs/config_reference.md
and are part of the tool's stable interface. Parsing failures carry the file
path plus the offending section/key; syntax errors keep configparser's
line numbers.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional, Tuple

from .model import CommGraph, FormationSpec, Limits, UnicycleState
from .network import NetworkParams
from .promises import DynamicBall, PromiseRuleConfig, StaticBall

LAWS = ("self", "team", "robust-team")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class DwellConfig:
    self_dwell: float = 0.3
    event_dwell: float = 0.003
    adaptive: bool = False
    adapt_scale: float = 0.6
    adapt_floor: float = 0.3

    def __post_init__(self) -> None:
        names = ["self_dwell", "event_dwell"]
        if self.adaptive:
            names += ["adapt_scale", "adapt_floor"]
        for name in names:
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {v}")


@dataclass(frozen=True)
class ScenarioConfig:
    n_agents: int
    edges: Tuple[Tuple[int, int], ...]
    distances: Tuple[Tuple[int, int, float], ...]
    gain: float
    initial_states: Tuple[UnicycleState, ...]
    limits: Limits
    dwell: DwellConfig = field(default_factory=DwellConfig)
    promise_rule: PromiseRuleConfig = field(default_factory=lambda: StaticBall(0.1))
    expiration: Optional[float] = None
    network: NetworkParams = field(default_factory=NetworkParams)
    law: str = "team"
    duration: float = 30.0
    dt: float = 1e-3
    safe_turn: bool = True
    workspace: Optional[Tuple[float, float, float, float]] = None

    def graph(self) -> CommGraph:
        return CommGraph(self.n_agents, self.edges)

    def formation(self) -> FormationSpec:
        return FormationSpec({(i, j): d for i, j, d in self.distances}, self.gain)


def validate_config(cfg: ScenarioConfig) -> None:
    """Reject configurations the simulator cannot run soundly."""
    if cfg.law not in LAWS:
        raise ConfigError(f"[engine] law must be one of {LAWS}, got {cfg.law!r}")
    if cfg.n_agents < 1:
        raise ConfigError(f"[graph] agents must be at least 1, got {cfg.n_agents}")
    if len(cfg.initial_states) != cfg.n_agents:
        raise ConfigError(
            f"{cfg.n_agents} agents declared but {len(cfg.initial_states)} initial states given"
        )
    try:
        graph = cfg.graph()
    except ValueError as e:
        raise ConfigError(f"[graph] edges: {e}") from None
    seen = set()
    for i, j, _ in cfg.distances:
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ConfigError(f"[formation] distance.{pair[0]}-{pair[1]} is set more than once")
        seen.add(pair)
    try:
        spec = cfg.formation()
    except ValueError as e:
        raise ConfigError(f"[formation] {e}") from None
    missing = [f"{i}-{j}" for i, j in spec.uncovered(graph)]
    if missing:
        raise ConfigError(
            f"[graph] edges {', '.join(missing)} without a target distance: add "
            + ", ".join(f"[formation] distance.{e}" for e in missing)
        )
    for key in ("duration", "dt"):
        v = getattr(cfg, key)
        if not 0.0 < v < math.inf:
            raise ConfigError(f"[engine] {key} must be finite and positive, got {v}")
    if cfg.dt > cfg.dwell.event_dwell / 3.0 + 1e-15:
        raise ConfigError(
            f"[engine] dt = {cfg.dt} too coarse: must be at most a third of"
            f" [dwell] event_dwell = {cfg.dwell.event_dwell}"
        )
    if cfg.expiration is not None and not cfg.dwell.event_dwell < cfg.expiration < math.inf:
        raise ConfigError(
            f"[promise] expiration {cfg.expiration} must be finite and exceed"
            f" event_dwell {cfg.dwell.event_dwell}"
        )
    if cfg.law != "robust-team" and not cfg.network.ideal:
        raise ConfigError(
            "drop/delay/noise parameters require law = robust-team; "
            "the plain team and self laws assume an ideal channel"
        )
    if cfg.workspace is not None:
        xmin, xmax, ymin, ymax = cfg.workspace
        if not (xmin < xmax and ymin < ymax):
            raise ConfigError("workspace bounds must satisfy xmin < xmax and ymin < ymax")
        for k, st in enumerate(cfg.initial_states):
            if not (xmin <= st.x <= xmax and ymin <= st.y <= ymax):
                raise ConfigError(f"initial state of agent {k} lies outside the workspace")


def _parse_pair(text: str, where: str) -> Tuple[int, int]:
    parts = text.split("-")
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected 'i-j', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _get(parser: configparser.ConfigParser, path: str, section: str, key: str) -> str:
    try:
        return parser.get(section, key)
    except configparser.NoSectionError:
        raise ConfigError(f"{path}: missing section [{section}]") from None
    except configparser.NoOptionError:
        raise ConfigError(f"{path}: missing key {key!r} in section [{section}]") from None


def _get_float(parser, path, section, key, default=None) -> float:
    if default is not None and not parser.has_option(section, key):
        return default
    raw = _get(parser, path, section, key)
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{path}: [{section}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: [{section}] {key} = {raw!r} is not finite")
    return value


def _get_int(parser, path, section, key, default=None) -> int:
    if default is not None and not parser.has_option(section, key):
        return default
    raw = _get(parser, path, section, key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{path}: [{section}] {key} = {raw!r} is not an integer") from None


def _in_section(path, section, make, *args, **kwargs):
    """make(*args, **kwargs), locating the ValueError its validation raises."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: [{section}] {e}") from None


def _get_bool(parser, path, section, key, default: bool) -> bool:
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip().lower()
    if raw in ("true", "yes", "on", "1"):
        return True
    if raw in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{path}: [{section}] {key} = {raw!r} is not a boolean")


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from None
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ConfigError(f"config syntax error: {e}") from None

    spath = str(path)
    n = _get_int(parser, spath, "graph", "agents")
    edges_raw = _get(parser, spath, "graph", "edges")
    edges = tuple(
        _parse_pair(tok.strip(), f"{spath}: [graph] edges")
        for tok in edges_raw.split(",")
        if tok.strip()
    )

    gain = _get_float(parser, spath, "formation", "gain")
    distances = []
    pair_keys: Dict[Tuple[int, int], str] = {}
    for key in parser.options("formation"):
        if key.startswith("distance."):
            i, j = _parse_pair(key[len("distance.") :], f"{spath}: [formation] {key}")
            pair = (min(i, j), max(i, j))
            if pair in pair_keys:
                raise ConfigError(
                    f"{spath}: [formation] {pair_keys[pair]} and {key} both set the"
                    f" distance of pair {pair[0]}-{pair[1]}"
                )
            pair_keys[pair] = key
            d = _get_float(parser, spath, "formation", key)
            if not d > 0.0:
                raise ConfigError(f"{spath}: [formation] {key} must be positive, got {d}")
            distances.append((*pair, d))
    distances.sort()

    states = []
    for k in range(n):
        raw = _get(parser, spath, "agents", f"state.{k}")
        parts = [tok.strip() for tok in raw.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"{spath}: [agents] state.{k} needs 'x, y, heading'")
        try:
            states.append(UnicycleState(float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError as e:
            raise ConfigError(f"{spath}: [agents] state.{k}: {e}") from None

    max_speed = _get_float(parser, spath, "limits", "max_speed")
    max_turn = _get_float(parser, spath, "limits", "max_turn")
    limits = _in_section(spath, "limits", Limits, max_speed, max_turn)

    dwell = _in_section(
        spath,
        "dwell",
        DwellConfig,
        self_dwell=_get_float(parser, spath, "dwell", "self_dwell", 0.3),
        event_dwell=_get_float(parser, spath, "dwell", "event_dwell", 0.003),
        adaptive=_get_bool(parser, spath, "dwell", "adaptive", False),
        adapt_scale=_get_float(parser, spath, "dwell", "adapt_scale", 0.6),
        adapt_floor=_get_float(parser, spath, "dwell", "adapt_floor", 0.3),
    )

    rule_kind = parser.get("promise", "rule", fallback="static").strip().lower()
    rule: PromiseRuleConfig
    if rule_kind == "static":
        tightness = _get_float(parser, spath, "promise", "tightness", 0.1)
        rule = _in_section(spath, "promise", StaticBall, tightness)
    elif rule_kind == "dynamic":
        scale = _get_float(parser, spath, "promise", "scale", 0.5)
        floor = _get_float(parser, spath, "promise", "floor", 1e-6)
        rule = _in_section(spath, "promise", DynamicBall, scale, floor)
    else:
        raise ConfigError(f"{spath}: [promise] rule must be 'static' or 'dynamic', got {rule_kind!r}")
    exp_raw = parser.get("promise", "expiration", fallback="none").strip().lower()
    expiration = None
    if exp_raw not in ("none", ""):
        expiration = _get_float(parser, spath, "promise", "expiration")

    network = _in_section(
        spath,
        "network",
        NetworkParams,
        drop_prob=_get_float(parser, spath, "network", "drop_prob", 0.0),
        max_delay=_get_float(parser, spath, "network", "max_delay", 0.0),
        noise_bound=_get_float(parser, spath, "network", "noise_bound", 0.0),
        radius_noise_bound=_get_float(parser, spath, "network", "radius_noise_bound", 0.0),
        seed=_get_int(parser, spath, "network", "seed", 0),
    )

    workspace = None
    if parser.has_section("workspace") and parser.has_option("workspace", "bounds"):
        parts = [tok.strip() for tok in parser.get("workspace", "bounds").split(",")]
        if len(parts) != 4:
            raise ConfigError(f"{spath}: [workspace] bounds needs 'xmin, xmax, ymin, ymax'")
        try:
            workspace = tuple(float(v) for v in parts)  # type: ignore[assignment]
        except ValueError as e:
            raise ConfigError(f"{spath}: [workspace] bounds: {e}") from None

    cfg = ScenarioConfig(
        n_agents=n,
        edges=edges,
        distances=tuple(distances),
        gain=gain,
        initial_states=tuple(states),
        limits=limits,
        dwell=dwell,
        promise_rule=rule,
        expiration=expiration,
        network=network,
        law=parser.get("engine", "law", fallback="team").strip(),
        duration=_get_float(parser, spath, "engine", "duration", 30.0),
        dt=_get_float(parser, spath, "engine", "dt", 1e-3),
        safe_turn=_get_bool(parser, spath, "engine", "safe_turn", True),
        workspace=workspace,
    )
    try:
        validate_config(cfg)
    except (ConfigError, ValueError) as e:
        raise ConfigError(f"{spath}: {e}") from None
    return cfg


def save_config(cfg: ScenarioConfig, path: str | Path) -> None:
    """Write a config back out; load_config(save_config(c)) == c."""
    lines = []
    lines.append("[graph]")
    lines.append(f"agents = {cfg.n_agents}")
    lines.append("edges = " + ", ".join(f"{i}-{j}" for i, j in cfg.edges))
    lines.append("")
    lines.append("[formation]")
    lines.append(f"gain = {cfg.gain!r}")
    for i, j, d in cfg.distances:
        lines.append(f"distance.{i}-{j} = {d!r}")
    lines.append("")
    lines.append("[agents]")
    for k, st in enumerate(cfg.initial_states):
        lines.append(f"state.{k} = {st.x!r}, {st.y!r}, {st.heading!r}")
    lines.append("")
    lines.append("[limits]")
    lines.append(f"max_speed = {cfg.limits.max_speed!r}")
    lines.append(f"max_turn = {cfg.limits.max_turn!r}")
    lines.append("")
    lines.append("[dwell]")
    d = cfg.dwell
    lines.append(f"self_dwell = {d.self_dwell!r}")
    lines.append(f"event_dwell = {d.event_dwell!r}")
    lines.append(f"adaptive = {str(d.adaptive).lower()}")
    lines.append(f"adapt_scale = {d.adapt_scale!r}")
    lines.append(f"adapt_floor = {d.adapt_floor!r}")
    lines.append("")
    lines.append("[promise]")
    if isinstance(cfg.promise_rule, StaticBall):
        lines.append("rule = static")
        lines.append(f"tightness = {cfg.promise_rule.tightness!r}")
    else:
        lines.append("rule = dynamic")
        lines.append(f"scale = {cfg.promise_rule.scale!r}")
        lines.append(f"floor = {cfg.promise_rule.floor!r}")
    lines.append(f"expiration = {'none' if cfg.expiration is None else repr(cfg.expiration)}")
    lines.append("")
    lines.append("[network]")
    nw = cfg.network
    lines.append(f"drop_prob = {nw.drop_prob!r}")
    lines.append(f"max_delay = {nw.max_delay!r}")
    lines.append(f"noise_bound = {nw.noise_bound!r}")
    lines.append(f"radius_noise_bound = {nw.radius_noise_bound!r}")
    lines.append(f"seed = {nw.seed}")
    lines.append("")
    lines.append("[engine]")
    lines.append(f"law = {cfg.law}")
    lines.append(f"duration = {cfg.duration!r}")
    lines.append(f"dt = {cfg.dt!r}")
    lines.append(f"safe_turn = {str(cfg.safe_turn).lower()}")
    if cfg.workspace is not None:
        lines.append("")
        lines.append("[workspace]")
        lines.append("bounds = " + ", ".join(repr(v) for v in cfg.workspace))
    Path(path).write_text("\n".join(lines) + "\n")


def bundled_config(name: str) -> ScenarioConfig:
    """Load one of the configs shipped with the package (by bare name)."""
    from importlib import resources

    ref = resources.files("ttlab").joinpath("data", f"{name}.cfg")
    with resources.as_file(ref) as p:
        if not p.exists():
            raise ConfigError(f"no bundled config named {name!r}")
        return load_config(p)


def with_overrides(
    cfg: ScenarioConfig,
    seed: Optional[int] = None,
    law: Optional[str] = None,
    duration: Optional[float] = None,
    tightness: Optional[float] = None,
) -> ScenarioConfig:
    """Apply CLI-style overrides, revalidating the result."""
    out = cfg
    try:
        if seed is not None:
            out = replace(out, network=replace(out.network, seed=seed))
        if law is not None:
            out = replace(out, law=law)
        if duration is not None:
            out = replace(out, duration=duration)
        if tightness is not None:
            out = replace(out, promise_rule=StaticBall(tightness))
    except ValueError as e:
        raise ConfigError(f"override: {e}") from None
    validate_config(out)
    return out
