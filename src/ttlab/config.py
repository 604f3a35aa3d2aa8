"""Scenario configuration: INI parsing, validation, and serialization.

The exact section and key names are documented in docs/config_reference.md
and are part of the tool's stable interface. Each scalar section is the fields
of one frozen dataclass (`SECTIONS`, the promise rule, and `ENGINE`), which give
each key's name, type and default; the other formats are parsed by hand. A file
may hold only the keys save_config writes. Parsing failures carry the file path
plus the offending section/key; syntax errors keep configparser's line numbers.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Optional, Tuple

from .model import CommGraph, FormationSpec, Limits, UnicycleState, lyapunov
from .network import NetworkParams
from .promises import DynamicBall, PromiseRuleConfig, StaticBall
from .triggers import NS, to_ns

LAWS = ("self", "team", "robust-team")
RULES = {"static": StaticBall, "dynamic": DynamicBall}
# The keys that are times in seconds, run on the whole-nanosecond clock.
TIME_KEYS = {
    "engine": ("duration", "dt"),
    "dwell": ("self_dwell", "event_dwell", "adapt_floor"),
    "network": ("max_delay",),
    "promise": ("expiration",),
}


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
    promise_rule: PromiseRuleConfig = field(default_factory=StaticBall)
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


# The sections that are all the fields of one dataclass, each held in the
# ScenarioConfig field of the same name, and the fields that are [engine].
SECTIONS = {"limits": Limits, "dwell": DwellConfig, "network": NetworkParams}
ENGINE = [f for f in fields(ScenarioConfig) if f.name in ("law", "duration", "dt", "safe_turn")]


def time_problem(seconds: float) -> Optional[str]:
    """Why `seconds` is not a usable time on the whole-nanosecond clock, or None."""
    if not math.isfinite(seconds * NS):
        return "is not finite in nanoseconds"
    if seconds > 0.0 and to_ns(seconds) == 0:
        return "rounds to 0 ns"
    return None


def _overflow_key(cfg: ScenarioConfig, spec: FormationSpec, graph: CommGraph) -> str:
    """The key to blame for an initial potential that overflows: an edge's
    distance whose fourth power does, or else the agent farthest out."""
    for i, j in graph.edges:
        d = spec.distance(i, j)
        if not math.isfinite(d * d * d * d):
            return f"[formation] distance.{i}-{j} = {d!r}"
    far = max(cfg.initial_states, key=lambda st: abs(st.x) + abs(st.y))
    return f"[agents] state.{cfg.initial_states.index(far)}"


def validate_config(cfg: ScenarioConfig) -> None:
    """Reject configurations the simulator cannot run soundly."""
    if cfg.law not in LAWS:
        raise ConfigError(f"[engine] law must be one of {LAWS}, got {cfg.law!r}")
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
    try:
        v0 = lyapunov(cfg.initial_states, spec, graph)
    except OverflowError:
        v0 = math.inf
    if not math.isfinite(v0):
        raise ConfigError(f"{_overflow_key(cfg, spec, graph)}: the initial potential is not finite")
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
    owner = {"engine": cfg, "promise": cfg, "dwell": cfg.dwell, "network": cfg.network}
    for section, keys in TIME_KEYS.items():
        for key in keys:
            seconds = getattr(owner[section], key) or 0.0
            problem = time_problem(seconds)
            if problem:
                raise ConfigError(f"[{section}] {key} = {seconds!r} {problem}")
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


# For each type of key: how its value is read, and what it is if that fails.
_KINDS = {
    "str": (str, "text"),
    "bool": (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "a boolean"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
}


def _value(parser: configparser.ConfigParser, path: str, section: str, key: str, kind="str"):
    """[section] key as a value of type kind: 'str', 'bool', 'int' or 'float'.
    A float must be finite, and a time key a finite number of nanoseconds."""
    try:
        raw = parser.get(section, key)
    except configparser.NoSectionError:
        raise ConfigError(f"{path}: missing section [{section}]") from None
    except configparser.NoOptionError:
        raise ConfigError(f"{path}: missing key {key!r} in section [{section}]") from None
    where = f"{path}: [{section}] {key} = {raw!r}"
    convert, noun = _KINDS[kind]
    try:
        value = convert(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where} is not {noun}") from None
    ns = key in TIME_KEYS.get(section, ())
    if kind == "float" and not math.isfinite(value * NS if ns else value):
        raise ConfigError(f"{where} is not finite{' in nanoseconds' if ns else ''}")
    return value


def _floats(parser, path: str, section: str, key: str, shape: str, make=lambda *v: v):
    """make(*floats) from [section] key, the comma-separated floats that shape names."""
    parts = _value(parser, path, section, key).split(",")
    if len(parts) != len(shape.split(",")):
        raise ConfigError(f"{path}: [{section}] {key} needs {shape!r}")
    try:
        return make(*(float(v) for v in parts))
    except ValueError as e:
        raise ConfigError(f"{path}: [{section}] {key}: {e}") from None


def _read(parser: configparser.ConfigParser, path: str, section: str, cls, keys=()):
    """cls made from [section]: each of its fields (or of keys) is a key parsed as
    the field's type, and an absent key is left out so that its default applies."""
    kwargs = {
        f.name: _value(parser, path, section, f.name, f.type)
        for f in keys or fields(cls)
        if f.default is MISSING or parser.has_option(section, f.name)
    }
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: [{section}] {e}") from None


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from None
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ConfigError(f"config syntax error: {e}") from None

    spath = str(path)
    # configparser would copy [DEFAULT] keys into every section.
    if parser.defaults():
        keys = ", ".join(parser.defaults())
        raise ConfigError(f"{spath}: [DEFAULT] {keys}: not part of the format")
    n = _value(parser, spath, "graph", "agents", "int")
    if n < 1:
        raise ConfigError(f"{spath}: [graph] agents must be at least 1, got {n}")
    raw_edges = _value(parser, spath, "graph", "edges").split(",")
    edges = tuple(_parse_pair(t.strip(), f"{spath}: [graph] edges") for t in raw_edges if t.strip())

    gain = _value(parser, spath, "formation", "gain", "float")
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
            d = _value(parser, spath, "formation", key, "float")
            if not d > 0.0:
                raise ConfigError(f"{spath}: [formation] {key} must be positive, got {d}")
            distances.append((*pair, d))
    distances.sort()

    states = tuple(
        _floats(parser, spath, "agents", f"state.{k}", "x, y, heading", UnicycleState)
        for k in range(n)
    )
    rule_kind = parser.get("promise", "rule", fallback="static").strip().lower()
    if rule_kind not in RULES:
        raise ConfigError(f"{spath}: [promise] rule = {rule_kind!r} is not {' or '.join(RULES)}")
    schema = {**SECTIONS, "promise": RULES[rule_kind]}
    made = {section: _read(parser, spath, section, cls) for section, cls in schema.items()}
    expiration = None
    if parser.get("promise", "expiration", fallback="none").lower() not in ("none", ""):
        expiration = _value(parser, spath, "promise", "expiration", "float")
    workspace = None
    if parser.has_section("workspace"):
        workspace = _floats(parser, spath, "workspace", "bounds", "xmin, xmax, ymin, ymax")

    cfg = ScenarioConfig(
        n_agents=n,
        edges=edges,
        distances=tuple(distances),
        gain=gain,
        initial_states=states,
        promise_rule=made.pop("promise"),
        expiration=expiration,
        workspace=workspace,  # type: ignore[arg-type]
        **made,
        # The [engine] keys are ScenarioConfig's own, so dict passes them on.
        **_read(parser, spath, "engine", dict, ENGINE),
    )
    # A file may hold only the keys save_config writes, distance.i-j either way round.
    written = _sections(cfg)
    written["formation"].update(dict.fromkeys(pair_keys.values()))
    for section in parser.sections():
        if section not in written:
            keys = ", ".join(parser.options(section)) or "none"
            raise ConfigError(f"{spath}: unknown section [{section}] (keys: {keys})")
        for key in parser.options(section):
            if key not in written[section]:
                known = ", ".join(written[section])
                raise ConfigError(f"{spath}: [{section}] {key} is not one of {known}")
    try:
        validate_config(cfg)
    except (ConfigError, ValueError) as e:
        raise ConfigError(f"{spath}: {e}") from None
    return cfg


def _sections(cfg: ScenarioConfig) -> Dict[str, Dict[str, str]]:
    """The scenario file for cfg: for each section, each key's value as text."""
    def scalars(obj, keys=()) -> Dict[str, str]:
        values = {f.name: getattr(obj, f.name) for f in keys or fields(obj)}
        return {k: str(v).lower() if isinstance(v, bool) else str(v) for k, v in values.items()}

    kind = next(k for k, cls in RULES.items() if isinstance(cfg.promise_rule, cls))
    sections = {
        "graph": {
            "agents": str(cfg.n_agents),
            "edges": ", ".join(f"{i}-{j}" for i, j in cfg.edges),
        },
        "formation": {
            "gain": repr(cfg.gain),
            **{f"distance.{i}-{j}": repr(d) for i, j, d in cfg.distances},
        },
        "agents": {
            f"state.{k}": f"{st.x!r}, {st.y!r}, {st.heading!r}"
            for k, st in enumerate(cfg.initial_states)
        },
        "limits": scalars(cfg.limits),
        "dwell": scalars(cfg.dwell),
        "promise": {
            "rule": kind,
            **scalars(cfg.promise_rule),
            "expiration": "none" if cfg.expiration is None else repr(cfg.expiration),
        },
        "network": scalars(cfg.network),
        "engine": scalars(cfg, ENGINE),
    }
    if cfg.workspace is not None:
        sections["workspace"] = {"bounds": ", ".join(repr(v) for v in cfg.workspace)}
    return sections


def save_config(cfg: ScenarioConfig, path: str | Path) -> None:
    """Write a config back out; load_config(save_config(c)) == c."""
    text = "\n\n".join(
        "\n".join([f"[{section}]", *(f"{k} = {v}" for k, v in keys.items())])
        for section, keys in _sections(cfg).items()
    )
    Path(path).write_text(text + "\n", encoding="utf-8")


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
