import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ttlab.config import (
    ENGINE,
    RULES,
    ConfigError,
    DwellConfig,
    ScenarioConfig,
    bundled_config,
    load_config,
    save_config,
    validate_config,
    with_overrides,
)
from ttlab.network import NetworkParams
from ttlab.promises import DynamicBall, StaticBall

MINIMAL = """
[graph]
agents = 2
edges = 0-1

[formation]
gain = 10.0
distance.0-1 = 1.5

[agents]
state.0 = 0.0, 0.0, 0.0
state.1 = 2.0, 0.0, 1.5707963267948966

[limits]
max_speed = 5.0
max_turn = 3.0
"""


def _write(tmp_path, text, name="scen.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.n_agents == 2
    assert cfg.edges == ((0, 1),)
    assert cfg.law == "team"
    assert cfg.duration == 30.0
    assert cfg.dt == 1e-3
    assert cfg.dwell.self_dwell == 0.3
    assert cfg.promise_rule == StaticBall(0.1)
    assert cfg.expiration is None
    assert cfg.network.ideal
    assert cfg.workspace is None


def test_bundled_scenarios_load():
    cfg = bundled_config("formation4")
    assert cfg.n_agents == 4
    assert cfg.edges == ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3))
    assert cfg.gain == 150.0
    assert cfg.limits.max_speed == 5.0
    assert cfg.limits.max_turn == 3.0
    assert dict(((i, j), d) for i, j, d in cfg.distances)[(1, 3)] == math.sqrt(5.0)

    rob = bundled_config("formation4_robust")
    assert rob.law == "robust-team"
    assert rob.network.drop_prob == 0.3
    assert rob.network.max_delay == 0.05
    assert rob.network.noise_bound == 0.01
    assert rob.network.radius_noise_bound == 0.001
    assert rob.expiration == 1.0
    assert rob.duration == 60.0

    with pytest.raises(ConfigError):
        bundled_config("no_such_scenario")


ROBUST = bundled_config("formation4_robust")


@pytest.mark.parametrize(
    "cfg",
    [
        ROBUST,
        # Every other branch of the writer: the dynamic rule, adaptive dwell, a
        # workspace and safe_turn = false.
        replace(
            ROBUST,
            promise_rule=DynamicBall(0.4, 1e-5),
            dwell=replace(ROBUST.dwell, adaptive=True, adapt_scale=0.7),
            workspace=(-100.0, 100.0, -50.0, 50.0),
            safe_turn=False,
        ),
    ],
    ids=["formation4_robust", "dynamic-adaptive-workspace"],
)
def test_save_load_round_trip(tmp_path, cfg):
    out = tmp_path / "rt.cfg"
    save_config(cfg, out)
    again = load_config(out)
    assert again == cfg


def test_missing_section_and_key_errors(tmp_path):
    with pytest.raises(ConfigError, match=r"missing section \[limits\]"):
        load_config(_write(tmp_path, MINIMAL.replace("[limits]", "[limitz]")))
    with pytest.raises(ConfigError, match="missing key 'gain'"):
        load_config(_write(tmp_path, MINIMAL.replace("gain = 10.0", "")))


def test_unknown_key_is_reported_before_validation(tmp_path):
    # Without the misspelled event_dwell, the default 0.003 makes dt too coarse.
    bad = MINIMAL + "\n[dwell]\nevent_dwel = 0.01\n\n[engine]\ndt = 0.002\n"
    with pytest.raises(ConfigError, match=r"\[dwell\] event_dwel is not one of"):
        load_config(_write(tmp_path, bad))


def test_file_that_is_not_utf8_is_a_config_error(tmp_path):
    p = tmp_path / "utf16.cfg"
    p.write_bytes(b"\xff\xfe" + MINIMAL.encode("utf-16-le"))
    with pytest.raises(ConfigError, match=re.escape(f"{p}: ") + ".*can't decode"):
        load_config(p)


def test_bad_values_carry_location(tmp_path):
    bad = MINIMAL.replace("max_speed = 5.0", "max_speed = fast")
    with pytest.raises(ConfigError, match=r"\[limits\] max_speed"):
        load_config(_write(tmp_path, bad))
    bad = MINIMAL.replace("state.1 = 2.0, 0.0, 1.5707963267948966", "state.1 = 2.0, 0.0")
    with pytest.raises(ConfigError, match="state.1"):
        load_config(_write(tmp_path, bad))


def test_edge_without_distance_rejected(tmp_path):
    bad = MINIMAL.replace("distance.0-1 = 1.5", "distance.0-1 = 1.5\n").replace(
        "edges = 0-1", "edges = 0-1"
    )
    # remove the distance line entirely
    bad = "\n".join(l for l in bad.splitlines() if not l.startswith("distance."))
    with pytest.raises(ConfigError, match="without a target distance"):
        load_config(_write(tmp_path, bad))


@pytest.mark.parametrize("extra", [(0, 1, 9.0), (1, 0, 9.0)], ids=["same-order", "reversed"])
def test_repeated_distance_pair_rejected(extra):
    # A config built in code must not keep the later of two values silently.
    cfg = bundled_config("formation4")
    bad = replace(cfg, distances=cfg.distances + (extra,))
    with pytest.raises(ConfigError, match=r"\[formation\] distance\.0-1"):
        validate_config(bad)


def test_dt_must_resolve_event_dwell(tmp_path):
    bad = MINIMAL + "\n[engine]\ndt = 0.002\n"
    with pytest.raises(ConfigError, match="too coarse"):
        load_config(_write(tmp_path, bad))


def test_noise_requires_robust_law(tmp_path):
    bad = MINIMAL + "\n[network]\ndrop_prob = 0.1\n"
    with pytest.raises(ConfigError, match="robust-team"):
        load_config(_write(tmp_path, bad))
    ok = bad + "\n[engine]\nlaw = robust-team\n"
    cfg = load_config(_write(tmp_path, ok, name="ok.cfg"))
    assert cfg.law == "robust-team"


def test_workspace_bounds(tmp_path):
    out = MINIMAL + "\n[workspace]\nbounds = -1.0, 10.0, -1.0, 10.0\n"
    cfg = load_config(_write(tmp_path, out))
    assert cfg.workspace == (-1.0, 10.0, -1.0, 10.0)
    bad = MINIMAL + "\n[workspace]\nbounds = -1.0, 1.0, -1.0, 1.0\n"
    with pytest.raises(ConfigError, match="outside the workspace"):
        load_config(_write(tmp_path, bad))


def test_dynamic_rule_parsing(tmp_path):
    text = MINIMAL + "\n[promise]\nrule = dynamic\nscale = 0.4\nfloor = 1e-5\n"
    cfg = load_config(_write(tmp_path, text))
    assert cfg.promise_rule == DynamicBall(0.4, 1e-5)
    bad = MINIMAL + "\n[promise]\nrule = cubic\n"
    with pytest.raises(ConfigError, match="static.*dynamic"):
        load_config(_write(tmp_path, bad))


def test_with_overrides():
    cfg = bundled_config("formation4")
    out = with_overrides(cfg, seed=7, law="self", duration=5.0, tightness=0.25)
    assert out.network.seed == 7
    assert out.law == "self"
    assert out.duration == 5.0
    assert out.promise_rule == StaticBall(0.25)
    # the original is untouched
    assert cfg.network.seed != 7 or cfg.network.seed == 0
    with pytest.raises(ConfigError):
        with_overrides(cfg, law="banana")


def test_integer_keys_are_exact(tmp_path):
    bad = MINIMAL.replace("agents = 2", "agents = 4.7")
    with pytest.raises(ConfigError, match=r"\[graph\] agents = '4.7' is not an integer"):
        load_config(_write(tmp_path, bad))
    bad = MINIMAL.replace("agents = 2", "agents = 0")
    with pytest.raises(ConfigError, match=r"\[graph\] agents must be at least 1"):
        load_config(_write(tmp_path, bad))
    big = 2**53 + 1
    cfg = load_config(_write(tmp_path, MINIMAL + f"\n[network]\nseed = {big}\n", name="seed.cfg"))
    assert cfg.network.seed == big


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("engine", "duration", "inf"),
        ("engine", "dt", "nan"),
        ("promise", "expiration", "inf"),
        # Finite seconds, but not a finite number of nanoseconds.
        ("engine", "duration", "1e300"),
        ("dwell", "self_dwell", "1e300"),
        ("promise", "expiration", "1e300"),
        ("network", "max_delay", "1e300"),
    ],
)
def test_non_finite_times_rejected(tmp_path, section, key, value):
    text = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = '{value}' is not finite"):
        load_config(_write(tmp_path, text))


def test_non_finite_override_rejected():
    with pytest.raises(ConfigError, match=r"\[engine\] duration must be finite"):
        with_overrides(bundled_config("formation4"), duration=math.inf)


def _documented_defaults():
    """{(section, key): default} from the `default` columns of the reference."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "config_reference.md"
    out = {}
    for line in doc.read_text().splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("## ["):
            section = line[len("## [") : line.index("]")]
        elif line.startswith("| key |"):
            header = cells
        elif line.startswith("| `") and "default" in header:
            out[(section, cells[0].strip("`"))] = cells[header.index("default")].strip("`")
    return out


def test_reference_defaults_match_the_dataclass_fields():
    """The reference's default column is the one copy of each default outside
    the dataclasses; it must list every defaulted key, and agree with it."""
    owners = {
        "dwell": fields(DwellConfig),
        "promise": fields(StaticBall) + fields(DynamicBall),
        "network": fields(NetworkParams),
        "engine": ENGINE,
    }
    documented = _documented_defaults()
    expected = {(s, f.name): f.default for s, keys in owners.items() for f in keys}
    expected[("promise", "expiration")] = None
    assert set(documented) == set(expected) | {("promise", "rule")}
    rule = {f.name: f for f in fields(ScenarioConfig)}["promise_rule"]
    assert RULES[documented.pop(("promise", "rule"))] is rule.default_factory
    for (section, key), text in documented.items():
        default = expected[(section, key)]
        if default is None or isinstance(default, bool):
            assert text == str(default).lower(), (section, key)
        else:
            assert type(default)(text) == default, (section, key)
