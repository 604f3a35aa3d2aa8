import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ttlab
from ttlab.cli import build_parser, main


def test_parser_subcommands():
    ap = build_parser()
    args = ap.parse_args(["run", "--config", "formation4", "--law", "self", "--seed", "7"])
    assert args.command == "run"
    assert args.law == "self"
    assert args.seed == 7
    args = ap.parse_args(["sweep", "--config", "formation4", "--lambda-grid", "0.1,0.5"])
    assert args.lambda_grid == "0.1,0.5"
    assert args.parallel is False


def test_parser_rejects_unknown_law():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--config", "formation4", "--law", "psychic"])


def test_run_prints_summary(capsys):
    rc = main(["run", "--config", "formation4", "--duration", "2", "--tightness", "0.3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "law=team" in out
    assert "V(0)=21451" in out
    assert "N_comm=" in out


def test_run_writes_outputs(tmp_path, capsys):
    outdir = tmp_path / "res"
    rc = main(
        ["run", "--config", "formation4", "--duration", "2", "--out", str(outdir)]
    )
    assert rc == 0
    for name in ("metrics.json", "lyapunov.csv", "messages.csv", "trace.csv"):
        assert (outdir / name).is_file()
    metrics = json.loads((outdir / "metrics.json").read_text())
    assert metrics["law"] == "team"
    assert metrics["n_comm"] > 0


def test_run_accepts_config_path(tmp_path, capsys, scenario):
    from ttlab.config import save_config

    p = tmp_path / "scenario.cfg"
    save_config(scenario, p)
    rc = main(["run", "--config", str(p), "--duration", "1", "--law", "self"])
    assert rc == 0
    assert "law=self" in capsys.readouterr().out


def test_unknown_bundled_name_fails(capsys):
    rc = main(["run", "--config", "no_such_scenario"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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

[dwell]
self_dwell = 0.3

[promise]
rule = static
tightness = 0.1
expiration = none
"""


@pytest.mark.parametrize(
    "old, new, section, key",
    [
        ("tightness = 0.1", "tightness = -0.5", "promise", "tightness"),
        ("rule = static\ntightness = 0.1", "rule = dynamic\nscale = -1", "promise", "scale"),
        ("rule = static\ntightness = 0.1", "rule = dynamic\nfloor = -1", "promise", "floor"),
        ("max_speed = 5.0", "max_speed = -5.0", "limits", "max_speed"),
        ("max_turn = 3.0", "max_turn = 0", "limits", "max_turn"),
        ("self_dwell = 0.3", "self_dwell = -0.3", "dwell", "self_dwell"),
        ("expiration = none", "expiration = abc", "promise", "expiration"),
        ("gain = 10.0", "gain = 0", "formation", "gain"),
        ("distance.0-1 = 1.5", "distance.0-1 = inf", "formation", "distance.0-1"),
        ("distance.0-1 = 1.5", "distance.0-1 = -2", "formation", "distance.0-1"),
        ("distance.0-1 = 1.5", "distance.1-0 = -2", "formation", "distance.1-0"),
        (
            "distance.0-1 = 1.5",
            "distance.0-1 = 2.0\ndistance.1-0 = 3.0",
            "formation",
            "distance.0-1 and distance.1-0",
        ),
        ("edges = 0-1", "edges = 0-1, 0-9", "graph", "edges"),
        ("distance.0-1 = 1.5", "", "graph", "edges"),
        ("expiration = none", "expiration = none\n\n[engine]\ndt = 0.002", "engine", "dt"),
        ("self_dwell = 0.3", "self_dwell = 1e300", "dwell", "self_dwell"),
        ("expiration = none", "expiration = 1e300", "promise", "expiration"),
        ("expiration = none", "expiration = none\n\n[network]\nmax_delay = 1e300", "network", "max_delay"),
        ("expiration = none", "expiration = none\n\n[engine]\nduration = 1e300", "engine", "duration"),
        ("expiration = none", "expiration = none\n\n[engine]\ndt = 4e-10", "engine", "dt"),
        ("expiration = none", "expiration = none\n\n[engine]\nduration = 4e-10", "engine", "duration"),
        ("self_dwell = 0.3", "self_dwell = 0.3\nadaptive = true\nadapt_floor = 1e300", "dwell", "adapt_floor"),
        # A key, section or rule key outside the schema is an error, not ignored.
        ("tightness = 0.1", "tightnes = 0.5", "promise", "tightnes"),
        ("self_dwell = 0.3", "self_dwell = 0.3\nadaptve = true", "dwell", "adaptve"),
        ("expiration = none", "expiration = none\n\n[engnie]\ndt = 0.001", "engnie", "dt"),
        ("tightness = 0.1", "tightness = 0.1\nscale = 0.5", "promise", "scale"),
        ("state.1 = 2.0, 0.0, 1.5707963267948966", "state.1 = 2.0, 0.0, 1.5707963267948966\nstate.2 = 1.0, 1.0, 0.0", "agents", "state.2"),
        ("[graph]", "[DEFAULT]\ntightness = 0.5\n\n[graph]", "DEFAULT", "tightness"),
        # The initial potential overflows.
        ("distance.0-1 = 1.5", "distance.0-1 = 1e300", "formation", "distance.0-1"),
        ("state.0 = 0.0, 0.0, 0.0", "state.0 = 1e155, 10.0, 0", "agents", "state.0"),
    ],
    ids=[
        "tightness",
        "scale",
        "floor",
        "max_speed",
        "max_turn",
        "self_dwell",
        "expiration",
        "gain",
        "distance-inf",
        "distance-negative",
        "distance-negative-reversed",
        "distance-duplicate",
        "edge-out-of-range",
        "edge-without-distance",
        "dt",
        "self_dwell-ns-overflow",
        "expiration-ns-overflow",
        "max_delay-ns-overflow",
        "duration-ns-overflow",
        "dt-below-1ns",
        "duration-below-1ns",
        "adapt_floor-ns-overflow",
        "unknown-key",
        "unknown-bool-key",
        "unknown-section",
        "other-rule-key",
        "state-beyond-agents",
        "default-section",
        "potential-overflow-distance",
        "potential-overflow-state",
    ],
)
def test_bad_config_value_exits_2_without_traceback(tmp_path, capsys, old, new, section, key):
    p = tmp_path / "bad.cfg"
    assert old in MINIMAL
    p.write_text(MINIMAL.replace(old, new))
    rc = main(["run", "--config", str(p), "--duration", "0.01"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(p) in err and f"[{section}]" in err and key in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "formation4", "--tightness", "-1"],
        ["run", "--config", "formation4", "--duration", "inf"],
        ["sweep", "--config", "formation4", "--duration", "0.01", "--lambda-grid", "0.1,-1"],
        ["sweep", "--config", "formation4", "--duration", "0.01", "--lambda-grid", ",,"],
        ["run", "--config", "formation4", "--duration", "1e300"],
        ["run", "--config", "formation4", "--duration", "4e-10"],
        # An existing file cannot be made the output directory.
        ["run", "--config", "formation4", "--duration", "0.01", "--out", __file__],
        ["sweep", "--config", "formation4", "--duration", "0.01", "--lambda-grid", "1", "--out", __file__],
        ["compare", "--config", "formation4", "--duration", "0.01", "--out", __file__],
    ],
    ids=[
        "tightness",
        "duration",
        "lambda-grid",
        "lambda-grid-empty",
        "duration-ns-overflow",
        "duration-below-1ns",
        "run-out-is-a-file",
        "sweep-out-is-a-file",
        "compare-out-is-a-file",
    ],
)
def test_bad_override_exits_2_without_traceback(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert argv[-2].lstrip("-") in err  # the message names the option


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "formation4", "--duration", "0.01", "--tightness", "inf"],
        ["run", "--config", "formation4", "--duration", "0.01", "--tightness", "nan"],
        ["sweep", "--config", "formation4", "--duration", "0.01", "--lambda-grid", "0.1,inf"],
        ["sweep", "--config", "formation4", "--duration", "0.01", "--lambda-grid", "nan"],
    ],
    ids=["run-inf", "run-nan", "sweep-inf", "sweep-nan"],
)
def test_non_finite_tightness_exits_2_saying_finite(capsys, argv):
    """An infinite or NaN tightness is refused as not finite, not as
    negative."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be finite and >= 0" in err
    assert "Traceback" not in err


def test_sweep_table(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--config",
            "formation4",
            "--duration",
            "2",
            "--lambda-grid",
            "0.2,1.0",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "lambda=0.2" in out
    assert "lambda=1" in out
    assert "2 runs" in out
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header.startswith("lambda,")


def test_compare_table(tmp_path, capsys):
    rc = main(
        ["compare", "--config", "formation4", "--duration", "2", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for variant in ("self:", "fpfd:", "fpad:", "apfd:", "apad:"):
        assert variant in out
    assert (tmp_path / "compare.csv").is_file()


def test_console_script_entry_point():
    # The child imports ttlab from where this process does, so the test also
    # runs from a checkout that is not installed.
    src = str(Path(ttlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ttlab.cli", "run", "--config", "formation4", "--duration", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "N_comm=" in proc.stdout


def test_run_ignores_a_bogus_ttlab_log(monkeypatch, capsys):
    """TTLAB_LOG once set a logging level, and a bad one was a traceback.
    The CLI reads no environment variable now."""
    monkeypatch.setenv("TTLAB_LOG", "bogus")
    assert main(["run", "--config", "formation4", "--duration", "0.01"]) == 0
    captured = capsys.readouterr()
    assert "N_comm=" in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_bad_out_fails_before_simulating(monkeypatch, capsys, command):
    """The --out directory is made before the runs, so an unusable one
    fails at once instead of after the whole sweep."""

    def never(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    for name in ("run", "sweep_lambda", "run_compare"):
        monkeypatch.setattr(f"ttlab.cli.{name}", never)
    argv = [command, "--config", "formation4", "--duration", "0.01", "--out", __file__]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["sweep", "--lambda-grid", "0.1,0.2"], "sweep runs the team law"),
        (["sweep", "--lambda-grid", "0.1,0.2", "--parallel"], "sweep runs the team law"),
        (["compare"], "compare runs the team and self laws"),
    ],
    ids=["sweep", "sweep-parallel", "compare"],
)
def test_study_on_a_lossy_channel_exits_2_without_traceback(tmp_path, monkeypatch, capsys, argv, runs):
    """sweep and compare run the team (and self) law, which `run --law team`
    refuses on formation4_robust's lossy channel; they refuse it too, before
    any run or worker pool starts and before the --out directory is made."""

    def never(*args, **kwargs):
        raise AssertionError("simulated a config that validate_config refuses")

    for name in ("run", "ProcessPoolExecutor"):
        monkeypatch.setattr(f"ttlab.engine.{name}", never)
    out = tmp_path / "X" / "sub"
    argv = [argv[0], "--config", "formation4_robust", "--duration", "0.01", "--out", str(out), *argv[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {runs}: drop/delay/noise parameters require law = robust-team")
    assert "Traceback" not in err
    assert not (tmp_path / "X").exists()


@pytest.mark.parametrize(
    "dwell",
    [
        {"self_dwell": 1e9},
        {"self_dwell": 1e200},
        {"adaptive": True, "adapt_scale": 1e300},
    ],
    ids=["self_dwell-1e9", "self_dwell-1e200", "adapt_scale-1e300"],
)
def test_huge_dwell_runs(tmp_path, capsys, scenario, dwell):
    """A dwell far past the run's end is valid: the trigger scan only rolls
    out the grid points it reaches, and an adaptive dwell too long for the
    ns clock is cut to one that still lands past the end."""
    from ttlab.config import save_config

    p = tmp_path / "scenario.cfg"
    save_config(replace(scenario, dwell=replace(scenario.dwell, **dwell)), p)
    rc = main(["run", "--config", str(p), "--duration", "0.05", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "Traceback" not in captured.err
    assert (tmp_path / "out" / "metrics.json").is_file()
