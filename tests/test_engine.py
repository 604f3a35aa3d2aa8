from dataclasses import replace

import numpy as np
import pytest

import ttlab.engine as engine_mod
from ttlab.config import with_overrides
from ttlab.promises import BREACH_TOL
from ttlab.engine import run, run_compare, run_self_triggered, sweep_lambda, write_outputs
from ttlab.triggers import rate_bound

OUTPUT_FILES = ("metrics.json", "lyapunov.csv", "messages.csv", "trace.csv")


@pytest.fixture(scope="module")
def short_team(scenario):
    return run(with_overrides(scenario, duration=5.0))


@pytest.fixture(scope="module")
def short_robust(robust_scenario):
    return run(with_overrides(robust_scenario, duration=5.0))


def test_descent_is_monotone(short_team):
    v = short_team.v_series
    assert all(b <= a + 1e-9 * max(1.0, a) for a, b in zip(v, v[1:]))
    assert v[-1] < v[0]


def test_initial_potential_exact(short_team):
    """Integer-exact start: squared-edge errors 2116+81+5329+9025+4900."""
    assert short_team.v_series[0] == 21451.0


def test_tick_grid(short_team):
    ts = short_team.times_ns
    assert ts[0] == 0
    assert ts[-1] == 5_000_000_000
    assert all(b - a == 1_000_000 for a, b in zip(ts, ts[1:]))
    assert len(short_team.trace) == len(ts)
    assert len(short_team.v_series) == len(ts)


def test_trace_modes_are_labeled(short_team):
    modes = {m for _, row in short_team.trace for (_, _, _, m) in row}
    assert modes <= {"nominal", "safe"}
    assert "nominal" in modes
    assert "safe" in modes  # agents park once their certificate expires


def test_n_comm_counts_promise_payloads(short_team):
    m = short_team.metrics
    sent = [r for r in short_team.messages if r.kind == "PROMISE"]
    assert m["n_comm"] == len(sent)
    event_rows = [r for r in sent if r.event]
    assert sum(m["n_e"]) == len(event_rows)


def test_request_accounting(short_team):
    m = short_team.metrics
    for i, times in m["request_times_ns"].items():
        assert m["n_s"][int(i)] == len(times)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= 300_000_000 for g in gaps)
    req_rows = [r for r in short_team.messages if r.kind == "REQ"]
    assert m["n_req_bits"] == len(req_rows)


def test_ideal_channel_delivers_instantly(short_team):
    for r in short_team.messages:
        if r.kind == "PROMISE":
            assert r.deliver_at_ns == r.sent_at_ns


def test_self_equals_team_at_full_tightness(scenario):
    """The worst-case baseline is the team law promising nothing."""
    a = run(with_overrides(scenario, law="team", tightness=1.0, duration=5.0))
    b = run_self_triggered(with_overrides(scenario, duration=5.0))
    assert a.trace == b.trace
    assert a.v_series == b.v_series
    ma, mb = a.metrics, b.metrics
    assert ma["request_times_ns"] == mb["request_times_ns"]
    assert ma["n_comm"] == mb["n_comm"]


def test_self_law_forces_reachability_promises(scenario):
    res = run(with_overrides(scenario, law="self", duration=2.0))
    m = res.metrics
    assert m["promise_rule"] == {"kind": "static", "tightness": 1.0}
    assert m["n_e"] == [0, 0, 0, 0]
    assert m["n_breaches"] == 0


def test_tighter_promises_stretch_certificates(scenario):
    """Smaller promised balls mean fewer requests, paid for in event re-sends."""
    tight = run(with_overrides(scenario, tightness=0.2, duration=5.0))
    loose = run_self_triggered(with_overrides(scenario, duration=5.0))
    assert sum(tight.metrics["n_s"]) < sum(loose.metrics["n_s"])
    assert sum(tight.metrics["n_e"]) > 0
    assert sum(loose.metrics["n_e"]) == 0


def test_event_sends_respect_dwell(short_team):
    m = short_team.metrics
    for times in m["event_send_times_ns"].values():
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= 3_000_000 for g in gaps)
    assert m["max_event_sends_in_window"] <= 2


def test_robust_run_invariants(short_robust):
    m = short_robust.metrics
    assert m["containment_violations"] == 0
    assert m["n_breaches"] == m["n_warn_bits"]  # every breach warns exactly once
    v = short_robust.v_series
    assert all(b <= a + 1e-9 * max(1.0, a) for a, b in zip(v, v[1:]))


def test_robust_channel_drops_and_delays(short_robust):
    rows = [r for r in short_robust.messages if r.kind == "PROMISE"]
    assert any(r.deliver_at_ns is None for r in rows)  # drops happen
    delays = [r.deliver_at_ns - r.sent_at_ns for r in rows if r.deliver_at_ns is not None]
    assert any(d > 0 for d in delays)
    assert all(0 <= d <= 50_000_000 for d in delays)


def test_robust_seed_changes_outcome(robust_scenario):
    a = run(with_overrides(robust_scenario, seed=1, duration=2.0))
    b = run(with_overrides(robust_scenario, seed=2, duration=2.0))
    assert a.v_series != b.v_series


def test_runs_are_reproducible(robust_scenario):
    a = run(with_overrides(robust_scenario, duration=2.0))
    b = run(with_overrides(robust_scenario, duration=2.0))
    assert a.v_series == b.v_series
    assert a.trace == b.trace
    assert [
        (r.sent_at_ns, r.deliver_at_ns, r.kind, r.sender, r.receiver) for r in a.messages
    ] == [(r.sent_at_ns, r.deliver_at_ns, r.kind, r.sender, r.receiver) for r in b.messages]


def test_write_outputs_byte_identical(tmp_path, scenario):
    cfg = with_overrides(scenario, duration=2.0)
    files = ("metrics.json", "lyapunov.csv", "messages.csv", "trace.csv")
    write_outputs(run(cfg), tmp_path / "a")
    write_outputs(run(cfg), tmp_path / "b")
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_lambda_rows(scenario):
    rows = sweep_lambda(with_overrides(scenario, duration=2.0), [0.1, 1.0])
    assert [r["lambda"] for r in rows] == [0.1, 1.0]
    assert all(r["n_comm"] > 0 and r["v_final"] >= 0.0 for r in rows)


def test_compare_table_shape(scenario):
    rows = run_compare(with_overrides(scenario, duration=2.0), sample_dt=0.5)
    assert len(rows) == 5
    assert rows[0]["t_ns"] == 0
    for v in ("self", "fpfd", "fpad", "apfd", "apad"):
        assert f"ncomm_{v}" in rows[0] and f"v_{v}" in rows[0]
    # cumulative message counts never decrease
    for v in ("self", "fpfd"):
        col = [r[f"ncomm_{v}"] for r in rows]
        assert col == sorted(col)
    # the adaptive dwell must actually stretch silences, not alias the fixed one
    assert rows[-1]["ncomm_fpad"] < rows[-1]["ncomm_fpfd"]
    assert rows[-1]["ncomm_apad"] < rows[-1]["ncomm_apfd"]


def test_next_check_is_margin_over_twice_max_speed():
    # 0.5 m of margin at a closing rate of 2 * 5 m/s lasts 0.05 s, less the
    # rounding guard, floored to whole nanoseconds.
    assert engine_mod._next_check_ns(7, 0.5, 5.0) == 7 + 49_999_999
    # A margin inside the guard, or a miss, is checked again on the next tick.
    assert engine_mod._next_check_ns(7, BREACH_TOL, 5.0) <= 7
    assert engine_mod._next_check_ns(7, -1.0, 5.0) <= 7


def _run_counting_checks(cfg, outdir):
    """Run cfg and write its outputs; return them with the containment misses
    and the number of breach-margin evaluations."""
    calls = [0]
    margin = engine_mod.breach_margin

    def counted(*args):
        calls[0] += 1
        return margin(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine_mod, "breach_margin", counted)
        engine = engine_mod.Engine(cfg)
        result = engine.run()
    write_outputs(result, outdir)
    files = {f: (outdir / f).read_bytes() for f in OUTPUT_FILES}
    return result.metrics, files, engine.violations, calls[0]


def _assert_schedule_matches_every_tick(cfg, tmp_path, monkeypatch):
    """Run cfg with the check schedule and with a check on every tick, as if
    the margin bound gave no slack at all; the outputs must be identical."""
    metrics, files, violations, n_scheduled = _run_counting_checks(cfg, tmp_path / "scheduled")
    monkeypatch.setattr(engine_mod, "_next_check_ns", lambda now_ns, margin, max_speed: now_ns)
    ref_metrics, ref_files, ref_violations, n_every = _run_counting_checks(cfg, tmp_path / "every")
    for f in OUTPUT_FILES:
        assert files[f] == ref_files[f], f"{f} differs from the every-tick run"
    assert metrics["n_breaches"] == ref_metrics["n_breaches"]
    assert violations == ref_violations
    assert n_scheduled < n_every
    return metrics, violations


@pytest.mark.parametrize(
    "seed_offset", [None, 0, 1, 2, 3], ids=["team", "robust-0", "robust-1", "robust-2", "robust-3"]
)
def test_check_schedule_matches_every_tick(
    seed_offset, scenario, robust_scenario, tmp_path, monkeypatch
):
    """Skipping the ticks the margin bound proves breach-free changes no output.

    The robust runs take four channel seeds from the bundled one on.
    """
    if seed_offset is None:
        cfg = with_overrides(scenario, duration=2.0)
    else:
        seed = robust_scenario.network.seed + seed_offset
        cfg = with_overrides(robust_scenario, seed=seed, duration=2.0)
    metrics, _ = _assert_schedule_matches_every_tick(cfg, tmp_path, monkeypatch)
    assert metrics["n_breaches"] > 0


def test_containment_schedule_keeps_every_miss(robust_scenario, tmp_path, monkeypatch):
    """With the breach monitor silenced, issuers never warn, so the views go
    stale and containment misses abound; the schedule must find each one on
    the tick the every-tick scan does, across every newly delivered view."""
    monkeypatch.setattr(engine_mod.Engine, "_monitor", lambda self, ag, now_ns: None)
    cfg = with_overrides(robust_scenario, duration=1.0)
    _, violations = _assert_schedule_matches_every_tick(cfg, tmp_path, monkeypatch)
    assert len(violations) > 100


@pytest.mark.parametrize("law", ["team", "robust-team"])
@pytest.mark.parametrize(
    "n, edges", [(1, ()), (3, ((0, 1),))], ids=["one-agent", "isolated-agent"]
)
def test_agent_without_neighbors(scenario, n, edges, law):
    """An agent with no neighbor has no disk to bound: its rate is zero, so
    its certificate expires at once and it stays where it started, while
    the agents that have neighbors still close their edge."""
    assert rate_bound(1.0, 2.0, 3.0, 4.0, [], []).tolist() == [0.0]
    assert rate_bound(*np.ones((4, 5)), [], []).tolist() == [0.0] * 5
    cfg = replace(
        with_overrides(scenario, duration=0.5, law=law),
        n_agents=n,
        edges=edges,
        distances=tuple((i, j, 2.0) for i, j in edges),
        initial_states=scenario.initial_states[:n],
    )
    res = run(cfg)
    start = cfg.initial_states[-1]
    assert {row[-1][:2] for _, row in res.trace} == {(start.x, start.y)}
    if edges:
        assert res.v_series[-1] < res.v_series[0]
    else:
        assert set(res.v_series) == {0.0}
