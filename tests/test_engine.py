import itertools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import ttlab.engine as engine_mod
import ttlab.triggers as triggers_mod
from ttlab.cli import main
from ttlab.config import bundled_config, validate_config, with_overrides
from ttlab.model import ControlInput, UnicycleState
from ttlab.promises import BREACH_TOL, expected_position
from ttlab.engine import (
    COMPARE_VARIANTS,
    MessageRecord,
    RunResult,
    run,
    run_compare,
    run_self_triggered,
    sweep_lambda,
    write_compare_csv,
    write_outputs,
    write_sweep_csv,
)
from ttlab.triggers import rate_bound

from test_golden import GOLDEN, PATHS, golden_config
from test_triggers import _count_calls, _scan_to_end

OUTPUT_FILES = ("metrics.json", "lyapunov.csv", "messages.csv", "trace.csv")


@pytest.fixture(scope="module")
def short_team(scenario):
    return run(with_overrides(scenario, duration=5.0))


@pytest.fixture(scope="module")
def short_robust(robust_scenario):
    return run(with_overrides(robust_scenario, duration=5.0))


@pytest.fixture(scope="module")
def short_tight(scenario):
    """Tight promises breach often enough that event sends land exactly one
    event dwell apart, two to a window."""
    return run(with_overrides(scenario, tightness=0.05, duration=2.0))


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


@pytest.mark.parametrize("fixture", ["short_team", "short_robust", "short_tight"])
def test_n_comm_counts_promise_payloads(fixture, request):
    res = request.getfixturevalue(fixture)
    m = res.metrics
    sent = [r for r in res.messages if r.kind == "PROMISE"]
    assert m["n_comm"] == len(sent)
    event_rows = [r for r in sent if r.event]
    assert sum(m["n_e"]) == len(event_rows)
    assert m["n_warn_bits"] == sum(r.kind == "WARN" for r in res.messages)
    by_pair = {}
    for r in event_rows:
        by_pair.setdefault(f"{r.sender}->{r.receiver}", []).append(r.sent_at_ns)
    assert m["event_send_times_ns"] == by_pair
    dwell_ns = m["dwell"]["event_dwell_ns"]
    brute = max(
        (sum(t <= u <= t + dwell_ns for u in times) for times in by_pair.values() for t in times),
        default=0,
    )
    assert m["max_event_sends_in_window"] == brute


@pytest.mark.parametrize("fixture", ["short_team", "short_robust"])
def test_request_accounting(fixture, request):
    res = request.getfixturevalue(fixture)
    m = res.metrics
    for i, times in m["request_times_ns"].items():
        assert m["n_s"][int(i)] == len(times)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= 300_000_000 for g in gaps)
    req_rows = [r for r in res.messages if r.kind == "REQ"]
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


# Edge values for the writer oracle: signed zero, the least subnormal, tiny
# and huge magnitudes, a value with no short decimal form, integral values
# and the non-finite ones; times on and next to whole seconds.
EDGE_FLOATS = (-0.0, 5e-324, 1e-300, 1e300, 0.1, 3.0, -2.0, 2.0**60, math.inf, -math.inf, math.nan)
EDGE_NS = (0, 1, 999_999_999, 10**9, 30 * 10**9)


def _t_cell(ns):
    return f"{ns // 10**9}.{ns % 10**9:09d}"


def _g(v, digits):
    return format(v, f".{digits}g")


def _csv(rows):
    """The reference CSV bytes: cells joined by commas, lines ended by CRLF."""
    return "".join(",".join(cells) + "\r\n" for cells in rows).encode()


def test_write_outputs_matches_a_per_cell_oracle(tmp_path, scenario):
    """Every run file equals a per-cell reference: times as exact decimal
    seconds, floats as format(v, ".17g"), CRLF line endings, and DROPPED for
    a message that never arrived."""
    n = len(scenario.initial_states)
    floats = itertools.cycle(EDGE_FLOATS)
    modes = itertools.cycle(("safe", "nominal"))
    trace = [
        (ts, tuple((next(floats), next(floats), next(floats), next(modes)) for _ in range(n)))
        for ts in EDGE_NS
    ]
    v_series = list(EDGE_FLOATS[: len(EDGE_NS)])
    messages = [
        MessageRecord(0, 1, "REQ", 0, 1, "bit", False),
        MessageRecord(999_999_999, None, "PROMISE", 2, 3, "payload", True),
        MessageRecord(10**9, 30 * 10**9, "WARN", 3, 0, "bit", False),
    ]
    metrics = {"n_comm": 1, "v_final": -0.0, "v_initial": 1e300}
    result = RunResult(scenario, list(EDGE_NS), v_series, trace, messages, metrics, wall_time=0.0)
    write_outputs(result, tmp_path)

    lyapunov_rows = [[_t_cell(t), _g(v, 17)] for t, v in zip(EDGE_NS, v_series)]
    trace_head = ["t"] + [f"{c}_{i}" for i in range(n) for c in ("x", "y", "heading", "mode")]
    trace_rows = [
        [_t_cell(t)] + [c for x, y, h, m in row for c in (_g(x, 17), _g(y, 17), _g(h, 17), m)]
        for t, row in trace
    ]
    message_head = ["sent_at", "deliver_at", "kind", "sender", "receiver", "size_class"]
    message_rows = [
        [_t_cell(m.sent_at_ns), "DROPPED" if m.deliver_at_ns is None else _t_cell(m.deliver_at_ns)]
        + [m.kind, str(m.sender), str(m.receiver), m.size_class]
        for m in messages
    ]
    want = {
        "lyapunov.csv": _csv([["t", "V"]] + lyapunov_rows),
        "trace.csv": _csv([trace_head] + trace_rows),
        "messages.csv": _csv([message_head] + message_rows),
        "metrics.json": (json.dumps(metrics, sort_keys=True, indent=2) + "\n").encode(),
    }
    for name, data in want.items():
        assert (tmp_path / name).read_bytes() == data, name
    # The oracle itself, spelled out for the first trace row and the times.
    lines = want["trace.csv"].split(b"\r\n")
    assert lines[1] == (
        b"0.000000000,-0,4.9406564584124654e-324,1e-300,safe,1.0000000000000001e+300,"
        b"0.10000000000000001,3,nominal,-2,1.152921504606847e+18,inf,safe,-inf,nan,-0,nominal"
    )
    assert [ln.split(b",")[0] for ln in lines[2:-1]] == [
        b"0.000000001", b"0.999999999", b"1.000000000", b"30.000000000"
    ]


def test_study_tables_match_a_per_cell_oracle(tmp_path):
    """sweep.csv and compare.csv equal a per-cell reference with floats as
    format(v, ".6g") and counts as integers."""
    sweep = [
        {"lambda": lam, "v_final": v, "n_comm": k}
        for k, (lam, v) in enumerate(zip(EDGE_FLOATS, EDGE_FLOATS[3:]))
    ]
    write_sweep_csv(sweep, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == _csv(
        [["lambda", "V_final", "N_comm"]]
        + [[_g(r["lambda"], 6), _g(r["v_final"], 6), str(r["n_comm"])] for r in sweep]
    )

    floats = itertools.cycle(EDGE_FLOATS)
    cols = [(f"ncomm_{v}", f"v_{v}") for v in COMPARE_VARIANTS]
    compare = [
        {"t_ns": t, **{k: val for nc, vc in cols for k, val in ((nc, 7 * i), (vc, next(floats)))}}
        for i, t in enumerate(EDGE_NS)
    ]
    write_compare_csv(compare, tmp_path / "compare.csv")
    compare_rows = [
        [_t_cell(r["t_ns"])] + [c for nc, vc in cols for c in (str(r[nc]), _g(r[vc], 6))]
        for r in compare
    ]
    assert (tmp_path / "compare.csv").read_bytes() == _csv(
        [["t"] + [c for pair in cols for c in pair]] + compare_rows
    )


def test_sweep_lambda_rows(scenario):
    rows = sweep_lambda(with_overrides(scenario, duration=2.0), [0.1, 1.0])
    assert [r["lambda"] for r in rows] == [0.1, 1.0]
    assert all(r["n_comm"] > 0 and r["v_final"] >= 0.0 for r in rows)


def test_compare_table_shape(scenario):
    rows = run_compare(with_overrides(scenario, duration=2.0))
    assert len(rows) == 21
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


def test_containment_schedule_finds_misses_on_delivered_views(
    robust_scenario, tmp_path, monkeypatch
):
    """Delivered views made unsound on purpose, their anchor moved 5 cm east,
    are missed on the same ticks under the schedule as under an every-tick
    scan, however far off the other pairs' checks are: a new view is
    checked at the next tick, and a pair exempt after a breach at every
    tick until its exemption ends."""
    from_wire = engine_mod.promise_from_wire

    def shifted(wire, limits):
        p = from_wire(wire, limits)
        a = p.anchor_state
        return replace(p, anchor_state=UnicycleState(a.x + 0.05, a.y, a.heading))

    monkeypatch.setattr(engine_mod, "promise_from_wire", shifted)
    cfg = with_overrides(robust_scenario, duration=1.0)
    _, violations = _assert_schedule_matches_every_tick(cfg, tmp_path, monkeypatch)
    assert violations


@pytest.mark.parametrize("change", ["accept", "warn"])
def test_changed_view_is_checked_at_the_next_record(change, robust_scenario):
    """A delivery or a warning that replaces a view resets the containment
    bound, so the next record checks the new view even when every other
    pair's check is far off.

    In a plain run a warned view's old check falls due about when the
    pair's exemption ends, so no output shows a missing reset there; this
    sets the schedule by hand instead."""
    eng = engine_mod.Engine(with_overrides(robust_scenario, duration=0.5))
    eng.run()
    ts = eng.duration_ns + eng.dt_ns
    agents = eng.agents
    k, (i, r) = next(
        (k, pair)
        for k, pair in enumerate(eng.directed_pairs)
        if agents[pair[1]].view[pair[0]].mode is engine_mod._BALL
    )
    far = ts + 10**9
    eng.contain_due = [(agents[b].view[a], far) for a, b in eng.directed_pairs]
    eng.contain_next_ns = far
    eng._advance(agents[i], ts)
    if change == "accept":
        eng._issue_promise(agents[i], r, ts, event=False)
        wire = engine_mod.promise_to_wire(eng.latest_sent[(i, r)][0])
        assert eng._accept_promise(agents[r], wire, ts)
    else:
        eng._warn(agents[i], r, agents[r].view[i], ts)
    new_view = agents[r].view[i]
    eng._record(ts)
    assert eng.contain_due[k][0] is new_view


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


def _cycle5(scenario, duration):
    """Five agents on a cycle at tightness 0: every promise is a point, so
    breaches and resolves never stop."""
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    states = tuple(
        UnicycleState(
            3.0 * math.cos(2 * math.pi * k / 5) + 0.3 * k,
            3.0 * math.sin(2 * math.pi * k / 5),
            0.7 * k,
        )
        for k in range(5)
    )
    cfg = replace(
        with_overrides(scenario, tightness=0.0, duration=duration),
        n_agents=5,
        edges=edges,
        distances=tuple((i, j, 2.0) for i, j in edges),
        gain=1.0,
        initial_states=states,
    )
    validate_config(cfg)
    return cfg


def _run_counting_continuations(cfg, outdir):
    """Run cfg and write its outputs; return them with the number of scan
    continuations: the engine's critical_time_ns calls on a scan past its
    first chunk."""
    calls = [0]
    scan_on = engine_mod.critical_time_ns

    def counted(scan):
        calls[0] += scan.start > 0
        return scan_on(scan)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine_mod, "critical_time_ns", counted)
        write_outputs(run(cfg), outdir)
    return {f: (outdir / f).read_bytes() for f in OUTPUT_FILES}, calls[0]


@pytest.mark.parametrize("case", ["team", "self", "lambda0", "robust-7", "cycle5-lambda0"])
def test_lazy_scan_matches_full_scan(case, scenario, robust_scenario, tmp_path, monkeypatch):
    """Scanning each certificate one chunk per continuation, on the tick
    before each lower bound, changes no output byte against scanning it to
    the crossing at the resolve.

    The self-law run has self requests of two agents due at the same
    nanosecond (1.8 s), which keep their order only because each request
    is queued under the sequence number reserved at its resolve."""
    if case in ("team", "self"):
        cfg = with_overrides(scenario, law=case, duration=2.0)
    elif case == "lambda0":
        cfg = with_overrides(scenario, tightness=0.0, duration=0.16)
    elif case == "robust-7":
        cfg = with_overrides(robust_scenario, seed=7, duration=2.0)
    else:
        cfg = _cycle5(scenario, 0.1)
    chunked, continued = _run_counting_continuations(cfg, tmp_path / "chunked")
    monkeypatch.setattr(engine_mod, "critical_time_ns", _scan_to_end)
    eager, none = _run_counting_continuations(cfg, tmp_path / "eager")
    for f in OUTPUT_FILES:
        assert chunked[f] == eager[f], f"{f} differs from the run that scans to the crossing"
    assert continued > 0
    assert none == 0


@pytest.mark.parametrize("name", [*GOLDEN, *PATHS])
def test_every_chunk_scans_the_view_its_scan_was_built_from(name, monkeypatch):
    """A Scan keeps the promises of the view it was built from, so a view
    must not change while its scan is pending. It does not: every change
    to a view is followed by a resolve, which replaces the scan before any
    continuation runs. So each continuation is of an agent's current scan,
    and finds in its view exactly the promise objects the scan holds."""
    engine = engine_mod.Engine(golden_config(name))
    scan_on = engine_mod.critical_time_ns
    resumed = []

    def checked(scan):
        if scan.start:
            (ag,) = [ag for ag in engine.agents if ag.scan is scan]
            held = scan.promises
            assert len(held) == len(ag.view)
            assert all(a is b for a, b in zip(held, (ag.view[j] for j in sorted(ag.view)))), (
                f"agent {ag.id}: its view changed while its scan was pending"
            )
            resumed.append(ag.id)
        return scan_on(scan)

    monkeypatch.setattr(engine_mod, "critical_time_ns", checked)
    engine.run()
    assert resumed


@pytest.mark.parametrize("case", ["lambda0", "robust-7"])
def test_scan_continuation_runs_first_at_its_instant(case, scenario, robust_scenario, monkeypatch):
    """A pending scan leaves t_star_ns at a lower bound, so its continuation
    runs before any event handler or tick at that instant can act on it: none
    sees a pending scan whose bound it has reached."""
    continued = set()  # the bounds that continuations went on from
    handled = set()  # the instants at which a handler or tick ran
    scan_on = engine_mod.critical_time_ns

    def logged_scan(scan):
        if scan.start:
            continued.add(scan.grid(scan.start - 1))
        return scan_on(scan)

    def checked(name, handler):
        def wrapper(self, ts_ns, *args):
            handled.add(ts_ns)
            late = [ag.id for ag in self.agents if ag.scan.pending and ag.t_star_ns <= ts_ns]
            assert not late, f"{name} at {ts_ns} ns sees the lower bound of agents {late}"
            return handler(self, ts_ns, *args)

        return wrapper

    monkeypatch.setattr(engine_mod, "critical_time_ns", logged_scan)
    for name in ("_tick", "_drain_promises", "_self_request", "_req_retry"):
        handler = getattr(engine_mod.Engine, name)
        monkeypatch.setattr(engine_mod.Engine, name, checked(name, handler))
    if case == "lambda0":
        run(with_overrides(scenario, tightness=0.0, duration=0.16))
    else:
        run(with_overrides(robust_scenario, seed=7, duration=1.0))
    assert continued & handled


def _apply_mode_control_reference(self, ag, now_ns):
    """Engine._apply_mode_control as it was before the tick read the
    certificate scan's rollout: goal_law on every call, on the neighbours
    in view order. The scan takes them sorted, so matching this checks
    that the two orders agree (_cycle5's edge (0, 4) gives agent 4 a
    neighbour listed before its other one)."""
    now_s = now_ns * 1e-9
    points = [expected_position(p, now_s) for p in ag.view.values()]
    dists = [self.spec.distance(ag.id, j) for j in ag.view]
    lim = self.limits
    speed, turn = triggers_mod.goal_law(
        ag.x, ag.y, ag.heading, points, dists, self.spec.gain, lim.max_speed, lim.max_turn
    )
    if not (0.0 <= speed <= lim.max_speed and abs(turn) <= lim.max_turn):
        raise engine_mod.EngineInvariantError(
            f"agent {ag.id} at t={engine_mod._fmt_t(now_ns)}s: nominal control out of bounds"
            f" or not finite: speed {speed!r}, turn rate {turn!r}"
        )
    ag.speed = speed
    ag.turn = turn
    ag.safe = now_ns >= ag.t_star_ns


def _run_counting_laws(cfg, outdir, reference=False):
    """Run cfg and write its outputs, with the reference control tick if
    asked; return them with the number of goal_law calls the run made."""
    with pytest.MonkeyPatch.context() as m:
        calls = _count_calls(m, triggers_mod, "goal_law")  # the rollouts' and the ticks'
        if reference:
            m.setattr(engine_mod.Engine, "_apply_mode_control", _apply_mode_control_reference)
        write_outputs(run(cfg), outdir)
    return {f: (outdir / f).read_bytes() for f in OUTPUT_FILES}, calls[0]


@pytest.mark.parametrize(
    "case", ["team", "self", "lambda0", "robust-7", "cycle5-lambda0", "apad", "no-safe-turn"]
)
def test_rollout_control_matches_goal_law_on_every_tick(case, scenario, robust_scenario, tmp_path):
    """Asking the scan for the control, which it reads from its rollout
    where it can, changes no output byte against calling goal_law on every
    tick in view order, and saves goal_law calls."""
    if case in ("team", "self"):
        cfg = with_overrides(scenario, law=case, duration=2.0)
    elif case == "lambda0":
        cfg = with_overrides(scenario, tightness=0.0, duration=0.16)
    elif case == "robust-7":
        cfg = with_overrides(robust_scenario, seed=7, duration=2.0)
    elif case == "cycle5-lambda0":
        cfg = _cycle5(scenario, 0.1)
    elif case == "apad":
        cfg = engine_mod._compare_cfg(with_overrides(scenario, duration=2.0), "apad")
    else:
        cfg = replace(with_overrides(scenario, duration=2.0), safe_turn=False)
    read, n_read = _run_counting_laws(cfg, tmp_path / "read")
    every, n_every = _run_counting_laws(cfg, tmp_path / "every", reference=True)
    for f in OUTPUT_FILES:
        assert read[f] == every[f], f"{f} differs from the goal_law-every-tick run"
    assert n_read < n_every


@pytest.mark.parametrize("case", ["team", "robust"])
def test_resolve_takes_its_control_from_scan_point_0(case, scenario, robust_scenario, monkeypatch):
    """A resolve whose t* lies after it applies the control the scan's
    rollout computed at its own instant, point 0, and computes no control
    of its own: Scan.control calls expected_position not once."""
    calls = _count_calls(monkeypatch, triggers_mod, "expected_position")
    resolve = engine_mod.Engine._resolve
    evals = []

    def checked(self, ag, now_ns):
        before = calls[0]
        resolve(self, ag, now_ns)
        if ag.t_star_ns > now_ns:
            evals.append(calls[0] - before)
            assert (ag.speed, ag.turn) == ag.scan.rollout[now_ns][4:]

    monkeypatch.setattr(engine_mod.Engine, "_resolve", checked)
    run(with_overrides(scenario if case == "team" else robust_scenario, duration=1.0))
    assert evals and set(evals) == {0}
    assert calls[0] > 0  # the ticks that compute their control call it


@pytest.mark.parametrize(
    "case, split",
    [
        ("team", (3_530, 5_477, 3_059)),
        ("robust", (3_388, 3_918, 12_859)),
    ],
    ids=["team", "robust"],
)
def test_tick_controls_split_into_read_held_and_computed(case, split, scenario, robust_scenario, monkeypatch):
    """On the benchmark's team and robust inputs, the control ticks split
    exactly into rollout reads, held offsets (steer alone) and computed
    ones (goal_offset, then steer). The counts are frozen from the first
    code that held the offset: a change that holds fewer ticks, or reads
    fewer from the rollout, moves them."""
    controls = _count_calls(monkeypatch, triggers_mod.Scan, "control")
    steers = _count_calls(monkeypatch, triggers_mod, "steer")
    offsets = _count_calls(monkeypatch, triggers_mod, "goal_offset")
    if case == "team":
        cfg = with_overrides(scenario, law="team", tightness=0.1, duration=3.0)
    else:
        cfg = with_overrides(robust_scenario, seed=20260819, law="robust-team", duration=5.0)
    run(cfg)
    assert (controls[0] - steers[0], steers[0] - offsets[0], offsets[0]) == split


def test_adaptive_dwell_cap_keeps_outputs(scenario, tmp_path):
    """Cutting the adaptive dwell at twice the run length changes no output
    byte: every dwell the cut shortens put its self request past the end
    already. At adapt_scale 1e300 the uncut dwell is infinite and cannot be
    converted to ns at all."""
    outputs = []
    for scale, cap in ((1e200, math.inf), (1e200, None), (1e300, None)):
        cfg = replace(scenario, dwell=replace(scenario.dwell, adaptive=True, adapt_scale=scale))
        engine = engine_mod.Engine(with_overrides(cfg, duration=1.0))
        if cap is not None:
            engine.dwell_cap_s = cap
        outdir = tmp_path / f"{scale}-{cap}"
        write_outputs(engine.run(), outdir)
        outputs.append([(outdir / f).read_bytes() for f in OUTPUT_FILES])
    assert outputs[0] == outputs[1] == outputs[2]


def test_nan_potential_is_an_invariant_error(scenario, monkeypatch):
    """NaN compares false with every bound, so the descent check must not let it
    through as "not an increase"."""
    lyapunov = engine_mod.lyapunov
    calls = itertools.count()

    def nan_on_tick_100(*args):
        return math.nan if next(calls) == 100 else lyapunov(*args)

    monkeypatch.setattr(engine_mod, "lyapunov", nan_on_tick_100)
    with pytest.raises(engine_mod.EngineInvariantError, match=r"t=0\.100000s: \S+ -> nan"):
        run(with_overrides(scenario, duration=0.5))


def test_potential_increase_error_names_edge_agents_and_messages(scenario, monkeypatch):
    """Knocking agent 0 ten metres sideways at 0.2 s raises the potential; the
    error names the edge that rose most, its agents' poses and modes, and
    their last messages."""
    record = engine_mod.Engine._record

    def knocked(self, ts_ns):
        if ts_ns == 200_000_000:
            self.agents[0].x += 10.0
        record(self, ts_ns)

    monkeypatch.setattr(engine_mod.Engine, "_record", knocked)
    with pytest.raises(engine_mod.EngineInvariantError) as err:
        run(with_overrides(scenario, duration=0.5))
    lines = str(err.value).splitlines()
    m = re.match(r"potential increased at t=0\.200000s: (\S+) -> (\S+); edge (\d+)-(\d+) rose most", lines[0])
    assert m and float(m[1]) < float(m[2])
    i, j = int(m[3]), int(m[4])
    assert i == 0
    poses = [ln for ln in lines if " agent " in ln]
    assert [ln.split(":")[0].split()[-1] for ln in poses] == [str(i), str(j)] * 3
    assert [ln.split()[0] for ln in poses[-2:]] == ["t=0.200000000"] * 2
    assert all(ln.endswith(("nominal", "safe")) for ln in poses)
    msgs = lines[1 + len(poses):]
    assert 1 <= len(msgs) <= 5
    for ln in msgs:
        sender, receiver = re.search(r"(\d+)->(\d+)", ln).groups()
        assert {int(sender), int(receiver)} & {i, j}


def test_nan_control_is_an_invariant_error(scenario, monkeypatch, capsys):
    """A NaN nominal control is reported as an EngineInvariantError that
    names the agent, the instant and the values, and the CLI prints it as
    an error line, not a traceback. The NaN comes from every control the
    scans give from 0.1 s on, whether read from a rollout or computed."""
    control = triggers_mod.Scan.control

    def nan_from_0_1s(self, t_ns, pose):
        speed, turn = control(self, t_ns, pose)
        return (math.nan, turn) if t_ns >= 100_000_000 else (speed, turn)

    monkeypatch.setattr(triggers_mod.Scan, "control", nan_from_0_1s)
    with pytest.raises(engine_mod.EngineInvariantError) as err:
        run(with_overrides(scenario, duration=0.5))
    m = re.fullmatch(
        r"agent (\d) at t=(\d+\.\d{9})s: nominal control out of bounds or not finite:"
        r" speed nan, turn rate (\S+)",
        str(err.value),
    )
    assert m, str(err.value)
    assert 0.1 <= float(m[2]) < 0.5
    assert math.isfinite(float(m[3]))

    assert main(["run", "--config", "formation4", "--duration", "0.5"]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: agent ") and "Traceback" not in stderr


@pytest.mark.parametrize(
    "scenario_name, law",
    [("formation4", "team"), ("formation4", "self"), ("formation4_robust", "robust-team")],
)
def test_control_input_only_at_bootstrap_and_promise_issue(scenario_name, law, monkeypatch):
    """The tick holds the control as raw floats: a 1 s run builds a
    ControlInput only for the bootstrap views' zero control, at promise
    issue (the anchor, one per promise), and when a delivered promise is
    decoded from the wire."""
    sites = Counter()
    post_init = ControlInput.__post_init__

    def counted(self):
        frame = sys._getframe(2)  # past the dataclass __init__
        while frame.f_code.co_name == "safe_mode":
            frame = frame.f_back
        sites[frame.f_code.co_name] += 1
        post_init(self)

    monkeypatch.setattr(ControlInput, "__post_init__", counted)
    result = run(with_overrides(bundled_config(scenario_name), law=law, duration=1.0))
    n_promises = result.metrics["n_comm"]
    assert set(sites) <= {"_bootstrap", "_issue_promise", "promise_from_wire"}, sites
    assert sites["_bootstrap"] == 1
    assert sites["_issue_promise"] == n_promises
    assert sites["promise_from_wire"] <= n_promises
