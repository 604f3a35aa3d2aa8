"""Which lines of the simulation modules the golden runs never execute.

The digests in tests/test_golden.py guard only the code their runs reach.
This test traces those runs and lists every line of `engine`, `promises`,
`triggers` and `controllers` that none of them executes, and compares that
list with UNREACHED, where each such line is allowed with its reason. A
change that stops the golden runs from reaching a line, or that makes them
reach one listed here, fails until the list says why.

Lines are keyed by module, function and stripped source text, so an edit
elsewhere in a module does not move them; identical lines of one function
share one key. The keys and the lines that carry code are those of the
Python 3.11 compiler.
"""

import inspect
import sys
from pathlib import Path

import pytest

import ttlab.controllers
import ttlab.engine
import ttlab.promises
import ttlab.triggers
from ttlab.config import bundled_config, with_overrides
from ttlab.engine import (
    run,
    run_compare,
    sweep_lambda,
    write_compare_csv,
    write_outputs,
    write_sweep_csv,
)

from test_golden import GOLDEN, PATHS, golden_config

MODULES = (ttlab.engine, ttlab.promises, ttlab.triggers, ttlab.controllers)

_INPUT = "refuses a bad input; no golden run passes one"
_RISE = "builds the potential-rise error, which no golden run raises"
_ORACLE = "the scalar certificate bound, kept as the oracle of tests/test_certificate.py and c8"
_HOOKED = "kept for bench/run.py's hook; the engine calls"

# (module, function, stripped line) -> why no golden run executes it.
UNREACHED = {
    ("engine", "_fmt_t", 'return f"{ns // NS}.{ns % NS:09d}"'): "formats times for the invariant errors only",
    ("engine", "Engine._apply_mode_control", "raise EngineInvariantError("): (
        "the nominal-control error; test_nan_control_is_an_invariant_error raises it"
    ),
    ("engine", "Engine._apply_mode_control", 'f"agent {ag.id} at t={_fmt_t(now_ns)}s: nominal control out of bounds"'): (
        "the nominal-control error's message"
    ),
    ("engine", "Engine._apply_mode_control", 'f" or not finite: speed {speed!r}, turn rate {turn!r}"'): (
        "the nominal-control error's message"
    ),
    ("engine", "Engine._record", "raise EngineInvariantError(self._rise_report(ts_ns, row, last, v))"): (
        "the potential-rise error; test_potential_increase_error_names_edge_agents_and_messages raises it"
    ),
    ("engine", "Engine._record", "self.violations.append((ts_ns, i, r))"): (
        "a containment violation, which the robust law must never have (c7)"
    ),
    ("engine", "Engine._rise_report", "prev = self.trace[-1][1] if self.trace else row"): _RISE,
    ("engine", "Engine._rise_report", "def term(q: tuple, i: int, j: int) -> float:"): _RISE,
    ("engine", "Engine._rise_report.<locals>.term", "d2 = self.spec.distance(i, j) ** 2"): _RISE,
    ("engine", "Engine._rise_report.<locals>.term", "return ((q[j][0] - q[i][0]) ** 2 + (q[j][1] - q[i][1]) ** 2 - d2) ** 2"): _RISE,
    ("engine", "Engine._rise_report", "i, j = max(self.graph.edges, key=lambda e: term(row, *e) - term(prev, *e))"): _RISE,
    ("engine", "Engine._rise_report", 'out = [f"potential increased at t={ts_ns * 1e-9:.6f}s: {last!r} -> {v!r}; edge {i}-{j} rose most"]'): _RISE,
    ("engine", "Engine._rise_report", "rows = [*self.trace[-2:], (ts_ns, row)]"): _RISE,
    ("engine", "Engine._rise_report", 'out += [f"  t={_fmt_t(t)} agent {k}: pose {r[k][:3]!r}, {r[k][3]}" for t, r in rows for k in (i, j)]'): _RISE,
    ("engine", "Engine._rise_report", "for m in [m for m in self.messages if {m.sender, m.receiver} & {i, j}][-5:]:"): _RISE,
    ("engine", "Engine._rise_report", 'deliver = "dropped" if m.deliver_at_ns is None else f"delivered {_fmt_t(m.deliver_at_ns)}"'): _RISE,
    ("engine", "Engine._rise_report", 'out.append(f"  {m.kind} {m.sender}->{m.receiver} sent {_fmt_t(m.sent_at_ns)}, {deliver}")'): _RISE,
    ("engine", "Engine._rise_report", 'return "\\n".join(out)'): _RISE,
    ("engine", "run_self_triggered", 'return run(replace(cfg, law="self"))'): (
        "the README's library entry point; the acceptance suite and tests/test_engine.py call it"
    ),
    ("engine", "_derived", "except ConfigError as e:"): "a study config validate_config refuses (tests/test_cli.py)",
    ("engine", "_derived", 'raise ConfigError(f"{runs}: {e}") from None'): (
        "a study config validate_config refuses (tests/test_cli.py)"
    ),
    ("engine", "sweep_lambda", "with ProcessPoolExecutor() as pool:"): (
        "the parallel sweep (c6); its points run in worker processes, which this trace cannot see"
    ),
    ("engine", "sweep_lambda", "return list(pool.map(_sweep_one, cfgs))"): (
        "the parallel sweep (c6); its points run in worker processes, which this trace cannot see"
    ),
    ("promises", "StaticBall.__post_init__", 'raise ValueError(f"tightness must be finite and >= 0, got {self.tightness}")'): _INPUT,
    ("promises", "DynamicBall.__post_init__", 'raise ValueError(f"{name} must be finite and >= 0, got {v}")'): _INPUT,
    ("promises", "make_promise", 'raise ValueError("the dynamic rule sizes the ball from the planning gap; none was given")'): _INPUT,
    ("promises", "Promise.__post_init__", 'raise ValueError(f"promise radius must be >= 0, got {self.radius}")'): _INPUT,
    ("promises", "Promise.__post_init__", 'raise ValueError("noise_slack must be >= 0")'): _INPUT,
    ("promises", "Promise.__post_init__", 'raise ValueError("fallback promise needs fb_center, fb_radius, fb_time")'): _INPUT,
    ("promises", "Promise.__post_init__", 'raise ValueError("expires_at must lie strictly after issued_at")'): _INPUT,
    ("promises", "_ages", 'raise ValueError(f"t={t} precedes fallback time {p.fb_time}")'): _INPUT,
    ("promises", "validate_noisy_promise", 'raise ValueError("noise bounds must be nonnegative")'): _INPUT,
    ("promises", "promise_to_wire", 'raise ValueError("only ball-mode promises are transmitted")'): _INPUT,
    ("promises", "view_disk_at", "cx, cy, r = disk_at(p, t)"): f"{_HOOKED} disk_at",
    ("promises", "view_disk_at", "return DiskSet((cx, cy), r)"): f"{_HOOKED} disk_at",
    ("promises", "check_breach", "return breach_margin(p, t, actual.x, actual.y) < 0.0"): f"{_HOOKED} breach_margin",
    ("controllers", "u_double_star", "points = [expected_position(p, t) for p in view.values()]"): f"{_HOOKED} goal_law",
    ("controllers", "u_double_star", "dists = [spec.distance(i, j) for j in view]"): f"{_HOOKED} goal_law",
    ("controllers", "u_double_star", "speed, turn = goal_law("): f"{_HOOKED} goal_law",
    ("controllers", "u_double_star", "state.x, state.y, state.heading, points, dists, spec.gain, limits.max_speed, limits.max_turn"): f"{_HOOKED} goal_law",
    ("controllers", "u_double_star", "return ControlInput(speed, turn, limits)"): f"{_HOOKED} goal_law",
    ("triggers", "li_v_sup", "order = sorted(neighbor_disks)"): _ORACLE,
    ("triggers", "li_v_sup", "disks = [(*neighbor_disks[j].center, neighbor_disks[j].radius) for j in order]"): _ORACLE,
    ("triggers", "li_v_sup", "dists = [spec.distance(i, j) for j in order]"): _ORACLE,
    ("triggers", "li_v_sup", "fx = control.speed * math.cos(own_state.heading)"): _ORACLE,
    ("triggers", "li_v_sup", "fy = control.speed * math.sin(own_state.heading)"): _ORACLE,
    ("triggers", "li_v_sup", "rate = rate_bound(own_state.x, own_state.y, fx, fy, disks, dists)"): _ORACLE,
    ("triggers", "li_v_sup", "return float(rate[0])"): _ORACLE,
    ("triggers", "critical_time_ns", "return ts[-1]  # the horizon: no crossing before it"): (
        "a scan that reaches its horizon of ten self dwells; every golden scan crosses first"
    ),
}


def _function_codes(code):
    """Every function code object nested in `code`, not `code` itself."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _function_codes(const)


def _function_lines(module):
    """{line number: function qualname} of the lines inside the module's
    functions that carry code, each under its innermost function."""
    path = Path(module.__file__)
    code = compile(path.read_text(), str(path), "exec")
    owner = {}
    # Outer functions come before the functions nested in them, so the
    # innermost one is written last.
    for fn in _function_codes(code):
        for _, _, line in fn.co_lines():
            if line is not None and line != fn.co_firstlineno:
                owner[line] = fn.co_qualname
    return owner


def _golden_runs(out):
    for name in [*GOLDEN, *PATHS]:
        write_outputs(run(golden_config(name)), out)
    cfg = with_overrides(bundled_config("formation4"), duration=1.0)
    write_compare_csv(run_compare(cfg), out / "compare.csv")
    write_sweep_csv(sweep_lambda(cfg, [0.1, 0.5, 1.0]), out / "sweep.csv")


def _executed(files, body):
    """{(file, line)} of the lines in `files` that body() executes."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        body()
    finally:
        sys.settrace(previous)
    return seen


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="keyed by Python 3.11 line tables")
def test_golden_runs_reach_every_line_not_listed(tmp_path):
    files = {m.__file__: m for m in MODULES}
    executed = _executed(set(files), lambda: _golden_runs(tmp_path))
    unreached = set()
    for path, module in files.items():
        source = Path(path).read_text().splitlines()
        name = module.__name__.rsplit(".", 1)[1]
        for line, function in _function_lines(module).items():
            if (path, line) not in executed:
                unreached.add((name, function, source[line - 1].strip()))
    assert sorted(unreached - UNREACHED.keys()) == [], "lines no golden run executes"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed lines a golden run executes"
