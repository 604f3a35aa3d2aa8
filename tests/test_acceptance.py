"""End-to-end gates for the bundled four-agent scenarios.

Each test prints one checklist line ("criterion N: PASS/FAIL ...") before
asserting, so a run of this module reads as an acceptance report. The frozen
numbers pin the exact deterministic behavior of this implementation on the
bundled configurations; the tolerance checks state the actual guarantees.
"""

import math
import os
import time
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from ttlab.config import with_overrides
from ttlab.engine import EngineInvariantError, run, run_self_triggered, sweep_lambda, write_outputs
from ttlab.model import (
    CommGraph,
    FormationSpec,
    Limits,
    UnicycleState,
    arc_step,
    lyapunov,
    wrap_angle,
)
from ttlab.promises import (
    Promise,
    StaticBall,
    disk_at,
    fallback_to_reachability,
    make_promise,
    validate_noisy_promise,
)
from ttlab.triggers import rate_bound

from conftest import DISTANCES, EDGES, GAIN

LIM = Limits(5.0, 3.0)
U_MAX = LIM.max_speed

# ---------------------------------------------------------------------------
# frozen expectations (team scenario, seed 20260819, 30 s unless noted)

V0 = 21451.0
V30_TEAM = 0.00440910837153384
V30_SELF = 0.0023688850508369694
V30_TEAM02 = 0.004416738617724851

TEAM_N_COMM = 1002
TEAM_N_S = [99, 96, 98, 98]
TEAM_N_E = [5, 5, 5, 11]
TEAM_N_BREACHES = 26

TARGET_DIST = {"0-1": 2.0, "0-3": 1.0, "1-2": 1.0, "1-3": math.sqrt(5.0), "2-3": 2.0}
FINAL_DIST = {
    "0-1": 1.9947033182640341,
    "0-3": 0.9971323288788801,
    "1-2": 0.9968732619101435,
    "1-3": 2.2491516400617173,
    "2-3": 1.9947137557481462,
}

SWEEP_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
SWEEP_TABLE = {
    0.0: (0.0019690954100492824, 6539),
    0.1: (0.00440910837153384, 1002),
    0.2: (0.004416738617724851, 998),
    0.3: (0.004355044852329579, 998),
    0.4: (0.0044113908889687895, 997),
    0.5: (0.001051347751492614, 997),
    0.6: (0.0016281666367233658, 999),
    0.7: (0.0021221803273401355, 999),
    0.8: (0.0026888344435157096, 1002),
    0.9: (0.0013052475870687875, 1002),
    1.0: (0.0023688850508369694, 1002),
}

ROBUST_SEEDS = tuple(range(20260819, 20260839))
ROBUST_V60_MAX = 1.5  # worst observed over the seed batch is 1.188


def _criterion(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def _monotone(v, tol=1e-9):
    return all(b <= a + tol * max(1.0, a) for a, b in zip(v, v[1:]))


@pytest.fixture(scope="module")
def team_run(scenario):
    return run(scenario)


@pytest.fixture(scope="module")
def self_run(scenario):
    return run_self_triggered(scenario)


# ---------------------------------------------------------------------------


def test_c1_descent_and_wall_time(team_run):
    v = team_run.v_series
    bad = []
    if v[0] != V0:
        bad.append(f"V(0)={v[0]!r} != {V0}")
    if not _monotone(v):
        bad.append("potential not monotone within 1e-9 relative tolerance")
    if team_run.wall_time >= 10.0:
        bad.append(f"wall={team_run.wall_time:.2f}s >= 10s")
    _criterion(1, not bad, f"V(0)={v[0]:g}, monotone, wall={team_run.wall_time:.2f}s")
    assert not bad, "; ".join(bad)


def test_c2_convergence(team_run):
    m = team_run.metrics
    v30 = m["v_final"]
    errs = {k: abs(m["final_distances"][k] - d) / d for k, d in TARGET_DIST.items()}
    bad = []
    if v30 > 0.01 * V0:
        bad.append(f"V(30)={v30:g} > 1% of V(0)")
    if max(errs.values()) > 0.05:
        bad.append(f"worst distance error {max(errs.values()):.2%} > 5%")
    if v30 != pytest.approx(V30_TEAM, rel=1e-12):
        bad.append(f"V(30)={v30!r} drifted from frozen {V30_TEAM!r}")
    if m["final_distances"] != pytest.approx(FINAL_DIST, rel=1e-12):
        bad.append("final distances drifted from frozen values")
    _criterion(
        2, not bad, f"V(30)/V(0)={v30 / V0:.3g}, worst distance error {max(errs.values()):.2%}"
    )
    assert not bad, "; ".join(bad)


def test_c3_communication_discipline(team_run):
    m = team_run.metrics
    bad = []
    if m["min_request_gap_ns"] < 300_000_000:
        bad.append(f"request gap {m['min_request_gap_ns']} ns < 0.3 s")
    if m["max_event_sends_in_window"] > 2:
        bad.append(f"{m['max_event_sends_in_window']} event sends in one dwell window")
    for key, want in (
        ("n_comm", TEAM_N_COMM),
        ("n_s", TEAM_N_S),
        ("n_e", TEAM_N_E),
        ("n_breaches", TEAM_N_BREACHES),
    ):
        if m[key] != want:
            bad.append(f"{key}={m[key]!r} != frozen {want!r}")
    _criterion(
        3,
        not bad,
        f"min gap {m['min_request_gap_ns'] / 1e9:g}s, "
        f"<= {m['max_event_sends_in_window']} send/window, N_comm={m['n_comm']}",
    )
    assert not bad, "; ".join(bad)


def test_c4_full_tightness_recovers_baseline(scenario, self_run):
    full = run(with_overrides(scenario, tightness=1.0))
    ma, mb = full.metrics, self_run.metrics
    bad = []
    if full.trace != self_run.trace:
        bad.append("traces differ")
    if full.v_series != self_run.v_series:
        bad.append("potential series differ")
    if ma["request_times_ns"] != mb["request_times_ns"]:
        bad.append("request times differ")
    if ma["event_send_times_ns"] != mb["event_send_times_ns"]:
        bad.append("event send times differ")
    if ma["n_comm"] != mb["n_comm"]:
        bad.append(f"N_comm {ma['n_comm']} != {mb['n_comm']}")
    _criterion(4, not bad, f"tightness-1 team run identical to baseline, N_comm={ma['n_comm']}")
    assert not bad, "; ".join(bad)


def test_c5_tradeoff(scenario, self_run):
    team = run(with_overrides(scenario, tightness=0.2))
    mt, ms = team.metrics, self_run.metrics
    ratio = mt["v_final"] / ms["v_final"]
    bad = []
    if not mt["n_comm"] < ms["n_comm"]:
        bad.append(f"N_comm {mt['n_comm']} not below baseline {ms['n_comm']}")
    if mt["v_final"] > 2.0 * ms["v_final"]:
        bad.append(f"V(30) ratio {ratio:.3f} > 2")
    if mt["n_comm"] != 998 or mt["v_final"] != pytest.approx(V30_TEAM02, rel=1e-12):
        bad.append("tightness-0.2 run drifted from frozen values")
    if ms["v_final"] != pytest.approx(V30_SELF, rel=1e-12):
        bad.append("baseline run drifted from frozen values")
    _criterion(
        5, not bad, f"N_comm {mt['n_comm']} < {ms['n_comm']}, V(30) ratio {ratio:.3f} <= 2"
    )
    assert not bad, "; ".join(bad)


def test_c6_tightness_sweep(scenario, self_run):
    t0 = time.perf_counter()
    rows = sweep_lambda(scenario, SWEEP_GRID, parallel=(os.cpu_count() or 1) > 1)
    wall = time.perf_counter() - t0
    bad = []
    if wall >= 180.0:
        bad.append(f"sweep wall {wall:.1f}s >= 180s")
    for row in rows:
        want_v, want_n = SWEEP_TABLE[row["lambda"]]
        if row["n_comm"] != want_n or row["v_final"] != pytest.approx(want_v, rel=1e-12):
            bad.append(f"lambda={row['lambda']:g} drifted from frozen row")
    last = rows[-1]
    ms = self_run.metrics
    if last["n_comm"] != ms["n_comm"] or last["v_final"] != pytest.approx(
        ms["v_final"], rel=1e-12
    ):
        bad.append("lambda=1 sweep row does not match the baseline run")
    _criterion(6, not bad, f"{len(rows)} tightness points, wall={wall:.1f}s, table frozen")
    assert not bad, "; ".join(bad)


def test_c7_robust_ensemble(robust_scenario):
    bad = []
    v60s = {}
    for seed in ROBUST_SEEDS:
        try:
            res = run(with_overrides(robust_scenario, seed=seed))
        except EngineInvariantError as e:
            bad.append(f"seed {seed}: invariant failure: {e}")
            continue
        m = res.metrics
        v60s[seed] = m["v_final"]
        if not _monotone(res.v_series):
            bad.append(f"seed {seed}: potential not monotone")
        if m["containment_violations"] != 0:
            bad.append(f"seed {seed}: {m['containment_violations']} containment violations")
        if m["n_warn_bits"] != m["n_breaches"]:
            bad.append(f"seed {seed}: warns {m['n_warn_bits']} != breaches {m['n_breaches']}")
        if m["v_final"] >= ROBUST_V60_MAX:
            bad.append(f"seed {seed}: V(60)={m['v_final']:g} >= {ROBUST_V60_MAX}")
    detail = (
        f"{len(ROBUST_SEEDS)} seeds, V(60) in "
        f"[{min(v60s.values()):.4g}, {max(v60s.values()):.4g}], zero violations"
        if v60s
        else "all seeds failed"
    )
    _criterion(7, not bad, detail)
    assert not bad, "; ".join(bad)


# ---------------------------------------------------------------------------
# criterion 8: independent numeric oracles for the functions a run executes:
# the certificate bound triggers.rate_bound, the arc model.arc_step and the
# promise disk promises.disk_at


def _dense_scan(px, py, fx, fy, cx, cy, r, d, n_ang=720, n_rad=80):
    sup = -np.inf
    amax = 0.0
    ang = np.linspace(0, 2 * np.pi, n_ang, endpoint=False)
    for rho in np.linspace(0.0, r, n_rad):
        yx = cx + rho * np.cos(ang)
        yy = cy + rho * np.sin(ang)
        dx = yx - px
        dy = yy - py
        g = 4.0 * (dx * dx + dy * dy - d * d) * (-(dx * fx + dy * fy))
        sup = max(sup, float(g.max()))
        amax = max(amax, float(np.abs(g).max()))
    return sup, amax


def _check_rate_bound():
    """rate_bound on one disk vs dense polar grid on 100 random instances."""
    rng = np.random.default_rng(123)
    for _ in range(100):
        px, py = rng.uniform(-5, 5, 2)
        heading = rng.uniform(-np.pi, np.pi)
        speed = rng.uniform(0.0, 5.0)
        cx, cy = rng.uniform(-5, 5, 2)
        r = rng.uniform(0.01, 3.0)
        d = rng.uniform(0.5, 4.0)
        th = wrap_angle(heading)  # the engine's headings are wrapped
        (mine,) = rate_bound(px, py, speed * math.cos(th), speed * math.sin(th), [(cx, cy, r)], [d])
        sup, amax = _dense_scan(
            px, py, speed * math.cos(heading), speed * math.sin(heading), cx, cy, r, d
        )
        if mine < sup - 1e-12:
            return False, f"bound {mine:g} below true sup {sup:g}"
        if mine - sup > 0.05 * max(amax, 1e-9):
            return False, f"overshoot {mine - sup:g} above 5% of scale {amax:g}"
    return True, "rate bound conservative and within 5% padding on 100 instances"


def _check_gradient():
    """rate_bound over radius-0 disks at the neighbours along f = (1, 0) and
    (0, 1), which is grad_i V, vs central differences of lyapunov on 100
    random configurations, rel err < 1e-6."""
    graph = CommGraph(4, EDGES)
    spec = FormationSpec(DISTANCES, GAIN)
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        pts = rng.uniform(-5.0, 5.0, size=(4, 2))
        i = int(rng.integers(0, 4))
        nbrs = graph.neighbors(i)
        points = [(*pts[j], 0.0) for j in nbrs]
        dists = [spec.distance(i, j) for j in nbrs]
        grad = [rate_bound(*pts[i], *f, points, dists)[0] for f in ((1.0, 0.0), (0.0, 1.0))]
        fd = np.zeros(2)
        for axis in range(2):
            bump = pts.copy()
            bump[i, axis] += h
            up = lyapunov([UnicycleState(px, py, 0.0) for px, py in bump], spec, graph)
            bump[i, axis] -= 2 * h
            dn = lyapunov([UnicycleState(px, py, 0.0) for px, py in bump], spec, graph)
            fd[axis] = (up - dn) / (2 * h)
        rel = np.linalg.norm(np.asarray(grad) - fd) / max(1.0, float(np.linalg.norm(grad)))
        if rel >= 1e-6:
            return False, f"gradient rel err {rel:g} >= 1e-6"
    return True, "gradient matches finite differences on 100 instances"


def _check_integrator():
    """arc_step, its heading wrapped, vs fine RK4, error < 1e-8."""
    for speed, turn in ((2.0, 1.0), (5.0, -3.0), (3.0, 0.5), (1.0, 2.9), (4.0, 0.0)):
        dt = 0.25
        x, y, th = 1.0, -2.0, 0.3
        h = dt / 400
        for _ in range(400):
            h1 = th
            h2 = th + h / 2 * turn
            h4 = th + h * turn
            x += h / 6 * speed * (math.cos(h1) + 4 * math.cos(h2) + math.cos(h4))
            y += h / 6 * speed * (math.sin(h1) + 4 * math.sin(h2) + math.sin(h4))
            th = h4
        ex, ey, eth = arc_step(1.0, -2.0, 0.3, speed, turn, dt)
        eth = wrap_angle(eth)
        if abs(ex - x) >= 1e-8 or abs(ey - y) >= 1e-8 or abs(wrap_angle(eth - th)) >= 1e-8:
            return False, f"step vs RK4 mismatch at speed={speed}, turn={turn}"
    return True, "closed-form step within 1e-8 of RK4 on 5 parameter sets"


def _clamp(speed, turn):
    return min(max(speed, 0.0), LIM.max_speed), min(max(turn, -LIM.max_turn), LIM.max_turn)


def _ball(anchor, control, delta):
    """A ball promise issued at 0 from the pose `anchor` under `control`, a
    (speed, turn) pair."""
    return Promise(0, 0.0, anchor.x, anchor.y, anchor.heading, *control, delta, None, None, U_MAX)


def _rollout(start, controls, dt):
    """(t, x, y) after each arc_step under the held controls, the heading
    wrapped after each step as the engine does."""
    x, y, th = start.x, start.y, start.heading
    t = 0.0
    out = []
    for speed, turn in controls:
        x, y, th = arc_step(x, y, th, speed, turn, dt)
        th = wrap_angle(th)
        t += dt
        out.append((t, x, y))
    return out


def _outside(p, t, x, y):
    """(x, y) lies outside p's disk_at disk at t plus 1e-9."""
    cx, cy, r = disk_at(p, t)
    return not math.hypot(x - cx, y - cy) <= r + 1e-9


def _check_containment():
    """Four Monte Carlo containment suites on disk_at, 1000 draws each,
    zero violations."""
    violations = 0

    # in-ball rollouts stay inside promised disks for tau <= 0.35, below the
    # age of about 2 / (anchor speed) past which in-ball motion can leave
    # them; there the issuer's breach monitor keeps the position promise
    rng = np.random.default_rng(20260819)
    dt, steps = 0.05, 7
    for _ in range(1000):
        anchor = UnicycleState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3.1, 3.1))
        c0 = (rng.uniform(0, U_MAX), rng.uniform(-3, 3))
        delta = rng.uniform(0.0, 2.0 * U_MAX)
        p = _ball(anchor, c0, delta)
        controls = []
        for _ in range(steps):
            rho = delta * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            controls.append(_clamp(c0[0] + rho * math.cos(phi), c0[1] + rho * math.sin(phi)))
        violations += sum(_outside(p, t, x, y) for t, x, y in _rollout(anchor, controls, dt))

    # the tightness-1 promise contains any admissible motion
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        anchor = UnicycleState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3.1, 3.1))
        p = make_promise(
            0, 0.0, anchor.x, anchor.y, anchor.heading, rng.uniform(0, U_MAX), rng.uniform(-3, 3),
            U_MAX, StaticBall(1.0),
        )
        controls = [(rng.uniform(0, U_MAX), rng.uniform(-3, 3)) for _ in range(20)]
        violations += sum(_outside(p, t, x, y) for t, x, y in _rollout(anchor, controls, 0.1))

    # post-warning fallback disks contain anything reachable from the frozen disk
    rng = np.random.default_rng(99)
    for _ in range(1000):
        p = _ball(UnicycleState(0.0, 0.0, 0.0), (2.0, 0.5), rng.uniform(0, 3))
        t0 = rng.uniform(0.05, 0.5)
        fb = fallback_to_reachability(p, t0)
        fcx, fcy, fr = disk_at(p, t0)
        rho = fr * math.sqrt(rng.uniform())
        phi = rng.uniform(0, 2 * math.pi)
        start = UnicycleState(
            fcx + rho * math.cos(phi), fcy + rho * math.sin(phi), rng.uniform(-3.1, 3.1)
        )
        controls = [(rng.uniform(0, U_MAX), rng.uniform(-3, 3)) for _ in range(10)]
        violations += sum(_outside(fb, t0 + t, x, y) for t, x, y in _rollout(start, controls, 0.1))

    # validated noisy promises still contain the issuer's true motion
    rng = np.random.default_rng(777)
    omega_bar, delta_bar = 0.01, 0.001
    for _ in range(1000):
        anchor = UnicycleState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3.1, 3.1))
        c0 = (rng.uniform(0, U_MAX), rng.uniform(-3, 3))
        delta = rng.uniform(0.0, 2.0 * U_MAX)
        clean = _ball(anchor, c0, delta)
        rho = omega_bar * math.sqrt(rng.uniform())
        phi = rng.uniform(0, 2 * math.pi)
        noisy_anchor = UnicycleState(
            anchor.x + rho * math.cos(phi), anchor.y + rho * math.sin(phi), anchor.heading
        )
        rho = omega_bar * math.sqrt(rng.uniform())
        phi = rng.uniform(0, 2 * math.pi)
        noisy_c = _clamp(c0[0] + rho * math.cos(phi), c0[1] + rho * math.sin(phi))
        received = dc_replace(
            clean,
            x=noisy_anchor.x,
            y=noisy_anchor.y,
            heading=noisy_anchor.heading,
            speed=noisy_c[0],
            turn=noisy_c[1],
            radius=max(delta + rng.uniform(-delta_bar, delta_bar), 0.0),
        )
        validated = validate_noisy_promise(received, omega_bar, delta_bar)
        controls = []
        for _ in range(7):
            rho = delta * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            controls.append(_clamp(c0[0] + rho * math.cos(phi), c0[1] + rho * math.sin(phi)))
        rollout = _rollout(anchor, controls, 0.05)
        violations += sum(_outside(validated, t, x, y) for t, x, y in rollout)

    if violations:
        return False, f"{violations} containment violations across 4000 draws"
    return True, "zero containment violations across 4 suites of 1000 draws"


def test_c8_oracle_suite():
    results = [_check_rate_bound(), _check_gradient(), _check_integrator(), _check_containment()]
    bad = [msg for ok, msg in results if not ok]
    _criterion(8, not bad, "; ".join(msg for _, msg in results) if not bad else "; ".join(bad))
    assert not bad, "; ".join(bad)


def test_c9_outputs_byte_identical(tmp_path, scenario, team_run):
    rerun = run(scenario)
    write_outputs(team_run, tmp_path / "a")
    write_outputs(rerun, tmp_path / "b")
    names = ("metrics.json", "lyapunov.csv", "messages.csv", "trace.csv")
    differing = [
        n for n in names if (tmp_path / "a" / n).read_bytes() != (tmp_path / "b" / n).read_bytes()
    ]
    _criterion(9, not differing, "metrics, potential, messages, trace byte-identical on rerun")
    assert not differing, f"files differ on rerun: {differing}"
