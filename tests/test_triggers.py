import math

import numpy as np
import pytest

from ttlab.controllers import u_double_star
from ttlab.model import ControlInput, DiskSet, FormationSpec, Limits, UnicycleState
from ttlab.promises import StaticBall, fallback_to_reachability, make_promise, view_disk_at
from ttlab.triggers import adaptive_dwell, critical_time_ns, disk_params_batch, li_v_sup

LIM = Limits(5.0, 3.0)
NS = 1_000_000_000
DT = 1_000_000  # the 1 ms tick
DWELL = int(0.3 * NS)
HORIZON = 10 * DWELL  # the engine scans ten self dwells ahead


def _dense_scan(px, py, fx, fy, cx, cy, r, d, n_ang=720, n_rad=80):
    """Reference sup of g over the closed disk by brute polar sampling.

    Also returns the magnitude scale max |g| over the disk, which is the
    natural yardstick for the sampler's padding overshoot.
    """
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


def test_li_v_sup_conservative_and_tight():
    """Certificate bound vs dense-grid supremum on 100 random instances.

    The bound must never fall below the true supremum, and its overshoot
    (the sampler padding) must stay within 5% of the magnitude of g over
    the disk. Plain relative error against the supremum itself is ill-posed
    because random instances put the supremum arbitrarily close to zero.
    """
    rng = np.random.default_rng(123)
    for _ in range(100):
        px, py = rng.uniform(-5, 5, 2)
        heading = rng.uniform(-np.pi, np.pi)
        speed = rng.uniform(0.0, 5.0)
        cx, cy = rng.uniform(-5, 5, 2)
        r = rng.uniform(0.01, 3.0)
        d = rng.uniform(0.5, 4.0)
        spec = FormationSpec({(0, 1): d}, 150.0)
        state = UnicycleState(px, py, heading)
        control = ControlInput(speed, 0.0, LIM)
        mine = li_v_sup(0, state, {1: DiskSet((cx, cy), r)}, control, spec)
        sup, amax = _dense_scan(
            px, py, speed * math.cos(heading), speed * math.sin(heading), cx, cy, r, d
        )
        assert mine >= sup - 1e-12
        assert mine - sup <= 0.05 * max(amax, 1e-9)


def test_li_v_sup_zero_when_parked():
    """A stationary agent cannot change the potential: the rate is zero."""
    spec = FormationSpec({(0, 1): 1.0}, 150.0)
    state = UnicycleState(0.0, 0.0, 0.0)
    rate = li_v_sup(0, state, {1: DiskSet((3.0, 0.0), 0.5)}, ControlInput(0.0, 0.0, LIM), spec)
    assert rate == 0.0


def test_li_v_sup_sums_over_neighbors():
    spec = FormationSpec({(0, 1): 1.0, (0, 2): 1.0}, 150.0)
    state = UnicycleState(0.0, 0.0, 0.0)
    c = ControlInput(2.0, 0.0, LIM)
    d1 = {1: DiskSet((3.0, 0.0), 0.5)}
    d2 = {2: DiskSet((0.0, 3.0), 0.5)}
    both = li_v_sup(0, state, {**d1, **d2}, c, spec)
    assert both == pytest.approx(
        li_v_sup(0, state, d1, c, spec) + li_v_sup(0, state, d2, c, spec)
    )


def _rand_promise(rng, expires=None, noisy=False):
    anchor = UnicycleState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3.1, 3.1))
    c = ControlInput(rng.uniform(0, 5), rng.uniform(-3, 3), LIM)
    p = make_promise(0, 1, rng.uniform(0, 2), anchor, c, StaticBall(rng.uniform(0, 1)),
                     expires_at=None if expires is None else rng.uniform(0, 2) + expires)
    if noisy:
        from ttlab.promises import validate_noisy_promise

        p = validate_noisy_promise(p, 0.01, 0.001)
    return p


@pytest.mark.parametrize("variant", ["plain", "expiring", "noisy", "fallback"])
def test_disk_params_batch_matches_scalar(variant):
    """The vectorized disk evaluation and view_disk_at must agree exactly."""
    rng = np.random.default_rng(hash(variant) % 2**32)
    for _ in range(20):
        if variant == "plain":
            p = _rand_promise(rng)
        elif variant == "expiring":
            p = _rand_promise(rng, expires=2.1)
        elif variant == "noisy":
            p = _rand_promise(rng, noisy=True)
        else:
            p = fallback_to_reachability(_rand_promise(rng), 2.5)
        t0 = p.fb_time if variant == "fallback" else p.issued_at
        ts = np.asarray(t0 + np.sort(rng.uniform(0.0, 5.0, size=16)))
        cx, cy, r = disk_params_batch(p, ts)
        for k, t in enumerate(ts):
            d = view_disk_at(p, float(t))
            assert cx[k] == pytest.approx(d.center[0], abs=1e-12)
            assert cy[k] == pytest.approx(d.center[1], abs=1e-12)
            assert r[k] == pytest.approx(d.radius, abs=1e-12)


def test_numpy_sin_cos_match_libm():
    """promises.disk_kernel serves the engine with math.sin/cos and the scan
    with np.sin/cos; the two see the same disk centers only while numpy's
    array sin and cos equal libm's bit for bit."""
    x = np.random.default_rng(2024).uniform(-50.0, 50.0, 4096)
    assert np.sin(x).tolist() == [math.sin(v) for v in x.tolist()]
    assert np.cos(x).tolist() == [math.cos(v) for v in x.tolist()]


def _single_neighbor_view(pos, d_target, tightness=0.05):
    """Agent 0 at the origin watching one parked neighbor."""
    spec = FormationSpec({(0, 1): d_target}, 150.0)
    p = make_promise(
        1, 0, 0.0, UnicycleState(pos[0], pos[1], 0.0), ControlInput(0.0, 0.0, LIM),
        StaticBall(tightness),
    )
    return spec, {1: p}


def test_critical_time_zero_rate_expires_now():
    """At an equilibrium the worst-case rate is exactly zero, so the
    certificate expires immediately."""
    spec, view = _single_neighbor_view((1.0, 0.0), 1.0)
    t_star, rate = critical_time_ns(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, HORIZON)
    assert t_star == 0
    assert rate == 0.0


def test_critical_time_descending_start():
    """A stretched edge gives a strictly negative rate and a positive t*."""
    spec, view = _single_neighbor_view((2.0, 0.0), 1.0)
    t_star, rate = critical_time_ns(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, HORIZON)
    assert rate < 0.0
    assert t_star > 0


def test_critical_time_guard_monotone():
    """Inflating the disks can only bring the expiry earlier."""
    spec, view = _single_neighbor_view((2.0, 0.0), 1.0)
    t_a, _ = critical_time_ns(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, HORIZON, guard=0.0)
    t_b, _ = critical_time_ns(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, HORIZON, guard=0.02)
    assert t_b <= t_a


def test_critical_time_horizon_cap():
    """With no crossing inside the horizon the scan returns its last grid
    point rather than pretending to certify further."""
    spec, view = _single_neighbor_view((2.0, 0.0), 1.0)
    horizon = int(0.01 * NS)
    t_star, rate = critical_time_ns(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, horizon)
    assert rate < 0.0
    assert t_star == horizon


def test_critical_time_off_grid_start():
    """Resolves triggered by delayed deliveries start between ticks."""
    spec, view = _single_neighbor_view((2.0, 0.0), 1.0)
    t_last = 1_531_377  # not a multiple of the 1 ms tick
    t_star, _ = critical_time_ns(0, 0.0, 0.0, 0.0, view, t_last, spec, LIM, DT, HORIZON)
    assert t_star >= t_last


def test_critical_time_ns_initial_rate_matches_li_v_sup():
    """The scan's rate at t_last is li_v_sup on the guard-inflated disks
    under the nominal control: both run the same rate bound and goal law."""
    spec, view = _single_neighbor_view((2.0, 0.0), 1.0)
    guard = 0.005
    _, rate = critical_time_ns(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, HORIZON, guard=guard)
    state = UnicycleState(0.0, 0.0, 0.0)
    disk = view_disk_at(view[1], 0.0)
    inflated = {1: DiskSet(disk.center, disk.radius + guard)}
    control = u_double_star(0, state, view, 0.0, spec, LIM)
    assert rate == li_v_sup(0, state, inflated, control, spec)


def test_adaptive_dwell_rules():
    assert adaptive_dwell(0.0, [1.0, 2.0], 0.15, 0.3) == 3.0
    assert adaptive_dwell(1.0, [], 0.15, 0.3) == 3.0
    assert adaptive_dwell(1.0, [2.0, 4.0], 0.15, 0.3) == pytest.approx(0.45)
    assert adaptive_dwell(10.0, [2.0, 4.0], 0.15, 0.3) == 0.3

