import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttlab.triggers as triggers
from ttlab.controllers import goal_law, u_double_star
from ttlab.model import (
    ControlInput,
    DiskSet,
    FormationSpec,
    Limits,
    UnicycleState,
    arc_step,
    wrap_angle,
)
from ttlab.promises import StaticBall, fallback_to_reachability, make_promise, view_disk_at
from ttlab.triggers import (
    BISECT_TOL_NS,
    SCAN_FIRST_CHUNK,
    SCAN_MAX_CHUNK,
    adaptive_dwell,
    critical_time_ns,
    disk_params_batch,
    disk_sup_batch,
    li_v_sup,
    rate_bound,
)

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


def _rate_bound_loop(px, py, fx, fy, disks, dists):
    """Reference: the per-neighbor loop that rate_bound's stacked call
    replaced, one disk_sup_batch call per neighbor added up in order."""
    px, py, fx, fy = (np.atleast_1d(v) for v in (px, py, fx, fy))
    rate = np.zeros(px.shape)
    for (cx, cy, r), d in zip(disks, dists):
        rate += disk_sup_batch(px, py, fx, fy, *map(np.atleast_1d, (cx, cy, r)), d)
    return rate


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rate_bound_stacked_matches_per_neighbor_loop(data):
    """Stacking the neighbors into one kernel call keeps every bit of the
    in-order per-neighbor sum, for single points given as floats and for
    arrays of points, with each disk column a float or an array."""
    n = data.draw(st.one_of(st.none(), st.integers(1, 6)), label="rows")
    k = data.draw(st.integers(0, 4), label="neighbors")

    def value(lo, hi, column=False):
        if n is None or (column and data.draw(st.booleans())):
            return data.draw(st.floats(lo, hi))
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    px, py = value(-10.0, 10.0), value(-10.0, 10.0)
    fx, fy = value(-5.0, 5.0), value(-5.0, 5.0)
    disks = [
        (value(-10.0, 10.0, True), value(-10.0, 10.0, True), value(0.0, 4.0, True))
        for _ in range(k)
    ]
    dists = data.draw(st.lists(st.floats(0.1, 5.0), min_size=k, max_size=k), label="dists")
    got = rate_bound(px, py, fx, fy, disks, dists)
    want = _rate_bound_loop(px, py, fx, fy, disks, dists)
    assert got.shape == want.shape
    assert _bits(got) == _bits(want)


def test_disk_sup_batch_rows_are_independent():
    """One call over stacked rows with a per-row d gives each row the bits
    of a call of its own with a float d. The rows cover parked agents,
    point disks and disks holding the interior stationary points."""
    rng = np.random.default_rng(77)
    n = 400
    px, py = rng.uniform(-5.0, 5.0, (2, n))
    fx, fy = rng.uniform(-5.0, 5.0, (2, n))
    fx[::7] = fy[::7] = 0.0
    cx, cy = px + rng.uniform(-3.0, 3.0, n), py + rng.uniform(-3.0, 3.0, n)
    r = rng.uniform(0.0, 6.0, n)
    r[::5] = 0.0
    d = rng.uniform(0.2, 4.0, n)
    stacked = disk_sup_batch(px, py, fx, fy, cx, cy, r, d)
    for i in range(n):
        row = (v[i : i + 1] for v in (px, py, fx, fy, cx, cy, r))
        assert _bits(stacked[i : i + 1]) == _bits(disk_sup_batch(*row, float(d[i])))


def _sequential_scan(x, y, heading, view, t_last_ns, spec, dt_ns, horizon_ns, guard):
    """Reference: critical_time_ns for agent 0 with the per-neighbor loop and
    one bisection step per rate evaluation, as the scan ran before it
    batched them; the rollout is one chunk, since chunk bounds do not enter
    a row's rate. Returns (index of the first crossing or None, t_star_ns)."""
    order = sorted(view)
    proms = [view[j] for j in order]
    dists = [spec.distance(0, j) for j in order]
    rem = t_last_ns % dt_ns
    first_grid = t_last_ns + (dt_ns - rem if rem else dt_ns)
    ts = [t_last_ns, *range(first_grid, t_last_ns + horizon_ns + 1, dt_ns)]
    t_sec = np.array([tn * 1e-9 for tn in ts])
    disks = []
    for p in proms:
        cx, cy, r = disk_params_batch(p, t_sec)
        disks.append((cx, cy, r + guard))
    centers = [list(zip(cx.tolist(), cy.tolist())) for cx, cy, _ in disks]
    state, rows, rec = (x, y, heading), [], []
    for k in range(len(ts)):
        sx, sy, th = state
        points = [c[k] for c in centers]
        sp, tu = goal_law(sx, sy, th, points, dists, spec.gain, LIM.max_speed, LIM.max_turn)
        rows.append((sx, sy, sp * math.cos(th), sp * math.sin(th)))
        rec.append((sx, sy, th, sp, tu))
        if k + 1 < len(ts):
            nx, ny, nth = arc_step(sx, sy, th, sp, tu, (ts[k + 1] - ts[k]) * 1e-9)
            state = (nx, ny, wrap_angle(nth))
    rate = _rate_bound_loop(*(np.array(v) for v in zip(*rows)), disks, dists)
    hits = np.nonzero(rate >= 0.0)[0]
    if not hits.size:
        return None, ts[-1]
    k = int(hits[0])
    if k == 0:
        return 0, ts[0]
    lo, hi = ts[k - 1], ts[k]
    x0, y0, th0, sp0, tu0 = rec[k - 1]

    def rate_at(tn):
        sx, sy, sth = arc_step(x0, y0, th0, sp0, tu0, (tn - lo) * 1e-9)
        sth = wrap_angle(sth)
        disks = []
        for p in proms:
            disk = view_disk_at(p, tn * 1e-9)
            disks.append((*disk.center, disk.radius + guard))
        fx, fy = sp0 * math.cos(sth), sp0 * math.sin(sth)
        return float(_rate_bound_loop(sx, sy, fx, fy, disks, dists)[0])

    if rate_at(hi) < 0.0:
        return k, hi
    a, b = lo, hi
    while b - a > BISECT_TOL_NS:
        mid = (a + b) // 2
        if rate_at(mid) < 0.0:
            a = mid
        else:
            b = mid
    return k, a


def _chunks_through(k):
    """Rollout chunks the scan runs to reach grid index k."""
    start, chunk, calls = 0, SCAN_FIRST_CHUNK, 0
    while start <= k:
        start, chunk, calls = start + chunk, min(2 * chunk, SCAN_MAX_CHUNK), calls + 1
    return calls


def _random_view(rng, dt_ns):
    """Agent 0 and one to three neighbors: plain, expiring and fallback
    promises at random tightness, issued before a random scan start."""
    k = int(rng.integers(1, 4))
    spec = FormationSpec({(0, j): rng.uniform(0.5, 4.0) for j in range(1, k + 1)}, 150.0)
    t0 = rng.uniform(0.0, 2.0)
    view = {}
    for j in range(1, k + 1):
        anchor = UnicycleState(*rng.uniform(-4.0, 4.0, 2).tolist(), rng.uniform(-3.1, 3.1))
        control = ControlInput(rng.uniform(0.0, 5.0), rng.uniform(-3.0, 3.0), LIM)
        issued = t0 - rng.uniform(0.0, 0.5)
        kind = rng.integers(3)
        expires = issued + rng.uniform(0.0, 0.6) if kind == 1 else None
        p = make_promise(j, 0, issued, anchor, control, StaticBall(rng.uniform(0.0, 0.3)),
                         expires_at=expires)
        if kind == 2:
            p = fallback_to_reachability(p, rng.uniform(issued, t0))
        view[j] = p
    t_last = int(t0 * NS)
    if rng.integers(2):
        t_last -= t_last % dt_ns  # on the tick grid
    own = (*rng.uniform(-4.0, 4.0, 2).tolist(), rng.uniform(-3.1, 3.1))
    return own, view, t_last, spec, float(rng.choice([0.0, 0.005]))


HORIZON_SCAN = 400 * DT


def test_batched_refinement_matches_sequential_bisection(monkeypatch):
    """On 200 random views whose crossing lies past the scan's start, the
    scan returns the t* of the sequential bisection to the nanosecond, with
    one kernel call per rollout chunk and at most two for the refinement.
    Ticks of 1 ms and 10 ms give bisection trees 10 and 14 levels deep,
    and off-grid starts give shallower first brackets."""
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return disk_sup_batch(*args)

    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        dt = int(rng.choice([DT, 10 * DT]))
        own, view, t_last, spec, guard = _random_view(rng, dt)
        k, want = _sequential_scan(*own, view, t_last, spec, dt, HORIZON_SCAN, guard)
        if not k:
            continue
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(triggers, "disk_sup_batch", counted)
            got, _ = critical_time_ns(0, *own, view, t_last, spec, LIM, dt, HORIZON_SCAN, guard)
        assert got == want
        assert 1 <= len(calls) - _chunks_through(k) <= 2
        checked += 1


def test_adaptive_dwell_rules():
    assert adaptive_dwell(0.0, [1.0, 2.0], 0.15, 0.3) == 3.0
    assert adaptive_dwell(1.0, [], 0.15, 0.3) == 3.0
    assert adaptive_dwell(1.0, [2.0, 4.0], 0.15, 0.3) == pytest.approx(0.45)
    assert adaptive_dwell(10.0, [2.0, 4.0], 0.15, 0.3) == 0.3

