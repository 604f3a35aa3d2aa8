import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttlab.triggers as triggers
from ttlab.controllers import goal_law
from ttlab.model import (
    ARC_EPS,
    FormationSpec,
    Limits,
    UnicycleState,
    arc_step,
    wrap_angle,
)
from ttlab.promises import (
    StaticBall,
    disk_at,
    expected_position,
    fallback_to_reachability,
    make_promise,
)
from ttlab.triggers import (
    _COS_PHIS,
    _SIN_PHIS,
    _SQRT3,
    BISECT_TOL_NS,
    SCAN_FIRST_CHUNK,
    SCAN_MAX_CHUNK,
    SUP_BLOCK_ROWS,
    SUP_NEWTON_ITERS,
    SUP_SAMPLES,
    Scan,
    adaptive_dwell,
    critical_time_ns,
    disk_params_batch,
    disk_sup_batch,
    rate_bound,
)

LIM = Limits(5.0, 3.0)
NS = 1_000_000_000
DT = 1_000_000  # the 1 ms tick
DWELL = int(0.3 * NS)
HORIZON = 10 * DWELL  # the engine scans ten self dwells ahead


def _issue(issuer, now, anchor, control, rule, **kw):
    """make_promise at the pose `anchor` under `control`, a (speed, turn) pair."""
    return make_promise(issuer, now, anchor.x, anchor.y, anchor.heading, *control, LIM.max_speed, rule, **kw)


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


def test_rate_bound_conservative_and_tight():
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
        th = wrap_angle(heading)  # the engine's headings are wrapped
        (mine,) = rate_bound(px, py, speed * math.cos(th), speed * math.sin(th), [(cx, cy, r)], [d])
        sup, amax = _dense_scan(
            px, py, speed * math.cos(heading), speed * math.sin(heading), cx, cy, r, d
        )
        assert mine >= sup - 1e-12
        assert mine - sup <= 0.05 * max(amax, 1e-9)


def _rand_promise(rng, expires=None, noisy=False):
    anchor = UnicycleState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3.1, 3.1))
    c = (rng.uniform(0, 5), rng.uniform(-3, 3))
    p = _issue(0, rng.uniform(0, 2), anchor, c, StaticBall(rng.uniform(0, 1)),
               expires_at=None if expires is None else rng.uniform(0, 2) + expires)
    if noisy:
        from ttlab.promises import validate_noisy_promise

        p = validate_noisy_promise(p, 0.01, 0.001)
    return p


@pytest.mark.parametrize("variant", ["plain", "expiring", "noisy", "fallback"])
def test_disk_params_batch_matches_scalar(variant):
    """The vectorized disk evaluation and disk_at must agree exactly."""
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
            dcx, dcy, dr = disk_at(p, float(t))
            assert cx[k] == pytest.approx(dcx, abs=1e-12)
            assert cy[k] == pytest.approx(dcy, abs=1e-12)
            assert r[k] == pytest.approx(dr, abs=1e-12)


def test_numpy_sin_cos_match_libm():
    """promises.disk_kernel serves the engine with math.sin/cos and the scan
    with np.sin/cos; the two see the same disk centers only while numpy's
    array sin and cos equal libm's bit for bit. The control tick relies on
    it too: it reads its control from the scan's rollout, which goal_law
    computed on those numpy centers."""
    x = np.random.default_rng(2024).uniform(-50.0, 50.0, 4096)
    assert np.sin(x).tolist() == [math.sin(v) for v in x.tolist()]
    assert np.cos(x).tolist() == [math.cos(v) for v in x.tolist()]


def _hex(values):
    return [float.hex(v) for v in values]


@pytest.mark.parametrize("kind", ["turning", "straight", "expired", "fallback"])
def test_scan_centers_equal_expected_position_on_the_tick_grid(kind):
    """disk_params_batch gives the scan's rollout the very centre bits that
    expected_position gives the control tick, at the resolve instant and on
    the tick grid after it, for a turning ball, a straight one (|turn| at
    most ARC_EPS), one past its expiry and a fallback. A resolve comes at
    the issue instant or at an off-grid instant later, where the scan's
    first point takes its control from expected_position's centres."""
    rng = np.random.default_rng(["turning", "straight", "expired", "fallback"].index(kind))
    for _ in range(20):
        issued_ns = int(rng.integers(0, 2 * NS))
        if kind == "straight":
            turn = float(rng.choice([0.0, -0.0, ARC_EPS, -ARC_EPS, rng.uniform(-ARC_EPS, ARC_EPS)]))
        else:
            turn = rng.uniform(-3.0, 3.0)
        # An expiry on the tick grid, within the 200 grid points below.
        expires_ns = (issued_ns // DT + int(rng.integers(1, 100))) * DT if kind == "expired" else None
        p = _issue(
            int(rng.integers(0, 4)), issued_ns * 1e-9,
            UnicycleState(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-3.2, 3.2)),
            (rng.uniform(0.0, 5.0), turn), StaticBall(rng.uniform(0.0, 1.0)),
            expires_at=None if expires_ns is None else expires_ns * 1e-9,
        )
        later_ns = issued_ns + int(rng.integers(0, 100 * DT))
        later_ns += later_ns % DT == 0  # off the grid
        if kind == "fallback":
            p = fallback_to_reachability(p, max((later_ns - DT) * 1e-9, p.issued_at))
        for start_ns in [later_ns] if kind == "fallback" else [issued_ns, later_ns]:
            # The scan's grid: the resolve instant, off the grid, then 200 ticks.
            first = (start_ns // DT + 1) * DT
            tns = [start_ns] + [first + k * DT for k in range(200)]
            cx, cy, _ = disk_params_batch(p, np.array([tn * 1e-9 for tn in tns]))
            ticks = [expected_position(p, tn * 1e-9) for tn in tns]
            assert _hex(cx.tolist()) == _hex(x for x, _ in ticks)
            assert _hex(cy.tolist()) == _hex(y for _, y in ticks)


def _single_neighbor_view(pos, d_target, tightness=0.05):
    """Agent 0 at the origin watching one parked neighbor."""
    spec = FormationSpec({(0, 1): d_target}, 150.0)
    p = _issue(
        1, 0.0, UnicycleState(pos[0], pos[1], 0.0), (0.0, 0.0),
        StaticBall(tightness),
    )
    return spec, {1: p}


def _scan_to_end(scan):
    """critical_time_ns(scan) until the scan is no longer pending: its t*."""
    t_star = critical_time_ns(scan)
    return _scan_to_end(scan) if scan.pending else t_star


def _captured_rates(monkeypatch):
    """Patch the scan's rate_bound to keep each result; return the list
    they go to."""
    rates = []

    def captured(*args):
        rates.append(rate_bound(*args))
        return rates[-1]

    monkeypatch.setattr(triggers, "rate_bound", captured)
    return rates


def test_critical_time_zero_rate_expires_now(monkeypatch):
    """At an equilibrium the agent is stationary, so its worst-case rate is
    exactly zero without a kernel call, and the certificate expires
    immediately."""
    spec, view = _single_neighbor_view((1.0, 0.0), 1.0)
    rates = _captured_rates(monkeypatch)
    scan = Scan(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, HORIZON)
    assert _scan_to_end(scan) == 0
    assert scan.rollout[0][4:] == (0.0, 0.0)
    assert rates == []


def test_critical_time_descending_start(monkeypatch):
    """A stretched edge gives a strictly negative rate and a positive t*."""
    spec, view = _single_neighbor_view((2.0, 0.0), 1.0)
    rates = _captured_rates(monkeypatch)
    t_star = _scan_to_end(Scan(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, HORIZON))
    assert rates[0][0] < 0.0
    assert t_star > 0


def test_critical_time_guard_monotone():
    """Inflating the disks can only bring the expiry earlier."""
    spec, view = _single_neighbor_view((2.0, 0.0), 1.0)
    t_a = _scan_to_end(Scan(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, HORIZON, guard=0.0))
    t_b = _scan_to_end(Scan(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, HORIZON, guard=0.02))
    assert t_b <= t_a


def test_critical_time_horizon_cap(monkeypatch):
    """With no crossing inside the horizon the scan returns its last grid
    point rather than pretending to certify further."""
    spec, view = _single_neighbor_view((2.0, 0.0), 1.0)
    horizon = int(0.01 * NS)
    rates = _captured_rates(monkeypatch)
    t_star = _scan_to_end(Scan(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, horizon))
    assert all((r < 0.0).all() for r in rates)
    assert t_star == horizon


def test_critical_time_off_grid_start():
    """Resolves triggered by delayed deliveries start between ticks."""
    spec, view = _single_neighbor_view((2.0, 0.0), 1.0)
    t_last = 1_531_377  # not a multiple of the 1 ms tick
    t_star = _scan_to_end(Scan(0, 0.0, 0.0, 0.0, view, t_last, spec, LIM, DT, HORIZON))
    assert t_star >= t_last


def test_critical_time_ns_start_rate_matches_disk_at(monkeypatch):
    """The scan's rate at its start, rate_bound's row for grid point 0 on
    the scan's disk arrays, is rate_bound on disk_at's disk inflated by the
    guard under goal_law on expected_position: the float path's bits."""
    spec, view = _single_neighbor_view((2.0, 0.0), 1.0)
    guard = 0.005
    cx, cy, r = disk_at(view[1], 0.0)
    dists = [spec.distance(0, 1)]
    points = [expected_position(view[1], 0.0)]
    speed, _ = goal_law(0.0, 0.0, 0.0, points, dists, spec.gain, LIM.max_speed, LIM.max_turn)
    # Heading 0: the velocity is (speed, 0).
    (want,) = rate_bound(0.0, 0.0, speed, 0.0, [(cx, cy, r + guard)], dists)
    rates = _captured_rates(monkeypatch)
    critical_time_ns(Scan(0, 0.0, 0.0, 0.0, view, 0, spec, LIM, DT, HORIZON, guard))
    assert rates[0][0] == want


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


def _disk_sup_reference(px, py, fx, fy, cx, cy, r, d):
    """Reference: disk_sup_batch's body as it stood before its numpy calls
    were cut down, copied verbatim. The kernel must keep its bits."""
    m = SUP_SAMPLES
    ax = cx - px
    ay = cy - py
    aa = ax * ax + ay * ay
    A = aa + r * r - d * d
    Bx = 2.0 * r * ax
    By = 2.0 * r * ay
    C = -(ax * fx + ay * fy)
    Dx = -r * fx
    Dy = -r * fy
    # The rows x samples grid of h is built SUP_BLOCK_ROWS rows at a time.
    n = len(A)
    best = np.empty(n)
    idx = np.empty(n, dtype=np.intp)
    dH_max = np.empty(n)
    for start in range(0, n, SUP_BLOCK_ROWS):
        rows = slice(start, start + SUP_BLOCK_ROWS)
        T1 = A[rows, None] + Bx[rows, None] * _COS_PHIS + By[rows, None] * _SIN_PHIS
        T2 = C[rows, None] + Dx[rows, None] * _COS_PHIS + Dy[rows, None] * _SIN_PHIS
        H = 4.0 * T1 * T2
        best[rows] = H.max(axis=1)
        idx[rows] = H.argmax(axis=1)
        dH_max[rows] = np.abs(np.diff(H, axis=1, append=H[:, :1])).max(axis=1)
    # L_hat * r * (pi/m)^2 with L_hat = max|dH| / (r * 2 pi / m); r cancels.
    pad = dH_max * (np.pi / (2.0 * m))

    phi = 2.0 * np.pi * idx / m
    lim = np.pi / m
    for _ in range(SUP_NEWTON_ITERS):
        c = np.cos(phi)
        s = np.sin(phi)
        t1 = A + Bx * c + By * s
        t2 = C + Dx * c + Dy * s
        t1p = -Bx * s + By * c
        t2p = -Dx * s + Dy * c
        h1 = 4.0 * (t1p * t2 + t1 * t2p)
        h2 = 4.0 * (-(Bx * c + By * s) * t2 + 2.0 * t1p * t2p - t1 * (Dx * c + Dy * s))
        concave = h2 < 0.0
        denom = np.where(concave, h2, -1.0)
        step = np.where(concave, -h1 / denom, 0.0)
        phi = phi + np.clip(step, -lim, lim)
    c = np.cos(phi)
    s = np.sin(phi)
    refined = 4.0 * (A + Bx * c + By * s) * (C + Dx * c + Dy * s)
    best = np.maximum(best, refined)

    # Disk center.
    best = np.maximum(best, 4.0 * (aa - d * d) * C)

    # Interior stationary points (only exist when the agent is moving).
    fn = np.hypot(fx, fy)
    moving = fn > 0.0
    safe_fn = np.where(moving, fn, 1.0)
    ux = fx / safe_fn
    uy = fy / safe_fn
    k1 = d / _SQRT3
    gstar = (8.0 * d * d * d / (3.0 * _SQRT3)) * fn
    zero = np.zeros_like(fn)
    for sx, sy, val in (
        (k1 * ux, k1 * uy, gstar),
        (-k1 * ux, -k1 * uy, -gstar),
        (d * uy, -d * ux, zero),
        (-d * uy, d * ux, zero),
    ):
        ddx = sx - ax
        ddy = sy - ay
        inside = (ddx * ddx + ddy * ddy <= r * r) & moving
        best = np.where(inside, np.maximum(best, val), best)
    return best + pad


def _kernel_rows(rng, n, stationary=0.0, parked_disk=0.0):
    """n random kernel rows: agents and disk centres within a few metres,
    radii up to 6 with a share `parked_disk` of point disks (r = 0), and a
    share `stationary` of rows with a velocity of signed zeros."""
    px, py = rng.uniform(-5.0, 5.0, (2, n))
    fx, fy = rng.uniform(-5.0, 5.0, (2, n))
    still = rng.random(n) < stationary
    fx[still] = rng.choice([0.0, -0.0], still.sum())
    fy[still] = rng.choice([0.0, -0.0], still.sum())
    cx, cy = px + rng.uniform(-3.0, 3.0, n), py + rng.uniform(-3.0, 3.0, n)
    r = rng.uniform(0.0, 6.0, n)
    r[rng.random(n) < parked_disk] = 0.0
    return px, py, fx, fy, cx, cy, r


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.sampled_from([1, SUP_BLOCK_ROWS, SUP_BLOCK_ROWS + 1, 600]), st.integers(1, 40)),
    per_row_d=st.booleans(),
    stationary=st.sampled_from([0.0, 0.3, 1.0]),
    parked_disk=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_disk_sup_batch_matches_reference(seed, n, per_row_d, stationary, parked_disk):
    """disk_sup_batch keeps the reference kernel's bits on every row: with
    one d or a d per row, with point disks, with stationary rows whose
    velocity is +0 or -0, and with row counts that cross SUP_BLOCK_ROWS."""
    rng = np.random.default_rng(seed)
    rows = _kernel_rows(rng, n, stationary, parked_disk)
    d = rng.uniform(0.2, 4.0, n) if per_row_d else float(rng.uniform(0.2, 4.0))
    assert _bits(disk_sup_batch(*rows, d)) == _bits(_disk_sup_reference(*rows, d))


def test_stationary_rows_give_positive_zero():
    """Every term of g has the factor (p - y) . f, so a row whose velocity
    is (+-0, +-0) bounds the rate by exactly +0.0, in disk_sup_batch and in
    rate_bound's sum over neighbors: the scan may count such a point as a
    crossing without evaluating it."""
    rng = np.random.default_rng(31)
    n = 4000
    rows = [_kernel_rows(rng, n, stationary=1.0, parked_disk=0.2) for _ in range(3)]
    dists = rng.uniform(0.2, 4.0, 3).tolist()
    plus_zero = _bits(np.zeros(n))
    assert _bits(disk_sup_batch(*rows[0], rng.uniform(0.2, 4.0, n))) == plus_zero
    px, py, fx, fy = rows[0][:4]
    disks = [rw[4:] for rw in rows]
    assert _bits(rate_bound(px, py, fx, fy, disks, dists)) == plus_zero
    assert _bits(rate_bound(0.0, 0.0, -0.0, -0.0, [(1.0, 2.0, 0.5)], [1.0])) == _bits([0.0])


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
            cx, cy, r = disk_at(p, tn * 1e-9)
            disks.append((cx, cy, r + guard))
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
    promises at random tightness, issued up to 0.5 s before a random scan
    start, on the tick grid or off it. As in the engine, no promise is
    issued after the start, and a fallback disk is frozen between its
    promise's issue and the start. Times are drawn in whole nanoseconds,
    and ns * 1e-9 keeps their order."""
    k = int(rng.integers(1, 4))
    spec = FormationSpec({(0, j): rng.uniform(0.5, 4.0) for j in range(1, k + 1)}, 150.0)
    t_last = int(rng.uniform(0.0, 2.0) * NS)
    if rng.integers(2):
        t_last -= t_last % dt_ns  # on the tick grid
    start = t_last * 1e-9
    view = {}
    for j in range(1, k + 1):
        anchor = UnicycleState(*rng.uniform(-4.0, 4.0, 2).tolist(), rng.uniform(-3.1, 3.1))
        control = (rng.uniform(0.0, 5.0), rng.uniform(-3.0, 3.0))
        issued_ns = t_last - int(rng.uniform(0.0, 0.5) * NS)
        issued = issued_ns * 1e-9
        kind = rng.integers(3)
        expires = issued + rng.uniform(0.0, 0.6) if kind == 1 else None
        p = _issue(j, issued, anchor, control, StaticBall(rng.uniform(0.0, 0.3)), expires_at=expires)
        if kind == 2:
            p = fallback_to_reachability(p, int(rng.integers(issued_ns, t_last + 1)) * 1e-9)
        assert p.issued_at <= start and (p.fb_time is None or p.issued_at <= p.fb_time <= start)
        view[j] = p
    own = (*rng.uniform(-4.0, 4.0, 2).tolist(), rng.uniform(-3.1, 3.1))
    return own, view, t_last, spec, float(rng.choice([0.0, 0.005]))


HORIZON_SCAN = 400 * DT


@pytest.mark.parametrize("t_ns", [371_000_000, 371_088_312], ids=["on-grid", "off-grid"])
def test_scan_over_a_view_from_the_future_is_an_error(t_ns):
    """A view whose fallback disk was frozen after the scan's start has no
    disk there: the scan's first critical_time_ns call raises rather than
    grow that disk by a negative age."""
    spec = FormationSpec({(0, 1): 1.0}, 150.0)
    p = _issue(
        1, 0.317, UnicycleState(3.2, -3.3, 0.4), (2.0, 0.5), StaticBall(0.1)
    )
    view = {1: fallback_to_reachability(p, 0.3710883125654855)}
    scan = Scan(0, 0.0, 0.0, 0.0, view, t_ns, spec, LIM, DT, HORIZON_SCAN)
    with pytest.raises(ValueError, match="precedes fallback time"):
        critical_time_ns(scan)


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
            got = _scan_to_end(Scan(0, *own, view, t_last, spec, LIM, dt, HORIZON_SCAN, guard))
        assert got == want
        assert 1 <= len(calls) - _chunks_through(k) <= 2
        checked += 1


def test_first_scan_chunk_holds_two_points():
    """A scan's first chunk must reach past the resolve instant. A
    one-point first chunk's lower bound of t* is the resolve instant itself,
    so the control update right after the scan sees t >= t* and puts the
    agent in safe mode: a first chunk of one point changed a λ=0 run's
    output digest."""
    assert SCAN_FIRST_CHUNK >= 2


@pytest.mark.parametrize(
    "goal_ahead,still_at,rollout_rows",
    [
        (-0.5, 0, []),
        (0.36, SCAN_FIRST_CHUNK, [SCAN_FIRST_CHUNK]),
        (0.56, SCAN_FIRST_CHUNK + 4, [SCAN_FIRST_CHUNK, 4]),
    ],
    ids=["first-point", "second-chunk-start", "mid-chunk"],
)
def test_scan_stops_at_first_stationary_point(goal_ahead, still_at, rollout_rows, monkeypatch):
    """An agent whose goal lies behind it gets speed 0 from goal_law, and
    its rate there is +0.0, a crossing. The scan finds the every-row
    reference's t* without evaluating that point or any after it: on a
    stationary start it calls no kernel; when the stationary point opens
    the second chunk, that chunk calls no kernel;
    mid-chunk, the kernel gets only the points before it. A chunk that
    opens on the stationary point evaluates no disk array either, the
    refinement's aside, and records there the control goal_law gives on
    the arrays' centres. With a 10 ms tick and gain 150 the agent, heading
    straight for its parked neighbor's goal point, overshoots it and
    stops."""
    spec = FormationSpec({(0, 1): 1.0}, 150.0)
    p = _issue(
        1, 0.0, UnicycleState(1.0 + goal_ahead, 0.0, 0.0), (0.0, 0.0),
        StaticBall(0.0),
    )
    view, own, dt = {1: p}, (0.0, 0.0, 0.0), 10 * DT
    k, want = _sequential_scan(*own, view, 0, spec, dt, HORIZON_SCAN, 0.0)
    assert k == still_at
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return disk_sup_batch(*args)

    monkeypatch.setattr(triggers, "disk_sup_batch", counted)
    arrays = _count_calls(monkeypatch, triggers, "disk_params_batch")
    scan = Scan(0, *own, view, 0, spec, LIM, dt, HORIZON_SCAN)
    per_chunk = []
    while True:
        before = arrays[0]
        t_star = critical_time_ns(scan)
        per_chunk.append(arrays[0] - before)
        if not scan.pending:
            break
    assert t_star == want
    assert calls[: len(rollout_rows)] == rollout_rows
    refinement = calls[len(rollout_rows) :]
    if still_at:
        assert 1 <= len(refinement) <= 2
    else:
        assert refinement == []
    # One array per chunk for its one neighbor, and one per refinement call.
    opens = still_at in (0, SCAN_FIRST_CHUNK)
    assert per_chunk == [1] * (len(per_chunk) - 1) + [(not opens) + len(refinement)]
    t_stop = scan.grid(still_at)
    x, y, th = scan.rollout[t_stop][1:4]
    cx, cy, _ = disk_params_batch(p, np.array([t_stop * 1e-9]))
    centre = [(float(cx[0]), float(cy[0]))]
    law = goal_law(x, y, th, centre, [1.0], 150.0, LIM.max_speed, LIM.max_turn)
    assert _hex(scan.rollout[t_stop][4:]) == _hex(law)
    assert law[0] == 0.0
    if opens:
        kept = range(max(0, still_at - 1), still_at + 1)
        assert sorted(scan.rollout) == [scan.grid(k) for k in kept]
    resumed, _ = _resumed_scan(own, view, 0, spec, dt, HORIZON_SCAN, 0.0)
    assert resumed == t_star


# The hold's scans start here, after neighbor 1's fallback time.
HOLD_T0 = 100 * DT


def _fixed_view(rng, moving=False):
    """Agent 0's view of three neighbors whose centers stay put: a fallback
    disk, a ball parked while turning and one parked straight; with
    `moving`, the last one's anchor speed is not 0. Gain 1 keeps most
    controls off their limits."""

    def ball(j, speed, turn):
        anchor = UnicycleState(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-3.2, 3.2))
        return _issue(j, 0.0, anchor, (speed, turn), StaticBall(0.1))

    view = {
        1: fallback_to_reachability(ball(1, rng.uniform(0.0, 5.0), rng.uniform(-3.0, 3.0)), 0.05),
        2: ball(2, 0.0, rng.uniform(0.5, 3.0)),
        3: ball(3, rng.uniform(0.5, 5.0) if moving else 0.0, 0.0),
    }
    return FormationSpec({(0, 1): 2.0, (0, 2): 1.0, (0, 3): 1.5}, 1.0), view


def _fresh_law(scan, t_ns, pose):
    """goal_law at pose on the scan's promises at t_ns, computed afresh."""
    points = [expected_position(p, t_ns * 1e-9) for p in scan.promises]
    return goal_law(*pose, points, scan.dists, scan.gain, LIM.max_speed, LIM.max_turn)


def _count_calls(m, module, name):
    """Count the calls of module.name under the monkeypatch m, in the one
    item of the list returned."""
    calls = [0]
    fn = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    m.setattr(module, name, counted)
    return calls


def _controls(scan, calls):
    """Scan.control at each (t_ns, pose) of `calls`, with how many of them
    computed the goal offset."""
    with pytest.MonkeyPatch.context() as m:
        offsets = _count_calls(m, triggers, "goal_offset")
        got = [scan.control(t_ns, pose) for t_ns, pose in calls]
    return got, offsets[0]


def _nonzero(rng):
    return float(rng.uniform(0.5, 20.0) * rng.choice([-1.0, 1.0]))


# Heading offsets from the goal's direction that put the goal directly
# behind, or a bearing on either side of the wrap at +/- pi.
_BEHIND = [
    v for a in (math.pi, -math.pi)
    for v in (a, math.nextafter(a, 0.0), math.nextafter(a, 2 * a))
]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    headings=st.lists(
        st.tuples(
            st.booleans(),
            st.one_of(st.floats(-7.0, 7.0), st.sampled_from(_BEHIND + [0.0, -0.0])),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_scan_holds_the_goal_offset_while_nothing_moves(seed, headings):
    """With every center fixed and no rollout point at the pose, the first
    control at (x, y) computes the goal offset and holds it; later ticks at
    the same x and y, whatever the heading, run steer alone and give
    goal_law's control bit for bit. Each heading is drawn raw or as an
    offset from the goal's direction, which reaches the goal directly
    behind and bearings on both sides of the wrap at +/- pi."""
    rng = np.random.default_rng(seed)
    spec, view = _fixed_view(rng)
    x, y = _nonzero(rng), _nonzero(rng)
    scan = Scan(0, x, y, 0.0, view, HOLD_T0, spec, LIM, DT, HORIZON)
    assert scan.fixed
    first, _ = _controls(scan, [(HOLD_T0, (x, y, 0.0))])
    assert _hex(first[0]) == _hex(_fresh_law(scan, HOLD_T0, (x, y, 0.0)))
    assert scan.held[:2] == (x, y)
    goal = math.atan2(scan.held[3], scan.held[2])
    calls = [
        (HOLD_T0 + k * DT, (x, y, goal + h if relative else h))
        for k, (relative, h) in enumerate(headings, 1)
    ]
    got, computed = _controls(scan, calls)
    assert computed == 0
    for (t_ns, pose), control in zip(calls, got):
        assert _hex(control) == _hex(_fresh_law(scan, t_ns, pose)), pose


def test_scan_holds_nothing_while_a_center_moves():
    """One ball with a nonzero anchor speed moves the goal point: every
    tick computes the offset afresh, and none is held."""
    rng = np.random.default_rng(5)
    spec, view = _fixed_view(rng, moving=True)
    x, y = _nonzero(rng), _nonzero(rng)
    scan = Scan(0, x, y, 0.0, view, HOLD_T0, spec, LIM, DT, HORIZON)
    assert not scan.fixed
    calls = [(HOLD_T0 + k * 50 * DT, (x, y, 0.25)) for k in range(6)]
    got, computed = _controls(scan, calls)
    assert computed == len(calls)
    assert scan.held is None
    assert [_hex(c) for c in got] == [_hex(_fresh_law(scan, *call)) for call in calls]
    assert len(set(got)) > 1  # a held offset would have been stale


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_scan_holds_nothing_at_a_zero_coordinate(axis, zero):
    """`==` cannot tell 0.0 from -0.0, whose sign goal_offset can see, so a
    pose with a zero coordinate is never held, even on a fixed view; the
    ticks alternate the zero's sign."""
    rng = np.random.default_rng(11)
    spec, view = _fixed_view(rng)
    other = _nonzero(rng)
    pose = (zero, other) if axis == "x" else (other, zero)
    scan = Scan(0, *pose, 0.0, view, HOLD_T0, spec, LIM, DT, HORIZON)
    assert scan.fixed
    calls = []
    for k in range(4):
        z = zero if k % 2 == 0 else -zero
        at = (z, other) if axis == "x" else (other, z)
        calls.append((HOLD_T0 + k * DT, (*at, 0.5 * k)))
    got, computed = _controls(scan, calls)
    assert computed == len(calls)
    assert scan.held is None
    assert [_hex(c) for c in got] == [_hex(_fresh_law(scan, *call)) for call in calls]


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize("way", [math.inf, -math.inf], ids=["up", "down"])
def test_scan_recomputes_after_a_one_ulp_move(axis, way):
    """A pose 1 ulp away from the held one computes its offset afresh,
    gives goal_law's control there and holds the new position."""
    rng = np.random.default_rng(17)
    spec, view = _fixed_view(rng)
    pose = (_nonzero(rng), _nonzero(rng), 0.4)
    scan = Scan(0, *pose, view, HOLD_T0, spec, LIM, DT, HORIZON)
    _controls(scan, [(HOLD_T0, pose)])
    moved = list(pose)
    moved[axis] = math.nextafter(moved[axis], way)
    moved = tuple(moved)
    got, computed = _controls(scan, [(HOLD_T0 + DT, moved), (HOLD_T0 + 2 * DT, moved)])
    assert computed == 1
    assert scan.held[:2] == moved[:2]
    want = _fresh_law(scan, HOLD_T0 + DT, moved)
    assert _hex(got[0]) == _hex(got[1]) == _hex(want)


def _resumed_scan(own, view, t_last, spec, dt, horizon, guard, cuts=()):
    """critical_time_ns one chunk per call on one Scan; chunk k is cuts[k]
    points long where given. Returns t* and the lower bounds the pending
    calls returned."""
    scan = Scan(0, *own, view, t_last, spec, LIM, dt, horizon, guard)
    bounds = []
    for k in itertools.count():
        if k < len(cuts):
            scan.chunk = cuts[k]
        t_star = critical_time_ns(scan)
        if not scan.pending:
            return t_star, bounds
        bounds.append(t_star)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.integers(1, 2 * SCAN_MAX_CHUNK), max_size=10),
    horizon_ticks=st.integers(0, 500),
    coarse=st.booleans(),
)
def test_resumed_scan_matches_full_scan(seed, cuts, horizon_ticks, coarse):
    """Cutting the scan at arbitrary chunk bounds gives the t* of the
    sequential reference, which scans the whole horizon at once: on random
    views, with starts on and off the tick grid, with crossings at the
    start, at a cut and past the horizon, for the drawn chunk sizes, for
    chunks of one point throughout, which make every grid point a cut, and
    for the engine's own chunks. Each pending call returns a grid point
    that bounds t* from below."""
    rng = np.random.default_rng(seed)
    dt = 10 * DT if coarse else DT
    own, view, t_last, spec, guard = _random_view(rng, dt)
    horizon = horizon_ticks * dt
    _, want = _sequential_scan(*own, view, t_last, spec, dt, horizon, guard)
    for chunks in (cuts, [1] * (horizon_ticks + 2), ()):
        t_star, bounds = _resumed_scan(own, view, t_last, spec, dt, horizon, guard, chunks)
        assert t_star == want
        assert bounds == sorted(set(bounds))
        assert all(b in (t_last, b - b % dt) and t_last <= b <= t_star for b in bounds)


def _radius_rate(threshold):
    """A stand-in for rate_bound that crosses zero where the first disk's
    radius reaches `threshold`: with a fallback disk, at a chosen time."""

    def rate(px, py, fx, fy, disks, dists):
        return np.atleast_1d(np.asarray(disks[0][2], dtype=float)) - threshold

    return rate


@pytest.mark.parametrize("where", ["start", "cut", "later-chunk", "none"])
def test_resumed_scan_at_pinned_crossings(where, monkeypatch):
    """With a rate that crosses zero at a chosen time, the scan resumed
    chunk by chunk matches _scan_to_end: a crossing at the start returns
    the start; a crossing just past the last point of the first chunk is
    found at the first point of the resumed chunk, whose refinement returns
    its lo, the pending call's lower bound; a crossing deep inside a later
    chunk; and none before the horizon, which returns the last grid point."""
    spec = FormationSpec({(0, 1): 1.0}, 150.0)
    p = _issue(
        1, 0.0, UnicycleState(2.0, 0.0, 0.0), (0.0, 0.0), StaticBall(0.0)
    )
    view = {1: fallback_to_reachability(p, 0.0)}
    t_last = 1_531_377  # off the tick grid
    first_grid = 2 * DT
    cross_ns = {
        "start": t_last,
        "cut": first_grid + (SCAN_FIRST_CHUNK - 2) * DT + 1,
        "later-chunk": first_grid + 40 * DT + 123_456,
        "none": 10 * NS,
    }[where]
    threshold = disk_at(view[1], cross_ns * 1e-9)[2]
    monkeypatch.setattr(triggers, "rate_bound", _radius_rate(threshold))
    own = (0.0, 0.0, 0.0)
    want = _scan_to_end(Scan(0, *own, view, t_last, spec, LIM, DT, HORIZON_SCAN))
    got, bounds = _resumed_scan(own, view, t_last, spec, DT, HORIZON_SCAN, 0.0)
    assert got == want
    last_grid = t_last + HORIZON_SCAN - (t_last + HORIZON_SCAN) % DT
    expected = {
        "start": t_last,
        "cut": cross_ns - 1,
        "later-chunk": None,
        "none": last_grid,
    }[where]
    if expected is not None:
        assert want == expected
    else:
        assert cross_ns - BISECT_TOL_NS <= want < cross_ns
    if where == "cut":
        assert bounds == [cross_ns - 1]  # the first chunk's last point
    if where == "start":
        assert bounds == []


def test_adaptive_dwell_rules():
    assert adaptive_dwell(0.0, [1.0, 2.0], 0.15, 0.3) == 3.0
    assert adaptive_dwell(1.0, [], 0.15, 0.3) == 3.0
    assert adaptive_dwell(1.0, [2.0, 4.0], 0.15, 0.3) == pytest.approx(0.45)
    assert adaptive_dwell(10.0, [2.0, 4.0], 0.15, 0.3) == 0.3

