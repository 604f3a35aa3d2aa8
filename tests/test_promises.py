import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab.model import ARC_EPS, ControlInput, Limits, UnicycleState, arc_step, step_unicycle
from ttlab.promises import (
    BREACH_TOL,
    DynamicBall,
    Promise,
    PromiseMode,
    StaticBall,
    breach_margin,
    check_breach,
    disk_at,
    expected_position,
    fallback_to_reachability,
    is_expired,
    make_promise,
    promise_from_wire,
    promise_to_wire,
    validate_noisy_promise,
    view_disk_at,
)
from ttlab.triggers import disk_params_batch

LIM = Limits(5.0, 3.0)
U_MAX = LIM.max_speed

# Control-ball containment is only geometrically guaranteed while the lateral
# drift of an arc against its chord (u_max * tau^2 / 2) stays below the ball
# growth (delta * tau), i.e. for tau < 2 / u_max = 0.4 s here. The protocol
# refreshes promises roughly every 0.3 s, so the property is tested on that
# operating window.
TAU_MAX = 0.35


def _promise(anchor, control, delta, issued_at=0.0, **kw):
    return Promise(
        issuer=0,
        recipient=1,
        issued_at=issued_at,
        anchor_state=anchor,
        anchor_control=control,
        radius=delta,
        **kw,
    )


def _clamp_control(speed, turn):
    return ControlInput(
        min(max(speed, 0.0), LIM.max_speed),
        min(max(turn, -LIM.max_turn), LIM.max_turn),
        LIM,
    )


def _rollout(anchor, controls, dt):
    """Integrate a piecewise-constant control sequence; yields (t, state)."""
    s = anchor
    t = 0.0
    out = []
    for c in controls:
        s = step_unicycle(s, c, dt)
        t += dt
        out.append((t, s))
    return out


def test_make_promise_static_radius():
    p = make_promise(0, 1, 0.0, UnicycleState(0, 0, 0), ControlInput(1.0, 0.0, LIM), StaticBall(0.2))
    assert p.radius == 2.0 * U_MAX * 0.2
    assert p.mode is PromiseMode.BALL_RADIUS


def test_make_promise_dynamic_radius_uses_planning_gap():
    """The dynamic rule sizes the ball from the planning control's gap, not
    from the applied anchor control, and refuses a promise without one."""
    anchor_c = ControlInput(0.0, 0.0, LIM)  # safe mode applied
    gap = math.hypot(3.0, 4.0 / 5.0 * 3.0)
    p = make_promise(0, 1, 0.0, UnicycleState(0, 0, 0), anchor_c, DynamicBall(0.5, 1e-6), gap=gap)
    assert p.radius == 0.5 * gap + 1e-6
    assert p.gap == gap
    with pytest.raises(ValueError, match="planning gap"):
        make_promise(0, 1, 0.0, UnicycleState(0, 0, 0), anchor_c, DynamicBall(0.5, 1e-6))


def test_promise_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        _promise(UnicycleState(0, 0, 0), ControlInput(1, 0, LIM), -1.0)
    with pytest.raises(ValueError):
        _promise(UnicycleState(0, 0, 0), ControlInput(1, 0, LIM), 1.0, expires_at=0.0)
    with pytest.raises(ValueError):
        Promise(0, 1, 0.0, UnicycleState(0, 0, 0), ControlInput(1, 0, LIM), 1.0,
                mode=PromiseMode.REACHABILITY_FALLBACK)


def test_wire_round_trip_is_bit_exact():
    p = make_promise(
        2,
        3,
        1.2345678901234567,
        UnicycleState(6.1, 10.2, 0.9187),
        ControlInput(4.987654321, -2.123456789, LIM),
        StaticBall(0.3),
        expires_at=2.25,
        gap=1.75,
    )
    wire = promise_to_wire(p)
    assert len(wire) == 11
    q = promise_from_wire(wire, LIM)
    assert q == p
    assert q.issuer == p.issuer and q.recipient == p.recipient
    assert q.issued_at == p.issued_at
    assert q.anchor_state == p.anchor_state
    assert q.anchor_control.speed == p.anchor_control.speed
    assert q.anchor_control.turn_rate == p.anchor_control.turn_rate
    assert q.radius == p.radius
    assert q.expires_at == p.expires_at
    assert q.gap == p.gap


def test_wire_rejects_fallback_mode():
    p = _promise(UnicycleState(0, 0, 0), ControlInput(1, 0, LIM), 1.0)
    fb = fallback_to_reachability(p, 0.5)
    with pytest.raises(ValueError):
        promise_to_wire(fb)


def test_disks_nested_in_tightness():
    """A tighter promise commits to a subset of a looser one's disk."""
    anchor = UnicycleState(1.0, 2.0, 0.7)
    control = ControlInput(3.0, 1.0, LIM)
    for tau in (0.01, 0.1, 0.3, 1.0):
        radii = []
        for lam in (0.0, 0.1, 0.2, 0.5, 1.0):
            p = make_promise(0, 1, 0.0, anchor, control, StaticBall(lam))
            d = view_disk_at(p, tau)
            radii.append(d.radius)
        assert radii == sorted(radii)


def test_disk_radius_nondecreasing_in_time():
    anchor = UnicycleState(0.0, 0.0, 0.3)
    p = _promise(anchor, ControlInput(2.0, -1.5, LIM), 1.0)
    taus = np.linspace(0.0, 2.0, 300)
    radii = [view_disk_at(p, float(t)).radius for t in taus]
    assert all(b >= a - 1e-12 for a, b in zip(radii, radii[1:]))


def test_ball_containment_monte_carlo():
    """In-ball control rollouts stay inside the promised disk (tau <= 0.35).

    1000 random promises, each followed by a piecewise-constant control path
    drawn from the committed control ball; zero containment violations
    allowed.
    """
    rng = np.random.default_rng(20260819)
    dt = 0.05
    steps = int(TAU_MAX / dt)
    violations = 0
    for _ in range(1000):
        anchor = UnicycleState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3.1, 3.1))
        c0 = ControlInput(rng.uniform(0, U_MAX), rng.uniform(-3, 3), LIM)
        delta = rng.uniform(0.0, 2.0 * U_MAX)
        p = _promise(anchor, c0, delta)
        controls = []
        for _ in range(steps):
            rho = delta * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            controls.append(_clamp_control(c0.speed + rho * math.cos(phi),
                                           c0.turn_rate + rho * math.sin(phi)))
        for t, s in _rollout(anchor, controls, dt):
            if not view_disk_at(p, t).contains((s.x, s.y), tol=1e-9):
                violations += 1
    assert violations == 0


@pytest.mark.parametrize("delta,exit_ms", [(0.05, 401), (0.5, 401), (1.0, 402), (2.0, 408)])
def test_in_ball_motion_leaves_the_disk_past_two_over_anchor_speed(delta, exit_ms):
    """The disk does not hold every motion the control ball allows. An
    issuer anchored at control (5, 0) that holds (5, delta), within delta of
    the anchor, drifts about 5 * delta * tau^2 / 2 off the straight centre,
    which passes the ball radius delta * tau once tau > 2 / 5 s. On the 1 ms
    grid it is inside up to the tick before exit_ms and outside from exit_ms
    to 2 s: containment of in-ball motion holds only up to an age of about
    2 / (anchor speed), and past it the issuer's breach monitor keeps the
    position promise."""
    p = _promise(UnicycleState(0.0, 0.0, 0.0), ControlInput(5.0, 0.0, LIM), delta)
    inside = []
    for k in range(1, 2001):
        x, y, _ = arc_step(0.0, 0.0, 0.0, 5.0, delta, k * 1e-3)
        inside.append(breach_margin(p, k * 1e-3, x, y) >= 0.0)
    assert all(inside[: exit_ms - 1]) and not any(inside[exit_ms - 1 :])
    assert 2.0 / 5.0 < exit_ms * 1e-3 < 2.1 / 5.0


def test_reachability_containment_monte_carlo():
    """The tightness-1 promise contains any admissible motion at any horizon."""
    rng = np.random.default_rng(4242)
    dt = 0.1
    violations = 0
    for _ in range(1000):
        anchor = UnicycleState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3.1, 3.1))
        c0 = ControlInput(rng.uniform(0, U_MAX), rng.uniform(-3, 3), LIM)
        p = make_promise(0, 1, 0.0, anchor, c0, StaticBall(1.0))
        controls = [
            ControlInput(rng.uniform(0, U_MAX), rng.uniform(-3, 3), LIM) for _ in range(20)
        ]
        for t, s in _rollout(anchor, controls, dt):
            if not view_disk_at(p, t).contains((s.x, s.y), tol=1e-9):
                violations += 1
    assert violations == 0


def test_fallback_containment_monte_carlo():
    """Post-warning disks contain anything reachable from the frozen disk."""
    rng = np.random.default_rng(99)
    dt = 0.1
    violations = 0
    for _ in range(1000):
        anchor = UnicycleState(0.0, 0.0, 0.0)
        p = _promise(anchor, ControlInput(2.0, 0.5, LIM), rng.uniform(0, 3))
        t0 = rng.uniform(0.05, 0.5)
        fb = fallback_to_reachability(p, t0)
        frozen = view_disk_at(p, t0)
        # start anywhere inside the frozen disk
        rho = frozen.radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0, 2 * math.pi)
        start = UnicycleState(
            frozen.center[0] + rho * math.cos(phi),
            frozen.center[1] + rho * math.sin(phi),
            rng.uniform(-3.1, 3.1),
        )
        controls = [
            ControlInput(rng.uniform(0, U_MAX), rng.uniform(-3, 3), LIM) for _ in range(10)
        ]
        for t, s in _rollout(start, controls, dt):
            if not view_disk_at(fb, t0 + t).contains((s.x, s.y), tol=1e-9):
                violations += 1
    assert violations == 0


def test_noisy_validation_containment_monte_carlo():
    """Validated noisy promises still contain the issuer's true motion.

    The channel shifts the anchor position and anchor control by vectors of
    norm <= omega_bar and the radius by <= delta_bar; the validated disk must
    cover in-ball rollouts of the clean promise despite that.
    """
    rng = np.random.default_rng(777)
    omega_bar = 0.01
    delta_bar = 0.001
    dt = 0.05
    steps = int(TAU_MAX / dt)
    violations = 0
    for _ in range(1000):
        anchor = UnicycleState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3.1, 3.1))
        c0 = ControlInput(rng.uniform(0, U_MAX), rng.uniform(-3, 3), LIM)
        delta = rng.uniform(0.0, 2.0 * U_MAX)
        clean = _promise(anchor, c0, delta)

        # what the channel delivers
        rho = omega_bar * math.sqrt(rng.uniform())
        phi = rng.uniform(0, 2 * math.pi)
        noisy_anchor = UnicycleState(anchor.x + rho * math.cos(phi),
                                     anchor.y + rho * math.sin(phi), anchor.heading)
        rho = omega_bar * math.sqrt(rng.uniform())
        phi = rng.uniform(0, 2 * math.pi)
        noisy_c = _clamp_control(c0.speed + rho * math.cos(phi), c0.turn_rate + rho * math.sin(phi))
        noisy_r = max(delta + rng.uniform(-delta_bar, delta_bar), 0.0)
        received = replace(clean, anchor_state=noisy_anchor, anchor_control=noisy_c, radius=noisy_r)
        validated = validate_noisy_promise(received, omega_bar, delta_bar)

        controls = []
        for _ in range(steps):
            rho = delta * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            controls.append(_clamp_control(c0.speed + rho * math.cos(phi),
                                           c0.turn_rate + rho * math.sin(phi)))
        for t, s in _rollout(anchor, controls, dt):
            if not view_disk_at(validated, t).contains((s.x, s.y), tol=1e-9):
                violations += 1
    assert violations == 0


def test_validate_noisy_promise_rejects_negative_bounds():
    p = _promise(UnicycleState(0, 0, 0), ControlInput(1, 0, LIM), 1.0)
    with pytest.raises(ValueError):
        validate_noisy_promise(p, -0.01, 0.0)


def test_check_breach_boundary():
    anchor = UnicycleState(0.0, 0.0, 0.0)
    p = _promise(anchor, ControlInput(2.0, 0.0, LIM), 1.0)
    t = 0.5
    disk = view_disk_at(p, t)
    on_edge = UnicycleState(disk.center[0] + disk.radius, disk.center[1], 0.0)
    assert not check_breach(p, t, on_edge)
    outside = UnicycleState(disk.center[0] + disk.radius + 2 * BREACH_TOL, disk.center[1], 0.0)
    assert check_breach(p, t, outside)


def test_zero_radius_promise_breaches_within_one_step():
    """An exact-hold commitment is broken by any deviating control at once."""
    anchor = UnicycleState(0.0, 0.0, 0.0)
    hold = ControlInput(2.0, 0.0, LIM)
    p = _promise(anchor, hold, 0.0)
    dt = 1e-3
    s = step_unicycle(anchor, ControlInput(2.0, 3.0, LIM), dt)
    assert check_breach(p, dt, s)
    # while the anchored control itself never breaches
    s_hold = step_unicycle(anchor, hold, dt)
    assert not check_breach(p, dt, s_hold)


def test_expiry_and_ballooning():
    anchor = UnicycleState(0.0, 0.0, 0.0)
    p = _promise(anchor, ControlInput(1.0, 0.0, LIM), 0.5, expires_at=1.0)
    assert not is_expired(p, 1.0)
    assert is_expired(p, 1.0 + 1e-12)
    edge = view_disk_at(p, 1.0)
    later = view_disk_at(p, 1.5)
    assert later.center == edge.center
    assert later.radius == pytest.approx(edge.radius + U_MAX * 0.5)


def test_fallback_disk_grows_at_max_speed():
    p = _promise(UnicycleState(0, 0, 0), ControlInput(2.0, 0.0, LIM), 1.0)
    fb = fallback_to_reachability(p, 0.25)
    d0 = view_disk_at(fb, 0.25)
    d1 = view_disk_at(fb, 1.25)
    assert d1.radius == pytest.approx(d0.radius + U_MAX)
    assert d0.center == d1.center


@st.composite
def _promise_and_times(draw, turns=st.floats(-LIM.max_turn, LIM.max_turn)):
    """A promise of one of four kinds and two times t0 <= t1 it is monitored at."""
    coord = st.floats(-20.0, 20.0)
    heading = st.floats(-math.pi, math.pi)
    anchor = UnicycleState(draw(coord), draw(coord), draw(heading))
    control = ControlInput(draw(st.floats(0.0, U_MAX)), draw(turns), LIM)
    issued_at = draw(st.floats(0.0, 2.0))
    kind = draw(st.sampled_from(["ball", "noisy", "expired", "fallback"]))
    expires_at = issued_at + draw(st.floats(0.01, 1.0)) if kind == "expired" else None
    radius = draw(st.floats(0.0, 2.0 * U_MAX))
    p = _promise(anchor, control, radius, issued_at, expires_at=expires_at)
    t_first = issued_at
    if kind == "noisy":
        p = validate_noisy_promise(p, draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5)))
    elif kind == "fallback":
        t_first = issued_at + draw(st.floats(0.0, 1.0))
        p = fallback_to_reachability(p, t_first)
    t0 = t_first + draw(st.floats(0.0, 2.0))
    return p, t0, t0 + draw(st.floats(0.0, 1.0))


@given(
    _promise_and_times(),
    st.floats(-25.0, 25.0),
    st.floats(-25.0, 25.0),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, U_MAX),
    st.floats(-LIM.max_turn, LIM.max_turn),
)
@settings(max_examples=500, deadline=None)
def test_breach_margin_falls_at_most_twice_max_speed(case, x, y, heading, speed, turn):
    """The bound the engine's check schedule rests on: between two instants
    the margin falls by at most 2 * max_speed per second of elapsed time."""
    p, t0, t1 = case
    x1, y1, _ = arc_step(x, y, heading, speed, turn, t1 - t0)
    m0 = breach_margin(p, t0, x, y)
    m1 = breach_margin(p, t1, x1, y1)
    assert m1 >= m0 - 2.0 * U_MAX * (t1 - t0) - 2.0 * BREACH_TOL


def test_breach_margin_bound_is_tight():
    # Center and issuer moving apart head-on, both at max speed: the margin
    # falls at exactly 2 * max_speed, so no smaller rate may schedule checks.
    p = _promise(UnicycleState(0.0, 0.0, 0.0), ControlInput(U_MAX, 0.0, LIM), 0.0)
    m0 = breach_margin(p, 0.5, 2.5, 0.0)
    x1, y1, _ = arc_step(2.5, 0.0, math.pi, U_MAX, 0.0, 0.25)
    m1 = breach_margin(p, 0.75, x1, y1)
    assert m0 == BREACH_TOL
    assert m1 == pytest.approx(m0 - 2.0 * U_MAX * 0.25, abs=1e-12)


def _bits(values):
    return [float(v).hex() for v in values]


# Turn rates exactly 0, inside the straight-line band |turn| <= ARC_EPS, at
# and just past its edge, and anywhere up to the limit.
_SPLIT_TURNS = st.one_of(
    st.sampled_from([0.0, ARC_EPS, -ARC_EPS, math.nextafter(ARC_EPS, 1.0), -2.0 * ARC_EPS]),
    st.floats(-ARC_EPS, ARC_EPS),
    st.floats(-1e-6, 1e-6),
    st.floats(-LIM.max_turn, LIM.max_turn),
)


@given(_promise_and_times(_SPLIT_TURNS))
@settings(max_examples=500, deadline=None)
def test_disk_halves_match_view_disk_at_bit_for_bit(case):
    """The centre half alone (expected_position), the float disk (disk_at)
    and the array path (disk_params_batch) give view_disk_at's bits, and a
    ball promise's centre is model.arc_step's arc at the disk's age."""
    p, t0, t1 = case
    times = [t0, t1]
    for t in times:
        disk = view_disk_at(p, t)
        assert _bits(expected_position(p, t)) == _bits(disk.center)
        assert _bits(disk_at(p, t)) == _bits((*disk.center, disk.radius))
        if p.mode is PromiseMode.BALL_RADIUS:
            end = t if p.expires_at is None else min(t, p.expires_at)
            a, c = p.anchor_state, p.anchor_control
            arc = arc_step(a.x, a.y, a.heading, c.speed, c.turn_rate, end - p.issued_at)
            assert _bits(disk.center) == _bits(arc[:2])
        else:
            assert disk.center == p.fb_center
    cx, cy, _ = disk_params_batch(p, np.array(times))
    centres = [c for t in times for c in expected_position(p, t)]
    assert _bits(np.column_stack([cx, cy]).ravel()) == _bits(centres)
