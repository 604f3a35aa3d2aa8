import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab.model import (
    CommGraph,
    ControlInput,
    DiskSet,
    FormationSpec,
    Limits,
    UnicycleState,
    lyapunov,
    lyapunov_gradient,
    step_unicycle,
    wrap_angle,
)

LIM = Limits(5.0, 3.0)


def test_wrap_angle_interval():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-100.0, 100.0))
def test_wrap_angle_is_idempotent_and_in_range(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w
    # same point on the circle
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)


def test_control_input_validation():
    ControlInput(0.0, 0.0, LIM)
    ControlInput(5.0, -3.0, LIM)
    with pytest.raises(ValueError):
        ControlInput(-0.1, 0.0, LIM)
    with pytest.raises(ValueError):
        ControlInput(5.1, 0.0, LIM)
    with pytest.raises(ValueError):
        ControlInput(1.0, 3.5, LIM)


def test_limits_validation():
    with pytest.raises(ValueError):
        Limits(0.0, 1.0)
    with pytest.raises(ValueError):
        Limits(1.0, -2.0)
    with pytest.raises(ValueError):
        Limits(math.inf, 1.0)


def test_step_unicycle_frozen_values():
    """Closed-form arc and straight-line steps against hand-checked values."""
    s = step_unicycle(UnicycleState(1.0, 2.0, math.pi / 6), ControlInput(2.0, 1.0, LIM), 0.5)
    assert s.x == 1.7079719531989266
    assert s.y == 2.6914587611424956
    assert s.heading == 1.0235987755982987

    s = step_unicycle(UnicycleState(1.0, 2.0, math.pi / 6), ControlInput(2.0, 0.0, LIM), 0.5)
    assert s.x == 1.8660254037844388
    assert s.y == 2.5
    assert s.heading == 0.5235987755982988


def test_step_zero_dt_is_identity():
    s0 = UnicycleState(3.0, -1.0, 0.7)
    s1 = step_unicycle(s0, ControlInput(4.0, 2.0, LIM), 0.0)
    assert (s1.x, s1.y, s1.heading) == (s0.x, s0.y, s0.heading)


def _rk4(state, control, dt, n):
    x, y, th = state.x, state.y, state.heading
    h = dt / n
    for _ in range(n):
        def f(xx, yy, tt):
            return (control.speed * math.cos(tt), control.speed * math.sin(tt), control.turn_rate)

        k1 = f(x, y, th)
        k2 = f(x + h / 2 * k1[0], y + h / 2 * k1[1], th + h / 2 * k1[2])
        k3 = f(x + h / 2 * k2[0], y + h / 2 * k2[1], th + h / 2 * k2[2])
        k4 = f(x + h * k3[0], y + h * k3[1], th + h * k3[2])
        x += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        th += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return x, y, th


@pytest.mark.parametrize(
    "speed,turn",
    [(2.0, 1.0), (5.0, -3.0), (3.0, 0.5), (1.0, 2.9), (4.0, 0.0)],
)
def test_step_matches_rk4(speed, turn):
    """The closed-form step agrees with a fine RK4 integration to < 1e-8."""
    s0 = UnicycleState(1.0, -2.0, 0.3)
    c = ControlInput(speed, turn, LIM)
    dt = 0.25
    exact = step_unicycle(s0, c, dt)
    rx, ry, rth = _rk4(s0, c, dt, 400)
    assert abs(exact.x - rx) < 1e-8
    assert abs(exact.y - ry) < 1e-8
    assert abs(wrap_angle(exact.heading - rth)) < 1e-8


@given(
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
    st.floats(-3.1, 3.1),
    st.floats(0.0, 5.0),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 2.0),
)
@settings(max_examples=200)
def test_step_composition(x, y, th, speed, turn, dt):
    """Stepping dt then dt equals stepping 2*dt under a held control."""
    s0 = UnicycleState(x, y, th)
    c = ControlInput(speed, turn, LIM)
    once = step_unicycle(step_unicycle(s0, c, dt), c, dt)
    twice = step_unicycle(s0, c, 2 * dt)
    assert math.isclose(once.x, twice.x, abs_tol=1e-9)
    assert math.isclose(once.y, twice.y, abs_tol=1e-9)
    assert abs(wrap_angle(once.heading - twice.heading)) < 1e-9


@given(st.floats(0.0, 5.0), st.floats(-3.0, 3.0), st.floats(0.0, 3.0))
@settings(max_examples=200)
def test_step_stays_in_reachable_disk(speed, turn, horizon):
    """An agent ends within max_speed * horizon of where it started."""
    s0 = UnicycleState(0.0, 0.0, 1.1)
    c = ControlInput(speed, turn, LIM)
    s1 = step_unicycle(s0, c, horizon)
    assert math.hypot(s1.x - s0.x, s1.y - s0.y) <= LIM.max_speed * horizon + 1e-9


def test_comm_graph_neighbors_and_validation():
    g = CommGraph(4, [(0, 1), (2, 1), (3, 2)])
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.neighbors(1) == (0, 2)
    with pytest.raises(ValueError):
        CommGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        CommGraph(3, [(0, 5)])


def test_formation_spec_validation():
    spec = FormationSpec({(1, 0): 2.0}, 1.0)
    assert spec.distance(0, 1) == 2.0
    assert spec.distance(1, 0) == 2.0
    with pytest.raises(ValueError):
        FormationSpec({(0, 1): -1.0}, 1.0)
    with pytest.raises(ValueError):
        FormationSpec({(0, 1): 1.0, (1, 0): 2.0}, 1.0)
    with pytest.raises(ValueError):
        FormationSpec({(0, 1): 1.0}, 0.0)


def test_lyapunov_two_agent_oracle():
    """Two agents 2 apart with target 1: err = 4 - 1 = 3, V = 9."""
    spec = FormationSpec({(0, 1): 1.0}, 1.0)
    g = CommGraph(2, [(0, 1)])
    states = [UnicycleState(0.0, 0.0, 0.0), UnicycleState(2.0, 0.0, 0.0)]
    assert lyapunov(states, spec, g) == 9.0


def test_lyapunov_zero_at_target():
    spec = FormationSpec({(0, 1): 2.0}, 1.0)
    g = CommGraph(2, [(0, 1)])
    states = [UnicycleState(0.0, 0.0, 0.0), UnicycleState(2.0, 0.0, 1.0)]
    assert lyapunov(states, spec, g) == 0.0


def test_gradient_two_agent_oracle():
    """Same setup: dV/dx0 = 4 * 3 * (-(2)) = -24, dV/dy0 = 0."""
    spec = FormationSpec({(0, 1): 1.0}, 1.0)
    g = CommGraph(2, [(0, 1)])
    states = [UnicycleState(0.0, 0.0, 0.0), UnicycleState(2.0, 0.0, 0.0)]
    grad = lyapunov_gradient(0, states, spec, g)
    assert grad[0] == -24.0
    assert grad[1] == 0.0


def test_gradient_matches_finite_differences(graph, spec):
    """Central differences on 100 random team configurations, rel err < 1e-6."""
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        pts = rng.uniform(-5.0, 5.0, size=(4, 2))
        states = [UnicycleState(px, py, 0.0) for px, py in pts]
        i = int(rng.integers(0, 4))
        grad = lyapunov_gradient(i, states, spec, graph)
        fd = np.zeros(2)
        for axis in range(2):
            bump = pts.copy()
            bump[i, axis] += h
            up = lyapunov([UnicycleState(px, py, 0.0) for px, py in bump], spec, graph)
            bump[i, axis] -= 2 * h
            dn = lyapunov([UnicycleState(px, py, 0.0) for px, py in bump], spec, graph)
            fd[axis] = (up - dn) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(grad)))
        assert np.linalg.norm(grad - fd) / scale < 1e-6


def test_gradient_sums_to_zero(graph, spec):
    """The potential depends on relative positions only."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3.0, 3.0, size=(4, 2))
    states = [UnicycleState(px, py, 0.0) for px, py in pts]
    total = sum(lyapunov_gradient(i, states, spec, graph) for i in range(4))
    assert np.allclose(total, 0.0, atol=1e-9)


def test_disk_set():
    d = DiskSet((1.0, 1.0), 2.0)
    assert d.contains((1.0, 3.0))
    assert not d.contains((1.0, 3.0 + 1e-9))
    assert d.contains((1.0, 3.0 + 1e-9), tol=1e-8)
    with pytest.raises(ValueError):
        DiskSet((0.0, 0.0), -1.0)
