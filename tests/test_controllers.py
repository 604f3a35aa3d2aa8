import logging
import math

import pytest

from ttlab.config import with_overrides
from ttlab.controllers import e_map, goal_law, goal_point, team_control, u_double_star, u_star
from ttlab.engine import Engine
from ttlab.model import ControlInput, FormationSpec, Limits, UnicycleState
from ttlab.promises import StaticBall, fallback_to_reachability, make_promise

LIM = Limits(5.0, 3.0)
SPEC2 = FormationSpec({(0, 1): 1.0, (0, 2): 1.0}, 150.0)


def test_goal_point_single_neighbor():
    """One neighbor 2 away with target 1 pulls the goal one unit toward it."""
    g = goal_point(0, (0.0, 0.0), {1: (2.0, 0.0)}, SPEC2)
    assert g == (1.0, 0.0)


def test_goal_point_at_target_is_stationary():
    g = goal_point(0, (0.0, 0.0), {1: (1.0, 0.0)}, SPEC2)
    assert g == (0.0, 0.0)


def test_goal_point_two_neighbors_cancel():
    """Opposite, equally-stretched neighbors leave the goal at the agent."""
    g = goal_point(0, (0.0, 0.0), {1: (2.0, 0.0), 2: (-2.0, 0.0)}, SPEC2)
    assert g == (0.0, 0.0)


def test_goal_point_coincident_neighbor_warns_and_skips(caplog):
    with caplog.at_level(logging.WARNING, logger="ttlab.controllers"):
        g = goal_point(0, (1.0, 1.0), {1: (1.0, 1.0), 2: (3.0, 1.0)}, SPEC2)
    assert g == (2.0, 1.0)
    assert any("coincides" in r.message for r in caplog.records)


def test_u_star_goal_ahead():
    s = UnicycleState(0.0, 0.0, 0.0)
    c = u_star(s, (0.01, 0.0), 150.0, LIM)
    assert c.speed == pytest.approx(1.5)
    assert c.turn_rate == 0.0


def test_u_star_saturates():
    s = UnicycleState(0.0, 0.0, 0.0)
    c = u_star(s, (10.0, 10.0), 150.0, LIM)
    assert c.speed == LIM.max_speed
    assert c.turn_rate == LIM.max_turn


def test_u_star_goal_behind_turns_positive():
    """A goal straight behind maps to bearing +pi, so the turn saturates up."""
    s = UnicycleState(0.0, 0.0, 0.0)
    c = u_star(s, (-1.0, 0.0), 150.0, LIM)
    assert c.speed == 0.0  # never reverses
    assert c.turn_rate == LIM.max_turn


def test_u_star_goal_at_agent_is_zero():
    s = UnicycleState(2.0, 3.0, 1.0)
    c = u_star(s, (2.0, 3.0), 150.0, LIM)
    assert (c.speed, c.turn_rate) == (0.0, 0.0)


def test_u_star_speed_nonnegative():
    """Lateral goals give zero speed rather than reverse."""
    s = UnicycleState(0.0, 0.0, 0.0)
    c = u_star(s, (0.0, 1.0), 150.0, LIM)
    assert c.speed == 0.0
    assert c.turn_rate > 0.0


def _ball_promise(issuer, pos, control=None, issued_at=0.0):
    c = control or ControlInput(0.0, 0.0, LIM)
    return make_promise(issuer, 0, issued_at, UnicycleState(pos[0], pos[1], 0.0), c, StaticBall(0.1))


def test_e_map_hold_prediction():
    p = _ball_promise(1, (1.0, 0.0), ControlInput(2.0, 0.0, LIM))
    pts = e_map({1: p}, 0.5)
    assert pts[1] == (2.0, 0.0)


def test_e_map_fallback_center():
    p = _ball_promise(1, (1.0, 0.0), ControlInput(2.0, 0.0, LIM))
    fb = fallback_to_reachability(p, 0.5)
    pts = e_map({1: fb}, 2.0)
    assert pts[1] == fb.fb_center


def test_u_double_star_matches_components():
    s = UnicycleState(0.0, 0.0, 0.0)
    view = {1: _ball_promise(1, (2.0, 0.0))}
    c = u_double_star(0, s, view, 0.0, SPEC2, LIM)
    ref = u_star(s, goal_point(0, (0.0, 0.0), e_map(view, 0.0), SPEC2), SPEC2.gain, LIM)
    assert (c.speed, c.turn_rate) == (ref.speed, ref.turn_rate)


def test_goal_law_matches_wrappers():
    """The raw kernel the engine and the scan call agrees with the wrappers."""
    s = UnicycleState(0.5, -0.25, 2.0)
    view = {1: _ball_promise(1, (2.0, 0.0)), 2: _ball_promise(2, (0.0, 3.0))}
    pts = e_map(view, 0.0)
    got = goal_law(s.x, s.y, s.heading, pts.values(), [1.0, 1.0], SPEC2.gain, 5.0, 3.0)
    ref = u_double_star(0, s, view, 0.0, SPEC2, LIM)
    assert got == (ref.speed, ref.turn_rate)


def test_team_control_safe_after_t_star():
    assert team_control(2.0, 1.0, False) == (2.0, 1.0)
    assert team_control(2.0, 1.0, True) == (0.0, 0.0)


def test_team_control_safe_turn_keeps_turning():
    # goal behind: nominal turn saturates, position frozen
    assert team_control(0.0, LIM.max_turn, True, safe_turn=True) == (0.0, LIM.max_turn)
    assert team_control(2.0, -1.0, False, safe_turn=True) == (2.0, -1.0)


def test_team_control_boundary_inclusive(scenario):
    """The safe interval includes its boundary: at exactly t_star the agent
    already holds position, as the engine does on its tick grid."""
    eng = Engine(with_overrides(scenario, duration=0.01))
    ag = eng.agents[0]
    ag.t_star_ns = 200
    eng._apply_mode_control(ag, 199)
    assert not ag.safe
    eng._apply_mode_control(ag, 200)
    assert ag.safe
