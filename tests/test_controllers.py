import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab.config import with_overrides
from ttlab.controllers import goal_law, goal_offset, steer, team_control, u_double_star
from ttlab.engine import Engine
from ttlab.model import FormationSpec, Limits, UnicycleState
from ttlab.promises import StaticBall, expected_position, fallback_to_reachability, make_promise

LIM = Limits(5.0, 3.0)
LIM_ARGS = (LIM.max_speed, LIM.max_turn)
SPEC2 = FormationSpec({(0, 1): 1.0, (0, 2): 1.0}, 150.0)


# The tests are named in the paper's notation: the goal point p*, the
# saturated law u* toward it, the map E of promises to expected positions,
# and the team control u** = u*(p*(E(view))). goal_law computes p* and u*,
# expected_position E, and u_double_star u**.

# A gain of 1 under limits the tests never reach makes the law read out its
# goal point: heading 0 gives speed = goal x offset, turn = goal bearing.
OPEN = (1.0, 100.0, 100.0)


def test_goal_point_single_neighbor():
    """One neighbor 2 away with target 1 pulls the goal one unit toward it."""
    assert goal_law(0.0, 0.0, 0.0, [(2.0, 0.0)], [1.0], *OPEN) == (1.0, 0.0)


def test_goal_point_at_target_is_stationary():
    assert goal_law(0.0, 0.0, 0.0, [(1.0, 0.0)], [1.0], *OPEN) == (0.0, 0.0)


def test_goal_point_two_neighbors_cancel():
    """Opposite, equally-stretched neighbors leave the goal at the agent."""
    assert goal_law(0.0, 0.0, 0.0, [(2.0, 0.0), (-2.0, 0.0)], [1.0, 1.0], *OPEN) == (0.0, 0.0)


def test_goal_point_coincident_neighbor_skips():
    """A neighbor on top of the agent has no direction and adds nothing."""
    got = goal_law(1.0, 1.0, 0.0, [(1.0, 1.0), (3.0, 1.0)], [1.0, 1.0], *OPEN)
    assert got == (1.0, 0.0)
    assert got == goal_law(1.0, 1.0, 0.0, [(3.0, 1.0)], [1.0], *OPEN)


# A neighbor at target distance 0 puts the goal on itself, so the tests
# below steer toward a chosen goal point under the actuation limits.
def _steer(state, goal):
    return goal_law(state.x, state.y, state.heading, [goal], [0.0], 150.0, *LIM_ARGS)


def test_u_star_goal_ahead():
    speed, turn = _steer(UnicycleState(0.0, 0.0, 0.0), (0.01, 0.0))
    assert speed == pytest.approx(1.5)
    assert turn == 0.0


def test_u_star_saturates():
    assert _steer(UnicycleState(0.0, 0.0, 0.0), (10.0, 10.0)) == (LIM.max_speed, LIM.max_turn)


def test_u_star_goal_behind_turns_positive():
    """A goal straight behind maps to bearing +pi, so the turn saturates up."""
    speed, turn = _steer(UnicycleState(0.0, 0.0, 0.0), (-1.0, 0.0))
    assert speed == 0.0  # never reverses
    assert turn == LIM.max_turn


def test_u_star_goal_at_agent_is_zero():
    assert goal_law(2.0, 3.0, 1.0, [], [], 150.0, *LIM_ARGS) == (0.0, 0.0)


def test_u_star_speed_nonnegative():
    """Lateral goals give zero speed rather than reverse."""
    speed, turn = _steer(UnicycleState(0.0, 0.0, 0.0), (0.0, 1.0))
    assert speed == 0.0
    assert turn > 0.0


def _ball_promise(issuer, pos, control=(0.0, 0.0), issued_at=0.0):
    return make_promise(issuer, issued_at, *pos, 0.0, *control, LIM.max_speed, StaticBall(0.1))


def test_e_map_hold_prediction():
    p = _ball_promise(1, (1.0, 0.0), (2.0, 0.0))
    assert expected_position(p, 0.5) == (2.0, 0.0)


def test_e_map_fallback_center():
    p = _ball_promise(1, (1.0, 0.0), (2.0, 0.0))
    fb = fallback_to_reachability(p, 0.5)
    assert expected_position(fb, 2.0) == fb.fb_center


def test_u_double_star_matches_components():
    """u** worked out by hand: E gives a parked neighbor's anchor, 2 away
    with target 1, so p* lies 1 ahead and u* saturates the speed at gain
    150."""
    view = {1: _ball_promise(1, (2.0, 0.0))}
    assert u_double_star(0, UnicycleState(0.0, 0.0, 0.0), view, 0.0, SPEC2, LIM) == (LIM.max_speed, 0.0)


def test_goal_law_matches_wrappers():
    """u_double_star is goal_law on the expected positions, bit for bit and
    in view order: the neighbors' target distances differ and their
    promises move, so order and time both enter."""
    spec = FormationSpec({(0, 1): 1.5, (0, 2): 0.5}, 2.0)
    s = UnicycleState(0.5, -0.25, 2.0)
    view = {
        2: _ball_promise(2, (0.0, 3.0), (1.0, 0.5)),
        1: _ball_promise(1, (2.0, 0.0), (2.0, -1.0)),
    }
    pts = [expected_position(view[2], 0.3), expected_position(view[1], 0.3)]
    got = u_double_star(0, s, view, 0.3, spec, LIM)
    want = goal_law(s.x, s.y, s.heading, pts, [0.5, 1.5], spec.gain, *LIM_ARGS)
    assert got == want


_COORD = st.floats(-50.0, 50.0)


@settings(max_examples=300, deadline=None)
@given(
    x=_COORD,
    y=_COORD,
    heading=st.floats(-7.0, 7.0),
    neighbors=st.lists(st.tuples(_COORD, _COORD, st.floats(0.0, 10.0)), max_size=4),
    gain=st.floats(0.1, 200.0),
)
def test_goal_law_is_steer_on_goal_offset(x, y, heading, neighbors, gain):
    """goal_law is its two halves composed, bit for bit: the scan's held
    offset runs steer alone and must give what goal_law gives."""
    points = [(px, py) for px, py, _ in neighbors]
    dists = [d for _, _, d in neighbors]
    law = goal_law(x, y, heading, points, dists, gain, *LIM_ARGS)
    composed = steer(*goal_offset(x, y, points, dists), heading, gain, *LIM_ARGS)
    assert [v.hex() for v in law] == [v.hex() for v in composed]


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
    eng._resolve(ag, 0)
    ag.t_star_ns = 200
    eng._apply_mode_control(ag, 199)
    assert not ag.safe
    eng._apply_mode_control(ag, 200)
    assert ag.safe
