"""Formation controllers: goal projection and the bounded unicycle law.

The nominal law steers each agent toward a goal point assembled from
neighbor distance errors, saturating speed and turn rate at the actuation
limits. Team variants evaluate the same law on promised estimates of the
neighbors instead of their true states.

goal_law is the one implementation of that law; the engine and the trigger
scan call it, and goal_point/u_star wrap its two halves.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable, Mapping, Sequence, Tuple

from .model import ControlInput, FormationSpec, Limits, UnicycleState, wrap_angle
from .promises import Promise, expected_position

log = logging.getLogger("ttlab.controllers")

Point = Tuple[float, float]


def _goal_xy(x: float, y: float, points: Iterable[Point], dists: Sequence[float]) -> Point:
    gx, gy = x, y
    for (yx, yy), d in zip(points, dists):
        dx = yx - x
        dy = yy - y
        dist = math.hypot(dx, dy)
        if dist != 0.0:
            err = dist - d
            gx += err * dx / dist
            gy += err * dy / dist
    return (gx, gy)


def _steer(x, y, heading, gx, gy, gain, max_speed, max_turn) -> Tuple[float, float]:
    dx = gx - x
    dy = gy - y
    if dx == 0.0 and dy == 0.0:
        return (0.0, 0.0)
    along = math.cos(heading) * dx + math.sin(heading) * dy
    speed = min(max(gain * along, 0.0), max_speed)
    bearing = wrap_angle(math.atan2(dy, dx) - heading)
    turn = min(max(gain * bearing, -max_turn), max_turn)
    return (speed, turn)


def goal_law(x, y, heading, points, dists, gain, max_speed, max_turn) -> Tuple[float, float]:
    """(speed, turn rate) of the saturated law toward the goal point, on raw floats.

    points[k] estimates the neighbor whose target distance is dists[k]; the
    goal sums their contributions in that order (see goal_point), and the
    law is the one documented on u_star. A neighbor coinciding with the
    agent contributes nothing.
    """
    gx, gy = _goal_xy(x, y, points, dists)
    return _steer(x, y, heading, gx, gy, gain, max_speed, max_turn)


def goal_point(
    i: int, own_position: Point, neighbor_points: Mapping[int, Point], spec: FormationSpec
) -> Point:
    """Goal position for agent i given point estimates of its neighbors.

    Each neighbor contributes its distance error along the line of sight:

        p* = x_i + sum_j (||y_j - x_i|| - d_ij) * (y_j - x_i) / ||y_j - x_i||

    A neighbor exactly coincident with the agent has no defined direction;
    it contributes nothing and a warning is logged.
    """
    px, py = own_position
    for j, (yx, yy) in neighbor_points.items():
        if yx == px and yy == py:
            log.warning("agent %d coincides with neighbor %d; skipping its goal term", i, j)
    dists = [spec.distance(i, j) for j in neighbor_points]
    return _goal_xy(px, py, neighbor_points.values(), dists)


def u_star(
    state: UnicycleState, goal: Point, gain: float, limits: Limits
) -> ControlInput:
    """Saturated unicycle law driving the agent toward a goal point.

    Speed is the gain times the component of the goal offset along the
    heading, clamped to [0, max_speed]; the turn rate is the gain times the
    wrapped bearing error, clamped to +/- max_turn. A goal exactly at the
    agent's position yields the zero control. A goal directly behind maps to
    a bearing error of +pi, so the turn saturates positive.
    """
    speed, turn = _steer(
        state.x, state.y, state.heading, goal[0], goal[1], gain, limits.max_speed, limits.max_turn
    )
    return ControlInput(speed, turn, limits)


def e_map(view: Mapping[int, Promise], t: float) -> dict[int, Point]:
    """Point estimates of the neighbors from their promises at time t.

    Ball promises map to their hold prediction, fallback promises to the
    frozen disk center.
    """
    return {j: expected_position(p, t) for j, p in view.items()}


def u_double_star(
    i: int,
    state: UnicycleState,
    view: Mapping[int, Promise],
    t: float,
    spec: FormationSpec,
    limits: Limits,
) -> ControlInput:
    """Nominal team control: the goal law on promised neighbor estimates."""
    goal = goal_point(i, (state.x, state.y), e_map(view, t), spec)
    return u_star(state, goal, spec.gain, limits)


def team_control(
    speed: float, turn: float, safe: bool, safe_turn: bool = False
) -> Tuple[float, float]:
    """The applied (speed, turn rate) of the team law, on raw floats.

    (speed, turn) is the nominal control. Outside safe mode, that is strictly
    before the certified horizon t*, it applies as is. In safe mode, from t*
    on (t >= t*, boundary included), the agent holds position; with
    safe_turn it keeps turning at the nominal rate (position still frozen),
    which lets an agent whose goal lies behind it recover heading while
    waiting for fresh information.
    """
    if not safe:
        return speed, turn
    return 0.0, turn if safe_turn else 0.0
