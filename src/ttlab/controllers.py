"""Formation controllers: goal projection and the bounded unicycle law.

The nominal law steers each agent toward a goal point assembled from
neighbor distance errors, saturating speed and turn rate at the actuation
limits. Team variants evaluate the same law on promised estimates of the
neighbors instead of their true states.

goal_law is the one implementation of that law, on raw floats, in two
halves: goal_offset finds the goal point relative to the agent, and steer
turns that offset and the heading into the saturated control. The trigger
scan calls goal_law for its rollout and for the engine's control tick
(triggers.Scan.control), which keeps the offset and runs steer alone while
neither the agent nor the goal point can move. u_double_star evaluates it on
a promise view and returns a ControlInput.
"""

from __future__ import annotations

import math
from typing import Mapping, Tuple

from .model import ControlInput, FormationSpec, Limits, UnicycleState, wrap_angle
from .promises import Promise, expected_position


def goal_offset(x, y, points, dists) -> Tuple[float, float]:
    """(gx - x, gy - y): the goal point p* relative to the agent at (x, y).

    points[k] estimates the neighbor y_k whose target distance is dists[k];
    each contributes its distance error along the line of sight, in order:

        p* = x + sum_k (||y_k - x|| - d_k) * (y_k - x) / ||y_k - x||

    A neighbor coinciding with the agent has no direction and adds nothing.
    """
    gx, gy = x, y
    for (yx, yy), d in zip(points, dists):
        dx = yx - x
        dy = yy - y
        dist = math.hypot(dx, dy)
        if dist != 0.0:
            err = dist - d
            gx += err * dx / dist
            gy += err * dy / dist
    return (gx - x, gy - y)


def steer(dx, dy, heading, gain, max_speed, max_turn) -> Tuple[float, float]:
    """(speed, turn rate) of the saturated law toward a goal offset (dx, dy).

    Speed is the gain times the offset along the heading, clamped to
    [0, max_speed]; the turn rate is the gain times the wrapped bearing
    error, clamped to +/- max_turn. A zero offset gives the zero control;
    one directly behind gives bearing +pi, so the turn saturates positive.
    """
    if dx == 0.0 and dy == 0.0:
        return (0.0, 0.0)
    along = math.cos(heading) * dx + math.sin(heading) * dy
    speed = min(max(gain * along, 0.0), max_speed)
    bearing = wrap_angle(math.atan2(dy, dx) - heading)
    turn = min(max(gain * bearing, -max_turn), max_turn)
    return (speed, turn)


def goal_law(x, y, heading, points, dists, gain, max_speed, max_turn) -> Tuple[float, float]:
    """(speed, turn rate) of the saturated law toward the goal point, on raw
    floats: steer on goal_offset."""
    return steer(*goal_offset(x, y, points, dists), heading, gain, max_speed, max_turn)


def u_double_star(
    i: int,
    state: UnicycleState,
    view: Mapping[int, Promise],
    t: float,
    spec: FormationSpec,
    limits: Limits,
) -> ControlInput:
    """Nominal team control: goal_law on the neighbors' expected positions at t,
    taken in view order."""
    points = [expected_position(p, t) for p in view.values()]
    dists = [spec.distance(i, j) for j in view]
    speed, turn = goal_law(
        state.x, state.y, state.heading, points, dists, spec.gain, limits.max_speed, limits.max_turn
    )
    return ControlInput(speed, turn, limits)


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
