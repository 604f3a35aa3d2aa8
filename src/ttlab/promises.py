"""Promises: control-ball commitments agents make about their own motion.

A promise anchors the issuer's pose and applied control at issue time and
bounds how far its future controls may stray (a ball of `radius` in control
space). Recipients turn a promise into a growing position disk; issuers
monitor their own promises and warn recipients once they leave the disk.

The disk realization keeps the zero-order-hold prediction as the center and
caps the radius with the anchor reachability bound:

    radius(tau) = min(delta * tau, dist(zoh(tau), anchor) + max_speed * tau)

which is monotone in delta (tighter promises give nested disks) and
nondecreasing in tau, and never exceeds the anchor reachability disk by
more than twice the chord length dist(zoh, anchor). It does not contain
every motion the control ball allows: a turn-rate deviation dw moves the
issuer about v * dw * tau^2 / 2 off the centre, v the anchor speed, which
passes delta * tau once tau > 2 / v. So in-ball motion stays inside only up
to an age of about 2 / v. The position promise is kept by the issuer's
breach monitor, which warns or sends a fresh promise at the first tick it
finds itself outside; the trigger scan's guard covers that tick of lag.

disk_kernel is the disk's one implementation, and _ages the one rule for a
disk's age and its growth past expiry. A ball's centre is model.arc_step,
the arc the agents move on, run from the anchor pose at the disk's age;
alone it gives expected_position, the estimate of the control tick, of
the trigger scan's first point in each chunk and of u_double_star. On
floats disk_kernel gives disk_at, for the breach and containment checks
and the fallback; on arrays, triggers.disk_params_batch, for the trigger
scan's rollout and refinement.

The breach margin m(t) = radius(t) + BREACH_TOL - |issuer(t) - center(t)|
falls by at most 2 * max_speed per second. The radius never shrinks (ball,
past expiry or fallback), the center moves at the anchor speed, which is at
most max_speed (the engine refuses a nominal control out of bounds, and the
channel clamps a noisy speed to the limits), and the issuer moves at most
max_speed too. So a margin m found at t leaves the issuer inside the disk
until t + m / (2 * max_speed); the engine schedules its breach and
containment checks from this bound instead of testing every tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from .model import DiskSet, UnicycleState, arc_step

BREACH_TOL = 1e-9


@dataclass(frozen=True)
class StaticBall:
    """Fixed control-ball rule: radius = 2 * max_speed * tightness."""

    tightness: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 <= self.tightness and math.isfinite(self.tightness)):
            raise ValueError(f"tightness must be finite and >= 0, got {self.tightness}")


@dataclass(frozen=True)
class DynamicBall:
    """State-dependent rule: radius = scale * ||control - safe|| + floor."""

    scale: float = 0.5
    floor: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("scale", "floor"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


PromiseRuleConfig = Union[StaticBall, DynamicBall]


@dataclass(frozen=True)
class Promise:
    """The issuer's anchor pose (x, y, heading) and applied control (speed,
    turn) at issued_at, and the ball of `radius` its later controls keep to.

    The leading fields, issuer to gap, are the wire tuple. A promise is a
    fallback exactly when fb_time is set: its disk is then frozen at
    fb_center and fb_radius and grows at max_speed from fb_time.
    """

    issuer: int
    issued_at: float
    x: float
    y: float
    heading: float
    speed: float
    turn: float
    radius: float
    expires_at: Optional[float]
    # Planning-control gap: the dynamic rule's ball size, piggybacked for
    # adaptive dwell selection.
    gap: Optional[float]
    max_speed: float
    # Validation slack for promises received over a noisy channel; zero on
    # the issuer side. See validate_noisy_promise.
    noise_slack: float = 0.0
    fb_center: Optional[Tuple[float, float]] = None
    fb_radius: Optional[float] = None
    fb_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError(f"promise radius must be >= 0, got {self.radius}")
        if self.noise_slack < 0.0:
            raise ValueError("noise_slack must be >= 0")
        if self.fb_time is not None and (self.fb_center is None or self.fb_radius is None):
            raise ValueError("fallback promise needs fb_center and fb_radius")
        if self.expires_at is not None and self.expires_at <= self.issued_at:
            raise ValueError("expires_at must lie strictly after issued_at")


def make_promise(
    issuer: int,
    now: float,
    x: float,
    y: float,
    heading: float,
    speed: float,
    turn: float,
    max_speed: float,
    rule: PromiseRuleConfig,
    expires_at: Optional[float] = None,
    gap: Optional[float] = None,
) -> Promise:
    """Issue a promise anchored at the control actually applied at `now`.

    `gap` is the size hypot(speed, turn) of the planning control, the
    nominal team input, which may differ from the applied one while the
    issuer sits in safe mode. The dynamic rule sizes the ball from it, and
    needs it.
    """
    if isinstance(rule, StaticBall):
        radius = 2.0 * max_speed * rule.tightness
    elif gap is None:
        raise ValueError("the dynamic rule sizes the ball from the planning gap; none was given")
    else:
        radius = rule.scale * gap + rule.floor
    return Promise(
        issuer=issuer,
        issued_at=now,
        x=x,
        y=y,
        heading=heading,
        speed=speed,
        turn=turn,
        radius=radius,
        expires_at=expires_at,
        gap=gap,
        max_speed=max_speed,
    )


def disk_kernel(p: Promise, tau, late, ops):
    """Center (x, y) and radius of p's disk at age tau, grown at max speed
    for `late` further seconds.

    This is the one implementation of the promise disk. A ball's centre is
    model.arc_step from the anchor pose under the anchor control for tau
    seconds; the radius half follows. `ops` is the tuple (sin, cos, hypot,
    minimum) that fits the type of tau and late: (math.sin, math.cos,
    math.hypot, min) on floats for disk_at, the numpy ufuncs on arrays of
    ages for triggers.disk_params_batch. numpy's array sin and cos agree
    with libm bit for bit, so the two callers get the same centers, and the
    control tick can take its control from the scan's rollout; np.hypot and
    math.hypot can differ in the last bit, so a radius can too, and each
    caller keeps the bits it always had. A fallback promise's frozen disk
    stands for every age: only `late`, counted from its fallback time,
    grows it.
    """
    sin, cos, hypot, minimum = ops
    u_max = p.max_speed
    if p.fb_time is not None:
        zx, zy = p.fb_center
        return zx, zy, p.fb_radius + u_max * late  # type: ignore[operator]
    zx, zy, _ = arc_step(p.x, p.y, p.heading, p.speed, p.turn, tau, sin, cos)
    s = p.noise_slack * (1.0 + tau + 0.5 * u_max * tau * tau)
    r_ball = p.radius * tau + s
    r_reach = hypot(zx - p.x, zy - p.y) + u_max * tau + p.noise_slack + 2.0 * s
    return zx, zy, minimum(r_ball, r_reach) + u_max * late


_FLOAT_OPS = (math.sin, math.cos, math.hypot, min)


def _ages(p: Promise, t: float) -> Tuple[float, float]:
    """(tau, late) of p's disk at time t for disk_kernel. A fallback disk grows
    at max speed from its fallback time, and so does a ball promise's last
    disk past its expiry, which keeps a view sound until its replacement
    arrives."""
    if p.fb_time is not None:
        if t < p.fb_time:  # type: ignore[operator]
            raise ValueError(f"t={t} precedes fallback time {p.fb_time}")
        return 0.0, t - p.fb_time  # type: ignore[operator]
    if p.expires_at is not None and t > p.expires_at:
        return p.expires_at - p.issued_at, t - p.expires_at
    return t - p.issued_at, 0.0


def disk_at(p: Promise, t: float) -> Tuple[float, float, float]:
    """Position disk (cx, cy, r) guaranteed to contain the issuer at time t."""
    return disk_kernel(p, *_ages(p, t), _FLOAT_OPS)


def view_disk_at(p: Promise, t: float) -> DiskSet:
    """Position disk guaranteed to contain the issuer at time t: disk_at as a DiskSet."""
    cx, cy, r = disk_at(p, t)
    return DiskSet((cx, cy), r)


def expected_position(p: Promise, t: float) -> Tuple[float, float]:
    """Center of the promise disk at t, the recipient's point estimate:
    disk_kernel's centre alone, arc_step at the age _ages gives."""
    tau = _ages(p, t)[0]
    if p.fb_time is not None:
        return p.fb_center
    x, y, _ = arc_step(p.x, p.y, p.heading, p.speed, p.turn, tau)
    return x, y


def breach_margin(p: Promise, t: float, x: float, y: float) -> float:
    """How far (x, y) lies inside p's disk at t, plus BREACH_TOL.

    Negative exactly when a position there breaches the promise.
    """
    cx, cy, r = disk_at(p, t)
    return r + BREACH_TOL - math.hypot(x - cx, y - cy)


def check_breach(p: Promise, t: float, actual: UnicycleState) -> bool:
    """True when the issuer's true position has left the promised disk.

    For finite doubles a - b < 0 exactly when a < b, so this is the
    comparison hypot(dx, dy) > radius + BREACH_TOL bit for bit.
    """
    return breach_margin(p, t, actual.x, actual.y) < 0.0


def fallback_to_reachability(p: Promise, t_star: float) -> Promise:
    """Replace a warned promise: freeze its disk at t_star, then grow at max speed."""
    cx, cy, r = disk_at(p, t_star)
    return replace(
        p,
        fb_center=(cx, cy),
        fb_radius=r,
        fb_time=t_star,
        expires_at=None,
    )


def validate_noisy_promise(received: Promise, omega_bar: float, delta_bar: float) -> Promise:
    """Inflate a received promise so it still contains the issuer's truth.

    The channel perturbs the anchor position and anchor control by vectors of
    norm at most omega_bar and the radius by at most delta_bar. The control
    ball is widened by omega_bar + delta_bar, and disk evaluation adds the
    slack term

        s(tau) = omega_bar * (1 + tau + max_speed * tau^2 / 2)

    covering the anchor offset plus the worst-case drift of the hold
    prediction under speed and turn-rate errors.
    """
    if omega_bar < 0.0 or delta_bar < 0.0:
        raise ValueError("noise bounds must be nonnegative")
    return replace(
        received,
        radius=received.radius + omega_bar + delta_bar,
        noise_slack=omega_bar,
    )


def is_expired(p: Promise, t: float) -> bool:
    return p.expires_at is not None and t > p.expires_at


WirePromise = Tuple[
    int, float, float, float, float, float, float, float, Optional[float], Optional[float]
]


def promise_to_wire(p: Promise) -> WirePromise:
    """The tuple that crosses the channel: a ball promise's fields issuer to gap."""
    if p.fb_time is not None:
        raise ValueError("only ball-mode promises are transmitted")
    return (
        p.issuer,
        p.issued_at,
        p.x,
        p.y,
        p.heading,
        p.speed,
        p.turn,
        p.radius,
        p.expires_at,
        p.gap,
    )


def promise_from_wire(wire: WirePromise, max_speed: float) -> Promise:
    return Promise(*wire, max_speed)
