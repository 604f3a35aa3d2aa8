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
past expiry or fallback), the center moves at the anchor speed, which
ControlInput holds to at most max_speed, and the issuer moves at most
max_speed too. So a margin m found at t leaves the issuer inside the disk
until t + m / (2 * max_speed); the engine schedules its breach and
containment checks from this bound instead of testing every tick.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from .model import ControlInput, DiskSet, UnicycleState, arc_step

BREACH_TOL = 1e-9


class PromiseMode(enum.Enum):
    BALL_RADIUS = "ball"
    REACHABILITY_FALLBACK = "fallback"


# Looking an enum member up on its class is several times slower than
# reading a module global; the disk path, the engine and the trigger scan
# test the mode on every call.
_BALL = PromiseMode.BALL_RADIUS
_FALLBACK = PromiseMode.REACHABILITY_FALLBACK


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
    issuer: int
    recipient: int
    issued_at: float
    anchor_state: UnicycleState
    anchor_control: ControlInput
    radius: float
    mode: PromiseMode = PromiseMode.BALL_RADIUS
    expires_at: Optional[float] = None
    # Validation slack for promises received over a noisy channel; zero on
    # the issuer side. See validate_noisy_promise.
    noise_slack: float = 0.0
    # Planning-control gap: the dynamic rule's ball size, piggybacked for
    # adaptive dwell selection.
    gap: Optional[float] = None
    # Frozen disk for REACHABILITY_FALLBACK mode.
    fb_center: Optional[Tuple[float, float]] = None
    fb_radius: Optional[float] = None
    fb_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError(f"promise radius must be >= 0, got {self.radius}")
        if self.noise_slack < 0.0:
            raise ValueError("noise_slack must be >= 0")
        if self.mode is _FALLBACK:
            if self.fb_center is None or self.fb_radius is None or self.fb_time is None:
                raise ValueError("fallback promise needs fb_center, fb_radius, fb_time")
        if self.expires_at is not None and self.expires_at <= self.issued_at:
            raise ValueError("expires_at must lie strictly after issued_at")


def make_promise(
    issuer: int,
    recipient: int,
    now: float,
    anchor_state: UnicycleState,
    anchor_control: ControlInput,
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
    u_max = anchor_control.limits.max_speed
    if isinstance(rule, StaticBall):
        radius = 2.0 * u_max * rule.tightness
    elif gap is None:
        raise ValueError("the dynamic rule sizes the ball from the planning gap; none was given")
    else:
        radius = rule.scale * gap + rule.floor
    return Promise(
        issuer=issuer,
        recipient=recipient,
        issued_at=now,
        anchor_state=anchor_state,
        anchor_control=anchor_control,
        radius=radius,
        mode=_BALL,
        expires_at=expires_at,
        gap=gap,
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
    u_max = p.anchor_control.limits.max_speed
    if p.mode is _FALLBACK:
        zx, zy = p.fb_center
        return zx, zy, p.fb_radius + u_max * late  # type: ignore[operator]
    a = p.anchor_state
    c = p.anchor_control
    zx, zy, _ = arc_step(a.x, a.y, a.heading, c.speed, c.turn_rate, tau, sin, cos)
    s = p.noise_slack * (1.0 + tau + 0.5 * u_max * tau * tau)
    r_ball = p.radius * tau + s
    r_reach = hypot(zx - a.x, zy - a.y) + u_max * tau + p.noise_slack + 2.0 * s
    return zx, zy, minimum(r_ball, r_reach) + u_max * late


_FLOAT_OPS = (math.sin, math.cos, math.hypot, min)


def _ages(p: Promise, t: float) -> Tuple[float, float]:
    """(tau, late) of p's disk at time t for disk_kernel. A fallback disk grows
    at max speed from its fallback time, and so does a ball promise's last
    disk past its expiry, which keeps a view sound until its replacement
    arrives."""
    if p.mode is _FALLBACK:
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
    if p.mode is _FALLBACK:
        return p.fb_center
    a = p.anchor_state
    c = p.anchor_control
    x, y, _ = arc_step(a.x, a.y, a.heading, c.speed, c.turn_rate, tau)
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
        mode=_FALLBACK,
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
    int, int, float, float, float, float, float, float, float, Optional[float], Optional[float]
]


def promise_to_wire(p: Promise) -> WirePromise:
    """Flatten a ball-mode promise to the tuple that crosses the channel."""
    if p.mode is not _BALL:
        raise ValueError("only ball-mode promises are transmitted")
    a = p.anchor_state
    c = p.anchor_control
    return (
        p.issuer,
        p.recipient,
        p.issued_at,
        a.x,
        a.y,
        a.heading,
        c.speed,
        c.turn_rate,
        p.radius,
        p.expires_at,
        p.gap,
    )


def promise_from_wire(wire: WirePromise, limits) -> Promise:
    issuer, recipient, issued_at, ax, ay, heading, speed, turn, radius, expires_at, gap = wire
    return Promise(
        issuer=issuer,
        recipient=recipient,
        issued_at=issued_at,
        anchor_state=UnicycleState(ax, ay, heading),
        anchor_control=ControlInput(speed, turn, limits),
        radius=radius,
        expires_at=expires_at,
        gap=gap,
    )
