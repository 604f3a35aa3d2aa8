"""Trigger logic: descent certificates, critical times, and dwell rules.

An operating agent certifies that its motion cannot increase the formation
potential no matter where its neighbors sit inside their promised disks. The
certificate is the worst-case descent rate

    L_i(t) = sum_j  sup_{y in disk_j(t)}  g_j(y),
    g_j(y) = 4 (||y - p||^2 - d_ij^2) ((p - y) . f),

with p the agent's own position and f its velocity vector. The critical time
is the first time L_i crosses zero along the agent's own predicted
trajectory; past it the agent must fall back to the safe (frozen) control
until fresh information arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .model import (
    ARC_EPS,
    DiskSet,
    FormationSpec,
    Limits,
    UnicycleState,
    arc_step,
    wrap_angle,
)
from .controllers import goal_law
from .promises import Promise, PromiseMode, view_disk_at

NS = 1_000_000_000
DEFAULT_TICK_NS = 1_000_000  # 1 ms trigger scan resolution
BISECT_TOL_NS = 1_000  # refine the crossing to one microsecond
HORIZON_DWELL_FACTOR = 10  # scan at most this many dwell periods ahead


@dataclass(frozen=True)
class SamplerConfig:
    """Boundary sampling density for the per-disk supremum bound."""

    m: int = 64
    newton_iters: int = 3

    def __post_init__(self) -> None:
        if self.m < 8:
            raise ValueError("need at least 8 boundary samples")


_SQRT3 = math.sqrt(3.0)
_TABLES: dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _angle_tables(m: int) -> Tuple[np.ndarray, np.ndarray]:
    tab = _TABLES.get(m)
    if tab is None:
        phis = 2.0 * np.pi * np.arange(m) / m
        tab = (np.cos(phis), np.sin(phis))
        _TABLES[m] = tab
    return tab


def disk_sup_batch(
    px: np.ndarray,
    py: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    r: np.ndarray,
    d: float,
    sampler: SamplerConfig,
) -> np.ndarray:
    """Upper bound of g over one disk, vectorized across samples.

    On the disk boundary g restricts to a trigonometric polynomial
    h(phi) = 4 (A + B.eps)(C + D.eps); we take the max over m uniform
    samples, refine the best one by a clamped Newton iteration, add the
    interior stationary points of g (at p +/- (d/sqrt 3) f_hat, plus the
    two zeros at p +/- d f_perp) when they land inside the disk, and pad by
    L_hat * r * (pi/m)^2 where L_hat is the largest finite-difference slope
    between adjacent boundary samples. The result never falls below the
    true supremum by construction of the padding, and stays within a few
    percent of it because the Newton step nails smooth boundary maxima.
    """
    m = sampler.m
    cosv, sinv = _angle_tables(m)
    ax = cx - px
    ay = cy - py
    aa = ax * ax + ay * ay
    A = aa + r * r - d * d
    Bx = 2.0 * r * ax
    By = 2.0 * r * ay
    C = -(ax * fx + ay * fy)
    Dx = -r * fx
    Dy = -r * fy
    T1 = A[:, None] + Bx[:, None] * cosv + By[:, None] * sinv
    T2 = C[:, None] + Dx[:, None] * cosv + Dy[:, None] * sinv
    H = 4.0 * T1 * T2
    best = H.max(axis=1)
    idx = H.argmax(axis=1)
    dH = np.abs(np.diff(H, axis=1, append=H[:, :1]))
    # L_hat * r * (pi/m)^2 with L_hat = max|dH| / (r * 2 pi / m); r cancels.
    pad = dH.max(axis=1) * (np.pi / (2.0 * m))

    phi = 2.0 * np.pi * idx / m
    lim = np.pi / m
    for _ in range(sampler.newton_iters):
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


def disk_params_batch(
    p: Promise, t: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized promise disk (centers and radii) over an array of times.

    Mirrors promises.view_disk_at, including the reachability-rate
    continuation past expiry.
    """
    u_max = p.max_speed
    if p.mode is PromiseMode.REACHABILITY_FALLBACK:
        cx = np.full_like(t, p.fb_center[0])  # type: ignore[index]
        cy = np.full_like(t, p.fb_center[1])  # type: ignore[index]
        r = p.fb_radius + u_max * (t - p.fb_time)  # type: ignore[operator]
        return cx, cy, r
    a = p.anchor_state
    c = p.anchor_control
    tau = t - p.issued_at
    if p.expires_at is not None:
        tau_eff = np.minimum(tau, p.expires_at - p.issued_at)
    else:
        tau_eff = tau
    if abs(c.turn_rate) > ARC_EPS:
        th1 = a.heading + c.turn_rate * tau_eff
        k = c.speed / c.turn_rate
        zx = a.x + k * (np.sin(th1) - math.sin(a.heading))
        zy = a.y - k * (np.cos(th1) - math.cos(a.heading))
    else:
        zx = a.x + c.speed * tau_eff * math.cos(a.heading)
        zy = a.y + c.speed * tau_eff * math.sin(a.heading)
    s = p.noise_slack * (1.0 + tau_eff + 0.5 * u_max * tau_eff * tau_eff)
    r_ball = p.radius * tau_eff + s
    dist = np.hypot(zx - a.x, zy - a.y)
    r_reach = dist + u_max * tau_eff + p.noise_slack + 2.0 * s
    r = np.minimum(r_ball, r_reach) + u_max * (tau - tau_eff)
    return zx, zy, r


def rate_bound(
    px, py, fx, fy, disks, dists: Sequence[float], sampler: SamplerConfig
) -> np.ndarray:
    """Sum of disk_sup_batch over the neighbor disks, in the given order.

    px, py, fx, fy and each disk's (cx, cy, r) are arrays of one length, or
    floats for a single point. This is the one place the per-neighbor
    bounds are added up: li_v_sup, the trigger scan and its refinement all
    call it.
    """
    px, py, fx, fy = (np.atleast_1d(v) for v in (px, py, fx, fy))
    rate = np.zeros(px.shape)
    for (cx, cy, r), d in zip(disks, dists):
        rate += disk_sup_batch(
            px, py, fx, fy, np.atleast_1d(cx), np.atleast_1d(cy), np.atleast_1d(r), d, sampler
        )
    return rate


def li_v_sup(
    i: int,
    own_state: UnicycleState,
    neighbor_disks: Mapping[int, DiskSet],
    control,
    spec: FormationSpec,
    sampler: Optional[SamplerConfig] = None,
) -> float:
    """Worst-case instantaneous rate of the formation potential for agent i.

    Supremum of grad_i V . f over every combination of neighbor positions
    inside their disks; the sum decomposes per neighbor, so each disk is
    bounded independently.
    """
    order = sorted(neighbor_disks)
    disks = [(*neighbor_disks[j].center, neighbor_disks[j].radius) for j in order]
    dists = [spec.distance(i, j) for j in order]
    fx = control.speed * math.cos(own_state.heading)
    fy = control.speed * math.sin(own_state.heading)
    rate = rate_bound(own_state.x, own_state.y, fx, fy, disks, dists, sampler or SamplerConfig())
    return float(rate[0])


def critical_time_ns(
    i: int,
    x: float,
    y: float,
    heading: float,
    view: Mapping[int, Promise],
    t_last_ns: int,
    spec: FormationSpec,
    limits: Limits,
    dwell_ns: int,
    dt_ns: int = DEFAULT_TICK_NS,
    horizon_ns: Optional[int] = None,
    guard: float = 0.0,
    sampler: Optional[SamplerConfig] = None,
) -> Tuple[int, int, float]:
    """Scan the predicted trajectory for the descent-certificate expiry.

    Times are integer nanoseconds aligned with the simulation tick grid, so
    the prediction replays the exact control-update cadence the simulator
    executes. Returns (t_star_ns, t_next_ns, initial_rate) with
    t_next = max(t_last + dwell, t_star) and the crossing refined to
    BISECT_TOL_NS by bisection under the control held in the bracketing
    interval. Neighbor disk radii are inflated by `guard`.
    """
    sampler = sampler or SamplerConfig()
    if horizon_ns is None:
        horizon_ns = HORIZON_DWELL_FACTOR * dwell_ns
    order = sorted(view)
    proms = [view[j] for j in order]
    dists = [spec.distance(i, j) for j in order]
    gain = spec.gain
    u_max = limits.max_speed
    v_max = limits.max_turn

    t_end_ns = t_last_ns + horizon_ns
    rem = t_last_ns % dt_ns
    first_grid = t_last_ns + (dt_ns - rem if rem else dt_ns)
    ts_list = [t_last_ns]
    g = first_grid
    while g <= t_end_ns:
        ts_list.append(g)
        g += dt_ns
    n = len(ts_list)

    chunk = 256
    state = (x, y, heading)
    # Per-grid-point records needed for refinement of a crossing.
    rec_state: list[Tuple[float, float, float]] = []
    rec_ctl: list[Tuple[float, float]] = []
    initial_rate: Optional[float] = None

    def refine(k: int) -> int:
        """Crossing inside (ts_list[k-1], ts_list[k]]; return certified t*."""
        lo = ts_list[k - 1]
        hi = ts_list[k]
        x0, y0, th0 = rec_state[k - 1]
        sp0, tu0 = rec_ctl[k - 1]

        def rate_at(tn: int) -> float:
            dtau = (tn - lo) * 1e-9
            sx, sy, sth = arc_step(x0, y0, th0, sp0, tu0, dtau)
            sth = wrap_angle(sth)
            disks = []
            for p in proms:
                disk = view_disk_at(p, tn * 1e-9)
                disks.append((*disk.center, disk.radius + guard))
            rate = rate_bound(
                sx, sy, sp0 * math.cos(sth), sp0 * math.sin(sth), disks, dists, sampler
            )
            return float(rate[0])

        if rate_at(hi) < 0.0:
            # The held-control certificate still holds through the grid
            # point; the recomputed control there is what failed.
            return hi
        a, b = lo, hi
        while b - a > BISECT_TOL_NS:
            mid = (a + b) // 2
            if rate_at(mid) < 0.0:
                a = mid
            else:
                b = mid
        return a

    t_star_ns: Optional[int] = None
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        kk = stop - start
        t_sec = np.array([tn * 1e-9 for tn in ts_list[start:stop]])
        disks = []
        for p in proms:
            cxj, cyj, rj = disk_params_batch(p, t_sec)
            disks.append((cxj, cyj, rj + guard))
        centers = [list(zip(cxj.tolist(), cyj.tolist())) for cxj, cyj, _ in disks]
        px = np.empty(kk)
        py = np.empty(kk)
        fxa = np.empty(kk)
        fya = np.empty(kk)
        for local in range(kk):
            k = start + local
            sx, sy, th = state
            points = [c[local] for c in centers]
            sp, tu = goal_law(sx, sy, th, points, dists, gain, u_max, v_max)
            px[local] = sx
            py[local] = sy
            fxa[local] = sp * math.cos(th)
            fya[local] = sp * math.sin(th)
            rec_state.append((sx, sy, th))
            rec_ctl.append((sp, tu))
            if k + 1 < n:
                dtau = (ts_list[k + 1] - ts_list[k]) * 1e-9
                nx, ny, nth = arc_step(sx, sy, th, sp, tu, dtau)
                state = (nx, ny, wrap_angle(nth))
        rate = rate_bound(px, py, fxa, fya, disks, dists, sampler)
        if initial_rate is None:
            initial_rate = float(rate[0])
        hits = np.nonzero(rate >= 0.0)[0]
        if hits.size:
            k = start + int(hits[0])
            t_star_ns = ts_list[k] if k == 0 else refine(k)
            break
    if t_star_ns is None:
        t_star_ns = ts_list[-1]
    t_next_ns = max(t_last_ns + dwell_ns, t_star_ns)
    return t_star_ns, t_next_ns, float(initial_rate if initial_rate is not None else 0.0)


def adaptive_dwell(
    own_gap: float, neighbor_gaps: Sequence[float], scale: float, floor: float
) -> float:
    """Dwell time scaled by how active the neighbors are relative to self.

    An agent whose control barely differs from safe mode (gap below 1e-9)
    gets ten floors; otherwise the dwell is scale * mean(neighbor gaps) /
    own gap, never below the floor.
    """
    if own_gap <= 1e-9 or not neighbor_gaps:
        return 10.0 * floor
    mean = sum(neighbor_gaps) / len(neighbor_gaps)
    return max(scale * mean / own_gap, floor)

