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
from typing import Mapping, Sequence, Tuple

import numpy as np

from .model import DiskSet, FormationSpec, Limits, UnicycleState, arc_step, wrap_angle
from .controllers import goal_law
from .promises import _FALLBACK, Promise, disk_kernel, view_disk_at

NS = 1_000_000_000
BISECT_TOL_NS = 1_000  # refine the crossing to one microsecond
# The scan rolls the trajectory out in chunks of grid points that double from
# the first size up to the last: most crossings come within a few points.
SCAN_FIRST_CHUNK = 8
SCAN_MAX_CHUNK = 256

# Boundary sampling density of the per-disk supremum bound, and the Newton
# steps that refine its best sample.
SUP_SAMPLES = 64
SUP_NEWTON_ITERS = 3
# Rows of the bound's boundary-sample grid built at a time: one neighbor's
# largest scan chunk, so stacking the neighbors into one call keeps the
# grid's temporaries as small as a call per neighbor had them.
SUP_BLOCK_ROWS = SCAN_MAX_CHUNK

_SQRT3 = math.sqrt(3.0)
_PHIS = 2.0 * np.pi * np.arange(SUP_SAMPLES) / SUP_SAMPLES
_COS_PHIS, _SIN_PHIS = np.cos(_PHIS), np.sin(_PHIS)
_ARRAY_OPS = (np.sin, np.cos, np.hypot, np.minimum)


def disk_sup_batch(
    px: np.ndarray,
    py: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    r: np.ndarray,
    d: float | np.ndarray,
) -> np.ndarray:
    """Upper bound of g over one disk, vectorized across samples.

    On the disk boundary g restricts to a trigonometric polynomial
    h(phi) = 4 (A + B.eps)(C + D.eps); we take the max over m = SUP_SAMPLES
    uniform samples, refine the best one by a clamped Newton iteration, add the
    interior stationary points of g (at p +/- (d/sqrt 3) f_hat, plus the
    two zeros at p +/- d f_perp) when they land inside the disk, and pad by
    L_hat * r * (pi/m)^2 where L_hat is the largest finite-difference slope
    between adjacent boundary samples. The result never falls below the
    true supremum by construction of the padding, and stays within a few
    percent of it because the Newton step nails smooth boundary maxima.

    d is one target distance for every row or an array of one per row.
    Every operation is elementwise or a reduction within a row, so a row's
    result does not depend on the rows stacked beside it.
    """
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


def disk_params_batch(
    p: Promise, t: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Promise disk centers and radii over an array of times.

    Evaluates promises.disk_kernel on arrays, including the
    reachability-rate continuation past expiry.
    """
    if p.mode is _FALLBACK:
        cx, cy, r = disk_kernel(p, 0.0, t - p.fb_time, _ARRAY_OPS)  # type: ignore[operator]
        return np.full_like(t, cx), np.full_like(t, cy), r
    tau = t - p.issued_at
    if p.expires_at is None:
        tau_eff = tau
    else:
        tau_eff = np.minimum(tau, p.expires_at - p.issued_at)
    return disk_kernel(p, tau_eff, tau - tau_eff, _ARRAY_OPS)


def rate_bound(px, py, fx, fy, disks, dists: Sequence[float]) -> np.ndarray:
    """Sum of disk_sup_batch over the neighbor disks, in the given order.

    px, py, fx, fy and each disk's (cx, cy, r) are arrays of one length, or
    floats for a single point. This is the one place the per-neighbor
    bounds are added up: li_v_sup, the trigger scan and its refinement all
    call it. All neighbors go through one disk_sup_batch call, stacked
    neighbor by neighbor with a per-row target distance; every row of it is
    computed on its own, so each keeps the bits of a call of its own, and
    the rows are added up in neighbor order. No neighbors give zero.
    """
    px, py, fx, fy = (np.atleast_1d(v) for v in (px, py, fx, fy))
    rate = np.zeros(px.shape)
    k, n = len(disks), px.size
    cols = np.empty((3, k, n))
    for j, disk in enumerate(disks):
        for c in range(3):
            cols[c, j] = disk[c]
    sup = disk_sup_batch(
        *(np.tile(v, k) for v in (px, py, fx, fy)),
        *cols.reshape(3, k * n),
        np.repeat(np.asarray(dists, dtype=float), n),
    )
    for row in sup.reshape(k, n):
        rate += row
    return rate


def li_v_sup(
    i: int,
    own_state: UnicycleState,
    neighbor_disks: Mapping[int, DiskSet],
    control,
    spec: FormationSpec,
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
    rate = rate_bound(own_state.x, own_state.y, fx, fy, disks, dists)
    return float(rate[0])


def _bisect_depth(width: int) -> int:
    """Levels of the bisection of a bracket of this width down to
    BISECT_TOL_NS, along its deepest path (the upper halves)."""
    depth = 0
    while width > BISECT_TOL_NS:
        width -= width // 2
        depth += 1
    return depth


def _bisect_tree(a: int, b: int, levels: int) -> list[int]:
    """Midpoints of the first `levels` levels of the bisection of (a, b],
    level by level, skipping brackets already within BISECT_TOL_NS."""
    mids = []
    brackets = [(a, b)]
    for _ in range(levels):
        below = []
        for lo, hi in brackets:
            if hi - lo > BISECT_TOL_NS:
                mid = (lo + hi) // 2
                mids.append(mid)
                below += [(lo, mid), (mid, hi)]
        brackets = below
    return mids


def critical_time_ns(
    i: int,
    x: float,
    y: float,
    heading: float,
    view: Mapping[int, Promise],
    t_last_ns: int,
    spec: FormationSpec,
    limits: Limits,
    dt_ns: int,
    horizon_ns: int,
    guard: float = 0.0,
) -> Tuple[int, float]:
    """Scan the predicted trajectory for the descent-certificate expiry.

    Times are integer nanoseconds aligned with the simulation tick grid of
    step dt_ns, so the prediction replays the exact control-update cadence
    the simulator executes, at most horizon_ns ahead of t_last_ns. Returns
    (t_star_ns, initial_rate): the first crossing, refined to BISECT_TOL_NS
    by bisection under the control held in the bracketing interval (the
    last grid point when the horizon holds none), and the certificate rate
    at t_last_ns. Neighbor disk radii are inflated by `guard`.
    """
    order = sorted(view)
    proms = [view[j] for j in order]
    dists = [spec.distance(i, j) for j in order]
    gain = spec.gain
    u_max = limits.max_speed
    v_max = limits.max_turn

    rem = t_last_ns % dt_ns
    first_grid = t_last_ns + (dt_ns - rem if rem else dt_ns)
    ts_list = [t_last_ns, *range(first_grid, t_last_ns + horizon_ns + 1, dt_ns)]
    n = len(ts_list)

    state = (x, y, heading)
    # (x, y, heading, speed, turn) at each scanned grid point, for refine.
    rec: list[Tuple[float, float, float, float, float]] = []

    def refine(k: int) -> int:
        """Crossing inside (ts_list[k-1], ts_list[k]]; return certified t*.

        Bisects under the control held from ts_list[k-1]. The rates come
        in batches: hi with the top half of the bisection tree's levels,
        then the rest of the subtree the walk reaches; the walk itself
        takes the same decisions as one evaluation per step.
        """
        lo = ts_list[k - 1]
        hi = ts_list[k]
        x0, y0, th0, sp0, tu0 = rec[k - 1]
        rates: dict[int, float] = {}

        def fetch(tns: list[int]) -> None:
            rows = []
            for tn in tns:
                sx, sy, sth = arc_step(x0, y0, th0, sp0, tu0, (tn - lo) * 1e-9)
                sth = wrap_angle(sth)
                rows.append((sx, sy, sp0 * math.cos(sth), sp0 * math.sin(sth)))
            disks = []
            for p in proms:
                cols = []
                for tn in tns:
                    disk = view_disk_at(p, tn * 1e-9)
                    cols.append((*disk.center, disk.radius + guard))
                disks.append(tuple(zip(*cols)))
            rate = rate_bound(*(np.array(v) for v in zip(*rows)), disks, dists)
            rates.update(zip(tns, rate.tolist()))

        depth = _bisect_depth(hi - lo)
        fetch([hi, *_bisect_tree(lo, hi, (depth + 1) // 2)])
        if rates[hi] < 0.0:
            # The held-control certificate still holds through the grid
            # point; the recomputed control there is what failed.
            return hi
        a, b = lo, hi
        while b - a > BISECT_TOL_NS:
            mid = (a + b) // 2
            if mid not in rates:
                fetch(_bisect_tree(a, b, _bisect_depth(b - a)))
            if rates[mid] < 0.0:
                a = mid
            else:
                b = mid
        return a

    t_star_ns = ts_list[-1]  # the horizon, unless a crossing comes first
    initial_rate = 0.0
    start, chunk = 0, SCAN_FIRST_CHUNK
    while start < n:
        stop = min(start + chunk, n)
        t_sec = np.array([tn * 1e-9 for tn in ts_list[start:stop]])
        disks = []
        for p in proms:
            cxj, cyj, rj = disk_params_batch(p, t_sec)
            disks.append((cxj, cyj, rj + guard))
        centers = [list(zip(cxj.tolist(), cyj.tolist())) for cxj, cyj, _ in disks]
        rows = []
        for local in range(stop - start):
            k = start + local
            sx, sy, th = state
            sp, tu = goal_law(sx, sy, th, [c[local] for c in centers], dists, gain, u_max, v_max)
            rows.append((sx, sy, sp * math.cos(th), sp * math.sin(th)))
            rec.append((sx, sy, th, sp, tu))
            if k + 1 < n:
                nx, ny, nth = arc_step(sx, sy, th, sp, tu, (ts_list[k + 1] - ts_list[k]) * 1e-9)
                state = (nx, ny, wrap_angle(nth))
        rate = rate_bound(*(np.array(v) for v in zip(*rows)), disks, dists)
        if start == 0:
            initial_rate = float(rate[0])
        hits = np.nonzero(rate >= 0.0)[0]
        if hits.size:
            k = start + int(hits[0])
            t_star_ns = ts_list[k] if k == 0 else refine(k)
            break
        start, chunk = stop, min(2 * chunk, SCAN_MAX_CHUNK)
    return t_star_ns, initial_rate


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

