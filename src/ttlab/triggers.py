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

A Scan holds one such search: it is built from everything the search
depends on, and critical_time_ns(scan) rolls the prediction out one chunk
further per call. The nominal control it rolls out is also the one the
engine's control tick applies: Scan.control gives it at any pose, and
holds the goal offset while the agent and every promise's centre stay put.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from .model import FormationSpec, Limits, arc_step, wrap_angle
from .controllers import goal_law, goal_offset, steer
from .promises import Promise, disk_kernel, expected_position

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


def to_ns(seconds: float) -> int:
    """`seconds` in whole nanoseconds, the simulator's clock unit."""
    return int(round(seconds * NS))


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

    Each term of g has the factor (p - y) . f, so a stationary row, one
    with fx and fy both +0 or -0, gets exactly +0.0 for finite inputs:
    every sample, the center and the pad are zeros of either sign, the
    interior points are skipped, and +0.0 pad makes their sum +0.0. The
    trigger scan relies on this to skip such rows.
    """
    m = SUP_SAMPLES
    ax = cx - px
    ay = cy - py
    aa = ax * ax + ay * ay
    rr = r * r
    dd = d * d
    A = aa + rr - dd
    Bx = 2.0 * r * ax
    By = 2.0 * r * ay
    C = -(ax * fx + ay * fy)
    Dx = -r * fx
    Dy = -r * fy
    # The rows x samples grid of h is built in place, SUP_BLOCK_ROWS rows at
    # a time; each sum keeps the order A + Bx cos + By sin.
    n = len(A)
    best = np.empty(n)
    idx = np.empty(n, dtype=np.intp)
    dH_max = np.empty(n)
    for start in range(0, n, SUP_BLOCK_ROWS):
        rows = slice(start, start + SUP_BLOCK_ROWS)
        T1 = Bx[rows, None] * _COS_PHIS
        T2 = Dx[rows, None] * _COS_PHIS
        tmp = By[rows, None] * _SIN_PHIS
        T1 += A[rows, None]
        T1 += tmp
        np.multiply(Dy[rows, None], _SIN_PHIS, out=tmp)
        T2 += C[rows, None]
        T2 += tmp
        H = np.multiply(4.0, T1, out=T1)
        H *= T2
        best[rows] = H.max(axis=1)
        idx[rows] = H.argmax(axis=1)
        # |h(phi_k+1) - h(phi_k)| around the circle, the last sample to the first.
        dH = T2
        np.subtract(H[:, 1:], H[:, :-1], out=dH[:, :-1])
        np.subtract(H[:, :1], H[:, -1:], out=dH[:, -1:])
        dH_max[rows] = np.abs(dH, out=dH).max(axis=1)
    # L_hat * r * (pi/m)^2 with L_hat = max|dH| / (r * 2 pi / m); r cancels.
    pad = dH_max * (np.pi / (2.0 * m))

    phi = 2.0 * np.pi * idx / m
    lim = np.pi / m
    nBx = -Bx
    nDx = -Dx
    for _ in range(SUP_NEWTON_ITERS):
        c = np.cos(phi)
        s = np.sin(phi)
        bc, bs, dc, ds = Bx * c, By * s, Dx * c, Dy * s
        t1 = A + bc + bs
        t2 = C + dc + ds
        t1p = nBx * s + By * c
        t2p = nDx * s + Dy * c
        h1 = 4.0 * (t1p * t2 + t1 * t2p)
        h2 = 4.0 * (-(bc + bs) * t2 + 2.0 * t1p * t2p - t1 * (dc + ds))
        concave = h2 < 0.0
        denom = np.where(concave, h2, -1.0)
        step = np.where(concave, -h1 / denom, 0.0)
        phi = phi + np.minimum(np.maximum(step, -lim), lim)
    c = np.cos(phi)
    s = np.sin(phi)
    refined = 4.0 * (A + Bx * c + By * s) * (C + Dx * c + Dy * s)
    best = np.maximum(best, refined)

    # Disk center.
    best = np.maximum(best, 4.0 * (aa - dd) * C)

    # Interior stationary points (only exist when the agent is moving).
    fn = np.hypot(fx, fy)
    moving = fn > 0.0
    safe_fn = np.where(moving, fn, 1.0)
    ux = fx / safe_fn
    uy = fy / safe_fn
    k1 = d / _SQRT3
    gstar = (8.0 * d * d * d / (3.0 * _SQRT3)) * fn
    kux, kuy, dux, duy = k1 * ux, k1 * uy, d * ux, d * uy
    for sx, sy, val in (
        (kux, kuy, gstar),
        (-kux, -kuy, -gstar),
        (duy, -dux, 0.0),
        (-duy, dux, 0.0),
    ):
        ddx = sx - ax
        ddy = sy - ay
        inside = (ddx * ddx + ddy * ddy <= rr) & moving
        np.maximum(best, val, out=best, where=inside)
    return best + pad


def disk_params_batch(
    p: Promise, t: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Promise disk centers and radii over an array of times.

    Evaluates promises.disk_kernel on arrays, including the
    reachability-rate continuation past expiry.
    """
    if p.fb_time is not None:
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
    bounds are added up: the trigger scan and its refinement both call it.
    All neighbors go through one disk_sup_batch call, stacked neighbor by
    neighbor with a per-row target distance; every row of it is computed on
    its own, so each keeps the bits of a call of its own, and the rows are
    added up in neighbor order. No neighbors give zero.
    """
    px, py, fx, fy = (np.atleast_1d(v) for v in (px, py, fx, fy))
    rate = np.zeros(px.shape)
    k, n = len(disks), px.size
    # The kernel's columns (px, py, fx, fy, cx, cy, r, d), one block of n
    # rows per neighbor; the point's own columns repeat in every block.
    cols = np.empty((8, k, n))
    for c, v in enumerate((px, py, fx, fy)):
        cols[c] = v
    for j, (cx, cy, r) in enumerate(disks):
        cols[4, j], cols[5, j], cols[6, j] = cx, cy, r
    cols[7] = np.asarray(dists, dtype=float)[:, None]
    sup = disk_sup_batch(*cols.reshape(8, k * n))
    for row in sup.reshape(k, n):
        rate += row
    return rate


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


class Scan:
    """One agent's certificate scan, rolled out chunk by chunk.

    A Scan is built from everything the scan depends on: agent i's pose
    (x, y, heading) at t_ns, its view, the formation spec, the limits, the
    tick step dt_ns, the horizon and the guard that inflates every neighbor
    disk. It works out once the neighbor order (sorted), their promises and
    target distances, and the grid: point 0 is t_ns, point k >= 1 the k-th
    tick after it, up to t_ns + horizon_ns, `n` points in all. A view that
    changes later does not reach the scan; a new resolve builds a new one.

    critical_time_ns(scan) rolls out the next chunk and records here where
    it stopped. When that chunk holds no crossing and the horizon reaches
    past it, `pending` is set and the call returns the chunk's last grid
    point, a lower bound of t*. `start` is the index of the first grid
    point not yet scanned and `pose` the predicted pose there; `chunk` is
    the next chunk's size.

    `rollout` holds, by t_ns, the points of the last chunk rolled out and
    the point before it, at most SCAN_MAX_CHUNK + 1, each as (t_ns, x, y,
    heading, speed, turn). The refinement starts from the point before a
    crossing, and the control tick asks control() for the nominal control,
    which a rollout point at its pose already holds. `fixed` says whether
    every promise's center stays put (a fallback disk, or a ball whose
    anchor speed is 0); then the goal point does too, and control() keeps
    the goal offset it last computed in `held`, keyed by the agent's x and
    y: an agent in safe mode holds its position until a resolve replaces
    the scan.
    """

    __slots__ = (
        "promises", "dists", "gain", "limits", "guard", "t_ns", "first_grid", "dt_ns", "n",
        "pose", "start", "rollout", "chunk", "pending", "fixed", "held",
    )

    def __init__(
        self,
        i: int,
        x: float,
        y: float,
        heading: float,
        view: Mapping[int, Promise],
        t_ns: int,
        spec: FormationSpec,
        limits: Limits,
        dt_ns: int,
        horizon_ns: int,
        guard: float = 0.0,
    ) -> None:
        order = sorted(view)
        self.promises = [view[j] for j in order]
        self.dists = [spec.distance(i, j) for j in order]
        self.gain = spec.gain
        self.limits = limits
        self.guard = guard
        rem = t_ns % dt_ns
        self.t_ns = t_ns
        self.first_grid = t_ns + (dt_ns - rem if rem else dt_ns)
        self.dt_ns = dt_ns
        self.n = 1 + max(0, (t_ns + horizon_ns - self.first_grid) // dt_ns + 1)
        self.pose = (x, y, heading)
        self.start = 0
        self.rollout: Dict[int, Tuple[int, float, float, float, float, float]] = {}
        self.chunk = SCAN_FIRST_CHUNK
        self.pending = False
        self.fixed = all(p.fb_time is not None or p.speed == 0.0 for p in self.promises)
        self.held = None

    def grid(self, k: int) -> int:
        """The instant of grid point k."""
        return self.first_grid + (k - 1) * self.dt_ns if k else self.t_ns

    def disks_at(self, tns: list[int]) -> list:
        """Each neighbor's disk columns (cx, cy, r + guard) at the times tns."""
        t_sec = np.array([tn * 1e-9 for tn in tns])
        disks = []
        for p in self.promises:
            cx, cy, r = disk_params_batch(p, t_sec)
            disks.append((cx, cy, r + self.guard))
        return disks

    def control(self, t_ns: int, pose: tuple) -> Tuple[float, float]:
        """goal_law's (speed, turn) at `pose` (x, y, heading) and t_ns, on
        the scan's promises in its neighbor order.

        The rollout point at t_ns holds it when its pose is `pose` bit for
        bit; the rollout's centers are expected_position's on the tick
        grid. Otherwise, when every center is fixed, the goal offset is too:
        `held` keeps (x, y, dx, dy) from the last goal_offset computed here,
        and a later call at the same x and y runs steer alone. Equal floats
        have equal bits except zeros, whose sign goal_law can see, so a pose
        with a zero is neither read nor held.
        """
        rec = self.rollout.get(t_ns)
        if rec is not None and rec[1:4] == pose and 0.0 not in pose:
            return rec[4:]
        x, y, heading = pose
        lim = self.limits
        held = self.held
        if held is not None and held[0] == x and held[1] == y:
            return steer(held[2], held[3], heading, self.gain, lim.max_speed, lim.max_turn)
        t = t_ns * 1e-9
        dx, dy = goal_offset(x, y, [expected_position(p, t) for p in self.promises], self.dists)
        if self.fixed and x and y:
            self.held = (x, y, dx, dy)
        return steer(dx, dy, heading, self.gain, lim.max_speed, lim.max_turn)


def _refine(scan: Scan, before: Tuple[int, float, float, float, float, float], hi: int) -> int:
    """Crossing inside (lo, hi], lo the grid point `before` records; return
    certified t*.

    Bisects under the control held from lo. The rates come in batches: hi
    with the top half of the bisection tree's levels, then the rest of the
    subtree the walk reaches; the walk itself takes the same decisions as
    one evaluation per step.
    """
    lo, x0, y0, th0, sp0, tu0 = before
    rates: dict[int, float] = {}

    def fetch(tns: list[int]) -> None:
        rows = []
        for tn in tns:
            sx, sy, sth = arc_step(x0, y0, th0, sp0, tu0, (tn - lo) * 1e-9)
            sth = wrap_angle(sth)
            rows.append((sx, sy, sp0 * math.cos(sth), sp0 * math.sin(sth)))
        rate = rate_bound(*(np.array(v) for v in zip(*rows)), scan.disks_at(tns), scan.dists)
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


def critical_time_ns(scan: Scan) -> int:
    """Roll out the scan's next chunk and look there for the certificate's
    expiry t*.

    The grid replays the exact control-update cadence the simulator
    executes (see Scan). Returns the first crossing, refined to
    BISECT_TOL_NS by bisection under the control held in the bracketing
    interval, or the last grid point when the horizon holds none. While
    `scan.pending` is set, the value returned is only a lower bound, the
    chunk's last grid point, and the next call goes on from there. So a
    scan costs what it rolls out, however long the horizon.

    The rollout stops at the first grid point where the agent is
    stationary (fx == fy == 0.0 under its own law): the rate there is
    exactly +0.0 (see disk_sup_batch), so that point is a crossing unless
    an earlier one is. Only the points before it go to the kernel; the
    crossing is refined as any other. The chunk's first point comes before
    any array: its control is goal_law on expected_position's centres,
    which are the arrays' bit for bit, so a chunk that opens on a
    stationary point evaluates no disk array at all. A view whose fallback
    time lies after the scan's start is an error (see promises._ages).
    """
    dists, gain, n = scan.dists, scan.gain, scan.n
    u_max, v_max = scan.limits.max_speed, scan.limits.max_turn
    # `before` is the last scanned point, (t_ns, x, y, heading, speed, turn),
    # or None at the scan's start.
    chunk, state, start = scan.chunk, scan.pose, scan.start
    before = scan.rollout[scan.grid(start - 1)] if start else None
    rollout = scan.rollout = {} if before is None else {before[0]: before}
    t0 = scan.grid(start)
    sx, sy, th = state
    points = [expected_position(p, t0 * 1e-9) for p in scan.promises]
    sp, tu = goal_law(sx, sy, th, points, dists, gain, u_max, v_max)
    rollout[t0] = (t0, sx, sy, th, sp, tu)
    if sp * math.cos(th) == 0.0 and sp * math.sin(th) == 0.0:
        scan.pending = False
        return t0 if before is None else _refine(scan, before, t0)
    stop = min(start + chunk, n)
    ts = [scan.grid(k) for k in range(start, stop)]
    disks = scan.disks_at(ts)
    centers = [list(zip(cxj.tolist(), cyj.tolist())) for cxj, cyj, _ in disks]
    rows = []
    stationary = False
    for local, tn in enumerate(ts):
        if local:
            sx, sy, th = state
            sp, tu = goal_law(sx, sy, th, [c[local] for c in centers], dists, gain, u_max, v_max)
            rollout[tn] = (tn, sx, sy, th, sp, tu)
        fx, fy = sp * math.cos(th), sp * math.sin(th)
        if fx == 0.0 and fy == 0.0:
            stationary = True
            break
        rows.append((sx, sy, fx, fy))
        if start + local + 1 < n:
            nx, ny, nth = arc_step(sx, sy, th, sp, tu, (scan.grid(start + local + 1) - tn) * 1e-9)
            state = (nx, ny, wrap_angle(nth))
    # A stationary point's rate is exactly +0.0 (see disk_sup_batch), a
    # crossing: the rollout stops there and bounds only the points before it.
    m = len(rows)
    rate = np.zeros(m + stationary)
    if m:
        cut = [(cxj[:m], cyj[:m], rj[:m]) for cxj, cyj, rj in disks]
        rate[:m] = rate_bound(*(np.array(v) for v in zip(*rows)), cut, dists)
    hits = np.nonzero(rate >= 0.0)[0]
    scan.pending = False
    if hits.size:
        k = int(hits[0])
        if k:
            before = rollout[ts[k - 1]]
        return ts[0] if before is None else _refine(scan, before, ts[k])
    if stop == n:
        return ts[-1]  # the horizon: no crossing before it
    scan.pose, scan.start = state, stop
    scan.chunk = min(2 * chunk, SCAN_MAX_CHUNK)
    scan.pending = True
    return ts[-1]


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

