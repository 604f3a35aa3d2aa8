"""Discrete-event simulator for promise-based formation coordination.

Time is integer nanoseconds. The event heap carries (timestamp, priority,
sequence) keys so simultaneous events process in a fixed order: request
retries first, then promise traffic (scheduled sends and deliveries), then
self requests, then the control tick. Warning and request bits are reliable
and instantaneous and are handled inline instead of through the heap.

Agent poses advance lazily under the held control (closed-form arcs); the
held interval splits at the certificate horizon, past which the agent's
speed drops to zero. Certificates are recomputed ("resolved") at request
rounds and on every accepted promise delivery, never at plain ticks, so the
tick loop stays cheap.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .config import ScenarioConfig
from .controllers import goal_law, team_control
from .model import ControlInput, UnicycleState, arc_step, lyapunov, safe_mode, wrap_angle
from .network import Channel
from .promises import (
    _BALL,
    _FALLBACK,
    BREACH_TOL,
    DynamicBall,
    Promise,
    StaticBall,
    breach_margin,
    fallback_to_reachability,
    is_expired,
    make_promise,
    promise_from_wire,
    promise_to_wire,
    validate_noisy_promise,
    view_disk_at,
)
from .triggers import NS, adaptive_dwell, critical_time_ns

PRIO_REQ_RETRY = 1
PRIO_PROMISE = 2
PRIO_SELF_REQUEST = 3
PRIO_TICK = 4

# Neighbor disks are inflated by this many units of max_speed * dt in every
# trigger solve. Breach monitoring runs on the tick grid, so an issuer can
# sit up to one full tick of motion outside its promised disk before the
# fallback kicks in; certificates must stay sound through that lag, which
# needs at least 1.0 here.
GUARD_TICKS = 1.0

# Relative slack for the monotone-descent invariant.
V_TOL_REL = 1e-9


class EngineInvariantError(RuntimeError):
    """The simulator detected a violation of a guaranteed invariant."""


def _next_check_ns(now_ns: int, margin: float, max_speed: float) -> int:
    """First instant at which a promise found `margin` inside at now_ns can
    be breached.

    The margin falls by at most 2 * max_speed per second (see the promises
    module docstring), so every tick before now + m / (2 * max_speed) is
    breach-free. Taking 2 * BREACH_TOL off m absorbs the rounding of the
    disk and the positions, which is orders of magnitude smaller.
    """
    return now_ns + int((margin - 2.0 * BREACH_TOL) * NS / (2.0 * max_speed))


@dataclass(frozen=True)
class MessageRecord:
    sent_at_ns: int
    deliver_at_ns: Optional[int]  # None means dropped
    kind: str  # PROMISE, WARN, REQ
    sender: int
    receiver: int
    size_class: str  # payload or bit
    event: bool  # True for event-layer promise sends (breach/expiry/retry)


@dataclass
class RunResult:
    config: ScenarioConfig
    times_ns: List[int]
    v_series: List[float]
    trace: List[Tuple[int, Tuple[Tuple[float, float, float, str], ...]]]
    messages: List[MessageRecord]
    metrics: Dict
    wall_time: float

    @property
    def n_comm(self) -> int:
        return self.metrics["n_comm"]

    @property
    def v_final(self) -> float:
        return self.v_series[-1]


class _Agent:
    __slots__ = (
        "id",
        "x",
        "y",
        "heading",
        "state_ts_ns",
        "control",
        "nominal",
        "nominal_gap",
        "safe_active",
        "t_star_ns",
        "round_anchor_ns",
        "round_start_ns",
        "round_seq",
        "round_pending",
        "self_req_token",
        "view",
        "dists",
        "sent",
        "void_before",
    )

    def __init__(self, aid: int, state: UnicycleState, limits) -> None:
        self.id = aid
        self.x = state.x
        self.y = state.y
        self.heading = state.heading
        self.state_ts_ns = 0
        self.control = safe_mode(limits)
        self.nominal = safe_mode(limits)
        self.nominal_gap = 0.0
        self.safe_active = True
        self.t_star_ns = 0
        self.round_anchor_ns = 0
        self.round_start_ns = 0
        self.round_seq = 0
        self.round_pending: set = set()
        self.self_req_token = 0
        self.view: Dict[int, Promise] = {}
        # Target distances to the neighbors, in the order of `view`.
        self.dists: List[float] = []
        # Promises in flight per recipient, each with the first tick at
        # which it can be breached.
        self.sent: Dict[int, List[Tuple[Promise, int]]] = {}
        self.void_before: Dict[int, float] = {}


class Engine:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.graph = cfg.graph()
        self.spec = cfg.formation()
        self.limits = cfg.limits
        # The worst-case law treats every promise as a full reachability
        # envelope regardless of what the config asked for.
        self.rule = StaticBall(1.0) if cfg.law == "self" else cfg.promise_rule
        self.monitoring = cfg.law in ("team", "robust-team")
        self.containment = cfg.law == "robust-team"
        self.channel = Channel(cfg.network, cfg.limits)
        self.channel_ideal = cfg.network.ideal
        self.safe_turn = cfg.safe_turn

        self.dt_ns = int(round(cfg.dt * NS))
        self.duration_ns = int(round(cfg.duration * NS))
        self.base_dwell_ns = int(round(cfg.dwell.self_dwell * NS))
        self.event_dwell_ns = int(round(cfg.dwell.event_dwell * NS))
        self.horizon_ns = 10 * self.base_dwell_ns
        self.exp_ns = None if cfg.expiration is None else int(round(cfg.expiration * NS))
        self.retry_ns = max(int(round(cfg.network.max_delay * NS)), self.dt_ns)
        self.guard = GUARD_TICKS * cfg.limits.max_speed * cfg.dt

        self.agents = [_Agent(i, st, cfg.limits) for i, st in enumerate(cfg.initial_states)]
        self.directed_pairs = sorted(
            [(i, j) for i, j in self.graph.edges] + [(j, i) for i, j in self.graph.edges]
        )

        self._heap: List[tuple] = []
        self._seq = 0
        self.messages: List[MessageRecord] = []
        self.n_promise = 0
        self.n_req = 0
        self.n_warn = 0
        self.n_breach = 0
        self.n_s = [0] * len(self.agents)
        self.n_e = [0] * len(self.agents)
        self.request_times_ns: Dict[int, List[int]] = {a.id: [] for a in self.agents}
        self.event_sends_ns: Dict[Tuple[int, int], List[int]] = {}
        self.last_send_ns: Dict[Tuple[int, int], int] = {}
        self.last_issued_ns: Dict[Tuple[int, int], int] = {}
        self.latest_sent: Dict[Tuple[int, int], Promise] = {}
        self.exempt_until_ns: Dict[Tuple[int, int], int] = {}
        self.violations: List[Tuple[int, int, int]] = []
        # Per directed pair: the view its containment check was scheduled
        # for and the first tick at which that view can be missed.
        self.contain_due: List[Tuple[Optional[Promise], int]] = [
            (None, 0) for _ in self.directed_pairs
        ]
        self.times_ns: List[int] = []
        self.v_series: List[float] = []
        self.trace: List[Tuple[int, tuple]] = []
        self._last_v: Optional[float] = None

    # ------------------------------------------------------------------
    # event plumbing

    def _push(self, ts_ns: int, prio: int, kind: str, data: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (ts_ns, prio, self._seq, kind, data))

    # ------------------------------------------------------------------
    # kinematics

    def _step(self, ag: _Agent, ts_ns: int) -> None:
        dt = (ts_ns - ag.state_ts_ns) * 1e-9
        c = ag.control
        nx, ny, nth = arc_step(ag.x, ag.y, ag.heading, c.speed, c.turn_rate, dt)
        ag.x = nx
        ag.y = ny
        ag.heading = wrap_angle(nth)
        ag.state_ts_ns = ts_ns

    def _advance(self, ag: _Agent, ts_ns: int) -> None:
        if ts_ns <= ag.state_ts_ns:
            return
        if not ag.safe_active and ag.t_star_ns < ts_ns:
            # The certificate runs out inside this interval: integrate the
            # nominal stretch, then freeze the position.
            if ag.t_star_ns > ag.state_ts_ns:
                self._step(ag, ag.t_star_ns)
            ag.safe_active = True
            ag.control = team_control(ag.nominal, ag.t_star_ns, ag.t_star_ns, self.safe_turn)
        self._step(ag, ts_ns)

    def _apply_mode_control(self, ag: _Agent, now_ns: int) -> None:
        now_s = now_ns * 1e-9
        points = [view_disk_at(p, now_s).center for p in ag.view.values()]
        lim = self.limits
        speed, turn = goal_law(
            ag.x, ag.y, ag.heading, points, ag.dists, self.spec.gain, lim.max_speed, lim.max_turn
        )
        nominal = ControlInput(speed, turn, lim)
        ag.nominal = nominal
        ag.nominal_gap = math.hypot(speed, turn)
        ag.control = team_control(nominal, now_ns, ag.t_star_ns, self.safe_turn)
        # team_control hands the nominal control back unchanged before t*.
        ag.safe_active = ag.control is not nominal

    # ------------------------------------------------------------------
    # certificates

    def _resolve(self, ag: _Agent, now_ns: int) -> None:
        """Recompute the agent's descent certificate and request schedule."""
        self._advance(ag, now_ns)
        t_star_ns, _ = critical_time_ns(
            ag.id,
            ag.x,
            ag.y,
            ag.heading,
            ag.view,
            now_ns,
            self.spec,
            self.limits,
            self.dt_ns,
            self.horizon_ns,
            self.guard,
        )
        ag.t_star_ns = t_star_ns
        self._apply_mode_control(ag, now_ns)
        if self.cfg.dwell.adaptive:
            gaps = [p.gap for p in ag.view.values() if p.gap is not None]
            dwell_s = adaptive_dwell(
                ag.nominal_gap, gaps, self.cfg.dwell.adapt_scale, self.cfg.dwell.adapt_floor
            )
            dwell = int(round(dwell_s * NS))
        else:
            dwell = self.base_dwell_ns
        request_ns = max(ag.round_anchor_ns + dwell, t_star_ns, now_ns)
        ag.self_req_token += 1
        self._push(request_ns, PRIO_SELF_REQUEST, "selfreq", (ag.id, ag.self_req_token))

    # ------------------------------------------------------------------
    # promise traffic

    def _issue_promise(self, ag: _Agent, r: int, now_ns: int, event: bool) -> None:
        now_s = now_ns * 1e-9
        expires_ns = None
        expires_s = None
        if self.exp_ns is not None:
            expires_ns = now_ns + self.exp_ns
            expires_s = expires_ns * 1e-9
        p = make_promise(
            ag.id,
            r,
            now_s,
            UnicycleState(ag.x, ag.y, ag.heading),
            ag.control,
            self.rule,
            planning_control=ag.nominal,
            expires_at=expires_s,
            gap=ag.nominal_gap,
        )
        if self.channel_ideal:
            # Instant reliable delivery retires the previous promise.
            ag.sent[r] = [(p, now_ns)]
        else:
            ag.sent.setdefault(r, []).append((p, now_ns))
        pair = (ag.id, r)
        self.last_issued_ns[pair] = now_ns
        self.last_send_ns[pair] = now_ns
        self.latest_sent[pair] = p
        if event:
            self.n_e[ag.id] += 1
            self.event_sends_ns.setdefault(pair, []).append(now_ns)
        self.n_promise += 1
        res = self.channel.transmit(ag.id, r, promise_to_wire(p))
        if res.delivered:
            deliver_ns = now_ns + int(round(res.delay * NS))
            self._push(deliver_ns, PRIO_PROMISE, "deliver", (r, res.wire))
        else:
            deliver_ns = None
        self.messages.append(
            MessageRecord(now_ns, deliver_ns, "PROMISE", ag.id, r, "payload", event)
        )
        if expires_ns is not None:
            self._push(expires_ns, PRIO_PROMISE, "send", (ag.id, r, now_ns))

    def _record_req(self, requester: int, responder: int, now_ns: int) -> None:
        self.n_req += 1
        self.messages.append(
            MessageRecord(now_ns, now_ns, "REQ", requester, responder, "bit", False)
        )

    def _accept_promise(self, rag: _Agent, wire: tuple, now_ns: int) -> bool:
        p = promise_from_wire(wire, self.limits)
        if p.issued_at < rag.void_before.get(p.issuer, -1.0):
            return False  # voided by a warning while still in flight
        if not self.channel_ideal:
            p = validate_noisy_promise(
                p, self.cfg.network.noise_bound, self.cfg.network.radius_noise_bound
            )
        cur = rag.view.get(p.issuer)
        stale = cur is not None and (
            p.issued_at < cur.issued_at
            or (p.issued_at == cur.issued_at and cur.mode is _BALL)
        )
        if stale:
            return False
        rag.view[p.issuer] = p
        # Receiving information restarts the request clock: the next request
        # is scheduled at least one self dwell after the latest update,
        # whatever triggered it.
        if now_ns > rag.round_anchor_ns:
            rag.round_anchor_ns = now_ns
        if p.issuer in rag.round_pending and p.issued_at >= rag.round_start_ns * 1e-9:
            rag.round_pending.discard(p.issuer)
        return True

    def _warn(self, ag: _Agent, r: int, p: Promise, detect_ns: int) -> None:
        """Reliable instant warning: the recipient stops trusting old promises.

        The single bit means "a promise of mine just failed", so the recipient
        voids every ball issued before the warning instant: the current view
        drops to worst-case reachability and in-flight deliveries from before
        the warning are refused when they land. Promises issued at or after
        the warning (the replacement travels with it) stay acceptable.
        """
        self.n_warn += 1
        self.messages.append(MessageRecord(detect_ns, detect_ns, "WARN", ag.id, r, "bit", False))
        rag = self.agents[r]
        detect_s = detect_ns * 1e-9
        prev = rag.void_before.get(ag.id, -1.0)
        if detect_s > prev:
            rag.void_before[ag.id] = detect_s
        cur = rag.view.get(ag.id)
        if cur is None or cur.mode is not _BALL:
            return
        if cur.issued_at >= detect_s:
            return  # already anchored at the warning instant or later
        # Anchor one tick back: the issuer's previous in-disk check bounds
        # the true position there, so the grown disk stays sound.
        fb_t = max((detect_ns - self.dt_ns) * 1e-9, cur.issued_at)
        rag.view[ag.id] = fallback_to_reachability(cur, fb_t)
        self._resolve(rag, detect_ns)

    def _monitor(self, ag: _Agent, now_ns: int) -> None:
        """Warn or resend for each unexpired promise in flight the agent has left.

        A promise is checked only from the tick _next_check_ns gives it: its
        margin falls by at most 2 * max_speed per second, so the ticks in
        between are provably breach-free and skipping them keeps every
        breach tick.
        """
        if not ag.sent:
            return
        now_s = now_ns * 1e-9
        x, y = ag.x, ag.y
        max_speed = self.limits.max_speed
        for r in sorted(ag.sent):
            entries = ag.sent[r]
            if not entries:
                continue
            keep = []
            breached = []
            for entry in entries:
                p, due_ns = entry
                if now_ns < due_ns:
                    keep.append(entry)
                    continue
                if is_expired(p, now_s):
                    continue
                margin = breach_margin(p, now_s, x, y)
                if margin < 0.0:
                    breached.append(p)
                else:
                    keep.append((p, _next_check_ns(now_ns, margin, max_speed)))
            ag.sent[r] = keep
            for p in breached:
                pair = (ag.id, r)
                self.n_breach += 1
                self.exempt_until_ns[pair] = now_ns + self.event_dwell_ns
                if self.latest_sent.get(pair) is not p:
                    # A newer promise already covers this recipient; the
                    # warning only matters if the newer one never arrived.
                    self._warn(ag, r, p, now_ns)
                    continue
                if now_ns >= self.last_send_ns[pair] + self.event_dwell_ns:
                    if not self.channel_ideal:
                        self._warn(ag, r, p, now_ns)
                    self._issue_promise(ag, r, now_ns, event=True)
                else:
                    self._warn(ag, r, p, now_ns)
                    resend_ns = self.last_send_ns[pair] + self.event_dwell_ns
                    self._push(resend_ns, PRIO_PROMISE, "send", (ag.id, r, self.last_issued_ns[pair]))

    # ------------------------------------------------------------------
    # event handlers

    def _self_request(self, ts_ns: int, i: int, token: int) -> None:
        ag = self.agents[i]
        if token != ag.self_req_token:
            return
        ag.round_seq += 1
        self.n_s[i] += 1
        self.request_times_ns[i].append(ts_ns)
        ag.round_anchor_ns = ts_ns
        ag.round_start_ns = ts_ns
        ag.round_pending = set(self.graph.neighbors(i))
        for j in self.graph.neighbors(i):
            self._record_req(i, j, ts_ns)
            jag = self.agents[j]
            self._advance(jag, ts_ns)
            self._issue_promise(jag, i, ts_ns, event=False)
        if not self.channel_ideal and ag.round_pending:
            self._push(ts_ns + self.retry_ns, PRIO_REQ_RETRY, "retry", (i, ag.round_seq))

    def _req_retry(self, ts_ns: int, i: int, round_token: int) -> None:
        ag = self.agents[i]
        if ag.round_seq != round_token or not ag.round_pending:
            return
        for j in sorted(ag.round_pending):
            self._record_req(i, j, ts_ns)
            jag = self.agents[j]
            self._advance(jag, ts_ns)
            self._issue_promise(jag, i, ts_ns, event=True)
        self._push(ts_ns + self.retry_ns, PRIO_REQ_RETRY, "retry", (i, round_token))

    def _send_promise_event(self, ts_ns: int, i: int, r: int, token_ns: int) -> None:
        if self.last_issued_ns.get((i, r)) != token_ns:
            return  # superseded by a newer send
        ag = self.agents[i]
        self._advance(ag, ts_ns)
        self._issue_promise(ag, r, ts_ns, event=True)

    def _drain_promises(self, ts_ns: int) -> None:
        """Process every promise send/delivery at this instant, then resolve
        each recipient once over its whole batch."""
        bucket: Dict[int, List[tuple]] = {}
        heap = self._heap
        while heap and heap[0][0] == ts_ns and heap[0][1] == PRIO_PROMISE:
            _, _, _, kind, data = heapq.heappop(heap)
            if kind == "send":
                self._send_promise_event(ts_ns, *data)
            else:
                r, wire = data
                bucket.setdefault(r, []).append(wire)
        for r in sorted(bucket):
            rag = self.agents[r]
            changed = False
            for wire in bucket[r]:
                changed = self._accept_promise(rag, wire, ts_ns) or changed
            if changed:
                self._resolve(rag, ts_ns)

    def _tick(self, ts_ns: int) -> None:
        for ag in self.agents:
            self._advance(ag, ts_ns)
        for ag in self.agents:
            self._apply_mode_control(ag, ts_ns)
        if self.monitoring:
            for ag in self.agents:
                self._monitor(ag, ts_ns)
        self._record(ts_ns)
        nxt = ts_ns + self.dt_ns
        if nxt <= self.duration_ns:
            self._push(nxt, PRIO_TICK, "tick", ())

    def _record(self, ts_ns: int) -> None:
        v = lyapunov(self.agents, self.spec, self.graph)
        if self._last_v is not None and v > self._last_v + V_TOL_REL * max(1.0, self._last_v):
            raise EngineInvariantError(
                f"potential increased at t={ts_ns * 1e-9:.6f}s: {self._last_v!r} -> {v!r}"
            )
        self._last_v = v
        self.times_ns.append(ts_ns)
        self.v_series.append(v)
        row = tuple(
            (a.x, a.y, a.heading, "safe" if a.safe_active else "nominal") for a in self.agents
        )
        self.trace.append((ts_ns, row))
        if self.containment:
            # Scheduled like the breach monitor: a view is checked again
            # only once it can have been left, and a new view at once.
            ts_s = ts_ns * 1e-9
            agents = self.agents
            max_speed = self.limits.max_speed
            due = self.contain_due
            for k, (i, r) in enumerate(self.directed_pairs):
                p = agents[r].view[i]
                checked, due_ns = due[k]
                if checked is p and ts_ns < due_ns:
                    continue
                if ts_ns <= self.exempt_until_ns.get((i, r), -1):
                    continue
                margin = breach_margin(p, ts_s, agents[i].x, agents[i].y)
                if margin < 0.0:
                    self.violations.append((ts_ns, i, r))
                due[k] = (p, _next_check_ns(ts_ns, margin, max_speed))

    # ------------------------------------------------------------------
    # lifecycle

    def _bootstrap(self) -> None:
        # Perfect initial views: a frozen disk of radius zero at the true
        # starting position, growing at max speed like any stale promise.
        zero = safe_mode(self.limits)
        for ag in self.agents:
            for j in self.graph.neighbors(ag.id):
                st = self.cfg.initial_states[j]
                ag.view[j] = Promise(
                    issuer=j,
                    recipient=ag.id,
                    issued_at=0.0,
                    anchor_state=st,
                    anchor_control=zero,
                    radius=0.0,
                    mode=_FALLBACK,
                    fb_center=(st.x, st.y),
                    fb_radius=0.0,
                    fb_time=0.0,
                )
            ag.dists = [self.spec.distance(ag.id, j) for j in ag.view]
        for ag in self.agents:
            ag.round_seq = 1
            self.n_s[ag.id] = 1
            self.request_times_ns[ag.id].append(0)
            ag.round_anchor_ns = 0
            ag.round_start_ns = 0
            ag.round_pending = set(self.graph.neighbors(ag.id))
        for ag in self.agents:
            self._resolve(ag, 0)
        for ag in self.agents:
            for j in self.graph.neighbors(ag.id):
                self._record_req(ag.id, j, 0)
                self._issue_promise(self.agents[j], ag.id, 0, event=False)
            if not self.channel_ideal and ag.round_pending:
                self._push(self.retry_ns, PRIO_REQ_RETRY, "retry", (ag.id, ag.round_seq))
        self._push(0, PRIO_TICK, "tick", ())

    def run(self) -> RunResult:
        start = _time.perf_counter()
        self._bootstrap()
        heap = self._heap
        end_ns = self.duration_ns
        while heap:
            ts_ns = heap[0][0]
            if ts_ns > end_ns:
                break
            if heap[0][1] == PRIO_PROMISE:
                self._drain_promises(ts_ns)
                continue
            _, _, _, kind, data = heapq.heappop(heap)
            if kind == "tick":
                self._tick(ts_ns)
            elif kind == "selfreq":
                self._self_request(ts_ns, *data)
            elif kind == "retry":
                self._req_retry(ts_ns, *data)
        wall = _time.perf_counter() - start
        return RunResult(
            config=self.cfg,
            times_ns=self.times_ns,
            v_series=self.v_series,
            trace=self.trace,
            messages=self.messages,
            metrics=self._metrics(),
            wall_time=wall,
        )

    def _metrics(self) -> Dict:
        cfg = self.cfg
        if isinstance(self.rule, StaticBall):
            rule_info: Dict = {"kind": "static", "tightness": self.rule.tightness}
        else:
            rule_info = {"kind": "dynamic", "scale": self.rule.scale, "floor": self.rule.floor}
        gaps = []
        for times in self.request_times_ns.values():
            gaps.extend(b - a for a, b in zip(times, times[1:]))
        max_window = 0
        for sends in self.event_sends_ns.values():
            for a in range(len(sends)):
                hi = sends[a] + self.event_dwell_ns
                k = a
                while k + 1 < len(sends) and sends[k + 1] <= hi:
                    k += 1
                max_window = max(max_window, k - a + 1)
        final_d = {}
        for i, j in self.graph.edges:
            ai, aj = self.agents[i], self.agents[j]
            final_d[f"{i}-{j}"] = math.hypot(aj.x - ai.x, aj.y - ai.y)
        return {
            "law": cfg.law,
            "seed": cfg.network.seed,
            "duration_ns": self.duration_ns,
            "dt_ns": self.dt_ns,
            "promise_rule": rule_info,
            "expiration_ns": self.exp_ns,
            "network": {
                "drop_prob": cfg.network.drop_prob,
                "max_delay": cfg.network.max_delay,
                "noise_bound": cfg.network.noise_bound,
                "radius_noise_bound": cfg.network.radius_noise_bound,
            },
            "dwell": {
                "self_dwell_ns": self.base_dwell_ns,
                "event_dwell_ns": self.event_dwell_ns,
                "adaptive": cfg.dwell.adaptive,
            },
            "v_initial": self.v_series[0],
            "v_final": self.v_series[-1],
            "n_comm": self.n_promise,
            "n_req_bits": self.n_req,
            "n_warn_bits": self.n_warn,
            "n_breaches": self.n_breach,
            "n_s": list(self.n_s),
            "n_e": list(self.n_e),
            "request_times_ns": {str(i): v for i, v in self.request_times_ns.items()},
            "event_send_times_ns": {f"{i}->{r}": v for (i, r), v in sorted(self.event_sends_ns.items())},
            "min_request_gap_ns": min(gaps) if gaps else None,
            "max_event_sends_in_window": max_window,
            "containment_violations": len(self.violations),
            "final_distances": final_d,
        }


# ----------------------------------------------------------------------
# entry points


def run(cfg: ScenarioConfig) -> RunResult:
    return Engine(cfg).run()


def run_self_triggered(cfg: ScenarioConfig) -> RunResult:
    """Worst-case baseline: same machinery, reachability-sized promises."""
    return run(replace(cfg, law="self"))


def _sweep_one(args: Tuple[ScenarioConfig, float]) -> Dict:
    cfg, lam = args
    res = run(replace(cfg, law="team", promise_rule=StaticBall(lam)))
    return {"lambda": lam, "v_final": res.v_final, "n_comm": res.n_comm}


def sweep_lambda(
    cfg: ScenarioConfig,
    grid: List[float],
    duration: Optional[float] = None,
    parallel: bool = False,
) -> List[Dict]:
    """Run the team law across promise tightness values; returns one row per
    value with the final potential and total promise payload count."""
    base = cfg if duration is None else replace(cfg, duration=duration)
    jobs = [(base, lam) for lam in grid]
    if parallel and len(jobs) > 1:
        with ProcessPoolExecutor() as pool:
            return list(pool.map(_sweep_one, jobs))
    return [_sweep_one(j) for j in jobs]


COMPARE_VARIANTS = ("self", "fpfd", "fpad", "apfd", "apad")


def _compare_cfg(cfg: ScenarioConfig, variant: str) -> ScenarioConfig:
    dyn = cfg.promise_rule if isinstance(cfg.promise_rule, DynamicBall) else DynamicBall(0.5, 1e-6)
    fixed = cfg.promise_rule if isinstance(cfg.promise_rule, StaticBall) else StaticBall(0.1)
    base = replace(cfg, law="team")
    if variant == "self":
        return replace(base, law="self")
    rule = fixed if variant.startswith("fp") else dyn
    adaptive = variant.endswith("ad")
    return replace(base, promise_rule=rule, dwell=replace(base.dwell, adaptive=adaptive))


def run_compare(cfg: ScenarioConfig, sample_dt: float = 0.1) -> List[Dict]:
    """Communication/performance trade-off table across controller variants.

    Columns per variant: cumulative promise payloads and the potential,
    sampled every `sample_dt` seconds. Variants: worst-case baseline (self),
    fixed/adaptive promises crossed with fixed/adaptive dwell.
    """
    results = {v: run(_compare_cfg(cfg, v)) for v in COMPARE_VARIANTS}
    sample_ns = int(round(sample_dt * NS))
    rows = []
    send_times = {
        v: sorted(m.sent_at_ns for m in r.messages if m.kind == "PROMISE")
        for v, r in results.items()
    }
    t = 0
    end_ns = int(round(cfg.duration * NS))
    while t <= end_ns:
        row: Dict = {"t_ns": t}
        for v, r in results.items():
            idx = min(bisect.bisect_right(r.times_ns, t), len(r.times_ns)) - 1
            row[f"ncomm_{v}"] = bisect.bisect_right(send_times[v], t)
            row[f"v_{v}"] = r.v_series[max(idx, 0)]
        rows.append(row)
        t += sample_ns
    return rows


# ----------------------------------------------------------------------
# output files


def _fmt_t(ns: int) -> str:
    return f"{ns // NS}.{ns % NS:09d}"


def _g17(v: float) -> str:
    return format(v, ".17g")


def write_outputs(result: RunResult, outdir: Path) -> None:
    """Write lyapunov.csv, trace.csv, messages.csv, and metrics.json.

    CSV files use CRLF line endings; times are exact decimal seconds and
    floating-point columns carry 17 significant digits so reruns are
    byte-identical.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = len(result.config.initial_states)

    lines = ["t,V"]
    for ts, v in zip(result.times_ns, result.v_series):
        lines.append(f"{_fmt_t(ts)},{_g17(v)}")
    (outdir / "lyapunov.csv").write_bytes(("\r\n".join(lines) + "\r\n").encode())

    head = ["t"]
    for i in range(n):
        head += [f"x_{i}", f"y_{i}", f"heading_{i}", f"mode_{i}"]
    lines = [",".join(head)]
    for ts, row in result.trace:
        cells = [_fmt_t(ts)]
        for x, y, th, mode in row:
            cells += [_g17(x), _g17(y), _g17(th), mode]
        lines.append(",".join(cells))
    (outdir / "trace.csv").write_bytes(("\r\n".join(lines) + "\r\n").encode())

    lines = ["sent_at,deliver_at,kind,sender,receiver,size_class"]
    for m in result.messages:
        deliver = "DROPPED" if m.deliver_at_ns is None else _fmt_t(m.deliver_at_ns)
        lines.append(f"{_fmt_t(m.sent_at_ns)},{deliver},{m.kind},{m.sender},{m.receiver},{m.size_class}")
    (outdir / "messages.csv").write_bytes(("\r\n".join(lines) + "\r\n").encode())

    payload = json.dumps(result.metrics, sort_keys=True, indent=2) + "\n"
    (outdir / "metrics.json").write_bytes(payload.encode())


def write_sweep_csv(rows: List[Dict], path: Path) -> None:
    lines = ["lambda,V_final,N_comm"]
    for r in rows:
        lines.append(f"{format(r['lambda'], '.6g')},{format(r['v_final'], '.6g')},{r['n_comm']}")
    Path(path).write_bytes(("\r\n".join(lines) + "\r\n").encode())


def write_compare_csv(rows: List[Dict], path: Path) -> None:
    head = ["t"]
    for v in COMPARE_VARIANTS:
        head += [f"ncomm_{v}", f"v_{v}"]
    lines = [",".join(head)]
    for r in rows:
        cells = [_fmt_t(r["t_ns"])]
        for v in COMPARE_VARIANTS:
            cells += [str(r[f"ncomm_{v}"]), format(r[f"v_{v}"], ".6g")]
        lines.append(",".join(cells))
    Path(path).write_bytes(("\r\n".join(lines) + "\r\n").encode())
