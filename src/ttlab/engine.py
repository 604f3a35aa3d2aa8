"""Discrete-event simulator for promise-based formation coordination.

Time is integer nanoseconds. The event heap carries (timestamp, priority,
sequence) keys so simultaneous events process in a fixed order: certificate
scan continuations first, then request retries, then promise traffic
(scheduled sends and deliveries), then self requests, then the control
tick. Warning and request bits are reliable and instantaneous and are
handled inline instead of through the heap.

Agent poses advance lazily under the held control (closed-form arcs); the
held interval splits at the certificate horizon, past which the agent's
speed drops to zero. Each agent holds its nominal control as raw floats and
safe mode as one flag; controllers.team_control derives the applied control
from them, and a ControlInput is built only when a promise is issued.

Certificates are recomputed ("resolved") at start-up, at each instant with
an accepted promise delivery, and on each warning that voids a view; never
at plain ticks or request rounds, so the tick loop stays cheap.

A resolve builds the agent's triggers.Scan from its pose and view and scans
only the first chunk of the predicted trajectory. While no crossing has
turned up, the agent's `t_star_ns` is only a lower bound, the last grid
point scanned, and a continuation event at that instant scans the next
chunk before any other event there can act on it. Once the crossing is
found, the self request is queued where a scan run to its crossing at the
resolve would have queued it, under the sequence number reserved at the
resolve. So the prediction is rolled out only as far as simulated time
reaches. Both events carry their Scan and act only while it is still the
agent's, so a later resolve supersedes a pending continuation as it does a
self request. The Scan keeps the view it was built from; a view never
changes without a resolve that replaces it. So the control tick asks the
agent's Scan for the nominal control (Scan.control): the rollout holds it
where the agent sits exactly at a rollout pose, and the Scan computes it
from its promises elsewhere, holding the goal offset while neither the
agent nor any promise's centre can move.

The breach monitor and the containment check run on the ticks where a
miss is possible (_next_check_ns), and each keeps the earliest such tick,
so a tick with nothing due costs one comparison for each.

The message counts in metrics.json are derived from the message log,
`Engine.messages`, the one record of every message sent.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .config import ConfigError, ScenarioConfig, time_problem, validate_config
from .controllers import team_control
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
)
from .triggers import NS, Scan, adaptive_dwell, critical_time_ns, to_ns

PRIO_SCAN = 0
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


def _fmt_t(ns: int) -> str:
    return f"{ns // NS}.{ns % NS:09d}"


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
        "speed",
        "turn",
        "safe",
        "t_star_ns",
        "rounds",
        "round_anchor_ns",
        "round_pending",
        "scan",
        "req_floor_ns",
        "req_seq",
        "view",
        "sent",
        "due_ns",
        "void_before",
    )

    def __init__(self, aid: int, state: UnicycleState) -> None:
        self.id = aid
        self.x = state.x
        self.y = state.y
        self.heading = state.heading
        self.state_ts_ns = 0
        # The nominal control as raw floats, and whether the agent is in safe
        # mode, which it is from t* on. The flag is the one record of the
        # mode; the applied control is team_control of the three.
        self.speed = 0.0
        self.turn = 0.0
        self.safe = True
        self.t_star_ns = 0
        # Start times of the request rounds; the last is the current round.
        self.rounds: List[int] = []
        self.round_anchor_ns = 0
        self.round_pending: set = set()
        # The certificate scan under way, and the earliest time and the heap
        # sequence number of the self request it will queue.
        self.scan: Optional[Scan] = None
        self.req_floor_ns = 0
        self.req_seq = 0
        self.view: Dict[int, Promise] = {}
        # Promises in flight per recipient, each with the first tick at
        # which it can be breached, and a bound on the earliest of those:
        # the breach monitor has nothing to do before it.
        self.sent: Dict[int, List[Tuple[Promise, int]]] = {}
        self.due_ns: float = math.inf
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

        self.dt_ns = to_ns(cfg.dt)
        self.duration_ns = to_ns(cfg.duration)
        self.base_dwell_ns = to_ns(cfg.dwell.self_dwell)
        self.event_dwell_ns = to_ns(cfg.dwell.event_dwell)
        self.horizon_ns = 10 * self.base_dwell_ns
        self.exp_ns = None if cfg.expiration is None else to_ns(cfg.expiration)
        self.retry_ns = max(to_ns(cfg.network.max_delay), self.dt_ns)
        self.guard = GUARD_TICKS * cfg.limits.max_speed * cfg.dt
        # An adaptive dwell this long already puts the self request past the
        # run's end, so longer ones are cut to it before conversion to ns.
        self.dwell_cap_s = 2.0 * (cfg.duration + cfg.dt)

        self.agents = [_Agent(i, st) for i, st in enumerate(cfg.initial_states)]
        self.directed_pairs = sorted(
            [(i, j) for i, j in self.graph.edges] + [(j, i) for i, j in self.graph.edges]
        )

        self._heap: List[tuple] = []
        self._seq = 0
        self.messages: List[MessageRecord] = []
        self.n_breach = 0
        # Per directed pair: the latest promise issued on it and when.
        self.latest_sent: Dict[Tuple[int, int], Tuple[Promise, int]] = {}
        self.exempt_until_ns: Dict[Tuple[int, int], int] = {}
        self.violations: List[Tuple[int, int, int]] = []
        # Per directed pair: the view its containment check was scheduled
        # for and the first tick at which that view can be missed.
        self.contain_due: List[Tuple[Optional[Promise], int]] = [
            (None, 0) for _ in self.directed_pairs
        ]
        # A bound on the earliest of those ticks. A view that changes
        # resets it, so the next record checks the new view at once.
        self.contain_next_ns: float = 0
        self.v_series: List[float] = []
        self.trace: List[Tuple[int, tuple]] = []

    # ------------------------------------------------------------------
    # event plumbing

    def _push(
        self, ts_ns: int, prio: int, kind: str, data: tuple, seq: Optional[int] = None
    ) -> None:
        """Queue an event under the next sequence number, or under `seq`,
        one reserved earlier."""
        if seq is None:
            self._seq += 1
            seq = self._seq
        heapq.heappush(self._heap, (ts_ns, prio, seq, kind, data))

    # ------------------------------------------------------------------
    # kinematics

    def _step(self, ag: _Agent, ts_ns: int) -> None:
        dt = (ts_ns - ag.state_ts_ns) * 1e-9
        speed, turn = team_control(ag.speed, ag.turn, ag.safe, self.safe_turn)
        nx, ny, nth = arc_step(ag.x, ag.y, ag.heading, speed, turn, dt)
        ag.x = nx
        ag.y = ny
        ag.heading = wrap_angle(nth)
        ag.state_ts_ns = ts_ns

    def _advance(self, ag: _Agent, ts_ns: int) -> None:
        if ts_ns <= ag.state_ts_ns:
            return
        if not ag.safe and ag.t_star_ns < ts_ns:
            # The certificate runs out inside this interval: integrate the
            # nominal stretch, then switch to safe mode.
            if ag.t_star_ns > ag.state_ts_ns:
                self._step(ag, ag.t_star_ns)
            ag.safe = True
        self._step(ag, ts_ns)

    def _apply_mode_control(self, ag: _Agent, now_ns: int) -> None:
        lim = self.limits
        speed, turn = ag.scan.control(now_ns, (ag.x, ag.y, ag.heading))
        if not (0.0 <= speed <= lim.max_speed and abs(turn) <= lim.max_turn):
            raise EngineInvariantError(
                f"agent {ag.id} at t={_fmt_t(now_ns)}s: nominal control out of bounds"
                f" or not finite: speed {speed!r}, turn rate {turn!r}"
            )
        ag.speed = speed
        ag.turn = turn
        ag.safe = now_ns >= ag.t_star_ns

    # ------------------------------------------------------------------
    # certificates

    def _resolve(self, ag: _Agent, now_ns: int) -> None:
        """Recompute the agent's descent certificate and request schedule.

        The self request goes out at max(anchor + dwell, t*, now); the
        first and last terms are fixed here, since the anchor and the
        adaptive dwell can move before t* is known. Only the scan's first
        chunk runs here; continuation events take it on.
        """
        self._advance(ag, now_ns)
        ag.scan = Scan(
            ag.id, ag.x, ag.y, ag.heading, ag.view, now_ns,
            self.spec, self.limits, self.dt_ns, self.horizon_ns, self.guard,
        )
        ag.t_star_ns = critical_time_ns(ag.scan)
        self._apply_mode_control(ag, now_ns)
        if self.cfg.dwell.adaptive:
            gaps = [p.gap for p in ag.view.values() if p.gap is not None]
            own_gap = math.hypot(ag.speed, ag.turn)
            dwell_s = adaptive_dwell(
                own_gap, gaps, self.cfg.dwell.adapt_scale, self.cfg.dwell.adapt_floor
            )
            dwell = to_ns(min(dwell_s, self.dwell_cap_s))
        else:
            dwell = self.base_dwell_ns
        ag.req_floor_ns = max(ag.round_anchor_ns + dwell, now_ns)
        self._seq += 1
        ag.req_seq = self._seq
        self._queue_scan_step(ag)

    def _queue_scan_step(self, ag: _Agent) -> None:
        """Queue what follows the scan's last chunk: its continuation at
        the lower bound, or once t* is known the self request."""
        if ag.scan.pending:
            self._push(ag.t_star_ns, PRIO_SCAN, "scan", (ag.id, ag.scan))
        else:
            request_ns = max(ag.req_floor_ns, ag.t_star_ns)
            data = (ag.id, ag.scan)
            self._push(request_ns, PRIO_SELF_REQUEST, "selfreq", data, ag.req_seq)

    # ------------------------------------------------------------------
    # promise traffic

    def _issue_promise(self, ag: _Agent, r: int, now_ns: int, event: bool) -> None:
        """Send r a promise anchored at the applied control, and schedule its
        first breach check at once. This is the one place the held control
        becomes a ControlInput, the anchor; the planning gap, the nominal
        control's size, travels beside it."""
        now_s = now_ns * 1e-9
        expires_ns = None if self.exp_ns is None else now_ns + self.exp_ns
        anchor = ControlInput(*team_control(ag.speed, ag.turn, ag.safe, self.safe_turn), self.limits)
        p = make_promise(
            ag.id,
            r,
            now_s,
            UnicycleState(ag.x, ag.y, ag.heading),
            anchor,
            self.rule,
            expires_at=None if expires_ns is None else expires_ns * 1e-9,
            gap=math.hypot(ag.speed, ag.turn),
        )
        if self.channel_ideal:
            # Instant reliable delivery retires the previous promise.
            ag.sent[r] = [(p, now_ns)]
        else:
            ag.sent.setdefault(r, []).append((p, now_ns))
        if now_ns < ag.due_ns:
            ag.due_ns = now_ns
        self.latest_sent[(ag.id, r)] = (p, now_ns)
        res = self.channel.transmit(ag.id, r, promise_to_wire(p))
        if res.delivered:
            deliver_ns = now_ns + to_ns(res.delay)
            self._push(deliver_ns, PRIO_PROMISE, "deliver", (r, res.wire))
        else:
            deliver_ns = None
        self.messages.append(
            MessageRecord(now_ns, deliver_ns, "PROMISE", ag.id, r, "payload", event)
        )
        if expires_ns is not None:
            self._push(expires_ns, PRIO_PROMISE, "send", (ag.id, r, now_ns))

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
        self.contain_next_ns = 0
        # Receiving information restarts the request clock: the next request
        # is scheduled at least one self dwell after the latest update,
        # whatever triggered it.
        if now_ns > rag.round_anchor_ns:
            rag.round_anchor_ns = now_ns
        if p.issuer in rag.round_pending and p.issued_at >= rag.rounds[-1] * 1e-9:
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
        self.contain_next_ns = 0
        self._resolve(rag, detect_ns)

    def _monitor(self, ag: _Agent, now_ns: int) -> None:
        """Warn or resend for each unexpired promise in flight the agent has left.

        A promise is checked only from the tick _next_check_ns gives it: its
        margin falls by at most 2 * max_speed per second, so the ticks in
        between are provably breach-free and skipping them keeps every
        breach tick. Before the earliest of those ticks, ag.due_ns, there is
        nothing to do. A promise issued during the pass lowers ag.due_ns to
        now, so it is checked from the next tick on.
        """
        if now_ns < ag.due_ns:
            return
        ag.due_ns = math.inf
        nxt = math.inf
        now_s = now_ns * 1e-9
        x, y = ag.x, ag.y
        max_speed = self.limits.max_speed
        for r in sorted(ag.sent):
            keep = []
            breached = []
            for entry in ag.sent[r]:
                p, due_ns = entry
                if now_ns < due_ns:
                    keep.append(entry)
                elif is_expired(p, now_s):
                    continue
                else:
                    margin = breach_margin(p, now_s, x, y)
                    if margin < 0.0:
                        breached.append(p)
                        continue
                    due_ns = _next_check_ns(now_ns, margin, max_speed)
                    keep.append((p, due_ns))
                if due_ns < nxt:
                    nxt = due_ns
            ag.sent[r] = keep
            for p in breached:
                pair = (ag.id, r)
                self.n_breach += 1
                self.exempt_until_ns[pair] = now_ns + self.event_dwell_ns
                latest, issued_ns = self.latest_sent[pair]
                if latest is not p:
                    # A newer promise already covers this recipient; the
                    # warning only matters if the newer one never arrived.
                    self._warn(ag, r, p, now_ns)
                    continue
                resend_ns = issued_ns + self.event_dwell_ns
                if now_ns >= resend_ns:
                    if not self.channel_ideal:
                        self._warn(ag, r, p, now_ns)
                    self._issue_promise(ag, r, now_ns, event=True)
                else:
                    self._warn(ag, r, p, now_ns)
                    self._push(resend_ns, PRIO_PROMISE, "send", (ag.id, r, issued_ns))
        if nxt < ag.due_ns:
            ag.due_ns = nxt

    # ------------------------------------------------------------------
    # event handlers

    def _scan_continuation(self, i: int, scan: Scan) -> None:
        ag = self.agents[i]
        if ag.scan is scan:
            ag.t_star_ns = critical_time_ns(scan)
            self._queue_scan_step(ag)

    def _self_request(self, ts_ns: int, i: int, scan: Scan) -> None:
        ag = self.agents[i]
        if ag.scan is scan:
            self._start_round(ag, ts_ns)

    def _start_round(self, ag: _Agent, ts_ns: int) -> None:
        ag.rounds.append(ts_ns)
        ag.round_anchor_ns = ts_ns
        neighbors = self.graph.neighbors(ag.id)
        ag.round_pending = set(neighbors)
        self._request(ag, neighbors, ts_ns, event=False)

    def _request(self, ag: _Agent, responders: Iterable[int], ts_ns: int, event: bool) -> None:
        """Send a request bit to each responder, which answers with a promise
        at once; on a lossy channel, retry in retry_ns while any is missing."""
        for j in responders:
            self.messages.append(MessageRecord(ts_ns, ts_ns, "REQ", ag.id, j, "bit", False))
            jag = self.agents[j]
            self._advance(jag, ts_ns)
            self._issue_promise(jag, ag.id, ts_ns, event)
        if not self.channel_ideal and ag.round_pending:
            self._push(ts_ns + self.retry_ns, PRIO_REQ_RETRY, "retry", (ag.id, len(ag.rounds)))

    def _req_retry(self, ts_ns: int, i: int, round_token: int) -> None:
        ag = self.agents[i]
        if len(ag.rounds) == round_token and ag.round_pending:
            self._request(ag, sorted(ag.round_pending), ts_ns, event=True)

    def _send_promise_event(self, ts_ns: int, i: int, r: int, token_ns: int) -> None:
        if self.latest_sent[(i, r)][1] != token_ns:
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
        last = self.v_series[-1] if self.v_series else v
        row = tuple(
            (a.x, a.y, a.heading, "safe" if a.safe else "nominal") for a in self.agents
        )
        if not v <= last + V_TOL_REL * max(1.0, last):
            raise EngineInvariantError(self._rise_report(ts_ns, row, last, v))
        self.v_series.append(v)
        self.trace.append((ts_ns, row))
        if self.containment and ts_ns >= self.contain_next_ns:
            # Scheduled like the breach monitor: a view is checked again
            # only once it can have been left, and a new view at once. A
            # pair exempt now is tried again at the next tick.
            ts_s = ts_ns * 1e-9
            agents = self.agents
            max_speed = self.limits.max_speed
            due = self.contain_due
            nxt = math.inf
            for k, (i, r) in enumerate(self.directed_pairs):
                p = agents[r].view[i]
                checked, due_ns = due[k]
                if checked is not p or ts_ns >= due_ns:
                    if ts_ns <= self.exempt_until_ns.get((i, r), -1):
                        due_ns = ts_ns + 1
                    else:
                        margin = breach_margin(p, ts_s, agents[i].x, agents[i].y)
                        if margin < 0.0:
                            self.violations.append((ts_ns, i, r))
                        due_ns = _next_check_ns(ts_ns, margin, max_speed)
                        due[k] = (p, due_ns)
                if due_ns < nxt:
                    nxt = due_ns
            self.contain_next_ns = nxt

    def _rise_report(self, ts_ns: int, row: tuple, last: float, v: float) -> str:
        """The potential-increase error: the edge whose term rose most, its agents'
        last two trace rows and now, and the last five messages involving them."""
        prev = self.trace[-1][1] if self.trace else row

        def term(q: tuple, i: int, j: int) -> float:
            d2 = self.spec.distance(i, j) ** 2
            return ((q[j][0] - q[i][0]) ** 2 + (q[j][1] - q[i][1]) ** 2 - d2) ** 2

        i, j = max(self.graph.edges, key=lambda e: term(row, *e) - term(prev, *e))
        out = [f"potential increased at t={ts_ns * 1e-9:.6f}s: {last!r} -> {v!r}; edge {i}-{j} rose most"]
        rows = [*self.trace[-2:], (ts_ns, row)]
        out += [f"  t={_fmt_t(t)} agent {k}: pose {r[k][:3]!r}, {r[k][3]}" for t, r in rows for k in (i, j)]
        for m in [m for m in self.messages if {m.sender, m.receiver} & {i, j}][-5:]:
            deliver = "dropped" if m.deliver_at_ns is None else f"delivered {_fmt_t(m.deliver_at_ns)}"
            out.append(f"  {m.kind} {m.sender}->{m.receiver} sent {_fmt_t(m.sent_at_ns)}, {deliver}")
        return "\n".join(out)

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
        # Every agent resolves before any round starts, so all self-requests
        # are queued ahead of the first promise deliveries.
        for ag in self.agents:
            self._resolve(ag, 0)
        for ag in self.agents:
            self._start_round(ag, 0)
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
            elif kind == "scan":
                self._scan_continuation(*data)
            elif kind == "selfreq":
                self._self_request(ts_ns, *data)
            elif kind == "retry":
                self._req_retry(ts_ns, *data)
        wall = _time.perf_counter() - start
        return RunResult(
            config=self.cfg,
            times_ns=[ts for ts, _ in self.trace],
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
        counts = dict.fromkeys(("PROMISE", "REQ", "WARN"), 0)
        n_e = [0] * len(self.agents)
        event_sends: Dict[Tuple[int, int], List[int]] = {}
        for m in self.messages:
            counts[m.kind] += 1
            if m.event:  # only event-layer promise sends
                n_e[m.sender] += 1
                event_sends.setdefault((m.sender, m.receiver), []).append(m.sent_at_ns)
        gaps = [b - a for ag in self.agents for a, b in zip(ag.rounds, ag.rounds[1:])]
        max_window = 0
        for sends in event_sends.values():
            for a, t in enumerate(sends):
                max_window = max(max_window, bisect.bisect_right(sends, t + self.event_dwell_ns) - a)
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
            "n_comm": counts["PROMISE"],
            "n_req_bits": counts["REQ"],
            "n_warn_bits": counts["WARN"],
            "n_breaches": self.n_breach,
            "n_s": [len(ag.rounds) for ag in self.agents],
            "n_e": n_e,
            "request_times_ns": {str(ag.id): ag.rounds for ag in self.agents},
            "event_send_times_ns": {f"{i}->{r}": v for (i, r), v in sorted(event_sends.items())},
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


def _derived(cfg: ScenarioConfig, runs: str) -> ScenarioConfig:
    """cfg, once validate_config accepts it; a study derived it, and `runs`
    names the study and its laws in the error."""
    try:
        validate_config(cfg)
    except ConfigError as e:
        raise ConfigError(f"{runs}: {e}") from None
    return cfg


def _sweep_one(cfg: ScenarioConfig) -> Dict:
    res = run(cfg)
    return {"lambda": cfg.promise_rule.tightness, "v_final": res.v_final, "n_comm": res.n_comm}


def sweep_configs(cfg: ScenarioConfig, grid: List[float]) -> List[ScenarioConfig]:
    """The config of each point of sweep_lambda(cfg, grid), each validated."""
    runs = "sweep runs the team law"
    return [_derived(replace(cfg, law="team", promise_rule=StaticBall(lam)), runs) for lam in grid]


def sweep_lambda(cfg: ScenarioConfig, grid: List[float], parallel: bool = False) -> List[Dict]:
    """Run the team law across promise tightness values; returns one row per
    value with the final potential and total promise payload count. Every
    point's config is validated before any point runs."""
    cfgs = sweep_configs(cfg, grid)
    if parallel and len(cfgs) > 1:
        with ProcessPoolExecutor() as pool:
            return list(pool.map(_sweep_one, cfgs))
    return [_sweep_one(c) for c in cfgs]


COMPARE_VARIANTS = ("self", "fpfd", "fpad", "apfd", "apad")


def _compare_cfg(cfg: ScenarioConfig, variant: str) -> ScenarioConfig:
    dyn = cfg.promise_rule if isinstance(cfg.promise_rule, DynamicBall) else DynamicBall()
    fixed = cfg.promise_rule if isinstance(cfg.promise_rule, StaticBall) else StaticBall()
    base = replace(cfg, law="team")
    if variant == "self":
        return replace(base, law="self")
    rule = fixed if variant.startswith("fp") else dyn
    adaptive = variant.endswith("ad")
    return replace(base, promise_rule=rule, dwell=replace(base.dwell, adaptive=adaptive))


def compare_configs(cfg: ScenarioConfig) -> Dict[str, ScenarioConfig]:
    """The config of each variant of run_compare(cfg), each validated."""
    runs = "compare runs the team and self laws"
    return {v: _derived(_compare_cfg(cfg, v), runs) for v in COMPARE_VARIANTS}


def run_compare(cfg: ScenarioConfig, sample_dt: float = 0.1) -> List[Dict]:
    """Communication/performance trade-off table across controller variants.

    Columns per variant: cumulative promise payloads and the potential,
    sampled every `sample_dt` seconds. Variants: worst-case baseline (self),
    fixed/adaptive promises crossed with fixed/adaptive dwell. Every
    variant's config is validated before any variant runs.
    """
    if not sample_dt > 0.0 or time_problem(sample_dt):
        raise ValueError(f"sample_dt must be positive and at least 1 ns, got {sample_dt!r}")
    results = {v: run(c) for v, c in compare_configs(cfg).items()}
    rows = []
    send_times = {
        v: sorted(m.sent_at_ns for m in r.messages if m.kind == "PROMISE")
        for v, r in results.items()
    }
    for t in range(0, to_ns(cfg.duration) + 1, to_ns(sample_dt)):
        row: Dict = {"t_ns": t}
        for v, r in results.items():
            idx = bisect.bisect_right(r.times_ns, t) - 1
            row[f"ncomm_{v}"] = bisect.bisect_right(send_times[v], t)
            row[f"v_{v}"] = r.v_series[max(idx, 0)]
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# output files


def _write_csv(path: Path, head: str, lines: Iterable[str]) -> None:
    """Write `head`, then `lines` as they are formatted; every line ends in CRLF."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(head)
        f.writelines(lines)


def write_outputs(result: RunResult, outdir: Path) -> None:
    """Write lyapunov.csv, trace.csv, messages.csv, and metrics.json.

    One format string per CSV file (two in messages.csv: sent, dropped)
    gives each CRLF-ended line: times as exact decimal seconds "%d.%09d",
    floats to 17 significant digits "%.17g". Reruns are byte-identical.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = len(result.config.initial_states)

    fmt = "%d.%09d,%.17g\r\n"
    lines = (fmt % (ts // NS, ts % NS, v) for ts, v in zip(result.times_ns, result.v_series))
    _write_csv(outdir / "lyapunov.csv", "t,V\r\n", lines)

    head = "t" + "".join(f",x_{i},y_{i},heading_{i},mode_{i}" for i in range(n)) + "\r\n"
    fmt = "%d.%09d" + ",%.17g,%.17g,%.17g,%s" * n + "\r\n"
    lines = (fmt % (ts // NS, ts % NS, *chain.from_iterable(row)) for ts, row in result.trace)
    _write_csv(outdir / "trace.csv", head, lines)

    sent, dropped = "%d.%09d,%d.%09d,%s,%d,%d,%s\r\n", "%d.%09d,DROPPED,%s,%d,%d,%s\r\n"
    lines = (
        dropped % (m.sent_at_ns // NS, m.sent_at_ns % NS, m.kind, m.sender, m.receiver, m.size_class)
        if m.deliver_at_ns is None
        else sent % (m.sent_at_ns // NS, m.sent_at_ns % NS, m.deliver_at_ns // NS,
                     m.deliver_at_ns % NS, m.kind, m.sender, m.receiver, m.size_class)
        for m in result.messages
    )
    _write_csv(outdir / "messages.csv", "sent_at,deliver_at,kind,sender,receiver,size_class\r\n", lines)

    payload = json.dumps(result.metrics, sort_keys=True, indent=2) + "\n"
    (outdir / "metrics.json").write_bytes(payload.encode())


def write_sweep_csv(rows: List[Dict], path: Path) -> None:
    lines = ("%.6g,%.6g,%d\r\n" % (r["lambda"], r["v_final"], r["n_comm"]) for r in rows)
    _write_csv(path, "lambda,V_final,N_comm\r\n", lines)


def write_compare_csv(rows: List[Dict], path: Path) -> None:
    keys = [k for v in COMPARE_VARIANTS for k in (f"ncomm_{v}", f"v_{v}")]
    fmt = "%d.%09d" + ",%d,%.6g" * len(COMPARE_VARIANTS) + "\r\n"
    lines = (fmt % (r["t_ns"] // NS, r["t_ns"] % NS, *[r[k] for k in keys]) for r in rows)
    _write_csv(path, ",".join(["t", *keys]) + "\r\n", lines)
