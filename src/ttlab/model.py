"""Core types and kinematics for planar unicycle teams.

Positions live in R^2, headings on (-pi, pi]. Controls are (speed, turn rate)
pairs bounded by per-scenario limits. The formation objective is the usual
squared-distance-error potential summed over the communication edges.
arc_step is the one constant-control arc: agents move on it, with the
heading wrapped after each step, and a promise disk's centre is the anchor
pose carried along it (promises.disk_kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Below this turn rate the circular arc degenerates to a straight line.
ARC_EPS = 1e-9

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    w = theta % TWO_PI  # [0, 2*pi)
    if w > math.pi:
        w -= TWO_PI
    return w


@dataclass(frozen=True)
class Limits:
    """Actuation bounds shared by every agent in a scenario."""

    max_speed: float
    max_turn: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.max_speed) and self.max_speed > 0.0):
            raise ValueError(f"max_speed must be finite and positive, got {self.max_speed}")
        if not (math.isfinite(self.max_turn) and self.max_turn > 0.0):
            raise ValueError(f"max_turn must be finite and positive, got {self.max_turn}")


@dataclass(frozen=True)
class UnicycleState:
    """Pose of one agent. The heading is normalized at construction."""

    x: float
    y: float
    heading: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise ValueError("state components must be finite")
        object.__setattr__(self, "heading", wrap_angle(self.heading))


class CommGraph:
    """Undirected communication graph on agents 0..n-1.

    Edges are stored as sorted pairs; self loops are rejected and symmetry is
    implicit. Neighbor lists are precomputed and returned as tuples.
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n < 1:
            raise ValueError("need at least one agent")
        self.n = n
        seen = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self loop on agent {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) outside agent range 0..{n - 1}")
            seen.add((min(i, j), max(i, j)))
        self.edges: Tuple[Tuple[int, int], ...] = tuple(sorted(seen))
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        self._neighbors = tuple(tuple(sorted(v)) for v in nbrs)

    def neighbors(self, i: int) -> Tuple[int, ...]:
        return self._neighbors[i]


@dataclass(frozen=True)
class DiskSet:
    """A closed disk, used for promise sets."""

    center: Tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0 or not math.isfinite(self.radius):
            raise ValueError(f"radius must be finite and >= 0, got {self.radius}")

    def contains(self, point: Tuple[float, float], tol: float = 0.0) -> bool:
        dx = point[0] - self.center[0]
        dy = point[1] - self.center[1]
        return math.hypot(dx, dy) <= self.radius + tol


class FormationSpec:
    """Target inter-agent distances per edge plus the controller gain."""

    def __init__(self, distances: Dict[Tuple[int, int], float], gain: float):
        if not (math.isfinite(gain) and gain > 0.0):
            raise ValueError(f"gain must be finite and positive, got {gain}")
        self.gain = gain
        norm: Dict[Tuple[int, int], float] = {}
        for (i, j), d in distances.items():
            if i == j:
                raise ValueError(f"distance.{i}-{j} names a self pair")
            if not (math.isfinite(d) and d > 0.0):
                raise ValueError(f"distance.{i}-{j} must be finite and positive, got {d}")
            key = (min(i, j), max(i, j))
            if key in norm and norm[key] != d:
                raise ValueError(f"conflicting distances for edge {key}")
            norm[key] = d
        self._dist = norm
        self._sq_edges: Optional[Tuple[Tuple[int, int], ...]] = None
        self._sq: List[float] = []

    def distance(self, i: int, j: int) -> float:
        return self._dist[(min(i, j), max(i, j))]

    def squared(self, edges: Tuple[Tuple[int, int], ...]) -> List[float]:
        """d_ij ** 2 for each of `edges`, computed on the first call for them. Not at
        construction: a square that overflows must raise where validate_config
        evaluates the potential, so that it can name the distance."""
        if self._sq_edges is not edges:
            self._sq_edges, self._sq = edges, [self.distance(i, j) ** 2 for i, j in edges]
        return self._sq

    def uncovered(self, graph: CommGraph) -> List[Tuple[int, int]]:
        """The graph edges that have no target distance."""
        return [e for e in graph.edges if e not in self._dist]


def arc_step(
    x: float, y: float, heading: float, speed: float, turn: float, dt,
    sin=math.sin, cos=math.cos,
):
    """Exact constant-control unicycle step: the one arc formula.

    Agent motion calls it on floats: the engine's step and the trigger
    scan's rollout and refinement, each wrapping the returned heading with
    wrap_angle. The promise disk's centre is the same arc at the disk's
    age: promises.disk_kernel passes numpy's sin and cos with an array of
    ages for the trigger scan, which agree with libm bit for bit.
    """
    if abs(turn) > ARC_EPS:
        th1 = heading + turn * dt
        k = speed / turn
        return (
            x + k * (sin(th1) - sin(heading)),
            y - k * (cos(th1) - cos(heading)),
            th1,
        )
    return (
        x + speed * dt * cos(heading),
        y + speed * dt * sin(heading),
        heading + turn * dt,
    )


def lyapunov(states: Sequence, spec: FormationSpec, graph: CommGraph) -> float:
    """Formation potential: sum over edges of (||xj - xi||^2 - d_ij^2)^2.

    Only the positions `.x` and `.y` of each state are read, so any object
    with them will do (the engine passes its agents). Headings do not
    enter; the potential is zero exactly when every edge is at its target
    length.
    """
    total = 0.0
    for (i, j), d2 in zip(graph.edges, spec.squared(graph.edges)):
        dx = states[j].x - states[i].x
        dy = states[j].y - states[i].y
        err = dx * dx + dy * dy - d2
        total += err * err
    return total
