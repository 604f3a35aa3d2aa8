"""Lossy promise channel with reproducible per-message randomness.

Promise payloads may be dropped, delayed, and perturbed; warning and request
bits are reliable and instantaneous and never touch this module's random
streams. Randomness comes from splitmix64 streams keyed by (seed, sender,
receiver, per-pair sequence number), so any message's fate is a pure function
of the run seed and its coordinates, independent of global draw order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .model import Limits

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def stream_state(seed: int, *keys: int) -> int:
    """Fold integer keys into a seed, one mix per key."""
    h = seed & _MASK
    for k in keys:
        h = mix64((h + _GOLDEN + (k & _MASK)) & _MASK)
    return h


class SplitMix64:
    """Tiny counter-based generator over the splitmix64 sequence."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class NetworkParams:
    """Channel model: drop probability, delay bound, and noise bounds."""

    drop_prob: float = 0.0
    max_delay: float = 0.0
    noise_bound: float = 0.0
    radius_noise_bound: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.drop_prob < 1.0):
            raise ValueError(f"drop_prob must be in [0, 1), got {self.drop_prob}")
        for name in ("max_delay", "noise_bound", "radius_noise_bound"):
            v = getattr(self, name)
            if v < 0.0 or not math.isfinite(v):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (0 <= self.seed <= _MASK):
            raise ValueError("seed must fit in 64 bits")

    @property
    def ideal(self) -> bool:
        return (
            self.drop_prob == 0.0
            and self.max_delay == 0.0
            and self.noise_bound == 0.0
            and self.radius_noise_bound == 0.0
        )


@dataclass(frozen=True)
class TransmitResult:
    delivered: bool
    delay: float
    wire: Optional[tuple]


class Channel:
    """Stateful per-pair sequence counters over the stream recipe above.

    Every promise transmission consumes exactly seven draws in a fixed
    order (drop, delay, position noise angle and radius, control noise
    angle and radius, radius noise) so parameter changes never shift the
    randomness consumed by later messages on the same pair.
    """

    def __init__(self, params: NetworkParams, limits: Limits):
        self.params = params
        self.limits = limits
        self._seq: Dict[Tuple[int, int], int] = {}

    def transmit(self, sender: int, receiver: int, wire: tuple) -> TransmitResult:
        key = (sender, receiver)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        rng = SplitMix64(stream_state(self.params.seed, sender, receiver, seq))
        u_drop = rng.uniform()
        u_delay = rng.uniform()
        u_pang = rng.uniform()
        u_prad = rng.uniform()
        u_cang = rng.uniform()
        u_crad = rng.uniform()
        u_rn = rng.uniform()
        p = self.params
        if p.drop_prob > 0.0 and u_drop < p.drop_prob:
            return TransmitResult(False, 0.0, None)
        delay = u_delay * p.max_delay
        if p.noise_bound == 0.0 and p.radius_noise_bound == 0.0:
            return TransmitResult(True, delay, wire)
        issuer, issued_at, ax, ay, heading, speed, turn, radius, expires_at, gap = wire
        w = p.noise_bound
        if w > 0.0:
            rho = w * math.sqrt(u_prad)
            phi = 2.0 * math.pi * u_pang
            ax += rho * math.cos(phi)
            ay += rho * math.sin(phi)
            rho = w * math.sqrt(u_crad)
            phi = 2.0 * math.pi * u_cang
            speed = min(max(speed + rho * math.cos(phi), 0.0), self.limits.max_speed)
            turn = min(
                max(turn + rho * math.sin(phi), -self.limits.max_turn), self.limits.max_turn
            )
        if p.radius_noise_bound > 0.0:
            radius = max(radius + (2.0 * u_rn - 1.0) * p.radius_noise_bound, 0.0)
        noisy = (issuer, issued_at, ax, ay, heading, speed, turn, radius, expires_at, gap)
        return TransmitResult(True, delay, noisy)
