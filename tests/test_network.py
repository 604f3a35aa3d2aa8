import math

import pytest

from ttlab.model import Limits
from ttlab.network import Channel, NetworkParams, SplitMix64, mix64, stream_state

LIM = Limits(5.0, 3.0)


def _wire(speed=2.0, turn=1.0, radius=1.0):
    return (0, 0.5, 6.0, 10.0, 1.5707963267948966, speed, turn, radius, None, None)


def test_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(drop_prob=1.0)
    with pytest.raises(ValueError):
        NetworkParams(drop_prob=-0.1)
    with pytest.raises(ValueError):
        NetworkParams(max_delay=-1.0)
    with pytest.raises(ValueError):
        NetworkParams(noise_bound=math.inf)
    assert NetworkParams().ideal
    assert not NetworkParams(drop_prob=0.3).ideal


def test_mix64_reference_values():
    """First outputs of the splitmix64 sequence from seed 1234567.

    Reference values computed from the published algorithm (Steele et al.),
    also reproduced by the C snippet on the PRNG shootout page.
    """
    g = SplitMix64(1234567)
    assert g.next_u64() == 6457827717110365317
    assert g.next_u64() == 3203168211198807973
    assert mix64(0) == 0


def test_uniform_in_unit_interval():
    g = SplitMix64(42)
    for _ in range(1000):
        u = g.uniform()
        assert 0.0 <= u < 1.0


def test_stream_state_sensitivity():
    base = stream_state(7, 0, 1, 0)
    assert stream_state(7, 0, 1, 1) != base
    assert stream_state(7, 1, 0, 0) != base
    assert stream_state(8, 0, 1, 0) != base


def test_transmit_deterministic_per_sequence():
    """Message fate is a pure function of (seed, sender, receiver, seq)."""
    p = NetworkParams(drop_prob=0.3, max_delay=0.05, noise_bound=0.01,
                      radius_noise_bound=0.001, seed=99)
    a = Channel(p, LIM)
    b = Channel(p, LIM)
    for _ in range(50):
        ra = a.transmit(0, 1, _wire())
        rb = b.transmit(0, 1, _wire())
        assert ra == rb


def test_pairs_use_independent_streams():
    """Traffic on one ordered pair never shifts another pair's randomness."""
    p = NetworkParams(drop_prob=0.3, max_delay=0.05, seed=5)
    a = Channel(p, LIM)
    b = Channel(p, LIM)
    # channel a interleaves heavy traffic on (1, 0)
    for _ in range(20):
        a.transmit(1, 0, _wire())
    ra = [a.transmit(0, 1, _wire()) for _ in range(20)]
    rb = [b.transmit(0, 1, _wire()) for _ in range(20)]
    assert ra == rb


def test_draw_layout_fixed_across_parameters():
    """Turning a parameter on must not reshuffle the others' draws."""
    quiet = NetworkParams(drop_prob=0.0, max_delay=0.05, seed=31)
    lossy = NetworkParams(drop_prob=0.4, max_delay=0.05, seed=31)
    a = Channel(quiet, LIM)
    b = Channel(lossy, LIM)
    for _ in range(200):
        ra = a.transmit(0, 1, _wire())
        rb = b.transmit(0, 1, _wire())
        if rb.delivered:
            assert rb.delay == ra.delay


def test_drop_rate_matches_probability():
    p = NetworkParams(drop_prob=0.3, seed=17)
    ch = Channel(p, LIM)
    n = 4000
    dropped = sum(1 for _ in range(n) if not ch.transmit(0, 1, _wire()).delivered)
    rate = dropped / n
    # ~4 sigma band around 0.3 for n = 4000
    assert abs(rate - 0.3) < 0.03


def test_delay_bounds_and_distribution():
    p = NetworkParams(max_delay=0.05, seed=23)
    ch = Channel(p, LIM)
    delays = [ch.transmit(0, 1, _wire()).delay for _ in range(2000)]
    assert all(0.0 <= d <= 0.05 for d in delays)
    assert max(delays) > 0.045  # the upper region is actually reached
    mean = sum(delays) / len(delays)
    assert abs(mean - 0.025) < 0.002


def test_noise_bounds_and_clamps():
    p = NetworkParams(noise_bound=0.01, radius_noise_bound=0.001, seed=3)
    ch = Channel(p, LIM)
    for _ in range(2000):
        res = ch.transmit(0, 1, _wire(speed=5.0, turn=-3.0, radius=0.0005))
        (_, issued_at, ax, ay, heading, speed, turn, radius, _, _) = res.wire
        assert math.hypot(ax - 6.0, ay - 10.0) <= 0.01 + 1e-12
        assert heading == 1.5707963267948966  # heading is never perturbed
        assert issued_at == 0.5  # timestamps are never perturbed
        assert 0.0 <= speed <= LIM.max_speed
        assert abs(turn) <= LIM.max_turn
        assert radius >= 0.0
        assert abs(radius - 0.0005) <= 0.001 + 1e-12


def test_ideal_channel_passes_wire_through():
    ch = Channel(NetworkParams(), LIM)
    w = _wire()
    res = ch.transmit(0, 1, w)
    assert res.delivered and res.delay == 0.0 and res.wire is w
