"""Each agent's descent certificate, checked against the true positions.

The engine's own in-run check is that the total potential V never rises
(Engine._record). V is a sum over agents, so one agent whose certificate is
unsound could hide behind the others' descent. Up to t*, agent i's
certified rate L_i, li_v_sup over its view disks inflated by the guard
under its nominal control, is negative; and as long as every neighbour's
true position y_j lies in its inflated disk, the true term

    sum_j 4 (||y_j - p||^2 - d_ij^2) ((p - y_j) . f)

cannot exceed L_i (triggers module docstring). These tests check all three
at every recorded tick for every agent not in safe mode.
"""

import math
from types import SimpleNamespace

import pytest

import ttlab.engine as engine_mod
from ttlab.config import bundled_config, with_overrides
from ttlab.model import ControlInput, DiskSet, FormationSpec, Limits, UnicycleState
from ttlab.promises import Promise, PromiseMode, view_disk_at
from ttlab.triggers import li_v_sup

# The GOLDEN runs of tests/test_golden.py: (scenario, overrides).
RUNS = {
    "team": ("formation4", dict(law="team", duration=2.0)),
    "self": ("formation4", dict(law="self", duration=2.0)),
    "lambda0": ("formation4", dict(law="team", tightness=0.0, duration=0.16)),
    "robust": ("formation4_robust", dict(seed=7, duration=3.0)),
}


def check_certificates(eng, ts_ns):
    """Assert the certificate of every agent not in safe mode at ts_ns;
    return the slacks, bound minus true term, one per agent checked."""
    t = ts_ns * 1e-9
    where = f"t={engine_mod._fmt_t(ts_ns)}s"
    slacks = []
    for ag in eng.agents:
        if ag.safe:
            continue
        px, py = ag.x, ag.y
        fx, fy = ag.speed * math.cos(ag.heading), ag.speed * math.sin(ag.heading)
        inflated = {}
        true_rate = 0.0
        for j, p in ag.view.items():
            disk = view_disk_at(p, t)
            y = eng.agents[j]
            assert disk.contains((y.x, y.y), eng.guard), (
                f"agent {ag.id} at {where}: neighbour {j} at ({y.x!r}, {y.y!r}) lies outside"
                f" its view disk {disk.center!r}, radius {disk.radius!r}, plus guard {eng.guard!r}"
            )
            inflated[j] = DiskSet(disk.center, disk.radius + eng.guard)
            dx, dy = px - y.x, py - y.y
            d = eng.spec.distance(ag.id, j)
            true_rate += 4.0 * (dx * dx + dy * dy - d * d) * (dx * fx + dy * fy)
        state = UnicycleState(px, py, ag.heading)
        control = ControlInput(ag.speed, ag.turn, eng.limits)
        bound = li_v_sup(ag.id, state, inflated, control, eng.spec)
        assert bound < 0.0, f"agent {ag.id} at {where}: certified rate {bound!r} is not negative"
        assert true_rate <= bound, (
            f"agent {ag.id} at {where}: true rate {true_rate!r} exceeds certified rate {bound!r}"
        )
        slacks.append(bound - true_rate)
    return slacks


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_certificate_holds_at_every_tick(name, monkeypatch):
    """Every agent's view disks hold its neighbours and its certified rate
    is negative and bounds its true rate, at every tick up to its t*."""
    scenario, overrides = RUNS[name]
    record = engine_mod.Engine._record
    slacks = []

    def checked(self, ts_ns):
        slacks.extend(check_certificates(self, ts_ns))
        return record(self, ts_ns)

    monkeypatch.setattr(engine_mod.Engine, "_record", checked)
    engine_mod.run(with_overrides(bundled_config(scenario), **overrides))
    assert len(slacks) > 100


def _frozen_disk(issuer, center, radius):
    """A fallback promise whose disk at t = 0 is exactly (center, radius)."""
    return Promise(
        issuer=issuer, recipient=0, issued_at=0.0, anchor_state=UnicycleState(*center, 0.0),
        anchor_control=ControlInput(0.0, 0.0, Limits(5.0, 3.0)), radius=0.0,
        mode=PromiseMode.REACHABILITY_FALLBACK, fb_center=center, fb_radius=radius, fb_time=0.0,
    )


def test_a_planted_worst_case_needs_the_bound_pad():
    """A planted view where the disk bound's sampling alone falls short.

    On neighbour 1's disk, g has two boundary maxima of nearly equal
    height. The 64 boundary samples see the lower one best (sample 30,
    102.54), and the Newton steps refine that one (102.55); the true
    supremum, 102.90, lies at the other, about 2.48 samples round, where
    neighbour 1 is planted. Neighbour 2's disk is a point, whose term the
    bound gives exactly, and it makes the certified rate negative. Only
    the bound's pad (0.58 here) keeps the true rate below it: without the
    pad the check fails on the true-rate assertion."""
    limits = Limits(5.0, 3.0)
    agent = SimpleNamespace(
        id=0, safe=False, x=2.0, y=1.0, heading=0.6305, speed=3.6447, turn=0.0,
        view={1: _frozen_disk(1, (0.3425, 2.1156), 1.7594), 2: _frozen_disk(2, (3.777, 2.297), 0.0)},
    )
    # Parked neighbours: in safe mode, so only agent 0 is checked.
    neighbours = [
        SimpleNamespace(safe=True, x=2.05004, y=2.53960), SimpleNamespace(safe=True, x=3.777, y=2.297)
    ]
    eng = SimpleNamespace(
        agents=[agent, *neighbours], guard=0.0, limits=limits,
        spec=FormationSpec({(0, 1): 3.1333, (0, 2): 1.0}, 150.0),
    )
    (slack,) = check_certificates(eng, 0)
    assert 0.0 <= slack < 0.3
