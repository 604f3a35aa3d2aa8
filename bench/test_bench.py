"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import signal
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Hook, Tracer  # noqa: E402


def _bindings(package: str):
    """Identity of every attribute of the package's modules and classes."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, val in vars(mod).items():
            snap[(name, attr)] = id(val)
            if isinstance(val, type):
                for k, v in vars(val).items():
                    snap[(name, attr, k)] = id(v)
    return snap


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "sim_s", "write_s", "peak_rss_mb"}


def test_tracer_restores_every_binding():
    import ttlab.engine  # noqa: F401

    before = _bindings("ttlab")
    counts = run.LayerCounts()
    with pytest.raises(RuntimeError):
        with Tracer(counts.hooks()) as tracer:
            assert tracer.stats
            assert _bindings("ttlab") != before
            raise RuntimeError("leaving the block by an exception")
    assert _bindings("ttlab") == before


def test_absent_hooks_are_reported_not_raised():
    hooks = [
        Hook("ttlab.engine:Engine._no_such_stage"),
        Hook("ttlab.no_such_module:f"),
        Hook("ttlab.engine:no_such_function"),
        Hook("ttlab.model:lyapunov"),
    ]
    with Tracer(hooks) as tracer:
        pass
    assert tracer.absent == [h.target for h in hooks[:3]]
    assert list(tracer.stats) == ["ttlab.model:lyapunov"]


def test_self_time_and_spans_nest():
    toy = types.ModuleType("toypkg")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.01)\n    return 1\n"
        "def outer():\n    return inner() + inner()\n",
        toy.__dict__,
    )
    sys.modules["toypkg"] = toy
    try:
        hooks = [Hook("toypkg:outer", span=True), Hook("toypkg:inner", span=True)]
        with Tracer(hooks, package="toypkg") as tracer:
            assert toy.outer() == 2
        assert toy.outer.__name__ == "outer" and not hasattr(toy.outer, "__wrapped__")
    finally:
        del sys.modules["toypkg"]
    outer, inner = tracer.stats["toypkg:outer"], tracer.stats["toypkg:inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    assert outer.self_s < outer.total_s - inner.total_s + 1e-9
    assert inner.self_s == pytest.approx(inner.total_s)
    by_name = {}
    for sid, parent, name, t0, t1 in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent))
    (outer_id, outer_parent), = by_name["toypkg:outer"]
    assert outer_parent is None
    assert [p for _, p in by_name["toypkg:inner"]] == [outer_id, outer_id]


def test_host_clock_subtracts_its_kernel_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock(hostspeed.RUN) as clock:
        time.sleep(0.2)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one kernel run before, one after, and some while the block ran
    assert len(clock.kernel_ms) >= 4
    assert 0 < clock.net_s < clock.host_s
    assert clock.ref_s == pytest.approx(
        clock.net_s * hostspeed.RUN.reference_ms / (sum(clock.kernel_ms) / len(clock.kernel_ms))
    )


def test_check_rejects_changed_outputs():
    golden = wl.load_golden()
    w = wl.WORKLOADS["team"]
    good = wl.Sample(1.0, 0.1, dict(golden["team"]["digests"]))
    assert wl.check(w, 1, good, golden, None) == []
    bad = wl.Sample(1.0, 0.1, dict(good.digests, **{"trace.csv": "0" * 64}))
    assert wl.check(w, 1, bad, golden, None)
    assert wl.check(w, 1, good, golden, bad)


@pytest.mark.parametrize(
    "workload,seed",
    [
        (wl.WORKLOADS["lambda0"], wl.DEFAULT_SEED),
        # A short robust run off the default seed: checked by invariants.
        (replace(wl.WORKLOADS["robust"], duration=2.0), 7),
    ],
    ids=["lambda0", "robust-short"],
)
def test_traced_counts_repeat_exactly(workload, seed, tmp_path):
    results = [run.trace(workload, seed, tmp_path / str(k)) for k in range(2)]
    for res in results:
        assert res["failed"] == 0, res["failures"]
        assert res["absent"] == []
    counted = [n for n, unit in run.per_layer_names() if unit in ("count", "ratio", "B")]
    first, second = ({n: r["metrics"][n]["value"] for n in counted} for r in results)
    assert first == second
    assert first["triggers.critical_time_ns.calls"] > 0
