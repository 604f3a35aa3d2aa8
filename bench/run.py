"""ttlab benchmark: end-to-end metrics per workload, or per-layer costs traced.

Usage, from the root of a checkout (no install needed, ttlab is imported
from ``src/``):

    python3 bench/run.py --workload team --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload robust --trace 1 --spans spans.json
    python3 bench/run.py --workload all --out results.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones; see
bench/README.md for what each means.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from hostspeed import calibrate, calibrated_s  # noqa: E402
from tracer import Hook, Tracer  # noqa: E402

SETUP_SAMPLES = 12

# Run in a fresh interpreter: import the package the way the CLI does, then
# load and validate the workload's scenario. Prints the set-up time and the
# calibration loop's times before and after it.
SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import hostspeed
c0 = hostspeed.calibrate()
t0 = time.perf_counter()
import ttlab.config, ttlab.engine
import workloads
workloads.make_config(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]))
t = time.perf_counter() - t0
print(t, c0, hostspeed.calibrate())
"""


def host_context() -> Dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def setup_seconds(name: str, seed: int) -> tuple:
    """Host seconds of one set-up, and the same in reference seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    t, c0, c1 = map(float, proc.stdout.split()[-3:])
    return t, calibrated_s(t, c0, c1)


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def spread(xs: List[float], values: bool = True) -> Dict:
    out = {"n": len(xs), "median": statistics.median(xs), "min": min(xs), "max": max(xs)}
    return dict(out, values=xs) if values else out


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics


def measure(w: wl.Workload, seed: int, seconds: float, work: Path) -> Dict:
    """Repeat the workload for `seconds`, with the set-up samples spread
    evenly between its iterations: the host's speed drifts within a run,
    and samples bunched at one end would see only part of that drift.

    The times are medians in reference seconds (hostspeed.py): the run and
    the writes are scaled by the kernel sampled while they ran, a set-up by
    the calibration loop timed around it. The host times are kept in the
    record."""
    seeds = wl.iteration_seeds(w, seed)
    cfgs = [wl.make_config(w, sd) for sd in seeds]
    firsts: Dict[int, wl.Sample] = {}
    golden = wl.load_golden()
    samples: List[wl.Sample] = []
    failures: List[str] = []
    setup: List[tuple] = []
    children_rss = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        k = (len(samples) + len(failures)) % len(seeds)
        try:
            s = wl.run_once(w, cfgs[k], work / "out", timed=True)
        except Exception as e:  # a crash is a failed run, never a skipped one
            failures.append(f"{type(e).__name__}: {e}")
            s = None
        if s is not None:
            problems = wl.check(w, seeds[k], s, golden, firsts.get(seeds[k]))
            if problems:
                failures.append("; ".join(problems))
            else:
                samples.append(s)
                firsts.setdefault(seeds[k], s)
        if not setup:
            # Before any set-up child exists, so only pool workers count.
            children_rss = peak_rss_mb(include_children=w.sweep)
        now = time.perf_counter()
        while len(setup) < SETUP_SAMPLES * min(1.0, (now - start) / seconds):
            setup.append(setup_seconds(w.name, seed))
            now = time.perf_counter()
        attempted = len(samples) + len(failures)
        if now + (now - start) / attempted > deadline:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(w.name, seed))
    metrics = {"setup_s": metric(statistics.median(ref for _, ref in setup), "s")}
    record = {
        "setup_s": spread([ref for _, ref in setup]),
        "setup_host_s": spread([t for t, _ in setup]),
    }
    if samples:
        metrics["sim_s"] = metric(statistics.median(s.sim_ref_s for s in samples), "s")
        metrics["write_s"] = metric(statistics.median(s.write_ref_s for s in samples), "s")
        metrics["peak_rss_mb"] = metric(max(children_rss, peak_rss_mb(False)), "MB")
        record.update(
            sim_s=spread([s.sim_ref_s for s in samples]),
            write_s=spread([s.write_ref_s for s in samples]),
            sim_host_s=spread([s.sim_s for s in samples]),
            write_host_s=spread([s.write_s for s in samples]),
            run_kernel_ms=spread([k for s in samples for k in s.run_kernel_ms], values=False),
            write_kernel_ms=spread([k for s in samples for k in s.write_kernel_ms], values=False),
        )
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "samples": record,
    }


# ----------------------------------------------------------------------
# traced run: per-layer metrics

# (hook target, metric fields, span?)
LAYER_HOOKS = (
    ("ttlab.triggers:critical_time_ns", ("calls", "self_s", "p50_ms", "p99_ms"), True),
    ("ttlab.triggers:disk_sup_batch", ("calls", "self_s"), False),
    ("ttlab.triggers:disk_params_batch", ("calls", "self_s"), False),
    ("ttlab.controllers:u_double_star", ("calls", "self_s"), False),
    ("ttlab.promises:check_breach", ("calls", "self_s"), False),
    ("ttlab.promises:view_disk_at", ("calls", "self_s"), False),
    ("ttlab.promises:make_promise", ("calls",), False),
    ("ttlab.promises:promise_from_wire", ("calls",), False),
    ("ttlab.promises:validate_noisy_promise", ("calls",), False),
    ("ttlab.model:lyapunov", ("calls", "self_s"), False),
    ("ttlab.model:arc_step", ("calls", "self_s"), False),
    ("ttlab.network:Channel.transmit", ("calls", "self_s"), False),
    ("ttlab.engine:Engine._tick", ("calls", "self_s"), False),
    ("ttlab.engine:Engine._apply_mode_control", ("calls", "self_s"), False),
    ("ttlab.engine:Engine._monitor", ("calls", "self_s"), False),
    ("ttlab.engine:Engine._record", ("calls", "self_s"), False),
    ("ttlab.engine:Engine._resolve", ("calls", "self_s"), True),
    ("ttlab.engine:Engine._drain_promises", ("calls", "self_s"), True),
    ("ttlab.engine:Engine._warn", ("calls", "self_s"), True),
    ("ttlab.engine:write_outputs", (), True),
    ("ttlab.engine:write_sweep_csv", (), True),
    ("ttlab.engine:run", (), True),
    ("ttlab.engine:sweep_lambda", (), True),
)
DERIVED = (
    ("triggers.scan_points", "count"),
    ("triggers.refine_evals", "count"),
    ("triggers.scan_useful_ratio", "ratio"),
    ("promises.breach_ratio", "ratio"),
    ("network.drop_ratio", "ratio"),
    ("engine.write_outputs.self_s", "s"),
    ("engine.write_outputs.bytes", "B"),
    ("sweep.point_s.max", "s"),
    ("sweep.point_s.sum", "s"),
    ("sweep.workers", "count"),
    ("trace.overhead_s", "s"),
)
FIELD_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "p99_ms": "ms"}


def metric_prefix(target: str) -> str:
    mod, _, attr = target.partition(":")
    return f"{mod.rsplit('.', 1)[-1]}.{attr}"


def per_layer_names() -> List[tuple]:
    """(name, unit) of every per-layer metric, in output order."""
    names = [
        (f"{metric_prefix(t)}.{f}", FIELD_UNITS[f]) for t, fields, _ in LAYER_HOOKS for f in fields
    ]
    return names + list(DERIVED)


class LayerCounts:
    """Counts gathered by the hooks' observers."""

    def __init__(self) -> None:
        self.scan_points = 0
        self.refine_evals = 0
        self.useful_rows = 0
        self.breaches = 0
        self.drops = 0
        from ttlab import triggers

        scan = getattr(triggers, "critical_time_ns", None)
        self._ct_sig = inspect.signature(scan) if scan is not None else None

    def on_disk_sup(self, args, kwargs, result) -> None:
        rows = len(result)
        if rows == 1:
            self.refine_evals += 1
        else:
            self.scan_points += rows

    def on_critical_time(self, args, kwargs, result) -> None:
        # Grid points the scan needed: t_last, then the tick grid up to t*.
        if self._ct_sig is None:
            return
        b = self._ct_sig.bind(*args, **kwargs)
        b.apply_defaults()
        t_last, dt, view = (b.arguments.get(k) for k in ("t_last_ns", "dt_ns", "view"))
        if t_last is None or dt is None or view is None:
            return  # the signature changed; scan_useful_ratio reads 0
        t_star = result[0]
        rem = t_last % dt
        first = t_last + (dt - rem if rem else dt)
        upto = 1 + (0 if t_star < first else (t_star - first) // dt + 1)
        self.useful_rows += upto * len(view)

    def on_breach(self, args, kwargs, result) -> None:
        self.breaches += bool(result)

    def on_transmit(self, args, kwargs, result) -> None:
        self.drops += not result.delivered

    def hooks(self) -> List[Hook]:
        observers = {
            "ttlab.triggers:disk_sup_batch": self.on_disk_sup,
            "ttlab.triggers:critical_time_ns": self.on_critical_time,
            "ttlab.promises:check_breach": self.on_breach,
            "ttlab.network:Channel.transmit": self.on_transmit,
        }
        return [
            Hook(t, span=span, durations="p50_ms" in fields, observe=observers.get(t))
            for t, fields, span in LAYER_HOOKS
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(durations: List[float], p: int) -> float:
    if len(durations) < 2:
        return 1e3 * sum(durations)
    return 1e3 * statistics.quantiles(durations, n=100)[p - 1]


def _checked_run(w: wl.Workload, seed: int, cfg, outdir: Path, golden: Dict, reference):
    """One sweep-serial run and its problems; a crash is a problem too."""
    try:
        s = wl.run_once(w, cfg, outdir, serial_points=True)
    except Exception as e:
        return None, [f"{type(e).__name__}: {e}"]
    return s, wl.check(w, seed, s, golden, reference)


def trace(w: wl.Workload, seed: int, work: Path) -> Dict:
    """An untraced run, then a traced one whose outputs must be identical."""
    cfg = wl.make_config(w, seed)
    golden = wl.load_golden()
    plain, plain_problems = _checked_run(w, seed, cfg, work / "plain", golden, None)
    counts = LayerCounts()
    with Tracer(counts.hooks()) as tracer:
        traced, traced_problems = _checked_run(w, seed, cfg, work / "traced", golden, plain)
    failures = plain_problems + traced_problems
    failed = bool(plain_problems) + bool(traced_problems)
    if plain is None or traced is None:
        return {"attempted": 2, "failed": failed, "failures": failures, "metrics": {}}

    metrics: Dict[str, Dict] = {}
    for target, fields, _ in LAYER_HOOKS:
        st = tracer.stats.get(target)
        for f in fields:
            if st is None:
                value = 0.0
            elif f == "calls":
                value = st.calls
            elif f == "self_s":
                value = st.self_s
            else:
                value = _percentile_ms(st.durations, 50 if f == "p50_ms" else 99)
            metrics[f"{metric_prefix(target)}.{f}"] = metric(value, FIELD_UNITS[f])
    calls = {t: s.calls for t, s in tracer.stats.items()}
    # The sweep writes sweep.csv instead; its writer stands in.
    writers = [
        tracer.stats[t]
        for t in ("ttlab.engine:write_outputs", "ttlab.engine:write_sweep_csv")
        if t in tracer.stats
    ]
    written = sum(p.stat().st_size for p in (work / "traced").iterdir())
    derived = {
        "triggers.scan_points": counts.scan_points,
        "triggers.refine_evals": counts.refine_evals,
        "triggers.scan_useful_ratio": _ratio(counts.useful_rows, counts.scan_points),
        "promises.breach_ratio": _ratio(counts.breaches, calls.get("ttlab.promises:check_breach", 0)),
        "network.drop_ratio": _ratio(counts.drops, calls.get("ttlab.network:Channel.transmit", 0)),
        "engine.write_outputs.self_s": _ratio(sum(st.self_s for st in writers), sum(st.calls for st in writers)),
        "engine.write_outputs.bytes": written,
        "sweep.point_s.max": max(traced.point_s, default=0.0),
        "sweep.point_s.sum": sum(traced.point_s),
        "sweep.workers": min(os.cpu_count() or 1, len(wl.SWEEP_GRID)) if w.sweep else 0,
        "trace.overhead_s": traced.sim_s - plain.sim_s,
    }
    for name, unit in DERIVED:
        metrics[name] = metric(derived[name], unit)
    t_base = min((s[3] for s in tracer.spans), default=0.0)
    return {
        "attempted": 2,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "absent": tracer.absent,
        "layers": {
            t: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for t, s in tracer.stats.items()
        },
        "untraced_sim_s": plain.sim_s,
        "traced_sim_s": traced.sim_s,
        "spans": [[sid, parent, name, t0 - t_base, t1 - t_base] for sid, parent, name, t0, t1 in sorted(tracer.spans)],
    }


# ----------------------------------------------------------------------
# entry point


def run_workload(args) -> int:
    w = wl.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    cal_before = calibrate()
    try:
        if args.trace:
            res = trace(w, args.seed, work)
        else:
            res = measure(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cal_after = calibrate()
    spans = res.pop("spans", None)
    if args.spans and spans is not None:
        Path(args.spans).write_text(json.dumps({"workload": w.name, "spans": spans}) + "\n")
    record = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": dict(host_context(), calibration_ms=[cal_before, cal_after]),
        "runs_failed_frac": f"{res['failed']}/{res['attempted']}",
        **res,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for failure in res["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"{w.name:8s} {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own process so that peak RSS is its own."""
    records = []
    failed = attempted = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-2]:
            print(line)
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: benchmark process exited with {proc.returncode}", file=sys.stderr)
            return 2
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        record["metrics"] = result["metrics"]
        records.append(record)
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{name:8s} runs_failed_frac {result['failed']}/{result['attempted']}")
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0, help="measurement time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    ap.add_argument("--out", help="write the full record (host context, samples, layers) here")
    ap.add_argument("--spans", help="traced run: write the span list here")
    args = ap.parse_args(argv)
    if not (SRC / "ttlab" / "__init__.py").is_file():
        print(f"error: no ttlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
