"""Benchmark workloads: how each is configured, run, written and checked.

Every workload drives the public API the CLI uses (``config.bundled_config``
and ``with_overrides``, ``engine.run``, ``engine.write_outputs``,
``engine.sweep_lambda``). ttlab is imported lazily so that the caller decides
which source tree is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from hostspeed import RUN, WRITE, HostClock

DEFAULT_SEED = 20260819
# The CLI's default tightness grid (ttlab.cli.DEFAULT_GRID).
SWEEP_GRID = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0)
RUN_FILES = ("metrics.json", "lyapunov.csv", "messages.csv", "trace.csv")
GOLDEN_PATH = Path(__file__).with_name("golden.json")
# Each sample writes the outputs again and again for at least this long: one
# write takes from a tenth of a millisecond to a tenth of a second, and a
# single one is too short to time steadily.
WRITE_MIN_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    duration: float
    why: str
    law: Optional[str] = None
    tightness: Optional[float] = None
    # Whether the benchmark seed becomes the channel seed. The other
    # workloads run on an ideal channel, so their inputs are the same for
    # every seed and their outputs are checked against frozen digests.
    seeded: bool = False
    sweep: bool = False
    # A seeded workload's iterations cycle through this many channel seeds,
    # starting at the benchmark seed: the cost of one channel draw differs
    # from another's by several per cent, so a run should not rest on one.
    channel_seeds: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "team",
            "formation4",
            3.0,
            "reference team-law study on an ideal channel; the per-tick control, monitor and record path dominates",
            law="team",
            tightness=0.1,
        ),
        Workload(
            "lambda0",
            "formation4",
            0.16,
            "tightness 0: promises are points, so breaches and rescans never stop; the trigger scan takes nearly all the time",
            law="team",
            tightness=0.0,
        ),
        Workload(
            "robust",
            "formation4_robust",
            5.0,
            "robust-team law on a lossy, delayed, noisy channel seeded by --seed: many promises in flight, containment scan",
            law="robust-team",
            seeded=True,
            channel_seeds=4,
        ),
        Workload(
            "sweep",
            "formation4",
            1.0,
            "sweep_lambda over the CLI's 11-point grid in a process pool: the only cross-process orchestration",
            sweep=True,
        ),
    )
}


@dataclass
class Sample:
    """One iteration of a workload: timings, output digests, problems found.

    ``sim_s`` and ``write_s`` are host seconds; ``sim_ref_s`` and
    ``write_ref_s`` the same in reference seconds (hostspeed.py), when the
    iteration ran with a sampling clock."""

    sim_s: float
    write_s: float
    digests: Dict[str, str]
    rows: Optional[List[list]] = None
    point_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    sim_ref_s: Optional[float] = None
    write_ref_s: Optional[float] = None
    run_kernel_ms: List[float] = field(default_factory=list)
    write_kernel_ms: List[float] = field(default_factory=list)


def iteration_seeds(w: Workload, seed: int) -> List[int]:
    """The seeds a run's iterations cycle through."""
    return [seed + k for k in range(w.channel_seeds)]


def make_config(w: Workload, seed: int):
    from ttlab.config import bundled_config, with_overrides

    return with_overrides(
        bundled_config(w.scenario),
        seed=seed if w.seeded else None,
        law=w.law,
        duration=w.duration,
        tightness=w.tightness,
    )


def _digests(outdir: Path, names) -> Dict[str, str]:
    return {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest() for n in names}


def _write(sample: Sample, timed: bool, files: List[Path], write, *args) -> None:
    """Write the outputs; store the time of one write.

    Timed, the write repeats for at least WRITE_MIN_S and the median time
    counts: the file system stalls a write now and then, most of all the
    many small ones. Each write is scaled by the kernel runs nearest to it
    (the last before it and those during it), since the host can change
    speed within the repeats. Each repeat first removes the files the last
    one made, outside the timing, so that every write creates its files as
    a user's run does: rewriting a file in place costs several times as
    much, and varies far more.
    """
    times: List[float] = []
    refs: List[float] = []
    with HostClock(WRITE if timed else None) as clock:
        t_end = time.perf_counter() + (WRITE_MIN_S if timed else 0.0)
        while not times or time.perf_counter() < t_end:
            for f in files:
                f.unlink(missing_ok=True)
            since, spent, t0 = len(clock.kernel_ms) - 1, clock.spent, time.perf_counter()
            write(*args)
            times.append(time.perf_counter() - t0 - (clock.spent - spent))
            if timed:
                refs.append(clock.ref(times[-1], since))
    sample.write_s = statistics.median(times)
    if timed:
        sample.write_ref_s = statistics.median(refs)
        sample.write_kernel_ms = clock.kernel_ms


def run_once(w: Workload, cfg, outdir: Path, serial_points: bool = False, timed: bool = False) -> Sample:
    """Run the workload once, write its outputs and digest them.

    ``serial_points`` runs each sweep point alone in this process, so that a
    tracer sees its work and each point can be timed on its own.
    ``timed`` makes the iteration an end-to-end measurement: the host-speed
    sampling clock times the run and the writes, and the writes repeat. A
    traced run must not use it, or the kernel's time would land in the
    traced functions' self time.
    """
    from ttlab import engine

    outdir.mkdir(parents=True, exist_ok=True)
    sample = Sample(0.0, 0.0, {})
    with HostClock(RUN if timed else None) as clock:
        try:
            if not w.sweep:
                result = engine.run(cfg)
            elif serial_points:
                rows = []
                for lam in SWEEP_GRID:
                    p0 = time.perf_counter()
                    rows += engine.sweep_lambda(cfg, [lam])
                    sample.point_s.append(time.perf_counter() - p0)
            else:
                rows = engine.sweep_lambda(cfg, list(SWEEP_GRID), parallel=True)
        except engine.EngineInvariantError as e:
            sample.problems.append(f"EngineInvariantError: {e}")
    sample.sim_s = clock.net_s
    if timed:
        sample.sim_ref_s = clock.ref_s
        sample.run_kernel_ms = clock.kernel_ms
    if sample.problems:
        return sample
    if w.sweep:
        _write(sample, timed, [outdir / "sweep.csv"], engine.write_sweep_csv, rows, outdir / "sweep.csv")
        sample.digests = _digests(outdir, ["sweep.csv"])
        sample.rows = [[r["lambda"], r["v_final"], r["n_comm"]] for r in rows]
    else:
        _write(sample, timed, [outdir / f for f in RUN_FILES], engine.write_outputs, result, outdir)
        sample.digests = _digests(outdir, RUN_FILES)
        sample.problems = invariant_problems(w, result.metrics, result.v_series)
    return sample


def invariant_problems(w: Workload, metrics: Dict, v_series: List[float]) -> List[str]:
    """Invariants every run must satisfy, whatever its seed."""
    problems = []
    if metrics["containment_violations"] != 0:
        problems.append(f"{metrics['containment_violations']} containment violations")
    if w.law == "robust-team" and metrics["n_warn_bits"] != metrics["n_breaches"]:
        problems.append(f"n_warn_bits {metrics['n_warn_bits']} != n_breaches {metrics['n_breaches']}")
    rises = sum(1 for a, b in zip(v_series, v_series[1:]) if b > a)
    if rises:
        problems.append(f"v_series rises {rises} times")
    return problems


def load_golden() -> Dict:
    return json.loads(GOLDEN_PATH.read_text())


def check(w: Workload, seed: int, sample: Sample, golden: Dict, reference: Optional[Sample]) -> List[str]:
    """Every problem with one sample: invariants, frozen digests at the
    default inputs, and equality with the first sample of the same run."""
    problems = list(sample.problems)
    if problems:
        return problems
    if not w.seeded or seed == DEFAULT_SEED:
        want = golden[w.name]
        if sample.digests != want["digests"]:
            problems.append(f"digests differ from golden: {sample.digests}")
        if w.sweep and sample.rows != want["rows"]:
            problems.append(f"sweep rows differ from golden: {sample.rows}")
    if reference is not None and sample.digests != reference.digests:
        problems.append("outputs differ from the first run of this process")
    return problems
