"""Alternating before/after benchmark pairs, summarised into one JSON file.

Usage, with two checkouts (say the parent commit and the change):

    python3 tools/bench_pairs.py --before ../parent --after . --pairs 10 \
        --seconds 15 --out BENCH_7.json

For each workload, each pair runs ``bench/run.py --workload W`` once in each
checkout, one after the other, and the order alternates from pair to pair,
so that a drift in host speed falls on both sides alike. Each side's
end-to-end metrics are summarised by their median and quartiles, and each
metric gets the number of pairs the after side won and a verdict (see
``verdict``) against the bound the before checkout's ``BENCHMARK.json``
fixes for it. With ``--trace`` the per-layer metrics of ``TRACE_RUNS`` traced
runs per side are added: each timing as the median of those runs, and each
count, ratio or byte count (by its unit in ``BENCHMARK.json``) as its one
value, since those must repeat exactly.

A run that exits with a non-zero status, or whose outputs ``bench/run.py``
found wrong (``"correct": false``), stops the comparison with an error that
names the checkout, the workload and the pair: its timings would measure
something other than the program. So do traced runs of one side whose
counts, ratios or byte counts differ.

The report's ``"checkouts"`` names the trees compared: each side's commit,
whether its working tree was clean and the line count of its
``src/ttlab/*.py``, or null for a directory that is not a git checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("team", "lambda0", "robust", "sweep")
# Traced runs per side with --trace, and the per-layer units that must
# repeat exactly across them.
TRACE_RUNS = 3
EXACT_UNITS = ("count", "ratio", "B")


class BadRun(RuntimeError):
    """A bench/run.py run that failed or reported wrong outputs."""


def bench(checkout: Path, workload: str, seconds: float, trace: bool, label: str) -> Dict:
    """One bench/run.py run in `checkout`; its final result line. `label`
    names the run (its pair) in the BadRun raised when it failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload]
    cmd += ["--trace", "1"] if trace else ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    where = f"{checkout}: workload {workload}, {label}"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        raise BadRun(f"{where}: no result line (exit status {proc.returncode})\n{proc.stderr}")
    if proc.returncode != 0 or result.get("correct") is not True:
        raise BadRun(
            f"{where}: exit status {proc.returncode}, correct={result.get('correct')!r},"
            f" {result.get('failed')} of {result.get('attempted')} iterations failed\n{proc.stderr}"
        )
    return result


def traced(checkout: Path, workload: str, units: Dict[str, str]) -> Dict[str, float]:
    """The per-layer metrics of TRACE_RUNS traced runs in `checkout`: a
    metric whose unit `units` lists in EXACT_UNITS must read the same in
    every run and is reported as that value, any other as the median."""
    runs = [
        bench(checkout, workload, 0, True, f"traced run {k}")["metrics"] for k in range(TRACE_RUNS)
    ]
    out = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        if units.get(name) in EXACT_UNITS:
            if len(set(values)) > 1:
                raise BadRun(
                    f"{checkout}: workload {workload}: {name} differs between traced runs: {values}"
                )
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def checkout_state(path: Path) -> Optional[Dict]:
    """`path`'s commit (`git rev-parse HEAD`), whether its tree is clean
    (`git status --porcelain` prints nothing) and the lines of its
    src/ttlab/*.py as `wc -l` counts them (None without src/ttlab), or
    None when `path` is not the top of a git checkout."""

    def git(*args: str) -> Optional[str]:
        proc = subprocess.run(["git", *args], cwd=path, capture_output=True, text=True)
        return proc.stdout if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != path.resolve():
        return None
    head = git("rev-parse", "HEAD")
    src = path / "src" / "ttlab"
    lines = sum(f.read_bytes().count(b"\n") for f in src.glob("*.py")) if src.is_dir() else None
    return {"head": head and head.strip(), "clean": git("status", "--porcelain") == "", "src_lines": lines}


def summary(values: List[float]) -> Dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(before: List[float], after: List[float], bound: float) -> str:
    """What pairs of runs say about one metric, lower being better,
    `before[k]` and `after[k]` being the k-th pair.

    - "gain": the after side wins at least nine tenths of the pairs, ties
      counting for neither, and the medians differ by more than the
      before side's interquartile range;
    - "regression": the after median is worse than the before median by
      more than `bound`, a fraction of the before median;
    - "unresolved": the before side's interquartile range is wider than
      `bound` times its median, unless every after run beats every before
      run;
    - "no change" otherwise.
    """
    wins = sum(a < b for a, b in zip(after, before))
    sb, med_a = summary(before), statistics.median(after)
    med_b, iqr_b = sb["median"], sb["q3"] - sb["q1"]
    if 10 * wins >= 9 * len(before) and med_b - med_a > iqr_b:
        return "gain"
    if med_a - med_b > bound * abs(med_b):
        return "regression"
    if iqr_b > bound * abs(med_b) and not max(after) < min(before):
        return "unresolved"
    return "no change"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--after", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0, help="bench/run.py --seconds")
    ap.add_argument("--workload", action="append", choices=WORKLOADS, help="default: all four")
    ap.add_argument("--trace", action="store_true", help=f"add {TRACE_RUNS} traced runs per side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"before": args.before, "after": args.after}
    spec = json.loads((args.before / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec.get("per_layer", [])}
    assert all(m["better"] == "lower" for m in rules.values()), "verdict reads lower as better"
    import numpy

    host = {"nproc": os.cpu_count(), "python": platform.python_version()}
    host["numpy"] = numpy.__version__
    report: Dict = {"host": host, "pairs": args.pairs, "seconds": args.seconds}
    report["checkouts"] = {side: checkout_state(path) for side, path in sides.items()}
    report["workloads"] = {}
    try:
        for w in args.workload or WORKLOADS:
            report["workloads"][w] = compare(w, sides, args, rules, units)
            args.out.write_text(json.dumps(report, indent=2) + "\n")
    except BadRun as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def compare(
    w: str, sides: Dict[str, Path], args: argparse.Namespace, rules: Dict, units: Dict[str, str]
) -> Dict:
    """The report entry of workload `w`: its alternating pairs, summarised,
    and with args.trace each side's traced metrics (see `traced`)."""
    runs: Dict[str, List[Dict]] = {"before": [], "after": []}
    for k in range(args.pairs):
        order = ("before", "after") if k % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(bench(sides[side], w, args.seconds, False, f"pair {k}"))
            print(f"{w} pair {k} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
    entry: Dict = {
        side: {k: sum(r[k] for r in rs) for k in ("failed", "attempted")}
        for side, rs in runs.items()
    }
    entry["metrics"] = {}
    for name in runs["before"][0]["metrics"]:
        vals = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        entry["metrics"][name] = {
            "unit": runs["before"][0]["metrics"][name]["unit"],
            "before": summary(vals["before"]),
            "after": summary(vals["after"]),
            "after_wins": sum(a < b for a, b in zip(vals["after"], vals["before"])),
        }
        if name in rules:
            rule = rules[name]
            entry["metrics"][name]["bound"] = rule["bound"]
            entry["metrics"][name]["verdict"] = verdict(
                vals["before"], vals["after"], rule["bound"]
            )
    if args.trace:
        entry["per_layer"] = {side: traced(path, w, units) for side, path in sides.items()}
    return entry


if __name__ == "__main__":
    sys.exit(main())
