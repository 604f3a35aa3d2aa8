"""Command line front end: run, sweep, and compare subcommands."""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path
from typing import Optional

from .config import ConfigError, ScenarioConfig, bundled_config, load_config, with_overrides
from .engine import (
    COMPARE_VARIANTS,
    EngineInvariantError,
    run,
    run_compare,
    sweep_lambda,
    write_compare_csv,
    write_outputs,
    write_sweep_csv,
)
from .promises import StaticBall

log = logging.getLogger("ttlab")

DEFAULT_GRID = "0.05,0.1,0.15,0.2,0.3,0.4,0.5,0.6,0.75,0.9,1.0"


def _load(name_or_path: str) -> ScenarioConfig:
    p = Path(name_or_path)
    if p.exists():
        return load_config(p)
    return bundled_config(name_or_path)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--config",
        required=True,
        help="scenario file, or the name of a bundled scenario (formation4, formation4_robust)",
    )
    sub.add_argument("--out", type=Path, default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="override the channel seed")
    sub.add_argument("--duration", type=float, default=None, help="override the run length (s)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ttlab",
        description="Simulate promise-based multi-agent formation control.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate one scenario")
    _add_common(runp)
    runp.add_argument("--law", choices=("self", "team", "robust-team"), default=None)
    runp.add_argument(
        "--tightness",
        type=float,
        default=None,
        dest="tightness",
        help="override the static promise tightness",
    )

    sweepp = sub.add_parser("sweep", help="sweep the promise tightness")
    _add_common(sweepp)
    sweepp.add_argument("--lambda-grid", default=DEFAULT_GRID, help="comma separated tightness values")
    sweepp.add_argument("--parallel", action="store_true", help="run sweep points in parallel")

    cmpp = sub.add_parser("compare", help="trade-off table across controller variants")
    _add_common(cmpp)
    return ap


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    return with_overrides(
        cfg,
        seed=args.seed,
        law=getattr(args, "law", None),
        duration=args.duration,
        tightness=getattr(args, "tightness", None),
    )


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load(args.config), args)
    result = run(cfg)
    m = result.metrics
    line = (
        f"law={m['law']} seed={m['seed']} T={cfg.duration:g}s "
        f"V(0)={m['v_initial']:.6g} V(T)={m['v_final']:.6g} "
        f"N_comm={m['n_comm']} warns={m['n_warn_bits']} wall={result.wall_time:.2f}s"
    )
    if args.out is not None:
        write_outputs(result, args.out)
        line += f" -> {args.out}"
    print(line)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load(args.config), args)
    tokens = [tok for tok in args.lambda_grid.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError(f"--lambda-grid: no tightness value in {args.lambda_grid!r}")
    try:
        grid = [StaticBall(float(tok)).tightness for tok in tokens]
    except ValueError as e:
        raise ConfigError(f"--lambda-grid: {e}") from None
    t0 = time.perf_counter()
    rows = sweep_lambda(cfg, grid, parallel=args.parallel)
    wall = time.perf_counter() - t0
    for r in rows:
        print(f"lambda={r['lambda']:g} V_final={r['v_final']:.6g} N_comm={r['n_comm']}")
    print(f"{len(rows)} runs, wall={wall:.1f}s")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(rows, args.out / "sweep.csv")
        print(f"-> {args.out / 'sweep.csv'}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load(args.config), args)
    t0 = time.perf_counter()
    rows = run_compare(cfg)
    wall = time.perf_counter() - t0
    last = rows[-1]
    for v in COMPARE_VARIANTS:
        print(f"{v}: N_comm={last['ncomm_' + v]} V_final={last['v_' + v]:.6g}")
    print(f"wall={wall:.1f}s")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_compare_csv(rows, args.out / "compare.csv")
        print(f"-> {args.out / 'compare.csv'}")
    return 0


def main(argv: Optional[list] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("TTLAB_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_compare(args)
    except (ConfigError, EngineInvariantError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
