"""Command-line entry point.

Subcommands: run (one experiment), sweep (one config axis across trials),
ablate (the three mechanism-off variants against the baseline), and
check-lemma1 (Monte Carlo verification of the admission staleness bound on a
(rho, gamma) grid).  Outputs are plain files for offline analysis: a JSON
summary, a per-round CSV, and a JSONL event stream per run.  The environment
variable FEDQUEUE_OUTPUT_ROOT prefixes relative output paths.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

from . import metrics
from .config import (ConfigError, default_config, load_config, save_config,
                     set_key, resolve_axis)
from .engine import run_experiment, run_sweep
from .streams import spawn_seed

OUTPUT_FILES = ("summary.json", "rounds.csv", "events.jsonl")
ABLATION_VARIANTS = (
    ("baseline", None),
    ("wo_inverse_lr", "use_inverse_lr"),
    ("wo_ewma", "use_ewma"),
    ("wo_staleness_decay", "use_staleness_decay"),
)


def _out_path(raw: str) -> Path:
    path = Path(raw)
    if not path.is_absolute():
        root = os.environ.get("FEDQUEUE_OUTPUT_ROOT")
        if root:
            path = Path(root) / path
    return path


def _prepare_dir(path: Path, force: bool) -> None:
    if path.exists() and any(path.iterdir()):
        if not force:
            raise SystemExit(f"refusing to write into non-empty {path} "
                             "(pass --force to overwrite)")
        shutil.rmtree(path)
    path.mkdir(parents=True, exist_ok=True)


def _load(args) -> "ExperimentConfig":
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        cfg.protocol.seed = args.seed
    if getattr(args, "algo", None):
        cfg.protocol.algo = args.algo
    return cfg


def _write_csv(path: Path, rows: list[dict]) -> None:
    """One CSV row per dict; the first row's keys are the header."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _median(values):
    finite = [v for v in values if v is not None]
    if not finite:
        return None
    return statistics.median(finite)


def cmd_run(args) -> int:
    cfg = _load(args)
    out = _out_path(args.out)
    _prepare_dir(out, args.force)
    try:
        log = run_experiment(cfg)
        s = metrics.write_outputs(log, out)["summary"]
        save_config(cfg, out / "config.ini")
    except Exception:
        for name in OUTPUT_FILES + ("config.ini",):
            (out / name).unlink(missing_ok=True)
        raise
    if log.failed:
        print(f"run FAILED ({log.failure_reason}); outputs in {out}")
        return 1
    print(f"{log.algo} seed={log.seed}: final_loss={s['final_loss']:.4f} "
          f"final_acc={s['final_accuracy']} p_late={s['p_late']:.3f} -> {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    try:
        resolve_axis(args.axis)
    except ConfigError as exc:
        raise SystemExit(str(exc))
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    out = _out_path(args.out)
    _prepare_dir(out, args.force)
    results = run_sweep(cfg, args.axis, values, trials=args.trials, jobs=args.jobs)
    rows = []
    for res in results:
        log = res["log"]
        run_dir = out / f"{args.axis.replace('.', '_')}={res['value']}" / f"trial{res['trial']}"
        s = metrics.write_outputs(log, run_dir)["summary"]
        rows.append({
            "axis": args.axis, "value": res["value"], "trial": res["trial"],
            "seed": res["seed"], "algo": log.algo,
            "max_accuracy": s["max_accuracy"],
            "final_accuracy": s["final_accuracy"],
            "final_loss": s["final_loss"],
            "time_to_target": metrics.time_to_target(log, args.target),
            "p_late": s["p_late"], "late_mean_ratio": s["late_mean_ratio"],
            "max_delay_ratio": s["max_delay_ratio"],
            "transfers": s["transfers"],
            "total_local_steps": s["total_local_steps"],
        })
    _write_csv(out / "sweep.csv", rows)
    for value in dict.fromkeys(r["value"] for r in rows):
        group = [r for r in rows if r["value"] == value]
        tta = _median([r["time_to_target"] for r in group])
        p_late = _median([r["p_late"] for r in group])
        print(f"{args.axis}={value}: median p_late={p_late:.4f} "
              f"median time_to_{args.target}={tta}")
    print(f"wrote {len(rows)} runs under {out}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load(args)
    out = _out_path(args.out)
    _prepare_dir(out, args.force)
    master = cfg.protocol.seed
    rows = []
    for name, toggle in ABLATION_VARIANTS:
        for trial in range(args.trials):
            variant = cfg.copy()
            if toggle is not None:
                setattr(variant.ablation, toggle, False)
            variant.protocol.seed = spawn_seed(master, "ablate", trial)
            log = run_experiment(variant)
            s = log.summary()
            rows.append({
                "variant": name, "trial": trial, "seed": variant.protocol.seed,
                "final_accuracy": s["final_accuracy"],
                "max_accuracy": s["max_accuracy"],
                "time_to_target": metrics.time_to_target(log, args.target),
                "p_late": s["p_late"],
                "late_mean_ratio": s["late_mean_ratio"],
                "max_delay_ratio": s["max_delay_ratio"],
            })
    _write_csv(out / "ablate.csv", rows)
    header = (f"{'variant':<22}{'final_acc':>10}{'tta@' + str(args.target):>12}"
              f"{'P_late':>9}{'E_d':>7}{'R_d':>7}")
    print(header)
    for name, _ in ABLATION_VARIANTS:
        group = [r for r in rows if r["variant"] == name]
        acc = _median([r["final_accuracy"] for r in group])
        tta = _median([r["time_to_target"] for r in group])
        pl = _median([r["p_late"] for r in group])
        ed = _median([r["late_mean_ratio"] for r in group])
        rd = _median([r["max_delay_ratio"] for r in group])
        print(f"{name:<22}{acc:>10.4f}"
              f"{'-' if tta is None else format(tta, '>11.1f') + 's':>12}"
              f"{pl:>9.3f}{'-' if ed is None else format(ed, '.2f'):>7}"
              f"{rd:>7.2f}")
    print(f"wrote {len(rows)} runs to {out / 'ablate.csv'}")
    return 0


def cmd_check_bound(args) -> int:
    cfg = _load(args)
    rhos = [float(v) for v in args.rhos.split(",")]
    gammas = [float(v) for v in args.gammas.split(",")]
    t_sync = cfg.fedqueue.t_sync
    k, r = cfg.protocol.num_clients, cfg.protocol.num_rounds
    alpha = cfg.fedqueue.alpha
    rows = []
    print(f"{'rho':>6}{'gamma':>7}{'alpha':>7}{'delta*':>9}{'tau_max':>8}"
          f"{'violation':>11}{'epsilon':>9}")
    for rho in rhos:
        for gamma in gammas:
            params = metrics.StalenessBoundParams(
                rho=np.full(k, rho), epsilon=args.epsilon, gamma=gamma)
            delta = metrics.delta_threshold(params, t_sync, k, r)
            rate = metrics.staleness_bound_violation_rate(
                params, t_sync, delta, k, r, trials=args.trials,
                seed=cfg.protocol.seed)
            rows.append({"rho": rho, "gamma": gamma, "alpha": alpha,
                         "delta": delta, "tau_max": params.tau_max,
                         "violation_rate": rate, "epsilon": args.epsilon})
            print(f"{rho:>6.2f}{gamma:>7.2f}{alpha:>7.2f}{delta:>9.3f}"
                  f"{params.tau_max:>8d}{rate:>11.3f}{args.epsilon:>9.3f}")
    bad = [row for row in rows if row["violation_rate"] > args.epsilon]
    if args.out:
        out = _out_path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "bound_grid.csv", rows)
        print(f"wrote {out / 'bound_grid.csv'}")
    if bad:
        print(f"{len(bad)} grid point(s) exceed epsilon={args.epsilon}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedqueue",
        description="Simulator for queue-aware federated learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", help="config file (defaults when omitted)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--algo", help="override algo.name")
    p_run.add_argument("--force", action="store_true",
                       help="overwrite an existing output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one config axis")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--axis", required=True, help="config key to vary")
    p_sweep.add_argument("--values", required=True, help="comma-joined values")
    p_sweep.add_argument("--trials", type=int, default=1,
                         help="seeds per grid point")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel experiment processes")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--algo")
    p_sweep.add_argument("--target", type=float, default=0.85,
                         help="accuracy target for time-to-quality")
    p_sweep.add_argument("--force", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_abl = sub.add_parser("ablate",
                           help="baseline vs the three mechanism-off variants")
    p_abl.add_argument("--config")
    p_abl.add_argument("--out", required=True)
    p_abl.add_argument("--trials", type=int, default=5)
    p_abl.add_argument("--seed", type=int)
    p_abl.add_argument("--target", type=float, default=0.85)
    p_abl.add_argument("--force", action="store_true")
    p_abl.set_defaults(func=cmd_ablate)

    p_chk = sub.add_parser("check-lemma1",
                           help="Monte Carlo check of the staleness bound")
    p_chk.add_argument("--config")
    p_chk.add_argument("--out", help="optional directory for bound_grid.csv")
    p_chk.add_argument("--trials", type=int, default=10_000)
    p_chk.add_argument("--epsilon", type=float, default=0.05)
    p_chk.add_argument("--rhos", default="0.1,0.5,0.9")
    p_chk.add_argument("--gammas", default="0.2,1,2,4")
    p_chk.add_argument("--seed", type=int)
    p_chk.set_defaults(func=cmd_check_bound)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
