#!/usr/bin/env python3
"""Method comparison under increasing queue variance.

Runs all five orchestrators over rho in {0.1, 0.5, 0.9} on the controlled
study workload and reports median time-to-target, max accuracy, model
movement ratio, and total local steps per (method, rho).
"""
import argparse
import csv
import statistics
from pathlib import Path

import fedqueue as fq
from fedqueue.streams import spawn_seed

METHODS = ("fedqueue", "fedavg", "fedasync", "fedbuff", "fedcompass")


def study_config(seed: int) -> fq.ExperimentConfig:
    cfg = fq.default_config()
    cfg.fedqueue.queue_means = (1.0, 2.0, 4.0, 8.0)
    cfg.fedqueue.throughput = (60.0,) * 4
    cfg.fedqueue.e_floor = 20
    cfg.workload.dim = 16
    cfg.workload.class_sep = 4.5
    cfg.workload.noise = 1.5
    cfg.protocol.num_rounds = 120
    cfg.protocol.seed = seed
    return cfg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/queue_variance")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--target", type=float, default=0.84)
    parser.add_argument("--rhos", default="0.1,0.5,0.9")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for rho in (float(v) for v in args.rhos.split(",")):
        logs_by_method = {}
        for method in METHODS:
            logs = []
            for trial in range(args.trials):
                cfg = study_config(spawn_seed(42, "rho-study", trial))
                cfg.fedqueue.queue_rho = rho
                cfg.protocol.algo = method
                logs.append(fq.run_experiment(cfg))
            logs_by_method[method] = logs
        for method, logs in logs_by_method.items():
            ttas = [fq.time_to_target(log.evals, args.target) for log in logs]
            finite = [t for t in ttas if t is not None]
            ratios = []
            for i, log in enumerate(logs):
                per_trial = {m: logs_by_method[m][i] for m in METHODS}
                if fq.time_to_target(per_trial["fedqueue"].evals, args.target) is None:
                    continue
                ratios.append(fq.movement_ratio(per_trial, args.target)[method])
            finite_ratios = [r for r in ratios if r is not None]
            rows.append({
                "rho": rho, "method": method,
                "median_tta": statistics.median(finite) if len(finite) > args.trials // 2 else None,
                "reached": f"{len(finite)}/{args.trials}",
                "median_max_acc": statistics.median(
                    log.summary()["max_accuracy"] for log in logs),
                "median_movement_ratio": statistics.median(finite_ratios)
                    if finite_ratios else None,
                "median_total_steps": statistics.median(
                    log.total_local_steps for log in logs),
            })
    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    header = f"{'rho':>5} {'method':<11}{'tta':>9}{'reached':>9}{'max_acc':>9}{'D_r':>7}{'steps':>9}"
    print(header)
    for row in rows:
        tta = "-" if row["median_tta"] is None else f"{row['median_tta']:.1f}"
        dr = "-" if row["median_movement_ratio"] is None else f"{row['median_movement_ratio']:.2f}"
        print(f"{row['rho']:>5} {row['method']:<11}{tta:>9}{row['reached']:>9}"
              f"{row['median_max_acc']:>9.3f}{dr:>7}{row['median_total_steps']:>9.0f}")
    print(f"wrote {out / 'comparison.csv'}")


if __name__ == "__main__":
    main()
