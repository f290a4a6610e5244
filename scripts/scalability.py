#!/usr/bin/env python3
"""Scalability of the method comparison in the number of clients.

Repeats the heavy-tailed comparison of `configs/heavy_tail.ini` at K in
{4, 8, 12}; its 4-client vectors are tiled to K since the config layer
validates lengths strictly.  The runs go through `fedqueue.run_many`, one
worker per usable core.
"""
import argparse
import csv
import math
import os
import statistics
from pathlib import Path

import fedqueue as fq
from fedqueue.streams import spawn_seed

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "heavy_tail.ini"
METHODS = ("fedqueue", "fedavg", "fedasync", "fedbuff", "fedcompass")
# the config's per-client vectors, as (section, field)
PER_CLIENT = (("fedqueue", "queue_means"), ("fedqueue", "queue_fixed"),
              ("fedqueue", "slowdown"), ("fedqueue", "throughput"),
              ("fedavg", "num_local_steps"))


def tile(base, k):
    return tuple(base[i % len(base)] for i in range(k))


def study_configs(clients, trials, rounds=None):
    """(K, method, config) of every run, for each K every method over the
    same seeds; `rounds`, if given, replaces the config's round count."""
    base = fq.load_config(CONFIG)
    runs = []
    for k in clients:
        for method in METHODS:
            for trial in range(trials):
                cfg = base.copy()
                cfg.protocol.num_clients = k
                cfg.protocol.algo = method
                for section, name in PER_CLIENT:
                    part = getattr(cfg, section)
                    setattr(part, name, tile(getattr(part, name), k))
                if rounds is not None:
                    cfg.protocol.num_rounds = rounds
                cfg.protocol.seed = spawn_seed(42, "scal", k, trial)
                runs.append((k, method, cfg))
    return runs


def study(clients, trials, target, rounds=None):
    """The logs of every run, in `study_configs` order, and the table: one
    row per (K, method).  A run that never reaches the target counts as
    infinitely late, so the median time is None unless more than half of
    the runs reached it."""
    runs = study_configs(clients, trials, rounds)
    logs = fq.run_many([cfg for *_, cfg in runs], len(os.sched_getaffinity(0)))
    cells = {}
    for (k, method, _), log in zip(runs, logs):
        cells.setdefault((k, method), []).append(log)
    rows = []
    for (k, method), group in cells.items():
        ttas = [fq.time_to_target(log.evals, target) for log in group]
        tta = statistics.median(math.inf if t is None else t for t in ttas)
        rows.append({
            "clients": k, "method": method,
            "median_tta": None if tta == math.inf else tta,
            "reached": f"{sum(t is not None for t in ttas)}/{len(ttas)}",
            "median_total_steps": statistics.median(
                log.total_local_steps for log in group),
        })
    return logs, rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/scalability")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--target", type=float, default=0.8)
    parser.add_argument("--clients", default="4,8,12")
    args = parser.parse_args()

    _, rows = study([int(v) for v in args.clients.split(",")], args.trials,
                    args.target)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scalability.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{'K':>4} {'method':<11}{'tta':>9}{'reached':>9}{'steps':>10}")
    for row in rows:
        tta = "never" if row["median_tta"] is None else f"{row['median_tta']:.1f}"
        print(f"{row['clients']:>4} {row['method']:<11}{tta:>9}{row['reached']:>9}"
              f"{row['median_total_steps']:>10.0f}")
    print(f"wrote {out / 'scalability.csv'}")


if __name__ == "__main__":
    main()
