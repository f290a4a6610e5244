#!/usr/bin/env python3
"""Safety-buffer trade-off: late-arrival rate versus time-to-quality.

Sweeps the budgeting slack delta over {0.5, 1, 2} x the configured value and
reports the two sides of the trade: larger slack concentrates arrivals inside
the horizon (fewer late updates) but buys that safety with less local work
per round, hence slower time-to-target.
"""
import argparse
import csv
import statistics
from pathlib import Path

import fedqueue as fq
from fedqueue.engine import run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/buffer_tradeoff")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--target", type=float, default=0.84)
    parser.add_argument("--delta0", type=float, default=2.0)
    args = parser.parse_args()

    cfg = fq.default_config()
    cfg.fedqueue.queue_rho = 0.9
    cfg.fedqueue.throughput = (60.0,) * 4
    cfg.fedqueue.e_floor = 20
    cfg.workload.dim = 16
    cfg.workload.class_sep = 4.5
    cfg.workload.noise = 1.5
    cfg.protocol.num_rounds = 120

    values = [0.5 * args.delta0, args.delta0, 2.0 * args.delta0]
    results = run_sweep(cfg, "delta", values, trials=args.trials)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        group = [r["log"] for r in results if r["value"] == value]
        ttas = [fq.time_to_target(log.evals, args.target) for log in group]
        finite = [t for t in ttas if t is not None]
        rows.append({
            "delta": value,
            "median_p_late": statistics.median(
                fq.delay_statistics(log)[0] for log in group),
            "median_tta": statistics.median(finite) if finite else None,
            "reached": f"{len(finite)}/{len(group)}",
        })
    with open(out / "tradeoff.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{'delta':>7}{'P_late':>9}{'tta':>10}{'reached':>9}")
    for row in rows:
        tta = "-" if row["median_tta"] is None else f"{row['median_tta']:.1f}"
        print(f"{row['delta']:>7}{row['median_p_late']:>9.4f}{tta:>10}{row['reached']:>9}")
    print(f"wrote {out / 'tradeoff.csv'}")


if __name__ == "__main__":
    main()
