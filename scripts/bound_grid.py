#!/usr/bin/env python3
"""Empirical delay grid over (rho, gamma, alpha).

For each grid point, runs the queue-aware protocol and reports the empirical
probability of arrival beyond the cutoff, the normalized expected and maximum
delays, and time-to-target; the companion closed-form/Monte Carlo check of
the staleness bound itself lives in `fedqueue check-lemma1`.
"""
import argparse
import csv
import statistics
from pathlib import Path

import fedqueue as fq
from fedqueue.streams import spawn_seed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/bound_grid")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--target", type=float, default=0.84)
    args = parser.parse_args()

    grid = ([(rho, 4.0, 0.5) for rho in (0.1, 0.5, 0.9)]
            + [(0.1, gamma, 0.5) for gamma in (1.0, 2.0, 4.0)]
            + [(0.1, 4.0, alpha) for alpha in (0.1, 0.5, 1.0)])
    rows = []
    for rho, gamma, alpha in grid:
        p_lates, e_ds, r_ds, ttas = [], [], [], []
        for trial in range(args.trials):
            cfg = fq.default_config()
            cfg.fedqueue.queue_rho = rho
            cfg.fedqueue.gamma = gamma
            cfg.fedqueue.alpha = alpha
            cfg.fedqueue.throughput = (60.0,) * 4
            cfg.fedqueue.e_floor = 20
            cfg.workload.dim = 16
            cfg.workload.class_sep = 4.5
            cfg.workload.noise = 1.5
            cfg.protocol.num_rounds = 120
            cfg.protocol.seed = spawn_seed(42, "grid", trial)
            log = fq.run_experiment(cfg)
            p, e_d, r_d = fq.delay_statistics(log)
            p_lates.append(p)
            if e_d is not None:
                e_ds.append(e_d)
            r_ds.append(r_d)
            t = fq.time_to_target(log.evals, args.target)
            if t is not None:
                ttas.append(t)
        rows.append({
            "rho": rho, "gamma": gamma, "alpha": alpha,
            "p_late": statistics.median(p_lates),
            "late_mean_ratio": statistics.median(e_ds) if e_ds else None,
            "max_delay_ratio": statistics.median(r_ds),
            "median_tta": statistics.median(ttas) if ttas else None,
        })
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "grid.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{'rho':>5}{'gamma':>7}{'alpha':>7}{'P':>8}{'E_d':>7}{'R_d':>7}{'tta':>9}")
    for row in rows:
        e_d = "-" if row["late_mean_ratio"] is None else f"{row['late_mean_ratio']:.2f}"
        tta = "-" if row["median_tta"] is None else f"{row['median_tta']:.1f}"
        print(f"{row['rho']:>5}{row['gamma']:>7}{row['alpha']:>7}"
              f"{row['p_late']:>8.3f}{e_d:>7}{row['max_delay_ratio']:>7.2f}{tta:>9}")
    print(f"wrote {out / 'grid.csv'}")


if __name__ == "__main__":
    main()
