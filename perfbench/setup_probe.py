"""Set-up work of one benchmark run, in a fresh interpreter.

Imports fedqueue, then validates the config of the workload's first
experiment and builds its objective, as ``run_experiment`` does before its
first event.  The benchmark times this whole process from outside.

    python3 perfbench/setup_probe.py WORKLOAD SLOT [ROUNDS]
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from fedqueue import config, learn  # noqa: E402
from fedqueue.streams import substream  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, slot = sys.argv[1], int(sys.argv[2])
    rounds = int(sys.argv[3]) if len(sys.argv) > 3 else None
    cfg = workloads.first_config(workload, slot, rounds)
    config.validate_config(cfg)
    learn.build_objective(cfg, substream(cfg.protocol.seed, "data"))
