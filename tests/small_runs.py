"""The small run config and the output digest that the golden pins
(`test_golden.py`) and the parity corpus (`parity_corpus.py`) share, and
the tests' readers of a run log's round rows and dispatches."""
import hashlib
import json
import math
from collections import namedtuple

from fedqueue import metrics
from fedqueue.config import default_config


def small_config(algo, dataset, model, broadcast_when):
    cfg = default_config()
    cfg.protocol.algo = algo
    cfg.protocol.num_rounds = 10
    cfg.workload.train_size = 400
    cfg.workload.test_size = 200
    cfg.workload.dim = 6
    cfg.workload.classes = 4
    cfg.workload.dataset = dataset
    cfg.workload.model = model
    cfg.fedqueue.broadcast_when = broadcast_when
    return cfg


def output_digest(log, out_dir) -> str:
    """sha256 of what `write_outputs` writes: summary.json without its
    checksum field, then rounds.csv and events.jsonl."""
    metrics.write_outputs(log, out_dir)
    summary = json.loads((out_dir / "summary.json").read_text())
    del summary["checksum"]
    h = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    for name in ("rounds.csv", "events.jsonl"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


# a round row of `MetricsLog._round_rows`, each per-client column a list over
# all clients
Round = namedtuple("Round", ("round", "time", "loss", "accuracy", "admitted",
                             "deferred", "mean_tau", "max_tau", "q", "q_hat",
                             "steps_budget", "eta", "steps_done"))


def rounds(log) -> list:
    """One Round per aggregation or skipped round of `log`, in order, NaN
    in each per-client cell its row does not hold."""
    held = metrics._held_columns(log.algo)
    out = []
    for row in log._round_rows():
        columns = {name: [math.nan] * log.num_clients for name in Round._fields[8:]}
        for name, values in zip(held, row[9:]):
            for k, value in zip(row[8], values):
                columns[name][k] = value
        out.append(Round(*row[:8], *columns.values()))
    return out


def dispatches(log) -> list:
    """The dispatch events of `log`, in order."""
    return [e for e in log.events if e.kind == "dispatch"]
