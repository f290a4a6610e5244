"""The small run config and the output digest that the golden pins
(`test_golden.py`) and the parity corpus (`parity_corpus.py`) share."""
import hashlib
import json

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
