"""Pinned run checksums: a refactor that keeps behaviour keeps these values.

Each case is a small config (10 rounds, 400 training samples, or 100 in
the cases where every client holds fewer samples than a minibatch).  A
change to any pinned value means the simulator's output changed; re-pin only
on purpose and say why in CHANGES.md.
"""
import pytest

from fedqueue.config import default_config
from fedqueue.engine import run_experiment
from fedqueue.learn import build_objective
from fedqueue.streams import substream

GOLDEN = {
    ("fedqueue", "synthetic", "linear", "next_round"):
        "540ff0eb002910d873edc7fbf2a295509f77c8085bc0bf511515ec9cc71a5572",
    ("fedavg", "synthetic", "linear", "next_round"):
        "15e78a8646a31c785e05d9fddb0a2519b549b49489059d2ac85358ecbcb489e9",
    ("fedasync", "synthetic", "linear", "next_round"):
        "ef707b59e25ab3ec87960f9f3027c6a43e8858904826534bde26ccd092d00f6a",
    ("fedbuff", "synthetic", "linear", "next_round"):
        "565ae2ef710a6b5309212f08831152254a723483b71b2cedecf61d2fd60b61b5",
    ("fedcompass", "synthetic", "linear", "next_round"):
        "8bd7bd4770ffa304dfb670d8b364bf82ea26f7d199549b622fd1deae6b56501f",
    ("fedqueue", "synthetic", "mlp", "next_round"):
        "984fdbe23524575cbc7e44db1f3531fceb8567ea2ed8a4cacce5bcbf0f10544e",
    ("fedqueue", "quadratic", "linear", "next_round"):
        "8b77cc927862a9b93017f724396f41ec3529812c5757933e855fa2b2dc4128d7",
    ("fedqueue", "synthetic", "linear", "immediate"):
        "429373a765702111ba470d2bd451e464117256d622fe2afccfb5cce2ed0d16a5",
}


# 100 training samples over 4 Dirichlet clients, batch_size 64: every
# minibatch is min(batch_size, n_k) = n_k rows drawn with replacement
SMALL_CLIENTS = {
    "fedqueue": "27ff20fd4d84b091b9688cef17c051a362896cd669193658bbb4dd6e07c0b4ec",
    "fedasync": "4be9e04802580e4176ffaa58c5208a60bcbc4da6260c51ca1278e85834627c4d",
}


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


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_golden_checksum(case):
    log = run_experiment(small_config(*case))
    assert not log.failed
    assert log.checksum() == GOLDEN[case]


@pytest.mark.parametrize("algo", sorted(SMALL_CLIENTS))
def test_golden_checksum_clients_smaller_than_batch(algo):
    cfg = small_config(algo, "synthetic", "linear", "next_round")
    cfg.workload.train_size = 100
    assert cfg.workload.partition == "non-iid" and cfg.protocol.batch_size == 64
    objective = build_objective(cfg, substream(cfg.protocol.seed, "data"))
    assert max(len(p) for p in objective.partition) < cfg.protocol.batch_size
    log = run_experiment(cfg)
    assert not log.failed
    assert log.checksum() == SMALL_CLIENTS[algo]
