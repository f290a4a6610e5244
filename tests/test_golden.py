"""Pinned run checksums and output digests: a refactor that keeps behaviour
keeps these values.

Each case is a small config (10 rounds, 400 training samples, or 100 in
the cases where every client holds fewer samples than a minibatch).  Each
pin is a pair: `MetricsLog.checksum()` and the sha256 of the files
`write_outputs` writes (`summary.json` without its checksum, `rounds.csv`
and `events.jsonl`).  A change to any pinned value means the simulator's
output changed; re-pin only on purpose and say why in CHANGES.md.
"""
import hashlib
import json

import pytest

from fedqueue import metrics
from fedqueue.config import default_config
from fedqueue.engine import run_experiment
from fedqueue.learn import build_objective
from fedqueue.streams import substream

GOLDEN = {
    ("fedqueue", "synthetic", "linear", "next_round"): (
        "540ff0eb002910d873edc7fbf2a295509f77c8085bc0bf511515ec9cc71a5572",
        "862f4d3352717fa83501cee440213d33a64b9ae019045b5da817310a65a16fbf"),
    ("fedavg", "synthetic", "linear", "next_round"): (
        "15e78a8646a31c785e05d9fddb0a2519b549b49489059d2ac85358ecbcb489e9",
        "7763478ee9694e3bf049463403556d26b27e80d2d5ca8596c377ebf74c1bdff6"),
    ("fedasync", "synthetic", "linear", "next_round"): (
        "ef707b59e25ab3ec87960f9f3027c6a43e8858904826534bde26ccd092d00f6a",
        "c6fcbcabec1000137a75111a2c4fb55481b016296d3e522e1d08654862127ef0"),
    ("fedbuff", "synthetic", "linear", "next_round"): (
        "565ae2ef710a6b5309212f08831152254a723483b71b2cedecf61d2fd60b61b5",
        "3caa5e8c2878b4b36e8afe0b689f2dff5ea9c5b287a4cb107fa1859a41fe6474"),
    ("fedcompass", "synthetic", "linear", "next_round"): (
        "8bd7bd4770ffa304dfb670d8b364bf82ea26f7d199549b622fd1deae6b56501f",
        "76809031429a15f2c112336d749d5a58dddfdd728b50874952bfb5863ddb626b"),
    ("fedqueue", "synthetic", "mlp", "next_round"): (
        "984fdbe23524575cbc7e44db1f3531fceb8567ea2ed8a4cacce5bcbf0f10544e",
        "e5aacddeaa4a010f1ed085498f6968b1d04809dc6f8c4247d9ce88e47e012bdd"),
    ("fedasync", "synthetic", "mlp", "next_round"): (
        "8fe67bbd3b36bfa989fbab1ce23733b66d204a8f0fe72814c5e15fc947135e2c",
        "e99cb58ab098f89c4a9046a2609b9233fdf9f3080b64e83c4d49db03fc285b05"),
    ("fedbuff", "synthetic", "mlp", "next_round"): (
        "a69bf84123cfda5426f9996169c032c10f98b9682bec4c931466638412526afe",
        "268a9a0f49c68dedf5b44518c2778243ac401b9a0950fe0836f1432dff3647cf"),
    ("fedqueue", "quadratic", "linear", "next_round"): (
        "8b77cc927862a9b93017f724396f41ec3529812c5757933e855fa2b2dc4128d7",
        "de3fa84ed5e12a0364d43df085a897e6d474d50d104a70078556f89ac2085cdf"),
    ("fedqueue", "synthetic", "linear", "immediate"): (
        "429373a765702111ba470d2bd451e464117256d622fe2afccfb5cce2ed0d16a5",
        "bcdea7d9023c0ff320b768f309d0c7e31f5b79f6137bd8ce74a0e069e874c5e4"),
}


# 100 training samples over 4 Dirichlet clients, batch_size 64: every
# minibatch is min(batch_size, n_k) = n_k rows drawn with replacement
SMALL_CLIENTS = {
    "fedqueue": (
        "27ff20fd4d84b091b9688cef17c051a362896cd669193658bbb4dd6e07c0b4ec",
        "400d42713f5e21b7875e4a34bd93e6b4fc7947f9a5d9d7eaaf32a703e41b3b69"),
    "fedasync": (
        "4be9e04802580e4176ffaa58c5208a60bcbc4da6260c51ca1278e85834627c4d",
        "32d5dabc78e0ff998684c6296fe497d8330c61c3ff43e5e53f8434b4ad94a50f"),
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


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_golden_checksum(case, tmp_path):
    log = run_experiment(small_config(*case))
    assert not log.failed
    assert (log.checksum(), output_digest(log, tmp_path)) == GOLDEN[case]


@pytest.mark.parametrize("algo", sorted(SMALL_CLIENTS))
def test_golden_checksum_clients_smaller_than_batch(algo, tmp_path):
    cfg = small_config(algo, "synthetic", "linear", "next_round")
    cfg.workload.train_size = 100
    assert cfg.workload.partition == "non-iid" and cfg.protocol.batch_size == 64
    objective = build_objective(cfg, substream(cfg.protocol.seed, "data"))
    assert max(len(p) for p in objective.partition) < cfg.protocol.batch_size
    log = run_experiment(cfg)
    assert not log.failed
    assert (log.checksum(), output_digest(log, tmp_path)) == SMALL_CLIENTS[algo]


def fixed_queue_config(broadcast_when):
    # every job waits 25 s in a 10 s round: 7 of the 10 rounds admit nothing
    cfg = small_config("fedqueue", "synthetic", "linear", broadcast_when)
    cfg.fedqueue.sim_queue = "fixed"
    cfg.fedqueue.queue_fixed = (25.0, 25.0, 25.0, 25.0)
    return cfg


def diverging_config(algo, lr_base):
    cfg = small_config(algo, "quadratic", "linear", "next_round")
    cfg.fedqueue.lr_base = lr_base
    return cfg


def ablation_config(toggle):
    cfg = small_config("fedqueue", "synthetic", "linear", "next_round")
    setattr(cfg.ablation, toggle, False)
    return cfg


def zero_floor_config(queue_fixed):
    # E_floor = 0: a client whose fixed wait fills the round gets no steps
    # and is not dispatched
    cfg = small_config("fedqueue", "synthetic", "linear", "next_round")
    cfg.fedqueue.e_floor = 0
    cfg.fedqueue.sim_queue = "fixed"
    cfg.fedqueue.queue_fixed = queue_fixed
    return cfg


def mlp_data_size_config():
    # aggregation weights follow the clients' data sizes, not 1/K
    cfg = small_config("fedqueue", "synthetic", "mlp", "next_round")
    cfg.fedqueue.client_weight_mode = "data_size"
    return cfg


def static_fixed_config():
    # the static predictor on fixed delays predicts each wait exactly
    cfg = ablation_config("use_ewma")
    cfg.fedqueue.sim_queue = "fixed"
    return cfg


def fedbuff_hinge_config():
    # max staleness is 2 here, so b = 1 puts the hinge's decay to use
    cfg = small_config("fedbuff", "synthetic", "linear", "next_round")
    cfg.fedasync.staleness_fn = "hinge"
    cfg.fedasync.staleness_fn_kwargs = {"a": 10.0, "b": 1.0}
    return cfg


# name -> (config, failed, number of round rows, skipped rounds, pins)
EDGE_CASES = {
    "skipped-rounds-next_round": (
        lambda: fixed_queue_config("next_round"), False, 10, 7,
        ("6f272070e06b68743f6941164fc3602dd0a2e041655bddcefbbe4fe075ff9ade",
         "c43d91891462724546ce2f47075fbfffd15c4f53ad63d09b6a083f4906dfa3f9")),
    "skipped-rounds-immediate": (
        lambda: fixed_queue_config("immediate"), False, 10, 7,
        ("26a3737c341fe7d20cea6f70e87d34b73e7978e912f37b9af2aa1d80cf63e312",
         "fd4557253f80430f06df0527f6bd6770f7f15afccd9d15d599d07f9213ea5f90")),
    "fedqueue-diverges": (
        lambda: diverging_config("fedqueue", 3.0), True, 8, 0,
        ("61d7501518a090132431c1b324bf3dfa23520aee8ef6b6eb7d4e65dd31ae29ba",
         "3ca67d4e30cc40d438e35deda5edd1fb37721b19223ae39cb9f2ee4d104add98")),
    "fedasync-diverges": (
        lambda: diverging_config("fedasync", 1.0), True, 13, 0,
        ("8f476ae23a7c0c62eace09e072fda05d3ff2c0e1a1875e6fc441d3526c81e5cc",
         "ea5bed6144b9aeaa76cb70c77c946f8e4f20826a3077eac0064fceef3f5552b9")),
    "static-predictor": (
        lambda: ablation_config("use_ewma"), False, 10, 0,
        ("e8d7e1fcedd4ae28d6f8a3b5251880e47ca0a51312c5c0bad8d9a7f63b5a0bd3",
         "e08c954f0c243844257a9b795e7dda8835e63adae704d23df5fb122e0d07518a")),
    "static-predictor-fixed-queue": (
        static_fixed_config, False, 10, 0,
        ("59603686ea6dcd969401b65e87b64303b7605903815fd39647edffb037544b11",
         "d52e4e21932f1734668a8d3b29ab66e8af6fab7b3059bb7eed5a23dbed4aecee")),
    "no-inverse-lr": (
        lambda: ablation_config("use_inverse_lr"), False, 10, 0,
        ("fc57f65d3a64c9b90b34afdaa5d81bda058536748ddfcc40090138cfdf51bda2",
         "1f34fac1877841a3c65933fd88f083eeb4af9b7f078087f3c4fcf711d2270b7e")),
    "no-staleness-decay": (
        lambda: ablation_config("use_staleness_decay"), False, 10, 0,
        ("8b4cb77ec8f27f1fde9cbd1919fa7006c7effe338ed81d7b81794fc3e88798b4",
         "6949251f2897d256add32369539e9e0512bb11ed7a8bcdd14ae9eac04286f752")),
    # clients 2 and 3 wait 12 and 25 s: never dispatched, 20 dispatches
    "zero-floor-partial-cohort": (
        lambda: zero_floor_config((0.5, 1.5, 12.0, 25.0)), False, 10, 0,
        ("06b6b1592ddac865e9c9a4672fe8df59de285460c8ae924f4c7c06606ac5d7cc",
         "15800e4440459e670e13e5b926f6eebc59b596b27bdd4f997011ffae3d0bde00")),
    # every client waits out the round: nothing is dispatched
    "zero-floor-empty-cohort": (
        lambda: zero_floor_config((25.0, 25.0, 25.0, 25.0)), False, 10, 10,
        ("d68799a52e38eb5b4630629d681875b84c6f2dc342775f2df1b01c8454a2f29b",
         "4c8373f766600ea6f18b3c081fc0e0bff1a5494da6a551820131e2c4a1e99597")),
    "mlp-data-size-weights": (
        mlp_data_size_config, False, 10, 0,
        ("aee9826c2189f31019819cba04b0cfcd1a2b27528b99601a1e5107d7a1f4cb3d",
         "c84430a0f89afde9a36ded17abfc6e38540040564c54fcd28e0536819d2a3077")),
    "fedbuff-hinge": (
        fedbuff_hinge_config, False, 6, 0,
        ("64c4a9e170d8072e88bab21c067aceec7eb07e0da318f7f6326e04ad905a7c18",
         "eb00a944741aab427654bb84aac38e0594f865d778f0ee75db120435e4753233")),
}

DISPATCHES = {"zero-floor-partial-cohort": 20, "zero-floor-empty-cohort": 0}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_golden_edge_cases(name, tmp_path):
    make, failed, rows, skipped, pins = EDGE_CASES[name]
    log = run_experiment(make())
    assert log.failed == failed
    assert len(log.rounds) == rows and log.skipped_rounds == skipped
    if name in DISPATCHES:
        assert len(log.dispatches) == DISPATCHES[name]
    assert (log.checksum(), output_digest(log, tmp_path)) == pins
