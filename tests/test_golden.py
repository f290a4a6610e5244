"""Pinned run checksums and output digests: a refactor that keeps behaviour
keeps these values.  The plain grid of algorithms, workloads and broadcast
modes is pinned in `parity_corpus.json` and checked by `test_parity.py`.

Each case is a small config (10 rounds, 400 training samples, or 100 in
the cases where every client holds fewer samples than a minibatch).  Each
pin is a pair: `MetricsLog.checksum()` and the sha256 of the files
`write_outputs` writes (`summary.json` without its checksum, `rounds.csv`
and `events.jsonl`).  A change to any pinned value means the simulator's
output changed; re-pin only on purpose and say why in CHANGES.md.
"""
import hashlib
import json
from collections import Counter

import pytest

from fedqueue import engine, streams
from fedqueue.engine import run_experiment
from fedqueue.learn import build_objective
from fedqueue.streams import substream

import parity_corpus
from small_runs import dispatches, output_digest, rounds, small_config


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


def corpus_pin(name):
    """(checksum, output digest) pinned for the parity-corpus variant `name`."""
    pin = json.loads(parity_corpus.PINS.read_text())[name]
    return pin["checksum"], pin["outputs"]


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


def arithmetic_mean_config():
    # mu_k is each delay's mean, not its median: draws shift by -rho^2/2
    cfg = small_config("fedqueue", "synthetic", "linear", "next_round")
    cfg.fedqueue.queue_mean_mode = "arithmetic"
    cfg.fedqueue.queue_rho = 0.9
    return cfg


def hetero_compute_config(algo):
    # uneven throughput and slowdown: budgets, compute times and (fedcompass)
    # speeds all differ per client
    cfg = small_config(algo, "synthetic", "linear", "next_round")
    cfg.fedqueue.throughput = (10.0, 20.0, 5.0, 40.0)
    cfg.fedqueue.slowdown = (1.0, 2.0, 0.5, 3.0)
    return cfg


def fixed_slowdown_config():
    cfg = small_config("fedqueue", "synthetic", "linear", "next_round")
    cfg.fedqueue.sim_queue = "fixed"
    cfg.fedqueue.slowdown = (1.5, 1.0, 2.5, 1.0)
    return cfg


def fedbuff_hinge_config():
    # max staleness is 2 here, so b = 1 puts the hinge's decay to use
    cfg = small_config("fedbuff", "synthetic", "linear", "next_round")
    cfg.fedasync.staleness_fn = "hinge"
    cfg.fedasync.staleness_fn_kwargs = {"a": 10.0, "b": 1.0}
    return cfg


def noisy_quadratic_config():
    # gradient noise: each job draws its steps' noise from its "sgd" substream
    cfg = small_config("fedasync", "quadratic", "linear", "immediate")
    cfg.workload.quad_sigma = 0.5
    return cfg


def fixed_queue_quadratic_config():
    # fixed delays draw nothing from the "queue" substreams
    cfg = small_config("fedqueue", "quadratic", "linear", "next_round")
    cfg.fedqueue.sim_queue = "fixed"
    return cfg


def benchmark_shape_config(model, algo):
    # the benchmark's classify shape: 10 classes, so the softmax sums and
    # maxes run over 8 or more terms, and 16 features
    cfg = small_config(algo, "synthetic", model, "next_round")
    cfg.protocol.num_rounds = 5
    cfg.workload.dim = 16
    cfg.workload.classes = 10
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
    "arithmetic-mean-mode": (
        arithmetic_mean_config, False, 10, 0,
        ("4041266bfb60529ad4a68d60dc0c38e64bb4b62b232381515cf42d84e0041db3",
         "baffa6d2b72a19c9abb826ee008bbf77e9de1950c50e7bc748b9b9e7e947d942")),
    "hetero-compute": (
        lambda: hetero_compute_config("fedqueue"), False, 10, 0,
        ("11389c2d89ae81d3010ff701f4d21d6a4239c665457dc064854fe27e45b8b45b",
         "1959818fed95e9812518c53ff7e387272530f7c7fdb564992d199467eca0eb29")),
    "hetero-compute-fedcompass": (
        lambda: hetero_compute_config("fedcompass"), False, 4, 0,
        ("1e6bc28c13ea63eb0aaf1863bb4e3f3eaba801ee682ac396e56ccde9fc51778e",
         "d34ebf694660d2fd97404f63662546bc7644ec97dc68378e2232fb017e36398d")),
    "fixed-queue-slowdown": (
        fixed_slowdown_config, False, 10, 0,
        ("6ce627a4eb950c85a05eecf31be1b12326b9dec3a1613d36c4b9a0d4236081d4",
         "7a3a97caa77ea313004b896e359e7a4849768896f8ac6c38b7382ea540d15526")),
    "noisy-quadratic-fedasync-immediate": (
        noisy_quadratic_config, False, 19, 0,
        ("6511a57ea5a9233a8a8383f582c165296eebe66083d01b7c6383b33f731c4e0f",
         "32e002a0d97f56fd6af398dbbc18ed9293adaa1f9d41c542aad9440b74d2fc1f")),
    "fixed-queue-quadratic": (
        fixed_queue_quadratic_config, False, 10, 0,
        ("f47bb82025eb24cf440512e462450816e4e8db0d6efcad9f8090aaf8658414b9",
         "c640af3a7163642474bf8f2ddc020e1b3c86e3c66823b148ddb99bf4f5d823c6")),
    "benchmark-shape-linear-fedqueue": (
        lambda: benchmark_shape_config("linear", "fedqueue"), False, 5, 0,
        ("3fe3e3e1324a288e52591d03af77eeae988f4102b7efd745078e3fd60e9c3908",
         "c64ed2a0cb70b218060dea33de33b23aa349b7343f9a8771ba3d3d6ac8f13daf")),
    "benchmark-shape-linear-fedasync": (
        lambda: benchmark_shape_config("linear", "fedasync"), False, 8, 0,
        ("c683a254a53423b6ae6cb69c0fb89d3c0e69328f2a1f7024ea83f1efb3a61ad2",
         "7f4f1cb85f3a1731a5098126f4557a123a99fa3e784ebe4e1ab5c79f9bf7c981")),
    "benchmark-shape-mlp-fedqueue": (
        lambda: benchmark_shape_config("mlp", "fedqueue"), False, 5, 0,
        ("428e0081ce570438dd5e261cd7723105b14979294362a994443ba24d421f2c81",
         "22949efd23a32c6accf7d9c374bb3e3094415d69bb3b1afd90e423cbacfbefde")),
    "benchmark-shape-mlp-fedasync": (
        lambda: benchmark_shape_config("mlp", "fedasync"), False, 8, 0,
        ("590b0f830e013f12cfa15687cef738c06d23eb7d43156c87d6fcb51e85ac5fd2",
         "1558222f7da64b3acfc3f026ab55433bff80a1ec230f9106c45c0a2403785ebb")),
}

DISPATCHES = {"zero-floor-partial-cohort": 20, "zero-floor-empty-cohort": 0}

# sha256 of each diverging run's final model: the model its diverging job
# was dispatched with
FINAL_MODELS = {
    "fedqueue-diverges":
        "a77ec1d9d7efcde84b35e9d78cd141a8ea964084a959aff037a8085eae38cd86",
    "fedasync-diverges":
        "bdc4e698d649e32d3b75c2af39370701b3482fba5ae7ac1e7605d5ef305ef58d",
    "fedavg-cohort-diverges-after-its-first-client":
        "6eb69e26de2a26eda48af77d4cec893aa0cf4748a64cbefcfe11a22c1e680ad9",
    "fedbuff-classify-diverges":
        "6eb69e26de2a26eda48af77d4cec893aa0cf4748a64cbefcfe11a22c1e680ad9",
    "diverges-in-a-job-arriving-past-the-horizon":
        "138445d02afb80abdc54bfde29411032fba4c8002f60d091e371b00d889900a9",
}


def final_model_sha(log) -> str:
    return hashlib.sha256(log.final_model.tobytes()).hexdigest()


def fedavg_cohort_diverging_config():
    # client 0 runs 1 step and clients 1-3 run 30 from the same model:
    # client 1's job stays finite, client 2's is the first to diverge
    cfg = small_config("fedavg", "synthetic", "linear", "next_round")
    cfg.fedavg.num_local_steps = (1, 30, 30, 30)
    cfg.fedqueue.lr_base = 3e307
    return cfg


def fedbuff_classify_diverging_config():
    cfg = small_config("fedbuff", "synthetic", "linear", "next_round")
    cfg.fedqueue.lr_base = 2.8e307
    return cfg


def diverging_past_horizon_config():
    # the cohort dispatched at t = 93.76 s, before the 95 s horizon, would
    # arrive at 98.2-111.4 s; its client 1 diverges
    cfg = small_config("fedavg", "quadratic", "linear", "next_round")
    cfg.fedqueue.lr_base = 0.8
    cfg.protocol.num_rounds = 19
    cfg.fedqueue.t_sync = 5.0
    return cfg


# name -> (config, failure reason, round rows, events, local steps, pins)
DIVERGING = {
    "fedavg-cohort-diverges-after-its-first-client": (
        fedavg_cohort_diverging_config, "non-finite iterate on client 2", 0, 3, 31,
        ("e7d2157316e05db2bab7e4462e19be5ff02f5a6aafc1d30a0291feaf5a793e33",
         "a81f98a00c8172029c3bf7d93118f086f159831858e2f8480a8fb38345aaf9f6")),
    "fedbuff-classify-diverges": (
        fedbuff_classify_diverging_config, "non-finite iterate on client 2", 0, 3, 310,
        ("e7d2157316e05db2bab7e4462e19be5ff02f5a6aafc1d30a0291feaf5a793e33",
         "f62629d2358e687e2ad7e69a5a9a75e569f35678db021d1075c435c7c01dabe6")),
    "diverges-in-a-job-arriving-past-the-horizon": (
        diverging_past_horizon_config, "non-finite iterate on client 1", 5, 72, 1987,
        ("def909bcdd0e69cdc4b3482bc22d3ba1bc0bc05b8a647caa5f2c6a724bbd9243",
         "56d74114ae60d22febcc83631ff6cfd40b72768889677ed83db1b6db13c99326")),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_golden_edge_cases(name, tmp_path):
    make, failed, rows, skipped, pins = EDGE_CASES[name]
    log = run_experiment(make())
    assert log.failed == failed
    assert len(rounds(log)) == rows and log.skipped_rounds == skipped
    if name in DISPATCHES:
        assert len(dispatches(log)) == DISPATCHES[name]
    if failed:
        assert final_model_sha(log) == FINAL_MODELS[name]
    assert (log.checksum(), output_digest(log, tmp_path)) == pins


@pytest.mark.parametrize("name", sorted(DIVERGING))
def test_golden_diverging_runs(name, tmp_path):
    # the log stops where the diverging job was dispatched, though its
    # stack runs later
    make, reason, rows, events, steps, pins = DIVERGING[name]
    log = run_experiment(make())
    assert log.failed and log.failure_reason == reason
    assert (len(rounds(log)), len(log.events), log.total_local_steps) == (rows, events, steps)
    assert final_model_sha(log) == FINAL_MODELS[name]
    assert (log.checksum(), output_digest(log, tmp_path)) == pins


# name -> (pinned case, whether its jobs draw minibatches or gradient noise);
# a case is an EDGE_CASES name or a parity-corpus variant
SUBSTREAM_CASES = {
    "classify-lognormal": ("grid-fedqueue-synthetic-next_round-lr0.003", True),
    "classify-fixed": ("skipped-rounds-next_round", True),
    "quadratic-noise-free": ("grid-fedqueue-quadratic-next_round-lr0.003", False),
    "quadratic-noisy": ("noisy-quadratic-fedasync-immediate", True),
    "quadratic-fixed": ("fixed-queue-quadratic", False),
}


@pytest.mark.parametrize("name", sorted(SUBSTREAM_CASES))
def test_sgd_substreams_are_derived_only_when_drawn_from(name, monkeypatch, tmp_path):
    case, draws = SUBSTREAM_CASES[name]
    if case in EDGE_CASES:
        make, *_, pins = EDGE_CASES[case]
    else:
        make, pins = (lambda: parity_corpus.config(case)), corpus_pin(case)
    derived = Counter()
    real, real_block = engine.substream, streams.Substreams.__call__

    def counting(seed, *key):
        derived[key[0]] += 1
        return real(seed, *key)

    def counting_block(self, *key):
        derived[key[0]] += 1
        return real_block(self, *key)

    # the data substream is derived alone, the per-job ones through the
    # run's block cache
    monkeypatch.setattr(engine, "substream", counting)
    monkeypatch.setattr(streams.Substreams, "__call__", counting_block)
    cfg = make()
    log = run_experiment(cfg)
    jobs = len(dispatches(log))
    probes = cfg.protocol.num_clients if cfg.protocol.algo == "fedqueue" else 0
    expected = Counter(data=1, queue=jobs, warmup=probes, sgd=jobs if draws else 0)
    assert jobs > 0 and derived == +expected
    assert (log.checksum(), output_digest(log, tmp_path)) == pins
