"""A generated corpus of small configs and what each run gives.

Every refactor of the engine or the kernel must leave each run of this
corpus the same: its failure reason, checksum, output digest, the sha256 of
its `final_model` bytes, `total_local_steps` and event count, as pinned in
`parity_corpus.json`.  `tests/test_parity.py` checks the pins in process and
through `run_many` with two workers.

The corpus is the grid of 5 algorithms x both workloads x both broadcast
modes x 5 learning rates on `small_runs.small_config`, plus mlp models,
fixed queues, the noisy quadratic, zero delays and extreme throughputs.

Regenerate the pins only on purpose, with

    python3 tests/parity_corpus.py

and say in CHANGES.md why they changed.  Pins that change are printed.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from small_runs import output_digest, small_config  # noqa: E402

PINS = HERE / "parity_corpus.json"

ALGOS = ("fedqueue", "fedavg", "fedasync", "fedbuff", "fedcompass")
BROADCASTS = ("next_round", "immediate")
LEARNING_RATES = (0.003, 0.03, 0.3, 1.0, 3.0)


def _with(cfg, **over):
    """`cfg` with `section__key=value` overrides applied."""
    for key, value in over.items():
        section, attr = key.split("__")
        setattr(getattr(cfg, section), attr, value)
    return cfg


def _variants():
    """name -> (algo, dataset, model, broadcast, overrides)."""
    out = {}
    for algo in ALGOS:
        for dataset in ("synthetic", "quadratic"):
            for broadcast in BROADCASTS:
                for lr in LEARNING_RATES:
                    out[f"grid-{algo}-{dataset}-{broadcast}-lr{lr:g}"] = (
                        algo, dataset, "linear", broadcast,
                        dict(fedqueue__lr_base=lr))
        # mlp, also at a rate that diverges on the linear model's data
        for lr in (0.003, 3e307):
            out[f"mlp-{algo}-lr{lr:g}"] = (
                algo, "synthetic", "mlp", "next_round", dict(fedqueue__lr_base=lr))
        for dataset in ("synthetic", "quadratic"):
            out[f"fixed-queue-{algo}-{dataset}"] = (
                algo, dataset, "linear", "next_round",
                dict(fedqueue__sim_queue="fixed"))
            out[f"zero-delay-{algo}-{dataset}"] = (
                algo, dataset, "linear", "immediate",
                dict(fedqueue__sim_queue="fixed", fedqueue__queue_fixed=(0.0,) * 4,
                     fedqueue__delta=0.0))
            # one step per 20 s: every job outlasts its round
            out[f"slow-throughput-{algo}-{dataset}"] = (
                algo, dataset, "linear", "next_round",
                dict(fedqueue__throughput=(0.05, 0.05, 0.05, 0.05)))
        for broadcast in BROADCASTS:
            for lr in (0.003, 1.0):
                out[f"noisy-quadratic-{algo}-{broadcast}-lr{lr:g}"] = (
                    algo, "quadratic", "linear", broadcast,
                    dict(workload__quad_sigma=0.5, fedqueue__lr_base=lr))
    # fixed step counts: jobs take no time, and the clock crawls
    for algo in ("fedavg", "fedasync", "fedbuff"):
        out[f"fast-throughput-{algo}"] = (
            algo, "synthetic", "linear", "next_round",
            dict(fedqueue__throughput=(1e8,) * 4))
    out["stalled-fedasync"] = (
        "fedasync", "quadratic", "linear", "next_round",
        dict(fedqueue__sim_queue="fixed", fedqueue__queue_fixed=(0.0,) * 4,
             fedqueue__throughput=(1e20,) * 4, fedasync__num_local_steps=1,
             protocol__num_rounds=3))
    return out


VARIANTS = _variants()


def config(name: str):
    algo, dataset, model, broadcast, over = VARIANTS[name]
    return _with(small_config(algo, dataset, model, broadcast), **over)


def facts(log, out_dir) -> dict:
    """What the corpus pins of one run."""
    return {"failure_reason": log.failure_reason,
            "checksum": log.checksum(),
            "outputs": output_digest(log, out_dir),
            "final_model": hashlib.sha256(log.final_model.tobytes()).hexdigest(),
            "total_local_steps": log.total_local_steps,
            "events": len(log.events)}


def main() -> int:
    from fedqueue.engine import run_experiment

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        fresh = {name: facts(run_experiment(config(name)), Path(tmp) / name)
                 for name in VARIANTS}
    for name, pin in fresh.items():
        if name in pins and pins[name] != pin:
            changed += 1
            print(f"{name}: {pins[name]} -> {pin}")
    PINS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    failed = sum(bool(pin["failure_reason"]) for pin in fresh.values())
    print(f"{len(fresh)} pins ({failed} failed runs), {changed} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
