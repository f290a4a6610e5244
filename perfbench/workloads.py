"""The benchmark workloads and the code that runs one experiment set.

A *set* is the unit the benchmark times.  On ``classify-controlled`` and
``quad-dispatch`` it is the five algorithms on one workload config, each
experiment run through ``engine.run_experiment`` and its outputs written
with ``metrics.write_outputs``, as ``fedqueue run`` does; the experiments
run one after another from this process (closed loop).  On
``sweep-parallel`` it is one ``fedqueue sweep`` over ``queue_rho``, driven
in-process through ``cli.main``, whose experiments ``engine.run_sweep``
spreads over the program's own worker processes.

Every call into the program goes through a module attribute
(``engine.run_experiment``, ``metrics.write_outputs``, ``cli.main``), so the
wrappers ``tracing.py`` installs are the ones called.

Correctness: every experiment's outputs are read back.  Its
``MetricsLog.checksum()`` (from ``summary.json``) and the benchmark's own
digest of everything it wrote (``output_digest``) must both equal their
pins in golden.json.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from fedqueue import cli, config, engine, metrics
from fedqueue.streams import spawn_seed

WORKLOADS = ("classify-controlled", "quad-dispatch", "sweep-parallel")
ALGOS = ("fedqueue", "fedavg", "fedasync", "fedbuff", "fedcompass")
SWEEP_AXIS = "queue_rho"
SWEEP_VALUES = ("0.1", "0.5", "0.9")
SWEEP_TRIALS = 2
SWEEP_JOBS = 2

# Benchmark seeds fold onto this many pinned input sets, so every seed the
# benchmark is given has golden checksums to compare against.
PIN_SLOTS = 16
SMOKE_ROUNDS = 3     # round count of the harness smoke test, also pinned


def slot_of(seed: int) -> int:
    return seed % PIN_SLOTS


def _tile(values, k):
    return tuple(values[i % len(values)] for i in range(k))


def classify_config(seed: int, algo: str, rounds: int | None = None):
    """The acceptance suite's controlled config (tests/test_acceptance.py)."""
    cfg = config.default_config()
    cfg.protocol.algo = algo
    cfg.protocol.seed = seed
    cfg.protocol.num_rounds = rounds or 120
    cfg.fedqueue.queue_rho = 0.9
    cfg.fedqueue.throughput = (60.0,) * 4
    cfg.fedqueue.e_floor = 20
    cfg.workload.dim = 16
    cfg.workload.classes = 10
    cfg.workload.class_sep = 4.5
    cfg.workload.noise = 1.5
    return cfg


def quad_config(seed: int, algo: str, rounds: int | None = None):
    """Quadratic workload with jobs of about 1-8 local steps: many events
    and dispatches per unit of kernel work."""
    k = 12
    cfg = config.default_config()
    cfg.protocol.algo = algo
    cfg.protocol.seed = seed
    cfg.protocol.num_clients = k
    cfg.protocol.num_rounds = rounds or 400
    cfg.workload.dataset = "quadratic"
    cfg.workload.dim = 16
    fq = cfg.fedqueue
    fq.broadcast_when = "immediate"
    fq.queue_rho = 0.9
    fq.queue_means = _tile((1.0, 2.0, 4.0, 8.0), k)
    fq.queue_fixed = _tile(fq.queue_fixed, k)
    fq.slowdown = (1.0,) * k
    fq.throughput = (1.0,) * k
    cfg.fedasync.num_local_steps = 5
    cfg.fedavg.num_local_steps = _tile((6, 15, 14, 2), k)
    cfg.compass.min_local_steps = 1
    cfg.compass.max_local_steps = 8
    return cfg


@dataclass
class Experiment:
    key: str        # unique within the set; also the output subdirectory
    algo: str
    cfg: object


def sweep_master(slot: int, rounds: int | None = None):
    """The config the sweep starts from: the default config, as ``fedqueue
    sweep`` without ``--config`` uses it, with the set's master seed."""
    cfg = config.default_config()
    cfg.protocol.seed = spawn_seed(slot, "sweep-parallel", "fedqueue", 0)
    if rounds:
        cfg.protocol.num_rounds = rounds
    return cfg


def experiments(workload: str, slot: int, rounds: int | None = None):
    """The experiments of one set, with seeds
    ``spawn_seed(slot, workload, algo, i)``; on ``sweep-parallel`` that is
    the sweep's master seed, and each grid point's config is the one
    ``engine.run_sweep`` derives from it."""
    if workload == "sweep-parallel":
        master = sweep_master(slot, rounds)
        exps = []
        for vi, value in enumerate(SWEEP_VALUES):
            for ti in range(SWEEP_TRIALS):
                point = master.copy()
                config.set_key(point, SWEEP_AXIS, value)
                point.protocol.seed = spawn_seed(master.protocol.seed, vi, ti)
                exps.append(Experiment(f"{SWEEP_AXIS}={value}/trial{ti}",
                                       point.protocol.algo, point))
        return exps
    make = {"classify-controlled": classify_config,
            "quad-dispatch": quad_config}[workload]
    return [Experiment(f"{algo}/0", algo,
                       make(spawn_seed(slot, workload, algo, 0), algo, rounds))
            for algo in ALGOS]


def first_config(workload: str, slot: int, rounds: int | None = None):
    """Config of the first experiment a set runs (used by the set-up probe)."""
    return experiments(workload, slot, rounds)[0].cfg


def pin_key(workload: str, slot: int, rounds: int | None, exp_key: str) -> str:
    return f"{workload}/r{rounds or 'full'}/s{slot}/{exp_key}"


@dataclass
class SetResult:
    wall_s: float
    host_s: dict = field(default_factory=dict)     # algo -> host seconds
    checksums: dict = field(default_factory=dict)  # exp key -> from summary.json
    digests: dict = field(default_factory=dict)    # exp key -> output_digest
    errors: dict = field(default_factory=dict)     # exp key -> reason
    local_steps: int = 0
    event_lines: int = 0
    output_bytes: int = 0
    speed_factor: float = 1.0   # normalization of this set's host times


def output_digest(summary: dict, rounds_csv: bytes, events: bytes) -> str:
    """sha256 of what a run wrote: summary.json without its checksum field,
    rounds.csv and events.jsonl.  It covers what ``MetricsLog.checksum()``
    leaves out (the event stream, the CSV, the summary statistics)."""
    body = {k: v for k, v in summary.items() if k != "checksum"}
    h = hashlib.sha256(json.dumps(body, sort_keys=True).encode())
    h.update(rounds_csv)
    h.update(events)
    return h.hexdigest()


def _read_run_dir(run_dir: Path, res: SetResult, key: str) -> None:
    """Check one run's written outputs and fold them into the set result."""
    summary = json.loads((run_dir / "summary.json").read_text())
    rounds_csv = (run_dir / "rounds.csv").read_bytes()
    events = (run_dir / "events.jsonl").read_bytes()
    res.checksums[key] = summary["checksum"]
    res.digests[key] = output_digest(summary, rounds_csv, events)
    if summary["summary"]["failed"]:
        res.errors[key] = "log.failed: " + summary["summary"]["failure_reason"]
    res.local_steps += summary["summary"]["total_local_steps"]
    res.event_lines += events.count(b"\n")
    res.output_bytes += sum(p.stat().st_size for p in run_dir.iterdir())


def run_set(workload: str, slot: int, rounds: int | None, out_dir: Path,
            between=None, jobs: int = SWEEP_JOBS) -> SetResult:
    """Run the five algorithms and write their outputs, like ``fedqueue run``,
    or, on ``sweep-parallel``, the sweep with ``jobs`` workers.

    ``between()`` runs untimed before each experiment (before the sweep);
    the set's wall time is the sum of the experiments' host times.
    """
    if workload == "sweep-parallel":
        return _run_sweep(slot, rounds, out_dir, between, jobs)
    exps = experiments(workload, slot, rounds)
    res = SetResult(wall_s=0.0)
    for exp in exps:
        if between is not None:
            between()
        t0 = time.perf_counter()
        try:
            log = engine.run_experiment(exp.cfg)
            metrics.write_outputs(log, out_dir / exp.key)
        except Exception as exc:  # a crash is a failed experiment, not a crashed benchmark
            res.errors[exp.key] = f"{type(exc).__name__}: {exc}"
        res.host_s[exp.algo] = time.perf_counter() - t0
    res.wall_s = sum(res.host_s.values())
    for exp in exps:
        if exp.key not in res.errors:
            _read_run_dir(out_dir / exp.key, res, exp.key)
    return res


def _run_sweep(slot: int, rounds: int | None, out_dir: Path, between,
               jobs: int) -> SetResult:
    """``fedqueue sweep --axis queue_rho --values 0.1,0.5,0.9 --trials 2
    --jobs JOBS`` on the default config (``rounds`` rounds if given),
    through ``cli.main``."""
    exps = experiments("sweep-parallel", slot, rounds)
    master = sweep_master(slot, rounds)
    argv = ["sweep", "--out", str(out_dir), "--force", "--axis", SWEEP_AXIS,
            "--values", ",".join(SWEEP_VALUES), "--trials", str(SWEEP_TRIALS),
            "--jobs", str(jobs), "--seed", str(master.protocol.seed)]
    if rounds:
        out_dir.mkdir(parents=True, exist_ok=True)
        config.save_config(master, out_dir.parent / "sweep-config.ini")
        argv += ["--config", str(out_dir.parent / "sweep-config.ini")]
    res = SetResult(wall_s=0.0)
    if between is not None:
        between()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            res.errors["sweep"] = f"fedqueue sweep exited with {code}"
    except Exception as exc:
        res.errors["sweep"] = f"{type(exc).__name__}: {exc}"
    res.wall_s = time.perf_counter() - t0
    res.host_s[master.protocol.algo] = res.wall_s
    if not res.errors:
        for exp in exps:
            _read_run_dir(out_dir / exp.key, res, exp.key)
    return res


def failures(res: SetResult, workload: str, slot: int, rounds: int | None,
             pins: dict) -> dict:
    """Experiment key -> reason, for every experiment of the set that failed:
    an exception, ``log.failed``, or a checksum or output digest other than
    its pin."""
    bad = dict(res.errors)
    for key, checksum in res.checksums.items():
        if key in bad:
            continue
        pin = pins.get(pin_key(workload, slot, rounds, key))
        digest = res.digests[key]
        if pin is None:
            bad[key] = "no pinned checksum"
        elif pin["checksum"] != checksum:
            bad[key] = f"checksum {checksum[:12]} != pinned {pin['checksum'][:12]}"
        elif pin["outputs"] != digest:
            bad[key] = f"output digest {digest[:12]} != pinned {pin['outputs'][:12]}"
    return bad
