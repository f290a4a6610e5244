"""fedqueue benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's experiment set (see workloads.py) one set after another
until S seconds have passed, at least once, and checks each experiment's
``MetricsLog.checksum()``, read back from the ``summary.json`` it wrote, and
the benchmark's own digest of its output files against their pins in
golden.json.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics:
``--trace 0`` gives the end-to-end metrics, measured untraced; ``--trace 1``
gives the per-layer metrics, from spans recorded around calls into each
fedqueue module (tracing.py).  The line before it records the environment.
Outputs go under ``.bench_out/`` in the checkout.  README.md has the metric
table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
SETUP_CHUNKS = 2     # reference chunks before each set-up probe
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("classify-controlled", "quad-dispatch", "sweep-parallel")


def import_program() -> None:
    """Put the checkout's own ``src/`` first on the path and import it.
    The benchmark modules that import fedqueue are imported after this."""
    if not (SRC / "fedqueue" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fedqueue sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import fedqueue
    if Path(fedqueue.__file__).resolve().parent != SRC / "fedqueue":
        sys.exit(f"perfbench: imported fedqueue from {fedqueue.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy < 1.26 has no mode argument
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "blas": blas_name}
    env.update({var: os.environ.get(var) for var in THREAD_VARS})  # None = unset
    env["git_commit"] = commit
    return env


def measure_setup(workload: str, slot: int, rounds: int | None, speed) -> list[float]:
    """Wall seconds of fresh interpreters doing the set-up (setup_probe.py),
    each after a reference chunk sampled into ``speed``."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(slot)]
    if rounds:
        cmd.append(str(rounds))
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample(SETUP_CHUNKS)
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs sets of one workload and collects failures against the pins."""

    def __init__(self, workload: str, slot: int, rounds: int | None, out: Path):
        import workloads
        self.wl = workloads
        # the sweep's two workers are measured against a two-process reference
        self.speed = calibrate.Speedometer(
            procs=workloads.SWEEP_JOBS if workload == "sweep-parallel" else 1)
        self.workload, self.slot, self.rounds, self.out = workload, slot, rounds, out
        pins_path = HERE / "golden.json"
        self.pins = json.loads(pins_path.read_text()) if pins_path.exists() else {}
        self.set_size = len(workloads.experiments(workload, slot, rounds))
        self.attempted = 0
        self.failures: dict[str, str] = {}

    def run(self, tag: str, **kwargs):
        """One set, with reference chunks sampled before each experiment
        and after the set."""
        first = len(self.speed.samples)
        res = self.wl.run_set(self.workload, self.slot, self.rounds,
                              self.out / "runs", between=self.speed.sample, **kwargs)
        self.speed.sample()
        res.speed_factor = self.speed.factor(since=first)
        self.attempted += self.set_size
        bad = self.wl.failures(res, self.workload, self.slot, self.rounds, self.pins)
        self.failures.update({f"{tag}/{key}": why for key, why in bad.items()})
        return res


def end_to_end(args, runner: Runner) -> tuple[dict, dict]:
    """Medians over the sets, normalized by all of the run's reference
    chunks (calibrate.py)."""
    setup_speed = calibrate.Speedometer()
    setup = measure_setup(args.workload, runner.slot, args.rounds, setup_speed)
    sets = []
    start = time.perf_counter()
    while not sets or time.perf_counter() - start < args.seconds:
        sets.append(runner.run(f"set{len(sets)}"))
    median = statistics.median
    raw_wall = median(s.wall_s for s in sets)
    steps = median(s.local_steps / s.wall_s for s in sets)
    events = median(s.event_lines / s.wall_s for s in sets)
    speed = runner.speed.factor()
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {
        "setup_s": (median(setup) * setup_speed.factor(), "s"),
        "wall_s": (raw_wall * speed, "s"),
        "local_steps_per_s": (steps / speed, "1/s"),
        "events_per_s": (events / speed, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    detail = {"raw": {"setup_s": median(setup), "wall_s": raw_wall,
                      "local_steps_per_s": steps, "events_per_s": events},
              "speed_factor": speed, "setup_speed_factor": setup_speed.factor(),
              "ref_chunk_s": runner.speed.samples, "setup_ref_chunk_s": setup_speed.samples,
              "setup_s": setup, "set_wall_s": [s.wall_s for s in sets],
              "set_speed_factor": [s.speed_factor for s in sets],
              "host_s": [s.host_s for s in sets]}
    return metrics, detail


def per_layer(args, runner: Runner) -> tuple[dict, dict]:
    """Alternates untraced and traced sets.  On ``sweep-parallel`` the traced
    and its untraced twin run the sweep with one worker, in this process,
    where the spans are recorded; an untraced sweep with the workload's own
    workers gives ``engine.run_sweep.speedup``."""
    import tracing
    sweep = args.workload == "sweep-parallel"
    one = {"jobs": 1} if sweep else {}
    recorder = tracing.Recorder()
    untraced, traced, parallel = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        if sweep:
            parallel.append(runner.run(f"parallel{len(parallel)}"))
        untraced.append(runner.run(f"untraced{len(untraced)}", **one))
        with tracing.Tracer(recorder):
            traced.append(runner.run(f"traced{len(traced)}", **one))
    spans_path = runner.out / "trace" / "spans.npz"
    recorder.dump(spans_path)
    summary = tracing.summarize(spans_path)

    def norm_wall(sets):
        return statistics.median(s.wall_s * s.speed_factor for s in sets)

    metrics = layer_metrics(summary, traced)
    metrics["engine.run_sweep.speedup"] = (
        norm_wall(untraced) / norm_wall(parallel) if parallel else 0.0, "ratio")
    metrics["trace.overhead_s"] = (norm_wall(traced) - norm_wall(untraced), "s")
    metrics["host.ref_chunk_ms"] = (statistics.fmean(runner.speed.samples) * 1e3, "ms")
    detail = {"speed_factor": [s.speed_factor for s in parallel + untraced + traced],
              "parallel_wall_s": [s.wall_s for s in parallel],
              "untraced_wall_s": [s.wall_s for s in untraced],
              "traced_wall_s": [s.wall_s for s in traced],
              "spans": summary["spans"], "counters": summary["counters"]}
    return metrics, detail


def layer_metrics(summary: dict, traced: list) -> dict:
    """Per-layer metrics, per traced set, from the span summary."""
    import tracing
    spans, counters = summary["spans"], summary["counters"]
    n = len(traced)
    wall = sum(s.wall_s for s in traced)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def mean(name, scale, column=1):
        row = spans.get(name, (0, 0.0, 0.0))
        return row[column] / row[0] * scale if row[0] else 0.0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    steps = counters.get("protocol.client_local_update.steps", 0.0)
    run_self = spans.get("engine.run", (0, 0.0, 0.0))[2]
    m = {
        "learn.stochastic_gradient.calls": (calls("learn.stochastic_gradient") / n, "count"),
        "learn.stochastic_gradient.us": (mean("learn.stochastic_gradient", 1e6), "us"),
        "learn.evaluate.calls": (calls("learn.evaluate") / n, "count"),
        "learn.evaluate.us": (mean("learn.evaluate", 1e6), "us"),
        "learn.build_objective.ms": (mean("learn.build_objective", 1e3), "ms"),
        "protocol.client_local_update.calls": (calls("protocol.client_local_update") / n, "count"),
        "protocol.client_local_update.steps": (steps / n, "count"),
        "protocol.client_local_update.us_per_step": (
            ratio(spans.get("protocol.client_local_update", (0, 0.0, 0.0))[1], steps, 1e6), "us"),
        "protocol.client_local_update.self_us_per_step": (
            ratio(spans.get("protocol.client_local_update", (0, 0.0, 0.0))[2], steps, 1e6), "us"),
        "protocol.aggregate.calls": (calls("protocol.aggregate") / n, "count"),
        "protocol.aggregate.us": (mean("protocol.aggregate", 1e6), "us"),
        "streams.substream.calls": (calls("streams.substream") / n, "count"),
        "streams.substream.us": (mean("streams.substream", 1e6), "us"),
        "queue_sim.sample_queue_delay.calls": (calls("queue_sim.sample_queue_delay") / n, "count"),
        "queue_sim.sample_queue_delay.us": (mean("queue_sim.sample_queue_delay", 1e6), "us"),
        "engine.schedule.calls": (calls("engine.schedule") / n, "count"),
        "engine.run.self_s": (run_self / n, "s"),
        "engine.run.self_us_per_event": (ratio(run_self, calls("engine.schedule"), 1e6), "us"),
        "orchestrator.on_arrival.calls": (calls("orchestrator.on_arrival") / n, "count"),
        "orchestrator.on_arrival.self_us": (mean("orchestrator.on_arrival", 1e6, 2), "us"),
        "orchestrator.on_round_boundary.calls": (
            calls("orchestrator.on_round_boundary") / n, "count"),
        "orchestrator.on_round_boundary.self_us": (
            mean("orchestrator.on_round_boundary", 1e6, 2), "us"),
    }
    m["engine.run_sweep.result_bytes"] = (
        counters.get("engine.run_sweep.result_bytes", 0.0) / n, "bytes")
    algo_s = {algo: sum(s.host_s.get(algo, 0.0) for s in traced) / n
              for algo in ("fedqueue", "fedavg", "fedasync", "fedbuff", "fedcompass")}
    for algo, seconds in algo_s.items():
        m[f"orchestrator.{algo}.s"] = (seconds, "s")
    m["orchestrator.baselines.s"] = (sum(algo_s.values()) - algo_s["fedqueue"], "s")
    m.update({
        "metrics.event.calls": (calls("metrics.event") / n, "count"),
        "metrics.write_outputs.ms": (mean("metrics.write_outputs", 1e3), "ms"),
        "metrics.write_outputs.bytes": (sum(s.output_bytes for s in traced) / n, "bytes"),
        "metrics.checksum.ms": (mean("metrics.checksum", 1e3), "ms"),
        "metrics.summary.ms": (mean("metrics.summary", 1e3), "ms"),
    })
    for layer in tracing.LAYERS:
        own = sum(row[2] for name, row in spans.items()
                  if name.split(".", 1)[0] == layer)
        m[f"{layer}.self_share"] = (ratio(own, wall), "share")
    m["trace.spans"] = (summary["span_count"] / n, "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run every experiment for this many rounds "
                             "(smoke test; pins exist for 3)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()
    import workloads

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment()
    runner = Runner(args.workload, workloads.slot_of(args.seed), args.rounds, out)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, detail = measure(args, runner)
    finally:
        runner.speed.close()
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"args": vars(args), "slot": runner.slot, "env": env,
              "failures": runner.failures, "detail": detail, "result": result}
    (out / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    for key, why in runner.failures.items():
        print(f"perfbench: FAILED {key}: {why}", file=sys.stderr)
    print(json.dumps({"env": env, "raw": detail.get("raw")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
