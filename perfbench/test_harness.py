"""Tests of the benchmark harness itself, on a few rounds per workload.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from fedqueue import engine  # noqa: E402

PINS = json.loads((HERE / "golden.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ROUNDS = workloads.SMOKE_ROUNDS


def _checkout(tmp_path: Path, with_sources: bool = True) -> Path:
    """A copy of what the benchmark may rely on: BENCHMARK.json, the
    benchmark's own files and, unless told otherwise, src/."""
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(HERE, root / HERE.name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_sources:
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    return root


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_gives_untraced_checksums(tmp_path, workload):
    plain = workloads.run_set(workload, 1, ROUNDS, tmp_path / "plain")
    recorder = tracing.Recorder()
    with tracing.Tracer(recorder):
        # spans are recorded in this process only: the sweep runs in it
        traced = workloads.run_set(workload, 1, ROUNDS, tmp_path / "traced", jobs=1)
    assert not hasattr(engine.run_experiment, "__wrapped__")  # wrappers removed
    assert not plain.errors and not traced.errors
    assert traced.checksums == plain.checksums
    assert traced.digests == plain.digests
    assert len(plain.checksums) == len(workloads.experiments(workload, 1, ROUNDS))
    assert not workloads.failures(plain, workload, 1, ROUNDS, PINS)
    recorder.dump(tmp_path / "spans.npz")
    spans = tracing.summarize(tmp_path / "spans.npz")["spans"]
    assert spans["learn.stochastic_gradient"][0] > 0
    assert spans["streams.substream"][0] > 0   # bound in engine, not only streams


def test_output_digest_mismatch_fails_the_experiment(tmp_path):
    res = workloads.run_set("quad-dispatch", 2, ROUNDS, tmp_path)
    assert not workloads.failures(res, "quad-dispatch", 2, ROUNDS, PINS)
    events = tmp_path / "fedbuff/0" / "events.jsonl"
    events.write_bytes(events.read_bytes().replace(b'"arrival"', b'"arrivaL"', 1))
    workloads._read_run_dir(tmp_path / "fedbuff/0", res, "fedbuff/0")
    bad = workloads.failures(res, "quad-dispatch", 2, ROUNDS, PINS)
    assert list(bad) == ["fedbuff/0"] and "output digest" in bad["fedbuff/0"]


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in workloads.WORKLOADS]
                         + [("quad-dispatch", 1), ("sweep-parallel", 1)])
def test_smoke_run_prints_contract_result(tmp_path, workload, trace):
    proc = _bench(_checkout(tmp_path), "--workload", workload, "--seed", "21",
                  "--seconds", "0.1", "--trace", str(trace), "--rounds", str(ROUNDS))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= len(workloads.experiments(workload, 0, ROUNDS))
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
    assert {"nproc", "numpy", "blas", "OPENBLAS_NUM_THREADS", "git_commit"} <= set(env)


def test_run_without_sources_fails_without_result(tmp_path):
    proc = _bench(_checkout(tmp_path, with_sources=False), "--workload",
                  "quad-dispatch", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
