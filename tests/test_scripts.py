"""Smoke tests of the scripts in scripts/."""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scalability_study_runs_every_method_at_every_k():
    scalability = load_script("scalability")
    logs, rows = scalability.study((4, 8), 1, 0.8, rounds=3)
    assert [log.num_clients for log in logs] == [4] * 5 + [8] * 5
    assert not any(log.failed for log in logs)
    assert [(row["clients"], row["method"]) for row in rows] == [
        (k, method) for k in (4, 8) for method in scalability.METHODS]
