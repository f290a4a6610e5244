"""Spans around calls into each fedqueue module, recorded from outside.

``Tracer`` replaces module and class attributes of the program with timing
wrappers while it is installed and puts the originals back afterwards;
nothing under ``src/`` is edited.  A function is wrapped under every name it
is bound to (``fedqueue.engine.substream`` as well as
``fedqueue.streams.substream``), since callers look it up where they
imported it.

Spans live in flat in-memory arrays (name id, parent index, start, end) and
are written once, by ``Recorder.dump``.
"""
from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute): functions, wrapped under every binding
FUNCTIONS = (
    ("learn.build_objective", "fedqueue.learn", "build_objective"),
    ("protocol.client_local_update", "fedqueue.protocol", "client_local_update"),
    ("protocol.aggregate", "fedqueue.protocol", "aggregate"),
    ("streams.substream", "fedqueue.streams", "substream"),
    ("queue_sim.sample_queue_delay", "fedqueue.queue_sim", "sample_queue_delay"),
    ("engine.run_experiment", "fedqueue.engine", "run_experiment"),
    ("engine.run_sweep", "fedqueue.engine", "run_sweep"),
    ("metrics.write_outputs", "fedqueue.metrics", "write_outputs"),
)

# (span name, module, class, method): methods, wrapped on the class
METHODS = (
    ("learn.stochastic_gradient", "fedqueue.learn", "ClassifyObjective", "stochastic_gradient"),
    ("learn.stochastic_gradient", "fedqueue.learn", "QuadraticObjective", "stochastic_gradient"),
    ("learn.evaluate", "fedqueue.learn", "ClassifyObjective", "evaluate"),
    ("learn.evaluate", "fedqueue.learn", "QuadraticObjective", "evaluate"),
    ("engine.schedule", "fedqueue.engine", "Simulation", "schedule"),
    ("engine.run", "fedqueue.engine", "Simulation", "run"),
    ("engine.submit_job", "fedqueue.engine", "Simulation", "submit_job"),
    ("engine.evaluate", "fedqueue.engine", "Simulation", "evaluate"),
    ("metrics.event", "fedqueue.metrics", "MetricsLog", "event"),
    ("metrics.checksum", "fedqueue.metrics", "MetricsLog", "checksum"),
    ("metrics.summary", "fedqueue.metrics", "MetricsLog", "summary"),
) + tuple(
    (f"orchestrator.{method}", module, cls, method)
    for module, cls in (("fedqueue.engine", "FedQueueOrchestrator"),
                        ("fedqueue.baselines", "FedAvgOrchestrator"),
                        ("fedqueue.baselines", "FedAsyncOrchestrator"),
                        ("fedqueue.baselines", "FedBuffOrchestrator"),
                        ("fedqueue.baselines", "FedCompassOrchestrator"))
    for method in ("start", "on_arrival", "on_round_boundary", "finish"))

LAYERS = ("learn", "protocol", "streams", "queue_sim", "engine",
          "orchestrator", "metrics")


def _count_steps(recorder, result):
    recorder.add("protocol.client_local_update.steps", result[1])


def _count_result_bytes(recorder, result):
    """Pickled size of the logs a sweep returns: what its workers send back."""
    logs = [row["log"] for row in result]
    recorder.add("engine.run_sweep.result_bytes", len(pickle.dumps(logs)))


AFTER = {"protocol.client_local_update": _count_steps,
         "engine.run_sweep": _count_result_bytes}


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, fn, name: str):
        nid_a, par_a, start_a, end_a = self.nid, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        nid = self.name_id(name)
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(nid_a)
            nid_a.append(nid)
            par_a.append(stack[-1] if stack else -1)
            start_a.append(0.0)
            end_a.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                start_a[idx] = t0
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, nid=np.frombuffer(self.nid, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=np.array(self.names, dtype=str),
                 counter_names=np.array(list(self.counters), dtype=str),
                 counter_values=np.array(list(self.counters.values()), dtype=float))


class Tracer:
    """Context manager that installs the recorder's wrappers."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list = []

    def __enter__(self):
        importlib.import_module("fedqueue.baselines")
        importlib.import_module("fedqueue.cli")
        mods = [m for name, m in sys.modules.items()
                if name == "fedqueue" or name.startswith("fedqueue.")]
        for span, module, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(module), attr)
            wrapped = self.recorder.wrap(orig, span)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig, True))
                        setattr(mod, name, wrapped)
        for span, module, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            own = method in cls.__dict__
            orig = getattr(cls, method)
            self._undo.append((cls, method, orig, own))
            setattr(cls, method, self.recorder.wrap(orig, span))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, orig, own = self._undo.pop()
            if own:
                setattr(owner, name, orig)
            else:
                delattr(owner, name)
        return False


def summarize(path: Path) -> dict:
    """Per span name: [calls, inclusive seconds, self seconds], plus the
    counters and the number of spans, from a file written by ``dump``."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        nid, parent = z["nid"], z["parent"]
        dur = z["end"] - z["start"]
        counters = dict(zip((str(n) for n in z["counter_names"]),
                            z["counter_values"].tolist()))
    inner = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(inner, parent[has_parent], dur[has_parent])
    width = len(names)
    calls = np.bincount(nid, minlength=width)
    total = np.bincount(nid, weights=dur, minlength=width)
    own = np.bincount(nid, weights=dur - inner, minlength=width)
    spans = {name: [int(calls[i]), float(total[i]), float(own[i])]
             for i, name in enumerate(names)}
    return {"spans": spans, "counters": counters, "span_count": len(dur)}
