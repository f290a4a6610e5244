"""Machine-speed reference used to normalize the benchmark's host times.

On a shared 2-core host the speed of the same code drifts by 15-25% over
minutes (measured with a fixed loop: means over 20 s windows spread by about
10%, and whole periods ran 25% slower than others), which is wider than any
bound a benchmark may fix.  Each run therefore interleaves fixed reference
chunks between its experiments and scales its host times by
``REF_NOMINAL_S / mean chunk time``: the time the work would have taken on a
machine where one chunk takes ``REF_NOMINAL_S``.  The chunk mixes the two
kinds of work fedqueue does: small NumPy products on a minibatch (the
local-SGD kernel) and Python object, heap and JSON work (the event path and
the log).  It imports nothing from fedqueue, so a change to the program
cannot move it.
"""
from __future__ import annotations

import heapq
import json
import multiprocessing
import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.05
SHARE = 0.1          # reference time as a share of the measured time
_ITERATIONS = 1200


def chunk() -> float:
    """Seconds taken by one fixed reference chunk."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((512, 16))
    w = rng.standard_normal((16, 10))
    y = rng.integers(0, 10, size=512)
    heap: list = []
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        idx = rng.integers(0, 512, size=64)
        logits = x[idx] @ w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(64), y[idx]] -= 1.0
        w -= 1e-3 * (x[idx].T @ p)
        rec = {"t": round(i * 0.1, 9), "kind": "arrival", "client": i % 12,
               "q": float(p[0, 0])}
        heapq.heappush(heap, (rec["t"] + rec["q"], i, rec))
        if len(heap) > 64:
            heapq.heappop(heap)
        if i % 8 == 0:
            json.dumps(rec)
    return time.perf_counter() - start


def _serve(conn) -> None:
    """Helper process: run one chunk per request until told to stop."""
    while conn.recv():
        conn.send(chunk())


class Speedometer:
    """Reference chunks sampled through one run.

    With ``procs`` > 1 every chunk runs at once in this process and in
    ``procs - 1`` helper processes, and a sample is their mean time: the
    reference for work spread over that many processes, which sees
    contention for the cores that a lone chunk does not.  ``close()`` stops
    the helpers.
    """

    def __init__(self, procs: int = 1):
        self.samples: list[float] = []
        self._mark: float | None = None
        self._helpers = []
        for _ in range(procs - 1):
            ours, theirs = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_serve, args=(theirs,), daemon=True)
            proc.start()
            self._helpers.append((proc, ours))

    def _chunk(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        took = chunk()
        return statistics.fmean([took] + [conn.recv() for _, conn in self._helpers])

    def close(self) -> None:
        for proc, conn in self._helpers:
            conn.send(False)
            proc.join()
        self._helpers = []

    def sample(self, chunks: int = 1) -> None:
        """Run at least ``chunks`` reference chunks, and more until they add
        up to ``SHARE`` of the time since the previous call, so the
        reference keeps pace with the work it normalizes."""
        budget = 0.0 if self._mark is None else SHARE * (time.perf_counter() - self._mark)
        spent = 0.0
        while chunks > 0 or spent < budget:
            took = self._chunk()
            self.samples.append(took)
            spent += took
            chunks -= 1
        self._mark = time.perf_counter()

    def factor(self, since: int = 0) -> float:
        """Multiply raw host seconds by this to get normalized seconds;
        ``since`` skips the chunks sampled before that index."""
        return REF_NOMINAL_S / statistics.fmean(self.samples[since:])
