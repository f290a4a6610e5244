"""Run logs, reported metrics, and numerical checks of the staleness bound.

A MetricsLog records one experiment as one stream of events; its arrival
records, evaluations and skipped rounds are views of that stream, and
every reported quantity (staleness distribution, admission statistics,
normalized delays, time-to-quality, prediction-error statistics) is a pure
function over the finished log.  A job is one record in it: its dispatch,
job_start and arrival events hold its ClientUpdate, an aggregate holds the
list of updates it applied, and each event reads the values its kind
declares in EVENT_FIELDS from what it holds.  `write_outputs` streams the
output files a chunk of records at a time, so a run's memory is about its
log.  The bound checks live here too: the closed form for the required
safety buffer and its Monte Carlo verification.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, islice
from operator import attrgetter, itemgetter

import numpy as np

from . import protocol
from .streams import substream

__all__ = [
    "EVENT_FIELDS", "Event", "MetricsLog",
    "StalenessBoundParams", "time_to_target", "delay_statistics",
    "admission_summary", "delta_threshold",
    "budget_collapse_rho", "staleness_bound_violation_rate", "prediction_error_stats",
    "delayed_quadratic_descent", "write_outputs",
]

# accuracy targets of summary()'s time_to_target table
TARGETS = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95)


# The field names of each event kind, in the order events.jsonl writes them
# after "t" and "kind".  `MetricsLog.event` takes exactly these names for
# the kinds that hold their values, not a record.
EVENT_FIELDS = {
    "warmup_probe": ("client", "q"),
    "eval": ("loss", "accuracy"),
    "dispatch": ("client", "round", "steps", "eta", "q_hat"),
    "job_start": ("client",),
    "arrival": ("client", "round", "q", "steps"),
    "aggregate": ("round", "clients", "taus"),
    "skipped_round": ("round",),
}

# the kinds whose event holds a job's ClientUpdate
_JOB_KINDS = ("dispatch", "job_start", "arrival")


def _own(values: tuple) -> tuple:
    return values


# The getter of each kind's values from what its event holds: a job's
# ClientUpdate, an aggregate's applied updates (all of its round), or the
# values themselves.
_VALUES = {
    "warmup_probe": _own,
    "eval": _own,
    "dispatch": attrgetter("client", "submit_round", "steps_done", "eta", "q_hat"),
    "job_start": lambda m: (m.client,),
    "arrival": attrgetter("client", "submit_round", "q", "steps_done"),
    "aggregate": lambda applied: (applied[0].agg_round, [m.client for m in applied],
                                  [m.tau for m in applied]),
    "skipped_round": _own,
}

# JSON values per encoder call: enough to spread the call's own cost, few
# enough that the encoder's pieces stay small next to the log
CHUNK_VALUES = 512


@dataclass(slots=True)
class Event:
    """One entry of a run's record.  `data` is what it holds: a dispatch's,
    job start's or arrival's ClientUpdate, the list of ClientUpdates an
    aggregate applied, or, for the other kinds, the values themselves."""
    t: float                       # virtual time, unrounded
    kind: str
    data: object

    @property
    def values(self) -> tuple:
        """What events.jsonl writes after the time and kind, in the order
        of EVENT_FIELDS[kind], read from `data`."""
        return _VALUES[self.kind](self.data)


# The writer prints each number once: a chunk of records is flattened into
# one list of plain scalars, printed by one encoder call, and the resulting
# tokens are laid into fixed %-templates.  Only numbers and null go through
# the encoder, never strings, so ", " only ever separates two tokens.
_encode = json.JSONEncoder(default=float).encode


def _tokens(values: list) -> tuple:
    """json.dumps(v) of each of `values`, from one encoder call."""
    return tuple(_encode(values)[1:-1].split(", ")) if values else ()


def _list(n: int) -> str:
    return "[" + ", ".join(["%s"] * n) + "]"


def _object(items) -> str:
    """Template of a JSON object: (key, value template) pairs, in order."""
    return "{" + ", ".join(f'"{key}": {value}' for key, value in items) + "}"


def _chunked(items, width: int):
    """Lists of consecutive items of `width` JSON values each, about
    CHUNK_VALUES values a list."""
    it, n = iter(items), max(1, CHUNK_VALUES // width)
    while chunk := list(islice(it, n)):
        yield chunk


def _hash_records(h, records, template: str, values_of, each_chunk=None) -> None:
    """Feed `h` the JSON array of `records`, byte for byte as json.dumps
    writes it, a chunk at a time: the values `values_of` gives for the
    chunk's records are printed by one encoder call and laid into one
    `template` per record.  `each_chunk(chunk, tokens)`, if given, follows
    each chunk."""
    sep = b"["
    for chunk in _chunked(records, template.count("%s")):
        tokens = _tokens(list(chain.from_iterable(map(values_of, chunk))))
        h.update(sep)
        h.update((", ".join([template] * len(chunk)) % tokens).encode())
        sep = b", "
        if each_chunk is not None:
            each_chunk(chunk, tokens)
    h.update(b"]" if sep == b", " else b"[]")


# The checksum's records are JSON objects with sorted keys; an arrival
# record is these attributes of an applied ClientUpdate.
_ARRIVAL_KEYS = ("agg_round", "arrival", "client", "compute_seconds", "q",
                 "q_hat", "steps_done", "submit_round", "submit_time", "tau")
_arrival_sorted = attrgetter(*_ARRIVAL_KEYS)
_ARRIVAL_RECORD = _object((key, "%s") for key in _ARRIVAL_KEYS)
# the fields of a round row (see MetricsLog._round_rows), in order
_ROUND_FIELDS = ("round", "time", "loss", "accuracy", "admitted", "deferred",
                 "mean_tau", "max_tau", "q", "q_hat", "steps_budget", "eta",
                 "steps_done")
_CLIENT_COLUMNS = _ROUND_FIELDS[8:]       # one value per client each


def _round_values(row) -> tuple:
    """A `_round_rows` row's values in sorted-key order, each per-client
    column spread out."""
    (r, time, loss, accuracy, admitted, deferred, mean_tau, max_tau,
     q, q_hat, steps_budget, eta, steps_done) = row
    return (accuracy, admitted, deferred, *eta, loss, max_tau, mean_tau, *q,
            *q_hat, r, *steps_budget, *steps_done, time)


@cache
def _round_record(k: int) -> str:
    """The checksum's template of a round row with k clients."""
    return _object((key, _list(k) if key in _CLIENT_COLUMNS else "%s")
                   for key in sorted(_ROUND_FIELDS))


@cache
def _client_cells(k: int):
    """Getter of a round row's per-client tokens in rounds.csv's order."""
    labels = _round_values((*_ROUND_FIELDS[:8],
                            *([(c, j) for j in range(k)] for c in _CLIENT_COLUMNS)))
    index = {label: i for i, label in enumerate(labels)}
    return itemgetter(*(index[c, j] for c in _CLIENT_COLUMNS for j in range(k)))


@dataclass
class MetricsLog:
    algo: str
    seed: int
    num_clients: int
    t_sync: float
    horizon: float
    config: dict = field(default_factory=dict)
    events: list = field(default_factory=list)       # Event: the run's record
    total_local_steps: int = 0
    failed: bool = False
    failure_reason: str = ""
    final_model: object = None   # ending global parameter vector

    def event(self, t: float, kind: str, data=None, **values) -> None:
        """Record an event: `data` is the job's ClientUpdate for a dispatch,
        job_start or arrival, and for an aggregate the non-empty list of the
        updates it applied, all of one round; for the other kinds `values`
        are the kind's EVENT_FIELDS, in order."""
        if kind in _JOB_KINDS:
            if values or type(data) is not protocol.ClientUpdate:
                raise ValueError(f"event {kind!r} holds a ClientUpdate and no "
                                 f"fields; got {type(data).__name__} and "
                                 f"{tuple(values)}")
        elif kind == "aggregate":
            rounds = {m.agg_round if type(m) is protocol.ClientUpdate else None
                      for m in data} if type(data) is list else set()
            if values or len(rounds) != 1 or None in rounds:
                raise ValueError("event 'aggregate' holds a non-empty list of "
                                 "ClientUpdates applied in one round, and no "
                                 "fields")
        elif data is None and EVENT_FIELDS.get(kind) == tuple(values):
            data = tuple(values.values())
        else:
            raise ValueError(f"event {kind!r} with fields {tuple(values)}; "
                             f"declared: {EVENT_FIELDS.get(kind)}")
        self.events.append(Event(t, kind, data))

    def _evals(self):
        return ((e.t, *e.data) for e in self.events if e.kind == "eval")

    @property
    def evals(self) -> list:
        """(time, loss, accuracy) of every evaluation, in order."""
        return list(self._evals())

    def _arrivals(self):
        return (a for e in self.events if e.kind == "aggregate" for a in e.data)

    @property
    def arrivals(self) -> list:
        """The applied ClientUpdates, in order of application."""
        return list(self._arrivals())

    @property
    def skipped_rounds(self) -> int:
        return sum(1 for e in self.events if e.kind == "skipped_round")

    def _round_rows(self):
        """One row per aggregation or skipped round, in order: a tuple of
        the _ROUND_FIELDS, each per-client column (observed q, predicted
        q_hat, budget E, eta, steps done) a tuple over the clients, NaN
        where the row has no value for a client.  `admitted` counts the
        updates aggregated, and mean_tau and max_tau are their staleness.

        Fedqueue keys a row by submit round: the dispatch columns of the jobs
        submitted in it (a client's last one wins), and `deferred` counts
        those admitted to a later round.  A baseline's row is one
        aggregation: the applied updates' q and steps, and `deferred` counts
        the stale ones among them.
        """
        # one row meaning for both families changes the pinned outputs; the
        # deliberate re-pin that does it (ROADMAP.md) removes this branch
        by_submit = self.algo == "fedqueue"
        nan = float("nan")
        blank = (nan,) * 5
        clients = range(self.num_clients)
        if by_submit:
            stale = Counter(a.submit_round for a in self._arrivals() if a.tau >= 1)
        cols, loss, accuracy = {}, nan, None
        for e in self.events:
            kind = e.kind
            if kind == "eval":
                loss, accuracy = e.data
            elif kind == "dispatch":
                if by_submit:
                    m = e.data
                    # (q, q_hat, steps_budget, eta, steps_done)
                    cols.setdefault(m.submit_round, {})[m.client] = (
                        m.q, m.q_hat, m.steps_done, m.eta, m.steps_done)
            elif kind == "aggregate" or kind == "skipped_round":
                if kind == "aggregate":
                    applied = e.data
                    r, taus = applied[0].agg_round, [a.tau for a in applied]
                else:
                    (r,), applied, taus = e.data, (), ()
                if by_submit:
                    mine, deferred = cols.pop(r, {}), stale[r]
                else:
                    mine = {a.client: (a.q, nan, nan, nan, a.steps_done)
                            for a in applied}
                    deferred = sum(1 for tau in taus if tau >= 1)
                yield (r, e.t, loss, accuracy, len(taus), deferred,
                       sum(taus) / len(taus) if taus else 0.0,
                       max(taus) if taus else 0,
                       *zip(*[mine.get(k, blank) for k in clients]))

    def checksum(self, each_rounds_chunk=None) -> str:
        """sha256 of json.dumps({"rounds": [dict(zip(_ROUND_FIELDS, row))
        for row in _round_rows()], "arrivals": [{key: getattr(a, key) for
        key in _ARRIVAL_KEYS} for a in arrivals], "evals": evals},
        sort_keys=True, default=float), hashed a chunk of records at a time
        as it is printed.  `each_rounds_chunk`, if given, is called with each
        chunk of round rows (see `_round_rows`) once it is hashed, and with
        the rows' tokens, their printed values in `_round_values` order."""
        h = hashlib.sha256(b'{"arrivals": ')
        _hash_records(h, self._arrivals(), _ARRIVAL_RECORD, _arrival_sorted)
        h.update(b', "evals": ')
        _hash_records(h, self._evals(), _list(3), iter)
        h.update(b', "rounds": ')
        _hash_records(h, self._round_rows(), _round_record(self.num_clients),
                      _round_values, each_rounds_chunk)
        h.update(b"}")
        return h.hexdigest()

    def summary(self) -> dict:
        arrivals = self.arrivals
        p_late, e_hat_d, r_d = delay_statistics(self, arrivals)
        taus = [a.tau for a in arrivals]
        dispatches = sum(1 for e in self.events if e.kind == "dispatch")
        # one pass over the evaluations; TARGETS ascend, so those reached
        # are a prefix of them
        max_acc = final_acc = final_loss = None
        reached = []
        for t, loss, acc in self._evals():
            final_loss = loss
            if acc is None:
                continue
            if max_acc is None or acc > max_acc:      # as max() picks
                max_acc = acc
            final_acc = acc
            while len(reached) < len(TARGETS) and acc >= TARGETS[len(reached)]:
                reached.append(t)
        reached += [None] * (len(TARGETS) - len(reached))
        return {
            "algo": self.algo,
            "seed": self.seed,
            "failed": self.failed,
            "failure_reason": self.failure_reason,
            "max_accuracy": max_acc,
            "final_accuracy": final_acc,
            "final_loss": final_loss,
            "time_to_target": {str(t): at for t, at in zip(TARGETS, reached)},
            "dispatches": dispatches,
            "transfers": 2 * dispatches,
            "total_local_steps": self.total_local_steps,
            "p_late": p_late,
            "late_mean_ratio": e_hat_d,
            "max_delay_ratio": r_d,
            "mean_tau": float(np.mean(taus)) if taus else 0.0,
            "max_tau": int(max(taus)) if taus else 0,
            "skipped_rounds": self.skipped_rounds,
            "per_client": admission_summary(self, arrivals),
            "prediction_error": prediction_error_stats(self, arrivals),
        }


# ---------------------------------------------------------------------------
# reported metrics
# ---------------------------------------------------------------------------

def time_to_target(evals: list, target: float):
    """First virtual time the accuracy reaches the target, over a log's
    `evals` (time, loss, accuracy).

    Returns None when the run never got there (or has no accuracy).
    """
    for t, _, acc in evals:
        if acc is not None and acc >= target:
            return t
    return None


def _by_client(log: MetricsLog, arrivals):
    """The arrivals of each client, in arrival order, from one pass."""
    groups = [[] for _ in range(log.num_clients)]
    for a in arrivals:
        groups[a.client].append(a)
    return groups


def delay_statistics(log: MetricsLog, arrivals: list | None = None):
    """(P_late, conditional mean late ratio, max ratio) over all arrivals;
    `arrivals`, if given, is the log's `arrivals` view, already derived.

    Ratios are (arrival - submit time) / T_sync; an arrival is late when its
    ratio exceeds 1.  The conditional mean is None when nothing was late.
    """
    if arrivals is None:
        arrivals = log.arrivals
    if not arrivals:
        return 0.0, None, 0.0
    ratios = np.fromiter((a.ratio(log.t_sync) for a in arrivals), float, len(arrivals))
    late = ratios[ratios > 1.0]
    p_late = float(len(late) / len(ratios))
    e_hat_d = float(late.mean()) if len(late) else None
    return p_late, e_hat_d, float(ratios.max())


def admission_summary(log: MetricsLog, arrivals: list | None = None):
    """Per-client (submitted, admitted in-round, deferred, max delay ratio);
    `arrivals` as in `delay_statistics`.

    Counts cover resolved updates: submitted = admitted (tau = 0) + deferred
    (tau >= 1); jobs still in flight at the horizon are not counted.
    """
    if arrivals is None:
        arrivals = log.arrivals
    rows = []
    for k, mine in enumerate(_by_client(log, arrivals)):
        admitted = sum(1 for a in mine if a.tau == 0)
        deferred = sum(1 for a in mine if a.tau >= 1)
        ratio = max((a.ratio(log.t_sync) for a in mine), default=0.0)
        rows.append({"client": k, "submitted": admitted + deferred,
                     "admitted": admitted, "deferred": deferred,
                     "max_delay_ratio": ratio})
    return rows


def prediction_error_stats(log: MetricsLog, arrivals: list | None = None):
    """Per-client sample mean/std of e = q - q_hat over recorded arrivals;
    `arrivals` as in `delay_statistics`.

    Clients with fewer than two recorded arrivals report None statistics.
    """
    if arrivals is None:
        arrivals = log.arrivals
    rows = []
    for k, mine in enumerate(_by_client(log, arrivals)):
        errs = np.array([a.q - a.q_hat for a in mine if not math.isnan(a.q_hat)])
        if len(errs) < 2:
            rows.append({"client": k, "mean": None, "std": None, "count": int(len(errs))})
            continue
        rows.append({"client": k, "mean": float(errs.mean()),
                     "std": float(errs.std(ddof=1)), "count": int(len(errs))})
    return rows


# ---------------------------------------------------------------------------
# staleness-bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StalenessBoundParams:
    """Constants of the high-probability admission staleness bound."""

    rho: np.ndarray          # per-client sub-Gaussian scales of q - q_hat
    epsilon: float           # failure probability in (0, 1)
    gamma: float             # analysis threshold >= 0; tau_max = ceil(1 + gamma)

    def __post_init__(self):
        object.__setattr__(self, "rho", np.atleast_1d(np.asarray(self.rho, dtype=float)))
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must be in (0, 1)")
        if not 0 <= self.gamma < math.inf:      # NaN fails too
            raise ValueError("gamma must be finite and >= 0")
        if not np.all((self.rho >= 0) & (self.rho < math.inf)):
            raise ValueError("rho must be finite and >= 0")

    @property
    def tau_max(self) -> int:
        return math.ceil(1.0 + self.gamma)


def delta_threshold(params: StalenessBoundParams, t_sync: float, num_clients: int,
                    num_rounds: int) -> float:
    """Smallest safety buffer certifying the staleness bound:

    delta* = max(0, max_k sqrt(2 rho_k^2 ln(K R / eps)) - gamma T_sync).

    Raises ValueError when the bound overflows float64 (a huge rho), so no
    infinite buffer is ever certified.
    """
    if num_clients * num_rounds < 1:
        raise ValueError("need K * R >= 1")
    log_term = math.log(num_clients * num_rounds / params.epsilon)
    with np.errstate(over="ignore"):
        need = float(np.max(np.sqrt(2.0 * params.rho ** 2 * log_term)))
    if need == math.inf:
        raise ValueError(f"delta* overflows float64 at rho = {params.rho.max():g}")
    return max(0.0, need - params.gamma * t_sync)


def budget_collapse_rho(gamma: float, epsilon: float, t_sync: float,
                        num_clients: int, num_rounds: int) -> float:
    """The rho from which delta* >= T_sync, for equal rho_k:

    rho = (1 + gamma) T_sync / sqrt(2 ln(K R / eps)).

    From there on the certified buffer leaves a job no time, so every
    budget collapses to E_floor: the bound is certified usefully only
    below this rho.
    """
    if num_clients * num_rounds < 1:
        raise ValueError("need K * R >= 1")
    log_term = math.log(num_clients * num_rounds / epsilon)
    return (1.0 + gamma) * t_sync / math.sqrt(2.0 * log_term)


def staleness_bound_violation_rate(params: StalenessBoundParams, t_sync: float,
                                   delta: float, num_clients: int, num_rounds: int,
                                   trials: int, seed: int = 0) -> float:
    """Monte Carlo check of the bound: fraction of simulated runs containing
    any staleness above tau_max.

    Each trial draws K*R prediction errors; a job submitted at r T_sync whose
    compute fills its budget arrives at r T_sync + T_sync + e - delta, and is
    admitted at the first cutoff it meets.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    # keyed on the exact floats: nearby grid points get their own draws
    rng = substream(seed, "bound-mc", float(params.gamma).hex(), float(delta).hex())
    tau_max = params.tau_max
    rho = np.broadcast_to(params.rho, (num_clients,)) if params.rho.size == 1 \
        else params.rho
    if np.all(rho == 0):
        return 0.0
    violations = 0
    chunk = max(1, min(trials, int(2e6 // max(1, num_clients * num_rounds))))
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        e = rng.standard_normal((n, num_rounds, num_clients)) * rho
        arrival_rel = t_sync + e - delta            # within-round completion time
        tau = np.ceil(np.maximum(arrival_rel, 0.0) / t_sync) - 1.0
        tau = np.maximum(tau, 0.0)
        violations += int(np.sum(np.any(tau > tau_max, axis=(1, 2))))
        done += n
    return violations / trials


def delayed_quadratic_descent(objective, tau: int, rounds: int, eta: float,
                              steps_per_round: int) -> np.ndarray:
    """Aggregate full-gradient rounds computed from a tau-rounds-old iterate.

    Returns the per-round squared global gradient norms; the stress probe
    behind the convergence-shape check (stale dynamics must not beat fresh
    ones on average).
    """
    w = objective.init_point()
    history = [w.copy()]
    norms = np.empty(rounds)
    for r in range(rounds):
        norms[r] = float(np.sum(objective.gradient(w) ** 2))
        w_ref = history[max(0, len(history) - 1 - tau)]
        deltas = []
        for k in range(objective.num_clients):
            wk = w_ref.copy()
            for _ in range(steps_per_round):
                wk = wk - eta * objective.client_gradient(k, wk)
            deltas.append((float(objective.weights[k]), wk - w_ref))
        w = protocol.aggregate(w, deltas)
        history.append(w.copy())
    return norms


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def rounds_header(num_clients: int):
    cols = ["round", "time", "loss", "accuracy", "admitted", "deferred",
            "mean_tau", "max_tau"]
    for tag in ("q", "qhat", "E", "eta", "steps"):
        cols += [f"{tag}{k}" for k in range(num_clients)]
    return cols


# rounds.csv lines as csv.writer writes them: the head cells from the row,
# the per-client cells from the checksum's tokens, a NaN or None cell empty
_CSV_LINE = "%s,%.6f,%.8f,%.6f,%s,%s,%.4f,%s,%s\r\n"
_CSV_LINE_NO_ACCURACY = "%s,%.6f,%.8f,%.0s,%s,%s,%.4f,%s,%s\r\n"   # %.0s prints None as ""
_CSV_TOKENS = (("NaN", ""), ("null", ""), ("Infinity", "inf"))   # -Infinity too


def _csv_lines(rows, tokens, k: int) -> str:
    """rounds.csv lines of a chunk of `_round_rows` rows and their tokens."""
    cells, width = _client_cells(k), len(tokens) // len(rows)
    templates, args = [], []
    for i, row in enumerate(rows):
        templates.append(_CSV_LINE_NO_ACCURACY if row[3] is None else _CSV_LINE)
        args += row[:8]
        args.append(",".join(cells(tokens[i * width:(i + 1) * width])))
    text = "".join(templates) % tuple(args)
    for token, cell in _CSV_TOKENS:
        text = text.replace(token, cell)
    return text


# events.jsonl lines: one template per kind, the aggregate's per list length
def _event_line(kind: str, values: dict) -> str:
    return _object([("t", "%s"), ("kind", f'"{kind}"'), *values.items()]) + "\n"


_EVENT_LINES = {kind: _event_line(kind, dict.fromkeys(names, "%s"))
                for kind, names in EVENT_FIELDS.items() if kind != "aggregate"}
_LINE_WIDTH = 1 + max(map(len, EVENT_FIELDS.values()))    # values per line, lists aside


@cache
def _aggregate_line(applied: int) -> str:
    return _event_line("aggregate", {"round": "%s", "clients": _list(applied),
                                     "taus": _list(applied)})


def _event_lines(chunk) -> str:
    """events.jsonl lines of a chunk of events."""
    templates, values = [], []
    for e in chunk:
        values.append(round(float(e.t), 9))
        kind = e.kind
        held = _VALUES[kind](e.data)          # e.values, without the call
        if kind == "aggregate":
            r, clients, taus = held
            templates.append(_aggregate_line(len(clients)))
            values += (r, *clients, *taus)
        else:
            templates.append(_EVENT_LINES[kind])
            values += held
    return "".join(templates) % _tokens(values)


def write_outputs(log: MetricsLog, out_dir):
    """Write summary.json, rounds.csv, and events.jsonl into out_dir, and
    return the summary document written.

    The writer streams a chunk of records at a time, each chunk printed by
    one encoder call: rounds.csv is written in the pass that hashes the
    round rows for the checksum, from the same tokens, so beyond the log it
    holds one chunk of records and the summary's lists."""
    out_dir.mkdir(parents=True, exist_ok=True)
    k = log.num_clients
    with open(out_dir / "rounds.csv", "w", newline="") as fh:
        fh.write(",".join(rounds_header(k)) + "\r\n")
        checksum = log.checksum(lambda rows, tokens: fh.write(_csv_lines(rows, tokens, k)))
    summary = {
        "algo": log.algo,
        "seed": log.seed,
        "num_clients": log.num_clients,
        "horizon": log.horizon,
        "config": log.config,
        "summary": log.summary(),
        "checksum": checksum,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, default=float) + "\n")
    with open(out_dir / "events.jsonl", "w") as fh:
        for chunk in _chunked(log.events, _LINE_WIDTH):
            fh.write(_event_lines(chunk))
    return summary
