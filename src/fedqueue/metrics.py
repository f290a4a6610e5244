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
# tokens are laid into %-templates.  Only numbers and null go through the
# encoder, never strings, so ", " only ever separates two tokens.  A cell
# that is NaN by its record's definition is template text, not a value, and
# an event's time is printed on its own, once for a run of events that share
# it (`_time_head`).
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


def _hash_records(h, records, width: int, text_of) -> None:
    """Feed `h` the JSON array of `records`, byte for byte as json.dumps
    writes it, a chunk at a time: `text_of(chunk)` prints a chunk's records,
    counted at `width` values each, with one encoder call."""
    sep = b"["
    for chunk in _chunked(records, width):
        h.update(sep)
        h.update(text_of(chunk).encode())
        sep = b", "
    h.update(b"]" if sep == b", " else b"[]")


def _uniform(template: str, values_of):
    """`_hash_records`' text_of for records of one template, filled with
    the values `values_of` gives for each record."""
    def text_of(chunk) -> str:
        tokens = _tokens(list(chain.from_iterable(map(values_of, chunk))))
        return ", ".join([template] * len(chunk)) % tokens
    return text_of


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


def _held_columns(algo: str) -> tuple:
    """The per-client columns a round row of `algo` has values in, for the
    clients it holds; every other per-client cell of the row is NaN."""
    return _CLIENT_COLUMNS if algo == "fedqueue" else ("q", "steps_done")


def _fedqueue_values(row) -> tuple:
    """A fedqueue row's printed values in sorted-key order, each held
    column spread out."""
    (r, time, loss, accuracy, admitted, deferred, mean_tau, max_tau, _,
     q, q_hat, steps_budget, eta, steps_done) = row
    return (accuracy, admitted, deferred, *eta, loss, max_tau, mean_tau, *q,
            *q_hat, r, *steps_budget, *steps_done, time)


def _baseline_values(row) -> tuple:
    """A baseline row's printed values in sorted-key order."""
    r, time, loss, accuracy, admitted, deferred, mean_tau, max_tau, _, q, steps_done = row
    return (accuracy, admitted, deferred, loss, max_tau, mean_tau, *q, r,
            *steps_done, time)


# rounds.csv lines as csv.writer writes them: the head cells from the row,
# the held per-client cells from the checksum's tokens, a NaN or None cell
# empty
_CSV_HEAD = "%s,%.6f,%.8f,%.6f,%s,%s,%.4f,%s,"
_CSV_HEAD_NO_ACCURACY = "%s,%.6f,%.8f,%.0s,%s,%s,%.4f,%s,"   # %.0s prints None as ""
_CSV_TOKENS = (("NaN", ""), ("null", ""), ("Infinity", "inf"))   # -Infinity too


class _RowTemplates(dict):
    """The printing templates of one log's round rows, keyed by the clients
    a row holds and built at the first such row: (the checksum record, the
    rounds.csv cells after the head, the getter of those cells' tokens from
    the row's, the row's count of printed values).  Every cell the row does
    not hold is literal NaN text in the record and empty in the CSV."""

    def __init__(self, algo: str, k: int):
        super().__init__()
        self.k, self.held = k, _held_columns(algo)
        self.spread = _fedqueue_values if algo == "fedqueue" else _baseline_values
        self.width = 8 + len(self.held) * k     # a row's values if it holds every client

    def __missing__(self, clients: tuple):
        k, held = self.k, self.held
        # every held column holds the same clients
        json_cells, csv_cells = ["NaN"] * k, [""] * k
        for j in clients:
            json_cells[j] = csv_cells[j] = "%s"
        record = _object(
            (key, "[" + ", ".join(json_cells if key in held else ["NaN"] * k) + "]"
             if key in _CLIENT_COLUMNS else "%s") for key in sorted(_ROUND_FIELDS))
        csv = ",".join(",".join(csv_cells if c in held else [""] * k)
                       for c in _CLIENT_COLUMNS)
        labels = self.spread((*_ROUND_FIELDS[:8], clients,
                              *([(c, j) for j in clients] for c in held)))
        index = {label: i for i, label in enumerate(labels)}
        picks = [index[c, j] for c in _CLIENT_COLUMNS if c in held for j in clients]
        # a held client has at least two cells, so itemgetter gives a tuple
        cells = itemgetter(*picks) if picks else lambda tokens: ()
        self[clients] = templates = (record, csv + "\r\n", cells, len(labels))
        return templates


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
        """One row per aggregation or skipped round, in order: the first
        eight _ROUND_FIELDS, the sorted tuple of the clients the row holds,
        then one tuple over those clients per column of
        `_held_columns(algo)`.  Every other per-client cell of the row is
        NaN.  `admitted` counts the updates aggregated, and mean_tau and
        max_tau are their staleness.

        Fedqueue keys a row by submit round: it holds the jobs submitted in
        it, with their dispatch columns (observed q, predicted q_hat, budget
        E, eta, steps done; a client's last job wins), and `deferred` counts
        those admitted to a later round.  A baseline's row is one
        aggregation: it holds the applied updates, with their q and steps
        done, and `deferred` counts the stale ones among them.
        """
        # one row meaning for both families changes the pinned outputs; the
        # deliberate re-pin that does it (ROADMAP.md) removes this branch
        by_submit = self.algo == "fedqueue"
        none = ((),) * len(_held_columns(self.algo))
        if by_submit:
            stale = Counter(a.submit_round for a in self._arrivals() if a.tau >= 1)
        cols, loss, accuracy = {}, float("nan"), None
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
                    mine = {a.client: (a.q, a.steps_done) for a in applied}
                    deferred = sum(1 for tau in taus if tau >= 1)
                clients = tuple(sorted(mine))
                yield (r, e.t, loss, accuracy, len(taus), deferred,
                       sum(taus) / len(taus) if taus else 0.0,
                       max(taus) if taus else 0, clients,
                       *(zip(*map(mine.__getitem__, clients)) if mine else none))

    def checksum(self, rounds_csv=None) -> str:
        """sha256 of json.dumps({"rounds": [dict(zip(_ROUND_FIELDS, row))
        for row in round rows], "arrivals": [{key: getattr(a, key) for key
        in _ARRIVAL_KEYS} for a in arrivals], "evals": evals},
        sort_keys=True, default=float), a round row's per-client columns
        spread over all clients (see `_round_rows`), hashed a chunk of
        records at a time as it is printed.  `rounds_csv`, if given, is a
        text file that each chunk of round rows is written to as rounds.csv
        lines, from the tokens the checksum printed for it."""
        h = hashlib.sha256(b'{"arrivals": ')
        _hash_records(h, self._arrivals(), len(_ARRIVAL_KEYS),
                      _uniform(_ARRIVAL_RECORD, _arrival_sorted))
        h.update(b', "evals": ')
        _hash_records(h, self._evals(), 3, _uniform(_list(3), iter))
        h.update(b', "rounds": ')
        templates = _RowTemplates(self.algo, self.num_clients)

        def text_of(rows) -> str:
            shapes = [templates[row[8]] for row in rows]
            tokens = _tokens(list(chain.from_iterable(map(templates.spread, rows))))
            if rounds_csv is not None:
                rounds_csv.write(_csv_lines(rows, shapes, tokens))
            return ", ".join([shape[0] for shape in shapes]) % tokens

        _hash_records(h, self._round_rows(), templates.width, text_of)
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


def _csv_lines(rows, shapes, tokens) -> str:
    """rounds.csv lines of a chunk of `_round_rows` rows, given each row's
    `_RowTemplates` entry and the chunk's tokens."""
    lines, args, i = [], [], 0
    for row, (_, cells_line, cells, width) in zip(rows, shapes):
        lines.append(_CSV_HEAD_NO_ACCURACY if row[3] is None else _CSV_HEAD)
        lines.append(cells_line)
        args += row[:8]
        args += cells(tokens[i:i + width])
        i += width
    text = "".join(lines) % tuple(args)
    for token, cell in _CSV_TOKENS:
        text = text.replace(token, cell)
    return text


# events.jsonl lines: the time, printed once for a run of consecutive events
# that hold the same float object, then one template per kind for the rest
# of the line, the aggregate's per list length
def _event_tail(kind: str, values: dict) -> str:
    return _object([("kind", f'"{kind}"'), *values.items()])[1:] + "\n"


_EVENT_TAILS = {kind: _event_tail(kind, dict.fromkeys(names, "%s"))
                for kind, names in EVENT_FIELDS.items() if kind != "aggregate"}
_LINE_WIDTH = 1 + max(map(len, EVENT_FIELDS.values()))    # values per line, lists aside


@cache
def _aggregate_tail(applied: int) -> str:
    return _event_tail("aggregate", {"round": "%s", "clients": _list(applied),
                                     "taus": _list(applied)})


def _time_head(t) -> str:
    """The start of an events.jsonl line at time t: its rounded time as
    json.dumps prints it (float.__repr__ for a finite float)."""
    t = round(float(t), 9)
    return '{"t": ' + (float.__repr__(t) if t - t == 0.0 else _encode(t)) + ", "


def _event_lines(chunk) -> str:
    """events.jsonl lines of a chunk of events."""
    lines, values = [], []
    line, value = lines.append, values.append
    last = None
    for e in chunk:
        if e.t is not last:
            last = e.t
            head = _time_head(last)
        line(head)
        # the kind's EVENT_FIELDS, read from what it holds as _VALUES reads them
        kind, held = e.kind, e.data
        if kind == "dispatch":
            values += (held.client, held.submit_round, held.steps_done, held.eta,
                       held.q_hat)
        elif kind == "arrival":
            values += (held.client, held.submit_round, held.q, held.steps_done)
        elif kind == "job_start":
            value(held.client)
        elif kind == "aggregate":
            line(_aggregate_tail(len(held)))
            value(held[0].agg_round)
            values += [m.client for m in held]
            values += [m.tau for m in held]
            continue
        else:
            values += held
        line(_EVENT_TAILS[kind])
    return "".join(lines) % _tokens(values)


def write_outputs(log: MetricsLog, out_dir):
    """Write summary.json, rounds.csv, and events.jsonl into out_dir, and
    return the summary document written.

    The writer streams a chunk of records at a time, each chunk printed by
    one encoder call: rounds.csv is written in the pass that hashes the
    round rows for the checksum, from the same tokens, so beyond the log it
    holds one chunk of records, the templates of the round rows' sets of
    held clients, and the summary's lists."""
    out_dir.mkdir(parents=True, exist_ok=True)
    k = log.num_clients
    with open(out_dir / "rounds.csv", "w", newline="") as fh:
        fh.write(",".join(rounds_header(k)) + "\r\n")
        checksum = log.checksum(fh)
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
