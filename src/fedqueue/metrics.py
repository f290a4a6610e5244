"""Run logs, reported metrics, and numerical checks of the staleness bound.

A MetricsLog collects per-round records, per-arrival delay records, model
evaluations, and dispatch events from one experiment; every reported
quantity (staleness distribution, admission statistics, normalized delays,
time-to-quality, movement ratio, prediction-error statistics) is a pure
function over the finished log.  The bound checks live here too: the closed
form for the required safety buffer and its Monte Carlo verification.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import protocol
from .streams import substream

__all__ = [
    "RoundRecord", "ArrivalRecord", "DispatchRecord", "MetricsLog",
    "StalenessBoundParams", "time_to_target", "delay_statistics",
    "admission_summary", "movement_ratio", "delta_threshold",
    "staleness_bound_violation_rate", "prediction_error_stats",
    "delayed_quadratic_descent", "write_outputs",
]


@dataclass
class RoundRecord:
    round: int
    time: float
    loss: float
    accuracy: float | None
    admitted: int                  # updates aggregated this round
    deferred: int                  # this round's submissions that missed its cutoff
    mean_tau: float
    max_tau: int
    q: list                        # per-client observed delay (nan if no dispatch)
    q_hat: list                    # per-client prediction used at dispatch
    steps_budget: list             # per-client E
    eta: list
    steps_done: list

    @classmethod
    def of(cls, round: int, time: float, evaluation, taus, cols: dict,
           num_clients: int, deferred: int) -> "RoundRecord":
        """Row for one round; `cols` maps client -> {column: value}, and a
        column a client has no entry for reads nan."""
        nan = float("nan")
        rows = [cols.get(k, {}) for k in range(num_clients)]

        def col(name):
            return [row.get(name, nan) for row in rows]

        loss, accuracy = evaluation
        return cls(round=round, time=time, loss=loss, accuracy=accuracy,
                   admitted=len(taus), deferred=deferred,
                   mean_tau=float(np.mean(taus)) if taus else 0.0,
                   max_tau=int(max(taus)) if taus else 0,
                   q=col("q"), q_hat=col("q_hat"),
                   steps_budget=col("steps_budget"), eta=col("eta"),
                   steps_done=col("steps_done"))


@dataclass
class ArrivalRecord:
    client: int
    submit_round: int
    submit_time: float
    q: float
    q_hat: float                  # prediction the dispatch was budgeted with
    compute_seconds: float
    arrival: float
    agg_round: int
    tau: int
    steps_done: int

    @classmethod
    def of(cls, msg, agg_round: int, tau: int) -> "ArrivalRecord":
        """Record of a ClientUpdate applied in `agg_round` with staleness tau."""
        return cls(client=msg.client, submit_round=msg.submit_round,
                   submit_time=msg.submit_time, q=msg.observed_q,
                   q_hat=msg.q_hat_used,
                   compute_seconds=msg.arrival - msg.submit_time - msg.observed_q,
                   arrival=msg.arrival, agg_round=agg_round, tau=tau,
                   steps_done=msg.steps_done)

    def ratio(self, t_sync: float) -> float:
        return (self.arrival - self.submit_time) / t_sync


@dataclass
class DispatchRecord:
    time: float
    client: int
    round: int
    steps_budget: int
    eta: float


@dataclass
class MetricsLog:
    algo: str
    seed: int
    num_clients: int
    t_sync: float
    horizon: float
    config: dict = field(default_factory=dict)
    rounds: list = field(default_factory=list)       # RoundRecord
    arrivals: list = field(default_factory=list)     # ArrivalRecord
    dispatches: list = field(default_factory=list)   # DispatchRecord
    evals: list = field(default_factory=list)        # (time, loss, accuracy)
    events: list = field(default_factory=list)       # raw jsonl-able dicts
    total_local_steps: int = 0
    skipped_rounds: int = 0
    failed: bool = False
    failure_reason: str = ""
    final_model: object = None   # ending global parameter vector

    def event(self, t: float, kind: str, **fields) -> None:
        rec = {"t": round(float(t), 9), "kind": kind}
        rec.update(fields)
        self.events.append(rec)

    @property
    def final_accuracy(self) -> float | None:
        accs = [a for _, _, a in self.evals if a is not None]
        return accs[-1] if accs else None

    @property
    def max_accuracy(self) -> float | None:
        accs = [a for _, _, a in self.evals if a is not None]
        return max(accs) if accs else None

    @property
    def final_loss(self) -> float | None:
        return self.evals[-1][1] if self.evals else None

    def checksum(self) -> str:
        payload = {
            "rounds": [asdict(r) for r in self.rounds],
            "arrivals": [asdict(a) for a in self.arrivals],
            "evals": self.evals,
        }
        blob = json.dumps(payload, sort_keys=True, default=float).encode()
        return hashlib.sha256(blob).hexdigest()

    def summary(self, targets=(0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95)) -> dict:
        p_late, e_hat_d, r_d = delay_statistics(self)
        per_client = admission_summary(self)
        taus = [a.tau for a in self.arrivals]
        return {
            "algo": self.algo,
            "seed": self.seed,
            "failed": self.failed,
            "failure_reason": self.failure_reason,
            "max_accuracy": self.max_accuracy,
            "final_accuracy": self.final_accuracy,
            "final_loss": self.final_loss,
            "time_to_target": {str(t): time_to_target(self, t) for t in targets},
            "dispatches": len(self.dispatches),
            "transfers": 2 * len(self.dispatches),
            "total_local_steps": self.total_local_steps,
            "p_late": p_late,
            "late_mean_ratio": e_hat_d,
            "max_delay_ratio": r_d,
            "mean_tau": float(np.mean(taus)) if taus else 0.0,
            "max_tau": int(max(taus)) if taus else 0,
            "skipped_rounds": self.skipped_rounds,
            "per_client": per_client,
            "prediction_error": prediction_error_stats(self),
        }


# ---------------------------------------------------------------------------
# reported metrics
# ---------------------------------------------------------------------------

def time_to_target(log: MetricsLog, target: float, metric: str = "accuracy"):
    """First virtual time the quality metric reaches the target (loss uses <=).

    Returns None when the run never got there.
    """
    for t, loss, acc in log.evals:
        value = loss if metric == "loss" else acc
        if value is None:
            continue
        if (metric == "loss" and value <= target) or \
           (metric != "loss" and value >= target):
            return t
    return None


def delay_statistics(log: MetricsLog):
    """(P_late, conditional mean late ratio, max ratio) over all arrivals.

    Ratios are (arrival - submit time) / T_sync; an arrival is late when its
    ratio exceeds 1.  The conditional mean is None when nothing was late.
    """
    if not log.arrivals:
        return 0.0, None, 0.0
    ratios = np.array([a.ratio(log.t_sync) for a in log.arrivals])
    late = ratios[ratios > 1.0]
    p_late = float(len(late) / len(ratios))
    e_hat_d = float(late.mean()) if len(late) else None
    return p_late, e_hat_d, float(ratios.max())


def admission_summary(log: MetricsLog):
    """Per-client (submitted, admitted in-round, deferred, max delay ratio).

    Counts cover resolved updates: submitted = admitted (tau = 0) + deferred
    (tau >= 1); jobs still in flight at the horizon are not counted.
    """
    rows = []
    for k in range(log.num_clients):
        mine = [a for a in log.arrivals if a.client == k]
        admitted = sum(1 for a in mine if a.tau == 0)
        deferred = sum(1 for a in mine if a.tau >= 1)
        ratio = max((a.ratio(log.t_sync) for a in mine), default=0.0)
        rows.append({"client": k, "submitted": admitted + deferred,
                     "admitted": admitted, "deferred": deferred,
                     "max_delay_ratio": ratio})
    return rows


def movement_ratio(logs: dict, target: float, reference: str = "fedqueue",
                   metric: str = "accuracy"):
    """Model-transfer ratio to target, normalized by the reference method.

    Transfers are counted as 2 per dispatch (broadcast down + update up),
    over dispatches issued up to the target-crossing evaluation.  Methods
    that never reach the target map to None.
    """
    if reference not in logs:
        raise ValueError(f"reference method {reference!r} missing")
    ref_t = time_to_target(logs[reference], target, metric)
    if ref_t is None:
        raise ValueError("reference method never reached the target")
    ref_transfers = _transfers_until(logs[reference], ref_t)
    out = {}
    for name, log in logs.items():
        t = time_to_target(log, target, metric)
        out[name] = None if t is None else _transfers_until(log, t) / ref_transfers
    return out


def _transfers_until(log: MetricsLog, t: float) -> int:
    return 2 * sum(1 for d in log.dispatches if d.time <= t)


def prediction_error_stats(log: MetricsLog, outlier_mult: float | None = None):
    """Per-client sample mean/std of e = q - q_hat over recorded arrivals.

    With outlier_mult set, points beyond outlier_mult * std of the client
    mean are dropped once before recomputing.  Clients with fewer than two
    observations report None statistics.
    """
    rows = []
    for k in range(log.num_clients):
        errs = np.array([a.q - a.q_hat for a in log.arrivals
                         if a.client == k and not math.isnan(a.q_hat)])
        if len(errs) < 2:
            rows.append({"client": k, "mean": None, "std": None, "count": int(len(errs))})
            continue
        if outlier_mult is not None:
            mu, sd = errs.mean(), errs.std(ddof=1)
            if sd > 0:
                errs = errs[np.abs(errs - mu) <= outlier_mult * sd]
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
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if np.any(self.rho < 0):
            raise ValueError("rho must be >= 0")

    @property
    def tau_max(self) -> int:
        return math.ceil(1.0 + self.gamma)


def delta_threshold(params: StalenessBoundParams, t_sync: float, num_clients: int,
                    num_rounds: int) -> float:
    """Smallest safety buffer certifying the staleness bound:

    delta* = max(0, max_k sqrt(2 rho_k^2 ln(K R / eps)) - gamma T_sync).
    """
    if num_clients * num_rounds < 1:
        raise ValueError("need K * R >= 1")
    log_term = math.log(num_clients * num_rounds / params.epsilon)
    need = float(np.max(np.sqrt(2.0 * params.rho ** 2 * log_term)))
    return max(0.0, need - params.gamma * t_sync)


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
            deltas.append((float(objective.weights[k]), 0, wk - w_ref))
        w = protocol.aggregate(w, deltas, protocol.StalenessDecay.flat())
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


def write_outputs(log: MetricsLog, out_dir, targets=(0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95)):
    """Write summary.json, rounds.csv, and events.jsonl into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "algo": log.algo,
        "seed": log.seed,
        "num_clients": log.num_clients,
        "horizon": log.horizon,
        "config": log.config,
        "summary": log.summary(targets),
        "checksum": log.checksum(),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, default=float) + "\n")
    with open(out_dir / "rounds.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rounds_header(log.num_clients))
        for r in log.rounds:
            row = [r.round, f"{r.time:.6f}", f"{r.loss:.8f}",
                   "" if r.accuracy is None else f"{r.accuracy:.6f}",
                   r.admitted, r.deferred, f"{r.mean_tau:.4f}", r.max_tau]
            for vec in (r.q, r.q_hat, r.steps_budget, r.eta, r.steps_done):
                row += ["" if (isinstance(v, float) and math.isnan(v)) else v
                        for v in vec]
            writer.writerow(row)
    with open(out_dir / "events.jsonl", "w") as fh:
        for rec in log.events:
            fh.write(json.dumps(rec, default=float) + "\n")
