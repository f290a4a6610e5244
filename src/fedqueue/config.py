"""Experiment configuration: defaults, INI-style loading, validation.

The file format is sectioned plain-text key=value; key strings follow the
controlled-experiment configuration table verbatim (per-client vectors are
comma-joined, kwargs blocks look like ``{a=1.0}``).  Parsing is fail-closed:
unknown sections or keys raise a ConfigError naming the offender and, when
loading from a file, its line number.  An empty file yields the defaults.

Each dataclass field below declares one key: its file key is the field name
unless the field's metadata names another, its kind follows the annotation,
and a ``Literal`` annotation lists the only values the key accepts.  A key
that no code reads is ``fixed``: it accepts only its default.
"""
import configparser
import io
import math
import re
from copy import deepcopy
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Literal, get_args, get_origin

from . import protocol

__all__ = ["ConfigError", "ExperimentConfig", "default_config", "load_config",
           "loads_config", "save_config", "dumps_config", "set_key", "get_key"]


class ConfigError(ValueError):
    pass


def _key(name: str | None = None, fixed: bool = False, **kw):
    """A field whose file key differs from its name, or `fixed` at its default."""
    return field(metadata={"key": name, "fixed": fixed}, **kw)


@dataclass
class WorkloadConfig:
    dataset: Literal["synthetic", "quadratic"] = "synthetic"
    partition: Literal["iid", "non-iid"] = "non-iid"
    data_alpha: float = _key("data.alpha", default=0.5)   # Dirichlet concentration
    model: Literal["linear", "mlp"] = "linear"
    loss_name: str = _key("loss.name", fixed=True, default="CELoss")
    dim: int = _key("data.dim", default=32)
    classes: int = _key("data.classes", default=10)
    train_size: int = _key("data.train_size", default=4000)
    test_size: int = _key("data.test_size", default=2000)
    class_sep: float = _key("data.class_sep", default=3.0)
    noise: float = _key("data.noise", default=1.0)
    # quadratic workload: stochastic-gradient noise scale, offset
    # heterogeneity, largest curvature eigenvalue
    quad_sigma: float = _key("quad.sigma", default=0.0)
    quad_spread: float = _key("quad.spread", default=1.0)
    quad_lmax: float = _key("quad.lmax", default=4.0)


@dataclass
class ProtocolConfig:
    seed: int = 42
    num_clients: int = 4
    num_rounds: int = 50
    batch_size: int = 64
    optimizer: str = _key(fixed=True, default="sgd")
    local_steps: int = _key(fixed=True, default=100)
    algo: Literal["fedqueue", "fedavg", "fedasync", "fedbuff", "fedcompass"] = \
        _key("algo.name", default="fedqueue")


@dataclass
class FedQueueConfig:
    broadcast_when: Literal["immediate", "next_round"] = "next_round"
    delay_mode: str = _key(fixed=True, default="simulate")   # sleep is out of scope
    t_sync: float = _key("Tsync", default=10.0)
    q_init: float = 2.0
    gamma: float = _key(fixed=True, default=0.2)
    delta: float = 2.0
    alpha: float = 0.5
    warmup_steps: int = 10
    sim_queue: Literal["fixed", "lognormal"] = "lognormal"
    queue_fixed: tuple[float, ...] = (0.5, 1.5, 2.4, 6.0)
    queue_means: tuple[float, ...] = (1.5, 2.5, 3.5, 4.5)
    queue_rho: float = 0.4
    slowdown: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    staleness_mode: Literal[protocol.FEDQUEUE_STALENESS] = "harmonic"
    staleness_beta: float = 0.5
    admission_horizon: str = _key(fixed=True, default="horizon")
    client_weight_mode: Literal["equal", "data_size"] = "equal"
    lr_base: float = 0.003
    e_floor: int = _key("E_floor", default=1)
    throughput: tuple[float, ...] = (10.0, 10.0, 10.0, 10.0)  # profiled c_k, steps/s
    queue_mean_mode: Literal["median", "arithmetic"] = "median"


@dataclass
class AsyncConfig:
    num_local_steps: int = 155
    staleness_fn: Literal[protocol.ASYNC_STALENESS] = "polynomial"
    staleness_fn_kwargs: dict = field(default_factory=lambda: {"a": 1.0})
    alpha: float = 0.5                    # server mixing factor
    optimize_memory: bool = _key(fixed=True, default=True)


@dataclass
class FedBuffConfig:
    k: int = _key("K", default=3)         # buffer size before aggregation


@dataclass
class CompassConfig:
    staleness_fn: str = _key(fixed=True, default="polynomial")
    staleness_fn_kwargs: dict = _key(fixed=True, default_factory=dict)
    alpha: float = _key(fixed=True, default=0.5)
    max_local_steps: int = 200
    min_local_steps: int = 20
    speed_momentum: float = 0.6
    latest_time_factor: float = 1.1


@dataclass
class FedAvgConfig:
    num_local_steps: tuple[int, ...] = (67, 155, 147, 15)


@dataclass
class AblationConfig:
    use_ewma: bool = True
    use_staleness_decay: bool = True
    use_inverse_lr: bool = True


@dataclass
class ExperimentConfig:
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    fedqueue: FedQueueConfig = field(default_factory=FedQueueConfig)
    fedasync: AsyncConfig = _key("async", default_factory=AsyncConfig)
    fedbuff: FedBuffConfig = field(default_factory=FedBuffConfig)
    compass: CompassConfig = field(default_factory=CompassConfig)
    fedavg: FedAvgConfig = field(default_factory=FedAvgConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)

    def copy(self) -> "ExperimentConfig":
        return deepcopy(self)

    def flat(self) -> dict:
        out = {}
        for section, key, spec in _iter_keys():
            out[f"{section}.{key}"] = _render(spec.kind, get_key(self, spec.attr))
        return out


# ---------------------------------------------------------------------------
# key registry, derived from the dataclasses: section -> file key -> spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _KeySpec:
    attr: str
    kind: str      # int | float | bool | str | floats | ints | kwargs
    choices: tuple = ()
    fixed: str | None = None   # the rendered default of a fixed key


_KINDS = {int: "int", float: "float", bool: "bool", str: "str", dict: "kwargs",
          tuple[float, ...]: "floats", tuple[int, ...]: "ints"}


def _render(kind: str, value) -> str:
    if kind in ("floats", "ints"):
        return ",".join(repr(v) if kind == "floats" else str(v) for v in value)
    if kind == "kwargs":
        return "{" + ",".join(f"{k}={v}" for k, v in value.items()) + "}"
    if kind == "bool":
        return "true" if value else "false"
    return str(value)


def _schema() -> dict[str, dict[str, _KeySpec]]:
    schema = {}
    for sec in fields(ExperimentConfig):
        keys = schema[sec.metadata.get("key") or sec.name] = {}
        defaults = sec.type()
        for f in fields(sec.type):
            choices = get_args(f.type) if get_origin(f.type) is Literal else ()
            kind = "str" if choices else _KINDS[f.type]
            keys[f.metadata.get("key") or f.name] = _KeySpec(
                f"{sec.name}.{f.name}", kind, choices,
                _render(kind, getattr(defaults, f.name)) if f.metadata.get("fixed") else None)
    return schema


_SCHEMA = _schema()

# unqualified sweep-axis keys resolve through these sections, in order
_AXIS_SECTIONS = ("fedqueue", "protocol", "workload", "ablation")


def _iter_keys():
    for section, keys in _SCHEMA.items():
        for key, spec in keys.items():
            yield section, key, spec


def _parse(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind == "floats":
            return tuple(float(p) for p in raw.split(",") if p.strip() != "")
        if kind == "ints":
            return tuple(int(p) for p in raw.split(",") if p.strip() != "")
        if kind == "kwargs":
            body = raw.strip().removeprefix("{").removesuffix("}").strip()
            if not body:
                return {}
            out = {}
            for pair in body.split(","):
                name, _, val = pair.partition("=")
                if not _:
                    raise ValueError(pair)
                out[name.strip()] = float(val)
            return out
        return raw
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"cannot parse {where} value {raw!r} as {kind}") from exc


def get_key(cfg: ExperimentConfig, attr: str):
    """Fetch a field by its attribute path ('fedqueue.t_sync')."""
    obj = cfg
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _set_attr(cfg: ExperimentConfig, attr: str, value) -> None:
    parts = attr.split(".")
    obj = cfg
    for part in parts[:-1]:
        obj = getattr(obj, part)
    setattr(obj, parts[-1], value)


def resolve_axis(key: str):
    """Map a sweep-axis key to (section, file key).

    Qualified names split on the first dot when the prefix is a section;
    unqualified names search fedqueue, protocol, workload, ablation in order.
    """
    head, _, rest = key.partition(".")
    if head in _SCHEMA and rest in _SCHEMA[head]:
        return head, rest
    for section in _AXIS_SECTIONS:
        if key in _SCHEMA[section]:
            return section, key
    raise ConfigError(f"unknown config key: {key!r}")


def set_key(cfg: ExperimentConfig, key: str, value) -> None:
    """Set a config entry by axis key; string values are parsed per schema."""
    section, file_key = resolve_axis(key)
    spec = _SCHEMA[section][file_key]
    if isinstance(value, str):
        value = _parse(spec.kind, value, f"[{section}] {file_key}")
    elif spec.kind == "int":
        value = int(value)
    elif spec.kind == "float":
        value = float(value)
    _set_attr(cfg, spec.attr, value)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


# ---------------------------------------------------------------------------
# load / save
# ---------------------------------------------------------------------------

def _find_line(text: str, section: str, key: str | None = None) -> int | None:
    """The line of `[section]`, or of the whole key `key` inside it."""
    current = None
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        current = line if line.startswith("[") else current
        if current == f"[{section}]" and (
                key is None or re.match(rf"{re.escape(key)}\s*[=:]", line)):
            return i
    return None


def loads_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    cfg = default_config()
    # configparser folds a [DEFAULT] section's keys into every other section
    # and lists it in none, so it would be inherited or ignored unseen
    sections = parser.sections()
    if parser.defaults():
        sections.insert(0, parser.default_section)
    for section in sections:
        if section not in _SCHEMA:
            line = _find_line(text, section)
            raise ConfigError(f"unknown section [{section}]"
                              + (f" (line {line})" if line else ""))
        for key, raw in parser.items(section):
            spec = _SCHEMA[section].get(key)
            if spec is None:
                line = _find_line(text, section, key)
                raise ConfigError(f"unknown key {key!r} in section [{section}]"
                                  + (f" (line {line})" if line else ""))
            _set_attr(cfg, spec.attr, _parse(spec.kind, raw, f"[{section}] {key}"))
    return validate_config(cfg)


def load_config(path) -> ExperimentConfig:
    return loads_config(Path(path).read_text())


def dumps_config(cfg: ExperimentConfig) -> str:
    buf = io.StringIO()
    for section, keys in _SCHEMA.items():
        buf.write(f"[{section}]\n")
        for key, spec in keys.items():
            buf.write(f"{key} = {_render(spec.kind, get_key(cfg, spec.attr))}\n")
        buf.write("\n")
    return buf.getvalue()


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(dumps_config(cfg))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    for section, key, spec in _iter_keys():
        value = get_key(cfg, spec.attr)
        if spec.fixed is not None and (shown := _render(spec.kind, value)) != spec.fixed:
            raise ConfigError(f"[{section}] {key} cannot change a run: it is fixed "
                              f"at {spec.fixed}, got {shown}")
        if spec.kind in ("float", "floats"):
            values = value if spec.kind == "floats" else (value,)
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"[{section}] {key} must be finite, "
                                  f"got {_render(spec.kind, value)}")
        if spec.choices and value not in spec.choices:
            raise ConfigError(f"[{section}] {key} must be one of "
                              f"{' | '.join(spec.choices)}, got {value!r}")
    p, fq, wl = cfg.protocol, cfg.fedqueue, cfg.workload
    _require(p.num_clients >= 1, "num_clients must be >= 1")
    _require(p.num_rounds >= 1, "num_rounds must be >= 1")
    _require(p.batch_size >= 1, "batch_size must be >= 1")
    _require(wl.data_alpha > 0, "data.alpha must be > 0")
    _require(wl.dim >= 1 and wl.classes >= 2, "data.dim >= 1 and data.classes >= 2")
    _require(wl.train_size >= p.num_clients, "data.train_size must cover all clients")
    _require(wl.noise > 0 and wl.class_sep > 0, "data.noise and data.class_sep must be > 0")
    _require(wl.quad_sigma >= 0 and wl.quad_spread >= 0 and wl.quad_lmax >= 1,
             "quadratic workload constants out of range")
    _require(fq.t_sync > 0, "Tsync must be > 0")
    _require(fq.q_init >= 0, "q_init must be >= 0")
    _require(fq.delta >= 0, "delta must be >= 0")
    _require(0.0 < fq.alpha <= 1.0, "alpha must be in (0, 1]")
    _require(fq.warmup_steps >= 0, "warmup_steps must be >= 0")
    _require(fq.queue_rho >= 0, "queue_rho must be >= 0")
    _require(fq.staleness_beta >= 0, "staleness_beta must be >= 0")
    _require(fq.lr_base > 0, "lr_base must be > 0")
    _require(fq.e_floor >= 0, "E_floor must be >= 0")
    k = p.num_clients
    for name, vec in (("queue_fixed", fq.queue_fixed),
                      ("queue_means", fq.queue_means),
                      ("slowdown", fq.slowdown),
                      ("throughput", fq.throughput),
                      ("fedavg.num_local_steps", cfg.fedavg.num_local_steps)):
        _require(len(vec) == k,
                 f"{name} has length {len(vec)} but num_clients = {k}")
    _require(all(v >= 0 for v in fq.queue_fixed), "queue_fixed must be >= 0")
    _require(all(v > 0 for v in fq.queue_means), "queue_means must be > 0")
    _require(all(v > 0 for v in fq.slowdown), "slowdown must be > 0")
    _require(all(v > 0 for v in fq.throughput), "throughput must be > 0")
    _require(all(v >= 1 for v in cfg.fedavg.num_local_steps),
             "fedavg num_local_steps must be >= 1")
    az, cp = cfg.fedasync, cfg.compass
    read = {name for fn in protocol.ASYNC_STALENESS for name in protocol.STALENESS[fn][0]}
    for name, value in az.staleness_fn_kwargs.items():
        _require(name in read, f"[async] staleness_fn_kwargs: {name} is read by "
                 f"none of {' | '.join(protocol.ASYNC_STALENESS)}")
        _require(math.isfinite(value) and value >= 0, f"[async] staleness_fn_kwargs: "
                 f"{name} must be finite and >= 0, got {value}")
    _require(az.num_local_steps >= 1, "async num_local_steps must be >= 1")
    _require(0.0 < az.alpha <= 1.0, "async alpha must be in (0, 1]")
    _require(cfg.fedbuff.k >= 1, "fedbuff K must be >= 1")
    _require(1 <= cp.min_local_steps <= cp.max_local_steps,
             "compass requires 1 <= min_local_steps <= max_local_steps")
    _require(0.0 <= cp.speed_momentum < 1.0, "speed_momentum must be in [0, 1)")
    _require(cp.latest_time_factor >= 1.0, "latest_time_factor must be >= 1")
    return cfg
