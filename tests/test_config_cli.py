import dataclasses
import hashlib
import itertools
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fedqueue
from fedqueue import cli, config
from fedqueue.config import (ConfigError, default_config, dumps_config,
                             load_config, loads_config, resolve_axis,
                             save_config, set_key, validate_config)
from fedqueue.metrics import MetricsLog


# ---------------------------------------------------------------------------
# defaults and parsing
# ---------------------------------------------------------------------------

def test_empty_file_yields_documented_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    cfg = load_config(path)
    assert cfg.fedqueue.t_sync == 10.0
    assert cfg.fedqueue.delta == 2.0
    assert cfg.fedqueue.alpha == 0.5
    assert cfg.fedqueue.gamma == 0.2
    assert cfg.protocol.num_rounds == 50
    assert cfg.fedqueue.lr_base == 0.003
    assert cfg.fedqueue.q_init == 2.0
    assert cfg.protocol.seed == 42
    assert cfg.protocol.num_clients == 4
    assert cfg.fedqueue.warmup_steps == 10
    assert cfg.fedqueue.sim_queue == "lognormal"
    assert cfg.fedqueue.queue_fixed == (0.5, 1.5, 2.4, 6.0)
    assert cfg.fedqueue.queue_means == (1.5, 2.5, 3.5, 4.5)
    assert cfg.fedqueue.queue_rho == 0.4
    assert cfg.fedqueue.staleness_mode == "harmonic"
    assert cfg.fedqueue.staleness_beta == 0.5
    assert cfg.fedqueue.admission_horizon == "horizon"
    assert cfg.fedqueue.client_weight_mode == "equal"
    assert cfg.workload.data_alpha == 0.5
    assert cfg.protocol.batch_size == 64
    assert cfg.fedavg.num_local_steps == (67, 155, 147, 15)
    assert cfg.fedasync.num_local_steps == 155
    assert cfg.fedasync.staleness_fn == "polynomial"
    assert cfg.fedasync.staleness_fn_kwargs == {"a": 1.0}
    assert cfg.compass.max_local_steps == 200
    assert cfg.compass.min_local_steps == 20
    assert cfg.compass.speed_momentum == 0.6
    assert cfg.compass.latest_time_factor == 1.1


def test_vector_length_mismatch_rejected():
    with pytest.raises(ConfigError, match="queue_means"):
        loads_config("[fedqueue]\nqueue_means = 1.0,2.0,3.0\n")


def test_unknown_key_rejected_with_name_and_line():
    text = "[fedqueue]\nTsync = 10.0\nTsink = 9.0\n"
    with pytest.raises(ConfigError, match=r"Tsink.*line 3"):
        loads_config(text)
    # the line is the key's own, in its section, never an earlier section's
    # key of the same name or one that the key begins
    for text, key in (("[fedqueue]\nalpha = 0.5\n[fedbuff]\nalpha = 0.3\n", "alpha"),
                      ("[fedqueue]\ndelta = 1\n[protocol]\ndelta = 2\n", "delta"),
                      ("[fedqueue]\nalpha = 0.5\nTsync = 10.0\n[workload]\nalph = 1\n",
                       "alph")):
        line = text.count("\n")
        with pytest.raises(ConfigError, match=rf"^unknown key '{key}' .*\(line {line}\)$"):
            loads_config(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"\[fedquux\]"):
        loads_config("[fedquux]\nx = 1\n")


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 5\n",                                       # was ignored
    "[DEFAULT]\nseed = 5\n[protocol]\nnum_rounds = 3\n",             # was inherited
    "[protocol]\nnum_rounds = 3\n\n[DEFAULT]\nseed = 5\n[fedqueue]\ndelta = 1\n",
], ids=["alone", "inherited", "before-another-section"])
def test_default_section_rejected_with_its_line(text):
    line = text.splitlines().index("[DEFAULT]") + 1
    with pytest.raises(ConfigError, match=rf"^unknown section \[DEFAULT\] \(line {line}\)$"):
        loads_config(text)


def test_sleep_delay_mode_rejected():
    with pytest.raises(ConfigError, match="sleep"):
        loads_config("[fedqueue]\ndelay_mode = sleep\n")


# every string key: its values are a listed set, or one value if it is fixed
@pytest.mark.parametrize("section, key, choices", [
    (section, key, spec.choices or (spec.fixed,))
    for section, key, spec in config._iter_keys() if spec.kind == "str"])
def test_every_enumerated_key_rejects_other_values(section, key, choices):
    with pytest.raises(ConfigError) as err:
        loads_config(f"[{section}]\n{key} = bogus\n")
    if config._SCHEMA[section][key].fixed:
        assert str(err.value) == (f"[{section}] {key} cannot change a run: "
                                  f"it is fixed at {choices[0]}, got bogus")
    else:
        assert str(err.value) == (f"[{section}] {key} must be one of "
                                  f"{' | '.join(choices)}, got 'bogus'")


FIXED_KEYS = [(section, key) for section, key, spec in config._iter_keys() if spec.fixed]
# a value other than the default, by kind
OTHER_VALUE = {"str": "bogus", "int": "7", "float": "4.0", "bool": "false",
               "kwargs": "{a=1.0}"}


@pytest.mark.parametrize("section, key", FIXED_KEYS)
def test_fixed_key_accepts_only_its_default(section, key):
    spec = config._SCHEMA[section][key]
    value = OTHER_VALUE[spec.kind]
    assert value != spec.fixed
    message = (rf"^\[{section}\] {re.escape(key)} cannot change a run: it is fixed "
               rf"at {re.escape(spec.fixed)}, got ")
    with pytest.raises(ConfigError, match=message):
        loads_config(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=message):
        fedqueue.run_sweep(default_config(), [(f"{section}.{key}", [value])])
    assert loads_config(f"[{section}]\n{key} = {spec.fixed}\n") == default_config()


@pytest.mark.parametrize("steps", ["0,0,0,0", "-1,5,5,5"])
def test_fedavg_step_counts_below_one_rejected(steps):
    # all zeros with zero delays would dispatch empty jobs at one instant forever
    with pytest.raises(ConfigError, match="fedavg num_local_steps must be >= 1"):
        loads_config(f"[fedavg]\nnum_local_steps = {steps}\n")


def test_readme_config_block_is_the_default_config():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.split("```ini\n", 1)[1].split("```", 1)[0].splitlines()
    block = "\n".join(line.split(";", 1)[0].rstrip() for line in lines)
    assert loads_config(block) == default_config()
    section, named, marked = None, [], []
    for line in lines:
        code, _, comment = line.partition(";")
        if code.startswith("["):
            section = code.strip().strip("[]")
        elif code.strip():
            named.append((section, code.split("=", 1)[0].strip()))
            if comment.strip().split(" (", 1)[0] == "fixed":
                marked.append(named[-1])
    assert named == [(section, key) for section, key, _ in config._iter_keys()]
    assert marked == FIXED_KEYS


# one out-of-range value per key the delay and compute models read unchecked
OUT_OF_RANGE = {
    "slowdown": "0,1,1,1",    # an unbounded compute rate and step budget
    "throughput": "10,10,0,10",
    "queue_rho": "-0.1",
    "queue_fixed": "0.5,-1,2.4,6",
    "queue_means": "1.5,0,3.5,4.5",
}


@pytest.mark.parametrize("key", OUT_OF_RANGE)
def test_queue_and_compute_ranges_rejected(key):
    with pytest.raises(ConfigError, match=rf"^{key} must be"):
        loads_config(f"[fedqueue]\n{key} = {OUT_OF_RANGE[key]}\n")


@pytest.mark.parametrize("section, key, value", [
    ("fedqueue", "Tsync", "inf"),
    ("fedqueue", "throughput", "10,inf,10,10"),
])
def test_non_finite_float_rejected_with_key_name(section, key, value):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be finite"):
        loads_config(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("algo, fn, kwargs, name", [
    ("fedasync", "hinge", "{a=-1,b=0}", "a"),    # a ZeroDivisionError once run
    ("fedbuff", "polynomial", "{a=-2000}", "a"),  # an OverflowError once run
    ("fedasync", "polynomial", "{zzz=3}", "zzz"),  # read by no function
    ("fedasync", "polynomial", "{a=nan}", "a"),
    ("fedbuff", "hinge", "{a=10,b=-1}", "b"),
])
def test_staleness_kwargs_outside_the_table_rejected(algo, fn, kwargs, name):
    with pytest.raises(ConfigError, match=rf"^\[async\] staleness_fn_kwargs: {name} "):
        loads_config(f"[protocol]\nalgo.name = {algo}\n[async]\n"
                     f"staleness_fn = {fn}\nstaleness_fn_kwargs = {kwargs}\n")


def test_non_finite_sweep_value_rejected():
    cfg = default_config()
    set_key(cfg, "Tsync", "nan")
    with pytest.raises(ConfigError, match="Tsync"):
        validate_config(cfg)


def test_undocumented_weight_mode_spelling_rejected():
    cfg = default_config()
    cfg.fedqueue.client_weight_mode = "data size"
    with pytest.raises(ConfigError, match="client_weight_mode"):
        validate_config(cfg)
    assert cfg.fedqueue.client_weight_mode == "data size"


def test_roundtrip_through_save_and_load(tmp_path):
    cfg = default_config()
    cfg.fedqueue.staleness_mode = "harmonic"
    cfg.fedqueue.staleness_beta = 0.5
    cfg.fedqueue.queue_rho = 0.9
    cfg.protocol.seed = 1234
    cfg.fedasync.staleness_fn_kwargs = {"a": 2.0}
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    again = load_config(path)
    assert again == cfg
    assert dumps_config(again) == dumps_config(cfg)


def test_kwargs_block_parsing():
    cfg = loads_config("[async]\nstaleness_fn_kwargs = {a=0.5}\n")
    assert cfg.fedasync.staleness_fn_kwargs == {"a": 0.5}
    cfg = loads_config("[compass]\nstaleness_fn_kwargs = {}\n")
    assert cfg.compass.staleness_fn_kwargs == {}


def test_axis_resolution_precedence():
    assert resolve_axis("alpha") == ("fedqueue", "alpha")
    assert resolve_axis("async.alpha") == ("async", "alpha")
    assert resolve_axis("fedbuff.K") == ("fedbuff", "K")
    assert resolve_axis("data.alpha") == ("workload", "data.alpha")
    assert resolve_axis("num_clients") == ("protocol", "num_clients")
    with pytest.raises(ConfigError):
        resolve_axis("bogus_knob")


def test_set_key_parses_strings_per_schema():
    cfg = default_config()
    set_key(cfg, "queue_rho", "0.9")
    set_key(cfg, "fedavg.num_local_steps", "10,20,30,40")
    set_key(cfg, "use_ewma", "false")
    assert cfg.fedqueue.queue_rho == 0.9
    assert cfg.fedavg.num_local_steps == (10, 20, 30, 40)
    assert cfg.ablation.use_ewma is False


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def tiny_config(tmp_path) -> Path:
    path = tmp_path / "tiny.ini"
    path.write_text(
        "[protocol]\nnum_rounds = 6\n"
        "[workload]\ndata.train_size = 400\ndata.test_size = 200\n"
        "data.dim = 6\ndata.classes = 4\n")
    return path


def run_cli(*argv):
    return cli.main(list(argv))


# sha256 of the CSV each subcommand test below writes: a change to how the
# CLI writes its tables must keep every byte
CSV_PINS = {
    "sweep.csv": "266e9ac4ae9a278c7f86b857441e2d0a3ddfd632a89a20e6fc47f7b65cfa83b2",
    "ablate.csv": "2b1c78fb6331b85643b4a32ce34f8a15eebdf174405396e5364887fd781dbf59",
    "bound_grid.csv": "692e5b7fb926d977ca686fdff0de87d3ef5b27bf567a235b9ade39b75b732e4d",
}


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_cmd_run_writes_all_outputs(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run1"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "summary.json").exists()
    assert (out / "events.jsonl").exists()
    rows = (out / "rounds.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 6  # header + num_rounds data rows
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algo"] == "fedqueue"
    assert summary["checksum"]


def test_cmd_run_refuses_nonempty_dir_without_force(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run2"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    with pytest.raises(SystemExit, match="force"):
        run_cli("run", "--config", str(cfg), "--out", str(out))
    assert run_cli("run", "--config", str(cfg), "--out", str(out), "--force") == 0


def test_cmd_run_seed_override_changes_outputs_deterministically(tmp_path):
    cfg = tiny_config(tmp_path)
    outs = {}
    for name, seed in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / name
        assert run_cli("run", "--config", str(cfg), "--out", str(out),
                       "--seed", seed) == 0
        outs[name] = json.loads((out / "summary.json").read_text())["checksum"]
    assert outs["a"] == outs["c"]
    assert outs["a"] != outs["b"]


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDQUEUE_OUTPUT_ROOT", str(tmp_path))
    cfg = tiny_config(tmp_path)
    assert run_cli("run", "--config", str(cfg), "--out", "nested/run") == 0
    assert (tmp_path / "nested" / "run" / "summary.json").exists()


def test_cmd_sweep_produces_groups_and_combined_csv(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out),
                   "--axis", "queue_rho", "--values", "0.1,0.5,0.9",
                   "--trials", "2") == 0
    groups = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert groups == ["queue_rho=0.1", "queue_rho=0.5", "queue_rho=0.9"]
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 6
    assert sha256_of(out / "sweep.csv") == CSV_PINS["sweep.csv"]
    for group in groups:
        trials = sorted(p.name for p in (out / group).iterdir())
        assert trials == ["trial0", "trial1"]
        assert (out / group / "trial0" / "summary.json").exists()


def test_cmd_sweep_nests_one_directory_level_per_axis(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "grid"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out),
                   "--axis", "queue_rho", "--values", "0.1,0.9",
                   "--axis", "algo.name", "--values", "fedqueue,fedavg") == 0
    cells = [(rho, algo) for rho in ("0.1", "0.9") for algo in ("fedqueue", "fedavg")]
    for rho, algo in cells:
        assert (out / f"queue_rho={rho}" / f"algo_name={algo}" / "trial0"
                / "summary.json").exists()
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["queue_rho;algo.name", f"{rho};{algo}", "0"] for rho, algo in cells]
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed[:-1]] == [
        f"queue_rho={rho} algo.name={algo}" for rho, algo in cells]


def test_time_to_target_medians_count_unreached_runs_as_never(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                   "--axis", "queue_rho", "--values", "0.1,0.5,0.9",
                   "--trials", "3") == 0
    printed = capsys.readouterr().out.splitlines()
    # rho 0.9 reaches 0.85 in one trial of three, at 30 s
    assert printed[0].endswith("time_to_0.85=20.0s (reached 2/3)")
    assert printed[2].endswith("time_to_0.85=never (reached 1/3)")
    assert run_cli("ablate", "--config", str(cfg), "--out", str(tmp_path / "a"),
                   "--trials", "3") == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].split()[:4] == ["baseline", "0.8450", "40.0s", "2/3"]
    assert printed[2].split()[:4] == ["wo_inverse_lr", "0.8300", "never", "1/3"]


def test_cmd_sweep_unknown_axis_fails(tmp_path):
    cfg = tiny_config(tmp_path)
    with pytest.raises(SystemExit, match="unknown config key"):
        run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "s2"),
                "--axis", "who_knows", "--values", "1,2")


def test_cmd_ablate_emits_four_variants(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "abl"
    assert run_cli("ablate", "--config", str(cfg), "--out", str(out),
                   "--trials", "1") == 0
    lines = (out / "ablate.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # header + 4 variants x 1 trial
    assert sha256_of(out / "ablate.csv") == CSV_PINS["ablate.csv"]
    printed = capsys.readouterr().out
    for variant in ("baseline", "wo_inverse_lr", "wo_ewma", "wo_staleness_decay"):
        assert variant in printed


def test_cmd_ablate_rejects_a_baseline_config(tmp_path, capsys):
    # only fedqueue reads [ablation]: under a baseline the four variants are
    # one run four times
    cfg = tmp_path / "fedavg.ini"
    cfg.write_text("[protocol]\nnum_rounds = 3\nalgo.name = fedavg\n")
    out = tmp_path / "abl"
    assert run_cli("ablate", "--config", str(cfg), "--out", str(out)) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "config error: ablate needs algo.name = fedqueue, got fedavg\n"
    assert not out.exists()


def test_cmd_ablate_prints_a_marker_for_runs_without_accuracy(tmp_path, capsys):
    cfg = tmp_path / "quad.ini"
    cfg.write_text("[protocol]\nnum_rounds = 5\n[workload]\ndataset = quadratic\n")
    out = tmp_path / "abl"
    assert run_cli("ablate", "--config", str(cfg), "--out", str(out),
                   "--trials", "1") == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in printed[1:5]] == [
        [variant, "-"] for variant in ("baseline", "wo_inverse_lr", "wo_ewma",
                                       "wo_staleness_decay")]


def test_check_bound_zero_noise_prints_zero_rates(tmp_path, capsys):
    assert run_cli("check-lemma1", "--rhos", "0", "--gammas", "0.2,1",
                   "--trials", "200") == 0
    printed = capsys.readouterr().out
    rows = [l for l in printed.splitlines() if l.strip().startswith("0.00")]
    assert len(rows) == 2
    assert all("0.000" in row for row in rows)
    # one note after the table: where delta* reaches T_sync
    assert printed.splitlines()[3] == (
        "note: delta* >= Tsync = 10 s, so every budget collapses to E_floor, "
        "from rho = 2.95 at gamma 0.2, 4.91 at gamma 1")


def test_check_bound_writes_grid_csv(tmp_path):
    out = tmp_path / "grid"
    assert run_cli("check-lemma1", "--rhos", "0.1,0.9", "--gammas", "0.2",
                   "--trials", "300", "--out", str(out)) == 0
    lines = (out / "bound_grid.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2
    assert sha256_of(out / "bound_grid.csv") == CSV_PINS["bound_grid.csv"]


# each bad argument exits 2 with one line naming its flag, before any output
BAD_ARGUMENTS = {
    "sweep-no-values": (["sweep", "--axis", "queue_rho", "--values", ","], "--values"),
    "sweep-zero-trials": (["sweep", "--axis", "queue_rho", "--values", "0.1",
                           "--trials", "0"], "--trials"),
    "sweep-zero-jobs": (["sweep", "--axis", "queue_rho", "--values", "0.1",
                         "--jobs", "0"], "--jobs"),
    "sweep-negative-jobs": (["sweep", "--axis", "queue_rho", "--values", "0.1",
                             "--jobs", "-2"], "--jobs"),
    "sweep-repeated-value": (["sweep", "--axis", "queue_rho", "--values",
                              "0.1,0.5,0.1"], "--values"),
    "sweep-unpaired-values": (["sweep", "--axis", "queue_rho", "--values", "0.1",
                               "--axis", "delta"], "--values"),
    "sweep-repeated-axis": (["sweep", "--axis", "queue_rho", "--values", "0.1",
                             "--axis", "fedqueue.queue_rho", "--values", "0.5"],
                            "--axis"),
    "ablate-zero-trials": (["ablate", "--trials", "0"], "--trials"),
    "check-lemma1-few-trials": (["check-lemma1", "--trials", "50"], "--trials"),
    "check-lemma1-zero-epsilon": (["check-lemma1", "--epsilon", "0"], "--epsilon"),
    "check-lemma1-no-rhos": (["check-lemma1", "--rhos", ","], "--rhos"),
    "check-lemma1-nan-rho": (["check-lemma1", "--rhos", "0.1,nan"], "--rhos"),
    "check-lemma1-nan-gamma": (["check-lemma1", "--gammas", "nan"], "--gammas"),
    "check-lemma1-inf-rho": (["check-lemma1", "--rhos", "0.1,inf"], "--rhos"),
    "check-lemma1-overflowing-rho": (["check-lemma1", "--rhos", "1e200"], "--rhos"),
    "check-lemma1-inf-gamma": (["check-lemma1", "--gammas", "inf"], "--gammas"),
    "run-out-is-a-file": (["run"], "--out"),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_exits_2_naming_the_flag(case, tmp_path, capsys):
    argv, flag = BAD_ARGUMENTS[case]
    out = tmp_path / "out"
    if case == "run-out-is-a-file":
        out.write_text("")
    if argv[0] != "check-lemma1":
        argv = argv + ["--config", str(tiny_config(tmp_path)), "--out", str(out)]
    assert run_cli(*argv) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(f"fedqueue {argv[0]}: error: {flag}")
    assert printed.err.count("\n") == 1
    assert out.exists() == (case == "run-out-is-a-file")


def test_cli_entrypoint_runs_as_subprocess(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "fedqueue.cli", "run", "--config", str(cfg),
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()


REPO = Path(__file__).resolve().parents[1]


def test_readme_library_surface_names_resolve():
    # every fq.NAME and log.NAME of the README's library block is a name of
    # the package, or a method, view or field of a MetricsLog
    block = re.search(r"^## Library surface\n+```python\n(.*?)^```",
                      (REPO / "README.md").read_text(), re.M | re.S).group(1)
    package = set(re.findall(r"\bfq\.(\w+)", block))
    log = set(re.findall(r"\blog\.(\w+)", block))
    assert package and log
    assert [name for name in package if not hasattr(fedqueue, name)] == []
    fields = {f.name for f in dataclasses.fields(MetricsLog)}
    assert [name for name in log
            if not hasattr(MetricsLog, name) and name not in fields] == []


def documented_commands() -> list[list[str]]:
    """The argv of every `fedqueue` command in the README's bash blocks and
    in the comments of configs/*.ini, continuation lines joined."""
    chunks = re.findall(r"^```bash\n(.*?)^```", (REPO / "README.md").read_text(),
                        re.M | re.S)
    for ini in sorted((REPO / "configs").glob("*.ini")):
        chunks += [line.lstrip(";") for line in ini.read_text().splitlines()
                   if line.startswith(";")]
    text = "\n".join(chunks).replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines()
            if line.strip().startswith("fedqueue ")]


def test_documented_commands_parse_and_name_loadable_configs():
    commands = documented_commands()
    assert len(commands) >= 8
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        if args.config:
            args.config = REPO / args.config
        cfg = cli._load(args)
        if args.command == "sweep":
            # every point of the grid is a config the validator accepts
            grid = cli._sweep_grid(args)
            for point in itertools.product(*(values for _, values in grid)):
                swept = cfg.copy()
                for (axis, _), value in zip(grid, point):
                    config.set_key(swept, axis, value)
                config.validate_config(swept)
