"""The parity corpus: every run of `parity_corpus.VARIANTS` gives what
`parity_corpus.json` pins, in process and through a two-worker pool."""
import json

import pytest

from fedqueue.engine import run_experiment, run_many

import parity_corpus

PINS = json.loads(parity_corpus.PINS.read_text())


def test_every_variant_is_pinned():
    assert sorted(PINS) == sorted(parity_corpus.VARIANTS)
    # the corpus holds diverging and stalled runs as well as finished ones
    reasons = {pin["failure_reason"].split(" ")[0] for pin in PINS.values()}
    assert reasons == {"", "non-finite", "stalled:"}


@pytest.mark.parametrize("name", sorted(parity_corpus.VARIANTS))
def test_run_matches_its_pin(name, tmp_path):
    log = run_experiment(parity_corpus.config(name))
    assert parity_corpus.facts(log, tmp_path) == PINS[name]


def test_pool_runs_match_their_pins(tmp_path):
    names = sorted(parity_corpus.VARIANTS)
    logs = run_many([parity_corpus.config(name) for name in names], 2)
    got = {name: parity_corpus.facts(log, tmp_path / name)
           for name, log in zip(names, logs)}
    assert got == {name: PINS[name] for name in names}
