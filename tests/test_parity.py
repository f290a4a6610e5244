"""The parity corpus: every run of `parity_corpus.VARIANTS` gives what
`parity_corpus.json` pins, in process and through a two-worker pool, and
writes its events in the declared schema."""
import json

import pytest

from fedqueue.engine import run_experiment, run_many
from fedqueue.metrics import EVENT_FIELDS

import parity_corpus

PINS = json.loads(parity_corpus.PINS.read_text())


@pytest.fixture(scope="module")
def pooled(tmp_path_factory):
    """name -> (log, facts, output directory) of every variant, run through
    a two-worker pool."""
    names = sorted(parity_corpus.VARIANTS)
    logs = run_many([parity_corpus.config(name) for name in names], 2)
    out = tmp_path_factory.mktemp("pool")
    return {name: (log, parity_corpus.facts(log, out / name), out / name)
            for name, log in zip(names, logs)}


def test_every_variant_is_pinned():
    assert sorted(PINS) == sorted(parity_corpus.VARIANTS)
    # the corpus holds diverging and stalled runs as well as finished ones
    reasons = {pin["failure_reason"].split(" ")[0] for pin in PINS.values()}
    assert reasons == {"", "non-finite", "stalled:"}


@pytest.mark.parametrize("name", sorted(parity_corpus.VARIANTS))
def test_run_matches_its_pin(name, tmp_path):
    log = run_experiment(parity_corpus.config(name))
    assert parity_corpus.facts(log, tmp_path) == PINS[name]


def test_pool_runs_match_their_pins(pooled):
    assert {name: facts for name, (_, facts, _) in pooled.items()} == \
        {name: PINS[name] for name in pooled}


def _keys(line: str) -> list:
    return json.loads(line, object_pairs_hook=lambda pairs: [k for k, _ in pairs])


def test_corpus_events_follow_the_declared_schema(pooled):
    # the corpus emits every declared kind, and each events.jsonl line holds
    # the time, the kind and the kind's declared names, in that order
    kinds = set()
    for log, _, out_dir in pooled.values():
        lines = (out_dir / "events.jsonl").read_text().splitlines()
        assert len(lines) == len(log.events)
        for line, event in zip(lines, log.events):
            assert _keys(line) == ["t", "kind", *EVENT_FIELDS[event.kind]]
            kinds.add(event.kind)
    assert kinds == set(EVENT_FIELDS)


def _plain(value) -> bool:
    return value is None or type(value) in (int, float)


def test_writer_inputs_are_plain_scalars(pooled):
    # the writer prints each value once and shares the token between JSON
    # and CSV; a numpy scalar would print differently in each (np.int64 as
    # 3.0 through json's default=float, as 3 through csv)
    for log, _, _ in pooled.values():
        for e in log.events:
            assert type(e.t) is float
            for value in e.values:
                assert _plain(value) or (type(value) is list and all(map(_plain, value)))
        for a in log.arrivals:
            assert all(_plain(getattr(a, name)) for name in a.__slots__)
        for row in log._round_rows():
            assert all(map(_plain, row[:8]))
            assert all(_plain(v) for column in row[8:] for v in column)


def test_applied_updates_are_the_logs_arrival_records(pooled):
    # each aggregate's data is the updates it applied, each set to the
    # aggregate's round and its own staleness, its delta dropped
    applied = 0
    for log, _, _ in pooled.values():
        for e in log.events:
            if e.kind != "aggregate":
                continue
            r, clients, taus = e.values
            assert [(m.client, m.agg_round, m.tau) for m in e.data] == \
                [(k, r, tau) for k, tau in zip(clients, taus)]
            for m in e.data:
                assert m.delta is None
                assert m.compute_seconds == m.arrival - m.submit_time - m.q
            applied += len(e.data)
    assert applied > 0
