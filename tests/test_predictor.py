import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqueue.predictor import DelayPredictor


def ewma(num_clients, alpha, q_init):
    return DelayPredictor(np.full(num_clients, q_init), alpha)


def test_fresh_state_returns_initial_prior():
    pred = ewma(4, alpha=0.5, q_init=2.0)
    assert all(pred.predict(k) == 2.0 for k in range(4))


def test_static_values_ignore_observations():
    # the static ablation is the EWMA at alpha 0
    pred = DelayPredictor([1.5, 2.5, 3.5, 4.5], 0.0)
    for q in (0.0, 9.0, 100.0):
        pred.observe(2, q)
    assert pred.predict(2) == 3.5


def test_ewma_update_arithmetic():
    pred = ewma(1, alpha=0.5, q_init=2.0)
    pred.observe(0, 4.0)
    assert pred.predict(0) == pytest.approx(3.0)


def test_full_replacement_at_alpha_one():
    pred = ewma(2, alpha=1.0, q_init=123.0)
    pred.observe(1, 7.3)
    assert pred.predict(1) == 7.3


def test_observed_value_is_a_fixed_point():
    pred = ewma(1, alpha=0.5, q_init=2.0)
    pred.observe(0, 2.0)
    assert pred.predict(0) == 2.0


def test_prediction_consistent_after_update():
    pred = ewma(3, alpha=0.25, q_init=2.0)
    pred.observe(1, 6.0)
    assert pred.predict(1) == pytest.approx(0.75 * 2.0 + 0.25 * 6.0)


def test_warmup_seed_is_full_weight():
    pred = ewma(2, alpha=0.5, q_init=2.0)
    pred.seed(0, 5.5)
    assert pred.predict(0) == 5.5
    assert pred.predict(1) == 2.0


def test_negative_observation_rejected():
    pred = ewma(1, alpha=0.5, q_init=2.0)
    with pytest.raises(ValueError):
        pred.observe(0, -1.0)


@pytest.mark.parametrize("alpha", [-0.1, 1.1])
def test_alpha_outside_unit_interval_rejected(alpha):
    with pytest.raises(ValueError):
        ewma(1, alpha=alpha, q_init=2.0)


@given(st.floats(0.01, 1.0), st.floats(0, 50), st.floats(0, 50))
@settings(max_examples=200)
def test_update_stays_between_prior_and_observation(alpha, prior, obs):
    pred = ewma(1, alpha=alpha, q_init=prior)
    pred.observe(0, obs)
    lo, hi = min(prior, obs), max(prior, obs)
    assert lo - 1e-12 <= pred.predict(0) <= hi + 1e-12


@given(st.integers(0, 3), st.floats(0, 20))
@settings(max_examples=100)
def test_update_locality(k, obs):
    pred = ewma(4, alpha=0.5, q_init=2.0)
    before = pred.q_hat.copy()
    pred.observe(k, obs)
    after = pred.q_hat.copy()
    for j in range(4):
        if j != k:
            assert after[j] == before[j]


def test_static_immutability_under_any_sequence():
    pred = DelayPredictor([1.0, 2.0], 0.0)
    start = pred.q_hat.copy()
    rng = np.random.default_rng(0)
    for _ in range(100):
        pred.observe(int(rng.integers(2)), float(rng.uniform(0, 30)))
    assert np.array_equal(pred.q_hat, start)


@given(st.floats(0, 1e308), st.floats(0, 1e308))
@settings(max_examples=300)
def test_alpha_zero_keeps_prediction_bit_identical(prior, obs):
    pred = DelayPredictor([prior], 0.0)
    before = pred.q_hat.tobytes()
    pred.observe(0, obs)
    assert pred.q_hat.tobytes() == before
