import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqueue.config import FedQueueConfig
from fedqueue.queue_sim import compute_time, effective_rate, sample_queue_delay
from fedqueue.streams import substream


def fixed_model(delays=(0.5, 1.5, 2.4, 6.0)):
    return FedQueueConfig(sim_queue="fixed", queue_fixed=delays)


def lognormal_model(means=(1.5, 2.5, 3.5, 4.5), rho=0.4, mean_mode="median"):
    return FedQueueConfig(sim_queue="lognormal", queue_means=means,
                          queue_rho=rho, queue_mean_mode=mean_mode)


def test_fixed_kind_returns_configured_delay_exactly():
    model = fixed_model()
    assert sample_queue_delay(model, 3, substream(0, "queue", 3, 0)) == 6.0


def test_lognormal_zero_noise_collapses_to_the_mean_parameter():
    model = lognormal_model(rho=0.0)
    for _ in range(3):
        assert sample_queue_delay(model, 2, substream(1, "q", 2)) == pytest.approx(3.5)


class UnitNormal:
    """A stand-in substream whose every standard normal draw is 1."""

    def standard_normal(self):
        return 1.0


def test_lognormal_kernel_at_unit_z():
    # exp(ln 1.5 + 0.4) evaluated with 30-digit arithmetic
    q = sample_queue_delay(lognormal_model(), 0, UnitNormal())
    assert q == pytest.approx(2.2377370464619055, rel=1e-12)
    assert q == pytest.approx(1.5 * math.exp(0.4))


def test_arithmetic_mean_mode_matches_target_mean():
    model = lognormal_model(rho=0.8, mean_mode="arithmetic")
    rng = substream(7, "meancheck")
    draws = np.array([sample_queue_delay(model, 0, rng) for _ in range(200_000)])
    assert draws.mean() == pytest.approx(1.5, rel=0.02)


def test_unknown_kind_rejected():
    # validate_config rejects it first; a section built around it does not
    # fall through to the lognormal draw
    with pytest.raises(ValueError, match="unknown sim_queue: 'uniform'"):
        sample_queue_delay(FedQueueConfig(sim_queue="uniform"), 0,
                           substream(0, "queue", 0, 0))


def test_determinism_same_substream_same_delay():
    model = lognormal_model(rho=0.9)
    a = [sample_queue_delay(model, k, substream(42, "queue", k, r))
         for k in range(4) for r in range(10)]
    b = [sample_queue_delay(model, k, substream(42, "queue", k, r))
         for k in range(4) for r in range(10)]
    assert a == b


def test_tail_percentile_nondecreasing_in_rho():
    p90 = []
    for rho in (0.1, 0.5, 0.9):
        model = lognormal_model(rho=rho)
        rng = substream(3, "tail", int(rho * 10))
        draws = [sample_queue_delay(model, 1, rng) for _ in range(10_000)]
        p90.append(np.percentile(draws, 90))
    assert p90[0] <= p90[1] <= p90[2]


@given(st.integers(0, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_delays_nonnegative(k, seed):
    model = lognormal_model(rho=0.9)
    assert sample_queue_delay(model, k, substream(seed, "p", k)) >= 0.0


# ---------------------------------------------------------------------------
# compute times
# ---------------------------------------------------------------------------

def profile(throughput=(10.0, 10.0), slowdown=(1.0, 2.0)):
    return FedQueueConfig(throughput=throughput, slowdown=slowdown)


def test_compute_time_division():
    assert compute_time(profile(), 0, 60) == pytest.approx(6.0)


def test_compute_time_zero_steps():
    assert compute_time(profile(), 0, 0) == 0.0


def test_compute_time_slowdown_multiplier():
    assert compute_time(profile(), 1, 60) == pytest.approx(12.0)



def test_effective_rate_is_throughput_over_slowdown():
    assert effective_rate(profile(), 0) == 10.0
    assert effective_rate(profile(), 1) == 5.0
