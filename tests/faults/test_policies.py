"""Retry policies: bounded, deterministic, and transparent when absent."""

import pytest

from repro.errors import ConfigError, StorageUnavailable
from repro.faults.plan import FaultPlan
from repro.faults.policies import RetryPolicy, retrying
from repro.sim import Engine


def attempts(fail_first: int, counter: dict):
    """An attempt factory failing the first *fail_first* calls."""
    def attempt():
        counter["calls"] += 1
        if counter["calls"] <= fail_first:
            raise StorageUnavailable("x", "injected")
        return "ok"
        yield  # unreachable; makes this a generator function
    return attempt


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(max_delay=1e-6, base_delay=1e-3)

    def test_backoff_is_exponential_and_capped(self):
        p = RetryPolicy(base_delay=1e-3, multiplier=2.0, max_delay=3e-3,
                        jitter=0.0)
        assert [p.delay(k) for k in range(4)] == [1e-3, 2e-3, 3e-3, 3e-3]

    def test_jitter_deterministic_per_substream(self):
        mk = lambda: RetryPolicy(jitter=0.5,
                                 rng=FaultPlan((), seed=5).rng("retry-jitter"))
        a, b = mk(), mk()
        assert [a.delay(k) for k in range(6)] == [b.delay(k) for k in range(6)]
        assert a.delay(0) != RetryPolicy(jitter=0.0).delay(0)  # jitter applied


class TestRetrying:
    def test_none_policy_is_pure_passthrough(self):
        env = Engine()

        def attempt():
            yield env.timeout(1.0)
            return 42

        assert env.run_process(retrying(env, None, attempt)) == 42
        assert env.now == pytest.approx(1.0)

    def test_none_policy_returns_the_attempt_itself(self):
        """No policy, no wrapper: the caller yields from the attempt's own
        generator object, so a no-fault op costs no extra frame."""
        env = Engine()
        made = []

        def attempt():
            yield env.timeout(1.0)
            return 42

        def make():
            made.append(attempt())
            return made[-1]

        assert retrying(env, None, make) is made[0]
        assert len(made) == 1

    def test_none_policy_propagates_transient_unchanged(self):
        env = Engine()
        c = {"calls": 0}
        err = StorageUnavailable("x", "injected")

        def attempt():
            c["calls"] += 1
            raise err
            yield

        with pytest.raises(StorageUnavailable) as info:
            env.run_process(retrying(env, None, attempt))
        assert info.value is err
        assert c["calls"] == 1  # no retry without a policy

    def test_transients_absorbed_with_charged_backoff(self):
        env = Engine()
        c = {"calls": 0}
        p = RetryPolicy(max_retries=5, base_delay=1e-3, multiplier=2.0,
                        jitter=0.0)
        assert env.run_process(retrying(env, p, attempts(3, c))) == "ok"
        assert c["calls"] == 4
        assert p.retries == 3
        # Backoff time is simulated, deterministic: 1 + 2 + 4 ms.
        assert env.now == pytest.approx(7e-3)

    def test_max_retries_exhausted_raises(self):
        env = Engine()
        c = {"calls": 0}
        p = RetryPolicy(max_retries=2, base_delay=1e-3, jitter=0.0)
        with pytest.raises(StorageUnavailable):
            env.run_process(retrying(env, p, attempts(10, c)))
        assert c["calls"] == 3  # initial + 2 retries

    def test_deadline_bounds_total_wait(self):
        env = Engine()
        c = {"calls": 0}
        p = RetryPolicy(max_retries=100, base_delay=10.0, max_delay=10.0,
                        jitter=0.0, deadline=5.0)
        with pytest.raises(StorageUnavailable):
            env.run_process(retrying(env, p, attempts(10, c)))
        assert c["calls"] == 1       # first backoff would blow the deadline
        assert env.now == 0.0

    def test_non_transient_errors_propagate_immediately(self):
        env = Engine()
        c = {"calls": 0}

        def attempt():
            c["calls"] += 1
            raise ValueError("modeling bug")
            yield

        with pytest.raises(ValueError):
            env.run_process(retrying(env, RetryPolicy(), attempt))
        assert c["calls"] == 1
