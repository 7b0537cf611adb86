"""Client-side resilience: bounded timeout/retry with exponential backoff.

Real PLFS clients (and the MPI-IO layers above them) survive transient
storage faults by retrying with backoff; this module is the simulated
equivalent, wrapped around the charged-time operations of the write and
read paths.  Two invariants matter:

* **Bounded**: every policy has a retry cap and a wall-clock deadline, so
  a fault plan can never hang a run — a component that stays down past
  the deadline surfaces the underlying :class:`TransientIOError`.
* **Deterministic**: backoff jitter is drawn from a named substream of
  the fault plan's RNG (``FaultPlan.rng("retry-jitter", key)``), never
  from global randomness, so fault runs replay bit-identically.

Only :class:`~repro.errors.TransientIOError` (and subclasses — a downed
OSD, a crashed MDS) is retried.  Anything else is
a modeling or logic error and propagates immediately.

Retrying a failed write can re-append bytes whose first copy was charged
but never acknowledged — deliberate retransmission semantics.  Logical
content stays byte-identical (PLFS: the unindexed first copy is dead log
space resolved by last-writer-wins; direct: in-place overwrite), matching
how real clients retransmit over storage fabrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from ..errors import ConfigError, TransientIOError

__all__ = ["RetryPolicy", "retrying"]


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Attempt *k* (0-based) sleeps ``min(max_delay, base_delay * multiplier**k)``
    scaled by ``1 + jitter * u`` with ``u`` drawn from *rng* (a
    ``numpy.random.Generator``); with no rng or zero jitter the backoff is
    pure exponential.  ``deadline`` caps the total time a single logical
    operation may spend retrying.
    """

    max_retries: int = 8
    base_delay: float = 1e-3
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.5
    deadline: float = 600.0
    rng: object = None
    retries: int = 0  # running count of transients absorbed (observability)

    def __post_init__(self):
        if self.max_retries < 0 or self.base_delay <= 0 or self.multiplier < 1:
            raise ConfigError(f"bad retry policy {self!r}")
        if self.max_delay < self.base_delay or self.jitter < 0 or self.deadline <= 0:
            raise ConfigError(f"bad retry policy {self!r}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry *attempt* (0-based)."""
        d = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if self.jitter > 0 and self.rng is not None:
            d *= 1.0 + self.jitter * float(self.rng.random())
        return d


def retrying(env, policy: Optional[RetryPolicy],
             make_attempt: Callable[[], Generator]) -> Generator:
    """Run ``make_attempt()`` (a fresh generator per call), retrying transients.

    With ``policy=None`` this returns ``make_attempt()`` itself: callers
    ``yield from`` the attempt directly, with no wrapper frame and zero
    extra events, so un-instrumented runs stay bit-identical.  With a
    policy, the attempt's return value is returned on success; on
    :class:`TransientIOError` the policy's backoff is charged as simulated
    time and the attempt is re-made, up to ``max_retries`` times and
    within ``deadline`` seconds.
    """
    if policy is None:
        return make_attempt()
    return _retry(env, policy, make_attempt)


def _retry(env, policy: RetryPolicy,
           make_attempt: Callable[[], Generator]) -> Generator:
    start = env.now
    attempt = 0
    while True:
        try:
            result = yield from make_attempt()
            return result
        except TransientIOError:
            if attempt >= policy.max_retries:
                raise
            d = policy.delay(attempt)
            if (env.now - start) + d > policy.deadline:
                raise
            attempt += 1
            policy.retries += 1
            yield env.timeout(d)
