"""Shared-resource primitives for the simulation engine.

Three primitives cover every contention effect in the modeled I/O stack:

:class:`Resource`
    A counted semaphore with FIFO queuing — used for bounded service slots
    (e.g. an OSD's outstanding-command limit) and, with capacity 1, as a
    mutex (e.g. a directory lock held during a create).

:class:`FairShareServer`
    A generalized-processor-sharing (GPS) server: *k* concurrent jobs each
    progress at ``capacity / k``.  This is the fluid model of a shared
    network link, a storage array, or a multithreaded metadata server, and
    it is what makes bulk-synchronous bandwidth curves come out right: when
    N ranks write at once, each one's transfer takes N times longer, yet
    aggregate throughput stays at capacity.  Implemented with the classic
    virtual-time algorithm so each job costs O(log n), which is what lets
    us run 65,536-rank jobs.

:class:`Store`
    An unbounded FIFO hand-off queue (producer/consumer), used for message
    mailboxes.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Sequence, Tuple

from ..errors import SimulationError
from .engine import Engine, Event

__all__ = ["Resource", "Mutex", "FairShareServer", "Store"]


class Resource:
    """A counted resource with FIFO granting.

    ``yield res.acquire(n)`` blocks until *n* units are available; pair with
    ``res.release(n)``.  Grants are strictly FIFO: a large request at the
    head of the queue blocks later small ones (no starvation, no barging),
    matching how slot-limited storage servers admit requests.
    """

    def __init__(self, env: Engine, capacity: int, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._available = capacity
        self._waiters: Deque[Tuple[Event, int]] = deque()
        # Stats.
        self.total_acquired = 0
        self.peak_queue = 0

    @property
    def available(self) -> int:
        """Units currently free."""
        return self._available

    @property
    def queued(self) -> int:
        """Requests waiting for capacity."""
        return len(self._waiters)

    def acquire(self, n: int = 1) -> Event:
        """Return an event that fires once *n* units have been granted."""
        if n < 1 or n > self.capacity:
            raise SimulationError(f"cannot acquire {n} of capacity {self.capacity}")
        ev = Event(self.env)
        if not self._waiters and self._available >= n:
            self._available -= n
            self.total_acquired += n
            ev.succeed(n)
        else:
            self._waiters.append((ev, n))
            self.peak_queue = max(self.peak_queue, len(self._waiters))
        return ev

    def release(self, n: int = 1) -> None:
        """Return *n* units and grant queued requests in FIFO order."""
        self._available += n
        if self._available > self.capacity:
            raise SimulationError(f"over-release on {self.name or 'Resource'}")
        while self._waiters and self._available >= self._waiters[0][1]:
            ev, want = self._waiters.popleft()
            self._available -= want
            self.total_acquired += want
            ev.succeed(want)

class Mutex(Resource):
    """A capacity-1 resource; reads better at call sites guarding one object."""

    def __init__(self, env: Engine, name: str = ""):
        super().__init__(env, 1, name)


class _ServeEvent(Event):
    """Completion event of a :class:`FairShareServer` job.

    Carries a back-reference to its server so deadlock reports
    (:func:`repro.sim.engine.describe_event`) can name the resource a stuck
    process is queued on — and whether that server is paused.
    """

    __slots__ = ("server",)


class FairShareServer:
    """Generalized processor sharing over a fixed capacity.

    ``serve(demand)`` returns an event firing when *demand* units of work
    complete, with instantaneous per-job rate ``capacity / active_jobs``.

    The virtual-time algorithm: let ``V(t)`` be the cumulative service each
    active job has received.  While the active set is constant, ``V`` grows
    at ``capacity / k``.  A job arriving at time ``t0`` with demand ``d``
    finishes when ``V == V(t0) + d``, so completions are just a min-heap on
    virtual finish times, and arrivals/departures only change the growth
    rate of ``V``.

    Degraded modes (driven by ``repro.faults``): :meth:`set_capacity`
    rescales service speed mid-run, :meth:`pause`/:meth:`resume` freeze and
    thaw all in-flight jobs (an unresponsive-but-alive component), and
    :meth:`fail_all` errors every in-flight job out (a crash that drops its
    queue).  All four keep the virtual-time bookkeeping exact, so a run
    with no faults injected is bit-identical to one built without hooks.
    """

    def __init__(self, env: Engine, capacity: float, name: str = ""):
        if not (capacity > 0):
            raise SimulationError(f"FairShareServer capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._vtime = 0.0  # cumulative per-job virtual service
        self._t_last = 0.0  # wall time of last vtime update
        self._jobs: List[Tuple[float, int, Event]] = []  # (finish_vtime, seq, event)
        self._seq = 0
        self._timer_seq = 0  # invalidates stale completion timers
        self._deadline = float("inf")  # wall time the earliest finish completes
        self._armed_at = float("inf")  # wall time the live timer event targets
        self._paused = False  # frozen: in-flight jobs make no progress
        # Stats.
        self.total_served = 0.0
        self.peak_active = 0
        self.busy_time = 0.0

    @property
    def active(self) -> int:
        """Jobs currently in service."""
        return len(self._jobs)

    @property
    def paused(self) -> bool:
        """True while service is frozen (see :meth:`pause`)."""
        return self._paused

    def _advance(self) -> None:
        """Advance virtual time to `env.now`."""
        now = self.env.now
        if self._jobs and not self._paused:
            dt = now - self._t_last
            if dt > 0:
                self._vtime += dt * self.capacity / len(self._jobs)
                self.busy_time += dt
        self._t_last = now

    def _invalidate_timer(self) -> None:
        """Forget the armed completion timer (it becomes a no-op when it fires)."""
        self._timer_seq += 1
        self._armed_at = float("inf")

    def set_capacity(self, capacity: float) -> None:
        """Rescale service speed; in-flight jobs keep their remaining demand.

        Models brown-out faults (a slow disk, a throttled link).  Virtual
        time is settled at the old rate first, so work already delivered is
        unaffected; only the remaining demand is served at the new rate.
        """
        if not (capacity > 0):
            raise SimulationError(f"FairShareServer capacity must be > 0, got {capacity}")
        self._advance()
        self.capacity = float(capacity)
        # The armed timer's deadline was computed at the old rate.  If the
        # new deadline is earlier, _reschedule arms a fresh timer; if later,
        # the old timer fires early and chains — but chaining trusts
        # _deadline, which _reschedule recomputes below.  Either way no
        # stale completion can fire.
        if not self._paused:
            self._reschedule()

    def pause(self) -> None:
        """Freeze service: in-flight jobs stop progressing until :meth:`resume`.

        Models an unresponsive component whose queue survives (e.g. a hung
        OSD that will come back).  Idempotent.
        """
        if self._paused:
            return
        self._advance()
        self._paused = True
        self._deadline = float("inf")
        self._invalidate_timer()

    def resume(self) -> None:
        """Thaw a paused server; remaining demand resumes at full rate."""
        if not self._paused:
            return
        self._paused = False
        self._t_last = self.env.now
        self._reschedule()

    def fail_all(self, make_exc) -> int:
        """Fail every in-flight job with ``make_exc()``; returns the count.

        Models a crash that drops its queue (e.g. an MDS losing queued ops).
        The server itself stays usable — new ``serve`` calls proceed — so a
        failover can repopulate it.
        """
        self._advance()
        jobs, self._jobs = self._jobs, []
        self._deadline = float("inf")
        self._invalidate_timer()
        for _, _, ev in jobs:
            ev.fail(make_exc())
        return len(jobs)

    def serve(self, demand: float) -> Event:
        """Submit *demand* units of work; returns the completion event."""
        if demand < 0:
            raise SimulationError(f"negative demand {demand!r}")
        ev = _ServeEvent(self.env)
        ev.server = self
        if demand == 0:
            ev.succeed()
            return ev
        self._advance()
        self._seq += 1
        jobs = self._jobs
        heapq.heappush(jobs, (self._vtime + demand, self._seq, ev))
        self.total_served += demand
        if len(jobs) > self.peak_active:
            self.peak_active = len(jobs)
        self._reschedule()
        return ev

    def serve_many(self, demands: Sequence[float]) -> List[Event]:
        """Submit a batch of jobs arriving at the same instant.

        Equivalent to ``[serve(d) for d in demands]`` — same virtual finish
        times, same completion timestamps — but pays one virtual-time
        advance, one heap restore, and at most one timer re-arm for the
        whole batch.  This is the entry point for the bulk-synchronous
        pattern where one caller submits N jobs at once (e.g. a striped
        I/O touching one device on several lanes).
        """
        events: List[Event] = []
        env = self.env
        self._advance()
        jobs = self._jobs
        vt = self._vtime
        pushed = 0
        for demand in demands:
            if demand < 0:
                raise SimulationError(f"negative demand {demand!r}")
            ev = _ServeEvent(env)
            ev.server = self
            events.append(ev)
            if demand == 0:
                ev.succeed()
                continue
            self._seq += 1
            if pushed:
                jobs.append((vt + demand, self._seq, ev))
            else:
                heapq.heappush(jobs, (vt + demand, self._seq, ev))
            pushed += 1
            self.total_served += demand
        if pushed:
            if pushed > 1:
                heapq.heapify(jobs)
            if len(jobs) > self.peak_active:
                self.peak_active = len(jobs)
            self._reschedule()
        return events

    def _reschedule(self) -> None:
        """Update the completion deadline; arm a timer only if it moved earlier.

        The deadline (wall time the earliest virtual finish completes) is
        recomputed on every arrival and completion, but a timer *event* is
        created only when the new deadline precedes the currently armed one.
        An arrival that lands behind the heap top can only push the deadline
        later (virtual time now grows slower), so the armed timer fires
        early, finds nothing due, and chains to the stored deadline in
        :meth:`_on_timer`.  A bulk-synchronous storm of N same-instant
        arrivals therefore costs one timer event instead of N — and because
        the chained timer targets the stored *absolute* deadline
        (``Engine.schedule_at``), completion timestamps are bit-for-bit what
        per-arrival re-arming would produce.
        """
        if self._paused:
            return  # deadline stays inf; resume() reschedules
        if not self._jobs:
            self._deadline = float("inf")
            return
        finish_v = self._jobs[0][0]
        k = len(self._jobs)
        dt = max(0.0, (finish_v - self._vtime) * k / self.capacity)
        self._deadline = self.env.now + dt
        if self._deadline < self._armed_at:
            self._arm()

    def _arm(self) -> None:
        """Create the physical timer event targeting the current deadline."""
        self._timer_seq += 1
        my_seq = self._timer_seq
        self._armed_at = self._deadline
        timer = self.env.schedule_at(self._deadline)
        timer._add_callback(lambda _ev, s=my_seq: self._on_timer(s))

    def _on_timer(self, seq: int) -> None:
        if seq != self._timer_seq:
            return  # superseded by an earlier-deadline timer
        self._armed_at = float("inf")  # this timer is spent
        if self.env.now < self._deadline:
            # Fired early: later arrivals pushed the deadline back without
            # arming a fresh timer (see _reschedule).  Chain to the true
            # deadline; no state has to change.
            self._arm()
            return
        self._advance()
        # Complete every job whose virtual finish has been reached.  The
        # epsilon absorbs float drift so simultaneous finishers batch.
        eps = 1e-9 * max(1.0, abs(self._vtime))
        completed = []
        while self._jobs and self._jobs[0][0] <= self._vtime + eps:
            _, _, ev = heapq.heappop(self._jobs)
            completed.append(ev)
        if not completed and self._jobs:
            # Float underflow: the timer was armed for the heap top, but the
            # residual virtual time is below the resolution of `now` so
            # _advance() made no progress.  Completing it is exact up to one
            # ulp — and refusing to would loop forever.
            fv, _, ev = heapq.heappop(self._jobs)
            self._vtime = fv
            completed.append(ev)
        for ev in completed:
            ev.succeed()
        self._reschedule()

    def work_remaining(self) -> float:
        """Demand units still owed to in-flight jobs (at the current time).

        A pure read: virtual time is brought up to date in a local, never
        committed, so sampling a server (probes, reports) cannot change how
        its later completions round.
        """
        vtime = self._vtime
        dt = self.env.now - self._t_last
        if self._jobs and not self._paused and dt > 0:
            vtime += dt * self.capacity / len(self._jobs)
        return sum(fv - vtime for fv, _, _ in self._jobs)

    def work_delivered(self) -> float:
        """Demand units actually served so far (total accepted minus in flight)."""
        return self.total_served - self.work_remaining()

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the server had active jobs."""
        if self.env.now == 0:
            return 0.0
        busy = self.busy_time
        if self._jobs:
            busy += self.env.now - self._t_last
        return busy / self.env.now


class Store:
    """An unbounded FIFO queue connecting producer and consumer processes.

    ``put`` never blocks; ``yield store.get()`` blocks until an item is
    available.  Items are delivered in insertion order, one per getter, in
    getter-arrival order.
    """

    def __init__(self, env: Engine, name: str = ""):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item (never blocks)."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event yielding the next item, FIFO."""
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev
