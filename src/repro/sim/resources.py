"""Shared-resource primitives for the simulation engine.

Three primitives cover every contention effect in the modeled I/O stack:

:class:`Mutex`
    A lock with FIFO granting — the per-block range locks of a
    write-through PFS (:mod:`repro.pfs.locks`).

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

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple, Union

from ..errors import SimulationError
from .engine import Engine, Event

__all__ = ["Mutex", "FairShareServer", "Join", "Store"]

_INF = float("inf")


class Mutex:
    """A lock with FIFO granting.

    ``yield m.acquire()`` blocks until the lock is held; pair with
    ``m.release()``.  A release hands the lock straight to the oldest
    waiter, so a later acquirer never barges ahead of the queue.
    """

    def __init__(self, env: Engine, name: str = ""):
        self.env = env
        self.name = name
        self.locked = False
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Return an event that fires once the lock is held."""
        ev = Event(self.env)
        if not self.locked:
            self.locked = True
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release the lock, granting it to the oldest waiter if any."""
        if not self.locked:
            raise SimulationError(f"over-release on {self.name or 'Mutex'}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.locked = False


class _ServeEvent(Event):
    """Completion event of a :class:`FairShareServer` job.

    Carries a back-reference to its server so deadlock reports
    (:func:`repro.sim.engine.describe_event`) can name the resource a stuck
    process is queued on — and whether that server is paused.
    """

    __slots__ = ("server",)

    # The server's completion hooks (shared with Join).
    _job_done = Event.succeed
    _job_failed = Event.fail


class Join(Event):
    """One completion event for a request served on several servers.

    ``server.serve(demand, join)`` counts a job toward the join instead of
    allocating an event for it; the join fires once every counted job has
    completed, with value ``None``.  A job failed by
    :meth:`FairShareServer.fail_all` fails the join once, with that job's
    exception; the join's later completions and failures do nothing.

    The join fires exactly two hops after its last job completes: a relay
    event, then the join.  That is when an ``all_of`` over one event per
    job fired (the last job's event, then the ``AllOf``), so same-instant
    order is unchanged, including when every job has zero demand or one
    fails.  A zero-demand job completes through its own relay, as a
    zero-demand ``serve`` completes through its own event.

    :attr:`servers` records each server a job went to, so deadlock reports
    can name the one a stuck request is still queued on.
    """

    __slots__ = ("_remaining", "_failed", "servers")

    def __init__(self, env: Engine):
        super().__init__(env)
        self._remaining = 0
        self._failed = False
        self.servers: List["FairShareServer"] = []

    @property
    def pending(self) -> int:
        """Counted jobs that have not completed yet."""
        return self._remaining

    def pending_servers(self) -> List["FairShareServer"]:
        """Servers still holding one of this join's jobs, first-use order."""
        return [srv for srv in dict.fromkeys(self.servers)
                if any(job[2] is self for job in srv._jobs)]

    def _relay(self, callback: Callable[[Event], None],
               exc: Optional[BaseException] = None) -> None:
        relay = Event(self.env)
        relay.callbacks = callback
        if exc is None:
            relay.succeed()
        else:
            relay.fail(exc)

    def _fire(self, relay: Event) -> None:
        if relay._exc is not None:
            self.fail(relay._exc)
        else:
            self.succeed()

    def _zero_done(self, _relay: Event) -> None:
        if self._failed:
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed()

    def _job_done(self) -> None:
        if self._failed:
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._relay(self._fire)

    def _job_failed(self, exc: BaseException) -> None:
        if self._failed:
            return
        self._failed = True
        self._relay(self._fire, exc)


class FairShareServer:
    """Generalized processor sharing over a fixed capacity.

    ``serve(demand)`` returns an event firing when *demand* units of work
    complete, with instantaneous per-job rate ``capacity / active_jobs``;
    ``serve(demand, join)`` counts the job toward a :class:`Join` instead.

    The virtual-time algorithm: let ``V(t)`` be the cumulative service each
    active job has received.  While the active set is constant, ``V`` grows
    at ``capacity / k``.  A job arriving at time ``t0`` with demand ``d``
    finishes when ``V == V(t0) + d``, so completions are just a min-heap on
    virtual finish times, and arrivals/departures only change the growth
    rate of ``V``.

    Degraded modes (driven by ``repro.faults``): :meth:`pause`/:meth:`resume`
    freeze and thaw all in-flight jobs (an unresponsive-but-alive
    component), and :meth:`fail_all` errors every in-flight job out (a
    crash that drops its queue).  All three keep the virtual-time
    bookkeeping exact, so a run with no faults injected is bit-identical to
    one built without hooks.
    """

    # Every timer's callback: one bound _on_timer, made on the first arm
    # (most servers of a large cluster never arm a timer).
    _timer_cb: Optional[Callable[[Event], None]] = None

    def __init__(self, env: Engine, capacity: float, name: str = ""):
        if not (capacity > 0):
            raise SimulationError(f"FairShareServer capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._vtime = 0.0  # cumulative per-job virtual service
        self._t_last = 0.0  # wall time of last vtime update
        # (finish_vtime, seq, what completes: its event or its join)
        self._jobs: List[Tuple[float, int, Union[_ServeEvent, Join]]] = []
        self._seq = 0
        self._deadline = _INF  # wall time the earliest finish completes
        self._armed_at = _INF  # wall time the live timer event targets
        self._timer: Optional[Event] = None  # the live timer; others are stale
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
        now = self.env._now
        if self._jobs and not self._paused:
            dt = now - self._t_last
            if dt > 0:
                self._vtime += dt * self.capacity / len(self._jobs)
                self.busy_time += dt
        self._t_last = now

    def _invalidate_timer(self) -> None:
        """Forget the armed completion timer (it becomes a no-op when it fires)."""
        self._timer = None
        self._armed_at = _INF

    def pause(self) -> None:
        """Freeze service: in-flight jobs stop progressing until :meth:`resume`.

        Models an unresponsive component whose queue survives (e.g. a hung
        OSD that will come back).  Idempotent.
        """
        if self._paused:
            return
        self._advance()
        self._paused = True
        self._deadline = _INF
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
        self._deadline = _INF
        self._invalidate_timer()
        for _, _, ev in jobs:
            ev._job_failed(make_exc())
        return len(jobs)

    def serve(self, demand: float, join: Optional[Join] = None) -> Event:
        """Submit *demand* units of work.

        Returns the job's completion event, or, given a *join*, counts the
        job toward it and returns the join.

        This and :meth:`serve_many` and :meth:`_on_timer` run once per
        job, so each inlines :meth:`_advance`, :meth:`_reschedule` and
        :meth:`_arm` with the same float expressions in the same order.
        """
        if demand < 0:
            raise SimulationError(f"negative demand {demand!r}")
        target: Union[_ServeEvent, Join]
        env = self.env
        if join is None:
            target = _ServeEvent(env)
            target.server = self
            if demand == 0:
                target.succeed()
                return target
        else:
            target = join
            join._remaining += 1
            join.servers.append(self)
            if demand == 0:
                join._relay(join._zero_done)
                return join
        now = env._now
        jobs = self._jobs
        vtime = self._vtime
        if jobs and not self._paused:
            dt = now - self._t_last
            if dt > 0:
                vtime = self._vtime = vtime + dt * self.capacity / len(jobs)
                self.busy_time += dt
        self._t_last = now
        self._seq += 1
        heappush(jobs, (vtime + demand, self._seq, target))
        self.total_served += demand
        k = len(jobs)
        if k > self.peak_active:
            self.peak_active = k
        if self._paused:
            return target
        dt = (jobs[0][0] - vtime) * k / self.capacity
        deadline = self._deadline = now + dt if dt > 0.0 else now
        if deadline < self._armed_at:
            self._armed_at = deadline
            timer = self._timer = env.schedule_at(deadline)
            timer.callbacks = self._timer_cb or self._bind_timer_cb()
        return target

    def serve_many(self, demands: Sequence[float], join: Join) -> Join:
        """Submit a batch of jobs arriving at the same instant, toward *join*.

        Equivalent to ``for d in demands: serve(d, join)`` — same virtual
        finish times, same completion timestamps — but pays one
        virtual-time advance, one heap restore, and at most one timer
        re-arm for the whole batch.  This is the entry point for the
        bulk-synchronous pattern where one caller submits N jobs at once
        (e.g. a striped I/O touching one device on several lanes).
        """
        env = self.env
        now = env._now
        jobs = self._jobs
        vtime = self._vtime
        if jobs and not self._paused:
            dt = now - self._t_last
            if dt > 0:
                vtime = self._vtime = vtime + dt * self.capacity / len(jobs)
                self.busy_time += dt
        self._t_last = now
        join.servers.append(self)
        pushed = 0
        for demand in demands:
            if demand < 0:
                raise SimulationError(f"negative demand {demand!r}")
            join._remaining += 1
            if demand == 0:
                join._relay(join._zero_done)
                continue
            self._seq += 1
            if pushed:
                jobs.append((vtime + demand, self._seq, join))
            else:
                heappush(jobs, (vtime + demand, self._seq, join))
            pushed += 1
            self.total_served += demand
        if not pushed:
            return join
        if pushed > 1:
            heapify(jobs)
        k = len(jobs)
        if k > self.peak_active:
            self.peak_active = k
        if self._paused:
            return join
        dt = (jobs[0][0] - vtime) * k / self.capacity
        deadline = self._deadline = now + dt if dt > 0.0 else now
        if deadline < self._armed_at:
            self._armed_at = deadline
            timer = self._timer = env.schedule_at(deadline)
            timer.callbacks = self._timer_cb or self._bind_timer_cb()
        return join

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

        :meth:`resume` calls this; the per-job paths inline it.
        """
        if not self._jobs:
            self._deadline = _INF
            return
        finish_v = self._jobs[0][0]
        k = len(self._jobs)
        dt = max(0.0, (finish_v - self._vtime) * k / self.capacity)
        self._deadline = self.env._now + dt
        if self._deadline < self._armed_at:
            self._arm()

    def _arm(self) -> None:
        """Create the physical timer event targeting the current deadline.

        The timer's only callback is the server's one bound
        :meth:`_on_timer`, so arming allocates no closure.  Every arm goes
        through ``Engine.schedule_at``, so an instrument wrapping it sees
        each one.
        """
        self._armed_at = self._deadline
        timer = self._timer = self.env.schedule_at(self._deadline)
        timer.callbacks = self._timer_cb or self._bind_timer_cb()

    def _bind_timer_cb(self) -> Callable[[Event], None]:
        cb = self._timer_cb = self._on_timer
        return cb

    def _on_timer(self, timer: Event) -> None:
        if timer is not self._timer:
            return  # superseded by an earlier-deadline timer, or invalidated
        env = self.env
        now = env._now
        deadline = self._deadline
        if now < deadline:
            # Fired early: later arrivals pushed the deadline back without
            # arming a fresh timer (see _reschedule).  Chain to the true
            # deadline; no state has to change.
            self._armed_at = deadline
            timer = self._timer = env.schedule_at(deadline)
            timer.callbacks = self._timer_cb
            return
        # A live timer implies jobs in flight and no pause: pause() and
        # fail_all() invalidate it, and only completions here drain jobs.
        jobs = self._jobs
        vtime = self._vtime
        dt = now - self._t_last
        if dt > 0:
            vtime = self._vtime = vtime + dt * self.capacity / len(jobs)
            self.busy_time += dt
        self._t_last = now
        # Complete every job whose virtual finish has been reached.  The
        # epsilon absorbs float drift so simultaneous finishers batch.
        # Completing one never re-enters the server (it only schedules
        # events), so each completes as it is popped.
        mag = abs(vtime)
        limit = vtime + 1e-9 * (mag if mag > 1.0 else 1.0)
        if jobs[0][0] > limit:
            # Float underflow: the timer was armed for the heap top, but the
            # residual virtual time is below the resolution of `now` so the
            # advance made no progress.  Completing it is exact up to one
            # ulp — and refusing to would loop forever.
            fv, _, target = heappop(jobs)
            vtime = self._vtime = fv
            target._job_done()
        else:
            while jobs and jobs[0][0] <= limit:
                heappop(jobs)[2]._job_done()
        self._armed_at = _INF  # this timer is spent
        if not jobs:
            self._deadline = _INF
            return
        dt = (jobs[0][0] - vtime) * len(jobs) / self.capacity
        deadline = self._deadline = now + dt if dt > 0.0 else now
        if deadline < _INF:
            self._armed_at = deadline
            timer = self._timer = env.schedule_at(deadline)
            timer.callbacks = self._timer_cb

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

    @property
    def idle(self) -> bool:
        """True when no item is queued and no getter waits."""
        return not self._items and not self._getters

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
