"""Discrete-event simulation engine.

The whole repro stack (network, file system, MPI, PLFS) runs on this small
coroutine-based engine.  Simulated activities are plain Python generator
functions that ``yield`` :class:`Event` objects; the engine resumes them when
the event fires.  The style matches SimPy's but the implementation is
self-contained and tuned for the bulk-synchronous workloads we simulate:

* yielding an already-triggered event resumes the process inline (no heap
  round-trip), which matters when 65,536 rank processes hammer shared
  resources;
* event callbacks never recurse more than one level — follow-on triggers go
  through the scheduler — so arbitrarily long completion chains cannot
  overflow the Python stack;
* zero-delay scheduling (event ``succeed``/``fail``, process starts and
  completions, condition triggers) bypasses the time heap entirely: such
  events go to a FIFO *immediate queue* drained before simulated time can
  advance.  Bulk-synchronous workloads trigger storms of same-timestamp
  events, and the immediate queue makes each one O(1) instead of
  O(log heap).  The observable order is unchanged: events still fire in
  (time, sequence-id) order, exactly as if everything went through the heap.

Instrumentation (the race sanitizer, the collective tracer, the model
checker, throughput probes) attaches through one observer bus,
:meth:`Engine.subscribe`; see :class:`Engine` for the protocol.

Example
-------
>>> env = Engine()
>>> def hello(env):
...     yield env.timeout(1.5)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
1.5
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from functools import partial
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from ..errors import DeadlockError, SimulationError

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "describe_event",
    "blocked_report",
]

_PENDING = object()  # sentinel: event value not yet set
_INF = float("inf")

# Collection thresholds while Engine.run is in progress (see there).
_RUN_GC_THRESHOLDS = (50_000, 20, 100)


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it is *triggered* once :meth:`succeed` or
    :meth:`fail` is called, and *processed* once the engine has run its
    callbacks.  Processes wait on events by ``yield``-ing them.

    ``callbacks`` storage is lazy to keep pending events small: ``None``
    while nothing waits, a bare callable for the overwhelmingly common
    single-waiter case, and a list only once a second waiter attaches.
    Use :meth:`_add_callback` rather than touching the attribute.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_processed")

    # Class-level flag: plain events need no start hook.  Process overrides
    # it with a per-instance slot so the engine can lazily kick generators
    # off without a throwaway start event (see Engine.run).
    _started = True

    def __init__(self, env: "Engine"):
        self.env = env
        self.callbacks: Any = None
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully in the past)."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when triggered successfully (not failed)."""
        return self._value is not _PENDING and self._exc is None

    @property
    def value(self) -> Any:
        """The success value; raises if the event failed or is pending."""
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure, if the event failed; else None."""
        return self._exc

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, scheduling callbacks for *now*."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        env = self.env
        env._eid += 1
        env._immediate.append((env._eid, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into each waiting process; if nothing is
        waiting when the callbacks run, the engine re-raises it (an unhandled
        simulated failure is a bug in the model, not a condition to swallow).
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._exc = exc
        env = self.env
        env._eid += 1
        env._immediate.append((env._eid, self))
        return self

    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._processed:
            raise SimulationError(f"cannot wait on processed event {self!r}")
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = cb
        elif type(cbs) is list:
            cbs.append(cb)
        else:
            self.callbacks = [cbs, cb]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Engine", delay: float, value: Any = None):
        # Inlined Event.__init__ + scheduling: timeouts are the single
        # hottest allocation in the simulator, so they pay no super() call.
        if delay < 0:
            raise SimulationError(f"negative timeout {delay!r}")
        self.env = env
        self.callbacks = None
        self._value = value
        self._exc = None
        self._processed = False
        env._eid += 1
        if delay == 0.0:
            env._immediate.append((env._eid, self))
        else:
            heapq.heappush(env._heap, (env._now + delay, env._eid, self))


class _Timer(Event):
    """An event at an absolute time, made by :meth:`Engine.schedule_at`."""

    __slots__ = ()


_new_event = object.__new__  # a bare instance; schedule_at fills the slots


class _Init:
    """Stand-in for the start 'event' of a process: send(None) semantics."""

    __slots__ = ()
    _exc = None
    _value = None


_INIT = _Init()


class Process(Event):
    """A running simulated activity wrapping a generator.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes (or fails with its exception), so
    processes can wait on other processes by yielding them.

    The process schedules *itself* for start — the engine's run loop sees the
    per-instance ``_started = False`` and resumes the generator instead of
    processing a completion, avoiding a throwaway start event per process
    (65,536-rank jobs allocate 65,536 fewer events and callback attaches).
    """

    __slots__ = ("_gen", "name", "_started", "_rcb", "_waiting")

    def __init__(self, env: "Engine", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"process() needs a generator, got {type(gen).__name__}; "
                "did you call a plain function instead of a generator function?"
            )
        super().__init__(env)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._started = False
        self._rcb = self._resume  # one bound method, reused for every yield
        self._waiting: Optional[Event] = None
        env._eid += 1
        env._immediate.append((env._eid, self))

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, event: Any) -> None:
        """Advance the generator; loop inline over already-triggered yields."""
        gen = self._gen
        while True:
            try:
                if event._exc is not None:
                    target = gen.throw(event._exc)
                else:
                    target = gen.send(event._value)
            except StopIteration as stop:
                self._value = stop.value
                self._finish()
                return
            except BaseException as exc:
                self._exc = exc
                self._finish()
                return
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
                )
                gen.close()
                self._exc = exc
                self._finish()
                return
            if target._processed:
                # Already processed: consume its value/exception inline.
                event = target
                continue
            cbs = target.callbacks
            if cbs is None:
                target.callbacks = self._rcb
            elif type(cbs) is list:
                cbs.append(self._rcb)
            else:
                target.callbacks = [cbs, self._rcb]
            self._waiting = target
            return

    def _finish(self) -> None:
        """Schedule this process's completion for the current instant."""
        self._waiting = None
        env = self.env
        env._eid += 1
        env._immediate.append((env._eid, self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"


class AllOf(Event):
    """Triggers when every child event has triggered; value is the list of values.

    Fails fast with the first child failure.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Engine", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        pending = []
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different engines")
            if ev._processed:
                if ev._exc is not None:
                    self.fail(ev._exc)
                    return
            else:
                pending.append(ev)
        self._remaining = len(pending)
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])
            return
        for ev in pending:
            ev._add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])


def describe_event(ev: Optional[Event], depth: int = 1) -> str:
    """One-line human description of what waiting on *ev* means.

    Used by deadlock reports.  Recurses *depth* levels into composite
    events (an ``AllOf``, a fair-share ``Join``) so "blocked on
    all_of" becomes "blocked on the 3 unfinished children of an all_of",
    which is what actually identifies a stuck fault-injection run.
    """
    if ev is None:
        return "nothing (runnable or never started)"
    server = getattr(ev, "server", None)
    if server is not None:  # a FairShareServer completion (see resources.py)
        return _describe_server(server)
    if hasattr(ev, "pending_servers"):  # a Join (see resources.py)
        servers = ev.pending_servers()
        inner = ""
        if depth > 0 and servers:
            inner = ", first: " + _describe_server(servers[0])
        return (f"join with {ev.pending} jobs pending on "
                f"{len(servers)} servers{inner}")
    if isinstance(ev, Process):
        inner = ""
        if depth > 0 and ev._waiting is not None:
            inner = f" (itself waiting on {describe_event(ev._waiting, depth - 1)})"
        return f"process {ev.name!r}{inner}"
    if isinstance(ev, AllOf):
        pending = [c for c in ev._events if not c._processed]
        inner = ""
        if depth > 0 and pending:
            inner = ", first: " + describe_event(pending[0], depth - 1)
        return f"all_of with {len(pending)}/{len(ev._events)} children pending{inner}"
    if isinstance(ev, Timeout):
        return "a timeout that never fired (scheduled past the run horizon?)"
    return f"{type(ev).__name__} at {id(ev):#x}"


def _describe_server(server: Any) -> str:
    state = "PAUSED" if server.paused else f"{server.active} active"
    return (f"service by FairShareServer {server.name or '<unnamed>'!r} "
            f"({state}, capacity {server.capacity:g})")


def blocked_report(procs: Iterable[Process]) -> str:
    """Multi-line report naming each blocked process and what it waits on."""
    lines = []
    for proc in procs:
        if proc.triggered:
            continue
        lines.append(f"  - {proc.name}: waiting on {describe_event(proc._waiting)}")
    return "\n".join(lines) if lines else "  (no blocked processes tracked)"


class Engine:
    """The event loop: an immediate FIFO, a time-ordered heap, an observer bus.

    Events scheduled for the *current* instant (triggers, process starts
    and completions) go to the immediate deque; only genuine delays enter
    the heap.  :meth:`run` interleaves the two so that events still fire
    in exact (time, sequence-id) order.

    The factories ``event()``, ``timeout(delay, value=None)``,
    ``process(gen, name="")`` and ``all_of(events)`` are per-instance
    partials of the event classes: they are the hottest constructors in
    the simulator, and a C-level partial costs no Python wrapper frame
    per call.

    **Observers.**  :meth:`subscribe` puts any object on the bus; the
    engine calls whichever of these methods it defines:

    * ``spawn(gen, name) -> gen`` — wrap the generator of every process
      spawned afterwards (the race sanitizer's yield-epoch counter);
    * ``fired(eid, event)`` — before each event's callbacks run;
    * ``quiescent(now)`` — whenever the current instant has fully
      drained: before time advances, and once when the run ends.  It
      must not schedule events;
    * ``select(ready) -> int`` — break a same-instant tie: *ready* is the
      ``(eid, event)`` pairs runnable now, sorted by eid, and index 0 is
      the default order.  At most one observer may define it (the model
      checker).

    Any other name is a *layer event* that a model layer publishes to
    :meth:`subscribers` of that name, and only when there are some:
    ``collective`` (:class:`repro.mpi.Comm`), ``job_drain``
    (:func:`repro.mpi.run_job`) and ``access`` (the sanitizer's tracked
    containers).  With no ``fired``, ``quiescent`` or
    ``select`` subscriber, :meth:`run` is the inlined fast loop and the
    bus costs nothing per event.

    Typical use::

        env = Engine()
        env.process(my_activity(env))
        env.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List = []
        self._immediate: deque = deque()
        self._eid = 0
        self.observers: List[Any] = []
        self._subs: Dict[str, Tuple[Callable[..., Any], ...]] = {}
        self._observed = False  # some observer takes per-event hooks
        self.event = partial(Event, self)
        self.timeout = partial(Timeout, self)
        self.process: Callable[..., Process] = partial(Process, self)
        self.all_of = partial(AllOf, self)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- the observer bus --------------------------------------------------
    def subscribe(self, observer: Any) -> Any:
        """Put *observer* on the bus and return it.

        A ``spawn`` observer wraps only processes spawned after it
        subscribes; the run loops read the bus when :meth:`run` starts.
        """
        if hasattr(observer, "select") and self.subscribers("select"):
            raise SimulationError("at most one observer may define select()")
        self.observers.append(observer)
        self._rewire()
        return observer

    def unsubscribe(self, observer: Any) -> None:
        """Take *observer* off the bus."""
        self.observers.remove(observer)
        self._rewire()

    def subscribers(self, hook: str) -> Tuple[Callable[..., Any], ...]:
        """The bound *hook* methods of the observers defining it, in
        subscription order (empty when nobody listens)."""
        subs = self._subs.get(hook)
        if subs is None:
            subs = self._subs[hook] = tuple(
                getattr(o, hook) for o in self.observers if hasattr(o, hook))
        return subs

    def _rewire(self) -> None:
        self._subs = {}
        self._observed = any(self.subscribers(h)
                             for h in ("fired", "quiescent", "select"))
        make = partial(Process, self)
        spawns = self.subscribers("spawn")
        if not spawns:
            self.process = make
            return

        def process(gen: Generator, name: str = "") -> Process:
            name = name or getattr(gen, "__name__", "process")
            for spawn in spawns:
                gen = spawn(gen, name)
            return make(gen, name)

        self.process = process

    # -- scheduling --------------------------------------------------------
    def schedule_at(self, t: float) -> Event:
        """An event firing at *absolute* simulated time *t* (value ``None``).

        Unlike ``timeout(t - now)``, the fire time is exactly the float
        *t* — no ``now + delay`` re-rounding — which resource models use to
        hit a precomputed deadline bit-for-bit.  Every fair-share server
        arms its completion timers here, once per distinct completion
        instant, so the event is built inline: no ``__init__`` frame.
        """
        if t < self._now:
            raise SimulationError(f"schedule_at({t}) is in the past (now={self._now})")
        ev = _new_event(_Timer)
        ev.env = self
        ev.callbacks = None
        ev._value = None
        ev._exc = None
        ev._processed = False
        self._eid += 1
        if t == self._now:
            self._immediate.append((self._eid, ev))
        else:
            heapq.heappush(self._heap, (t, self._eid, ev))
        return ev

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains, or until simulated time *until*.

        The run owns the host's garbage-collector policy.  A built world is
        millions of long-lived container objects, and CPython's cyclic
        collector would rescan all of them on every full collection, which
        makes host time superlinear in the rank count.  So the run freezes
        everything alive when it starts (``gc.freeze``) and raises the
        collection thresholds; objects created during the run are still
        collected.  The previous thresholds and freeze state are restored
        when the run returns or raises; an enabled or disabled collector
        is left as it was.  A caller that froze objects itself keeps them
        frozen: the run then only raises the thresholds.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"run(until={until}) is in the past (now={self._now})")
        thresholds = gc.get_threshold()
        freeze = gc.get_freeze_count() == 0
        if freeze:
            gc.freeze()
        if thresholds[0]:  # a zero threshold switches automatic collection off
            gc.set_threshold(*map(max, thresholds, _RUN_GC_THRESHOLDS))
        try:
            if self._observed:
                self._run_observed(until)
            else:
                self._run(until)
        finally:
            gc.set_threshold(*thresholds)
            if freeze:
                gc.unfreeze()

    def _run(self, until: Optional[float]) -> None:
        """The fast loop: one Python frame per event is the difference
        between "tens of minutes" and "minutes" at paper scale."""
        imm = self._immediate
        heap = self._heap
        heappop = heapq.heappop
        horizon = _INF if until is None else until
        popleft = imm.popleft
        while True:
            if imm:
                # Every immediate entry is stamped with the current time,
                # but a heap entry may share that timestamp with a smaller
                # sequence id (a timeout armed earlier that lands exactly
                # now) — it must fire first to keep the (time, eid) order.
                if heap and heap[0][0] <= self._now and heap[0][1] < imm[0][0]:
                    _, _, event = heappop(heap)
                else:
                    _, event = popleft()
            elif heap:
                t = heap[0][0]
                if t > horizon:
                    self._now = until
                    return
                _, _, event = heappop(heap)
                self._now = t
            else:
                return
            if not event._started:
                # A process awaiting its first resume, not a completion.
                event._started = True
                event._resume(_INIT)
                continue
            cbs = event.callbacks
            event.callbacks = None
            event._processed = True
            if cbs is not None:
                if type(cbs) is list:
                    for cb in cbs:
                        cb(event)
                else:
                    cbs(event)
            elif event._exc is not None:
                # A failed event nobody waited for: surface the bug.
                raise event._exc

    def _run_observed(self, until: Optional[float]) -> None:
        """:meth:`run` with the ``fired``/``quiescent``/``select`` hooks.

        Without a ``select`` subscriber the firing order is the fast
        loop's.  With one, every instant with more than one runnable
        event is a *decision point*: the loop gathers the whole ready set
        (immediate entries plus heap entries already due), fires the one
        ``select`` picks, and puts the rest back on the immediate queue in
        eid order.  Choosing index 0 everywhere reproduces the default
        order, because new events always get larger sequence ids.
        """
        fired = self.subscribers("fired")
        quiescent = self.subscribers("quiescent")
        select = (self.subscribers("select") or (None,))[0]
        imm = self._immediate
        heap = self._heap
        heappop = heapq.heappop
        horizon = _INF if until is None else until
        while True:
            now = self._now
            due = bool(heap) and heap[0][0] <= now
            if not (imm or due):
                for hook in quiescent:
                    hook(now)
                if not heap:
                    return
                t = heap[0][0]
                if t > horizon:
                    self._now = until
                    return
                self._now = t
                continue
            if select is None:
                if due and (not imm or heap[0][1] < imm[0][0]):
                    _, eid, event = heappop(heap)
                else:
                    eid, event = imm.popleft()
            else:
                while heap and heap[0][0] <= now:
                    _, eid, event = heappop(heap)
                    imm.append((eid, event))
                ready = sorted(imm)
                imm.clear()
                eid, event = ready.pop(select(ready) if len(ready) > 1 else 0)
                imm.extend(ready)
            for hook in fired:
                hook(eid, event)
            if not event._started:
                event._started = True
                event._resume(_INIT)
                continue
            cbs = event.callbacks
            event.callbacks = None
            event._processed = True
            if cbs is not None:
                if type(cbs) is list:
                    for cb in cbs:
                        cb(event)
                else:
                    cbs(event)
            elif event._exc is not None:
                raise event._exc

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: spawn *gen*, run to completion, return its result.

        Raises :class:`DeadlockError` if the event queue drains while the
        process is still blocked (a modeling bug: something never released).
        """
        proc = self.process(gen, name)
        self.run()
        if not proc.triggered:
            raise DeadlockError(
                f"event queue drained at t={self._now:g} with blocked processes:\n"
                + blocked_report([proc]))
        return proc.value
