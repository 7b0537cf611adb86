"""Yield-point race sanitizer: dynamic stale-read / lost-update detection.

The engine is cooperative — only one simulated process runs between two
``yield`` points — so data races here are not torn reads but *logical*
races: a process reads shared state, yields (letting other processes
run), and then acts on the stale value.  That is exactly the shape of
the pre-PR-2 last-closer bug in :mod:`repro.plfs.writer`: decrement a
refcount, see zero, yield on metadata ops, and only then retire the
registry entry — clobbering a writer that re-opened in between.

Two pieces make the hazard observable:

* every simulated process is wrapped (the sanitizer is a ``spawn``
  observer on the engine's bus, see :meth:`Sanitizer.spawn`) so it
  always knows *which* process is running and how many times it has
  yielded — its **yield epoch**;
* shared mutable containers opt in through :func:`tracked`, which
  returns a recording proxy.  Each read notes ``(version, epoch)`` in
  the reading process's read vector; each write checks it: if the
  process last read the key **before its current epoch** (i.e. across a
  yield) and the key's version moved in between because **another**
  process wrote it, the write is acting on stale data.

Conflict kinds:

* ``lost-update`` — the stale writer overwrites/deletes state another
  process updated after the read;
* ``stale-read`` — the entry the process read was *deleted* (and
  possibly recreated as a new generation) while it was parked at a
  yield; its write targets an entry that no longer means what it read.

Everything is disabled by default and free when disabled:
:func:`tracked` returns the container unchanged and the engine's hot
paths are untouched unless a :class:`Sanitizer` is subscribed to the
engine (``env.subscribe(Sanitizer(env))``).  Harness runs enable it per
world with ``--instrument sanitize``, which
:func:`repro.harness.setup.build_world` reads from ``REPRO_INSTRUMENT``
so sweep worker processes inherit the setting.

In strict mode (the default) a conflict raises
:class:`~repro.errors.RaceConditionError` at the offending write, with
the container, key, both process names, and both epochs in the message
— the traceback points at the exact line that acted on stale state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

from ..errors import RaceConditionError

__all__ = [
    "Conflict",
    "Sanitizer",
    "TrackedDict",
    "TrackedSet",
    "raw_snapshot",
    "sanitizer_of",
    "tracked",
]


@dataclass(frozen=True)
class Conflict:
    """One detected yield-point race, reported at the stale write."""

    kind: str          # "lost-update" | "stale-read"
    container: str     # tracked container name
    key: Any
    proc: str          # process that wrote after a stale read
    read_epoch: int    # its yield epoch at the stale read
    write_epoch: int   # its yield epoch at the write
    other: str         # process that modified the key in between
    time: float        # simulated time of the write

    def render(self) -> str:
        return (
            f"{self.kind} on {self.container}[{self.key!r}] at "
            f"t={self.time:g}: process {self.proc!r} read at yield-epoch "
            f"{self.read_epoch}, then wrote at epoch {self.write_epoch} "
            f"after {self.other!r} modified it in between"
        )


class _ProcRecord:
    """Per-process sanitizer state: yield epoch + read vector."""

    __slots__ = ("name", "epoch", "reads")

    def __init__(self, name: str):
        self.name = name
        self.epoch = 0
        # (container id, key) -> (version seen, epoch of the read)
        self.reads: Dict[Tuple[int, Any], Tuple[int, int]] = {}


class Sanitizer:
    """Collects per-process records, tracked containers, and conflicts.

    Subscribe it to *env* before the world's containers are registered
    and its processes spawned: ``env.subscribe(Sanitizer(env))``.
    """

    def __init__(self, env: Any, strict: bool = True):
        self.strict = strict
        self.conflicts: List[Conflict] = []
        self.current: Optional[_ProcRecord] = None
        self.containers = 0
        self.env = env
        self._nproc = 0
        self._ncid = 0
        # Optional access-footprint observer (the model checker's schedule
        # controller): called as ``observer.on_access(container, key,
        # is_write)`` for every tracked access.  None costs one attribute
        # load per access and nothing else.
        self.observer: Any = None

    # -- the engine's spawn hook -------------------------------------------
    def spawn(self, gen: Generator, name: str) -> Generator:
        """Wrap a process generator with yield-epoch bookkeeping."""
        self._nproc += 1
        return self._run(gen, _ProcRecord(f"{name}#{self._nproc}"))

    def _run(self, gen: Generator, rec: _ProcRecord) -> Generator:
        value: Any = None
        exc: Optional[BaseException] = None
        while True:
            rec.epoch += 1
            prev, self.current = self.current, rec
            try:
                if exc is not None:
                    item = gen.throw(exc)
                else:
                    item = gen.send(value)
            except StopIteration as stop:
                return stop.value
            except BaseException:
                raise
            finally:
                self.current = prev
            try:
                value = yield item
                exc = None
            except BaseException as e:  # thrown in by the engine
                exc = e

    # -- reporting ---------------------------------------------------------
    def report(self, conflict: Conflict) -> None:
        self.conflicts.append(conflict)
        if self.strict:
            raise RaceConditionError(conflict.render())

    def summary(self) -> str:
        n = len(self.conflicts)
        return (f"sanitizer: {self.containers} tracked containers, "
                f"{self._nproc} instrumented processes, {n} conflict(s)")


def sanitizer_of(env: Any) -> Optional[Sanitizer]:
    """The :class:`Sanitizer` subscribed to *env*, or None."""
    for obs in env.observers:
        if isinstance(obs, Sanitizer):
            return obs
    return None


def tracked(env: Any, container: Any, name: str) -> Any:
    """Register *container* (a dict or a set) as shared mutable state.

    With no sanitizer subscribed to *env* this returns *container*
    unchanged — the instrumentation is structurally free when disabled.
    With one subscribed it returns a :class:`TrackedDict` (or
    :class:`TrackedSet`) proxy that records read/write vectors per yield
    epoch.
    """
    san = sanitizer_of(env)
    if san is None:
        return container
    if isinstance(container, set):
        return TrackedSet(container, san, name)
    return TrackedDict(container, san, name)


def raw_snapshot(container: Any) -> Any:
    """The plain dict/set behind a tracked proxy (identity when untracked).

    Invariant oracles read simulator state through this so their
    inspections never perturb the sanitizer's read vectors or the model
    checker's access footprints.
    """
    if isinstance(container, TrackedDict):
        return container._d
    if isinstance(container, TrackedSet):
        return container._s
    return container


class _TrackedList:
    """Proxy for a mutable list stored *inside* a tracked dict.

    Mutating an entry's fields (``entry[0] += 1``) must count as a write
    to the owning key — the last-closer registry stores ``[refcount,
    eof, records]`` lists, and the race is on the refcount, not on the
    dict slot itself.
    """

    __slots__ = ("_lst", "_owner", "_key")

    def __init__(self, lst: list, owner: "TrackedDict", key: Any):
        self._lst = lst
        self._owner = owner
        self._key = key

    def __getitem__(self, i: Any) -> Any:
        self._owner._note_read(self._key)
        return self._lst[i]

    def __setitem__(self, i: Any, value: Any) -> None:
        self._owner._note_write(self._key)
        self._lst[i] = value

    def __len__(self) -> int:
        self._owner._note_read(self._key)
        return len(self._lst)

    def __iter__(self) -> Iterator[Any]:
        self._owner._note_read(self._key)
        return iter(list(self._lst))

    def __eq__(self, other: Any) -> bool:
        self._owner._note_read(self._key)
        if isinstance(other, _TrackedList):
            other = other._lst
        return self._lst == other

    def append(self, value: Any) -> None:
        self._owner._note_write(self._key)
        self._lst.append(value)

    def pop(self, i: int = -1) -> Any:
        self._owner._note_write(self._key)
        return self._lst.pop(i)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"tracked({self._lst!r})"


class _TrackedBase:
    """Shared version/read-vector bookkeeping for tracked containers.

    Subclasses expose a dict or set surface; every access funnels through
    :meth:`_note_read` / :meth:`_note_write`, which record the vectors the
    race detector compares and notify the sanitizer's access-footprint
    observer (when one is installed by the model checker).
    """

    __slots__ = ("_san", "name", "_cid", "_ver", "_writer", "_del_ver")

    def __init__(self, san: Sanitizer, name: str):
        self._san = san
        self.name = name
        san._ncid += 1
        san.containers += 1
        self._cid = san._ncid
        self._ver: Dict[Any, int] = {}
        self._writer: Dict[Any, str] = {}
        self._del_ver: Dict[Any, int] = {}   # version at last deletion

    # -- bookkeeping -------------------------------------------------------
    def _note_read(self, key: Any) -> None:
        san = self._san
        rec = san.current
        if rec is not None:
            rec.reads[(self._cid, key)] = (self._ver.get(key, 0), rec.epoch)
        obs = san.observer
        if obs is not None:
            obs.on_access(self.name, key, False)

    def _note_write(self, key: Any, deleted: bool = False) -> None:
        san = self._san
        obs = san.observer
        if obs is not None:
            obs.on_access(self.name, key, True)
        rec = san.current
        ver = self._ver.get(key, 0)
        # Deletions *by others since the read* decide the conflict kind, so
        # snapshot before recording this write's own (possibly del) version.
        del_since = self._del_ver.get(key, -1)
        self._ver[key] = ver + 1
        if deleted:
            self._del_ver[key] = ver + 1
        if rec is None:
            # Engine-context mutation (world construction, probes): bump
            # the version so process-side staleness still shows, but never
            # flag — there is no yield to race across here.
            self._writer[key] = "<engine>"
            return
        seen = rec.reads.get((self._cid, key))
        if seen is not None:
            v_read, e_read = seen
            other = self._writer.get(key, "<engine>")
            if e_read < rec.epoch and v_read != ver and other != rec.name:
                kind = "stale-read" if del_since > v_read else "lost-update"
                san.report(Conflict(
                    kind=kind, container=self.name, key=key, proc=rec.name,
                    read_epoch=e_read, write_epoch=rec.epoch, other=other,
                    time=float(getattr(san.env, "now", 0.0))))
        self._writer[key] = rec.name
        # A write retires the read basis: only a read *after* the last
        # write (the "check" of a check-then-act) can arm a conflict.
        # Blind last-writer-wins overwrites therefore never flag.
        rec.reads.pop((self._cid, key), None)


class TrackedDict(_TrackedBase):
    """Recording proxy around a plain dict of shared simulation state.

    Supports the mapping surface the instrumented modules actually use
    (item access, ``get``/``setdefault``/``pop``/``update``, ``del``,
    ``in``, iteration, ``values``/``items``/``keys``, ``clear``, ``|=``,
    ``len``).  List values come back wrapped in :class:`_TrackedList` so
    in-place field mutations are visible to the race detector.
    """

    __slots__ = ("_d", "_wrappers")

    def __init__(self, d: dict, san: Sanitizer, name: str):
        super().__init__(san, name)
        self._d = d
        self._wrappers: Dict[Any, _TrackedList] = {}

    def _wrap(self, key: Any, value: Any) -> Any:
        if type(value) is list:
            w = self._wrappers.get(key)
            if w is None or w._lst is not value:
                w = _TrackedList(value, self, key)
                self._wrappers[key] = w
            return w
        return value

    # -- mapping surface ---------------------------------------------------
    def __getitem__(self, key: Any) -> Any:
        value = self._d[key]
        self._note_read(key)
        return self._wrap(key, value)

    def __setitem__(self, key: Any, value: Any) -> None:
        self._note_write(key)
        self._d[key] = value

    def __delitem__(self, key: Any) -> None:
        self._note_write(key, deleted=True)
        del self._d[key]
        self._wrappers.pop(key, None)

    def __contains__(self, key: Any) -> bool:
        self._note_read(key)
        return key in self._d

    def __len__(self) -> int:
        return len(self._d)

    def __iter__(self) -> Iterator[Any]:
        keys = list(self._d)
        for k in keys:
            self._note_read(k)
        return iter(keys)

    def __bool__(self) -> bool:
        return bool(self._d)

    def get(self, key: Any, default: Any = None) -> Any:
        self._note_read(key)
        if key in self._d:
            return self._wrap(key, self._d[key])
        return default

    def setdefault(self, key: Any, default: Any = None) -> Any:
        if key not in self._d:
            self._note_write(key)
            self._d[key] = default
        self._note_read(key)
        return self._wrap(key, self._d[key])

    def pop(self, key: Any, *default: Any) -> Any:
        if key in self._d or not default:
            self._note_write(key, deleted=True)
            value = self._d.pop(key)
            self._wrappers.pop(key, None)
            return value
        self._note_read(key)
        return default[0]

    def update(self, other: Any = (), **kw: Any) -> None:
        items = other.items() if hasattr(other, "items") else other
        for k, v in items:
            self._note_write(k)
            self._d[k] = v
        for k, v in kw.items():  # repro: noqa[REP004] -- kwargs preserve call order (PEP 468)
            self._note_write(k)
            self._d[k] = v

    def __ior__(self, other: Any) -> "TrackedDict":
        self.update(other)
        return self

    def keys(self) -> List[Any]:
        return list(iter(self))

    def values(self) -> List[Any]:
        return [self._wrap(k, self._d[k]) for k in iter(self)]

    def items(self) -> List[Tuple[Any, Any]]:
        return [(k, self._wrap(k, self._d[k])) for k in iter(self)]

    def clear(self) -> None:
        for k in list(self._d):
            self._note_write(k, deleted=True)
        self._d.clear()
        self._wrappers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedDict({self.name!r}, {self._d!r})"


class TrackedSet(_TrackedBase):
    """Recording proxy around a plain set of shared simulation state.

    Each element is its own conflict key (membership is the state), so a
    membership test is a read of that element and ``add``/``discard``/
    ``remove`` are writes to it — a process that checks ``x in s``,
    yields, and then mutates ``x``'s membership after another process
    changed it gets flagged exactly like a stale dict write.
    """

    __slots__ = ("_s",)

    def __init__(self, s: set, san: Sanitizer, name: str):
        super().__init__(san, name)
        self._s = s

    def __contains__(self, key: Any) -> bool:
        self._note_read(key)
        return key in self._s

    def __len__(self) -> int:
        return len(self._s)

    def __bool__(self) -> bool:
        return bool(self._s)

    def __iter__(self) -> Iterator[Any]:
        keys = sorted(self._s, key=repr)
        for k in keys:
            self._note_read(k)
        return iter(keys)

    def add(self, key: Any) -> None:
        self._note_write(key)
        self._s.add(key)

    def discard(self, key: Any) -> None:
        if key in self._s:
            self._note_write(key, deleted=True)
            self._s.discard(key)
        else:
            self._note_read(key)

    def remove(self, key: Any) -> None:
        if key not in self._s:
            self._note_read(key)
            raise KeyError(key)
        self._note_write(key, deleted=True)
        self._s.remove(key)

    def update(self, other: Any) -> None:
        for k in other:
            self._note_write(k)
            self._s.add(k)

    def __ior__(self, other: Any) -> "TrackedSet":
        self.update(other)
        return self

    def clear(self) -> None:
        for k in list(self._s):
            self._note_write(k, deleted=True)
        self._s.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedSet({self.name!r}, {self._s!r})"
