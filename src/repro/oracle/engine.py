"""Discrete-event simulation kernel (the core of our ORACLE re-implementation).

The paper ran its simulations on ORACLE, a multiprocessor simulator written
in SIMSCRIPT II.5.  SIMSCRIPT provides an event calendar *and* a process
abstraction; ORACLE used one simulated process per PE user process and one
per communication channel.  This module provides the equivalent kernel in
pure Python:

* an event heap keyed by ``(time, priority, site, sseq)`` so that
  simultaneous events fire in a deterministic order.  A **site** is the
  model entity an event acts for (a PE, a channel, or the machine
  itself, as an integer index) and ``sseq`` is that site's private push
  counter — so an event's full sort key is computable from *local*
  information alone.  That locality is what lets the conservative
  parallel kernel (:mod:`repro.pdes`) reproduce the serial total order
  bit for bit: a shard owning a site draws exactly the sequence numbers
  the serial run would, and events that cross shard boundaries travel
  with their serial key attached,
* direct **event callbacks** — the hot path: any callable can be put on
  the calendar with :meth:`Engine.schedule` (validating) or
  :meth:`Engine.after` (trusted, no validation),
* a recurring-tick facility (:meth:`Engine.tick`) for periodic machinery
  (samplers, load broadcasters, gradient wakeups) that reuses one mutable
  heap entry instead of allocating a fresh one every period.

Where SIMSCRIPT models a PE or a periodic daemon as a process that holds
and waits, this kernel models it as a small callback state machine: the
PE executors, channels and periodic strategy machinery all put plain
callables on the calendar.  The kernel is deliberately small and
allocation-light: simulations in the reproduction push hundreds of
thousands of events per run, so the hot path avoids per-event object
churn.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any

__all__ = ["Engine", "SimulationError", "Tick"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, reentrant runs, runaway models)."""


class Tick:
    """A recurring callback owning one reusable heap entry.

    Created by :meth:`Engine.tick`.  On each firing the kernel calls
    ``fn()`` and pushes the *same* entry back with an advanced time and
    a fresh sequence number — per period that is one heappush and zero
    allocations.

    The sequence number is (re)drawn **after** ``fn()`` returns, so among
    simultaneous events at its site a tick's next firing sorts after
    everything its body scheduled there.
    """

    __slots__ = (
        "engine", "interval", "fn", "name", "site", "_entry", "_skip", "_stopped"
    )

    def __init__(
        self,
        engine: "Engine",
        interval: float,
        fn: Callable[[], Any],
        name: str = "",
        skip_first: bool = False,
        site: int = 0,
    ) -> None:
        self.engine = engine
        self.interval = interval
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "tick")
        self.site = site
        #: the first firing only reschedules (a priming event: the body
        #: first runs one interval after ``offset``)
        self._skip = skip_first
        self._stopped = False
        self._entry: list | None = None

    def _fire(self, _payload: Any = None) -> None:
        if self._stopped:
            self._entry = None
            return
        if self._skip:
            self._skip = False
        else:
            self.fn()
        engine = self.engine
        entry = self._entry
        site = self.site
        seqs = engine._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        entry[0] = engine.now + self.interval
        entry[3] = k
        heapq.heappush(engine._heap, entry)

    def stop(self) -> None:
        """Cancel future firings (takes effect when the pending entry pops)."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopped else f"every {self.interval}"
        return f"Tick({self.name!r}, {state})"


class Engine:
    """The event calendar and simulation clock.

    Events are ``(time, priority, site, sseq, action, payload)`` heap
    entries.  ``priority`` orders simultaneous events (lower fires
    first); ``site`` is the integer index of the model entity the event
    acts for (``0`` = the machine itself; the
    :class:`~repro.oracle.machine.Machine` assigns ``1 + pe`` to each PE
    and ``1 + n_pes + cid`` to each channel) and ``sseq`` is that site's
    private monotone push counter.  Together they guarantee FIFO order
    among equal ``(time, priority)`` events at one site and a fixed
    deterministic interleave across sites, which makes every run
    bit-for-bit reproducible for a fixed seed — and, because a site's
    counter only ever advances from events the site's owner executes,
    lets the sharded kernel reproduce the identical total order.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[list] = []
        #: per-site push counters, indexed by site id (grown by
        #: :meth:`ensure_sites`; a bare engine has only the global site 0)
        self._site_seq: list[int] = [0]
        self._running = False
        self._stopped = False
        self.events_executed: int = 0
        #: Optional hard event-count limit, a guard against runaway models.
        self.max_events: int | None = None

    def ensure_sites(self, count: int) -> None:
        """Grow the per-site counter table to at least ``count`` sites."""
        seqs = self._site_seq
        if count > len(seqs):
            seqs.extend([0] * (count - len(seqs)))

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        payload: Any = None,
        priority: int = 10,
        site: int = 0,
    ) -> None:
        """Schedule ``action(payload)`` to run ``delay`` units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        seqs = self._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        heapq.heappush(
            self._heap, [self.now + delay, priority, site, k, action, payload]
        )

    def after(
        self,
        delay: float,
        action: Callable[..., Any],
        payload: Any = None,
        priority: int = 10,
        site: int = 0,
    ) -> None:
        """:meth:`schedule` minus the negative-delay guard.

        The kernel-internal fast path: callers (PE executors, channels,
        word transport) derive delays from validated non-negative costs,
        so the branch would never fire.  A negative delay here corrupts
        the calendar silently — external/model code must use
        :meth:`schedule`.
        """
        seqs = self._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        heapq.heappush(
            self._heap, [self.now + delay, priority, site, k, action, payload]
        )

    def tick(
        self,
        interval: float,
        fn: Callable[[], Any],
        offset: float = 0.0,
        *,
        name: str = "",
        skip_first: bool = False,
        priority: int = 10,
        site: int = 0,
    ) -> Tick:
        """Run ``fn()`` every ``interval`` units, first at ``now + offset``.

        Returns the :class:`Tick`, whose one heap entry is recycled every
        period.  ``skip_first=True`` makes the firing at ``offset`` a
        silent reschedule (samplers, broadcasters): the registration
        event primes the loop without sampling at t=0.
        """
        if interval <= 0:
            raise SimulationError(f"tick interval must be positive (got {interval!r})")
        if offset < 0:
            raise SimulationError(f"cannot tick into the past (offset={offset!r})")
        tick = Tick(self, interval, fn, name, skip_first, site)
        seqs = self._site_seq
        k = seqs[site] + 1
        seqs[site] = k
        entry = [self.now + offset, priority, site, k, tick._fire, None]
        tick._entry = entry
        heapq.heappush(self._heap, entry)
        return tick

    # -- execution -----------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run until the heap drains, :meth:`stop` is called, or the
        clock passes ``until``.

        Returns the final simulation time.  Events scheduled exactly at
        ``until`` still fire.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        # Hot loop: locals for everything invariant across events.  The
        # event counter is flushed in ``finally`` so `events_executed`
        # stays correct on stop(), limit overrun, and model exceptions.
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        limit = self.max_events
        if limit is None:
            limit = float("inf")
        executed = self.events_executed
        try:
            if until is None:
                while heap and not self._stopped:
                    entry = pop(heap)
                    self.now = entry[0]
                    executed += 1
                    if executed > limit:
                        raise SimulationError(
                            f"event limit exceeded ({self.max_events}); "
                            "likely a runaway model"
                        )
                    entry[4](entry[5])
            else:
                while heap and not self._stopped:
                    entry = pop(heap)
                    time = entry[0]
                    if time > until:
                        # Put it back: a later run() call may continue here.
                        push(heap, entry)
                        self.now = until
                        break
                    self.now = time
                    executed += 1
                    if executed > limit:
                        raise SimulationError(
                            f"event limit exceeded ({self.max_events}); "
                            "likely a runaway model"
                        )
                    entry[4](entry[5])
        finally:
            self.events_executed = executed
            self._running = False
        return self.now

    def step(self) -> bool:
        """Execute a single event; return False if the calendar is empty.

        Honors the same guards as :meth:`run`: a stopped engine stays
        stopped (``step()`` returns False instead of silently reviving
        the run), the ``max_events`` runaway limit still raises, and it
        is not reentrant — stepping from inside a running event would
        bypass the limit and lose the count :meth:`run` writes back.
        """
        if self._running:
            raise SimulationError("Engine.step() called while the engine is running")
        if not self._heap or self._stopped:
            return False
        entry = heapq.heappop(self._heap)
        self.now = entry[0]
        self.events_executed += 1
        if self.max_events is not None and self.events_executed > self.max_events:
            raise SimulationError(
                f"event limit exceeded ({self.max_events}); likely a runaway model"
            )
        entry[4](entry[5])
        return True

    def peek(self) -> float | None:
        """Time of the next pending event, or None if the calendar is empty."""
        return self._heap[0][0] if self._heap else None

    @property
    def pending(self) -> int:
        """Number of events currently on the calendar."""
        return len(self._heap)

    def stop(self) -> None:
        """End the run after the current event completes.

        Unlike :meth:`clear`, stopping is sticky: events scheduled *by*
        the in-flight event do not restart execution, and :meth:`step`
        refuses to single-step a stopped engine.  This is how a simulation declares
        "the answer is in" while strategy machinery — periodic gradient
        wakeups, steal retries — would otherwise keep seeding the
        calendar forever.
        """
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stopped

    def clear(self) -> None:
        """Drop all pending events (used between experiment repetitions)."""
        self._heap.clear()

