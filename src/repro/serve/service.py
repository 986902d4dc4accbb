"""The scenario service core: dedup three ways, dispatch by policy.

:class:`ScenarioService` is the front-independent heart of ``repro
serve`` — the HTTP handler, the stdin loop, and the replay harness all
drive this one object.  A submitted spec is deduplicated in order of
increasing cost:

1. **in-flight coalescing** (singleflight) — a request whose content
   hash is already being computed attaches to that computation's
   future and receives the *identical* result object;
2. **warm cache hit** — the shared content-addressed
   :class:`~repro.parallel.cache.ResultCache` answers without touching
   the fleet;
3. **batch admission** — genuine misses accumulate for a configurable
   window (or until the batch size cap), then dispatch as one batch to
   the persistent worker fleet, each placement chosen by the pluggable
   :class:`~repro.serve.policy.ServePolicy`.

Backpressure is explicit: past ``high_water`` admitted-but-unfinished
computations the service answers *busy* (HTTP 429) instead of queueing
unboundedly, and each fleet worker's task queue is itself bounded.

Everything emits ``serve.*`` telemetry (request, coalesce, batch,
dispatch, complete, busy) under the repo's sink-guard convention, so
``repro watch`` renders a live serve panel for free.
"""

from __future__ import annotations

import asyncio
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Any

from ..obs import telemetry as _telemetry
from ..parallel.cache import ResultCache, result_from_dict, result_to_dict
from ..scenario import Scenario
from .fleet import WorkerFleet
from .policy import ServePolicy

__all__ = ["Busy", "ComputeError", "ScenarioService", "ServeStats", "Submitted"]


class Busy(Exception):
    """The service is past its high-water mark; try again later (429)."""


class ComputeError(Exception):
    """A fleet worker failed this scenario (the message carries its
    traceback text), or no live worker was left to run it."""


@dataclass
class ServeStats:
    """Live counters for ``/stats``, the smoke gate, and the bench."""

    requests: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    computed: int = 0
    batches: int = 0
    dispatched: int = 0
    rejected: int = 0
    errors: int = 0
    largest_batch: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "batches": self.batches,
            "dispatched": self.dispatched,
            "rejected": self.rejected,
            "errors": self.errors,
            "largest_batch": self.largest_batch,
        }


@dataclass
class Submitted:
    """One answered request: where it came from and what it holds."""

    spec: str
    key: str
    source: str  # "cache" | "coalesced" | "computed"
    result: dict[str, Any]
    wall_ms: float


@dataclass
class _Entry:
    """One admitted computation (unique content hash)."""

    key: str
    spec_text: str
    scenario: Scenario
    future: "asyncio.Future[dict[str, Any]]"
    worker: int | None = None
    admitted: float = field(default_factory=time.perf_counter)


class ScenarioService:
    """Batching, deduplicating, policy-dispatched scenario execution."""

    def __init__(
        self,
        fleet: WorkerFleet,
        policy: ServePolicy,
        cache: ResultCache | None = None,
        window: float = 0.01,
        max_batch: int = 16,
        high_water: int = 256,
    ) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0 seconds (got {window})")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1 (got {max_batch})")
        if high_water < 1:
            raise ValueError(f"high_water must be >= 1 (got {high_water})")
        self.fleet = fleet
        self.policy = policy
        self.cache = cache
        self.window = window
        self.max_batch = max_batch
        self.high_water = high_water
        self.stats = ServeStats()
        self._inflight: dict[str, _Entry] = {}
        self._by_task: dict[int, _Entry] = {}
        self._admission: "asyncio.Queue[str]" = asyncio.Queue()
        self._next_task_id = 0
        self._accepting = False
        self._loops: list["asyncio.Task[None]"] = []

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the fleet (once) and the batch/pump loops."""
        if self._accepting:
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.fleet.start)
        self._accepting = True
        tele = _telemetry.sink()
        if tele is not None:
            # The HTTP front re-emits with host/port once bound; this
            # covers the stdin and replay fronts.
            tele.emit(
                "serve.start", workers=self.fleet.workers, policy=self.policy.name
            )
        self._loops = [
            asyncio.ensure_future(self._batch_loop()),
            asyncio.ensure_future(self._pump_loop()),
        ]

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for every admitted computation to finish; True when empty."""
        futures = [e.future for e in self._inflight.values()]
        if futures:
            await asyncio.wait(futures, timeout=timeout)
        return not self._inflight

    async def stop(self, drain_timeout: float | None = 30.0) -> None:
        """Graceful shutdown: refuse new work, drain, stop the fleet."""
        self._accepting = False
        await self.drain(timeout=drain_timeout)
        for task in self._loops:
            task.cancel()
        for task in self._loops:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._loops = []
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.fleet.stop)

    @property
    def accepting(self) -> bool:
        return self._accepting

    # -- the front door ----------------------------------------------------------

    async def submit(self, spec_text: str) -> Submitted:
        """Answer one request (raises ``ValueError`` on a bad spec,
        :class:`Busy` past the high-water mark, :class:`ComputeError`
        when the scenario itself fails in a worker)."""
        start = time.perf_counter()
        tele = _telemetry.sink()
        # seeded(): the CLI's default-seed rule, so a served spec and
        # `repro run --json` of the same spec hash — and answer —
        # byte-identically.  content_hash canonicalizes eagerly, so
        # unknown registry names surface here as ValueError — a 400,
        # not a dead fleet task.
        scenario = Scenario.from_spec(spec_text).seeded()
        key = scenario.content_hash()
        self.stats.requests += 1

        entry = self._inflight.get(key)
        if entry is not None:
            self.stats.coalesced += 1
            if tele is not None:
                tele.emit("serve.coalesce", key=key[:12])
            # shield: a cancelled client must not cancel the shared
            # computation other waiters (and the cache) depend on.
            result = await asyncio.shield(entry.future)
            return Submitted(
                spec_text, key, "coalesced", result, _ms_since(start)
            )

        if self.cache is not None:
            cached = self.cache.get(scenario)
            if cached is not None:
                self.stats.cache_hits += 1
                if tele is not None:
                    tele.emit("serve.request", key=key[:12], source="cache")
                return Submitted(
                    spec_text, key, "cache", result_to_dict(cached), _ms_since(start)
                )

        if not self._accepting:
            self.stats.rejected += 1
            raise Busy("service is draining; not accepting new work")
        if len(self._inflight) >= self.high_water:
            self.stats.rejected += 1
            if tele is not None:
                tele.emit("serve.busy", inflight=len(self._inflight))
            raise Busy(
                f"{len(self._inflight)} computations in flight "
                f"(high water {self.high_water}); try again later"
            )

        if tele is not None:
            tele.emit("serve.request", key=key[:12], source="miss")
        loop = asyncio.get_running_loop()
        entry = _Entry(key, spec_text, scenario, loop.create_future())
        self._inflight[key] = entry
        self._admission.put_nowait(key)
        result = await asyncio.shield(entry.future)
        self.stats.computed += 1
        return Submitted(spec_text, key, "computed", result, _ms_since(start))

    # -- batch admission ---------------------------------------------------------

    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            keys = [await self._admission.get()]
            deadline = loop.time() + self.window
            while len(keys) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    keys.append(
                        await asyncio.wait_for(self._admission.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            self._dispatch_batch(keys)

    def _dispatch_batch(self, keys: list[str]) -> None:
        tele = _telemetry.sink()
        batch = [self._inflight[k] for k in keys if k in self._inflight]
        if not batch:
            return
        self.stats.batches += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        if tele is not None:
            tele.emit(
                "serve.batch", size=len(batch), queued=self._admission.qsize()
            )
        for entry in batch:
            self._dispatch_one(entry, tele)

    def _dispatch_one(self, entry: _Entry, tele: Any) -> None:
        fleet = self.fleet
        alive = fleet.alive()
        live = [i for i, ok in enumerate(alive) if ok]
        if not live:
            self.stats.errors += 1
            self._fail(
                entry,
                ComputeError(
                    f"all {fleet.workers} fleet workers have died; "
                    "restart the service"
                ),
            )
            return
        task_id = self._next_task_id
        self._next_task_id += 1
        payload = entry.scenario.to_json()
        worker = self.policy.pick(fleet.outstanding)
        if not (alive[worker] and self._try_submit(worker, task_id, payload)):
            # The chosen worker is dead or its bounded queue is at
            # capacity; fall back to the least-loaded live worker
            # before giving up.
            worker = min(live, key=lambda i: fleet.outstanding[i])
            if not self._try_submit(worker, task_id, payload):
                self.stats.rejected += 1
                self._fail(entry, Busy("every fleet queue is at capacity"))
                return
        entry.worker = worker
        self._by_task[task_id] = entry
        self.stats.dispatched += 1
        if tele is not None:
            tele.emit(
                "serve.dispatch",
                key=entry.key[:12],
                worker=worker,
                policy=self.policy.name,
                outstanding=list(fleet.outstanding),
            )

    def _try_submit(self, worker: int, task_id: int, payload: str) -> bool:
        try:
            self.fleet.submit(worker, task_id, payload)
        except queue_mod.Full:
            return False
        return True

    def _fail(self, entry: _Entry, error: Exception) -> None:
        """Answer ``entry``'s waiters with ``error``; it leaves the flight."""
        self._inflight.pop(entry.key, None)
        if not entry.future.done():
            entry.future.set_exception(error)

    # -- completions -------------------------------------------------------------

    async def _pump_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await loop.run_in_executor(None, self.fleet.next_result, 0.2)
            if item is None:
                if self._by_task:
                    self._fail_dead_workers()
                continue
            task_id, worker, ok, payload = item
            self.policy.completed(worker)
            entry = self._by_task.pop(task_id, None)
            if entry is None:  # pragma: no cover - defensive
                continue
            self._complete(entry, worker, ok, payload)

    def _complete(self, entry: _Entry, worker: int, ok: bool, payload: Any) -> None:
        tele = _telemetry.sink()
        self._inflight.pop(entry.key, None)
        wall_ms = _ms_since(entry.admitted)
        if ok:
            if self.cache is not None:
                # put() is atomic; a concurrent serve process racing on
                # the same key writes identical bytes.
                self.cache.put(entry.scenario, result_from_dict(payload))
            if tele is not None:
                tele.emit(
                    "serve.complete",
                    key=entry.key[:12],
                    worker=worker,
                    ok=True,
                    wall_ms=round(wall_ms, 3),
                )
            if not entry.future.done():
                entry.future.set_result(payload)
        else:
            self.stats.errors += 1
            if tele is not None:
                tele.emit(
                    "serve.complete",
                    key=entry.key[:12],
                    worker=worker,
                    ok=False,
                    wall_ms=round(wall_ms, 3),
                )
            if not entry.future.done():
                entry.future.set_exception(ComputeError(str(payload)))

    def _fail_dead_workers(self) -> None:
        dead = self.fleet.fail_dead_workers()
        if not dead:
            return
        lost = [
            (task_id, entry)
            for task_id, entry in self._by_task.items()
            if entry.worker in dead
        ]
        for task_id, entry in lost:
            del self._by_task[task_id]
            self.stats.errors += 1
            self._fail(
                entry,
                ComputeError(f"fleet worker {entry.worker} died with this task in flight"),
            )


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0
