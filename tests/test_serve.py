"""The scenario service: protocol, policies, fleet, dedup, fronts.

The serve contract under test, front to back:

* the wire protocol parses/renders without a framework and keeps the
  canonical-JSON byte-equality promise with ``repro run --json``;
* the dispatch policies are deterministic adapters of the paper's
  strategies over live per-worker backlogs;
* the fleet stays warm across batches and ships failures home as data;
* the service dedups three ways — coalesced requests share the
  *identical* result object, warm hits never touch the fleet, and the
  content hash is stable across spec spellings and submission order;
* both fronts (HTTP, stdin) drain gracefully.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.parallel import result_json
from repro.parallel.cache import ResultCache
from repro.scenario import Scenario
from repro.serve import (
    POLICY_NAMES,
    Busy,
    ComputeError,
    ReplayRequest,
    ScenarioService,
    WorkerFleet,
    build_server,
    error_body,
    http_response,
    make_policy,
    read_http_request,
    render_replay,
    request_spec,
    response_body,
    run_replay,
    serve_stdin,
)
from repro.serve.protocol import BadRequest

SPEC = "fib:8 @ grid:2x2 / cwn"
OTHER = "fib:9 @ grid:2x2 / cwn"


# -- protocol --------------------------------------------------------------------


class TestProtocol:
    def test_request_spec_accepts_json_and_bare_text(self):
        assert request_spec(b'{"spec": "fib:8 @ grid:2x2 / cwn"}') == SPEC
        assert request_spec(b"fib:8 @ grid:2x2 / cwn\n") == SPEC

    @pytest.mark.parametrize(
        "body",
        [b"", b"   ", b"{not json", b'{"spec": 7}', b'["fib:8"]', b'{"nope": "x"}'],
    )
    def test_request_spec_rejects_malformed(self, body):
        with pytest.raises(ValueError):
            request_spec(body)

    def test_response_and_error_bodies(self):
        body = response_body(SPEC, "abc123", "computed", {"x": 1}, 12.3456)
        assert body["v"] == 1
        assert body["source"] == "computed"
        assert body["wall_ms"] == 12.346
        err = error_body("too busy", status="busy")
        assert err["status"] == "busy"

    def test_http_response_is_canonical_json(self):
        raw = http_response(200, {"b": 2, "a": 1}, keep_alive=False)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in head
        assert f"Content-Length: {len(body)}".encode() in head
        # Sorted keys + compact separators: the result_json convention.
        assert body == b'{"a":1,"b":2}'

    def _parse(self, raw: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_http_request(reader)

        return asyncio.run(go())

    def test_read_http_request_round_trip(self):
        body = b'{"spec": "fib:8 @ grid:2x2 / cwn"}'
        raw = (
            b"POST /run HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        request = self._parse(raw)
        assert request.method == "POST"
        assert request.path == "/run"
        assert request.body == body
        assert request.keep_alive  # HTTP/1.1 default

    def test_read_http_request_eof_is_none(self):
        assert self._parse(b"") is None

    @pytest.mark.parametrize(
        "raw",
        [
            b"NOT A REQUEST\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
            b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ],
    )
    def test_read_http_request_rejects_malformed(self, raw):
        with pytest.raises(BadRequest):
            self._parse(raw)

    def test_connection_close_disables_keep_alive(self):
        request = self._parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive


# -- dispatch policies -----------------------------------------------------------


class TestPolicies:
    def test_policy_names_are_registered_strategies(self):
        from repro.core import STRATEGIES

        assert set(POLICY_NAMES) <= set(STRATEGIES.names())
        assert {"central", "random", "roundrobin", "cwn", "gm"} == set(POLICY_NAMES)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("not-a-policy", 2)

    def test_central_picks_least_loaded(self):
        policy = make_policy("central", 4)
        assert policy.pick([3, 0, 2, 5]) == 1
        assert policy.pick([1, 1, 0, 0]) == 2  # first argmin wins ties

    def test_roundrobin_cycles(self):
        policy = make_policy("roundrobin", 3)
        assert [policy.pick([0, 0, 0]) for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_random_is_seed_deterministic(self):
        a = make_policy("random", 4, seed=9)
        b = make_policy("random", 4, seed=9)
        picks_a = [a.pick([0, 0, 0, 0]) for _ in range(16)]
        picks_b = [b.pick([0, 0, 0, 0]) for _ in range(16)]
        assert picks_a == picks_b
        assert set(picks_a) <= {0, 1, 2, 3}

    def test_cwn_contracts_to_a_neighborhood(self):
        policy = make_policy("cwn", 8, seed=1)
        pointer = 0
        for _ in range(16):
            outstanding = [1] * 8
            pick = policy.pick(outstanding)
            radius = 4  # workers // 2
            distance = min((pick - pointer) % 8, (pointer - pick) % 8)
            assert distance <= radius
            pointer = pick  # the window recenters on the chosen worker

    def test_gm_beliefs_go_stale_then_refresh(self):
        policy = make_policy("gm", 2, seed=1)
        # All beliefs start equal; the policy self-increments on pick,
        # so consecutive picks spread without seeing real completions.
        picks = [policy.pick([0, 0]) for _ in range(4)]
        assert set(picks) == {0, 1}, "stale beliefs must still spread load"


# -- the fleet -------------------------------------------------------------------


class TestFleet:
    def test_runs_a_spec_and_matches_direct_run(self):
        spec = Scenario.of("fib:8", "grid:2x2", "cwn", seed=1)
        from repro.parallel.cache import result_to_dict

        with WorkerFleet(workers=1) as fleet:
            fleet.submit(0, 7, spec.to_json())
            task_id, worker, ok, payload = fleet.next_result(timeout=60)
        assert (task_id, worker, ok) == (7, 0, True)
        assert payload == result_to_dict(spec.run())
        assert fleet.outstanding == [0]

    def test_failure_travels_home_as_data_and_worker_survives(self):
        spec = Scenario.of("fib:8", "grid:2x2", "cwn", seed=1)
        with WorkerFleet(workers=1) as fleet:
            fleet.submit(0, 1, "NOT VALID JSON")
            task_id, _worker, ok, payload = fleet.next_result(timeout=60)
            assert task_id == 1 and not ok
            assert "Traceback" in payload
            # The worker must stay warm after a poisoned task.
            fleet.submit(0, 2, spec.to_json())
            task_id, _worker, ok, _payload = fleet.next_result(timeout=60)
            assert task_id == 2 and ok
            assert fleet.alive() == [True]

    def test_outstanding_counts_survive_concurrent_updates(self):
        """submit() (the loop) and next_result() (the result reader
        thread) update the per-worker counts concurrently; no update
        may be lost, even when a result is read before submit()
        returns.  Queues stand in for the worker processes."""
        import queue
        import sys
        import threading

        fleet = WorkerFleet(workers=2)
        fleet._tasks = [queue.Queue(), queue.Queue()]
        fleet._results = queue.Queue()
        fleet._started = True
        submitters, per_submitter = 4, 500
        total = submitters * per_submitter
        read: list = []

        def submit(base):
            for i in range(per_submitter):
                fleet.submit(i % 2, base + i, "{}")

        def work(worker):
            for _ in range(total // 2):
                task_id, _payload = fleet._tasks[worker].get(timeout=10)
                fleet._results.put((task_id, worker, True, None))

        def drain():
            while len(read) < total:
                item = fleet.next_result(timeout=10)
                if item is None:
                    return
                read.append(item)

        threads = [
            threading.Thread(target=submit, args=(k * per_submitter,))
            for k in range(submitters)
        ]
        threads += [threading.Thread(target=work, args=(w,)) for w in (0, 1)]
        threads.append(threading.Thread(target=drain))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(read) == total
        assert fleet.outstanding == [0, 0]

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            WorkerFleet(workers=0)
        with pytest.raises(ValueError):
            WorkerFleet(workers=1, queue_depth=0)
        fleet = WorkerFleet(workers=1)
        with pytest.raises(RuntimeError):
            fleet.submit(0, 1, "{}")


# -- the service -----------------------------------------------------------------


def _service(tmp_path=None, **kw):
    kw.setdefault("window", 0.005)
    cache = None if tmp_path is None else ResultCache(tmp_path)
    fleet = WorkerFleet(workers=kw.pop("workers", 1))
    return ScenarioService(
        fleet, make_policy(kw.pop("policy", "central"), fleet.workers), cache=cache, **kw
    )


def _kill_worker(fleet, worker):
    """SIGKILL one fleet worker and reap it, so ``alive()`` sees it dead."""
    import os
    import signal

    proc = fleet._procs[worker]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)


class TestService:
    def test_coalesced_requests_share_the_identical_result_object(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            try:
                a, b, c = await asyncio.gather(
                    service.submit(SPEC), service.submit(SPEC), service.submit(SPEC)
                )
            finally:
                await service.stop()
            return a, b, c, service.stats

        a, b, c, stats = asyncio.run(go())
        sources = sorted((a.source, b.source, c.source))
        assert sources == ["coalesced", "coalesced", "computed"]
        # The singleflight promise: not equal copies — the same object.
        assert a.result is b.result is c.result
        assert a.key == b.key == c.key
        assert stats.computed == 1 and stats.coalesced == 2

    def test_warm_cache_answers_without_the_fleet(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            try:
                first = await service.submit(SPEC)
                second = await service.submit(SPEC)
            finally:
                await service.stop()
            dispatched = service.stats.dispatched
            # A fresh service over the same cache directory starts warm.
            other = _service(tmp_path)
            await other.start()
            try:
                third = await other.submit(SPEC)
            finally:
                await other.stop()
            return first, second, third, dispatched, other.stats

        first, second, third, dispatched, other_stats = asyncio.run(go())
        assert (first.source, second.source, third.source) == (
            "computed", "cache", "cache",
        )
        assert first.result == second.result == third.result
        assert dispatched == 1
        assert other_stats.dispatched == 0, "warm hit must not touch the fleet"

    def test_result_matches_direct_scenario_run_byte_for_byte(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            try:
                return await service.submit(SPEC)
            finally:
                await service.stop()

        answer = asyncio.run(go())
        direct = Scenario.from_spec(SPEC).seeded().run()
        served = json.dumps(answer.result, sort_keys=True, separators=(",", ":"))
        assert served == result_json(direct)

    def test_bad_spec_is_a_value_error_not_a_dead_task(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            try:
                with pytest.raises(ValueError):
                    await service.submit("total nonsense")
                with pytest.raises(ValueError):
                    await service.submit("fib:8 @ grid:2x2 / no-such-strategy")
                # The service keeps serving after rejected specs.
                return await service.submit(SPEC)
            finally:
                await service.stop()

        assert asyncio.run(go()).source == "computed"

    def test_high_water_turns_away_excess_load(self, tmp_path):
        async def go():
            service = _service(tmp_path, high_water=1, window=0.2)
            await service.start()
            try:
                first = asyncio.ensure_future(service.submit(SPEC))
                await asyncio.sleep(0.05)  # let it be admitted
                with pytest.raises(Busy):
                    await service.submit(OTHER)
                busy_stat = service.stats.rejected
                # The duplicate of an in-flight spec still coalesces —
                # dedup is cheaper than admission and bypasses the gate.
                dup = await service.submit(SPEC)
                return await first, dup, busy_stat
            finally:
                await service.stop()

        first, dup, rejected = asyncio.run(go())
        assert first.source == "computed"
        assert dup.source == "coalesced"
        assert rejected == 1

    def test_stop_drains_admitted_work(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            pending = asyncio.ensure_future(service.submit(SPEC))
            await asyncio.sleep(0.05)
            await service.stop()  # must wait for the admitted request
            answer = await pending
            with pytest.raises(Busy):
                await service.submit(OTHER)
            return answer

        assert asyncio.run(go()).source == "computed"

    def test_content_hash_is_stable_across_spellings_and_order(self):
        spellings = [
            "fib:10 @ grid:4x4 / cwn?seed=3&start=0",
            "fib:10 @ grid:4x4 / cwn?start=0&seed=3",
            "  fib:10   @ grid:4x4 /   cwn?start=0&seed=3  ",
        ]
        hashes = {Scenario.from_spec(s).seeded().content_hash() for s in spellings}
        assert len(hashes) == 1

    def test_keys_independent_of_submission_order(self, tmp_path):
        specs = [SPEC, OTHER, "fib:8 @ grid:2x2 / gm"]

        def keys_for(order):
            async def go():
                service = _service(tmp_path, workers=2)
                await service.start()
                try:
                    answers = await asyncio.gather(
                        *(service.submit(s) for s in order)
                    )
                finally:
                    await service.stop()
                return {a.spec: a.key for a in answers}

            return asyncio.run(go())

        forward = keys_for(specs)
        backward = keys_for(list(reversed(specs)))
        assert forward == backward

    def test_dead_worker_gets_no_new_work(self, tmp_path):
        """A killed worker's zeroed backlog must not attract dispatches:
        every request lands on the survivor instead of timing out on the
        dead worker's orphaned queue."""
        specs = [f"fib:{n} @ grid:2x2 / cwn?seed={seed}" for n in (6, 7) for seed in range(10)]

        async def go():
            service = _service(tmp_path, workers=2)
            await service.start()
            try:
                _kill_worker(service.fleet, 0)
                answers = []
                for spec in specs:
                    answers.append(await service.submit(spec))
                return answers, service.stats
            finally:
                await service.stop()

        answers, stats = asyncio.run(go())
        assert [a.source for a in answers] == ["computed"] * len(specs)
        assert stats.errors == 0

    def test_no_live_worker_fails_fast(self, tmp_path):
        async def go():
            service = _service(tmp_path, workers=2)
            await service.start()
            try:
                for worker in range(2):
                    _kill_worker(service.fleet, worker)
                with pytest.raises(ComputeError, match="fleet workers have died"):
                    await asyncio.wait_for(service.submit(SPEC), timeout=5.0)
                return service.stats
            finally:
                await service.stop()

        stats = asyncio.run(go())
        assert stats.dispatched == 0 and stats.errors == 1

    def test_validates_knobs(self):
        fleet = WorkerFleet(workers=1)
        policy = make_policy("central", 1)
        with pytest.raises(ValueError):
            ScenarioService(fleet, policy, window=-1)
        with pytest.raises(ValueError):
            ScenarioService(fleet, policy, max_batch=0)
        with pytest.raises(ValueError):
            ScenarioService(fleet, policy, high_water=0)

    def test_high_water_is_the_one_admission_bound(self):
        fleet = WorkerFleet(workers=2, queue_depth=3)
        policy = make_policy("central", 2)
        assert ScenarioService(fleet, policy).high_water == 6
        assert ScenarioService(fleet, policy, high_water=5).high_water == 5
        with pytest.raises(ValueError, match="capacity"):
            ScenarioService(fleet, policy, high_water=7)
        server = build_server(no_cache=True)
        assert server.service.high_water == 2 * 64

    def test_refusal_at_the_defaults_is_high_water(self):
        """At the default knobs a flood past the fleet's capacity is
        turned away by admission (the 429 with "high water"), never by
        a full worker queue."""
        service = build_server(no_cache=True).service
        flood = service.high_water + 12
        specs = [f"fib:2 @ grid:2x2 / cwn?seed={i}" for i in range(flood)]

        async def go():
            await service.start()
            try:
                return await asyncio.gather(
                    *(service.submit(s) for s in specs), return_exceptions=True
                )
            finally:
                await service.stop()

        answers = asyncio.run(go())
        refused = [a for a in answers if isinstance(a, Exception)]
        assert len(refused) == 12
        assert all(isinstance(e, Busy) and "high water" in str(e) for e in refused)
        assert sum(a.source == "computed" for a in answers if not isinstance(a, Exception)) == flood - 12
        assert service.stats.errors == 0

    def test_result_pump_thread_ends(self, tmp_path):
        """A front that dies with a computation in flight neither hangs
        asyncio.run on the result pump nor leaves the pump running once
        the service is stopped."""
        import threading
        import time

        service = _service(tmp_path)

        async def go():
            await service.start()
            asyncio.ensure_future(service.submit("fib:18 @ grid:8x8 / cwn"))
            await asyncio.sleep(0.05)  # admitted and dispatched
            raise RuntimeError("front died")

        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="front died"):
            asyncio.run(go())
        assert time.perf_counter() - start < 5.0
        asyncio.run(service.stop(drain_timeout=0))
        pumps = [t for t in threading.enumerate() if t.name == "repro-serve-results"]
        assert not pumps


# -- the HTTP front --------------------------------------------------------------


async def _http(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    status = int(raw.split(b" ", 2)[1])
    payload = json.loads(raw.partition(b"\r\n\r\n")[2])
    return status, payload


class TestHttpFront:
    def test_end_to_end(self, tmp_path):
        async def go():
            server = build_server(port=0, workers=1, window=0.005)
            server.service.cache = ResultCache(tmp_path)
            await server.start()
            port = server.port
            try:
                ok, health = await _http(port, "GET", "/healthz")
                run1 = await _http(
                    port, "POST", "/run", json.dumps({"spec": SPEC}).encode()
                )
                run2 = await _http(port, "POST", "/run", SPEC.encode())
                bad = await _http(port, "POST", "/run", b"garbage !!!")
                missing = await _http(port, "GET", "/nowhere")
                wrong_method = await _http(port, "GET", "/run")
                stats = await _http(port, "GET", "/stats")
            finally:
                await server.stop()
            return ok, health, run1, run2, bad, missing, wrong_method, stats

        ok, health, run1, run2, bad, missing, wrong_method, stats = asyncio.run(go())
        assert ok == 200 and health["ok"] and health["workers"] == 1
        assert run1[0] == 200 and run1[1]["source"] == "computed"
        assert run2[0] == 200 and run2[1]["source"] == "cache"
        assert run1[1]["result"] == run2[1]["result"]
        assert bad[0] == 400 and "error" in bad[1]
        assert missing[0] == 404
        assert wrong_method[0] == 405
        # The malformed spec fails at parse, before the counter: only
        # the two served runs count.
        assert stats[0] == 200 and stats[1]["requests"] == 2

    def test_keep_alive_serves_many_requests_per_connection(self, tmp_path):
        async def go():
            server = build_server(port=0, workers=1, window=0.005)
            server.service.cache = ResultCache(tmp_path)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    statuses = []
                    for _ in range(2):
                        body = json.dumps({"spec": SPEC}).encode()
                        writer.write(
                            b"POST /run HTTP/1.1\r\nHost: t\r\n"
                            + f"Content-Length: {len(body)}\r\n\r\n".encode()
                            + body
                        )
                        await writer.drain()
                        status_line = await reader.readline()
                        statuses.append(int(status_line.split(b" ")[1]))
                        length = 0
                        while True:
                            line = await reader.readline()
                            if line in (b"\r\n", b"\n"):
                                break
                            if line.lower().startswith(b"content-length:"):
                                length = int(line.split(b":")[1])
                        await reader.readexactly(length)
                    return statuses
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.stop()

        assert asyncio.run(go()) == [200, 200]

    def test_shutdown_request_drains_and_stops(self, tmp_path):
        async def go():
            server = build_server(port=0, workers=1, window=0.005)
            server.service.cache = ResultCache(tmp_path)
            await server.start()
            pending = asyncio.ensure_future(
                _http(server.port, "POST", "/run", SPEC.encode())
            )
            await asyncio.sleep(0.05)
            server.request_shutdown()
            await server.wait_closed()
            status, payload = await pending
            return status, payload, server.service.accepting

        status, payload, accepting = asyncio.run(go())
        assert status == 200 and payload["source"] == "computed"
        assert not accepting


# -- the stdin front -------------------------------------------------------------


class TestStdinFront:
    def test_lines_in_jsonl_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        lines = io.StringIO(
            f"{SPEC}\n# a comment\n\n{SPEC}\n{OTHER}\n"
        )
        out = io.StringIO()
        code = serve_stdin(lines=lines, out=out, workers=1, window=0.005)
        assert code == 0
        answers = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(answers) == 3
        by_spec: dict[str, list[dict]] = {}
        for answer in answers:
            by_spec.setdefault(answer["spec"], []).append(answer)
        assert len(by_spec[SPEC]) == 2
        first, second = by_spec[SPEC]
        assert first["result"] == second["result"]
        assert {a["source"] for a in answers} <= {"computed", "coalesced", "cache"}

    def test_bad_lines_answer_errors_without_dying(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        lines = io.StringIO(f"not a spec\n{SPEC}\n")
        out = io.StringIO()
        assert serve_stdin(lines=lines, out=out, workers=1, window=0.005) == 0
        answers = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(answers) == 2
        errors = [a for a in answers if a.get("status") == "error"]
        served = [a for a in answers if "result" in a]
        assert len(errors) == 1 and len(served) == 1


# -- replay ----------------------------------------------------------------------


class TestReplay:
    def test_load_stream_specs_comments_and_json_lines(self, tmp_path):
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "# recorded\n"
            f"{SPEC}\n"
            "\n"
            f'{{"spec": "{OTHER}", "at": 0.25}}\n'
        )
        requests = __import__("repro.serve", fromlist=["load_stream"]).load_stream(
            stream
        )
        assert [r.spec for r in requests] == [SPEC, OTHER]
        assert requests[1].at == 0.25

    def test_load_stream_rejects_bad_json_line_and_empty(self, tmp_path):
        from repro.serve import load_stream

        bad = tmp_path / "bad.txt"
        bad.write_text('{"no_spec": 1}\n')
        with pytest.raises(ValueError):
            load_stream(bad)
        empty = tmp_path / "empty.txt"
        empty.write_text("# only comments\n")
        with pytest.raises(ValueError):
            load_stream(empty)

    def test_replay_compares_three_policies_on_one_stream(self):
        stream = [ReplayRequest(s) for s in (SPEC, SPEC, OTHER, SPEC)]
        stats = run_replay(
            stream, policies=("central", "cwn", "gm"), workers=2, window=0.005
        )
        assert [s.policy for s in stats] == ["central", "cwn", "gm"]
        for s in stats:
            assert s.requests == 4
            assert s.errors == 0
            # 4 requests, 2 distinct: at least one request deduped.
            assert s.coalesced + s.cache_hits >= 1
            assert s.computed == 2
            assert s.p50_ms > 0 and s.p99_ms >= s.p50_ms
            assert s.requests_per_s > 0
        table = render_replay(stats)
        for name in ("central", "cwn", "gm"):
            assert name in table
        assert "best tail latency" in table

    def test_replay_rejects_empty(self):
        with pytest.raises(ValueError):
            run_replay([], policies=("central",))


# -- the CLI surface -------------------------------------------------------------


class TestServeCli:
    def test_run_json_matches_service_result_bytes(self, capsys):
        from repro.cli import main

        assert main(["run", SPEC, "--json", "--quiet", "--no-cache"]) == 0
        printed = capsys.readouterr().out.strip()
        direct = Scenario.from_spec(SPEC).seeded().run()
        assert printed == result_json(direct)

    def test_serve_replay_cli_renders_the_table(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        stream = tmp_path / "stream.txt"
        stream.write_text(f"{SPEC}\n{SPEC}\n{OTHER}\n")
        code = main(
            [
                "serve", "--replay", str(stream),
                "--policies", "central,cwn,gm", "--workers", "2",
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        for name in ("central", "cwn", "gm"):
            assert name in table

    def test_serve_rejects_unknown_policy(self, capsys):
        from repro.cli import main

        assert main(["serve", "--policy", "bogus", "--stdin"]) == 2
        assert "unknown serve policy" in capsys.readouterr().err

    def test_replay_rejects_unknown_policy(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "stream.txt"
        stream.write_text(f"{SPEC}\n")
        assert main(["serve", "--replay", str(stream), "--policies", "x,central"]) == 2
        assert "unknown serve polic" in capsys.readouterr().err

    def test_submit_reports_missing_server(self, capsys):
        from repro.cli import main

        # Port 1 is never listening; the client must fail fast and clean.
        assert main(["submit", SPEC, "--port", "1", "--timeout", "2"]) == 2
        assert "no serve instance" in capsys.readouterr().err
