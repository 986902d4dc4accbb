#!/usr/bin/env python3
"""CI smoke for ``repro serve``: real process, real sockets, real dedup.

Boots a serve instance as a subprocess, fires ~100 concurrent requests
(10 distinct scenarios, heavily duplicated, shuffled deterministically)
at it from a thread pool, and then proves the service contract:

* every response is 200 and its ``result`` field is byte-identical to
  running the same scenario directly in this process;
* at least one request was coalesced onto an in-flight computation and
  at least one was answered from the warm cache (the second wave);
* SIGTERM drains and exits 0 within the 60-second budget.

A second pass drives the stdin front under load: 300 spec lines with
64 kept in flight into ``repro serve --stdin``; every answer must be
byte-identical to a direct run, and EOF must drain and exit 0 within
the same budget.

Run from the repo root: ``python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHUTDOWN_BUDGET_S = 60.0
STDIN_REQUESTS = 300
STDIN_IN_FLIGHT = 64


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.parallel import result_json
    from repro.scenario import Scenario

    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="serve-smoke-cache-")

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "2", "--window", "0.02",
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert proc.stderr is not None
        startup = proc.stderr.readline()
        matched = re.search(r"http://([\d.]+):(\d+)", startup)
        if not matched:
            fail(f"no listen address in startup line: {startup!r}")
        host, port = matched.group(1), int(matched.group(2))
        print(f"serve-smoke: serving on {host}:{port}")

        def post(spec: str) -> dict:
            request = urllib.request.Request(
                f"http://{host}:{port}/run",
                data=json.dumps({"spec": spec}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                if response.status != 200:
                    fail(f"HTTP {response.status} for {spec!r}")
                return json.loads(response.read())

        # 10 distinct scenarios; fib:13 is deliberately the heaviest and
        # most duplicated so concurrent copies pile onto one in-flight
        # computation (the coalesce witness).
        distinct = [f"fib:13 @ grid:4x4 / cwn?seed={s}" for s in (1, 2, 3)] + [
            f"fib:11 @ grid:2x2 / {strat}?seed={s}"
            for strat in ("cwn", "gm", "central")
            for s in (1, 2)
        ] + ["fib:12 @ grid:4x4 / random?seed=7"]
        assert len(distinct) == 10
        stream = distinct * 10  # 100 requests
        random.Random(42).shuffle(stream)

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=32) as pool:
            answers = list(pool.map(post, stream))
        wave_s = time.perf_counter() - start
        print(
            f"serve-smoke: wave 1 — {len(answers)} requests in {wave_s:.1f}s "
            f"({len(answers) / wave_s:.0f} req/s)"
        )

        # Wave 2: every distinct spec again — all must come back warm.
        warm = [post(spec) for spec in distinct]

        # Bit-equality against direct in-process runs, spec by spec.
        for spec in distinct:
            direct = result_json(Scenario.from_spec(spec).seeded().run())
            for answer in answers + warm:
                if answer["spec"] != spec:
                    continue
                served = json.dumps(
                    answer["result"], sort_keys=True, separators=(",", ":")
                )
                if served != direct:
                    fail(f"served result for {spec!r} differs from direct run")
        print("serve-smoke: all 110 responses byte-identical to direct runs")

        sources = [a["source"] for a in answers]
        coalesced = sources.count("coalesced")
        if coalesced < 1:
            fail(f"expected >= 1 coalesced request, saw sources {set(sources)}")
        if any(a["source"] != "cache" for a in warm):
            fail(f"wave 2 should be all cache hits: {[a['source'] for a in warm]}")
        computed = sources.count("computed") + sources.count("cache")
        print(
            f"serve-smoke: dedup — {coalesced} coalesced, "
            f"{sources.count('cache')} wave-1 cache hits, "
            f"{len(warm)} warm wave-2 hits, "
            f"{computed} non-coalesced"
        )

        with urllib.request.urlopen(
            f"http://{host}:{port}/stats", timeout=30
        ) as response:
            stats = json.loads(response.read())
        if stats["coalesced"] < 1 or stats["cache_hits"] < 1:
            fail(f"server-side dedup counters disagree: {stats}")
        if stats["errors"]:
            fail(f"server reported {stats['errors']} worker errors")

        start = time.perf_counter()
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=SHUTDOWN_BUDGET_S)
        except subprocess.TimeoutExpired:
            fail(f"no exit within {SHUTDOWN_BUDGET_S:.0f}s of SIGTERM")
        drain_s = time.perf_counter() - start
        if code != 0:
            fail(f"serve exited {code} after SIGTERM")
        print(f"serve-smoke: SIGTERM drained cleanly in {drain_s:.1f}s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    stdin_pass(env)
    print("serve-smoke: PASS")


def stdin_pass(env: dict[str, str]) -> None:
    """``repro serve --stdin`` with STDIN_IN_FLIGHT requests in flight."""
    from repro.parallel import result_json
    from repro.scenario import Scenario

    env = dict(env, REPRO_CACHE_DIR=tempfile.mkdtemp(prefix="serve-smoke-stdin-"))
    # 100 distinct small scenarios, each sent three times in a shuffled
    # order: repeats coalesce or hit the cache, the rest fill batches.
    distinct = [
        f"fib:{n} @ grid:2x2 / {strat}?seed={s}"
        for n in (7, 8)
        for strat in ("cwn", "gm", "random", "central", "roundrobin")
        for s in range(1, 11)
    ]
    stream = distinct * (STDIN_REQUESTS // len(distinct))
    random.Random(7).shuffle(stream)
    assert len(stream) == STDIN_REQUESTS

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--stdin", "--workers", "2"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    answers: list[dict] = []
    arrived = threading.Condition()

    def read() -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            with arrived:
                answers.append(json.loads(line))
                arrived.notify_all()

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        assert proc.stdin is not None
        start = time.perf_counter()
        for sent, spec in enumerate(stream):
            need = sent - STDIN_IN_FLIGHT + 1  # answers before this send
            with arrived:
                if not arrived.wait_for(lambda: len(answers) >= need, timeout=120):
                    fail(f"stdin front stalled with {sent - len(answers)} in flight")
            proc.stdin.write(spec + "\n")
            proc.stdin.flush()
        proc.stdin.close()  # EOF: drain and exit
        try:
            code = proc.wait(timeout=SHUTDOWN_BUDGET_S)
        except subprocess.TimeoutExpired:
            fail(f"stdin front did not exit within {SHUTDOWN_BUDGET_S:.0f}s of EOF")
        reader.join(timeout=10)
        wall_s = time.perf_counter() - start
        if code != 0:
            fail(f"serve --stdin exited {code} after EOF")
        if len(answers) != len(stream):
            fail(f"stdin front answered {len(answers)} of {len(stream)} requests")
        direct = {
            spec: result_json(Scenario.from_spec(spec).seeded().run())
            for spec in distinct
        }
        for answer in answers:
            if "result" not in answer:
                fail(f"stdin front refused or failed a request: {answer}")
            served = json.dumps(answer["result"], sort_keys=True, separators=(",", ":"))
            if served != direct[answer["spec"]]:
                fail(f"stdin answer for {answer['spec']!r} differs from direct run")
        sources = [a["source"] for a in answers]
        print(
            f"serve-smoke: stdin — {len(answers)} answers with "
            f"{STDIN_IN_FLIGHT} in flight in {wall_s:.1f}s, all byte-identical "
            f"({sources.count('computed')} computed, "
            f"{sources.count('coalesced')} coalesced, "
            f"{sources.count('cache')} cache); EOF drained, exit 0"
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    main()
