"""The repository benchmark: ``sweep``, ``large`` and ``serve`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``metrics`` holds
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``), or every
per-layer metric (``--trace 1``).  Layers only one workload exercises
go to the provenance line before it.  A human-readable report goes to
standard error, and the traced run's spans to ``.bench_out/``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "large", "serve")


def _fatal(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _timeout(_signum: int, _frame: Any) -> None:
    raise TimeoutError("benchmark run exceeded its time limit")


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(title: str, rows: list[tuple[str, float, str]], notes: Any = None) -> None:
    print(f"-- {title}", file=sys.stderr)
    for name, value, unit in rows:
        note = f"  -> {notes(name)}" if notes else ""
        print(f"   {name:<36} {value:>14.6g} {unit:<6}{note}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    if args.seconds <= 0:
        return _fatal("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return _fatal(f"no simulator sources under {src} (run from a full checkout)")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fatal(f"cannot read BENCHMARK.json: {exc}")

    # The simulator is imported from this checkout, also by the serve
    # subprocess and by any worker it spawns.
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir)
    # Isolation: results go to a fresh cache inside the checkout, and no
    # telemetry is written unless a probe asks for it.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "default-cache")
    os.environ.pop("REPRO_TELEMETRY", None)
    # Every wait inside is bounded; this is the backstop that turns a
    # hang into an error exit (the finally blocks still stop children).
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(int(120 + 2 * args.seconds))
    try:
        return _run(args, spec, workdir, out_dir)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args: argparse.Namespace, spec: dict[str, Any], workdir: str, out_dir: Path) -> int:
    import layers
    from measure import NULL_TRACER, Tracer, peak_rss_mb, provenance, span_table, speed_probe

    module = __import__(f"workload_{args.workload}")
    started = time.perf_counter()
    probe_before = speed_probe()
    gc.collect()
    if not args.trace:
        outcome = module.run(args.seed, args.seconds, NULL_TRACER, workdir)
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = outcome.metrics
    else:
        # Half the time untraced, half traced: the difference in the
        # workload's primary metric is the tracing overhead.
        plain = module.run(args.seed, args.seconds / 2, NULL_TRACER, workdir)
        tracer = Tracer()
        outcome = module.run(args.seed, args.seconds / 2, tracer, workdir)
        outcome.attempted += plain.attempted
        outcome.failed += plain.failed
        outcome.problems += plain.problems
        outcome.layer("oracle.calendar_us_per_event", layers.calendar_us_per_event(), "us")
        outcome.layer("serve.fleet_rtt_ms", layers.fleet_rtt_ms(), "ms")
        name = outcome.primary
        untraced, traced = plain.metrics[name][0], outcome.metrics[name][0]
        # Positive when tracing made the metric worse.
        higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}[name]
        cost = untraced / traced if higher else traced / untraced
        outcome.layer("trace.overhead_pct", (cost - 1.0) * 100.0, "%")
        _report(
            "tracing overhead",
            [(f"{name} untraced", untraced, plain.metrics[name][1]),
             (f"{name} traced", traced, outcome.metrics[name][1])],
        )
        _report(
            "spans: name, count, total s, self s",
            [(f"{n} x{c}", t, f"s total, {o:.6g} s self") for n, c, t, o in span_table(tracer.spans)],
        )
        _report(
            "tallied calls: name, calls, us/call",
            [(f"{n} x{int(c)}", tracer.us_per_call(n), "us/call") for n, (c, _s) in sorted(tracer.tallies.items())],
        )
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(str(trace_path))
        print(f"perfbench: spans written to {trace_path}", file=sys.stderr)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = outcome.layers

    missing = sorted(set(declared) - set(values))
    if missing:
        return _fatal(f"metrics of BENCHMARK.json not measured: {missing}")
    # Layers that only this workload exercises (the sweep's batches, the
    # sharded windows, the service's sources) are not in every workload's
    # result, so they go to the provenance line; an end-to-end metric
    # must always be declared.
    extra = {n: v for n, v in values.items() if n not in declared}
    if extra and not args.trace:
        return _fatal(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    values = {n: v for n, v in values.items() if n in declared}
    for metric, (_value, unit) in values.items():
        if unit != declared[metric]:
            return _fatal(f"metric {metric} measured in {unit}, declared {declared[metric]}")

    facts = provenance(args.seed, args.workload, args.seconds, bool(args.trace))
    facts["samples"] = outcome.samples
    facts["elapsed_s"] = time.perf_counter() - started
    facts["speed_probe_s"] = [probe_before, speed_probe()]
    facts["problems"] = outcome.problems
    facts["workload_layers"] = {n: {"value": v, "unit": u} for n, (v, u) in sorted(extra.items())}
    _report(
        f"{args.workload} seed {args.seed}",
        [(n, v, u) for n, (v, u) in sorted(values.items())],
        layers.moves if args.trace else None,
    )
    if extra:
        _report(
            f"{args.workload} only (provenance line)",
            [(n, v, u) for n, (v, u) in sorted(extra.items())],
            layers.moves,
        )
    print(json.dumps({"provenance": facts}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in sorted(values.items())},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
