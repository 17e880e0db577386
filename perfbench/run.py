"""Benchmark for the frameproof package: one seeded workload per invocation.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a separate traced pass) with ``--trace 1``.  Earlier lines
carry host facts and details such as the tail percentile and sample
count.  Spans and host facts are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7  # set-up is repeated and its median reported


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_frameproof() -> float:
    """Import the package from this checkout's ``src/``; return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "frameproof", "__init__.py")):
        _fail(f"no frameproof sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import frameproof

    took = time.perf_counter() - start
    if not os.path.abspath(frameproof.__file__).startswith(SRC + os.sep):
        _fail(f"imported frameproof from {frameproof.__file__}, not from {SRC}")
    return took


def _reimport_package() -> None:
    """Execute the package's modules again, as a new process would (numpy stays loaded).

    The modules are put back afterwards, so the rest of the run keeps using
    the objects it already holds.
    """
    def ours():
        return [n for n in sys.modules if n == "frameproof" or n.startswith("frameproof.")]

    saved = {name: sys.modules.pop(name) for name in ours()}
    try:
        importlib.import_module("frameproof")
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def host_facts() -> dict:
    import numpy

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": _read("/proc/loadavg").strip(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    first_import = _import_frameproof()
    sys.path.insert(0, HERE)
    import harness
    import tracing
    import workloads

    import frameproof as fp

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    host = host_facts()
    clear_cache = getattr(fp.make_field, "cache_clear", None)
    rounds = workloads.round_count(args.workload, args.seconds)
    if args.trace:
        rounds = max(2, rounds)

    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
        setups, scaled_setups = [], []
        for _ in range(SETUP_REPS):
            job_rounds = None  # drop the previous repetition's inputs first
            if clear_cache is not None:
                clear_cache()
            before = harness.host_probe()
            start = time.perf_counter()
            _reimport_package()
            job_rounds = workloads.make_rounds(args.workload, args.seed, rounds, workdir)
            setups.append(time.perf_counter() - start)
            after = harness.host_probe()
            # at the reference host speed, like the job times
            scaled_setups.append(setups[-1] * harness.PROBE_REFERENCE_S / ((before + after) / 2))
        setup_s = statistics.median(scaled_setups)
        result = harness.run_rounds(
            job_rounds, clear_cache, trace=bool(args.trace), cap_seconds=1.25 * args.seconds,
        )

    names = result.names
    scaled = harness.scaled_latencies(result)
    lat = harness.typical_latencies(names, scaled)
    tail_value, tail_pct = harness.tail(lat)
    raw = harness.typical_latencies(names, result.latencies)
    host["loadavg_end"] = _read("/proc/loadavg").strip()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(result.round_walls),
        "jobs": len(lat),
        "job_s_tail_percentile": round(tail_pct, 2),
        "failed_frac": result.failed / result.attempted if result.attempted else 1.0,
        "witnesses": result.witnesses,
        "witnesses_ok": result.witnesses_ok,
        "host_slowdown": harness.host_slowdown(result),
        "unscaled": {
            "setup_s": statistics.median(setups),
            "jobs_per_s": harness.jobs_per_s(names, result.latencies),
            "job_s_p50": statistics.median(raw),
            "job_s_tail": harness.tail(raw)[0],
        },
        "first_import_s": first_import,
        "setup_s_samples": setups,
        "job_s_median_by_job": harness.by_job(names, scaled),
        "host": host,
    }
    correct = result.failed == 0 and result.attempted > 0
    if args.trace:
        spans = result.tracer.spans
        traced_rounds = sum(1 for traced, _ in result.round_walls if traced)
        misses = tracing.job_balance(spans, result.latencies)
        info["span_balance_max_s"] = max((abs(m) for m in misses.values()), default=None)
        info["spans"] = len(spans)
        if not misses:
            correct = False
            result.problems.append("no job was traced")
        for job, miss in misses.items():
            latency = result.latencies[job - 1]
            if abs(miss) > tracing.balance_limit(latency):
                correct = False
                result.problems.append(
                    f"{result.names[job - 1]}: span self times miss its {latency} s by {miss} s"
                )
        metrics = tracing.layer_metrics(
            spans, traced_rounds, result.witnesses, result.witnesses_ok,
            harness.trace_overhead(result),
        )
        report = {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _, _) in tracing.LAYER_METRICS.items()
        }
        _write_out(args, info, spans, result)
    else:
        # times are at the reference host speed; "unscaled" in info has the jobs as timed
        report = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": harness.jobs_per_s(names, scaled), "unit": "jobs/s"},
            "job_s_p50": {"value": statistics.median(lat), "unit": "s"},
            "job_s_tail": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        _write_out(args, info, [], result)
    for problem in result.problems[:20]:
        print(f"perfbench: FAILED {problem}")
    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": report,
    }))
    return 0


def _write_out(args, info: dict, spans, result) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({
            "info": info,
            "jobs": list(zip(result.names, result.latencies, result.probes)),
            "spans": [
                [s.name, s.start, s.end, s.parent, s.job, s.counts] for s in spans
            ],
        }, fh)


if __name__ == "__main__":
    sys.exit(main())
