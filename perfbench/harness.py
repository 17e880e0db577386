"""Closed-loop runner: one job at a time, checks outside each job's timed window."""

from __future__ import annotations

import gc
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field

import tracing

# The fixed code host_probe() indexes: 2,000 words of length 4 over 31 symbols.
_probe_rng = random.Random(0)
PROBE_CODE = tuple(tuple(_probe_rng.randrange(31) for _ in range(4)) for _ in range(2_000))
# What host_probe() takes on the 2-vCPU Intel Xeon VM the benchmark was
# sized on, when that host is in its fast state.  Reported job times are
# scaled to this host speed.
PROBE_REFERENCE_S = 0.0027


@dataclass
class RunResult:
    latencies: list = field(default_factory=list)
    names: list = field(default_factory=list)  # job name of each latency
    probes: list = field(default_factory=list)  # mean host_probe() before and after each job
    attempted: int = 0
    failed: int = 0
    witnesses: int = 0
    witnesses_ok: int = 0
    problems: list = field(default_factory=list)
    round_walls: list = field(default_factory=list)  # (traced, seconds)
    tracer: tracing.Tracer | None = None

    @property
    def timed_wall(self) -> float:
        return sum(self.latencies)


def run_rounds(rounds, clear_cache=None, trace: bool = False,
               cap_seconds: float | None = None) -> RunResult:
    """Run the rounds' jobs in order, timing each and checking it afterwards.

    ``clear_cache`` runs at the start of every job, inside its timed
    window, the way each CLI invocation starts with cold field tables.
    With ``trace``, every second round runs with the layer wrappers
    installed.  No new round starts once ``cap_seconds`` of job time has
    passed, except the first round of each kind.  A job that raises, or
    whose check reports a problem, counts as failed; neither stops the run.
    A host probe runs between every two jobs, after the check; each job is
    scaled by the mean of the probes on either side of it.
    """
    result = RunResult(tracer=tracing.Tracer() if trace else None)
    job_id = 0
    before = host_probe()
    for index, jobs in enumerate(rounds):
        # a traced run always gets one untraced and one traced round
        if cap_seconds is not None and index >= 1 + trace and result.timed_wall >= cap_seconds:
            break
        traced = trace and index % 2 == 1
        uninstall = tracing.install(result.tracer) if traced else None
        round_wall = 0.0
        try:
            for job in jobs:
                job_id += 1
                latency, output, error = _timed(job, clear_cache, result.tracer if traced else None, job_id)
                round_wall += latency
                result.latencies.append(latency)
                result.names.append(job.name)
                result.attempted += 1
                problems = [error] if error else _check(job, output, result)
                if problems:
                    result.failed += 1
                    result.problems.extend(f"{job.name}: {p}" for p in problems)
                del output
                after = host_probe()
                result.probes.append((before + after) / 2)
                before = after
        finally:
            if uninstall is not None:
                uninstall()
        result.round_walls.append((traced, round_wall))
    return result


def _timed(job, clear_cache, tracer, job_id):
    span = None
    if tracer is not None:
        tracer.job = job_id
    start = time.perf_counter()
    if tracer is not None:
        span = tracer.begin(tracing.JOB_SPAN)
    try:
        if clear_cache is not None:
            clear_cache()
        output, error = job.run(), None
    except Exception:  # noqa: BLE001 - any exception is a failed job, reported below
        output, error = None, "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    finally:
        if span is not None:
            tracer.end(span)
    return time.perf_counter() - start, output, error


def _check(job, output, result: RunResult) -> list:
    try:
        outcome = job.check(output)
    except Exception:  # noqa: BLE001 - a check that cannot run fails the job
        return ["check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]]
    result.witnesses += outcome.witnesses
    result.witnesses_ok += outcome.witnesses_ok
    return outcome.problems


def host_probe() -> float:
    """Seconds a fixed projection-indexing loop takes: the host's speed just now.

    On a shared host the CPU switches between a fast and a slow state every
    few seconds, and the jobs run about 1.5 times slower in the slow one.
    The loop indexes every word of :data:`PROBE_CODE` under each of its
    one-position deletions, the kind of tuple and dict work the package
    does, so it slows down with the jobs, and dividing a job's time by the
    probes taken around it removes most of that drift.  Memory-bound numpy
    code hardly slows down, and scaling makes it noisier; see
    probe_check.py.  The heap is collected first and the collector stays
    off while the loop runs, so what the program left on the heap does not
    change the time.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        index = {}
        for word in PROBE_CODE:
            for i in range(len(word)):
                index.setdefault(word[:i] + word[i + 1:], []).append(word)
        sum(len(words) for words in index.values())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled_latencies(result: RunResult) -> list[float]:
    """Each job's latency at the reference host speed (see host_probe)."""
    return [
        latency * PROBE_REFERENCE_S / probe
        for latency, probe in zip(result.latencies, result.probes)
    ]


def host_slowdown(result: RunResult) -> float:
    """The run's median probe time over :data:`PROBE_REFERENCE_S`."""
    return statistics.median(result.probes) / PROBE_REFERENCE_S


def by_job(names, latencies) -> dict[str, float]:
    """Median latency of every menu entry over the rounds that ran it."""
    samples: dict[str, list] = {}
    for name, latency in zip(names, latencies):
        samples.setdefault(name, []).append(latency)
    return {name: statistics.median(values) for name, values in samples.items()}


def jobs_per_s(names, latencies) -> float:
    """Throughput of a round in which every job takes its median latency.

    The menu is the same in every round, so this is the workload's work
    per second at fixed input sizes.
    """
    medians = by_job(names, latencies)
    return len(medians) / sum(medians.values())


def typical_latencies(names, latencies) -> list[float]:
    """Every job's latency replaced by its menu entry's median over the rounds.

    Each entry keeps its sample count.  A percentile of this list picks one
    entry's median instead of a single sample, so a slow spell of the host
    during one job does not move it.
    """
    medians = by_job(names, latencies)
    return [medians[name] for name in names]


def tail(latencies) -> tuple[float, float]:
    """The value at the highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer it is the
    maximum, reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    rank = n - 10  # 1-based rank with exactly ten samples above it
    return ordered[rank - 1], 100.0 * rank / n


def trace_overhead(result: RunResult) -> float:
    """Median traced round time over median untraced round time."""
    traced = [w for t, w in result.round_walls if t]
    plain = [w for t, w in result.round_walls if not t]
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain)
