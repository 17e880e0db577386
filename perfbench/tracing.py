"""Spans recorded around calls into the frameproof layers, and the per-layer metrics.

The program is not instrumented: :func:`install` replaces public functions
on the module attributes through which the layers call each other (for
example ``frameproof.plan.polynomial_lift`` and
``frameproof.construct.make_code``) with wrappers that record a span per
call.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

JOB_SPAN = "bench.job"
# Slack for the clock reads around the job span, which a preempted
# process can stretch; see balance_limit.
BALANCE_SLACK_S = 0.002


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    job: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Stack of open spans; each new span's parent is the innermost open one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job: int | None = None

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        span = Span(name, time.perf_counter(), None, parent, self.job)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


# --- which functions are wrapped ----------------------------------------------
#
# (defining module, attribute, span name, counter).  A counter maps
# (args, kwargs, result) to extra counts stored on the span.  Attributes a
# later refactor removed are skipped, so their counts read zero.


def _code_size(code) -> int:
    return int(getattr(code, "size", 0))


def _examined(report) -> int:
    return int(getattr(report, "subsets_examined", 0))


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs.get(key)


def _second_arg(args, kwargs, key):
    return args[1] if len(args) > 1 else kwargs.get(key)


WRAPPED = (
    ("plan", "execute_plan", "plan.execute", None),
    ("construct", "polynomial_lift", "construct.lift", lambda a, k, r: {"words": _code_size(r)}),
    ("construct", "augment_infinity", "construct.augment", None),
    ("codes", "make_code", "codes.make_code", lambda a, k, r: {"words": _code_size(r)}),
    ("codes", "write_code_file", "codes.fpc_write",
     lambda a, k, r: {"bytes": _path_bytes(_second_arg(a, k, "path"))}),
    ("codes", "read_code_file", "codes.fpc_read",
     lambda a, k, r: {"bytes": _path_bytes(_first_arg(a, k, "path"))}),
    ("verify", "is_t_determined", "verify.tdet", lambda a, k, r: {"checks": _examined(r)}),
    ("verify", "is_frameproof_cover", "verify.cover",
     lambda a, k, r: {"nodes": _examined(r), "words": _code_size(_first_arg(a, k, "code"))}),
    ("verify", "is_frameproof_naive", "verify.naive", lambda a, k, r: {"subsets": _examined(r)}),
    ("gf", "make_field", "gf.make_field", None),
    ("oa", "build_oa_strength2", "oa.build", None),
    ("oa", "verify_oa", "oa.verify", lambda a, k, r: {"subsets": _examined(r)}),
    ("oa", "oa_to_pt_code", "oa.to_pt_code", None),
    ("oa", "oa_to_text", "oa.text", None),
    ("oa", "oa_from_text", "oa.text", None),
)


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if counter is not None:
            span.counts.update(counter(args, kwargs, result))
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every :data:`WRAPPED` function wherever the package holds it.

    Returns a callable that restores the original attributes.
    """
    package = "frameproof"
    modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    restore = []
    for mod_name, attr, span_name, counter in WRAPPED:
        try:
            home = importlib.import_module(f"{package}.{mod_name}")
        except ImportError:
            continue
        fn = getattr(home, attr, None)
        if fn is None:
            continue
        wrapper = _wrap(tracer, span_name, fn, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    restore.append((mod, key, fn))

    def uninstall():
        for mod, key, fn in reversed(restore):
            setattr(mod, key, fn)

    return uninstall


# --- per-layer metrics ---------------------------------------------------------

# metric name -> (unit, better, how it is computed from the spans)
LAYER_METRICS = {
    "construct.lift_calls": ("count/round", "lower", ("calls", "construct.lift")),
    "construct.lift_words": ("count/round", "lower", ("count", "construct.lift", "words")),
    "construct.lift_self_s": ("s/round", "lower", ("self", "construct.lift")),
    "construct.augment_self_s": ("s/round", "lower", ("self", "construct.augment")),
    "plan.execute_s": ("s/round", "lower", ("busy", "plan.execute")),
    "verify.tdet_calls": ("count/round", "lower", ("calls", "verify.tdet")),
    "verify.tdet_s": ("s/round", "lower", ("busy", "verify.tdet")),
    "verify.tdet_checks": ("count/round", "lower", ("count", "verify.tdet", "checks")),
    "codes.make_code_calls": ("count/round", "lower", ("calls", "codes.make_code")),
    "codes.make_code_words": ("count/round", "lower", ("count", "codes.make_code", "words")),
    "codes.make_code_s": ("s/round", "lower", ("busy", "codes.make_code")),
    "codes.fpc_write_s": ("s/round", "lower", ("busy", "codes.fpc_write")),
    "codes.fpc_read_self_s": ("s/round", "lower", ("self", "codes.fpc_read")),
    "codes.fpc_bytes": ("B/round", "lower", ("count", ("codes.fpc_write", "codes.fpc_read"), "bytes")),
    "verify.cover_calls": ("count/round", "lower", ("calls", "verify.cover")),
    "verify.cover_s": ("s/round", "lower", ("busy", "verify.cover")),
    "verify.cover_nodes": ("count/round", "lower", ("count", "verify.cover", "nodes")),
    "verify.cover_us_per_word": ("us/word", "lower", None),
    "verify.naive_calls": ("count/round", "lower", ("calls", "verify.naive")),
    "verify.naive_s": ("s/round", "lower", ("busy", "verify.naive")),
    "verify.naive_subsets": ("count/round", "lower", ("count", "verify.naive", "subsets")),
    "verify.witness_ok_ratio": ("ratio", "higher", None),
    "gf.make_field_calls": ("count/round", "lower", ("calls", "gf.make_field")),
    "gf.make_field_s": ("s/round", "lower", ("busy", "gf.make_field")),
    "oa.build_self_s": ("s/round", "lower", ("self", "oa.build")),
    "oa.verify_s": ("s/round", "lower", ("busy", "oa.verify")),
    "oa.verify_subsets": ("count/round", "lower", ("count", "oa.verify", "subsets")),
    "oa.to_pt_code_s": ("s/round", "lower", ("busy", "oa.to_pt_code")),
    "oa.text_s": ("s/round", "lower", ("busy", "oa.text")),
    "bench.trace_overhead": ("ratio", "lower", None),
}


def layer_metrics(spans: list[Span], rounds: int, witnesses: int, witnesses_ok: int,
                  overhead: float) -> dict[str, float]:
    """Per-round layer totals from the spans of ``rounds`` traced rounds.

    ``overhead`` is traced over untraced round time.  The witness ratio is
    revalidated framing witnesses over violated verdicts, 1.0 when there
    were none.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[tuple[str, str], int] = {}
    for span, self_s in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_s
        for key, value in span.counts.items():
            counts[span.name, key] = counts.get((span.name, key), 0) + value

    out = {}
    for metric, (_, _, how) in LAYER_METRICS.items():
        if how is None:
            continue
        kind, names = how[0], how[1]
        names = names if isinstance(names, tuple) else (names,)
        if kind == "calls":
            total = sum(calls.get(n, 0) for n in names)
        elif kind == "busy":
            total = sum(busy.get(n, 0.0) for n in names)
        elif kind == "self":
            total = sum(own.get(n, 0.0) for n in names)
        else:
            total = sum(counts.get((n, how[2]), 0) for n in names)
        out[metric] = total / rounds
    cover_words = counts.get(("verify.cover", "words"), 0)
    out["verify.cover_us_per_word"] = (
        busy.get("verify.cover", 0.0) * 1e6 / cover_words if cover_words else 0.0
    )
    out["verify.witness_ok_ratio"] = witnesses_ok / witnesses if witnesses else 1.0
    out["bench.trace_overhead"] = overhead
    return out


def job_balance(spans: list[Span], latencies: list[float]) -> dict[int, float]:
    """Each traced job's latency as the harness timed it minus its spans' self times.

    Job ids count from 1 in the order of ``latencies``.  The harness reads
    its clock just outside the job's own span, so a job whose spans account
    for its wall time misses by microseconds; see :data:`BALANCE_SLACK_S`.
    """
    selfs = self_times(spans)
    per_job: dict[int, float] = {}
    for span, self_s in zip(spans, selfs):
        per_job[span.job] = per_job.get(span.job, 0.0) + self_s
    return {job: latencies[job - 1] - total for job, total in per_job.items()}


def balance_limit(latency: float) -> float:
    """The largest miss :func:`job_balance` may report for a job of ``latency`` seconds."""
    return BALANCE_SLACK_S + 0.01 * latency
