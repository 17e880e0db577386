"""Tests of the benchmark's own logic.  Run with ``python3 -m pytest perfbench``."""

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import frameproof as fp  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _keys(rounds):
    return [[job.key for job in jobs] for jobs in rounds]


def test_same_seed_gives_same_job_list(tmp_path):
    for workload in ("crosscheck", "arrays", "build"):
        first = _keys(workloads.make_rounds(workload, 7, 2, str(tmp_path)))
        again = _keys(workloads.make_rounds(workload, 7, 2, str(tmp_path)))
        other = _keys(workloads.make_rounds(workload, 8, 2, str(tmp_path)))
        assert first == again
        assert first != other


def test_prove_files_repeat_for_a_seed(tmp_path):
    def contents(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        rounds = workloads.make_rounds("prove", seed, 1, str(workdir))
        return sorted(open(job.key[-1]).read() for job in rounds[0])

    first = contents(3, "a")
    assert first == contents(3, "b")
    assert first != contents(4, "c")


def test_planted_codes_are_framable_by_construction(tmp_path):
    rng = random.Random(1)
    for c, q in ((2, 7), (2, 15), (3, 10), (3, 16)):
        words = workloads.int_words(fp.execute_plan(fp.plan_code(c, q)))
        for _ in range(5):
            coalition, word = workloads.plant_framing(words, c, rng)
            assert word not in words
            assert len(coalition) <= c and all(y in words for y in coalition)
            assert fp.descendant_contains(coalition, word)
    for jobs in workloads.make_rounds("crosscheck", 5, 1, str(tmp_path)):
        for job in jobs:
            _, c, _, words, plant = job.key
            if plant is not None:
                coalition, word = plant
                assert word in words and all(y in words for y in coalition)
                assert fp.descendant_contains(coalition, word)


def test_self_time_is_duration_minus_child_coverage():
    S = tracing.Span
    spans = [
        S(tracing.JOB_SPAN, 0.0, 10.0, None, 1),
        S("a", 1.0, 4.0, 0, 1),
        S("b", 2.0, 3.0, 1, 1),
        S("c", 5.0, 9.0, 0, 1),
        S("d", 5.5, 7.0, 3, 1),
        S("e", 6.5, 8.0, 3, 1),  # overlaps d: covered once
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.5, 1.5, 1.5]
    # calls on one thread nest without overlap; then the self times of a
    # job's spans add up to the job span's duration, which the harness's
    # own timing of the job should match
    assert tracing.job_balance(spans[:5], [10.0]) == {1: 0.0}
    # work the harness timed outside the job span shows as a miss
    assert tracing.job_balance(spans[:5], [12.0]) == {1: 2.0}


def test_traced_round_accounts_for_job_time(tmp_path):
    rounds = workloads.make_rounds("crosscheck", 2, 2, str(tmp_path))
    result = harness.run_rounds(rounds, trace=True)
    assert result.failed == 0
    spans = result.tracer.spans
    assert {s.name for s in spans} >= {tracing.JOB_SPAN, "verify.naive", "verify.cover"}
    misses = tracing.job_balance(spans, result.latencies)
    assert sorted(misses) == list(range(len(rounds[0]) + 1, result.attempted + 1))
    for job, miss in misses.items():
        assert 0 <= miss <= tracing.balance_limit(result.latencies[job - 1])
    metrics = tracing.layer_metrics(spans, 1, result.witnesses, result.witnesses_ok, 1.0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["verify.naive_calls"] == len(rounds[1])
    assert metrics["verify.witness_ok_ratio"] == 1.0
    # wrappers are gone after the run
    assert not hasattr(fp.is_frameproof_naive, "__wrapped__")


def test_wrong_expected_verdict_counts_as_failed(tmp_path):
    jobs = workloads.make_rounds("crosscheck", 3, 1, str(tmp_path))[0][:4]
    flipped = []
    for job in jobs:
        _, c, q, words, plant = job.key
        # claim the opposite of what the construction guarantees
        fake = None if plant is not None else workloads.plant_framing(words, c, random.Random(0))
        flipped.append(workloads._crosscheck_job(c, q, list(words), fake))
    result = harness.run_rounds([flipped])
    assert result.attempted == 4
    assert result.failed == 4
    assert all("expected" in p for p in result.problems)


def test_raising_job_counts_as_failed():
    def boom():
        raise fp.BudgetExceeded("over budget")

    job = workloads.Job("boom", ("boom",), boom, lambda out: workloads.Outcome([]))
    result = harness.run_rounds([[job, job]])
    assert (result.attempted, result.failed) == (2, 2)
    assert "BudgetExceeded" in result.problems[0]


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]
    assert harness.tail(values) == (90.0, 90.0)
    assert harness.tail(values[:5]) == (5.0, 100.0)


def test_job_times_are_scaled_by_their_probes():
    result = harness.RunResult(
        latencies=[1.0, 2.0, 3.0],
        names=["a", "a", "b"],
        probes=[harness.PROBE_REFERENCE_S, 2 * harness.PROBE_REFERENCE_S, harness.PROBE_REFERENCE_S],
    )
    scaled = harness.scaled_latencies(result)
    assert scaled == pytest.approx([1.0, 1.0, 3.0])
    assert harness.by_job(result.names, scaled) == pytest.approx({"a": 1.0, "b": 3.0})
    assert harness.jobs_per_s(result.names, scaled) == pytest.approx(0.5)
    assert harness.typical_latencies(result.names, scaled) == pytest.approx([1.0, 1.0, 3.0])


def test_each_job_is_scaled_by_the_probes_around_it(monkeypatch):
    probes = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(harness, "host_probe", lambda: next(probes))
    job = workloads.Job("noop", ("noop",), lambda: None, lambda out: workloads.Outcome([]))
    result = harness.run_rounds([[job, job]])
    assert result.probes == [2.0, 4.0]


def test_probe_leaves_the_collector_as_it_found_it():
    import gc

    assert gc.isenabled()
    assert harness.host_probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        harness.host_probe()
        assert not gc.isenabled()
    finally:
        gc.enable()
