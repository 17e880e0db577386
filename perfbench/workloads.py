"""Seeded workloads: job menus, input generators, the timed jobs and their checks.

Every workload repeats a fixed menu of job shapes in rounds; the seed
shuffles each round and draws the inputs that are random by design
(subcodes, symbol permutations, planted framings, corrupted entries,
field samples).  Job sizes are fixed per menu entry, so each seed does
the same amount of work and runs from different seeds are comparable.

Only names in ``frameproof.__all__`` are used.  A ``Code`` is treated as
opaque apart from ``size``, ``q``, ``length`` and its ``words`` read as
integer tuples.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import frameproof as fp

# About the seconds one round takes on the 2-vCPU Intel Xeon VM the menus
# were sized on, when that host is in its slow state (see
# harness.host_probe).  A run makes round(seconds / this) rounds, so its
# job list depends only on the seed and --seconds; at 20 s that is 10
# rounds of build, 8 of prove, 17 of crosscheck and 9 of arrays.
ROUND_SECONDS = {"build": 2.0, "prove": 2.6, "crosscheck": 1.2, "arrays": 2.3}

# The percentiles use each menu entry's median over the rounds (see
# harness.typical_latencies).  On a host whose speed drifts by 15% within
# seconds, that median needs about ten samples to hold still, so the
# menus are kept small enough for 8 or more rounds in 20 s.

# build: c=2 takes odd q, c=3 takes q = 4 mod 6.  Single lifts (q=45 from
# the q5 base by GF(11), q=75 by GF(37), q=101 from q5 by GF(25)) sit
# beside chains of two lifts (q=61 from q5 by GF(3) then GF(5); c=3 q=136
# by GF(5) then GF(9)).
BUILD_MENU = ((3, 40), (3, 52), (2, 45), (2, 51), (2, 61), (2, 75), (2, 101), (3, 136))
# prove: (c, q, planted); 3 of the 9 jobs carry a planted framing.
PROVE_MENU = ((2, 15, False), (2, 19, False), (2, 23, False), (2, 27, False),
              (3, 16, False), (3, 28, False),
              (2, 23, True), (2, 27, True), (3, 28, True))
# crosscheck: (c, q, subcode size, planted).  Planted jobs stop early, so
# the one extra plain job keeps the median on the cheapest plain one, which
# takes several times longer than a planted job.
CROSSCHECK_MENU = tuple(
    (c, q, size, planted)
    for c, q, size in ((2, 9, 100), (2, 11, 150), (2, 13, 220), (2, 15, 300),
                       (3, 10, 60), (3, 10, 90), (3, 10, 120))
    for planted in (False, True)
) + ((2, 11, 200, False),)
# arrays: OA orders s (16, 27 and 32 are non-prime fields) and field orders m.
OA_ORDERS = (16, 23, 27, 32)
FIELD_ORDERS = (101, 125, 243, 256)

WORKLOADS = tuple(ROUND_SECONDS)
FIELD_SAMPLE = 64  # distributivity triples checked per field job
PLANT_WINDOW = 0.05  # share of the sorted words a planted coalition comes from


@dataclass
class Outcome:
    """What a check found: problems (empty when correct) and framing witnesses."""

    problems: list
    witnesses: int = 0
    witnesses_ok: int = 0


@dataclass
class Job:
    name: str
    key: tuple  # the job's generated inputs, for reproducibility checks
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def int_words(code) -> list[tuple[int, ...]]:
    return [tuple(int(v) for v in w) for w in code.words]


def target_size(c: int, q: int) -> int:
    """Size the planned family reaches: (c+2)/c * (q-1)**2 + 1."""
    return (c + 2) * (q - 1) ** 2 // c + 1


# --- input generators ----------------------------------------------------------


def plant_framing(words, c: int, rng: random.Random):
    """Build a word outside ``words`` that a coalition of at most c of them can produce.

    The coalition comes from the lowest-ranked :data:`PLANT_WINDOW` of the
    sorted words and the new word copies its first symbol from the
    lowest-ranked member, so it sorts among them.  Both oracles scan in
    sorted order and stop at the first framing, so the planted job costs
    about the same for every seed.  Returns ``(coalition, word)``.
    """
    pool = sorted(words)
    present = set(pool)
    length = len(pool[0])
    k = min(c, length)
    head = pool[: max(4 * k, int(PLANT_WINDOW * len(pool)))]
    for _ in range(200):
        coalition = sorted(rng.sample(head, k))
        owners = [0] + [rng.randrange(k) for _ in range(length - 1)]
        spread = list(range(1, k))
        for pos in rng.sample(range(1, length), len(spread)):
            owners[pos] = spread.pop()
        word = tuple(coalition[owners[pos]][pos] for pos in range(length))
        if word not in present:
            return tuple(coalition), word
    raise RuntimeError("no framable word found outside the code")


def permute_symbols(words, q: int, rng: random.Random):
    """Apply an independent random permutation of 0..q-1 at every position."""
    length = len(words[0])
    perms = []
    for _ in range(length):
        perm = list(range(q))
        rng.shuffle(perm)
        perms.append(perm)
    return [tuple(perms[i][w[i]] for i in range(length)) for w in words]


# --- checks --------------------------------------------------------------------


def check_verdict(report, expected: bool, c: int, words: set, label: str, out: Outcome) -> None:
    """Compare a verify report with the verdict known by construction."""
    if report.verdict != expected:
        out.problems.append(f"{label}: verdict {report.verdict}, expected {expected}")
        return
    if report.verdict:
        return
    out.witnesses += 1
    w = report.witness
    if w is None or w.kind != "framed" or not fp.framed_witness_holds(w):
        out.problems.append(f"{label}: framing witness does not revalidate: {w}")
        return
    coalition = [tuple(int(v) for v in y) for y in w.coalition]
    framed = tuple(int(v) for v in w.framed_word)
    if framed not in words or any(y not in words for y in coalition) or len(coalition) > c:
        out.problems.append(f"{label}: witness words are not codewords or coalition exceeds c")
        return
    out.witnesses_ok += 1


def _same_words(a, b) -> bool:
    if (a.size, a.q, a.length) != (b.size, b.q, b.length):
        return False
    return all(
        tuple(int(v) for v in x) == tuple(int(v) for v in y) for x, y in zip(a.words, b.words)
    )


# --- build ---------------------------------------------------------------------


def _build_job(c: int, q: int, path: str) -> Job:
    def run():
        code = fp.execute_plan(fp.plan_code(c, q))
        fp.write_code_file(code, path)
        return code, fp.read_code_file(path)

    def check(result) -> Outcome:
        code, back = result
        out = Outcome([])
        length = c + 2
        got = (code.q, code.length, code.size)
        if got != (q, length, target_size(c, q)):
            out.problems.append(f"(q, l, M) = {got}, expected {(q, length, target_size(c, q))}")
        if code.size > fp.ssw_bound(c, length, q):
            out.problems.append(f"M = {code.size} exceeds the cardinality bound")
        if not _same_words(code, back):
            out.problems.append("read-back code differs from the built code")
        return out

    return Job(f"build c={c} q={q}", ("build", c, q), run, check)


def build_jobs(rng: random.Random, workdir: str) -> list[Job]:
    return [_build_job(c, q, os.path.join(workdir, f"build-c{c}-q{q}.fpc")) for c, q in BUILD_MENU]


# --- prove ---------------------------------------------------------------------


def _prove_job(c: int, q: int, planted: bool, path: str, size: int) -> Job:
    def run():
        code = fp.read_code_file(path)
        return code, fp.is_frameproof_cover(code, c)

    def check(result) -> Outcome:
        code, report = result
        out = Outcome([])
        if code.size != size:
            out.problems.append(f"read {code.size} words, expected {size}")
        check_verdict(report, not planted, c, set(int_words(code)), "cover", out)
        return out

    tag = "planted" if planted else "plain"
    return Job(f"prove c={c} q={q} {tag}", ("prove", c, q, planted, size, path), run, check)


def prove_jobs(rng: random.Random, workdir: str) -> list[Job]:
    """Build and write every planned code once, planting framings where the menu says."""
    jobs = []
    for c, q, planted in PROVE_MENU:
        code = fp.execute_plan(fp.plan_code(c, q))
        if planted:
            words = int_words(code)
            _, word = plant_framing(words, c, rng)
            # planned codes always use symbol 0 for infinity
            code = fp.make_code(code.length, code.q, words + [word], 0)
        path = os.path.join(workdir, f"prove-c{c}-q{q}{'-planted' if planted else ''}.fpc")
        fp.write_code_file(code, path)
        jobs.append(_prove_job(c, q, planted, path, code.size))
    return jobs


# --- crosscheck ----------------------------------------------------------------


def crosscheck_inputs(c: int, q: int, size: int, planted: bool, rng: random.Random,
                      base_words) -> tuple[list, tuple | None]:
    """A permuted subcode of a planned code, with a planted framing if asked.

    Subcodes and per-position symbol permutations of a frameproof code stay
    frameproof, so the expected verdict is ``not planted``.  Returns the
    words and the planted ``(coalition, word)`` or None.
    """
    words = permute_symbols(rng.sample(base_words, size), q, rng)
    plant = None
    if planted:
        plant = plant_framing(words, c, rng)
        words = words + [plant[1]]
    return sorted(words), plant


def _crosscheck_job(c: int, q: int, words, plant) -> Job:
    code = fp.make_code(len(words[0]), q, words)
    expected = plant is None

    def run():
        return fp.is_frameproof_naive(code, c), fp.is_frameproof_cover(code, c)

    def check(result) -> Outcome:
        naive, cover = result
        out = Outcome([])
        members = set(words)
        check_verdict(naive, expected, c, members, "naive", out)
        check_verdict(cover, expected, c, members, "cover", out)
        return out

    tag = "plain" if expected else "planted"
    return Job(f"crosscheck c={c} q={q} M={len(words)} {tag}",
               ("crosscheck", c, q, tuple(words), plant), run, check)


def crosscheck_jobs(rng: random.Random, workdir: str) -> list[Job]:
    bases = {}
    jobs = []
    for c, q, size, planted in CROSSCHECK_MENU:
        if (c, q) not in bases:
            bases[c, q] = int_words(fp.execute_plan(fp.plan_code(c, q)))
        words, plant = crosscheck_inputs(c, q, size, planted, rng, bases[c, q])
        jobs.append(_crosscheck_job(c, q, words, plant))
    return jobs


# --- arrays --------------------------------------------------------------------


def _oa_job(s: int, row: int, col: int) -> Job:
    def run():
        oa = fp.build_oa_strength2(s)
        good = fp.verify_oa(oa)
        arr = np.array(oa.array, dtype=np.int64)
        arr[row, col] = (arr[row, col] + 1) % s
        bad = fp.verify_oa(fp.make_oa(arr, s, 2))
        seed = fp.oa_to_pt_code(oa)
        det = fp.is_t_determined(seed, 2)
        text = fp.oa_to_text(oa)
        again = fp.oa_to_text(fp.oa_from_text(text))
        return good, bad, seed.size, det, text, again

    def check(result) -> Outcome:
        good, bad, seed_size, det, text, again = result
        out = Outcome([])
        if not good.verdict:
            out.problems.append(f"built array rejected: {good.witness}")
        if bad.verdict or bad.witness is None or bad.witness.kind != "oa_count":
            out.problems.append("corrupted array not rejected with an oa_count witness")
        if seed_size != s * s - 1:
            out.problems.append(f"seed has {seed_size} words, expected {s * s - 1}")
        if not det.verdict:
            out.problems.append(f"seed is not 2-determined: {det.witness}")
        if text != again:
            out.problems.append(".oa text changed on re-export")
        return out

    return Job(f"oa s={s}", ("oa", s, row, col), run, check)


def _field_job(m: int, triples) -> Job:
    def run():
        return fp.make_field(m)

    def check(field) -> Outcome:
        out = Outcome([])
        bad_inv = [a for a in range(1, m) if field.mul(a, field.inv(a)) != 1]
        if bad_inv:
            out.problems.append(f"a * a^-1 != 1 for a in {bad_inv[:5]}")
        for a, b, c in triples:
            if field.mul(a, field.add(b, c)) != field.add(field.mul(a, b), field.mul(a, c)):
                out.problems.append(f"distributivity fails at {(a, b, c)}")
                break
        return out

    return Job(f"field m={m}", ("field", m, tuple(triples)), run, check)


def arrays_jobs(rng: random.Random, workdir: str) -> list[Job]:
    jobs = [_oa_job(s, rng.randrange(s + 1), rng.randrange(s * s)) for s in OA_ORDERS]
    for m in FIELD_ORDERS:
        triples = [tuple(rng.randrange(m) for _ in range(3)) for _ in range(FIELD_SAMPLE)]
        jobs.append(_field_job(m, triples))
    return jobs


MENU_JOBS = {
    "build": build_jobs,
    "prove": prove_jobs,
    "crosscheck": crosscheck_jobs,
    "arrays": arrays_jobs,
}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def make_rounds(workload: str, seed: int, rounds: int, workdir: str) -> list[list[Job]]:
    """The seeded job list: the workload's menu, shuffled afresh for every round."""
    rng = random.Random(f"{workload}:{seed}")
    menu = MENU_JOBS[workload](rng, workdir)
    out = []
    for _ in range(rounds):
        order = list(menu)
        rng.shuffle(order)
        out.append(order)
    return out
