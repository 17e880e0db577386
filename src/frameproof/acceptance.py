"""Acceptance battery: the package's end-to-end exit criteria.

``CRITERIA`` lists the nine criteria in order.  Each takes the battery's
seed (only the randomised oracle cross-check, criterion 8, uses it) and
returns ``(ok, detail)``; those with a runtime ceiling fail past it.
Every expected number is either a hand-checkable constant or pinned by
an independent oracle.  ``frameproof selftest`` and
``tests/test_acceptance.py`` both run this list and print
:func:`report_line` for each criterion.

The package ``__init__`` does not import this module, so ``import
frameproof`` never loads the battery.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .codes import descendant_contains, enumerate_descendants, framed_witness_holds, make_code
from .construct import base_code, polynomial_lift
from .oa import build_oa_strength2, make_oa, verify_oa
from .plan import (
    Step,
    achieved_rate,
    blackburn_leading,
    execute_plan,
    execute_steps,
    plan_code,
    ssw_bound,
)
from .verify import is_frameproof_cover, is_frameproof_naive, is_t_determined

SEED = 20260808

# (base, order of a lift by the field one point short or None, q, l, M, c)
BASE_EXPECTATIONS = [
    ("q3", None, 3, 4, 8, 2),
    ("q4", None, 4, 5, 15, 3),
    ("q3", 2, 5, 4, 32, 2),
    ("q4", 3, 10, 5, 135, 3),
]


def random_code(rng: random.Random, max_q=5, max_l=5, max_size=12):
    """A random code of 2..max_size distinct words, q in 2..max_q, length in 2..max_l."""
    q = rng.randint(2, max_q)
    length = rng.randint(2, max_l)
    target = rng.randint(2, min(max_size, q**length))
    words = set()
    while len(words) < target:
        words.add(tuple(rng.randrange(q) for _ in range(length)))
    return make_code(length, q, sorted(words))


def plant_framing(code, rng: random.Random, c: int):
    """Append a framable word; returns (code, coalition) or None if impossible."""
    words = list(code.words)
    for _ in range(60):
        k = rng.randint(2, min(c, len(words)))
        coalition = rng.sample(words, k)
        fresh = sorted(enumerate_descendants(coalition) - set(words))
        if fresh:
            x = fresh[rng.randrange(len(fresh))]
            return make_code(code.length, code.q, words + [x]), tuple(coalition)
    return None


def report_line(number: int, ok: bool, detail: str) -> str:
    return f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"


def criterion_1_base_fixtures(seed: int = SEED):
    start = time.perf_counter()
    ok = True
    for name, m, q, length, size, c in BASE_EXPECTATIONS:
        code = base_code(name) if m is None else polynomial_lift(base_code(name), m, 2, c)
        ok &= (code.q, code.length, code.size) == (q, length, size)
        ok &= is_frameproof_naive(code, c).verdict
        ok &= is_frameproof_cover(code, c).verdict
        ok &= is_t_determined(code, 2).verdict
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60
    return ok, f"q3, q4 and their short lifts verified by both oracles in {elapsed:.1f}s"


def criterion_2_smallest_lift(seed: int = SEED):
    start = time.perf_counter()
    lifted = polynomial_lift(base_code("q3"), 3, 2, 2)
    ok = (lifted.q, lifted.size) == (7, 72)
    ok &= lifted.size == 2 * (lifted.q - 1) ** 2
    report = is_frameproof_naive(lifted, 2)
    ok &= report.verdict
    ok &= report.subsets_examined == 72 + 2556  # singletons + all pairs
    ok &= is_t_determined(lifted, 2).verdict
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5
    return ok, f"lift to q=7 gives 72 words, naive-verified in {elapsed:.2f}s"


def criterion_3_c2_family(seed: int = SEED):
    start = time.perf_counter()
    ok = True
    for q in range(3, 32, 2):
        plan = plan_code(2, q)
        chain = execute_steps(plan.steps[:-1], plan.c)
        ok &= is_t_determined(chain, 2).verdict
        code = execute_plan(plan)
        ok &= code.size == 2 * (q - 1) ** 2 + 1
        if q <= 15:
            ok &= is_frameproof_cover(code, 2).verdict
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120
    return ok, f"odd q in 3..31 hit 2(q-1)^2+1 exactly, {elapsed:.1f}s"


def criterion_4_c3_family(seed: int = SEED):
    start = time.perf_counter()
    ok = True
    for q, size in ((4, 16), (10, 136), (22, 736)):
        code = execute_plan(plan_code(3, q))
        ok &= code.size == size
        ok &= 3 * (code.size - 1) == 5 * (q - 1) ** 2
        ok &= is_frameproof_cover(code, 3).verdict
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600
    return ok, f"q in {{4, 10, 22}} give 16/136/736 words, cover-verified, {elapsed:.1f}s"


def criterion_5_oa_suite(seed: int = SEED):
    start = time.perf_counter()
    ok = True
    for s in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        oa = build_oa_strength2(s)
        ok &= verify_oa(oa).verdict
        deltas = range(1, s) if s <= 5 else (1,)
        for r in range(oa.constraints):
            for col in range(oa.runs):
                for delta in deltas:
                    bad = oa.array.copy()
                    bad[r, col] = (bad[r, col] + delta) % s
                    ok &= not verify_oa(make_oa(bad, s, 2)).verdict
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10
    return ok, f"arrays for nine orders verified, every cell corruption caught, {elapsed:.1f}s"


def criterion_6_oa_family(seed: int = SEED):
    start = time.perf_counter()
    code = execute_steps((Step("base", "oa4"), Step("lift", 4)), 3)
    ok = (code.q, code.size) == (13, 240)
    ok &= 3 * code.size == 5 * (code.q - 1) ** 2
    ok &= is_t_determined(code, 2).verdict
    ok &= is_frameproof_cover(code, 3).verdict
    wide = execute_steps((Step("base", "oa5"), Step("lift", 7)), 4)
    ok &= (wide.q, wide.length, wide.size) == (29, 6, 1176)
    ok &= 4 * wide.size == 6 * (wide.q - 1) ** 2
    ok &= is_t_determined(wide, 2).verdict
    planned = execute_plan(plan_code(4, 21))
    ok &= (planned.q, planned.length, planned.size) == (21, 6, 601)
    ok &= is_frameproof_cover(planned, 4).verdict
    elapsed = time.perf_counter() - start
    return ok, (f"array-seeded codes hit (c+2)/c*(q-1)^2 for c=3 and c=4, "
                f"planned c=4 q=21 cover-verified, {elapsed:.1f}s")


def criterion_7_rate_convergence(seed: int = SEED):
    code = execute_plan(plan_code(2, 101))
    rate = achieved_rate(2, 4, 101, code.size)
    ok = rate == Fraction(20001, 10201)
    ok &= rate > 2 * (1 - Fraction(1, 50))
    fam = execute_steps((Step("base", "oa4"), Step("lift", 37)), 3)
    ok &= fam.q == 112 and fam.q % 6 == 4
    fam_rate = achieved_rate(3, 5, fam.q, fam.size)
    ok &= fam_rate >= Fraction(5, 3) * Fraction(fam.q - 1, fam.q) ** 2
    return ok, "exact rates at q=101 and q=112 clear their finite-q floors"


def criterion_8_oracle_equivalence(seed: int = SEED):
    start = time.perf_counter()
    rng = random.Random(seed)
    ok = True
    trials = violations = 0
    while trials < 1000:
        code = random_code(rng)
        c = rng.randint(2, 3)
        if trials % 2 == 1:
            out = plant_framing(code, rng, c)
            if out is None:
                continue
            code, _ = out
        trials += 1
        naive = is_frameproof_naive(code, c)
        cover = is_frameproof_cover(code, c)
        ok &= naive.verdict == cover.verdict
        for report in (naive, cover):
            if not report.verdict:
                violations += 1
                ok &= framed_witness_holds(report.witness)
                ok &= descendant_contains(report.witness.coalition, report.witness.framed_word)
                ok &= report.witness.framed_word not in report.witness.coalition
    ok &= violations > 400  # planted cases guarantee plenty of false verdicts
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60
    return ok, f"1000 seeded codes: verifiers agree, {violations} witnesses revalidated, {elapsed:.1f}s"


def criterion_9_bound_dominance(seed: int = SEED):
    ok = blackburn_leading(3, 5) == Fraction(5, 3)
    ok &= blackburn_leading(2, 4) == Fraction(2)
    produced = [
        (base_code("q3"), 2),
        (base_code("q4"), 3),
        (polynomial_lift(base_code("q3"), 2, 2, 2), 2),
        (polynomial_lift(base_code("q4"), 3, 2, 3), 3),
        (polynomial_lift(base_code("q3"), 3, 2, 2), 2),
        (polynomial_lift(base_code("q4"), 4, 2, 3), 3),
        (execute_steps((Step("base", "oa4"), Step("lift", 4)), 3), 3),
        (execute_steps((Step("base", "oa5"), Step("lift", 7)), 4), 4),
    ]
    produced += [(execute_plan(plan_code(2, q)), 2) for q in range(3, 16, 2)]
    produced += [(execute_plan(plan_code(3, q)), 3) for q in (4, 10, 22)]
    for code, c in produced:
        ok &= code.size <= ssw_bound(c, code.length, code.q)
    return ok, f"{len(produced)} constructed codes all satisfy the cardinality bound"


CRITERIA = (
    criterion_1_base_fixtures,
    criterion_2_smallest_lift,
    criterion_3_c2_family,
    criterion_4_c3_family,
    criterion_5_oa_suite,
    criterion_6_oa_family,
    criterion_7_rate_convergence,
    criterion_8_oracle_equivalence,
    criterion_9_bound_dominance,
)
