import random
import tracemalloc
from dataclasses import replace
from functools import reduce
from itertools import chain, combinations, islice, permutations
from math import comb
from operator import or_

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    named_code,
    reference_maximal_sets,
    reference_naive,
    reference_shared_patterns,
    reference_t_determined,
    scan_chunks,
)

from frameproof import (
    BudgetExceeded,
    Step,
    augment_infinity,
    base_code,
    build_oa_strength2,
    descendant_contains,
    execute_plan,
    execute_steps,
    framed_witness_holds,
    is_frameproof_cover,
    is_frameproof_naive,
    is_t_determined,
    make_code,
    oa_to_pt_code,
    plan_code,
)
from frameproof import verify
from frameproof.acceptance import plant_framing, random_code
from frameproof.codes import _pack

FRAMABLE = make_code(2, 2, [(0, 1), (1, 0), (0, 0)])


def smallest_framable(code, c):
    """Brute reference: the smallest word some <=c other words can produce."""
    for x in code.words:
        others = [y for y in code.words if y != x]
        for k in range(1, min(c, len(others)) + 1):
            if any(descendant_contains(p, x) for p in combinations(others, k)):
                return x
    return None


# Symbols written as v * WIDE keep every order and equality, but a column
# then spans about 2**42, so keys on two or more positions pass 2**63.
WIDE = 2**40


def scale(word):
    return tuple(v * WIDE for v in word)


def widen(words, q, inf=None):
    """The same code with each symbol v written as v * WIDE."""
    return [scale(w) for w in words], (q - 1) * WIDE + 1, None if inf is None else inf * WIDE


def spread(code):
    """The same code with each symbol v, the infinity id too, written as 997 * v + 5."""
    inf = None if code.inf_id is None else 997 * code.inf_id + 5
    return make_code(code.length, 997 * (code.q - 1) + 6, code.array * 997 + 5, inf_id=inf)


@st.composite
def codes_with_c(draw, wide=False, long=False, spaced=False):
    """Codes of length 1..6 (single words included), half with a planted framing.

    ``wide`` codes have length 3..5 and every symbol scaled by 2**40;
    ``long`` codes have length 7..8, so their shared-set patterns span
    two or four 64-bit words; ``spaced`` codes have every symbol v written
    as 997 * v + 5 (:func:`spread`).
    """
    length = draw(st.integers(3, 5) if wide else st.integers(7, 8) if long else st.integers(1, 6))
    q = draw(st.integers(2, 4))
    word = st.tuples(*[st.integers(0, q - 1)] * length)
    words = draw(st.sets(word, min_size=1, max_size=8))
    c = draw(st.integers(2, 4))
    if draw(st.booleans()):
        pool = sorted(words)
        coalition = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=c))
        owners = draw(st.lists(st.sampled_from(coalition), min_size=length, max_size=length))
        words.add(tuple(y[pos] for pos, y in enumerate(owners)))
    if wide:
        words, q, _ = widen(words, q)
    code = make_code(length, q, sorted(words))
    return spread(code) if spaced else code, c


@st.composite
def starred_codes_with_t(draw, wide=False):
    """Codes of length 1..6 over q 2..5 with 0..t-1 infinities per word.

    Half of them get a planted word: one agreeing with an existing word
    in t non-infinity positions, or one carrying t or more infinities.
    ``wide`` codes have length 3..5 and every symbol scaled by 2**40.
    """
    length = draw(st.integers(3, 5) if wide else st.integers(1, 6))
    q = draw(st.integers(2, 5))
    t = draw(st.integers(1, 3))
    inf = draw(st.integers(0, q - 1))
    symbol = st.sampled_from([v for v in range(q) if v != inf])

    def starred(stars):
        word = draw(st.lists(symbol, min_size=length, max_size=length))
        for pos in stars:
            word[pos] = inf
        return tuple(word)

    position = st.integers(0, length - 1)
    few_stars = st.sets(position, max_size=min(t - 1, length))
    words = {starred(draw(few_stars)) for _ in range(draw(st.integers(0, 10)))}
    if draw(st.booleans()):
        donors = [w for w in sorted(words) if length - w.count(inf) >= t]
        if donors and draw(st.booleans()):
            donor = draw(st.sampled_from(donors))
            keep = draw(st.permutations([i for i in range(length) if donor[i] != inf]))[:t]
            fresh = draw(st.lists(st.integers(0, q - 1), min_size=length, max_size=length))
            words.add(tuple(donor[i] if i in keep else fresh[i] for i in range(length)))
        elif t <= length:
            words.add(starred(draw(st.sets(position, min_size=t))))
    if wide:
        words, q, inf = widen(words, q, inf)
    return make_code(length, q, sorted(words), inf_id=inf), t


class TestNaive:
    def test_ternary_base_is_2fp(self):
        assert is_frameproof_naive(base_code("q3"), 2).verdict

    def test_framing_witness_is_deterministic(self):
        report = is_frameproof_naive(FRAMABLE, 2)
        assert not report.verdict
        assert report.witness.coalition == ((0, 1), (1, 0))
        assert report.witness.framed_word == (0, 0)
        assert framed_witness_holds(report.witness)

    def test_rejects_small_c(self):
        with pytest.raises(ValueError):
            is_frameproof_naive(base_code("q3"), 1)
        with pytest.raises(ValueError, match="c must be an integer of at least 2, got 1"):
            is_frameproof_cover(base_code("q3"), 1)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_counts_are_integers(self, bad):
        # refused, not coerced: True would run as 1
        code = base_code("q3")
        for oracle, name in ((is_frameproof_naive, "c"), (is_frameproof_cover, "c"),
                             (is_t_determined, "t")):
            with pytest.raises(ValueError, match=f"{name} must be an integer of at least"):
                oracle(code, bad)
        # budgets too: True is not a budget of 1, nor 2.0 one metered in floats
        for oracle in (is_frameproof_naive, is_frameproof_cover):
            with pytest.raises(ValueError, match=f"budget must be an integer, got {bad!r}"):
                oracle(code, 2, budget=bad)

    def test_numpy_counts_are_integers(self):
        code = base_code("q3")
        assert is_frameproof_naive(code, np.int64(2)).verdict
        assert is_frameproof_cover(code, np.int32(2)).verdict
        assert is_frameproof_naive(code, 2, budget=np.uint32(10**6)).verdict
        assert is_frameproof_cover(code, 2, budget=np.int64(10**6)).verdict
        # unsigned: -t must not wrap to 254 when the t widest symbol ranges are sliced
        assert is_t_determined(code, np.uint8(2)).subsets_examined == 8 + 6 * 8

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as exc:
            is_frameproof_naive(named_code("q5"), 2, budget=10)
        assert exc.value.examined == 0
        # the 32 singletons take 32 * 31 = 992 pairs, then 5 pairs of 30 fit
        with pytest.raises(BudgetExceeded) as exc:
            is_frameproof_naive(named_code("q5"), 2, budget=1142)
        assert exc.value.examined == 37
        # a negative budget admits nothing, not even the free subset of a one-word code
        with pytest.raises(BudgetExceeded) as exc:
            is_frameproof_naive(make_code(2, 2, [(0, 1)]), 2, budget=-1)
        assert exc.value.examined == 0

    @pytest.mark.parametrize("rank", [1, 255, 256, 767, 768, 778])
    def test_framing_at_each_chunk_boundary(self, rank):
        # diagonal words (i, i) and one word (a, b): only {(a, a), (b, b)} frames
        # anything, and with 40 words it is the pair of the given lexicographic rank
        i, j = list(combinations(range(40), 2))[rank]
        a, b = i, j - 1
        code = make_code(2, 39, [(v, v) for v in range(39)] + [(a, b)])
        report = is_frameproof_naive(code, 2)
        assert report.witness.coalition == ((a, a), (b, b))
        assert report.witness.framed_word == (a, b)
        assert report.subsets_examined == 40 + rank + 1
        assert (report.verdict, report.witness, report.subsets_examined) == (
            reference_naive(code, 2))

    def test_budget_trips_among_the_singletons(self):
        # 80,001 words: 10**8 // 80,000 singletons fit, and no table is built
        with pytest.raises(BudgetExceeded) as exc:
            is_frameproof_naive(execute_plan(plan_code(2, 201)), 2)
        assert exc.value.examined == 1250

    def test_budget_trips_among_the_pairs_in_bounded_memory(self):
        # 9,801 singletons, then 403 pairs of 9,799 candidates fit in 10**8
        code = execute_plan(plan_code(2, 71))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as exc:
                is_frameproof_naive(code, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.examined == 10204
        assert peak < 16 * 2**20

    def test_monotone_in_c(self):
        # c-frameproof implies c'-frameproof for c' <= c
        for name in ("q4", "q10"):
            code = named_code(name)
            assert is_frameproof_cover(code, 3).verdict
            assert is_frameproof_cover(code, 2).verdict

    def test_subset_count(self):
        report = is_frameproof_naive(base_code("q3"), 2)
        assert report.subsets_examined == 8 + 28  # singletons + pairs


# A 3-frameproof code of 136 words of length 5: its subcodes keep the scan
# going past the first coalitions, and cut to fewer positions they fail.
PLANNED = execute_plan(plan_code(3, 10))
# and with a word planted from its last three, which agrees with the first of them on
# positions 0..2: words repeat on sets of three positions
PLANTED = make_code(5, PLANNED.q, PLANNED.words + (
    (*PLANNED.words[-3][:3], PLANNED.words[-1][3], PLANNED.words[-2][4]),))


@st.composite
def naive_cases(draw):
    """Up to 40 words of length 1..6, c in 2..4 and a budget up to the full cost.

    Words are random (length 1..6) or a subcode of ``PLANNED`` cut to its
    first 1..5 positions; codes may carry an infinity symbol and may be
    widened.  Half the budgets are the full cost, half are uniform below it.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    size = rng.randint(1, 40)
    if draw(st.booleans()):
        length, q = draw(st.integers(1, 6)), draw(st.integers(2, 5))
        words = {tuple(rng.randrange(q) for _ in range(length)) for _ in range(size)}
    else:
        length, q = draw(st.integers(1, 5)), PLANNED.q
        words = {w[:length] for w in rng.sample(PLANNED.words, size)}
    inf = draw(st.none() | st.integers(0, q - 1))
    if draw(st.booleans()):
        words, q, inf = widen(words, q, inf)
    code = make_code(length, q, sorted(words), inf_id=inf)
    c = draw(st.integers(2, 4))
    full = sum(comb(code.size, k) * (code.size - k) for k in range(1, min(c, code.size) + 1))
    return code, c, full if draw(st.booleans()) else rng.randint(0, full)


class TestWindows:
    @pytest.mark.parametrize("k", range(2, 6))
    @pytest.mark.parametrize("big_m", [*range(41), *range(41, 2001, 97), 2000])
    def test_rows_list_the_first_subsets(self, big_m, k):
        # each row's subsets follow the ranks before it, and no row starts past the count
        words = -(-big_m // 64)
        for cut in (1, 777, 3000):
            count = min(cut, comb(big_m, k))
            subsets = []
            for prefixes, firsts, ranks in verify._windows(big_m, k, count, words):
                for prefix, first, rank in zip(prefixes.T.tolist(), firsts.tolist(), ranks.tolist()):
                    assert rank == len(subsets) < count, cut
                    subsets += [(*prefix, z) for z in range(first, big_m)]
            assert subsets[:count] == list(islice(combinations(range(big_m), k), count)), cut


class TestNaiveReference:
    @given(naive_cases())
    @settings(max_examples=500, derandomize=True, deadline=None)
    def test_matches_the_reference_loop(self, case):
        code, c, budget = case
        try:
            expected = reference_naive(code, c, budget)
        except BudgetExceeded as exc:
            with pytest.raises(BudgetExceeded) as got:
                is_frameproof_naive(code, c, budget)
            assert got.value.examined == exc.examined
            assert str(got.value) == str(exc)
        else:
            report = is_frameproof_naive(code, c, budget)
            assert (report.verdict, report.witness, report.subsets_examined) == expected

    def test_chunks_cross_many_prefixes(self):
        # 136 words at c=3: 410,040 triples in growing chunks, all clean; then
        # a word built from the last three, first framed by a pair seven chunks in
        for code in (PLANNED, PLANTED):
            report = is_frameproof_naive(code, 3)
            assert (report.verdict, report.witness, report.subsets_examined) == (
                reference_naive(code, 3))
        assert report.subsets_examined == 137 + 9038


def lone_framing(k, n, members):
    """n diagonal words (v, ..., v) of length k and one more, framed by the words at ``members`` alone.

    The extra word holds the members' diagonal values, one per position,
    in an order that puts it next to a member; then no other coalition
    of at most k words frames anything.  Returns ``(code, extra word)``,
    or None when no order does (k words in a row, say).
    """
    for slot in sorted({m + d for m in members for d in (-1, 1)} - set(members) - {-1, n + 1}):
        values = [m if m < slot else m - 1 for m in members]
        for extra in permutations(values):
            code = make_code(k, n, [(v,) * k for v in range(n)] + [extra])
            if code.words.index(extra) == slot:
                return code, extra
    return None


def scan_layout(big_m, k, count):
    """The naive scan's blocks of k-subsets as (rows, z0, z1), each row (prefix, first column)."""
    words = -(-big_m // 64)
    layout = []
    for prefixes, firsts, ranks in verify._windows(big_m, k, count, words):
        for rows, z0, z1 in verify._blocks(firsts, ranks, count, big_m, words):
            layout.append(([(tuple(prefixes[:, r].tolist()), int(firsts[r])) for r in rows], z0, z1))
    return layout


class TestNaiveBlocks:
    """The only framing coalition placed at the edges of the scan's blocks."""

    def check(self, k, n, members, budget=None):
        """Compare the scan with the reference loop; False when ``members`` cannot be planted."""
        planted = lone_framing(k, n, members)
        if planted is None:
            return False
        code, framed = planted
        args = (code, k) if budget is None else (code, k, budget)
        try:
            expected = reference_naive(*args)
        except BudgetExceeded as exc:
            with pytest.raises(BudgetExceeded) as got:
                is_frameproof_naive(*args)
            assert (got.value.examined, str(got.value)) == (exc.examined, str(exc))
            return True
        report = is_frameproof_naive(*args)
        assert (report.verdict, report.witness, report.subsets_examined) == expected
        assert report.witness.framed_word == framed
        assert report.witness.coalition == tuple(code.words[m] for m in members)
        return True

    def test_first_and_last_row_of_a_block(self):
        # 71 words at c=3: windows of several blocks, most of several rows
        layout = scan_layout(71, 3, comb(71, 3))
        blocks = [rows for rows, _, _ in layout if len(rows) > 2]
        assert len(blocks) > 10
        checked = 0
        for rows in blocks[:: len(blocks) // 5]:
            (head, first), (tail, _) = rows[0], rows[-1]
            checked += self.check(3, 70, (*head, first)) + self.check(3, 70, (*tail, 70))
        assert checked >= 8  # of 12: three words in a row cannot be planted

    def test_block_that_starts_a_window_or_a_new_prefix(self):
        count = comb(71, 3)
        # the first row of a window, and a block's first row that starts its head's rows
        windows = [(tuple(p[:, 0].tolist()), int(f[0])) for p, f, _ in verify._windows(71, 3, count, 2)]
        starts = [rows[0] for rows, _, _ in scan_layout(71, 3, count)
                  if rows[0][0][1] == rows[0][0][0] + 1]
        assert len(windows) > 5 and len(starts) > 5
        # three words in a row cannot be planted, so also the row's second subset
        checked = sum(self.check(3, 70, (*prefix, z))
                      for prefix, first in windows[:6] + starts[:: len(starts) // 5]
                      for z in (first, first + 1))
        assert checked >= 15  # of 22

    def test_column_chunk_boundary_with_three_words_or_more(self):
        # 1,100 words take 18 uint64 words: row 0's 1,099 columns pass 2**14 words
        # and are cut into chunks of 910
        (rows, z0, z1), (next_rows, next_z0, _) = scan_layout(1100, 2, comb(1100, 2))[:2]
        assert rows == next_rows == [((0,), 1)] and (z0, z1, next_z0) == (1, 911, 911)
        assert all(self.check(2, 1099, (0, z)) for z in (2, z1 - 1, next_z0, next_z0 + 1, 1099))

    def test_column_chunk_boundary_at_c3(self, monkeypatch):
        # 150 words (3 uint64 words each) with blocks cut to 2**8 words: rows of
        # more than 85 columns are chunked
        monkeypatch.setattr(verify, "_BLOCK_WORDS", 2**8)
        layout = scan_layout(150, 3, comb(150, 3))
        chunked = [(rows[0][0], z0) for rows, z0, _ in layout if len(rows) == 1 and z0 > rows[0][1]]
        assert len(chunked) > 10
        assert all(self.check(3, 149, (*prefix, z))
                   for prefix, z0 in chunked[:: len(chunked) // 3] for z in (z0 - 1, z0))

    def test_budget_cuts_at_a_column_chunk(self):
        # the budget admits pairs up to (0, 911), the first of row 0's second chunk
        before = 1100 * 1099
        budget = before + 911 * 1098
        assert self.check(2, 1099, (0, 911), budget)
        assert self.check(2, 1099, (0, 912), budget)  # refused

    def test_least_rank_framing_in_a_window_comes_first(self, monkeypatch):
        # two framings in one window; the higher ranked one has the lower first
        # column, so its block, of at most 2**9 words here, is scanned first
        monkeypatch.setattr(verify, "_BLOCK_WORDS", 2**9)
        code = make_code(3, 69, [(v,) * 3 for v in range(69)] + [(60, 0, 55), (5, 3, 1)])
        where = {w: i for i, w in enumerate(code.words)}
        low, high = (tuple(sorted(where[(v,) * 3] for v in values))
                     for values in ((0, 55, 60), (1, 3, 5)))
        assert low < high
        words = -(-code.size // 64)
        for prefixes, firsts, ranks in verify._windows(code.size, 3, comb(code.size, 3), words):
            rows = [tuple(p) for p in prefixes.T.tolist()]
            if low[:2] in rows:
                break
        assert high[:2] in rows
        blocks = [[rows[r] for r in block] for block, _, _ in
                  verify._blocks(firsts, ranks, comb(code.size, 3), code.size, words)]
        first_block = {row: i for i, block in enumerate(blocks) for row in block}
        assert first_block[high[:2]] < first_block[low[:2]]
        report = is_frameproof_naive(code, 3)
        assert (report.verdict, report.witness, report.subsets_examined) == reference_naive(code, 3)
        assert report.witness.coalition == tuple(code.words[m] for m in low)

    def test_budget_cuts_inside_a_block(self):
        big_m, k = 71, 3
        rank = {s: i for i, s in enumerate(combinations(range(big_m), k))}
        before = big_m * (big_m - 1) + comb(big_m, 2) * (big_m - 2)
        for a, b in [(3, 9), (20, 40), (41, 43)]:
            count = rank[(a, b, b + 1)] + 2  # (a, b, b + 3) is the first subset past the budget
            rows = next(rows for rows, _, _ in scan_layout(big_m, k, count) if ((a, b), b + 1) in rows)
            assert len(rows) > 1
            budget = before + count * (big_m - k)
            assert self.check(k, big_m - 1, (a, b, b + 3), budget)  # refused
            assert self.check(k, big_m - 1, (a, b, b + 2), budget)  # the last subset admitted


class TestCover:
    def test_quaternary_base_is_3fp(self):
        assert is_frameproof_cover(base_code("q4"), 3).verdict

    def test_framing_found(self):
        report = is_frameproof_cover(FRAMABLE, 2)
        assert not report.verdict
        assert report.witness.framed_word == (0, 0)
        assert framed_witness_holds(report.witness)
        assert not framed_witness_holds(replace(report.witness, coalition=None))
        with pytest.raises(ValueError, match="not a framing witness"):
            framed_witness_holds(replace(report.witness, kind="agreement"))

    def test_reports_are_deterministic(self):
        for code in (named_code("q5"), FRAMABLE):
            first, second = is_frameproof_cover(code, 2), is_frameproof_cover(code, 2)
            assert (first.verdict, first.witness, first.subsets_examined) == (
                second.verdict, second.witness, second.subsets_examined)
        assert is_frameproof_cover(FRAMABLE, 2).witness.coalition == ((0, 1), (1, 0))

    def test_examined_counts_projections_and_search_nodes(self):
        # 3 words x 2 proper position sets, then 3 search nodes for (0, 0)
        assert is_frameproof_cover(FRAMABLE, 2).subsets_examined == 6 + 3
        assert not is_frameproof_cover(FRAMABLE, 2, budget=9).verdict

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as exc:
            is_frameproof_cover(named_code("q5"), 2, budget=10)
        assert exc.value.examined == 0
        with pytest.raises(BudgetExceeded) as exc:
            is_frameproof_cover(FRAMABLE, 2, budget=8)
        assert exc.value.examined == 8

    def test_agrees_with_naive_on_planted_violations(self):
        rng = random.Random(404)
        planted = 0
        for _ in range(40):
            code = random_code(rng, max_q=4, max_l=4, max_size=9)
            out = plant_framing(code, rng, c=3)
            if out is None:
                continue
            planted += 1
            bad, _ = out
            naive = is_frameproof_naive(bad, 3)
            cover = is_frameproof_cover(bad, 3)
            assert naive.verdict is False and cover.verdict is False
            assert framed_witness_holds(naive.witness)
            assert framed_witness_holds(cover.witness)
        assert planted > 10

    @given(st.integers(0, 10_000), st.integers(2, 3))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_oracle_equivalence(self, seed, c):
        code = random_code(random.Random(seed), max_q=4, max_l=4, max_size=10)
        naive = is_frameproof_naive(code, c)
        cover = is_frameproof_cover(code, c)
        assert naive.verdict == cover.verdict
        if not naive.verdict:
            assert framed_witness_holds(naive.witness)
            assert framed_witness_holds(cover.witness)

    @given(st.integers(0, 10_000), st.integers(2, 3))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_verdicts_match_literal_definition(self, seed, c):
        # ground truth straight from the definition: desc(P) & C == P for
        # every coalition P of size <= c, via actual set enumeration
        from frameproof import enumerate_descendants

        code = random_code(random.Random(seed), max_q=4, max_l=3, max_size=8)
        word_set = set(code.words)
        expected = True
        for k in range(1, min(c, code.size) + 1):
            for coalition in combinations(code.words, k):
                if enumerate_descendants(coalition) & word_set != set(coalition):
                    expected = False
                    break
            if not expected:
                break
        assert is_frameproof_naive(code, c).verdict == expected
        assert is_frameproof_cover(code, c).verdict == expected

    @given(st.one_of(codes_with_c(), codes_with_c(wide=True), codes_with_c(long=True),
                     codes_with_c(spaced=True)))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_witness_frames_the_smallest_framable_word(self, case):
        code, c = case
        expected = smallest_framable(code, c)
        assert is_frameproof_naive(code, c).verdict == (expected is None)
        report = is_frameproof_cover(code, c)
        assert report.verdict == (expected is None)
        if expected is not None:
            witness = report.witness
            assert witness.framed_word == expected
            assert witness.framed_word not in witness.coalition
            assert len(set(witness.coalition)) == len(witness.coalition) <= c
            assert set(witness.coalition) <= set(code.words)
            assert framed_witness_holds(witness)


def index_parts(code):
    """The index ``is_frameproof_cover`` builds: ``(sets, table)``.

    ``sets`` holds each repeating set, in the order the set walk adds it, and
    ``table`` the (M, W) uint64 word columns, read from the index's first
    ``_pack`` call, which ranks each word's pattern (the set walk itself
    calls ``_extend``, not ``_pack``): bit i % 64 of column i // 64 marks
    the words that repeat their projection onto ``sets[i]``.
    """
    walked, seen = [], []

    def walk(rows, bounds, sets, *rest):
        walked.append(sets)
        return shared_sets(rows, bounds, sets, *rest)

    def pack(rows, positions):
        seen.append(rows.view(np.uint64).copy())
        return _pack(rows, positions)

    shared_sets = verify._shared_sets
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_shared_sets", walk)
        patch.setattr(verify, "_pack", pack)
        is_frameproof_cover(code, 2)
    return (walked[0] if walked else []), seen[0]


def cover_index(code):
    """The shared-set bitsets of ``is_frameproof_cover``'s index in the dense layout.

    Each word's bit i is mapped back through ``sets`` to bit ``sets[i]`` of a
    row of 2^l bits, as :func:`reference_shared_patterns` lays them out.
    """
    sets, table = index_parts(code)
    dense = np.zeros((code.size, (2**code.length - 1 >> 6) + 1), dtype=np.uint64)
    for i, mask in enumerate(sets):
        words = table[:, i >> 6] >> np.uint64(i & 63) & np.uint64(1)
        dense[:, mask >> 6] |= words << np.uint64(mask & 63)
    return dense


def dense_patterns(shared):
    """Each row of a dense ``(M, W)`` bitset table as one int, bit S for the set S."""
    return [sum(word << 64 * i for i, word in enumerate(row)) for row in shared.tolist()]


def searched_nodes(code, c):
    """The cover report's work count, from the per-set index searched pattern by pattern.

    ``M * (2^l - 2)`` projections, then the search nodes over
    :func:`reference_maximal_sets` of each distinct pattern, in the order of
    its first word, up to the first that frames.
    """
    meter, seen = [code.size * (2**code.length - 2), verify.NAIVE_BUDGET], set()
    for pattern in dense_patterns(reference_shared_patterns(code)):
        if pattern not in seen:
            seen.add(pattern)
            masks = reference_maximal_sets(pattern, code.length)
            if verify._cover(masks, code.length, c, meter) is not None:
                break
    return meter[0]


def searched_sets(code, c):
    """The sets ``_cover`` is handed for each pattern it searches, in order."""
    searched = []

    def spy(masks, *rest):
        searched.append(masks)
        return cover(masks, *rest)

    cover = verify._cover
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_cover", spy)
        is_frameproof_cover(code, c)
    return searched


class TestCoverIndex:
    @given(st.one_of(codes_with_c(), codes_with_c(wide=True), codes_with_c(long=True),
                     codes_with_c(spaced=True), starred_codes_with_t(),
                     starred_codes_with_t(wide=True)))
    @settings(max_examples=300, derandomize=True, deadline=None)
    @example((PLANTED, 3))
    @example((spread(PLANTED), 3))
    def test_shared_sets_match_the_per_set_loop(self, case):
        code = case[0]
        reference = reference_shared_patterns(code)
        # one bit per word for each set that repeats on some word, and for no other set
        sets, table = index_parts(code)
        held = reduce(or_, dense_patterns(reference), 0)
        assert sorted(sets) == [mask for mask in range(2**code.length) if held >> mask & 1]
        assert table.shape == (code.size, -(-len(sets) // 64))
        assert np.array_equal(cover_index(code), reference)

    @given(st.one_of(codes_with_c(), codes_with_c(wide=True), codes_with_c(long=True)))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_cover_searches_the_maximal_sets(self, case):
        code, c = case
        patterns = dict.fromkeys(dense_patterns(reference_shared_patterns(code)))
        want = [reference_maximal_sets(pattern, code.length) for pattern in patterns]
        got = searched_sets(code, c)
        # in the order of each pattern's first word, up to the first that frames
        assert got == want[:len(got)]
        assert len(got) == len(want) or not is_frameproof_cover(code, c).verdict

    def test_a_long_code_keeps_only_the_sets_that_repeat(self):
        # 2^40 bits a word would not fit in memory; the index holds only the 6 sets that
        # repeat, the subsets of {0, 1} (words 0 and 1) and of {2, 3} (words 1 and 2)
        words = [(0,) * 40, (0, 0, 1, 1) + (2,) * 36, (1,) * 40]
        code = make_code(40, 3, words)
        report = is_frameproof_cover(code, 2, budget=10**13)
        assert report_of(report)[:2] == report_of(is_frameproof_naive(code, 2))[:2] == (True, None)
        # the patterns in word order: their maximal sets, searched and failing to cover
        meter = [3 * (2**40 - 2), 10**13]
        for masks in ([0b11], [0b11, 0b1100], [0b1100]):
            assert verify._cover(masks, 40, 2, meter) is None
        assert report.subsets_examined == meter[0] == 3 * (2**40 - 2) + 6

    @given(st.one_of(codes_with_c(), codes_with_c(wide=True), codes_with_c(long=True)))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_one_search_per_distinct_pattern_in_word_order(self, case):
        code, c = case
        assert is_frameproof_cover(code, c).subsets_examined == searched_nodes(code, c)

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_one_search_per_distinct_pattern_at_lengths_7_and_8(self, seed):
        # up to 254 sets that repeat: patterns of up to four 64-bit words, often equal in
        # their first word only
        rng = random.Random(seed)
        length, q, c = rng.choice([7, 8]), rng.randint(2, 4), rng.randint(2, 4)
        words = {tuple(rng.randrange(q) for _ in range(length)) for _ in range(rng.randint(2, 9))}
        code = make_code(length, q, sorted(words))
        assert is_frameproof_cover(code, c).subsets_examined == searched_nodes(code, c)

    def test_wide_columns_are_re_ranked(self):
        # each column spans about 2**41, so two positions already pass 2**63
        words, q, _ = widen([(0, 1, 2, 0), (1, 1, 0, 2), (0, 2, 2, 1), (2, 1, 2, 0)], 3)
        code = make_code(4, q, words)
        shared = cover_index(code)
        assert np.array_equal(shared, reference_shared_patterns(code))
        # the last word agrees with the first on positions 1..3: every S within them
        assert shared[3, 0] == sum(1 << mask for mask in range(2, 16, 2))

    @pytest.mark.parametrize("length, words, report", [
        (3, [], (True, None, 0)),  # no projections, no search
        (3, [(0, 1, 1)], (True, None, 7)),  # 6 projections, one search node
        (1, [(0,), (2,)], (True, None, 1)),  # no proper non-empty set, one node
    ])
    def test_smallest_codes(self, length, words, report):
        got = is_frameproof_cover(make_code(length, 3, words), 2)
        assert (got.verdict, got.witness, got.subsets_examined) == report


def report_of(report):
    return report.verdict, report.witness, report.subsets_examined


class TestCoverIndexPaths:
    @given(st.one_of(codes_with_c(), codes_with_c(wide=True), codes_with_c(long=True),
                     codes_with_c(spaced=True), starred_codes_with_t()))
    @settings(max_examples=200, derandomize=True, deadline=None)
    @example((PLANTED, 3))
    def test_counting_and_sorting_build_the_same_index(self, case):
        code, c = case[0], max(2, case[1])
        want, reference = report_of(is_frameproof_cover(code, c)), reference_shared_patterns(code)
        # 0 bins per key sorts every set; narrow codes span at most 5**8 keys on
        # any set, so 5**8 bins per key counts every set (wide ones would need 2**41)
        for dense in [0] if code.q > 5 else [0, 5**8]:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verify, "_DENSE", dense)
                assert np.array_equal(cover_index(code), reference)
                assert report_of(is_frameproof_cover(code, c)) == want


def keyed_sets(code, c=2, budget=verify.NAIVE_BUDGET):
    """Each set the cover walk keys, in order, with the keys it counts: ``[(mask, keys)]``.

    The set is the mask of the ``_shared_sets`` call being walked plus the column its
    ``_extend`` step reads, found from the column's offset into the code's rows.
    """
    rows, walking, keyed, column = code.array, [], [], []
    shared_sets, extend, repeated = verify._shared_sets, verify._extend, verify._repeated

    def walk(rows, bounds, sets, mask, *rest):
        walking.append(mask)
        shared_sets(rows, bounds, sets, mask, *rest)
        walking.pop()

    def step(keys, span, col, *rest):
        if walking:
            column.append((col.ctypes.data - rows.ctypes.data) // rows.strides[1])
        return extend(keys, span, col, *rest)

    def count(keys, span):
        keyed.append((walking[-1] | 1 << column.pop(), keys.copy()))
        return repeated(keys, span)

    with pytest.MonkeyPatch.context() as patch:
        for name, spy in (("_shared_sets", walk), ("_extend", step), ("_repeated", count)):
            patch.setattr(verify, name, spy)
        is_frameproof_cover(code, c, budget)
    return keyed


def same_groups(a, b):
    """Whether two key arrays split their positions into the same classes of equal keys."""
    def firsts(keys):
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return first[inverse.reshape(-1)]
    return np.array_equal(firsts(a), firsts(b))


class TestCoverPruning:
    @pytest.mark.parametrize("c, q", [(2, 15), (3, 16), (12, 157)])
    def test_a_2_determined_code_keys_only_sets_of_one_or_two_positions(self, c, q):
        # a word repeats on a pair only with a star in it, and on a triple only with a star in
        # each of its three pairs, two stars where a word has one at most: no triple is keyed
        code = execute_plan(plan_code(c, q))
        keyed = keyed_sets(code, c, budget=10**9)
        singles_and_pairs = [m for m in range(1, 2**code.length) if bin(m).count("1") <= 2]
        assert sorted(mask for mask, _ in keyed) == singles_and_pairs
        assert len(keyed) == code.length + comb(code.length, 2) == {15: 10, 16: 15, 157: 105}[q]
        assert all(len(keys) == code.size for _, keys in keyed)

    @given(st.one_of(codes_with_c(), codes_with_c(long=True), codes_with_c(spaced=True)))
    @settings(max_examples=200, derandomize=True, deadline=None)
    @example((PLANTED, 3))
    @example((spread(PLANTED), 3))
    def test_a_set_is_keyed_on_the_words_repeating_on_all_its_subsets(self, case):
        # a set of 3+ positions is keyed only when each subset one position smaller repeats,
        # and then on the words that repeat on all of them, with the equalities of their
        # projections; smaller sets are keyed on every word
        code = case[0]
        patterns = dense_patterns(reference_shared_patterns(code))
        for mask, keys in keyed_sets(code, case[1]):
            subsets = [mask ^ 1 << i for i in range(code.length) if mask >> i & 1]
            assert all(any(p >> s & 1 for p in patterns) for s in subsets if s)
            if len(subsets) < 3:
                assert len(keys) == code.size
                continue
            live = [x for x, p in enumerate(patterns) if all(p >> s & 1 for s in subsets)]
            positions = [pos for pos in range(code.length) if mask >> pos & 1]
            assert live and same_groups(keys, _pack(code.array[live], positions))

    @pytest.mark.parametrize("code", [PLANTED, spread(PLANTED)])
    @pytest.mark.parametrize("c", [2, 3])
    def test_planted_codes_agree_with_naive(self, code, c):
        # the walk keys sets of three positions on some words here, not only pairs
        assert any(bin(mask).count("1") > 2 for mask, _ in keyed_sets(code, c))
        naive, cover = is_frameproof_naive(code, c), is_frameproof_cover(code, c)
        assert naive.verdict == cover.verdict
        assert naive.verdict or framed_witness_holds(cover.witness)


def down_closure(tops):
    """The non-empty sets under some set in ``tops``, as a frozenset of bitsets."""
    family = set()
    for top in tops:
        sub = top
        while sub:
            family.add(sub)
            sub = (sub - 1) & top
    return frozenset(family)


def planted_index(length, families):
    """A stand-in for ``_shared_sets`` that gives word x the sets of ``families[x]``.

    The sets come depth first by position from the lowest, not in the walk's
    increasing order, so the search's own sort of the sets is what orders them.
    """
    def walk(rows, bounds, sets, *rest):
        union = frozenset().union(*families)
        for mask in sorted(union, key=lambda m: [p for p in range(length) if m >> p & 1]):
            sets[mask] = np.array([mask in family for family in families])
    return walk


def check_maximal_sets(length, families):
    """``_cover`` is handed, for each distinct family in word order, the reference's maximal sets.

    A last word with no shared set gives every code two words or more.
    """
    families = [*families, frozenset()]
    code = make_code(length, len(families), [(x,) * length for x in range(len(families))])
    searched = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_shared_sets", planted_index(length, families))
        patch.setattr(verify, "_cover", lambda masks, *rest: searched.append(masks))  # no cover
        assert is_frameproof_cover(code, 2).verdict
    assert searched == [reference_maximal_sets(sum(1 << mask for mask in family), length)
                        for family in dict.fromkeys(families)]


class TestMaximalSets:
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_every_pattern_up_to_length_4(self, length):
        proper = range(1, 2**length - 1)
        tops = chain.from_iterable(combinations(proper, k) for k in range(len(proper) + 1))
        check_maximal_sets(length, list(dict.fromkeys(map(down_closure, tops))))

    @given(st.integers(5, 8).flatmap(lambda length: st.tuples(st.just(length), st.lists(
        st.lists(st.integers(1, 2**length - 2), max_size=6), min_size=1, max_size=6))))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_patterns_of_one_to_four_words(self, case):
        length, tops = case
        check_maximal_sets(length, [down_closure(top) for top in tops])


class TestCoverAtPlanSizes:
    @pytest.mark.parametrize("c, q", [(2, 31), (2, 45), (2, 101), (3, 40)])
    def test_plan_codes_are_frameproof(self, c, q):
        assert is_frameproof_cover(execute_plan(plan_code(c, q)), c).verdict

    def test_planted_framing_near_the_start(self):
        code = execute_plan(plan_code(2, 45))
        present = set(code.words)
        a, b = code.words[3], code.words[7]
        candidates = ((a[0], b[1], a[2], b[3]), (a[0], a[1], b[2], b[3]), (a[0], b[1], b[2], a[3]))
        planted = next(x for x in candidates if x not in present)
        bad = make_code(code.length, code.q, code.words + (planted,), inf_id=code.inf_id)
        report = is_frameproof_cover(bad, 2)
        assert not report.verdict
        witness = report.witness
        assert witness.framed_word <= planted
        assert len(witness.coalition) <= 2 and set(witness.coalition) <= set(bad.words)
        assert framed_witness_holds(witness)

    def test_columns_are_read_in_place(self, monkeypatch):
        # every symbol + 5 and no star: each column starts at 5, and the index hands that
        # least symbol to _extend with the code's own column, not a shifted copy
        code = execute_plan(plan_code(2, 15))
        shifted = make_code(code.length, code.q + 5, code.array + 5)
        columns, extend = [], verify._extend
        monkeypatch.setattr(verify, "_extend",
                            lambda keys, span, col, *args: columns.append(col)
                            or extend(keys, span, col, *args))

        def plus(word):
            return tuple(x + 5 for x in word)

        for c in (2, 3):
            want = is_frameproof_cover(code, c)
            if want.witness is not None:
                want = replace(want, witness=replace(
                    want.witness, coalition=tuple(map(plus, want.witness.coalition)),
                    framed_word=plus(want.witness.framed_word)))
            columns.clear()
            assert report_of(is_frameproof_cover(shifted, c)) == report_of(want)
            assert columns and all(np.shares_memory(col, shifted.array) for col in columns)
        assert not want.verdict

    def test_length_nine_family_code(self):
        # 3,087 words of length 9: each word's pattern spans eight 64-bit words
        code = execute_steps((Step("base", "oa8"), Step("lift", 7)), 7)
        assert (code.size, code.length) == (3087, 9)
        assert is_frameproof_cover(code, 7).verdict
        a, b = code.words[5], code.words[1000]
        planted = a[:5] + b[5:]
        assert planted not in set(code.words)
        bad = make_code(code.length, code.q, code.words + (planted,), inf_id=code.inf_id)
        report = is_frameproof_cover(bad, 7)
        assert not report.verdict
        witness = report.witness
        assert len(witness.coalition) <= 7 and set(witness.coalition) <= set(bad.words)
        assert framed_witness_holds(witness)


C2Q15 = execute_plan(plan_code(2, 15))


@st.composite
def permuted_subcodes(draw):
    """60..150 words of the c=2 q=15 or c=3 q=10 code under a symbol permutation per position.

    Half carry a planted framing; the rest stay frameproof, as a subcode
    of a frameproof code with its symbols renamed is.
    """
    c, base = draw(st.sampled_from([(2, C2Q15), (3, PLANNED)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    perms = [rng.sample(range(base.q), base.q) for _ in range(base.length)]
    words = [tuple(perm[v] for perm, v in zip(perms, w))
             for w in rng.sample(base.words, draw(st.integers(60, min(150, base.size))))]
    code = make_code(base.length, base.q, sorted(words))
    if draw(st.booleans()):
        code, _ = plant_framing(code, rng, c)
        return code, c, False
    return code, c, True


class TestOraclesAtPlanSizes:
    @given(permuted_subcodes())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_naive_and_cover_agree(self, case):
        # past 40 words the naive scan runs several windows of several blocks
        code, c, frameproof = case
        naive, cover = is_frameproof_naive(code, c), is_frameproof_cover(code, c)
        assert naive.verdict == cover.verdict == frameproof
        if not frameproof:
            assert framed_witness_holds(naive.witness)
            assert framed_witness_holds(cover.witness)


class TestTDetermined:
    def test_base_codes(self):
        for name in ("q3", "q4", "q5", "q10"):
            assert is_t_determined(named_code(name), 2).verdict

    def test_larger_t_still_holds(self):
        # the infinity-count clause is tighter than needed for t+1, and the
        # agreement clause relaxes monotonically
        for name in ("q3", "q4", "q5", "q10"):
            assert is_t_determined(named_code(name), 3).verdict

    def test_all_infinity_word_fails(self):
        code = make_code(4, 3, base_code("q3").words + ((0, 0, 0, 0),), inf_id=0)
        report = is_t_determined(code, 2)
        assert not report.verdict
        assert report.witness.kind == "inf_count"
        assert report.witness.pair == ((0, 0, 0, 0),)
        assert len(report.witness.positions) == 4

    def test_infinity_count_does_not_wrap_past_255(self):
        # 256 stars in one word of length 300: a count kept in 8 bits would read 0
        starred = (2,) * 44 + (0,) * 256  # second in sorted order
        code = make_code(300, 3, [(1,) * 300, starred, (2,) * 300], inf_id=0)
        report = is_t_determined(code, 2)
        assert not report.verdict
        assert report.witness.kind == "inf_count"
        assert report.witness.pair == (starred,)
        assert report.witness.positions == tuple(range(44, 300))
        assert report.subsets_examined == 2

    def test_agreement_violation(self):
        code = make_code(3, 3, [(1, 1, 0), (1, 1, 2)], inf_id=0)
        report = is_t_determined(code, 2)
        assert not report.verdict
        assert report.witness.kind == "agreement"
        assert report.witness.pair == ((1, 1, 0), (1, 1, 2))
        assert report.witness.positions == (0, 1)

    def test_witness_is_the_first_repeat_in_word_order(self):
        # on positions (1, 2) the key (1, 1) sorts first, but (5, 5) repeats first
        code = make_code(3, 6, [(1, 5, 5), (2, 1, 1), (2, 5, 5), (3, 1, 1)], inf_id=0)
        report = is_t_determined(code, 2)
        assert report.witness.pair == ((1, 5, 5), (2, 5, 5))
        assert report.witness.positions == (1, 2)
        assert report.subsets_examined == 4 + 4 + 4 + 3
        assert (report.verdict, report.witness, report.subsets_examined) == (
            reference_t_determined(code, 2))

    @pytest.mark.parametrize("dense", [verify._DENSE, 0])
    def test_witness_pairs_the_first_repeat_with_its_own_key(self, monkeypatch, dense):
        # (0, 1) and (0, 2) are clean; on (1, 2) the keys run A, B, B, A, so B repeats
        # first, while the first row of a repeated key would be (0, 0, 0) with (2, 0, 0)
        monkeypatch.setattr(verify, "_DENSE", dense)
        code = make_code(3, 3, [(0, 0, 0), (0, 1, 1), (1, 1, 1), (2, 0, 0)])
        report = is_t_determined(code, 2)
        assert report.witness.pair == ((0, 1, 1), (1, 1, 1))
        assert report.witness.positions == (1, 2)
        assert report.subsets_examined == 15
        assert (report.verdict, report.witness, report.subsets_examined) == (
            reference_t_determined(code, 2))

    def test_without_infinity_symbol(self):
        # no word has an infinity, and every position counts towards agreement
        assert is_t_determined(make_code(3, 3, [(0, 1, 2), (0, 2, 1), (1, 1, 1)]), 2).verdict
        report = is_t_determined(make_code(3, 3, [(0, 0, 1), (0, 0, 2)]), 2)
        assert not report.verdict and report.witness.positions == (0, 1)

    @given(st.one_of(codes_with_c(), codes_with_c(wide=True)), st.integers(1, 3))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matches_the_reference_without_infinity(self, case, t):
        code = case[0]
        report = is_t_determined(code, t)
        assert (report.verdict, report.witness, report.subsets_examined) == (
            reference_t_determined(code, t))

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            is_t_determined(base_code("q3"), 0)

    @given(st.one_of(starred_codes_with_t(), starred_codes_with_t(wide=True)))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_the_reference_loop(self, case):
        code, t = case
        report = is_t_determined(code, t)
        assert (report.verdict, report.witness, report.subsets_examined) == (
            reference_t_determined(code, t)
        )

    @given(st.one_of(starred_codes_with_t(), starred_codes_with_t(wide=True)))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_counting_and_sorting_give_the_same_report(self, case):
        code, t = case
        want = report_of(is_t_determined(code, t))
        assert want == reference_t_determined(code, t)
        # 0 bins per word sorts every t-set; narrow codes span at most 5**3 keys on
        # any t-set, so 5**3 bins per word counts every set
        for dense in [0] if code.q > 5 else [0, 5**3]:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verify, "_DENSE", dense)
                assert report_of(is_t_determined(code, t)) == want

    def test_plan_size_work_count(self):
        code = execute_steps(plan_code(3, 136).steps[:-1], 3)
        report = is_t_determined(code, 2)
        assert report.verdict
        assert report.subsets_examined == code.size * (1 + comb(5, 2))

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("cells", [None, 5 * 255])
    def test_first_agreement_at_chunk_boundaries(self, monkeypatch, wide, cells):
        # on the 255 words of the oa16 seed, the first failing position pair is the
        # last of a chunk, the first of the next one, or one inside a chunk; wide
        # symbols are ranked back to the seed's 16 and counted in the same chunks
        if cells is not None:
            monkeypatch.setattr(verify, "_CHUNK_CELLS", cells)
        sorts, repeated = [], verify._repeated
        monkeypatch.setattr(verify, "_repeated",
                            lambda keys, span: sorts.append(1) or repeated(keys, span))
        seed = oa_to_pt_code(build_oa_strength2(16))
        chunks = scan_chunks(17, seed.size, 2, seed.q**2)
        order = list(combinations(range(17), 2))
        for target in (chunks[0][-1], chunks[1][0], chunks[1][len(chunks[1]) // 2]):
            code = plant_agreement(seed, target)
            if wide:
                words, q, inf = widen(code.words, code.q, code.inf_id)
                code = make_code(code.length, q, words, inf_id=inf)
            report = is_t_determined(code, 2)
            expected = reference_t_determined(code, 2)
            assert (expected[2] - 1) // code.size - 1 == order.index(target)
            assert (report.verdict, report.witness, report.subsets_examined) == expected
        assert not sorts

    def test_a_star_anywhere_or_none_is_read_in_place(self, monkeypatch):
        # the oa16 seed with symbols 0 and 15 swapped has its star at q - 1, and the seed
        # read without a star counts its 0s as live: the counter reads both codes' own
        # columns, and clears the star's bins where the star stands
        tables = spy_on_first_over(monkeypatch)
        seed = oa_to_pt_code(build_oa_strength2(16))
        for code in (seed, plant_agreement(seed, (0, 5))):
            rows = np.where(code.array == 0, 15, np.where(code.array == 15, 0, code.array))
            for other in (make_code(code.length, code.q, rows, inf_id=15),
                          make_code(code.length, code.q, code.array)):
                report = is_t_determined(other, 2)
                assert report_of(report) == reference_t_determined(other, 2)
                assert np.shares_memory(tables.pop(), other.array)
        assert not report.verdict

    def test_a_star_at_zero_is_read_in_place(self, monkeypatch):
        # inf_id 0 needs no copy, even where a column's least live symbol is above 1:
        # its bins with a digit below that stay empty
        tables = spy_on_first_over(monkeypatch)
        seed = oa_to_pt_code(build_oa_strength2(5))
        for code in (seed, plant_agreement(seed, (0, 3))):
            rows = code.array.copy()
            rows[:, 2] = np.where(rows[:, 2] == 0, 0, rows[:, 2] + 3)  # live 4..7
            shifted = make_code(code.length, 8, rows, inf_id=0)
            report = is_t_determined(shifted, 2)
            assert report_of(report) == reference_t_determined(shifted, 2)
            assert np.shares_memory(tables.pop(), shifted.array)
        assert not report.verdict

    def test_a_short_code_is_counted_not_sorted(self, monkeypatch):
        # 2 words over 3 symbols key each position pair in 9 bins, more than 4 per word but
        # far fewer than a chunk holds: the pairs are counted in chunks, and none is sorted
        monkeypatch.setattr(verify, "_pack", lambda *args: pytest.fail("a set was sorted"))

        def two_words(length):
            return make_code(length, 3, [(0,) + (1,) * (length - 1), (2,) * length], inf_id=0)

        code = two_words(300)
        assert report_of(is_t_determined(code, 2)) == reference_t_determined(code, 2)
        assert augment_infinity(two_words(2000), 2, 2).size == 3

    def test_a_wide_short_code_is_ranked_then_counted(self, monkeypatch):
        # 1,995 symbols key each position pair in 3,980,025 bins, past a chunk's 65,536: the
        # code's 3 symbols, the star among them, are ranked, and the pairs counted in 9 bins
        monkeypatch.setattr(verify, "_repeated", lambda *args: pytest.fail("a set was sorted"))
        code = make_code(300, 1995, [(0,) + (997,) * 299, (1994,) * 300], inf_id=0)
        assert report_of(is_t_determined(code, 2)) == reference_t_determined(code, 2)
        # the oa16 seed with its 17 symbols written 2**40 apart, one word planted to agree
        # with another on a pair, ranks back to 17 symbols
        words, q, inf = widen(plant_agreement(oa_to_pt_code(build_oa_strength2(16)), (1, 5)).words,
                              17, 0)
        code = make_code(17, q, words, inf_id=inf)
        assert report_of(is_t_determined(code, 2)) == reference_t_determined(code, 2)

    def test_t_equal_one(self):
        # t=1: no infinity entries at all, and no agreement anywhere
        assert is_t_determined(make_code(3, 3, [(1, 2, 1), (2, 1, 2)], inf_id=0), 1).verdict
        report = is_t_determined(make_code(2, 3, [(1, 1), (1, 2)], inf_id=0), 1)
        assert not report.verdict and report.witness.kind == "agreement"


def spy_on_first_over(monkeypatch):
    """Make ``_first_over`` record each table it is given, in the list returned."""
    tables, first_over = [], verify._first_over
    monkeypatch.setattr(verify, "_first_over",
                        lambda table, *args: tables.append(table) or first_over(table, *args))
    return tables


@given(st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_first_over_matches_a_bincount_per_set(data):
    # chunks of about 1 .. 3n cells split the sets every few rows; the first set with a key
    # counted over most times is found by the bincount of its mixed-radix keys, the first
    # row most significant, over the columns holding no star on it.  Past _DENSE bins per
    # column and per chunk cell the sort answers, with no counts, and only for most = 1
    t = data.draw(st.integers(1, 3))
    n, width = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 5))
    chunk = data.draw(st.integers(1, 3 * n))
    row = st.lists(st.integers(0, width - 1), min_size=n, max_size=n)
    table = np.array(data.draw(st.lists(row, min_size=t, max_size=6)), dtype=np.int64)
    star = data.draw(st.none() | st.integers(0, width - 1))
    dense = width**t <= verify._DENSE * max(n, chunk)
    most = data.draw(st.integers(0, 3)) if dense else 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_CHUNK_CELLS", chunk)
        got = verify._first_over(table, width, t, most, star)
    want = None
    for rank, subset in enumerate(combinations(range(len(table)), t)):
        keys = sum(table[r] * width ** (t - 1 - i) for i, r in enumerate(subset))
        live = (table[list(subset)] != star).all(axis=0)  # every column when star is None
        counts = np.bincount(keys[live], minlength=width**t)
        if counts.max() > most:
            want = rank, subset, counts
            break
    if want is None:
        assert got is None
        return
    assert got[:2] == want[:2]
    if dense:
        assert np.array_equal(got[2], want[2]), want[1]
    else:
        assert got[2] is None


def plant_agreement(seed, target):
    """The oa16 seed with one symbol of one word changed, first agreeing on ``target``.

    Any two non-infinity entries of the seed pin down one word.  A word
    whose entry j changes then agrees with another word on (p, j) for
    every other non-infinity position p, so the first such pair is
    (0, j), or (1, j) for a word with its infinity at position 0.
    """
    first, j = target
    rows = seed.array.copy()
    x = np.flatnonzero(((rows[:, 0] == 0) == (first == 1)) & (rows[:, j] != 0))[0]
    rows[x, j] = rows[x, j] % (seed.q - 1) + 1
    return make_code(seed.length, seed.q, rows, inf_id=0)


class TestWideSymbols:
    @given(codes_with_c())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_oracle_reports_do_not_depend_on_symbol_values(self, case):
        # relabelling v -> v * 2**40 keeps each verdict, witness and count
        code, c = case
        words, q, _ = widen(code.words, code.q)
        wide = make_code(code.length, q, words)
        for oracle in (is_frameproof_naive, is_frameproof_cover):
            narrow, report = oracle(code, c), oracle(wide, c)
            assert (report.verdict, report.subsets_examined) == (
                narrow.verdict, narrow.subsets_examined)
            if not narrow.verdict:
                assert report.witness.framed_word == scale(narrow.witness.framed_word)
                assert report.witness.coalition == tuple(map(scale, narrow.witness.coalition))

    @given(starred_codes_with_t())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_t_determined_report_does_not_depend_on_symbol_values(self, case):
        # keys counted on narrow codes, and on wide ones once ranked: the same report
        code, t = case
        words, q, inf = widen(code.words, code.q, code.inf_id)
        narrow, report = is_t_determined(code, t), is_t_determined(
            make_code(code.length, q, words, inf_id=inf), t)
        assert (report.verdict, report.subsets_examined) == (
            narrow.verdict, narrow.subsets_examined)
        if not narrow.verdict:
            assert report.witness.kind == narrow.witness.kind
            assert report.witness.pair == tuple(map(scale, narrow.witness.pair))
            assert report.witness.positions == narrow.witness.positions


class TestSubsetKeys:
    @given(st.integers(0, 20000), st.integers(0, 20000), st.integers(0, 9),
           st.integers(-1, 2**2000))
    @example(10000, 5000, 3, 10**8)
    @example(8000, 4001, 1, 2**2000 - 1)
    @example(3841, 1920, 1, 10**8)  # e = 1920, just at the bound
    @example(3839, 1920, 1, 10**8)  # e = 1919, computed exactly
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exact_or_a_long_lower_bound_above_the_budget(self, k, t, n, budget):
        keys, exact = verify._subset_keys(k, t, n, budget), comb(k, t) * n
        assert keys == exact or (budget < keys < exact and keys.bit_length() > 1920)

    def test_a_wide_header_forms_no_long_count(self):
        # C(2**4000, 2**3999) * 4 has about 2**4000 bits; the bound has 1922
        assert verify._subset_keys(2**4000, 2**3999, 4, 10**8) == 4 << 1920
        assert verify._subset_keys(2**4000, 0, 4, 10**8) == 4
        assert verify._subset_keys(3, 4, 4, 10**8) == 0  # t > k: no subsets

    def test_no_runs_forms_no_count(self, monkeypatch):
        # C(2,000,000, 1,000,000) alone takes most of a minute to form
        monkeypatch.setattr(verify, "comb", None)
        assert verify._subset_keys(2_000_000, 1_000_000, 0, 10**8) == 0
