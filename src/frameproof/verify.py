"""Brute-force oracles for frameproofness and t-determinedness.

Two independent algorithms decide the frameproof property:

* :func:`is_frameproof_naive` enumerates every coalition of at most c
  codewords and intersects its descendant set with the code, over
  packed per-(position, symbol) bit rows, counting the coalitions of
  each size the budget admits before it scans them.  The k-word
  coalitions are scanned as blocks of (k-1)-word prefixes, ORed once,
  by a contiguous range of last words: each position costs one
  broadcast OR and one AND over a (words, prefixes, last words) block
  of at most 2**14 uint64 words;
* :func:`is_frameproof_cover` builds a projection index: for every
  proper non-empty position set S it marks the words whose projection
  onto S is shared with another word, keying S | {p} from S's keys.
  Dense sets are counted with one ``np.bincount`` (at most 4 bins per
  word, as in the subset counter) and sparse ones are sorted; the walk
  stops below a set with no repeat.  A word x can be framed exactly
  when at most c shared sets of x cover every position.  The cost is
  O(M * 2^l), metered in the index's nominal M * (2^l - 2) projections
  plus cover-search nodes, and the witness frames the smallest framable
  word.

They always agree; having both lets each one act as an oracle for the
other and for every construction in the package.

:func:`is_t_determined` and :func:`~frameproof.oa.verify_oa` share one
primitive, :func:`_subset_counts`: it reads each column's entries on a
set of t rows as the digits of one key in a single radix, the widest
column's, and counts the keys of many row sets with one ``np.add`` and
one ``np.bincount``.  ``is_t_determined`` reads the star as digit 0 and
counts only the bins with no 0 digit.  A code whose keys would span too
many bins has its t-sets sorted one set at a time by :func:`_repeated`,
the cover index's helper: ``codes._pack``, which also sorts
``make_code``'s rows, turns the rows' projections onto the set into
int64 keys that are equal exactly when the projections are, one
``codes._extend`` step per column, re-ranking with ``np.unique`` before
a product would pass 2**63, so symbols anywhere in the int64 range are
handled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb, prod

import numpy as np

from .codes import (BudgetExceeded, Code, Witness, _EXACT_BITS, _budget_gate, _check_count,
                    _extend, _pack)

NAIVE_BUDGET = 10**8
# The naive scan's first window holds about _FIRST_WINDOW uint64 words of subsets, and
# each later one twice the rows, up to _WINDOW_ROWS; each block it scans holds at most
# _BLOCK_WORDS words (128 kB).
_FIRST_WINDOW, _WINDOW_ROWS, _BLOCK_WORDS = 2**10, 2**16, 2**14
# _subset_counts counts about _CHUNK_CELLS (subset, column) keys per pass; keys spanning
# at most _DENSE bins per key are counted, and _repeated sorts wider ones.
_CHUNK_CELLS, _DENSE = 2**14, 4


@dataclass(frozen=True)
class VerifyReport:
    verdict: bool
    witness: Witness | None
    subsets_examined: int
    elapsed: float


def _symbol_masks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One packed bit row per (position, symbol) present, and each word's rows.

    ``masks[:, ids[pos, x]]`` has bit y set exactly when words x and y
    hold the same symbol at ``pos``.  The table is word-major, ceil(M/64)
    by n_sym uint64 words over all l positions, so the bit rows of a run
    of words, gathered along the last axis, lie contiguous in each word.
    """
    ids = np.empty(rows.T.shape, dtype=np.intp)
    count = 0
    for pos, column in enumerate(rows.T):
        symbols, inverse = np.unique(column, return_inverse=True)
        ids[pos] = inverse + count
        count += len(symbols)
    word = np.arange(len(rows))
    masks = np.zeros((-(-len(rows) // 64), count), dtype=np.uint64)
    np.bitwise_or.at(masks, (word >> 6, ids), np.uint64(1) << (word & 63).astype(np.uint64))
    return masks, ids


def _windows(big_m: int, k: int, count: int, words: int):
    """The first ``count`` k-subsets of range(M) as runs of rows, in lexicographic order.

    A row is a (k-1)-subset, the prefix; its subsets add a last member z
    from its first column, one past the prefix's largest member, to M - 1.
    A window is one read of consecutive rows from ``combinations``: about
    ``_FIRST_WINDOW`` words of subsets at first, then twice the rows of
    the one before, up to ``_WINDOW_ROWS``; rows starting past the budget
    are cut.  Yields ``(prefixes, firsts, ranks)``: the rows' (k-1, n)
    members, each row's first column and the rank of its first subset.
    """
    source = combinations(range(big_m), k - 1)
    end, n = 0, max(1, _FIRST_WINDOW // max(1, words * big_m))
    while end < count:  # end is the rank of the next row's first subset
        prefixes = np.fromiter(chain.from_iterable(islice(source, n)), np.intp).reshape(-1, k - 1).T
        widths = big_m - 1 - prefixes[-1]
        ranks = end + np.cumsum(widths) - widths
        cut = int(np.searchsorted(ranks, count))
        yield prefixes[:, :cut], big_m - widths[:cut], ranks[:cut]
        if len(widths) < n:
            return
        end = int(ranks[-1] + widths[-1])
        n = min(2 * n, _WINDOW_ROWS)


def _blocks(firsts: np.ndarray, ranks: np.ndarray, count: int, big_m: int, words: int):
    """A window's rows as blocks of at most ``_BLOCK_WORDS`` words: ``(rows, z0, z1)``.

    Rows are taken in order of first column, so rows sharing a first
    column share a block.  A block is a run of them times the columns
    z0 .. z1 - 1.  Rows that fit run from the first row's first column
    to M - 1; a row too wide for a block alone is cut into column
    chunks, none past the budget.
    """
    # rows ending at M - 1 have no subsets, and sort last
    order = np.argsort(firsts, kind="stable")[:np.count_nonzero(firsts < big_m)]
    i = 0
    while i < len(order):
        first = int(firsts[order[i]])
        fit = max(1, _BLOCK_WORDS // (words * (big_m - first)))
        step = max(1, _BLOCK_WORDS // (words * fit))
        # only a lone row is chunked: with more, step covers every column
        for z0 in range(first, min(big_m, first + count - int(ranks[order[i]])), step):
            yield order[i:i + fit], z0, min(big_m, z0 + step)
        i += fit


def _bit_rows(masks: np.ndarray, ids: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The bit rows of ``words`` at every position, (ceil(M/64), l, n), each word's own bit cleared.

    A word shares its own symbol at every position, so one XOR clears its bit.
    """
    rows = masks.take(ids.take(words, axis=1), axis=1)
    own = np.uint64(1) << (words & 63).astype(np.uint64)
    rows ^= ((np.arange(len(masks))[:, None] == words >> 6) * own)[:, None, :]
    return rows


def _block_framing(masks, ids, count, prefixes, firsts, ranks, z0, z1, buffers):
    """``(rank, members, framed)`` for the least rank framing in one block, or None.

    A row's prefix Q has its members' bit rows (:func:`_bit_rows`)
    gathered and ORed once per position.  For P = Q + {z}, the AND over
    positions of (Q's OR | column z's bit row) holds the words x that at
    every position share a symbol with a member of P other than x: the
    words P frames, and any member framed by the rest of P, which no
    smaller subset is, as its scan found none.  So each position costs
    one broadcast OR and one AND over the (words, rows, columns) block,
    and a cell frames a word exactly when a bit is left.
    A cell left of its row's first column holds the words framed by a
    subset of lower rank, met in this window or cleared before it, or,
    when z is in Q, by Q.  So one OR over the whole block clears it.
    """
    row_or = _bit_rows(masks, ids, prefixes[0])
    for member in prefixes[1:]:
        row_or |= _bit_rows(masks, ids, member)
    col = _bit_rows(masks, ids, np.arange(z0, z1))
    shape = (col.shape[0], prefixes.shape[1], z1 - z0)
    block, tmp = (buf[:prod(shape)].reshape(shape) for buf in buffers)
    np.bitwise_or(row_or[:, 0, :, None], col[:, 0, None, :], out=block)
    for pos in range(1, col.shape[1]):
        np.bitwise_or(row_or[:, pos, :, None], col[:, pos, None, :], out=tmp)
        block &= tmp
    if not np.bitwise_or.reduce(block, axis=None):
        return None
    z = np.arange(z0, z1)
    cell_ranks = ranks[:, None] + (z - firsts[:, None])
    hits = block.any(axis=0) & (z >= firsts[:, None]) & (cell_ranks < count)
    if not hits.any():
        return None
    r, j = np.unravel_index(np.argmin(np.where(hits, cell_ranks, count)), hits.shape)
    framed = int.from_bytes(block[:, r, j].astype("<u8").tobytes(), "little")
    return int(cell_ranks[r, j]), np.append(prefixes[:, r], z0 + j), (framed & -framed).bit_length() - 1


def _first_framing(masks: np.ndarray, ids: np.ndarray, k: int, count: int):
    """``(rank, members, framed)`` for the first framing among the first ``count`` k-subsets.

    No smaller subset may frame a word (the caller scans sizes in
    order); :func:`_block_framing` relies on it.  Every block of a
    window of :func:`_windows` is scanned, and the least rank framing
    among them is the first.  Returns None if none frames.
    """
    words, big_m = masks.shape[0], ids.shape[1]
    buffers = [np.empty(max(_BLOCK_WORDS, words), dtype=np.uint64) for _ in range(2)]
    for prefixes, firsts, ranks in _windows(big_m, k, count, words):
        hits = [_block_framing(masks, ids, count, prefixes[:, rows], firsts[rows], ranks[rows],
                               z0, z1, buffers)
                for rows, z0, z1 in _blocks(firsts, ranks, count, big_m, words)]
        hits = [hit for hit in hits if hit is not None]
        if hits:
            return min(hits, key=lambda hit: hit[0])
    return None


def is_frameproof_naive(code: Code, c: int, budget: int = NAIVE_BUDGET) -> VerifyReport:
    """Decide c-frameproofness by exhaustive coalition enumeration.

    For every subset P of at most c codewords, desc(P) & C is the AND
    over positions of the OR of P's bit rows, one packed uint64 row per
    (position, symbol) present, and it must be P itself.  Subsets of each
    size k are scanned in lexicographic order of word index, in windows
    of consecutive (k-1)-word prefixes: about 2**10 words of subsets at
    first, then twice the prefixes of the window before, up to 2**16.  A
    window is cut into blocks of prefixes by a contiguous range of last
    words z; a prefix's bit rows are ORed once, and each position costs
    one broadcast OR and one AND over the (ceil(M/64), prefixes, z)
    block.  Memory is ceil(M/64) words per (position, symbol) present,
    (k-1) * 2**16 prefix members per window and, per block, two buffers
    of at most 2**14 words (128 kB) and three gathers of at most l *
    2**14 words each (the prefixes' OR, one member's bit rows, the
    columns' bit rows): (3l + 2) * 2**14 words, 3.7 MB at l = 9.  The
    least ranked framing in a window is the first offending (P, x), x
    the least framed word, so reports are deterministic and a framing
    near the start is found after a few small blocks.  Work is metered
    in (subset, candidate) pairs, M - k per subset of size k; the
    subsets of a size that fit are counted before it is scanned (a
    budget spent on singletons builds no bit rows), and the first subset
    past ``budget`` raises :class:`BudgetExceeded`.
    """
    c, budget = _check_count("c", c, 2), _check_count("budget", budget, None)
    start = time.perf_counter()
    rows, big_m = code.array, code.size
    masks = ids = None
    examined, left = 0, budget
    for k in range(1, min(c, big_m) + 1):
        per_subset, total = big_m - k, comb(big_m, k)
        fits = left // per_subset if per_subset else (total if left >= 0 else 0)
        count = max(0, min(total, fits))
        left -= count * per_subset
        # a single word frames no other, and the whole code leaves no word to frame
        if 1 < k < big_m and count:
            if masks is None:
                masks, ids = _symbol_masks(rows)
            hit = _first_framing(masks, ids, k, count)
            if hit is not None:
                rank, members, framed = hit
                coalition = tuple(map(tuple, rows[members].tolist()))
                witness = Witness(kind="framed", coalition=coalition,
                                  framed_word=tuple(rows[framed].tolist()))
                return VerifyReport(False, witness, examined + rank + 1,
                                    time.perf_counter() - start)
        examined += count
        if count < total:
            raise BudgetExceeded(f"naive verification budget of {budget} (subset, candidate) "
                                 f"pairs exceeded after {examined} subsets", examined=examined)
    return VerifyReport(True, None, examined, time.perf_counter() - start)


def _maximal_sets(pattern: int, length: int) -> list[int]:
    """The maximal sets among the proper non-empty sets in the bitset ``pattern``, in order.

    Bit S of ``(pattern >> 2**p) & lacks_p``, lacks_p holding the sets
    without p, is set when S | {p} is in ``pattern``: l shifts find
    every set with a superset one position larger.
    """
    full = (1 << length) - 1
    every = (1 << (full + 1)) - 1  # all 2^l sets
    blocked = 0
    for p in range(length):
        # runs of 2^p sets without p, then 2^p with it
        lacks = every // ((1 << (2 << p)) - 1) * ((1 << (1 << p)) - 1)
        blocked |= (pattern >> (1 << p)) & lacks
    rest = pattern & ~blocked & (every ^ 1 ^ 1 << full)  # neither the empty nor the full set
    sets = []
    while rest:
        low = rest & -rest
        sets.append(low.bit_length() - 1)
        rest ^= low
    return sets


def _cover(shared: int, length: int, c: int, meter: list[int]) -> tuple[int, ...] | None:
    """At most c maximal sets among those in the bitset ``shared`` that cover [l].

    Shared sets are closed under subsets, so a cover needs only the maximal
    ones.  ``meter`` is ``[work done, budget]``; each search node adds one.
    """
    full = (1 << length) - 1
    masks = _maximal_sets(shared, length)
    by_pos = [[m for m in masks if (m >> pos) & 1] for pos in range(length)]
    chosen: list[int] = []

    def dfs(covered: int) -> bool:
        meter[0] += 1
        if meter[0] > meter[1]:
            raise BudgetExceeded(
                f"cover verification budget of {meter[1]} exceeded", examined=meter[0] - 1
            )
        if covered == full:
            return True
        if len(chosen) == c:
            return False
        open_ = ~covered & full
        for m in by_pos[(open_ & -open_).bit_length() - 1]:
            chosen.append(m)
            if dfs(covered | m):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if dfs(0) else None


def _repeated(keys: np.ndarray, span: int) -> np.ndarray:
    """Per key, in order, whether it occurs more than once; keys lie in 0 .. span - 1.

    Keys spanning at most ``_DENSE`` bins per key are counted with one
    ``np.bincount``; wider ones are sorted, and adjacent equal keys are
    the repeats.
    """
    if span <= _DENSE * len(keys):
        return np.bincount(keys, minlength=span)[keys] > 1
    order = keys.argsort()
    ranked = keys[order]
    dup = ranked[1:] == ranked[:-1]
    flags = np.zeros(len(keys), dtype=bool)
    flags[1:] = dup
    flags[:-1] |= dup
    repeated = np.empty_like(flags)
    repeated[order] = flags
    return repeated


def _shared_sets(cols: np.ndarray, widths: list[int], shared: np.ndarray, mask: int,
                 keys: np.ndarray, span: int) -> None:
    """Set bit S of ``shared`` for each word repeating its projection onto a proper S above ``mask``.

    Depth first: S | {p}, p above S's highest position, is S's keys plus
    one ``_extend`` step on column p, entries 0 .. widths[p] - 1.  A set
    on which no projection repeats has no superset on which one does, so
    the walk stops below it.
    """
    for p in range(mask.bit_length(), len(widths)):
        sub = mask | 1 << p
        if sub == (1 << len(widths)) - 1:  # every set but the full one
            continue
        sub_keys, sub_span = _extend(keys, span, cols[:, p], 0, widths[p])
        repeated = _repeated(sub_keys, sub_span)
        if repeated.any():
            shared[:, sub >> 6] |= repeated.astype(np.uint64) << np.uint64(sub & 63)
            _shared_sets(cols, widths, shared, sub, sub_keys, sub_span)


def is_frameproof_cover(code: Code, c: int, budget: int = NAIVE_BUDGET) -> VerifyReport:
    """Decide c-frameproofness with a projection index and a set-cover search.

    A position set S is shared for x when some word y != x has x's
    projection onto S.  x can be framed by at most c words exactly when at
    most c shared sets cover every position.  The index takes M
    projections for each of the 2^l - 2 proper non-empty S, O(M * 2^l) in
    all: a depth-first walk keys each S | {p}, p above S's highest
    position, from S's keys by one ``_extend`` step.  Keys spanning at
    most 4 bins per word are counted with one ``np.bincount``, as in the
    subset counter, and wider ones are sorted; the repeats set bit S of
    one packed bit row per word.  A projection unique on S is unique on
    every superset, so the walk stops below a set with no repeat, but
    ``subsets_examined`` still counts the nominal M * (2^l - 2)
    projections.  One 1-D ``np.unique`` of those rows' packed keys finds
    the distinct patterns, and the depth-<=c search over maximal shared
    sets, found by l shifts of the pattern, runs once per pattern, in the
    order of each pattern's first word, so the witness frames the
    smallest framable word, with the first word in sort order sharing
    each chosen set as its coalition.
    Work is metered in projections plus search nodes, reported as
    ``subsets_examined``; an index larger than ``budget`` is refused
    before it is built, and either way :class:`BudgetExceeded` is raised.
    """
    c, budget = _check_count("c", c, 2), _check_count("budget", budget, None)
    start = time.perf_counter()
    rows = code.array
    big_m = len(rows)
    full = (1 << code.length) - 1
    meter = [big_m * (full - 1), budget]
    _budget_gate(budget, "cover's index takes M*(2^l-2)", meter[0], "projections")
    # per word, the bitset of its shared sets: bit S of row x is set when
    # x's projection onto S occurs more than once (never, with fewer than two
    # words); stored column-major, as the walk fills it one column at a time
    shared = np.zeros(((full >> 6) + 1, big_m), dtype=np.uint64).T
    if big_m > 1:
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        widths = [b - a + 1 for a, b in zip(lo.tolist(), hi.tolist())]
        cols = rows - lo if lo.any() else rows
        _shared_sets(cols, widths, shared, 0, np.zeros(big_m, dtype=np.int64), 1)
    # one cover search per distinct pattern, met in word order
    firsts = np.unique(_pack(shared.view(np.int64), range(shared.shape[1])), return_index=True)[1]
    for x in np.sort(firsts).tolist():
        pattern = int.from_bytes(shared[x].astype("<u8").tobytes(), "little")
        cover = _cover(pattern, code.length, c, meter)
        if cover is None:
            continue
        coalition = set()
        for mask in cover:
            keys = _pack(rows, [pos for pos in range(code.length) if mask >> pos & 1])
            y = next(y for y in np.flatnonzero(keys == keys[x]).tolist() if y != x)
            coalition.add(tuple(rows[y].tolist()))
        witness = Witness(kind="framed", coalition=tuple(sorted(coalition)),
                          framed_word=tuple(rows[x].tolist()))
        return VerifyReport(False, witness, meter[0], time.perf_counter() - start)
    return VerifyReport(True, None, meter[0], time.perf_counter() - start)


def _subset_keys(k: int, t: int, n: int, budget: int) -> int:
    """C(k, t) * n, the keys :func:`_subset_counts` counts in a (k, n) table, or a lower bound.

    For m = min(t, k - t), C(k, t) >= (k // m)**m >= 2**e, e read from bit lengths.  Once e
    reaches b, the larger of ``budget``'s bit length and ``_EXACT_BITS``, it returns n << b:
    above the budget, and too long for ``_budget_gate`` to show but as a bound.  Otherwise
    C(k, t) < 2**(e + 2.45 m) <= 2**(3.45 b): no count far past b bits is formed.
    """
    m, bits = min(t, k - t), max(budget.bit_length(), _EXACT_BITS)
    if n and m > 0 and m * ((k // m).bit_length() - 1) >= bits:
        return n << bits
    return comb(k, t) * n


def _subset_counts(table: np.ndarray, width: int, t: int):
    """Count the keys of many t-subsets of the rows of ``table`` per numpy pass.

    ``table`` is ``(rows, n)``, its entries in 0 .. width - 1.  A column's
    key in a subset S of rows reads its entries on S as base-``width``
    digits, the first row most significant, so each subset gets ``span``
    = width**t bins, which the caller keeps within ``_DENSE`` bins per
    column.  Subsets come in ``combinations`` order, in chunks that share
    all rows but the last, of about ``_CHUNK_CELLS`` (subset, column)
    cells or one subset.  When a chunk holds more than one subset, row r
    is offset by r * span once per call, so that a chunk's i-th subset
    counts from i * span on; a chunk's keys are then one ``np.add`` of
    its prefix's key to a slice of the rows, into one reused buffer.
    Yields ``(subsets, counts)`` per chunk, ``counts[i, key]`` the columns
    with ``key`` in ``subsets[i]``, from one ``np.bincount``.
    """
    rows, n = table.shape
    span = width**t
    per = max(1, _CHUNK_CELLS // max(n, 1))
    # the rows a chunk ends its subsets with: row r counts from r * span on, and a chunk
    # from row a takes a * span off its prefix's key
    shift = span if per > 1 else 0
    last = np.add(table, np.arange(rows)[:, None] * shift, order="C") if shift else table
    buf = np.empty((min(per, rows), n), dtype=np.int64)
    for prefix in combinations(range(rows), t - 1):
        # the prefix's digits, shared by the whole run, with room for the last row's
        head = table[prefix[0]] * width if prefix else 0
        for r in prefix[1:]:
            head = (head + table[r]) * width
        for a in range(prefix[-1] + 1 if prefix else 0, rows, per):
            b = min(rows, a + per)
            keys = buf[:b - a]
            np.add(last[a:b], head - a * shift if shift else head, out=keys)
            yield ([(*prefix, r) for r in range(a, b)],
                   np.bincount(keys.reshape(-1), minlength=(b - a) * span).reshape(-1, span))


def _first_live_repeat(counts: np.ndarray, width: int, t: int) -> int | None:
    """The first subset of ``counts`` with a key counted twice among those with no 0 digit, or None.

    A 0 digit is a star in the subset, so those bins are cleared first.
    """
    bins = counts.reshape(-1, *[width] * t)
    for axis in range(1, t + 1):
        bins[(slice(None),) * axis + (0,)] = 0
    if counts.max() <= 1:
        return None
    return int(np.argmax(counts > 1)) // width**t


def is_t_determined(code: Code, t: int) -> VerifyReport:
    """Check that any t non-infinity coordinates pin down a codeword.

    Concretely: (a) every word carries at most t-1 infinity entries, and
    (b) no two distinct words agree in t or more positions where both
    are non-infinity.  Clause (a) counts each row's infinity entries.
    Without an infinity symbol (``inf_id`` None), (a) holds and (b)
    counts every position.
    For clause (b) the sets S of t positions are taken in chunks by
    :func:`_subset_counts`: every row gets one key on S, offset per S,
    and one ``np.bincount`` over the chunk counts them.  The keys' digits
    read the star as 0 and live symbols as 1 and up (with the star at 0
    the rows are read in place, otherwise from one remapped copy), so the
    bins with no 0 digit hold the rows with no infinity in S, and one
    there counted twice is a failing S.  That is O(C(l, t) * M) counting.
    When the radix, the widest column's, to the t-th power passes
    ``_DENSE`` bins per word, the symbols are too wide or sparse to
    count, and each S in turn has its keys packed and sorted by
    :func:`_repeated`.  On the first failing S, ``np.unique``'s
    first occurrences give the witness: the first word, in sort order,
    that repeats a projection, paired with the first word that had it.
    Work is counted in words examined, reported as ``subsets_examined``:
    M for clause (a), then M per t-subset, or, on a violation, up to and
    including the offending word.
    """
    inf = code.inf_id
    t = _check_count("t", t, 1)
    start = time.perf_counter()
    rows = code.array
    big_m = len(rows)
    stars = rows == inf  # all False without an infinity symbol
    over = np.flatnonzero(stars.sum(axis=1, dtype=np.min_scalar_type(code.length)) >= t)
    if over.size:
        idx = int(over[0])
        witness = Witness(kind="inf_count", pair=(tuple(rows[idx].tolist()),),
                          positions=tuple(np.flatnonzero(stars[idx]).tolist()))
        return VerifyReport(False, witness, idx + 1, time.perf_counter() - start)
    if not big_m:
        return VerifyReport(True, None, 0, time.perf_counter() - start)
    # the star reads digit 0 and live symbols 1 and up: a star at 0 is read as it is, no
    # star shifts every symbol up one, and a star k > 0 reads 0 and the symbols below it move up
    hi = int(rows.max())
    width = hi + 2 if inf is None else max(hi, inf) + 1
    span = width**t
    # per chunk of t-sets, the index of its first set holding a live key twice, or None
    if span <= _DENSE * big_m:
        table = rows.T
        if inf is None:
            table = table + 1
        elif inf:
            table = table + (table < inf)
            table[stars.T] = 0
        chunks = ((subsets, _first_live_repeat(counts, width, t))
                  for subsets, counts in _subset_counts(table, width, t))
    else:
        chunks = (([s], 0 if _repeated(_pack(rows, s)[~stars[:, s].any(axis=1)], span).any() else None)
                  for s in combinations(range(code.length), t))
    checks = big_m
    for subsets, bad in chunks:
        if bad is None:
            checks += big_m * len(subsets)
            continue
        subset = subsets[bad]
        checks += big_m * bad
        where = np.flatnonzero(~stars[:, subset].any(axis=1))
        # first[i] is the least live row with row i's key: the least row with an
        # earlier one is the first repeat, and that earlier row is its partner
        _, first, inverse = np.unique(_pack(rows, subset)[where], return_index=True,
                                      return_inverse=True)
        first = first[inverse]
        later = int(np.argmax(first < np.arange(len(first))))
        x, y = rows[where[first[later]]], rows[where[later]]
        witness = Witness(kind="agreement", pair=(tuple(x.tolist()), tuple(y.tolist())),
                          positions=tuple(np.flatnonzero((x == y) & (y != inf)).tolist()))
        return VerifyReport(False, witness, checks + int(where[later]) + 1,
                            time.perf_counter() - start)
    return VerifyReport(True, None, checks, time.perf_counter() - start)


def lemma_t(length: int, c: int, starred: bool) -> int:
    """The largest t with (t-1)(c + starred) < length; construct's ``_admit`` refuses t above it.

    Lemma: a t-determined code with at most k infinities per word (k =
    t-1 if starred, else 0) is c-frameproof when c(t-1) + k < l, since c
    words other than x share at most c(t-1) of x's l - k or more
    non-infinity positions.  An adjoined all-infinity word shares none,
    and c words hold at most c(t-1) < l infinities, too few to frame it.
    """
    return (length - 1) // (c + starred) + 1
