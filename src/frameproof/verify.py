"""Brute-force oracles for frameproofness and t-determinedness.

Two independent algorithms decide the frameproof property:

* :func:`is_frameproof_naive` enumerates every coalition of at most c
  codewords and intersects its descendant set with the code, in numpy
  chunks over packed per-(position, symbol) bit rows, counting the
  coalitions of each size the budget admits before it scans them;
* :func:`is_frameproof_cover` builds a projection index: for every
  proper non-empty position set S it marks the words whose projection
  onto S is shared with another word, keying S | {p} from S's keys.  A
  word x can be framed exactly when at most c shared sets of x cover
  every position.  The cost is O(M * 2^l), metered in projections plus
  cover-search nodes, and the witness frames the smallest framable word.

They always agree; having both lets each one act as an oracle for the
other and for every construction in the package.

:func:`is_t_determined` and :func:`~frameproof.oa.verify_oa` share one
primitive, :func:`_subset_counts`: it reads each column's entries on a
set of t rows as one mixed-radix key, weighting each row by its actual
symbol range, and counts the keys of many row sets with one
``np.bincount``.  When the keys would span too many bins, the checker
sorts instead with ``codes._pack``, which also sorts ``make_code``'s
rows: one ``codes._extend`` step per column (the cover index's step)
turns the rows' projections onto a position set into int64 keys that
are equal exactly when the projections are, re-ranking with
``np.unique`` before a product would pass 2**63, so symbols anywhere in
the int64 range are handled.  A sort puts equal keys next to each
other, and one compare of adjacent keys finds every repeat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod

import numpy as np

from .codes import BudgetExceeded, Code, Witness, _extend, _pack

NAIVE_BUDGET = 10**8
# Coalition chunks grow from _FIRST_CHUNK to _LAST_CHUNK rows, and the masks a
# chunk gathers at one position never exceed _CHUNK_WORDS words (512 kB).
_FIRST_CHUNK, _LAST_CHUNK, _CHUNK_WORDS = 256, 2048, 2**16
_COUNT_CAP = 2**62  # subset counts saturate here
# _subset_counts counts about _CHUNK_CELLS (subset, column) keys per pass, and leaves
# the sorting to its caller when a subset's keys span more than _DENSE bins per column.
_CHUNK_CELLS, _DENSE = 2**14, 4


@dataclass(frozen=True)
class VerifyReport:
    verdict: bool
    witness: Witness | None
    subsets_examined: int
    elapsed: float


def _symbol_masks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One packed bit row per (position, symbol) present, and each word's rows.

    ``masks[ids[pos, x]]`` has bit y set exactly when words x and y hold
    the same symbol at ``pos``: l * n_sym * ceil(M/64) uint64 words.
    """
    ids = np.empty(rows.T.shape, dtype=np.intp)
    count = 0
    for pos, column in enumerate(rows.T):
        symbols, inverse = np.unique(column, return_inverse=True)
        ids[pos] = inverse + count
        count += len(symbols)
    word = np.arange(len(rows))
    masks = np.zeros((count, -(-len(rows) // 64)), dtype=np.uint64)
    np.bitwise_or.at(masks, (ids, word >> 6), np.uint64(1) << (word & 63).astype(np.uint64))
    return masks, ids


def _capped_cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums of int64 ``x`` (entries in 0..2**62), exact below 2**62 and 2**62 from there on.

    A sum first reaching 2**62 adds at most 2**62 to one below it, so it
    is found before any int64 wrap.
    """
    out = np.cumsum(x)
    over = out >= _COUNT_CAP
    if over.any():
        out[over.argmax():] = _COUNT_CAP
    return out


def _unranking_tables(big_m: int, k: int) -> dict[int, np.ndarray]:
    """``below[j][b]``, j = 1..k: the j-subsets of range(M) whose least element is under b.

    That is the sum of C(M-1-i, j-1) over i < b.  The binomial columns
    come from Pascal's rule, C(n, j) = sum of C(n', j-1) over n' < n, as
    running sums capped at 2**62, past any rank a scan can reach.
    """
    col = np.ones(big_m, dtype=np.int64)  # C(n, 0) for n = 0..M-1
    below = {}
    for j in range(1, k + 1):
        below[j] = np.concatenate(([0], _capped_cumsum(col[::-1])))
        col[1:] = _capped_cumsum(col[:-1])
        col[:1] = 0
    return below


def _first_framing(masks: np.ndarray, ids: np.ndarray, k: int, count: int):
    """``(rank, members, framed)`` for the first framing among the first ``count`` k-subsets.

    Each chunk of coalitions is unranked from its offset with the tables
    of :func:`_unranking_tables`: one searchsorted per slot gives each
    member.  Returns None if none frames.
    """
    below = _unranking_tables(ids.shape[1], k)
    cap = max(1, min(_LAST_CHUNK, _CHUNK_WORDS // (k * masks.shape[1])))
    start, size = 0, _FIRST_CHUNK
    while start < count:
        stop = min(count, start + min(size, cap))
        rank, low = np.arange(start, stop), 0
        members = np.empty((k, stop - start), dtype=np.intp)
        for slot in range(k):
            table = below[k - slot]
            skipped = table[low]
            members[slot] = np.searchsorted(table, rank + skipped, side="right") - 1
            rank = rank - (table[members[slot]] - skipped)
            low = members[slot] + 1
        # desc(P) & C: OR the members' masks at each position, AND the positions;
        # it always holds P, so more than k bits means P frames a word
        held = np.full((stop - start, masks.shape[1]), ~np.uint64(0))
        for row in ids:
            held &= np.bitwise_or.reduce(np.take(masks, np.take(row, members), axis=0), axis=0)
        framing = np.flatnonzero(np.bitwise_count(held).sum(axis=1) > k)
        if framing.size:
            first = int(framing[0])
            extra = int.from_bytes(held[first].astype("<u8").tobytes(), "little")
            extra &= ~sum(1 << y for y in members[:, first].tolist())
            return start + first, members[:, first], (extra & -extra).bit_length() - 1
        start, size = stop, size * 2
    return None


def is_frameproof_naive(code: Code, c: int, budget: int = NAIVE_BUDGET) -> VerifyReport:
    """Decide c-frameproofness by exhaustive coalition enumeration.

    For every subset P of at most c codewords, desc(P) & C is the AND
    over positions of the OR of P's bit rows, one packed uint64 row per
    (position, symbol) present, and it must be P itself.  Subsets of each
    size are visited in lexicographic order of word index, in chunks of
    at most 2,048 unranked from their offset; memory is the rows'
    l * n_sym * ceil(M/64) words plus one chunk (512 kB per position).
    The first offending (P, x), x the least framed word, is returned, so
    reports are deterministic.  Work is metered in (subset, candidate)
    pairs, M - k per subset of size k; the subsets of a size that fit are
    counted before it is scanned (a budget spent on singletons builds no
    table), and the first subset past ``budget`` raises :class:`BudgetExceeded`.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
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


def _cover(shared: int, length: int, c: int, meter: list[int]) -> tuple[int, ...] | None:
    """At most c maximal sets among those in the bitset ``shared`` that cover [l].

    Shared sets are closed under subsets, so a cover needs only the maximal
    ones.  ``meter`` is ``[work done, budget]``; each search node adds one.
    """
    full = (1 << length) - 1
    masks = [m for m in range(1, full) if (shared >> m) & 1 and not any(
        (shared >> (m | 1 << pos)) & 1 for pos in range(length) if not (m >> pos) & 1)]
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


def _projection_keys(cols: np.ndarray, widths: list[int], mask: int, keys: np.ndarray, span: int):
    """Yield ``(S, _pack's keys on S)`` for each proper S = ``mask`` + higher positions."""
    for p in range(mask.bit_length(), len(widths)):
        sub = mask | 1 << p
        if sub < (1 << len(widths)) - 1:  # every set but the full one
            # depth first: S | {p} is S's keys plus a step on column p, entries 0 .. widths[p] - 1
            sub_keys, sub_span = _extend(keys, span, cols[:, p], 0, widths[p])
            yield sub, sub_keys
            yield from _projection_keys(cols, widths, sub, sub_keys, sub_span)


def is_frameproof_cover(code: Code, c: int, budget: int = NAIVE_BUDGET) -> VerifyReport:
    """Decide c-frameproofness with a projection index and a set-cover search.

    A position set S is shared for x when some word y != x has x's
    projection onto S.  x can be framed by at most c words exactly when at
    most c shared sets cover every position.  The index takes M
    projections for each of the 2^l - 2 proper non-empty S, O(M * 2^l) in
    all: a depth-first walk keys each S | {p}, p above S's highest
    position, from S's keys by one ``_extend`` step; the keys are sorted
    and adjacent equal keys mark shared projections, into one packed bit
    row per word.  One 1-D ``np.unique`` of those rows' packed keys finds
    the distinct patterns, and the depth-<=c search over maximal shared
    sets runs once per pattern, in the order of each pattern's first
    word, so the witness frames the smallest framable word, with the
    first word in sort order sharing each chosen set as its coalition.
    Work is metered in projections plus search nodes, reported as
    ``subsets_examined``; an index larger than ``budget`` is refused
    before it is built, and either way :class:`BudgetExceeded` is raised.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
    start = time.perf_counter()
    rows = code.array
    big_m = len(rows)
    full = (1 << code.length) - 1
    meter = [big_m * (full - 1), budget]
    if meter[0] > budget:
        raise BudgetExceeded(f"cover verification budget of {budget} is below the "
                             f"{meter[0]} projections of the index", examined=0)
    # per word, the bitset of its shared sets: bit S of row x is set when
    # x's projection onto S occurs more than once (never, with fewer than two words)
    shared = np.zeros((big_m, (full >> 6) + 1), dtype=np.uint64)
    if big_m > 1:
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        widths = [b - a + 1 for a, b in zip(lo.tolist(), hi.tolist())]
        cols = rows - lo if lo.any() else rows
        for mask, keys in _projection_keys(cols, widths, 0, np.zeros(big_m, dtype=np.int64), 1):
            order = keys.argsort()
            keys = keys[order]
            repeated = np.zeros(big_m, dtype=bool)
            dup = keys[1:] == keys[:-1]
            repeated[1:] = dup
            repeated[:-1] |= dup
            shared[order[repeated], mask >> 6] |= np.uint64(1 << (mask & 63))
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


def _subset_counts(table: np.ndarray, lo: np.ndarray, widths: list[int], t: int, dead=None):
    """Count the keys of many t-subsets of the rows of ``table`` per numpy pass.

    ``table`` is ``(rows, n)``, row r holding entries in lo[r] .. lo[r] +
    widths[r] - 1.  A column's key in a subset S of rows reads its
    entries on S in mixed radix, the first row most significant and each
    row weighted by its width; it is dropped where ``dead`` holds on
    any row of S.  Each subset gets ``span`` bins, the product of the t
    largest widths (Python ints, so it cannot overflow).  Subsets come
    in ``combinations`` order, in chunks that share all rows but the
    last, of about ``_CHUNK_CELLS`` (subset, column) cells or one subset:
    a chunk's last rows are one slice of ``table``, so nothing is
    gathered.  Yields
    ``(subsets, counts)`` per chunk, ``counts[i, key]`` the columns with
    ``key`` in ``subsets[i]``, from one ``np.bincount``.  When ``span``
    passes ``_DENSE`` bins per column, counts is None and the caller
    sorts instead.
    """
    rows, n = table.shape
    span = prod(sorted(widths)[-t:])
    dense = span <= _DENSE * n
    if dense:
        table = table - lo[:, None] if lo.any() else table
        weight = np.array(widths, dtype=np.int64)[:, None]
    per = max(1, _CHUNK_CELLS // max(n, 1))
    # a chunk's i-th subset counts its keys from i * span on
    starts = np.repeat(np.arange(per) * span, n).reshape(per, n) if dense and per > 1 else None
    for prefix in combinations(range(rows), t - 1):
        if dense:
            # the prefix's keys, and its columns dropped, are shared by the whole run
            head = table[prefix[0]] if prefix else np.zeros(n, dtype=np.int64)
            for r in prefix[1:]:
                head = head * weight[r] + table[r]
            gone = None if dead is None else np.logical_or.reduce(dead[list(prefix)], axis=0)
        for a in range(prefix[-1] + 1 if prefix else 0, rows, per):
            b = min(rows, a + per)
            subsets = [(*prefix, r) for r in range(a, b)]
            if not dense:
                yield subsets, None
                continue
            keys = weight[a:b] * head
            keys += table[a:b]
            if b - a > 1:
                keys += starts[:b - a]
            if dead is not None:
                keys = keys[~(dead[a:b] | gone)]
            yield subsets, np.bincount(keys.reshape(-1), minlength=(b - a) * span).reshape(-1, span)


def _live_keys(rows: np.ndarray, stars: np.ndarray, subset) -> tuple[np.ndarray, np.ndarray]:
    """The rows with no infinity on ``subset``, and their packed keys on it."""
    valid = ~stars[:, subset].any(axis=1)
    return valid, _pack(rows, subset)[valid]


def _repeats(keys: np.ndarray) -> bool:
    ranked = np.sort(keys)
    return bool((ranked[1:] == ranked[:-1]).any())


def is_t_determined(code: Code, t: int) -> VerifyReport:
    """Check that any t non-infinity coordinates pin down a codeword.

    Concretely: (a) every word carries at most t-1 infinity entries, and
    (b) no two distinct words agree in t or more positions where both
    are non-infinity.  Clause (a) counts each row's infinity entries.
    For clause (b) the sets S of t positions are taken in chunks: the
    rows with no infinity in S get one key each on S, offset per S, and
    one ``np.bincount`` over the chunk finds every S holding a key twice.
    That is O(C(l, t) * M) counting.  A chunk whose symbols are too wide
    or sparse to count packs each S's keys instead, sorts them and
    compares neighbours.  Only the first failing S is argsorted stably,
    so the witness is the first word, in sort order, that repeats a
    projection, paired with the first word that had it.  Work is counted
    in words examined, reported as ``subsets_examined``: M for clause
    (a), then M per t-subset, or, on a violation, up to and including
    the offending word.
    """
    inf = code.inf_id
    if inf is None:
        raise ValueError("code has no infinity symbol")
    if t < 1:
        raise ValueError("t must be at least 1")
    start = time.perf_counter()
    rows = code.array
    big_m = len(rows)
    stars = rows == inf
    over = np.flatnonzero(stars.sum(axis=1) >= t)
    if over.size:
        idx = int(over[0])
        witness = Witness(kind="inf_count", pair=(tuple(rows[idx].tolist()),),
                          positions=tuple(np.flatnonzero(stars[idx]).tolist()))
        return VerifyReport(False, witness, idx + 1, time.perf_counter() - start)
    if not big_m:
        return VerifyReport(True, None, 0, time.perf_counter() - start)
    lo, hi = rows.min(axis=0), rows.max(axis=0)
    widths = [b - a + 1 for a, b in zip(lo.tolist(), hi.tolist())]
    dead = stars.T if stars.any() else None
    checks = big_m
    for subsets, counts in _subset_counts(rows.T, lo, widths, t, dead):
        if counts is None:
            bad = next((i for i, subset in enumerate(subsets)
                        if _repeats(_live_keys(rows, stars, subset)[1])), None)
        else:
            bad = int(np.argmax(counts > 1)) // counts.shape[1] if counts.max() > 1 else None
        if bad is None:
            checks += big_m * len(subsets)
            continue
        subset = subsets[bad]
        checks += big_m * bad
        valid, keys = _live_keys(rows, stars, subset)
        # a stable argsort keeps equal keys in word order: the least row that
        # repeats a key is the first repeat, and its run starts with the earlier word
        where, order = np.flatnonzero(valid), keys.argsort(kind="stable")
        ranked = keys[order]
        later = order[1:][ranked[1:] == ranked[:-1]].min()
        x, y = rows[where[order[np.searchsorted(ranked, keys[later])]]], rows[where[later]]
        witness = Witness(kind="agreement", pair=(tuple(x.tolist()), tuple(y.tolist())),
                          positions=tuple(np.flatnonzero((x == y) & (y != inf)).tolist()))
        return VerifyReport(False, witness, checks + int(where[later]) + 1,
                            time.perf_counter() - start)
    return VerifyReport(True, None, checks, time.perf_counter() - start)
