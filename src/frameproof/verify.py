"""Brute-force oracles for frameproofness and t-determinedness.

Two independent algorithms decide the frameproof property:

* :func:`is_frameproof_naive` enumerates every coalition of at most c
  codewords and intersects its descendant set with the code;
* :func:`is_frameproof_cover` builds a projection index: for every
  proper non-empty position set S it marks the words whose projection
  onto S is shared with another word.  A word x can be framed exactly
  when at most c shared sets of x cover every position.  The cost is
  O(M * 2^l), metered in projections plus cover-search nodes, and the
  witness frames the smallest framable word.

They always agree; having both lets each one act as an oracle for the
other and for every construction in the package.

The cover index and :func:`is_t_determined` share one primitive,
``codes._pack`` (which also sorts :func:`~frameproof.codes.make_code`'s
rows): it turns the rows' projections onto a position set into int64
keys that are equal exactly when the projections are.  A sort then puts
equal keys next to each other, and one compare of adjacent keys finds
every repeat.  Keys weight each column by its actual symbol range, and
re-rank with ``np.unique`` before a product would pass 2**63, so symbols
anywhere in the int64 range are handled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .codes import BudgetExceeded, Code, Witness, _pack

NAIVE_BUDGET = 10**8


@dataclass(frozen=True)
class VerifyReport:
    verdict: bool
    witness: Witness | None
    subsets_examined: int
    elapsed: float


def _decode_mask(mask: int, words) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(words[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def is_frameproof_naive(code: Code, c: int, budget: int = NAIVE_BUDGET) -> VerifyReport:
    """Decide c-frameproofness by exhaustive coalition enumeration.

    For every subset P of at most c codewords the set desc(P) & C is
    computed (as a bitmask over word indices, one AND per position) and
    compared with P itself.  Subsets are visited in lexicographic order
    of sorted word indices and the first offending (P, x) is returned,
    so reports are deterministic.  Work is metered in (subset,
    candidate) pairs; crossing ``budget`` raises :class:`BudgetExceeded`
    with the partial progress attached.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
    start = time.perf_counter()
    words = code.words
    big_m = len(words)
    length = code.length
    # per position, the words holding each symbol that occurs there
    by_pos = [{} for _ in range(length)]
    for idx, w in enumerate(words):
        bit = 1 << idx
        for pos, sym in enumerate(w):
            by_pos[pos][sym] = by_pos[pos].get(sym, 0) | bit
    # per word, its membership mask at every position
    items = [
        (1 << idx, tuple(by_pos[pos][w[pos]] for pos in range(length)))
        for idx, w in enumerate(words)
    ]
    examined = 0
    used = 0
    for k in range(1, min(c, big_m) + 1):
        per_subset = big_m - k
        for combo in combinations(items, k):
            used += per_subset
            if used > budget:
                raise BudgetExceeded(
                    f"naive verification budget of {budget} (subset, candidate) "
                    f"pairs exceeded after {examined} subsets",
                    examined=examined,
                )
            examined += 1
            if per_subset == 0:
                continue
            pm = 0
            acc = 0
            for bit, masks in combo:
                pm |= bit
                acc |= masks[0]
            # acc only shrinks and always contains pm, so equality is final
            for pos in range(1, length):
                if acc == pm:
                    break
                union = 0
                for _, masks in combo:
                    union |= masks[pos]
                acc &= union
            if acc != pm:
                extra = acc & ~pm
                framed = words[(extra & -extra).bit_length() - 1]
                witness = Witness(
                    kind="framed",
                    coalition=_decode_mask(pm, words),
                    framed_word=framed,
                )
                return VerifyReport(False, witness, examined, time.perf_counter() - start)
    return VerifyReport(True, None, examined, time.perf_counter() - start)


def _positions(mask: int) -> list[int]:
    return [pos for pos in range(mask.bit_length()) if (mask >> pos) & 1]


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


def is_frameproof_cover(code: Code, c: int, budget: int = NAIVE_BUDGET) -> VerifyReport:
    """Decide c-frameproofness with a projection index and a set-cover search.

    A position set S is shared for x when some word y != x has x's
    projection onto S.  x can be framed by at most c words exactly when at
    most c shared sets cover every position.  The index takes M
    projections for each of the 2^l - 2 proper non-empty S, O(M * 2^l) in
    all: per S, the rows' packed keys are sorted and adjacent equal keys
    mark shared projections, into one packed bit row per word.  The
    depth-<=c search over maximal shared sets then runs once per distinct
    pattern, in the order of each pattern's first word, so the witness
    frames the smallest framable word, with the first word in sort order
    sharing each chosen set as its coalition.  Work is metered
    in projections plus search nodes, reported as ``subsets_examined``;
    an index larger than ``budget`` is refused before it is built, and
    either way :class:`BudgetExceeded` is raised.
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
    # x's projection onto S occurs more than once
    shared = np.zeros((big_m, (full >> 6) + 1), dtype=np.uint64)
    for mask in range(1, full):
        keys = _pack(rows, _positions(mask))
        order = keys.argsort()
        keys = keys[order]
        repeated = np.zeros(big_m, dtype=bool)
        dup = keys[1:] == keys[:-1]
        repeated[1:] = dup
        repeated[:-1] |= dup
        shared[order[repeated], mask >> 6] |= np.uint64(1 << (mask & 63))
    # one cover search per distinct pattern, met in word order
    firsts = np.unique(shared, axis=0, return_index=True)[1]
    for x in np.sort(firsts).tolist():
        pattern = int.from_bytes(shared[x].astype("<u8").tobytes(), "little")
        cover = _cover(pattern, code.length, c, meter)
        if cover is None:
            continue
        coalition = set()
        for mask in cover:
            keys = _pack(rows, _positions(mask))
            y = next(y for y in np.flatnonzero(keys == keys[x]).tolist() if y != x)
            coalition.add(tuple(rows[y].tolist()))
        witness = Witness(kind="framed", coalition=tuple(sorted(coalition)),
                          framed_word=tuple(rows[x].tolist()))
        return VerifyReport(False, witness, meter[0], time.perf_counter() - start)
    return VerifyReport(True, None, meter[0], time.perf_counter() - start)


def is_t_determined(code: Code, t: int) -> VerifyReport:
    """Check that any t non-infinity coordinates pin down a codeword.

    Concretely: (a) every word carries at most t-1 infinity entries, and
    (b) no two distinct words agree in t or more positions where both
    are non-infinity.  Clause (a) counts each row's infinity entries.
    For clause (b), for each set S of t positions the rows with no
    infinity in S are packed into keys on S, sorted, and compared with
    their neighbours: S holds an agreement exactly when two adjacent keys
    are equal.  That is O(C(l, t) * M log M) numpy work.  Only the first
    failing S is argsorted stably, so the witness is the first word, in
    sort order, that repeats a projection, paired with the first word
    that had it.  Work is counted in words examined, reported as
    ``subsets_examined``: M for clause (a), then M per t-subset, or, on
    a violation, up to and including the offending word.
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
    checks = big_m
    for subset in combinations(range(code.length), t):
        valid = ~stars[:, subset].any(axis=1)
        keys = _pack(rows, subset)[valid]
        ranked = np.sort(keys)
        if (ranked[1:] == ranked[:-1]).any():
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
        checks += big_m
    return VerifyReport(True, None, checks, time.perf_counter() - start)
