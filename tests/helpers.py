"""Reference implementations the fast checks are compared against.

Most are pure-Python loops; :func:`reference_shared_patterns` is the
cover index built with one ``_pack`` and one argsort per position set.

Also :func:`named_code`, which builds the q5/q10 test codes through the lift,
:func:`digits_past_int_limit`, the length of a decimal text that ``int()`` refuses, and
:func:`scan_chunks`, the t-sets the scanner counts in one pass.
"""

import io
import re
import sys
from collections import Counter
from itertools import combinations, groupby, product

import numpy as np
import pytest

from frameproof import (
    BudgetExceeded,
    Witness,
    base_code,
    leading_coeff,
    make_field,
    polynomial_lift,
)
from frameproof import verify
from frameproof.codes import _pack, _read_header
from frameproof.gf import _digits, _poly_mod
from frameproof.verify import NAIVE_BUDGET


def digits_past_int_limit() -> int:
    """100 digits past the interpreter's limit for ``int()``; the test is skipped without one."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
    if not limit:
        pytest.skip("int() converts decimal text of any length")
    return limit + 100


def named_code(name):
    """``base_code(name)``, or for ``q5``/``q10`` the base ``q3``/``q4`` lifted by GF(2)/GF(3).

    Those fields are one point short of the length, so each word's
    non-infinity positions take the field's points in order.
    """
    parent, m = {"q5": ("q3", 2), "q10": ("q4", 3)}.get(name, (name, None))
    code = base_code(parent)
    return code if m is None else polynomial_lift(code, m, 2, m)


def reference_t_determined(code, t: int):
    """The word-by-word t-determinedness loop, kept as the reference.

    Returns ``(verdict, witness, subsets_examined)`` for comparison with
    :func:`frameproof.is_t_determined`.
    """
    inf = code.inf_id  # None matches no symbol
    if t < 1:
        raise ValueError("t must be at least 1")
    checks = 0
    for w in code.words:
        checks += 1
        inf_positions = tuple(i for i, v in enumerate(w) if v == inf)
        if len(inf_positions) > t - 1:
            witness = Witness(kind="inf_count", pair=(w,), positions=inf_positions)
            return False, witness, checks
    for subset in combinations(range(code.length), t):
        seen: dict[tuple, tuple] = {}
        for w in code.words:
            checks += 1
            key = tuple(w[i] for i in subset)
            if inf in key:
                continue
            prev = seen.get(key)
            if prev is not None:
                agree = tuple(
                    i for i in range(code.length) if prev[i] == w[i] and w[i] != inf
                )
                witness = Witness(kind="agreement", pair=(prev, w), positions=agree)
                return False, witness, checks
            seen[key] = w
    return True, None, checks


def _decode_mask(mask: int, words) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(words[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def reference_naive(code, c: int, budget: int = NAIVE_BUDGET):
    """The bigint coalition loop, kept as the reference.

    Returns ``(verdict, witness, subsets_examined)`` for comparison with
    :func:`frameproof.is_frameproof_naive`, or raises the same
    :class:`~frameproof.BudgetExceeded`.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
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
                return False, witness, examined
    return True, None, examined


def reference_shared_patterns(code):
    """The cover index built with one ``_pack`` and one argsort per position set, kept as the reference.

    Returns the ``(M, W)`` uint64 array whose row x has bit S set when x's
    projection onto the proper non-empty position set S occurs more than
    once, for comparison with the index of :func:`frameproof.is_frameproof_cover`.
    """
    rows = code.array
    big_m = len(rows)
    full = (1 << code.length) - 1
    shared = np.zeros((big_m, (full >> 6) + 1), dtype=np.uint64)
    for mask in range(1, full):
        keys = _pack(rows, [pos for pos in range(code.length) if mask >> pos & 1])
        order = keys.argsort()
        keys = keys[order]
        repeated = np.zeros(big_m, dtype=bool)
        dup = keys[1:] == keys[:-1]
        repeated[1:] = dup
        repeated[:-1] |= dup
        shared[order[repeated], mask >> 6] |= np.uint64(1 << (mask & 63))
    return shared


def reference_maximal_sets(pattern: int, length: int) -> list[int]:
    """The set-by-set scan for maximal sets, kept as the reference for ``verify._maximal_sets``.

    The proper non-empty sets m in the bitset ``pattern`` such that no
    m | {pos} is in it, in increasing order.
    """
    full = (1 << length) - 1
    return [m for m in range(1, full) if (pattern >> m) & 1 and not any(
        (pattern >> (m | 1 << pos)) & 1 for pos in range(length) if not (m >> pos) & 1)]


def scan_chunks(rows: int, n: int, t: int) -> list[list[tuple]]:
    """The t-sets of ``rows`` rows as ``_first_over`` counts them over n columns, one list a pass.

    Sets in ``combinations`` order that share all rows but the last, ``max(1, _CHUNK_CELLS //
    n)`` at a time, read from ``verify`` when called, so that a patched value holds.
    """
    per = max(1, verify._CHUNK_CELLS // n)
    chunks = []
    for _, run in groupby(combinations(range(rows), t), key=lambda subset: subset[:-1]):
        run = list(run)
        chunks += [run[i:i + per] for i in range(0, len(run), per)]
    return chunks


def reference_verify_oa(oa):
    """The ``Counter``-per-subset orthogonal-array check, kept as the reference.

    Returns ``(verdict, witness, subsets_examined)`` for comparison with
    :func:`frameproof.verify_oa`.
    """
    t = oa.strength
    s = oa.levels
    lam = oa.index
    rows = [oa.array[r].tolist() for r in range(oa.constraints)]
    examined = 0
    for subset in combinations(range(oa.constraints), t):
        examined += 1
        counts = Counter(zip(*(rows[r] for r in subset)))
        if len(counts) == s**t and all(v == lam for v in counts.values()):
            continue
        for tup in product(range(s), repeat=t):
            got = counts.get(tup, 0)
            if got != lam:
                witness = Witness(
                    kind="oa_count",
                    rows=subset,
                    symbols=tup,
                    count=got,
                    expected=lam,
                )
                return False, witness, examined
    return True, None, examined


def reference_lift_words(words, m: int, t: int, points_of, star=0):
    """The word-by-word polynomial lift, kept as the reference.

    ``points_of(word)`` gives one evaluation point per position (``None``
    is the infinity point, whose "value" is the leading coefficient).
    ``star`` is the words' infinity, 0 or None: symbol b is tagged into
    (b-1)*m + 1 + y with infinity staying 0, or into b*m + y without one.
    Returns the m**t children of every word, parent by parent, in the
    polynomials' coefficient order, for comparison with
    ``frameproof.construct._lift_words``.
    """
    field = make_field(m)
    polys = list(product(range(m), repeat=t))
    infinities = (0,) * len(polys)
    s = 0 if star is None else 1
    values = {}
    out = []
    for word in words:
        columns = []
        for b, alpha in zip(word, points_of(word)):
            if b == star:
                columns.append(infinities)
                continue
            if alpha not in values:
                values[alpha] = [
                    leading_coeff(f, t) if alpha is None else field.eval_poly(f, alpha)
                    for f in polys
                ]
            base = (b - s) * m + s
            columns.append([base + y for y in values[alpha]])
        out.extend(zip(*columns))
    return out


def reference_poly_values(field, t: int, point, polys=None):
    """Polynomial values at ``point`` by one ``eval_poly`` call each, as the reference.

    ``None`` is the infinity point, whose value is the leading
    coefficient.  ``polys`` defaults to all m**t coefficient tuples in
    ``product`` order, for comparison with a row of :meth:`frameproof.Field.poly_table`.
    """
    if polys is None:
        polys = product(range(field.order), repeat=t)
    return [leading_coeff(f, t) if point is None else field.eval_poly(f, point) for f in polys]


def _times(x, y, modulus, p: int) -> list[int]:
    """Schoolbook product of two coefficient vectors, reduced by the monic modulus."""
    prod = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    return _poly_mod([v % p for v in prod], modulus, p)


def reference_powers(p: int, e: int, modulus) -> list[int]:
    """The schoolbook search for a primitive element, as the reference for ``gf._powers``.

    Ids of g**0, ..., g**(m-2) for the first g of order m-1 in id order,
    starting at X (element p); every power is one schoolbook product and
    reduction of coefficient vectors.
    """
    one = [1] + [0] * (e - 1)
    q1 = p**e - 1
    for g in range(p, p**e):
        x = _digits(g, p, e)
        exp, power = [], one
        for _ in range(q1):
            exp.append(sum(d * p**i for i, d in enumerate(power)))
            power = _times(power, x, modulus, p)
            if power == one:
                break
        if len(exp) == q1 and power == one:
            return exp
    raise ValueError(f"no primitive element: {tuple(modulus)} is not irreducible over GF({p})")


def reference_code_text(code) -> str:
    """The one-``%``-format ``.fpc`` writer, kept as the reference for ``code_to_text``."""
    inf = "none" if code.inf_id is None else str(code.inf_id)
    header = f"fpc1 q={code.q} l={code.length} M={code.size} inf={inf}\n"
    symbols = code.array.ravel().tolist()
    # one token per distinct symbol, so a huge q with few words stays cheap
    tokens = {v: "*" if v == code.inf_id else str(v) for v in set(symbols)}
    line = " ".join(["%s"] * code.length) + "\n"
    return header + line * code.size % tuple(map(tokens.__getitem__, symbols))


def reference_oa_text(oa) -> str:
    """The line-by-line ``.oa`` writer, kept as the reference for ``oa_to_text``."""
    k, n = oa.array.shape
    lines = [f"oa1 N={n} k={k} s={oa.levels} t={oa.strength}"]
    for row in oa.array:
        lines.append(" ".join(map(str, row.tolist())))
    return "\n".join(lines) + "\n"


_LOOSE_STAR = re.compile(r"\*(?:\S|(?<=\S\*))")  # a `*` touching another character


def reference_read_table(text: str, magic: str, keys, shape, star=None):
    """The ``np.loadtxt`` reader, kept as the reference for ``codes._read_table``.

    Lines end at ``\\n`` only: callers turn ``\\r\\n`` and a lone ``\\r``
    into ``\\n`` first.  Takes the same arguments and returns ``(values,
    table)`` or raises ``ValueError``.
    """
    if not text.isascii():
        raise ValueError(f"{magic} text is not ASCII")
    head, _, body = text.lstrip().partition("\n")
    vals = _read_header(head, magic, keys, star)
    if star is not None and "*" in body:
        if vals[star] is None:
            raise ValueError("'*' used but no infinity id is declared")
        if _LOOSE_STAR.search(body):
            raise ValueError(f"'*' must be a whole {magic} entry")
        body = body.replace("*", str(vals[star]))
    if "+" in body:
        raise ValueError(f"{magic} entries take no sign")
    rows, cols = vals[shape[0]], vals[shape[1]]
    if not body or body.isspace():  # loadtxt warns on empty input
        table = np.empty((0 if cols else rows, cols), dtype=np.uint64)
    else:
        try:
            table = np.loadtxt(io.StringIO(body), dtype=np.uint64, ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError(f"bad {magic} table: {str(exc).split(';')[0]}") from None
    if table.shape != (rows, cols):
        raise ValueError(f"header says {shape[0]}={rows} {shape[1]}={cols} but the table "
                         f"has {len(table)} rows of {table.shape[1]}")
    return vals, table
