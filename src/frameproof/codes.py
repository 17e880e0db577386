"""Words, codes, descendant semantics, and the ``.fpc`` text format."""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np

Word = tuple[int, ...]

DESCENDANT_CAP = 10**6
_SYMBOL_LIMIT = 2**63  # symbols, and the keys of _pack, are int64


class BudgetExceeded(Exception):
    """An exhaustive enumeration would exceed its configured limit."""

    def __init__(self, message: str, examined: int | None = None):
        super().__init__(message)
        self.examined = examined


@dataclass(frozen=True, eq=False)
class Code:
    """A set of equal-length words over the alphabet ``{0, ..., q-1}``.

    ``array`` holds the words as the rows of a read-only ``(M, l)`` int64
    array in lexicographic order; ``words`` is the same tuple of tuples
    of Python ints, built on first use.  Codes compare by value and are
    not hashable.  ``inf_id`` designates the optional infinity (star)
    symbol of the star-structured constructions; every code built by
    this package uses id 0 for it.
    """

    length: int
    q: int
    array: np.ndarray
    inf_id: int | None = None

    @functools.cached_property
    def words(self) -> tuple[Word, ...]:
        # zipping the columns makes no per-row lists on the way
        return tuple(zip(*self.array.T.tolist()))

    @property
    def size(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        return isinstance(other, Code) and (self.length, self.q, self.inf_id) == (
            other.length, other.q, other.inf_id) and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        inf = "none" if self.inf_id is None else self.inf_id
        return f"Code(q={self.q}, l={self.length}, M={self.size}, inf={inf})"


def make_code(length: int, q: int, words, inf_id: int | None = None) -> Code:
    """Validate and canonicalise a word collection into a :class:`Code`.

    ``words`` is an integer ``(M, l)`` array or an iterable of words.
    Symbols and ``inf_id`` must be integers (numpy integers are
    converted; floats, bools, ``None`` symbols and strings are rejected)
    that fit in int64.  Duplicate words, wrong lengths, non-integer and
    out-of-range symbols are all rejected with distinct diagnostics
    naming the first offending word.
    """
    if length < 1:
        raise ValueError("length must be a positive integer")
    if q < 2:
        raise ValueError("alphabet size must be at least 2")
    if inf_id is not None:
        if not is_integer(inf_id):
            raise ValueError(f"inf_id {inf_id!r} is not an integer")
        inf_id = int(inf_id)
        if not 0 <= inf_id < q:
            raise ValueError(f"inf_id {inf_id} out of range 0..{q - 1}")
    if not isinstance(words, np.ndarray):
        words = [tuple(w) for w in words]
    rows = _sorted_rows(words, length, q)
    if rows is None:
        # the word-by-word walk raises at the first bad word, or returns
        # the words as Python ints (numpy integers included)
        rows = _sorted_rows(_checked_words(words, length, q), length, q)
    return Code(length, q, rows, inf_id)


def is_integer(v) -> bool:
    """True for ints and numpy integers; False for bools, floats, ``None`` and strings."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _sorted_rows(words, length: int, q: int) -> np.ndarray | None:
    """The words as a sorted, read-only, column-major int64 array; None unless all are valid.

    An array needs an integer dtype and l columns (uint64 symbols past
    int64 wrap negative and fail the range test); a list needs symbols
    of type ``int`` exactly (so ``True`` is not read as 1) and words of
    length l.  Packed keys keep the lexicographic order, so one argsort
    sorts the rows and equal adjacent keys are duplicates.
    """
    if isinstance(words, np.ndarray):
        if words.dtype.kind not in "iu" or words.shape[1:] != (length,):
            return None
        rows = words.astype(np.int64, order="F")
    else:
        flat = list(itertools.chain.from_iterable(words))
        if set(map(type, flat)) - {int} or set(map(len, words)) - {length} or (
                flat and not 0 <= min(flat) <= max(flat) < _SYMBOL_LIMIT):
            return None
        rows = np.asfortranarray(np.array(flat, dtype=np.int64).reshape(len(words), length))
    if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= q):
        return None
    keys = _pack(rows, range(length))
    if not (keys[1:] > keys[:-1]).all():
        order = keys.argsort()
        rows, keys = np.asfortranarray(rows[order]), keys[order]
        if (keys[1:] == keys[:-1]).any():
            return None
    rows.flags.writeable = False
    return rows


def _pack(rows: np.ndarray, positions) -> np.ndarray:
    """One int64 key per row, in the order of its projection onto ``positions``.

    Keys are equal exactly when the projections are.  Each column is
    offset by its least symbol and weighted by its actual range, not by
    q; before a product would reach 2**63 the keys so far, and if need
    be the column, are re-ranked with ``np.unique``, which keeps order.
    """
    keys = np.zeros(len(rows), dtype=np.int64)
    span = 1
    for pos in positions:
        col = rows[:, pos]
        if not col.size:
            break
        lo = int(col.min())
        width = int(col.max()) - lo + 1
        if span * width >= _SYMBOL_LIMIT:
            keys = np.unique(keys, return_inverse=True)[1].reshape(-1)
            span = int(keys.max()) + 1
            if span * width >= _SYMBOL_LIMIT:
                col, lo = np.unique(col, return_inverse=True)[1].reshape(-1), 0
                width = int(col.max()) + 1
        keys = keys * width + (col - lo)
        span *= width
    return keys


def _checked_words(words, length: int, q: int) -> list[Word]:
    top = min(q, _SYMBOL_LIMIT)
    seen: set[Word] = set()
    out: list[Word] = []
    for w in words:
        for v in w:
            if not is_integer(v):
                raise ValueError(f"symbol {v!r} is not an integer in word {w!r}")
        tup = tuple(int(v) for v in w)
        if len(tup) != length:
            raise ValueError(f"word {tup} has length {len(tup)}, expected {length}")
        for v in tup:
            if not 0 <= v < top:
                raise ValueError(f"symbol {v} out of range 0..{top - 1} in word {tup}")
        if tup in seen:
            raise ValueError(f"duplicate word {tup}")
        seen.add(tup)
        out.append(tup)
    return out


def descendant_contains(coalition, word) -> bool:
    """True iff every position of ``word`` matches some coalition member there."""
    pool = [tuple(y) for y in coalition]
    if not pool:
        raise ValueError("coalition must be non-empty")
    x = tuple(word)
    if any(len(y) != len(x) for y in pool):
        raise ValueError("coalition and word must have equal lengths")
    return all(any(y[i] == x[i] for y in pool) for i in range(len(x)))


def enumerate_descendants(coalition, cap: int = DESCENDANT_CAP) -> set[Word]:
    """Materialise the full descendant set of a coalition.

    The set has exactly ``prod_i |{y_i}|`` elements; enumeration refuses
    to run past ``cap`` so callers cannot blow up by accident.
    Membership questions should go through :func:`descendant_contains`,
    which never enumerates.
    """
    pool = [tuple(y) for y in coalition]
    if not pool:
        raise ValueError("coalition must be non-empty")
    length = len(pool[0])
    if any(len(y) != length for y in pool):
        raise ValueError("coalition words must have equal lengths")
    choices = [sorted({y[i] for y in pool}) for i in range(length)]
    total = 1
    for ch in choices:
        total *= len(ch)
        if total > cap:
            raise BudgetExceeded(
                f"descendant set would exceed the cap of {cap} words"
            )
    return set(itertools.product(*choices))


@dataclass(frozen=True)
class Witness:
    """Counterexample certificate returned by the verifiers.

    ``kind`` is one of:

    * ``"framed"``      -- ``coalition`` can produce ``framed_word``;
    * ``"inf_count"``   -- ``pair[0]`` carries too many infinity entries
      (at ``positions``);
    * ``"agreement"``   -- ``pair`` agree in too many non-infinity
      ``positions``;
    * ``"oa_count"``    -- in the array rows ``rows``, the column tuple
      ``symbols`` appears ``count`` times instead of ``expected``.
    """

    kind: str
    coalition: tuple[Word, ...] | None = None
    framed_word: Word | None = None
    pair: tuple[Word, ...] | None = None
    positions: tuple[int, ...] | None = None
    rows: tuple[int, ...] | None = None
    symbols: tuple[int, ...] | None = None
    count: int | None = None
    expected: int | None = None


def framed_witness_holds(witness: Witness) -> bool:
    """Revalidate a framing certificate independently of the search that found it."""
    if witness.kind != "framed":
        raise ValueError(f"not a framing witness: kind={witness.kind!r}")
    if witness.coalition is None or witness.framed_word is None:
        return False
    return witness.framed_word not in witness.coalition and descendant_contains(
        witness.coalition, witness.framed_word
    )


# --- .fpc text format ------------------------------------------------------
#
# line 1:    fpc1 q=<q> l=<l> M=<M> inf=<id|none>
# lines 2..: l space-separated symbol ids, lexicographically sorted; when an
#            infinity id is declared its occurrences are written as `*`, and
#            `*` is accepted on input as an alias for it.

_FPC_MAGIC = "fpc1"
INF_ALIAS = "*"


def symbol_text(v: int, inf_id: int | None) -> str:
    """How a symbol is written: ``*`` for the infinity id, else its decimal id."""
    return INF_ALIAS if v == inf_id else str(v)


def code_to_text(code: Code) -> str:
    inf = "none" if code.inf_id is None else str(code.inf_id)
    header = f"{_FPC_MAGIC} q={code.q} l={code.length} M={code.size} inf={inf}\n"
    symbols = code.array.ravel().tolist()
    # one token per distinct symbol, so a huge q with few words stays cheap
    tokens = {v: symbol_text(v, code.inf_id) for v in set(symbols)}
    line = " ".join(["%s"] * code.length) + "\n"
    return header + line * code.size % tuple(map(tokens.__getitem__, symbols))


def _parse_header(line: str) -> tuple[int, int, int, int | None]:
    parts = line.split()
    if len(parts) != 5 or parts[0] != _FPC_MAGIC:
        raise ValueError(f"bad code header: {line!r}")
    vals = {}
    for part, key in zip(parts[1:], ("q", "l", "M", "inf")):
        name, _, raw = part.partition("=")
        if name != key:
            raise ValueError(f"bad code header field {part!r}, expected {key}=...")
        vals[key] = raw
    q, length, size = int(vals["q"]), int(vals["l"]), int(vals["M"])
    inf_id = None if vals["inf"] == "none" else int(vals["inf"])
    return q, length, size, inf_id


def code_from_text(text: str) -> Code:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    q, length, size, inf_id = _parse_header(lines[0])
    body = lines[1:]
    if len(body) != size:
        raise ValueError(f"header says M={size} but file has {len(body)} word lines")
    words = []
    for ln in body:
        toks = ln.split()
        if len(toks) != length:
            raise ValueError(f"word line {ln!r} has {len(toks)} symbols, expected {length}")
        word = []
        for tok in toks:
            if tok == INF_ALIAS:
                if inf_id is None:
                    raise ValueError("'*' used but no infinity id is declared")
                word.append(inf_id)
            else:
                word.append(int(tok))
        words.append(tuple(word))
    return make_code(length, q, words, inf_id)


def write_code_file(code: Code, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(code_to_text(code))


def read_code_file(path) -> Code:
    with open(path, "r", encoding="ascii") as fh:
        return code_from_text(fh.read())
