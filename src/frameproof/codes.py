"""Words, codes, descendant semantics, and the ``.fpc`` text format."""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

Word = tuple[int, ...]

DESCENDANT_CAP = 10**6
_SYMBOL_LIMIT = 2**63  # symbols, and the keys of _pack, are int64
_EXACT_BITS = 1920  # 2**1920 < 10**640, the fewest digits any int_max_str_digits lets str() take


class BudgetExceeded(Exception):
    """An exhaustive enumeration would exceed its configured limit."""

    def __init__(self, message: str, examined: int | None = None):
        super().__init__(message)
        self.examined = examined


def _budget_gate(budget: int, what: str, count: int, unit: str) -> None:
    """Refuse ``count`` units of work above ``budget`` before doing any: every such refusal."""
    def shown(n: int) -> str:  # str() may refuse a number past _EXACT_BITS bits: show a bound
        bits = abs(n).bit_length() - 1
        return str(n) if bits < _EXACT_BITS else f"{'at least ' if n > 0 else 'at most -'}2**{bits}"
    if count > budget:
        raise BudgetExceeded(f"{what} = {shown(count)} {unit}, above the budget of {shown(budget)}",
                             examined=0)


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
    ``length``, ``q``, ``inf_id`` and the symbols are ints or numpy
    integers, stored as ``int``; floats, bools, strings and ``None``
    raise ValueError, as do symbols past int64.  An array that is not
    2-D is refused, and duplicate words, wrong lengths, out-of-range
    symbols and words that are not sequences are rejected with distinct
    diagnostics naming the first offending word.
    """
    length, q = _check_count("length", length, 1), _check_count("q", q, 2)
    if inf_id is not None:
        inf_id = _check_count("inf_id", inf_id, 0)
        if inf_id >= q:
            raise ValueError(f"inf_id {inf_id} out of range 0..{q - 1}")
    if isinstance(words, np.ndarray) and words.ndim != 2:
        raise ValueError(f"words must be a 2-D array, got shape {words.shape}")
    if not isinstance(words, np.ndarray):
        words = list(words)  # a list, so that the except clause can walk it again
        try:
            words = [tuple(w) for w in words]
        except TypeError:
            for bad in (w for w in words if not np.iterable(w)):
                raise ValueError(f"word {bad!r} is not a sequence") from None
            raise
    rows = _sorted_rows(words, length, q)
    if rows is None:
        if isinstance(words, np.ndarray) and words.dtype.kind in "iu" and words.shape[1] == length:
            words = _culprits(words, q)
        # the word-by-word walk raises at the first bad word, or returns
        # the words as Python ints (numpy integers included)
        rows = _sorted_rows(_checked_words(words, length, q), length, q)
    return Code(length, q, rows, inf_id)


def is_integer(v) -> bool:
    """True for ints and numpy integers; False for bools, floats, ``None`` and strings."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_count(name: str, v, least: int | None) -> int:
    """``v`` as an int, so no arithmetic on it wraps; ValueError unless an integer >= ``least``.

    A ``least`` of None admits every integer, negative ones included.
    """
    if not is_integer(v) or least is not None and v < least:
        floor = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{floor}, got {v!r}")
    return int(v)


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
        rows, keys = np.take(rows.T, order, axis=1).T, keys[order]
        if (keys[1:] == keys[:-1]).any():
            return None
    rows.flags.writeable = False
    return rows


def _pack(rows: np.ndarray, positions) -> np.ndarray:
    """One int64 key per row, in the order of its projection onto ``positions``.

    Keys are equal exactly when the projections are: each column is
    offset by its least symbol and weighted by its range in one step.
    """
    keys, span = np.zeros(len(rows), dtype=np.int64), 1
    for pos in positions:
        col = rows[:, pos]
        if not col.size:
            break
        lo = int(col.min())
        keys, span = _extend(keys, span, col, lo, int(col.max()) - lo + 1)
    return keys


def _extend(keys: np.ndarray, span: int, col: np.ndarray, lo: int, width: int):
    """``(keys * width + col - lo, span * width)``, for ``col`` in lo .. lo + width - 1."""
    if span * width >= _SYMBOL_LIMIT:  # re-rank the keys, then the column, keeping order
        keys = np.unique(keys, return_inverse=True)[1].reshape(-1)
        span = int(keys.max()) + 1
        if span * width >= _SYMBOL_LIMIT:
            col, lo = np.unique(col, return_inverse=True)[1].reshape(-1), 0
            width = int(col.max()) + 1
    keys = keys * width
    keys += col - lo if lo else col
    return keys, span * width


def _culprits(words: np.ndarray, q: int) -> np.ndarray:
    """The rows of an invalid integer array on which :func:`_checked_words` raises first."""
    keys = _pack(words.astype(np.int64), range(words.shape[1]))  # the cast keeps equality
    order = keys.argsort(kind="stable")  # so each repeat sorts after an earlier twin
    bad = ((words < 0) | (words >= min(q, _SYMBOL_LIMIT))).any(axis=1)  # in the words' dtype
    bad[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True  # and the repeats
    i = int(bad.argmax())  # a repeat's earlier twin is in range, or it would come first
    return words[np.r_[np.flatnonzero(keys[:i] == keys[i])[:1], i]] if bad[i] else words


def _checked_words(words, length: int, q: int) -> list[Word]:
    top = min(q, _SYMBOL_LIMIT)
    out: dict[Word, None] = {}  # the words in order, and the set of those seen
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
        if tup in out:
            raise ValueError(f"duplicate word {tup}")
        out[tup] = None
    return list(out)


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
    cap = _check_count("cap", cap, None)
    pool = [tuple(y) for y in coalition]
    if not pool:
        raise ValueError("coalition must be non-empty")
    length = len(pool[0])
    if any(len(y) != length for y in pool):
        raise ValueError("coalition words must have equal lengths")
    choices = [sorted({y[i] for y in pool}) for i in range(length)]
    _budget_gate(cap, "the descendant set has prod_i |{y_i}|", math.prod(map(len, choices)),
                 "words")
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


# --- .fpc and .oa text formats ----------------------------------------------
#
# .fpc: fpc1 q=<q> l=<l> M=<M> inf=<id|none>, then M distinct lines of l symbol ids, `*` for
#       the infinity id, written in lexicographic order and read in any order.
# .oa:  oa1 N=<N> k=<k> s=<s> t=<t>, then k rows of N symbols (oa.py).
# Lines end at \n, \r\n or a lone \r, and blank lines are ignored.  Header values
# and entries are ASCII decimal, split by the blanks space, \t, \v, \f and
# \x1c-\x1f; entries may have leading zeros and are below 2**64, and `*` is only
# a whole entry.  There are no signs and no comments.

_FPC_MAGIC = "fpc1"
INF_ALIAS = "*"
_HEAD = re.compile(rb"[\t-\r\x1c- ]*([^\n\r]*)")  # blanks and line ends, then the header line
_TOKEN = re.compile(rb"[^\t-\r\x1c- ]+")
_LINE_END = re.compile(rb"[\n\r]")
_BODY_BYTES = b"0123456789 \t\v\f\x1c\x1d\x1e\x1f\n\r"  # digits, blanks, line ends
_CHUNK_BYTES = 1 << 15


def _table_bytes(table: np.ndarray, star: int | None = None) -> bytes:
    """The rows of a nonnegative int64 table as lines of decimal tokens, ``*`` for ``star``.

    The ASCII text is returned as ``bytes``.  Each distinct symbol has one
    fixed-width token: its digits, cast to bytes and NUL-padded, then a
    space in the last byte.  One ``take`` gathers a token per entry, the
    space after each line's last token becomes a newline, and one
    ``translate`` deletes the padding.  The symbols are min..max when that
    is no larger than the table, else ``np.unique`` of it, so a few words
    with huge symbols stay cheap.
    """
    if not table.size:
        return b"\n" * (0 if table.shape[1] else len(table))
    lo, hi = int(table.min()), int(table.max())
    if hi - lo < table.size:
        symbols, ids = lo + np.arange(hi - lo + 1), table - lo if lo else table
    else:
        symbols, ids = np.unique(table, return_inverse=True)
        ids = ids.reshape(table.shape)
    width = len(str(hi)) + 1  # no token fills the last byte, which takes the space
    tokens = symbols.astype(f"S{width}")
    if star is not None:
        tokens[symbols == star] = INF_ALIAS
    tokens.view(np.uint8)[width - 1::width] = ord(" ")
    out = np.take(tokens, ids)  # C order, so each line's bytes are one row of the view
    out.view(np.uint8)[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def _fpc_header(code: Code) -> str:
    inf = "none" if code.inf_id is None else str(code.inf_id)
    return f"{_FPC_MAGIC} q={code.q} l={code.length} M={code.size} inf={inf}\n"


def code_to_text(code: Code) -> str:
    return _fpc_header(code) + str(_table_bytes(code.array, code.inf_id), "ascii")


def _decimal(text: str, what: str) -> int:
    """Decimal ``text`` as an int; ValueError naming ``what`` if it is too long for int()."""
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ValueError(f"{what} has {len(text)} digits, more than int() converts") from None


def _echo(text, keep: int = 40) -> str:
    """``repr(text)``, or for a str longer than ``keep`` its first characters and its length."""
    if not isinstance(text, str) or len(text) <= keep:
        return repr(text)
    return f"{text[:keep]!r}... ({len(text)} characters)"


def _read_header(head: str, magic: str, keys: tuple[str, ...], star: str | None = None) -> dict:
    """The values of a ``.fpc`` or ``.oa`` header line.

    The header is ``magic`` and ``key=value`` for each of ``keys``; the
    ``star`` key may be ``none``, read as None.
    """
    parts = head.split()
    if len(parts) != len(keys) + 1 or parts[0] != magic:
        raise ValueError(f"bad {magic} header: {_echo(head)}")
    vals = {}
    for part, key in zip(parts[1:], keys):
        name, _, raw = part.partition("=")
        if name != key:
            raise ValueError(f"bad {magic} header field {_echo(part)}, expected {key}=...")
        if not (raw.isdecimal() or (key == star and raw == "none")):
            raise ValueError(f"bad {magic} header field {_echo(part)}: not a decimal number")
        vals[key] = None if raw == "none" else _decimal(raw, f"{magic} header field {key}")
    return vals


def _read_table(text: str | bytes, magic: str, keys: tuple[str, ...], shape: tuple[str, str],
                star: str | None = None) -> tuple[dict, np.ndarray]:
    """The header values and the uint64 table of a ``.fpc`` or ``.oa`` text or its bytes.

    The header is read by :func:`_read_header`, and a ``*`` entry stands
    for the ``star`` key's value.  The body is cut into chunks of about
    ``_CHUNK_BYTES`` that end at a line end, ``\\n`` or ``\\r``; a cut
    inside ``\\r\\n`` leaves a blank line.  In each chunk one
    ``flatnonzero`` indexes the separators, the bytes up to space, from
    the line end before the chunk on: the gaps between them are the
    token lengths, and a separator after a gap of at least one byte ends
    a token.  Values are summed from the digits gathered before the
    token ends, and each line's width is the number of tokens ended
    between its line-end separator and the one before; the end of the
    text ends its last line.  The values fill one output array, whose
    shape must be the ``shape`` keys' values.
    """
    data = text.encode() if isinstance(text, str) else text
    if not data.isascii():
        raise ValueError(f"{magic} text is not ASCII")
    head = _HEAD.match(data)
    vals = _read_header(head[1].decode(), magic, keys, star)
    rows, cols, inf = vals[shape[0]], vals[shape[1]], vals.get(star)
    valid = _BODY_BYTES + (b"" if inf is None else INF_ALIAS.encode())
    at = head.end() + 1
    # n entries take at least 2n - 1 bytes, which bounds the header's claim
    out = np.empty(min(rows * cols, (len(data) - at) // 2 + 1), dtype=np.uint64)
    filled = lines = width = 0
    while at < len(data):
        end = _LINE_END.search(data, at + _CHUNK_BYTES)
        cut = end.end() if end else len(data)
        if bad := data[at:cut].translate(None, valid):  # name the token of the first bad byte
            pos = data.find(bad[:1], at, cut)
            token = next(m[0] for m in _TOKEN.finditer(data, at, cut) if m.end() > pos).decode()
            raise ValueError("'*' used but no infinity id is declared" if star and "*" in token
                             else f"{magic} entries take no sign" if "+" in token
                             else _unconvertible(magic, token))
        b = np.frombuffer(data, np.uint8, cut - at + 1, at - 1)  # and the line end before: seps[0]
        if data[cut - 1] not in b"\n\r":  # the end of the text ends its last line
            b = np.append(b, np.uint8(ord("\n")))
        seps = np.flatnonzero(b <= ord(" "))  # valid blanks and line ends are all <= space
        lens = seps[1:] - seps[:-1]
        lens -= 1
        kinds = b.take(seps)
        line_ends = np.flatnonzero((kinds == ord("\n")) | (kinds == ord("\r")))
        if np.count_nonzero(lens) == len(lens):  # each separator after the first ends a token
            ends, counts = seps[1:], line_ends[1:] - line_ends[:-1]
        else:  # a line's entries are the tokens ended after the line end before it
            tokens = lens > 0
            ends, lens = seps[1:][tokens], lens[tokens]
            counts = np.diff(np.cumsum(tokens)[line_ends[1:] - 1], prepend=0)
            counts = counts[counts > 0]
        pos, n = ends - 1, len(ends)
        last = b.take(pos)
        val = out[filled:filled + n] if filled + n <= len(out) else np.empty(n, dtype=np.uint64)
        np.subtract(last, ord("0"), out=val, casting="unsafe")
        for k in range(1, min(int(lens.max(initial=0)), 19)):
            pos -= 1
            val += (b.take(pos) - ord("0")) * (lens > k) * np.uint64(10**k)
        if inf is not None and (stars := np.count_nonzero(b == ord(INF_ALIAS))):
            whole = (lens == 1) & (last == ord(INF_ALIAS))
            if np.count_nonzero(whole) != stars:
                raise ValueError(f"'*' must be a whole {magic} entry")
            if inf >= 2**64:
                raise ValueError(_unconvertible(magic, str(inf)))
            np.putmask(val, whole, inf)
        for i in np.flatnonzero(lens > 19):  # the sums could overflow: 2**64 has 20 digits
            token = data[at - 1 + ends[i] - lens[i]:at - 1 + ends[i]].decode()
            if (value := int(token.lstrip("0")[:21] or "0")) >= 2**64:
                raise ValueError(_unconvertible(magic, token))
            val[i] = value
        width = width or int(counts[:1].sum())  # the first line's, once there is one
        if (wrong := np.flatnonzero(counts != width)).size:
            raise ValueError(f"bad {magic} table: the number of columns changed from {width} "
                             f"to {counts[wrong[0]]} at row {lines + wrong[0] + 1}")
        filled, lines, at = filled + n, lines + len(counts), cut
    if not lines:  # only a table of width 0 has rows that are all blank
        lines, width = (0 if cols else rows), cols
    if (lines, width) != (rows, cols):
        raise ValueError(f"header says {shape[0]}={rows} {shape[1]}={cols} but the table "
                         f"has {lines} rows of {width}")
    return vals, out.reshape(rows, cols)


def _unconvertible(magic: str, token: str) -> str:
    return f"bad {magic} table: could not convert string {token!r} to uint64"


def code_from_text(text: str | bytes) -> Code:
    vals, table = _read_table(text, _FPC_MAGIC, ("q", "l", "M", "inf"), ("M", "l"), star="inf")
    return make_code(vals["l"], vals["q"], table, vals["inf"])


def write_code_file(code: Code, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_fpc_header(code).encode("ascii"))
        fh.write(_table_bytes(code.array, code.inf_id))


def read_code_file(path) -> Code:
    with open(path, "rb") as fh:
        return code_from_text(fh.read())
