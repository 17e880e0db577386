"""Orthogonal arrays: strength-2 generator, exhaustive checker, the seed code bridge."""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

import numpy as np

from .codes import (_HEAD, _SYMBOL_LIMIT, Code, Witness, _check_count, _read_header, _read_table,
                    _table_bytes, is_integer, make_code)
from .gf import default_eval_points, make_field
from .verify import VerifyReport, _first_over


@dataclass(frozen=True, eq=False)
class OrthogonalArray:
    """A k x N array over s symbols in which every t rows are balanced.

    Balanced means: restricted to any t rows, each of the s**t column
    tuples appears exactly ``index`` = N / s**t times.  Construction
    checks the shape bookkeeping and freezes an int64 copy of the array:
    ``levels`` >= 2 and ``strength`` in 1..k, stored as ``int``, entries in
    0..s-1 (numpy integers pass; any float, bool or string raises
    ValueError), and N a multiple of s**t.  :func:`verify_oa` checks the balance.
    """

    levels: int  # s
    strength: int  # t
    array: np.ndarray  # k x N, entries 0..s-1

    def __post_init__(self):
        object.__setattr__(self, "levels", _check_count("levels", self.levels, 2))
        object.__setattr__(self, "strength", _check_count("strength", self.strength, 1))
        arr = self.array
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "iu"):
            arr = np.array(arr, dtype=object)  # Python values: none is rounded or overflows
        if arr.ndim != 2:
            raise ValueError("array must be two-dimensional")
        if arr.dtype.kind not in "iu":
            for v in arr.ravel().tolist():
                if not is_integer(v):
                    raise ValueError(f"entry {v!r} is not an integer")
        k, n = arr.shape
        if self.strength > k:
            raise ValueError(f"strength {self.strength} out of range 1..{k}")
        if arr.size and (arr.min() < 0 or arr.max() >= min(self.levels, _SYMBOL_LIMIT)):
            raise ValueError(f"entries must lie in 0..{self.levels - 1}")
        arr = arr.astype(np.int64)
        if n % self.levels**self.strength != 0:
            raise ValueError(f"run count {n} is not a multiple of {self.levels}**{self.strength}")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def constraints(self) -> int:
        return self.array.shape[0]

    @property
    def runs(self) -> int:
        return self.array.shape[1]

    @property
    def index(self) -> int:
        return self.runs // self.levels**self.strength

    def __repr__(self) -> str:
        return (
            f"OA(N={self.runs}, k={self.constraints}, s={self.levels}, "
            f"t={self.strength}, lambda={self.index})"
        )


def make_oa(rows, levels: int, strength: int) -> OrthogonalArray:
    """Read a k x N nested sequence or array as an :class:`OrthogonalArray`, which validates it."""
    return OrthogonalArray(levels, strength, rows)


def build_oa_strength2(s: int) -> OrthogonalArray:
    """The classical strength-2 array with s+1 rows and s**2 columns.

    Columns are indexed by pairs (a, b) of field elements in canonical
    order; the row for each field element alpha holds a*alpha + b and a
    final slope row holds a.  Any two rows determine (a, b) uniquely, so
    every pair of symbols appears exactly once.

    Row alpha is the polynomial b + a*X at alpha and the slope row is
    its leading coefficient, so the s+1 rows are one
    :meth:`~frameproof.gf.Field.poly_table` call at the s+1 points 0..s-1 and
    infinity of :func:`~frameproof.gf.default_eval_points`, transposed to (a, b).
    """
    s = _check_count("s", s, 2)
    # one expression, so that the (b, a) table is freed before make_oa copies the transpose
    return make_oa(make_field(s).poly_table(2, default_eval_points(s, s + 1))
                   .reshape(s + 1, s, s).transpose(0, 2, 1).reshape(s + 1, s * s), s, 2)


def verify_oa(oa: OrthogonalArray) -> VerifyReport:
    """Exhaustively count column tuples in every t-row submatrix.

    Row subsets are taken in ``combinations`` order by one
    :func:`~frameproof.verify._first_over` call with width s: the columns
    of a subset are read as base-s keys, its first row most significant,
    and every s**t tuple of many subsets is counted with one
    ``np.bincount``, each subset's in ``product`` order: O(C(k, t) * N)
    counting.  A subset's N keys fill its s**t bins, so all hold
    ``index`` exactly when none holds more: the first subset with a
    tuple seen more than ``index`` times is the witness, together with
    its first tuple seen other than ``index`` times;
    ``subsets_examined`` counts the subsets up to and including it.
    Entries lie in 0..s-1, which :class:`OrthogonalArray` guarantees.
    """
    start = time.perf_counter()
    t, s, lam = oa.strength, oa.levels, oa.index
    hit = _first_over(oa.array, s, t, lam)
    if hit is None:
        return VerifyReport(True, None, comb(oa.constraints, t), time.perf_counter() - start)
    rank, subset, counts = hit
    key = int(np.argmax(counts != lam))
    witness = Witness(kind="oa_count", rows=subset,
                      symbols=tuple(key // s**i % s for i in range(t - 1, -1, -1)),
                      count=int(counts[key]), expected=lam)
    return VerifyReport(False, witness, rank + 1, time.perf_counter() - start)


def oa_to_pt_code(oa: OrthogonalArray) -> Code:
    """Turn an index-1 strength-t array into a t-determined code.

    Column 0 is normalised to all-zero by swapping, within each row, its
    entry v with 0 (a per-row symbol permutation, which keeps every t
    rows balanced), and dropped; the remaining s**t - 1 columns, with 0
    as the infinity symbol, each carry at most t-1 zeros and pairwise
    agree in at most t-1 positions.
    """
    if oa.index != 1:
        raise ValueError(f"array index must be 1, got {oa.index}")
    arr, v = oa.array[:, 1:], oa.array[:, :1]
    return make_code(oa.constraints, oa.levels,
                     np.where(arr == v, 0, np.where(arr == 0, v, arr)).T, inf_id=0)


# --- .oa text format (described and read in codes.py) ----------------------

_OA_MAGIC, _OA_KEYS = "oa1", ("N", "k", "s", "t")


def _oa_header(oa: OrthogonalArray) -> str:
    k, n = oa.array.shape
    return f"{_OA_MAGIC} N={n} k={k} s={oa.levels} t={oa.strength}\n"


def oa_to_text(oa: OrthogonalArray) -> str:
    return _oa_header(oa) + str(_table_bytes(oa.array), "ascii")


def oa_from_text(text: str | bytes) -> OrthogonalArray:
    vals, table = _read_table(text, _OA_MAGIC, _OA_KEYS, ("k", "N"))
    return make_oa(table, vals["s"], vals["t"])


def write_oa_file(oa: OrthogonalArray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_oa_header(oa).encode("ascii"))
        fh.write(_table_bytes(oa.array))


def read_oa_file(path) -> OrthogonalArray:
    with open(path, "rb") as fh:
        return oa_from_text(fh.read())


def read_oa_header(path) -> dict[str, int]:
    """The ``N``, ``k``, ``s`` and ``t`` of an ``.oa`` file, from its first non-blank line alone."""
    with open(path, "rb") as fh:  # fh splits lines at \n only; _HEAD ends the header at \r too
        head = next(filter(None, (_HEAD.match(line)[1] for line in fh)), b"")
    if not head.isascii():  # refused as _read_table refuses it
        raise ValueError(f"{_OA_MAGIC} text is not ASCII")
    return _read_header(head.decode(), _OA_MAGIC, _OA_KEYS)
