"""Named base codes and the alphabet-expanding composition operators.

Every named base is a strength-2 array's seed, and :func:`_seed_order` alone parses its name.
Every tagged code comes from one operation, :func:`_lift_words`, whose
one caller is :func:`polynomial_lift`.  The word-free refusals of it and of
:func:`augment_infinity` are :func:`_lift_shape` and :func:`_augment_shape`, which plan's
``Step.shape`` calls.  Both end in :func:`_admit`, the one owner of the lemma's refusal.
"""

from __future__ import annotations

import numpy as np

from .codes import _SYMBOL_LIMIT, Code, _check_count, _decimal, _echo, make_code
from .gf import _check_order, default_eval_points, is_prime_power, make_field
from .oa import build_oa_strength2, make_oa, oa_to_pt_code
from .verify import is_t_determined, lemma_t

_SLOPE_FIRST = {"q3": 3, "q4": 4}
_ONE_SHORT = "GF({}) is one point short for length {}: every parent word needs an infinity"


def _lift_words(rows: np.ndarray, m: int, t: int, points, where, star: int | None) -> np.ndarray:
    """The m**t polynomial-tagged children of every row, parent by parent.

    ``star`` is the rows' infinity, 0 or None.  ``points`` lists the
    evaluation points, ``None`` the infinity point, whose "value" is the
    leading coefficient, and ``where`` picks one of them per position, or
    per row and position (shape ``(l,)`` or ``(M, l)``), ignored at
    infinity positions.  Children follow the polynomials' coefficient
    order, low degree first.  The m**t values of every point are one tag
    table, from one :meth:`~frameproof.gf.Field.poly_table` call, which
    is then broadcast against the parent rows.
    """
    if not rows.size:  # no children
        return rows
    s = int(star is not None)
    if (int(rows.max()) - s + 1) * m + s - 1 >= _SYMBOL_LIMIT:
        raise ValueError(f"lifted symbols out of range 0..{_SYMBOL_LIMIT - 1}")
    tags = make_field(m).poly_table(t, points)[where]
    parent = rows[:, :, None]
    out = np.where(parent == star, 0, (parent - s) * m + s + tags)  # no match for None
    return out.transpose(0, 2, 1).reshape(-1, rows.shape[1])


def _seed_order(name) -> int:
    """The order s that a base name stands for: ``q3``, ``q4``, or ``oa<s>`` for a prime power s."""
    if isinstance(name, str) and name in _SLOPE_FIRST:
        return _SLOPE_FIRST[name]
    oa = isinstance(name, str) and name[:2] == "oa" and name[2:].isdecimal()
    s = _decimal(name[2:], "the s of base 'oa<s>'") if oa else 0
    if s < 2 or name != f"oa{s}" or is_prime_power(s) is None:  # ASCII digits, no leading zero
        raise ValueError(f"unknown base {_echo(name)}; choose from {sorted(_SLOPE_FIRST)} "
                         "or oa<s> for a prime power s")
    return s


def base_code(name: str) -> Code:
    """The (s, s+1, s**2 - 1, 0) seed of the strength-2 array of order s that a name stands for.

    ``oa<s>`` is ``oa_to_pt_code(build_oa_strength2(s))``; ``q3`` and ``q4``, the paper's c=2
    and c=3 bases, are the seeds of order 3 and 4 with the slope position first.
    """
    s = _seed_order(name)
    oa = build_oa_strength2(s)
    if name in _SLOPE_FIRST:  # the slope row, last, moves first
        oa = make_oa(np.roll(oa.array, 1, axis=0), s, 2)
    return oa_to_pt_code(oa)


def _admit(length: int, c, t, starred: bool) -> int:
    """t as an int, if :func:`~frameproof.verify.lemma_t` admits it for c: the lemma's refusal."""
    c, t = _check_count("c", c, 2), _check_count("t", t, 1)
    if t > (most := lemma_t(length, c, starred)):
        raise ValueError(f"lemma_t admits t <= {most} at length {length} and c={c}, got t={t}")
    return t


def _lift_shape(q: int, length: int, size: int, star, m, t, c) -> tuple[int, int, int, int | None]:
    """(q, l, M, inf) after a lift by GF(m) at t for c: the lift's word-free refusals; no field."""
    if star not in (0, None):
        raise ValueError(f"parent code's infinity must be symbol 0 or none, got {star}")
    _check_order(m)
    short = (m := int(m)) == length - 2
    default_eval_points(m, length - short)  # "too small", even one point short
    if short and size and star is None:
        raise ValueError(_ONE_SHORT.format(m, length))
    s = int(star is not None)
    return (q - s) * m + s, length, size * m ** _admit(length, c, t, bool(s)), star


def polynomial_lift(code: Code, m: int, t: int, c: int) -> Code:
    """Expand a t-determined code over a larger alphabet with polynomial tags.

    Each non-infinity symbol b at position j becomes (b-s)*m + s + y_j,
    with s = 1 if the parent's infinity is 0 and s = 0 if it has none:
    y_j is a polynomial f over GF(m) of degree < t evaluated at point j
    of ``default_eval_points(m, length)``, or f's leading coefficient at
    the infinity point.  When m = length - 2 the field is one point
    short: every parent word must carry an infinity, and each word's
    non-infinity positions take ``default_eval_points(m, length - 1)``
    in order.  The m**t polynomials multiply the size by m**t; the
    alphabet becomes (q-s)*m + s.  Two distinct output words agree in at
    most t-1 non-infinity positions (t agreements would force equal
    parents and polynomials), so the result is t-determined, and
    c-frameproof for every t that :func:`~frameproof.verify.lemma_t`
    admits.  The parent's t-determinedness is re-checked on every call.
    """
    q, length, _, star = _lift_shape(code.q, code.length, code.size, code.inf_id, m, t, c)
    short = (m := int(m)) == length - 2  # an integer, as _lift_shape checked
    stars = code.array == star  # all False without an infinity
    if short and not stars.any(axis=1).all():
        raise ValueError(_ONE_SHORT.format(m, length))
    report = is_t_determined(code, t)
    if not report.verdict:
        raise ValueError(f"parent code is not {t}-determined: {report.witness}")
    # one point short: the k-th non-infinity position of a word takes point k
    where = (~stars).cumsum(axis=1) - 1 if short else np.arange(length)
    out = _lift_words(code.array, m, t, default_eval_points(m, length - short), where, star)
    return make_code(length, q, out, inf_id=star)


def _augment_shape(q: int, length: int, size: int, star, c, t) -> tuple[int, int, int, int]:
    """(q, l, M, inf) after adjoining the all-infinity word at t for c: its word-free refusals."""
    if star is None:
        raise ValueError("code has no infinity symbol")
    _admit(length, c, t, True)
    return q, length, size + 1, star


def augment_infinity(code: Code, c: int, t: int) -> Code:
    """Adjoin the all-infinity word to a t-determined code.

    The result is c-frameproof for every t that :func:`~frameproof.verify.lemma_t`
    admits, but no longer t-determined, so augmentation comes after all
    lifts (a second augmentation fails the t-determined check).
    """
    q, length, _, star = _augment_shape(code.q, code.length, code.size, code.inf_id, c, t)
    report = is_t_determined(code, t)
    if not report.verdict:
        raise ValueError(f"code is not {t}-determined: {report.witness}")
    # first, so that with infinity 0 the rows arrive sorted and make_code need not sort them
    all_inf = np.full((1, length), star)
    return make_code(length, q, np.vstack([all_inf, code.array]), star)
