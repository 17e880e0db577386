"""Built-in base codes and the alphabet-expanding composition operators.

Every tagged code comes from one operation, :func:`_lift_words`: each
non-infinity symbol b is paired with the value y of a polynomial over
GF(m) and flattened to ``(b-1)*m + y + 1``, infinity staying 0.
:func:`polynomial_lift` is its one caller: one evaluation point per
position, or, when the field is one point short, points that follow
each word's non-infinity positions.
"""

from __future__ import annotations

import numpy as np

from .codes import Code, _check_count, make_code
from .gf import make_field
from .verify import is_t_determined

# Fixture word patterns.  A pattern entry is None for an infinity slot or
# the shift added to the running index i (symbol (i+shift) mod k, encoded
# as value+1 with infinity as 0).
_PLAIN_BASES = {
    "q3": (2, (
        (None, 0, 0, 0),
        (0, None, 0, 1),
        (0, 1, None, 0),
        (0, 0, 1, None),
    )),
    "q4": (3, (
        (None, 0, 0, 0, 0),
        (0, None, 0, 1, 2),
        (0, 0, None, 2, 1),
        (0, 1, 2, None, 0),
        (0, 2, 1, 0, None),
    )),
}

# name -> (q, length, size, c): k symbols and infinity, k words per pattern, for c = k
BASE_CODE_INFO = {name: (k + 1, len(patterns[0]), k * len(patterns), k)
                  for name, (k, patterns) in _PLAIN_BASES.items()}


def _lift_words(rows: np.ndarray, m: int, t: int, points) -> np.ndarray:
    """The m**t polynomial-tagged children of every row, parent by parent.

    ``points`` holds one evaluation point per position, or per row and
    position (shape ``(l,)`` or ``(M, l)``); m stands for the infinity
    point, whose "value" is the leading coefficient.  The point at an
    infinity position is ignored.  Children follow the polynomials'
    coefficient order, low degree first.  Each point's m**t values are
    computed once, by :meth:`~frameproof.gf.Field.poly_values`, into a
    tag table, which is then broadcast against the parent rows.
    """
    if not rows.size:  # no children, and per-row points would name no point
        return rows
    if (int(rows.max()) - 1) * m + m >= 2**63:
        raise ValueError(f"lifted symbols out of range 0..{2**63 - 1}")
    field = make_field(m)
    used, where = np.unique(points, return_inverse=True)
    tags = np.stack([field.poly_values(t, None if alpha == m else alpha)
                     for alpha in used.tolist()])[where.reshape(np.shape(points))]
    parent = rows[:, :, None]
    out = np.where(parent == 0, 0, (parent - 1) * m + 1 + tags)
    return out.transpose(0, 2, 1).reshape(-1, rows.shape[1])


def base_code(name: str) -> Code:
    """One of the two hand-made 2-determined base codes, ``q3`` and ``q4``."""
    if name not in _PLAIN_BASES:
        raise ValueError(f"unknown base code {name!r}; choose from {sorted(BASE_CODE_INFO)}")
    k, patterns = _PLAIN_BASES[name]
    words = [
        tuple(0 if e is None else (i + e) % k + 1 for e in pattern)
        for pattern in patterns
        for i in range(k)
    ]
    q, length, _, _ = BASE_CODE_INFO[name]
    return make_code(length, q, words, inf_id=0)


def default_eval_points(m: int, length: int) -> tuple[int | None, ...]:
    """The first ``length`` canonical field elements, infinity last if needed.

    ``None`` stands for the infinity point.  :func:`polynomial_lift`
    evaluates at these points (word by word at l - 1 of them when m = l - 2),
    so they are part of the reproducibility contract.
    """
    m, length = _check_count("m", m, 2), _check_count("length", length, 1)
    if m < length - 1:
        raise ValueError(f"field order {m} too small for length {length}")
    if length <= m:
        return tuple(range(length))
    return tuple(range(m)) + (None,)


def _check_shape(length: int, c: int, t: int) -> None:
    _check_count("c", c, 2)
    _check_count("t", t, 1)
    if c < t:
        raise ValueError(f"need c >= t, got c={c}, t={t}")
    r = length - c * (t - 1)
    if not t <= r <= c:
        raise ValueError(
            f"length {length} is not c*(t-1)+r with r in {{t..c}} for c={c}, t={t}"
        )


def polynomial_lift(code: Code, m: int, t: int, c: int) -> Code:
    """Expand a t-determined code over a larger alphabet with polynomial tags.

    Every non-infinity parent symbol b at position j becomes the
    flattened pair (b-1)*m + y_j + 1, where for a polynomial f over
    GF(m) of degree < t and points = ``default_eval_points(m, length)``

        y_j = f(points[j])   at an ordinary evaluation point,
        y_j = lead(f)        when points[j] is the infinity point,

    and infinity positions stay infinity (0).  When m = length - 2 the
    field is one point short: every parent word must then carry an
    infinity, and each word's non-infinity positions take
    ``default_eval_points(m, length - 1)`` in order.  Running f over all
    m**t polynomials multiplies the size by m**t and grows the alphabet
    to q = (s-1)*m + 1.  Two distinct output words can agree in at most
    t-1 non-infinity positions (t agreements would force equal parents
    and equal polynomials), so the result is again c-frameproof and
    t-determined whenever length = c*(t-1)+r with r in {t..c}.

    The parent's t-determinedness is re-verified on every call; its
    frameproofness follows from that check and the length arithmetic,
    so no expensive coalition search runs here.
    """
    length = code.length
    if code.inf_id != 0:
        raise ValueError("parent code must designate infinity as symbol 0")
    m = make_field(m).order
    short = m == length - 2
    # point ids, m standing for the infinity point
    pts = np.array([m if p is None else p for p in default_eval_points(m, length - short)])
    if short and (code.array != 0).all(axis=1).any():
        raise ValueError(f"GF({m}) is one point short for length {length}: "
                         "every parent word needs an infinity")
    _check_shape(length, c, t)
    report = is_t_determined(code, t)
    if not report.verdict:
        raise ValueError(f"parent code is not {t}-determined: {report.witness}")
    # one point short: the k-th non-infinity position of a word takes point k
    out = _lift_words(code.array, m, t, pts[(code.array != 0).cumsum(axis=1) - 1] if short else pts)
    lifted = make_code(length, (code.q - 1) * m + 1, out, inf_id=0)
    assert lifted.size == code.size * m**t
    return lifted


def augment_infinity(code: Code, c: int, t: int) -> Code:
    """Adjoin the all-infinity word to a t-determined code.

    The enlarged code is still c-frameproof: coalition members carry too
    few infinity entries to assemble the new word, and the new word
    contributes nothing towards framing anybody else.  The output is no
    longer t-determined, so augmentation must come after all lifts (a
    second augmentation fails the t-determined check).
    """
    if code.inf_id is None:
        raise ValueError("code has no infinity symbol")
    _check_shape(code.length, c, t)
    report = is_t_determined(code, t)
    if not report.verdict:
        raise ValueError(f"code is not {t}-determined: {report.witness}")
    # first, so that with infinity 0 the rows arrive sorted and make_code need not sort them
    all_inf = np.full((1, code.length), code.inf_id)
    return make_code(code.length, code.q, np.vstack([all_inf, code.array]), code.inf_id)
