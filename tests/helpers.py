"""Pure-Python reference implementations the fast checks are compared against."""

from collections import Counter
from itertools import combinations, product

from frameproof import Witness, leading_coeff, make_field


def reference_t_determined(code, t: int):
    """The word-by-word t-determinedness loop, kept as the reference.

    Returns ``(verdict, witness, subsets_examined)`` for comparison with
    :func:`frameproof.is_t_determined`.
    """
    inf = code.inf_id
    if inf is None:
        raise ValueError("code has no infinity symbol")
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


def reference_lift_words(words, m: int, t: int, points_of):
    """The word-by-word polynomial lift, kept as the reference.

    ``points_of(word)`` gives one evaluation point per position (``None``
    is the infinity point, whose "value" is the leading coefficient).
    Returns the m**t children of every word, parent by parent, in the
    polynomials' coefficient order, for comparison with
    ``frameproof.construct._lift_words``.
    """
    field = make_field(m)
    polys = list(product(range(m), repeat=t))
    stars = (0,) * len(polys)
    values = {}
    out = []
    for word in words:
        columns = []
        for b, alpha in zip(word, points_of(word)):
            if b == 0:
                columns.append(stars)
                continue
            if alpha not in values:
                values[alpha] = [
                    leading_coeff(f, t) if alpha is None else field.eval_poly(f, alpha)
                    for f in polys
                ]
            base = (b - 1) * m + 1
            columns.append([base + y for y in values[alpha]])
        out.extend(zip(*columns))
    return out
