"""Arithmetic in finite fields GF(p**e): plain ``%`` for primes, O(m) log tables otherwise."""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .codes import _check_count, is_integer

TRIAL_DIVISION_LIMIT = 2**40  # about 0.1 s of trial division at the limit


def _least_prime_factor(n: int, p: int = 2) -> int:
    """Least prime factor of n, which has none below p; n itself when prime."""
    if n >= TRIAL_DIVISION_LIMIT:
        raise ValueError(f"{n} is too large to factor (limit 2**40)")
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1 if p == 2 else 2
    return n


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return ``(p, e)`` with ``n == p**e`` and p prime, or None."""
    factors = factor_prime_powers(n)
    return factors[0] if len(factors) == 1 else None


def factor_prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """Full prime factorisation of n grouped as ``((p, e), ...)``, p ascending."""
    n = _check_count("n", n, 2)
    out = []
    r, p = n, 2
    while r > 1:
        p = _least_prime_factor(r, p)
        e = 0
        while r % p == 0:
            r //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def _poly_mod(num, den, p: int) -> list[int]:
    """Remainder of num by monic den; coefficient vectors low-degree-first."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            shift = i - dd
            for j, d in enumerate(den):
                num[shift + j] = (num[shift + j] - c * d) % p
    return num[:dd] or [0]


def poly_is_irreducible(poly, p: int) -> bool:
    """Trial division of a monic polynomial by every monic divisor of degree <= e/2."""
    e = len(poly) - 1
    if e < 1:
        return False
    for d in range(1, e // 2 + 1):
        for low in range(p**d):
            divisor = _digits(low, p, d) + [1]
            if not any(_poly_mod(poly, divisor, p)):
                return False
    return True


def _smallest_modulus(p: int, e: int) -> tuple[int, ...]:
    # degree 1: the convention X - 0, i.e. plain arithmetic mod p
    if e == 1:
        return (0, 1)
    for n in range(p**e):
        cand = _digits(n, p, e) + [1]
        if poly_is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {e} over GF({p})")


def _powers(p: int, e: int, modulus) -> list[int]:
    """Ids of g**0, g**1, ..., g**(m-2) for the first g, in id order, of order m-1.

    m = p**e.  The constants 1..p-1 have order dividing p-1, so the search
    starts at X (element p).  Multiplication by X is one id table over all
    m elements: each element's base-p digits shift up, and the top digit
    folds back through the monic modulus.  Applying it e-1 times gives the
    ids of X**i * a, and a candidate g with digits c_i multiplies by the
    digit-wise sum of c_i * digits(X**i * a) mod p.  The walk 1, g, g**2,
    ... through that table stops as soon as it is back at 1.  Every array
    holds O(m * e) ids.  No element has order m-1 unless the modulus is
    irreducible.
    """
    m, q1 = p**e, p**e - 1
    place = p ** np.arange(e, dtype=np.int64)[:, None]
    digits = np.arange(m, dtype=np.int64) // place % p  # (e, m): digit i of every id
    shifted = np.vstack([np.zeros(m, dtype=np.int64), digits[:-1]])  # X * a before the fold
    shifted -= np.array(modulus[:e], dtype=np.int64)[:, None] * digits[-1]  # X**e = -low terms
    times_x = (shifted % p * place).sum(axis=0)
    xs = [np.arange(m, dtype=np.int64)]  # xs[i][a] is the id of X**i * a
    for _ in range(e - 1):
        xs.append(times_x[xs[-1]])
    for g in range(p, m):
        acc = sum(c * digits[:, x] for c, x in zip(_digits(g, p, e), xs) if c)
        table = (acc % p * place).sum(axis=0).tolist()
        exp, power = [1], table[1]
        while power != 1 and len(exp) < q1:
            exp.append(power)
            power = table[power]
        if len(exp) == q1 and power == 1:
            return exp
    raise ValueError(f"no primitive element: {tuple(modulus)} is not irreducible over GF({p})")


class Field:
    """GF(p**e) with elements 0..p**e-1 encoding coefficient vectors as base-p integers.

    Canonical element order is the id order, so element 0 is zero,
    elements 1..p-1 are the prime-field constants, and element p is the
    residue of X.  Prime fields (e = 1) compute with plain ``%`` and keep
    no table.  An extension field builds three O(m) tables once: powers
    and discrete logarithms of a primitive element g, and Zech logarithms
    ``log(1 + g**n)`` for addition, which inverses read too.  The
    search for g (:func:`_powers`) costs one multiply-by-g id table per
    candidate, O(m * e**2) numpy work, and a walk of g's powers through
    it.  Every operation is then a few list reads, and nothing grows as
    O(m**2).
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = tuple(modulus)
        if e == 1:
            return
        m, q1 = self.order, self.order - 1
        exp = _powers(p, e, self.modulus)
        # Logs run over 0..q1-1.  Zero gets log z = 3*q1, past any sum of
        # two logs, and the exp table cycles below z and reads 0 from z to
        # 2*z, so exp[log[a] + log[b]] is a*b for zero operands too.
        z = 3 * q1
        log = [z] * m
        for k, a in enumerate(exp):
            log[a] = k
        # 1 + a only changes a's constant digit.  Indexed by lb - la + q1: two periods cover
        # every difference of two logs, and zero padding past them makes lb = z add nothing.
        zech = [log[a + 1 - p if a % p == p - 1 else a + 1] for a in exp]
        self._zech = zech * 2 + [0] * (2 * m - 1)
        self._exp = exp * 3 + [0] * (z + 1)
        self._log = log

    def _element(self, a) -> int:
        if type(a) is not int and not is_integer(a):  # numpy integers pass; bools do not
            raise TypeError(f"element {a!r} is not an integer")
        if not 0 <= (a := int(a)) < self.order:
            raise ValueError(f"element {a} out of range 0..{self.order - 1}")
        return a

    def add(self, a: int, b: int) -> int:
        a, b = self._element(a), self._element(b)
        if self.e == 1:
            return (a + b) % self.p
        if not (a and b):
            return a or b
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la + self.order - 1]]

    def mul(self, a: int, b: int) -> int:
        a, b = self._element(a), self._element(b)
        if self.e == 1:
            return a * b % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        a = self._element(a)
        if a == 0:
            raise ValueError("zero has no inverse")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self._exp[self.order - 1 - self._log[a]]

    def eval_poly(self, coeffs, point: int) -> int:
        """Horner evaluation with checked ``add`` and ``mul``; ``coeffs`` is low-degree-first.

        :meth:`poly_table` evaluates all m**t polynomials of degree below t at once.
        """
        point = self._element(point)
        acc = 0
        for c in reversed(tuple(coeffs)):
            acc = self.add(self.mul(acc, point), c)
        return acc

    def poly_table(self, t: int, points) -> np.ndarray:
        """The values of all m**t polynomials of degree below t, one row per point of ``points``.

        Polynomials are low-degree-first coefficient tuples in
        ``itertools.product(range(m), repeat=t)`` order.  ``None`` is the
        infinity point, whose value is the leading coefficient.  Horner's
        rule runs on the whole table at once: each step multiplies every
        row's values so far by its point and adds every constant c to
        them, as block c of the row's next values.  A prime field adds
        with ``%``; an extension field reads the sums from an m x m table
        built with the Zech logarithms.  Infinity rows run at point 0 and
        are then overwritten with the leading coefficients.
        """
        t = _check_count("t", t, 1)
        m = self.order
        points = tuple(points)
        at = [0 if a is None else self._element(a) for a in points]
        elements = np.arange(m, dtype=np.int64)
        values = np.tile(elements, (len(at), 1))  # the leading coefficients
        x = np.array(at, dtype=np.int64)[:, None]
        if self.e > 1 and t > 1:
            exp, log, zech = self._tables
            lx, lc = log[x], log[1:, None]  # c = 1..m-1
            # c + a = g**lc * (1 + g**(la - lc)); for a = 0, la = 3*(m-1) reads 0
            # from the Zech padding, which leaves c
            sums = np.vstack([elements, exp[lc + zech[log + (m - 1 - lc)]]])
        for size in (m**k for k in range(2, t + 1)):
            if self.e == 1:
                values = elements[:, None] + (values * x)[:, None]
                values %= m
            else:  # the log of zero reads 0 from exp
                values = sums[elements[:, None], exp[log[values] + lx][:, None]]
            values = values.reshape(len(at), size)
        values[[i for i, a in enumerate(points) if a is None]] = np.tile(elements, m ** (t - 1))
        return values

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Extension-field exp, log and Zech arrays, built on first use from the lists.

        The Zech array has the one layout that :meth:`add` reads, indexed
        by ``la - lc + (m-1)``.
        """
        return np.array(self._exp), np.array(self._log), np.array(self._zech)

    def __repr__(self) -> str:
        return f"GF({self.order})"


def _check_order(m) -> tuple[int, int]:
    """``(p, e)`` with ``m == p**e``, or ValueError, without building the field."""
    pe = is_prime_power(_check_count("m", m, 2))
    if pe is None:
        raise ValueError(f"{m} is not a prime power")
    return pe


@lru_cache(maxsize=None, typed=True)  # 9.0 must not find the field of np.int64(9)
def make_field(m: int) -> Field:
    p, e = _check_order(m)
    return Field(p, e, _smallest_modulus(p, e))


def default_eval_points(m: int, length: int) -> tuple[int | None, ...]:
    """The first ``length`` canonical field elements, then the infinity point ``None`` if needed.

    The lift (word by word at l - 1 of them when m = l - 2) and the array
    builder (at all s + 1) evaluate :meth:`Field.poly_table` at these
    points, so they are part of the reproducibility contract.
    """
    m, length = _check_count("m", m, 2), _check_count("length", length, 1)
    if m < length - 1:
        raise ValueError(f"field order {m} too small for length {length}")
    if length <= m:
        return tuple(range(length))
    return tuple(range(m)) + (None,)


def leading_coeff(coeffs, t: int) -> int:
    """Coefficient of X**(t-1) in a polynomial of degree at most t-1."""
    coeffs, t = tuple(coeffs), _check_count("t", t, 1)
    if any(coeffs[i] for i in range(t, len(coeffs))):
        raise ValueError(f"polynomial degree exceeds {t - 1}")
    return coeffs[t - 1] if len(coeffs) >= t else 0
