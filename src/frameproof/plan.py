"""One planner for R_{c,c+2} = (c+2)/c: every c >= 2 with c+1 a prime power.

A plan is a replayable chain of typed :class:`Step` values: one base,
polynomial lifts, then the all-infinity word, reaching a c-frameproof
length-(c+2) code of (c+2)/c * (q-1)**2 + 1 words.  The base is q3 for
c=2, q4 for c=3, else ``oa<c+1>``, the seed read off the strength-2
array of order c+1.  With q - 1 = c*m, q is reachable exactly when every
full prime-power factor of m is at least c.  The chain lifts last by the
largest odd such factor above c (an even one if none is odd), recurses
on (q-1)/factor + 1 until it meets the base, and lifts first by a factor
equal to c, whose field is one point short of the length.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .codes import Code, _check_count, is_integer
from .construct import BASE_CODE_INFO, augment_infinity, base_code, polynomial_lift
from .gf import factor_prime_powers, is_prime_power
from .oa import build_oa_strength2, oa_to_pt_code


def _base(arg) -> tuple[tuple[int, int, int], Callable[[], Code]]:
    """The (q, l, M) of a base and its builder: a Code, a fixture name or an ``oa<s>`` seed."""
    if isinstance(arg, Code):
        return (arg.q, arg.length, arg.size), lambda: arg
    if isinstance(arg, str) and arg in BASE_CODE_INFO:
        return BASE_CODE_INFO[arg][:3], lambda: base_code(arg)
    s = int(arg[2:]) if isinstance(arg, str) and arg[2:].isdecimal() else 0
    if arg != f"oa{s}" or s < 2 or is_prime_power(s) is None:
        raise ValueError(f"unknown base {arg!r}; choose from {sorted(BASE_CODE_INFO)} "
                         "or oa<s> for a prime power s")
    return (s, s + 1, s * s - 1), lambda: oa_to_pt_code(build_oa_strength2(s))


class Step(NamedTuple):
    """One plan step, t = 2 throughout.

    ``Step("base", name)`` starts from a fixture, an ``oa<s>`` array
    seed or a given :class:`~frameproof.codes.Code`, ``Step("lift", m)``
    lifts by GF(m) and ``Step("augment")`` adjoins the all-infinity word.
    A step prints as :func:`parse_steps` reads it.
    """

    kind: str
    arg: str | int | Code | None = None

    def shape(self, before: tuple[int, int, int] | None) -> tuple[int, int, int]:
        """(q, l, M) after this step, from (q, l, M) before it (None before the base)."""
        if self.kind == "base":
            return _base(self.arg)[0]
        q, length, size = before
        if self.kind == "lift":
            m = self.arg
            if not is_integer(m) or m < 2 or is_prime_power(m) is None:
                raise ValueError(f"lift order {m!r} is not a prime power")
            if m < length - 2:
                raise ValueError(f"lift order {m} too small for length {length}")
            return (q - 1) * m + 1, length, size * m * m
        if self.kind == "augment":
            return q, length, size + 1
        raise ValueError(f"unknown step kind {self.kind!r}")

    def build(self, code: Code | None, c: int) -> Code:
        """Run this step on the code built so far; each call re-checks its own preconditions."""
        if self.kind == "base":
            return _base(self.arg)[1]()
        if self.kind == "lift":
            return polynomial_lift(code, self.arg, 2, c)
        return augment_infinity(code, c, 2)

    def __str__(self) -> str:
        return self.kind if self.arg is None else f"{self.kind} {self.arg}"


def parse_steps(spec: str) -> tuple[Step, ...]:
    """The ``;``-separated steps ``base NAME``, ``lift M`` and ``augment`` of a chain spec."""
    steps = []
    for text in spec.split(";"):
        match text.split():
            case ["base", name]:
                steps.append(Step("base", name))
            case ["lift", m] if m.isascii() and m.isdecimal():
                steps.append(Step("lift", int(m)))
            case ["augment"]:
                steps.append(Step("augment"))
            case _:
                raise ValueError(
                    f"step {text.strip()!r} is not 'base NAME', 'lift M' or 'augment'")
    return tuple(steps)


def _shapes(steps) -> list[tuple[int, int, int]]:
    """The (q, l, M) after each step, checking the chain is one base, lifts, an augment."""
    if not steps:
        raise ValueError("plan has no steps")
    shapes = []
    for i, step in enumerate(steps):
        if not isinstance(step, Step):
            raise ValueError(f"step {step!r} is not a Step")
        if (step.kind == "base") != (i == 0):
            raise ValueError("a plan must start from its one base step")
        if i and steps[i - 1].kind == "augment":
            raise ValueError("augmentation must be the final step")
        shapes.append(step.shape(shapes[-1] if shapes else None))
    return shapes


@dataclass(frozen=True)
class ConstructionPlan:
    """A replayable recipe for a target (c, length, q) code of known size."""

    c: int
    length: int
    q: int
    expected_size: int
    steps: tuple[Step, ...]

    def __post_init__(self):
        _shapes(self.steps)


def _chain(c: int, q: int) -> list[Step]:
    """Base and lifts to (c+2)/c*(q-1)**2 words; the recursion, unrolled so errors name q."""
    base = next((name for name, info in BASE_CODE_INFO.items() if info[3] == c), f"oa{c + 1}")
    lifts, inner = [], q
    while inner > c + 1:
        factors = [p**e for p, e in factor_prime_powers((inner - 1) // c)]
        if min(factors) < c:
            raise ValueError(
                f"q={q} is out of reach for c={c}: (q-1)/c = {(q - 1) // c} has the "
                f"prime-power factor {min(factors)}, below c = {c}"
            )
        big = [f for f in factors if f > c] or factors  # a factor c is lifted by first
        f = max([f for f in big if f % 2] or big)
        lifts.insert(0, Step("lift", f))
        inner = (inner - 1) // f + 1
    return [Step("base", base)] + lifts


def plan_code(c: int, q: int) -> ConstructionPlan:
    """Plan a q-ary c-frameproof length-(c+2) code of size (c+2)(q-1)**2/c + 1.

    c+1 must be a prime power and q = c*m + 1 reachable as the module
    docstring describes; otherwise ValueError gives the reason.
    """
    c = _check_count("c", c, 2)
    if is_prime_power(c + 1) is None:
        raise ValueError(f"no planned family for c={c}: c+1 = {c + 1} is not a prime power")
    if not is_integer(q) or q < c + 1 or (q - 1) % c:
        raise ValueError(f"q must be 1 mod c={c} and at least {c + 1}, got {q!r}")
    steps = tuple(_chain(c, q)) + (Step("augment"),)
    return ConstructionPlan(c, c + 2, q, (c + 2) * (q - 1) ** 2 // c + 1, steps)


def execute_steps(steps, c: int) -> Code:
    """Check c and the step chain's shape, then replay it; every lift re-validates its parent."""
    c = _check_count("c", c, 2)
    _shapes(steps)
    code = None
    for step in steps:
        code = step.build(code, c)
    return code


def execute_plan(plan: ConstructionPlan) -> Code:
    """Replay a plan and insist the result matches its declared target."""
    code = execute_steps(plan.steps, plan.c)
    got = (code.q, code.length, code.size)
    want = (plan.q, plan.length, plan.expected_size)
    if got != want:
        raise RuntimeError(f"plan produced (q, l, M)={got}, expected {want}")
    return code


def format_plan(plan: ConstructionPlan) -> str:
    """Render a plan with the running (q, M) after each step.

    The last line, ``steps: ...``, is the chain that :func:`parse_steps` reads back.
    """
    lines = [f"target: c={plan.c} q={plan.q} length={plan.length} size={plan.expected_size}"]
    for i, (step, (q, _, size)) in enumerate(zip(plan.steps, _shapes(plan.steps)), 1):
        lines.append(f"  {i}. {step}: q={q} M={size}")
    lines.append(f"steps: {'; '.join(map(str, plan.steps))}")
    return "\n".join(lines)


# --- bounds and rates -------------------------------------------------------


def ssw_bound(c: int, length: int, q: int) -> int:
    """Classical cardinality upper bound c * (q**ceil(l/c) - 1)."""
    c, length = _check_count("c", c, 2), _check_count("length", length, 2)
    q = _check_count("q", q, 2)
    return c * (q ** (-(-length // c)) - 1)


def blackburn_leading(c: int, length: int) -> Fraction:
    """Leading coefficient of the asymptotic rate upper bound.

    With t in 1..c congruent to length mod c, the bound is
    length / (length - (t-1)*ceil(length/c)); the lower-order term of
    the underlying cardinality bound carries no explicit constant, so
    only this asymptotic coefficient is exposed.
    """
    c, length = _check_count("c", c, 2), _check_count("length", length, 2)
    t = (length - 1) % c + 1
    # with length = a*c + t the denominator is a*(c - t + 1) + 1, at least 1
    denom = length - (t - 1) * (-(-length // c))
    return Fraction(length, denom)


def achieved_rate(c: int, length: int, q: int, size: int) -> Fraction:
    """Exact rate M / q**ceil(l/c) of a code of the given size."""
    c, length = _check_count("c", c, 2), _check_count("length", length, 2)
    q, size = _check_count("q", q, 2), _check_count("size", size, 0)
    return Fraction(size, q ** (-(-length // c)))
