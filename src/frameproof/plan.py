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

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .codes import Code, is_integer
from .construct import BASE_CODE_INFO, augment_infinity, base_code, polynomial_lift
from .gf import factor_prime_powers, is_prime_power
from .oa import build_oa_strength2, oa_to_pt_code


def _seed_order(name) -> int | None:
    """None for a Code or a registered fixture, s for an array seed ``oa<s>``; else ValueError."""
    if isinstance(name, Code) or isinstance(name, str) and name in BASE_CODE_INFO:
        return None
    s = int(name[2:]) if isinstance(name, str) and name[2:].isdecimal() else 0
    if name != f"oa{s}" or s < 2 or is_prime_power(s) is None:
        raise ValueError(f"unknown base {name!r}; choose from {sorted(BASE_CODE_INFO)} "
                         "or oa<s> for a prime power s")
    return s


class Step(NamedTuple):
    """One plan step, t = 2 throughout.

    ``Step("base", name)`` starts from a fixture, an ``oa<s>`` array
    seed or a given :class:`~frameproof.codes.Code`, ``Step("lift", m)``
    lifts by GF(m) and ``Step("augment")`` adjoins the all-infinity word.
    """

    kind: str
    arg: str | int | Code | None = None

    def shape(self, before: tuple[int, int, int] | None) -> tuple[int, int, int]:
        """(q, l, M) after this step, from (q, l, M) before it (None before the base)."""
        if self.kind == "base":
            s = _seed_order(self.arg)
            if s is not None:
                return s, s + 1, s * s - 1
            if isinstance(self.arg, Code):
                return self.arg.q, self.arg.length, self.arg.size
            return BASE_CODE_INFO[self.arg][:3]
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
            s = _seed_order(self.arg)
            if s is not None:
                return oa_to_pt_code(build_oa_strength2(s))
            return self.arg if isinstance(self.arg, Code) else base_code(self.arg)
        if self.kind == "lift":
            return polynomial_lift(code, self.arg, 2, c)
        return augment_infinity(code, c, 2)

    def __str__(self) -> str:
        return _LABELS[self.kind].format(self.arg)


_LABELS = {"base": "base {}", "lift": "lift by GF({})", "augment": "augment infinity"}


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


def _check_c(c) -> None:
    if not is_integer(c) or c < 2:
        raise ValueError(f"c must be an integer of at least 2, got {c!r}")


def plan_code(c: int, q: int) -> ConstructionPlan:
    """Plan a q-ary c-frameproof length-(c+2) code of size (c+2)(q-1)**2/c + 1.

    c+1 must be a prime power and q = c*m + 1 reachable as the module
    docstring describes; otherwise ValueError gives the reason.
    """
    _check_c(c)
    if is_prime_power(c + 1) is None:
        raise ValueError(f"no planned family for c={c}: c+1 = {c + 1} is not a prime power")
    if not is_integer(q) or q < c + 1 or (q - 1) % c:
        raise ValueError(f"q must be 1 mod c={c} and at least {c + 1}, got {q!r}")
    steps = tuple(_chain(c, q)) + (Step("augment"),)
    return ConstructionPlan(c, c + 2, q, (c + 2) * (q - 1) ** 2 // c + 1, steps)


def execute_steps(steps, c: int) -> Code:
    """Check c and the step chain's shape, then replay it; every lift re-validates its parent."""
    _check_c(c)
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
    """Render a plan with the running (q, l, M) after each step."""
    lines = [
        f"target: c={plan.c} q={plan.q} length={plan.length} "
        f"size={plan.expected_size} family=c{plan.c}"
    ]
    for i, (step, (q, _, size)) in enumerate(zip(plan.steps, _shapes(plan.steps)), 1):
        lines.append(f"  {i}. {step}: q={q} M={size}")
    return "\n".join(lines)


# --- bounds and rates -------------------------------------------------------


def ssw_bound(c: int, length: int, q: int) -> int:
    """Classical cardinality upper bound c * (q**ceil(l/c) - 1)."""
    if c < 2 or length < 2 or q < 2:
        raise ValueError("c, length and q must all be at least 2")
    return c * (q ** (-(-length // c)) - 1)


def blackburn_leading(c: int, length: int) -> Fraction:
    """Leading coefficient of the asymptotic rate upper bound.

    With t in 1..c congruent to length mod c, the bound is
    length / (length - (t-1)*ceil(length/c)); the lower-order term of
    the underlying cardinality bound carries no explicit constant, so
    only this asymptotic coefficient is exposed.
    """
    if c < 2 or length < 2:
        raise ValueError("c and length must be at least 2")
    t = (length - 1) % c + 1
    denom = length - (t - 1) * (-(-length // c))
    if denom <= 0:
        raise ValueError(f"bound denominator {denom} is not positive")
    return Fraction(length, denom)


def achieved_rate(c: int, length: int, q: int, size: int) -> Fraction:
    """Exact rate M / q**ceil(l/c) of a code of the given size."""
    return Fraction(size, q ** (-(-length // c)))
