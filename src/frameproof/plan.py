"""One planner for R_{c,c+2} = (c+2)/c: every c >= 2 with c+1 a prime power.

A plan is a replayable chain of typed :class:`Step` values: one base, polynomial lifts, then the
all-infinity word, reaching a c-frameproof length-(c+2) code of (c+2)/c * (q-1)**2 + 1 words.  The
base is the seed of the strength-2 array of order c+1, ``oa<c+1>``, with its slope position first
for c=2 and c=3 (``q3`` and ``q4``).  With q - 1 = c*m, q is reachable exactly when every full
prime-power factor of m is at least c.  The chain lifts last by the largest odd such factor above c
(an even one if none is odd), recurses on (q-1)/factor + 1 until it meets the base, and lifts first
by a factor equal to c, whose field is one point short of the length.  A :class:`ConstructionPlan`
is c and its steps.  Before any word exists, it reads each step's shape, the (q, l, M, inf) of a
``.fpc`` header, the last being its target, from construct's word-free rules (``_lift_shape``,
``_augment_shape`` and the lemma's ``_admit``); :func:`execute_plan` checks each code against them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .codes import Code, _check_count, _decimal, _echo
from .construct import (_SLOPE_FIRST, _augment_shape, _lift_shape, _seed_order, augment_infinity,
                        base_code, polynomial_lift)
from .gf import factor_prime_powers, is_prime_power


def _base(arg) -> tuple[tuple[int, int, int, int | None], Callable[[], Code]]:
    """The (q, l, M, inf) of a base and its builder: a Code, or a name that ``base_code`` builds."""
    if isinstance(arg, Code):
        return (arg.q, arg.length, arg.size, arg.inf_id), lambda: arg
    s = _seed_order(arg)
    return (s, s + 1, s * s - 1, 0), lambda: base_code(arg)


class Step(NamedTuple):
    """One plan step, t = 2 throughout.

    ``Step("base", name)`` starts from a named array seed (``q3``, ``q4``
    or ``oa<s>``) or a given :class:`~frameproof.codes.Code`, ``Step("lift", m)``
    lifts by GF(m) and ``Step("augment")`` adjoins the all-infinity word.
    A step prints as :func:`parse_steps` reads it, except a base Code, which prints
    as its repr and which :func:`format_plan`'s ``steps:`` line leaves out.
    """

    kind: str
    arg: str | int | Code | None = None

    def shape(self, before: tuple[int, int, int, int | None] | None, c: int) -> tuple:
        """(q, l, M, inf) after this step for c, refused as its builder and ``_admit`` do."""
        if self.kind == "base":
            return _base(self.arg)[0]
        if self.kind == "lift":
            return _lift_shape(*before, self.arg, 2, c)
        if self.kind == "augment":
            if self.arg is not None:
                raise ValueError(f"augment takes no argument, got {self.arg!r}")
            return _augment_shape(*before, c, 2)
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
    """The ``;``-separated steps ``base NAME``, ``lift M`` and ``augment``; blanks are ``()``."""
    steps = []
    for text in spec.split(";") if spec.strip() else ():
        match text.split():
            case ["base", name]:
                steps.append(Step("base", name))
            case ["lift", m] if m.isascii() and m.isdecimal():
                steps.append(Step("lift", _decimal(m, "the M of step 'lift M'")))
            case ["augment"]:
                steps.append(Step("augment"))
            case _:
                raise ValueError(
                    f"step {_echo(text.strip())} is not 'base NAME', 'lift M' or 'augment'")
    return tuple(steps)


def _shapes(steps, c) -> list[tuple[int, int, int, int | None]]:
    """The (q, l, M, inf) after each step: c, one base, lifts, an augment, each step's rules."""
    _check_count("c", c, 2)
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
        shapes.append(step.shape(shapes[-1] if shapes else None, c))
    return shapes


@dataclass(frozen=True)
class ConstructionPlan:
    """Steps for c; ``shapes`` holds each step's (q, l, M, inf), and the target is the last."""

    c: int
    steps: tuple[Step, ...]
    shapes: tuple[tuple, ...] = field(init=False, repr=False, compare=False)
    q = property(lambda self: self.shapes[-1][0])
    length = property(lambda self: self.shapes[-1][1])
    expected_size = property(lambda self: self.shapes[-1][2])

    def __post_init__(self):
        object.__setattr__(self, "shapes", tuple(_shapes(self.steps, self.c)))
        object.__setattr__(self, "c", int(self.c))
        object.__setattr__(self, "steps", tuple(self.steps))  # so no step can leave its shape


def _chain(c: int, q: int) -> list[Step]:
    """Base and lifts to (c+2)/c*(q-1)**2 words; the recursion, unrolled so errors name q."""
    base = next((name for name, s in _SLOPE_FIRST.items() if s == c + 1), f"oa{c + 1}")
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
    q = _check_count("q", q, c + 1)
    if (q - 1) % c:
        raise ValueError(f"q must be 1 mod c={c}, got {q}")
    plan = ConstructionPlan(c, tuple(_chain(c, q)) + (Step("augment"),))
    if plan.shapes[-1] != (want := (q, c + 2, (c + 2) * (q - 1) ** 2 // c + 1, 0)):
        raise RuntimeError(f"plan for c={c} q={q} reaches {plan.shapes[-1]}, expected {want}")
    return plan


def execute_plan(plan: ConstructionPlan) -> Code:
    """Build a plan step by step; each step's code must have the (q, l, M, inf) planned for it."""
    code = None
    for i, (step, want) in enumerate(zip(plan.steps, plan.shapes), 1):
        code = step.build(code, plan.c)
        if (got := (code.q, code.length, code.size, code.inf_id)) != want:
            raise RuntimeError(f"step {i} ({step}) produced (q, l, M, inf)={got}, expected {want}")
    return code


def execute_steps(steps, c: int) -> Code:
    """Plan the chain for c and build it: ``execute_plan(ConstructionPlan(c, steps))``."""
    return execute_plan(ConstructionPlan(c, steps))


def format_plan(plan: ConstructionPlan) -> str:
    """Render a plan with the running (q, M) after each step.

    The last line, ``steps: ...``, is the chain that :func:`parse_steps` reads back;
    for a base Code it lists the steps after the base, which ``construct --in`` replays.
    """
    lines = [f"target: c={plan.c} q={plan.q} length={plan.length} size={plan.expected_size}"]
    for i, (step, (q, _, size, _)) in enumerate(zip(plan.steps, plan.shapes), 1):
        lines.append(f"  {i}. {step}: q={q} M={size}")
    chain = plan.steps[1:] if isinstance(plan.steps[0].arg, Code) else plan.steps
    lines.append(f"steps: {'; '.join(map(str, chain))}")
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
