"""Recursive construction planning for the two code families, plus bounds.

The two families cover c=2 (length 4, every odd q) and c=3 (length 5,
every q congruent to 4 mod 6), each reaching (c+2)/c * (q-1)**2 + 1
words.  A plan is a replayable chain: one base code, zero or more
polynomial lifts by prime-power factors, and a final infinity
augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codes import Code
from .construct import BASE_CODE_INFO, augment_infinity, base_code, polynomial_lift
from .gf import factor_prime_powers, is_prime_power

Step = tuple  # ("base", name) | ("lift", m) | ("augment",)


@dataclass(frozen=True)
class ConstructionPlan:
    """A replayable recipe for a target (c, length, q) code of known size."""

    c: int
    length: int
    q: int
    expected_size: int
    steps: tuple[Step, ...]
    family: str

    def __post_init__(self):
        if not self.steps:
            raise ValueError("plan has no steps")
        if self.steps[0][0] != "base":
            raise ValueError("plan must start from a base code")
        for i, step in enumerate(self.steps):
            kind = step[0]
            if kind == "base":
                if i != 0 or step[1] not in BASE_CODE_INFO:
                    raise ValueError(f"bad base step {step!r}")
            elif kind == "lift":
                m = step[1]
                if is_prime_power(m) is None:
                    raise ValueError(f"lift order {m} is not a prime power")
                if m < self.length - 1:
                    raise ValueError(f"lift order {m} too small for length {self.length}")
            elif kind == "augment":
                if i != len(self.steps) - 1:
                    raise ValueError("augmentation must be the final step")
            else:
                raise ValueError(f"unknown step kind {kind!r}")


def _largest_odd_prime_power_factor(n: int, minimum: int) -> int:
    best = 0
    for p, e in factor_prime_powers(n):
        if p % 2 == 1 and p**e >= minimum:
            best = max(best, p**e)
    if best == 0:
        raise ValueError(f"{n} has no odd prime-power factor >= {minimum}")
    return best


def _chain(c: int, q: int) -> list[Step]:
    # 2-determined c-frameproof length-(c+2) code of size (c+2)/c*(q-1)**2
    bases = {info[0]: name for name, info in BASE_CODE_INFO.items() if info[3] == c}
    if q in bases:
        return [("base", bases[q])]
    m = (q - 1) // c
    if is_prime_power(m) is not None:
        return [("base", bases[c + 1]), ("lift", m)]
    pe = _largest_odd_prime_power_factor(m, c + 1)
    return _chain(c, c * m // pe + 1) + [("lift", pe)]


def plan_c2(q: int) -> ConstructionPlan:
    """Plan a q-ary 2-frameproof length-4 code of size 2*(q-1)**2 + 1, q odd."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"q must be odd and at least 3, got {q}")
    steps = tuple(_chain(2, q)) + (("augment",),)
    return ConstructionPlan(2, 4, q, 2 * (q - 1) ** 2 + 1, steps, "c2")


def plan_c3(q: int) -> ConstructionPlan:
    """Plan a q-ary 3-frameproof length-5 code of size 5/3*(q-1)**2 + 1, q = 4 mod 6."""
    if q < 4 or q % 6 != 4:
        raise ValueError(f"q must be congruent to 4 mod 6, got {q}")
    steps = tuple(_chain(3, q)) + (("augment",),)
    return ConstructionPlan(3, 5, q, 5 * (q - 1) ** 2 // 3 + 1, steps, "c3")


def plan_code(c: int, q: int) -> ConstructionPlan:
    if c == 2:
        return plan_c2(q)
    if c == 3:
        return plan_c3(q)
    raise ValueError(f"no planned family for c={c}; supported: 2, 3")


def execute_steps(steps, c: int, t: int = 2) -> Code:
    """Replay a step chain; every lift re-validates its own preconditions."""
    code = None
    for step in steps:
        kind = step[0]
        if kind == "base":
            if code is not None:
                raise ValueError("base step must come first")
            code = base_code(step[1])
        elif kind == "lift":
            if code is None:
                raise ValueError("lift step before any base")
            code = polynomial_lift(code, step[1], t, c)
        elif kind == "augment":
            if code is None:
                raise ValueError("augment step before any base")
            code = augment_infinity(code, c, t)
        else:
            raise ValueError(f"unknown step kind {kind!r}")
    if code is None:
        raise ValueError("empty step sequence")
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
        f"size={plan.expected_size} family={plan.family}"
    ]
    q = size = None
    for i, step in enumerate(plan.steps, 1):
        if step[0] == "base":
            q, _, size, _ = BASE_CODE_INFO[step[1]]
            lines.append(f"  {i}. base {step[1]}: q={q} M={size}")
        elif step[0] == "lift":
            m = step[1]
            q = (q - 1) * m + 1
            size *= m * m
            lines.append(f"  {i}. lift by GF({m}): q={q} M={size}")
        else:
            size += 1
            lines.append(f"  {i}. augment infinity: q={q} M={size}")
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


@dataclass(frozen=True)
class BoundReport:
    c: int
    length: int
    q: int
    ssw: int
    blackburn_leading: Fraction
    rate_upper: Fraction  # finite-q rate bound ssw / q**ceil(l/c)
    achieved_size: int | None = None
    achieved_rate: Fraction | None = None

    def __post_init__(self):
        if self.achieved_size is not None and self.achieved_size > self.ssw:
            raise ValueError(
                f"size {self.achieved_size} exceeds the cardinality bound {self.ssw}"
            )


def bound_report(c: int, length: int, q: int, achieved_size: int | None = None) -> BoundReport:
    bound = ssw_bound(c, length, q)
    power = q ** (-(-length // c))
    rate = None if achieved_size is None else Fraction(achieved_size, power)
    return BoundReport(
        c,
        length,
        q,
        bound,
        blackburn_leading(c, length),
        Fraction(bound, power),
        achieved_size,
        rate,
    )
