"""Planned code families and how close they get to the rate bound.

For length l = c+2 the asymptotic rate bound is (c+2)/c.  The planner
reaches (c+2)/c * (q-1)**2 + 1 words for every c with c+1 a prime
power: every odd q (c=2), every q = 4 mod 6 (c=3), and for other c
every q = c*m + 1 whose m has all its prime-power factors at least c+1,
by factoring q-1 and chaining lifts; rates then climb towards the bound
as q grows.
"""

from fractions import Fraction

from frameproof import (
    Step,
    achieved_rate,
    blackburn_leading,
    execute_plan,
    execute_steps,
    format_plan,
    plan_code,
    ssw_bound,
)

print("a plan is a replayable chain of steps:")
print(format_plan(plan_code(2, 45)), "\n")

families = (
    (2, (3, 7, 15, 25, 45, 101)),
    (3, (4, 10, 22, 46, 112)),
    (4, (5, 21, 29, 45, 141)),
    (6, (7, 43, 55)),
)
for c, qs in families:
    leading = blackburn_leading(c, c + 2)
    print(f"c={c}, length {c + 2}, asymptotic rate bound {leading} = {float(leading):.4f}")
    print("      q       M      bound    rate")
    for q in qs:
        if c == 3 and q == 112:
            # array-seeded relative of the family
            code = execute_steps((Step("base", "oa4"), Step("lift", 37)), 3)
        else:
            code = execute_plan(plan_code(c, q))
        rate = achieved_rate(c, code.length, q, code.size)
        print(
            f"  {q:5d} {code.size:7d} {ssw_bound(c, code.length, q):8d}"
            f"  {float(rate):.4f}"
        )
    print()

print("exactness matters: rates are Fractions, so comparisons are decidable:")
rate = achieved_rate(2, 4, 101, 20001)
floor = 2 * (1 - Fraction(1, 50))
print(f"  rate(q=101) = {rate} > {floor} = 2*(1 - 1/50): {rate > floor}")
