"""The two hand-made base codes, their short lifts, and what makes them special.

Each base code designates symbol 0 as the infinity (star) marker.  Every
word carries at most one star, and any two non-star agreements pin a
word down uniquely ("2-determined"), which is exactly the structure the
lift construction needs.  Lifting q3 by GF(2) and q4 by GF(3), fields
one point short of the length, gives the q=5 and q=10 codes: every word
has a star, so each word's other positions still get distinct points.
"""

from frameproof import (
    BASE_CODE_INFO,
    base_code,
    code_to_text,
    polynomial_lift,
    is_frameproof_cover,
    is_t_determined,
    ssw_bound,
)

for name, (q, length, size, c) in sorted(BASE_CODE_INFO.items(), key=lambda kv: kv[1][0]):
    base = base_code(name)
    # c = length - 2: GF(c) has one point too few for every position
    lifted = polynomial_lift(base, c, 2, c)
    for label, code in ((name, base), (f"{name} lifted by GF({c})", lifted)):
        fp = is_frameproof_cover(code, c)
        det = is_t_determined(code, 2)
        bound = ssw_bound(c, length, code.q)
        print(
            f"{label:>18}: q={code.q:2d} l={length} M={code.size:3d}  "
            f"{c}-frameproof={fp.verdict}  2-determined={det.verdict}  "
            f"cardinality bound={bound}"
        )

print("\nthe smallest base code in file form:")
print(code_to_text(base_code("q3")), end="")

print("every star pattern appears once per position, shifted copies fill the rest.")
