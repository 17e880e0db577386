"""The two named base codes, their short lifts, and what makes them special.

q3 and q4 are the seeds of the strength-2 orthogonal arrays of order 3
and 4 (``oa3`` and ``oa4``) with the slope position moved first.  Each
base code designates symbol 0 as the infinity (star) marker.  Every
word carries at most one star, and any two non-star agreements pin a
word down uniquely ("2-determined"), which is exactly the structure the
lift construction needs.  Lifting q3 by GF(2) and q4 by GF(3), fields
one point short of the length, gives the q=5 and q=10 codes: every word
has a star, so each word's other positions still get distinct points.
"""

from frameproof import (
    base_code,
    code_to_text,
    polynomial_lift,
    is_frameproof_cover,
    is_t_determined,
    ssw_bound,
)

for name, c in (("q3", 2), ("q4", 3)):
    base = base_code(name)
    # c = length - 2: GF(c) has one point too few for every position
    lifted = polynomial_lift(base, c, 2, c)
    for label, code in ((name, base), (f"{name} lifted by GF({c})", lifted)):
        fp = is_frameproof_cover(code, c)
        det = is_t_determined(code, 2)
        bound = ssw_bound(c, code.length, code.q)
        print(
            f"{label:>18}: q={code.q:2d} l={code.length} M={code.size:3d}  "
            f"{c}-frameproof={fp.verdict}  2-determined={det.verdict}  "
            f"cardinality bound={bound}"
        )

print("\nthe smallest base code in file form:")
print(code_to_text(base_code("q3")), end="")

print("one star per word, in each position twice: the 9 columns of oa3 less the all-zero one.")
