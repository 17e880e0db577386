"""Orthogonal arrays as a second source of base codes.

A strength-2, index-1 array over s symbols has the property that any two
rows show every symbol pair exactly once.  Its columns therefore pairwise
agree in at most one row, which is precisely the 2-determined structure
the lift construction wants, and it exists for every prime power s.
"""

import numpy as np

from frameproof import (
    achieved_rate,
    build_oa_strength2,
    is_frameproof_cover,
    is_t_determined,
    make_code,
    make_oa,
    oa_to_pt_code,
    polynomial_lift,
    verify_oa,
)
from frameproof.verify import lemma_t

oa = build_oa_strength2(3)
print(oa)
print(np.array2string(oa.array), "\n")

print("exhaustive balance check:", verify_oa(oa).verdict)

# Per-row symbol swaps keep the balance; use them to zero out a column:
# in each row, swap the column's entry v with the star symbol 0.
v = oa.array[:, 4:5]
norm = make_oa(np.where(oa.array == v, 0, np.where(oa.array == 0, v, oa.array)), 3, 2)
print("\ncolumn 4 normalised to the star symbol:")
print(np.array2string(norm.array))
print("still balanced:", verify_oa(norm).verdict)

# Corruption in a single cell never survives verification.
bad = oa.array.copy()
bad[1, 3] = (bad[1, 3] + 1) % 3
report = verify_oa(make_oa(bad, 3, 2))
print("\nverdict on a corrupted copy:", report.verdict)
w = report.witness
print(f"  rows {w.rows}: tuple {w.symbols} appears {w.count}x, expected {w.expected}")

# Columns as codewords: 9 words without a star, any two agreeing in at most one row,
# so 2-determined.  By the lemma of lemma_t, a 2-determined code of length 4 without
# a star is c-frameproof while (2-1)*c < 4: here c = 3.
code = make_code(oa.constraints, oa.levels, oa.array.T)
print("\ncolumns as a code:", code, "| lemma_t(4, 3, False) =", lemma_t(4, 3, False))

# The plain lift tags each symbol b as b*3 + y over GF(3): 81 words over q = 9,
# rate M / q**ceil(l/c) = 81 / 9**2 = 1, Blackburn's R_{3,4} = 1 at a finite q.
lifted = polynomial_lift(code, 3, 2, 3)
print("lifted by GF(3):", lifted,
      "| 3-frameproof:", is_frameproof_cover(lifted, 3).verdict,
      "| 4-frameproof:", is_frameproof_cover(lifted, 4).verdict,
      "| rate:", achieved_rate(3, 4, lifted.q, lifted.size))

# Drop the all-star column to get a 2-determined seed for lifting.
seed = oa_to_pt_code(oa)
print("star-structured seed:", seed, "| 2-determined:", is_t_determined(seed, 2).verdict)
for word in seed.words:
    print("  ", word)
