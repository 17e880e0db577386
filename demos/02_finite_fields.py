"""Small finite fields: the arithmetic engine behind the constructions.

Elements of GF(p**e) are numbered 0..p**e-1 by packing coefficient
vectors as base-p integers, so every run of every implementation agrees
on what "element 5" means.
"""

from frameproof import is_prime_power, leading_coeff, make_field

print("prime power detection:")
for n in (8, 9, 12, 49, 97):
    print(f"  {n:3d} ->", is_prime_power(n))

# GF(9) = GF(3)[X] / (modulus); the modulus is picked canonically.
f9 = make_field(9)
print("\nGF(9) modulus coefficients (low degree first):", f9.modulus)
print("element ids decode to coefficient vectors:")
for a in range(f9.order):
    print(f"  {a} -> {tuple(a // f9.p**i % f9.p for i in range(f9.e))}")

print("\nsample arithmetic in GF(9):")
print("  3 + 7 =", f9.add(3, 7))
print("  3 * 7 =", f9.mul(3, 7))
print("  1/7   =", f9.inv(7), " check:", f9.mul(7, f9.inv(7)))

# Polynomials of degree < t are the tags used by the lift construction:
# distinct ones agree on at most t-1 evaluation points.
f5 = make_field(5)
poly_a = (1, 2)  # 1 + 2X
poly_b = (4, 3)  # 4 + 3X
values_a = [f5.eval_poly(poly_a, x) for x in range(5)]
values_b = [f5.eval_poly(poly_b, x) for x in range(5)]
print("\ntwo distinct lines over GF(5):")
print("  1 + 2X evaluates to", values_a)
print("  4 + 3X evaluates to", values_b)
print("  agreements:", sum(a == b for a, b in zip(values_a, values_b)))
print("  leading coefficients:", leading_coeff(poly_a, 2), "and", leading_coeff(poly_b, 2))
