import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_powers, reference_poly_values

from frameproof import (
    Field,
    factor_prime_powers,
    is_prime_power,
    leading_coeff,
    make_field,
)

PRIME_POWERS_LE_49 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
    27, 29, 31, 32, 37, 41, 43, 47, 49,
]


class TestPrimePower:
    def test_detects(self):
        assert is_prime_power(9) == (3, 2)
        assert is_prime_power(8) == (2, 3)
        assert is_prime_power(12) is None
        assert is_prime_power(2) == (2, 1)
        assert is_prime_power(49) == (7, 2)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            is_prime_power(1)

    def test_supported_set(self):
        assert [n for n in range(2, 50) if is_prime_power(n)] == PRIME_POWERS_LE_49

    def test_factorization(self):
        assert factor_prime_powers(45) == ((3, 2), (5, 1))
        assert factor_prime_powers(7) == ((7, 1),)
        assert factor_prime_powers(2**10) == ((2, 10),)
        with pytest.raises(ValueError):
            factor_prime_powers(1)
        make_field(np.int64(9))  # a cached field, which a float 9.0 must not find
        for fn, n in ((factor_prime_powers, 12.0), (is_prime_power, 9.0), (make_field, 9.0)):
            with pytest.raises(ValueError, match=f"n must be an integer of at least 2, got {n}"):
                fn(n)

    def test_trial_division_is_bounded(self):
        assert factor_prime_powers(2**40 - 1) == (
            (3, 1), (5, 2), (11, 1), (17, 1), (31, 1), (41, 1), (61681, 1),
        )
        for fn in (factor_prime_powers, is_prime_power):
            with pytest.raises(ValueError, match=f"{2**40} is too large"):
                fn(2**40)


def brute_force_irreducible(poly, p):
    """Independent oracle: no monic factor of degree 1..deg-1 divides poly."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def all_monic(deg):
        if deg == 0:
            yield [1]
            return
        span = p**deg
        for n in range(span):
            digs = []
            r = n
            for _ in range(deg):
                digs.append(r % p)
                r //= p
            yield digs + [1]

    target = [v % p for v in poly]
    e = len(target) - 1
    for d in range(1, e):
        for f in all_monic(d):
            for g in all_monic(e - d):
                prod = poly_mul(f, g)
                # compare up to the leading term; both monic, same degree
                if prod == target:
                    return False
    return True


PRIME_POWERS_LE_256 = [m for m in range(2, 257) if is_prime_power(m)]


def schoolbook_tables(field):
    """Reference add/mul tables: digit vectors multiplied and reduced by hand.

    Element a is the polynomial with base-p digits of a as coefficients,
    low degree first; products are reduced by ``field.modulus`` (monic,
    degree e) from the top coefficient down.
    """
    p, e, modulus = field.p, field.e, field.modulus
    m = p**e
    digits = np.array([[a // p**i % p for i in range(e)] for a in range(m)], dtype=np.int64)
    weights = p ** np.arange(e)
    add = (digits[:, None, :] + digits[None, :, :]) % p @ weights
    prod = np.zeros((m, m, 2 * e - 1), dtype=np.int64)
    for i in range(e):
        for j in range(e):
            prod[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
    prod %= p
    for k in range(2 * e - 2, e - 1, -1):  # X**k = X**(k-e) * (X**e - modulus)
        top = prod[:, :, k].copy()
        for j, coeff in enumerate(modulus):
            prod[:, :, k - e + j] -= top * coeff
        prod %= p
    mul = prod[:, :, :e] @ weights
    return add, mul


class TestFields:
    def test_prime_field_arithmetic(self):
        f = make_field(5)
        assert f.add(3, 4) == 2
        assert f.mul(3, 4) == 2
        assert f.inv(2) == 3

    def test_gf4_modulus_unique(self):
        f = make_field(4)
        assert f.modulus == (1, 1, 1)  # X^2 + X + 1, the only choice
        assert f.mul(2, 2) == 3  # x * x = x + 1

    def test_gf9_modulus_is_irreducible_by_oracle(self):
        f = make_field(9)
        assert len(f.modulus) == 3 and f.modulus[-1] == 1
        assert brute_force_irreducible(list(f.modulus), 3)

    def test_gf8_modulus_is_irreducible_by_oracle(self):
        f = make_field(8)
        assert brute_force_irreducible(list(f.modulus), 2)

    def test_not_prime_power(self):
        with pytest.raises(ValueError):
            make_field(12)

    def test_inverse_of_zero(self):
        with pytest.raises(ValueError):
            make_field(7).inv(0)

    def test_axioms_exhaustive(self):
        for m in PRIME_POWERS_LE_49:
            f = make_field(m)
            els = range(m)
            for a in els:
                assert f.add(a, 0) == a
                assert f.mul(a, 1) == a
                if a:
                    assert f.mul(a, f.inv(a)) == 1
                for b in els:
                    ab_add = f.add(a, b)
                    ab_mul = f.mul(a, b)
                    assert ab_add == f.add(b, a)
                    assert ab_mul == f.mul(b, a)
                    for c in els:
                        assert f.add(ab_add, c) == f.add(a, f.add(b, c))
                        assert f.mul(ab_mul, c) == f.mul(a, f.mul(b, c))
                        assert f.mul(a, f.add(b, c)) == f.add(ab_mul, f.mul(a, c))

    def test_matches_schoolbook_arithmetic(self):
        rng = random.Random(0)
        for m in PRIME_POWERS_LE_256:
            f = make_field(m)
            add, mul = schoolbook_tables(f)
            els = range(m)
            assert [[f.add(a, b) for b in els] for a in els] == add.tolist(), m
            assert [[f.mul(a, b) for b in els] for a in els] == mul.tolist(), m
            assert all(mul[a, f.inv(a)] == 1 for a in range(1, m)), m
            for t in (1, 2, 3):
                for _ in range(8):
                    coeffs = [rng.randrange(m) for _ in range(t)]
                    for x in els:
                        acc = 0
                        for c in reversed(coeffs):
                            acc = add[mul[acc, x], c]
                        assert f.eval_poly(coeffs, x) == acc, (m, coeffs, x)

    def test_numpy_integers_give_ints(self):
        for m in (7, 9):
            f = make_field(m)
            a, b = np.int64(3), np.uint8(5)
            values = (f.add(a, b), f.mul(a, b), f.inv(a), f.eval_poly((a, b), np.int32(2)))
            assert all(type(v) is int for v in values), m
            assert values == (f.add(3, 5), f.mul(3, 5), f.inv(3), f.eval_poly((3, 5), 2))

    def test_non_integer_elements_rejected(self):
        f = make_field(9)
        for bad in (1.0, "1", None):
            with pytest.raises(TypeError):
                f.add(bad, 1)
            with pytest.raises(TypeError):
                f.eval_poly((1, bad), 2)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="not irreducible"):
            Field(3, 2, (2, 0, 1))  # X**2 + 2 = (X + 1)(X + 2) over GF(3)

    def test_powers_match_the_schoolbook_search(self):
        # every extension order up to 2187; for GF(256), X has order 51 and X + 1 is the first g
        orders = [m for m in range(4, 2188) if (pe := is_prime_power(m)) and pe[1] > 1]
        assert len(orders) == 32
        for m in orders:
            f = make_field(m)
            assert f._exp[:m - 1] == reference_powers(f.p, f.e, f.modulus), m
        with pytest.raises(ValueError, match="not irreducible"):
            reference_powers(3, 2, (2, 0, 1))

    def test_multiplicative_order(self):
        for m in PRIME_POWERS_LE_49:
            f = make_field(m)
            for a in range(1, m):
                acc = 1
                for _ in range(m - 1):
                    acc = f.mul(acc, a)
                assert acc == 1


class TestPolyEval:
    def test_constant(self):
        f = make_field(7)
        for point in range(7):
            assert f.eval_poly((4,), point) == 4

    def test_linear_mod5(self):
        f = make_field(5)
        # 2X + 1 at 3 -> 7 mod 5 = 2
        assert f.eval_poly((1, 2), 3) == 2

    def test_gf4_characteristic_two(self):
        f = make_field(4)
        # f = X + x evaluated at x: x + x = 0
        assert f.eval_poly((2, 1), 2) == 0

    def test_out_of_range_coefficient(self):
        with pytest.raises(ValueError):
            make_field(5).eval_poly((7, 1), 2)

    def test_leading_coeff(self):
        assert leading_coeff((3, 4), 2) == 4
        assert leading_coeff((3,), 2) == 0
        assert leading_coeff((1, 2, 5), 3) == 5
        assert leading_coeff((1, 2, 0, 0), 3) == 0
        with pytest.raises(ValueError):
            leading_coeff((1, 2, 5), 2)

    def test_poly_values_match_the_reference_loop(self):
        # every point and infinity; t = 3 only up to m = 64, since at m = 256
        # one point already has 16.7M values.  Where m**t > 256, the loop
        # runs over 32 random polynomials, which are then picked out by index.
        rng = random.Random(2)
        for m in PRIME_POWERS_LE_256:
            f = make_field(m)
            for t in (1, 2, 3) if m <= 64 else (1, 2):
                polys = None
                if m**t > 256:
                    polys = [tuple(rng.randrange(m) for _ in range(t)) for _ in range(32)]
                index = None if polys is None else [
                    sum(c * m ** (t - 1 - i) for i, c in enumerate(poly)) for poly in polys]
                for point in [*range(m), None]:
                    got = f.poly_values(t, point)
                    assert got.dtype == np.int64 and got.shape == (m**t,), (m, t)
                    got = got.tolist() if index is None else got[index].tolist()
                    assert got == reference_poly_values(f, t, point, polys), (m, t, point)

    def test_poly_values_checks_its_arguments(self):
        f = make_field(9)
        assert f.poly_values(2, np.int64(3)).tolist() == f.poly_values(2, 3).tolist()
        with pytest.raises(ValueError, match="out of range"):
            f.poly_values(2, 9)
        with pytest.raises(ValueError, match="at least 1"):
            f.poly_values(0, 1)

    @given(
        st.sampled_from([3, 4, 5, 7, 8, 9]),
        st.integers(1, 3),
        st.data(),
    )
    @settings(max_examples=150, derandomize=True)
    def test_degree_bound_limits_agreement(self, m, t, data):
        f = make_field(m)
        coeff = st.integers(0, m - 1)
        a = data.draw(st.tuples(*([coeff] * t)))
        b = data.draw(st.tuples(*([coeff] * t)))
        if a == b:
            return
        agree = sum(f.eval_poly(a, x) == f.eval_poly(b, x) for x in range(m))
        # distinct polynomials of degree < t agree on at most t-1 points
        assert agree <= t - 1
