import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import named_code

from frameproof import (
    BudgetExceeded,
    base_code,
    code_from_text,
    code_to_text,
    descendant_contains,
    enumerate_descendants,
    is_frameproof_naive,
    make_code,
)
from frameproof.acceptance import random_code
from frameproof.codes import _pack

# The eight ternary base words, infinity written as 0.
TERNARY_WORDS = [
    (0, 1, 1, 1),
    (0, 2, 2, 2),
    (1, 0, 1, 2),
    (1, 1, 2, 0),
    (1, 2, 0, 1),
    (2, 0, 2, 1),
    (2, 1, 0, 2),
    (2, 2, 1, 0),
]

COUNT_KINDS = (int, np.int8, np.uint8, np.int32, np.uint64, float, np.float64, bool)


@st.composite
def word_pools(draw):
    length = draw(st.integers(1, 4))
    q = draw(st.integers(2, 4))
    symbol = st.integers(0, q - 1)
    word = st.tuples(*([symbol] * length))
    pool = draw(st.lists(word, min_size=1, max_size=6, unique=True))
    return length, q, pool


class TestMakeCode:
    def test_ternary_fixture(self):
        code = make_code(4, 3, TERNARY_WORDS, inf_id=0)
        assert code.size == 8
        assert code.words == base_code("q3").words
        with pytest.raises(ValueError, match="q must be an integer of at least 2, got 3.0"):
            make_code(4, 3.0, TERNARY_WORDS)
        with pytest.raises(ValueError, match="length must be an integer of at least 1, got 4.0"):
            make_code(4.0, 3, np.array(TERNARY_WORDS))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_code(2, 2, [(0, 0), (0, 0)])

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_code(3, 2, [(0, 1, 2)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            make_code(3, 2, [(0, 1)])

    def test_inf_id_range(self):
        with pytest.raises(ValueError, match="inf_id"):
            make_code(2, 2, [(0, 1)], inf_id=5)

    @pytest.mark.parametrize("inf_id", [1.0, True, np.bool_(True), "1", np.float64(0.0)])
    def test_non_integer_inf_id_rejected(self, inf_id):
        with pytest.raises(ValueError, match="inf_id must be an integer of at least 0, got"):
            make_code(2, 3, [(1, 2), (2, 1)], inf_id=inf_id)

    def test_numpy_integer_inf_id_accepted(self):
        code = make_code(2, 3, [(1, 2), (2, 1)], inf_id=np.int64(1))
        assert type(code.inf_id) is int and code.inf_id == 1
        assert code_from_text(code_to_text(code)) == code

    def test_words_sorted(self):
        code = make_code(2, 3, [(2, 0), (0, 1), (1, 1)])
        assert code.words == ((0, 1), (1, 1), (2, 0))

    @pytest.mark.parametrize(
        "word", [(1.7, 2), (True, 0), (np.bool_(False), 1), (None, 1), ("1", 2), "12"]
    )
    def test_non_integer_rejected(self, word):
        with pytest.raises(ValueError, match="not an integer in word"):
            make_code(2, 3, [(0, 1), word])

    def test_numpy_integers_accepted(self):
        code = make_code(2, 3, [np.array([2, 0]), (np.int64(0), np.uint8(1))])
        assert code.words == ((0, 1), (2, 0))
        assert all(type(v) is int for w in code.words for v in w)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_length_and_q_are_ints_or_refused(self, data):
        # ints and numpy integers are stored as int and read back; integral floats and
        # bools are refused, as are values below 1 and 2
        length, q = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 5))
        symbol = st.integers(0, max(q - 1, 0))
        words = data.draw(st.lists(st.tuples(*[symbol] * length), max_size=6, unique=True))
        kinds = [data.draw(st.sampled_from(COUNT_KINDS)) for _ in range(2)]
        args = [kind(v) for kind, v in zip(kinds, (length, q))]
        if {float, np.float64, bool} & set(kinds) or length < 1 or q < 2:
            with pytest.raises(ValueError):
                make_code(*args, words)
            return
        code = make_code(*args, words)
        assert type(code.length) is int and type(code.q) is int
        assert code_from_text(code_to_text(code)) == code

    def test_first_bad_word_is_reported(self):
        with pytest.raises(ValueError, match=r"length 1"):
            make_code(2, 3, [(0, 1), (1,), (1, 1), (1, 1)])
        with pytest.raises(ValueError, match=r"duplicate word \(1, 1\)"):
            make_code(2, 3, [(0, 1), (1, 1), (1, 1), (1, 5)])


class TestArrayStorage:
    def test_rows_are_a_sorted_read_only_int64_array(self):
        # the cover index and the subset counter read rows.T as C-contiguous columns
        words = [(2, 0), (0, 1), (1, 1)]
        for source in (words, np.array(words), np.array(sorted(words))[::-1]):
            code = make_code(2, 3, source)
            assert code.array.dtype == np.int64 and code.array.shape == (3, 2)
            assert code.array.tolist() == [[0, 1], [1, 1], [2, 0]]
            assert code.array.flags.f_contiguous and not code.array.flags.writeable
            with pytest.raises(ValueError):
                code.array[0, 0] = 2

    def test_arrays_are_copied_and_checked(self):
        source = np.array([[2, 0], [0, 1]], dtype=np.uint8)
        code = make_code(2, 3, source)
        source[0, 0] = 1
        assert code.words == ((0, 1), (2, 0))
        assert all(type(v) is int for w in code.words for v in w)
        with pytest.raises(ValueError, match=r"duplicate word \(0, 1\)"):
            make_code(2, 3, np.array([[0, 1], [0, 1]]))
        with pytest.raises(ValueError, match=r"symbol 3 out of range 0..2 in word \(3, 0\)"):
            make_code(2, 3, np.array([[0, 1], [3, 0]]))
        with pytest.raises(ValueError, match="not an integer"):
            make_code(2, 3, np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError, match="length 3"):
            make_code(2, 3, np.zeros((1, 3), dtype=np.int64))

    def test_equal_by_value_and_not_hashable(self):
        assert make_code(2, 3, [(1, 2), (0, 1)]) == make_code(2, 3, np.array([[0, 1], [1, 2]]))
        assert make_code(2, 3, [(0, 1)]) != make_code(2, 4, [(0, 1)])
        assert make_code(2, 3, [(0, 1)]) != make_code(2, 3, [(0, 1)], inf_id=0)
        assert make_code(2, 3, [(0, 1)]) != make_code(2, 3, [(0, 2)])
        with pytest.raises(TypeError):
            hash(make_code(2, 3, [(0, 1)]))

    @pytest.mark.parametrize("words", [
        [(1, 2**63)],
        np.array([[1, 2**63]], dtype=np.uint64),
    ])
    def test_symbols_must_fit_int64(self, words):
        with pytest.raises(ValueError, match=f"symbol {2**63} out of range 0..{2**63 - 1}"):
            make_code(2, 2**64, words)
        assert make_code(2, 2**64, [(1, 2**63 - 1)]).words == ((1, 2**63 - 1),)

    @given(st.lists(st.tuples(*[st.sampled_from([0, 1, 2**40, 2**41 + 3, 2**63 - 1])] * 4),
                    max_size=12), st.sets(st.integers(0, 3)))
    @settings(max_examples=100, derandomize=True)
    def test_packed_keys_keep_equality_and_order(self, words, positions):
        # keys over four wide columns pass 2**63, so the re-ranking guard runs
        positions = sorted(positions)
        keys = _pack(np.array(words, dtype=np.int64).reshape(-1, 4), positions).tolist()
        projections = [tuple(w[i] for i in positions) for w in words]
        for (k1, p1), (k2, p2) in itertools.product(zip(keys, projections), repeat=2):
            assert (k1 < k2) == (p1 < p2) and (k1 == k2) == (p1 == p2)


class TestDescendants:
    def test_singleton(self):
        assert descendant_contains([(0, 1)], (0, 1))
        assert not descendant_contains([(0, 1)], (1, 1))

    def test_coordinatewise_pick(self):
        assert descendant_contains([(0, 1), (1, 0)], (0, 0))
        assert not descendant_contains([(0, 1), (1, 0)], (2, 0))

    def test_empty_coalition(self):
        with pytest.raises(ValueError):
            descendant_contains([], (0, 1))
        with pytest.raises(ValueError, match="non-empty"):
            enumerate_descendants([])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            descendant_contains([(0, 1)], (0, 1, 0))
        with pytest.raises(ValueError, match="equal lengths"):
            enumerate_descendants([(0, 1), (0, 1, 0)])

    def test_two_complementary_words(self):
        got = enumerate_descendants([(0, 0, 0, 0), (1, 1, 1, 1)])
        assert len(got) == 16

    def test_singleton_enumeration(self):
        assert enumerate_descendants([(3, 1, 4)]) == {(3, 1, 4)}

    def test_star_pair_enumeration(self):
        # the two all-equal ternary base words: product enumeration gives
        # {0} x {1,2}^3, eight words all starting with the star symbol
        pool = [(0, 1, 1, 1), (0, 2, 2, 2)]
        expected = {(0, a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)}
        assert enumerate_descendants(pool) == expected

    def test_cap(self):
        pool = [(0,) * 10, (1,) * 10]
        with pytest.raises(BudgetExceeded):
            enumerate_descendants(pool, cap=1000)

    @given(word_pools())
    @settings(max_examples=120, derandomize=True)
    def test_cardinality_is_position_product(self, data):
        length, _, pool = data
        expected = 1
        for i in range(length):
            expected *= len({y[i] for y in pool})
        assert len(enumerate_descendants(pool)) == expected

    @given(word_pools(), word_pools())
    @settings(max_examples=120, derandomize=True)
    def test_monotone_in_coalition(self, a, b):
        length, q, pool = a
        _, _, extra = b
        extra = [w[:length] + (0,) * (length - len(w)) for w in extra]
        extra = [tuple(v % q for v in w) for w in extra]
        small = enumerate_descendants(pool)
        large = enumerate_descendants(pool + extra)
        assert small <= large

    @given(word_pools())
    @settings(max_examples=120, derandomize=True)
    def test_membership_agrees_with_enumeration(self, data):
        length, q, pool = data
        enumerated = enumerate_descendants(pool)
        rng = random.Random(7)
        probes = list(enumerated)[:5] + [
            tuple(rng.randrange(q) for _ in range(length)) for _ in range(5)
        ]
        for x in probes:
            assert descendant_contains(pool, x) == (x in enumerated)


def permute_coordinate(code, position, sigma):
    """Apply the symbol permutation ``sigma`` at one position of every word."""
    words = [w[:position] + (sigma[w[position]],) + w[position + 1 :] for w in code.words]
    return make_code(code.length, code.q, words, inf_id=code.inf_id)


class TestCoordinatePermutation:
    def test_preserves_frameproof_verdict(self):
        code = base_code("q3")
        rng = random.Random(11)
        for _ in range(6):
            pos = rng.randrange(code.length)
            sigma = list(range(code.q))
            rng.shuffle(sigma)
            moved = permute_coordinate(code, pos, sigma)
            assert moved.size == code.size
            assert is_frameproof_naive(moved, 2).verdict

    def test_verdict_equality_on_random_codes(self):
        rng = random.Random(23)
        for _ in range(25):
            code = random_code(rng, max_q=4, max_l=4, max_size=8)
            pos = rng.randrange(code.length)
            sigma = list(range(code.q))
            rng.shuffle(sigma)
            moved = permute_coordinate(code, pos, sigma)
            for c in (2, 3):
                assert (
                    is_frameproof_naive(code, c).verdict
                    == is_frameproof_naive(moved, c).verdict
                )


class TestFileFormat:
    def test_header_and_star_alias(self):
        code = base_code("q3")
        text = code_to_text(code)
        lines = text.splitlines()
        assert lines[0] == "fpc1 q=3 l=4 M=8 inf=0"
        assert lines[1] == "* 1 1 1"

    def test_roundtrip_identical(self):
        for name in ("q3", "q4", "q5", "q10"):
            code = named_code(name)
            text = code_to_text(code)
            again = code_from_text(text)
            assert again == code
            assert code_to_text(again) == text

    def test_star_accepted_on_input(self):
        text = "fpc1 q=3 l=2 M=2 inf=0\n* 1\n1 *\n"
        code = code_from_text(text)
        assert code.words == ((0, 1), (1, 0))

    def test_star_without_inf_rejected(self):
        with pytest.raises(ValueError, match="infinity"):
            code_from_text("fpc1 q=3 l=2 M=1 inf=none\n* 1\n")

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="M="):
            code_from_text("fpc1 q=3 l=2 M=2 inf=none\n0 1\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            code_from_text("fpc2 q=3 l=2 M=0 inf=none\n")
        with pytest.raises(ValueError, match="header"):
            code_from_text("fpc1 l=2 q=3 M=0 inf=none\n")

    def test_no_inf_roundtrip(self):
        code = make_code(2, 4, [(0, 3), (3, 0)])
        text = code_to_text(code)
        assert "inf=none" in text.splitlines()[0]
        assert code_from_text(text) == code
