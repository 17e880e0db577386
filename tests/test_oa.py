import hashlib
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_verify_oa, scan_chunks

from frameproof import (
    OrthogonalArray,
    build_oa_strength2,
    is_frameproof_cover,
    is_t_determined,
    make_code,
    make_oa,
    oa_from_text,
    oa_to_pt_code,
    oa_to_text,
    verify_oa,
)
from frameproof import verify


@st.composite
def arrays(draw):
    """A valid or corrupted array over 2..9 symbols with strength 1..3.

    The valid base is either the full factorial over t rows plus a row
    of digit sums mod s (any t rows are balanced), or, for t <= 2 and a
    prime-power s, the strength-2 array.  Columns are repeated for index
    2, then rows get random symbol permutations and columns a random
    order, all of which keep the balance.  Corruption rewrites a few
    entries or draws the whole array at random.
    """
    s = draw(st.integers(2, 9))
    t = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if t <= 2 and s in (2, 3, 4, 5, 7, 8, 9) and draw(st.booleans()):
        base = build_oa_strength2(s).array
    else:
        digits = np.array(list(product(range(s), repeat=t))).T
        base = np.vstack([digits, digits.sum(axis=0) % s])
    arr = np.tile(base, draw(st.integers(1, 2)))
    arr = np.array([rng.permutation(s)[row] for row in arr])[:, rng.permutation(arr.shape[1])]
    mode = draw(st.sampled_from(["valid", "entries", "random"]))
    if mode == "entries":
        for _ in range(draw(st.integers(1, 3))):
            arr[rng.integers(arr.shape[0]), rng.integers(arr.shape[1])] = rng.integers(s)
    elif mode == "random":
        arr = rng.integers(s, size=arr.shape)
    return make_oa(arr, s, t)


def plant_unbalanced(oa, target):
    """A copy of an index-1 strength-2 array whose first unbalanced row pair is ``target``.

    For (0, r), one entry of row r changes.  For (1, r), rows 1..r-1 swap
    two columns that agree in row 0: every pair with row 0 stays
    balanced, and so does every pair inside the swapped rows.
    """
    arr = oa.array.copy()
    first, r = target
    if first == 0:
        arr[r, 0] = (arr[r, 0] + 1) % oa.levels
    else:
        assert first == 1
        other = np.flatnonzero(arr[0] == arr[0, 0])[1]
        arr[1:r, [0, other]] = arr[1:r, [other, 0]]
    return make_oa(arr, oa.levels, oa.strength)


class TestBuilder:
    def test_smallest_case_by_hand(self):
        oa = build_oa_strength2(2)
        assert oa.array.tolist() == [
            [0, 1, 0, 1],  # b
            [0, 1, 1, 0],  # a + b
            [0, 0, 1, 1],  # a
        ]
        assert (oa.constraints, oa.runs, oa.index) == (3, 4, 1)

    def test_builds_pass_verification(self):
        for s in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            oa = build_oa_strength2(s)
            assert (oa.constraints, oa.runs) == (s + 1, s * s)
            assert verify_oa(oa).verdict, s

    def test_all_prime_powers_to_49(self):
        for s in (16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49):
            assert verify_oa(build_oa_strength2(s)).verdict, s

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            build_oa_strength2(6)
        for s in (4.0, True):
            with pytest.raises(ValueError, match=f"s must be an integer of at least 2, got {s}"):
                build_oa_strength2(s)

    def test_columns_agree_in_under_t_rows(self):
        # index-1 strength-t: distinct columns share at most t-1 entries
        for s in (3, 4, 5):
            oa = build_oa_strength2(s)
            cols = [tuple(oa.array[:, j]) for j in range(oa.runs)]
            for u, v in combinations(cols, 2):
                assert sum(x == y for x, y in zip(u, v)) <= 1


class TestVerifier:
    def test_duplicated_column_fails(self):
        rows = [[0, 0, 0, 1], [0, 0, 1, 0]]
        report = verify_oa(make_oa(rows, 2, 2))
        assert not report.verdict
        assert report.witness.kind == "oa_count"

    def test_all_zeros_fails(self):
        report = verify_oa(make_oa([[0] * 4, [0] * 4, [0] * 4], 2, 2))
        assert not report.verdict
        assert report.witness.expected == 1

    def test_witness_fields(self):
        oa = build_oa_strength2(3)
        bad = oa.array.copy()
        bad[2, 4] = (bad[2, 4] + 1) % 3
        report = verify_oa(make_oa(bad, 3, 2))
        assert not report.verdict
        w = report.witness
        assert len(w.rows) == 2 and len(w.symbols) == 2
        assert w.count != w.expected

    def test_a_deficit_met_before_the_surplus_is_the_witness(self):
        # index 2: moving entry (1, 0) leaves tuple (0, 0) of rows (0, 1) one short, met
        # in product order before the tuple (0, 1) that it makes one over
        a = build_oa_strength2(3).array
        arr = np.hstack([a, a])
        arr[1, 0] = (arr[1, 0] + 1) % 3
        bad = make_oa(arr, 3, 2)
        report = verify_oa(bad)
        w = report.witness
        assert (w.rows, w.symbols, w.count, w.expected) == ((0, 1), (0, 0), 1, 2)
        assert (report.verdict, w, report.subsets_examined) == reference_verify_oa(bad)
        assert report.subsets_examined == 1

    @given(st.sampled_from([2, 3, 4, 5]), st.integers(2, 3), st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_higher_index_matches_the_reference_loop(self, s, index, data):
        # the strength-2 array repeated 2 or 3 times, its columns shuffled, with up to
        # three entries moved: each subset is checked for a count above the index
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        arr = np.tile(build_oa_strength2(s).array, index)[:, rng.permutation(index * s * s)]
        for _ in range(data.draw(st.integers(0, 3))):
            r, col = rng.integers(arr.shape[0]), rng.integers(arr.shape[1])
            arr[r, col] = (arr[r, col] + rng.integers(1, s)) % s
        oa = make_oa(arr, s, 2)
        report = verify_oa(oa)
        assert (report.verdict, report.witness, report.subsets_examined) == (
            reference_verify_oa(oa))

    @given(arrays())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_the_reference_loop(self, oa):
        report = verify_oa(oa)
        assert (report.verdict, report.witness, report.subsets_examined) == (
            reference_verify_oa(oa)
        )

    @pytest.mark.parametrize("rows, s, t", [([[], []], 3, 1), ([[]] * 3, 3, 2),
                                             ([[]] * 5, 2, 3)])
    def test_no_runs_is_balanced(self, rows, s, t):
        # index 0: every tuple is seen 0 times in each of the C(k, t) subsets
        report = verify_oa(make_oa(rows, s, t))
        assert (report.verdict, report.witness, report.subsets_examined) == (
            True, None, comb(len(rows), t))
        assert reference_verify_oa(make_oa(rows, s, t)) == (True, None, comb(len(rows), t))

    def test_no_runs_walks_no_subset(self):
        # none of the C(60, 30) subsets of no columns holds a tuple, so none is walked
        report = verify_oa(make_oa([[]] * 60, 2, 30))
        assert (report.verdict, report.witness, report.subsets_examined) == (
            True, None, comb(60, 30))

    @pytest.mark.parametrize("s", [16, 32])
    @pytest.mark.parametrize("cells", [None, 3 * 256])
    def test_first_failure_at_chunk_boundaries(self, monkeypatch, s, cells):
        # the first unbalanced subset is the last of a chunk, the first of the
        # next one, or one inside a chunk
        if cells is not None:
            monkeypatch.setattr(verify, "_CHUNK_CELLS", cells)
        oa = build_oa_strength2(s)
        k = oa.constraints
        chunks = scan_chunks(k, oa.array.shape[1], 2, s**2)
        assert len(chunks) > 2
        order = list(combinations(range(k), 2))
        targets = [chunks[0][-1], chunks[1][0], chunks[1][len(chunks[1]) // 2]]
        for target in targets:
            bad = plant_unbalanced(oa, target)
            report = verify_oa(bad)
            expected = reference_verify_oa(bad)
            assert expected[2] == order.index(target) + 1
            assert (report.verdict, report.witness, report.subsets_examined) == expected

    def test_make_oa_validation(self):
        with pytest.raises(ValueError):
            make_oa([[0, 3]], 2, 1)  # symbol out of range
        with pytest.raises(ValueError):
            make_oa([[0, 1, 0]], 2, 1)  # runs not divisible by s**t
        with pytest.raises(ValueError):
            make_oa([[0, 1]], 2, 2)  # strength above row count
        with pytest.raises(ValueError, match="levels must be an integer of at least 2, got 1"):
            make_oa([[0]], 1, 1)

    @pytest.mark.parametrize("rows", [[[2**63, 0]], [[2**70, 1]]])
    def test_entries_past_int64_are_out_of_range(self, rows):
        # read as Python ints: neither rounded to a float nor an OverflowError
        with pytest.raises(ValueError, match=r"entries must lie in 0\.\.1"):
            make_oa(rows, 2, 1)

    def test_ragged_rows_are_not_two_dimensional(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            make_oa([[0, 1], [1]], 2, 1)

    @pytest.mark.parametrize(
        "rows, bad",
        [
            ([[0.5, 1], [1, 0]], "0.5"),
            ([[1.0, 0.0]], "1.0"),
            ([[True, False]], "True"),
            ([[0, None]], "None"),
            ([["0", "1"]], "'0'"),
        ],
    )
    def test_non_integer_entries_rejected(self, rows, bad):
        with pytest.raises(ValueError, match=f"entry {bad} is not an integer"):
            make_oa(rows, 2, 1)

    @pytest.mark.parametrize(
        "levels, strength, bad",
        [
            (2.5, 1, "levels 2.5"),
            (2, True, "strength True"),
            (2.0, 1, "levels 2.0"),
            (2, "1", "strength '1'"),
        ],
    )
    def test_non_integer_parameters_rejected(self, levels, strength, bad):
        with pytest.raises(ValueError, match=bad.replace(" ", " must be an integer .*, got ")):
            make_oa([[0, 1], [1, 0]], levels, strength)

    def test_numpy_integers_accepted(self):
        oa = make_oa(np.array([[0, 1], [1, 0]], dtype=np.uint8), np.int64(2), np.int32(1))
        assert oa.array.dtype == np.int64
        assert type(oa.levels) is int and type(oa.strength) is int
        assert (oa.levels, oa.strength) == (2, 1)
        assert verify_oa(oa).verdict


    @pytest.mark.parametrize(
        "rows, match",
        [
            ([[0, 5]], "0..1"),
            ([[0, -1]], "0..1"),
            ([[0.5, 1]], "entry 0.5 is not an integer"),
            ([0, 1], "two-dimensional"),
            ([[0, 1, 1]], "run count 3"),
        ],
    )
    def test_direct_construction_validates(self, rows, match):
        with pytest.raises(ValueError, match=match):
            OrthogonalArray(2, 1, np.array(rows))

    def test_direct_construction_freezes_a_copy(self):
        rows = np.array([[0, 1], [1, 0]], dtype=np.int8)
        oa = OrthogonalArray(np.int64(2), 1, rows)
        rows[0, 0] = 1
        assert oa.array.tolist() == [[0, 1], [1, 0]]
        assert oa.array.dtype == np.int64 and not oa.array.flags.writeable
        assert type(oa.levels) is int
        assert verify_oa(oa).verdict


class TestCodeBridges:
    def test_columns_as_frameproof_code(self):
        # distinct columns of an index-1 array agree in at most t-1 rows, so the
        # columns are c-frameproof whenever k > c*(t-1)
        oa = build_oa_strength2(4)
        code = make_code(oa.constraints, oa.levels, oa.array.T)
        assert (code.q, code.length, code.size) == (4, 5, 16)
        assert code.inf_id is None
        assert is_frameproof_cover(code, 3).verdict
        assert is_frameproof_cover(code, 4).verdict

    def test_star_code_small(self):
        code = oa_to_pt_code(build_oa_strength2(2))
        assert code.words == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert code.inf_id == 0
        assert is_t_determined(code, 2).verdict

    def test_star_code_sizes(self):
        for s, size in ((3, 8), (4, 15), (5, 24)):
            code = oa_to_pt_code(build_oa_strength2(s))
            assert code.size == size
            assert is_t_determined(code, 2).verdict

    def test_star_code_from_a_nonzero_first_column(self):
        # a random symbol permutation per row keeps the balance and moves column 0 off zero
        rng = np.random.default_rng(0)
        for s in (3, 4, 5):
            oa = build_oa_strength2(s)
            perms = []
            while len(perms) < oa.constraints:
                perm = rng.permutation(s)
                if perm[0]:
                    perms.append(perm)
            arr = np.array(perms)[np.arange(oa.constraints)[:, None], oa.array]
            assert np.all(arr[:, 0] != 0)
            code = oa_to_pt_code(make_oa(arr, s, 2))
            assert code.size == s * s - 1
            assert code.inf_id == 0
            assert is_t_determined(code, 2).verdict

    def test_star_code_drops_an_all_zero_first_column(self):
        for s in (2, 3, 4, 5):
            oa = build_oa_strength2(s)
            assert np.all(oa.array[:, 0] == 0)
            expected = make_code(oa.constraints, s, oa.array[:, 1:].T, inf_id=0)
            assert oa_to_pt_code(oa) == expected

    def test_star_code_normalisation_keeps_the_balance(self):
        # row by row, the entry v of column 0 and the symbol 0 swap places;
        # with an all-zero column put back, the columns form an index-1 array again
        rng = np.random.default_rng(1)
        for s in (3, 4, 5):
            oa = build_oa_strength2(s)
            k = oa.constraints
            arr = rng.permuted(np.tile(np.arange(s), (k, 1)), axis=1)[np.arange(k)[:, None], oa.array]
            swapped = []
            for row in arr.tolist():
                v = row[0]
                swapped.append([0 if x == v else v if x == 0 else x for x in row[1:]])
            code = oa_to_pt_code(make_oa(arr, s, 2))
            assert code == make_code(k, s, np.array(swapped).T, inf_id=0)
            restored = np.hstack([np.zeros((k, 1), dtype=np.int64), code.array.T])
            assert verify_oa(make_oa(restored, s, 2)).verdict

    def test_star_code_requires_index_one(self):
        doubled = make_oa([[0, 0, 1, 1], [0, 1, 0, 1]], 2, 1)
        assert doubled.index == 2
        with pytest.raises(ValueError, match="index"):
            oa_to_pt_code(doubled)


class TestFileFormat:
    def test_roundtrip(self):
        oa = build_oa_strength2(3)
        text = oa_to_text(oa)
        assert text.splitlines()[0] == "oa1 N=9 k=4 s=3 t=2"
        again = oa_from_text(text)
        assert np.array_equal(again.array, oa.array)
        assert oa_to_text(again) == text

    def test_text_digests(self):
        # sha256 of the .oa text of each built array, computed with the
        # per-entry builder and writer that the bulk ones replaced
        digests = {
            16: "bf88e96798721c56760223047e2177ba711986d8d56095e6a94deda2a5e5f1fd",
            23: "718bc39ac5567a8a7c6098b389887f475d316cdd282317e2924b14204a361ee9",
            27: "851c94a22fc7a51b697024c15fa42b077b7895b40ec6595e63e15f7c5ceae75f",
            32: "ba02ba11985494e3a2ca7979e019ae56d81331b14d226fa73a9761c4cd5cc9e4",
            64: "703c75e2212e8206a8b33946918997e4acc2c33a6ee5b312ed7835c76faab9f8",
        }
        for s, digest in digests.items():
            text = oa_to_text(build_oa_strength2(s))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, s

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            oa_from_text("oa9 N=4 k=3 s=2 t=2\n")
        with pytest.raises(ValueError):
            oa_from_text("oa1 N=4 k=2 s=2 t=2\n0 1 0 1\n")
        with pytest.raises(ValueError):
            oa_from_text("oa1 N=4 k=1 s=2 t=1\n0 1 0\n")
