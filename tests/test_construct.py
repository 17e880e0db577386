import hashlib
import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import named_code, reference_lift_words

from frameproof import (
    Step,
    augment_infinity,
    base_code,
    build_oa_strength2,
    code_to_text,
    default_eval_points,
    execute_plan,
    execute_steps,
    is_frameproof_cover,
    is_frameproof_naive,
    is_t_determined,
    make_code,
    make_field,
    oa_to_pt_code,
    plan_code,
    polynomial_lift,
    ssw_bound,
)
from frameproof.construct import _lift_words
from frameproof.verify import lemma_t

# sha256 of code_to_text: the bytes every construction must keep producing.
PINNED_CODES = {
    "base q3": (
        lambda: base_code("q3"),
        "3e3478fd4509cccfd97bad6af23013bed042d2aa81ace7055c8007e2425d2a44",
    ),
    "base q4": (
        lambda: base_code("q4"),
        "0d0dd5bc6cec5dc21cde2a9ee7e1ac67f7612614a1c9e6cdfb45c0795dcf2454",
    ),
    "base q5": (
        lambda: polynomial_lift(base_code("q3"), 2, 2, 2),
        "3789291a17da72c63ff79e3e05e7dec952e7bcac39904c85c1097889f62ef9f0",
    ),
    "base q10": (
        lambda: polynomial_lift(base_code("q4"), 3, 2, 3),
        "c2911e603fd9066689b6862979f454e44f9c4f89dc8823128de4831306f03c7a",
    ),
    "plan c2 q45": (
        lambda: execute_plan(plan_code(2, 45)),
        "a9408637097c4f3645c2d861eca2da1eb3e4e476086ac0d6f2fa9f4da9e2d3b9",
    ),
    "plan c2 q61": (
        lambda: execute_plan(plan_code(2, 61)),
        "df62549809366b285b540546e01c47f7d6ab8d10ea1baa4caaf42086ce05e6c7",
    ),
    "plan c2 q101": (
        lambda: execute_plan(plan_code(2, 101)),
        "ccb822325c905f2736b0ea3d0178c0b2a92da9140ff85ba60cbcdb75ec19cf30",
    ),
    "plan c3 q40": (
        lambda: execute_plan(plan_code(3, 40)),
        "e87029eb81e7365012a60f82702b06ea847be8680b04c4e719b5f7791c9e635f",
    ),
    "plan c3 q136": (
        lambda: execute_plan(plan_code(3, 136)),
        "56eb15104813848ab9d04d55ccbad97860f6ed00bffb568ed1dcfaa7dfd42da4",
    ),
    "oa family c3 m4": (
        lambda: execute_steps((Step("base", "oa4"), Step("lift", 4)), 3),
        "43ad299763b3f50b22d17408e7a9752a5d76f1c58b47da8e5abe13bc550eb753",
    ),
    "empty code": (
        lambda: make_code(3, 4, [], inf_id=0),
        "4347f649b605c11505408cea30775c2880f58a055cfeffe64dcad48870f291a8",
    ),
    "q5 words without infinity": (
        lambda: make_code(4, 5, named_code("q5").words),
        "d40dd0ebeed191d81eff233eeb2b95045e64ceec955365d612eaa580e619ecca",
    ),
}


class TestBaseCodes:
    def test_parameters(self):
        for name, shape in (("q3", (3, 4, 8)), ("q4", (4, 5, 15))):
            code = base_code(name)
            assert (code.q, code.length, code.size) == shape, name
            assert code.inf_id == 0

    def test_known_members(self):
        assert (0, 1, 1, 1) in base_code("q3").words
        assert (1, 0, 1, 2, 3) in base_code("q4").words

    def test_quaternary_groups(self):
        # fifteen words in five groups of three, grouped by infinity position
        by_inf = Counter(w.index(0) for w in base_code("q4").words)
        assert by_inf == {0: 3, 1: 3, 2: 3, 3: 3, 4: 3}

    def test_star_structure(self):
        for name in ("q3", "q4"):
            assert is_t_determined(base_code(name), 2).verdict, name

    def test_small_bases_frameproof(self):
        assert is_frameproof_naive(base_code("q3"), 2).verdict
        assert is_frameproof_naive(base_code("q4"), 3).verdict
        assert is_frameproof_naive(named_code("q5"), 2).verdict

    def test_unknown_name(self):
        for name in ("q6", "q5", "q10", "oa6", "oa03", ["q3"], 5, None):
            # q5 and q10 are lifts of q3 and q4; a name that is not a string is refused by name
            message = f"unknown base {name!r}; choose from ['q3', 'q4'] or oa<s> for a prime power s"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                base_code(name)

    def test_array_seed_by_name(self):
        assert base_code("oa5") == oa_to_pt_code(build_oa_strength2(5))


class TestConstructionBytes:
    def test_code_text_digests(self):
        got = {
            label: hashlib.sha256(code_to_text(build()).encode()).hexdigest()
            for label, (build, _) in PINNED_CODES.items()
        }
        assert got == {label: digest for label, (_, digest) in PINNED_CODES.items()}


class TestEvalPoints:
    def test_one_definition_in_gf(self):
        # the lift and the array builder read one list of points, from gf
        from frameproof import construct, gf
        assert default_eval_points is gf.default_eval_points is construct.default_eval_points

    def test_with_infinity(self):
        assert default_eval_points(3, 4) == (0, 1, 2, None)

    def test_without_infinity(self):
        assert default_eval_points(5, 4) == (0, 1, 2, 3)

    def test_too_small(self):
        with pytest.raises(ValueError):
            default_eval_points(2, 4)

    @pytest.mark.parametrize("m, length", [(3.0, 4), (True, 2)])
    def test_order_must_be_a_count(self, m, length):
        with pytest.raises(ValueError, match=f"m must be an integer of at least 2, got {m}"):
            default_eval_points(m, length)

    @pytest.mark.parametrize("length", [True, 2.0])
    def test_length_must_be_a_count(self, length):
        # not read as 1 (True) or left to fail in range() (2.0)
        message = f"length must be an integer of at least 1, got {length}"
        with pytest.raises(ValueError, match=message):
            default_eval_points(5, length)
        assert default_eval_points(5, np.int64(3)) == (0, 1, 2)


class TestPolynomialLift:
    def test_smallest_lift(self):
        lifted = polynomial_lift(base_code("q3"), 3, 2, 2)
        assert (lifted.q, lifted.length, lifted.size) == (7, 4, 72)
        assert lifted.size == 2 * (lifted.q - 1) ** 2
        assert is_t_determined(lifted, 2).verdict

    def test_quaternary_lift(self):
        lifted = polynomial_lift(base_code("q4"), 4, 2, 3)
        assert (lifted.q, lifted.size) == (13, 240)
        assert 3 * lifted.size == 5 * (lifted.q - 1) ** 2
        assert is_t_determined(lifted, 2).verdict

    def test_projection_recovers_parents(self):
        parent = base_code("q3")
        m = 3
        lifted = polynomial_lift(parent, m, 2, 2)

        def project(word):
            return tuple(0 if sym == 0 else (sym - 1) // m + 1 for sym in word)

        counts = Counter(project(w) for w in lifted.words)
        assert counts == {w: m**2 for w in parent.words}

    def test_within_cardinality_bound(self):
        lifted = polynomial_lift(base_code("q3"), 3, 2, 2)
        assert lifted.size <= ssw_bound(2, lifted.length, lifted.q)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_tags_are_polynomial_values(self, data):
        m = data.draw(st.sampled_from([3, 4, 5, 7, 8, 9]))
        points = default_eval_points(m, 4)
        parent = base_code("q3")
        lifted = polynomial_lift(parent, m, 2, 2)
        field = make_field(m)

        def tag(f, p):  # f = f0 + f1*X; the infinity point reads f1
            return f[1] if p is None else field.add(f[0], field.mul(f[1], p))

        expected = {
            tuple(0 if b == 0 else (b - 1) * m + tag(f, p) + 1 for b, p in zip(w, points))
            for w in parent.words
            for f in itertools.product(range(m), repeat=2)
        }
        assert set(lifted.words) == expected
        assert lifted.q == 2 * m + 1
        assert is_t_determined(lifted, 2).verdict

    def test_preconditions(self):
        parent = base_code("q3")
        with pytest.raises(ValueError, match="prime power"):
            polynomial_lift(parent, 6, 2, 2)
        with pytest.raises(ValueError, match="m must be an integer of at least 2, got 3.0"):
            polynomial_lift(parent, 3.0, 2, 2)
        with pytest.raises(ValueError, match="too small"):
            polynomial_lift(base_code("q4"), 2, 2, 3)  # GF(2) is two points short
        with pytest.raises(ValueError, match="lemma_t admits t <= 2 at length 4 and c=2, got t=3"):
            polynomial_lift(parent, 3, 3, 2)
        with pytest.raises(ValueError, match="lemma_t admits t <= 1 at length 4 and c=3, got t=2"):
            polynomial_lift(parent, 3, 2, 3)  # (2-1)*(3+1) = 4 is not below length 4
        with pytest.raises(ValueError, match="lemma_t admits t <= 1 at length 2 and c=2, got t=2"):
            polynomial_lift(make_code(2, 3, [(0, 1), (1, 2)], inf_id=0), 3, 2, 2)
        with pytest.raises(ValueError, match="infinity must be symbol 0 or none, got 1"):
            polynomial_lift(make_code(4, 3, [(0, 0, 0, 2)], inf_id=1), 3, 2, 2)
        # a code without a star lifts too: the symbols b become b*m + y
        plain = polynomial_lift(make_code(4, 3, [(1, 1, 1, 1)]), 3, 2, 2)
        assert repr(plain) == "Code(q=9, l=4, M=9, inf=none)"
        bad = make_code(4, 3, [(1, 1, 1, 1), (1, 1, 1, 2)], inf_id=0)
        with pytest.raises(ValueError, match="determined"):
            polynomial_lift(bad, 3, 2, 2)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_counts_are_integers(self, bad):
        parent = base_code("q3")
        for c, t, name in ((bad, 2, "c"), (2, bad, "t")):
            with pytest.raises(ValueError, match=f"{name} must be an integer of at least"):
                polynomial_lift(parent, 3, t, c)
            with pytest.raises(ValueError, match=f"{name} must be an integer of at least"):
                augment_infinity(parent, c, t)
        # both counts bad: both builders name c first, as construct._admit counts c, then t
        with pytest.raises(ValueError, match="c must be an integer of at least"):
            polynomial_lift(parent, 3, bad, bad)
        with pytest.raises(ValueError, match="c must be an integer of at least"):
            augment_infinity(parent, bad, bad)

    def test_numpy_counts_are_integers(self):
        # numpy integers pass, an unsigned t included: it comes back as an int, so -t cannot wrap
        parent, c, t = base_code("q3"), np.int64(2), np.uint8(2)
        assert polynomial_lift(parent, 3, t, c) == polynomial_lift(parent, 3, 2, 2)
        assert augment_infinity(parent, c, t) == augment_infinity(parent, 2, 2)
        # numpy q and m are stored as ints, so the lifted alphabet (q-1)*m + 1 cannot wrap
        parent = make_code(4, np.uint8(3), parent.array, inf_id=0)
        lifted = polynomial_lift(parent, 131, 2, 2)
        assert lifted.q == 263 and type(lifted.q) is int
        assert polynomial_lift(parent, np.uint8(131), 2, 2) == lifted

    def test_checks_run_in_order(self):
        # infinity, then prime power, then too small, then the lemma, then an infinity
        # in every word (a field one point short), then determinedness: each input
        # below fails the named check and every later one (c=10 is above what
        # lemma_t admits at length 10, and c=2 is not)
        inf_one = make_code(10, 3, [(0,) * 10, (0,) * 9 + (2,)], inf_id=1)
        with pytest.raises(ValueError, match="infinity"):
            polynomial_lift(inf_one, 6, 2, 10)
        long_bad = make_code(10, 3, [(1,) * 10, (1,) * 9 + (2,)], inf_id=0)
        with pytest.raises(ValueError, match="prime power"):
            polynomial_lift(long_bad, 6, 2, 10)
        with pytest.raises(ValueError, match="too small"):
            polynomial_lift(long_bad, 7, 2, 10)
        with pytest.raises(ValueError, match="lemma_t admits t <= 1 at length 10 and c=10"):
            polynomial_lift(long_bad, 8, 2, 10)
        with pytest.raises(ValueError, match="needs an infinity"):
            polynomial_lift(long_bad, 8, 2, 2)
        with pytest.raises(ValueError, match="lemma_t admits t <= 1 at length 10 and c=10"):
            polynomial_lift(long_bad, 9, 2, 10)
        bad = make_code(4, 3, [(1, 1, 1, 1), (1, 1, 1, 2)], inf_id=0)
        with pytest.raises(ValueError, match="lemma_t admits"):
            polynomial_lift(bad, 3, 2, 3)


class TestAugment:
    def test_base_augment(self):
        bigger = augment_infinity(base_code("q3"), 2, 2)
        assert bigger.size == 9
        assert (0, 0, 0, 0) in bigger.words
        assert is_frameproof_naive(bigger, 2).verdict

    def test_lift_then_augment(self):
        lifted = polynomial_lift(base_code("q3"), 3, 2, 2)
        assert augment_infinity(lifted, 2, 2).size == 73

    def test_double_augment_rejected(self):
        bigger = augment_infinity(base_code("q3"), 2, 2)
        with pytest.raises(ValueError, match="determined"):
            augment_infinity(bigger, 2, 2)

    def test_requires_infinity(self):
        with pytest.raises(ValueError):
            augment_infinity(make_code(4, 3, [(1, 1, 1, 1)]), 2, 2)


@st.composite
def _determined_lifts(draw):
    """(code, t, m): a t-determined code with infinity 0 or none, kept word by word from
    drawn words, and a field order m >= l - 1 with at most 150 lifted words."""
    length, t = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    q, inf = draw(st.integers(2, 7)), draw(st.sampled_from([0, None]))
    m = draw(st.sampled_from([m for m in (2, 3, 4, 5) if m >= length - 1]))
    # a word's symbols off infinity, and at most t-1 positions set to infinity 0
    symbols = st.tuples(*[st.integers(0 if inf is None else 1, q - 1)] * length)
    holes = st.sets(st.integers(0, length - 1), max_size=0 if inf is None else t - 1)
    words = []
    for w, at in draw(st.lists(st.tuples(symbols, holes), min_size=1, max_size=12)):
        w = tuple(0 if j in at else v for j, v in enumerate(w))
        if w not in words and all(sum(a == b != inf for a, b in zip(w, x)) < t for x in words):
            words.append(w)  # at most t-1 agreements off infinity with every kept word
    return make_code(length, q, sorted(words[: 150 // m**t]), inf_id=inf), t, m


class TestLemma:
    def test_lemma_t_is_the_largest_t_of_the_inequality(self):
        for length in range(1, 31):
            for c in range(2, 13):
                for starred in (False, True):
                    most = max(t for t in range(1, length + 2) if (t - 1) * (c + starred) < length)
                    assert lemma_t(length, c, starred) == most, (length, c, starred)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_determined_lifts())
    def test_lifts_the_lemma_admits_are_frameproof(self, drawn):
        # the lemma is sufficient only, so a t it refuses is not asserted to fail
        parent, t, m = drawn
        assert is_t_determined(parent, t).verdict
        starred = parent.inf_id is not None
        for c in (2, 3):
            if t <= lemma_t(parent.length, c, starred):
                lifted = polynomial_lift(parent, m, t, c)
                assert lifted.q == (parent.q - starred) * m + starred
                assert is_t_determined(lifted, t).verdict
                assert is_frameproof_naive(lifted, c).verdict
                if starred:
                    assert is_frameproof_naive(augment_infinity(lifted, c, t), c).verdict


def _array_seed(s):
    return oa_to_pt_code(build_oa_strength2(s))


def _seed_lift(c, m):
    return execute_steps((Step("base", f"oa{c + 1}"), Step("lift", m)), c)


class TestOaRecipes:
    def test_lift_from_array(self):
        code = polynomial_lift(_array_seed(4), 4, 2, 3)
        assert (code.q, code.length, code.size) == (13, 5, 240)
        assert is_t_determined(code, 2).verdict

    def test_matches_plain_lift_in_size(self):
        via_oa = polynomial_lift(_array_seed(3), 3, 2, 2)
        via_base = polynomial_lift(base_code("q3"), 3, 2, 2)
        assert via_oa.size == via_base.size == 72
        # word sets may differ; both must still be 2-frameproof
        assert is_frameproof_cover(via_oa, 2).verdict
        assert is_frameproof_cover(via_base, 2).verdict

    def test_wider_family(self):
        code = polynomial_lift(_array_seed(5), 5, 2, 4)
        assert (code.q, code.length, code.size) == (21, 6, 600)
        assert 4 * code.size == 6 * (code.q - 1) ** 2

    def test_family_codes(self):
        code = _seed_lift(3, 4)
        assert (code.q, code.length, code.size) == (13, 5, 240)
        wide = _seed_lift(4, 7)
        assert (wide.q, wide.length, wide.size) == (29, 6, 1176)
        assert is_t_determined(wide, 2).verdict

    def test_family_matches_planned_size(self):
        code = _seed_lift(2, 3)
        assert (code.q, code.size) == (7, 72)
        assert is_frameproof_cover(code, 2).verdict

    def test_family_preconditions(self):
        with pytest.raises(ValueError, match="prime power"):
            _seed_lift(5, 7)  # oa6: 6 is not a prime power
        with pytest.raises(ValueError, match="too small"):
            _seed_lift(3, 2)  # m below c
        short = _seed_lift(3, 3)  # GF(3) is one point short of length 5
        assert (short.q, short.length, short.size) == (10, 5, 135)
        assert is_t_determined(short, 2).verdict


def _seed(name):
    return _array_seed(int(name[2:])) if name.startswith("oa") else named_code(name)


SEEDS = ("q3", "q4", "q5", "q10", "oa3", "oa4", "oa5")


class TestArrayLift:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.sampled_from(SEEDS), st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
           st.integers(1, 3), st.sampled_from([0, None]), st.data())
    def test_matches_the_reference_lift(self, name, m, t, star, data):
        # star None reads the seed's words as a plain code, its 0 an ordinary symbol
        parent = _seed(name)
        assume(m >= parent.length - 1 and parent.size * m**t <= 20_000)
        pts = data.draw(st.permutations(list(range(m)) + [None]))[: parent.length]
        where = np.array([m if p is None else p for p in pts])
        got = _lift_words(parent.array, m, t, [*range(m), None], where, star)
        want = reference_lift_words(parent.words, m, t, lambda word: pts, star)
        assert got.tolist() == [list(w) for w in want]

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.sampled_from(SEEDS), st.lists(st.sampled_from([2, 3, 4, 5]), min_size=2,
                                             max_size=2))
    def test_lifts_chain(self, name, orders):
        code = _seed(name)
        assume(min(orders) >= code.length - 1)
        for m in orders:
            lifted = polynomial_lift(code, m, 2, code.length - 2)
            assert lifted.size == code.size * m * m
            assert is_t_determined(lifted, 2).verdict
            code = lifted

    def test_lifted_symbols_must_fit_int64(self):
        # (b-1)*m = 2**64 would wrap to 0 in int64 and pass as a small symbol
        parent = make_code(4, 2**62 + 2, [(0, 1, 1, 2**62 + 1), (1, 0, 2, 1)], inf_id=0)
        with pytest.raises(ValueError, match="lifted symbols out of range"):
            polynomial_lift(parent, 4, 2, 2)


def _short_points_of(m, length):
    """Per-word points of a lift whose field is one point short: the non-infinity
    positions take ``default_eval_points(m, length - 1)`` in order."""
    pts = default_eval_points(m, length - 1)

    def points_of(word):
        star = word.index(0)
        return pts[:star] + (None,) + pts[star:]

    return points_of


def _reference_lift(words, m, length):
    short = m == length - 2
    points_of = _short_points_of(m, length) if short else lambda w: default_eval_points(m, length)
    return reference_lift_words(words, m, 2, points_of)


# seeds whose length l has a prime power l - 2 (oa7 has l - 2 = 6)
SHORT_SEEDS = ("q3", "q4", "oa3", "oa4", "oa5", "oa8", "oa9")
# (seed, order of the ordinary lift, short lift first) with at most 20,000 words
SHORT_CHAINS = [
    (name, m, first)
    for name in SHORT_SEEDS
    for m in (3, 4, 5, 7, 8, 9, 11, 13)
    for first in (True, False)
    if m >= _seed(name).length - 1
    and _seed(name).size * (_seed(name).length - 2) ** 2 * m * m <= 20_000
]


class TestShortFieldLift:
    @pytest.mark.parametrize("parent, m", [("q3", 2), ("q4", 3)])
    def test_points_match_the_reference(self, parent, m):
        words = base_code(parent).words
        points_of = _short_points_of(m, len(words[0]))
        want = reference_lift_words(words, m, 2, points_of)
        per_row = np.array([[m if p is None else p for p in points_of(w)] for w in words])
        got = _lift_words(base_code(parent).array, m, 2, [*range(m), None], per_row, 0)
        assert got.tolist() == [list(w) for w in want]
        assert polynomial_lift(base_code(parent), m, 2, m).words == tuple(sorted(want))

    def test_lifts_project_to_the_parents(self):
        for parent, m in (("q3", 2), ("q4", 3)):
            counts = Counter(
                tuple(0 if sym == 0 else (sym - 1) // m + 1 for sym in w)
                for w in polynomial_lift(base_code(parent), m, 2, m).words
            )
            assert counts == {w: m**2 for w in base_code(parent).words}, parent

    @pytest.mark.parametrize("name", SHORT_SEEDS)
    def test_seeds_match_the_reference(self, name):
        seed = _seed(name)
        m = seed.length - 2
        lifted = polynomial_lift(seed, m, 2, m)
        assert lifted.words == tuple(sorted(_reference_lift(seed.words, m, seed.length)))
        assert is_t_determined(lifted, 2).verdict

    def test_chains_span_the_seeds(self):
        assert {name for name, _, _ in SHORT_CHAINS} == {"q3", "q4", "oa3", "oa4", "oa5"}

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.sampled_from(SHORT_CHAINS))
    def test_chains_with_an_ordinary_lift(self, chain):
        name, m, short_first = chain
        code = _seed(name)
        length, c = code.length, code.length - 2
        words = code.words
        for order in (c, m) if short_first else (m, c):
            code = polynomial_lift(code, order, 2, c)
            words = _reference_lift(words, order, length)
        assert code.words == tuple(sorted(words))
        assert is_t_determined(code, 2).verdict

    def test_word_without_infinity_refused(self):
        parent = make_code(4, 3, [(0, 1, 1, 1), (1, 2, 1, 2)], inf_id=0)
        with pytest.raises(ValueError, match="GF\\(2\\) is one point short .* needs an infinity"):
            polynomial_lift(parent, 2, 2, 2)
        assert polynomial_lift(parent, 3, 2, 2).size == 18

    def test_empty_parent(self):
        empty = make_code(4, 3, [], inf_id=0)
        assert polynomial_lift(empty, 2, 2, 2) == make_code(4, 5, [], inf_id=0)
