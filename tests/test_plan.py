import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frameproof import (
    ConstructionPlan,
    Step,
    achieved_rate,
    base_code,
    blackburn_leading,
    build_oa_strength2,
    execute_plan,
    execute_steps,
    factor_prime_powers,
    format_plan,
    is_frameproof_cover,
    is_frameproof_naive,
    is_prime_power,
    is_t_determined,
    make_code,
    parse_steps,
    plan_code,
    polynomial_lift,
    ssw_bound,
)
from frameproof.plan import _base, _shapes
from helpers import digits_past_int_limit


def _unknown(name) -> str:
    return f"unknown base {name!r}; choose from ['q3', 'q4'] or oa<s> for a prime power s"


class TestPlanning:
    def test_smallest_composed_plan(self):
        plan = plan_code(2, 7)
        assert plan.steps == (Step("base", "q3"), Step("lift", 3), Step("augment"))
        assert plan.expected_size == 73

    def test_five_uses_large_base(self):
        plan = plan_code(2, 5)
        assert plan.steps == (Step("base", "q3"), Step("lift", 2), Step("augment"))
        assert plan.expected_size == 33

    def test_prime_power_half(self):
        plan = plan_code(2, 19)  # (q-1)/2 = 9 = 3**2
        assert plan.steps == (Step("base", "q3"), Step("lift", 9), Step("augment"))
        assert plan.expected_size == 649

    def test_composite_half_recurses(self):
        plan = plan_code(2, 13)  # (q-1)/2 = 6 -> factor 3, inner q=5 -> factor 2 = c
        assert plan.steps == (
            Step("base", "q3"), Step("lift", 2), Step("lift", 3), Step("augment")
        )

    def test_two_level_recursion(self):
        plan = plan_code(2, 25)  # m=12 -> factor 3, inner q=9 -> m=4 prime power
        assert plan.steps == (
            Step("base", "q3"), Step("lift", 4), Step("lift", 3), Step("augment")
        )

    def test_c3_small(self):
        assert plan_code(3, 4).steps == (Step("base", "q4"), Step("augment"))
        assert plan_code(3, 4).expected_size == 16
        assert plan_code(3, 10).steps == (Step("base", "q4"), Step("lift", 3), Step("augment"))
        assert plan_code(3, 10).expected_size == 136

    def test_c3_lifted(self):
        plan = plan_code(3, 22)
        assert plan.steps == (Step("base", "q4"), Step("lift", 7), Step("augment"))
        assert plan.expected_size == 736

    def test_c3_recursive(self):
        plan = plan_code(3, 46)  # m=15 -> factor 5, inner q=10 -> factor 3 = c, lifted first
        assert plan.steps == (
            Step("base", "q4"), Step("lift", 3), Step("lift", 5), Step("augment")
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_code(2, 8)
        with pytest.raises(ValueError):
            plan_code(2, 1)
        with pytest.raises(ValueError):
            plan_code(3, 9)
        with pytest.raises(ValueError):
            plan_code(5, 11)

    def test_deterministic(self):
        for q in (7, 13, 25, 31):
            assert plan_code(2, q) == plan_code(2, q)
        assert plan_code(3, 22) == plan_code(3, 22)

    def test_bad_plans_rejected_at_construction(self):
        with pytest.raises(ValueError, match="no steps"):
            ConstructionPlan(2, ())
        with pytest.raises(ValueError, match="prime power"):
            ConstructionPlan(2, (Step("base", "q3"), Step("lift", 6), Step("augment")))
        with pytest.raises(ValueError, match="final"):
            ConstructionPlan(2, (Step("base", "q3"), Step("augment"), Step("lift", 3)))

    def test_the_target_is_read_from_the_steps(self):
        plan = ConstructionPlan(2, (Step("base", "q3"), Step("lift", 3), Step("augment")))
        assert (plan.q, plan.length, plan.expected_size) == (7, 4, 73)
        assert plan.shapes == ((3, 4, 8, 0), (7, 4, 72, 0), (7, 4, 73, 0))
        assert plan == plan_code(2, 7)
        for name in ("q", "length", "expected_size", "shapes"):
            with pytest.raises(AttributeError):
                setattr(plan, name, 999)
        # a step list is copied, so a step added later is not built without its shape
        steps = [Step("base", "q3"), Step("lift", 3)]
        plan = ConstructionPlan(np.int64(2), steps)
        steps.append(Step("augment"))
        assert plan.steps == tuple(steps[:2]) and type(plan.c) is int
        assert execute_plan(plan).size == plan.expected_size == 72
        assert hash(plan) == hash(ConstructionPlan(2, tuple(steps[:2])))


def _rule_reaches(c, q):
    """The reachable-q rule: every full prime-power factor of (q-1)/c is at least c."""
    m = (q - 1) // c
    return m == 1 or all(p**e >= c for p, e in factor_prime_powers(m))


def _family(c, max_words):
    """Reachable (c, q) by the rule, in increasing q, with at most max_words words."""
    q, out = c + 1, []
    while (c + 2) * (q - 1) ** 2 // c + 1 <= max_words:
        if _rule_reaches(c, q):
            out.append((c, q))
        q += c
    return out


FEW_THOUSAND = [cq for c in (4, 6, 7) for cq in _family(c, 4100)]


class TestAnyC:
    @settings(max_examples=len(FEW_THOUSAND), deadline=None, derandomize=True)
    @given(st.sampled_from(FEW_THOUSAND))
    def test_family_codes(self, cq):
        c, q = cq
        plan = plan_code(c, q)
        chain = execute_steps(plan.steps[:-1], c)
        assert is_t_determined(chain, 2).verdict
        code = execute_plan(plan)
        assert (code.q, code.length) == (q, c + 2)
        assert c * (code.size - 1) == (c + 2) * (q - 1) ** 2
        assert code.size <= ssw_bound(c, c + 2, q)
        assert is_frameproof_cover(code, c).verdict

    def test_examples_cover_bases_and_lifts(self):
        assert {(4, 5), (4, 53), (6, 7), (6, 55), (7, 8), (7, 57)} <= set(FEW_THOUSAND)

    def test_chained_lifts(self):
        plan = plan_code(4, 141)  # (q-1)/4 = 35 = 5 * 7
        assert plan.steps == (
            Step("base", "oa5"), Step("lift", 5), Step("lift", 7), Step("augment")
        )
        code = execute_plan(plan)
        assert code.size == 29401
        assert is_frameproof_cover(code, 4).verdict

    def test_factor_c_is_lifted_first(self):
        # GF(c) is one point short of length c+2: that lift sits next to the base
        assert plan_code(3, 37).steps == (  # (q-1)/3 = 12 = 3 * 4
            Step("base", "q4"), Step("lift", 3), Step("lift", 4), Step("augment")
        )
        assert plan_code(4, 81).steps == (  # (q-1)/4 = 20 = 4 * 5
            Step("base", "oa5"), Step("lift", 4), Step("lift", 5), Step("augment")
        )
        assert plan_code(4, 17).steps == (Step("base", "oa5"), Step("lift", 4), Step("augment"))

    def test_reach_rule(self):
        for c in (2, 3, 4, 6, 7, 8):
            for q in range(c + 1, 3000, c):
                try:
                    plan_code(c, q)
                    reached = True
                except ValueError as exc:
                    assert f"below c = {c}" in str(exc)
                    reached = False
                assert reached == _rule_reaches(c, q), (c, q)

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_printed_steps_read_back(self, data):
        # the steps: line of format_plan is the chain that construct --steps reads
        c = data.draw(st.sampled_from([c for c in range(2, 32) if is_prime_power(c + 1)]))
        q = data.draw(st.sampled_from([q for q in range(c + 1, 3000, c) if _rule_reaches(c, q)]))
        plan = plan_code(c, q)
        *_, line = format_plan(plan).splitlines()
        assert line.startswith("steps: ")
        assert parse_steps(line.removeprefix("steps: ")) == plan.steps
        # one malformed step anywhere in the chain is named
        bad = data.draw(st.sampled_from(["", "lift", "lift 3.0", "lift -1", "lift \u0663",
                                         "lift 0_3", "augment 3", "base", "base q3 q4", "twist"]))
        texts = [str(step) for step in plan.steps]
        texts.insert(data.draw(st.integers(0, len(texts))), bad)
        message = f"step {bad!r} is not 'base NAME', 'lift M' or 'augment'"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_steps("; ".join(texts))

    def test_rates_rise_towards_leading(self):
        for c in (4, 6, 7):
            leading = blackburn_leading(c, c + 2)
            assert leading == Fraction(c + 2, c)
            previous = Fraction(0)
            for _, q in _family(c, 10**7):
                rate = achieved_rate(c, c + 2, q, plan_code(c, q).expected_size)
                assert previous < rate < leading
                assert rate > leading * Fraction(q - 1, q) ** 2
                previous = rate
            assert leading - previous < Fraction(1, 100)

    def test_unreachable_q_names_the_factor(self):
        for c, q, factor in ((4, 13, 3), (4, 85, 3), (4, 41, 2), (6, 13, 2), (7, 22, 3)):
            with pytest.raises(ValueError, match=f"prime-power factor {factor}, below c = {c}"):
                plan_code(c, q)

    def test_bad_c_and_q_give_the_reason(self):
        with pytest.raises(ValueError, match="c\\+1 = 6 is not a prime power"):
            plan_code(5, 11)
        with pytest.raises(ValueError, match="at least 2"):
            plan_code(1, 3)
        with pytest.raises(ValueError, match="1 mod c"):
            plan_code(4, 12)
        # a numpy q is read as an int, so the size (q-1)**2 + 1 cannot wrap in int64
        plan = plan_code(2, np.int64(2**31 + 1))
        assert type(plan.q) is int and plan.expected_size == 2**63 + 1

    @pytest.mark.parametrize("c", [1, 2.0, None, True])
    def test_c_is_checked_on_a_bare_base(self, c):
        with pytest.raises(ValueError, match="c must be an integer of at least 2"):
            execute_steps((Step("base", "q3"),), c)

    def test_a_code_stands_for_the_base(self):
        base = base_code("q3")
        assert Step("base", base).shape(None, 2) == (3, 4, 8, 0)
        steps = (Step("base", base), Step("lift", 3), Step("augment"))
        assert execute_steps(steps, 2) == execute_plan(plan_code(2, 7))
        with pytest.raises(ValueError, match="start from its one base"):
            execute_steps((Step("base", base), Step("base", "q3")), 2)

    def test_bad_steps_rejected(self):
        for steps, match in (
            ((Step("base", "oa6"),), "^" + re.escape(_unknown("oa6")) + "$"),
            ((Step("base", "q7"),), "^" + re.escape(_unknown("q7")) + "$"),
            ((Step("base", "q3"), Step("lift", 3.0)), "m must be an integer of at least 2, got 3.0"),
            ((Step("lift", 3),), "start from its one base"),
            ((Step("base", "q3"), Step("base", "q3")), "start from its one base"),
            ((Step("base", "q3"), Step("twist")), "unknown step kind"),
            ((("base", "q3"),), "not a Step"),
        ):
            with pytest.raises(ValueError, match=match):
                execute_steps(steps, 2)
        # a numpy order is read as an int: the planned shape is the built one, not a wrapped one
        steps = (Step("base", "q3"), Step("lift", np.uint8(131)), Step("augment"))
        assert _shapes(steps, 2)[-1] == (263, 4, 137289, 0)
        code = execute_steps(steps, 2)
        assert (code.q, code.length, code.size, code.inf_id) == (263, 4, 137289, 0)

    @pytest.mark.parametrize("name", [["q3"], 5, None])
    def test_a_name_that_is_not_a_string_is_an_unknown_base(self, name):
        # base_code refuses them alike (test_construct's test_unknown_name)
        with pytest.raises(ValueError, match=f"^{re.escape(_unknown(name))}$"):
            ConstructionPlan(2, (Step("base", name),))

    def test_augment_takes_no_argument(self):
        # Step("augment", 5) would print as "augment 5", a line parse_steps refuses
        steps = (Step("base", "q3"), Step("augment", 5))
        for refuse in (lambda: _shapes(steps, 2), lambda: ConstructionPlan(2, steps),
                       lambda: execute_steps(steps, 2)):
            with pytest.raises(ValueError, match="^augment takes no argument, got 5$"):
                refuse()

    def test_an_order_too_long_for_int_names_its_step(self):
        nines = "9" * digits_past_int_limit()
        message = f"the M of step 'lift M' has {len(nines)} digits, more than int() converts"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_steps(f"base q3; lift {nines}")

    def test_an_array_seed_too_long_for_int_names_its_step(self):
        sevens = "7" * digits_past_int_limit()
        message = f"the s of base 'oa<s>' has {len(sevens)} digits, more than int() converts"
        steps = parse_steps(f"base oa{sevens}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ConstructionPlan(2, steps)
        # text that is not oa<digits> stays an unknown base, however long
        with pytest.raises(ValueError, match="^unknown base 'x"):
            ConstructionPlan(2, (Step("base", f"x{sevens}"),))

    def test_format_names_the_array_seed(self):
        text = format_plan(plan_code(6, 43))
        assert text.startswith("target: c=6 q=43 length=8 size=2353\n")
        assert "1. base oa7: q=7 M=48" in text
        assert "2. lift 7: q=43 M=2352" in text


class TestExecution:
    def test_targets_met(self):
        for c, q, size in ((2, 7, 73), (2, 5, 33), (2, 19, 649), (3, 4, 16), (3, 22, 736)):
            code = execute_plan(plan_code(c, q))
            assert (code.q, code.size) == (q, size)

    def test_star_structure_before_augment(self):
        plan = plan_code(2, 19)
        chain = execute_steps(plan.steps[:-1], plan.c)
        assert is_t_determined(chain, 2).verdict
        assert chain.size == plan.expected_size - 1

    def test_executed_code_verifies(self):
        code = execute_plan(plan_code(2, 9))
        assert is_frameproof_cover(code, 2).verdict

    def test_a_step_that_misses_its_shape_stops_the_build(self, monkeypatch):
        def one_word_short(code, m, t, c):
            lifted = polynomial_lift(code, m, t, c)
            return make_code(lifted.length, lifted.q, lifted.array[1:], lifted.inf_id)

        def never(*args):
            raise AssertionError("a step after the failing one ran")
        monkeypatch.setattr("frameproof.plan.polynomial_lift", one_word_short)
        monkeypatch.setattr("frameproof.plan.augment_infinity", never)
        steps = (Step("base", "q3"), Step("lift", 3), Step("augment"))
        message = "step 2 (lift 3) produced (q, l, M, inf)=(7, 4, 71, 0), expected (7, 4, 72, 0)"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            execute_steps(steps, 2)

    def test_a_step_that_changes_the_star_stops_the_build(self, monkeypatch):
        def starless(code, m, t, c):
            lifted = polynomial_lift(code, m, t, c)
            return make_code(lifted.length, lifted.q, lifted.array, None)

        monkeypatch.setattr("frameproof.plan.polynomial_lift", starless)
        plan = ConstructionPlan(2, (Step("base", "q3"), Step("lift", 3)))
        message = "step 2 (lift 3) produced (q, l, M, inf)=(7, 4, 72, None), expected (7, 4, 72, 0)"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            execute_plan(plan)

    def test_a_chain_that_misses_the_family_is_refused_before_any_word(self, monkeypatch):
        def never(*args):
            raise AssertionError("a word was built at plan time")
        monkeypatch.setattr("frameproof.construct._lift_words", never)
        monkeypatch.setattr("frameproof.plan._chain", lambda c, q: [Step("base", "q3"),
                                                                    Step("lift", 2)])
        message = "plan for c=2 q=7 reaches (5, 4, 33, 0), expected (7, 4, 73, 0)"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            plan_code(2, 7)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_plain_base_shapes_match_the_build(self, m):
        # a base Code without a star lifts its q symbols into q*m
        oa = build_oa_strength2(3)
        steps = (Step("base", make_code(oa.constraints, oa.levels, oa.array.T)), Step("lift", m))
        code = execute_steps(steps, 3)
        shape = (code.q, code.length, code.size, code.inf_id)
        assert _shapes(steps, 3)[-1] == shape == (3 * m, 4, 9 * m * m, None)

    def test_a_starless_chain_keeps_no_star(self):
        # two lifts of the 9 columns: the second reads the star from the first's shape
        oa = build_oa_strength2(3)
        base = make_code(oa.constraints, oa.levels, oa.array.T)
        plan = ConstructionPlan(3, (Step("base", base), Step("lift", 3), Step("lift", 4)))
        code = execute_plan(plan)
        assert plan.shapes[-1] == (code.q, code.length, code.size, code.inf_id)
        assert plan.shapes[-1] == (36, 4, 1296, None)

    def test_empty_steps(self):
        with pytest.raises(ValueError):
            execute_steps((), 2)

    def test_format_plan_tracks_parameters(self):
        text = format_plan(plan_code(2, 25))
        assert "target: c=2 q=25 length=4 size=1153" in text
        assert "lift 4: q=9 M=128" in text
        assert "lift 3: q=25 M=1152" in text
        assert text.endswith("augment: q=25 M=1153\nsteps: base q3; lift 4; lift 3; augment")


# the builders' refusals that read words, which _shapes cannot foresee
_WORD_RULES = ("every parent word needs an infinity", "-determined")


def _assert_shapes_agree(steps, c):
    """Build step by step: _shapes refuses as the builder does, and predicts what it builds.

    A base reads no c, so a c that _shapes refuses at the base is refused by the next step.
    """
    predicted, refused = [], None
    for i in range(len(steps)):
        try:
            predicted = _shapes(steps[:i + 1], c)
        except ValueError as exc:
            refused = i, str(exc)
            break
    assume(all(size <= 20_000 for _, _, size, _ in predicted))
    code = None
    for i, step in enumerate(steps):
        try:
            code = step.build(code, c)
        except ValueError as exc:
            if refused is not None and refused[0] <= i:
                assert str(exc) == refused[1]
            else:
                assert any(text in str(exc) for text in _WORD_RULES), str(exc)
            return
        if refused is not None and refused[0] <= i:
            assert step.kind == "base", f"built {code!r}, refused {refused}"
            continue
        assert (code.q, code.length, code.size, code.inf_id) == predicted[i]
    assert refused is None, f"built every step, refused {refused}"


@st.composite
def _chains(draw):
    """A base, up to two lifts by m in 2..9 and an optional augment, with c in 2..5."""
    base = draw(st.sampled_from(["q3", "q4", "oa3", "oa4", "oa5", "code"]))
    if base == "code":  # a small code whose infinity is 0, none or another symbol
        length, q = draw(st.integers(3, 5)), draw(st.integers(2, 4))
        word = st.tuples(*[st.integers(0, q - 1)] * length)
        base = make_code(length, q, draw(st.lists(word, max_size=6, unique=True)),
                         inf_id=draw(st.sampled_from([0, None, 1, q - 1])))
    length = _base(base)[0][1]
    orders = st.integers(2, 9) | st.just(max(length - 2, 2))  # often one point short
    steps = [Step("base", base)] + [Step("lift", m) for m in draw(st.lists(orders, max_size=2))]
    steps += [Step("augment")] if draw(st.booleans()) else []
    return tuple(steps), draw(st.integers(2, 5))


_PLAIN = make_code(4, 3, [(1, 1, 1, 1)])
_BUILDERS_REFUSE = [
    ((Step("base", _PLAIN), Step("augment")), "code has no infinity symbol"),
    ((Step("base", _PLAIN), Step("lift", 2)),
     "GF(2) is one point short for length 4: every parent word needs an infinity"),
    ((Step("base", make_code(4, 7, [(5, 1, 2, 3)], inf_id=5)), Step("lift", 3)),
     "parent code's infinity must be symbol 0 or none, got 5"),
]
# the 9 columns of the order-3 array: 2-determined, without a star
_COLUMNS = make_code(4, 3, build_oa_strength2(3).array.T)
# chains that no c-frameproof code comes from: the lemma admits no t = 2, or c is below 2
_REFUSED_FOR_C = [
    ((Step("base", _COLUMNS), Step("lift", 3)), 4,
     "lemma_t admits t <= 1 at length 4 and c=4, got t=2"),
    ((Step("base", "q3"), Step("augment")), 5,
     "lemma_t admits t <= 1 at length 4 and c=5, got t=2"),
    ((Step("base", "q3"), Step("lift", 3), Step("augment")), 1,
     "c must be an integer of at least 2, got 1"),
]


class TestWordFreeRules:
    @pytest.mark.parametrize("steps, message", _BUILDERS_REFUSE)
    def test_shapes_refuse_what_the_builders_refuse(self, steps, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _shapes(steps, 2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ConstructionPlan(2, steps)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            steps[-1].build(steps[0].build(None, 2), 2)

    @pytest.mark.parametrize("steps, c, message", _REFUSED_FOR_C)
    def test_chains_that_cannot_be_built_for_c_are_refused(self, steps, c, message):
        # refused when the plan is made, before format_plan prints it or a step builds
        base = steps[0].build(None, c)  # a base reads no c
        for refuse in (lambda: _shapes(steps, c), lambda: ConstructionPlan(c, steps),
                       lambda: execute_steps(steps, c), lambda: steps[1].build(base, c)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                refuse()

    def test_texts_are_the_builders(self):
        # the order and the field size are refused with the lift's own texts
        for m, message in ((6, "6 is not a prime power"),
                           (2, "field order 2 too small for length 5")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                _shapes((Step("base", "q4"), Step("lift", m)), 3)
            with pytest.raises(ValueError, match=f"^{message}$"):
                polynomial_lift(base_code("q4"), m, 2, 3)
        # an empty code without an infinity has no word to miss one
        empty = (Step("base", make_code(4, 3, [])), Step("lift", 2))
        code = execute_steps(empty, 2)
        shape = (code.q, code.length, code.size, code.inf_id)
        assert _shapes(empty, 2)[-1] == shape == (6, 4, 0, None)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_chains())
    @example(chain=(_BUILDERS_REFUSE[0][0], 2))
    @example(chain=(_BUILDERS_REFUSE[1][0], 2))
    @example(chain=(_BUILDERS_REFUSE[2][0], 2))
    @example(chain=_REFUSED_FOR_C[0][:2])
    @example(chain=_REFUSED_FOR_C[1][:2])
    @example(chain=_REFUSED_FOR_C[2][:2])
    def test_shapes_agree_with_the_builders(self, chain):
        _assert_shapes_agree(*chain)

    def test_no_field_is_built_at_plan_time(self, monkeypatch):
        def refuse(m):
            raise AssertionError(f"GF({m}) built at plan time")
        for module in ("plan", "construct", "gf"):
            monkeypatch.setattr(f"frameproof.{module}.make_field", refuse, raising=False)
        text = format_plan(plan_code(2, 2**20 + 1))
        assert text.endswith("steps: base q3; lift 524288; augment")
        m = 2**19
        assert _shapes((Step("base", "q3"), Step("lift", m)), 2)[-1] == (2 * m + 1, 4, 8 * m * m, 0)


class TestFactorization:
    def test_examples(self):
        assert factor_prime_powers(45) == ((3, 2), (5, 1))
        assert factor_prime_powers(7) == ((7, 1),)
        assert factor_prime_powers(1024) == ((2, 10),)


class TestBounds:
    def test_ssw_values(self):
        assert ssw_bound(2, 4, 7) == 96
        assert ssw_bound(3, 5, 10) == 297
        assert ssw_bound(2, 4, 3) == 16
        for args, name in (((1, 4, 3), "c"), ((2, 1, 3), "length"), ((2, 4, 1), "q"),
                           ((2.0, 4, 3), "c"), ((2, 4, True), "q")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 2"):
                ssw_bound(*args)

    def test_leading_values(self):
        assert blackburn_leading(3, 5) == Fraction(5, 3)
        assert blackburn_leading(2, 4) == Fraction(2)
        assert blackburn_leading(3, 4) == Fraction(1)  # length = 1 mod c
        assert blackburn_leading(2, 6) == Fraction(2)
        for args, name in (((1, 4), "c"), ((2, 1), "length"), ((2.0, 4), "c"),
                           ((2, True), "length")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 2"):
                blackburn_leading(*args)

    def test_rates(self):
        assert achieved_rate(2, 4, 7, 73) == Fraction(73, 49)
        assert achieved_rate(3, 5, 4, 16) == Fraction(1)
        for args, name in (((2, 4, True, 8), "q"), ((2, 4, 7, -3), "size"),
                           ((2, 4, 7, 2.5), "size")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
                achieved_rate(*args)

    def test_rates_increase_towards_leading(self):
        previous = Fraction(0)
        for q in range(3, 32, 2):
            rate = achieved_rate(2, 4, q, 2 * (q - 1) ** 2 + 1)
            assert previous < rate < blackburn_leading(2, 4)
            previous = rate
        previous = Fraction(0)
        for q in (4, 10, 16, 22, 28, 34):
            plan = plan_code(3, q)
            rate = achieved_rate(3, 5, q, plan.expected_size)
            assert previous < rate < blackburn_leading(3, 5)
            previous = rate

    def test_bound_values(self):
        assert ssw_bound(2, 4, 7) == 96
        assert achieved_rate(2, 4, 7, ssw_bound(2, 4, 7)) == Fraction(96, 49)
        assert achieved_rate(2, 4, 7, 73) == Fraction(73, 49)

    def test_planned_sizes_dominated(self):
        for q in range(3, 32, 2):
            plan = plan_code(2, q)
            assert plan.expected_size <= ssw_bound(2, 4, q)


def _plannable(c, q):
    try:
        plan_code(c, q)
    except ValueError:
        return False
    return True


SMALL_PLANS = [(c, q) for c in (2, 3, 4, 7, 8) for q in range(c + 1, 62, c) if _plannable(c, q)]


class TestPlannedCodesAgainstBounds:
    def test_examples_span_c(self):
        assert {(2, 3), (2, 61), (3, 4), (3, 58), (4, 5), (4, 17), (4, 21), (7, 50), (7, 57),
                (8, 9)} <= set(SMALL_PLANS)

    @settings(max_examples=len(SMALL_PLANS), deadline=None, derandomize=True)
    @given(st.sampled_from(SMALL_PLANS))
    def test_built_codes_respect_the_bounds(self, cq):
        c, q = cq
        code = execute_plan(plan_code(c, q))
        bound = ssw_bound(c, c + 2, q)
        assert code.size <= bound
        assert achieved_rate(c, c + 2, q, code.size) < achieved_rate(c, c + 2, q, bound)
        assert is_frameproof_cover(code, c).verdict

    def test_planned_size_is_not_maximum_at_q3(self):
        # a 12-word 2-frameproof code of length 4 over 3 symbols, found by a random greedy
        # search: the plan for c=2 q=3 makes 9 words, and the cardinality bound allows 16
        text = "0011 0100 0222 1022 1101 1212 1220 2000 2102 2110 2121 2201"
        words = [tuple(map(int, word)) for word in text.split()]
        code = make_code(4, 3, words)
        assert code.words == tuple(words)
        naive = is_frameproof_naive(code, 2)
        assert naive.verdict and naive.subsets_examined == 12 + 66  # singletons and pairs
        assert is_frameproof_cover(code, 2).verdict
        assert plan_code(2, 3).expected_size == execute_plan(plan_code(2, 3)).size == 9
        assert ssw_bound(2, 4, 3) == 16
