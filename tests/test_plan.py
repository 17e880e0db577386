import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameproof import (
    ConstructionPlan,
    Step,
    achieved_rate,
    base_code,
    blackburn_leading,
    execute_plan,
    execute_steps,
    factor_prime_powers,
    format_plan,
    is_frameproof_cover,
    is_prime_power,
    is_t_determined,
    parse_steps,
    plan_code,
    ssw_bound,
)


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
            ConstructionPlan(2, 4, 7, 73, ())
        with pytest.raises(ValueError, match="prime power"):
            ConstructionPlan(
                2, 4, 13, 289, (Step("base", "q3"), Step("lift", 6), Step("augment"))
            )
        with pytest.raises(ValueError, match="final"):
            ConstructionPlan(
                2, 4, 3, 9, (Step("base", "q3"), Step("augment"), Step("lift", 3))
            )


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

    @pytest.mark.parametrize("c", [1, 2.0, None, True])
    def test_c_is_checked_on_a_bare_base(self, c):
        with pytest.raises(ValueError, match="c must be an integer of at least 2"):
            execute_steps((Step("base", "q3"),), c)

    def test_a_code_stands_for_the_base(self):
        base = base_code("q3")
        assert Step("base", base).shape(None) == (3, 4, 8)
        steps = (Step("base", base), Step("lift", 3), Step("augment"))
        assert execute_steps(steps, 2) == execute_plan(plan_code(2, 7))
        with pytest.raises(ValueError, match="start from its one base"):
            execute_steps((Step("base", base), Step("base", "q3")), 2)

    def test_bad_steps_rejected(self):
        for steps, match in (
            ((Step("base", "oa6"),), "unknown base"),
            ((Step("base", "q7"),), "unknown base"),
            ((Step("base", "q3"), Step("lift", 3.0)), "prime power"),
            ((Step("lift", 3),), "start from its one base"),
            ((Step("base", "q3"), Step("base", "q3")), "start from its one base"),
            ((Step("base", "q3"), Step("twist")), "unknown step kind"),
            ((("base", "q3"),), "not a Step"),
        ):
            with pytest.raises(ValueError, match=match):
                execute_steps(steps, 2)

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

    def test_mismatch_fails_loudly(self):
        plan = ConstructionPlan(
            2, 4, 7, 99, (Step("base", "q3"), Step("lift", 3), Step("augment"))
        )
        with pytest.raises(RuntimeError, match="expected"):
            execute_plan(plan)

    def test_empty_steps(self):
        with pytest.raises(ValueError):
            execute_steps((), 2)

    def test_format_plan_tracks_parameters(self):
        text = format_plan(plan_code(2, 25))
        assert "target: c=2 q=25 length=4 size=1153" in text
        assert "lift 4: q=9 M=128" in text
        assert "lift 3: q=25 M=1152" in text
        assert text.endswith("augment: q=25 M=1153\nsteps: base q3; lift 4; lift 3; augment")


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
