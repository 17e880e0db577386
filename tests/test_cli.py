import itertools
import os
import subprocess
import sys
import time

import pytest

from frameproof import (
    ConstructionPlan,
    Step,
    augment_infinity,
    base_code,
    build_oa_strength2,
    execute_steps,
    format_plan,
    make_code,
    make_oa,
    oa_from_text,
    parse_steps,
    read_code_file,
    write_code_file,
    write_oa_file,
)
from helpers import digits_past_int_limit, named_code

import frameproof
from frameproof import BudgetExceeded, acceptance, construct
from frameproof.cli import run
from frameproof.codes import _budget_gate


@pytest.fixture
def base_file(tmp_path):
    path = tmp_path / "base.fpc"
    write_code_file(base_code("q3"), path)
    return path


class TestConstruct:
    def test_lift_pipeline_header(self, tmp_path, base_file, capsys):
        out = tmp_path / "q7.fpc"
        rc = run([
            "construct", "--in", str(base_file), "--c", "2", "--steps", "lift 3",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "fpc1 q=7 l=4 M=72 inf=0"

    def test_base_with_augment(self, tmp_path):
        out = tmp_path / "aug.fpc"
        assert run(["construct", "--c", "2", "--steps", "base q3; augment",
                    "--out", str(out)]) == 0
        assert read_code_file(out).size == 9

    def test_array_seed_lift(self, tmp_path):
        out = tmp_path / "fam.fpc"
        assert run(["construct", "--c", "3", "--steps", "base oa4; lift 4",
                    "--out", str(out)]) == 0
        code = read_code_file(out)
        assert (code.q, code.size) == (13, 240)

    def test_recipe_spelling_removed(self, tmp_path, capsys):
        # chains are spelled with --steps; --recipe, --m, --t and --augment-inf are gone
        out = str(tmp_path / "lift.fpc")
        assert run(["construct", "--recipe", "oa-family", "--c", "3", "--m", "4",
                    "--out", out]) == 64
        assert run(["construct", "--recipe", "base-q3", "--augment-inf", "--out", out]) == 64
        assert run(["construct", "--c", "3", "--steps", "base oa4; lift 4", "--augment-inf",
                    "--out", out]) == 64
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "lift.fpc").exists()

    def test_short_lift_replaces_base_q5(self, tmp_path, base_file, capsys):
        out = tmp_path / "q5.fpc"
        for name in ("q5", "q10"):
            assert run(["construct", "--c", "2", "--steps", f"base {name}",
                        "--out", str(out)]) == 64
            assert "unknown base" in capsys.readouterr().err
        assert run(["construct", "--in", str(base_file), "--c", "2", "--steps", "lift 2",
                    "--out", str(out)]) == 0
        assert read_code_file(out) == named_code("q5")

    @pytest.mark.parametrize("spec, bad", [
        (";", ""),
        ("base q3;", ""),
        ("base q3;; lift 3", ""),
        ("base q3; lift 3.0", "lift 3.0"),
        ("base q3; lift -1", "lift -1"),
        ("base q3; lift", "lift"),
        ("base q3; augment 3", "augment 3"),
        ("base", "base"),
        ("base q3; twist", "twist"),
    ])
    def test_malformed_steps_are_usage_errors(self, tmp_path, capsys, spec, bad):
        out = tmp_path / "x.fpc"
        assert run(["construct", "--c", "2", "--steps", spec, "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert f"step {bad!r} is not 'base NAME', 'lift M' or 'augment'" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("spec, what", [("base q3; lift {}", "the M of step 'lift M'"),
                                            ("base oa{}", "the s of base 'oa<s>'")])
    def test_numbers_too_long_for_int_name_their_step(self, tmp_path, capsys, spec, what):
        digits = digits_past_int_limit()
        out = tmp_path / "x.fpc"
        argv = ["construct", "--c", "2", "--steps", spec.format("7" * digits), "--out", str(out)]
        assert run(argv) == 64
        err = capsys.readouterr().err
        assert err == f"error: {what} has {digits} digits, more than int() converts\n"
        assert not out.exists()

    def test_an_empty_chain_is_the_in_file(self, tmp_path, base_file, capsys):
        # the steps: line of a plan that is only a base Code replays with --in
        plan = ConstructionPlan(2, (Step("base", base_code("q3")),))
        assert format_plan(plan).endswith("\nsteps: ") and parse_steps(" \t") == ()
        out, want = tmp_path / "x.fpc", tmp_path / "want.fpc"
        assert run(["export", str(base_file), "--out", str(want)]) == 0
        for spec in ("", " "):
            assert run(["construct", "--in", str(base_file), "--c", "2", "--steps", spec,
                        "--out", str(out)]) == 0
            assert out.read_bytes() == want.read_bytes()
        out.unlink()
        assert run(["construct", "--c", "2", "--steps", "", "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert "plan has no steps" in err and "Traceback" not in err
        assert not out.exists()

    def test_c_below_two_is_refused_on_a_bare_base(self, tmp_path, capsys):
        out = tmp_path / "x.fpc"
        assert run(["construct", "--c", "1", "--steps", "base q3", "--out", str(out)]) == 64
        assert "c must be an integer of at least 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_in_stands_for_the_base(self, tmp_path, base_file, capsys):
        out = tmp_path / "x.fpc"
        assert run(["construct", "--in", str(base_file), "--c", "2",
                    "--steps", "base q3; lift 3", "--out", str(out)]) == 64
        assert "start from its one base" in capsys.readouterr().err
        assert not out.exists()

    def test_augmentation_reads_c(self, tmp_path):
        out = str(tmp_path / "x.fpc")
        assert run(["construct", "--c", "2", "--steps", "base q3; augment", "--out", out]) == 0
        assert run(["construct", "--c", "3", "--steps", "base oa4; lift 4; augment",
                    "--out", out]) == 0
        assert read_code_file(out).size == 241
        # length 4 with a star admits no t = 2 at c = 3: (2-1)*(3+1) is not below 4
        assert run(["construct", "--c", "3", "--steps", "base q3; augment", "--out", out]) == 64

    def test_missing_inputs_are_usage_errors(self, tmp_path):
        out = str(tmp_path / "x.fpc")
        assert run(["construct", "--c", "2", "--steps", "lift 3", "--out", out]) == 64
        assert run(["construct", "--steps", "base q3", "--out", out]) == 64
        assert run(["construct", "--c", "2", "--out", out]) == 64

    def test_bad_math_is_reported(self, tmp_path, base_file):
        rc = run(["construct", "--in", str(base_file), "--c", "2", "--steps", "lift 6",
                  "--out", str(tmp_path / "x.fpc")])
        assert rc == 64

    @pytest.mark.parametrize("inf, steps, message", [
        (None, "lift 3; augment", "code has no infinity symbol"),
        (None, "lift 2",
         "GF(2) is one point short for length 4: every parent word needs an infinity"),
        (5, "lift 3", "parent code's infinity must be symbol 0 or none, got 5"),
    ])
    def test_chains_the_builders_refuse_build_nothing(self, tmp_path, capsys, monkeypatch,
                                                      inf, steps, message):
        # refused from the chain's shapes, before any lift and before the budget check
        monkeypatch.setattr(construct, "_lift_words", lambda *args: pytest.fail("lifted"))
        oa = build_oa_strength2(3)
        path, out = tmp_path / "columns.fpc", tmp_path / "x.fpc"
        write_code_file(make_code(4, 3 if inf is None else 7, oa.array.T, inf_id=inf), path)
        for budget in ([], ["--budget", "1"]):
            assert run(budget + ["construct", "--in", str(path), "--c", "3", "--steps", steps,
                                 "--out", str(out)]) == 64
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--in", "columns.fpc", "--c", "4", "--steps", "lift 3"],
         "lemma_t admits t <= 1 at length 4 and c=4, got t=2"),
        (["--c", "5", "--steps", "base q3; augment"],
         "lemma_t admits t <= 1 at length 4 and c=5, got t=2"),
        (["--c", "1", "--steps", "base q3; lift 3"], "c must be an integer of at least 2, got 1"),
    ])
    def test_chains_that_cannot_be_built_for_c_exit_64_at_any_budget(
            self, tmp_path, capsys, monkeypatch, argv, message):
        # the lemma and the c count are word-free rules: refused before the budget check
        monkeypatch.setattr(construct, "_lift_words", lambda *args: pytest.fail("lifted"))
        oa = build_oa_strength2(3)
        write_code_file(make_code(4, 3, oa.array.T), tmp_path / "columns.fpc")
        argv = [str(tmp_path / a) if a == "columns.fpc" else a for a in argv]
        out = tmp_path / "x.fpc"
        assert run(["--budget", "1", "construct"] + argv + ["--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_planned_steps_after_a_code_base_replay_with_in(self, tmp_path, base_file):
        steps = (Step("base", read_code_file(base_file)), Step("lift", 3), Step("augment"))
        *_, line = format_plan(ConstructionPlan(2, steps)).splitlines()
        chain = line.removeprefix("steps: ")
        assert chain == "lift 3; augment" and parse_steps(chain) == steps[1:]
        out, want = tmp_path / "x.fpc", tmp_path / "want.fpc"
        assert run(["construct", "--in", str(base_file), "--c", "2", "--steps", chain,
                    "--out", str(out)]) == 0
        write_code_file(execute_steps(steps, 2), want)
        assert out.read_bytes() == want.read_bytes()


class TestBuildBudget:
    @pytest.mark.parametrize("argv, symbols", [
        (["--c", "3", "--steps", "base q4"], 15 * 5),
        (["--c", "2", "--steps", "base q3; augment"], (8 + 1) * 4),
        (["--c", "2", "--steps", "lift 3"], 8 * 3**2 * 4),
        (["--c", "2", "--steps", "lift 3; augment"], (72 + 1) * 4),
        (["--c", "3", "--steps", "base oa4; lift 4"], 15 * 4**2 * 5),
    ])
    def test_construct_is_refused_above_the_budget(self, tmp_path, base_file, capsys,
                                                   argv, symbols):
        argv = ["construct"] + argv + ["--out", str(tmp_path / "x.fpc")]
        if not argv[4].startswith("base"):  # the chain's base is read from --in
            argv += ["--in", str(base_file)]
        assert run(["--budget", str(symbols - 1)] + argv) == 2
        assert (f"construct builds M*l = {symbols} symbols, above the budget of {symbols - 1}"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.fpc").exists()
        assert run(["--budget", str(symbols)] + argv) == 0
        code = read_code_file(tmp_path / "x.fpc")
        assert code.size * code.length == symbols

    def test_oa_is_refused_above_the_budget(self, capsys):
        assert run(["--budget", "11", "oa", "--s", "2"]) == 2
        assert "oa builds k*N = 12 symbols, above the budget of 11" in capsys.readouterr().err
        assert run(["--budget", "12", "oa", "--s", "2"]) == 0
        start = time.perf_counter()
        assert run(["oa", "--s", "4001"]) == 2
        assert time.perf_counter() - start < 1

    def test_t_flag_is_a_usage_error(self, tmp_path, base_file, capsys):
        assert run(["construct", "--in", str(base_file), "--c", "2", "--steps", "lift 3",
                    "--t", "-1", "--out", str(tmp_path / "x.fpc")]) == 64
        assert "--t" in capsys.readouterr().err


def _two_long_words(tmp_path):
    path = tmp_path / "long.fpc"
    path.write_text("fpc1 q=2 l=20000 M=2 inf=none\n" + " ".join("0" * 20000) + "\n"
                    + " ".join("1" * 20000) + "\n")
    return ["verify", "--c", "2", "--algorithm", "cover", str(path)]


def _oa_header(k, t):
    def argv(tmp_path):
        path = tmp_path / "header.oa"
        path.write_text(f"oa1 N=4 k={k} s=2 t={t}\n")
        return ["oa-verify", str(path)]
    return argv


# counts that str() refuses, or that math.comb takes minutes to form
UNBOUNDED = {
    "oa": lambda tmp_path: ["oa", "--s", "9" * 2000],
    "construct": lambda tmp_path: ["construct", "--c", "2", "--steps", "base q3" + "; lift 3" * 5000,
                                   "--out", str(tmp_path / "x.fpc")],
    "verify": _two_long_words,
    "oa-verify": _oa_header(200000, 100000),
    "oa-verify-wide": _oa_header(2000000, 1000000),
}


class TestBudgetGate:
    @pytest.mark.parametrize("name", UNBOUNDED)
    def test_unbounded_count_is_refused_before_any_work(self, tmp_path, name):
        # in a fresh process, so that a count that hangs fails the test at its timeout
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(frameproof.__file__))}
        done = subprocess.run([sys.executable, "-m", "frameproof", *UNBOUNDED[name](tmp_path)],
                              capture_output=True, text=True, timeout=10, env=env)
        assert done.returncode == 2
        assert "above the budget of 100000000" in done.stderr
        assert "Exceeds the limit" not in done.stderr + done.stdout
        assert not (tmp_path / "x.fpc").exists()

    def test_a_count_past_any_digit_limit_is_shown_as_a_bound(self):
        with pytest.raises(BudgetExceeded) as exc:
            _budget_gate(10**8, "work", 10**5000, "units")
        bits = (10**5000).bit_length() - 1
        assert str(exc.value) == f"work = at least 2**{bits} units, above the budget of 100000000"
        assert exc.value.examined == 0
        with pytest.raises(BudgetExceeded, match=rf"budget of at least 2\*\*{bits}$"):
            _budget_gate(10**5000, "work", 10**5001, "units")
        _budget_gate(10**5000, "work", 10**5000, "units")  # at the budget: admitted

    def test_a_count_is_exact_below_the_lowest_digit_limit(self):
        # 2**1920 - 1 has 578 digits, within the 640 that every setting of the limit converts
        lowest = getattr(sys.int_info, "str_digits_check_threshold", None)
        if lowest is None:
            pytest.skip("int() converts decimal text of any length")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(lowest)
        try:
            for count, shown in [(2**1920 - 1, str(2**1920 - 1)), (2**1920, "at least 2**1920")]:
                with pytest.raises(BudgetExceeded) as exc:
                    _budget_gate(0, "work", count, "units")
                assert str(exc.value) == f"work = {shown} units, above the budget of 0"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_cover_index_refusal(self, tmp_path, capsys):
        # 32 words of length 4: 32 * (2**4 - 2) = 448 projections
        path = tmp_path / "q5.fpc"
        write_code_file(named_code("q5"), path)
        assert run(["--budget", "447", "verify", "--c", "2", str(path)]) == 2
        assert capsys.readouterr().err == ("cover: budget exceeded (cover's index takes "
                                           "M*(2^l-2) = 448 projections, above the budget of 447)\n")
        assert run(["--budget", "448", "verify", "--c", "2", str(path)]) == 2  # in the search

    def test_oa_verify_counts_past_the_budget_as_a_bound(self, tmp_path, capsys):
        # C(4000, 2000) * 4 passes 2**1920 and the budget, so only its bound is shown
        path = tmp_path / "header.oa"
        path.write_text("oa1 N=4 k=4000 s=2 t=2000\n")
        assert run(["oa-verify", str(path)]) == 2
        assert "C(k,t)*N = at least 2**1922 keys, above the budget" in capsys.readouterr().err
        # C(64, 32) * 4 is short: shown exactly, above a budget of 2**62
        path.write_text("oa1 N=4 k=64 s=2 t=32\n")
        assert run(["--budget", str(2**62), "oa-verify", str(path)]) == 2
        assert f"C(k,t)*N = {4 * 1832624140942590534} keys" in capsys.readouterr().err


class TestVerify:
    def test_good_code(self, tmp_path, base_file):
        assert run(["verify", "--c", "2", "--algorithm", "both", str(base_file)]) == 0

    def test_witness_and_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.fpc"
        write_code_file(make_code(2, 2, [(0, 0), (0, 1), (1, 0)]), path)
        assert run(["verify", "--c", "2", "--algorithm", "naive", str(path)]) == 1
        out = capsys.readouterr().out
        assert "NOT frameproof" in out
        assert "framed word" in out

    def test_budget_exit_two(self, tmp_path):
        path = tmp_path / "big.fpc"
        write_code_file(named_code("q5"), path)
        assert run(["--budget", "5", "verify", "--c", "2", "--algorithm", "naive",
                    str(path)]) == 2

    def test_cover_budget_exit_two(self, tmp_path):
        path = tmp_path / "big.fpc"
        write_code_file(named_code("q5"), path)
        assert run(["--budget", "5", "verify", "--c", "2", "--algorithm", "cover",
                    str(path)]) == 2

    def test_violation_outranks_a_budget_stop(self, tmp_path, capsys):
        # every word of a full 4 x 4 square is framed: cover finds one within
        # its 32 projections and a few nodes, while naive's 16 * 15 singleton pairs pass 100
        path = tmp_path / "square.fpc"
        write_code_file(make_code(2, 4, list(itertools.product(range(4), repeat=2))), path)
        assert run(["--budget", "100", "verify", "--c", "2", "--algorithm", "both",
                    str(path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("naive: budget exceeded (")
        assert out.splitlines()[0] == "cover: NOT frameproof (c=2)"

    def test_negative_budget_is_a_usage_error(self, base_file, capsys):
        assert run(["--budget", "-1", "verify", "--c", "2", str(base_file)]) == 64
        assert "--budget" in capsys.readouterr().err
        assert run(["--budget", "0", "verify", "--c", "2", str(base_file)]) == 2

    def test_witness_lines_show_the_star(self, tmp_path, capsys):
        path = tmp_path / "starred.fpc"
        write_code_file(make_code(2, 3, [(0, 1), (1, 0), (1, 1)], inf_id=0), path)
        assert run(["verify", "--c", "2", "--algorithm", "both", str(path)]) == 1
        lines = ["coalition:", "  * 1", "  1 *", "framed word:", "  1 1"]
        assert capsys.readouterr().out.splitlines() == (
            ["naive: NOT frameproof (c=2)"] + lines + ["cover: NOT frameproof (c=2)"] + lines
        )

    def test_huge_header_q(self, tmp_path, capsys):
        # the naive oracle indexes the symbols present, not range(q)
        path = tmp_path / "huge.fpc"
        path.write_text("fpc1 q=99999999999999999999 l=2 M=1 inf=none\n5 7\n")
        for algorithm in ("naive", "cover"):
            assert run(["verify", "--c", "2", "--algorithm", algorithm, str(path)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_symbol_past_int64_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "wide.fpc"
        path.write_text(f"fpc1 q={2**64} l=2 M=2 inf=none\n1 {2**63}\n2 3\n")
        assert run(["verify", "--c", "2", str(path)]) == 64
        err = capsys.readouterr().err
        assert f"symbol {2**63} out of range" in err and "Traceback" not in err

    def test_jobs_flag(self, base_file, capsys):
        # the verifiers run in one process; the flag is gone
        assert run(["--jobs", "2", "verify", "--c", "2", str(base_file)]) == 64
        assert "--jobs" in capsys.readouterr().err

    def test_missing_file(self):
        assert run(["verify", "--c", "2", "nope.fpc"]) == 64


class TestPlanCommand:
    def test_prints_tree(self, capsys):
        assert run(["plan", "--c", "2", "--q", "7"]) == 0
        out = capsys.readouterr().out
        assert "base q3" in out and "3. augment: q=7 M=73" in out

    def test_execute_writes_file(self, tmp_path):
        out = tmp_path / "q7.fpc"
        assert run(["plan", "--c", "2", "--q", "7", "--execute", "--out", str(out)]) == 0
        assert read_code_file(out).size == 73

    def test_rejects_off_family_q(self):
        assert run(["plan", "--c", "3", "--q", "9"]) == 64

    def test_any_c_with_prime_power_c_plus_one(self, tmp_path, capsys):
        out = tmp_path / "c4.fpc"
        assert run(["plan", "--c", "4", "--q", "21", "--execute", "--out", str(out)]) == 0
        assert "base oa5" in capsys.readouterr().out
        assert read_code_file(out).size == 601
        assert run(["verify", "--c", "4", str(out)]) == 0

    def test_unplannable_c_and_q_give_reasons(self, capsys):
        assert run(["plan", "--c", "5", "--q", "11"]) == 64
        assert "c+1 = 6 is not a prime power" in capsys.readouterr().err
        assert run(["plan", "--c", "4", "--q", "13"]) == 64
        assert "prime-power factor 3, below c = 4" in capsys.readouterr().err
        assert run(["plan", "--c", "4", "--q", "17"]) == 0  # (q-1)/c = 4 = c
        assert "1. base oa5: q=5 M=24\n  2. lift 4: q=17 M=384" in capsys.readouterr().out

    def test_build_larger_than_the_budget_is_refused(self, capsys):
        start = time.perf_counter()
        assert run(["plan", "--c", "2", "--q", "4001", "--execute"]) == 2
        assert time.perf_counter() - start < 1
        assert "M*l = 128000004 symbols, above the budget of 100000000" in (
            capsys.readouterr().err)
        assert run(["--budget", "100", "plan", "--c", "2", "--q", "7", "--execute"]) == 2
        assert "M*l = 292 symbols, above the budget of 100" in capsys.readouterr().err
        assert run(["--budget", "292", "plan", "--c", "2", "--q", "7", "--execute"]) == 0

    @pytest.mark.parametrize("c, q, n", [
        ("2", "200000000000000000079", "100000000000000000039"),
        ("1000000000000000002", "5", "1000000000000000003"),
    ])
    def test_huge_numbers_are_refused_before_factoring(self, capsys, c, q, n):
        start = time.perf_counter()
        assert run(["plan", "--c", c, "--q", q]) == 64
        assert time.perf_counter() - start < 1
        assert f"{n} is too large to factor" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["plan", "--c", "2", "--q", "1_01"],
    ["plan", "--c", "2", "--q", " 101"],
    ["plan", "--c", "-2", "--q", "7"],
    ["oa", "--s", "1_1"],
    ["oa", "--s", "\u0661\u0661"],
    ["bounds", "--c", "2", "--l", "+4", "--q", "3"],
    ["--seed", "0x5", "selftest"],
    ["--budget", "\u0661" + "\u0660" * 8, "plan", "--c", "2", "--q", "7"],
    ["construct", "--c", "2", "--steps", "base q3; lift \u0663", "--out", "OUT"],
    ["construct", "--c", "2", "--steps", "base q3; lift 0_3", "--out", "OUT"],
])
def test_integers_are_ascii_decimal(tmp_path, capsys, argv):
    # the rule of the .fpc header: no sign, space, underscore or non-ASCII digit
    out = tmp_path / "x.fpc"
    assert run([str(out) if a == "OUT" else a for a in argv]) == 64
    err = capsys.readouterr().err
    assert "must be a non-negative integer" in err or "is not 'base NAME'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["plan", "--c", "2", "--q", "NINES"],
    ["--budget", "NINES", "plan", "--c", "2", "--q", "7"],
])
def test_an_integer_too_long_for_int_names_its_digits(capsys, argv):
    # argparse's own refusal would echo every digit and name the private type function
    digits = digits_past_int_limit()
    assert run(["9" * digits if a == "NINES" else a for a in argv]) == 64
    err = capsys.readouterr().err
    assert f"has {digits} digits, more than int() converts" in err
    assert len(err) < 200


@pytest.mark.parametrize("argv", [
    ["plan", "--c", "2", "--q", "NINESx"],
    ["construct", "--c", "2", "--steps", "base qNINESx", "--out", "OUT"],
    ["construct", "--c", "2", "--steps", "base q3; lift NINESx", "--out", "OUT"],
])
def test_a_long_refused_value_is_echoed_short(tmp_path, capsys, argv):
    # text that is not all digits is echoed as a prefix and its length, not in full
    nines = "9" * 5000
    out = tmp_path / "x.fpc"
    argv = [str(out) if a == "OUT" else a.replace("NINES", nines) for a in argv]
    assert run(argv) == 64
    err = capsys.readouterr().err
    assert "characters)" in err and "Traceback" not in err
    assert len(err) < 300
    assert not out.exists()


class TestOaCommands:
    def test_build_verify_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "a.oa"
        assert run(["oa", "--s", "4", "--out", str(path)]) == 0
        assert run(["oa-verify", str(path)]) == 0
        for s in ("0", "1"):
            assert run(["oa", "--s", s]) == 64
            assert f"error: s must be an integer of at least 2, got {s}" in capsys.readouterr().err

    def test_corruption_detected(self, tmp_path, capsys):
        path = tmp_path / "bad.oa"
        oa = build_oa_strength2(3)
        bad = oa.array.copy()
        bad[1, 2] = (bad[1, 2] + 1) % 3
        text = "oa1 N=9 k=4 s=3 t=2\n" + "\n".join(
            " ".join(str(v) for v in row) for row in bad.tolist()
        ) + "\n"
        path.write_text(text)
        assert run(["oa-verify", str(path)]) == 1
        assert "NOT" in capsys.readouterr().out

    def test_verify_is_refused_above_the_budget(self, tmp_path, capsys):
        # C(4, 2) row pairs of 9 runs each: 54 key counts
        path = tmp_path / "a.oa"
        write_oa_file(build_oa_strength2(3), path)
        assert run(["--budget", "54", "oa-verify", str(path)]) == 0
        assert run(["--budget", "53", "oa-verify", str(path)]) == 2
        assert "C(k,t)*N = 54 keys, above the budget of 53" in capsys.readouterr().err

    def test_verify_is_refused_from_the_header(self, tmp_path, capsys):
        # a k=18 t=9 full factorial's header over a truncated table: the budget is
        # checked before the table is read, so the refusal is exit 2, not a parse error
        path = tmp_path / "ff.oa"
        path.write_text("oa1 N=262144 k=18 s=2 t=9\n0 1 0 1\n")
        assert run(["oa-verify", str(path)]) == 2
        assert "C(k,t)*N = 12745441280 keys" in capsys.readouterr().err
        assert run(["--budget", "12745441280", "oa-verify", str(path)]) == 64
        assert "header says k=18 N=262144" in capsys.readouterr().err
        path.write_text("\n  oa1 N=4 k=3 s=2 t=x\n")
        assert run(["oa-verify", str(path)]) == 64
        # only the header is read before the refusal: a stray byte in the table waits
        path.write_bytes(b"oa1 N=262144 k=18 s=2 t=9\n0 \xff 1\n")
        assert run(["oa-verify", str(path)]) == 2

    def test_header_too_long_for_int_names_its_field(self, tmp_path, capsys):
        digits = digits_past_int_limit()
        path = tmp_path / "t.oa"
        path.write_text(f"oa1 N=4 k=2 s=2 t={'1' * digits}\n0 0 1 1\n0 1 0 1\n")
        for command in ("import", "oa-verify"):
            assert run([command, str(path)]) == 64
            err = capsys.readouterr().err
            assert err == f"error: oa1 header field t has {digits} digits, more than int() converts\n"

    def test_both_readers_refuse_a_non_ascii_header_alike(self, tmp_path, capsys):
        path = tmp_path / "t.oa"
        path.write_bytes("oa1 N=4 k=2 s=2 t=\u0661\n0 0 1 1\n0 1 0 1\n".encode())
        for command in ("import", "oa-verify"):
            assert run([command, str(path)]) == 64
            assert capsys.readouterr().err == "error: oa1 text is not ASCII\n"

    def test_stdout_array_parses(self, capsys):
        assert run(["oa", "--s", "2"]) == 0
        oa = oa_from_text(capsys.readouterr().out)
        assert oa.runs == 4

    def test_conflicting_flag_rejected(self):
        assert run(["oa", "--s", "3", "--algorithm", "naive"]) == 64


def _str_digits():
    """The interpreter's limit on the digits of a printed integer, or its default when off."""
    return (getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
            or getattr(sys.int_info, "default_max_str_digits", 4300))


class TestBounds:
    def test_machine_line(self, capsys):
        assert run(["bounds", "--c", "3", "--l", "5", "--q", "10"]) == 0
        out = capsys.readouterr().out
        assert "c=3 l=5 q=10 ssw=297 leading=5/3 achieved=-" in out

    def test_with_code_file(self, tmp_path, capsys):
        path = tmp_path / "code.fpc"
        write_code_file(augment_infinity(base_code("q3"), 2, 2), path)
        assert run(["bounds", "--c", "2", "--l", "4", "--q", "3", "--code", str(path)]) == 0
        assert "achieved=9" in capsys.readouterr().out

    def test_mismatched_code_flags(self, tmp_path):
        path = tmp_path / "code.fpc"
        write_code_file(base_code("q3"), path)
        assert run(["bounds", "--c", "2", "--l", "5", "--q", "3", "--code", str(path)]) == 64

    def test_size_above_the_bound_refused(self, tmp_path, capsys):
        path = tmp_path / "code.fpc"
        words = list(itertools.product(range(3), repeat=4))[:17]
        write_code_file(make_code(4, 3, words), path)
        assert run(["bounds", "--c", "2", "--l", "4", "--q", "3", "--code", str(path)]) == 64
        assert "size 17 exceeds the cardinality bound 16" in capsys.readouterr().err

    @pytest.mark.parametrize("c, length, q", [
        ("2", "20000", "10"),
        ("2", "200000000", "10"),
        ("10000000000", "2", None),  # q = 10**(d-5) has d-4 digits and c adds 10
    ])
    def test_bound_too_long_to_print_refused_at_once(self, c, length, q, capsys):
        digits = _str_digits()
        q = q or "1" + "0" * (digits - 5)
        start = time.perf_counter()
        assert run(["bounds", "--c", c, "--l", length, "--q", q]) == 64
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert f"more than {digits} digits" in err
        assert "set_int_max_str_digits" not in err  # not Python's own message

    def test_longest_printable_bound(self, capsys):
        # 2*(10**(d-1) - 1) = 19...98 has d digits, the limit; one more position adds a digit
        digits = _str_digits()
        length = 2 * (digits - 1)
        assert run(["bounds", "--c", "2", "--l", str(length), "--q", "10"]) == 0
        assert f"ssw=1{'9' * (digits - 2)}8 " in capsys.readouterr().out
        assert run(["bounds", "--c", "2", "--l", str(length + 1), "--q", "10"]) == 64
        assert f"more than {digits} digits" in capsys.readouterr().err

    def test_bound_refused_at_the_default_with_the_limit_off(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        start = time.perf_counter()
        assert run(["bounds", "--c", "2", "--l", "200000000", "--q", "10"]) == 64
        assert time.perf_counter() - start < 1
        assert "more than 4300 digits" in capsys.readouterr().err
        # 10,000 digits, printable with the limit off, is refused too
        assert run(["bounds", "--c", "2", "--l", "20000", "--q", "10"]) == 64

    @pytest.mark.parametrize("flags, name", [
        pytest.param(["--c", "0", "--l", "4"], "c", id="flags0"),
        pytest.param(["--c", "2", "--l", "1"], "length", id="flags1"),
        pytest.param(["--c", "2", "--l", "4", "--q", "0"], "q", id="flags2"),
    ])
    def test_parameters_below_two_refused(self, flags, name, capsys):
        assert run(["bounds", "--q", "3"] + flags) == 64
        assert f"error: {name} must be an integer of at least 2" in capsys.readouterr().err


class TestPassthrough:
    def test_import_both_kinds(self, tmp_path, base_file):
        oa_path = tmp_path / "a.oa"
        write_oa_file(build_oa_strength2(3), oa_path)
        assert run(["import", str(base_file)]) == 0
        assert run(["import", str(oa_path)]) == 0

    def test_export_is_byte_identical(self, tmp_path, base_file, capsys):
        out = tmp_path / "copy.fpc"
        assert run(["export", str(base_file), "--out", str(out)]) == 0
        assert out.read_bytes() == base_file.read_bytes()

    def test_oa_export_is_byte_identical(self, tmp_path):
        src = tmp_path / "a.oa"
        out = tmp_path / "copy.oa"
        write_oa_file(build_oa_strength2(5), src)
        assert run(["export", str(src), "--out", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("rows, s, t", [([[], []], 3, 1), ([[]] * 3, 3, 2)])
    def test_oa_with_no_runs_exports_and_verifies(self, tmp_path, rows, s, t):
        src = tmp_path / "empty.oa"
        out = tmp_path / "copy.oa"
        write_oa_file(make_oa(rows, s, t), src)
        assert run(["export", str(src), "--out", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()
        assert run(["oa-verify", str(src)]) == 0

    def test_export_to_stdout(self, base_file, capsys):
        assert run(["export", str(base_file)]) == 0
        assert capsys.readouterr().out == base_file.read_text()

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello world\n")
        assert run(["import", str(path)]) == 64


class TestUsage:
    def test_no_command(self):
        assert run([]) == 64

    def test_unknown_flag(self):
        assert run(["verify", "--c", "2", "--wat", "x.fpc"]) == 64

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 64


def test_selftest_passes(capsys):
    assert run(["--seed", "5", "selftest"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_selftest_quiet(capsys):
    assert run(["--quiet", "selftest"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].startswith("selftest:")


def test_battery_prints_one_line_per_criterion(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 10
    for number, line in enumerate(out[:9], 1):
        assert line.startswith(f"criterion {number}: PASS - ")
    assert out[9] == "selftest: 9 checks, 0 failures"


def test_battery_reports_a_failing_criterion(monkeypatch, capsys):
    criteria = (lambda seed: (True, "fine"), lambda seed: (False, "planted"))
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    assert run(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "criterion 1: PASS - fine",
        "criterion 2: FAIL - planted",
        "selftest: 2 checks, 1 failures",
    ]


def test_seed_reaches_the_oracle_criterion(monkeypatch, capsys):
    # keep only criterion 8 real; the others pass without running
    criteria = tuple(
        c if c is acceptance.criterion_8_oracle_equivalence else (lambda seed: (True, "-"))
        for c in acceptance.CRITERIA
    )
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    lines = []
    for argv in (["selftest"], ["--seed", "5", "selftest"]):
        assert run(argv) == 0
        lines.append(capsys.readouterr().out.splitlines()[7])
    assert "1732 witnesses revalidated" in lines[0]
    assert lines[1].startswith("criterion 8: PASS") and "1732 witnesses" not in lines[1]
