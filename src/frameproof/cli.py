"""Command-line front end.

Exit status contract: 0 success / property holds, 1 property violated
(witness printed), 2 resource or budget limit hit, 64 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

import numpy as np

from . import acceptance
from .codes import (BudgetExceeded, Code, _FPC_MAGIC, _HEAD, _budget_gate, _check_count, _decimal,
                    _echo, _table_bytes, code_from_text, code_to_text, read_code_file,
                    write_code_file)
from .oa import (_OA_MAGIC, build_oa_strength2, oa_from_text, oa_to_text, read_oa_file,
                 read_oa_header, verify_oa, write_oa_file)
from .plan import (ConstructionPlan, Step, achieved_rate, blackburn_leading, execute_plan,
                   format_plan, parse_steps, plan_code, ssw_bound)
from .verify import NAIVE_BUDGET, _subset_keys, is_frameproof_cover, is_frameproof_naive


_ORACLES = {"naive": is_frameproof_naive, "cover": is_frameproof_cover}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _natural(text: str) -> int:
    # as in a .fpc header: no sign, space, "_" or other script
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {_echo(text)}")
    try:
        return _decimal(text, "the number")
    except ValueError as exc:  # too long for int(); argparse would echo every digit
        raise argparse.ArgumentTypeError(str(exc)) from None


def _global_options() -> _Parser:
    parser = _Parser(add_help=False)
    parser.add_argument("--seed", type=_natural, default=acceptance.SEED,
                        help="seed for randomized checks")
    parser.add_argument("--budget", type=_natural, default=NAIVE_BUDGET,
                        help="work budget for the verifiers, and the most symbols "
                        "(M*l, or k*N for oa) a build may make")
    parser.add_argument("--quiet", action="store_true", help="suppress per-item output")
    return parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="frameproof", description=__doc__, parents=[_global_options()])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("construct", help="build a code from a step chain and write it to a file")
    p.add_argument("--steps", required=True,
                   help='chain such as "base oa4; lift 7; augment"')
    p.add_argument("--c", type=_natural, required=True, help="coalition bound")
    p.add_argument("--in", dest="parent", metavar="PARENT",
                   help=".fpc file that stands for the base step")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="check a code file for c-frameproofness")
    p.add_argument("--c", type=_natural, required=True)
    p.add_argument("--algorithm", choices=[*_ORACLES, "both"], default="cover")
    p.add_argument("codefile")

    p = sub.add_parser("plan", help="plan (and optionally build) a family code")
    p.add_argument("--c", type=_natural, required=True, help="any c with c+1 a prime power")
    p.add_argument("--q", type=_natural, required=True)
    p.add_argument("--execute", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("oa", help="emit a strength-2 orthogonal array")
    p.add_argument("--s", type=_natural, required=True)
    p.add_argument("--out")

    p = sub.add_parser("oa-verify", help="exhaustively check an .oa file")
    p.add_argument("oafile")

    p = sub.add_parser("bounds", help="cardinality and rate bounds for (c, l, q)")
    p.add_argument("--c", type=_natural, required=True)
    p.add_argument("--l", type=_natural, required=True)
    p.add_argument("--q", type=_natural, required=True)
    p.add_argument("--code", help=".fpc file whose size to compare against the bounds")

    sub.add_parser("selftest", help="run the acceptance battery")

    p = sub.add_parser("import", help="parse and validate a .fpc or .oa file")
    p.add_argument("file")

    p = sub.add_parser("export", help="re-emit a .fpc or .oa file in canonical form")
    p.add_argument("file")
    p.add_argument("--out")

    return parser


def _print_witness(witness, code: Code) -> None:
    if witness.kind == "framed":
        words = np.array([*witness.coalition, witness.framed_word], dtype=np.int64)
        *members, framed = str(_table_bytes(words, code.inf_id), "ascii").splitlines()
        print("coalition:", *(f"  {w}" for w in members), "framed word:", f"  {framed}", sep="\n")
    else:
        print(f"  rows {list(witness.rows)}: tuple {list(witness.symbols)} "
              f"appears {witness.count} times, expected {witness.expected}")


def _cmd_construct(args) -> int:
    steps = parse_steps(args.steps)
    if args.parent is not None:
        steps = (Step("base", read_code_file(args.parent)),) + steps
    plan = ConstructionPlan(args.c, steps)
    _budget_gate(args.budget, "construct builds M*l", plan.expected_size * plan.length, "symbols")
    code = execute_plan(plan)
    write_code_file(code, args.out)
    if not args.quiet:
        print(f"wrote {args.out}: {code!r}")
    return 0


def _cmd_verify(args) -> int:
    code = read_code_file(args.codefile)
    rc = 0  # a violation (1) outranks a budget stop (2)
    for name in _ORACLES if args.algorithm == "both" else [args.algorithm]:
        try:
            report = _ORACLES[name](code, args.c, budget=args.budget)
        except BudgetExceeded as exc:
            print(f"{name}: budget exceeded ({exc})", file=sys.stderr)
            rc = rc or 2
            continue
        if report.verdict:
            if not args.quiet:
                print(f"{name}: frameproof (c={args.c}), "
                      f"examined={report.subsets_examined}, elapsed={report.elapsed:.3f}s")
        else:
            rc = 1
            print(f"{name}: NOT frameproof (c={args.c})")
            _print_witness(report.witness, code)
    return rc


def _cmd_plan(args) -> int:
    plan = plan_code(args.c, args.q)
    print(format_plan(plan))
    if args.execute or args.out:
        _budget_gate(args.budget, "plan builds M*l", plan.expected_size * plan.length, "symbols")
        code = execute_plan(plan)
        rate = achieved_rate(plan.c, plan.length, plan.q, code.size)
        if not args.quiet:
            print(f"built {code!r}, rate {rate}")
        if args.out:
            write_code_file(code, args.out)
            if not args.quiet:
                print(f"wrote {args.out}")
    return 0


def _cmd_oa(args) -> int:
    _budget_gate(args.budget, "oa builds k*N", (args.s + 1) * args.s**2, "symbols")
    oa = build_oa_strength2(args.s)
    if args.out:
        write_oa_file(oa, args.out)
        if not args.quiet:
            print(f"wrote {args.out}: {oa!r}")
    else:
        sys.stdout.write(oa_to_text(oa))
    return 0


def _cmd_oa_verify(args) -> int:
    # refuse before reading the table: each of the C(k, t) row subsets counts N keys
    head = read_oa_header(args.oafile)
    _budget_gate(args.budget, "oa-verify counts C(k,t)*N",
                 _subset_keys(head["k"], head["t"], head["N"], args.budget), "keys")
    oa = read_oa_file(args.oafile)
    report = verify_oa(oa)
    if report.verdict:
        if not args.quiet:
            print(f"balanced {oa!r}, row subsets examined: {report.subsets_examined}")
        return 0
    print(f"NOT a valid orthogonal array: {oa!r}")
    _print_witness(report.witness, None)
    return 1


def _cmd_bounds(args) -> int:
    lead = blackburn_leading(args.c, args.l)  # refuses c or length below 2, by name
    _check_count("q", args.q, 2)
    # refuse before any power: a bound too long to print would take minutes to compute
    # with the limit off (0, or no limit before 3.10.7) the interpreter's default applies
    limit = (getattr(sys, "get_int_max_str_digits", int)()
             or getattr(sys.int_info, "default_max_str_digits", 4300))
    if math.log10(args.c) + -(-args.l // args.c) * math.log10(args.q) >= limit:
        raise _UsageError(f"the cardinality bound c*(q**ceil(l/c) - 1) has more than {limit} "
                          "digits, the limit of sys.get_int_max_str_digits() or its default")
    achieved = None
    if args.code:
        code = read_code_file(args.code)
        if (code.length, code.q) != (args.l, args.q):
            raise _UsageError(
                f"--code has l={code.length}, q={code.q}; flags say l={args.l}, q={args.q}"
            )
        achieved = code.size
    ssw = ssw_bound(args.c, args.l, args.q)
    if achieved is not None and achieved > ssw:
        raise ValueError(f"size {achieved} exceeds the cardinality bound {ssw}")
    if not args.quiet:
        print(f"cardinality bound   {ssw}")
        print(f"rate bound          {achieved_rate(args.c, args.l, args.q, ssw)}")
        print(f"asymptotic leading  {lead}")
        if achieved is not None:
            print(f"achieved size       {achieved}")
            print(f"achieved rate       {achieved_rate(args.c, args.l, args.q, achieved)}")
    got = "-" if achieved is None else str(achieved)
    print(f"c={args.c} l={args.l} q={args.q} ssw={ssw} "
          f"leading={lead.numerator}/{lead.denominator} achieved={got}")
    return 0


def _cmd_import(args) -> int:
    kind, obj = _load_any(args.file)
    if not args.quiet:
        print(f"{kind} ok: {obj!r}")
    return 0


def _cmd_export(args) -> int:
    kind, obj = _load_any(args.file)
    if not args.out:
        sys.stdout.write(code_to_text(obj) if kind == "code" else oa_to_text(obj))
        return 0
    (write_code_file if kind == "code" else write_oa_file)(obj, args.out)
    if not args.quiet:
        print(f"wrote {args.out}")
    return 0


def _load_any(path):
    with open(path, "rb") as fh:
        data = fh.read()
    head = (_HEAD.match(data)[1].decode("ascii", "replace").split() or [""])[0]
    if head == _FPC_MAGIC:
        return "code", code_from_text(data)
    if head == _OA_MAGIC:
        return "oa", oa_from_text(data)
    raise ValueError(f"unrecognised file header {_echo(head)}")


# --- selftest ---------------------------------------------------------------


def selftest(seed: int = acceptance.SEED, quiet: bool = False) -> int:
    """Run the acceptance battery, one report line per criterion."""
    failures = 0
    for number, criterion in enumerate(acceptance.CRITERIA, 1):
        ok, detail = criterion(seed)
        failures += not ok
        if not quiet:
            print(acceptance.report_line(number, ok, detail))
    print(f"selftest: {len(acceptance.CRITERIA)} checks, {failures} failures")
    return 1 if failures else 0


# --- dispatch ---------------------------------------------------------------

_DISPATCH = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "plan": _cmd_plan,
    "oa": _cmd_oa,
    "oa-verify": _cmd_oa_verify,
    "bounds": _cmd_bounds,
    "selftest": lambda args: selftest(args.seed, args.quiet),
    "import": _cmd_import,
    "export": _cmd_export,
}


def _parse(argv) -> argparse.Namespace:
    try:
        return _build_parser().parse_args(argv)
    except _UsageError:
        # argparse sets an unknown global flag aside and reads the value after
        # it as the subcommand; name the flag rather than that value
        head = list(itertools.takewhile(lambda tok: tok not in _DISPATCH, argv))
        _, extra = _global_options().parse_known_args(head)
        flag = next((tok for tok in extra if tok.startswith("-")), None)
        if flag is None:
            raise
        raise _UsageError(f"unrecognized arguments: {flag}") from None


def run(argv) -> int:
    try:
        args = _parse(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (see --help)")
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


def main() -> None:
    sys.exit(run(sys.argv[1:]))
