"""Frameproof codes: constructions, planners, and brute-force verification.

A q-ary code of length l is c-frameproof when no coalition of at most c
codewords can assemble (position by position) any codeword outside the
coalition.  This package builds such codes by lifting small
star-structured base codes with polynomial tags over finite fields and
by reading codes off strength-2 orthogonal arrays, and it verifies
every claimed property with independent exhaustive oracles.
"""

from .codes import (
    BudgetExceeded,
    Code,
    Witness,
    code_from_text,
    code_to_text,
    descendant_contains,
    enumerate_descendants,
    framed_witness_holds,
    make_code,
    read_code_file,
    write_code_file,
)
from .construct import (
    augment_infinity,
    base_code,
    polynomial_lift,
)
from .gf import (
    Field,
    default_eval_points,
    factor_prime_powers,
    is_prime_power,
    leading_coeff,
    make_field,
)
from .oa import (
    OrthogonalArray,
    build_oa_strength2,
    make_oa,
    oa_from_text,
    oa_to_pt_code,
    oa_to_text,
    read_oa_file,
    verify_oa,
    write_oa_file,
)
from .plan import (
    ConstructionPlan,
    Step,
    achieved_rate,
    blackburn_leading,
    execute_plan,
    execute_steps,
    format_plan,
    parse_steps,
    plan_code,
    ssw_bound,
)
from .verify import (
    VerifyReport,
    is_frameproof_cover,
    is_frameproof_naive,
    is_t_determined,
)

__version__ = "1.0.0"

__all__ = [
    "BudgetExceeded",
    "Code",
    "ConstructionPlan",
    "Field",
    "OrthogonalArray",
    "Step",
    "VerifyReport",
    "Witness",
    "achieved_rate",
    "augment_infinity",
    "base_code",
    "blackburn_leading",
    "build_oa_strength2",
    "code_from_text",
    "code_to_text",
    "default_eval_points",
    "descendant_contains",
    "enumerate_descendants",
    "execute_plan",
    "execute_steps",
    "factor_prime_powers",
    "format_plan",
    "framed_witness_holds",
    "is_frameproof_cover",
    "is_frameproof_naive",
    "is_prime_power",
    "is_t_determined",
    "leading_coeff",
    "make_code",
    "make_field",
    "make_oa",
    "oa_from_text",
    "oa_to_pt_code",
    "oa_to_text",
    "parse_steps",
    "plan_code",
    "polynomial_lift",
    "read_code_file",
    "read_oa_file",
    "ssw_bound",
    "verify_oa",
    "write_code_file",
    "write_oa_file",
]
