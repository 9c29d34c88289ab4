"""Character sums and hypergeometric series over finite fields, with
point counts on the curves y^l = (x-1)(x^2+lambda) and a verification
sweep tying the two together."""

from .characters import Character, character_of_order, parse_character
from .curves import (
    CurveSpec,
    PointCount,
    brute_force_count,
    character_sum_count,
    cornacchia_3,
    good_reduction,
    reduce_lambda,
    weierstrass_count_l3,
)
from .errors import (
    BadReductionError,
    CongruenceError,
    FieldMismatchError,
    FieldTooLargeError,
    HgfqError,
    LogOfZeroError,
    NoRepresentationError,
    NotPrimeError,
    OddPrimeRequiredError,
    OrderNotDividingError,
)
from .field import DEFAULT_Q_CAP, Field, is_prime, make_field
from .hgf import evans_F, series_value
from .report import VerificationReport, build_report
from .verifier import (
    SweepConfig,
    sweep,
    verify_2f1_specials,
    verify_2f1_trace,
    verify_3f2_at_4,
    verify_charsum_lemmas,
    verify_corollary_c3,
    verify_corollary_chi4,
    verify_corollary_lcm,
    verify_lambda_third,
    verify_main_square,
    verify_mccarthy,
    verify_ono,
)

__version__ = "0.1.0"

__all__ = [
    "BadReductionError",
    "Character",
    "CongruenceError",
    "CurveSpec",
    "DEFAULT_Q_CAP",
    "Field",
    "FieldMismatchError",
    "FieldTooLargeError",
    "HgfqError",
    "LogOfZeroError",
    "NoRepresentationError",
    "NotPrimeError",
    "OddPrimeRequiredError",
    "OrderNotDividingError",
    "PointCount",
    "SweepConfig",
    "VerificationReport",
    "brute_force_count",
    "build_report",
    "character_of_order",
    "character_sum_count",
    "cornacchia_3",
    "evans_F",
    "good_reduction",
    "is_prime",
    "make_field",
    "parse_character",
    "reduce_lambda",
    "series_value",
    "sweep",
    "verify_2f1_specials",
    "verify_2f1_trace",
    "verify_3f2_at_4",
    "verify_charsum_lemmas",
    "verify_corollary_c3",
    "verify_corollary_chi4",
    "verify_corollary_lcm",
    "verify_lambda_third",
    "verify_main_square",
    "verify_mccarthy",
    "verify_ono",
    "weierstrass_count_l3",
]
