"""lucaslab: arithmetic of second-order linear recurrences with seeds 0, 1.

Exact terms and companions, modular periods and cycle structure, rank of
apparition, prime-power divisibility laws, congruence identities, and
Wall-Sun-Sun-analogue scanning for the family e(n) = A*e(n-1) + B*e(n-2).
"""

from .atlas import AtlasRow, WssFinding, atlas_rows, wss_scan
from .core import (
    RecurrenceParams,
    cassini_value,
    companion,
    seeded_term,
    term,
    term_digit_estimate,
    term_pair,
)
from .divisibility import (
    DivisibilityCheck,
    RepetitionLawReport,
    SequenceDivisibilityCheck,
    TrailingZerosReport,
    divisibility_sequence_check,
    power_divisibility_check,
    repetition_law_check,
    square_divisibility_check,
    trailing_zeros,
    trailing_zeros_report,
    valuation,
)
from .errors import (
    BudgetExceededError,
    DegenerateSequenceError,
    HypothesisNotMetError,
    LucasLabError,
    NoPurePeriodError,
)
from .identities import (
    CongruenceCheckResult,
    det_power_identity_check,
    determinant_congruence_check,
    gcd_companion_check,
    multiplication_formula_check,
    period_step_congruence,
)
from .modular import (
    CycleEntryCheck,
    CycleStructure,
    PeriodLawReport,
    RankReport,
    ZeroProgressionCheck,
    cycle_entry_check,
    cycle_entry_prediction,
    cycle_structure,
    period,
    period_law_report,
    rank,
    squares_period_law_report,
    term_mod,
    zero_indices_check,
)
from .verify import CheckRecord, VerifyConfig, VerifySummary, parse_config, run_verification

__version__ = "0.1.0"

__all__ = [
    "AtlasRow",
    "BudgetExceededError",
    "CheckRecord",
    "CongruenceCheckResult",
    "CycleEntryCheck",
    "CycleStructure",
    "DegenerateSequenceError",
    "DivisibilityCheck",
    "HypothesisNotMetError",
    "LucasLabError",
    "NoPurePeriodError",
    "PeriodLawReport",
    "RankReport",
    "RecurrenceParams",
    "RepetitionLawReport",
    "SequenceDivisibilityCheck",
    "TrailingZerosReport",
    "VerifyConfig",
    "VerifySummary",
    "WssFinding",
    "ZeroProgressionCheck",
    "atlas_rows",
    "cassini_value",
    "companion",
    "cycle_entry_check",
    "cycle_entry_prediction",
    "cycle_structure",
    "det_power_identity_check",
    "determinant_congruence_check",
    "divisibility_sequence_check",
    "gcd_companion_check",
    "multiplication_formula_check",
    "parse_config",
    "period",
    "period_law_report",
    "period_step_congruence",
    "power_divisibility_check",
    "rank",
    "repetition_law_check",
    "run_verification",
    "seeded_term",
    "square_divisibility_check",
    "squares_period_law_report",
    "term",
    "term_digit_estimate",
    "term_mod",
    "term_pair",
    "trailing_zeros",
    "trailing_zeros_report",
    "valuation",
    "wss_scan",
    "zero_indices_check",
]
