"""Certified evaluation of the main inequality and everything derived from it.

All comparisons go through guaranteed enclosures so that verdicts are
rigorous even at astronomically large thresholds.
"""

from ..sieve import SieveConfig, worst_case_delta
from .bounds import (
    BURGESS_C,
    BoundComparison,
    BoundValue,
    bound_sieved,
    bound_log_free,
    burgess_comparison_bound,
    compare_with_burgess,
)
from .cases import CaseReport, case_engine
from .search import (
    OptimizeResult,
    SoundnessReport,
    ThresholdOptimizeResult,
    optimize_params,
    optimize_threshold,
    soundness_crosscheck,
)
from .certifier import (
    Certificate,
    PowerShape,
    Threshold,
    certify_bound,
)
from .winchain import (
    ChainReport,
    win_chain_sieved_derive,
    win_chain_derive,
    win_chain_sweep,
)

__all__ = [
    "BURGESS_C",
    "BoundComparison",
    "BoundValue",
    "CaseReport",
    "Certificate",
    "ChainReport",
    "OptimizeResult",
    "PowerShape",
    "SieveConfig",
    "SoundnessReport",
    "Threshold",
    "ThresholdOptimizeResult",
    "bound_sieved",
    "bound_log_free",
    "burgess_comparison_bound",
    "compare_with_burgess",
    "case_engine",
    "optimize_params",
    "optimize_threshold",
    "soundness_crosscheck",
    "certify_bound",
    "win_chain_sieved_derive",
    "win_chain_derive",
    "win_chain_sweep",
    "worst_case_delta",
]
