"""Tame finite partial orders.

Detection of the forbidden pattern, signature reduction, tame rank, the
canonical embedding into the coordinate-pair templates, and realization
as a restriction of an inflated template, all cross-checked by
exhaustive small-instance sweeps.
"""

from .embedding import (
    Embedding,
    embeds_r22,
    find_embedding,
    is_isomorphic,
    pattern_r22,
    pattern_s_n2,
    verify_embedding,
)
from .enumeration import (
    VerificationReport,
    all_labeled_posets,
    random_poset,
    verify_proposition,
    verify_sampled,
)
from .errors import (
    BudgetExceeded,
    CycleDetected,
    DuplicateElement,
    FormatError,
    InternalInvariantViolation,
    InvalidParameter,
    NotReduced,
    NotTame,
    PosetError,
    SizeLimitExceeded,
    UnknownElement,
)
from .poset import (
    Poset,
    build_poset,
    restrict,
)
from .tame import (
    ReductionResult,
    TameReport,
    d_comparable,
    is_reduced,
    is_tame,
    reduce,
    tame_rank,
    u_comparable,
)
from .templates import (
    RealizeResult,
    canonical_embedding,
    cummings_blocks,
    r_lambda,
    realize,
)
from .textfmt import format_poset, parse_poset, poset_json, poset_json_text

__all__ = [
    "BudgetExceeded",
    "CycleDetected",
    "DuplicateElement",
    "Embedding",
    "FormatError",
    "InternalInvariantViolation",
    "InvalidParameter",
    "NotReduced",
    "NotTame",
    "Poset",
    "PosetError",
    "RealizeResult",
    "ReductionResult",
    "SizeLimitExceeded",
    "TameReport",
    "UnknownElement",
    "VerificationReport",
    "all_labeled_posets",
    "build_poset",
    "canonical_embedding",
    "cummings_blocks",
    "d_comparable",
    "embeds_r22",
    "find_embedding",
    "format_poset",
    "is_isomorphic",
    "is_reduced",
    "is_tame",
    "parse_poset",
    "pattern_r22",
    "pattern_s_n2",
    "poset_json",
    "poset_json_text",
    "r_lambda",
    "random_poset",
    "realize",
    "reduce",
    "restrict",
    "tame_rank",
    "u_comparable",
    "verify_embedding",
    "verify_proposition",
    "verify_sampled",
]
