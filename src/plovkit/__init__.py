"""Exact dynamical invariants of quasi-unipotent rational matrices.

plovkit decides quasi-unipotency by cyclotomic factorization, extracts
exact Jordan profiles by rank sequences, computes polynomial volume
growth (sum of squared half-profile block sizes), growth exponents of
compound actions, determinants of power sums, and an exterior-algebra
model of intersection numbers -- all over Q.  The independent
brute-force oracles for these routes live in `plovkit.selfcheck`, which
the package does not import; the CLI loads it only for `selftest`.
"""

from .errors import (
    CrossCheckError,
    DegenerateFormError,
    DegreeBoundError,
    DimensionMismatchError,
    InputFormatError,
    NotPseudoAnalyticError,
    NotQuasiUnipotentError,
    NotSymmetricPositiveDefiniteError,
    NotUnipotentError,
    OddDimensionError,
    PlovkitError,
    PreconditionError,
)
from .exact import (
    RatMatrix,
    UniPoly,
    char_poly,
    det_exact,
    mat_mul,
    mat_pow,
    poly_at_matrix,
    rank_exact,
)
from .cyclotomic import (
    QuasiUnipotencyVerdict,
    cyclotomic_poly,
    euler_phi,
    quasi_unipotency,
    unipotent_power,
)
from .jordan import (
    JordanProfile,
    half_profile,
    jordan_profile,
    pseudo_analytic_check,
    unipotent_block_profile,
)
from .plov import (
    AnalysisReport,
    BoundCheck,
    analyze,
    max_minor_degree,
    plov_of,
    second_compound_block_sizes,
)
from .powersum import (
    PowerSumResult,
    ensure_spd,
    power_sum_brute,
    power_sum_det,
)
from .cohomology import (
    ModelGrowthResult,
    TwoForm,
    VanishingScanReport,
    intersection_poly,
    pfaffian,
    plov_via_model,
    pullback2,
    scan_chain,
    vanishing_scan,
)

__version__ = "0.1.0"
