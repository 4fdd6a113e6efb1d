"""Fourier analysis on finite abelian groups, plus forensic recovery of
operators that preserve the function-algebra structure."""

from .errors import (
    AbelfftError,
    DichotomyViolationError,
    FileFormatError,
    GroupMismatchError,
    InvalidGroupError,
    InvalidPermutationError,
    NotEssentiallyFourierError,
    SideMismatchError,
)
from .groups import (
    Automorphism,
    Group,
    find_additivity_violation,
    is_automorphism,
    random_automorphism,
)
from .functions import (
    DUAL,
    PRIMAL,
    GFunction,
    convolve,
    delta,
    max_abs_diff,
    pointwise_product,
    random_function,
    star,
    zero,
)
from .transform import (
    character_matrix,
    convolve_fast,
    dft_naive,
    fft_forward,
    fft_inverse,
    idft_naive,
)
from .operators import (
    Operator,
    T_FORM,
    U_FORM,
    build_reference_operator,
    reference_operator_matrix,
)
from .characterize import (
    PROBE_SCALARS,
    HypothesisReport,
    RecoveryReport,
    check_hypotheses,
    recover,
    verify_recovery,
)

__version__ = "0.1.0"

__all__ = [
    "AbelfftError",
    "Automorphism",
    "DichotomyViolationError",
    "DUAL",
    "FileFormatError",
    "GFunction",
    "Group",
    "GroupMismatchError",
    "HypothesisReport",
    "InvalidGroupError",
    "InvalidPermutationError",
    "NotEssentiallyFourierError",
    "Operator",
    "PRIMAL",
    "PROBE_SCALARS",
    "RecoveryReport",
    "SideMismatchError",
    "T_FORM",
    "U_FORM",
    "build_reference_operator",
    "character_matrix",
    "check_hypotheses",
    "convolve",
    "convolve_fast",
    "delta",
    "dft_naive",
    "fft_forward",
    "fft_inverse",
    "find_additivity_violation",
    "idft_naive",
    "is_automorphism",
    "max_abs_diff",
    "pointwise_product",
    "random_automorphism",
    "random_function",
    "recover",
    "reference_operator_matrix",
    "star",
    "verify_recovery",
    "zero",
    "__version__",
]
