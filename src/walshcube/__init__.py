"""Walsh-Fourier analysis on the discrete hypercube, vector-valued inequality
functionals, martingale transform ratios, and certified extremal-witness search.

The layers, bottom to top:

* `hypercube`    dense functions on {-1,+1}^n and the Walsh transform;
* `operators`    derivatives, averaging, conditional expectations, Laplacians;
* `norms`        ell_q targets, L_p norms, sign averages (exact or Monte Carlo);
* `inequalities` two-sided functionals and proof-identity verifiers;
* `martingales`  finite filtrations, adapted martingales, transform ratios;
* `estimators`   the functional table, and the random-restart ascent producing
                 re-checkable ratio certificates;
* `verification` the runnable identity suite;
* `cli`          the `walshcube` command.

Every estimated constant is a witnessed lower bound over finite inputs;
nothing here certifies an upper bound.
"""

from .hypercube import (
    MAX_DIMENSION,
    HypercubeFunction,
    WalshSpectrum,
    SignAssignment,
    walsh_forward,
    walsh_inverse,
    walsh_forward_naive,
    walsh_inverse_naive,
    evaluate_walsh_character,
)
from .operators import (
    Permutation,
    partial_derivative,
    derivative_stack,
    averaging_operator,
    conditional_expectation,
    conditional_expectation_permuted,
    fractional_laplacian,
    rademacher_projection,
    martingale_difference,
)
from .norms import (
    DegenerateInputError,
    NormSpace,
    FunctionFamily,
    RademacherAveragePlan,
    lp_norm,
    rademacher_average,
)
from .inequalities import (
    InequalityReport,
    pisier_lhs,
    pisier_rhs,
    pisier_report,
    pisier_envelope,
    theorem1_lhs,
    theorem1_rhs,
    corollary2_lhs,
    corollary2_rhs,
    stein_lhs,
    stein_rhs,
    verify_symmetrization_identity,
    hn_remark_lhs,
    hn_remark_rhs,
    k_convexity_ratio,
    rademacher_type_ratio,
)
from .martingales import (
    FiniteFiltration,
    MartingaleSequence,
    make_dyadic_martingale,
    martingale_lp_norm,
    umd_ratio,
    umd_plus_ratio,
    umd_minus_ratio,
    martingale_type_ratio,
)
from .estimators import (
    FUNCTIONAL_NAMES,
    functional_report,
    SearchConfig,
    RatioCertificate,
    CertificateMismatchError,
    SearchFailedError,
    maximize_ratio,
    scan_dimension,
    reevaluate_certificate,
    load_certificate,
    save_certificate,
)
from .verification import CheckResult, run_verification_suite

__version__ = "0.1.0"
