"""Operator algebra, spectra and zeta functions for nearest-neighbour
interacting particle systems, with a Domany-Kinzel Monte Carlo lane."""

__version__ = "0.1.0"

from .errors import (
    IpsZetaError,
    LengthMismatch,
    NoBracket,
    NoConvergence,
    ParamOutOfRange,
    SingularFactor,
    SizeCapExceeded,
    SparsityViolation,
)
from .operators import (
    GlobalOperator,
    LocalOperator,
    OperatorKind,
    apply_matrix_free,
    build_global_kronecker,
    build_global_recursive,
    classify,
    config_bits,
    config_index,
    identity_local,
    make_local_operator,
    qca_rotation_local,
    random_local_operator,
    sample_pca_step,
)
from .spectral import (
    EIG_DIM_CAP,
    HistogramGrid,
    SpectrumMultiset,
    block_certificate,
    eig_dense,
    histogram,
    match_multisets,
    shift_coefficients,
    spectrum,
    t_case_spectrum,
    trace_closed_form,
    trace_path_sum,
)
from .zeta import (
    ZetaSeries,
    c_r,
    power_trace_coefficients,
    t_case_c_r,
    t_case_log_zeta,
    zeta_det,
    zeta_log_series,
)
from .claims import CLAIMS, VerificationReport, verify_claim
from .dk import (
    CriticalScanResult,
    DKParams,
    LatticeState,
    SurvivalEstimate,
    dk_entries,
    dk_local_operator,
    dk_reference_spectrum_n3,
    dk_step,
    estimate_survival,
    rho_q1_closed,
    scan_critical,
    wilson_interval,
)
