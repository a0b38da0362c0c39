"""Computation with m-isometric operators.

An operator T is an m-isometry when the defect
beta_m(T) = sum_k (-1)^k C(m,k) T*^k T^k vanishes; equivalently, every
squared orbit norm ||T^n h||^2 is a polynomial in n of degree at most
m - 1.  This package provides the defect calculus, strict-order
detection, forward-difference orbit analysis with Newton interpolation,
weighted-shift construction, algebraic decomposition into orthogonal
unimodular-plus-nilpotent blocks, nilpotent perturbation analysis, and
orthogonality tests for generalized eigenvectors — in exact Gaussian-
rational arithmetic or in floats with explicit tolerances.
"""

from .diffcalc import (
    DEFAULT_FLOAT_TOL,
    DegreeVerdict,
    DifferenceTable,
    OrbitSequence,
    default_window_len,
    detect_degree,
    difference_table,
    newton_reconstruct,
)
from .errors import (
    DimensionMismatchError,
    EigenHintError,
    InternalCheckError,
    MisolabError,
    ModeMismatchError,
    NotPolynomialError,
    PreconditionError,
    SpecFileError,
    WindowTooShortError,
)
from .isometry import (
    DEFAULT_DEFECT_TOL,
    DefectOperator,
    OrderVerdict,
    SurveyResult,
    defect,
    defect_form,
    default_m_max,
    is_m_isometry,
    local_isometry_survey,
    orbit_sequence,
    polarization_reconstruct,
    strict_order,
)
from .matrices import (
    DenseOperator,
    basis_vector,
    direct_sum,
    orbit,
    vec_add,
    vec_from_ints,
    vec_inner,
    vec_norm_sq,
    vec_scale,
    vec_sub,
)
from .polynomials import Polynomial
from .scalars import EXACT, FLOAT, Scalar, format_rational, same_mode
from .shifts import (
    ShiftSpec,
    WeightedShiftOperator,
    build_shift_spec,
    localization_shift,
    newton_coefficients_nonnegative,
    shift_from_polynomial,
    shift_is_m_isometry,
)
from .specio import (
    OperatorSpec,
    load_spec_file,
    parse_operator_spec,
    parse_rational,
    serialize_operator_spec,
)
from .spectral import (
    AlgebraicDecomposition,
    GeneralizedEigenspace,
    JordanPairReport,
    JordanSpec,
    NilpotentInfo,
    OrthoTestResult,
    PerturbationResult,
    algebraic_decompose,
    cyclic_subspace,
    generalized_eigenspaces,
    jordan_matrix,
    jordan_pair_equivalences,
    nilpotency_index,
    ortho_test_generalized,
    perturbation_analysis,
)
from .suites import SUITES, SuiteResult, run_all_suites, run_suite

__version__ = "0.1.0"
