"""Complex-divisor arithmetic, Green kernels, and metrized pairings on
genus-0 and genus-1 curves, with the string-measure factor they induce.
"""

from .curve import (
    CurveModel,
    CurvePoint,
    Sphere,
    Torus,
    abel_jacobi_sum,
    green_divisor,
    green_kernel,
    kernel_matrix,
    theta1,
    theta1_log_derivative,
)
from .divisor import (
    ClassDescriptor,
    ComplexDivisor,
    GaussianRational,
    MarkedCurve,
    class_invariant,
)
from .errors import (
    ContextMismatchError,
    DegreeIntegralityError,
    DegreeZeroRequiredError,
    DiagonalSingularityError,
    DisjointSupportError,
    DivpairError,
    DomainError,
    NonIntegralCoefficientError,
    ParseError,
    TrivialJacobianError,
)
from .grammar import (
    format_complex,
    parse_complex,
    parse_divisor,
    parse_gaussian_rational,
)
from .mvf import (
    GlueingData,
    LocalExpansion,
    PrincipalityCertificate,
    expansion_multiply,
    glueing_data,
    is_principal,
    monodromy_certificate,
    multiplicator,
    normalize_expansion,
    order,
    power_product_orders,
)
from .pairing import (
    PairingResult,
    RationalFunctionData,
    ScalingResiduals,
    check_bimultiplicativity,
    check_scaling_laws,
    check_symmetry,
    check_weil_reciprocity,
    hermitian_form,
    pairing_exponent,
    pairing_norm,
    self_pairing_exponent,
    weil_symbol,
)
from .strings import MomentumConfig, StringFactor, momentum_divisor, string_pairing_factor

__version__ = "0.1.0"
