"""Exact certification of hard-Lefschetz / Hodge-Riemann properties,
mixed-discriminant positivity and polymatroid structure for families of
semi-positive Hermitian (1,1)-forms with constant coefficients.
"""

from .certify import (
    Certificate,
    HLInstance,
    PreconditionError,
    PrimitiveSpace,
    criterion_hl,
    direct_hl,
    hermitian_real_basis,
    hodge_index_check,
    hr_certify,
    lefschetz_decomposition,
    lorentzian_signature,
    products_preserve_hl,
)
from .discriminant import (
    PositivityCertificate,
    intersection_number,
    mixed_discriminant,
    panov_positivity,
    reverse_kt_check,
)
from .exterior import (
    PQForm,
    conjugate_form,
    form_from_matrix,
    multiplication_matrix,
    volume_scalar,
    wedge,
    wedge_many,
)
from .generate import GeneratorSpec, SplitMix64, generate_psd
from .linalg import (
    HermitianFormOnSpace,
    HermitianMatrix,
    InternalCheckError,
    NotPositiveDefiniteError,
    hermitian_signature,
    is_m_positive,
    kernel_basis,
    mat_det,
    mat_rank,
)
from .polymatroid import (
    AxiomReport,
    DiscretePolymatroid,
    RankFunction,
    check_axioms,
    enumerate_points,
    hl_support,
    multidegree_support,
    rank_from_matrices,
)
from .rationals import GR, GaussianRational, Rat, as_rat, cpq_constant

__version__ = "0.1.0"
