"""Hard-Lefschetz and Hodge-Riemann certification for complete
intersections of semi-positive (1,1)-forms with constant coefficients.

Two independent routes are exposed for the HL property:

* criterion_hl - the combinatorial subset rank criterion
  rank(A_I) >= |I| + p + q for every nonempty subset I, decided by the
  subset-sum walk and rank-deficit scan owned by `discriminant`;
* direct_hl - bijectivity of the wedge-multiplication matrix, decided by
  an exact determinant, with a kernel witness extracted on failure.

The two must agree on every valid instance; the test suite exercises
this equivalence exhaustively at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .discriminant import mixed_discriminant, rank_deficient_subset
from .exterior import (
    PQForm,
    conjugate_form,
    form_from_matrix,
    multiplication_matrix,
    volume_scalar,
    wedge,
    wedge_many,
    wedge_operator_matrix,
)
from .linalg import (
    HermitianFormOnSpace,
    HermitianMatrix,
    InternalCheckError,
    hermitian_signature,
    kernel_basis,
    mat_det,
    mat_rank,
)
from .rationals import GR, I, ZERO, cpq_constant

__all__ = [
    "HLInstance",
    "Certificate",
    "PrimitiveSpace",
    "PreconditionError",
    "criterion_hl",
    "direct_hl",
    "hr_certify",
    "lefschetz_decomposition",
    "lorentzian_signature",
    "hodge_index_check",
    "products_preserve_hl",
    "hermitian_real_basis",
]


class PreconditionError(ValueError):
    """The input lies outside the scope of the theorem being tested."""


@dataclass(frozen=True)
class HLInstance:
    """A bidegree (p,q) together with the n-p-q semi-positive factor forms."""

    n: int
    p: int
    q: int
    forms: tuple
    eta: HermitianMatrix | None = None

    def __post_init__(self):
        n, p, q = self.n, self.p, self.q
        if not (0 <= p and 0 <= q and p + q <= n):
            raise ValueError(f"bidegree ({p},{q}) invalid for n={n}")
        forms = tuple(self.forms)
        object.__setattr__(self, "forms", forms)
        if len(forms) != n - p - q:
            raise ValueError(f"expected {n - p - q} factor forms, got {len(forms)}")
        for a in forms:
            if a.n != n:
                raise ValueError("factor form has wrong dimension")
            if not a.is_psd():
                raise ValueError("factor forms must be positive semidefinite")
        if self.eta is not None:
            if self.eta.n != n:
                raise ValueError("eta has wrong dimension")
            if not self.eta.is_psd():
                raise ValueError("eta must be positive semidefinite")

    def omega(self) -> PQForm:
        return wedge_many([form_from_matrix(a) for a in self.forms], self.n)


@dataclass(frozen=True)
class Certificate:
    """Machine-readable HL/HR verdict with negative-case evidence."""

    verdict: str  # "holds" | "fails"
    failing_subset: tuple | None = None
    rank_deficit: int | None = None
    kernel_witness: PQForm | None = None

    def __post_init__(self):
        if self.verdict not in ("holds", "fails"):
            raise ValueError("verdict must be 'holds' or 'fails'")
        if self.verdict == "fails" and self.failing_subset is None and self.kernel_witness is None:
            raise ValueError("failing certificate needs a subset or a kernel witness")

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


@dataclass(frozen=True)
class PrimitiveSpace:
    """Basis of P^{p,q} = ker(Omega ^ eta ^ .) with the restricted Gram matrix."""

    basis: tuple
    gram: HermitianFormOnSpace


def criterion_hl(inst: HLInstance) -> Certificate:
    """Subset numerical-dimension criterion: rank(A_I) >= |I| + p + q for all I."""
    failing = rank_deficient_subset(inst.forms, inst.p + inst.q)
    if failing is None:
        return Certificate("holds")
    subset, deficit = failing
    return Certificate("fails", failing_subset=subset, rank_deficit=deficit)


def _witness_from_kernel(inst, omega, matrix, ncols):
    basis = kernel_basis(matrix, ncols)
    if not basis:
        raise InternalCheckError("singular multiplication matrix with empty kernel")
    witness = PQForm.from_coefficient_vector(inst.n, inst.p, inst.q, basis[0])
    if witness.is_zero():
        raise InternalCheckError("zero kernel witness")
    if not wedge(omega, witness).is_zero():
        raise InternalCheckError("kernel witness is not annihilated by Omega")
    return witness


def direct_hl(inst: HLInstance) -> Certificate:
    """Decide HL by the exact determinant of the multiplication matrix."""
    omega = inst.omega()
    matrix = multiplication_matrix(omega, inst.p, inst.q)
    if mat_det(matrix):
        return Certificate("holds")
    return Certificate(
        "fails", kernel_witness=_witness_from_kernel(inst, omega, matrix, len(matrix))
    )


def _primitive_space(inst: HLInstance):
    """Basis of ker(Omega ^ eta ^ .) inside Lambda^{p,q}, plus Omega."""
    omega = inst.omega()
    coupled = wedge(omega, form_from_matrix(inst.eta))
    rows, ncols = wedge_operator_matrix(coupled, inst.p, inst.q)
    vectors = kernel_basis(rows, ncols)
    basis = tuple(
        PQForm.from_coefficient_vector(inst.n, inst.p, inst.q, v) for v in vectors
    )
    for phi in basis:
        if not wedge(coupled, phi).is_zero():
            raise InternalCheckError("primitive basis element not annihilated")
    return omega, basis


def _gram_on_basis(omega, basis, p, q):
    """Gram of Q(Phi,Psi) = c_{p,q} * vol(Omega ^ Phi ^ conj(Psi))."""
    c = cpq_constant(p, q)
    partial = [wedge(omega, phi) for phi in basis]
    conjs = [conjugate_form(phi) for phi in basis]
    k = len(basis)
    gram = [[ZERO] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            gram[a][b] = c * volume_scalar(wedge(partial[a], conjs[b]))
    for a in range(k):
        for b in range(k):
            if gram[a][b] != gram[b][a].conjugate():
                raise InternalCheckError("Q Gram matrix is not Hermitian")
    return gram


def hr_certify(inst: HLInstance):
    """Certify the Hodge-Riemann property of (Omega, eta).

    Returns (Certificate, PrimitiveSpace).  Requires rank(eta) >= p + q;
    a smaller rank is outside the theorem's scope and raises
    PreconditionError rather than returning a failing verdict.
    """
    if inst.eta is None:
        raise ValueError("hr_certify needs an eta form")
    need = inst.p + inst.q
    r_eta = inst.eta.rank()
    if r_eta < need:
        raise PreconditionError(
            f"rank(eta)={r_eta} below p+q={need} (deficit {need - r_eta})"
        )
    omega, basis = _primitive_space(inst)
    gram = _gram_on_basis(omega, basis, inst.p, inst.q)
    space = PrimitiveSpace(basis=basis, gram=HermitianFormOnSpace(gram))
    npos, nneg, nzero = space.gram.signature()
    if nneg == 0 and nzero == 0:
        return Certificate("holds"), space
    # Theorem A: HR failure must come with a failing rank subset.
    crit = criterion_hl(inst)
    if crit.holds:
        raise InternalCheckError("Gram not positive definite yet rank criterion holds")
    return Certificate("fails", failing_subset=crit.failing_subset,
                       rank_deficit=crit.rank_deficit), space


def lefschetz_decomposition(inst: HLInstance):
    """Q-orthogonal splitting Lambda^{p,q} = eta ^ Lambda^{p-1,q-1} (+) P^{p,q}.

    Returns (image_basis, primitive_basis, (dim_image, dim_primitive)).
    Requires the HL criterion for (p,q) and, when p,q >= 1, for
    (p-1,q-1) with eta adjoined twice to the factor list.
    """
    if inst.eta is None:
        raise ValueError("lefschetz_decomposition needs an eta form")
    n, p, q = inst.n, inst.p, inst.q
    if not criterion_hl(inst).holds:
        raise PreconditionError("HL criterion fails for (p,q); decomposition not guaranteed")
    if p >= 1 and q >= 1:
        extended = HLInstance(n, p - 1, q - 1, inst.forms + (inst.eta, inst.eta))
        if not criterion_hl(extended).holds:
            raise PreconditionError(
                "HL criterion fails for (p-1,q-1) with eta adjoined; decomposition not guaranteed"
            )
    omega, prim_basis = _primitive_space(inst)
    if p == 0 or q == 0:
        image_basis = ()
    else:
        rows, ncols = wedge_operator_matrix(form_from_matrix(inst.eta), p - 1, q - 1)
        image_basis = tuple(
            PQForm.from_coefficient_vector(n, p, q, [row[col] for row in rows])
            for col in range(ncols)
        )
    dim_pq = comb(n, p) * comb(n, q)
    dim_lower = comb(n, p - 1) * comb(n, q - 1) if (p >= 1 and q >= 1) else 0
    if len(prim_basis) != dim_pq - dim_lower:
        raise InternalCheckError("primitive dimension identity violated")
    stacked = [phi.coefficient_vector() for phi in image_basis + prim_basis]
    if mat_rank(stacked) != dim_pq:
        raise InternalCheckError("decomposition does not span Lambda^{p,q}")
    # Q-orthogonality of the two summands, both argument orders
    c = cpq_constant(p, q)
    for psi in image_basis:
        wpsi = wedge(omega, psi)
        for phi in prim_basis:
            if c * volume_scalar(wedge(wpsi, conjugate_form(phi))):
                raise InternalCheckError("summands not Q-orthogonal")
            if c * volume_scalar(wedge(wedge(omega, phi), conjugate_form(psi))):
                raise InternalCheckError("summands not Q-orthogonal")
    return image_basis, prim_basis, (len(image_basis), len(prim_basis))


def hermitian_real_basis(n):
    """Real basis of Herm_n: diagonals, then E_jk+E_kj, then i(E_jk-E_kj), j<k."""
    basis = []
    for j in range(n):
        basis.append(HermitianMatrix([[1 if (r == c == j) else 0 for c in range(n)]
                                      for r in range(n)]))
    for j in range(n):
        for k in range(j + 1, n):
            basis.append(HermitianMatrix(
                [[1 if (r, c) in ((j, k), (k, j)) else 0 for c in range(n)]
                 for r in range(n)]
            ))
    for j in range(n):
        for k in range(j + 1, n):
            basis.append(HermitianMatrix(
                [[I if (r, c) == (j, k) else (-I if (r, c) == (k, j) else GR(0))
                  for c in range(n)] for r in range(n)]
            ))
    return basis


def lorentzian_signature(forms, n=None):
    """Inertia of (A,B) -> D(A,B,A_1,...,A_{n-2}) on the real space Herm_n.

    `n` may be omitted when `forms` is nonempty.  When the subset
    criterion rank(A_I) >= |I| + 2 holds the result must be the
    Lorentzian signature (1, n^2 - 1, 0).
    """
    forms = list(forms)
    if n is None:
        if not forms:
            raise ValueError("ambient dimension required for an empty factor list")
        n = forms[0].n
    if len(forms) != n - 2:
        raise ValueError(f"need n-2={n - 2} factor matrices, got {len(forms)}")
    for a in forms:
        if not a.is_psd():
            raise ValueError("factor matrices must be PSD")
    basis = hermitian_real_basis(n)
    dim = len(basis)
    gram = [[ZERO] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a, dim):
            v = mixed_discriminant([basis[a], basis[b]] + forms)
            gram[a][b] = GR(v)
            gram[b][a] = GR(v)
    return hermitian_signature(gram)


def hodge_index_check(forms, alpha: HermitianMatrix, beta: HermitianMatrix) -> bool:
    """Hodge-index theorem-test for Q(A,B) = n! * D(A,B,A_1,...,A_{n-2}).

    Preconditions: Q(alpha,alpha) > 0 and Q(alpha,beta) = 0.  Returns
    whether Q(beta,beta) <= 0 with equality exactly when the
    (n-1,n-1)-form Omega ^ beta vanishes; always true per the theorem.
    """
    forms = list(forms)
    n = alpha.n
    if len(forms) != n - 2:
        raise ValueError(f"need n-2={n - 2} factor matrices")
    for a in forms:
        if not a.is_psd():
            raise ValueError("factor matrices must be PSD")
    fact = GR(factorial(n))

    def q(x, y):
        return (fact * GR(mixed_discriminant([x, y] + forms))).as_real()

    if q(alpha, alpha) <= 0:
        raise PreconditionError("Q(alpha,alpha) must be positive")
    if q(alpha, beta) != 0:
        raise PreconditionError("alpha and beta must be Q-orthogonal")
    qbb = q(beta, beta)
    omega_beta = wedge_many([form_from_matrix(a) for a in forms + [beta]], n)
    vanishes = omega_beta.is_zero()
    return qbb <= 0 and ((qbb == 0) == vanishes)


def products_preserve_hl(forms_a, forms_b, n: int) -> bool:
    """Products of HL complete intersections have HL (theorem-test).

    Both factor lists must individually satisfy the HL criterion at
    their own total degree; returns whether the concatenated list does
    at degree n - k - l.  Must be true whenever the preconditions hold.
    """
    forms_a, forms_b = tuple(forms_a), tuple(forms_b)
    k, l = len(forms_a), len(forms_b)
    if k + l > n:
        raise ValueError("too many factors for the ambient dimension")

    def crit(forms, total):
        pq = n - total
        p = pq // 2
        return criterion_hl(HLInstance(n, p, pq - p, forms))

    if k and not crit(forms_a, k).holds:
        raise PreconditionError("first factor product lacks the HL property")
    if l and not crit(forms_b, l).holds:
        raise PreconditionError("second factor product lacks the HL property")
    if k + l == 0:
        return True
    return crit(forms_a + forms_b, k + l).holds
