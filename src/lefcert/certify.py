"""Hard-Lefschetz and Hodge-Riemann certification for complete
intersections of semi-positive (1,1)-forms with constant coefficients.

Two independent routes are exposed for the HL property:

* criterion_hl - the combinatorial subset rank criterion
  rank(A_I) >= |I| + p + q for every nonempty subset I, decided by the
  subset-sum walk and rank-deficit scan owned by `discriminant`;
* direct_hl - bijectivity of the wedge-multiplication matrix of Omega,
  which is wedged from the factors' cached Z[i] rows: "holds" from a
  nonzero determinant residue modulo one prime; otherwise "fails" is
  solved only up to the first column f that is dependent mod p and only
  on the residue's f pivot rows, by one exact Bareiss echelon of that
  f x (f + 1) block, whose back-substituted kernel vector is checked
  against every row and is the witness, re-checked exactly against
  Omega.  It reads no rank code.

The two must agree on every valid instance; the test suite exercises
this equivalence exhaustively at desk scale.

Hodge-Riemann, the Lefschetz decomposition, the Lorentzian signature and
the Hodge index theorem read one bilinear pairing,
Q(Phi,Psi) = c_{p,q} * vol(Omega ^ Phi ^ conj(Psi)).  Its Gram matrix on
a basis B is one product over Z[i], c * (M B)^T S conj(B): M is the
operator matrix of Omega on Lambda^{p,q} over its denominator, S the
signed complementary pairing
Lambda^{n-q,n-p} x Lambda^{q,p} -> Lambda^{n,n}, and B holds the basis as
Gaussian-integer vectors (see exterior._pairing_gram).  The Lorentzian
Gram on Herm_n is the case (p,q) = (1,1) with Omega = A_1 ^ ... ^ A_{n-2},
since D(A,B,A_1,...,A_{n-2}) = vol(alpha ^ beta ^ Omega) / n!.  Integer
Grams differ from the exact ones by positive factors, so their inertia
is the same.  The test suite keeps the per-entry wedge loop and the
per-entry mixed discriminant as exact oracles for these Grams.

Omega, the kernel witness and the primitive and image bases are PQForms,
built from Z[i] terms and vectors (PQForm._from_vector) with no Q(i) scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .discriminant import rank_deficient_subset
from .exterior import (
    PQForm,
    _annihilates,
    _fold,
    _integer_operator_matrix,
    _matrix_vector,
    _pairing_gram,
    basis_indices,
)
from .linalg import (
    HermitianFormOnSpace,
    HermitianMatrix,
    InternalCheckError,
    _check_family,
    _first_kernel_vector,
    _hermitian_failure,
    _inertia,
    _kernel,
    _rank,
)
from .rationals import GR, I, cpq_constant

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
        _check_family(forms, n)
        if self.eta is not None:
            if self.eta.n != n:
                raise ValueError("eta has wrong dimension")
            if not self.eta.is_psd():
                raise ValueError("eta must be positive semidefinite")

    def omega(self) -> PQForm:
        """(i A_1) ^ ... ^ (i A_k), wedged over Z[i] from the factors' cached rows."""
        return _fold(self.n, self.forms)


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
    return Certificate("holds") if failing is None else Certificate("fails", *failing)


def _witness_from_kernel(inst, omega, vector, d):
    """The kernel vector d * phi as the (p,q)-form phi, re-checked against omega.

    Entries past the end of vector are zero.
    """
    if not _annihilates(omega, inst.p, inst.q, vector):
        raise InternalCheckError("kernel witness is not annihilated by Omega")
    witness = PQForm._from_vector(inst.n, inst.p, inst.q, vector, d)
    if witness.is_zero():
        raise InternalCheckError("zero kernel witness")
    return witness


def direct_hl(inst: HLInstance) -> Certificate:
    """Decide HL by whether the multiplication matrix is invertible.

    Omega is wedged from the factors' cached Z[i] rows, and the matrix is
    read once as Gaussian integers over Omega's denominator.  A nonzero
    determinant residue modulo one prime proves "holds".  A zero residue
    stops at the first column f that is dependent mod p, and "fails" is
    solved up to that column only, on the f rows the residue pivoted on:
    one exact echelon and back-substitution of that f x (f + 1) block give
    the only candidate, which every row must annihilate.  When a row does
    not, p divided a minor, and the whole matrix is solved; it gives the
    first vector of the reduced row echelon kernel, or none, which means
    "holds".  The witness is re-checked exactly against Omega.
    """
    omega = _fold(inst.n, inst.forms)
    re, im, _ = _integer_operator_matrix(omega, inst.p, inst.q)
    if len(re) != len(basis_indices(inst.n, inst.p, inst.q)):
        raise InternalCheckError("multiplication matrix is not square")
    first = _first_kernel_vector(re, im)
    if first is None:
        return Certificate("holds")
    return Certificate("fails", kernel_witness=_witness_from_kernel(inst, omega, *first))


def _primitive_space(inst: HLInstance):
    """ker(Omega ^ eta ^ .) inside Lambda^{p,q}: (Omega, basis, vectors, d).

    Omega is the wedge of the factors.  The basis holds the exact kernel
    forms; vectors holds the same vectors as Gaussian integers, each d
    times its form's coefficients, and each is re-checked on ints.
    """
    n, p, q = inst.n, inst.p, inst.q
    omega = _fold(n, inst.forms)
    coupled = _fold(n, (inst.eta,), omega)
    re, im, _ = _integer_operator_matrix(coupled, p, q)
    vectors, d = _kernel(re, im, len(basis_indices(n, p, q)))
    for v in vectors:
        if not _annihilates(coupled, p, q, v):
            raise InternalCheckError("primitive basis element not annihilated")
    basis = tuple(PQForm._from_vector(n, p, q, v, d) for v in vectors)
    return omega, basis, vectors, d


def _primitive_gram(omega, vectors, d, p, q):
    """Gram of Q(Phi,Psi) = c_{p,q} * vol(Omega ^ Phi ^ conj(Psi)) on the primitive basis.

    One Z[i] product c (M B)^T S conj(B) (see exterior._pairing_gram),
    with B the Gaussian-integer vectors d * v, over L |d|^2.
    """
    re, im, den = _pairing_gram(omega, p, q, vectors, vectors)
    c = cpq_constant(p, q)  # one of 1, -1, i, -i
    cr, ci = int(c.re), int(c.im)
    re, im = ([[cr * x - ci * y for x, y in zip(xs, ys)] for xs, ys in zip(re, im)],
              [[cr * y + ci * x for x, y in zip(xs, ys)] for xs, ys in zip(re, im)])
    try:
        return HermitianFormOnSpace._from_integer_rows(re, im, den * (d[0] ** 2 + d[1] ** 2))
    except ValueError:
        raise InternalCheckError("Q Gram matrix is not Hermitian") from None


def hr_certify(inst: HLInstance):
    """Certify the Hodge-Riemann property of (Omega, eta).

    Returns (Certificate, PrimitiveSpace).  Requires rank(eta) >= p + q;
    a smaller rank is outside the theorem's scope and raises
    PreconditionError rather than returning a failing verdict.  The
    verdict reads the inertia of the Gram kept in the PrimitiveSpace,
    from its Z[i] rows.
    """
    if inst.eta is None:
        raise ValueError("hr_certify needs an eta form")
    need = inst.p + inst.q
    r_eta = inst.eta.rank()
    if r_eta < need:
        raise PreconditionError(
            f"rank(eta)={r_eta} below p+q={need} (deficit {need - r_eta})"
        )
    omega, basis, vectors, d = _primitive_space(inst)
    gram = _primitive_gram(omega, vectors, d, inst.p, inst.q)
    space = PrimitiveSpace(basis=basis, gram=gram)
    npos, nneg, nzero = gram.signature()
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
    omega, prim_basis, prim_vectors, _ = _primitive_space(inst)
    if p == 0 or q == 0:
        image_vectors, image_basis = [], ()
    else:
        # the columns of L * (eta ^ .) on Lambda^{p-1,q-1}
        re, im, den = _integer_operator_matrix(_fold(n, (inst.eta,)), p - 1, q - 1)
        image_vectors = list(zip(zip(*re), zip(*im)))
        image_basis = tuple(PQForm._from_vector(n, p, q, v, (den, 0)) for v in image_vectors)
    dim_pq = len(basis_indices(n, p, q))
    dim_lower = len(basis_indices(n, p - 1, q - 1)) if (p >= 1 and q >= 1) else 0
    if len(prim_basis) != dim_pq - dim_lower:
        raise InternalCheckError("primitive dimension identity violated")
    stacked = image_vectors + prim_vectors
    if _rank([list(vr) for vr, _ in stacked], [list(vi) for _, vi in stacked], dim_pq) != dim_pq:
        raise InternalCheckError("decomposition does not span Lambda^{p,q}")
    # Q-orthogonality of the two summands, both argument orders: each
    # image x primitive block of the pairing must be the zero matrix
    if image_vectors:
        for left, right in ((image_vectors, prim_vectors), (prim_vectors, image_vectors)):
            re, im, _ = _pairing_gram(omega, p, q, left, right)
            if any(map(any, re)) or any(map(any, im)):
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


@lru_cache(maxsize=None)
def _real_basis_vectors(n):
    """Coefficient vectors of the (1,1)-forms of hermitian_real_basis(n), all in Z[i]."""
    out = []
    for m in hermitian_real_basis(n):
        (re, im), den = _matrix_vector(m)
        if den != 1:
            raise InternalCheckError("real basis form is not integral")
        out.append((tuple(re), tuple(im)))
    return tuple(out)


def _intersection_gram(omega, vectors):
    """(rows, L): L times [vol(alpha_a ^ alpha_b ^ Omega)] over Z[i].

    Omega is an (n-2,n-2)-form, vectors are Gaussian-integer coefficient
    vectors of real (1,1)-forms alpha_a, and L is Omega's denominator.
    The pairing of real forms is real and symmetric, and the integer rows
    are checked to be so.
    """
    re, im, den = _pairing_gram(omega, 1, 1, vectors, vectors)
    if _hermitian_failure(re, im):
        raise InternalCheckError("intersection pairing is not Hermitian")
    if any(map(any, im)):
        raise InternalCheckError("intersection pairing has nonzero imaginary part")
    return re, den


def lorentzian_signature(forms, n=None):
    """Inertia of (A,B) -> D(A,B,A_1,...,A_{n-2}) on the real space Herm_n.

    `n` may be omitted when `forms` is nonempty.  When the subset
    criterion rank(A_I) >= |I| + 2 holds the result must be the
    Lorentzian signature (1, n^2 - 1, 0).  D(A,B,...) is
    vol(alpha ^ beta ^ Omega_{n-2}) / n!, so the Gram on
    hermitian_real_basis(n) is one Z[i] pairing product, whose inertia
    is that of the exact Gram.
    """
    forms = list(forms)
    if n is None:
        if not forms:
            raise ValueError("ambient dimension required for an empty factor list")
        n = forms[0].n
    if len(forms) != n - 2:
        raise ValueError(f"need n-2={n - 2} factor matrices, got {len(forms)}")
    _check_family(forms, n)
    rows, _ = _intersection_gram(_fold(n, forms), _real_basis_vectors(n))
    return _inertia(rows, [[0] * len(rows) for _ in rows])[:3]


def hodge_index_check(forms, alpha: HermitianMatrix, beta: HermitianMatrix) -> bool:
    """Hodge-index theorem-test for Q(A,B) = n! * D(A,B,A_1,...,A_{n-2}).

    Preconditions: Q(alpha,alpha) > 0 and Q(alpha,beta) = 0.  Returns
    whether Q(beta,beta) <= 0 with equality exactly when the
    (n-1,n-1)-form Omega ^ beta vanishes; always true per the theorem.
    Q is read from the same Z[i] pairing as lorentzian_signature, up to
    a positive factor, which keeps every sign and zero.
    """
    forms = list(forms)
    n = alpha.n
    if len(forms) != n - 2:
        raise ValueError(f"need n-2={n - 2} factor matrices")
    _check_family(forms, n)
    if beta.n != n:
        raise ValueError("matrices have mismatched dimensions")
    omega = _fold(n, forms)
    (qaa, qab), (_, qbb) = _intersection_gram(
        omega, [_matrix_vector(x)[0] for x in (alpha, beta)]
    )[0]
    if qaa <= 0:
        raise PreconditionError("Q(alpha,alpha) must be positive")
    if qab != 0:
        raise PreconditionError("alpha and beta must be Q-orthogonal")
    vanishes = _fold(n, (beta,), omega).is_zero()
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
