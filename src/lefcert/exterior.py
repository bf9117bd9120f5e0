"""Constant-coefficient (p,q)-forms on C^n and their wedge algebra.

Basis convention: dz_{i1} ^ ... ^ dz_{ip} ^ dzbar_{j1} ^ ... ^ dzbar_{jq}
with both index tuples strictly increasing (1-based), bases ordered
lexicographically by (I, J).  Every sign in the library reduces to
inversion counting against this single convention.

The canonical positive volume element is
vol = (i dz_1 ^ dzbar_1) ^ ... ^ (i dz_n ^ dzbar_n), so positivity of an
(n,n)-form is the sign of one rational number.

Wedges multiply coefficients over Z[i] in one fold (_fold) of
_IntegerForm operands, Gaussian-integer terms over one denominator: the
pair loop multiplies and adds Python ints only, and the result is reduced
by one gcd.  wedge and wedge_many clear each PQForm once and convert the
result back to Q(i) once.

The library's Omega = (i A_1) ^ ... ^ (i A_k) never visits Q(i): the same
fold reads each factor as the (1,1)-form i A from the Z[i] rows its
HermitianMatrix cleared at construction (_matrix_terms, which also backs
form_from_matrix).  The operator matrix of Phi -> omega ^ Phi is filled by
index arithmetic in one place (_operator_columns), each entry +c or -c for
a term c of omega.  Its Gaussian-integer form feeds the determinant and
kernel routes, and, with the signed complementary pairing
Lambda^{n-q,n-p} x Lambda^{q,p} -> Lambda^{n,n}, the Gram matrix of
(Phi, Psi) -> vol(omega ^ Phi ^ conj(Psi)) as one product (M B)^T S conj(B).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd

from .linalg import HermitianMatrix, InternalCheckError, _gaussian_integer_rows
from .rationals import GR, I, ONE, ZERO, GaussianRational, Rat

__all__ = [
    "PQForm",
    "basis_indices",
    "form_from_matrix",
    "wedge",
    "wedge_many",
    "volume_scalar",
    "conjugate_form",
    "multiplication_matrix",
    "wedge_operator_matrix",
    "is_real_form",
]


def _check_multi_index(idx, n):
    t = tuple(idx)
    prev = 0
    for i in t:
        if type(i) is not int:
            raise TypeError(f"multi-index {t!r} must hold ints")
        if not prev < i <= n:
            raise ValueError(f"multi-index {t} must be strictly increasing within [1,{n}]")
        prev = i
    return t


# Wedges and operator matrices merge the same few index pairs again and
# again.  The pairs grow as 4^n, so the memo is bounded: 4096 holds every
# pair of subsets of {1..6}.
@lru_cache(maxsize=4096)
def _merge_sign(a, b):
    """Merge two disjoint increasing tuples; (sign, merged) or (0, None) on overlap."""
    inv = 0
    out = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        if a[ia] == b[ib]:
            return 0, None
        if a[ia] < b[ib]:
            out.append(a[ia])
            ia += 1
        else:
            # b[ib] jumps over the remaining entries of a
            inv += la - ia
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return (-1 if inv % 2 else 1), tuple(out)


@lru_cache(maxsize=None)
def basis_indices(n, p, q):
    """The lexicographically ordered basis (I, J) pairs of Lambda^{p,q}(C^n)."""
    return tuple(
        (i, j)
        for i in combinations(range(1, n + 1), p)
        for j in combinations(range(1, n + 1), q)
    )


class PQForm:
    """Sparse element of Lambda^{p,q}(C^n); absent keys are zero."""

    __slots__ = ("n", "p", "q", "coeffs")

    def __init__(self, n, p, q, coeffs=None):
        if not (0 <= p <= n and 0 <= q <= n):
            raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
        clean = {}
        for (i, j), c in (coeffs or {}).items():
            i = _check_multi_index(i, n)
            j = _check_multi_index(j, n)
            if len(i) != p or len(j) != q:
                raise ValueError(f"index pair {(i, j)} has wrong degree for ({p},{q})")
            c = c if isinstance(c, GaussianRational) else GR(c)
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PQForm is immutable")

    @classmethod
    def zero(cls, n, p, q):
        return cls(n, p, q)

    @classmethod
    def scalar(cls, n, value):
        return cls(n, 0, 0, {((), ()): GR(value)})

    @classmethod
    def basis_element(cls, n, i, j, coeff=ONE):
        return cls(n, len(tuple(i)), len(tuple(j)), {(tuple(i), tuple(j)): coeff})

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, i, j):
        return self.coeffs.get((tuple(i), tuple(j)), ZERO)

    def __add__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, ZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return PQForm(self.n, self.p, self.q, out)

    def __sub__(self, other):
        return self + other.scale(GR(-1))

    def scale(self, c):
        c = c if isinstance(c, GaussianRational) else GR(c)
        if not c:
            return PQForm(self.n, self.p, self.q)
        return PQForm(self.n, self.p, self.q, {k: v * c for k, v in self.coeffs.items()})

    def __neg__(self):
        return self.scale(GR(-1))

    def __eq__(self, other):
        return (
            isinstance(other, PQForm)
            and (self.n, self.p, self.q) == (other.n, other.p, other.q)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.p, self.q, frozenset(self.coeffs.items())))

    def _compat(self, other):
        if not isinstance(other, PQForm):
            raise TypeError("expected a PQForm")
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            raise ValueError("forms live in different spaces")

    def coefficient_vector(self):
        """Coefficients in the canonical ordered basis of Lambda^{p,q}."""
        return [self.coeffs.get(k, ZERO) for k in basis_indices(self.n, self.p, self.q)]

    @classmethod
    def from_coefficient_vector(cls, n, p, q, vec):
        keys = basis_indices(n, p, q)
        if len(vec) != len(keys):
            raise ValueError("coefficient vector has wrong length")
        return cls(n, p, q, {k: c for k, c in zip(keys, vec) if c})

    def __repr__(self):
        return f"PQForm(n={self.n}, p={self.p}, q={self.q}, terms={len(self.coeffs)})"


def _matrix_terms(a: HermitianMatrix):
    """({(I, J): (re, im)}, L): the (1,1)-form i A over Z[i], from A's cached rows.

    Entry re + i im at (j, k) of L A gives the term (-im, re) at ((j,), (k,)).
    """
    re, im, den = a._integer_rows()
    return {((j + 1,), (k + 1,)): (-y, x)
            for j, (xs, ys) in enumerate(zip(re, im))
            for k, (x, y) in enumerate(zip(xs, ys)) if x or y}, den


def form_from_matrix(a: HermitianMatrix) -> PQForm:
    """The real (1,1)-form i * sum a_jk dz_j ^ dzbar_k of a Hermitian matrix."""
    return _IntegerForm(a.n, 1, 1, *_matrix_terms(a)).form()


def _integer_form(phi: PQForm):
    """phi as an _IntegerForm: its coefficients as Gaussian integers over their lcm denominator."""
    (re,), (im,), den = _gaussian_integer_rows([list(phi.coeffs.values())])
    return _IntegerForm(phi.n, phi.p, phi.q, dict(zip(phi.coeffs, zip(re, im))), den)


def _wedge_terms(a, b, negate):
    """a ^ b over Z[i] for integer term dicts {(I, J): (re, im)}.

    `negate` is the block sign of moving a's barred factors past b's
    unbarred ones.  The pair loop multiplies and adds Python ints only.
    Zero sums are dropped.
    """
    block = -1 if negate else 1
    out = {}
    for (i1, j1), (r1, m1) in a.items():
        for (i2, j2), (r2, m2) in b.items():
            si, mi = _merge_sign(i1, i2)
            if not si:
                continue
            sj, mj = _merge_sign(j1, j2)
            if not sj:
                continue
            re = r1 * r2 - m1 * m2
            im = r1 * m2 + m1 * r2
            if si * sj * block < 0:
                re, im = -re, -im
            acc = out.get((mi, mj))
            if acc is None:
                out[mi, mj] = [re, im]
            else:
                acc[0] += re
                acc[1] += im
    return {k: (re, im) for k, (re, im) in out.items() if re or im}


def wedge(phi: PQForm, psi: PQForm) -> PQForm:
    """Exact wedge product; degrees beyond n give the zero form (clamped degree)."""
    return wedge_many((phi, psi))


def wedge_many(forms, n=None) -> PQForm:
    """Left fold of wedge; the empty product is the scalar 1 in Lambda^{0,0}.

    The fold runs on Gaussian integers and converts to Q(i) once.
    """
    forms = list(forms)
    if not forms:
        if n is None:
            raise ValueError("ambient dimension required for an empty product")
        return PQForm.scalar(n, ONE)
    return _fold(forms[0].n, map(_integer_form, forms)).form()


class _IntegerForm:
    """A (p,q)-form as Gaussian integers: terms {(I, J): (re, im)} over one denominator."""

    __slots__ = ("n", "p", "q", "terms", "den")

    def __init__(self, n, p, q, terms, den):
        self.n, self.p, self.q, self.terms, self.den = n, p, q, terms, den

    def form(self) -> PQForm:
        den = self.den
        return PQForm(self.n, self.p, self.q, {
            k: GaussianRational(Rat(re, den), Rat(im, den)) for k, (re, im) in self.terms.items()
        })


def _fold(n, factors, omega=None):
    """omega ^ f_1 ^ ... ^ f_k over Z[i], for _IntegerForm factors on C^n.

    Without omega the fold starts from the first factor itself, and the
    empty product is the scalar 1.  Terms are multiplied in ints over the
    product of the denominators, which is reduced by one gcd at the end.
    A degree beyond n gives the zero form of the clamped bidegree; every
    factor's ambient dimension is still checked.
    """
    p, q, terms, den = (0, 0, None, 1) if omega is None else (
        omega.p, omega.q, omega.terms, omega.den)
    for f in factors:
        if f.n != n:
            raise ValueError("forms live on different ambient spaces")
        # moving dzbar_J (q factors) past dz_I' (f.p factors)
        negate = (f.p * q) % 2
        p, q = p + f.p, q + f.q
        if p > n or q > n:
            p, q, terms = min(p, n), min(q, n), {}
        elif terms is None:
            terms, den = f.terms, f.den
        elif terms:
            terms = _wedge_terms(terms, f.terms, negate)
            den *= f.den
    if terms is None:
        return _IntegerForm(n, 0, 0, {((), ()): (1, 0)}, 1)
    g = gcd(den, *(c for pair in terms.values() for c in pair))
    if g > 1:
        den //= g
        terms = {k: (re // g, im // g) for k, (re, im) in terms.items()}
    return _IntegerForm(n, p, q, terms, den)


def _matrix_wedge(mats, n, omega=None):
    """omega ^ (i A_1) ^ ... ^ (i A_k) over Z[i], read from each matrix's cached rows.

    omega is an _IntegerForm, the scalar 1 when omega is None.  The result
    holds exactly the terms and the lcm denominator that _integer_form
    reads from the Q(i) wedge_many of the forms form_from_matrix(A).
    """
    return _fold(n, (_IntegerForm(a.n, 1, 1, *_matrix_terms(a)) for a in mats), omega)


def _annihilates(omega, p, q, vector):
    """Whether omega ^ phi = 0, for an _IntegerForm omega and phi in Lambda^{p,q}.

    vector is phi's coefficient vector, or any nonzero multiple of it, as
    an (re, im) pair of int lists; entries past its end are zero.
    """
    phi = {k: (a, b) for k, a, b in zip(basis_indices(omega.n, p, q), *vector) if a or b}
    # moving omega's barred factors past dz_I (p factors)
    return not _wedge_terms(omega.terms, phi, (p * omega.q) % 2)


def _matrix_vector(a):
    """((re, im), L): the coefficient vector of the (1,1)-form i A, times L, from A's cached rows.

    The basis ((j,), (k,)) of Lambda^{1,1} is ordered row by row.
    """
    re, im, den = a._integer_rows()
    return ([-y for ys in im for y in ys], [x for xs in re for x in xs]), den


@lru_cache(maxsize=None)
def _volume_coefficient(n) -> GaussianRational:
    vol = wedge_many(
        [PQForm(n, 1, 1, {((k,), (k,)): I}) for k in range(1, n + 1)], n
    )
    full = tuple(range(1, n + 1))
    if len(vol.coeffs) != 1:
        raise InternalCheckError("volume element is not a single basis term")
    return vol.coeffs[(full, full)]


def volume_scalar(phi: PQForm) -> GaussianRational:
    """The scalar lambda with phi = lambda * vol, for an (n,n)-form."""
    n = phi.n
    if phi.p != n or phi.q != n:
        raise ValueError(f"volume_scalar needs an (n,n)-form, got ({phi.p},{phi.q})")
    full = tuple(range(1, n + 1))
    if any(k != (full, full) for k in phi.coeffs):
        raise InternalCheckError("(n,n)-form carries a non-top basis term")
    return phi.coeffs.get((full, full), ZERO) / _volume_coefficient(n)


def conjugate_form(phi: PQForm) -> PQForm:
    """Complex conjugation, swapping bidegree (p,q) -> (q,p).

    conj(dz_I ^ dzbar_J) = dzbar_I ^ dz_J; reordering the q-block of
    unbarred factors past the p-block of barred ones costs p*q adjacent
    transpositions, hence the sign below.
    """
    inversions = phi.p * phi.q
    sign = -1 if inversions % 2 else 1
    out = {}
    for (i, j), c in phi.coeffs.items():
        cc = c.conjugate()
        out[(j, i)] = -cc if sign < 0 else cc
    return PQForm(phi.n, phi.q, phi.p, out)


def is_real_form(phi: PQForm) -> bool:
    """A (p,p)-form is real iff it equals its own conjugate."""
    if phi.p != phi.q:
        return False
    return conjugate_form(phi) == phi


def _operator_columns(omega, p: int, q: int):
    """Sparse columns of L times Phi -> omega ^ Phi from Lambda^{p,q}, by index arithmetic.

    omega is an _IntegerForm over the denominator L.  Returns (nrows,
    columns): columns[col] lists (row, re, im) for each term (re, im) of
    omega whose indices (I', J') are disjoint from the source index (I, J);
    it lands at the row of the merged (I' + I, J' + J) with the merge
    sign.  No coefficient is multiplied.  If the target degree overflows n
    the map is zero and nrows is 0.
    """
    n = omega.n
    src = basis_indices(n, p, q)
    tp, tq = p + omega.p, q + omega.q
    if tp > n or tq > n:
        return 0, [[] for _ in src]
    tgt_pos = _positions(n, tp, tq)
    # moving dzbar_{J'} (omega.q factors) past dz_I (p factors)
    block = -1 if (p * omega.q) % 2 else 1
    terms = list(omega.terms.items())
    columns = []
    for i, j in src:
        col = []
        for (i1, j1), (re, im) in terms:
            si, mi = _merge_sign(i1, i)
            if not si:
                continue
            sj, mj = _merge_sign(j1, j)
            if sj:
                sign = si * sj * block
                col.append((tgt_pos[mi, mj], sign * re, sign * im))
        columns.append(col)
    return len(tgt_pos), columns


def _integer_operator_matrix(omega, p: int, q: int):
    """(re, im, L): dense int rows of L times the matrix of Phi -> omega ^ Phi, omega an _IntegerForm."""
    nrows, columns = _operator_columns(omega, p, q)
    re = [[0] * len(columns) for _ in range(nrows)]
    im = [[0] * len(columns) for _ in range(nrows)]
    for col, entries in enumerate(columns):
        for row, a, b in entries:
            re[row][col] = a
            im[row][col] = b
    return re, im, omega.den


@lru_cache(maxsize=None)
def _positions(n, p, q):
    """{(I, J): position} in the ordered basis of Lambda^{p,q}."""
    return {k: a for a, k in enumerate(basis_indices(n, p, q))}


@lru_cache(maxsize=None)
def _complementary_pairing(n, p, q):
    """The signed pairing Lambda^{n-q,n-p} x Lambda^{q,p} -> Lambda^{n,n}, read through conj.

    Returns (partners, unit).  For the t-th basis index (I, J) of
    Lambda^{n-q,n-p}, partners[t] = (s, sign) with s the position of
    (J^c, I^c) in Lambda^{p,q}, so that for Psi in Lambda^{n-q,n-p} and
    Phi in Lambda^{p,q}
        vol(Psi ^ conj(Phi)) = unit * sum_t sign_t * Psi_t * conj(Phi_{s_t}).
    The sign is merge(I, I^c) * merge(J, J^c) times (-1)^((n-p)q) for
    moving dzbar_J past dz_{I^c} and (-1)^(pq) from conj; unit is the
    inverse of the volume coefficient, a unit of Z[i].
    """
    full = range(1, n + 1)
    src = _positions(n, p, q)
    block = -1 if ((n - p) * q + p * q) % 2 else 1
    partners = []
    for i, j in basis_indices(n, n - q, n - p):
        ic = tuple(k for k in full if k not in i)
        jc = tuple(k for k in full if k not in j)
        si, _ = _merge_sign(i, ic)
        sj, _ = _merge_sign(j, jc)
        partners.append((src[jc, ic], si * sj * block))
    inv = ONE / _volume_coefficient(n)
    if inv.re.denominator != 1 or inv.im.denominator != 1:
        raise InternalCheckError("volume coefficient is not a unit of Z[i]")
    return tuple(partners), (int(inv.re), int(inv.im))


def _pairing_gram(omega, p: int, q: int, left, right):
    """L * vol(omega ^ Phi_a ^ conj(Psi_b)) over Z[i], for all a, b: (re, im, L).

    left and right hold Gaussian-integer coefficient vectors of
    Lambda^{p,q}, each an (re, im) pair of int lists, and omega must be an
    _IntegerForm over L of bidegree (n-p-q, n-p-q).  This is (M Phi)^T S conj(Psi) for M the
    integer operator matrix of omega (over L) and S the signed pairing of
    _complementary_pairing; only the nonzero entries are visited.
    """
    n = omega.n
    k = n - p - q
    if omega.p != k or omega.q != k:
        raise ValueError(
            f"degree mismatch: omega has bidegree ({omega.p},{omega.q}), expected ({k},{k})"
        )
    nrows, columns = _operator_columns(omega, p, q)
    partners, (ur, ui) = _complementary_pairing(n, p, q)
    # unit * sign_t * conj(Psi_{s_t}), kept at its nonzero rows t
    paired = []
    for vr, vi in right:
        out = []
        for t, (s, sign) in enumerate(partners):
            a, b = vr[s], vi[s]
            if a or b:
                a, b = sign * a, -sign * b
                out.append((t, a * ur - b * ui, a * ui + b * ur))
        paired.append(out)
    gram_re, gram_im = [], []
    for vr, vi in left:
        wr, wi = [0] * nrows, [0] * nrows
        for col, entries in enumerate(columns):
            a, b = vr[col], vi[col]
            if a or b:
                for row, mr, mi in entries:
                    wr[row] += mr * a - mi * b
                    wi[row] += mr * b + mi * a
        row_re, row_im = [], []
        for out in paired:
            sr = si = 0
            for t, yr, yi in out:
                xr, xi = wr[t], wi[t]
                sr += xr * yr - xi * yi
                si += xr * yi + xi * yr
            row_re.append(sr)
            row_im.append(si)
        gram_re.append(row_re)
        gram_im.append(row_im)
    return gram_re, gram_im, omega.den


def wedge_operator_matrix(omega: PQForm, p: int, q: int):
    """Matrix of Phi -> omega ^ Phi from Lambda^{p,q} in canonical bases.

    Returns (rows, ncols).  If the target degree overflows n the map is
    zero and the row list is empty.  Column (I, J) holds +c or -c for each
    term c dz_I' ^ dzbar_J' of omega whose indices are disjoint from it, at
    the row of the merged (I' + I, J' + J); no coefficient is multiplied.
    """
    form = _integer_form(omega)
    den = form.den
    value = {}  # +c and -c for each term c of omega
    for re, im in form.terms.values():
        for sign in (1, -1):
            value[sign * re, sign * im] = GaussianRational(Rat(sign * re, den),
                                                           Rat(sign * im, den))
    nrows, columns = _operator_columns(form, p, q)
    rows = [[ZERO] * len(columns) for _ in range(nrows)]
    for col, entries in enumerate(columns):
        for row, re, im in entries:
            rows[row][col] = value[re, im]
    return rows, len(columns)


def multiplication_matrix(omega: PQForm, p: int, q: int):
    """Square matrix of the Lefschetz-type map Lambda^{p,q} -> Lambda^{n-q,n-p}."""
    n = omega.n
    k = n - p - q
    if omega.p != k or omega.q != k:
        raise ValueError(
            f"degree mismatch: omega has bidegree ({omega.p},{omega.q}), expected ({k},{k})"
        )
    rows, ncols = wedge_operator_matrix(omega, p, q)
    if len(rows) != ncols:
        raise InternalCheckError("multiplication matrix is not square")
    return rows
