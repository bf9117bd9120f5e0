"""Exact linear algebra over the Gaussian rationals.

Dense matrices are plain lists of lists of GaussianRational.  Rank,
determinant, kernel and the PSD test share one integer kernel: a matrix
is scaled by the lcm L of its entries' denominators and stored as rows
of Gaussian integers, one list of real and one of imaginary int parts,
and eliminated fraction-free (Bareiss 1968).  Every step divides exactly
in Z[i] by the previous pivot; a nonzero remainder raises
InternalCheckError.  Values become GaussianRational again only on the
way out:

* mat_det is the last Bareiss pivot over L^n, signed by the row swaps;
* mat_rank counts the pivots;
* kernel_basis runs the fraction-free Gauss-Jordan form (Nakos, Turner
  and Williams 1997), which leaves every pivot equal to the last one, d,
  so the reduced row echelon form is M / d;
* HermitianMatrix.is_psd eliminates symmetrically on diagonal pivots: a
  negative pivot, or a zero pivot with a nonzero remaining row, means
  not PSD.

Characteristic polynomials use the Faddeev-LeVerrier recursion; the
relative m-positivity test and signatures use conjugate congruence over
Q(i), so no eigenvalues are ever computed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rationals import GR, ONE, ZERO, GaussianRational, as_rat

__all__ = [
    "HermitianMatrix",
    "HermitianFormOnSpace",
    "NotPositiveDefiniteError",
    "InternalCheckError",
    "mat_copy",
    "mat_mul",
    "mat_rank",
    "mat_det",
    "kernel_basis",
    "char_poly_elementary",
    "hermitian_signature",
    "is_m_positive",
]


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite is not."""


class InternalCheckError(ArithmeticError):
    """An internal consistency check failed; signals a bug, not bad input."""


def _entry(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, dict):
        return GaussianRational(x.get("re", 0), x.get("im", 0))
    return GR(as_rat(x))


def mat_copy(rows):
    return [list(r) for r in rows]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            s = ZERO
            for t in range(k):
                if ai[t]:
                    s = s + ai[t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


# ---- the integer kernel over Z[i] ----

def _gaussian_integer_rows(rows):
    """(re, im, L): int rows with re + i*im = L * rows, L the lcm of all denominators."""
    entries = [[_entry(x) for x in row] for row in rows]
    den = lcm(*{int(x.re.denominator) for row in entries for x in row},
              *{int(x.im.denominator) for row in entries for x in row})
    re = [[int(x.re.numerator) * (den // int(x.re.denominator)) for x in row]
          for row in entries]
    im = [[int(x.im.numerator) * (den // int(x.im.denominator)) for x in row]
          for row in entries]
    return re, im, den


def _inexact():
    return InternalCheckError("fraction-free elimination step is not exact in Z[i]")


def _eliminate(re, im, ncols, jordan=False):
    """Fraction-free elimination over Z[i], in place on the (re, im) rows.

    Bareiss form by default: rows below each pivot are reduced.  With
    jordan=True rows above are reduced too, and every pivot ends equal to
    the last one.  Returns (pivot columns, sign of the row permutation,
    last pivot as an (re, im) pair, or (1, 0) when there is none).
    """
    nrows = len(re)
    pivots = []
    sign = 1
    dr, di = 1, 0
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if re[i][col] or im[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            re[r], re[piv] = re[piv], re[r]
            im[r], im[piv] = im[piv], im[r]
            sign = -sign
        rr, ri = re[r], im[r]
        pr, pi = rr[col], ri[col]
        # new entry = (p * a_ij - a_i,col * a_r,j) / d; with d complex the
        # division is by |d|^2 after multiplying by conj(d)
        divisor = dr * dr + di * di if di else dr
        for i in range(0 if jordan else r + 1, nrows):
            if i == r:
                continue
            xr_row, xi_row = re[i], im[i]
            ar, ai = xr_row[col], xi_row[col]
            for j in range(col + 1 if i > r else 0, ncols):
                a, b, c, e = xr_row[j], xi_row[j], rr[j], ri[j]
                tr = pr * a - pi * b - ar * c + ai * e
                ti = pr * b + pi * a - ar * e - ai * c
                if di:
                    tr, ti = tr * dr + ti * di, ti * dr - tr * di
                qr, rem_r = divmod(tr, divisor)
                qi, rem_i = divmod(ti, divisor)
                if rem_r or rem_i:
                    raise _inexact()
                xr_row[j] = qr
                xi_row[j] = qi
            xr_row[col] = xi_row[col] = 0
        dr, di = pr, pi
        pivots.append(col)
    return pivots, sign, (dr, di)


def _is_psd(rows):
    """Symmetric fraction-free elimination of a Hermitian matrix on its diagonal.

    Only the upper triangle is kept; entry (i, k) below it is the conjugate
    of (k, i).  Pivots stay real and, while all are positive, each step is
    a congruence up to a positive factor.
    """
    re, im, _ = _gaussian_integer_rows(rows)
    n = len(re)
    prev = 1
    for k in range(n):
        rk, ik = re[k], im[k]
        p = rk[k]
        if ik[k]:
            raise InternalCheckError("non-real diagonal in Hermitian elimination")
        if p < 0:
            return False
        if not p:
            if any(rk[j] or ik[j] for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            xr_row, xi_row = re[i], im[i]
            ar, ai = rk[i], -ik[i]
            for j in range(i, n):
                c, e = rk[j], ik[j]
                qr, rem_r = divmod(p * xr_row[j] - ar * c + ai * e, prev)
                qi, rem_i = divmod(p * xi_row[j] - ar * e - ai * c, prev)
                if rem_r or rem_i:
                    raise _inexact()
                xr_row[j] = qr
                xi_row[j] = qi
        prev = p
    return True


def mat_rank(rows) -> int:
    """Exact rank: the number of fraction-free pivots."""
    re, im, _ = _gaussian_integer_rows(rows)
    return len(_eliminate(re, im, len(re[0]) if re else 0)[0])


def mat_det(rows) -> GaussianRational:
    """Exact determinant: the last Bareiss pivot of L * rows over L^n."""
    n = len(rows)
    re, im, den = _gaussian_integer_rows(rows)
    pivots, sign, (dr, di) = _eliminate(re, im, n)
    if len(pivots) < n:
        return ZERO
    scale = sign * den ** n
    return GaussianRational(Fraction(dr, scale), Fraction(di, scale))


def kernel_basis(rows, ncols=None):
    """Exact basis of the right kernel of a rectangular matrix.

    One vector per non-pivot column of the reduced row echelon form, in
    column order.  `ncols` must be given when `rows` is empty (the zero
    map), in which case the kernel is the whole source.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for a matrix with no rows")
        ncols = len(rows[0])
    re, im, _ = _gaussian_integer_rows(rows)
    pivots, _, (dr, di) = _eliminate(re, im, ncols, jordan=True)
    # RREF = M / d: entry -(a + b i) / (dr + di i) of the kernel vector
    norm = dr * dr + di * di
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            a, b = re[r][free], im[r][free]
            if a or b:
                v[pc] = GaussianRational(Fraction(-(a * dr + b * di), norm),
                                         Fraction(a * di - b * dr, norm))
        basis.append(v)
    return basis


def char_poly_elementary(rows):
    """Signed characteristic-polynomial coefficients (e_1, ..., e_n).

    e_k is the k-th elementary symmetric function of the eigenvalues,
    i.e. the sum of the k x k principal minors, computed exactly via the
    Faddeev-LeVerrier recursion.  Works for any square matrix.
    """
    n = len(rows)
    m = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    es = []
    for k in range(1, n + 1):
        am = mat_mul(rows, m)
        tr = ZERO
        for i in range(n):
            tr = tr + am[i][i]
        ck = -(tr / GR(k))
        es.append(-ck if k % 2 else ck)
        if k < n:
            for i in range(n):
                am[i][i] = am[i][i] + ck
            m = am
    return es


class HermitianMatrix:
    """Exact n x n Hermitian matrix, the coordinate form of a real (1,1)-form."""

    __slots__ = ("n", "rows", "_rank", "_psd", "_charpoly")

    def __init__(self, entries):
        rows = [[_entry(x) for x in row] for row in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        for j in range(n):
            for k in range(j, n):
                if rows[j][k] != rows[k][j].conjugate():
                    raise ValueError(f"not Hermitian at ({j},{k})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "_rank", None)
        object.__setattr__(self, "_psd", None)
        object.__setattr__(self, "_charpoly", None)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    @classmethod
    def diagonal(cls, values):
        vals = [as_rat(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def identity(cls, n):
        return cls.diagonal([1] * n)

    @classmethod
    def zero(cls, n):
        return cls.diagonal([0] * n)

    @classmethod
    def from_generator(cls, b_rows):
        """B * B^H for a rectangular exact matrix B; always PSD."""
        b = [[_entry(x) for x in row] for row in b_rows]
        n = len(b)
        bh = [[b[i][j].conjugate() for i in range(n)] for j in range(len(b[0]) if b else 0)]
        return cls(mat_mul(b, bh)) if b and b[0] else cls.zero(n)

    def __add__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return HermitianMatrix(
            [[self.rows[i][j] + other.rows[i][j] for j in range(self.n)] for i in range(self.n)]
        )

    def scale(self, c):
        """Multiply by a real rational scalar (keeps Hermitian-ness)."""
        c = as_rat(c)
        return HermitianMatrix([[x * GR(c) for x in row] for row in self.rows])

    def __eq__(self, other):
        return isinstance(other, HermitianMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"HermitianMatrix({self.n}x{self.n})"

    def entry(self, j, k):
        return self.rows[j][k]

    def rank(self) -> int:
        if self._rank is None:
            object.__setattr__(self, "_rank", mat_rank(self.rows))
        return self._rank

    def kernel_basis(self):
        return kernel_basis(self.rows)

    def char_poly_coefficients(self):
        """Exact (e_1, ..., e_n); all real for Hermitian input."""
        if self._charpoly is None:
            es = char_poly_elementary(self.rows)
            reals = []
            for e in es:
                if e.im:
                    raise InternalCheckError("complex char-poly coefficient on Hermitian input")
                reals.append(e.re)
            object.__setattr__(self, "_charpoly", tuple(reals))
        return self._charpoly

    def is_psd(self) -> bool:
        if self._psd is None:
            object.__setattr__(self, "_psd", _is_psd(self.rows))
        return self._psd

    def det(self) -> GaussianRational:
        return mat_det(self.rows)


def _ldl_positive(rows):
    """LDL* of a positive definite Hermitian matrix.

    Returns (L, d) with L unit lower triangular and d positive rationals.
    Raises NotPositiveDefiniteError otherwise.
    """
    n = len(rows)
    a = mat_copy(rows)
    lmat = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    d = []
    for k in range(n):
        dk = a[k][k]
        if dk.im or dk.re <= 0:
            raise NotPositiveDefiniteError("matrix is not positive definite")
        d.append(dk.re)
        for i in range(k + 1, n):
            lmat[i][k] = a[i][k] / dk
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                a[i][j] = a[i][j] - lmat[i][k] * a[k][j]
                a[j][i] = a[i][j].conjugate()
            a[i][k] = ZERO
            a[k][i] = ZERO
    return lmat, d


def _forward_solve(lmat, b):
    """Solve L X = B with L unit lower triangular."""
    n = len(lmat)
    ncols = len(b[0])
    x = [[ZERO] * ncols for _ in range(n)]
    for j in range(ncols):
        for i in range(n):
            s = b[i][j]
            for k in range(i):
                if lmat[i][k]:
                    s = s - lmat[i][k] * x[k][j]
            x[i][j] = s
    return x


def is_m_positive(mat: HermitianMatrix, omega: HermitianMatrix, m: int) -> bool:
    """alpha^k wedge omega^(n-k) > 0 for all 1 <= k <= m, exactly.

    omega must be positive definite; the check happens in omega-adapted
    coordinates via the exact congruence omega = L D L*: the relative
    elementary symmetric functions are those of D^{-1} L^{-1} A L^{-*}.
    """
    n = mat.n
    if omega.n != n:
        raise ValueError("dimension mismatch")
    if not 1 <= m <= n:
        raise ValueError("m must satisfy 1 <= m <= n")
    lmat, d = _ldl_positive(omega.rows)
    x = _forward_solve(lmat, mat_copy(mat.rows))
    # N = X L^{-*}: solve L N* = X*
    xstar = [[x[j][i].conjugate() for j in range(n)] for i in range(n)]
    nstar = _forward_solve(lmat, xstar)
    nmat = [[nstar[j][i].conjugate() for j in range(n)] for i in range(n)]
    b = [[nmat[i][j] / GR(d[i]) for j in range(n)] for i in range(n)]
    es = char_poly_elementary(b)
    for k in range(m):
        e = es[k]
        if e.im:
            raise InternalCheckError("relative char-poly coefficient not real")
        if e.re <= 0:
            return False
    return True


def hermitian_signature(gram):
    """Exact inertia (n_plus, n_minus, n_zero) by conjugate congruence.

    Symmetric pivoting on nonzero diagonal entries; when the remaining
    diagonal vanishes but the block does not, a 2x2 hyperbolic pair
    contributes (+1, -1).
    """
    n = len(gram)
    g = mat_copy(gram)
    npos = nneg = nzero = 0

    def swap(i, j):
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]

    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if g[i][i]), None)
        if piv is not None:
            if piv != k:
                swap(k, piv)
            dk = g[k][k]
            if dk.im:
                raise InternalCheckError("non-real diagonal in Hermitian form")
            if dk.re > 0:
                npos += 1
            else:
                nneg += 1
            for i in range(k + 1, n):
                if g[i][k]:
                    f = g[i][k] / dk
                    for j in range(k + 1, n):
                        g[i][j] = g[i][j] - f * g[k][j]
                    g[i][k] = ZERO
            for j in range(k + 1, n):
                g[k][j] = ZERO
            k += 1
            continue
        # all diagonal pivots vanish; look for an off-diagonal coupling
        pair = None
        for i in range(k, n):
            for j in range(i + 1, n):
                if g[i][j]:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            nzero += n - k
            break
        i, j = pair
        if i != k:
            swap(k, i)
        if j != k + 1:
            swap(k + 1, j)
        c = g[k][k + 1]
        cbar = c.conjugate()
        npos += 1
        nneg += 1
        # block-eliminate rows below the hyperbolic pair:
        # G'[r][s] -= G[r][k+1] G[k][s] / c + G[r][k] G[k+1][s] / cbar
        for r in range(k + 2, n):
            bk, bk1 = g[r][k], g[r][k + 1]
            if bk or bk1:
                for s in range(k + 2, n):
                    g[r][s] = g[r][s] - bk1 * g[k][s] / c - bk * g[k + 1][s] / cbar
                g[r][k] = ZERO
                g[r][k + 1] = ZERO
        k += 2
    return (npos, nneg, nzero)


class HermitianFormOnSpace:
    """A Hermitian form on C^dim given by its Gram matrix in a fixed basis."""

    __slots__ = ("dim", "gram")

    def __init__(self, gram):
        rows = [[_entry(x) for x in row] for row in gram]
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("Gram matrix must be square")
        for j in range(dim):
            for k in range(j, dim):
                if rows[j][k] != rows[k][j].conjugate():
                    raise ValueError("Gram matrix not Hermitian")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gram", tuple(tuple(r) for r in rows))

    def __setattr__(self, name, value):
        raise AttributeError("HermitianFormOnSpace is immutable")

    def signature(self):
        return hermitian_signature(self.gram)

    def restrict(self, basis):
        """Gram matrix of the form restricted to span(basis)."""
        if mat_rank(basis) != len(basis):
            raise ValueError("basis vectors are linearly dependent")
        k = len(basis)
        out = []
        for a in range(k):
            row = []
            va = basis[a]
            for b in range(k):
                vb = basis[b]
                s = ZERO
                for i in range(self.dim):
                    if va[i]:
                        vai = va[i].conjugate()
                        for j in range(self.dim):
                            if self.gram[i][j] and vb[j]:
                                s = s + vai * self.gram[i][j] * vb[j]
                row.append(s)
            out.append(row)
        return out

    def is_positive_definite_on(self, basis) -> bool:
        """Sylvester criterion on the restriction to span(basis)."""
        r = self.restrict(basis)
        for k in range(1, len(basis) + 1):
            minor = mat_det([row[:k] for row in r[:k]])
            if minor.im:
                raise InternalCheckError("leading minor of Hermitian form not real")
            if minor.re <= 0:
                return False
        return True

    def is_positive_definite(self) -> bool:
        return self.signature() == (self.dim, 0, 0)
