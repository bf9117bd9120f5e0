"""Exact linear algebra over the Gaussian rationals.

Dense matrices are plain lists of lists of GaussianRational.  Every
elimination runs on integer rows: one lift (_gaussian_integer_rows) reads
each entry as int pairs, scales the matrix by the lcm L of their
denominators and stores it as rows of Gaussian integers, one list of real
and one of imaginary int parts; a badly shaped matrix is a ValueError
there.  The rows are eliminated fraction-free (Bareiss 1968).  Every step
divides exactly in Z[i] by the previous pivot; a nonzero remainder raises
InternalCheckError.  There are two eliminations.  The general one
(_eliminate) runs on any rectangular matrix that need not be Hermitian,
with row swaps and complex pivots:

* mat_det is its last pivot over L^n, signed by the row swaps;
* mat_rank counts its pivots;
* kernel_basis back-substitutes over its echelon rows: each vector is d
  times an exact kernel vector, d the last pivot, and its entries are
  those of the fraction-free Gauss-Jordan form (Nakos, Turner and
  Williams 1997), so every division is exact in Z[i] as well.

The Hermitian one (_inertia) is symmetric, on real diagonal pivots and
the upper triangle only; the k-th LDL* diagonal is p_k / p_(k-1), and the
last pivot is the determinant.  One call gives the inertia, the rank and
the determinant of a Hermitian matrix: HermitianMatrix.rank, is_psd and
det fill one cache from it, hermitian_signature reads its inertia,
`discriminant`'s subset walks rank and determine every sum A_I with it,
and is_m_positive reads the signs of the coefficients of
det(omega + t A), interpolated exactly from the n + 1 Hermitian
determinants at t = 0..n.  Values become GaussianRational again only on
the way out.

_det_residue maps the same int rows to F_p by i -> s, s^2 = -1 modulo
one prime p = 1 (mod 4), p < 2^30 so that every residue is one CPython
digit, and eliminates a copy there in place: a ring homomorphism, so a
nonzero residue proves det != 0, while a zero residue decides nothing but
names the first column f that is dependent mod p and the f pivot rows it
used.  _first_kernel_vector solves a square matrix on those rows, up to
column f only: the f x f block of the columns before f is nonsingular mod
p, hence over Q, so the f x (f + 1) block has exactly one kernel vector.
Checked against every row in ints, it is the first reduced row echelon
kernel vector of the whole matrix; only when a row rejects it, because p
divided a minor, does the whole matrix follow.

A HermitianMatrix holds only its reduced Z[i] rows, cleared once from
outside input by the one lift (`serialize` passes it a task file's JSON
pairs), where the Hermitian check reads them; one built from rows
the library holds (a Gram, a subset sum, B B^H) is not cleared.  The
methods, the pencil of is_m_positive, `discriminant`'s subset lattice and
`exterior`'s wedges read those rows.  `rows` is a Q(i) view built on
first read, and `+` and `scale` work on it, as the oracle of the integer
subset walk.  Every entry point that takes a family of PSD members checks
it with _check_family, which names the first bad member by its position.

No eigenvalue is ever computed.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul, sub

from .rationals import GR, ZERO, GaussianRational, as_rat

__all__ = [
    "HermitianMatrix",
    "HermitianFormOnSpace",
    "NotPositiveDefiniteError",
    "InternalCheckError",
    "mat_rank",
    "mat_det",
    "kernel_basis",
    "hermitian_signature",
    "is_m_positive",
]


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite is not."""


class InternalCheckError(ArithmeticError):
    """An internal consistency check failed; signals a bug, not bad input."""


_REAL = (0, 1)  # the int pair of a zero imaginary part


def _parts(x):
    """((p, q), (r, s)), q, s > 0: the real and imaginary parts of an entry as int pairs.

    The entry is a GaussianRational, an int or a rational; every pair is reduced.
    """
    if isinstance(x, GaussianRational):
        return x.re.as_integer_ratio(), x.im.as_integer_ratio()
    if type(x) is int:
        return (x, 1), _REAL
    return as_rat(x).as_integer_ratio(), _REAL


# ---- the integer kernel over Z[i] ----

def _gaussian_integer_rows(rows, parts=_parts, square=False):
    """(re, im, L): int rows with re + i*im = L * rows, L the lcm of all denominators.

    parts reads each entry as the int pairs ((p, q), (r, s)) of its real
    and imaginary parts, q, s > 0.  When every pair is reduced, gcd(L,
    every part) = 1: each prime's full power in L divides some entry's
    denominator.  Rows of a length other than their number when square
    is set, or of unequal length, are a ValueError.
    """
    entries = [[parts(x) for x in row] for row in rows]
    widths = set(map(len, entries))
    if square and widths - {len(entries)}:
        raise ValueError("matrix must be square")
    if len(widths) > 1:
        raise ValueError("matrix rows must have equal length")
    den = lcm(*{d for row in entries for (_, a), (_, b) in row for d in (a, b)})
    re = [[p * (den // q) for (p, q), _ in row] for row in entries]
    im = [[r * (den // s) for _, (r, s) in row] for row in entries]
    return re, im, den


def _hermitian_failure(re, im):
    """The first (j, k), j <= k, at which the Z[i] rows are not Hermitian; None if none."""
    n = len(re)
    return next(((j, k) for j in range(n) for k in range(j, n)
                 if re[j][k] != re[k][j] or im[j][k] != -im[k][j]), None)


def _copy_rows(rows):
    """A list-of-lists copy of shared int rows, for an elimination to run on in place."""
    return list(map(list, rows))


def _inexact():
    return InternalCheckError("fraction-free elimination step is not exact in Z[i]")


def _eliminate(re, im, ncols):
    """Fraction-free Bareiss elimination over Z[i], in place on the (re, im) rows.

    Rows below each pivot are reduced; rows at and above it are left as
    they are, so the first len(pivots) rows end in echelon form.  Returns
    (pivot columns, sign of the row permutation, last pivot as an (re, im)
    pair, or (1, 0) when there is none).
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
        for i in range(r + 1, nrows):
            xr_row, xi_row = re[i], im[i]
            ar, ai = xr_row[col], xi_row[col]
            for j in range(col + 1, ncols):
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


def _inertia(re, im):
    """(npos, nneg, nzero, det) of a Hermitian Z[i] matrix by symmetric fraction-free elimination.

    The package's one Hermitian kernel.  The rows (re, im) are eliminated
    in place; a positive multiple of a Hermitian matrix has its inertia, so
    any cleared form will do.  Only the upper triangle is kept; entry
    (i, k) below it is the conjugate of (k, i).  Pivots are the diagonal
    entries in order and stay real; the k-th LDL* diagonal is p_k / p_prev,
    so its sign is sign(p_k) * sign(p_prev).  A zero pivot whose remaining
    row is zero adds to nzero.  One whose row has a nonzero entry c at
    column l is made nonzero by the unimodular congruence
    row_k += t row_l, col_k += conj(t) col_l: the new diagonal is
    a_ll + 2 Re(conj(t) c), nonzero for one of t = 1, -1, i, -i, and every
    later division stays exact.
    Each pivot is the leading principal minor of its order of the matrix
    after the congruences, whose determinant is 1, so det is the last
    pivot when nzero is 0, and 0 otherwise.
    """
    n = len(re)
    npos = nneg = nzero = 0
    prev = 1
    for k in range(n):
        rk, ik = re[k], im[k]
        if ik[k]:
            raise InternalCheckError("non-real diagonal in Hermitian elimination")
        if not rk[k]:
            col = next((j for j in range(k + 1, n) if rk[j] or ik[j]), None)
            if col is None:
                nzero += 1
                continue
            cr, ci, diag = rk[col], ik[col], re[col][col]
            for tr, ti in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                pivot = diag + 2 * (tr * cr + ti * ci)
                if pivot:
                    break
            for j in range(k + 1, n):
                x, y = (re[col][j], im[col][j]) if j >= col else (re[j][col], -im[j][col])
                rk[j] += tr * x - ti * y
                ik[j] += tr * y + ti * x
            rk[k] = pivot
        p = rk[k]
        if (p > 0) == (prev > 0):
            npos += 1
        else:
            nneg += 1
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
    return npos, nneg, nzero, 0 if nzero else prev


def _det_pencil(a, b):
    """The int coefficients of n! L^n det(a + t b), lowest power first.

    a and b are the (re, im) Z[i] rows of the Hermitian L a and L b over
    one L, and are only read.  L a + t L b is Hermitian for every integer
    t, so v_t = det(L a + t L b) is the determinant of one _inertia, a real
    int, for t = 0..n, and Newton's forward differences interpolate it
    exactly: n! L^n det(a + t b) = sum_k (n! / k!) D^k v_0 t (t - 1) ... (t - k + 1).
    """
    (ar, ai), (br, bi) = a, b
    n = len(ar)
    values = [_inertia([[x + t * y for x, y in zip(xs, ys)] for xs, ys in zip(ar, br)],
                       [[x + t * y for x, y in zip(xs, ys)] for xs, ys in zip(ai, bi)])[3]
              for t in range(n + 1)]
    coeffs = [0] * (n + 1)
    falling = [1]  # t (t - 1) ... (t - k + 1), lowest power first
    for k in range(n + 1):
        weight = factorial(n) // factorial(k) * values[0]
        for j, f in enumerate(falling):
            coeffs[j] += weight * f
        values = list(map(sub, values[1:], values))
        falling = [(falling[j - 1] if j else 0) - (k * falling[j] if j <= k else 0)
                   for j in range(k + 2)]
    return coeffs


def _rank(re, im, ncols):
    """Rank of the Z[i] rows (re, im), eliminated in place."""
    return len(_eliminate(re, im, ncols)[0])


def mat_rank(rows) -> int:
    """Exact rank: the number of fraction-free pivots."""
    re, im, _ = _gaussian_integer_rows(rows)
    return _rank(re, im, len(re[0]) if re else 0)


def _det(re, im):
    """det of a square Z[i] matrix as an (re, im) pair; the rows are eliminated in place."""
    pivots, sign, (dr, di) = _eliminate(re, im, len(re))
    return (sign * dr, sign * di) if len(pivots) == len(re) else (0, 0)


# i -> _S, a square root of -1 modulo the prime _P = 1 (mod 4), maps Z[i]
# onto F_p as a ring homomorphism; the tests prove _P prime.  _P < 2^30,
# so every residue is one CPython digit.
_P = 2 ** 30 - 35
_S = 140687844


def _det_residue(re, im):
    """(residue, f, rows) for a square Z[i] matrix mapped to F_p by i -> s; the rows are left as they are.

    residue is det mod p.  A ring homomorphism maps det to det, so a
    nonzero residue proves the determinant nonzero, and then f is None.
    A zero residue decides nothing; f is the column at which the
    elimination stopped, the first with no nonzero entry left mod p.
    Each step consumes one column, so columns 0..f-1 are independent mod
    p and column f depends on them: f is where the column rank profile
    over F_p first skips.  rows names the pivot row of each column
    eliminated, by its index in the input: all N rows when the residue
    is nonzero, else f rows on which columns 0..f-1 are nonsingular mod p.
    The copy mod p is eliminated in place; a step updates only the rows
    with a nonzero entry in its pivot column.
    """
    p = _P
    m = [[(a + _S * b) % p for a, b in zip(xs, ys)] for xs, ys in zip(re, im)]
    n = len(m)
    order = list(range(n))  # order[k]: the input index of the row now at position k
    det = 1
    for col in range(n):
        piv = next((k for k in range(col, n) if m[k][col]), None)
        if piv is None:
            return 0, col, order[:col]
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            order[col], order[piv] = order[piv], order[col]
            det = -det
        head = m[col]
        det = det * head[col] % p
        neg_inv = p - pow(head[col], -1, p)
        nxt = col + 1
        tail = head[nxt:]
        for row in m[nxt:]:
            a = row[col]
            if a:
                f = a * neg_inv % p
                row[nxt:] = [(x + f * y) % p for x, y in zip(row[nxt:], tail)]
    return det, None, order


def mat_det(rows) -> GaussianRational:
    """Exact determinant: the last Bareiss pivot of L * rows over L^n."""
    re, im, den = _gaussian_integer_rows(rows, square=True)
    dr, di = _det(re, im)
    scale = den ** len(re)
    return GaussianRational(Fraction(dr, scale), Fraction(di, scale)) if dr or di else ZERO


def _kernel(re, im, ncols):
    """Right kernel of the Z[i] rows (re, im), eliminated in place: (vectors, d).

    One (re, im) pair of int lists per non-pivot column of the reduced row
    echelon form, in column order; each is d times the exact kernel
    vector, d being the last Bareiss pivot as an (re, im) pair.  The pivot
    entries come from back-substitution over the Bareiss echelon rows; they
    are the entries of the fraction-free Gauss-Jordan form (Nakos, Turner
    and Williams 1997), hence in Z[i], so every division must be exact.
    """
    pivots, _, d = _eliminate(re, im, ncols)
    pivset = set(pivots)
    vectors = []
    for free in range(ncols):
        if free in pivset:
            continue
        vr, vi = [0] * ncols, [0] * ncols
        vr[free], vi[free] = d
        known = [free]  # the nonzero entries solved so far, all right of the next pivot
        for r in range(bisect_left(pivots, free) - 1, -1, -1):
            pc, rr, ri = pivots[r], re[r], im[r]
            sr = si = 0
            for j in known:
                a, b, c, e = rr[j], ri[j], vr[j], vi[j]
                sr += a * c - b * e
                si += a * e + b * c
            if not (sr or si):
                continue
            # v[pc] = -s / u with u the pivot; with u complex divide by |u|^2
            # after multiplying by conj(u)
            ur, ui = rr[pc], ri[pc]
            divisor = ur * ur + ui * ui if ui else ur
            if ui:
                sr, si = sr * ur + si * ui, si * ur - sr * ui
            qr, rem_r = divmod(-sr, divisor)
            qi, rem_i = divmod(-si, divisor)
            if rem_r or rem_i:
                raise _inexact()
            vr[pc], vi[pc] = qr, qi
            known.append(pc)
        vectors.append((vr, vi))
    return vectors, d


def _in_kernel(re, im, vector):
    """Whether vector is in the right kernel of the Z[i] rows (re, im); entries past its end are zero."""
    vr, vi = vector
    for xs, ys in zip(re, im):
        # (x + i y)(u + i w) = xu - yw + i (xw + yu), summed along the row
        if (sum(map(mul, xs, vr)) != sum(map(mul, ys, vi))
                or sum(map(mul, xs, vi)) + sum(map(mul, ys, vr))):
            return False
    return True


def _first_kernel_vector(re, im):
    """The first reduced row echelon kernel vector of a square Z[i] matrix: (vector, d) or None.

    None means the matrix is invertible.  Otherwise vector is d times the
    exact kernel vector of the first non-pivot column f, as (re, im) int
    lists over columns 0..f; the entries after f are zero.  It is solved
    on the f pivot rows of the residue: their block on columns 0..f-1 is
    nonsingular mod p, hence over Q, so it has exactly one kernel vector,
    and that vector is checked against every row.  The rows are left as
    they are unless a row rejects it, which means p divided a minor of the
    first f + 1 columns; then the whole matrix is solved.
    """
    residue, f, rows = _det_residue(re, im)
    if residue:
        return None
    vectors, d = _kernel([re[r][:f + 1] for r in rows], [im[r][:f + 1] for r in rows], f + 1)
    # one vector, whose free column is f: its entry there is d
    if len(vectors) != 1 or (vectors[0][0][f], vectors[0][1][f]) != d:
        raise InternalCheckError("residue pivot rows are singular on the leading columns")
    if _in_kernel(re, im, vectors[0]):
        return vectors[0], d
    # column f is independent over Q after all: p divided a minor
    vectors, d = _kernel(re, im, len(re))
    return (vectors[0], d) if vectors else None


def _exact_vector(vector, d):
    """The GaussianRational vector (vr + i vi) / d of an integer kernel vector."""
    dr, di = d
    norm = dr * dr + di * di
    return [GaussianRational(Fraction(a * dr + b * di, norm), Fraction(b * dr - a * di, norm))
            if a or b else ZERO for a, b in zip(*vector)]


def kernel_basis(rows, ncols=None):
    """Exact basis of the right kernel of a rectangular matrix.

    One vector per non-pivot column of the reduced row echelon form, in
    column order.  `ncols` must be given when `rows` is empty (the zero
    map), in which case the kernel is the whole source.
    """
    re, im, _ = _gaussian_integer_rows(rows)
    if ncols is None:
        if not re:
            raise ValueError("ncols required for a matrix with no rows")
        ncols = len(re[0])
    elif re and len(re[0]) != ncols:
        raise ValueError(f"matrix rows must have ncols = {ncols} entries")
    vectors, d = _kernel(re, im, ncols)
    return [_exact_vector(v, d) for v in vectors]


class HermitianMatrix:
    """Exact n x n Hermitian matrix, the coordinate form of a real (1,1)-form.

    _cleared = (re, im, L) holds L A as int tuples, L > 0 and gcd(L, every
    part) = 1, so equal matrices hold equal rows; `rows` is a read-only view.
    """

    __slots__ = ("n", "_cleared", "_rows", "_signs")

    def __init__(self, entries):
        self._set(*_gaussian_integer_rows(entries, square=True))

    @classmethod
    def _from_integer_rows(cls, re, im, den):
        """The matrix (re + i im) / den, den > 0, from Z[i] rows that are only read.

        Dividing by gcd(den, all entries) leaves the (re, im, L) that
        clearing its values would give, L the lcm of their denominators.
        """
        g = gcd(den, *(x for row in re for x in row), *(y for row in im for y in row))
        if g > 1:
            re = [[x // g for x in row] for row in re]
            im = [[y // g for y in row] for row in im]
            den //= g
        return cls.__new__(cls)._set(re, im, den)

    def _set(self, re, im, den):
        if any(len(row) != len(re) for row in re):
            raise ValueError("matrix must be square")
        # L * x == L * y exactly when x == y, so the check reads the cleared ints
        failure = _hermitian_failure(re, im)
        if failure:
            raise ValueError("not Hermitian at ({},{})".format(*failure))
        object.__setattr__(self, "n", len(re))
        object.__setattr__(self, "_cleared", (tuple(map(tuple, re)), tuple(map(tuple, im)), den))
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_signs", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    @property
    def rows(self):
        """The entries as a tuple of GaussianRational row tuples, built on first read."""
        if self._rows is None:
            re, im, den = self._cleared
            object.__setattr__(self, "_rows", tuple(
                tuple(GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(xs, ys))
                for xs, ys in zip(re, im)))
        return self._rows

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
        """B * B^H for a rectangular exact matrix B, as (L B)(L B)^H over L^2; always PSD."""
        re, im, den = _gaussian_integer_rows(b_rows)
        rows = list(zip(re, im))
        # entry (j, k) sums (a + i b)(c - i d) = ac + bd + i(bc - ad) along rows j and k
        return cls._from_integer_rows(
            [[sum(map(mul, ar, cr)) + sum(map(mul, ai, ci)) for cr, ci in rows] for ar, ai in rows],
            [[sum(map(mul, ai, cr)) - sum(map(mul, ar, ci)) for cr, ci in rows] for ar, ai in rows],
            den * den)

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
        return isinstance(other, HermitianMatrix) and self._cleared == other._cleared

    def __hash__(self):
        return hash(self._cleared)

    def __repr__(self):
        return f"{type(self).__name__}({self.n}x{self.n})"

    def entry(self, j, k):
        return self.rows[j][k]

    def _elimination(self):
        """(npos, nneg, nzero, det(L A)) from one _inertia of the cleared rows, computed once."""
        if self._signs is None:
            re, im, _ = self._cleared
            object.__setattr__(self, "_signs", _inertia(_copy_rows(re), _copy_rows(im)))
        return self._signs

    def rank(self) -> int:
        npos, nneg, _, _ = self._elimination()
        return npos + nneg

    def is_psd(self) -> bool:
        return self._elimination()[1] == 0

    def det(self) -> GaussianRational:
        d = self._elimination()[3]
        return GaussianRational(Fraction(d, self._cleared[2] ** self.n)) if d else ZERO


def _check_family(mats, n, psd=True):
    """ValueError naming, by its 1-based position, the first member that is not n x n or, with psd, not PSD."""
    for k, a in enumerate(mats, 1):
        if a.n != n:
            raise ValueError(f"member {k} is not {n}x{n}")
        if psd and not a.is_psd():
            raise ValueError(f"member {k} is not positive semidefinite")


def _lift(mats):
    """(L, [(re, im), ...]): the matrices' cached Z[i] rows over their lcm denominator L; read only."""
    cleared = [a._cleared for a in mats]
    den = lcm(*(d for _, _, d in cleared))
    lifted = []
    for re, im, d in cleared:
        if d != den:
            f = den // d
            re = tuple(tuple(f * x for x in row) for row in re)
            im = tuple(tuple(f * x for x in row) for row in im)
        lifted.append((re, im))
    return den, lifted


def is_m_positive(mat: HermitianMatrix, omega: HermitianMatrix, m: int) -> bool:
    """alpha^k wedge omega^(n-k) > 0 for all 1 <= k <= m, exactly.

    omega must be positive definite.  The relative elementary symmetric
    functions e_k(omega^-1 A) then carry the signs of the coefficients of
    det(omega + t A) = det(omega) * sum_k e_k(omega^-1 A) t^k, and so do
    the int coefficients of n! L^n det(omega + t A), the positive multiple
    _det_pencil interpolates from n + 1 Hermitian eliminations.  A
    non-real diagonal stops the pencil's elimination with
    InternalCheckError.
    """
    n = mat.n
    if omega.n != n:
        raise ValueError("dimension mismatch")
    if not 1 <= m <= n:
        raise ValueError("m must satisfy 1 <= m <= n")
    if omega._elimination()[:3] != (n, 0, 0):
        raise NotPositiveDefiniteError("matrix is not positive definite")
    return all(c > 0 for c in _det_pencil(*_lift((omega, mat))[1])[1:m + 1])


def hermitian_signature(gram):
    """Exact inertia (n_plus, n_minus, n_zero) of a Hermitian matrix; ValueError if it is not one."""
    return HermitianFormOnSpace(gram).signature()


class HermitianFormOnSpace(HermitianMatrix):
    """A Hermitian form on C^dim given by its Gram matrix in a fixed basis."""

    __slots__ = ()
    dim, gram = HermitianMatrix.n, HermitianMatrix.rows  # aliases of n and the rows view

    def signature(self):
        return self._elimination()[:3]
