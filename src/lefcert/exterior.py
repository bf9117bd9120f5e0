"""Constant-coefficient (p,q)-forms on C^n and their wedge algebra.

Basis convention: dz_{i1} ^ ... ^ dz_{ip} ^ dzbar_{j1} ^ ... ^ dzbar_{jq}
with both index tuples strictly increasing (1-based), bases ordered
lexicographically by (I, J).  Every sign in the library reduces to
inversion counting against this single convention.

The canonical positive volume element is
vol = (i dz_1 ^ dzbar_1) ^ ... ^ (i dz_n ^ dzbar_n), so positivity of an
(n,n)-form is the sign of one rational number.

A PQForm holds Gaussian-integer terms {(I, J): (re, im)} over one positive
denominator, reduced, so equal forms hold equal terms.  Its constructor is
the one place that clears Q(i) coefficients; coeffs is a read-only Q(i)
view built on first read.  Sums, scalings, conjugates and wedges run on
the terms in Python ints.

Which basis indices of two bidegrees meet, where each pair lands and with
which sign depend only on n and the bidegrees, never on the forms.  They
are read from one cached table of rows per pair of bidegrees (_rows): the
row of a left index lists the disjoint right positions, each with the
position of the merged index and the sign, and is built on first read
from the combinations of that index's complement, with _merge_sign as the
one sign rule.  A wedge is one fold (_fold) over these rows, multiplying
and adding ints, reduced by one gcd at the end.  The fold starts from the
scalar 1, or from a given form.

The library's Omega = (i A_1) ^ ... ^ (i A_k) is real, and so is every
step of it: each i A is, and so is a product of real forms.  A real
(l,l)-form has c_{J,I} = (-1)^l conj(c_{I,J}).  So when every factor is a
HermitianMatrix and the start is the scalar 1 or a PQForm found real
term by term, each step (_fold_real) computes only the targets (I', J')
with pos(I') <= pos(J'), and writes the rest by that sign.  It reads
i A as dense Z[i] parts straight from the rows the matrix holds, and a
table per (n, l) kept on the (l,l) x (1,1) rows (_upper_rows) that
lists only the disjoint pairs with an upper target.  The terms stay at
basis positions until the last step.  So Omega never visits Q(i), and
no (1,1)-form is built in between.  Every other fold, with any PQForm
factor or a start that is not real, reads each factor as Z[i] terms at
basis positions (_positioned) and runs the pair loop (_wedge_rows) over
both halves; the check that omega annihilates a vector (_annihilates)
runs the same loop.

The operator matrix of Phi -> omega ^ Phi is read from the same rows
(_operator_columns), each entry +c or -c for a term c of omega.  Its
Gaussian-integer form (_integer_operator_matrix) feeds the determinant
and kernel routes, wedge_operator_matrix is its Q(i) view, and, with
the signed complementary pairing Lambda^{n-q,n-p} x Lambda^{q,p} ->
Lambda^{n,n}, the Gram matrix of (Phi, Psi) -> vol(omega ^ Phi ^ conj(Psi))
as one product (M B)^T S conj(B).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from math import comb, gcd, lcm
from types import MappingProxyType

from .linalg import HermitianMatrix, InternalCheckError, _gaussian_integer_rows
from .rationals import GR, ONE, ZERO, GaussianRational, Rat, as_int

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


def _reduce(terms, den):
    """(terms, den) divided by the gcd of den and every part of the nonzero Z[i] terms."""
    g = gcd(den, *(c for pair in terms.values() for c in pair))
    if g > 1:
        den //= g
        terms = {k: (re // g, im // g) for k, (re, im) in terms.items()}
    return terms, den


class PQForm:
    """Sparse element of Lambda^{p,q}(C^n); absent keys are zero.

    terms maps (I, J) to den times its nonzero coefficient, (re, im) in Z[i]; den > 0 is reduced.
    """

    __slots__ = ("n", "p", "q", "terms", "den", "_coeffs")

    def __init__(self, n, p, q, coeffs=None):
        n, p, q = as_int(n, "n"), as_int(p, "p"), as_int(q, "q")
        if not (0 <= p <= n and 0 <= q <= n):
            raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
        clean = {}
        for (i, j), c in (coeffs or {}).items():
            i = _check_multi_index(i, n)
            j = _check_multi_index(j, n)
            if len(i) != p or len(j) != q:
                raise ValueError(f"index pair {(i, j)} has wrong degree for ({p},{q})")
            clean[(i, j)] = c
        # the lcm of reduced denominators shares no factor with every part
        (re,), (im,), den = _gaussian_integer_rows([list(clean.values())])
        self._set(n, p, q, {k: (a, b) for k, a, b in zip(clean, re, im) if a or b}, den)

    def _set(self, n, p, q, terms, den):
        _set_n(self, n)
        _set_p(self, p)
        _set_q(self, q)
        _set_terms(self, terms)
        _set_den(self, den)
        _set_coeffs(self, None)
        return self

    @classmethod
    def _from_terms(cls, n, p, q, terms, den):
        """The form of reduced nonzero Z[i] terms over den, taken as they are."""
        return cls.__new__(cls)._set(n, p, q, terms, den)

    @classmethod
    def _from_vector(cls, n, p, q, vector, d):
        """The form with coefficient vector v / d: v (re, im) int lists, d != 0 in Z[i].

        Entries past the end of v are zero; the terms are v * conj(d) over |d|^2, reduced.
        """
        dr, di = d
        terms = {k: (a * dr + b * di, b * dr - a * di)
                 for k, a, b in zip(basis_indices(n, p, q), *vector) if a or b}
        return cls._from_terms(n, p, q, *_reduce(terms, dr * dr + di * di))

    def __setattr__(self, name, value):
        raise AttributeError("PQForm is immutable")

    @property
    def coeffs(self):
        """Read-only {(I, J): GaussianRational} of the nonzero coefficients."""
        if self._coeffs is None:
            den = self.den
            object.__setattr__(self, "_coeffs", MappingProxyType({
                k: GaussianRational(Rat(re, den), Rat(im, den))
                for k, (re, im) in self.terms.items()}))
        return self._coeffs

    @classmethod
    def zero(cls, n, p, q):
        return cls(n, p, q)

    @classmethod
    def scalar(cls, n, value):
        return cls(n, 0, 0, {((), ()): GR(value)})

    @classmethod
    def basis_element(cls, n, i, j, coeff=ONE):
        i, j = tuple(i), tuple(j)
        return cls(n, len(i), len(j), {(i, j): coeff})

    def is_zero(self):
        return not self.terms

    def coefficient(self, i, j):
        return self.coeffs.get((tuple(i), tuple(j)), ZERO)

    def __add__(self, other):
        self._compat(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {k: (a * re, a * im) for k, (re, im) in self.terms.items()}
        for k, (re, im) in other.terms.items():
            r0, i0 = out.get(k, (0, 0))
            re, im = r0 + b * re, i0 + b * im
            if re or im:
                out[k] = re, im
            else:
                del out[k]
        return PQForm._from_terms(self.n, self.p, self.q, *_reduce(out, den))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        """c * self, the wedge with the scalar form of c."""
        return _fold(self.n, (self,), PQForm.scalar(self.n, c))

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return isinstance(other, PQForm) and (
            (self.n, self.p, self.q, self.den, self.terms)
            == (other.n, other.p, other.q, other.den, other.terms))

    def __hash__(self):
        return hash((self.n, self.p, self.q, self.den, frozenset(self.terms.items())))

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
        return f"PQForm(n={self.n}, p={self.p}, q={self.q}, terms={len(self.terms)})"


# the slots' own setters, past the __setattr__ that refuses every write
_set_n, _set_p, _set_q, _set_terms, _set_den, _set_coeffs = (
    PQForm.__dict__[name].__set__ for name in PQForm.__slots__)


def form_from_matrix(a: HermitianMatrix) -> PQForm:
    """The real (1,1)-form i * sum a_jk dz_j ^ dzbar_k of a Hermitian matrix, read from its rows."""
    return _fold(a.n, (a,))


@lru_cache(maxsize=None)
def _index_positions(n, k):
    """(tuples, {tuple: position}): the increasing k-tuples of 1..n, ordered lexicographically."""
    tuples = tuple(combinations(range(1, n + 1), k))
    return tuples, {i: a for a, i in enumerate(tuples)}


class _Rows(dict):
    """{(I, J): row} for the wedge Lambda^{p1,q1} x Lambda^{p2,q2} on C^n; rows built on first read.

    The row of a left index (I, J) maps the position s of each right index
    (I2, J2) disjoint from it, in the basis of Lambda^{p2,q2} and in that
    order, to the position t of the merged (I + I2, J + J2) in the basis
    of Lambda^{p1+p2,q1+q2}, stored as t for the sign +1 and as ~t = -1 - t
    for -1.  The sign is the two merge signs times (-1)^(p2 q1), for moving
    dzbar_J past dz_{I2}.  A row is built from the combinations of the
    complements of I and J only.  A (l,l) x (1,1) table also keeps the
    upper-triangle table that _upper_rows derives from it.
    """

    __slots__ = ("n", "p2", "q2", "block", "right", "target", "upper")

    def __init__(self, n, p1, q1, p2, q2):
        super().__init__()
        self.n, self.p2, self.q2 = n, p2, q2
        self.upper = None
        self.block = -1 if (p2 * q1) % 2 else 1
        # (index tuples and positions of I, of J, number of J) of each basis
        self.right = _index_positions(n, p2), _index_positions(n, q2), comb(n, q2)
        self.target = (_index_positions(n, p1 + p2), _index_positions(n, q1 + q2),
                       comb(n, q1 + q2))

    def _merges(self, a, k):
        """(b, sign, merged) for each increasing k-tuple b of 1..n disjoint from a, in order."""
        rest = [x for x in range(1, self.n + 1) if x not in a]
        return [(b, *_merge_sign(a, b)) for b in combinations(rest, k)]

    def __missing__(self, key):
        i, j = key
        (_, pi), (_, pj), width = self.right
        (_, ti), (_, tj), twidth = self.target
        js = [(pj[j2], tj[mj], sj * self.block) for j2, sj, mj in self._merges(j, self.q2)]
        row = self[key] = {}
        for i2, si, mi in self._merges(i, self.p2):
            s, t = pi[i2] * width, ti[mi] * twidth
            for s2, t2, sign in js:
                row[s + s2] = t + t2 if si * sign > 0 else ~(t + t2)
        return row


# One table per (n, left bidegree, right bidegree), each with at most one row
# per left index; the bound caps how many tables stay cached.
@lru_cache(maxsize=1024)
def _rows(n, p1, q1, p2, q2):
    return _Rows(n, p1, q1, p2, q2)


def _wedge_rows(rows, a, b):
    """a ^ b over Z[i]: a {(I, J): (re, im)} on the left of rows, b [(s, re, im)] on its right.

    Pairs are visited in the order of a and then of b, and each merged
    index is placed where it is first reached; the loop multiplies and
    adds Python ints only.  Zero sums are dropped.
    """
    out = {}
    for key, (r1, m1) in a.items():
        row = rows[key]
        for s, r2, m2 in b:
            t = row.get(s)
            if t is None:
                continue
            re = r1 * r2 - m1 * m2
            im = r1 * m2 + m1 * r2
            if t < 0:
                t, re, im = ~t, -re, -im
            acc = out.get(t)
            if acc is None:
                out[t] = [re, im]
            else:
                acc[0] += re
                acc[1] += im
    (ti, _), (tj, _), width = rows.target
    return {(ti[t // width], tj[t % width]): (re, im) for t, (re, im) in out.items() if re or im}


def wedge(phi: PQForm, psi: PQForm) -> PQForm:
    """Exact wedge product; degrees beyond n give the zero form (clamped degree)."""
    return wedge_many((phi, psi))


def wedge_many(forms, n=None) -> PQForm:
    """Left fold of wedge; the empty product is the scalar 1 in Lambda^{0,0}.

    n, when given, is read through as_int, must be nonnegative and is the
    ambient dimension every form must live on; None takes it from the forms.
    """
    forms = list(forms)
    if n is None:
        if not forms:
            raise ValueError("ambient dimension required for an empty product")
        n = forms[0].n
    elif as_int(n, "n") < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _fold(n, forms)


def _positioned(f):
    """(p, q, den, terms): a fold factor's bidegree, denominator and (s, re, im) terms.

    Each term sits at the position s of its index in the basis of
    Lambda^{p,q}.  A HermitianMatrix A is read as the (1,1)-form i A by
    _matrix_vector.  The terms are yielded lazily.
    """
    if isinstance(f, HermitianMatrix):
        (re, im), den = _matrix_vector(f)
        return 1, 1, den, ((s, x, y) for s, (x, y) in enumerate(zip(re, im)) if x or y)
    (_, pi), (_, pj) = _index_positions(f.n, f.p), _index_positions(f.n, f.q)
    width = comb(f.n, f.q)
    return f.p, f.q, f.den, ((pi[i] * width + pj[j], re, im)
                             for (i, j), (re, im) in f.terms.items())


def _upper_rows(n, l):
    """(table, mirror, size) for the wedge of a real (l,l)-form with i A on C^n, 0 < l < n.

    Read from _rows(n, l, l, 1, 1) and kept on it.  table[u], for the
    source position u in the basis of Lambda^{l,l}, is (plus, minus): the
    (s, t) pairs of the row of u, s a position of Lambda^{1,1} and t one
    of Lambda^{l+1,l+1}, whose target (I', J') has pos(I') <= pos(J'),
    split by sign.  mirror lists (t, t') for pos(I') < pos(J'), t' the
    position of (J', I'); size is the number of target positions.
    """
    rows = _rows(n, l, l, 1, 1)
    if rows.upper is None:
        width = comb(n, l + 1)
        table = []
        for key in basis_indices(n, l, l):
            plus, minus = [], []
            for s, t in rows[key].items():
                if t < 0:
                    if ~t // width <= ~t % width:
                        minus.append((s, ~t))
                elif t // width <= t % width:
                    plus.append((s, t))
            table.append((plus, minus))
        mirror = [(a * width + b, b * width + a) for a in range(width) for b in range(a + 1, width)]
        rows.upper = table, mirror, width * width
    return rows.upper


def _is_real(omega):
    """Whether the PQForm omega is real: (l,l) with c_{J,I} = (-1)^l conj(c_{I,J}) for every term."""
    if omega.p != omega.q:
        return False
    terms = omega.terms
    sign = -1 if omega.p % 2 else 1
    return all(terms.get((j, i)) == (sign * re, -sign * im) for (i, j), (re, im) in terms.items())


def _fold_real(n, mats, l, src, den):
    """Omega ^ i A_1 ^ ... ^ i A_k over Z[i] for a real (l,l)-form Omega and Hermitian A_m.

    src lists Omega's nonzero terms as (u, re, im), u the position in the
    basis of Lambda^{l,l}, over den.  Each A enters as the dense
    coefficient vector of i A from _matrix_vector.  A product of real
    forms is real, so a step to (l', l') = (l + 1, l + 1) computes only
    the targets (I', J') with pos(I') <= pos(J'), from _upper_rows, and
    writes each (J', I') below them as c_{J',I'} = (-1)^l' conj(c_{I',J'}).
    From a scalar c the step is c i A, read from the vector directly.
    Terms stay at positions until the one (I, J)-keyed dict at the end,
    in basis order.  A zero factor or a degree beyond n ends the products
    before any is taken.
    """
    top = l + len(mats)
    if top > n:
        return PQForm._from_terms(n, n, n, {}, 1)
    rights = [_matrix_vector(a) for a in mats]
    if not all(any(rr) or any(mm) for (rr, mm), _ in rights):
        src = ()
    for (rr, mm), d in rights:
        if not src:
            break
        den *= d
        if not l:
            # a real scalar c has no imaginary part
            (_, c, _), = src
            src = [(s, c * x, c * y) for s, (x, y) in enumerate(zip(rr, mm)) if x or y]
            l = 1
            continue
        table, mirror, size = _upper_rows(n, l)
        re, im = [0] * size, [0] * size
        for u, r1, m1 in src:
            plus, minus = table[u]
            for s, t in plus:
                r2, m2 = rr[s], mm[s]
                re[t] += r1 * r2 - m1 * m2
                im[t] += r1 * m2 + m1 * r2
            for s, t in minus:
                r2, m2 = rr[s], mm[s]
                re[t] -= r1 * r2 - m1 * m2
                im[t] -= r1 * m2 + m1 * r2
        l += 1
        if l % 2:
            for t, t2 in mirror:
                re[t2], im[t2] = -re[t], im[t]
        else:
            for t, t2 in mirror:
                re[t2], im[t2] = re[t], -im[t]
        src = [(u, x, y) for u, (x, y) in enumerate(zip(re, im)) if x or y]
    if not src:
        return PQForm._from_terms(n, top, top, {}, 1)
    keys = basis_indices(n, l, l)
    return PQForm._from_terms(n, l, l, *_reduce({keys[u]: (x, y) for u, x, y in src}, den))


def _fold(n, factors, omega=None):
    """omega ^ f_1 ^ ... ^ f_k over Z[i], for PQForm and HermitianMatrix factors on C^n.

    The fold starts from the PQForm omega, or from the scalar 1.  When
    every factor is a HermitianMatrix and the start is real (the scalar
    1, or a PQForm that _is_real finds conjugate symmetric term by term),
    every step is a real (l,l)-form times i A, and _fold_real computes
    only the targets (I', J') with pos(I') <= pos(J'); the rest are
    c_{J',I'} = (-1)^(l+1) conj(c_{I',J'}).  A fold with a PQForm factor,
    or from a start that is not real, reads every factor through
    _positioned, a matrix A as i A, and each step is one _wedge_rows over
    both halves.  Terms are multiplied in ints over the product of the
    denominators, which is reduced by one gcd at the end.  A degree
    beyond n gives the zero form of the clamped bidegree; every factor's
    ambient dimension is still checked.
    """
    factors = tuple(factors)
    for f in factors:
        if f.n != n:
            raise ValueError("forms live on different ambient spaces")
    if all(isinstance(f, HermitianMatrix) for f in factors) and (
            omega is None or _is_real(omega)):
        l, _, den, src = (0, 0, 1, [(0, 1, 0)]) if omega is None else _positioned(omega)
        return _fold_real(n, factors, l, list(src), den)
    p, q, terms, den = (0, 0, {((), ()): (1, 0)}, 1) if omega is None else (
        omega.p, omega.q, omega.terms, omega.den)
    for f in factors:
        fp, fq, d, right = _positioned(f)
        if p + fp > n or q + fq > n:
            p, q, terms = min(p + fp, n), min(q + fq, n), {}
            continue
        if terms:
            terms = _wedge_rows(_rows(n, p, q, fp, fq), terms, list(right))
            den *= d
        p, q = p + fp, q + fq
    return PQForm._from_terms(n, p, q, *_reduce(terms, den))


def _annihilates(omega, p, q, vector):
    """Whether omega ^ phi = 0, for a PQForm omega and phi in Lambda^{p,q}.

    vector is phi's coefficient vector, or any nonzero multiple of it, as
    an (re, im) pair of int lists; entries past its end are zero.
    """
    phi = [(s, a, b) for s, (a, b) in enumerate(zip(*vector)) if a or b]
    return not _wedge_rows(_rows(omega.n, omega.p, omega.q, p, q), omega.terms, phi)


def _matrix_vector(a):
    """((re, im), L): the coefficient vector of the (1,1)-form i A, times L.

    It is read from the cached rows L A: entry x + i y at (j, k) is the
    coefficient (-y, x) at the position j n + k.
    """
    re, im, den = a._cleared
    return ([-y for ys in im for y in ys], [x for xs in re for x in xs]), den


@lru_cache(maxsize=None)
def _volume_unit(n):
    """(re, im): the inverse of vol's coefficient on dz_[n] ^ dzbar_[n], a unit of Z[i]."""
    full = tuple(range(1, n + 1))
    vol = _fold(n, (PQForm._from_terms(n, 1, 1, {((k,), (k,)): (0, 1)}, 1) for k in full))
    if list(vol.terms) != [(full, full)]:
        raise InternalCheckError("volume element is not a single basis term")
    (re, im), = vol.terms.values()
    if vol.den != 1 or re * re + im * im != 1:
        raise InternalCheckError("volume coefficient is not a unit of Z[i]")
    return re, -im


def volume_scalar(phi: PQForm) -> GaussianRational:
    """The scalar lambda with phi = lambda * vol, for an (n,n)-form."""
    n = phi.n
    if phi.p != n or phi.q != n:
        raise ValueError(f"volume_scalar needs an (n,n)-form, got ({phi.p},{phi.q})")
    full = tuple(range(1, n + 1))
    if any(k != (full, full) for k in phi.terms):
        raise InternalCheckError("(n,n)-form carries a non-top basis term")
    re, im = phi.terms.get((full, full), (0, 0))
    ur, ui = _volume_unit(n)
    return GaussianRational(Rat(re * ur - im * ui, phi.den), Rat(re * ui + im * ur, phi.den))


def conjugate_form(phi: PQForm) -> PQForm:
    """Complex conjugation, swapping bidegree (p,q) -> (q,p).

    conj(dz_I ^ dzbar_J) = dzbar_I ^ dz_J; reordering the q-block of
    unbarred factors past the p-block of barred ones costs p*q adjacent
    transpositions, hence the sign below.
    """
    sign = -1 if (phi.p * phi.q) % 2 else 1
    return PQForm._from_terms(phi.n, phi.q, phi.p, {
        (j, i): (sign * re, -sign * im) for (i, j), (re, im) in phi.terms.items()}, phi.den)


def _operator_columns(omega, p: int, q: int):
    """Sparse columns of L times Phi -> omega ^ Phi from Lambda^{p,q}, read from the wedge rows.

    omega is a PQForm over the denominator L.  Returns (nrows,
    columns): columns[col] lists (row, re, im), in the order of omega's
    terms, for each term (re, im) of omega whose indices (I', J') are
    disjoint from the source index (I, J); it lands at the row of the
    merged (I' + I, J' + J) with the merge sign.  No coefficient is
    multiplied.  If the target degree overflows n the map is zero and
    nrows is 0.
    """
    n = omega.n
    columns = [[] for _ in range(comb(n, p) * comb(n, q))]
    tp, tq = p + omega.p, q + omega.q
    if tp > n or tq > n:
        return 0, columns
    rows = _rows(n, omega.p, omega.q, p, q)
    for key, (re, im) in omega.terms.items():
        for col, t in rows[key].items():
            columns[col].append((t, re, im) if t >= 0 else (~t, -re, -im))
    return comb(n, tp) * comb(n, tq), columns


def _integer_operator_matrix(omega, p: int, q: int):
    """(re, im, L): dense int rows of L times the matrix of Phi -> omega ^ Phi, omega over L."""
    nrows, columns = _operator_columns(omega, p, q)
    re = [[0] * len(columns) for _ in range(nrows)]
    im = [[0] * len(columns) for _ in range(nrows)]
    for col, entries in enumerate(columns):
        for row, a, b in entries:
            re[row][col] = a
            im[row][col] = b
    return re, im, omega.den


@lru_cache(maxsize=None)
def _complementary_pairing(n, p, q):
    """The signed pairing Lambda^{n-q,n-p} x Lambda^{q,p} -> Lambda^{n,n}, read through conj.

    Returns (partners, unit).  For the t-th basis index (I, J) of
    Lambda^{n-q,n-p}, partners[t] = (s, sign) with s the position of
    (J^c, I^c) in Lambda^{p,q}, so that for Psi in Lambda^{n-q,n-p} and
    Phi in Lambda^{p,q}
        vol(Psi ^ conj(Phi)) = unit * sum_t sign_t * Psi_t * conj(Phi_{s_t}).
    The sign is merge(I, I^c) * merge(J, J^c) times (-1)^((n-p)q) for
    moving dzbar_J past dz_{I^c} and (-1)^(pq) from conj; unit is
    _volume_unit(n).
    """
    full = range(1, n + 1)
    (_, pi), (_, pj), width = _index_positions(n, p), _index_positions(n, q), comb(n, q)
    block = -1 if ((n - p) * q + p * q) % 2 else 1
    partners = []
    for i, j in basis_indices(n, n - q, n - p):
        ic = tuple(k for k in full if k not in i)
        jc = tuple(k for k in full if k not in j)
        si, _ = _merge_sign(i, ic)
        sj, _ = _merge_sign(j, jc)
        partners.append((pi[jc] * width + pj[ic], si * sj * block))
    return tuple(partners), _volume_unit(n)


def _pairing_gram(omega, p: int, q: int, left, right):
    """L * vol(omega ^ Phi_a ^ conj(Psi_b)) over Z[i], for all a, b: (re, im, L).

    left and right hold Gaussian-integer coefficient vectors of
    Lambda^{p,q}, each an (re, im) pair of int lists, and omega must be a
    PQForm over L of bidegree (n-p-q, n-p-q).  This is (M Phi)^T S conj(Psi) for M the
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

    Returns (rows, ncols), the Q(i) view of _integer_operator_matrix with
    one GaussianRational per distinct entry.  If the target degree
    overflows n the map is zero and the row list is empty.  Column (I, J)
    holds +c or -c for each term c dz_I' ^ dzbar_J' of omega whose indices
    are disjoint from it, at the row of the merged (I' + I, J' + J).
    """
    re, im, den = _integer_operator_matrix(omega, p, q)
    value = {(x, y): GaussianRational(Rat(x, den), Rat(y, den))
             for x, y in set(chain(*map(zip, re, im)))}
    return ([list(map(value.__getitem__, zip(xs, ys))) for xs, ys in zip(re, im)],
            comb(omega.n, p) * comb(omega.n, q))


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
