from fractions import Fraction
from math import factorial, gcd

import pytest

import lefcert.linalg as linalg_mod
from lefcert.linalg import (
    _P,
    _S,
    HermitianFormOnSpace,
    HermitianMatrix,
    InternalCheckError,
    NotPositiveDefiniteError,
    _copy_rows,
    _det,
    _det_pencil,
    _det_residue,
    _eliminate,
    _exact_vector,
    _first_kernel_vector,
    _gaussian_integer_rows,
    _inertia,
    _kernel,
    _lift,
    hermitian_signature,
    is_m_positive,
    kernel_basis,
    mat_det,
    mat_rank,
)
from lefcert.generate import SplitMix64
from lefcert.rationals import GR, I, ONE, ZERO, GaussianRational, as_rat

from conftest import non_real_diagonal, random_hermitian, random_psd_family, singular_pivot_rows


def mat_mul(a, b):
    """The Q(i) product of two matrices, one GaussianRational sum per entry: an oracle."""
    m = len(b[0]) if b else 0
    return [[sum((x * b[t][j] for t, x in enumerate(row) if x), ZERO) for j in range(m)]
            for row in a]

D = HermitianMatrix.diagonal
Id = HermitianMatrix.identity


def gr_rows(entries):
    return [[x if hasattr(x, "re") else GR(x) for x in row] for row in entries]


# ---- Q(i) elimination oracles: one GaussianRational object per scalar step ----

def oracle_rank(rows):
    """Rank by fraction-free elimination over Q(i) objects."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    prev = ONE
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        for i in range(r + 1, nrows):
            mic = m[i][col]
            for j in range(col + 1, ncols):
                m[i][j] = (p * m[i][j] - mic * m[r][j]) / prev
            m[i][col] = ZERO
        prev = p
        r += 1
    return r


def oracle_det(rows):
    """Determinant by fraction-free elimination over Q(i) objects."""
    n = len(rows)
    if n == 0:
        return ONE
    m = [list(r) for r in rows]
    prev = ONE
    sign = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return ZERO
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (p * m[i][j] - mik * m[k][j]) / prev
        prev = p
    d = m[n - 1][n - 1]
    return d if sign > 0 else -d


def oracle_rref(m, ncols):
    """In-place reduced row echelon form over Q(i) objects; returns pivot columns."""
    nrows = len(m)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        m[r] = [x / p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return pivots


def oracle_kernel(rows, ncols):
    """Kernel basis read off the oracle RREF, one vector per free column."""
    m = [list(r) for r in rows]
    pivots = oracle_rref(m, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][free]
        basis.append(v)
    return basis


def oracle_jordan_kernel(re, im, ncols):
    """(vectors, d) from the fraction-free Gauss-Jordan form over Z[i], in place.

    Nakos, Turner and Williams 1997: rows above each pivot are reduced
    too, so every pivot ends equal to the last one, d, and the reduced
    row echelon form is the matrix over d.  Each vector is d times the
    exact kernel vector of one non-pivot column, in column order.
    """
    nrows = len(re)
    pivots = []
    dr, di = 1, 0
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if re[i][col] or im[i][col]), None)
        if piv is None:
            continue
        re[r], re[piv] = re[piv], re[r]
        im[r], im[piv] = im[piv], im[r]
        rr, ri = re[r], im[r]
        pr, pi = rr[col], ri[col]
        divisor = dr * dr + di * di if di else dr
        for i in range(nrows):
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
                assert not (rem_r or rem_i)
                xr_row[j] = qr
                xi_row[j] = qi
            xr_row[col] = xi_row[col] = 0
        dr, di = pr, pi
        pivots.append(col)
    vectors = []
    for free in range(ncols):
        if free in pivots:
            continue
        vr, vi = [0] * ncols, [0] * ncols
        vr[free], vi[free] = dr, di
        for r, pc in enumerate(pivots):
            vr[pc], vi[pc] = -re[r][free], -im[r][free]
        vectors.append((vr, vi))
    return vectors, (dr, di)


def oracle_char_poly(rows):
    """(e_1, ..., e_n) by the Faddeev-LeVerrier recursion over Q(i) objects."""
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


def real_char_poly(rows):
    """oracle_char_poly of a Hermitian matrix, checked real, as the rationals (e_1, ..., e_n)."""
    es = oracle_char_poly(rows)
    assert all(e.im == 0 for e in es)
    return [e.re for e in es]


def oracle_signature(gram):
    """Inertia by conjugate congruence over Q(i) objects, with 2x2 hyperbolic blocks."""
    n = len(gram)
    g = [list(r) for r in gram]
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
            assert not dk.im
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
        pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if g[i][j]), None)
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
        for r in range(k + 2, n):
            bk, bk1 = g[r][k], g[r][k + 1]
            if bk or bk1:
                for s in range(k + 2, n):
                    g[r][s] = g[r][s] - bk1 * g[k][s] / c - bk * g[k + 1][s] / cbar
                g[r][k] = ZERO
                g[r][k + 1] = ZERO
        k += 2
    return (npos, nneg, nzero)


def oracle_ldl_positive(rows):
    """LDL* over Q(i) objects of a positive definite matrix: (L, d).

    Row k is left in place after its step: the Schur update of every
    later (i, j) still reads a[k][j].
    """
    n = len(rows)
    a = [list(r) for r in rows]
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
    return lmat, d


def oracle_forward_solve(lmat, b):
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


def oracle_is_m_positive(mat, omega, m):
    """Relative m-positivity in omega-adapted coordinates: e_k(D^-1 L^-1 A L^-*) > 0."""
    n = mat.n
    lmat, d = oracle_ldl_positive(omega.rows)
    x = oracle_forward_solve(lmat, [list(r) for r in mat.rows])
    xstar = [[x[j][i].conjugate() for j in range(n)] for i in range(n)]
    nstar = oracle_forward_solve(lmat, xstar)
    nmat = [[nstar[j][i].conjugate() for j in range(n)] for i in range(n)]
    b = [[nmat[i][j] / GR(d[i]) for j in range(n)] for i in range(n)]
    es = oracle_char_poly(b)
    assert not any(e.im for e in es[:m])
    return all(e.re > 0 for e in es[:m])


# ---- construction ----

def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        HermitianMatrix([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        HermitianMatrix([[GR(0, 1), 0], [0, 0]])  # imaginary diagonal


def test_a_json_record_entry_is_a_type_error():
    # only serialize.matrix_from_json reads {"re", "im"} records
    for record in ({"re": 0, "im": 1}, {"re": True}):
        with pytest.raises(TypeError):
            HermitianMatrix([[record]])


def oracle_hermitian_failure(rows):
    """The first (j, k), j <= k, with rows[j][k] != conj(rows[k][j]); None if Hermitian."""
    n = len(rows)
    return next(((j, k) for j in range(n) for k in range(j, n)
                 if rows[j][k] != rows[k][j].conjugate()), None)


def near_hermitian(rng, n):
    """A seeded Hermitian matrix over mixed denominators, then zero to two entries nudged.

    A nudge moves the real or imaginary part of one entry by a fraction with
    its own denominator, or conjugates an off-diagonal entry, so that the
    cleared matrix differs from a Hermitian one at that entry only.
    """
    def part():
        return Fraction(rng.integer(-4, 4), rng.integer(1, 7))

    rows = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        rows[a][a] = GR(part())
        for b in range(a + 1, n):
            c = GR(part(), part()) if rng.integer(0, 3) else ZERO
            rows[a][b], rows[b][a] = c, c.conjugate()
    for _ in range(rng.integer(0, 2)):
        a, b = rng.integer(0, n - 1), rng.integer(0, n - 1)
        x = rows[a][b]
        kind = rng.integer(0, 2)
        if kind == 0:
            rows[a][b] = GR(x.re + Fraction(rng.integer(1, 3), rng.integer(2, 9)), x.im)
        elif kind == 1:
            rows[a][b] = GR(x.re, x.im - Fraction(rng.integer(1, 3), rng.integer(2, 9)))
        else:
            rows[a][b] = x.conjugate()
    return rows


def test_integer_hermitian_check_agrees_with_the_qi_check(monkeypatch):
    rng = SplitMix64(0x4E7)
    cases = [near_hermitian(rng, rng.integer(1, 5)) for _ in range(400)]
    expected = [oracle_hermitian_failure(rows) for rows in cases]

    def forbidden(*args):
        raise AssertionError("the Hermitian check left the cleared ints")

    monkeypatch.setattr(GaussianRational, "conjugate", forbidden)
    seen = set()
    for rows, failure in zip(cases, expected):
        if failure is None:
            assert HermitianMatrix(rows).rows == tuple(map(tuple, rows))
        else:
            message = rf"^not Hermitian at \({failure[0]},{failure[1]}\)$"
            with pytest.raises(ValueError, match=message):
                HermitianMatrix(rows)
        seen.add(None if failure is None else failure[0] == failure[1])
    # Hermitian matrices, and failures both on and off the diagonal
    assert seen == {None, True, False}


def _built_or_refused(build):
    try:
        m = build()
    except ValueError as exc:
        return str(exc)
    return m.rows, m._cleared


def test_matrix_from_integer_rows_matches_the_cleared_constructor():
    rng = SplitMix64(0x1F7)
    cases = [near_hermitian(rng, rng.integer(1, 5)) for _ in range(200)]
    cases += [[], [[ZERO]], [[ZERO] * 3 for _ in range(3)], gr_rows([[2, 4], [4, 6]])]
    seen = set()
    for i, rows in enumerate(cases):
        re, im, den = _gaussian_integer_rows(rows)
        k = 1 + i % 5  # a common content factor for the divisor to remove
        lifted = ([[k * x for x in row] for row in re], [[k * y for y in row] for row in im], k * den)
        expected = _built_or_refused(lambda: HermitianMatrix(rows))
        assert _built_or_refused(lambda: HermitianMatrix._from_integer_rows(*lifted)) == expected
        form = _built_or_refused(lambda: HermitianFormOnSpace._from_integer_rows(*lifted))
        assert form == expected
        seen.add((isinstance(expected, str), k > 1, den > 1))
    # refusals and matrices, with and without content, over mixed denominators
    assert seen >= {(False, True, True), (True, True, True), (False, False, True),
                    (True, False, True), (False, True, False)}


def _q_view(mat):
    """The GaussianRational rows of a matrix, read from its cleared ints by Fraction(x, den)."""
    re, im, den = mat._cleared
    return tuple(tuple(GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(xs, ys))
                 for xs, ys in zip(re, im))


def _random_generator(rng, n, r):
    """A seeded n x r matrix over denominators 1, 2, 3 and 6, with a zero column now and then."""
    dens = (1, 2, 3, 6)

    def part():
        return Fraction(rng.integer(-3, 3), dens[rng.integer(0, 3)])

    zero = rng.integer(-1, r - 1) if r else -1
    return [[ZERO if t == zero else GaussianRational(part(), part()) for t in range(r)]
            for _ in range(n)]


def test_matrix_values_are_equal_exactly_when_their_cleared_rows_are():
    rng = SplitMix64(0xA11CE)
    shapes = [(0, 0), (1, 0), (3, 0)] + [(rng.integer(1, 4), rng.integer(1, 4)) for _ in range(60)]
    for n, r in shapes:
        b = _random_generator(rng, n, r)
        # B B^H multiplied out in Q(i), as the oracle
        bh = [[x.conjugate() for x in col] for col in zip(*b)]
        expected = HermitianMatrix(mat_mul(b, bh)) if b and b[0] else HermitianMatrix.zero(n)
        other = HermitianMatrix([[GR(rng.integer(-2, 2)) if j == k else ZERO for k in range(n)]
                                 for j in range(n)])
        rest = HermitianMatrix([[x - y for x, y in zip(xs, ys)]
                                for xs, ys in zip(expected.rows, other.rows)])
        re, im, den = expected._cleared
        assert den > 0 and gcd(den, *(x for xs in re + im for x in xs)) == 1
        built = [HermitianMatrix.from_generator(b), HermitianMatrix(expected.rows),
                 HermitianFormOnSpace(expected.rows), other + rest, rest + other]
        for k in range(1, 6):
            built.append(HermitianMatrix._from_integer_rows(
                [[k * x for x in xs] for xs in re], [[k * y for y in ys] for ys in im], k * den))
        for m in built:
            assert m == expected and hash(m) == hash(expected) and m._cleared == expected._cleared
            assert m.rows == _q_view(m) == expected.rows and m.n == n
        if expected.rank():
            assert expected.scale(2) != expected
    for ragged in ([[1], [1, 5]], [[1, 5], [1]]):
        with pytest.raises(ValueError, match="matrix rows must have equal length"):
            HermitianMatrix.from_generator(ragged)


def test_matrix_rows_are_a_read_only_view():
    rows = gr_rows([[2, GR(Fraction(1, 2), 1)], [GR(Fraction(1, 2), -1), Fraction(1, 3)]])
    form = HermitianFormOnSpace(rows)
    assert form._cleared == (((12, 3), (3, 2)), ((0, 6), (-6, 0)), 6)
    assert form.rows == tuple(map(tuple, rows)) == _q_view(form)
    assert form.gram is form.rows and form.rows is form.rows
    for name in ("rows", "gram", "_cleared"):
        with pytest.raises(AttributeError):
            setattr(form, name, form._cleared)
    assert HermitianMatrix(rows)._rows is None  # nothing is built until it is read


def test_hermitian_form_on_space_is_a_hermitian_matrix():
    assert "__init__" not in vars(HermitianFormOnSpace)
    rows = gr_rows([[2, 1], [1, 3]])
    form = HermitianFormOnSpace(rows)
    assert isinstance(form, HermitianMatrix) and form == HermitianMatrix(rows)
    assert (form.dim, form.gram) == (2, form.rows)
    with pytest.raises(AttributeError):
        form.dim = 3


def _counting_gaussian_rationals(monkeypatch):
    """A list that grows by one for every GaussianRational built from now on."""
    built = []
    init = GaussianRational.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(GaussianRational, "__init__", counting)
    return built


@pytest.mark.parametrize("call, message", [
    (lambda: mat_det([[1, 2, 3], [3, 4, 5]]), "matrix must be square"),
    (lambda: mat_det([[1, 2], [3, 4], [5, 6]]), "matrix must be square"),
    (lambda: mat_det([[1, 2], [3]]), "matrix must be square"),
    (lambda: kernel_basis([[1, 2, 3]], 2), "matrix rows must have ncols = 2 entries"),
    (lambda: kernel_basis([[1, 2], [3]]), "matrix rows must have equal length"),
    (lambda: mat_rank([[1], [2, 3]]), "matrix rows must have equal length"),
    (lambda: HermitianMatrix([[1, 0], [0]]), "matrix must be square"),
], ids=["det-wide", "det-tall", "det-ragged", "kernel-ncols", "kernel-ragged", "rank-ragged",
        "hermitian-ragged"])
def test_badly_shaped_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_hermitian_signature_refuses_non_hermitian_input():
    # the upper triangle alone read (1, 1, 0) here, and its transpose (2, 0, 0)
    for rows in (gr_rows([[1, 2], [0, 1]]), gr_rows([[1, 0], [2, 1]]), gr_rows([[1, 2]]), [[I]]):
        with pytest.raises(ValueError, match="^(not Hermitian at|matrix must be square)"):
            hermitian_signature(rows)


def test_float_rejected():
    with pytest.raises(TypeError):
        HermitianMatrix([[0.5]])


# ---- rank ----

def test_rank_examples():
    assert D([1, 1, 0]).rank() == 2
    assert HermitianMatrix.zero(3).rank() == 0
    m = HermitianMatrix([[1, GR(0, 1)], [GR(0, -1), 1]])
    assert m.rank() == 1  # eigenvalues {2, 0}


def test_rank_plus_kernel_dimension():
    for seed in range(25):
        m = random_hermitian(seed, 3 + seed % 3)
        assert m.rank() == m.n - len(kernel_basis(m.rows))


# ---- PSD and m-positivity ----

def test_is_psd_examples():
    assert D([1, 1, 0]).is_psd()
    assert not HermitianMatrix([[1, 2], [2, 1]]).is_psd()
    assert HermitianMatrix([[1, GR(0, 1)], [GR(0, -1), 1]]).is_psd()


def test_psd_exact_m_positivity_structure():
    # for PSD M: e_j > 0 for j <= rank and e_j = 0 beyond
    for seed in range(30):
        (m,) = random_psd_family(seed, 4, 1)
        es = real_char_poly(m.rows)
        r = m.rank()
        assert all(es[j] > 0 for j in range(r))
        assert all(es[j] == 0 for j in range(r, m.n))


def test_generator_soundness():
    # B B* is PSD with rank(B B*) = rank(B)
    from conftest import random_hermitian as _rh
    from lefcert.generate import SplitMix64
    from lefcert.rationals import GaussianRational

    for seed in range(20):
        rng = SplitMix64(seed * 13 + 5)
        n, r = 2 + seed % 4, seed % 3 + 1
        b = [[GaussianRational(rng.integer(-2, 2), rng.integer(-2, 2)) for _ in range(r)]
             for _ in range(n)]
        m = HermitianMatrix.from_generator(b)
        assert m.is_psd()
        assert m.rank() == mat_rank(b)


def test_is_m_positive_examples():
    assert is_m_positive(D([1, 1, 0]), Id(3), 2)
    assert not is_m_positive(D([1, 1, 0]), Id(3), 3)
    assert is_m_positive(D([2, 0, 0]), D([1, 1, 2]), 1)
    # positive definite and not diagonal: det(omega + t A) = 74 - 62 t + 2 t^2 + 2 t^3
    omega = HermitianMatrix([[6, 6, 2], [6, 10, 5], [2, 5, 6]])
    assert not is_m_positive(D([-2, 1, -1]), omega, 1)
    assert is_m_positive(D([1, 1, 1]), omega, 3)


def test_is_m_positive_requires_pd_omega():
    with pytest.raises(NotPositiveDefiniteError):
        is_m_positive(Id(2), D([1, 0]), 1)


def test_m_positive_equals_rank_bound_for_psd():
    for seed in range(20):
        (m,) = random_psd_family(seed + 50, 4, 1)
        r = m.rank()
        for k in range(1, 5):
            assert is_m_positive(m, Id(4), k) == (r >= k)


def test_m_positive_general_omega_congruence():
    # relative positivity is invariant under scaling omega
    for seed in range(10):
        (m,) = random_psd_family(seed + 80, 3, 1)
        omega = Id(3) + D([1, 2, 3])
        for k in range(1, 4):
            assert is_m_positive(m, omega, k) == (m.rank() >= k)


def test_m_positivity_builds_no_gaussian_rational(monkeypatch):
    mats = random_psd_family(9, 4, 4) + [random_hermitian(seed + 40, 4) for seed in range(2)]
    omega = Id(4) + D([1, 2, 3, 4])
    built = _counting_gaussian_rationals(monkeypatch)
    verdicts = {is_m_positive(a, omega, m) for a in mats for m in range(1, 5)}
    assert verdicts == {True, False} and built == []


def test_a_non_real_diagonal_reaching_the_pencil_is_an_internal_error():
    # omega + t A is eliminated as a Hermitian matrix; rows that slipped past
    # the Hermitian check must stop it, not give a coefficient
    bad = non_real_diagonal()
    with pytest.raises(InternalCheckError, match="non-real diagonal"):
        is_m_positive(bad, Id(2), 1)


def _pencil_pairs():
    """Seeded (omega, A) pairs for n = 1..5: indefinite, rank-deficient and singular pencils."""
    for n in range(1, 6):
        omega = Id(n) + random_psd_family(n + 5000, n, 1)[0]
        yield omega, random_hermitian(n + 5100, n)  # indefinite
        yield random_hermitian(n + 5200, n).scale(Fraction(1, 2)), random_hermitian(n + 5300, n)
        (low,) = random_psd_family(n + 5400, n, 1, max_rank=max(n - 2, 0))
        yield omega, low.scale(Fraction(-2, 3))  # rank-deficient
        yield low, omega
    # zero diagonal with a nonzero row at a node: the congruence path, singular and not
    swap = HermitianMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    yield swap, D([0, 0, 1])  # singular at t = 0
    yield swap, D([0, 0, -1]).scale(Fraction(1, 3))
    yield D([1, 2, 3]), D([-1, -1, -1])  # singular at t = 1
    yield HermitianMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]]), D([-1, 0, 0])  # zero pivot at t = 1


def test_det_pencil_gives_the_exact_coefficients():
    congruence_singular = 0
    for omega, a in _pencil_pairs():
        n = omega.n
        den, lifted = _lift((omega, a))
        coeffs = _det_pencil(*lifted)
        assert len(coeffs) == n + 1 and all(type(c) is int for c in coeffs)
        for t in range(-2, n + 3):
            rows = [[x + GR(t) * y for x, y in zip(xs, ys)] for xs, ys in zip(omega.rows, a.rows)]
            d = mat_det(rows)
            assert d.im == 0
            assert sum(c * t ** k for k, c in enumerate(coeffs)) == factorial(n) * den ** n * d.re
            if 0 <= t <= n and d == ZERO and not rows[0][0] and any(rows[0][1:]):
                congruence_singular += 1
    assert congruence_singular >= 2


# ---- kernels ----

def test_empty_matrix_has_an_empty_kernel():
    empty = HermitianMatrix.zero(0)
    assert kernel_basis(empty.rows, empty.n) == [] and (empty.det(), empty.rank()) == (ONE, 0)


def test_kernel_examples():
    assert kernel_basis(gr_rows([[1, 0], [0, 1]])) == []
    assert len(kernel_basis(gr_rows([[0, 0], [0, 0]]))) == 2
    (v,) = kernel_basis(gr_rows([[1, 1], [1, 1]]))
    # proportional to (1, -1)
    assert v[0] * GR(-1) == v[1]


def test_kernel_of_zero_row_matrix():
    assert len(kernel_basis([], ncols=3)) == 3


def test_kernel_vectors_annihilate():
    for seed in range(10):
        m = random_hermitian(seed + 7, 4)
        for v in kernel_basis(m.rows):
            out = mat_mul([list(r) for r in m.rows], [[x] for x in v])
            assert all(not row[0] for row in out)


# ---- signatures ----

def test_signature_examples():
    assert hermitian_signature(Id(3).rows) == (3, 0, 0)
    assert hermitian_signature(D([1, -1, 0]).rows) == (1, 1, 1)


def test_signature_det_polarization_gram():
    # D(A,B) on Herm_2 in basis {E11, E22, E12+E21, i(E12-E21)} is Minkowski
    from lefcert.certify import hermitian_real_basis
    from lefcert.discriminant import mixed_discriminant

    basis = hermitian_real_basis(2)
    gram = [[GR(2 * mixed_discriminant([a, b])) for b in basis] for a in basis]
    assert hermitian_signature(gram) == (1, 3, 0)


def _descartes_signature(m):
    """Independent oracle: sign changes of the real characteristic polynomial."""
    es = real_char_poly(m.rows)
    n = m.n
    # p(t) = t^n - e1 t^{n-1} + ... + (-1)^n en; positive roots by Descartes
    coeffs = [as_rat(1)] + [(-1) ** k * es[k - 1] for k in range(1, n + 1)]
    zeros = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zeros += 1
    def variations(cs):
        signs = [1 if c > 0 else -1 for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    pos = variations(coeffs)
    neg = variations([c * (-1) ** i for i, c in enumerate(coeffs)])
    return (pos, neg, zeros)


def test_signature_against_descartes_oracle():
    for seed in range(40):
        m = random_hermitian(seed + 300, 2 + seed % 4)
        assert hermitian_signature(m.rows) == _descartes_signature(m)


def test_signature_hyperbolic_block():
    # zero diagonal, nonzero coupling: forced through the 2x2 hyperbolic step
    g = gr_rows([[0, 1], [1, 0]])
    assert hermitian_signature(g) == (1, 1, 0)
    g = [[ZERO, I], [-I, ZERO]]
    assert hermitian_signature(g) == (1, 1, 0)
    g4 = gr_rows([[0, 0, 1, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 2, 0, 0]])
    assert hermitian_signature(g4) == (2, 2, 0)


def test_signature_congruence_invariance():
    from lefcert.generate import SplitMix64
    from lefcert.rationals import GaussianRational

    for seed in range(15):
        n = 3
        m = random_hermitian(seed + 900, n)
        rng = SplitMix64(seed + 41)
        while True:
            t = [[GaussianRational(rng.integer(-2, 2), rng.integer(-2, 2))
                  for _ in range(n)] for _ in range(n)]
            if mat_det(t):
                break
        tstar = [[t[j][i].conjugate() for j in range(n)] for i in range(n)]
        g2 = mat_mul(mat_mul(tstar, [list(r) for r in m.rows]), t)
        assert hermitian_signature(g2) == hermitian_signature(m.rows)


# ---- the Z[i] kernel against the Q(i) oracles ----

_SCALE = GaussianRational(Fraction(1, 3), Fraction(1, 7))


def _random_matrix(rng, nrows, ncols, rank, scale=None):
    """Seeded complex nrows x ncols matrix of rank at most `rank`, as X Y."""
    def block(a, b):
        return [[GaussianRational(rng.integer(-3, 3), rng.integer(-3, 3)) for _ in range(b)]
                for _ in range(a)]

    if rank >= min(nrows, ncols):
        rows = block(nrows, ncols)
    else:
        rows = mat_mul(block(nrows, rank), block(rank, ncols)) if rank else \
            [[ZERO] * ncols for _ in range(nrows)]
    if scale is not None:
        rows = [[x * scale for x in row] for row in rows]
    return rows


def _oracle_cases():
    rng = SplitMix64(20221227)
    for seed in range(240):
        nrows, ncols = rng.integer(1, 6), rng.integer(1, 6)
        if seed % 3 == 0:
            ncols = nrows  # square
        rank = rng.integer(0, min(nrows, ncols))
        scale = None
        if seed % 4 == 1:
            scale = _SCALE
        elif seed % 4 == 2:  # a different denominator in every entry
            scale = GaussianRational(Fraction(1, rng.integer(1, 12)), Fraction(1, rng.integer(1, 12)))
        rows = _random_matrix(rng, nrows, ncols, rank, scale)
        if seed % 4 == 3:
            rows = [[x / GR(rng.integer(1, 9)) for x in row] for row in rows]
        if seed % 5 == 4:  # dependent columns between pivot columns
            for j in range(1, ncols):
                if rng.integer(0, 1):
                    c = GaussianRational(rng.integer(-2, 2), rng.integer(-2, 2))
                    for row in rows:
                        row[j] = c * row[j - 1] + row[0]
        yield rows
    yield [[ZERO] * 4 for _ in range(3)]  # zero, wide
    yield [[ZERO] * 2 for _ in range(5)]  # zero, tall
    yield [[ZERO]]
    yield gr_rows([[0, 0, 1], [0, 0, 2], [1, 0, 0]])  # a column with no pivot


def test_rank_matches_qi_oracle():
    for rows in _oracle_cases():
        assert mat_rank(rows) == oracle_rank(rows)


def test_det_matches_qi_oracle():
    for rows in _oracle_cases():
        n = min(len(rows), len(rows[0]))
        square = [row[:n] for row in rows[:n]]
        assert mat_det(square) == oracle_det(square)


def test_kernel_matches_qi_oracle_vector_for_vector():
    for rows in _oracle_cases():
        ncols = len(rows[0])
        assert kernel_basis(rows, ncols) == oracle_kernel(rows, ncols)
        assert kernel_basis(rows) == oracle_kernel(rows, ncols)


def _gaussian_integer_cases():
    """Seeded Z[i] (re, im, ncols): wide, tall and square, of every rank, some with zero columns."""
    rng = SplitMix64(8)
    for count in range(600):
        nrows, ncols = rng.integer(0, 7), rng.integer(0, 7)
        if count % 3 == 0:
            ncols = nrows
        rank = rng.integer(0, min(nrows, ncols))
        left = [[(rng.integer(-4, 4), rng.integer(-4, 4)) for _ in range(rank)] for _ in range(nrows)]
        right = [[(rng.integer(-4, 4), rng.integer(-4, 4)) for _ in range(ncols)] for _ in range(rank)]
        re = [[sum(a * c - b * e for (a, b), (c, e) in zip(row, col)) for col in zip(*right)]
              for row in left] if rank else [[0] * ncols for _ in range(nrows)]
        im = [[sum(a * e + b * c for (a, b), (c, e) in zip(row, col)) for col in zip(*right)]
              for row in left] if rank else [[0] * ncols for _ in range(nrows)]
        if count % 4 == 1 and ncols:
            zero = rng.integer(0, ncols - 1)
            for xs, ys in zip(re, im):
                xs[zero] = ys[zero] = 0
        yield re, im, ncols


def test_kernel_matches_jordan_oracle():
    kinds = set()
    for re, im, ncols in _gaussian_integer_cases():
        expected = oracle_jordan_kernel([r[:] for r in re], [r[:] for r in im], ncols)
        assert _kernel([r[:] for r in re], [r[:] for r in im], ncols) == expected
        nrows, rank = len(re), ncols - len(expected[0])
        kinds.add(((nrows > ncols) - (nrows < ncols), rank == min(nrows, ncols), rank == 0))
    # wide, square and tall, each at full rank, deficient rank and rank 0,
    # and empty (full rank 0)
    assert kinds == {(shape, full, zero) for shape in (-1, 0, 1) for full, zero in
                     ((True, False), (False, False), (False, True), (True, True))}
    assert _kernel([], [], 0) == oracle_jordan_kernel([], [], 0) == ([], (1, 0))
    assert _kernel([[], []], [[], []], 0) == ([], (1, 0))


def test_back_substitution_refuses_an_inexact_echelon(monkeypatch):
    # [[2, 1, 0], [1, 1, 1]] has Bareiss rows [2, 1, 0], [0, 1, 2]; the
    # kernel vector (1, -2, 1) needs 2 | (1 * -2 + 0 * 1), and a doctored
    # entry at (0, 2) breaks that
    eliminate = linalg_mod._eliminate
    assert _kernel([[2, 1, 0], [1, 1, 1]], [[0] * 3, [0] * 3], 3) == ([([1, -2, 1], [0] * 3)], (1, 0))

    def doctored(re, im, ncols):
        out = eliminate(re, im, ncols)
        re[0][2] += 1
        return out

    monkeypatch.setattr(linalg_mod, "_eliminate", doctored)
    with pytest.raises(InternalCheckError, match="not exact"):
        _kernel([[2, 1, 0], [1, 1, 1]], [[0] * 3, [0] * 3], 3)


def _is_prime(n):
    """Deterministic Miller-Rabin; the first 12 prime bases decide every n below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_residue_prime_and_square_root_of_minus_one():
    assert [n for n in range(60) if _is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not _is_prime(3215031751) and not _is_prime(2 ** 61 + 1)  # a strong pseudoprime
    assert _is_prime(_P) and _P < 2 ** 30  # every residue is one CPython digit
    assert _P % 4 == 1
    assert _S * _S % _P == _P - 1


def test_det_residue_is_the_exact_det_mod_p():
    zero_residues = 0
    for rows in _oracle_cases():
        n = min(len(rows), len(rows[0]))
        re, im, _ = _gaussian_integer_rows([row[:n] for row in rows[:n]])
        frozen = [r[:] for r in re], [r[:] for r in im]
        residue, col, rows = _det_residue(re, im)
        assert (re, im) == frozen  # the rows are left as they are
        _check_pivot_rows(re, im, col, rows)
        dr, di = _det(re, im)
        assert residue == (dr + _S * di) % _P
        assert (col is None) == (residue != 0)
        zero_residues += residue == 0
    assert zero_residues >= 20
    assert _det_residue([], []) == (1, None, [])
    # p divides the determinant: the residue is zero and decides nothing
    assert _det_residue([[_P, 0], [0, 1]], [[0, 0], [0, 0]]) == (0, 0, [])
    assert _det_residue([[1, 0], [0, 1]], [[_S, 0], [0, 0]]) == (0, 0, [])  # det = 1 + i s


def oracle_rank_mod_p(columns):
    """Rank over F_p of the given columns (lists of residues), by row echelon form."""
    rows = [list(r) for r in zip(*columns)]
    rank = 0
    for c in range(len(columns)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % _P), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, _P)
        for i in range(len(rows)):
            if i != rank and rows[i][c] % _P:
                f = rows[i][c] * inv % _P
                rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_pivot_rows(re, im, f, rows):
    """The residue's pivot rows are distinct, f of them (N when f is None), and of full rank mod p."""
    count = len(re) if f is None else f
    assert len(rows) == len(set(rows)) == count
    assert all(0 <= r < len(re) for r in rows)
    # the block of columns 0..f-1 on those rows, read mod p
    block = [[(re[r][j] + _S * im[r][j]) % _P for r in rows] for j in range(count)]
    assert oracle_rank_mod_p(block) == count


def _square_cases():
    """The leading square block of every seeded Z[i] case."""
    for re, im, ncols in _gaussian_integer_cases():
        k = min(len(re), ncols)
        yield [r[:k] for r in re[:k]], [r[:k] for r in im[:k]]


# column f is dependent mod p but not over Q: p divides the leading 2 x 2 minor
_UNLUCKY = ([[1, 1, 0], [1, 1 + _P, 0], [0, 0, 0]], [[0] * 3 for _ in range(3)])


def test_det_residue_stops_at_the_first_column_dependent_mod_p():
    stops = set()
    for re, im in _square_cases():
        columns = [[(a + _S * b) % _P for a, b in zip(xs, ys)] for xs, ys in zip(zip(*re), zip(*im))]
        expected = next((j for j in range(len(columns))
                         if oracle_rank_mod_p(columns[:j + 1]) <= j), None)
        residue, col, rows = _det_residue(re, im)
        assert col == expected
        assert (residue == 0) == (col is not None)
        _check_pivot_rows(re, im, col, rows)
        stops.add(col if col is None else min(col, 2))
    assert stops == {None, 0, 1, 2}
    assert _det_residue([[1, 1], [1, 1 + _P]], [[0, 0], [0, 0]]) == (0, 1, [0])
    assert _det_residue(*_UNLUCKY) == (0, 1, [0])


def _kernel_shapes(monkeypatch):
    """Record the (rows, columns) of every _kernel call."""
    shapes = []
    kernel = linalg_mod._kernel

    def counted(re, im, ncols):
        shapes.append((len(re), ncols))
        return kernel(re, im, ncols)

    monkeypatch.setattr(linalg_mod, "_kernel", counted)
    return shapes


def test_first_kernel_vector_is_the_first_jordan_kernel_vector(monkeypatch):
    shapes = _kernel_shapes(monkeypatch)
    truncated = 0
    for re, im in _square_cases():
        ncols = len(re)
        frozen = [r[:] for r in re], [r[:] for r in im]
        vectors, d = oracle_jordan_kernel([r[:] for r in re], [r[:] for r in im], ncols)
        shapes.clear()
        first = _first_kernel_vector(re, im)
        if not vectors:
            assert first is None
            continue
        vector, e = first
        f = _det_residue(*frozen)[1]
        assert len(vector[0]) == len(vector[1]) == f + 1  # solved up to column f only
        assert shapes == [(f, f + 1)]  # on the f pivot rows of the residue
        assert (re, im) == frozen  # no fallback ran on the rows
        exact = _exact_vector(vector, e)
        assert exact + [ZERO] * (ncols - f - 1) == _exact_vector(vectors[0], d)
        truncated += f + 1 < ncols
    assert truncated >= 200


def test_first_kernel_vector_falls_back_when_p_divides_a_minor(monkeypatch):
    shapes = _kernel_shapes(monkeypatch)
    re, im = _UNLUCKY
    expected = oracle_jordan_kernel([r[:] for r in re], [r[:] for r in im], 3)
    vector, d = _first_kernel_vector([r[:] for r in re], [r[:] for r in im])
    # the one pivot row accepts (-1, 1), which row 1 rejects: columns 0..1
    # have no kernel over Q, so the whole matrix follows
    rows, widths = zip(*shapes)
    assert list(widths) == [2, 3] and list(rows) == [1, 3]
    assert _exact_vector(vector, d) == _exact_vector(expected[0][0], expected[1]) == [ZERO, ZERO, ONE]
    shapes.clear()
    assert _first_kernel_vector([[1, 1], [1, 1 + _P]], [[0, 0], [0, 0]]) is None
    assert [w for _, w in shapes] == [2, 2]


def test_a_singular_pivot_row_set_is_an_internal_error(monkeypatch):
    cases = list(_square_cases())
    expected = [_first_kernel_vector(re, im) for re, im in cases]
    singular_pivot_rows(monkeypatch)
    raised = 0
    for (re, im), first in zip(cases, expected):
        f = _det_residue(re, im)[1]
        if f is not None and f >= 2:
            with pytest.raises(InternalCheckError, match="pivot rows are singular"):
                _first_kernel_vector(re, im)
            raised += 1
        else:
            assert _first_kernel_vector(re, im) == first
    assert raised >= 50


def test_empty_matrices_match_qi_oracle():
    assert mat_det([]) == oracle_det([]) == ONE
    assert mat_rank([]) == oracle_rank([]) == 0
    assert mat_rank([[], []]) == 0
    assert kernel_basis([], ncols=3) == oracle_kernel([], 3)
    assert kernel_basis([[], []], ncols=0) == []


def test_det_sign_from_row_swaps():
    # a permutation matrix of each parity, scaled by a non-integral Gaussian rational
    for perm, sign in (((1, 0, 2), -1), ((1, 2, 0), 1), ((2, 1, 0), -1)):
        rows = [[_SCALE if j == perm[i] else ZERO for j in range(3)] for i in range(3)]
        assert mat_det(rows) == _SCALE ** 3 * GR(sign) == oracle_det(rows)


def _psd_cases():
    rng = SplitMix64(424242)
    count = 0
    while count < 1200:
        n = rng.integer(1, 5)
        kind = count % 4
        if kind == 0:  # B B*, often rank-deficient
            b = _random_matrix(rng, n, rng.integer(1, n), rng.integer(0, n))
            m = HermitianMatrix.from_generator(b)
        elif kind == 1:  # B B* with zero rows, scaled by a positive rational
            b = _random_matrix(rng, n, n, rng.integer(0, n))
            for i in range(n):
                if rng.integer(0, 2) == 0:
                    b[i] = [ZERO] * n
            m = HermitianMatrix.from_generator(b).scale(Fraction(1, rng.integer(1, 6)))
        elif kind == 2:  # dense Hermitian with rational entries, usually indefinite
            m = random_hermitian(count, n).scale(Fraction(rng.integer(1, 5), rng.integer(1, 7)))
        else:  # a zero diagonal entry with a nonzero off-diagonal entry
            rows = [list(r) for r in random_hermitian(count, max(n, 2)).rows]
            k = rng.integer(0, len(rows) - 1)
            other = (k + 1) % len(rows)
            rows[k][k] = ZERO
            rows[k][other] = GaussianRational(1, rng.integer(-2, 2))
            rows[other][k] = rows[k][other].conjugate()
            m = HermitianMatrix(rows)
        yield m
        count += 1


def test_is_psd_matches_char_poly_oracle():
    seen = {True: 0, False: 0}
    for m in _psd_cases():
        expected = all(e >= 0 for e in real_char_poly(m.rows))
        assert m.is_psd() == expected
        seen[expected] += 1
    assert min(seen.values()) >= 200


def test_is_psd_zero_pivot_cases():
    assert not HermitianMatrix([[0, 1], [1, 0]]).is_psd()
    assert not HermitianMatrix([[1, 0, 0], [0, 0, I], [0, -I, 5]]).is_psd()
    assert HermitianMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]]).is_psd()  # zero Schur pivot
    assert not HermitianMatrix([[1, 1, 1], [1, 1, 0], [1, 0, 1]]).is_psd()
    assert HermitianMatrix.zero(3).is_psd() and HermitianMatrix.zero(0).is_psd()


def _hermitian(n, entry):
    """Hermitian rows from entry(i, j) on and above the diagonal, real on it."""
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = entry(i, j)
            rows[j][i] = rows[i][j].conjugate()
    return rows


_HYPERBOLIC = (
    gr_rows([[0, 1], [1, 0]]),
    [[ZERO, I], [-I, ZERO]],
    gr_rows([[0, 0, 1, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 2, 0, 0]]),
)


def _hermitian_cases():
    rng = SplitMix64(31415)

    def gauss(bound=3, real=False):
        return GaussianRational(rng.integer(-bound, bound), 0 if real else rng.integer(-bound, bound))

    for count in range(600):
        n = rng.integer(1, 6)
        kind = count % 5
        if kind == 0:  # dense and complex, usually indefinite
            rows = _hermitian(n, lambda i, j: gauss(real=i == j))
        elif kind == 1:  # a different denominator in every entry
            rows = _hermitian(n, lambda i, j: GaussianRational(
                Fraction(rng.integer(-3, 3), rng.integer(1, 9)),
                0 if i == j else Fraction(rng.integer(-3, 3), rng.integer(1, 9))))
        elif kind == 2:  # zero diagonal, sparse coupling: congruence steps and zero rows
            rows = _hermitian(n, lambda i, j: ZERO if i == j or rng.integer(0, 1) else gauss())
        elif kind == 3:  # B D B* with D a sign pattern: rank-deficient and indefinite
            b = _random_matrix(rng, n, n, rng.integer(0, n), scale=GR(Fraction(1, rng.integer(1, 5))))
            d = [GR(rng.integer(-1, 1)) for _ in range(n)]
            rows = mat_mul([[b[i][j] * d[j] for j in range(n)] for i in range(n)],
                           [[b[j][i].conjugate() for j in range(n)] for i in range(n)])
        else:  # sparse with some zero diagonal entries
            rows = _hermitian(n, lambda i, j: gauss(real=i == j) if rng.integer(0, 2) == 0 else ZERO)
        yield rows
    yield from _HYPERBOLIC
    yield [[ZERO] * 3 for _ in range(3)]


def test_signature_matches_qi_oracle():
    seen = set()
    for rows in _hermitian_cases():
        sig = oracle_signature(rows)
        assert hermitian_signature(rows) == sig
        assert HermitianMatrix(rows).is_psd() == (sig[1] == 0)
        seen.add(tuple(min(x, 1) for x in sig))
    assert seen == {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)} - {(0, 0, 0)}


def _hermitian_integer_cases():
    """Seeded Hermitian Z[i] rows up to 6x6, then the cleared rows of _hermitian_cases.

    Kinds in turn: dense; zero diagonal with sparse coupling, where every
    pivot starts at zero; sparse; and sums of +-v v* over r < n Gaussian
    integer vectors v, rank-deficient and indefinite.
    """
    rng = SplitMix64(0x1ED1A9)
    for count in range(3000):
        n = rng.integer(0, 6)
        kind = count % 4
        re, im = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
        if kind == 3:
            for _ in range(rng.integer(0, n - 1) if n else 0):
                sign = 1 - 2 * rng.integer(0, 1)
                v = [(rng.integer(-2, 2), rng.integer(-2, 2)) for _ in range(n)]
                for i, (a, b) in enumerate(v):
                    for j, (c, d) in enumerate(v):
                        # v_i conj(v_j) = (a + ib)(c - id)
                        re[i][j] += sign * (a * c + b * d)
                        im[i][j] += sign * (b * c - a * d)
            yield re, im
            continue
        for i in range(n):
            for j in range(i, n):
                if kind == 1 and (i == j or rng.integer(0, 1)) or kind == 2 and rng.integer(0, 2):
                    continue
                re[i][j] = re[j][i] = rng.integer(-3, 3)
                if i != j:
                    im[i][j] = rng.integer(-3, 3)
                    im[j][i] = -im[i][j]
        yield re, im
    for rows in _hermitian_cases():
        yield _gaussian_integer_rows(rows)[:2]


def test_hermitian_kernel_rank_and_det_match_bareiss():
    seen = set()
    for re, im in _hermitian_integer_cases():
        n = len(re)
        npos, nneg, nzero, det = _inertia(_copy_rows(re), _copy_rows(im))
        pivots, sign, (dr, di) = _eliminate(_copy_rows(re), _copy_rows(im), n)
        assert npos + nneg + nzero == n
        assert npos + nneg == len(pivots)
        assert (det, 0) == ((sign * dr, sign * di) if len(pivots) == n else (0, 0))
        seen.add((any(not re[k][k] for k in range(n)), (det > 0) - (det < 0), nneg > 0))
    # every kind but those PSD forbids: det < 0, or det > 0 with a zero diagonal entry
    assert seen == {(z, d, neg) for z in (False, True) for d in (-1, 0, 1) for neg in (False, True)
                    } - {(False, -1, False), (True, -1, False), (True, 1, False)}


def test_hermitian_kernel_returns_the_determinant_of_the_cached_rows():
    for rows in _hermitian_cases():
        mat = HermitianMatrix(rows)
        assert mat.det() == mat_det(rows)
        assert (mat.rank(), mat.is_psd()) == (mat_rank(rows), hermitian_signature(rows)[1] == 0)


def _omega_cases():
    """Seeded Hermitian omega with n <= 6: positive definite and not diagonal, or not PD."""
    rng = SplitMix64(2718)
    for count in range(72):
        n = rng.integer(1, 6)
        b = _random_matrix(rng, n, n, n if count % 3 else rng.integer(0, n - 1))
        omega = HermitianMatrix.from_generator(b)
        if count % 3 == 0:  # singular PSD, or indefinite
            yield omega if count % 2 else omega + random_hermitian(count, n)
        else:
            yield omega + HermitianMatrix.diagonal([Fraction(1, rng.integer(1, 4))] * n)


def test_m_positivity_matches_qi_oracle():
    rng = SplitMix64(1618)
    outcomes = {True: 0, False: 0, "not PD": 0}
    for count, omega in enumerate(_omega_cases()):
        n = omega.n
        if count % 2:
            (mat,) = random_psd_family(count + 600, n, 1)
        else:
            mat = random_hermitian(count + 700, n).scale(Fraction(1, rng.integer(1, 5)))
        try:
            oracle_ldl_positive(omega.rows)
        except NotPositiveDefiniteError:
            with pytest.raises(NotPositiveDefiniteError):
                is_m_positive(mat, omega, 1)
            outcomes["not PD"] += 1
            continue
        assert any(omega.entry(i, j) for i in range(n) for j in range(n) if i != j) or n == 1
        for m in range(1, n + 1):
            expected = oracle_is_m_positive(mat, omega, m)
            assert is_m_positive(mat, omega, m) == expected
            outcomes[expected] += 1
    assert min(outcomes.values()) >= 20
