from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm

import pytest

from lefcert import exterior
from lefcert.exterior import (
    PQForm,
    basis_indices,
    conjugate_form,
    form_from_matrix,
    multiplication_matrix,
    volume_scalar,
    wedge,
    wedge_many,
    wedge_operator_matrix,
)
from lefcert.linalg import HermitianMatrix
from lefcert.rationals import GR, I, ONE, ZERO, GaussianRational
from lefcert.serialize import form_from_json, form_to_json

from conftest import random_hermitian, random_psd_family
from lefcert.generate import SplitMix64

D = HermitianMatrix.diagonal


def random_form(rng, n, p, q, bound=2):
    coeffs = {}
    for key in basis_indices(n, p, q):
        c = GR(rng.integer(-bound, bound), rng.integer(-bound, bound))
        if c:
            coeffs[key] = c
    return PQForm(n, p, q, coeffs)


def random_rational_form(rng, n, p, q, density=3):
    """Seeded form with complex coefficients, each part over its own denominator;
    a basis term is present with probability density / 4."""
    coeffs = {}
    for key in basis_indices(n, p, q):
        if rng.integer(0, 3) < density:
            coeffs[key] = GR(Fraction(rng.integer(-4, 4), rng.integer(1, 6)),
                             Fraction(rng.integer(-4, 4), rng.integer(1, 6)))
    return PQForm(n, p, q, coeffs)


# ---- exact oracles: one GaussianRational multiply and add per pair of terms ----

def oracle_merge(a, b):
    """(sign, sorted a + b) by brute-force inversion count; (0, None) on overlap."""
    if set(a) & set(b):
        return 0, None
    seq = a + b
    inv = sum(seq[x] > seq[y] for x in range(len(seq)) for y in range(x + 1, len(seq)))
    return (-1) ** inv, tuple(sorted(seq))


def oracle_wedge(phi, psi):
    if phi.n != psi.n:
        raise ValueError("forms live on different ambient spaces")
    n = phi.n
    p, q = phi.p + psi.p, phi.q + psi.q
    if p > n or q > n:
        return PQForm(n, min(p, n), min(q, n))
    block = -1 if (psi.p * phi.q) % 2 else 1
    out = {}
    for (i1, j1), c1 in phi.coeffs.items():
        for (i2, j2), c2 in psi.coeffs.items():
            si, mi = oracle_merge(i1, i2)
            if not si:
                continue
            sj, mj = oracle_merge(j1, j2)
            if not sj:
                continue
            c = c1 * c2
            if (si * sj * block) < 0:
                c = -c
            key = (mi, mj)
            s = out.get(key, ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return PQForm(n, p, q, out)


def oracle_wedge_many(forms, n=None):
    forms = list(forms)
    if not forms:
        if n is None:
            raise ValueError("ambient dimension required for an empty product")
        return PQForm.scalar(n, ONE)
    acc = forms[0]
    for f in forms[1:]:
        acc = oracle_wedge(acc, f)
    return acc


def oracle_operator_matrix(omega, p, q):
    """One wedge with each basis element, read off as one column."""
    n = omega.n
    src = basis_indices(n, p, q)
    tp, tq = p + omega.p, q + omega.q
    if tp > n or tq > n:
        return [], len(src)
    tgt = basis_indices(n, tp, tq)
    tgt_pos = {k: a for a, k in enumerate(tgt)}
    rows = [[ZERO] * len(src) for _ in tgt]
    for col, (i, j) in enumerate(src):
        image = oracle_wedge(omega, PQForm.basis_element(n, i, j))
        for k, c in image.coeffs.items():
            rows[tgt_pos[k]][col] = c
    return rows, len(src)


def bidegrees(n):
    return list(product(range(n + 1), repeat=2))


# ---- construction and basis bookkeeping ----

def test_bad_multi_index_rejected():
    with pytest.raises(ValueError):
        PQForm(2, 2, 0, {((2, 1), ()): ONE})
    with pytest.raises(ValueError):
        PQForm(2, 1, 0, {((3,), ()): ONE})
    with pytest.raises(ValueError):
        PQForm(2, 1, 1, {((1,), ()): ONE})


@pytest.mark.parametrize("index", [(1.7,), (True,), (1.0,), (Fraction(1),)])
def test_non_int_multi_index_rejected(index):
    with pytest.raises(TypeError):
        PQForm(2, 1, 0, {(index, ()): ONE})
    with pytest.raises(TypeError):
        PQForm(2, 0, 1, {((), index): ONE})


@pytest.mark.parametrize("entry", [1.9, 1.0, True])
def test_form_from_json_refuses_non_int_index(entry):
    doc = {"n": 2, "p": 1, "q": 0, "terms": [{"I": [entry], "J": [], "c": {"re": "1/1"}}]}
    with pytest.raises(ValueError, match="must hold ints"):
        form_from_json(doc)
    doc["terms"][0]["I"] = [1]
    assert form_from_json(doc) == PQForm.basis_element(2, (1,), ())
    doc["terms"][0]["c"] = 0.5
    with pytest.raises(ValueError, match="floating-point"):
        form_from_json(doc)


def test_basis_dimensions():
    for n in range(1, 5):
        for p in range(n + 1):
            for q in range(n + 1):
                assert len(basis_indices(n, p, q)) == comb(n, p) * comb(n, q)


def test_zero_coefficients_dropped():
    phi = PQForm(2, 1, 0, {((1,), ()): ZERO, ((2,), ()): ONE})
    assert ((1,), ()) not in phi.coeffs
    assert phi.coefficient((2,), ()) == ONE


# ---- form_from_matrix ----

def test_form_from_matrix_examples():
    phi = form_from_matrix(HermitianMatrix.identity(1))
    assert phi.coeffs == {((1,), (1,)): I}

    phi = form_from_matrix(D([1, 0]))
    assert phi.coeffs == {((1,), (1,)): I}

    c = GR(2, 3)
    m = HermitianMatrix([[ZERO, c], [c.conjugate(), ZERO]])
    phi = form_from_matrix(m)
    assert phi.coeffs == {
        ((1,), (2,)): I * c,
        ((2,), (1,)): I * c.conjugate(),
    }
    assert conjugate_form(phi) == phi


def test_form_from_matrix_linear():
    for seed in range(15):
        a = random_hermitian(seed, 3)
        b = random_hermitian(seed + 1000, 3)
        assert form_from_matrix(a) + form_from_matrix(b) == form_from_matrix(a + b)


def test_form_from_matrix_always_real():
    for seed in range(10):
        phi = form_from_matrix(random_hermitian(seed + 55, 4))
        assert conjugate_form(phi) == phi


# ---- wedge ----

def test_wedge_repeated_index_vanishes():
    dz1 = PQForm.basis_element(2, (1,), ())
    assert wedge(dz1, dz1).is_zero()


def test_wedge_unit_volume_terms():
    t1 = PQForm(2, 1, 1, {((1,), (1,)): I})
    t2 = PQForm(2, 1, 1, {((2,), (2,)): I})
    v = wedge(t1, t2)
    assert volume_scalar(v) == ONE


def test_wedge_omega_squared():
    omega = form_from_matrix(HermitianMatrix.identity(2))
    assert volume_scalar(wedge(omega, omega)) == GR(2)


def test_wedge_degree_overflow_is_zero():
    omega = form_from_matrix(HermitianMatrix.identity(2))
    top = wedge(omega, omega)
    assert wedge(top, omega).is_zero()


def test_wedge_associative_and_bilinear():
    rng = SplitMix64(0xABCDE)
    checked = 0
    while checked < 100:
        n = 2 + rng.integer(0, 2)
        degs = []
        for _ in range(3):
            p = rng.integer(0, 2)
            q = rng.integer(0, 2)
            degs.append((p, q))
        if sum(p for p, _ in degs) > n or sum(q for _, q in degs) > n:
            continue
        f, g, h = (random_form(rng, n, p, q) for p, q in degs)
        assert wedge(wedge(f, g), h) == wedge(f, wedge(g, h))
        g2 = random_form(rng, n, *degs[1])
        assert wedge(f, g + g2) == wedge(f, g) + wedge(f, g2)
        c = GR(rng.integer(-3, 3), rng.integer(-3, 3))
        assert wedge(f.scale(c), g) == wedge(f, g).scale(c)
        checked += 1


def test_graded_commutativity():
    rng = SplitMix64(0x51)
    for _ in range(100):
        n = 2 + rng.integer(0, 2)
        p1, q1 = rng.integer(0, 1), rng.integer(0, 1)
        p2, q2 = rng.integer(0, 1), rng.integer(0, 1)
        f = random_form(rng, n, p1, q1)
        g = random_form(rng, n, p2, q2)
        sign = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
        assert wedge(g, f) == wedge(f, g).scale(sign)


# ---- wedge_many and volume ----

def test_wedge_many_conventions():
    one = wedge_many([], n=3)
    assert (one.p, one.q) == (0, 0) and one.coefficient((), ()) == ONE
    with pytest.raises(ValueError):
        wedge_many([])
    phi = PQForm.basis_element(3, (1, 2), (3,))
    assert wedge_many([phi]) == phi
    assert wedge_many([phi], n=3) == phi and wedge_many([], n=0) == PQForm.scalar(0, 1)


def test_wedge_many_refuses_a_negative_or_disagreeing_n():
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        wedge_many([], n=-1)
    phi = form_from_matrix(HermitianMatrix.identity(3))
    for n in (2, 5):
        with pytest.raises(ValueError, match="^forms live on different ambient spaces$"):
            wedge_many([phi], n=n)


def test_basis_element_reads_each_index_once():
    assert PQForm.basis_element(3, iter((1,)), iter((2,))) == PQForm.basis_element(3, (1,), (2,))


def test_omega_power_is_factorial_volume():
    for n in range(1, 6):
        omega = form_from_matrix(HermitianMatrix.identity(n))
        assert volume_scalar(wedge_many([omega] * n)) == GR(factorial(n))


def test_volume_scalar_edges():
    n = 3
    omega = form_from_matrix(HermitianMatrix.identity(n))
    assert volume_scalar(wedge_many([omega] * n) - wedge_many([omega] * n)) == ZERO
    with pytest.raises(ValueError):
        volume_scalar(omega)


def test_nilpotency_degree_matches_rank():
    # alpha^k != 0 exactly when k <= rank(A), for alpha built from PSD A
    for seed in range(12):
        (a,) = random_psd_family(seed + 11, 4, 1)
        alpha = form_from_matrix(a)
        r = a.rank()
        for k in range(1, 5):
            power = wedge_many([alpha] * k, n=4)
            assert power.is_zero() == (k > r)


# ---- conjugation ----

def test_conjugation_involution_and_bidegree():
    rng = SplitMix64(0x77)
    for _ in range(30):
        n = 3
        p, q = rng.integer(0, 2), rng.integer(0, 2)
        f = random_form(rng, n, p, q)
        g = conjugate_form(f)
        assert (g.p, g.q) == (q, p)
        assert conjugate_form(g) == f


def test_conjugation_multiplicative():
    rng = SplitMix64(0x78)
    for _ in range(30):
        f = random_form(rng, 3, 1, rng.integer(0, 1))
        g = random_form(rng, 3, rng.integer(0, 1), 1)
        assert conjugate_form(wedge(f, g)) == wedge(conjugate_form(f), conjugate_form(g))


# ---- operator matrices ----

def test_multiplication_matrix_scalar_omega():
    one = PQForm.scalar(3, ONE)
    m = multiplication_matrix(one, 2, 1)
    dim = comb(3, 2) * comb(3, 1)
    assert len(m) == dim
    assert all(m[i][j] == (ONE if i == j else ZERO) for i in range(dim) for j in range(dim))


def test_multiplication_matrix_top_degree():
    n = 2
    omega = form_from_matrix(HermitianMatrix.identity(n))
    top = wedge(omega, omega)
    m = multiplication_matrix(top, 0, 0)
    assert len(m) == 1 and m[0][0] == top.coefficient((1, 2), (1, 2))


def test_multiplication_matrix_rank_one_omega():
    # n=2: Omega = i dz1^dzbar1 on Lambda^{1,0} has a one-dimensional image
    omega = PQForm(2, 1, 1, {((1,), (1,)): I})
    m = multiplication_matrix(omega, 1, 0)
    assert len(m) == 2
    nonzero = [(i, j) for i in range(2) for j in range(2) if m[i][j]]
    assert len(nonzero) == 1
    from lefcert.linalg import mat_rank

    assert mat_rank(m) == 1  # not injective


def test_multiplication_matrix_degree_mismatch():
    omega = PQForm(3, 1, 1, {((1,), (1,)): I})
    with pytest.raises(ValueError):
        multiplication_matrix(omega, 2, 1)


def test_wedge_operator_overflow_gives_zero_map():
    omega = form_from_matrix(HermitianMatrix.identity(2))
    rows, ncols = wedge_operator_matrix(omega, 2, 2)
    assert rows == [] and ncols == 1


def test_operator_matrix_agrees_with_wedge():
    rng = SplitMix64(0x99)
    for _ in range(20):
        n = 3
        omega = random_form(rng, n, 1, 1)
        p, q = rng.integer(0, 1), rng.integer(0, 1)
        rows, ncols = wedge_operator_matrix(omega, p, q)
        phi = random_form(rng, n, p, q)
        vec = phi.coefficient_vector()
        assert ncols == len(vec)
        image = wedge(omega, phi)
        out = [sum((row[j] * vec[j] for j in range(ncols)), ZERO) for row in rows]
        assert out == image.coefficient_vector()


# ---- serialization ----

def test_form_serialization_round_trip():
    rng = SplitMix64(0x5EED)
    for _ in range(20):
        n = 3
        f = random_form(rng, n, rng.integer(0, 2), rng.integer(0, 2), bound=5)
        doc = form_to_json(f)
        assert form_from_json(doc) == f


# ---- the Z[i] kernel against the GaussianRational oracles ----

def test_wedge_matches_oracle_on_every_bidegree():
    rng = SplitMix64(0x3E46E)
    for n in range(1, 5):
        for p1, q1 in bidegrees(n):
            for p2, q2 in bidegrees(n):
                density = 3 if n < 4 else 2
                f = random_rational_form(rng, n, p1, q1, density)
                g = random_rational_form(rng, n, p2, q2, density)
                assert wedge(f, g) == oracle_wedge(f, g)
                assert wedge_many([f, g]) == oracle_wedge(f, g)


def test_wedge_many_matches_oracle_fold():
    rng = SplitMix64(0xF01D)
    for _ in range(150):
        n = rng.integer(1, 4)
        forms = [random_rational_form(rng, n, *bidegrees(n)[rng.integer(0, (n + 1) ** 2 - 1)])
                 for _ in range(rng.integer(1, 4))]
        expected = oracle_wedge_many(forms)
        got = wedge_many(forms)
        assert got == expected
        assert (got.p, got.q) == (expected.p, expected.q)


def test_omega_and_matrix_match_oracle_for_rational_forms():
    rng = SplitMix64(0x0AE6A)
    for _ in range(40):
        n = rng.integer(2, 4)
        mats = []
        for _ in range(rng.integer(1, n)):
            rows = [[ZERO] * n for _ in range(n)]
            for a in range(n):
                rows[a][a] = GR(Fraction(rng.integer(-5, 5), rng.integer(1, 7)))
                for b in range(a + 1, n):
                    c = GR(Fraction(rng.integer(-5, 5), rng.integer(1, 7)),
                           Fraction(rng.integer(-5, 5), rng.integer(1, 7)))
                    rows[a][b], rows[b][a] = c, c.conjugate()
            mats.append(HermitianMatrix(rows))
        forms = [form_from_matrix(a) for a in mats]
        omega = wedge_many(forms)
        assert omega == oracle_wedge_many(forms)
        assert any(c.re.denominator > 1 or c.im.denominator > 1 for c in omega.coeffs.values())
        for p, q in bidegrees(n):
            assert wedge_operator_matrix(omega, p, q) == oracle_operator_matrix(omega, p, q)


def test_operator_matrix_matches_oracle_on_every_bidegree():
    rng = SplitMix64(0x0B5)
    for n in range(1, 5):
        for bideg in bidegrees(n):
            omega = random_rational_form(rng, n, *bideg, density=2)
            for p, q in bidegrees(n):
                assert wedge_operator_matrix(omega, p, q) == oracle_operator_matrix(omega, p, q)


def test_cancelling_terms_are_absent():
    n = 3
    a = GR(Fraction(1, 2), Fraction(1, 3))
    f = PQForm(n, 1, 0, {((1,), ()): a, ((2,), ()): a * GR(Fraction(2, 5))})
    g = PQForm(n, 1, 0, {((1,), ()): GR(Fraction(5, 7)), ((2,), ()): GR(Fraction(2, 7)),
                         ((3,), ()): GR(0, 1)})
    h = wedge(f, g)  # the dz1 ^ dz2 coefficient a*2/7 - a*2/5*5/7 cancels
    assert ((1, 2), ()) not in h.coeffs
    assert set(h.coeffs) == {((1, 3), ()), ((2, 3), ())}
    assert h == oracle_wedge(f, g)
    s = PQForm(n, 1, 0, {((1,), ()): ONE, ((2,), ()): ONE})
    assert wedge(s, s).coeffs == {}
    assert wedge_many([f, g, g]).coeffs == {}
    # a (1,1)-form wedged with its negative partner cancels term by term
    u = PQForm(n, 1, 1, {((1,), (2,)): a, ((2,), (1,)): a})
    v = PQForm(n, 1, 1, {((2,), (1,)): ONE, ((1,), (2,)): GR(-1)})
    assert wedge(u, v) == oracle_wedge(u, v)
    assert ((1, 2), (1, 2)) not in wedge(u, v).coeffs


def test_empty_product_and_mismatched_n_raise():
    with pytest.raises(ValueError):
        wedge_many([])
    assert wedge_many([], n=2) == PQForm.scalar(2, ONE)
    f2 = PQForm.basis_element(2, (1,), ())
    f3 = PQForm.basis_element(3, (1,), ())
    with pytest.raises(ValueError):
        wedge(f2, f3)
    with pytest.raises(ValueError):
        wedge_many([f2, PQForm.basis_element(2, (2,), ()), f3])
    with pytest.raises(ValueError):  # still refused after the fold has overflowed
        wedge_many([f2, PQForm.basis_element(2, (1, 2), ()), f3])


def test_fold_overflow_keeps_clamped_bidegree():
    n = 2
    top_holo = PQForm.basis_element(n, (1, 2), ())
    dz1 = PQForm.basis_element(n, (1,), ())
    top_anti = PQForm.basis_element(n, (), (1, 2))
    got = wedge_many([top_holo, dz1, top_anti])
    assert got.is_zero() and (got.p, got.q) == (2, 2)
    assert got == oracle_wedge_many([top_holo, dz1, top_anti])
    mid = wedge(top_holo, dz1)
    assert mid.is_zero() and (mid.p, mid.q) == (2, 0)
    assert wedge_many([dz1, top_anti, top_anti]) == PQForm(n, 1, 2)


def test_kernel_runs_no_scalar_arithmetic(monkeypatch):
    rng = SplitMix64(0x5CA1)
    forms = [random_rational_form(rng, 3, 1, 1) for _ in range(3)]
    omega = random_rational_form(rng, 3, 1, 1)
    expected = [oracle_wedge_many(forms), oracle_operator_matrix(omega, 1, 0)]

    def forbidden(*args):
        raise AssertionError("scalar arithmetic inside the wedge kernel")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(GaussianRational, name, forbidden)
    assert wedge_many(forms) == expected[0]
    monkeypatch.setattr(exterior, "wedge", forbidden)
    monkeypatch.setattr(exterior, "wedge_many", forbidden)
    monkeypatch.setattr(PQForm, "basis_element", classmethod(forbidden))
    assert wedge_operator_matrix(omega, 1, 0) == expected[1]


# ---- the integer Omega against the Q(i) wedge_many build ----

def oracle_matrix_form(a):
    """The (1,1)-form i A, one GaussianRational product i * a_jk per entry."""
    return PQForm(a.n, 1, 1, {((j + 1,), (k + 1,)): I * a.rows[j][k]
                              for j in range(a.n) for k in range(a.n) if a.rows[j][k]})


def oracle_integer_terms(phi):
    """({(I, J): (re, im)}, L): phi's coefficients times the lcm L of their denominators."""
    den = lcm(*(x.denominator for c in phi.coeffs.values() for x in (c.re, c.im)))
    return {k: (int(c.re * den), int(c.im * den)) for k, c in phi.coeffs.items()}, den


def oracle_matrix_omega(mats, n, start=None):
    """The Q(i) build of start ^ (i A_1) ^ ... ^ (i A_k) by the GaussianRational oracle fold."""
    head = [] if start is None else [start]
    return oracle_wedge_many(head + [oracle_matrix_form(a) for a in mats], n)


def oracle_matrix_wedge(mats, n, start=None):
    """(terms, L, bidegree) of the Q(i) build."""
    omega = oracle_matrix_omega(mats, n, start)
    return (*oracle_integer_terms(omega), (omega.p, omega.q))


def rational_hermitian(rng, n):
    """Seeded Hermitian matrix whose entries carry denominators up to 6, some zero."""
    rows = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        rows[a][a] = GR(Fraction(rng.integer(-3, 3), rng.integer(1, 6)))
        for b in range(a + 1, n):
            if rng.integer(0, 3):
                c = GR(Fraction(rng.integer(-4, 4), rng.integer(1, 6)),
                       Fraction(rng.integer(-4, 4), rng.integer(1, 6)))
                rows[a][b], rows[b][a] = c, c.conjugate()
    return HermitianMatrix(rows)


def matrix_families():
    rng = SplitMix64(0x1A7E6)
    for count in range(150):
        n = rng.integer(1, 4)
        size = rng.integer(0, n + 1)  # n + 1 factors overflow to the zero (n,n)-form
        mats = [rational_hermitian(rng, n) for _ in range(size)]
        if count % 5 == 0 and mats:
            mats[rng.integer(0, size - 1)] = HermitianMatrix.zero(n)
        yield n, mats
    yield 3, [D([1, 1, 0])] * 3  # cancels to zero
    yield 2, random_psd_family(7, 2, 2)
    rng = SplitMix64(0x5E6)
    for n in (5, 6):
        # complex PSD members of ranks 0 to n, and complex members over denominators up to 6
        psd = random_psd_family(40 + n, n, n + 1)
        rational = [rational_hermitian(rng, n) for _ in range(n)]
        yield n, psd[:n]  # rank-deficient members and a zero one
        yield n, rational
        yield n, [psd[1]] * 2 + rational[2:]  # a repeated member
        yield n, rational[:2] + [HermitianMatrix.zero(n)] + psd[3:n]  # a zero member
        yield n, rational[:1]
        yield n, [psd[0]]
        yield n, psd[1:4]
        yield n, rational + psd[-1:]  # n + 1 factors


def test_matrix_wedge_equals_the_qi_build_term_for_term():
    kinds = set()
    for n, mats in matrix_families():
        omega = exterior._fold(n, mats)
        terms, den, bideg = oracle_matrix_wedge(mats, n)
        # terms are listed in basis order; form_to_json sorts, so no report reads the order
        assert omega.terms == terms
        assert list(omega.terms) == [k for k in basis_indices(n, *bideg) if k in terms]
        assert omega.den == den and (omega.p, omega.q) == bideg and omega.n == n
        assert omega == oracle_matrix_omega(mats, n)
        kinds.add((not mats, not terms, den > 1))
    # the empty family, zero products, integral and rational Omegas
    assert {(True, False, False), (False, True, False), (False, False, True),
            (False, False, False)} <= kinds


def test_matrix_wedge_continues_a_given_omega():
    for n, mats in matrix_families():
        expected = oracle_matrix_wedge(mats, n)
        for k in range(len(mats) + 1):
            head = exterior._fold(n, mats[:k])
            whole = exterior._fold(n, mats[k:], head)
            assert (whole.terms, whole.den, (whole.p, whole.q)) == expected


def starts(rng, n, k):
    """(start, real) for k factors on C^n: real (l,l)-forms phi + conj(phi) and forms that are not."""
    l = rng.integer(0, n - k) if k < n else 0
    phi = random_rational_form(rng, n, l, l, density=3 if n < 5 else 1)
    p = rng.integer(0, n)
    yield phi + conjugate_form(phi), True
    yield phi.scale(I) + conjugate_form(phi.scale(I)), True
    yield phi, phi == conjugate_form(phi)
    # i times a real form is real only when zero
    yield (phi + conjugate_form(phi)).scale(I), (phi + conjugate_form(phi)).is_zero()
    yield random_rational_form(rng, n, p, (p + 1) % (n + 1), density=1), False


def test_matrix_wedge_continues_real_starts_and_starts_that_are_not():
    rng = SplitMix64(0x57A7)
    seen = set()
    for n, mats in matrix_families():
        if n > 4 and len(mats) < 2:
            continue
        for k in (rng.integer(0, len(mats)), len(mats)):
            for start, real in starts(rng, n, len(mats[:k])):
                assert exterior._is_real(start) == real == (conjugate_form(start) == start)
                got = exterior._fold(n, mats[:k], start)
                expected = oracle_matrix_wedge(mats[:k], n, start)
                assert (got.terms, got.den, (got.p, got.q)) == expected
                seen.add((real, start.is_zero(), not got.terms))
    # real and other starts, zero starts, and zero and nonzero products
    assert {(True, False, False), (True, False, True), (False, False, False),
            (False, False, True), (True, True, True)} <= seen


def test_real_starts_take_the_upper_triangle_step(monkeypatch):
    rng = SplitMix64(0x0BE)
    cases = []
    for n, mats in matrix_families():
        if n < 5:
            cases += [(n, mats, start, real) for start, real in starts(rng, n, len(mats))]
    expected = [exterior._fold(n, mats, start) for n, mats, start, _ in cases]

    def forbidden(*args):
        raise AssertionError("the wrong step")

    with monkeypatch.context() as patch:
        patch.setattr(exterior, "_wedge_rows", forbidden)
        for n, mats in matrix_families():
            exterior._fold(n, mats)
        assert all(exterior._fold(n, mats, start) == e
                   for (n, mats, start, real), e in zip(cases, expected) if real)
    with monkeypatch.context() as patch:
        patch.setattr(exterior, "_fold_real", forbidden)
        assert all(exterior._fold(n, mats, start) == e
                   for (n, mats, start, real), e in zip(cases, expected) if not real)
        # PQForm factors keep the pair loop
        assert wedge_many([oracle_matrix_form(D([1, 2])), oracle_matrix_form(D([3, 1]))]) == \
            oracle_matrix_omega([D([1, 2]), D([3, 1])], 2)


def test_a_step_computes_its_upper_triangle_and_mirrors_only_below_it(monkeypatch):
    # taken as real, a start that is not real has a wrong mirror; the entries at
    # and above the diagonal must still be the wedge's own, not the mirror's
    monkeypatch.setattr(exterior, "_is_real", lambda omega: True)
    rng = SplitMix64(0xD1A6)
    seen = set()
    for n in range(2, 7):
        for l in range(1, n):
            start = random_rational_form(rng, n, l, l, density=3 if n < 5 else 1)
            a = rational_hermitian(rng, n)
            got = exterior._fold(n, [a], start)
            want = oracle_wedge(start, oracle_matrix_form(a))
            _, pos = exterior._index_positions(n, l + 1)
            upper = [(i, j) for i, j in basis_indices(n, l + 1, l + 1) if pos[i] <= pos[j]]
            assert [got.coefficient(*k) for k in upper] == [want.coefficient(*k) for k in upper]
            # a nonzero diagonal, so a mirror that wrote it would show
            seen.add(any(want.coefficient(i, i) for i, _ in upper))
            sign = (-1) ** (l + 1)
            for i, j in upper:
                if i != j:
                    assert got.coefficient(j, i) == got.coefficient(i, j).conjugate() * sign
    assert seen == {True}


def test_matrix_wedge_rejects_a_mismatched_dimension():
    with pytest.raises(ValueError):
        exterior._fold(2, [D([1, 1]), D([1, 1, 1])])


def test_form_from_matrix_reads_the_cleared_rows(monkeypatch):
    mats = [a for _, family in matrix_families() for a in family]
    expected = [oracle_matrix_form(a) for a in mats]

    def forbidden(*args):
        raise AssertionError("scalar arithmetic in form_from_matrix")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__",
                 "__neg__", "conjugate"):
        monkeypatch.setattr(GaussianRational, name, forbidden)
    assert [form_from_matrix(a) for a in mats] == expected


def test_matrix_vector_is_the_coefficient_vector_of_the_form():
    for _, mats in matrix_families():
        for a in mats:
            (re, im), den = exterior._matrix_vector(a)
            terms, form_den = oracle_integer_terms(oracle_matrix_form(a))
            keys = basis_indices(a.n, 1, 1)
            assert den == form_den
            assert [(x, y) for x, y in zip(re, im)] == [terms.get(k, (0, 0)) for k in keys]


def test_annihilates_agrees_with_the_wedge():
    rng = SplitMix64(0xA221)
    seen = set()
    for n, mats in matrix_families():
        omega = exterior._fold(n, mats)
        for p, q in bidegrees(n):
            phi = random_rational_form(rng, n, p, q, density=1 + rng.integer(0, 2))
            vector = ([c.re for c in phi.coefficient_vector()],
                      [c.im for c in phi.coefficient_vector()])
            scale = 1
            for c in phi.coeffs.values():
                scale = scale * c.re.denominator * c.im.denominator
            vector = tuple([int(x * scale) for x in xs] for xs in vector)
            expected = wedge(omega, phi).is_zero()
            assert exterior._annihilates(omega, p, q, vector) == expected
            seen.add(expected)
    assert seen == {True, False}


# ---- the cached wedge rows against the per-pair oracles ----

def oracle_first_reached(phi, psi):
    """The merged indices of phi ^ psi in the order the pairs (phi's terms, then psi's) reach them."""
    reached = {}
    for i1, j1 in phi.terms:
        for i2, j2 in psi.terms:
            si, mi = oracle_merge(i1, i2)
            sj, mj = oracle_merge(j1, j2)
            if si and sj:
                reached.setdefault((mi, mj), None)
    return list(reached)


def oracle_operator_columns(omega, p, q):
    """The per-pair column loop: each source index against each term of omega, in omega's order."""
    n = omega.n
    src = basis_indices(n, p, q)
    tp, tq = p + omega.p, q + omega.q
    if tp > n or tq > n:
        return 0, [[] for _ in src]
    tgt_pos = {k: a for a, k in enumerate(basis_indices(n, tp, tq))}
    # moving dzbar_{J'} (omega.q factors) past dz_I (p factors)
    block = -1 if (p * omega.q) % 2 else 1
    columns = []
    for i, j in src:
        col = []
        for (i1, j1), (re, im) in omega.terms.items():
            si, mi = oracle_merge(i1, i)
            if not si:
                continue
            sj, mj = oracle_merge(j1, j)
            if sj:
                sign = si * sj * block
                col.append((tgt_pos[mi, mj], sign * re, sign * im))
        columns.append(col)
    return len(tgt_pos), columns


def test_row_wedges_match_the_qi_oracle_on_every_pair_of_bidegrees():
    rng = SplitMix64(0x50A4)
    kinds = set()
    for n in range(1, 6):
        for p1, q1 in bidegrees(n):
            for p2, q2 in bidegrees(n):
                density = 3 if n < 4 else 1
                f = random_rational_form(rng, n, p1, q1, density * rng.integer(0, 1))
                g = random_rational_form(rng, n, p2, q2, density)
                # right terms out of basis order, and a sum that cancels part of g
                g = PQForm(n, p2, q2, dict(reversed(list(g.coeffs.items()))))
                h = g - PQForm(n, p2, q2, {k: c for k, c in g.coeffs.items() if rng.integer(0, 1)})
                # f ^ f vanishes term by term when f has odd degree, so f ^ (f + g) = f ^ g
                for right in (g, h, f) + ((f + g,) if (p1, q1) == (p2, q2) else ()):
                    got = wedge(f, right)
                    assert got == oracle_wedge(f, right)
                    assert (got.p, got.q) == (min(f.p + right.p, n), min(f.q + right.q, n))
                    reached = oracle_first_reached(f, right)
                    assert list(got.terms) == [k for k in reached if k in got.terms]
                    overflow = f.p + right.p > n or f.q + right.q > n
                    kinds.add((overflow, f.is_zero() or right.is_zero(),
                               not overflow and len(got.terms) < len(reached), got.is_zero()))
                e = random_rational_form(rng, n, *bidegrees(n)[rng.integer(0, (n + 1) ** 2 - 1)])
                assert wedge_many([f, h, e]) == oracle_wedge_many([f, h, e])
    # overflowing degrees, zero factors, sums that cancel wholly or in part, and none
    assert {(True, False, False, True), (False, True, False, True), (False, False, True, True),
            (False, False, True, False), (False, False, False, False)} <= kinds


def test_operator_columns_match_the_per_pair_loop():
    rng = SplitMix64(0xC01)
    for n in range(1, 6):
        for bideg in bidegrees(n):
            omega = random_rational_form(rng, n, *bideg, density=2 if n < 5 else 1)
            if bideg == (1, 1):
                omega = PQForm.zero(n, 1, 1)
            for p, q in bidegrees(n):
                assert exterior._operator_columns(omega, p, q) == \
                    oracle_operator_columns(omega, p, q)


def test_wedge_rows_are_bounded_and_built_lazily():
    assert exterior._rows.cache_info().maxsize is not None
    exterior._rows.cache_clear()
    n = 10
    f = PQForm(n, 3, 3, {((1, 2, 3), (1, 2, 3)): GR(1, 2), ((4, 5, 6), (2, 5, 9)): GR(-3)})
    g = PQForm(n, 1, 1, {((7,), (7,)): ONE, ((1,), (10,)): I})
    assert wedge(f, g) == oracle_wedge(f, g)
    # the fold starts from the scalar 1, whose one-row (0,0) x (3,3) table places f
    assert exterior._rows.cache_info().currsize == 2
    assert list(exterior._rows(n, 0, 0, 3, 3)) == [((), ())]
    table = exterior._rows(n, 3, 3, 1, 1)
    # one row per left index the loop reached, each listing the 7 * 7 disjoint (1,1) indices
    assert len(table) <= 2 and set(table) <= set(f.terms)
    assert all(len(row) == 49 for row in table.values())


# ---- PQForm construction ----

def test_form_from_int_coefficients_builds_no_gaussian_rational(monkeypatch):
    keys = basis_indices(3, 1, 1)
    count = [0]
    init = GaussianRational.__init__

    def counting(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(GaussianRational, "__init__", counting)
    phi = PQForm(3, 1, 1, {k: v - 4 for v, k in enumerate(keys)})
    assert count[0] == 0
    assert phi.terms == {k: (v - 4, 0) for v, k in enumerate(keys) if v != 4} and phi.den == 1
    monkeypatch.undo()
    mixed = {keys[0]: 3, keys[1]: Fraction(-2, 6), keys[2]: "5/10", keys[3]: GR(1, 2)}
    assert PQForm(3, 1, 1, mixed) == PQForm(3, 1, 1, {k: GR(c) for k, c in mixed.items()})


@pytest.mark.parametrize("coeff, error, message", [
    ({"re": 1, "im": 2}, TypeError, None),
    (1.5, TypeError, "floating-point value 1.5 rejected"),
    (None, TypeError, None),
    ("1.5", ValueError, "rational '1.5' is not an integer or a 'p/q' string"),
])
def test_form_coefficient_errors_are_those_of_a_gaussian_rational(coeff, error, message):
    with pytest.raises(error) as got:
        PQForm(2, 1, 0, {((1,), ()): coeff})
    with pytest.raises(error) as scalar:
        GR(coeff)
    assert str(got.value) == str(scalar.value)
    assert message is None or str(got.value).startswith(message)


# ---- the Z[i] PQForm against plain Q(i) arithmetic on its coeffs ----

def oracle_sum(phi, psi, sign=1):
    out = dict(phi.coeffs)
    for k, c in psi.coeffs.items():
        out[k] = out.get(k, ZERO) + c * sign
    return {k: c for k, c in out.items() if c}


def oracle_conjugate(phi):
    sign = (-1) ** (phi.p * phi.q)
    return {(j, i): c.conjugate() * sign for (i, j), c in phi.coeffs.items()}


def form_pairs():
    """Seeded same-space pairs with mixed denominators, some cancelling in part or whole."""
    rng = SplitMix64(0x2F0E)
    for count in range(150):
        n = rng.integer(1, 4)
        p, q = rng.integer(0, n), rng.integer(0, n)
        phi = random_rational_form(rng, n, p, q, density=rng.integer(0, 4))
        psi = random_rational_form(rng, n, p, q, density=rng.integer(0, 4))
        if count % 3 == 0:  # psi cancels phi on a part of its terms, or on all of them
            keep = rng.integer(0, 1)
            psi = PQForm(n, p, q, {**psi.coeffs, **{k: -c for k, c in phi.coeffs.items()
                                                    if keep or rng.integer(0, 1)}})
        yield phi, psi


def test_integer_form_matches_the_qi_oracle():
    scalars = [GR(Fraction(3, 4)), GR(Fraction(-2, 9), Fraction(5, 6)), I, ZERO, 0, 7,
               Fraction(-1, 3)]
    seen = set()
    for phi, psi in form_pairs():
        n, p, q = phi.n, phi.p, phi.q
        for form in (phi, psi):
            # reduced Z[i] terms over the lcm of the coefficients' denominators
            den = lcm(*(x.denominator for c in form.coeffs.values() for x in (c.re, c.im)))
            assert form.den == den
            assert form.terms == {k: (int(c.re * den), int(c.im * den))
                                  for k, c in form.coeffs.items()}
        total, diff = phi + psi, phi - psi
        assert total.coeffs == oracle_sum(phi, psi) and diff.coeffs == oracle_sum(phi, psi, -1)
        assert (total - psi) == phi and hash(total - psi) == hash(phi)
        if not oracle_sum(phi, psi):
            assert total.is_zero() and total == PQForm.zero(n, p, q) and total.den == 1
            assert hash(total) == hash(PQForm.zero(n, p, q))
        seen.add((total.is_zero(), len(total.terms) < len(phi.terms) + len(psi.terms)))
        for c in scalars:
            expected = {k: v * c for k, v in phi.coeffs.items() if v * c}
            assert phi.scale(c).coeffs == expected
            assert phi.scale(c) == PQForm(n, p, q, expected)
        assert (-phi).coeffs == {k: -c for k, c in phi.coeffs.items()}
        conj = conjugate_form(phi)
        assert (conj.p, conj.q) == (q, p) and conj.coeffs == oracle_conjugate(phi)
        assert (conj == phi) == (p == q and oracle_conjugate(phi) == dict(phi.coeffs))
        assert p != q or conjugate_form(phi + conj) == phi + conj
        reordered = PQForm(n, p, q, dict(reversed(list(phi.coeffs.items()))))
        assert reordered == phi and hash(reordered) == hash(phi)
        assert (phi == psi) == (dict(phi.coeffs) == dict(psi.coeffs))
        keys = basis_indices(n, p, q)
        assert [phi.coefficient(i, j) for i, j in keys] == [phi.coeffs.get(k, ZERO) for k in keys]
        assert phi.coefficient_vector() == [phi.coeffs.get(k, ZERO) for k in keys]
        assert PQForm.from_coefficient_vector(n, p, q, phi.coefficient_vector()) == phi
        record = form_to_json(phi)
        assert [GR(Fraction(t["c"]["re"]), Fraction(t["c"]["im"])) for t in record["terms"]] \
            == [phi.coeffs[k] for k in sorted(phi.coeffs)]
        assert form_from_json(record) == phi
    # sums that cancel wholly, in part, and not at all
    assert {(True, True), (False, True), (False, False)} <= seen


def test_coeffs_is_a_read_only_view():
    phi = PQForm(2, 1, 1, {((1,), (2,)): GR(Fraction(1, 2), 3)})
    with pytest.raises(TypeError):
        phi.coeffs[((1,), (2,))] = ONE
    with pytest.raises(TypeError):
        phi.coeffs[((2,), (1,))] = ONE
    assert phi.coeffs == {((1,), (2,)): GR(Fraction(1, 2), 3)}
    assert phi.terms == {((1,), (2,)): (1, 6)} and phi.den == 2


def test_a_form_sets_every_slot_once_and_refuses_writes():
    form = PQForm._from_terms(2, 1, 0, {((1,), ()): (3, -1)}, 2)
    assert (form.n, form.p, form.q, form.terms, form.den) == (2, 1, 0, {((1,), ()): (3, -1)}, 2)
    assert form.coefficient((1,), ()) == GR("3/2", "-1/2")
    for name in PQForm.__slots__:
        with pytest.raises(AttributeError, match="^PQForm is immutable$"):
            setattr(form, name, None)
