import re
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial
from operator import add

import pytest

from lefcert.certify import (
    Certificate,
    HLInstance,
    PreconditionError,
    _intersection_gram,
    _real_basis_vectors,
    _witness_from_kernel,
    criterion_hl,
    direct_hl,
    hermitian_real_basis,
    hodge_index_check,
    hr_certify,
    lefschetz_decomposition,
    lorentzian_signature,
    products_preserve_hl,
)
import lefcert.discriminant as discriminant_mod
from lefcert.discriminant import panov_positivity, reverse_kt_check
from lefcert.discriminant import mixed_discriminant
import lefcert.linalg as linalg_mod
from lefcert.exterior import (
    PQForm,
    _annihilates,
    _fold,
    _integer_operator_matrix,
    basis_indices,
    conjugate_form,
    form_from_matrix,
    multiplication_matrix,
    volume_scalar,
    wedge,
    wedge_many,
)
from lefcert.polymatroid import hl_support, rank_from_matrices
from lefcert.linalg import (
    _P,
    HermitianFormOnSpace,
    HermitianMatrix,
    InternalCheckError,
    _det_residue,
    _gaussian_integer_rows,
    _kernel,
    hermitian_signature,
    kernel_basis,
    mat_rank,
)
from lefcert.rationals import GR, I, GaussianRational, cpq_constant

from conftest import random_hermitian, random_psd_family, singular_pivot_rows, subset_sums
from lefcert.generate import SplitMix64

D = HermitianMatrix.diagonal
Id = HermitianMatrix.identity


def psd_tuple(seed, n, count):
    return tuple(random_psd_family(seed, n, count))


def integer_vector(phi):
    """((re, im), L): phi's coefficient vector as Gaussian integers over its lcm denominator."""
    (re,), (im,), den = _gaussian_integer_rows([phi.coefficient_vector()])
    return (re, im), den


# ---- instance and certificate sanity ----

def test_instance_validation():
    with pytest.raises(ValueError):
        HLInstance(2, 0, 0, (Id(2),))  # wrong count
    with pytest.raises(ValueError):
        HLInstance(2, 0, 0, (D([1, -1]), Id(2)))  # not PSD
    with pytest.raises(ValueError):
        HLInstance(2, 2, 1, ())  # p+q > n
    with pytest.raises(ValueError):
        HLInstance(2, 0, 0, (Id(2), Id(2)), eta=D([1, -1]))


# every public entry point that takes a PSD family, as (call on a family of
# 4 x 4 members, family size, 1-based position of the member made bad)
FAMILY_ENTRY_POINTS = {
    "criterion_hl": (lambda fam: criterion_hl(HLInstance(4, 1, 1, fam)), 2, 2),
    "hr_certify": (lambda fam: hr_certify(HLInstance(4, 1, 1, fam, Id(4))), 2, 1),
    "lefschetz_decomposition":
        (lambda fam: lefschetz_decomposition(HLInstance(4, 1, 1, fam, Id(4))), 2, 2),
    "products_preserve_hl": (lambda fam: products_preserve_hl(fam, [Id(4)], 4), 2, 2),
    "lorentzian_signature": (lambda fam: lorentzian_signature(fam, 4), 2, 1),
    "hodge_index_check": (lambda fam: hodge_index_check(fam, Id(4), D([1, -1, 0, 0])), 2, 2),
    "panov_positivity": (panov_positivity, 4, 3),
    "reverse_kt_check": (lambda fam: reverse_kt_check(fam[:2], fam[2], fam[3:]), 5, 4),
    "rank_from_matrices": (rank_from_matrices, 3, 3),
    "hl_support": (lambda fam: hl_support(fam, 4), 3, 2),
}


@pytest.mark.parametrize("bad, message", [(D([1, -1, 1, 1]), "is not positive semidefinite"),
                                          (Id(3), "is not 4x4")], ids=["non-psd", "wrong-size"])
@pytest.mark.parametrize("name", FAMILY_ENTRY_POINTS)
def test_the_family_check_names_the_bad_member(name, bad, message):
    call, size, position = FAMILY_ENTRY_POINTS[name]
    family = [Id(4)] * size
    call(family)  # the family passes before one member is made bad
    family[position - 1] = bad
    with pytest.raises(ValueError, match=f"^member {position} {message}$"):
        call(family)


def test_certificate_requires_evidence_on_failure():
    with pytest.raises(ValueError):
        Certificate("fails")
    with pytest.raises(ValueError):
        Certificate("maybe")


# ---- criterion_hl ----

def test_criterion_examples():
    assert criterion_hl(HLInstance(2, 0, 0, (D([1, 0]), D([0, 1])))).holds

    cert = criterion_hl(HLInstance(2, 0, 0, (D([1, 0]), D([1, 0]))))
    assert not cert.holds
    assert cert.failing_subset == (1, 2)
    assert cert.rank_deficit == 1

    cert = criterion_hl(HLInstance(3, 1, 1, (D([1, 1, 0]),)))
    assert not cert.holds
    assert cert.failing_subset == (1,)
    assert cert.rank_deficit == 1


def test_criterion_depends_only_on_total_degree():
    for seed in range(20):
        n = 3 + seed % 2
        for total in range(n + 1):
            forms = psd_tuple(seed + 40 * total, n, n - total)
            verdicts = {
                criterion_hl(HLInstance(n, p, total - p, forms)).holds
                for p in range(total + 1)
            }
            assert len(verdicts) == 1


def brute_force_failures(forms, shift):
    """Every (I, deficit) with rank(A_I) < |I| + shift, each A_I summed afresh."""
    out = []
    for size in range(1, len(forms) + 1):
        for subset in combinations(range(1, len(forms) + 1), size):
            total = reduce(add, (forms[i - 1] for i in subset))
            r = mat_rank(total.rows)
            if r < size + shift:
                out.append((subset, size + shift - r))
    return sorted(out, key=lambda f: (len(f[0]), f[0]))


def test_first_failing_subset_order_contract():
    """With several failing subsets, both criteria report the size-then-lex first.

    Slot 2 repeats slot 1, so {1,2} often fails alongside a later
    singleton; there bitmask order and size-then-lex order disagree.
    """
    several = order_sensitive = 0
    for seed in range(30):
        n = 3 + seed % 2
        forms = random_psd_family(700 + seed, n, n, max_rank=2)
        forms[1] = forms[0]
        forms = tuple(forms)
        failures = brute_force_failures(forms, 0)
        positivity = panov_positivity(list(forms))
        assert positivity.positive == (not failures)
        if failures:
            assert (positivity.failing_subset, positivity.rank_deficit) == failures[0]
        crit = criterion_hl(HLInstance(n, 0, 0, forms))
        assert (crit.holds, crit.failing_subset, crit.rank_deficit) == (
            positivity.positive, positivity.failing_subset, positivity.rank_deficit
        )
        for pq in range(3):
            inst = HLInstance(n, pq // 2, pq - pq // 2, forms[: n - pq])
            cert = criterion_hl(inst)
            failures = brute_force_failures(inst.forms, pq)
            assert cert.holds == (not failures)
            if failures:
                assert (cert.failing_subset, cert.rank_deficit) == failures[0]
                first_by_mask = min(failures, key=lambda f: sum(1 << (i - 1) for i in f[0]))
                order_sensitive += first_by_mask != failures[0]
            several += len(failures) >= 2
    assert several >= 40 and order_sensitive >= 5


# ---- direct_hl ----

def test_direct_empty_product_is_identity():
    assert direct_hl(HLInstance(2, 1, 1, ())).holds
    assert direct_hl(HLInstance(3, 2, 1, ())).holds


def test_direct_zero_omega_witness():
    cert = direct_hl(HLInstance(2, 0, 0, (D([1, 0]), D([1, 0]))))
    assert not cert.holds
    w = cert.kernel_witness
    assert w is not None and not w.is_zero()
    assert (w.p, w.q) == (0, 0)


def test_direct_degenerate_kernel_location():
    # Omega = alpha^2 for alpha from diag(1,1,0): the kernel of
    # Omega ^ . on (1,0)-forms is exactly span{dz1, dz2} (dz3 survives).
    a = D([1, 1, 0])
    inst = HLInstance(3, 1, 0, (a, a))
    cert = direct_hl(inst)
    assert not cert.holds
    w = cert.kernel_witness
    assert w.coefficient((3,), ()) == 0
    assert w.coefficient((1,), ()) or w.coefficient((2,), ())
    omega = inst.omega()
    dz3 = PQForm.basis_element(3, (3,), ())
    assert not wedge(omega, dz3).is_zero()
    assert wedge(omega, w).is_zero()


def test_direct_builds_omega_once_on_a_failing_instance(monkeypatch):
    import lefcert.certify as certify_mod

    calls = []
    build = certify_mod._fold

    def counted(*args):
        calls.append(args)
        return build(*args)

    def forbidden(*args):
        raise AssertionError("direct_hl built Omega over Q(i)")

    a = D([1, 1, 0])
    monkeypatch.setattr(certify_mod, "_fold", counted)
    monkeypatch.setattr(HLInstance, "omega", forbidden)
    monkeypatch.setattr(GaussianRational, "__init__", forbidden)
    cert = direct_hl(HLInstance(3, 1, 0, (a, a)))
    assert not cert.holds and cert.kernel_witness is not None
    assert len(calls) == 1


# the 1x1 multiplication matrices are i p and 2 p for the residue prime p,
# so their residue is zero and the exact echelon decides
ZERO_RESIDUE = (
    HLInstance(1, 0, 0, (HermitianMatrix([[_P]]),)),
    HLInstance(2, 0, 0, (HermitianMatrix([[_P, 0], [0, 1]]),) * 2),
)


def _kernel_widths(monkeypatch):
    """Record the column count of every _kernel call."""
    widths = []
    kernel = linalg_mod._kernel

    def counted(re, im, ncols):
        widths.append(ncols)
        return kernel(re, im, ncols)

    monkeypatch.setattr(linalg_mod, "_kernel", counted)
    return widths


def test_direct_holds_from_the_exact_echelon_on_a_zero_residue(monkeypatch):
    widths = _kernel_widths(monkeypatch)
    for inst in ZERO_RESIDUE:
        re, im, _ = _integer_operator_matrix(_fold(inst.n, inst.forms), inst.p, inst.q)
        assert _det_residue(re, im) == (0, 0, [])
        widths.clear()
        assert direct_hl(inst).holds and criterion_hl(inst).holds
        # column 0 has no kernel over Q, so the whole matrix is solved too
        assert widths == [1, len(re)]


def test_direct_solves_a_failing_instance_up_to_the_first_dependent_column(monkeypatch):
    widths = _kernel_widths(monkeypatch)
    failing = truncated = 0
    for seed in range(60):
        n, p = 3 + seed % 2, seed % 2
        q = (seed // 2) % 2
        inst = HLInstance(n, p, q, psd_tuple(seed + 2600, n, n - p - q))
        dim = len(basis_indices(n, p, q))
        widths.clear()
        cert = direct_hl(inst)
        if cert.holds:
            assert widths == []
            continue
        failing += 1
        assert len(widths) == 1 and widths[0] <= dim  # never the fallback
        truncated += widths[0] < dim
        # the witness of the full reduced row echelon kernel, as before
        vectors = kernel_basis(multiplication_matrix(inst.omega(), p, q), dim)
        assert cert.kernel_witness == PQForm.from_coefficient_vector(n, p, q, vectors[0])
    assert failing >= 10 and truncated >= 5


def test_a_singular_pivot_row_set_never_changes_a_verdict(monkeypatch):
    instances = []
    for seed in range(60):
        n, p = 3 + seed % 2, seed % 2
        q = (seed // 2) % 2
        instances.append(HLInstance(n, p, q, psd_tuple(seed + 2600, n, n - p - q)))
    expected = [direct_hl(inst) for inst in instances]
    singular_pivot_rows(monkeypatch)
    raised = 0
    for inst, cert in zip(instances, expected):
        try:
            assert direct_hl(inst) == cert
        except InternalCheckError as err:
            assert "pivot rows are singular" in str(err) and not cert.holds
            raised += 1
    assert raised >= 5


def test_witness_recheck_uses_the_given_omega():
    # the kernel of the degenerate Omega, re-checked against the Omega of
    # (Id, Id), which annihilates no nonzero (1,0)-form
    a = D([1, 1, 0])
    inst = HLInstance(3, 1, 0, (a, a))
    omega = _fold(3, (a, a))
    re, im, _ = _integer_operator_matrix(omega, 1, 0)
    vectors, d = _kernel(re, im, len(re))
    assert not _witness_from_kernel(inst, omega, vectors[0], d).is_zero()
    with pytest.raises(InternalCheckError, match="not annihilated"):
        _witness_from_kernel(inst, _fold(3, (Id(3), Id(3))), vectors[0], d)


def test_witnesses_annihilate_omega():
    found = 0
    for seed in range(60):
        n = 2 + seed % 3
        p = seed % 2
        q = (seed // 2) % 2
        if p + q > n:
            continue
        forms = psd_tuple(seed + 2000, n, n - p - q)
        inst = HLInstance(n, p, q, forms)
        cert = direct_hl(inst)
        if not cert.holds:
            w = cert.kernel_witness
            assert not w.is_zero()
            assert wedge(inst.omega(), w).is_zero()
            found += 1
    assert found >= 5


def test_theorem_equivalence_sample():
    agree = 0
    for seed in range(80):
        n = 2 + seed % 3
        total = seed % (n + 1)
        p = total // 2
        forms = psd_tuple(seed + 5000, n, n - total)
        inst = HLInstance(n, p, total - p, forms)
        assert criterion_hl(inst).holds == direct_hl(inst).holds
        agree += 1
    assert agree == 80


# ---- hr_certify ----

def test_hr_scalar_case():
    inst = HLInstance(2, 0, 0, (Id(2), Id(2)), eta=Id(2))
    cert, space = hr_certify(inst)
    assert cert.holds
    assert len(space.basis) == 1
    # Q(1,1) = c_{0,0} * vol(omega^2) = 2
    assert space.gram.gram[0][0] == GR(2)


def test_hr_classical_surface_case():
    inst = HLInstance(2, 1, 1, (), eta=Id(2))
    cert, space = hr_certify(inst)
    assert cert.holds
    assert len(space.basis) == 3
    assert space.gram.signature() == (3, 0, 0)
    # a PrimitiveSpace compares its Gram by value
    assert hr_certify(inst)[1] == space


def test_hr_fails_with_criterion_witness():
    inst = HLInstance(2, 0, 0, (D([1, 0]), D([1, 0])), eta=Id(2))
    cert, _ = hr_certify(inst)
    assert not cert.holds
    assert cert.failing_subset == (1, 2)


# ---- fault injection: each in-library check fires when one component lies ----

def test_hr_negative_inertia_while_the_criterion_holds_is_an_internal_error(monkeypatch):
    inst = HLInstance(2, 1, 1, (), eta=Id(2))
    assert criterion_hl(inst).holds and hr_certify(inst)[0].holds
    signature = HermitianFormOnSpace.signature

    def one_negative(self):
        npos, nneg, nzero = signature(self)
        return npos - 1, nneg + 1, nzero

    monkeypatch.setattr(HermitianFormOnSpace, "signature", one_negative)
    with pytest.raises(InternalCheckError, match="rank criterion holds"):
        hr_certify(inst)


def test_primitive_basis_element_outside_the_kernel_is_an_internal_error(monkeypatch):
    import lefcert.certify as certify_mod

    inst = HLInstance(2, 1, 1, (), eta=Id(2))
    coupled = _fold(2, (inst.eta,), _fold(2, ()))
    ncols = len(basis_indices(2, 1, 1))
    units = [([int(j == k) for j in range(ncols)], [0] * ncols) for k in range(ncols)]
    stray = next(u for u in units if not _annihilates(coupled, 1, 1, u))
    kernel = certify_mod._kernel

    def with_stray(re, im, ncols):
        vectors, d = kernel(re, im, ncols)
        return vectors + [stray], d

    monkeypatch.setattr(certify_mod, "_kernel", with_stray)
    with pytest.raises(InternalCheckError, match="primitive basis element not annihilated"):
        hr_certify(inst)


def test_hr_eta_rank_precondition():
    with pytest.raises(PreconditionError):
        hr_certify(HLInstance(2, 1, 1, (), eta=D([1, 0])))
    with pytest.raises(ValueError):
        hr_certify(HLInstance(2, 1, 1, ()))


def test_hr_matches_criterion_on_samples():
    checked = 0
    for seed in range(40):
        n = 2 + seed % 2
        total = seed % (n + 1)
        p = total // 2
        forms = psd_tuple(seed + 7000, n, n - total)
        inst = HLInstance(n, p, total - p, forms, eta=Id(n))
        cert, space = hr_certify(inst)
        assert cert.holds == criterion_hl(inst).holds
        if cert.holds:
            assert direct_hl(HLInstance(n, p, total - p, forms)).holds
        checked += 1
    assert checked == 40


def test_hr_gram_is_hermitian():
    rng = SplitMix64(0xBEEF)
    for seed in range(10):
        forms = psd_tuple(seed + 8000, 3, 1)
        inst = HLInstance(3, 1, 1, forms, eta=Id(3))
        _, space = hr_certify(inst)
        g = space.gram.gram
        for a in range(len(g)):
            for b in range(len(g)):
                assert g[a][b] == g[b][a].conjugate()


def oracle_gram_on_basis(omega, basis, p, q):
    """Gram of Q(Phi,Psi) = c_{p,q} * vol(Omega ^ Phi ^ conj(Psi)), one full wedge per entry."""
    c = cpq_constant(p, q)
    partial = [wedge(omega, phi) for phi in basis]
    conjs = [conjugate_form(phi) for phi in basis]
    k = len(basis)
    gram = [[c * volume_scalar(wedge(partial[a], conjs[b])) for b in range(k)]
            for a in range(k)]
    for a in range(k):
        for b in range(k):
            assert gram[a][b] == gram[b][a].conjugate()
    return gram


def test_hr_gram_equals_the_wedge_oracle():
    """The Z[i] pairing product gives the wedge-loop Gram entry for entry."""
    cases = [(3, 1, 0), (3, 1, 1), (3, 2, 1), (4, 1, 0), (4, 1, 1), (4, 2, 1), (4, 2, 2),
             (5, 1, 1), (5, 2, 0), (5, 2, 1)]
    verdicts = {}
    for idx, (n, p, q) in enumerate(cases):
        for seed in range(2 if n == 5 else 4):
            # even seeds shift the forms to full rank (HR holds); odd seeds cap
            # every rank at p + q, so each singleton fails the criterion
            forms = random_psd_family(13000 + 10 * idx + seed, n, n - p - q,
                                      max_rank=p + q if seed % 2 else None)
            if not seed % 2:
                forms = [a + Id(n) for a in forms]
            eta = random_psd_family(14000 + 10 * idx + seed, n, 1)[0] + Id(n)
            inst = HLInstance(n, p, q, tuple(forms), eta=eta)
            cert, space = hr_certify(inst)
            oracle = oracle_gram_on_basis(inst.omega(), space.basis, p, q)
            assert [list(row) for row in space.gram.gram] == oracle
            k = len(space.basis)
            assert cert.holds == (hermitian_signature(oracle) == (k, 0, 0))
            verdicts.setdefault((n, p, q), set()).add(cert.verdict)
    for (n, p, q), seen in verdicts.items():
        assert seen == ({"holds"} if p + q == n else {"holds", "fails"})


def test_lefschetz_trivial_image_for_zero_bidegree():
    inst = HLInstance(2, 0, 0, (Id(2), Id(2)), eta=Id(2))
    image, prim, dims = lefschetz_decomposition(inst)
    assert dims == (0, 1)
    assert image == ()


def test_lefschetz_surface_dims():
    inst = HLInstance(2, 1, 1, (), eta=Id(2))
    _, _, dims = lefschetz_decomposition(inst)
    assert dims == (1, 3)


def test_lefschetz_threefold_dims():
    inst = HLInstance(3, 1, 1, (Id(3),), eta=Id(3))
    _, _, dims = lefschetz_decomposition(inst)
    assert dims == (1, 8)


def test_lefschetz_requires_hl():
    inst = HLInstance(2, 0, 0, (D([1, 0]), D([1, 0])), eta=Id(2))
    with pytest.raises(PreconditionError):
        lefschetz_decomposition(inst)


def test_lefschetz_orthogonality_product_catches_a_non_primitive_vector(monkeypatch):
    """Adding an image vector to a primitive one keeps the span and the
    dimensions, but Q(eta ^ e, phi + eta ^ e) = Q(eta ^ e, eta ^ e) != 0."""
    import lefcert.certify as certify_mod

    inst = HLInstance(3, 1, 1, (Id(3),), eta=Id(3))
    image, prim, _ = lefschetz_decomposition(inst)
    omega = inst.omega()
    doctored = (prim[0] + image[0],) + prim[1:]
    oracle = oracle_gram_on_basis(omega, image + doctored, 1, 1)
    assert oracle[0][1] != 0 and oracle[1][0] != 0
    assert all(oracle[0][1 + b] == 0 for b in range(1, len(prim)))

    build = certify_mod._primitive_space

    def non_primitive(inst):
        omega, basis, vectors, d = build(inst)
        vr, vi = vectors[0]
        (er, ei), den = integer_vector(image[0])
        # d * (phi + eta ^ e) = d * phi + d * eta ^ e, as Gaussian integers over den
        dr, di = d
        bad = ([den * a + dr * x - di * y for a, x, y in zip(vr, er, ei)],
               [den * b + dr * y + di * x for b, x, y in zip(vi, er, ei)])
        return omega, doctored, [bad] + vectors[1:], d

    monkeypatch.setattr(certify_mod, "_primitive_space", non_primitive)
    with pytest.raises(InternalCheckError, match="not Q-orthogonal"):
        lefschetz_decomposition(inst)


# ---- Lorentzian signatures ----

def test_lorentzian_examples():
    assert lorentzian_signature([], n=2) == (1, 3, 0)
    assert lorentzian_signature([Id(3)]) == (1, 8, 0)
    sig = lorentzian_signature([D([1, 1, 0])])
    assert sig == (1, 5, 3)
    assert sig != (1, 8, 0)


def test_lorentzian_needs_dimension_for_empty_list():
    with pytest.raises(ValueError):
        lorentzian_signature([])


def test_lorentzian_iff_rank_criterion_diagonal_exhaustive():
    # n = 3: one diagonal PSD factor; Lorentzian signature iff rank >= 3
    for ranks in range(4):
        d = D([1] * ranks + [0] * (3 - ranks))
        sig = lorentzian_signature([d])
        assert (sig == (1, 8, 0)) == (ranks >= 3)


def test_lorentzian_random_matches_criterion():
    for seed in range(12):
        (a,) = random_psd_family(seed + 9000, 3, 1)
        sig = lorentzian_signature([a])
        assert (sig == (1, 8, 0)) == (a.rank() >= 3)


def test_hermitian_real_basis_spans():
    from lefcert.linalg import mat_rank

    basis = hermitian_real_basis(3)
    assert len(basis) == 9
    flat = [[m.rows[i][j] for i in range(3) for j in range(3)] for m in basis]
    assert mat_rank(flat) == 9


def oracle_lorentzian_gram(forms, n):
    """Gram of (A,B) -> D(A,B,A_1,...,A_{n-2}) on hermitian_real_basis(n), one mixed
    discriminant (2^n subset determinants) per entry of the upper triangle."""
    basis = hermitian_real_basis(n)
    dim = len(basis)
    gram = [[None] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a, dim):
            gram[a][b] = gram[b][a] = mixed_discriminant([basis[a], basis[b]] + list(forms))
    return gram


@pytest.mark.parametrize("n", [3, 4])
def test_lorentzian_gram_equals_the_mixed_discriminant_oracle(n):
    samples = [random_psd_family(15000 + 10 * n + seed, n, n - 2) for seed in range(3 if n == 3 else 1)]
    samples.append([D([1] * (n - 1) + [0])] * (n - 2))  # rank n-1: not Lorentzian
    samples.append([Id(n)] * (n - 2))
    for forms in samples:
        rows, den = _intersection_gram(_fold(n, forms), _real_basis_vectors(n))
        oracle = oracle_lorentzian_gram(forms, n)
        scale = den * factorial(n)
        assert [[Fraction(x, scale) for x in row] for row in rows] == oracle
        assert lorentzian_signature(forms, n) == hermitian_signature(oracle)
    assert lorentzian_signature(samples[-2], n) != (1, n * n - 1, 0)


# ---- Hodge index ----

def test_hodge_index_surface_example():
    assert hodge_index_check([], Id(2), D([1, -1]))


def test_hodge_index_equality_case():
    assert hodge_index_check([], Id(2), HermitianMatrix.zero(2))


def test_hodge_index_precondition_errors():
    with pytest.raises(PreconditionError):
        hodge_index_check([], D([1, -1]), Id(2))  # Q(alpha,alpha) = -2
    with pytest.raises(PreconditionError):
        hodge_index_check([], Id(2), Id(2))  # not Q-orthogonal


def test_hodge_index_random_samples():
    from lefcert.discriminant import mixed_discriminant
    from math import factorial

    rng = SplitMix64(0x1DEA)
    checked = 0
    while checked < 30:
        n = 2 + rng.integer(0, 2)
        forms = psd_tuple(rng.integer(0, 10**6), n, n - 2)
        alpha = Id(n)
        beta0 = D([rng.integer(-2, 2) for _ in range(n)])
        qab = mixed_discriminant([alpha, beta0] + list(forms))
        qaa = mixed_discriminant([alpha, alpha] + list(forms))
        if qaa <= 0:
            continue
        # project beta0 Q-orthogonally against alpha
        beta = beta0.scale(qaa) + alpha.scale(-qab)
        assert hodge_index_check(forms, alpha, beta)
        checked += 1


def oracle_hodge_index_check(forms, alpha, beta):
    """hodge_index_check with Q(x,y) = n! * mixed_discriminant([x, y] + forms)."""
    forms = list(forms)
    n = alpha.n

    def q(x, y):
        return factorial(n) * mixed_discriminant([x, y] + forms)

    if q(alpha, alpha) <= 0:
        raise PreconditionError("Q(alpha,alpha) must be positive")
    if q(alpha, beta) != 0:
        raise PreconditionError("alpha and beta must be Q-orthogonal")
    qbb = q(beta, beta)
    vanishes = wedge_many([form_from_matrix(a) for a in forms + [beta]], n).is_zero()
    return qbb <= 0 and ((qbb == 0) == vanishes)


@pytest.mark.parametrize("n", [3, 4])
def test_hodge_index_pairing_equals_the_mixed_discriminant_oracle(n):
    rng = SplitMix64(0x4D1C + n)
    outcomes = []
    for seed in range(8 if n == 3 else 4):
        forms = psd_tuple(16000 + 10 * n + seed, n, n - 2)
        alpha = random_hermitian(16100 + seed, n) if seed % 4 == 3 else Id(n)
        beta0 = random_hermitian(16200 + seed, n)
        if seed % 3 == 2:  # rational entries: the vectors carry their own denominators
            beta0 = beta0.scale(Fraction(1, 3))
        mats = [alpha, beta0]
        vectors, dens = zip(*(integer_vector(form_from_matrix(m)) for m in mats))
        rows, den = _intersection_gram(_fold(n, forms), vectors)
        for a, x in enumerate(mats):
            for b, y in enumerate(mats):
                exact = Fraction(rows[a][b], den * dens[a] * dens[b])
                assert exact == factorial(n) * mixed_discriminant([x, y] + list(forms))
        qaa = factorial(n) * mixed_discriminant([alpha, alpha] + list(forms))
        qab = factorial(n) * mixed_discriminant([alpha, beta0] + list(forms))
        for beta in (beta0, beta0.scale(qaa) + alpha.scale(-qab)):
            try:
                expected = oracle_hodge_index_check(forms, alpha, beta)
            except PreconditionError as exc:
                with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                    hodge_index_check(forms, alpha, beta)
                outcomes.append("precondition")
                continue
            assert hodge_index_check(forms, alpha, beta) == expected
            outcomes.append(expected)
    assert True in outcomes and "precondition" in outcomes


# ---- products preserve HL ----

def test_products_trivial_cases():
    assert products_preserve_hl((Id(3),), (Id(3),), 3)
    assert products_preserve_hl((), (Id(2), Id(2)), 2)
    assert products_preserve_hl((), (), 3)


def test_products_precondition():
    with pytest.raises(PreconditionError):
        products_preserve_hl((D([1, 0, 0]),), (), 3)  # rank 1 < 1 + (3-1)


def test_products_random_filtered():
    checked = 0
    seed = 0
    while checked < 25 and seed < 400:
        seed += 1
        n = 3 + seed % 2
        k = 1 + seed % 2
        l = 1 + (seed // 2) % 2
        if k + l > n:
            continue
        fa = psd_tuple(seed + 11000, n, k)
        fb = psd_tuple(seed + 12000, n, l)
        if seed % 2:
            # bias toward instances that satisfy the HL preconditions
            fa = tuple(a + Id(n) for a in fa)
            fb = tuple(b + Id(n) for b in fb)
        try:
            assert products_preserve_hl(fa, fb, n)
        except PreconditionError:
            continue
        checked += 1
    assert checked >= 25


# ---- laziness of the subset walk and independence of the two routes ----

def _recording(monkeypatch):
    """Record every sum the integer subset walk builds and the rows of every rank it takes.

    Sums and ranked matrices are (re, im) rows over the family's common
    denominator; ranked rows are copied before the elimination runs.
    """
    built, ranked = [], []
    add_rows, inertia = discriminant_mod._add, discriminant_mod._inertia

    def recording_add(a, b):
        built.append(add_rows(a, b))
        return built[-1]

    def recording_inertia(re, im):
        ranked.append((tuple(map(tuple, re)), tuple(map(tuple, im))))
        return inertia(re, im)

    monkeypatch.setattr(discriminant_mod, "_add", recording_add)
    monkeypatch.setattr(discriminant_mod, "_inertia", recording_inertia)
    return built, ranked


def _cleared(mat):
    re, im, _ = mat._cleared
    return re, im


def test_criterion_builds_no_sum_beyond_the_ranked_subsets(monkeypatch):
    # ten 10x10 forms whose first is zero: the scan stops at I = (1,)
    forms = (HermitianMatrix.zero(10),) + psd_tuple(11, 10, 9)
    inst = HLInstance(10, 0, 0, forms)
    built, ranked = _recording(monkeypatch)
    cert = criterion_hl(inst)
    assert (cert.failing_subset, cert.rank_deficit) == ((1,), 1)
    # I = (1,) reads its member's cached inertia: nothing is summed or eliminated
    assert built == [] and ranked == [] and len(discriminant_mod._last.results) == 1


def test_criterion_builds_only_the_sums_it_ranks(monkeypatch):
    # singletons pass, I = (1, 2) is the first failure; A_{1,2} is the one sum built
    line = HermitianMatrix([[1, I, 0, 0], [-I, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    forms = (line, line, Id(4), Id(4))
    built, ranked = _recording(monkeypatch)
    cert = criterion_hl(HLInstance(4, 0, 0, forms))
    assert (cert.failing_subset, cert.rank_deficit) == ((1, 2), 1)
    # the four singletons read their members' cached inertia; A_{1,2} is the one elimination
    assert len(discriminant_mod._last.results) == 5 and len(ranked) == 1
    assert len(built) == 1 and built[0] == ranked[0] == _cleared(line + line)


def test_determinant_route_never_reads_the_rank_code(monkeypatch):
    import lefcert.certify as certify_mod
    import lefcert.linalg as linalg_mod
    from lefcert.linalg import kernel_basis, mat_det

    instances = [
        HLInstance(2, 0, 0, (D([1, 0]), D([0, 1]))),
        HLInstance(2, 0, 0, (D([1, 0]), D([1, 0]))),
        HLInstance(3, 1, 1, (D([1, 1, 0]),)),
        ZERO_RESIDUE[0],
        HLInstance(5, 1, 1, psd_tuple(102, 5, 3)),  # fails, a 25x25 matrix
    ]
    for seed in range(12):
        n, p = 3 + seed % 2, seed % 2
        instances.append(HLInstance(n, p, 0, psd_tuple(seed + 600, n, n - p)))

    def routes():
        out = []
        for inst in instances:
            matrix = multiplication_matrix(inst.omega(), inst.p, inst.q)
            out.append((mat_det(matrix), kernel_basis(matrix, len(matrix)), direct_hl(inst)))
        return out

    expected = routes()
    assert {cert.verdict for _, _, cert in expected} == {"holds", "fails"}

    def forbidden(*args, **kwargs):
        raise AssertionError("the determinant route read the rank code")

    monkeypatch.setattr(linalg_mod, "mat_rank", forbidden)
    monkeypatch.setattr(linalg_mod, "_rank", forbidden)
    monkeypatch.setattr(certify_mod, "_rank", forbidden)
    monkeypatch.setattr(HermitianMatrix, "rank", forbidden)
    # nor the Hermitian kernel the subset walks rank and determine with
    for module in (linalg_mod, certify_mod, discriminant_mod):
        monkeypatch.setattr(module, "_inertia", forbidden)
    monkeypatch.setattr(HermitianMatrix, "_elimination", forbidden)
    assert routes() == expected


def test_wedge_route_never_reads_the_rank_code(monkeypatch):
    import lefcert.certify as certify_mod
    from lefcert.discriminant import intersection_number

    families = [psd_tuple(seed + 4100, 2 + seed % 5, 2 + seed % 5) for seed in range(15)]
    families += [(D([1, 0]), D([0, 1])), (D([1, 0]), D([1, 0])),
                 (HermitianMatrix.zero(3), Id(3), Id(3))]
    instances = [HLInstance(len(forms), p, q, forms[:len(forms) - p - q])
                 for forms in families for p, q in ((0, 0), (1, 0), (1, 1)) if p + q < len(forms)]

    def routes():
        return ([intersection_number(forms) for forms in families],
                [inst.omega() for inst in instances])

    expected = routes()
    numbers = expected[0]
    assert any(numbers) and not all(numbers)
    assert any(a.rank() == 0 for forms in families for a in forms)

    def forbidden(*args, **kwargs):
        raise AssertionError("the wedge route read the rank code")

    for module in (linalg_mod, certify_mod, discriminant_mod):
        monkeypatch.setattr(module, "_inertia", forbidden)
    monkeypatch.setattr(discriminant_mod, "_table", forbidden)
    monkeypatch.setattr(linalg_mod, "_rank", forbidden)
    monkeypatch.setattr(certify_mod, "_rank", forbidden)
    monkeypatch.setattr(linalg_mod, "mat_rank", forbidden)
    monkeypatch.setattr(HermitianMatrix, "rank", forbidden)
    monkeypatch.setattr(HermitianMatrix, "_elimination", forbidden)
    assert routes() == expected


def test_rank_routes_never_read_the_general_elimination(monkeypatch):
    import lefcert.linalg as linalg_mod

    def entries(mats):
        return [a.rows for a in mats]

    cases = []
    for seed in range(8):
        n = 3 + seed % 2
        cases.append((n, seed % 2,
                      entries(psd_tuple(seed + 610, n, n - 1 - seed % 2)),
                      entries(random_psd_family(seed + 3200, n, 2 + seed % 2)),
                      entries(random_psd_family(seed + 3300, n, n, max_rank=1 + seed % n)),
                      entries(random_hermitian(seed + 3400 + k, n) for k in range(n))))

    def build(rows):
        return [HermitianMatrix(r) for r in rows]

    def verdicts():
        # matrices built afresh on every call, so no cached inertia hides an elimination
        out = []
        for n, p, forms, family, psd, indefinite in cases:
            out.append(criterion_hl(HLInstance(n, p, 1, tuple(build(forms)))))
            out.append(rank_from_matrices(build(family)).values)
            out.append(hl_support(build(family), n))
            out.append(panov_positivity(build(psd)))
            out.append(mixed_discriminant(build(indefinite)))
        out.append(mixed_discriminant([HermitianMatrix([[0, 1], [1, 0]]), D([1, -1])]))
        return out

    expected = verdicts()
    assert {c.verdict for c in expected[0:40:5]} == {"holds", "fails"}
    assert {c.positive for c in expected[3:40:5]} == {True, False}

    def forbidden(*args, **kwargs):
        raise AssertionError("a subset walk ran the general elimination")

    monkeypatch.setattr(linalg_mod, "_eliminate", forbidden)
    monkeypatch.setattr(discriminant_mod, "_eliminate", forbidden, raising=False)
    assert verdicts() == expected


def _counted_scalars(monkeypatch):
    """A one-element list that counts every GaussianRational built from now on."""
    count = [0]
    init = GaussianRational.__init__

    def counting(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(GaussianRational, "__init__", counting)
    return count


def test_hr_verdict_and_subset_walk_build_no_qi_scalars(monkeypatch):
    cases = []
    for seed in range(4):
        forms = tuple(a + HermitianMatrix.identity(4) for a in random_psd_family(seed, 4, 2))
        eta = HermitianMatrix.identity(4)
        cases.append((HLInstance(4, 1, 1, forms, eta=eta), forms + (eta,)))
    count = _counted_scalars(monkeypatch)
    cpq_constant(1, 1)
    allowed, count[0] = count[0], 0
    for inst, mats in cases:
        cert, space = hr_certify(inst)
        assert cert.holds and len(space.basis) == 15
        # the bidegree constant c_{1,1} is the only Q(i) scalar on the verdict
        assert count[0] <= allowed
        count[0] = 0
        assert len(list(subset_sums(mats))) == 7 and count[0] == 0


def test_route_paths_build_no_qi_scalars(monkeypatch):
    # direct_hl and lefschetz_decomposition read the Z[i] rows and return
    # forms that hold Z[i] terms, so no GaussianRational is ever built
    direct, split = [], []
    for seed in range(12):
        for n in (3, 4):
            for p, q in ((1, 0), (0, 1), (1, 1), (2, 1)):
                if p + q > n:
                    continue
                *forms, eta = random_psd_family(seed, n, n - p - q + 1)
                inst = HLInstance(n, p, q, tuple(forms), eta=eta)
                direct.append((inst, direct_hl(inst)))
                try:
                    split.append((inst, lefschetz_decomposition(inst)))
                except PreconditionError:
                    pass
    verdicts = {cert.verdict for _, cert in direct}
    assert verdicts == {"holds", "fails"} and any(dims[0] for _, (_, _, dims) in split)

    def forbidden(*args, **kwargs):
        raise AssertionError("a GaussianRational was built on a route path")

    monkeypatch.setattr(GaussianRational, "__init__", forbidden)
    for inst, expected in direct:
        assert direct_hl(inst) == expected
    for inst, expected in split:
        assert lefschetz_decomposition(inst) == expected
