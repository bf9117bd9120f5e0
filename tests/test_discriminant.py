from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest

import lefcert.discriminant as discriminant_mod
import lefcert.linalg as linalg_mod
from lefcert.certify import HLInstance, criterion_hl, hr_certify
from lefcert.discriminant import (
    intersection_number,
    mixed_discriminant,
    panov_positivity,
    rank_deficient_subset,
    reverse_kt_check,
    subsets_size_lex,
)
from lefcert.linalg import (
    HermitianMatrix,
    InternalCheckError,
    _copy_rows,
    _gaussian_integer_rows,
    _inertia,
    _lift,
    is_m_positive,
    mat_det,
    mat_rank,
)
from lefcert.polymatroid import hl_support, rank_from_matrices
from lefcert.rationals import GR, ZERO, GaussianRational, Rat, as_rat

from conftest import non_real_diagonal, random_hermitian, random_psd_family, subset_sums
from lefcert.generate import SplitMix64

D = HermitianMatrix.diagonal
Id = HermitianMatrix.identity


def _permanent(rows):
    n = len(rows)
    total = as_rat(0)
    for sigma in permutations(range(n)):
        prod = as_rat(1)
        for i in range(n):
            prod *= rows[i][sigma[i]]
        total += prod
    return total


# ---- mixed_discriminant ----

def test_mixed_discriminant_examples():
    assert mixed_discriminant([Id(3)] * 3) == 1
    assert mixed_discriminant([D([1, 0]), D([0, 1])]) == as_rat(1) / 2
    rows = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert mixed_discriminant([D(r) for r in rows]) == as_rat(1) / 3


def test_mixed_discriminant_arity_errors():
    with pytest.raises(ValueError):
        mixed_discriminant([Id(2)])
    with pytest.raises(ValueError):
        mixed_discriminant([Id(2), Id(3)])


def test_equal_arguments_give_determinant():
    for seed in range(10):
        (m,) = random_psd_family(seed, 3, 1)
        d = m.det()
        assert not d.im
        assert mixed_discriminant([m] * 3) == d.re


def test_diagonal_tuples_match_permanent_oracle():
    rng = SplitMix64(0xD15C)
    for _ in range(25):
        n = 2 + rng.integer(0, 3)
        rows = [[as_rat(rng.integer(0, 3)) for _ in range(n)] for _ in range(n)]
        mats = [D(r) for r in rows]
        assert mixed_discriminant(mats) * factorial(n) == _permanent(rows)


def test_symmetry():
    rng = SplitMix64(0x51CC)
    for seed in range(10):
        mats = random_psd_family(seed + 30, 3, 3)
        base = mixed_discriminant(mats)
        for _ in range(3):
            order = sorted(range(3), key=lambda _: rng.next_u64())
            assert mixed_discriminant([mats[i] for i in order]) == base


def test_multilinearity():
    for seed in range(10):
        a, b, c, c2 = random_psd_family(seed + 70, 3, 4)
        lhs = mixed_discriminant([a, b, c + c2])
        rhs = mixed_discriminant([a, b, c]) + mixed_discriminant([a, b, c2])
        assert lhs == rhs
        assert mixed_discriminant([a.scale(3), b, c]) == 3 * mixed_discriminant([a, b, c])


def test_subset_sums_bookkeeping():
    mats = [D([1, 0]), D([0, 1])]
    assert list(subset_sums(mats)) == [((1,), mats[0]), ((2,), mats[1]), ((1, 2), Id(2))]
    assert list(subset_sums([])) == []
    sums = dict(subset_sums(random_psd_family(7, 3, 4)))
    assert list(sums) == list(subsets_size_lex(4))
    for subset, s in sums.items():
        if len(subset) > 1:
            assert s == sums[subset[:-1]] + sums[subset[-1:]]


# ---- the integer subset lattice against the HermitianMatrix.__add__ oracles ----

def _oracle_sums(mats):
    """{I: A_I} by HermitianMatrix.__add__, A_I = A_{I minus max I} + A_{max I}."""
    built = {}
    for subset in subsets_size_lex(len(mats)):
        *head, last = subset
        built[subset] = built[tuple(head)] + mats[last - 1] if head else mats[last - 1]
    return built


def _oracle_mixed_discriminant(mats):
    """D by inclusion-exclusion over mat_det of the __add__ sums."""
    n = len(mats)
    total = ZERO
    for subset, s in _oracle_sums(mats).items():
        d = mat_det(s.rows)
        total = total - d if (n - len(subset)) % 2 else total + d
    value = total / GR(factorial(n))
    assert not value.im
    return value.re


def _oracle_first_deficit(mats, shift):
    for subset, s in _oracle_sums(mats).items():
        need = len(subset) + shift
        if mat_rank(s.rows) < need:
            return subset, need - mat_rank(s.rows)
    return None


def _mixed_denominator_family(seed, n, count):
    """PSD matrices c * B B^H, B of random rank with entries in Q(i) over 1, 3 and 6,
    c in {1, 1/3, 1/6}: the members' denominators differ and most entries are complex."""
    rng = SplitMix64(seed * 0x5DEECE66D + 11)
    dens = (1, 3, 6)
    mats = []
    for _ in range(count):
        r = rng.integer(0, n)
        b = [[GaussianRational(Fraction(rng.integer(-3, 3), dens[rng.integer(0, 2)]),
                               Fraction(rng.integer(-3, 3), dens[rng.integer(0, 2)]))
              for _ in range(r)] for _ in range(n)]
        mat = HermitianMatrix.from_generator(b) if r else HermitianMatrix.zero(n)
        mats.append(mat.scale(Fraction(1, dens[rng.integer(0, 2)])))
    return mats


FAMILIES = [(seed, n) for n in (2, 3, 4, 5) for seed in range(6)]


def test_mixed_denominator_families_exercise_the_lift():
    lifted = complex_entries = positive = 0
    for seed, n in FAMILIES:
        mats = _mixed_denominator_family(seed, n, n)
        lifted += len({a._cleared[2] for a in mats}) > 1
        complex_entries += any(x.im for a in mats for row in a.rows for x in row)
        positive += mixed_discriminant(mats) > 0
    assert min(lifted, complex_entries) >= len(FAMILIES) * 3 // 4
    assert 0 < positive < len(FAMILIES)


@pytest.mark.parametrize("seed, n", FAMILIES)
def test_integer_walk_matches_add_oracle(seed, n):
    mats = _mixed_denominator_family(seed, n, n)
    oracle = _oracle_sums(mats)
    sums = list(subset_sums(mats))
    assert [subset for subset, _ in sums] == list(oracle)
    assert all(s == oracle[subset] for subset, s in sums)
    ranks = {subset: mat_rank(s.rows) for subset, s in oracle.items()}
    table = rank_from_matrices(mats).values
    assert table == {frozenset(): 0, **{frozenset(k): r for k, r in ranks.items()}}
    for shift in range(3):
        assert rank_deficient_subset(mats, shift) == _oracle_first_deficit(mats, shift)
    d = mixed_discriminant(mats)
    assert type(d) is type(Rat(0)) and d == _oracle_mixed_discriminant(mats)
    assert panov_positivity(mats).positive == (d > 0)


def test_integer_walk_matches_add_oracle_on_non_psd_tuples():
    rng = SplitMix64(0xAD0)
    for seed in range(12):
        n = 2 + seed % 4
        mats = [a.scale(Fraction(1, 1 + rng.integer(0, 5))) for a in
                [random_hermitian(seed * 7 + k, n) for k in range(n)]]
        assert mixed_discriminant(mats) == _oracle_mixed_discriminant(mats)
        assert dict(subset_sums(mats)) == _oracle_sums(mats)


def _exercise_shared(mats):
    """Every consumer of the cached clearing, on the shared matrix objects."""
    n = len(mats)
    for a in mats:
        a.rank()
        a.is_psd()
    criterion_hl(HLInstance(n, 0, 0, tuple(mats)))
    criterion_hl(HLInstance(n, 1, 0, (mats[0],) * (n - 1)))
    panov_positivity(mats)
    mixed_discriminant(mats)
    rank_from_matrices(mats)
    rank_from_matrices(mats[::-1] + mats[:1])


@pytest.mark.parametrize("seed, n", FAMILIES[::3])
def test_cached_clearing_survives_every_consumer(seed, n):
    mats = _mixed_denominator_family(seed + 40, n, n)
    _exercise_shared(mats)
    for a in mats:
        re, im, den = _gaussian_integer_rows(a.rows)
        assert a._cleared == (tuple(map(tuple, re)), tuple(map(tuple, im)), den)


def test_each_matrix_is_cleared_once(monkeypatch):
    built, cleared = [], []
    init, clear = HermitianMatrix.__init__, linalg_mod._gaussian_integer_rows
    generate = HermitianMatrix.from_generator.__func__

    def counting_init(self, entries):
        built.append(entries)
        init(self, entries)

    def counting_generator(cls, b_rows):
        built.append(b_rows)
        return generate(cls, b_rows)

    def counting(rows, *args, **kwargs):
        cleared.append(rows)
        return clear(rows, *args, **kwargs)

    def forbidden(*args):
        raise AssertionError("the subset lattice left the integer walk")

    monkeypatch.setattr(HermitianMatrix, "__init__", counting_init)
    monkeypatch.setattr(HermitianMatrix, "from_generator", classmethod(counting_generator))
    monkeypatch.setattr(linalg_mod, "_gaussian_integer_rows", counting)
    mats = _mixed_denominator_family(77, 4, 4) + [Id(4)] * 2
    # one clearing per construction, of the constructor's own argument, and no other
    assert len(cleared) == len(built) >= 5
    assert all(rows is own for rows, own in zip(cleared, built))
    for a in mats:
        re, im, den = clear(a.rows)
        assert a._cleared == (tuple(map(tuple, re)), tuple(map(tuple, im)), den)
    del built[:], cleared[:]
    for name in ("mat_det", "mat_rank", "hermitian_signature"):
        monkeypatch.setattr(linalg_mod, name, forbidden)
    monkeypatch.setattr(HermitianMatrix, "__add__", forbidden)
    _exercise_shared(mats[:4])
    _exercise_shared(mats[2:])
    hl_support(mats[:3], 4)
    for a in mats:
        a.det()
    is_m_positive(mats[0], mats[-1], 2)
    hr_certify(HLInstance(4, 1, 1, tuple(mats[:2]), eta=mats[-1]))
    assert len(list(subset_sums(mats[:4]))) == 15
    # every path reads the rows cleared at construction, pencils and sums too
    assert cleared == [] and built == []


# ---- intersection numbers ----

def test_intersection_number_examples():
    assert intersection_number([Id(2)] * 2) == 2
    assert intersection_number([D([1, 0]), D([0, 1])]) == 1
    assert intersection_number([D([1, 0]), D([1, 0])]) == 0


def test_wedge_path_matches_determinant_path():
    # two independent evaluation routes: top wedge product vs inclusion-exclusion
    count = 0
    for seed in range(60):
        n = 2 + seed % 3
        mats = random_psd_family(seed + 500, n, n)
        assert intersection_number(mats) == factorial(n) * mixed_discriminant(mats)
        count += 1
    assert count == 60


# ---- positivity criterion ----

def test_panov_examples():
    cert = panov_positivity([Id(3)] * 3)
    assert cert.positive and cert.failing_subset is None

    cert = panov_positivity([D([1, 0]), D([1, 0])])
    assert not cert.positive
    assert cert.failing_subset == (1, 2)
    assert cert.rank_deficit == 1

    rows = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert panov_positivity([D(r) for r in rows]).positive


@pytest.mark.parametrize("mats, positive", [
    ([Id(3)] * 3, True),
    ([D([1, 0, 0]), D([1, 0, 0]), Id(3)], False),
    (random_psd_family(905, 4, 4, max_rank=1), False),
    ([a + Id(4) for a in random_psd_family(906, 4, 4)], True),
])
def test_panov_positivity_eliminates_each_subset_sum_once(monkeypatch, mats, positive):
    for a in mats:
        a.is_psd()  # fill the members' caches, so every count below is the walk's
    calls = []
    inertia = linalg_mod._inertia

    def counting(*args):
        calls.append(args)
        return inertia(*args)

    monkeypatch.setattr(linalg_mod, "_inertia", counting)
    monkeypatch.setattr(discriminant_mod, "_inertia", counting)
    monkeypatch.setattr(discriminant_mod, "_last", None)  # the module-level mats may be memoised
    assert panov_positivity(mats).positive == positive
    # a singleton's inertia is its member's cached one, so only the sums are eliminated
    assert len(calls) == 2 ** len(mats) - 1 - len(mats)


def _low_rank_families():
    """Seeded PSD families with zero members and one low-rank member repeated, both verdicts present."""
    for seed in range(24):
        n = 2 + seed % 3
        mats = random_psd_family(seed + 4700, n, n, max_rank=1 + seed % 2)
        if seed % 3 == 0:
            mats[seed % n] = HermitianMatrix.zero(n)
        if seed % 4 == 1:
            mats[-1] = mats[0]
        yield mats
    yield [Id(3), HermitianMatrix.zero(3), Id(3)]
    yield [D([1, 1, 0])] * 3
    yield [Id(3)] * 3


def test_panov_positivity_reads_the_rank_deficient_subset():
    verdicts = set()
    for mats in _low_rank_families():
        failing = rank_deficient_subset(_fresh(mats), 0)  # a cold table of its own
        cert = panov_positivity(mats)
        assert (cert.failing_subset, cert.rank_deficit) == (failing or (None, None))
        assert cert.positive == (failing is None)
        verdicts.add(cert.positive)
    assert verdicts == {True, False}


# ---- one subset table per family ----

def _counted_walk(monkeypatch):
    """A cold subset table, and the list that records each elimination the walk makes."""
    calls = []
    inertia = discriminant_mod._inertia

    def counting(*args):
        calls.append(args)
        return inertia(*args)

    monkeypatch.setattr(discriminant_mod, "_inertia", counting)
    monkeypatch.setattr(discriminant_mod, "_last", None)
    return calls


def _fresh(mats):
    """Value-equal copies of mats, as new objects."""
    return [HermitianMatrix(a.rows) for a in mats]


@pytest.mark.parametrize("seed, n", [(0, 2), (1, 3), (2, 4), (3, 4)])
def test_positivity_and_discriminant_share_one_walk(monkeypatch, seed, n):
    mats = random_psd_family(seed + 4100, n, n)
    cold = panov_positivity(_fresh(mats)), mixed_discriminant(_fresh(mats))
    calls = _counted_walk(monkeypatch)
    assert (panov_positivity(mats), mixed_discriminant(mats)) == cold
    assert len(calls) == 2 ** n - 1 - n
    # the same members in another list are the same family
    assert mixed_discriminant(tuple(mats)) == cold[1] and len(calls) == 2 ** n - 1 - n


@pytest.mark.parametrize("seed, n, m", [(0, 3, 2), (1, 4, 3), (2, 4, 4)])
def test_rank_table_and_hl_support_share_one_walk(monkeypatch, seed, n, m):
    mats = random_psd_family(seed + 4200, n, m)
    cold = rank_from_matrices(_fresh(mats)), hl_support(_fresh(mats), n)
    calls = _counted_walk(monkeypatch)
    assert (rank_from_matrices(mats), hl_support(mats, n)) == cold
    assert len(calls) == 2 ** m - 1 - m


def test_value_equal_families_share_nothing(monkeypatch):
    mats = random_psd_family(4300, 3, 3)
    calls = _counted_walk(monkeypatch)
    d = mixed_discriminant(mats)
    copy = _fresh(mats)
    assert copy == mats and mixed_discriminant(copy) == d
    assert len(calls) == 2 * 4  # the four sums of two or more members, per family
    # one member swapped for an equal object is another family too
    assert mixed_discriminant(mats[:2] + copy[2:]) == d and len(calls) == 3 * 4


def test_a_family_walked_in_between_forces_a_recompute(monkeypatch):
    a, b = random_psd_family(4400, 3, 3), random_psd_family(4401, 3, 3)
    calls = _counted_walk(monkeypatch)
    da, db = mixed_discriminant(a), mixed_discriminant(b)
    assert len(calls) == 2 * 4
    assert (mixed_discriminant(a), mixed_discriminant(b)) == (da, db)
    assert len(calls) == 4 * 4


def test_a_walk_goes_on_where_an_early_stop_left_it(monkeypatch):
    forms = (D([1, 0, 0, 0]), D([1, 0, 0, 0]), Id(4), Id(4))
    cold = rank_from_matrices(_fresh(forms))
    calls = _counted_walk(monkeypatch)
    cert = criterion_hl(HLInstance(4, 0, 0, forms))
    # singletons pass and I = (1, 2) fails: five of the fifteen subsets are
    # ranked, and the four singletons read their members' inertia
    assert (cert.failing_subset, cert.rank_deficit) == ((1, 2), 1) and len(calls) == 1
    assert len(discriminant_mod._last.results) == 5 and discriminant_mod._last.sums is not None
    assert rank_from_matrices(forms) == cold and len(calls) == 11
    assert criterion_hl(HLInstance(4, 0, 0, forms)) == cert and len(calls) == 11


def test_a_singleton_entry_is_a_fresh_inertia_over_the_family_denominator():
    mats = [random_hermitian(4600, 3).scale(Fraction(1, 2)),
            random_hermitian(4601, 3).scale(Fraction(2, 3)),
            D([Fraction(1, 5), 1, 0]),
            D([Fraction(1, 7), 2, 3])]
    assert len({a._cleared[2] for a in mats}) == 4  # four different denominators
    den, lifted = _lift(mats)
    results = dict(discriminant_mod._SubsetTable(mats).walk())
    for i, (re, im) in enumerate(lifted):
        assert results[1 << i] == _inertia(_copy_rows(re), _copy_rows(im))
    # the scaling by (L / L_i)^3 is seen: nonzero dets of both signs, and a zero one
    assert {results[1 << i][3] > 0 for i in (0, 1, 3)} == {True, False} and results[1 << 2][3] == 0
    assert all(den > a._cleared[2] for a in mats)


def test_a_completed_walk_keeps_only_its_results(monkeypatch):
    mats = random_psd_family(4500, 4, 4)
    _counted_walk(monkeypatch)
    panov_positivity(mats)
    table = discriminant_mod._last
    assert table.sums is None and table.lifted is None
    assert len(table.results) == 15 and all(a is b for a, b in zip(table.members, mats))


def test_a_raising_elimination_raises_again(monkeypatch):
    mats = [Id(2), non_real_diagonal()]
    calls = _counted_walk(monkeypatch)
    # a singleton's inertia is its member's own elimination: count those too
    monkeypatch.setattr(linalg_mod, "_inertia", discriminant_mod._inertia)
    for count in (2, 3):
        with pytest.raises(InternalCheckError, match="non-real diagonal"):
            mixed_discriminant(mats)
        # I = (1,) is kept; I = (2,) stores nothing and is eliminated again
        assert len(calls) == count and len(discriminant_mod._last.results) == 1


def test_a_non_real_diagonal_reaching_the_walk_is_an_internal_error():
    # the Hermitian check keeps such rows out of every HermitianMatrix; one
    # that slips past it must stop both walks, not give a determinant
    bad = non_real_diagonal()
    for walk in (lambda: mixed_discriminant([Id(2), bad]),
                 lambda: rank_deficient_subset([Id(2), bad])):
        with pytest.raises(InternalCheckError, match="non-real diagonal"):
            walk()


def test_panov_rejects_non_psd():
    with pytest.raises(ValueError):
        panov_positivity([D([1, -1]), D([1, 1])])


def test_panov_witness_is_genuine():
    for seed in range(40):
        n = 2 + seed % 3
        mats = random_psd_family(seed + 900, n, n)
        cert = panov_positivity(mats)
        if cert.positive:
            assert mixed_discriminant(mats) > 0
        else:
            assert mixed_discriminant(mats) == 0
            idx = cert.failing_subset
            total = mats[idx[0] - 1]
            for i in idx[1:]:
                total = total + mats[i - 1]
            assert total.rank() == len(idx) - cert.rank_deficit
            assert cert.rank_deficit > 0


def test_subsets_size_lex_order():
    subs = list(subsets_size_lex(3))
    assert subs == [
        (1,), (2,), (3,),
        (1, 2), (1, 3), (2, 3),
        (1, 2, 3),
    ]


@pytest.mark.parametrize("m", range(11))
def test_the_one_order_lists_every_nonempty_mask_once(m):
    masks = list(discriminant_mod._masks(m))
    assert sorted(masks) == list(range(1, 1 << m))
    assert [discriminant_mod._elements(a) for a in masks] == [
        c for size in range(1, m + 1) for c in combinations(range(1, m + 1), size)]


def test_a_first_failure_stops_the_order_among_the_singletons(monkeypatch):
    # twenty zero members: I = (1,) fails, and no mask of size 2 or more is made
    made = []
    combos = discriminant_mod.combinations

    def recording(bits, size):
        for c in combos(bits, size):
            made.append(c)
            yield c

    monkeypatch.setattr(discriminant_mod, "combinations", recording)
    monkeypatch.setattr(discriminant_mod, "_last", None)
    assert rank_deficient_subset([HermitianMatrix.zero(1)] * 20) == ((1,), 1)
    assert made and all(len(c) == 1 for c in made)


# ---- reverse Khovanskii-Teissier ----

def test_reverse_kt_identity_case():
    n, k = 3, 2
    lhs_factor = comb(n, k)
    a = [Id(n)] * k
    c = [Id(n)] * (n - k)
    assert reverse_kt_check(a, Id(n), c)
    # with everything the identity the inequality is strict scaling:
    # binom(n,k) * n! * n! >= n! * n!
    lhs = lhs_factor * intersection_number(a + [Id(n)] * (n - k)) * intersection_number(
        [Id(n)] * k + c
    )
    rhs = intersection_number([Id(n)] * n) * intersection_number(a + c)
    assert lhs == lhs_factor * rhs


def test_reverse_kt_zero_factor():
    n = 3
    a = [Id(n), Id(n)]
    c = [HermitianMatrix.zero(n)]
    assert reverse_kt_check(a, Id(n), c)
    assert intersection_number(a + c) == 0


def test_reverse_kt_random_psd():
    for seed in range(40):
        n = 2 + seed % 3
        k = 1 + seed % (n - 1) if n > 1 else 1
        mats = random_psd_family(seed + 1300, n, n + 1)
        a, b, c = mats[:k], mats[k], mats[k + 1 : n + 1]
        assert reverse_kt_check(a, b, c)


def test_reverse_kt_dimension_mismatch():
    with pytest.raises(ValueError):
        reverse_kt_check([Id(2)], Id(2), [Id(3)])
