from itertools import permutations
from math import comb, factorial

import pytest

from lefcert.discriminant import (
    intersection_number,
    mixed_discriminant,
    panov_positivity,
    reverse_kt_check,
    subset_sums,
    subsets_size_lex,
)
from lefcert.linalg import HermitianMatrix, mat_rank
from lefcert.rationals import GR, as_rat

from conftest import random_psd_family
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
