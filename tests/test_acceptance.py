"""Top-level acceptance suite.

Each test exercises one release criterion at full sample size and
prints a single pass/fail line (bypassing pytest capture so the lines
always reach the terminal).
"""

import time
from itertools import product
from math import comb, factorial

import pytest

from lefcert.certify import (
    HLInstance,
    PreconditionError,
    criterion_hl,
    direct_hl,
    hodge_index_check,
    hr_certify,
    lefschetz_decomposition,
    lorentzian_signature,
)
from lefcert.discriminant import (
    intersection_number,
    mixed_discriminant,
    panov_positivity,
    reverse_kt_check,
    subsets_size_lex,
)
from lefcert.exterior import wedge
from lefcert.generate import GeneratorSpec, SplitMix64, generate_psd
from lefcert.linalg import HermitianMatrix
from lefcert.polymatroid import (
    _compositions,
    check_axioms,
    enumerate_points,
    hl_support,
    rank_from_matrices,
)

import conftest
from conftest import random_psd_family

D = HermitianMatrix.diagonal
Id = HermitianMatrix.identity


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {name} ({detail})"
    print(line)
    conftest.record_acceptance(line)
    assert ok, f"criterion {number} failed: {detail}"


def psd_tuple(seed, n, count):
    return tuple(random_psd_family(seed, n, count))


def test_criterion_01_hl_equivalence():
    t0 = time.time()
    checked = 0
    mismatches = 0
    seed = 0
    while checked < 520:
        seed += 1
        n = 2 + seed % 3  # 2, 3, 4
        for total in range(n + 1):
            for p in range(total + 1):
                q = total - p
                forms = psd_tuple(seed * 100 + total, n, n - total)
                inst = HLInstance(n, p, q, forms)
                if criterion_hl(inst).holds != direct_hl(inst).holds:
                    mismatches += 1
                checked += 1
    dt = time.time() - t0
    _report(1, "Hard-Lefschetz criterion vs direct determinant", mismatches == 0 and dt < 120,
            f"{checked} instances, {mismatches} mismatches, {dt:.1f}s")


def test_criterion_01b_hl_equivalence_at_n5_n6():
    # every bidegree at n = 5 for two seeds, and n = 6 at (2,1), (1,2) and a
    # holding (2,2); a failing n = 6 (2,2) needs an exact echelon of the first
    # 150 of its 225 columns (13 s on 2 cores with Python 3.11.7 and the
    # Fraction backend), so it is left out
    t0 = time.time()
    instances = [HLInstance(5, p, total - p, psd_tuple(seed * 100 + total, 5, 5 - total))
                 for seed in (1, 2) for total in range(6) for p in range(total + 1)]
    instances += [HLInstance(6, p, q, tuple(generate_psd(GeneratorSpec(7, 6, ranks))))
                  for p, q, ranks in ((2, 1, (6, 6, 6)), (1, 2, (6, 3, 6)), (2, 2, (6, 6)))]
    verdicts = {"holds": 0, "fails": 0}
    bad = 0
    for inst in instances:
        cert = direct_hl(inst)
        verdicts[cert.verdict] += 1
        if cert.holds != criterion_hl(inst).holds:
            bad += 1
        if not cert.holds:
            witness = cert.kernel_witness
            if witness.is_zero() or not wedge(inst.omega(), witness).is_zero():
                bad += 1
    dt = time.time() - t0
    _report("1b", "Hard-Lefschetz criterion vs direct route at n = 5, 6",
            bad == 0 and min(verdicts.values()) > 0 and dt < 60,
            f"{len(instances)} instances, {verdicts['holds']} hold, {verdicts['fails']} fail, "
            f"{bad} mismatches, {dt:.1f}s")


def test_criterion_02_hr_equivalence():
    t0 = time.time()
    rng = SplitMix64(0x42)
    checked = 0
    bad = 0
    while checked < 200:
        n = 2 + rng.integer(0, 1)
        total = rng.integer(0, n)
        p = rng.integer(0, total)
        q = total - p
        forms = psd_tuple(rng.integer(0, 10**6), n, n - total)
        (eta,) = random_psd_family(rng.integer(0, 10**6), n, 1)
        if eta.rank() < total:
            continue
        inst = HLInstance(n, p, q, forms, eta=eta)
        cert, space = hr_certify(inst)
        if cert.holds != criterion_hl(inst).holds:
            bad += 1
        if cert.holds and space.gram.signature() != (len(space.basis), 0, 0):
            bad += 1
        checked += 1
    dt = time.time() - t0
    _report(2, "Hodge-Riemann positivity vs rank criterion", bad == 0 and dt < 120,
            f"{checked} instances, {bad} mismatches, {dt:.1f}s")


def _panov_agrees(mats, n):
    positive = mixed_discriminant(mats) > 0
    sums = {0: HermitianMatrix.zero(n)}
    criterion = True
    for subset in subsets_size_lex(n):
        total = mats[subset[0] - 1]
        for i in subset[1:]:
            total = total + mats[i - 1]
        if total.rank() < len(subset):
            criterion = False
            break
    agrees = positive == criterion
    if agrees:
        cert = panov_positivity(mats)
        agrees = cert.positive == positive
    return agrees


def test_criterion_03_panov_positivity():
    t0 = time.time()
    checked = 0
    bad = 0
    # exhaustive diagonal patterns: all 0/1 supports for n <= 3,
    # all leading-ones rank vectors for n = 4
    for n in (2, 3):
        patterns = list(product(range(2), repeat=n))
        for combo in product(patterns, repeat=n):
            mats = [D(list(c)) for c in combo]
            if not _panov_agrees(mats, n):
                bad += 1
            checked += 1
    for ranks in product(range(5), repeat=4):
        mats = [D([1] * r + [0] * (4 - r)) for r in ranks]
        if not _panov_agrees(mats, 4):
            bad += 1
        checked += 1
    # random non-diagonal tuples
    randoms = 0
    seed = 0
    while randoms < 300:
        seed += 1
        n = 2 + seed % 3
        mats = list(psd_tuple(seed + 20000, n, n))
        if not _panov_agrees(mats, n):
            bad += 1
        randoms += 1
        checked += 1
    dt = time.time() - t0
    _report(3, "mixed discriminant positivity vs subset ranks", bad == 0 and dt < 60,
            f"{checked} tuples ({randoms} random), {bad} mismatches, {dt:.1f}s")


def test_criterion_04_wedge_discriminant_consistency():
    t0 = time.time()
    checked = 0
    bad = 0
    while checked < 200:
        n = 2 + checked % 3
        mats = list(psd_tuple(checked + 31000, n, n))
        if intersection_number(mats) != factorial(n) * mixed_discriminant(mats):
            bad += 1
        checked += 1
    dt = time.time() - t0
    _report(4, "top-wedge route equals n! times inclusion-exclusion route",
            bad == 0 and dt < 60, f"{checked} tuples, {bad} mismatches, {dt:.1f}s")


def test_criterion_04b_wedge_discriminant_consistency_at_n5_n6():
    # member ranks drawn from [0, n]: zero members, rank-deficient ones, and D = 0 and D > 0
    t0 = time.time()
    checked = bad = with_zero = deficient = positive = 0
    for seed in range(40):
        n = 5 + seed % 2
        mats = list(psd_tuple(seed + 33000, n, n))
        value = intersection_number(mats)
        if value != factorial(n) * mixed_discriminant(mats):
            bad += 1
        ranks = [a.rank() for a in mats]
        with_zero += 0 in ranks
        deficient += any(0 < r < n for r in ranks)
        positive += value > 0
        checked += 1
    dt = time.time() - t0
    _report("4b", "top-wedge route equals n! times inclusion-exclusion route at n = 5, 6",
            bad == 0 and min(with_zero, deficient, positive, checked - positive) > 0 and dt < 5,
            f"{checked} tuples, {with_zero} with a zero member, {deficient} rank-deficient, "
            f"{positive} with D > 0, {bad} mismatches, {dt:.1f}s")


def test_criterion_05_lorentzian_signature():
    t0 = time.time()
    checked = 0
    bad = 0
    # n = 2: empty factor list
    if lorentzian_signature([], n=2) != (1, 3, 0):
        bad += 1
    checked += 1
    # n = 3: every 0/1 diagonal factor pattern
    for pattern in product(range(2), repeat=3):
        d = D(list(pattern))
        expected_lorentzian = d.rank() >= 3  # |I|+2 with I = {1}
        sig = lorentzian_signature([d])
        if (sig == (1, 8, 0)) != expected_lorentzian:
            bad += 1
        checked += 1
    dt = time.time() - t0
    _report(5, "Lorentzian signature (1, n^2-1, 0) iff rank criterion",
            bad == 0 and dt < 30, f"{checked} patterns, {bad} mismatches, {dt:.1f}s")


def test_criterion_06_submodularity():
    t0 = time.time()
    violations = 0
    triples = 0
    seed = 0
    while triples < 500:
        seed += 1
        n = 2 + seed % 5  # up to 6
        a, b, c = random_psd_family(seed + 40000, n, 3)
        if (a + b + c).rank() + c.rank() > (a + c).rank() + (b + c).rank():
            violations += 1
        triples += 1
    families = 0
    seed = 0
    while families < 100:
        seed += 1
        n = 2 + seed % 4
        m = 2 + seed % 3  # up to 4
        mats = random_psd_family(seed + 50000, n, m)
        report = check_axioms(rank_from_matrices(mats))
        if not (report.submodular and report.monotone and report.normalized):
            violations += 1
        families += 1
    dt = time.time() - t0
    _report(6, "rank submodularity and polymatroid axioms",
            violations == 0 and dt < 60,
            f"{triples} triples + {families} families, {violations} violations, {dt:.1f}s")


def _brute_points(r):
    full = frozenset(range(1, r.m + 1))
    out = set()
    for vec in _compositions(r.full_rank(), r.m):
        if all(
            sum(vec[i - 1] for i in subset) <= r(subset)
            for subset in r.values
            if subset and subset != full
        ):
            out.add(vec)
    return out


@pytest.mark.filterwarnings("ignore:rank table has loops")
def test_criterion_07_enumeration_vs_brute_force():
    t0 = time.time()
    tables = 0
    bad = 0
    seed = 0
    while tables < 100:
        seed += 1
        m = 2 + seed % 3  # up to 4
        n = m + seed % 3
        mats = random_psd_family(seed + 60000, n, m)
        r = rank_from_matrices(mats)
        if r.full_rank() > 8 or not check_axioms(r).is_polymatroid:
            continue
        if set(enumerate_points(r).points) != _brute_points(r):
            bad += 1
        tables += 1
    dt = time.time() - t0
    _report(7, "discrete polymatroid enumeration vs composition brute force",
            bad == 0 and dt < 30, f"{tables} tables, {bad} mismatches, {dt:.1f}s")


def test_criterion_08_hl_support():
    t0 = time.time()
    bad = 0
    # the worked example
    if hl_support([D([1, 1, 0]), D([0, 1, 1])], 3) != {(1, 1)}:
        bad += 1
    instances = 1
    seed = 0
    while instances < 101:
        seed += 1
        n = 2 + seed % 3  # up to 4
        m = 1 + seed % 3  # up to 3
        if m > n:
            continue
        mats = random_psd_family(seed + 70000, n, m)
        pq = n - m
        p = pq // 2
        support = hl_support(mats, n)  # one rank walk; lattice points checked when they apply
        # third, fully external route: per-vector criterion
        external = set()
        for vec in _compositions(m, m):
            repeated = []
            for a, count in zip(mats, vec):
                repeated.extend([a] * count)
            if criterion_hl(HLInstance(n, p, pq - p, tuple(repeated))).holds:
                external.add(vec)
        if support != external:
            bad += 1
        instances += 1
    dt = time.time() - t0
    _report(8, "HL support: criterion route vs rank-table route",
            bad == 0 and dt < 60, f"{instances} instances, {bad} mismatches, {dt:.1f}s")


def test_criterion_09_hodge_index_and_reverse_kt():
    t0 = time.time()
    rng = SplitMix64(0x909)
    hodge = kt = bad = 0
    while hodge < 150:
        n = 2 + rng.integer(0, 2)
        forms = psd_tuple(rng.integer(0, 10**6), n, n - 2)
        alpha = Id(n)
        beta0 = D([rng.integer(-2, 2) for _ in range(n)])
        qaa = mixed_discriminant([alpha, alpha] + list(forms))
        if qaa <= 0:
            continue
        qab = mixed_discriminant([alpha, beta0] + list(forms))
        beta = beta0.scale(qaa) + alpha.scale(-qab)
        if not hodge_index_check(forms, alpha, beta):
            bad += 1
        hodge += 1
    while kt < 150:
        n = 2 + rng.integer(0, 2)
        k = 1 + rng.integer(0, n - 2) if n > 2 else 1
        mats = psd_tuple(rng.integer(0, 10**6), n, n + 1)
        if not reverse_kt_check(mats[:k], mats[k], mats[k + 1 : n + 1]):
            bad += 1
        kt += 1
    dt = time.time() - t0
    _report(9, "Hodge index and reverse Khovanskii-Teissier theorem-tests",
            bad == 0 and dt < 60,
            f"{hodge} Hodge-index + {kt} reverse-KT samples, {bad} violations, {dt:.1f}s")


def test_criterion_10_lefschetz_decomposition():
    t0 = time.time()
    rng = SplitMix64(0xA10)
    done = 0
    bad = 0
    attempts = 0
    while done < 60 and attempts < 5000:
        attempts += 1
        n = 2 + rng.integer(0, 1)
        total = rng.integer(0, n)
        p = rng.integer(0, total)
        q = total - p
        forms = psd_tuple(rng.integer(0, 10**6), n, n - total)
        (eta,) = random_psd_family(rng.integer(0, 10**6), n, 1)
        if eta.rank() == 0:
            eta = Id(n)
        inst = HLInstance(n, p, q, forms, eta=eta)
        try:
            # internally verifies spanning and Q-orthogonality exactly
            _, prim, dims = lefschetz_decomposition(inst)
        except PreconditionError:
            continue
        expect = comb(n, p) * comb(n, q) - (
            comb(n, p - 1) * comb(n, q - 1) if p >= 1 and q >= 1 else 0
        )
        if dims[1] != expect or len(prim) != expect:
            bad += 1
        done += 1
    dt = time.time() - t0
    _report(10, "Lefschetz decomposition dimensions and Q-orthogonality",
            bad == 0 and done >= 60 and dt < 60,
            f"{done} decompositions, {bad} mismatches, {dt:.1f}s")
