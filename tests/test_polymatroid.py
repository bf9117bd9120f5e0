import re
import warnings
from contextlib import nullcontext
from itertools import combinations, permutations

import pytest

import lefcert.certify as certify_mod
import lefcert.discriminant as discriminant_mod
import lefcert.polymatroid as polymatroid_mod
from lefcert.certify import HLInstance, criterion_hl
from lefcert.linalg import HermitianMatrix, InternalCheckError
from lefcert.polymatroid import (
    AxiomReport,
    RankFunction,
    _compositions,
    check_axioms,
    enumerate_points,
    hl_support,
    multidegree_support,
    rank_from_matrices,
)
from lefcert.serialize import rank_function_from_json, rank_function_to_json

from conftest import random_psd_family
from lefcert.generate import GeneratorSpec, SplitMix64, generate_psd

D = HermitianMatrix.diagonal
Id = HermitianMatrix.identity


def table(m, assignments):
    values = {frozenset(): 0}
    values.update({frozenset(k): v for k, v in assignments.items()})
    return RankFunction(m, values)


# ---- RankFunction ----

def test_rank_table_must_be_complete():
    with pytest.raises(ValueError):
        RankFunction(2, {frozenset(): 0, frozenset({1}): 1})
    # refused on its size alone, before any 2^m-sized work
    for m in (64, 10**9, 2**62 + 1):
        with pytest.raises(ValueError, match=r"every subset of \[m\]"):
            RankFunction(m, {frozenset(): 0})
    # 2^m keys, but one of them is not a subset of [m]
    with pytest.raises(ValueError, match=r"every subset of \[m\]"):
        table(1, {(2,): 1})
    with pytest.raises(ValueError):
        table(1, {(1,): -1})
    bad = {frozenset(): 1, frozenset({1}): 1}
    with pytest.raises(ValueError):
        RankFunction(1, bad)


@pytest.mark.parametrize("values, subset", [
    ({(): 0, (1,): 1, (2,): 1, (1, 2): 2, (2, 1): 3}, [1, 2]),
    ({(): 0, (1,): 1, (2,): 1, (1, 2): 2, frozenset({1, 2}): 2}, [1, 2]),
    ({(): 0, frozenset(): 0, (1,): 1, (2,): 1, (1, 2): 2}, []),
])
def test_rank_table_refuses_two_keys_for_one_subset(values, subset):
    # a later key would overwrite an earlier one; in the first table r({1, 2})
    # would be 3 and the table not submodular
    with pytest.raises(ValueError, match=re.escape(f"rank table names the subset {subset} twice")):
        RankFunction(2, values)


def test_rank_table_m_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        RankFunction(-1, {frozenset(): 0})
    with pytest.raises(ValueError, match="nonnegative"):
        RankFunction(-1, {})
    assert RankFunction(0, {frozenset(): 0}).full_rank() == 0


@pytest.mark.parametrize("m, value", [(1.9, 1), (True, 1), (1, 1.7), (1, True), (1, "1")])
def test_rank_table_refuses_non_int_entries(m, value):
    with pytest.raises(TypeError, match="must be an integer"):
        RankFunction(m, {frozenset(): 0, frozenset({1}): value})


def test_rank_from_matrices_examples():
    r = rank_from_matrices([D([1, 0]), D([0, 1])])
    assert (r({1}), r({2}), r({1, 2})) == (1, 1, 2)

    r = rank_from_matrices([D([1, 1, 0]), D([0, 1, 1])], offset=1)
    assert (r({1}), r({2}), r({1, 2})) == (1, 1, 2)

    r = rank_from_matrices([HermitianMatrix.zero(2)])
    assert r({1}) == 0
    assert not check_axioms(r).loopless


def test_rank_from_matrices_negative_offset_error():
    with pytest.raises(ValueError):
        rank_from_matrices([D([1, 0, 0])], offset=2)


# ---- axioms ----

def test_axioms_on_matrix_families():
    for seed in range(20):
        n = 3 + seed % 3
        m = 2 + seed % 3
        mats = random_psd_family(seed + 100, n, m)
        report = check_axioms(rank_from_matrices(mats))
        assert report.submodular and report.monotone and report.normalized
        if all(a.rank() > 0 for a in mats):
            assert report.loopless


def _oracle_axioms(r):
    """check_axioms' booleans with submodularity over all pairs of subsets."""
    subsets = [frozenset(c) for k in range(r.m + 1) for c in combinations(range(1, r.m + 1), k)]
    return (all(r(a | b) + r(a & b) <= r(a) + r(b) for a in subsets for b in subsets),
            all(r(a) <= r(a | {x}) for a in subsets for x in range(1, r.m + 1)),
            r(()) == 0,
            all(r({i}) >= 1 for i in range(1, r.m + 1)),
            all(r(a) <= len(a) for a in subsets))


def test_local_submodularity_matches_the_all_pairs_oracle():
    rng = SplitMix64(0x5B3)
    tables = [rank_from_matrices(random_psd_family(seed + 150, 2 + seed % 4, 1 + seed % 4))
              for seed in range(24)]
    for _ in range(400):
        m = rng.integer(0, 4)
        values = {frozenset(c): rng.integer(0, 4) for k in range(1, m + 1)
                  for c in combinations(range(1, m + 1), k)}
        tables.append(RankFunction(m, {frozenset(): 0, **values}))
    failing = 0
    for r in tables:
        report = check_axioms(r)
        submodular, monotone, normalized, loopless, small = _oracle_axioms(r)
        assert (report.submodular, report.monotone, report.normalized, report.loopless) == \
            (submodular, monotone, normalized, loopless)
        assert report.is_matroid == (submodular and monotone and normalized and small)
        # each violation names (A+x, A+y) with r(A+x) + r(A+y) < r(A+x+y) + r(A)
        pairs = [v[1:] for v in report.violations if v[0] == "submodularity"]
        assert bool(pairs) == (not submodular)
        for ax, ay in pairs:
            a, (x,), (y,) = set(ax) & set(ay), set(ax) - set(ay), set(ay) - set(ax)
            assert x < y and r(ax) + r(ay) < r(set(ax) | {y}) + r(a)
        failing += not submodular
    assert 100 <= failing <= len(tables) - 100


def test_constructed_submodularity_violation():
    r = table(2, {(1,): 1, (2,): 1, (1, 2): 3})
    report = check_axioms(r)
    assert not report.submodular
    assert report.monotone
    assert any(v[0] == "submodularity" for v in report.violations)


def test_all_zero_table():
    r = table(2, {(1,): 0, (2,): 0, (1, 2): 0})
    report = check_axioms(r)
    assert report.normalized and report.submodular and report.monotone
    assert not report.loopless
    assert report.is_matroid


def test_matroid_flag():
    assert check_axioms(rank_from_matrices([D([1, 0]), D([0, 1])])).is_matroid
    r = table(1, {(1,): 3})
    rep = check_axioms(r)
    assert rep.is_polymatroid and not rep.is_matroid


def test_rank_submodularity_three_term():
    # rank(A+B+C) + rank(C) <= rank(A+C) + rank(B+C) on random PSD triples
    for seed in range(60):
        n = 3 + seed % 4
        a, b, c = random_psd_family(seed + 700, n, 3)
        abc = (a + b + c).rank()
        assert abc + c.rank() <= (a + c).rank() + (b + c).rank()
        # sandwich lower bound and plain subadditivity
        assert (a + c).rank() + (b + c).rank() <= 2 * (abc + c.rank())
        assert (a + b).rank() <= a.rank() + b.rank()


# ---- enumeration ----

def test_enumeration_examples():
    assert enumerate_points(table(2, {(1,): 1, (2,): 1, (1, 2): 2})).points == ((1, 1),)
    pts = enumerate_points(table(2, {(1,): 2, (2,): 1, (1, 2): 2})).points
    assert set(pts) == {(2, 0), (1, 1)}
    assert enumerate_points(table(1, {(1,): 3})).points == ((3,),)


def test_enumeration_lexicographic_order():
    pts = enumerate_points(table(2, {(1,): 2, (2,): 2, (1, 2): 3})).points
    assert list(pts) == sorted(pts)


def test_enumeration_refuses_bad_table_warns_on_loops():
    with pytest.raises(ValueError):
        enumerate_points(table(2, {(1,): 1, (2,): 1, (1, 2): 3}))
    with pytest.warns(UserWarning):
        enumerate_points(table(2, {(1,): 0, (2,): 2, (1, 2): 2}))


def _brute_force_points(r):
    total = r.full_rank()
    full = frozenset(range(1, r.m + 1))
    out = set()
    for vec in _compositions(total, r.m):
        ok = True
        for subset in r.values:
            if subset and subset != full:
                if sum(vec[i - 1] for i in subset) > r(subset):
                    ok = False
                    break
        if ok:
            out.add(vec)
    return out


@pytest.mark.filterwarnings("ignore:rank table has loops")
def test_enumeration_matches_brute_force():
    rng = SplitMix64(0xF00D)
    checked = 0
    while checked < 40:
        m = 2 + rng.integer(0, 2)
        n = m + rng.integer(0, 2)
        mats = random_psd_family(rng.integer(0, 10**6), n, m)
        try:
            r = rank_from_matrices(mats)
        except ValueError:
            continue
        poly = enumerate_points(r)
        assert set(poly.points) == _brute_force_points(r)
        checked += 1


def test_enumeration_matches_brute_force_on_coverage_tables():
    # diagonal 0/1 families have r(S) = |union of supports|, whose multi-element
    # constraints bind; generic families only ever bind the singleton bounds
    rng = SplitMix64(0xC0BE)
    binding = 0
    for _ in range(60):
        m = 2 + rng.integer(0, 2)
        n = 2 + rng.integer(0, 3)
        mats = [D([rng.integer(0, 1) for _ in range(n)]) for _ in range(m)]
        r = rank_from_matrices(mats)
        with pytest.warns(UserWarning) if not check_axioms(r).loopless else nullcontext():
            points = enumerate_points(r).points
        assert list(points) == sorted(_brute_force_points(r))
        singleton_bounded = {vec for vec in _compositions(r.full_rank(), m)
                             if all(x <= r({i + 1}) for i, x in enumerate(vec))}
        binding += singleton_bounded != set(points)
    assert binding >= 10


# ---- HL support ----

def test_hl_support_examples():
    assert hl_support([D([1, 1, 0]), D([0, 1, 1])], 3) == {(1, 1)}
    assert hl_support([D([1, 0]), D([0, 1])], 2) == {(1, 1)}
    assert hl_support([Id(4)], 4) == {(1,)}


@pytest.mark.parametrize("mats, n, support", [
    ([D([1, 1, 0]), D([0, 1, 1])], 3, {(1, 1)}),
    ([D([1, 1, 0, 0]), Id(4)], 4, {(0, 2)}),  # the shifted table has a loop at 1
])
def test_hl_support_checks_the_shifted_table_once(monkeypatch, mats, n, support):
    calls = []

    def counting(r):
        calls.append(r)
        return check_axioms(r)

    monkeypatch.setattr(polymatroid_mod, "check_axioms", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hl_support(mats, n) == support
    assert len(calls) == 1 and calls[0].full_rank() == len(mats)


def test_hl_support_lattice_point_disagreement_is_an_internal_error(monkeypatch):
    mats = [Id(2), Id(2)]
    assert hl_support(mats, 2) == {(0, 2), (1, 1), (2, 0)}
    points = polymatroid_mod._lattice_points

    def shifted(r):
        return [(v[0] + 1,) + v[1:] for v in points(r)]

    monkeypatch.setattr(polymatroid_mod, "_lattice_points", shifted)
    with pytest.raises(InternalCheckError, match="polymatroid enumeration disagree"):
        hl_support(mats, 2)


def test_hl_support_reads_one_rank_walk(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("hl_support left the one rank walk")

    for module in (certify_mod, polymatroid_mod):
        monkeypatch.setattr(module, "HLInstance", forbidden, raising=False)
        monkeypatch.setattr(module, "criterion_hl", forbidden, raising=False)
    walks, ranks = [], []
    walk, inertia = discriminant_mod._SubsetTable.walk, discriminant_mod._inertia

    def counting_walk(table):
        walks.append(len(table.members))
        return walk(table)

    def counting_inertia(*args):
        ranks.append(args)
        return inertia(*args)

    monkeypatch.setattr(discriminant_mod._SubsetTable, "walk", counting_walk)
    monkeypatch.setattr(discriminant_mod, "_inertia", counting_inertia)
    for seed, n, m in [(1, 3, 2), (2, 4, 3), (3, 4, 4), (4, 5, 3)]:
        mats = random_psd_family(seed + 3100, n, m)
        monkeypatch.setattr(discriminant_mod, "_last", None)  # a cold subset table
        del walks[:], ranks[:]
        hl_support(mats, n)
        # the m singletons read their members' cached inertia
        assert walks == [m] and len(ranks) == 2 ** m - 1 - m


def _shifted_table_case(mats, n):
    """Which of the four kinds the table rank(A_S) - (n - m) is."""
    m = len(mats)
    ranks = rank_from_matrices(mats).values
    if any(r < n - m for subset, r in ranks.items() if subset):
        return "invalid"
    shifted = RankFunction(m, {s: r - (n - m) if s else 0 for s, r in ranks.items()})
    if shifted.full_rank() < m:
        return "deficient"
    return "polymatroid" if check_axioms(shifted).is_polymatroid else "not-polymatroid"


def test_hl_support_matches_the_per_composition_criterion():
    rng = SplitMix64(0x4C5)
    cases = dict.fromkeys(["polymatroid", "not-polymatroid", "deficient", "invalid"], 0)
    pairs = [(n, m) for n in range(2, 6) for m in range(1, min(n, 4) + 1) for _ in range(4)]
    for k, (n, m) in enumerate(pairs):
        # about one member in four has rank 0 or 1
        profile = tuple(rng.integer(0, 1) if rng.integer(0, 3) == 0 else rng.integer(1, n)
                        for _ in range(m))
        mats = generate_psd(GeneratorSpec(seed=k + 5000, n=n, rank_profile=profile))
        pq = n - m
        oracle = {vec for vec in _compositions(m, m)
                  if criterion_hl(HLInstance(n, pq // 2, pq - pq // 2, tuple(
                      a for a, count in zip(mats, vec) for _ in range(count)))).holds}
        assert hl_support(mats, n) == oracle
        cases[_shifted_table_case(mats, n)] += 1
    assert min(cases.values()) >= 2, cases


def test_hl_support_empty_when_too_degenerate():
    assert hl_support([D([1, 0]), D([1, 0])], 2) == set()


def test_hl_support_refuses_an_empty_family():
    with pytest.raises(ValueError, match="empty matrix family"):
        hl_support([], 2)


def test_hl_support_points_are_compositions():
    for seed in range(15):
        n = 3 + seed % 2
        m = 2 + seed % 2
        mats = random_psd_family(seed + 3000, n, m)
        support = hl_support(mats, n)
        for vec in support:
            assert sum(vec) == m and len(vec) == m


def test_hl_support_symmetric_under_relabeling():
    mats = [D([1, 1, 0]), D([0, 1, 1]), Id(3)]
    base = hl_support(mats, 3)
    for order in permutations(range(3)):
        permuted = hl_support([mats[i] for i in order], 3)
        assert permuted == {tuple(vec[i] for i in order) for vec in base}


# ---- the mask index against frozenset oracles ----
#
# check_axioms, the lattice-point search and hl_support's filter written
# subset by subset over frozensets.  The library's mask code must give the
# same reports, in the same violation order, the same point tuples and the
# same supports.

def _all_subsets(m):
    return [frozenset(c) for k in range(m + 1) for c in combinations(range(1, m + 1), k)]


def _frozenset_axioms(r):
    subsets = _all_subsets(r.m)
    violations = []
    submodular = True
    for a in subsets:
        for x, y in combinations([x for x in range(1, r.m + 1) if x not in a], 2):
            ax, ay = a | {x}, a | {y}
            if r(ax | {y}) + r(a) > r(ax) + r(ay):
                submodular = False
                violations.append(("submodularity", tuple(sorted(ax)), tuple(sorted(ay))))
    monotone = True
    for a in subsets:
        for x in range(1, r.m + 1):
            if x not in a and r(a) > r(a | {x}):
                monotone = False
                violations.append(("monotonicity", tuple(sorted(a)), x))
    normalized = r(frozenset()) == 0
    loopless = all(r({i}) >= 1 for i in range(1, r.m + 1))
    is_matroid = (
        submodular and monotone and normalized
        and all(r(a) <= len(a) for a in subsets)
    )
    return AxiomReport(submodular, monotone, normalized, loopless, is_matroid,
                       tuple(violations))


def _frozenset_points(r):
    m = r.m
    total = r.full_rank()
    full = frozenset(range(1, m + 1))
    points = []
    point = [0] * m
    constraints = [[] for _ in range(m + 1)]
    for subset in _all_subsets(m)[1:]:
        if subset != full:
            constraints[max(subset)].append(([i - 1 for i in subset], r(subset)))

    def constraints_ok(k):
        return all(sum(point[i] for i in idx) <= bound for idx, bound in constraints[k])

    def dfs(k, acc):
        if k > m:
            if acc == total:
                points.append(tuple(point))
            return
        remaining = frozenset(range(k + 1, m + 1))
        cap_rest = r(remaining) if remaining else 0
        hi = min(r({k}), total - acc)
        for v in range(hi + 1):
            if acc + v + cap_rest < total:
                continue
            point[k - 1] = v
            if constraints_ok(k):
                dfs(k + 1, acc + v)
        point[k - 1] = 0

    dfs(1, 0)
    return tuple(points)


def _frozenset_hl_filter(mats, n):
    m = len(mats)
    shift = n - m
    ranks = {tuple(sorted(s)): r for s, r in rank_from_matrices(mats).values.items() if s}
    return {vec for vec in _compositions(m, m)
            if all(r >= sum(vec[i - 1] for i in subset) + shift
                   for subset, r in ranks.items() if all(vec[i - 1] for i in subset))}


def _oracle_tables():
    """Seeded tables on m = 0..6: random values, coverage polymatroids, and coverage off by one.

    A coverage table r(S) = w(union of the sets of S) is a polymatroid;
    an empty set is a loop.  Random values mostly fail both submodularity
    and monotonicity, and a coverage table with one value moved by one
    fails a few of each.
    """
    rng = SplitMix64(0x3A5C)
    tables = []
    for k in range(420):
        m, kind = k % 7, k // 7 % 3
        subsets = _all_subsets(m)[1:]
        if kind == 0:
            values = {s: rng.integer(0, 4) for s in subsets}
        else:
            ground = range(m + 1)
            weight = [rng.integer(1, 2) for _ in ground]
            sets = [{g for g in ground if rng.integer(0, 2) == 0} for _ in range(m)]
            values = {s: sum(weight[g] for g in set().union(*(sets[i - 1] for i in s)))
                      for s in subsets}
            if kind == 2 and subsets:
                s = subsets[rng.below(len(subsets))]
                values[s] = max(values[s] + (1 if rng.integer(0, 1) else -1), 0)
        tables.append(RankFunction(m, {frozenset(): 0, **values}))
    return tables


def test_check_axioms_matches_the_frozenset_oracle():
    kinds = dict.fromkeys(["non-submodular", "non-monotone", "both", "loops",
                           "polymatroid", "matroid"], 0)
    for r in _oracle_tables():
        report = check_axioms(r)
        assert report == _frozenset_axioms(r)
        kinds["non-submodular"] += not report.submodular
        kinds["non-monotone"] += not report.monotone
        kinds["both"] += not (report.submodular or report.monotone)
        kinds["loops"] += not report.loopless
        kinds["polymatroid"] += report.is_polymatroid
        kinds["matroid"] += report.is_matroid
    assert min(kinds.values()) >= 20, kinds


def test_lattice_points_match_the_frozenset_oracle():
    multi = 0
    for r in _oracle_tables():
        points = polymatroid_mod._lattice_points(r)
        assert points == _frozenset_points(r)
        if check_axioms(r).is_polymatroid:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert multidegree_support(r, r.full_rank()) == set(points)
        multi += len(points) >= 3
    assert multi >= 50


def test_hl_support_matches_the_frozenset_filter():
    rng = SplitMix64(0x6E1)
    pairs = ([(n, m) for n in range(1, 7) for m in range(1, n + 1) for _ in range(2)]
             + [(7, 6), (8, 6), (7, 7), (8, 7)])
    sizes, cases = set(), set()
    for k, (n, m) in enumerate(pairs):
        profile = tuple(rng.integer(0, 1) if rng.integer(0, 4) == 0 else rng.integer(1, n)
                        for _ in range(m))
        mats = generate_psd(GeneratorSpec(seed=k + 7100, n=n, rank_profile=profile))
        support = hl_support(mats, n)
        assert support == _frozenset_hl_filter(mats, n)
        sizes.add(min(len(support), 2))
        cases.add(_shifted_table_case(mats, n))
    assert sizes == {0, 1, 2}
    assert cases == {"polymatroid", "not-polymatroid", "deficient", "invalid"}


# ---- multidegree support ----

def test_multidegree_examples():
    assert multidegree_support(table(2, {(1,): 1, (2,): 1, (1, 2): 2}), 2) == {(1, 1)}

    rows = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    r = rank_from_matrices([D(row) for row in rows])
    pts = multidegree_support(r, 3)
    expected = {
        vec
        for vec in _compositions(3, 3)
        if all(vec[i] <= 2 for i in range(3))
        and all(vec[i] + vec[j] <= 3 for i in range(3) for j in range(i + 1, 3))
    }
    assert pts == expected
    assert (1, 1, 1) in pts and (2, 1, 0) in pts and (3, 0, 0) not in pts

    assert multidegree_support(table(1, {(1,): 4}), 4) == {(4,)}


def test_multidegree_dimension_mismatch():
    with pytest.raises(ValueError):
        multidegree_support(table(1, {(1,): 2}), 3)


# ---- serialization ----

def test_rank_function_round_trip():
    r = rank_from_matrices([D([1, 1, 0]), D([0, 1, 1]), Id(3)])
    doc = rank_function_to_json(r)
    back = rank_function_from_json(doc)
    assert back.m == r.m and back.values == r.values
