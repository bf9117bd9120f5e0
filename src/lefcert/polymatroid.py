"""Polymatroid rank functions from PSD families and lattice-point support sets.

The rank table is fully materialized (2^m entries): exhaustive axiom
checking needs every value anyway, and m stays small at desk scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

from .discriminant import _subset_ranks, subsets_size_lex
from .linalg import InternalCheckError, _check_family
from .rationals import as_int

__all__ = [
    "RankFunction",
    "AxiomReport",
    "DiscretePolymatroid",
    "rank_from_matrices",
    "check_axioms",
    "enumerate_points",
    "hl_support",
    "multidegree_support",
]


def _all_subsets(m):
    return [frozenset()] + [frozenset(c) for c in subsets_size_lex(m)]


@dataclass(frozen=True)
class RankFunction:
    """A complete integer set-function table on subsets of [m] (1-based)."""

    m: int
    values: dict
    provenance: str = "user-table"

    def __post_init__(self):
        m = as_int(self.m, "rank table m")
        if m < 0:
            raise ValueError(f"rank table m must be nonnegative, got {m}")
        table = {}
        for k, v in self.values.items():
            if type(v) is not int:  # the message is built only for a refused rank
                as_int(v, f"rank of {sorted(k)}")
            table[frozenset(k)] = v
        # 2^m distinct subsets of [m] are all of them; the size is compared
        # first, so 2^m is never formed for an m past the table's size
        if (len(table) != 1 << min(m, len(table).bit_length())
                or not set().union(*table) <= set(range(1, m + 1))):
            raise ValueError("rank table must contain every subset of [m]")
        if table[frozenset()] != 0:
            raise ValueError("rank of the empty set must be 0")
        if any(v < 0 for v in table.values()):
            raise ValueError("ranks must be nonnegative")
        object.__setattr__(self, "values", table)

    def __call__(self, subset) -> int:
        return self.values[frozenset(subset)]

    def full_rank(self) -> int:
        return self.values[frozenset(range(1, self.m + 1))]


@dataclass(frozen=True)
class AxiomReport:
    submodular: bool
    monotone: bool
    normalized: bool
    loopless: bool
    is_matroid: bool
    violations: tuple = ()

    @property
    def is_polymatroid(self) -> bool:
        return self.submodular and self.monotone and self.normalized


@dataclass(frozen=True)
class DiscretePolymatroid:
    """Lattice points n with n_[m] = r([m]) and n_I <= r(I) for proper I."""

    m: int
    rank: RankFunction
    points: tuple


def rank_from_matrices(mats, offset: int = 0) -> RankFunction:
    """r(I) = rank(A_I) - offset for nonempty I, r(empty) = 0.

    Raises if any shifted rank would be negative: the table would not be
    a valid rank function.
    """
    as_int(offset, "offset")
    mats = list(mats)
    if not mats:
        raise ValueError("empty matrix family")
    _check_family(mats, mats[0].n)
    values = {frozenset(): 0}
    for subset, rank in _subset_ranks(mats):
        r = rank - offset
        if r < 0:
            raise ValueError(f"rank(A_I) - offset is negative for I={subset}")
        values[frozenset(subset)] = r
    return RankFunction(len(mats), values, provenance="matrix-family")


def check_axioms(r: RankFunction) -> AxiomReport:
    """Exhaustive polymatroid axiom check on the full table.

    Submodularity in its equivalent local form r(A+x) + r(A+y) >= r(A+x+y) + r(A)
    (Schrijver, Combinatorial Optimization, 44.1); a violation names (A+x, A+y).
    """
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


def enumerate_points(r: RankFunction) -> DiscretePolymatroid:
    """All lattice points of the discrete polymatroid, in lexicographic order.

    Refuses tables failing the polymatroid axioms, except that a merely
    non-loopless table only triggers a warning.
    """
    report = check_axioms(r)
    if not report.is_polymatroid:
        raise ValueError(f"not a polymatroid rank table: {report.violations[:3]}")
    if not report.loopless:
        warnings.warn("rank table has loops; enumeration proceeds", stacklevel=2)
    return DiscretePolymatroid(m=r.m, rank=r, points=_lattice_points(r))


def _lattice_points(r: RankFunction):
    """The lattice points of a polymatroid rank table r, in lexicographic order.

    Depth-first search over coordinates with subset-bound pruning; r is
    not checked here.
    """
    m = r.m
    total = r.full_rank()
    full = frozenset(range(1, m + 1))
    points = []
    point = [0] * m
    # constraints[k]: (0-based indices, r(S)) for each subset S whose maximum
    # is k; the full set uses the sum condition instead
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


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def hl_support(mats, n: int):
    """Exponent vectors vec with sum m whose power product has HL, from one rank walk.

    The rank criterion of the repeated tuple: a position set with support
    S sums to sum_{i in S} c_i A_i, all c_i >= 1, of rank rank(A_S) for PSD
    members, and has up to vec(S) = sum_{i in S} vec_i positions.  So vec
    is in the support iff rank(A_S) >= vec(S) + n - m for every nonempty S
    inside supp(vec).  Where rank(A_S) - (n - m) is a polymatroid of full
    rank m, its lattice points must be the support (Theorem A).
    """
    as_int(n, "n")
    mats = list(mats)
    if not mats:
        raise ValueError("empty matrix family")
    m = len(mats)
    if m > n:
        raise ValueError("more factors than the ambient dimension")
    _check_family(mats, n)
    shift = n - m
    ranks = dict(_subset_ranks(mats))
    support = {vec for vec in _compositions(m, m)
               if all(r >= sum(vec[i - 1] for i in subset) + shift
                      for subset, r in ranks.items() if all(vec[i - 1] for i in subset))}
    if min(ranks.values()) >= shift and ranks[tuple(range(1, m + 1))] - shift == m:
        table = RankFunction(m, {(): 0, **{s: r - shift for s, r in ranks.items()}})
        # the shifted table is not always submodular; the polymatroid
        # enumeration only applies when it is
        if check_axioms(table).is_polymatroid and set(_lattice_points(table)) != support:
            raise InternalCheckError("HL support and polymatroid enumeration disagree")
    return support


def multidegree_support(r: RankFunction, dim_x: int):
    """Exponent vectors with positive multidegree, given the projection ranks.

    The set equals the lattice points of the rank table; exposed under
    this name for the multidegree reading where r(I) plays the role of
    dim pi_I(X).  The defining inequalities are re-checked on the output.
    """
    if r.full_rank() != as_int(dim_x, "dim"):
        raise ValueError(f"r([m]) = {r.full_rank()} does not match dim X = {dim_x}")
    poly = enumerate_points(r)
    full = frozenset(range(1, r.m + 1))
    for vec in poly.points:
        if sum(vec) != dim_x:
            raise InternalCheckError("point violates the total-degree equality")
        for subset in _all_subsets(r.m):
            if subset and subset != full:
                if sum(vec[i - 1] for i in subset) > r(subset):
                    raise InternalCheckError("point violates a defining inequality")
    return set(poly.points)
