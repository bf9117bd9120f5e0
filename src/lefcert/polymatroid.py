"""Polymatroid rank functions from PSD families and lattice-point support sets.

A `RankFunction` holds its table as a dict keyed by frozenset, which is
what callers read and write; it is the one place that refuses a subset
named twice.  Each routine here works on a list rank[mask], where bit
i - 1 of mask stands for element i, and on ints alone.  rank_from_matrices
and hl_support fill that list straight from the subset walk of
`discriminant`, which yields masks, and build the frozenset table once
from it; the other routines read a table once per call into the list.
The axiom check walks the masks in the order of discriminant._masks, the
lattice-point search keeps a running sum per mask, and hl_support's filter
and multidegree_support's re-check read the sums of a vector over every
mask.  The table has 2^m entries: exhaustive axiom checking needs every
value anyway, and m stays small at desk scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from operator import le

from .discriminant import _elements, _masks, _subset_ranks
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


@lru_cache(maxsize=8)
def _subsets(m):
    """The subsets of [m] as frozensets, indexed by mask."""
    return tuple(frozenset(_elements(mask)) for mask in range(1 << m))


def _rank_list(m, values):
    """A complete table of values on the subsets of [m], as a list indexed by mask."""
    return [values[s] for s in _subsets(m)]


@lru_cache(maxsize=8)
def _walk(m):
    """(A, the bits of [m] outside A) for every subset mask A: the empty one, then those of _masks."""
    return tuple((a, tuple(1 << i for i in range(m) if not a >> i & 1)) for a in (0, *_masks(m)))


def _read_ranks(items):
    """{frozenset: rank} from (collection of elements, rank) pairs; refuses a subset named twice.

    Every table a RankFunction holds is read here, so a subset spelled two
    ways, (1, 2) and (2, 1) or two JSON keys, is refused in one place.
    """
    table = {}
    for k, v in items:
        if type(k) is not frozenset:  # the library's own frozenset keys are not copied
            try:
                k = tuple(k)
            except TypeError:
                raise TypeError(
                    f"rank table key {k!r} is not a collection of elements") from None
        for i in k:
            if type(i) is not int:  # each message is built only on refusal
                as_int(i, "rank table key element")
        if type(v) is not int:
            as_int(v, f"rank of {sorted(k)}")
        subset = frozenset(k)
        if subset in table:
            raise ValueError(f"rank table names the subset {sorted(subset)} twice")
        table[subset] = v
    return table


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
        table = _read_ranks(self.values.items())
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
    m = len(mats)
    rank = [0] * (1 << m)
    for mask, r in _subset_ranks(mats):
        r -= offset
        if r < 0:
            raise ValueError(f"rank(A_I) - offset is negative for I={_elements(mask)}")
        rank[mask] = r
    return RankFunction(m, dict(zip(_subsets(m), rank)), provenance="matrix-family")


def check_axioms(r: RankFunction) -> AxiomReport:
    """Exhaustive polymatroid axiom check on the full table.

    Submodularity in its equivalent local form r(A+x) + r(A+y) >= r(A+x+y) + r(A)
    (Schrijver, Combinatorial Optimization, 44.1); a violation names (A+x, A+y).
    Both walks take A in size-then-lex order and x < y in increasing order.
    """
    m = r.m
    rank = _rank_list(m, r.values)
    walk = _walk(m)
    submodularity, monotonicity = [], []
    for a, free in walk:
        ra = rank[a]
        for j, x in enumerate(free):
            ax = a | x
            rax = rank[ax]
            if ra > rax:
                monotonicity.append(("monotonicity", _elements(a), x.bit_length()))
            for y in free[j + 1:]:
                if rank[ax | y] + ra > rax + rank[a | y]:
                    submodularity.append(("submodularity", _elements(ax), _elements(a | y)))
    submodular, monotone = not submodularity, not monotonicity
    normalized = rank[0] == 0
    loopless = all(rank[1 << i] >= 1 for i in range(m))
    is_matroid = (
        submodular and monotone and normalized
        and all(rank[a] <= m - len(free) for a, free in walk)
    )
    return AxiomReport(submodular, monotone, normalized, loopless, is_matroid,
                       tuple(submodularity + monotonicity))


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
    not checked here.  sums[S] is the point's sum over the mask S of the
    coordinates set so far.  Coordinate k (bit b) runs from the least
    value the coordinates above it can still complete to r([m]) up to
    min(r({k}), what is left of r([m])); setting it to v sets sums[S + b]
    = sums[S] + v for every mask S below b, and a bound it breaks stays
    broken for every larger v.  The full set needs no bound of its own:
    its sum is at most r([m]) by the range of the last coordinate.
    """
    m = r.m
    rank = _rank_list(m, r.values)
    full = (1 << m) - 1
    total = rank[full]
    sums = [0] * (1 << m)
    point = [0] * m
    points = []

    # per coordinate k: its bit, the bounds on the masks whose top bit it
    # is, and the rank of the coordinates above it
    levels = [(1 << k, rank[1 << k:2 << k], rank[full ^ ((2 << k) - 1)]) for k in range(m)]

    def dfs(k, acc):
        if k == m:
            points.append(tuple(point))
            return
        bit, bounds, cap_rest = levels[k]
        lower = sums[:bit]
        left = total - acc
        for v in range(max(left - cap_rest, 0), min(bounds[0], left) + 1):
            row = [s + v for s in lower]
            if not all(map(le, row, bounds)):
                break
            sums[bit:2 * bit] = row
            point[k] = v
            dfs(k + 1, acc + v)

    dfs(0, 0)
    return tuple(points)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _subset_sums(vec):
    """The sums of vec over every subset mask, each from the mask less its top bit."""
    sums = [0]
    for x in vec:
        sums += [s + x for s in sums]
    return sums


def _fits(vec, need):
    """vec(S) <= need[S] for every mask S inside supp(vec).

    The masks inside supp(vec) are the subset sums of its bits, in the
    order of the subset sums of its nonzero parts.
    """
    bits = [1 << i for i, x in enumerate(vec) if x]
    parts = [x for x in vec if x]
    return all(map(le, _subset_sums(parts), map(need.__getitem__, _subset_sums(bits))))


def hl_support(mats, n: int):
    """Exponent vectors vec with sum m whose power product has HL, from one rank walk.

    The rank criterion of the repeated tuple: a position set with support
    S sums to sum_{i in S} c_i A_i, all c_i >= 1, of rank rank(A_S) for PSD
    members, and has up to vec(S) = sum_{i in S} vec_i positions.  So vec
    is in the support iff vec(S) <= need[S] = rank(A_S) - (n - m) for
    every nonempty S inside supp(vec).  Where need is a polymatroid of
    full rank m, its lattice points must be the support (Theorem A).
    """
    as_int(n, "n")
    mats = list(mats)
    if not mats:
        raise ValueError("empty matrix family")
    m = len(mats)
    if m > n:
        raise ValueError("more factors than the ambient dimension")
    _check_family(mats, n)
    need = [0] * (1 << m)
    for mask, rank in _subset_ranks(mats):
        need[mask] = rank - (n - m)
    support = {vec for vec in _compositions(m, m) if _fits(vec, need)}
    if min(need) >= 0 and need[-1] == m:
        table = RankFunction(m, dict(zip(_subsets(m), need)))
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
    rank = _rank_list(r.m, r.values)
    for vec in poly.points:
        sums = _subset_sums(vec)
        if sums[-1] != dim_x:
            raise InternalCheckError("point violates the total-degree equality")
        if not all(map(le, sums[1:-1], rank[1:-1])):
            raise InternalCheckError("point violates a defining inequality")
    return set(poly.points)
