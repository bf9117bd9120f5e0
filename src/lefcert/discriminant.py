"""Mixed discriminants of Hermitian tuples and torus intersection numbers.

The two quantities are proportional: intersection_number = n! * mixed
discriminant, with the constant pinned by the identity tuple (where the
top power of the standard form is n! times the volume element).

The subset lattice A_I = sum_{i in I} A_i behind mixed discriminants, the
rank criteria and the polymatroid rank table is one table per family,
filled by one walk over Gaussian integers.  A subset I of [m] is a mask,
bit i - 1 for element i, everywhere from the walk to the rank tables, and
_masks is the package's one size-then-lex order of them, generated lazily;
_elements turns a mask into its tuple only where one is reported.  Every
member's cached Z[i] rows (HermitianMatrix clears each matrix once) are
lifted to the family's lcm denominator L, and each sum is an element-wise
int sum.  Ranks are invariant under the scaling by L, and determinants are
scaled back by L^n once, at the end.  Each A_I is Hermitian, so one
Hermitian elimination (linalg._inertia) per A_I gives both its rank and its
determinant; no subset walk runs the general Bareiss elimination.  A
singleton is not eliminated again: its entry is the member's own cached
inertia, with the determinant of L_i A_i scaled by (L / L_i)^n.  The table
keeps each inertia for the last family walked, matched by the identity of
its members.  So mixed_discriminant, panov_positivity, the rank tables and
criterion_hl, called in turn on the same matrices, eliminate each A_I once
between them; criterion_hl ranks lazily, and a later walk goes on from
where it stopped.  The failing-subset rule, rank(A_I) < |I| + shift, is
written once, in rank_deficient_subset: panov_positivity reads its first
failing subset and deficit there, and D from the same table.
intersection_number wedges the PQForm (i A_1) ^ ... ^ (i A_n) from the same
cached rows and reads it with volume_scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, factorial
from operator import add, is_

from .exterior import _fold, volume_scalar
from .linalg import InternalCheckError, _check_family, _copy_rows, _inertia, _lift
from .rationals import Rat

__all__ = [
    "mixed_discriminant",
    "intersection_number",
    "panov_positivity",
    "reverse_kt_check",
    "PositivityCertificate",
    "subsets_size_lex",
    "rank_deficient_subset",
]


def _check_tuple(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("empty matrix tuple")
    n = mats[0].n
    _check_family(mats, n, psd=False)
    if len(mats) != n:
        raise ValueError(f"need exactly n={n} matrices, got {len(mats)}")
    return mats, n


def _elements(mask):
    """The elements, in increasing order, of the subset a mask stands for: bit i - 1 for i."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _masks(m):
    """The nonempty subset masks of [m], smallest size first, then lexicographic, lazily.

    The package's one subset order: a walk that stops early has made no
    mask past where it stopped.
    """
    bits = [1 << i for i in range(m)]
    return chain.from_iterable(map(sum, combinations(bits, size)) for size in range(1, m + 1))


def _add(a, b):
    """The (re, im) rows of A + B from those of A and B."""
    (ar, ai), (br, bi) = a, b
    return (tuple(tuple(map(add, x, y)) for x, y in zip(ar, br)),
            tuple(tuple(map(add, x, y)) for x, y in zip(ai, bi)))


class _SubsetTable:
    """The inertia of L * A_I for every nonempty I of one family, filled lazily.

    results[k] is (mask, _inertia's (npos, nneg, nzero, det) of L * A_I)
    for the k-th mask of _masks; results always holds a prefix of that
    order.  To extend it the table keeps the members' lifted rows and the
    sums A_I memoised by mask; both are dropped once a walk has reached the
    last subset, and a later walk reads results alone.  members holds the
    family's matrices themselves, so no id it is matched by can be reused
    while the table lives.
    """

    __slots__ = ("members", "den", "lifted", "sums", "results")

    def __init__(self, mats):
        self.members = tuple(mats)
        self.den, self.lifted = _lift(self.members)
        self.sums = {}
        self.results = []

    def _sum(self, mask):
        """The (re, im) rows of L * A_I, as A_{mask ^ top} + A_top for the top bit of mask.

        The smaller sum is memoised; a singleton's rows are the member's
        own.  The rows are shared with the memo and with the matrices'
        caches: eliminate a list copy.
        """
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        return _add(self.sums[rest], self.lifted[top]) if rest else self.lifted[top]

    def walk(self):
        """Yield (mask of I, inertia of L * A_I) for every nonempty I in the order of _masks, lazily.

        The package's one subset-lattice walk.  A subset is summed and
        eliminated only when no earlier walk of this table reached it; an
        elimination that raises stores nothing, so the next walk raises again.
        A singleton is not eliminated again: L * A_i is (L / L_i) * L_i A_i,
        so its inertia is the member's cached one, with det scaled by
        (L / L_i)^n.
        """
        results = self.results
        if self.sums is None:  # complete: no mask is made again
            yield from results
            return
        for k, mask in enumerate(_masks(len(self.members))):
            if k == len(results):
                re, im = rows = self._sum(mask)
                if mask & (mask - 1):
                    inertia = _inertia(_copy_rows(re), _copy_rows(im))
                else:
                    member = self.members[mask.bit_length() - 1]
                    *signs, det = member._elimination()
                    inertia = (*signs, det * (self.den // member._cleared[2]) ** member.n)
                self.sums[mask] = rows
                results.append((mask, inertia))
            yield results[k]
        self.lifted = self.sums = None


_last = None  # the _SubsetTable of the last family walked


def _table(mats):
    """The subset table of the family mats, the memoised one if it holds the same members.

    Only the last family walked is memoised.  Its members are matched by
    identity, in order, not by value: a value-equal family built afresh
    starts its own table.
    """
    global _last
    mats = tuple(mats)
    table = _last
    if table is None or len(table.members) != len(mats) or not all(map(is_, table.members, mats)):
        table = _last = _SubsetTable(mats)
    return table


def _subset_ranks(mats):
    """Yield (mask of I, rank(A_I)) along the walk; nothing is summed or ranked ahead of the caller."""
    for mask, (npos, nneg, _, _) in _table(mats).walk():
        yield mask, npos + nneg


def rank_deficient_subset(mats, shift=0):
    """First I in size-then-lex order with rank(A_I) < |I| + shift.

    Returns (I, deficit) or None; no sum is built and no rank computed
    past the first failure, and only the failing mask is read as a tuple.
    """
    for mask, r in _subset_ranks(mats):
        need = mask.bit_count() + shift
        if r < need:
            return _elements(mask), need - r
    return None


def _discriminant(mats):
    """D(A_1,...,A_n) from one Hermitian elimination (linalg._inertia) per L * A_I.

    Each elimination gives det(L * A_I) as a real integer, 0 below full
    rank; D sums those determinants, signed by inclusion-exclusion, over
    n! L^n.
    """
    n = len(mats)
    table = _table(mats)
    total = 0  # the empty subset adds det(0) = 0
    for mask, (_, _, _, det) in table.walk():
        total += -det if (n - mask.bit_count()) % 2 else det
    return Rat(total, factorial(n) * table.den ** n)


def mixed_discriminant(mats):
    """D(A_1,...,A_n) by inclusion-exclusion over exact Z[i] subset determinants."""
    return _discriminant(_check_tuple(mats)[0])


def intersection_number(mats):
    """The torus intersection number alpha_1 ... alpha_n = n! * D.

    The top form is wedged over Z[i] from the matrices' cached rows and
    read against the volume element by volume_scalar.
    """
    mats, n = _check_tuple(mats)
    value = volume_scalar(_fold(n, mats))
    if value.im:
        raise InternalCheckError("intersection number has nonzero imaginary part")
    return value.re


def subsets_size_lex(m):
    """Nonempty subsets of [m] (1-based) as tuples, in the order of _masks."""
    return map(_elements, _masks(m))


@dataclass(frozen=True)
class PositivityCertificate:
    """Verdict for D(A_1,...,A_n) > 0 with a failing subset on the zero case."""

    positive: bool
    failing_subset: tuple | None = None
    rank_deficit: int | None = None


def panov_positivity(mats) -> PositivityCertificate:
    """D > 0 iff every subset sum A_I has rank at least |I| (PSD input).

    The failing subset and its deficit are rank_deficient_subset's, and D
    is read from the same subset table, so each A_I is eliminated once
    for both.  On failure returns the first failing subset in
    size-then-lex order, and D is checked to be zero; on success D is
    checked to be positive.
    """
    mats, n = _check_tuple(mats)
    _check_family(mats, n)
    failing = rank_deficient_subset(mats)
    d = _discriminant(mats)
    if failing is not None:
        if d != 0:
            raise InternalCheckError("rank criterion failed but D != 0")
        return PositivityCertificate(False, *failing)
    if d <= 0:
        raise InternalCheckError("rank criterion held but D <= 0")
    return PositivityCertificate(True)


def reverse_kt_check(a_mats, b_mat, c_mats) -> bool:
    """The reverse Khovanskii-Teissier inequality as an exact theorem-test.

    With k = len(a_mats) and n = k + len(c_mats):
    (n!/(k!(n-k)!)) (A_1...A_k B^{n-k}) (B^k C_1...C_{n-k})
        >= (B^n)(A_1...A_k C_1...C_{n-k}).
    Returns whether the inequality holds; must be true for PSD input.  A
    bad member is named by its position in a_mats + [b_mat] + c_mats.
    """
    a_mats, c_mats = list(a_mats), list(c_mats)
    k = len(a_mats)
    n = b_mat.n
    if len(c_mats) != n - k:
        raise ValueError("need k + (n-k) factor matrices")
    _check_family(a_mats + [b_mat] + c_mats, n)
    lhs = (comb(n, k) * intersection_number(a_mats + [b_mat] * (n - k))
           * intersection_number([b_mat] * k + c_mats))
    return lhs >= intersection_number([b_mat] * n) * intersection_number(a_mats + c_mats)
