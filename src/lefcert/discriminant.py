"""Mixed discriminants of Hermitian tuples and torus intersection numbers.

The two quantities are proportional: intersection_number = n! * mixed
discriminant, with the constant pinned by the identity tuple (where the
top power of the standard form is n! times the volume element).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial

from .exterior import form_from_matrix, volume_scalar, wedge_many
from .linalg import InternalCheckError, mat_det
from .rationals import GR, ZERO

__all__ = [
    "mixed_discriminant",
    "intersection_number",
    "panov_positivity",
    "reverse_kt_check",
    "PositivityCertificate",
    "subset_sums",
    "subsets_size_lex",
    "rank_deficient_subset",
]


def _check_tuple(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("empty matrix tuple")
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise ValueError("matrices have mismatched dimensions")
    if len(mats) != n:
        raise ValueError(f"need exactly n={n} matrices, got {len(mats)}")
    return mats, n


def subset_sums(mats):
    """Yield (I, A_I) for every nonempty I in size-then-lex order, lazily.

    The package's one subset-lattice walk.  A_I is built only when the
    walk reaches it, as A_{I minus max I} + A_{max I}; the smaller sum
    came earlier in the walk and is memoised.  A singleton's sum is the
    matrix itself, and an empty family yields nothing.
    """
    built = {}
    for subset in subsets_size_lex(len(mats)):
        *head, last = subset
        s = built[tuple(head)] + mats[last - 1] if head else mats[last - 1]
        built[subset] = s
        yield subset, s


def rank_deficient_subset(mats, shift=0):
    """First I in size-then-lex order with rank(A_I) < |I| + shift.

    Returns (I, deficit) or None; no sum is built and no rank computed
    past the first failure.
    """
    for subset, s in subset_sums(mats):
        r = s.rank()
        need = len(subset) + shift
        if r < need:
            return subset, need - r
    return None


def mixed_discriminant(mats):
    """D(A_1,...,A_n) by inclusion-exclusion over subset determinants."""
    mats, n = _check_tuple(mats)
    total = ZERO  # the empty subset adds det(0) = 0
    for subset, s in subset_sums(mats):
        d = mat_det(s.rows)
        if (n - len(subset)) % 2:
            total = total - d
        else:
            total = total + d
    value = total / GR(factorial(n))
    if value.im:
        raise InternalCheckError("mixed discriminant has nonzero imaginary part")
    return value.re


def intersection_number(mats):
    """The torus intersection number alpha_1 ... alpha_n = n! * D."""
    mats, n = _check_tuple(mats)
    top = wedge_many([form_from_matrix(a) for a in mats], n)
    value = volume_scalar(top)
    if value.im:
        raise InternalCheckError("intersection number has nonzero imaginary part")
    return value.re


def subsets_size_lex(m):
    """Nonempty subsets of [m] (1-based), smallest size first, then lexicographic."""
    for size in range(1, m + 1):
        yield from combinations(range(1, m + 1), size)


@dataclass(frozen=True)
class PositivityCertificate:
    """Verdict for D(A_1,...,A_n) > 0 with a failing subset on the zero case."""

    positive: bool
    failing_subset: tuple | None = None
    rank_deficit: int | None = None


def panov_positivity(mats) -> PositivityCertificate:
    """D > 0 iff every subset sum A_I has rank at least |I| (PSD input).

    On failure returns the first failing subset in size-then-lex order;
    on success the mixed discriminant is cross-checked to be positive.
    """
    mats, _ = _check_tuple(mats)
    for a in mats:
        if not a.is_psd():
            raise ValueError("panov_positivity requires PSD matrices")
    failing = rank_deficient_subset(mats)
    if failing is not None:
        if mixed_discriminant(mats) != 0:
            raise InternalCheckError("rank criterion failed but D != 0")
        return PositivityCertificate(False, *failing)
    d = mixed_discriminant(mats)
    if d <= 0:
        raise InternalCheckError("rank criterion held but D <= 0")
    return PositivityCertificate(True)


def reverse_kt_check(a_mats, b_mat, c_mats) -> bool:
    """The reverse Khovanskii-Teissier inequality as an exact theorem-test.

    With k = len(a_mats) and n = k + len(c_mats):
    (n!/(k!(n-k)!)) (A_1...A_k B^{n-k}) (B^k C_1...C_{n-k})
        >= (B^n)(A_1...A_k C_1...C_{n-k}).
    Returns whether the inequality holds; must be true for PSD input.
    """
    a_mats, c_mats = list(a_mats), list(c_mats)
    k = len(a_mats)
    n = b_mat.n
    if len(c_mats) != n - k:
        raise ValueError("need k + (n-k) factor matrices")
    for m in a_mats + [b_mat] + c_mats:
        if m.n != n:
            raise ValueError("matrices have mismatched dimensions")
        if not m.is_psd():
            raise ValueError("reverse_kt_check requires PSD matrices")
    lhs = (
        GR(comb(n, k))
        * GR(intersection_number(a_mats + [b_mat] * (n - k)))
        * GR(intersection_number([b_mat] * k + c_mats))
    )
    rhs = GR(intersection_number([b_mat] * n)) * GR(intersection_number(a_mats + c_mats))
    return lhs.as_real() >= rhs.as_real()
