import pytest

from lefcert import GeneratorSpec, HermitianMatrix, generate_psd
from lefcert.discriminant import _SubsetTable, subsets_size_lex
from lefcert.generate import SplitMix64

_acceptance_lines = []


def record_acceptance(line):
    """Collect per-criterion verdict lines; emitted in the terminal summary."""
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture
def diag():
    return HermitianMatrix.diagonal


def random_psd_family(seed, n, count, max_rank=None, entry_bound=2):
    """Seeded family of PSD matrices with pseudo-random rank profile."""
    rng = SplitMix64(seed * 0x9E3779B9 + 1)
    hi = n if max_rank is None else max_rank
    profile = tuple(rng.integer(0, hi) for _ in range(count))
    return generate_psd(
        GeneratorSpec(seed=seed, n=n, rank_profile=profile, entry_bound=entry_bound)
    )


def random_hermitian(seed, n, bound=3):
    """Seeded dense Hermitian matrix (not necessarily PSD)."""
    from lefcert.rationals import GaussianRational

    rng = SplitMix64(seed * 0xC0FFEE + 7)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = GaussianRational(rng.integer(-bound, bound))
        for j in range(i + 1, n):
            c = GaussianRational(rng.integer(-bound, bound), rng.integer(-bound, bound))
            rows[i][j] = c
            rows[j][i] = c.conjugate()
    return HermitianMatrix(rows)


def singular_pivot_rows(monkeypatch):
    """Make linalg._det_residue name its first pivot row twice wherever f >= 2: a singular row set."""
    import lefcert.linalg as linalg_mod

    det_residue = linalg_mod._det_residue

    def doctored(re, im):
        residue, f, rows = det_residue(re, im)
        return residue, f, rows[:-1] + rows[:1] if f is not None and f >= 2 else rows

    monkeypatch.setattr(linalg_mod, "_det_residue", doctored)


def subset_sums(mats):
    """Yield (I, A_I) as the library's subset table sums them, each A_I read as a HermitianMatrix.

    A fresh table, so no memoised family is read or replaced; nothing is eliminated.
    """
    table = _SubsetTable(mats)
    for subset in subsets_size_lex(len(table.members)):
        table.sums[subset] = rows = table._sum(subset)
        yield subset, HermitianMatrix._from_integer_rows(*rows, table.den)


def non_real_diagonal():
    """A 2x2 'HermitianMatrix' whose entry (0, 0) is 1 + i, built past the Hermitian check."""
    re, im = ((1, 0), (0, 1)), ((1, 0), (0, 0))
    bad = HermitianMatrix.__new__(HermitianMatrix)
    for name, value in zip(HermitianMatrix.__slots__, (2, (re, im, 1), None, None)):
        object.__setattr__(bad, name, value)
    return bad
