"""The benchmark workloads.

Each workload turns a seed into a pool of task inputs (setup), runs one
task through lefcert's public API (`run`, untraced), replays the same
task as the sequence of public calls that API makes, each wrapped in a
span (`replay`, traced), and checks an outcome, returning the canonical
record that goes into the run's verdict digest (`check`).

Inputs come only from SplitMix64 and generate_psd.  Setup keeps the
entries, not the generated HermitianMatrix objects: generate_psd has
already called is_psd() and rank() on those, and the results stay cached
on the object, so a timed task that reused them would hide PSD and rank
work in set-up.  Every timed task rebuilds its matrices from entries (or
from JSON for cli-corpus), as a library or CLI user would.

The replays mirror the library's orchestration at the time of writing,
call for call, without patching lefcert; the run checks that a replay
reaches the same records as the untraced call.
"""

from __future__ import annotations

import json
import os
import warnings
from math import comb, factorial
from operator import add

from lefcert import cli
from lefcert.certify import (
    Certificate,
    HLInstance,
    PreconditionError,
    PrimitiveSpace,
    criterion_hl,
    direct_hl,
    hermitian_real_basis,
)
from lefcert.discriminant import (
    PositivityCertificate,
    intersection_number,
    mixed_discriminant,
    panov_positivity,
    subsets_size_lex,
)
from lefcert.exterior import (
    PQForm,
    basis_indices,
    conjugate_form,
    form_from_matrix,
    multiplication_matrix,
    volume_scalar,
    wedge,
    wedge_many,
    wedge_operator_matrix,
)
from lefcert.generate import GeneratorSpec, SplitMix64, generate_psd
from lefcert.linalg import (
    HermitianFormOnSpace,
    HermitianMatrix,
    InternalCheckError,
    hermitian_signature,
    kernel_basis,
    mat_det,
    mat_rank,
)
from lefcert.polymatroid import (
    RankFunction,
    check_axioms,
    enumerate_points,
    hl_support,
    rank_from_matrices,
)
from lefcert.rationals import GR, ZERO, cpq_constant
from lefcert.serialize import (
    certificate_to_json,
    form_from_json,
    form_to_json,
    matrix_from_json,
    matrix_to_json,
    rank_function_to_json,
    rat_to_str,
)


class CheckFailed(Exception):
    """A verdict that disagrees with its cross-check or with theory."""


class _NoTrace:
    """Stand-in tracer for set-up outside the traced run."""

    @staticmethod
    def call(_name, fn, *args):
        return fn(*args)


NO_TRACE = _NoTrace()


# ---------------------------------------------------------------- inputs

BANK_COPIES = 3
PROFILE_SEED = 0x5EED


class Bank:
    """BANK_COPIES seeded PSD matrices of each rank at each n, from generate_psd.

    Tasks draw their families from the bank, so a pool of a hundred or
    more distinct tasks costs only a few generate_psd calls.  Only entries
    are kept.  Rank profiles come from a stream with a fixed seed, the
    same for every run seed, so every seed measures the same mix of ranks
    (and about the same share of failing verdicts); the run seed picks
    the matrices.
    """

    def __init__(self, tr, rng, ns, lowest_rank):
        self.rng = rng
        self.profiles = SplitMix64(PROFILE_SEED)
        self.rows = {}
        for n in ns:
            for r in range(lowest_rank, n + 1):
                spec = GeneratorSpec(seed=rng.next_u64(), n=n, rank_profile=(r,) * BANK_COPIES)
                self.rows[n, r] = [m.rows for m in tr.call("generate.psd", generate_psd, spec)]

    def pick(self, n, r):
        return self.rows[n, r][self.rng.below(BANK_COPIES)]

    def family(self, n, count, lo):
        """`count` matrices with ranks drawn uniformly from [lo, n]."""
        return tuple(self.pick(n, self.profiles.integer(lo, n)) for _ in range(count))


def _build_all(rows_list):
    return [HermitianMatrix(rows) for rows in rows_list]


def warm(ns):
    """Fill the library's lazy caches for every degree at each n."""
    for n in ns:
        for p in range(n + 1):
            for q in range(n + 1):
                basis_indices(n, p, q)
        full = tuple(range(1, n + 1))
        volume_scalar(PQForm(n, n, n, {(full, full): 1}))


def _entries(rows_lists):
    for rows_list in rows_lists:
        for rows in rows_list:
            for row in rows:
                yield from (x for x in row if x)


def _bits(x):
    return max(v.bit_length() for v in (x.re.numerator, x.re.denominator,
                                        x.im.numerator, x.im.denominator))


# ------------------------------------------- replays of library routes
#
# Span names are the per-layer metric names without their unit suffix.
# Spans in the certify, discriminant, polymatroid and cli layers wrap a
# whole route; the work inside them is in nested linalg and exterior spans.


def _psd(tr, mats):
    for a in mats:
        if not tr.call("linalg.psd", a.is_psd):
            raise ValueError("input matrix is not PSD")


def _rank(tr, mat):
    tr.count("linalg.rank_calls")
    return tr.call("linalg.rank", mat.rank)


def _det(tr, rows):
    d = tr.call("linalg.det", mat_det, rows)
    tr.count("linalg.det_calls")
    tr.observe_max("linalg.det_dim_max", len(rows))
    tr.observe_max("linalg.det_bits_max", _bits(d))
    return d


def _kernel(tr, rows, ncols):
    return tr.call("linalg.kernel", kernel_basis, rows, ncols)


def _observe_matrix(tr, rows):
    nonzero = [x for row in rows for x in row if x]
    tr.count("exterior.matrix_nnz", len(nonzero))
    if nonzero:
        tr.observe_max("exterior.entry_bits_max", max(_bits(x) for x in nonzero))


def _sums(tr, mats):
    """Yield (mask, A_I) along the subset lattice in the library's order."""
    sums = {0: tr.call("linalg.add", HermitianMatrix.zero, mats[0].n)}
    yield 0, sums[0]
    for mask in range(1, 1 << len(mats)):
        low = mask & -mask
        sums[mask] = tr.call("linalg.add", add, sums[mask ^ low], mats[low.bit_length() - 1])
        yield mask, sums[mask]


def _criterion(tr, forms, p, q):
    """certify.criterion_hl"""
    with tr.span("certify.criterion"):
        ranks = {}
        if forms:
            ranks = {mask: _rank(tr, s) for mask, s in _sums(tr, forms) if mask}
        for subset in subsets_size_lex(len(forms)):
            mask = sum(1 << (i - 1) for i in subset)
            need = len(subset) + p + q
            if ranks[mask] < need:
                return Certificate("fails", failing_subset=subset,
                                   rank_deficit=need - ranks[mask])
        return Certificate("holds")


def _direct(tr, inst):
    """certify.direct_hl, with the witness re-check it performs on "fails"."""
    with tr.span("certify.direct"):
        tr.count("certify.hl_verdicts")
        omega = tr.call("exterior.omega", inst.omega)
        matrix = tr.call("exterior.matrix_build", multiplication_matrix, omega, inst.p, inst.q)
        _observe_matrix(tr, matrix)
        if _det(tr, matrix):
            return Certificate("holds")
        tr.count("certify.hl_fails")
        with tr.span("certify.witness"):
            basis = _kernel(tr, matrix, len(matrix))
            if not basis:
                raise InternalCheckError("singular multiplication matrix with empty kernel")
            witness = tr.call("exterior.wedge", PQForm.from_coefficient_vector,
                              inst.n, inst.p, inst.q, basis[0])
            if witness.is_zero():
                raise InternalCheckError("zero kernel witness")
            omega = tr.call("exterior.omega", inst.omega)
            if not tr.call("exterior.wedge", wedge, omega, witness).is_zero():
                raise InternalCheckError("kernel witness is not annihilated by Omega")
        return Certificate("fails", kernel_witness=witness)


def _instance(tr, n, p, q, forms, eta=None):
    """HLInstance(...), whose validation calls is_psd on every form."""
    _psd(tr, forms if eta is None else tuple(forms) + (eta,))
    return HLInstance(n, p, q, tuple(forms), eta=eta)


def _mixed_disc(tr, mats):
    """discriminant.mixed_discriminant"""
    with tr.span("discriminant.mixed_disc"):
        n = len(mats)
        total = ZERO
        for mask, s in dict(_sums(tr, mats)).items():
            d = _det(tr, s.rows)
            tr.count("discriminant.subset_dets")
            total = total - d if (n - bin(mask).count("1")) % 2 else total + d
        value = total / GR(factorial(n))
        if value.im:
            raise InternalCheckError("mixed discriminant has nonzero imaginary part")
        return value.re


def _intersection(tr, mats):
    """discriminant.intersection_number"""
    with tr.span("discriminant.intersection"):
        forms = [tr.call("exterior.wedge", form_from_matrix, a) for a in mats]
        top = tr.call("exterior.wedge", wedge_many, forms, mats[0].n)
        value = tr.call("exterior.wedge", volume_scalar, top)
        if value.im:
            raise InternalCheckError("intersection number has nonzero imaginary part")
        return value.re


def _positivity(tr, mats):
    """discriminant.panov_positivity"""
    with tr.span("discriminant.positivity"):
        _psd(tr, mats)
        sums = dict(_sums(tr, mats))
        for subset in subsets_size_lex(len(mats)):
            r = _rank(tr, sums[sum(1 << (i - 1) for i in subset)])
            if r < len(subset):
                if _mixed_disc(tr, mats) != 0:
                    raise InternalCheckError("rank criterion failed but D != 0")
                return PositivityCertificate(False, subset, len(subset) - r)
        if _mixed_disc(tr, mats) <= 0:
            raise InternalCheckError("rank criterion held but D <= 0")
        return PositivityCertificate(True)


def _rank_table(tr, mats, offset=0):
    """polymatroid.rank_from_matrices"""
    _psd(tr, mats)
    m = len(mats)
    values = {frozenset(): 0}
    for mask, s in _sums(tr, mats):
        if not mask:
            continue
        subset = frozenset(i + 1 for i in range(m) if mask >> i & 1)
        r = _rank(tr, s) - offset
        if r < 0:
            raise ValueError(f"rank(A_I) - offset is negative for I={tuple(sorted(subset))}")
        values[subset] = r
    return RankFunction(m, values, provenance="matrix-family")


def _compositions(total, parts):
    """Compositions of `total` into `parts` parts, in hl_support's order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _enumerate(tr, table):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tr.call("polymatroid.enumerate", enumerate_points, table)


def _hl_support(tr, mats, n):
    """polymatroid.hl_support, both routes."""
    with tr.span("polymatroid.hl_support"):
        m = len(mats)
        p = (n - m) // 2
        q = n - m - p
        support = set()
        for vec in _compositions(m, m):
            tr.count("polymatroid.compositions")
            repeated = []
            for a, count in zip(mats, vec):
                repeated.extend([a] * count)
            inst = _instance(tr, n, p, q, repeated)
            tr.count("polymatroid.criterion_calls")
            if _criterion(tr, inst.forms, p, q).holds:
                support.add(vec)
        tr.count("polymatroid.support_points", len(support))
        try:
            table = _rank_table(tr, mats, offset=n - m)
        except ValueError:
            table = None
        if table is not None and table.full_rank() == m:
            full = frozenset(range(1, m + 1))
            expected = {
                vec for vec in _compositions(m, m)
                if all(sum(vec[i - 1] for i in subset) <= table(subset)
                       for subset in table.values if subset and subset != full)
            }
            if expected != support:
                raise InternalCheckError("HL support and rank-table inequalities disagree")
            if tr.call("polymatroid.axioms", check_axioms, table).is_polymatroid:
                if set(_enumerate(tr, table).points) != support:
                    raise InternalCheckError("HL support and polymatroid enumeration disagree")
        elif table is not None and support:
            raise InternalCheckError("deficient full rank must give empty HL support")
        return support


def _primitive_space(tr, inst):
    """certify._primitive_space: ker(Omega ^ eta ^ .) inside Lambda^{p,q}."""
    omega = tr.call("exterior.omega", inst.omega)
    coupled = tr.call("exterior.wedge", wedge, omega,
                      tr.call("exterior.wedge", form_from_matrix, inst.eta))
    rows, ncols = tr.call("exterior.matrix_build", wedge_operator_matrix,
                          coupled, inst.p, inst.q)
    _observe_matrix(tr, rows)
    vectors = _kernel(tr, rows, ncols)
    basis = tr.call("exterior.wedge", lambda: tuple(
        PQForm.from_coefficient_vector(inst.n, inst.p, inst.q, v) for v in vectors))
    for phi in basis:
        if not tr.call("exterior.wedge", wedge, coupled, phi).is_zero():
            raise InternalCheckError("primitive basis element not annihilated")
    return omega, basis


def _gram(omega, basis, p, q):
    """certify._gram_on_basis, timed as one span."""
    c = cpq_constant(p, q)
    partial = [wedge(omega, phi) for phi in basis]
    conjs = [conjugate_form(phi) for phi in basis]
    k = len(basis)
    gram = [[ZERO] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            gram[a][b] = c * volume_scalar(wedge(partial[a], conjs[b]))
    for a in range(k):
        for b in range(k):
            if gram[a][b] != gram[b][a].conjugate():
                raise InternalCheckError("Q Gram matrix is not Hermitian")
    return gram


def _hr(tr, inst):
    """certify.hr_certify"""
    with tr.span("certify.hr"):
        need = inst.p + inst.q
        if _rank(tr, inst.eta) < need:
            raise PreconditionError("rank(eta) below p+q")
        omega, basis = _primitive_space(tr, inst)
        gram = tr.call("certify.gram", _gram, omega, basis, inst.p, inst.q)
        form = tr.call("linalg.build", HermitianFormOnSpace, gram)
        space = PrimitiveSpace(basis=basis, gram=form)
        tr.count("certify.hr_certificates")
        tr.count("certify.primitive_dim", len(basis))
        _npos, nneg, nzero = tr.call("linalg.inertia", form.signature)
        if nneg == 0 and nzero == 0:
            return Certificate("holds"), space
        crit = _criterion(tr, inst.forms, inst.p, inst.q)
        if crit.holds:
            raise InternalCheckError("Gram not positive definite yet rank criterion holds")
        return Certificate("fails", failing_subset=crit.failing_subset,
                           rank_deficit=crit.rank_deficit), space


def _lefschetz(tr, inst):
    """certify.lefschetz_decomposition"""
    with tr.span("certify.lefschetz"):
        n, p, q = inst.n, inst.p, inst.q
        if not _criterion(tr, inst.forms, p, q).holds:
            raise PreconditionError("HL criterion fails for (p,q)")
        if p >= 1 and q >= 1:
            extended = HLInstance(n, p - 1, q - 1, inst.forms + (inst.eta, inst.eta))
            if not _criterion(tr, extended.forms, p - 1, q - 1).holds:
                raise PreconditionError("HL criterion fails for (p-1,q-1) with eta adjoined")
        omega, prim_basis = _primitive_space(tr, inst)
        if p == 0 or q == 0:
            image_basis = ()
        else:
            eta_form = tr.call("exterior.wedge", form_from_matrix, inst.eta)
            image_basis = tr.call("exterior.wedge", lambda: tuple(
                wedge(eta_form, PQForm.basis_element(n, i, j))
                for (i, j) in basis_indices(n, p - 1, q - 1)))
        dim_pq = comb(n, p) * comb(n, q)
        dim_lower = comb(n, p - 1) * comb(n, q - 1) if (p >= 1 and q >= 1) else 0
        if len(prim_basis) != dim_pq - dim_lower:
            raise InternalCheckError("primitive dimension identity violated")
        stacked = [phi.coefficient_vector() for phi in image_basis + prim_basis]
        tr.count("linalg.rank_calls")
        if tr.call("linalg.rank", mat_rank, stacked) != dim_pq:
            raise InternalCheckError("decomposition does not span Lambda^{p,q}")
        c = cpq_constant(p, q)
        for psi in image_basis:
            wpsi = wedge(omega, psi)
            for phi in prim_basis:
                if c * volume_scalar(wedge(wpsi, conjugate_form(phi))):
                    raise InternalCheckError("summands not Q-orthogonal")
                if c * volume_scalar(wedge(wedge(omega, phi), conjugate_form(psi))):
                    raise InternalCheckError("summands not Q-orthogonal")
        return image_basis, prim_basis, (len(image_basis), len(prim_basis))


def _lorentzian(tr, forms, n):
    """certify.lorentzian_signature"""
    with tr.span("certify.lorentzian"):
        _psd(tr, forms)
        basis = tr.call("linalg.build", hermitian_real_basis, n)
        dim = len(basis)
        gram = [[ZERO] * dim for _ in range(dim)]
        for a in range(dim):
            for b in range(a, dim):
                v = _mixed_disc(tr, [basis[a], basis[b]] + list(forms))
                gram[a][b] = GR(v)
                gram[b][a] = GR(v)
        return tr.call("linalg.inertia", hermitian_signature, gram)


# ------------------------------------------------------------ workloads


class HLDirect:
    """HL by both routes, criterion_hl against direct_hl, at n = 3 and 4.

    linalg.mat_det of the multiplication matrix does most of the work.
    Every bidegree whose matrix is at most 24x24 is in each round.  The
    n = 5 bidegrees are left out: their tasks take 0.1-7 s with the
    Fraction backend, too long for 100 distinct tasks run three times.
    """

    name = "hl-direct"
    rounds = 5

    def __init__(self, tiny=False):
        self.ns = (2, 3) if tiny else (3, 4)
        self.classes = [
            (n, p, q)
            for n in self.ns
            for p in range(n + 1)
            for q in range(n + 1 - p)
            if comb(n, p) * comb(n, q) <= 24
        ]
        if tiny:
            self.rounds = 7

    def setup(self, rng, tr):
        bank = Bank(tr, rng, self.ns, 1)
        return [(n, p, q, bank.family(n, n - p - q, 1))
                for _ in range(self.rounds) for n, p, q in self.classes]

    @staticmethod
    def entries(tasks):
        return _entries(task[3] for task in tasks)

    @staticmethod
    def run(task):
        n, p, q, rows = task
        inst = HLInstance(n, p, q, tuple(_build_all(rows)))
        return inst, criterion_hl(inst), direct_hl(inst)

    @staticmethod
    def replay(task, tr):
        n, p, q, rows = task
        inst = _instance(tr, n, p, q, [tr.call("linalg.build", HermitianMatrix, r) for r in rows])
        return inst, _criterion(tr, inst.forms, p, q), _direct(tr, inst)

    @staticmethod
    def check(task, outcome):
        inst, crit, direct = outcome
        _check_hl_pair(inst, crit, direct)
        witness = direct.kernel_witness
        return [inst.n, inst.p, inst.q, crit.verdict, crit.failing_subset, crit.rank_deficit,
                None if witness is None else form_to_json(witness)]


class PositivityBatch:
    """Many small tuples through panov_positivity and the top-wedge cross-check.

    A task is one tuple of n PSD matrices, n = 2, 3 or 4, with ranks drawn
    from [0, n], so some tuples have D = 0.  It runs panov_positivity,
    intersection_number and mixed_discriminant; the check asks for
    intersection_number == n! * D (acceptance criteria 3 and 4).  The
    matrices are at most 4x4, so per-scalar overhead (rationals, small
    ranks and determinants, HermitianMatrix.__add__) dominates: a kernel
    change that wins on large matrices but adds constant cost loses here.
    """

    name = "positivity-batch"
    rounds = 12

    def __init__(self, tiny=False):
        self.ns = (2, 3) if tiny else (2, 3, 4)
        self.classes = (2, 2, 3) if tiny else (2, 2, 2, 3, 3, 3, 3, 4, 4)
        if tiny:
            self.rounds = 34

    def setup(self, rng, tr):
        bank = Bank(tr, rng, self.ns, 0)
        return [(n, bank.family(n, n, 0)) for _ in range(self.rounds) for n in self.classes]

    @staticmethod
    def entries(tasks):
        return _entries(task[1] for task in tasks)

    @staticmethod
    def run(task):
        mats = _build_all(task[1])
        return panov_positivity(mats), intersection_number(mats), mixed_discriminant(mats)

    @staticmethod
    def replay(task, tr):
        mats = [tr.call("linalg.build", HermitianMatrix, r) for r in task[1]]
        return _positivity(tr, mats), _intersection(tr, mats), _mixed_disc(tr, mats)

    @staticmethod
    def check(task, outcome):
        n, rows = task
        cert, number, disc = outcome
        if number != factorial(n) * disc:
            raise CheckFailed("intersection number is not n! times the mixed discriminant")
        if cert.positive != (disc > 0):
            raise CheckFailed(f"positivity verdict {cert.positive} but D = {disc}")
        if not cert.positive:
            _check_failing_subset(_build_all(rows), cert.failing_subset, len(cert.failing_subset))
        return [n, cert.positive, cert.failing_subset, cert.rank_deficit, rat_to_str(disc)]


class PolymatroidSupport:
    """One seeded family per task: rank table, axioms, lattice points, HL support.

    m = 2 or 3 matrices with ranks drawn from [1, n], n from m to 4.  The
    task runs rank_from_matrices, check_axioms, enumerate_points (the
    table of a PSD family is always a polymatroid) and hl_support, which
    cross-checks its two routes itself.  The repeated subset-rank walk
    does the work and there are no determinants, so a shared subset-rank
    table moves this workload and not hl-direct.  m = 4 and 5, and
    n = 5 and 6, are left out: one family takes 0.3-9 s there.
    """

    name = "polymatroid-support"
    rounds = 15

    def __init__(self, tiny=False):
        self.classes = [(2, 2), (2, 3)] if tiny else [
            (2, 2), (2, 2), (2, 3), (2, 3), (2, 4), (3, 3), (3, 4)]
        self.ns = tuple(sorted({n for _, n in self.classes}))
        if tiny:
            self.rounds = 50

    def setup(self, rng, tr):
        bank = Bank(tr, rng, self.ns, 1)
        return [(m, n, bank.family(n, m, 1)) for _ in range(self.rounds) for m, n in self.classes]

    @staticmethod
    def entries(tasks):
        return _entries(task[2] for task in tasks)

    @staticmethod
    def run(task):
        _m, n, rows = task
        mats = _build_all(rows)
        table = rank_from_matrices(mats)
        report = check_axioms(table)
        points = enumerate_points(table).points if report.is_polymatroid else None
        return table, report, points, hl_support(mats, n)

    @staticmethod
    def replay(task, tr):
        _m, n, rows = task
        mats = [tr.call("linalg.build", HermitianMatrix, r) for r in rows]
        with tr.span("polymatroid.rank_table"):
            table = _rank_table(tr, mats)
        report = tr.call("polymatroid.axioms", check_axioms, table)
        points = _enumerate(tr, table).points if report.is_polymatroid else None
        return table, report, points, _hl_support(tr, mats, n)

    @staticmethod
    def check(task, outcome):
        m, n, rows = task
        table, report, points, support = outcome
        if not report.is_polymatroid:
            raise CheckFailed("rank table of a PSD family fails the polymatroid axioms")
        full = frozenset(range(1, m + 1))
        brute = [vec for vec in sorted(_compositions(table(full), m))
                 if all(sum(vec[i - 1] for i in subset) <= table(subset)
                        for subset in table.values if subset)]
        if list(points) != brute:
            raise CheckFailed("lattice points differ from the brute-force enumeration")
        support = sorted(list(vec) for vec in support)
        _check_cli_hl_support(n, 0, 0, _build_all(rows), {"points": support})
        return [m, n, rank_function_to_json(table), [list(p) for p in points], support]


def _check_hl_pair(inst, crit, direct):
    if crit.verdict != direct.verdict:
        raise CheckFailed(f"criterion says {crit.verdict}, determinant says {direct.verdict}")
    if crit.holds:
        return
    witness = direct.kernel_witness
    if witness is None or witness.is_zero() or not wedge(inst.omega(), witness).is_zero():
        raise CheckFailed("kernel witness fails its re-check")
    _check_failing_subset(inst.forms, crit.failing_subset, len(crit.failing_subset) + inst.p + inst.q)


def _check_failing_subset(forms, subset, need):
    total = HermitianMatrix.zero(forms[0].n)
    for i in subset:
        total = total + forms[i - 1]
    if total.rank() >= need:
        raise CheckFailed(f"failing subset {subset} does not fail the rank bound")


class CliCorpus:
    """Seeded JSON task files run in-process through lefcert.cli.main.

    Weighted toward hr-certify, lefschetz and signature, so the HR Gram
    matrix, hermitian_signature and kernel_basis are measured, as is the
    serialize/cli path.  One file holds one verdict-bearing task.  The
    intersection, mixed-disc, polymatroid-axioms and hl-support tasks
    cover the discriminant and polymatroid layers and many small
    determinants and ranks, where per-scalar cost dominates.  signature
    stays at n = 3 (at n = 4 one task takes about 2 s) and has one slot
    per round: it is the slowest kind, and with two slots its tasks were
    11% of the pool, so p90 fell on the edge between them and the next
    kind and jumped between the two from run to run.
    """

    name = "cli-corpus"
    rounds = 7

    def __init__(self, tiny=False, workdir=".perfbench/work"):
        self.workdir = workdir
        if tiny:
            self.ns = (2, 3)
            self.rounds = 15
            self.classes = [("hr-certify", 2, 1, 0), ("hr-certify", 3, 1, 1),
                            ("lefschetz", 2, 1, 1), ("signature", 2, 0, 0),
                            ("hl-certify", 2, 1, 0), ("mixed-disc", 2, 0, 0),
                            ("intersection", 2, 0, 0), ("polymatroid-axioms", 2, 0, 0),
                            ("hl-support", 3, 0, 0)]
        else:
            self.ns = (3, 4)
            self.classes = [("hr-certify", 3, 1, 0), ("hr-certify", 3, 1, 1),
                            ("hr-certify", 4, 1, 0), ("hr-certify", 4, 1, 1),
                            ("lefschetz", 3, 1, 1), ("lefschetz", 3, 1, 1),
                            ("lefschetz", 4, 1, 0),
                            ("signature", 3, 0, 0),
                            ("hl-certify", 3, 1, 0), ("hl-certify", 4, 1, 0),
                            ("hl-certify", 4, 0, 1),
                            ("mixed-disc", 4, 0, 0), ("intersection", 3, 0, 0),
                            ("intersection", 4, 0, 0), ("polymatroid-axioms", 4, 0, 0),
                            ("hl-support", 3, 0, 0), ("hl-support", 4, 0, 0)]

    def setup(self, rng, tr):
        os.makedirs(self.workdir, exist_ok=True)
        bank = Bank(tr, rng, self.ns, 0)
        tasks = []
        for r in range(self.rounds):
            for k, (kind, n, p, q) in enumerate(self.classes):
                path = os.path.join(self.workdir, f"task-{r}-{k}.json")
                tasks.append((path, kind, n, p, q, self._write(bank, path, kind, n, p, q)))
        return tasks

    @staticmethod
    def _write(bank, path, kind, n, p, q):
        """Write one task file; return the entries of its matrices."""
        task = {"kind": kind}
        if kind in ("hr-certify", "lefschetz", "hl-certify"):
            # lefschetz needs its criterion to hold, hr-certify rank(eta) >= p + q
            forms = bank.family(n, n - p - q, n if kind == "lefschetz" else 1)
            names = [f"a{i}" for i in range(len(forms))]
            task.update(p=p, q=q, forms=list(names))
            if kind != "hl-certify":
                forms += (bank.pick(n, n),)
                task["eta"] = "eta"
                names.append("eta")
        else:
            count = {"signature": n - 2, "mixed-disc": n, "intersection": n,
                     "polymatroid-axioms": 3, "hl-support": 3}[kind]
            forms = bank.family(n, count, 1 if kind in ("signature", "hl-support") else 0)
            names = [f"a{i}" for i in range(count)]
            task["forms" if kind == "signature" else "matrices"] = names
        doc = {
            "schema": 1,
            "n": n,
            "matrices": {nm: matrix_to_json(HermitianMatrix(rows)) for nm, rows in zip(names, forms)},
            "tasks": [task],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return forms

    @staticmethod
    def entries(tasks):
        return _entries(task[5] for task in tasks)

    @staticmethod
    def run(task):
        path = task[0]
        out = path[:-5] + ".report.json"
        return cli.main(["--input", path, "--output", out]), out

    @staticmethod
    def replay(task, tr):
        """cli.main: parse, run the task, emit the report.  Argument parsing is not replayed."""
        path = task[0]
        out = path[:-5] + ".replay.json"
        with tr.span("cli.main"):
            with tr.span("serialize.parse"):
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                n = int(doc["n"])
                mats = {name: matrix_from_json(obj) for name, obj in doc["matrices"].items()}
            results = {}
            ok = True
            for idx, spec in enumerate(doc["tasks"]):
                result = _CLI_REPLAYS[spec["kind"]](tr, n, mats, spec)
                results[str(idx)] = result
                if result.get("verdict") == "fails" or result.get("psd") is False:
                    ok = False
            with tr.span("serialize.emit"):
                text = json.dumps({"schema": cli.SCHEMA_VERSION, "results": results},
                                  separators=(",", ":"), sort_keys=True) + "\n"
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(text)
                tr.count("serialize.report_bytes", len(text.encode()))
        return (0 if ok else 1), out

    @staticmethod
    def check(task, outcome):
        rc, out = outcome
        _path, kind, n, p, q, rows = task
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        result = json.loads(text)["results"]["0"]
        if "error" in result:
            raise CheckFailed(f"{kind} task reported an error: {result['error']}")
        if rc != (1 if result.get("verdict") == "fails" else 0):
            raise CheckFailed(f"exit code {rc} contradicts the {kind} report")
        mats = _build_all(rows)
        _CLI_CHECKS[kind](n, p, q, mats, result)
        return [kind, rc, text]


def _check_cli_hl(n, p, q, mats, result):
    crit = criterion_hl(HLInstance(n, p, q, tuple(mats)))
    if result["verdict"] != crit.verdict:
        raise CheckFailed("hl-certify verdict disagrees with the rank criterion")
    if crit.holds:
        return
    witness = form_from_json(result["witness"])
    if witness.is_zero() or not wedge(HLInstance(n, p, q, tuple(mats)).omega(), witness).is_zero():
        raise CheckFailed("hl-certify witness fails its re-check")
    _check_failing_subset(mats, tuple(result["failing_subset"]), len(result["failing_subset"]) + p + q)


def _check_cli_hr(n, p, q, mats, result):
    # Hodge-Riemann holds exactly when the rank criterion does (rank(eta) >= p + q)
    if result["verdict"] != criterion_hl(HLInstance(n, p, q, tuple(mats[:-1]))).verdict:
        raise CheckFailed("hr-certify verdict disagrees with the rank criterion")
    if not 0 < result["primitive_dimension"] <= comb(n, p) * comb(n, q):
        raise CheckFailed("primitive dimension out of range")


def _check_cli_lefschetz(n, p, q, mats, result):
    lower = comb(n, p - 1) * comb(n, q - 1) if p >= 1 and q >= 1 else 0
    if result["dims"] != [lower, comb(n, p) * comb(n, q) - lower]:
        raise CheckFailed(f"Lefschetz dimensions {result['dims']} are wrong")


def _check_cli_signature(n, p, q, mats, result):
    sig = tuple(result["signature"])
    if sum(sig) != n * n:
        raise CheckFailed("signature does not add up to n^2")
    if criterion_hl(HLInstance(n, 1, 1, tuple(mats))).holds and sig != (1, n * n - 1, 0):
        raise CheckFailed("rank criterion holds but the signature is not Lorentzian")


def _check_cli_mixed_disc(n, p, q, mats, result):
    value = GR(result["value"]).re
    positive = criterion_hl(HLInstance(n, 0, 0, tuple(mats))).holds
    if value < 0 or (value > 0) != positive:
        raise CheckFailed("mixed discriminant disagrees with the rank criterion")


def _check_cli_intersection(n, p, q, mats, result):
    if GR(result["value"]).re != factorial(n) * mixed_discriminant(mats):
        raise CheckFailed("intersection number is not n! times the mixed discriminant")


def _check_cli_hl_support(n, p, q, mats, result):
    # a third route: the rank criterion on every repeated tuple
    m = len(mats)
    pq = n - m
    expected = []
    for vec in _compositions(m, m):
        repeated = [a for a, count in zip(mats, vec) for _ in range(count)]
        if criterion_hl(HLInstance(n, pq // 2, pq - pq // 2, tuple(repeated))).holds:
            expected.append(list(vec))
    if result["points"] != sorted(expected):
        raise CheckFailed("HL support disagrees with the per-vector rank criterion")


def _check_cli_axioms(n, p, q, mats, result):
    if not (result["submodular"] and result["monotone"] and result["normalized"]):
        raise CheckFailed("rank table of a PSD family fails the polymatroid axioms")


_CLI_CHECKS = {
    "hl-certify": _check_cli_hl,
    "hr-certify": _check_cli_hr,
    "lefschetz": _check_cli_lefschetz,
    "signature": _check_cli_signature,
    "mixed-disc": _check_cli_mixed_disc,
    "intersection": _check_cli_intersection,
    "polymatroid-axioms": _check_cli_axioms,
    "hl-support": _check_cli_hl_support,
}


def _cli_forms(mats, spec, key="forms"):
    return [mats[name] for name in spec[key]]


def _cli_instance(tr, n, mats, spec):
    eta = mats[spec["eta"]] if "eta" in spec else None
    return _instance(tr, n, int(spec["p"]), int(spec["q"]), _cli_forms(mats, spec), eta)


def _cli_hl(tr, n, mats, spec):
    inst = _cli_instance(tr, n, mats, spec)
    cert = _criterion(tr, inst.forms, inst.p, inst.q)
    direct = _direct(tr, inst)
    if cert.verdict != direct.verdict:
        raise CheckFailed("criterion and direct verdicts disagree")
    with tr.span("serialize.emit"):
        out = certificate_to_json(cert)
        if direct.kernel_witness is not None:
            out.update(certificate_to_json(direct))
            out.update({"failing_subset": sorted(cert.failing_subset)})
            if cert.rank_deficit is not None:
                out["rank_deficit"] = cert.rank_deficit
    return out


def _cli_hr(tr, n, mats, spec):
    cert, space = _hr(tr, _cli_instance(tr, n, mats, spec))
    with tr.span("serialize.emit"):
        out = certificate_to_json(cert)
    out["primitive_dimension"] = len(space.basis)
    return out


def _cli_lefschetz(tr, n, mats, spec):
    _, _, dims = _lefschetz(tr, _cli_instance(tr, n, mats, spec))
    return {"dims": list(dims)}


def _cli_signature(tr, n, mats, spec):
    return {"signature": list(_lorentzian(tr, _cli_forms(mats, spec), n))}


def _cli_mixed_disc(tr, n, mats, spec):
    value = _mixed_disc(tr, _cli_forms(mats, spec, "matrices"))
    with tr.span("serialize.emit"):
        return {"value": rat_to_str(value)}


def _cli_intersection(tr, n, mats, spec):
    value = _intersection(tr, _cli_forms(mats, spec, "matrices"))
    with tr.span("serialize.emit"):
        return {"value": rat_to_str(value)}


def _cli_hl_support(tr, n, mats, spec):
    points = _hl_support(tr, _cli_forms(mats, spec, "matrices"), n)
    return {"points": sorted(list(p) for p in points)}


def _cli_axioms(tr, n, mats, spec):
    with tr.span("polymatroid.rank_table"):
        table = _rank_table(tr, _cli_forms(mats, spec, "matrices"), int(spec.get("offset", 0)))
    report = tr.call("polymatroid.axioms", check_axioms, table)
    with tr.span("serialize.emit"):
        table_json = rank_function_to_json(table)
    return {
        "submodular": report.submodular,
        "monotone": report.monotone,
        "normalized": report.normalized,
        "loopless": report.loopless,
        "is_matroid": report.is_matroid,
        "table": table_json,
    }


_CLI_REPLAYS = {
    "hl-certify": _cli_hl,
    "hr-certify": _cli_hr,
    "lefschetz": _cli_lefschetz,
    "signature": _cli_signature,
    "mixed-disc": _cli_mixed_disc,
    "intersection": _cli_intersection,
    "polymatroid-axioms": _cli_axioms,
    "hl-support": _cli_hl_support,
}


WORKLOADS = {w.name: w for w in (HLDirect, PositivityBatch, PolymatroidSupport, CliCorpus)}

