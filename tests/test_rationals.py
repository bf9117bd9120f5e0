from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lefcert.certify import HLInstance, lorentzian_signature, products_preserve_hl
from lefcert.exterior import PQForm, wedge_many
from lefcert.generate import GeneratorSpec
from lefcert.linalg import HermitianMatrix, is_m_positive
from lefcert.polymatroid import RankFunction, hl_support, multidegree_support, rank_from_matrices
from lefcert.rationals import GR, I, ONE, GaussianRational, as_int, as_rat, cpq_constant, rat_pair
from lefcert.serialize import complex_from_json, form_from_json, rank_function_from_json


def test_canonical_form():
    x = GaussianRational("2/4", "-3/6")
    assert x.re == as_rat("1/2")
    assert x.im == as_rat("-1/2")


def test_float_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 2.0)
    with pytest.raises(TypeError):
        as_rat(3.14)


def test_as_rat_returns_rational_values_unchanged():
    x = as_rat(Fraction(3, 4))
    assert as_rat(x) is x
    assert GaussianRational(x, x).re is x
    assert as_rat(as_rat("-5/6")) == Fraction(-5, 6)
    assert type(as_rat(7)) is type(x)
    with pytest.raises(TypeError, match="^boolean True is not a rational$"):
        as_rat(True)
    with pytest.raises(TypeError):
        as_rat(0.75)


def test_a_bool_is_not_a_gaussian_rational_operand():
    assert (GR(1) == True) is False
    assert GR(1) != True
    for op in (lambda a, b: a + b, lambda a, b: b + a, lambda a, b: a * b, lambda a, b: a - b,
               lambda a, b: b / a):
        with pytest.raises(TypeError):
            op(GR(1), True)


# ---- one refusal rule for numbers from outside ----

I2 = HermitianMatrix.identity(2)
TABLE_1 = RankFunction(1, {(): 0, (1,): 1})

# (entry point, rule, call): rule is "rational" for `as_rat`, or the name
# `as_int` is given; each call passes the value to that one argument
ENTRY_POINTS = [
    ("as_rat", "rational", as_rat),
    ("rat_pair", "rational", rat_pair),
    ("GaussianRational re", "rational", GaussianRational),
    ("GaussianRational im", "rational", lambda x: GaussianRational(0, x)),
    ("complex_from_json bare", "rational", complex_from_json),
    ("complex_from_json im", "rational", lambda x: complex_from_json({"re": 1, "im": x})),
    ("HermitianMatrix entry", "rational", lambda x: HermitianMatrix([[x]])),
    ("HermitianMatrix.diagonal", "rational", lambda x: HermitianMatrix.diagonal([1, x])),
    ("HermitianMatrix.scale", "rational", I2.scale),
    ("PQForm coefficient", "rational", lambda x: PQForm(1, 1, 0, {((1,), ()): x})),
    ("PQForm n", "n", lambda x: PQForm(x, 0, 0)),
    ("PQForm p", "p", lambda x: PQForm(1, x, 0)),
    ("PQForm q", "q", lambda x: PQForm(1, 0, x)),
    ("HLInstance n", "n", lambda x: HLInstance(x, 0, 0, (I2, I2))),
    ("HLInstance p", "p", lambda x: HLInstance(2, x, 0, (I2,))),
    ("HLInstance q", "q", lambda x: HLInstance(2, 0, x, (I2,))),
    ("GeneratorSpec seed", "seed", lambda x: GeneratorSpec(seed=x, n=2, rank_profile=(1,))),
    ("GeneratorSpec n", "n", lambda x: GeneratorSpec(seed=1, n=x, rank_profile=(1,))),
    ("GeneratorSpec entry_bound", "entry_bound",
     lambda x: GeneratorSpec(seed=1, n=2, rank_profile=(1,), entry_bound=x)),
    ("GeneratorSpec rank_profile", "rank_profile entry",
     lambda x: GeneratorSpec(seed=1, n=2, rank_profile=(1, x))),
    ("RankFunction m", "rank table m", lambda x: RankFunction(x, {(): 0})),
    ("RankFunction rank", "rank of [1]", lambda x: RankFunction(1, {(): 0, (1,): x})),
    ("RankFunction key element", "rank table key element",
     lambda x: RankFunction(1, {(): 0, (x,): 1})),
    ("rank_function_from_json m", "rank table m",
     lambda x: rank_function_from_json({"m": x, "values": {"[]": 0}})),
    ("rank_from_matrices offset", "offset", lambda x: rank_from_matrices([I2], offset=x)),
    ("multidegree_support dim", "dim", lambda x: multidegree_support(TABLE_1, x)),
    ("is_m_positive m", "m", lambda x: is_m_positive(I2, I2, x)),
    ("lorentzian_signature n", "n", lambda x: lorentzian_signature([], n=x)),
    ("hl_support n", "n", lambda x: hl_support([I2], x)),
    ("wedge_many n", "n", lambda x: wedge_many([], n=x)),
    ("products_preserve_hl n", "n", lambda x: products_preserve_hl([], [], x)),
]

REFUSED = [(name, rule, call, value) for name, rule, call in ENTRY_POINTS
           for value in (True, 2.0, "1/0", None)
           # lorentzian_signature and wedge_many read n=None as "take n from the forms"
           if not (value is None and name in ("lorentzian_signature n", "wedge_many n"))]


def raised(call, value):
    """(exception type, message) of call(value), which must raise."""
    with pytest.raises((TypeError, ValueError)) as info:
        call(value)
    return info.type, str(info.value)


@pytest.mark.parametrize("name, rule, call, value", REFUSED,
                         ids=[f"{name}-{value!r}" for name, _, _, value in REFUSED])
def test_every_entry_point_refuses_as_the_one_rule(name, rule, call, value):
    expected = raised(as_rat if rule == "rational" else lambda x: as_int(x, rule), value)
    assert raised(call, value) == expected


# the entry points that take an ambient dimension n and refuse a negative
# one first, before any check that reads n, in one wording
NEGATIVE_N = [
    ("wedge_many n", lambda x: wedge_many([], n=x)),
    ("products_preserve_hl n", lambda x: products_preserve_hl([], [], x)),
]


@pytest.mark.parametrize("name, call", NEGATIVE_N, ids=[name for name, _ in NEGATIVE_N])
def test_a_negative_n_is_refused_naming_it(name, call):
    assert raised(call, -1) == (ValueError, "n must be nonnegative, got -1")


@pytest.mark.parametrize("value", [True, 2.0])
def test_form_from_json_refuses_a_non_int_n_naming_it(value):
    record = {"n": value, "p": 0, "q": 0, "terms": []}
    with pytest.raises(ValueError, match=f"^form: n must be an integer, got {value!r}$"):
        form_from_json(record)


def test_the_found_reproducers_are_refused():
    with pytest.raises(TypeError, match="^boolean True is not a rational$"):
        HermitianMatrix([[True]])
    with pytest.raises(TypeError, match="^boolean True is not a rational$"):
        PQForm(1, 1, 0, {((1,), ()): True})
    for n in (True, 2.0):
        with pytest.raises(TypeError, match="^n must be an integer"):
            HLInstance(n, 1, 0, (I2,))
    for key in ((True,), (1.0,), (1, True), "1"):
        with pytest.raises(TypeError, match="^rank table key element must be an integer, got "):
            RankFunction(1, {(): 0, key: 1})
    with pytest.raises(TypeError, match="^rank table key 1 is not a collection of elements$"):
        RankFunction(1, {(): 0, 1: 1})


digits = st.text("0123456789", min_size=1, max_size=6) | st.sampled_from(
    ["0", "00", "7" * 4301, "1" * 5000])
grammar_strings = st.builds(lambda sign, num, den: sign + num + den,
                            st.sampled_from(["", "+", "-"]), digits,
                            st.just("") | digits.map(lambda d: "/" + d))
near_grammar = st.text("0123456789+-/ ._e\u0661", max_size=8)
outside_values = st.one_of(st.integers(), st.booleans(), st.floats(), st.none(),
                           st.lists(st.integers(), max_size=2), st.fractions(),
                           grammar_strings, near_grammar)


def outcome(read, s):
    """("ok", the rational read) or (exception type, message)."""
    try:
        value = read(s)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return "ok", Fraction(*value) if isinstance(value, tuple) else value


@given(outside_values)
def test_rat_pair_reads_as_as_rat(s):
    assert outcome(rat_pair, s) == outcome(as_rat, s)


NON_RATIONAL_STRINGS = ("1.5", " 1_0 ", "1e3", "1e10000000")


def test_strings_outside_the_rational_grammar_are_refused_at_once():
    from time import perf_counter

    builders = (as_rat, GaussianRational, lambda s: GaussianRational(0, s),
                lambda s: HermitianMatrix([[s]]), lambda s: PQForm(1, 0, 0, {((), ()): s}))
    start = perf_counter()
    for s in NON_RATIONAL_STRINGS:
        for build in builders:
            with pytest.raises(ValueError, match="is not an integer or a 'p/q' string"):
                build(s)
    assert perf_counter() - start < 0.5
    for s, value in (("2/4", Fraction(1, 2)), ("-5/6", Fraction(-5, 6)), ("7", Fraction(7))):
        assert as_rat(s) == value
        assert GaussianRational(s, s) == GaussianRational(value, value)
        assert HermitianMatrix([[s]]).entry(0, 0) == value
        assert PQForm(1, 0, 0, {((), ()): s}).coefficient((), ()) == value


def test_basic_arithmetic():
    assert I * I == GR(-1)
    assert (GR(1, 2) * GR(3, -1)) == GR(5, 5)
    assert GR(1, 1) / GR(1, 1) == ONE
    assert (GR(2, 3)).conjugate() == GR(2, -3)
    assert GR(0).is_zero() and not GR(0, "1/7").is_zero()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / GR(0)


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.re = as_rat(2)


def test_cpq_values():
    # c_{p,q} = i^{q-p} (-1)^{(p+q)(p+q+1)/2}
    assert cpq_constant(0, 0) == ONE
    assert cpq_constant(1, 1) == GR(-1)
    assert cpq_constant(1, 0) == I
    assert cpq_constant(0, 1) == -I
    # direct recomputation from the formula for a spread of bidegrees
    for p in range(4):
        for q in range(4):
            k = (q - p) % 4
            ipow = (ONE, I, GR(-1), -I)[k]
            sign = -1 if ((p + q) * (p + q + 1) // 2) % 2 else 1
            assert cpq_constant(p, q) == ipow * GR(sign)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(gaussians)
def test_conjugation_and_inverse(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.is_real() and norm.re >= 0
    if not a.is_zero():
        assert a / a == ONE


def test_power():
    assert I ** 4 == ONE
    assert GR(2) ** 10 == GR(1024)
    with pytest.raises(TypeError):
        I ** -1


@pytest.mark.parametrize("k", [True, False, 2.0, Fraction(2)])
def test_power_refuses_a_non_int_exponent(k):
    with pytest.raises(TypeError, match="only nonnegative integer powers"):
        GR(2) ** k
