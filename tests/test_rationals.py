from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lefcert.rationals import GR, I, ONE, GaussianRational, as_rat, cpq_constant


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
    assert as_rat(True) == 1 and type(as_rat(True)) is type(x)
    assert type(as_rat(7)) is type(x)
    with pytest.raises(TypeError):
        as_rat(0.75)


NON_RATIONAL_STRINGS = ("1.5", " 1_0 ", "1e3", "1e10000000")


def test_strings_outside_the_rational_grammar_are_refused_at_once():
    from time import perf_counter

    from lefcert.exterior import PQForm
    from lefcert.linalg import HermitianMatrix

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
