from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from annuli._ratio import QQ
from annuli.scalars import DivisionByZero, FieldMismatch, Scalar, _int_nth_root, nth_root_exact


def test_rational_addition():
    assert Scalar("1/2") + Scalar("1/2") == Scalar(1)


def test_norm_identity_sqrt5():
    s5 = Scalar.sqrt_of(5)
    assert (2 + s5) * (2 - s5) == Scalar(-1)


def test_inverse_sqrt2():
    r2 = Scalar.sqrt_of(2)
    assert r2.inv() == Scalar(0, "1/2", 2)
    assert r2 * r2.inv() == Scalar(1)


def test_named_ops():
    assert Scalar(2) + Scalar(3) == Scalar(5)
    assert Scalar(2) * Scalar(3) == Scalar(6)
    assert -Scalar(2) == Scalar(-2)
    assert Scalar(4).inv() == Scalar("1/4")


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        Scalar(0).inv()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Scalar.sqrt_of(2) + Scalar.sqrt_of(5)


def test_negative_discriminant():
    g = Scalar.sqrt_of(-3)
    e = (1 + g) * Scalar("1/2")  # e^{i pi/3}
    assert e * e * e == Scalar(-1)  # primitive sixth root of unity


def test_squarefree_validation():
    with pytest.raises(ValueError):
        Scalar(0, 1, 4)
    with pytest.raises(ValueError):
        Scalar(0, 1, 12)


rationals = st.builds(Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=12))
elems = st.builds(lambda a, b: Scalar(a, b, 5) if b != 0 else Scalar(a), rationals, rationals)


@given(elems, elems, elems)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == Scalar(0)
    if not x.is_zero():
        assert x * x.inv() == Scalar(1)


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=4))
def test_nth_root_exact_roundtrip(base, n):
    x = Scalar(base) ** n
    r = nth_root_exact(x, n)
    if x.is_zero():
        assert r is None
        return
    if base < 0 and n % 2 == 0:
        assert r is None or r**n == x
    else:
        assert r is not None and r**n == x


def test_nth_root_inexact():
    assert nth_root_exact(Scalar(2), 2) is None
    assert nth_root_exact(Scalar("8/27"), 3) == Scalar("2/3")


def test_int_nth_root_is_exact_on_large_integers():
    assert _int_nth_root((10**30 + 12345) ** 2, 2) == 10**30 + 12345
    assert _int_nth_root(10**400, 2) == 10**200
    assert _int_nth_root(10**400 + 1, 2) is None
    assert _int_nth_root((3**60 + 7) ** 5, 5) == 3**60 + 7
    assert _int_nth_root((3**60 + 7) ** 5 - 1, 5) is None
    assert nth_root_exact(Scalar(QQ((10**30 + 1) ** 3, 7**3)), 3) == Scalar(QQ(10**30 + 1, 7))
