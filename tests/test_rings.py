import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import annuli
from annuli import laurent, rings
from annuli._ratio import QQ
from annuli.laurent import LaurentPoly, poly_gcd, make_poly
from annuli.rings import (
    BranchBudgetExceeded,
    BranchState,
    LinearQuotient,
    NotDivisible,
    Quotient,
    SCALARS,
    SplitEvent,
    dense_divexact,
    dense_mul,
    explore_branches,
    quotient_gcd,
    ring_pow,
)
from annuli.scalars import DivisionByZero, FieldMismatch, Scalar
from annuli.series import TS, laurent_at_shifted_point
from test_certify import poly_eval_ring
from test_series import ts_scale, ts_sub


def ring_mod(*coeffs):
    return Quotient(SCALARS, [Scalar.of(c) for c in coeffs], "pt")


def test_gcd_over_cyclotomic_quotient():
    # over Q[s]/(s^2+s+1): gcd(u^2 - s u, u - s) = u - s
    R = ring_mod(1, 1, 1)
    s = R.gen()
    g = quotient_gcd(R, [R.zero(), R.neg(s), R.one()], [R.neg(s), R.one()])
    assert g == [R.neg(s), R.one()]


def test_split_on_zero_divisor():
    # over Q[s]/(s^2-1): inverting (s-1) splits the modulus
    R = ring_mod(-1, 0, 1)
    with pytest.raises(SplitEvent) as exc:
        R.inv(R.sub(R.gen(), R.one()))
    f1, f2 = exc.value.f1, exc.value.f2
    roots = sorted([-f1[0].a / f1[1].a, -f2[0].a / f2[1].a])
    assert roots == [-1, 1]


def test_gcd_with_zero_is_monic():
    R = ring_mod(1, 1, 1)
    f = [R.from_scalar(Scalar(2)), R.from_scalar(Scalar(4))]
    assert quotient_gcd(R, f, []) == [R.from_scalar(Scalar("1/2")), R.one()]


def test_inexact_division_over_a_quotient_raises_not_divisible():
    # over Q[s]/(s^2+s+1): u^2 + 1 leaves the remainder s^2 + 1 = -s by u - s
    R = ring_mod(1, 1, 1)
    s = R.gen()
    f = [R.one(), R.zero(), R.one()]
    g = [R.neg(s), R.one()]
    with pytest.raises(NotDivisible):
        dense_divexact(R, f, g)
    assert dense_divexact(R, dense_mul(R, f, g), g) == f
    assert laurent.NotDivisible is NotDivisible


def test_inexact_division_raises_under_optimize():
    code = (
        "from annuli.rings import NotDivisible, Quotient, SCALARS, dense_divexact\n"
        "from annuli.scalars import Scalar\n"
        "R = Quotient(SCALARS, [Scalar(1), Scalar(1), Scalar(1)], 'pt')\n"
        "try:\n"
        "    dense_divexact(R, [R.one(), R.zero(), R.one()], [R.neg(R.gen()), R.one()])\n"
        "except NotDivisible:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(annuli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised"


def test_inv_zero_raises():
    R = ring_mod(1, 1, 1)
    with pytest.raises(DivisionByZero):
        R.inv(R.zero())


def test_explore_branches_covers_factors():
    def fn(st: BranchState):
        R = st.quotient(SCALARS, "pt", [Scalar(-1), Scalar(0), Scalar(1)])
        x = R.sub(R.gen(), R.one())
        return R.decide_zero(x)

    assert sorted(explore_branches(fn)) == [False, True]


def test_split_gcds_match_per_factor_gcds():
    # modulus (s^2 - 1): after exhaustive splitting, quotient gcds agree with
    # the gcds computed over each factor separately
    f = make_poly(0, -1, 1)  # u^2 - u
    g = make_poly(-1, 1)  # u - 1

    def over(st: BranchState):
        R = st.quotient(SCALARS, "pt", [Scalar(-1), Scalar(0), Scalar(1)])
        s = R.gen()
        # u^2 - s*u vs u - s: gcd depends on the branch only via s
        a = [R.zero(), R.neg(s), R.one()]
        b = [R.neg(s), R.one()]
        gg = quotient_gcd(R, a, b)
        return [R.as_scalar(c) for c in gg]

    branches = explore_branches(over)
    assert len(branches) >= 1
    for out in branches:
        assert out[-1] == Scalar(1)  # monic, degree 1: u - s on every branch


def test_nested_tower_arithmetic():
    base = Quotient(SCALARS, [Scalar(1), Scalar(1), Scalar(1)], "pt")  # s^2+s+1
    s = base.gen()
    # adjoin g with g^2 = s (a unit)
    R2 = Quotient(base, [base.neg(s), base.zero(), base.one()], "rt")
    g = R2.gen()
    assert R2.eq(R2.mul(g, g), R2.from_base(s))
    gi = R2.inv(g)
    assert R2.eq(R2.mul(g, gi), R2.one())


# -- a linear modulus: the base field itself, against Quotient's 1-tuples ------


def linear_pair(*coeffs):
    """(the ring a branch builds for a linear modulus, the Quotient reference)."""
    mod = [Scalar.of(c) for c in coeffs]
    return BranchState().quotient(SCALARS, "pt", mod), Quotient(SCALARS, mod, "pt")


def test_linear_modulus_computes_in_the_base_field():
    R, ref = linear_pair(-3, 2, 0)  # 2s - 3, with a zero top coefficient to trim
    assert isinstance(R, LinearQuotient) and R.base is SCALARS and R.key == "pt"
    assert R.gen() == ref.gen()[0] == Scalar("3/2")
    assert R.from_base(Scalar(7)) == Scalar(7)
    s, rs = R.gen(), ref.gen()
    pairs = [
        (R.zero(), ref.zero()),
        (R.one(), ref.one()),
        (R.add(R.mul(s, s), R.from_scalar(Scalar(-5))), ref.add(ref.mul(rs, rs), ref.from_scalar(Scalar(-5)))),
        (R.sub(ring_pow(R, s, 3), R.neg(s)), ref.sub(ring_pow(ref, rs, 3), ref.neg(rs))),
        (R.sub(s, R.from_scalar(Scalar("3/2"))), ref.sub(rs, ref.from_scalar(Scalar("3/2")))),
    ]
    for x, rx in pairs:
        assert x == rx[0]
        assert R.decide_zero(x) == ref.decide_zero(rx) == R.is_zero(x)
        assert R.as_scalar(x) == ref.as_scalar(rx)
        assert R.to_repr(x) == ref.to_repr(rx)
        if ref.is_zero(rx):
            for ring, z in ((R, x), (ref, rx)):
                with pytest.raises(DivisionByZero):
                    ring.inv(z)
        else:
            assert R.inv(x) == ref.inv(rx)[0]
            assert R.eq(R.mul(x, R.inv(x)), R.one())


def test_split_branches_of_a_quadratic_become_linear():
    def fn(st: BranchState):
        R = st.quotient(SCALARS, "pt", [Scalar(-1), Scalar(0), Scalar(1)])
        return R, R.decide_zero(R.sub(R.gen(), R.one()))

    branches = explore_branches(fn)
    assert all(isinstance(R, LinearQuotient) for R, _ in branches)
    assert {R.gen(): zero for R, zero in branches} == {Scalar(1): True, Scalar(-1): False}


def test_tower_over_a_linear_ring():
    st = BranchState()
    R = st.quotient(SCALARS, "pt", [Scalar(-2), Scalar(1)])
    s = R.gen()
    R2 = st.quotient(R, "rt", [R.neg(s), R.zero(), R.one()])  # g^2 = s = 2
    assert isinstance(R2, Quotient) and R2.base is R
    g = R2.gen()
    assert R2.eq(R2.mul(g, g), R2.from_base(s))
    assert R2.eq(R2.mul(g, R2.inv(g)), R2.one())
    # the same tower over the 1-tuple reference prints the same
    ref = Quotient(SCALARS, [Scalar(-2), Scalar(1)], "pt")
    ref2 = Quotient(ref, [ref.neg(ref.gen()), ref.zero(), ref.one()], "rt")
    assert R2.to_repr(R2.inv(g)) == ref2.to_repr(ref2.inv(ref2.gen())) == "(1/2)*s"


def test_series_kernels_at_a_rational_point_match_the_reference():
    f = LaurentPoly({-2: Scalar(3), 1: Scalar(-1), 3: Scalar("1/2")})
    window = 10

    def kernels(ring):
        xs = laurent_at_shifted_point(ring, f, ring.gen(), window)
        unit = ts_sub(xs, TS(ring, 0, [xs.coeff(0)] + [ring.zero()] * (window - 1)))
        unit = unit.normalized().shift(-1)
        unit = ts_scale(unit, ring.inv(unit.coeff(0)))
        w = unit.unit_power(QQ(1, 3))
        rev = w.inv().reversion()  # the reversion of tau w(tau), from its Lagrange series 1 / w
        return [[ring.to_repr(c) for c in ts.cs] for ts in (xs, w, rev)]

    R, ref = linear_pair(-2, 1)
    got = kernels(R)
    assert got == kernels(ref)
    assert len(got[2]) == window - 1 and got[2][0] == "1"


# -- convolve: the truncated product kernel, against a schoolbook loop ---------


def schoolbook(ring, f, g, n):
    out = [ring.zero()] * max(n, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            if i + j < n:
                out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return out


_BIG = 2**64
rationals = st.one_of(
    st.just((0, 1)),
    st.tuples(st.integers(-9, 9), st.integers(1, 12)),
    st.tuples(st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
).map(lambda nd: QQ(*nd))


def scalars_in(d):
    if d == 1:
        return rationals.map(Scalar)
    return st.tuples(rationals, rationals).map(lambda ab: Scalar(ab[0], ab[1], d))


def quotient_over(base, elems, mod_elems, deg):
    """(base[s]/(monic modulus of degree deg), strategy for its elements)."""
    mod = mod_elems + [base.one()]
    R = Quotient(base, mod, "pt")
    return R, st.lists(elems, min_size=deg, max_size=deg).map(R.from_dense)


@given(data=st.data(), d=st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_linear_quotient_from_dense_is_the_value_at_its_root(data, d):
    root = data.draw(scalars_in(d), label="root")
    cs = data.draw(st.lists(scalars_in(d), max_size=8), label="cs")
    R = BranchState().quotient(SCALARS, "wv", [-root, Scalar(1)])
    assert isinstance(R, LinearQuotient) and R.gen() == root
    assert R.from_dense(cs) == poly_eval_ring(LaurentPoly(dict(enumerate(cs))), R, root)


def _small(d):
    return [Scalar(2), Scalar(-1, 1, d) if d != 1 else Scalar("1/3"), Scalar(0), Scalar(5)]


def _tower():
    base, base_elems = quotient_over(SCALARS, scalars_in(1), [Scalar(1), Scalar(1)], 2)
    s = base.gen()
    return quotient_over(base, base_elems, [base.neg(s), base.zero()], 2)


CONVOLVE_RINGS = {
    "Q": lambda: (SCALARS, scalars_in(1)),
    "Q(sqrt2)": lambda: (SCALARS, scalars_in(2)),
    "Q(sqrt5)": lambda: (SCALARS, scalars_in(5)),
    "Q(sqrt-3)": lambda: (SCALARS, scalars_in(-3)),
    "linear": lambda: (BranchState().quotient(SCALARS, "pt", [Scalar(-3), Scalar(2)]), scalars_in(1)),
    "Q[s]/deg2": lambda: quotient_over(SCALARS, scalars_in(1), _small(1)[:2], 2),
    "Q[s]/deg3": lambda: quotient_over(SCALARS, scalars_in(1), _small(1)[:3], 3),
    "Q[s]/deg4": lambda: quotient_over(SCALARS, scalars_in(1), _small(1), 4),
    "Q(sqrt2)[s]/deg2": lambda: quotient_over(SCALARS, scalars_in(2), _small(2)[:2], 2),
    "Q(sqrt2)[s]/deg3": lambda: quotient_over(SCALARS, scalars_in(2), _small(2)[:3], 3),
    "Q(sqrt2)[s]/deg4": lambda: quotient_over(SCALARS, scalars_in(2), _small(2), 4),
    "tower": _tower,
}


@pytest.mark.parametrize("name", sorted(CONVOLVE_RINGS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_convolve_matches_schoolbook(name, data):
    ring, elems = CONVOLVE_RINGS[name]()
    if name == "linear":
        assert isinstance(ring, LinearQuotient)
    f = data.draw(st.lists(elems, max_size=6), label="f")
    g = data.draw(st.lists(elems, max_size=6), label="g")
    n = data.draw(st.integers(-1, len(f) + len(g) + 1), label="n")
    got = ring.convolve(f, g, n)
    if n <= 0:
        assert got == []
    assert [ring.to_repr(c) for c in got] == [ring.to_repr(c) for c in schoolbook(ring, f, g, n)]


def test_convolve_refuses_two_quadratic_fields():
    with pytest.raises(FieldMismatch):
        SCALARS.convolve([Scalar.sqrt_of(2)], [Scalar(1), Scalar.sqrt_of(5)], 2)


def test_series_product_over_a_cubic_quotient_prints_as_the_reference():
    R = Quotient(SCALARS, [Scalar(-2), Scalar(1), Scalar(0), Scalar(1)], "pt")  # s^3 + s - 2
    s = R.gen()
    f = [R.add(R.from_scalar(Scalar(QQ(i, 7))), ring_pow(R, s, i)) for i in range(7)]
    g = [R.sub(R.from_scalar(Scalar("1/3")), R.mul(s, R.from_scalar(Scalar(-i)))) for i in range(5)]
    got = TS(R, 1, f).mul(TS(R, -2, g))
    assert (got.val, got.prec) == (-1, 4)
    assert got.to_repr() == TS(R, -1, schoolbook(R, f, g, 5)).to_repr()


def test_branch_budget_is_a_typed_error_naming_the_level(monkeypatch):
    """(v - 1)(v - 2) splits once at level "wv": three runs of fn."""

    def fn(st):
        mod = st.modulus("wv", [Scalar(2), Scalar(-3), Scalar(1)])
        if len(mod) > 2:
            raise SplitEvent("wv", (Scalar(-1), Scalar(1)), (Scalar(-2), Scalar(1)))
        return mod

    assert len(explore_branches(fn)) == 2
    monkeypatch.setattr(rings, "MAX_BRANCHES", 2)
    with pytest.raises(BranchBudgetExceeded, match="2 branches, last split at level 'wv'") as exc:
        explore_branches(fn)
    assert (exc.value.key, exc.value.branches) == ("wv", 2)
    assert isinstance(exc.value, RuntimeError)


# -- Q[s]/(m) on integers, against the Fraction reference ------------------------


def _reference_reduce(mod, cs):
    """cs modulo the monic list mod, one Fraction coefficient at a time."""
    cs, n = list(cs), len(mod) - 1
    while len(cs) > n:
        c = cs.pop()
        for i in range(n):
            cs[len(cs) - n + i] = cs[len(cs) - n + i] - c * mod[i]
    return tuple(cs + [Scalar(0)] * (n - len(cs)))


def _reference_euclid(mod, x):
    """(monic gcd of mod and x, s with s x = gcd modulo mod): Euclid over Q."""
    r0, r1 = list(mod), rings.trim(SCALARS, list(x))
    s0, s1 = [], [Scalar(1)]
    while r1:
        q, r = rings.dense_divmod(SCALARS, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, rings.dense_sub(SCALARS, s0, dense_mul(SCALARS, q, s1))
    inv = r0[-1].inv()
    return [c * inv for c in r0], [c * inv for c in s0]


def _reference_inv(R, x):
    if not any(x):
        raise DivisionByZero("inverse of zero")
    g, s = _reference_euclid(R.mod, x)
    if len(g) > 1:
        raise SplitEvent(R.key, tuple(g), tuple(dense_divexact(SCALARS, R.mod, g)))
    return _reference_reduce(R.mod, s)


def _reference_convolve(R, f, g, n):
    out = []
    for k in range(n):
        acc = R.zero()
        for i in range(max(0, k - len(g) + 1), min(k + 1, len(f))):
            acc = R.add(acc, _reference_reduce(R.mod, dense_mul(SCALARS, f[i], g[k - i])))
        out.append(acc)
    return out


def _reference_horner(R, rows, x):
    """sum_k [rows[k]] x^k by Horner's rule, each step reduced one Fraction coefficient at a time."""
    acc = R.zero()
    for row in reversed(rows):
        prod = dense_mul(SCALARS, list(acc), list(x))
        n = max(len(prod), len(row))
        prod, row = prod + [Scalar(0)] * (n - len(prod)), row + [Scalar(0)] * (n - len(row))
        acc = _reference_reduce(R.mod, [a + b for a, b in zip(prod, row)])
    return acc


def _outcome(op, *args):
    try:
        return "value", op(*args)
    except SplitEvent as ev:
        return "split", ev.key, ev.f1, ev.f2
    except DivisionByZero:
        return "zero"


def _rational_poly(deg, coeffs=st.tuples(st.integers(-40, 40), st.integers(1, 9))):
    """Lists of deg + 1 rationals with a nonzero leading coefficient."""
    lead = st.tuples(st.integers(-40, 40).filter(bool), st.integers(1, 9))
    return st.tuples(st.lists(coeffs, min_size=deg, max_size=deg), lead).map(
        lambda cl: [Scalar(QQ(*c)) for c in cl[0] + [cl[1]]]
    )


@st.composite
def rational_quotients(draw, lo=2, hi=12):
    """A Quotient over Q whose modulus has rational, non-monic coefficients."""
    mod = draw(_rational_poly(draw(st.integers(lo, hi))))
    return Quotient(SCALARS, mod, "wv")


def _elements(R):
    return st.lists(scalars_in(1), min_size=R.deg, max_size=R.deg).map(tuple)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_quotient_arithmetic_matches_the_fraction_reference(data):
    R = data.draw(rational_quotients(), label="R")
    assert R.imod[1] is None and R.imod[0][-1] > 0
    x, y = data.draw(_elements(R), label="x"), data.draw(_elements(R), label="y")
    assert R.mul(x, y) == _reference_reduce(R.mod, dense_mul(SCALARS, x, y))
    long = data.draw(st.lists(scalars_in(1), max_size=3 * R.deg), label="long")
    assert R.from_dense(long) == _reference_reduce(R.mod, long)
    f = data.draw(st.lists(_elements(R), max_size=4), label="f")
    g = data.draw(st.lists(_elements(R), max_size=4), label="g")
    n = data.draw(st.integers(1, len(f) + len(g) + 1), label="n")
    assert R.convolve(f, g, n) == _reference_convolve(R, f, g, n)
    ref = _outcome(_reference_inv, R, x)
    assert _outcome(R.inv, x) == ref
    assert _outcome(R.decide_zero, x) == (ref if ref[0] == "split" else ("value", ref == "zero"))
    # Horner's rule in x over base polynomials of any length, the modulus non-monic over Z
    rows = data.draw(st.lists(st.lists(scalars_in(1), max_size=2 * R.deg + 1), max_size=5), label="rows")
    assert R.horner(rows, x) == _reference_horner(R, rows, x)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_quotient_splits_planted_zero_divisors_as_euclid(data):
    p = data.draw(_rational_poly(data.draw(st.integers(1, 6))), label="p")
    q = data.draw(_rational_poly(data.draw(st.integers(1, 6))), label="q")
    R = Quotient(SCALARS, dense_mul(SCALARS, p, q), "wv")
    r = data.draw(_rational_poly(data.draw(st.integers(0, len(q) - 2))), label="r")
    x = R.from_dense(dense_mul(SCALARS, p, r))  # p r, not zero since deg r < deg q
    ref = _outcome(_reference_inv, R, x)
    assert ref[0] == "split"
    assert _outcome(R.inv, x) == ref
    assert _outcome(R.decide_zero, x) == ref
    with mock.patch.object(rings, "_HEU_TRIES", 0):
        # GCDHEU gives up at once: decide_zero falls back to _int_euclid
        assert _outcome(R.decide_zero, x) == ref
    assert _outcome(R.decide_zero, x) == ref
    assert _outcome(R.inv, R.zero()) == "zero"
    assert R.decide_zero(R.zero()) is True


def test_rational_moduli_run_no_fraction_euclid(monkeypatch):
    """The Fraction Euclid `_half_xgcd` runs over towers only."""
    from annuli.certify import injectivity_certificate, verify_witness
    from annuli.curves import ParametricCurve

    calls = []
    euclid = Quotient._half_xgcd

    def spy(self, a, b):
        calls.append("rational" if self.base is SCALARS and all(c.d == 1 for c in self.mod) else "other")
        return euclid(self, a, b)

    monkeypatch.setattr(Quotient, "_half_xgcd", spy)
    R = Quotient(SCALARS, [Scalar(QQ(-7, 3)), Scalar(2), Scalar(0), Scalar(QQ(5, 2))], "wv")
    x = R.from_dense([Scalar(QQ(1, 4)), Scalar(-3), Scalar(QQ(2, 7))])
    assert R.mul(R.inv(x), x) == R.one()
    assert R.decide_zero(x) is False
    # witnesses over Q[v]/(m) with deg m = 30: fiber gcds, their inverses and verification
    c = ParametricCurve(LaurentPoly({1: 1, -4: 1, -5: -2}), LaurentPoly({5: 3, 3: 2, 2: 1, -4: 2}))
    cert = injectivity_certificate(c)
    assert cert.verdict == "SelfIntersection" and all(verify_witness(c, w) for w in cert.witnesses)
    assert "rational" not in calls
    # a surd modulus, and a surd element over a rational modulus, take no Fraction Euclid either
    S = Quotient(SCALARS, [Scalar.sqrt_of(2), Scalar(0), Scalar(1)], "wv")
    assert S.mul(S.inv(S.gen()), S.gen()) == S.one()
    y = R.from_dense([Scalar(1, 2, 5), Scalar(0, -1, 5)])
    assert R.mul(R.inv(y), y) == R.one()
    assert calls == []
    # only a tower reaches it
    T = Quotient(S, [S.neg(S.gen()), S.zero(), S.one()], "rt")
    T.inv(T.gen())
    assert calls == ["other"]


# -- Q(sqrt d)[s]/(m) on Z[sqrt d] integers, against the same Fraction reference --


def _surd_poly(d, deg):
    """Lists of deg + 1 scalars of Q(sqrt d) with small parts and a nonzero leading coefficient."""
    part = st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(lambda nd: QQ(*nd))
    coeff = st.tuples(part, part).map(lambda ab: Scalar(ab[0], ab[1], d))
    return st.lists(coeff, min_size=deg + 1, max_size=deg + 1).filter(lambda cs: not cs[-1].is_zero())


@st.composite
def surd_quotients(draw, d, surd_modulus):
    """A Quotient over Q(sqrt d): a surd modulus, or a rational one whose elements are surd."""
    deg = draw(st.integers(2, 7))
    if not surd_modulus:
        return Quotient(SCALARS, draw(_rational_poly(deg)), "wv")
    monic = _surd_poly(d, deg).map(lambda cs: [c / cs[-1] for c in cs])
    return Quotient(SCALARS, draw(monic.filter(lambda cs: any(c.d != 1 for c in cs))), "wv")


@pytest.mark.parametrize("surd_modulus", [True, False])
@pytest.mark.parametrize("d", [2, 5, -3])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_surd_quotient_arithmetic_matches_the_fraction_reference(d, surd_modulus, data):
    R = data.draw(surd_quotients(d, surd_modulus), label="R")
    assert (R.imod[1] is None) != surd_modulus and R.imod[0][-1] > 0
    elements = st.lists(scalars_in(d), min_size=R.deg, max_size=R.deg).map(tuple)
    x, y = data.draw(elements, label="x"), data.draw(elements, label="y")
    assert R.mul(x, y) == _reference_reduce(R.mod, dense_mul(SCALARS, x, y))
    long = data.draw(st.lists(scalars_in(d), max_size=3 * R.deg), label="long")
    assert R.from_dense(long) == _reference_reduce(R.mod, long)
    f = data.draw(st.lists(elements, max_size=3), label="f")
    g = data.draw(st.lists(elements, max_size=3), label="g")
    n = data.draw(st.integers(1, len(f) + len(g) + 1), label="n")
    assert R.convolve(f, g, n) == _reference_convolve(R, f, g, n)
    ref = _outcome(_reference_inv, R, x)
    assert _outcome(R.inv, x) == ref
    assert _outcome(R.decide_zero, x) == (ref if ref[0] == "split" else ("value", ref == "zero"))
    rows = data.draw(st.lists(st.lists(scalars_in(d), max_size=2 * R.deg + 1), max_size=4), label="rows")
    assert R.horner(rows, x) == _reference_horner(R, rows, x)
    # products and quotients by the generator s
    assert R.mul_gen(x, "wv") == _reference_reduce(R.mod, [Scalar(0), *x])
    if not R.mod[0].is_zero():
        assert R.mul(R.div_gen(x, "wv"), R.gen()) == x


@pytest.mark.parametrize("d", [2, 5, -3])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_surd_quotient_splits_planted_zero_divisors_as_euclid(d, data):
    p = data.draw(_surd_poly(d, data.draw(st.integers(1, 4))), label="p")
    q = data.draw(st.one_of(_surd_poly(d, data.draw(st.integers(1, 4))), _rational_poly(2)), label="q")
    R = Quotient(SCALARS, dense_mul(SCALARS, p, q), "wv")
    r = data.draw(_surd_poly(d, data.draw(st.integers(0, len(q) - 2))), label="r")
    x = R.from_dense(dense_mul(SCALARS, p, r))  # p r, not zero since deg r < deg q
    ref = _outcome(_reference_inv, R, x)
    assert ref[0] == "split"
    assert _outcome(R.inv, x) == ref
    assert _outcome(R.decide_zero, x) == ref
    assert _outcome(R.inv, R.zero()) == "zero"
    assert R.decide_zero(R.zero()) is True
