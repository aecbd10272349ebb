import importlib.util
import random
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from annuli._ratio import QQ
from annuli import io
from annuli.bipoly import UV, double_point_system, symmetric_mean, uv_deg, uv_eval_u, uv_prs
from annuli.catalog import default_grid, gen_series, series_id
from annuli import certify, rings
from annuli.certify import (
    BoundTooSmall,
    InjectivityCertificate,
    LedgerMismatch,
    delta_max,
    delta_semigroup_oracle,
    embedding_verdict,
    estimates_audit,
    injectivity_certificate,
    oracle_delta_at_factor,
    ph_ledger,
    regularity_check,
    verify_witness,
    _fiber_gcd,
)
from annuli.curves import ParametricCurve, apply_automorphism, classify_type, exponent_profile
from annuli.laurent import ConstantComponent, LaurentPoly, from_dense, poly_gcd, resultant, squarefree_part, to_dense
from annuli.local import branch_series_at_point, milnor_from_pairs, scan_chain, singular_parameters
from annuli.reports import analyze_curve
from annuli.rings import (
    SCALARS,
    BranchState,
    LinearQuotient,
    Quotient,
    SplitEvent,
    dense_divexact,
    explore_branches,
    quotient_gcd,
    ring_pow,
)
from annuli.scalars import Scalar
from annuli.series import TS
from test_series import ts_scale, ts_sub

t = LaurentPoly.t


# -- references: the element-wise evaluations the package no longer runs ------


def poly_eval_ring(p: LaurentPoly, ring, x):
    """p(x) for a plain polynomial p and a ring element x (Horner)."""
    acc = ring.zero()
    if p.is_zero():
        return acc
    for e in range(p.top(), -1, -1):
        acc = ring.mul(acc, x)
        c = p[e]
        if not c.is_zero():
            acc = ring.add(acc, ring.from_scalar(c))
    return acc


def ref_uv_eval_u(F: UV, ring, u_val, v_value):
    """F at u = u_val by Horner in u, element by element, where v_value(p) is
    the value in `ring` of each v-coefficient p of F."""
    out = ring.zero()
    zero = LaurentPoly.zero()
    for d in range(uv_deg(F), -1, -1):
        out = ring.add(ring.mul(out, u_val), v_value(F.get(d, zero)))
    return out


def uv_eval_ring(F: UV, ring, u_val, v_val):
    """Evaluate a UV polynomial at ring elements (u_val, v_val), by Horner in u."""
    return ref_uv_eval_u(F, ring, u_val, lambda p: poly_eval_ring(p, ring, v_val))


def uv_eval_diag(F: UV) -> LaurentPoly:
    """Substitute u = 2z, v = z^2 (the diagonal t = t' = z)."""
    out = LaurentPoly.zero()
    for d, p in F.items():
        # p(v) -> p(z^2), times (2z)^d
        pz = LaurentPoly({2 * e: c for e, c in p.coeffs.items()})
        out = out + pz.shift(d) * Scalar.of(2**d)
    return out


def ref_v_value(ring):
    """The map p -> p(v) into `ring` for polynomials p in v, the generator of
    level "wv": the class in that level K, lifted into a "wu" level over K."""
    K = ring.base if ring.key == "wu" else ring
    if ring is K:
        return lambda p: K.from_dense(to_dense(p))
    return lambda p: ring.from_base(K.from_dense(to_dense(p)))


def power_sum_sym_eval(ring, u, fs) -> list:
    """(f(t) + f(t'))/2 for each f in `fs`, where t + t' = u and t t' = v,
    the generator of level "wv": the power sums p_k = u p_(k-1) - v p_(k-2),
    shared by every f, and the negative part by Horner in 1/v."""
    top = max((max(f.top(), -f.bot()) for f in fs if not f.is_zero()), default=0)
    pows = [ring.from_scalar(Scalar(2)), u]
    for _ in range(2, top + 1):
        pows.append(ring.sub(ring.mul(u, pows[-1]), ring.mul_gen(pows[-2], "wv")))
    half = Scalar("1/2")
    out = []
    for f in fs:
        acc = ring.zero()
        if f.is_zero():
            out.append(acc)
            continue
        for k in range(-min(f.bot(), 0), 0, -1):
            c = f[-k]
            if not c.is_zero():
                acc = ring.add(acc, ring.scale(pows[k], c * half))
            acc = ring.div_gen(acc, "wv")
        for k in range(max(f.top(), 0) + 1):
            c = f[k]
            if not c.is_zero():
                acc = ring.add(acc, ring.scale(pows[k], c * half))
        out.append(acc)
    return out


def fixture_narrow_quartic():
    # phi = (t-1)^4 t^-2, psi = (t-1)^2 (t+1) t^-1: always self-intersecting
    return ParametricCurve(((t(1) - 1) ** 4).shift(-2), ((t(1) - 1) ** 2 * (t(1) + 1)).shift(-1))


def fixture_wide_quartic():
    # phi = (t-1)^2 (t+1) t^-2, psi = (t-1)^4 t^-2: always self-intersecting
    return ParametricCurve(((t(1) - 1) ** 2 * (t(1) + 1)).shift(-2), ((t(1) - 1) ** 4).shift(-2))


def test_delta_max_values():
    assert delta_max(exponent_profile(gen_series(series_id("u")))) == 8
    assert delta_max(exponent_profile(gen_series(series_id("w")))) == 6
    assert delta_max(exponent_profile(gen_series(series_id("r", n=0)))) == 14


def test_ledgers():
    w = ph_ledger(gen_series(series_id("w")))
    assert w.two_delta_max == 6 and w.finite_sum() == 6 and w.two_delta_inf == 0
    assert w.balanced and w.euler_ok
    u = ph_ledger(gen_series(series_id("u")))
    assert (u.two_delta_max, u.finite_sum(), u.two_delta_inf) == (8, 8, 0)
    r0 = ph_ledger(gen_series(series_id("r", n=0)))
    assert (r0.two_delta_max, r0.finite_sum(), r0.two_delta_inf) == (14, 12, 2)
    assert r0.balanced


def test_injectivity_positive():
    assert injectivity_certificate(gen_series(series_id("w"))).verdict == "Injective"
    assert injectivity_certificate(gen_series(series_id("v"))).verdict == "Injective"


def test_injectivity_negative_fixtures_with_witnesses():
    for c in (fixture_narrow_quartic(), fixture_wide_quartic()):
        cert = injectivity_certificate(c)
        assert cert.verdict == "SelfIntersection"
        assert cert.witnesses
        for w in cert.witnesses:
            assert verify_witness(c, w)
            assert w.point is not None


def test_binomial_pair_with_spans_7_and_8_self_intersects():
    # x = -3t^5 - 3t^-2, y = t^2 + 2t^-6: its squarefree eliminant over Q
    # once took seconds in the Euclidean gcd loop
    c = ParametricCurve(LaurentPoly({5: -3, -2: -3}), LaurentPoly({2: 1, -6: 2}))
    cert = injectivity_certificate(c)
    assert cert.verdict == "SelfIntersection"
    assert cert.witnesses
    for w in cert.witnesses:
        assert verify_witness(c, w)


def test_random_laurent_curve_self_intersects_with_verified_witnesses():
    # x = t + t^-4 - 2t^-5, y = 3t^5 + 2t^3 + t^2 + 2t^-4: its fiber gcds once
    # took seconds in the Euclidean loop over Q[v]/(M)
    c = ParametricCurve(LaurentPoly({1: 1, -4: 1, -5: -2}), LaurentPoly({5: 3, 3: 2, 2: 1, -4: 2}))
    cert = injectivity_certificate(c)
    assert cert.verdict == "SelfIntersection"
    assert cert.witnesses
    for w in cert.witnesses:
        assert verify_witness(c, w)
        assert w.point is not None


def _point_at_witness(curve: ParametricCurve, w) -> dict:
    """(x(t), y(t)) at a root t of t^2 - u t + v over the witness tower, read
    directly: both values are symmetric in t, t', so they lie in the tower."""

    def fn(st: BranchState):
        ring, u, v = certify._witness_tower(st, w)
        L = Quotient(ring, [v, ring.neg(u), ring.one()], "wt")
        point = {}
        for name, f in (("x", curve.phi), ("y", curve.psi)):
            val = L.zero()
            for e, c in f.coeffs.items():
                val = L.add(val, L.mul(L.from_scalar(c), ring_pow(L, L.gen(), e)))
            assert ring.is_zero(val[1])
            point[name] = ring.to_repr(val[0])
        return point

    return explore_branches(fn)[0]


def test_witness_point_is_the_double_point_of_the_input_curve():
    """t = +-sqrt(2/3) both map to (1/2, -1/3); the curve with its constants
    stripped, which the certificate works on, has its double point at (0, 2/3)."""
    c = ParametricCurve(t(1) * -3 - 1 + t(-1) * 2 + t(-2), t(2) - 1)
    [w] = injectivity_certificate(c).witnesses
    assert w.point == {"x": "1/2", "y": "-1/3"} == _point_at_witness(c, w)
    assert verify_witness(c, w)
    w.point = {"x": "0", "y": "2/3"}
    assert not verify_witness(c, w)


def test_witness_points_of_random_curves_lie_on_the_input_curve():
    """Seeded random Laurent curves with constant terms and one-root
    components, whose witness points the certificate reads on the curve as given."""
    rng = random.Random(20261020)
    checked = shifted = 0
    for _ in range(40):
        comps = []
        one_root = False
        for _ in range(2):
            if rng.random() < 0.3:
                one_root = True
                comp = (t(1) - rng.choice((1, 2, -1))) ** rng.randint(1, 3) * t(rng.randint(-2, 0)) * rng.choice((1, -2))
            else:
                bot, top = rng.randint(-3, -1), rng.randint(1, 3)
                comp = LaurentPoly({e: Scalar(rng.randint(-3, 3) or 1) for e in range(bot, top + 1) if e in (bot, top) or rng.random() < 0.4})
            comps.append(comp + rng.randint(-2, 2))
        c = ParametricCurve(*comps)
        cert = injectivity_certificate(c)
        for w in cert.witnesses:
            if not w.u_poly:
                continue
            assert w.point == _point_at_witness(c, w), c
            assert verify_witness(c, w)
            checked += 1
            shifted += one_root or not c.phi[0].is_zero() or not c.psi[0].is_zero()
    assert checked >= 20 and shifted >= 10, (checked, shifted)


_ONE_ROOT = (t(1) - 1) ** 2 * t(1)  # (t - 1)^2 t: one C*-root, no constant term


@pytest.mark.parametrize(
    "k, r, verdict, witnesses",
    [
        (3, t(-1) + 2, "Injective", []),
        (4, t(-1) + 2, "Injective", []),
        (3, t(1) + t(-1), "SelfIntersection", [("t - 1", "(1)*u", {"x": "2", "y": "0"})]),
        (4, t(1) + t(-1), "SelfIntersection", [("t - 1", "(1)*u", {"x": "2", "y": "0"})]),
        (
            3,
            t(-2) - t(1),
            "SelfIntersection",
            [("t^4 + 2*t^2 - t + 1", "(1)*s^2 + (1)*u", {"x": "(2)*s + (1)*s^3", "y": "5 + (-3)*s + (2)*s^2 + (-1)*s^3"})],
        ),
        (
            4,
            t(-2) - t(1),
            "SelfIntersection",
            [("t^4 + 2*t^2 - t + 1", "(1)*s^2 + (1)*u", {"x": "(2)*s + (1)*s^3", "y": "3 + (5)*s + (3)*s^2 + (4)*s^3"})],
        ),
    ],
)
def test_one_root_component_curves_keep_their_verdicts_and_witnesses(k, r, verdict, witnesses):
    """x = (t - 1)^2 t and y = x^k r: y is divisible by a component with a
    single C*-root, the shape a span reduction y -> y/x would shorten.  The
    certificate decides on the curve as given, with these witnesses."""
    c = ParametricCurve(_ONE_ROOT, _ONE_ROOT**k * r)
    cert = injectivity_certificate(c)
    assert cert.verdict == verdict
    assert [(repr(w.v_factor), w.ring_repr, w.point) for w in cert.witnesses] == witnesses
    assert all(verify_witness(c, w) for w in cert.witnesses)


def test_tower_family_certifies_in_bounded_time():
    """(c)[k=3,m=2,n=3]: x = t^7 - t^6 and y of span 14, a tower image whose
    forward move y -> x y + K the certificate does not undo."""
    c = gen_series(series_id("c", k=3, m=2, n=3))
    start = time.process_time()
    cert = injectivity_certificate(c)
    elapsed = time.process_time() - start
    assert cert.verdict == "Injective" and cert.witnesses == []
    assert elapsed < 0.5, f"certificate took {elapsed:.2f} s of CPU time"


@pytest.mark.parametrize("curve", [ParametricCurve(t(1) + t(-1), LaurentPoly.const(2)), ParametricCurve(LaurentPoly.zero(), t(2))], ids=["y", "x"])
def test_certificate_of_a_constant_component_raises(curve):
    with pytest.raises(ConstantComponent, match="is constant"):
        injectivity_certificate(curve)


def test_double_point_system_is_the_symmetric_difference_quotient():
    """D(t + t', t t') = (t t')^a (phi(t) - phi(t')) / (t - t'), a = max(0, -bot phi)."""
    rnd = random.Random(11)
    for d in (1, 2):
        for _ in range(25):
            lo = rnd.randint(-5, 1)
            hi = rnd.randint(max(lo, 0) + 1, 6)
            coef = {e: Scalar(rnd.randint(-3, 3), rnd.randint(-2, 2) if d != 1 else 0, d) for e in range(lo, hi + 1)}
            phi = LaurentPoly(coef)
            if phi.is_constant():
                continue
            D, _ = double_point_system(phi, phi)
            a = max(0, -phi.bot())
            x = Scalar(QQ(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.randint(1, 5)))
            y = Scalar(QQ(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.randint(1, 5)))
            if x == y:
                continue
            want = (x * y) ** a * (phi.eval(x) - phi.eval(y)) / (x - y)
            assert uv_eval_ring(D, SCALARS, x + y, x * y) == want


def test_composite_curve_has_a_positive_dimensional_common_component():
    """(h, h^2 + 3h) with h = t^2 + t + 1/t: every pair t != t' with h(t) = h(t')
    is a double point, so the chain ends in a factor of positive u-degree."""
    h = t(2) + t(1) + t(-1)
    cert = injectivity_certificate(ParametricCurve(h, h * h + h * 3))
    assert cert.verdict == "SelfIntersection"
    assert [w.ring_repr for w in cert.witnesses] == ["positive-dimensional common component"]


_H = t(2) + t(1) + t(-1)
COMPOSITES = [
    (ParametricCurve(t(1) + t(-1), t(3) + t(-3)), "point t - 1"),
    (ParametricCurve(_H, _H * _H + _H * 3), "point t^3 + 1/2*t^2 - 1/2"),
]


@pytest.mark.parametrize("curve, stage", COMPOSITES, ids=["t+1/t", "h=t^2+t+1/t"])
def test_composite_curve_gets_a_typed_ledger_error(curve, stage):
    """No chain of an improperly parametrized curve resolves, so the ledger
    stops at its first site's largest window and names it."""
    report, code = analyze_curve(curve)
    assert code == 3
    assert report["verdict"]["verdict"] == "NotEmbedding" and report["verdict"]["reason"] == "SelfIntersection"
    error = report["ledger"]["error"]
    assert error.startswith(f"improper parametrization: {stage} unresolved at window ")
    assert "balance_equation" not in report


def test_an_injective_certificate_with_no_ledger_is_a_mismatch(monkeypatch):
    curve = COMPOSITES[0][0]
    monkeypatch.setattr(certify, "injectivity_certificate", lambda c: InjectivityCertificate("Injective", []))
    with pytest.raises(LedgerMismatch, match="injective curve with no ledger: point t - 1"):
        embedding_verdict(curve)


# -- the fiber gcd from the subresultant chain against Euclid over Q[v]/(m) ----

ROOTS = (-2, -1, 0, 1, 2, 3)
QUADRATICS = ((-2, 0, 1), (1, 0, 1), (1, 1, 1), (-3, 0, 1))


def _v_lin(r):
    return LaurentPoly({1: 1, 0: -r})


def _uv_mul(F, G):
    out = {}
    for i, p in F.items():
        for j, q in G.items():
            out[i + j] = out.get(i + j, LaurentPoly.zero()) + p * q
    return {k: p for k, p in out.items() if not p.is_zero()}


def _uv_add(F, G):
    out = dict(F)
    for k, p in G.items():
        out[k] = out.get(k, LaurentPoly.zero()) + p
    return {k: p for k, p in out.items() if not p.is_zero()}


@st.composite
def fiber_cases(draw):
    """(D, E, modulus, v0) over Q or Q(sqrt 2).  The modulus has at least one
    linear factor v - v0; leading coefficients often vanish at its roots, and
    D and E often share a solution above v0 or have a remainder whose leading
    coefficient vanishes there, so that decisions split, trim and restart the
    chain."""
    d = draw(st.sampled_from([1, 2]))
    lin_roots = sorted(draw(st.sets(st.sampled_from(ROOTS), min_size=1, max_size=3)))
    v0 = draw(st.sampled_from(lin_roots))

    def coef():
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-2, 2)) if d == 2 else 0
        return Scalar(a, b, d) if b else Scalar(a)

    def vpoly():
        p = LaurentPoly({e: coef() for e in range(draw(st.integers(0, 2)) + 1)})
        for r in draw(st.lists(st.sampled_from(ROOTS), max_size=2)):
            p = p * _v_lin(r)
        return p

    def uvpoly(max_deg, min_deg=0, lc_root=True):
        top = draw(st.integers(min_deg, max_deg))
        F = {k: p for k in range(top) if not (p := vpoly()).is_zero()}
        F[top] = vpoly()
        if F[top].is_zero():
            F[top] = LaurentPoly.const(1)
        if lc_root and draw(st.booleans()):
            F[top] = F[top] * _v_lin(draw(st.sampled_from(lin_roots)))
        return F

    shape = draw(st.sampled_from(["random", "lower", "common", "defective"]))
    if shape == "random":
        D, E = uvpoly(3), uvpoly(3)
    elif shape == "lower":
        # D has the lower degree and lc(D) vanishes at v0: Euclid decides it
        E = uvpoly(3, 2)
        D = uvpoly(uv_deg(E) - 1, 1, lc_root=False)
        D[uv_deg(D)] = D[uv_deg(D)] * _v_lin(v0)
    elif shape == "common":
        u0 = draw(st.integers(-2, 2))
        lin_u, lin_v = {1: LaurentPoly.const(1), 0: LaurentPoly.const(-u0)}, {0: _v_lin(v0)}
        D = _uv_add(_uv_mul(uvpoly(2), lin_u), _uv_mul(uvpoly(2), lin_v))
        E = _uv_add(_uv_mul(uvpoly(2), lin_u), _uv_mul(uvpoly(2), lin_v))
    else:
        # D = E Q + R with the top one or two coefficients of R vanishing at
        # v0: the chain element after E loses degree modulo v - v0, and past
        # the next element when two vanish
        E = uvpoly(4, 3, lc_root=False)
        R = uvpoly(uv_deg(E) - 1, 2, lc_root=False)
        for k in range(uv_deg(R), uv_deg(R) - draw(st.integers(1, 2)), -1):
            R[k] = R.get(k, LaurentPoly.const(1)) * _v_lin(v0)
        D = _uv_add(_uv_mul(E, uvpoly(1)), R)
        if draw(st.booleans()):
            D, E = E, D
    m = LaurentPoly.const(1)
    for r in lin_roots:
        m = m * _v_lin(r)
    for q in draw(st.lists(st.sampled_from(QUADRATICS), max_size=2, unique=True)):
        m = m * LaurentPoly(dict(enumerate(q)))
    return D, E, squarefree_part(m), v0


def _euclid_fiber_gcd(st_, D, E, mod):
    K = st_.quotient(SCALARS, "wv", mod)
    v = K.gen()
    Du = [poly_eval_ring(D.get(k, LaurentPoly.zero()), K, v) for k in range(uv_deg(D) + 1)]
    Eu = [poly_eval_ring(E.get(k, LaurentPoly.zero()), K, v) for k in range(uv_deg(E) + 1)]
    return tuple(st_.modulus("wv", mod)), quotient_gcd(K, Du, Eu)


def _euclid_fiber_check(D, E, m):
    """(branch modulus, witness fields or None) per branch, as the fiber check
    decided before linear fiber gcds were decided in Q[v]: the squarefree part
    of the fiber gcd by Euclid over Q[v]/(m), then its saturation by the
    diagonal u^2 = 4v."""
    mod = to_dense(m)
    chains = {(uv_deg(D), uv_deg(E)): uv_prs(D, E)}

    def fn(st_: BranchState):
        K = st_.quotient(SCALARS, "wv", mod)
        mm = from_dense(st_.modulus("wv", mod))
        g = _fiber_gcd(K, D, E, chains)
        res = None
        if len(g) > 1:
            gp = [K.mul(c, K.from_scalar(Scalar(i + 1))) for i, c in enumerate(g[1:])]
            gsf = dense_divexact(K, g, quotient_gcd(K, g, gp))
            diag = [K.neg(K.mul(K.from_scalar(Scalar(4)), K.gen())), K.zero(), K.one()]
            h = quotient_gcd(K, gsf, diag)
            if len(h) > 1:
                gsf = dense_divexact(K, gsf, h)
            if len(gsf) > 1:
                res = (repr(mm), gsf, certify._upoly_repr(K, gsf))
        return tuple(st_.modulus("wv", mod)), res

    return explore_branches(fn)


def _fiber_check_branches(D, E, m):
    """`certify._fiber_check` with the modulus of each branch recorded."""
    mod = to_dense(m)
    moduli = []

    def recording(fn):
        def wrapped(st_):
            res = fn(st_)
            moduli.append(tuple(st_.modulus("wv", mod)))
            return res

        return explore_branches(wrapped)

    with mock.patch.object(certify, "explore_branches", recording):
        results = certify._fiber_check(D, E, m, uv_prs(D, E))
    return [(mm, w if w is None else (repr(w.v_factor), w.u_poly, w.ring_repr)) for mm, w in zip(moduli, results)]


@given(fiber_cases())
@settings(max_examples=300, deadline=None)
def test_fiber_gcd_makes_euclids_decisions(case):
    D, E, m, v0 = case
    mod = to_dense(m)
    chains = {}

    def walk(st_: BranchState):
        K = st_.quotient(SCALARS, "wv", mod)
        return tuple(st_.modulus("wv", mod)), _fiber_gcd(K, D, E, chains)

    assert explore_branches(walk) == explore_branches(lambda st_: _euclid_fiber_gcd(st_, D, E, mod))
    # the fiber check, branch for branch: moduli, diagonal branches and witnesses
    assert _fiber_check_branches(D, E, m) == _euclid_fiber_check(D, E, m)
    # every rational root of the specialized resultant is a root of the chain's
    # last element, where both leading coefficients stay nonzero
    if uv_deg(D) < 0 or uv_deg(E) < 0:
        return
    last = uv_prs(D, E)[-1]
    if uv_deg(last) > 0:
        return
    for r in set(ROOTS) | {v0}:
        Dr = LaurentPoly({k: p.eval(Scalar(r)) for k, p in D.items()})
        Er = LaurentPoly({k: p.eval(Scalar(r)) for k, p in E.items()})
        if D[uv_deg(D)].eval(Scalar(r)).is_zero() or E[uv_deg(E)].eval(Scalar(r)).is_zero():
            continue
        if resultant(Dr, Er).is_zero():
            assert last[0].eval(Scalar(r)).is_zero(), r


def _v_poly(*roots):
    p = LaurentPoly.const(1)
    for r in roots:
        p = p * _v_lin(r)
    return p


# D and E share the linear factor 3u - 2v - 4 and nothing else over any v:
# on it, c^2 - 4v = 4 (v - 1)(v - 4) / 9 for c = -(2v + 4)/3
_LIN = {1: LaurentPoly.const(3), 0: LaurentPoly({0: -4, 1: -2})}
_LIN_D = _uv_mul(_LIN, {1: LaurentPoly.const(1), 0: LaurentPoly.const(1)})
_LIN_E = _uv_mul(_LIN, {1: LaurentPoly.const(1), 0: LaurentPoly.const(-3)})


@pytest.mark.parametrize(
    "m, shape",
    [
        (_v_poly(1, 4), [None]),  # c^2 - 4v is zero modulo m: a diagonal branch
        (_v_poly(2, 3), ["witness"]),  # a unit modulo m of degree 2
        (_v_poly(1, 2, 4), [None, "witness"]),  # a zero divisor: m splits
        (_v_poly(2, 3) * LaurentPoly({0: -2, 2: 1}), ["witness"]),  # degree 4 over Q
    ],
    ids=["diagonal", "unit", "zero-divisor", "degree-4"],
)
def test_linear_fiber_gcds_make_euclids_decisions(m, shape):
    branches = _fiber_check_branches(_LIN_D, _LIN_E, m)
    assert branches == _euclid_fiber_check(_LIN_D, _LIN_E, m)
    assert [res if res is None else "witness" for _, res in branches] == shape
    for _, res in branches:
        if res is not None:
            assert len(res[1]) == 2  # the fiber gcd is linear
    if len(shape) == 2:
        # the linear decision splits m on gcd(m, c^2 - 4v) = (v - 1)(v - 4)
        K = Quotient(SCALARS, to_dense(m), "wv")
        with pytest.raises(SplitEvent) as split:
            certify._linear_fiber(K, m, _fiber_gcd(K, _LIN_D, _LIN_E, {}))
        assert from_dense(list(split.value.f1)) == _v_poly(1, 4)
        assert [from_dense(list(mm)) for mm, _ in branches] == [_v_poly(1, 4), _v_poly(2)]


def _sym_eval_reference(ring, f: LaurentPoly, u, v):
    """(f(t) + f(t'))/2 via power sums for t + t' = u, t t' = v, with
    inverses and products in the ring: the witness image before it was
    computed by products and quotients by v."""
    if f.is_zero():
        return ring.zero()
    top = max(f.top(), 0)
    bot = min(f.bot(), 0)
    pows = {0: ring.from_scalar(Scalar(2)), 1: u}
    for k in range(2, top + 1):
        pows[k] = ring.sub(ring.mul(u, pows[k - 1]), ring.mul(v, pows[k - 2]))
    if bot < 0:
        vi = ring.inv(v)
        ui = ring.mul(u, vi)
        pows[-1] = ui
        for k in range(2, -bot + 1):
            pows[-k] = ring.sub(ring.mul(ui, pows[-(k - 1)]), ring.mul(vi, pows[-(k - 2)]))
    acc = ring.zero()
    for e, c in f.coeffs.items():
        acc = ring.add(acc, ring.mul(ring.from_scalar(c), pows[e]))
    return ring.mul(acc, ring.from_scalar(Scalar("1/2")))


def _witness_rings(d: int, rnd: random.Random):
    """(name, ring, u, v) on every kind of witness ring over Q(sqrt d): level
    "wv" linear and of degree 3, and a "wu" level over each, of degree 2 and
    split to linear."""

    def coef():
        b = rnd.randint(-2, 2) if d != 1 else 0
        return Scalar(rnd.randint(-4, 4) or 1, b, d) if b else Scalar(rnd.randint(-4, 4) or 1)

    def elem(K):
        return K.add(K.from_scalar(coef()), K.mul(K.from_scalar(coef()), K.gen()))

    root = Scalar(rnd.choice((-3, -1, 2, 5)), rnd.randint(1, 2) if d != 1 else 0, d)
    cubic = [coef(), coef(), Scalar(0), Scalar(1)]  # m(0) != 0, as for every eliminant factor
    out = []
    for kname, K in (("linear", BranchState().quotient(SCALARS, "wv", [-root, Scalar(1)])), ("cubic", Quotient(SCALARS, cubic, "wv"))):
        assert isinstance(K, LinearQuotient) == (kname == "linear")
        v = K.gen()
        out.append((f"{kname} wv", K, elem(K), v))
        tower = BranchState().quotient(K, "wu", [elem(K), elem(K), K.one()])
        assert isinstance(tower, Quotient)
        out.append((f"{kname} wv, quadratic wu", tower, tower.gen(), tower.from_base(v)))
        split = BranchState().quotient(K, "wu", [elem(K), K.one()])
        assert isinstance(split, LinearQuotient) and split.key == "wu"
        out.append((f"{kname} wv, linear wu", split, split.gen(), split.from_base(v)))
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_witness_image_equals_the_power_sums_with_inverses(d):
    rnd = random.Random(20261020 + d)
    kinds = set()
    for _ in range(6):
        for name, ring, u, v in _witness_rings(d, rnd):
            fs = []
            for _ in range(2):
                bot, top = rnd.randint(-5, -1), rnd.randint(0, 6)
                fs.append(LaurentPoly({e: Scalar(rnd.randint(-3, 3), rnd.randint(-1, 1) if d != 1 else 0, d) for e in range(bot, top + 1)}))
            fs.append(LaurentPoly.zero())
            got = certify._sym_eval(ring, u, fs)
            assert got == [_sym_eval_reference(ring, f, u, v) for f in fs], name
            kinds.add(name)
    assert len(kinds) == 6


def _random_laurent(rnd: random.Random, d: int, bot: int, top: int) -> LaurentPoly:
    return LaurentPoly({e: Scalar(rnd.randint(-3, 3), rnd.randint(-1, 1) if d != 1 else 0, d) for e in range(bot, top + 1)})


@pytest.mark.parametrize("d", [1, 2, -3])
def test_closed_form_witness_image_equals_the_power_sum_recurrence(d):
    """At every tower shape: linear and nonlinear "wv" with a linear u, and a
    "wu" level over each, quadratic and split to linear."""
    rnd = random.Random(20261022 + d)
    kinds = set()
    for _ in range(6):
        for name, ring, u, _ in _witness_rings(d, rnd):
            fs = [_random_laurent(rnd, d, rnd.randint(-6, 2), rnd.randint(2, 7)) for _ in range(2)]
            fs += [_random_laurent(rnd, d, 0, rnd.randint(1, 4)), LaurentPoly.zero()]
            assert certify._sym_eval(ring, u, fs) == power_sum_sym_eval(ring, u, fs), name
            kinds.add(name)
    assert len(kinds) == 6


@pytest.mark.parametrize("d", [1, 2, -3])
def test_uv_eval_u_equals_elementwise_horner(d):
    """uv_eval_u at every tower shape against Horner in u element by element,
    on random UV polynomials whose v-degrees pass deg m, and on zero."""
    rnd = random.Random(20261023 + d)
    for _ in range(5):
        for name, ring, u, _ in _witness_rings(d, rnd):
            F = {k: _random_laurent(rnd, d, 0, rnd.randint(0, 6)) for k in range(rnd.randint(0, 5))}
            F = {k: p for k, p in F.items() if not p.is_zero()}
            assert uv_eval_u(F, ring, u) == ref_uv_eval_u(F, ring, u, ref_v_value(ring)), name
            assert uv_eval_u({}, ring, u) == ring.zero(), name


def test_symmetric_mean_at_rational_pairs():
    """v^a (f(x) + f(y)) / 2 at u = x + y, v = x y, over Q and Q(sqrt 2)."""
    rnd = random.Random(20261024)
    for d in (1, 2):
        for _ in range(25):
            f = _random_laurent(rnd, d, rnd.randint(-5, 1), rnd.randint(0, 6))
            S, a = symmetric_mean(f)
            assert a == max(0, -f.bot()) if not f.is_zero() else a == 0
            x = Scalar(QQ(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.randint(1, 5)))
            y = Scalar(QQ(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.randint(1, 5)))
            want = (x * y) ** a * (f.eval(x) + f.eval(y)) * Scalar("1/2")
            assert uv_eval_ring(S, SCALARS, x + y, x * y) == want


def _workload_inputs(workload: str, seed: int, scale: float) -> list:
    """The curve files of a benchmark workload at a reduced scale."""
    path = Path(__file__).resolve().parent.parent / "annuli_bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [text for _, text in workloads.make_inputs(workload, seed, scale=scale)]


def test_every_witness_of_a_refute_sample_verifies():
    """Witnesses over Q, and over Q(sqrt d) from the `fields` workload, where
    some fiber gcds are quadratic and the witness has a "wu" level."""
    for workload, least, towers in (("refute", 10, 0), ("fields", 10, 2)):
        checked = wu = 0
        for text in _workload_inputs(workload, 3, 1 / 16):
            c = io.parse_curve_file(text)
            for w in injectivity_certificate(c).witnesses:
                if not w.u_poly:
                    continue
                assert verify_witness(c, w), text
                checked += 1
                wu += len(w.u_poly) > 2
        assert checked >= least, (workload, checked)
        assert wu >= towers, (workload, wu)


def test_degree_39_witness_certifies_and_verifies_in_bounded_time():
    """Q[v]/(m) over Q computes on integers: the inverse that makes the fiber
    gcd monic and verify_witness's zero decisions take no Euclid on Fractions."""
    t = LaurentPoly.t
    c = ParametricCurve(
        t(6) * -3 + t(1) * -2 + t(-2),
        t(8) * -1 + t(5) * -3 + t(4) * 2 + t(1) * -3 + t(-1) + t(-2) + t(-4) * 3,
    )
    start = time.process_time()
    cert = injectivity_certificate(c)
    ok = [verify_witness(c, w) for w in cert.witnesses]
    elapsed = time.process_time() - start
    assert cert.verdict == "SelfIntersection"
    assert [w.v_factor.top() for w in cert.witnesses] == [39]
    assert ok == [True]
    assert elapsed < 2.0, f"certificate and verification took {elapsed:.2f} s of CPU time"


def test_tangent_sqrt_minus_3_curve_certifies_in_bounded_time():
    """A tangent curve over Q(sqrt -3) whose eliminant has degree 36: the
    squarefree part, the fiber decisions and the inverse that makes the
    fiber gcd monic run on Z[sqrt -3] integers.  Verdict and witness are
    pinned to the values of the Fraction Euclid, which took about a minute."""
    import hashlib
    import json

    def r(a, b=0):
        return Scalar(a, b, -3)

    c = ParametricCurve(
        LaurentPoly({4: r(1, 2), 2: r(2, 1), 1: r(3), 0: r(-1, 2), -1: r(3, 1), -3: r(-2, 2), -4: r(4, 8)}),
        LaurentPoly({6: r(3), 4: r(1), 3: r(1, -2), 2: r(-1), 1: r(3), -2: r(0, -2), -3: r(1), -4: r(1), -5: r(3, 1), -6: r(24)}),
    )
    start = time.process_time()
    cert = injectivity_certificate(c)
    elapsed = time.process_time() - start
    assert cert.verdict == "SelfIntersection" and len(cert.witnesses) == 1
    w = cert.witnesses[0]
    assert w.v_factor.top() == 34
    assert repr(w.v_factor).startswith("t^34 - 19*t^33 + (-3103/169+2943/169*sqrt(-3))*t^32 + ")
    digest = hashlib.sha256(json.dumps(cert.as_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == "fc2bd7224e936e8563b2d0ef48f7543161cd0df143f12d8ef097451e20843f6d"
    assert verify_witness(c, w)
    assert elapsed < 10.0, f"certificate took {elapsed:.2f} s of CPU time"


def test_fields_round_runs_no_fraction_euclid_over_the_scalars(monkeypatch):
    """A `fields` round at scale 1/16: every inverse, zero decision and gcd
    over Q(sqrt d) runs on integers, with no `_half_xgcd` and no Euclidean
    `quotient_gcd` over the scalars."""
    calls = []
    half_xgcd, euclid = Quotient._half_xgcd, rings.quotient_gcd

    def spy_half(self, a, b):
        calls.append("half_xgcd")
        return half_xgcd(self, a, b)

    def spy_gcd(ring, f, g):
        if ring is SCALARS:
            calls.append("quotient_gcd")
        return euclid(ring, f, g)

    monkeypatch.setattr(Quotient, "_half_xgcd", spy_half)
    monkeypatch.setattr(rings, "quotient_gcd", spy_gcd)
    monkeypatch.setattr(certify, "quotient_gcd", spy_gcd)
    texts = _workload_inputs("fields", 1, 1 / 16)
    for text in texts:
        analyze_curve(io.parse_curve_file(text))
    assert len(texts) >= 20
    assert calls == []


def test_witness_transforms_with_automorphisms():
    c = fixture_narrow_quartic()
    moves = [
        {"kind": "y_plus_c_xl", "c": Scalar(2), "l": 1},
        {"kind": "scale_t", "by": Scalar(2)},
        {"kind": "swap_xy"},
        {"kind": "inv_t"},
    ]
    for mv in moves:
        c2 = apply_automorphism(c, mv)
        cert = injectivity_certificate(c2)
        assert cert.verdict == "SelfIntersection", mv
    w = gen_series(series_id("w"))
    for mv in moves:
        assert injectivity_certificate(apply_automorphism(w, mv)).verdict == "Injective"


def test_diagonal_limit_recovers_singular_locus():
    for sid in (series_id("w"), series_id("u"), series_id("v")):
        c = gen_series(sid)
        D, E = double_point_system(c.phi, c.psi)
        g = poly_gcd(uv_eval_diag(D), uv_eval_diag(E))
        g = g.shift(-g.bot())
        g = squarefree_part(g) if not g.is_constant() else g
        locus = LaurentPoly.const(1)
        for e in singular_parameters(c):
            locus = locus * e.factor
        assert g == locus.monic(), str(sid)


def test_embedding_verdicts():
    assert embedding_verdict(gen_series(series_id("v"))).kind == "Embedding"
    assert embedding_verdict(ParametricCurve(t(2), t(4))).reason == "PowerCover 2"
    assert embedding_verdict(fixture_narrow_quartic()).kind == "NotEmbedding"


def test_regularity_margins():
    for sid, margin, sigma in ((series_id("u"), 0, 4), (series_id("w"), 0, 3), (series_id("s", n=1), 0, 3)):
        c = gen_series(sid)
        rep = regularity_check(ph_ledger(c), classify_type(c))
        assert rep.ok and (rep.margin, rep.sigma) == (margin, sigma), str(sid)


def test_estimates_audit_item_u():
    c = gen_series(series_id("u"))
    led = ph_ledger(c)
    rows = {r.name: r for r in estimates_audit(c, led)}
    mu_row = rows["mu<=n*nu at t - 1"]
    assert mu_row.lhs == 8 and mu_row.rhs == 8 and mu_row.ok  # equality case
    d_row = rows["|ps-rq|-(p'+r')+1>=0"]
    assert d_row.lhs == 0 and d_row.ok  # D = 1 - 2 + 1 = 0
    assert all(r.ok for r in rows.values())


def test_oracle_examples():
    # (tau^2, tau^3) -> 1 ; (tau^4, tau^6 + tau^7) -> 8 ; (tau, tau) -> 0
    def mk(*pairs):
        cs = [Scalar(0)] * 30
        for e, c in pairs:
            cs[e] = Scalar(c)
        return TS(SCALARS, 0, cs)

    assert delta_semigroup_oracle(SCALARS, mk((2, 1)), mk((3, 1)), 25) == 1
    assert delta_semigroup_oracle(SCALARS, mk((4, 1)), mk((6, 1), (7, 1)), 25) == 8
    assert delta_semigroup_oracle(SCALARS, mk((1, 1)), mk((1, 1)), 25) == 0


def test_oracle_bound_too_small():
    cs = [Scalar(0)] * 8
    cs[4] = Scalar(1)
    ds = [Scalar(0)] * 8
    ds[6] = Scalar(1)
    ds[7] = Scalar(1)
    with pytest.raises(BoundTooSmall):
        delta_semigroup_oracle(SCALARS, TS(SCALARS, 0, cs), TS(SCALARS, 0, ds), 7)


def test_oracle_matches_milnor_on_catalog_points():
    for sid in (series_id("u"), series_id("w"), series_id("v"), series_id("b", k=1, m=2)):
        c = gen_series(sid)
        for e in singular_parameters(c):
            bound = e.mu + e.n + 4
            for fac, delta in oracle_delta_at_factor(c, e.factor, bound=bound):
                assert 2 * delta == e.mu, f"{sid}: {fac!r}"


def test_oracle_matches_milnor_on_random_branches():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 6)
        import math

        cs = [Scalar(0)] * 64
        cs[n] = Scalar(1)
        g = n
        exps = sorted(rng.sample(range(n + 1, n + 12), 3))
        for e in exps:
            cs[e] = Scalar(rng.randint(1, 4))
            g = math.gcd(g, e)
        if g != 1:
            cs[n + 1] = Scalar(1)
        xs_cs = [Scalar(0)] * 64
        xs_cs[n] = Scalar(1)
        xs, ys = TS(SCALARS, 0, xs_cs), TS(SCALARS, 0, cs)
        ch = scan_chain(SCALARS, ys, n, 1)
        mu = milnor_from_pairs(ch.pairs)
        assert 2 * delta_semigroup_oracle(SCALARS, xs, ys, 60) == mu


def test_ledger_balance_is_reported_for_negative_fixture():
    # non-embeddings need not balance; the verdict records the witness instead
    v = embedding_verdict(fixture_wide_quartic())
    assert v.kind == "NotEmbedding"
    assert v.certificate is not None and v.certificate.witnesses


# ---------------------------------------------------------------------------
# the fraction-free semigroup oracle against the closure it replaced
# ---------------------------------------------------------------------------


def _reference_oracle(ring, xs, ys, bound):
    """The semigroup closure with the quotient reduction el - (el_o / have_o) have,
    element by element, as it ran before the closure became fraction-free."""
    basis = {}
    queue = [xs, ys]
    guard = 0
    while queue:
        sref = queue.pop()
        guard += 1
        if guard > 4000:
            raise BoundTooSmall("semigroup closure did not stabilize")
        el = sref
        while True:
            el = el.normalized(decide=True)
            if not el.cs:
                break
            o = el.val
            if o >= bound:
                break
            have = basis.get(o)
            if have is None:
                basis[o] = el
                queue.append(el.mul(xs).truncate(bound + 1))
                queue.append(el.mul(ys).truncate(bound + 1))
                break
            c = ring.mul(el.coeff(o), ring.inv(have.coeff(o)))
            el = ts_sub(el, ts_scale(have, c))
    orders = sorted(basis)
    if not orders:
        raise BoundTooSmall("no finite orders below the bound")
    n0 = orders[0]
    reach = [False] * (bound + 1)
    reach[0] = True
    for i in range(1, bound + 1):
        for o in orders:
            if o <= i and reach[i - o]:
                reach[i] = True
                break
    conductor = None
    run = 0
    for i in range(bound + 1):
        run = run + 1 if reach[i] else 0
        if run >= n0:
            conductor = i - n0 + 1
            break
    if conductor is None:
        raise BoundTooSmall(f"conductor not reached below {bound}")
    return sum(1 for i in range(1, conductor) if not reach[i])


def _both_oracles(ring, xs, ys, bound):
    """The delta, or the BoundTooSmall text, of the oracle and of the reference."""
    out = []
    for oracle in (delta_semigroup_oracle, _reference_oracle):
        try:
            out.append(oracle(ring, xs, ys, bound))
        except BoundTooSmall as exc:
            out.append(f"BoundTooSmall: {exc}")
    return out


def test_oracle_matches_the_reference_at_every_finite_grid_point():
    """At the grid's finite points (scale 1/4, and (w), whose conjugate point
    t^2 + t + 1 runs over a Quotient), with the criterion 8 bound and with
    bounds too small for the conductor."""
    points = 0
    for sid in default_grid()[::4] + [series_id("w")]:
        c = gen_series(sid)
        for e in ph_ledger(c).finite:
            for bound in (e.mu + e.n + 4, e.n + 1, e.mu // 2 + 1):
                for _, ring, xs, ys in explore_branches(lambda st: branch_series_at_point(st, c, e.factor, bound + 2)):
                    new, ref = _both_oracles(ring, xs, ys, bound)
                    assert new == ref, f"{sid} at {e.factor!r}, bound {bound}"
                    if bound == e.mu + e.n + 4:
                        assert 2 * new == e.mu
            points += 1
    assert points >= 10


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_oracle_matches_the_reference_on_random_series(data):
    """Sparse series over Q and Q(sqrt d) of any orders, some shorter than the
    bound, so that an element can vanish to its precision."""
    d = data.draw(st.sampled_from([1, 2, 5, -3]))
    bound = data.draw(st.integers(2, 30))

    def series():
        length = data.draw(st.integers(1, bound + 3))
        order = data.draw(st.integers(1, 6))
        cs = [Scalar(0)] * length
        for e in range(order, length):
            if e == order or data.draw(st.integers(0, 3)) == 0:
                a = QQ(data.draw(st.sampled_from([1, -1, 2, 3, -5])), data.draw(st.integers(1, 6)))
                b = QQ(data.draw(st.integers(-2, 2)), data.draw(st.integers(1, 3))) if d != 1 else 0
                cs[e] = Scalar(a, b, d)
        return TS(SCALARS, 0, cs)

    xs, ys = series(), series()
    new, ref = _both_oracles(SCALARS, xs, ys, bound)
    assert new == ref


@pytest.mark.parametrize("planted", ["leading coefficient", "after a reduction"])
def test_oracle_splits_as_the_reference_on_a_planted_zero_divisor(planted):
    """Over Q[s]/((s^2 - 2)(s^2 + 1)) the coefficient s^2 - 2 is a zero
    divisor: the oracle splits the modulus where the reference does, and each
    branch gets the reference's delta."""
    m = [Scalar(-2), Scalar(0), Scalar(-1), Scalar(0), Scalar(1)]

    def run(oracle):
        def fn(st_):
            R = st_.quotient(SCALARS, "pt", m)
            s, one, zero = R.gen(), R.one(), R.zero()
            zd = R.sub(R.mul(s, s), R.from_scalar(Scalar(2)))
            pad = [zero] * 20
            if planted == "leading coefficient":  # x = (s^2 - 2) tau^2 + tau^3, y = tau^4 + s tau^5
                xs = TS(R, 0, [zero, zero, zd, one] + pad)
                ys = TS(R, 0, [zero, zero, zero, zero, one, s] + pad)
            else:  # s y - (s + 1) x = s (s^2 - 2) tau^3 + s tau^5
                xs = TS(R, 0, [zero, zero, s, zero] + pad)
                ys = TS(R, 0, [zero, zero, R.add(s, one), zd, zero, one] + pad)
            return repr(from_dense(st_.modulus("pt", m))), oracle(R, xs, ys, 20)

        return explore_branches(fn)

    got = run(delta_semigroup_oracle)
    assert got == run(_reference_oracle)
    assert len(got) == 2


def test_the_oracle_inverts_nothing_and_builds_no_rational_over_the_scalars(monkeypatch):
    """One grid pass at scale 1/8: no ring or Scalar inverse runs inside the
    oracle, and over Q no Scalar is built there; series differences left the
    package with the quotient reduction."""
    inside, seen = [], []
    real = certify.delta_semigroup_oracle

    def oracle(ring, xs, ys, bound):
        inside.append(certify._over_scalars(ring))
        try:
            return real(ring, xs, ys, bound)
        finally:
            inside.pop()

    def spy(name, fn, scalars_only):
        def wrapper(*args, **kwargs):
            if inside and (inside[-1] or not scalars_only):
                seen.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(certify, "delta_semigroup_oracle", oracle)
    for owner, name in ((rings.ScalarField, "inv"), (Quotient, "inv"), (Scalar, "inv")):
        monkeypatch.setattr(owner, name, spy(f"{owner.__name__}.inv", getattr(owner, name), False))
    monkeypatch.setattr(Scalar, "__init__", spy("Scalar", Scalar.__init__, True))
    monkeypatch.setattr(rings, "rational_scalar", spy("rational_scalar", rings.rational_scalar, True))
    points = 0
    for sid in default_grid()[::8]:
        c = gen_series(sid)
        for e in ph_ledger(c).finite:
            assert all(2 * dl == e.mu for _, dl in oracle_delta_at_factor(c, e.factor, bound=e.mu + e.n + 4))
            points += 1
    assert points and not seen
    assert not hasattr(TS, "sub")
