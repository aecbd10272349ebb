import random

import pytest

from annuli.bipoly import double_point_system, uv_eval_diag
from annuli.catalog import gen_series, series_id
from annuli.certify import (
    BoundTooSmall,
    delta_max,
    delta_semigroup_oracle,
    embedding_verdict,
    estimates_audit,
    injectivity_certificate,
    oracle_delta_at_factor,
    ph_ledger,
    regularity_check,
    verify_witness,
)
from annuli.curves import ParametricCurve, apply_automorphism, classify_type, exponent_profile
from annuli.laurent import LaurentPoly, poly_gcd, squarefree_part
from annuli.local import milnor_from_pairs, scan_chain, singular_parameters
from annuli.rings import SCALARS
from annuli.scalars import Scalar
from annuli.series import TS

t = LaurentPoly.t


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
