import pytest

from annuli.catalog import (
    ExcludedParams,
    ShapeMismatch,
    default_grid,
    expected_invariants,
    gen_series,
    list_series,
    match_expected,
    recursion_step,
    series_id,
    solve_Z,
    tower,
    _intrinsic,
)
from annuli.certify import embedding_verdict
from annuli.curves import ParametricCurve
from annuli.laurent import LaurentPoly
from annuli.local import milnor_from_pairs, singular_parameters
from annuli.scalars import Scalar

t = LaurentPoly.t
HALF = Scalar("1/2")


def test_recursion_step_examples():
    P = LaurentPoly({-1: 1, 0: -HALF})  # 1/u - 1/2
    assert recursion_step(P, 2) == LaurentPoly({1: -1})  # -> -u
    n, m = 3, 2
    out = recursion_step(t(n), m * n + 1)
    geom = LaurentPoly({m * n + 1 + j: 1 for j in range(n)})
    assert out == geom  # u^{mn+1} (1 + u + ... + u^{n-1})
    out2 = recursion_step(t(-n), m * n + 1)
    geom2 = LaurentPoly({m * n + 1 - n + j: -1 for j in range(n)})
    assert out2 == geom2  # -u^{mn+1-n} (1 + ... + u^{n-1})


def test_recursion_exact_divisibility_across_grid():
    # every recursion step divides exactly (asserted inside recursion_step)
    for L in "bcdefghi":
        for sid in [s for s in default_grid() if s.letter == L][:4]:
            gen_series(sid)


def test_solve_Z_examples():
    assert solve_Z(0, 1) == LaurentPoly({2: 1, 1: 2})
    assert solve_Z(1, 1) == LaurentPoly({3: 1, 1: -3})
    with pytest.raises(ExcludedParams):
        solve_Z(0, 0)
    with pytest.raises(ExcludedParams):
        solve_Z(2, 1)


def test_solve_Z_antisymmetry_identity():
    for m in range(0, 3):
        for n in range(m, 4):
            if (m, n) == (0, 0):
                continue
            Z = solve_Z(m, n)
            rhs = ((t(1) - 1) ** (2 * m + 1) * (t(1) + 1) ** (2 * n + 1)).shift(-m - n - 1)
            assert Z - Z.compose_inv_t() == rhs
            assert Z.top() == m + n + 1 and Z[0].is_zero()


def test_gen_series_examples():
    w = gen_series(series_id("w"))
    assert w.phi == ((t(1) - 1) ** 2 * (t(1) + 2)).shift(-1)
    assert w.psi == ((t(1) - 1) ** 2 * (t(1) + HALF)).shift(-2)
    l1 = gen_series(series_id("l", m=2, n=1, k=1, l=1, p=1))
    assert l1.phi == ((t(1) - 1) ** 2).shift(-1)
    assert l1.psi == (t(1) - 1).shift(-1)
    with pytest.raises(ExcludedParams):
        gen_series(series_id("b", k=1, m=0))
    with pytest.raises(ExcludedParams):
        gen_series(series_id("b", k=2, m=0))
    with pytest.raises(ExcludedParams):
        gen_series(series_id("b", k=1, m=1))
    j11 = gen_series(series_id("j", m=1, n=1))
    assert j11.phi == LaurentPoly({3: 1, 1: -3})
    assert j11.psi == t(1) + t(-1)


def test_tower_reverse_example():
    # reverse on (t(t-1), t - 1/2) with t1 = 1 gives psi = 1/t
    base = ParametricCurve(t(1) * (t(1) - 1), t(1) - HALF)
    out = tower(base, "reverse")
    assert out.psi == t(-1)


def test_tower_mid_example():
    base = ParametricCurve(t(1) * (t(1) - 1), t(1) - HALF)
    out = tower(base, "mid")
    assert out.psi == (t(1) - HALF) ** 3


def test_tower_forward_reverse_identity():
    # forward after reverse restores psi when psi has no pole at infinity
    for sid in (series_id("b", k=3, m=0), series_id("c", k=2, m=1, n=2), series_id("g", k=2)):
        c = gen_series(sid)
        rev = tower(c, "reverse")
        back = tower(rev, "forward")
        assert back.psi == c.psi and back.phi == c.phi, str(sid)


def test_tower_forward_example():
    # forward on (t(t-1), 1/t): phi*psi = t - 1 has a pole at infinity, so
    # K = 0 and the result is just (phi, t - 1)
    base = ParametricCurve(t(1) * (t(1) - 1), t(-1))
    out = tower(base, "forward")
    assert out.psi == t(1) - 1


def test_tower_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        tower(ParametricCurve(t(2) + 1, t(3)), "reverse", t1=Scalar(5))


def test_tower_preserves_embedding():
    count = 0
    for sid in default_grid():
        if sid.letter not in "bcdefghi" or count >= 20:
            continue
        c = gen_series(sid)
        try:
            rev = tower(c, "reverse")
            rev.check_admissible()
        except Exception:
            continue
        count += 1
        assert embedding_verdict(rev, with_ledger=False).kind == "Embedding", str(sid)
    assert count >= 12


def test_series_b_dual_path():
    # the closed recursion and the tower construction agree up to the sign
    # normalization y -> -y per reverse step
    for k, m in ((1, 2), (3, 0), (2, 1), (4, 1)):
        if (k, m) in {(1, 0), (2, 0), (1, 1)}:
            continue
        via_recursion = gen_series(series_id("b", k=k, m=m))
        psi0 = t(1) - HALF
        cur = ParametricCurve(t(1) * (t(1) - 1), psi0)
        for _ in range(m):
            cur = tower(cur, "mid")
        for _ in range(k):
            cur = tower(cur, "reverse")
        assert cur.psi == via_recursion.psi or cur.psi == -via_recursion.psi, (k, m)


def test_expected_invariants_examples():
    u = expected_invariants(series_id("u"))
    assert u.points == [{"mu": 8, "mult": 2, "pairs": [[9, 2]]}]
    v = expected_invariants(series_id("v"))
    assert [e["mu"] for e in v.points] == [4, 4]
    b = expected_invariants(series_id("b", k=2, m=2))
    assert b.points[0]["mu"] == 4 and b.labels == ["A_4"]
    assert expected_invariants(series_id("s", n=2)).smooth


def test_match_expected_against_analysis():
    for sid in (series_id("u"), series_id("v"), series_id("w"), series_id("k", k=2)):
        c = gen_series(sid)
        ok, msg = match_expected(sid, singular_parameters(c))
        assert ok, f"{sid}: {msg}"


# (member, its published local form): the first exponent lies below n, so the
# analyzer, which expands in the coordinate of smaller order, reads another form
PUBLISHED_BELOW_N = [
    (series_id("m", m=2, n=1, k=1, l=1, p=2), ((1, 2), (3, 2))),
    (series_id("m", m=3, n=2, k=1, l=1, p=2), ((1, 3), (3, 2))),
    (series_id("n", m=2, n=1, k=1, l=1), ((1, 2), (3, 2))),
    (series_id("n", m=4, n=3, k=1, l=1), ((1, 4), (3, 2))),
    (series_id("o", m=1, n=0), ((1, 2), (5, 2))),
    (series_id("o", m=2, n=0), ((1, 2), (3, 2), (7, 2))),
    (series_id("p", k=0), ((1, 2), (3, 2))),
    (series_id("q", m=2, n=0), ((1, 2), (5, 3))),
    (series_id("q", m=3, n=0), ((1, 2), (7, 5))),
    (series_id("r", n=0), ((1, 2), (4, 3))),
]


def test_intrinsic_pairs_of_published_forms_are_the_analyzers():
    """The inversion formula takes each published form to the pairs the
    analyzer reads at the point, with the same Milnor number; a form whose
    first exponent exceeds n is left as it is."""
    for sid, form in PUBLISHED_BELOW_N:
        pairs = _intrinsic(form)
        mu = milnor_from_pairs(list(form))
        assert milnor_from_pairs(pairs) == mu, sid
        [pa] = [e for e in singular_parameters(gen_series(sid)) if e.mu == mu]
        assert pairs == pa.pairs and pa.n == pa.mult, sid
    assert _intrinsic(((1, 2), (3, 2))) == [(5, 2)]
    for form in (((3, 2),), ((7, 3),), ((3, 2), (7, 2)), ((3, 2), (7, 2), (15, 2))):
        assert _intrinsic(form) == list(form)
    assert _intrinsic(()) == []


def test_list_series_covers_all_letters():
    letters = {row["series"] for row in list_series()}
    assert letters == set("abcdefghijklmnopqrstuvw")


def test_grid_size_and_exclusions():
    grid = default_grid()
    assert 140 <= len(grid) <= 160
    # excluded points raise ExcludedParams, they are not silently skipped
    with pytest.raises(ExcludedParams):
        gen_series(series_id("a", m=2, n=4, k=1))  # gcd(m, n) != 1


def test_verify_entry_keeps_the_traceback_tail_of_an_error(monkeypatch):
    from annuli import reports

    def broken_verdict(curve):
        raise RuntimeError("injected")

    monkeypatch.setattr(reports, "embedding_verdict", broken_verdict)
    out = reports.verify_catalog_entry(series_id("u"))
    assert out["status"] == "error"
    assert out["reason"] == "RuntimeError: injected"
    tail = out["traceback"]
    assert tail[0].startswith("reports.py:") and tail[0].endswith(" in verify_catalog_entry")
    assert tail[-1].startswith("test_catalog.py:") and tail[-1].endswith(" in broken_verdict")
