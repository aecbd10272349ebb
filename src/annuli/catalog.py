"""Generators for the classified embedded-annulus families (a) ... (w).

Each family is generated exactly over its minimal coefficient field (Q, or
Q(sqrt 2) / Q(sqrt 5) / Q(sqrt -3)); the recursive series share one Laurent
recursion step, family (j) solves an antisymmetry identity, and the expected
finite-singularity table is derived from the published local forms, each read
in the coordinate of smaller order as the analyzer reads every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .curves import ParametricCurve
from .laurent import LaurentPoly, NotDivisible
from .local import milnor_from_pairs
from .scalars import Scalar


class ExcludedParams(ValueError):
    """Parameter point outside the family's constraints."""


T = LaurentPoly.t
HALF = Scalar("1/2")


# ---------------------------------------------------------------------------
# shared engines
# ---------------------------------------------------------------------------


def recursion_step(P: LaurentPoly, e: int) -> LaurentPoly:
    """[P(u) - P(1)] * u^e / (u - 1); exact since u = 1 is a root of the bracket."""
    bracket = P - LaurentPoly.const(P.eval(Scalar(1)))
    num = bracket.shift(e)
    try:
        return num.divexact(T(1) - 1)
    except NotDivisible as exc:  # pragma: no cover - internal bug guard
        raise AssertionError("recursion step bracket not divisible by u-1") from exc


def solve_Z(m: int, n: int) -> LaurentPoly:
    """The unique polynomial with Z(t) - Z(1/t) = (t-1)^(2m+1) (t+1)^(2n+1) t^(-m-n-1).

    The right side is antisymmetric under t -> 1/t, so in the basis
    t^j - t^(-j) the coefficients of Z are read off from the positive part.
    """
    if not (0 <= m <= n) or (m, n) == (0, 0):
        raise ExcludedParams("solve_Z needs 0 <= m <= n and (m, n) != (0, 0)")
    rhs = ((T(1) - 1) ** (2 * m + 1) * (T(1) + 1) ** (2 * n + 1)).shift(-m - n - 1)
    # sanity: antisymmetry of the data
    assert rhs.compose_inv_t() == -rhs
    return LaurentPoly({e: c for e, c in rhs.coeffs.items() if e > 0})


def tower(curve: ParametricCurve, mode: str, t1: Scalar | None = None) -> ParametricCurve:
    """Tower transformations between annuli sharing the x-component.

    forward: (phi, psi) -> (phi, phi psi + K), K = -(phi psi)(infinity) when
    phi psi has no pole at infinity.  reverse: psi -> [psi - psi(t1)] / phi
    for the distinguished root t1 of phi.  mid: psi -> (phi + c) psi where
    phi + c is a perfect square (n = 2, |r| = 1).
    """
    phi, psi = curve.phi, curve.psi
    if mode == "forward":
        prod = phi * psi
        if prod.is_zero():
            raise ShapeMismatch("zero product")
        K = Scalar(0)
        if prod.top() <= 0:
            K = -prod[0]
        return ParametricCurve(phi, prod + LaurentPoly.const(K))
    if mode == "reverse":
        if t1 is None:
            t1 = Scalar(1)
        shifted = psi - LaurentPoly.const(psi.eval(t1))
        try:
            return ParametricCurve(phi, shifted.divexact(phi))
        except NotDivisible as exc:
            raise ShapeMismatch("psi - psi(t1) is not divisible by phi") from exc
    if mode == "mid":
        # needs phi a quadratic polynomial; phi + c completes to a square
        if phi.is_zero() or phi.bot() < 0 or phi.top() != 2:
            raise ShapeMismatch("mid tower needs a quadratic polynomial phi")
        a2, a1, a0 = phi[2], phi[1], phi[0]
        add = a1 * a1 / (4 * a2) - a0
        sq = phi + LaurentPoly.const(add)
        return ParametricCurve(phi, sq * psi)
    raise ValueError(f"unknown tower mode {mode!r}")


class ShapeMismatch(ValueError):
    """Curve does not have the shape required by the transformation."""


# ---------------------------------------------------------------------------
# family table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesId:
    letter: str
    params: tuple  # sorted (name, value) pairs

    def as_dict(self) -> dict:
        return {"series": self.letter, "params": dict(self.params)}

    def __str__(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in self.params)
        return f"({self.letter}){'[' + ps + ']' if ps else ''}"


def series_id(letter: str, **params) -> SeriesId:
    return SeriesId(letter, tuple(sorted(params.items())))


@dataclass
class ExpectedInvariants:
    smooth: bool
    points: list  # multiset entries {"mu", "mult", "pairs"}, pairs in the coordinate of smaller order
    labels: list
    place_notes: dict  # optional quantitative place expectations (verified)

    def as_dict(self) -> dict:
        return {
            "smooth": self.smooth,
            "points": self.points,
            "labels": self.labels,
            "place_notes": self.place_notes,
        }


def _intrinsic(pairs: tuple) -> list:
    """The pairs of the local form x = tau^n, y = sum tau^beta_j in the coordinate of smaller order.

    n is the product of the n_j.  A form with beta_1 > n is already read in x.
    Otherwise y has the smaller order beta_1, and by the inversion formula
    (Abhyankar, Amer. J. Math. 89, 1967) the characteristic exponents of x in
    y = sigma^beta_1 are n, left out when beta_1 divides n, then beta_j + n - beta_1.
    """
    n = prod(nj for _, nj in pairs)
    betas, d = [], n
    for m, nj in pairs:
        d //= nj
        betas.append(m * d)
    if not betas or betas[0] > n:
        return list(pairs)
    b1 = betas[0]
    exps = ([n] if n % b1 else []) + [b + n - b1 for b in betas[1:]]
    out, d = [], b1
    for e in exps:
        g = gcd(d, e)
        out.append((e // g, d // g))
        d = g
    return out


def _entry(pairs: tuple) -> dict:
    """(mu, mult, pairs) of a published local form, read by `_intrinsic`."""
    pairs = _intrinsic(pairs)
    return {"mu": milnor_from_pairs(pairs), "mult": prod(nj for _, nj in pairs), "pairs": [list(p) for p in pairs]}


def _a2k(k: int) -> dict | None:
    """A_{2k} cusp entry; None when smooth (k = 0)."""
    return _entry(((2 * k + 1, 2),)) if k >= 1 else None


PARAM_SPECS = {
    "a": ("m>=1; n!=0; gcd(m,|n|)=1; k>=0; moduli b_1..b_k = 1; "
          "proper annulus needs k>=1 or n<0"),
    "b": ("k>=1; m>=0; (k,m) not in {(1,0),(2,0),(1,1)}"),
    "c": ("k>=1; n>=2; m>=1; mn>=2"),
    "d": ("k>=1; n>=2; m>=1; mn>=3"),
    "e": ("k>=1; n>=2; m>=1; mn>=2"),
    "f": ("k>=1; n>=2; m>=1; mn>=4"),
    "g": ("k>=1"),
    "h": ("k>=1"),
    "i": ("k>=1"),
    "j": ("0<=m<=n; (m,n)!=(0,0)"),
    "k": ("k>=1"),
    "l": ("m,l>=1; n>=1; k>=0; ml-nk=1; p>=1"),
    "m": ("m,l>=1; n>=1; k>=0; ml-nk=1; p>=2"),
    "n": ("m,l>=1; n,k>=1 allowed 0? ml-nk=1"),
    "o": ("m>=1; n>=0"),
    "p": ("k>=0"),
    "q": ("m>=2; n>=0"),
    "r": ("n>=0; field Q(sqrt(-3))"),
    "s": ("n>=1; field Q(sqrt(2))"),
    "t": ("no parameters"),
    "u": ("no parameters"),
    "v": ("no parameters; field Q(sqrt(5))"),
    "w": ("no parameters"),
}


def list_series() -> list[dict]:
    return [{"series": k, "constraints": v} for k, v in sorted(PARAM_SPECS.items())]


def _req(cond: bool, msg: str):
    if not cond:
        raise ExcludedParams(msg)


def gen_series(sid: SeriesId) -> ParametricCurve:
    """Exact curve for a catalog family member; ExcludedParams otherwise."""
    L = sid.letter
    P = dict(sid.params)
    if L == "a":
        m, n, k = P["m"], P["n"], P.get("k", 0)
        _req(m >= 1 and n != 0 and k >= 0, "need m>=1, n!=0, k>=0")
        _req(gcd(m, abs(n)) == 1, "need gcd(m, n) = 1")
        _req(n not in {-j * m for j in range(1, k + 1)}, "n collides with the modulus tail")
        psi = LaurentPoly({n: Scalar(1)})
        for j in range(1, k + 1):
            psi = psi + LaurentPoly({-j * m: Scalar(1)})
        return ParametricCurve(T(m), psi)
    if L == "b":
        k, m = P["k"], P["m"]
        _req(k >= 1 and m >= 0, "need k>=1, m>=0")
        _req((k, m) not in {(1, 0), (2, 0), (1, 1)}, "(k,m) excluded")
        R = (T(-1) - HALF) ** (2 * m + 1)
        for _ in range(k):
            R = recursion_step(R, 2)
        return ParametricCurve(T(1) * (T(1) - 1), R.compose_inv_t())
    if L in "cdef":
        k, m, n = P["k"], P["m"], P["n"]
        _req(k >= 1 and n >= 2 and m >= 1, "need k>=1, n>=2, m>=1")
        mn = m * n
        lo = {"c": 2, "d": 3, "e": 2, "f": 4}[L]
        _req(mn >= lo, f"need mn >= {lo}")
        S = T(n) if L in "cd" else T(-n)
        e = mn + 1 if L in "ce" else mn
        x = T(mn) * (T(1) - 1) if L in "ce" else T(mn - 1) * (T(1) - 1)
        for _ in range(k):
            S = recursion_step(S, e)
        return ParametricCurve(x, S.compose_inv_t())
    if L in "ghi":
        k = P["k"]
        _req(k >= 1, "need k>=1")
        if L == "g":
            x, S, e = T(2) * (T(1) - 1), T(1) * 3 - T(2), 3
        elif L == "h":
            x, S, e = T(3) * (T(1) - 1), T(2) * 2 - T(3), 4
        else:
            x, S, e = T(3) * (T(1) - 1), T(2) * 2 + T(3), 4
        for _ in range(k - 1):
            S = recursion_step(S, e)
        return ParametricCurve(x, S.compose_inv_t())
    if L == "j":
        m, n = P["m"], P["n"]
        Z = solve_Z(m, n)
        return ParametricCurve(Z, T(1) + T(-1))
    if L == "k":
        k = P["k"]
        _req(k >= 1, "need k>=1")
        x = ((T(1) - 1) ** 3).shift(-2)
        y = x**k * ((T(1) - 1) * (T(1) - 4)).shift(-1)
        return ParametricCurve(x, y)
    if L in "lmn":
        m, n, k, l = P["m"], P["n"], P["k"], P["l"]
        _req(m * l - n * k == 1, "need ml - nk = 1")
        if L == "l":
            p = P.get("p", 1)
            _req(p >= 1 and m >= 1 and n >= 1 and l >= 1 and k >= 0, "bad exponents")
            _req(max(m - p * n, k - p * l) >= 1, "no pole at t = infinity")
            return ParametricCurve(
                ((T(1) - 1) ** m).shift(-p * n), ((T(1) - 1) ** k).shift(-p * l)
            )
        if L == "m":
            p = P.get("p", 2)
            _req(p >= 2 and m >= 1 and n >= 1 and l >= 1 and k >= 0, "bad exponents")
            _req(max(p * m - n, p * k - l) >= 1, "no pole at t = infinity")
            return ParametricCurve(
                ((T(1) - 1) ** (p * m)).shift(-n), ((T(1) - 1) ** (p * k)).shift(-l)
            )
        _req(m >= 1 and n >= 1 and l >= 1 and k >= 0, "bad exponents")
        _req(max(m - n, k - l) >= 1, "no pole at t = infinity")
        return ParametricCurve(
            ((T(1) - 1) ** (2 * m)).shift(-2 * n), ((T(1) - 1) ** (2 * k)).shift(-2 * l)
        )
    if L == "o":
        m, n = P["m"], P["n"]
        _req(m >= 1 and n >= 0, "need m>=1, n>=0")
        y = ((T(1) - 1) ** (4 * m)).shift(1 - 2 * m)
        x = y**n * ((T(1) - 1) ** (2 * m) * (T(1) + 1)).shift(-m)
        return ParametricCurve(x, y)
    if L == "p":
        k = P["k"]
        _req(k >= 0, "need k>=0")
        x = ((T(1) - 1) ** 4).shift(-3)
        y = x**k * ((T(1) - 1) ** 2 * (T(1) - 3)).shift(-2)
        return ParametricCurve(x, y)
    if L == "q":
        m, n = P["m"], P["n"]
        _req(m >= 2 and n >= 0, "need m>=2, n>=0")
        y = ((T(1) - 1) ** (4 * m - 2)).shift(1 - 2 * m)
        x = y**n * ((T(1) - 1) ** (2 * m - 1) * (T(1) + 1)).shift(-m)
        return ParametricCurve(x, y)
    if L == "r":
        n = P["n"]
        _req(n >= 0, "need n>=0")
        eipi3 = (Scalar(1) + Scalar.sqrt_of(-3)) * HALF  # e^{i pi/3}
        y = ((T(1) - 1) ** 6).shift(-3)
        x = y**n * ((T(1) - 1) ** 3 * (T(1) + eipi3)).shift(-2)
        return ParametricCurve(x, y)
    if L == "s":
        n = P["n"]
        _req(n >= 1, "need n>=1")
        r2 = Scalar.sqrt_of(2)
        return ParametricCurve(
            T(2 * n) * (T(2) + T(1) * r2 + 1),
            (T(2) - T(1) * r2 + 1).shift(-2 * n - 4),
        )
    if L == "t":
        return ParametricCurve(
            (T(2) + T(1) + LaurentPoly.const("2/3")) * T(4),
            (T(2) - T(1) + LaurentPoly.const("1/3")).shift(-8),
        )
    if L == "u":
        return ParametricCurve(
            ((T(1) - 1) ** 2 * (T(1) + 2)).shift(-1),
            ((T(1) - 1) ** 4 * (T(1) + HALF)).shift(-2),
        )
    if L == "v":
        s5 = Scalar.sqrt_of(5)
        return ParametricCurve(
            ((T(1) - 1) ** 2 * (T(1) + (4 + 2 * s5))).shift(-1),
            ((T(1) - 1) ** 4 * (T(1) + (Scalar(11) + 5 * s5) / Scalar(4))).shift(-2),
        )
    if L == "w":
        return ParametricCurve(
            ((T(1) - 1) ** 2 * (T(1) + 2)).shift(-1),
            ((T(1) - 1) ** 2 * (T(1) + HALF)).shift(-2),
        )
    raise ExcludedParams(f"unknown series {L!r}")


def expected_invariants(sid: SeriesId) -> ExpectedInvariants:
    """Finite singularity table per family, from the published local forms.

    Every entry pins (mu, multiplicity, characteristic pairs), invariants of
    the singularity: `_entry` reads each form in the coordinate of smaller
    order, as `local.analyze_point` reads every point.
    """
    L = sid.letter
    P = dict(sid.params)
    pts: list[dict | None] = []
    notes: dict = {}
    if L in ("a", "c", "d", "e", "f", "i", "s", "t"):
        pts = []
        if L == "t":
            # asymptotics at t -> 0 are verified, never assumed:
            # y ~ c1 x^-2 + c2 x^-3/2 + c3 x^-5/4 (sigma-exponents -8, -6, -5)
            notes["place_0_y_in_x_prefix"] = [-8, -6, -5]
    elif L == "b":
        pts = [_a2k(P["m"])]
    elif L in ("g", "h"):
        pts = [_a2k(1)]
    elif L == "j":
        pts = [_a2k(P["m"]), _a2k(P["n"])]
    elif L == "k":
        k = P["k"]
        pts = [_entry(((3 * k + 1, 3),)), _a2k(1)]
    elif L == "l":
        m, k = P["m"], P["k"]
        lo, hi = min(m, k), max(m, k)
        pts = [_entry(((hi, lo),))] if lo >= 2 else []
    elif L == "m":
        p, m, k = P.get("p", 2), P["m"], P["k"]
        if m >= 2:
            pts = [_entry(((k, m), (p * k + 1, p)))]
        elif k >= 1:
            pts = [_entry(((p * k + 1, p),))]
    elif L == "n":
        m, k = P["m"], P["k"]
        if m >= 2:
            pts = [_entry(((k, m), (2 * k + 1, 2)))]
        elif k >= 1:
            pts = [_entry(((2 * k + 1, 2),))]
    elif L == "o":
        m, n = P["m"], P["n"]
        base = 2 * m * (2 * n + 1)
        if m == 1:
            pts = [_entry(((2 * n + 1, 2), (base + 3, 2)))]
        else:
            pts = [_entry(((2 * n + 1, 2), (m * (2 * n + 1) + 1, m), (base + 3, 2)))]
    elif L == "p":
        k = P["k"]
        pts = [_entry(((2 * k + 1, 2), (4 * k + 3, 2))), _a2k(1)]
    elif L == "q":
        m, n = P["m"], P["n"]
        pts = [_entry(((2 * n + 1, 2), ((2 * m - 1) * (2 * n + 1) + 2, 2 * m - 1)))]
    elif L == "r":
        n = P["n"]
        pts = [_entry(((2 * n + 1, 2), (3 * (2 * n + 1) + 1, 3)))]
        notes["lead_invariant_match"] = True  # leading place invariants agree
    elif L == "u":
        pts = [_entry(((9, 2),))]
    elif L == "v":
        pts = [_entry(((5, 2),)), _entry(((5, 2),))]
    elif L == "w":
        pts = [_entry(((3, 2),))] * 3
    else:
        raise ExcludedParams(f"unknown series {L!r}")
    pts = [p for p in pts if p]
    labels = []
    for e in pts:
        prs = e["pairs"]
        if len(prs) == 1 and prs[0][1] == 2:
            labels.append(f"A_{e['mu']}")
        else:
            labels.append(f"mu={e['mu']}")
    return ExpectedInvariants(
        smooth=not pts, points=pts, labels=sorted(labels), place_notes=notes
    )


def match_expected(sid: SeriesId, finite: list) -> tuple[bool, str]:
    """Compare analyzed finite singularities against the family table.

    The (mu, multiplicity, characteristic pairs) multiset must match exactly.
    """
    got = sorted((e.mu, e.mult, tuple(map(tuple, e.pairs))) for e in finite for _ in range(e.orbit))
    want = sorted((e["mu"], e["mult"], tuple(map(tuple, e["pairs"]))) for e in expected_invariants(sid).points)
    if got != want:
        return False, f"(mu, mult, pairs) mismatch: got {got}, expected {want}"
    return True, "ok"


def default_grid() -> list[SeriesId]:
    """The documented verification grid: indices <= 4, exponent products <= 12."""
    out: list[SeriesId] = []
    for m, n, k in [(1, -1, 0), (1, -2, 0), (2, -1, 0), (2, 3, 1), (3, 2, 2), (2, 5, 3), (5, 2, 1), (1, 2, 2), (3, -2, 0), (4, 3, 1)]:
        out.append(series_id("a", m=m, n=n, k=k))
    for k in range(1, 5):
        for m in range(0, 3):
            if (k, m) in {(1, 0), (2, 0), (1, 1)}:
                continue
            out.append(series_id("b", k=k, m=m))
    for L in "cdef":
        lo = {"c": 2, "d": 3, "e": 2, "f": 4}[L]
        for (m, n) in [(1, 2), (1, 3), (2, 2), (1, 4), (3, 2), (2, 3)]:
            if m * n < lo or m * n > 12:
                continue
            for k in (1, 2, 3):
                if k == 3 and m * n > 6:
                    continue
                out.append(series_id(L, k=k, m=m, n=n))
    for L in "ghi":
        for k in (1, 2, 3, 4):
            out.append(series_id(L, k=k))
    for m in range(0, 3):
        for n in range(m, 4):
            if (m, n) == (0, 0):
                continue
            out.append(series_id("j", m=m, n=n))
    for k in (1, 2, 3, 4):
        out.append(series_id("k", k=k))
    for (m, n, k, l, p) in [
        (2, 1, 1, 1, 1), (3, 1, 2, 1, 1), (3, 2, 1, 1, 1), (5, 2, 2, 1, 1),
        (3, 1, 2, 1, 2), (5, 2, 2, 1, 2), (4, 3, 1, 1, 1), (5, 3, 3, 2, 1),
    ]:
        out.append(series_id("l", m=m, n=n, k=k, l=l, p=p))
    for (m, n, k, l, p) in [
        (1, 1, 1, 2, 2), (2, 1, 1, 1, 2), (1, 1, 0, 1, 2), (2, 3, 1, 2, 2),
        (1, 1, 1, 2, 3), (3, 2, 1, 1, 2),
    ]:
        out.append(series_id("m", m=m, n=n, k=k, l=l, p=p))
    for (m, n, k, l) in [(2, 1, 3, 2), (2, 1, 1, 1), (4, 3, 1, 1), (3, 2, 1, 1), (3, 1, 2, 1)]:
        out.append(series_id("n", m=m, n=n, k=k, l=l))
    for m in (1, 2):
        for n in (0, 1):
            out.append(series_id("o", m=m, n=n))
    for k in (0, 1, 2, 3):
        out.append(series_id("p", k=k))
    for m in (2, 3):
        for n in (0, 1):
            out.append(series_id("q", m=m, n=n))
    for n in (0, 1):
        out.append(series_id("r", n=n))
    for n in (1, 2, 3):
        out.append(series_id("s", n=n))
    out.append(series_id("t"))
    out.append(series_id("u"))
    out.append(series_id("v"))
    out.append(series_id("w"))
    return out
