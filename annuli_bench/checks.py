"""Checks of the benchmark's outputs, computed apart from the program.

Nothing here imports ``annuli``.  The checks read plain records (integers and
the exact strings of the reports) and recompute what they can with sympy and
mpmath, or test identities the method must satisfy:

* the double-point balance ``2 delta_inf + sum mu * orbit = 2 delta_max``,
  with ``2 delta_max`` recomputed from the exponents, and the Euler identity
  ``i_0 + i_inf + sum mu * orbit = 2``;
* ``2 delta = mu`` for every branch the semigroup oracle reports;
* the product of the ledger's finite factors equals the squarefree part of
  ``gcd(phi'-numerator, psi'-numerator)`` over Q(sqrt d), stripped of powers
  of t (sympy);
* every self-intersection witness: for some root v0 of its ``v_factor``, a
  pair t != t' in C* with t t' = v0, phi(t) = phi(t'), psi(t) = psi(t'),
  found numerically to many digits (mpmath);
* the (mu, multiplicity) multiset of a catalog member matches the table of
  expected invariants.

Each check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath
import numpy
import sympy as sp
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

T = sp.Symbol("t")
_TRANSFORMS = standard_transformations + (convert_xor,)
DIGITS = 40  # working precision of the numerical witness search
MATCH_DIGITS = 15  # relative agreement required of phi(t) = phi(t'), psi(t) = psi(t')
NEWTON_STEPS = 100


@lru_cache(maxsize=None)
def field(d: int):
    """(sympy domain for Q(sqrt d), its element sqrt d)."""
    if d == 1:
        return sp.QQ, None
    K = sp.QQ.algebraic_field(sp.sqrt(d))
    return K, K.from_sympy(sp.sqrt(d))


def _coef(K, root, a: str, b: str):
    c = K.convert(sp.Rational(a))
    if Fraction(b) != 0:
        c = c + K.convert(sp.Rational(b)) * root
    return c


def derivative_numerator(component: list, d: int) -> sp.Poly:
    """t^k * f'(t) as a polynomial with nonzero constant term, over Q(sqrt d)."""
    K, root = field(d)
    deriv = {e - 1: (e, a, b) for e, a, b in component if e != 0}
    lo, hi = min(deriv), max(deriv)
    cs = [K.zero] * (hi - lo + 1)
    for e, (k, a, b) in deriv.items():
        cs[e - lo] = _coef(K, root, a, b) * K.convert(k)
    return sp.Poly.from_list(list(reversed(cs)), T, domain=K)


def parse_poly(text: str, d: int) -> sp.Poly:
    """A polynomial printed by the program, e.g. 't^2 + (1/2+1/2*sqrt(-3))*t'."""
    expr = parse_expr(text, transformations=_TRANSFORMS, local_dict={"t": T})
    return sp.Poly(expr, T, domain=field(d)[0])


def _strip_t(p: sp.Poly) -> sp.Poly:
    while not p.is_zero and p.degree() > 0 and p.eval(0) == 0:
        p = p.exquo(sp.Poly(T, T, domain=p.domain))
    return p


def two_delta_max(curve: dict) -> int:
    """2 delta_max of the exponent profile, recomputed from the curve's terms."""
    x, y = curve["x"], curve["y"]
    p, q, r, s = x[-1][0], y[-1][0], -x[0][0], -y[0][0]
    return (p + r - 1) * (q + s - 1) - (gcd(p, q) + gcd(r, s) - 1) + abs(p * s - r * q)


def ledger_identities(curve: dict, two_dmax: int, two_dinf: int, index_sum: int, finite: list) -> list:
    errs = []
    fin = sum(e["mu"] * e["orbit"] for e in finite)
    want = two_delta_max(curve)
    if two_dmax != want:
        errs.append(f"2delta_max is {two_dmax}, recomputed {want}")
    if two_dinf + fin != want:
        errs.append(f"balance: {two_dinf} + {fin} != {want}")
    if index_sum + fin != 2:
        errs.append(f"Euler: {index_sum} + {fin} != 2")
    for e in finite:
        if e["orbit"] != parse_poly(e["factor"], curve["field"]["d"]).degree():
            errs.append(f"orbit {e['orbit']} is not the degree of {e['factor']}")
    return errs


def singular_locus(curve: dict, factors: list) -> list:
    """The finite factors multiply to sqf(gcd(phi', psi')) over C*, up to a unit."""
    d = curve["field"]["d"]
    a = derivative_numerator(curve["x"], d)
    b = derivative_numerator(curve["y"], d)
    g = _strip_t(a.gcd(b))
    want = g.sqf_part().monic() if g.degree() > 0 else sp.Poly(1, T, domain=g.domain)
    got = sp.Poly(1, T, domain=g.domain)
    for f in factors:
        got = got * parse_poly(f, d)
    got = got.monic()
    if got != want:
        return [f"singular factors multiply to {got.as_expr()}, sympy finds {want.as_expr()}"]
    return []


def oracle_agrees(finite: list) -> list:
    errs = []
    for e in finite:
        if not e["oracle"]:
            errs.append(f"oracle gave no branch at {e['factor']}")
        for fac, delta in e["oracle"]:
            if 2 * delta != e["mu"]:
                errs.append(f"2*delta_oracle = {2 * delta} != mu = {e['mu']} at {fac}")
    return errs


def expected_invariants(finite: list, expected: list) -> list:
    got = sorted([e["mu"], e["mult"]] for e in finite for _ in range(e["orbit"]))
    return [] if got == sorted(expected) else [f"(mu, mult) {got}, table says {sorted(expected)}"]


# ---------------------------------------------------------------------------
# self-intersection witnesses
# ---------------------------------------------------------------------------


def _mp_terms(component: list, d: int) -> dict:
    s = mpmath.sqrt(d)
    return {e: mpmath.mpf(Fraction(a).numerator) / Fraction(a).denominator
            + s * mpmath.mpf(Fraction(b).numerator) / Fraction(b).denominator
            for e, a, b in component}


def _ev(terms: dict, t):
    return sum(c * t**e for e, c in terms.items())


def _symmetric_difference(terms: dict, v0) -> list:
    """Coefficients, highest first, of t^m (f(t) - f(v0/t)) with m = max |e|."""
    m = max(abs(e) for e in terms)
    cs = [mpmath.mpc(0)] * (2 * m + 1)
    for e, c in terms.items():
        cs[e + m] += c
        cs[m - e] -= c * v0**e
    return list(reversed(cs))


def _newton(cs: list, t):
    """Polish an approximate root of the polynomial cs (highest first)."""
    n = len(cs) - 1
    dcs = [c * (n - i) for i, c in enumerate(cs[:-1])]
    eps = mpmath.mpf(10) ** -DIGITS
    for _ in range(NEWTON_STEPS):
        df = mpmath.polyval(dcs, t)
        if df == 0:
            break
        step = mpmath.polyval(cs, t) / df
        t -= step
        if abs(step) <= eps * (1 + abs(t)):
            break
    return t


def _approx_roots(cs: list) -> list:
    """Double-precision roots of cs (highest first), as numpy eigenvalues."""
    return [complex(r) for r in numpy.roots([complex(c) for c in cs])]


def _close(f: dict, t1, t2, rel) -> bool:
    return abs(_ev(f, t1) - _ev(f, t2)) < rel * (1 + abs(_ev(f, t1)))


def double_point(curve: dict, v_factor: str):
    """(t, t') with t t' a root of v_factor, t != t', equal images; None if none.

    Candidates are found in double precision and the promising ones polished
    by Newton's method to DIGITS digits before the final comparison.
    """
    d = curve["field"]["d"]
    V = parse_poly(v_factor, d)
    if V.degree() < 1:
        return None
    with mpmath.workdps(DIGITS):
        phi, psi = _mp_terms(curve["x"], d), _mp_terms(curve["y"], d)
        phi_c = {e: complex(c) for e, c in phi.items()}
        psi_c = {e: complex(c) for e, c in psi.items()}
        tol = mpmath.mpf(10) ** -MATCH_DIGITS
        v_cs = [_mp_number(c) for c in V.all_coeffs()]
        for v_approx in _approx_roots(v_cs):
            v0 = _newton(v_cs, mpmath.mpc(v_approx))
            if abs(v0) < tol:
                continue
            # candidates t solve f(t) = f(v0/t) for a component f that is not
            # itself symmetric under t -> v0/t; both components are tried,
            # because a multiple root of one polishes to fewer digits
            vc = complex(v0)
            for f in (phi, psi):
                cs = _symmetric_difference(f, v0)
                while cs and abs(cs[0]) < tol:
                    cs.pop(0)
                if len(cs) < 2:
                    continue
                for r in _approx_roots(cs):
                    if abs(r) < 1e-12 or abs(r - vc / r) < 1e-6 * (1 + abs(r)):
                        continue
                    if not (_close(phi_c, r, vc / r, 1e-4) and _close(psi_c, r, vc / r, 1e-4)):
                        continue
                    t1 = _newton(cs, mpmath.mpc(r))
                    t2 = v0 / t1
                    if abs(t1 - t2) < tol * (1 + abs(t1)):
                        continue
                    if _close(phi, t1, t2, tol) and _close(psi, t1, t2, tol):
                        return t1, t2
    return None


def _mp_number(x):
    return mpmath.mpc(str(sp.re(x).evalf(DIGITS + 5)), str(sp.im(x).evalf(DIGITS + 5)))


def witnesses(curve: dict, witness_list: list) -> list:
    if not witness_list:
        return ["self-intersection without a witness"]
    errs = []
    for w in witness_list:
        if double_point(curve, w["v_factor"]) is None:
            errs.append(f"no off-diagonal double point with t t' a root of {w['v_factor']}")
    return errs


# ---------------------------------------------------------------------------
# per-workload record checks
# ---------------------------------------------------------------------------


def check_grid(rec: dict) -> list:
    errs = [f"{k} is false" for k, v in rec["flags"].items() if not v]
    errs += ledger_identities(rec["curve"], rec["two_delta_max"], rec["two_delta_inf"], rec["index_sum"], rec["finite"])
    errs += oracle_agrees(rec["finite"])
    errs += singular_locus(rec["curve"], [e["factor"] for e in rec["finite"]])
    errs += expected_invariants(rec["finite"], rec["expected"])
    return errs


def check_analysis(rec: dict, must_refute: bool = False) -> list:
    """An `annuli analyze` report: witnesses for a refutation, a ledger for an embedding."""
    rep, code = json.loads(rec["report"]), rec["code"]
    curve = rep["curve"]
    verdict = rep["verdict"]
    if verdict["verdict"] == "Embedding":
        if code != 0:
            return [f"exit code {code} for an embedding"]
        if must_refute:
            return ["certified as an embedding, but the curve self-intersects"]
        led = rep.get("ledger", {})
        if "finite" not in led:
            return [f"embedding without a ledger: {led}"]
        tan = led.get("tangency")
        if tan is not None:
            index_sum = tan["index_inf"] + tan["index_0"]
        else:
            index_sum = led["place_inf"]["index"] + led["place_0"]["index"]
        finite = [{"factor": e["factor"], "orbit": e["orbit"], "mu": e["mu"]} for e in led["finite"]]
        errs = ledger_identities(curve, led["two_delta_max"], led["two_delta_inf"], index_sum, finite)
        return errs + singular_locus(curve, [e["factor"] for e in finite])
    if code != 3:
        return [f"exit code {code} for a non-embedding"]
    if verdict.get("reason") != "SelfIntersection":
        return [f"refuted for {verdict.get('reason')!r}, not a self-intersection"]
    return witnesses(curve, verdict["certificate"]["witnesses"])
