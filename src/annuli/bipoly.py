"""Bivariate support for the double-point system.

The off-diagonal double-point equations of a curve (phi, psi) are
D(t, t') = num(phi(t) - phi(t')) / (t - t') and the analogous E, symmetric
polynomials written in u = t + t', v = t t'.  Each is built term by term in
closed form: (t^k - t'^k) / (t - t') is the complete homogeneous polynomial
h_{k-1} = sum_j (-1)^j C(k-1-j, j) u^(k-1-2j) v^j (Macdonald, Symmetric
Functions and Hall Polynomials, ch. I), so nothing is divided.  The witness
point's (f(t) + f(t'))/2 is built the same way from Waring's formula for the
power sums, p_k = t^k + t'^k = sum_j (-1)^j k/(k-j) C(k-j, j) u^(k-2j) v^j
(ibid.), and evaluated at a witness by :func:`uv_eval_u`.  This module
also holds the subresultant PRS in u over Q(sqrt d)[v] (:func:`uv_prs`), which
runs on Python integers: one common denominator is cleared per input, and a
coefficient in Z[sqrt d][v] is a pair of integer lists, computed with the
Z[sqrt d] list kernel of :mod:`annuli.rings` (`_pmul`, `_pdivexact`,
`_zz_prem`).

A UV polynomial is a dict {u_degree: v_polynomial} with LaurentPoly values of
nonnegative support.
"""

from __future__ import annotations

from itertools import chain
from math import comb

from .laurent import LaurentPoly, from_dense, poly_gcd, to_dense
from .rings import _cleared, _field_tag, _pdivexact, _pmul, _ppow, _zz_prem, _zz_scalars, int_trim
from .scalars import Scalar, ZERO

UV = dict  # {int: LaurentPoly in v}


# ---------------------------------------------------------------------------
# the double-point system in closed form
# ---------------------------------------------------------------------------


def _difference_quotient(f: LaurentPoly) -> UV:
    """num(f(t) - f(t')) / (t - t') in u = t + t', v = t t'.

    With f = sum c_e t^e and a = max(0, -bot f), (t t')^a (t^e - t'^e) / (t - t')
    is v^a h_{e-1} for e > 0 and -v^(a+e) h_{-e-1} for e < 0, where
    h_m = (t^(m+1) - t'^(m+1)) / (t - t') = sum_j (-1)^j C(m-j, j) u^(m-2j) v^j
    is the complete homogeneous polynomial of degree m in t, t'.
    """
    a = max(0, -f.bot())
    rows: dict[int, dict[int, Scalar]] = {}
    for e, c in f.coeffs.items():
        if e == 0:
            continue
        m, va, c = (e - 1, a, c) if e > 0 else (-e - 1, a + e, -c)
        for j in range(m // 2 + 1):
            row = rows.setdefault(m - 2 * j, {})
            row[va + j] = row.get(va + j, ZERO) + c * (-1) ** j * comb(m - j, j)
    out = {du: LaurentPoly(row) for du, row in rows.items()}
    return {du: p for du, p in out.items() if not p.is_zero()}


def double_point_system(phi: LaurentPoly, psi: LaurentPoly) -> tuple[UV, UV]:
    """The symmetric double-point pair (D~, E~) in (u, v)."""
    return _difference_quotient(phi), _difference_quotient(psi)


def symmetric_mean(f: LaurentPoly) -> tuple[UV, int]:
    """(S, a) with S = v^a (f(t) + f(t')) / 2 in u = t + t', v = t t', and
    a = max(0, -bot f).

    With f = sum c_e t^e, v^a (t^e + t'^e) is v^a p_e for e >= 0 and
    v^(a+e) p_(-e) for e < 0, where p_0 = 2 and, by Waring's formula,
    p_k = sum_j (-1)^j k/(k-j) C(k-j, j) u^(k-2j) v^j for k > 0; each weight
    k/(k-j) C(k-j, j) is an integer.  The sums run on the Z[sqrt d]
    numerators of f over its common denominator, and each coefficient of S
    is converted once.
    """
    if f.is_zero():
        return {}, 0
    a = max(0, -f.bot())
    es = list(f.coeffs)
    d = _field_tag(f.coeffs.values())
    (A, B), den = _cleared([f.coeffs[e] for e in es], d)
    width = a + max(f.top(), -f.bot()) // 2 + 1
    rows: dict[int, tuple] = {}
    for i, e in enumerate(es):
        k, va = abs(e), a + min(e, 0)
        terms = [(k - 2 * j, va + j, (-1) ** j * k * comb(k - j, j) // (k - j)) for j in range(k // 2 + 1)] if k else [(0, va, 2)]
        for du, dv, w in terms:
            ra, rb = rows.setdefault(du, ([0] * width, B and [0] * width))
            ra[dv] += w * A[i]
            if rb:
                rb[dv] += w * B[i]
    out = {du: from_dense(_zz_scalars(P, 2 * den, d)) for du, P in rows.items()}
    return {du: p for du, p in out.items() if not p.is_zero()}, a


# ---------------------------------------------------------------------------
# UV polynomial arithmetic
# ---------------------------------------------------------------------------


def uv_deg(F: UV) -> int:
    ds = [d for d, p in F.items() if not p.is_zero()]
    return max(ds) if ds else -1


def uv_content(F: UV) -> LaurentPoly:
    """Monic polynomial content (gcd of v-coefficients), times nothing rational."""
    g = LaurentPoly.zero()
    for p in F.values():
        if p.is_zero():
            continue
        g = p.monic() if g.is_zero() else poly_gcd(g, p)
        if g.is_constant():
            return LaurentPoly.const(1)
    return g if not g.is_zero() else LaurentPoly.const(1)


# ---------------------------------------------------------------------------
# the subresultant PRS in u, on Python integers
# ---------------------------------------------------------------------------
#
# A v-polynomial over Z[sqrt d] is a pair (a, b) of integer lists (low -> high,
# each without trailing zeros) standing for a + b sqrt(d); over Q, b is None.
# A u-polynomial is a list of such pairs, indexed by u-degree.  Their
# arithmetic is the Z[sqrt d] list kernel of :mod:`annuli.rings`.


def uv_prs(F: UV, G: UV) -> list[UV]:
    """The subresultant PRS of F and G in u (Collins 1967; Brown & Traub 1971).

    Returns [A, B, S_{n1-1}, ...]: A is whichever of F, G has the larger
    u-degree (F on a tie), B the other, n1 = deg B, and each later element is
    the subresultant S_{n-1} of A and B, n the u-degree of the element before
    it, up to a nonzero rational factor.  The list stops after an element of
    u-degree 0 or before a zero one, so its last element is, up to a factor in
    Q(sqrt d)[v], the gcd of F and G in u over Q(sqrt d)(v); when that gcd is
    constant, every root of Res_u(F, G) is a root of the last element.  The
    chain specializes: at any v0 where lc(B) does not vanish, each element
    after B is a nonzero multiple of the Euclidean remainder it stands for,
    as long as the elements before it keep their degree and a nonzero leading
    coefficient at v0.  Both inputs must be nonzero.
    """
    A = {k: p for k, p in F.items() if not p.is_zero()}
    B = {k: p for k, p in G.items() if not p.is_zero()}
    if uv_deg(A) < uv_deg(B):
        A, B = B, A
    d = 1
    for p in chain(A.values(), B.values()):
        if p.field_tag() != 1:
            d = p.field_tag()
    a, b = _uv_to_zz(A, d), _uv_to_zz(B, d)
    out = [A, B]
    g = h = ([1], None if d == 1 else [])
    while len(b) > 1:
        delta = len(a) - len(b)
        r = _zz_prem(a, b, d)
        if not r:
            break
        a, b = b, [_pdivexact(c, _pmul(g, _ppow(h, delta, d), d), d) for c in r]
        out.append(_uv_from_zz(b, d))
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _pdivexact(_ppow(g, delta, d), _ppow(h, delta - 1, d), d)
    return out


def _uv_to_zz(F: UV, d: int) -> list:
    """F over Q(sqrt d) over one common denominator, as a list of integer pairs."""
    zero = LaurentPoly.zero()
    rows = [to_dense(F.get(k, zero)) for k in range(uv_deg(F) + 1)]
    (A, B), _ = _cleared(list(chain(*rows)), d)
    out, i = [], 0
    for row in rows:
        j = i + len(row)
        out.append((int_trim(A[i:j]), B and int_trim(B[i:j])))
        i = j
    return out


def _uv_from_zz(f: list, d: int) -> UV:
    """The UV polynomial of a list of integer pairs."""
    out: UV = {}
    for k, x in enumerate(f):
        p = LaurentPoly(dict(enumerate(_zz_scalars(x, 1, d))))
        if not p.is_zero():
            out[k] = p
    return out


def uv_eval_u(F: UV, ring, u_val):
    """F at u = u_val and v = the generator of the level "wv" K =
    Q(sqrt d)[v]/(m), in `ring`: K itself, or a level "wu" over K, whose
    generator u_val must then be.

    At a "wu" level the value is the class of the u-polynomial whose
    coefficients are the values in K of F's v-coefficients: one `from_dense`
    and no Horner loop.  In K it is Horner's rule in u, the ring's
    :meth:`horner` kernel, which runs on integers over the scalars.
    """
    zero = LaurentPoly.zero()
    rows = [to_dense(F.get(k, zero)) for k in range(uv_deg(F) + 1)]
    if ring.key == "wu":
        K = ring.base
        return ring.from_dense([K.from_dense(r) for r in rows])
    return ring.horner(rows, u_val)
