"""Bivariate support for the double-point system.

The off-diagonal double-point equations of a curve (phi, psi) are formed as
D(t, t') = num(phi(t) - phi(t')) / (t - t') and the analogous E; both are
symmetric and get rewritten in u = t + t', v = t t'.  This module holds the
(t, t') -> (u, v) rewriting and a subresultant PRS in u over Q(sqrt d)[v].

A UV polynomial is a dict {u_degree: v_polynomial} with LaurentPoly values of
nonnegative support.
"""

from __future__ import annotations

from .laurent import LaurentPoly, poly_gcd, content_and_primitive
from .scalars import Scalar, ZERO

UV = dict  # {int: LaurentPoly in v}


# ---------------------------------------------------------------------------
# (t, t') machinery
# ---------------------------------------------------------------------------


def _tt_from_component(f: LaurentPoly) -> dict[tuple[int, int], Scalar]:
    """num(f(t) - f(t')) as a (t, t') polynomial dict: A(t) t'^a - A(t') t^a."""
    a = max(0, -f.bot())
    A = f.shift(a)
    out: dict[tuple[int, int], Scalar] = {}
    for e, c in A.coeffs.items():
        k = (e, a)
        out[k] = out.get(k, ZERO) + c
        k2 = (a, e)
        out[k2] = out.get(k2, ZERO) - c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _tt_div_diag(P: dict[tuple[int, int], Scalar]) -> dict[tuple[int, int], Scalar]:
    """Exact quotient of an antisymmetric (t, t') polynomial by (t - t')."""
    # view P as polynomial in t with t'-poly coefficients; synthetic division by (t - t')
    by_t: dict[int, dict[int, Scalar]] = {}
    for (i, j), c in P.items():
        by_t.setdefault(i, {})[j] = c
    if not by_t:
        return {}
    deg = max(by_t)
    out: dict[tuple[int, int], Scalar] = {}
    carry: dict[int, Scalar] = {}  # current quotient coefficient (poly in t')
    for i in range(deg, 0, -1):
        row = by_t.get(i, {})
        q: dict[int, Scalar] = dict(carry)
        for j, c in row.items():
            q[j] = q.get(j, ZERO) + c
        q = {j: c for j, c in q.items() if not c.is_zero()}
        for j, c in q.items():
            if not c.is_zero():
                out[(i - 1, j)] = c
        # remainder passes down multiplied by t'
        carry = {j + 1: c for j, c in q.items()}
    # check the division was exact: row 0 + carry must vanish
    row0 = dict(by_t.get(0, {}))
    for j, c in carry.items():
        row0[j] = row0.get(j, ZERO) + c
    assert all(c.is_zero() for c in row0.values()), "quotient by (t - t') not exact"
    return out


def _symmetrize(P: dict[tuple[int, int], Scalar]) -> UV:
    """Rewrite a symmetric (t, t') polynomial in u = t + t', v = t t'."""
    from math import comb

    work = dict(P)
    out: dict[tuple[int, int], Scalar] = {}  # (u_deg, v_deg) -> Scalar
    while work:
        a, b = max(work, key=lambda k: (k[0] + k[1], k[0]))
        if a < b:
            a, b = b, a
        c = work.get((a, b)) or work.get((b, a))
        # subtract c * v^b * u^(a-b)
        m = a - b
        for i in range(m + 1):
            k = (b + i, b + m - i)
            cc = c * Scalar.of(comb(m, i))
            cur = work.get(k, ZERO) + (-cc)
            if cur.is_zero():
                work.pop(k, None)
            else:
                work[k] = cur
        key = (m, b)
        out[key] = out.get(key, ZERO) + c
    uv: UV = {}
    for (du, dv), c in out.items():
        if c.is_zero():
            continue
        uv.setdefault(du, {})[dv] = c
    return {du: LaurentPoly(mp) for du, mp in uv.items() if mp}


def double_point_system(phi: LaurentPoly, psi: LaurentPoly) -> tuple[UV, UV]:
    """The symmetric double-point pair (D~, E~) in (u, v)."""
    D = _symmetrize(_tt_div_diag(_tt_from_component(phi)))
    E = _symmetrize(_tt_div_diag(_tt_from_component(psi)))
    return D, E


# ---------------------------------------------------------------------------
# UV polynomial arithmetic
# ---------------------------------------------------------------------------


def uv_is_zero(F: UV) -> bool:
    return not any(not p.is_zero() for p in F.values())


def uv_deg(F: UV) -> int:
    ds = [d for d, p in F.items() if not p.is_zero()]
    return max(ds) if ds else -1


def uv_lc(F: UV) -> LaurentPoly:
    return F[uv_deg(F)]


def uv_sub(F: UV, G: UV) -> UV:
    out = {d: p for d, p in F.items() if not p.is_zero()}
    for d, p in G.items():
        q = out.get(d)
        q = -p if q is None else q - p
        if q.is_zero():
            out.pop(d, None)
        else:
            out[d] = q
    return out


def uv_scale(F: UV, c: LaurentPoly) -> UV:
    return {d: p * c for d, p in F.items() if not p.is_zero()}


def uv_shift_mul(F: UV, k: int, c: LaurentPoly) -> UV:
    return {d + k: p * c for d, p in F.items() if not p.is_zero()}


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


def uv_primitive(F: UV) -> UV:
    out = {d: p for d, p in F.items() if not p.is_zero()}
    if not out:
        return out
    cont = uv_content(out)
    if not cont.is_constant():
        out = {d: p.divexact(cont) for d, p in out.items()}
    # strip the rational content as well, to tame integer growth
    merged = LaurentPoly()
    shift = 0
    for d in sorted(out):
        p = out[d]
        merged = merged + p.shift(shift - p.bot())
        shift += p.top() - p.bot() + 1
    rc, _ = content_and_primitive(merged)
    if not (rc == Scalar(1)):
        inv = rc.inv()
        out = {d: p * inv for d, p in out.items()}
    return out


def uv_prem(F: UV, G: UV) -> UV:
    """Pseudo-remainder of F by G in u: lc(G)^(dF-dG+1) F mod G."""
    dG = uv_deg(G)
    lcG = uv_lc(G)
    R = {d: p for d, p in F.items() if not p.is_zero()}
    dR = uv_deg(R)
    steps = dR - dG + 1
    while True:
        dR = uv_deg(R)
        if dR < dG or dR < 0:
            break
        lcR = R.get(dR, LaurentPoly.zero())
        R = uv_sub(uv_scale(R, lcG), uv_shift_mul(G, dR - dG, lcR))
        if uv_deg(R) == dR:  # defensive; subtraction must kill the top term
            raise AssertionError("pseudo-division failed to reduce degree")
        steps -= 1
    for _ in range(max(0, steps)):
        R = uv_scale(R, lcG)
    return R


def uv_prs(F: UV, G: UV) -> tuple[str, object]:
    """Primitive-PRS elimination of u.

    Returns ("gcd", H) when F, G share a factor of positive u-degree (H the
    primitive common part), else ("res", R, drops) where R is a v-polynomial
    vanishing at the v-coordinate of every common solution away from the
    degree-drop loci, and drops collects the leading coefficients and stripped
    contents along the chain.  roots(R) + roots(drops) is a safe superset of
    the true elimination locus; the per-fiber gcd pass filters spurious roots.
    """
    drops: list[LaurentPoly] = []
    A = {d: p for d, p in F.items() if not p.is_zero()}
    B = {d: p for d, p in G.items() if not p.is_zero()}
    for P in (A, B):
        cont = uv_content(P)
        if not cont.is_constant():
            drops.append(cont.monic())
    A, B = uv_primitive(A), uv_primitive(B)
    if uv_deg(A) < uv_deg(B):
        A, B = B, A
    for P in (A, B):
        if uv_deg(P) >= 0 and not uv_lc(P).is_constant():
            drops.append(uv_lc(P).monic())
    while True:
        if uv_is_zero(B):
            return ("gcd", A) if uv_deg(A) > 0 else ("res", LaurentPoly.zero(), drops)
        if uv_deg(B) == 0:
            return ("res", B[0], drops)
        R = uv_prem(A, B)
        if uv_deg(R) == 0:
            return ("res", R[0], drops)
        cont = uv_content(R)
        if not cont.is_constant():
            drops.append(cont.monic())
        R = uv_primitive(R)
        A, B = B, R
        if not uv_is_zero(B) and uv_deg(B) > 0 and not uv_lc(B).is_constant():
            drops.append(uv_lc(B).monic())


def uv_eval_diag(F: UV) -> LaurentPoly:
    """Substitute u = 2z, v = z^2 (the diagonal t = t' = z)."""
    out = LaurentPoly.zero()
    for d, p in F.items():
        # p(v) -> p(z^2), times (2z)^d
        pz = LaurentPoly({2 * e: c for e, c in p.coeffs.items()})
        out = out + pz.shift(d) * Scalar.of(2**d)
    return out


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


def uv_eval_ring(F: UV, ring, u_val, v_val):
    """Evaluate a UV polynomial at ring elements (u_val, v_val)."""
    out = ring.zero()
    for d, p in F.items():
        if p.is_zero():
            continue
        out = ring.add(out, ring.mul(poly_eval_ring(p, ring, v_val), ring.pow(u_val, d)))
    return out
