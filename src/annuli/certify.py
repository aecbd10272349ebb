"""Global certification: delta_max, balance ledger, exact injectivity, audits.

Injectivity is decided symbolically from the symmetric double-point system
D~(u, v) = E~(u, v) = 0 (u = t + t', v = t t'): the subresultant chain of D~
and E~ in u eliminates u, and the squarefree, v-free part M of its last
element vanishes at every v-coordinate of a double point.  Over each branch
of Q[v]/(M) the fiber gcd in u is read off the same chain: every
zero-divisor decision of the Euclidean gcd over Q[v]/(M) is one
:meth:`~annuli.rings.Quotient.decide_zero` of a chain coefficient (dynamic
evaluation, split on a zero divisor).  The squarefree part of the fiber gcd
is then tested against the diagonal u^2 = 4v.  The system is built from the
input curve as it is given, so every witness is a pair (u, v) of the input's
own parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bipoly import (
    UV,
    double_point_system,
    symmetric_mean,
    uv_content,
    uv_deg,
    uv_eval_u,
    uv_prs,
)
from .curves import (
    Classification,
    ExponentProfile,
    ParametricCurve,
    affine_dependence,
    detect_nonprimitive,
    dim_curv,
    exponent_profile,
)
from .laurent import LaurentPoly, from_dense, poly_gcd, squarefree_part, to_dense
from .local import (
    ImproperParametrization,
    PlaceAnalysis,
    PlaceNotAtInfinity,
    PointAnalysis,
    TangencyData,
    analyze_place,
    branch_series_at_point,
    delta_max,
    derivative_numerator,
    is_tangent,
    singular_parameters,
    tangency_delta,
)
from .rings import BranchState, LinearQuotient, SCALARS, dense_divexact, explore_branches, quotient_gcd
from .rings import _cleared, _field_tag, _zz_mul, _zz_scale
from .scalars import Scalar
from .series import TS


class DegenerateCurve(ValueError):
    """The components are affinely dependent: a multiply covered line."""


class LedgerMismatch(AssertionError):
    """Injectivity and Poincare-Hopf balance disagree: internal inconsistency."""


class BoundTooSmall(ArithmeticError):
    """Semigroup oracle bound below the conductor."""


# ---------------------------------------------------------------------------
# delta_max and the ledger
# ---------------------------------------------------------------------------


@dataclass
class BalanceLedger:
    profile: ExponentProfile
    two_delta_max: int
    finite: list  # PointAnalysis entries
    place_inf: PlaceAnalysis | None
    place_0: PlaceAnalysis | None
    tangency: TangencyData | None
    two_delta_inf: int
    balanced: bool
    euler_ok: bool
    swapped: bool  # q + s < p + r: the zero-count audit row reads psi' instead of phi'
    E: int
    reserve: int

    def finite_sum(self) -> int:
        return sum(e.mu * e.orbit for e in self.finite)

    def as_dict(self) -> dict:
        out = {
            "two_delta_max": self.two_delta_max,
            "finite": [
                {
                    "factor": repr(e.factor),
                    "orbit": e.orbit,
                    "n": e.n,
                    "char_pairs": [list(p) for p in e.pairs],
                    "mu": e.mu,
                    "two_delta": e.mu,
                    "nu": e.nu,
                    "ext_nu": e.extnu,
                    "label": e.a_label(),
                }
                for e in self.finite
            ],
            "two_delta_inf": self.two_delta_inf,
            "balanced": self.balanced,
            "euler_check": self.euler_ok,
            "E": self.E,
            "reserve": self.reserve,
            "orientation_swapped": self.swapped,
        }
        if self.tangency is not None:
            out["tangency"] = self.tangency.as_dict()
        if self.place_inf is not None:
            out["place_inf"] = self.place_inf.as_dict()
        if self.place_0 is not None:
            out["place_0"] = self.place_0.as_dict()
        return out


def ph_ledger(curve: ParametricCurve) -> BalanceLedger:
    """Assemble the Poincare-Hopf balance ledger for a primitive curve."""
    if affine_dependence(curve) is not None:
        raise DegenerateCurve("components are affinely dependent")
    prof = exponent_profile(curve)
    d2max = delta_max(prof)
    finite = singular_parameters(curve)
    tangent = is_tangent(prof)
    pl_inf = analyze_place(curve, "inf")
    pl_0 = analyze_place(curve, "0")
    tan = None
    if tangent:
        tan = tangency_delta(curve, d2max, pl_inf, pl_0)
        d2inf = tan.delta2_inf
        idx_sum = tan.index_inf + tan.index_0
    else:
        d2inf = pl_inf.delta2 + pl_0.delta2
        idx_sum = pl_inf.index + pl_0.index
    fin_sum = sum(e.mu * e.orbit for e in finite)
    balanced = d2inf + fin_sum == d2max
    euler_ok = idx_sum + fin_sum == 2
    # the proof-strategy quantity E and the reserve (diagnostics only)
    nu_inf = pl_inf.nu
    nu_0 = pl_0.nu
    point_sum = sum(e.n * e.nu * e.orbit for e in finite)
    if tangent:
        E = (prof.p1 + prof.r1) * (nu_inf + nu_0 + tan.nu_tan + 1) + point_sum
    else:
        E = prof.p1 * nu_inf + prof.r1 * nu_0 + point_sum
    return BalanceLedger(
        profile=prof,
        two_delta_max=d2max,
        finite=finite,
        place_inf=pl_inf,
        place_0=pl_0,
        tangency=tan,
        two_delta_inf=d2inf,
        balanced=balanced,
        euler_ok=euler_ok,
        swapped=prof.q + prof.s < prof.p + prof.r,
        E=E,
        reserve=d2max - E,
    )


# ---------------------------------------------------------------------------
# injectivity certificate
# ---------------------------------------------------------------------------


@dataclass
class Witness:
    v_factor: LaurentPoly  # factor of the eliminant (variable v), v nmid factor
    u_poly: list  # fiber gcd coefficients over Q[v]/v_factor (dense, ring elems)
    ring_repr: str
    point: dict | None = None  # common image point, exact strings

    def as_dict(self) -> dict:
        return {
            "v_factor": repr(self.v_factor),
            "u_constraint": self.ring_repr,
            "point": self.point,
        }


@dataclass
class InjectivityCertificate:
    verdict: str  # "Injective" | "SelfIntersection"
    witnesses: list  # Witness entries

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "witnesses": [w.as_dict() for w in self.witnesses]}


def _fiber_check(D: UV, E: UV, modulus: LaurentPoly, prs: list) -> list:
    """Decide diagonality of the fiber solutions over each branch of `modulus`.

    `prs` is ``uv_prs(D, E)``.  Returns a list of per-branch results: (None
    for all-diagonal/empty, or a Witness for an off-diagonal component).

    A linear fiber gcd g = u + c over K = Q[v]/(m) is decided without Euclid
    over K, as Euclid would decide it.  g is its own squarefree part, since
    its gcd with g' = 1 inverts only 1.  Saturating g by the diagonal
    u^2 - 4v inverts 1 and then x = c^2 - 4v, the remainder of u^2 - 4v by g.
    If x is zero, g divides the diagonal and the branch is diagonal.
    Otherwise :meth:`Quotient.decide_zero` splits m on the monic gcd of m
    and x in Q[v], as Euclid's inverse does, or finds x a unit and leaves g.
    """
    mod_dense = to_dense(modulus)
    chains = {(uv_deg(D), uv_deg(E)): prs}

    def fn(st: BranchState):
        K = st.quotient(SCALARS, "wv", mod_dense)
        m = from_dense(st.modulus("wv", mod_dense))
        g = _fiber_gcd(K, D, E, chains)
        if len(g) <= 1:
            return None  # no genuine common solution above this branch
        if len(g) == 2:
            return _linear_fiber(K, m, g)
        gp = [K.mul(c, K.from_scalar(Scalar(i + 1))) for i, c in enumerate(g[1:])]
        gsf = quotient_gcd(K, g, gp)
        gsf = dense_divexact(K, g, gsf)
        # saturate the squarefree fiber gcd by the diagonal u^2 = 4v
        diag = [K.neg(K.mul(K.from_scalar(Scalar(4)), K.gen())), K.zero(), K.one()]
        h = quotient_gcd(K, gsf, diag)
        if len(h) > 1:
            gsf = dense_divexact(K, gsf, h)
        if len(gsf) <= 1:
            return None  # every fiber solution was diagonal
        return Witness(m, gsf, _upoly_repr(K, gsf))

    return explore_branches(fn)


def _linear_fiber(K, m: LaurentPoly, g: list) -> Witness | None:
    """Euclid's decision on the monic linear fiber gcd g = u + c over K = Q[v]/(m)."""
    c = g[0]
    x = K.sub(K.mul(c, c), K.mul(K.from_scalar(Scalar(4)), K.gen()))
    if K.decide_zero(x):
        return None  # the fiber point lies on the diagonal u^2 = 4v
    return Witness(m, g, _upoly_repr(K, g))


def _fiber_gcd(K, D: UV, E: UV, chains: dict) -> list:
    """The monic gcd of D and E in u over K = Q[v]/(m), as Euclid finds it.

    Makes the zero-divisor decisions of the Euclidean gcd over K in its
    order: lc(E), then lc(D) when D has the lower degree on this branch, then
    the leading coefficient of each next remainder.  On the branch that
    remainder is, root by root of m, a nonzero multiple of the element of the
    subresultant chain that follows the current divisor, so each decision is
    one zero decision in K (:func:`_lead_degree`).  When an element loses
    degree modulo m the chain is restarted from the current divisor and the
    trimmed element.  ``chains`` caches the chains across branches, keyed by
    the trimmed degrees of D and E and then by each restart.
    """
    a, b = _lead_degree(K, D, decide=False), _lead_degree(K, E)
    if a < 0 or b < 0:
        # one of them vanishes on this branch: the gcd is the other, made monic
        if b < 0 and a >= 0:
            _lead_degree(K, D)
        return _monic_upoly(K, D if b < 0 else E, max(a, b))
    key = (a, b)
    if key not in chains:
        chains[key] = uv_prs(_uv_trunc(D, a), _uv_trunc(E, b))
    prs = chains[key]
    if a < b:
        _lead_degree(K, D)
    k = 1
    while k + 1 < len(prs):
        S = prs[k + 1]
        n = _lead_degree(K, S)
        if n < 0:
            break
        if n < uv_deg(S):
            key = (key, k, n)
            if key not in chains:
                chains[key] = uv_prs(prs[k], _uv_trunc(S, n))
            prs, k = chains[key], 1
        else:
            k += 1
    return _monic_upoly(K, prs[k], uv_deg(prs[k]))


def _lead_degree(K, F: UV, decide: bool = True) -> int:
    """The u-degree of F over K = Q[v]/(m); with `decide`, also decide its lc.

    A coefficient that is zero in K is dropped.  With `decide` the leading
    one left is a unit in K, or :meth:`decide_zero` splits m on it, as
    :meth:`Quotient.inv` splits on it.
    """
    is_zero = K.decide_zero if decide else K.is_zero
    for k in range(uv_deg(F), -1, -1):
        if not is_zero(K.from_dense(to_dense(F.get(k, LaurentPoly.zero())))):
            return k
    return -1


def _monic_upoly(K, F: UV, n: int) -> list:
    """F up to u-degree n as a dense polynomial over K, made monic ([] if n < 0).

    Each coefficient is K's class of its dense coefficient list: one
    reduction modulo m (over Q on integers), or its value at the root of a
    linear m.
    """
    if n < 0:
        return []
    zero = LaurentPoly.zero()
    cs = [K.from_dense(to_dense(F.get(k, zero))) for k in range(n + 1)]
    inv = K.inv(cs[-1])
    return [K.mul(c, inv) for c in cs]


def _uv_trunc(F: UV, n: int) -> UV:
    return {k: p for k, p in F.items() if k <= n}


def _upoly_repr(K, g: list) -> str:
    parts = []
    for i, c in enumerate(g):
        if K.is_zero(c):
            continue
        term = "1" if i == 0 else "u" if i == 1 else f"u^{i}"
        parts.append(f"({K.to_repr(c)})*{term}" if i else K.to_repr(c))
    return " + ".join(parts) if parts else "0"


def injectivity_certificate(curve: ParametricCurve) -> InjectivityCertificate:
    """Exact decision: does the curve have an off-diagonal double point?

    Raises ConstantComponent when a component is constant.
    """
    curve.check_admissible()
    D, E = double_point_system(curve.phi, curve.psi)

    # common content in v (vertical solution lines)
    c1, c2 = uv_content(D), uv_content(E)
    gc = poly_gcd(c1, c2)
    if not gc.is_constant():
        gc = gc.shift(-gc.bot())
        if not gc.is_constant():
            w = Witness(gc, [], "all u (common vertical component)")
            return InjectivityCertificate("SelfIntersection", [w])

    prs = uv_prs(D, E)
    last = prs[-1]
    if uv_deg(last) > 0:
        # a common factor of positive u-degree.  Its primitive part G divides
        # D and E and is prime to v.  It is also prime to u^2 - 4v, because
        # D(2z, z^2) = z^(2a) phi'(z) is not zero.  So D = E = 0 on a curve of
        # pairs (u, v) off v = 0 and off the diagonal.
        w = Witness(LaurentPoly.const(1), [], "positive-dimensional common component")
        return InjectivityCertificate("SelfIntersection", [w])

    # every root of Res_u(D, E) is a root of the last element; v = 0 is no pair
    R = last[0].shift(-last[0].bot())
    if R.is_constant():
        return InjectivityCertificate("Injective", [])
    M = squarefree_part(R)
    witnesses = [w for w in _fiber_check(D, E, M, prs) if w is not None]
    if witnesses:
        for w in witnesses:
            w.point = _witness_point(curve, w)
        return InjectivityCertificate("SelfIntersection", witnesses)
    return InjectivityCertificate("Injective", [])


def _witness_point(curve: ParametricCurve, w: Witness) -> dict | None:
    """Common image point of the witness pair on `curve`, evaluated exactly in the tower.

    The certificate builds its double-point system from `curve` as given, so
    the witness pair (u, v) is a pair of `curve`'s own parameters.  Negative
    powers need 1/v in K = Q[v]/(m), m = v_factor.  The eliminant is shifted
    off v = 0 and m divides it, so m = m_0 + v q(v) with m_0 != 0, and
    1/v = -q(v)/m_0 needs no Euclid: :func:`_sym_eval` inverts nothing, so
    nothing splits.
    """
    if not w.u_poly:
        return None

    def fn(st: BranchState):
        ring, u_val, _ = _witness_tower(st, w)
        x_val, y_val = _sym_eval(ring, u_val, (curve.phi, curve.psi))
        return {"x": ring.to_repr(x_val), "y": ring.to_repr(y_val)}

    res = explore_branches(fn)
    return res[0] if res else None


def _witness_tower(st: BranchState, w: Witness) -> tuple:
    """(ring, u, v): the witness pair's (t + t', t t') on this branch.

    v generates Q[v]/(v_factor) at level "wv"; u is the root of a linear
    u_poly there, and generates K[u]/(u_poly) at level "wu" otherwise.
    """
    K = st.quotient(SCALARS, "wv", to_dense(w.v_factor))
    v = K.gen()
    if len(w.u_poly) == 2:
        return K, K.neg(w.u_poly[0]), v
    ring = st.quotient(K, "wu", list(w.u_poly))
    return ring, ring.gen(), ring.from_base(v)


def _sym_eval(ring, u, fs) -> list:
    """(f(t) + f(t'))/2 for each f in `fs`, where t + t' = u and t t' = v,
    the generator of level "wv".

    v^a (f(t) + f(t'))/2 is a UV polynomial in closed form
    (:func:`symmetric_mean`, Waring's formula); its value at u
    (:func:`uv_eval_u`) is divided by v a times.  `ring` is K = Q[v]/(m) or
    a "wu" level over K, whose generator u must then be; it divides by v (a
    unit: m(0) != 0) in O(deg m) steps per element of K.
    """
    out = []
    for f in fs:
        S, a = symmetric_mean(f)
        x = uv_eval_u(S, ring, u)
        for _ in range(a):
            x = ring.div_gen(x, "wv")
        out.append(x)
    return out


def verify_witness(curve: ParametricCurve, w: Witness) -> bool:
    """Exact re-verification: the witness variety solves both double-point
    equations, has v != 0, avoids the diagonal u^2 = 4v, and its printed point
    is the curve's symmetric value there."""
    if not w.u_poly:
        return True  # positive-dimensional witnesses are verified structurally
    if w.v_factor[0].is_zero():
        return False
    if w.point != _witness_point(curve, w):
        return False
    D, E = double_point_system(curve.phi, curve.psi)

    def fn(st: BranchState):
        ring, u_val, v_val = _witness_tower(st, w)
        okD = ring.decide_zero(uv_eval_u(D, ring, u_val))
        okE = ring.decide_zero(uv_eval_u(E, ring, u_val))
        disc = ring.sub(ring.mul(u_val, u_val), ring.mul(ring.from_scalar(Scalar(4)), v_val))
        off_diag = not ring.decide_zero(disc)
        return okD and okE and off_diag

    try:
        results = explore_branches(fn)
    except ZeroDivisionError:
        return False
    # at least one branch must be a genuine off-diagonal double point, and the
    # double-point equations must hold on every branch of the witness factor
    return any(results) and all(results)


# ---------------------------------------------------------------------------
# verdict, regularity, audits
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    kind: str  # "Embedding" | "NotEmbedding"
    reason: str | None
    certificate: InjectivityCertificate | None
    ledger: BalanceLedger | None
    annulus_proper: bool
    ledger_error: str | None = None  # why `ledger` is None on an improper parametrization

    def as_dict(self) -> dict:
        return {
            "verdict": self.kind,
            "reason": self.reason,
            "certificate": self.certificate.as_dict() if self.certificate else None,
            "annulus_proper": self.annulus_proper,
        }


def embedding_verdict(curve: ParametricCurve, with_ledger: bool = True) -> Verdict:
    curve.check_admissible()
    pc = detect_nonprimitive(curve)
    if pc["kind"] == "PowerCover":
        return Verdict("NotEmbedding", f"PowerCover {pc['d']}", None, None, True)
    cert = injectivity_certificate(curve)
    ledger = error = None
    proper = True
    if with_ledger:
        try:
            ledger = ph_ledger(curve)
        except PlaceNotAtInfinity:
            proper = False
        except DegenerateCurve:
            ledger = None
        except ImproperParametrization as exc:
            # every image point of an improper parametrization has two preimages
            if cert.verdict == "Injective":
                raise LedgerMismatch(f"injective curve with no ledger: {exc}") from exc
            error = f"improper parametrization: {exc}"
    if cert.verdict == "Injective":
        if ledger is not None and not ledger.balanced:
            raise LedgerMismatch(
                "injective curve with unbalanced ledger: "
                f"{ledger.two_delta_inf} + {ledger.finite_sum()} != {ledger.two_delta_max}"
            )
        return Verdict("Embedding", None, cert, ledger, proper)
    return Verdict("NotEmbedding", "SelfIntersection", cert, ledger, proper, error)


@dataclass
class RegularityReport:
    ok: bool
    margin: int
    sigma: int
    total_ext: int
    suspect: bool  # failures are flagged, not fatal (nu-rule reconstruction)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "margin": self.margin,
            "sigma": self.sigma,
            "total_ext_codim": self.total_ext,
            "nu_rule_suspect": self.suspect,
        }


def regularity_check(ledger: BalanceLedger, classification: Classification) -> RegularityReport:
    """ext nu_inf + sum ext nu_j <= sigma, on the normalized representative."""
    mono = len(classification.curve.phi.coeffs) == 1 and len(classification.curve.psi.coeffs) == 1
    sigma, _ = dim_curv(classification.profile, classification.tag, monomial_pair=mono)
    nu_tan = ledger.tangency.nu_tan if ledger.tangency else 0
    ext_inf = ledger.place_inf.nu + ledger.place_0.nu + nu_tan
    total = ext_inf + sum(e.extnu * e.orbit for e in ledger.finite)
    ok = total <= sigma
    return RegularityReport(ok, sigma - total, sigma, total, suspect=not ok)


@dataclass
class AuditRow:
    name: str
    lhs: object
    rhs: object
    ok: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": str(self.lhs), "rhs": str(self.rhs), "ok": self.ok}


def estimates_audit(curve: ParametricCurve, ledger: BalanceLedger) -> list[AuditRow]:
    rows: list[AuditRow] = []
    prof = ledger.profile
    p, q, r, s = prof.p, prof.q, prof.r, prof.s
    for e in ledger.finite:
        rows.append(AuditRow(f"mu<=n*nu at {e.factor!r}", e.mu, e.n * e.nu, e.mu <= e.n * e.nu))
        # restricted class: mu_min is the generic member's Milnor number
        # (m-1)(n-1) + (n'-1); nu' counts vanishing essential unit positions
        if e.pairs:
            m0 = e.chain.start
            nprime = gcd(e.n, m0)
            mu_min = (m0 - 1) * (e.n - 1) + (nprime - 1)
            nu_prime = _unit_nu(e, m0, nprime)
            rows.append(
                AuditRow(
                    f"mu<=mu_min+n'nu' at {e.factor!r}",
                    e.mu,
                    mu_min + nprime * nu_prime,
                    e.mu <= mu_min + nprime * nu_prime,
                )
            )
    tangent = ledger.tangency is not None
    ps_rq = prof.p * prof.s - prof.r * prof.q
    if not tangent and ps_rq != 0:
        if prof.p1 > 1:
            rows.append(
                AuditRow(
                    "2delta_inf<=p'nu_inf",
                    ledger.place_inf.delta2,
                    prof.p1 * ledger.place_inf.nu,
                    ledger.place_inf.delta2 <= prof.p1 * ledger.place_inf.nu,
                )
            )
        if prof.r1 > 1:
            rows.append(
                AuditRow(
                    "2delta_0<=r'nu_0",
                    ledger.place_0.delta2,
                    prof.r1 * ledger.place_0.nu,
                    ledger.place_0.delta2 <= prof.r1 * ledger.place_0.nu,
                )
            )
        Dq = abs(ps_rq) - (prof.p1 + prof.r1) + 1
        rows.append(AuditRow("|ps-rq|-(p'+r')+1>=0", Dq, 0, Dq >= 0))
    elif tangent:
        tan = ledger.tangency
        nu_inf = ledger.place_inf.nu + ledger.place_0.nu + tan.nu_tan
        bound = (prof.p1 + prof.r1) * (nu_inf + 1)
        rows.append(AuditRow("2delta_inf<=(p'+r')(nu_inf+1)", tan.delta2_inf, bound, tan.delta2_inf <= bound))
        if prof.p1 == 1 and prof.r1 == 1:
            rows.append(
                AuditRow("2delta_inf<=2nu_inf (p'=r'=1)", tan.delta2_inf, 2 * nu_inf, tan.delta2_inf <= 2 * nu_inf)
            )
        if nu_inf <= 1:
            b2 = (prof.p1 + prof.r1) * nu_inf
            rows.append(AuditRow("2delta_inf<=(p'+r')nu_inf (nu_inf<=1)", tan.delta2_inf, b2, tan.delta2_inf <= b2))
    # zero-count bound: sum orbit*(n_j - 1) <= available zeros of phi'
    dn = derivative_numerator(curve.psi if ledger.swapped else curve.phi)
    avail = dn.top() if not dn.is_zero() else 0
    lhs = sum((e.n - 1) * e.orbit for e in ledger.finite)
    rows.append(AuditRow("sum(n_j-1)<=zeros of phi'", lhs, avail, lhs <= avail))
    return rows


# ---------------------------------------------------------------------------
# semigroup oracle
# ---------------------------------------------------------------------------


def _unit_nu(e, m0: int, nprime: int) -> int:
    """Vanishing essential positions of the unit factor (chain from gcd(m, n))."""
    if nprime == 1:
        return 0
    support = set(i - m0 for i in e.chain.support)
    stop = (max(support) if support else 0) + 1
    d = nprime
    nu = 0
    for pos in range(1, stop + 1):
        if d == 1:
            break
        if pos in support:
            if pos % d != 0:
                d = gcd(d, pos)
        elif pos % d != 0:
            nu += 1
    return nu


def delta_semigroup_oracle(ring, xs: TS, ys: TS, bound: int) -> int:
    """Number of gaps of the value semigroup of the branch algebra C[[x, y]].

    Standard-basis style closure: keep one reduced element per order, close
    under multiplication by x and y, then count gaps below the conductor.

    An element el of the order o of a kept element `have` is reduced to
    have_o el - el_o have, which is have_o (el - (el_o / have_o) have).  Both
    leading coefficients were decided nonzero, so they are units on this
    branch, and an element times a unit u has the same order.  Each of its
    coefficients u x is decided zero exactly when x is, with the same split
    on a zero divisor, as gcd(m, u x) = gcd(m, x) for a unit u modulo m.  So
    every order and every split is the one of the quotient form, and nothing
    is inverted.  Over Q and Q(sqrt d) (:class:`_IntegerClosure`) the series
    are cleared to integers once, and each element is scaled by the
    conjugate of its leading coefficient, a unit too, and divided by its
    integer content: no rational is built.
    """
    arith = (_IntegerClosure if _over_scalars(ring) else _RingClosure)(ring, xs, ys, bound + 1)
    basis: dict = {}
    queue = list(arith.gens)
    guard = 0
    while queue:
        el = queue.pop()
        guard += 1
        if guard > 4000:
            raise BoundTooSmall("semigroup closure did not stabilize")
        while True:
            found = arith.normalized(el)
            if found is None:
                break
            o, el = found
            if o >= bound:
                break
            have = basis.get(o)
            if have is None:
                basis[o] = el
                queue.extend(arith.times(el))
                break
            el = arith.reduce(el, have)
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


def _over_scalars(ring) -> bool:
    """Whether the elements of `ring` are scalars: Q(sqrt d), or a rational point over it."""
    return ring is SCALARS or isinstance(ring, LinearQuotient) and ring.base is SCALARS


class _RingClosure:
    """The closure's elements over any ring: series."""

    def __init__(self, ring, xs: TS, ys: TS, cap: int):
        self.ring, self.gens, self.cap = ring, (xs, ys), cap

    def normalized(self, el):
        """(order, el) with the leading zeros of el decided and dropped; None
        when el is zero to its precision."""
        s = el.normalized(decide=True)
        return (s.val, s) if s.cs else None

    def times(self, el) -> list:
        return [el.mul(g).truncate(self.cap) for g in self.gens]

    def reduce(self, el, have):
        r, e0, h0 = self.ring, el.cs[0], have.cs[0]
        return TS(r, el.val, [r.sub(r.mul(h0, a), r.mul(e0, b)) for a, b in zip(el.cs, have.cs)])


class _IntegerClosure:
    """The closure's elements over Q(sqrt d): (val, A, B) for the series
    sum (A_i + B_i sqrt d) tau^(val + i), B None over Q; a normalized one is
    primitive, with a rational leading coefficient A_0."""

    def __init__(self, ring, xs: TS, ys: TS, cap: int):
        self.d = d = _field_tag(xs.cs + ys.cs)
        self.gens = [(s.val, *_cleared(s.cs, d)[0]) for s in (xs, ys)]
        self.cap = cap

    def normalized(self, el):
        """(order, el) for el without its leading zeros, times the conjugate of
        its leading coefficient, over its integer content; None when el is
        zero to its precision."""
        val, a, b = el
        i = next((i for i, x in enumerate(a) if x or (b and b[i])), None)
        if i is None:
            return None
        a, b = a[i:], b and b[i:]
        if b and b[0]:
            a, b = _zz_scale((a, b), (a[0], -b[0]), self.d)
        g = gcd(*a, *b) if b else gcd(*a)
        return val + i, (val + i, [x // g for x in a], b and [x // g for x in b])

    def times(self, el) -> list:
        val, a, b = el
        out = []
        for gval, ga, gb in self.gens:
            n = min(len(a), len(ga), self.cap - val - gval)
            out.append((val + gval, *_zz_mul((a, b), (ga, gb), max(n, 0), self.d)))
        return out

    def reduce(self, el, have):
        (o, a, b), (_, ha, hb) = el, have
        e0, h0 = a[0], ha[0]
        return o, [h0 * x - e0 * y for x, y in zip(a, ha)], b and [h0 * x - e0 * y for x, y in zip(b, hb)]


def oracle_delta_at_factor(curve: ParametricCurve, factor: LaurentPoly, bound: int = 60) -> list:
    """(factor, delta) per refined branch of the factor, via the semigroup oracle.

    The expansion and the oracle run on each branch together, so a zero
    divisor that either meets splits the factor, and both re-run on each part.
    """

    def fn(st: BranchState):
        fac, ring, xs, ys = branch_series_at_point(st, curve, factor, bound + 2)
        return fac, delta_semigroup_oracle(ring, xs, ys, bound)

    return explore_branches(fn)
