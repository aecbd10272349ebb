"""Parametric curves, the four-type classification and handsome normal form.

A curve is the pair (phi, psi) of Laurent polynomials.  The raw exponent
profile (p, q, r, s) = (top phi, top psi, -bot phi, -bot psi) is signed:
positive entries are pole orders at the corresponding place, negative entries
mean the component vanishes there.

Classification applies Cremona moves (elementary transformations, swaps,
translations) and t -> 1/t until the curve matches one of the four type rows
in handsome position.  The search is a small BFS over degree-killing moves.
It checks each curve as soon as it makes it and stops at the first handsome
one, which is the first in BFS order; the accepted normal form records its
move log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .laurent import ConstantComponent, LaurentPoly
from .scalars import Scalar


class Unclassifiable(ValueError):
    """No handsome representative of one of the four types was reached."""


class NonTermination(RuntimeError):
    """The reduction budget was spent; indicates a bug, not a valid outcome."""


PLUS_PLUS = "PlusPlus"
MIXED = "MixedPlusMinus"
MINUS_PLUS = "MinusPlus"
MINUS_MINUS = "MinusMinus"
ALL_TAGS = (PLUS_PLUS, MIXED, MINUS_PLUS, MINUS_MINUS)


@dataclass(frozen=True)
class ParametricCurve:
    phi: LaurentPoly
    psi: LaurentPoly

    def field_tag(self) -> int:
        d1 = self.phi.field_tag()
        return d1 if d1 != 1 else self.psi.field_tag()

    def check_admissible(self) -> None:
        for name, f in (("x", self.phi), ("y", self.psi)):
            if f.is_constant():
                raise ConstantComponent(f"component {name} is constant")

    def swapped(self) -> "ParametricCurve":
        return ParametricCurve(self.psi, self.phi)

    def inv_t(self) -> "ParametricCurve":
        return ParametricCurve(self.phi.compose_inv_t(), self.psi.compose_inv_t())

    def key(self):
        return (frozenset(self.phi.coeffs.items()), frozenset(self.psi.coeffs.items()))


@dataclass(frozen=True)
class ExponentProfile:
    p: int
    q: int
    r: int
    s: int
    lc_x: Scalar
    lc_y: Scalar
    tc_x: Scalar
    tc_y: Scalar

    @property
    def p1(self) -> int:
        return gcd(abs(self.p), abs(self.q))

    @property
    def r1(self) -> int:
        return gcd(abs(self.r), abs(self.s))

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "s": self.s,
            "p_prime": self.p1,
            "r_prime": self.r1,
        }


def exponent_profile(curve: ParametricCurve) -> ExponentProfile:
    curve.check_admissible()
    phi, psi = curve.phi, curve.psi
    return ExponentProfile(
        p=phi.top(),
        q=psi.top(),
        r=-phi.bot(),
        s=-psi.bot(),
        lc_x=phi.lc(),
        lc_y=psi.lc(),
        tc_x=phi.tc(),
        tc_y=psi.tc(),
    )


def row_match(pr: ExponentProfile, tag: str) -> bool:
    p, q, r, s = pr.p, pr.q, pr.r, pr.s
    if tag == PLUS_PLUS:
        if not (0 < p < q and 0 < r < s):
            return False
        if pr.r1 > pr.p1:
            return False
        # min(q/p, s/r) must not be an integer
        return (q % p if q * r <= s * p else s % r) != 0
    if tag == MIXED:
        return 0 < q < p and 0 < r < s and p + r <= q + s
    if tag == MINUS_PLUS:
        return r < 0 and 0 < -r <= p and q > 0 and s > 0 and q % p != 0
    if tag == MINUS_MINUS:
        return r < 0 and q < 0 and 0 < -r <= p and 0 < -q <= s and p + r <= s + q
    raise ValueError(tag)


def is_handsome_profile(pr: ExponentProfile, tag: str) -> bool:
    p, q, r, s = pr.p, pr.q, pr.r, pr.s
    if tag == PLUS_PLUS:
        return not (q % p == 0 and r < p)
    if tag == MIXED:
        if p % q == 0 and s < q:
            return False
        if s % r == 0 and p < r:
            return False
        return True
    if tag == MINUS_PLUS:
        return not (p % q == 0 and s < q)
    if tag == MINUS_MINUS:
        return True
    raise ValueError(tag)


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------


def apply_automorphism(curve: ParametricCurve, move: dict) -> ParametricCurve:
    """Apply one recorded move; moves are JSON-ready dicts."""
    kind = move["kind"]
    phi, psi = curve.phi, curve.psi
    if kind == "swap_xy":
        return ParametricCurve(psi, phi)
    if kind == "inv_t":
        return curve.inv_t()
    if kind == "scale_t":
        lam = move["by"]
        return ParametricCurve(phi.rescale_t(lam), psi.rescale_t(lam))
    if kind == "x_plus_c":
        return ParametricCurve(phi + LaurentPoly.const(move["c"]), psi)
    if kind == "y_plus_c":
        return ParametricCurve(phi, psi + LaurentPoly.const(move["c"]))
    if kind == "y_plus_c_xl":
        c, l = move["c"], move["l"]
        return ParametricCurve(phi, psi + phi**l * c)
    if kind == "x_plus_c_yl":
        c, l = move["c"], move["l"]
        return ParametricCurve(phi + psi**l * c, psi)
    if kind == "scale_x":
        return ParametricCurve(phi * move["c"], psi)
    if kind == "scale_y":
        return ParametricCurve(phi, psi * move["c"])
    raise ValueError(f"unknown move {kind!r}")


def _strip_constants(curve: ParametricCurve, log: list) -> ParametricCurve:
    phi, psi = curve.phi, curve.psi
    c = phi[0]
    if not c.is_zero() and not phi.is_constant():
        log.append({"kind": "x_plus_c", "c": -c})
        phi = phi - LaurentPoly.const(c)
    c = psi[0]
    if not c.is_zero() and not psi.is_constant():
        log.append({"kind": "y_plus_c", "c": -c})
        psi = psi - LaurentPoly.const(c)
    return ParametricCurve(phi, psi)


def _kill_moves(curve: ParametricCurve) -> list[dict]:
    """Elementary transformations cancelling an extreme term of one component."""
    out = []
    phi, psi = curve.phi, curve.psi
    for side, a, b in (("y", phi, psi), ("x", psi, phi)):
        kind = "y_plus_c_xl" if side == "y" else "x_plus_c_yl"
        if a.is_constant():
            continue
        ta, tb = a.top(), b.top()
        if ta >= 1 and tb >= 1 and tb % ta == 0 and tb // ta >= 1:
            l = tb // ta
            c = b.lc() / a.lc() ** l
            out.append({"kind": kind, "c": -c, "l": l})
        ba, bb = a.bot(), b.bot()
        if ba <= -1 and bb <= -1 and bb % ba == 0 and bb // ba >= 1:
            l = bb // ba
            c = b.tc() / a.tc() ** l
            # skip if it duplicates the top kill
            mv = {"kind": kind, "c": -c, "l": l}
            if mv not in out:
                out.append(mv)
    return out


# (name, the curve map, its moves, the map of its exponent profile): t -> 1/t
# exchanges top and bottom, and the swap exchanges x and y
_SYMS = (
    ("id", lambda c: c, [], lambda pr: pr),
    (
        "inv_t",
        lambda c: c.inv_t(),
        [{"kind": "inv_t"}],
        lambda pr: ExponentProfile(pr.r, pr.s, pr.p, pr.q, pr.tc_x, pr.tc_y, pr.lc_x, pr.lc_y),
    ),
    (
        "swap",
        lambda c: c.swapped(),
        [{"kind": "swap_xy"}],
        lambda pr: ExponentProfile(pr.q, pr.p, pr.s, pr.r, pr.lc_y, pr.lc_x, pr.tc_y, pr.tc_x),
    ),
    (
        "swap_inv",
        lambda c: c.swapped().inv_t(),
        [{"kind": "swap_xy"}, {"kind": "inv_t"}],
        lambda pr: ExponentProfile(pr.s, pr.r, pr.q, pr.p, pr.tc_y, pr.tc_x, pr.lc_y, pr.lc_x),
    ),
)


@dataclass
class Classification:
    tag: str
    all_tags: list  # [(sym_name, tag)] for every admissible handsome match
    curve: ParametricCurve  # normalized handsome representative
    moves: list = field(default_factory=list)
    profile: ExponentProfile | None = None

    def as_dict(self) -> dict:
        return {
            "type": self.tag,
            "admissible_tags": [list(x) for x in self.all_tags],
            "moves": _moves_repr(self.moves),
            "profile": self.profile.as_dict() if self.profile else None,
        }


def _moves_repr(moves: list) -> list:
    out = []
    for m in moves:
        m2 = {}
        for k, v in m.items():
            m2[k] = repr(v) if isinstance(v, Scalar) else v
        out.append(m2)
    return out


def _handsome_match(curve: ParametricCurve, log: list) -> Classification | None:
    """The classification of `curve` with move log `log`, when a symmetric
    image of it matches a type row handsomely; None otherwise.

    The exponent profile is computed once; each image's profile is a
    permutation of it, and only the first match's curve is built.
    """
    pr0 = exponent_profile(curve)
    matches = []
    for name, f, mv, perm in _SYMS:
        pr = perm(pr0)
        for tag in ALL_TAGS:
            if row_match(pr, tag) and is_handsome_profile(pr, tag):
                matches.append((name, tag, f, mv, pr))
    if not matches:
        return None
    _, tag, f, mv, pr = matches[0]
    return Classification(tag, [(n, t) for n, t, *_ in matches], f(curve), log + mv, pr)


def _reduction_cap(prof: ExponentProfile) -> int:
    """The budget unit of :func:`reduce_to_handsome`: 8 of them bound the kill
    moves it tries, 4 of them the curves of one BFS frontier."""
    return 4 * (abs(prof.p) + abs(prof.q) + abs(prof.r) + abs(prof.s)) + 16


def reduce_to_handsome(curve: ParametricCurve) -> Classification:
    """BFS over constant strips and elementary kills until a handsome row match.

    Each kill cancels the extreme term of one component against a power of the
    other, which is exactly the move set of the handsome-reduction argument;
    BFS guarantees a shortest move log and deterministic output.  Each new
    curve is checked as soon as it is made, so the search returns the first
    handsome curve in BFS order without expanding the rest of its level.
    """
    curve.check_admissible()
    pc = detect_nonprimitive(curve)
    if pc["kind"] == "PowerCover":
        raise Unclassifiable(f"curve is multiply covered (t^{pc['d']})")
    cap = _reduction_cap(exponent_profile(curve))
    log0: list = []
    start = _strip_constants(curve, log0)
    found = _handsome_match(start, log0)
    if found is not None:
        return found
    frontier: list[tuple[ParametricCurve, list]] = [(start, log0)]
    seen = {start.key()}
    explored = depth = 0
    while frontier:
        nxt: list[tuple[ParametricCurve, list]] = []
        for cur, lg in frontier:
            for move in _kill_moves(cur):
                explored += 1
                if explored > cap * 8:
                    raise NonTermination(f"handsome reduction cap exceeded: {cap * 8} kill moves tried at depth {depth}")
                c2 = apply_automorphism(cur, move)
                lg2 = lg + [move]
                c2 = _strip_constants(c2, lg2)
                try:
                    c2.check_admissible()
                except ConstantComponent:
                    continue
                k = c2.key()
                if k in seen:
                    continue
                seen.add(k)
                found = _handsome_match(c2, lg2)
                if found is not None:
                    return found
                nxt.append((c2, lg2))
        frontier = nxt
        depth += 1
        if len(frontier) > cap * 4:
            raise NonTermination(f"handsome reduction frontier explosion: {len(frontier)} curves at depth {depth}")
    raise Unclassifiable("no handsome representative found")


def classify_type(curve: ParametricCurve) -> Classification:
    """Type tag plus the normalizing moves; idempotent on normalized curves."""
    return reduce_to_handsome(curve)


def dim_curv(pr: ExponentProfile, tag: str, monomial_pair: bool = False) -> tuple[int, int]:
    """(sigma, k): dimension of the space of annuli and the degree bound k.

    For a pair of pure monomials the reparametrization t -> lambda t acts
    trivially modulo the axis scalings, so the group drops one dimension.
    """
    p, q, r, s = pr.p, pr.q, pr.r, pr.s
    if tag == PLUS_PLUS:
        eps, k = 2, min(q // p, s // r)
    elif tag == MIXED:
        eps, k = 2, 0
    elif tag == MINUS_PLUS:
        eps, k = 1, q // p
    elif tag == MINUS_MINUS:
        eps, k = 0, 0
    else:
        raise ValueError(tag)
    sigma = p + q + r + s - 1 - eps - k
    if monomial_pair:
        sigma += 1
    return sigma, k


def affine_dependence(curve: ParametricCurve):
    """(c, d) with psi = c*phi + d when the components are affinely dependent.

    Such a curve multiply covers a line (the Laurent factorization case the
    exponent test cannot see); callers treat it as degenerate.
    """
    phi, psi = curve.phi, curve.psi
    a = phi - LaurentPoly.const(phi[0])
    b = psi - LaurentPoly.const(psi[0])
    if a.is_zero() or b.is_zero():
        return None
    if a.support() != b.support():
        return None
    e = a.top()
    c = b.coeffs[e] / a.coeffs[e]
    if b - a * c == LaurentPoly.zero():
        return c, psi[0] - phi[0] * c
    return None


def detect_nonprimitive(curve: ParametricCurve) -> dict:
    """PowerCover d when every exponent of phi and psi is divisible by d > 1.

    The polynomial-omega branch of the Lueroth decomposition is out of scope;
    curves passing the exponent test are reported Primitive.
    """
    g = gcd(curve.phi.exponent_gcd(), curve.psi.exponent_gcd())
    if g > 1:
        return {"kind": "PowerCover", "d": int(g)}
    return {"kind": "Primitive"}
