"""Local analysis: singular parameters, Puiseux branches, place data.

Finite side: singular parameters are the common C*-roots of the derivative
numerators; each squarefree factor is analyzed in a quotient ring (dynamic
evaluation).  At each point the coordinate of smaller order (x on a tie) is
brought to standard form, so its order n is the multiplicity.
Characteristic data comes from the gcd chain over the sigma-support of the
other component, the codimension from vanishing essential positions: data
of the singularity, not of the coordinates the curve is written in.

Places: the subordinate coordinate is expanded in the dominant one at each of
t = 0 and t = infinity.  The index of the pulled-back Hamiltonian field at a
place is assembled from the conjugate-collision sum of the branch, the
far-fiber / vertical-asymptote term contributed by the other place, and the
pole order; hidden double points compare this against the typical curve with
the same exponent profile.  When ps = rq the far collisions are resolved by an
exact root-of-unity coset automaton comparing the two places' expansions on
the common exponent lattice.  At each lattice position it reads the two
coefficients a and b (zero off a side's lattice) and asks for a = zeta^j b on
the alive coset of zeta: both zero keeps the coset, exactly one zero kills it,
and both nonzero intersect it with {zeta^j = a/b}.

Both sides expand a branch the same way, over the ring the branch already
lives in.  `_standard_form` brings the base coordinate x = lead tau^v0
(1 + h(tau)), of signed order v0, to x = lead sigma^v0 with sigma =
tau (1 + h)^(1/v0), and reverts sigma(tau).  The reversion's Lagrange
series tau / sigma(tau) = (1 + h)^(-1/v0) is one Miller recurrence
(`TS.unit_power`, which is also the package's series inverse), so for
either sign of v0 no series is inverted.  `_compose_laurent_series` then
expands the other coordinate in sigma: a Laurent polynomial at a place, a
truncated series at a finite point.  Each of the three steps is a method
of the branch's coefficient ring (`unit_power`, `reversion`, `compose`):
on integers over Q and Q(sqrt d), so a place and a rational point expand
on integers, and element by element over the quotient ring of a conjugate
point.  Powers of ring elements (the coset automaton's zeta^j, the roots
g^k) all go through `rings.ring_pow`.  The standard form proper,
x = (g sigma)^v0 with g^|v0| = lead, would multiply the sigma^k
coefficient by the unit g^(-k sign v0): the same coefficients vanish, so
the characteristic data need no root of lead.  Only the tangency
automaton compares coefficient values across the two places;
`_rooted_series` adjoins g there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from ._ratio import QQ, rat
from .curves import ExponentProfile, ParametricCurve, exponent_profile
from .laurent import LaurentPoly, from_dense, poly_gcd, squarefree_part, to_dense
from .rings import BranchState, NotDivisible, SCALARS, _primitive_zz, explore_branches, ring_pow
from .scalars import Scalar, nth_root_exact
from .series import TS, TruncationCap, laurent_at_shifted_point


class PlaceNotAtInfinity(ValueError):
    """A place where both coordinates stay finite: not a proper annulus."""


class TangentCase(ArithmeticError):
    """ps = rq: the caller must use the tangency analysis."""


class ImproperParametrization(ArithmeticError):
    """A window search failed at the largest window a proper parametrization needs."""


# Small enough that most branches resolve in the first or second window; on
# the default grid, first windows 5 and 6 gave the shortest ledger time.
_FIRST_WINDOW = 6


def _with_window(attempt, largest: int, stage: str):
    """attempt(window) at 6, 12, 24, ... and last at `largest`, the site's `largest_window`.

    Series track their precision, so a window below the one a site needs gives
    the same result or TruncationCap.  Proper parametrizations need at most
    `largest` (on an annulus 2 delta_max = 2 delta_inf + sum mu_j + double points,
    all >= 0), so TruncationCap there raises ImproperParametrization.
    """
    window = min(_FIRST_WINDOW, max(largest, 1))
    while True:
        try:
            return attempt(window)
        except TruncationCap as exc:
            if window >= largest:
                raise ImproperParametrization(f"{stage} unresolved at window {window}") from exc
            window = min(2 * window, largest)


# ---------------------------------------------------------------------------
# characteristic data from a support scan
# ---------------------------------------------------------------------------


@dataclass
class ChainData:
    ram: int
    start: int  # leading exponent of the subordinate series
    char_exponents: list  # strictly increasing sigma-exponents
    pairs: list  # [(m_j, n_j)] with n_j > 1, gcd(m_j, n_j) = 1
    nu: int  # vanishing essential positions within the scan range
    support: list  # nonzero sigma-exponents seen up to resolution
    dchain: list  # gcd chain ram = d_0 > d_1 > ... > 1

    def sigma_near(self) -> int:
        """Sum over nontrivial conjugates of the collision order."""
        out = 0
        d_prev = self.dchain[0]
        for e, d in zip(self.char_exponents, self.dchain[1:]):
            out += (d_prev - d) * e
            d_prev = d
        return out


def scan_chain(ring, series: TS, ram: int, scan_from: int) -> ChainData:
    """Walk the sigma-support of `series`, extracting chain, pairs and nu.

    Essential positions are those not divisible by the running gcd d; nu counts
    the vanishing ones at positions >= scan_from.  Raises TruncationCap when
    the window ends before the chain reaches 1.
    """
    s = series.normalized(decide=True)
    if not s.cs:
        raise TruncationCap("subordinate series vanished to working precision")
    start = s.val
    d_cur = ram
    char_exps: list[int] = []
    dchain = [ram]
    support: list[int] = []
    nu = 0
    pos = min(scan_from, start)
    while d_cur != 1:
        if pos >= s.prec:
            raise TruncationCap(f"chain unresolved at precision {s.prec}")
        zero = True if pos < start else ring.decide_zero(s.coeff(pos))
        essential = pos % d_cur != 0
        if not zero:
            support.append(pos)
            if essential:
                char_exps.append(pos)
                d_cur = gcd(d_cur, pos)
                dchain.append(d_cur)
        elif essential and pos >= scan_from:
            nu += 1
        pos += 1
    pairs = []
    for e_j, d_prev, d_j in zip(char_exps, dchain, dchain[1:]):
        pairs.append((e_j // d_j, d_prev // d_j))
    return ChainData(ram, start, char_exps, pairs, nu, support, dchain)


def milnor_from_pairs(pairs: list) -> int:
    """Milnor number of a cuspidal branch from its characteristic pairs."""
    l = len(pairs)
    tails = [1] * (l + 1)
    for j in range(l - 1, -1, -1):
        tails[j] = tails[j + 1] * pairs[j][1]
    mu = 0
    for j, (m, n) in enumerate(pairs):
        mu += (m * tails[j + 1] - 1) * (n - 1) * tails[j + 1]
    return mu


def milnor_from_exponents(char_exps: list, dchain: list) -> int:
    """The other displayed form: sum (v_j - 1)(n_j - 1) n_{j+1}...n_l."""
    mu = 0
    for e, d_prev, d in zip(char_exps, dchain, dchain[1:]):
        mu += (e - 1) * (d_prev // d - 1) * d
    return mu


def ext_codim_point(n: int, nu: int) -> int:
    return (n - 2) + nu


# ---------------------------------------------------------------------------
# finite singular points
# ---------------------------------------------------------------------------


def derivative_numerator(f: LaurentPoly) -> LaurentPoly:
    d = f.derivative()
    if d.is_zero():
        return d
    return d.shift(-d.bot())


def singular_factors(curve: ParametricCurve) -> LaurentPoly:
    """Squarefree polynomial whose C*-roots are the singular parameters."""
    a = derivative_numerator(curve.phi)
    b = derivative_numerator(curve.psi)
    if a.is_zero() or b.is_zero():
        raise ValueError("component with zero derivative")
    g = poly_gcd(a, b)
    if g.is_constant():
        return LaurentPoly.const(1)
    g = g.shift(-g.bot())
    if g.is_constant():
        return LaurentPoly.const(1)
    return squarefree_part(g)


@dataclass
class PointAnalysis:
    factor: LaurentPoly  # refined squarefree factor over the base field
    orbit: int  # degree of the factor
    n: int  # multiplicity: the smaller order of x - x0 and y - y0
    chain: ChainData
    mu: int
    mu_form1: int
    nu: int
    extnu: int
    pairs: list

    @property
    def delta2(self) -> int:
        return self.mu

    @property
    def mult(self) -> int:
        """Multiplicity of the germ, the order n of the expansion coordinate."""
        return self.n

    def a_label(self) -> str | None:
        if len(self.pairs) == 1 and self.pairs[0][1] == 2:
            return f"A_{self.mu}"
        if not self.pairs:
            return "A_0"
        return None

    def factor_key(self) -> tuple:
        return (self.orbit, tuple(sorted((e, repr(c)) for e, c in self.factor.coeffs.items())))


def analyze_point(curve: ParametricCurve, factor: LaurentPoly) -> list[PointAnalysis]:
    """Analyze the singular points at the roots of `factor` (dynamic evaluation).

    Each point is expanded in the coordinate of smaller order there, x on a
    tie, so n is the multiplicity and the pairs are those of the singularity,
    whatever the coordinates of the curve.  Returns one PointAnalysis per
    refined factor; conjugate points within one factor share all numerical
    data by construction.
    """

    def run(window: int) -> list[PointAnalysis]:
        def fn(st: BranchState) -> PointAnalysis:
            R = st.quotient(SCALARS, "pt", to_dense(factor))
            xs, ys = (_shifted_series(R, f, window) for f in (curve.phi, curve.psi))
            n, ny = xs.order(), ys.order()
            if ny < n:
                xs, ys, n = ys, xs, ny
            tau_of_sigma = _standard_form(xs.normalized(), n)
            chain = scan_chain(R, _compose_laurent_series(ys, R, tau_of_sigma, window), n, 1)
            mod_now = st.modulus("pt", to_dense(factor))
            return PointAnalysis(
                factor=from_dense(mod_now),
                orbit=len(mod_now) - 1,
                n=n,
                chain=chain,
                mu=milnor_from_pairs(chain.pairs),
                mu_form1=milnor_from_exponents(chain.char_exponents, chain.dchain),
                nu=chain.nu,
                extnu=ext_codim_point(n, chain.nu),
                pairs=chain.pairs,
            )

        return explore_branches(fn)

    return _with_window(run, largest_window(exponent_profile(curve), "point"), f"point {factor!r}")


def field_linear_split(f: LaurentPoly) -> list[LaurentPoly]:
    """Split off monic linear factors with roots in the coefficient field.

    A rational root of the monic f = a + b sqrt(d) is a root of its rational
    part a, which is monic too.  The candidates are the nonzero rational
    roots allowed by the primitive integer form of a, read from its lowest
    nonzero and its leading coefficient (over Q, a is f).  What remains is
    analyzed as one dynamic-evaluation block.
    """
    f = f.monic()
    pieces: list[LaurentPoly] = []
    a = _primitive_zz(to_dense(f))
    a = a[next(i for i, c in enumerate(a) if c) :]
    cands: set = set()
    for pdiv in _divisors(abs(a[0])):
        for qdiv in _divisors(abs(a[-1])):
            cands.add(Scalar(rat(pdiv, qdiv)))
            cands.add(Scalar(rat(-pdiv, qdiv)))
    for c in sorted(cands, key=lambda s: (s.a < 0, abs(s.a))):
        while not f.is_constant() and f.eval(c).is_zero():
            pieces.append(LaurentPoly({1: Scalar(1), 0: -c}))
            f = f.divexact(pieces[-1])
    if not f.is_constant():
        pieces.append(f.monic())
    return pieces


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def singular_parameters(curve: ParametricCurve) -> list[PointAnalysis]:
    """Full singular locus with per-factor data, refined by dynamic evaluation.

    Linear factors over the coefficient field are split off first; conjugate
    orbits stay together unless a decision forces a split.
    """
    g = singular_factors(curve)
    if g.is_constant():
        return []
    out: list[PointAnalysis] = []
    for piece in field_linear_split(g):
        out.extend(analyze_point(curve, piece))
    return sorted(out, key=PointAnalysis.factor_key)


def branch_series_at_point(st: BranchState, curve: ParametricCurve, factor: LaurentPoly, window: int):
    """(factor, R, x(tau) - x0, y(tau) - y0) on the branch `st` of `factor`,
    for the semigroup oracle: the branch's factor at level "pt", its ring R
    and the two series.  Run it under :func:`explore_branches`, together with
    whatever decides in R, so that a split refines the branch."""
    R = st.quotient(SCALARS, "pt", to_dense(factor))
    xs, ys = (_shifted_series(R, f, window) for f in (curve.phi, curve.psi))
    return from_dense(st.modulus("pt", to_dense(factor))), R, xs, ys


def _shifted_series(R, f: LaurentPoly, window: int) -> TS:
    """f(c + tau) - f(c) to O(tau^window), c the generator of `R`."""
    ts = laurent_at_shifted_point(R, f, R.gen(), window)
    ts.cs[0] = R.zero()
    return ts


# ---------------------------------------------------------------------------
# places at infinity
# ---------------------------------------------------------------------------


@dataclass
class PlaceAnalysis:
    place: str  # "0" or "inf"
    base: str  # dominant coordinate ("x" or "y")
    ram: int  # its pole order at the place
    kappa: int  # signed pole order of the subordinate coordinate
    chain: ChainData
    pairs_signed: list  # (q_j, p_j): negated sigma-exponent over the residual gcd
    nu: int
    index: int | None
    delta2: int | None
    delta2_max: int

    def as_dict(self) -> dict:
        return {
            "place": self.place,
            "base": self.base,
            "ram": self.ram,
            "pairs": [list(p) for p in self.pairs_signed],
            "nu": self.nu,
            "index": self.index,
            "two_delta": self.delta2,
            "two_delta_max": self.delta2_max,
        }


def _place_orientation(prof: ExponentProfile, place: str) -> tuple[int, int, int, int]:
    """(pi_A, kappa_A, pi_B, kappa_B): signed x/y pole orders, this place first."""
    if place == "inf":
        return prof.p, prof.q, prof.r, prof.s
    return prof.r, prof.s, prof.p, prof.q


def place_base_data(prof: ExponentProfile, place: str) -> tuple[bool, int, int]:
    """(base_is_x, ram, kappa) for the dominant-coordinate chart at the place."""
    pi_a, ka_a, _, _ = _place_orientation(prof, place)
    if pi_a > 0:
        return True, pi_a, ka_a
    if ka_a > 0:
        return False, ka_a, pi_a
    raise PlaceNotAtInfinity(f"place {place} is not at infinity")


def is_tangent(prof: ExponentProfile) -> bool:
    """ps = rq with x dominant at both places: far collisions need the automaton.

    A comparison is only needed when the same coordinate has a pole at both
    places (the far fiber values can then cancel against the branch); with
    mixed dominance the far term is a pure vertical-asymptote contribution.
    For a nonconstant x, ps = rq with q, s > 0 forces p, r > 0, so x is the
    shared dominant coordinate whenever there is one.
    """
    return prof.p * prof.s == prof.r * prof.q and prof.p > 0 and prof.r > 0


def far_term(prof: ExponentProfile, place: str) -> int:
    """Contribution of the other place to the index (no tangency)."""
    pi_a, ka_a, pi_b, ka_b = _place_orientation(prof, place)
    if pi_a <= 0:  # dominant coordinate is y: swap the roles of x and y
        pi_a, ka_a, pi_b, ka_b = ka_a, pi_a, ka_b, pi_b
    if pi_a <= 0:
        raise PlaceNotAtInfinity(f"place {place} is not at infinity")
    if pi_b > 0:
        return -max(pi_b * ka_a, pi_a * ka_b)
    if ka_b > 0:
        return -pi_a * ka_b
    raise PlaceNotAtInfinity(f"other place of {place} is not at infinity")


def place_subordinate_series(curve: ParametricCurve, place: str, window: int, force_base: str | None = None):
    """(ram, lead, series in sigma) of the subordinate coordinate at one place.

    The base coordinate (dominant one unless `force_base` overrides) has
    signed order v0 = -ram and leading coefficient lead at the place, and
    equals lead sigma^v0 exactly.  Everything is over the scalars.
    """
    return _place_series(curve, exponent_profile(curve), place, window, force_base)


def _place_series(curve: ParametricCurve, prof: ExponentProfile, place: str, window: int, force_base: str | None):
    """`place_subordinate_series` for the curve's exponent profile `prof`,
    which the window attempts of one place compute once."""
    if force_base is None:
        base_is_x, ram, _ = place_base_data(prof, place)
    else:
        base_is_x = force_base == "x"
        pi_a, ka_a, _, _ = _place_orientation(prof, place)
        ram = pi_a if base_is_x else ka_a
        if ram == 0:
            raise PlaceNotAtInfinity(f"forced base has order 0 at place {place}")
    dom, sub = (curve.phi, curve.psi) if base_is_x else (curve.psi, curve.phi)
    if place == "inf":
        dom = dom.compose_inv_t()
        sub = sub.compose_inv_t()
    dom_ts = _laurent_to_ts(SCALARS, dom, window)
    return ram, dom_ts.coeff(-ram), _compose_laurent_series(sub, SCALARS, _standard_form(dom_ts, -ram), window)


def _laurent_to_ts(ring, f: LaurentPoly, window: int) -> TS:
    if f.is_zero():
        return TS(ring, window, [])
    b = f.bot()
    cs = [ring.zero()] * window
    for e, c in f.coeffs.items():
        if e - b < window:
            cs[e - b] = ring.from_scalar(c)
    return TS(ring, b, cs)


def _standard_form(dom: TS, v0: int) -> TS:
    """tau(sigma) over dom's own ring, such that dom(tau(sigma)) = lead sigma^v0.

    `dom` = lead tau^v0 (1 + h) has signed order v0 != 0, and sigma(tau) =
    tau (1 + h)^(1/v0).  tau(sigma) is the reversion of sigma(tau), whose
    Lagrange series tau / sigma(tau) = (1 + h)^(-1/v0) is one Miller
    recurrence (`TS.unit_power` of lead (1 + h)): no series is inverted.
    Nothing is adjoined; the tangency automaton, which compares coefficient
    values across the two places, adjoins the root of lead itself
    (`_rooted_series`).
    """
    return dom.shift(-v0).unit_power(QQ(-1, v0)).reversion()


def _compose_laurent_series(f, ring, inner: TS, window: int) -> TS:
    """f(inner) for a series `inner` of valuation 1 over `ring`.

    f is a Laurent polynomial over the scalars or a truncated series over
    `ring`.  Each power inner^e = sigma^e (inner / sigma)^e is known to
    `window` terms past its valuation, or to the length of inner if that is
    shorter (inner^0 = 1 to `window` terms), so the sum is known below the
    least e + that length.  The ring's `compose` sums the terms.  A
    truncated f is known only below f.prec, so its image is cut back to
    O(sigma^f.prec).
    """
    if isinstance(f, TS):
        terms = [(f.val + i, c) for i, c in enumerate(f.cs) if not ring.is_zero(c)]
        cut = f.prec
    else:
        terms = [(e, ring.from_scalar(f.coeffs[e])) for e in f.support()]
        cut = None
    if not terms:
        return TS.zero(ring, window if cut is None else cut)
    if inner.val != 1:
        raise ValueError("composition needs an inner series of valuation exactly 1")
    n = min(window, len(inner.cs))
    prec = min(e + (window if e == 0 else n) for e, _ in terms)
    lo = min(terms[0][0], prec)
    out = TS(ring, lo, ring.compose(terms, inner.cs[:n], lo, prec))
    return out if cut is None else out.truncate(cut)


def delta_max(prof: ExponentProfile) -> int:
    """2 * delta_max: finite double points of the typical curve of this profile."""
    p, q, r, s = prof.p, prof.q, prof.r, prof.s
    return (p + r - 1) * (q + s - 1) - (prof.p1 + prof.r1 - 1) + abs(p * s - r * q)


def largest_window(prof: ExponentProfile, site: str) -> int:
    """Largest window a proper parametrization needs at "point", "inf", "0" or "tangency"."""
    p, q, r, s = prof.p, prof.q, prof.r, prof.s
    if site == "point":
        a, b = max(p, 0) + max(r, 0), max(q, 0) + max(s, 0)  # ord(x - x0) <= span(x - x0) = a, same for y
        # e_l + 1 <= mu + 2 <= 2 delta + 2; 2 delta <= 2 delta_max on an annulus, <= 2 (a - 1)(b - 1) on any curve
        d2 = delta_max(prof) if min(max(p, q), max(r, s)) > 0 else 2 * (a - 1) * (b - 1)
        return max(d2 + 2, a + 1, b + 1)
    if not is_tangent(prof):
        _, ram, kappa = place_base_data(prof, site)
        # e_l + kappa + 1, with 2 delta_place <= 2 delta_max and e_l + kappa <= sigma_near + kappa (ram - 1)
        room = delta_max(prof) - delta2_max_at_place(prof, site) - far_term(prof, site)
        return room - ram + 2 + kappa * (ram - 1)
    if site != "tangency":
        # e_l + kappa + 1, with idx_inf + idx_0 <= 2, far_inf, far_0 >= -rq, sigma_near >= -kappa (ram - 1)
        return (r - 1) * s + 2 * r * q - p - r + q * (p - 1) + 1
    L = lcm(p, r)
    largest = 0
    for a, ka, b, kb in ((p, q, r, s), (r, s, p, q)):
        # last death pos_l on both sides: far_a <= (a - 1) ka + (b - 1) kb - a - b + rq (idx_inf + idx_0 <= 2),
        # the other b - 1 deaths at lead = -qL/p or later
        pos = L // a * ((a - 1) * ka + (b - 1) * kb - a - b) + (2 * b - 1) * q * L // p
        largest = max(largest, pos * a // L + ka + 1, pos * b // L + kb + 1)
    return largest


def delta2_max_at_place(prof: ExponentProfile, place: str) -> int:
    p, q, r, s = prof.p, prof.q, prof.r, prof.s
    mx = max(p * s, r * q)
    if place == "inf":
        return (p - 1) * (q - 1) - (prof.p1 - 1) + mx
    return (r - 1) * (s - 1) - (prof.r1 - 1) + mx


def analyze_place(curve: ParametricCurve, place: str) -> PlaceAnalysis:
    """Branch data, nu, index and hidden double points at one place.

    The chain reads its series to O(sigma^(window - kappa)), up to window
    `largest_window`: 2 delta_place <= 2 delta_max and e_l + kappa <=
    sigma_near + kappa (ram - 1), or idx_inf + idx_0 <= 2 when ps = rq.
    """
    prof = exponent_profile(curve)
    base_is_x, ram, kappa = place_base_data(prof, place)

    def attempt(window: int) -> ChainData:
        ram_, _, sub_sigma = _place_series(curve, prof, place, window, None)
        return scan_chain(SCALARS, sub_sigma, ram_, 1 - kappa)

    chain = _with_window(attempt, largest_window(prof, place), f"place {place}")

    pairs_signed = [
        (-(e // d), d_prev // d)
        for e, d_prev, d in zip(chain.char_exponents, chain.dchain, chain.dchain[1:])
    ]
    d2max = delta2_max_at_place(prof, place)
    idx = d2 = None
    if not is_tangent(prof):
        idx = chain.sigma_near() + far_term(prof, place) + ram + 1
        d2 = d2max + idx - 2
    return PlaceAnalysis(
        place=place,
        base="x" if base_is_x else "y",
        ram=ram,
        kappa=kappa,
        chain=chain,
        pairs_signed=pairs_signed,
        nu=chain.nu,
        index=idx,
        delta2=d2,
        delta2_max=d2max,
    )


local_puiseux = analyze_point  # the README's names for the point and place analyses
branch_at_infinity = analyze_place


def place_index(curve: ParametricCurve, place: str) -> int:
    prof = exponent_profile(curve)
    if is_tangent(prof):
        raise TangentCase("ps = rq: use the tangency analysis")
    return analyze_place(curve, place).index


def place_delta(curve: ParametricCurve, place: str) -> int:
    prof = exponent_profile(curve)
    if is_tangent(prof):
        raise TangentCase("ps = rq: use the tangency analysis")
    return analyze_place(curve, place).delta2


# ---------------------------------------------------------------------------
# tangency analysis (ps = rq)
# ---------------------------------------------------------------------------


@dataclass
class TangencyData:
    u: int  # coinciding terms on the common 1/v lattice
    v_lattice: int
    nu_tan: int
    delta2_inf: int
    index_inf: int
    index_0: int
    far_inf: int
    far_0: int
    lead_match: bool  # E_1^{p_1} = F_1^{p_1}
    third_term_direct: int  # from the exact indices

    def as_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v_lattice,
            "nu_tan": self.nu_tan,
            "two_delta_inf": self.delta2_inf,
            "index_inf": self.index_inf,
            "index_0": self.index_0,
            "lead_match": self.lead_match,
            "third_term_direct": self.third_term_direct,
        }


def leading_invariants(curve: ParametricCurve) -> tuple[Scalar, Scalar]:
    """Single-valued leading comparison E_1^{p_1} vs F_1^{p_1} when ps = rq.

    y ~ E x^(q/p) at infinity gives the invariant E^{p_1} = lc(y)^{p_1} / lc(x)^{q_1}
    with p_1 = p/gcd(p,q), q_1 = q/gcd(p,q); same with trailing data at 0.
    """
    prof = exponent_profile(curve)
    p1 = prof.p // prof.p1
    q1 = prof.q // prof.p1
    E = prof.lc_y**p1 / prof.lc_x**q1
    F = prof.tc_y**p1 / prof.tc_x**q1
    return E, F


def _coset_automaton(ring, yA: TS, yB: TS, p: int, r: int, L: int):
    """Compare the two places' expansions over all relative mu_r alignments.

    yA: series in sigma_A (lattice step L/p), yB in sigma_B (step L/r), both
    over `ring`.  Tracks alive = {zeta in mu_r : zeta^m = w} and asks for
    a = zeta^j b at each lattice position, with a, b the two coefficients (zero
    off a side's lattice) and j the position of b: both zero keeps the coset,
    exactly one zero kills all of it, and both nonzero intersect it with
    {zeta^j = a/b}, killing part or all of it.  Returns (deaths, block,
    lead_match) with deaths = [(l, count)], block = [(l, both_zero)] for
    positions where the final survivor coset still agreed.
    """
    stepA, stepB = L // p, L // r
    lead = min(yA.val * stepA, yB.val * stepB)
    m, w = r, ring.one()
    deaths: list[tuple[int, int]] = []
    block: list[tuple[int, bool]] = []
    pos = lead
    while m is not None:
        if pos >= yA.prec * stepA or pos >= yB.prec * stepB:
            raise TruncationCap("tangency comparison ran out of precision")
        a = yA.coeff(pos // stepA) if pos % stepA == 0 else None
        b = yB.coeff(pos // stepB) if pos % stepB == 0 else None
        a_zero = a is None or ring.decide_zero(a)
        b_zero = b is None or ring.decide_zero(b)
        if a_zero and b_zero:
            block.append((pos, True))
        elif a_zero or b_zero:
            deaths.append((pos, m))
            m = None
        else:
            merged = _merge_coset(ring, m, w, (pos // stepB) % r, ring.mul(a, ring.inv(b)))
            if merged is None:
                deaths.append((pos, m))
                m = None
            else:
                if merged[0] < m:
                    deaths.append((pos, m - merged[0]))
                m, w = merged
                block.append((pos, False))
        pos += 1
    lead_match = not (deaths and deaths[0][0] == lead and deaths[0][1] == r and len(block) == 0)
    # trim the block to positions before the final death
    last_death = deaths[-1][0] if deaths else pos
    block = [(l, z) for l, z in block if l < last_death]
    return deaths, block, lead_match


def _xgcd(a: int, b: int):
    old_r, rr = a, b
    old_s, ss = 1, 0
    old_t, tt = 0, 1
    while rr:
        qq = old_r // rr
        old_r, rr = rr, old_r - qq * rr
        old_s, ss = ss, old_s - qq * ss
        old_t, tt = tt, old_t - qq * tt
    return old_r, old_s, old_t


def _merge_coset(ring, m: int, w, j: int, c):
    """Intersect {zeta^m = w} with {zeta^j = c} inside mu_r.

    Returns (g, w') with the intersection = {zeta^g = w'}, or None when empty.
    g = gcd(m, j) and w' = w^alpha c^beta for alpha m + beta j = g; consistency
    requires w = w'^(m/g) and c = w'^(j/g).
    """
    gg, alpha, beta = _xgcd(m, j)
    w_p = ring.mul(ring_pow(ring, w, alpha), ring_pow(ring, c, beta))
    if not ring.decide_zero(ring.sub(ring_pow(ring, w_p, m // gg), w)):
        return None
    if not ring.decide_zero(ring.sub(ring_pow(ring, w_p, j // gg), c)):
        return None
    return gg, w_p


def _rooted_series(st: BranchState, ring, key: str, lead: Scalar, v0: int, series: TS):
    """(R2, series in sigma) for `series` in sigma' over `ring`, sigma = g^(sign v0) sigma'.

    g^|v0| = lead: the exact rational root when there is one, else the
    generator of R2 = ring[g]/(g^|v0| - lead) at tower level `key`.  The
    sigma'^k coefficient times g^(-k sign v0) is the sigma^k coefficient.
    """
    root = nth_root_exact(lead, abs(v0))
    if root is not None:
        R2, g = ring, ring.from_scalar(root)
    else:
        R2 = st.quotient(ring, key, [ring.from_scalar(-lead)] + [ring.zero()] * (abs(v0) - 1) + [ring.one()])
        g, series = R2.gen(), series.lift(R2)
    step = g if v0 < 0 else R2.inv(g)
    gk = ring_pow(R2, step, series.val)
    cs = []
    for c in series.cs:
        cs.append(R2.mul(c, gk))
        gk = R2.mul(gk, step)
    return R2, TS(R2, series.val, cs)


def tangency_delta(curve: ParametricCurve, delta2max: int, pl_inf: PlaceAnalysis | None = None, pl_0: PlaceAnalysis | None = None) -> TangencyData:
    """u, nu_tan and 2*delta_inf in the tangent case ps = rq (exact indices)."""
    prof = exponent_profile(curve)
    if not is_tangent(prof):
        raise ValueError("tangency analysis requires ps = rq with shared dominance")
    p, q, r, s = prof.p, prof.q, prof.r, prof.s
    L = lcm(p, r)
    v_lat = gcd(p, r)

    def attempt(window: int):
        ram_i, lead_i, yA = _place_series(curve, prof, "inf", window, None)
        ram_0, lead_0, yB = _place_series(curve, prof, "0", window, None)

        def fn(st: BranchState):
            Ri, yA2 = _rooted_series(st, SCALARS, "ri", lead_i, -ram_i, yA)
            # yB must be over Ri before it is lifted into Ri's extension Rf
            Rf, yB2 = _rooted_series(st, Ri, "r0", lead_0, -ram_0, yB.lift(Ri))
            yA2 = yA2.lift(Rf)
            # the branch at infinity collides with the r fiber points of the
            # zero place and vice versa: one automaton run per direction
            return _coset_automaton(Rf, yA2, yB2, p, r, L), _coset_automaton(Rf, yB2, yA2, r, p, L)

        fwd, rev = explore_branches(fn)[0]
        far_inf, far_0 = (sum(cnt * pl * k for pl, cnt in run[0]) for run, k in ((fwd, p), (rev, r)))
        if far_inf % L or far_0 % L:
            raise NotDivisible(f"tangency_delta: far terms {far_inf}/{L}, {far_0}/{L} off the lattice at window {window}")
        return fwd, far_inf // L, far_0 // L

    (_, block, lead_match), far_inf, far_0 = _with_window(attempt, largest_window(prof, "tangency"), "tangency")
    if pl_inf is None:
        pl_inf = analyze_place(curve, "inf")
    if pl_0 is None:
        pl_0 = analyze_place(curve, "0")
    idx_inf = pl_inf.chain.sigma_near() + far_inf + p + 1
    idx_0 = pl_0.chain.sigma_near() + far_0 + r + 1
    d2inf = delta2max - (2 - idx_inf - idx_0)

    # u / nu_tan on the 1/v lattice (G_u may vanish: zeros inside the block count)
    step = L // v_lat
    u = 0
    vanishing_essential = 0
    d_cur = v_lat
    for vpos, is_zero in [(pos // step, z) for pos, z in block if pos % step == 0]:
        u += 1
        essential = d_cur != 1 and vpos % d_cur != 0
        if essential:
            if is_zero:
                vanishing_essential += 1
            else:
                d_cur = gcd(d_cur, abs(vpos))
    nu_tan = u - vanishing_essential

    return TangencyData(
        u=u,
        v_lattice=v_lat,
        nu_tan=nu_tan,
        delta2_inf=d2inf,
        index_inf=idx_inf,
        index_0=idx_0,
        far_inf=far_inf,
        far_0=far_0,
        lead_match=lead_match,
        third_term_direct=(2 - idx_inf - idx_0) - _pair_sum(pl_inf.chain) - _pair_sum(pl_0.chain),
    )


def _pair_sum(chain: ChainData) -> int:
    """sum (q_j p_{j+1}..p_l - 1)(p_j - 1) p_{j+1}..p_l over the place pairs."""
    return milnor_from_exponents([-e for e in chain.char_exponents], chain.dchain)
