"""Curve file format: exact JSON with explicit field tag.

A curve file is a JSON document

    {"field": {"d": 1},
     "x": [[exponent, "rational", "surd"], ...],
     "y": [[exponent, "rational", "surd"], ...]}

with exponents strictly increasing, no zero coefficients, and coefficient
parts written as exact fraction strings ("3", "-1/2").  The surd part is the
coefficient of sqrt(d); it must be "0" when d = 1.  parse and emit are
mutually inverse on canonical forms.
"""

from __future__ import annotations

import json
import re

from ._ratio import is_squarefree, rat, rat_str
from .curves import ParametricCurve
from .laurent import LaurentPoly
from .scalars import Scalar


class ParseError(ValueError):
    def __init__(self, msg: str, location: str = ""):
        super().__init__(f"{msg}{' at ' + location if location else ''}")
        self.location = location


class ZeroCoefficient(ParseError):
    pass


def _parse_component(entries, d: int, name: str) -> LaurentPoly:
    if not isinstance(entries, list):
        raise ParseError("component must be a list of terms", name)
    coeffs = {}
    prev = None
    for i, item in enumerate(entries):
        loc = f"{name}[{i}]"
        if not (isinstance(item, list) and len(item) == 3):
            raise ParseError("each term must be [exponent, rational, surd]", loc)
        e, a_s, b_s = item
        if isinstance(e, bool) or not isinstance(e, int):
            raise ParseError("exponent must be an integer", loc)
        if e in coeffs:
            raise ParseError(f"duplicate exponent {e}", loc)
        if prev is not None and e <= prev:
            raise ParseError("exponents must be strictly increasing", loc)
        prev = e
        try:
            a = rat(str(a_s))
            b = rat(str(b_s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient: {exc}", loc) from None
        if b != 0 and d == 1:
            raise ParseError("surd part present but field d = 1", loc)
        c = Scalar(a, b, d if b != 0 else 1)
        if c.is_zero():
            raise ZeroCoefficient("zero coefficient serialized", loc)
        coeffs[e] = c
    return LaurentPoly(coeffs)


def parse_curve(doc: dict) -> ParametricCurve:
    if not isinstance(doc, dict):
        raise ParseError("curve document must be a JSON object")
    try:
        d = doc["field"]["d"]
    except (KeyError, TypeError):
        raise ParseError("missing field descriptor {'field': {'d': ...}}") from None
    if isinstance(d, bool) or not isinstance(d, int):
        raise ParseError("field tag d must be an integer", "field")
    if not is_squarefree(d):
        raise ParseError(f"field tag {d} is not squarefree", "field")
    for key in ("x", "y"):
        if key not in doc:
            raise ParseError(f"missing component {key!r}")
    phi = _parse_component(doc["x"], d, "x")
    psi = _parse_component(doc["y"], d, "y")
    return ParametricCurve(phi, psi)


def parse_curve_file(text: str) -> ParametricCurve:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno} col {exc.colno}") from None
    return parse_curve(doc)


def _emit_component(f: LaurentPoly) -> list:
    out = []
    for e in sorted(f.coeffs):
        c = f.coeffs[e]
        out.append([e, rat_str(c.a), rat_str(c.b)])
    return out


def emit_curve(curve: ParametricCurve) -> dict:
    d = curve.field_tag()
    return {
        "field": {"d": d},
        "x": _emit_component(curve.phi),
        "y": _emit_component(curve.psi),
    }


def emit_curve_file(curve: ParametricCurve) -> str:
    return json.dumps(emit_curve(curve), indent=1, sort_keys=True) + "\n"


# -- small polynomial parser for --point arguments ---------------------------


def parse_point_factor(text: str, d: int = 1) -> LaurentPoly:
    """Parse a univariate polynomial like 't^2+t+1', 't-1/2', 't+(1+sqrt(5))/2'."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    # tokenize into signed terms
    terms = []
    cur = ""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur:
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs: dict[int, Scalar] = {}
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ParseError("dangling sign in polynomial")
        masked = term.replace("sqrt", "#")
        try:
            if "t" in masked:
                head, _, tail = masked.partition("t")
                e = 1
                if tail.startswith("^"):
                    e = int(tail[1:])
                elif tail:
                    raise ParseError(f"bad term {term!r}")
                cs = (head.rstrip("*") or "1").replace("#", "sqrt")
            else:
                e = 0
                cs = term
            c = _parse_scalar_expr(cs, d) * Scalar(sign)
        except ParseError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad term {term!r}: {exc}") from None
        coeffs[e] = coeffs.get(e, Scalar(0)) + c
    return LaurentPoly(coeffs)


def _parse_scalar_expr(s: str, d: int) -> Scalar:
    """Rational or (a+b*sqrt(d))/c style scalar literals."""
    s = s.strip()
    if not s:
        return Scalar(1)
    if "sqrt" not in s:
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        return Scalar(rat(s))
    # forms: sqrt(D), a+b*sqrt(D), (...)/c
    den = 1
    if s.startswith("(") and ")/" in s:
        body, _, den_s = s.rpartition("/")
        body = body.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        den = int(den_s)
        s = body
    m = re.fullmatch(r"(?:(?P<a>[+-]?\d+(?:/\d+)?))?(?P<sign>[+-])?(?:(?P<b>\d+(?:/\d+)?)\*?)?sqrt\((?P<d>-?\d+)\)", s)
    if not m:
        raise ParseError(f"cannot parse scalar {s!r}")
    a = rat(m.group("a")) if m.group("a") else rat(0)
    b = rat(m.group("b")) if m.group("b") else rat(1)
    if m.group("sign") == "-":
        b = -b
    dd = int(m.group("d"))
    if d != 1 and dd != d:
        raise ParseError(f"sqrt({dd}) is not in the curve's field Q(sqrt({d}))")
    return Scalar(a, b, dd) * Scalar(rat(1, den))
