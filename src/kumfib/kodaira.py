"""Kodaira fiber classification for Weierstrass families over the nu-line.

A family y^2 = x^3 + a2 x^2 + a4 x + a6 with rational-function coefficients
is classified place by place: at each closed point of the projective line
(irreducible polynomial, or infinity, where orders are taken in the local
coordinate 1/nu) the model is first made minimal by the quadratic twist
(x, y) -> (u^2 x, u^3 y), shifting the valuations of (c4, c6, Delta) by
(4k, 6k, 12k), and the fiber type is then read off the standard
residue-characteristic-zero table on the triple (v(c4), v(c6), v(Delta)).
Places, not individual complex points, carry the types, so Galois-conjugate
fibers are reported once.

The invariants are computed over one denominator and reduced once each: with
D the lcm of the denominators of a2, a4, a6 and A_i = a_i D,

    C4 = 16 A2^2 - 48 A4 D,   C6 = -64 A2^3 + 288 A2 A4 D - 864 A6 D^2,

are polynomials, c4 = C4/D^2, c6 = C6/D^3, Delta = (C4^3 - C6^2)/(1728 D^6)
and j = C4^3/(C4^3 - C6^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Place,
    Polynomial,
    RationalFunction,
    compose,  # noqa: F401  unused, but perfbench/tracing.py wraps kodaira.compose by name
    irreducible_factors,
    order_at,
)


class ClassificationError(ValueError):
    """Family cannot be classified (degenerate discriminant or table gap)."""


@dataclass(frozen=True)
class WeierstrassFamily:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 with coefficients in Q(nu)."""

    a2: RationalFunction
    a4: RationalFunction
    a6: RationalFunction

    def __post_init__(self):
        for name in ("a2", "a4", "a6"):
            v = getattr(self, name)
            if not isinstance(v, RationalFunction):
                # a Polynomial as it is, a number (a float too) exactly as a Fraction
                v = RationalFunction(v if isinstance(v, Polynomial) else Fraction(v))
                object.__setattr__(self, name, v)


@dataclass(frozen=True)
class KodairaFiber:
    """A singular fiber: its place, symbol (e.g. "I4", "II*"), and data.

    n is the index for I_n / I_n* types and None otherwise; vdelta is the
    minimal discriminant valuation (the local Euler number for these types).
    """

    place: Place
    symbol: str
    n: int | None
    vdelta: int

    def __repr__(self):
        return f"KodairaFiber({self.symbol} at {self.place!r})"


def c_invariants(
    w: WeierstrassFamily,
) -> tuple[RationalFunction, RationalFunction, RationalFunction]:
    """Standard (c4, c6, Delta) of the model, each reduced once.

    With b2 = 4 a2, b4 = 2 a4, b6 = 4 a6 the invariants are
    c4 = b2^2 - 24 b4, c6 = -b2^3 + 36 b2 b4 - 216 b6 and
    Delta = (c4^3 - c6^2)/1728.  They are computed over one denominator:
    D = lcm of the denominators of a2, a4, a6 and A_i = a_i D, so that
    C4 = 16 A2^2 - 48 A4 D and C6 = -64 A2^3 + 288 A2 A4 D - 864 A6 D^2 are
    polynomials, and (c4, c6, Delta) = (C4/D^2, C6/D^3, (C4^3 - C6^2)/(1728 D^6)).
    """
    D, C4, C6 = _numerators(w)
    return (
        RationalFunction(C4, D**2),
        RationalFunction(C6, D**3),
        RationalFunction(C4**3 - C6**2, 1728 * D**6),
    )


def j_function(w: WeierstrassFamily) -> RationalFunction:
    """c4^3 / (1728 Delta): normalized so j = 1 where c6 = 0 and j = 0 where c4 = 0.

    With C4, C6 as in c_invariants the D^6 cancels: j = C4^3 / (C4^3 - C6^2),
    one reduction.
    """
    _, C4, C6 = _numerators(w)
    num = C4**3
    den = num - C6**2
    if den.is_zero:
        raise ClassificationError("identically singular family has no j")
    return RationalFunction(num, den)


def _numerators(w: WeierstrassFamily) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(D, C4, C6): the common denominator D of a2, a4, a6 and the polynomials
    C4 = c4 D^2 and C6 = c6 D^3."""
    D = Polynomial.one()
    for a in (w.a2, w.a4, w.a6):
        D = D * (a.den // D.gcd(a.den))
    A2, A4, A6 = (a.num * (D // a.den) for a in (w.a2, w.a4, w.a6))
    C4 = 16 * A2**2 - 48 * A4 * D
    C6 = -64 * A2**3 + 288 * A2 * A4 * D - 864 * A6 * D**2
    return D, C4, C6


def _val(f: RationalFunction, place: Place) -> float:
    """Order at a place, with +inf for the zero function."""
    if f.is_zero:
        return math.inf
    return order_at(f, place)


def _classify_triple(v4, v6, vd) -> tuple[str, int | None]:
    """Kodaira symbol from minimal valuations, residue characteristic zero."""
    if vd == 0:
        return "I0", 0
    if v4 == 0:
        return f"I{vd}", vd
    if vd == 2 and v6 == 1:
        return "II", None
    if vd == 3 and v4 == 1 and v6 >= 2:
        return "III", None
    if vd == 4 and v6 == 2 and v4 >= 2:
        return "IV", None
    if vd == 6 and v4 >= 2 and v6 >= 3:
        return "I0*", 0
    if vd >= 7 and v4 == 2 and v6 == 3:
        return f"I{vd - 6}*", vd - 6
    if vd == 8 and v6 == 4 and v4 >= 3:
        return "IV*", None
    if vd == 9 and v4 == 3 and v6 >= 5:
        return "III*", None
    if vd == 10 and v6 == 5 and v4 >= 4:
        return "II*", None
    raise ClassificationError(f"no table entry for (v4, v6, vD) = ({v4}, {v6}, {vd})")


def _classify_at(c4, c6, delta, place: Place) -> KodairaFiber | None:
    v4 = _val(c4, place)
    v6 = _val(c6, place)
    vd = _val(delta, place)
    # Minimal twist: largest k with all of v4-4k, v6-6k, vd-12k >= 0, which
    # also clears pole orders (k may be negative).
    k = min(
        v4 if math.isinf(v4) else math.floor(v4 / 4),
        v6 if math.isinf(v6) else math.floor(v6 / 6),
        math.floor(vd / 12),
    )
    v4 -= 4 * k
    v6 -= 6 * k
    vd -= 12 * k
    if vd == 0:
        return None
    symbol, n = _classify_triple(v4, v6, int(vd))
    if symbol == "I0":
        return None
    return KodairaFiber(place=place, symbol=symbol, n=n, vdelta=int(vd))


def classify(w: WeierstrassFamily) -> list[KodairaFiber]:
    """All singular fibers of the family, over places including infinity.

    Candidate places are the zeros and poles of Delta together with poles of
    c4 and c6 (where a non-minimal model may hide a singular fiber), found by
    one factorisation of their product, and then the place at infinity.  The
    fibers come in that order: finite places by (degree, coefficients) of
    their minimal polynomials, infinity last.
    """
    c4, c6, delta = c_invariants(w)
    if delta.is_zero:
        raise ClassificationError("discriminant vanishes identically")
    bad = delta.num * delta.den * c4.den * c6.den
    places = [place for place, _ in irreducible_factors(bad)] + [Place.at_infinity()]
    fibers = (_classify_at(c4, c6, delta, place) for place in places)
    return [fiber for fiber in fibers if fiber is not None]
