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
        def lift(v):
            if isinstance(v, RationalFunction):
                return v
            if isinstance(v, Polynomial):
                return RationalFunction(v)
            return RationalFunction(Polynomial((Fraction(v),)))

        object.__setattr__(self, "a2", lift(self.a2))
        object.__setattr__(self, "a4", lift(self.a4))
        object.__setattr__(self, "a6", lift(self.a6))


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
    """Standard (c4, c6, Delta) of the model.

    b2 = 4 a2, b4 = 2 a4, b6 = 4 a6, c4 = b2^2 - 24 b4,
    c6 = -b2^3 + 36 b2 b4 - 216 b6, Delta = (c4^3 - c6^2)/1728.
    """
    b2 = 4 * w.a2
    b4 = 2 * w.a4
    b6 = 4 * w.a6
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = (c4**3 - c6**2) / 1728
    return c4, c6, delta


def j_function(w: WeierstrassFamily) -> RationalFunction:
    """c4^3 / (1728 Delta): normalized so j = 1 where c6 = 0 and j = 0 where c4 = 0."""
    c4, _, delta = c_invariants(w)
    if delta.is_zero:
        raise ClassificationError("identically singular family has no j")
    return c4**3 / (1728 * delta)


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
