"""Exact univariate polynomial and rational-function arithmetic.

Representation:

  Polynomial       dense tuple of coefficients, constant term first, trailing
                   zeros stripped (the zero polynomial is the empty tuple).
  RationalFunction numerator/denominator pair of Polynomials, always reduced
                   to coprime form with a monic denominator, so structural
                   equality is mathematical equality.
  Place            a closed point of the projective line over Q, held as its
                   monic irreducible polynomial, or None for the point at
                   infinity.  Galois-conjugate complex points share one Place.

Coefficients live in any field implementing +, -, *, /, ==, bool.  Plain ints
are coerced to Fraction, so ordinary use is exact arithmetic over Q.  Because
RationalFunction itself satisfies the field protocol, towers such as
Q(nu)[s] or Q(nu)(s)(t) come for free by nesting.

Factorization into irreducibles delegates the factor-finding step to sympy
(exact Zassenhaus-style factorization over Q, sympy imported only then);
everything else, rational_sqrt included, is standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class ExactAlgebraError(ValueError):
    """Invalid request to the exact-arithmetic layer."""


class PoleError(ExactAlgebraError):
    """Evaluation or substitution landed on a pole."""


def _coerce(c):
    return Fraction(c) if isinstance(c, int) else c


class Polynomial:
    """Dense univariate polynomial over a field (Q by default)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial((c,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ExactAlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("poly", self.coeffs))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        a, b = self.coeffs, other.coeffs
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                t = ca * cb
                out[i + j] = t if out[i + j] is None else out[i + j] + t
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ExactAlgebraError("negative polynomial power; use RationalFunction")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _lift(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,))
        return NotImplemented

    # -- euclidean structure -------------------------------------------------

    def __divmod__(self, other: "Polynomial"):
        """Classical long division in place on the coefficient list."""
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        d = len(b) - 1
        lead = b[-1]
        r = list(self.coeffs)
        q = [0] * max(len(r) - d, 0)
        for k in reversed(range(len(q))):
            if not r[k + d]:  # a cancelled term: the quotient skips this degree
                continue
            c = q[k] = r[k + d] / lead
            for i in range(d):
                r[k + i] = r[k + i] - c * b[i]
        return Polynomial(q), Polynomial(r[:d])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.leading
        return Polynomial(tuple(c / lead for c in self.coeffs))

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    # -- evaluation and substitution ----------------------------------------

    def __call__(self, x):
        """Evaluate by Horner; x may be any value the coefficients mix with."""
        if not self.coeffs:
            return 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts).replace("+ -", "- ")


class RationalFunction:
    """Quotient of Polynomials, stored coprime with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = Polynomial((1,))):
        if not isinstance(num, Polynomial):
            num = Polynomial((num,))
        if not isinstance(den, Polynomial):
            den = Polynomial((den,))
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            object.__setattr__(self, "num", Polynomial.zero())
            object.__setattr__(self, "den", Polynomial.one())
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lead = den.leading
        if lead != 1:
            num = num * Polynomial((1 / lead,))
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def x() -> "RationalFunction":
        return RationalFunction(Polynomial.x())

    @staticmethod
    def constant(c) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(c))

    @staticmethod
    def of(num_coeffs: Sequence, den_coeffs: Sequence = (1,)) -> "RationalFunction":
        return RationalFunction(Polynomial(num_coeffs), Polynomial(den_coeffs))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self):
        if not self.is_constant:
            raise ExactAlgebraError(f"{self!r} is not constant")
        if self.num.is_zero:
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

    def __bool__(self):
        return not self.num.is_zero

    def _field_one(self):
        # The denominator is monic, so its leading coefficient is the
        # multiplicative identity of the coefficient field.
        return self.den.leading

    def _lift(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            one = self._field_one()
            return RationalFunction(Polynomial((one * other,)), Polynomial((one,)))
        return NotImplemented

    def __eq__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_constant:
            return hash(self.constant_value())
        return hash(("rf", self.num.coeffs, self.den.coeffs))

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        lifted = self._lift(other)
        if lifted is NotImplemented:
            return NotImplemented
        return lifted / self

    def __pow__(self, n: int):
        if n < 0:
            return (RationalFunction(self.den, self.num)) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        """Exact or numeric evaluation; raises PoleError on a pole."""
        d = self.den(x)
        if not d:
            raise PoleError(f"pole at {x!r}")
        return self.num(x) / d

    def __repr__(self):
        if self.den == Polynomial.one():
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"


def compose(outer: RationalFunction, inner: RationalFunction) -> RationalFunction:
    """Exact composition outer(inner(x)), reduced to coprime form.

    With outer = (sum n_i y^i) / (sum d_i y^i), inner = p/q and d the larger
    of the two degrees of outer, outer(inner) = N/D for the homogenised forms
    N = sum n_i p^i q^(d-i) and D = sum d_i p^i q^(d-i), built as Polynomials
    from the powers of p and q.  One reduction RationalFunction(N, D) then
    suffices, where Horner in the field would reduce at every step; N and D
    are in fact already coprime, as both pairs num/den and p/q are.

    Composition with a constant inner map yields a constant; an inner map
    whose image lies in the pole locus of outer raises PoleError.
    """
    if not isinstance(outer, RationalFunction):
        outer = RationalFunction(outer)
    if not isinstance(inner, RationalFunction):
        inner = RationalFunction(inner)
    d = max(outer.num.degree, outer.den.degree)
    p_pows, q_pows = [Polynomial.one()], [Polynomial.one()]
    for _ in range(d):
        p_pows.append(p_pows[-1] * inner.num)
        q_pows.append(q_pows[-1] * inner.den)
    terms = [p_pows[i] * q_pows[d - i] for i in range(d + 1)]

    def form(f: Polynomial) -> Polynomial:
        return sum((Polynomial((c,)) * t for c, t in zip(f.coeffs, terms) if c), Polynomial.zero())

    den = form(outer.den)
    if den.is_zero:
        raise PoleError("inner map lands identically in the pole locus of outer")
    return RationalFunction(form(outer.num), den)


@dataclass(frozen=True)
class Place:
    """A closed point of the projective line over Q: its minimal polynomial.

    minimal_polynomial is the monic irreducible polynomial whose roots the
    place collects (a nonconstant one is normalised to monic), or None for
    the point at infinity.  The constructor trusts irreducibility;
    Place.finite checks it.  Places are values: equal polynomials give
    equal, equally hashed places.
    """

    minimal_polynomial: Polynomial | None = None

    def __post_init__(self):
        poly = self.minimal_polynomial
        if poly is not None:
            if poly.degree < 1:
                raise ExactAlgebraError("finite place needs a nonconstant polynomial")
            object.__setattr__(self, "minimal_polynomial", poly.monic())

    @staticmethod
    def finite(poly: Polynomial) -> "Place":
        """The place of an irreducible polynomial; a reducible one is refused."""
        place = Place(poly)
        if not _is_irreducible(place.minimal_polynomial):
            raise ExactAlgebraError(
                f"minimal polynomial {place.minimal_polynomial!r} is reducible over Q"
            )
        return place

    @staticmethod
    def at(value) -> "Place":
        """The rational point x = value."""
        return Place(Polynomial((-Fraction(value), 1)))

    @staticmethod
    def at_infinity() -> "Place":
        return Place()

    @property
    def is_infinity(self) -> bool:
        return self.minimal_polynomial is None

    @property
    def degree(self) -> int:
        return 1 if self.is_infinity else self.minimal_polynomial.degree

    def __repr__(self):
        if self.is_infinity:
            return "Place(infinity)"
        return f"Place({self.minimal_polynomial!r} = 0)"


# -- rational square roots ------------------------------------------------------


def rational_sqrt(q) -> Fraction | None:
    """The rational square root of q, or None when q is not a rational square.

    q in lowest terms is a square exactly when its numerator and denominator
    are, so two integer square roots decide it.
    """
    q = Fraction(q)
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(num, den) if num * num == q.numerator and den * den == q.denominator else None


# -- factorization and orders (Q coefficients only) ---------------------------


def _to_sympy(p: Polynomial):
    import sympy

    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ")


def _from_sympy(sp) -> Polynomial:
    cs = [Fraction(c.p, c.q) for c in reversed(sp.all_coeffs())]
    return Polynomial(cs)


def _is_irreducible(p: Polynomial) -> bool:
    if p.degree == 1:
        return True
    _, factors = _to_sympy(p).factor_list()
    return len(factors) == 1 and factors[0][1] == 1


def irreducible_factors(p: Polynomial) -> list[tuple[Place, int]]:
    """Complete factorization over Q into (Place, multiplicity) pairs.

    The product of the places' monic polynomials to their multiplicities
    times the constant p/product reproduces p; a constant polynomial gives
    the empty list.  Output is sorted by (degree, coefficients) so results
    are deterministic.
    """
    if p.is_zero:
        raise ExactAlgebraError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    _, factors = _to_sympy(p).factor_list()
    out = []
    for f, mult in factors:
        out.append((Place(_from_sympy(f)), int(mult)))  # irreducible already
    out.sort(key=lambda pm: (pm[0].minimal_polynomial.degree, pm[0].minimal_polynomial.coeffs))
    return out


def multiplicity_in(p: Polynomial, factor: Polynomial) -> int:
    """Exact multiplicity of a monic factor in p (0 when coprime)."""
    if p.is_zero:
        raise ExactAlgebraError("zero polynomial has infinite multiplicity")
    count = 0
    while True:
        q, r = divmod(p, factor)
        if not r.is_zero:
            return count
        p = q
        count += 1


def order_at(f: RationalFunction | Polynomial, p: Place) -> int:
    """Order of vanishing (positive) or pole order (negative) of f at p.

    The order at infinity is deg(denominator) - deg(numerator), i.e. the
    order in the local coordinate w = 1/x.
    """
    if isinstance(f, Polynomial):
        f = RationalFunction(f)
    if f.is_zero:
        raise ExactAlgebraError("the zero function has no well-defined order")
    if p.is_infinity:
        return f.den.degree - f.num.degree
    m = p.minimal_polynomial
    return multiplicity_in(f.num, m) - multiplicity_in(f.den, m)
