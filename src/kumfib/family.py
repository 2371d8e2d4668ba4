"""The one-parameter modular family, its cover tower, and the Kummer model.

Everything concrete lives here: the weight-(2,3,6) parameter maps
a(lambda), b(lambda), d(lambda) of the family, the closed forms of
sigma(lambda) and pi(lambda), the chain of double covers whose composite is
the eightfold cover lambda(nu) = (1/16) nu^2 (1-nu^2)^2 / (1+nu^2)^4 with
dihedral deck group, the two rational elliptic surfaces whose fiber product
underlies the construction, and the affine Kummer hypersurface

    u^2 = s(s-1)(s - ((nu+1)/(nu-1))^2) * t(t-1)(t - nu^2)

with its coordinate involutions.

The middle cover in the tower has a sqrt(8) in its natural coordinate; only
its square ever enters the composite, so the tower is stored as (f1, f2,
f2 o f3) with all arithmetic over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from . import kodaira
from .exact import PoleError, Polynomial, RationalFunction, compose, rational_root
from .mpolar import CuspError, ModularParams
from .permutations import Permutation

_NU = RationalFunction.x()
_F = Fraction


@dataclass(frozen=True)
class LambdaFamily:
    """Parameter maps of the family as exact rational functions of lambda."""

    a_of_lambda: RationalFunction
    b_of_lambda: RationalFunction
    d_of_lambda: RationalFunction
    sigma_of_lambda: RationalFunction
    pi_of_lambda: RationalFunction


#: The family's parameter maps, built once at import (the variable is lambda).
#: sigma = 2 - 23/(192 lam) + 1/(1728 lam^2), pi = (1 + 1/(144 lam))^3.
LAMBDA_FAMILY = LambdaFamily(
    a_of_lambda=_NU + _F(1, 144),
    b_of_lambda=_F(3, 8) * _NU - _F(1, 1728),
    d_of_lambda=_NU**3,
    sigma_of_lambda=RationalFunction.of((1, -207, 3456), (0, 0, 1728)),
    pi_of_lambda=(1 + RationalFunction.of((1,), (0, 144))) ** 3,
)


def params_of_lambda(lam) -> ModularParams:
    """Exact (a, b, d) triple at a rational parameter value; lambda = 0 is the cusp."""
    lam = _F(lam)
    if lam == 0:
        raise CuspError("lambda = 0 gives d = 0 (cusp)")
    return ModularParams(
        a=LAMBDA_FAMILY.a_of_lambda(lam),
        b=LAMBDA_FAMILY.b_of_lambda(lam),
        d=LAMBDA_FAMILY.d_of_lambda(lam),
    )


@dataclass(frozen=True)
class CoverTower:
    """The chain of double covers over the modular curve.

    f1 maps the level-2 curve down (lambda = -mu^2 + 1/256), f2 the level-4
    curve (mu = -mu'^2 + 1/16), and f2_f3 is the exact composite of f2 with
    the last cover, as a function of the top coordinate nu.  lambda_of_nu is
    the full composite, an eightfold cover.
    """

    f1: RationalFunction
    f2: RationalFunction
    f2_f3: RationalFunction
    lambda_of_nu: RationalFunction


def cover_tower() -> CoverTower:
    x = _NU
    f1 = _F(1, 256) - x**2
    f2 = _F(1, 16) - x**2
    # mu'(nu) = (1/sqrt8)(1-nu^2)/(1+nu^2); only its square enters:
    f2_f3 = _F(1, 16) - _F(1, 8) * ((1 - x**2) / (1 + x**2)) ** 2
    lam = compose(f1, f2_f3)
    return CoverTower(f1=f1, f2=f2, f2_f3=f2_f3, lambda_of_nu=lam)


#: lambda(nu) = (1/16) nu^2 (1-nu^2)^2 / (1+nu^2)^4, printed form.
LAMBDA_OF_NU: RationalFunction = (
    _F(1, 16) * _NU**2 * (1 - _NU**2) ** 2 / (1 + _NU**2) ** 4
)


def lambda_of_nu(nu):
    """Evaluate the eightfold cover LAMBDA_OF_NU at nu, in nu's own arithmetic.

    Rational input gives an exact Fraction; an arbitrary-precision number
    gives a value at its working precision, and float or complex input a
    float or complex.  The poles nu^2 + 1 = 0 raise PoleError.
    """
    return LAMBDA_OF_NU(nu)


# -- the dihedral deck action ---------------------------------------------------

ALPHA_BASE: RationalFunction = RationalFunction.of((-1, 1), (1, 1))  # nu -> (nu-1)/(nu+1)
BETA_BASE: RationalFunction = RationalFunction.of((0, -1))  # nu -> -nu
IOTA_BASE: RationalFunction = RationalFunction.of((1, 1), (-1, 1))  # nu -> (nu+1)/(nu-1)

ALPHA_LABELS = Permutation.from_cycles(6, [(1, 5, 2, 4), (3, 6)])
BETA_LABELS = Permutation.from_cycles(6, [(1, 4), (2, 5), (3, 6)])


@dataclass(frozen=True)
class DeckElement:
    """Normal form alpha^i beta^j of the order-8 dihedral deck group.

    base_map is the induced automorphism of the nu-line; label_perm is the
    action on the six fiber-location labels.  The word acts right-to-left:
    alpha^i beta^j means apply beta^j first.
    """

    i: int
    j: int
    base_map: RationalFunction
    label_perm: Permutation

    @property
    def word(self) -> str:
        parts = []
        if self.i:
            parts.append("alpha" if self.i == 1 else f"alpha^{self.i}")
        if self.j:
            parts.append("beta")
        return "*".join(parts) or "id"

    def __mul__(self, other: "DeckElement") -> "DeckElement":
        # beta alpha beta = alpha^{-1}, so beta^j alpha^k = alpha^{(-1)^j k} beta^j.
        i = (self.i + (other.i if self.j == 0 else -other.i)) % 4
        j = (self.j + other.j) % 2
        return deck_element(i, j)

    def inverse(self) -> "DeckElement":
        if self.j == 0:
            return deck_element((-self.i) % 4, 0)
        return deck_element(self.i, 1)

    def __repr__(self):
        return f"DeckElement[{self.word}]"


def deck_element(i: int, j: int) -> DeckElement:
    """The element alpha^i beta^j, i mod 4 and j mod 2."""
    i %= 4
    j %= 2
    base, perm = RationalFunction.of((0, 1)), Permutation.identity(6)
    if j:
        base, perm = BETA_BASE, BETA_LABELS
    for _ in range(i):
        base = compose(ALPHA_BASE, base)
        perm = ALPHA_LABELS * perm
    return DeckElement(i=i, j=j, base_map=base, label_perm=perm)


def all_deck_elements() -> list[DeckElement]:
    return [deck_element(i, j) for j in (0, 1) for i in range(4)]


# -- the two rational elliptic surfaces --------------------------------------------


def e1_model() -> kodaira.WeierstrassFamily:
    """z^2 = t(t-1)(t-nu^2) as t^3 + a2 t^2 + a4 t + a6 over the nu-line."""
    nu2 = _NU**2
    return kodaira.WeierstrassFamily(
        a2=-(1 + nu2), a4=nu2, a6=RationalFunction(Polynomial.zero())
    )


def e2_model() -> kodaira.WeierstrassFamily:
    """The partner surface: the first model precomposed with nu -> (nu+1)/(nu-1)."""
    e1 = e1_model()
    return kodaira.WeierstrassFamily(*(compose(f, IOTA_BASE) for f in (e1.a2, e1.a4, e1.a6)))


# -- the affine Kummer hypersurface and its involutions ------------------------------

Involution = Literal["beta", "iota", "iota_prime"]

#: Base maps on the nu-line covered by the three coordinate maps.
INVOLUTION_BASE_MAPS: dict[str, RationalFunction] = {
    "beta": BETA_BASE,
    "iota": IOTA_BASE,
    "iota_prime": ALPHA_BASE,
}


def kummer_rhs(nu, s, t):
    """s(s-1)(s - ((nu+1)/(nu-1))^2) * t(t-1)(t - nu^2), in any field."""
    q = (nu + 1) / (nu - 1)
    return s * (s - 1) * (s - q * q) * t * (t - 1) * (t - nu * nu)


@dataclass(frozen=True)
class KummerPoint:
    """A point (nu, s, t, u) of the affine Kummer model.

    Coordinates are either all exact (Fraction) or all floating (any numeric
    type with abs, arbitrary-precision or Python float and complex); make
    turns ints into Fractions and keeps every other value as given.
    """

    nu: object
    s: object
    t: object
    u: object

    @staticmethod
    def make(nu, s, t, u) -> "KummerPoint":
        return KummerPoint(*(_F(v) if isinstance(v, int) else v for v in (nu, s, t, u)))

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in (self.nu, self.s, self.t, self.u))

    def on_surface(self, tol=1e-20) -> bool:
        """Whether u^2 equals the defining product, exactly or within tol.

        The floating test is relative to max(1, |rhs|, |u|^2); the default
        tol assumes arbitrary-precision coordinates at a high working precision.
        """
        if self.nu in (1, -1):
            raise PoleError("the affine model degenerates at nu = +-1")
        rhs = kummer_rhs(self.nu, self.s, self.t)
        diff = self.u * self.u - rhs
        if self.is_exact:
            return diff == 0
        return abs(diff) <= tol * max(1, abs(rhs), abs(self.u) ** 2)


def apply_involution(which: Involution, p: KummerPoint) -> KummerPoint:
    """Apply one of the coordinate maps covering the deck action.

    beta and iota are involutions; iota_prime covers the order-4 generator
    (its base map squares to nu -> -1/nu).  Each maps the solution set of
    the Kummer equation to itself.  Poles of the coordinate maps (nu = -1
    for beta and iota_prime, nu = 1 for iota) are rejected.
    """
    nu, s, t, u = p.nu, p.s, p.t, p.u
    if which == "beta":
        if nu == -1:
            raise PoleError("beta is undefined at nu = -1")
        r = (nu - 1) / (nu + 1)
        return KummerPoint(-nu, r * r * s, t, r * r * r * u)
    if which == "iota":
        if nu == 1:
            raise PoleError("iota is undefined at nu = 1")
        return KummerPoint((nu + 1) / (nu - 1), t, s, u)
    if which == "iota_prime":
        if nu == -1:
            raise PoleError("iota_prime is undefined at nu = -1")
        m = (nu - 1) / (nu + 1)
        return KummerPoint(m, t, m * m * s, m * m * m * u)
    raise ValueError(f"unknown involution {which!r}")


def random_surface_point(rng) -> KummerPoint:
    """A random exact on-surface point, for involution round-trip tests.

    Draws rational (nu, s, t) = (a/b, c/d, e/f) until the defining product
    is a rational square, then takes u to be its root.  The product is
    N / (d^3 f^3 (a-b)^2 b^2) with the integer
    N = c(c-d)(c(a-b)^2 - d(a+b)^2) * e(e-f)(e b^2 - f a^2), so it is a
    positive rational square exactly when m = N d f is a positive integer
    square; draws are tested in integers, and only the accepted one is
    turned into Fractions.
    """
    for _ in range(5000):
        a, b = rng.randint(2, 9), rng.randint(1, 4)
        c, d = rng.randint(-9, 9), rng.randint(1, 5)
        e, f = rng.randint(-9, 9), rng.randint(1, 5)
        if a == b or c == 0 or e == 0:  # nu = 1, s = 0 or t = 0
            continue
        s_part = c * (c - d) * (c * (a - b) ** 2 - d * (a + b) ** 2)
        m = s_part * e * (e - f) * (e * b * b - f * a * a) * d * f
        if m > 0 and math.isqrt(m) ** 2 == m:
            nu, s, t = _F(a, b), _F(c, d), _F(e, f)
            return KummerPoint(nu, s, t, rational_root(kummer_rhs(nu, s, t), 2))
    raise RuntimeError("failed to sample an on-surface point")
