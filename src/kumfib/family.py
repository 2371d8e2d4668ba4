"""The one-parameter modular family, its cover tower, and the Kummer model.

Everything concrete lives here: the weight-(2,3,6) parameter maps
a(lambda), b(lambda), d(lambda) of the family, with sigma(lambda) and
pi(lambda) computed from them (LambdaFamily), the chain of double covers
whose composite is the eightfold cover
lambda(nu) = (1/16) nu^2 (1-nu^2)^2 / (1+nu^2)^4 with dihedral deck group,
the two rational elliptic surfaces whose fiber product underlies the
construction, and the affine Kummer hypersurface

    u^2 = s(s-1)(s - ((nu+1)/(nu-1))^2) * t(t-1)(t - nu^2)

with its coordinate involutions.

The middle cover in the tower has a sqrt(8) in its natural coordinate; only
its square ever enters the composite, so the tower is stored as (f1, f2,
f2 o f3) with all arithmetic over Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal

from . import kodaira, mpolar
from .exact import PoleError, Polynomial, RationalFunction, compose
from .permutations import Permutation

_NU = RationalFunction.x()
_F = Fraction


@dataclass(frozen=True)
class LambdaFamily:
    """Parameter maps of the family as exact rational functions of lambda.

    The family is its weighted parameters a, b, d.  sigma = (a^3 - b^2 + d)/d
    and pi = a^3/d follow from them, as mpolar.sigma_pi of (a, b) with d
    restored, and are computed once, when the family is built.
    """

    a_of_lambda: RationalFunction
    b_of_lambda: RationalFunction
    d_of_lambda: RationalFunction
    sigma_of_lambda: RationalFunction = field(init=False)
    pi_of_lambda: RationalFunction = field(init=False)

    def __post_init__(self):
        d = self.d_of_lambda
        sp = mpolar.sigma_pi(self.a_of_lambda, self.b_of_lambda)  # their d = 1 forms
        object.__setattr__(self, "sigma_of_lambda", (sp.sigma - 1 + d) / d)
        object.__setattr__(self, "pi_of_lambda", sp.pi / d)


#: The family's parameter maps, built once at import (the variable is lambda).
LAMBDA_FAMILY = LambdaFamily(
    a_of_lambda=_NU + _F(1, 144),
    b_of_lambda=_F(3, 8) * _NU - _F(1, 1728),
    d_of_lambda=_NU**3,
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


#: lambda(nu) = (1/16) nu^2 (1-nu^2)^2 / (1+nu^2)^4, printed form.  A call
#: evaluates in nu's own arithmetic (Fraction, mpmath, float or complex), and
#: the poles nu^2 + 1 = 0 raise PoleError.
LAMBDA_OF_NU: RationalFunction = (
    _F(1, 16) * _NU**2 * (1 - _NU**2) ** 2 / (1 + _NU**2) ** 4
)


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
        parts = []
        if self.i:
            parts.append("alpha" if self.i == 1 else f"alpha^{self.i}")
        if self.j:
            parts.append("beta")
        return f"DeckElement[{'*'.join(parts) or 'id'}]"


def _deck_base_maps() -> dict[tuple[int, int], RationalFunction]:
    maps = {}
    for j, base in ((0, _NU), (1, BETA_BASE)):
        maps[0, j] = base
        for i in range(1, 4):
            maps[i, j] = base = compose(ALPHA_BASE, base)
    return maps


#: The base map of alpha^i beta^j at (i, j), composed once at import.
_DECK_BASE_MAPS = _deck_base_maps()


def deck_element(i: int, j: int) -> DeckElement:
    """The element alpha^i beta^j, i mod 4 and j mod 2.

    The label permutation is composed from ALPHA_LABELS and BETA_LABELS at
    each call; the base map is looked up.
    """
    i %= 4
    j %= 2
    perm = BETA_LABELS if j else Permutation.identity(6)
    for _ in range(i):
        perm = ALPHA_LABELS * perm
    return DeckElement(i=i, j=j, base_map=_DECK_BASE_MAPS[i, j], label_perm=perm)


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

    The coordinates are elements of any one field, kept as given: Fraction,
    Python float or complex, mpmath, or symbolic quotients of polynomials.
    The point is on the surface when u^2 = kummer_rhs(nu, s, t).
    """

    nu: object
    s: object
    t: object
    u: object


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
