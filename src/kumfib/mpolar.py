"""Parameter arithmetic for K3 surfaces polarized by H + E8 + E8.

Such surfaces are classified by a triple (a, b, d) of weights (2, 3, 6) with
d != 0; everything here takes the d = 1 normalized pair (a, b).  This module
provides the sigma/pi invariants, the discriminant that controls when the
two fiber j-invariants coincide, and the cubic whose shifted root sets
locate the six I2 fibers of the induced fibration on the Kummer side.

The weight-3 parameter b survives normalization only up to sign; everything
here depends on b through b^2 except fiber_cubic, which takes a
caller-chosen sign of b (the two choices swap the root triples together with
x -> -x).  Branch tracking along parameter paths is the monodromy module's
job, keeping this module exact and branch-free; its exact square roots come
from exact.rational_sqrt, so it needs no sympy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Polynomial, _coerce, rational_sqrt


@dataclass(frozen=True)
class SigmaPi:
    """The symmetric functions of the two fiber j-invariants."""

    sigma: Fraction
    pi: Fraction


def sigma_pi(a, b) -> SigmaPi:
    """sigma = a^3 - b^2 + 1 and pi = a^3, for d = 1 normalized (a, b).

    Accepts Fractions for exact point evaluation, or any field element
    (rational functions included) for symbolic identity checks.
    """
    a = _coerce(a)
    b = _coerce(b)
    a3 = a * a * a
    return SigmaPi(sigma=a3 - b * b + 1, pi=a3)


def discriminant_delta(a, b):
    """(a^3 - (b-1)^2)(a^3 - (b+1)^2), the discriminant of the j quadratic.

    Vanishes exactly when the six fiber locations degenerate, equivalently
    when the two j-invariants coincide (it equals sigma^2 - 4 pi).
    """
    a = _coerce(a)
    b = _coerce(b)
    a3 = a * a * a
    return (a3 - (b - 1) * (b - 1)) * (a3 - (b + 1) * (b + 1))


def fiber_cubic(a: Fraction, b: Fraction) -> Polynomial:
    """The cubic P = 4x^3 - 3ax - b.

    The roots of P - 1 and P + 1 are the base points of the six I2 fibers of
    the induced fibration on the Kummer side (I1 fibers of the alternate
    fibration upstairs); the six are distinct iff a^3 != (b +- 1)^2.
    """
    return Polynomial((-Fraction(b), -3 * Fraction(a), 0, 4))


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact value rational_part + radical_coeff * sqrt(radicand).

    The radicand is normalized: if it is a perfect square (or the coefficient
    vanishes) the value collapses to a plain rational with radicand 0.  The
    radicand may be negative, in which case the value is complex and its
    conjugate partner is the other root of the defining quadratic.
    """

    rational_part: Fraction
    radical_coeff: Fraction
    radicand: Fraction

    @staticmethod
    def make(rational_part, radical_coeff, radicand) -> "QuadraticSurd":
        rational_part = Fraction(rational_part)
        radical_coeff = Fraction(radical_coeff)
        radicand = Fraction(radicand)
        if radical_coeff == 0 or radicand == 0:
            return QuadraticSurd(rational_part, Fraction(0), Fraction(0))
        root = rational_sqrt(radicand)
        if root is not None:
            return QuadraticSurd(rational_part + radical_coeff * root, Fraction(0), Fraction(0))
        return QuadraticSurd(rational_part, radical_coeff, radicand)

    @property
    def is_rational(self) -> bool:
        return self.radical_coeff == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.rational_part

    def __add__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        if self.radicand != other.radicand and not (self.is_rational or other.is_rational):
            raise ValueError("cannot add surds over different radicands")
        radicand = self.radicand if not self.is_rational else other.radicand
        return QuadraticSurd.make(
            self.rational_part + other.rational_part,
            self.radical_coeff + other.radical_coeff,
            radicand,
        )

    def __mul__(self, other: "QuadraticSurd") -> "QuadraticSurd":
        if self.radicand != other.radicand and not (self.is_rational or other.is_rational):
            raise ValueError("cannot multiply surds over different radicands")
        radicand = self.radicand if not self.is_rational else other.radicand
        return QuadraticSurd.make(
            self.rational_part * other.rational_part
            + self.radical_coeff * other.radical_coeff * radicand,
            self.rational_part * other.radical_coeff
            + self.radical_coeff * other.rational_part,
            radicand,
        )


def j_pair(sp: SigmaPi) -> tuple[QuadraticSurd, QuadraticSurd]:
    """The two roots of j^2 - sigma j + pi = 0 as exact surds.

    Returned as (sigma +- sqrt(sigma^2 - 4 pi))/2; the pair may be equal
    (double root) or live in a quadratic extension of Q.
    """
    disc = sp.sigma * sp.sigma - 4 * sp.pi
    half = Fraction(1, 2)
    return (
        QuadraticSurd.make(sp.sigma * half, half, disc),
        QuadraticSurd.make(sp.sigma * half, -half, disc),
    )
