"""Numerical monodromy of the six fiber locations over the punctured modular curve.

The six base points of the I2 fibers are the roots of (P(x) - 1)(P(x) + 1)
with P = 4x^3 - 3ax - b at the d = 1 normalized parameters of the family.
Since b(lambda) carries a factor lambda^{-3/2}, the roots are tracked in the
rescaled coordinate xi = sqrt(lambda) x, where they become the roots of the
single-valued polynomial

    S(xi, lambda) = (4 xi^3 - 3 a(lambda) xi - b(lambda))^2 - d(lambda),

a, b and d = lambda^3 being the family's parameter maps, read from the one
instance family.LAMBDA_FAMILY.  The square-root branch flip around
lambda = 0 is then absorbed by the coordinate, so every loop closes on the
nose and the matching permutation is well defined.  Locally S splits as
(C - lambda^{3/2})(C + lambda^{3/2}) with C = 4 xi^3 - 3 a xi - b: two
cubics without a xi^2 term, whose root triples each sum to zero.

Conventions (frozen; the source of the reference table does not state its
own, so agreement below is asserted exactly only after a single documented
relabeling):

  * base point lambda = -257/256; principal branch of lambda^{3/2} there;
  * labels 1..3 are the roots of the cubic C = +lambda^{3/2} (the "P - 1"
    triple), labels 4..6 those of C = -lambda^{3/2}, each triple sorted by
    (Re, Im) of x = xi/sqrt(lambda);
  * every loop goes out from the base point to the leftmost point c - r of
    a circle about its puncture c, once around the circle counterclockwise,
    and back along the way out reversed; r is half the distance to the
    nearest other puncture.  The way out is the real segment, except to
    lambda = 1/256, where it is the upper half of the circle with diameter
    [base point, c - r] and so passes over lambda = 0.  Only the way out
    and the circle are tracked: continuing along the way back would undo
    the way out, so the permutation is read at c - r, matching the roots
    after the circle against the roots there before it;
  * the loop at infinity is the inverse of the finite-loop product (zero
    last), cross-checked by direct tracking along |lambda| = 8 clockwise
    (the same template with c = 0 and r = 8);
  * permutations compose right-to-left, so sigma_0 o sigma_inf o sigma_c
    is the identity.

With these conventions the tracker computes (16)(25)(34), (12), (1526)(34);
the single relabeling swapping labels 4 and 6 carries all three onto the
pinned REFERENCE_TABLE values simultaneously (find_relabeling finds it).

Arithmetic: mpmath's polyroots solves the two cubics for the two base
triples at BASE_PRECISION_BITS unless told otherwise (base_configuration is
the one place the package imports mpmath), and Newton's method on S
polishes the six roots in double precision.  The loops are then tracked in
Python complex arithmetic by a predictor-corrector that follows the two
triples: it corrects one root per cubic, labels 1 and 4, and gets the other
two of each triple by deflating its cubic, labeled by nearness to their
previous positions.  It accepts a step only when none of the six roots
moves more than a third of the previous minimum separation, sizes the next
step from the movement it measured, refuses paths that bring two roots
within a safety radius, and matches each root after the circle to a unique
nearest root at the circle's edge.  A loop is a pure function of its spec
and the precision of the base-point solve.  `kumfib monodromy` prints the
table at the defaults; the precision and the initial step count stay
parameters of the functions, which verify-paper's step-stability check and
the tests vary.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from . import family, mpolar
from .permutations import Permutation

INFINITY = "infinity"

#: Pinned reference values of the loop table (anticlockwise monodromy around
#: each puncture acting on the six labels, at base point lambda = -257/256).
#: The tracker reproduces these exactly after one documented relabeling.
REFERENCE_TABLE: dict[str, Permutation] = {
    "zero": Permutation.from_cycles(6, [(1, 4), (2, 5), (3, 6)]),
    "quarter256": Permutation.from_cycles(6, [(1, 2)]),
    "infinity": Permutation.from_cycles(6, [(1, 5, 2, 4), (3, 6)]),
}

PUNCTURES = (Fraction(0), Fraction(1, 256))

BASE_POINT = Fraction(-257, 256)
BASE_PRECISION_BITS = 128
DEFAULT_STEPS = 256
BIG_RADIUS = 8


class MonodromyError(RuntimeError):
    """Tracking failed in a way that invalidates the permutation."""


class CoarseSolveError(MonodromyError):
    """The base-point solve was too coarse for Newton's method to polish."""


@dataclass(frozen=True)
class LoopSpec:
    """One puncture loop from BASE_POINT: which puncture, and how finely."""

    center: Fraction | Literal["infinity"]
    initial_steps: int = DEFAULT_STEPS

    def resolved_radius(self) -> Fraction:
        if self.center == INFINITY:
            return Fraction(BIG_RADIUS)
        others = [p for p in PUNCTURES if p != self.center]
        return min(abs(p - self.center) for p in others) / 2


# -- the defining polynomial ----------------------------------------------------

#: Newton's stopping rule, relative to |xi|: 10 bits short of double precision.
NEWTON_TOL = 2.0**-43
#: How far, relative to the root scale, a closed loop may end from a base root,
#: and a root triple's sum from zero.  A converged double-precision loop ends
#: within about 1e-16; the roots lie at least a few thousandths apart, and the
#: tolerance never exceeds a third of their separation.
CLOSURE_TOL = 2.0**-30


_FAMILY = family.LAMBDA_FAMILY
_MAPS = (_FAMILY.a_of_lambda, _FAMILY.b_of_lambda, _FAMILY.d_of_lambda)

#: a(lambda) = A1 lambda + A0, b(lambda) = B1 lambda + B0 and d(lambda), as
#: float coefficients (lowest degree first) of the family's polynomial maps.
(_A0, _A1), (_B0, _B1), _D = (tuple(float(c) for c in f.num.coeffs) for f in _MAPS)
if _D != (0.0, 0.0, 0.0, 1.0):
    raise MonodromyError("the coordinate xi = sqrt(lambda) x needs d(lambda) = lambda^3")


def _family_coeffs(lam):
    return _A1 * lam + _A0, _B1 * lam + _B0


#: dC/dlambda = _DA xi - _B1 for C = 4 xi^3 - 3 a(lambda) xi - b(lambda).
_DA = -3 * _A1


def _newton(starts, lam, a, b):
    """Newton's method for S(., lam) = C^2 - lam^3 from each start, in order."""
    a3 = 3 * a
    lam3 = lam**3
    roots = []
    for xi in starts:
        for _ in range(30):
            c = ((4 * xi) * xi - a3) * xi - b
            try:
                step = (c * c - lam3) / (2 * c * (12 * xi * xi - a3))  # S / S_xi
            except ZeroDivisionError:
                raise MonodromyError("vanishing derivative during correction") from None
            xi = xi - step
            if abs(step) <= NEWTON_TOL * (1 + abs(xi)):
                break
        else:
            raise MonodromyError("Newton corrector failed to converge")
        roots.append(xi)
    return roots


def _check_triples(roots):
    """Refuse six roots that are not two triples each summing to zero."""
    scale = max(1, max(abs(x) for x in roots))
    if max(abs(sum(roots[:3])), abs(sum(roots[3:]))) > CLOSURE_TOL * scale:
        raise MonodromyError("roots not in label order: a triple does not sum to zero")


_BASE_CACHE: dict[int, tuple[complex, ...]] = {}


def base_configuration(precision_bits: int = BASE_PRECISION_BITS) -> tuple[complex, ...]:
    """The six xi-roots at BASE_POINT in label order (cached per precision).

    Entry i is the root labeled i + 1.  Labels 1..3 are the roots of the
    cubic C = +lambda^{3/2} (the "P - 1" triple), labels 4..6 those of
    C = -lambda^{3/2}, each triple sorted by (Re, Im) of x = xi/sqrt(lambda).

    mpmath's polyroots solves the two cubics 4 xi^3 - 3 a xi - (b +- lambda^{3/2})
    (coefficients from mpolar.fiber_cubic, principal branch of lambda^{3/2})
    at precision_bits, so the labels come from the construction; each root
    is then polished by Newton's method on S in double precision, the
    arithmetic the loops are tracked in, so a closed loop ends on roots as
    accurate as the ones it is matched against, whatever the precision of
    the solve.  A solve too coarse for Newton to polish (a step that fails
    to converge, or lands nearer another root, or a triple that no longer
    sums to zero) raises CoarseSolveError.
    """
    if precision_bits in _BASE_CACHE:
        return _BASE_CACHE[precision_bits]
    import mpmath

    cubic = mpolar.fiber_cubic(_FAMILY.a_of_lambda(BASE_POINT), _FAMILY.b_of_lambda(BASE_POINT))
    with mpmath.workprec(precision_bits):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(cubic.coeffs)]
        s32 = mpmath.sqrt(mpmath.mpf(BASE_POINT.numerator) / BASE_POINT.denominator) ** 3
        solved = [
            complex(xi)
            for shift in (s32, -s32)
            for xi in mpmath.polyroots(
                coeffs[:3] + [coeffs[3] - shift], maxsteps=200, extraprec=precision_bits
            )
        ]
    lam0 = complex(BASE_POINT)
    coarse = CoarseSolveError(f"base-point roots at {precision_bits} bits too coarse to polish")
    try:
        roots = _newton(solved, lam0, *_family_coeffs(lam0))
        _check_triples(roots)
    except MonodromyError:
        raise coarse from None
    separation = _min_pairwise(solved)
    if any(abs(p - xi) > separation / 3 for p, xi in zip(roots, solved)):
        raise coarse
    sqrt_lam = cmath.sqrt(lam0)

    def sort_key(xi):
        x = xi / sqrt_lam
        return (x.real, x.imag)

    plus, minus = (sorted(triple, key=sort_key) for triple in (roots[:3], roots[3:]))
    _BASE_CACHE[precision_bits] = (*plus, *minus)
    return _BASE_CACHE[precision_bits]


# -- path construction --------------------------------------------------------


def _segment(z0, z1):
    z0, z1 = complex(z0), complex(z1)
    return lambda t: z0 + (z1 - z0) * t


def _arc(center, radius, th0, th1):
    center = complex(center)

    def path(t):
        return center + radius * cmath.exp(1j * (th0 + (th1 - th0) * t))

    return path


def _loop_pieces(spec: LoopSpec):
    """The tracked pieces of a loop: out from BASE_POINT to c - r, and the circle.

    c is the puncture (0 for the loop at infinity) and r the resolved
    radius.  Out is the real segment while c - r lies left of 0, and
    otherwise the upper half of the circle with diameter [BASE_POINT, c - r],
    which passes over lambda = 0 and comes nearest a puncture, at distance r,
    only at its end.  The way back, out reversed, is never tracked.
    """
    if spec.center != INFINITY and spec.center not in PUNCTURES:
        raise MonodromyError(
            f"loops are defined around the punctures {PUNCTURES} or infinity, "
            f"not {spec.center}"
        )
    base = float(BASE_POINT)
    r = float(spec.resolved_radius())
    c = 0.0 if spec.center == INFINITY else float(spec.center)
    left = c - r
    if left < 0:
        out = _segment(base, left)
    else:
        out = _arc((base + left) / 2, (left - base) / 2, math.pi, 0)
    # Around infinity the circle runs clockwise: counterclockwise seen from infinity.
    end = -math.pi if spec.center == INFINITY else 3 * math.pi
    return out, _arc(c, r, math.pi, end)


# -- the tracker ----------------------------------------------------------------


def _min_pairwise(roots):
    return min(map(abs, itertools.starmap(operator.sub, itertools.combinations(roots, 2))))


def _other_roots(x1, a, near):
    """The two roots of 4 xi^3 - 3 a xi - c besides its root x1, the one nearer near first.

    Deflation leaves the quadratic xi^2 + x1 xi + x1^2 - 3a/4, with roots
    (-x1 +- sqrt(3 (a - x1^2))) / 2.
    """
    r = cmath.sqrt(3 * (a - x1 * x1))
    p, q = (r - x1) / 2, (-r - x1) / 2
    return (q, p) if abs(q - near) < abs(p - near) else (p, q)


def _track_pieces(pieces, roots, initial_steps, safety_radius):
    """Continue the six roots, given in label order, along the concatenated path pieces.

    Label order means two triples, entries 0..2 and 3..5, each the roots of
    one of the cubics C = +-lambda^{3/2}; neither cubic has a xi^2 term, so
    each triple sums to zero.  Roots whose triples do not sum to zero
    (relative to the root scale) are refused with MonodromyError, not
    mislabeled.  Continuation keeps each triple the root set of one cubic,
    so Euler's predictor and Newton's corrector run on entries 0 and 3
    only, one root per cubic; the other two roots of each cubic follow by
    deflation, each pair labeled by nearness to its previous positions.  A
    step is accepted only when none of the six roots moves more than a
    third of the previous minimum separation; a path that brings two of
    them within safety_radius is refused.

    Every piece starts at max(initial_steps, 2) subdivisions (the maximum
    step size; one step around a full circle would end where it started).
    A rejected step is halved.  After an accepted step of size h that moved
    no root more than moved, the next attempt is
    h clamp(0.8 (new_min / 3) / moved, 0.5, 2), and at most the maximum,
    with new_min the minimum separation after the step: it aims at 80 % of
    the next movement bound, at the rate of movement the last step measured.
    """
    _check_triples(roots)
    roots = list(roots)
    for path in pieces:
        max_dt = 1 / max(initial_steps, 2)
        dt_floor = max_dt / 2**30
        step_budget = max(1024, 16 * initial_steps)
        accepted = 0
        t = 0.0
        dt = max_dt
        lam = path(t)
        a, b = _family_coeffs(lam)
        prev_min = _min_pairwise(roots)
        while t < 1:
            if accepted > step_budget:
                raise MonodromyError(
                    "step budget exhausted while separations kept shrinking; "
                    "the path runs into a root degeneracy"
                )
            # Euler's step xi - (S_lam / S_xi) dlam; S_lam = 2 C dC/dlambda - 3 lambda^2
            a3, lam_sq3 = 3 * a, 3 * lam * lam
            tracked = (roots[0], roots[3])
            slopes = []
            for xi in tracked:
                c2 = 2 * (((4 * xi) * xi - a3) * xi - b)
                slopes.append((c2 * (_DA * xi - _B1) - lam_sq3) / (c2 * (12 * xi * xi - a3)))
            bound = prev_min / 3
            step = min(dt, 1 - t)
            while True:
                t2 = t + step
                lam2 = path(t2)
                a2, b2 = _family_coeffs(lam2)
                dlam = lam2 - lam
                try:
                    x1, x4 = _newton([xi - s * dlam for xi, s in zip(tracked, slopes)], lam2, a2, b2)
                except MonodromyError:
                    pass
                else:
                    candidate = [
                        x1, *_other_roots(x1, a2, roots[1]),
                        x4, *_other_roots(x4, a2, roots[4]),
                    ]
                    moved = max(map(abs, map(operator.sub, candidate, roots)))
                    if moved <= bound:
                        break
                step = step / 2
                if step < dt_floor:
                    raise MonodromyError("step size underflowed during tracking")
            new_min = _min_pairwise(candidate)
            if new_min < safety_radius:
                raise MonodromyError(
                    f"roots within {new_min:.5g} near lambda = "
                    f"{lam2:.8g}; radius too large or degenerate family"
                )
            roots = candidate
            t, lam, a, b = t2, lam2, a2, b2
            prev_min = new_min
            growth = 0.8 * new_min / 3 / moved if moved else 2
            dt = min(step * max(0.5, min(growth, 2)), max_dt)
            accepted += 1
    return roots


def _match(final, base_roots) -> Permutation:
    """The permutation taking each final root to its unique nearest base root."""
    scale = max(1, max(abs(x) for x in base_roots))
    closure_tol = min(CLOSURE_TOL * scale, _min_pairwise(base_roots) / 3)
    images = [0] * 6
    used = set()
    for i, xi in enumerate(final):
        dists = [abs(xi - base) for base in base_roots]
        j = min(range(6), key=lambda k: dists[k])
        if dists[j] > closure_tol:
            raise MonodromyError(f"loop failed to close: residual {dists[j]:.5g}")
        if j in used:
            raise MonodromyError("two roots matched the same base root")
        used.add(j)
        images[i] = j
    return Permutation(images)


def track_loop(spec: LoopSpec, precision_bits: int = BASE_PRECISION_BITS) -> Permutation:
    """The permutation of the six labels induced by one loop.

    sigma(i) = j means the root labeled i lands on the base root labeled j.
    The base roots, solved at precision_bits, are tracked in double
    precision out to the circle's edge c - r and from there once around the
    circle.  The roots after the circle are matched against those at the
    edge: the way back, out reversed, carries each edge root to the base
    root with its label.  Deterministic for a fixed spec and precision.
    """
    base_roots = base_configuration(precision_bits)
    # Legitimate loops here never push the six roots closer than a few
    # thousandths of the base scale; anything below this is a shrinking
    # pair headed for a degeneracy (radius too large, or a path through
    # a puncture).
    safety = 1e-4 * max(abs(x) for x in base_roots)
    out, circle = _loop_pieces(spec)
    edge = _track_pieces([out], base_roots, spec.initial_steps, safety)
    final = _track_pieces([circle], edge, spec.initial_steps, safety)
    return _match(final, edge)


@dataclass(frozen=True)
class PunctureTable:
    """Monodromy around the three punctures, composing to the identity.

    around_zero o around_infinity o around_quarter256 = id (right-to-left
    composition, quarter256 loop first).
    """

    around_zero: Permutation
    around_quarter256: Permutation
    around_infinity: Permutation

    def as_dict(self) -> dict[str, Permutation]:
        return {
            "zero": self.around_zero,
            "quarter256": self.around_quarter256,
            "infinity": self.around_infinity,
        }


def puncture_table(
    precision_bits: int = BASE_PRECISION_BITS,
    initial_steps: int = DEFAULT_STEPS,
    check_infinity_directly: bool = True,
) -> PunctureTable:
    """Loop permutations at the default base point.

    precision_bits is the precision of the base-point solve; initial_steps
    subdivides each piece of every loop at the largest step size.
    The infinity entry is defined by the product relation (the inverse of the
    composite of the finite loops); when check_infinity_directly is set it is
    also recomputed by tracking along |lambda| = 8 and the two must agree.
    """
    spec0 = LoopSpec(center=Fraction(0), initial_steps=initial_steps)
    specc = LoopSpec(center=Fraction(1, 256), initial_steps=initial_steps)
    g0 = track_loop(spec0, precision_bits)
    gc = track_loop(specc, precision_bits)
    ginf = g0.inverse() * gc.inverse()
    if check_infinity_directly:
        direct = track_loop(
            LoopSpec(center=INFINITY, initial_steps=initial_steps), precision_bits
        )
        if direct != ginf:
            raise MonodromyError(
                f"big-circle check failed: {direct.cycle_string()} vs "
                f"{ginf.cycle_string()}"
            )
    return PunctureTable(around_zero=g0, around_quarter256=gc, around_infinity=ginf)


# -- parity classification of deck actions ----------------------------------------

BLOCK_ONE = frozenset({1, 2, 3})
BLOCK_TWO = frozenset({4, 5, 6})


@dataclass(frozen=True)
class DeckParity:
    """Outcome of the parity test for a label permutation.

    verdict is "preserves" (even, fixes each triple setwise: the deck move
    acts by automorphisms of both elliptic surfaces), "swaps" (odd, fixes
    each triple: it exchanges the two surfaces), or "not_in_H".  For
    permutations outside H, block_image records whether the triple pair is
    swapped wholesale or broken.
    """

    verdict: Literal["preserves", "swaps", "not_in_H"]
    odd: bool
    block_image: Literal["fixed", "swapped", "broken"]


def deck_parity(tau: Permutation) -> DeckParity:
    if tau.degree != 6:
        raise ValueError("parity test expects a permutation of six labels")
    image_one = frozenset(tau(i) for i in BLOCK_ONE)
    odd = tau.is_odd
    if image_one == BLOCK_ONE:
        return DeckParity(
            verdict="swaps" if odd else "preserves", odd=odd, block_image="fixed"
        )
    if image_one == BLOCK_TWO:
        return DeckParity(verdict="not_in_H", odd=odd, block_image="swapped")
    return DeckParity(verdict="not_in_H", odd=odd, block_image="broken")


def find_relabeling(table: PunctureTable) -> Permutation | None:
    """The relabeling that conjugates the table onto REFERENCE_TABLE, or None.

    Candidates keep the pair of triples BLOCK_ONE, BLOCK_TWO (acting within
    each, possibly swapping them); the first match in lexicographic order of
    the images is returned, so the choice is deterministic and documentable.
    """
    computed = table.as_dict()
    for rho in map(Permutation, itertools.permutations(range(6))):
        if frozenset(map(rho, BLOCK_ONE)) not in (BLOCK_ONE, BLOCK_TWO):
            continue
        if all(computed[mark].conjugate_by(rho) == p for mark, p in REFERENCE_TABLE.items()):
            return rho
    return None
