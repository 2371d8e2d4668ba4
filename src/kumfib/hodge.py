"""Calabi-Yau admissibility, fiber inventories and Hodge numbers.

For a cover of the modular base with branch data (n, x, y, z, r) the pulled
back Kummer-fibred threefold has trivial canonical sheaf iff

    k + l + m - n - r = 2  and  (l = 2 with y1, y2 in {1, 2, 4}  or  l = 1 with y1 = 8),

that is, iff the data admits a rational cover (Riemann-Hurwitz, equivalent
to the degree equation) and y is one of the profiles in CY_INFINITY_PROFILES.
Such data has degree n = sum(y) <= 8, the bound hurwitz.MAX_SEARCH_DEGREE.
The threefold is guaranteed smooth when the cover is unramified over 1/256
(m = n; the criterion is sufficient only), and, when l = 2, has

    h11 = 12 + sum_{x odd} x^2 + sum_{x even} (x^2 + 1) + s + c1 + c2,
    h21 = k + (m_odd - n)/2 + p_g,

with c_j = 19, 8, 0 for y_j = 1, 2, 4, s the number of components of the
pulled-back fixed curve and p_g its geometric genus.  s and p_g depend on the
actual monodromy tuple, not just the branch data, so the analysis pipeline
consumes explicit tuples and emits one report per distinct (s, p_g) outcome,
flagged when ambiguous.  When only branch data is given, the tuples are
searched for only when the data is Calabi-Yau: non-CY data that admits a
rational cover has no Hodge formula for s and p_g to enter, so it is
answered from the data alone.

The l = 1 (y = 8) case has no tabulated c_j and the Hodge formulas are not
extended to it; requesting them reports "unsupported" instead of a guess.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .hurwitz import (
    C2_COMPONENTS,
    MAX_CANDIDATES,
    SEARCH_LIMIT,
    BranchData,
    HurwitzCover,
    InvalidCoverError,
    SearchResult,
    branch_data_of,
    check_budget,
    pullback,
    search_tuples,
    validate,
)


class UnsupportedError(ValueError):
    """The requested quantity is outside the tabulated cases."""


class InternalError(RuntimeError):
    """A computed value breaks an identity that holds for all valid data: a program fault."""


#: New divisor classes contributed over infinity by ramification order.
C_BY_Y = {1: 19, 2: 8, 4: 0}

#: Multiplicity profiles (multiplicity, how many components) by ramification order.
MULTIPLICITIES_BY_Y = {
    1: ((4, 1), (3, 2), (2, 7), (1, 10)),
    2: ((2, 1), (1, 8)),
    4: ((1, 1),),
    8: ((1, 1),),
}

#: Component counts of the fiber over infinity by ramification order: 20, 9, 1, 1.
COMPONENTS_BY_Y = {y: sum(count for _, count in profile) for y, profile in MULTIPLICITIES_BY_Y.items()}


#: Infinity profiles y of Calabi-Yau branch data: two points of order 1, 2
#: or 4, or one point of order 8 (sorted as BranchData stores them).
CY_INFINITY_PROFILES = ((1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4), (8,))


def cy_condition(b: BranchData) -> bool:
    """Whether the pulled-back threefold has trivial canonical sheaf."""
    return b.admits_rational_cover() and b.y in CY_INFINITY_PROFILES


def smoothness(b: BranchData) -> bool:
    """The sufficient smoothness criterion: unramified over 1/256 (m = n).

    False does not imply singular; it only means smoothness is not granted by
    this criterion (the reference quotient model itself is smooth with m < n).
    The actual singularity census is in fiber_inventory.
    """
    return b.m == b.n


def components_over_zero(x: int) -> int:
    """x^2 + 2 components when x is even, x^2 + 1 when odd."""
    return x * x + 2 if x % 2 == 0 else x * x + 1


@dataclass(frozen=True)
class FiberInventory:
    """Component and singularity bookkeeping of the singular fibers.

    zero_fibers: (ramification order x, component count) per point over 0.
    infinity_fibers: (order y, component count or None, multiplicity profile
    or None) per point over infinity; None marks orders with no tabulated
    resolution.  quarter_points: (order z, number of isolated terminal
    points, each of type cA_{z-1}) per point over 1/256.
    """

    zero_fibers: tuple[tuple[int, int], ...]
    infinity_fibers: tuple[tuple[int, int | None, tuple | None], ...]
    quarter_points: tuple[tuple[int, int], ...]

    def terminal_singularity_count(self) -> int:
        return sum(count for _, count in self.quarter_points)


def fiber_inventory(b: BranchData) -> FiberInventory:
    """Counts for every singular fiber of the pulled-back threefold.

    Defined for any branch data (the Calabi-Yau condition is not required).
    Ramification orders over infinity outside {1, 2, 4, 8} carry no tabulated
    fiber and are reported with None counts.
    """
    zero = tuple((x, components_over_zero(x)) for x in b.x)
    infinity = tuple(
        (y, COMPONENTS_BY_Y.get(y), MULTIPLICITIES_BY_Y.get(y)) for y in b.y
    )
    quarter = tuple((z, 2 if z > 1 else 0) for z in b.z)
    return FiberInventory(
        zero_fibers=zero, infinity_fibers=infinity, quarter_points=quarter
    )


def h11(b: BranchData, s: int) -> int:
    """12 + sum over x odd of x^2 + sum over x even of (x^2+1) + s + c1 + c2.

    Requires two points over infinity with orders in {1, 2, 4}; s is the
    number of components of the pulled-back fixed curve.
    """
    if b.l != 2:
        raise UnsupportedError(
            f"h11 formula needs exactly two points over infinity, got l={b.l}"
        )
    try:
        c1, c2 = (C_BY_Y[y] for y in b.y)
    except KeyError:
        raise UnsupportedError(
            f"no divisor-class table for infinity profile {b.y}"
        ) from None
    vertical = sum(components_over_zero(x) - 1 for x in b.x)
    return 12 + vertical + s + c1 + c2


def h21(b: BranchData, p_g: int) -> int:
    """k + (m_odd - n)/2 + p_g, with the unramified-case identity enforced
    (InternalError if it fails).

    p_g is the geometric genus of the pulled-back fixed curve (sum of the
    component genera of its normalization).
    """
    if b.l != 2:
        raise UnsupportedError(
            f"h21 formula needs exactly two points over infinity, got l={b.l}"
        )
    if (b.m_odd - b.n) % 2:
        # Unreachable for genuine partitions: n and m_odd always share parity.
        raise InternalError("parity violation in (m_odd - n)/2")
    value = b.k + (b.m_odd - b.n) // 2 + p_g
    if b.m == b.n and cy_condition(b) and value != b.r + p_g:
        raise InternalError(
            "internal inconsistency: unramified case must equal r + p_g"
        )
    return value


@dataclass(frozen=True)
class HodgeTriple:
    h11: int
    h21: int
    euler: int


@dataclass(frozen=True)
class ReferenceConstants:
    """Pinned invariants of the two reference threefolds.

    product_resolution: the rigid Calabi-Yau obtained as a small projective
    resolution of the fiber product of the two rational elliptic surfaces.
    kummer_model: the Calabi-Yau obtained from it by the fibrewise Kummer
    construction (the n = 8 regular-cover member of the family).
    """

    product_resolution: HodgeTriple
    kummer_model: HodgeTriple


def reference_constants() -> ReferenceConstants:
    return ReferenceConstants(
        product_resolution=HodgeTriple(h11=32, h21=0, euler=64),
        kummer_model=HodgeTriple(h11=40, h21=0, euler=80),
    )


# -- the full pipeline ----------------------------------------------------------


#: The distinct fixed-curve components and how often each occurs, counted
#: once at import: the double cover twice, the four-fold cover once.
_DISTINCT_COMPONENTS = tuple(Counter(C2_COMPONENTS).items())


def fixed_curve(g: HurwitzCover) -> tuple[int, ...]:
    """The sorted component genera of the fixed curve pulled back along g.

    s is their number and p_g their sum.  Each component of the fixed curve
    is pulled back along g (`hurwitz.pullback`), which gives the degree and
    genus of each component of its pullback.  The two double covers are one
    cover, so it is pulled back once and its genera counted twice.
    """
    genera = []
    for component, times in _DISTINCT_COMPONENTS:
        genera.extend([genus for _, genus in pullback(component, g)] * times)
    return tuple(sorted(genera))


@dataclass(frozen=True)
class CYReport:
    """Full analysis of one cover (or one candidate tuple for branch data)."""

    branch: BranchData
    cy: bool
    guaranteed_smooth: bool
    inventory: FiberInventory
    s: int | None = None
    p_g: int | None = None
    genera: tuple[int, ...] | None = None
    c: tuple[int, int] | None = None
    h11: int | None = None
    h21: int | None = None
    euler: int | None = None
    unsupported: str | None = None
    ambiguous: bool = False
    search_truncated: bool = False


_NOT_CY = "canonical sheaf is not trivial for this data"


def _report(
    b: BranchData, genera=None, unsupported=None, ambiguous=False, search_truncated=False
) -> CYReport:
    """The one constructor of CYReport, so that each report is built once.

    It holds the fields the branch data determines.  Given the genera of the
    pulled-back fixed curve, it adds s, p_g and the Hodge numbers, or the
    reason the Hodge formulas do not apply.
    """
    cy = cy_condition(b)
    curve = {}
    if genera is not None:
        s, p_g = len(genera), sum(genera)
        curve = {"s": s, "p_g": p_g, "genera": genera}
        try:
            if not cy:
                raise UnsupportedError(_NOT_CY)
            h11_value, h21_value = h11(b, s), h21(b, p_g)
        except UnsupportedError as exc:
            unsupported = str(exc)
        else:
            euler = 2 * (h11_value - h21_value)
            curve.update(c=tuple(C_BY_Y[y] for y in b.y), h11=h11_value, h21=h21_value, euler=euler)
    return CYReport(
        b, cy, smoothness(b), fiber_inventory(b), **curve,
        unsupported=unsupported, ambiguous=ambiguous, search_truncated=search_truncated,
    )


def analyze_cover(g: HurwitzCover) -> CYReport:
    """Analysis for an explicit monodromy tuple.

    g is well formed by construction; the one check left is connectivity,
    and a disconnected g is refused with InvalidCoverError.
    """
    problems = validate(g)
    if problems:
        raise InvalidCoverError("; ".join(problems))
    return _report(branch_data_of(g), fixed_curve(g))


def analyze_branch_data(
    b: BranchData, limit: int = SEARCH_LIMIT, max_candidates: int = MAX_CANDIDATES
) -> list[CYReport]:
    """Analysis for bare branch data, one report per distinct (s, p_g) outcome.

    Data that admits a rational cover but is not Calabi-Yau (y outside
    CY_INFINITY_PROFILES) gets a single report with the inventory, no curve
    data and no search: s and p_g enter only the Hodge formulas, which need
    the Calabi-Yau condition.  Data that fails Riemann-Hurwitz still goes to
    search_tuples, which returns empty before examining any candidate; so
    only Calabi-Yau data ever costs a search.

    Different tuples with the same branch data can pull the fixed curve back
    differently; when they do, every outcome is reported and each report is
    flagged ambiguous.  Outcomes come in ascending (s, p_g), each with the
    least genera tuple found for it, so the records of a search do not depend
    on the order in which it finds its tuples.  When no tuple realizes the
    data, a single report with the inventory (and no curve data) is returned.
    A `limit` or a `max_candidates` below 1 is refused on every datum
    (`check_budget`).
    """
    check_budget(limit, max_candidates)
    if b.admits_rational_cover() and not cy_condition(b):
        return [_report(b, unsupported=_NOT_CY)]
    result: SearchResult = search_tuples(b, limit=limit, max_candidates=max_candidates)
    least_genera: dict[tuple[int, int], tuple[int, ...]] = {}
    for cover in result.covers:
        genera = fixed_curve(cover)
        key = (len(genera), sum(genera))
        least_genera[key] = min(genera, least_genera.get(key, genera))
    if not least_genera:
        note = (
            "no transitive monodromy tuple realizes this branch data"
            if not result.truncated
            else "tuple search truncated before finding a realization"
        )
        return [_report(b, unsupported=note, search_truncated=result.truncated)]
    ambiguous = len(least_genera) > 1
    return [
        _report(b, least_genera[key], ambiguous=ambiguous, search_truncated=result.truncated)
        for key in sorted(least_genera)
    ]
