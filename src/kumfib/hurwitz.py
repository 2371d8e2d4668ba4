"""Branched covers of the projective line as permutation monodromy data.

A cover of degree d over the three-marked base (lambda = 1/256, infinity, 0,
plus anonymous extra branch points) is a list of permutations in S_d, one per
mark, with identity product and (when connected) transitive action.  A
HurwitzCover is well formed by construction: its constructor refuses
anything else, so `validate` is left with connectivity alone.  The
product convention everywhere: the first-listed mark's permutation acts
first, so with marks (quarter256, infinity, zero, extras...) the relation is

    sigma_extras o sigma_zero o sigma_infinity o sigma_quarter256 = identity,

matching the monodromy module's loop relation sigma_0 o sigma_inf o sigma_c = id.

The fixed-curve data of the reference family is hard-coded from its three
printed components (two double covers branched over {0, infinity} and one
four-fold cover with profiles [2,1,1]/[2,2]/[4] over 1/256, 0, infinity); the
orbit model of a normalized fiber product then computes pullbacks, component
decompositions, profiles and genera for arbitrary covers.

MAX_SEARCH_DEGREE, the package's one degree bound, lives here because hodge,
cli and verification all import this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache

from .monodromy import REFERENCE_TABLE
from .permutations import (
    Permutation,
    compose_all,
    group_closure,
    is_transitive,
    orbits,
)

MARK_QUARTER256 = "quarter256"
MARK_INFINITY = "infinity"
MARK_ZERO = "zero"
SPECIAL_MARKS = (MARK_QUARTER256, MARK_INFINITY, MARK_ZERO)


class HurwitzError(ValueError):
    """Structurally invalid cover data."""


class InvalidCoverError(HurwitzError):
    """A cover refused as input: malformed, or disconnected where it must be connected."""


@dataclass(frozen=True)
class HurwitzCover:
    """Monodromy tuple of a branched cover of the marked line, connected or not.

    Well formed by construction, or HurwitzError: positive degree, one
    permutation of that degree per mark, special marks first and unique
    marks, identity product.
    """

    degree: int
    marks: tuple[str, ...]
    permutations: tuple[Permutation, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise HurwitzError(f"degree must be positive, got {self.degree}")
        if len(self.marks) != len(self.permutations):
            raise HurwitzError("marks and permutations differ in length")
        if self.marks[:3] != SPECIAL_MARKS:
            raise HurwitzError(f"first marks must be {SPECIAL_MARKS}, got {self.marks[:3]}")
        if len(set(self.marks)) != len(self.marks):
            raise HurwitzError("duplicate mark names")
        for mark, perm in zip(self.marks, self.permutations):
            if perm.degree != self.degree:
                raise HurwitzError(
                    f"permutation at {mark} acts on {perm.degree} points, cover degree is {self.degree}"
                )
        prod = self.product()
        if not prod.is_identity:
            raise HurwitzError(f"monodromy product is {prod.cycle_string()}, not the identity")

    @staticmethod
    def make(
        degree: int,
        quarter256: Permutation | None = None,
        infinity: Permutation | None = None,
        zero: Permutation | None = None,
        extras: tuple[Permutation, ...] = (),
    ) -> "HurwitzCover":
        ident = Permutation.identity(degree)
        perms = [quarter256 or ident, infinity or ident, zero or ident, *extras]
        marks = list(SPECIAL_MARKS) + [f"extra{i + 1}" for i in range(len(extras))]
        return HurwitzCover(degree=degree, marks=tuple(marks), permutations=tuple(perms))

    def permutation_at(self, mark: str) -> Permutation:
        try:
            return self.permutations[self.marks.index(mark)]
        except ValueError:
            return Permutation.identity(self.degree)

    @property
    def extras(self) -> tuple[Permutation, ...]:
        return self.permutations[3:]

    def product(self) -> Permutation:
        """Composite with the first-listed mark acting first."""
        return compose_all(self.permutations, self.degree)

    def profile(self, mark: str) -> tuple[int, ...]:
        return self.permutation_at(mark).cycle_type()

    def extra_ramification(self) -> int:
        return sum(
            sum(length - 1 for length in p.cycle_type()) for p in self.extras
        )


def validate(cover: HurwitzCover) -> list[str]:
    """Connectivity, the one check a well-formed cover can fail; empty if connected."""
    if is_transitive(cover.degree, cover.permutations):
        return []
    return ["monodromy group is not transitive (cover is disconnected)"]


def genus(cover: HurwitzCover) -> int:
    """Genus of the connected cover, by Riemann-Hurwitz over a rational base."""
    problems = validate(cover)
    if problems:
        raise HurwitzError("; ".join(problems))
    ram = sum(
        sum(length - 1 for length in perm.cycle_type())
        for perm in cover.permutations
    )
    two_g = ram - 2 * cover.degree + 2
    if two_g % 2:
        raise HurwitzError("Riemann-Hurwitz parity violated")  # impossible with id product
    g = two_g // 2
    if g < 0:
        raise HurwitzError(f"negative genus {g} from inconsistent data")
    return g


# -- branch data ----------------------------------------------------------------


@dataclass(frozen=True)
class BranchData:
    """Combinatorial shell of a cover: degree and ramification partitions.

    x, y, z are the profiles over lambda = 0, infinity, 1/256 respectively;
    r is the total extra simple ramification away from the three marks.
    """

    n: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    z: tuple[int, ...]
    r: int

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(sorted((int(v) for v in self.x), reverse=True)))
        object.__setattr__(self, "y", tuple(sorted((int(v) for v in self.y), reverse=True)))
        object.__setattr__(self, "z", tuple(sorted((int(v) for v in self.z), reverse=True)))
        for name, part in (("x", self.x), ("y", self.y), ("z", self.z)):
            if any(v < 1 for v in part):
                raise HurwitzError(f"partition {name} has nonpositive parts: {part}")
            if sum(part) != self.n:
                raise HurwitzError(f"partition {name}={part} does not sum to n={self.n}")
        if self.r < 0:
            raise HurwitzError(f"negative extra ramification r={self.r}")

    @property
    def k(self) -> int:
        return len(self.x)

    @property
    def l(self) -> int:
        return len(self.y)

    @property
    def m(self) -> int:
        return len(self.z)

    @property
    def m_odd(self) -> int:
        return sum(1 for v in self.z if v % 2)

    def total_ramification(self) -> int:
        return (
            sum(v - 1 for v in self.x)
            + sum(v - 1 for v in self.y)
            + sum(v - 1 for v in self.z)
            + self.r
        )

    def admits_rational_cover(self) -> bool:
        """Riemann-Hurwitz for a genus-0 source: total ramification = 2n - 2."""
        return self.total_ramification() == 2 * self.n - 2


def partitions(n: int):
    """The partitions of n as non-increasing tuples, largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def branch_data_of(cover: HurwitzCover) -> BranchData:
    return BranchData(
        n=cover.degree,
        x=cover.profile(MARK_ZERO),
        y=cover.profile(MARK_INFINITY),
        z=cover.profile(MARK_QUARTER256),
        r=cover.extra_ramification(),
    )


# -- normalized fiber products -----------------------------------------------------


@dataclass(frozen=True)
class ComponentReport:
    """One component of a normalized fiber product, as a cover of the base.

    degree is the degree over the common (moduli) base; profiles map each
    mark to the cycle lengths of the pair permutation on the component, so
    Riemann-Hurwitz reads 2g - 2 = -2 degree + sum(e - 1) over all entries.
    """

    degree: int
    profiles: dict[str, tuple[int, ...]]
    genus: int

    def ramification_total(self) -> int:
        return sum(
            sum(e - 1 for e in lengths) for lengths in self.profiles.values()
        )


def pullback(base_cover: HurwitzCover, g: HurwitzCover) -> list[ComponentReport]:
    """Components of the normalized pullback of base_cover along g.

    Both covers live over the same marked line; their extra branch points
    are treated as distinct.  Both are well formed by construction and need
    not be connected.  The product representation acts on label pairs
    (i, j) in {1..d} x {1..n}; orbits are the components, and each cycle of a
    generator lies in one orbit and adds its length to that orbit's profile
    (a pair of local indices e, e' meets in gcd(e, e') points of index
    lcm(e, e')); the genus comes from Riemann-Hurwitz.
    """
    d, n = base_cover.degree, g.degree

    def pair_index(i: int, j: int) -> int:
        return (i - 1) * n + j

    def pair_perm(pa: Permutation, pb: Permutation) -> Permutation:
        images = [0] * (d * n)
        for i in range(1, d + 1):
            for j in range(1, n + 1):
                images[pair_index(i, j) - 1] = pair_index(pa(i), pb(j))
        return Permutation(images)

    generators = {  # the special marks come first in every cover
        mark: pair_perm(pa, pb)
        for mark, pa, pb in zip(SPECIAL_MARKS, base_cover.permutations, g.permutations)
    }
    for mark, pa in zip(base_cover.marks[3:], base_cover.extras):
        generators[f"a:{mark}"] = pair_perm(pa, Permutation.identity(n))
    for mark, pb in zip(g.marks[3:], g.extras):
        generators[f"b:{mark}"] = pair_perm(Permutation.identity(d), pb)

    pair_orbits = orbits(d * n, generators.values())
    orbit_of = {p: i for i, orbit in enumerate(pair_orbits) for p in orbit}
    lengths = [{mark: [] for mark in generators} for _ in pair_orbits]
    for mark, perm in generators.items():
        for cycle in perm.cycles(include_fixed=True):
            lengths[orbit_of[cycle[0]]][mark].append(len(cycle))
    components = []
    for orbit, by_mark in zip(pair_orbits, lengths):
        ram = sum(e - 1 for ls in by_mark.values() for e in ls)
        components.append(
            ComponentReport(
                degree=len(orbit),
                profiles={mark: tuple(sorted(ls, reverse=True)) for mark, ls in by_mark.items()},
                genus=(ram - 2 * len(orbit) + 2) // 2,
            )
        )
    components.sort(key=lambda c: (c.degree, sorted(c.profiles.items()), c.genus))
    return components


# -- the fixed curve of the reference family ----------------------------------------


@cache
def c2_components() -> tuple[HurwitzCover, HurwitzCover, HurwitzCover]:
    """The three components of the fixed curve over the modular base, built once.

    Two double covers branched over {0, infinity}, and one four-fold cover
    with profiles [2,1,1] over 1/256, [2,2] over 0 and [4] over infinity.
    The four-fold tuple is pinned once; the exhaustive search oracle shows it
    is the unique such tuple up to simultaneous conjugation.
    """
    swap = Permutation.from_cycles(2, [(1, 2)])
    double = HurwitzCover.make(2, infinity=swap, zero=swap)
    quadruple = HurwitzCover.make(
        4,
        quarter256=Permutation.from_cycles(4, [(1, 3)]),
        infinity=Permutation.from_cycles(4, [(1, 4, 3, 2)]),
        zero=Permutation.from_cycles(4, [(1, 2), (3, 4)]),
    )
    return double, double, quadruple


def regular_deck_cover() -> HurwitzCover:
    """The degree-8 regular cover attached to the monodromy group.

    Fiber points are the elements of the group generated by the reference
    loop permutations; each loop acts by left multiplication.  Its branch
    data is (k, l, m, n, r) = (4, 2, 4, 8, 0) with x = z = [2,2,2,2] and
    y = [4,4].
    """
    gens = [REFERENCE_TABLE["zero"], REFERENCE_TABLE["quarter256"]]
    elements = group_closure(gens)
    if len(elements) != 8:
        raise HurwitzError(f"deck group has order {len(elements)}, expected 8")
    index = {e: i + 1 for i, e in enumerate(elements)}

    def left_mult(gamma: Permutation) -> Permutation:
        images = [0] * len(elements)
        for e, i in index.items():
            images[i - 1] = index[gamma * e]
        return Permutation(images)

    ginf = REFERENCE_TABLE["zero"].inverse() * REFERENCE_TABLE["quarter256"].inverse()
    return HurwitzCover.make(
        8,
        quarter256=left_mult(REFERENCE_TABLE["quarter256"]),
        infinity=left_mult(ginf),
        zero=left_mult(REFERENCE_TABLE["zero"]),
    )


# -- exhaustive tuple search -----------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    covers: tuple[HurwitzCover, ...]
    truncated: bool


@lru_cache(maxsize=64)
def _permutations_of_type(n: int, cycle_type: tuple[int, ...]) -> tuple[Permutation, ...]:
    """The conjugacy class of S_n with this cycle type, in lexicographic order of images.

    Cycles are placed directly: the least free point starts the next cycle,
    whose length is any length still to place and whose other points are any
    ordered choice of free points.  That reaches each element once; sorting
    the image tuples gives the order of filtering itertools.permutations.
    """
    if any(length < 1 for length in cycle_type) or sum(cycle_type) != n:
        return ()
    images = list(range(1, n + 1))
    out: list[tuple[int, ...]] = []

    def place(free: list[int], lengths: list[int]) -> None:
        if not free:
            out.append(tuple(images))
            return
        start, rest = free[0], free[1:]
        for length in set(lengths):
            remaining = list(lengths)
            remaining.remove(length)
            for others in itertools.permutations(rest, length - 1):
                cycle = (start, *others)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    images[a - 1] = b
                place([p for p in rest if p not in others], remaining)

    place(list(range(1, n + 1)), list(cycle_type))
    out.sort()
    return tuple(map(Permutation, out))


def _canonical_representative(n: int, cycle_type: tuple[int, ...]) -> Permutation:
    """Cycles filled with consecutive points, e.g. [4,2] -> (1 2 3 4)(5 6)."""
    cycles = []
    next_point = 1
    for length in sorted(cycle_type, reverse=True):
        if length > 1:
            cycles.append(tuple(range(next_point, next_point + length)))
        next_point += length
    return Permutation.from_cycles(n, cycles)


def canonical_key(n: int, perms: tuple[Permutation, ...]):
    """Simultaneous-conjugation invariant of a transitive tuple.

    Breadth-first relabeling from every base point, taking the least
    resulting image table.
    """
    best = None
    for start in range(1, n + 1):
        relabel = {start: 1}
        order = [start]
        for p in order:
            for perm in perms:
                q = perm(p)
                if q not in relabel:
                    relabel[q] = len(relabel) + 1
                    order.append(q)
        if len(relabel) != n:
            raise HurwitzError("canonical key requires a transitive tuple")
        key = tuple(
            tuple(relabel[perm(p)] for p in order) for perm in perms
        )
        if best is None or key < best:
            best = key
    return best


#: The largest Calabi-Yau degree, n = sum(y) over hodge.CY_INFINITY_PROFILES: the
#: bound of search_tuples, report, enumerate and the cy-vs-riemann-hurwitz check.
MAX_SEARCH_DEGREE = 8


def search_tuples(
    b: BranchData, limit: int = 16, max_candidates: int = 2_000_000
) -> SearchResult:
    """All realizations of the branch data, up to simultaneous conjugation.

    Covers by the projective line only: data whose total ramification is not
    2n - 2 has no realization and yields the empty list.  Extra branch points
    are simple (transpositions).  The enumeration fixes a canonical
    representative over infinity and solves for the permutation over 0 from
    the product relation; it keeps transitive hits, one per class under
    `canonical_key`, in the order found.

    Candidates are taken in a fixed order: the ordered tuples of extra
    transpositions in itertools.product order (transpositions (i j), i < j,
    lexicographic), and for each of them the whole conjugacy class over
    1/256 in lexicographic order of images.  The class is built directly
    from cycle placements (`_permutations_of_type`), not filtered out of all
    n! permutations.  The candidate loop runs on image lists: the extras
    composites are kept on a prefix stack, the cycle type of sigma_0 is read
    from a conjugate of its inverse made with one lookup per point, and
    Permutation objects are made only for candidates of cycle type x over 0.

    `truncated` is set when the search stops early: at `limit` distinct
    tuples, even if none is left to find, or when a candidate past
    `max_candidates` would be examined.
    """
    if b.n > MAX_SEARCH_DEGREE:
        raise HurwitzError(
            f"exhaustive search supports degree at most {MAX_SEARCH_DEGREE}"
        )
    if not b.admits_rational_cover():
        return SearchResult(covers=(), truncated=False)

    n = b.n
    sigma_inf = _canonical_representative(n, b.y)
    z_class = _permutations_of_type(n, b.z)
    x_counts = [0] * (n + 1)  # x_counts[k] = number of k-cycles over 0
    for length in b.x:
        x_counts[length] += 1
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    transpositions = [Permutation.from_cycles(n, [pair]) for pair in pairs]
    sigma_inf_inv = sigma_inf.inverse()

    # With lead = t_1 ... t_r the relation gives sigma_0 = lead sigma_c^-1 sigma_inf^-1,
    # so sigma_0^-1 is conjugate to q = sigma_c v with v = lead^-1 sigma_inf: the
    # cycle type of sigma_0 is that of q, one lookup per point.
    found: dict[object, HurwitzCover] = {}
    budget = max_candidates
    for index, v in _extras_composites(sigma_inf, pairs, b.r):
        extras = None
        for sigma_c in z_class[: max(budget, 0)]:
            q = sigma_c.images.__getitem__
            if not _has_cycle_type([0, *map(q, v)], x_counts):
                continue
            if extras is None:
                extras = tuple(transpositions[k] for k in index)
            sigma_0 = sigma_inf * Permutation(map(q, v)).inverse() * sigma_inf_inv
            perms = (sigma_c, sigma_inf, sigma_0, *extras)
            if not is_transitive(n, perms):
                continue
            key = canonical_key(n, perms)
            if key in found:
                continue
            found[key] = HurwitzCover.make(
                n, quarter256=sigma_c, infinity=sigma_inf, zero=sigma_0, extras=extras
            )
            if len(found) >= limit:
                return SearchResult(covers=tuple(found.values()), truncated=True)
        budget -= len(z_class)
        if budget < 0:  # a candidate past max_candidates was due
            return SearchResult(covers=tuple(found.values()), truncated=True)
    return SearchResult(covers=tuple(found.values()), truncated=False)


def _extras_composites(sigma_inf: Permutation, pairs: list[tuple[int, int]], r: int):
    """(indices, v) for each r-tuple of transpositions t_1..t_r, in itertools.product order.

    v = t_r ... t_1 sigma_inf as the list of v(p) - 1 for p = 1..n, so that
    mapping a permutation's images over it composes; each prefix composite
    is made once and shared by every tuple that extends it.
    """

    def extend(prefix: tuple[int, ...], v: list[int]):
        if len(prefix) == r:
            yield prefix, v
            return
        for k, (i, j) in enumerate(pairs):
            at_i, at_j = v.index(i - 1), v.index(j - 1)  # (i j) v: swap the values i and j
            nxt = list(v)
            nxt[at_i], nxt[at_j] = j - 1, i - 1
            yield from extend(prefix + (k,), nxt)

    return extend((), [p - 1 for p in sigma_inf.images])


def _has_cycle_type(images: list[int], counts: list[int]) -> bool:
    """Whether the permutation has counts[k] k-cycles, given 0 and then its images of 1..n.

    Uses up `images`, and stops at the first cycle the counts leave no room for.
    """
    counts = list(counts)
    for start in range(1, len(images)):
        p = images[start]
        if not p:
            continue
        images[start] = 0  # zeroed once visited
        length = 1
        while p != start:
            q = images[p]
            images[p] = 0
            p = q
            length += 1
        counts[length] -= 1
        if counts[length] < 0:
            return False
    return True
