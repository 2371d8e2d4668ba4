"""Branched covers of the projective line as permutation monodromy data.

A cover of degree d over the three-marked base (lambda = 1/256, infinity, 0,
plus anonymous extra branch points) is a permutation in S_d for each mark,
with identity product and (when connected) transitive action.  A
HurwitzCover holds them in four slots, `quarter256`, `infinity`, `zero` and
the tuple `extras`; the slot names are the mark names.  It is well formed
by construction: its constructor refuses anything else, so `validate` is
left with connectivity alone.  The product convention everywhere: the
first-listed mark's permutation acts first, so with marks (quarter256,
infinity, zero, extras...) the relation is

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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .monodromy import REFERENCE_TABLE
from .permutations import (
    Permutation,
    compose_all,
    cycles_of,
    exact_ints,
    group_closure,
    is_transitive,
    orbit_labels,
)

SPECIAL_MARKS = ("quarter256", "infinity", "zero")


class HurwitzError(ValueError):
    """Structurally invalid cover data."""


class InvalidCoverError(HurwitzError):
    """A cover refused as input: malformed, or disconnected where it must be connected."""


@dataclass(frozen=True)
class HurwitzCover:
    """Monodromy tuple of a branched cover of the marked line, connected or not.

    One slot per mark: the permutations over 1/256, infinity and 0 (an
    omitted one is the identity) and those over the extra branch points.
    Well formed by construction, or HurwitzError: positive degree, every
    permutation of that degree, identity product.  `permutations` and
    `marks` list the slots in product order, the extras named extra1,
    extra2, ...; a special mark's name is its slot's name.
    """

    degree: int
    quarter256: Permutation | None = None
    infinity: Permutation | None = None
    zero: Permutation | None = None
    extras: tuple[Permutation, ...] = ()

    def __post_init__(self):
        (degree,) = exact_ints((self.degree,), HurwitzError)
        object.__setattr__(self, "degree", degree)
        if degree < 1:
            raise HurwitzError(f"degree must be positive, got {degree}")
        for mark in SPECIAL_MARKS:
            if getattr(self, mark) is None:
                object.__setattr__(self, mark, Permutation.identity(self.degree))
        for mark, perm in zip(self.marks, self.permutations):
            if perm.degree != self.degree:
                raise HurwitzError(
                    f"permutation at {mark} acts on {perm.degree} points, cover degree is {self.degree}"
                )
        prod = compose_all(self.permutations, self.degree)
        if not prod.is_identity:
            raise HurwitzError(f"monodromy product is {prod.cycle_string()}, not the identity")

    @property
    def permutations(self) -> tuple[Permutation, ...]:
        return (self.quarter256, self.infinity, self.zero, *self.extras)

    @property
    def marks(self) -> tuple[str, ...]:
        return SPECIAL_MARKS + tuple(f"extra{i}" for i in range(1, len(self.extras) + 1))


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
    two_g = branch_data_of(cover).total_ramification() - 2 * cover.degree + 2
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
        n, r = exact_ints((self.n, self.r), HurwitzError)
        # every partition is converted before any is validated
        parts = [tuple(sorted(exact_ints(p, HurwitzError), reverse=True)) for p in (self.x, self.y, self.z)]
        for name, part in zip("xyz", parts):
            if part and part[-1] < 1:  # the least part is last
                raise HurwitzError(f"partition {name} has nonpositive parts: {part}")
            if sum(part) != n:
                raise HurwitzError(f"partition {name}={part} does not sum to n={n}")
            object.__setattr__(self, name, part)
        if r < 0:
            raise HurwitzError(f"negative extra ramification r={r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)

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
        # sum(v - 1 for v in p) = n - len(p), as each partition sums to n
        return 3 * self.n - self.k - self.l - self.m + self.r

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
        x=cover.zero.cycle_type(),
        y=cover.infinity.cycle_type(),
        z=cover.quarter256.cycle_type(),
        r=sum(length - 1 for perm in cover.extras for length in perm.cycle_type()),
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


def _pair_generators(base_cover: HurwitzCover, g: HurwitzCover) -> dict[str, list[int]]:
    """The product representation of base_cover and g, as image lists keyed by mark.

    It acts on label pairs (a, b) in {0..d-1} x {0..n-1}, 0-based, at pair
    index a n + b: a special mark as (a, b) -> (pa[a], pb[b]) for its
    permutations pa of base_cover and pb of g, a base extra as (a, .) under
    the key "a:<mark>" and a cover extra as (., b) under "b:<mark>", the
    base's extras first.
    """
    d, n = base_cover.degree, g.degree

    def pair_images(pa, pb) -> list[int]:
        return [i * n + j for i in pa for j in pb]

    generators = {
        mark: pair_images(getattr(base_cover, mark).images, getattr(g, mark).images)
        for mark in SPECIAL_MARKS
    }
    for mark, pa in zip(base_cover.marks[3:], base_cover.extras):
        generators[f"a:{mark}"] = pair_images(pa.images, range(n))
    for mark, pb in zip(g.marks[3:], g.extras):
        generators[f"b:{mark}"] = pair_images(range(d), pb.images)
    return generators


def pullback(base_cover: HurwitzCover, g: HurwitzCover) -> list[ComponentReport]:
    """Components of the normalized pullback of base_cover along g.

    Both covers live over the same marked line; their extra branch points
    are treated as distinct.  Both are well formed by construction and need
    not be connected.  The product representation (`_pair_generators`) acts
    on label pairs (a, b) in {0..d-1} x {0..n-1}, 0-based, at pair index
    a n + b; each generator is the list of images of the pair indices, a
    base extra acting as (a, .) and a cover extra as (., b).  Orbits are the
    components, and each cycle of a generator lies in one orbit and adds its
    length to that orbit's profile (a pair of local indices e, e' meets in
    gcd(e, e') points of index lcm(e, e')); the genus comes from
    Riemann-Hurwitz.  No Permutation is built.
    """
    generators = _pair_generators(base_cover, g)
    orbit_of, sizes = orbit_labels(base_cover.degree * g.degree, generators.values())
    lengths = [{mark: [] for mark in generators} for _ in sizes]
    for mark, w in generators.items():
        for cycle in cycles_of(w):
            lengths[orbit_of[cycle[0]]][mark].append(len(cycle))
    components = []
    for size, by_mark in zip(sizes, lengths):
        ram = sum(e - 1 for ls in by_mark.values() for e in ls)
        components.append(
            ComponentReport(
                degree=size,
                profiles={mark: tuple(sorted(ls, reverse=True)) for mark, ls in by_mark.items()},
                genus=(ram - 2 * size + 2) // 2,
            )
        )
    components.sort(key=lambda c: (c.degree, sorted(c.profiles.items()), c.genus))
    return components


def component_genera(base_cover: HurwitzCover, g: HurwitzCover) -> list[int]:
    """The genera of the components of the pullback of base_cover along g.

    One genus per orbit of the pair action (`_pair_generators`), orbits in
    order of their least pair index, the multiset of `pullback`'s genera
    without its reports.  By Riemann-Hurwitz an orbit O has
    2g - 2 = -2|O| + sum (len(cycle) - 1) over the generators' cycles in O.
    """
    generators = _pair_generators(base_cover, g).values()
    orbit_of, sizes = orbit_labels(base_cover.degree * g.degree, generators)
    twice = [-2 * size for size in sizes]  # 2g - 2 per orbit
    for w in generators:
        for cycle in cycles_of(w):
            twice[orbit_of[cycle[0]]] += len(cycle) - 1
    return [t // 2 + 1 for t in twice]


# -- the fixed curve of the reference family ----------------------------------------


_SWAP = Permutation.from_cycles(2, [(1, 2)])

#: The three components of the fixed curve over the modular base, built once
#: at import: two double covers branched over {0, infinity}, and one
#: four-fold cover with profiles [2,1,1] over 1/256, [2,2] over 0 and [4]
#: over infinity.  The four-fold tuple is pinned once; the exhaustive search
#: oracle shows it is the unique such tuple up to simultaneous conjugation.
C2_COMPONENTS = (
    HurwitzCover(2, infinity=_SWAP, zero=_SWAP),
    HurwitzCover(2, infinity=_SWAP, zero=_SWAP),
    HurwitzCover(
        4,
        quarter256=Permutation.from_cycles(4, [(1, 3)]),
        infinity=Permutation.from_cycles(4, [(1, 4, 3, 2)]),
        zero=Permutation.from_cycles(4, [(1, 2), (3, 4)]),
    ),
)


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
    index = {e: i for i, e in enumerate(elements)}

    def left_mult(gamma: Permutation) -> Permutation:
        return Permutation(index[gamma * e] for e in elements)

    return HurwitzCover(8, **{mark: left_mult(g) for mark, g in REFERENCE_TABLE.items()})


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
    images = list(range(n))
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
                    images[a] = b
                place([p for p in rest if p not in others], remaining)

    place(list(range(n)), list(cycle_type))
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
    for start in range(n):
        relabel = {start: 0}
        order = [start]
        for p in order:
            for perm in perms:
                q = perm.images[p]
                if q not in relabel:
                    relabel[q] = len(relabel)
                    order.append(q)
        if len(relabel) != n:
            raise HurwitzError("canonical key requires a transitive tuple")
        key = tuple(tuple(relabel[perm.images[p]] for p in order) for perm in perms)
        if best is None or key < best:
            best = key
    return best


#: The largest Calabi-Yau degree, n = sum(y) over hodge.CY_INFINITY_PROFILES: the
#: bound of search_tuples, report, enumerate and the cy-vs-riemann-hurwitz check.
MAX_SEARCH_DEGREE = 8
#: Default search limits of search_tuples, analyze_branch_data and a report
#: document: tuples kept, and candidates tried, per datum.
SEARCH_LIMIT = 16
MAX_CANDIDATES = 2_000_000


def search_tuples(
    b: BranchData, limit: int = SEARCH_LIMIT, max_candidates: int = MAX_CANDIDATES
) -> SearchResult:
    """All realizations of the branch data, up to simultaneous conjugation.

    Covers by the projective line only: data whose total ramification is not
    2n - 2 has no realization and yields the empty list.  Extra branch points
    are simple (transpositions).  The enumeration fixes a canonical
    representative over infinity and solves for the permutation over 0 from
    the product relation; it keeps transitive hits, one per class, in the
    order found.

    Candidates are taken in a fixed order: the ordered tuples of extra
    transpositions in itertools.product order (transpositions (i j), i < j,
    lexicographic), and for each of them the whole conjugacy class over
    1/256 in lexicographic order of images.  The class is built directly
    from cycle placements (`_permutations_of_type`), not filtered out of all
    n! permutations.  A hit is a candidate whose sigma_0 has cycle type x.
    Transitivity is tested on sigma_c, sigma_inf and the extras, which
    generate sigma_0, and sigma_0 is built only for transitive hits, as the
    inverse of sigma_inf sigma_c t_r ... t_1.

    No candidate is tested one by one: for each prefix of r - 1 extras (the
    empty prefix when r = 0) and each class element the cycles of one
    permutation w are walked once, and the moves to type x are read off them
    (`_hits`): the last transpositions that give type x, or with r = 0 no
    move, when w already has type x.

    Repeats are recognised without `canonical_key`: two candidates are
    simultaneously conjugate exactly when an element of the centralizer of
    sigma_inf (`_centralizer`) carries one to the other, so each kept tuple
    puts its whole orbit, keyed by (extras indices, images over 1/256), into
    a seen set, and a hit found there is skipped before transitivity is
    tested.

    `truncated` is set when the search stops early: at `limit` distinct
    tuples, even if none is left to find, or when a candidate past
    `max_candidates` would be examined, i.e. exactly when the
    P^r |class| candidates (P transpositions) exceed `max_candidates`.
    A `limit` below 1 is refused with HurwitzError.
    """
    if limit < 1:
        raise HurwitzError(f"search limit must be at least 1, got {limit}")
    if not b.admits_rational_cover():
        return SearchResult(covers=(), truncated=False)
    if b.n > MAX_SEARCH_DEGREE:
        raise HurwitzError(
            f"exhaustive search supports degree at most {MAX_SEARCH_DEGREE}"
        )

    n = b.n
    sigma_inf = _canonical_representative(n, b.y)
    z_class = _permutations_of_type(n, b.z)
    pairs, pair_number = _pairs(n)
    transpositions = [Permutation(_after(pair, range(n))) for pair in pairs]

    found: list[HurwitzCover] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    centralizer: tuple[tuple[int, ...], ...] = ()  # made at the first kept tuple
    for index, sigma_c in _hits(sigma_inf, z_class, b.x, b.r, pairs, pair_number, max_candidates):
        if (index, sigma_c.images) in seen:
            continue
        extras = tuple(transpositions[k] for k in index)
        # sigma_0 is a product of the others' inverses: same orbits without it
        if not is_transitive(n, (sigma_c, sigma_inf, *extras)):
            continue
        sigma_0 = compose_all((*extras, sigma_c, sigma_inf), n).inverse()
        centralizer = centralizer or _centralizer(sigma_inf)
        for image in centralizer:
            conjugate = [0] * n
            for p, s in zip(image, sigma_c.images):
                conjugate[p] = image[s]
            moved = tuple(pair_number[image[pairs[k][0]] * n + image[pairs[k][1]]] for k in index)
            seen.add((moved, tuple(conjugate)))
        found.append(
            HurwitzCover(n, quarter256=sigma_c, infinity=sigma_inf, zero=sigma_0, extras=extras)
        )
        if len(found) >= limit:
            return SearchResult(covers=tuple(found), truncated=True)
    truncated = len(pairs) ** b.r * len(z_class) > max_candidates
    return SearchResult(covers=tuple(found), truncated=truncated)


def _pairs(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The transpositions (i j) of 0..n-1, i < j, in lexicographic order, and their numbers.

    The number k of (i j) is at i n + j and at j n + i.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    number = [0] * (n * n)
    for k, (i, j) in enumerate(pairs):
        number[i * n + j] = number[j * n + i] = k
    return pairs, number


def _centralizer(sigma: Permutation) -> tuple[tuple[int, ...], ...]:
    """The centralizer of sigma as sorted image tuples.

    Built from the cycles, not by filtering n!: an element sends each cycle
    to a cycle of the same length, rotated by any amount, so there are
    prod l^m_l m_l! of them for m_l cycles of length l.
    """
    n = sigma.degree
    cycles_by_length: dict[int, list[tuple[int, ...]]] = {}
    for cycle in cycles_of(sigma.images):
        cycles_by_length.setdefault(len(cycle), []).append(cycle)
    moves_by_length = []  # for each length, every map of its points that commutes
    for length, cycles in cycles_by_length.items():
        moves = []
        for targets in itertools.permutations(cycles):
            for shifts in itertools.product(range(length), repeat=len(cycles)):
                moves.append([
                    (p, target[(pos + shift) % length])
                    for source, target, shift in zip(cycles, targets, shifts)
                    for pos, p in enumerate(source)
                ])
        moves_by_length.append(moves)
    elements = []
    for choice in itertools.product(*moves_by_length):
        images = [0] * n
        for move in choice:
            for p, q in move:
                images[p] = q
        elements.append(tuple(images))
    return tuple(sorted(elements))


def _hits(sigma_inf: Permutation, z_class, x: tuple[int, ...], r: int, pairs, pair_number, budget: int):
    """(index, sigma_c) for each candidate within budget whose sigma_0 has type x, in order.

    With u = t_(r-1) ... t_1 sigma_inf from the prefix stack and w = u sigma_c,
    sigma_0^-1 = sigma_inf sigma_c t_r u is conjugate to t_r w, so sigma_0 has
    the cycle type of t_r w.  pairs and pair_number are `_pairs(n)`.  A
    transposition (i j) joins the cycles of w through i and j when they
    differ (lengths a, b -> a + b) and splits a cycle of length L in which
    j lies d steps after i into cycles of lengths d and L - d.  So one walk
    of w's cycles gives every t_r that makes type x: w must have len(x) + 1
    or len(x) - 1 cycles and differ from x by one such move (`_move_to`).
    Candidate number (prefix P + k) |class| + class index, for the k-th of
    the P transpositions, fixes the order and the budget.  With r = 0 the
    prefix is empty, u = sigma_inf, the candidate number is the class
    index, and the last move is no move: w must have type x itself.
    """
    n, size = len(sigma_inf.images), len(z_class)
    per_prefix = len(pairs) * size if r else size
    # a transposition changes the count by one; no move keeps it
    cycle_counts = {len(x) - 1, len(x) + 1} if r else {len(x)}
    moves: dict[tuple[int, ...], tuple[str, int, int] | None] = {}
    for number, (prefix, u) in enumerate(_extras_composites(sigma_inf, pairs, max(r - 1, 0))):
        base = number * per_prefix
        if base >= budget:
            return
        local = []  # k |class| + class index of each hit
        for ci, sigma_c in enumerate(z_class):
            w = list(map(u.__getitem__, sigma_c.images))
            cycles = cycles_of(w)
            if len(cycles) not in cycle_counts:
                continue
            shape = tuple(sorted(map(len, cycles)))
            if shape not in moves:
                moves[shape] = _move_to(shape, x)
            move = moves[shape]
            if move is None:
                continue
            kind, a, b = move
            if kind == "stay":
                local.append(ci)
            elif kind == "join":
                first = [c for c in cycles if len(c) == a]
                second = first if a == b else [c for c in cycles if len(c) == b]
                for ai, ca in enumerate(first):
                    for cb in second[ai + 1:] if a == b else second:
                        for i in ca:
                            row = i * n
                            local.extend(pair_number[row + j] * size + ci for j in cb)
            else:  # split a cycle of length a into cycles of lengths b and a - b
                for c in cycles:
                    if len(c) == a:
                        local.extend(
                            pair_number[c[s] * n + c[(s + b) % a]] * size + ci
                            for s in range(a if 2 * b != a else b)
                        )
        local.sort()
        for hit in local:
            if base + hit >= budget:
                return
            if r:
                k, ci = divmod(hit, size)
                yield prefix + (k,), z_class[ci]
            else:
                yield prefix, z_class[hit]


def _move_to(shape: tuple[int, ...], x: tuple[int, ...]) -> tuple[str, int, int] | None:
    """The one move from cycle type `shape` to x, or None.

    ("stay", 0, 0): no move, shape is x already;
    ("join", a, b): join a cycle of length a with one of length b;
    ("split", L, d): split a cycle of length L into lengths d and L - d.
    """
    gained = sorted((Counter(x) - Counter(shape)).elements())
    lost = sorted((Counter(shape) - Counter(x)).elements())
    if not gained and not lost:
        return ("stay", 0, 0)
    if len(gained) == 1 and len(lost) == 2 and gained[0] == sum(lost):
        return ("join", lost[0], lost[1])
    if len(gained) == 2 and len(lost) == 1 and lost[0] == sum(gained):
        return ("split", lost[0], gained[0])
    return None


def _extras_composites(sigma_inf: Permutation, pairs: list[tuple[int, int]], r: int):
    """(indices, v) for each r-tuple of transpositions t_1..t_r, in itertools.product order.

    v = t_r ... t_1 sigma_inf as an image list, so that mapping a
    permutation's images over it composes; each prefix composite is made
    once and shared by every tuple that extends it.
    """

    def extend(prefix: tuple[int, ...], v: list[int]):
        if len(prefix) == r:
            yield prefix, v
            return
        for k, pair in enumerate(pairs):
            yield from extend(prefix + (k,), _after(pair, v))

    return extend((), list(sigma_inf.images))


def _after(pair: tuple[int, int], v) -> list[int]:
    """(i j) v on the image list of v: the values i and j swapped."""
    i, j = pair
    out = list(v)
    out[v.index(i)], out[v.index(j)] = j, i
    return out
