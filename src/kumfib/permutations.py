"""Permutations of {1..n} with cycle-notation I/O and orbit utilities.

Composition convention used across the whole package: (p * q)(x) = p(q(x)),
i.e. the right factor acts first.  A Permutation stores its images 0-based,
`images[i] = p(i + 1) - 1`, and every kernel here and in `hurwitz` reads
them as they are.  Points are 1-based only at the mathematical boundary:
cycle notation (`from_cycles`, `from_cycle_string`, `cycles`,
`cycle_string`) and `p(point)`.  Cycle strings look like "(1 5 2 4)(3 6)"
and are whitespace- and comma-insensitive.
"""

from __future__ import annotations

import operator
import re


class PermutationError(ValueError):
    """Malformed permutation data."""


def exact_ints(values, error=PermutationError) -> tuple[int, ...]:
    """The values as int() reads them; a number that int() would change raises `error`."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:  # a numeral string or a whole float reads as itself
        ints = tuple(map(int, values))
    for value, i in zip(values, ints):
        if value != i and not isinstance(value, str):
            raise error(f"not an integer: {value!r}")
    return ints


class Permutation:
    """A bijection p of {1..n}, stored as the tuple of p(i + 1) - 1 for i in 0..n-1.

    `Permutation(images)` takes those 0-based images; `p(point)` and the
    cycle notation speak of the points 1..n.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = exact_ints(images)
        n = len(imgs)
        if sorted(imgs) != list(range(n)):
            raise PermutationError(f"images are not a bijection of 0..{n - 1}: {imgs}")
        object.__setattr__(self, "images", imgs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(n))

    @staticmethod
    def from_cycles(n: int, cycles) -> "Permutation":
        """The product of disjoint cycles; a point in two cycles, or twice in one, is refused."""
        imgs = list(range(n))
        seen: set[int] = set()
        for cyc in cycles:
            cyc = list(exact_ints(cyc))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 1 <= a <= n:
                    raise PermutationError(f"point {a} outside 1..{n}")
                if a in seen:
                    raise PermutationError(f"point {a} appears twice; cycles must be disjoint")
                seen.add(a)
                imgs[a - 1] = b - 1
        return Permutation(imgs)

    @staticmethod
    def from_cycle_string(n: int, text: str) -> "Permutation":
        """Parse cycle notation, e.g. "(1 5 2 4)(3 6)"; "id" or "()" is allowed."""
        s = text.strip()
        if s in ("", "id", "()", "e"):
            return Permutation.identity(n)
        if not re.fullmatch(r"(\s*\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)+", s):
            raise PermutationError(f"cannot parse cycle string {text!r}")
        cycles = []
        for body in re.findall(r"\(([^()]*)\)", s):
            cycles.append([int(tok) for tok in re.split(r"[\s,]+", body.strip()) if tok])
        return Permutation.from_cycles(n, cycles)

    # -- basic protocol ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1] + 1

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise PermutationError("degree mismatch in composition")
        return Permutation(map(self.images.__getitem__, other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(self.degree))

    # -- cycle structure -------------------------------------------------------

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length at least 2, each starting at its least point, sorted."""
        return [tuple(p + 1 for p in cycle) for cycle in cycles_of(self.images) if len(cycle) > 1]

    def cycle_type(self) -> tuple[int, ...]:
        """Partition of n by cycle lengths, largest first."""
        return tuple(sorted(map(len, cycles_of(self.images)), reverse=True))

    @property
    def is_odd(self) -> bool:
        return sum(length - 1 for length in self.cycle_type()) % 2 == 1

    def conjugate_by(self, rho: "Permutation") -> "Permutation":
        """rho * self * rho^{-1}."""
        return rho * self * rho.inverse()

    def cycle_string(self) -> str:
        cs = self.cycles()
        if not cs:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cs)

    def __repr__(self):
        return f"Permutation[{self.cycle_string()}]"


def cycles_of(w) -> list[list[int]]:
    """The cycles of the permutation p -> w[p] of 0..n-1, in cycle order, by least point."""
    out = []
    visited = [False] * len(w)
    for start in range(len(w)):
        if visited[start]:
            continue
        cycle = [start]
        visited[start] = True
        p = w[start]
        while p != start:
            cycle.append(p)
            visited[p] = True
            p = w[p]
        out.append(cycle)
    return out


def compose_all(perms, degree: int) -> Permutation:
    """Compose so the first listed permutation acts first."""
    images = range(degree)
    for p in perms:
        if p.degree != degree:
            raise PermutationError("degree mismatch in composition")
        images = [p.images[j] for j in images]
    return Permutation(images)


def orbit_labels(size: int, image_lists) -> tuple[list[int], list[int]]:
    """The orbits of the maps p -> w[p] on 0..size-1, one image list w per map.

    Returns (orbit_of, sizes): orbit_of[p] numbers the orbit of p, orbits
    numbered by least point, and sizes[k] is the size of orbit k.
    """
    images = list(image_lists)
    orbit_of = [-1] * size
    sizes: list[int] = []
    for start in range(size):
        if orbit_of[start] >= 0:
            continue
        label = len(sizes)
        orbit_of[start] = label
        frontier = [start]
        for p in frontier:  # grows while it is walked
            for w in images:
                q = w[p]
                if orbit_of[q] < 0:
                    orbit_of[q] = label
                    frontier.append(q)
        sizes.append(len(frontier))
    return orbit_of, sizes


def is_transitive(degree: int, generators) -> bool:
    """Whether <generators> has one orbit on {1..degree}."""
    return orbit_labels(degree, [g.images for g in generators])[1] == [degree]
