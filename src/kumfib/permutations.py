"""Permutations of {1..n} with cycle-notation I/O and orbit utilities.

Composition convention used across the whole package: (p * q)(x) = p(q(x)),
i.e. the right factor acts first.  Points are 1-based everywhere in the
public interface; cycle strings look like "(1 5 2 4)(3 6)" and are
whitespace- and comma-insensitive.
"""

from __future__ import annotations

import re


class PermutationError(ValueError):
    """Malformed permutation data."""


class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(int(i) for i in images)
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            raise PermutationError(f"not a bijection of 1..{n}: {imgs}")
        object.__setattr__(self, "images", imgs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @staticmethod
    def from_cycles(n: int, cycles) -> "Permutation":
        """The product of disjoint cycles; a point in two cycles, or twice in one, is refused."""
        imgs = list(range(1, n + 1))
        seen: set[int] = set()
        for cyc in cycles:
            cyc = [int(c) for c in cyc]
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 1 <= a <= n:
                    raise PermutationError(f"point {a} outside 1..{n}")
                if a in seen:
                    raise PermutationError(f"point {a} appears twice; cycles must be disjoint")
                seen.add(a)
                imgs[a - 1] = b
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
        return self.images[point - 1]

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise PermutationError("degree mismatch in composition")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images, start=1))

    # -- cycle structure -------------------------------------------------------

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its least point, sorted."""
        return [
            tuple(p + 1 for p in cycle)
            for cycle in cycles_of([i - 1 for i in self.images])
            if include_fixed or len(cycle) > 1
        ]

    def cycle_type(self) -> tuple[int, ...]:
        """Partition of n by cycle lengths, largest first."""
        return tuple(sorted(map(len, cycles_of([i - 1 for i in self.images])), reverse=True))

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


def cycles_of(w: list[int]) -> list[list[int]]:
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
    images = range(1, degree + 1)
    for p in perms:
        if p.degree != degree:
            raise PermutationError("degree mismatch in composition")
        images = [p.images[j - 1] for j in images]
    return Permutation(images)


def orbits(degree: int, generators) -> list[tuple[int, ...]]:
    """Orbits of <generators> on {1..degree}, each sorted, ordered by minimum."""
    gens = list(generators)
    seen = [False] * degree
    out = []
    for start in range(1, degree + 1):
        if seen[start - 1]:
            continue
        frontier = [start]
        seen[start - 1] = True
        orbit = [start]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g(x)
                if not seen[y - 1]:
                    seen[y - 1] = True
                    orbit.append(y)
                    frontier.append(y)
        out.append(tuple(sorted(orbit)))
    return out


def is_transitive(degree: int, generators) -> bool:
    """Whether the orbit of 1 under <generators> is all of {1..degree}."""
    images = [g.images for g in generators]
    seen = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop() - 1
        for w in images:
            y = w[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == degree


def group_closure(generators, limit: int = 100000) -> list[Permutation]:
    """All elements of the group generated by the given permutations.

    Deterministic order: breadth-first from the identity, multiplying by the
    generators in their given order.  Raises if the group exceeds limit.
    """
    gens = list(generators)
    if not gens:
        raise PermutationError("need at least one generator")
    n = gens[0].degree
    identity = Permutation.identity(n)
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                e = g * h
                if e not in index:
                    index[e] = len(elements)
                    elements.append(e)
                    nxt.append(e)
                    if len(elements) > limit:
                        raise PermutationError("group closure exceeded limit")
        frontier = nxt
    return elements
