"""Checks that do not use the program: the paper's values recomputed here.

Permutations are tuples of images of 1..n (1-based values, 0-based
positions), composed right to left: compose(p, q) applies q first.  Nothing
in this module imports kumfib, so a fault in the program cannot hide behind
the same fault in its check.
"""

from __future__ import annotations

import itertools
import math
import re

# -- permutations -------------------------------------------------------------------


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def compose(p, q) -> tuple[int, ...]:
    """p after q."""
    return tuple(p[j - 1] for j in q)


def inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p, start=1):
        inv[j - 1] = i
    return tuple(inv)


def from_cycles(n: int, text: str) -> tuple[int, ...]:
    """Parse "(1 5 2 4)(3 6)" or "id"."""
    images = list(range(1, n + 1))
    for body in re.findall(r"\(([^()]*)\)", text):
        cycle = [int(v) for v in body.split()]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
    return tuple(images)


def to_cycles(p) -> str:
    seen, parts = set(), []
    for start in range(1, len(p) + 1):
        if start in seen or p[start - 1] == start:
            continue
        cycle, j = [start], p[start - 1]
        seen.add(start)
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = p[j - 1]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "id"


def cycle_lengths(p, points=None) -> list[int]:
    """Cycle lengths of p on `points` (all of 1..n by default), fixed points included."""
    points = range(1, len(p) + 1) if points is None else points
    seen, lengths = set(), []
    for start in points:
        if start in seen:
            continue
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            length += 1
            j = p[j - 1]
        lengths.append(length)
    return lengths


def cycle_type(p) -> tuple[int, ...]:
    return tuple(sorted(cycle_lengths(p), reverse=True))


def orbits(n: int, generators) -> list[list[int]]:
    seen, out = set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        orbit, frontier = [start], [start]
        seen.add(start)
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = g[x - 1]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
                    frontier.append(y)
        out.append(orbit)
    return out


def conjugate(p, rho) -> tuple[int, ...]:
    """rho p rho^-1: the same permutation with every label i renamed rho(i)."""
    return compose(rho, compose(p, inverse(rho)))


# -- the loop table -------------------------------------------------------------------

#: The paper's monodromy of the six I2 fibre locations around 0, 1/256 and infinity.
PAPER_LOOP_TABLE = {
    "zero": from_cycles(6, "(1 4)(2 5)(3 6)"),
    "quarter256": from_cycles(6, "(1 2)"),
    "infinity": from_cycles(6, "(1 5 2 4)(3 6)"),
}


def triple_relabelings() -> list[tuple[int, ...]]:
    """The 72 relabelings keeping the pair of triples {1,2,3}, {4,5,6}.

    Each acts within both triples, and may swap the two; they are listed in
    lexicographic order of their images.
    """
    out = []
    for sig in itertools.permutations((1, 2, 3)):
        for tau in itertools.permutations((4, 5, 6)):
            out.append(tuple(sig) + tuple(tau))
            out.append(tuple(v + 3 for v in sig) + tuple(v - 3 for v in tau))
    return sorted(out)


def relabeling_to_paper(table: dict) -> tuple[int, ...] | None:
    """The first of the 72 relabelings carrying all three loops onto the paper's."""
    for rho in triple_relabelings():
        if all(conjugate(table[m], rho) == PAPER_LOOP_TABLE[m] for m in PAPER_LOOP_TABLE):
            return rho
    return None


def loop_table_problems(tables: dict[int, dict], direct_infinity) -> list[str]:
    """Everything wrong with loop tables computed at several step scales.

    tables maps a step scale to {"zero", "quarter256", "infinity"} images;
    direct_infinity is the loop around infinity tracked on its own.
    """
    problems = []
    scales = sorted(tables)
    reference = tables[scales[-1]]
    for steps in scales:
        t = tables[steps]
        if t != reference:
            problems.append(f"table at {steps} steps differs from {scales[-1]} steps")
        product = compose(t["zero"], compose(t["infinity"], t["quarter256"]))
        if product != identity(6):
            problems.append(f"product at {steps} steps is {to_cycles(product)}")
    rho = relabeling_to_paper(reference)
    if rho is None:
        problems.append("no triple-preserving relabeling gives the paper's table")
    inferred = inverse(compose(reference["quarter256"], reference["zero"]))
    if direct_infinity != inferred:
        problems.append(
            f"direct loop around infinity {to_cycles(direct_infinity)} is not "
            f"the inverse product {to_cycles(inferred)}"
        )
    return problems


# -- the catalog of admissible branch data ----------------------------------------------

ALLOWED_INFINITY = {(8,)} | {(a, b) for a in (1, 2, 4) for b in (1, 2, 4) if a >= b}


def partitions(n: int):
    """Partitions of n, parts in non-increasing order."""
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, cap), 0, -1):
            for tail in rec(rest - part, part):
                yield (part,) + tail
    return list(rec(n, n))


def admissible_catalog(max_degree: int) -> list[tuple]:
    """(n, x, y, z, r) with k + l + m - n - r = 2, r >= 0 and an allowed profile over infinity."""
    out = []
    for n in range(1, max_degree + 1):
        parts = partitions(n)
        for y in parts:
            if y not in ALLOWED_INFINITY:
                continue
            for x in parts:
                for z in parts:
                    r = len(x) + len(y) + len(z) - n - 2
                    if r >= 0:
                        out.append((n, x, y, z, r))
    return sorted(out)


def candidate_space(n: int, z, r: int) -> int:
    """Size of the brute-force space: conjugacy class of z times transpositions^r."""
    centralizer = 1
    for length in set(z):
        count = z.count(length)
        centralizer *= length**count * math.factorial(count)
    return math.comb(n, 2) ** r * (math.factorial(n) // centralizer)


# -- fibres and Hodge numbers --------------------------------------------------------------

COMPONENTS_OVER_INFINITY = {1: 20, 2: 9, 4: 1, 8: 1}
C_BY_Y = {1: 19, 2: 8, 4: 0}


def components_over_zero(x: int) -> int:
    return x * x + 1 if x % 2 else x * x + 2


def expected_fibres(n, x, y, z) -> dict:
    """The "fibers" object of a report record, from the paper's tables."""
    return {
        "over_zero": [components_over_zero(v) for v in x],
        "over_infinity": [COMPONENTS_OVER_INFINITY.get(v) for v in y],
        "over_quarter256": [(2, f"cA_{v - 1}") if v > 1 else (0, None) for v in z],
    }


def hodge_numbers(n, x, y, z, s: int, p_g: int):
    """(h11, h21, e) of the threefold over data with two points over infinity."""
    h11 = 12 + sum(v * v if v % 2 else v * v + 1 for v in x) + s + sum(C_BY_Y[v] for v in y)
    m_odd = sum(1 for v in z if v % 2)  # has the parity of n, so the halving is exact
    h21 = len(x) + (m_odd - n) // 2 + p_g
    return h11, h21, 2 * (h11 - h21)


# -- the pulled-back fixed curve ------------------------------------------------------------

# Marks in the program's order: 1/256, infinity, 0.  The fixed curve has two
# double covers branched over 0 and infinity and one four-fold cover with
# profiles [2,1,1] over 1/256, [4] over infinity and [2,2] over 0.
FIXED_CURVE_COMPONENTS = (
    (identity(2), (2, 1), (2, 1)),
    (identity(2), (2, 1), (2, 1)),
    (from_cycles(4, "(1 3)"), from_cycles(4, "(1 4 3 2)"), from_cycles(4, "(1 2)(3 4)")),
)


def fixed_curve_pullback(cover) -> tuple[int, list[int]]:
    """(s, genera) of the fixed curve pulled back along a cover.

    cover is (sigma_1/256, sigma_infinity, sigma_0, extras...).  Every
    component C of the fixed curve pulls back to the orbits of the pair
    action on C x cover; the genus of an orbit O follows from
    Riemann-Hurwitz, 2g - 2 = -2|O| + sum over marks of (|O| - cycles on O).
    """
    n = len(cover[0])
    genera = []
    for component in FIXED_CURVE_COMPONENTS:
        d = len(component[0])
        gens = []
        for mark, g in enumerate(cover):
            a = component[mark] if mark < 3 else identity(d)
            gens.append(tuple((a[i] - 1) * n + g[j] for i in range(d) for j in range(n)))
        for orbit in orbits(d * n, gens):
            ramification = sum(len(orbit) - len(cycle_lengths(g, orbit)) for g in gens)
            genera.append((ramification - 2 * len(orbit) + 2) // 2)
    return len(genera), sorted(genera)


def branch_data_of(cover) -> tuple:
    """(n, x, y, z, r) of a cover (sigma_1/256, sigma_infinity, sigma_0, extras...)."""
    n = len(cover[0])
    r = sum(n - len(cycle_lengths(g)) for g in cover[3:])
    return (n, cycle_type(cover[2]), cycle_type(cover[1]), cycle_type(cover[0]), r)


def cover_problems(cover) -> list[str]:
    n = len(cover[0])
    product = identity(n)
    for g in cover:
        product = compose(g, product)
    problems = []
    if product != identity(n):
        problems.append("product is not the identity")
    if len(orbits(n, cover)) != 1:
        problems.append("not transitive")
    return problems


def cy_condition(n, x, y, z, r) -> bool:
    return len(x) + len(y) + len(z) - n - r == 2 and y in ALLOWED_INFINITY


def expected_record(data, outcome) -> dict:
    """What one report record must say, given branch data and (s, genera) or None.

    Returns the fields the benchmark checks: cy, smoothness, terminal point
    count, fibres, fixed curve and Hodge numbers (None where the program must
    leave them out).
    """
    n, x, y, z, r = data
    cy = cy_condition(*data)
    out = {
        "cy": cy,
        "guaranteed_smooth": len(z) == n,
        "terminal_singularities": sum(2 for v in z if v > 1),
        "fibers": expected_fibres(n, x, y, z),
        "fixed_curve": None,
        "hodge": None,
    }
    if outcome is not None:
        s, genera = outcome
        out["fixed_curve"] = (s, list(genera), sum(genera))
        if cy and len(y) == 2:
            out["hodge"] = hodge_numbers(n, x, y, z, s, sum(genera))
    return out


def record_problems(record: dict, data, outcome) -> list[str]:
    """Differences between a JSONL report record and the recomputed values."""
    want = expected_record(data, outcome)
    problems = []
    b = record["branch_data"]
    if (b["n"], tuple(b["x"]), tuple(b["y"]), tuple(b["z"]), b["r"]) != data:
        problems.append(f"branch data {b} is not {data}")
    for key in ("cy", "guaranteed_smooth", "terminal_singularities"):
        if record[key] != want[key]:
            problems.append(f"{key} = {record[key]}, expected {want[key]}")
    fibres = record["fibers"]
    got_fibres = {
        "over_zero": [f["components"] for f in fibres["over_zero"]],
        "over_infinity": [f["components"] for f in fibres["over_infinity"]],
        "over_quarter256": [(f["terminal_points"], f["type"]) for f in fibres["over_quarter256"]],
    }
    if got_fibres != want["fibers"]:
        problems.append(f"fibres {got_fibres}, expected {want['fibers']}")
    curve = record["fixed_curve"]
    got_curve = None if curve is None else (curve["components"], curve["genera"], curve["p_g"])
    if got_curve != want["fixed_curve"]:
        problems.append(f"fixed curve {got_curve}, expected {want['fixed_curve']}")
    got_hodge = None if record["h11"] is None else (record["h11"], record["h21"], record["euler"])
    if got_hodge != want["hodge"]:
        problems.append(f"hodge numbers {got_hodge}, expected {want['hodge']}")
    if want["hodge"] is None and want["cy"] and record["unsupported"] is None:
        problems.append("no Hodge numbers and no reason given")
    return problems


#: The paper's worked examples: branch data and (h11, h21, e).
QUINTIC_DATUM = (5, (5,), (4, 1), (1, 1, 1, 1, 1), 1)
QUINTIC_HODGE = (59, 3, 112)
REGULAR_DATUM = (8, (2, 2, 2, 2), (4, 4), (2, 2, 2, 2), 0)
REGULAR_HODGE = (40, 0, 80)
