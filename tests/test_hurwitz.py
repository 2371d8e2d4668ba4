"""Branched-cover combinatorics: well-formed covers, genus, pullbacks, tuple search."""

import itertools
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from kumfib import hodge, hurwitz
from kumfib.cli import admissible_branch_data
from kumfib.hodge import CY_INFINITY_PROFILES
from kumfib.hurwitz import (
    C2_COMPONENTS,
    MAX_SEARCH_DEGREE,
    SPECIAL_MARKS,
    BranchData,
    ComponentReport,
    HurwitzCover,
    HurwitzError,
    SearchResult,
    _canonical_representative,
    _centralizer,
    _hits,
    _pairs,
    _permutations_of_type,
    branch_data_of,
    canonical_key,
    component_genera,
    genus,
    partitions,
    pullback,
    regular_deck_cover,
    search_tuples,
    validate,
)
from kumfib.monodromy import REFERENCE_TABLE
from kumfib.permutations import (
    Permutation,
    PermutationError,
    compose_all,
    is_transitive,
    orbit_labels,
)


def perm(n, *cycles):
    return Permutation.from_cycles(n, cycles)


@pytest.fixture(scope="module")
def small_searches():
    """search_tuples at its defaults on every catalog datum of degree at most five."""
    return {b: search_tuples(b) for b in admissible_branch_data(5)}


class TestCycleNotation:
    @pytest.mark.parametrize("text", ["(1 2)(1 2)", "(1 2 3)(3 2 1)", "(1 2)(2 3)", "(1 2 1)"])
    def test_point_in_two_cycles_refused(self, text):
        with pytest.raises(PermutationError, match="cycles must be disjoint"):
            Permutation.from_cycle_string(3, text)

    def test_images_are_zero_based_points_one_based(self):
        with pytest.raises(PermutationError):
            Permutation((1, 2, 3))  # 1-based images of the identity
        swap = Permutation((1, 0))
        assert (swap(1), swap(2), swap.cycle_string()) == (2, 1, "(1 2)")
        for perm in REFERENCE_TABLE.values():
            assert Permutation.from_cycle_string(6, perm.cycle_string()) == perm

    @pytest.mark.parametrize(
        "build",
        [lambda: Permutation([1.5, 2.7]), lambda: Permutation.from_cycles(3, [(1.9, 2)])],
        ids=["images", "cycles"],
    )
    def test_non_integers_refused(self, build):
        with pytest.raises(PermutationError, match="not an integer"):
            build()


class TestPermutationHelpers:
    @staticmethod
    def random_generator_sets(seed, count=300):
        rng = random.Random(seed)
        for _ in range(count):
            degree = rng.randint(1, 8)
            yield degree, [Permutation(rng.sample(range(degree), degree)) for _ in range(rng.randint(0, 3))]

    def test_is_transitive_is_one_orbit(self):
        sets = list(self.random_generator_sets(20261019))
        assert {is_transitive(d, g) for d, g in sets} == {True, False}
        assert any(d == 1 for d, _ in sets)
        assert any(not g for _, g in sets)
        for degree, generators in sets:
            assert is_transitive(degree, generators) == (len(reference_orbits(degree, generators)) == 1), generators
            orbit_of, sizes = orbit_labels(degree, [g.images for g in generators])
            labelled = [tuple(p + 1 for p in range(degree) if orbit_of[p] == k) for k in range(len(sizes))]
            assert labelled == reference_orbits(degree, generators) and sizes == list(map(len, labelled)), generators

    def test_compose_all_is_the_product(self):
        for degree, perms in self.random_generator_sets(1019):
            product = Permutation.identity(degree)
            for p in perms:
                product = p * product
            assert compose_all(perms, degree) == product

    def test_compose_all_degree_mismatch(self):
        with pytest.raises(PermutationError, match="degree mismatch in composition"):
            compose_all([perm(3, (1, 2)), perm(2, (1, 2))], 3)


class TestValidate:
    def test_double_cover_ok(self):
        cover = HurwitzCover(2, infinity=perm(2, (1, 2)), zero=perm(2, (1, 2)))
        assert validate(cover) == []

    def test_bad_product(self):
        # refused at construction: a HurwitzCover is well formed
        with pytest.raises(HurwitzError, match=re.escape("monodromy product is (1 2), not the identity")):
            HurwitzCover(2, zero=perm(2, (1, 2)))

    def test_quadruple_component_ok(self):
        quad = C2_COMPONENTS[2]
        assert validate(quad) == []

    def test_disconnected_flagged(self):
        cover = HurwitzCover(
            4, infinity=perm(4, (1, 2)), zero=perm(4, (1, 2))
        )
        problems = validate(cover)
        assert problems == ["monodromy group is not transitive (cover is disconnected)"]

    def test_transitivity_reported_after_structure(self):
        # malformed and disconnected: refused for its structure, at construction,
        # before connectivity can be tested
        with pytest.raises(HurwitzError, match=re.escape("monodromy product is (1 2), not the identity")):
            HurwitzCover(4, zero=perm(4, (1, 2)))

    def test_degree_mismatch(self):
        with pytest.raises(
            HurwitzError, match="permutation at quarter256 acts on 2 points, cover degree is 3"
        ):
            HurwitzCover(3, quarter256=Permutation.identity(2))

    @pytest.mark.parametrize(
        "degree, message",
        [(0, "degree must be positive, got 0"), (2.5, "not an integer: 2.5")],
        ids=["degree", "non-integer-degree"],
    )
    def test_every_structural_check_at_construction(self, degree, message):
        with pytest.raises(HurwitzError, match=re.escape(message)):
            HurwitzCover(degree)

    def test_whole_float_degree_is_read_as_an_int(self):
        cover = HurwitzCover(2.0)
        assert type(cover.degree) is int and cover.permutations == (Permutation.identity(2),) * 3

    def test_keyword_slots(self):
        t = perm(3, (1, 2))
        cover = HurwitzCover(3, extras=(t, t))
        ident = Permutation.identity(3)
        assert (cover.quarter256, cover.infinity, cover.zero) == (ident, ident, ident)
        assert cover.permutations == (ident, ident, ident, t, t)
        assert cover.marks == ("quarter256", "infinity", "zero", "extra1", "extra2")
        swap = perm(2, (1, 2))
        assert HurwitzCover(2, infinity=swap, zero=swap).permutations == (Permutation.identity(2), swap, swap)
        with pytest.raises(HurwitzError, match="permutation at extra2 acts on 2 points, cover degree is 3"):
            HurwitzCover(3, extras=(t, swap))


class TestGenus:
    def test_two_point_double_cover(self):
        cover = HurwitzCover(2, infinity=perm(2, (1, 2)), zero=perm(2, (1, 2)))
        assert genus(cover) == 0

    def test_c2_components(self):
        assert [genus(c) for c in C2_COMPONENTS] == [0, 0, 0]

    def test_quintic_normalization_profiles(self):
        # degree 4 with [2,2], [4], [1,1,1,1] over the marks and five simple
        # extra branch points realizes a genus-2 curve
        extras = (
            perm(4, (1, 2)),
            perm(4, (1, 3)),
            perm(4, (1, 4)),
            perm(4, (1, 2)),
            perm(4, (1, 2)),
        )
        cover = HurwitzCover(
            4,
            infinity=perm(4, (1, 2, 3, 4)),
            zero=perm(4, (1, 3), (2, 4)),
            extras=extras,
        )
        assert validate(cover) == []
        assert genus(cover) == 2

    def test_disconnected_rejected(self):
        cover = HurwitzCover(4, infinity=perm(4, (1, 2)), zero=perm(4, (1, 2)))
        with pytest.raises(HurwitzError):
            genus(cover)


class TestBranchData:
    def test_partitions_must_sum(self):
        with pytest.raises(HurwitzError):
            BranchData(n=4, x=(2, 1), y=(4,), z=(4,), r=0)

    def test_part_counts(self):
        b = BranchData(n=8, x=(2, 2, 2, 2), y=(4, 4), z=(2, 2, 2, 2), r=0)
        assert (b.k, b.l, b.m, b.m_odd) == (4, 2, 4, 0)

    def test_total_ramification_is_the_sum_of_v_minus_one(self):
        for n in range(1, 7):
            for x, y, z in itertools.product(list(partitions(n)), repeat=3):
                for r in range(2 * n):
                    b = BranchData(n=n, x=x, y=y, z=z, r=r)
                    assert b.total_ramification() == sum(v - 1 for v in x + y + z) + r, b

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            (dict(x=(3, 0), y=(2, 1)), HurwitzError, "partition x has nonpositive parts: (3, 0)"),
            (dict(x=(4, -1)), HurwitzError, "partition x has nonpositive parts: (4, -1)"),
            (dict(y=(2, 2)), HurwitzError, "partition y=(2, 2) does not sum to n=3"),
            # x is validated before y, and a sum before the next partition
            (dict(x=(1, 1), y=(0, 3)), HurwitzError, "partition x=(1, 1) does not sum to n=3"),
            (dict(z=(1, 1, 1, 1)), HurwitzError, "partition z=(1, 1, 1, 1) does not sum to n=3"),
            (dict(r=-1), HurwitzError, "negative extra ramification r=-1"),
            # every partition is converted before any is validated
            (dict(x=(0, 3), z=("a",)), ValueError, "invalid literal for int() with base 10: 'a'"),
            (dict(y=(None,)), TypeError, "int() argument must be a string"),
            # a number that int() would truncate is refused, not truncated
            (dict(x=(1.5, 1.5, 1), y=(2.9, 1)), HurwitzError, "not an integer: 1.5"),
            (dict(y=(2.9, 1)), HurwitzError, "not an integer: 2.9"),
            (dict(r=0.5), HurwitzError, "not an integer: 0.5"),
            (dict(n=3.5), HurwitzError, "not an integer: 3.5"),
        ],
    )
    def test_error_messages(self, fields, error, message):
        with pytest.raises(error, match=re.escape(message)):
            BranchData(**{"n": 3, "x": (3,), "y": (2, 1), "z": (1, 1, 1), "r": 0, **fields})

    def test_parts_converted_and_sorted(self):
        b = BranchData(n=4, x=["1", 3], y=(1.0, 2, 1), z=(4,), r=0)
        assert (b.x, b.y, b.z) == ((3, 1), (2, 1, 1), (4,))

    def test_of_cover(self):
        b = branch_data_of(regular_deck_cover())
        assert (b.n, b.x, b.y, b.z, b.r) == (8, (2, 2, 2, 2), (4, 4), (2, 2, 2, 2), 0)


class TestPartitions:
    def test_counts_up_to_the_bound(self):
        counts = [len(list(partitions(n))) for n in range(MAX_SEARCH_DEGREE + 1)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_parts_non_increasing_and_sum(self):
        for n in range(1, MAX_SEARCH_DEGREE + 1):
            parts = list(partitions(n))
            assert len(set(parts)) == len(parts)
            assert all(sum(p) == n and list(p) == sorted(p, reverse=True) for p in parts)


class TestPullback:
    def test_identity_pullback_returns_the_cover(self):
        quad = C2_COMPONENTS[2]
        identity_cover = HurwitzCover(1)
        reports = pullback(quad, identity_cover)
        assert len(reports) == 1
        report = reports[0]
        assert report.degree == 4
        assert report.genus == genus(quad)
        assert report.profiles["quarter256"] == (2, 1, 1)
        assert report.profiles["zero"] == (2, 2)
        assert report.profiles["infinity"] == (4,)

    def test_regular_cover_pullback_components(self):
        cover = regular_deck_cover()
        counts = []
        for component in C2_COMPONENTS:
            reports = pullback(component, cover)
            counts.append(len(reports))
            assert all(r.genus == 0 for r in reports)
            assert all(r.degree == 8 for r in reports)
        assert counts == [2, 2, 4]  # eight components in total

    def test_relabeling_invariance(self):
        quad = C2_COMPONENTS[2]
        rho = perm(4, (1, 2, 3))
        conjugated = HurwitzCover(
            4,
            quarter256=quad.quarter256.conjugate_by(rho),
            infinity=quad.infinity.conjugate_by(rho),
            zero=quad.zero.conjugate_by(rho),
        )
        g = regular_deck_cover()
        original = [(r.degree, sorted(r.profiles.items()), r.genus) for r in pullback(quad, g)]
        relabeled = [(r.degree, sorted(r.profiles.items()), r.genus) for r in pullback(conjugated, g)]
        assert original == relabeled

    def test_pair_cycle_lengths_are_lcms(self):
        rng = random.Random(6)
        for _ in range(20):
            d, n = rng.randint(2, 6), rng.randint(2, 6)

            def rand_cover(k):
                ps = []
                for _ in range(2):
                    images = list(range(k))
                    rng.shuffle(images)
                    ps.append(Permutation(images))
                closing = (ps[1] * ps[0]).inverse()
                return HurwitzCover(k, quarter256=ps[0], infinity=ps[1], zero=closing)

            a, g = rand_cover(d), rand_cover(n)
            reports = pullback(a, g)
            assert sum(r.degree for r in reports) == d * n
            for mark in ("quarter256", "infinity", "zero"):
                pa = getattr(a, mark)
                pg = getattr(g, mark)
                expected = sorted(
                    (
                        math.lcm(len(ca), len(cg))
                        for ca in pa.cycles(include_fixed=True)
                        for cg in pg.cycles(include_fixed=True)
                        for _ in range(math.gcd(len(ca), len(cg)))
                    ),
                    reverse=True,
                )
                got = sorted(
                    (e for r in reports for e in r.profiles[mark]), reverse=True
                )
                assert got == expected

    def test_disconnected_cover_accepted(self):
        # pullback needs covers, not connected ones: two sheets, two components
        quad = C2_COMPONENTS[2]
        reports = pullback(quad, HurwitzCover(2))
        assert [r.degree for r in reports] == [4, 4]

    def test_bad_product_rejected(self):
        # the malformed g never reaches pullback: its construction fails
        with pytest.raises(HurwitzError, match=re.escape("monodromy product is (1 2), not the identity")):
            HurwitzCover(2, zero=perm(2, (1, 2)))

    def test_mark_merge_with_extras(self):
        data = BranchData(n=5, x=(5,), y=(4, 1), z=(1, 1, 1, 1, 1), r=1)
        cover = search_tuples(data).covers[0]
        reports = pullback(C2_COMPONENTS[0], cover)
        assert len(reports) == 1
        assert reports[0].degree == 10
        assert reports[0].genus == 0
        assert list(reports[0].profiles) == ["quarter256", "infinity", "zero", "b:extra1"]


def reference_orbits(degree, generators):
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


def reference_pullback(base_cover, g):
    """The pullback as Permutation objects: pair actions, reference_orbits() and cycles().

    Pairs (i, j) in {1..d} x {1..n} are numbered (i - 1) n + j.
    """
    d, n = base_cover.degree, g.degree

    def pair_perm(pa, pb):
        return Permutation(a * n + b for a in pa.images for b in pb.images)

    generators = {
        mark: pair_perm(getattr(base_cover, mark), getattr(g, mark)) for mark in SPECIAL_MARKS
    }
    for mark, pa in zip(base_cover.marks[3:], base_cover.extras):
        generators[f"a:{mark}"] = pair_perm(pa, Permutation.identity(n))
    for mark, pb in zip(g.marks[3:], g.extras):
        generators[f"b:{mark}"] = pair_perm(Permutation.identity(d), pb)

    pair_orbits = reference_orbits(d * n, generators.values())
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


def report_items(reports):
    """The reports with their profiles in mark order, which == on a dict ignores."""
    return [(r.degree, list(r.profiles.items()), r.genus) for r in reports]


def random_cover(rng, degree, base_extras):
    """A seeded cover with random special permutations and `base_extras` random extras."""

    def shuffled():
        images = list(range(degree))
        rng.shuffle(images)
        return Permutation(images)

    quarter256, infinity = shuffled(), shuffled()
    extras = tuple(shuffled() for _ in range(base_extras))
    # extras o zero o infinity o quarter256 = identity
    zero = compose_all(extras, degree).inverse() * (infinity * quarter256).inverse()
    return HurwitzCover(degree, quarter256=quarter256, infinity=infinity, zero=zero, extras=extras)


def direct_sum(first, second):
    """The disconnected cover with `first` on the low sheets and `second` on the rest."""
    d = first.degree

    def block(pa, pb):
        return Permutation((*pa.images, *(d + i for i in pb.images)))

    pad = len(first.extras) - len(second.extras)  # identities even out the extras
    extras = zip(
        first.extras + (Permutation.identity(d),) * -pad,
        second.extras + (Permutation.identity(second.degree),) * pad,
    )
    return HurwitzCover(
        d + second.degree,
        **{mark: block(getattr(first, mark), getattr(second, mark)) for mark in SPECIAL_MARKS},
        extras=tuple(block(pa, pb) for pa, pb in extras),
    )


class TestPullbackReference:
    def test_fixed_curve_components_on_every_small_search(self, small_searches):
        covers = [c for result in small_searches.values() for c in result.covers]
        assert len(covers) > 100
        for g in covers:
            for component in C2_COMPONENTS:
                assert report_items(pullback(component, g)) == report_items(reference_pullback(component, g)), g

    def test_random_covers_with_extras_on_both_sides(self):
        rng = random.Random(20261019)
        for _ in range(200):
            a = random_cover(rng, rng.randint(1, 5), rng.randint(1, 3))
            g = random_cover(rng, rng.randint(1, 5), rng.randint(1, 3))
            got = pullback(a, g)
            assert report_items(got) == report_items(reference_pullback(a, g))
            assert list(got[0].profiles)[3:] == [
                *(f"a:{m}" for m in a.marks[3:]),
                *(f"b:{m}" for m in g.marks[3:]),
            ]

    def test_disconnected_covers(self):
        rng = random.Random(7)
        for _ in range(50):
            a = direct_sum(random_cover(rng, rng.randint(1, 3), rng.randint(0, 2)), HurwitzCover(rng.randint(1, 3)))
            g = direct_sum(random_cover(rng, rng.randint(1, 4), rng.randint(0, 2)),
                           random_cover(rng, rng.randint(1, 3), rng.randint(0, 2)))
            assert validate(a) and validate(g)
            for base, cover in ((a, g), (g, a), (a, a)):
                reports = pullback(base, cover)
                assert len(reports) >= 2
                assert report_items(reports) == report_items(reference_pullback(base, cover))


class TestComponentGenera:
    def test_equals_the_pullback_genera_on_random_covers(self):
        # degrees 2-6, extras on both sides, and every fourth pair disconnected
        rng = random.Random(20261020)
        for trial in range(300):
            if trial % 4:
                a = random_cover(rng, rng.randint(2, 6), rng.randint(1, 3))
                g = random_cover(rng, rng.randint(2, 6), rng.randint(1, 3))
            else:
                a = direct_sum(random_cover(rng, rng.randint(1, 3), rng.randint(1, 2)),
                               random_cover(rng, rng.randint(1, 3), rng.randint(1, 2)))
                g = direct_sum(random_cover(rng, rng.randint(1, 3), rng.randint(1, 2)), HurwitzCover(rng.randint(1, 3)))
                assert validate(a) and validate(g)
            for base, cover in ((a, g), (g, a)):
                got = component_genera(base, cover)
                assert Counter(got) == Counter(r.genus for r in pullback(base, cover)), (base, cover)

    def test_fixed_curve_equals_the_pullback_reference_on_every_small_search(self, small_searches):
        covers = [c for result in small_searches.values() for c in result.covers]
        assert len(covers) > 100
        for g in covers:
            reference = sorted(r.genus for component in C2_COMPONENTS for r in pullback(component, g))
            assert hodge.fixed_curve(g) == tuple(reference), g


class TestC2Components:
    def test_built_once(self):
        # a constant built at import, the very tuple the Hodge pipeline pulls back
        assert hodge.C2_COMPONENTS is C2_COMPONENTS

    def test_degrees_and_total(self):
        comps = C2_COMPONENTS
        assert tuple(c.degree for c in comps) == (2, 2, 4)
        assert sum(c.degree for c in comps) == 8

    def test_profiles(self):
        quad = C2_COMPONENTS[2]
        assert quad.quarter256.cycle_type() == (2, 1, 1)
        assert quad.zero.cycle_type() == (2, 2)
        assert quad.infinity.cycle_type() == (4,)
        double = C2_COMPONENTS[0]
        assert double.zero.cycle_type() == (2,)
        assert double.infinity.cycle_type() == (2,)
        assert double.quarter256.cycle_type() == (1, 1)


class TestSearchTuples:
    def test_quadruple_tuple_unique_up_to_conjugation(self):
        data = BranchData(n=4, x=(2, 2), y=(4,), z=(2, 1, 1), r=0)
        result = search_tuples(data)
        assert len(result.covers) == 1 and not result.truncated

    def test_quintic_data_rigid(self):
        data = BranchData(n=5, x=(5,), y=(4, 1), z=(1, 1, 1, 1, 1), r=1)
        result = search_tuples(data)
        assert len(result.covers) == 1 and not result.truncated
        assert genus(result.covers[0]) == 0

    def test_regular_tuple_found(self):
        data = BranchData(n=8, x=(2, 2, 2, 2), y=(4, 4), z=(2, 2, 2, 2), r=0)
        result = search_tuples(data, limit=64)
        from kumfib.hurwitz import canonical_key

        target = canonical_key(8, regular_deck_cover().permutations)
        assert any(canonical_key(8, c.permutations) == target for c in result.covers)

    def test_parity_violation_empty(self):
        # total ramification 3 is odd, can never be 2n-2 = 2
        data = BranchData(n=2, x=(2,), y=(2,), z=(2,), r=0)
        assert search_tuples(data).covers == ()

    def test_wrong_genus_empty(self):
        # consistent parity but genus 1 data: no rational realization
        data = BranchData(n=2, x=(2,), y=(2,), z=(2,), r=1)
        assert search_tuples(data).covers == ()

    def test_degree_above_bound_refused(self):
        n = MAX_SEARCH_DEGREE + 1
        data = BranchData(n=n, x=(n,), y=(n - 4, 4), z=(2,) + (1,) * (n - 2), r=0)
        with pytest.raises(HurwitzError, match=f"degree at most {MAX_SEARCH_DEGREE}"):
            search_tuples(data)

    def test_budget_truncation_flag(self):
        data = BranchData(n=8, x=(1,) * 8, y=(4, 4), z=(1,) * 8, r=8)
        result = search_tuples(data, limit=2, max_candidates=2000)
        assert result.truncated

    @pytest.mark.parametrize("limit", [0, -3])
    @pytest.mark.parametrize(
        "data",
        [
            BranchData(n=5, x=(5,), y=(4, 1), z=(1, 1, 1, 1, 1), r=1),
            BranchData(n=2, x=(2,), y=(2,), z=(2,), r=0),
        ],
        ids=["quintic", "no-rational-cover"],
    )
    def test_limit_below_one_refused(self, data, limit):
        # refused before any work, even where no search would run
        with pytest.raises(HurwitzError, match=f"search limit must be at least 1, got {limit}"):
            search_tuples(data, limit=limit)
        if data.admits_rational_cover():
            with pytest.raises(HurwitzError, match=f"got {limit}"):
                hodge.analyze_branch_data(data, limit=limit)


#: Per datum, the candidates made so far and the iterator that makes the
#: rest, so the search tests of this module share one enumeration.
_CANDIDATES = {}


def reference_candidates(b):
    """(extras, sigma_c, sigma_0) for every candidate of the search, in its order.

    Extras in itertools.product order, the class over 1/256 inside, sigma_0
    from the product relation, all as Permutation objects.  Each candidate
    is made once and replayed to every later caller with the same datum.
    """
    made, rest = _CANDIDATES.setdefault(b, ([], _fresh_candidates(b)))
    for i in itertools.count():
        if i == len(made):
            candidate = next(rest, None)
            if candidate is None:
                return
            made.append(candidate)
        yield made[i]


def _fresh_candidates(b):
    n = b.n
    sigma_inf_inv = _canonical_representative(n, b.y).inverse()
    transpositions = [Permutation.from_cycles(n, [pair]) for pair in itertools.combinations(range(1, n + 1), 2)]
    tails = [(sigma_c, sigma_c.inverse() * sigma_inf_inv) for sigma_c in _permutations_of_type(n, b.z)]
    for extras in itertools.product(transpositions, repeat=b.r):
        lead = Permutation.identity(n)
        for tau in extras:
            lead = lead * tau
        for sigma_c, tail in tails:
            yield extras, sigma_c, lead * tail


def reference_search(b, limit, max_candidates):
    """The tuple search as a plain loop on Permutation objects, for admissible data.

    Same candidate order, budget and limit as search_tuples.
    """
    n = b.n
    sigma_inf = _canonical_representative(n, b.y)
    found = {}
    for number, (extras, sigma_c, sigma_0) in enumerate(reference_candidates(b)):
        if number >= max_candidates:
            return SearchResult(tuple(found.values()), truncated=True)
        perms = (sigma_c, sigma_inf, sigma_0, *extras)
        if sigma_0.cycle_type() != b.x or not is_transitive(n, perms):
            continue
        key = canonical_key(n, perms)
        if key not in found:
            found[key] = HurwitzCover(
                n, quarter256=sigma_c, infinity=sigma_inf, zero=sigma_0, extras=extras
            )
            if len(found) >= limit:
                return SearchResult(tuple(found.values()), truncated=True)
    return SearchResult(tuple(found.values()), truncated=False)


class TestSearchEquivalence:
    def test_every_datum_up_to_degree_five(self, small_searches):
        assert len(small_searches) == 68
        for b, result in small_searches.items():
            assert result == reference_search(b, 16, 2_000_000), b

    def test_sample_of_degrees_six_and_eight_at_a_small_budget(self):
        catalog = admissible_branch_data(8)
        sample = [b for b in catalog if b.n == 6][::16] + [b for b in catalog if b.n == 8][::72]
        assert len(sample) == 11
        for b in sample:
            assert search_tuples(b, limit=4, max_candidates=2000) == reference_search(b, 4, 2000), b

    def test_surgery_hits_are_the_candidates_of_type_x(self):
        # every hit once, in candidate order, none of another type: a wrong
        # hit with more cycles over 0 is intransitive and leaves no trace in the result
        for b in admissible_branch_data(5):
            n, budget = b.n, 5000
            transpositions = [Permutation.from_cycles(n, [pair]) for pair in itertools.combinations(range(1, n + 1), 2)]
            sigma_inf = _canonical_representative(n, b.y)
            pairs, pair_number = _pairs(n)
            hits = _hits(sigma_inf, _permutations_of_type(n, b.z), b.x, b.r, pairs, pair_number, budget)
            found = [(tuple(transpositions[k] for k in index), sigma_c) for index, sigma_c in hits]
            candidates = itertools.islice(reference_candidates(b), budget)
            assert found == [(e, c) for e, c, sigma_0 in candidates if sigma_0.cycle_type() == b.x], b

    def test_one_pair_table_per_search(self, monkeypatch):
        # _hits takes the table search_tuples made; it does not build its own
        made = []
        monkeypatch.setattr(hurwitz, "_pairs", lambda n: made.append(n) or _pairs(n))
        result = search_tuples(BranchData(n=4, x=(1, 1, 1, 1), y=(2, 2), z=(3, 1), r=2))
        assert len(result.covers) == 3
        assert made == [4]

    def test_candidate_budget_is_exact(self):
        # 8 three-cycles over 1/256 times 6 ** 2 pairs of extras: 288 candidates
        data = BranchData(n=4, x=(1, 1, 1, 1), y=(2, 2), z=(3, 1), r=2)
        full = search_tuples(data, max_candidates=288)
        assert not full.truncated and len(full.covers) == 3
        assert search_tuples(data, max_candidates=287).truncated
        assert search_tuples(data, max_candidates=287).covers == full.covers

    def test_limit_truncates_even_when_nothing_is_left(self):
        data = BranchData(n=4, x=(1, 1, 1, 1), y=(2, 2), z=(3, 1), r=2)
        assert search_tuples(data, limit=3).truncated
        assert not search_tuples(data, limit=4).truncated

    @pytest.mark.parametrize("r", [2, 3])
    def test_budget_boundaries(self, r):
        # C = 6 transpositions over 1/256 and P = 6 transpositions in all; the
        # last extra is found by cycle surgery, so the budget must cut inside it
        data = BranchData(n=4, x=(2, 1, 1) if r == 2 else (1, 1, 1, 1), y=(2, 2), z=(2, 1, 1), r=r)
        c, p = len(_permutations_of_type(4, data.z)), math.comb(4, 2)
        assert (c, p) == (6, 6)
        for budget in (1, c - 1, c, c + 1, p * c - 1, p * c, p * c + 1, p**r * c - 1, p**r * c):
            assert search_tuples(data, 16, budget) == reference_search(data, 16, budget), budget

    def test_limit_stops_inside_a_prefix(self):
        data = BranchData(n=4, x=(2, 1, 1), y=(2, 2), z=(2, 1, 1), r=2)
        full = search_tuples(data)
        assert len(full.covers) == 12 and not full.truncated
        # the first two tuples share their first extra: limit 1 stops between them
        assert full.covers[0].extras[0] == full.covers[1].extras[0]
        for limit in range(1, 12):
            result = search_tuples(data, limit=limit)
            assert result == reference_search(data, limit, 2_000_000), limit
            assert result == SearchResult(full.covers[:limit], truncated=True)


def commuting_filter(sigma):
    """The centralizer of sigma as the n! filter finds it, in lexicographic order of images."""
    perms = map(Permutation, itertools.permutations(range(sigma.degree)))
    return tuple(rho for rho in perms if rho * sigma == sigma * rho)


class TestSeenSet:
    def test_centralizer_equals_the_filter(self):
        for y in CY_INFINITY_PROFILES:
            n = sum(y)
            if n <= 6:
                sigma = _canonical_representative(n, y)
                found = tuple(map(Permutation, _centralizer(sigma)))
                assert found == commuting_filter(sigma), y
                assert len(found) == centralizer_order(y), y

    def test_degree_eight_centralizers(self):
        for y in ((4, 4), (8,)):
            sigma = _canonical_representative(8, y)
            found = tuple(map(Permutation, _centralizer(sigma)))
            assert len(set(found)) == len(found) == centralizer_order(y)
            assert all(rho * sigma == sigma * rho for rho in found)

    @pytest.mark.parametrize(
        "data, limit",
        [
            (BranchData(n=5, x=(5,), y=(4, 1), z=(1, 1, 1, 1, 1), r=1), 16),
            (BranchData(n=8, x=(2, 2, 2, 2), y=(4, 4), z=(2, 2, 2, 2), r=0), 64),
        ],
        ids=["quintic", "regular"],
    )
    def test_no_canonical_key_calls(self, monkeypatch, data, limit):
        calls = []
        real = hurwitz.canonical_key
        monkeypatch.setattr(hurwitz, "canonical_key", lambda *a: calls.append(a) or real(*a))
        assert search_tuples(data, limit=limit).covers
        assert calls == []

    def test_kept_tuples_are_pairwise_distinct(self):
        data = admissible_branch_data(6)
        data.append(BranchData(n=8, x=(2, 2, 2, 2), y=(4, 4), z=(2, 2, 2, 2), r=0))
        for b in data:
            covers = search_tuples(b, limit=64, max_candidates=20_000).covers
            keys = [canonical_key(b.n, c.permutations) for c in covers]
            assert len(set(keys)) == len(keys), b


def filtered_class(n, cycle_type):
    """The class as the n! filter finds it, in lexicographic order of images."""
    perms = map(Permutation, itertools.permutations(range(n)))
    return tuple(p for p in perms if p.cycle_type() == cycle_type)


def centralizer_order(cycle_type):
    return math.prod(k**m * math.factorial(m) for k, m in Counter(cycle_type).items())


class TestClassGenerator:
    def test_equals_the_filter_up_to_degree_six(self):
        for n in range(1, 7):
            for part in partitions(n):
                assert _permutations_of_type(n, part) == filtered_class(n, part), part

    def test_degree_eight_classes(self):
        for part in partitions(8):
            cls = _permutations_of_type(8, part)
            assert len(cls) == math.factorial(8) // centralizer_order(part)
            assert len(set(cls)) == len(cls)
            assert all(p.cycle_type() == part for p in cls)
            assert [p.images for p in cls] == sorted(p.images for p in cls)

    def test_all_degree_eight_classes_within_budget(self):
        # the n! filter took about 8 s for these 22 classes
        _permutations_of_type.cache_clear()
        start = time.perf_counter()
        sizes = [len(_permutations_of_type(8, part)) for part in partitions(8)]
        assert time.perf_counter() - start < 2.0
        assert len(sizes) == 22 and sum(sizes) == math.factorial(8)

    def test_cycle_type_order_and_bad_types(self):
        assert _permutations_of_type(4, (1, 2, 1)) == _permutations_of_type(4, (2, 1, 1))
        assert _permutations_of_type(4, (2, 1)) == ()
        assert _permutations_of_type(3, (3, 0)) == ()


# -- Hurwitz's closed forms as an oracle for the search ------------------------------
#
# The mass of branch data is the sum of 1/|Aut| over the simultaneous-conjugacy
# classes of transitive tuples that realize it, where |Aut| is the number of
# permutations commuting with every permutation of the tuple.  With that
# normalisation two families of the catalog have a mass in closed form (Hurwitz,
# Math. Ann. 39 (1891); Goulden & Jackson, Proc. AMS 125 (1997); Goulden, Jackson
# & Vakil, Adv. Math. 198 (2005)), computed here with nothing from the search.


def partition_symmetry(part):
    """|Aut| of a partition: the product of m! over the multiplicities m of its parts."""
    return math.prod(math.factorial(m) for m in Counter(part).values())


def hurwitz_formula(b):
    """x = z = (1^n), r = n + l - 2: r! n^(l-3) prod y_i^y_i / y_i! / |Aut y|."""
    assert b.r == b.n + len(b.y) - 2
    weights = math.prod(Fraction(v**v, math.factorial(v)) for v in b.y)
    return math.factorial(b.r) * Fraction(b.n) ** (len(b.y) - 3) * weights / partition_symmetry(b.y)


def one_part_formula(b):
    """y = (n), x = (1^n), r = len(z) - 1: r! n^(r-1) / |Aut z|."""
    assert b.r == len(b.z) - 1
    return math.factorial(b.r) * Fraction(b.n) ** (b.r - 1) / partition_symmetry(b.z)


def closed_form_masses():
    """Each catalog datum of the two families, with its mass by every formula that covers it."""
    out = {}
    for b in admissible_branch_data(MAX_SEARCH_DEGREE):
        ones = (1,) * b.n
        masses = []
        if b.x == b.z == ones:
            masses.append(hurwitz_formula(b))
        if b.y == (b.n,) and b.x == ones:
            masses.append(one_part_formula(b))
        if masses:
            out[b] = masses
    return out


def automorphism_count(cover):
    """The permutations that commute with every permutation of a transitive tuple.

    Such a g is fixed by g(1), since g(s(p)) = s(g(p)) spreads it over the
    orbit of 1, which is every point: so each image of 1 is tried, and
    counted when the map it forces is consistent and a bijection.
    """
    count = 0
    for image in range(1, cover.degree + 1):
        g, order, consistent = {1: image}, [1], True
        for p in order:
            for s in cover.permutations:
                q, gq = s(p), s(g[p])
                if q not in g:
                    g[q] = gq
                    order.append(q)
                consistent = consistent and g[q] == gq
        if consistent and len(set(g.values())) == cover.degree:
            count += 1
    return count


def found_mass(b, result):
    for cover in result.covers:
        assert branch_data_of(cover) == b and validate(cover) == [], cover
    return sum((Fraction(1, automorphism_count(c)) for c in result.covers), Fraction(0))


def search_candidates(b):
    """P^r |class of z| for the P transpositions of S_n: the search's whole candidate count."""
    return math.comb(b.n, 2) ** b.r * math.factorial(b.n) // centralizer_order(b.z)


class TestHurwitzClosedForms:
    masses = closed_form_masses()

    def test_the_two_families(self):
        # 7 data with x = z = (1^n), 22 with y = (8), x = (1^8); one in both
        assert len(self.masses) == 28
        assert sorted(map(len, self.masses.values())) == [1] * 27 + [2]
        for b, values in self.masses.items():
            assert len(set(values)) == 1, b
        assert self.masses[BranchData(n=8, x=(1,) * 8, y=(4, 4), z=(1,) * 8, r=8)] == [286720]

    def test_complete_searches_find_the_whole_mass(self):
        complete = [b for b in self.masses if search_candidates(b) <= hurwitz.MAX_CANDIDATES]
        assert len(complete) == 11
        for b in complete:
            result = search_tuples(b, limit=10**9)
            assert not result.truncated, b
            assert found_mass(b, result) == self.masses[b][0], b

    def test_budgeted_searches_stay_below_the_mass(self):
        # the inequality holds at any budget, so the costly searches run at a small one
        for b, values in self.masses.items():
            result = search_tuples(b, limit=10**9, max_candidates=20_000)
            assert result.truncated == (search_candidates(b) > 20_000), b
            assert found_mass(b, result) <= values[0], b
