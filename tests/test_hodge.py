"""Calabi-Yau condition, inventories, Hodge formulas, and the pipeline."""

from dataclasses import replace

import pytest

from kumfib import hodge
from kumfib.hodge import (
    COMPONENTS_BY_Y,
    CY_INFINITY_PROFILES,
    CYReport,
    MULTIPLICITIES_BY_Y,
    InternalError,
    UnsupportedError,
    analyze_branch_data,
    analyze_cover,
    components_over_zero,
    cy_condition,
    fiber_inventory,
    fixed_curve,
    h11,
    h21,
    reference_constants,
    smoothness,
)
from kumfib.hurwitz import (
    C2_COMPONENTS,
    MAX_SEARCH_DEGREE,
    BranchData,
    HurwitzCover,
    InvalidCoverError,
    branch_data_of,
    component_genera,
    pullback,
    regular_deck_cover,
    search_tuples,
)
from kumfib.permutations import Permutation

QUINTIC = BranchData(n=5, x=(5,), y=(4, 1), z=(1, 1, 1, 1, 1), r=1)
REGULAR = BranchData(n=8, x=(2, 2, 2, 2), y=(4, 4), z=(2, 2, 2, 2), r=0)


class TestCYCondition:
    def test_regular_datum(self):
        assert cy_condition(REGULAR)

    def test_quintic_datum(self):
        assert cy_condition(QUINTIC)

    def test_identity_map_fails(self):
        assert not cy_condition(BranchData(n=1, x=(1,), y=(1,), z=(1,), r=0))

    def test_degree_condition_fails(self):
        assert not cy_condition(BranchData(n=8, x=(2, 2, 2, 2), y=(4, 4), z=(2, 2, 2, 2), r=1))

    def test_l1_requires_full_ramification(self):
        assert cy_condition(BranchData(n=8, x=(2, 2, 2, 1, 1), y=(8,), z=(2, 2, 2, 2), r=0))
        assert not cy_condition(BranchData(n=4, x=(2, 2), y=(4,), z=(2, 1, 1), r=0))

    def test_l2_requires_tame_orders(self):
        assert not cy_condition(BranchData(n=6, x=(2, 2, 2), y=(3, 3), z=(2, 2, 2), r=1))

    def test_degree_bound_is_the_largest_profile(self):
        assert MAX_SEARCH_DEGREE == max(sum(y) for y in CY_INFINITY_PROFILES) == 8

    def test_profiles_sorted_as_branch_data_stores_them(self):
        for y in CY_INFINITY_PROFILES:
            n = sum(y)
            assert BranchData(n=n, x=(n,), y=y, z=(n,), r=0).y == y


class TestSmoothness:
    def test_quintic_guaranteed(self):
        assert smoothness(QUINTIC)

    def test_regular_not_guaranteed(self):
        assert not smoothness(REGULAR)

    def test_ramified_over_quarter(self):
        assert not smoothness(BranchData(n=4, x=(4,), y=(4,), z=(2, 1, 1), r=1))


class TestFiberInventory:
    def test_components_over_zero(self):
        assert components_over_zero(1) == 2
        assert components_over_zero(2) == 6
        assert components_over_zero(3) == 10
        assert components_over_zero(4) == 18

    def test_infinity_counts(self):
        assert COMPONENTS_BY_Y == {1: 20, 2: 9, 4: 1, 8: 1}
        assert MULTIPLICITIES_BY_Y[1] == ((4, 1), (3, 2), (2, 7), (1, 10))
        assert sum(count for _, count in MULTIPLICITIES_BY_Y[1]) == 20
        assert MULTIPLICITIES_BY_Y[2] == ((2, 1), (1, 8))

    def test_inventory_of_regular_datum(self):
        inv = fiber_inventory(REGULAR)
        assert inv.zero_fibers == ((2, 6),) * 4
        assert inv.infinity_fibers == ((4, 1, ((1, 1),)),) * 2
        assert inv.quarter_points == ((2, 2),) * 4
        assert inv.terminal_singularity_count() == 8

    def test_unramified_quarter_has_no_terminal_points(self):
        inv = fiber_inventory(QUINTIC)
        assert inv.quarter_points == ((1, 0),) * 5
        assert inv.terminal_singularity_count() == 0

    def test_untabulated_y_is_none(self):
        inv = fiber_inventory(BranchData(n=3, x=(3,), y=(3,), z=(3,), r=0))
        assert inv.infinity_fibers == ((3, None, None),)

    def test_divisor_class_counts_tie_to_component_counts(self):
        # every singular fiber contributes (component count - 1) new classes
        from kumfib.hodge import C_BY_Y

        for y in (1, 2, 4):
            assert C_BY_Y[y] == COMPONENTS_BY_Y[y] - 1
        for x in range(1, 13):
            contribution = x * x if x % 2 else x * x + 1
            assert contribution == components_over_zero(x) - 1


class TestHodgeFormulas:
    def test_regular_values(self):
        assert h11(REGULAR, s=8) == 40
        assert h21(REGULAR, p_g=0) == 0

    def test_quintic_values(self):
        assert h11(QUINTIC, s=3) == 59
        assert h21(QUINTIC, p_g=2) == 3

    def test_all_parts_one(self):
        # each x_i = 1 contributes 1; with s = 8 and y = [4,4]: 12 + k + 8
        b = BranchData(n=8, x=(1,) * 8, y=(4, 4), z=(1,) * 8, r=8)
        assert h11(b, s=8) == 12 + 8 + 8

    def test_unramified_h21_equals_r_plus_genus(self):
        assert h21(QUINTIC, p_g=0) == QUINTIC.r
        assert h21(QUINTIC, p_g=5) == QUINTIC.r + 5

    def test_single_infinity_point_unsupported(self):
        b = BranchData(n=8, x=(2, 2, 2, 2), y=(8,), z=(2, 2, 2, 2), r=1)
        with pytest.raises(UnsupportedError):
            h11(b, s=4)
        with pytest.raises(UnsupportedError):
            h21(b, p_g=0)

    @pytest.mark.parametrize("m_odd", [4, 3], ids=["parity", "inconsistency"])
    def test_broken_identity_is_internal_error(self, monkeypatch, m_odd):
        # genuine partitions cannot reach these branches; a faulty m_odd can
        monkeypatch.setattr(BranchData, "m_odd", property(lambda b: m_odd))
        with pytest.raises(InternalError):
            h21(QUINTIC, p_g=0)

    def test_untabulated_y_unsupported(self):
        b = BranchData(n=6, x=(2, 2, 2), y=(3, 3), z=(2, 2, 2), r=1)
        with pytest.raises(UnsupportedError):
            h11(b, s=1)


class TestConstants:
    def test_values_and_consistency(self):
        c = reference_constants()
        assert (c.product_resolution.euler, c.product_resolution.h11, c.product_resolution.h21) == (64, 32, 0)
        assert (c.kummer_model.euler, c.kummer_model.h11, c.kummer_model.h21) == (80, 40, 0)
        for triple in (c.product_resolution, c.kummer_model):
            assert triple.euler == 2 * (triple.h11 - triple.h21)


class TestPipeline:
    def test_regular_cover_report(self):
        report = analyze_cover(regular_deck_cover())
        assert report.cy
        assert report.s == 8 and report.p_g == 0
        assert report.h11 == 40 and report.h21 == 0 and report.euler == 80
        assert not report.guaranteed_smooth
        assert report.inventory.terminal_singularity_count() == 8

    def test_disconnected_cover_refused(self):
        swap = Permutation.from_cycles(4, [(1, 2)])
        cover = HurwitzCover(4, quarter256=swap, infinity=swap)
        with pytest.raises(InvalidCoverError, match="^monodromy group is not transitive"):
            analyze_cover(cover)

    def test_quintic_report(self):
        reports = analyze_branch_data(QUINTIC)
        assert len(reports) == 1
        r = reports[0]
        assert r.cy and not r.ambiguous
        assert (r.s, r.p_g, r.genera) == (3, 2, (0, 0, 2))
        assert (r.h11, r.h21, r.euler) == (59, 3, 112)
        assert r.guaranteed_smooth

    @pytest.mark.parametrize(
        "data",
        [QUINTIC, BranchData(n=8, x=(4, 4), y=(4, 4), z=(2, 2, 1, 1, 1, 1), r=0)],
        ids=["quintic", "two-outcomes"],
    )
    def test_one_report_built_per_outcome(self, monkeypatch, data):
        built = []
        init = CYReport.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CYReport, "__init__", counting_init)
        reports = analyze_branch_data(data)
        assert built == reports

    def test_records_do_not_depend_on_search_order(self, monkeypatch):
        # a complete search with two outcomes, (s, p_g) = (6, 0) and (7, 1)
        b = BranchData(n=8, x=(4, 4), y=(4, 4), z=(2, 2, 1, 1, 1, 1), r=0)
        forward = analyze_branch_data(b)
        search = hodge.search_tuples

        def reversed_search(*args, **kwargs):
            result = search(*args, **kwargs)
            return replace(result, covers=result.covers[::-1])

        monkeypatch.setattr(hodge, "search_tuples", reversed_search)
        assert [(r.s, r.p_g, r.search_truncated) for r in forward] == [(6, 0, False), (7, 1, False)]
        assert analyze_branch_data(b) == forward

    def test_fixed_curve_summary(self):
        assert fixed_curve(regular_deck_cover()) == (0,) * 8

    def test_each_distinct_component_pulled_back_once(self, monkeypatch):
        # C2_COMPONENTS is (double, double, quadruple): two genera lists, not three
        g = regular_deck_cover()
        reports = [r for c in C2_COMPONENTS for r in pullback(c, g)]
        calls = []
        monkeypatch.setattr(hodge, "component_genera", lambda *a: calls.append(a) or component_genera(*a))
        monkeypatch.setattr(hodge, "pullback", lambda *a: pytest.fail("fixed_curve builds no pullback reports"))
        genera = fixed_curve(g)
        assert [c.degree for c, _ in calls] == [2, 4]
        assert genera == tuple(sorted(r.genus for r in reports))

    @pytest.mark.parametrize(
        "b",
        [REGULAR, BranchData(n=8, x=(2, 2, 1, 1, 1, 1), y=(4, 4), z=(2, 2, 2, 2), r=2)],
        ids=["regular", "searched-r2"],
    )
    def test_fixed_curve_builds_no_permutation(self, monkeypatch, b):
        g = regular_deck_cover() if b == REGULAR else search_tuples(b, limit=1).covers[0]
        assert branch_data_of(g) == b
        expected = fixed_curve(g)
        built = []
        init = Permutation.__init__
        monkeypatch.setattr(Permutation, "__init__", lambda self, images: built.append(1) or init(self, images))
        assert fixed_curve(g) == expected
        assert built == []

    @pytest.mark.parametrize(
        "b",
        [
            # degree condition holds but y = (3,1) is outside {1,2,4}
            BranchData(n=4, x=(2, 2), y=(3, 1), z=(1, 1, 1, 1), r=2),
            # y = (1^8): its centralizer is all of S_8
            BranchData(n=8, x=(7, 1), y=(1,) * 8, z=(6, 2), r=2),
            # 15^9 extra transpositions for a brute-force search
            BranchData(n=6, x=(2, 1, 1, 1, 1), y=(1,) * 6, z=(1,) * 6, r=9),
        ],
        ids=["y31", "y1x8", "n6r9"],
    )
    def test_non_cy_data_reports_without_hodge(self, monkeypatch, b):
        # answered from the data alone: no search, no pullback
        def never(*args, **kwargs):
            raise AssertionError("non-CY branch data must not be searched")

        monkeypatch.setattr(hodge, "search_tuples", never)
        monkeypatch.setattr(hodge, "fixed_curve", never)
        assert b.admits_rational_cover()
        [r] = analyze_branch_data(b)
        assert not r.cy and r.h11 is None
        assert (r.s, r.p_g, r.genera) == (None, None, None)
        assert not r.ambiguous and not r.search_truncated
        assert r.unsupported == "canonical sheaf is not trivial for this data"

    def test_unrealizable_data_flagged(self):
        b = BranchData(n=2, x=(2,), y=(2,), z=(2,), r=0)
        reports = analyze_branch_data(b)
        assert len(reports) == 1
        assert reports[0].unsupported == "no transitive monodromy tuple realizes this branch data"
        assert reports[0].s is None

    def test_data_failing_riemann_hurwitz_past_the_degree_bound_is_unrealized(self):
        # total ramification 24, not 2n - 2 = 16: empty before the bound applies
        b = BranchData(n=9, x=(9,), y=(9,), z=(9,), r=0)
        [r] = analyze_branch_data(b)
        assert r.unsupported == "no transitive monodromy tuple realizes this branch data"
        assert (r.s, r.search_truncated) == (None, False)

    def test_euler_consistency_across_catalog(self):
        from kumfib.cli import admissible_branch_data

        with_hodge = 0
        for b in admissible_branch_data(5):
            for r in analyze_branch_data(b, limit=4, max_candidates=100_000):
                if r.h11 is not None:
                    assert r.euler == 2 * (r.h11 - r.h21)
                    with_hodge += 1
        assert with_hodge > 0
