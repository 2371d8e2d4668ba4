"""Acceptance criteria, one test per criterion with its stated time budget.

Each test runs the corresponding named verification check (the same registry
the `verify-paper` subcommand uses), asserts it passed and its wall-clock
bound, and prints one PASS/FAIL line.  The expensive loop tables are shared
across criteria through the verification cache, so criterion 6 pays the
tracking cost once and the later property suites reuse it.
"""

import time

from kumfib import hurwitz, verification


def _run(number, key, budget_seconds=None, shared_budget=None):
    result = verification.run_one(key)
    status = "PASS" if result.passed else "FAIL"
    line = f"ACCEPTANCE {number:>2} [{key}] {status} ({result.seconds:.2f}s): {result.description}"
    print(line)
    if not result.passed:
        print(f"    expected: {result.expected}")
        print(f"    actual:   {result.actual}")
    assert result.passed, f"{key}: expected {result.expected}, got {result.actual}"
    if budget_seconds is not None:
        assert result.seconds < budget_seconds, (
            f"{key} took {result.seconds:.2f}s, budget {budget_seconds}s"
        )
    return result


def test_criterion_01_cover_tower_identity():
    _run(1, "tower", budget_seconds=1.0)


def test_criterion_02_fiber_table():
    start = time.perf_counter()
    _run(2, "fiber-table")
    _run(2, "fiber-orders")
    assert time.perf_counter() - start < 1.0


def test_criterion_03_j_closed_form():
    _run(3, "j-formula")


def test_criterion_04_discriminant_factorization():
    _run(4, "delta-factorization")


def test_criterion_05_cross_family_identities():
    _run(5, "cross-family")


def test_criterion_06_loop_table():
    # includes the three-scale stability runs and the big-circle cross-check
    start = time.perf_counter()
    _run(6, "loop-table")
    assert time.perf_counter() - start < 30.0


def test_criterion_07_deck_group():
    _run(7, "deck-group")


def test_criterion_08_kummer_involutions():
    _run(8, "kummer-involutions")


def test_criterion_09_fixed_curve_components():
    _run(9, "fixed-curve-data", budget_seconds=5.0)


def test_criterion_10_quintic_example_end_to_end():
    _run(10, "quintic-example", budget_seconds=60.0)


def test_criterion_11_regular_cover_example_end_to_end():
    _run(11, "regular-cover-example", budget_seconds=60.0)


def test_criterion_12_pinned_constants():
    _run(12, "pinned-constants")


def test_criterion_13_property_suites():
    # one datum per length class; a return to one per partition triple
    # (238216 data, about 4 s) exceeds the budget
    _run(13, "cy-vs-riemann-hurwitz", budget_seconds=2.0)
    _run(13, "pullback-accounting")
    _run(13, "vieta")
    _run(13, "step-stability")


def test_criterion_13_domain_follows_the_degree_bound(monkeypatch):
    # the check counts its domain from the bound: one degree less must fail
    monkeypatch.setattr(hurwitz, "MAX_SEARCH_DEGREE", 7)
    result = verification.run_one("cy-vs-riemann-hurwitz")
    assert not result.passed
    assert result.actual == "checked 67848 branch data"
