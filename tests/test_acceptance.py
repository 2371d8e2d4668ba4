"""Acceptance criteria, one test per criterion with its stated time budget.

Each test runs the corresponding named verification check (the same registry
the `verify-paper` subcommand uses), asserts it passed and its wall-clock
bound, and prints one PASS/FAIL line.  The expensive loop tables are shared
across criteria through the verification cache, so criterion 6 pays the
tracking cost once and the later property suites reuse it.  A table of
injected faults, at least one per check, shows that each check fails when the
values it compares disagree.
"""

import time
from dataclasses import replace
from fractions import Fraction

import pytest

from kumfib import family, hodge, hurwitz, kodaira, mpolar, verification


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
    # (238216 data, about 1 s) shows as memo misses in test_hurwitz, not here
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


def _fault(module, name, change):
    """A fault that sets module.name to change(its current value)."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, change(getattr(module, name)))


def _swap_zero_and_infinity(table):
    return replace(table, around_zero=table.around_infinity, around_infinity=table.around_zero)


def _wrong_involution(which, image):
    """A fault that replaces family.apply_involution(which, p) by image(p)."""
    return _fault(family, "apply_involution", lambda real: lambda w, p: image(p) if w == which else real(w, p))


def _ratio(p):
    """(nu-1)/(nu+1), the scaling of beta and iota'."""
    return (p.nu - 1) / (p.nu + 1)


#: beta with s -> r^3 s for r = (nu-1)/(nu+1), where the surface needs r^2 s
BETA_SCALES_S_BY_R_CUBED = _wrong_involution(
    "beta", lambda p: family.KummerPoint(-p.nu, _ratio(p) ** 3 * p.s, p.t, _ratio(p) ** 3 * p.u)
)
#: iota without its swap of s and t
IOTA_WITHOUT_SWAP = _wrong_involution(
    "iota", lambda p: family.KummerPoint((p.nu + 1) / (p.nu - 1), p.s, p.t, p.u)
)
#: iota' with the m^2 on t instead of s, for m = (nu-1)/(nu+1)
IOTA_PRIME_SCALES_T = _wrong_involution(
    "iota_prime", lambda p: family.KummerPoint(_ratio(p), _ratio(p) ** 2 * p.t, p.s, _ratio(p) ** 3 * p.u)
)

#: beta with u halved: a map with a rational constant, whose residual is nonzero
BETA_HALVES_U = _wrong_involution(
    "beta", lambda p: family.KummerPoint(-p.nu, _ratio(p) ** 2 * p.s, p.t, Fraction(1, 2) * _ratio(p) ** 3 * p.u)
)
#: beta replaced by iota': it preserves the surface, so only the squares and the composition see it
BETA_IS_IOTA_PRIME = _fault(
    family, "apply_involution", lambda real: lambda w, p: real("iota_prime", p) if w == "beta" else real(w, p)
)
#: the shipped beta written with rational constants that cancel: still correct
BETA_WITH_RATIONAL_CONSTANTS = _wrong_involution(
    "beta",
    lambda p: family.KummerPoint(
        -p.nu,
        Fraction(2, 3) * (Fraction(3, 2) * _ratio(p) ** 2 * p.s),
        p.t,
        Fraction(1, 2) / (Fraction(1, 2) / (_ratio(p) ** 3 * p.u)),
    ),
)


#: At least one injected fault per check key.
FAULTS = [
    ("tower", "lambda-doubled", _fault(family, "LAMBDA_OF_NU", lambda lam: 2 * lam)),
    ("fiber-table", "fiber-dropped", _fault(kodaira, "classify", lambda real: lambda w: real(w)[:-1])),
    ("fiber-orders", "orders-doubled", _fault(verification, "order_at", lambda real: lambda f, p: 2 * real(f, p))),
    ("j-formula", "j-shifted", _fault(kodaira, "j_function", lambda real: lambda w: real(w) + 1)),
    (
        "delta-factorization",
        "delta-arguments-swapped",
        _fault(mpolar, "discriminant_delta", lambda real: lambda a, b: real(b, a)),
    ),
    ("cross-family", "e2-is-e1", _fault(family, "e2_model", lambda real: family.e1_model)),
    (
        "loop-table",
        "table-wrong",
        _fault(verification, "_tables", lambda real: lambda: {s: _swap_zero_and_infinity(t) for s, t in real().items()}),
    ),
    ("deck-group", "alpha-labels-inverted", _fault(family, "ALPHA_LABELS", lambda p: p.inverse())),
    (
        "kummer-involutions",
        "iota-base-map-wrong",
        lambda monkeypatch: monkeypatch.setitem(family.INVOLUTION_BASE_MAPS, "iota", family.BETA_BASE),
    ),
    (
        "kummer-involutions",
        "images-off-surface",
        _fault(family, "apply_involution", lambda real: lambda w, p: replace(real(w, p), u=2 * real(w, p).u)),
    ),
    ("kummer-involutions", "beta-scales-s-by-r-cubed", BETA_SCALES_S_BY_R_CUBED),
    ("kummer-involutions", "iota-without-swap", IOTA_WITHOUT_SWAP),
    ("kummer-involutions", "iota-prime-scales-t", IOTA_PRIME_SCALES_T),
    ("kummer-involutions", "beta-halves-u", BETA_HALVES_U),
    ("kummer-involutions", "beta-is-iota-prime", BETA_IS_IOTA_PRIME),
    ("fixed-curve-data", "genus-shifted", _fault(hurwitz, "genus", lambda real: lambda c: real(c) + 1)),
    ("quintic-example", "c-by-y-wrong", lambda monkeypatch: monkeypatch.setitem(hodge.C_BY_Y, 4, 1)),
    ("regular-cover-example", "c-by-y-wrong", lambda monkeypatch: monkeypatch.setitem(hodge.C_BY_Y, 4, 1)),
    (
        "regular-cover-example",
        "search-empty",
        _fault(hurwitz, "search_tuples", lambda real: lambda *a, **k: replace(real(*a, **k), covers=())),
    ),
    (
        "pinned-constants",
        "h21-wrong",
        _fault(hodge, "reference_constants", lambda real: lambda: replace(real(), kummer_model=hodge.HodgeTriple(40, 1, 80))),
    ),
    (
        "cy-vs-riemann-hurwitz",
        "no-rational-cover",
        lambda monkeypatch: monkeypatch.setattr(hurwitz.BranchData, "admits_rational_cover", lambda b: False),
    ),
    (
        "cy-vs-riemann-hurwitz",
        "k-off-by-one",
        lambda monkeypatch: monkeypatch.setattr(hurwitz.BranchData, "k", property(lambda b: len(b.x) + 1)),
    ),
    ("pullback-accounting", "component-dropped", _fault(hurwitz, "pullback", lambda real: lambda a, g: real(a, g)[:-1])),
    ("vieta", "roots-equal", _fault(mpolar, "j_pair", lambda real: lambda sp: (real(sp)[0],) * 2)),
    (
        "step-stability",
        "coarse-table-wrong",
        _fault(verification, "_tables", lambda real: lambda: {**real(), 64: _swap_zero_and_infinity(real()[64])}),
    ),
]


def test_every_check_has_a_fault():
    assert {key for key, _, _ in FAULTS} == set(verification.check_keys())


@pytest.mark.parametrize("key, fault", [pytest.param(k, f, id=f"{k}-{n}") for k, n, f in FAULTS])
def test_injected_fault_fails_its_check(monkeypatch, key, fault):
    fault(monkeypatch)
    result = verification.run_one(key)
    assert result.passed is False
    # found by comparing values, not by a crash
    assert result.expected != "check to complete", result.actual


def test_symbolic_residuals_run_the_shipped_maps(monkeypatch):
    # the symbolic identity is checked on family.apply_involution itself, so a
    # wrong map fails it, and only that map's residual is nonzero
    label = "symbolic residuals"
    for wrong, fault in [
        ("beta", BETA_SCALES_S_BY_R_CUBED),
        ("iota", IOTA_WITHOUT_SWAP),
        ("iota_prime", IOTA_PRIME_SCALES_T),
    ]:
        with monkeypatch.context() as patch:
            fault(patch)
            residuals = verification.run_one("kummer-involutions").actual[label]
        assert {w: r != 0 for w, r in residuals.items()} == {
            w: w == wrong for w in ("beta", "iota", "iota_prime")
        }, wrong


def test_beta_is_iota_prime_fails_only_squares_and_composition(monkeypatch):
    BETA_IS_IOTA_PRIME(monkeypatch)
    result = verification.run_one("kummer-involutions")
    assert {k for k in result.expected if result.expected[k] != result.actual[k]} == {"squares", "iota_prime"}
    assert result.actual["squares"] == {"beta": ["nu", "s", "t", "u"], "iota": []}


def test_involutions_draw_no_random_number(monkeypatch):
    import random

    def refuse(*args, **kwargs):
        raise AssertionError("kummer-involutions drew a random number")

    monkeypatch.setattr(random, "Random", refuse)
    result = verification.run_one("kummer-involutions")
    assert result.passed, result.actual


def test_rational_constants_are_accepted(monkeypatch):
    # the integer ring carries a Fraction as numerator over denominator, so a
    # correct map written with rational constants passes
    BETA_WITH_RATIONAL_CONSTANTS(monkeypatch)
    result = verification.run_one("kummer-involutions")
    assert result.passed, result.actual
    assert verification._involution_residual("beta") == 0


def reference_involution_residual(which):
    """The former definition: the residual in sympy's field Q(nu, s, t, u), a reduction per operation."""
    from sympy import QQ
    from sympy.polys.fields import field

    _, nu, s, t, u = field("nu, s, t, u", QQ)
    image = family.apply_involution(which, family.KummerPoint(nu, s, t, u))
    F = family.kummer_rhs
    return F(image.nu, image.s, image.t) - (image.u / u) ** 2 * F(nu, s, t)


@pytest.mark.parametrize(
    "fault",
    [
        lambda monkeypatch: None,
        BETA_SCALES_S_BY_R_CUBED,
        IOTA_WITHOUT_SWAP,
        IOTA_PRIME_SCALES_T,
        BETA_HALVES_U,
        BETA_WITH_RATIONAL_CONSTANTS,
    ],
    ids=[
        "shipped",
        "beta-scales-s-by-r-cubed",
        "iota-without-swap",
        "iota-prime-scales-t",
        "beta-halves-u",
        "beta-with-rational-constants",
    ],
)
def test_residual_numerator_vanishes_with_the_field_residual(monkeypatch, fault):
    fault(monkeypatch)
    for which in ("beta", "iota", "iota_prime"):
        numerator = verification._involution_residual(which)
        assert (numerator == 0) == (reference_involution_residual(which) == 0), which


@pytest.mark.parametrize(
    "image",
    [
        lambda p: family.KummerPoint(p.nu / (p.nu - p.nu), p.s, p.t, p.u),
        lambda p: family.KummerPoint(p.nu, 1 / (p.s - p.s), p.t, p.u),
        lambda p: family.KummerPoint(p.nu, p.s, p.t / 0, p.u),
    ],
    ids=["by-zero-polynomial", "int-by-zero-polynomial", "by-int-zero"],
)
def test_residual_zero_divisor_raises(monkeypatch, image):
    _wrong_involution("beta", image)(monkeypatch)
    for residual in (verification._involution_residual, reference_involution_residual):
        with pytest.raises(ZeroDivisionError):
            residual("beta")


def test_residuals_run_no_gcd(monkeypatch):
    from sympy.polys.rings import PolyElement

    calls = []
    cancel = PolyElement.cancel
    monkeypatch.setattr(PolyElement, "cancel", lambda *a: calls.append(a) or cancel(*a))
    for which in ("beta", "iota", "iota_prime"):
        verification._involution_residual(which)
    assert calls == []
    # the counter sees the field's reductions
    reference_involution_residual("beta")
    assert calls
