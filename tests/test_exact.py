"""Exact polynomial / rational-function layer."""

import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kumfib.exact import (
    ExactAlgebraError,
    Place,
    PoleError,
    Polynomial,
    RationalFunction,
    compose,
    irreducible_factors,
    multiplicity_in,
    order_at,
    rational_sqrt,
)

X = RationalFunction.x()


def rf(num, den=(1,)):
    return RationalFunction(Polynomial(num), Polynomial(den))


class TestPolynomial:
    def test_normalization_trims_trailing_zeros(self):
        assert Polynomial((1, 2, 0, 0)).degree == 1
        assert Polynomial(()).is_zero
        assert Polynomial((0,)).is_zero

    def test_int_coefficients_become_fractions(self):
        p = Polynomial((1, 2))
        assert all(isinstance(c, F) for c in p.coeffs)

    def test_divmod(self):
        p = Polynomial((-1, 0, 1))  # x^2 - 1
        q, r = divmod(p, Polynomial((-1, 1)))  # x - 1
        assert q == Polynomial((1, 1)) and r.is_zero

    @pytest.mark.parametrize("other", ["x", 1.5, RationalFunction.x()])
    def test_division_by_a_non_polynomial_is_a_type_error(self, other):
        p = Polynomial((1, 2))
        assert p.__divmod__(other) is NotImplemented
        with pytest.raises(TypeError):
            divmod(p, other)
        with pytest.raises(TypeError):
            p % other
        with pytest.raises(TypeError):
            p // other

    def test_gcd_is_monic(self):
        a = Polynomial((-2, 0, 2))  # 2x^2 - 2
        b = Polynomial((-3, 3))  # 3x - 3
        assert a.gcd(b) == Polynomial((-1, 1))


class TestRationalFunction:
    def test_reduction_and_monic_denominator(self):
        f = rf((0, 2), (0, 0, 4))  # 2x / 4x^2
        assert f == rf((F(1, 2),), (0, 1))

    def test_zero_is_canonical(self):
        f = rf((0,), (1, 1))
        assert f == rf((0,)) and f.den == Polynomial((1,))

    def test_pole_evaluation(self):
        f = 1 / (X - 1)
        with pytest.raises(PoleError):
            f(F(1))
        assert f(F(3)) == F(1, 2)

    def test_arithmetic_with_scalars(self):
        f = (X + 1) / (X - 1)
        assert (f - 1) * (X - 1) == rf((2,))


class TestCompose:
    def test_tower_composite(self):
        # outer lam = 1/256 - mu^2 against the exact middle composite
        f1 = F(1, 256) - X**2
        middle = F(1, 16) - F(1, 8) * ((1 - X**2) / (1 + X**2)) ** 2
        lam = compose(f1, middle)
        expected = F(1, 16) * X**2 * (1 - X**2) ** 2 / (1 + X**2) ** 4
        assert lam == expected

    def test_identity_cases(self):
        f = (X**2 + 1) / (X - 2)
        assert compose(X, f) == f
        assert compose(f, X) == f

    def test_polynomial_example(self):
        assert compose(X**2, X + 1) == X**2 + 2 * X + 1

    def test_constant_inner(self):
        f = (X + 1) / (X - 1)
        assert compose(f, RationalFunction.constant(F(3))) == RationalFunction.constant(F(2))

    def test_inner_lands_on_pole(self):
        with pytest.raises(PoleError):
            compose(1 / X, RationalFunction.constant(F(0)))


def _random_rf(rng, max_deg=4):
    while True:
        num = Polynomial([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, max_deg + 1))])
        den = Polynomial([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, max_deg + 1))])
        if not num.is_zero and not den.is_zero:
            return RationalFunction(num, den)


def test_compose_evaluate_round_trip():
    rng = random.Random(12345)
    for _ in range(10):
        f = _random_rf(rng)
        g = _random_rf(rng)
        try:
            h = compose(f, g)
        except PoleError:
            continue
        hits = 0
        q = F(-7, 2)
        while hits < 20:
            q += F(1, 3)
            try:
                inner = g(q)
                expected = f(inner)
                got = h(q)
            except PoleError:
                continue
            assert got == expected
            hits += 1


def reference_compose(outer, inner):
    """The former definition: Horner in the field, one reduction per step."""

    def poly_at(p):
        if p.is_zero:
            return RationalFunction(Polynomial.zero())
        acc = RationalFunction(Polynomial((p.coeffs[-1],)))
        for c in reversed(p.coeffs[:-1]):
            acc = acc * inner + RationalFunction(Polynomial((c,)))
        return acc

    den = poly_at(outer.den)
    if den.is_zero:
        raise PoleError("inner map lands identically in the pole locus of outer")
    return poly_at(outer.num) / den


def _random_poly(rng, deg, coeff=None):
    coeff = coeff or (lambda: F(rng.randint(-5, 5), rng.randint(1, 3)))
    while True:
        cs = [coeff() for _ in range(deg)] + [coeff()]
        if cs[-1]:
            return Polynomial(cs)


def _q_of_a(rng):
    """A random element of Q(a), numerator and denominator of degree <= 1."""
    return _random_rf(rng, max_deg=1)


def _compose_cases(rng):
    """About 200 seeded (outer, inner) pairs over Q, then one over Q(a)."""
    for _ in range(50):  # Moebius inners
        while True:
            al, be, ga, de = (F(rng.randint(-4, 4)) for _ in range(4))
            if al * de != be * ga:
                break
        yield _random_rf(rng, 3), RationalFunction(Polynomial((be, al)), Polynomial((de, ga)))
    for _ in range(30):  # constant inners, a third of them on a pole of outer
        c = F(rng.randint(-4, 4), rng.randint(1, 3))
        outer = _random_rf(rng, 3)
        if rng.random() < 0.35:
            outer = outer / (X - c)
        yield outer, RationalFunction.constant(c)
    for _ in range(10):  # zero numerators, outer or inner
        yield RationalFunction(Polynomial(()), _random_poly(rng, 2)), _random_rf(rng, 3)
        yield _random_rf(rng, 3), RationalFunction(Polynomial(()), _random_poly(rng, 2))
    for _ in range(50):  # deg num < deg den, then deg num > deg den
        lo, hi = sorted(rng.sample(range(4), 2))
        yield RationalFunction(_random_poly(rng, lo), _random_poly(rng, hi)), _random_rf(rng, 3)
        yield RationalFunction(_random_poly(rng, hi), _random_poly(rng, lo)), _random_rf(rng, 3)
    coeff = lambda: _q_of_a(rng)  # noqa: E731
    outer = RationalFunction(_random_poly(rng, 1, coeff), _random_poly(rng, 1, coeff))
    inner = RationalFunction(_random_poly(rng, 1, coeff), _random_poly(rng, 1, coeff))
    yield outer, inner


def test_compose_matches_the_field_horner_definition():
    rng = random.Random(20261018)
    poles = 0
    cases = list(_compose_cases(rng))
    assert len(cases) == 201
    for outer, inner in cases:
        try:
            expected = reference_compose(outer, inner)
        except PoleError:
            poles += 1
            with pytest.raises(PoleError):
                compose(outer, inner)
            continue
        got = compose(outer, inner)
        assert got == expected and got.den.leading == 1, (outer, inner)
    assert poles > 0


def test_divmod_and_gcd_on_random_inputs():
    rng = random.Random(7)
    over_q = (lambda: F(rng.randint(-6, 6), rng.randint(1, 4)), 8, 4)
    over_q_of_a = (lambda: _q_of_a(rng), 3, 2)
    for coeff, max_a, max_b in [over_q] * 40 + [over_q_of_a] * 6:
        a = _random_poly(rng, rng.randint(0, max_a), coeff)
        b = _random_poly(rng, rng.randint(0, max_b), coeff)
        q, r = divmod(a, b)
        assert q * b + r == a and r.degree < b.degree
        assert (q, r) == (a // b, a % b)
        g = a.gcd(b)
        assert g.leading == 1
        assert (a % g).is_zero and (b % g).is_zero
        c = _random_poly(rng, rng.randint(1, 2), coeff)
        assert (a * c).gcd(b * c) == (g * c).monic()


class TestPlacesAndOrders:
    def test_order_examples(self):
        nu = X
        assert order_at(nu**3, Place.at(0)) == 3
        assert order_at(1 / nu, Place.at_infinity()) == 1
        assert order_at((nu - 1) ** 2 / (nu + 2), Place.at(1)) == 2
        assert order_at((nu - 1) ** 2 / (nu + 2), Place.at(-2)) == -1

    def test_zero_function_rejected(self):
        with pytest.raises(ExactAlgebraError):
            order_at(rf((0,)), Place.at(0))

    def test_place_requires_irreducible(self):
        with pytest.raises(ExactAlgebraError):
            Place.finite(Polynomial((-1, 0, 1)))  # x^2 - 1 splits

    def test_place_is_its_polynomial(self):
        assert Place.at(0) == Place(Polynomial((0, 2)))  # normalised to monic x
        assert Place.at_infinity() == Place()
        assert Place.at_infinity().is_infinity and Place().degree == 1
        same, monic = Place(Polynomial((2, 0, 2))), Place.finite(Polynomial((1, 0, 1)))
        assert same == monic and hash(same) == hash(monic)
        assert {Place.at(1): "I2", Place(): "I4"}[Place(Polynomial((-3, 3)))] == "I2"
        assert Place.at(0) != Place() and Place() != Place.at(0)
        with pytest.raises(ExactAlgebraError):
            Place(Polynomial((5,)))

    def test_degree_weighted_orders_sum_to_zero(self):
        rng = random.Random(99)
        for _ in range(15):
            f = _random_rf(rng)
            places = {place for poly in (f.num, f.den) for place, _ in irreducible_factors(poly)}
            orders = {place: order_at(f, place) for place in places | {Place.at_infinity()}}
            assert sum(order * place.degree for place, order in orders.items()) == 0


class TestFactorization:
    def test_quartic_example(self):
        factors = irreducible_factors(Polynomial((-1, 0, 0, 0, 1)))  # x^4 - 1
        polys = {(place.minimal_polynomial.coeffs, mult) for place, mult in factors}
        assert polys == {
            ((F(-1), F(1)), 1),
            ((F(1), F(1)), 1),
            ((F(1), F(0), F(1)), 1),
        }

    def test_divisor_factors_each_polynomial_once(self, monkeypatch):
        # the places of sympy's factors are built without factoring them again
        calls = []
        factor_list = sympy.Poly.factor_list

        def counted(self, *args, **kwargs):
            calls.append(self)
            return factor_list(self, *args, **kwargs)

        monkeypatch.setattr(sympy.Poly, "factor_list", counted)
        f = (X**2 + 1) * (X - 2) ** 2 / ((X**2 - 3) * X)
        places = [place for poly in (f.num, f.den) for place, _ in irreducible_factors(poly)]
        assert len(calls) == 2  # numerator and denominator
        orders = {place: order_at(f, place) for place in places + [Place.at_infinity()]}
        assert orders == {
            Place.at(0): -1,
            Place.at(2): 2,
            Place.finite(Polynomial((1, 0, 1))): 1,
            Place.finite(Polynomial((-3, 0, 1))): -1,
            Place.at_infinity(): -1,
        }

    def test_constant_has_no_factors(self):
        assert irreducible_factors(Polynomial((5,))) == []

    def test_zero_rejected(self):
        with pytest.raises(ExactAlgebraError):
            irreducible_factors(Polynomial(()))

    def test_multiplicities_sum_to_degree_and_reconstruct(self):
        rng = random.Random(4)
        for _ in range(10):
            p = Polynomial([F(rng.randint(-4, 4)) for _ in range(rng.randint(2, 9))])
            if p.degree < 1:
                continue
            factors = irreducible_factors(p)
            assert sum(place.degree * mult for place, mult in factors) == p.degree
            product = Polynomial((1,))
            for place, mult in factors:
                product = product * place.minimal_polynomial**mult
            ratio = divmod(p, product)
            assert ratio[1].is_zero and ratio[0].degree == 0

    def test_e1_discriminant_factorization(self):
        # Delta of z^2 = t(t-1)(t-nu^2) via the standard formulary: 16 nu^4 (nu^2-1)^2
        nu = X
        delta = 16 * nu**4 * (nu**2 - 1) ** 2
        got = {
            (place.minimal_polynomial.coeffs, mult)
            for place, mult in irreducible_factors(delta.num)
        }
        assert got == {
            ((F(0), F(1)), 4),
            ((F(-1), F(1)), 2),
            ((F(1), F(1)), 2),
        }

    def test_multiplicity_in(self):
        p = Polynomial((0, 0, 0, 1))  # x^3
        assert multiplicity_in(p, Polynomial((0, 1))) == 3

    def test_degree_24_within_seconds(self):
        import time

        x = X
        product = (
            (x**4 - x**2 + 1) ** 3 * (x**2 + 1) ** 2 * (x**2 - 2) ** 2 * (x**2 - F(1, 2)) ** 2
        )
        start = time.perf_counter()
        factors = irreducible_factors(product.num)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        assert sum(place.degree * mult for place, mult in factors) == 24
        assert {
            (place.minimal_polynomial.coeffs, mult) for place, mult in factors
        } == {
            ((F(1), F(0), F(-1), F(0), F(1)), 3),
            ((F(1), F(0), F(1)), 2),
            ((F(-2), F(0), F(1)), 2),
            ((F(-1, 2), F(0), F(1)), 2),
        }


coeffs = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeffs, min_size=1, max_size=5), st.lists(coeffs, min_size=1, max_size=5))
def test_addition_and_multiplication_commute_with_evaluation(a, b):
    p, q = Polynomial(a), Polynomial(b)
    x = F(3, 7)
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(coeffs, min_size=1, max_size=4),
    st.lists(coeffs, min_size=1, max_size=4),
    st.lists(coeffs, min_size=1, max_size=4),
)
def test_rational_function_field_laws(a, b, c):
    den = Polynomial(c)
    if den.is_zero:
        return
    f = RationalFunction(Polynomial(a), den)
    g = RationalFunction(Polynomial(b), den)
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == RationalFunction(Polynomial(()))
    if g:
        assert (f / g) * g == f


class TestRationalRoot:
    """rational_sqrt against sympy.integer_nthroot on numerator and denominator."""

    @staticmethod
    def oracle(q):
        q = F(q)
        if q < 0:
            return None
        rn, en = sympy.integer_nthroot(q.numerator, 2)
        rd, ed = sympy.integer_nthroot(q.denominator, 2)
        return F(int(rn), int(rd)) if en and ed else None

    def test_every_small_integer(self):
        for m in range(-3000, 5001):
            assert rational_sqrt(m) == self.oracle(m), m

    def test_zero(self):
        assert rational_sqrt(0) == 0 and rational_sqrt(F(0)) == 0

    def test_negative_values(self):
        assert rational_sqrt(-4) is None
        assert rational_sqrt(F(-1, 4)) is None
        assert rational_sqrt(-1) is None

    def test_not_perfect_powers(self):
        assert rational_sqrt(2) is None
        assert rational_sqrt(F(4, 3)) is None
        assert rational_sqrt(F(3, 4)) is None
        assert rational_sqrt(F(9, 4)) == F(3, 2)

    def test_large_values(self):
        rng = random.Random(20261018 + 2)
        for _ in range(100):
            num = rng.getrandbits(rng.randint(1, 800)) + 1
            den = rng.getrandbits(rng.randint(1, 800)) + 1
            sign = rng.choice((1, -1))
            square = sign * F(num, den) ** 2
            near = square + F(1, square.denominator)
            wide = F(sign * rng.getrandbits(1600) + 1, rng.getrandbits(1500) + 1)
            for q in (square, near, wide, wide**2):
                assert rational_sqrt(q) == self.oracle(q), q
            if sign > 0:
                assert rational_sqrt(square) == F(num, den)
