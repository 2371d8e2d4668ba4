"""Weierstrass invariants and Kodaira classification."""

import random
from fractions import Fraction as F

import pytest
import sympy

from kumfib import family, kodaira
from kumfib.exact import (
    Place,
    Polynomial,
    RationalFunction,
    compose,
    irreducible_factors,
    order_at,
)
from kumfib.kodaira import (
    ClassificationError,
    KodairaFiber,
    WeierstrassFamily,
    _classify_at,
    c_invariants,
    classify,
    j_function,
)

NU = RationalFunction.x()


class TestCInvariants:
    def test_e1_c4(self):
        c4, c6, delta = c_invariants(family.e1_model())
        assert c4 == 16 * (1 + NU**2) ** 2 - 48 * NU**2

    def test_defining_relation(self):
        w = WeierstrassFamily(a2=NU, a4=1 - NU, a6=NU**3)
        c4, c6, delta = c_invariants(w)
        assert 1728 * delta == c4**3 - c6**2

    def test_degenerate_family(self):
        w = WeierstrassFamily(a2=0, a4=0, a6=0)
        _, _, delta = c_invariants(w)
        assert delta.is_zero
        with pytest.raises(ClassificationError):
            classify(w)

    def test_e1_discriminant(self):
        _, _, delta = c_invariants(family.e1_model())
        assert delta == 16 * NU**4 * (NU**2 - 1) ** 2


class TestClassify:
    def test_e1_fiber_table(self):
        fibers = classify(family.e1_model())
        table = {f.place: f.symbol for f in fibers}
        assert table == {
            Place.at(1): "I2",
            Place.at(-1): "I2",
            Place.at(0): "I4",
            Place.at_infinity(): "I4",
        }

    def test_type_ii_cusp(self):
        w = WeierstrassFamily(a2=0, a4=0, a6=NU)
        fibers = classify(w)
        at_zero = [f for f in fibers if f.place == Place.at(0)]
        assert len(at_zero) == 1 and at_zero[0].symbol == "II"

    def test_smooth_places_not_emitted(self):
        fibers = classify(family.e1_model())
        assert Place.at(2) not in {f.place for f in fibers}
        assert all(f.symbol != "I0" for f in fibers)

    def test_euler_total_is_twelve(self):
        fibers = classify(family.e1_model())
        assert sum(f.vdelta * f.place.degree for f in fibers) == 12

    def test_multiplicative_fibers_have_unit_c4(self):
        c4, _, delta = c_invariants(family.e1_model())
        for f in classify(family.e1_model()):
            if f.symbol.startswith("I") and not f.symbol.endswith("*"):
                if not f.place.is_infinity:
                    assert order_at(c4, f.place) == 0
                assert f.n == f.vdelta

    def test_e2_transported_from_e1(self):
        # the involution nu -> (nu+1)/(nu-1) maps 1,-1,0,inf to inf,0,-1,1
        fibers = {f.place: f.symbol for f in classify(family.e2_model())}
        assert fibers == {
            Place.at_infinity(): "I2",
            Place.at(0): "I2",
            Place.at(-1): "I4",
            Place.at(1): "I4",
        }

    def test_additive_star_family(self):
        # y^2 = x^3 + nu^2 x has (v4, v6, vD) = (2, inf, 4)... quadratic twist
        # of a constant curve: I0* at nu = 0.
        w = WeierstrassFamily(a2=0, a4=NU**2, a6=0)
        fibers = {f.place: f.symbol for f in classify(w)}
        assert fibers[Place.at(0)] == "I0*"

    def test_nonminimal_model_is_reduced(self):
        # scale the first surface by u = nu: (a2, a4, a6) -> (nu^2 a2, nu^4 a4, nu^6 a6)
        e1 = family.e1_model()
        w = WeierstrassFamily(
            a2=NU**2 * e1.a2, a4=NU**4 * e1.a4, a6=NU**6 * e1.a6
        )
        assert {f.place: f.symbol for f in classify(w)} == {
            f.place: f.symbol for f in classify(e1)
        }


class TestJFunction:
    def test_closed_form(self):
        j = j_function(family.e1_model())
        expected = (
            F(4, 27)
            * (NU**4 - NU**2 + 1) ** 3
            / (NU**4 * (NU - 1) ** 2 * (NU + 1) ** 2)
        )
        assert j == expected

    def test_order_at_in_fibers_is_minus_n(self):
        j = j_function(family.e1_model())
        for f in classify(family.e1_model()):
            assert order_at(j, f.place) == -f.n

    def test_special_value_places(self):
        j = j_function(family.e1_model())
        # j = 1 at nu in {i, -i, sqrt2, -sqrt2, 1/sqrt2, -1/sqrt2}: order 2 each
        for poly in ((1, 0, 1), (-2, 0, 1), (F(-1, 2), 0, 1)):
            assert order_at(j - 1, Place.finite(Polynomial(poly))) == 2
        # j = 0 at primitive twelfth roots of unity: order 3
        assert order_at(j, Place.finite(Polynomial((1, 0, -1, 0, 1)))) == 3

    def test_j_at_quarter_preimage_value(self):
        # at nu = 1 + sqrt2 the fiber j-value is 125/27: check on the place nu^2-2nu-1
        j = j_function(family.e1_model())
        place_poly = Polynomial((-1, -2, 1))
        num_shift = (j - F(125, 27)).num
        q, rem = divmod(num_shift, place_poly)
        assert rem.is_zero


def reference_classify(w):
    """The former definition: four factorisations, nu -> 1/w for infinity, a sort."""
    c4, c6, delta = c_invariants(w)
    if delta.is_zero:
        raise ClassificationError("discriminant vanishes identically")
    candidates = {}
    for poly in (delta.num, delta.den, c4.den, c6.den):
        if poly.degree > 0:
            for place, _ in irreducible_factors(poly):
                candidates[place] = None
    fibers = [f for f in (_classify_at(c4, c6, delta, p) for p in candidates) if f is not None]
    recip = RationalFunction(Polynomial((1,)), Polynomial((0, 1)))
    fiber = _classify_at(
        compose(c4, recip), compose(c6, recip), compose(delta, recip), Place.at(0)
    )
    if fiber is not None:
        fibers.append(KodairaFiber(Place.at_infinity(), fiber.symbol, fiber.n, fiber.vdelta))

    def sort_key(f):
        if f.place.is_infinity:
            return (1, ())
        return (0, (f.place.minimal_polynomial.degree, f.place.minimal_polynomial.coeffs))

    return sorted(fibers, key=sort_key)


def _table(fibers):
    return [(f.place, f.symbol, f.n, f.vdelta) for f in fibers]


def _outcome(fn, w):
    try:
        return fn(w)
    except ClassificationError as exc:
        return ClassificationError, str(exc)


def scale(w, u):
    """The model (u^2 a2, u^4 a4, u^6 a6): isomorphic, not minimal where u vanishes."""
    return WeierstrassFamily(a2=u**2 * w.a2, a4=u**4 * w.a4, a6=u**6 * w.a6)


def twist(w, t):
    """The quadratic twist (t a2, t^2 a4, t^3 a6): starred fibers where t vanishes."""
    return WeierstrassFamily(a2=t * w.a2, a4=t**2 * w.a4, a6=t**3 * w.a6)


def _random_coefficient(rng, with_den):
    def poly(deg):
        return Polynomial([F(rng.randint(-2, 2), rng.choice((1, 1, 1, 2))) for _ in range(deg + 1)])

    num = poly(rng.randint(0, 1))
    den = poly(1) if with_den else Polynomial((1,))
    return RationalFunction(num, den if not den.is_zero else Polynomial((1,)))


def random_families(seed, count):
    """Seeded families: zero a2 or a6, denominators, and non-minimal or twisted models."""
    rng = random.Random(seed)
    for i in range(count):
        shape = i % 10
        with_den = shape < 6 and rng.random() < 0.15  # keep the modified models small
        a2, a4, a6 = (_random_coefficient(rng, with_den) for _ in range(3))
        if i % 5 == 1:
            a2 = 0
        elif i % 5 == 2:
            a6 = 0
        w = WeierstrassFamily(a2=a2, a4=a4, a6=a6)
        if shape == 6:  # not minimal at nu = 0 or 1 (nor at infinity)
            w = scale(w, rng.choice((NU, NU - 1)))
        elif shape == 7:  # not minimal at infinity (nor at nu = -2 or 3)
            w = scale(w, NU + rng.choice((2, -3)))
        elif shape >= 8:  # starred and additive fibers
            w = twist(w, rng.choice((NU, NU + 2)))
        yield w


ADDITIVE = [  # (family, symbol at nu = 0)
    (WeierstrassFamily(a2=0, a4=0, a6=NU), "II"),
    (WeierstrassFamily(a2=0, a4=NU, a6=0), "III"),
    (WeierstrassFamily(a2=0, a4=0, a6=NU**2), "IV"),
    (WeierstrassFamily(a2=0, a4=NU**2, a6=0), "I0*"),
    (twist(family.e1_model(), NU), "I4*"),
    (WeierstrassFamily(a2=0, a4=0, a6=NU**4), "IV*"),
    (WeierstrassFamily(a2=0, a4=NU**3, a6=0), "III*"),
    (WeierstrassFamily(a2=0, a4=0, a6=NU**5), "II*"),
]

SINGULAR = [
    WeierstrassFamily(a2=0, a4=0, a6=0),
    WeierstrassFamily(a2=NU, a4=0, a6=0),  # x^2 (x + nu)
    WeierstrassFamily(a2=0, a4=-3 * NU**2, a6=2 * NU**3),  # (x - nu)^2 (x + 2 nu)
]


class TestOnePassClassify:
    @pytest.mark.parametrize("model", [family.e1_model, family.e2_model])
    def test_paper_models_match_the_reference(self, model):
        assert _table(classify(model())) == _table(reference_classify(model()))

    def test_random_families_match_the_reference(self):
        symbols, errors = set(), 0
        for w in random_families(20261019, 100):
            got, expected = _outcome(classify, w), _outcome(reference_classify, w)
            if isinstance(expected, list):
                assert _table(got) == _table(expected), w
                symbols.update(f.symbol for f in got)
            else:
                assert got == expected, w
                errors += 1
        assert {"I0*", "II", "III", "IV"} <= symbols and errors  # additive and singular cases

    @pytest.mark.parametrize("w, symbol", ADDITIVE, ids=[s for _, s in ADDITIVE])
    def test_additive_types_match_the_reference(self, w, symbol):
        fibers = classify(w)
        assert _table(fibers) == _table(reference_classify(w))
        assert [f.symbol for f in fibers if f.place == Place.at(0)] == [symbol]

    @pytest.mark.parametrize("w", SINGULAR)
    def test_identically_singular_families_raise_the_same_error(self, w):
        assert _outcome(classify, w) == _outcome(reference_classify, w)
        assert _outcome(classify, w)[0] is ClassificationError

    def test_fiber_at_a_pole_of_c4_where_delta_is_a_unit(self):
        # e1 at nu^3 (I12 at 0) scaled by u = 1/nu: Delta has order 0 at nu = 0,
        # so only the factor c4.den of the product brings that place in
        w = WeierstrassFamily(a2=-(NU**6 + 1) / NU**2, a4=NU**2, a6=0)
        c4, _, delta = c_invariants(w)
        assert (order_at(delta, Place.at(0)), order_at(c4, Place.at(0))) == (0, -4)
        fibers = classify(w)
        assert _table(fibers) == _table(reference_classify(w))
        assert [f.symbol for f in fibers if f.place == Place.at(0)] == ["I12"]

    def test_order_is_degree_then_coefficients_then_infinity(self):
        # the twist adds I0* at nu = -2, a zero of Delta's denominator, and at
        # the degree-2 place nu^2 + 1, a zero of its numerator
        w = twist(family.e1_model(), (NU**2 + 1) / (NU + 2))
        fibers = classify(w)
        assert [f.place for f in fibers] == [
            Place.at(1),
            Place.at(0),
            Place.at(-1),
            Place.at(-2),
            Place.finite(Polynomial((1, 0, 1))),
            Place.at_infinity(),
        ]
        assert [f.symbol for f in fibers] == ["I2", "I4", "I2", "I0*", "I0*", "I4*"]

    def test_e2_factors_once_and_composes_never(self, monkeypatch):
        calls = {"factor_list": 0, "compose": 0}
        factor_list = sympy.Poly.factor_list

        def counted_factor_list(self, *args, **kwargs):
            calls["factor_list"] += 1
            return factor_list(self, *args, **kwargs)

        def counted_compose(*args):
            calls["compose"] += 1
            return compose(*args)

        w = family.e2_model()
        monkeypatch.setattr(sympy.Poly, "factor_list", counted_factor_list)
        monkeypatch.setattr(kodaira, "compose", counted_compose)
        classify(w)
        assert calls == {"factor_list": 1, "compose": 0}

    def test_j_function_agrees_with_the_c_invariants(self):
        for w in random_families(7, 8):
            c4, c6, delta = c_invariants(w)
            assert 1728 * delta == c4**3 - c6**2
            if delta.is_zero:
                with pytest.raises(ClassificationError):
                    j_function(w)
            else:
                assert j_function(w) == c4**3 / (1728 * delta)
