"""The concrete family: parameter maps, cover tower, deck action, Kummer model."""

import random
from fractions import Fraction as F

import mpmath
import pytest
import sympy

from kumfib import family, monodromy
from kumfib.exact import PoleError, RationalFunction, compose, rational_sqrt
from kumfib.mpolar import sigma_pi
from kumfib.permutations import Permutation

NU = RationalFunction.x()


class TestParameterMaps:
    def test_one_family_instance(self):
        fam = family.LAMBDA_FAMILY
        maps = (fam.a_of_lambda, fam.b_of_lambda, fam.d_of_lambda)
        assert all(m is f for m, f in zip(monodromy._MAPS, maps, strict=True))

    def test_printed_closed_forms(self):
        # sigma = 2 - 23/(192 lam) + 1/(1728 lam^2), pi = (1 + 1/(144 lam))^3
        fam = family.LAMBDA_FAMILY
        assert fam.sigma_of_lambda == RationalFunction.of((1, -207, 3456), (0, 0, 1728))
        assert fam.pi_of_lambda == (1 + RationalFunction.of((1,), (0, 144))) ** 3

    def test_closed_forms_match_normalized_invariants(self):
        fam = family.LAMBDA_FAMILY
        lam = NU
        a_norm = fam.a_of_lambda / lam  # d = lam^3 has cube root lam
        b_sq = fam.b_of_lambda**2 / fam.d_of_lambda
        sigma = a_norm**3 - b_sq + 1
        pi = a_norm**3
        assert sigma == fam.sigma_of_lambda
        assert pi == fam.pi_of_lambda

    def test_pointwise_agreement_at_one(self):
        fam = family.LAMBDA_FAMILY
        assert fam.d_of_lambda(F(1)) == 1
        sp = sigma_pi(fam.a_of_lambda(F(1)), fam.b_of_lambda(F(1)))
        assert sp.sigma == fam.sigma_of_lambda(F(1))
        assert sp.pi == fam.pi_of_lambda(F(1))

    def test_pointwise_agreement_is_branch_free(self):
        # sigma and pi depend on b only through b^2/d, so the closed forms
        # must agree at every rational parameter, negative values included
        import random

        fam = family.LAMBDA_FAMILY
        rng = random.Random(3)
        for _ in range(20):
            lam = F(rng.randint(-40, 40), rng.randint(1, 12))
            if lam == 0:
                continue
            a_norm = fam.a_of_lambda(lam) / lam  # d = lam^3 has cube root lam
            b_sq = fam.b_of_lambda(lam) ** 2 / lam**3
            sigma = a_norm**3 - b_sq + 1
            pi = a_norm**3
            assert sigma == fam.sigma_of_lambda(lam)
            assert pi == fam.pi_of_lambda(lam)


class TestCoverTower:
    def test_composite_identity(self):
        tower = family.cover_tower()
        assert compose(tower.f1, tower.f2_f3) == family.LAMBDA_OF_NU
        assert tower.lambda_of_nu == family.LAMBDA_OF_NU

    def test_cusp_values(self):
        for nu in (0, 1, -1):
            assert family.LAMBDA_OF_NU(nu) == 0

    def test_quarter_preimages_numerically(self):
        with mpmath.workprec(160):
            for sign1 in (1, -1):
                for sign2 in (1, -1):
                    nu = sign1 * (1 + sign2 * mpmath.sqrt(2))
                    value = family.LAMBDA_OF_NU(nu)
                    assert abs(value - mpmath.mpf(1) / 256) < mpmath.mpf("1e-30")

    def test_pole_at_i(self):
        with pytest.raises(PoleError):
            family.LAMBDA_OF_NU(mpmath.mpc(0, 1))

    def test_exact_rational_value(self):
        assert family.LAMBDA_OF_NU(F(2)) == F(1, 16) * 4 * 9 / 625

    def test_one_evaluator_in_every_arithmetic(self):
        # the printed rational function evaluates exactly, in mpmath, or in floats
        exact = family.LAMBDA_OF_NU(2)
        assert type(exact) is F and exact == F(9, 2500)
        value = family.LAMBDA_OF_NU(2.0)
        assert type(value) is float and value == pytest.approx(9 / 2500, rel=1e-15)
        assert type(family.LAMBDA_OF_NU(1 + 1j)) is complex
        with pytest.raises(PoleError, match="^pole at "):
            family.LAMBDA_OF_NU(1j)


class TestDeckGroup:
    def test_generators(self):
        alpha = family.deck_element(1, 0)
        beta = family.deck_element(0, 1)
        assert alpha.base_map == (NU - 1) / (NU + 1)
        assert beta.base_map == -NU
        assert alpha.label_perm == Permutation.from_cycles(6, [(1, 5, 2, 4), (3, 6)])
        assert beta.label_perm == Permutation.from_cycles(6, [(1, 4), (2, 5), (3, 6)])

    def test_identity_element(self):
        e = family.deck_element(0, 0)
        assert e.base_map == NU
        assert e.label_perm.is_identity

    def test_relations(self):
        alpha = family.deck_element(1, 0)
        beta = family.deck_element(0, 1)
        assert repr(alpha * alpha * alpha * alpha) == "DeckElement[id]"
        assert repr(beta * beta) == "DeckElement[id]"
        conj = beta * alpha * beta
        inv = alpha.inverse()
        assert conj.base_map == inv.base_map
        assert conj.label_perm == inv.label_perm

    def test_full_multiplication_table(self):
        elements = family.all_deck_elements()
        assert len({ (g.i, g.j) for g in elements }) == 8
        for g in elements:
            for h in elements:
                gh = g * h
                assert gh.base_map == compose(g.base_map, h.base_map)
                assert gh.label_perm == g.label_perm * h.label_perm

    def test_lambda_invariance(self):
        lam = family.LAMBDA_OF_NU
        for g in family.all_deck_elements():
            assert compose(lam, g.base_map) == lam

    def test_alpha_squared_is_minus_reciprocal(self):
        alpha2 = family.deck_element(2, 0)
        assert alpha2.base_map == -1 / NU


class TestModels:
    def test_e1_coefficients(self):
        w = family.e1_model()
        assert w.a2 == -(1 + NU**2)
        assert w.a4 == NU**2
        assert w.a6.is_zero

    def test_e2_is_e1_precomposed(self):
        q = (NU + 1) / (NU - 1)
        e1, e2 = family.e1_model(), family.e2_model()
        assert e2.a2 == compose(e1.a2, q)
        assert e2.a4 == compose(e1.a4, q)


def _sympy_preserves(which):
    nu, s, t = sympy.symbols("nu s t")
    surface = family.kummer_rhs(nu, s, t)
    r = (nu - 1) / (nu + 1)
    subs = {
        "beta": ({nu: -nu, s: r**2 * s}, r**6),
        "iota": ({nu: (nu + 1) / (nu - 1), s: t, t: s}, 1),
        "iota_prime": ({nu: r, s: t, t: r**2 * s}, r**6),
    }[which]
    image = surface.subs(subs[0], simultaneous=True)
    return sympy.cancel(image - subs[1] * surface) == 0


def reference_surface_point(rng):
    """An exact point of the surface: rational (nu, s, t) drawn until the product is a rational square."""
    for _ in range(5000):
        k = rng.randrange(8 * 4 * 19 * 5 * 19 * 5)
        digits = []
        for size, low in ((8, 2), (4, 1), (19, -9), (5, 1), (19, -9), (5, 1)):
            k, digit = divmod(k, size)
            digits.append(low + digit)
        a, b, c, d, e, f = digits
        nu, s, t = F(a, b), F(c, d), F(e, f)
        if nu in (1, -1, 0) or s == 0 or t == 0:
            continue
        rhs = family.kummer_rhs(nu, s, t)
        if rhs <= 0:
            continue
        u = rational_sqrt(rhs)
        if u is not None:
            return family.KummerPoint(nu, s, t, u)
    raise RuntimeError("failed to sample an on-surface point")


def relative_residual(p):
    """|u^2 - F| / max(1, |F|, |u|^2) for F = kummer_rhs at the point."""
    rhs = family.kummer_rhs(p.nu, p.s, p.t)
    return abs(p.u * p.u - rhs) / max(1, abs(rhs), abs(p.u) ** 2)


class TestKummerInvolutions:
    @pytest.mark.parametrize("which", ["beta", "iota", "iota_prime"])
    def test_symbolic_surface_preservation(self, which):
        assert _sympy_preserves(which)

    def test_on_surface_transport_exact(self):
        rng = random.Random(31)
        for _ in range(20):
            p = reference_surface_point(rng)
            for q in [p] + [family.apply_involution(w, p) for w in ("beta", "iota", "iota_prime")]:
                assert q.u * q.u == family.kummer_rhs(q.nu, q.s, q.t)

    def test_beta_and_iota_are_involutions(self):
        rng = random.Random(77)
        for _ in range(20):
            p = reference_surface_point(rng)
            assert family.apply_involution("beta", family.apply_involution("beta", p)) == p
            assert family.apply_involution("iota", family.apply_involution("iota", p)) == p

    def test_iota_swaps_coordinates(self):
        p = family.KummerPoint(F(2), F(5), F(7), F(11))
        q = family.apply_involution("iota", p)
        assert q == family.KummerPoint(F(3), F(7), F(5), F(11))

    def test_iota_prime_is_iota_after_beta(self):
        rng = random.Random(13)
        p = reference_surface_point(rng)
        via = family.apply_involution("iota", family.apply_involution("beta", p))
        assert family.apply_involution("iota_prime", p) == via

    def test_base_map_consistency_with_deck_elements(self):
        alpha = family.deck_element(1, 0)
        beta = family.deck_element(0, 1)
        assert family.INVOLUTION_BASE_MAPS["iota_prime"] == alpha.base_map
        assert family.INVOLUTION_BASE_MAPS["iota"] == (alpha * beta).base_map
        assert family.INVOLUTION_BASE_MAPS["beta"] == beta.base_map

    def test_poles_rejected(self):
        with pytest.raises(PoleError):
            family.apply_involution("beta", family.KummerPoint(F(-1), F(2), F(2), F(2)))
        with pytest.raises(PoleError):
            family.apply_involution("iota", family.KummerPoint(F(1), F(2), F(2), F(2)))

    def test_python_floats_kept(self):
        nu, s, t = 3.0, 0.5, 2.25
        u = family.kummer_rhs(nu, s, t) ** 0.5  # the product is negative: u is complex
        p = family.KummerPoint(nu, s, t, u)
        assert (type(p.nu), type(p.u)) == (float, complex)
        assert relative_residual(p) <= 1e-12
        image = family.apply_involution("beta", p)
        assert (type(image.nu), type(image.u)) == (float, complex)
        assert relative_residual(image) <= 1e-12

    def test_floating_mode(self):
        with mpmath.workprec(113):
            nu, s, t = mpmath.mpf(3), mpmath.mpf("0.5"), mpmath.mpf("2.25")
            u = mpmath.sqrt(family.kummer_rhs(nu, s, t))
            p = family.KummerPoint(nu, s, t, u)
            assert relative_residual(p) <= 1e-20
            for which in ("beta", "iota", "iota_prime"):
                assert relative_residual(family.apply_involution(which, p)) <= 1e-20
