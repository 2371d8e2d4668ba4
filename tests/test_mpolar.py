"""Modular-parameter arithmetic and the j quadratic."""

import random
from fractions import Fraction as F

import sympy

from kumfib.exact import Polynomial, RationalFunction
from kumfib.mpolar import SigmaPi, discriminant_delta, fiber_cubic, j_pair, sigma_pi


class TestSigmaPi:
    def test_trivial_points(self):
        assert sigma_pi(0, 0) == SigmaPi(F(1), F(0))
        assert sigma_pi(1, 1) == SigmaPi(F(1), F(1))

    def test_family_value(self):
        sp = sigma_pi(F(145, 144), F(647, 1728))
        assert sp.sigma == F(1625, 864)
        assert sp.pi == F(145, 144) ** 3


class TestDiscriminant:
    def test_trivial_values(self):
        assert discriminant_delta(0, 0) == 1
        assert discriminant_delta(1, 0) == 0

    def test_equals_sigma_squared_minus_four_pi_randomly(self):
        rng = random.Random(2)
        for _ in range(50):
            a = F(rng.randint(-30, 30), rng.randint(1, 9))
            b = F(rng.randint(-30, 30), rng.randint(1, 9))
            sp = sigma_pi(a, b)
            assert discriminant_delta(a, b) == sp.sigma**2 - 4 * sp.pi

    def test_symbolic_identity_native_tower(self):
        # a and b as nested rational-function variables over Q
        a_var = RationalFunction.x()
        one = RationalFunction.constant(F(1))
        zero = RationalFunction.constant(F(0))
        b_var = RationalFunction(Polynomial((zero, one)))
        a_lift = RationalFunction(Polynomial((a_var,)))
        sp = sigma_pi(a_lift, b_var)
        assert sp.sigma * sp.sigma - 4 * sp.pi == discriminant_delta(a_lift, b_var)

    def test_symbolic_identity_sympy_oracle(self):
        a, b = sympy.symbols("a b")
        sigma = a**3 - b**2 + 1
        pi = a**3
        assert sympy.expand(
            sigma**2 - 4 * pi - (a**3 - (b - 1) ** 2) * (a**3 - (b + 1) ** 2)
        ) == 0


class TestFiberLocus:
    def test_distinct_roots_iff_discriminant(self):
        def shifted(a, b):  # P - 1 and P + 1, whose six roots are the fiber locations
            p = fiber_cubic(a, b)
            return p - 1, p + 1

        def squarefree(p):
            return p.gcd(p.derivative()).degree == 0

        # at (1, 0) both a^3 = (b-1)^2 and a^3 = (b+1)^2 hold: both degenerate
        minus, plus = shifted(1, 0)
        assert not squarefree(plus)
        assert not squarefree(minus)
        # at (4, 7) only a^3 = (b+1)^2 holds: only the P - 1 factor degenerates
        minus, plus = shifted(4, 7)
        assert not squarefree(minus)
        assert squarefree(plus)
        # generic point: all six distinct and the two cubics are coprime
        minus, plus = shifted(F(2), F(3))
        assert discriminant_delta(F(2), F(3)) != 0
        assert squarefree(minus) and squarefree(plus)
        assert minus.gcd(plus).degree == 0

    def test_cubic(self):
        assert fiber_cubic(F(1, 2), 7) == Polynomial((-7, F(-3, 2), 0, 4))


class TestJPair:
    def test_double_root(self):
        j1, j2 = j_pair(SigmaPi(F(2), F(1)))
        assert j1.as_rational() == 1 and j2.as_rational() == 1

    def test_split_case(self):
        j1, j2 = j_pair(SigmaPi(F(1), F(0)))
        assert {j1.as_rational(), j2.as_rational()} == {F(0), F(1)}

    def test_family_point_vieta(self):
        sp = SigmaPi(F(1625, 864), F(145, 144) ** 3)
        j1, j2 = j_pair(sp)
        assert (j1 + j2).as_rational() == sp.sigma
        assert (j1 * j2).as_rational() == sp.pi
        assert not j1.is_rational  # the discriminant is negative here
        assert j1.radicand < 0

    def test_vieta_randomly(self):
        rng = random.Random(11)
        for _ in range(50):
            sp = SigmaPi(
                F(rng.randint(-200, 200), rng.randint(1, 20)),
                F(rng.randint(-200, 200), rng.randint(1, 20)),
            )
            j1, j2 = j_pair(sp)
            assert (j1 + j2).as_rational() == sp.sigma
            assert (j1 * j2).as_rational() == sp.pi
