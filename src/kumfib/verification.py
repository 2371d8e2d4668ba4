"""Self-verification against the pinned reference values.

Every numeric claim the package reproduces is a named check: the cover-tower
identity, the singular-fiber table of the first elliptic surface, the
j-invariant closed form, the discriminant factorization, the cross-family
symmetric-function identities, the loop table with its product relation and
step stability, the dihedral deck group, the Kummer involutions, the
fixed-curve components, both worked examples end to end, the pinned Hodge
constants, and the property suites.  A check returns the pair (expected,
actual) of values, often dicts of labelled parts, and passes when the two are
equal; a property suite stops at its first counterexample and returns it as
the actual value.  The values are formatted only when a check fails.  The
command-line `verify-paper` subcommand and the acceptance test module both run
exactly these checks.

Two checks also compare against an independent symbolic oracle in sympy's
sparse polynomial rings, whose elements are kept in canonical form, so an
identity holds exactly when a polynomial compares equal to 0: the
discriminant factorization is expanded in Q[a, b], and each Kummer
involution's residual is one unreduced fraction over Z[nu, s, t, u], with
rational constants carried as numerator/denominator pairs, whose numerator
is tested.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import family, hodge, hurwitz, kodaira, monodromy, mpolar
from .exact import Place, Polynomial, RationalFunction, compose, order_at
from .permutations import Permutation, compose_all, group_closure

_F = Fraction


@dataclass
class CheckResult:
    key: str
    description: str
    passed: bool
    expected: object
    actual: object
    seconds: float


_REGISTRY: list[tuple[str, str, Callable[[], tuple[object, object]]]] = []


def _check(key: str, description: str):
    def wrap(fn):
        _REGISTRY.append((key, description, fn))
        return fn

    return wrap


def _split(pairs: dict[str, tuple[object, object]]) -> tuple[dict, dict]:
    """The expected and the actual values of labelled (expected, actual) pairs."""
    return {k: e for k, (e, _) in pairs.items()}, {k: a for k, (_, a) in pairs.items()}


_shared: dict[str, object] = {}


STEP_SCALES = (64, 128, 256)


def _tables() -> dict[int, monodromy.PunctureTable]:
    """Loop tables at three step scales (each halving the maximum step size,
    ending at the default), computed once and shared."""
    key = "tables"
    if key not in _shared:
        _shared[key] = {
            steps: monodromy.puncture_table(
                initial_steps=steps,
                check_infinity_directly=(steps == 256),
            )
            for steps in STEP_SCALES
        }
    return _shared[key]


# -- criterion 1: cover tower -------------------------------------------------


@_check("tower", "cover tower composes to (1/16) nu^2 (1-nu^2)^2/(1+nu^2)^4")
def _check_tower():
    tower = family.cover_tower()
    return family.LAMBDA_OF_NU, tower.lambda_of_nu


# -- criterion 2: fiber table ----------------------------------------------------


@_check("fiber-table", "first surface has I2 at nu=+-1, I4 at nu=0 and infinity")
def _check_fiber_table():
    expected = {Place.at(1): "I2", Place.at(-1): "I2", Place.at(0): "I4", Place.at_infinity(): "I4"}
    return expected, {f.place: f.symbol for f in kodaira.classify(family.e1_model())}


@_check("fiber-orders", "orders of j at the tabulated places match the multiplicities")
def _check_fiber_orders():
    j = kodaira.j_function(family.e1_model())
    # poles: order 2 at nu = +-1, order 4 at nu = 0 and infinity; j = 0 to
    # order 3 on the degree-4 place nu^4 - nu^2 + 1
    quartic = Place.finite(Polynomial((1, 0, -1, 0, 1)))
    of_j = {Place.at(1): -2, Place.at(-1): -2, Place.at(0): -4, Place.at_infinity(): -4, quartic: 3}
    # j = 1 to order 2 on a degree-6 locus: nu^2+1, nu^2-2, nu^2-1/2
    ones = [Place.finite(Polynomial(c)) for c in ((1, 0, 1), (-2, 0, 1), (_F(-1, 2), 0, 1))]
    j_minus_one = j - 1
    fibers = kodaira.classify(family.e1_model())
    return _split({
        "orders of j": (of_j, {p: order_at(j, p) for p in of_j}),
        "orders of j - 1": ([2] * len(ones), [order_at(j_minus_one, p) for p in ones]),
        "place degrees": ((6, 4), (sum(p.degree for p in ones), quartic.degree)),
        # I_n fibers have order_at(j) = -n
        "orders at the fibers": ([-f.n for f in fibers], [order_at(j, f.place) for f in fibers]),
    })


# -- criterion 3: j closed form ---------------------------------------------------


@_check("j-formula", "j of the first surface equals (4/27)(nu^4-nu^2+1)^3/(nu^4(nu-1)^2(nu+1)^2)")
def _check_j_formula():
    nu = RationalFunction.x()
    expected = _F(4, 27) * (nu**4 - nu**2 + 1) ** 3 / (nu**4 * (nu - 1) ** 2 * (nu + 1) ** 2)
    return expected, kodaira.j_function(family.e1_model())


# -- criterion 4: discriminant factorization ----------------------------------------


@_check("delta-factorization", "sigma^2 - 4 pi = (a^3-(b-1)^2)(a^3-(b+1)^2) symbolically")
def _check_delta():
    # Native route: a and b as nested rational-function variables.
    a_var = RationalFunction.x()
    one = RationalFunction.constant(_F(1))
    zero = RationalFunction.constant(_F(0))
    b_var = RationalFunction(Polynomial((zero, one)))
    a_lift = RationalFunction(Polynomial((a_var,)))
    sp = mpolar.sigma_pi(a_lift, b_var)
    # Independent oracle: the difference expanded in sympy's sparse ring Q[a, b].
    from sympy import QQ
    from sympy.polys.rings import ring

    _, a, b = ring("a, b", QQ)
    difference = (a**3 - b**2 + 1) ** 2 - 4 * a**3 - (a**3 - (b - 1) ** 2) * (a**3 - (b + 1) ** 2)
    return _split({
        "native": (mpolar.discriminant_delta(a_lift, b_var), sp.sigma * sp.sigma - 4 * sp.pi),
        "oracle": (0, difference),
    })


# -- criterion 5: cross-family identities --------------------------------------------


@_check("cross-family", "j1 + j2 = sigma(lambda(nu)) and j1 j2 = pi(lambda(nu)) exactly")
def _check_cross_family():
    j1 = kodaira.j_function(family.e1_model())
    j2 = kodaira.j_function(family.e2_model())
    fam = family.LAMBDA_FAMILY
    lam = family.LAMBDA_OF_NU
    return _split({
        "j1 + j2": (compose(fam.sigma_of_lambda, lam), j1 + j2),
        "j1 j2": (compose(fam.pi_of_lambda, lam), j1 * j2),
    })


# -- criterion 6: loop table --------------------------------------------------------


@_check("loop-table", "loop table reproduces the reference permutations and product relation")
def _check_loop_table():
    table = _tables()[256]
    computed = table.as_dict()
    reference = monodromy.REFERENCE_TABLE
    rho = monodromy.find_relabeling(table)
    relabeled = {mark: computed[mark].conjugate_by(rho) for mark in reference} if rho else computed
    return _split({
        "cycle types": (
            {"zero": (2, 2, 2), "quarter256": (2, 1, 1, 1, 1), "infinity": (4, 2)},
            {mark: p.cycle_type() for mark, p in computed.items()},
        ),
        # the loop around 0 swaps the triples, the one around 1/256 keeps each
        "zero on the triples": ("swapped", monodromy.deck_parity(table.around_zero).block_image),
        "quarter256 on the triples": ("fixed", monodromy.deck_parity(table.around_quarter256).block_image),
        "product": (Permutation.identity(6), table.around_zero * table.around_infinity * table.around_quarter256),
        "relabeled table": (reference, relabeled),
    })


# -- criterion 7: deck group --------------------------------------------------------


@_check("deck-group", "eight deck elements form the dihedral group and preserve lambda")
def _check_deck_group():
    elements = family.all_deck_elements()
    alpha, beta = family.deck_element(1, 0), family.deck_element(0, 1)
    alpha_inverse = alpha.inverse()
    identity = Permutation.identity(6)
    products = [(g, h, g * h) for g in elements for h in elements]
    lam = family.LAMBDA_OF_NU
    return _split({
        "order": (8, len(elements)),
        # alpha^4 = beta^2 = 1 and beta alpha beta = alpha^-1, on labels and base maps
        "relations": (
            (identity, identity, alpha_inverse.label_perm, alpha_inverse.base_map),
            (
                (alpha * alpha * alpha * alpha).label_perm,
                (beta * beta).label_perm,
                (beta * alpha * beta).label_perm,
                compose(beta.base_map, compose(alpha.base_map, beta.base_map)),
            ),
        ),
        # full multiplication table: words, base maps and label permutations agree
        "products": (
            [(compose(g.base_map, h.base_map), g.label_perm * h.label_perm) for g, h, _ in products],
            [(gh.base_map, gh.label_perm) for _, _, gh in products],
        ),
        "lambda after each element": ([lam] * len(elements), [compose(lam, g.base_map) for g in elements]),
        "printed label actions": (
            (
                Permutation.from_cycles(6, [(1, 5, 2, 4), (3, 6)]),
                Permutation.from_cycles(6, [(1, 4), (2, 5), (3, 6)]),
            ),
            (alpha.label_perm, beta.label_perm),
        ),
        "label group order": (8, len(group_closure([alpha.label_perm, beta.label_perm]))),
    })


# -- criterion 8: Kummer involutions ---------------------------------------------------

_INVOLUTIONS = ("beta", "iota", "iota_prime")


class _Quotient:
    """num/den over Z[nu, s, t, u], never reduced: field arithmetic without its gcds.

    a/b + c/d = (ad + cb)/bd, a/b * c/d = ac/bd and a/b / c/d = ad/bc, with
    an int operand as c/1 and a Fraction as its numerator over its
    denominator, so a rational constant never enters the integer ring.  A
    denominator is a product of nonzero polynomials and nonzero integers, so
    a quotient is 0 exactly when its numerator is; `==` compares ad with cb.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den

    @staticmethod
    def _pair(other):
        if isinstance(other, _Quotient):
            return other.num, other.den
        if isinstance(other, Fraction):
            return other.numerator, other.denominator
        return other, 1

    def __add__(self, other):
        c, d = self._pair(other)
        return _Quotient(self.num * d + c * self.den, self.den * d)

    __radd__ = __add__

    def __sub__(self, other):
        c, d = self._pair(other)
        return _Quotient(self.num * d - c * self.den, self.den * d)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _Quotient(-self.num, self.den)

    def __mul__(self, other):
        c, d = self._pair(other)
        return _Quotient(self.num * c, self.den * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c, d = self._pair(other)
        if not c:
            raise ZeroDivisionError("division by the zero polynomial")
        return _Quotient(self.num * d, self.den * c)

    def __rtruediv__(self, other):
        if not self.num:
            raise ZeroDivisionError("division by the zero polynomial")
        c, d = self._pair(other)
        return _Quotient(c * self.den, d * self.num)

    def __pow__(self, k: int):
        return _Quotient(self.num**k, self.den**k)

    def __eq__(self, other):
        c, d = self._pair(other)
        return self.num * d == c * self.den


def _involution_residual(which: str):
    """The numerator of F(image) - (u'/u)^2 F for family.apply_involution on a symbolic point.

    The point's coordinates are the generators of sympy's sparse ring
    Z[nu, s, t, u], each over 1, and the maps and F run on `_Quotient`s, which
    never reduce and carry a rational constant as a numerator/denominator
    pair of integers, so no coefficient operation takes a gcd.  Every
    denominator is a product of nonzero polynomials and integers, so the
    coordinate map preserves the hypersurface exactly when the returned
    numerator is 0.
    """
    from sympy import ZZ
    from sympy.polys.rings import ring

    R, *gens = ring("nu, s, t, u", ZZ)
    nu, s, t, u = (_Quotient(g, R.one) for g in gens)
    image = family.apply_involution(which, family.KummerPoint(nu, s, t, u))
    F = family.kummer_rhs
    return (F(image.nu, image.s, image.t) - (image.u / u) ** 2 * F(nu, s, t)).num


@_check("kummer-involutions", "beta, iota, iota' preserve the Kummer hypersurface; beta^2 = iota^2 = id")
def _check_involutions():
    apply = family.apply_involution
    rng = random.Random(20260810)
    points = [family.random_surface_point(rng) for _ in range(20)]
    q = family.random_surface_point(rng)
    images = [apply(w, p) for p in points for w in _INVOLUTIONS]
    alpha, beta = family.deck_element(1, 0), family.deck_element(0, 1)
    return _split({
        "symbolic residuals": (
            dict.fromkeys(_INVOLUTIONS, 0),
            {w: _involution_residual(w) for w in _INVOLUTIONS},
        ),
        "points off the surface": ([], [p for p in points + images if not p.on_surface()]),
        "squares": (
            {"beta": points, "iota": points},
            {w: [apply(w, apply(w, p)) for p in points] for w in ("beta", "iota")},
        ),
        # iota' composes as iota after beta, and base maps match the deck elements
        "iota_prime": (apply("iota", apply("beta", q)), apply("iota_prime", q)),
        "base maps": (
            {"beta": beta.base_map, "iota": (alpha * beta).base_map, "iota_prime": alpha.base_map},
            family.INVOLUTION_BASE_MAPS,
        ),
    })


# -- criterion 9: fixed-curve components ------------------------------------------------


@_check("fixed-curve-data", "fixed curve: components of degree (2,2,4), genus 0, rigid 4-fold tuple")
def _check_fixed_curve_data():
    comps = hurwitz.C2_COMPONENTS
    quad = comps[2]
    result = hurwitz.search_tuples(hurwitz.branch_data_of(quad), limit=8)
    return _split({
        "degrees": ((2, 2, 4), tuple(c.degree for c in comps)),
        "problems": ([[]] * len(comps), [hurwitz.validate(c) for c in comps]),
        "genera": ((0, 0, 0), tuple(hurwitz.genus(c) for c in comps)),
        "four-fold profiles": (
            {"quarter256": (2, 1, 1), "infinity": (4,), "zero": (2, 2)},
            {mark: getattr(quad, mark).cycle_type() for mark in hurwitz.SPECIAL_MARKS},
        ),
        # a complete search finds one tuple class: the pinned tuple's
        "searched classes": (
            ([hurwitz.canonical_key(4, quad.permutations)], False),
            ([hurwitz.canonical_key(4, c.permutations) for c in result.covers], result.truncated),
        ),
    })


# -- criteria 10 and 11: worked examples -------------------------------------------------


@_check("quintic-example", "degree-5 example: CY, s=3, genera (0,0,2), h11=59, h21=3, e=112")
def _check_quintic():
    data = hurwitz.BranchData(n=5, x=(5,), y=(1, 4), z=(1, 1, 1, 1, 1), r=1)
    expected = dict(
        cy=True, ambiguous=False, s=3, genera=(0, 0, 2), p_g=2, h11=59, h21=3, euler=112,
        guaranteed_smooth=True,
    )
    reports = hodge.analyze_branch_data(data)
    return [expected], [{field: getattr(r, field) for field in expected} for r in reports]


@_check("regular-cover-example", "degree-8 regular cover: s=8, all genus 0, h11=40, h21=0, e=80")
def _check_regular_cover():
    cover = hurwitz.regular_deck_cover()
    data = hurwitz.branch_data_of(cover)
    report = hodge.analyze_cover(cover)
    pinned = dict(cy=True, s=8, genera=(0,) * 8, h11=40, h21=0, euler=80, guaranteed_smooth=False)
    key = hurwitz.canonical_key(8, cover.permutations)
    searched = hurwitz.search_tuples(data, limit=64)
    return _split({
        "branch data": (hurwitz.BranchData(n=8, x=(2, 2, 2, 2), y=(4, 4), z=(2, 2, 2, 2), r=0), data),
        "report": (pinned, {field: getattr(report, field) for field in pinned}),
        "search finds the tuple": (
            True,
            any(hurwitz.canonical_key(8, c.permutations) == key for c in searched.covers),
        ),
    })


# -- criterion 12: pinned constants ---------------------------------------------------


@_check("pinned-constants", "reference threefolds: e=64/h11=32/h21=0 and e=80/h11=40/h21=0")
def _check_constants():
    c = hodge.reference_constants()
    # (e, h11, h21, 2(h11 - h21)): each threefold has e = 2(h11 - h21)
    return [(64, 32, 0, 64), (80, 40, 0, 80)], [
        (t.euler, t.h11, t.h21, 2 * (t.h11 - t.h21)) for t in (c.product_resolution, c.kummer_model)
    ]


# -- criterion 13: property suites -----------------------------------------------------


#: How many branch data cy-vs-riemann-hurwitz covers: every n <= 8, x, y, z
#: and r < 2n.  Pinned, so that a change of the degree bound shows.
CY_RH_DOMAIN = 238216


@_check("cy-vs-riemann-hurwitz", f"k+l+m-n-r=2 equals Riemann-Hurwitz on all {CY_RH_DOMAIN} data with n <= 8")
def _check_cy_rh():
    # Both sides see a partition p only through len(p), as sum(p - 1) = n - len(p):
    # one datum per (n, k, l, m, r) stands for its class of x, y, z.  The
    # Calabi-Yau side counts the parts in this loop, not through BranchData,
    # so a wrong BranchData.k, l or m cannot shift both sides alike.
    expected = f"checked {CY_RH_DOMAIN} branch data"
    count = 0
    for n in range(1, hurwitz.MAX_SEARCH_DEGREE + 1):
        by_length: dict[int, list[tuple[int, ...]]] = {}
        for p in hurwitz.partitions(n):
            by_length.setdefault(len(p), []).append(p)
        for x, y, z in itertools.product(by_length.values(), repeat=3):
            k_l_m = len(x[0]) + len(y[0]) + len(z[0])
            for r in range(0, 2 * n):
                b = hurwitz.BranchData(n=n, x=x[0], y=y[0], z=z[0], r=r)
                if (k_l_m - n - r == 2) != b.admits_rational_cover():
                    return expected, b
                count += len(x) * len(y) * len(z)
    return expected, f"checked {count} branch data"


@_check("pullback-accounting", "orbit sizes partition the pair set on 100 random covers")
def _check_pullback_accounting():
    rng = random.Random(1729)

    def random_cover(degree: int, marks: int) -> hurwitz.HurwitzCover:
        perms = []
        for _ in range(marks - 1):
            images = list(range(degree))
            rng.shuffle(images)
            perms.append(Permutation(images))
        perms.append(compose_all(perms, degree).inverse())  # forces identity product
        return hurwitz.HurwitzCover(degree, *perms)

    for _ in range(100):
        d = rng.randint(2, 6)
        n = rng.randint(2, 6)
        a = random_cover(d, 3)
        g = random_cover(n, 3)
        reports = hurwitz.pullback(a, g)
        expected, actual = _split({
            "degree": (d * n, sum(r.degree for r in reports)),
            # Riemann-Hurwitz over the rational base
            "2 genus": (
                [r.ramification_total() - 2 * r.degree + 2 for r in reports],
                [2 * r.genus for r in reports],
            ),
            "negative genera": ([], [r.genus for r in reports if r.genus < 0]),
            # cycles of lengths p and q give gcd(p, q) cycles of length lcm(p, q)
            "profiles": (
                {
                    mark: sorted(
                        math.lcm(len(ca), len(cg))
                        for ca in getattr(a, mark).cycles(include_fixed=True)
                        for cg in getattr(g, mark).cycles(include_fixed=True)
                        for _ in range(math.gcd(len(ca), len(cg)))
                    )
                    for mark in hurwitz.SPECIAL_MARKS
                },
                {mark: sorted(length for r in reports for length in r.profiles[mark]) for mark in hurwitz.SPECIAL_MARKS},
            ),
        })
        if actual != expected:
            return expected, {"covers": (a, g), **actual}
    return expected, actual


@_check("vieta", "j-pair roots satisfy Vieta for 50 random sigma/pi")
def _check_vieta():
    rng = random.Random(97)
    for _ in range(50):
        sigma = _F(rng.randint(-400, 400), rng.randint(1, 40))
        pi = _F(rng.randint(-400, 400), rng.randint(1, 40))
        j1, j2 = mpolar.j_pair(mpolar.SigmaPi(sigma=sigma, pi=pi))
        expected = (sigma, pi)
        actual = tuple(v.as_rational() if v.is_rational else v for v in (j1 + j2, j1 * j2))
        if actual != expected:
            break
    return expected, actual


@_check("step-stability", "halving the maximum step size leaves the loop table unchanged")
def _check_stability():
    tables = _tables()
    expected = dict.fromkeys(STEP_SCALES, tables[256].as_dict())
    return expected, {steps: tables[steps].as_dict() for steps in STEP_SCALES}


def run_all(keys: list[str] | None = None) -> list[CheckResult]:
    results = []
    for key, description, fn in _REGISTRY:
        if keys and key not in keys:
            continue
        start = time.perf_counter()
        try:
            expected, actual = fn()
            passed = expected == actual
        except Exception as exc:  # a crash is a failure, not an abort
            passed, expected, actual = False, "check to complete", f"raised {exc!r}"
        results.append(
            CheckResult(
                key=key,
                description=description,
                passed=passed,
                expected=expected,
                actual=actual,
                seconds=time.perf_counter() - start,
            )
        )
    return results


def check_keys() -> list[str]:
    return [key for key, _, _ in _REGISTRY]


def run_one(key: str) -> CheckResult:
    results = run_all([key])
    if not results:
        raise KeyError(f"unknown check {key}")
    return results[0]
