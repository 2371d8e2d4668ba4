"""Self-verification against the pinned reference values.

Every numeric claim the package reproduces is encoded here as a named check
returning expected/actual pairs: the cover-tower identity, the singular-fiber
table of the first elliptic surface, the j-invariant closed form, the
discriminant factorization, the cross-family symmetric-function identities,
the loop table with its product relation and step stability, the dihedral
deck group, the Kummer involutions, the fixed-curve components, both
worked examples end to end, the pinned Hodge constants, and the property
suites.  The command-line `verify-paper` subcommand and the acceptance test
module both run exactly these checks.
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
    expected: str
    actual: str
    seconds: float


_REGISTRY: list[tuple[str, str, Callable[[], tuple[bool, str, str]]]] = []


def _check(key: str, description: str):
    def wrap(fn):
        _REGISTRY.append((key, description, fn))
        return fn

    return wrap


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


def find_relabeling(table: monodromy.PunctureTable) -> Permutation | None:
    """A relabeling conjugating the computed table to the reference one.

    Candidates preserve the pair of triples {1,2,3}, {4,5,6} (acting within
    each, possibly swapping them); the first match in lexicographic order is
    returned so the choice is deterministic and documentable.
    """
    computed = table.as_dict()
    reference = monodromy.REFERENCE_TABLE
    candidates = []
    for sig in itertools.permutations((1, 2, 3)):
        for tau in itertools.permutations((4, 5, 6)):
            images = list(sig) + list(tau)
            candidates.append(Permutation(images))
            swapped = [v + 3 for v in sig] + [v - 3 for v in tau]
            candidates.append(Permutation(swapped))
    candidates.sort(key=lambda p: p.images)
    for rho in candidates:
        if all(
            computed[mark].conjugate_by(rho) == reference[mark] for mark in reference
        ):
            return rho
    return None


# -- criterion 1: cover tower -------------------------------------------------


@_check("tower", "cover tower composes to (1/16) nu^2 (1-nu^2)^2/(1+nu^2)^4")
def _check_tower():
    tower = family.cover_tower()
    lhs = compose(tower.f1, tower.f2_f3)
    expected = family.LAMBDA_OF_NU
    ok = lhs == expected and tower.lambda_of_nu == expected
    return ok, repr(expected), repr(lhs)


# -- criterion 2: fiber table ----------------------------------------------------


def _expected_fiber_table():
    return {
        Place.at(1): "I2",
        Place.at(-1): "I2",
        Place.at(0): "I4",
        Place.at_infinity(): "I4",
    }


@_check("fiber-table", "first surface has I2 at nu=+-1, I4 at nu=0 and infinity")
def _check_fiber_table():
    fibers = kodaira.classify(family.e1_model())
    got = {f.place: f.symbol for f in fibers}
    expected = _expected_fiber_table()
    ok = got == expected
    return ok, str(sorted((repr(k), v) for k, v in expected.items())), str(
        sorted((repr(k), v) for k, v in got.items())
    )


@_check("fiber-orders", "orders of j at the tabulated places match the multiplicities")
def _check_fiber_orders():
    j = kodaira.j_function(family.e1_model())
    checks = []
    # poles: order 2 at nu = +-1, order 4 at nu = 0 and infinity
    checks.append(order_at(j, Place.at(1)) == -2)
    checks.append(order_at(j, Place.at(-1)) == -2)
    checks.append(order_at(j, Place.at(0)) == -4)
    checks.append(order_at(j, Place.at_infinity()) == -4)
    # j = 1 to order 2 on a degree-6 locus: nu^2+1, nu^2-2, nu^2-1/2
    one_places = [
        Place.finite(Polynomial((1, 0, 1))),
        Place.finite(Polynomial((-2, 0, 1))),
        Place.finite(Polynomial((_F(-1, 2), 0, 1))),
    ]
    checks.append(all(order_at(j - 1, p) == 2 for p in one_places))
    checks.append(sum(p.degree for p in one_places) == 6)
    # j = 0 to order 3 on the degree-4 place nu^4 - nu^2 + 1
    zero_place = Place.finite(Polynomial((1, 0, -1, 0, 1)))
    checks.append(order_at(j, zero_place) == 3)
    checks.append(zero_place.degree == 4)
    # I_n fibers have order_at(j) = -n
    for f in kodaira.classify(family.e1_model()):
        checks.append(order_at(j, f.place) == -f.n)
    return all(checks), "all order checks true", str(checks)


# -- criterion 3: j closed form ---------------------------------------------------


@_check("j-formula", "j of the first surface equals (4/27)(nu^4-nu^2+1)^3/(nu^4(nu-1)^2(nu+1)^2)")
def _check_j_formula():
    j = kodaira.j_function(family.e1_model())
    nu = RationalFunction.x()
    expected = (
        _F(4, 27)
        * (nu**4 - nu**2 + 1) ** 3
        / (nu**4 * (nu - 1) ** 2 * (nu + 1) ** 2)
    )
    return j == expected, repr(expected), repr(j)


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
    delta = mpolar.discriminant_delta(a_lift, b_var)
    native = sp.sigma * sp.sigma - 4 * sp.pi == delta
    # Independent oracle: sympy bivariate expansion.
    import sympy

    a, b = sympy.symbols("a b")
    sym = (
        sympy.expand(
            (a**3 - b**2 + 1) ** 2 - 4 * a**3 - (a**3 - (b - 1) ** 2) * (a**3 - (b + 1) ** 2)
        )
        == 0
    )
    return native and sym, "identity in both routes", f"native={native}, oracle={sym}"


# -- criterion 5: cross-family identities --------------------------------------------


@_check("cross-family", "j1 + j2 = sigma(lambda(nu)) and j1 j2 = pi(lambda(nu)) exactly")
def _check_cross_family():
    j1 = kodaira.j_function(family.e1_model())
    j2 = kodaira.j_function(family.e2_model())
    fam = family.lambda_family()
    lam = family.LAMBDA_OF_NU
    sum_ok = j1 + j2 == compose(fam.sigma_of_lambda, lam)
    prod_ok = j1 * j2 == compose(fam.pi_of_lambda, lam)
    return sum_ok and prod_ok, "both identities exact", f"sum={sum_ok}, product={prod_ok}"


# -- criterion 6: loop table --------------------------------------------------------


@_check("loop-table", "loop table reproduces the reference permutations and product relation")
def _check_loop_table():
    table = _tables()[256]
    cycle_types = {
        "zero": table.around_zero.cycle_type(),
        "quarter256": table.around_quarter256.cycle_type(),
        "infinity": table.around_infinity.cycle_type(),
    }
    expected_types = {
        "zero": (2, 2, 2),
        "quarter256": (2, 1, 1, 1, 1),
        "infinity": (4, 2),
    }
    types_ok = cycle_types == expected_types
    swaps_ok = all(
        table.around_zero(i) in (4, 5, 6) for i in (1, 2, 3)
    )  # triple-swapping
    within_ok = monodromy.deck_parity(table.around_quarter256).in_H
    product = table.around_zero * table.around_infinity * table.around_quarter256
    rho = find_relabeling(table)
    label_ok = rho is not None
    ok = types_ok and swaps_ok and within_ok and product.is_identity and label_ok
    actual = (
        f"types={cycle_types}, product={product.cycle_string()}, "
        f"relabeling={rho.cycle_string() if rho else None}"
    )
    return ok, f"types={expected_types}, product=id, relabeling found", actual


# -- criterion 7: deck group --------------------------------------------------------


@_check("deck-group", "eight deck elements form the dihedral group and preserve lambda")
def _check_deck_group():
    elements = family.all_deck_elements()
    ok = len(elements) == 8
    # Relations and faithfulness
    alpha = family.deck_element(1, 0)
    beta = family.deck_element(0, 1)
    ok &= (alpha * alpha * alpha * alpha).label_perm.is_identity
    ok &= (beta * beta).label_perm.is_identity
    ok &= (beta * alpha * beta).label_perm == alpha.inverse().label_perm
    ok &= compose(beta.base_map, compose(alpha.base_map, beta.base_map)) == alpha.inverse().base_map
    # Full multiplication table: words, base maps and label permutations agree.
    for g in elements:
        for h in elements:
            gh = g * h
            ok &= gh.base_map == compose(g.base_map, h.base_map)
            ok &= gh.label_perm == g.label_perm * h.label_perm
    # lambda is deck-invariant
    lam = family.LAMBDA_OF_NU
    ok &= all(compose(lam, g.base_map) == lam for g in elements)
    # the printed label actions
    ok &= alpha.label_perm == Permutation.from_cycles(6, [(1, 5, 2, 4), (3, 6)])
    ok &= beta.label_perm == Permutation.from_cycles(6, [(1, 4), (2, 5), (3, 6)])
    ok &= len(group_closure([alpha.label_perm, beta.label_perm])) == 8
    return ok, "dihedral of order 8, lambda invariant, printed labels", f"ok={ok}"


# -- criterion 8: Kummer involutions ---------------------------------------------------


def _involution_identity(which: str) -> bool:
    """Symbolic check that the coordinate map preserves the hypersurface."""
    import sympy

    nu, s, t = sympy.symbols("nu s t")
    F = family.kummer_rhs(nu, s, t)
    r = (nu - 1) / (nu + 1)
    if which == "beta":
        image = F.subs({nu: -nu, s: r**2 * s, t: t}, simultaneous=True)
        cofactor = r**6
    elif which == "iota":
        image = F.subs({nu: (nu + 1) / (nu - 1), s: t, t: s}, simultaneous=True)
        cofactor = 1
    elif which == "iota_prime":
        image = F.subs({nu: r, s: t, t: r**2 * s}, simultaneous=True)
        cofactor = r**6
    else:
        raise ValueError(which)
    return sympy.cancel(image - cofactor * F) == 0


@_check("kummer-involutions", "beta, iota, iota' preserve the Kummer hypersurface; beta^2 = iota^2 = id")
def _check_involutions():
    symbolic = {w: _involution_identity(w) for w in ("beta", "iota", "iota_prime")}
    rng = random.Random(20260810)
    points_ok = True
    for _ in range(20):
        p = family.random_surface_point(rng)
        points_ok &= p.on_surface()
        for w in ("beta", "iota", "iota_prime"):
            q = family.apply_involution(w, p)
            points_ok &= q.on_surface()
        for w in ("beta", "iota"):
            points_ok &= family.apply_involution(w, family.apply_involution(w, p)) == p
    # iota' composes as iota after beta, and base maps match the deck elements.
    q = family.random_surface_point(rng)
    comp_ok = family.apply_involution("iota_prime", q) == family.apply_involution(
        "iota", family.apply_involution("beta", q)
    )
    base_ok = (
        family.INVOLUTION_BASE_MAPS["iota_prime"] == family.deck_element(1, 0).base_map
        and family.INVOLUTION_BASE_MAPS["iota"]
        == (family.deck_element(1, 0) * family.deck_element(0, 1)).base_map
        and family.INVOLUTION_BASE_MAPS["beta"] == family.deck_element(0, 1).base_map
    )
    ok = all(symbolic.values()) and points_ok and comp_ok and base_ok
    return ok, "all identities hold", f"symbolic={symbolic}, points={points_ok}, comp={comp_ok}, base={base_ok}"


# -- criterion 9: fixed-curve components ------------------------------------------------


@_check("fixed-curve-data", "fixed curve: components of degree (2,2,4), genus 0, rigid 4-fold tuple")
def _check_fixed_curve_data():
    comps = hurwitz.c2_components()
    degrees = tuple(c.degree for c in comps)
    valid = all(not hurwitz.validate(c) for c in comps)
    genera = tuple(hurwitz.genus(c) for c in comps)
    quad = comps[2]
    profiles_ok = {mark: getattr(quad, mark).cycle_type() for mark in hurwitz.SPECIAL_MARKS} == {
        "quarter256": (2, 1, 1),
        "zero": (2, 2),
        "infinity": (4,),
    }
    data = hurwitz.branch_data_of(quad)
    result = hurwitz.search_tuples(data, limit=8)
    unique = len(result.covers) == 1 and not result.truncated
    same_class = unique and hurwitz.canonical_key(
        4, result.covers[0].permutations
    ) == hurwitz.canonical_key(4, quad.permutations)
    ok = degrees == (2, 2, 4) and valid and genera == (0, 0, 0) and profiles_ok and same_class
    return (
        ok,
        "degrees (2,2,4), all genus 0, printed profiles, unique tuple class",
        f"degrees={degrees}, valid={valid}, genera={genera}, profiles_ok={profiles_ok}, "
        f"unique={unique}, same_class={same_class}",
    )


# -- criteria 10 and 11: worked examples -------------------------------------------------


@_check("quintic-example", "degree-5 example: CY, s=3, genera (0,0,2), h11=59, h21=3, e=112")
def _check_quintic():
    data = hurwitz.BranchData(n=5, x=(5,), y=(1, 4), z=(1, 1, 1, 1, 1), r=1)
    reports = hodge.analyze_branch_data(data)
    ok = len(reports) == 1
    r = reports[0]
    ok &= (
        r.cy
        and not r.ambiguous
        and r.s == 3
        and r.genera == (0, 0, 2)
        and r.p_g == 2
        and r.h11 == 59
        and r.h21 == 3
        and r.euler == 112
        and r.guaranteed_smooth
    )
    return (
        ok,
        "one report: cy, s=3, genera (0,0,2), h11=59, h21=3, e=112, smooth",
        f"{len(reports)} report(s); s={r.s}, genera={r.genera}, h11={r.h11}, "
        f"h21={r.h21}, e={r.euler}, cy={r.cy}, smooth={r.guaranteed_smooth}, ambiguous={r.ambiguous}",
    )


@_check("regular-cover-example", "degree-8 regular cover: s=8, all genus 0, h11=40, h21=0, e=80")
def _check_regular_cover():
    cover = hurwitz.regular_deck_cover()
    data = hurwitz.branch_data_of(cover)
    report = hodge.analyze_cover(cover)
    data_ok = (
        data.n == 8
        and data.x == (2, 2, 2, 2)
        and data.y == (4, 4)
        and data.z == (2, 2, 2, 2)
        and data.r == 0
    )
    ok = (
        data_ok
        and report.cy
        and report.s == 8
        and report.genera == (0,) * 8
        and report.h11 == 40
        and report.h21 == 0
        and report.euler == 80
        and not report.guaranteed_smooth
    )
    searched = hurwitz.search_tuples(data, limit=64)
    contains_regular = any(
        hurwitz.canonical_key(8, c.permutations)
        == hurwitz.canonical_key(8, cover.permutations)
        for c in searched.covers
    )
    ok &= contains_regular
    return (
        ok,
        "(4,2,4,8,0), s=8, genera all 0, h11=40, h21=0, e=80; search finds the tuple",
        f"data=({data.k},{data.l},{data.m},{data.n},{data.r}), s={report.s}, "
        f"genera={report.genera}, h11={report.h11}, h21={report.h21}, e={report.euler}, "
        f"search_contains={contains_regular}",
    )


# -- criterion 12: pinned constants ---------------------------------------------------


@_check("pinned-constants", "reference threefolds: e=64/h11=32/h21=0 and e=80/h11=40/h21=0")
def _check_constants():
    c = hodge.reference_constants()
    a, y = c.product_resolution, c.kummer_model
    ok = (
        (a.euler, a.h11, a.h21) == (64, 32, 0)
        and (y.euler, y.h11, y.h21) == (80, 40, 0)
        and a.euler == 2 * (a.h11 - a.h21)
        and y.euler == 2 * (y.h11 - y.h21)
    )
    return ok, "(64,32,0) and (80,40,0), euler = 2(h11-h21)", f"{(a, y)}"


# -- criterion 13: property suites -----------------------------------------------------


#: How many branch data cy-vs-riemann-hurwitz covers: every n <= 8, x, y, z
#: and r < 2n.  Pinned, so that a change of the degree bound shows.
CY_RH_DOMAIN = 238216


@_check("cy-vs-riemann-hurwitz", f"k+l+m-n-r=2 equals Riemann-Hurwitz on all {CY_RH_DOMAIN} data with n <= 8")
def _check_cy_rh():
    # Both sides see a partition p only through len(p), as sum(p - 1) = n - len(p):
    # one datum per (n, k, l, m, r) stands for its class of x, y, z.
    expected = f"equivalence on exactly {CY_RH_DOMAIN} branch data"
    count = 0
    for n in range(1, hurwitz.MAX_SEARCH_DEGREE + 1):
        by_length: dict[int, list[tuple[int, ...]]] = {}
        for p in hurwitz.partitions(n):
            by_length.setdefault(len(p), []).append(p)
        for x, y, z in itertools.product(by_length.values(), repeat=3):
            for r in range(0, 2 * n):
                b = hurwitz.BranchData(n=n, x=x[0], y=y[0], z=z[0], r=r)
                lhs = b.k + b.l + b.m - b.n - b.r == 2
                rhs = b.admits_rational_cover()
                if lhs != rhs:
                    return False, expected, f"fails at {b}"
                count += len(x) * len(y) * len(z)
    return count == CY_RH_DOMAIN, expected, f"checked {count} branch data"


@_check("pullback-accounting", "orbit sizes partition the pair set on 100 random covers")
def _check_pullback_accounting():
    rng = random.Random(1729)

    def random_cover(degree: int, marks: int) -> hurwitz.HurwitzCover:
        perms = []
        for _ in range(marks - 1):
            images = list(range(1, degree + 1))
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
        total = sum(r.degree for r in reports)
        if total != d * n:
            return False, "degrees sum to d*n", f"{total} != {d * n}"
        for r in reports:
            ram = r.ramification_total()
            if (ram - 2 * r.degree + 2) % 2 or r.genus != (ram - 2 * r.degree + 2) // 2:
                return False, "Riemann-Hurwitz consistent", f"bad report {r}"
            if r.genus < 0:
                return False, "nonnegative genus", f"negative genus {r}"
        # lcm structure of the pair cycles
        for mark in hurwitz.SPECIAL_MARKS:
            pa, pg = getattr(a, mark), getattr(g, mark)
            lcm_lengths = sorted(
                (
                    math.lcm(len(ca), len(cg))
                    for ca in pa.cycles(include_fixed=True)
                    for cg in pg.cycles(include_fixed=True)
                    for _ in range(math.gcd(len(ca), len(cg)))
                ),
                reverse=True,
            )
            got = sorted(
                (length for r in reports for length in r.profiles[mark]), reverse=True
            )
            if got != lcm_lengths:
                return False, "pair cycles are lcms", f"{got} != {lcm_lengths}"
    return True, "all invariants on 100 covers", "ok"


@_check("vieta", "j-pair roots satisfy Vieta for 50 random sigma/pi")
def _check_vieta():
    rng = random.Random(97)
    for _ in range(50):
        sigma = _F(rng.randint(-400, 400), rng.randint(1, 40))
        pi = _F(rng.randint(-400, 400), rng.randint(1, 40))
        j1, j2 = mpolar.j_pair(mpolar.SigmaPi(sigma=sigma, pi=pi))
        total = j1 + j2
        prod = j1 * j2
        if not (total.is_rational and prod.is_rational):
            return False, "rational sum/product", f"{total}, {prod}"
        if total.as_rational() != sigma or prod.as_rational() != pi:
            return False, "sum=sigma, product=pi", f"{total}, {prod}"
    return True, "Vieta for 50 samples", "ok"


@_check("step-stability", "halving the maximum step size leaves the loop table unchanged")
def _check_stability():
    tables = _tables()
    base = tables[256].as_dict()
    ok = all(tables[steps].as_dict() == base for steps in STEP_SCALES)
    return ok, "identical tables at 3 step scales", f"stable={ok}"


def run_all(keys: list[str] | None = None) -> list[CheckResult]:
    results = []
    for key, description, fn in _REGISTRY:
        if keys and key not in keys:
            continue
        start = time.perf_counter()
        try:
            passed, expected, actual = fn()
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
