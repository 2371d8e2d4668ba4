"""Loop tracking and the parity classifier.

The expensive three-scale loop tables are computed once through the shared
verification cache; the acceptance module reuses the same results.
"""

import itertools
import math
from fractions import Fraction as F

import mpmath
import pytest

from kumfib import cli, family, monodromy, verification
from kumfib.monodromy import LoopSpec, base_configuration, deck_parity, track_loop
from kumfib.permutations import Permutation, group_closure, orbits


@pytest.fixture(scope="module")
def tables():
    return verification._tables()


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


class TestBaseConfiguration:
    def test_six_distinct_roots_and_triples(self):
        roots = base_configuration(128)
        assert isinstance(roots, tuple) and len(roots) == 6
        lam = monodromy.BASE_POINT
        fam = family.LAMBDA_FAMILY
        a, b = fam.a_of_lambda(lam), fam.b_of_lambda(lam)
        with mpmath.workprec(128):
            for i in range(6):
                for j in range(i + 1, 6):
                    assert abs(roots[i] - roots[j]) > mpmath.mpf("1e-3")
            # labels 1..3 carry C = +lambda^{3/2}, labels 4..6 C = -lambda^{3/2}
            s32 = mpmath.sqrt(_mp(lam)) ** 3
            for label, xi in enumerate(roots, start=1):
                xi = mpmath.mpc(xi)
                c = 4 * xi**3 - 3 * _mp(a) * xi - _mp(b)
                sign = 1 if label <= 3 else -1
                assert abs(c - sign * s32) < abs(c + sign * s32)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_precision_too_coarse_to_polish(self, monkeypatch, bits):
        monkeypatch.setattr(monodromy, "_BASE_CACHE", {})
        with pytest.raises(monodromy.CoarseSolveError, match=f"at {bits} bits too coarse"):
            base_configuration(bits)

    def test_coarsest_precision_that_polishes(self, tables, monkeypatch):
        monkeypatch.setattr(monodromy, "_BASE_CACHE", {})
        table = monodromy.puncture_table(precision_bits=4, initial_steps=8)
        assert table.as_dict() == tables[256].as_dict()

    def test_sorted_within_triples(self):
        with mpmath.workprec(128):
            sqrt_lam = mpmath.sqrt(_mp(monodromy.BASE_POINT))
            x_roots = [mpmath.mpc(xi) / sqrt_lam for xi in base_configuration(128)]
            for block in (x_roots[:3], x_roots[3:]):
                keys = [(mpmath.re(x), mpmath.im(x)) for x in block]
                assert keys == sorted(keys)


class TestLoops:
    def test_trivial_loop_is_identity(self):
        # a tiny circle around the base point encloses no puncture
        roots = base_configuration(96)
        base = -257 / 256
        r = 1 / 1024
        pieces = [
            monodromy._segment(base, base + r),
            monodromy._arc(base, r, 0, 2 * math.pi),
            monodromy._segment(base + r, base),
        ]
        safety = 1e-10
        final = monodromy._track_pieces(pieces, roots, 64, safety)
        assert monodromy._match(final, roots).is_identity

    def test_non_puncture_center_rejected(self):
        spec = LoopSpec(center=F(-257, 256), initial_steps=64)
        with pytest.raises(monodromy.MonodromyError):
            track_loop(spec, precision_bits=96)

    def test_oversized_radius_hits_the_degeneracy(self, monkeypatch):
        # radius 1/256 around 1/256 passes through lambda = 0, where the six
        # roots degenerate in pairs; the tracker must refuse, not mislabel
        monkeypatch.setattr(LoopSpec, "resolved_radius", lambda spec: F(1, 256))
        spec = LoopSpec(center=F(1, 256), initial_steps=64)
        with pytest.raises(monodromy.MonodromyError):
            track_loop(spec, precision_bits=96)

    def test_determinism(self):
        spec = LoopSpec(center=F(0), initial_steps=64)
        first = track_loop(spec, precision_bits=96)
        second = track_loop(spec, precision_bits=96)
        assert first == second

    def test_radius_and_precision_robustness(self, tables, monkeypatch):
        # a smaller circle and a different precision give the same permutation
        reference = tables[256].around_zero
        monkeypatch.setattr(LoopSpec, "resolved_radius", lambda spec: F(1, 1024))
        smaller = track_loop(LoopSpec(center=F(0), initial_steps=64), precision_bits=96)
        assert smaller == reference

    def test_zero_loop_swaps_triples_blockwise(self, tables):
        g0 = tables[256].around_zero
        assert g0.cycle_type() == (2, 2, 2)
        assert all(g0(i) in (4, 5, 6) for i in (1, 2, 3))

    def test_quarter_loop_is_transposition_within_a_triple(self, tables):
        gc = tables[256].around_quarter256
        assert gc.cycle_type() == (2, 1, 1, 1, 1)
        moved = [i for i in range(1, 7) if gc(i) != i]
        assert moved and deck_parity(gc).block_image == "fixed"

    def test_infinity_cycle_type(self, tables):
        assert tables[256].around_infinity.cycle_type() == (4, 2)

    def test_product_relation(self, tables):
        t = tables[256]
        assert (t.around_zero * t.around_infinity * t.around_quarter256).is_identity

    def test_step_stability(self, tables):
        reference = tables[256].as_dict()
        for steps in verification.STEP_SCALES:
            assert tables[steps].as_dict() == reference

    def test_reference_match_after_single_relabeling(self, tables):
        rho = monodromy.find_relabeling(tables[256])
        assert rho is not None
        conj = {
            mark: perm.conjugate_by(rho)
            for mark, perm in tables[256].as_dict().items()
        }
        assert conj == monodromy.REFERENCE_TABLE

    def test_relabeling_is_the_first_that_keeps_the_triples(self, tables):
        # the module docstring names (4 6); brute force over all 720 labelings
        # in lexicographic order of their images
        table = tables[256].as_dict()
        first = next(
            rho
            for rho in map(Permutation, itertools.permutations(range(1, 7)))
            if deck_parity(rho).block_image != "broken"
            and all(table[m].conjugate_by(rho) == p for m, p in monodromy.REFERENCE_TABLE.items())
        )
        assert first == Permutation.from_cycles(6, [(4, 6)])
        assert monodromy.find_relabeling(tables[256]) == first

    def test_cycle_types_invariant_under_relabeling(self, tables):
        # re-sorting base labels conjugates every loop permutation, so the
        # reported cycle types cannot depend on the labeling convention
        for rho_cycles in ([(1, 2)], [(4, 6)], [(1, 3), (4, 5, 6)]):
            rho = Permutation.from_cycles(6, rho_cycles)
            for perm in tables[256].as_dict().values():
                assert perm.conjugate_by(rho).cycle_type() == perm.cycle_type()

    def test_generated_group(self, tables):
        t = tables[256]
        group = group_closure([t.around_zero, t.around_quarter256])
        assert len(group) == 8  # dihedral, matching the deck group
        parts = orbits(6, [t.around_zero, t.around_quarter256])
        assert sorted(len(o) for o in parts) == [2, 4]  # not transitive


class TestLoopTemplate:
    """Every loop is out to the circle's leftmost point, the circle, and out reversed."""

    @pytest.mark.parametrize("center", [F(0), F(1, 256), monodromy.INFINITY])
    def test_out_around_and_back(self, center):
        spec = LoopSpec(center=center)
        pieces = monodromy._loop_pieces(spec)
        assert len(pieces) == 3
        out, circle, back = pieces
        base = float(monodromy.BASE_POINT)
        assert out(0) == pytest.approx(base, abs=1e-12) and back(1) == pytest.approx(base, abs=1e-12)
        assert all(p(1) == pytest.approx(q(0), abs=1e-12) for p, q in zip(pieces, pieces[1:]))
        ts = [k / 64 for k in range(65)]
        assert all(back(t) == out(1 - t) for t in ts)
        c = 0 if center == monodromy.INFINITY else float(center)
        r = float(spec.resolved_radius())
        assert circle(0) == pytest.approx(c - r, abs=1e-12)
        assert all(abs(circle(t) - c) == pytest.approx(r, rel=1e-12) for t in ts)
        # counterclockwise about a finite puncture, clockwise about infinity
        assert (circle(0.25).imag < 0) == (center != monodromy.INFINITY)
        if center != monodromy.INFINITY:
            # the way out and back comes no nearer a puncture than the circle
            for p in monodromy.PUNCTURES:
                assert min(abs(piece(t) - float(p)) for piece in (out, back) for t in ts) > r * (1 - 1e-12)


def _oracle_roots(lam):
    """The six roots of S(., lam) from mpmath's polyroots at 128 bits."""
    with mpmath.workprec(128):
        lam = mpmath.mpc(lam)
        a = lam + mpmath.mpf(1) / 144
        b = mpmath.mpf(3) / 8 * lam - mpmath.mpf(1) / 1728
        coeffs = [16, 0, -24 * a, -8 * b, 9 * a * a, 6 * a * b, b * b - lam**3]
        return mpmath.polyroots(coeffs, maxsteps=200, extraprec=128)


def _assert_near_oracle(tracked, lam):
    oracle = _oracle_roots(lam)
    with mpmath.workprec(128):
        separation = min(abs(p - q) for p, q in itertools.combinations(oracle, 2))
        nearest = []
        for xi in tracked:
            dists = [abs(mpmath.mpc(xi) - root) for root in oracle]
            j = min(range(6), key=lambda k: dists[k])
            assert dists[j] < 1e-10, (lam, dists[j])
            assert dists[j] < separation / 3
            nearest.append(j)
    assert sorted(nearest) == list(range(6))  # a unique oracle root each


class TestHighPrecisionOracle:
    """The double-precision tracker against polyroots at 128 bits."""

    def test_base_configuration(self):
        _assert_near_oracle(base_configuration(16), complex(monodromy.BASE_POINT))

    @pytest.mark.parametrize("center", [F(0), F(1, 256), monodromy.INFINITY])
    def test_tracked_roots_along_each_loop(self, center):
        # the roots at the middle and the end of every piece of the loop
        roots = base_configuration(128)
        safety = 1e-4 * max(abs(x) for x in roots)
        pieces = monodromy._loop_pieces(LoopSpec(center=center, initial_steps=64))
        for k, piece in enumerate(pieces):
            for frac in (0.5, 1.0):
                prefix = pieces[:k] + [lambda t, piece=piece, frac=frac: piece(frac * t)]
                tracked = monodromy._track_pieces(prefix, roots, 64, safety)
                _assert_near_oracle(tracked, piece(frac))

    def test_coarse_solve_and_steps_reproduce_the_table(self, tables, monkeypatch):
        monkeypatch.setattr(monodromy, "_BASE_CACHE", {})
        table = monodromy.puncture_table(precision_bits=16, initial_steps=8)
        assert table.as_dict() == tables[256].as_dict()


class TestOneStep:
    """A piece is never taken in fewer than two steps: a full circle in one
    step would end where it starts and track every loop to the identity."""

    @pytest.mark.parametrize("center", [F(0), F(1, 256), monodromy.INFINITY])
    def test_one_step_tracks_as_two(self, center):
        one = track_loop(LoopSpec(center=center, initial_steps=1), precision_bits=96)
        two = track_loop(LoopSpec(center=center, initial_steps=2), precision_bits=96)
        assert one == two
        assert not one.is_identity

    def test_one_step_reproduces_the_table(self, tables):
        assert monodromy.puncture_table(initial_steps=1).as_dict() == tables[256].as_dict()


class TestBigCircleCheck:
    """The infinity loop is also tracked along |lambda| = 8, and a loop that
    disagrees with the product relation is a failure, not a table."""

    @pytest.fixture
    def disagreeing_infinity(self, monkeypatch):
        # the finite loops of the table, and an infinity loop that stays put
        loops = {F(0): "(1 6)(2 5)(3 4)", F(1, 256): "(1 2)", monodromy.INFINITY: "id"}

        def track(spec, precision_bits=128):
            return Permutation.from_cycle_string(6, loops[spec.center])

        monkeypatch.setattr(monodromy, "track_loop", track)

    def test_disagreement_raises(self, disagreeing_infinity):
        with pytest.raises(monodromy.MonodromyError, match=r"big-circle check failed: id vs \(1 5 2 6\)\(3 4\)"):
            monodromy.puncture_table(initial_steps=8)

    def test_cli_exits_1(self, disagreeing_infinity, capsys):
        code = cli.main(["monodromy"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("monodromy failed: big-circle check failed: id vs ")


class TestDeckParity:
    def test_within_triple_odd(self):
        result = deck_parity(Permutation.from_cycles(6, [(4, 5)]))
        assert result.verdict == "swaps" and result.odd and result.block_image == "fixed"

    def test_identity(self):
        result = deck_parity(Permutation.identity(6))
        assert result.verdict == "preserves" and not result.odd

    def test_even_within_triples(self):
        result = deck_parity(Permutation.from_cycles(6, [(1, 2, 3)]))
        assert result.verdict == "preserves" and result.block_image == "fixed"

    def test_block_swap_not_in_h(self):
        result = deck_parity(Permutation.from_cycles(6, [(1, 4), (2, 5), (3, 6)]))
        assert result.verdict == "not_in_H" and result.block_image == "swapped"

    def test_block_breaking_not_in_h(self):
        result = deck_parity(Permutation.from_cycles(6, [(3, 4)]))
        assert result.verdict == "not_in_H" and result.block_image == "broken"

    def test_reference_loops(self):
        # the zero loop leaves H; the quarter loop is an odd element of H
        assert deck_parity(monodromy.REFERENCE_TABLE["zero"]).verdict == "not_in_H"
        assert deck_parity(monodromy.REFERENCE_TABLE["quarter256"]).verdict == "swaps"
