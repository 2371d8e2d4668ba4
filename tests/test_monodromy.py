"""Loop tracking and the parity classifier.

The expensive three-scale loop tables are computed once through the shared
verification cache; the acceptance module reuses the same results.
"""

import itertools
import math
from fractions import Fraction as F

import mpmath
import pytest

from kumfib import cli, family, hurwitz, monodromy, verification
from kumfib.monodromy import LoopSpec, base_configuration, deck_parity, track_loop
from kumfib.permutations import Permutation, is_transitive, orbit_labels


@pytest.fixture(scope="module")
def tables():
    return verification._tables()


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _safety(roots):
    return 1e-4 * max(abs(x) for x in roots)


def _whole_loop_pieces(spec):
    """The tracked pieces of the loop and the way back, out reversed."""
    out, circle = monodromy._loop_pieces(spec)
    return [out, circle, lambda t: out(1 - t)]


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

    def test_triples_sum_to_zero_and_labels_are_pinned(self):
        # each cubic has no xi^2 term; the six roots, in label order, are the
        # 128-bit oracle roots nearest these five-digit values
        roots = base_configuration(128)
        scale = max(abs(x) for x in roots)
        assert abs(sum(roots[:3])) < 1e-14 * scale
        assert abs(sum(roots[3:])) < 1e-14 * scale
        pinned = [
            0.16172 - 0.67249j,
            -0.20338 - 0.32946j,
            0.04167 + 1.00195j,
            0.04167 - 1.00195j,
            -0.20338 + 0.32946j,
            0.16172 + 0.67249j,
        ]
        oracle = _oracle_roots(complex(monodromy.BASE_POINT))
        with mpmath.workprec(128):
            for xi, approx in zip(roots, pinned):
                root = min(oracle, key=lambda r: abs(r - approx))
                assert abs(root - approx) < 1e-4
                assert abs(mpmath.mpc(xi) - root) < 1e-15


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

    def test_roots_out_of_label_order_refused(self):
        # swapping labels 3 and 4 breaks both triples: neither sums to zero
        roots = list(base_configuration(128))
        roots[2], roots[3] = roots[3], roots[2]
        out, _ = monodromy._loop_pieces(LoopSpec(center=F(0), initial_steps=64))
        with pytest.raises(monodromy.MonodromyError, match="label order"):
            monodromy._track_pieces([out], roots, 64, _safety(roots))

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

    @pytest.mark.parametrize("bits", [16, 128])
    @pytest.mark.parametrize("steps", [1, 2, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_one_table_at_every_step_count_and_precision(self, tables, steps, bits):
        table = monodromy.puncture_table(precision_bits=bits, initial_steps=steps)
        assert table.as_dict() == tables[256].as_dict()

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
            for rho in map(Permutation, itertools.permutations(range(6)))
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

    def test_generated_group(self, tables, monkeypatch):
        # relabeled, the tracked loops act on the eight deck elements by left
        # multiplication (a loop outside them raises); that cover is
        # connected, so the loops generate a group of order 8, the deck group
        t = tables[256]
        rho = monodromy.find_relabeling(t)
        relabeled = {mark: p.conjugate_by(rho) for mark, p in t.as_dict().items()}
        monkeypatch.setattr(hurwitz, "REFERENCE_TABLE", relabeled)
        cover = hurwitz.regular_deck_cover()
        assert is_transitive(8, [cover.zero, cover.quarter256])
        sizes = orbit_labels(6, [t.around_zero.images, t.around_quarter256.images])[1]
        assert sorted(sizes) == [2, 4]  # not transitive


class TestLoopTemplate:
    """Every loop is out to the circle's leftmost point, the circle, and out
    reversed; only the first two pieces are tracked."""

    @pytest.mark.parametrize("center", [F(0), F(1, 256), monodromy.INFINITY])
    def test_out_around_and_back(self, center):
        spec = LoopSpec(center=center)
        assert len(monodromy._loop_pieces(spec)) == 2
        pieces = _whole_loop_pieces(spec)
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


class TestEdgeRead:
    """track_loop reads the permutation at the circle's edge; tracking the
    whole loop back to the base point and matching there gives the same."""

    @pytest.mark.parametrize("bits", [16, 128])
    @pytest.mark.parametrize("steps", [8, 64, 256])
    @pytest.mark.parametrize("center", [F(0), F(1, 256), monodromy.INFINITY])
    def test_edge_read_equals_the_whole_loop(self, center, steps, bits):
        spec = LoopSpec(center=center, initial_steps=steps)
        roots = base_configuration(bits)
        final = monodromy._track_pieces(_whole_loop_pieces(spec), roots, steps, _safety(roots))
        assert track_loop(spec, bits) == monodromy._match(final, roots)


class TestUnbranchedCollision:
    """Two roots of one cubic meet over lambda = 1/81, but it is no puncture."""

    def test_two_roots_meet_over_one_81st(self):
        # C = b +- lambda^{3/2} has a double root exactly where C^2 = a^3
        lam = F(1, 81)
        a, b = family.LAMBDA_FAMILY.a_of_lambda(lam), family.LAMBDA_FAMILY.b_of_lambda(lam)
        assert a != 0 and (a**3 - b**2 - lam**3) ** 2 == 4 * b**2 * lam**3

    @pytest.mark.parametrize("steps", [64, 256])
    @pytest.mark.parametrize("shrink", [1, 8])
    def test_loop_about_one_81st_is_the_identity(self, steps, shrink):
        # the quarter256 template about c = 1/81: out along the upper half
        # circle with diameter [base point, c - r], then once around the circle
        c = 1 / 81
        r = (1 / 81 - 1 / 256) / 2 / shrink
        base = float(monodromy.BASE_POINT)
        out = monodromy._arc((base + c - r) / 2, (c - r - base) / 2, math.pi, 0)
        circle = monodromy._arc(c, r, math.pi, 3 * math.pi)
        roots = base_configuration(128)
        edge = monodromy._track_pieces([out], roots, steps, _safety(roots))
        final = monodromy._track_pieces([circle], edge, steps, _safety(roots))
        assert monodromy._match(final, edge).is_identity


class TestStepController:
    def test_next_attempt_grows_from_the_last_step(self):
        # after an accepted step of size h the next attempt is at most
        # min(2 h, max_dt), not max_dt again
        steps = 64
        max_dt = 1 / steps
        roots = base_configuration(128)
        out, _ = monodromy._loop_pieces(LoopSpec(center=F(0), initial_steps=steps))
        requested = []

        def recording(t):
            requested.append(t)
            return out(t)

        monodromy._track_pieces([recording], roots, steps, _safety(roots))
        # the first call is the start t = 0; an attempt was accepted exactly
        # when the next attempt lies beyond it (the last one ends at 1)
        attempts = requested[1:]
        assert requested[0] == 0 and attempts[-1] == 1
        prev, short = 0.0, 0
        for t, nxt in zip(attempts, attempts[1:]):
            if nxt > t:
                h = t - prev
                assert nxt - t <= min(2 * h, max_dt) + 1e-12, (prev, t, nxt)
                prev, short = t, short + (h < max_dt / 2)
        assert short  # the bound bites: some accepted steps are short

    def test_movement_bound_refuses_a_swapped_pair(self, monkeypatch):
        # on the first attempt the deflation hands back labels 2 and 3
        # swapped: each of the two then moves by about their separation, more
        # than the bound of a third of it, so the attempt is refused and the
        # step halved, never mislabeled
        steps = 64
        roots = base_configuration(128)
        base = float(monodromy.BASE_POINT)
        segment = monodromy._segment(base, base + 1 / 1024)
        other_roots, deflations, attempts = monodromy._other_roots, [], []

        def first_pair_swapped(x1, a, near):
            # the first deflation is the first attempt's, of labels 2 and 3
            deflations.append(near)
            pair = other_roots(x1, a, near)
            return pair[::-1] if len(deflations) == 1 else pair

        def recording(t):
            attempts.append(t)
            return segment(t)

        monkeypatch.setattr(monodromy, "_other_roots", first_pair_swapped)
        final = monodromy._track_pieces([recording], roots, steps, _safety(roots))
        assert deflations[0] == roots[1]
        first, second = attempts[1:3]
        assert first == pytest.approx(1 / steps) and second == pytest.approx(first / 2)
        monkeypatch.setattr(monodromy, "_other_roots", other_roots)
        unpatched = monodromy._track_pieces([segment], roots, steps, _safety(roots))
        assert max(map(abs, map(complex.__sub__, final, unpatched))) < 1e-12

    @pytest.mark.parametrize(
        "steps, counts",
        [
            (64, {"zero": (110, 225), "quarter256": (147, 116), "infinity": (65, 65)}),
            (256, {"zero": (293, 257), "quarter256": (329, 257), "infinity": (257, 257)}),
            (128, {"zero": (170, 224), "quarter256": (207, 151), "infinity": (129, 129)}),
        ],
    )
    def test_path_evaluations_per_piece(self, steps, counts):
        # (way out, circle): one evaluation at t = 0 and one per attempted step
        safety = _safety(base_configuration(128))
        centers = {"zero": F(0), "quarter256": F(1, 256), "infinity": monodromy.INFINITY}
        for mark, center in centers.items():
            roots, evaluations = base_configuration(128), []
            for piece in monodromy._loop_pieces(LoopSpec(center=center, initial_steps=steps)):
                requested = []

                def recording(t, piece=piece, requested=requested):
                    requested.append(t)
                    return piece(t)

                roots = monodromy._track_pieces([recording], roots, steps, safety)
                evaluations.append(len(requested))
            assert tuple(evaluations) == counts[mark], mark


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
        safety = _safety(roots)
        pieces = _whole_loop_pieces(LoopSpec(center=center, initial_steps=64))
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
