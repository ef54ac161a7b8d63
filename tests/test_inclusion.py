"""Parameter maps, the shift identity, the dichotomy, and both verifiers."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gardinglab.inclusion as inclusion_mod
from gardinglab.cones import in_shifted_cone
from gardinglab.inclusion import (
    CASE_BOUNDARY,
    CASE_NOT_MEMBER,
    CASE_STRICT,
    EpsilonParams,
    InclusionReport,
    _BLOCK_FLOATS,
    _collect_members,
    _rigid_zero_count,
    boundary_minimum_closed_form,
    boundary_search,
    dichotomy_check,
    epsilon_for_target_m,
    epsilon_to_params,
    sharp_witness,
    shift_identity_residual,
    verify_inclusion_sampling,
)
from gardinglab.symfun import elementary_symmetric, partial_sum_fractional

from oracles import (
    boundary_min_by_projection,
    boundary_search_by_subgradient,
    verify_inclusion_sampling_unblocked,
)


class TestEpsilonParams:
    @pytest.mark.parametrize(
        "N,eps,m_expected",
        [
            (3, 0.5, 1.0),
            (6, math.sqrt(0.1), 2.0),
            (4, 1 / math.sqrt(3), 2.0),
        ],
    )
    def test_m_eps_values(self, N, eps, m_expected):
        assert epsilon_to_params(eps, N).m_eps == pytest.approx(m_expected, abs=1e-12)

    def test_alpha_formula(self):
        p = epsilon_to_params(0.25, 8)
        assert p.alpha_eps == pytest.approx(0.75 / 8)
        assert 0 < p.alpha_eps < 1 / 8

    def test_m_eps_range_and_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(2, 65))
            e1, e2 = np.sort(rng.uniform(1e-6, 1 - 1e-6, size=2))
            m1 = epsilon_to_params(e1, n).m_eps
            m2 = epsilon_to_params(e2, n).m_eps
            assert 0 < m1 < n - 1
            if e2 > e1:
                assert m2 > m1
            a1 = epsilon_to_params(e1, n).alpha_eps
            a2 = epsilon_to_params(e2, n).alpha_eps
            assert a2 < a1

    @pytest.mark.parametrize("eps", [0.633541589146366, 0.9667289557425227, 0.3067177786403865])
    def test_quadratic_coefficient_squares_eps_correctly_rounded(self, eps):
        # eps * eps is correctly rounded; libm's pow, behind eps**2, can be
        # one ulp off at these eps, and at N = 8 that ulp reaches q.
        exact_square = float(Fraction(eps) ** 2)
        assert epsilon_to_params(eps, 8).quadratic_coefficient == (1.0 + 7 * exact_square) / 8

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_to_params(0.0, 4)
        with pytest.raises(ValueError):
            epsilon_to_params(1.0, 4)
        with pytest.raises(ValueError):
            epsilon_to_params(0.5, 1)
        # The bundle itself holds the check, so direct construction is checked.
        for epsilon, N in ((0.0, 4), (1.0, 4), (0.5, 1)):
            with pytest.raises(ValueError):
                EpsilonParams(epsilon=epsilon, N=N)

    def test_unresolvable_epsilon_is_refused_by_name(self):
        # The bundle refuses an eps whose shift (1 - eps)/N rounds to 1/N,
        # naming eps, after its checks of N and of the range of eps.
        message = r"^epsilon 1e-300 is too small to resolve in float64 at N=6: "
        for build in (epsilon_to_params, EpsilonParams):
            with pytest.raises(ValueError, match=message):
                build(1e-300, 6)
        with pytest.raises(ValueError, match=r"^N must be >= 2, got 1$"):
            epsilon_to_params(1e-300, 1)


class TestInverseMap:
    def test_integer_targets_closed_form(self):
        for n in (4, 6, 10):
            for k in range(1, n - 1):
                eps = epsilon_for_target_m(k, n)
                assert eps == pytest.approx(math.sqrt(k / ((n - 1) * (n - k))))
                assert epsilon_to_params(eps, n).m_eps == pytest.approx(k, abs=1e-12)

    @pytest.mark.parametrize(
        "N,m,expected",
        [(6, 2, math.sqrt(0.1)), (4, 2, 1 / math.sqrt(3))],
    )
    def test_known_values(self, N, m, expected):
        assert epsilon_for_target_m(m, N) == pytest.approx(expected, rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(3, 65))
            m = float(rng.uniform(1e-3, n - 1 - 1e-3))
            eps = epsilon_for_target_m(m, n)
            assert epsilon_to_params(eps, n).m_eps == pytest.approx(m, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_for_target_m(3.0, 4)
        with pytest.raises(ValueError):
            epsilon_for_target_m(0.0, 4)


class TestShiftIdentity:
    def test_boundary_witness_lands_on_zero(self):
        p = epsilon_to_params(1 / math.sqrt(3), 4)
        v = np.array([0.0, 0.0, 1.0, 1.0])
        assert shift_identity_residual(v, p) == pytest.approx(0.0, abs=1e-12)
        shifted = v - p.alpha_eps * v.sum()
        assert 2 * elementary_symmetric(shifted, 2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector(self):
        p = epsilon_to_params(0.4, 5)
        assert shift_identity_residual(np.zeros(5), p) == 0.0

    def test_random_vectors(self):
        # Also at scales 1e-300..1e300 and 1.79e215, where ||v||^2 can leave
        # float range: the residual never raises or warns and stays within
        # the bound (+inf where ||v||^2 overflows), and a power of two scales
        # it exactly.
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(2, 65))
            p = epsilon_to_params(float(rng.uniform(0.01, 0.99)), n)
            v = rng.normal(size=n) * float(rng.uniform(0.1, 10))
            bound = 1e-9 * (1 + float(v @ v))
            residual = shift_identity_residual(v, p)
            assert abs(residual) <= bound
            for t in (10.0 ** rng.uniform(-300, 300), 1.79e215):
                norm = math.hypot(*(t * v))
                assert abs(shift_identity_residual(t * v, p)) <= 1e-9 * (1 + norm * norm)
            power = int(rng.integers(-400, 400))
            assert shift_identity_residual(v * 2.0**power, p) == residual * 4.0**power

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shift_identity_residual([1.0, 2.0], epsilon_to_params(0.3, 3))


class TestDichotomy:
    def test_rigid_boundary_case(self):
        p = epsilon_to_params(1 / math.sqrt(3), 4)
        verdict = dichotomy_check([0, 0, 1, 1], p)
        assert verdict.case == CASE_BOUNDARY
        assert verdict.rigid_m == 2
        assert verdict.c0 == pytest.approx(0.0, abs=1e-12)

    def test_strict_interior_case(self):
        p = epsilon_to_params(0.42, 6)
        verdict = dichotomy_check(np.ones(6), p)
        assert verdict.case == CASE_STRICT
        assert verdict.c0 > 0

    def test_non_member(self):
        p = epsilon_to_params(0.5, 3)
        v = np.array([-1.0, -1.0, 3.0])
        # Direct evaluation: sigma_2 of the shifted vector is negative.
        shifted = v - p.alpha_eps * v.sum()
        assert elementary_symmetric(shifted, 2) < 0
        assert dichotomy_check(v, p).case == CASE_NOT_MEMBER

    def test_zero_vector_degenerate_boundary(self):
        p = epsilon_to_params(0.3, 4)
        verdict = dichotomy_check(np.zeros(4), p)
        assert verdict.case == CASE_BOUNDARY
        assert verdict.rigid_m is None
        assert _rigid_zero_count(np.zeros(4), 2.0, 1e-9) is None

    def test_members_with_positive_sum_have_nonnegative_c0(self):
        rng = np.random.default_rng(5)
        tol = 1e-9
        found = 0
        for _ in range(4000):
            n = int(rng.integers(2, 12))
            p = epsilon_to_params(float(rng.uniform(0.05, 0.95)), n)
            v = rng.normal(size=n) + rng.uniform(0, 2)
            verdict = dichotomy_check(v, p)
            if verdict.case == CASE_NOT_MEMBER:
                continue
            found += 1
            assert verdict.c0 >= -tol * p.m_eps * np.linalg.norm(v)
        assert found > 100

    def test_verdict_case_scale_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 10))
            p = epsilon_to_params(float(rng.uniform(0.1, 0.9)), n)
            v = rng.normal(size=n)
            t = float(rng.uniform(1e-4, 1e4))
            assert dichotomy_check(v, p).case == dichotomy_check(t * v, p).case

    def test_rigid_verdicts_match_witnesses(self):
        for n, m in [(4, 2), (6, 4), (5, 1), (3, 1)]:
            p = epsilon_to_params(epsilon_for_target_m(m, n), n)
            verdict = dichotomy_check(sharp_witness(n, m), p)
            assert verdict.case == CASE_BOUNDARY
            assert verdict.rigid_m == m

    def test_divisor_past_float_max_raises(self):
        # A closed member whose sum, norm and c0 are finite but whose
        # m_eps * ||v|| (8.79 * 5.4e307) is not: it read margin 0, a
        # boundary case, instead of the strict case of the same vector at
        # scale 1.
        p = epsilon_to_params(0.9, 10)
        assert dichotomy_check([1.7] * 10, p).case == CASE_STRICT
        with pytest.raises(ValueError, match="^m times the vector norm is not a finite float$"):
            dichotomy_check([1.7e307] * 10, p)

    @pytest.mark.parametrize("t", [1e-300, 1e-12, 1e-10, 1e-8, 1.0, 1e10, 1e300])
    def test_rigid_pattern_at_every_scale(self, t):
        # An absolute tolerance below scale 1 used to lose the pattern.
        p = epsilon_to_params(epsilon_for_target_m(2, 4), 4)
        verdict = dichotomy_check(t * sharp_witness(4, 2), p)
        assert (verdict.case, verdict.rigid_m) == (CASE_BOUNDARY, 2)


class TestSharpWitness:
    @pytest.mark.parametrize(
        "N,m,expected",
        [
            (4, 2, [0, 0, 1, 1]),
            (6, 4, [0, 0, 0, 0, 1, 1]),
            (2, 1, [0, 1]),
        ],
    )
    def test_patterns(self, N, m, expected):
        assert list(sharp_witness(N, m)) == [float(t) for t in expected]

    def test_contracts(self):
        # The matching eps exists for m < N - 1 (m_eps never reaches N - 1).
        for n in range(3, 12):
            for m in range(1, n - 1):
                w = sharp_witness(n, m)
                p = epsilon_to_params(epsilon_for_target_m(m, n), n)
                shifted = w - p.alpha_eps * w.sum()
                assert abs(elementary_symmetric(shifted, 2)) <= 1e-10
                assert shifted.sum() > 0
                c0 = partial_sum_fractional(np.sort(w), p.m_eps)
                assert abs(c0) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            sharp_witness(4, 0)
        with pytest.raises(ValueError):
            sharp_witness(4, 4)


class TestSamplingVerification:
    def test_zero_violations_small_run(self):
        report = verify_inclusion_sampling(N=6, epsilon=math.sqrt(0.1), samples=10_000, seed=11)
        assert report.ok
        assert report.accepted == 10_000
        assert report.min_margin > 0

    def test_high_epsilon(self):
        report = verify_inclusion_sampling(N=3, epsilon=0.9, samples=10_000, seed=13)
        assert report.ok and report.violation_count == 0

    def test_empty_run_vacuous(self):
        report = verify_inclusion_sampling(N=5, epsilon=0.3, samples=0, seed=17)
        assert report.ok and report.accepted == 0
        assert report.min_margin is None

    def test_ball_members_really_are_members(self):
        report = verify_inclusion_sampling(
            N=28, epsilon=0.05, samples=5_000, seed=19, method="ball"
        )
        assert report.ok and report.method_used == "ball"
        assert report.min_margin > 0

    def test_ball_members_pass_cone_module_test(self):
        report = verify_inclusion_sampling(
            N=10, epsilon=0.1, samples=300, seed=53, method="ball", keep_members=True
        )
        p = epsilon_to_params(0.1, 10)
        assert report.members.shape == (300, 10)
        for row in report.members:
            assert in_shifted_cone(row, 2, p.shift_params).member_open

    def test_default_ball_where_rejection_starves(self):
        # Rejection accepts almost nothing here; the ball sampler draws
        # members directly and rejects only draws within tol of the sphere.
        narrow = verify_inclusion_sampling(N=45, epsilon=0.05, samples=2_000, seed=29)
        assert narrow.method == "ball" and narrow.method_used == "ball"
        assert narrow.ok and narrow.accepted == 2_000
        assert narrow.acceptance_rate >= 0.999
        wide = verify_inclusion_sampling(
            N=3, epsilon=0.9, samples=2_000, seed=31, method="rejection"
        )
        assert wide.method_used == "rejection"

    @pytest.mark.parametrize("N", [3, 45])
    def test_ball_members_radially_uniform(self, N):
        # A uniform point of a d-ball has P(|w| < rho 2^(-1/d)) = 1/2.
        eps = 0.3
        report = verify_inclusion_sampling(
            N=N, epsilon=eps, samples=4_000, seed=59, keep_members=True
        )
        rho = epsilon_to_params(eps, N).slice_radius
        np.testing.assert_allclose(report.members.sum(axis=1), 1.0, atol=1e-12)
        radii = np.linalg.norm(report.members - 1.0 / N, axis=1)
        assert radii.max() < rho
        inner = float(np.mean(radii < rho * 2.0 ** (-1.0 / (N - 1))))
        assert abs(inner - 0.5) < 0.03

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            verify_inclusion_sampling(N=4, epsilon=0.5, samples=10, seed=1, method="hitrun")

    @pytest.mark.parametrize("method", ["ball", "rejection"])
    def test_negative_seed_refused_by_name(self, method):
        # numpy's SeedSequence would refuse it too, with a text that names
        # no argument.
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
            verify_inclusion_sampling(N=4, epsilon=0.5, samples=3, seed=-5, method=method)

    def test_nan_margin_counts_as_violation(self):
        p = epsilon_to_params(0.5, 3)
        report = InclusionReport(
            N=3, epsilon=0.5, alpha_eps=p.alpha_eps, m_eps=p.m_eps, seed=0,
            tol=1e-9, samples_requested=2,
        )
        rows = np.array([[0.3, 0.3, 0.4], [np.nan, 0.5, 0.5]])
        _collect_members(report, rows, p)
        assert report.violation_count == 1 and not report.ok
        assert np.isnan(report.violations[0]["vector"][0])

    def test_nan_margin_from_a_later_call_sticks(self, monkeypatch):
        # min() folded the per-call minima, so a NaN survived only when it
        # came from the first call.
        real = inclusion_mod.positivity_margins_batch
        calls = []

        def nan_on_second_call(rows, m):
            margins = real(rows, m)
            calls.append(margins.size)
            if len(calls) == 2:
                margins[0] = np.nan
            return margins

        monkeypatch.setattr(inclusion_mod, "positivity_margins_batch", nan_on_second_call)
        report = verify_inclusion_sampling(6, 0.3, 2000, 1, method="rejection")
        assert len(calls) > 2
        assert math.isnan(report.min_margin)
        assert report.violation_count == 1 and not report.ok

    def test_deterministic_records(self):
        a = verify_inclusion_sampling(N=6, epsilon=0.4, samples=5_000, seed=37)
        b = verify_inclusion_sampling(N=6, epsilon=0.4, samples=5_000, seed=37)
        assert a.to_record() == b.to_record()

    def test_rejection_members_match_cone_module(self):
        report = verify_inclusion_sampling(
            N=4, epsilon=0.7, samples=500, seed=41, method="rejection"
        )
        assert report.ok
        # Acceptance decisions agree with in_shifted_cone on fresh draws.
        p = epsilon_to_params(0.7, 4)
        rng = np.random.default_rng(43)
        rows = rng.normal(size=(2000, 4))
        from gardinglab.inclusion import _strict_member_mask

        mask = _strict_member_mask(rows, p, 1e-9)
        for i in range(0, 2000, 97):
            assert mask[i] == in_shifted_cone(rows[i], 2, p.shift_params).member_open


def _block(N: int) -> int:
    return max(1, _BLOCK_FLOATS // N)


def _assert_same_as_unblocked(N, eps, samples, seed, method):
    got = verify_inclusion_sampling(N, eps, samples, seed, method=method, keep_members=True)
    want = verify_inclusion_sampling_unblocked(
        N, eps, samples, seed, method=method, keep_members=True
    )
    assert got.to_record() == want.to_record()
    assert got.members.shape == want.members.shape
    assert got.members.tobytes() == want.members.tobytes()
    return got


class TestBlockedSampling:
    """Row blocks change no bit of a report or of its members."""

    @pytest.mark.parametrize("N", [*range(2, 131), 200, 400])
    def test_ball_matches_unblocked(self, N):
        # One member past a block and one short of it, narrow and wide.
        _assert_same_as_unblocked(N, 0.05, _block(N) + 1, N, "ball")
        _assert_same_as_unblocked(N, 0.9, max(1, _block(N) - 1), N + 1, "ball")

    @pytest.mark.parametrize(
        "N", [2, 3, 4, 5, 6, 7, 10, 18, 28, 45, 60, 64, 99, 100, 101, 127, 128, 129, 130, 200, 400]
    )
    def test_rejection_matches_unblocked(self, N):
        _assert_same_as_unblocked(N, 0.9, _block(N) + 1, N, "rejection")

    @pytest.mark.parametrize("method", ["ball", "rejection"])
    @pytest.mark.parametrize("N", [3, 45, 100])
    def test_sample_counts_around_a_block(self, N, method):
        for samples in (1, _block(N) - 1, _block(N), _block(N) + 1, 2 * _block(N)):
            _assert_same_as_unblocked(N, 0.9, samples, samples, method)

    @pytest.mark.parametrize("block_floats", [_BLOCK_FLOATS, 8])
    @pytest.mark.parametrize("N", [2, 3, 7, 8, 45, 130, 400])
    @pytest.mark.parametrize("samples", [1, 2])
    def test_one_and_two_draw_batches_match_unblocked(self, monkeypatch, N, samples, block_floats):
        # numpy sums a single column pairwise and two or more row by row; a
        # small block splits the squares of a batch into many chunks.
        monkeypatch.setattr(inclusion_mod, "_BLOCK_FLOATS", block_floats)
        for seed in range(5):
            report = _assert_same_as_unblocked(N, 0.5, samples, seed, "ball")
            assert report.draws == samples

    @pytest.mark.parametrize("block_floats", [_BLOCK_FLOATS, 1024])
    def test_second_ball_batch_matches_unblocked(self, monkeypatch, block_floats):
        monkeypatch.setattr(inclusion_mod, "_BLOCK_FLOATS", block_floats)
        report = _assert_same_as_unblocked(100, 0.2, 5000, 3, "ball")
        assert report.draws == 5010 and report.ok

    @pytest.mark.parametrize("N, eps, samples", [(3, 0.2, 5000), (6, 0.3, 2000), (60, 0.5, 1000)])
    def test_multi_batch_rejection_matches_unblocked(self, N, eps, samples):
        report = _assert_same_as_unblocked(N, eps, samples, 17, "rejection")
        assert report.draws > max(10_000, 4 * samples) and report.ok

    def test_violation_cap_and_order_hold_across_blocks(self, monkeypatch):
        real = inclusion_mod.positivity_margins_batch

        def flag_some(rows, m):
            # About 0.5% of rows, picked by a digit of their first entry, so
            # both samplers flag the same rows wherever the blocks fall.
            margins = real(rows, m)
            return np.where((rows[:, 0] * 1e9) % 1.0 < 0.005, -margins, margins)

        monkeypatch.setattr(inclusion_mod, "positivity_margins_batch", flag_some)
        N = 100
        report = _assert_same_as_unblocked(N, 0.2, 5000, 3, "ball")
        assert report.violation_count > 10 and len(report.violations) == 10
        flagged = np.flatnonzero((report.members[:, 0] * 1e9) % 1.0 < 0.005)
        assert flagged.size == report.violation_count
        assert [v["vector"] for v in report.violations] == report.members[flagged[:10]].tolist()
        assert flagged[9] >= 2 * _block(N)

    @pytest.mark.parametrize(
        "method, eps, batch_rows, batches", [("ball", 0.2, 5000, 2.25), ("rejection", 0.9, 20_000, 1.25)]
    )
    def test_peak_memory_stays_near_the_draw(self, method, eps, batch_rows, batches):
        # The ball draw holds one (102, 5000) array at its peak and the
        # rejection draw one (20000, 100) array; full-batch temporaries of
        # the membership and margin passes would add several more.
        N = 100
        verify_inclusion_sampling(N, eps, 5000, 3, method=method)
        tracemalloc.start()
        try:
            verify_inclusion_sampling(N, eps, 5000, 3, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < batches * batch_rows * N * 8

    def test_ball_peak_memory_is_one_batch(self):
        # The normals are the one batch-sized array: no batch-sized square
        # or transposed copy sits beside them (1.87 batches before).
        N = 400
        verify_inclusion_sampling(N, 0.5, 2000, 5)
        tracemalloc.start()
        try:
            report = verify_inclusion_sampling(N, 0.5, 2000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (N + 2) * report.draws * 8

    @pytest.mark.parametrize("method", ["ball", "rejection"])
    def test_batches_are_bounded_by_floats_not_rows(self, monkeypatch, method):
        # At N = 2000 the ball route rejects most of its own points (their
        # sigma_2 margin falls below tol), so its batches double, and a
        # rejection batch is at least 10 000 rows; a row cap let either grow
        # without a bound on memory.
        N, budget = 2000, 1_000_000
        monkeypatch.setattr(inclusion_mod, "_BATCH_FLOATS", budget)
        monkeypatch.setattr(inclusion_mod, "_DRAW_CAP", 5000)
        sizes = []
        if method == "ball":
            real = inclusion_mod._ball_slice_rows

            def recording(rng, size, n, radius):
                sizes.append(size * (n + 2))
                return real(rng, size, n, radius)

            monkeypatch.setattr(inclusion_mod, "_ball_slice_rows", recording)
        tracemalloc.start()
        try:
            report = verify_inclusion_sampling(N, 0.5, 20, 7, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        if method == "ball":
            assert max(sizes) == budget // (N + 2) * (N + 2)
        assert peak <= 1.25 * budget * 8


class TestBoundarySearch:
    def test_integer_target_recovers_rigid_minimizer(self):
        eps = epsilon_for_target_m(2, 4)
        report = boundary_search(N=4, epsilon=eps)
        assert -1e-8 <= report.min_c0 <= 1e-6
        assert report.converged and report.matched_rigid
        np.testing.assert_allclose(
            report.minimizer, [0, 0, 0.5, 0.5], atol=1e-6
        )

    def test_noninteger_target_minimum_is_positive(self):
        eps = epsilon_for_target_m(2.5, 5)
        report = boundary_search(N=5, epsilon=eps)
        oracle = boundary_min_by_projection(5, eps)
        assert report.min_c0 == pytest.approx(oracle, abs=1e-9)
        assert report.min_c0 > 0
        assert report.matched_rigid is None

    def test_small_dimension(self):
        report = boundary_search(N=2, epsilon=0.5)
        assert report.min_c0 >= -1e-8

    def test_matches_projection_oracle_across_eps(self):
        rng = np.random.default_rng(11)
        cases = [(int(rng.integers(3, 8)), float(rng.uniform(0.1, 0.9))) for _ in range(6)]
        cases += [
            (2, 0.3),
            (2, 0.95),
            (9, epsilon_for_target_m(3, 9)),
            (9, epsilon_for_target_m(3.5, 9)),
            (2000, 0.01),
            (2000, epsilon_for_target_m(40, 2000)),
        ]
        for n, eps in cases:
            report = boundary_search(N=n, epsilon=eps)
            oracle = boundary_min_by_projection(n, eps)
            assert report.min_c0 == pytest.approx(oracle, abs=1e-8)
            v = np.array(report.minimizer)
            assert np.all(np.diff(v) >= 0.0)
            assert abs(v.sum() - 1.0) <= 1e-12
            p = epsilon_to_params(eps, n)
            assert in_shifted_cone(v, 2, p.shift_params).member_closed
            assert report.converged and report.ok
            again = boundary_search(N=n, epsilon=eps).to_record()
            assert json.dumps(again).encode() == json.dumps(report.to_record()).encode()

    @pytest.mark.parametrize("n", [3, 4, 10, 45, 100])
    def test_converged_at_every_resolvable_small_eps(self, n):
        # Tested on v* - alpha_eps * sum(v*) as formed, 1/N - alpha_eps
        # cancelled: at N = 45 the minimizer's sigma_2 margin read -1.4e-9
        # at eps = 1e-10, so converged was False for an accepted eps.
        accepted = 0
        for eps in np.geomspace(5e-17, 1e-10, 64):
            try:
                report = boundary_search(n, float(eps))
            except ValueError:
                continue
            accepted += 1
            assert report.converged and report.ok, (n, eps)
        assert accepted >= 55

    @pytest.mark.parametrize("n, eps", [(4, 0.5), (10, 0.3), (45, 1e-10), (100, 1e-3)])
    def test_membership_check_still_bites(self, n, eps, monkeypatch):
        # A minimizer pushed out of the ball by a relative 1e-3 leaves the
        # cone; the closed form moves with it, so only membership can fail.
        assert boundary_search(n, eps).converged
        radius = EpsilonParams.slice_radius.fget
        monkeypatch.setattr(
            EpsilonParams, "slice_radius", property(lambda p: 1.001 * radius(p))
        )
        report = boundary_search(n, eps)
        assert report.min_c0 == pytest.approx(
            boundary_minimum_closed_form(epsilon_to_params(eps, n)), abs=1e-12
        )
        assert not report.converged and not report.ok

    def test_deterministic(self):
        a = boundary_search(N=4, epsilon=0.5)
        b = boundary_search(N=4, epsilon=0.5)
        assert a.to_record() == b.to_record()

    def test_certified_refinement_replaces_noisy_iterate(self):
        # The subgradient iterate can undercut the exact refined point by
        # float noise; the certified refinement must still win.
        result = boundary_search_by_subgradient(40, epsilon_for_target_m(7, 40), seed=2)
        pattern = np.zeros(40)
        pattern[7:] = 1.0 / 33
        assert result.converged
        assert np.max(np.abs(result.minimizer - pattern)) <= 1e-15

    def test_stops_once_certified(self):
        eps = epsilon_for_target_m(7, 40)
        result = boundary_search_by_subgradient(40, eps, seed=2)
        assert result.iterations_used <= 50 < 10_000
        for cap in (1, 5, 15):
            capped = boundary_search_by_subgradient(40, eps, seed=2, iterations=cap)
            assert capped.iterations_used == cap
        with pytest.raises(ValueError):
            boundary_search_by_subgradient(4, 0.5, iterations=0)


class TestUnresolvableEpsilon:
    # Below about 5.6e-17 the shift (1 - eps)/N rounds to 1/N: the sampler
    # then found no member before its 1e8-draw cap (about 30 s at N = 4), and
    # below about 1e-162 m_eps underflows to 0 and the boundary search
    # divided by a zero norm.
    @pytest.mark.parametrize(
        "N, eps",
        [(2, 5e-17), (4, 5e-17), (4, 1e-20), (4, 1e-300), (10, 1e-160), (45, 1e-100)],
    )
    def test_rejected_up_front_naming_eps(self, N, eps):
        message = f"epsilon {eps!r} is too small"
        with pytest.raises(ValueError, match=message):
            verify_inclusion_sampling(N, eps, samples=100, seed=0)
        with pytest.raises(ValueError, match=message):
            boundary_search(N, eps)

    @pytest.mark.parametrize("N, eps", [(2, 1e-16), (3, 1.7e-16), (4, 1e-16), (10, 1e-16)])
    def test_smallest_resolvable_eps_still_runs(self, N, eps):
        assert verify_inclusion_sampling(N, eps, samples=100, seed=0).ok
        assert boundary_search(N, eps).ok
