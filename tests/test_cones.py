"""Cone membership: margins, scaling, permutations, and nesting chains."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gardinglab import cones
from gardinglab.cones import (
    ShiftParams,
    in_garding_cone,
    in_positivity_cone,
    in_shifted_cone,
    nesting_check,
    shift,
)

from oracles import selection_sum_min


class TestShift:
    def test_shift_example(self):
        np.testing.assert_allclose(
            shift([1, 2, 3], ShiftParams(alpha=1 / 6, N=3)), [0.0, 1.0, 2.0]
        )

    def test_zero_alpha_is_identity(self):
        v = np.array([0.3, -1.2, 4.0])
        np.testing.assert_array_equal(shift(v, ShiftParams(alpha=0.0, N=3)), v)

    def test_boundary_witness_shift(self):
        alpha = (1 - 1 / math.sqrt(3)) / 4
        got = shift([0, 0, 1, 1], ShiftParams(alpha=alpha, N=4))
        np.testing.assert_allclose(got, np.array([0, 0, 1, 1]) - 2 * alpha)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shift([1, 2], ShiftParams(alpha=0.1, N=3))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ShiftParams(alpha=0.5, N=3)
        with pytest.raises(ValueError):
            ShiftParams(alpha=-0.01, N=3)


class TestGardingCone:
    def test_positive_orthant_is_member(self):
        assert in_garding_cone([1, 1, 1], 3).member_open

    def test_sign_pattern(self):
        # sigma_1 = 1 > 0 but sigma_2 = -5 < 0.
        assert in_garding_cone([-1, -1, 3], 1).member_open
        res = in_garding_cone([-1, -1, 3], 2)
        assert not res.member_open and not res.member_closed
        assert res.binding_constraint == "sigma_2"

    def test_zero_vector_closed_only(self):
        for k in (1, 2, 3):
            res = in_garding_cone([0.0, 0.0, 0.0], k)
            assert res.member_closed and not res.member_open
            assert res.margin == 0.0

    def test_open_implies_closed(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            v = rng.normal(size=6)
            res = in_garding_cone(v, int(rng.integers(1, 7)))
            if res.member_open:
                assert res.member_closed

    def test_k_range(self):
        with pytest.raises(ValueError):
            in_garding_cone([1, 2], 3)


class TestShiftedCone:
    def test_round_sphere_spectrum(self):
        for alpha in (0.0, 0.05, 1 / 6 - 1e-9):
            res = in_shifted_cone(np.ones(6), 2, ShiftParams(alpha=alpha, N=6))
            assert res.member_open

    def test_boundary_witness(self):
        alpha = (1 - 1 / math.sqrt(3)) / 4
        res = in_shifted_cone([0, 0, 1, 1], 2, ShiftParams(alpha=alpha, N=4))
        assert res.member_closed and not res.member_open

    def test_zero_vector(self):
        res = in_shifted_cone([0.0] * 4, 2, ShiftParams(alpha=0.1, N=4))
        assert res.member_closed and not res.member_open

    def test_equals_garding_of_shift(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            v = rng.normal(size=5)
            p = ShiftParams(alpha=float(rng.uniform(0, 0.2)), N=5)
            a = in_shifted_cone(v, 2, p)
            b = in_garding_cone(shift(v, p), 2)
            assert (a.member_open, a.member_closed, a.margin) == (
                b.member_open,
                b.member_closed,
                b.margin,
            )


class TestPositivityCone:
    def test_examples(self):
        assert not in_positivity_cone([-1, 1, 1], 1.5).member_open
        assert in_positivity_cone([0, 0, 1, 1], 4).member_open
        res = in_positivity_cone([0, 0, 0, 0, 1, 1], 4)
        assert res.member_closed and not res.member_open

    def test_binding_selection_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            v = rng.normal(size=n)
            m = float(rng.uniform(1.0, n))
            res = in_positivity_cone(v, m)
            want = selection_sum_min(v, m) / (m * np.linalg.norm(v))
            assert res.margin == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_p1_is_positive_orthant(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            v = rng.normal(size=5)
            assert in_positivity_cone(v, 1, tol=0.0).member_open == bool(v.min() > 0)

    def test_pn_is_halfspace(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            v = rng.normal(size=5)
            assert in_positivity_cone(v, 5, tol=0.0).member_open == bool(v.sum() > 0)

    def test_triple_example(self):
        # In P_3 (sum 1 > 0) but not P_2 (worst pair sums to -2).
        v = [3, -1, -1]
        assert in_positivity_cone(v, 3).member_open
        assert not in_positivity_cone(v, 2).member_closed

    def test_monotone_in_m(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            v = rng.normal(size=6)
            m1, m2 = np.sort(rng.uniform(1.0, 6.0, size=2))
            if in_positivity_cone(v, m1).member_open:
                assert in_positivity_cone(v, m2).member_open


class TestScaleAndPermutationInvariance:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=8),
        st.floats(0.01, 100.0),
    )
    def test_scaling(self, entries, t):
        v = np.array(entries)
        if np.linalg.norm(v) == 0:
            return
        k = max(1, len(entries) // 2)
        a = in_garding_cone(v, k)
        b = in_garding_cone(t * v, k)
        assert (a.member_open, a.member_closed) == (b.member_open, b.member_closed)
        pa = in_positivity_cone(v, 1.5)
        pb = in_positivity_cone(t * v, 1.5)
        assert (pa.member_open, pa.member_closed) == (pb.member_open, pb.member_closed)

    def test_scaling_bulk(self):
        rng = np.random.default_rng(47)
        for _ in range(10_000):
            n = int(rng.integers(2, 9))
            v = rng.normal(size=n)
            t = float(rng.uniform(1e-3, 1e3))
            k = int(rng.integers(1, n + 1))
            a = in_garding_cone(v, k)
            b = in_garding_cone(t * v, k)
            assert (a.member_open, a.member_closed) == (b.member_open, b.member_closed)

    def test_permutation(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            v = rng.normal(size=7)
            perm = rng.permutation(7)
            for k in (1, 3, 7):
                assert in_garding_cone(v, k).margin == pytest.approx(
                    in_garding_cone(v[perm], k).margin, rel=1e-12, abs=1e-15
                )
            assert in_positivity_cone(v, 2.5).margin == pytest.approx(
                in_positivity_cone(v[perm], 2.5).margin, rel=1e-12, abs=1e-15
            )


class TestNesting:
    def test_chain_holds_on_samples(self):
        report = nesting_check(N=6, samples=10_000, seed=2024)
        assert report.ok
        assert bool(report)

    def test_garding_monotone_example(self):
        assert in_garding_cone([1, 1, 1], 3).member_open
        assert in_garding_cone([1, 1, 1], 2).member_open

    def test_empty_run_vacuous(self):
        assert nesting_check(N=4, samples=0, seed=1).ok

    def test_several_dimensions(self):
        for n in (2, 3, 5, 9):
            assert nesting_check(N=n, samples=2000, seed=n).ok

    def test_bad_args(self):
        with pytest.raises(ValueError):
            nesting_check(N=1, samples=10, seed=0)
        with pytest.raises(ValueError):
            nesting_check(N=3, samples=-1, seed=0)

    @pytest.mark.parametrize(
        "margin_fn",
        [
            "garding_margin_chain_batch",
            "_positivity_margins_varying_m",
            "positivity_margins_batch",
        ],
    )
    def test_nonfinite_margins_are_violations(self, monkeypatch, margin_fn):
        # A NaN margin compares False both ways, so without an explicit
        # finiteness check it would pass every implication.
        real = getattr(cones, margin_fn)

        def poisoned(rows, *args):
            out = real(rows, *args).copy()
            out[3] = np.nan
            return out

        monkeypatch.setattr(cones, margin_fn, poisoned)
        report = nesting_check(N=5, samples=200, seed=7)
        assert not report.ok
        vectors = {tuple(v["vector"]) for v in report.violations if "vector" in v}
        assert len(vectors) == 1

    def test_deterministic_for_fixed_seed(self):
        a = nesting_check(N=7, samples=500, seed=99)
        b = nesting_check(N=7, samples=500, seed=99)
        assert a.to_record() == b.to_record()
