"""Elementary symmetric polynomials and partial sums against enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gardinglab.symfun import (
    as_array,
    elementary_symmetric,
    normalized_partial_sum,
    partial_sum_fractional,
    partial_sum_weights,
    sigma2_via_power_sums,
    sigma_prefix,
    sigma_prefix_batch,
)

from oracles import sigma_prefix_row_major, sigma_subsets


class TestElementarySymmetric:
    @pytest.mark.parametrize(
        "vec,k,expected",
        [
            ((1, 2, 3), 2, 11.0),
            ((1, 1, 1), 3, 1.0),
            ((0, 1, 2), 1, 3.0),
        ],
    )
    def test_small_cases(self, vec, k, expected):
        assert elementary_symmetric(vec, k) == expected

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            v = rng.normal(size=n) * rng.uniform(0.1, 5.0)
            for k in range(1, n + 1):
                got = elementary_symmetric(v, k)
                want = sigma_subsets(v, k)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_exact_for_integer_inputs(self):
        v = [3, -1, 4, 1, -5, 9, 2, 6]
        for k in range(1, 9):
            assert elementary_symmetric(v, k) == sigma_subsets(v, k)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=10)
        base = [elementary_symmetric(v, k) for k in range(1, 11)]
        for _ in range(25):
            perm = rng.permutation(10)
            for k in range(1, 11):
                assert elementary_symmetric(v[perm], k) == pytest.approx(
                    base[k - 1], rel=1e-12, abs=1e-14
                )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=10),
        st.floats(0.01, 10.0),
    )
    def test_homogeneity(self, entries, t):
        v = np.array(entries)
        for k in range(1, v.size + 1):
            scaled = elementary_symmetric(t * v, k)
            ref = t**k * elementary_symmetric(v, k)
            # Tolerance relative to the cancellation-free magnitude, not the
            # (possibly cancelled) value itself.
            scale = 1.0 + t**k * elementary_symmetric(np.abs(v), k)
            assert abs(scaled - ref) <= 1e-10 * scale

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            elementary_symmetric([1, 2], 0)
        with pytest.raises(ValueError):
            elementary_symmetric([1, 2], 3)
        with pytest.raises(ValueError):
            elementary_symmetric([1.0, float("nan")], 1)

    def test_single_row_matches_vector_loop(self):
        # The degree-major single-row kernel does the same float operations
        # as the row-major loop, so the results agree bit for bit, signed
        # zeros included: the loop never returns -0.0.
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 41))
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            v[rng.random(n) < 0.2] = 0.0
            v[rng.random(n) < 0.2] = -0.0
            for k in sorted({1, min(2, n), n, int(rng.integers(1, n + 1))}):
                for means in (False, True):
                    got = sigma_prefix(v, k, _means=means)
                    want = sigma_prefix_row_major(v[None, :], k, means)[0]
                    assert np.array_equal(got, want)
                    assert not np.signbit(got[got == 0.0]).any()

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        n = 9
        for b in (1, 40, 4000):
            rows = rng.normal(size=(b, n)) * 10.0 ** rng.uniform(-3, 3, size=(b, 1))
            rows[rng.random((b, n)) < 0.1] = 0.0
            rows[rng.random((b, n)) < 0.1] = -0.0
            for k, means in itertools.product((1, 2, 3, n), (False, True)):
                batch = sigma_prefix_batch(rows, k, _means=means)
                assert batch.shape == (b, k)
                assert np.array_equal(batch, sigma_prefix_row_major(rows, k, means))
                assert np.array_equal(
                    batch, [sigma_prefix(row, k, _means=means) for row in rows]
                )


class TestSigma2PowerSums:
    @pytest.mark.parametrize(
        "vec,expected",
        [
            ((1, 2, 3), 11.0),
            ((0, 0, 1, 1), 1.0),
        ],
    )
    def test_small_cases(self, vec, expected):
        assert sigma2_via_power_sums(vec) == pytest.approx(expected)

    def test_constant_vector(self):
        for n in (2, 5, 9):
            c = 1.7
            assert sigma2_via_power_sums([c] * n) == pytest.approx(
                c * c * n * (n - 1) / 2, rel=1e-13
            )

    def test_agrees_with_recurrence(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n = int(rng.integers(2, 65))
            v = rng.normal(size=n)
            a = sigma2_via_power_sums(v)
            b = elementary_symmetric(v, 2)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            sigma2_via_power_sums([1.0])


class TestPartialSums:
    @pytest.mark.parametrize(
        "vec,m,expected",
        [
            ((-1, 1, 1), 1.5, -0.5),
            ((0, 0, 1, 1), 2, 0.0),
            ((1, 2, 3), 3, 6.0),
        ],
    )
    def test_small_cases(self, vec, m, expected):
        assert partial_sum_fractional(vec, m) == pytest.approx(expected)

    def test_matches_head_plus_fraction(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(1, 41))
            v = np.sort(rng.normal(size=n))
            m = float(rng.choice([rng.uniform(0.01, n), rng.integers(1, n + 1)]))
            fl = math.floor(m)
            want = float(v[:fl].sum())
            if m != fl:
                want += (m - fl) * float(v[fl])
            assert partial_sum_fractional(v, m) == want

    def test_integer_m_never_reads_past_end(self):
        # m == N must not touch an (N+1)-th entry.
        assert partial_sum_fractional((1.0, 2.0), 2) == 3.0

    def test_sub_one_m(self):
        # Small positivity indices weight the single smallest entry.
        assert partial_sum_fractional((2.0, 3.0, 4.0), 0.25) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "vec,m,expected",
        [
            ((1, 2), 1, 1.0),
            ((1, 2), 2, 1.5),
            ((0, 0, 1, 1), 3, 1 / 3),
        ],
    )
    def test_normalized(self, vec, m, expected):
        assert normalized_partial_sum(vec, m) == pytest.approx(expected)

    def test_normalized_monotone_in_m(self):
        rng = np.random.default_rng(23)
        for _ in range(3000):
            n = int(rng.integers(2, 33))
            v = np.sort(rng.normal(size=n))
            m1, m2 = np.sort(rng.uniform(1.0, n, size=2))
            assert normalized_partial_sum(v, m1) <= normalized_partial_sum(v, m2) + 1e-12

    def test_weights_match_partial_sum(self):
        rng = np.random.default_rng(29)
        rows = np.sort(rng.normal(size=(200, 9)), axis=1)
        ms = rng.uniform(0.05, 9.0, size=200)
        weights = partial_sum_weights(ms[:, None], 9)
        assert weights.shape == (200, 9)
        for row, m, w in zip(rows, ms, weights):
            assert np.array_equal(w, partial_sum_weights(m, 9))
            assert w @ row == pytest.approx(partial_sum_fractional(row, m), abs=1e-12)
        assert partial_sum_weights(2.25, 4).tolist() == [1.0, 1.0, 0.25, 0.0]
        assert partial_sum_weights(4.0, 4).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_requires_sorted_input(self):
        with pytest.raises(ValueError):
            partial_sum_fractional((3.0, 1.0), 1.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            partial_sum_fractional((1.0, 2.0), 0.0)
        with pytest.raises(ValueError):
            partial_sum_fractional((1.0, 2.0), 2.5)


class TestVectorTypes:
    def test_as_array_validation(self):
        for bad in ([], [1.0, math.inf], [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                as_array(bad)
        x = as_array([1, 2, 3])
        assert x.dtype == np.float64 and x.tolist() == [1.0, 2.0, 3.0]
