"""Elementary symmetric polynomials and partial sums against enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gardinglab.symfun import (
    _degree_factors,
    as_array,
    elementary_symmetric,
    normalized_partial_sum,
    partial_sum_batch,
    partial_sum_fractional,
    partial_sum_weights,
    sigma2_via_power_sums,
    sigma_prefix,
    sigma_prefix_batch,
)

from oracles import (
    partial_sum_as_batch_row,
    sigma_prefix_row_major,
    sigma_prefix_with_fresh_factors,
    sigma_subsets,
)


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


def _oracle_vectors(seed):
    """(N, vector) for N = 1..400: scales 1e-300..1e300, about a fifth of
    the entries +0.0 and a fifth -0.0, and at every seventh N a row of
    zeros alone (-0.0 and +0.0 alternating)."""
    rng = np.random.default_rng(seed)
    for n in range(1, 401):
        v = rng.normal(size=n) * 10.0 ** rng.uniform(-300.0, 300.0)
        v[rng.random(n) < 0.2] = 0.0
        v[rng.random(n) < 0.2] = -0.0
        if n % 7 == 0:
            v = np.where(np.arange(n) % 2 == 0, -0.0, 0.0)
        yield n, v


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


class TestSingleVectorKernels:
    """The single-vector kernels against the forms they replaced, byte for byte."""

    def test_sigma_prefix_matches_fresh_factors(self):
        rng = np.random.default_rng(41)
        for n, v in _oracle_vectors(43):
            unit = v / (math.hypot(*v.tolist()) or 1.0)
            if n <= 40:
                ks, xs = range(1, n + 1), (v, unit)
            else:
                # Sampled degrees, the full chain at every 20th N, and the
                # raw and unit vectors on alternate N.
                ks = sorted({1, 2, int(rng.integers(3, n + 1)), n if n % 20 == 0 else 2})
                xs = (v if n % 2 else unit,)
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                for x, k, means in itertools.product(xs, ks, (False, True)):
                    got = sigma_prefix(x, k, _means=means)
                    want = sigma_prefix_with_fresh_factors(x, k, means)
                    assert _bits(got) == _bits(want), (n, k, means)

    def test_cached_factors_slice_to_fresh_factors(self):
        for n in range(1, 401):
            for k in sorted({1, n // 3 + 1, n}):
                fresh = np.arange(1, k + 1) / np.arange(n, n - k, -1)
                assert _bits(_degree_factors(n, True)[:k, 0]) == _bits(fresh)
            assert _bits(_degree_factors(n, False)) == _bits(np.ones(n))

    def test_partial_sum_of_a_vector_matches_its_batch_row(self):
        rng = np.random.default_rng(47)
        for n, v in _oracle_vectors(53):
            sorted_v = np.sort(v)
            batch = np.stack([sorted_v, np.sort(rng.normal(size=n)), sorted_v[::-1].copy()])
            ms = {float(n), 1.0, float(rng.integers(1, n + 1)), float(rng.uniform(0.01, n))}
            with np.errstate(over="ignore", invalid="ignore"):
                for m in sorted(ms):
                    got = partial_sum_batch(sorted_v, m)
                    assert np.ndim(got) == 0
                    assert _bits(got) == _bits(partial_sum_as_batch_row(sorted_v, m)), (n, m)
                    assert _bits(got) == _bits(partial_sum_batch(batch, m)[0])
                    assert _bits(partial_sum_fractional(sorted_v, m)) == _bits(got)

    def test_partial_sum_reduces_the_last_axis(self):
        rows = np.sort(np.random.default_rng(59).normal(size=(3, 4, 9)), axis=-1)
        got = partial_sum_batch(rows, 4.5)
        assert got.shape == (3, 4)
        assert _bits(got) == _bits([[partial_sum_batch(r, 4.5) for r in block] for block in rows])
        with pytest.raises(ValueError):
            partial_sum_batch(np.float64(1.0), 1.0)

    def test_factor_cache_is_bounded_and_read_only(self):
        assert _degree_factors.cache_info().maxsize is not None
        column = _degree_factors(12, True)
        assert _degree_factors(12, True) is column
        assert column.shape == (12, 1) and not column.flags.writeable
        with pytest.raises(ValueError):
            column[0, 0] = 2.0
        assert not _degree_factors(12, False).flags.writeable

    def test_mutating_a_result_leaves_later_calls_unchanged(self):
        x = np.random.default_rng(61).normal(size=12)
        rows = x[None, :]
        for means in (False, True):
            first = sigma_prefix(x, 12, _means=means)
            batch = sigma_prefix_batch(rows, 12, _means=means)
            want, want_batch = first.copy(), batch.copy()
            first[:] = 7.0
            batch[:] = 7.0
            assert _bits(sigma_prefix(x, 12, _means=means)) == _bits(want)
            assert _bits(sigma_prefix_batch(rows, 12, _means=means)) == _bits(want_batch)
        sums = partial_sum_batch(np.sort(rows, axis=1), 5.5)
        want = sums.copy()
        sums[:] = 7.0
        assert _bits(partial_sum_batch(np.sort(rows, axis=1), 5.5)) == _bits(want)


class TestVectorTypes:
    def test_as_array_validation(self):
        for bad in ([], [1.0, math.inf], [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                as_array(bad)
        x = as_array([1, 2, 3])
        assert x.dtype == np.float64 and x.tolist() == [1.0, 2.0, 3.0]
