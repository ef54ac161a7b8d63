"""Elementary symmetric polynomials and partial sums against enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gardinglab import symfun
from gardinglab.symfun import (
    _FLOAT_ENTRIES,
    _as_floats,
    _degree_factors,
    _fsum,
    _vector_entries,
    as_array,
    elementary_symmetric,
    normalized_partial_sum,
    partial_sum_batch,
    partial_sum_fractional,
    partial_sum_weights,
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

    @pytest.mark.parametrize(
        "v, k",
        [
            ([1e308, 1e308], 2),
            ([1e154] * 10, 2),
            ([1e308, 1e308, -1e308], 1),  # sigma_1 is finite, its running sum is not
            (np.array([1e153] * 100), 2),
            (np.array([1e308, 1e308, -1e308] + [0.0] * _FLOAT_ENTRIES), 1),
        ],
        ids=["floats-2", "floats-10", "floats-running-sum", "array-100", "array-running-sum"],
    )
    def test_overflow_is_refused_by_name(self, v, k):
        # On Python floats and on an array (past _FLOAT_ENTRIES): no inf
        # returned and no RuntimeWarning from numpy.
        assert isinstance(_vector_entries(v, k), list) is isinstance(v, list)
        message = f"the sigma_{k} recurrence overflows the float range"
        with pytest.raises(ValueError, match=f"^{message}$"):
            elementary_symmetric(v, k)

    def test_single_row_matches_vector_loop(self):
        # Both degree-major single-row kernels, on an array and on Python
        # floats, do the same float operations as the row-major loop, so the
        # results agree bit for bit, signed zeros included: the loop never
        # returns -0.0.
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 41))
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            v[rng.random(n) < 0.2] = 0.0
            v[rng.random(n) < 0.2] = -0.0
            for k in sorted({1, min(2, n), n, int(rng.integers(1, n + 1))}):
                for means, x in itertools.product((False, True), (v, v.tolist())):
                    got = np.asarray(sigma_prefix(x, k, _means=means))
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
    # sigma_2 = ((sum v)^2 - sum v^2) / 2, a route independent of the recurrence.
    @staticmethod
    def _power_sums(v):
        v = np.asarray(v, dtype=float)
        return (math.fsum(v) ** 2 - math.fsum(v * v)) / 2.0

    @pytest.mark.parametrize(
        "vec,expected",
        [
            ((1, 2, 3), 11.0),
            ((0, 0, 1, 1), 1.0),
            ((-1, 1, 2), -1.0),
        ],
    )
    def test_small_cases(self, vec, expected):
        assert elementary_symmetric(vec, 2) == pytest.approx(expected)
        assert self._power_sums(vec) == pytest.approx(expected)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_constant_vector(self, n):
        c = 1.7
        want = c * c * n * (n - 1) / 2
        assert elementary_symmetric([c] * n, 2) == pytest.approx(want, rel=1e-13)
        assert self._power_sums([c] * n) == pytest.approx(want, rel=1e-13)

    def test_needs_two_entries(self):
        with pytest.raises(ValueError, match="^k must satisfy 1 <= k <= 1, got 2$"):
            elementary_symmetric([1.0], 2)

    def test_agrees_with_recurrence(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n = int(rng.integers(2, 65))
            v = rng.normal(size=n)
            a = self._power_sums(v)
            b = elementary_symmetric(v, 2)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


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
            want = float(sum(map(Fraction, v[:fl].tolist())))
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

    def test_float_sigma_matches_array_loop_and_batch_row(self):
        # The list kernel against the numpy single-row loop and one row of
        # the batch loop, on both sides of the length at which the cone
        # tests switch from one to the other.
        rng = np.random.default_rng(71)
        for n, v in _oracle_vectors(73):
            unit = v / (math.hypot(*v.tolist()) or 1.0)
            if n <= 40:
                ks, xs = range(1, n + 1), (v, unit)
            else:
                ks = sorted({1, 2, int(rng.integers(3, n + 1)), n if n % 20 == 0 else 2})
                xs = (v if n % 2 else unit,)
            assert isinstance(_vector_entries(v, 1), list) == (n <= _FLOAT_ENTRIES)
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                for x, means in itertools.product(xs, (False, True)):
                    # Batch column j is sigma_{j+1} whatever k, so one row serves every k.
                    row = sigma_prefix_batch(x[None, :], max(ks), _means=means)[0]
                    for k in ks:
                        got = sigma_prefix(x.tolist(), k, _means=means)
                        assert isinstance(got, list) and len(got) == k
                        assert _bits(got) == _bits(sigma_prefix(x, k, _means=means)), (n, k)
                        assert _bits(got) == _bits(row[:k]), (n, k, means)
                        assert not any(math.copysign(1.0, t) < 0 for t in got if t == 0.0)

    @pytest.mark.parametrize("n", [*range(0, 301), 1000, 4097])
    def test_fsum_is_the_exactly_rounded_sum(self, n):
        rng = np.random.default_rng(n)
        magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, size=n)
        cases = [
            np.zeros(n),
            -np.zeros(n),
            rng.normal(size=n),
            rng.normal(size=n) * magnitudes,
            np.where(rng.random(n) < 0.5, -0.0, 0.0),
        ]
        mixed = rng.normal(size=n) * 10.0 ** rng.uniform(-20.0, 20.0, size=n)
        mixed[rng.random(n) < 0.2] = 0.0
        mixed[rng.random(n) < 0.2] = -0.0
        cases.append(mixed)
        for x in cases:
            got = _fsum(x.tolist(), "sum")
            assert type(got) is float
            # A sum of zeros alone, -0.0 included, is +0.0, as numpy's is.
            assert _bits(got) == _bits(float(sum(map(Fraction, x.tolist())))), n

    def test_fsum_of_negative_zeros_and_past_the_float_range(self):
        assert _bits(_fsum([-0.0, -0.0], "sum")) == _bits(0.0)
        # Only a partial sum overflows: the exact sum is rounded.
        assert _fsum([1e308, 1e308, -1e308], "sum") == 1e308
        with pytest.raises(ValueError, match="^the entry sum overflows the float range$"):
            _fsum([1e308, 1e308, -1e307], "entry sum")
        with pytest.raises(ValueError, match="^the square sum overflows the float range$"):
            _fsum([1.0, math.inf], "square sum")

    def test_partial_sum_of_a_float_list_matches_its_array(self):
        rng = np.random.default_rng(79)
        for n, v in _oracle_vectors(83):
            sorted_v = np.sort(v)
            ms = {float(n), 1.0, float(rng.integers(1, n + 1)), float(rng.uniform(0.01, n))}
            with np.errstate(over="ignore", invalid="ignore"):
                for m in sorted(ms):
                    got = partial_sum_batch(sorted(v.tolist()), m)
                    assert type(got) is float
                    assert _bits(got) == _bits(partial_sum_batch(sorted_v, m)), (n, m)

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

    def test_partial_sum_of_a_vector_is_near_its_batch_row(self):
        # A batch row is the row of a (1, N) batch bit for bit; a vector is
        # its correctly rounded sum, within N * eps * sum|x| of the row.
        rng = np.random.default_rng(47)
        eps = np.finfo(float).eps
        for n, v in _oracle_vectors(53):
            sorted_v = np.sort(v)
            batch = np.stack([sorted_v, np.sort(rng.normal(size=n)), sorted_v[::-1].copy()])
            ms = {float(n), 1.0, float(rng.integers(1, n + 1)), float(rng.uniform(0.01, n))}
            bound = n * eps * math.fsum(map(abs, sorted_v.tolist()))
            for m in sorted(ms):
                rows = partial_sum_batch(batch, m)
                for row, got in zip(batch, rows):
                    assert _bits(got) == _bits(partial_sum_as_batch_row(row, m)), (n, m)
                got = partial_sum_batch(sorted_v, m)
                assert type(got) is float
                assert abs(got - rows[0]) <= bound, (n, m)
                assert _bits(partial_sum_fractional(sorted_v, m)) == _bits(got)

    def test_partial_sum_reduces_the_last_axis(self):
        rows = np.sort(np.random.default_rng(59).normal(size=(3, 4, 9)), axis=-1)
        got = partial_sum_batch(rows, 4.5)
        assert got.shape == (3, 4)
        assert _bits(got) == _bits([partial_sum_batch(block, 4.5) for block in rows])
        vectors = [[partial_sum_batch(r, 4.5) for r in block] for block in rows]
        assert np.abs(got - vectors).max() <= 9 * np.finfo(float).eps * np.abs(rows).sum()
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
        for means, entries in itertools.product((False, True), (x, x.tolist())):
            first = sigma_prefix(entries, 12, _means=means)
            batch = sigma_prefix_batch(rows, 12, _means=means)
            want, want_batch = np.array(first), batch.copy()
            np.asarray(first)[:] = 7.0
            first[:] = [7.0] * 12
            batch[:] = 7.0
            assert _bits(sigma_prefix(entries, 12, _means=means)) == _bits(want)
            assert _bits(sigma_prefix_batch(rows, 12, _means=means)) == _bits(want_batch)
        sums = partial_sum_batch(np.sort(rows, axis=1), 5.5)
        want = sums.copy()
        sums[:] = 7.0
        assert _bits(partial_sum_batch(np.sort(rows, axis=1), 5.5)) == _bits(want)


_INVALID_VECTORS = {
    "2d_array": np.ones((2, 3)),
    "empty": [],
    "non_finite": [1.0, math.inf],
    "nan_in_array": np.array([1.0, math.nan, 2.0]),
    "nested_list": [[1.0, 2.0]],
    "ragged_list": [[1.0], [2.0, 3.0]],
    "numeric_string": "12.5",
    "word_entry": [1.0, "x"],
    "scalar": 3.0,
}


class TestVectorTypes:
    @pytest.mark.parametrize("name", sorted(_INVALID_VECTORS))
    def test_float_and_array_validation_raise_alike(self, name):
        bad = _INVALID_VECTORS[name]
        errors = []
        for validate in (as_array, _as_floats):
            with pytest.raises((ValueError, TypeError)) as info:
                validate(bad)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    def test_as_floats_reads_sequences_and_arrays(self):
        for v in ([1, 2, 3], (1, 2.5, -0.0), np.array([1, 2, 3]), np.array([0.5, -0.0])):
            x = _as_floats(v)
            assert all(type(t) is float for t in x)
            assert _bits(x) == _bits(as_array(v))

    def test_vector_entries_switch_on_length(self, monkeypatch):
        short, long = [1.0] * _FLOAT_ENTRIES, [1.0] * (_FLOAT_ENTRIES + 1)
        assert isinstance(_vector_entries(short, 1), list)
        assert isinstance(_vector_entries(np.array(short), 1), list)
        assert isinstance(_vector_entries(long, 1), np.ndarray)
        monkeypatch.setattr(symfun, "_FLOAT_ENTRIES", 0)
        assert isinstance(_vector_entries(short, 1), np.ndarray)

    def test_as_array_validation(self):
        for bad in ([], [1.0, math.inf], [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                as_array(bad)
        x = as_array([1, 2, 3])
        assert x.dtype == np.float64 and x.tolist() == [1.0, 2.0, 3.0]
