"""Capped weighted sums against vertex enumeration, and the coefficients."""

import math

import numpy as np
import pytest

from gardinglab.weighted import (
    FormDegreeCoeffs,
    WeightBudget,
    anchored_lower_bound,
    budget_normalized_bound,
    bulk_positivity,
    form_degree_coeff,
    form_degree_positivity,
    positivity_at_level,
    refined_one_form_coeff,
    trace_free_count,
    weighted_inf,
    weighted_sup,
)

from oracles import random_admissible_weights, weighted_extremes_enum


def _budget(omega, total, n):
    return WeightBudget(Omega=omega, S=total, N=n)


class TestWeightedExtremes:
    @pytest.mark.parametrize(
        "spectrum,omega,total,expected",
        [
            ((0, 1, 2), 1.0, 2.0, 3.0),
            ((0, 1, 2), 1.0, 1.5, 2.5),
        ],
    )
    def test_sup_examples(self, spectrum, omega, total, expected):
        assert weighted_sup(spectrum, _budget(omega, total, 3)) == pytest.approx(expected)

    def test_constant_spectrum_everything_collapses(self):
        c = 0.7
        spec = (c,) * 5
        for total in (1.0, 2.5, 4.0, 5.0):
            b = _budget(1.0, total, 5)
            assert weighted_sup(spec, b) == pytest.approx(total * c)
            assert weighted_inf(spec, b) == pytest.approx(total * c)
            assert budget_normalized_bound(spec, b) == pytest.approx(total * c)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(61)
        for _ in range(400):
            n = int(rng.integers(2, 9))
            spec = np.sort(rng.normal(size=n) * rng.uniform(0.5, 3))
            omega = float(rng.uniform(0.2, 2.0))
            ratio = float(rng.choice(np.arange(2, 2 * n + 1) / 2.0))
            total = min(ratio * omega, n * omega)
            b = _budget(omega, total, n)
            lo, hi = weighted_extremes_enum(spec, omega, total)
            assert weighted_sup(spec, b) == pytest.approx(hi, rel=1e-9, abs=1e-9)
            assert weighted_inf(spec, b) == pytest.approx(lo, rel=1e-9, abs=1e-9)

    def test_dominates_random_admissible_sums(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            spec = np.sort(rng.normal(size=n))
            omega = 1.0
            total = float(rng.uniform(1.0, 0.6 * n))
            b = _budget(omega, total, n)
            sup = weighted_sup(spec, b)
            inf = weighted_inf(spec, b)
            for w in random_admissible_weights(rng, n, omega, total, 50):
                value = float(w @ spec)
                assert inf - 1e-9 <= value <= sup + 1e-9

    def test_infeasible_budget(self):
        with pytest.raises(ValueError):
            _budget(1.0, 4.0, 3)

    def test_an_infinite_cap_is_refused_by_name(self):
        # Unrefused, it made every weighted sum fail later, naming a product.
        with pytest.raises(ValueError, match="^Omega must be finite, got inf$"):
            _budget(math.inf, 1.0, 3)
        for omega in (math.nan, 0.0, -math.inf):
            with pytest.raises(ValueError, match=f"^Omega must be positive, got {omega}$"):
                _budget(omega, 1.0, 3)

    def test_sums_past_float_max_are_refused_by_name(self):
        spec, b = [1e308] * 3, _budget(1.0, 2.0, 3)
        for fn in (weighted_sup, weighted_inf):
            with pytest.raises(ValueError, match="^the sum of the capped entries overflows"):
                fn(spec, b)
        with pytest.raises(ValueError, match="^the sum of the first m entries overflows"):
            anchored_lower_bound(spec, b, 2)
        with pytest.raises(ValueError, match="^the partial sum overflows"):
            budget_normalized_bound(spec, b)
        # Only a partial sum overflows: the exact sum is rounded.
        assert weighted_sup([-1e308, 1e308, 1e308], _budget(1.0, 3.0, 3)) == 1e308

    def test_products_past_float_max_are_refused_by_name(self):
        # Each sum fits; Omega times it, or the weighted sum, does not.
        spec, b = [1e308] * 3, _budget(2.0, 2.0, 3)
        for fn in (weighted_sup, weighted_inf):
            with pytest.raises(
                ValueError, match="^the sum of the capped entries times Omega overflows the float range$"
            ):
                fn(spec, b)
            with pytest.raises(ValueError, match="^the weighted sum overflows the float range$"):
                fn(spec, _budget(1.5, 2.0, 3))
        with pytest.raises(
            ValueError, match="^the sum of the first m entries times Omega overflows the float range$"
        ):
            anchored_lower_bound(spec, b, 1)
        with pytest.raises(ValueError, match="^the anchored bound overflows the float range$"):
            anchored_lower_bound(spec, _budget(1.0, 3.0, 3), 1)

    def test_full_budget(self):
        spec = (0.0, 1.0, 2.0)
        b = _budget(1.0, 3.0, 3)
        assert weighted_sup(spec, b) == pytest.approx(3.0)
        assert weighted_inf(spec, b) == pytest.approx(3.0)


class TestAnchoredLowerBound:
    @pytest.mark.parametrize(
        "spectrum,omega,total,m,expected",
        [
            ((0, 1, 2), 1.0, 2.0, 2, 1.0),
            ((0, 0, 1, 1), 1.0, 3.0, 3, 1.0),
        ],
    )
    def test_examples(self, spectrum, omega, total, m, expected):
        n = len(spectrum)
        bound = anchored_lower_bound(spectrum, _budget(omega, total, n), m)
        assert bound == pytest.approx(expected)
        assert weighted_sup(spectrum, _budget(omega, total, n)) >= bound - 1e-12

    def test_tight_on_constant_spectrum(self):
        spec = (0.4,) * 6
        b = _budget(1.0, 4.0, 6)
        for m in range(1, 6):
            assert anchored_lower_bound(spec, b, m) == pytest.approx(4.0 * 0.4)

    def test_below_infimum_for_every_m(self):
        rng = np.random.default_rng(71)
        for _ in range(10_000):
            n = int(rng.integers(2, 10))
            spec = np.sort(rng.normal(size=n))
            omega = float(rng.uniform(0.3, 2.0))
            total = float(rng.uniform(omega, n * omega))
            b = _budget(omega, total, n)
            inf = weighted_inf(spec, b)
            for m in range(1, n):
                assert anchored_lower_bound(spec, b, m) <= inf + 1e-9

    def test_m_equal_n_needs_full_budget(self):
        spec = (0.0, 1.0, 2.0)
        assert anchored_lower_bound(spec, _budget(1.0, 3.0, 3), 3) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            anchored_lower_bound(spec, _budget(1.0, 2.0, 3), 3)

    def test_m_domain(self):
        spec = (0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            anchored_lower_bound(spec, _budget(1.0, 2.0, 3), 0)
        with pytest.raises(ValueError):
            anchored_lower_bound(spec, _budget(1.0, 2.0, 3), 2.5)


class TestBudgetNormalizedBound:
    @pytest.mark.parametrize(
        "spectrum,omega,total,expected",
        [
            ((0, 1, 2), 1.0, 2.0, 1.0),
            ((0, 0, 1, 1), 2.0, 4.0, 0.0),
        ],
    )
    def test_examples(self, spectrum, omega, total, expected):
        n = len(spectrum)
        b = _budget(omega, total, n)
        assert budget_normalized_bound(spectrum, b) == pytest.approx(expected)
        assert weighted_sup(spectrum, b) >= expected - 1e-12

    def test_equals_infimum(self):
        rng = np.random.default_rng(73)
        for _ in range(2000):
            n = int(rng.integers(2, 12))
            spec = np.sort(rng.normal(size=n))
            omega = float(rng.uniform(0.3, 2.0))
            total = float(rng.uniform(omega, n * omega))
            b = _budget(omega, total, n)
            assert budget_normalized_bound(spec, b) == pytest.approx(
                weighted_inf(spec, b), rel=1e-12, abs=1e-12
            )

    def test_ratio_domain(self):
        with pytest.raises(ValueError):
            budget_normalized_bound((0.0, 1.0, 2.0), _budget(2.0, 1.0, 3))


class TestFormDegreeCoeffs:
    def test_dimension_four_values(self):
        c1 = form_degree_coeff(4, 1)
        assert c1.coeff == pytest.approx(2.7, abs=1e-12)
        # Closed form (3n/2)(n^2+n-2)/(3n^2-n-4).
        assert c1.coeff == pytest.approx(6 * 18 / 40)
        c2 = form_degree_coeff(4, 2)
        assert c2.coeff == pytest.approx(4.5, abs=1e-12)
        assert c2.coeff == pytest.approx(144 / 32)
        assert c2.coeff > 3 * 4 / 4

    def test_sandwich_and_monotonicity(self):
        for n in range(3, 65):
            coeffs = [form_degree_coeff(n, p).coeff for p in range(1, n // 2 + 1)]
            assert coeffs[0] <= 3 * n / 4 + 1e-12
            if len(coeffs) > 1:
                assert coeffs[1] > 3 * n / 4
            for a, b in zip(coeffs, coeffs[1:]):
                assert b >= a - 1e-12

    def test_closed_form_c1(self):
        for n in range(3, 65):
            want = (3 * n / 2) * (n * n + n - 2) / (3 * n * n - n - 4)
            assert form_degree_coeff(n, 1).coeff == pytest.approx(want, rel=1e-13)

    def test_closed_form_c2(self):
        for n in range(4, 65):
            want = 3 * n * (n + 2) * (n - 2) / (4 * n * n - 6 * n - 8)
            assert form_degree_coeff(n, 2).coeff == pytest.approx(want, rel=1e-13)

    def test_ratio_definition(self):
        c = form_degree_coeff(7, 3)
        assert c.coeff == pytest.approx(c.total_weight / c.highest_weight)
        assert c.total_weight == pytest.approx(1.5 * 3 * 4)

    def test_domain(self):
        with pytest.raises(ValueError):
            form_degree_coeff(2, 1)
        with pytest.raises(ValueError):
            form_degree_coeff(4, 3)
        # The coefficient record itself holds the check.
        for n, p in ((2, 1), (4, 3)):
            with pytest.raises(ValueError):
                FormDegreeCoeffs(n=n, p=p)

    @pytest.mark.parametrize(
        "n,expected,floor_value",
        [(3, 3.0, 9 / 4), (4, 27 / 7, 3.0), (10, 13.5 * 12 / 19, 7.5)],
    )
    def test_refined_one_form_coeff(self, n, expected, floor_value):
        got = refined_one_form_coeff(n)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got >= floor_value

    def test_refined_dominates_three_quarters(self):
        for n in range(3, 65):
            assert refined_one_form_coeff(n) >= 3 * n / 4 - 1e-12


class TestPositivityLevels:
    def test_constant_spectrum_equality(self):
        n = 4
        kappa = 0.3
        spec = np.full(trace_free_count(n), kappa)
        for p in (1, 2):
            assert form_degree_positivity(spec, n, p, kappa)
        assert bulk_positivity(spec, n, kappa)

    def test_product_like_spectrum(self):
        # >= ceil(3n/4) nonnegative leading entries with a positive sum.
        n = 4
        spec = np.sort(np.array([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]))
        assert bulk_positivity(spec, n, 0.0)
        assert form_degree_positivity(spec, n, 1, 0.0)

    def test_very_negative_bottom_entry_fails(self):
        n = 4
        spec = np.sort(np.concatenate([[-100.0], np.ones(trace_free_count(n) - 1)]))
        assert not bulk_positivity(spec, n, 0.0)
        assert not form_degree_positivity(spec, n, 2, 0.0)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            bulk_positivity(np.ones(5), 4, 0.0)
        with pytest.raises(ValueError):
            form_degree_positivity(np.ones(5), 4, 1, 0.0)

    def test_generic_level(self):
        assert positivity_at_level(np.array([0.0, 1.0, 2.0]), 1.5, 0.0)
        assert not positivity_at_level(np.array([-1.0, 0.0, 2.0]), 1.5, 0.5)
