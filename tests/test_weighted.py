"""The form-degree coefficients C_p(n), the ``weighted`` module that
re-exports them, and the capped weighted-sum lemma behind them.

The lemma's extremes and anchored bound are checked on the greedy test
oracles against vertex enumeration; its budget-normalized bound, and the
positivity levels it gates, on the library's ``normalized_partial_sum``.
"""

import numpy as np
import pytest

from gardinglab import tables, weighted
from gardinglab.symfun import normalized_partial_sum
from gardinglab.tables import FormDegreeCoeffs, form_degree_coeff, trace_free_count

from oracles import (
    anchored_lower_bound,
    random_admissible_weights,
    weighted_extremes_enum,
    weighted_extremes_greedy,
)


def test_weighted_holds_only_the_tables_re_exports():
    assert weighted.__all__ == ["FormDegreeCoeffs", "form_degree_coeff", "trace_free_count"]
    for name in weighted.__all__:
        assert getattr(weighted, name) is getattr(tables, name), name


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


class TestWeightedExtremes:
    @pytest.mark.parametrize(
        "spectrum,omega,total,expected",
        [
            ((0, 1, 2), 1.0, 2.0, 3.0),
            ((0, 1, 2), 1.0, 1.5, 2.5),
        ],
    )
    def test_sup_examples(self, spectrum, omega, total, expected):
        assert weighted_extremes_greedy(spectrum, omega, total)[1] == pytest.approx(expected)
        assert weighted_extremes_enum(spectrum, omega, total)[1] == pytest.approx(expected)

    def test_constant_spectrum_everything_collapses(self):
        c = 0.7
        spec = (c,) * 5
        for total in (1.0, 2.5, 4.0, 5.0):
            inf, sup = weighted_extremes_greedy(spec, 1.0, total)
            assert sup == pytest.approx(total * c)
            assert inf == pytest.approx(total * c)
            assert total * normalized_partial_sum(spec, total) == pytest.approx(total * c)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(61)
        for _ in range(400):
            n = int(rng.integers(2, 9))
            spec = np.sort(rng.normal(size=n) * rng.uniform(0.5, 3))
            omega = float(rng.uniform(0.2, 2.0))
            ratio = float(rng.choice(np.arange(2, 2 * n + 1) / 2.0))
            total = min(ratio * omega, n * omega)
            inf, sup = weighted_extremes_greedy(spec, omega, total)
            lo, hi = weighted_extremes_enum(spec, omega, total)
            assert sup == pytest.approx(hi, rel=1e-9, abs=1e-9)
            assert inf == pytest.approx(lo, rel=1e-9, abs=1e-9)

    def test_dominates_random_admissible_sums(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            spec = np.sort(rng.normal(size=n))
            total = float(rng.uniform(1.0, 0.6 * n))
            inf, sup = weighted_extremes_greedy(spec, 1.0, total)
            for w in random_admissible_weights(rng, n, 1.0, total, 50):
                value = float(w @ spec)
                assert inf - 1e-9 <= value <= sup + 1e-9

    def test_full_budget(self):
        assert weighted_extremes_greedy((0.0, 1.0, 2.0), 1.0, 3.0) == pytest.approx((3.0, 3.0))


class TestAnchoredLowerBound:
    @pytest.mark.parametrize(
        "spectrum,omega,total,m,expected",
        [
            ((0, 1, 2), 1.0, 2.0, 2, 1.0),
            ((0, 0, 1, 1), 1.0, 3.0, 3, 1.0),
        ],
    )
    def test_examples(self, spectrum, omega, total, m, expected):
        bound = anchored_lower_bound(spectrum, omega, total, m)
        assert bound == pytest.approx(expected)
        assert weighted_extremes_greedy(spectrum, omega, total)[0] >= bound - 1e-12

    def test_tight_on_constant_spectrum(self):
        for m in range(1, 6):
            assert anchored_lower_bound((0.4,) * 6, 1.0, 4.0, m) == pytest.approx(4.0 * 0.4)

    def test_below_infimum_for_every_m(self):
        rng = np.random.default_rng(71)
        for _ in range(2000):
            n = int(rng.integers(2, 10))
            spec = np.sort(rng.normal(size=n))
            omega = float(rng.uniform(0.3, 2.0))
            total = float(rng.uniform(omega, n * omega))
            inf = weighted_extremes_greedy(spec, omega, total)[0]
            for m in range(1, n):
                assert anchored_lower_bound(spec, omega, total, m) <= inf + 1e-9

    def test_m_equal_n_at_full_budget_is_the_sum(self):
        spec = (0.0, 1.0, 2.0)
        assert anchored_lower_bound(spec, 1.0, 3.0, 3) == pytest.approx(3.0)
        assert anchored_lower_bound(spec, 1.0, 3.0, 3) == weighted_extremes_greedy(spec, 1.0, 3.0)[0]


class TestBudgetNormalizedBound:
    # S times the normalized partial sum at S/Omega, on the library's routine.
    @pytest.mark.parametrize(
        "spectrum,omega,total,expected",
        [
            ((0, 1, 2), 1.0, 2.0, 1.0),
            ((0, 0, 1, 1), 2.0, 4.0, 0.0),
        ],
    )
    def test_examples(self, spectrum, omega, total, expected):
        bound = total * normalized_partial_sum(spectrum, total / omega)
        assert bound == pytest.approx(expected)
        assert weighted_extremes_greedy(spectrum, omega, total)[1] >= expected - 1e-12

    def test_equals_infimum(self):
        rng = np.random.default_rng(73)
        for _ in range(2000):
            n = int(rng.integers(2, 12))
            spec = np.sort(rng.normal(size=n))
            omega = float(rng.uniform(0.3, 2.0))
            total = float(rng.uniform(omega, n * omega))
            assert total * normalized_partial_sum(spec, total / omega) == pytest.approx(
                weighted_extremes_greedy(spec, omega, total)[0], rel=1e-12, abs=1e-12
            )

    def test_a_budget_past_n_caps_is_refused(self):
        # S = 4 > N * Omega = 3 admits no weights; its ratio S/Omega = 4 is
        # past the partial sum's range.
        with pytest.raises(ValueError, match="^m must satisfy 0 < m <= 3, got 4.0$"):
            normalized_partial_sum((0.0, 1.0, 2.0), 4.0)


class TestPositivityLevels:
    # A trace-free spectrum is positive at level C_p (or 3n/4) with constant
    # kappa when its normalized partial sum there reaches kappa.
    @staticmethod
    def _levels(n):
        return [3.0 * n / 4.0] + [form_degree_coeff(n, p).coeff for p in range(1, n // 2 + 1)]

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10])
    def test_constant_spectrum_equality(self, n):
        kappa = 0.3
        spec = np.full(trace_free_count(n), kappa)
        for level in self._levels(n):
            assert normalized_partial_sum(spec, level) == pytest.approx(kappa, rel=1e-13)

    def test_product_like_spectrum(self):
        # >= ceil(3n/4) nonnegative leading entries with a positive sum.
        n = 4
        spec = np.sort(np.array([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]))
        assert normalized_partial_sum(spec, 3.0 * n / 4.0) >= 0.0
        assert normalized_partial_sum(spec, form_degree_coeff(n, 1).coeff) >= 0.0
        assert normalized_partial_sum(spec, form_degree_coeff(n, 2).coeff) > 0.0

    @pytest.mark.parametrize("n", [3, 4, 6, 10])
    def test_very_negative_bottom_entry_fails(self, n):
        spec = np.sort(np.concatenate([[-100.0], np.ones(trace_free_count(n) - 1)]))
        for level in self._levels(n):
            assert normalized_partial_sum(spec, level) < 0.0
