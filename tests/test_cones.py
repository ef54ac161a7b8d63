"""Cone membership: margins, scaling, permutations, and nesting chains."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gardinglab import cones, symfun
from gardinglab.config import DEFAULT_TOL
from gardinglab.cones import (
    ShiftParams,
    in_garding_cone,
    in_positivity_cone,
    in_shifted_cone,
    nesting_check,
    shift,
)
from gardinglab.classify import classify_first_kind
from gardinglab.inclusion import (
    boundary_search,
    dichotomy_check,
    epsilon_to_params,
    verify_inclusion_sampling,
)
from gardinglab.tables import KIND_FIRST, Spectrum, trace_free_count, two_form_count
from gardinglab.weighted import positivity_at_level

from oracles import nesting_check_full_chain, selection_sum_min


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

    def test_zero_alpha_returns_a_new_array(self):
        v = np.array([0.3, -1.2, 4.0])
        assert shift(v, ShiftParams(alpha=0.0, N=3)) is not v

    @pytest.mark.parametrize("v", [[1e308] * 3, np.full(20, 1e307)])
    def test_zero_alpha_skips_an_overflowing_sum(self, v):
        # The entry sum is past the float range and the norm is not: the
        # unshifted test is the G_k test, with no 0 * inf in it, and a
        # shifted test refuses the sum by name.
        got = in_shifted_cone(v, 2, ShiftParams(alpha=0.0, N=len(v)))
        assert got == in_garding_cone(v, 2) and got.member_open
        with pytest.raises(ValueError, match="^the entry sum overflows the float range$"):
            in_shifted_cone(v, 2, ShiftParams(alpha=0.01, N=len(v)))

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

    def test_norm_past_float_max_raises(self):
        # Finite entries whose norm is not a float: a margin over an infinite
        # norm would read 0, a closed member, so the tests raise instead.
        v = [1e308, -1e308, 1e308, -1e308]
        for test in (
            lambda: in_garding_cone(v, 2),
            lambda: in_shifted_cone(v, 2, ShiftParams(alpha=0.1, N=4)),
            lambda: in_positivity_cone(v, 2),
        ):
            with pytest.raises(ValueError, match="norm"):
                test()


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

    def test_divisor_past_float_max_raises(self):
        # The norm, 1.37e308, and the partial sum are finite and m * ||v|| is
        # not: dividing by it would read margin 0, a closed member only.
        # Scaled by 1e-308 the vector is an open member with margin 0.146.
        v = [-0.5e308, 0.9e308, 0.9e308]
        assert in_positivity_cone([1e-308 * t for t in v], 2).member_open
        with pytest.raises(ValueError, match="^m times the vector norm is not a finite float$"):
            in_positivity_cone(v, 2)

    def test_partial_sum_past_float_max_raises(self):
        # An all-positive vector whose partial sum overflows: inf / inf was
        # a NaN margin.
        with pytest.raises(ValueError, match="^the partial sum overflows the float range$"):
            in_positivity_cone([1e308] * 3, 2)

    def test_monotone_in_m(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            v = rng.normal(size=6)
            m1, m2 = np.sort(rng.uniform(1.0, 6.0, size=2))
            if in_positivity_cone(v, m1).member_open:
                assert in_positivity_cone(v, m2).member_open


def _flags(res):
    return res.member_open, res.member_closed


def _near_tol(margin: float) -> bool:
    """Whether a margin change of 1e-15 could flip an open or closed flag."""
    return abs(abs(margin) - DEFAULT_TOL) <= 1e-15


def _full_precision(x: np.ndarray, nonzero: int) -> bool:
    """Whether x keeps `nonzero` nonzero entries, all of them normal floats."""
    kept = np.abs(x[x != 0])
    return kept.size == nonzero and bool((kept >= np.finfo(float).tiny).all())


class TestScaleAndPermutationInvariance:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=8),
        st.floats(0.01, 100.0),
        st.integers(0, 1000),
        st.floats(-300.0, 300.0),
        st.integers(-990, 990),
    )
    # Scale defects of the binom(N, j) * ||v||^j and m * ||v|| normalizers:
    # a NaN G_k margin, a vector reported as the zero vector, a P_3 margin 0.
    @example([1.0] * 10, 1.0, 0, 160.0, 0)
    @example([1.0] * 10, 1.0, 0, -170.0, 0)
    @example([1.0] * 9, 1.0, 0, 170.0, 0)
    def test_scaling(self, entries, t, extra, log10_scale, power):
        v = np.array(entries)
        if np.linalg.norm(v) != 0:
            k = max(1, len(entries) // 2)
            a = in_garding_cone(v, k)
            b = in_garding_cone(t * v, k)
            assert (a.member_open, a.member_closed) == (b.member_open, b.member_closed)
            pa = in_positivity_cone(v, 1.5)
            pb = in_positivity_cone(t * v, 1.5)
            assert (pa.member_open, pa.member_closed) == (pb.member_open, pb.member_closed)

        # The drawn entries plus `extra` seeded Gaussian ones (N up to about
        # 1000), scaled by 10**log10_scale (1e-300..1e300) and by 2**power.
        # Wherever every nonzero entry the tests see is a normal float, at
        # scale 1 and scaled, margins agree with the unscaled ones within
        # 1e-15, flags agree wherever that cannot flip one, and the power of
        # two, which then scales every entry exactly, changes no bit.
        v = np.concatenate([v, np.random.default_rng(extra).normal(size=extra)])
        n = v.size
        k = max(1, n // 2)
        shift_p = ShiftParams(alpha=0.5 / n, N=n)
        eps_p = epsilon_to_params(0.5, n)

        def seen(x):
            return x, shift(x, shift_p), x - eps_p.alpha_eps * x.sum()

        nonzero = [np.count_nonzero(x) for x in seen(v)]
        if not v.any() or not all(map(_full_precision, seen(v), nonzero)):
            return
        two = 2.0**power
        scales = [
            s
            for s in (10.0**log10_scale, two)
            if all(map(_full_precision, seen(s * v), nonzero))
        ]
        exact = two in scales
        tests = (
            lambda x: in_garding_cone(x, k),
            lambda x: in_shifted_cone(x, 2, shift_p),
            lambda x: in_shifted_cone(x, k, shift_p),
            lambda x: in_positivity_cone(x, 1.5),
            lambda x: in_positivity_cone(x, n / 3),
        )
        for test in tests:
            base = test(v)
            for scale in scales:
                res = test(scale * v)
                assert abs(res.margin - base.margin) <= 1e-15
                if not _near_tol(base.margin):
                    assert _flags(res) == _flags(base)
            if exact:
                assert test(two * v) == base
        verdict = dichotomy_check(v, eps_p)
        deciding = (
            in_shifted_cone(v, 2, eps_p.shift_params),
            in_positivity_cone(v, eps_p.m_eps),
        )
        if not any(_near_tol(res.margin) for res in deciding):
            for scale in scales:
                scaled = dichotomy_check(scale * v, eps_p)
                assert (scaled.case, scaled.rigid_m) == (verdict.case, verdict.rigid_m)
        if exact:
            scaled = dichotomy_check(two * v, eps_p)
            assert (scaled.case, scaled.c0, scaled.rigid_m) == (
                verdict.case,
                two * verdict.c0,
                verdict.rigid_m,
            )

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


def _outcome(call):
    """repr of a cone test's record, or of the ValueError it raises, so
    that margins compare bit for bit, signed zeros included."""
    try:
        return repr(call().to_record())
    except ValueError as exc:
        return repr(exc)


class TestFloatAndArrayPaths:
    """Vectors up to ``symfun._FLOAT_ENTRIES`` entries run the G_k tests on
    Python floats, longer ones on numpy; each path must give the records of
    the other on every vector.  The P_m test runs on floats for every
    length, so its records must not depend on the switch either."""

    def test_records_match_on_both_paths(self, monkeypatch):
        rng = np.random.default_rng(89)
        for n in range(1, 61):
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-300.0, 300.0)
            v[rng.random(n) < 0.2] = 0.0
            v[rng.random(n) < 0.2] = -0.0
            if n % 9 == 0:
                v = np.full(n, 1e308)  # a norm and a sum past the float maximum
            ks = sorted({1, min(2, n), n, int(rng.integers(1, n + 1))})
            p = ShiftParams(alpha=float(rng.uniform(0.0, 1.0 / n)), N=n)
            m = float(rng.uniform(0.5, n))
            calls = [lambda x, k=k: in_garding_cone(x, k) for k in ks]
            calls += [lambda x, k=k: in_shifted_cone(x, k, p) for k in ks]
            calls.append(lambda x: in_positivity_cone(x, m))
            outcomes = []
            for limit in (10**9, 0):
                monkeypatch.setattr(symfun, "_FLOAT_ENTRIES", limit)
                for x in (v, v.tolist()):
                    with np.errstate(over="ignore", invalid="ignore"):
                        outcomes.append([_outcome(lambda: call(x)) for call in calls])
            assert all(o == outcomes[0] for o in outcomes), n
        # The classifier's two calls, G_2 at alpha_eps and P_{m_eps}, at every
        # operator length of a dimension up to 20 (up to 400 entries), on
        # spectra with ties and mixed signed zeros, given as the list that
        # ``sorted`` makes and the array that a stable np.sort makes.
        lengths = {two_form_count(d) for d in range(3, 21)}
        lengths |= {trace_free_count(d) for d in range(3, 21)}
        lengths |= {d * d for d in range(2, 21)}
        for n in sorted(lengths):
            ties = rng.integers(0, 3, size=n).astype(float)
            ties[(ties == 0.0) & (rng.random(n) < 0.5)] = -0.0
            negative = ties.copy()
            negative[int(rng.integers(n))] = -1.0
            for v in (ties, negative * 10.0 ** rng.uniform(-300.0, 300.0)):
                as_list, as_array = sorted(v.tolist()), np.sort(v, kind="stable")
                assert np.array(as_list).tobytes() == as_array.tobytes(), n
                for eps in (0.1, 0.5, 0.95):
                    p = epsilon_to_params(eps, n)
                    outcomes = []
                    for limit, x in ((10**9, as_list), (0, as_array)):
                        monkeypatch.setattr(symfun, "_FLOAT_ENTRIES", limit)
                        outcomes.append(
                            [
                                _outcome(lambda: in_shifted_cone(x, 2, p.shift_params)),
                                _outcome(lambda: in_positivity_cone(x, p.m_eps)),
                            ]
                        )
                    assert outcomes[0] == outcomes[1], (n, eps)

    def test_invalid_input_raises_alike_on_both_paths(self, monkeypatch):
        for bad in ([], [1.0, math.nan], [[1.0, 2.0]], np.ones((2, 2)), "1.5"):
            errors = []
            for limit in (10**9, 0):
                monkeypatch.setattr(symfun, "_FLOAT_ENTRIES", limit)
                for test in (
                    lambda: in_garding_cone(bad, 1),
                    lambda: in_shifted_cone(bad, 1, ShiftParams(alpha=0.0, N=2)),
                    lambda: in_positivity_cone(bad, 1.0),
                ):
                    with pytest.raises(ValueError) as info:
                        test()
                    errors.append(str(info.value))
            assert errors[:3] == errors[3:]


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
        # From N = 400 on, binom(N, j) * ||v||^j overflows for some j, and
        # from about N = 1030 binom(N, j) has no float value at all; the
        # means recurrence forms neither.
        for n, samples in ((2, 2000), (3, 2000), (5, 2000), (9, 2000), (400, 40), (2000, 200)):
            assert nesting_check(N=n, samples=samples, seed=n).ok
        assert nesting_check(1100, 5, 1).ok

    def test_bad_args(self):
        with pytest.raises(ValueError):
            nesting_check(N=1, samples=10, seed=0)
        with pytest.raises(ValueError):
            nesting_check(N=3, samples=-1, seed=0)

    @pytest.mark.parametrize(
        "margin_fn",
        [
            "garding_margin_chain_batch",
            "partial_sum_weights",
            "_sorted_positivity_margins",
        ],
    )
    def test_nonfinite_margins_are_violations(self, monkeypatch, margin_fn):
        # A NaN margin compares False both ways, so without an explicit
        # finiteness check it would pass every implication.  Poisoning row 3
        # of the P_m weights makes both m-columns' margins NaN for sample 3.
        real = getattr(cones, margin_fn)

        def poisoned(*args):
            out = real(*args).copy()
            out[3] = np.nan
            return out

        monkeypatch.setattr(cones, margin_fn, poisoned)
        report = nesting_check(N=5, samples=200, seed=7)
        assert not report.ok
        vectors = {tuple(v["vector"]) for v in report.violations if "vector" in v}
        assert len(vectors) == 1

    def test_nonfinite_endpoint_margins_are_violations(self, monkeypatch):
        # Only the P_1 and P_N margins of sample 3 are NaN: both endpoint
        # identities report it, and the P_m monotonicity check does not.
        real = cones._sorted_positivity_margins

        def poisoned(sorted_rows, norms, m):
            out = real(sorted_rows, norms, m)
            if np.ndim(m) == 0:
                out[3] = np.nan
            return out

        monkeypatch.setattr(cones, "_sorted_positivity_margins", poisoned)
        report = nesting_check(N=5, samples=200, seed=7)
        kinds = {v["kind"] for v in report.violations}
        assert kinds == {"G_N=P_1", "P_N=G_1"}
        assert len({tuple(v["vector"]) for v in report.violations}) == 1

    def test_maclaurin_violation_is_caught(self, monkeypatch):
        # The row [0.5, 0.4] is monotone, so the chain's own order cannot
        # flag it, but sqrt(0.4) > 0.5 breaks Maclaurin's inequality.  Only
        # positive samples get it, so G_2 = P_1 and P_2 = G_1 still agree.
        real = cones.garding_margin_chain_batch

        def fake(rows, k):
            out = real(rows, k)
            out[(rows > 0).all(axis=1)] = [0.5, 0.4]
            return out

        monkeypatch.setattr(cones, "garding_margin_chain_batch", fake)
        report = nesting_check(N=2, samples=200, seed=3)
        assert not report.ok
        kinds = {v["kind"] for v in report.violations}
        assert "garding_chain" in kinds
        assert kinds <= {"garding_chain", "shifted_chain"}

    def test_deterministic_for_fixed_seed(self):
        a = nesting_check(N=7, samples=500, seed=99)
        b = nesting_check(N=7, samples=500, seed=99)
        assert a.to_record() == b.to_record()


def _nesting_rows(N: int, samples: int, seed: int) -> np.ndarray:
    """The Gaussian samples that ``nesting_check`` draws first."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed)).normal(size=(samples, N))


class TestNestingChainHead:
    """Only the samples whose chain head may matter run all N degrees."""

    N, SAMPLES, SEED = 20, 50, 4

    def test_matches_full_chain_oracle(self, monkeypatch):
        real = cones.garding_margin_chain_batch
        deep_rows = []

        def counting(rows, k):
            if k == rows.shape[1] > cones._CHAIN_HEAD:
                deep_rows.append(rows.shape[0])
            return real(rows, k)

        monkeypatch.setattr(cones, "garding_margin_chain_batch", counting)
        dims = [*range(2, 41), 45, 70, 100, 400, 1100, 2000]
        for n in dims:
            samples = (
                2000 if n <= 12 else 400 if n <= 40 else 200 if n <= 100 else 20 if n <= 400 else 4
            )
            for seed in (n, n + 1, n + 2):
                got = nesting_check(n, samples, seed).to_record()
                assert got == nesting_check_full_chain(n, samples, seed).to_record(), (n, seed)
        # The grid holds samples that run the full chain, so both routes are compared.
        assert sum(deep_rows) > 0

    @pytest.mark.parametrize("column", [2, "head_end"])
    def test_nan_in_head_runs_the_full_chain(self, monkeypatch, column):
        # A NaN margin is neither < 0 nor finite; either way its sample must
        # run the full chain and be reported with all N margins.
        column = cones._CHAIN_HEAD - 1 if column == "head_end" else column
        real = cones.garding_margin_chain_batch
        target = _nesting_rows(self.N, self.SAMPLES, self.SEED)[5]
        true_chain = real(target[None, :], self.N)[0]
        assert self.N > cones._CHAIN_HEAD and true_chain[cones._CHAIN_HEAD - 1] < 0

        def fake(rows, k):
            out = real(rows, k)
            out[(rows == target).all(axis=1), column] = np.nan
            return out

        monkeypatch.setattr(cones, "garding_margin_chain_batch", fake)
        report = nesting_check(self.N, self.SAMPLES, self.SEED)
        assert [v["kind"] for v in report.violations] == ["garding_chain"]
        violation = report.violations[0]
        assert violation["vector"] == target.tolist()
        margins = np.array(violation["margins"])
        assert margins.shape == (self.N,) and np.isnan(margins[column])
        expected = true_chain.copy()
        expected[column] = np.nan
        np.testing.assert_array_equal(margins, expected)

    def test_maclaurin_break_past_the_head_is_caught(self, monkeypatch):
        # The fake head is c^j, whose j-th roots all equal c, so it holds
        # Maclaurin with equality and ends above 0; the break sits four
        # degrees past the head.  The sample has a positive sum and a
        # negative entry, so the endpoint identities still agree with the
        # positive G_1 margin and the negative tail.
        real = cones.garding_margin_chain_batch
        rows = _nesting_rows(self.N, self.SAMPLES, self.SEED)
        target = next(r for r in rows if r.sum() > 0 and r.min() < 0)
        brk = cones._CHAIN_HEAD + 4
        chain = 0.5 ** np.arange(1.0, self.N + 1)
        chain[brk] = 0.75 ** (brk + 1)
        chain[brk + 1 :] = -0.1

        def fake(batch, k):
            out = real(batch, k)
            out[(batch == target).all(axis=1)] = chain[:k]
            return out

        monkeypatch.setattr(cones, "garding_margin_chain_batch", fake)
        report = nesting_check(self.N, self.SAMPLES, self.SEED)
        assert report.violations == [
            {"kind": "garding_chain", "vector": target.tolist(), "margins": chain.tolist()}
        ]


# One call of each library function that takes a tolerance, or inherits
# its check from a cone test.
_TOL_CALLS = {
    "in_garding_cone": lambda tol: in_garding_cone([1.0, 2.0], 1, tol=tol),
    "in_shifted_cone": lambda tol: in_shifted_cone(
        [1.0, 2.0, 3.0], 2, ShiftParams(alpha=0.1, N=3), tol
    ),
    "in_positivity_cone": lambda tol: in_positivity_cone([1.0, 2.0], 1.5, tol),
    "nesting_check": lambda tol: nesting_check(6, 200, 1, tol=tol),
    "dichotomy_check": lambda tol: dichotomy_check(
        [1, 1, 1, 1], epsilon_to_params(0.5, 4), tol=tol
    ),
    "boundary_search": lambda tol: boundary_search(6, 0.4, tol=tol),
    "verify_inclusion_sampling": lambda tol: verify_inclusion_sampling(4, 0.5, 10, 0, tol=tol),
    "positivity_at_level": lambda tol: positivity_at_level([1.0, 2.0], 1.0, 0.5, tol),
    "classify_first_kind": lambda tol: classify_first_kind(
        Spectrum([1.0] * 6, KIND_FIRST, 4), 0.3, tol
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("name", sorted(_TOL_CALLS))
def test_every_tolerance_is_checked(name, bad):
    # A NaN band decides no comparison and an infinite one admits every
    # vector, so each is refused by name, as is a negative one; 0 is valid.
    message = f"^tol must be a finite non-negative number, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        _TOL_CALLS[name](bad)
    _TOL_CALLS[name](0.0)
