"""Model-space operators, symmetry validation, and the Jacobi eigensolver."""

import collections
import itertools
import json
import math
import re

import numpy as np
import pytest

from gardinglab.curvature import (
    KIND_FIRST,
    KIND_GENERIC,
    KIND_SECOND,
    CurvatureTensor,
    OperatorMatrix,
    Spectrum,
    assemble_first_kind,
    assemble_second_kind,
    dimension_for_count,
    eigen_spectrum,
    jacobi_eigensystem,
    model_product_spheres,
    model_space_form,
    scalar_curvature_checks,
    trace_free_count,
    two_form_count,
    validate_curvature_symmetries,
    _FLOAT_ACTIVE_ROWS,
    _from_canonical,
    _frobenius,
    _jacobi_floats,
    _off_norm,
    _paired_layouts,
    _round_robin_schedule,
)
from gardinglab.io import read_tensor_file

from oracles import (
    cyclic_jacobi_eigenvalues,
    frame_change,
    full_symmetric_basis,
    gram_on_tensor_basis,
    random_curvature_tensor,
    round_robin_jacobi_by_gathers,
    trace_free_basis,
)
from test_startup import _BLOCK_NUMPY, _RUN_CLI_WITHOUT_NUMPY, _loaded


def _random_symmetric(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return (a + a.T) / 2


class TestModelSpaces:
    def test_space_form_components(self):
        r = model_space_form(4, 1.0).components
        assert r[0, 1, 0, 1] == 1.0
        assert r[0, 1, 0, 2] == 0.0
        assert r[1, 0, 0, 1] == -1.0

    def test_zero_curvature(self):
        assert np.all(model_space_form(5, 0.0).components == 0.0)

    def test_negative_curvature(self):
        assert model_space_form(3, -1.0).components[0, 1, 0, 1] == -1.0

    def test_product_components(self):
        r = model_product_spheres(2, 2).components
        assert r[0, 1, 0, 1] == 1.0
        assert r[2, 3, 2, 3] == 1.0
        assert r[0, 2, 0, 2] == 0.0

    def test_product_scalar_curvature(self):
        for p, q in [(2, 2), (2, 3), (3, 4)]:
            tensor = model_product_spheres(p, q)
            assert tensor.scalar_curvature() == pytest.approx(p * (p - 1) + q * (q - 1))

    def test_validation_rejects_bad_tensor(self):
        bad = np.zeros((3, 3, 3, 3))
        bad[0, 1, 0, 1] = 1.0  # missing all symmetry partners
        with pytest.raises(ValueError):
            CurvatureTensor.from_components(bad)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_validation_rejects_non_finite(self, bad):
        # Each identity then compares non-finite values, which gives NaN.
        r = model_space_form(3, 1.0).components.copy()
        r[0, 1, 0, 1] = r[1, 0, 1, 0] = bad
        r[1, 0, 0, 1] = r[0, 1, 1, 0] = -bad
        with pytest.raises(ValueError, match="symmetries violated"):
            validate_curvature_symmetries(r)
        with pytest.raises(ValueError):
            CurvatureTensor.from_components(r)

    def test_random_tensors_satisfy_identities(self):
        for seed in range(5):
            tensor = random_curvature_tensor(5, seed=seed)  # validates on build
            r = tensor.components
            np.testing.assert_allclose(r, -r.transpose(1, 0, 2, 3), atol=1e-12)
            np.testing.assert_allclose(r, r.transpose(2, 3, 0, 1), atol=1e-12)
            bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
            np.testing.assert_allclose(bianchi, 0.0, atol=1e-12)


class TestFirstKindAssembly:
    def test_unit_sphere_is_identity(self):
        mat = assemble_first_kind(model_space_form(4, 1.0))
        np.testing.assert_allclose(mat.entries, np.eye(6), atol=1e-14)
        spectrum = eigen_spectrum(mat)
        np.testing.assert_allclose(spectrum.eigenvalues, np.ones(6), atol=1e-12)
        # Cross-check: twice the eigenvalue sum is n(n-1).
        assert 2 * spectrum.eigenvalues.sum() == pytest.approx(12.0)

    def test_zero_tensor(self):
        mat = assemble_first_kind(model_space_form(4, 0.0))
        assert np.all(mat.entries == 0.0)

    def test_product_spectrum(self):
        mat = assemble_first_kind(model_product_spheres(2, 2))
        diag = np.sort(np.diag(mat.entries))
        np.testing.assert_allclose(diag, [0, 0, 0, 0, 1, 1], atol=1e-14)
        spectrum = eigen_spectrum(mat)
        np.testing.assert_allclose(spectrum.eigenvalues, [0, 0, 0, 0, 1, 1], atol=1e-10)

    def test_trace_identity_exact(self):
        for seed in (0, 1):
            tensor = random_curvature_tensor(4, seed=seed)
            mat = assemble_first_kind(tensor)
            assert np.trace(mat.entries) == pytest.approx(
                tensor.scalar_curvature() / 2.0, rel=1e-12
            )

    def test_size(self):
        mat = assemble_first_kind(model_space_form(5, 2.0))
        assert mat.N == two_form_count(5) == 10
        assert mat.kind == KIND_FIRST


class TestSecondKindAssembly:
    def test_unit_sphere_is_identity(self):
        mat = assemble_second_kind(model_space_form(4, 1.0))
        np.testing.assert_allclose(mat.entries, np.eye(9), atol=1e-12)
        spectrum = eigen_spectrum(mat)
        np.testing.assert_allclose(spectrum.eigenvalues, np.ones(9), atol=1e-10)

    def test_zero_tensor(self):
        mat = assemble_second_kind(model_space_form(5, 0.0))
        assert np.max(np.abs(mat.entries)) == 0.0

    def test_output_symmetry(self):
        mat = assemble_second_kind(random_curvature_tensor(5, seed=3))
        assert np.max(np.abs(mat.entries - mat.entries.T)) <= 1e-12

    def test_trace_identity_exact(self):
        for seed in (0, 2):
            tensor = random_curvature_tensor(5, seed=seed)
            mat = assemble_second_kind(tensor)
            n = tensor.n
            assert np.trace(mat.entries) == pytest.approx(
                (n + 2) / (2 * n) * tensor.scalar_curvature(), rel=1e-10
            )

    def test_basis_is_orthonormal_and_trace_free(self):
        for n in (3, 4, 6):
            basis = trace_free_basis(n)
            assert basis.shape[0] == trace_free_count(n)
            gram = np.einsum("aij,bij->ab", basis, basis)
            np.testing.assert_allclose(gram, np.eye(basis.shape[0]), atol=1e-12)
            traces = np.einsum("aii->a", basis)
            np.testing.assert_allclose(traces, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_sparse_contraction_matches_the_dense_gram(self, n):
        # The gathers and running sums against two dense einsum contractions
        # over the closed-form basis: the same matrix up to rounding.
        for tensor in (random_curvature_tensor(n, seed=n), model_space_form(n, 1.3)):
            got = assemble_second_kind(tensor).entries
            dense = gram_on_tensor_basis(tensor, trace_free_basis(n))
            scale = np.abs(tensor.components).max()
            assert np.max(np.abs(got - dense)) <= 2e-15 * n * scale

    def test_trace_mode_decouples_for_space_forms(self):
        # On the full symmetric basis (trace-free + pure trace) the last
        # row/column couples to nothing for a space form.
        for c in (1.0, -2.0):
            tensor = model_space_form(4, c)
            full = gram_on_tensor_basis(tensor, full_symmetric_basis(4))
            off = full[-1, :-1]
            np.testing.assert_allclose(off, 0.0, atol=1e-12)

    def test_size(self):
        mat = assemble_second_kind(model_space_form(6, 1.0))
        assert mat.N == trace_free_count(6) == 20
        assert mat.kind == KIND_SECOND


class TestJacobiEigensolver:
    def test_identity(self):
        w = jacobi_eigensystem(np.eye(6))
        np.testing.assert_allclose(w, np.ones(6))
        # No row couples, so every diagonal entry passes through unrotated.
        assert np.array_equal(w, np.ones(6))

    def test_diagonal(self):
        w = jacobi_eigensystem(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])

    def test_two_by_two(self):
        w = jacobi_eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthogonality(self):
        # A = Q diag(w) Q^T with Q orthogonal keeps the trace and the
        # Frobenius norm: sum(w) = tr(A) and sum(w^2) = ||A||_F^2.
        rng = np.random.default_rng(79)
        for n in (2, 5, 12, 35):
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2
            w = jacobi_eigensystem(a)
            fro = np.linalg.norm(a)
            _assert_similarity_invariants(a, w, 1e-10)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-10 * (1 + fro))
            assert np.all(np.diff(w) >= 0)

    def test_matches_lapack_oracle(self):
        rng = np.random.default_rng(83)
        for n in (3, 8, 20):
            a = rng.normal(size=(n, n)) * 3
            a = (a + a.T) / 2
            w = jacobi_eigensystem(a)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-9)

    def test_eigen_spectrum_round_trip(self):
        w = jacobi_eigensystem(np.diag([2.0, -1.0, 0.5]))
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
        rebuilt = q @ np.diag(w) @ q.T
        w2 = jacobi_eigensystem((rebuilt + rebuilt.T) / 2)
        np.testing.assert_allclose(w, w2, atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            jacobi_eigensystem(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "n, assemble",
        [
            (10, assemble_first_kind),
            (10, assemble_second_kind),
            (14, assemble_first_kind),
            (14, assemble_second_kind),
        ],
    )
    def test_curvature_operators_match_lapack_oracle(self, n, assemble):
        # N = 45, 54, 91, 104; eigvalsh is the oracle only.
        a = assemble(random_curvature_tensor(n, seed=n)).entries
        w = jacobi_eigensystem(a)
        fro = np.linalg.norm(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-13 * fro

    def test_round_robin_schedule_covers_each_pair_once(self):
        for m in range(2, 42):
            rounds = _round_robin_schedule(m)
            assert len(rounds) == m - 1 + m % 2
            for p, q in rounds:
                assert len(p) == len(q) and all(a < b for a, b in zip(p, q))
                assert len(set(p + q)) == 2 * len(p)
            pairs = sorted(pair for p, q in rounds for pair in zip(p, q))
            assert pairs == list(itertools.combinations(range(m), 2))

    @pytest.mark.parametrize("assemble", [assemble_first_kind, assemble_second_kind])
    def test_round_robin_matches_cyclic_loop(self, assemble):
        # Same rotations in another order: equal eigenvalues up to rounding.
        a = assemble(random_curvature_tensor(6, seed=3)).entries
        w = jacobi_eigensystem(a)
        assert np.max(np.abs(w - cyclic_jacobi_eigenvalues(a))) <= 1e-13 * np.linalg.norm(a)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 21])
    def test_small_and_odd_sizes_match_lapack_oracle(self, n):
        a = _random_symmetric(n, seed=100 + n)
        w = jacobi_eigensystem(a)
        fro = np.linalg.norm(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-13 * fro
        _assert_similarity_invariants(a, w, 1e-13)

    def test_eigenvalue_only_path_is_bit_identical(self):
        # eigen_spectrum keeps the solver's eigenvalues bit for bit, read-only.
        operators = [
            assemble(random_curvature_tensor(n, seed=n))
            for n in range(3, 15)
            for assemble in (assemble_first_kind, assemble_second_kind)
        ]
        operators += [
            assemble_second_kind(model_space_form(6, 1.0)),
            assemble_first_kind(model_product_spheres(3, 4)),
            OperatorMatrix.from_entries([[-2.5]]),
        ]
        for matrix in operators:
            w = jacobi_eigensystem(matrix.entries)
            values = eigen_spectrum(matrix).eigenvalues
            assert values.tobytes() == w.tobytes()
            assert values.dtype == np.float64 and not values.flags.writeable

    def test_reconstruction_and_orthogonality_at_104(self):
        a = assemble_second_kind(random_curvature_tensor(14, seed=5)).entries
        w = jacobi_eigensystem(a)
        _assert_similarity_invariants(a, w, 1e-12)
        assert np.all(np.diff(w) >= 0)

    def test_inactive_rows_pass_through(self):
        # S^7 x S^7 on trace-free tensors: only 8 of 104 rows have a
        # nonzero off-diagonal entry, the last Helmert diagonals, which
        # span both factors.
        a = assemble_second_kind(model_product_spheres(7, 7)).entries
        inactive = np.flatnonzero(~(a - np.diag(a.diagonal())).any(axis=1))
        assert inactive.size == 104 - 8
        w = jacobi_eigensystem(a)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-13 * np.linalg.norm(a))
        _assert_similarity_invariants(a, w, 1e-13)
        _assert_diagonal_entries_pass_through(a, w, inactive)

    def test_one_isolated_pair(self):
        a = np.diag([5.0, 1.0, 4.0, 2.0, 3.0, 0.0])
        a[1, 4] = a[4, 1] = 0.5
        w = jacobi_eigensystem(a)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-15)
        # The pair's block [[1, 0.5], [0.5, 3]] has eigenvalues 2 -+ sqrt(1.25).
        pair = np.setdiff1d(w, [5.0, 4.0, 2.0, 0.0])
        expected = 2.0 + np.sqrt(1.25) * np.array([-1.0, 1.0])
        np.testing.assert_allclose(pair, expected, atol=1e-15)
        _assert_diagonal_entries_pass_through(a, w, [0, 2, 3, 5])

    def test_zero_matrix(self):
        w = jacobi_eigensystem(np.zeros((7, 7)))
        assert np.all(w == 0.0)
        assert w.shape == (7,) and not np.signbit(w).any()

    def test_max_sweeps_is_honoured(self):
        a = _random_symmetric(30, seed=7)
        w = jacobi_eigensystem(a)
        needed = next(k for k in range(1, 100) if _converges(a, k))
        assert needed > 2
        w_cap = jacobi_eigensystem(a, max_sweeps=needed)
        assert np.array_equal(w_cap, w)
        with pytest.raises(RuntimeError, match=f"within {needed - 1} sweeps"):
            jacobi_eigensystem(a, max_sweeps=needed - 1)

    def test_failure_reports_off_diagonal_ratio(self):
        with pytest.raises(RuntimeError) as info:
            jacobi_eigensystem(_random_symmetric(30, seed=11), max_sweeps=1)
        found = re.search(r"within 1 sweeps \(off/\|\|A\|\|_F = (\S+)\)", str(info.value))
        assert found, str(info.value)
        assert 1e-14 < float(found.group(1)) < 1.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        a = np.eye(10)
        a[2, 5] = a[5, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigensystem(a)

    def test_nan_matrix_fails_before_any_sweep(self):
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigensystem(np.full((6, 6), np.nan))

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_huge_entries_still_rotate(self, scale):
        # ||A||_F of these overflows; an inf threshold would return the diagonal.
        w = jacobi_eigensystem(np.array([[1.0, 1.0], [1.0, -1.0]]) * scale)
        np.testing.assert_allclose(w, [-np.sqrt(2.0) * scale, np.sqrt(2.0) * scale], rtol=1e-14)
        assert abs(w.sum()) <= 1e-15 * scale  # the trace, 0

    @pytest.mark.parametrize("power", [-900, -300, -1, 1, 300, 1000])
    def test_power_of_two_scale_is_exact(self, power):
        # Each entry stays normal, so scaling by 2^power scales the
        # eigenvalues exactly.
        a = _random_symmetric(12, seed=19)
        w = jacobi_eigensystem(a)
        w_scaled = jacobi_eigensystem(np.ldexp(a, power))
        assert np.array_equal(w_scaled, np.ldexp(w, power))


def _gather_oracle_cases():
    """(id, matrix) pairs for the bit-identity tests of the paired layout."""
    for n in range(1, 51):  # odd and even active sizes
        yield f"random-{n}", _random_symmetric(n, seed=200 + n)
    for n in range(3, 13):
        for seed in range(3):
            tensor = random_curvature_tensor(n, seed=seed)
            yield f"first-{n}-{seed}", assemble_first_kind(tensor).entries
            yield f"second-{n}-{seed}", assemble_second_kind(tensor).entries
    for n in (3, 6, 11):
        sphere = model_space_form(n, 1.7)
        yield f"sphere-first-{n}", assemble_first_kind(sphere).entries
        yield f"sphere-second-{n}", assemble_second_kind(sphere).entries
    for p, q in ((2, 2), (3, 4), (5, 2), (7, 7)):
        product = model_product_spheres(p, q)
        yield f"product-first-{p}-{q}", assemble_first_kind(product).entries
        yield f"product-second-{p}-{q}", assemble_second_kind(product).entries
    for n in (5, 8, 13):
        # Integer entries: many exactly equal diagonal entries (theta = +-0).
        a = np.random.default_rng(n).integers(-2, 3, size=(n, n)).astype(float)
        a = a + a.T
        np.fill_diagonal(a, 1.0)
        yield f"equal-diagonal-{n}", a.copy()
        a[0, 3] = a[3, 0] = 0.0  # an apq = 0 pivot in the first sweep
        yield f"zero-pivot-{n}", a.copy()
        a[2, :] = a[:, 2] = 0.0  # an inactive row
        a[2, 2] = -0.0
        yield f"inactive-row-{n}", a.copy()
        np.fill_diagonal(a, -0.0)
        yield f"negative-zero-diagonal-{n}", a.copy()
        yield f"negated-{n}", -a  # apq of the other sign, diagonal +0.0
    for power in (-900, -300, -1, 1, 300, 1000):
        yield f"scaled-2^{power}", np.ldexp(_random_symmetric(12, seed=19), power)


class TestPairedLayout:
    @pytest.mark.parametrize(
        "a", [pytest.param(a, id=label) for label, a in _gather_oracle_cases()]
    )
    def test_spectrum_bytes_match_the_gather_oracle(self, a):
        assert jacobi_eigensystem(a).tobytes() == round_robin_jacobi_by_gathers(a).tobytes()

    @pytest.mark.parametrize("n, seed", [(7, 7), (30, 7), (31, 11), (45, 3)])
    def test_max_sweeps_fails_with_the_oracle_text(self, n, seed):
        a = _random_symmetric(n, seed=seed)
        needed = next(k for k in range(1, 100) if _converges(a, k))
        for max_sweeps in range(1, needed):
            with pytest.raises(RuntimeError) as ours:
                jacobi_eigensystem(a, max_sweeps=max_sweeps)
            with pytest.raises(RuntimeError) as theirs:
                round_robin_jacobi_by_gathers(a, max_sweeps=max_sweeps)
            assert str(ours.value) == str(theirs.value)
        w = round_robin_jacobi_by_gathers(a, max_sweeps=needed)
        assert jacobi_eigensystem(a, max_sweeps=needed).tobytes() == w.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 10, 21])
    def test_layouts_follow_the_schedule_and_close_the_ring(self, m):
        moves, pivots = _paired_layouts(m)
        size = m + m % 2
        half = size // 2
        rounds = _round_robin_schedule(m)
        assert len(moves) == len(rounds) + 1
        # Label each entry by its natural (row, column) and follow the moves.
        x = np.arange(size * size)
        for move, (p, q) in zip(moves, rounds):
            x = x.take(move)
            rows = x.reshape(size, size)[:, 0] // size
            assert rows[: len(p)].tolist() == list(p)
            assert rows[half : half + len(q)].tolist() == list(q)
            if len(p) < half:  # the idle index meets the dummy m, last
                assert rows[half - 1] not in p + q and rows[-1] == m
            assert np.array_equal(x[pivots] // size, np.r_[rows[:half], rows[half:]])
            assert np.array_equal(x[pivots] % size, np.r_[rows[half:], rows[:half]])
        assert np.array_equal(x.take(moves[-1]), np.arange(size * size))
        assert not any(move.flags.writeable for move in moves) and not pivots.flags.writeable


class TestFloatPath:
    """The Python-float kernels that run while numpy is not loaded give the
    bits of the array kernels."""

    @pytest.mark.parametrize(
        "a",
        [
            pytest.param(a, id=label)
            for label, a in _gather_oracle_cases()
            if a.shape[0] <= 36 or label.startswith("product")
        ],
    )
    def test_float_jacobi_matches_the_gather_oracle(self, a):
        w = _jacobi_floats(a.tolist())
        assert all(type(t) is float for t in w)
        assert np.array(w).tobytes() == round_robin_jacobi_by_gathers(a).tobytes()

    @pytest.mark.parametrize("n, seed", [(7, 7), (30, 7)])
    def test_float_jacobi_fails_with_the_oracle_text(self, n, seed):
        a = _random_symmetric(n, seed=seed)
        needed = next(k for k in range(1, 100) if _converges(a, k))
        for max_sweeps in range(1, needed):
            with pytest.raises(RuntimeError) as ours:
                _jacobi_floats(a.tolist(), max_sweeps)
            with pytest.raises(RuntimeError) as theirs:
                round_robin_jacobi_by_gathers(a, max_sweeps=max_sweeps)
            assert str(ours.value) == str(theirs.value)

    def test_float_jacobi_declines_past_the_active_row_bound(self):
        # Past _FLOAT_ACTIVE_ROWS active rows the float sweeps cost more than
        # numpy's import, so the float solver declines before any sweep; the
        # bound counts active rows, not the matrix size.
        bound = _FLOAT_ACTIVE_ROWS
        assert _jacobi_floats(_random_symmetric(bound + 1, seed=1).tolist()) is None
        a = np.zeros((104, 104))
        a[:bound, :bound] = _random_symmetric(bound, seed=2)
        w = _jacobi_floats(a.tolist())
        assert np.array(w).tobytes() == jacobi_eigensystem(a).tobytes()

    def test_without_numpy_every_record_and_bit_matches(self, tmp_path):
        # One process with numpy blocked builds, assembles, checks and
        # solves every case; this one does the same on arrays.  A tensor
        # either path refuses gives the same error text, and one whose sums
        # overflow still gives the same components.
        curvatures = (1.0, -1.0, 0.5, 1.3, -2.5, 1e300, -1e-300, 0.0, -0.0, 5e-324, -1e-310)
        curvatures += (1e308, -1e308, math.nan, math.inf, -math.inf)
        cases = [("sphere", n, c) for n in (3, 4, 6) for c in curvatures]
        cases += [("product", p, q) for p in range(2, 6) for q in range(2, 6)]
        for n in range(3, 9):
            entries = _canonical_entries(random_curvature_tensor(n, seed=29 + n).components)
            cases.append(("file", _write_tensor(tmp_path / f"r{n}.txt", entries)))
        signed = (("s4", model_space_form(4, -1.3)), ("s2xs3", model_product_spheres(2, 3)))
        for name, tensor in signed:
            # Every other zero component written as -0.0.
            entries = _canonical_entries(tensor.components)
            zeros = [key for key, value in entries.items() if value == 0.0]
            entries.update(dict.fromkeys(zeros[::2], -0.0))
            cases.append(("file", _write_tensor(tmp_path / f"{name}.txt", entries)))
        # A component list that breaks the first Bianchi identity.
        bad = ("file", _write_tensor(tmp_path / "bad.txt", {(1, 2, 3, 4): 1.0}))
        # A partial sum overflows, the scalar curvature does not.
        partial = ("file", _write_tensor(tmp_path / "partial.txt", _PARTIAL_OVERFLOW))
        cases += [bad, partial]
        floats, modules = _loaded(_FLOAT_PATH_RUN, json.dumps(cases))
        assert "numpy" not in modules
        assert len(floats) == len(cases)
        for case, got in zip(cases, floats):
            assert got == _array_path_result(case), case
        # Only non-finite curvatures and the broken identity are refused at
        # construction, and only sums past the float range later on.
        refused = [case for case, got in zip(cases, floats) if isinstance(got, str)]
        assert refused == [
            case for case in cases if case[0] == "sphere" and not math.isfinite(case[2])
        ] + [bad]
        overflowed = [case for case, got in zip(cases, floats) if isinstance(got, dict) and "error" in got]
        assert overflowed == [
            case for case in cases if case[0] == "sphere" and abs(case[2]) == 1e308
        ] + [partial]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 36, 129])
    def test_norms_take_the_same_fixed_order(self, n):
        a = _random_symmetric(n, seed=n) * 10.0 ** np.random.default_rng(n).integers(
            -8, 8, size=(n, n)
        )
        assert _frobenius(a.tolist()) == _frobenius(a)
        assert _off_norm(a.tolist()) == _off_norm(a)

    def test_float_kernels_keep_python_floats(self):
        tensor = model_space_form(4, 1.3)
        flat = CurvatureTensor(n=4, components=tuple(tensor.components.ravel().tolist()))
        validate_curvature_symmetries(flat.components)
        assert type(flat.components) is tuple
        assert flat.scalar_curvature() == tensor.scalar_curvature() == math.fsum([1.3] * 12)
        with pytest.raises(ValueError, match="dimension must be >= 3"):
            _from_canonical(2, {})


# Builds, assembles, checks and solves each case of argv[1] on the float
# path (numpy cannot load) and reports the bits of each result in hex.
_FLOAT_PATH_RUN = _BLOCK_NUMPY + """
from gardinglab import curvature, io as gio
code = []
for kind, a, *b in json.loads(sys.argv[1]):
    try:
        if kind == "sphere":
            tensor = curvature.model_space_form(a, *b)
        elif kind == "product":
            tensor = curvature.model_product_spheres(a, *b)
        else:
            tensor = gio.read_tensor_file(a)
    except ValueError as exc:
        code.append(str(exc))
        continue
    result = {"components": [t.hex() for t in tensor.components]}
    try:
        ops = [curvature.assemble_first_kind(tensor), curvature.assemble_second_kind(tensor)]
        result["operators"] = [[t.hex() for row in op.entries for t in row] for op in ops]
        result["spectra"] = [
            [t.hex() for t in curvature.eigen_spectrum(op).eigenvalues] for op in ops
        ]
        result["record"] = curvature.scalar_curvature_checks(tensor, ops[0]).to_record()
    except ValueError as exc:
        result["error"] = str(exc)
    code.append(result)
"""


def _array_path_result(case):
    """``_FLOAT_PATH_RUN``'s report of one case, from the array kernels."""
    kind, a, *b = case
    try:
        if kind == "sphere":
            tensor = model_space_form(a, *b)
        elif kind == "product":
            tensor = model_product_spheres(a, *b)
        else:
            tensor = read_tensor_file(a)
    except ValueError as exc:
        return str(exc)
    result = {"components": [t.hex() for t in tensor.components.ravel().tolist()]}
    try:
        ops = [assemble_first_kind(tensor), assemble_second_kind(tensor)]
        result["operators"] = [[t.hex() for t in op.entries.ravel().tolist()] for op in ops]
        result["spectra"] = [
            [t.hex() for t in eigen_spectrum(op).eigenvalues.tolist()] for op in ops
        ]
        result["record"] = scalar_curvature_checks(tensor, ops[0]).to_record()
    except ValueError as exc:
        result["error"] = str(exc)
    return result


# A dimension-3 tensor file whose scalar curvature, 1.6e308, is finite
# although the diagonal's running sum 0.8e308 + 0.8e308 + 0.8e308 is not.
_PARTIAL_OVERFLOW = {(1, 2, 1, 2): 0.8e308, (1, 3, 1, 3): 0.8e308, (2, 3, 2, 3): -0.8e308}


def _canonical_entries(r):
    """Canonical 1-based ``(i, j, k, l) -> value`` entries of components r."""
    n = r.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return {
        (i + 1, j + 1, k + 1, l + 1): float(r[i, j, k, l])
        for a, (i, j) in enumerate(pairs)
        for k, l in pairs[a:]
    }


def _write_tensor(path, entries):
    n = max(max(key) for key in entries)
    lines = [f"dim {n}"] + [f"{i} {j} {k} {l} {v!r}" for (i, j, k, l), v in entries.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _assert_similarity_invariants(a, w, rtol):
    """sum(w) = tr(A) and sum(w^2) = ||A||_F^2, relative to ||A||_F."""
    fro = np.linalg.norm(a)
    assert abs(w.sum() - np.trace(a)) <= rtol * (1 + fro) * a.shape[0]
    assert abs(np.sqrt(np.sum(w * w)) - fro) <= rtol * (1 + fro)


def _assert_diagonal_entries_pass_through(a, w, rows):
    """Rows never rotated: their diagonal entries appear in w bit for bit."""
    have = collections.Counter(w.view(np.int64).tolist())
    need = collections.Counter(a.diagonal()[rows].view(np.int64).tolist())
    assert all(have[bits] >= count for bits, count in need.items()), need - have


def _converges(a, max_sweeps):
    try:
        jacobi_eigensystem(a, max_sweeps=max_sweeps)
    except RuntimeError:
        return False
    return True


class TestOperatorMatrixAndSpectrum:
    def test_kind_size_validation(self):
        with pytest.raises(ValueError):
            OperatorMatrix.from_entries(np.eye(5), kind=KIND_FIRST)
        ok = OperatorMatrix.from_entries(np.eye(6), kind=KIND_FIRST)
        assert dimension_for_count(ok.N, KIND_FIRST) == 4

    def test_symmetry_validation(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            OperatorMatrix.from_entries(bad)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_rejected(self, bad):
        # inf - inf is NaN, and NaN > atol is false: the check must be
        # written so that NaN fails it.
        a = np.eye(10)
        a[2, 5] = a[5, 2] = bad
        with pytest.raises(ValueError):
            OperatorMatrix.from_entries(a)

    def test_generic_spectrum_has_no_dimension(self):
        spec = eigen_spectrum(OperatorMatrix.from_entries(np.eye(5), KIND_GENERIC))
        assert spec.n is None
        assert len(spec) == 5

    def test_spectrum_rejects_unsorted(self):
        for values in (np.array([2.0, 1.0]), [2.0, 1.0], (2.0, 1.0)):
            with pytest.raises(ValueError, match="sorted non-decreasing"):
                Spectrum(values, KIND_GENERIC, None)

    def test_spectrum_checks_a_float_list_as_its_array(self):
        # A list or tuple is held as a tuple of floats, checked without
        # numpy; it refuses what the array refuses, with the same message.
        spec = Spectrum([-1, 0.0, -0.0, 2.5], KIND_GENERIC, None)
        assert spec.eigenvalues == (-1.0, 0.0, -0.0, 2.5) and len(spec) == 4
        assert [math.copysign(1.0, t) for t in spec.eigenvalues] == [-1.0, 1.0, -1.0, 1.0]
        for bad in ([], [1.0, math.inf], [1.0, math.nan], [[1.0, 2.0]], ["x"]):
            errors = []
            for values in (bad, np.array(bad, dtype=object)):
                with pytest.raises(ValueError) as info:
                    Spectrum(values, KIND_GENERIC, None)
                errors.append(str(info.value))
            assert errors[0] == errors[1], bad

    def test_spectrum_holds_a_read_only_copy(self):
        values = np.array([-1.0, 0.0, 0.0, 2.5])
        spec = Spectrum(values, KIND_GENERIC, None)
        values[0] = 7.0
        assert spec.eigenvalues.tolist() == [-1.0, 0.0, 0.0, 2.5]
        assert spec.eigenvalues.dtype == np.float64
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = 0.0


    def test_array_holders_compare_and_hash_by_identity(self):
        # The generated __eq__ would compare the arrays and raise.
        pairs = [
            (OperatorMatrix.from_entries(np.eye(2)), OperatorMatrix.from_entries(np.eye(2))),
            (Spectrum(np.ones(3), KIND_GENERIC, None), Spectrum(np.ones(3), KIND_GENERIC, None)),
            (model_space_form(3, 1.0), model_space_form(3, 1.0)),
        ]
        for a, b in pairs:
            assert a == a and not a != a
            assert a != b and not a == b
            assert len({a, a, b}) == 2 and hash(a) == hash(a)


class TestBasisIndependence:
    def test_first_kind_spectrum_frame_invariant(self):
        rng = np.random.default_rng(89)
        tensor = random_curvature_tensor(4, seed=11)
        base = eigen_spectrum(assemble_first_kind(tensor)).eigenvalues
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            rotated = frame_change(tensor, q)
            got = eigen_spectrum(assemble_first_kind(rotated)).eigenvalues
            np.testing.assert_allclose(got, base, atol=1e-8)

    def test_second_kind_spectrum_frame_invariant(self):
        rng = np.random.default_rng(97)
        tensor = random_curvature_tensor(4, seed=13)
        base = eigen_spectrum(assemble_second_kind(tensor)).eigenvalues
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        got = eigen_spectrum(assemble_second_kind(frame_change(tensor, q))).eigenvalues
        np.testing.assert_allclose(got, base, atol=1e-8)


class TestScalarCurvatureChecks:
    # Spheres in dimension 4 whose sums overflow: the scalar curvature is
    # 12 c, and at c = 1e308 the second-kind running sums of 2 c overflow
    # first.
    @pytest.mark.parametrize(
        "curvature, operator, message",
        [
            ("5e307", "first", "the scalar curvature overflows the float range"),
            ("5e307", "second", "the scalar curvature overflows the float range"),
            ("1e308", "first", "the scalar curvature overflows the float range"),
            ("1e308", "second", "the second_kind operator's assembly overflows the float range"),
        ],
    )
    def test_overflowing_sums_are_refused_by_name(self, capsys, curvature, operator, message):
        # The run exits 64 with the message, on arrays and on floats: no
        # OverflowError from fsum, and no false asymmetry from (x + x) / 2
        # of first-kind entries that agree.
        from gardinglab.cli import main

        argv = ["model-space", "sphere", "--n", "4", "--curvature", curvature]
        argv += ["--operator", operator]
        expected = [64, "", f"gardinglab: {message}\n"]
        assert [main(argv), *capsys.readouterr()] == expected
        got, modules = _loaded(_RUN_CLI_WITHOUT_NUMPY, *argv)
        assert got == expected and "numpy" not in modules
        tensor = model_space_form(4, float(curvature))
        assemble = assemble_first_kind if operator == "first" else assemble_second_kind
        with pytest.raises(ValueError, match=f"^{message}$"):
            scalar_curvature_checks(tensor, assemble(tensor))

    def test_a_partial_sum_overflow_is_not_refused_as_the_sum(self, tmp_path, capsys):
        # fsum overflows on the running sum, the exact sum is finite.  The
        # run is refused by the second-kind assembly, whose running sums
        # overflow, and not by the scalar curvature; the both-paths bit test
        # runs this file with numpy blocked too.
        from gardinglab.cli import main

        path = _write_tensor(tmp_path / "partial.txt", _PARTIAL_OVERFLOW)
        tensor = read_tensor_file(path)
        assert tensor.scalar_curvature() == 1.6e308
        first = assemble_first_kind(tensor)
        assert float(np.trace(first.entries)) == 0.8e308
        message = "the second_kind operator's assembly overflows the float range"
        with pytest.raises(ValueError, match=f"^{message}$"):
            scalar_curvature_checks(tensor, first)
        argv = ["model-space", "file", "--tensor-file", path]
        assert [main(argv), *capsys.readouterr()] == [64, "", f"gardinglab: {message}\n"]

    def test_unit_spheres(self):
        for n in range(3, 9):
            report = scalar_curvature_checks(model_space_form(n, 1.0))
            assert report.ok
            assert report.scalar_curvature == pytest.approx(n * (n - 1), rel=1e-12)

    def test_product(self):
        report = scalar_curvature_checks(model_product_spheres(2, 2))
        assert report.ok
        assert report.scalar_curvature == pytest.approx(4.0)

    def test_zero_tensor(self):
        report = scalar_curvature_checks(model_space_form(3, 0.0))
        assert report.ok
        assert report.scalar_curvature == 0.0

    def test_random_tensors(self):
        for seed in range(3):
            assert scalar_curvature_checks(random_curvature_tensor(5, seed=seed)).ok

    def test_assembled_operator_gives_the_same_record(self, monkeypatch):
        import gardinglab.curvature as curvature_mod

        for tensor in (random_curvature_tensor(5, seed=4), model_product_spheres(2, 3)):
            expected = scalar_curvature_checks(tensor).to_record()
            for assemble in (assemble_first_kind, assemble_second_kind):
                operator = assemble(tensor)
                with monkeypatch.context() as m:
                    # The handed-in kind must not be assembled again.
                    m.setattr(curvature_mod, assemble.__name__, None)
                    got = scalar_curvature_checks(tensor, operator).to_record()
                assert got == expected

    def test_assembled_operator_must_match_the_tensor(self):
        tensor = model_space_form(4, 1.0)
        for operator in (
            assemble_first_kind(model_space_form(5, 1.0)),
            OperatorMatrix.from_entries(np.eye(6)),
        ):
            with pytest.raises(ValueError, match="operator in dimension 4"):
                scalar_curvature_checks(tensor, operator)
