"""Model-space operators, symmetry validation, and the Jacobi eigensolver."""

import itertools
import re

import numpy as np
import pytest

from gardinglab.curvature import (
    KIND_FIRST,
    KIND_GENERIC,
    KIND_SECOND,
    CurvatureTensor,
    OperatorMatrix,
    assemble_first_kind,
    assemble_on_tensor_basis,
    assemble_second_kind,
    dimension_for_count,
    eigen_spectrum,
    full_symmetric_basis,
    jacobi_eigensystem,
    model_product_spheres,
    model_space_form,
    random_curvature_tensor,
    scalar_curvature_checks,
    trace_free_basis,
    trace_free_count,
    two_form_count,
    validate_curvature_symmetries,
    _round_robin_schedule,
)

from oracles import cyclic_jacobi_eigenvalues


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
        np.testing.assert_allclose(spectrum.array, np.ones(6), atol=1e-12)
        # Cross-check: twice the eigenvalue sum is n(n-1).
        assert 2 * spectrum.array.sum() == pytest.approx(12.0)

    def test_zero_tensor(self):
        mat = assemble_first_kind(model_space_form(4, 0.0))
        assert np.all(mat.entries == 0.0)

    def test_product_spectrum(self):
        mat = assemble_first_kind(model_product_spheres(2, 2))
        diag = np.sort(np.diag(mat.entries))
        np.testing.assert_allclose(diag, [0, 0, 0, 0, 1, 1], atol=1e-14)
        spectrum = eigen_spectrum(mat)
        np.testing.assert_allclose(spectrum.array, [0, 0, 0, 0, 1, 1], atol=1e-10)

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
        np.testing.assert_allclose(spectrum.array, np.ones(9), atol=1e-10)

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

    def test_trace_mode_decouples_for_space_forms(self):
        # On the full symmetric basis (trace-free + pure trace) the last
        # row/column couples to nothing for a space form.
        for c in (1.0, -2.0):
            tensor = model_space_form(4, c)
            full = assemble_on_tensor_basis(tensor, full_symmetric_basis(4))
            off = full[-1, :-1]
            np.testing.assert_allclose(off, 0.0, atol=1e-12)

    def test_size(self):
        mat = assemble_second_kind(model_space_form(6, 1.0))
        assert mat.N == trace_free_count(6) == 20
        assert mat.kind == KIND_SECOND


class TestJacobiEigensolver:
    def test_identity(self):
        w, q = jacobi_eigensystem(np.eye(6))
        np.testing.assert_allclose(w, np.ones(6))
        np.testing.assert_allclose(q @ q.T, np.eye(6), atol=1e-12)

    def test_diagonal(self):
        w, _ = jacobi_eigensystem(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])

    def test_two_by_two(self):
        w, _ = jacobi_eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(79)
        for n in (2, 5, 12, 35):
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2
            w, q = jacobi_eigensystem(a)
            fro = np.linalg.norm(a)
            assert np.linalg.norm(a - q @ np.diag(w) @ q.T) <= 1e-10 * (1 + fro)
            assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_matches_lapack_oracle(self):
        rng = np.random.default_rng(83)
        for n in (3, 8, 20):
            a = rng.normal(size=(n, n)) * 3
            a = (a + a.T) / 2
            w, _ = jacobi_eigensystem(a)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-9)

    def test_eigen_spectrum_round_trip(self):
        w, q = jacobi_eigensystem(np.diag([2.0, -1.0, 0.5]))
        rebuilt = q @ np.diag(w) @ q.T
        w2, _ = jacobi_eigensystem(rebuilt)
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
        w, _ = jacobi_eigensystem(a)
        fro = np.linalg.norm(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-13 * fro

    def test_round_robin_schedule_covers_each_pair_once(self):
        for m in range(2, 42):
            rounds = _round_robin_schedule(m)
            assert len(rounds) == m - 1 + m % 2
            for p, q in rounds:
                assert np.all(p < q) and np.unique(np.r_[p, q]).size == 2 * p.size
            pairs = sorted(pair for p, q in rounds for pair in zip(p.tolist(), q.tolist()))
            assert pairs == list(itertools.combinations(range(m), 2))

    @pytest.mark.parametrize("assemble", [assemble_first_kind, assemble_second_kind])
    def test_round_robin_matches_cyclic_loop(self, assemble):
        # Same rotations in another order: equal eigenvalues up to rounding.
        a = assemble(random_curvature_tensor(6, seed=3)).entries
        w, _ = jacobi_eigensystem(a)
        assert np.max(np.abs(w - cyclic_jacobi_eigenvalues(a))) <= 1e-13 * np.linalg.norm(a)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 21])
    def test_small_and_odd_sizes_match_lapack_oracle(self, n):
        a = _random_symmetric(n, seed=100 + n)
        w, q = jacobi_eigensystem(a)
        fro = np.linalg.norm(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-13 * fro
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-13

    def test_eigenvalue_only_path_is_bit_identical(self):
        # eigen_spectrum never accumulates Q; its eigenvalues must not move.
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
            w, _ = jacobi_eigensystem(matrix.entries)
            assert eigen_spectrum(matrix).array.tobytes() == w.tobytes()
        for matrix in operators[:2] + operators[-1:]:
            assert jacobi_eigensystem(matrix.entries, _vectors=False)[1] is None

    def test_eigenvalue_only_path_fails_the_same_way(self):
        a = _random_symmetric(30, seed=11)
        for max_sweeps in (1, 3):
            with pytest.raises(RuntimeError) as with_q:
                jacobi_eigensystem(a, max_sweeps=max_sweeps)
            with pytest.raises(RuntimeError) as without_q:
                jacobi_eigensystem(a, max_sweeps=max_sweeps, _vectors=False)
            assert str(without_q.value) == str(with_q.value)

    def test_reconstruction_and_orthogonality_at_104(self):
        a = assemble_second_kind(random_curvature_tensor(14, seed=5)).entries
        w, q = jacobi_eigensystem(a)
        assert np.linalg.norm(a - q @ np.diag(w) @ q.T) <= 1e-12 * np.linalg.norm(a)
        assert np.max(np.abs(q.T @ q - np.eye(104))) <= 1e-12
        assert np.all(np.diff(w) >= 0)

    def test_inactive_rows_pass_through(self):
        # S^7 x S^7 on trace-free tensors: only 13 of 104 rows have a
        # nonzero off-diagonal entry.
        a = assemble_second_kind(model_product_spheres(7, 7)).entries
        inactive = np.flatnonzero(~(a - np.diag(a.diagonal())).any(axis=1))
        assert inactive.size == 104 - 13
        w, q = jacobi_eigensystem(a)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-13 * np.linalg.norm(a))
        assert np.max(np.abs(q.T @ q - np.eye(104))) <= 1e-13
        _assert_exact_eigenpairs(a, w, q, inactive)

    def test_one_isolated_pair(self):
        a = np.diag([5.0, 1.0, 4.0, 2.0, 3.0, 0.0])
        a[1, 4] = a[4, 1] = 0.5
        w, q = jacobi_eigensystem(a)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-15)
        np.testing.assert_allclose(q @ np.diag(w) @ q.T, a, atol=1e-15)
        _assert_exact_eigenpairs(a, w, q, [0, 2, 3, 5])

    def test_zero_matrix(self):
        w, q = jacobi_eigensystem(np.zeros((7, 7)))
        assert np.all(w == 0.0)
        assert np.array_equal(q, np.eye(7))

    def test_max_sweeps_is_honoured(self):
        a = _random_symmetric(30, seed=7)
        w, q = jacobi_eigensystem(a)
        needed = next(k for k in range(1, 100) if _converges(a, k))
        assert needed > 2
        w_cap, q_cap = jacobi_eigensystem(a, max_sweeps=needed)
        assert np.array_equal(w_cap, w) and np.array_equal(q_cap, q)
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
        w, q = jacobi_eigensystem(np.array([[1.0, 1.0], [1.0, -1.0]]) * scale)
        np.testing.assert_allclose(w, [-np.sqrt(2.0) * scale, np.sqrt(2.0) * scale], rtol=1e-14)
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("power", [-900, -300, -1, 1, 300, 1000])
    def test_power_of_two_scale_is_exact(self, power):
        # Each entry stays normal, so scaling by 2^power scales the
        # eigenvalues exactly and leaves the eigenvectors as they are.
        a = _random_symmetric(12, seed=19)
        w, q = jacobi_eigensystem(a)
        w_scaled, q_scaled = jacobi_eigensystem(np.ldexp(a, power))
        assert np.array_equal(w_scaled, np.ldexp(w, power))
        assert np.array_equal(q_scaled, q)


def _assert_exact_eigenpairs(a, w, q, rows):
    """Rows never rotated: their unit vectors and diagonal entries come out unchanged."""
    for row in rows:
        unit = np.eye(a.shape[0])[:, row]
        cols = [j for j in range(a.shape[0]) if np.array_equal(q[:, j], unit)]
        assert len(cols) == 1 and w[cols[0]] == a[row, row], row


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


class TestBasisIndependence:
    def test_first_kind_spectrum_frame_invariant(self):
        rng = np.random.default_rng(89)
        tensor = random_curvature_tensor(4, seed=11)
        base = eigen_spectrum(assemble_first_kind(tensor)).array
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            rotated = tensor.frame_change(q)
            got = eigen_spectrum(assemble_first_kind(rotated)).array
            np.testing.assert_allclose(got, base, atol=1e-8)

    def test_second_kind_spectrum_frame_invariant(self):
        rng = np.random.default_rng(97)
        tensor = random_curvature_tensor(4, seed=13)
        base = eigen_spectrum(assemble_second_kind(tensor)).array
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        got = eigen_spectrum(assemble_second_kind(tensor.frame_change(q))).array
        np.testing.assert_allclose(got, base, atol=1e-8)


class TestScalarCurvatureChecks:
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
