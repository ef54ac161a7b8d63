"""Model-space operators, symmetry validation, and the eigensolver."""

import collections
import itertools
import json
import math
import re
import sys

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
    model_product_spheres,
    model_space_form,
    scalar_curvature_checks,
    trace_free_count,
    two_form_count,
    validate_curvature_symmetries,
    _eigenvalues,
    _from_canonical,
)
from gardinglab.io import read_tensor_file

from oracles import (
    cyclic_jacobi_eigenvalues,
    frame_change,
    full_symmetric_basis,
    gram_on_tensor_basis,
    random_curvature_tensor,
    round_robin_jacobi_by_gathers,
    round_robin_schedule,
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

    @pytest.mark.parametrize("curvature", ["nan", "inf", "-inf"])
    def test_non_finite_curvature_is_refused_by_name(self, capsys, curvature):
        # c * 0.0 and inf - inf put NaN into every symmetry check, so the
        # curvature is checked first.  The run exits 64 with the same text
        # on arrays and on floats.
        from gardinglab.cli import main

        argv = ["model-space", "sphere", "--n", "4", f"--curvature={curvature}"]
        expected = [64, "", f"gardinglab: curvature must be finite, got {curvature}\n"]
        assert [main(argv), *capsys.readouterr()] == expected
        got, modules = _loaded(_RUN_CLI_WITHOUT_NUMPY, *argv)
        assert got == expected and "numpy" not in modules

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


def _layout(monkeypatch, build, numpy_loaded):
    """``build()`` with numpy counted as loaded or not, so that
    ``_from_canonical`` writes the array or the tuple layout."""
    with monkeypatch.context() as m:
        if not numpy_loaded:
            m.delitem(sys.modules, "numpy")
        return build()


def _refusal(build):
    """The text of the ValueError ``build()`` raises, or None."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


def _random_canonical(rng, n):
    """Random independent components of dimension n, at magnitudes from
    1e-300 to 1e308, some of them signed zeros; in half the draws each set
    of four indices is given R_acbd = R_abcd + R_adbc, rounded, so that only
    rounding breaks the first Bianchi identity."""
    pairs = list(itertools.combinations(range(n), 2))
    keys = [(*p, *q) for a, p in enumerate(pairs) for q in pairs[a:]]
    kept = rng.random(len(keys)) < rng.random()
    values = rng.choice([-1.0, 1.0], len(keys)) * 10.0 ** rng.uniform(-300, 308, len(keys))
    values[rng.random(len(keys)) < 0.2] = 0.0
    values[rng.random(len(keys)) < 0.1] = -0.0
    entries = {key: float(v) for key, v, keep in zip(keys, values, kept) if keep}
    if rng.random() < 0.5:
        for a, b, c, d in itertools.combinations(range(n), 4):
            y = entries.get((a, b, c, d), 0.0) + entries.get((a, d, b, c), 0.0)
            if math.isfinite(y):
                entries[a, c, b, d] = y
    return entries


class TestCanonicalCheck:
    # _from_canonical checks only the first Bianchi identity, on the
    # independent components; these pin that it refuses what the dense
    # check of all four identities over all n^4 components refuses, with
    # the same text.

    @staticmethod
    def _dense_refusal(monkeypatch, n, entries, zero):
        """The dense check's text on the components built unchecked."""
        import gardinglab.curvature as curvature_mod

        with monkeypatch.context() as m:
            m.setattr(curvature_mod, "_check_canonical", lambda entries, zero: None)
            r = _from_canonical(n, entries, zero).components
        with np.errstate(over="ignore"):
            return _refusal(lambda: validate_curvature_symmetries(r))

    def test_refusal_text_is_the_dense_checks(self, monkeypatch):
        rng = np.random.default_rng(23)
        cases = [
            (n, _random_canonical(rng, n), float(rng.choice([0.0, -0.0])))
            for n in range(3, 9)
            for _ in range(60)
        ]
        # Every sum of the one condition overflows.
        cases.append((4, {(0, 1, 2, 3): 1e308, (0, 2, 1, 3): -1e308, (0, 3, 1, 2): 1e308}, 0.0))
        refused = 0
        for n, entries, zero in cases:
            expected = self._dense_refusal(monkeypatch, n, entries, zero)
            for numpy_loaded in (True, False):
                build = lambda: _from_canonical(n, entries, zero)  # noqa: E731
                got = _refusal(lambda: _layout(monkeypatch, build, numpy_loaded))
                assert got == expected, (n, entries, zero)
            refused += expected is not None
        assert expected == "curvature symmetries violated beyond 1e-12: {'first_bianchi': inf}"
        # About half are refused, so some are accepted beside those of n = 3,
        # which has no set of four indices.
        assert 150 <= refused < len(cases) - 60

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_or_zero_is_refused(self, monkeypatch, bad):
        # An entry no Bianchi condition reads, one that it does, and the fill.
        cases = [({(0, 1, 0, 1): bad}, 0.0), ({(0, 2, 1, 3): bad}, 0.0), ({(0, 1, 0, 1): 1.0}, bad)]
        for entries, zero in cases:
            for numpy_loaded in (True, False):
                build = lambda: _from_canonical(4, entries, zero)  # noqa: E731
                got = _refusal(lambda: _layout(monkeypatch, build, numpy_loaded))
                assert got == "curvature components must be finite", (entries, zero)

    def test_every_source_holds_the_other_identities_exactly(self, monkeypatch, tmp_path):
        # The premise that lets the check read the first Bianchi identity
        # alone: the partner writes make the antisymmetries and the pair
        # symmetry hold exactly, signed zeros included, on both layouts.
        files = []
        signed = (
            ("s4", model_space_form(4, -1.3)),
            ("s2xs3", model_product_spheres(2, 3)),
            ("r6", random_curvature_tensor(6, seed=3)),
        )
        for name, tensor in signed:
            entries = _canonical_entries(tensor.components)
            zeros = [key for key, value in entries.items() if value == 0.0]
            entries.update(dict.fromkeys(zeros[::2], -0.0))
            files.append(_write_tensor(tmp_path / f"{name}.txt", entries))
        sources = [lambda c=c: model_space_form(5, c) for c in (1.3, -1.3)]
        sources += [lambda: model_product_spheres(2, 3), lambda: model_product_spheres(3, 3)]
        sources += [lambda f=f: read_tensor_file(f) for f in files]
        for build in sources:
            for numpy_loaded in (True, False):
                tensor = _layout(monkeypatch, build, numpy_loaded)
                assert isinstance(tensor.components, tuple) is not numpy_loaded
                r = np.asarray(tensor.components).reshape((tensor.n,) * 4)
                assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) == 0.0
                assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) == 0.0
                assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) == 0.0
        # The sphere at negative curvature fills with -0.0 on both layouts.
        for numpy_loaded in (True, False):
            r = np.asarray(_layout(monkeypatch, sources[1], numpy_loaded).components)
            assert np.signbit(r[r == 0.0]).all()


class TestFirstKindAssembly:
    def test_unit_sphere_is_identity(self):
        mat = assemble_first_kind(model_space_form(4, 1.0))
        np.testing.assert_allclose(mat.entries, np.eye(6), atol=1e-14)
        spectrum = eigen_spectrum(mat)
        np.testing.assert_allclose(spectrum.eigenvalues, np.ones(6), atol=1e-12)
        # Cross-check: twice the eigenvalue sum is n(n-1).
        assert 2 * np.asarray(spectrum.eigenvalues).sum() == pytest.approx(12.0)

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
    """The eigensolver of every spectrum, ``curvature._eigenvalues``, against
    LAPACK (a test oracle only) and the Jacobi oracles of ``oracles``."""

    def test_identity(self):
        w = np.asarray(_eigenvalues(np.eye(6)))
        np.testing.assert_allclose(w, np.ones(6))
        # No row couples, so every diagonal entry passes through unrotated.
        assert np.array_equal(w, np.ones(6))

    def test_diagonal(self):
        w = np.asarray(_eigenvalues(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])

    def test_two_by_two(self):
        w = np.asarray(_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthogonality(self):
        # A = Q diag(w) Q^T with Q orthogonal keeps the trace and the
        # Frobenius norm: sum(w) = tr(A) and sum(w^2) = ||A||_F^2.
        rng = np.random.default_rng(79)
        for n in (2, 5, 12, 35):
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2
            w = np.asarray(_eigenvalues(a))
            fro = np.linalg.norm(a)
            _assert_similarity_invariants(a, w, 1e-10)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-10 * (1 + fro))
            assert np.all(np.diff(w) >= 0)

    def test_matches_lapack_oracle(self):
        rng = np.random.default_rng(83)
        for n in (3, 8, 20):
            a = rng.normal(size=(n, n)) * 3
            a = (a + a.T) / 2
            w = np.asarray(_eigenvalues(a))
            np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-9)

    def test_eigen_spectrum_round_trip(self):
        w = np.asarray(_eigenvalues(np.diag([2.0, -1.0, 0.5])))
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
        rebuilt = q @ np.diag(w) @ q.T
        w2 = np.asarray(_eigenvalues((rebuilt + rebuilt.T) / 2))
        np.testing.assert_allclose(w, w2, atol=1e-10)

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
        w = np.asarray(_eigenvalues(a))
        fro = np.linalg.norm(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-13 * fro

    def test_round_robin_schedule_covers_each_pair_once(self):
        for m in range(2, 42):
            rounds = round_robin_schedule(m)
            assert len(rounds) == m - 1 + m % 2
            for p, q in rounds:
                assert len(p) == len(q) and all(a < b for a, b in zip(p, q))
                assert len(set(p + q)) == 2 * len(p)
            pairs = sorted(pair for p, q in rounds for pair in zip(p, q))
            assert pairs == list(itertools.combinations(range(m), 2))

    @pytest.mark.parametrize("assemble", [assemble_first_kind, assemble_second_kind])
    def test_round_robin_matches_cyclic_loop(self, assemble):
        # The two Jacobi oracles run the same rotations in another order, and
        # the QL solver takes none: equal eigenvalues up to rounding.
        a = assemble(random_curvature_tensor(6, seed=3)).entries
        tol = 1e-13 * np.linalg.norm(a)
        cyclic = cyclic_jacobi_eigenvalues(a)
        assert np.max(np.abs(round_robin_jacobi_by_gathers(a) - cyclic)) <= tol
        assert np.max(np.abs(_eigenvalues(a) - cyclic)) <= tol

    @pytest.mark.parametrize(
        "kind, size, operator",
        [
            pytest.param(kind, size, operator, id=f"{kind}-{size}-{operator}")
            for kind, sizes in (
                ("sphere", (5, 9, 14)),
                ("product", ((3, 4), (7, 7))),
                ("file", range(5, 10)),
            )
            for size in sizes
            for operator in ("first", "second")
        ],
    )
    def test_model_spectra_operators_match_lapack_and_jacobi_oracle(self, kind, size, operator):
        # Every operator shape the model_spectra benchmark solves: spheres,
        # sphere products and dense random tensors (10 to 44 rows).
        if kind == "sphere":
            tensor = model_space_form(size, 1.3)
        elif kind == "product":
            tensor = model_product_spheres(*size)
        else:
            tensor = random_curvature_tensor(size, seed=size)
        assemble = assemble_first_kind if operator == "first" else assemble_second_kind
        a = assemble(tensor).entries
        w = np.asarray(_eigenvalues(a))
        tol = 1e-13 * np.linalg.norm(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= tol
        assert np.max(np.abs(w - round_robin_jacobi_by_gathers(a))) <= tol

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 21])
    def test_small_and_odd_sizes_match_lapack_oracle(self, n):
        a = _random_symmetric(n, seed=100 + n)
        w = np.asarray(_eigenvalues(a))
        fro = np.linalg.norm(a)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-13 * fro
        _assert_similarity_invariants(a, w, 1e-13)

    def test_eigenvalue_only_path_is_bit_identical(self):
        # eigen_spectrum keeps the solver's eigenvalues bit for bit, as a
        # tuple of Python floats.
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
            w = _eigenvalues(matrix.entries)
            values = eigen_spectrum(matrix).eigenvalues
            assert type(w) is list and type(values) is tuple
            assert all(type(t) is float for t in values)
            assert np.asarray(values).tobytes() == np.asarray(w).tobytes()

    def test_reconstruction_and_orthogonality_at_104(self):
        a = assemble_second_kind(random_curvature_tensor(14, seed=5)).entries
        w = np.asarray(_eigenvalues(a))
        _assert_similarity_invariants(a, w, 1e-12)
        assert np.all(np.diff(w) >= 0)

    def test_inactive_rows_pass_through(self):
        # S^7 x S^7 on trace-free tensors: only 8 of 104 rows have a
        # nonzero off-diagonal entry, the last Helmert diagonals, which
        # span both factors.
        a = assemble_second_kind(model_product_spheres(7, 7)).entries
        inactive = np.flatnonzero(~(a - np.diag(a.diagonal())).any(axis=1))
        assert inactive.size == 104 - 8
        w = np.asarray(_eigenvalues(a))
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-13 * np.linalg.norm(a))
        _assert_similarity_invariants(a, w, 1e-13)
        _assert_diagonal_entries_pass_through(a, w, inactive)

    def test_one_isolated_pair(self):
        a = np.diag([5.0, 1.0, 4.0, 2.0, 3.0, 0.0])
        a[1, 4] = a[4, 1] = 0.5
        w = np.asarray(_eigenvalues(a))
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-15)
        # The pair's block [[1, 0.5], [0.5, 3]] has eigenvalues 2 -+ sqrt(1.25).
        pair = np.setdiff1d(w, [5.0, 4.0, 2.0, 0.0])
        expected = 2.0 + np.sqrt(1.25) * np.array([-1.0, 1.0])
        np.testing.assert_allclose(pair, expected, atol=1e-15)
        _assert_diagonal_entries_pass_through(a, w, [0, 2, 3, 5])

    def test_zero_matrix(self):
        w = np.asarray(_eigenvalues(np.zeros((7, 7))))
        assert np.all(w == 0.0)
        assert w.shape == (7,) and not np.signbit(w).any()

    def test_iteration_cap_is_honoured_and_named(self, monkeypatch):
        # The fewest iterations per eigenvalue that solve this matrix give
        # the default cap's bits; one fewer raises, naming the cap.
        import gardinglab.curvature as curvature_mod

        a = _random_symmetric(30, seed=7)
        w = np.asarray(_eigenvalues(a))
        needed = next(
            cap for cap in range(1, curvature_mod._QL_ITERATIONS + 1) if _solves(monkeypatch, a, cap)
        )
        assert needed > 1
        monkeypatch.setattr(curvature_mod, "_QL_ITERATIONS", needed)
        assert np.asarray(_eigenvalues(a)).tobytes() == w.tobytes()
        monkeypatch.setattr(curvature_mod, "_QL_ITERATIONS", needed - 1)
        message = f"QL eigensolver did not converge within {needed - 1} iterations for one eigenvalue"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            _eigenvalues(a)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        a = np.eye(10)
        a[2, 5] = a[5, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _eigenvalues(a)

    def test_nan_matrix_fails_before_any_sweep(self):
        with pytest.raises(ValueError, match="non-finite"):
            _eigenvalues(np.full((6, 6), np.nan))

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_huge_entries_still_rotate(self, scale):
        # ||A||_F of these overflows; an inf threshold would return the diagonal.
        w = np.asarray(_eigenvalues(np.array([[1.0, 1.0], [1.0, -1.0]]) * scale))
        np.testing.assert_allclose(w, [-np.sqrt(2.0) * scale, np.sqrt(2.0) * scale], rtol=1e-14)
        assert abs(w.sum()) <= 1e-15 * scale  # the trace, 0

    @pytest.mark.parametrize("power", [-900, -300, -1, 1, 300, 1000])
    def test_power_of_two_scale_is_exact(self, power):
        # Each entry stays normal, so scaling by 2^power scales the
        # eigenvalues exactly.
        a = _random_symmetric(12, seed=19)
        w = np.asarray(_eigenvalues(a))
        w_scaled = np.asarray(_eigenvalues(np.ldexp(a, power)))
        assert np.array_equal(w_scaled, np.ldexp(w, power))


def _gather_oracle_cases():
    """(id, matrix) pairs on which the solver is checked against the
    round-robin Jacobi oracle: odd and even sizes, curvature operators,
    equal and signed-zero diagonals, zero pivots, rows that do not couple
    and power-of-two scales."""
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
    """The solver against the round-robin Jacobi oracle on the cases the
    Jacobi's paired row layout was checked on."""

    @pytest.mark.parametrize(
        "a", [pytest.param(a, id=label) for label, a in _gather_oracle_cases()]
    )
    def test_spectrum_bytes_match_the_gather_oracle(self, a):
        # Within 1e-13 ||A||_F of the oracle and of LAPACK, and the diagonal
        # entries of rows that do not couple are the oracle's bytes.
        w = np.asarray(_eigenvalues(a))
        oracle = round_robin_jacobi_by_gathers(a)
        tol = 1e-13 * _frobenius_norm(a)
        assert np.max(np.abs(w - oracle)) <= tol
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= tol
        inactive = np.flatnonzero(~(a - np.diag(a.diagonal())).any(axis=1))
        _assert_diagonal_entries_pass_through(a, w, inactive)
        _assert_diagonal_entries_pass_through(a, oracle, inactive)


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
    def test_float_jacobi_matches_the_gather_oracle(self, monkeypatch, a):
        # The solver on a tuple of row tuples, as an operator built without
        # numpy holds it, while numpy counts as not loaded: a list of Python
        # floats with the bits of the array solve, within 1e-13 ||A||_F of
        # the Jacobi oracle.
        rows = tuple(map(tuple, a.tolist()))
        with monkeypatch.context() as m:
            m.delitem(sys.modules, "numpy")
            w = _eigenvalues(rows)
        assert type(w) is list and all(type(t) is float for t in w)
        assert np.array(w).tobytes() == np.asarray(_eigenvalues(a)).tobytes()
        oracle = round_robin_jacobi_by_gathers(a)
        assert np.max(np.abs(np.array(w) - oracle)) <= 1e-13 * _frobenius_norm(a)

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
    def test_norms_take_the_same_fixed_order(self, monkeypatch, n):
        # Every dot product and norm of the solve is a math.fsum, correctly
        # rounded: none goes through the built-in sum, whose algorithm
        # changed in Python 3.12, so the bits do not depend on the version.
        import gardinglab.curvature as curvature_mod

        a = _random_symmetric(n, seed=n) * 10.0 ** np.random.default_rng(n).integers(
            -8, 8, size=(n, n)
        )
        sym = (a + a.T) / 2
        w = np.asarray(_eigenvalues(sym))
        with monkeypatch.context() as m:
            m.setattr(curvature_mod, "sum", _no_builtin_sum, raising=False)
            assert np.asarray(_eigenvalues(sym)).tobytes() == w.tobytes()
        assert np.max(np.abs(w - np.linalg.eigvalsh(sym))) <= 1e-13 * np.linalg.norm(sym)

    def test_float_kernels_keep_python_floats(self):
        tensor = model_space_form(4, 1.3)
        flat = CurvatureTensor(n=4, components=tuple(tensor.components.ravel().tolist()))
        assert type(flat.components) is tuple
        assert flat.scalar_curvature() == tensor.scalar_curvature() == math.fsum([1.3] * 12)
        with pytest.raises(ValueError, match="dimension must be >= 3"):
            _from_canonical(2, {})


# The error text of OperatorMatrix.from_entries on the rows of argv[1], a
# JSON list, and the kind in argv[2], if any, with numpy blocked.
_FROM_ENTRIES_WITHOUT_NUMPY = _BLOCK_NUMPY + """
from gardinglab.curvature import OperatorMatrix
try:
    OperatorMatrix.from_entries(json.loads(sys.argv[1]), *sys.argv[2:])
    code = None
except ValueError as exc:
    code = str(exc)
"""


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
            [t.hex() for t in eigen_spectrum(op).eigenvalues] for op in ops
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


def _solves(monkeypatch, a, cap):
    """Whether the solver finishes ``a`` with at most ``cap`` iterations per
    eigenvalue."""
    import gardinglab.curvature as curvature_mod

    with monkeypatch.context() as m:
        m.setattr(curvature_mod, "_QL_ITERATIONS", cap)
        try:
            _eigenvalues(a)
        except RuntimeError:
            return False
    return True


def _frobenius_norm(a):
    """||A||_F without under- or overflow at any finite scale."""
    scale = np.abs(a).max()
    return scale * np.linalg.norm(a / scale) if scale else 0.0


def _no_builtin_sum(*args, **kwargs):
    raise AssertionError("the built-in sum was called")


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entries_rejected(self, bad):
        # Refused by name on arrays and on floats, off the diagonal and on
        # it.  inf - inf is NaN, so the asymmetry check alone would call a
        # symmetric matrix with one such entry asymmetric.
        for i, j in ((2, 5), (1, 1)):
            a = np.eye(10)
            a[i, j] = a[j, i] = bad
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                OperatorMatrix.from_entries(a)
            got, modules = _loaded(_FROM_ENTRIES_WITHOUT_NUMPY, json.dumps(a.tolist()))
            assert got == "matrix has non-finite entries" and "numpy" not in modules

    def test_ragged_rows_are_refused_alike(self):
        # Rows of unequal lengths get one message on both paths.
        rows = [[1.0, 2.0], [2.0]]
        with pytest.raises(ValueError) as info:
            OperatorMatrix.from_entries(rows)
        got, modules = _loaded(_FROM_ENTRIES_WITHOUT_NUMPY, json.dumps(rows))
        assert got == str(info.value) == "expected a square matrix, got rows of lengths [1, 2]"
        assert "numpy" not in modules

    @pytest.mark.parametrize(
        "rows, kind, message",
        [
            ([1.0, 2.0], KIND_GENERIC, "expected a square matrix, got shape (2,)"),
            ([[[1.0]]], KIND_GENERIC, "expected a square matrix, got shape (1, 1, 1)"),
            ([], KIND_GENERIC, "expected a square matrix, got shape (0,)"),
            ([[]], KIND_GENERIC, "expected a square matrix, got shape (1, 0)"),
            ([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]], KIND_GENERIC, "expected a square matrix, got shape (2, 3)"),
            ([[1.0, 2.0], [2.0]], KIND_GENERIC, "expected a square matrix, got rows of lengths [1, 2]"),
            ([[1.0, math.inf], [math.inf, 1.0]], KIND_GENERIC, "matrix has non-finite entries"),
            ([[0.0, 1.0], [0.0, 0.0]], KIND_GENERIC, "matrix asymmetry 1.0 exceeds 1e-12"),
            ([[1.0]], "bogus", "unknown kind 'bogus'"),
            (np.eye(5).tolist(), KIND_FIRST, "size 5 does not match any dimension for kind first_kind"),
            (np.eye(6).tolist(), KIND_SECOND, "size 6 does not match any dimension for kind second_kind"),
        ],
        ids=["1d", "3d", "empty", "empty-row", "not-square", "ragged", "non-finite",
             "asymmetric", "unknown-kind", "first-size", "second-size"],
    )
    def test_refusals_keep_the_array_reading_text(self, rows, kind, message):
        # The text numpy's reading of the rows gave, in-process and with
        # numpy blocked.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OperatorMatrix.from_entries(rows, kind)
        got, modules = _loaded(_FROM_ENTRIES_WITHOUT_NUMPY, json.dumps(rows), kind)
        assert got == message and "numpy" not in modules

    def test_arrays_are_read_as_float_rows(self):
        # An array is held as the tuple of its rows; its shape is read as
        # numpy gives it.
        matrix = OperatorMatrix.from_entries(np.diag([1.0, -0.0, 2.5]))
        assert matrix.entries == ((1.0, 0.0, 0.0), (0.0, -0.0, 0.0), (0.0, 0.0, 2.5))
        assert all(type(t) is float for row in matrix.entries for t in row)
        assert math.copysign(1.0, matrix.entries[1][1]) == -1.0
        for entries, message in (
            (np.zeros((0, 0)), "operator matrix must be at least 1x1"),
            (np.array(5.0), "expected a square matrix, got shape ()"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                OperatorMatrix.from_entries(entries)

    def test_assembly_builds_its_operator_without_from_entries(self, monkeypatch):
        # An assembled matrix is square, exactly symmetric and of its kind's
        # size by construction, so it is not checked again.
        expected = [
            np.asarray(assemble(model_product_spheres(2, 3)).entries)
            for assemble in (assemble_first_kind, assemble_second_kind)
        ]
        monkeypatch.setattr(OperatorMatrix, "from_entries", None)
        for assemble, want in zip((assemble_first_kind, assemble_second_kind), expected):
            got = assemble(model_product_spheres(2, 3))
            assert np.asarray(got.entries).tobytes() == want.tobytes()

    def test_near_symmetric_rows_are_stored_exactly_symmetric(self):
        # Within the 1e-12 band an entry may differ from its transpose; both
        # are stored as their mean, so the solver reads symmetric rows and
        # gives the eigenvalues of the symmetrized array.
        a = _random_symmetric(5, seed=3)
        a[0, 3] += 1e-13
        for entries in (a, a.tolist()):
            rows = OperatorMatrix.from_entries(entries).entries
            assert rows == tuple(zip(*rows))
            assert rows[0][3] == rows[3][0] == (a[0, 3] + a[3, 0]) / 2
        spectrum = eigen_spectrum(OperatorMatrix.from_entries(a))
        assert spectrum.eigenvalues == tuple(_eigenvalues((a + a.T) / 2))

    @pytest.mark.parametrize(
        "rows",
        [
            ((1.0, math.nan, 0.0), (math.nan, 1.0, 0.0), (0.0, 0.0, 1.0)),
            ((1.0, math.inf, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
            ((1.0, 0.0), (0.0, math.nan)),
        ],
        ids=["symmetric-nan", "one-sided-inf", "diagonal-nan"],
    )
    def test_directly_built_non_finite_operator_is_refused(self, rows):
        # An operator built without either door is not checked on the way
        # in; the solver still refuses its non-finite entries.
        matrix = OperatorMatrix(rows, KIND_GENERIC)
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            eigen_spectrum(matrix)

    def test_an_overflowing_eigenvalue_is_refused_by_name(self):
        # Every entry is finite, the eigenvalue 2e308 is not.
        matrix = OperatorMatrix.from_entries([[1e308, 1e308], [1e308, 1e308]])
        with pytest.raises(ValueError, match="^an eigenvalue overflows the float range$"):
            eigen_spectrum(matrix)

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
        assert spec.eigenvalues == (-1.0, 0.0, 0.0, 2.5)
        assert all(type(t) is float for t in spec.eigenvalues)
        with pytest.raises(TypeError):
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
