"""Curvature operators of model spaces and a self-contained eigensolver.

A curvature tensor is stored densely as R[i,j,k,l] over an orthonormal
frame and must satisfy, within 1e-12 absolute,

    R_ijkl = -R_jikl = -R_ijlk,   R_ijkl = R_klij,
    R_ijkl + R_iklj + R_iljk = 0.

Two self-adjoint operators are assembled from it:

* the action on 2-forms over the basis ``{e_i ^ e_j : i < j}`` (declared
  orthonormal), whose matrix entry is ``R_ijkl`` directly -- this makes the
  unit sphere's spectrum all ones and the scalar curvature equal twice the
  eigenvalue sum;
* the projected action on trace-free symmetric 2-tensors over the basis of
  normalized off-diagonal symmetrizations plus Gram-Schmidt-orthonormalized
  diagonal differences, for which the scalar curvature equals 2n/(n+2)
  times the eigenvalue sum.

Spectra are extracted with a Jacobi rotation solver (off-diagonal threshold
1e-14 * ||A||_F, at most 100 sweeps) so the package carries no LAPACK
dependency on this path; numpy is used only for array storage and
arithmetic.  Each sweep runs in round-robin order: rounds of disjoint pairs
whose rotations are applied as one array update.  Rows with no nonzero
off-diagonal entry are skipped, so sparse model operators rotate only the
few rows that couple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import Record
from .symfun import SortedVector

__all__ = [
    "KIND_FIRST",
    "KIND_SECOND",
    "KIND_GENERIC",
    "CurvatureTensor",
    "OperatorMatrix",
    "Spectrum",
    "two_form_count",
    "trace_free_count",
    "dimension_for_count",
    "model_space_form",
    "model_product_spheres",
    "random_curvature_tensor",
    "assemble_first_kind",
    "assemble_second_kind",
    "trace_free_basis",
    "full_symmetric_basis",
    "assemble_on_tensor_basis",
    "jacobi_eigensystem",
    "eigen_spectrum",
    "scalar_curvature_checks",
    "CurvatureIdentityReport",
]

KIND_FIRST = "first_kind"
KIND_SECOND = "second_kind"
KIND_GENERIC = "generic"

_SYMMETRY_ATOL = 1e-12


def two_form_count(n: int) -> int:
    """Dimension of the 2-form space: n(n-1)/2."""
    return n * (n - 1) // 2


def trace_free_count(n: int) -> int:
    """Dimension of trace-free symmetric 2-tensors: (n-1)(n+2)/2."""
    return (n - 1) * (n + 2) // 2


def dimension_for_count(N: int, kind: str) -> Optional[int]:
    """Frame dimension n with the matching operator size, if one exists."""
    if kind == KIND_FIRST:
        n = int(round((1 + math.sqrt(1 + 8 * N)) / 2))
        return n if n >= 2 and two_form_count(n) == N else None
    if kind == KIND_SECOND:
        n = int(round((-1 + math.sqrt(9 + 8 * N)) / 2))
        return n if n >= 2 and trace_free_count(n) == N else None
    return None


@np.errstate(invalid="ignore")
def validate_curvature_symmetries(components: np.ndarray, atol: float = _SYMMETRY_ATOL) -> None:
    """Raise ValueError if any algebraic curvature identity fails."""
    r = components
    checks = {
        "antisymmetry_first_pair": np.max(np.abs(r + r.transpose(1, 0, 2, 3))),
        "antisymmetry_second_pair": np.max(np.abs(r + r.transpose(0, 1, 3, 2))),
        "pair_symmetry": np.max(np.abs(r - r.transpose(2, 3, 0, 1))),
        "first_bianchi": np.max(
            np.abs(r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2))
        ),
    }
    # Written so that a NaN (from a non-finite component) fails the check.
    bad = {name: float(v) for name, v in checks.items() if not v <= atol}
    if bad:
        raise ValueError(f"curvature symmetries violated beyond {atol}: {bad}")


@dataclass(frozen=True)
class CurvatureTensor:
    """Dense curvature tensor over an orthonormal frame in dimension n >= 3."""

    n: int
    components: np.ndarray

    @classmethod
    def from_components(cls, components, validate: bool = True) -> "CurvatureTensor":
        arr = np.array(components, dtype=float)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise ValueError(f"expected an (n,n,n,n) array, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 3:
            raise ValueError(f"dimension must be >= 3, got {n}")
        if validate:
            validate_curvature_symmetries(arr)
        arr.setflags(write=False)
        return cls(n=n, components=arr)

    def scalar_curvature(self) -> float:
        """Direct double trace: sum over i, j of R_ijij."""
        return float(np.einsum("ijij->", self.components))

    def frame_change(self, q: np.ndarray) -> "CurvatureTensor":
        """Components in the rotated frame e'_a = sum_i q[i, a] e_i."""
        rotated = np.einsum(
            "ia,jb,kc,ld,ijkl->abcd", q, q, q, q, self.components, optimize=True
        )
        return CurvatureTensor.from_components(rotated)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense symmetric operator matrix with its kind tag."""

    N: int
    entries: np.ndarray
    kind: str

    @classmethod
    def from_entries(cls, entries, kind: str = KIND_GENERIC) -> "OperatorMatrix":
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("operator matrix must be at least 1x1")
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
            asym = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
        if not asym <= _SYMMETRY_ATOL:
            raise ValueError(f"matrix asymmetry {asym} exceeds {_SYMMETRY_ATOL}")
        if kind not in (KIND_FIRST, KIND_SECOND, KIND_GENERIC):
            raise ValueError(f"unknown kind {kind!r}")
        if kind != KIND_GENERIC and dimension_for_count(arr.shape[0], kind) is None:
            raise ValueError(
                f"size {arr.shape[0]} does not match any dimension for kind {kind}"
            )
        arr.setflags(write=False)
        return cls(N=arr.shape[0], entries=arr, kind=kind)


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenvalues with the operator kind and frame dimension."""

    eigenvalues: SortedVector
    kind: str
    n: Optional[int]

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @property
    def array(self) -> np.ndarray:
        return self.eigenvalues.array


# ---------------------------------------------------------------------------
# Model spaces
# ---------------------------------------------------------------------------


def model_space_form(n: int, curvature: float) -> CurvatureTensor:
    """Constant-curvature tensor R_ijkl = c (d_ik d_jl - d_il d_jk)."""
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    eye = np.eye(n)
    comps = curvature * (
        np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    )
    return CurvatureTensor.from_components(comps)


def model_product_spheres(p: int, q: int) -> CurvatureTensor:
    """Product of unit round factors of dimensions p and q (block tensor)."""
    if p < 2 or q < 2:
        raise ValueError(f"both factors need dimension >= 2, got {p}, {q}")
    n = p + q
    factor = np.zeros(n, dtype=int)
    factor[p:] = 1
    same = factor[:, None] == factor[None, :]
    eye = np.eye(n)
    comps = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    # Keep only components with all four indices in one factor.
    mask = same[:, :, None, None] & same[:, None, :, None] & same[:, None, None, :]
    comps = np.where(mask, comps, 0.0)
    return CurvatureTensor.from_components(comps)


def random_curvature_tensor(n: int, seed: int = 0) -> CurvatureTensor:
    """Random tensor with all four identities, for stress tests.

    A Gaussian 4-array is (anti)symmetrized into the pair-symmetric space
    and the totally antisymmetric part removed, which projects exactly onto
    the kernel of the cyclic sum.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    g = rng.normal(size=(n, n, n, n))
    g = g - g.transpose(1, 0, 2, 3)
    g = g - g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    cyc = (g + g.transpose(0, 2, 3, 1) + g.transpose(0, 3, 1, 2)) / 3.0
    return CurvatureTensor.from_components(g - cyc)


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------


def _pair_indices(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def assemble_first_kind(tensor: CurvatureTensor) -> OperatorMatrix:
    """Matrix of the 2-form action over the orthonormal pair basis.

    Entry ((i,j), (k,l)) is R_ijkl for i < j, k < l in lexicographic order.
    """
    n = tensor.n
    pairs = _pair_indices(n)
    rows = np.array([p[0] for p in pairs])
    cols = np.array([p[1] for p in pairs])
    mat = tensor.components[rows[:, None], cols[:, None], rows[None, :], cols[None, :]]
    mat = (mat + mat.T) / 2.0
    return OperatorMatrix.from_entries(mat, kind=KIND_FIRST)


def trace_free_basis(n: int) -> np.ndarray:
    """(N2, n, n) orthonormal basis of trace-free symmetric 2-tensors.

    Off-diagonal elements (e_i e_j + e_j e_i)/sqrt(2) for i < j, followed by
    n-1 Gram-Schmidt-orthonormalized diagonal difference tensors.
    """
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(m)
    # Diagonal differences diag(e_k) - diag(e_{k+1}), orthonormalized.
    diags = []
    for k in range(n - 1):
        d = np.zeros(n)
        d[k] = 1.0
        d[k + 1] = -1.0
        for prev in diags:
            d = d - np.dot(d, prev) * prev
        d = d / np.linalg.norm(d)
        diags.append(d)
        mats.append(np.diag(d))
    return np.stack(mats, axis=0)


def full_symmetric_basis(n: int) -> np.ndarray:
    """Trace-free basis extended by the normalized identity (pure trace)."""
    return np.concatenate(
        [trace_free_basis(n), (np.eye(n) / math.sqrt(n))[None, :, :]], axis=0
    )


def assemble_on_tensor_basis(tensor: CurvatureTensor, basis: np.ndarray) -> np.ndarray:
    """Gram matrix <R_bar(B_a), B_b> of the symmetric-tensor action.

    R_bar(h)_ij = sum_{k,l} R_iklj h_kl; the basis need not be trace-free.
    """
    images = np.einsum("iklj,akl->aij", tensor.components, basis, optimize=True)
    mat = np.einsum("aij,bij->ab", images, basis, optimize=True)
    return (mat + mat.T) / 2.0


def assemble_second_kind(tensor: CurvatureTensor) -> OperatorMatrix:
    """Matrix of the projected symmetric-tensor action on trace-free tensors.

    Because every basis element is trace-free and the projection is
    orthogonal, the projected Gram matrix equals the unprojected one.
    """
    mat = assemble_on_tensor_basis(tensor, trace_free_basis(tensor.n))
    return OperatorMatrix.from_entries(mat, kind=KIND_SECOND)


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _round_robin_schedule(m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Rounds of disjoint pairs ``(p, q)``, p < q, that cover every pair of
    ``range(m)`` exactly once; the cached arrays are read-only.

    Circle method: index 0 stays put and the others move one place per round;
    for odd m a dummy index m pads the ring and its partner sits the round out.
    """
    size = m + m % 2
    ring = np.arange(size)
    rounds = []
    for _ in range(size - 1):
        x, y = ring[: size // 2], ring[::-1][: size // 2]
        p, q = np.minimum(x, y), np.maximum(x, y)
        p, q = p[q < m], q[q < m]
        p.setflags(write=False)
        q.setflags(write=False)
        rounds.append((p, q))
        ring = np.r_[ring[0], ring[-1], ring[1:-1]]
    return tuple(rounds)


def _off_norm(x: np.ndarray) -> float:
    # Square the off-diagonal entries directly; subtracting the diagonal
    # mass from the total cancels catastrophically near convergence.
    return float(np.linalg.norm(x - np.diag(x.diagonal())))


def _jacobi_sweep(a: np.ndarray, v: np.ndarray, rounds) -> None:
    """One sweep in place: each round rotates its disjoint pairs at once."""
    # Both angle branches are evaluated for every pair, so the lanes that
    # divide by zero are silenced here and then replaced by np.where.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p, q in rounds:
            apq = a[p, q]
            h = a[q, q] - a[p, p]
            # Standard stable angle formulas: t = apq / h where apq is
            # negligible against the diagonal gap (theta would overflow), and
            # t = 0 (c = 1, s = 0, an exact no-op) where apq == 0.
            theta = 0.5 * h / apq
            t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t = np.where(theta < 0.0, -t, t)
            t = np.where(np.abs(h) + 100.0 * np.abs(apq) == np.abs(h), apq / h, t)
            t = np.where(apq == 0.0, 0.0, t)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            cc, ss = c[:, None], s[:, None]
            row_p, row_q = a[p], a[q]
            a[p] = cc * row_p - ss * row_q
            a[q] = ss * row_p + cc * row_q
            col_p, col_q = a[:, p], a[:, q]
            a[:, p] = col_p * c - col_q * s
            a[:, q] = col_p * s + col_q * c
            a[p, q] = 0.0
            a[q, p] = 0.0
            vp, vq = v[:, p], v[:, q]
            v[:, p] = vp * c - vq * s
            v[:, q] = vp * s + vq * c


def jacobi_eigensystem(
    matrix: np.ndarray,
    off_tol_factor: float = 1e-14,
    max_sweeps: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin Jacobi diagonalization of a symmetric matrix.

    A sweep visits every ``(p, q)`` pair once, in rounds of disjoint pairs
    (Brent & Luk) whose rotations are applied together.  Only rows with a
    nonzero off-diagonal entry take part: a rotation never mixes another row
    in, so the other diagonal entries and unit vectors pass through as they
    are.

    The solve runs on the matrix scaled by the power of two that brings its
    largest entry into [0.5, 1), so ``||A||_F`` cannot overflow at any finite
    scale.  Every rotation angle is scale-invariant and the scale is exact,
    so the result is bit for bit the unscaled one wherever no entry falls
    to a subnormal.

    Returns (eigenvalues ascending, orthogonal Q with matching columns) so
    that ``A = Q diag(w) Q^T``.  Raises ValueError on non-finite entries, and
    RuntimeError, with the final ``off/||A||_F``, if the off-diagonal norm
    has not dropped below ``off_tol_factor * ||A||_F`` within
    ``max_sweeps`` full sweeps.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy(), np.eye(1)
    w = a.diagonal().copy()
    exponent = int(np.frexp(np.abs(a).max())[1])
    a = np.ldexp(a, -exponent)
    a = (a + a.T) / 2.0
    fro = float(np.linalg.norm(a))
    threshold = off_tol_factor * max(fro, np.finfo(float).tiny)
    active = np.flatnonzero((a != np.diag(a.diagonal())).any(axis=1))
    sub = a[np.ix_(active, active)]
    v = np.eye(active.size)
    for _ in range(max_sweeps):
        if _off_norm(sub) <= threshold:
            break
        _jacobi_sweep(sub, v, _round_robin_schedule(active.size))
    else:
        raise RuntimeError(
            f"Jacobi eigensolver did not converge within {max_sweeps} sweeps "
            f"(off/||A||_F = {_off_norm(sub) / fro:.3e})"
        )
    w[active] = np.ldexp(sub.diagonal(), exponent)
    q = np.eye(n)
    q[np.ix_(active, active)] = v
    order = np.argsort(w, kind="stable")
    return w[order], q[:, order]


def eigen_spectrum(matrix: OperatorMatrix) -> Spectrum:
    """Ordered spectrum of an operator matrix via the Jacobi solver."""
    w, _ = jacobi_eigensystem(matrix.entries)
    return Spectrum(
        eigenvalues=SortedVector.from_vector(w),
        kind=matrix.kind,
        n=dimension_for_count(matrix.N, matrix.kind),
    )


# ---------------------------------------------------------------------------
# Scalar-curvature identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureIdentityReport(Record):
    """Both eigenvalue-sum expressions of the scalar curvature, checked.

    ``spectra`` holds the two spectra the sums came from, keyed by operator
    kind; it is left out of records.
    """

    record_tag = "scalar_curvature_checks"

    n: int
    scalar_curvature: float
    first_kind_sum: float
    second_kind_sum: float
    first_kind_rel_err: float
    second_kind_rel_err: float
    first_kind_ok: bool
    second_kind_ok: bool
    spectra: dict = field(repr=False, compare=False, metadata={"record": False})

    @property
    def ok(self) -> bool:
        return self.first_kind_ok and self.second_kind_ok


def scalar_curvature_checks(
    tensor: CurvatureTensor, rel_tol: float = 1e-8
) -> CurvatureIdentityReport:
    """Check scal = 2 * sum(first-kind) = 2n/(n+2) * sum(second-kind)."""
    scal = tensor.scalar_curvature()
    spectra = {
        KIND_FIRST: eigen_spectrum(assemble_first_kind(tensor)),
        KIND_SECOND: eigen_spectrum(assemble_second_kind(tensor)),
    }
    n = tensor.n
    first = 2.0 * float(spectra[KIND_FIRST].array.sum())
    second = (2.0 * n / (n + 2.0)) * float(spectra[KIND_SECOND].array.sum())
    scale = max(1.0, abs(scal))
    err1 = abs(first - scal) / scale
    err2 = abs(second - scal) / scale
    return CurvatureIdentityReport(
        n=n,
        scalar_curvature=scal,
        first_kind_sum=first,
        second_kind_sum=second,
        first_kind_rel_err=err1,
        second_kind_rel_err=err2,
        first_kind_ok=err1 <= rel_tol,
        second_kind_ok=err2 <= rel_tol,
        spectra=spectra,
    )
