"""Curvature operators of model spaces and a self-contained eigensolver.

A curvature tensor is stored densely as R[i,j,k,l] over an orthonormal
frame and must satisfy, within 1e-12 absolute,

    R_ijkl = -R_jikl = -R_ijlk,   R_ijkl = R_klij,
    R_ijkl + R_iklj + R_iljk = 0.

Two self-adjoint operators are assembled from it:

* the action on 2-forms over the basis ``{e_i ^ e_j : i < j}`` (declared
  orthonormal), whose matrix entry is ``R_ijkl`` directly -- this makes the
  unit sphere's spectrum all ones and the scalar curvature equal twice the
  trace;
* the projected action on trace-free symmetric 2-tensors over the basis of
  normalized off-diagonal symmetrizations plus Gram-Schmidt-orthonormalized
  diagonal differences, for which the scalar curvature equals 2n/(n+2)
  times the trace.

Spectra are the eigenvalues of a Jacobi rotation solver (off-diagonal
threshold 1e-14 * ||A||_F, at most 100 sweeps) so the package carries no
LAPACK dependency on this path; numpy is used only for array storage and
arithmetic.  No eigenvectors are accumulated: every consumer of a spectrum
reads its eigenvalues alone.  Each sweep runs in round-robin order: rounds
of disjoint pairs whose rotations are applied as one array update.  Each
round works on a copy of the matrix laid out in its paired order, the ``p``
rows on top and their ``q`` partners below, so it rotates contiguous halves
and gathers nothing; one ``take`` moves the copy into the next round's
order.  Rows with no nonzero off-diagonal entry are skipped, so sparse model
operators rotate only the few rows that couple.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import Record
from .symfun import _sorted_entries
from .tables import trace_free_count, two_form_count

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
# Jacobi stops once the off-diagonal norm is below this fraction of ||A||_F.
_JACOBI_OFF_TOL = 1e-14
# Relative error within which the scalar curvature identities count as held.
_IDENTITY_RTOL = 1e-8


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


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """Dense curvature tensor over an orthonormal frame in dimension n >= 3.

    Like ``OperatorMatrix`` and ``Spectrum``, it holds an array, so equality
    is identity and instances hash by identity.
    """

    n: int
    components: np.ndarray

    @classmethod
    def from_components(cls, components) -> "CurvatureTensor":
        arr = np.array(components, dtype=float)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise ValueError(f"expected an (n,n,n,n) array, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 3:
            raise ValueError(f"dimension must be >= 3, got {n}")
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues with the operator kind and frame dimension.

    ``eigenvalues`` is a read-only copy of the given finite, non-decreasing
    1-d float array; callers sort with ``np.sort(..., kind="stable")``.
    """

    eigenvalues: np.ndarray
    kind: str
    n: Optional[int]

    def __post_init__(self) -> None:
        values = _sorted_entries(self.eigenvalues).copy()
        values.setflags(write=False)
        object.__setattr__(self, "eigenvalues", values)

    def __len__(self) -> int:
        return len(self.eigenvalues)


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
    n-1 Gram-Schmidt-orthonormalized diagonal difference tensors.  The array
    is built once per n and is read-only.
    """
    return _trace_free_basis(n)


@functools.lru_cache(maxsize=32)
def _trace_free_basis(n: int) -> np.ndarray:
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
    basis = np.stack(mats, axis=0)
    basis.setflags(write=False)
    return basis


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


@functools.lru_cache(maxsize=32)
def _paired_layouts(m: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Flat ``take`` indices that carry an ``s x s`` matrix, s = m + m % 2,
    through one sweep in paired order, and the flat index of a round's pivots.

    Round r's paired order lists the ``p`` indices of
    ``_round_robin_schedule(m)[r]``, then their ``q`` partners in the same
    pair order; for odd m the index that sits the round out is paired last
    with the dummy index m.  ``moves[0]`` takes natural order to round 0's
    order, ``moves[r]`` round r-1's order to round r's, and the last move
    round s-2's order back to natural order.  In paired order the pivots of
    a round are entries ``(i, h + i)`` and ``(h + i, i)``, h = s/2.  The
    cached arrays are read-only; the moves hold s^3 indices in all, 0.7 MB
    at s = 44.
    """
    size = m + m % 2
    half = size // 2
    orders = [np.arange(size)]
    for p, q in _round_robin_schedule(m):
        if p.size < half:
            (idle,) = set(range(m)).difference(p.tolist(), q.tolist())
            p, q = np.r_[p, idle], np.r_[q, m]
        orders.append(np.r_[p, q])
    orders.append(orders[0])
    moves = []
    for old, new in zip(orders[:-1], orders[1:]):
        position = np.empty(size, dtype=np.intp)
        position[old] = np.arange(size)
        src = position[new]
        move = (src[:, None] * size + src[None, :]).ravel()
        move.setflags(write=False)
        moves.append(move)
    diagonal = np.arange(half) * (size + 1)
    pivots = np.r_[diagonal + half, diagonal + half * size]
    pivots.setflags(write=False)
    return tuple(moves), pivots


def _off_norm(x: np.ndarray) -> float:
    # Square the off-diagonal entries directly; subtracting the diagonal
    # mass from the total cancels catastrophically near convergence.
    return float(np.linalg.norm(x - np.diag(x.diagonal())))


def _jacobi_sweep(x: np.ndarray, moves: tuple[np.ndarray, ...], pivots: np.ndarray) -> None:
    """One sweep in place on the ``s x s`` matrix ``x`` of ``_paired_layouts``.

    Each round works on a copy of the matrix in the round's paired order, so
    its ``p`` rows are the top half and its ``q`` rows the bottom half:
    ``app``, ``aqq`` and ``apq`` are diagonal views, and the rotations of
    all pairs update two contiguous row halves, then two column halves.
    One ``take`` moves the copy into the next round's order, and the last
    one back into ``x``.  A dummy row and column of +0.0 get ``c = 1``,
    ``s = 0`` exactly, which leaves every entry bit for bit as it is.
    """
    size = x.shape[0]
    half = size // 2
    step = size + 1
    layouts = [
        (
            buf,
            buf.reshape(2, half, size),
            buf.reshape(size, 2, half),
            buf[: half * step : step],
            buf[half * step :: step],
            buf[half : half * step : step],
        )
        for buf in (np.empty(size * size), np.empty(size * size))
    ]
    cs = np.empty((2, half))
    c, s = cs
    row_cs, col_cs = cs[:, None, :, None], cs[:, None, None, :]
    source = x.reshape(-1)
    # Both angle branches are evaluated for every pair, so the lanes that
    # divide by zero are silenced here and then overwritten.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for move, (buf, rows, cols, app, aqq, apq) in zip(
            moves[:-1], itertools.cycle(layouts)
        ):
            # mode="clip" lets take write to ``out`` without buffering.
            source.take(move, out=buf, mode="clip")
            # Standard stable angle formulas: t = apq / h where apq is
            # negligible against the diagonal gap (theta would overflow), and
            # t = 0 (c = 1, s = 0, an exact no-op) where apq == 0.  Adding
            # +0.0 turns theta = -0.0 into +0.0, so copysign flips t exactly
            # where theta < 0.
            h = aqq - app
            theta = 0.5 * h / apq
            t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            np.copysign(t, theta + 0.0, out=t)
            abs_h = np.abs(h)
            t = np.where(abs_h + 100.0 * np.abs(apq) == abs_h, apq / h, t)
            t[apq == 0.0] = 0.0
            np.divide(1.0, np.sqrt(t * t + 1.0), out=c)
            np.multiply(t, c, out=s)
            # rows[0] = c*rows[0] - s*rows[1], rows[1] = s*rows[0] + c*rows[1].
            prod = row_cs * rows
            np.subtract(prod[0, 0], prod[1, 1], out=rows[0])
            np.add(prod[1, 0], prod[0, 1], out=rows[1])
            prod = col_cs * cols
            np.subtract(prod[0, :, 0], prod[1, :, 1], out=cols[:, 0])
            np.add(prod[1, :, 0], prod[0, :, 1], out=cols[:, 1])
            buf[pivots] = 0.0
            source = buf
    source.take(moves[-1], out=x.reshape(-1), mode="clip")


def jacobi_eigensystem(matrix: np.ndarray, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by round-robin Jacobi rotations.

    A sweep visits every ``(p, q)`` pair once, in rounds of disjoint pairs
    (Brent & Luk) whose rotations are applied together, on a copy kept in
    each round's paired order (``_paired_layouts``); the float operations
    are those of gathering the rows and columns of each pair in natural
    order, so the eigenvalues are the same bits.  The convergence test reads
    the matrix in natural order once per sweep.  Only rows with a nonzero
    off-diagonal entry take part: a rotation never mixes another row in, so
    the other diagonal entries pass through as they are.

    The solve runs on the matrix scaled by the power of two that brings its
    largest entry into [0.5, 1), so ``||A||_F`` cannot overflow at any finite
    scale.  Every rotation angle is scale-invariant and the scale is exact,
    so the result is bit for bit the unscaled one wherever no entry falls
    to a subnormal.

    Returns the eigenvalues in ascending order, sorted stably.  Raises
    ValueError on non-finite entries, and RuntimeError, with the final
    ``off/||A||_F``, if the off-diagonal norm has not dropped below
    ``1e-14 * ||A||_F`` within ``max_sweeps`` full sweeps.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    w = a.diagonal().copy()
    exponent = int(np.frexp(np.abs(a).max())[1])
    a = np.ldexp(a, -exponent)
    a = (a + a.T) / 2.0
    fro = float(np.linalg.norm(a))
    threshold = _JACOBI_OFF_TOL * max(fro, np.finfo(float).tiny)
    active = np.flatnonzero((a != np.diag(a.diagonal())).any(axis=1))
    m = active.size
    padded = np.zeros((m + m % 2, m + m % 2))
    sub = padded[:m, :m]
    sub[...] = a[np.ix_(active, active)]
    for _ in range(max_sweeps):
        if _off_norm(sub) <= threshold:
            break
        _jacobi_sweep(padded, *_paired_layouts(m))
    else:
        raise RuntimeError(
            f"Jacobi eigensolver did not converge within {max_sweeps} sweeps "
            f"(off/||A||_F = {_off_norm(sub) / fro:.3e})"
        )
    w[active] = np.ldexp(sub.diagonal(), exponent)
    return np.sort(w, kind="stable")


def eigen_spectrum(matrix: OperatorMatrix) -> Spectrum:
    """Ordered spectrum of an operator matrix: the eigenvalues of
    ``jacobi_eigensystem(matrix.entries)``, bit for bit."""
    return Spectrum(
        eigenvalues=jacobi_eigensystem(matrix.entries),
        kind=matrix.kind,
        n=dimension_for_count(matrix.N, matrix.kind),
    )


# ---------------------------------------------------------------------------
# Scalar-curvature identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureIdentityReport(Record):
    """Both trace expressions of the scalar curvature, checked."""

    record_tag = "scalar_curvature_checks"

    n: int
    scalar_curvature: float
    first_kind_sum: float
    second_kind_sum: float
    first_kind_rel_err: float
    second_kind_rel_err: float
    first_kind_ok: bool
    second_kind_ok: bool

    @property
    def ok(self) -> bool:
        return self.first_kind_ok and self.second_kind_ok


def scalar_curvature_checks(
    tensor: CurvatureTensor, operator: Optional[OperatorMatrix] = None
) -> CurvatureIdentityReport:
    """Check scal = 2 tr(first-kind) = 2n/(n+2) tr(second-kind).

    The traces are taken of the assembled operators, so no eigensolve runs:
    the identities test the basis normalizations of the assembly, and a
    spectrum's sum equals its operator's trace up to rounding.  ``operator``
    may hand in the tensor's first- or second-kind operator, already
    assembled by ``assemble_first_kind`` or ``assemble_second_kind``; only
    the other kind is then assembled here, and the report is the same.
    """
    scal = tensor.scalar_curvature()
    n = tensor.n
    given = {}
    if operator is not None:
        if dimension_for_count(operator.N, operator.kind) != n:
            raise ValueError(
                f"expected a first- or second-kind operator in dimension {n}, "
                f"got a {operator.kind} operator of size {operator.N}"
            )
        given[operator.kind] = operator
    first_op = given.get(KIND_FIRST) or assemble_first_kind(tensor)
    second_op = given.get(KIND_SECOND) or assemble_second_kind(tensor)
    first = 2.0 * float(np.trace(first_op.entries))
    second = (2.0 * n / (n + 2.0)) * float(np.trace(second_op.entries))
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
        first_kind_ok=err1 <= _IDENTITY_RTOL,
        second_kind_ok=err2 <= _IDENTITY_RTOL,
    )
