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
  normalized off-diagonal symmetrizations ``(e_i e_j + e_j e_i)/sqrt(2)``,
  i < j, followed by the Helmert diagonals
  ``diag(1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1))``, k = 1..n-1 (what
  Gram-Schmidt makes of the differences ``e_{k-1} - e_k``), for which the
  scalar curvature equals 2n/(n+2) times the trace.

Every number on the record path comes from operations whose order is fixed
by the code, not by a BLAS or SIMD kernel: element-wise ``+ - * /``,
square roots, index gathers, sequential running sums (``np.cumsum``) and
numpy's pairwise sum (``np.add.reduce``, reproduced on floats by
``symfun._pairwise_sum``).  The second-kind operator is a sparse
contraction: an off-diagonal basis element is a pair of index gathers, and
all Helmert diagonals come from one running sum over the diagonal slices
``R_illj`` (and, for the Gram matrix, over each image's diagonal).  The
scalar curvature and the operator traces of the identity checks are
correctly rounded sums (``math.fsum``), so no order of the terms enters.
Jacobi's ``||A||_F`` and off-diagonal norm are square roots of pairwise
sums of the squares, row by row and then over the rows.

Spectra are the eigenvalues of a Jacobi rotation solver (off-diagonal
threshold 1e-14 * ||A||_F, at most 100 sweeps) so the package carries no
LAPACK dependency on this path.  No eigenvectors are accumulated: every
consumer of a spectrum reads its eigenvalues alone.  Each sweep runs in
round-robin order: rounds of disjoint pairs whose rotations are applied as
one update, every angle of a round first, then all row updates, then all
column updates.  On numpy each round works on a copy of the matrix laid out
in its paired order, the ``p`` rows on top and their ``q`` partners below,
so it rotates contiguous halves and gathers nothing; one ``take`` moves the
copy into the next round's order.  Rows with no nonzero off-diagonal entry
are skipped, so sparse model operators rotate only the few rows that
couple.

Two paths run the same float operations in the same order, so they give
the same bits.  Every tensor source (``model_space_form``,
``model_product_spheres``, ``io.parse_tensor_text``) lists its nonzero
independent components and hands them to ``_from_canonical``, which fills
in the rest by symmetry and alone decides the layout: while numpy is not
loaded (``"numpy" not in sys.modules``) a tensor of dimension n <= 12
(``_FLOAT_DIM``) holds the flat tuple of its n^4 components in row-major
order, and otherwise a float array.  The layout picks the path of what
follows: on the tuple ``OperatorMatrix`` holds a tuple of row tuples, and
the validation, both assemblers and the identity checks run on Python
floats; so does the Jacobi solver for at most 40 active rows
(``_FLOAT_ACTIVE_ROWS``) while numpy is not loaded, and
``jacobi_eigensystem`` then returns a sorted list (``sorted`` is stable,
as ``np.sort(kind="stable")`` is, so ``-0.0`` and ``0.0`` keep their
order).  Otherwise everything runs on numpy arrays: past either bound the
float work costs more than numpy's import, so a larger tensor loads numpy
before its components are built, and a solve with more active rows loads
it before its first sweep (the bounds and their measurements are at
``_FLOAT_DIM``).  Below them the import costs a ``model-space`` run of the
CLI more than the float work, so that run loads no numpy: from the shell
(2-core host, Python 3.11, numpy 2.4, no bytecode cache, median of 7 runs)
``model-space sphere --n 6 --curvature 1.3`` took 285 ms with numpy and
187 ms on floats, and a random n = 4 tensor file's second-kind operator
236 and 176 ms.  In-process callers, which have numpy loaded, keep the
array kernels for operators of up to a hundred rows.  numpy is imported
only inside the functions that build arrays.  Which path ran shows in the
types of ``CurvatureTensor.components``, ``OperatorMatrix.entries`` and
the eigenvalues, so a caller that needs an array converts them with
``np.asarray`` (``components`` is then reshaped to (n, n, n, n)).

``Spectrum``, ``KIND_FIRST`` and ``KIND_SECOND`` are defined in ``tables``,
which loads no numpy, so the classifier reads them without this module;
they are re-exported here as the same objects.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from operator import add, sub
from typing import TYPE_CHECKING, Optional, Union

from .config import Record
from .symfun import _pairwise_sum
from .tables import KIND_FIRST, KIND_SECOND, Spectrum, trace_free_count, two_form_count

if TYPE_CHECKING:
    import numpy as np

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
    "validate_curvature_symmetries",
    "model_space_form",
    "model_product_spheres",
    "assemble_first_kind",
    "assemble_second_kind",
    "jacobi_eigensystem",
    "eigen_spectrum",
    "scalar_curvature_checks",
    "CurvatureIdentityReport",
]

KIND_GENERIC = "generic"

_SYMMETRY_ATOL = 1e-12
# Jacobi stops once the off-diagonal norm is below this fraction of ||A||_F.
_JACOBI_OFF_TOL = 1e-14
# Relative error within which the scalar curvature identities count as held.
_IDENTITY_RTOL = 1e-8
# The off-diagonal entries of the trace-free basis.
_SQRT_HALF = 1.0 / math.sqrt(2.0)
# Bounds of the float path, past which numpy's import costs less than the
# Python float work.  Measured in-process on a 2-core host (Python 3.11,
# numpy 2.4), where the import took 54-100 ms: building, assembling and
# checking a sphere or product tensor on floats took 33-53 ms at n = 12,
# 47-65 ms at n = 13 and about 95 ms at n = 14 (the n^4 components and
# their symmetry partners dominate), against at most 4 ms on arrays; a
# dense Jacobi solve took 41-69 ms on floats against 10-15 ms on arrays at
# 36 active rows, 55-94 against 11-18 ms at 40 and 80-139 against 15-32 ms
# at 44.
_FLOAT_DIM = 12
_FLOAT_ACTIVE_ROWS = 40


def dimension_for_count(N: int, kind: str) -> Optional[int]:
    """Frame dimension n with the matching operator size, if one exists."""
    if kind == KIND_FIRST:
        n = int(round((1 + math.sqrt(1 + 8 * N)) / 2))
        return n if n >= 2 and two_form_count(n) == N else None
    if kind == KIND_SECOND:
        n = int(round((-1 + math.sqrt(9 + 8 * N)) / 2))
        return n if n >= 2 and trace_free_count(n) == N else None
    return None


@functools.lru_cache(maxsize=8)
def _symmetry_partners(n: int) -> tuple[tuple[int, ...], ...]:
    """Flat indices of R_jikl, R_ijlk, R_klij, R_iljk and R_iklj at each
    flat position (i, j, k, l), the partners the identities compare.

    The partner that reads axis ``order[t]`` of (i, j, k, l) in place t
    sits at the sum of each index times its stride, ``n^(3-t)``."""
    partners = []
    for order in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (0, 3, 1, 2), (0, 2, 3, 1)):
        s0, s1, s2, s3 = (n ** (3 - order.index(axis)) for axis in range(4))
        partners.append(
            tuple(
                a + b + c + d
                for a in range(0, n * s0, s0)
                for b in range(0, n * s1, s1)
                for c in range(0, n * s2, s2)
                for d in range(0, n * s3, s3)
            )
        )
    return tuple(partners)


def _max_abs(values) -> float:
    """``np.max(np.abs(values))``: NaN if any value is NaN."""
    mags = list(map(abs, values))
    return math.nan if any(map(math.isnan, mags)) else max(mags)


def _fsum(values, name: str) -> float:
    """``math.fsum`` of a list of finite floats; ValueError naming ``name``
    where the sum is past the float range.  fsum also overflows where only
    a partial sum does, so the exact rational sum, rounded the same way,
    decides then."""
    try:
        return math.fsum(values)
    except OverflowError:
        from fractions import Fraction

        try:
            return float(sum(map(Fraction, values)))
        except OverflowError:
            raise ValueError(f"the {name} overflows the float range") from None


def validate_curvature_symmetries(components, atol: float = _SYMMETRY_ATOL) -> None:
    """Raise ValueError if any algebraic curvature identity fails.

    ``components`` is an (n, n, n, n) array, or the flat tuple of its n^4
    entries in row-major order, checked on Python floats with the same
    float operations.
    """
    r = components
    if isinstance(r, tuple):
        jikl, ijlk, klij, iljk, iklj = (
            map(r.__getitem__, partner)
            for partner in _symmetry_partners(math.isqrt(math.isqrt(len(r))))
        )
        checks = {
            "antisymmetry_first_pair": _max_abs(map(add, r, jikl)),
            "antisymmetry_second_pair": _max_abs(map(add, r, ijlk)),
            "pair_symmetry": _max_abs(map(sub, r, klij)),
            "first_bianchi": _max_abs(map(add, map(add, r, iljk), iklj)),
        }
    else:
        import numpy as np

        with np.errstate(invalid="ignore"):
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

    ``components`` is a read-only (n, n, n, n) float array, or, for a tensor
    built on the float path while numpy was not loaded, the flat tuple of
    its n^4 entries in row-major order (see the module docstring); a caller
    that needs the array takes ``np.asarray(t.components).reshape((t.n,) *
    4)``, which is the same array either way.  Like ``OperatorMatrix`` and
    ``Spectrum``, equality is identity and instances hash by identity.
    """

    n: int
    components: Union[tuple, "np.ndarray"]

    @classmethod
    def from_components(cls, components) -> "CurvatureTensor":
        import numpy as np

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
        """Direct double trace, correctly rounded: sum over i, j of R_ijij.

        R_ijij is the diagonal of the components read as an (n^2, n^2)
        matrix, every (n^2 + 1)-th flat entry.  Raises ValueError where the
        sum is past the float range."""
        r = self.components
        step = self.n * self.n + 1
        diagonal = r[::step] if isinstance(r, tuple) else r.reshape(-1)[::step].tolist()
        return _fsum(diagonal, "scalar curvature")


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense symmetric operator matrix with its kind tag.

    ``entries`` is a read-only float array, or, for a matrix built while
    numpy was not loaded, a tuple of row tuples of Python floats; a caller
    that needs the array takes ``np.asarray(entries)``, which is the same
    array either way.
    """

    N: int
    entries: Union[tuple, "np.ndarray"]
    kind: str

    @classmethod
    def from_entries(cls, entries, kind: str = KIND_GENERIC) -> "OperatorMatrix":
        if "numpy" not in sys.modules:
            arr = tuple(tuple(map(float, row)) for row in entries)
            shape = (len(arr), *{len(row) for row in arr})
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"expected a square matrix, got shape {shape}")
            if not all(map(math.isfinite, itertools.chain(*arr))):
                raise ValueError("matrix has non-finite entries")
            asym = _max_abs(map(sub, itertools.chain(*arr), itertools.chain(*zip(*arr))))
        else:
            import numpy as np

            arr = np.array(entries, dtype=float)
            shape = arr.shape
            if arr.ndim != 2 or shape[0] != shape[1]:
                raise ValueError(f"expected a square matrix, got shape {shape}")
            if not np.isfinite(arr).all():
                raise ValueError("matrix has non-finite entries")
            asym = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
        if shape[0] < 1:
            raise ValueError("operator matrix must be at least 1x1")
        if not asym <= _SYMMETRY_ATOL:
            raise ValueError(f"matrix asymmetry {asym} exceeds {_SYMMETRY_ATOL}")
        if kind not in (KIND_FIRST, KIND_SECOND, KIND_GENERIC):
            raise ValueError(f"unknown kind {kind!r}")
        if kind != KIND_GENERIC and dimension_for_count(shape[0], kind) is None:
            raise ValueError(f"size {shape[0]} does not match any dimension for kind {kind}")
        if not isinstance(arr, tuple):
            arr.setflags(write=False)
        return cls(N=shape[0], entries=arr, kind=kind)


# ---------------------------------------------------------------------------
# Model spaces
# ---------------------------------------------------------------------------


def _partners(a, b, c, d):
    """The eight components that the symmetries tie to the independent one
    (a, b, c, d), as ``(p, q, r, s, sign)`` with R_pqrs = sign * R_abcd."""
    for p, q, sp in ((a, b, 1.0), (b, a, -1.0)):
        for r, s, ss in ((c, d, 1.0), (d, c, -1.0)):
            yield p, q, r, s, sp * ss
            yield r, s, p, q, sp * ss


def _from_canonical(n: int, entries: dict, zero: float = 0.0) -> CurvatureTensor:
    """Validated tensor with the independent components ``entries``,
    ``(i, j, k, l) -> value``, 0-based with i < j, k < l, (i, j) <= (k, l).

    Each entry also sets the components ``_partners`` ties to it, and
    every component no entry reaches is ``zero``; canonical keys are
    unique, so no two entries write the same component.  While numpy is not
    loaded and ``n <= _FLOAT_DIM`` the components are the flat row-major
    tuple of n^4 Python floats, otherwise a read-only (n, n, n, n) array
    with the same bits.
    """
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    if n <= _FLOAT_DIM and "numpy" not in sys.modules:
        comps = [zero] * n**4
        for key, value in entries.items():
            for p, q, r, s, sign in _partners(*key):
                comps[((p * n + q) * n + r) * n + s] = sign * value
        components = tuple(comps)
    else:
        import numpy as np

        keys = np.array(list(entries), dtype=np.intp).reshape(-1, 4).T
        values = np.fromiter(entries.values(), dtype=float, count=len(entries))
        components = np.full((n,) * 4, zero, dtype=float)
        for p, q, r, s, sign in _partners(*keys):
            components[p, q, r, s] = sign * values
        components.setflags(write=False)
    validate_curvature_symmetries(components)
    return CurvatureTensor(n=n, components=components)


def model_space_form(n: int, curvature: float) -> CurvatureTensor:
    """Constant-curvature tensor R_ijkl = c (d_ik d_jl - d_il d_jk).

    Every other component is ``c * 0.0``, as the formula gives it: -0.0
    for negative c.  A non-finite c raises ValueError."""
    if not math.isfinite(curvature):
        raise ValueError(f"curvature must be finite, got {curvature}")
    entries = {(i, j, i, j): curvature for i, j in _pair_indices(n)}
    return _from_canonical(n, entries, zero=curvature * 0.0)


def model_product_spheres(p: int, q: int) -> CurvatureTensor:
    """Product of unit round factors of dimensions p and q (block tensor)."""
    if p < 2 or q < 2:
        raise ValueError(f"both factors need dimension >= 2, got {p}, {q}")
    # Only components with all four indices in one factor are nonzero.
    pairs = _pair_indices(p + q)
    return _from_canonical(p + q, {(i, j, i, j): 1.0 for i, j in pairs if (i < p) == (j < p)})


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------


def _pair_indices(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _symmetrized(mat):
    """``(mat + mat.T) / 2`` of a square list of rows or float array, except
    that a nonzero entry equal to its transpose is kept as it is.  That is
    the formula's value wherever the sum does not overflow, so a pair that
    agrees stays finite at any scale and no other bit changes."""
    if isinstance(mat, list):
        return [
            [x if x == y and x != 0.0 else (x + y) / 2.0 for x, y in zip(row, col)]
            for row, col in zip(mat, zip(*mat))
        ]
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        return np.where((mat == mat.T) & (mat != 0.0), mat, (mat + mat.T) / 2.0)


def _assembled(mat, kind: str) -> OperatorMatrix:
    """The operator of an assembled matrix, symmetrized.  A tensor's
    components are finite, so an entry that is not comes from a sum of the
    assembly that overflowed, although the exact entry may be finite; it is
    refused with a message that says so."""
    mat = _symmetrized(mat)
    if isinstance(mat, list):
        finite = all(map(math.isfinite, itertools.chain(*mat)))
    else:
        import numpy as np

        finite = np.isfinite(mat).all()
    if not finite:
        raise ValueError(f"the {kind} operator's assembly overflows the float range")
    return OperatorMatrix.from_entries(mat, kind=kind)


def assemble_first_kind(tensor: CurvatureTensor) -> OperatorMatrix:
    """Matrix of the 2-form action over the orthonormal pair basis.

    Entry ((i,j), (k,l)) is R_ijkl for i < j, k < l in lexicographic order,
    symmetrized; a sum of the assembly past the float range raises
    ValueError.
    """
    n = tensor.n
    pairs = _pair_indices(n)
    r = tensor.components
    if isinstance(r, tuple):
        # R_ijkl sits at flat index (i n + j) n^2 + (k n + l).
        flat = [i * n + j for i, j in pairs]
        mat = [[r[a * n * n + b] for b in flat] for a in flat]
    else:
        import numpy as np

        rows = np.array([p[0] for p in pairs])
        cols = np.array([p[1] for p in pairs])
        mat = r[rows[:, None], cols[:, None], rows[None, :], cols[None, :]]
    return _assembled(mat, KIND_FIRST)


def _helmert_scales(n: int) -> tuple[float, ...]:
    """``1/sqrt(k(k+1))`` for k = 1..n-1, the scales of the Helmert
    diagonals ``(1, ..., 1, -k, 0, ..., 0)``."""
    return tuple(1.0 / math.sqrt(k * (k + 1)) for k in range(1, n))


def _second_kind_floats(r: tuple, n: int) -> list[list[float]]:
    """``_second_kind_array`` on the flat tuple of a tensor's components,
    unsymmetrized too."""
    pairs = _pair_indices(n)
    scales = list(enumerate(_helmert_scales(n), start=1))
    n2, n3 = n * n, n * n * n

    def slice_kl(k: int, l: int) -> list[float]:
        # R_iklj over (i, j) in row-major order: n runs of n entries.
        start = k * n2 + l * n
        return list(itertools.chain.from_iterable(r[o : o + n] for o in range(start, n**4, n3)))

    images = [
        [(x + y) * _SQRT_HALF for x, y in zip(slice_kl(p, q), slice_kl(q, p))] for p, q in pairs
    ]
    diagonal = [slice_kl(l, l) for l in range(n)]
    prefix = diagonal[0]
    for k, scale in scales:
        images.append([(s - k * d) * scale for s, d in zip(prefix, diagonal[k])])
        prefix = list(map(add, prefix, diagonal[k]))
    mat = []
    for image in images:
        row = [(image[p * n + q] + image[q * n + p]) * _SQRT_HALF for p, q in pairs]
        d = image[:: n + 1]
        prefix = d[0]
        for k, scale in scales:
            row.append((prefix - k * d[k]) * scale)
            prefix += d[k]
        mat.append(row)
    return mat


def _second_kind_array(r: np.ndarray) -> np.ndarray:
    """Gram matrix ``<R_bar(B_a), B_b>`` over the trace-free basis, where
    ``R_bar(h)_ij = sum_{k,l} R_iklj h_kl``, before it is symmetrized.

    The image of an off-diagonal element (p, q) is ``(R_ipqj + R_iqpj) *
    (1/sqrt(2))``, two gathers; the image of the k-th Helmert diagonal is
    ``(S_k - k D_k) * (1/sqrt(k(k+1)))`` with ``D_l = R_illj`` and ``S_k``
    the running sum of ``D_0 .. D_{k-1}``, one ``cumsum`` for all k.  Each
    Gram entry reads its image the same way: two gathered entries, or the
    running sum of the image's diagonal.
    """
    import numpy as np

    n = r.shape[0]
    p, q = np.triu_indices(n, 1)
    diag = np.arange(n)
    k = np.arange(1.0, n)
    scale = np.array(_helmert_scales(n))
    rt = r.transpose(1, 2, 0, 3)  # rt[k, l, i, j] = R_iklj
    d = rt[diag, diag]
    images = np.concatenate(
        [
            (rt[p, q] + rt[q, p]) * _SQRT_HALF,
            (np.cumsum(d, axis=0)[:-1] - k[:, None, None] * d[1:]) * scale[:, None, None],
        ]
    )
    d = images[:, diag, diag]
    return np.concatenate(
        [
            (images[:, p, q] + images[:, q, p]) * _SQRT_HALF,
            (np.cumsum(d, axis=1)[:, :-1] - k * d[:, 1:]) * scale,
        ],
        axis=1,
    )


def assemble_second_kind(tensor: CurvatureTensor) -> OperatorMatrix:
    """Matrix of the projected symmetric-tensor action on trace-free tensors.

    Because every basis element is trace-free and the projection is
    orthogonal, the projected Gram matrix equals the unprojected one; it is
    assembled by the sparse contraction of ``_second_kind_array``.  A sum
    of the assembly past the float range raises ValueError.
    """
    r = tensor.components
    if isinstance(r, tuple):
        mat = _second_kind_floats(r, tensor.n)
    else:
        import numpy as np

        # A sum that overflows is left as it comes out, for _assembled to refuse.
        with np.errstate(over="ignore", invalid="ignore"):
            mat = _second_kind_array(r)
    return _assembled(mat, KIND_SECOND)


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _round_robin_schedule(m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Rounds of disjoint pairs ``(p, q)``, p < q, that cover every pair of
    ``range(m)`` exactly once, each as the tuple of its ``p`` and the tuple
    of their ``q`` partners.

    Circle method: index 0 stays put and the others move one place per round;
    for odd m a dummy index m pads the ring and its partner sits the round out.
    """
    size = m + m % 2
    ring = list(range(size))
    rounds = []
    for _ in range(size - 1):
        pairs = [
            (min(x, y), max(x, y)) for x, y in zip(ring[: size // 2], ring[::-1][: size // 2])
        ]
        pairs = [pair for pair in pairs if pair[1] < m]
        rounds.append((tuple(p for p, _ in pairs), tuple(q for _, q in pairs)))
        ring = [ring[0], ring[-1], *ring[1:-1]]
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
    arrays are read-only; the moves hold s^3 indices in all, 0.7 MB at
    s = 44 and 9 MB at s = 104.
    """
    import numpy as np

    size = m + m % 2
    half = size // 2
    orders = [np.arange(size)]
    for p, q in _round_robin_schedule(m):
        if len(p) < half:
            (idle,) = set(range(m)).difference(p, q)
            p, q = (*p, idle), (*q, m)
        orders.append(np.array(p + q))
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



def _frobenius(x) -> float:
    """``||x||_F`` in a fixed order: the square root of the pairwise sum
    (``np.add.reduce``) of each row's pairwise sum of squares.  ``x`` is a
    float array or a list of rows of Python floats (``symfun._pairwise_sum``
    gives the same bits)."""
    if isinstance(x, list):
        return math.sqrt(_pairwise_sum([_pairwise_sum([t * t for t in row]) for row in x]))
    import numpy as np

    return math.sqrt(np.add.reduce(np.add.reduce(x * x, axis=1)))


def _off_norm(x) -> float:
    # Square the off-diagonal entries directly; subtracting the diagonal
    # mass from the total cancels catastrophically near convergence.
    if isinstance(x, list):
        return _frobenius([[*row[:i], 0.0, *row[i + 1 :]] for i, row in enumerate(x)])
    import numpy as np

    return _frobenius(x - np.diag(x.diagonal()))


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
    import numpy as np

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
            # t = 0 (c = 1, s = 0, a no-op but for the sign of a zero entry)
            # where apq == 0.  Adding
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


def _jacobi_round_floats(a: list[list[float]], ps: tuple, qs: tuple) -> None:
    """One round of ``_jacobi_sweep`` in place on a list of rows: every
    angle from the matrix as the round finds it, then all row updates, then
    all column updates, then the pivots set to 0.0, with the same float
    operations as the array lanes.  A pair with ``apq == 0`` gets ``c = 1``,
    ``s = 0`` and is still applied: ``x - 0.0 * y`` turns ``x = -0.0`` into
    +0.0 where ``y`` is negative, as the array update does."""
    rotations = []
    for p, q in zip(ps, qs):
        apq = a[p][q]
        h = a[q][q] - a[p][p]
        abs_h = abs(h)
        if apq == 0.0:
            t = 0.0
        elif abs_h + 100.0 * abs(apq) == abs_h:
            t = apq / h
        else:
            theta = 0.5 * h / apq
            t = math.copysign(1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0)), theta + 0.0)
        c = 1.0 / math.sqrt(t * t + 1.0)
        rotations.append((p, q, c, t * c))
    for p, q, c, s in rotations:
        row_p, row_q = a[p], a[q]
        a[p] = [c * x - s * y for x, y in zip(row_p, row_q)]
        a[q] = [s * x + c * y for x, y in zip(row_p, row_q)]
    for row in a:
        for p, q, c, s in rotations:
            x, y = row[p], row[q]
            row[p] = c * x - s * y
            row[q] = s * x + c * y
    for p, q, _, _ in rotations:
        a[p][q] = a[q][p] = 0.0


def _ldexp(x: float, exponent: int) -> float:
    """``np.ldexp`` of one float: infinity where the result overflows."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.copysign(math.inf, x)


def _jacobi_floats(matrix, max_sweeps: int = 100) -> Optional[list[float]]:
    """``jacobi_eigensystem`` on Python floats: the same checks, scaling,
    active rows, schedule, rotations and stopping test, round by round as
    ``tests/oracles.round_robin_jacobi_by_gathers`` runs them, so the same
    bits; returns a sorted list, or None, before any sweep, if more than
    ``_FLOAT_ACTIVE_ROWS`` rows are active."""
    a = [list(map(float, row)) for row in matrix]
    shape = (len(a), *{len(row) for row in a})
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    entries = list(itertools.chain(*a))
    if not all(map(math.isfinite, entries)):
        raise ValueError("matrix has non-finite entries")
    w = [row[i] for i, row in enumerate(a)]
    exponent = math.frexp(max(map(abs, entries)))[1]
    a = _symmetrized([[math.ldexp(t, -exponent) for t in row] for row in a])
    fro = _frobenius(a)
    threshold = _JACOBI_OFF_TOL * max(fro, sys.float_info.min)
    active = [i for i, row in enumerate(a) if any(t != 0.0 for j, t in enumerate(row) if j != i)]
    if len(active) > _FLOAT_ACTIVE_ROWS:
        return None
    sub = [[a[i][j] for j in active] for i in active]
    for _ in range(max_sweeps):
        if _off_norm(sub) <= threshold:
            break
        for ps, qs in _round_robin_schedule(len(active)):
            _jacobi_round_floats(sub, ps, qs)
    else:
        raise RuntimeError(
            f"Jacobi eigensolver did not converge within {max_sweeps} sweeps "
            f"(off/||A||_F = {_off_norm(sub) / fro:.3e})"
        )
    for k, i in enumerate(active):
        w[i] = _ldexp(sub[k][k], exponent)
    return sorted(w)


def jacobi_eigensystem(matrix, max_sweeps: int = 100):
    """Eigenvalues of a symmetric matrix by round-robin Jacobi rotations.

    A sweep visits every ``(p, q)`` pair once, in rounds of disjoint pairs
    (Brent & Luk) whose rotations are applied together, on a copy kept in
    each round's paired order (``_paired_layouts``); the float operations
    are those of gathering the rows and columns of each pair in natural
    order, so the eigenvalues are the same bits.  The convergence test reads
    the matrix in natural order once per sweep (``_off_norm``).  Only rows
    with a nonzero off-diagonal entry take part: a rotation never mixes
    another row in, so the other diagonal entries pass through as they are.

    The solve runs on the matrix scaled by the power of two that brings its
    largest entry into [0.5, 1), so ``||A||_F`` cannot overflow at any finite
    scale.  Every rotation angle is scale-invariant and the scale is exact,
    so the result is bit for bit the unscaled one wherever no entry falls
    to a subnormal.

    Returns the eigenvalues in ascending order, sorted stably: a float
    array, or, while numpy is not loaded and at most ``_FLOAT_ACTIVE_ROWS``
    rows are active, a list of Python floats with the same bits
    (``_jacobi_floats``); past that bound the solve imports numpy.  Raises
    ValueError on non-finite entries, and RuntimeError, with the final
    ``off/||A||_F``, if the off-diagonal norm has not dropped below
    ``1e-14 * ||A||_F`` within ``max_sweeps`` full sweeps.
    """
    if "numpy" not in sys.modules:
        w = _jacobi_floats(matrix, max_sweeps)
        if w is not None:
            return w
    import numpy as np

    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    w = a.diagonal().copy()
    exponent = int(np.frexp(np.abs(a).max())[1])
    a = np.ldexp(a, -exponent)
    a = (a + a.T) / 2.0
    fro = _frobenius(a)
    threshold = _JACOBI_OFF_TOL * max(fro, sys.float_info.min)
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


def _trace(operator: OperatorMatrix) -> float:
    """Correctly rounded trace of an operator's entries."""
    entries = operator.entries
    if isinstance(entries, tuple):
        diagonal = [row[i] for i, row in enumerate(entries)]
    else:
        diagonal = entries.diagonal().tolist()
    return _fsum(diagonal, f"trace of the {operator.kind} operator")


def scalar_curvature_checks(
    tensor: CurvatureTensor, operator: Optional[OperatorMatrix] = None
) -> CurvatureIdentityReport:
    """Check scal = 2 tr(first-kind) = 2n/(n+2) tr(second-kind).

    The traces are taken of the assembled operators, so no eigensolve runs:
    the identities test the basis normalizations of the assembly, and a
    spectrum's sum equals its operator's trace up to rounding.  The scalar
    curvature and both traces are correctly rounded sums (``math.fsum``).
    ``operator`` may hand in the tensor's first- or second-kind operator,
    already assembled by ``assemble_first_kind`` or ``assemble_second_kind``;
    only the other kind is then assembled here, and the report is the same.
    A sum past the float range raises ValueError that names it.
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
    first = 2.0 * _trace(first_op)
    second = (2.0 * n / (n + 2.0)) * _trace(second_op)
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
