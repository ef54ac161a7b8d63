"""Curvature operators of model spaces and a self-contained eigensolver.

A curvature tensor is stored densely as R[i,j,k,l] over an orthonormal
frame and satisfies

    R_ijkl = -R_jikl = -R_ijlk,   R_ijkl = R_klij,
    R_ijkl + R_iklj + R_iljk = 0,

the first three exactly and the first Bianchi identity within 1e-12
absolute.  Every tensor is built from its independent components
(``_from_canonical``), whose partner writes make the first three exact, so
only the first Bianchi identity is checked (``_check_canonical``); a dense
array (``CurvatureTensor.from_components``) is read through its
independent components too, and refused where it is farther than 1e-12
from the tensor they build.

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
square roots, ``math.hypot``, index gathers, sequential running sums
(``np.cumsum``) and correctly rounded sums (``math.fsum``).  The
second-kind operator is a sparse contraction: an off-diagonal basis element
is a pair of index gathers, and all Helmert diagonals come from one running
sum over the diagonal slices ``R_illj`` (and, for the Gram matrix, over
each image's diagonal).  The scalar curvature and the operator traces of
the identity checks are ``symfun._fsum`` sums, and every dot product of the
eigensolver is a ``math.fsum``: all are correctly rounded, so no order of
their terms enters.

Spectra are the eigenvalues of ``_eigenvalues``, so the package carries no
LAPACK dependency on this path: Householder reduction to tridiagonal form,
then implicit QL with Wilkinson shifts (the EISPACK tred1/tql1 pair).
Implicit QL runs on Python floats in every process; so does the reduction
while numpy is not loaded, and, while it is, on blocks of at most
``_ARRAY_ROWS`` coupled rows.  Larger blocks are reduced on one float array
down to that bound, with element-wise products, sums and differences and
one ``math.fsum`` per row product, the list loop's operations in its
order, so either kernel gives the same bits.  No eigenvectors are
accumulated: every consumer of a spectrum reads its eigenvalues alone.
Rows with no nonzero off-diagonal entry are left out of the solve, so
sparse model operators reduce only the few rows that couple.  From the
solver on, a spectrum is Python floats in every process: a sorted list,
then the tuple a ``Spectrum`` holds.

The tensor kernels have two paths that run the same float operations in
the same order, so they give the same bits.  Every tensor source
(``model_space_form``, ``model_product_spheres``, ``io.parse_tensor_text``,
``CurvatureTensor.from_components``) lists its independent components and
hands them to ``_from_canonical``, which fills in the rest by symmetry and
alone decides the layout: while numpy is not loaded (``"numpy" not in
sys.modules``) a tensor of dimension n <= 12 (``_FLOAT_DIM``) holds the
flat tuple of its n^4 components in row-major order, and otherwise a float
array.  The layout picks the path of the assembly: Python floats on the
tuple, numpy on the array.  Operators have one layout, a tuple of row
tuples of Python floats, which the array kernels hand over with one
``tolist()``.  The first-kind operator copies components, so it is exactly
symmetric and finite as read; the second-kind one is symmetrized and
refused where a sum of its assembly overflowed.  Past the bound a tensor
loads numpy before its components are built (the measurements are at
``_FLOAT_DIM``).  Below it the import costs a ``model-space`` run of the
CLI more than the float work, so that run loads no numpy: from the shell
(2-core host, Python 3.11, numpy 2.4, no bytecode cache, median of 7 runs)
``model-space sphere --n 6 --curvature 1.3`` took 285 ms with numpy and
187 ms on floats, and a random n = 4 tensor file's second-kind operator
236 and 176 ms.  numpy is imported only inside the functions that build
arrays.

``Spectrum``, ``KIND_FIRST`` and ``KIND_SECOND`` are defined in ``tables``,
which loads no numpy, so the classifier reads them without this module;
they are re-exported here as the same objects.
"""

from __future__ import annotations

import itertools
import math
import sys
from operator import add, mul, sub
from typing import TYPE_CHECKING, Optional, Union

from .config import Record
from .symfun import _fsum
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
    "model_space_form",
    "model_product_spheres",
    "assemble_first_kind",
    "assemble_second_kind",
    "eigen_spectrum",
    "scalar_curvature_checks",
    "CurvatureIdentityReport",
]

KIND_GENERIC = "generic"

_SYMMETRY_ATOL = 1e-12
# Implicit-QL iterations one eigenvalue may take (EISPACK's cap), and the
# relative size below which an off-diagonal entry splits the matrix.
_QL_ITERATIONS = 30
_SPLIT_TOL = sys.float_info.epsilon
# Relative error within which the scalar curvature identities count as held.
_IDENTITY_RTOL = 1e-8
# The off-diagonal entries of the trace-free basis.
_SQRT_HALF = 1.0 / math.sqrt(2.0)
# Bound of the float path for tensors, past which a tensor loads numpy.  The
# array path stays where numpy is loaded: with every tensor on floats, an
# in-process model_spectra benchmark pass (seed 3, 2-core host, Python 3.11,
# numpy 2.4) took 99-102 ms against 70-72 ms, 3 interleaved pairs.  Where
# numpy is not loaded, the bound's crossover with the import (54-100 ms)
# lies past n = 12; moving it waits on CLI timings of each side.
_FLOAT_DIM = 12
# Rows of a block past which, while numpy is loaded, the Householder steps
# run on an array (``_tridiagonal_array``); at least 2, so that the array
# never takes the step that sets e[0].  The reduction alone of a random
# N x N block (min of 15 timings, 3 interleaved rounds, 2-core host,
# Python 3.11, numpy 2.4) went 0.207 -> 0.204 ms at N = 15, 0.467 -> 0.343
# at N = 20, 4.04 -> 1.96 at N = 44, 19.6 -> 8.5 at N = 77 and 31.0 ->
# 13.1 at N = 91.  One array step beats one list step from about 9 rows
# (with the bound at 8, N = 10 went 0.084 -> 0.081 ms), and all-array is
# slower on small blocks (N = 6: 0.026 -> 0.045 ms); the bound sits at 14
# so that the sphere, product and n = 5 blocks of the model_spectra
# benchmark, 14 coupled rows or fewer, never touch numpy.
_ARRAY_ROWS = 14


def dimension_for_count(N: int, kind: str) -> Optional[int]:
    """Frame dimension n with the matching operator size, if one exists."""
    if kind == KIND_FIRST:
        n = int(round((1 + math.sqrt(1 + 8 * N)) / 2))
        return n if n >= 2 and two_form_count(n) == N else None
    if kind == KIND_SECOND:
        n = int(round((-1 + math.sqrt(9 + 8 * N)) / 2))
        return n if n >= 2 and trace_free_count(n) == N else None
    return None


class CurvatureTensor(Record, frozen=True, eq=False):
    """Dense curvature tensor over an orthonormal frame in dimension n >= 3.

    ``components`` is a read-only (n, n, n, n) float array, or, for a tensor
    built on the float path while numpy was not loaded, the flat tuple of
    its n^4 entries in row-major order (see the module docstring); a caller
    that needs the array takes ``np.asarray(t.components).reshape((t.n,) *
    4)``, which is the same array either way.  Like ``OperatorMatrix`` and
    ``Spectrum``, equality is identity and instances hash by identity.
    """

    def __init__(self, n: int, components: Union[tuple, "np.ndarray"]) -> None:
        self.__dict__.update(n=n, components=components)

    @classmethod
    def from_components(cls, components) -> "CurvatureTensor":
        """The tensor of the (n, n, n, n) array ``components``: its
        independent components (i < j, k < l, (i, j) <= (k, l)) built by
        ``_from_canonical``, whose partners are exact.  Raises ValueError
        where the array is farther than 1e-12 from that tensor, as at a
        partner off by more or at a non-finite component."""
        import numpy as np

        arr = np.array(components, dtype=float)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise ValueError(f"expected an (n,n,n,n) array, got shape {arr.shape}")
        pairs = _pair_indices(arr.shape[0])
        keys = [(*p, *q) for a, p in enumerate(pairs) for q in pairs[a:]]
        tensor = _from_canonical(arr.shape[0], {key: float(arr[key]) for key in keys})
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.max(np.abs(arr - tensor.components))
        # Written so that a NaN (from a non-finite component) is refused.
        if not gap <= _SYMMETRY_ATOL:
            bad = {"partners": float(gap)}
            raise ValueError(f"curvature symmetries violated beyond {_SYMMETRY_ATOL}: {bad}")
        return tensor

    def scalar_curvature(self) -> float:
        """Direct double trace, correctly rounded: sum over i, j of R_ijij.

        R_ijij is the diagonal of the components read as an (n^2, n^2)
        matrix, every (n^2 + 1)-th flat entry.  Raises ValueError where the
        sum is past the float range."""
        r = self.components
        step = self.n * self.n + 1
        diagonal = r[::step] if isinstance(r, tuple) else r.reshape(-1)[::step].tolist()
        return _fsum(diagonal, "scalar curvature")


def _float_rows(entries) -> tuple:
    """A square matrix, given as a sequence of rows or as an array, as a
    tuple of row tuples of Python floats.  Where it is not one, ValueError
    with the text numpy's reading gives: the shape, read along the first
    entries, or the row lengths where they differ."""
    if hasattr(entries, "tolist"):
        shape, entries = entries.shape, entries.tolist()
    else:
        shape, x = [], entries
        while hasattr(x, "__len__") and not isinstance(x, (str, bytes)):
            shape.append(len(x))
            if not shape[-1]:
                break
            x = x[0]
    if len(shape) == 2:
        rows = tuple(tuple(map(float, row)) for row in entries)
        lengths = sorted({len(row) for row in rows})
        if len(lengths) > 1:
            raise ValueError(f"expected a square matrix, got rows of lengths {lengths}")
        if shape[0] == shape[1]:
            return rows
    raise ValueError(f"expected a square matrix, got shape {tuple(shape)}")


class OperatorMatrix(Record, frozen=True, eq=False):
    """Dense symmetric operator matrix with its kind tag.

    ``entries`` is a tuple of row tuples of Python floats; a caller that
    needs the array takes ``np.asarray(entries)``.  Its rows are square,
    finite and exactly symmetric: the assemblers build them so
    (``assemble_first_kind``, ``assemble_second_kind``), and
    ``from_entries`` checks outside input and stores it symmetrized
    (``_symmetrized``).
    """

    _fields = ("N", "entries", "kind")

    def __init__(self, entries: tuple, kind: str) -> None:
        self.__dict__.update(N=len(entries), entries=entries, kind=kind)

    @classmethod
    def from_entries(cls, entries, kind: str = KIND_GENERIC) -> "OperatorMatrix":
        """The operator of a square matrix of finite entries, symmetric
        within 1e-12, given as a sequence of rows or an array; held as a
        tuple of row tuples of Python floats, on one path that loads no
        numpy, and stored exactly symmetric (``_symmetrized``).  Raises
        ValueError on a matrix that is not square, is empty, has non-finite
        entries or is asymmetric, on an unknown kind, and on a size that
        fits no dimension of the kind."""
        rows = _float_rows(entries)
        if not all(map(math.isfinite, itertools.chain(*rows))):
            raise ValueError("matrix has non-finite entries")
        if not rows:
            raise ValueError("operator matrix must be at least 1x1")
        asym = max(map(abs, map(sub, itertools.chain(*rows), itertools.chain(*zip(*rows)))))
        if not asym <= _SYMMETRY_ATOL:
            raise ValueError(f"matrix asymmetry {asym} exceeds {_SYMMETRY_ATOL}")
        if kind not in (KIND_FIRST, KIND_SECOND, KIND_GENERIC):
            raise ValueError(f"unknown kind {kind!r}")
        if kind != KIND_GENERIC and dimension_for_count(len(rows), kind) is None:
            raise ValueError(f"size {len(rows)} does not match any dimension for kind {kind}")
        rows = tuple(map(tuple, _symmetrized(list(rows))))
        return cls(rows, kind)


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


def _check_canonical(entries: dict, zero: float) -> None:
    """Refuse the tensor ``_from_canonical`` builds where a component is not
    finite or, with the dense check's text, the first Bianchi identity fails.
    The partner writes make the other identities exact, so the cyclic sum
    vanishes wherever two indices agree, and each set a < b < c < d leaves
    x - y + z = 0 for the canonical x = R_abcd, y = R_acbd, z = R_adbc.  The
    set's cyclic sums add them in the three orders below, so the defect is
    the dense check's, bit for bit."""
    if not (math.isfinite(zero) and all(map(math.isfinite, entries.values()))):
        raise ValueError("curvature components must be finite")
    defect = 0.0
    # The first index of a canonical key is the least of its four.
    for a, b, c, d in {(i, *sorted(rest)) for i, *rest in entries if len({i, *rest}) == 4}:
        x = entries.get((a, b, c, d), zero)
        y = entries.get((a, c, b, d), zero)
        z = entries.get((a, d, b, c), zero)
        defect = max(defect, abs((x + z) - y), abs((x - y) + z), abs((z - y) + x))
    if not defect <= _SYMMETRY_ATOL:
        bad = {"first_bianchi": defect}
        raise ValueError(f"curvature symmetries violated beyond {_SYMMETRY_ATOL}: {bad}")


def _from_canonical(n: int, entries: dict, zero: float = 0.0) -> CurvatureTensor:
    """Tensor with the independent components ``entries``, ``(i, j, k, l)
    -> value``, 0-based with i < j, k < l, (i, j) <= (k, l).

    Each entry also sets the components ``_partners`` ties to it, and
    every component no entry reaches is ``zero``; canonical keys are
    unique, so no two entries write the same component.  ``entries`` are
    checked first (``_check_canonical``).  While numpy is not loaded and
    ``n <= _FLOAT_DIM`` the components are the flat row-major tuple of n^4
    Python floats, otherwise a read-only (n, n, n, n) array with the same
    bits.
    """
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    _check_canonical(entries, zero)
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
    """``(mat + mat.T) / 2`` of a square list of rows or float array (under
    the caller's ``np.errstate``), except that a nonzero entry equal to its
    transpose is kept as it is.  That is the formula's value wherever the
    sum does not overflow, so a pair that agrees stays finite at any scale
    and no other bit changes."""
    if isinstance(mat, list):
        return [
            [x if x == y and x != 0.0 else (x + y) / 2.0 for x, y in zip(row, col)]
            for row, col in zip(mat, zip(*mat))
        ]
    import numpy as np

    return np.where((mat == mat.T) & (mat != 0.0), mat, (mat + mat.T) / 2.0)


def _operator_rows(mat) -> tuple:
    """A matrix of ``_first_kind_matrix`` or ``_second_kind_matrix`` as the
    ``entries`` of an ``OperatorMatrix``: a tuple of row tuples."""
    if not isinstance(mat, list):
        mat = mat.tolist()
    return tuple(map(tuple, mat))


def _diagonal(mat) -> list[float]:
    """The diagonal of a list of rows or of a float array, as Python floats."""
    if isinstance(mat, (list, tuple)):
        return [row[i] for i, row in enumerate(mat)]
    return mat.diagonal().tolist()


def _first_kind_matrix(tensor: CurvatureTensor):
    """The matrix of ``assemble_first_kind``: a list of rows on the tuple
    layout, a float array on the array layout."""
    n = tensor.n
    r = tensor.components
    if isinstance(r, tuple):
        # R_ijkl sits at flat index (i n + j) n^2 + (k n + l).
        flat = [i * n + j for i, j in _pair_indices(n)]
        return [tuple([r[a * n * n + b] for b in flat]) for a in flat]
    import numpy as np

    i, j = np.triu_indices(n, 1)  # the pairs i < j in lexicographic order
    return r[i[:, None], j[:, None], i, j]


def assemble_first_kind(tensor: CurvatureTensor) -> OperatorMatrix:
    """Matrix of the 2-form action over the orthonormal pair basis.

    Entry ((i,j), (k,l)) is R_ijkl for i < j, k < l in lexicographic order.
    A tensor's partners are exact copies and its components finite, so the
    matrix is exactly symmetric and finite as it is read.
    """
    return OperatorMatrix(_operator_rows(_first_kind_matrix(tensor)), KIND_FIRST)


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


def _second_kind_matrix(tensor: CurvatureTensor):
    """The matrix of ``assemble_second_kind``, checked finite: a list of
    rows on the tuple layout, a float array on the array layout."""
    r = tensor.components
    if isinstance(r, tuple):
        mat = _symmetrized(_second_kind_floats(r, tensor.n))
        finite = all(map(math.isfinite, itertools.chain(*mat)))
    else:
        import numpy as np

        # A sum that overflows is left as it comes out, to be refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            mat = _symmetrized(_second_kind_array(r))
        finite = np.isfinite(mat).all()
    if not finite:
        raise ValueError(f"the {KIND_SECOND} operator's assembly overflows the float range")
    return mat


def assemble_second_kind(tensor: CurvatureTensor) -> OperatorMatrix:
    """Matrix of the projected symmetric-tensor action on trace-free tensors.

    Because every basis element is trace-free and the projection is
    orthogonal, the projected Gram matrix equals the unprojected one; it is
    assembled by the sparse contraction of ``_second_kind_array`` and
    symmetrized.  A tensor's components are finite, so an entry that is not
    comes from a sum of the assembly that overflowed, although the exact
    entry may be finite: it raises ValueError that says so.
    """
    return OperatorMatrix(_operator_rows(_second_kind_matrix(tensor)), KIND_SECOND)


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------


def _tridiagonal(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Householder reduction of the symmetric list of rows ``a``, which it
    consumes, to a tridiagonal matrix with the same eigenvalues: its
    diagonal ``d`` and its off-diagonal ``e``, where ``e[i]`` couples rows
    i and i + 1 and the last entry is 0.0.

    Rows are reduced from the last up (EISPACK's tred1).  Row i's leading
    i entries, divided by their absolute sum so that no square under- or
    overflows, give the reflector ``I - u u^T / h`` that maps them onto
    their last entry; the leading i x i block then takes the rank-2 update
    ``a - (u q^T + q u^T)``, whose entries (j, k) and (k, j) are the same
    float operations, so it stays exactly symmetric.  Every dot product is
    a ``math.fsum``, correctly rounded, so no order of its terms enters.

    While numpy is loaded, the steps of a block of more than
    ``_ARRAY_ROWS`` rows run on one float array (``_tridiagonal_array``),
    with the same float operations on the same operands, so with the same
    bits; the block left at that bound comes back as lists and the loop
    below finishes it.  A smaller block, and every block in a process
    without numpy, is reduced on lists alone.
    """
    m = len(a)
    d = [0.0] * m
    e = [0.0] * m
    if m > _ARRAY_ROWS and "numpy" in sys.modules:
        a = _tridiagonal_array(a, d, e)
    for i in range(len(a) - 1, 0, -1):
        row = a.pop()
        d[i] = row[i]
        x = row[:i]
        scale = math.fsum(map(abs, x))
        if i == 1 or scale == 0.0:
            e[i - 1] = x[-1]
            continue
        u = [t / scale for t in x]
        h = math.fsum(map(mul, u, u))
        f = u[-1]
        g = -math.copysign(math.sqrt(h), f)
        e[i - 1] = scale * g
        h -= f * g
        u[-1] = f - g
        p = [math.fsum(map(mul, r, u)) / h for r in a]
        k = math.fsum(map(mul, u, p)) / (h + h)
        q = [s - k * t for s, t in zip(p, u)]
        a = [[t - (uj * qk + qj * uk) for t, qk, uk in zip(r, q, u)] for r, uj, qj in zip(a, u, q)]
    if m:
        d[0] = a[0][0]
    return d, e


def _tridiagonal_array(a: list[list[float]], d: list[float], e: list[float]) -> list[list[float]]:
    """The steps of ``_tridiagonal`` while the block has more than
    ``_ARRAY_ROWS`` rows, on one float array; writes ``d`` and ``e`` of
    the rows it reduces and returns the leading ``_ARRAY_ROWS`` rows left,
    as lists.

    Each step is the list loop's, element for element: the row products
    ``block * u`` are the loop's ``map(mul, r, u)`` and each row's
    ``math.fsum`` runs over its ``tolist()``; ``p - k * u`` is its ``s - k
    * t``; and the rank-2 update subtracts ``u_j q_k + q_j u_k``, one
    element-wise product, sum and difference per entry.  No reduction runs
    in numpy, so no BLAS or SIMD kernel chooses an order of a sum."""
    import numpy as np

    mat = np.array(a, dtype=float)
    for i in range(len(a) - 1, _ARRAY_ROWS - 1, -1):
        x = mat[i, :i]
        d[i] = float(mat[i, i])
        scale = math.fsum(np.abs(x).tolist())
        if scale == 0.0:
            e[i - 1] = float(x[-1])
            continue
        u = x / scale
        h = math.fsum((u * u).tolist())
        f = float(u[-1])
        g = -math.copysign(math.sqrt(h), f)
        e[i - 1] = scale * g
        h -= f * g
        u[-1] = f - g
        block = mat[:i, :i]
        # Each row's products, then one correctly rounded sum per row.
        p = np.array(list(map(math.fsum, (block * u).tolist()))) / h
        k = math.fsum((u * p).tolist()) / (h + h)
        q = p - k * u
        # (u q^T)[j, k] + (q u^T)[j, k] = uj*qk + qj*uk, as the list loop adds it.
        w = np.multiply.outer(u, q)
        block -= w + w.T
    return mat[:_ARRAY_ROWS, :_ARRAY_ROWS].tolist()


def _implicit_ql(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues, unsorted, of the symmetric tridiagonal matrix of
    ``_tridiagonal``, by implicit QL with Wilkinson shifts and
    ``math.hypot`` rotations (EISPACK's tql1, in the form of Numerical
    Recipes' tqli); overwrites ``d`` and ``e`` and returns ``d``.

    ``e[k]`` counts as zero, which splits the matrix there, once it is at
    most ``_SPLIT_TOL * (|d[k]| + |d[k+1]| + 1)``: negligible beside its
    neighbours, or, where they are tiny, beside the matrix, whose largest
    entry the caller scales into [0.5, 1).  Raises RuntimeError once one
    eigenvalue has taken ``_QL_ITERATIONS`` iterations.
    """
    m = len(d)
    for l in range(m):
        iterations = 0
        while True:
            k = l
            while k < m - 1 and abs(e[k]) > _SPLIT_TOL * (abs(d[k]) + abs(d[k + 1]) + 1.0):
                k += 1
            if k == l:
                break
            if iterations == _QL_ITERATIONS:
                raise RuntimeError(
                    f"QL eigensolver did not converge within {_QL_ITERATIONS} "
                    "iterations for one eigenvalue"
                )
            iterations += 1
            # The shift is the eigenvalue of the leading 2 x 2 block nearer d[l].
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[k] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(k - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # An underflow split the block at i + 1: start over.
                    d[i + 1] -= p
                    e[k] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[k] = 0.0
    return d


def _nonzero_off_diagonal(rows) -> list[int]:
    """Indices of the rows with a nonzero (or non-finite) entry off the
    diagonal."""
    return [i for i, row in enumerate(rows) if any(row[:i]) or any(row[i + 1 :])]


def _eigenvalues(rows):
    """Eigenvalues of a square, exactly symmetric matrix, ascending:
    Householder reduction to tridiagonal form, then implicit QL
    (``_tridiagonal``, ``_implicit_ql``; Bowdler, Martin, Reinsch and
    Wilkinson, Numer. Math. 11, 1968).  The reduction of a block of more
    than ``_ARRAY_ROWS`` rows runs on a float array while numpy is loaded,
    with the bits of the list loop; everything else, implicit QL included,
    runs on Python floats in every process.

    ``rows`` is the ``entries`` of an ``OperatorMatrix``, a square and
    exactly symmetric sequence of rows of Python floats.  Only rows that
    couple, those with a nonzero off-diagonal entry, take part: their block
    is scaled by the power of two that brings the matrix's largest entry
    into [0.5, 1), so no sum of the solve can overflow at any finite scale.
    The diagonal entries of the other rows, and of any row whose entries
    the scaling turns to zero, pass through bit for bit.  The scale is
    exact, so a matrix scaled by 2^k gives eigenvalues scaled by 2^k, bit
    for bit, wherever no entry falls to a subnormal.

    Returns the eigenvalues as a list of Python floats sorted stably, in
    every process.  Raises ValueError on a matrix with non-finite entries
    (a NaN or an infinity off the diagonal makes its row couple, so every
    one is seen, also in an operator built directly), or whose eigenvalue,
    scaled back, is past the float range, and RuntimeError if one
    eigenvalue takes more than ``_QL_ITERATIONS`` iterations.
    """
    w = [row[i] for i, row in enumerate(rows)]
    coupled = _nonzero_off_diagonal(rows)
    if not all(map(math.isfinite, itertools.chain(w, *(rows[i] for i in coupled)))):
        raise ValueError("matrix has non-finite entries")
    block = [[rows[i][j] for j in coupled] for i in coupled]
    exponent = math.frexp(max(map(abs, itertools.chain(w, *block)), default=0.0))[1]
    block = [[math.ldexp(t, -exponent) for t in row] for row in block]
    active = _nonzero_off_diagonal(block)
    sub = [[block[j][k] for k in active] for j in active]
    for k, t in zip(active, _implicit_ql(*_tridiagonal(sub))):
        try:
            w[coupled[k]] = math.ldexp(t, exponent)
        except OverflowError:
            raise ValueError("an eigenvalue overflows the float range") from None
    w.sort()
    return w


def eigen_spectrum(matrix: OperatorMatrix) -> Spectrum:
    """Ordered spectrum of an operator matrix: the eigenvalues of
    ``_eigenvalues(matrix.entries)``, bit for bit, as a tuple of Python
    floats."""
    return Spectrum(
        eigenvalues=_eigenvalues(matrix.entries),
        kind=matrix.kind,
        n=dimension_for_count(matrix.N, matrix.kind),
    )


# ---------------------------------------------------------------------------
# Scalar-curvature identities
# ---------------------------------------------------------------------------


class CurvatureIdentityReport(Record, frozen=True):
    """Both trace expressions of the scalar curvature, checked: each sum's
    error relative to max(1, |scal|) is within ``_IDENTITY_RTOL``."""

    record_tag = "scalar_curvature_checks"
    _fields = (
        "n", "scalar_curvature", "first_kind_sum", "second_kind_sum", "first_kind_rel_err",
        "second_kind_rel_err", "first_kind_ok", "second_kind_ok",
    )

    def __init__(
        self, n: int, scalar_curvature: float, first_kind_sum: float, second_kind_sum: float
    ) -> None:
        scale = max(1.0, abs(scalar_curvature))
        err1 = abs(first_kind_sum - scalar_curvature) / scale
        err2 = abs(second_kind_sum - scalar_curvature) / scale
        self.__dict__.update(
            n=n, scalar_curvature=scalar_curvature, first_kind_sum=first_kind_sum,
            second_kind_sum=second_kind_sum, first_kind_rel_err=err1,
            second_kind_rel_err=err2, first_kind_ok=err1 <= _IDENTITY_RTOL,
            second_kind_ok=err2 <= _IDENTITY_RTOL,
        )

    @property
    def ok(self) -> bool:
        return self.first_kind_ok and self.second_kind_ok


def _trace(mat, kind: str) -> float:
    """Correctly rounded trace of the matrix of an operator of ``kind``."""
    return _fsum(_diagonal(mat), f"trace of the {kind} operator")


def scalar_curvature_checks(
    tensor: CurvatureTensor, operator: Optional[OperatorMatrix] = None
) -> CurvatureIdentityReport:
    """Check scal = 2 tr(first-kind) = 2n/(n+2) tr(second-kind).

    The traces are taken of the assembled operators, so no eigensolve runs:
    the identities test the basis normalizations of the assembly, and a
    spectrum's sum equals its operator's trace up to rounding.  The scalar
    curvature and both traces are correctly rounded sums (``symfun._fsum``).
    ``operator`` may hand in the tensor's first- or second-kind operator,
    already assembled by ``assemble_first_kind`` or ``assemble_second_kind``;
    only the matrix of the other kind is then built here, and its trace read
    before it would become an operator's rows, and the report is the same.
    A sum past the float range raises ValueError that names it, as does an
    assembly of the second kind that overflows.
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
        given[operator.kind] = operator.entries
    first_mat = given[KIND_FIRST] if KIND_FIRST in given else _first_kind_matrix(tensor)
    second_mat = given[KIND_SECOND] if KIND_SECOND in given else _second_kind_matrix(tensor)
    first = 2.0 * _trace(first_mat, KIND_FIRST)
    second = (2.0 * n / (n + 2.0)) * _trace(second_mat, KIND_SECOND)
    return CurvatureIdentityReport(n, scal, first, second)
