"""Curvature operators of model spaces and a self-contained eigensolver.

A curvature tensor is stored densely as R[i,j,k,l] over an orthonormal
frame and must satisfy, within 1e-12 absolute,

    R_ijkl = -R_jikl = -R_ijlk,   R_ijkl = R_klij,
    R_ijkl + R_iklj + R_iljk = 0.

Every tensor the library builds comes from its independent components
(``_from_canonical``), whose partner writes make the first three exact, so
only the first Bianchi identity is checked there (``_check_canonical``);
outside input is checked for all four (``validate_curvature_symmetries``).

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
then implicit QL with Wilkinson shifts (the EISPACK tred1/tql1 pair), on
Python floats whether or not numpy is loaded.  No eigenvectors are
accumulated: every consumer of a spectrum reads its eigenvalues alone.
Rows with no nonzero off-diagonal entry are left out of the solve, so
sparse model operators reduce only the few rows that couple.  From the
solver on, a spectrum is Python floats in every process: a sorted list,
then the tuple a ``Spectrum`` holds.

The tensor kernels have two paths that run the same float operations in
the same order, so they give the same bits.  Every tensor source
(``model_space_form``, ``model_product_spheres``, ``io.parse_tensor_text``)
lists its nonzero independent components and hands them to
``_from_canonical``, which fills in the rest by symmetry and alone decides
the layout: while numpy is not loaded (``"numpy" not in sys.modules``) a
tensor of dimension n <= 12 (``_FLOAT_DIM``) holds the flat tuple of its
n^4 components in row-major order, and otherwise a float array.  The
layout picks the path of the assembly: on the tuple ``OperatorMatrix``
holds a tuple of row tuples, and both assemblers and the identity checks
run on Python floats; otherwise they run on numpy arrays, and the operator
holds a read-only array.  The check of the independent components is the
same on both, and an assembled operator is built directly: it is square,
exactly symmetric and of its kind's size by construction, so only its
finiteness is checked.  ``OperatorMatrix.from_entries`` checks outside
input, on Python floats, and holds its rows symmetrized, as a tuple of
row tuples, so the solver reads either as given.  Past the bound a tensor
loads numpy before its components are built (the measurements are at
``_FLOAT_DIM``).  Below it the import costs a ``model-space`` run of the
CLI more than the float work, so that run loads no numpy: from the shell
(2-core host, Python 3.11, numpy 2.4, no bytecode cache, median of 7 runs)
``model-space sphere --n 6 --curvature 1.3`` took 285 ms with numpy and
187 ms on floats, and a random n = 4 tensor file's second-kind operator
236 and 176 ms.  numpy is imported only inside the functions that build
arrays.  Which path ran shows in the types of
``CurvatureTensor.components`` and ``OperatorMatrix.entries``, so a caller
that needs an array converts them with ``np.asarray`` (``components`` is
then reshaped to (n, n, n, n)).

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
    "validate_curvature_symmetries",
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
# Bound of the float path for tensors, past which a tensor loads numpy.  Set
# when each build checked all n^4 components: building, assembling and
# checking a sphere or product on floats took 33-53 ms at n = 12 and 95 ms
# at n = 14 in-process (2-core host, Python 3.11, numpy 2.4, whose import
# took 54-100 ms).  Now it takes 9-11 and 22 ms, the assembly dominating,
# against at most 3 ms on arrays; moving it waits on CLI timings of each side.
_FLOAT_DIM = 12


def dimension_for_count(N: int, kind: str) -> Optional[int]:
    """Frame dimension n with the matching operator size, if one exists."""
    if kind == KIND_FIRST:
        n = int(round((1 + math.sqrt(1 + 8 * N)) / 2))
        return n if n >= 2 and two_form_count(n) == N else None
    if kind == KIND_SECOND:
        n = int(round((-1 + math.sqrt(9 + 8 * N)) / 2))
        return n if n >= 2 and trace_free_count(n) == N else None
    return None


def validate_curvature_symmetries(components) -> None:
    """Raise ValueError if any algebraic curvature identity fails on the
    (n, n, n, n) array ``components``."""
    import numpy as np

    r = components
    with np.errstate(invalid="ignore"):
        checks = {
            "antisymmetry_first_pair": np.max(np.abs(r + r.transpose(1, 0, 2, 3))),
            "antisymmetry_second_pair": np.max(np.abs(r + r.transpose(0, 1, 3, 2))),
            "pair_symmetry": np.max(np.abs(r - r.transpose(2, 3, 0, 1))),
            "first_bianchi": np.max(np.abs(r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2))),
        }
    # Written so that a NaN (from a non-finite component) fails the check.
    bad = {name: float(v) for name, v in checks.items() if not v <= _SYMMETRY_ATOL}
    if bad:
        raise ValueError(f"curvature symmetries violated beyond {_SYMMETRY_ATOL}: {bad}")


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

    ``entries`` is a tuple of row tuples of Python floats, or, for an
    operator assembled from a tensor held as an array, a read-only float
    array; a caller that needs the array takes ``np.asarray(entries)``,
    which is the same array either way.  Its rows are square, finite and
    exactly symmetric: assembled operators are built directly
    (``_assembled``), ``from_entries`` checks outside input, and both store
    their rows through ``_symmetrized``.
    """

    _fields = ("N", "entries", "kind")

    def __init__(self, entries: Union[tuple, "np.ndarray"], kind: str) -> None:
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
    """The operator of an assembled matrix, symmetrized.  It is square,
    exactly symmetric and of its kind's size by construction, so only its
    entries' finiteness is checked: a tensor's components are finite, so an
    entry that is not comes from a sum of the assembly that overflowed,
    although the exact entry may be finite; it is refused with a message
    that says so."""
    mat = _symmetrized(mat)
    if isinstance(mat, list):
        finite = all(map(math.isfinite, itertools.chain(*mat)))
        entries = tuple(map(tuple, mat))
    else:
        import numpy as np

        finite = np.isfinite(mat).all()
        mat.setflags(write=False)
        entries = mat
    if not finite:
        raise ValueError(f"the {kind} operator's assembly overflows the float range")
    return OperatorMatrix(entries, kind)


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
    """
    m = len(a)
    d = [0.0] * m
    e = [0.0] * m
    for i in range(m - 1, 0, -1):
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


def _eigenvalues(matrix):
    """Eigenvalues of a square, exactly symmetric matrix, ascending:
    Householder reduction to tridiagonal form, then implicit QL
    (``_tridiagonal``, ``_implicit_ql``; Bowdler, Martin, Reinsch and
    Wilkinson, Numer. Math. 11, 1968), on Python floats whether or not
    numpy is loaded.

    ``matrix`` is the ``entries`` of an ``OperatorMatrix``, which both of
    its doors make square and exactly symmetric: a float array or a
    sequence of rows of Python floats, read as given.  Only rows that
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
    rows = matrix.tolist() if hasattr(matrix, "tolist") else matrix
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
    curvature and both traces are correctly rounded sums (``symfun._fsum``).
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
    return CurvatureIdentityReport(n, scal, first, second)
