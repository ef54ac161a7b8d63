"""Elementary symmetric polynomials and ordered partial-sum functionals.

Conventions used throughout the package:

* ``sigma_k(v) = sum over i_1 < ... < i_k of v[i_1] * ... * v[i_k]``,
  computed by the Newton--Horner coefficient recurrence on the product
  ``prod(1 + t*v_i)`` (coefficient of ``t^k``).  The recurrence is exact for
  integer inputs within the float mantissa and O(N*k) in time.  It runs in
  two loop orders with the same float operations in the same order, so both
  give the same bits on finite input.  A (B, N) batch runs entry by entry
  over coefficient-major ``(k+1, B)`` storage, so each step is one
  contiguous vector update of every row at once.  A single row runs degree
  by degree, one running sum of the ``sigma_{j-1}`` prefixes per degree,
  and keeps each degree's last prefix.  On a float array that is one
  ``np.add.accumulate`` per degree, k numpy steps instead of N; on a list
  of Python floats it is one ``itertools.accumulate`` per degree, with the
  same multiplies and the same sequential adds.
* A single vector of the recurrence (``elementary_symmetric`` and the G_k
  tests of ``cones``) runs on Python floats up to 16 entries, and while
  numpy is not loaded as long as N*k is at most 1.8 million; otherwise on
  numpy (``_vector_entries``).  The P_m test, a sort and one partial sum,
  always runs on floats (``_as_floats``): at N = 17 to 40 a whole call
  took 4.9-13.1 µs on floats against 7.3-13.3 µs on numpy (2-core host,
  Python 3.11, numpy 2.4, interleaved in-process timing), and numpy wins
  only past about 50 entries.  Batches always run on numpy.  A whole G_k
  test on floats pays per entry and per multiply-add, and numpy pays per
  degree and per call, so floats are faster or level at every degree up to
  16 entries and numpy is faster at most degrees from about 20, once it is
  loaded.  Loading it costs more than that: numpy is imported by the
  functions that build arrays, so a process that has not loaded it, such as a ``cone-test`` or
  ``classify`` run of the CLI, stays on floats and never does.  From the
  shell (2-core host, Python 3.11, numpy 2.4, median of 7 runs, same
  output) ``cone-test`` took 252 -> 134 ms at N = k = 300,
  229 -> 135 ms at N = 1000 with k = 2 and 328 -> 216 ms at N = k = 1000
  with this rule instead of the length rule alone.  The float work grows
  as N*k, so past about N = k = 1500 it costs more than the import:
  290 -> 429 ms at N = k = 2000.  So the float path without numpy is
  capped at N*k = 1.8 million (``_FLOAT_WORK``): on the same host
  (median of 7 runs, the float path against numpy imported first)
  ``cone-test`` took 259 against 280 ms at N = k = 1200 and 306 against
  298 ms at N = k = 1400, so the two cross near N*k = 1.8 million.
  ``classify`` runs k = 2 and stays well inside the gain.  An array
  argument means numpy is loaded, so the length rule still decides for
  every caller in a process that has it.
* The cone margins use the same recurrence for the elementary symmetric
  means ``E_j = sigma_j / binom(N, j)``: coefficient j carries the factor
  ``1 / binom(N, j)``, so each update adds ``(j/(N-j+1) * v_i) * E_{j-1}``.
  For ``||v|| <= 1`` every running coefficient and every added term is
  then bounded by 1 in absolute value (Maclaurin), at any N, so nothing
  overflows and no ``binom(N, j)`` or ``||v||^j`` is formed.  The array
  loops read the factors from a cache per N, one read-only column of all N
  degrees that both slice to k; the float loop forms the same correctly
  rounded quotients itself.
* A single vector is a list of Python floats (``_as_floats``) in every
  library function that takes or builds one, and a sorted one is a
  non-decreasing list from ``sorted``, checked by ``_sorted_entries``.
  numpy stays where a batch is built, in the public array builders
  (``cones.shift``, ``inclusion.sharp_witness``) and in two places where
  floats measured slower: the G_k recurrence past 16 entries once numpy is
  loaded (above), and ``inclusion.shift_identity_residual``.  Batch rows
  are sorted stably (``np.sort(..., kind="stable")``), which orders equal
  entries as ``sorted`` does, so a sorted vector has the bits of its row.
* ``partial_sum_fractional(v, m)`` with real ``m`` sums the ``floor(m)``
  smallest entries plus ``(m - floor(m))`` times the next one.  The domain is
  ``0 < m <= N``: values below 1 arise naturally from small shift parameters
  (the weight then multiplies the single smallest entry), and at integer
  ``m`` (including ``m == N``) the fractional term is dropped so that no
  out-of-range entry is ever read.  One kernel, ``partial_sum_batch``, takes
  it of one sorted vector, a list or a 1-d array, and over the last axis of
  a batch of sorted rows.
* A sum over a single vector, tensor or operator is correctly rounded
  (``_fsum``, ``math.fsum``; Shewchuk, Discrete Comput. Geom. 18, 1997), so
  it does not depend on the order of its terms: a list and an array of the
  same entries give the same bits, and a sum past the float range raises
  ValueError naming it.  Batches keep numpy's ``sum`` along their rows, so
  a vector and its row in a batch agree within rounding, not bit for bit.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import accumulate, repeat
from operator import gt, mul
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "elementary_symmetric",
    "sigma2_via_power_sums",
    "partial_sum_fractional",
    "normalized_partial_sum",
]

# Relative slack admitted when a caller passes m marginally above N through
# float roundoff (e.g. m computed from a shift parameter).
_M_CLAMP_RTOL = 1e-12

# Vectors of at most this many entries take the single-vector recurrence on
# Python floats; longer ones take numpy's (see ``_vector_entries``).
_FLOAT_ENTRIES = 16
# While numpy is not loaded, vectors whose entries times degree are at most
# this take the float kernels too: past it the float recurrence costs more
# than importing numpy (see the module docstring).
_FLOAT_WORK = 1_800_000


VectorLike = Union[Sequence[float], "np.ndarray"]


def as_array(v: VectorLike) -> np.ndarray:
    """Coerce a sequence or array to a validated 1-d float array."""
    import numpy as np

    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a 1-d vector with N >= 1, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


def _as_floats(v: VectorLike) -> list[float]:
    """The entries of a validated 1-d vector as a list of Python floats.

    A list, tuple or 1-d array of finite numbers is read without numpy.
    Anything else goes through ``as_array``, so every input it refuses
    raises the same exception with the same message.
    """
    if isinstance(v, (list, tuple)) or getattr(v, "ndim", None) == 1:
        try:
            x = list(map(float, v if isinstance(v, (list, tuple)) else v.tolist()))
        except (TypeError, ValueError, OverflowError):
            x = []
        if x and all(map(math.isfinite, x)):
            return x
    return as_array(v).tolist()


def _vector_entries(v: VectorLike, degree: int) -> list[float] | np.ndarray:
    """The validated entries of v for the recurrence up to ``degree``:
    Python floats (``_as_floats``) for at most ``_FLOAT_ENTRIES`` entries,
    or while numpy is not loaded and ``len(v) * degree <= _FLOAT_WORK``; a
    float array (``as_array``) otherwise.

    An array argument means numpy is loaded, so only a sequence in a
    process without numpy takes floats by the second rule; it spares that
    process numpy's import, which costs more than the float work saves up
    to the cap (see the module docstring).  Both forms refuse the same
    inputs with the same errors.
    """
    try:
        n = len(v)
    except TypeError:
        n = 0
    if n <= _FLOAT_ENTRIES or ("numpy" not in sys.modules and n * degree <= _FLOAT_WORK):
        return _as_floats(v)
    return as_array(v)


def _fsum(values: list[float], name: str) -> float:
    """The correctly rounded sum of a list of floats (``math.fsum``), +0.0
    for an empty list or one of zeros; ValueError naming ``name`` where the
    sum is past the float range, or a term already is (an overflowed
    square, say).  fsum also overflows where only a partial sum does, so
    the exact rational sum, rounded the same way, decides then."""
    try:
        total = math.fsum(values)
    except OverflowError:
        from fractions import Fraction

        try:
            total = float(sum(map(Fraction, values)))
        except OverflowError:
            total = math.inf
    return _in_range(total, name)


def _in_range(value: float, name: str) -> float:
    """value, refused by name where it is past the float range."""
    if not math.isfinite(value):
        raise ValueError(f"the {name} overflows the float range")
    return value


def _sorted_entries(v: VectorLike) -> list[float]:
    """Entries of an already-sorted input as Python floats (``_as_floats``);
    raises if the order is violated."""
    x = _as_floats(v)
    if any(map(gt, x, x[1:])):
        raise ValueError("input must be sorted non-decreasing")
    return x


def elementary_symmetric(v: VectorLike, k: int) -> float:
    """k-th elementary symmetric polynomial sigma_k of the entries."""
    x = _vector_entries(v, k)
    n = len(x)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    return float(sigma_prefix(x, k)[-1])


@functools.lru_cache(maxsize=64)
def _degree_factors(n: int, means: bool) -> np.ndarray:
    """Read-only (n, 1) column of the per-degree factors ``j/(n-j+1)``,
    j = 1..n, which turn sigma_j into the mean ``sigma_j / binom(n, j)``;
    all ones for plain sigma_j.  Degree k takes the slice ``[:k]``: each
    factor is one correctly rounded quotient, so it has the same bits
    whatever the length of the column it sits in."""
    import numpy as np

    if means:
        j = np.arange(1, n + 1)[:, None]
        column = j / (n + 1 - j)
    else:
        column = np.ones((n, 1))
    column.setflags(write=False)
    return column


def sigma_prefix(x, k: int, *, _means: bool = False):
    """(sigma_1, ..., sigma_k) of validated entries with ``1 <= k <= N``,
    bit for bit one row of ``sigma_prefix_batch``: a list for a list of
    Python floats, an array for a 1-d float array.

    After the first i+1 entries, ``sigma_j`` is the previous ``sigma_j``
    plus ``(f_j * v[i])`` times the previous ``sigma_{j-1}``, with the
    degree factors f_j of ``_degree_factors``.  For one degree j that is a
    running sum over i, so each degree is one sequential running sum over
    the prefixes of the degree below, and its last prefix is the result.
    The batch loop starts every sum at +0.0 where this one starts at its
    first term; the two differ only in the sign of a zero, which the final
    ``+ 0.0`` clears.  ``_means=True`` gives the means
    ``sigma_j / binom(N, j)`` instead.
    """
    if isinstance(x, list):
        return _sigma_prefix_floats(x, k, _means)
    import numpy as np

    steps = _degree_factors(x.size, _means)[:k] * x
    out = np.empty(k)
    prefix = np.add.accumulate(steps[0])
    out[0] = prefix[-1]
    for j in range(1, k):
        prefix = np.add.accumulate(steps[j, j:] * prefix[:-1])
        out[j] = prefix[-1]
    out += 0.0
    return out


def _sigma_prefix_floats(x: list[float], k: int, means: bool) -> list[float]:
    """``sigma_prefix`` on Python floats, degree by degree with
    ``accumulate``: the same products ``(f_j * v[i]) * prefix``, the same
    sequential sums and the same factors (``j/(N-j+1)`` is a correctly
    rounded int quotient), so the same bits.  The products by sigma_0 = 1
    and by the unit factors of plain sigma_j are exact, so they are left
    out."""
    n = len(x)
    out = []
    prefix = None
    for j in range(k):
        steps = map(mul, repeat((j + 1) / (n - j)), x[j:]) if means else x[j:]
        prefix = list(accumulate(map(mul, steps, prefix) if j else steps))
        out.append(prefix[-1] + 0.0)
    return out


def sigma_prefix_batch(rows: np.ndarray, k: int, *, _means: bool = False) -> np.ndarray:
    """Row-wise (sigma_1, ..., sigma_k) for a (B, N) batch.

    Horner coefficient recurrence: multiplying by ``(1 + t*mu)`` adds
    ``(f_j * mu)`` times coefficient j-1 to coefficient j, with the degree
    factors f_j of ``_degree_factors``.  Coefficients are stored
    coefficient-major, ``(k+1, B)``, and each column is copied once into a
    contiguous buffer; every update runs in a preallocated ``(k, B)`` step
    buffer, so it is three contiguous vector operations and no allocation.
    Before entry i only coefficients 0..i can be nonzero, so the first k
    entries update just those.  Returns a transposed ``(B, k)`` view;
    ``_means=True`` gives the means ``sigma_j / binom(N, j)`` instead.
    """
    import numpy as np

    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a (B, N) batch")
    b, n = rows.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    factors = _degree_factors(n, _means)[:k]
    coeffs = np.zeros((k + 1, b))
    coeffs[0] = 1.0
    column = np.empty(b)
    step = np.empty((k, b))
    for i in range(n):
        np.copyto(column, rows[:, i])
        top = min(i + 1, k)
        np.multiply(factors[:top], column, out=step[:top])
        step[:top] *= coeffs[:top]
        coeffs[1 : top + 1] += step[:top]
    return coeffs[1:].T


def sigma2_via_power_sums(v: VectorLike) -> float:
    """sigma_2 through the power-sum identity ((sum)^2 - sum of squares)/2."""
    x = _as_floats(v)
    if len(x) < 2:
        raise ValueError(f"need N >= 2 entries, got {len(x)}")
    s1 = _fsum(x, "sum of the entries")
    squares = _fsum([t * t for t in x], "sum of the squares")
    return (_in_range(s1 * s1, "square of the sum of the entries") - squares) / 2.0


def _checked_m(m: float, n: int) -> float:
    m = float(m)
    if not math.isfinite(m) or m <= 0.0:
        raise ValueError(f"m must be positive, got {m}")
    if m > n:
        if m <= n * (1.0 + _M_CLAMP_RTOL):
            return float(n)
        raise ValueError(f"m must satisfy 0 < m <= {n}, got {m}")
    return m


def partial_sum_fractional(v: VectorLike, m: float) -> float:
    """Sum of the floor(m) smallest entries plus the fractional next term."""
    return partial_sum_batch(_sorted_entries(v), m)


def partial_sum_weights(m, n: int) -> np.ndarray:
    """Weights ``clip(m - i, 0, 1)`` for i = 0..n-1 of the partial sum at m.

    Over sorted entries the fractional partial sum is the dot product with
    these weights.  A column of per-row values ``m`` (shape (B, 1)) gives a
    (B, n) array, one weight row each.
    """
    import numpy as np

    weights = np.subtract(m, np.arange(n), dtype=float)
    return np.clip(weights, 0.0, 1.0, out=weights)


def partial_sum_batch(sorted_rows, m: float):
    """Fractional partial sum over the last axis of sorted entries: a float
    for one sorted vector, one per row for a (..., N) batch.

    One vector, a list or a 1-d array, is read as Python floats and its
    floor(m) entries are summed correctly rounded (``_fsum``), which refuses
    a sum past the float range; a batch sums along its rows with numpy's
    ``sum``.
    """
    if not isinstance(sorted_rows, list):
        import numpy as np

        rows = np.asarray(sorted_rows, dtype=float)
        if rows.ndim == 0:
            raise ValueError("expected a sorted vector or a (..., N) batch")
        if rows.ndim > 1:
            m = _checked_m(m, rows.shape[-1])
            fl = math.floor(m)
            total = rows[..., :fl].sum(axis=-1)
            return total if m == fl else total + (m - fl) * rows[..., fl]
        sorted_rows = rows.tolist()
    m = _checked_m(m, len(sorted_rows))
    fl = math.floor(m)
    total = _fsum(sorted_rows[:fl], "partial sum")
    return total if m == fl else total + (m - fl) * sorted_rows[fl]


def normalized_partial_sum(v: VectorLike, m: float) -> float:
    """partial_sum_fractional(v, m) / m; non-decreasing in m for sorted v."""
    return partial_sum_fractional(v, m) / float(m)
