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
  by degree, one cumulative sum of the running ``sigma_{j-1}`` prefixes per
  degree, so it takes k numpy steps instead of N.
* The cone margins use the same recurrence for the elementary symmetric
  means ``E_j = sigma_j / binom(N, j)``: coefficient j carries the factor
  ``1 / binom(N, j)``, so each update adds ``(j/(N-j+1) * v_i) * E_{j-1}``.
  For ``||v|| <= 1`` every running coefficient and every added term is
  then bounded by 1 in absolute value (Maclaurin), at any N, so nothing
  overflows and no ``binom(N, j)`` or ``||v||^j`` is formed.
* Sorted vectors are plain non-decreasing float arrays, sorted stably
  (``np.sort(..., kind="stable")``), so equal entries keep their order and
  a sort is reproducible bit for bit.
* ``partial_sum_fractional(v, m)`` with real ``m`` sums the ``floor(m)``
  smallest entries plus ``(m - floor(m))`` times the next one.  The domain is
  ``0 < m <= N``: values below 1 arise naturally from small shift parameters
  (the weight then multiplies the single smallest entry), and at integer
  ``m`` (including ``m == N``) the fractional term is dropped so that no
  out-of-range entry is ever read.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

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


VectorLike = Union[Sequence[float], np.ndarray]


def as_array(v: VectorLike) -> np.ndarray:
    """Coerce a sequence or array to a validated 1-d float array."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a 1-d vector with N >= 1, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


def _sorted_entries(v: VectorLike) -> np.ndarray:
    """Entries of an already-sorted input; raises if the order is violated."""
    x = as_array(v)
    if np.any(np.diff(x) < 0):
        raise ValueError("input must be sorted non-decreasing")
    return x


def elementary_symmetric(v: VectorLike, k: int) -> float:
    """k-th elementary symmetric polynomial sigma_k of the entries."""
    x = as_array(v)
    n = x.size
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    return float(sigma_prefix(x, k)[-1])


def _degree_factors(n: int, k: int, means: bool) -> np.ndarray:
    """Per-degree factors ``j/(n-j+1)`` for j = 1..k, which turn sigma_j into
    the mean ``sigma_j / binom(n, j)``; all ones for plain sigma_j."""
    if not means:
        return np.ones(k)
    return np.arange(1, k + 1) / np.arange(n, n - k, -1)


def sigma_prefix(x: np.ndarray, k: int, *, _means: bool = False) -> np.ndarray:
    """Array (sigma_1, ..., sigma_k) of one validated 1-d array with
    ``1 <= k <= N``, bit for bit one row of ``sigma_prefix_batch``.

    After the first i+1 entries, ``sigma_j`` is the previous ``sigma_j``
    plus ``(f_j * v[i])`` times the previous ``sigma_{j-1}``, with the
    degree factors f_j of ``_degree_factors``, all taken in one outer
    product.  For one degree j that is a running sum over i, so each degree
    is one sequential ``add.accumulate`` over the prefixes of the degree
    below.  The batch loop starts every sum at +0.0 where this one starts at
    its first term; the two differ only in the sign of a zero, which the
    final ``+ 0.0`` clears.  ``_means=True`` gives the means
    ``sigma_j / binom(N, j)`` instead.
    """
    steps = _degree_factors(x.size, k, _means)[:, None] * x
    prefix = np.add.accumulate(steps[0])
    last = [prefix[-1]]
    for j in range(1, k):
        prefix = np.add.accumulate(steps[j, j:] * prefix[:-1])
        last.append(prefix[-1])
    out = np.array(last)
    out += 0.0
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
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a (B, N) batch")
    b, n = rows.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    factors = _degree_factors(n, k, _means)[:, None]
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
    x = as_array(v)
    if x.size < 2:
        raise ValueError(f"need N >= 2 entries, got {x.size}")
    s1 = float(x.sum())
    return (s1 * s1 - float((x * x).sum())) / 2.0


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
    return float(partial_sum_batch(_sorted_entries(v)[None, :], m)[0])


def partial_sum_weights(m, n: int) -> np.ndarray:
    """Weights ``clip(m - i, 0, 1)`` for i = 0..n-1 of the partial sum at m.

    Over sorted entries the fractional partial sum is the dot product with
    these weights.  A column of per-row values ``m`` (shape (B, 1)) gives a
    (B, n) array, one weight row each.
    """
    weights = np.subtract(m, np.arange(n), dtype=float)
    return np.clip(weights, 0.0, 1.0, out=weights)


def partial_sum_batch(sorted_rows: np.ndarray, m: float) -> np.ndarray:
    """Row-wise fractional partial sum for a (B, N) batch of sorted rows."""
    rows = np.asarray(sorted_rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a (B, N) batch")
    m = _checked_m(m, rows.shape[1])
    fl = math.floor(m)
    frac = m - fl
    total = rows[:, :fl].sum(axis=1)
    if frac != 0.0:
        total = total + frac * rows[:, fl]
    return total


def normalized_partial_sum(v: VectorLike, m: float) -> float:
    """partial_sum_fractional(v, m) / m; non-decreasing in m for sorted v."""
    return partial_sum_fractional(v, m) / float(m)
