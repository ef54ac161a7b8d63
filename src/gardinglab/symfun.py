"""Elementary symmetric polynomials and ordered partial-sum functionals.

Conventions used throughout the package:

* ``sigma_k(v) = sum over i_1 < ... < i_k of v[i_1] * ... * v[i_k]``,
  computed by the Newton--Horner coefficient recurrence on the product
  ``prod(1 + t*v_i)`` (coefficient of ``t^k``).  The recurrence is exact for
  integer inputs within the float mantissa and O(N*k) in time.
* Sorted vectors are non-decreasing.  Ties are broken stably by original
  index so that recorded permutations are reproducible.
* ``partial_sum_fractional(v, m)`` with real ``m`` sums the ``floor(m)``
  smallest entries plus ``(m - floor(m))`` times the next one.  The domain is
  ``0 < m <= N``: values below 1 arise naturally from small shift parameters
  (the weight then multiplies the single smallest entry), and at integer
  ``m`` (including ``m == N``) the fractional term is dropped so that no
  out-of-range entry is ever read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "RealVector",
    "SortedVector",
    "elementary_symmetric",
    "sigma2_via_power_sums",
    "partial_sum_fractional",
    "normalized_partial_sum",
]

# Relative slack admitted when a caller passes m marginally above N through
# float roundoff (e.g. m computed from a shift parameter).
_M_CLAMP_RTOL = 1e-12


@dataclass(frozen=True)
class RealVector:
    """Finite real vector of length N >= 1."""

    entries: tuple[float, ...]

    def __init__(self, entries: Iterable[float]) -> None:
        object.__setattr__(self, "entries", tuple(float(x) for x in entries))
        if len(self.entries) < 1:
            raise ValueError("RealVector needs at least one entry")
        if not all(math.isfinite(x) for x in self.entries):
            raise ValueError("RealVector entries must be finite")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)


@dataclass(frozen=True)
class SortedVector:
    """Non-decreasing vector plus the stable permutation that produced it.

    ``entries[i] == source[permutation[i]]`` for the source vector the sort
    was taken from; ties keep the lowest original index first.
    """

    entries: tuple[float, ...]
    permutation: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.permutation):
            raise ValueError("entries and permutation length mismatch")
        if any(a > b for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError("SortedVector entries must be non-decreasing")
        if sorted(self.permutation) != list(range(len(self.entries))):
            raise ValueError("permutation must be a permutation of 0..N-1")

    @classmethod
    def from_vector(cls, v: "VectorLike") -> "SortedVector":
        x = as_array(v)
        perm = np.argsort(x, kind="stable")
        return cls(tuple(float(t) for t in x[perm]), tuple(int(i) for i in perm))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)


VectorLike = Union[RealVector, SortedVector, Sequence[float], np.ndarray]


def as_array(v: VectorLike) -> np.ndarray:
    """Coerce any accepted vector form to a validated 1-d float array."""
    if isinstance(v, (RealVector, SortedVector)):
        return v.array
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a 1-d vector with N >= 1, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def _sorted_entries(v: VectorLike) -> np.ndarray:
    """Entries of an already-sorted input; raises if the order is violated."""
    if isinstance(v, SortedVector):
        return v.array
    x = as_array(v)
    if np.any(np.diff(x) < 0):
        raise ValueError("input must be sorted non-decreasing (use SortedVector)")
    return x


def elementary_symmetric(v: VectorLike, k: int) -> float:
    """k-th elementary symmetric polynomial sigma_k of the entries."""
    x = as_array(v)
    n = x.size
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    return float(sigma_prefix(x, k)[-1])


def sigma_prefix(v: VectorLike, k: int) -> np.ndarray:
    """Array (sigma_1, ..., sigma_k): one row of ``sigma_prefix_batch``."""
    return sigma_prefix_batch(as_array(v)[None, :], k)[0]


def sigma_prefix_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """Row-wise (sigma_1, ..., sigma_k) for a (B, N) batch.

    Horner coefficient recurrence: multiplying by ``(1 + t*mu)`` adds mu
    times every coefficient to the next one up.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a (B, N) batch")
    b, n = rows.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    coeffs = np.zeros((b, k + 1))
    coeffs[:, 0] = 1.0
    higher, lower = coeffs[:, 1:], coeffs[:, :-1]
    for column in rows.T[:, :, None]:
        higher += column * lower
    return higher


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
