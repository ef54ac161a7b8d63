"""Membership tests, with signed margins, for the positivity cones.

Three cone families are covered:

* Garding cones ``G_k = {v : sigma_j(v) > 0 for j = 1..k}`` and their
  closures,
* shifted cones ``G_k(alpha) = {v : v - alpha*sum(v)*(1,..,1) in G_k}``,
* m-positivity cones ``P_m`` whose members have every fractional partial sum
  of ``floor(m)+1`` entries positive; for sorted vectors the binding
  selection is always the smallest entries.

Margins are normalized so one tolerance is meaningful across dimensions and
scales: ``sigma_j`` is divided by ``binom(N, j) * ||v||^j`` and the partial
sum by ``m * ||v||``.  The zero vector is a closed member of every cone (it
is the cone vertex) and an open member of none.  Open membership requires
``margin > tol``; closed membership requires ``margin >= -tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, Record
from .symfun import (
    VectorLike,
    as_array,
    partial_sum_batch,
    partial_sum_fractional,
    partial_sum_weights,
    sigma_prefix,
    sigma_prefix_batch,
)

__all__ = [
    "ConeMembership",
    "ShiftParams",
    "shift",
    "in_garding_cone",
    "in_shifted_cone",
    "in_positivity_cone",
    "nesting_check",
    "NestingReport",
]


@dataclass(frozen=True)
class ConeMembership(Record):
    """Outcome of a cone test: flags, normalized margin, binding constraint."""

    member_open: bool
    member_closed: bool
    margin: float
    binding_constraint: str
    tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class ShiftParams:
    """Shift weight alpha in [0, 1/N) for vectors of length N."""

    alpha: float
    N: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0.0 <= self.alpha < 1.0 / self.N:
            raise ValueError(
                f"alpha must lie in [0, 1/{self.N}), got {self.alpha}"
            )


def _membership(margin: float, binding: str, tol: float) -> ConeMembership:
    return ConeMembership(
        member_open=margin > tol,
        member_closed=margin >= -tol,
        margin=float(margin),
        binding_constraint=binding,
        tol=tol,
    )


def shift(v: VectorLike, p: ShiftParams) -> np.ndarray:
    """Subtract alpha times the coordinate sum from every coordinate."""
    x = as_array(v)
    if x.size != p.N:
        raise ValueError(f"vector length {x.size} does not match N={p.N}")
    return x - p.alpha * x.sum()


def in_garding_cone(v: VectorLike, k: int, tol: float = DEFAULT_TOL) -> ConeMembership:
    """Test v against G_k; the margin is the worst normalized sigma_j."""
    x = as_array(v)
    n = x.size
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return _membership(0.0, "zero_vector", tol)
    sigmas = sigma_prefix(x, k)
    scales = np.array([math.comb(n, j) * norm**j for j in range(1, k + 1)])
    margins = sigmas / scales
    j = int(np.argmin(margins))
    return _membership(float(margins[j]), f"sigma_{j + 1}", tol)


def in_shifted_cone(
    v: VectorLike, k: int, p: ShiftParams, tol: float = DEFAULT_TOL
) -> ConeMembership:
    """Test v against G_k(alpha): membership of the shifted vector in G_k."""
    return in_garding_cone(shift(v, p), k, tol)


def in_positivity_cone(v: VectorLike, m: float, tol: float = DEFAULT_TOL) -> ConeMembership:
    """Test v against P_m; sorting makes the smallest entries binding."""
    x = as_array(v)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return _membership(0.0, "zero_vector", tol)
    c0 = partial_sum_fractional(np.sort(x, kind="stable"), m)
    return _membership(c0 / (float(m) * norm), f"partial_sum[m={m:g}]", tol)


# ---------------------------------------------------------------------------
# Batch membership margins (used by the samplers and the nesting checker)
# ---------------------------------------------------------------------------


def garding_margin_chain_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """(B, k) array whose column j-1 is the normalized G_j margin per row.

    Column j-1 equals ``min over i <= j of sigma_i / (binom(N,i) ||v||^i)``,
    i.e. the whole Garding chain in one pass; zero rows get margin 0.
    """
    rows = np.asarray(rows, dtype=float)
    b, n = rows.shape
    norms = np.linalg.norm(rows, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    sigmas = sigma_prefix_batch(rows, k)
    scaled = np.empty((b, k))
    for j in range(1, k + 1):
        scaled[:, j - 1] = sigmas[:, j - 1] / (math.comb(n, j) * safe**j)
    chain = np.minimum.accumulate(scaled, axis=1)
    chain[norms == 0.0, :] = 0.0
    return chain


def garding_margins_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """Normalized G_k margins per row; zero rows get margin 0."""
    return garding_margin_chain_batch(rows, k)[:, -1]


def positivity_margins_batch(rows: np.ndarray, m: float) -> np.ndarray:
    """Normalized P_m margins per row; zero rows get margin 0."""
    rows = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(rows, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    c0 = partial_sum_batch(np.sort(rows, axis=1), m)
    out = c0 / (float(m) * safe)
    out[norms == 0.0] = 0.0
    return out


# ---------------------------------------------------------------------------
# Nesting chains
# ---------------------------------------------------------------------------


@dataclass
class NestingReport(Record):
    """Sampled verification of the cone nesting chains.

    ``ok`` is False as soon as one implication fails beyond tolerance; the
    first few offending samples are kept for diagnosis.  Equality checks
    (G_N = P_1 and P_N = G_1) count a mismatch only when both margins sit
    clear of the boundary band, since the two sides normalize differently.
    """

    record_tag = "nesting_check"

    N: int
    samples: int
    seed: int
    tol: float
    checks: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _add_violation(report: NestingReport, kind: str, row: np.ndarray, detail: dict) -> None:
    if len(report.violations) < 10:
        report.violations.append(
            {"kind": kind, "vector": [float(t) for t in row], **detail}
        )
    else:
        report.violations.append({"kind": kind})


def _breaks_maclaurin(chain: np.ndarray, tol: float) -> np.ndarray:
    """Rows where some ``chain_{j+1} > tol`` has a (j+1)-th root above the
    j-th root of ``chain_j`` by more than tol."""
    roots = np.maximum(chain, 0.0)
    roots **= 1.0 / np.arange(1, chain.shape[1] + 1)
    return ((chain[:, 1:] > tol) & ~(roots[:, 1:] <= roots[:, :-1] + tol)).any(axis=1)


def nesting_check(
    N: int, samples: int, seed: int, tol: float = DEFAULT_TOL
) -> NestingReport:
    """Sample random vectors and assert the nesting of all three families.

    Checked per sample: G_{k+1} subset of G_k (plain and with a random shift
    alpha in [0, 1/N)), P_{m1} subset of P_{m2} for random 1 <= m1 <= m2 <= N,
    and the endpoint identities G_N = P_1, P_N = G_1.  The chain margins are
    cumulative minima, so G_{k+1} subset of G_k holds for them by
    construction; what is checked instead is Maclaurin's inequality, which
    Newton's inequalities give inside G_{k+1}: there the normalized margins
    satisfy ``margin_{k+1}^(1/(k+1)) <= margin_k^(1/k)``.  A sample whose margins
    in a check are not all finite violates that check.  All per-sample draws
    come from one seeded stream in a fixed order, so the verdict does not
    depend on evaluation scheduling.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    report = NestingReport(N=N, samples=samples, seed=seed, tol=tol)
    if samples == 0:
        return report
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    rows = rng.normal(size=(samples, N))
    alphas = rng.uniform(0.0, 1.0 / N, size=samples)
    m_pairs = np.sort(rng.uniform(1.0, N, size=(samples, 2)), axis=1)

    # Garding chain margins for every k, plain and with the random shift,
    # held to Maclaurin's inequality wherever the next cone is entered.
    plain = garding_margin_chain_batch(rows, N)
    shifted = garding_margin_chain_batch(
        rows - alphas[:, None] * rows.sum(axis=1, keepdims=True), N
    )
    for label, margins in (("garding_chain", plain), ("shifted_chain", shifted)):
        bad = _breaks_maclaurin(margins, tol) | ~np.isfinite(margins).all(axis=1)
        for i in np.flatnonzero(bad):
            _add_violation(report, label, rows[i], {"margins": margins[i].tolist()})
        report.checks += margins.shape[0] * (N - 1)

    # P_m monotonicity on random pairs, one m-column at a time.
    sorted_rows = np.sort(rows, axis=1)
    norms = np.linalg.norm(rows, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    p_margins = []
    for ms in m_pairs.T:
        weighted = partial_sum_weights(ms[:, None], N)
        weighted *= sorted_rows
        p_margins.append(weighted.sum(axis=1) / (ms * safe))
    m1_margin, m2_margin = p_margins
    bad = (
        ((m1_margin > tol) & ~(m2_margin > tol))
        | ((m1_margin >= -tol) & ~(m2_margin >= -tol))
        | ~(np.isfinite(m1_margin) & np.isfinite(m2_margin))
    )
    for i in np.flatnonzero(bad):
        _add_violation(
            report,
            "positivity_monotonicity",
            rows[i],
            {"m1": float(m_pairs[i, 0]), "m2": float(m_pairs[i, 1])},
        )
    report.checks += samples

    # Endpoint identities, compared outside the boundary band only.
    band = 10.0 * tol
    p1 = positivity_margins_batch(rows, 1.0)
    pn = positivity_margins_batch(rows, float(N))
    g1 = plain[:, 0]
    gn = plain[:, N - 1]
    for label, a, b in (("G_N=P_1", gn, p1), ("P_N=G_1", pn, g1)):
        clear = (np.abs(a) > band) & (np.abs(b) > band)
        bad = (clear & ((a > 0) != (b > 0))) | ~(np.isfinite(a) & np.isfinite(b))
        for i in np.flatnonzero(bad):
            _add_violation(
                report, label, rows[i], {"lhs_margin": float(a[i]), "rhs_margin": float(b[i])}
            )
        report.checks += samples
    return report
