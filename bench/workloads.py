"""The benchmark's four workloads: inputs made from a seed, jobs, output checks.

Each workload is a closed loop with one client: ``build`` writes the input
files the workload needs and returns its fixed job list, and the runner calls
the jobs one after another.  A job's ``check`` turns its output into the
record that is hashed for the determinism digest and a list of failures.

Only the benchmark computes reference values: spectra come from
``numpy.linalg.eigvalsh`` on operator matrices assembled here, cone margins
from ``numpy.poly`` coefficients, verdicts and thresholds from their closed
forms.  A failure whose text starts with ``SCALE_DEFECT`` is a scaled copy of
a cone_margins vector disagreeing with its correct scale-1 copy where the
scaled vector drives a margin's divisor out of float64's normal range (the
known margin scale defects, see ``outside_float_range``); every other
failure, at any scale, means the program gave a wrong answer the benchmark
does not expect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from gardinglab import cli, cones, inclusion

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TOL = 1e-9  # gardinglab's default cone tolerance
SCALE_DEFECT = "scale: "
LOG10_MAX = math.log10(np.finfo(float).max)
LOG10_TINY = math.log10(np.finfo(float).tiny)  # smallest normal float64


@dataclass
class Context:
    """What a job may need from the runner while it runs."""

    workdir: Path
    tracer: Any = None
    job_span: int = -1


@dataclass
class Job:
    name: str
    group: str
    run: Callable[[Context], Any]
    check: Callable[[Any], tuple[Any, list[str]]]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    files: dict = field(default_factory=dict)


@dataclass
class JobError:
    """An exception raised by a job, kept as its output."""

    text: str


def cli_env() -> dict:
    """The environment of the tier-1 suite: ``src`` first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def cli_inprocess(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_subprocess(ctx: Context, argv: list[str]) -> CliResult:
    """``python -m gardinglab.cli`` as a child; traced through the bootstrap."""
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "gardinglab.cli", *argv]
    else:
        spans = ctx.workdir / "child_spans.json"
        spans.unlink(missing_ok=True)  # never merge a previous job's spans
        cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans), "--", *argv]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=120
    )
    if ctx.tracer is not None:
        ctx.tracer.merge_child(str(spans), ctx.job_span)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def machine_lines(result: CliResult, failures: list[str]) -> list[dict]:
    records = []
    for line in result.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            failures.append(f"unparseable output line {line[:60]!r}")
    return records


def cli_record(result) -> dict:
    if isinstance(result, JobError):
        return {"error": result.text}
    return {
        "exit": result.code,
        "stdout": result.stdout,
        "stderr": result.stderr,
        "files": result.files,
    }


def expect_exit(result, code: int, failures: list[str]) -> bool:
    if isinstance(result, JobError):
        failures.append(f"raised {result.text}")
        return False
    if result.code != code:
        failures.append(f"exit {result.code}, expected {code}")
        return False
    return True


def fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Reference values computed by the benchmark
# ---------------------------------------------------------------------------


def eps_for_m(m: float, n_entries: int) -> float:
    """The shift strength whose positivity index m_eps equals ``m``."""
    return math.sqrt(m / ((n_entries - 1) * (n_entries - m)))


def garding_margin(x: np.ndarray, k: int) -> float:
    """min over j <= k of sigma_j / (binom(N, j) ||x||^j), from numpy.poly."""
    norm = float(np.sqrt(np.dot(x, x)))
    if norm == 0.0:
        return 0.0
    coeffs = np.poly(x)  # coefficient j is (-1)^j sigma_j
    n = x.size
    return min((-1) ** j * coeffs[j] / (math.comb(n, j) * norm**j) for j in range(1, k + 1))


def positivity_margin(x: np.ndarray, m: float) -> float:
    norm = float(np.sqrt(np.dot(x, x)))
    if norm == 0.0:
        return 0.0
    s = np.sort(x)
    fl = math.floor(m)
    c0 = s[:fl].sum() + ((m - fl) * s[fl] if m > fl else 0.0)
    return float(c0 / (m * norm))


def exit_for_margin(margin: float) -> int:
    return 0 if margin > TOL else 1 if margin >= -TOL else 2


def ambiguous(margin: float, band: float = 1e-7) -> bool:
    return abs(margin - TOL) < band or abs(margin + TOL) < band


def sphere_tensor(n: int, c: float) -> np.ndarray:
    eye = np.eye(n)
    return c * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))


def product_tensor(p: int, q: int) -> np.ndarray:
    r = np.zeros((p + q,) * 4)
    r[:p, :p, :p, :p] = sphere_tensor(p, 1.0)
    r[p:, p:, p:, p:] = sphere_tensor(q, 1.0)
    return r


def random_tensor(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian 4-array projected onto the algebraic curvature tensors."""
    g = rng.normal(size=(n, n, n, n))
    g = g - g.transpose(1, 0, 2, 3)
    g = g - g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return g - (g + g.transpose(0, 2, 3, 1) + g.transpose(0, 3, 1, 2)) / 3.0


def tensor_file_text(r: np.ndarray) -> str:
    n = r.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lines = [f"dim {n}"]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[a:]:
            lines.append(f"{i + 1} {j + 1} {k + 1} {l + 1} {fmt(r[i, j, k, l])}")
    return "\n".join(lines) + "\n"


def operator_spectrum(r: np.ndarray, operator: str) -> np.ndarray:
    """Eigenvalues by LAPACK of the 2-form or trace-free operator of ``r``."""
    n = r.shape[0]
    if operator == "first":
        i, j = np.triu_indices(n, 1)
        return np.linalg.eigvalsh(r[i[:, None], j[:, None], i[None, :], j[None, :]])
    basis = []
    for i, j in zip(*np.triu_indices(n, 1)):
        b = np.zeros((n, n))
        b[i, j] = b[j, i] = math.sqrt(0.5)
        basis.append(b)
    # Orthonormal sum-zero diagonals: the Helmert rows.
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -float(k)
        basis.append(np.diag(d / math.sqrt(k * (k + 1))))
    basis = np.array(basis)
    images = np.einsum("iklj,akl->aij", r, basis)
    gram = np.einsum("aij,bij->ab", images, basis)
    return np.linalg.eigvalsh((gram + gram.T) / 2.0)


def expected_verdicts(values: np.ndarray, operator: str, n: int, eps: float) -> Optional[set]:
    """Verdict labels the classifier must emit, or None on a boundary tie."""
    N = values.size
    shifted = values - (1.0 - eps) / N * values.sum()
    margin = garding_margin(shifted, 2)
    if ambiguous(margin):
        return None
    if margin <= TOL:
        return set()

    def within(threshold: float) -> bool:
        return threshold < 1.0 and eps <= threshold * (1.0 + 1e-12) + 1e-12

    if operator == "first":
        return {"spherical_space_form"} if within(eps_for_m(2, N)) else set()
    if operator == "second":
        return {"spherical_space_form"} if within(eps_for_m(3, N)) else set()
    labels = set()
    norm = float(np.linalg.norm(values))
    coh = math.sqrt((3 * n - 2) / ((n**3 - 3 * n + 2) * (n * n - 1)))
    if within(coh) and positivity_margin(values, 3.0 - 2.0 / n) > TOL:
        labels.add("rational_cohomology_CPn")
    s = np.sort(values)
    if within(eps_for_m(2, N)) and (s[0] + s[1]) / (2.0 * norm) > TOL:
        labels.add("biholomorphic_CPn")
    return labels


def check_spectrum_text(text: str, reference: np.ndarray, failures: list[str]) -> None:
    try:
        values = np.array([float(t) for t in text.strip().split(",")])
    except ValueError:
        failures.append("spectrum file does not parse")
        return
    if values.size != reference.size:
        failures.append(f"spectrum has {values.size} values, expected {reference.size}")
        return
    err = float(np.max(np.abs(np.sort(values) - reference)))
    if not err <= 1e-8 * max(1.0, float(np.linalg.norm(reference))):
        failures.append(f"spectrum differs from eigvalsh by {err:.3g}")


def check_classification(result, expected: Optional[set], failures: list[str]) -> None:
    """Exit code and labels of ``classify`` against the expected verdicts."""
    if expected is None:
        return
    if not expect_exit(result, 0 if expected else 1, failures):
        return
    records = machine_lines(result, failures)
    labels = {
        v["verdict"]
        for r in records
        if r.get("record") == "classification"
        for v in r["verdicts"]
        if v["verdict"] != "none"
    }
    if labels != expected:
        failures.append(f"verdicts {sorted(labels)}, expected {sorted(expected)}")


# ---------------------------------------------------------------------------
# inclusion_grid
# ---------------------------------------------------------------------------

GRID_SAMPLES = 5_000
# Three sampler seeds per pair make 41 jobs, enough for a 75th-percentile
# tail with ten jobs beyond it.
SEEDS_PER_PAIR = 3
# Low N at moderate eps: auto routes to rejection at a few percent acceptance.
REJECTION_PAIRS = (
    (3, 0.2), (3, 0.5), (4, 0.2), (6, None), (10, 0.9), (20, 0.9), (28, 0.9), (45, 0.9)
)
# High N, narrow cones: auto routes to hit-and-run.  Every pair's acceptance
# rate sits far from the switch (5 pilot members in 20 000 draws at this
# sample count), so no seed flips the route and the work stays the same.
HITRUN_PAIRS = ((45, 0.05), (10, 0.1), (28, 0.2), (60, 0.2), (100, 0.2))
# Integer m_eps targets (m, N): a criterion-2 pair and one large pair.
BOUNDARY_PAIRS = ((4, 6), (7, 40))


def build_inclusion_grid(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    rng = np.random.default_rng(seed)
    samples = 500 if tiny else GRID_SAMPLES
    pairs = [(n, eps if eps is not None else eps_for_m(2, n)) for n, eps in REJECTION_PAIRS]
    pairs += list(HITRUN_PAIRS)
    specs = [(n, eps, False) for n, eps in pairs for _ in range(SEEDS_PER_PAIR)]
    specs += [(n, eps_for_m(m, n), True) for m, n in BOUNDARY_PAIRS]
    if tiny:
        specs = [specs[0], specs[SEEDS_PER_PAIR * len(REJECTION_PAIRS)], specs[-2]]
    jobs = []
    for n, eps, search in specs:
        argv = [
            "--format", "machine", "--seed", str(int(rng.integers(2**31))),
            "--samples", str(samples), "verify-inclusion", "--n", str(n), "--epsilon", fmt(eps),
        ] + (["--boundary-search"] if search else [])
        jobs.append(
            Job(
                name=f"verify-inclusion N={n} eps={eps:.4g}" + (" boundary" if search else ""),
                group="verify-inclusion",
                run=lambda ctx, argv=argv: cli_inprocess(argv),
                check=lambda out, s=samples, b=search: (cli_record(out), _check_inclusion(out, s, b)),
            )
        )
    return jobs


def _check_inclusion(result, samples: int, boundary: bool) -> list[str]:
    failures: list[str] = []
    if not expect_exit(result, 0, failures):
        return failures
    records = {r.get("record"): r for r in machine_lines(result, failures)}
    rep = records.get("verify_inclusion")
    if rep is None:
        return failures + ["no verify_inclusion record"]
    if not (rep["ok"] and rep["violation_count"] == 0 and rep["accepted"] == samples):
        failures.append("inclusion record not ok")
    if not (rep["min_margin"] is not None and rep["min_margin"] > 0.0):
        failures.append(f"min margin {rep['min_margin']}")
    if boundary:
        bs = records.get("boundary_search")
        if bs is None or not (bs["ok"] and bs["matched_rigid"] is True):
            failures.append("boundary search did not match the rigid minimizer")
    return failures


# ---------------------------------------------------------------------------
# model_spectra
# ---------------------------------------------------------------------------

# (kind, n or (p, q)), each run for both operators.  Sphere and product
# operators are sparse and cheap to diagonalize; the random tensors of the
# file kind give dense operators, where the Jacobi solver does the work.
MODEL_SPECS = (
    ("sphere", 14),
    ("sphere", 9),
    ("sphere", 5),
    ("product", (7, 7)),
    ("product", (3, 4)),
    ("file", 5),
    ("file", 5),
    ("file", 6),
    ("file", 7),
    ("file", 8),
    ("file", 9),
)
KAEHLER_DIMS = (2, 3, 4)
EPS_FACTORS = (0.9, 1.0, 1.2)  # below, at and above the verdict threshold


def build_model_spectra(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    """31 jobs: a pipeline per spectrum, then the Kaehler classify calls.

    A pipeline job is ``model-space --out`` followed by ``classify`` of the
    written spectrum at each of ``EPS_FACTORS``.  The 12 dense pipelines
    outnumber the 10 jobs beyond the 67th-percentile tail, so job_tail_ms
    falls on a Jacobi-bound job, while job_p50_ms falls on a sphere or
    product pipeline.
    """
    rng = np.random.default_rng(seed)
    specs = (MODEL_SPECS[0], MODEL_SPECS[4], MODEL_SPECS[5]) if tiny else MODEL_SPECS
    jobs = []
    for index, (kind, size) in enumerate(specs):
        if kind == "sphere":
            curvature = float(rng.uniform(0.5, 2.0))
            tensor = sphere_tensor(size, curvature)
            args = ["--n", str(size), "--curvature", fmt(curvature)]
        elif kind == "product":
            tensor = product_tensor(*size)
            args = ["--p", str(size[0]), "--q", str(size[1])]
        else:
            tensor = random_tensor(size, rng)
            path = workdir / f"tensor{index}.txt"
            path.write_text(tensor_file_text(tensor), encoding="utf-8")
            args = ["--tensor-file", str(path)]
        n = tensor.shape[0]
        for operator in ("first", "second"):
            out = workdir / f"spectrum{index}-{operator}.csv"
            model = ["--format", "machine", "model-space", kind, *args]
            model += ["--operator", operator, "--out", str(out)]
            reference = operator_spectrum(tensor, operator)
            target = 2 if operator == "first" else 3
            runs = _classify_runs(out, operator, n, reference, eps_for_m(target, reference.size))
            jobs.append(
                Job(
                    name=f"model-space {kind} n={n} {operator}, classify",
                    group="model-space",
                    run=lambda ctx, model=model, runs=runs: [
                        cli_inprocess(argv) for argv in [model, *(argv for argv, _ in runs)]
                    ],
                    check=lambda outs, out=out, ref=reference, runs=runs: _check_pipeline(
                        outs, out, ref, [expected for _, expected in runs]
                    ),
                )
            )
    for n in KAEHLER_DIMS[:1] if tiny else KAEHLER_DIMS:
        values = rng.uniform(0.5, 1.5, size=n * n)
        path = workdir / f"kaehler{n}.txt"
        path.write_text(",".join(fmt(v) for v in values) + "\n", encoding="utf-8")
        coh = math.sqrt((3 * n - 2) / ((n**3 - 3 * n + 2) * (n * n - 1)))
        for argv, expected in _classify_runs(path, "kaehler", n, np.sort(values), coh):
            jobs.append(
                Job(
                    name=f"classify kaehler n={n} eps={argv[-1]}",
                    group="classify",
                    run=lambda ctx, argv=argv: cli_inprocess(argv),
                    check=lambda res, e=expected: (
                        cli_record(res),
                        _failures(check_classification, res, e),
                    ),
                )
            )
    return jobs


def _classify_runs(path: Path, operator: str, n: int, values: np.ndarray, threshold: float):
    """``classify`` argv and expected verdicts at each of ``EPS_FACTORS``."""
    runs = []
    for factor in EPS_FACTORS:
        eps = min(threshold * factor, 0.99)
        argv = [
            "--format", "machine", "classify", str(path),
            "--dim", str(n), "--operator", operator, "--epsilon", fmt(eps),
        ]
        runs.append((argv, expected_verdicts(values, operator, n, eps)))
    return runs


def _check_pipeline(outs, out: Path, reference: np.ndarray, expected: list):
    if isinstance(outs, JobError):
        return {"error": outs.text}, [f"raised {outs.text}"]
    record, failures = _check_model_space(outs[0], out, reference)
    records = [record]
    for res, labels in zip(outs[1:], expected):
        records.append(cli_record(res))
        check_classification(res, labels, failures)
    return records, failures


def _check_model_space(result, out: Path, reference: np.ndarray):
    failures: list[str] = []
    if isinstance(result, CliResult):
        result.files[str(out)] = out.read_text(encoding="utf-8") if out.exists() else None
    if expect_exit(result, 0, failures):
        records = machine_lines(result, failures)
        if not (records and records[0].get("identity", {}).get("ok") is True):
            failures.append("scalar_curvature_checks did not pass")
        if result.files[str(out)] is None:
            failures.append("no spectrum file written")
        else:
            check_spectrum_text(result.files[str(out)], reference, failures)
    return cli_record(result), failures


# ---------------------------------------------------------------------------
# cone_margins
# ---------------------------------------------------------------------------

NESTING_DIMS = (10, 20, 30, 45, 70, 100)
NESTING_SAMPLES = 4_000
SCALAR_CALLS = 8_000
SCALAR_KINDS = ("garding", "shifted", "positivity", "dichotomy", "residual")


def build_cone_margins(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    samples = 200 if tiny else NESTING_SAMPLES
    for n in NESTING_DIMS[:2] if tiny else NESTING_DIMS:
        nest_seed = int(rng.integers(2**31))
        jobs.append(
            Job(
                name=f"nesting_check N={n}",
                group="nesting_check",
                run=lambda ctx, n=n, s=nest_seed: cones.nesting_check(n, samples, s),
                check=lambda rep, n=n: _check_nesting(rep, n, samples),
            )
        )
    for i in range(50 if tiny else SCALAR_CALLS):
        kind = SCALAR_KINDS[i % len(SCALAR_KINDS)]
        n = int(rng.integers(3, 41))
        base = rng.normal(size=n) + rng.uniform(0.0, 2.0)
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        jobs.append(_scalar_job(kind, n, base, scale, rng))
    return jobs


def outside_float_range(x: np.ndarray, k: int) -> bool:
    """Whether ``||x||^2``, or ``||x||^j`` or ``C(N, j) ||x||^j`` for some
    j <= k, leaves float64's normal range (with a decade to spare).

    These are the divisors of the normalized cone margins, and they bound
    the sigma_j and partial sums divided by them.  Outside the range the
    known scale defects occur: overflow gives a NaN margin or an
    OverflowError, underflow gives ``zero_vector`` or lost digits.  Inside
    it, a scaled margin must match its scale-1 copy.
    """
    peak = float(np.max(np.abs(x)))
    if not (0.0 < peak < math.inf):
        return True
    log_norm = math.log10(peak) + 0.5 * math.log10(float(np.sum((x / peak) ** 2)))
    logs = [2.0 * log_norm]
    for j in range(1, k + 1):
        logs += [j * log_norm, j * log_norm + math.log10(math.comb(x.size, j))]
    return max(logs) > LOG10_MAX - 1.0 or min(logs) < LOG10_TINY + 1.0


def _scalar_job(kind: str, n: int, base: np.ndarray, scale: float, rng) -> Job:
    scaled = base * scale
    # The vectors whose margins the call takes, and the highest sigma index.
    if kind == "garding":
        k = int(rng.integers(1, n + 1))
        call = lambda v: cones.in_garding_cone(v, k)  # noqa: E731
        margin = lambda v: garding_margin(v, k)  # noqa: E731
        vectors = lambda: [scaled]  # noqa: E731
    elif kind == "shifted":
        k = int(rng.integers(1, n + 1))
        params = cones.ShiftParams(alpha=float(rng.uniform(0.0, 1.0 / n)), N=n)
        call = lambda v: cones.in_shifted_cone(v, k, params)  # noqa: E731
        margin = lambda v: garding_margin(v - params.alpha * v.sum(), k)  # noqa: E731
        vectors = lambda: [scaled, scaled - params.alpha * scaled.sum()]  # noqa: E731
    elif kind == "positivity":
        k = 0
        m = float(rng.uniform(1.0, n))
        call = lambda v: cones.in_positivity_cone(v, m)  # noqa: E731
        margin = lambda v: positivity_margin(v, m)  # noqa: E731
        vectors = lambda: [scaled]  # noqa: E731
    else:
        k = 2
        eps_params = inclusion.epsilon_to_params(float(rng.uniform(0.05, 0.95)), n)
        if kind == "dichotomy":
            call = lambda v: inclusion.dichotomy_check(v, eps_params)  # noqa: E731
        else:
            call = lambda v: inclusion.shift_identity_residual(v, eps_params)  # noqa: E731
        margin = None
        vectors = lambda: [scaled, scaled - eps_params.alpha_eps * scaled.sum()]  # noqa: E731
    reference: dict = {}

    def check(out):
        if not reference:
            try:
                reference["value"] = call(base)
                reference["failures"] = _check_reference(kind, reference["value"], base, margin)
            except (ValueError, ArithmeticError) as exc:
                reference["failures"] = [f"scale-1 call raised {exc!r}"]
        failures = reference["failures"]
        if not failures:
            failures = _compare_scaled(kind, out, reference["value"], scaled, scale)
            if failures and any(outside_float_range(v, k) for v in vectors()):
                failures = [SCALE_DEFECT + f for f in failures]
        return _scalar_record(out), failures

    return Job(
        name=f"{kind} N={n} scale={scale:.3g}",
        group=f"scalar.{kind}",
        run=lambda ctx: call(scaled),
        check=check,
    )


def _scalar_record(out):
    if isinstance(out, JobError):
        return {"error": out.text}
    return out.to_record() if hasattr(out, "to_record") else {"residual": out}


def _check_reference(kind: str, ref, base: np.ndarray, margin) -> list[str]:
    """The scale-1 call must itself be right before scaled copies are judged."""
    if kind == "residual":
        bound = 1e-9 * (1.0 + float(np.dot(base, base)))
        return [] if abs(ref) <= bound else [f"scale-1 residual {ref:.3g}"]
    if kind == "dichotomy":
        return [] if math.isfinite(ref.c0) else ["scale-1 dichotomy c0 not finite"]
    expected = margin(base)
    if not abs(ref.margin - expected) <= 1e-8:
        return [f"scale-1 margin {ref.margin!r}, reference {expected!r}"]
    if not ambiguous(expected) and (ref.member_open, ref.member_closed) != (
        expected > TOL,
        expected >= -TOL,
    ):
        return ["scale-1 flags disagree with the reference margin"]
    return []


def _compare_scaled(kind: str, out, ref, scaled: np.ndarray, scale: float) -> list[str]:
    if isinstance(out, JobError):
        return [f"raised {out.text}"]
    if kind == "residual":
        with np.errstate(over="ignore"):
            bound = 1e-9 * (1.0 + float(np.dot(scaled, scaled)))
        # Where the residual's own scale is not representable, nothing is checked.
        return [] if not math.isfinite(bound) or abs(out) <= bound else [f"residual {out!r}"]
    if kind == "dichotomy":
        failures = []
        if (out.case, out.rigid_m) != (ref.case, ref.rigid_m):
            failures.append(f"case {out.case}, scale-1 case {ref.case}")
        if not abs(out.c0 / scale - ref.c0) <= 1e-8 * (1.0 + abs(ref.c0)):
            failures.append(f"c0/scale {out.c0 / scale!r}, scale-1 c0 {ref.c0!r}")
        return failures
    failures = []
    if not math.isfinite(out.margin):
        failures.append(f"margin {out.margin!r}")
    elif not abs(out.margin - ref.margin) <= 1e-8:
        failures.append(f"margin {out.margin!r}, scale-1 margin {ref.margin!r}")
    if not ambiguous(ref.margin) and (out.member_open, out.member_closed) != (
        ref.member_open,
        ref.member_closed,
    ):
        failures.append(f"flags differ from scale 1 ({out.binding_constraint})")
    return failures


def _check_nesting(rep, n: int, samples: int):
    if isinstance(rep, JobError):
        return {"error": rep.text}, [f"raised {rep.text}"]
    failures = []
    if not rep.ok:
        failures.append(f"{len(rep.violations)} nesting violations")
    if rep.checks != samples * (2 * n + 1):
        failures.append(f"{rep.checks} checks, expected {samples * (2 * n + 1)}")
    return rep.to_record(), failures


# ---------------------------------------------------------------------------
# cli_queries
# ---------------------------------------------------------------------------


CONE_FLAG_KINDS = ("k2", "kN", "k", "epsilon", "alpha", "m")


def build_cli_queries(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    """31 subprocess jobs: a 67th-percentile tail leaves ten jobs beyond it."""
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []

    def add(name, group, argv, check_output):
        def check(res):
            failures = check_output(res)  # may attach written files to res
            return cli_record(res), failures

        jobs.append(
            Job(
                name=name,
                group=group,
                run=lambda ctx: cli_subprocess(ctx, ["--format", "machine", *argv]),
                check=check,
            )
        )

    def write(name: str, text: str) -> Path:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    # cone-test across --k (up to N), --k with --epsilon or --alpha, and --m.
    for i in range(10):
        kind = CONE_FLAG_KINDS[i % len(CONE_FLAG_KINDS)]
        n = int(rng.integers(3, 12))
        k = {"k2": 2, "kN": n}.get(kind, int(rng.integers(1, n + 1)))
        alpha = 0.0
        if kind == "epsilon":
            eps = float(rng.uniform(0.05, 0.95))
            alpha, flags = (1.0 - eps) / n, ["--k", str(k), "--epsilon", fmt(eps)]
        elif kind == "alpha":
            alpha = float(rng.uniform(0.0, 1.0 / n))
            flags = ["--k", str(k), "--alpha", fmt(alpha)]
        elif kind == "m":
            m = float(rng.uniform(1.0, n))
            flags = ["--m", fmt(m)]
        else:
            flags = ["--k", str(k)]
        while True:
            values = rng.normal(size=n) + rng.uniform(0.0, 2.0)
            if kind == "m":
                margin = positivity_margin(values, m)
            else:
                margin = garding_margin(values - alpha * values.sum(), k)
            if not ambiguous(margin, 1e-6):
                break
        path = write(f"v{i}.txt", ", ".join(fmt(v) for v in values) + "\n")
        add(f"cone-test N={n} {' '.join(flags)}", "cone-test", ["cone-test", str(path), *flags],
            lambda res, e=margin: _check_cone_test(res, e))

    for _ in range(3):
        n_max = int(rng.integers(4, 13))
        add(f"thresholds 3..{n_max}", "thresholds", ["thresholds", "--n-min", "3", "--n-max", str(n_max)],
            lambda res, n_max=n_max: _check_thresholds(res, n_max))

    # model-space writes spectra that the classify jobs below read.
    sphere_n = int(rng.integers(4, 8))
    curvature = float(rng.uniform(0.5, 2.0))
    p, q = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    spectra = {
        "sphere_first": (sphere_n, "first", sphere_tensor(sphere_n, curvature),
                         ["sphere", "--n", str(sphere_n), "--curvature", fmt(curvature)]),
        "sphere_second": (sphere_n, "second", sphere_tensor(sphere_n, curvature),
                          ["sphere", "--n", str(sphere_n), "--curvature", fmt(curvature)]),
        "product_first": (p + q, "first", product_tensor(p, q), ["product", "--p", str(p), "--q", str(q)]),
    }
    tensor = random_tensor(4, rng)
    tensor_path = write("tensor.txt", tensor_file_text(tensor))
    spectra["file_second"] = (4, "second", tensor, ["file", "--tensor-file", str(tensor_path)])
    references = {}
    for key, (n, operator, r, args) in spectra.items():
        csv = workdir / f"{key}.csv"
        ref = references[key] = operator_spectrum(r, operator)
        add(f"model-space {key} n={n}", "model-space",
            ["model-space", *args, "--operator", operator, "--out", str(csv)],
            lambda res, csv=csv, ref=ref: _check_model_space(res, csv, ref)[1])
    classify_cases = [("sphere_first", 0.9), ("sphere_second", 1.2), ("product_first", 1.0), ("file_second", None)]
    for key, factor in classify_cases:
        n, operator = spectra[key][:2]
        ref = references[key]
        target = 2 if operator == "first" else 3
        eps = eps_for_m(target, ref.size) * factor if factor else float(rng.uniform(0.05, 0.95))
        add(f"classify {key} eps={eps:.4g}", "classify",
            ["classify", str(workdir / f"{key}.csv"), "--dim", str(n), "--operator", operator, "--epsilon", fmt(eps)],
            lambda res, e=expected_verdicts(ref, operator, n, eps): _failures(check_classification, res, e))
    for n in (2, 3):
        values = rng.uniform(0.5, 1.5, size=n * n)
        path = write(f"kaehler{n}.txt", " ".join(fmt(v) for v in values) + "\n")
        eps = float(rng.uniform(0.01, 0.2))
        add(f"classify kaehler n={n}", "classify",
            ["classify", str(path), "--dim", str(n), "--operator", "kaehler", "--epsilon", fmt(eps)],
            lambda res, e=expected_verdicts(np.sort(values), "kaehler", n, eps): _failures(check_classification, res, e))

    for _ in range(2):
        n, eps = int(rng.integers(4, 9)), float(rng.uniform(0.3, 0.9))
        add(f"verify-inclusion N={n}", "verify-inclusion",
            ["--samples", "2000", "--seed", str(int(rng.integers(2**31))),
             "verify-inclusion", "--n", str(n), "--epsilon", fmt(eps)],
            lambda res: _check_inclusion(res, 2000, False))

    # Error paths: usage errors exit 64, malformed input files exit 65 and
    # name the offending line.
    bad = write("bad.txt", f"{fmt(rng.normal())}, {fmt(rng.normal())}\n1.0, not-a-number\n")
    infinite = write("inf.txt", f"{fmt(rng.normal())}\n\n{fmt(rng.normal())} inf\n")
    sphere_csv = str(workdir / "sphere_first.csv")
    errors = [
        ("cone-test --k with --m", ["cone-test", str(bad), "--k", "2", "--m", "1.5"], 64, None),
        ("thresholds n-min > n-max", ["thresholds", "--n-min", "5", "--n-max", "3"], 64, None),
        ("model-space sphere without --n", ["model-space", "sphere"], 64, None),
        ("cone-test malformed file", ["cone-test", str(bad), "--k", "2"], 65, "line 2"),
        ("cone-test non-finite entry", ["cone-test", str(infinite), "--m", "1.5"], 65, "line 3"),
        ("classify wrong length",
         ["classify", sphere_csv, "--dim", str(sphere_n + 1), "--operator", "first", "--epsilon", "0.1"], 65, None),
    ]
    for name, argv, code, line in errors:
        add(name, "error", argv, lambda res, c=code, line=line: _check_error(res, c, line))
    if tiny:
        firsts = ("cone-test", "thresholds", "model-space sphere_first", "classify sphere_first",
                  "verify-inclusion", "thresholds n-min", "cone-test malformed")
        jobs = [next(job for job in jobs if job.name.startswith(f)) for f in firsts]
    return jobs


def _failures(fn, *args) -> list[str]:
    failures: list[str] = []
    fn(*args, failures)
    return failures


def _check_cone_test(result, margin: float) -> list[str]:
    failures: list[str] = []
    if expect_exit(result, exit_for_margin(margin), failures):
        records = machine_lines(result, failures)
        if not (records and abs(records[0]["margin"] - margin) <= 1e-8):
            failures.append("cone-test margin differs from the reference")
    return failures


def _check_thresholds(result, n_max: int) -> list[str]:
    failures: list[str] = []
    if not expect_exit(result, 0, failures):
        return failures
    records = machine_lines(result, failures)
    if [r.get("n") for r in records] != list(range(3, n_max + 1)):
        return failures + ["threshold rows do not cover 3..n-max"]
    for r in records:
        n = r["n"]
        expected = {
            "space_form_first": eps_for_m(2, n * (n - 1) // 2),
            "space_form_second": eps_for_m(3, (n - 1) * (n + 2) // 2),
            "cpn_cohomology": math.sqrt((3 * n - 2) / ((n**3 - 3 * n + 2) * (n * n - 1))),
            "cpn_biholomorphic": eps_for_m(2, n * n),
        }
        for key, value in expected.items():
            if not abs(r[key] - value) <= 1e-12 * value:
                failures.append(f"threshold {key} n={n}: {r[key]!r}, expected {value!r}")
    return failures


def _check_error(result, code: int, line: Optional[str]) -> list[str]:
    failures: list[str] = []
    if expect_exit(result, code, failures):
        if result.stdout or not result.stderr:
            failures.append("error path printed to stdout or not to stderr")
        if line and line not in result.stderr:
            failures.append(f"parse error does not name {line}")
    return failures


WORKLOADS = {
    "inclusion_grid": build_inclusion_grid,
    "model_spectra": build_model_spectra,
    "cone_margins": build_cone_margins,
    "cli_queries": build_cli_queries,
}
