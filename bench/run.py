"""gardinglab benchmark: one workload per run, every output checked.

Usage, from the root of the repository::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``inclusion_grid``, ``model_spectra``,
``cone_margins`` and ``cli_queries``.  The inputs are made from ``--seed``;
the program sees only those.

A run sets up several times.  One set-up starts a fresh interpreter that
imports gardinglab, then writes the workload's input files and builds its
job list.  The run keeps the first set-up's job list and repeats passes
over it for ``--seconds``: it starts no pass that would likely end after
them (by the median time of the passes so far), but runs at least three
and at most ``MAX_PASSES``.  It sets up five times in all: the first,
three more spread evenly over the passes (between two passes, once a
fifth, two fifths and three fifths of ``--seconds`` have passed) and the
rest after the last pass.  Jobs run one after another in one process; the
cli_queries jobs are subprocesses.  After each
pass every output is checked and hashed.  A job whose record differs from
the first pass's counts as failed.  ``attempted`` is the number of jobs in
the list and ``failed`` the number of them that failed in any pass, so
both depend on the seed only, not on how many passes fit in the time.

BLAS and OpenMP run one thread unless the environment sets otherwise
(``BLAS_THREADS``): on the two-core machines this runs on, spare BLAS
threads spin on the second core at every numpy import and measure the
other tenants rather than the program.  The setting is in the provenance.

Timings are in reference seconds.  On the small shared machines this runs
on, other tenants slow the CPU by up to 2x for seconds to minutes at a
time, often for a whole run, so neither the fastest nor the median
wall-clock time repeats from run to run.  Every run therefore times a fixed
piece of benchmark code, a kernel, at least every tenth of a second
between jobs (half a second on cli_queries), and scales each job's
wall-clock time by the kernel's reference time over the median of its
timings within a second of the job.  A job in reference seconds is the time
it would take at the speed at which the kernel takes its reference time.
The kernel never runs gardinglab code, so the program's speed-ups show in
full.  Each job uses the kernel nearest its kind of work
(``WORKLOAD_KERNEL``, ``GROUP_KERNEL``); set-ups use the process kernel.  The wall-clock figures
are in the details.  Each job's latency is its median over the run's
passes; the metrics are taken over these per-job latencies:

* ``wall_s``: their sum, the time of one pass over the job list;
* ``job_p50_ms``: their median;
* ``job_tail_ms``: their nearest-rank percentile at the highest of 50, 67,
  75, 90, 95 and 99 that leaves at least ten jobs beyond it; the
  percentile and the count beyond it are in the details;
* ``setup_s``: the median time of the run's set-ups;
* ``peak_rss_mb``: the peak resident set of the benchmark process, plus
  that of its largest child on cli_queries.

With ``--trace 0`` the last line of stdout is the JSON result with these
end-to-end metrics.  With ``--trace 1``, passes alternate between untraced
and traced, and the result holds the per-layer metrics, per traced pass.
Traced passes wrap gardinglab's public functions (``tracing.py``); the
spans are written to ``bench/out/``.  The line before the result gives the
details: the digest, the tail percentile, the wall-clock time of each pass
and the wall-clock medians, the failure counts and the provenance.  The
same details, with the result and each job's latency, go to
``bench/out/<workload>-s<seed>-t<trace>.json``.

``correct`` is false when any check fails other than a known margin scale
defect on cone_margins (see ``workloads.outside_float_range``); those still count
in ``failed``.  Without ``src/gardinglab`` next to ``bench/`` the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 5
MIN_PASSES = 3
MAX_PASSES = 64  # of each kind, traced or not
PERCENTILES = (50.0, 67.0, 75.0, 90.0, 95.0, 99.0)
WORKLOAD_NAMES = ("inclusion_grid", "model_spectra", "cone_margins", "cli_queries")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
KERNEL_WINDOW_S = 1.0  # kernel timings this close to a job gauge its speed


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten of ``samples`` beyond it."""
    fitting = [p for p in PERCENTILES if samples * (1.0 - p / 100.0) >= 10.0]
    return fitting[-1] if fitting else PERCENTILES[0]


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def invoke(
    workload: str, seed: int, seconds: float, trace: int, *extra: str, cwd: Path = ROOT
) -> subprocess.CompletedProcess:
    """Run this benchmark in a child process, as ``python3 bench/run.py``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def interpreter_work() -> int:
    """Fixed interpreter-bound work: arithmetic, string and dict building, a sort."""
    total = 0
    table = {}
    for i in range(10_000):
        total += (i * i) % 7
        table[str(i)] = total
    return len(sorted(table, key=table.__getitem__)) + total


def fastest_of_two(work: Callable[[], object]) -> float:
    """The faster of two wall-clock timings of ``work``."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return min(times)


def interpreter_seconds() -> float:
    return fastest_of_two(interpreter_work)


def numpy_work() -> int:
    """Fixed vectorized work: normal draws, row sorts, cumulative sums, a mask."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((3000, 12))
    c = np.cumsum(np.sort(x, axis=1), axis=1) / np.linalg.norm(x, axis=1)[:, None]
    return int(np.count_nonzero((c > -1.0).all(axis=1)))


def mixed_seconds() -> float:
    return fastest_of_two(interpreter_work) + fastest_of_two(numpy_work)


def process_seconds() -> float:
    """Wall time of a fresh interpreter that does nothing."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Kernel:
    """Fixed work, timed next to the jobs, that gauges the machine's speed.

    ``reference_s`` is its time on the machine the baseline was measured on
    (2 cores of a shared host) when no other tenant slowed it; ``every_s``
    is the longest stretch of jobs between two of its timings.
    """

    name: str
    seconds: Callable[[], float]
    reference_s: float
    every_s: float

    def to_reference(self, seconds: float, kernel_s: float) -> float:
        """Wall-clock seconds scaled to the speed at which the kernel takes
        ``reference_s``."""
        return seconds * self.reference_s / kernel_s


# Other tenants of the shared host slow interpreter-bound Python, vectorized
# numpy and interpreter start-up by different factors, so each job is gauged
# by the kernel whose slowdowns followed its kind of job's most closely in
# runs made through slow stretches: the Python kernel for the Jacobi loops and
# the scalar cone calls, Python plus numpy for the samplers and the batched
# nesting checks, a bare interpreter start for subprocess jobs and for
# set-ups, which mostly start an interpreter.
INTERPRETER = Kernel("interpreter", interpreter_seconds, 2.3e-3, 0.1)
MIXED = Kernel("mixed", mixed_seconds, 4.1e-3, 0.1)
PROCESS = Kernel("process", process_seconds, 0.05, 0.5)
WORKLOAD_KERNEL = {"inclusion_grid": MIXED, "cli_queries": PROCESS}
GROUP_KERNEL = {"nesting_check": MIXED}  # job groups unlike the rest of their workload


def nearby_kernel(marks: list[float], kernel: list[float], t0: float, t1: float) -> float:
    """Median kernel time of the timings started within ``KERNEL_WINDOW_S`` of
    the interval [t0, t1]; ``marks`` (ascending) holds when each started."""
    lo = bisect.bisect_left(marks, t0 - KERNEL_WINDOW_S)
    hi = bisect.bisect_right(marks, t1 + KERNEL_WINDOW_S)
    return statistics.median(kernel[lo:hi])


def cold_import_seconds() -> float:
    """Wall time of a fresh interpreter that only imports gardinglab."""
    from workloads import cli_env

    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import gardinglab"], env=cli_env(), cwd=ROOT, check=True
    )
    return time.perf_counter() - start


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    source = hashlib.sha256()
    for path in sorted((SRC / "gardinglab").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_THREADS},
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


class Run:
    """The passes of one run and everything measured or checked in them."""

    def __init__(self, jobs, ctx, kernel: Kernel = INTERPRETER) -> None:
        self.jobs = jobs
        self.ctx = ctx
        self.kernels = [GROUP_KERNEL.get(job.group, kernel) for job in jobs]
        self.first_hashes: list[str] | None = None
        # Per job: whether it failed, counted as the known scale defect or
        # gave a wrong exit code in any pass so far.
        self.job_failed = [False] * len(jobs)
        self.job_scale_defect = [False] * len(jobs)
        self.job_exit_mismatch = [False] * len(jobs)
        self.unexpected: list[tuple[str, str]] = []  # (job name, failure)
        # Per traced flag: a row per pass of each job's latency in reference
        # seconds.  The rows are filled in up front, so that memory does not
        # grow with the number of passes and peak_rss_mb does not depend on
        # the program's speed.
        self.latencies: dict = {}
        self.passes = {False: 0, True: 0}
        # Per untraced pass: wall-clock seconds of the pass and of its jobs,
        # and each kernel's median time.
        self.raw_walls: list[float] = []
        self.raw_job_seconds: list[float] = []
        self.kernel_medians: dict[str, list[float]] = {}
        self.cpu_seconds = 0.0

    def run_pass(self, tracer=None) -> None:
        import numpy as np
        import workloads

        self.ctx.tracer = tracer
        traced = tracer is not None
        if traced not in self.latencies:
            self.latencies[traced] = np.full((MAX_PASSES, len(self.jobs)), np.nan)
        outputs, latencies, job_starts = [], [], []
        kernels = dict.fromkeys(self.kernels)  # the distinct ones, in job order
        every_s = min(k.every_s for k in kernels)
        marks = {k: [] for k in kernels}  # when each kernel was timed
        timings = {k: [] for k in kernels}  # and its seconds

        def mark():
            for k in kernels:
                marks[k].append(time.perf_counter())
                timings[k].append(k.seconds())

        cpu0 = os.times()
        start = time.perf_counter()
        last_mark = time.perf_counter()
        mark()
        for job_id, job in enumerate(self.jobs):
            if time.perf_counter() - last_mark >= every_s:
                last_mark = time.perf_counter()
                mark()
            if traced:
                self.ctx.job_span = tracer.open_job(job_id, job.group)
            t0 = time.perf_counter()
            job_starts.append(t0)
            try:
                out = job.run(self.ctx)
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                out = workloads.JobError(f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            if traced:
                tracer.close_job(self.ctx.job_span)
            outputs.append(out)
        mark()
        wall = time.perf_counter() - start
        self.latencies[traced][self.passes[traced]] = [
            k.to_reference(latency, nearby_kernel(marks[k], timings[k], t0, t0 + latency))
            for k, t0, latency in zip(self.kernels, job_starts, latencies)
        ]
        cpu1 = os.times()
        self.passes[traced] += 1
        if not traced:
            self.cpu_seconds += sum(cpu1[:4]) - sum(cpu0[:4])
            self.raw_walls.append(wall)
            self.raw_job_seconds.append(sum(latencies))
            for k in kernels:
                self.kernel_medians.setdefault(k.name, []).append(statistics.median(timings[k]))
        self._check(outputs)

    def _check(self, outputs) -> None:
        import workloads

        hashes = []
        for job_id, (job, out) in enumerate(zip(self.jobs, outputs)):
            record, failures = job.check(out)
            text = json.dumps(record, sort_keys=True, default=repr)
            hashes.append(hashlib.sha256(text.encode()).hexdigest())
            if self.first_hashes is not None and hashes[-1] != self.first_hashes[job_id]:
                failures = failures + ["record differs from the first pass"]
            if not failures:
                continue
            self.job_failed[job_id] = True
            for failure in failures:
                if failure.startswith(workloads.SCALE_DEFECT):
                    self.job_scale_defect[job_id] = True
                    continue
                self.job_exit_mismatch[job_id] |= failure.startswith("exit ")
                if len(self.unexpected) < 20:
                    self.unexpected.append((job.name, failure))
        if self.first_hashes is None:
            self.first_hashes = hashes

    def per_job(self, traced: bool) -> list[float]:
        """Each job's median latency over the passes of one kind."""
        import numpy as np

        return np.median(self.latencies[traced][: self.passes[traced]], axis=0).tolist()

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(self.job_failed)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.first_hashes).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal job lists (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "gardinglab" / "__init__.py").is_file():
        print(f"bench: no gardinglab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    os.chdir(ROOT)
    for name in BLAS_THREADS:  # before numpy is imported, here and in children
        os.environ.setdefault(name, "1")
    # The scaled cone_margins calls overflow on purpose; keep stderr readable.
    warnings.simplefilter("ignore", RuntimeWarning)
    import tracing
    import workloads

    build = workloads.WORKLOADS[args.workload]
    workdir = Path("bench") / ".work" / args.workload
    setups, raw_setups, imports = [], [], []

    def set_up():
        """One timed set-up; the same seed rewrites the same input files."""
        before = PROCESS.seconds()
        start = time.perf_counter()
        imports.append(cold_import_seconds())
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        jobs = build(args.seed, workdir, args.tiny)
        raw_setups.append(time.perf_counter() - start)
        setups.append(PROCESS.to_reference(raw_setups[-1], (before + PROCESS.seconds()) / 2.0))
        return jobs

    jobs = set_up()

    # Keep the job list, built once per set-up, out of the collector's scans.
    gc.collect()
    gc.freeze()
    kernel = WORKLOAD_KERNEL.get(args.workload, INTERPRETER)
    run = Run(jobs, workloads.Context(workdir=workdir), kernel)
    tracer = tracing.Tracer() if args.trace else None
    min_passes = 1 if args.tiny else MIN_PASSES
    if args.trace:
        min_passes = max(1, min_passes - 1)  # of each kind
    rounds = []  # seconds per round: a pass, its traced twin and any set-up
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if len(setups) < SETUP_REPS - 1 and round_start - start >= (
            len(setups) * args.seconds / SETUP_REPS
        ):
            set_up()
        run.run_pass()
        if tracer is not None:
            tracer.install()
            try:
                run.run_pass(tracer)
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        rounds.append(now - round_start)
        if run.passes[False] >= MAX_PASSES or (
            run.passes[False] >= min_passes
            and now - start + statistics.median(rounds) > args.seconds
        ):
            break
    while len(setups) < SETUP_REPS:
        set_up()

    per_job = run.per_job(False)
    p_tail = tail_percentile(len(jobs))
    tail = nearest_rank(per_job, p_tail)
    wall = sum(per_job)
    failed_frac = run.failed / run.attempted
    if args.trace:
        groups: dict = {}
        for job, latency in zip(jobs, per_job):
            groups.setdefault(job.group, []).append(latency)
        metrics = tracing.layer_metrics(tracer.spans, tracer.counters, run.passes[True], groups)
        metrics.update(
            {
                "cli.startup_ms": (1e3 * statistics.median(imports), "ms"),
                "cli.exit_mismatch": (sum(run.job_exit_mismatch), "count"),
                "process.cpu_per_wall": (run.cpu_seconds / sum(run.raw_walls), "ratio"),
                "tracing.overhead_frac": ((sum(run.per_job(True)) - wall) / wall, "ratio"),
                "failed_frac": (failed_frac, "ratio"),
            }
        )
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.workload == "cli_queries":
            rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "job_p50_ms": (1e3 * statistics.median(per_job), "ms"),
            "job_tail_ms": (1e3 * tail, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": {"untraced": run.passes[False], "traced": run.passes[True]},
        "jobs_per_pass": len(jobs),
        "raw_pass_walls_s": run.raw_walls,
        "wall_clock": {
            "setup_s": statistics.median(raw_setups),
            "jobs_per_pass_s": statistics.median(run.raw_job_seconds),
            "kernel_ms": {
                name: 1e3 * statistics.median(medians)
                for name, medians in run.kernel_medians.items()
            },
            "reference_kernel_ms": {k.name: 1e3 * k.reference_s for k in set(run.kernels)},
        },
        "digest": run.digest,
        "failed_frac": failed_frac,
        "job_tail_percentile": p_tail,
        "job_tail_jobs_beyond": sum(1 for t in per_job if t > tail),
        "scale_defect_failures": sum(run.job_scale_defect),
        "unexpected_failures": run.unexpected,
        "provenance": provenance(args.seed),
    }
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        per_job_ms = [[job.name, 1e3 * t] for job, t in zip(jobs, per_job)]
        json.dump({"details": details, "result": result, "per_job_ms": per_job_ms}, fh, indent=1)
    if tracer is not None:
        tracer.dump(str(out_dir / f"spans-{stem}.json"))
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
