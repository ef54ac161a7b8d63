"""Self-test of the benchmark; run from the repository root::

    python3 bench/selftest.py

It checks that, at a tiny size, every workload emits every metric that
``BENCHMARK.json`` names, with tracing off and on.  It checks that a
corrupted output counts as a failure and sets ``correct`` false: a
perturbed eigenvalue, a flipped exit code, a changed record byte and a
perturbed cone margin at a moderate scale (1e30); and that a wrong
margin counts as the known scale defect at scale 1e200 but not at 1e30,
and that a second pass leaves the attempted and failed counts unchanged.
It also checks that the benchmark exits non-zero, printing no result,
where the gardinglab sources are missing.  It exits non-zero on the first
check that fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run.invoke(workload, 3, 0, trace, "--tiny")
            expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(result["correct"], f"{workload} trace={trace} not correct")
            names = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == names, f"{workload} trace={trace} metrics {sorted(set(got) ^ set(names))}")
            print(f"ok: {workload} trace={trace} emits all {len(names)} {key} metrics")


def corrupt(workload: str, mutate, extra_job=None) -> tuple[int, bool]:
    """Jobs that newly fail when one job's output is corrupted in a second pass,
    and whether the run still reads ``correct``.

    Jobs that read the corrupted job's files may fail as well.

    The corrupted job is the first of the workload's tiny job list, or
    ``extra_job`` appended to it.  The clean first pass must be correct.
    """
    workdir = Path("bench") / ".work" / f"selftest-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workloads.WORKLOADS[workload](3, workdir, True)
    if extra_job is not None:
        jobs.append(extra_job)
    passes = run.Run(jobs, workloads.Context(workdir=workdir))
    passes.run_pass()
    expect(not passes.unexpected, f"clean {workload} pass: {passes.unexpected}")
    clean = passes.failed
    job = jobs[-1 if extra_job is not None else 0]
    original = job.run
    job.run = lambda ctx: mutate(original(ctx))
    passes.run_pass()
    shutil.rmtree(workdir, ignore_errors=True)
    return passes.failed - clean, not passes.unexpected


def perturb_spectrum_file(outputs):
    path = Path(json.loads(outputs[0].stdout)["out"])  # model-space, then classify
    values = path.read_text(encoding="utf-8").strip().split(",")
    values[0] = repr(float(values[0]) + 1e-6)
    path.write_text(",".join(values) + "\n", encoding="utf-8")
    return outputs


def flip_exit(result):
    return dataclasses.replace(result, code=1 - result.code)


def change_record_byte(result):
    # Only the determinism digest sees this field change.
    return dataclasses.replace(result, stdout=result.stdout.replace('"tol": 1e-09', '"tol": 2e-09', 1))


def perturb_margin(membership):
    return dataclasses.replace(membership, margin=membership.margin + 1e-3)


def check_corruptions() -> None:
    rng = np.random.default_rng(3)
    # At scale 1e30 the margins' divisors stay in float64's normal range, so
    # a mismatch there is not a known scale defect and must fail the run.
    moderate = workloads._scalar_job("garding", 6, rng.normal(size=6) + 2.0, 1e30, rng)
    cases = [
        ("perturbed eigenvalue", "model_spectra", perturb_spectrum_file, None),
        ("flipped exit code", "cli_queries", flip_exit, None),
        ("changed record byte", "inclusion_grid", change_record_byte, None),
        ("perturbed cone margin at scale 1e30", "cone_margins", perturb_margin, moderate),
    ]
    for label, workload, mutate, extra_job in cases:
        extra, correct = corrupt(workload, mutate, extra_job)
        expect(extra >= 1, f"{label}: no extra failed job")
        expect(not correct, f"{label}: the run still reads correct")
        print(f"ok: {label} on {workload} counts as a failed job and sets correct false")


def check_scale_gate() -> None:
    """A wrong margin on the first pass, where the digest cannot see it, fails
    the run at a moderate scale and counts as the known scale defect only
    where float64 overflow can reach the margin."""
    rng = np.random.default_rng(3)
    base = rng.normal(size=6) + 2.0
    for scale, known in ((1e30, False), (1e200, True)):
        job = workloads._scalar_job("garding", 6, base, scale, rng)
        original = job.run
        job.run = lambda ctx, original=original: perturb_margin(original(ctx))
        one = run.Run([job], workloads.Context(workdir=Path("bench") / ".work"))
        one.run_pass()
        expect(one.failed == 1, f"wrong margin at scale {scale:g} not counted")
        expect(bool(one.unexpected) != known, f"wrong margin at scale {scale:g} misfiled")
        print(f"ok: a wrong margin at scale {scale:g} sets correct {known}")


def check_counts_per_job() -> None:
    """``attempted`` and ``failed`` count jobs, not job runs, so they do not
    depend on how many passes fit in a run."""
    workdir = Path("bench") / ".work" / "selftest-counts"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workloads.WORKLOADS["cone_margins"](3, workdir, True)
    passes = run.Run(jobs, workloads.Context(workdir=workdir))
    passes.run_pass()
    once = (passes.attempted, passes.failed)
    passes.run_pass()
    shutil.rmtree(workdir, ignore_errors=True)
    expect(once[1] > 0, "no known scale defect in the tiny cone_margins list")
    expect((passes.attempted, passes.failed) == once, "a second pass changed the counts")
    print(f"ok: {once[1]} of {once[0]} jobs failed after one pass and after two")


def check_without_sources() -> None:
    bare = ROOT / "bench" / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run.invoke("inclusion_grid", 3, 0, 0, "--tiny", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "runs without gardinglab sources")
    print("ok: without src/gardinglab the benchmark exits", proc.returncode, "and prints no result")


if __name__ == "__main__":
    os.chdir(ROOT)
    warnings.simplefilter("ignore", RuntimeWarning)  # scaled cone calls overflow
    check_metric_names()
    check_corruptions()
    check_scale_gate()
    check_counts_per_job()
    check_without_sources()
    print("selftest passed")
