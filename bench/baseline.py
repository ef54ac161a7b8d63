"""Measure every workload over ten seeds and write ``bench/baseline.json``.

Run from the repository root::

    python3 bench/baseline.py [--out bench/baseline.json]

For each workload it makes one untraced run for each of the seeds 1 to 10,
with the run length from ``BENCHMARK.json``, and one traced run at seed 1.  It records,
per end-to-end metric, the median, the quartiles (``statistics.quantiles``
with n=4) and the spread (quartile distance over the median) against the
metric's bound.  It also records the per-layer values of the traced run,
the attempted and failed counts, the digest of the first seed and the
provenance.  It exits non-zero if a run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import BENCH, ROOT, invoke

SEEDS = range(1, 11)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = invoke(workload, seed, seconds, trace)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {details['unexpected_failures']}")
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline: dict = {"seeds": list(SEEDS), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {}
        attempted = failed = 0
        for seed in SEEDS:
            details, result = bench_run(workload, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if seed == SEEDS[0]:
                first = details
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        end_to_end = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": bounds[name],
                "values": vals,
            }
        traced_details, traced = bench_run(workload, SEEDS[0], spec["run_seconds"], 1)
        baseline["workloads"][workload] = {
            "end_to_end": end_to_end,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "digest_first_seed": first["digest"],
            "job_tail_percentile": first["job_tail_percentile"],
            "per_layer_first_seed": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        baseline["provenance"] = traced_details["provenance"]
        for name, entry in end_to_end.items():
            print(f"  {workload} {name}: median {entry['median']:.5g} spread {entry['spread']:.3f}")
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
