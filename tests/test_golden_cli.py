"""Byte-for-byte gate on the CLI: exit codes and stdout of a fixed set of runs.

Every subcommand runs in-process through ``main()`` inside a temporary working
directory, so file names in the output are relative and stable.  The
expected transcript lives in ``tests/golden/cli_machine.txt``; regenerate it
only for an intended output change, with

    PYTHONPATH=src python tests/test_golden_cli.py --write

which prints a unified diff of the old and new transcripts.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from gardinglab.cli import main
from gardinglab.config import CONFIG_ENV_VAR

GOLDEN = Path(__file__).parent / "golden" / "cli_machine.txt"

M = ("--format", "machine")
# eps with m_eps = 2 at N = 6 and m_eps = 7 at N = 40: sqrt(m / ((N-1)(N-m))).
EPS_2_6 = repr(math.sqrt(2.0 / (5 * 4)))
EPS_7_40 = repr(math.sqrt(7.0 / (39 * 33)))

INPUTS = {
    "pos.txt": "1, 2, 3\n",
    "boundary.txt": "0 0 1 1\n",
    "neg.txt": "# non-member of P_1.5\n-1, 1, 1\n",
    "wide.txt": "(0.5, 1.25, -0.125, 2, 3.5)\n",
    "bad.txt": "1, oops\n",
    "s4_first.txt": "1,1,1,1,1,1\n",
    "s2x2_first.txt": "0,0,0,0,1,1\n",
    "s4_second.txt": ",".join(["1.0"] * 9) + "\n",
    "kaehler2.txt": "2,2,2,2\n",
    "kaehler3.txt": "1,1.5,2,2,2.5,3,3,3.5,4\n",
    "short.txt": "1,2,3\n",
    "s3_first.txt": "1,1,1\n",
    "s5_first.txt": ",".join(["1.0"] * 10) + "\n",
    "s7_first.txt": ",".join(["1.0"] * 21) + "\n",
    "n8_second.txt": ",".join(str(1 + i % 5) for i in range(35)) + "\n",
    # One 40-entry vector at the ends of the float range.
    **{
        f"v40_{scale}.txt": ",".join(f"{(i % 5) - 0.5 + i / 8}{scale}" for i in range(40)) + "\n"
        for scale in ("e-300", "e300")
    },
}

CASES = [
    (*M, "cone-test", "pos.txt", "--k", "2"),
    (*M, "cone-test", "boundary.txt", "--m", "2"),
    (*M, "cone-test", "neg.txt", "--m", "1.5"),
    (*M, "cone-test", "boundary.txt", "--k", "2", "--epsilon", repr(1 / math.sqrt(3))),
    (*M, "cone-test", "wide.txt", "--k", "3", "--alpha", "0.05"),
    (*M, "cone-test", "wide.txt", "--k", "5", "--alpha", "0"),
    (*M, "cone-test", "pos.txt"),
    (*M, "cone-test", "pos.txt", "--m", "2", "--alpha", "0.1"),
    (*M, "cone-test", "bad.txt", "--k", "1"),
    (*M, "cone-test", "missing.txt", "--k", "1"),
    *(
        (*M, "cone-test", f"v40_{scale}.txt", *opts)
        for scale in ("e-300", "e300")
        for opts in (("--k", "40"), ("--k", "17", "--epsilon", "0.4"), ("--m", "13.7"))
    ),
    (*M, "--samples", "2000", "--seed", "9", "verify-inclusion", "--n", "6", "--epsilon", "0.4"),
    (*M, "--samples", "500", "--seed", "5", "verify-inclusion", "--n", "4", "--epsilon", "0.7",
     "--method", "rejection"),
    (*M, "--samples", "0", "verify-inclusion", "--n", "4", "--epsilon", "0.5"),
    (*M, "--samples", "300", "--seed", "3", "verify-inclusion", "--n", "6",
     "--epsilon", EPS_2_6, "--boundary-search"),
    (*M, "--samples", "300", "--seed", "7", "verify-inclusion", "--n", "40",
     "--epsilon", EPS_7_40, "--boundary-search"),
    (*M, "--samples", "0", "verify-inclusion", "--n", "40", "--epsilon", EPS_7_40,
     "--boundary-search"),
    (*M, "verify-inclusion", "--n", "4", "--epsilon", "0.5", "--method", "hitrun"),
    (*M, "model-space", "sphere", "--n", "4"),
    (*M, "model-space", "sphere", "--n", "4", "--operator", "second"),
    (*M, "model-space", "product", "--p", "2", "--q", "3"),
    (*M, "model-space", "file", "--tensor-file", "tensor.txt", "--operator", "second"),
    (*M, "model-space", "sphere", "--n", "5", "--curvature", "0.5", "--out", "spec.csv"),
    (*M, "model-space", "sphere"),
    (*M, "classify", "s4_first.txt", "--dim", "4", "--operator", "first",
     "--epsilon", repr(math.sqrt(0.1))),
    (*M, "classify", "s2x2_first.txt", "--dim", "4", "--operator", "first", "--epsilon", "0.3"),
    (*M, "classify", "s4_second.txt", "--dim", "4", "--operator", "second", "--epsilon", "0.25"),
    (*M, "classify", "kaehler2.txt", "--dim", "2", "--operator", "kaehler", "--epsilon", "0.25"),
    (*M, "classify", "kaehler3.txt", "--dim", "3", "--operator", "kaehler", "--epsilon", "0.05"),
    (*M, "classify", "short.txt", "--dim", "4", "--operator", "first", "--epsilon", "0.2"),
    # Odd n with ceil(m_eps) = ceil(n/2): eps just above the n = 5 threshold 1/6.
    (*M, "classify", "s5_first.txt", "--dim", "5", "--operator", "first", "--epsilon", "0.1667"),
    # m_eps = 4.70 at n = 7: split vanishing b_1..b_2 and b_5..b_6.
    (*M, "classify", "s7_first.txt", "--dim", "7", "--operator", "first", "--epsilon", "0.12"),
    # m_eps = 6.9 at n = 8: degree rules p = 2, 3, 4 fire, the bulk rule does not.
    (*M, "classify", "n8_second.txt", "--dim", "8", "--operator", "second", "--epsilon", "0.085"),
    # The n = 3 first-kind threshold is vacuous (exactly 1).
    (*M, "classify", "s3_first.txt", "--dim", "3", "--operator", "first", "--epsilon", "0.5"),
    # A real dimension below 3 is refused, though n(n-1)/2 = 3 at n = -2 too.
    (*M, "classify", "s3_first.txt", "--dim", "-2", "--operator", "first", "--epsilon", "0.5"),
    (*M, "thresholds", "--n-min", "2", "--n-max", "6"),
    (*M, "thresholds", "--n-min", "5", "--n-max", "4"),
    ("cone-test", "wide.txt", "--k", "2", "--epsilon", "0.3"),
    ("--samples", "0", "verify-inclusion", "--n", "4", "--epsilon", "0.5"),
    ("--samples", "300", "verify-inclusion", "--n", "6",
     "--epsilon", EPS_2_6, "--boundary-search"),
    ("model-space", "sphere", "--n", "4", "--operator", "second"),
    ("model-space", "product", "--p", "3", "--q", "2", "--out", "spec.csv"),
    ("classify", "kaehler3.txt", "--dim", "3", "--operator", "kaehler", "--epsilon", "0.15"),
    ("classify", "s2x2_first.txt", "--dim", "4", "--operator", "first",
     "--epsilon", repr(math.sqrt(0.4))),
    ("classify", "s4_second.txt", "--dim", "4", "--operator", "second", "--epsilon", "0.25"),
    ("classify", "s5_first.txt", "--dim", "5", "--operator", "first", "--epsilon", "0.1667"),
    ("thresholds", "--n-min", "2", "--n-max", "4"),
    # --restarts was removed: the flag is now a usage error.
    (*M, "--samples", "300", "--restarts", "4", "--seed", "3", "verify-inclusion", "--n", "6",
     "--epsilon", EPS_2_6, "--boundary-search"),
    # An unknown option is a usage error before and after the subcommand.
    (*M, "--seeds", "3", "thresholds"),
    (*M, "thresholds", "--seeds", "3"),
    # Batches of many membership blocks at N = 60 and 100: a two-batch ball
    # run at each N, a four-batch rejection run at N = 60 and, at N = 100, a
    # rejection batch that reaches its target at row 7925 of 10 000.
    (*M, "--samples", "3000", "--seed", "11", "verify-inclusion", "--n", "60", "--epsilon", "0.2"),
    (*M, "--samples", "3000", "--seed", "13", "verify-inclusion", "--n", "100",
     "--epsilon", "0.05"),
    (*M, "--samples", "1000", "--seed", "12", "verify-inclusion", "--n", "60", "--epsilon", "0.5",
     "--method", "rejection"),
    (*M, "--samples", "1000", "--seed", "14", "verify-inclusion", "--n", "100",
     "--epsilon", "0.9", "--method", "rejection"),
]


def _tensor_text(n: int = 4, seed: int = 11) -> str:
    """Component list of a random tensor with all curvature symmetries."""
    g = np.random.default_rng(seed).normal(size=(n, n, n, n))
    g = g - g.transpose(1, 0, 2, 3)
    g = g - g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    r = g - (g + g.transpose(0, 2, 3, 1) + g.transpose(0, 3, 1, 2)) / 3.0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lines = [f"dim {n}"]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[a:]:
            lines.append(f"{i + 1} {j + 1} {k + 1} {l + 1} {float(r[i, j, k, l])!r}")
    return "\n".join(lines) + "\n"


def render(workdir: Path, cases=CASES) -> str:
    """Transcript of each case run in workdir: argv, exit code, stdout."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    (workdir / "tensor.txt").write_text(_tensor_text(), encoding="utf-8")
    chunks = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in cases:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
            chunks.append(f"$ gardinglab {' '.join(argv)}\nexit {code}\n{out.getvalue()}")
            spec = workdir / "spec.csv"
            if spec.exists():
                chunks.append(f"> spec.csv\n{spec.read_text(encoding='utf-8')}")
                spec.unlink()
    finally:
        os.chdir(cwd)
    return "".join(chunks)


def test_cli_output_matches_golden(tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert render(tmp_path) == GOLDEN.read_text(encoding="utf-8")


# Each kernel set another CPU would get, as the environment that selects it
# and the /proc/cpuinfo flags it needs: OpenBLAS's DYNAMIC_ARCH kernels and
# numpy's dispatch without its AVX-512 targets.
KERNEL_SETS = {
    **{
        f"OPENBLAS_CORETYPE={core}": ({"OPENBLAS_CORETYPE": core}, flags)
        for core, flags in (
            ("Prescott", {"pni"}),
            ("Sandybridge", {"avx"}),
            ("Haswell", {"avx2", "fma"}),
            ("Zen", {"avx2", "fma"}),
            ("SkylakeX", {"avx512f", "avx512bw", "avx512vl", "avx512dq", "avx512cd"}),
        )
    },
    "NPY_DISABLE_CPU_FEATURES": (
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
        {"avx512f"},
    ),
}

# Renders every case in argv[1] with numpy loaded, so every run takes the
# array kernels.
_RENDER_WITH_NUMPY = """
import pathlib, sys
import numpy
from test_golden_cli import render
sys.stdout.write(render(pathlib.Path(sys.argv[1])))
"""


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return {f for line in text.splitlines() if line.startswith("flags") for f in line.split()}


def test_records_do_not_depend_on_blas_or_simd_kernels(tmp_path, monkeypatch):
    """Every golden run gives the same bytes under every kernel set the host
    can run, one subprocess per set; the sets that ran are printed."""
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    expected = GOLDEN.read_text(encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    flags = _cpu_flags()
    ran = []
    for name, (env, needs) in KERNEL_SETS.items():
        if not needs <= flags:
            continue
        workdir = tmp_path / f"set{len(ran)}"
        workdir.mkdir()
        path = os.pathsep.join([str(src), str(Path(__file__).parent)])
        env = {**os.environ, **env, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", _RENDER_WITH_NUMPY, str(workdir)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout == expected, name
        ran.append(name)
    print(f"kernel sets run: {', '.join(ran) or 'none'}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.environ.pop(CONFIG_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as tmp:
        new = render(Path(tmp))
    old = GOLDEN.read_text(encoding="utf-8") if GOLDEN.exists() else ""
    sys.stdout.writelines(
        difflib.unified_diff(
            old.splitlines(keepends=True),
            new.splitlines(keepends=True),
            fromfile="golden (old)",
            tofile="golden (new)",
        )
    )
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(new, encoding="utf-8")
