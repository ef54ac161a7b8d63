"""Start-up contract: what ``import gardinglab`` and each CLI run load.

The subprocess cases start a fresh interpreter, run one import or one
``cli.main`` call and report ``sys.modules``; the in-process cases check
the package's lazy exports.
"""

import importlib
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import gardinglab as gl
from gardinglab.config import CONFIG_ENV_VAR
from test_golden_cli import CASES, GOLDEN, INPUTS, _tensor_text, write_tensor_files

_PROBE = """
import contextlib, io, json, sys
{body}
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""

_RUN_CLI = """
from gardinglab import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
"""


def _loaded(body, *argv, cwd=None):
    """Exit code and the modules loaded after ``body`` runs in a fresh process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body), *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        check=True,
    )
    result = json.loads(proc.stdout)
    return result["code"], set(result["modules"])


def _submodules(modules):
    return {m for m in modules if m.startswith("gardinglab.")}


# What ``dataclasses`` loads: the runs below that need no ``cones`` build
# their records without either.
_DATACLASS_MODULES = {"dataclasses", "inspect"}


def test_import_loads_no_submodule_and_no_numpy():
    # An unknown name is looked up in the export table alone.
    code, modules = _loaded("import gardinglab\ncode = hasattr(gardinglab, 'no_such_name')")
    assert code is False and "gardinglab" in modules
    assert "numpy" not in modules
    assert _submodules(modules) == set()


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["thresholds", "--n-min", "2", "--n-max", "9"], 0),
        (["cone-test", "v.txt", "--k", "2", "--m", "1.5"], 64),
        (["thresholds", "--n-min", "5", "--n-max", "3"], 64),
        (["model-space", "sphere"], 64),
    ],
)
def test_thresholds_and_usage_errors_run_without_numpy(argv, expected_code):
    code, modules = _loaded(_RUN_CLI, *argv)
    assert code == expected_code
    assert "numpy" not in modules
    assert not modules & _DATACLASS_MODULES
    assert _submodules(modules) <= {"gardinglab.cli", "gardinglab.config", "gardinglab.tables"}


# Makes ``import numpy`` raise in the child, so a run that passes cannot
# have needed it, whatever was loaded before.
_BLOCK_NUMPY = """
class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked in this run")
sys.meta_path.insert(0, _NoNumpy())
"""

# Reports the exit code, stdout and stderr of one CLI run.
_CAPTURE_CLI = """
from gardinglab import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = [cli.main(sys.argv[1:]), out.getvalue(), err.getvalue()]
"""

_RUN_CLI_WITHOUT_NUMPY = _BLOCK_NUMPY + _CAPTURE_CLI


def test_cone_modules_import_without_numpy():
    code, modules = _loaded(
        "import gardinglab.cones, gardinglab.symfun, gardinglab.classify, "
        "gardinglab.curvature, gardinglab.io, gardinglab.inclusion, "
        "gardinglab.weighted\ncode = 0"
    )
    assert code == 0 and "numpy" not in modules


def test_weighted_loads_only_tables():
    code, modules = _loaded("import gardinglab.weighted\ncode = 0")
    assert _submodules(modules) == {
        "gardinglab.weighted", "gardinglab.tables", "gardinglab.config"
    }
    assert "numpy" not in modules


# Every single-vector helper of symfun and inclusion that runs on Python
# floats, with the results as JSON-ready values; the dichotomy records
# follow the first ``leading`` results.
_SINGLE_VECTOR_CALLS = """
from gardinglab.inclusion import (
    boundary_search, dichotomy_check, epsilon_for_target_m, epsilon_to_params,
)
from gardinglab.symfun import partial_sum_fractional

x = [-0.5, 0.25, 1.0, 1.0, 2.0]
code = [
    partial_sum_fractional(x, 2.5),
    boundary_search(6, 0.4).to_record(),
    boundary_search(40, epsilon_for_target_m(7, 40)).to_record(),
]
leading = len(code)
for N in range(3, 17):
    m = N // 2
    p = epsilon_to_params(epsilon_for_target_m(m, N), N)
    witness, ramp = [0.0] * m + [1.0] * (N - m), [1.0 + i / N for i in range(N)]
    for v in (witness, ramp, [-1.0] + [1.0] * (N - 1)):
        code.append(dichotomy_check(v, p).to_record())
"""


def test_single_vector_helpers_run_without_numpy():
    # The child's results are the ones this process gives with numpy loaded.
    code, modules = _loaded(_BLOCK_NUMPY + _SINGLE_VECTOR_CALLS)
    assert "numpy" not in modules
    namespace = {}
    exec(_SINGLE_VECTOR_CALLS, namespace)
    assert code == json.loads(json.dumps(namespace["code"]))
    assert {record["case"] for record in code[namespace["leading"]:]} == {
        "strict_positive", "boundary_rigid", "not_member"
    }


def test_read_vector_file_gives_python_floats_without_numpy(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("# spectrum\n0.5, 1e-3 2\n", encoding="utf-8")
    code, modules = _loaded(
        _BLOCK_NUMPY + "from gardinglab.io import read_vector_file\n"
        "values = read_vector_file(sys.argv[1])\n"
        "code = [type(values).__name__, [type(t).__name__ for t in values], values]",
        str(path),
    )
    assert code == ["list", ["float"] * 3, [0.5, 1e-3, 2.0]]
    assert "numpy" not in modules
    assert not modules & _DATACLASS_MODULES
    assert _submodules(modules) == {"gardinglab.config", "gardinglab.io"}


def test_blocked_numpy_cannot_be_imported():
    code, modules = _loaded(
        _BLOCK_NUMPY + "try:\n    import numpy\n    code = 0\nexcept ImportError:\n    code = 1\n"
    )
    assert code == 1 and "numpy" not in modules


# Every cone-test form on the vector (1, 2, 3), with the exit code and the
# record each run gives.
_CONE_TEST_RUNS = [
    (
        ["--k", "2"],
        0,
        '{"N": 3, "binding_constraint": "sigma_2", "cone": "G_2", "margin": 0.2619047619047619, '
        '"member_closed": true, "member_open": true, "record": "cone_test", "tol": 1e-09}',
    ),
    (
        ["--k", "3"],
        0,
        '{"N": 3, "binding_constraint": "sigma_3", "cone": "G_3", "margin": 0.11454053224818189, '
        '"member_closed": true, "member_open": true, "record": "cone_test", "tol": 1e-09}',
    ),
    (
        ["--k", "3", "--epsilon", "0.5"],
        1,
        '{"N": 3, "binding_constraint": "sigma_3", "cone": "G_3(alpha=0.166666666667)", '
        '"margin": 0.0, "member_closed": true, "member_open": false, "record": "cone_test", '
        '"tol": 1e-09}',
    ),
    (
        ["--k", "2", "--alpha", "0.1"],
        0,
        '{"N": 3, "binding_constraint": "sigma_2", "cone": "G_2(alpha=0.1)", '
        '"margin": 0.2064297800338409, "member_closed": true, "member_open": true, '
        '"record": "cone_test", "tol": 1e-09}',
    ),
    (
        ["--k", "2", "--alpha", "0.3"],
        2,
        '{"N": 3, "binding_constraint": "sigma_2", "cone": "G_2(alpha=0.3)", '
        '"margin": -0.13836477987421375, "member_closed": false, "member_open": false, '
        '"record": "cone_test", "tol": 1e-09}',
    ),
    (
        ["--m", "1.5"],
        0,
        '{"N": 3, "binding_constraint": "partial_sum[m=1.5]", "cone": "P_1.5", '
        '"margin": 0.3563483225498992, "member_closed": true, "member_open": true, '
        '"record": "cone_test", "tol": 1e-09}',
    ),
]


def test_cone_test_loads_only_what_it_runs(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1, 2, 3\n", encoding="utf-8")
    for options, expected_code, expected_record in _CONE_TEST_RUNS:
        argv = ["--format", "machine", "cone-test", str(path), *options]
        (code, stdout, _), modules = _loaded(_RUN_CLI_WITHOUT_NUMPY, *argv)
        assert (code, stdout) == (expected_code, expected_record + "\n"), options
        assert "numpy" not in modules, options
        assert _submodules(modules) == {
            "gardinglab.cli", "gardinglab.config", "gardinglab.io", "gardinglab.cones",
            "gardinglab.symfun",
        }, options


def _golden_runs():
    """Exit code and stdout of each run in the golden transcript, by command."""
    runs = {}
    for chunk in re.split(r"^\$ gardinglab ", GOLDEN.read_text(encoding="utf-8"), flags=re.M)[1:]:
        command, code, stdout = chunk.split("\n", 2)
        runs[command] = (int(code.removeprefix("exit ")), stdout)
    return runs


# Every golden classify run, spectra of 4 to 35 entries, and the golden
# cone-test run on 40 entries: both sides of symfun._FLOAT_ENTRIES.
_GOLDEN_NUMPY_FREE = [
    argv for argv in CASES if "classify" in argv
] + [argv for argv in CASES if argv[-3:] == ("v40_e300.txt", "--k", "40")]


@pytest.mark.parametrize("argv", _GOLDEN_NUMPY_FREE, ids=" ".join)
def test_golden_classify_and_long_cone_test_run_without_numpy(tmp_path, monkeypatch, argv):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (code, stdout, _), modules = _loaded(_RUN_CLI_WITHOUT_NUMPY, *argv, cwd=tmp_path)
    assert (code, stdout) == _golden_runs()[" ".join(argv)]
    assert "numpy" not in modules
    # A spectrum of the wrong length exits 65 before the classifier loads.
    loaded = (
        {"cones", "symfun"} if "cone-test" in argv
        else {"tables"} if code == 65
        else {"tables", "classify", "cones", "symfun"}
    )
    assert _submodules(modules) == {f"gardinglab.{m}" for m in {"cli", "config", "io", *loaded}}


_GOLDEN_MODEL_SPACE = [argv for argv in CASES if "model-space" in argv]


@pytest.mark.parametrize("argv", _GOLDEN_MODEL_SPACE, ids=" ".join)
def test_golden_model_space_runs_without_numpy(tmp_path, monkeypatch, argv):
    # Machine and human format, a tensor file, --out and the usage error.
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    write_tensor_files(tmp_path)
    (code, stdout, _), modules = _loaded(_RUN_CLI_WITHOUT_NUMPY, *argv, cwd=tmp_path)
    spec = tmp_path / "spec.csv"
    if spec.exists():
        stdout += f"> spec.csv\n{spec.read_text(encoding='utf-8')}"
    assert (code, stdout) == _golden_runs()[" ".join(argv)]
    assert "numpy" not in modules
    assert not modules & _DATACLASS_MODULES
    loaded = set() if code == 64 else {"io", "tables", "curvature", "symfun"}
    assert _submodules(modules) == {f"gardinglab.{m}" for m in {"cli", "config", *loaded}}


def test_cone_test_past_the_float_cap_loads_numpy(tmp_path, capsys):
    # N = k = 2000 is past symfun._FLOAT_WORK: the run loads numpy, whose
    # import costs less than the float recurrence there, and prints what
    # the array path prints in-process.
    import random

    from gardinglab import cli, symfun

    rng = random.Random(7)
    path = tmp_path / "v.txt"
    path.write_text(",".join(repr(rng.uniform(0.5, 1.5)) for _ in range(2000)), encoding="utf-8")
    argv = ["--format", "machine", "cone-test", str(path), "--k", "2000"]
    assert 2000 * 2000 > symfun._FLOAT_WORK >= 40 * 40
    (code, stdout, _), modules = _loaded(_CAPTURE_CLI, *argv)
    assert "numpy" in modules
    assert cli.main(argv) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize(
    "args, loads_numpy",
    [
        pytest.param(args, loads_numpy, id=" ".join(args))
        for args, loads_numpy in [
            (["sphere", "--n", "12"], False),
            (["sphere", "--n", "13", "--operator", "second"], True),
            (["product", "--p", "6", "--q", "7"], True),
            (["file", "--tensor-file", "t8.txt", "--operator", "second"], False),
            (["file", "--tensor-file", "t9.txt", "--operator", "second"], False),
            (["file", "--tensor-file", "t12.txt", "--operator", "second"], False),
        ]
    ],
)
def test_model_space_past_the_float_bounds_loads_numpy(
    tmp_path, monkeypatch, capsys, args, loads_numpy
):
    # Dimension 13 is past curvature._FLOAT_DIM, so the tensor is built on
    # arrays.  Dimension 12 stays numpy-free, and so does the solve of any
    # operator built on floats: the dense tensor files in dimensions 8, 9
    # and 12 have second-kind operators of 35, 44 and 77 active rows.
    # Either way stdout is the in-process run's.
    from gardinglab import cli, curvature

    assert curvature._FLOAT_DIM == 12
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    for n in (8, 9, 12):
        (tmp_path / f"t{n}.txt").write_text(_tensor_text(n, seed=n), encoding="utf-8")
    argv = ["--format", "machine", "model-space", *args]
    body = _CAPTURE_CLI if loads_numpy else _RUN_CLI_WITHOUT_NUMPY
    (code, stdout, _), modules = _loaded(body, *argv, cwd=tmp_path)
    assert ("numpy" in modules) == loads_numpy
    assert loads_numpy or not modules & _DATACLASS_MODULES
    assert cli.main(argv) == code == 0
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize(
    "content",
    ["1, oops\n", "1, inf, 2\n", "# no entries\n", None],
    ids=["malformed", "non_finite", "empty", "missing"],
)
@pytest.mark.parametrize("command", ["cone-test", "classify"])
def test_unreadable_vector_file_exits_65_without_numpy(tmp_path, content, command):
    path = tmp_path / "v.txt"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    argv = {
        "cone-test": ["cone-test", str(path), "--k", "2"],
        "classify": ["classify", str(path), "--dim", "3", "--operator", "first", "--epsilon", "0.5"],
    }[command]
    code, modules = _loaded(_RUN_CLI, *argv)
    assert code == 65
    assert "numpy" not in modules
    assert not modules & _DATACLASS_MODULES
    assert _submodules(modules) <= {"gardinglab.cli", "gardinglab.config", "gardinglab.io"}


def test_wrong_length_spectrum_exits_65_without_numpy(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1, 1, 1, 1\n", encoding="utf-8")
    argv = ["classify", str(path), "--dim", "3", "--operator", "first", "--epsilon", "0.5"]
    code, modules = _loaded(_RUN_CLI, *argv)
    assert code == 65
    assert "numpy" not in modules
    assert not modules & _DATACLASS_MODULES
    assert _submodules(modules) == {
        "gardinglab.cli", "gardinglab.config", "gardinglab.io", "gardinglab.tables"
    }


def test_every_export_is_its_module_object():
    assert len(gl.__all__) == len(set(gl.__all__))
    for name in gl.__all__:
        module = importlib.import_module(f"gardinglab.{gl._EXPORTS[name]}")
        assert getattr(gl, name) is getattr(module, name), name
    assert set(gl.__all__) <= set(dir(gl))


_SUBMODULES = (
    "classify", "cones", "config", "curvature", "inclusion", "io", "symfun", "tables",
    "weighted",
)


@pytest.mark.parametrize("name", _SUBMODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"gardinglab.{name}")
    public = module.__all__
    assert len(public) == len(set(public))
    assert [n for n in public if not hasattr(module, n)] == []


def test_every_module_the_tracer_wraps_imports():
    # The benchmark's tracer imports each module it names, so a module that
    # it still names cannot be deleted.  ``run_path`` compiles the file from
    # source and writes nothing next to it.
    tracing = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracing.py"))
    assert tracing["MODULES"]
    for name in tracing["MODULES"]:
        importlib.import_module(f"gardinglab.{name}")


def test_every_export_is_listed_by_its_module():
    assert set(gl._EXPORTS.values()) <= set(_SUBMODULES)
    for name, module_name in gl._EXPORTS.items():
        module = importlib.import_module(f"gardinglab.{module_name}")
        assert name in module.__all__, (name, module_name)


def test_every_export_names_its_defining_module():
    for name in gl.__all__:
        obj = getattr(gl, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == f"gardinglab.{gl._EXPORTS[name]}", name


@pytest.mark.parametrize(
    "name,loaded",
    [
        ("Spectrum", {"tables", "config"}),
        ("FormDegreeCoeffs", {"tables", "config"}),
        ("form_degree_coeff", {"tables", "config"}),
        ("EpsilonParams", {"cones", "symfun", "config"}),
        ("epsilon_to_params", {"cones", "symfun", "config"}),
    ],
)
def test_an_export_loads_its_defining_module_and_its_imports(name, loaded):
    code, modules = _loaded(f"import gardinglab\ngardinglab.{name}\ncode = 0")
    assert _submodules(modules) == {f"gardinglab.{module}" for module in loaded}
    assert "numpy" not in modules


def test_thresholds_stays_the_function_beside_its_module():
    import gardinglab.classify
    import gardinglab.tables

    assert inspect.isfunction(gl.thresholds)
    assert gl.thresholds is gardinglab.tables.thresholds is gardinglab.classify.thresholds
    assert gl.ThresholdTable is gardinglab.classify.ThresholdTable


def test_exports_are_read_at_access_time(monkeypatch):
    import gardinglab.inclusion as inclusion

    original = inclusion.boundary_search
    assert gl.boundary_search is original
    assert "boundary_search" not in vars(gl)  # nothing cached in the package

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(inclusion, "boundary_search", wrapper)
    assert gl.boundary_search is wrapper
    monkeypatch.undo()
    assert gl.boundary_search is original


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gl.no_such_name
    assert not hasattr(gl, "no_such_name")
    assert "no_such_name" not in dir(gl)
