"""Start-up contract: what ``import gardinglab`` and each CLI run load.

The subprocess cases start a fresh interpreter, run one import or one
``cli.main`` call and report ``sys.modules``; the in-process cases check
the package's lazy exports.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import gardinglab as gl

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


def _loaded(body, *argv):
    """Exit code and the modules loaded after ``body`` runs in a fresh process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body), *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    result = json.loads(proc.stdout)
    return result["code"], set(result["modules"])


def _submodules(modules):
    return {m for m in modules if m.startswith("gardinglab.")}


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
    assert _submodules(modules) <= {"gardinglab.cli", "gardinglab.config", "gardinglab.tables"}


def test_cone_test_loads_only_what_it_runs(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1, 2, 3\n", encoding="utf-8")
    code, modules = _loaded(_RUN_CLI, "cone-test", str(path), "--k", "2")
    assert code == 0
    unused = {f"gardinglab.{name}" for name in ("curvature", "classify", "inclusion", "weighted")}
    assert not modules & unused


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
    assert _submodules(modules) <= {"gardinglab.cli", "gardinglab.config", "gardinglab.io"}


def test_wrong_length_spectrum_exits_65_without_numpy(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1, 1, 1, 1\n", encoding="utf-8")
    argv = ["classify", str(path), "--dim", "3", "--operator", "first", "--epsilon", "0.5"]
    code, modules = _loaded(_RUN_CLI, *argv)
    assert code == 65
    assert "numpy" not in modules
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


def test_every_export_is_listed_by_its_module():
    assert set(gl._EXPORTS.values()) <= set(_SUBMODULES)
    for name, module_name in gl._EXPORTS.items():
        module = importlib.import_module(f"gardinglab.{module_name}")
        assert name in module.__all__, (name, module_name)


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
