"""Exit-code contract, file formats, config precedence, and determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gardinglab.cli import main
from gardinglab.config import CONFIG_ENV_VAR
from gardinglab.io import (
    VectorParseError,
    format_vector,
    parse_tensor_text,
    parse_vector_text,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def vec_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestVectorFiles:
    def test_separators_and_comments(self):
        got = parse_vector_text("# header\n1, 2.5  3\n4e-1\n")
        np.testing.assert_allclose(got, [1.0, 2.5, 3.0, 0.4])

    def test_tuple_style_files(self):
        np.testing.assert_allclose(parse_vector_text("(1,2,3)"), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(parse_vector_text("[0, 0, 1, 1]"), [0, 0, 1, 1])

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=20) * 10.0 ** rng.integers(-8, 8, size=20)
        again = parse_vector_text(format_vector(v))
        assert np.array_equal(v, again)

    def test_parse_error_carries_line(self):
        with pytest.raises(VectorParseError) as err:
            parse_vector_text("1 2\nx 4\n")
        assert err.value.line == 2

    def test_empty_is_error(self):
        with pytest.raises(VectorParseError):
            parse_vector_text("# nothing\n")


class TestTensorFiles:
    def test_space_form_entries(self):
        text = "dim 3\n1 2 1 2 1\n1 3 1 3 1\n2 3 2 3 1\n"
        tensor = parse_tensor_text(text)
        assert tensor.n == 3
        assert tensor.components[0, 1, 0, 1] == 1.0
        assert tensor.components[1, 0, 0, 1] == -1.0
        assert tensor.scalar_curvature() == pytest.approx(6.0)

    def test_bad_index_order_rejected(self):
        with pytest.raises(VectorParseError):
            parse_tensor_text("dim 3\n2 1 1 2 1\n")

    def test_symmetry_violation_rejected(self):
        # Lone off-block component breaks the first Bianchi identity.
        with pytest.raises(ValueError):
            parse_tensor_text("dim 4\n1 2 3 4 1\n")


class TestConeTestCommand:
    def test_open_member(self, capsys, vec_file):
        code, out, _ = run_cli(capsys, "cone-test", vec_file("v", "1,2,3"), "--k", "2")
        assert code == 0
        assert "open member" in out

    def test_closed_only(self, capsys, vec_file):
        code, out, _ = run_cli(capsys, "cone-test", vec_file("v", "0,0,1,1"), "--m", "2")
        assert code == 1

    def test_non_member(self, capsys, vec_file):
        code, _, _ = run_cli(capsys, "cone-test", vec_file("v", "-1,1,1"), "--m", "1.5")
        assert code == 2

    def test_alpha_shift(self, capsys, vec_file):
        code, _, _ = run_cli(
            capsys, "cone-test", vec_file("v", "0,0,1,1"), "--k", "2",
            "--epsilon", repr(1 / math.sqrt(3)),
        )
        assert code == 1  # boundary witness: closed only

    def test_usage_error(self, capsys, vec_file):
        code, _, err = run_cli(capsys, "cone-test", vec_file("v", "1,2"))
        assert code == 64

    def test_parse_error(self, capsys, vec_file):
        code, _, err = run_cli(capsys, "cone-test", vec_file("v", "1,oops"), "--k", "1")
        assert code == 65
        assert "line 1" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "cone-test", "/nonexistent/v.txt", "--k", "1")
        assert code == 65

    def test_machine_record(self, capsys, vec_file):
        code, out, _ = run_cli(
            capsys, "--format", "machine", "cone-test", vec_file("v", "1,2,3"), "--k", "1"
        )
        record = json.loads(out)
        assert record["record"] == "cone_test" and record["member_open"] is True


class TestVerifyInclusionCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "--samples", "2000", "--seed", "9", "--format", "machine",
            "verify-inclusion", "--n", "6", "--epsilon", "0.4",
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["violation_count"] == 0 and record["accepted"] == 2000

    def test_zero_samples_vacuous(self, capsys):
        code, out, _ = run_cli(
            capsys, "--samples", "0", "verify-inclusion", "--n", "4", "--epsilon", "0.5"
        )
        assert code == 0
        assert "vacuous" in out

    def test_boundary_search_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "--samples", "500", "--restarts", "4", "--format", "machine",
            "verify-inclusion", "--n", "4", "--epsilon", repr(1 / math.sqrt(3)),
            "--boundary-search",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        bs = next(r for r in records if r["record"] == "boundary_search")
        assert bs["min_c0"] >= -1e-8 and bs["matched_rigid"]

    def test_removed_method_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify-inclusion", "--n", "4", "--epsilon", "0.5", "--method", "hitrun"
        )
        assert code == 64

    def test_byte_identical_reruns(self, capsys):
        args = (
            "--samples", "2000", "--seed", "123", "--format", "machine",
            "verify-inclusion", "--n", "5", "--epsilon", "0.35", "--boundary-search",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestModelSpaceCommand:
    def test_sphere_first_kind(self, capsys):
        code, out, _ = run_cli(capsys, "model-space", "sphere", "--n", "4")
        assert code == 0
        assert out.splitlines()[0] == "1.0,1.0,1.0,1.0,1.0,1.0"

    def test_product_first_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "model-space", "product", "--p", "2", "--q", "2"
        )
        assert code == 0
        assert out.splitlines()[0] == "0.0,0.0,0.0,0.0,1.0,1.0"

    def test_sphere_second_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "model-space", "sphere", "--n", "4", "--operator", "second"
        )
        assert code == 0
        values = parse_vector_text(out.splitlines()[0])
        np.testing.assert_allclose(values, np.ones(9), atol=1e-10)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            capsys, "model-space", "sphere", "--n", "5", "--out", str(target)
        )
        assert code == 0
        assert target.read_text(encoding="utf-8").strip() == ",".join(["1.0"] * 10)

    def test_tensor_file_input(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("dim 3\n1 2 1 2 1\n1 3 1 3 1\n2 3 2 3 1\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "model-space", "file", "--tensor-file", str(path)
        )
        assert code == 0
        assert out.splitlines()[0] == "1.0,1.0,1.0"

    def test_usage_error_without_n(self, capsys):
        code, _, _ = run_cli(capsys, "model-space", "sphere")
        assert code == 64

    def test_identity_failure_exits_3(self, capsys, monkeypatch):
        # Valid tensors always satisfy the identities, so fake a failing
        # check to pin the exit-code wiring.
        import gardinglab.cli as cli_mod
        from gardinglab.curvature import model_space_form, scalar_curvature_checks

        class FailingChecks:
            ok = False
            scalar_curvature = 1.0
            first_kind_ok = False
            second_kind_ok = True
            spectra = scalar_curvature_checks(model_space_form(3, 1.0)).spectra

            def to_record(self):
                return {"record": "scalar_curvature_checks", "ok": False}

        monkeypatch.setattr(
            cli_mod._curvature, "scalar_curvature_checks", lambda t: FailingChecks()
        )
        code, _, _ = run_cli(capsys, "model-space", "sphere", "--n", "3")
        assert code == 3


class TestClassifyCommand:
    def test_round_trip_sphere(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        run_cli(capsys, "model-space", "sphere", "--n", "4", "--out", str(target))
        code, out, _ = run_cli(
            capsys, "classify", str(target), "--dim", "4", "--operator", "first",
            "--epsilon", repr(math.sqrt(0.1)),
        )
        assert code == 0
        assert "spherical_space_form" in out

    def test_round_trip_matches_library(self, capsys, tmp_path):
        from gardinglab.classify import classify_first_kind
        from gardinglab.curvature import (
            assemble_first_kind,
            eigen_spectrum,
            model_product_spheres,
        )

        target = tmp_path / "spec.csv"
        run_cli(
            capsys, "model-space", "product", "--p", "2", "--q", "2",
            "--out", str(target),
        )
        code, out, _ = run_cli(
            capsys, "--format", "machine", "classify", str(target), "--dim", "4",
            "--operator", "first", "--epsilon", "0.3",
        )
        record = json.loads(out)
        spec = eigen_spectrum(assemble_first_kind(model_product_spheres(2, 2)))
        direct = classify_first_kind(spec, 0.3)
        assert record == direct.to_record()

    def test_no_verdict_exit(self, capsys, vec_file):
        code, _, _ = run_cli(
            capsys, "classify", vec_file("s", "0,0,0,0,1,1"), "--dim", "4",
            "--operator", "first", "--epsilon", "0.3",
        )
        assert code == 1

    def test_second_kind_threshold(self, capsys, vec_file):
        spec = ",".join(["1.0"] * 9)
        code, out, _ = run_cli(
            capsys, "classify", vec_file("s", spec), "--dim", "4",
            "--operator", "second", "--epsilon", "0.25",
        )
        assert code == 0
        assert "spherical_space_form" in out

    def test_kaehler(self, capsys, vec_file):
        code, out, _ = run_cli(
            capsys, "classify", vec_file("s", ",".join(["2.0"] * 4)), "--dim", "2",
            "--operator", "kaehler", "--epsilon", "0.25",
        )
        assert code == 0
        assert "biholomorphic_CPn" in out

    def test_length_mismatch_exit_65(self, capsys, vec_file):
        code, _, err = run_cli(
            capsys, "classify", vec_file("s", "1,2,3"), "--dim", "4",
            "--operator", "first", "--epsilon", "0.2",
        )
        assert code == 65
        assert "does not match" in err


class TestThresholdsCommand:
    def test_table_rows(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--n-min", "3", "--n-max", "4")
        assert code == 0
        assert "vacuous" in out  # n = 3 first-kind threshold equals 1
        assert "0.316228" in out and "0.25" in out

    def test_kaehler_only_row(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--n-min", "2", "--n-max", "2")
        assert code == 0
        assert "0.5774" in out.replace("0.57735", "0.5774")  # 1/sqrt(3)

    def test_machine_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "machine", "thresholds", "--n-min", "3", "--n-max", "5"
        )
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3
        assert rows[1]["space_form_second"] == pytest.approx(0.25)

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "thresholds", "--n-min", "5", "--n-max", "4")
        assert code == 64


class TestConfig:
    def test_env_config_and_cli_precedence(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 100, "seed": 77}), encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, out, _ = run_cli(
            capsys, "--format", "machine", "verify-inclusion", "--n", "4",
            "--epsilon", "0.5",
        )
        record = json.loads(out.splitlines()[0])
        assert record["samples_requested"] == 100 and record["seed"] == 77
        # CLI flag beats the file.
        code, out, _ = run_cli(
            capsys, "--format", "machine", "--samples", "50", "verify-inclusion",
            "--n", "4", "--epsilon", "0.5",
        )
        record = json.loads(out.splitlines()[0])
        assert record["samples_requested"] == 50 and record["seed"] == 77

    def test_unknown_config_key_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}), encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, _, err = run_cli(capsys, "thresholds")
        assert code == 64 and "unknown keys" in err


class TestConsoleEntry:
    def test_subprocess_smoke(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "gardinglab.cli", "thresholds", "--n-max", "3"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "space_form_second" in out.stdout or "n=3" in out.stdout
