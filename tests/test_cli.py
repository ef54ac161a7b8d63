"""Exit-code contract, file formats, config precedence, and determinism."""

import ast
import gc
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gardinglab import cli
from gardinglab.cli import main
from gardinglab.cones import in_garding_cone
from gardinglab.config import CONFIG_ENV_VAR, load_config
from gardinglab.curvature import model_product_spheres
from gardinglab.tables import KIND_FIRST, KIND_KAEHLER, KIND_SECOND, Spectrum
from gardinglab.io import (
    VectorParseError,
    format_vector,
    parse_tensor_text,
    parse_vector_text,
    read_tensor_file,
    read_vector_file,
)

from oracles import random_curvature_tensor, tensor_fill_by_loop
from test_golden_cli import CASES, INPUTS


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
        assert got == [1.0, 2.5, 3.0, 0.4]
        assert all(type(t) is float for t in got)

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

    @pytest.mark.parametrize("token", ["1_0", "\u0661\u0662", "1e1_0", "\uff11"])
    def test_only_ascii_decimals_are_read(self, token, capsys, vec_file):
        # float() reads each of these: digit separators, Arabic-Indic and
        # full-width digits.  The file format does not, so the run exits 65
        # and names the line; inf and nan keep their own message.
        with pytest.raises(VectorParseError) as info:
            parse_vector_text(f"1, 2\n{token}, 3\n")
        assert str(info.value) == f"line 2: not a number: {token!r}"
        path = vec_file("v.txt", f"1, 2\n{token}, 3\n")
        code, out, err = run_cli(capsys, "cone-test", path, "--k", "2")
        assert [code, out, err] == [65, "", f"gardinglab: line 2: not a number: {token!r}\n"]
        with pytest.raises(VectorParseError, match="^line 1: non-finite value: 'Infinity'$"):
            parse_vector_text("Infinity")


    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1\u20032,\u00a03\n", [1.0, 2.0, 3.0]),
            ("# a_b\n1, 2, 3  # c_d\n", [1.0, 2.0, 3.0]),
            ("# caf\u00e9\n1, 2, 3\n", [1.0, 2.0, 3.0]),
            ("# a_b\n1, 1_0\n", "line 2: not a number: '1_0'"),
            ("1\u30002\n1_0\n", "line 2: not a number: '1_0'"),
        ],
        ids=["unicode-spaces", "underscore-comment", "non-ascii-comment",
             "underscore-value-after-comment", "underscore-value-after-unicode-space"],
    )
    def test_token_checks_do_not_depend_on_the_rest_of_the_text(self, text, expected):
        # The reader skips the per-token check on a text with no "_" and no
        # non-ASCII character; every other text is read token by token, so
        # each token is accepted or refused as on its own.
        if isinstance(expected, str):
            with pytest.raises(VectorParseError, match=f"^{re.escape(expected)}$"):
                parse_vector_text(text)
        else:
            assert parse_vector_text(text) == expected


class TestTensorFiles:
    def test_space_form_entries(self):
        text = "dim 3\n1 2 1 2 1\n1 3 1 3 1\n2 3 2 3 1\n"
        tensor = parse_tensor_text(text)
        assert tensor.n == 3
        assert tensor.components[0, 1, 0, 1] == 1.0
        assert tensor.components[1, 0, 0, 1] == -1.0
        assert tensor.scalar_curvature() == pytest.approx(6.0)

    def test_fill_matches_scalar_loop(self):
        # Random tensors, a product (many exact zeros) and an empty file.
        cases = [
            (random_curvature_tensor(n, seed=seed).components, n)
            for n in range(3, 11)
            for seed in range(3)
        ]
        cases += [(model_product_spheres(2, 3).components, 5), (np.zeros((4,) * 4), 4)]
        for r, n in cases:
            pairs = list(itertools.combinations(range(n), 2))
            entries = {
                (i + 1, j + 1, k + 1, l + 1): float(r[i, j, k, l])
                for a, (i, j) in enumerate(pairs)
                for k, l in pairs[a:]
                if r[i, j, k, l] != 0.0
            }
            text = f"dim {n}\n" + "".join(
                f"{i} {j} {k} {l} {value!r}\n" for (i, j, k, l), value in entries.items()
            )
            got = parse_tensor_text(text).components
            assert got.tobytes() == tensor_fill_by_loop(entries, n).tobytes()

    def test_bad_index_order_rejected(self):
        with pytest.raises(VectorParseError):
            parse_tensor_text("dim 3\n2 1 1 2 1\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_rejected(self, value, capsys, tmp_path):
        text = f"dim 3\n1 2 1 2 1\n1 3 1 3 {value}\n"
        with pytest.raises(VectorParseError) as info:
            parse_tensor_text(text)
        assert info.value.line == 3
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "model-space", "file", "--tensor-file", str(path))
        assert code == 65 and "non-finite" in err

    # Each refusal with its line: two comment and blank lines come first,
    # so the count shows that they are read and skipped.
    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("dim\n", 3, "dim line must be 'dim n'"),
            ("dim 3 4\n", 3, "dim line must be 'dim n'"),
            ("dim three\n", 3, "bad dimension 'three'"),
            ("dim 3\n1 2 1 2\n", 4, "expected 'i j k l value', got 4 fields"),
            ("dim 3\n1 2 1 2 1 0\n", 4, "expected 'i j k l value', got 6 fields"),
            ("dim 3\n1 2 1 2 one  # c\n", 4, "bad component line: '1 2 1 2 one'"),
            ("dim 3\n1 2.0 1 2 1\n", 4, "bad component line: '1 2.0 1 2 1'"),
            ("dim 3\n0 1 0 1 1\n", 4, "indices are 1-based"),
            ("dim 3\n1 2 1 2 1\n1 2 1 2 2\n", 5, "conflicting duplicate for (1, 2, 1, 2)"),
            ("1 2 1 2 1\n", 1, "need dimension >= 3 (add a 'dim n' line?)"),
            ("dim 2\n1 2 1 2 1\n", 3, "need dimension >= 3, got 2"),
            ("dim 3\n1 4 1 4 1\n", 4, "index 4 exceeds dim 3"),
            ("dim 4\ndim 3\n1 2 1 2 1.0\n", 4, "conflicting dim 3 after dim 4"),
            ("dim 1_0\n", 3, "bad dimension '1_0'"),
            ("dim 3\n1 2 1 2 1_0\n", 4, "bad component line: '1 2 1 2 1_0'"),
            ("dim 3\n1 2 1 \u0662 1\n", 4, "bad component line: '1 2 1 \u0662 1'"),
        ],
        ids=["dim-alone", "dim-two-values", "bad-dim", "four-fields", "six-fields",
             "bad-value", "bad-index", "zero-based", "conflicting-duplicate",
             "no-dim-below-3", "dim-below-3", "index-past-dim", "conflicting-dim",
             "underscore-dim", "underscore-value", "non-ascii-index"],
    )
    def test_refusals_name_the_line(self, body, line, message):
        with pytest.raises(VectorParseError) as info:
            parse_tensor_text("# header\n   \n" + body)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    def test_blank_and_comment_lines_are_skipped(self):
        plain = parse_tensor_text("dim 3\n1 2 1 2 1\n1 3 1 3 1\n2 3 2 3 1\n")
        # An equal repeat of a component or of the dim line is accepted.
        spaced = parse_tensor_text(
            "# sphere\n\ndim 3  # frame\n \t\n1 2 1 2 1\n# none\n1 3 1 3 1\n1 2 1 2 1.0\ndim 3\n"
            "2 3 2 3 1\n"
        )
        assert spaced.n == plain.n == 3
        assert spaced.components.tobytes() == plain.components.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "dim 3\n1 2 1 2 1\n1\u20033\u30001\u00a03 1\n2 3 2 3 1.0\n",
            "# a_b\ndim 3  # n_3\n1 2 1 2 1\n1 3 1 3 1\n2 3 2 3 1.0\n",
            "# caf\u00e9\ndim 3\n1 2 1 2 1\n1 3 1 3 1\n2 3 2 3 1.0\n",
        ],
        ids=["unicode-spaces", "underscore-comment", "non-ascii-comment"],
    )
    def test_unicode_spaces_and_comments_are_read(self, text):
        # Unicode whitespace separates tokens as ASCII whitespace does, and a
        # "_" or a non-ASCII character in a comment is not read at all.
        plain = parse_tensor_text("dim 3\n1 2 1 2 1\n1 3 1 3 1\n2 3 2 3 1\n")
        assert parse_tensor_text(text).components.tobytes() == plain.components.tobytes()

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# a_b\ndim 3\n1 2 1 2 1_0\n", 3),
            ("dim 3\n1 2 1 2 1_0  # n_3\n", 2),
            ("dim 3\n1\u20032 1 3 1\n1 2 1 2 1_0\n", 3),
            ("# caf\u00e9\ndim 3\n1 2 1 2 1_0\n", 3),
        ],
        ids=["after-underscore-comment", "before-underscore-comment", "after-unicode-space",
             "after-non-ascii-comment"],
    )
    def test_underscore_value_refused_wherever_the_text_has_another(self, text, line):
        with pytest.raises(VectorParseError) as info:
            parse_tensor_text(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: bad component line: '1 2 1 2 1_0'"

    def test_refused_tensor_file_exits_65(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("dim 3\n1 2 1 2 1\n1 2 1 2 2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "model-space", "file", "--tensor-file", str(path))
        assert [code, out, err] == [
            65, "", "gardinglab: line 3: conflicting duplicate for (1, 2, 1, 2)\n"
        ]

    def test_symmetry_violation_rejected(self):
        # Lone off-block component breaks the first Bianchi identity.
        with pytest.raises(ValueError):
            parse_tensor_text("dim 4\n1 2 3 4 1\n")


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cone-test", "{dir}", "--k", "2"),
            ("model-space", "file", "--tensor-file", "{dir}"),
            ("classify", "{dir}", "--dim", "3", "--operator", "first", "--epsilon", "0.5"),
        ],
        ids=["cone_test", "tensor_file", "classify"],
    )
    def test_directory_exits_65(self, argv, capsys, tmp_path):
        code, _, err = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert code == 65
        assert err.startswith("gardinglab: ") and err.count("\n") == 1
        assert "Is a directory" in err

    def test_vector_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"# comment\r\n1, 2,\n3, \xff 4\n")
        with pytest.raises(VectorParseError) as info:
            read_vector_file(path)
        assert info.value.line == 3
        code, _, err = run_cli(capsys, "cone-test", str(path), "--k", "2")
        assert code == 65
        assert err == "gardinglab: line 3: not UTF-8 text (invalid start byte)\n"

    def test_tensor_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"dim 3\n1 2 1 2 1\n1 3 1 3 \xc3\n")
        with pytest.raises(VectorParseError) as info:
            read_tensor_file(path)
        assert info.value.line == 3
        code, _, err = run_cli(capsys, "model-space", "file", "--tensor-file", str(path))
        assert code == 65
        assert err.startswith("gardinglab: line 3: not UTF-8 text") and err.count("\n") == 1


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

    def test_unshifted_k_test_of_a_vector_whose_sum_overflows(self, capsys, vec_file):
        # The norm, 1.73e308, is finite; only the entry sum is past the float
        # range, and an unshifted test never forms it.
        argv = ("--format", "machine", "cone-test", vec_file("v", "1e308,1e308,1e308"), "--k", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["margin"] == in_garding_cone([1e308] * 3, 2).margin

    def test_m_test_of_a_vector_whose_partial_sum_overflows(self, capsys, vec_file):
        # It printed "margin": NaN, which is not JSON, and exited 2.
        argv = ("--format", "machine", "cone-test", vec_file("v", "1e308,1e308,1e308"), "--m", "2")
        assert run_cli(capsys, *argv) == (
            64, "", "gardinglab: the partial sum overflows the float range\n"
        )

    def test_usage_error(self, capsys, vec_file):
        code, _, err = run_cli(capsys, "cone-test", vec_file("v", "1,2"))
        assert code == 64

    @pytest.mark.parametrize("epsilon", ["1.5", "0", "1", "-0.5"])
    def test_epsilon_outside_the_unit_interval_exits_64(self, capsys, vec_file, epsilon):
        argv = ("cone-test", vec_file("v", "1,2,3"), "--k", "2", "--epsilon", epsilon)
        assert run_cli(capsys, *argv) == (64, "", "--epsilon must lie in (0, 1)\n")

    def test_unresolvable_epsilon_names_epsilon(self, capsys, vec_file):
        code, out, err = run_cli(
            capsys, "cone-test", vec_file("v", "1,2,3,4"), "--k", "2", "--epsilon", "1e-300"
        )
        assert code == 64 and out == ""
        assert err.startswith("gardinglab: epsilon 1e-300 is too small to resolve")
        assert "N=4" in err and "alpha must" not in err

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
            capsys, "--samples", "500", "--format", "machine",
            "verify-inclusion", "--n", "4", "--epsilon", repr(1 / math.sqrt(3)),
            "--boundary-search",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        bs = next(r for r in records if r["record"] == "boundary_search")
        assert bs["min_c0"] >= -1e-8 and bs["matched_rigid"]

    @pytest.mark.parametrize("n", [3, 4, 10, 45, 100])
    def test_boundary_search_converges_at_small_eps(self, capsys, n):
        # The minimizer's membership test used to cancel in 1/N - alpha_eps
        # and exit 1 here: 30 of these 64 eps failed at N = 45.
        for eps in np.geomspace(5e-17, 1e-10, 64):
            if (1.0 - eps) / n == 1.0 / n:
                continue  # refused up front with exit 64
            code, out, _ = run_cli(
                capsys, "--samples", "20", "--format", "machine", "verify-inclusion",
                "--n", str(n), "--epsilon", repr(float(eps)), "--boundary-search",
            )
            bs = json.loads(out.splitlines()[-1])
            assert code == 0 and bs["converged"], (n, eps)

    def test_restarts_flag_is_gone(self, capsys):
        inclusion = ("verify-inclusion", "--n", "4", "--epsilon", "0.5")
        for argv in (("--restarts", "4", *inclusion), (*inclusion, "--restarts", "4")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 64 and out == "" and err.startswith("gardinglab: ")

    @pytest.mark.parametrize("extra", [(), ("--boundary-search",)])
    def test_unresolvable_epsilon_exits_64_at_once(self, capsys, extra):
        # A RuntimeWarning fails the suite, so none may be raised on the way.
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "verify-inclusion", "--n", "4", "--epsilon", "1e-300", *extra
        )
        assert time.perf_counter() - start < 1.0
        assert code == 64 and out == ""
        assert err.startswith("gardinglab: epsilon 1e-300 is too small")

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


class TestParserReuse:
    def test_one_parser_keeps_no_state_between_calls(self, capsys, monkeypatch):
        import gardinglab.cli as cli_mod
        from gardinglab.config import DEFAULT_SEED

        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert cli_mod._build_parser() is cli_mod._build_parser()
        tail = ("--samples", "20", "--format", "machine", "verify-inclusion", "--n", "4",
                "--epsilon", "0.5", "--method", "rejection")
        code, out, _ = run_cli(capsys, "--seed", "3", *tail)
        assert code == 0 and json.loads(out.splitlines()[0])["seed"] == 3
        code, out, _ = run_cli(capsys, *tail)
        assert code == 0 and json.loads(out.splitlines()[0])["seed"] == DEFAULT_SEED
        code, _, err = run_cli(capsys, "--seed", "3", "verify-inclusion", "--n", "4")
        assert code == 64 and "--epsilon" in err
        code, out, _ = run_cli(capsys, *tail)
        record = json.loads(out.splitlines()[0])
        assert code == 0 and record["seed"] == DEFAULT_SEED and record["method"] == "rejection"


class TestModelSpaceCommand:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("product", "--p", "2", "--q", "2", "--curvature", "5"),
             "--curvature applies to model-space sphere only"),
            (("product", "--p", "2", "--q", "2", "--n", "4"),
             "--n applies to model-space sphere only"),
            (("sphere", "--n", "4", "--p", "3", "--tensor-file", "/nonexistent"),
             "--p applies to model-space product only"),
            (("sphere", "--n", "4", "--q", "3"), "--q applies to model-space product only"),
            (("sphere", "--n", "4", "--tensor-file", "t.txt"),
             "--tensor-file applies to model-space file only"),
            (("file", "--tensor-file", "t.txt", "--curvature", "1"),
             "--curvature applies to model-space sphere only"),
        ],
        ids=["product-curvature", "product-n", "sphere-p", "sphere-q", "sphere-file",
             "file-curvature"],
    )
    def test_options_of_another_kind_are_refused(self, capsys, argv, message):
        # A usage error before any file is opened, as cone-test refuses
        # --alpha with --m.
        code, out, err = run_cli(capsys, "model-space", *argv)
        assert [code, out, err] == [64, "", message + "\n"]

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("product",), "model-space product needs --p and --q"),
            (("product", "--p", "2"), "model-space product needs --p and --q"),
            (("product", "--q", "3"), "model-space product needs --p and --q"),
            (("file",), "model-space file needs --tensor-file"),
        ],
    )
    def test_missing_source_options_exit_64(self, capsys, argv, message):
        assert run_cli(capsys, "model-space", *argv) == (64, "", message + "\n")

    @pytest.mark.parametrize("source", ["sphere", "file"])
    def test_impossible_allocation_exits_64(self, capsys, tmp_path, source):
        # Dimension 1000 asks for 7.28 TiB of components, a request that
        # fails at once; no size that could really be allocated is tried.
        path = tmp_path / "t.txt"
        path.write_text("dim 1000\n1 2 1 2 1\n", encoding="utf-8")
        args = {"sphere": ("--n", "1000"), "file": ("--tensor-file", str(path))}[source]
        code, out, err = run_cli(capsys, "model-space", source, *args)
        assert code == 64 and out == ""
        assert err.startswith("gardinglab: Unable to allocate") and err.count("\n") == 1

    def test_identity_failure_exits_3(self, capsys, monkeypatch):
        # Valid tensors always satisfy the identities, so fake a failing
        # check to pin the exit-code wiring.
        import gardinglab.curvature as curvature_mod

        class FailingChecks:
            ok = False
            scalar_curvature = 1.0
            first_kind_ok = False
            second_kind_ok = True

            def to_record(self):
                return {"record": "scalar_curvature_checks", "ok": False}

        monkeypatch.setattr(
            curvature_mod, "scalar_curvature_checks", lambda *args: FailingChecks()
        )
        code, _, _ = run_cli(capsys, "model-space", "sphere", "--n", "3")
        assert code == 3

    @pytest.mark.parametrize("operator", ["first", "second"])
    @pytest.mark.parametrize("kind", ["sphere", "product", "file"])
    def test_one_jacobi_solve_per_run(self, capsys, monkeypatch, tmp_path, kind, operator):
        # The identities are checked on operator traces, so only the printed
        # spectrum is diagonalized.
        import gardinglab.curvature as curvature_mod

        calls = []
        solve = curvature_mod._eigenvalues

        def counting(*args, **kwargs):
            calls.append(np.asarray(args[0]).shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(curvature_mod, "_eigenvalues", counting)
        path = tmp_path / "t.txt"
        r = random_curvature_tensor(4, seed=0).components
        pairs = list(itertools.combinations(range(4), 2))
        path.write_text(
            "dim 4\n"
            + "".join(
                f"{i + 1} {j + 1} {k + 1} {l + 1} {float(r[i, j, k, l])!r}\n"
                for a, (i, j) in enumerate(pairs)
                for k, l in pairs[a:]
            ),
            encoding="utf-8",
        )
        kind_args = {
            "sphere": ("--n", "5"),
            "product": ("--p", "2", "--q", "3"),
            "file": ("--tensor-file", str(path)),
        }[kind]
        code, _, _ = run_cli(
            capsys, "model-space", kind, *kind_args, "--operator", operator
        )
        assert code == 0
        assert len(calls) == 1


class TestClassifyCommand:
    @pytest.mark.parametrize(
        "operator, dim, length", [("first", 4, 6), ("second", 3, 5), ("kaehler", 2, 4)]
    )
    def test_unresolvable_epsilon_names_epsilon(self, capsys, vec_file, operator, dim, length):
        path = vec_file("s.csv", ",".join(["1"] * length))
        code, out, err = run_cli(
            capsys, "classify", path, "--dim", str(dim), "--operator", operator,
            "--epsilon", "1e-300",
        )
        assert code == 64 and out == ""
        assert err.startswith("gardinglab: epsilon 1e-300 is too small to resolve")
        assert f"N={length}" in err and "alpha must" not in err

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

    @pytest.mark.parametrize("dim, text", [("-2", "1,1,1"), ("-1", "1"), ("2", "1")])
    def test_real_dimension_below_three_exit_64(self, capsys, vec_file, dim, text):
        # Each length matches n(n-1)/2 at its dimension, so the refusal must
        # name the dimension, not the spectrum size.
        code, out, err = run_cli(
            capsys, "--format", "machine", "classify", vec_file("s", text), "--dim", dim,
            "--operator", "first", "--epsilon", "0.5",
        )
        assert code == 64 and out == ""
        assert err == f"gardinglab: real dimension must be >= 3, got {dim}\n"

    @pytest.mark.parametrize(
        "operator, dim, expected", [("first", 4, 6), ("second", 4, 9), ("kaehler", 3, 9)]
    )
    def test_length_mismatch_exit_65(self, capsys, vec_file, operator, dim, expected):
        code, out, err = run_cli(
            capsys, "classify", vec_file("s", "1,2,3"), "--dim", str(dim),
            "--operator", operator, "--epsilon", "0.2",
        )
        assert code == 65 and out == ""
        assert err == (
            f"gardinglab: spectrum length 3 does not match the {operator} "
            f"operator in dimension {dim} (expected {expected})\n"
        )

    @pytest.mark.parametrize(
        "operator, kind, dim, size",
        [("first", KIND_FIRST, 4, 6), ("second", KIND_SECOND, 4, 9),
         ("kaehler", KIND_KAEHLER, 3, 9)],
    )
    @pytest.mark.parametrize("epsilon", [0.05, 0.3, 0.8])
    def test_every_operator_matches_the_library(
        self, capsys, vec_file, operator, kind, dim, size, epsilon
    ):
        # One door for every kind: the CLI's record is the one the library
        # gives for the sorted Spectrum of the file's entries, unsorted here.
        from gardinglab import classify

        values = [1.0 + (7 * i % size) / size for i in range(size)]
        path = vec_file("s.csv", format_vector(values))
        code, out, _ = run_cli(
            capsys, "--format", "machine", "classify", path, "--dim", str(dim),
            "--operator", operator, "--epsilon", repr(epsilon),
        )
        classifier = {
            KIND_FIRST: classify.classify_first_kind,
            KIND_SECOND: classify.classify_second_kind,
            KIND_KAEHLER: classify.classify_kaehler,
        }[kind]
        report = classifier(Spectrum(sorted(values), kind, dim), epsilon)
        assert json.loads(out) == report.to_record()
        assert code == (0 if report.has_verdict else 1)


class TestUnknownTopLevelOption:
    @pytest.mark.parametrize(
        "argv",
        [("--seeds", "3", "thresholds"), ("thresholds", "--seeds", "3")],
        ids=["before_subcommand", "after_subcommand"],
    )
    def test_error_names_the_option(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64 and out == ""
        assert err == "gardinglab: unrecognized arguments: --seeds 3\n"

    def test_value_of_a_known_option_is_not_the_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "--samples", "3", "--restarts", "4", "thresholds")
        assert code == 64 and err == "gardinglab: unrecognized arguments: --restarts 4\n"

    def test_bad_subcommand_is_still_named(self, capsys):
        code, _, err = run_cli(capsys, "--seed", "1", "bogus", "--n", "3")
        assert code == 64 and "invalid choice: 'bogus'" in err

    def test_known_top_level_options_still_parse(self, capsys, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        tail = ("verify-inclusion", "--n", "4", "--epsilon", "0.5")
        for head in (
            ("--tol", "1e-8", "--seed", "4", "--samples", "10", "--format", "machine"),
            ("--samples=10", "--seed=4", "--form", "machine", "--tol", "1e-8"),
        ):
            code, out, err = run_cli(capsys, *head, *tail)
            record = json.loads(out.splitlines()[0])
            assert code == 0 and err == ""
            assert (record["seed"], record["samples_requested"], record["tol"]) == (4, 10, 1e-8)


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

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"tol": "abc"}, "tol must be a finite positive number, got 'abc'"),
            ({"tol": None}, "tol must be a finite positive number, got None"),
            ({"tol": True}, "tol must be a finite positive number, got True"),
            ({"tol": 1e400}, "tol must be a finite positive number, got inf"),
            ({"seed": "x"}, "seed must be an integer, got 'x'"),
            ({"seed": False}, "seed must be an integer, got False"),
            ({"seed": -5}, "seed must be >= 0, got -5"),
            ({"samples": 1.5}, "samples must be an integer, got 1.5"),
            ({"samples": True}, "samples must be an integer, got True"),
            ({"samples": -1}, "samples must be >= 0, got -1"),
            ({"output_format": "xml"},
             "output_format must be one of ('human', 'machine'), got 'xml'"),
            ([1, 2], "config file {path}: expected a JSON object"),
            # restarts is no longer a setting: any value is an unknown key.
            ({"restarts": 2.5}, "config file {path}: unknown keys ['restarts']"),
        ],
        ids=["tol_str", "tol_null", "tol_bool", "tol_inf", "seed_str", "seed_bool",
             "seed_negative", "samples_float", "samples_bool", "samples_negative", "format_xml",
             "json_list", "restarts_float"],
    )
    def test_mistyped_config_value_is_usage_error(
        self, data, message, capsys, tmp_path, monkeypatch
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data), encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        # Checked when the configuration loads, whichever subcommand runs.
        code, out, err = run_cli(capsys, "thresholds", "--n-max", "3")
        assert code == 64 and out == ""
        assert err == f"gardinglab: {message.format(path=cfg)}\n"

    def test_invalid_json_config_is_usage_error(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{", encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, out, err = run_cli(capsys, "thresholds", "--n-max", "3")
        assert code == 64 and out == ""
        assert err == (
            f"gardinglab: config file {cfg}: invalid JSON (Expecting property name "
            "enclosed in double quotes: line 1 column 2 (char 1))\n"
        )

    def test_unknown_override_is_refused(self):
        with pytest.raises(ValueError) as info:
            load_config({"samples": 5, "restarts": 2, "nope": None}, env={})
        assert str(info.value) == "unknown config overrides ['nope', 'restarts']"

    def test_infinite_tol_flag_is_usage_error(self, capsys, vec_file):
        # An infinite tolerance would call the open member 1,2,3 closed-boundary.
        code, out, err = run_cli(
            capsys, "--tol", "inf", "cone-test", vec_file("v", "1,2,3"), "--k", "2"
        )
        assert code == 64 and out == ""
        assert err == "gardinglab: tol must be a finite positive number, got inf\n"

    def test_negative_seed_flag_is_refused_by_name(self, capsys):
        code, out, err = run_cli(
            capsys, "--seed", "-5", "--samples", "3", "verify-inclusion", "--n", "4",
            "--epsilon", "0.5",
        )
        assert code == 64 and out == ""
        assert err == "gardinglab: seed must be >= 0, got -5\n"


def _child_env():
    """The environment of a CLI child that imports the same gardinglab as
    this process, whether or not PYTHONPATH already names it."""
    import gardinglab

    src = os.path.dirname(os.path.dirname(os.path.abspath(gardinglab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# One golden run per subcommand and one per exit code 1, 2, 64 and 65, in
# both output formats, and --help, which argparse ends with SystemExit(0).
_PARITY_CASES = [
    ("--format", "machine", "cone-test", "pos.txt", "--k", "2"),
    ("--format", "machine", "cone-test", "boundary.txt", "--m", "2"),
    ("--format", "machine", "cone-test", "neg.txt", "--m", "1.5"),
    ("--format", "machine", "cone-test", "pos.txt"),
    ("--format", "machine", "cone-test", "bad.txt", "--k", "1"),
    ("--format", "machine", "--samples", "2000", "--seed", "9", "verify-inclusion",
     "--n", "6", "--epsilon", "0.4"),
    ("--format", "machine", "model-space", "sphere", "--n", "4"),
    ("classify", "s5_first.txt", "--dim", "5", "--operator", "first", "--epsilon", "0.1667"),
    ("thresholds", "--n-min", "2", "--n-max", "4"),
]


class TestConsoleEntry:
    @pytest.mark.parametrize("argv", [*_PARITY_CASES, ("--help",)], ids=" ".join)
    def test_child_matches_in_process_main(self, argv, capsys, tmp_path, monkeypatch):
        assert argv in CASES or argv == ("--help",)
        for name, text in INPUTS.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        # Help text wraps at the terminal width, which COLUMNS sets for both.
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        child = subprocess.run(
            [sys.executable, "-m", "gardinglab.cli", *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (child.returncode, child.stdout, child.stderr) == (
            code, captured.out, captured.err
        )

    def test_main_block_freezes_the_heap_before_shutdown(self):
        # The hook runs at interpreter shutdown, after the __main__ block.
        probe = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('freeze count', gc.get_freeze_count(),"
            " file=sys.stderr))\n"
            "runpy.run_module('gardinglab.cli', run_name='__main__')\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", probe, "thresholds", "--n-max", "3"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert child.returncode == 0 and child.stdout.startswith("n=3: ")
        label, _, count = child.stderr.rpartition(" ")
        assert label == "freeze count" and int(count) > 0

    def test_in_process_main_leaves_the_heap_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        assert main(["thresholds", "--n-max", "3"]) == 0
        assert gc.get_freeze_count() == before

    def test_closed_stdout_exits_65_with_one_line(self):
        # Far more than a pipe holds, so the child writes after the close.
        with subprocess.Popen(
            [sys.executable, "-m", "gardinglab.cli", "thresholds", "--n-min", "3",
             "--n-max", "3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        ) as child:
            assert len(child.stdout.read(10)) == 10
            child.stdout.close()
            err = child.stderr.read()
        assert child.returncode == 65
        assert err == b"gardinglab: [Errno 32] Broken pipe\n"

    def test_console_script_is_the_main_block_entry(self):
        tomllib = pytest.importorskip("tomllib")  # standard from Python 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, name = scripts["gardinglab"].partition(":")
        assert module == "gardinglab.cli"
        (block,) = [
            node
            for node in ast.parse(inspect.getsource(cli)).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        called = [
            node.func.id
            for node in ast.walk(block)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        ]
        assert called == [name]
        assert getattr(cli, name) is cli.console_main
