import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import quotbilin
from quotbilin.cli import EXIT_CAP, EXIT_INVALID, EXIT_MALFORMED, EXIT_OK, build_parser, main
from quotbilin.exactalg import GF, QQ, Matrix, UniPoly
from quotbilin.modcore import (
    FramedModule,
    cyclic_module_univariate,
    framed_to_json,
    make_degenerate,
    make_tuple_of_points,
)
from quotbilin.bilin import bilin_to_json, degenerate_point, main_component_point

F3 = GF(3)


@pytest.fixture()
def main_point_file(tmp_path):
    b = main_component_point([QQ.from_int(0), QQ.from_int(1)],
                             Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    path = tmp_path / "main.json"
    path.write_text(json.dumps(bilin_to_json(b)))
    return str(path)


@pytest.fixture()
def framed_file(tmp_path):
    m = make_tuple_of_points([QQ.from_int(0), QQ.from_int(1)], Matrix.identity(QQ, 2))
    path = tmp_path / "tp.json"
    path.write_text(json.dumps(framed_to_json(m)))
    return str(path)


def run_json(tmp_path, args):
    out = tmp_path / "out.json"
    code = main(args + ["--out", str(out)])
    payload = json.loads(out.read_text())
    return code, payload, out


def test_validate_framed(tmp_path, framed_file):
    code, payload, _ = run_json(tmp_path, ["validate", "--point", framed_file])
    assert code == EXIT_OK
    assert payload["ok"] and payload["kind"] == "framed"


def test_validate_bilin(tmp_path, main_point_file):
    code, payload, _ = run_json(tmp_path, ["validate", "--point", main_point_file])
    assert code == EXIT_OK
    assert payload["ok"] and payload["kind"] == "bilin"


def test_validate_missing_file_exit_code():
    assert main(["validate", "--point", "/nonexistent/file.json"]) == EXIT_MALFORMED


@pytest.mark.parametrize("content", ["5", "[1, 2]", None], ids=["number", "list", "directory"])
def test_validate_rejects_a_file_that_is_not_an_object(tmp_path, content):
    path = tmp_path / "point.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    assert main(["validate", "--point", str(path)]) == EXIT_MALFORMED


def test_validate_names_the_failed_invariant(tmp_path, main_point_file):
    obj = json.loads(Path(main_point_file).read_text())
    obj["Pihat"]["entries"] = ["0"] * 8
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, payload, _ = run_json(tmp_path, ["validate", "--point", str(path)])
    assert code == EXIT_INVALID
    assert not payload["ok"] and payload["failure"] == "surjectivity: Pihat has rank 0 < d3 = 2"


def test_validate_invalid_point_exit_code(tmp_path):
    m = make_tuple_of_points([QQ.from_int(0), QQ.from_int(1)], Matrix.identity(QQ, 2))
    obj = framed_to_json(m)
    obj["G"]["entries"] = ["1", "0", "0", "0"]  # kill generation
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--point", str(path)]) == EXIT_INVALID


def test_tangent_quot_with_oracle(tmp_path, framed_file):
    code, payload, _ = run_json(
        tmp_path, ["tangent", "quot", "--point", framed_file, "--oracle"])
    assert code == EXIT_OK
    assert payload["dim"] == 4
    assert payload["hom_oracle_dim"] == 4
    assert len(payload["basis"]) == 4


def test_tangent_oracle_outside_quot_at_n1_is_a_usage_error(tmp_path, main_point_file, capsys):
    path = tmp_path / "n2.json"
    path.write_text(json.dumps(framed_to_json(make_degenerate(2, 2, Matrix.identity(QQ, 2), n=2))))
    assert main(["tangent", "quot", "--point", str(path), "--out", str(tmp_path / "o.json")]) == EXIT_OK
    for argv in (["tangent", "quot", "--point", str(path), "--oracle"],
                 ["tangent", "bilin", "--point", main_point_file, "--oracle"]):
        assert main(argv) == EXIT_MALFORMED
        assert "--oracle runs for tangent quot at n = 1 only" in capsys.readouterr().err


def test_tangent_bilin_dim_six(tmp_path, main_point_file):
    code, payload, _ = run_json(
        tmp_path, ["tangent", "bilin", "--point", main_point_file, "--check"])
    assert code == EXIT_OK
    assert payload["dim"] == 6


def test_member_success_round_trip(tmp_path, main_point_file):
    b = main_component_point([QQ.from_int(0), QQ.from_int(1)],
                             Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    m3 = b.target_module()
    m1p = tmp_path / "m1.json"
    m2p = tmp_path / "m2.json"
    m3p = tmp_path / "m3.json"
    m1p.write_text(json.dumps(framed_to_json(b.m1)))
    m2p.write_text(json.dumps(framed_to_json(b.m2)))
    m3p.write_text(json.dumps(framed_to_json(m3)))
    code, payload, _ = run_json(tmp_path, [
        "member", "--m1", str(m1p), "--m2", str(m2p), "--m3", str(m3p)])
    assert code == EXIT_OK
    assert payload["found"] and payload["solution_dim"] == 0
    # emitted point re-ingests and re-validates
    point_path = tmp_path / "point.json"
    point_path.write_text(json.dumps(payload["point"]))
    assert main(["validate", "--point", str(point_path)]) == EXIT_OK


def write_member_files(tmp_path, m1, m2, m3):
    paths = []
    for name, m in (("m1", m1), ("m2", m2), ("m3", m3)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(framed_to_json(m)))
        paths += [f"--{name}", str(path)]
    return ["member"] + paths


def test_member_round_trip_over_f3(tmp_path):
    # The F_3 degenerate point of acceptance criterion 9.
    b = degenerate_point(2, 2, 2, Matrix.identity(F3, 2), Matrix.identity(F3, 2),
                         Matrix.from_int_rows(F3, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    code, payload, _ = run_json(
        tmp_path, write_member_files(tmp_path, b.m1, b.m2, b.target_module()))
    assert code == EXIT_OK
    assert payload["found"] and payload["solution_dim"] == 0
    assert payload["point"] == bilin_to_json(b)
    point_path = tmp_path / "point.json"
    point_path.write_text(json.dumps(payload["point"]))
    assert main(["validate", "--point", str(point_path)]) == EXIT_OK


def test_member_non_factoring_target_over_f3(tmp_path):
    # Supports {0, 1} and {0, 2}: the tensor product is 1-dimensional, so a
    # 2-dimensional target cannot factor through it.
    m1 = cyclic_module_univariate(UniPoly.from_ints(F3, [0, -1, 1]))
    m2 = cyclic_module_univariate(UniPoly.from_ints(F3, [0, -2, 1]))
    code, payload, _ = run_json(tmp_path, write_member_files(tmp_path, m1, m2, m1))
    assert code == EXIT_INVALID
    assert not payload["found"] and payload["solution_dim"] is None
    assert "point" not in payload


def test_member_wrong_target_rank_is_malformed(tmp_path):
    m = make_degenerate(2, 2, Matrix.identity(F3, 2))
    args = write_member_files(tmp_path, m, m, m)  # target rank 2, not 2*2
    assert main(args) == EXIT_MALFORMED


def test_dims_grid_csv(tmp_path):
    out = tmp_path / "grid.json"
    code = main(["dims", "--grid", "n=1..2 d=2..3 r=2..4", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    cells = payload["cells"]
    # r_i >= d filter: d=2 gives 9 combos, d=3 gives 4, times n in {1,2}
    assert len(cells) == 2 * (9 + 4)
    csv_text = (tmp_path / "grid.csv").read_text().splitlines()
    assert csv_text[0].startswith("n,d,r1,r2,main_dim")
    assert len(csv_text) == len(cells) + 1


def test_dims_single_cell_quot(tmp_path):
    code, payload, _ = run_json(tmp_path, ["dims", "--n", "1", "--d", "2", "--r", "4"])
    assert code == EXIT_OK
    assert payload["principal_dim"] == 8 and payload["degenerate_dim"] == 4
    assert "seed" not in payload


def test_reducibility_command(tmp_path):
    code, payload, _ = run_json(
        tmp_path, ["reducibility", "--n", "1", "--d", "3", "--r1", "3", "--r2", "3"])
    assert code == EXIT_OK
    assert payload["reducible_by_count"] and payload["reducible_by_secant"]
    code, cell, _ = run_json(
        tmp_path, ["dims", "--n", "1", "--d", "3", "--r1", "3", "--r2", "3"])
    assert code == EXIT_OK
    for report in (payload, cell):
        del report["command"], report["timestamp"]
    assert cell.pop("kind") == "bilin" and cell == payload


def test_secant_dim_command(tmp_path):
    code, payload, _ = run_json(tmp_path, ["secant-dim", "--d", "3", "--r", "3"])
    assert code == EXIT_OK
    assert payload["bound"] == 20 and payload["ambient"] == 26 and not payload["fills"]


def test_reports_are_one_line_json(tmp_path):
    code, payload, out = run_json(tmp_path, ["secant-dim", "--d", "2", "--r", "2"])
    text = out.read_text()
    assert code == EXIT_OK
    assert text.endswith("}\n") and text.count("\n") == 1
    assert text == json.dumps(payload, sort_keys=True) + "\n"


def test_classify222_named(tmp_path):
    code, payload, _ = run_json(
        tmp_path, ["classify222", "--name", "mu2", "--field", "F:5"])
    assert code == EXIT_OK
    assert payload["rank"] == 3 and payload["border_rank"] == 2


def test_classify222_census(tmp_path):
    out = tmp_path / "census.json"
    code = main(["classify222", "--enumerate", "--q", "2", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["total_points"] == 308
    assert payload["border_rank_3"] == 0
    csv_lines = (tmp_path / "census.csv").read_text().splitlines()
    assert csv_lines[0] == "label,tensor_class,count"


def test_classify222_census_cap_exit():
    assert main(["classify222", "--enumerate", "--q", "3", "--cap", "1"]) == EXIT_CAP


def test_limits_command(tmp_path):
    code, payload, _ = run_json(
        tmp_path, ["limits", "--name", "mu2_t", "--field", "F:5", "--samples", "1,2,3"])
    assert code == EXIT_OK
    assert payload["base_matches"]
    assert [s["rank"] for s in payload["samples"]] == [2, 2, 2]


def test_grcount_command(tmp_path):
    code, payload, _ = run_json(tmp_path, ["grcount", "--d", "2", "--r", "4", "--q", "2"])
    assert code == EXIT_OK
    assert payload["enumerated"] == payload["formula"] == 35


@pytest.mark.parametrize("argv", [
    ["secant-dim", "--d", "30", "--r", "200"],
    ["secant-dim", "--d", "3", "--r", "4", "--trials", "1000000000"],
    ["secant-dim", "--d", "3", "--r", "3", "--cap", "100"],
], ids=["large-shape", "many-trials", "small-cap"])
def test_secant_dim_cap_exit(argv, capsys):
    assert main(argv) == EXIT_CAP
    assert "exceed cap" in capsys.readouterr().err


def test_grcount_cap_exit(tmp_path):
    assert main(["grcount", "--d", "3", "--r", "6", "--q", "5",
                 "--cap", "100"]) == EXIT_CAP


def test_bruteforce_rank_cap_exit():
    # the tensorlab cap raises the same InfeasibleEnumeration as grcount
    assert main(["bruteforce-rank", "--name", "mu2", "--field", "F:2", "--q", "2",
                 "--cap", "1"]) == EXIT_CAP


def test_bruteforce_rank_command(tmp_path):
    code, payload, _ = run_json(
        tmp_path, ["bruteforce-rank", "--name", "mu2", "--field", "F:2", "--q", "2"])
    assert code == EXIT_OK
    assert payload["rank"] == 3


def test_reports_identical_modulo_timestamp(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["secant-dim", "--d", "2", "--r", "2", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b and a["seed"] == 9


def test_tangent_at_invalid_point_exits_like_validate(tmp_path):
    # d = 2, r = 1, X = 0, G = e_1: the framing does not generate.
    m = FramedModule(1, 2, 1, (Matrix.zeros(QQ, 2, 2),), Matrix.column(QQ, [1, 0]))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(framed_to_json(m)))
    assert main(["validate", "--point", str(path)]) == EXIT_INVALID
    assert main(["tangent", "quot", "--point", str(path)]) == EXIT_INVALID


def test_classify222_over_a_large_prime_is_fast(tmp_path):
    # Slices I and [[0, 1], [5, 0]]: the pencil discriminant 20 is not a
    # square mod 10^9 + 7, so no square root can be found by luck.
    field = "F:1000000007"
    tensor = {"field": field, "dims": [2, 2, 2],
              "coeffs": ["1", "0", "0", "1", "0", "5", "1", "0"]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tensor))
    t0 = time.perf_counter()
    code, payload, _ = run_json(tmp_path, ["classify222", "--tensor", str(path), "--field", field])
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK
    assert payload["pencil_separable"] and not payload["pencil_split"]


# The flags beyond --out that each subcommand's handler reads.
READ_FLAGS = {
    "validate": set(),
    "tangent": {"--check"},
    "member": set(),
    "dims": set(),
    "reducibility": set(),
    "secant-dim": {"--field", "--seed", "--cap"},
    "classify222": {"--field", "--cap", "--check"},
    "limits": {"--field"},
    "grcount": {"--cap"},
    "bruteforce-rank": {"--field", "--cap"},
}


def test_each_subcommand_declares_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(READ_FLAGS)
    for name, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert "--out" in flags, name
        assert flags & {"--field", "--seed", "--cap", "--check"} == READ_FLAGS[name], name


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["dims", "--n", "x"],
    ["tangent", "quot"],
    ["classify222"],
    ["classify222", "--name", "mu2", "--enumerate"],
    ["bruteforce-rank", "--q", "2"],
    ["bruteforce-rank", "--name", "mu2", "--tensor", "t.json", "--q", "2"],
    ["dims"],
    ["dims", "--d", "2", "--r", "4"],
    ["dims", "--n", "1", "--r", "4"],
    ["dims", "--n", "1", "--d", "2"],
    ["dims", "--n", "1", "--d", "2", "--r1", "3"],
], ids=["no-command", "unknown-command", "bad-int", "missing-point", "classify222-no-mode",
        "classify222-two-modes", "bruteforce-rank-no-tensor", "bruteforce-rank-two-tensors", "dims-nothing",
        "dims-no-n", "dims-no-d", "dims-no-r", "dims-no-r2"])
def test_usage_errors_exit_malformed(argv, capsys):
    assert main(argv) == EXIT_MALFORMED
    assert "error" in capsys.readouterr().err


def test_flags_a_subcommand_does_not_read_are_usage_errors(framed_file):
    assert main(["tangent", "quot", "--point", framed_file, "--field", "F:5"]) == EXIT_MALFORMED
    assert main(["dims", "--n", "1", "--d", "2", "--r", "4", "--seed", "3"]) == EXIT_MALFORMED


@pytest.fixture()
def f3_tensor_file(tmp_path):
    tensor = {"field": "F:3", "dims": [2, 2, 2],
              "coeffs": ["1", "0", "0", "0", "0", "0", "0", "1"]}
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(tensor))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["classify222", "--enumerate", "--q", "2", "--field", "F:5"],
    ["classify222", "--tensor", "TENSOR", "--field", "F:5"],
    ["classify222", "--tensor", "TENSOR", "--field", "Q"],
    ["bruteforce-rank", "--tensor", "TENSOR", "--field", "F:5", "--q", "3"],
    ["bruteforce-rank", "--name", "mu2", "--field", "F:5", "--q", "2"],
    ["bruteforce-rank", "--name", "mu2", "--field", "Q", "--q", "2"],
    ["classify222", "--name", "mu1", "--q", "5", "--cap", "1"],
    ["classify222", "--name", "mu1", "--q", "2"],
    ["classify222", "--tensor", "TENSOR", "--cap", "10"],
    ["dims", "--n", "1", "--d", "2", "--r", "4", "--r1", "3", "--r2", "3"],
    ["dims", "--n", "1", "--d", "2", "--r", "4", "--r1", "3"],
    ["dims", "--grid", "n=1 d=2 r=2", "--n", "1"],
    ["secant-dim", "--d", "2", "--r", "2", "--trials", "0"],
    ["dims", "--grid", "n=1..2 d=2 r=2 q=9"],
    ["dims", "--grid", "n=2..1 d=2 r=2"],
    ["dims", "--grid", "n=1 d=2 r=2 r1=3"],
    ["dims", "--grid", "n=1 d=2 r2=3 r=2"],
], ids=["census-other-field", "tensor-other-prime", "tensor-over-q", "bruteforce-other-field",
        "bruteforce-name-other-prime", "bruteforce-name-over-q", "classify222-name-q-and-cap",
        "classify222-name-q", "classify222-tensor-cap",
        "dims-quot-and-bilin", "dims-r-and-r1", "dims-grid-and-cell", "secant-no-trials",
        "dims-grid-unknown-key", "dims-grid-descending", "dims-grid-r-and-r1",
        "dims-grid-r2-and-r"])
def test_flags_the_input_contradicts_are_usage_errors(argv, f3_tensor_file, capsys):
    argv = [f3_tensor_file if a == "TENSOR" else a for a in argv]
    assert main(argv) == EXIT_MALFORMED
    assert "error" in capsys.readouterr().err


def test_tensor_with_two_dims_is_malformed(tmp_path, capsys):
    path = tmp_path / "t22.json"
    path.write_text(json.dumps({"field": "F:3", "dims": [2, 2], "coeffs": ["1", "0", "0", "1"]}))
    assert main(["classify222", "--tensor", str(path)]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert "malformed tensor JSON" in err and "dims" in err


def test_field_flag_may_repeat_the_field_the_input_fixes(tmp_path, f3_tensor_file):
    code, payload, _ = run_json(tmp_path, ["classify222", "--tensor", f3_tensor_file,
                                           "--field", "F:3"])
    assert code == EXIT_OK and payload["tensor"]["field"] == "F:3"
    code, payload, _ = run_json(tmp_path, ["classify222", "--enumerate", "--q", "2",
                                           "--field", "F:2"])
    assert code == EXIT_OK and payload["total_points"] == 308
    code, payload, _ = run_json(tmp_path, ["bruteforce-rank", "--tensor", f3_tensor_file,
                                           "--q", "3"])
    assert code == EXIT_OK and payload["rank"] == 2
    code, payload, _ = run_json(tmp_path, ["bruteforce-rank", "--name", "mu2", "--q", "2"])
    assert code == EXIT_OK and payload["rank"] == 3 and payload["tensor"]["field"] == "F:2"
    code, payload, _ = run_json(tmp_path, ["classify222", "--enumerate"])
    assert code == EXIT_OK and payload["q"] == 2 and payload["total_points"] == 308
    # classify222 --name still computes over Q unless --field says otherwise
    code, payload, _ = run_json(tmp_path, ["classify222", "--name", "mu2"])
    assert code == EXIT_OK and payload["tensor"]["field"] == "Q"


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["classify222", "--help"]) == EXIT_OK
    assert "--enumerate" in capsys.readouterr().out


def test_a_modulus_past_the_primality_bound_exits_malformed(capsys):
    argv = ["secant-dim", "--d", "2", "--r", "2", "--field", f"F:{2 ** 89 - 1}"]
    assert main(argv) == EXIT_MALFORMED
    assert "too large" in capsys.readouterr().err


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    # The parser is built once per process; each call gets its own exit code
    # and report, and no value of one call shows up as a default of the next.
    assert build_parser() is build_parser()
    assert main(["--help"]) == EXIT_OK
    assert "classify222" in capsys.readouterr().out
    assert main(["classify222", "--name", "mu2", "--enumerate"]) == EXIT_MALFORMED
    assert "error" in capsys.readouterr().err
    code, census, _ = run_json(tmp_path, ["classify222", "--enumerate", "--q", "2"])
    assert code == EXIT_OK and census["q"] == 2 and census["total_points"] == 308
    code, named, _ = run_json(tmp_path, ["classify222", "--name", "mu1"])
    assert code == EXIT_OK
    assert named["tensor"]["field"] == "Q" and "total_points" not in named
    args = build_parser().parse_args(["classify222", "--name", "mu1"])
    assert (args.enumerate, args.q, args.field, args.cap, args.out) == (False, None, None, None, None)


def test_process_exit_status():
    # The console script runs sys.exit(main()); check the status the shell sees.
    src = str(Path(quotbilin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def status(*argv):
        return subprocess.run(
            [sys.executable, "-c", "import sys; from quotbilin.cli import main; sys.exit(main())",
             *argv], env=env, capture_output=True, timeout=60).returncode

    assert status("dims", "--n", "x") == EXIT_MALFORMED
    assert status("classify222", "--enumerate", "--q", "3", "--cap", "1") == EXIT_CAP


def test_python_m_cli_runs_without_warnings():
    # The package must not import cli eagerly: ``python -m quotbilin.cli``
    # would find it in sys.modules and warn, an error under -W error.  The
    # console script ("quotbilin.cli:main") imports the package, then cli.
    src = str(Path(quotbilin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["dims", "--n", "1", "--d", "2", "--r", "4"]
    for launch in (["-m", "quotbilin.cli"],
                   ["-c", "import sys, quotbilin; from quotbilin.cli import main; sys.exit(main())"]):
        proc = subprocess.run([sys.executable, "-W", "error", *launch, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == "" and json.loads(proc.stdout)["principal_dim"] == 8


@pytest.mark.parametrize("grid, key", [
    ("n=1 n=2 d=2 r=2", "n"),
    ("n=1 d=2 r1=2..3 r2=2 r1=4", "r1"),
    ("n=1,d=2,d=3,r=3", "d"),
])
def test_grid_key_given_twice_is_malformed(grid, key, capsys):
    assert main(["dims", "--grid", grid]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert f"grid key {key!r} given twice" in err


@pytest.mark.parametrize("dims", [[2.9, 2, 2], [2.0, 2, 2], "222", [True, 2, 2], [2, "2", 2]])
def test_tensor_dims_must_be_json_integers(tmp_path, dims, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"field": "F:3", "dims": dims,
                                "coeffs": ["1", "0", "0", "0", "0", "0", "0", "1"]}))
    assert main(["classify222", "--tensor", str(path)]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert "malformed tensor JSON" in err and "dims" in err


@pytest.mark.parametrize("key, value", [("rows", 2.5), ("rows", 2.0), ("cols", "2"),
                                        ("cols", True), ("rows", None)])
def test_matrix_sizes_must_be_json_integers(tmp_path, framed_file, key, value, capsys):
    obj = json.loads(Path(framed_file).read_text())
    obj["G"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--point", str(path)]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert "malformed matrix JSON" in err and f"{key} must be an integer" in err


@pytest.mark.parametrize("key, value", [("d", 2.0), ("r", "2"), ("n", True), ("d3", 4.0)])
def test_point_sizes_must_be_json_integers(tmp_path, framed_file, main_point_file, key, value,
                                           capsys):
    obj = json.loads(Path(main_point_file if key == "d3" else framed_file).read_text())
    obj[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--point", str(path)]) == EXIT_MALFORMED
    assert f"{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["5/0", True], ids=repr)
def test_point_entry_q_cannot_read_is_malformed(tmp_path, framed_file, entry, capsys):
    # Fraction("5/0") raises ZeroDivisionError, not ValueError; it is still
    # malformed input (exit 3), not a failed validation (exit 1).
    obj = json.loads(Path(framed_file).read_text())
    obj["G"]["entries"][0] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--point", str(path)]) == EXIT_MALFORMED
    assert "malformed matrix JSON" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [2.7, True, "2.7"], ids=repr)
def test_point_entry_fp_cannot_read_is_malformed(tmp_path, entry, capsys):
    m = make_degenerate(2, 2, Matrix.identity(F3, 2))
    obj = framed_to_json(m)
    obj["G"]["entries"][1] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--point", str(path)]) == EXIT_MALFORMED
    assert "malformed matrix JSON" in capsys.readouterr().err


@pytest.mark.parametrize("field, coeff", [("Q", "5/0"), ("Q", True), ("F:3", 1.5)])
def test_tensor_coefficient_the_field_cannot_read_is_malformed(tmp_path, field, coeff, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"field": field, "dims": [2, 2, 2],
                                "coeffs": [coeff, "0", "0", "0", "0", "0", "0", "1"]}))
    assert main(["classify222", "--tensor", str(path)]) == EXIT_MALFORMED
    assert "malformed tensor JSON" in capsys.readouterr().err


@pytest.mark.parametrize("field, samples", [("Q", "1,1/0"), ("F:5", "1.5")])
def test_limits_sample_the_field_cannot_read_is_malformed(field, samples, capsys):
    assert main(["limits", "--name", "mu2_t", "--field", field, "--samples", samples]) \
        == EXIT_MALFORMED
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [None, 3, True, ["F:3"], {"p": 3}], ids=repr)
@pytest.mark.parametrize("command", [["validate"], ["tangent", "quot"]], ids=" ".join)
def test_point_field_that_is_not_a_string_is_malformed(tmp_path, framed_file, command, spec,
                                                       capsys):
    obj = json.loads(Path(framed_file).read_text())
    obj["X"][0]["field"] = spec
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(command + ["--point", str(path)]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert "a field spec must be a string" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", [None, 3, True, ["F:3"], {"p": 3}], ids=repr)
def test_tensor_field_that_is_not_a_string_is_malformed(tmp_path, spec, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"field": spec, "dims": [2, 2, 2],
                                "coeffs": ["1", "0", "0", "0", "0", "0", "0", "1"]}))
    assert main(["classify222", "--tensor", str(path)]) == EXIT_MALFORMED
    assert "a field spec must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["Infinity", "-1e400", '"1e10000000"'])
def test_point_entry_q_non_finite_or_huge_exponent_is_malformed(tmp_path, framed_file, token,
                                                                 capsys):
    # JSON Infinity and -1e400 load as floats Fraction refuses with
    # OverflowError; "1e10000000" would make Fraction build a power of ten
    # of ten million digits.  All three are malformed input, read at once.
    obj = json.loads(Path(framed_file).read_text())
    obj["G"]["entries"][0] = "ENTRY"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj).replace('"ENTRY"', token))
    start = time.perf_counter()
    assert main(["validate", "--point", str(path)]) == EXIT_MALFORMED
    assert time.perf_counter() - start < 1.0
    assert "malformed matrix JSON" in capsys.readouterr().err


def test_json_nested_too_deeply_is_malformed(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", "--point", str(path)]) == EXIT_MALFORMED
    assert "nested too deeply" in capsys.readouterr().err


def _json_paths(obj, path=()):
    """Every node of a JSON value, as the key/index path from the root."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) \
        else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = copy.copy(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


FUZZ_POINTS = {
    "F:5 pairing": (["tangent", "bilin"], bilin_to_json(main_component_point(
        [GF(5).from_int(1), GF(5).from_int(3)], Matrix.identity(GF(5), 2),
        Matrix.from_int_rows(GF(5), [[1, 2], [0, 1]])))),
    "Q framed": (["tangent", "quot"], framed_to_json(make_tuple_of_points(
        [QQ.from_int(0), QQ.from_int(1), QQ.from_int(-2)],
        Matrix.from_int_rows(QQ, [[1, 0], [0, 1], [1, 1]])))),
}
FUZZ_VALUES = [None, True, False, 0, 1, -1, 3, 2.5, float("inf"), float("-inf"), "1e5000",
               [], ["1"], [[0]], {}, {"field": "Q"}, "F:4", "F:x", "F:", "R", ""]


@settings(deadline=None, max_examples=1000, derandomize=True)
@given(st.sampled_from(sorted(FUZZ_POINTS)), st.data())
def test_cli_on_a_point_with_one_node_replaced_exits_0_1_or_3(name, data):
    # Whatever one JSON node of a valid point file is replaced with, validate
    # and tangent report a result or an exit code; none raises.
    tangent, obj = FUZZ_POINTS[name]
    path = data.draw(st.sampled_from(list(_json_paths(obj))), label="path")
    value = data.draw(st.sampled_from(FUZZ_VALUES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        point = os.path.join(tmp, "point.json")
        with open(point, "w") as fh:
            json.dump(_replaced(obj, path, value), fh)
        for command in (["validate"], tangent):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(command + ["--point", point])
            assert code in (EXIT_OK, EXIT_INVALID, EXIT_MALFORMED), (command, path, value)
