"""Command-line surface: determinism, formats, exit codes, JSON round-trips."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from valgeo.cli import main
from valgeo.geometry import (
    convex_hull, polytope_from_json, polytope_to_json, standard_simplex,
)


def run_cli(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def assert_one_line_error(capsys, argv):
    """Exit code 2, nothing on stdout, one `valgeo: error:` line on stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("valgeo: error: ")
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.fixture
def t3_file(tmp_path):
    path = tmp_path / "t3.json"
    path.write_text(polytope_to_json(standard_simplex(3)))
    return str(path)


def test_polytope_json_round_trip():
    P = convex_hull([(Fraction(1, 3), Fraction(-2, 7)), (1, 0), (0, 1)])
    Q = polytope_from_json(polytope_to_json(P))
    assert Q.vertices == P.vertices


def test_hull_command(t3_file):
    code, out = run_cli(["hull", "--input", t3_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3
    assert len(payload["vertices"]) == 4
    assert len(payload["facets"]) == 4


def test_faces_command(t3_file):
    code, out = run_cli(["faces", "--input", t3_file])
    payload = json.loads(out)
    assert payload["f_vector"] == [4, 6, 4, 1]
    assert payload["euler_alternating_sum"] == 1
    origin_vertex = next(f for f in payload["faces"]
                         if f["dim"] == 0 and f["vertices"] == [0])
    assert origin_vertex["in_minus_class"]


def test_profile_command(t3_file):
    code, out = run_cli(["profile", "--input", t3_file, "--direction", "1,0,0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "row,a,b,value"
    assert "piece,0,1,1/2;-1;1/2" in lines


def test_negative_direction_after_a_space(t3_file):
    spaced = run_cli(["profile", "--input", t3_file, "--direction", "-3,1,2"])
    joined = run_cli(["profile", "--input", t3_file, "--direction=-3,1,2"])
    assert spaced[0] == 0
    assert spaced == joined
    assert "breakpoint,-3,," in spaced[1].splitlines()


def test_negative_p_after_a_space(t3_file):
    args = ["body", "polar_moment", "--input", t3_file, "--grid", "axes"]
    spaced = run_cli(args + ["--p", "-1/2"])
    joined = run_cli(args + ["--p=-1/2"])
    assert spaced[0] == 0
    assert spaced == joined
    assert len(spaced[1].splitlines()) == 7


def test_moment_command_exact(t3_file):
    code, out = run_cli(["moment", "--input", t3_file,
                         "--weight", '{"kind":"power","p":0}',
                         "--grid", "axes"])
    lines = out.splitlines()
    assert lines[0] == "x1,x2,x3,value,error"
    assert all(line.endswith(",1/6,") for line in lines[1:])


def test_moment_command_float_has_error_column(t3_file):
    code, out = run_cli(["moment", "--input", t3_file,
                         "--weight", '{"kind":"exp_neg"}', "--grid", "axes"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(float(r[-1]) < 1e-8 for r in rows)


def test_moment_command_with_measure(t3_file, capsys):
    code, out = run_cli(["moment", "--input", t3_file,
                         "--measure", '{"density": {"kind":"constant","c":"1"}, "atoms": [["0","1"]]}',
                         "--grid", '{"directions": [["1","0","0"]]}'])
    line = out.splitlines()[1]
    # volume 1/6 plus the section value s(0) = 1/2 at the origin atom
    assert line == "1,0,0,2/3,"
    err = assert_one_line_error(capsys, ["moment", "--input", t3_file, "--grid", "axes"])
    assert "exactly one of --weight / --measure" in err


def test_body_laplace_matches_product_formula(tmp_path):
    import math
    from valgeo.geometry import cube
    cube_path = tmp_path / "cube.json"
    cube_path.write_text(polytope_to_json(cube(3)))
    code, out = run_cli(["body", "laplace", "--input", str(cube_path),
                         "--grid", "axes"])
    closed_pos = (1 - math.exp(-1))           # along +e_i
    closed_neg = (math.exp(1) - 1)            # along -e_i
    for line in out.splitlines()[1:]:
        parts = line.split(",")
        expected = closed_pos if "-1" not in parts[:3] else closed_neg
        assert abs(float(parts[3]) - expected) < 1e-13


def test_body_and_eval_commands(t3_file, tmp_path):
    code, out = run_cli(["body", "--input", t3_file, "--kind", "moment",
                         "--p", "2", "--grid", "axes"])
    assert code == 0 and len(out.splitlines()) == 7
    expr = {"terms": [{"op": "measure",
                       "measure": {"density": {"kind": "constant", "c": "1"},
                                   "atoms": []}}]}
    expr_path = tmp_path / "expr.json"
    expr_path.write_text(json.dumps(expr))
    code, out = run_cli(["eval", "--input", t3_file, "--expr", str(expr_path),
                         "--grid", "axes"])
    lines = out.splitlines()
    assert all(line.endswith(",1/6") for line in lines[1:])


@pytest.mark.parametrize("kind", ["moment", "polar_moment", "difference"])
def test_body_without_p_is_rejected(t3_file, capsys, kind):
    err = assert_one_line_error(capsys, ["body", kind, "--input", t3_file, "--grid", "axes"])
    assert "--p" in err


@pytest.mark.parametrize("case", ["too_many_points", "flat_profile",
                                  "malformed_json", "missing_file"])
def test_bad_input_is_one_line_error(tmp_path, capsys, case):
    path = tmp_path / "body.json"
    if case == "too_many_points":
        # 80 points on the moment curve, all of them vertices
        path.write_text(json.dumps({"n": 3, "vertices": [
            [str(i), str(i * i), str(i ** 3)] for i in range(80)]}))
        argv, message = ["hull"], "too many points (80 > 64)"
    elif case == "flat_profile":
        path.write_text(polytope_to_json(standard_simplex(2, 3)))
        argv, message = ["profile", "--direction", "1,0,0"], "section profile of"
    elif case == "malformed_json":
        path.write_text('{"n": 3, "vertices": [')
        argv, message = ["hull"], "Expecting value"
    else:
        argv, message = ["faces"], "No such file or directory"
    code = main(argv + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("valgeo: error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("case", ["polytope_without_n", "polytope_list",
                                  "weight_without_kind", "term_without_op",
                                  "grid_without_directions", "direction_length",
                                  "grid_length", "fib_grid_off_n3", "measure_list"])
def test_wrong_shape_json_is_one_line_error(t3_file, tmp_path, capsys, case):
    path = tmp_path / "body.json"
    if case == "polytope_without_n":
        path.write_text(json.dumps({"vertices": [["0"]]}))
        argv = ["hull", "--input", str(path)]
    elif case == "polytope_list":
        path.write_text("[1, 2]")
        argv = ["hull", "--input", str(path)]
    elif case == "weight_without_kind":
        argv = ["moment", "--input", t3_file, "--weight", '{"p": 1}']
    elif case == "term_without_op":
        argv = ["eval", "--input", t3_file,
                "--expr", '{"terms": [{"weight": {"kind": "constant"}}]}']
    elif case == "direction_length":
        argv = ["profile", "--input", t3_file, "--direction", "1,0"]
    elif case == "fib_grid_off_n3":
        path.write_text(polytope_to_json(standard_simplex(2)))
        argv = ["moment", "--input", str(path), "--weight", '{"kind": "constant"}',
                "--grid", "fib:5"]
    elif case == "measure_list":
        argv = ["moment", "--input", t3_file, "--measure", "[1]"]
    else:
        grid = {"grid_without_directions": '{"dirs": [[1, 0, 0]]}',
                "grid_length": '{"directions": [[1, 0]]}'}[case]
        argv = ["moment", "--input", t3_file, "--weight", '{"kind": "constant"}',
                "--grid", grid]
    err = assert_one_line_error(capsys, argv)
    assert "No such file" not in err


def test_grid_options(t3_file, capsys):
    code, out = run_cli(["moment", "--input", t3_file,
                         "--weight", '{"kind":"power","p":0}',
                         "--grid", "fib:5", "--radii", "1,2"])
    assert len(out.splitlines()) == 11
    err = assert_one_line_error(capsys, ["moment", "--input", t3_file,
                                         "--weight", '{"kind":"power","p":0}',
                                         "--grid", '{"directions": [["0","0","0"]]}'])
    assert "nonzero" in err


def test_outputs_are_byte_identical(t3_file):
    args = ["check", "--suite", "euler", "--trials", "5", "--seed", "3",
            "--verbose"]
    _, run1 = run_cli(args)
    _, run2 = run_cli(args)
    assert run1 == run2


def test_check_exit_codes():
    code, out = run_cli(["check", "--suite", "euler", "--trials", "5",
                         "--seed", "3"])
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["passed"] is True
    code, out = run_cli(["check", "--suite", "nope", "--trials", "1"])
    assert code == 2 and out == ""


def test_check_all_smoke():
    code, out = run_cli(["check", "all", "--trials", "2", "--seed", "1"])
    assert code == 0
    summaries = [json.loads(line) for line in out.splitlines()]
    assert len(summaries) == 12
    assert all(s["passed"] for s in summaries)


def test_json_format(t3_file):
    code, out = run_cli(["moment", "--input", t3_file,
                         "--weight", '{"kind":"power","p":1}',
                         "--grid", "axes", "--format", "json"])
    payload = json.loads(out)
    assert len(payload) == 6
    assert {"x1", "x2", "x3", "value", "error"} <= set(payload[0])


def test_cli_import_leaves_numpy_unloaded():
    # numpy serves only the Monte-Carlo oracle and mpmath only the float
    # path; loading them costs memory and start-up time on every command
    import subprocess
    import sys
    probe = "import sys, valgeo.cli; print('numpy' in sys.modules, 'mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False False"


@pytest.mark.parametrize("vertices, x", [
    ([["-17/2", "5", "39/2"], ["23/2", "4", "-23/2"], ["13/2", "3", "-9/2"],
      ["-13/2", "1", "19/2"], ["-7/2", "1", "11/2"], ["13/2", "2", "-15/2"]],
     [2, 3, 2]),
    ([["-7", "-8", "-3"], ["-1", "-5", "1"], ["16", "4", "6"], ["3", "-5", "1"],
      ["3", "-2", "1"], ["2", "-5", "0"]],
     [3, -3, 1]),
])
def test_exp_error_column_meets_relative_tolerance(tmp_path, vertices, x):
    # values 0.00242 and 0.0114: an absolute quadrature bound of 1e-9 let
    # QUADPACK stop at its first estimate, leaving error columns of 6.7e-11
    # and 1.8e-10, above 1e-8 of the value
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"n": 3, "vertices": vertices}))
    code, out = run_cli(["moment", "--input", str(path), '--weight={"kind":"exp_neg"}',
                         "--grid=" + json.dumps({"directions": [x]})])
    assert code == 0
    value, error = (float(c) for c in out.splitlines()[1].split(",")[-2:])
    assert error <= 1e-8 * value
