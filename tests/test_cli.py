import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from spohncurves import MultiPoly, cli, cubic_from_poly, decompose_cubic
from spohncurves.polynomials import terms_from_json
from caselib import game_for_case

PD = '{"A": [[2,0],[3,1]], "B": [[2,3],[0,1]]}'
G44 = '{"A": [[1,2],[0,3]], "B": [[6,1],[4,0]]}'
GOLDEN_DECOMPOSE = json.loads(
    (Path(__file__).parent / "golden_decompose.json").read_text(encoding="utf-8"))
GOLDEN_GAME_REPORTS = json.loads(
    (Path(__file__).parent / "golden_game_reports.json").read_text(encoding="utf-8"))
PAIR = json.dumps({
    "A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    "B": [[0, 0, "1/2", 0], [0, 0, "-1/2", "1/2"],
          ["1/2", "-1/2", 0, "-1/2"], [0, "1/2", "-1/2", 0]],
    "point": [1, 1, 1, 1],
})


def run_ok(capsys, argv, code=0):
    assert cli.run(argv) == code
    out, err = capsys.readouterr()
    return out, err


def no_floats(node):
    if isinstance(node, float):
        return False
    if isinstance(node, dict):
        return all(no_floats(v) for v in node.values())
    if isinstance(node, list):
        return all(no_floats(v) for v in node)
    return True


# --- golden output bytes ----------------------------------------------------------------

def test_j_golden_bytes(capsys):
    out, _ = run_ok(capsys, ["j", "--game", G44])
    assert out == '{"j": "2810381476/227025"}\n'


def test_approx_golden_bytes(capsys):
    out, _ = run_ok(capsys, ["approx", "--value",
                             "1.202056903159594285399738161511",
                             "--convergents", "15"])
    assert out == '{"approx": "1479821/1231074"}\n'


def test_classify_golden_bytes(capsys):
    out, _ = run_ok(capsys, ["classify", "--game", PD])
    assert out == '{"cases": [9, 10], "kind": "Reducible"}\n'


def test_nash_pd(capsys):
    out, _ = run_ok(capsys, ["nash", "--game", PD])
    assert json.loads(out) == {"pure": [[2, 2]], "totally_mixed": "degenerate"}


def test_konstanz_det(capsys):
    out, _ = run_ok(capsys, ["konstanz", "--game", PD, "--payoffs", "9/4,7/3"])
    data = json.loads(out)
    assert data["det"] == "-19/72"
    assert data["pi1"] == "9/4" and data["pi2"] == "7/3"


def test_reduce_with_weierstrass_model(capsys):
    """The whole report is pinned: the cubic, j and the Weierstrass model."""
    out, _ = run_ok(capsys, ["reduce", "--pair", PAIR, "--point", "1,1,1"])
    assert out == (
        '{"cubic": {"coefficients": {"a": "-1", "b": "0", "c": "-1", "d": "0", '
        '"e": "-1/3", "f": "-1/3", "g": "-1/3", "h": "2/3", "i": "1", "m": "0"}, '
        '"poly": {"terms": [{"coef": "-1", "exp": [3, 0, 0]}, '
        '{"coef": "3", "exp": [2, 0, 1]}, {"coef": "-1", "exp": [1, 2, 0]}, '
        '{"coef": "-1", "exp": [1, 0, 2]}, {"coef": "-1", "exp": [0, 2, 1]}, '
        '{"coef": "2", "exp": [0, 1, 2]}, {"coef": "-1", "exp": [0, 0, 3]}], '
        '"vars": ["x", "y", "z"]}}, "j": "65536/37", '
        '"weierstrass": {"a": ["0", "0", "0", "-6912", "-34560"], "j": "65536/37"}}\n')


def test_reduce_at_the_zero_point_is_bad_input(capsys):
    out, err = run_ok(capsys, ["reduce", "--pair", PAIR, "--point", "0,0,0"], code=2)
    assert out == ""
    assert err == "bad input: projective point needs a nonzero coordinate\n"


def test_aronhold_runs_once_per_cubic(capsys, monkeypatch):
    """Each cubic's S and T are computed once, when it is built: `reduce`
    with a model reads them for j and for the model's certificate, and
    `equiv` for both games' j and their Jacobians."""
    from spohncurves import PayoffTables, elliptic
    calls = []
    aronhold_st = elliptic._aronhold_st

    def counted(*labels):
        calls.append(labels)
        return aronhold_st(*labels)
    monkeypatch.setattr(elliptic, "_aronhold_st", counted)
    pair = json.dumps(elliptic.spohn_pair(
        PayoffTables.from_json(json.loads(G44))).to_json())
    assert "terms" in json.loads(pair)["P1"]  # the sparse polynomial form
    out, _ = run_ok(capsys, ["reduce", "--pair", pair, "--point", "1,0,0"])
    assert json.loads(out)["weierstrass"]["j"] == "2810381476/227025"
    assert len(calls) == 1
    calls.clear()
    g1 = '{"A": [[3,0],[0,2]], "B": [[2,1],[0,3]]}'
    g2 = '{"A": [[3,1],[0,2]], "B": [[2,0],[0,3]]}'
    out, _ = run_ok(capsys, ["equiv", "--game", g1, "--game2", g2])
    assert json.loads(out)["fully_equivalent"] is True
    assert len(calls) == 2


def test_equiv_coordination_games(capsys):
    g1 = '{"A": [[3,0],[0,2]], "B": [[2,1],[0,3]]}'
    g2 = '{"A": [[3,1],[0,2]], "B": [[2,0],[0,3]]}'
    out, _ = run_ok(capsys, ["equiv", "--game", g1, "--game2", g2])
    data = json.loads(out)
    assert data["fully_equivalent"] is True
    assert data["j1"] == data["j2"] == "365986170577/44976384"


@pytest.mark.parametrize("case", range(1, 13))
def test_decompose_golden_bytes(capsys, case):
    """One seeded game per reducibility case; the bytes pin which components
    are found, their order, normalization, points and the scalar."""
    rec = GOLDEN_DECOMPOSE[str(case)]
    assert game_for_case(case, random.Random(rec["seed"])).to_json() == rec["game"]
    out, _ = run_ok(capsys, ["decompose", "--game", json.dumps(rec["game"])])
    assert out == rec["stdout"]


@pytest.mark.parametrize("name", [k for k in GOLDEN_DECOMPOSE if not k.isdigit()])
def test_decompose_golden_bytes_beyond_the_case_games(capsys, name):
    """Bytes recorded while components were MultiPolys and ProjPoints: a line
    point with a fractional coordinate, a double line, fractional payoffs
    (a scalar that is not an integer), the zero cubic, and raw cubics through
    `cubic_from_poly` (a conjugate irrational line pair with a null point,
    coefficients near 10^12).  Two more were recorded while candidate lines
    came from cross products: z | f with the line (7, 4, 3) listed, and
    y | f with (7, -7, 10) listed, both of which fix the components' order."""
    rec = GOLDEN_DECOMPOSE[name]
    if "game" in rec:
        out, _ = run_ok(capsys, ["decompose", "--game", json.dumps(rec["game"])])
    else:
        variables, terms = terms_from_json(rec["cubic"])
        cubic = cubic_from_poly(MultiPoly(variables, [(e, Fraction(n, d)) for e, n, d in terms]))
        out = json.dumps(decompose_cubic(cubic).to_json(), sort_keys=True) + "\n"
    assert out == rec["stdout"]


def test_decompose_prints_a_fractional_point_coordinate(capsys):
    out, _ = run_ok(capsys, ["decompose", "--game", json.dumps(
        GOLDEN_DECOMPOSE["line point 7/3"]["game"])])
    assert '["0", "1", "7/3"]' in out


@pytest.mark.parametrize("command", ["cubic", "nash", "konstanz", "de-check", "witness"])
def test_game_report_golden_bytes(capsys, command):
    """Stdout and exit code of calls on integer, fractional and ~10^12
    games, recorded before the payoff tables were kept only as integers:
    the quadrics, Nash equilibria, Konstanz matrices, conditional payoffs,
    and pure, mixed and semi-mixed witnesses under every relabeling."""
    entries = [e for e in GOLDEN_GAME_REPORTS if e["argv"][0] == command]
    assert len(entries) >= 14
    for entry in entries:
        out, _ = run_ok(capsys, entry["argv"], entry["code"])
        assert out == entry["stdout"], entry["argv"]


# --- input channels ---------------------------------------------------------------------

def test_game_from_file(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(G44)
    out, _ = run_ok(capsys, ["j", "--game", str(path)])
    assert out == '{"j": "2810381476/227025"}\n'


def test_game_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(G44))
    out, _ = run_ok(capsys, ["j", "--game", "-"])
    assert out == '{"j": "2810381476/227025"}\n'


def test_double_encoded_game_is_bad_input(monkeypatch, capsys):
    """A JSON string that holds a game is not a game, like a string that
    holds an array."""
    for text in (json.dumps(G44), '"[1,2]"'):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        out, err = run_ok(capsys, ["j", "--game", "-"], code=2)
        assert out == "" and err == "bad input: game JSON needs 'A' and 'B'\n"


def test_game_from_bimatrix(capsys):
    out, _ = run_ok(capsys, ["classify", "--bimatrix", "2,2 0,3; 3,0 1,1"])
    assert out == '{"cases": [9, 10], "kind": "Reducible"}\n'


def test_identical_bytes_on_repeat(capsys):
    first, _ = run_ok(capsys, ["decompose", "--game", PD])
    second, _ = run_ok(capsys, ["decompose", "--game", PD])
    assert first == second


def test_text_format(capsys):
    out, _ = run_ok(capsys, ["j", "--game", G44, "--format", "text"])
    assert out == "j = 2810381476/227025\n"


# --- exit codes -------------------------------------------------------------------------

def test_zero_cubic_j_is_domain_error(capsys):
    flat = '{"A": [[1,1],[1,1]], "B": [[0,1],[2,3]]}'
    out, err = run_ok(capsys, ["j", "--game", flat], code=1)
    assert out == ""
    assert "domain error" in err


def test_singular_nonzero_cubic_j_succeeds(capsys):
    g = '{"A": [[1,1],[2,0]], "B": [[3,-2],[-1,4]]}'
    out, _ = run_ok(capsys, ["j", "--game", g])
    assert out == '{"j": "singular"}\n'


def test_equiv_singular_game_is_domain_error(capsys):
    _, err = run_ok(capsys, ["equiv", "--game", PD, "--game2", G44], code=1)
    assert "domain error" in err and "singular" in err


def test_answer_beyond_the_digit_limit_is_domain_error(capsys):
    """Python refuses to print an int of more than 4300 digits; such an
    exact answer is a domain error naming the limit, not bad input."""
    game = ('{"A": [["-95e756", "-5e-2168"], [22210740301, 5]], '
            '"B": [["-5/19", -57271413], ["29e-327", "-94e-602"]]}')
    out, err = run_ok(capsys, ["j", "--game", game], code=1)
    assert out == ""
    assert err.startswith("domain error:") and "4300 decimal digits" in err


def test_decompose_scalar_beyond_the_digit_limit_is_domain_error(capsys):
    """The prisoner's dilemma with A scaled by 10^4400: the components stay
    small, and only the scalar, -10^4400, is too long to print."""
    big = '{"A": [["2e4400", 0], ["3e4400", "1e4400"]], "B": [[2, 3], [0, 1]]}'
    out, err = run_ok(capsys, ["decompose", "--game", big], code=1)
    assert out == "" and "4300 decimal digits" in err
    out, _ = run_ok(capsys, ["classify", "--game", big])
    assert out == '{"cases": [9, 10], "kind": "Reducible"}\n'
    fits = big.replace("e4400", "e4200")
    out, _ = run_ok(capsys, ["decompose", "--game", fits])
    data = json.loads(out)
    assert data["scalar"] == "-1" + "0" * 4200
    assert data == {**json.loads(run_ok(capsys, ["decompose", "--game", PD])[0]),
                    "scalar": data["scalar"]}


def test_malformed_json_is_usage_error(capsys):
    _, err = run_ok(capsys, ["classify", "--game", '{"A": [[1,2],'], code=2)
    assert "usage error" in err


_DEEP = "[" * 10**4 + "]" * 10**4  # beyond the decoder's recursion on 3.10-3.13


@pytest.mark.parametrize("channel", ["inline --game", "--pair file", "--game on stdin"])
def test_deeply_nested_json_is_usage_error(tmp_path, monkeypatch, capsys, channel):
    """JSON nested beyond the decoder's recursion limit is malformed input,
    whichever way it arrives."""
    if channel == "inline --game":
        argv = ["j", "--game", _DEEP]
    elif channel == "--pair file":
        path = tmp_path / "pair.json"
        path.write_text(_DEEP)
        argv = ["reduce", "--pair", str(path)]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(_DEEP))
        argv = ["j", "--game", "-"]
    out, err = run_ok(capsys, argv, code=2)
    assert out == "" and "Traceback" not in err
    assert err.startswith("usage error: malformed JSON: maximum recursion depth")


def test_unreadable_file_is_usage_error(capsys):
    _, err = run_ok(capsys, ["classify", "--game", "/nonexistent/game.json"], code=2)
    assert "usage error" in err


def test_missing_game_is_usage_error(capsys):
    _, err = run_ok(capsys, ["classify"], code=2)
    assert "usage error" in err


def test_both_game_and_bimatrix_rejected(capsys):
    _, err = run_ok(capsys, ["classify", "--game", PD,
                             "--bimatrix", "2,2 0,3; 3,0 1,1"], code=2)
    assert "exactly one" in err


def test_closed_stdout_exits_one_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    try:
        proc = subprocess.run([sys.executable, "-m", "spohncurves", "j", "--game", G44],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr


def test_no_subcommand_prints_usage(capsys):
    assert cli.run([]) == 2
    _, err = capsys.readouterr()
    assert "usage" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2


def test_witness_flag_conflicts(capsys):
    _, err = run_ok(capsys, ["witness", "--game", PD], code=2)
    assert "usage error" in err
    _, err = run_ok(capsys, ["witness", "--game", PD, "--ne", "0,0",
                             "--cooperation"], code=2)
    assert "usage error" in err


@pytest.mark.parametrize("ne, threshold", [("0,1/100000", 100001), ("0,1/1000", 1001)])
def test_witness_ladder_starts_at_a_large_threshold(capsys, ne, threshold):
    # the semi-mixed sequence is interior only for r > 1/p1: the threshold is
    # read off the template, and the ladder starts there
    game = '{"A": [[0,0],[1,1]], "B": [[0,0],[1,1]]}'
    start = time.perf_counter()
    out, _ = run_ok(capsys, ["witness", "--game", game, "--ne", ne])
    assert time.perf_counter() - start < 1
    data = json.loads(out)
    assert data["threshold"] == threshold
    assert [row["r"] for row in data["ladder"]] == [threshold * 10 ** k for k in range(4)]
    for row in data["ladder"]:
        assert all(Fraction(x) > 0 for x in row["point"])


@pytest.mark.parametrize("ne", ["0,1e-2200", "0,1e-4400"])
def test_witness_threshold_beyond_the_digit_limit_fails_at_once(capsys, ne):
    # the threshold 10^k + 1 costs two exact evaluations, not a search; the
    # ladder's points then have more than 4300 digits
    game = '{"A": [[0,0],[1,1]], "B": [[0,0],[1,1]]}'
    start = time.perf_counter()
    out, err = run_ok(capsys, ["witness", "--game", game, "--ne", ne], code=1)
    assert time.perf_counter() - start < 1
    assert out == ""
    assert err.startswith("domain error:") and "4300 decimal digits" in err


@pytest.mark.parametrize("argv", [
    ["j", "--game", '{"A": [["1e1000000",0],[1,2]], "B": [[1,0],[3,2]]}'],
    ["j", "--game", '{"A": [["1e10000000",0],[1,2]], "B": [[1,0],[3,2]]}'],
    ["approx", "--value", "1e3000000", "--convergents", "3"],
])
def test_decimal_exponent_beyond_the_bound_is_bad_input_at_once(capsys, argv):
    # Fraction would expand the exponent to millions of digits before the
    # 4300-digit limit applies; the parse refuses it first and names the bound
    start = time.perf_counter()
    out, err = run_ok(capsys, argv, code=2)
    assert time.perf_counter() - start < 1
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("bad input: cannot parse") and \
        f"exceeds {2 * sys.get_int_max_str_digits()} in magnitude" in err


def test_allocation_beyond_memory_is_domain_error(capsys):
    # the sampler refuses more than 10^7 lines before it draws one, so
    # 10^14 lines end at once rather than run for days
    start = time.perf_counter()
    out, err = run_ok(capsys, ["pareto", "--game", PD, "--grid", str(10 ** 14)], code=1)
    assert time.perf_counter() - start < 1
    assert out == ""
    assert err.startswith("domain error:") and "Traceback" not in err
    assert "at most 10000000 sample lines" in err
    assert len(err.splitlines()) == 1


def test_pareto_runs_with_numpy_blocked():
    # the package has no runtime dependency: a None entry in sys.modules
    # makes any `import numpy` raise ImportError
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from spohncurves import cli\n"
            f"sys.exit(cli.run(['pareto', '--game', {PD!r}, '--grid', '30', '--seed', '1']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["points"]


@pytest.mark.parametrize("game", [
    '{"A": [[1.5, 2], [3, 4]], "B": [[1, 2], [3, 4]]}',
    '{"A": 5, "B": [[1, 2], [3, 4]]}',
    '{"A": [[1, 2], [3, 4]], "B": [[null, 2], [3, 4]]}',
    '{"A": [[1, 2], [3, 4]], "B": [[[1], 2], [3, 4]]}',
])
def test_non_rational_payoffs_are_bad_input(capsys, game):
    out, err = run_ok(capsys, ["classify", "--game", game], code=2)
    assert out == ""
    assert err.startswith("bad input: ") and "Traceback" not in err


# 2 x t + y^2 and x z + y t, through [0:0:0:1]
_BOOL_POINT_PAIR = ('{"A": [[0,0,0,1],[0,1,0,0],[0,0,0,0],[1,0,0,0]], '
                    '"B": [[0,0,"1/2",0],[0,0,0,"1/2"],["1/2",0,0,0],[0,"1/2",0,0]], '
                    '"point": [false, false, false, true]}')


@pytest.mark.parametrize("argv", [
    ["j", "--game", '{"A": [[true, false], [0, 1]], "B": [[1, 2], [3, 4]]}'],
    ["reduce", "--pair", _BOOL_POINT_PAIR],
])
def test_json_booleans_are_not_rationals(capsys, argv):
    """Python counts true as the int 1; a JSON true is bad input all the same."""
    run_ok(capsys, argv[:2] + [argv[2].replace("true", "1").replace("false", "0")])
    out, err = run_ok(capsys, argv, code=2)
    assert out == "" and err.startswith("bad input: ") and "bool" in err


# 2 x t + y^2 and x z + y t as unsymmetric matrices, through [0:0:0:1]
_DIGIT_PAIR = ('{"A": [%s, %s, %s, %s], "B": [[0,0,1,0],[0,0,0,1],[0,0,0,0],[0,0,0,0]], '
               '"point": %s}')
_VARS_PAIR = ('{"P1": {"vars": %s, "terms": [{"exp": [1, 0, 0, 1], "coef": 1}, '
              '{"exp": [0, 2, 0, 0], "coef": 1}]}, '
              '"P2": {"vars": ["x", "y", "z", "t"], "terms": ['
              '{"exp": [0, 1, 0, 1], "coef": 1}, {"exp": [1, 0, 1, 0], "coef": 1}]}, '
              '"point": [0, 0, 0, 1]}')


@pytest.mark.parametrize("command, arrays, strings", [
    ("j", '{"A": [[1,2],[3,4]], "B": [[5,6],[7,8]]}', '{"A": ["12","34"], "B": ["56","78"]}'),
    ("reduce", _DIGIT_PAIR % ("[0,0,0,1]", "[0,1,0,0]", "[0,0,0,0]", "[1,0,0,0]", "[0,0,0,1]"),
     _DIGIT_PAIR % ('"0001"', '"0100"', '"0000"', '"1000"', "[0,0,0,1]")),
    ("reduce", _DIGIT_PAIR % ("[0,0,0,1]", "[0,1,0,0]", "[0,0,0,0]", "[1,0,0,0]", "[0,0,0,1]"),
     _DIGIT_PAIR % ("[0,0,0,1]", "[0,1,0,0]", "[0,0,0,0]", "[1,0,0,0]", '"0001"')),
    ("reduce", _VARS_PAIR % '["x", "y", "z", "t"]', _VARS_PAIR % '"xyzt"'),
], ids=["payoff rows", "quadric rows", "point", "vars"])
def test_json_strings_are_not_arrays(capsys, command, arrays, strings):
    """Payoff rows, quadric matrix rows, the common point and polynomial vars
    spelt as strings would be read character by character."""
    flag = "--game" if command == "j" else "--pair"
    run_ok(capsys, [command, flag, arrays])
    out, err = run_ok(capsys, [command, flag, strings], code=2)
    assert out == "" and err.startswith("bad input: ") and "JSON array" in err


@pytest.mark.parametrize("exponent", ['[1.9, 0, 0, 1.2]', '["1", 0, 0, 1]', '[true, 0, 0, 1]'])
def test_non_integer_exponents_are_bad_input(capsys, exponent):
    """x t + y^2 and y t + x z, with the exponent of x t spelt badly."""
    pair = ('{"P1": {"vars": ["x", "y", "z", "t"], "terms": ['
            '{"exp": %s, "coef": 1}, {"exp": [0, 2, 0, 0], "coef": 1}]}, '
            '"P2": {"vars": ["x", "y", "z", "t"], "terms": ['
            '{"exp": [0, 1, 0, 1], "coef": 1}, {"exp": [1, 0, 1, 0], "coef": 1}]}, '
            '"point": [0, 0, 0, 1]}')
    run_ok(capsys, ["reduce", "--pair", pair % "[1, 0, 0, 1]"])
    out, err = run_ok(capsys, ["reduce", "--pair", pair % exponent], code=2)
    assert out == "" and err.startswith("bad input: ") and "exponent" in err


@pytest.mark.parametrize("grid", ["-5", "0"])
def test_pareto_grid_must_be_positive(capsys, grid):
    out, err = run_ok(capsys, ["pareto", "--game", PD, "--grid", grid], code=2)
    assert out == ""
    assert "usage error" in err and "--grid" in err


def test_de_check_rejects_non_distribution(capsys):
    _, err = run_ok(capsys, ["de-check", "--game", PD,
                             "--point", "1,1,1,1"], code=2)
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ["konstanz", "--game", PD, "--payoffs", "-3,2"],
    ["reduce", "--pair", PAIR, "--point", "-1,-1,-1"],
    ["de-check", "--game", PD, "--point", "-0,0,0,1"],
    ["de-check", "--game", PD, "--point", "-1/2,1/2,1/2,1/2"],
    ["witness", "--game", PD, "--ne", "-0,0"],
    ["approx", "--convergents", "3", "--value", "-1/3"],
    ["approx", "--convergents", "3", "--value", "-1e-3"],
    ["approx", "--convergents", "3", "--value", "-2.5e1"],
    ["approx", "--convergents", "3", "--value", "-1_000"],
    ["approx", "--convergents", "3", "--value", "-.5"],
    ["approx", "--value", "1/3", "--convergents", "-1_0"],
    ["pareto", "--game", PD, "--grid", "3", "--seed", "-1_0"],
    ["pareto", "--game", PD, "--grid", "-1_0"],
])
def test_comma_values_may_start_with_a_minus(capsys, argv):
    """Every flag's value after a space is the flag's value even when it
    starts with "-" and a digit or ".", as comma-separated rationals, a
    rational `--value` and the integers of `--seed`, `--grid` and
    `--convergents` may: the same bytes and exit code as FLAG=VALUE."""
    spaced = cli.run(argv), capsys.readouterr()
    joined = cli.run(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]), capsys.readouterr()
    assert spaced == joined
    assert "expected one argument" not in spaced[1].err


def test_spaced_negative_seed_prints_the_recorded_sweep(capsys):
    """`--seed -1_0` is the seed -10: the bytes recorded for `--seed=-1_0`."""
    out, _ = run_ok(capsys, ["pareto", "--game", PD, "--grid", "3", "--seed", "-1_0"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ffb971eb1f05b99858f8d444f44c254560df43ea3fb0fa7694a72ce6617638bf")


@pytest.mark.parametrize("argv", [
    ["j", "--game=--"],
    ["pareto", "--game", PD, "--grid=--"],
    ["approx", "--value", "1/3", "--convergents=--"],
])
def test_a_flag_given_only_dashes_is_a_usage_error(capsys, argv):
    """`FLAG=--` names no value: exit 2 with nothing printed.  argparse
    stores [] for it before Python 3.13, which `run` refuses; 3.13 passes
    "--" on as the value, which the flag's own check refuses."""
    code = _run_code(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    if sys.version_info < (3, 13):
        flag = argv[-1].partition("=")[0]
        assert err == f"usage error: argument {flag}: expected one argument, not '--'\n"


def test_help_before_a_negative_value_still_prints_help(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["j", "--help", "-1"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spohncurves j")


def _run_code(argv):
    """cli.run's exit code, or argparse's when it rejects the flags."""
    try:
        return cli.run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["konstanz", "--game", PD, "--pay", "-3,2"],
    ["konstanz", "--game", PD, "--p", "-3,2"],
    ["reduce", "--pair", PAIR, "--po", "-1,-1,-1"],
    ["reduce", "--pa", PAIR, "--poi", "-1,-1,-1"],
    ["de-check", "--game", PD, "--poin", "-0,0,0,1"],
    ["witness", "--game", PD, "--n", "-0,1"],
    ["witness", "--game", PD, "--n", "-0,0"],
    ["approx", "--convergents", "3", "--val", "-1/3"],
])
def test_abbreviated_comma_flags_take_a_value_with_a_minus(capsys, argv):
    """An abbreviation that argparse accepts for a comma-separated flag or
    `--value`, followed by a value that starts with "-", prints the bytes and
    exit code of FLAG=VALUE.  (`--p` on konstanz is a prefix of `--payoffs`
    alone.)"""
    spaced = _run_code(argv), capsys.readouterr()
    joined = _run_code(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]), capsys.readouterr()
    assert spaced == joined
    assert "expected one argument" not in spaced[1].err


def test_abbreviations_resolve_on_the_chosen_subcommand(capsys):
    """`--pa` on reduce is `--pair`, whose value is read as given; `--po` is
    `--point`.  `--p` there is ambiguous, and stays a usage error, as does
    `--p` on pareto, which has no such flag."""
    spaced = _run_code(["reduce", "--pa", PAIR, "--po", "-1,0,0"]), capsys.readouterr()
    joined = _run_code(["reduce", "--pair", PAIR, "--point=-1,0,0"]), capsys.readouterr()
    assert spaced == joined
    assert _run_code(["reduce", "--pa", "-1,2"]) == 2
    assert "unreadable input '-1,2'" in capsys.readouterr().err
    for value in (["--p", "-1,-1,-1"], ["--p=-1,-1,-1"]):
        assert _run_code(["reduce", "--pair", PAIR] + value) == 2
        assert "ambiguous option: --p" in capsys.readouterr().err
    assert _run_code(["pareto", "--game", PD, "--p", "-1,0"]) == 2


_V3 = {"vars": ["x", "y", "z"], "terms": [{"exp": [2, 0, 0], "coef": 1}]}
_V4 = {"vars": ["x", "y", "z", "t"],
       "terms": [{"exp": [0, 1, 0, 1], "coef": 1}, {"exp": [1, 0, 1, 0], "coef": 1}]}


@pytest.mark.parametrize("pair, code, err", [
    ({"P1": _V3, "P2": {"vars": _V4["vars"], "terms": [{"exp": [1, 1], "coef": 1}]},
      "point": [0, 0, 0, 1]}, 2, "bad input: exponent tuple length != number of variables"),
    ({"P1": _V3, "P2": {"vars": _V4["vars"]}, "point": [0, 0, 0, 1]},
     2, "bad input: polynomial JSON needs 'vars' and 'terms'"),
    ({"P1": _V3, "P2": _V4, "point": [0, "x", 0, 1]},
     2, "bad input: cannot parse rational from 'x'"),
    ({"P1": _V3, "P2": _V4, "point": [0, 0, 0, 0]},
     1, "domain error: quadrics must use exactly 4 variables"),
    ({"P1": {"vars": _V4["vars"], "terms": [{"exp": [3, 0, 0, 0], "coef": 1}]}, "P2": _V4,
      "point": [0, 0, 1]}, 1, "domain error: expected nonzero homogeneous quadrics"),
    ({"A": [[0] * 4] * 4, "B": [[0] * 3] * 4, "point": [0, 0, 0, 1]},
     2, "bad input: quadric matrix must be 4x4"),
    ({"A": [[0] * 4] * 4, "B": [[0.5] * 4] * 4, "point": [0, 0, 0, 1]},
     2, "bad input: quadric-pair JSON needs P1/P2 or A/B plus point: "
        "TypeError('expected int, str or Fraction, got float')"),
], ids=["P1 3 variables, P2 exponent length", "P1 3 variables, P2 no terms",
        "P1 3 variables, point unparsable", "P1 3 variables, point zero",
        "P1 cubic, point 3 coordinates", "A zero, B 4x3", "A zero, B floats"])
def test_several_pair_faults_report_the_first(capsys, pair, code, err):
    """Every parse or shape fault of P1, P2 or the point is bad input before
    any quadric is a domain error; the messages were recorded when the pair
    was read through MultiPoly."""
    out, got = run_ok(capsys, ["reduce", "--pair", json.dumps(pair)], code=code)
    assert (out, got) == ("", err + "\n")


# --- fuzzed argv: every input ends in exit 0, 1 or 2 ------------------------------------

_VALID = st.one_of(
    st.integers(-9, 9),
    st.integers(-10**12, 10**12),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(1, 20)),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-5000, 5000)),
    st.sampled_from(["1.25", "-0", " 3 "]))
_BAD = st.one_of(
    st.sampled_from(["nan", "-inf", "1/0", "0/0", "", "abc", "1,2", "1e", "--1"]),
    st.floats(), st.none(), st.booleans(), st.just([]), st.just([[1]]), st.just({}))


@st.composite
def _spoiled(draw, value):
    """value, or (one time in four) value with one entry, row, table or key
    replaced by junk or deleted."""
    if draw(st.integers(0, 3)):
        return value
    path, node = [], value
    while isinstance(node, (list, dict)) and node and draw(st.booleans()):
        path.append(draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                         else range(len(node)))))
        node = node[path[-1]]
    junk = draw(st.one_of(_BAD, st.lists(_VALID, max_size=3)))
    if not path:
        return junk
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    return value


def _square(n):
    return st.lists(st.lists(_VALID, min_size=n, max_size=n), min_size=n, max_size=n)


def _json_text(values):
    return values.map(json.dumps).flatmap(
        lambda text: st.sampled_from([text] * 6 + [text[:-1], f"[{text}]", "null"]))


_GAME = _json_text(st.builds(lambda A, B: {"A": A, "B": B}, _square(2), _square(2))
                   .flatmap(_spoiled))
_PAIR = _json_text(st.one_of(
    st.builds(lambda A, B, p: {"A": A, "B": B, "point": p}, _square(4), _square(4),
              st.lists(_VALID, min_size=4, max_size=4)),
    st.builds(lambda c: {"P1": {"vars": ["x", "y", "z", "t"],
                                "terms": [{"exp": [2, 0, 0, 0], "coef": "1"}]},
                         "P2": {"vars": ["x"], "terms": [{"exp": [1], "coef": c}]},
                         "point": [0, 1, 0, 0]}, _VALID),
).flatmap(_spoiled))
_TOKEN = st.one_of(*[_VALID] * 6, _BAD).map(str)
_CELL = st.one_of(*[st.builds("{},{}".format, _TOKEN, _TOKEN)] * 6, _TOKEN)
_SIZE = st.sampled_from([2] * 6 + [0, 1, 3])
_BIMATRIX = _SIZE.flatmap(lambda n: st.lists(
    _SIZE.flatmap(lambda m: st.lists(_CELL, min_size=m, max_size=m)),
    min_size=n, max_size=n)).map(lambda rows: "; ".join(" ".join(r) for r in rows))
# --grid stays <= 50 so a sweep costs milliseconds
_COUNT = st.one_of(*[st.integers(1, 50).map(str)] * 4, st.integers(-3, 0).map(str),
                   st.sampled_from(["", "x", "1.5", "1e3", "nan"]))


def _csv(n):
    """n comma-separated rationals, or the wrong number, or junk among them."""
    return st.one_of(*[st.lists(_VALID, min_size=n, max_size=n)] * 4,
                     st.lists(_VALID, max_size=n + 2),
                     st.lists(st.one_of(_VALID, _BAD), min_size=n, max_size=n)
                     ).map(lambda xs: ",".join(map(str, xs)))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["cubic", "classify", "decompose", "j", "nash", "equiv",
                                "reduce", "konstanz", "de-check", "witness", "pareto",
                                "approx"]))
    argv = [cmd]
    if cmd not in ("reduce", "approx"):
        argv += draw(st.one_of(st.tuples(st.just("--game"), _GAME),
                               st.tuples(st.just("--bimatrix"), _BIMATRIX)))
    if cmd == "equiv":
        argv += ["--game2", draw(_GAME)]
    elif cmd == "reduce":
        argv += ["--pair", draw(_PAIR)]
        if draw(st.booleans()):
            argv += ["--point", draw(_csv(3))]
    elif cmd == "konstanz":
        argv += ["--payoffs", draw(_csv(2))]
    elif cmd == "de-check":
        argv += ["--point", draw(_csv(4))]
    elif cmd == "witness":
        if draw(st.booleans()):
            argv += ["--ne", draw(st.one_of(_csv(2), st.sampled_from(["0,0", "1,1", "0,1"])))]
        if draw(st.booleans()):
            argv.append("--cooperation")
    elif cmd == "pareto":
        argv += ["--grid", draw(_COUNT), "--seed", draw(_COUNT)]
    elif cmd == "approx":
        argv += ["--value", str(draw(st.one_of(_VALID, _BAD))),
                 "--convergents", draw(_COUNT)]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--format", draw(st.sampled_from(["json", "text", "xml"]))]
    flags = [k for k, arg in enumerate(argv[:-1]) if arg.startswith("--")
             and arg != "--cooperation"]
    if flags and draw(st.integers(0, 5)) == 0:  # FLAG=-- in place of FLAG VALUE
        k = draw(st.sampled_from(flags))
        argv[k:k + 2] = [argv[k] + "=--"]
    return argv


_HUGE = '{"A": [["1e400", "-1e400"], ["-1e400", "1e400"]], "B": [[-1, 1], [1, -1]]}'


@settings(max_examples=250, deadline=None)
@given(_argv())
@example(["reduce", "--pair", '{"A": null, "B": null, "point": [1, 0, 0, 0]}'])
@example(["reduce", "--pair", '{"P1": 5, "P2": {}, "point": null}'])
@example(["reduce", "--pair", "[1, 2]"])
@example(["witness", "--game", '{"A": [[2, 0], ["3e400", 1]], "B": [[2, 3], [0, 1]]}',
          "--ne", "0,0"])
@example(["pareto", "--game", _HUGE, "--grid", "20"])
@example(["witness", "--game", PD, "--ne", "0,0,1"])
@example(["de-check", "--game", PD, "--point", "1/0,0,0,1"])
@example(["pareto", "--game", PD, "--grid", "-1"])
@example(["approx", "--value", "1e5000", "--convergents", "0"])
@example(["approx", "--value", "nan", "--convergents", "3"])
@example(["j", "--game=--"])
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects flags and their types
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert bool(out.getvalue()) == (code == 0)  # a failed call prints nothing


# --- the README's examples -------------------------------------------------------------

README = Path(__file__).parent.parent / "README.md"


def _readme_examples():
    """(argv, output line) for every `$ spohncurves ...` line of the README
    that is followed by its output."""
    lines = README.read_text(encoding="utf-8").splitlines()
    return [(shlex.split(line[2:], comments=True), out)
            for line, out in zip(lines, lines[1:])
            if line.startswith("$ spohncurves ") and out.strip()
            and not out.startswith(("$", "```"))]


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    assert PD in README.read_text(encoding="utf-8")  # the README's pd.json
    (tmp_path / "pd.json").write_text(PD, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert len(examples) >= 5
    for argv, expected in examples:
        assert argv[0] == "spohncurves"
        out, _ = run_ok(capsys, argv[1:])
        assert out == expected + "\n", argv


# --- payload hygiene --------------------------------------------------------------------

def test_exact_commands_never_emit_floats(capsys):
    for argv in (["cubic", "--game", PD],
                 ["classify", "--game", PD],
                 ["decompose", "--game", PD],
                 ["nash", "--game", PD],
                 ["konstanz", "--game", PD, "--payoffs", "9/4,7/3"],
                 ["de-check", "--game", PD, "--point", "1/4,1/4,1/4,1/4"],
                 ["equiv", "--game", G44, "--game2", G44],
                 ["reduce", "--pair", PAIR],
                 ["approx", "--value", "3.14159265", "--convergents", "4"]):
        out, _ = run_ok(capsys, argv)
        assert no_floats(json.loads(out)), argv


def test_numeric_commands_are_marked(capsys):
    out, _ = run_ok(capsys, ["witness", "--game", PD, "--ne", "0,0"])
    data = json.loads(out)
    assert data["numeric"] is True
    out, _ = run_ok(capsys, ["witness", "--game", PD, "--cooperation"])
    data = json.loads(out)
    assert data["numeric"] is True and data["lambda"] == "1/2"
    out, _ = run_ok(capsys, ["pareto", "--game", PD, "--grid", "30", "--seed", "1"])
    data = json.loads(out)
    assert data["numeric"] is True
    assert data["reference"]["kind"] == "pure (2,2)"


def test_de_check_interior_point(capsys):
    out, _ = run_ok(capsys, ["de-check", "--game", PD,
                             "--point", "1/4,1/4,1/4,1/4"])
    data = json.loads(out)
    assert data["verdict"] == "notDE"
    assert data["conditional_payoffs"]["E_2^(1)"] == "2"


def test_de_check_boundary_point(capsys):
    out, _ = run_ok(capsys, ["de-check", "--game", PD, "--point", "0,0,0,1"])
    data = json.loads(out)
    assert data["verdict"] == "boundary-undecided"
    assert "conditional_payoffs" not in data
