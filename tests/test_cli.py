import contextlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import gpnf
from gpnf import fileformats as ff
from gpnf.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- file formats ----------------------------------------------------------------

def test_rational_parsing():
    assert ff.parse_rational("3/4") == F(3, 4)
    assert ff.parse_rational("-2") == -2
    with pytest.raises(ValueError):
        ff.parse_rational(0.5)


def test_field_round_trip(K_salem):
    d = ff.field_to_dict(K_salem)
    back = ff.field_from_dict(d)
    assert back == K_salem


def test_field_unknown_keys_rejected():
    with pytest.raises(ValueError):
        ff.field_from_dict({"schema": 1, "minpoly": ["1", "0", "-2"],
                            "extra": True})


def test_element_round_trip(K_phi):
    x = K_phi.element([F(1, 2), F(-3)])
    assert ff.element_from_list(K_phi, ff.element_to_list(x)) == x


def test_env_round_trip(K_phi):
    d = {"schema": 1, "field": ff.field_to_dict(K_phi),
         "vars": {"a": {"coords": ["0", "1"]}, "n": {"rational": "7"}}}
    env = ff.env_from_dict(d)
    assert env["a"] == K_phi.beta
    assert env["n"] == 7


# -- subcommands -------------------------------------------------------------------

def test_linrec_term(capsys):
    code, out = run(capsys, "linrec", "--charpoly", "1,-1,-1",
                    "--init", "0,1", "term", "10")
    assert code == 0 and out.strip() == "55"


def test_linrec_member(capsys):
    code, out = run(capsys, "linrec", "--charpoly", "1,-1,-1",
                    "--init", "0,1", "member", "21")
    assert code == 0 and out.strip() == "1"
    code, out = run(capsys, "linrec", "--charpoly", "1,-1,-1",
                    "--init", "0,1", "member", "22")
    assert code == 0 and out.strip() == "0"


def test_linrec_i0(capsys):
    code, out = run(capsys, "linrec", "--charpoly", "1,-1,-1",
                    "--init", "2,1", "i0", "--j", "1")
    assert code == 0 and out.strip() == "4"


def test_linrec_trace_rep(capsys):
    code, out = run(capsys, "linrec", "--charpoly", "1,-1,-1",
                    "--init", "2,1", "trace-rep")
    assert code == 0 and out.strip() == "1,0"


def test_field_command_json(capsys):
    code, out = run(capsys, "field", "--minpoly", "1,-1,-1,-1,1", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == 1
    assert d["signature"] == [2, 1]
    assert d["minpoly"] == ["1", "-1", "-1", "-1", "1"]


def test_json_determinism(capsys):
    args = ("linrec", "--charpoly", "1,-1,-1", "--init", "0,1",
            "term", "30", "--json")
    _code, out1 = run(capsys, *args)
    _code, out2 = run(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["term"] == "832040"


def test_eval_command(tmp_path, capsys):
    env = {"schema": 1, "field": {"schema": 1, "minpoly": ["1", "0", "-2"]},
           "vars": {"a": {"coords": ["-1", "1"]}, "b": {"rational": "0"},
                    "n": {"rational": "2"}}}
    envf = tmp_path / "env.json"
    envf.write_text(json.dumps(env))
    code, out = run(capsys, "eval", "--text",
                    "floor(a*(n+1)+b) - floor(a*n+b)", "--env", str(envf))
    assert code == 0 and out.strip() == "1"


def test_eval_indicator(tmp_path, capsys):
    envf = tmp_path / "env.json"
    envf.write_text(json.dumps({"schema": 1, "vars": {"f": "0"}}))
    code, out = run(capsys, "eval", "--text",
                    "floor(1 - frac(f)) * floor(1 - frac(sqrt2 * f))",
                    "--env", str(envf))
    assert code == 0 and out.strip() == "1"


def test_pisot_set_command(capsys):
    code, out = run(capsys, "pisot-set", "--minpoly", "1,-1,-1",
                    "--indices-mod", "2,0", "--rho", "3/2",
                    "--query", "1,1", "--query", "0,1")
    assert code == 0
    assert "1,1 -> 1" in out
    assert "0,1 -> 0" in out


@pytest.mark.parametrize("query,value,exponent", [("0,1", 0, 1),
                                                  ("1,2", 0, 3),
                                                  ("1,1", 1, 2)])
@pytest.mark.parametrize("as_json", [False, True])
def test_pisot_set_explain(capsys, query, value, exponent, as_json):
    # a non-member's score interval is clipped at 0
    code, out = run(capsys, "pisot-set", "--minpoly", "1,-1,-1",
                    "--indices-mod", "2,0", "--rho", "3/2", "--query", query,
                    "--explain", *(["--json"] if as_json else []))
    assert code == 0
    if as_json:
        [res] = json.loads(out)["results"]
        assert (res["value"], res["exponent"]) == (value, exponent)
        lo, hi = (F(s) for s in res["score_interval"])
        assert 0 <= lo <= hi and (lo == 0) == (value == 0)
    else:
        assert out.splitlines()[1].startswith(f"  {query} -> {{")
        assert f"'value': {value}, 'exponent': {exponent}," in out


def test_salem_recover_command(capsys):
    code, out = run(capsys, "salem-recover", "--charpoly", "1,-1,-1,-1,1",
                    "--init", "4,1,3,7", "--i", "2")
    assert code == 0 and out.strip() == "0,0,1,0"


def test_complexity_command(capsys):
    code, out = run(capsys, "complexity", "--minpoly", "1,0,-2",
                    "--a=-1,1", "--window", "500",
                    "--n-min", "5", "--n-max", "8", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["complexity"] == [[5, 6], [6, 7], [7, 8], [8, 9]]


def test_complexity_slope_out_of_range(capsys):
    code, out = run(capsys, "complexity", "--minpoly", "1,-1,-1",
                    "--a=0,1", "--window", "100",
                    "--n-min", "1", "--n-max", "3", "--json")
    assert code == 1
    d = json.loads(out)
    assert d["schema"] == 1 and d["error"] == "SlopeOutOfRange"


def test_nonhereditary_command(tmp_path, capsys):
    wf = tmp_path / "window.txt"
    code, out = run(capsys, "nonhereditary", "--h-preset", "half",
                    "--l-max", "3", "--out-window", str(wf), "--json")
    assert code == 0
    d = json.loads(out)
    assert d["certified"] is True
    bits = wf.read_text()
    assert set(bits) <= {"0", "1"}
    assert len(bits) == d["window_length"]


def test_domain_error_exit_code(capsys):
    code, _out = run(capsys, "field", "--minpoly", "1,-2,1")  # (x-1)^2
    assert code == 1


def test_field_command_x4_plus_1(capsys):
    code, out = run(capsys, "field", "--minpoly", "1,0,0,0,1", "--json")
    assert code == 0
    assert json.loads(out)["signature"] == [0, 2]


def test_field_command_reducible_quartic(capsys):
    # (x^2 - 1009x - 1)(x^2 + 1013x - 1): no rational root, large factors
    code, out = run(capsys, "field", "--minpoly", "1,4,-1022119,-4,1", "--json")
    assert code == 1
    d = json.loads(out)
    assert d["schema"] == 1 and d["error"] == "ReducibleDetected"


def test_field_command_constant_minpoly(capsys):
    code, out = run(capsys, "field", "--minpoly", "2", "--json")
    assert code == 1
    d = json.loads(out)
    assert d["schema"] == 1 and d["error"] == "DegreeMismatch"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        dispatch(["linrec", "--charpoly", "1,-1,-1"])   # missing --init
    assert e.value.code == 2


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_approx_of_a_large_value(capsys, json_flag):
    # 21 decimals of a value with six integer digits
    code, out = run(capsys, "eval", "--text", "sqrt2*100000", "--approx", "64",
                    *json_flag)
    assert code == 0
    assert "141421.356237309504880168872" in out


def test_approx_floor_validated():
    with pytest.raises(SystemExit) as e:
        dispatch(["field", "--minpoly", "1,-1,-1", "--approx", "8"])
    assert e.value.code == 2


@pytest.mark.parametrize("query,error", [("1,1,1", "DegreeMismatch"),
                                         ("1,abc", "MalformedRational")])
@pytest.mark.parametrize("json_flag", [False, True])
def test_bad_query_is_a_domain_error(capsys, query, error, json_flag):
    code = dispatch(["pisot-set", "--minpoly", "1,-1,-1", "--indices-mod",
                     "2,0", "--query", query] + ["--json"] * json_flag)
    captured = capsys.readouterr()
    assert code == 1
    if json_flag:
        d = json.loads(captured.out)
        assert d["schema"] == 1 and d["error"] == error
    else:
        assert captured.out == ""
        assert captured.err.startswith(f"error [{error}]: ")


def test_input_errors_are_value_errors(K_phi):
    from gpnf.errors import DegreeMismatch, GpnfError, MalformedRational
    for bad in ("abc", "1/0", "1.5.2"):
        with pytest.raises(MalformedRational):
            ff.parse_rational(bad)
    with pytest.raises(MalformedRational):
        ff.parse_rational(0.5)
    with pytest.raises(MalformedRational) as e:     # the text is not echoed
        ff.parse_rational("1" * 4400 + "x")
    assert len(str(e.value)) < 100 and "4401 characters" in str(e.value)
    with pytest.raises(DegreeMismatch):
        K_phi.element([1, 2, 3])
    with pytest.raises(DegreeMismatch):
        K_phi.from_traces([2])
    assert issubclass(MalformedRational, GpnfError)
    assert issubclass(MalformedRational, ValueError)


# -- integers past the int/str digit limit ------------------------------------

def cli_process(*argv):
    """The CLI in a fresh interpreter, through `main` as the `gpnf` script
    runs it."""
    src = os.path.dirname(os.path.dirname(gpnf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "gpnf.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@contextlib.contextmanager
def no_digit_limit():
    """The test process's own int/str conversion limit lifted, then put
    back."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_cli_prints_a_term_past_the_digit_limit():
    r = cli_process("linrec", "--charpoly", "1,-1,-1", "--init", "0,1",
                    "term", "25000", "--json")
    assert r.returncode == 0, r.stderr
    a, b = 0, 1
    for _ in range(25000):
        a, b = b, a + b
    with no_digit_limit():
        assert json.loads(r.stdout)["term"] == str(a)      # 5,225 digits


def test_cli_member_query_past_the_digit_limit():
    big = "7" + "0" * 4399
    r = cli_process("linrec", "--charpoly", "1,-1,-1", "--init", "0,1",
                    "member", big, "--json")
    assert r.returncode == 1
    d = json.loads(r.stdout)
    assert d["schema"] == 1 and d["error"] == "SearchBoundExceeded"
    assert big not in r.stdout
    # importing gpnf, as this process did, leaves the limit alone
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is not None:
        assert get() == sys.int_info.default_max_str_digits


# -- integer options and hypotheses: typed errors, never a traceback ----------

FIB_SET = ["pisot-set", "--minpoly", "1,-1,-1", "--query", "0,1"]
FIB_SEQ = ["linrec", "--charpoly", "1,-1,-1", "--init", "0,1"]


@pytest.mark.parametrize("argv,code,error", [
    (FIB_SET + ["--indices-mod", "2,0", "--m", "abc"], 2, None),
    (FIB_SET + ["--indices", "0,x"], 2, None),
    (FIB_SET + ["--indices-mod", "2,0", "--distinguished", "abc"], 2, None),
    (["field", "--minpoly", "1,-1,-1", "--distinguished", "abc"], 2, None),
    (FIB_SET + ["--indices", "-1"], 1, "OutOfRange"),
    (FIB_SET + ["--indices-mod", "0"], 1, "OutOfRange"),
    (FIB_SET + ["--indices-mod", "2,0", "--distinguished", "5"], 1,
     "OutOfRange"),
    (["field", "--minpoly", "1,-1,-1", "--distinguished", "5"], 1,
     "OutOfRange"),
    (FIB_SET + ["--indices-mod", "2,0", "--m", "1"], 1, "OutOfRange"),
    (FIB_SET + ["--indices-mod", "2,0", "--m", "0"], 1, "OutOfRange"),
    (FIB_SET + ["--indices-mod", "2,0", "--beta=-1,-1"], 1, "NotPisot"),
    (["pisot-set", "--minpoly", "1,-2", "--indices-mod", "2,0",
      "--query", "2"], 1, "RankNotOne"),
    (["pisot-set", "--minpoly", "1,-1,-1,-1,1", "--indices-mod", "2,0",
      "--query", "1,0,0,0"], 1, "RankNotOne"),
    (["linrec", "--charpoly", "1,-1,-1", "--init", "0,1", "zeros",
      "--bound", "200000"], 1, "OutOfRange"),
    (["nonhereditary", "--l-max", "0"], 1, "OutOfRange"),
    (FIB_SEQ + ["member", "55", "--search-bound", "-5"], 1, "OutOfRange"),
    (FIB_SEQ + ["i0", "--j", "-1"], 1, "OutOfRange"),
    (FIB_SEQ + ["term", "-1"], 2, None),
    (FIB_SEQ + ["recover", "--i", "-1"], 2, None),
    (["salem-recover", "--charpoly", "1,-1,-1,-1,1", "--init", "4,1,3,7",
      "--i", "-1"], 2, None),
], ids=["m-abc", "indices-0,x", "distinguished-abc", "field-distinguished-abc",
        "indices--1", "indices-mod-0", "distinguished-5",
        "field-distinguished-5", "m-1", "m-0", "beta-minus-phi",
        "rank-0", "rank-2-salem", "zeros-bound-past-cap", "l-max-0",
        "search-bound--5", "i0-j--1", "term--1", "recover-i--1",
        "salem-recover-i--1"])
def test_option_and_hypothesis_errors_are_typed(argv, code, error):
    r = cli_process(*argv, "--json")
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stdout + r.stderr
    if error is not None:
        d = json.loads(r.stdout)
        assert d["schema"] == 1 and d["error"] == error
