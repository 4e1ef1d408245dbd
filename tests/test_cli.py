import contextlib
import dataclasses
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from aldual import ald, cli, exactrho, instance as inst_mod
from aldual.cli import main, parse_rho_schedule, UsageError
from aldual.errors import (
    AldualError,
    AssumptionError,
    DimMismatchError,
    InfeasibleError,
    InputError,
    NegativeDeltaError,
    NotPsdError,
    NotSquareError,
    NotSymmetricError,
)
from aldual.exactrho import certify
from aldual.instance import GenConfig, generate, read_instance, write_instance
from aldual.numkit import RatVec, parse_rat
from aldual.penalty import parse_penalty

from conftest import d1_instance


ROOT = Path(__file__).resolve().parents[1]


def d1_goldens():
    """(command, golden) for every recorded CLI output on instances/d1.json."""
    with open(ROOT / "aldbench" / "goldens.json", encoding="utf-8") as fh:
        outputs = json.load(fh)["outputs"]
    return [pytest.param(key[len("d1 | "):], want, id=key[len("d1 | "):])
            for key, want in sorted(outputs.items()) if key.startswith("d1 | ")]


@pytest.fixture
def d1_path(tmp_path):
    path = tmp_path / "d1.json"
    write_instance(d1_instance(), path)
    return str(path)


def test_rho_schedule_parsing():
    assert parse_rho_schedule("geom:1:2:4") == [1, 2, 4, 8]
    assert parse_rho_schedule("0,1/2,3") == [0, Fraction(1, 2), 3]
    with pytest.raises(UsageError):
        parse_rho_schedule("3,1")
    with pytest.raises(UsageError):
        parse_rho_schedule("geom:1:1:4")
    with pytest.raises(UsageError):
        parse_rho_schedule("")


@pytest.mark.parametrize("spec", ["geom:1:2:x", "geom:a:2:3", "geom:1:2/0:3",
                                  "geom:1:2:", "1,x"])
def test_malformed_rho_schedule_is_usage_error(spec, d1_path, capsys):
    with pytest.raises(UsageError):
        parse_rho_schedule(spec)
    assert main(["sweep", "--instance", d1_path, "--penalty", "linf",
                 "--rhos", spec]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: ")


def test_check_d1(d1_path, capsys):
    assert main(["check", "--instance", d1_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["nlp_bounded"] and doc["feasible"]
    assert doc["z_ip"] == "1"
    assert doc["integer_box"] == {"lower": [-3, -3], "upper": [3, 3]}
    assert set(doc["farkas"]) == {"lam_E", "lam_A", "lam_Q"}


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["check", "--instance", str(path)]) == 1


def test_check_missing_field(tmp_path, d1_path, capsys):
    doc = json.loads(open(d1_path).read())
    del doc["b"]
    path = tmp_path / "nob.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--instance", str(path)]) == 1


def test_check_unbounded_toy(tmp_path, capsys):
    doc = {"n1": 1, "n2": 0, "Q": [["0"]], "c": ["-1"], "A": [], "b": [],
           "E": [], "f": []}
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--instance", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["descent_ray"] == ["1"]


def test_solve_d1(d1_path, capsys):
    assert main(["solve", "--instance", d1_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["z_ip"] == "1"
    assert doc["z_nlp"] == "1/2"
    assert doc["lambda_bar"] == ["1"]
    assert doc["argmin"] == ["0", "1"]
    assert doc["classical_gap"] == "0"


def test_solve_infeasible(tmp_path, d1_path, capsys):
    doc = json.loads(open(d1_path).read())
    doc["b"] = ["1/2"]  # integer parity makes the instance infeasible
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path)]) == 3


def test_sweep_csv(d1_path, capsys):
    assert main(["sweep", "--instance", d1_path, "--penalty", "linf",
                 "--rhos", "geom:1:2:8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rho,z_lr,z_ld,gap_lr,violation,kappa_rho"
    assert len(lines) == 9
    final = lines[-1].split(",")
    assert parse_rat(final[3]) == 0  # gap closes
    # every cell re-parses exactly
    for line in lines[1:]:
        cells = line.split(",")
        assert parse_rat(cells[0]) >= 1
        assert parse_rat(cells[1]) == 1


def test_sweep_negative_ascent_iters_is_usage_error(d1_path, capsys):
    assert main(["sweep", "--instance", d1_path, "--penalty", "l1",
                 "--rhos", "0,1", "--ascent-iters", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--ascent-iters" in captured.err


def test_sweep_single_row_and_json(d1_path, tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert main(["sweep", "--instance", d1_path, "--penalty", "sql2",
                 "--rhos", "2", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert parse_rat(rows[0]["z_lr"]) <= 1


def test_rho_sufficient(d1_path, capsys):
    assert main(["rho", "--instance", d1_path, "--penalty", "linf",
                 "--method", "sufficient"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rho_star"] == "1/2"
    assert doc["method"] == "sufficient"


@pytest.mark.parametrize("spec", ["linf", "slinf:2"])
def test_rho_sufficient_no_dualized_rows(spec, tmp_path, capsys):
    path = tmp_path / "m0.json"
    write_instance(generate(GenConfig(n1=1, n2=1, m=0, m2=1, magnitude=2,
                                      seed=3)), path)
    assert main(["rho", "--instance", str(path), "--penalty", spec,
                 "--method", "sufficient"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rho_star"] == "0"
    inst = read_instance(path)
    assert certify(inst, RatVec(parse_rat(v) for v in doc["lambda_used"]),
                   parse_rat(doc["rho_star"]), parse_penalty(spec, inst.m))


def test_rho_verify_dominance(d1_path, capsys):
    assert main(["rho", "--instance", d1_path, "--penalty", "linf",
                 "--method", "dual-linf", "--verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["empirical"]["achieved"] is True
    assert doc["empirical"]["dominates"] is True


def test_rho_verify_needs_norm_penalty(d1_path, monkeypatch, capsys):
    def no_solve(*args):
        raise AssertionError("rho_sufficient ran before the usage check")

    monkeypatch.setattr(exactrho, "rho_sufficient", no_solve)
    # sql2 is the one kind that is not a norm
    assert main(["rho", "--instance", d1_path, "--penalty", "sql2",
                 "--method", "sufficient", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--verify" in captured.err


def test_rho_method_penalty_mismatch(d1_path, capsys):
    assert main(["rho", "--instance", d1_path, "--penalty", "l1",
                 "--method", "dual-linf"]) == 1


def test_rho_norm_with_embedded_kind(d1_path, capsys):
    assert main(["rho", "--instance", d1_path, "--penalty", "linf",
                 "--method", "norm:l1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "norm-convert"


def test_rho_unknown_method(d1_path):
    assert main(["rho", "--instance", d1_path, "--penalty", "linf",
                 "--method", "bogus"]) == 1


def test_rho_shift(d1_path, tmp_path, capsys):
    lam = tmp_path / "lam.json"
    lam.write_text(json.dumps(["0"]))
    assert main(["rho", "--instance", d1_path, "--penalty", "linf",
                 "--method", "shift", "--lambda", str(lam)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "lambda-shift"
    assert doc["lambda_used"] == ["0"]


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--n1", "1", "--n2", "1", "--m", "1", "--m2", "1",
            "--magnitude", "2", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_then_check(tmp_path):
    path = tmp_path / "gen.json"
    assert main(["gen", "--n1", "0", "--n2", "2", "--m", "1", "--seed", "3",
                 "--out", str(path)]) == 0
    assert main(["check", "--instance", str(path)]) == 0


def test_gen_pure_continuous_no_gap(tmp_path, capsys):
    path = tmp_path / "cont.json"
    assert main(["gen", "--n1", "2", "--n2", "0", "--m", "1", "--seed", "2",
                 "--out", str(path)]) == 0
    code = main(["solve", "--instance", str(path)])
    doc = json.loads(capsys.readouterr().out)
    if code == 0:
        assert doc["z_ip"] == doc["z_nlp"]
    else:
        assert code == 2  # unbounded relaxation is legitimate here


def test_shared_parser_gives_the_fresh_parser_bytes(d1_path, capsys,
                                                    monkeypatch):
    # one parser serves every call: the norm:KIND rewrite of args.penalty
    # and a usage error leave nothing behind for the next command
    calls = [
        ["rho", "--instance", d1_path, "--penalty", "linf", "--method", "norm:l1"],
        ["sweep", "--instance", d1_path, "--penalty", "linf", "--rhos", "0,1,4"],
        ["sweep", "--instance", d1_path, "--penalty", "linf"],
        ["rho", "--instance", d1_path, "--penalty", "linf", "--method",
         "dual-linf"],
    ]

    def run():
        out = []
        for argv in calls:
            code = main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    assert cli.build_parser() is cli.build_parser()
    shared = run()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert run() == shared
    assert [code for code, _, _ in shared] == [0, 0, 1, 0]


def test_unknown_flag_is_input_error(d1_path):
    assert main(["sweep", "--instance", d1_path, "--penalty", "linf",
                 "--rhos", "geom:1:2:2", "--bogus"]) == 1


def test_full_pipeline_on_generated_instance(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    assert main(["gen", "--n1", "1", "--n2", "1", "--m", "1", "--m2", "1",
                 "--magnitude", "2", "--seed", "41", "--out", str(path)]) == 0
    assert main(["check", "--instance", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", "--instance", str(path)]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert main(["sweep", "--instance", str(path), "--penalty", "l1",
                 "--rhos", "0,1,4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    last = lines[-1].split(",")
    # the sweep's gap column is consistent with the solve output
    assert parse_rat(last[3]) == parse_rat(solved["z_ip"]) - parse_rat(last[1])
    assert main(["rho", "--instance", str(path), "--penalty", "linf",
                 "--method", "dual-linf", "--verify"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["empirical"]["dominates"] is True


@pytest.mark.parametrize("command,golden", d1_goldens())
def test_d1_output_matches_golden(command, golden, capsys):
    """The behaviour contract: exit code and stdout byte-identical to the
    recorded outputs on instances/d1.json."""
    words = command.split()
    argv = [words[0], "--instance", str(ROOT / "instances" / "d1.json"), *words[1:]]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (golden["exit"], golden["stdout"])


def test_d1_goldens_present():
    assert len(d1_goldens()) == 7


def test_sweep_error_leaves_no_output(tmp_path, capsys):
    # x1 + x2 = 1/2 has no integer solution: the ground truth is infeasible
    path = tmp_path / "parity.json"
    write_instance(dataclasses.replace(d1_instance(), b=RatVec(["1/2"])), path)
    out = tmp_path / "rows.csv"
    for extra in ([], ["--out", str(out)]):
        assert main(["sweep", "--instance", str(path), "--penalty", "linf",
                     "--rhos", "0,1", *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "infeasible" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("method", ["sufficient", "dual-linf", "norm", "norm:l1"])
def test_rho_lambda_only_for_shift(d1_path, method, capsys):
    assert main(["rho", "--instance", d1_path, "--penalty", "linf",
                 "--method", method, "--lambda", "zeros"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--lambda" in captured.err
    # the default names lambda_bar and is accepted
    assert main(["rho", "--instance", d1_path, "--penalty", "linf",
                 "--method", method, "--lambda", "bar"]) == 0


@pytest.mark.parametrize("error", [
    DimMismatchError("dims"), NotSquareError("square"),
    NotSymmetricError("symmetric"), NotPsdError("psd"),
    NegativeDeltaError("delta")])
def test_shape_errors_after_validation_are_internal(d1_path, error,
                                                    monkeypatch, capsys):
    def broken(inst):
        raise error

    monkeypatch.setattr(ald, "lambda_bar", broken)
    assert main(["solve", "--instance", d1_path]) == 4
    assert "internal invariant breach" in capsys.readouterr().err


def test_unreadable_instance_is_input_error(tmp_path, capsys):
    assert main(["check", "--instance", str(tmp_path)]) == 1
    assert "input error" in capsys.readouterr().err


def test_instance_without_variables(tmp_path, capsys):
    # n1 = n2 = 0: the integer box holds the one empty assignment
    doc = {"n1": 0, "n2": 0, "Q": [], "c": [], "A": [[]], "b": ["0"],
           "E": [[]], "f": ["2"]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--instance", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["z_ip"] == "0" and out["integer_box"]["lower"] == []
    assert main(["solve", "--instance", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["argmin"] == [] and out["z_ip"] == out["z_nlp"] == "0"
    assert main(["sweep", "--instance", str(path), "--penalty", "linf",
                 "--rhos", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0,0,,0,0,", "1,0,,0,0,0"]
    assert main(["rho", "--instance", str(path), "--penalty", "linf",
                 "--method", "sufficient"]) == 0
    assert json.loads(capsys.readouterr().out)["rho_star"] == "0"


# The failure policy: an error's category, its base class in
# aldual.errors, decides the exit code, and anything else is a bug.

def _error_classes():
    """Every subclass of AldualError, walked so that a new one is covered."""
    found, todo = set(), [AldualError]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return sorted(found, key=lambda cls: cls.__name__)


def _expected_exit(cls):
    for base, code in ((InputError, 1), (AssumptionError, 2), (InfeasibleError, 3)):
        if issubclass(cls, base):
            return code
    return 4


_PREFIX = {1: "input error", 2: "assumption violation", 3: "infeasible",
           4: "internal invariant breach"}


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_typed_error_exits_by_category(cls, d1_path, monkeypatch, capsys):
    error = cls("boom")

    def broken(inst):
        raise error

    monkeypatch.setattr(ald, "lambda_bar", broken)
    code = _expected_exit(cls)
    prefix = "usage error" if cls is UsageError else _PREFIX[code]
    assert main(["solve", "--instance", d1_path]) == code
    assert capsys.readouterr() == ("", f"{prefix}: {error}\n")


def test_each_error_class_has_its_documented_exit_code():
    # pinned, so that re-basing a class cannot silently move its exit code
    by_code = {1: {"InputError", "ParseError", "SchemaViolationError",
                   "RationalParseError", "UnsupportedKindError", "UsageError"},
               2: {"AssumptionError", "NlpUnboundedError",
                   "UnboundedIntegerVarError", "DeltaZeroError"},
               3: {"InfeasibleError", "NlpInfeasibleError",
                   "InfeasibleDomainError"},
               4: {"InternalInvariantError", "BisectionCapError",
                   "DimMismatchError", "NotSquareError", "NotSymmetricError",
                   "NotPsdError", "NegativeDeltaError"}}
    classes = {cls.__name__: cls for cls in _error_classes()}
    for code, names in by_code.items():
        for name in names:
            assert _expected_exit(classes[name]) == code, name


_UNTYPED = [ValueError("boom"), ZeroDivisionError("boom"), KeyError("boom"),
            AssertionError("boom")]


@pytest.mark.parametrize("error", _UNTYPED, ids=lambda e: type(e).__name__)
def test_untyped_error_is_internal(error, d1_path, tmp_path, monkeypatch,
                                   capsys):
    def broken(*args):
        raise error

    line = ("", f"internal invariant breach: {type(error).__name__}: {error}\n")
    monkeypatch.setattr(ald, "lambda_bar", broken)
    assert main(["solve", "--instance", d1_path]) == 4
    assert capsys.readouterr() == line
    # in every command: each reads its instance, or generates one
    monkeypatch.setattr(inst_mod, "read_instance", broken)
    monkeypatch.setattr(inst_mod, "generate", broken)
    for argv in (["check", "--instance", d1_path],
                 ["solve", "--instance", d1_path],
                 ["sweep", "--instance", d1_path, "--penalty", "l1",
                  "--rhos", "0,1"],
                 ["rho", "--instance", d1_path, "--penalty", "linf",
                  "--method", "sufficient"],
                 ["gen", "--n1", "1", "--n2", "1", "--m", "1",
                  "--out", str(tmp_path / "g.json")]):
        assert main(argv) == 4, argv
        assert capsys.readouterr() == line


# Input failures that once reached main only as a bare ValueError (or as an
# uncaught RecursionError) are typed where they arise; each line below is
# the one the CLI printed before they were typed, unless noted.
_DIGITS = "1" * 5000
_DIGITS_LINE = ("Exceeds the limit (4300 digits) for integer string conversion: "
                "value has 5000 digits; use sys.set_int_max_str_digits() to "
                "increase the limit")
_NOT_UTF8_LINE = ("'utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte")
_TOO_DEEP = ("maximum recursion depth exceeded while decoding a JSON array "
             "from a unicode string")
_D1 = str(ROOT / "instances" / "d1.json")
_SHIFT = ["rho", "--instance", _D1, "--penalty", "linf", "--method", "shift",
          "--lambda"]


@pytest.mark.parametrize("argv,content,line", [
    (["check", "--instance"], b"\xff{}", f"input error: {_NOT_UTF8_LINE}"),
    (["check", "--instance"], f'{{"n1": {_DIGITS}}}'.encode(),
     f"input error: {_DIGITS_LINE}"),
    # an uncaught RecursionError before: a traceback, exit 1
    (["check", "--instance"], b"[" * 100_000, f"input error: {_TOO_DEEP}"),
    (_SHIFT, b"\xff[]", f"input error: {_NOT_UTF8_LINE}"),
    (_SHIFT, b"nope", "input error: Expecting value: line 1 column 1 (char 0)"),
    (_SHIFT, f'["{_DIGITS}"]'.encode(), f"input error: {_DIGITS_LINE}"),
    (_SHIFT, b"[" * 100_000, f"input error: {_TOO_DEEP}"),
], ids=["instance-not-utf8", "instance-long-int", "instance-too-deep",
        "lambda-not-utf8", "lambda-not-json", "lambda-long-numeral",
        "lambda-too-deep"])
def test_bad_input_file_is_input_error(argv, content, line, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    assert main([*argv, str(path)]) == 1
    assert capsys.readouterr() == ("", line + "\n")


@pytest.mark.parametrize("argv,line", [
    # before: "input error: ...", through the bare ValueError clause; a
    # --rhos token that parse_rat rejects is a usage error, as in geom:
    (["sweep", "--instance", _D1, "--penalty", "linf", "--rhos", _DIGITS],
     f"usage error: {_DIGITS_LINE}"),
    (["gen", "--n1", "-1", "--n2", "1", "--m", "0"],
     "input error: counts must be nonnegative"),
    (["gen", "--n1", "1", "--n2", "1", "--m", "0", "--magnitude", "0"],
     "input error: magnitude must be >= 1"),
    (["gen", "--n1", "0", "--n2", "0", "--m", "0"],
     "input error: at least one variable required"),
], ids=["rhos-long-numeral", "gen-negative-count", "gen-magnitude-0",
        "gen-no-variables"])
def test_bad_option_is_input_error(argv, line, tmp_path, capsys):
    if argv[0] == "gen":
        argv = [*argv, "--out", str(tmp_path / "g.json")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", line + "\n")


# The exit-code property: on any small generated instance, feasible or
# not, each command of the CLI benchmark workload exits 0, 2 or 3, never 1
# (the file is valid) or 4 (a bug).  When check finds the instance
# unbounded (2) or infeasible (3), every command exits with check's code.
CLI_COMMANDS = (  # the cli workload's commands (aldbench/workloads.py)
    ("check",),
    ("solve",),
    ("sweep", "--penalty", "l1", "--rhos", "geom:1:2:8"),
    ("sweep", "--penalty", "linf", "--rhos", "0,1,4", "--ascent-iters", "2"),
    ("rho", "--penalty", "linf", "--method", "dual-linf", "--verify"),
    ("rho", "--penalty", "l1", "--method", "norm:l1"),
    ("rho", "--penalty", "linf", "--method", "sufficient"),
)


@st.composite
def _small_configs(draw):
    n1 = draw(st.integers(0, 1))
    return GenConfig(n1=n1, n2=draw(st.integers(1 - n1, 2)),
                     m=draw(st.integers(0, 1)), m2=draw(st.integers(0, 1)),
                     magnitude=draw(st.integers(1, 2)),
                     seed=draw(st.integers(0, 10 ** 6)),
                     require_feasible=draw(st.booleans()))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(cfg=_small_configs())
# the ground truth of an unbounded instance once raised an infeasibility
# error: check exited 2 and every other command 3
@example(cfg=GenConfig(n1=1, n2=1, m=0, m2=0, magnitude=1, seed=267613,
                       require_feasible=False))
def test_cli_exit_codes_on_generated_instances(cfg, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("gen") / "inst.json")
    write_instance(generate(cfg), path)
    codes = []
    for cmd in CLI_COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            codes.append(main([cmd[0], "--instance", path, *cmd[1:]]))
        assert codes[-1] in (0, 2, 3), (cmd, err.getvalue())
    if codes[0]:
        assert set(codes) == {codes[0]}, codes
