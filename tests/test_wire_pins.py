"""Byte-for-byte pins of output that ``aldbench/goldens.json`` does not cover.

Each case runs ``aldual.cli.main`` on one argv (or, for the empirical
certificate, builds the document through the API) and compares its exit
code, stdout, stderr and any written file with the text recorded in
``tests/wire_pins.json``.  To record the pins again, only when a change
alters the output on purpose and says so::

    PYTHONPATH=src python tests/test_wire_pins.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from aldual import ald
from aldual.cli import main
from aldual.exactrho import certificate_empirical
from aldual.instance import read_instance
from aldual.numkit import RatVec
from aldual.penalty import parse_penalty

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().parent / "wire_pins.json"
D1 = str(ROOT / "instances" / "d1.json")

# Q indefinite: validation reports a NOT_PSD violation with a witness
NON_PSD = {"n1": 1, "n2": 1, "Q": [["1", "2"], ["2", "1"]], "c": ["0", "0"],
           "A": [], "b": [], "E": [["0", "1"], ["0", "-1"]], "f": ["1", "1"]}
# c has the wrong dimension: a DIM violation without a witness
BAD_DIM = {"n1": 0, "n2": 1, "Q": [["1"]], "c": ["0", "0"],
           "A": [], "b": [], "E": [], "f": []}
# min -x1 - x2/2 over x1 >= 0, x2 >= 0: unbounded relaxation
UNBOUNDED = {"n1": 1, "n2": 1, "Q": [["0", "0"], ["0", "0"]],
             "c": ["-1", "-1/2"], "A": [], "b": [],
             "E": [["-1", "0"], ["0", "-1"]], "f": ["0", "0"]}
# min 1/2 x^2 is bounded, but no row bounds the integer variable
FREE_INTEGER = {"n1": 0, "n2": 1, "Q": [["1"]], "c": ["0"],
                "A": [], "b": [], "E": [], "f": []}
# d1 with x1 + x2 = 1/2: no integer point
INFEASIBLE = {**json.loads(Path(D1).read_text(encoding="utf-8")), "b": ["1/2"]}
# x1 continuous and free, x1 + x2 = 0, |x2| <= 2: at lambda = (1) the
# classical relaxation is unbounded below, a penalty of weight >= 1 bounds it
FREE_CONTINUOUS = {"n1": 1, "n2": 1, "Q": [["0", "0"], ["0", "1"]],
                   "c": ["0", "1/3"], "A": [["1", "1"]], "b": ["0"],
                   "E": [["0", "1"], ["0", "-1"]], "f": ["2", "2"]}
# n1 = 1, n2 = 2 under x1 >= 0, 0 <= y <= 2 and x1 + y1 + y2 <= 2: three of
# the nine box points have an empty slice
COUPLED = {"n1": 1, "n2": 2,
           "Q": [["2", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]],
           "c": ["-1", "1", "-1"], "A": [["1", "-1", "1"]], "b": ["1"],
           "E": [["-1", "0", "0"], ["1", "1", "1"], ["0", "-1", "0"],
                 ["0", "0", "-1"], ["0", "1", "0"], ["0", "0", "1"]],
           "f": ["0", "2", "0", "0", "2", "2"]}
# the same rows with Q11 = 0: every slice is an LP
COUPLED_LP = {**COUPLED,
              "Q": [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
MIXED_GEN = ["--n1", "1", "--n2", "1", "--m", "1", "--m2", "1",
             "--magnitude", "2", "--seed", "41"]

# name -> (instance document or None for d1, argv after the command's
# --instance); "{lam}" names a file holding the multipliers ["1"],
# "{out}" a fresh output path whose text is pinned too
CASES = {
    "d1 sweep linf json ascent": (None, [
        "sweep", "--penalty", "linf", "--rhos", "0,1,4", "--format", "json",
        "--ascent-iters", "2"]),
    "d1 sweep sql2 json ascent": (None, [
        "sweep", "--penalty", "sql2", "--rhos", "0,1/2,2", "--format", "json",
        "--ascent-iters", "2"]),
    "d1 sweep slinf json to file": (None, [
        "sweep", "--penalty", "slinf:3/2", "--rhos", "0,1/3", "--format",
        "json", "--out", "{out}"]),
    "d1 rho linf shift zeros": (None, [
        "rho", "--penalty", "linf", "--method", "shift", "--lambda", "zeros"]),
    "d1 rho l1 shift zeros verify": (None, [
        "rho", "--penalty", "l1", "--method", "shift", "--lambda", "zeros",
        "--verify"]),
    "d1 rho sql2 sufficient": (None, [
        "rho", "--penalty", "sql2", "--method", "sufficient"]),
    "d1 rho slinf norm to file": (None, [
        "rho", "--penalty", "slinf:2", "--method", "norm", "--out", "{out}"]),
    "non-psd check": (NON_PSD, ["check"]),
    "bad-dim check": (BAD_DIM, ["check"]),
    "unbounded check": (UNBOUNDED, ["check"]),
    "unbounded solve": (UNBOUNDED, ["solve"]),
    "free-integer check": (FREE_INTEGER, ["check"]),
    "infeasible check": (INFEASIBLE, ["check"]),
    "infeasible solve": (INFEASIBLE, ["solve"]),
    "free-continuous sweep csv": (FREE_CONTINUOUS, [
        "sweep", "--penalty", "linf", "--rhos", "0,1/2,1,3",
        "--lambda", "{lam}"]),
    "free-continuous sweep json": (FREE_CONTINUOUS, [
        "sweep", "--penalty", "l1", "--rhos", "0,1,3", "--format", "json",
        "--lambda", "{lam}"]),
    "free-continuous solve": (FREE_CONTINUOUS, ["solve"]),
    "gen mixed": ("gen", ["gen", *MIXED_GEN, "--out", "{out}"]),
    "mixed check": ("mixed", ["check"]),
    "mixed solve": ("mixed", ["solve"]),
    "mixed rho dual-linf": ("mixed", [
        "rho", "--penalty", "linf", "--method", "dual-linf"]),
}
for _name, _doc in (("coupled", COUPLED), ("coupled-lp", COUPLED_LP)):
    CASES.update({
        f"{_name} rho dual-linf verify": (_doc, [
            "rho", "--penalty", "linf", "--method", "dual-linf", "--verify"]),
        f"{_name} sweep l1": (_doc, [
            "sweep", "--penalty", "l1", "--rhos", "0,1,4"]),
        f"{_name} solve": (_doc, ["solve"]),
    })


def _run_cli(source, argv, tmp: Path) -> dict:
    out_path = tmp / "out.txt"
    lam_path = tmp / "lam.json"
    lam_path.write_text('["1"]', encoding="utf-8")
    argv = [str(out_path) if a == "{out}" else str(lam_path) if a == "{lam}"
            else a for a in argv]
    if source == "mixed":
        path = tmp / "mixed.json"
        assert main(["gen", *MIXED_GEN, "--out", str(path)]) == 0
        argv = [argv[0], "--instance", str(path), *argv[1:]]
    elif source != "gen":
        path = D1
        if source is not None:
            path = tmp / "instance.json"
            path.write_text(json.dumps(source), encoding="utf-8")
        argv = [argv[0], "--instance", str(path), *argv[1:]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    result = {"exit": code, "stdout": stdout.getvalue(),
              "stderr": stderr.getvalue()}
    if out_path.exists():
        result["file"] = out_path.read_text(encoding="utf-8")
    return result


def _empirical() -> dict:
    inst = read_instance(D1)
    docs = [certificate_empirical(inst, ald.lambda_bar(inst).lambda_bar,
                                  parse_penalty("linf", 1), 4).to_json_dict(),
            certificate_empirical(inst, RatVec(["-1/3"]),
                                  parse_penalty("l1", 1), 4).to_json_dict()]
    return {"stdout": json.dumps(docs, indent=1, sort_keys=True)}


def render(name: str, tmp: Path) -> dict:
    if name == "empirical certificates":
        return _empirical()
    return _run_cli(*CASES[name], tmp)


NAMES = [*CASES, "empirical certificates"]


def _pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_pin(name, tmp_path):
    assert render(name, tmp_path) == _pins()[name]


def test_every_pin_has_a_case():
    assert sorted(_pins()) == sorted(NAMES)


if __name__ == "__main__":
    recorded = {}
    for case in NAMES:
        with tempfile.TemporaryDirectory() as tmpdir:
            recorded[case] = render(case, Path(tmpdir))
    PINS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"recorded {len(recorded)} pins in {PINS}", file=sys.stderr)
