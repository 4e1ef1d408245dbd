"""The three workloads: their seeded inputs, their operations and their checks.

An operation is one call into aldual's public API (or one in-process CLI
command).  A round is the whole operation list, one instance's operations
after another; the timed pass repeats whole rounds, so every round does the
same work and rounds differ only by the machine's noise.

Checks run after the timed pass and never inside it.  They return, per
operation key, what is wrong with its result; every attempt of a key with
a problem counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from aldual import ald, cli, exactrho, instance
from aldual.errors import DeltaZeroError
from aldual.exactrho import EmpiricalBound, RhoCertificate
from aldual.numkit import RatVec
from aldual.penalty import L1, LINF, SQL2, Penalty

from gen import Case, Stratum, draw_cases, screen
from oracle import Plain, psi

KINDS = (LINF, L1, SQL2)
RHOS = (Fraction(0), Fraction(1), Fraction(4))
BISECTION_WIDTH = Fraction(1, 1024)
DEFAULT_SEED = 0

STRATA = {
    # mixed-integer with nonzero Q11: every slice with a continuous part is
    # a QP; slice counts kept close so one operation's cost varies smoothly
    "relax-mixed": (
        Stratum(1, 2, 1, (0, 1), 1, q11_nonzero=True),
        Stratum(2, 2, 1, (0, 1), 1, q11_nonzero=True),
        Stratum(1, 2, 2, (0, 1), 1, q11_nonzero=True),
        Stratum(2, 1, 1, (0, 1), 2, q11_nonzero=True),
    ),
    # a positive classical gap, so the bisection has a weight to find:
    # one mixed-integer stratum (QP slices) and one pure-integer stratum
    "certify": (
        Stratum(1, 1, 1, (0, 1), 2, gap=True),
        Stratum(0, 2, 1, (0, 0), 1, gap=True),
    ),
    # mid-size pure-integer instances (25 slices; d1 has 49) whose
    # classical gap is zero, like d1's, so `rho --verify` costs the same
    "cli": (
        Stratum(0, 2, 1, (0, 0), 2, gap=False),
    ),
}

# instances drawn per stratum: a run covers many distinct instances, so
# that no single draw of a seed moves the figures, in two to four rounds
PER_STRATUM = {"relax-mixed": 12, "certify": 12, "cli": 16}

CLI_COMMANDS = (
    ("check",),
    ("solve",),
    ("sweep", "--penalty", "l1", "--rhos", "geom:1:2:8"),
    ("sweep", "--penalty", "linf", "--rhos", "0,1,4", "--ascent-iters", "2"),
    ("rho", "--penalty", "linf", "--method", "dual-linf", "--verify"),
    ("rho", "--penalty", "l1", "--method", "norm:l1"),
    ("rho", "--penalty", "linf", "--method", "sufficient"),
)

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


@dataclass(frozen=True)
class Refusal:
    """A documented typed refusal: an outcome, not a failure."""

    error: str
    message: str


@dataclass(frozen=True)
class Op:
    key: tuple
    case: int
    run: Callable[[dict], object]
    refusals: tuple = ()


@dataclass
class Workload:
    name: str
    seed: int
    cases: list[Case]
    ops: list[Op]
    check: Callable[["Workload", dict], dict]
    plains: list[Plain] = field(default_factory=list)

    def __post_init__(self):
        self.plains = [Plain(c.inst) for c in self.cases]


# ------------------------------------------------------------- relax-mixed

def _relax(inst, lam, rho, pen, results):
    return ald.eval_lr_plus(inst, lam, rho, pen)


def _relax_ops(cases: list[Case]) -> list[Op]:
    ops = []
    for i, case in enumerate(cases):
        inst, lam = case.inst, case.nlp.lambda_bar
        for kind in KINDS:
            pen = Penalty(kind, inst.m)
            for rho in RHOS:
                ops.append(Op((i, kind, rho), i, partial(_relax, inst, lam, rho, pen)))
    return ops


def check_relax(wl: Workload, results: dict) -> dict:
    """Weak-duality chain, violation bound, an independent recomputation of
    each value at its argmin, and monotonicity in rho."""
    problems: dict = {}
    series: dict = {}
    for key, rep in results.items():
        i, kind, rho = key
        case, plain = wl.cases[i], wl.plains[i]
        lam = list(case.nlp.lambda_bar)
        z_ip, z_nlp = case.z_ip, case.nlp.z_nlp
        if rep.unbounded:
            problems[key] = "relaxation reported unbounded"
            continue
        x = list(rep.argmin_x)
        if rep.value > z_ip:
            problems[key] = f"z_lr {rep.value} > z_ip {z_ip}"
        elif rep.value < z_nlp:
            problems[key] = f"z_lr {rep.value} < z_nlp {z_nlp}"
        elif not plain.in_domain(x):
            problems[key] = "argmin outside the mixed-integer set"
        elif plain.lagrangian(x, lam, rho, kind) != rep.value:
            problems[key] = "value differs from the objective at its argmin"
        elif psi(kind, plain.residual(x)) != rep.violation:
            problems[key] = "violation differs from psi(b - A x*)"
        elif rho > 0 and rep.violation > (z_ip - z_nlp) / rho:
            problems[key] = "violation bound psi <= (z_ip - z_nlp)/rho broken"
        series.setdefault((i, kind), []).append((rho, rep.value, key))
    for points in series.values():
        points.sort()
        for (_, a, _), (_, b, key) in zip(points, points[1:]):
            if b < a:
                problems.setdefault(key, "z_lr decreased as rho grew")
    return problems


# ----------------------------------------------------------------- certify

def _cert_dual(inst, results):
    return exactrho.rho_dual_linf(inst)


def _cert_sufficient(inst, pen, results):
    return exactrho.rho_sufficient(inst, pen)


def _cert_norm(inst, pen, i, results):
    return exactrho.certificate_for_norm(inst, pen, base=results[(i, "dual-linf")])


def _bisect(inst, lam, pen, i, cert_key, results):
    rho_max = max(results[(i, cert_key)].rho_star, Fraction(1))
    return exactrho.rho_bisect_empirical(inst, lam, pen, rho_max=rho_max)


def _certify_ops(cases: list[Case]) -> list[Op]:
    ops = []
    for i, case in enumerate(cases):
        inst, lam = case.inst, case.nlp.lambda_bar
        linf, l1 = Penalty(LINF, inst.m), Penalty(L1, inst.m)
        ops += [
            Op((i, "dual-linf"), i, partial(_cert_dual, inst)),
            Op((i, "sufficient"), i, partial(_cert_sufficient, inst, linf),
               (DeltaZeroError,)),
            Op((i, "norm-l1"), i, partial(_cert_norm, inst, l1, i)),
            Op((i, "bisect-linf"), i, partial(_bisect, inst, lam, linf, i, "dual-linf")),
            Op((i, "bisect-l1"), i, partial(_bisect, inst, lam, l1, i, "norm-l1")),
        ]
    return ops


def closes_gap(wl: Workload, i: int, lam, rho, kind: str) -> bool:
    """z_lr(lam, rho) == z_ip, by lattice scan where the instance allows
    it and otherwise by aldual's ``certify`` predicate."""
    case, plain = wl.cases[i], wl.plains[i]
    value = plain.lattice_min(list(lam), rho, kind)
    if value is not None:
        return value == case.z_ip
    return exactrho.certify(case.inst, RatVec(lam), rho, Penalty(kind, case.inst.m),
                            z_ip=case.z_ip)


_CERT_ROUTES = {"dual-linf": (LINF, "bisect-linf"),
                "sufficient": (LINF, "bisect-linf"),
                "norm-l1": (L1, "bisect-l1")}


def check_certify(wl: Workload, results: dict) -> dict:
    """Each certificate re-verified and dominating the bisection bound
    minus 2^-10; each achieved bisection bound re-verified."""
    problems: dict = {}
    for key, res in results.items():
        i, route = key
        lam_bar = wl.cases[i].nlp.lambda_bar
        if isinstance(res, Refusal):
            continue
        if isinstance(res, EmpiricalBound):
            kind = LINF if route == "bisect-linf" else L1
            if res.achieved and not closes_gap(wl, i, lam_bar, res.rho_min_upper, kind):
                problems[key] = "bisection bound does not close the gap"
            continue
        if not isinstance(res, RhoCertificate):
            problems[key] = f"unexpected result {type(res).__name__}"
            continue
        kind, bisect_key = _CERT_ROUTES[route]
        if res.lambda_used != lam_bar:
            problems[key] = "certificate is not at lambda_bar"
        elif not closes_gap(wl, i, res.lambda_used, res.rho_star, kind):
            problems[key] = f"rho* {res.rho_star} does not close the gap"
        else:
            bound = results.get((i, bisect_key))
            if isinstance(bound, EmpiricalBound) and \
                    res.rho_star < bound.rho_min_upper - BISECTION_WIDTH:
                problems[key] = (f"rho* {res.rho_star} below bisection bound "
                                 f"{bound.rho_min_upper} - 2^-10")
    return problems


# --------------------------------------------------------------------- cli

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``aldual.cli.main`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli(argv, results):
    return run_cli(argv)


def _cli_ops(cases: list[Case]) -> list[Op]:
    ops = []
    for i, case in enumerate(cases):
        for cmd in CLI_COMMANDS:
            argv = [cmd[0], "--instance", case.path, *cmd[1:]]
            ops.append(Op((case.label, " ".join(cmd)), i, partial(_cli, argv)))
    return ops


def golden_key(key: tuple) -> str:
    return f"{key[0]} | {key[1]}"


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def _check_sweep(text: str, cmd: tuple, z_ip: Fraction) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ald.SWEEP_CSV_HEADER.split(","):
        return "sweep header missing"
    spec = cmd[cmd.index("--rhos") + 1]
    expected = 8 if spec.startswith("geom:") else len(spec.split(","))
    if len(rows) - 1 != expected:
        return f"sweep has {len(rows) - 1} rows, expected {expected}"
    prev = None
    for rho, z_lr, z_ld, gap, _violation, _kappa in rows[1:]:
        z = Fraction(z_lr)
        if z > z_ip or Fraction(gap) != z_ip - z:
            return f"sweep row rho={rho}: z_lr {z_lr} gap {gap} vs z_ip {z_ip}"
        if z_ld and Fraction(z_ld) > z_ip:
            return f"sweep row rho={rho}: z_ld {z_ld} > z_ip"
        if prev is not None and z < prev:
            return f"sweep row rho={rho}: z_lr decreased"
        prev = z
    return None


def _check_cli_output(wl: Workload, key, res) -> str | None:
    code, out, err = res
    label, cmdline = key
    cmd = tuple(cmdline.split())
    i = next(j for j, c in enumerate(wl.cases) if c.label == label)
    case = wl.cases[i]
    if code == 2 and cmd[-1] == "sufficient" and err.startswith("assumption violation"):
        return None  # DeltaZeroError: a documented refusal
    if code != 0:
        return f"exit {code}: {err.strip()}"
    if cmd[0] == "check":
        doc = json.loads(out)
        if doc["ok"] is not True or Fraction(doc["z_ip"]) != case.z_ip:
            return "check disagrees with the screened z_ip"
    elif cmd[0] == "solve":
        doc = json.loads(out)
        if Fraction(doc["z_ip"]) != case.z_ip or Fraction(doc["z_nlp"]) != case.nlp.z_nlp:
            return "solve disagrees with solve_ip / lambda_bar"
    elif cmd[0] == "sweep":
        return _check_sweep(out, cmd, case.z_ip)
    elif cmd[0] == "rho":
        doc = json.loads(out)
        kind = L1 if cmd[-1] == "norm:l1" else LINF
        lam = [Fraction(v) for v in doc["lambda_used"]]
        if not closes_gap(wl, i, lam, Fraction(doc["rho_star"]), kind):
            return f"rho* {doc['rho_star']} does not close the gap"
        emp = doc.get("empirical")
        if "--verify" in cmd and not (emp and emp["achieved"] and emp["dominates"]):
            return "--verify: certificate does not dominate the bisection bound"
    return None


def check_cli(wl: Workload, results: dict) -> dict:
    """Exit codes, the byte-identical golden contract (d1 on every seed,
    generated instances on the default seed) and the values printed."""
    goldens = load_goldens()
    problems: dict = {}
    for key, res in results.items():
        if key[0] == "d1" or wl.seed == DEFAULT_SEED:
            want = goldens.get(golden_key(key))
            if want is None:
                problems[key] = "no golden output recorded"
                continue
            if (res[0], res[1]) != (want["exit"], want["stdout"]):
                problems[key] = "stdout or exit code differs from the golden"
                continue
        try:
            msg = _check_cli_output(wl, key, res)
        except (ValueError, KeyError, TypeError) as exc:
            msg = f"unreadable output: {exc!r}"
        if msg:
            problems[key] = msg
    return problems


# ------------------------------------------------------------------- setup

def setup(name: str, seed: int, work_dir: str, root: str) -> Workload:
    """Draw, screen and write the instances and build the operation list."""
    cases = draw_cases(name, seed, STRATA[name], PER_STRATUM[name], work_dir)
    if name == "cli":
        d1_path = os.path.join(root, "instances", "d1.json")
        d1 = screen("d1", None, instance.read_instance(d1_path), d1_path)
        if d1 is None:
            raise RuntimeError("instances/d1.json failed screening")
        cases = [d1] + cases
        ops, check = _cli_ops(cases), check_cli
    elif name == "certify":
        ops, check = _certify_ops(cases), check_certify
    else:
        ops, check = _relax_ops(cases), check_relax
    return Workload(name, seed, cases, ops, check)
