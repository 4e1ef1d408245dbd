"""Command-line front end.

Commands: check, solve, sweep, rho, gen.  All numeric output is rendered
as exact ``p/q`` strings; re-parsing any output reproduces the values.

Exit codes: 0 success; 1 input error; 2 assumption violation (unbounded
where boundedness is required, or an unbounded integer variable);
3 problem infeasible; 4 internal invariant breach, which is any other
failure and so a bug.  ``main`` maps an error to its code by its category
in ``errors`` (``InputError``, ``AssumptionError``, ``InfeasibleError``),
never by its name, so a new error class needs no edit here; an
``OSError`` is an input error, and every other exception is internal.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import ald, exactrho, instance as inst_mod, penalty as pen_mod
from .convexsolve import INFEASIBLE, UNBOUNDED, check_boundedness
from .errors import (AldualError, AssumptionError, InfeasibleError,
                     InputError, ParseError, RationalParseError,
                     UnboundedIntegerVarError)
from .numkit import RatVec, parse_rat, to_wire

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ASSUMPTION = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


class UsageError(InputError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; our contract is 1
        raise UsageError(message)


def parse_rho_schedule(spec: str) -> list[Fraction]:
    """``geom:start:factor:count`` or a comma-separated explicit list."""
    if spec.startswith("geom:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise UsageError(f"bad geometric schedule {spec!r}")
        try:
            start, factor = parse_rat(parts[1]), parse_rat(parts[2])
            count = int(parts[3])
        except ValueError as exc:
            raise UsageError(f"bad geometric schedule {spec!r}: {exc}") from exc
        if count < 1 or start < 0 or factor <= 1:
            raise UsageError("geometric schedule needs count>=1, start>=0, factor>1")
        out = []
        cur = start
        for _ in range(count):
            out.append(cur)
            cur = cur * factor
    else:
        try:
            out = [parse_rat(tok) for tok in spec.split(",") if tok]
        except RationalParseError as exc:
            raise UsageError(str(exc)) from exc
    if not out:
        raise UsageError("empty rho schedule")
    if any(r < 0 for r in out) or any(a >= b for a, b in zip(out, out[1:])):
        raise UsageError("rho schedule must be nonnegative and strictly increasing")
    return out


def _load_instance(path):
    inst = inst_mod.read_instance(path)
    violations = inst_mod.validate(inst)
    if violations:
        raise ParseError(
            "; ".join(f"{v.code}: {v.message}" for v in violations)
        )
    return inst


def _resolve_lambda(source: str, inst) -> RatVec:
    if source == "bar":
        return ald.lambda_bar(inst).lambda_bar
    if source == "zeros":
        return RatVec.zeros(inst.m)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ParseError(str(exc)) from exc
    if not isinstance(data, list):
        raise ParseError("multiplier file must be a JSON list of p/q strings")
    vec = RatVec(parse_rat(s) for s in data)
    if len(vec) != inst.m:
        raise ParseError(f"multiplier dim {len(vec)} vs {inst.m} rows")
    return vec


def _emit(doc: dict, out_path) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_check(args) -> int:
    inst = inst_mod.read_instance(args.instance)
    violations = inst_mod.validate(inst)
    if violations:
        _emit({"ok": False, "violations": to_wire(violations)}, args.out)
        return EXIT_INPUT
    bound = check_boundedness(inst)
    if not bound.nlp_bounded:
        _emit({"ok": False, **bound.to_json_dict()}, args.out)
        return EXIT_ASSUMPTION
    try:
        box = ald.integer_box(inst)
    except UnboundedIntegerVarError as exc:
        _emit({"ok": False, "unbounded_integer_var": exc.index}, args.out)
        return EXIT_ASSUMPTION
    ip = ald.solve_ip(inst)
    if ip.status == INFEASIBLE:
        _emit({"ok": False, "feasible": False}, args.out)
        return EXIT_INFEASIBLE
    if ip.status == UNBOUNDED:
        _emit({"ok": False, "nlp_bounded": True, "ip_bounded": False,
               "ray": to_wire(ip.ray)}, args.out)
        return EXIT_ASSUMPTION
    doc = {
        "ok": True,
        "feasible": True,
        **bound.to_json_dict(),
        "integer_box": to_wire(box),
        "z_ip": to_wire(ip.value),
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    bound = check_boundedness(inst)
    if not bound.nlp_bounded:
        _emit({"status": "unbounded", "descent_ray": to_wire(bound.ray)}, args.out)
        return EXIT_ASSUMPTION
    ip = ald.solve_ip(inst)
    if ip.status == INFEASIBLE:
        _emit({"status": "infeasible"}, args.out)
        return EXIT_INFEASIBLE
    if ip.status == UNBOUNDED:
        _emit({"status": "unbounded", "ray": to_wire(ip.ray)}, args.out)
        return EXIT_ASSUMPTION
    duals = ald.lambda_bar(inst)
    pen = pen_mod.Penalty(pen_mod.LINF, inst.m)
    rep0 = ald.eval_lr_plus(inst, duals.lambda_bar, 0, pen)
    gap0 = None if rep0.unbounded else ip.value - rep0.value
    doc = {
        "status": "optimal",
        "z_ip": to_wire(ip.value),
        "argmin": to_wire(ip.x),
        "z_nlp": to_wire(duals.z_nlp),
        "lambda_bar": to_wire(duals.lambda_bar),
        "lambda_E": to_wire(duals.lambda_E),
        "classical_gap": "inf" if gap0 is None else to_wire(gap0),
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    inst = _load_instance(args.instance)
    pen = pen_mod.parse_penalty(args.penalty, inst.m)
    rhos = parse_rho_schedule(args.rhos)
    if args.ascent_iters < 0:
        raise UsageError("--ascent-iters must be nonnegative")
    lam = None if args.lam == "bar" else _resolve_lambda(args.lam, inst)
    # the sweep's checks and ground truth run here, before any output
    stream = ald.stream_gap_sweep(inst, pen, rhos, lam=lam,
                                  ascent_iters=args.ascent_iters)
    rows = []
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        if args.format == "csv":
            print(ald.SWEEP_CSV_HEADER, file=sink, flush=sink is sys.stdout)
        for row in stream:
            rows.append(row)
            if args.format == "csv":
                print(ald.sweep_row_csv(row), file=sink,
                      flush=sink is sys.stdout)
        if args.format == "json":
            json.dump([ald.sweep_row_json(r) for r in rows], sink, indent=1)
            sink.write("\n")
    finally:
        if sink is not sys.stdout:
            sink.close()
    return EXIT_OK


def cmd_rho(args) -> int:
    inst = _load_instance(args.instance)
    method = args.method
    if method.startswith("norm:"):  # norm:KIND names the conversion target
        args.penalty = method[len("norm:"):]
        method = "norm"
    pen = pen_mod.parse_penalty(args.penalty, inst.m)
    if args.verify and not pen.is_norm:
        raise UsageError("--verify needs a norm penalty (linf, l1 or slinf)")
    if method != "shift" and args.lam != "bar":
        raise UsageError(f"--lambda is read by method shift only; {method} "
                         "uses lambda_bar")
    if method == "dual-linf":
        if pen.kind != pen_mod.LINF:
            raise UsageError("method dual-linf requires --penalty linf")
        cert = exactrho.rho_dual_linf(inst)
    elif method == "sufficient":
        cert = exactrho.rho_sufficient(inst, pen)
    elif method == "norm":
        if not pen.is_norm:
            raise UsageError("norm conversion needs a norm penalty")
        cert = exactrho.certificate_for_norm(inst, pen)
    elif method == "shift":
        if not pen.is_norm:
            raise UsageError("multiplier shift needs a norm penalty")
        lam = _resolve_lambda(args.lam, inst)
        cert = exactrho.certificate_for_lambda(inst, pen, lam)
    else:
        raise UsageError(f"unknown method {method!r}")
    doc = cert.to_json_dict()
    if args.verify:
        bound = exactrho.rho_bisect_empirical(
            inst, cert.lambda_used, pen, rho_max=max(cert.rho_star, Fraction(1)))
        lowest = bound.rho_min_upper - exactrho.EMPIRICAL_WIDTH
        doc["empirical"] = {**to_wire(bound),
                            "dominates": cert.rho_star >= lowest}
    _emit(doc, args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        cfg = inst_mod.GenConfig(
            n1=args.n1, n2=args.n2, m=args.m, m2=args.m2,
            magnitude=args.magnitude, seed=args.seed,
            require_feasible=args.feasible,
        )
    except ValueError as exc:  # a count or magnitude out of range
        raise InputError(str(exc)) from exc
    inst = inst_mod.generate(cfg)
    inst_mod.write_instance(inst, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared: parsing
    leaves it unchanged, and each ``main`` call parses into a fresh
    namespace."""
    parser = _Parser(prog="aldual",
                     description="Exact duality toolkit for mixed integer QP")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, penalty=False, rhos=False, lam=False):
        p.add_argument("--instance", required=True, help="instance JSON path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if penalty:
            p.add_argument("--penalty", required=True,
                           help="linf | l1 | sql2 | slinf:p/q")
        if rhos:
            p.add_argument("--rhos", required=True,
                           help="geom:start:factor:count or explicit list")
        if lam:
            p.add_argument("--lambda", dest="lam", default="bar",
                           help="bar | zeros | FILE (JSON list of p/q)")

    p_check = sub.add_parser("check", help="validate and test assumptions")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="ground truth, relaxation, multipliers")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="gap sweep over penalty weights")
    add_common(p_sweep, penalty=True, rhos=True, lam=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--ascent-iters", type=int, default=0,
                         help="fill z_ld by dual ascent with this many steps")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rho = sub.add_parser("rho", help="exact penalty weight certificates")
    add_common(p_rho, penalty=True, lam=True)
    p_rho.add_argument("--method", required=True,
                       help="sufficient | dual-linf | norm[:KIND] | shift")
    p_rho.add_argument("--verify", action="store_true",
                       help="cross-check against the empirical bisection oracle")
    p_rho.set_defaults(func=cmd_rho)

    p_gen = sub.add_parser("gen", help="write a random instance")
    p_gen.add_argument("--n1", type=int, required=True)
    p_gen.add_argument("--n2", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--m2", type=int, default=0,
                       help="extra random inequality rows beyond the boxes")
    p_gen.add_argument("--magnitude", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--feasible", action="store_true", default=True)
    p_gen.add_argument("--no-feasible", dest="feasible", action="store_false")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssumptionError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # a bug; an untyped one is named, as no traceback shows
        name = "" if isinstance(exc, AldualError) else f"{type(exc).__name__}: "
        print(f"internal invariant breach: {name}{exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
