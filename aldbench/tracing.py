"""Spans around the public functions of every aldual layer, from outside.

Only the traced run installs the wrappers.  A wrapper replaces the function
at every module binding that holds it (``solve_lp`` is bound in both
``convexsolve`` and ``ald``, ``check_boundedness`` in ``convexsolve`` and
``cli``), so calls between layers are seen as well as calls from the
benchmark.  Spans stay in memory as tuples

    (name id, start, end, parent span, op id, status, bits)

and are written out when the benchmark ends.  ``status`` and ``bits`` are
filled for the solvers only: the report status and the largest
numerator-plus-denominator bit length in the report.  The time spent
measuring ``bits`` is charged to no span.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# layer module -> public functions wrapped in it
TRACED = {
    "numkit": ("solve_linear", "nullspace_basis", "ldl_psd_check"),
    "convexsolve": ("solve_lp", "solve_qp", "check_boundedness"),
    "penalty": ("epigraph_rows",),
    "ald": ("integer_box", "solve_ip", "lambda_bar", "eval_lr_plus",
            "dual_ascent"),
    "exactrho": ("certify", "rho_sufficient", "rho_dual_linf",
                 "certificate_for_norm", "rho_bisect_empirical"),
    "instance": ("generate", "validate", "read_instance"),
    "cli": ("main",),
}

_SOLVERS = ("convexsolve.solve_lp", "convexsolve.solve_qp")

# Callers whose LP/QP calls are slice subproblems (one per integer
# assignment); solver calls under integer_box, lambda_bar, solve_qp or
# check_boundedness are not.
_SLICE_LOOPS = ("ald.solve_ip", "ald.eval_lr_plus", "exactrho.rho_sufficient",
                "exactrho.rho_dual_linf")

SETUP_OP = -1


def _bits(value) -> int:
    return abs(value.numerator).bit_length() + value.denominator.bit_length()


def report_bits(report) -> int:
    """Largest numerator-plus-denominator bit length in a SolveReport."""
    best = 0 if report.value is None else _bits(report.value)
    for vec in (report.x, report.eq_duals, report.ineq_duals, report.ray):
        if vec is not None:
            for v in vec:
                b = _bits(v)
                if b > best:
                    best = b
    return best


class Tracer:
    """Span recorder; ``op`` is the id stamped on every span opened next."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        # span id -> tracer bookkeeping time spent while that span was open
        self.paused: dict[int, float] = {}
        self._undo: list = []

    def install(self, modules: dict) -> None:
        """Wrap each TRACED function wherever a module in ``modules`` binds it."""
        for home, fnames in TRACED.items():
            for fname in fnames:
                orig = getattr(modules[home], fname)
                wrapper = self._wrap(f"{home}.{fname}", orig)
                for mod in modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, paused = self.spans, self.stack, self.paused
        is_solver = name in _SOLVERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (nid, t0, perf_counter(), parent, self.op,
                              "raised", 0)
                stack.pop()
                raise
            t1 = perf_counter()
            stack.pop()
            if is_solver:
                spans[sid] = (nid, t0, t1, parent, self.op, result.status,
                              report_bits(result))
                if parent >= 0:  # bit counting is not the parent's work
                    paused[parent] = paused.get(parent, 0.0) + perf_counter() - t1
            else:
                spans[sid] = (nid, t0, t1, parent, self.op, None, 0)
            return result

        return traced

    def layer_metrics(self, first_op: int, end_op: int,
                      instances: int) -> dict[str, float]:
        """Per-layer figures over the spans of ops ``first_op <= op < end_op``.

        ``*.calls`` count spans, ``*.s`` sum span time, ``*.self_s`` sum
        span time minus the time covered by child spans.
        """
        spans, names, paused = self.spans, self.names, self.paused
        child = [0.0] * len(spans)
        for sid, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        extra = {
            "convexsolve.solve_lp.infeasible": 0,
            "convexsolve.solve_qp.infeasible": 0,
            "convexsolve.solve_lp.in_qp.calls": 0,
            "convexsolve.solve_lp.in_qp.self_s": 0.0,
            "convexsolve.kkt_checked": 0,
            "convexsolve.max_bits": 0,
            "ald.slice_solves": 0,
            "exactrho.rho_dual_linf.slice_solves": 0,
            "exactrho.rho_bisect_empirical.evals": 0,
        }
        feasible_slices = 0
        for sid, (nid, t0, t1, parent, op, status, bits) in enumerate(spans):
            if not first_op <= op < end_op:
                continue
            name = names[nid]
            dur = t1 - t0
            own = dur - child[sid] - paused.get(sid, 0.0)
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + own
            pname = names[spans[parent][0]] if parent >= 0 else ""
            if name in _SOLVERS:
                if status == "infeasible":
                    extra[name + ".infeasible"] += 1
                if status == "optimal":
                    extra["convexsolve.kkt_checked"] += 1
                extra["convexsolve.max_bits"] = max(
                    extra["convexsolve.max_bits"], bits)
                if name == "convexsolve.solve_lp" and pname == "convexsolve.solve_qp":
                    extra["convexsolve.solve_lp.in_qp.calls"] += 1
                    extra["convexsolve.solve_lp.in_qp.self_s"] += own
                if pname in _SLICE_LOOPS:
                    extra["ald.slice_solves"] += 1
                    feasible_slices += status != "infeasible"
                    if pname == "exactrho.rho_dual_linf":
                        extra["exactrho.rho_dual_linf.slice_solves"] += 1
            elif name == "ald.eval_lr_plus" and pname == "exactrho.rho_bisect_empirical":
                extra["exactrho.rho_bisect_empirical.evals"] += 1

        def c(name):
            return calls.get(name, 0)

        def t(name):
            return total.get(name, 0.0)

        def s(name):
            return self_s.get(name, 0.0)

        out = {
            "numkit.solve_linear.calls": c("numkit.solve_linear"),
            "numkit.solve_linear.self_s": s("numkit.solve_linear"),
            "numkit.nullspace_basis.calls": c("numkit.nullspace_basis"),
            "numkit.nullspace_basis.self_s": s("numkit.nullspace_basis"),
            "numkit.ldl_psd_check.self_s": s("numkit.ldl_psd_check"),
            "convexsolve.solve_lp.calls": c("convexsolve.solve_lp"),
            "convexsolve.solve_lp.self_s": s("convexsolve.solve_lp"),
            "convexsolve.solve_qp.calls": c("convexsolve.solve_qp"),
            "convexsolve.solve_qp.self_s": s("convexsolve.solve_qp"),
            "convexsolve.check_boundedness.self_s": s("convexsolve.check_boundedness"),
            "penalty.epigraph_rows.self_s": s("penalty.epigraph_rows"),
            "ald.integer_box.calls": c("ald.integer_box"),
            "ald.integer_box.s": t("ald.integer_box"),
            "ald.integer_box.per_instance": c("ald.integer_box") / instances,
            "ald.slice_feasible_ratio": (feasible_slices / extra["ald.slice_solves"]
                                         if extra["ald.slice_solves"] else 0.0),
            "ald.eval_lr_plus.calls": c("ald.eval_lr_plus"),
            "ald.eval_lr_plus.self_s": s("ald.eval_lr_plus"),
            "ald.solve_ip.calls": c("ald.solve_ip"),
            "ald.solve_ip.s": t("ald.solve_ip"),
            "ald.solve_ip.per_instance": c("ald.solve_ip") / instances,
            "ald.lambda_bar.calls": c("ald.lambda_bar"),
            "ald.lambda_bar.s": t("ald.lambda_bar"),
            "ald.dual_ascent.s": t("ald.dual_ascent"),
            "exactrho.rho_dual_linf.s": t("exactrho.rho_dual_linf"),
            "exactrho.rho_sufficient.s": t("exactrho.rho_sufficient"),
            "exactrho.certificate_for_norm.s": t("exactrho.certificate_for_norm"),
            "exactrho.rho_bisect_empirical.s": t("exactrho.rho_bisect_empirical"),
            "exactrho.certify.calls": c("exactrho.certify"),
            "cli.main.self_s": s("cli.main"),
            "instance.read_instance.s": t("instance.read_instance"),
            "instance.validate.s": t("instance.validate"),
        }
        out.update(extra)
        return out

    def setup_seconds(self, name: str) -> float:
        """Summed span time of ``name`` during set-up."""
        nid = self.names.index(name)
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == nid and s[4] == SETUP_OP)

    def write(self, path: str) -> None:
        """All spans as JSON lines, times relative to the first span."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (nid, t0, t1, parent, op, status, bits) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": self.names[nid], "start": t0 - t_ref,
                    "end": t1 - t_ref, "parent": parent, "op": op,
                    "status": status, "bits": bits}) + "\n")
