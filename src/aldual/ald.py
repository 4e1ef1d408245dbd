"""Duality machinery: enumeration oracle, penalized relaxations, sweeps.

The integer variables are always enumerated over a box implied by the
linear set (computed by LP), so the ground-truth mixed integer value and
every penalized relaxation value are exact minima over finitely many
convex subproblems.  One table per instance lists the nonempty slices
E1 x1 <= f - E2 x2 with a point of each (a slice's set does not depend on
the objective): checked directly when n1 = 0, where each subproblem is
that point, evaluated with no solver; else found by one LP per box point.
An empty slice takes no solve, and QP slices start at the table's point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import penalty as pen_mod
from .convexsolve import (
    INFEASIBLE,
    LinearProgram,
    OPTIMAL,
    QuadraticProgram,
    SolveReport,
    UNBOUNDED,
    solve_lp,
    solve_qp,
)
from .errors import (
    DimMismatchError,
    InfeasibleDomainError,
    InternalInvariantError,
    NlpInfeasibleError,
    NlpUnboundedError,
    UnboundedIntegerVarError,
)
from .instance import MiqpInstance
from .numkit import RatMat, RatVec, ceil_rat, floor_rat, rat, to_wire

_ZERO = Fraction(0)


def _per_instance(fn):
    """Compute ``fn(inst)`` once per instance object, kept in its ``__dict__``
    outside the dataclass fields (equality, hashing and ``replace`` ignore
    it); a call that raises stores nothing.  Results are shared: immutable."""
    key = "_" + fn.__name__

    @functools.wraps(fn)
    def once(inst: MiqpInstance):
        facts = vars(inst)
        if key not in facts:
            facts[key] = fn(inst)
        return facts[key]

    return once


@dataclass(frozen=True)
class IntegerBox:
    """Componentwise bounds on the integer variables, implied by E x <= f."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    @staticmethod
    def empty(n2: int) -> "IntegerBox":
        return IntegerBox((0,) * n2, (-1,) * n2)

    def size(self) -> int:
        total = 1
        for lo, hi in zip(self.lower, self.upper):
            total *= max(0, hi - lo + 1)
        return total

    def assignments(self):
        """Integer points in lexicographic order (empty tuple when n2 = 0)."""
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.lower, self.upper)]
        return itertools.product(*ranges)


@_per_instance
def integer_box(inst: MiqpInstance) -> IntegerBox:
    """ceil/floor of the LP min/max of each integer coordinate over Ex <= f."""
    lower, upper = [], []
    for j in range(inst.n2):
        col = inst.n1 + j
        obj = RatVec.unit(inst.n, col)
        lo_rep = solve_lp(LinearProgram(obj, RatMat([], cols=inst.n), RatVec([]),
                                        inst.E, inst.f))
        if lo_rep.status == INFEASIBLE:
            return IntegerBox.empty(inst.n2)
        if lo_rep.status == UNBOUNDED:
            raise UnboundedIntegerVarError(j)
        hi_rep = solve_lp(LinearProgram(-obj, RatMat([], cols=inst.n), RatVec([]),
                                        inst.E, inst.f))
        if hi_rep.status == UNBOUNDED:
            raise UnboundedIntegerVarError(j)
        lower.append(ceil_rat(lo_rep.value))
        upper.append(floor_rat(-hi_rep.value))
    return IntegerBox(tuple(lower), tuple(upper))


def relaxation_program(inst: MiqpInstance) -> QuadraticProgram:
    """The continuous relaxation (integrality dropped)."""
    return QuadraticProgram(inst.Q, inst.c, inst.A, inst.b, inst.E, inst.f)


@dataclass(frozen=True)
class NlpDuals:
    """Optimal multipliers of the continuous relaxation."""

    lambda_bar: RatVec
    lambda_E: RatVec
    z_nlp: Fraction
    x: RatVec


@_per_instance
def lambda_bar(inst: MiqpInstance) -> NlpDuals:
    rep = solve_qp(relaxation_program(inst))
    if rep.status == INFEASIBLE:
        raise NlpInfeasibleError("continuous relaxation is infeasible")
    if rep.status == UNBOUNDED:
        raise NlpUnboundedError("continuous relaxation is unbounded")
    return NlpDuals(rep.eq_duals, rep.ineq_duals, rep.value, rep.x)


@_per_instance
def _slices(inst: MiqpInstance) -> tuple:
    """The nonempty slices E1 x1 <= f - E2 x2 of the integer box, in
    lexicographic order, one ``(x2, x2 as a vector, r2 = b - A2 x2, x1)``
    row each.  x1 is a point of the slice: the empty vector when n1 = 0,
    where E x2 <= f is checked directly, else from one zero-objective LP."""
    E1, E2 = inst.split_cols(inst.E)
    A2 = inst.split_cols(inst.A)[1]
    zero, no_rows = RatVec.zeros(inst.n1), RatMat([], cols=inst.n1)
    table = []
    for x2 in integer_box(inst).assignments():
        x2v = RatVec(x2)
        rhs = inst.f - E2.matvec(x2v)
        if inst.n1 == 0:
            if any(v < 0 for v in rhs):
                continue
            x1 = zero
        else:
            rep = solve_lp(LinearProgram(zero, no_rows, RatVec([]), E1, rhs))
            if rep.status == INFEASIBLE:
                continue
            x1 = rep.x
        table.append((x2, x2v, inst.b - A2.matvec(x2v), x1))
    return tuple(table)


class _SliceSolver:
    """Per-assignment continuous subproblems for a fixed objective shape.

    The quadratic/linear data live over the full variable vector (plus,
    when a norm penalty is given, its epigraph's auxiliary columns, the
    last of which, w, costs ``w_weight``); fixing the integer part x2
    leaves each constraint matrix unchanged and moves only the right-hand
    sides and the objective, exactly.  Without continuous variables a
    slice is the point x2 itself: ``row_minimum`` evaluates it in closed
    form (w at its minimum is the penalty of the residual).  ``scan`` walks
    the ``_slices`` table, QP slices started at its x1, but ``solve_ip``'s
    mixed slices (the table lacks the A rows) walk the raw box cold.
    """

    def __init__(self, inst: MiqpInstance, Qfull: RatMat, cfull: RatVec,
                 const: Fraction, pen: pen_mod.Penalty | None = None,
                 w_weight: Fraction = _ZERO, include_eq: bool = False):
        self.inst = inst
        self.pen, self.w_weight, self.include_eq = pen, w_weight, include_eq
        n1, n = inst.n1, inst.n
        enc = pen_mod.epigraph_rows(pen, inst.A, inst.b) if pen is not None else None
        n_aux = enc.n_aux if enc is not None else 0
        idx1, idx2 = list(range(n1)), list(range(n1, n))
        self.Q12 = Qfull.submatrix(idx1, idx2)
        self.Q22 = Qfull.submatrix(idx2, idx2)
        self.c1 = cfull[:n1]
        self.c2 = cfull[n1:]
        self.const = const
        self.aux_cost = [_ZERO] * (n_aux - 1) + [w_weight] if n_aux else []
        width = n1 + n_aux
        self.Qsub = RatMat.vstack([
            RatMat.hstack([Qfull.submatrix(idx1, idx1), RatMat.zeros(n1, n_aux)]),
            RatMat.zeros(n_aux, width)], cols=width)
        self.quad_free = self.Qsub.is_zero()
        # rows over (x, aux): [E | 0] then the epigraph inequalities;
        # [A | 0] (solve_ip only) then the epigraph equalities
        ineq = [RatMat.hstack([inst.E, RatMat.zeros(inst.m2, n_aux)])]
        ineq_rhs = list(inst.f)
        eq = [RatMat.hstack([inst.A, RatMat.zeros(inst.m, n_aux)])] if include_eq \
            else []
        eq_rhs = list(inst.b) if include_eq else []
        if enc is not None:
            ineq.append(enc.ineq_lhs)
            ineq_rhs += enc.ineq_rhs
            eq.append(enc.eq_lhs)
            eq_rhs += enc.eq_rhs

        def split(parts):
            M = RatMat.vstack(parts, cols=n + n_aux)
            return (RatMat.hstack([M.col_block(0, n1), M.col_block(n, n + n_aux)]),
                    M.col_block(n1, n))

        # the block matrices are x2-independent; base - X2 x2 is the rhs
        self.ineq_mat, self.ineq_x2 = split(ineq)
        self.eq_mat, self.eq_x2 = split(eq)
        self.ineq_base, self.eq_base = RatVec(ineq_rhs), RatVec(eq_rhs)

    def _fixed_part(self, x2v: RatVec) -> Fraction:
        """The objective's x2-only terms: const + c2.x2 + 1/2 x2^T Q22 x2."""
        return self.const + self.c2.dot(x2v) + x2v.dot(self.Q22.matvec(x2v)) / 2

    def solve(self, x2: tuple[int, ...],
              x1: RatVec | None = None) -> tuple[SolveReport, Fraction]:
        """Returns the block report and the x2-dependent constant term.

        ``x1``, a point of the slice's rows E1 x1 <= f - E2 x2, starts a QP
        slice there, its auxiliaries set by ``penalty.epigraph_start``;
        without it, or for an LP slice, the solve is cold."""
        x2v = RatVec(x2)
        lin = RatVec(list(self.c1 + self.Q12.matvec(x2v)) + self.aux_cost)
        ineq_rhs = self.ineq_base - self.ineq_x2.matvec(x2v)
        eq_rhs = self.eq_base - self.eq_x2.matvec(x2v)
        if self.quad_free:
            rep = solve_lp(LinearProgram(lin, self.eq_mat, eq_rhs,
                                         self.ineq_mat, ineq_rhs))
        else:
            start = x1
            if x1 is not None and self.pen is not None:
                resid = self.inst.b - self.inst.A.matvec(RatVec(list(x1) + list(x2)))
                start = RatVec(list(x1) + list(pen_mod.epigraph_start(self.pen, resid)))
            rep = solve_qp(QuadraticProgram(self.Qsub, lin, self.eq_mat, eq_rhs,
                                            self.ineq_mat, ineq_rhs), start)
        return rep, self._fixed_part(x2v)

    def slices(self) -> tuple:
        """The instance's nonempty slices: its ``_slices`` table."""
        return _slices(self.inst)

    def row_minimum(self, row: tuple) -> Fraction | None:
        """The minimum over one ``slices()`` row's slice, or None when it is
        unbounded below: a point slice (n1 = 0) in closed form, else one
        solve started at the row's x1.  The row's slice is nonempty, so a
        report of INFEASIBLE raises InternalInvariantError."""
        x2, x2v, resid, x1 = row
        if self.inst.n1 == 0:
            value = self._fixed_part(x2v)
            if self.pen is not None:
                value += self.w_weight * pen_mod.evaluate(self.pen, resid)
            return value
        rep, const = self.solve(x2, x1)
        if rep.status == INFEASIBLE:
            raise InternalInvariantError(f"table slice {x2} reported infeasible")
        return None if rep.status == UNBOUNDED else rep.value + const

    def scan(self):
        """Feasible slices of the integer box in lexicographic order.

        Yields ``(x2, report, value)`` where ``value`` is the slice minimum,
        or None when the slice is unbounded below; infeasible slices are
        skipped.  ``report`` is the slice's solver report, or None for a
        point slice (n1 = 0), whose value is computed directly.  The slices
        come from ``slices``, each QP slice started at its row's x1, except
        ``solve_ip``'s on a mixed instance, which solve each box point cold.
        """
        if self.inst.n1 == 0:
            for row in self.slices():
                x2, _, resid, _ = row
                if self.include_eq and not resid.is_zero():
                    continue
                yield x2, None, self.row_minimum(row)
            return
        if self.include_eq:
            slices = ((x2, None) for x2 in integer_box(self.inst).assignments())
        else:
            slices = ((x2, x1) for x2, _, _, x1 in self.slices())
        for x2, x1 in slices:
            rep, const = self.solve(x2, x1)
            if rep.status == INFEASIBLE:
                continue
            yield x2, rep, (None if rep.status == UNBOUNDED else rep.value + const)

    def lift(self, x2: tuple[int, ...], report: SolveReport | None) -> RatVec:
        """Full primal point (x1, x2) of a slice from ``scan``: x2 itself
        for a point slice, else from the block solution (x1, aux)."""
        if report is None:
            return RatVec(x2)
        return RatVec(list(report.x[: self.inst.n1]) + list(x2))


def penalized_slicer(inst: MiqpInstance, Q: RatMat, c: RatVec, const: Fraction,
                     pen: pen_mod.Penalty, rho: Fraction) -> _SliceSolver:
    """Slices of  min 1/2 x^T Q x + c^T x + const + rho * psi(b - Ax)
    over E x <= f: no penalty term at rho = 0 or without dualized rows
    (psi of an empty residual is 0), the penalty absorbed into the
    quadratic for sql2, epigraph rows on auxiliary columns otherwise."""
    if rho == 0 or inst.m == 0:
        return _SliceSolver(inst, Q, c, const)
    if pen.kind == pen_mod.SQL2:
        At = inst.A.transpose()
        return _SliceSolver(inst, Q + At.matmul(inst.A).scale(2 * rho),
                            c - At.matvec(inst.b).scale(2 * rho),
                            const + rho * inst.b.dot(inst.b))
    return _SliceSolver(inst, Q, c, const, pen, rho)


@_per_instance
def solve_ip(inst: MiqpInstance) -> SolveReport:
    """Ground-truth mixed integer optimum by exact enumeration.

    Ties between integer assignments are broken toward the
    lexicographically smallest one.
    """
    slicer = _SliceSolver(inst, inst.Q, inst.c, _ZERO, include_eq=True)
    best_val = None
    best_x = None
    for x2, rep, total in slicer.scan():
        if total is None:
            ray = RatVec(list(rep.ray[: inst.n1]) + [_ZERO] * inst.n2)
            return SolveReport(status=UNBOUNDED, x=slicer.lift(x2, rep), ray=ray)
        if best_val is None or total < best_val:
            best_val = total
            best_x = slicer.lift(x2, rep)
    if best_val is None:
        return SolveReport(status=INFEASIBLE)
    return SolveReport(status=OPTIMAL, value=best_val, x=best_x)


def ground_truth(inst: MiqpInstance) -> SolveReport:
    """solve_ip's report, which must be OPTIMAL (InfeasibleDomainError
    otherwise)."""
    ip = solve_ip(inst)
    if ip.status != OPTIMAL:
        raise InfeasibleDomainError(f"ground-truth solve is {ip.status}")
    return ip


@dataclass(frozen=True)
class RelaxReport:
    """Exact penalized-relaxation value and its witnessing point.

    ``unbounded`` marks the minus-infinity sentinel (possible for poorly
    chosen multipliers, reported as data rather than an error).
    """

    value: Fraction | None
    argmin_x: RatVec | None
    violation: Fraction | None
    assignment: tuple[int, ...] | None
    unbounded: bool = False


def eval_lr_plus(inst: MiqpInstance, lam: RatVec, rho,
                 pen: pen_mod.Penalty) -> RelaxReport:
    """Exact value of the penalized Lagrangian relaxation.

    Minimizes  c^T x + 1/2 x^T Q x + lam^T (b - Ax) + rho * psi(b - Ax)
    over the mixed integer linear set, by enumerating integer assignments
    and solving one exact convex subproblem per assignment (epigraph rows
    for the norm kinds, quadratic absorption for sql2; a point evaluated
    directly when n1 = 0).  With rho = 0 this is the classical Lagrangian
    relaxation.
    """
    if len(lam) != inst.m:
        raise DimMismatchError(f"multiplier dim {len(lam)} vs {inst.m} rows")
    rho = rat(rho)
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if pen.dim != inst.m:
        raise DimMismatchError(f"penalty dim {pen.dim} vs {inst.m} rows")
    chat = inst.c - inst.A.tmatvec(lam) if inst.m else inst.c
    slicer = penalized_slicer(inst, inst.Q, chat, lam.dot(inst.b), pen, rho)
    best_val = None
    best_x = None
    best_x2 = None
    for x2, rep, total in slicer.scan():
        if total is None:
            return RelaxReport(None, None, None, x2, unbounded=True)
        if best_val is None or total < best_val:
            best_val = total
            best_x = slicer.lift(x2, rep)
            best_x2 = x2
    if best_val is None:
        raise InfeasibleDomainError("the mixed integer linear set is empty")
    residual = inst.b - inst.A.matvec(best_x) if inst.m else RatVec([])
    violation = pen_mod.evaluate(pen, residual)
    return RelaxReport(best_val, best_x, violation, best_x2)


@dataclass(frozen=True)
class DualAscentReport:
    best_lambda: RatVec | None
    best_value: Fraction | None
    trace: tuple[tuple[RatVec, Fraction | None], ...]


def dual_ascent(inst: MiqpInstance, rho, pen: pen_mod.Penalty, lambda0: RatVec,
                max_iters: int = 50) -> DualAscentReport:
    """Projected supergradient ascent with diminishing steps 1/k.

    Returns the best relaxation value seen, a valid lower bound on the
    penalized dual optimum; stops early at a zero supergradient.
    """
    lam = lambda0
    best_lam, best_val = None, None
    trace: list[tuple[RatVec, Fraction | None]] = []
    for k in range(1, max_iters + 1):
        rep = eval_lr_plus(inst, lam, rho, pen)
        if rep.unbounded:
            trace.append((lam, None))
            break
        trace.append((lam, rep.value))
        if best_val is None or rep.value > best_val:
            best_lam, best_val = lam, rep.value
        g = inst.b - inst.A.matvec(rep.argmin_x)
        if g.is_zero():
            break
        lam = lam + g.scale(Fraction(1, k))
    return DualAscentReport(best_lam, best_val, tuple(trace))


@dataclass(frozen=True)
class SweepRow:
    """One penalty-weight step of a gap sweep.

    ``z_lr`` is None when the relaxation is unbounded below (minus-infinity
    sentinel); ``z_ld`` is filled only when dual ascent was requested;
    ``kappa_rho`` is the sublevel diameter at height 2*(z_ip - z_nlp)/rho,
    undefined at rho = 0.
    """

    rho: Fraction
    z_lr: Fraction | None
    z_ld: Fraction | None
    gap_lr: Fraction | None
    violation: Fraction | None
    kappa_rho: Fraction | None


def stream_gap_sweep(inst: MiqpInstance, pen: pen_mod.Penalty, rhos,
                     lam: RatVec | None = None, ascent_iters: int = 0):
    """SweepRows in schedule order, enforcing exact monotonicity.  The checks,
    the ground truth and lambda_bar run at the call; the rows come lazily."""
    rhos = [rat(r) for r in rhos]
    if not rhos:
        raise ValueError("empty rho schedule")
    if any(r < 0 for r in rhos) or any(a >= b for a, b in zip(rhos, rhos[1:])):
        raise ValueError("rho schedule must be nonnegative and strictly increasing")
    if ascent_iters < 0:
        raise ValueError("ascent_iters must be nonnegative")
    ip = ground_truth(inst)
    duals = lambda_bar(inst)
    if lam is None:
        lam = duals.lambda_bar
    z_ip, z_nlp = ip.value, duals.z_nlp

    def rows():
        prev: Fraction | None = None
        have_prev = False
        for rho in rhos:
            rep = eval_lr_plus(inst, lam, rho, pen)
            z_lr = None if rep.unbounded else rep.value
            gap = None if z_lr is None else z_ip - z_lr
            if gap is not None and gap < 0:
                raise InternalInvariantError("relaxation exceeded the integer optimum")
            kappa = None
            if rho > 0:
                kappa = pen_mod.level_diam(pen, 2 * (z_ip - z_nlp) / rho)
            z_ld = None
            if ascent_iters:
                asc = dual_ascent(inst, rho, pen, lam, ascent_iters)
                z_ld = asc.best_value
            if have_prev and _lt_with_neg_inf(z_lr, prev):
                raise InternalInvariantError("relaxation value decreased along rho")
            prev, have_prev = z_lr, True
            yield SweepRow(rho, z_lr, z_ld, gap, rep.violation, kappa)

    return rows()


def gap_sweep(inst: MiqpInstance, pen: pen_mod.Penalty, rhos,
              lam: RatVec | None = None,
              ascent_iters: int = 0) -> list[SweepRow]:
    return list(stream_gap_sweep(inst, pen, rhos, lam, ascent_iters))


def _lt_with_neg_inf(a: Fraction | None, b: Fraction | None) -> bool:
    """a < b treating None as minus infinity."""
    if a is None:
        return b is not None
    if b is None:
        return False
    return a < b


SWEEP_CSV_HEADER = "rho,z_lr,z_ld,gap_lr,violation,kappa_rho"


def _cell(value: Fraction | None, if_none: str = "") -> str:
    return if_none if value is None else to_wire(value)


def sweep_row_csv(row: SweepRow) -> str:
    return ",".join([
        _cell(row.rho), _cell(row.z_lr, "-inf"), _cell(row.z_ld),
        _cell(row.gap_lr, "inf"), _cell(row.violation), _cell(row.kappa_rho),
    ])


def sweep_row_json(row: SweepRow) -> dict:
    return to_wire(row)


@dataclass(frozen=True)
class ViolationBoundReport:
    ok: bool
    lhs: Fraction
    rhs: Fraction


def violation_bound_check(inst: MiqpInstance, pen: pen_mod.Penalty,
                          rho) -> ViolationBoundReport:
    """Exact check of psi(b - A x*) <= (z_ip - z_nlp)/rho at a relaxation
    minimizer for the optimal multipliers; holds for every rho > 0."""
    rho = rat(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    ip = ground_truth(inst)
    duals = lambda_bar(inst)
    rep = eval_lr_plus(inst, duals.lambda_bar, rho, pen)
    if rep.unbounded:
        raise InternalInvariantError("relaxation unbounded at optimal multipliers")
    rhs = (ip.value - duals.z_nlp) / rho
    return ViolationBoundReport(rep.violation <= rhs, rep.violation, rhs)
