"""Duality machinery: enumeration oracle, penalized relaxations, sweeps.

The integer variables are always enumerated over a box implied by the
linear set (computed by LP), so the ground-truth mixed integer value and
every penalized relaxation value are exact minima over finitely many
convex subproblems, one per integer slice.  One table per instance lists
the nonempty slices E1 x1 <= f - E2 x2 with a point of each (a slice's set
does not depend on the objective).  A row of E whose continuous part E1
is zero (an x2-only row, every row when n1 = 0) constrains no variable of
a slice: its slack s2_j = f_j - E2_j x2 is checked once per box point,
and a point with s2_j < 0 has an empty slice and takes no solve.  So the
inequalities of every slice program are [E1 | 0] over the rows with a
nonzero E1 only.  When n1 = 0 that check is the whole test, and each
subproblem is the point, evaluated with no solver; else the slice's point
comes from one LP over those rows.  Each row also carries the slice's
x2-only terms, evaluated on Python ints by ``numkit``'s integer point
kernels, from which every slice program of every relaxation (lam, pen,
rho) is assembled; pen None is ``solve_ip``'s, with the rows A x = b kept
as equalities.  A ``SliceSolver`` at one (lam, pen, rho) is the one walk
over the slices: ``rows`` lists them, ``minimum`` evaluates one, and
``argmin`` finds the first of least minimum, from which ``solve_ip`` and
``SliceFamily.relax`` (``eval_lr_plus``) build their reports;
``exactrho``'s certificate routes walk ``rows`` or ``candidates`` slice by
slice.  Every route gets its slicers from one ``SliceFamily`` per call,
which checks the arguments once, builds each weight's slicer once and
holds the call's KKT factors and the KKT check's int forms, one of each
per constraint system, shared by every slice LP and QP of every weight
and dropped with the call.  An empty slice takes no solve, and QP
slices start at the table's point.

On a pure-integer instance a point's value f2 + lam.r2 + rho psi(r2)
depends on the point only through f2 and its residual r2, so points of
equal r2 (a residual class) differ by f2 alone, at every (lam, rho).  The
walks that seek a least minimum (``argmin``, hence ``solve_ip``,
``eval_lr_plus`` and all built on it, and the bisection oracle) visit
``candidates``: one row per class, its first of least f2
(``_point_classes``), which gives the same results; ``rows`` still lists
every slice.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

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
from .numkit import (
    RatMat,
    RatVec,
    affine_at_ints,
    ceil_rat,
    floor_rat,
    quadratic_at_ints,
    rat,
    to_wire,
)

_ZERO = Fraction(0)


def _per_instance(fn):
    """Compute ``fn(inst, *args)`` once per instance object and hashable
    ``args``, kept in its ``__dict__`` outside the dataclass fields
    (equality, hashing and ``replace`` ignore it); a call that raises
    stores nothing.  Results are shared: immutable."""
    key = "_" + fn.__name__

    @functools.wraps(fn)
    def once(inst: MiqpInstance, *args):
        facts = vars(inst).setdefault(key, {})
        if args not in facts:
            facts[args] = fn(inst, *args)
        return facts[args]

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
    """ceil/floor of the LP min/max of each integer coordinate over Ex <= f,
    all solved with one mapping (they share one constraint system)."""
    lower, upper, factors = [], [], {}
    for j in range(inst.n2):
        col = inst.n1 + j
        obj = RatVec.unit(inst.n, col)
        lo_rep = solve_lp(LinearProgram(obj, RatMat([], cols=inst.n), RatVec([]),
                                        inst.E, inst.f), factors=factors)
        if lo_rep.status == INFEASIBLE:
            return IntegerBox.empty(inst.n2)
        if lo_rep.status == UNBOUNDED:
            raise UnboundedIntegerVarError(j)
        hi_rep = solve_lp(LinearProgram(-obj, RatMat([], cols=inst.n), RatVec([]),
                                        inst.E, inst.f), factors=factors)
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


class SliceRow(NamedTuple):
    """An integer point x2 and its slice's x2-only terms: r2 = b - A2 x2,
    s2 = f - E2 x2, f2 = c2.x2 + 1/2 x2^T Q22 x2 and g1 = c1 + Q12 x2; x1
    is a point of the slice (E1 x1 <= s2), None when none is known."""

    x2: tuple[int, ...]
    r2: RatVec
    s2: RatVec
    f2: Fraction
    g1: RatVec
    x1: RatVec | None


def _box_rows(inst: MiqpInstance, points):
    """The SliceRow of each integer point, x1 left None, its terms
    evaluated on Python ints (``affine_at_ints``, ``quadratic_at_ints``)."""
    A2, E2 = inst.split_cols(inst.A)[1], inst.split_cols(inst.E)[1]
    _, Q12, Q22 = inst.q_blocks()
    c1, c2 = inst.c_split()
    r2_at, s2_at = affine_at_ints(inst.b, A2), affine_at_ints(inst.f, E2)
    g1_at, f2_at = affine_at_ints(c1, Q12.scale(-1)), quadratic_at_ints(Q22, c2)
    for x2 in points:
        yield SliceRow(x2, r2_at(x2), s2_at(x2), f2_at(x2), g1_at(x2), None)


@_per_instance
def _row_split(inst: MiqpInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The indices of the rows of E with a nonzero continuous part E1, which
    every slice program keeps, and of the x2-only rows, checked once per
    box point instead (every row when n1 = 0)."""
    E1 = inst.split_cols(inst.E)[0]
    kept = tuple(i for i in range(E1.rows) if not E1.row(i).is_zero())
    return kept, tuple(i for i in range(E1.rows) if i not in kept)


def _x2_feasible_rows(inst: MiqpInstance):
    """The SliceRow of each box point whose x2-only rows hold (s2_j >= 0),
    in lexicographic order, x1 left None: the other points have empty
    slices."""
    x2_only = _row_split(inst)[1]
    for row in _box_rows(inst, integer_box(inst).assignments()):
        if all(row.s2[j] >= 0 for j in x2_only):
            yield row


@_per_instance
def _slices(inst: MiqpInstance) -> tuple[SliceRow, ...]:
    """The nonempty slices E1 x1 <= s2 of the integer box, in lexicographic
    order, one SliceRow each.  A box point whose x2-only rows fail is
    skipped with no LP; the others' x1 is the empty vector when n1 = 0,
    else from one zero-objective LP over the rows with a nonzero E1, all
    solved with one mapping (they share one constraint system)."""
    kept = _row_split(inst)[0]
    E1 = inst.E.submatrix(kept, range(inst.n1))
    zero, no_rows = RatVec.zeros(inst.n1), RatMat([], cols=inst.n1)
    factors: dict = {}
    table = []
    for row in _x2_feasible_rows(inst):
        if inst.n1 == 0:
            x1 = zero
        else:
            rhs = RatVec(row.s2[j] for j in kept)
            rep = solve_lp(LinearProgram(zero, no_rows, RatVec([]), E1, rhs),
                           factors=factors)
            if rep.status == INFEASIBLE:
                continue
            x1 = rep.x
        table.append(row._replace(x1=x1))
    return tuple(table)


@_per_instance
def _point_classes(inst: MiqpInstance) -> tuple[SliceRow, ...]:
    """One row per residual class of a pure-integer table: for each
    distinct r2, the class's first row of least f2, in table order (see
    ``SliceSolver`` for why these are the rows a least minimum needs)."""
    best: dict[RatVec, SliceRow] = {}
    table = _slices(inst)
    for row in table:
        rep = best.get(row.r2)
        if rep is None or row.f2 < rep.f2:
            best[row.r2] = row
    return tuple(row for row in table if best[row.r2] is row)


@_per_instance
def _x1_block(inst: MiqpInstance, pen: pen_mod.Penalty | None,
              include_eq: bool) -> tuple:
    """A slicer's continuous block (A1, quadratic Q11, inequality rows,
    equality rows, the equalities' right-hand side, the kept rows of E),
    which depends on neither lam nor the weight, so an instance keeps one
    per penalty shape: ``pen``, the slicer's norm penalty or None, and
    ``include_eq``, set for ``solve_ip``'s slicer alone, which adds
    [A1 | 0] as equality rows.  The inequality rows start with [E1 | 0]
    over the kept rows, the indices of the rows of E with a nonzero E1
    (``_row_split``), in order."""
    n1 = inst.n1
    kept = _row_split(inst)[0]
    A1, E1 = inst.A.col_block(0, n1), inst.E.submatrix(kept, range(n1))
    quad = inst.Q.submatrix(range(n1), range(n1))
    n_aux, eq_tail = 0, ()
    if pen is not None:
        enc = pen_mod.epigraph_rows(pen, A1, RatVec.zeros(inst.m))
        n_aux, eq_tail = enc.n_aux, tuple(enc.eq_rhs)
    width = n1 + n_aux

    def padded(M):  # M's rows over (x1, aux), zero on aux
        return RatMat.hstack([M, RatMat.zeros(M.rows, n_aux)])

    ineq, eq = [padded(E1)], [padded(A1)] if include_eq else []
    if pen is not None:
        ineq.append(enc.ineq_lhs)
        eq.append(enc.eq_lhs)
    return (A1, RatMat.vstack([padded(quad), RatMat.zeros(n_aux, width)], cols=width),
            RatMat.vstack(ineq, cols=width), RatMat.vstack(eq, cols=width), eq_tail,
            kept)


class SliceFamily:
    """The slicers of one call chain at (inst, lam, pen), one per weight;
    pen None is ``solve_ip``'s family, whose slices keep A x = b.

    A family is built once per API call (one relaxation, sweep, bisection,
    max-norm dual construction, ``solve_ip`` or ``rho_sufficient``) and
    dies with it.  It checks the arguments its weights share: a multiplier
    or penalty of the wrong dimension raises DimMismatchError here, and
    ``at`` raises ValueError for rho < 0.  ``at(rho)`` is that weight's
    ``SliceSolver``, built once.  The family owns the call's KKT factor
    mapping, which every slice QP of every weight passes to ``solve_qp``:
    for a norm penalty rho only prices w, so the slice programs of every
    weight share one constraint system, which passes its PSD check once,
    and each (system, working set) is factored once per call.  The
    mapping is keyed by the exact matrices, so sharing it changes no
    result; it is never kept across calls, so a repeated call repeats its
    work.
    """

    def __init__(self, inst: MiqpInstance, lam: RatVec, pen: pen_mod.Penalty | None):
        if len(lam) != inst.m:
            raise DimMismatchError(f"multiplier dim {len(lam)} vs {inst.m} rows")
        if pen is not None and pen.dim != inst.m:
            raise DimMismatchError(f"penalty dim {pen.dim} vs {inst.m} rows")
        self.inst, self.lam, self.pen = inst, lam, pen
        self.factors: dict = {}
        self._slicers: dict[Fraction, SliceSolver] = {}

    def at(self, rho) -> "SliceSolver":
        """The family's slicer at weight rho (nonnegative), memoized."""
        rho = rat(rho)
        slicer = self._slicers.get(rho)
        if slicer is None:
            if rho < 0:
                raise ValueError("rho must be nonnegative")
            slicer = self._slicers[rho] = SliceSolver(self, rho)
        return slicer

    def relax(self, rho) -> "RelaxReport":
        """The penalized relaxation's report at rho (see ``eval_lr_plus``)."""
        slicer = self.at(rho)
        best = slicer.argmin()
        if best is None:
            raise InfeasibleDomainError("the mixed integer linear set is empty")
        row, rep, value = best
        if value is None:
            return RelaxReport(None, None, None, row.x2, unbounded=True)
        x = slicer.lift(row.x2, rep)
        inst = self.inst
        residual = inst.b - inst.A.matvec(x)
        return RelaxReport(value, x, pen_mod.evaluate(self.pen, residual), row.x2)


class SliceSolver:
    """The slices of  min f(x) + lam.(b - Ax) + rho psi(b - Ax)  over
    E x <= f, x2 fixed, at one weight of a ``SliceFamily`` (built by its
    ``at``, which checks the arguments).  The family's ``pen`` None is
    ``solve_ip``'s: no penalty, and ``include_eq``, the rows A x = b.

    A slice's program over (x1, aux) is built from its SliceRow and the
    continuous block, which one instance builds once (``_x1_block``).
    With q = rho for sql2 (0 otherwise) the constant is f2 + lam.r2
    + q |r2|^2, the quadratic Q11 + 2q A1^T A1 (the block's Q11, plus the
    weight's term added here) and the x1 linear term
    g1 - A1^T lam - 2q A1^T r2, whose lam part A1^T lam is priced once
    per slicer.  The inequalities are [E1 | 0] <= s2 over the rows of E
    with a nonzero E1 only (the block's kept rows: an x2-only row was
    checked once per box point, see ``_slices``), then for a norm penalty
    ``epigraph_rows(pen, A1, .)`` with ``epigraph_rhs(pen, r2)``, on
    auxiliary columns whose last, w, costs rho; ``include_eq`` adds
    [A1 | 0] = r2.  rho = 0, or no dualized rows, drops the penalty.
    Every slice LP and QP is solved with the family's mapping.  A point
    slice (n1 = 0) is f2 + lam.r2 + rho psi(r2), in closed form.  The
    walk is ``rows``, ``minimum`` of each and ``argmin`` over
    ``candidates``: ``rows``, or on a pure-integer instance one row per
    residual class.
    Within a class the values differ only by f2, at every (lam, rho), so
    the first row of least value over ``rows`` is its class's first row of
    least f2, a candidate, and no earlier candidate reaches its value; and
    each class's least value at every (lam, rho), and with it the weight
    at which the class's value reaches a threshold, is its candidate's.
    """

    def __init__(self, family: SliceFamily, rho: Fraction):
        inst, pen = family.inst, family.pen
        if rho == 0 or inst.m == 0:
            pen = None  # psi of an empty residual is 0
        self.inst, self.lam, self.pen, self.rho = inst, family.lam, pen, rho
        self.include_eq = family.pen is None
        self.factors = family.factors
        self.epigraph = pen is not None and pen.is_norm
        self.q = rho if pen is not None and not self.epigraph else _ZERO
        (self.A1, self.Qsub, self.ineq_mat, self.eq_mat, self.eq_tail,
         self.kept) = _x1_block(inst, pen if self.epigraph else None,
                                self.include_eq)
        self.lam_term = self.A1.tmatvec(self.lam)
        if self.q:
            self.Qsub = self.Qsub + self.A1.transpose().matmul(self.A1).scale(2 * self.q)
        self.quad_free = self.Qsub.is_zero()
        n_aux = self.Qsub.cols - inst.n1
        self.aux_cost = [_ZERO] * (n_aux - 1) + [rho] if n_aux else []

    def constant(self, row: SliceRow) -> Fraction:
        """The slice objective's x1-free part: f2 + lam.r2 + q |r2|^2."""
        value = row.f2 + self.lam.dot(row.r2)
        return value + self.q * row.r2.dot(row.r2) if self.q else value

    def program(self, row: SliceRow) -> LinearProgram | QuadraticProgram:
        """The row's slice program over (x1, aux), less ``constant``: a
        LinearProgram when the quadratic is zero."""
        g = row.g1 - self.lam_term
        if self.q:
            g = g - self.A1.tmatvec(row.r2).scale(2 * self.q)
        ineq_rhs = [row.s2[j] for j in self.kept]
        if self.epigraph:
            ineq_rhs += pen_mod.epigraph_rhs(self.pen, row.r2)
        data = (RatVec(list(g) + self.aux_cost), self.eq_mat,
                RatVec((*row.r2, *self.eq_tail) if self.include_eq else self.eq_tail),
                self.ineq_mat, RatVec(ineq_rhs))
        return LinearProgram(*data) if self.quad_free else QuadraticProgram(self.Qsub, *data)

    def solve(self, row: SliceRow) -> tuple[SolveReport, Fraction | None]:
        """The row's slice report and its minimum, None unless OPTIMAL.  A QP
        slice starts at the row's x1 (auxiliaries from
        ``penalty.epigraph_start``); an LP slice, or a row without x1, is
        solved cold.  A row with x1 has a nonempty slice: a report of
        INFEASIBLE for it raises InternalInvariantError."""
        program = self.program(row)
        if self.quad_free:
            rep = solve_lp(program, factors=self.factors)
        else:
            start = row.x1
            if start is not None and self.epigraph:
                resid = row.r2 - self.A1.matvec(start)
                start = RatVec([*start, *pen_mod.epigraph_start(self.pen, resid)])
            rep = solve_qp(program, start, factors=self.factors)
        if rep.status == INFEASIBLE and row.x1 is not None:
            raise InternalInvariantError(f"table slice {row.x2} reported infeasible")
        return rep, (rep.value + self.constant(row) if rep.status == OPTIMAL else None)

    def rows(self) -> Iterable[SliceRow]:
        """The slices a walk visits, in lexicographic order: the instance's
        ``_slices`` table, except for solve_ip's (``include_eq``), which
        keeps a pure-integer table's rows with r2 = 0 and walks a mixed
        instance's raw box (the table lacks the A rows), x1 None, so solved
        cold; a box point whose x2-only rows fail is skipped there with no
        solve."""
        inst = self.inst
        if not self.include_eq:
            return _slices(inst)
        if inst.n1:
            return _x2_feasible_rows(inst)
        return (row for row in _slices(inst) if row.r2.is_zero())

    def candidates(self) -> Iterable[SliceRow]:
        """The rows a least minimum is sought over, in ``rows()`` order:
        ``rows()`` itself, except on a pure-integer instance, where it is
        the rows of ``_point_classes`` among them, one per residual
        class."""
        inst = self.inst
        if inst.n1:
            return self.rows()
        if self.include_eq:
            return [row for row in _point_classes(inst) if row.r2.is_zero()]
        return _point_classes(inst)

    def minimum(self, row: SliceRow) -> tuple[SolveReport | None, Fraction | None]:
        """One ``rows()`` row's report and slice minimum, the minimum None
        unless OPTIMAL: a point slice (n1 = 0) in closed form, with no
        report, else one ``solve``."""
        if self.inst.n1:
            return self.solve(row)
        value = self.constant(row)
        if self.epigraph:
            value += self.rho * pen_mod.evaluate(self.pen, row.r2)
        return None, value

    def argmin(self) -> tuple[SliceRow, SolveReport | None, Fraction | None] | None:
        """``(row, report, value)`` of the first slice in ``rows()`` order
        of least minimum, walking ``candidates()``; the first slice
        unbounded below ends the walk, with value None.  An INFEASIBLE
        (raw-box) row is skipped, and None means no slice is feasible."""
        best = None
        for row in self.candidates():
            rep, value = self.minimum(row)
            if value is None:
                if rep.status == INFEASIBLE:
                    continue
                return row, rep, None
            if best is None or value < best[2]:
                best = row, rep, value
        return best

    def lift(self, x2: tuple[int, ...], report: SolveReport | None) -> RatVec:
        """Full primal point (x1, x2) of a slice from ``minimum``: x2 itself
        for a point slice, else from the block solution (x1, aux)."""
        if report is None:
            return RatVec(x2)
        return RatVec(list(report.x[: self.inst.n1]) + list(x2))


@_per_instance
def solve_ip(inst: MiqpInstance) -> SolveReport:
    """Ground-truth mixed integer optimum by exact enumeration.

    Ties between integer assignments are broken toward the
    lexicographically smallest one.
    """
    slicer = SliceFamily(inst, RatVec.zeros(inst.m), None).at(_ZERO)
    best = slicer.argmin()
    if best is None:
        return SolveReport(status=INFEASIBLE)
    row, rep, value = best
    x = slicer.lift(row.x2, rep)
    if value is None:
        ray = RatVec(list(rep.ray[: inst.n1]) + [_ZERO] * inst.n2)
        return SolveReport(status=UNBOUNDED, x=x, ray=ray)
    return SolveReport(status=OPTIMAL, value=value, x=x)


def ground_truth(inst: MiqpInstance) -> SolveReport:
    """solve_ip's report, which must be OPTIMAL: InfeasibleDomainError if it
    is infeasible, NlpUnboundedError if it is unbounded (the continuous
    relaxation holds every mixed-integer point, so it is unbounded too)."""
    ip = solve_ip(inst)
    if ip.status != OPTIMAL:
        error = NlpUnboundedError if ip.status == UNBOUNDED else InfeasibleDomainError
        raise error(f"ground-truth solve is {ip.status}")
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
    return SliceFamily(inst, lam, pen).relax(rho)


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
    the ground truth and lambda_bar run at the call; the rows come lazily,
    every weight from the call's one SliceFamily."""
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
    family = SliceFamily(inst, lam, pen)
    z_ip, z_nlp = ip.value, duals.z_nlp

    def rows():
        prev: Fraction | None = None
        have_prev = False
        for rho in rhos:
            rep = family.relax(rho)
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
