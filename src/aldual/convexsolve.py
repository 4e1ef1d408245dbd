"""Exact LP and convex QP solvers over the rationals.

Both solvers work with free variables, return exact optimal values and
multipliers, and certify infeasibility/unboundedness.  Every OPTIMAL report
is verified against the KKT conditions before it is returned, with the sign
convention fixed once here:

    Qobj x + cobj - eq_lhs^T y_eq + ineq_lhs^T y_ineq = 0,   y_ineq >= 0,

inequalities written as ineq_lhs x <= ineq_rhs.  UNBOUNDED reports carry a
feasible recession ray along which the objective strictly decreases.

The LP solver is a two-phase primal simplex with Bland's rule on a
fraction-free tableau: the constraint rows are scaled by one common
denominator and the costs by their own, so every entry is a Python int,
and each pivot is ``numkit.pivot``, the package's one exact elimination
step (Edmonds; Bareiss; Gaertner 1999, "Exact arithmetic at low cost").
Positive row and column scalings keep the sign of every reduced cost and
the ratio test's order and tie-break, so the pivots, and so the point, the
ray and the duals, are those of the same simplex on a Fraction tableau.
The QP solver is a primal active-set method whose working set stays
linearly independent, also with least-index (Bland) selection, so
multipliers are unique and anti-cycling is principled rather than
perturbation-based.  A caller may share one mapping among the programs
of one call; it holds one entry per constraint system, keyed by the exact
matrices ``(Qobj, eq_lhs, ineq_lhs)`` and made once the objective has
passed the PSD check.  The entry holds the system in integer form (Q over
one denominator, each constraint row times its own) and maps each working
set, by the least index of each of its identical rows, to the
``numkit.factor`` of its KKT matrix.  Each step reads its KKT system off
that factor, and an inconsistent system's ray is a kernel vector of the
same factor.  A QP given a start point begins with the independent rows
active there in its working set (Nocedal and Wright, Numerical
Optimization, 16.5; the rows are the pivot columns of ``numkit.echelon``).
Its state is integer, as the simplex's is: x is an int vector over one
denominator, g = Q x + c and each slack an int over a positive scale, and
the KKT right-hand side goes to the factor as ints.  The scales are
positive, so every sign and every order of the ratio test is that of the
same method on Fractions, and so are the steps and the reports; Fractions
are built only for the report.

The KKT check of every OPTIMAL report runs on ints as well, but it scales
the program itself: it puts the program's own matrices over their common
denominators (``_KktForm``) and never reads the solver's integer system or
tableau, so a scaling fault in a solver cannot hide from it.  ``solve_qp``
keeps that form once per constraint system in the caller's mapping, as a
value of its own beside the solver's entry; ``solve_lp`` builds it per
call.  The check of an UNBOUNDED report's ray stays in Fractions, since
rays are rare.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DimMismatchError,
    InternalInvariantError,
    NotPsdError,
)
from .numkit import (
    RatMat,
    RatVec,
    ceil_rat,
    common_denominator,
    echelon,
    factor,
    int_matrix,
    int_rows,
    int_vector,
    kkt_matrix,
    ldl_psd_check,
    pivot,
    rat_vector,
    to_wire,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _check_system(n, eq_lhs, eq_rhs, ineq_lhs, ineq_rhs):
    if eq_lhs.rows != len(eq_rhs):
        raise DimMismatchError("equality rows vs rhs")
    if ineq_lhs.rows != len(ineq_rhs):
        raise DimMismatchError("inequality rows vs rhs")
    for M in (eq_lhs, ineq_lhs):
        if M.cols != n:
            raise DimMismatchError(f"constraint width {M.cols} vs {n} variables")


@dataclass(frozen=True)
class LinearProgram:
    """min objective^T x  s.t.  eq_lhs x = eq_rhs, ineq_lhs x <= ineq_rhs."""

    objective: RatVec
    eq_lhs: RatMat
    eq_rhs: RatVec
    ineq_lhs: RatMat
    ineq_rhs: RatVec

    def __post_init__(self):
        _check_system(len(self.objective), self.eq_lhs, self.eq_rhs,
                      self.ineq_lhs, self.ineq_rhs)


@dataclass(frozen=True)
class QuadraticProgram:
    """min 1/2 x^T Qobj x + cobj^T x under the same constraint shapes."""

    Qobj: RatMat
    cobj: RatVec
    eq_lhs: RatMat
    eq_rhs: RatVec
    ineq_lhs: RatMat
    ineq_rhs: RatVec

    def __post_init__(self):
        _check_system(len(self.cobj), self.eq_lhs, self.eq_rhs,
                      self.ineq_lhs, self.ineq_rhs)
        if self.Qobj.rows != len(self.cobj) or self.Qobj.cols != len(self.cobj):
            raise DimMismatchError("objective matrix vs linear term")


@dataclass(frozen=True)
class SolveReport:
    """Exact outcome of an optimization call."""

    status: str
    value: Fraction | None = None
    x: RatVec | None = None
    eq_duals: RatVec | None = None
    ineq_duals: RatVec | None = None
    ray: RatVec | None = None


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving the recession program has value zero.

    Satisfies lam_E^T E + lam_A^T A + lam_Q^T Q = c^T with lam_E <= 0.
    """

    lam_E: RatVec
    lam_A: RatVec
    lam_Q: RatVec


@dataclass(frozen=True)
class BoundednessReport:
    """Verdict on boundedness of the continuous relaxation.

    Exactly one certificate is present: Farkas multipliers when bounded, or
    an integral ray r with c^T r <= -1, A r = 0, E r <= 0, Q r = 0.
    """

    nlp_bounded: bool
    farkas: FarkasCertificate | None
    ray: RatVec | None

    def to_json_dict(self) -> dict:
        doc: dict = {"nlp_bounded": self.nlp_bounded}
        if self.farkas is not None:
            doc["farkas"] = to_wire(self.farkas)
        if self.ray is not None:
            doc["descent_ray"] = to_wire(self.ray)
        return doc


_MAX_PIVOTS = 200_000


def solve_lp(lp: LinearProgram) -> SolveReport:
    """Two-phase primal simplex with Bland's rule, free variables split.

    Each free variable is split as x = x+ - x-, each inequality row gets a
    slack and every row an artificial; a row with a negative right-hand
    side is negated first, so the artificials start as a feasible basis.
    Phase 1 minimizes the sum of the artificials, pivots those left basic
    at zero out on the first structural column nonzero in their row, and
    phase 2 minimizes the objective from that basis, artificials barred
    from entering.  Bland's rule enters the least-index column with a
    negative reduced cost, and the ratio test breaks ties toward the
    least basic variable, so the pivot sequence is fixed by the signs of
    the reduced costs and the order of the ratios.

    The tableau is fraction-free.  The rows [A | b] are scaled by one
    common denominator L and the slack and artificial columns left unit;
    the phase-2 costs are scaled by their own common denominator Lc.  Every
    entry is then a Python int, the true tableau is the int tableau over
    ``det``, the determinant of the current basis, kept positive, and each
    pivot is :func:`numkit.pivot`: every row but the pivot row becomes
    ``(p * T[i] - T[i][c] * T[r]) / det``, a division checked exact, the
    tableau is negated when p < 0 (possible only when an artificial is
    pivoted out), and ``det`` becomes |p|.  The scalings are positive row
    and column factors, so they keep the sign of every reduced cost, the
    argmin of the ratio test and its tie-break: the basis sequence, and so
    x, the ray and the duals, are those of the same simplex on a Fraction
    tableau.  Only the slack columns and the objective need their scale
    undone: the ray along a slack column is multiplied back by L, and the
    duals are ``L * (c_B . T[:, art]) / (det * Lc)``.  Every number
    returned is a Fraction.  An OPTIMAL report is KKT-checked on ints that
    :func:`_verify_kkt` scales from the program itself, and an UNBOUNDED
    one's ray is verified in Fractions; neither check reads the tableau.
    """
    n = len(lp.objective)
    m_eq, m_in = lp.eq_lhs.rows, lp.ineq_lhs.rows
    m = m_eq + m_in
    nstruct = 2 * n + m_in
    ncols = nstruct + m  # artificial columns form the initial identity

    coeff_rows = lp.eq_lhs.row_list() + lp.ineq_lhs.row_list()
    rhs = list(lp.eq_rhs) + list(lp.ineq_rhs)
    L = common_denominator(a for row in [rhs, *coeff_rows] for a in row)

    T: list[list[int]] = []
    sign: list[int] = []
    for i, (coeffs, b) in enumerate(zip(coeff_rows, rhs)):
        s = -1 if b < 0 else 1
        ints = [s * a.numerator * (L // a.denominator) for a in coeffs]
        row = ints + [-a for a in ints] + [0] * (m_in + m + 1)
        if i >= m_eq:
            row[2 * n + (i - m_eq)] = s
        row[nstruct + i] = 1
        row[-1] = s * b.numerator * (L // b.denominator)
        sign.append(s)
        T.append(row)
    basis = [nstruct + i for i in range(m)]
    det = 1

    def run_simplex(obj: list[int], allowed: int) -> int | None:
        """Bland pivoting on the appended objective row.

        ``obj`` holds det times the reduced costs (updated in place via
        T-append); ``allowed`` restricts entering columns to indices <
        allowed.  Returns the entering column when unbounded, else None at
        optimum.
        """
        nonlocal det
        T.append(obj)
        try:
            for _ in range(_MAX_PIVOTS):
                z = T[-1]
                enter = next((j for j in range(allowed) if z[j] < 0), None)
                if enter is None:
                    return None
                leave = None
                for r in range(m):
                    a = T[r][enter]
                    if a > 0:
                        b = T[r][-1]
                        # b / a against best_b / best_a, both a > 0
                        if (
                            leave is None
                            or b * best_a < best_b * a
                            or (b * best_a == best_b * a and basis[r] < basis[leave])
                        ):
                            leave, best_a, best_b = r, a, b
                if leave is None:
                    return enter
                det = pivot(T, leave, enter, det)
                basis[leave] = enter
            raise InternalInvariantError("simplex pivot cap exceeded")
        finally:
            obj[:] = T[-1]
            del T[-1]

    # phase 1: drive artificial variables to zero
    obj1 = [0] * (ncols + 1)
    for j in range(nstruct, ncols):
        obj1[j] = 1
    for row in T:  # price out the initial basis
        obj1 = [a - b for a, b in zip(obj1, row)]
    unb = run_simplex(obj1, ncols)
    if unb is not None:
        raise InternalInvariantError("phase-1 simplex reported unbounded")
    if obj1[-1] < 0:
        return SolveReport(status=INFEASIBLE)

    # pivot remaining artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= nstruct:
            c = next((j for j in range(nstruct) if T[r][j] != 0), None)
            if c is not None:
                det = pivot(T, r, c, det)
                basis[r] = c

    # phase 2 on the original costs, times Lc
    Lc = common_denominator(lp.objective)
    cost = [0] * (ncols + 1)
    for k, a in enumerate(lp.objective):
        cost[k] = a.numerator * (Lc // a.denominator)
        cost[n + k] = -cost[k]
    obj2 = [det * a for a in cost]
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0:
            obj2 = [a - cb * b for a, b in zip(obj2, T[r])]
    enter = run_simplex(obj2, nstruct)

    def structural(values: list[Fraction]) -> RatVec:
        return RatVec(values[k] - values[n + k] for k in range(n))

    xs = [_ZERO] * nstruct
    for r in range(m):
        if basis[r] < nstruct:
            xs[basis[r]] = Fraction(T[r][-1], det)
    x = structural(xs)

    if enter is not None:
        unit = L if enter >= 2 * n else 1  # a slack column was scaled by 1/L
        xs_dir = [_ZERO] * nstruct
        xs_dir[enter] = _ONE
        for r in range(m):
            if basis[r] < nstruct:
                xs_dir[basis[r]] = Fraction(-T[r][enter] * unit, det)
        ray = structural(xs_dir)
        report = SolveReport(status=UNBOUNDED, x=x, ray=ray)
        _verify_ray(lp.objective, lp.eq_lhs, lp.ineq_lhs, ray)
        return report

    value = lp.objective.dot(x)
    y_orig = []
    for i in range(m):
        col = nstruct + i
        yi = sum(cost[basis[r]] * T[r][col] for r in range(m))
        y_orig.append(Fraction(sign[i] * L * yi, det * Lc))
    eq_duals = RatVec(y_orig[:m_eq])
    ineq_duals = RatVec(-y_orig[m_eq + j] for j in range(m_in))
    report = SolveReport(OPTIMAL, value, x, eq_duals, ineq_duals, None)
    _verify_kkt(None, lp.objective, lp.eq_lhs, lp.eq_rhs, lp.ineq_lhs,
                lp.ineq_rhs, report)
    return report


def _verify_kkt(Qobj, cobj, eq_lhs, eq_rhs, ineq_lhs, ineq_rhs,
                report: SolveReport, form: _KktForm | None = None) -> None:
    """Exact KKT check on ints; raises InternalInvariantError on any residual.

    ``form`` is the system's :class:`_KktForm`, built here from the
    program's matrices when not given.  x is ``X / Dx``, the duals are
    ``Ye / De`` and ``Yi / Di``, and c is ``C / Dc`` (``numkit.int_vector``),
    so the stationarity residual ``Q x + c - E^T y_eq + G^T y_ineq``, times
    ``M = lcm(LQ Dx, Dc, LE De, LG Di)``, is an int vector: zero is its
    only test.  Equality row i holds when ``Db E_i X = LE Dx b_i``, and
    inequality row i's slack ``h_i - G_i x`` times the positive ``LG Dx Dh``
    is the int ``LG Dx h_i - Dh G_i X``.  The conditions are checked, and
    their messages raised, in the order of the same check on Fractions; a
    report whose vectors do not fit the program is rejected first.
    """
    if form is None:
        form = _KktForm(Qobj, eq_lhs, ineq_lhs)
    if (len(report.x), len(report.eq_duals), len(report.ineq_duals)) != (
            len(cobj), len(form.E), len(form.G)):
        raise InternalInvariantError("report does not fit the program")
    X, Dx = int_vector(report.x)
    C, Dc = int_vector(cobj)
    Ye, De = int_vector(report.eq_duals)
    Yi, Di = int_vector(report.ineq_duals)
    M = lcm(Dc, form.LE * De, form.LG * Di)
    if form.Q is not None:
        M = lcm(M, form.LQ * Dx)
    k = M // Dc
    resid = [k * c for c in C]
    if form.Q is not None:
        k = M // (form.LQ * Dx)
        for j, row in enumerate(form.Q):
            resid[j] += k * _dot(row, X)
    for Y, rows, k in ((Ye, form.E, -(M // (form.LE * De))),
                       (Yi, form.G, M // (form.LG * Di))):
        for y, row in zip(Y, rows):
            if y:
                y *= k
                for j, a in row:
                    resid[j] += y * a
    if any(resid):
        raise InternalInvariantError("stationarity residual nonzero")
    B, Db = int_vector(eq_rhs)
    k = form.LE * Dx
    if any(Db * _dot(row, X) != k * b for row, b in zip(form.E, B)):
        raise InternalInvariantError("equality constraints violated")
    H, Dh = int_vector(ineq_rhs)
    k = form.LG * Dx
    for row, h, y in zip(form.G, H, Yi):
        slack = k * h - Dh * _dot(row, X)
        if slack < 0:
            raise InternalInvariantError("inequality constraints violated")
        if y < 0:
            raise InternalInvariantError("negative inequality multiplier")
        if y and slack:
            raise InternalInvariantError("complementary slackness violated")


class _KktForm:
    """The matrices of one program's constraint system over ints, for
    :func:`_verify_kkt`.

    Each of Qobj, eq_lhs and ineq_lhs is put over one common denominator of
    its own (``numkit.int_matrix``: ``LQ``, ``LE``, ``LG``) and kept as the
    nonzero entries of its rows; an LP (Qobj None) has no ``Q``.  The form
    is built from the program's Fractions alone, never from the solver's
    integer system, so a scaling fault in the solver cannot hide from the
    check.
    """

    __slots__ = ("Q", "LQ", "E", "LE", "G", "LG")

    def __init__(self, Qobj: RatMat | None, eq_lhs: RatMat, ineq_lhs: RatMat):
        self.Q, self.LQ = None, 1
        if Qobj is not None:
            Q, self.LQ = int_matrix(Qobj)
            self.Q = [_terms(row) for row in Q]
        E, self.LE = int_matrix(eq_lhs)
        self.E = [_terms(row) for row in E]
        G, self.LG = int_matrix(ineq_lhs)
        self.G = [_terms(row) for row in G]


def _verify_ray(cobj, eq_lhs, ineq_lhs, ray: RatVec, Qobj=None) -> None:
    if not eq_lhs.matvec(ray).is_zero():
        raise InternalInvariantError("ray leaves the equality system")
    if any(a > 0 for a in ineq_lhs.matvec(ray)):
        raise InternalInvariantError("ray is not a recession direction")
    if Qobj is not None and not Qobj.matvec(ray).is_zero():
        raise InternalInvariantError("ray has curvature")
    if cobj.dot(ray) >= 0:
        raise InternalInvariantError("ray does not decrease the objective")


class _System:
    """One constraint system of ``solve_qp``'s mapping, in integer form.

    Made once per system per mapping, after the objective has passed the
    PSD check: ``Q`` as the sparse int rows of Qobj over one denominator
    ``LQ``; the equality and inequality rows, each times its own common
    denominator (``scales`` for the inequality rows), dense for the
    working-set seed and sparse (``G_terms``) for the steps; ``first``,
    each inequality row's least identical row; and ``table``, the KKT
    factor of each working set, keyed by those least rows in working-set
    order, so two working sets that select identical rows share one factor.
    """

    __slots__ = ("Q", "LQ", "eq", "G", "scales", "G_terms", "first", "table")

    def __init__(self, qp: QuadraticProgram):
        Q, self.LQ = int_matrix(qp.Qobj)
        self.Q = [_terms(row) for row in Q]
        self.eq = int_rows(qp.eq_lhs.row_list())
        G_rows = qp.ineq_lhs.row_list()
        self.G = int_rows(G_rows)
        self.scales = [common_denominator(row) for row in G_rows]
        self.G_terms = [_terms(row) for row in self.G]
        seen: dict = {}
        self.first = [seen.setdefault((s, tuple(row)), i)
                      for i, (s, row) in enumerate(zip(self.scales, self.G))]
        self.table: dict = {}


def _terms(row: list[int]) -> tuple:
    """The nonzero entries of an int row, as (column, entry) pairs."""
    return tuple((j, a) for j, a in enumerate(row) if a)


def _dot(terms: tuple, v: list[int]) -> int:
    return sum(a * v[j] for j, a in terms)


def solve_qp(qp: QuadraticProgram, x0: RatVec | None = None,
             factors: dict | None = None) -> SolveReport:
    """Primal active-set method in exact arithmetic, on Python ints.

    The method starts at ``x0`` when it is given and at the point of a
    phase-1 LP otherwise.  A start is checked, never trusted: a wrong
    length raises DimMismatchError, and a point off the equality rows or
    outside an inequality row raises InternalInvariantError.  From ``x0``
    the working set starts on the rows active there, taken greedily in row
    order when independent of the equality rows and of the rows already
    taken (see :func:`_active_rows`); from the phase-1 point it starts
    empty, so the multipliers of a cold solve do not depend on which vertex
    the LP found.

    Each iteration solves the working set's KKT system

        [[Q, C^T], [C, 0]] (d, w) = (-g, 0),   g = Q x + c,

    where C stacks the equality rows and the working rows, with one read
    of the matrix's ``numkit.factor``.  ``factors`` holds one entry per
    constraint system, keyed by its exact matrices ``(Qobj, eq_lhs,
    ineq_lhs)``: the entry is made once Q has passed the PSD check (a Q
    that fails it raises NotPsdError and leaves no entry), and it holds the
    system's integer form and maps each working set to its KKT factor,
    built on a miss (see :class:`_System`).  Within one system the rows a
    working set selects fix K, so no key can name another matrix's factor.
    A caller that solves many programs sharing Q and the constraint rows
    passes one mapping to all of them, and without one each call starts an
    empty dict.  Working rows stay linearly independent of the other rows
    of C; a dependent equality row is a free column of the system, so its
    multiplier is 0 and the others are unique.  A nonzero d is a step; at
    d = 0 the multipliers are -w on the equality rows and w on the working
    rows.  An inconsistent system has a kernel vector (u, v) of the same
    factor with g.u != 0, Q u = 0 and C u = 0: u, oriented downhill, is a
    curvature-free descent direction, returned as the certifying ray when
    no inequality row blocks it.

    The state is integer.  x is ``X / D``, X an int vector and D > 0,
    reduced by their gcd after each step.  With Q over ``LQ``, c over
    ``Lc`` and ``Lg = lcm(LQ, Lc)``, g is the int vector ``Lg D g``, fed to
    the factor as the right-hand side, so d and w are read as ints over
    ``det Lg D``.  Inequality row i times its scale ``s_i``, and h over its
    common denominator H, make the slack ``s_i H D (h_i - G_i x)`` an int.
    Every one of these scales is positive, so each sign (of a step, a
    multiplier or a slack) is the sign of its int, and the ratio test and
    the cap ``alpha = 1`` compare their candidates by cross-multiplying:
    the working-set sequence, and so every report, is that of the same
    method on Fractions.  Fractions are built only for the report.

    An OPTIMAL report is KKT-checked on ints by :func:`_verify_kkt`, from
    the system's :class:`_KktForm`: the program's own matrices over their
    common denominators, built on the first OPTIMAL report of the system
    and kept in ``factors`` under ``("kkt", key)``, a value apart from the
    solver's entry that is made from ``qp``'s Fractions, never from the
    entry's int rows or scales.  A ray is checked in Fractions.
    """
    n = len(qp.cobj)
    if factors is None:
        factors = {}
    key = (qp.Qobj, qp.eq_lhs, qp.ineq_lhs)
    system = factors.get(key)
    if system is None:
        psd = ldl_psd_check(qp.Qobj)
        if not psd.is_psd:
            raise NotPsdError("objective matrix is not PSD", witness=psd.witness)
        system = factors[key] = _System(qp)

    if x0 is None:
        feas = solve_lp(LinearProgram(RatVec.zeros(n), qp.eq_lhs, qp.eq_rhs,
                                      qp.ineq_lhs, qp.ineq_rhs))
        if feas.status == INFEASIBLE:
            return SolveReport(status=INFEASIBLE)
        X, D = int_vector(feas.x)
    else:
        if len(x0) != n:
            raise DimMismatchError(f"start point of length {len(x0)} vs "
                                   f"{n} variables")
        if qp.eq_lhs.rows and qp.eq_lhs.matvec(x0) != qp.eq_rhs:
            raise InternalInvariantError("start point violates an equality row")
        X, D = int_vector(x0)

    m_eq, m_in = qp.eq_lhs.rows, qp.ineq_lhs.rows
    hN, H = int_vector(qp.ineq_rhs)
    hS = [s * h for s, h in zip(system.scales, hN)]
    slack = [h * D - H * _dot(row, X) for h, row in zip(hS, system.G_terms)]
    if any(si < 0 for si in slack):
        raise InternalInvariantError("start point violates an inequality row")
    working = [] if x0 is None else _active_rows(system.eq, system.G, slack)

    cN, Lc = int_vector(qp.cobj)
    Lg = lcm(system.LQ, Lc)
    qk = Lg // system.LQ
    cN = [a * (Lg // Lc) for a in cN]
    max_iters = 500 + 30 * (n + m_in + m_eq) ** 2
    for _ in range(max_iters):
        gN = [qk * _dot(row, X) + c * D for row, c in zip(system.Q, cN)]
        rows = tuple(system.first[i] for i in working)
        fac = system.table.get(rows)
        if fac is None:
            C = RatMat.vstack([qp.eq_lhs, qp.ineq_lhs.submatrix(working, range(n))],
                              cols=n)
            fac = system.table[rows] = factor(kkt_matrix(qp.Qobj, C))
        sol = fac.solve_ints([-a for a in gN] + [0] * (m_eq + len(working)))
        if sol is None:
            for z in fac.kernel:
                dn, Dd = int_vector(z[:n])
                slope = sum(a * b for a, b in zip(gN, dn))
                if slope:
                    break
            else:
                raise InternalInvariantError(
                    "inconsistent KKT system without a kernel witness")
            if slope > 0:
                dn = [-a for a in dn]
            if any(_dot(row, dn) for row in system.Q):
                raise InternalInvariantError("recession direction has curvature")
            cap = None
        else:
            # d is dn / (det Lg D): the cap alpha = 1 as a step (1, det Lg)
            dn, cap = sol[:n], (1, fac.det * Lg)

        if any(dn):
            blocker, step = _ratio_test(system.G_terms, hS, H, X, D, dn, cap)
            if step is None:
                report = SolveReport(status=UNBOUNDED, x=rat_vector(X, D),
                                     ray=rat_vector(dn, Dd))
                _verify_ray(qp.cobj, qp.eq_lhs, qp.ineq_lhs, report.ray, qp.Qobj)
                return report
            v, u = step
            if v:
                X = [a * u + v * b for a, b in zip(X, dn)]
                D *= u
                k = gcd(D, *X)
                if k > 1:
                    X, D = [a // k for a in X], D // k
            if blocker is not None:
                working = sorted(working + [blocker])
            continue

        # d = 0: candidate optimum on the current active manifold
        y_work = sol[n + m_eq:]
        neg = next((wi for wi, y in enumerate(y_work) if y < 0), None)
        if neg is not None:
            working.pop(neg)
            continue

        scale = fac.det * Lg * D
        ineq_duals = [0] * m_in
        for i, y in zip(working, y_work):
            ineq_duals[i] = y
        # 1/2 x^T Q x + c.x = x.(g + c) / 2, and g + c is (gN + D cN) / (Lg D)
        value = Fraction(sum(a * (g + D * c) for a, g, c in zip(X, gN, cN)),
                         2 * Lg * D * D)
        report = SolveReport(OPTIMAL, value, rat_vector(X, D),
                             rat_vector([-a for a in sol[n:n + m_eq]], scale),
                             rat_vector(ineq_duals, scale), None)
        form = factors.get(("kkt", key))
        if form is None:
            form = factors["kkt", key] = _KktForm(*key)
        _verify_kkt(qp.Qobj, qp.cobj, qp.eq_lhs, qp.eq_rhs, qp.ineq_lhs,
                    qp.ineq_rhs, report, form)
        return report
    raise InternalInvariantError("active-set iteration cap exceeded")


def _active_rows(eq: list[list[int]], G: list[list[int]], slack: list[int]) -> list[int]:
    """The inequality rows at zero slack, kept while linearly independent.

    ``eq`` and ``G`` are the equality and inequality rows, each times its
    own common denominator (see :class:`_System`).  Rows are taken greedily
    in row order: a row enters when it is not in the span of the equality
    rows and of the rows taken before it.  Those are the pivot columns
    :func:`numkit.echelon` finds with the candidate rows, equality rows
    first, taken as the columns of a tableau.
    """
    active = [i for i, si in enumerate(slack) if si == 0]
    if not active:
        return []
    cands = eq + [G[i] for i in active]
    T = [list(col) for col in zip(*cands)]
    return [active[k - len(eq)] for k in echelon(T, len(cands))[1] if k >= len(eq)]


def _ratio_test(G_terms, hS, H, X, D, dn, cap):
    """Largest feasible step along d, capped; smallest blocking row wins ties.

    A step ``(v, u)`` moves x = X / D to ``(u X + v dn) / (u D)``; steps
    compare as the fractions v / u, by cross-multiplying.  Row i with
    ``G_i d > 0`` blocks at the step ``(slack_i, H G_i dn)``, both over
    the row's scale ``s_i``; ``cap`` is the capped step, or None for a
    ray.  Returns the blocking row (None when the cap or nothing blocks)
    and the step (None when nothing blocks a ray).  A working row has
    ``G_i d = 0`` exactly (d lies in the null space of the working rows),
    so it never blocks.
    """
    blocker, best = None, cap
    for i, row in enumerate(G_terms):
        gd = _dot(row, dn)
        if gd > 0:
            v, u = hS[i] * D - H * _dot(row, X), H * gd
            if best is None or v * best[1] < best[0] * u:
                blocker, best = i, (v, u)
    return blocker, best


def check_boundedness(inst) -> BoundednessReport:
    """Exact boundedness test for the continuous relaxation.

    Minimizes c^T x over the recession cone {Ax = 0, Qx = 0, Ex <= 0} (Qx=0
    rows enter as equalities, valid on the cone since Q is PSD).  The value
    is 0 iff the relaxation is bounded, in which case the LP duals are the
    Farkas multipliers; otherwise the simplex ray, scaled to integer entries
    with c^T r <= -1, certifies a feasible direction of unbounded descent.
    """
    n = inst.n
    eq = RatMat.vstack([inst.A, inst.Q], cols=n)
    rep = solve_lp(LinearProgram(
        inst.c, eq, RatVec.zeros(eq.rows), inst.E, RatVec.zeros(inst.E.rows)))
    if rep.status == OPTIMAL:
        if rep.value != 0:
            raise InternalInvariantError("recession program value nonzero")
        m = inst.A.rows
        lam_A = RatVec(rep.eq_duals[:m])
        lam_Q = RatVec(rep.eq_duals[m:])
        lam_E = -rep.ineq_duals
        cert = FarkasCertificate(lam_E, lam_A, lam_Q)
        combo = inst.E.tmatvec(cert.lam_E) + inst.A.tmatvec(cert.lam_A) \
            + inst.Q.tmatvec(cert.lam_Q)
        if combo != inst.c or any(v > 0 for v in cert.lam_E):
            raise InternalInvariantError("Farkas certificate failed to verify")
        return BoundednessReport(True, cert, None)
    if rep.status != UNBOUNDED:
        raise InternalInvariantError("recession program cannot be infeasible")
    ray = _integral_descent_ray(inst, rep.ray)
    return BoundednessReport(False, None, ray)


def _integral_descent_ray(inst, ray: RatVec) -> RatVec:
    r = ray.scale(common_denominator(ray))
    drop = inst.c.dot(r)
    if drop > -1:
        r = r.scale(ceil_rat(_ONE / -drop))
    if any(a.denominator != 1 for a in r) or inst.c.dot(r) > -1:
        raise InternalInvariantError("integral ray scaling failed")
    if not inst.A.matvec(r).is_zero() or not inst.Q.matvec(r).is_zero() \
            or any(v > 0 for v in inst.E.matvec(r)):
        raise InternalInvariantError("descent ray leaves the recession cone")
    return r
