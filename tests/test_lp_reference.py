"""``solve_lp`` against the Fraction-tableau simplex it replaced.

``reference_solve_lp`` below is the earlier ``solve_lp`` kept verbatim but
for its name: a two-phase Bland simplex that pivots a tableau of
Fractions.  The integer-pivoting ``solve_lp`` scales rows and columns by
positive factors only, which keeps the sign of every reduced cost and the
ratio test's argmin and tie-break, so it must return the identical
``SolveReport`` on every LP: the same status, value, x, duals and ray,
each number a Fraction (``to_wire`` would render a stray int as a JSON
integer, not as the string of a rational).
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from aldual.convexsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    SolveReport,
    _verify_kkt,
    _verify_ray,
    solve_lp,
)
from aldual.errors import InternalInvariantError
from aldual.numkit import RatMat, RatVec

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MAX_PIVOTS = 200_000


def reference_solve_lp(lp: LinearProgram) -> SolveReport:
    """Two-phase primal simplex with Bland's rule, free variables split."""
    n = len(lp.objective)
    m_eq, m_in = lp.eq_lhs.rows, lp.ineq_lhs.rows
    m = m_eq + m_in
    nstruct = 2 * n + m_in
    ncols = nstruct + m  # artificial columns form the initial identity

    T: list[list[Fraction]] = []
    sign: list[int] = []
    for i in range(m):
        if i < m_eq:
            coeffs, rhs = lp.eq_lhs.row(i), lp.eq_rhs[i]
        else:
            j = i - m_eq
            coeffs, rhs = lp.ineq_lhs.row(j), lp.ineq_rhs[j]
        row = [_ZERO] * (ncols + 1)
        for k in range(n):
            row[k] = coeffs[k]
            row[n + k] = -coeffs[k]
        if i >= m_eq:
            row[2 * n + (i - m_eq)] = _ONE
        row[-1] = rhs
        s = 1
        if rhs < 0:
            s = -1
            row = [-e for e in row]
        sign.append(s)
        row[nstruct + i] = _ONE
        T.append(row)
    basis = [nstruct + i for i in range(m)]

    def pivot(r: int, c: int) -> None:
        piv = T[r][c]
        if piv != 1:
            T[r] = [a / piv for a in T[r]]
        prow = T[r]
        nonzero = [j for j, b in enumerate(prow) if b != 0]
        for i in range(len(T)):
            if i == r:
                continue
            f = T[i][c]
            if f != 0:
                row = list(T[i])
                for j in nonzero:
                    row[j] -= f * prow[j]
                T[i] = row
        basis[r] = c

    def run_simplex(obj: list[Fraction], allowed: int) -> int | None:
        """Bland pivoting on the appended objective row.

        ``obj`` holds reduced costs (updated in place via T-append);
        ``allowed`` restricts entering columns to indices < allowed.
        Returns the entering column when unbounded, else None at optimum.
        """
        T.append(obj)
        try:
            for _ in range(_MAX_PIVOTS):
                enter = next(
                    (j for j in range(allowed) if T[-1][j] < 0), None
                )
                if enter is None:
                    return None
                best_ratio = None
                leave = None
                leave_var = None
                for r in range(m):
                    a = T[r][enter]
                    if a > 0:
                        ratio = T[r][-1] / a
                        if (
                            best_ratio is None
                            or ratio < best_ratio
                            or (ratio == best_ratio and basis[r] < leave_var)
                        ):
                            best_ratio, leave, leave_var = ratio, r, basis[r]
                if leave is None:
                    return enter
                pivot(leave, enter)
            raise InternalInvariantError("simplex pivot cap exceeded")
        finally:
            obj[:] = T[-1]
            del T[-1]

    # phase 1: drive artificial variables to zero
    obj1 = [_ZERO] * (ncols + 1)
    for j in range(nstruct, ncols):
        obj1[j] = _ONE
    for r in range(m):  # price out the initial basis
        obj1 = [a - b for a, b in zip(obj1, T[r])]
    unb = run_simplex(obj1, ncols)
    if unb is not None:
        raise InternalInvariantError("phase-1 simplex reported unbounded")
    if -obj1[-1] > 0:
        return SolveReport(status=INFEASIBLE)

    # pivot remaining artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= nstruct:
            c = next((j for j in range(nstruct) if T[r][j] != 0), None)
            if c is not None:
                pivot(r, c)

    # phase 2 on the original costs
    cost = [_ZERO] * (ncols + 1)
    for k in range(n):
        cost[k] = lp.objective[k]
        cost[n + k] = -lp.objective[k]
    obj2 = list(cost)
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0:
            obj2 = [a - cb * b for a, b in zip(obj2, T[r])]
    enter = run_simplex(obj2, nstruct)

    def structural_point() -> RatVec:
        xs = [_ZERO] * nstruct
        for r in range(m):
            if basis[r] < nstruct:
                xs[basis[r]] = T[r][-1]
        return RatVec(xs[k] - xs[n + k] for k in range(n))

    if enter is not None:
        xs_dir = [_ZERO] * nstruct
        xs_dir[enter] = _ONE
        for r in range(m):
            if basis[r] < nstruct:
                xs_dir[basis[r]] = -T[r][enter]
        ray = RatVec(xs_dir[k] - xs_dir[n + k] for k in range(n))
        report = SolveReport(status=UNBOUNDED, x=structural_point(), ray=ray)
        _verify_ray(lp.objective, lp.eq_lhs, lp.ineq_lhs, ray)
        return report

    x = structural_point()
    value = lp.objective.dot(x)
    y_hat = []
    for i in range(m):
        yi = _ZERO
        col = nstruct + i
        for r in range(m):
            cb = cost[basis[r]]
            if cb != 0 and T[r][col] != 0:
                yi += cb * T[r][col]
        y_hat.append(yi)
    y_orig = [sign[i] * y_hat[i] for i in range(m)]
    eq_duals = RatVec(y_orig[:m_eq])
    ineq_duals = RatVec(-y_orig[m_eq + j] for j in range(m_in))
    report = SolveReport(OPTIMAL, value, x, eq_duals, ineq_duals, None)
    _verify_kkt(None, lp.objective, lp.eq_lhs, lp.eq_rhs, lp.ineq_lhs,
                lp.ineq_rhs, report)
    return report


# zero-heavy entries with denominators up to 12
_entries = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                     st.fractions(-3, 3, max_denominator=12))


@st.composite
def _lps(draw):
    """0-5 columns and 0-6 rows.  The right-hand sides are either drawn
    (often infeasible, often negative) or taken at a drawn point, with a
    zero or drawn slack on each inequality (feasible, often degenerate);
    a drawn row may be repeated, right-hand side included."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    m_eq = draw(st.integers(0, m))
    rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if draw(st.booleans()):
        x0 = draw(st.lists(_entries, min_size=n, max_size=n))
        rhs = [sum((Fraction(a) * b for a, b in zip(row, x0)), _ZERO)
               + (draw(st.one_of(st.just(0), _entries.map(abs))) if i >= m_eq else 0)
               for i, row in enumerate(rows)]
    else:
        rhs = draw(st.lists(_entries, min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows[dst], rhs[dst] = list(rows[src]), rhs[src]
    c = draw(st.lists(_entries, min_size=n, max_size=n))
    return LinearProgram(RatVec(c), RatMat(rows[:m_eq], cols=n), RatVec(rhs[:m_eq]),
                         RatMat(rows[m_eq:], cols=n), RatVec(rhs[m_eq:]))


def _numbers(report: SolveReport) -> list:
    out = [] if report.value is None else [report.value]
    for vec in (report.x, report.eq_duals, report.ineq_duals, report.ray):
        out += [] if vec is None else list(vec)
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_lps())
def test_solve_lp_equals_fraction_tableau(lp):
    got, want = solve_lp(lp), reference_solve_lp(lp)
    assert got == want
    assert all(type(e) is Fraction for e in _numbers(got))
