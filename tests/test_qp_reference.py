"""``convexsolve.solve_qp`` against the active-set code it replaced.

``reference_solve_qp``, ``reference_active_rows``, ``reference_ratio_test``,
``reference_row_dot`` and ``reference_verify_kkt`` below are the earlier
``solve_qp``, ``_active_rows``, ``_ratio_test``, ``_row_dot`` and
``_verify_kkt``, their code kept verbatim but for the names (the
docstrings are shortened).  The reference checks
the objective for semidefiniteness on every call, keys its factors by the
exact KKT matrix and walks the constraint rows by hand; ``solve_qp`` keeps
one entry per constraint system in its mapping (the PSD verdict, then one
factor per working set) and reads its rows through ``RatMat.matvec``.
Both must give the identical report on every program, each number a
Fraction (``to_wire`` would render a stray int as a JSON integer), or
raise the same error.

The programs are tiny and degenerate on purpose: dependent and duplicated
rows, rows active at the start point, singular objectives whose flat
directions give zero-curvature rays, and now and then an objective that
is not PSD.  Each is solved cold and warm from a fresh mapping, then
again with one mapping shared with a second system that has the same
objective and shapes but other rows: a mapping whose factors were not
kept apart per system would hand one system the other's factors.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from aldual.convexsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    QuadraticProgram,
    SolveReport,
    _verify_ray,
    solve_lp,
    solve_qp,
)
from aldual.errors import DimMismatchError, InternalInvariantError, NotPsdError
from aldual.numkit import (
    INCONSISTENT,
    RatMat,
    RatVec,
    echelon,
    factor,
    int_rows,
    kkt_matrix,
    ldl_psd_check,
    quad_form,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def reference_verify_kkt(Qobj, cobj, eq_lhs, eq_rhs, ineq_lhs, ineq_rhs,
                         report: SolveReport) -> None:
    """Exact KKT check; raises InternalInvariantError on any residual."""
    x, y_eq, y_in = report.x, report.eq_duals, report.ineq_duals
    grad = cobj if Qobj is None else Qobj.matvec(x) + cobj
    resid = grad
    if eq_lhs.rows:
        resid = resid - eq_lhs.tmatvec(y_eq)
    if ineq_lhs.rows:
        resid = resid + ineq_lhs.tmatvec(y_in)
    if not resid.is_zero():
        raise InternalInvariantError("stationarity residual nonzero")
    if eq_lhs.rows and eq_lhs.matvec(x) != eq_rhs:
        raise InternalInvariantError("equality constraints violated")
    for j in range(ineq_lhs.rows):
        slack = ineq_rhs[j] - ineq_lhs.row(j).dot(x)
        if slack < 0:
            raise InternalInvariantError("inequality constraints violated")
        if y_in[j] < 0:
            raise InternalInvariantError("negative inequality multiplier")
        if y_in[j] * slack != 0:
            raise InternalInvariantError("complementary slackness violated")


def reference_solve_qp(qp: QuadraticProgram, x0: RatVec | None = None,
                       factors: dict | None = None) -> SolveReport:
    """Primal active-set method in exact arithmetic."""
    n = len(qp.cobj)
    if factors is None:
        factors = {}
    psd = ldl_psd_check(qp.Qobj)
    if not psd.is_psd:
        raise NotPsdError("objective matrix is not PSD", witness=psd.witness)

    if x0 is None:
        feas = solve_lp(LinearProgram(RatVec.zeros(n), qp.eq_lhs, qp.eq_rhs,
                                      qp.ineq_lhs, qp.ineq_rhs))
        if feas.status == INFEASIBLE:
            return SolveReport(status=INFEASIBLE)
        x = feas.x
    else:
        if len(x0) != n:
            raise DimMismatchError(f"start point of length {len(x0)} vs "
                                   f"{n} variables")
        if qp.eq_lhs.rows and qp.eq_lhs.matvec(x0) != qp.eq_rhs:
            raise InternalInvariantError("start point violates an equality row")
        x = x0

    eq_rows = qp.eq_lhs.row_list()
    G_rows = qp.ineq_lhs.row_list()
    m_eq, m_in = len(eq_rows), len(G_rows)
    slack = [hi - reference_row_dot(row, x) for row, hi in zip(G_rows, qp.ineq_rhs)]
    if any(si < 0 for si in slack):
        raise InternalInvariantError("start point violates an inequality row")
    working = [] if x0 is None else reference_active_rows(eq_rows, G_rows, slack)

    max_iters = 500 + 30 * (n + m_in + m_eq) ** 2
    for _ in range(max_iters):
        g = qp.Qobj.matvec(x) + qp.cobj
        C = RatMat.vstack([qp.eq_lhs, qp.ineq_lhs.submatrix(working, range(n))],
                          cols=n)
        K = kkt_matrix(qp.Qobj, C)
        fac = factors.get(K)
        if fac is None:
            fac = factors[K] = factor(K)
        sol = fac.solve(RatVec(list(-g) + [_ZERO] * C.rows))
        if sol.status == INCONSISTENT:
            d = next((z[:n] for z in fac.kernel if g.dot(z[:n]) != 0), None)
            if d is None:
                raise InternalInvariantError(
                    "inconsistent KKT system without a kernel witness")
            if g.dot(d) > 0:
                d = -d
            if not qp.Qobj.matvec(d).is_zero():
                raise InternalInvariantError("recession direction has curvature")
            cap = None
        else:
            d, cap = sol.x[:n], _ONE

        if not d.is_zero():
            blocker, alpha, gd = reference_ratio_test(G_rows, slack, d, working, cap)
            if blocker is None and cap is None:
                report = SolveReport(status=UNBOUNDED, x=x, ray=d)
                _verify_ray(qp.cobj, qp.eq_lhs, qp.ineq_lhs, d, qp.Qobj)
                return report
            x = x + d.scale(alpha)
            if alpha:
                for i, gdi in gd.items():
                    slack[i] -= alpha * gdi
            if blocker is not None:
                working = sorted(working + [blocker])
            continue

        # d = 0: candidate optimum on the current active manifold
        y_work = sol.x[n + m_eq:]
        neg = next((wi for wi, y in enumerate(y_work) if y < 0), None)
        if neg is not None:
            working.pop(neg)
            continue

        ineq_duals = [_ZERO] * m_in
        for i, val in zip(working, y_work):
            ineq_duals[i] = val
        value = quad_form(qp.Qobj, x) / 2 + qp.cobj.dot(x)
        report = SolveReport(OPTIMAL, value, x, -sol.x[n:n + m_eq],
                             RatVec(ineq_duals), None)
        reference_verify_kkt(qp.Qobj, qp.cobj, qp.eq_lhs, qp.eq_rhs, qp.ineq_lhs,
                             qp.ineq_rhs, report)
        return report
    raise InternalInvariantError("active-set iteration cap exceeded")


def reference_row_dot(row: list[Fraction], v) -> Fraction:
    """Exact row . v over the row's nonzero entries."""
    return sum((a * b for a, b in zip(row, v) if a), _ZERO)


def reference_active_rows(eq_rows: list[list[Fraction]], G_rows: list[list[Fraction]],
                          slack: list[Fraction]) -> list[int]:
    """The inequality rows at zero slack, kept while linearly independent."""
    active = [i for i, si in enumerate(slack) if si == 0]
    if not active:
        return []
    cands = int_rows(eq_rows + [G_rows[i] for i in active])
    T = [list(col) for col in zip(*cands)]
    m_eq = len(eq_rows)
    return [active[k - m_eq] for k in echelon(T, len(cands))[1] if k >= m_eq]


def reference_ratio_test(G_rows: list[list[Fraction]], slack: list[Fraction],
                         d: RatVec, working: list[int], cap: Fraction | None):
    """Largest feasible step along d, capped; smallest blocking row wins ties."""
    blocker = None
    alpha = cap
    wset = set(working)
    gd = {}
    for i, row in enumerate(G_rows):
        if i in wset:
            continue
        gdi = reference_row_dot(row, d)
        if gdi:
            gd[i] = gdi
            if gdi > 0:
                ratio = slack[i] / gdi
                if alpha is None or ratio < alpha:
                    alpha, blocker = ratio, i
    return blocker, alpha, gd


# zero-heavy entries with small denominators
_entries = st.one_of(st.just(0), st.just(0), st.integers(-2, 2),
                     st.fractions(-2, 2, max_denominator=4))
_factors = st.sampled_from((1, -1, 2, Fraction(1, 2)))


@st.composite
def _rows(draw, m, n):
    """m rows of n entries, each after the first drawn, a copy or multiple
    of an earlier row, or the sum of two earlier rows."""
    rows = []
    for i in range(m):
        kind = draw(st.sampled_from(("drawn", "drawn", "multiple", "sum"))) \
            if i else "drawn"
        if kind == "drawn":
            row = draw(st.lists(_entries, min_size=n, max_size=n))
        elif kind == "multiple":
            k, src = draw(_factors), rows[draw(st.integers(0, i - 1))]
            row = [k * a for a in src]
        else:
            a, b = (rows[draw(st.integers(0, i - 1))] for _ in range(2))
            row = [x + y for x, y in zip(a, b)]
        rows.append([Fraction(a) for a in row])
    return rows


@st.composite
def _objectives(draw, n):
    """B^T diag(d) B over 0-n dependent rows B: PSD and mostly singular
    (flat directions for zero-curvature rays), and not PSD when some d_k
    is negative."""
    k = draw(st.integers(0, n))
    B = draw(_rows(k, n))
    d = draw(st.lists(st.sampled_from((1, 1, 2, Fraction(1, 2), 0, -1)),
                      min_size=k, max_size=k))
    return RatMat([[sum((dk * b[i] * b[j] for dk, b in zip(d, B)), _ZERO)
                    for j in range(n)] for i in range(n)], cols=n)


@st.composite
def _constraints(draw, n, m_eq, m_in):
    """Rows feasible at a drawn start point x0: the equalities hold there,
    and most inequalities are active (zero slack), so a warm start meets
    dependent active rows."""
    rows = draw(_rows(m_eq + m_in, n))
    x0 = RatVec(draw(st.lists(_entries, min_size=n, max_size=n)))
    eq, G = RatMat(rows[:m_eq], cols=n), RatMat(rows[m_eq:], cols=n)
    slack = draw(st.lists(st.sampled_from((0, 0, 1, Fraction(1, 2))),
                          min_size=m_in, max_size=m_in))
    return eq, eq.matvec(x0), G, G.matvec(x0) + RatVec(slack), x0


@st.composite
def _program_pairs(draw):
    """Two programs with one objective and one shape, their rows and start
    points drawn apart, each with its start point."""
    n = draw(st.integers(1, 4))
    m_eq, m_in = draw(st.integers(0, 2)), draw(st.integers(0, 5))
    Q = draw(_objectives(n))
    pairs = []
    for _ in range(2):
        eq, eq_rhs, G, G_rhs, x0 = draw(_constraints(n, m_eq, m_in))
        cobj = RatVec(draw(st.lists(_entries, min_size=n, max_size=n)))
        pairs.append((QuadraticProgram(Q, cobj, eq, eq_rhs, G, G_rhs), x0))
    return pairs


def _outcome(solve, qp, x0, factors):
    """The report, or the error raised (type, message and PSD witness)."""
    try:
        return solve(qp, x0, factors)
    except (NotPsdError, InternalInvariantError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _all_fractions(outcome) -> bool:
    if not isinstance(outcome, SolveReport):
        return True
    vectors = (outcome.x, outcome.eq_duals, outcome.ineq_duals, outcome.ray)
    return (outcome.value is None or type(outcome.value) is Fraction) and all(
        type(e) is Fraction for v in vectors if v is not None for e in v)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_program_pairs())
def test_solve_qp_equals_the_reference(pairs):
    # every (program, start) is solved from a fresh mapping, then all of
    # them in turn from one mapping the two systems share
    runs = [(qp, start) for qp, x0 in pairs for start in (x0, None)]
    want = [_outcome(reference_solve_qp, qp, start, None) for qp, start in runs]
    for (qp, start), expected in zip(runs, want):
        got = _outcome(solve_qp, qp, start, {})
        assert got == expected
        assert _all_fractions(got)
    shared: dict = {}
    for (qp, start), expected in zip(runs + runs, want + want):
        assert _outcome(solve_qp, qp, start, shared) == expected
