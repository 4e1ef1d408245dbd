"""``convexsolve.solve_qp`` against the active-set code it replaced.

Two references are kept, their code verbatim but for the names (the
docstrings are shortened):

- ``reference_solve_qp``, ``reference_active_rows``,
  ``reference_ratio_test``, ``reference_row_dot`` and
  ``reference_verify_kkt`` are an earlier ``solve_qp`` and its helpers.
  That reference checks the objective for semidefiniteness on every call,
  keys its factors by the exact KKT matrix and walks the constraint rows
  by hand.
- ``fraction_solve_qp``, ``fraction_active_rows``, ``fraction_ratio_test``
  and ``fraction_verify_kkt`` are the ``solve_qp`` and helpers the integer
  state replaced.  That reference carries x, g and the slacks as
  Fractions, one entry per constraint system in its mapping, one factor
  per working set.

``solve_qp`` carries x as ints over one denominator and g and the slacks
as ints over positive scales, and keys its factors by the least index of
each working row's identical rows.  It must give the identical report on
every program, each number a Fraction (``to_wire`` would render a stray
int as a JSON integer), or raise the same error.

The programs are tiny and degenerate on purpose: dependent and duplicated
rows, rows active at the start point, singular objectives whose flat
directions give zero-curvature rays, and now and then an objective that
is not PSD.  A second draw puts every constraint row, the objective, the
linear term and the start point over large, pairwise coprime
denominators, and moves the right-hand sides off their rows' denominators,
so each row's scale differs from the others' and from its right-hand
side's.  Each program is solved cold and warm from a fresh mapping, then
again with one mapping shared with a second system that has the same
objective and shapes but other rows: a mapping whose factors were not
kept apart per system would hand one system the other's factors.

``fraction_verify_kkt`` is also the reference of ``convexsolve._verify_kkt``,
which checks the same conditions on ints scaled from the program.  Both
must pass every OPTIMAL report of a QP and of an LP (Qobj None), and both
must raise the same message on a mutated one: an entry of x, an equality
dual, an inequality dual made negative, a slack made negative and a
complementary pair made nonzero on named programs over coprime
denominators, and one entry of the report, the linear term or a
right-hand side moved on drawn programs.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aldual.convexsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    QuadraticProgram,
    SolveReport,
    _verify_kkt,
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


def fraction_verify_kkt(Qobj, cobj, eq_lhs, eq_rhs, ineq_lhs, ineq_rhs,
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
    if not ineq_lhs.rows:
        return
    for slack, y in zip(ineq_rhs - ineq_lhs.matvec(x), y_in):
        if slack < 0:
            raise InternalInvariantError("inequality constraints violated")
        if y < 0:
            raise InternalInvariantError("negative inequality multiplier")
        if y * slack != 0:
            raise InternalInvariantError("complementary slackness violated")


def fraction_solve_qp(qp: QuadraticProgram, x0: RatVec | None = None,
                  factors: dict | None = None) -> SolveReport:
    """Primal active-set method in exact arithmetic."""
    n = len(qp.cobj)
    if factors is None:
        factors = {}
    system = (qp.Qobj, qp.eq_lhs, qp.ineq_lhs)
    table = factors.get(system)
    if table is None:
        psd = ldl_psd_check(qp.Qobj)
        if not psd.is_psd:
            raise NotPsdError("objective matrix is not PSD", witness=psd.witness)
        table = factors[system] = {}

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

    G = qp.ineq_lhs
    m_eq, m_in = qp.eq_lhs.rows, G.rows
    slack = list(qp.ineq_rhs - G.matvec(x))
    if any(si < 0 for si in slack):
        raise InternalInvariantError("start point violates an inequality row")
    working = [] if x0 is None else fraction_active_rows(qp.eq_lhs, G, slack)

    max_iters = 500 + 30 * (n + m_in + m_eq) ** 2
    for _ in range(max_iters):
        g = qp.Qobj.matvec(x) + qp.cobj
        fac = table.get(tuple(working))
        if fac is None:
            C = RatMat.vstack([qp.eq_lhs, G.submatrix(working, range(n))], cols=n)
            fac = table[tuple(working)] = factor(kkt_matrix(qp.Qobj, C))
        sol = fac.solve(RatVec(list(-g) + [_ZERO] * (m_eq + len(working))))
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
            gd = G.matvec(d)
            blocker, alpha = fraction_ratio_test(slack, gd, cap)
            if blocker is None and cap is None:
                report = SolveReport(status=UNBOUNDED, x=x, ray=d)
                _verify_ray(qp.cobj, qp.eq_lhs, qp.ineq_lhs, d, qp.Qobj)
                return report
            x = x + d.scale(alpha)
            if alpha:
                slack = [si - alpha * gdi if gdi else si for si, gdi in zip(slack, gd)]
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
        fraction_verify_kkt(qp.Qobj, qp.cobj, qp.eq_lhs, qp.eq_rhs, qp.ineq_lhs,
                        qp.ineq_rhs, report)
        return report
    raise InternalInvariantError("active-set iteration cap exceeded")


def fraction_active_rows(eq_lhs: RatMat, ineq_lhs: RatMat,
                     slack: list[Fraction]) -> list[int]:
    """The inequality rows at zero slack, kept while linearly independent."""
    active = [i for i, si in enumerate(slack) if si == 0]
    if not active:
        return []
    m_eq = eq_lhs.rows
    cands = int_rows([eq_lhs.row(i) for i in range(m_eq)]
                     + [ineq_lhs.row(i) for i in active])
    T = [list(col) for col in zip(*cands)]
    return [active[k - m_eq] for k in echelon(T, len(cands))[1] if k >= m_eq]


def fraction_ratio_test(slack: list[Fraction], gd: RatVec, cap: Fraction | None):
    """Largest feasible step along d, capped; smallest blocking row wins ties."""
    blocker, alpha = None, cap
    for i, gdi in enumerate(gd):
        if gdi > 0:
            ratio = slack[i] / gdi
            if alpha is None or ratio < alpha:
                alpha, blocker = ratio, i
    return blocker, alpha


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


# large primes: each denominator a coprime draw puts on a row, the
# objective, the linear term, a start point or a slack is one of these
_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117,
           1000121, 1000133, 1000151, 1000159, 1000171, 1000183, 1000187,
           1000193, 1000199, 1000211, 1000213, 1000231, 1000249, 1000253,
           1000273, 1000289, 1000291)


@st.composite
def _coprime_program_pairs(draw):
    """Two programs drawn as ``_program_pairs`` draws them, over large,
    pairwise coprime denominators: row i of each system times 1/p_i, and
    Q, each c and each start point over a prime of their own.  Each
    inequality's slack at the start point is a multiple of 1/q, q another
    prime, so no right-hand side has its row's denominator."""
    n = draw(st.integers(1, 4))
    m_eq, m_in = draw(st.integers(0, 2)), draw(st.integers(0, 5))
    primes = iter(draw(st.permutations(_PRIMES)))
    Q = draw(_objectives(n)).scale(Fraction(1, next(primes)))
    pairs = []
    for _ in range(2):
        rows = [[a / p for a in row]
                for row, p in zip(draw(_rows(m_eq + m_in, n)), primes)]
        px, pc, q = next(primes), next(primes), next(primes)
        x0 = RatVec(Fraction(a) / px
                    for a in draw(st.lists(_entries, min_size=n, max_size=n)))
        cobj = RatVec(Fraction(a) / pc
                      for a in draw(st.lists(_entries, min_size=n, max_size=n)))
        slack = draw(st.lists(st.sampled_from((0, 0, 1, Fraction(1, 2))),
                              min_size=m_in, max_size=m_in))
        eq, G = RatMat(rows[:m_eq], cols=n), RatMat(rows[m_eq:], cols=n)
        G_rhs = G.matvec(x0) + RatVec(Fraction(si) / q for si in slack)
        pairs.append((QuadraticProgram(Q, cobj, eq, eq.matvec(x0), G, G_rhs), x0))
    return pairs


def _check_against(reference, pairs):
    """Every (program, start) of the pairs is solved from a fresh mapping,
    then all of them in turn from one mapping the two systems share, and
    each outcome must be the reference's; returns the outcomes."""
    runs = [(qp, start) for qp, x0 in pairs for start in (x0, None)]
    want = [_outcome(reference, qp, start, None) for qp, start in runs]
    for (qp, start), expected in zip(runs, want):
        got = _outcome(solve_qp, qp, start, {})
        assert got == expected
        assert _all_fractions(got)
    shared: dict = {}
    for (qp, start), expected in zip(runs + runs, want + want):
        assert _outcome(solve_qp, qp, start, shared) == expected
    return want


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_program_pairs())
def test_solve_qp_equals_the_reference(pairs):
    _check_against(reference_solve_qp, pairs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(_program_pairs(), _coprime_program_pairs()))
def test_solve_qp_equals_the_fraction_state_reference(pairs):
    _check_against(fraction_solve_qp, pairs)


def _coprime_degenerate_qp():
    """min 1/2 |x - (0, 1/2, 1)|^2 on the simplex x1 + x2 + x3 = 1, its
    equality row given twice, under dependent and duplicated inequality
    rows, each row and its right-hand side over a large prime of its own:
    the starts (1, 0, 0) and (0, 1, 0) have active rows that depend on the
    equality rows and on each other."""
    p = iter(_PRIMES)

    def rows(M, h):
        ps = [next(p) for _ in M]
        return (RatMat([[Fraction(a, s) for a in row] for s, row in zip(ps, M)]),
                RatVec(Fraction(hi, s) for s, hi in zip(ps, h)))

    eq, eq_rhs = rows([[1, 1, 1], [2, 2, 2]], [1, 2])
    G, G_rhs = rows([[-1, 0, 0], [0, -1, 0], [0, -1, 0], [0, 0, -1], [0, 1, 1],
                     [-1, -1, -1], [1, 0, 0], [0, -2, 0]], [0, 0, 0, 0, 1, -1, 1, 0])
    return QuadraticProgram(RatMat.identity(3).scale(Fraction(1, next(p))),
                            RatVec([0, Fraction(-1, 2 * next(p)), Fraction(-1, next(p))]),
                            eq, eq_rhs, G, G_rhs)


def test_named_programs_equal_the_fraction_state_reference():
    # a degenerate warm start, a zero-curvature ray and a non-PSD objective,
    # over large coprime denominators: each outcome kind is reached
    degenerate = _coprime_degenerate_qp()
    ray = QuadraticProgram(RatMat([[0]]), RatVec([Fraction(-1, _PRIMES[0])]),
                           RatMat([], cols=1), RatVec([]),
                           RatMat([[Fraction(-1, _PRIMES[1])]]), RatVec([0]))
    not_psd = QuadraticProgram(RatMat([[Fraction(-1, _PRIMES[2])]]), RatVec([0]),
                               RatMat([], cols=1), RatVec([]), RatMat([], cols=1),
                               RatVec([]))
    outcomes = _check_against(fraction_solve_qp, [
        (degenerate, RatVec([1, 0, 0])), (degenerate, RatVec([0, 1, 0])),
        (ray, RatVec([0])), (not_psd, RatVec([0]))])
    kinds = [o.status if isinstance(o, SolveReport) else o[0] for o in outcomes]
    assert kinds == [OPTIMAL] * 4 + [UNBOUNDED] * 2 + [NotPsdError] * 2


# ------------------------------------------------------------ the KKT check

def _raised(verify, args, report):
    """The message of the InternalInvariantError that ``verify`` raises on
    the program ``args`` and ``report``, or None when it passes them."""
    try:
        verify(*args, report)
    except InternalInvariantError as exc:
        return str(exc)
    return None


def _kkt_case(kind):
    """A QP, or an LP (Qobj None), as the arguments of a KKT check, with its
    OPTIMAL report.  Every matrix row, the objective and each right-hand
    side sit over a large prime of their own.  Inequality rows 0 and 1 are
    positive multiples of each other, right-hand sides included, active at
    the optimum with a nonzero right-hand side, and one of them has a
    positive multiplier; at least one other row is inactive."""
    p = iter(_PRIMES)

    def row(entries):
        q = next(p)
        return [Fraction(a, q) for a in entries]

    eq, eq_rhs = RatMat([row([1, 1, 1])]), RatVec([Fraction(1, next(p))])
    pair = [row([-1, 0, 0]), row([-2, 0, 0])]
    h_pair = Fraction(-1, 4 * next(p))  # row 0 reads x1 >= about 1/4
    a = pair[0][0] / pair[1][0]
    if kind == "qp":
        Qobj = RatMat.identity(3).scale(Fraction(1, next(p)))
        cobj = RatVec(row([1, -1, -1]))
        G = RatMat(pair + [row([0, 0, 1]), row([0, -1, 0])])
        h = RatVec([h_pair, h_pair / a, Fraction(5, next(p)), Fraction(1, next(p))])
        report = solve_qp(QuadraticProgram(Qobj, cobj, eq, eq_rhs, G, h))
    else:
        Qobj, cobj = None, RatVec(row([3, 1, 2]))
        G = RatMat(pair + [row([0, -1, 0]), row([0, 0, -1]), row([0, 1, 0])])
        h = RatVec([h_pair, h_pair / a, 0, 0, Fraction(5, next(p))])
        report = solve_lp(LinearProgram(cobj, eq, eq_rhs, G, h))
    return (Qobj, cobj, eq, eq_rhs, G, h), report


def _mutations(args, report):
    """The five mutations of the correct report of a ``_kkt_case``, each as
    (what is mutated, the arguments, the report, the message it must
    raise): an entry of x, an equality dual, an inequality dual made
    negative (the multiplier of row 1 moved onto row 0, its positive
    multiple, past zero, so stationarity still holds), a slack made
    negative and a complementary pair made nonzero (a right-hand side
    moved)."""
    Qobj, G, h = args[0], args[4], args[5]
    x, y_eq, y_in = (list(v) for v in (report.x, report.eq_duals, report.ineq_duals))
    nudge = Fraction(1, _PRIMES[-1])

    def moved(v, i, by):
        v = list(v)
        v[i] += by
        return RatVec(v)

    a = next(g0 / g1 for g0, g1 in zip(G.row(0), G.row(1)) if g1)  # G_0 = a G_1
    slack = h - G.matvec(report.x)
    positive = next(i for i, y in enumerate(y_in) if y > 0)
    inactive = next(i for i, si in enumerate(slack) if si > 0)
    return [
        ("x", args, replace(report, x=moved(x, 0, nudge)),
         "stationarity residual nonzero" if Qobj is not None
         else "equality constraints violated"),
        ("equality dual", args, replace(report, eq_duals=moved(y_eq, 0, nudge)),
         "stationarity residual nonzero"),
        ("inequality dual", args,
         replace(report, ineq_duals=RatVec([y_in[0] + (y_in[1] + 1) / a, -1, *y_in[2:]])),
         "negative inequality multiplier"),
        ("slack", (*args[:5], moved(h, inactive, -slack[inactive] - nudge)), report,
         "inequality constraints violated"),
        ("complementary pair", (*args[:5], moved(h, positive, nudge)), report,
         "complementary slackness violated"),
    ]


@pytest.mark.parametrize("kind", ["qp", "lp"])
def test_both_kkt_checks_reject_each_mutation(kind):
    # the integer check and the Fraction check it replaced pass the solver's
    # report, and each mutation of it makes both raise the same message
    args, report = _kkt_case(kind)
    G, h = args[4], args[5]
    assert report.status == OPTIMAL
    assert list(h - G.matvec(report.x))[:2] == [0, 0]
    assert [_raised(v, args, report) for v in (_verify_kkt, fraction_verify_kkt)] \
        == [None, None]
    for what, margs, mreport, message in _mutations(args, report):
        got = [_raised(v, margs, mreport) for v in (_verify_kkt, fraction_verify_kkt)]
        assert got == [message, message], what


_NUDGES = st.sampled_from((1, -1, Fraction(1, 2), Fraction(-1, 3),
                           Fraction(1, _PRIMES[-1])))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(_program_pairs(), _coprime_program_pairs()), st.data())
def test_kkt_checks_agree_on_mutated_reports(pairs, data):
    # each OPTIMAL report of a drawn QP, and of the LP on its rows, passes
    # both checks; one entry of the report or of a right-hand side or the
    # linear term, moved, makes both raise the same message or neither
    qp, x0 = pairs[0]
    lp = LinearProgram(qp.cobj, qp.eq_lhs, qp.eq_rhs, qp.ineq_lhs, qp.ineq_rhs)
    for Qobj in (qp.Qobj, None):
        try:
            report = solve_lp(lp) if Qobj is None else solve_qp(qp, x0)
        except NotPsdError:
            continue
        if report.status != OPTIMAL:
            continue
        args = [Qobj, qp.cobj, qp.eq_lhs, qp.eq_rhs, qp.ineq_lhs, qp.ineq_rhs]
        assert [_raised(v, args, report) for v in (_verify_kkt, fraction_verify_kkt)] \
            == [None, None]
        entries = {"x": report.x, "eq_duals": report.eq_duals,
                   "ineq_duals": report.ineq_duals, 1: qp.cobj, 3: qp.eq_rhs,
                   5: qp.ineq_rhs}
        target = data.draw(st.sampled_from([k for k, v in entries.items() if len(v)]))
        v = list(entries[target])
        v[data.draw(st.integers(0, len(v) - 1))] += data.draw(_NUDGES)
        if isinstance(target, str):
            report = replace(report, **{target: RatVec(v)})
        else:
            args[target] = RatVec(v)
        assert _raised(_verify_kkt, args, report) == _raised(fraction_verify_kkt, args, report)
