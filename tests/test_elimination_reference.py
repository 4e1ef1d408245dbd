"""``numkit``'s elimination kernel against the Fraction code it replaced.

``reference_solve_linear``, ``reference_ldl_psd_check`` and
``reference_active_rows`` below are the earlier ``solve_linear``,
``ldl_psd_check`` and ``convexsolve._active_rows`` kept verbatim but for
their names (the PSD test's three-field report is kept as a namedtuple):
a Bareiss forward elimination with back-substitution in Fractions, a
Schur update in Fractions and an echelon basis in Fractions.
The Gauss-Jordan ``numkit.pivot`` scales rows by positive factors only
(and negates whole tableaux), so the pivot columns, the rank, the signs
the PSD test reads and every number read off the tableau are the same:
each function must return the identical result on every input, each
number a Fraction (``to_wire`` would render a stray int as a JSON
integer, not as the string of a rational).  ``numkit.factor`` reduces
``[M | I]`` once and reads every right-hand side off that one reduction:
each of its solves must equal the reference's report for that
right-hand side, and its kernel the reference's nullspace.
"""

from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aldual.convexsolve import _active_rows
from aldual.errors import (
    DimMismatchError,
    InternalInvariantError,
    NotSquareError,
    NotSymmetricError,
)
from aldual.numkit import (
    INCONSISTENT,
    UNDERDETERMINED,
    UNIQUE,
    LinearSolveReport,
    RatMat,
    RatVec,
    common_denominator,
    factor,
    int_rows,
    int_vector,
    ldl_psd_check,
    pivot,
    quad_form,
    rat_vector,
    solve_linear,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

# the earlier report, which also carried the pivots of the elimination
PsdReport = namedtuple("PsdReport", "is_psd witness pivots")


def reference_solve_linear(M: RatMat, v: RatVec) -> LinearSolveReport:
    """Solve M x = v by fraction-free (Bareiss) Gaussian elimination.

    Each row of [M | v] is scaled to integers and the elimination runs on
    Python ints: every update ``(piv * a - factor * b) // prev`` is an exact
    division by the previous pivot (Sylvester's identity), checked, so a
    nonzero remainder raises InternalInvariantError.  Columns are taken in
    order; a column without a pivot is free.  Back-substitution is in
    Fractions.
    """
    if M.rows != len(v):
        raise DimMismatchError(f"solve_linear: {M.rows} rows vs rhs dim {len(v)}")
    nr, nc = M.rows, M.cols
    aug = []
    for row, vi in zip(M.row_list(), v):
        row.append(vi)
        den = common_denominator(row)
        aug.append([a.numerator * (den // a.denominator) for a in row])

    prev = 1
    pivot_cols: list[int] = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        prow = aug[r]
        piv = prow[c]
        for i in range(r + 1, nr):
            row = aug[i]
            factor = row[c]
            for j in range(c, nc + 1):
                q, rem = divmod(piv * row[j] - factor * prow[j], prev)
                if rem:
                    raise InternalInvariantError("inexact Bareiss division")
                row[j] = q
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == nr:
            break
    rank = r

    for i in range(rank, nr):
        if aug[i][nc] != 0:
            return LinearSolveReport(INCONSISTENT, None, rank, ())

    def back_substitute(rhs_col: list[int], free_assign: dict[int, Fraction]):
        x = [_ZERO] * nc
        for j, val in free_assign.items():
            x[j] = val
        for i in range(rank - 1, -1, -1):
            c = pivot_cols[i]
            s = Fraction(rhs_col[i])
            for j in range(c + 1, nc):
                if aug[i][j] != 0 and x[j] != 0:
                    s -= aug[i][j] * x[j]
            x[c] = s / aug[i][c]
        return x

    free_cols = [j for j in range(nc) if j not in pivot_cols]
    particular = RatVec._trusted(tuple(
        back_substitute([aug[i][nc] for i in range(rank)], {})))
    basis = []
    zero_rhs = [0] * rank
    for fc in free_cols:
        basis.append(RatVec._trusted(tuple(back_substitute(zero_rhs, {fc: _ONE}))))
    status = UNIQUE if not free_cols else UNDERDETERMINED
    return LinearSolveReport(status, particular, rank, tuple(basis))


def reference_ldl_psd_check(M: RatMat) -> PsdReport:
    """Decide M >= 0 exactly by symmetric pivoted elimination.

    Pivots are taken on positive diagonal entries; a negative diagonal or a
    zero diagonal with a nonzero residual row yields a negative-curvature
    witness, lifted back through the elimination steps.
    """
    if not M.is_square():
        raise NotSquareError(f"matrix is {M.rows}x{M.cols}")
    if not M.is_symmetric():
        raise NotSymmetricError("matrix is not symmetric")
    n = M.rows
    S = M.row_list()
    active = list(range(n))
    # each step: (pivot index, pivot value, pivot row restricted to then-active indices)
    steps: list[tuple[int, Fraction, dict[int, Fraction]]] = []
    pivots: list[Fraction] = []

    def lift(vcur: dict[int, Fraction]) -> RatVec:
        for p, d, prow in reversed(steps):
            s = sum((prow[j] * vj for j, vj in vcur.items() if j != p), _ZERO)
            vcur[p] = -s / d
        full = [_ZERO] * n
        for j, vj in vcur.items():
            full[j] = vj
        w = RatVec(full)
        if quad_form(M, w) >= 0:
            raise InternalInvariantError("lifted witness lost negative curvature")
        return w

    while active:
        neg = next((i for i in active if S[i][i] < 0), None)
        if neg is not None:
            return PsdReport(False, lift({neg: _ONE}), tuple(pivots))
        pos = next((i for i in active if S[i][i] > 0), None)
        if pos is None:
            # all remaining diagonals are zero: rows must vanish entirely
            for ai, i in enumerate(active):
                for j in active[ai + 1 :]:
                    if S[i][j] != 0:
                        t = -_ONE if S[i][j] > 0 else _ONE
                        return PsdReport(False, lift({i: _ONE, j: t}), tuple(pivots))
            return PsdReport(True, None, tuple(pivots))
        d = S[pos][pos]
        prow = {j: S[pos][j] for j in active}
        steps.append((pos, d, prow))
        pivots.append(d)
        active.remove(pos)
        for i in active:
            si = S[pos][i]
            if si == 0:
                continue
            for j in active:
                S[i][j] -= si * S[pos][j] / d
    return PsdReport(True, None, tuple(pivots))


def reference_active_rows(eq_rows: list[list[Fraction]], G_rows: list[list[Fraction]],
                 slack: list[Fraction]) -> list[int]:
    """The inequality rows at zero slack, kept while linearly independent.

    Rows are taken greedily in row order: a row enters when it is not in
    the span of the equality rows and of the rows taken before it.  The
    span is kept as an echelon basis, one pivot column per vector; a row
    reduced to zero against it is dependent and left out.
    """
    active = [i for i, si in enumerate(slack) if si == 0]
    if not active:
        return []
    basis: list[tuple[int, list[Fraction]]] = []

    def enters(row: list[Fraction]) -> bool:
        v = list(row)
        for p, b in basis:
            if v[p]:
                f = v[p] / b[p]
                v = [vi - f * bi if bi else vi for vi, bi in zip(v, b)]
        p = next((j for j, vj in enumerate(v) if vj), None)
        if p is not None:
            basis.append((p, v))
        return p is not None

    n = len(G_rows[0])
    for row in eq_rows:
        enters(row)
    working = []
    for i in active:
        if len(basis) == n:
            break
        if enters(G_rows[i]):
            working.append(i)
    return working


# zero-heavy entries with denominators up to 12
_entries = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                     st.fractions(-3, 3, max_denominator=12))
_factors = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))


@st.composite
def _rows(draw, m, n):
    """m rows of n entries, each row after the first either drawn, a
    multiple of an earlier row or the sum of two earlier rows."""
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
def _systems(draw):
    """M x = v with 0-6 rows and columns.  The right-hand side is either
    drawn (inconsistent whenever it breaks a row dependency) or M x0 at a
    drawn x0 (consistent, singular whenever a row or column depends)."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    M = RatMat(draw(_rows(m, n)), cols=n)
    if draw(st.booleans()):
        v = RatVec(draw(st.lists(_entries, min_size=m, max_size=m)))
    else:
        v = M.matvec(RatVec(draw(st.lists(_entries, min_size=n, max_size=n))))
    return M, v


@st.composite
def _right_hand_sides(draw):
    """A square, wide or tall M of 0-6 rows and columns, and one to four
    right-hand sides for it, each drawn (inconsistent whenever it breaks a
    row dependency) or M x0 at a drawn x0 (consistent)."""
    shape = draw(st.sampled_from(("square", "wide", "tall")))
    m = draw(st.integers(0 if shape != "tall" else 1, 6))
    n = m if shape == "square" else draw(
        st.integers(m + 1, 7) if shape == "wide" else st.integers(0, m - 1))
    M = RatMat(draw(_rows(m, n)), cols=n)
    vs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            vs.append(RatVec(draw(st.lists(_entries, min_size=m, max_size=m))))
        else:
            vs.append(M.matvec(RatVec(draw(st.lists(_entries, min_size=n,
                                                    max_size=n)))))
    return M, vs


@st.composite
def _symmetric(draw):
    """0-6 square symmetric matrices: either B^T diag(d) B over dependent
    rows B, PSD when every d_k >= 0 and mostly not otherwise, or an upper
    triangle drawn entry by entry (zero diagonals beside nonzero entries)."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        k = draw(st.integers(0, 6))
        B = draw(_rows(k, n))
        d = draw(st.lists(st.sampled_from((0, 1, 2, Fraction(1, 3), -1)),
                          min_size=k, max_size=k))
        return RatMat([[sum((dk * b[i] * b[j] for dk, b in zip(d, B)), _ZERO)
                        for j in range(n)] for i in range(n)], cols=n)
    S = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = Fraction(draw(_entries))
    return RatMat(S, cols=n)


@st.composite
def _working_sets(draw):
    """0-3 equality rows and 0-6 inequality rows over 0-6 variables, drawn
    together so an inequality row may repeat or sum equality rows, with
    zero-heavy slacks."""
    n, m_eq, m_in = (draw(st.integers(0, 6)), draw(st.integers(0, 3)),
                     draw(st.integers(0, 6)))
    rows = draw(_rows(m_eq + m_in, n))
    slack = draw(st.lists(st.sampled_from((0, 0, 1, Fraction(1, 2))),
                          min_size=m_in, max_size=m_in))
    return rows[:m_eq], rows[m_eq:], [Fraction(s) for s in slack]


def _all_fractions(vectors) -> bool:
    return all(type(e) is Fraction for v in vectors if v is not None for e in v)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_systems())
def test_solve_linear_equals_fraction_back_substitution(system):
    got, want = solve_linear(*system), reference_solve_linear(*system)
    assert got == want
    assert _all_fractions((got.x, *got.nullspace))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_right_hand_sides())
def test_factor_equals_fraction_back_substitution(system):
    # one factor of M serves every right-hand side; its kernel is the
    # reference's nullspace, and each solve the reference's whole report
    M, vs = system
    fac = factor(M)
    want_kernel = reference_solve_linear(M, RatVec.zeros(M.rows)).nullspace
    assert fac.kernel == want_kernel
    assert _all_fractions(fac.kernel)
    for v in vs:
        got, want = fac.solve(v), reference_solve_linear(M, v)
        assert got == want
        assert _all_fractions((got.x, *got.nullspace))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_right_hand_sides())
def test_factor_int_read_equals_fraction_back_substitution(system):
    # the read of the ints L v gives the reference's solution of M x = v
    # as int numerators over det * L, and None where it is inconsistent
    M, vs = system
    fac = factor(M)
    for v in vs:
        nums, L = int_vector(v)
        x, want = fac.solve_ints(nums), reference_solve_linear(M, v)
        if want.status == INCONSISTENT:
            assert x is None
        else:
            assert all(type(a) is int for a in x)
            assert rat_vector(x, fac.det * L) == want.x


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_symmetric())
def test_psd_check_equals_fraction_schur_update(M):
    got, want = ldl_psd_check(M), reference_ldl_psd_check(M)
    assert (got.is_psd, got.witness) == (want.is_psd, want.witness)
    assert _all_fractions((got.witness,))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_working_sets())
def test_active_rows_equal_fraction_echelon_basis(args):
    eq_rows, G_rows, slack = args
    got = _active_rows(int_rows(eq_rows), int_rows(G_rows), slack)
    assert got == reference_active_rows(*args)


def test_pivot_checks_each_division():
    # a tableau over det = 2 whose update 3 * 2 - 1 * 1 = 5 is odd is not
    # one of minors: the division by 2 must raise
    with pytest.raises(InternalInvariantError):
        pivot([[3, 1], [1, 2]], 0, 0, 2)
