from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from aldual.errors import (
    DimMismatchError,
    NotSquareError,
    NotSymmetricError,
    RationalParseError,
)
from aldual.numkit import (
    INCONSISTENT,
    RatMat,
    RatVec,
    UNDERDETERMINED,
    UNIQUE,
    ceil_sqrt,
    factor,
    format_rat,
    int_matrix,
    int_vector,
    kkt_matrix,
    ldl_psd_check,
    parse_rat,
    quad_form,
    rat_vector,
    solve_linear,
    sqrt_upper,
    to_wire,
)


def rand_rat(rng, mag=5):
    den = rng.choice((1, 2, 3, 4))
    return Fraction(rng.randint(-mag * den, mag * den), den)


# ---------------------------------------------------------------- rationals

def test_parse_rat_basic():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-2") == Fraction(-2)
    assert parse_rat("-6/4") == Fraction(-3, 2)
    assert parse_rat("0") == 0


@pytest.mark.parametrize("bad", ["1/0", "1/-2", "+3", "1.5", "a", "", "3/4/5", "1 /2"])
def test_parse_rat_rejects(bad):
    with pytest.raises(RationalParseError):
        parse_rat(bad)


def test_format_round_trip():
    rng = Random(0)
    for _ in range(200):
        q = rand_rat(rng, 1000)
        assert parse_rat(format_rat(q)) == q
    assert format_rat(Fraction(5, 1)) == "5"
    assert format_rat(Fraction(-7, 3)) == "-7/3"


@dataclass(frozen=True)
class _Inner:
    weight: Fraction
    count: int


@dataclass(frozen=True)
class _Outer:
    z: RatVec
    name: str
    inner: _Inner
    flag: bool
    missing: object
    a: tuple


def test_to_wire_scalars():
    assert to_wire(Fraction(-6, 4)) == "-3/2"
    assert to_wire(Fraction(5)) == "5"
    assert to_wire(7) == 7 and type(to_wire(7)) is int
    assert to_wire(True) is True
    assert to_wire(None) is None
    assert to_wire("linf") == "linf"


def test_to_wire_vectors_and_matrices():
    assert to_wire(RatVec(["1/2", "-3", "0"])) == ["1/2", "-3", "0"]
    assert to_wire(RatMat([[1, "1/3"], [0, -2]])) == [["1", "1/3"], ["0", "-2"]]
    assert to_wire(RatMat.zeros(0, 3)) == []
    assert to_wire(RatMat([[]])) == [[]]
    assert to_wire((1, -2)) == [1, -2]
    assert to_wire([Fraction(1, 2), None]) == ["1/2", None]


def test_to_wire_dataclass_in_field_order():
    value = _Outer(RatVec(["-1/4"]), "x", _Inner(Fraction(3, 8), 2), False,
                   None, (RatVec([]), 0))
    doc = to_wire(value)
    assert list(doc) == ["z", "name", "inner", "flag", "missing", "a"]
    assert doc == {"z": ["-1/4"], "name": "x",
                   "inner": {"weight": "3/8", "count": 2}, "flag": False,
                   "missing": None, "a": [[], 0]}
    assert list(doc["inner"]) == ["weight", "count"]


def test_to_wire_ignores_attributes_outside_the_fields():
    value = _Inner(Fraction(1), 1)
    object.__setattr__(value, "cached", Fraction(9))
    assert to_wire(value) == {"weight": "1", "count": 1}


def test_to_wire_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_wire(1.5)


def test_field_exactness():
    rng = Random(1)
    for _ in range(1000):
        a, b = rand_rat(rng), rand_rat(rng)
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_ceil_sqrt():
    assert ceil_sqrt(0) == 0
    assert ceil_sqrt(1) == 1
    assert ceil_sqrt(2) == 2
    assert ceil_sqrt(4) == 2
    assert ceil_sqrt(Fraction(1, 4)) == 1
    assert ceil_sqrt(Fraction(17)) == 5
    rng = Random(2)
    for _ in range(300):
        q = abs(rand_rat(rng, 50))
        k = ceil_sqrt(q)
        assert k * k >= q
        assert k == 0 or (k - 1) * (k - 1) < q


def test_sqrt_upper_bounds_and_monotone():
    rng = Random(3)
    vals = sorted(abs(rand_rat(rng, 20)) for _ in range(100))
    prev = None
    for q in vals:
        u = sqrt_upper(q)
        assert u * u >= q
        if prev is not None:
            assert u >= prev
        prev = u
    # shrinks with the value along a dyadic schedule
    diams = [sqrt_upper(Fraction(1, 2**k)) for k in range(21)]
    assert all(a >= b for a, b in zip(diams, diams[1:]))
    assert diams[20] <= Fraction(1, 2**9)


# ------------------------------------------------------------ vec / matrix

def test_vec_ops():
    v = RatVec([1, 2, 3])
    w = RatVec(["1/2", 0, -1])
    assert (v + w)[0] == Fraction(3, 2)
    assert (v - w)[2] == 4
    assert v.dot(w) == Fraction(1, 2) - 3
    assert (-v)[1] == -2
    assert v.scale(Fraction(1, 3)) == RatVec([Fraction(1, 3), Fraction(2, 3), 1])
    with pytest.raises(DimMismatchError):
        v.dot(RatVec([1]))


def test_mat_ops():
    M = RatMat([[1, 2], [3, 4], [5, 6]])
    assert M.rows == 3 and M.cols == 2
    assert M.transpose().row(0) == RatVec([1, 3, 5])
    assert M.matvec(RatVec([1, -1])) == RatVec([-1, -1, -1])
    assert M.tmatvec(RatVec([1, 0, 1])) == RatVec([6, 8])
    P = M.transpose().matmul(M)
    assert P.is_symmetric()
    assert P[0, 1] == 1 * 2 + 3 * 4 + 5 * 6
    with pytest.raises(DimMismatchError):
        M.matvec(RatVec([1, 2, 3]))
    E = RatMat([], cols=3)
    assert E.rows == 0 and E.cols == 3
    assert E.tmatvec(RatVec([])) == RatVec([0, 0, 0])


# ------------------------------------------ vec / matrix against plain lists
#
# Every result is compared with the same sum over plain lists of Fractions,
# and every entry must be a Fraction itself: the module builds its own
# results without coercing them again, so an int leaking out of an empty
# sum would go unnoticed there.

_DERANDOMIZED = settings(derandomize=True, max_examples=60, deadline=None)

# zero-heavy entries, ints and Fractions both, as the public constructors
# accept either
_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                     st.fractions(-3, 3, max_denominator=4))


def _vec(dim):
    return st.lists(_entries, min_size=dim, max_size=dim)


def _all_fractions(values) -> bool:
    return all(type(e) is Fraction for e in values)


@st.composite
def _vec_pair(draw):
    dim = draw(st.integers(0, 4))
    return draw(_vec(dim)), draw(_vec(dim))


@st.composite
def _mat_case(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return (draw(st.lists(_vec(cols), min_size=rows, max_size=rows)), cols,
            draw(_vec(cols)), draw(_vec(rows)))


@_DERANDOMIZED
@given(_vec_pair(), _entries, st.slices(5))
def test_vec_ops_match_plain_lists(pair, k, cut):
    a, b = [[Fraction(e) for e in v] for v in pair]
    v, w = RatVec(pair[0]), RatVec(pair[1])
    k = Fraction(k)
    for got, want in [
        (v + w, [x + y for x, y in zip(a, b)]),
        (v - w, [x - y for x, y in zip(a, b)]),
        (-v, [-x for x in a]),
        (v.scale(k), [k * x for x in a]),
        (v[cut], a[cut]),
    ]:
        assert isinstance(got, RatVec)
        assert list(got) == want
        assert _all_fractions(got)
    dot = v.dot(w)
    assert dot == sum((x * y for x, y in zip(a, b)), Fraction(0))
    assert type(dot) is Fraction


@_DERANDOMIZED
@given(_mat_case())
def test_mat_products_match_plain_lists(case):
    rows, cols, x, y = case
    M = RatMat(rows, cols=cols)
    A = [[Fraction(e) for e in row] for row in rows]
    x, y = [Fraction(e) for e in x], [Fraction(e) for e in y]
    Mx = M.matvec(RatVec(x))
    assert list(Mx) == [sum((a * b for a, b in zip(row, x)), Fraction(0))
                        for row in A]
    MTy = M.tmatvec(RatVec(y))
    assert list(MTy) == [sum((A[i][j] * y[i] for i in range(len(A))), Fraction(0))
                         for j in range(cols)]
    assert len(Mx) == len(A) and len(MTy) == cols
    assert _all_fractions(Mx) and _all_fractions(MTy)


@_DERANDOMIZED
@given(_mat_case(), _entries, st.data())
def test_block_ops_match_plain_lists(case, k, data):
    # the block operations build their results unchecked: each must equal
    # the matrix the checking constructor builds from plain lists
    rows, cols, x, _ = case
    M = RatMat(rows, cols=cols)
    A = [[Fraction(e) for e in row] for row in rows]
    At = [[A[i][j] for i in range(len(A))] for j in range(cols)]
    k = Fraction(k)
    j0 = data.draw(st.integers(0, cols))
    j1 = data.draw(st.integers(j0, cols))
    idx = data.draw(st.lists(st.integers(0, len(A) - 1), max_size=3)) if A else []
    n = len(A)
    Q = RatMat([[A[i][j] if j < cols else 0 for j in range(n)] for i in range(n)],
               cols=n)
    C = RatMat(At, cols=n)
    for got, want_rows, want_cols in [
        (M.transpose(), At, len(A)),
        (M.scale(k), [[k * a for a in row] for row in A], cols),
        (M + M, [[2 * a for a in row] for row in A], cols),
        (M.col_block(j0, j1), [row[j0:j1] for row in A], j1 - j0),
        (M.submatrix(idx, range(cols)), [A[i] for i in idx], cols),
        (RatMat.vstack([M, M.submatrix(idx, range(cols))], cols=cols),
         A + [A[i] for i in idx], cols),
        (RatMat.hstack([M, M]), [row + row for row in A], 2 * cols),
        (M.matmul(M.transpose()),
         [[sum((a * b for a, b in zip(r, s)), Fraction(0)) for s in A] for r in A],
         len(A)),
        (RatMat.zeros(len(A), cols), [[0] * cols for _ in A], cols),
        (RatMat.identity(cols), [[int(i == j) for j in range(cols)]
                                 for i in range(cols)], cols),
        (kkt_matrix(Q, C),
         [Q.row_list()[i] + [At[j][i] for j in range(cols)] for i in range(n)]
         + [row + [0] * cols for row in At], n + cols),
    ]:
        assert got == RatMat(want_rows, cols=want_cols)
        assert (got.rows, got.cols) == (len(want_rows), want_cols)
        assert all(_all_fractions(got.row(i)) for i in range(got.rows))
    with pytest.raises(DimMismatchError):
        M.col_block(0, cols + 1)
    with pytest.raises(DimMismatchError):
        RatMat.vstack([RatMat([[0]]), M], cols=2)
    with pytest.raises(DimMismatchError):
        kkt_matrix(Q, RatMat([], cols=n + 1))


# ---------------------------------------------------------------- PSD test

def _det(M: RatMat) -> Fraction:
    n = M.rows
    if n == 0:
        return Fraction(1)
    rows = M.row_list()
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            for j in range(c, n):
                rows[i][j] -= f * rows[c][j]
    return det


def _psd_by_minors(M: RatMat) -> bool:
    # PSD iff every principal minor is nonnegative
    n = M.rows
    idx = range(n)
    for k in range(1, n + 1):
        for sub in combinations(idx, k):
            if _det(M.submatrix(sub, sub)) < 0:
                return False
    return True


def test_psd_identity_and_zero():
    assert ldl_psd_check(RatMat.identity(2)).is_psd
    assert ldl_psd_check(RatMat.zeros(2, 2)).is_psd


def test_psd_indefinite_witness():
    rep = ldl_psd_check(RatMat([[1, 2], [2, 1]]))
    assert not rep.is_psd
    assert quad_form(RatMat([[1, 2], [2, 1]]), rep.witness) < 0


def test_psd_input_errors():
    with pytest.raises(NotSquareError):
        ldl_psd_check(RatMat([[1, 2]]))
    with pytest.raises(NotSymmetricError):
        ldl_psd_check(RatMat([[1, 2], [0, 1]]))


def test_psd_gram_matrices_with_random_quadratic_forms():
    rng = Random(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        L = RatMat([[rand_rat(rng, 3) for _ in range(n)]
                    for _ in range(rng.randint(1, n))], cols=n)
        M = L.transpose().matmul(L)
        rep = ldl_psd_check(M)
        assert rep.is_psd
        for _ in range(50):
            x = RatVec([rand_rat(rng, 5) for _ in range(n)])
            assert quad_form(M, x) >= 0


def test_psd_matches_principal_minor_oracle():
    rng = Random(5)
    agree = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        sym = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = rand_rat(rng, 2)
        M = RatMat(sym)
        rep = ldl_psd_check(M)
        assert rep.is_psd == _psd_by_minors(M)
        if not rep.is_psd:
            assert quad_form(M, rep.witness) < 0
        agree += 1
    assert agree == 120


def test_psd_semidefinite_boundary():
    # rank-1 PSD with a zero leading diagonal entry
    M = RatMat([[0, 0, 0], [0, 1, 2], [0, 2, 4]])
    assert ldl_psd_check(M).is_psd
    # zero diagonal with nonzero off-diagonal is not PSD
    M2 = RatMat([[0, 1], [1, 0]])
    rep = ldl_psd_check(M2)
    assert not rep.is_psd and quad_form(M2, rep.witness) < 0


# ------------------------------------------------------------ linear solve

def test_solve_identity():
    rep = solve_linear(RatMat.identity(2), RatVec([3, 5]))
    assert rep.status == UNIQUE
    assert rep.x == RatVec([3, 5])


def test_solve_scalar():
    rep = solve_linear(RatMat([[2]]), RatVec([1]))
    assert rep.x == RatVec([Fraction(1, 2)])


def test_solve_inconsistent():
    rep = solve_linear(RatMat([[1, 1], [2, 2]]), RatVec([1, 3]))
    assert rep.status == INCONSISTENT
    assert rep.rank == 1


def test_solve_dim_mismatch():
    with pytest.raises(DimMismatchError):
        solve_linear(RatMat([[1, 1]]), RatVec([1, 2]))


@pytest.mark.parametrize("M, v, status", [
    ([[2, 1], [1, Fraction(1, 3)]], [1, Fraction(5, 7)], UNIQUE),
    ([[1, 1], [2, 2]], [Fraction(1, 3), Fraction(2, 3)], UNDERDETERMINED),
    ([[Fraction(1, 2), 1, 0]], [Fraction(3, 5)], UNDERDETERMINED),
    ([[1, 1], [2, 2]], [1, 3], INCONSISTENT),
])
def test_factor_int_read_equals_solve(M, v, status):
    # the read of the ints L v is the read of v, numerators over det * L
    # (None when inconsistent), and it is linear in the right-hand side
    fac, v = factor(RatMat(M)), RatVec(v)
    rep = fac.solve(v)
    nums, L = int_vector(v)
    x = fac.solve_ints(nums)
    assert rep.status == status
    if status == INCONSISTENT:
        assert x is None
    else:
        assert all(type(a) is int for a in x)
        assert rat_vector(x, fac.det * L) == rep.x
        assert fac.solve_ints([-3 * a for a in nums]) == [-3 * a for a in x]


def test_factor_int_read_dim_mismatch():
    with pytest.raises(DimMismatchError):
        factor(RatMat([[1, 1]])).solve_ints([1, 2])


def test_int_forms_round_trip():
    v = RatVec([Fraction(1, 6), 0, Fraction(-3, 4), 2])
    assert int_vector(v) == ([2, 0, -9, 24], 12)
    assert rat_vector(*int_vector(v)) == v
    assert all(type(a) is Fraction for a in rat_vector([0, 3], 6))
    assert int_vector(RatVec([])) == ([], 1)
    M = RatMat([[Fraction(1, 2), 0], [Fraction(2, 3), 1]])
    assert int_matrix(M) == ([[3, 0], [4, 6]], 6)
    assert int_matrix(RatMat([], cols=2)) == ([], 1)


def test_solve_random_nonsingular():
    rng = Random(6)
    cases = [
        # rows with mixed denominators, each scaled to integers differently
        (RatMat([["1/3", "1/2", 0], ["5/6", "-1/4", "2/7"], [1, "1/9", "-3/5"]]),
         RatVec(["1/5", "-7/2", "4/3"])),
        (RatMat([], cols=0), RatVec([])),  # 0 x 0
    ]
    while len(cases) < 27:
        n = rng.randint(1, 5)
        M = RatMat([[rand_rat(rng, 4) for _ in range(n)] for _ in range(n)])
        if _det(M) == 0:
            continue
        cases.append((M, RatVec([rand_rat(rng, 4) for _ in range(n)])))
    for M, v in cases:
        rep = solve_linear(M, v)
        assert rep.status == UNIQUE and rep.rank == M.rows
        assert M.matvec(rep.x) == v


def test_solve_singular_consistent_parametrization():
    rng = Random(7)
    cases = []
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        M = RatMat([[rand_rat(rng, 3) for _ in range(cols)] for _ in range(rows)])
        cases.append((M, RatVec([rand_rat(rng, 3) for _ in range(cols)])))
    cases += [
        # column 1 has no pivot after the first step, so the next update
        # divides by the first pivot 2 exactly: (-10 * -2 + 22 * 6) / 2
        (RatMat([[2, 1, 4, 1], [4, 2, 3, 5], [6, 3, 1, 2]]), RatVec([1, -1, 2, 0])),
        # mixed denominators with a dependent row (row 2 = 3 * row 0)
        (RatMat([["1/2", "2/3", 1], ["-1/4", 0, "5/6"], ["3/2", 2, 3]]),
         RatVec(["1/3", "-2", "7/5"])),
        (RatMat([], cols=3), RatVec([1, 2, 3])),  # 0 rows
        (RatMat([[], []]), RatVec([])),  # 0 columns
    ]
    for M, x_true in cases:
        v = M.matvec(x_true)  # consistent by construction
        rep = solve_linear(M, v)
        assert rep.status in (UNIQUE, UNDERDETERMINED)
        assert M.matvec(rep.x) == v
        for z in rep.nullspace:
            assert M.matvec(z) == RatVec([0] * M.rows)
            assert M.matvec(rep.x + z) == v
        assert rep.rank + len(rep.nullspace) == M.cols
