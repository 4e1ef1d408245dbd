from fractions import Fraction
from random import Random

import pytest

from aldual.convexsolve import LinearProgram, OPTIMAL, solve_lp
from aldual.errors import NegativeDeltaError, UnsupportedKindError
from aldual.numkit import RatMat, RatVec
from aldual.penalty import (
    L1,
    LINF,
    Penalty,
    SCALED_LINF,
    SQL2,
    epigraph_rhs,
    epigraph_rows,
    epigraph_start,
    evaluate,
    level_diam,
    norm_constants,
    parse_penalty,
)


def rand_rat(rng, mag=4):
    den = rng.choice((1, 2, 3, 4))
    return Fraction(rng.randint(-mag * den, mag * den), den)


def all_kinds(m):
    return [Penalty(LINF, m), Penalty(L1, m), Penalty(SQL2, m),
            Penalty(SCALED_LINF, m, alpha=Fraction(3, 2))]


def norm_kinds(m):
    return [p for p in all_kinds(m) if p.is_norm]


# -------------------------------------------------------------- evaluate

def test_evaluate_examples():
    assert evaluate(Penalty(LINF, 2), RatVec([0, 0])) == 0
    assert evaluate(Penalty(L1, 2), RatVec([Fraction(1, 2), Fraction(-1, 3)])) \
        == Fraction(5, 6)
    assert evaluate(Penalty(SQL2, 2), RatVec([3, 4])) == 25
    assert evaluate(Penalty(SCALED_LINF, 2, alpha=Fraction(3, 2)),
                    RatVec([2, -1])) == 3


def test_parse_penalty_specs():
    assert parse_penalty("linf", 3).kind == LINF
    assert parse_penalty("l1", 3).kind == L1
    assert parse_penalty("sql2", 3).kind == SQL2
    p = parse_penalty("slinf:3/2", 3)
    assert p.kind == SCALED_LINF and p.alpha == Fraction(3, 2)
    with pytest.raises(UnsupportedKindError):
        parse_penalty("l2", 3)
    with pytest.raises(UnsupportedKindError):
        parse_penalty("slinf:0/1", 3)


def test_positive_definiteness_properties():
    rng = Random(20)
    for p in all_kinds(3):
        assert evaluate(p, RatVec([0, 0, 0])) == 0
        for _ in range(1000):
            u = RatVec([rand_rat(rng) for _ in range(3)])
            if u.is_zero():
                continue
            assert evaluate(p, u) > 0


def test_norm_axioms_exact():
    rng = Random(21)
    for p in norm_kinds(3):
        for _ in range(300):
            u = RatVec([rand_rat(rng) for _ in range(3)])
            v = RatVec([rand_rat(rng) for _ in range(3)])
            t = rand_rat(rng)
            assert evaluate(p, u.scale(t)) == abs(t) * evaluate(p, u)
            assert evaluate(p, u + v) <= evaluate(p, u) + evaluate(p, v)


def test_sql2_not_homogeneous():
    p = Penalty(SQL2, 1)
    assert evaluate(p, RatVec([2])) == 4 != 2 * evaluate(p, RatVec([1]))


# -------------------------------------------------------------- level_diam

def test_level_diam_examples():
    assert level_diam(Penalty(LINF, 2), 1) == 2
    for p in all_kinds(2):
        assert level_diam(p, 0) == 0
    assert level_diam(Penalty(L1, 2), 3) == 6
    assert level_diam(Penalty(SCALED_LINF, 2, alpha=Fraction(3, 2)), 3) == 4


def test_level_diam_sql2_upper_bound():
    p = Penalty(SQL2, 2)
    assert level_diam(p, 4) >= 4  # true value 2*sqrt(4) = 4
    assert level_diam(p, 4) - 4 < Fraction(1, 1000)
    d = level_diam(p, Fraction(1, 2))
    assert (d / 2) ** 2 >= Fraction(1, 2)


def test_level_diam_negative_rejected():
    with pytest.raises(NegativeDeltaError):
        level_diam(Penalty(LINF, 1), -1)


def test_level_diam_monotone_shrinking_schedule():
    for p in all_kinds(2):
        diams = [level_diam(p, Fraction(1, 2 ** k)) for k in range(21)]
        assert all(a >= b for a, b in zip(diams, diams[1:]))
        assert diams[20] <= Fraction(1, 2 ** 8)
        # monotone nondecreasing with the height
        heights = sorted(Fraction(k, 7) for k in range(15))
        vals = [level_diam(p, h) for h in heights]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------- epigraph rows

def test_epigraph_linf_rows_exact_form():
    enc = epigraph_rows(Penalty(LINF, 1), RatMat([[1]]), RatVec([Fraction(1, 2)]))
    assert enc.n_aux == 1
    assert enc.ineq_lhs == RatMat([[1, -1], [-1, -1]])
    assert enc.ineq_rhs == RatVec([Fraction(1, 2), Fraction(-1, 2)])
    assert enc.eq_lhs.rows == 0


def test_epigraph_sql2_unsupported():
    with pytest.raises(UnsupportedKindError):
        epigraph_rows(Penalty(SQL2, 1), RatMat([[1]]), RatVec([1]))


def _min_w_at_point(p, A, b, x):
    """Independent route: fix x by equality rows and minimize w by LP."""
    enc = epigraph_rows(p, A, b)
    n = A.cols
    width = n + enc.n_aux
    pins = [[Fraction(1) if j == i else Fraction(0) for j in range(width)]
            for i in range(n)]
    eq_lhs = RatMat(pins + enc.eq_lhs.row_list(), cols=width)
    eq_rhs = RatVec(list(x) + list(enc.eq_rhs))
    cost = RatVec([0] * (width - 1) + [1])
    rep = solve_lp(LinearProgram(cost, eq_lhs, eq_rhs, enc.ineq_lhs, enc.ineq_rhs))
    assert rep.status == OPTIMAL
    return rep.value


def test_epigraph_minimal_w_matches_evaluate():
    rng = Random(22)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = RatMat([[rand_rat(rng, 2) for _ in range(n)] for _ in range(m)], cols=n)
        b = RatVec([rand_rat(rng, 2) for _ in range(m)])
        x = RatVec([rand_rat(rng, 2) for _ in range(n)])
        for p in norm_kinds(m):
            assert _min_w_at_point(p, A, b, x) == evaluate(p, b - A.matvec(x))


def test_epigraph_start_is_feasible_with_least_w():
    rng = Random(24)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = RatMat([[rand_rat(rng, 2) for _ in range(n)] for _ in range(m)], cols=n)
        b = RatVec([rand_rat(rng, 2) for _ in range(m)])
        x = RatVec([rand_rat(rng, 2) for _ in range(n)])
        r = b - A.matvec(x)
        for p in norm_kinds(m):
            enc = epigraph_rows(p, A, b)
            aux = epigraph_start(p, r)
            point = RatVec(list(x) + list(aux))
            assert len(aux) == enc.n_aux and aux[-1] == evaluate(p, r)
            assert all(v <= h for v, h in zip(enc.ineq_lhs.matvec(point),
                                              enc.ineq_rhs))
            assert enc.eq_lhs.rows == 0 or enc.eq_lhs.matvec(point) == enc.eq_rhs
    with pytest.raises(UnsupportedKindError):
        epigraph_start(Penalty(SQL2, 1), RatVec([1]))


def test_epigraph_zero_at_feasible_point():
    rng = Random(23)
    A = RatMat([[1, 2], [0, 1]])
    x = RatVec([rand_rat(rng), rand_rat(rng)])
    b = A.matvec(x)
    for p in norm_kinds(2):
        assert _min_w_at_point(p, A, b, x) == 0


def test_epigraph_l1_matches_linf_in_one_dim():
    rng = Random(24)
    A = RatMat([[Fraction(2)]])
    b = RatVec([Fraction(1, 3)])
    for _ in range(20):
        x = RatVec([rand_rat(rng)])
        w1 = _min_w_at_point(Penalty(L1, 1), A, b, x)
        w2 = _min_w_at_point(Penalty(LINF, 1), A, b, x)
        assert w1 == w2


# ---------------------------------------------------------- norm constants

def test_norm_constants_examples():
    nc = norm_constants(Penalty(LINF, 1))
    assert nc.gamma == 1 and nc.eta == 1
    assert norm_constants(Penalty(L1, 3)).gamma == 3
    assert norm_constants(Penalty(LINF, 4)).eta == 2
    with pytest.raises(UnsupportedKindError):
        norm_constants(Penalty(SQL2, 2))


def test_norm_constants_tight_at_generators():
    # l1 gamma is tight at the all-ones vector
    m = 3
    u = RatVec([1] * m)
    nc = norm_constants(Penalty(L1, m))
    assert evaluate(Penalty(L1, m), u) == nc.gamma * evaluate(Penalty(LINF, m), u)


def test_norm_constants_inequalities_exact():
    rng = Random(25)
    for m in (1, 2, 4):
        for p in norm_kinds(m):
            nc = norm_constants(p)
            assert nc.gamma >= 1 and nc.eta >= 1
            for _ in range(1000):
                u = RatVec([rand_rat(rng) for _ in range(m)])
                psi = evaluate(p, u)
                uinf = evaluate(Penalty(LINF, m), u)
                l2sq = u.dot(u)
                assert nc.gamma * uinf >= psi
                assert nc.gamma * psi >= uinf
                # Euclidean comparisons squared to stay rational
                assert nc.eta ** 2 * l2sq >= psi * psi
                assert nc.eta ** 2 * psi * psi >= l2sq


# ------------------------------------------------------- slinf:1 is linf

def test_slinf_one_norm_constants_are_linf_ones():
    for m in range(301):
        assert norm_constants(parse_penalty("slinf:1", m)) == \
            norm_constants(Penalty(LINF, m))


def test_slinf_one_is_linf_on_drawn_residuals():
    rng = Random(26)
    for _ in range(200):
        m, n = rng.randint(0, 4), rng.randint(1, 3)
        lin, one = Penalty(LINF, m), parse_penalty("slinf:1", m)
        A = RatMat([[rand_rat(rng, 2) for _ in range(n)] for _ in range(m)], cols=n)
        b = RatVec([rand_rat(rng, 2) for _ in range(m)])
        r = b - A.matvec(RatVec([rand_rat(rng, 2) for _ in range(n)]))
        delta = abs(rand_rat(rng))
        assert evaluate(one, r) == evaluate(lin, r)
        assert level_diam(one, delta) == level_diam(lin, delta)
        assert epigraph_rows(one, A, b) == epigraph_rows(lin, A, b)
        assert epigraph_rhs(one, r) == epigraph_rhs(lin, r)
        assert epigraph_start(one, r) == epigraph_start(lin, r)
