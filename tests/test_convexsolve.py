import re
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from aldual import ald, convexsolve
from aldual.convexsolve import (
    INFEASIBLE,
    LinearProgram,
    OPTIMAL,
    QuadraticProgram,
    UNBOUNDED,
    check_boundedness,
    solve_lp,
    solve_qp,
)
from aldual.ald import gap_sweep, lambda_bar, relaxation_program, solve_ip
from aldual.errors import DimMismatchError, InternalInvariantError, NotPsdError
from aldual.instance import MiqpInstance
from aldual.numkit import (
    INCONSISTENT,
    RatMat,
    RatVec,
    ldl_psd_check,
    quad_form,
    solve_linear,
)
from aldual.penalty import L1, Penalty

from conftest import d1_instance
from test_ald import grid_25


def rand_rat(rng, mag=3):
    den = rng.choice((1, 2, 4))
    return Fraction(rng.randint(-mag * den, mag * den), den)


def _no_rows(n):
    return RatMat([], cols=n), RatVec([])


# ------------------------------------------------------------------- LP

@pytest.mark.parametrize("block", ["eq", "ineq"])
def test_zero_row_block_of_wrong_width_is_dim_mismatch(block):
    # RatMat([]) has 0 columns, so it cannot constrain 2 variables
    eq, eqr = _no_rows(2)
    ineq, ineqr = RatMat([[1, 1]]), RatVec([1])
    if block == "eq":
        eq = RatMat([])
    else:
        ineq, ineqr = RatMat([]), RatVec([])
    with pytest.raises(DimMismatchError, match="constraint width 0 vs 2 variables"):
        LinearProgram(RatVec([1, 1]), eq, eqr, ineq, ineqr)


def test_lp_single_active_constraint():
    eq, eqr = _no_rows(1)
    rep = solve_lp(LinearProgram(RatVec([1]), eq, eqr, RatMat([[-1]]), RatVec([-1])))
    assert rep.status == OPTIMAL
    assert rep.value == 1 and rep.x == RatVec([1])
    assert rep.ineq_duals == RatVec([1])


def test_lp_unbounded_with_ray():
    eq, eqr = _no_rows(1)
    rep = solve_lp(LinearProgram(RatVec([-1]), eq, eqr, RatMat([[-1]]), RatVec([0])))
    assert rep.status == UNBOUNDED
    assert rep.ray == RatVec([1])


def test_lp_infeasible():
    eq, eqr = _no_rows(1)
    rep = solve_lp(LinearProgram(RatVec([0]), eq, eqr,
                                 RatMat([[1], [-1]]), RatVec([-1, 0])))
    assert rep.status == INFEASIBLE


def test_lp_equalities_and_duals():
    # min x + y  s.t. x + y = 2 (any point optimal; duals must satisfy KKT)
    rep = solve_lp(LinearProgram(RatVec([1, 1]), RatMat([[1, 1]]), RatVec([2]),
                                 *_no_rows(2)))
    assert rep.status == OPTIMAL and rep.value == 2
    assert rep.eq_duals == RatVec([1])


def test_lp_redundant_rows():
    # duplicated equality row must not break feasibility or duals
    rep = solve_lp(LinearProgram(RatVec([1, 0]), RatMat([[1, 1], [1, 1]]),
                                 RatVec([2, 2]), RatMat([[-1, 0]]), RatVec([0])))
    assert rep.status == OPTIMAL
    assert rep.value == 0


def _random_feasible_lp(rng):
    n = rng.randint(1, 4)
    m_eq = rng.randint(0, 2)
    m_in = rng.randint(1, 4)
    x0 = RatVec([rand_rat(rng) for _ in range(n)])
    A = RatMat([[rand_rat(rng, 2) for _ in range(n)] for _ in range(m_eq)], cols=n)
    G = RatMat([[rand_rat(rng, 2) for _ in range(n)] for _ in range(m_in)], cols=n)
    slack = [abs(rand_rat(rng, 2)) if rng.random() < 0.7 else Fraction(0)
             for _ in range(m_in)]
    lp = LinearProgram(RatVec([rand_rat(rng) for _ in range(n)]),
                       A, A.matvec(x0),
                       G, RatVec(g + s for g, s in zip(G.matvec(x0), slack)))
    return lp, x0


def test_lp_random_strong_duality_and_domination():
    rng = Random(11)
    optimal_seen = 0
    for _ in range(120):
        lp, x0 = _random_feasible_lp(rng)
        rep = solve_lp(lp)
        assert rep.status in (OPTIMAL, UNBOUNDED)
        if rep.status == OPTIMAL:
            optimal_seen += 1
            # KKT is verified inside; check strong duality explicitly
            dual_value = lp.eq_rhs.dot(rep.eq_duals) - lp.ineq_rhs.dot(rep.ineq_duals)
            assert dual_value == rep.value
            assert rep.value <= lp.objective.dot(x0)
        else:
            r = rep.ray
            assert lp.objective.dot(r) < 0
            assert lp.eq_lhs.matvec(r).is_zero() if lp.eq_lhs.rows else True
            assert all(v <= 0 for v in lp.ineq_lhs.matvec(r))
    assert optimal_seen >= 30


# ------------------------------------------------------------------- QP

def test_qp_unconstrained_minimum():
    rep = solve_qp(QuadraticProgram(RatMat([[1]]), RatVec([-1]),
                                    *_no_rows(1), *_no_rows(1)))
    assert rep.status == OPTIMAL
    assert rep.x == RatVec([1]) and rep.value == Fraction(-1, 2)


def test_qp_active_inequality_dual():
    rep = solve_qp(QuadraticProgram(RatMat([[1]]), RatVec([-1]), *_no_rows(1),
                                    RatMat([[1]]), RatVec([0])))
    assert rep.status == OPTIMAL
    assert rep.x == RatVec([0]) and rep.value == 0
    assert rep.ineq_duals == RatVec([1])


def test_qp_d1_relaxation():
    rep = solve_qp(relaxation_program(d1_instance()))
    assert rep.status == OPTIMAL
    assert rep.value == Fraction(1, 2)
    assert rep.x == RatVec([Fraction(1, 2), Fraction(1, 2)])
    assert rep.eq_duals == RatVec([1])


def test_qp_not_psd_rejected():
    with pytest.raises(NotPsdError):
        solve_qp(QuadraticProgram(RatMat([[-1]]), RatVec([0]),
                                  *_no_rows(1), *_no_rows(1)))


def test_qp_not_psd_leaves_no_entry(monkeypatch):
    # the PSD verdict is kept only for a system that passes: each call
    # sharing the mapping checks the objective again and raises again
    checks = []
    monkeypatch.setattr(convexsolve, "ldl_psd_check",
                        lambda M: checks.append(M) or ldl_psd_check(M))
    qp = QuadraticProgram(RatMat([[-1]]), RatVec([0]), *_no_rows(1), *_no_rows(1))
    factors: dict = {}
    for _ in range(3):
        with pytest.raises(NotPsdError):
            solve_qp(qp, factors=factors)
    assert factors == {} and len(checks) == 3


def test_one_psd_check_per_system_per_sweep(monkeypatch):
    # an l1 sweep over four weights: the slice programs of every weight
    # share one constraint system, whose objective is checked once for
    # the sweep's 100 slice QPs, and whose int form for the KKT check is
    # built once, on the first OPTIMAL report
    inst = grid_25()
    for fact in (ald._slices, solve_ip, lambda_bar):
        fact(inst)
    checks, systems, solves, forms = [], set(), [], []
    kkt_form = convexsolve._KktForm
    monkeypatch.setattr(convexsolve, "ldl_psd_check",
                        lambda M: checks.append(M) or ldl_psd_check(M))
    monkeypatch.setattr(convexsolve, "_KktForm",
                        lambda *system: forms.append(system) or kkt_form(*system))

    def solving(qp, x0=None, factors=None):
        solves.append(qp)
        systems.add((qp.Qobj, qp.eq_lhs, qp.ineq_lhs))
        return solve_qp(qp, x0, factors)

    monkeypatch.setattr(ald, "solve_qp", solving)
    gap_sweep(inst, Penalty(L1, inst.m), [1, 2, 4, 8])
    assert (len(solves), len(systems), len(checks), len(forms)) == (100, 1, 1, 1)
    assert set(forms) == systems


def test_two_systems_of_one_shape_get_two_forms(monkeypatch):
    # one shared mapping, two systems of equal shapes but other rows, each
    # solved twice from a start (no phase-1 LP): each system gets one form,
    # kept beside its own entry, and each form holds its own system's rows
    forms = []
    kkt_form = convexsolve._KktForm
    monkeypatch.setattr(convexsolve, "_KktForm",
                        lambda *system: forms.append(system) or kkt_form(*system))
    first = _simplex_qp()
    second = QuadraticProgram(first.Qobj, first.cobj, RatMat([[1, 2]]), RatVec([1]),
                              RatMat([[Fraction(1, 3), 0], [0, -1]]),
                              RatVec([Fraction(1, 4), 0]))
    starts = {first: RatVec([Fraction(3, 4), Fraction(1, 4)]),
              second: RatVec([Fraction(3, 4), Fraction(1, 8)])}
    factors: dict = {}
    reports = [solve_qp(qp, starts[qp], factors) for qp in (first, second, first, second)]
    assert [rep.status for rep in reports] == [OPTIMAL] * 4
    keys = [(qp.Qobj, qp.eq_lhs, qp.ineq_lhs) for qp in (first, second)]
    assert forms == keys
    assert set(factors) == set(keys) | {("kkt", key) for key in keys}
    assert [(factors["kkt", key].G, factors["kkt", key].LG) for key in keys] == [
        ([((0, 1),), ((1, -1),)], 1), ([((0, 1),), ((1, -3),)], 3)]


def test_kkt_check_rejects_a_report_that_does_not_fit():
    # a report short of one inequality dual, or one entry of x, is refused
    # outright: no row of the program goes unchecked
    qp = _simplex_qp()
    rep = solve_qp(qp)
    args = (qp.Qobj, qp.cobj, qp.eq_lhs, qp.eq_rhs, qp.ineq_lhs, qp.ineq_rhs)
    convexsolve._verify_kkt(*args, rep)
    for short in (replace(rep, ineq_duals=RatVec(list(rep.ineq_duals)[:-1])),
                  replace(rep, x=RatVec(list(rep.x)[:-1]))):
        with pytest.raises(InternalInvariantError,
                           match="^report does not fit the program$"):
            convexsolve._verify_kkt(*args, short)


def test_qp_infeasible():
    rep = solve_qp(QuadraticProgram(RatMat([[1]]), RatVec([0]), *_no_rows(1),
                                    RatMat([[1], [-1]]), RatVec([-1, 0])))
    assert rep.status == INFEASIBLE


def _simplex_qp():
    # min 1/2 |x|^2 - x1 - x2  s.t.  x1 + x2 = 1, x1 <= 3/4, -x2 <= 0
    return QuadraticProgram(RatMat([[1, 0], [0, 1]]), RatVec([-1, -1]),
                            RatMat([[1, 1]]), RatVec([1]),
                            RatMat([[1, 0], [0, -1]]), RatVec([Fraction(3, 4), 0]))


def test_qp_start_point_replaces_phase_one(monkeypatch):
    qp = _simplex_qp()
    cold = solve_qp(qp)
    lp_calls = []
    monkeypatch.setattr(convexsolve, "solve_lp",
                        lambda *args: lp_calls.append(args) or solve_lp(*args))
    warm = solve_qp(qp, RatVec([Fraction(3, 4), Fraction(1, 4)]))
    assert lp_calls == []
    assert warm == cold
    assert warm.x == RatVec([Fraction(1, 2), Fraction(1, 2)])
    assert warm.value == Fraction(-3, 4)


@pytest.mark.parametrize("start, error, match", [
    ([1, 0], InternalInvariantError, "inequality"),
    ([Fraction(1, 2), 0], InternalInvariantError, "equality"),
    ([Fraction(1, 2)], DimMismatchError, "length"),
])
def test_qp_bad_start_point_rejected(start, error, match):
    with pytest.raises(error, match=match):
        solve_qp(_simplex_qp(), RatVec(start))


@pytest.mark.parametrize("start, error, message", [
    ([1, 0], InternalInvariantError, "start point violates an inequality row"),
    ([Fraction(1, 2), 0], InternalInvariantError,
     "start point violates an equality row"),
    ([Fraction(1, 2)], DimMismatchError, "start point of length 1 vs 2 variables"),
])
def test_qp_bad_start_point_messages(start, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        solve_qp(_simplex_qp(), RatVec(start))


def _degenerate_qp():
    # min 1/2 |x - (0, 1/2, 1)|^2 on the simplex x1 + x2 + x3 = 1, whose
    # equality row is given twice; the optimum is (0, 1/4, 3/4)
    eq = RatMat([[1, 1, 1], [2, 2, 2]])
    G = RatMat([[-1, 0, 0],    # 0: x1 >= 0
                [0, -1, 0],    # 1: x2 >= 0
                [0, -1, 0],    # 2: row 1 again
                [0, 0, -1],    # 3: x3 >= 0
                [0, 1, 1],     # 4: x2 + x3 <= 1, = eq - row 0 on the simplex
                [-1, -1, -1],  # 5: minus the equality row
                [1, 0, 0],     # 6: x1 <= 1
                [0, -2, 0]])   # 7: twice row 1
    return QuadraticProgram(RatMat.identity(3), RatVec([0, Fraction(-1, 2), -1]),
                            eq, RatVec([1, 2]), G, RatVec([0, 0, 0, 0, 1, -1, 1, 0]))


@pytest.mark.parametrize("start", [
    # active: rows 1, 2, 3, 5, 6, 7 (six rows on three variables); only
    # rows 1 and 3 are independent of the equality rows and of each other
    [1, 0, 0],
    # active: rows 0, 3, 4, 5; only rows 0 and 3 are independent, row 4
    # being the equality row minus row 0
    [0, 1, 0],
])
def test_qp_degenerate_start(kkt_calls, start):
    qp = _degenerate_qp()
    cold = solve_qp(qp)
    assert cold.status == OPTIMAL
    assert cold.x == RatVec([0, Fraction(1, 4), Fraction(3, 4)])
    systems = kkt_calls["solves"]
    systems.clear()
    warm = solve_qp(qp, RatVec(start))
    assert (warm.status, warm.value, warm.x) == (cold.status, cold.value, cold.x)
    n, m_eq = 3, 2
    assert systems[0][0].cols == n + m_eq + 2  # two rows seeded
    for fac, rep in systems:
        # no zero-curvature ray step
        assert rep.status != INCONSISTENT
        # the second equality row is the only dependent row of C: every
        # kernel vector of a KKT system is zero on the working rows
        assert all(z[n + m_eq:].is_zero() for z in rep.nullspace)
        assert len(rep.nullspace) == 1


def _flat_ray_qp():
    # zero curvature along the descent direction, no blocking rows
    return QuadraticProgram(RatMat([[0]]), RatVec([-1]),
                            *_no_rows(1), RatMat([[-1]]), RatVec([0]))


def test_qp_unbounded_flat_direction():
    rep = solve_qp(_flat_ray_qp())
    assert rep.status == UNBOUNDED
    assert rep.ray is not None and rep.ray[0] > 0


def test_qp_kernel_basis_only_on_ray_steps(kkt_calls):
    # each active-set step is one KKT solve; a kernel vector is taken only
    # when that system is inconsistent, for a zero-curvature ray, and it
    # is the kernel of the same factor
    def ray_steps():
        return [fac for fac, rep in kkt_calls["solves"] if rep.status == INCONSISTENT]

    assert solve_qp(relaxation_program(d1_instance())).status == OPTIMAL
    assert ray_steps() == []
    rep = solve_qp(_flat_ray_qp())
    assert rep.status == UNBOUNDED
    [fac] = ray_steps()
    assert rep.ray == fac.kernel[0][:1]


def test_qp_positive_definite_matches_newton_solve():
    rng = Random(12)
    for _ in range(25):
        n = rng.randint(1, 4)
        L = RatMat([[rand_rat(rng, 2) for _ in range(n)] for _ in range(n)], cols=n)
        Q = L.transpose().matmul(L) + RatMat.identity(n)
        c = RatVec([rand_rat(rng) for _ in range(n)])
        rep = solve_qp(QuadraticProgram(Q, c, *_no_rows(n), *_no_rows(n)))
        assert rep.status == OPTIMAL
        newton = solve_linear(Q, -c)
        assert rep.x == newton.x
        assert rep.value == quad_form(Q, rep.x) / 2 + c.dot(rep.x)


def _random_feasible_qp(rng):
    n = rng.randint(1, 4)
    m_eq = rng.randint(0, 2)
    m_in = rng.randint(1, 5)
    k = rng.randint(0, n)
    L = RatMat([[rand_rat(rng, 2) for _ in range(n)] for _ in range(k)], cols=n)
    Q = L.transpose().matmul(L)
    x0 = RatVec([rand_rat(rng) for _ in range(n)])
    A = RatMat([[rand_rat(rng, 2) for _ in range(n)] for _ in range(m_eq)], cols=n)
    G = RatMat([[rand_rat(rng, 2) for _ in range(n)] for _ in range(m_in)], cols=n)
    slack = [abs(rand_rat(rng, 2)) if rng.random() < 0.7 else Fraction(0)
             for _ in range(m_in)]
    qp = QuadraticProgram(Q, RatVec([rand_rat(rng) for _ in range(n)]),
                          A, A.matvec(x0),
                          G, RatVec(g + s for g, s in zip(G.matvec(x0), slack)))
    return qp, x0


def test_qp_random_feasible_point_domination():
    rng = Random(13)
    optimal_seen = 0
    for _ in range(120):
        qp, x0 = _random_feasible_qp(rng)
        rep = solve_qp(qp)
        assert rep.status in (OPTIMAL, UNBOUNDED)
        obj0 = quad_form(qp.Qobj, x0) / 2 + qp.cobj.dot(x0)
        if rep.status == OPTIMAL:
            optimal_seen += 1
            assert rep.value <= obj0
            # KKT residuals are revalidated on construction; spot-check here
            grad = qp.Qobj.matvec(rep.x) + qp.cobj
            resid = grad - qp.eq_lhs.tmatvec(rep.eq_duals) if qp.eq_lhs.rows else grad
            resid = resid + qp.ineq_lhs.tmatvec(rep.ineq_duals)
            assert resid.is_zero()
        else:
            r = rep.ray
            assert qp.Qobj.matvec(r).is_zero()
            assert qp.cobj.dot(r) < 0
            assert all(v <= 0 for v in qp.ineq_lhs.matvec(r))
    assert optimal_seen >= 40


def test_qp_random_perturbation_never_beats_reported_optimum():
    rng = Random(14)
    for _ in range(30):
        qp, x0 = _random_feasible_qp(rng)
        rep = solve_qp(qp)
        if rep.status != OPTIMAL:
            continue
        for _ in range(20):
            y = RatVec([rand_rat(rng, 2) for _ in range(len(qp.cobj))])
            feas_eq = qp.eq_lhs.rows == 0 or qp.eq_lhs.matvec(y) == qp.eq_rhs
            feas_in = all(v <= h for v, h in zip(qp.ineq_lhs.matvec(y), qp.ineq_rhs))
            if feas_eq and feas_in:
                assert quad_form(qp.Qobj, y) / 2 + qp.cobj.dot(y) >= rep.value


def test_qp_deterministic_duals_with_duplicate_eq_rows():
    Q = RatMat([[2, 0], [0, 2]])
    c = RatVec([0, 0])
    A = RatMat([[1, 1], [1, 1], [2, 2]])
    b = RatVec([1, 1, 2])
    reps = [solve_qp(QuadraticProgram(Q, c, A, b, *_no_rows(2)))
            for _ in range(2)]
    assert reps[0] == reps[1]
    assert reps[0].eq_duals[1] == 0 and reps[0].eq_duals[2] == 0
    assert reps[0].x == RatVec([Fraction(1, 2), Fraction(1, 2)])


# ------------------------------------------------------------ boundedness

def test_boundedness_d1_farkas(d1):
    rep = check_boundedness(d1)
    assert rep.nlp_bounded
    cert = rep.farkas
    combo = d1.E.tmatvec(cert.lam_E) + d1.A.tmatvec(cert.lam_A) \
        + d1.Q.tmatvec(cert.lam_Q)
    assert combo == d1.c
    assert all(v <= 0 for v in cert.lam_E)


def test_boundedness_free_descent_ray():
    toy = MiqpInstance(Q=RatMat([[0]]), c=RatVec([-1]), A=RatMat([], cols=1),
                       b=RatVec([]), E=RatMat([], cols=1), f=RatVec([]),
                       n1=1, n2=0)
    rep = check_boundedness(toy)
    assert not rep.nlp_bounded
    r = rep.ray
    assert r == RatVec([1])
    assert toy.c.dot(r) <= -1
    assert all(v.denominator == 1 for v in r)


def test_boundedness_report_serializes(d1):
    doc = check_boundedness(d1).to_json_dict()
    assert doc["nlp_bounded"] is True
    assert set(doc["farkas"]) == {"lam_E", "lam_A", "lam_Q"}
    toy = MiqpInstance(Q=RatMat([[0]]), c=RatVec([-1]), A=RatMat([], cols=1),
                       b=RatVec([]), E=RatMat([], cols=1), f=RatVec([]),
                       n1=1, n2=0)
    doc = check_boundedness(toy).to_json_dict()
    assert doc["nlp_bounded"] is False and doc["descent_ray"] == ["1"]


def test_boundedness_bounded_box_always_bounded():
    rng = Random(15)
    for _ in range(5):
        n = rng.randint(1, 3)
        rows, rhs = [], []
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            rows.append(list(e))
            rhs.append(Fraction(rng.randint(1, 3)))
            e = [Fraction(0)] * n
            e[i] = Fraction(-1)
            rows.append(e)
            rhs.append(Fraction(rng.randint(1, 3)))
        k = rng.randint(0, n)
        L = RatMat([[rand_rat(rng, 2) for _ in range(n)] for _ in range(k)], cols=n)
        inst = MiqpInstance(
            Q=L.transpose().matmul(L), c=RatVec([rand_rat(rng) for _ in range(n)]),
            A=RatMat([], cols=n), b=RatVec([]),
            E=RatMat(rows, cols=n), f=RatVec(rhs), n1=n, n2=0)
        assert check_boundedness(inst).nlp_bounded
