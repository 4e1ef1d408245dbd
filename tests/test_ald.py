import itertools
from fractions import Fraction
from random import Random

import pytest

from aldual import ald, convexsolve, exactrho
from aldual.ald import (
    SWEEP_CSV_HEADER,
    dual_ascent,
    eval_lr_plus,
    gap_sweep,
    integer_box,
    lambda_bar,
    solve_ip,
    sweep_row_csv,
    sweep_row_json,
    violation_bound_check,
)
from aldual.convexsolve import (
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    SolveReport,
    solve_lp,
)
from aldual.errors import (
    DimMismatchError,
    InfeasibleDomainError,
    InternalInvariantError,
    UnboundedIntegerVarError,
)
from aldual.exactrho import rho_dual_linf, rho_sufficient
from aldual.instance import GenConfig, MiqpInstance, generate
from aldual.numkit import INCONSISTENT, RatMat, RatVec, parse_rat
from aldual.penalty import L1, LINF, Penalty, SQL2, evaluate, parse_penalty

from conftest import d1_instance
from corpus import GRID_SHAPES, PURE_INTEGER_SHAPES, grid_corpus, pure_integer_corpus
from full_rows import full_program


def _replace(inst, **kw):
    import dataclasses

    return dataclasses.replace(inst, **kw)


# ------------------------------------------------------------- integer box

def test_box_d1(d1):
    box = integer_box(d1)
    assert box.lower == (-3, -3) and box.upper == (3, 3)
    assert box.size() == 49


def test_box_tighter_row_wins(d1):
    extra = RatMat([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 0]])
    inst = _replace(d1, E=extra, f=RatVec([3, 3, 3, 3, 1]))
    box = integer_box(inst)
    assert box.upper[0] == 1 and box.lower[0] == -3


def test_box_unbounded_var():
    inst = MiqpInstance(Q=RatMat([[2]]), c=RatVec([0]), A=RatMat([], cols=1),
                        b=RatVec([]), E=RatMat([], cols=1), f=RatVec([]),
                        n1=0, n2=1)
    with pytest.raises(UnboundedIntegerVarError) as exc:
        integer_box(inst)
    assert exc.value.index == 0


def test_box_fractional_rows_round_inward():
    # 2*x <= 5 and -2*x <= 5  =>  x in [-5/2, 5/2] => integer box [-2, 2]
    inst = MiqpInstance(Q=RatMat([[2]]), c=RatVec([0]), A=RatMat([], cols=1),
                        b=RatVec([]), E=RatMat([[2], [-2]]), f=RatVec([5, 5]),
                        n1=0, n2=1)
    box = integer_box(inst)
    assert box.lower == (-2,) and box.upper == (2,)


# ------------------------------------------------------------ ground truth

def test_ip_d1(d1):
    rep = solve_ip(d1)
    assert rep.status == OPTIMAL
    assert rep.value == 1
    assert rep.x == RatVec([0, 1])  # lexicographic tie break over (0,1), (1,0)


def test_ip_d1_relaxed_rhs(d1):
    rep = solve_ip(_replace(d1, b=RatVec([0])))
    assert rep.value == 0 and rep.x == RatVec([0, 0])


def test_ip_d1_parity_infeasible(d1):
    rep = solve_ip(_replace(d1, b=RatVec([Fraction(1, 2)])))
    assert rep.status == INFEASIBLE


def test_ip_mixed_instance_matches_manual_enumeration():
    rng = Random(31)
    for seed in (0, 1, 2):
        inst = generate(GenConfig(n1=1, n2=2, m=1, m2=1, magnitude=2, seed=seed))
        rep = solve_ip(inst)
        if rep.status != OPTIMAL:
            continue
        assert inst.A.matvec(rep.x) == inst.b
        assert all(v <= f for v, f in zip(inst.E.matvec(rep.x), inst.f))
        assert all(rep.x[inst.n1 + j].denominator == 1 for j in range(inst.n2))
        assert inst.objective_value(rep.x) == rep.value


# ---------------------------------------------------------------- lambdas

def test_lambda_bar_d1(d1):
    nd = lambda_bar(d1)
    assert nd.lambda_bar == RatVec([1])
    assert nd.z_nlp == Fraction(1, 2)
    assert nd.x == RatVec([Fraction(1, 2), Fraction(1, 2)])


def test_lambda_bar_inactive_constraint_zero_dual():
    # b = A x* at the unconstrained minimizer x* = (1, 0)
    inst = MiqpInstance(Q=RatMat([[2, 0], [0, 2]]), c=RatVec([-2, 0]),
                        A=RatMat([[1, 1]]), b=RatVec([1]),
                        E=RatMat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                        f=RatVec([3, 3, 3, 3]), n1=0, n2=2)
    nd = lambda_bar(inst)
    assert nd.lambda_bar == RatVec([0])


# ------------------------------------------------------------ eval_lr_plus

def test_eval_d1_classical(d1):
    nd = lambda_bar(d1)
    rep = eval_lr_plus(d1, nd.lambda_bar, 0, Penalty(LINF, 1))
    assert rep.value == 1
    assert not rep.unbounded


def test_eval_d1_penalized_closes_gap(d1):
    nd = lambda_bar(d1)
    rep = eval_lr_plus(d1, nd.lambda_bar, 8, Penalty(LINF, 1))
    assert rep.value == 1
    assert rep.violation == 0


def test_eval_feasible_point_objective_identity(d1):
    # at any point feasible for the dualized rows the multiplier and
    # penalty terms vanish
    nd = lambda_bar(d1)
    for pen in (Penalty(LINF, 1), Penalty(L1, 1), Penalty(SQL2, 1)):
        for rho in (0, 1, 4):
            rep = eval_lr_plus(d1, nd.lambda_bar, rho, pen)
            x_feas = RatVec([0, 1])
            assert rep.value <= d1.objective_value(x_feas)


def test_eval_unbounded_sentinel():
    # rho = 0 with a bad multiplier and a free continuous direction
    inst = MiqpInstance(Q=RatMat([[0]]), c=RatVec([0]), A=RatMat([[1]]),
                        b=RatVec([0]), E=RatMat([], cols=1), f=RatVec([]),
                        n1=1, n2=0)
    rep = eval_lr_plus(inst, RatVec([1]), 0, Penalty(LINF, 1))
    assert rep.unbounded
    assert rep.value is None


def test_eval_argument_validation(d1):
    from aldual.errors import DimMismatchError

    with pytest.raises(DimMismatchError):
        eval_lr_plus(d1, RatVec([1, 2]), 1, Penalty(LINF, 1))
    with pytest.raises(DimMismatchError):
        eval_lr_plus(d1, RatVec([1]), 1, Penalty(LINF, 2))
    with pytest.raises(ValueError):
        eval_lr_plus(d1, RatVec([1]), -1, Penalty(LINF, 1))


def test_eval_monotone_in_rho(d1):
    rng = Random(32)
    nd = lambda_bar(d1)
    lams = [nd.lambda_bar, RatVec([0]), RatVec([Fraction(-3, 2)])]
    for pen in (Penalty(LINF, 1), Penalty(L1, 1), Penalty(SQL2, 1)):
        for lam in lams:
            prev = None
            for rho in (0, Fraction(1, 2), 1, 2, 4):
                rep = eval_lr_plus(d1, lam, rho, pen)
                if prev is not None and rep.value is not None and prev is not None:
                    assert prev <= rep.value
                prev = rep.value


def _exhaustive_pure_integer(inst, lam, rho, kind, radius):
    """From-scratch evaluation over the lattice, no convex solver."""
    best = None
    n = inst.n
    for point in itertools.product(range(-radius, radius + 1), repeat=n):
        x = RatVec(point)
        if any(v > f for v, f in zip(inst.E.matvec(x), inst.f)):
            continue
        r = [bi - ai for bi, ai in zip(inst.b, inst.A.matvec(x))]
        if kind == LINF:
            psi = max((abs(v) for v in r), default=Fraction(0))
        elif kind == L1:
            psi = sum((abs(v) for v in r), Fraction(0))
        else:
            psi = sum((v * v for v in r), Fraction(0))
        val = inst.objective_value(x) \
            + sum((li * ri for li, ri in zip(lam, r)), Fraction(0)) + rho * psi
        if best is None or val < best:
            best = val
    return best


def test_eval_matches_exhaustive_on_d1(d1):
    nd = lambda_bar(d1)
    for kind in (LINF, L1, SQL2):
        for lam in (nd.lambda_bar, RatVec([0])):
            for rho in (0, 1, Fraction(7, 2)):
                got = eval_lr_plus(d1, lam, rho, Penalty(kind, 1)).value
                want = _exhaustive_pure_integer(d1, lam, rho, kind, 3)
                assert got == want


# ------------------------------------------------------------- dual ascent

def test_ascent_from_lambda_bar_dominates(d1):
    nd = lambda_bar(d1)
    pen = Penalty(LINF, 1)
    base = eval_lr_plus(d1, nd.lambda_bar, 8, pen).value
    rep = dual_ascent(d1, 8, pen, nd.lambda_bar, max_iters=5)
    assert rep.best_value >= base


def test_ascent_early_stop_at_zero_supergradient(d1):
    nd = lambda_bar(d1)
    pen = Penalty(LINF, 1)
    rep = dual_ascent(d1, 8, pen, nd.lambda_bar, max_iters=50)
    # zero violation at the argmin ends the ascent with an exact certificate
    assert rep.best_value == 1
    assert len(rep.trace) < 50


def test_ascent_from_zero_reaches_optimum(d1):
    pen = Penalty(LINF, 1)
    rep = dual_ascent(d1, 8, pen, RatVec([0]), max_iters=50)
    assert rep.best_value == 1


def test_ascent_deterministic(d1):
    pen = Penalty(L1, 1)
    a = dual_ascent(d1, 2, pen, RatVec([0]), max_iters=10)
    b = dual_ascent(d1, 2, pen, RatVec([0]), max_iters=10)
    assert a == b


# -------------------------------------------------------------- gap sweep

def test_sweep_d1_hits_zero_and_stays(d1):
    rows = gap_sweep(d1, Penalty(LINF, 1), [0, 1, 2, 4, 8])
    gaps = [r.gap_lr for r in rows]
    assert 0 in gaps
    first_zero = gaps.index(0)
    assert all(g == 0 for g in gaps[first_zero:])
    zs = [r.z_lr for r in rows]
    assert all(a <= b for a, b in zip(zs, zs[1:]))
    assert rows[0].kappa_rho is None
    assert rows[1].kappa_rho == 2  # sublevel diameter 2*delta at height 2*(1/2)/1


def test_sweep_single_row(d1):
    rows = gap_sweep(d1, Penalty(L1, 1), [Fraction(3, 2)])
    assert len(rows) == 1


def test_sweep_sql2_renders(d1):
    rows = gap_sweep(d1, Penalty(SQL2, 1), [1, 2])
    assert all(r.z_lr is not None for r in rows)


def test_sweep_rejects_bad_schedule(d1):
    pen = Penalty(LINF, 1)
    with pytest.raises(ValueError):
        gap_sweep(d1, pen, [])
    with pytest.raises(ValueError):
        gap_sweep(d1, pen, [1, 1])
    with pytest.raises(ValueError):
        gap_sweep(d1, pen, [-1, 1])
    with pytest.raises(ValueError):
        gap_sweep(d1, pen, [0, 1], ascent_iters=-3)


def test_sweep_renders_unbounded_sentinel():
    # free continuous direction at a bad multiplier: -inf at rho = 0,
    # bounded once the penalty outweighs the multiplier term
    inst = MiqpInstance(Q=RatMat([[0]]), c=RatVec([0]), A=RatMat([[1]]),
                        b=RatVec([0]), E=RatMat([], cols=1), f=RatVec([]),
                        n1=1, n2=0)
    rows = gap_sweep(inst, Penalty(LINF, 1), [0, 1], lam=RatVec([1]))
    assert rows[0].z_lr is None
    assert sweep_row_csv(rows[0]).split(",")[1] == "-inf"
    assert sweep_row_csv(rows[0]).split(",")[3] == "inf"
    assert rows[1].z_lr == 0


def test_sweep_csv_round_trip(d1):
    rows = gap_sweep(d1, Penalty(LINF, 1), [0, 1, 4], ascent_iters=3)
    assert SWEEP_CSV_HEADER == "rho,z_lr,z_ld,gap_lr,violation,kappa_rho"
    for row in rows:
        cells = sweep_row_csv(row).split(",")
        assert parse_rat(cells[0]) == row.rho
        assert parse_rat(cells[1]) == row.z_lr
        assert parse_rat(cells[2]) == row.z_ld
        assert parse_rat(cells[3]) == row.gap_lr
        doc = sweep_row_json(row)
        assert parse_rat(doc["z_lr"]) == row.z_lr


# --------------------------------------------------------- violation bound

def test_violation_bound_d1(d1):
    rep = violation_bound_check(d1, Penalty(LINF, 1), 1)
    assert rep.ok
    assert rep.lhs <= Fraction(1, 2) and rep.rhs == Fraction(1, 2)


def test_violation_bound_rhs_halves_when_rho_doubles(d1):
    r1 = violation_bound_check(d1, Penalty(L1, 1), 2)
    r2 = violation_bound_check(d1, Penalty(L1, 1), 4)
    assert r1.ok and r2.ok
    assert r2.rhs * 2 == r1.rhs


def test_violation_bound_trivial_at_zero_violation(d1):
    rep = violation_bound_check(d1, Penalty(LINF, 1), 8)
    assert rep.ok and rep.lhs == 0


# --------------------------------------------------------- weak duality

def test_weak_duality_chain_small_instances():
    for seed in (0, 100, 500):
        shapes = {0: (0, 2, 1, 0, 3), 100: (0, 2, 1, 1, 2), 500: (1, 1, 1, 0, 4)}
        n1, n2, m, m2, mag = shapes[seed]
        inst = generate(GenConfig(n1, n2, m, m2, magnitude=mag, seed=seed))
        ip = solve_ip(inst)
        nd = lambda_bar(inst)
        for kind in (LINF, L1, SQL2):
            pen = Penalty(kind, inst.m)
            for rho in (0, 1, 4):
                rep = eval_lr_plus(inst, nd.lambda_bar, rho, pen)
                assert nd.z_nlp <= rep.value <= ip.value


# ------------------------------------------------- per-instance facts once

def _mixed_instance():
    return generate(GenConfig(1, 1, 1, 1, magnitude=2, seed=41))


@pytest.mark.parametrize("fact", [integer_box, solve_ip, lambda_bar])
def test_fact_computed_once_per_instance(fact, solver_calls):
    inst = _mixed_instance()
    first = fact(inst)
    made = dict(solver_calls)
    assert sum(made.values()) > 0
    assert fact(inst) is first
    assert solver_calls == made


@pytest.mark.parametrize("fact", [integer_box, solve_ip, lambda_bar])
def test_fact_recomputed_on_replaced_copy(fact, solver_calls):
    inst = _mixed_instance()
    first = fact(inst)
    copy = _replace(inst)
    assert copy == inst and hash(copy) == hash(inst)
    made = dict(solver_calls)
    again = fact(copy)
    assert solver_calls != made
    assert again == first and again is not first


def test_fact_errors_are_not_stored():
    inst = MiqpInstance(Q=RatMat([[2]]), c=RatVec([0]), A=RatMat([], cols=1),
                        b=RatVec([]), E=RatMat([], cols=1), f=RatVec([]),
                        n1=0, n2=1)
    for _ in range(2):
        with pytest.raises(UnboundedIntegerVarError):
            integer_box(inst)


@pytest.mark.parametrize("spec", ["linf", "l1", "slinf:2", "sql2"])
def test_eval_without_dualized_rows_ignores_rho(spec):
    inst = generate(GenConfig(1, 2, 0, 1, magnitude=2, seed=5))
    assert inst.m == 0
    pen = parse_penalty(spec, 0)
    values = {eval_lr_plus(inst, RatVec([]), rho, pen).value for rho in (0, 1, 4)}
    assert len(values) == 1
    assert values == {solve_ip(inst).value}


# ------------------------------------------- pure-integer slices as points

_POINT_SPECS = ("linf", "l1", "slinf:3/2", "sql2")


def _lp_route(slicer):
    """Slice values by one exact LP per box point, infeasible ones left out:
    the slice program with every row of E (a point slice's are all
    x2-only rows, which the slicer's own programs leave out)."""
    values = {}
    inst = slicer.inst
    for row in ald._box_rows(inst, integer_box(inst).assignments()):
        rep = solve_lp(full_program(inst, slicer.program(row), row.s2))
        if rep.status != INFEASIBLE:
            assert rep.status == OPTIMAL
            values[row.x2] = rep.value + slicer.constant(row)
    return values


def _point_route(slicer):
    values = {}
    for row in slicer.rows():
        rep, value = slicer.minimum(row)
        assert rep is None and value is not None
        assert slicer.lift(row.x2, rep) == RatVec(row.x2)
        values[row.x2] = value
    assert list(values) == sorted(values)
    return values


def _relax_slicers(inst, lam):
    """eval_lr_plus's slicers at lam: rho 0 once, then each kind at rho 1, 4."""
    cases = [(parse_penalty("linf", inst.m), 0)] + [
        (parse_penalty(spec, inst.m), rho)
        for spec in _POINT_SPECS for rho in (1, 4)]
    return [ald.SliceFamily(inst, lam, pen).at(rho) for pen, rho in cases]


def _point_cases():
    """d1, the pure-integer corpus and one instance without dualized rows."""
    return [d1_instance()] + [inst for inst, _ in pure_integer_corpus()] + [
        generate(GenConfig(0, 2, 0, 1, magnitude=2, seed=5))]


@pytest.mark.parametrize("idx", range(len(_point_cases())))
def test_point_slices_equal_lp_route(idx):
    inst = _point_cases()[idx]
    assert inst.n1 == 0
    slicers = [ald.SliceFamily(inst, RatVec.zeros(inst.m), None).at(0)]
    for lam in (lambda_bar(inst).lambda_bar, RatVec.zeros(inst.m)):
        slicers += _relax_slicers(inst, lam)
    for slicer in slicers:
        assert _point_route(slicer) == _lp_route(slicer)


def test_point_slices_make_no_solver_calls(d1, solver_calls):
    integer_box(d1)
    lam = lambda_bar(d1).lambda_bar
    solver_calls.update(lp=0, qp=0)
    assert solve_ip(d1).value == 1
    for spec in _POINT_SPECS:
        pen = parse_penalty(spec, 1)
        for rho in (0, 4):
            eval_lr_plus(d1, lam, rho, pen)
        rho_sufficient(d1, pen)
    assert solver_calls == {"lp": 0, "qp": 0}


def test_mixed_slices_take_one_solve_each(solver_calls):
    # the first evaluation builds the slice table, one LP per slice; every
    # evaluation then solves one QP per slice, started warm: no phase 1
    inst = _mixed_instance()
    assert inst.n1 > 0
    size = integer_box(inst).size()
    assert size > 1
    lam = lambda_bar(inst).lambda_bar
    table_lps = size
    for spec in _POINT_SPECS:
        for rho in (0, 4):
            solver_calls.update(lp=0, qp=0)
            eval_lr_plus(inst, lam, rho, parse_penalty(spec, inst.m))
            assert solver_calls == {"lp": table_lps, "qp": size}
            table_lps = 0


def grid_25():
    """The 25-slice grid instance with Q11 != 0 (n1 = 1, n2 = 2, m = 2)."""
    return grid_corpus()[GRID_SHAPES.index((1, 2, 2, 0, 2, 700))]


def factor_counts(kkt_calls, call):
    """(factorizations, KKT solves) of ``call()``, after checking that it
    factored no KKT matrix twice."""
    for made in kkt_calls.values():
        made.clear()
    call()
    factors = kkt_calls["factors"]
    assert len(set(factors)) == len(factors)
    return len(factors), len(kkt_calls["solves"])


def test_one_factor_per_kkt_matrix_per_sweep(kkt_calls):
    # an l1 sweep over four weights: rho only prices w, so the slice QPs of
    # every weight share their KKT matrices, and the sweep's one family
    # eliminates each matrix once.  A second identical sweep starts from an
    # empty mapping and factors as much as the first: nothing is carried
    # across calls.  The per-instance facts are computed first.
    inst = grid_25()
    for fact in (ald._slices, solve_ip, lambda_bar):
        fact(inst)

    def sweep():
        return gap_sweep(inst, Penalty(L1, inst.m), [1, 2, 4, 8])

    first = factor_counts(kkt_calls, sweep)
    assert first == (5, 204)
    assert factor_counts(kkt_calls, sweep) == first


def test_warm_slice_walk_kernel_calls(kkt_calls):
    # eval_lr_plus at lambda_bar, rho 1, l1 then linf, on a 25-slice grid
    # instance with Q11 != 0: 50 warm slice QPs.  Each starts with the
    # independent rows active at its start point in its working set, so no
    # step meets a zero-curvature ray (an inconsistent KKT system).  With
    # an empty starting working set the same walk made 179 KKT solves, 75
    # of them inconsistent.
    inst = grid_25()
    assert len(ald._slices(inst)) == 25
    lam = lambda_bar(inst).lambda_bar
    solves = kkt_calls["solves"]
    solves.clear()
    for spec in ("l1", "linf"):
        eval_lr_plus(inst, lam, 1, parse_penalty(spec, inst.m))
    assert len(solves) == 104
    assert [rep for _, rep in solves if rep.status == INCONSISTENT] == []


def _coupled_instance():
    """n1 = 1, n2 = 2 under x1 >= 0, 0 <= y <= 2 and the coupling row
    x1 + y1 + y2 <= 2: the box is [0, 2]^2, but the slices with
    y1 + y2 > 2 are empty."""
    return MiqpInstance(
        Q=RatMat([[2, 1, 0], [1, 1, 0], [0, 0, 1]]), c=RatVec([-1, 1, -1]),
        A=RatMat([[1, -1, 1]]), b=RatVec([1]),
        E=RatMat([[-1, 0, 0], [1, 1, 1], [0, -1, 0], [0, 0, -1], [0, 1, 0],
                  [0, 0, 1]]),
        f=RatVec([0, 2, 0, 0, 2, 2]), n1=1, n2=2)


def test_block_memo_keeps_one_block_per_penalty_shape():
    # the continuous block does not depend on the weight (the sql2 term
    # 2 rho A1^T A1 is added by each weight's slicer), so a 40-weight sql2
    # sweep leaves two blocks on the instance, solve_ip's and the
    # relaxation's, and each row equals the relaxation on a fresh instance
    inst = _coupled_instance()
    pen = Penalty(SQL2, inst.m)
    rhos = [Fraction(k, 4) for k in range(40)]
    rows = gap_sweep(inst, pen, rhos)
    assert sorted(vars(inst)["__x1_block"]) == [(None, False), (None, True)]
    lam = lambda_bar(inst).lambda_bar
    for row in rows[::13]:
        fresh = eval_lr_plus(_coupled_instance(), lam, row.rho, pen)
        assert (row.z_lr, row.violation) == (fresh.value, fresh.violation)


def _cold_route(slicer, pen):
    """eval_lr_plus's value, argmin and violation from one cold solve per
    box point, and the points whose slice is infeasible."""
    inst, best, empty = slicer.inst, None, []
    for row in ald._box_rows(inst, integer_box(inst).assignments()):
        rep, value = slicer.solve(row)
        if rep.status == INFEASIBLE:
            empty.append(row.x2)
            continue
        assert rep.status == OPTIMAL
        if best is None or value < best[0]:
            best = (value, slicer.lift(row.x2, rep))
    value, x = best
    return (value, x, evaluate(pen, inst.b - inst.A.matvec(x))), empty


def _coupled_lp_instance():
    """_coupled_instance with Q11 = 0: every slice is an LP."""
    return _replace(_coupled_instance(),
                    Q=RatMat([[0, 0, 0], [0, 1, 0], [0, 0, 1]]))


def _empty_slices(inst):
    """The box points missing from the slice table."""
    listed = {x2 for x2, *_ in ald._slices(inst)}
    return [x2 for x2 in integer_box(inst).assignments() if x2 not in listed]


def test_empty_slices_take_no_solve(solver_calls):
    inst = _coupled_instance()
    table = ald._slices(inst)
    empty = _empty_slices(inst)
    assert empty == [(1, 2), (2, 1), (2, 2)]
    lam = lambda_bar(inst).lambda_bar
    for spec in _POINT_SPECS:
        pen = parse_penalty(spec, inst.m)
        for rho in (0, 1, 4):
            solver_calls.update(lp=0, qp=0)
            got = eval_lr_plus(inst, lam, rho, pen)
            assert solver_calls == {"lp": 0, "qp": len(table)}
            slicer = ald.SliceFamily(inst, lam, pen).at(rho)
            assert _cold_route(slicer, pen) == (
                (got.value, got.argmin_x, got.violation), empty)


def test_lp_slices_skip_empty_slices(solver_calls):
    # the first evaluation builds the table, one LP per box point; every
    # evaluation then solves one cold LP per nonempty slice (6 of 9)
    inst = _coupled_lp_instance()
    integer_box(inst)
    lam = lambda_bar(inst).lambda_bar
    table_lps = 9
    for spec in ("linf", "l1", "slinf:3/2"):
        pen = parse_penalty(spec, inst.m)
        for rho in (0, 1, 4):
            solver_calls.update(lp=0, qp=0)
            got = eval_lr_plus(inst, lam, rho, pen)
            assert solver_calls == {"lp": table_lps + 6, "qp": 0}
            table_lps = 0
            slicer = ald.SliceFamily(inst, lam, pen).at(rho)
            assert slicer.quad_free
            assert _cold_route(slicer, pen) == (
                (got.value, got.argmin_x, got.violation), [(1, 2), (2, 1), (2, 2)])


def test_infeasible_table_slice_is_an_internal_error(monkeypatch):
    # the table proved every listed slice nonempty: a report of INFEASIBLE
    # for one is a solver fault, not a slice to skip (skipping the argmin
    # slice (0, 0) would return -1/2 at (0, 1)); only solve_ip's raw box
    # skips infeasible slices
    inst = _coupled_lp_instance()
    lam = lambda_bar(inst).lambda_bar
    pen = parse_penalty("linf", inst.m)
    got = eval_lr_plus(inst, lam, 0, pen)
    assert (got.value, got.assignment) == (-1, (0, 0))
    row = ald._slices(inst)[0]
    assert row.x2 == (0, 0)
    target = ald.SliceFamily(inst, lam, pen).at(0).program(row)
    solve = ald.solve_lp

    def failing(lp, factors=None):
        return SolveReport(status=INFEASIBLE) if lp == target else solve(lp, factors)

    monkeypatch.setattr(ald, "solve_lp", failing)
    with pytest.raises(InternalInvariantError, match=r"\(0, 0\)"):
        eval_lr_plus(inst, lam, 0, pen)
    assert solve_ip(inst).status == OPTIMAL


@pytest.mark.parametrize("make, calls", [
    (_coupled_instance, {"lp": 9 + 6, "qp": 6 + 6}),
    (_coupled_lp_instance, {"lp": 9 + 6 + 6, "qp": 0}),
])
def test_dual_linf_probes_no_empty_slice(make, calls, solver_calls):
    # the table's LPs, one cold probe per nonempty slice at rho* = 1, then
    # the primal verification's evaluation over the nonempty slices
    inst = make()
    solve_ip(inst)
    lambda_bar(inst)
    solver_calls.update(lp=0, qp=0)
    cert = rho_dual_linf(inst)
    assert solver_calls == calls
    assert cert.rho_star == 1
    assert [r.assignment for r in cert.evidence.records] == [
        x2 for x2, *_ in ald._slices(inst)]


def _x2_only_instance(q11):
    """n1 = 1, n2 = 2 under 0 <= x1 <= 4, 0 <= y <= 2 and the x2-only row
    y1 + y2 <= 3: the box is [0, 2]^2, and (2, 2) breaks only that row."""
    return MiqpInstance(
        Q=RatMat([[q11, 0, 0], [0, 1, 0], [0, 0, 1]]), c=RatVec([-1, 1, -1]),
        A=RatMat([[1, -1, 1]]), b=RatVec([1]),
        E=RatMat([[-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 1, 0],
                  [0, 0, 1], [0, 1, 1]]),
        f=RatVec([0, 4, 0, 0, 2, 2, 3]), n1=1, n2=2)


@pytest.mark.parametrize("q11, ip_calls", [(0, {"lp": 8, "qp": 0}),
                                           (2, {"lp": 8, "qp": 8})],
                         ids=["lp", "qp"])
def test_x2_only_rows_take_no_solve(q11, ip_calls, solver_calls):
    # a box point that breaks an x2-only row has an empty slice, found with
    # no LP: the table makes one LP for each of the other 8 points, and
    # solve_ip's raw box one cold LP, or one cold QP and its phase-1 LP
    inst = _x2_only_instance(q11)
    assert (integer_box(inst).lower, integer_box(inst).upper) == ((0, 0), (2, 2))
    lambda_bar(inst)
    solver_calls.update(lp=0, qp=0)
    table = [row.x2 for row in ald._slices(inst)]
    assert solver_calls == {"lp": 8, "qp": 0}
    assert table == [x2 for x2 in integer_box(inst).assignments() if x2 != (2, 2)]
    solver_calls.update(lp=0, qp=0)
    assert solve_ip(inst).status == OPTIMAL
    assert solver_calls == ip_calls


def test_dual_linf_builds_one_kkt_form_per_system(monkeypatch):
    # every probe LP of rho_dual_linf shares one constraint system, and the
    # call's mapping keeps its KKT check's int form: one form, not one per
    # probe.  Only the probes' LPs are counted: the primal verification's
    # eval_lr_plus builds a family, and a form, of its own
    inst = _coupled_lp_instance()
    for fact in (integer_box, lambda_bar, solve_ip):
        fact(inst)
    forms, systems, probing = [], set(), [False]
    make_form, solve, probe = convexsolve._KktForm, ald.solve_lp, exactrho._dual_probe

    def counting(*key):
        if probing[0]:
            forms.append(key)
        return make_form(*key)

    def recording(lp, factors=None):
        if probing[0]:
            systems.add((lp.eq_lhs, lp.ineq_lhs))
        return solve(lp, factors=factors)

    def marked(*args):
        probing[0] = True
        try:
            return probe(*args)
        finally:
            probing[0] = False

    monkeypatch.setattr(convexsolve, "_KktForm", counting)
    monkeypatch.setattr(ald, "solve_lp", recording)
    monkeypatch.setattr(exactrho, "_dual_probe", marked)
    cert = rho_dual_linf(inst)
    assert len(cert.evidence.records) == 6
    assert len(forms) == len(systems) == 1


@pytest.mark.parametrize("idx", range(len(PURE_INTEGER_SHAPES) + 1))
def test_dual_linf_on_points_makes_no_solver_calls(idx, solver_calls):
    # once the per-instance facts are stored, a pure-integer instance's
    # probes are written down in closed form and its primal verification
    # walks point slices: no LP and no QP
    inst = [d1_instance(), *(inst for inst, _ in pure_integer_corpus())][idx]
    for fact in (integer_box, solve_ip, lambda_bar):
        fact(inst)
    solver_calls.update(lp=0, qp=0)
    cert = rho_dual_linf(inst)
    assert solver_calls == {"lp": 0, "qp": 0}
    assert len(cert.evidence.records) == len(ald._slices(inst))


@pytest.mark.parametrize("idx", range(len(GRID_SHAPES) + 1))
def test_slice_table_lists_the_nonempty_slices(idx):
    # the grid corpus, then an instance with empty slices
    inst = [*grid_corpus(), _coupled_instance()][idx]
    E1, E2 = inst.split_cols(inst.E)
    A2 = inst.split_cols(inst.A)[1]
    Q12 = inst.q_blocks()[1]
    c1, c2 = inst.c_split()
    nonempty = []
    for x2 in integer_box(inst).assignments():
        rhs = inst.f - E2.matvec(RatVec(x2))
        if inst.n1 == 0:
            feasible = all(v >= 0 for v in rhs)
        else:
            feasible = solve_lp(LinearProgram(
                RatVec.zeros(inst.n1), RatMat([], cols=inst.n1), RatVec([]),
                E1, rhs)).status == OPTIMAL
        if feasible:
            nonempty.append(x2)
    table = ald._slices(inst)
    assert [x2 for x2, *_ in table] == nonempty
    for x2, r2, s2, f2, g1, x1 in table:
        x2v = RatVec(x2)
        assert r2 == inst.b - A2.matvec(x2v) and s2 == inst.f - E2.matvec(x2v)
        assert f2 == inst.objective_value(RatVec([0] * inst.n1 + list(x2)))
        assert g1 == c1 + Q12.matvec(x2v)
        assert len(x1) == inst.n1
        assert all(v <= s for v, s in zip(E1.matvec(x1), s2))


def _no_variables(b, f):
    """n1 = n2 = 0: one dualized row 0 = b and one row 0 <= f."""
    return MiqpInstance(Q=RatMat([], cols=0), c=RatVec([]), A=RatMat([[]], cols=0),
                        b=RatVec([b]), E=RatMat([[]], cols=0), f=RatVec([f]),
                        n1=0, n2=0)


def test_point_path_without_variables():
    inst = _no_variables(0, 2)
    rep = solve_ip(inst)
    assert rep.status == OPTIMAL and rep.value == 0 and rep.x == RatVec([])
    inst = _no_variables(1, 2)
    assert solve_ip(inst).status == INFEASIBLE
    relax = eval_lr_plus(inst, RatVec([2]), 3, Penalty(LINF, 1))
    assert relax.value == 5 and relax.assignment == () and relax.violation == 1
    for slicer in _relax_slicers(inst, RatVec([2])):
        assert _point_route(slicer) == _lp_route(slicer) != {}
    with pytest.raises(InfeasibleDomainError):
        eval_lr_plus(_no_variables(1, -1), RatVec([0]), 1, Penalty(LINF, 1))


def test_point_path_no_lattice_point():
    # x1 + x2 = 1/2 as two inequalities: the box [-2, 3]^2 is not empty,
    # but the set has no integer point
    d1 = d1_instance()
    rows = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]
    half = Fraction(1, 2)
    inst = _replace(d1, E=RatMat(rows), f=RatVec([3, 3, 3, 3, half, -half]))
    assert integer_box(inst).size() == 36
    assert solve_ip(inst).status == INFEASIBLE
    for slicer in _relax_slicers(inst, RatVec([1])):
        assert _point_route(slicer) == _lp_route(slicer) == {}
    with pytest.raises(InfeasibleDomainError):
        eval_lr_plus(inst, RatVec([1]), 1, Penalty(LINF, 1))


def test_point_path_without_dualized_rows():
    inst = _point_cases()[-1]
    assert inst.m == 0
    z_ip = solve_ip(inst).value
    for spec in _POINT_SPECS:
        for rho in (0, 1, 4):
            assert eval_lr_plus(inst, RatVec([]), rho,
                                parse_penalty(spec, 0)).value == z_ip


# ------------------------------------------ argmin order over tied slices

def _tied_instance(q11, c, a):
    """n1 = n2 = 1 under 0 <= x1 <= 1 and -1 <= y <= 2, objective
    1/2 q11 x1^2 + y^2 + c.x and one dualized row a.x = 0: an LP slice
    when q11 = 0, else a QP slice."""
    return MiqpInstance(
        Q=RatMat([[q11, 0], [0, 2]]), c=RatVec(c), A=RatMat([a]), b=RatVec([0]),
        E=RatMat([[1, 0], [-1, 0], [0, 1], [0, -1]]), f=RatVec([1, 0, 2, 1]),
        n1=1, n2=1)


@pytest.mark.parametrize("q11, c", [(0, [-1, 0]), (2, [-1, -1])],
                         ids=["lp", "qp"])
def test_solve_ip_takes_the_first_tied_slice(q11, c):
    # x1 = y on the raw box: y = -1 and y = 2 leave 0 <= x1 <= 1 (skipped),
    # and y = 0, y = 1 tie at 0
    inst = _tied_instance(q11, c, [1, -1])
    slicer = ald.SliceFamily(inst, RatVec([0]), None).at(0)
    assert slicer.quad_free == (q11 == 0)
    assert [inst.objective_value(RatVec([y, y])) for y in (0, 1)] == [0, 0]
    rep = solve_ip(inst)
    assert rep.status == OPTIMAL and rep.value == 0
    assert rep.x == RatVec([0, 0])


@pytest.mark.parametrize("q11, c, x1", [(0, [-1, -2], 1),
                                        (2, [-1, -2], Fraction(1, 2))],
                         ids=["lp", "qp"])
@pytest.mark.parametrize("spec", ["linf", "sql2"])
def test_eval_takes_the_first_tied_slice(q11, c, x1, spec):
    # row y = 0 at lam = 0, rho = 1: the y-part y^2 - 2y + rho psi(-y) is
    # 4, 0, 0, 2 (linf) or 4, 0, 0, 4 (sql2) at y = -1, 0, 1, 2, and x1's
    # part is the same minimum on every slice; y = 1 has violation 1
    inst = _tied_instance(q11, c, [0, 1])
    pen = parse_penalty(spec, 1)
    assert ald.SliceFamily(inst, RatVec([0]), pen).at(1).quad_free == (q11 == 0)
    got = eval_lr_plus(inst, RatVec([0]), 1, pen)
    assert got.assignment == (0,)
    assert got.argmin_x == RatVec([x1, 0])
    assert got.violation == 0
    assert got.value == inst.objective_value(RatVec([x1, 0]))


def _unbounded_instance(quu):
    """x = (u, v, y1, y2): u <= 0 and y1 + y2 >= 2 - u couple u to y, so
    the box is [0, 2]^2 but (0, 0), (0, 1) and (1, 0) have empty slices;
    v is free, and the dualized row is v = 0."""
    Q = RatMat([[quu, 0, 0, 0]] + [[0] * 4] * 3)
    return MiqpInstance(
        Q=Q, c=RatVec.zeros(4), A=RatMat([[0, 1, 0, 0]]), b=RatVec([0]),
        E=RatMat([[1, 0, 0, 0], [-1, 0, -1, -1], [0, 0, 1, 0], [0, 0, -1, 0],
                  [0, 0, 0, 1], [0, 0, 0, -1]]),
        f=RatVec([0, -2, 2, 0, 2, 0]), n1=2, n2=2)


@pytest.mark.parametrize("quu", [0, 2], ids=["lp", "qp"])
def test_eval_reports_the_first_unbounded_slice(quu):
    # at lam = 1, rho = 0 the term -v is unbounded below on every
    # nonempty slice: the first of them, (0, 2), is reported
    inst = _unbounded_instance(quu)
    table = [row.x2 for row in ald._slices(inst)]
    assert table == [(0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    got = eval_lr_plus(inst, RatVec([1]), 0, Penalty(LINF, 1))
    assert got.unbounded and got.assignment == (0, 2)
    assert (got.value, got.argmin_x, got.violation) == (None, None, None)


def test_sweep_checks_dimensions_at_the_call(d1):
    # a caller that prints a header before the first row sees the error first
    with pytest.raises(DimMismatchError, match="penalty dim 2"):
        ald.stream_gap_sweep(d1, Penalty(LINF, 2), [0, 1])
    with pytest.raises(DimMismatchError, match="multiplier dim 2"):
        ald.stream_gap_sweep(d1, Penalty(LINF, 1), [0, 1], lam=RatVec([1, 2]))


def test_identical_rows_share_one_factor(kkt_calls):
    # grid_25 with the x1 entry of A's first row set to zero: both l1
    # epigraph rows of that residual coordinate read -t_0 <= ..., so a
    # working set holding one of them selects the same row of the slice
    # programs as one holding the other.  The factor table keys working
    # sets by the least index of their identical rows: each KKT matrix is
    # factored once (5 factorizations when keyed by row index).
    inst = grid_25()
    A = inst.A.row_list()
    A[0][0] = Fraction(0)
    inst = _replace(inst, A=RatMat(A))
    lam = lambda_bar(inst).lambda_bar
    pen = parse_penalty("l1", inst.m)
    G = ald.SliceFamily(inst, lam, pen).at(1).ineq_mat
    n1, epi = inst.n1, G.rows - 2 * inst.m
    assert G.row(epi) == G.row(epi + 1)
    assert list(G.row(epi))[:n1] == [0] * n1
    assert factor_counts(kkt_calls, lambda: eval_lr_plus(inst, lam, 1, pen)) == (3, 53)
