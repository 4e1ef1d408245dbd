import contextlib
import dataclasses
import functools
import hashlib
import json
from fractions import Fraction

import pytest

from aldual import ald, exactrho
from aldual.ald import (
    SliceFamily,
    eval_lr_plus,
    ground_truth,
    lambda_bar,
    solve_ip,
)
from aldual.convexsolve import OPTIMAL, LinearProgram, solve_lp, solve_qp
from aldual.errors import (
    AldualError,
    DeltaZeroError,
    DimMismatchError,
    InternalInvariantError,
    UnsupportedKindError,
)
from aldual.exactrho import (
    DUAL_LINF,
    EMPIRICAL,
    EMPIRICAL_WIDTH,
    LAMBDA_SHIFT,
    NORM_CONVERT,
    SUFFICIENT,
    DualAssignmentRecord,
    EmpiricalBound,
    RhoCertificate,
    SufficientEvidence,
    certificate_empirical,
    certificate_for_lambda,
    certificate_for_norm,
    certify,
    rho_bisect_empirical,
    rho_dual_linf,
    rho_for_lambda,
    rho_for_norm,
    rho_sufficient,
)
from aldual.instance import GenConfig, MiqpInstance, generate
from aldual.numkit import RatMat, RatVec, rat
from aldual.penalty import L1, LINF, Penalty, SCALED_LINF, SQL2, parse_penalty

from conftest import d1_instance
from corpus import grid_corpus, pure_integer_corpus
from test_ald import _coupled_instance, _coupled_lp_instance, factor_counts, grid_25
from test_slice_programs import _equivalence_cases, _reference

WIDTH = Fraction(1, 1024)
_ZERO = Fraction(0)


def gap_instance():
    """Generated mixed instance whose classical relaxation leaves a gap,
    so the minimal certifying weight is strictly positive (small box)."""
    return generate(GenConfig(3, 1, 2, 1, magnitude=2, seed=1900))


# ------------------------------------------------------------- sufficient

def test_sufficient_d1(d1):
    cert = rho_sufficient(d1, Penalty(LINF, 1))
    assert cert.method == SUFFICIENT
    assert cert.rho_star == Fraction(1, 2)
    assert cert.evidence.delta == 1
    assert cert.evidence.x_tilde == RatVec([0, 1])
    assert certify(d1, cert.lambda_used, cert.rho_star, Penalty(LINF, 1))


def test_sufficient_tight_instance_accepts_zero(d1):
    # relaxation optimum attained at an integer-feasible point: numerator 0
    inst = MiqpInstance(Q=RatMat([[2, 0], [0, 2]]), c=RatVec([-2, 0]),
                        A=RatMat([[1, 1]]), b=RatVec([1]),
                        E=d1.E, f=d1.f, n1=0, n2=2)
    cert = rho_sufficient(inst, Penalty(LINF, 1))
    assert cert.rho_star == 0


def test_sufficient_delta_zero():
    # continuous variable acts on the dualized row and can reach residual 0
    inst = MiqpInstance(Q=RatMat([[2, 0], [0, 2]]), c=RatVec([0, 0]),
                        A=RatMat([[1, 0]]), b=RatVec([Fraction(1, 3)]),
                        E=RatMat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                        f=RatVec([3, 3, 3, 3]), n1=1, n2=1)
    with pytest.raises(DeltaZeroError):
        rho_sufficient(inst, Penalty(LINF, 1))


def test_sufficient_l1_and_sql2_kinds(d1):
    for kind in (L1, SQL2):
        cert = rho_sufficient(d1, Penalty(kind, 1))
        assert certify(d1, cert.lambda_used, cert.rho_star, Penalty(kind, 1))


@pytest.mark.parametrize("pen", [Penalty(LINF, 0), Penalty(L1, 0),
                                 Penalty(SQL2, 0),
                                 Penalty(SCALED_LINF, 0, alpha=Fraction(1, 2))],
                         ids=lambda p: p.kind)
def test_sufficient_no_dualized_rows(pen):
    # no dualized rows (m = 0): the epigraph has no rows, so w must be
    # pinned at zero, and every penalty is identically zero
    inst = generate(GenConfig(n1=1, n2=1, m=0, m2=1, magnitude=2, seed=3))
    cert = rho_sufficient(inst, pen)
    assert cert.rho_star == 0
    assert cert.evidence.delta == 1
    assert certify(inst, cert.lambda_used, cert.rho_star, pen)


def _zero_a1(inst):
    """inst with A's continuous columns zeroed (A1 = 0)."""
    A = [[0] * inst.n1 + row[inst.n1:] for row in inst.A.row_list()]
    return dataclasses.replace(inst, A=RatMat(A, cols=inst.n))


def _sufficient_cases():
    """The slice-program equivalence cases (d1, the grid and pure-integer
    corpora, the coupled all-LP instance), the coupled instance, and a copy
    with A1 = 0 of each mixed one among them."""
    cases = _equivalence_cases() + [_coupled_instance()]
    return cases + [_zero_a1(inst) for inst in cases if inst.n1]


def _least_penalty(ref, inst, row):
    """A table slice's least penalty: its substitution program at zero
    objective and weight 1, solved (a point slice's in closed form)."""
    x2v = RatVec(row.x2)
    if inst.n1 == 0:
        return ref.point_value(x2v)
    program = ref.program(x2v)
    rep = (solve_lp if isinstance(program, LinearProgram) else solve_qp)(program)
    assert rep.status == OPTIMAL, row.x2
    return rep.value + ref.constant(x2v)


def _sufficient_by_slice_programs(inst, pen):
    """The margin-formula certificate by one least-penalty solve per table
    slice: DeltaZeroError where a slice reaches zero residual and A1 != 0,
    else delta, the least positive slice minimum (1 if none)."""
    ip = ground_truth(inst)
    duals = lambda_bar(inst)
    n = inst.n
    ref = _reference(inst, RatMat.zeros(n, n), RatVec.zeros(n), _ZERO, pen,
                     Fraction(1))
    continuous_acts = not inst.split_cols(inst.A)[0].is_zero()
    least = [_least_penalty(ref, inst, row) for row in ald._slices(inst)]
    if continuous_acts and _ZERO in least:
        raise DeltaZeroError("zero residual")
    delta = min((v for v in least if v > 0), default=Fraction(1))
    rho = (inst.objective_value(ip.x) - duals.z_nlp) / delta
    assert certify(inst, duals.lambda_bar, rho, pen)
    return RhoCertificate(rho, SUFFICIENT, duals.lambda_bar,
                          SufficientEvidence(ip.x, delta, duals.z_nlp))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AldualError as exc:
        return type(exc)


@pytest.mark.parametrize("idx", range(len(_sufficient_cases())))
def test_sufficient_equals_the_slice_program_route(idx):
    # delta read off the slice table equals the least positive minimum of
    # the solved least-penalty programs, and the refusal comes exactly
    # where one reaches zero while A1 != 0
    inst = _sufficient_cases()[idx]
    for spec in ("linf", "l1", "slinf:3/2", "sql2"):
        pen = parse_penalty(spec, inst.m)
        assert _outcome(rho_sufficient, inst, pen) == \
            _outcome(_sufficient_by_slice_programs, inst, pen), spec


def test_sufficient_cases_cover_both_outcomes():
    outcomes = {_outcome(rho_sufficient, inst, Penalty(LINF, inst.m))
                for inst in _sufficient_cases()}
    assert DeltaZeroError in outcomes
    assert any(isinstance(o, RhoCertificate) and o.evidence.delta != 1
               for o in outcomes)
    mixed = [inst for inst in _sufficient_cases()
             if inst.n1 and inst.split_cols(inst.A)[0].is_zero()]
    assert any(isinstance(_outcome(rho_sufficient, inst, Penalty(LINF, inst.m)),
                          RhoCertificate) for inst in mixed)


@pytest.mark.parametrize("make, zero_a1", [
    (d1_instance, False), (_coupled_instance, False),
    (_coupled_lp_instance, False), (_coupled_instance, True)])
def test_sufficient_solves_no_slice_program(make, zero_a1, solver_calls,
                                            monkeypatch):
    # past the ground truth, lambda_bar and the slice table, the margin
    # formula makes no LP or QP: it refuses when A1 != 0 and reads psi(r2)
    # off the table when A1 = 0 (certify is stubbed: the primal
    # verification of a mixed instance solves the relaxation's slices)
    inst = _zero_a1(make()) if zero_a1 else make()
    ground_truth(inst), lambda_bar(inst), ald._slices(inst)
    monkeypatch.setattr(exactrho, "certify", lambda *args: True)
    solver_calls.update(lp=0, qp=0)
    acts = not inst.split_cols(inst.A)[0].is_zero()
    with pytest.raises(DeltaZeroError) if acts else contextlib.nullcontext():
        rho_sufficient(inst, Penalty(LINF, inst.m))
    assert solver_calls == {"lp": 0, "qp": 0}


# -------------------------------------------------------------- dual linf

def test_dual_linf_d1(d1):
    cert = rho_dual_linf(d1)
    assert cert.method == DUAL_LINF
    assert certify(d1, cert.lambda_used, cert.rho_star, Penalty(LINF, 1))
    # one record per feasible assignment, all identities checked on build
    assert len(cert.evidence.records) == 49
    z_ip = solve_ip(d1).value
    for rec in cert.evidence.records:
        assert rec.dual_value >= z_ip
        assert sum(rec.y1, Fraction(0)) + sum(rec.y2, Fraction(0)) == rec.rho_x2


def test_dual_linf_record_identities_manually(d1):
    cert = rho_dual_linf(d1)
    Q11, Q12, _ = d1.q_blocks()
    A1, A2 = d1.split_cols(d1.A)
    E1, _ = d1.split_cols(d1.E)
    c1, _ = d1.c_split()
    lam = cert.lambda_used
    for rec in cert.evidence.records:
        x2 = RatVec(rec.assignment)
        lhs = c1 - A1.tmatvec(lam) + Q12.matvec(x2) \
            + A1.tmatvec(rec.y1 - rec.y2) + E1.tmatvec(rec.y3) \
            + rec.y4 - rec.y5
        assert lhs == Q11.tmatvec(rec.nu)


def test_dual_linf_no_dualized_rows_trivial():
    inst = MiqpInstance(Q=RatMat([[2]]), c=RatVec([1]), A=RatMat([], cols=1),
                        b=RatVec([]), E=RatMat([[1], [-1]]), f=RatVec([2, 2]),
                        n1=0, n2=1)
    cert = rho_dual_linf(inst)
    assert cert.rho_star == 1
    assert cert.evidence.records == ()


def test_dual_linf_dominates_empirical_on_gap_instance():
    inst = gap_instance()
    cert = rho_dual_linf(inst)
    nd = lambda_bar(inst)
    bound = rho_bisect_empirical(inst, nd.lambda_bar, Penalty(LINF, inst.m),
                                 rho_max=max(cert.rho_star, 1))
    assert bound.achieved
    assert bound.rho_min_upper > Fraction(1, 4)  # genuinely positive gap
    assert cert.rho_star >= bound.rho_min_upper - WIDTH


# Every _dual_probe call of rho_dual_linf, as "x2@rho" in call order, and the
# sha256 of its certificate as the CLI renders it; captured before the
# search kept one record per row.  Seed 131 bisects through the fractional
# midpoints 63/2, 119/4 and 231/8 (running weight 7, doubled to 56).
_DUAL_LINF_PINS = {
    24: ("35/4", (
        "-2,-2@1 -2,-1@1 -2,0@1 -2,0@2 -2,0@4 -2,0@3 -2,1@4 -2,1@8 -2,1@6 "
        "-2,1@5 -2,2@5 -1,-2@5 -1,-1@5 -1,0@5 -1,1@5 -1,1@10 -1,1@15/2 "
        "-1,1@35/4 -1,1@65/8 -1,2@35/4 0,-2@35/4 0,-1@35/4 0,0@35/4 0,1@35/4 "
        "0,2@35/4 1,-2@35/4 1,-1@35/4 1,0@35/4 1,1@35/4 1,2@35/4 2,-2@35/4 "
        "2,-1@35/4 2,0@35/4 2,1@35/4 2,2@35/4"),
        "84689fc2924eacdd4646f7bc0cbf122367e8f4fefd82a5ab8a936d62592a6df4"),
    131: ("6237/128", (
        "-2,-2@1 -2,-1@1 -2,-1@2 -2,-1@4 -2,-1@3 -2,0@4 -2,1@4 -2,2@4 "
        "-1,-2@4 -1,-2@8 -1,-2@6 -1,-2@7 -1,-1@7 -1,-1@14 -1,-1@28 -1,-1@56 "
        "-1,-1@42 -1,-1@35 -1,-1@63/2 -1,-1@119/4 -1,-1@231/8 -1,0@231/8 "
        "-1,1@231/8 -1,2@231/8 0,-2@231/8 0,-1@231/8 0,0@231/8 0,1@231/8 "
        "0,2@231/8 1,-2@231/8 1,-1@231/8 1,0@231/8 1,0@231/4 1,0@693/16 "
        "1,0@1617/32 1,0@3003/64 1,0@6237/128 1,0@12243/256 1,1@6237/128 "
        "1,2@6237/128"),
        "990875dd212782d70cbd93a16d57d04963988391b4d4c96fb508d21d21082f12"),
}


@pytest.mark.parametrize("seed", sorted(_DUAL_LINF_PINS))
def test_dual_linf_probe_sequence_pinned(seed, monkeypatch):
    inst = generate(GenConfig(0, 2, 1, 1, magnitude=2, seed=seed))
    probes = []
    probe = exactrho._dual_probe

    def recording(inst, blocks, slicer, row, rho):
        probes.append(f"{','.join(map(str, row.x2))}@{rho}")
        return probe(inst, blocks, slicer, row, rho)

    monkeypatch.setattr(exactrho, "_dual_probe", recording)
    cert = rho_dual_linf(inst)
    rho_star, sequence, digest = _DUAL_LINF_PINS[seed]
    assert str(cert.rho_star) == rho_star
    assert " ".join(probes) == sequence
    text = json.dumps(cert.to_json_dict(), indent=1, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # each row's record is the probe at its final weight: the weight the
    # next row starts from, and rho* for the last row
    starts = {}
    for entry in probes:
        x2, rho = entry.split("@")
        starts.setdefault(x2, Fraction(rho))
    finals = list(starts.values())[1:] + [cert.rho_star]
    assert [rec.rho_x2 for rec in cert.evidence.records] == finals
    assert [",".join(map(str, rec.assignment)) for rec in cert.evidence.records] \
        == list(starts)


# ----------------------------------------- closed-form point records

def reference_dual_probe(inst, blocks, slicer, row, rho) -> DualAssignmentRecord:
    """``exactrho._dual_probe`` as it was before point rows were written in
    closed form, every row solved as an LP.

    Solve one table row's max-norm subproblem at weight rho, cold
    (``slicer`` is the relaxation's slicer at (lam, rho)), and extract the
    exact dual point.  The epigraph rows hold for a large enough w, so a
    report other than OPTIMAL raises InternalInvariantError; the record's
    dual objective equals the subproblem value by strong duality, checked
    exactly along with the multiplier identities, from the instance's
    ``blocks`` at lam (Q11, Q12, Q22, A1, A2, E1, E2, c1 - A1^T lam,
    c2 - A2^T lam, lam.b), not from the row.  The subproblem holds only
    the rows of E with a nonzero E1 (``slicer.kept``); ``y3`` has one
    entry per row of E, 0 on each x2-only row, the multiplier that row
    would take in the program with every row (it constrains no variable).
    """
    rep, value = slicer.solve(row._replace(x1=None))
    if rep.status != OPTIMAL:
        raise InternalInvariantError(
            f"slice {row.x2} subproblem {rep.status} at the optimal multipliers"
        )
    m, n1, kept = inst.m, inst.n1, slicer.kept
    mu, k = rep.ineq_duals, len(kept)
    y3 = [_ZERO] * inst.m2
    for j, y in zip(kept, mu):
        y3[j] = y
    y3 = RatVec(y3)
    y1 = RatVec(mu[k + 2 * i] for i in range(m))
    y2 = RatVec(mu[k + 2 * i + 1] for i in range(m))
    zeros1 = RatVec.zeros(n1)
    nu = -RatVec(rep.x[:n1])
    x2v = RatVec(row.x2)
    Q11, Q12, Q22, A1, A2, E1, E2, c1_lam, c2_lam, lam_b = blocks

    if sum(y1, _ZERO) + sum(y2, _ZERO) != rho:
        raise InternalInvariantError("residual-row multipliers do not sum to rho")
    lhs = c1_lam + Q12.matvec(x2v) + A1.tmatvec(y1 - y2) + E1.tmatvec(y3)
    if lhs != Q11.tmatvec(nu):
        raise InternalInvariantError("dual stationarity row failed")
    excess = A2.matvec(x2v) - inst.b
    dual_value = (
        -nu.dot(Q11.matvec(nu)) / 2
        + excess.dot(y1)
        - excess.dot(y2)
        + (E2.matvec(x2v) - inst.f).dot(y3)
        + lam_b
        + c2_lam.dot(x2v)
        + x2v.dot(Q22.matvec(x2v)) / 2
    )
    if dual_value != value:
        raise InternalInvariantError("dual objective differs from primal value")
    return DualAssignmentRecord(
        assignment=tuple(row.x2), nu=nu, y1=y1, y2=y2, y3=y3,
        y4=zeros1, y5=zeros1, rho_x2=rho, dual_value=dual_value,
    )


# Drawn pure-integer instances for the closed form's reference test: their
# m = 2 and m = 3 rows give the ties in max |r2_i| that d1 (m = 1) lacks.
_DRAWN_POINT_CONFIGS = [GenConfig(0, 2 + seed % 2, m, seed // 2 % 2, magnitude=2,
                                  seed=seed)
                        for m in (1, 2, 3) for seed in range(16)]


def test_point_records_equal_the_lp_route(monkeypatch):
    # every probe of a pure-integer instance, its record written down with
    # no solve, is the record the cold LP gives, field for field; a tie in
    # max |r2_i| is where a tie rule can be wrong
    insts = [d1_instance(), *(inst for inst, _ in pure_integer_corpus()),
             *(generate(GenConfig(0, 2, 1, 1, magnitude=2, seed=seed))
               for seed in sorted(_DUAL_LINF_PINS)),
             *(generate(config) for config in _DRAWN_POINT_CONFIGS)]
    probe, counts = exactrho._dual_probe, {"probes": 0, "ties": 0}

    def compared(inst, blocks, slicer, row, rho):
        got = probe(inst, blocks, slicer, row, rho)
        want = reference_dual_probe(inst, blocks, slicer, row, rho)
        for field in dataclasses.fields(DualAssignmentRecord):
            assert getattr(got, field.name) == getattr(want, field.name), \
                (field.name, row.x2, rho)
        top = max(abs(v) for v in row.r2)
        counts["probes"] += 1
        counts["ties"] += sum(abs(v) == top for v in row.r2) > 1
        return got

    monkeypatch.setattr(exactrho, "_dual_probe", compared)
    for inst in insts:
        assert inst.n1 == 0
        rho_dual_linf(inst)
    assert counts["probes"] >= 1500
    assert counts["ties"] >= 500


# ------------------------------------------------------------ conversions

def test_rho_for_norm_examples():
    assert rho_for_norm(3, Penalty(LINF, 2)) == 3
    assert rho_for_norm(3, Penalty(L1, 2)) == 6
    with pytest.raises(UnsupportedKindError):
        rho_for_norm(3, Penalty(SQL2, 2))


def test_rho_for_norm_certifies_on_d1(d1):
    cert = certificate_for_norm(d1, Penalty(L1, 1))
    assert cert.method == NORM_CONVERT
    assert certify(d1, cert.lambda_used, cert.rho_star, Penalty(L1, 1))


def test_rho_for_lambda_zero_shift_is_ceiling():
    lam = RatVec([1, -2])
    assert rho_for_lambda(Fraction(3, 2), lam, lam, Penalty(LINF, 2)) == 2
    assert rho_for_lambda(Fraction(2), lam, lam, Penalty(LINF, 2)) == 2


def test_rho_for_lambda_monotone_in_shift():
    lam = RatVec([0])
    pen = Penalty(LINF, 1)
    vals = [rho_for_lambda(1, RatVec([t]), lam, pen) for t in range(5)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_rho_for_lambda_certifies_on_d1(d1):
    nd = lambda_bar(d1)
    base = rho_dual_linf(d1)
    for lt in (RatVec([0]), RatVec([Fraction(5, 2)]), RatVec([-3])):
        rho = rho_for_lambda(base.rho_star, lt, nd.lambda_bar, Penalty(LINF, 1))
        assert certify(d1, lt, rho, Penalty(LINF, 1))


def test_certificate_for_lambda_wrapper(d1):
    cert = certificate_for_lambda(d1, Penalty(LINF, 1), RatVec([0]))
    assert cert.method == LAMBDA_SHIFT
    assert cert.lambda_used == RatVec([0])


# -------------------------------------------------------------- empirical

def test_empirical_d1_zero_weight_suffices(d1):
    nd = lambda_bar(d1)
    rep = rho_bisect_empirical(d1, nd.lambda_bar, Penalty(LINF, 1), 4)
    assert rep.achieved
    assert rep.rho_min_upper <= Fraction(1, 2) + WIDTH


def test_empirical_failure_reported():
    inst = gap_instance()
    nd = lambda_bar(inst)
    rep = rho_bisect_empirical(inst, nd.lambda_bar, Penalty(LINF, inst.m),
                               rho_max=Fraction(1, 8))
    assert not rep.achieved


def test_empirical_rejects_sql2(d1):
    nd = lambda_bar(d1)
    with pytest.raises(UnsupportedKindError):
        rho_bisect_empirical(d1, nd.lambda_bar, Penalty(SQL2, 1), 4)


def test_empirical_certificate(d1):
    nd = lambda_bar(d1)
    cert = certificate_empirical(d1, nd.lambda_bar, Penalty(LINF, 1), 4)
    assert cert.method == EMPIRICAL
    assert certify(d1, cert.lambda_used, cert.rho_star, Penalty(LINF, 1))


def test_slinf_one_is_linf_on_the_grid_corpus():
    for inst in grid_corpus():
        lam = lambda_bar(inst).lambda_bar
        linf, one = Penalty(LINF, inst.m), parse_penalty("slinf:1", inst.m)
        for rho in (0, Fraction(1, 2), 1, 3):
            assert eval_lr_plus(inst, lam, rho, one) == eval_lr_plus(inst, lam, rho, linf)
        assert rho_bisect_empirical(inst, lam, one, 4) == \
            rho_bisect_empirical(inst, lam, linf, 4)


# the reference's evaluations, shared between the calls of one case (the
# rho = 0 evaluation recurs for every rho_max)
_reference_eval = functools.cache(eval_lr_plus)


def _midpoint_bisection(inst, lam, pen, rho_max):
    """The oracle's earlier algorithm, kept as the reference: one
    evaluation over every slice at each midpoint, the code verbatim but
    for the memoized evaluator."""
    if not pen.is_norm:
        raise UnsupportedKindError("empirical bisection needs a norm kind")
    rho_max = rat(rho_max)
    z_ip = ground_truth(inst).value

    def hit(rho: Fraction) -> bool:
        rep = _reference_eval(inst, lam, rho, pen)
        return (not rep.unbounded) and rep.value == z_ip

    if hit(_ZERO):
        return EmpiricalBound(_ZERO, True)
    if not hit(rho_max):
        return EmpiricalBound(rho_max, False)
    lo, hi = _ZERO, rho_max
    while hi - lo > EMPIRICAL_WIDTH:
        mid = (lo + hi) / 2
        if hit(mid):
            hi = mid
        else:
            lo = mid
    return EmpiricalBound(hi, True)


def _norm_penalties(m):
    return (Penalty(LINF, m), Penalty(L1, m),
            Penalty(SCALED_LINF, m, alpha=Fraction(3, 2)))


# the first four instances of the benchmark's certify draw at seed 0: a
# mixed stratum (QP slices) and a pure-integer one, both with a classical gap
_CERTIFY_STRATUM = [
    GenConfig(1, 1, 1, 0, magnitude=2, seed=751071109),
    GenConfig(0, 2, 1, 0, magnitude=1, seed=872435803),
    GenConfig(1, 1, 1, 0, magnitude=2, seed=651273692),
    GenConfig(0, 2, 1, 0, magnitude=1, seed=606154935),
]
_EQUIVALENCE_CASES = (["d1", "coupled", "coupled-lp"]
                      + [f"grid{i}" for i in range(25)]
                      + [f"certify{i}" for i in range(len(_CERTIFY_STRATUM))])


def _equivalence_instance(name):
    if name.startswith("grid"):
        return grid_corpus()[int(name[4:])]
    if name.startswith("certify"):
        return generate(_CERTIFY_STRATUM[int(name[7:])])
    return {"d1": d1_instance, "coupled": _coupled_instance,
            "coupled-lp": _coupled_lp_instance}[name]()


@pytest.mark.parametrize("name", _EQUIVALENCE_CASES)
def test_empirical_equals_midpoint_bisection(name):
    # rho_max: the certificate's weight (at least 1), 0, half the width,
    # the width, and the grid point below an achieved bound, which fails
    inst = _equivalence_instance(name)
    lam = lambda_bar(inst).lambda_bar
    rho_linf = rho_dual_linf(inst).rho_star
    for pen in _norm_penalties(inst.m):
        top = max(rho_for_norm(rho_linf, pen), 1)
        full = _midpoint_bisection(inst, lam, pen, top)
        assert full.achieved
        rho_maxes = [top, 0, WIDTH / 2, WIDTH]
        if full.rho_min_upper > WIDTH:
            below = full.rho_min_upper - WIDTH
            assert not _midpoint_bisection(inst, lam, pen, below).achieved
            rho_maxes.append(below)
        for rho_max in rho_maxes:
            assert rho_bisect_empirical(inst, lam, pen, rho_max) == \
                _midpoint_bisection(inst, lam, pen, rho_max)


def test_empirical_equals_midpoint_bisection_on_unbounded_slices():
    # the free-continuous wire-pin instance: x1 free, x1 + x2 = 0,
    # |x2| <= 2; at lambda = (1) every slice is unbounded below a weight
    # of 1 (2/3 for slinf:3/2), and z_ip = 0 is reached there
    inst = MiqpInstance(Q=RatMat([[0, 0], [0, 1]]), c=RatVec([0, Fraction(1, 3)]),
                        A=RatMat([[1, 1]]), b=RatVec([0]),
                        E=RatMat([[0, 1], [0, -1]]), f=RatVec([2, 2]),
                        n1=1, n2=1)
    lam = RatVec([1])
    for pen in _norm_penalties(1):
        assert eval_lr_plus(inst, lam, Fraction(1, 2), pen).unbounded
        for rho_max in (4, 1, Fraction(1, 2), 0, WIDTH / 2, WIDTH):
            assert rho_bisect_empirical(inst, lam, pen, rho_max) == \
                _midpoint_bisection(inst, lam, pen, rho_max)
    assert rho_bisect_empirical(inst, lam, Penalty(LINF, 1), 4) == \
        EmpiricalBound(Fraction(1), True)


def test_empirical_argument_checks(d1, solver_calls):
    # on a fresh mixed instance no solve is made before the checks raise
    inst = gap_instance()
    lam = RatVec.zeros(inst.m)
    with pytest.raises(DimMismatchError):
        rho_bisect_empirical(inst, RatVec.zeros(inst.m + 1), Penalty(LINF, inst.m), 1)
    with pytest.raises(DimMismatchError):
        rho_bisect_empirical(inst, lam, Penalty(LINF, inst.m + 1), 1)
    with pytest.raises(ValueError, match="rho_max"):
        rho_bisect_empirical(inst, lam, Penalty(LINF, inst.m), -1)
    assert solver_calls == {"lp": 0, "qp": 0}
    # rho = 0 already closes d1's gap at lambda_bar: still an error
    with pytest.raises(ValueError, match="rho_max"):
        rho_bisect_empirical(d1, lambda_bar(d1).lambda_bar, Penalty(LINF, 1), -1)


def _own_threshold(inst, lam, pen, z_ip, row, rho_max, top):
    """A slice's own smallest passing index on the grid rho_max * k / top,
    found apart from the route: a bisection of that slice alone over
    [0, top], where it must pass."""
    def passes(k):
        slicer = SliceFamily(inst, lam, pen).at(rho_max * k / top)
        value = slicer.minimum(row)[1]
        return value is not None and value >= z_ip

    assert passes(top)
    lo, hi = -1, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


def test_one_factor_per_kkt_matrix_per_bisection(kkt_calls):
    # the bisection at zero multipliers moves over many weights, and its
    # one family eliminates each slice KKT matrix once; a second identical
    # call factors as much as the first
    inst = grid_25()
    for fact in (ald._slices, solve_ip):
        fact(inst)
    pen = Penalty(L1, inst.m)
    bounds = []

    def bisect():
        bounds.append(rho_bisect_empirical(inst, RatVec.zeros(inst.m), pen, 4))

    first = factor_counts(kkt_calls, bisect)
    assert first == (6, 147)
    assert factor_counts(kkt_calls, bisect) == first
    assert bounds == [EmpiricalBound(Fraction(2231, 1024), True)] * 2


def test_empirical_solves_each_slice_once_plus_its_raises(solver_calls):
    # S slices, K halvings and r raises of the running index: one solve
    # per slice, and at most K + 1 more for each raise
    inst = gap_instance()
    lam = lambda_bar(inst).lambda_bar
    pen = Penalty(LINF, inst.m)
    z_ip = solve_ip(inst).value
    rows = SliceFamily(inst, lam, pen).at(_ZERO).rows()
    rho_max, halvings = Fraction(1), 10  # 1 / 2**10 is the width
    solver_calls.update(lp=0, qp=0)
    bound = rho_bisect_empirical(inst, lam, pen, rho_max)
    solves = solver_calls["lp"] + solver_calls["qp"]

    top = 2 ** halvings
    running, raises = 0, 0
    for row in rows:
        k = _own_threshold(inst, lam, pen, z_ip, row, rho_max, top)
        if k > running:
            running, raises = k, raises + 1
    assert bound == EmpiricalBound(rho_max * running / top, True)
    assert raises >= 1
    assert solves <= len(rows) + raises * (halvings + 1)
    assert (len(rows), raises, solves) == (5, 1, 16)


# ------------------------------------------------------------- properties

def test_monotone_certification(d1):
    pen = Penalty(LINF, 1)
    cert = rho_dual_linf(d1)
    assert certify(d1, cert.lambda_used, 2 * cert.rho_star, pen)


def test_certificates_serialize(d1):
    for cert in (rho_sufficient(d1, Penalty(LINF, 1)), rho_dual_linf(d1)):
        doc = cert.to_json_dict()
        assert doc["method"] in (SUFFICIENT, DUAL_LINF)
        assert isinstance(doc["rho_star"], str)
        assert isinstance(doc["evidence"], dict)
        assert doc["rho_star_bits"] == cert.bit_size() >= 1


def test_certificate_bit_size():
    cert = RhoCertificate(Fraction(5, 2), SUFFICIENT, RatVec([]), None)
    assert cert.bit_size() == 3 + 2  # |5| and 2
