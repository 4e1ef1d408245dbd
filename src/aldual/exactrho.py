"""Exact penalty weights with machine-checkable certificates.

Every certificate is verified primally before it is issued: the penalized
relaxation at (lambda_used, rho_star) must equal the ground-truth integer
value exactly, otherwise construction raises.  Three bound-producing
routes (a violation-margin formula, a per-assignment dual construction for
the max-norm, and conversions to other norms / other multipliers) are
cross-checked by an empirical bisection oracle.

The oracle's bisection of [0, rho_max] to width 2**-10 runs on a fixed
grid, rho_max * k / 2**K with K set by rho_max, and returns the smallest
grid point that closes the gap.  That test splits over the slices:
z_lr(lam, rho) <= z_ip always (the integer optimum is a point with zero
residual), so the gap closes exactly when every slice's minimum is at
least z_ip, and each slice's minimum is nondecreasing in rho.  The
returned point is therefore the maximum over the slices of each slice's
own smallest passing grid point, which the oracle finds by one walk of
the slice table: one solve per slice that already passes at the running
index, and a bisection of that one slice only where it raises the index.

Each route gets its slicers from one ``ald.SliceFamily`` per call: the
margin formula's at weight 1, and the max-norm construction's and the
oracle's at every weight they try, so the slice QPs of all those weights
share one mapping of KKT factors.  Verification shares nothing with the
construction it checks: ``certify`` evaluates through ``eval_lr_plus``,
which builds a family of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import penalty as pen_mod
from .ald import SliceFamily, eval_lr_plus, ground_truth, lambda_bar
from .convexsolve import OPTIMAL
from .errors import (
    BisectionCapError,
    DeltaZeroError,
    InternalInvariantError,
    UnsupportedKindError,
)
from .instance import MiqpInstance
from .numkit import RatVec, ceil_rat, ceil_sqrt, rat, to_wire

_ZERO = Fraction(0)
_ONE = Fraction(1)

SUFFICIENT = "sufficient"
DUAL_LINF = "dual-linf"
NORM_CONVERT = "norm-convert"
LAMBDA_SHIFT = "lambda-shift"
EMPIRICAL = "empirical"

_BISECTION_CAP = Fraction(2) ** 40
EMPIRICAL_WIDTH = Fraction(1, 1024)


@dataclass(frozen=True)
class SufficientEvidence:
    """Inputs of the margin formula: a feasible point, the positive lower
    bound on any attainable violation, and the relaxation value."""

    x_tilde: RatVec
    delta: Fraction
    z_nlp: Fraction


@dataclass(frozen=True)
class DualAssignmentRecord:
    """Exact dual optimum of one integer assignment's subproblem.

    Identities (all exact, checked at construction): the multipliers on the
    two-sided residual rows sum to rho_x2; the stationarity row matches
    Q11^T nu; the dual objective value equals the primal subproblem value
    and is at least the integer optimum.
    """

    assignment: tuple[int, ...]
    nu: RatVec
    y1: RatVec
    y2: RatVec
    y3: RatVec
    y4: RatVec
    y5: RatVec
    rho_x2: Fraction
    dual_value: Fraction


@dataclass(frozen=True)
class DualLinfEvidence:
    records: tuple[DualAssignmentRecord, ...]


@dataclass(frozen=True)
class NormConvertEvidence:
    gamma: int
    base_rho: Fraction


@dataclass(frozen=True)
class LambdaShiftEvidence:
    eta: int
    norm_shift_bound: Fraction
    base_rho: Fraction


@dataclass(frozen=True)
class EmpiricalEvidence:
    width: Fraction


def _bit_size(value: Fraction) -> int:
    """Binary encoding size of a rational (numerator + denominator bits)."""
    return abs(value.numerator).bit_length() + value.denominator.bit_length()


@dataclass(frozen=True)
class RhoCertificate:
    """A verified weight with its evidence; the field names of the
    certificate and of every evidence class are its JSON keys."""

    rho_star: Fraction
    method: str
    lambda_used: RatVec
    evidence: object

    def bit_size(self) -> int:
        """Encoding size of the certified weight, reported for inspection;
        no polynomiality claim is checked."""
        return _bit_size(self.rho_star)

    def to_json_dict(self) -> dict:
        return {**to_wire(self), "rho_star_bits": self.bit_size()}


def certify(inst: MiqpInstance, lam: RatVec, rho, pen: pen_mod.Penalty,
            z_ip: Fraction | None = None) -> bool:
    """Exact predicate: does the relaxation at (lam, rho) close the gap."""
    if z_ip is None:
        z_ip = ground_truth(inst).value
    rep = eval_lr_plus(inst, lam, rho, pen)
    return (not rep.unbounded) and rep.value == z_ip


def _issue(inst, lam, rho, pen, method, evidence) -> RhoCertificate:
    if not certify(inst, lam, rho, pen):
        raise InternalInvariantError(
            f"{method} weight {rho} failed primal verification"
        )
    return RhoCertificate(rat(rho), method, lam, evidence)


def rho_sufficient(inst: MiqpInstance, pen: pen_mod.Penalty) -> RhoCertificate:
    """Margin-formula weight at lambda_bar: (objective at a feasible point
    - z_nlp)/delta.

    delta is the exact minimum of the penalty over integer assignments
    whose continuous slice cannot reach a zero residual; if some slice
    touches zero residual while the continuous variables act on the
    dualized rows, the infimum over violating points is zero and
    DeltaZeroError is raised (the formula is inapplicable).
    """
    ip = ground_truth(inst)
    duals = lambda_bar(inst)
    A1, _ = inst.split_cols(inst.A)
    continuous_acts = not A1.is_zero()

    # per-assignment exact minimum of psi(b - Ax) over the continuous slice
    slicer = SliceFamily(inst, RatVec.zeros(inst.m), pen, objective=False).at(_ONE)
    candidates: list[Fraction] = []
    for row in slicer.rows():
        vmin = slicer.minimum(row)[1]
        if vmin is None:
            raise InternalInvariantError("penalty minimization unbounded")
        if vmin > 0:
            candidates.append(vmin)
        elif continuous_acts:
            raise DeltaZeroError(
                f"assignment {row.x2} attains zero residual with continuous "
                "variables acting on the dualized rows"
            )
    delta = min(candidates) if candidates else _ONE
    rho_star = (inst.objective_value(ip.x) - duals.z_nlp) / delta
    evidence = SufficientEvidence(ip.x, delta, duals.z_nlp)
    return _issue(inst, duals.lambda_bar, rho_star, pen, SUFFICIENT, evidence)


def _dual_probe(inst: MiqpInstance, blocks: tuple, slicer, row,
                rho: Fraction) -> DualAssignmentRecord:
    """Solve one table row's max-norm subproblem at weight rho, cold
    (``slicer`` is the relaxation's slicer at (lam, rho)), and extract the
    exact dual point.  The epigraph rows hold for a large enough w, so a
    report other than OPTIMAL raises InternalInvariantError; the record's
    dual objective equals the subproblem value by strong duality, checked
    exactly along with the multiplier identities, from the instance's
    ``blocks`` at lam (Q11, Q12, Q22, A1, A2, E1, E2, c1 - A1^T lam,
    c2 - A2^T lam, lam.b), not from the row.
    """
    rep, value = slicer.solve(row._replace(x1=None))
    if rep.status != OPTIMAL:
        raise InternalInvariantError(
            f"slice {row.x2} subproblem {rep.status} at the optimal multipliers"
        )
    m, m2, n1 = inst.m, inst.m2, inst.n1
    mu = rep.ineq_duals
    y3 = RatVec(mu[:m2])
    y1 = RatVec(mu[m2 + 2 * i] for i in range(m))
    y2 = RatVec(mu[m2 + 2 * i + 1] for i in range(m))
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


def rho_dual_linf(inst: MiqpInstance) -> RhoCertificate:
    """Max-norm weight from per-assignment dual constructions.

    The slice table's rows (the integer assignments with a nonempty slice)
    are walked in order with a running weight that starts at 1.  Each row
    is probed at the running weight; while its dual subproblem value stays
    below the integer optimum, the weight doubles (at most up to
    ``_BISECTION_CAP``), and the last bracket [lo, hi] is then halved until
    its width is at most 1.  So the grid is the running weight times powers
    of 2, then the midpoints of that bracket.  The row's final weight is hi,
    the least passing weight probed, and it is the running weight for the
    next row; the row's record is the probe at that final weight.  The
    certificate's weight is the last running weight, the largest, and it
    is re-verified primally.
    """
    z_ip = ground_truth(inst).value
    lam = lambda_bar(inst).lambda_bar
    pen_linf = pen_mod.Penalty(pen_mod.LINF, inst.m)
    if inst.m == 0:
        return _issue(inst, lam, _ONE, pen_linf, DUAL_LINF, DualLinfEvidence(()))

    family = SliceFamily(inst, lam, pen_linf)
    A1, A2 = inst.split_cols(inst.A)
    c1, c2 = inst.c_split()
    blocks = (*inst.q_blocks(), A1, A2, *inst.split_cols(inst.E),
              c1 - A1.tmatvec(lam), c2 - A2.tmatvec(lam), lam.dot(inst.b))

    def probe(row, rho):
        return _dual_probe(inst, blocks, family.at(rho), row, rho)

    records: list[DualAssignmentRecord] = []
    current = _ONE
    for row in family.at(current).rows():
        lo = hi = current
        rec = probe(row, hi)
        while rec.dual_value < z_ip:
            lo, hi = hi, 2 * hi
            if hi > _BISECTION_CAP:
                raise BisectionCapError(
                    f"no certifying weight below {_BISECTION_CAP} for {row.x2}"
                )
            rec = probe(row, hi)
        while hi - lo > 1:
            mid = (lo + hi) / 2
            at_mid = probe(row, mid)
            if at_mid.dual_value >= z_ip:
                hi, rec = mid, at_mid
            else:
                lo = mid
        records.append(rec)
        current = hi
    return _issue(inst, lam, current, pen_linf, DUAL_LINF,
                  DualLinfEvidence(tuple(records)))


def rho_for_norm(rho_hat, pen: pen_mod.Penalty) -> Fraction:
    """Convert a max-norm certificate weight to the given norm kind."""
    if not pen.is_norm:
        raise UnsupportedKindError("conversion target must be a norm kind")
    gamma = pen_mod.norm_constants(pen).gamma
    return rat(rho_hat) * gamma


def _lambda_shift(rho_star_bar, lambda_tilde: RatVec, lambda_bar_vec: RatVec,
                  pen: pen_mod.Penalty) -> tuple[int, Fraction, Fraction]:
    """(eta, upper bound on the Euclidean shift, shifted weight)."""
    if not pen.is_norm:
        raise UnsupportedKindError("multiplier shift needs a norm kind")
    eta = pen_mod.norm_constants(pen).eta
    diff = lambda_tilde - lambda_bar_vec
    shift = Fraction(ceil_sqrt(diff.dot(diff)))
    return eta, shift, Fraction(ceil_rat(rat(rho_star_bar) + eta * shift))


def rho_for_lambda(rho_star_bar, lambda_tilde: RatVec, lambda_bar_vec: RatVec,
                   pen: pen_mod.Penalty) -> Fraction:
    """Shift a certificate weight from the optimal multipliers to any
    multipliers: ceil(rho + eta * upper-bound on the Euclidean shift)."""
    return _lambda_shift(rho_star_bar, lambda_tilde, lambda_bar_vec, pen)[2]


def certificate_for_norm(inst: MiqpInstance, pen: pen_mod.Penalty,
                         base: RhoCertificate | None = None) -> RhoCertificate:
    """Full certificate for any norm kind via the max-norm construction."""
    if base is None:
        base = rho_dual_linf(inst)
    rho = rho_for_norm(base.rho_star, pen)
    gamma = pen_mod.norm_constants(pen).gamma
    return _issue(inst, base.lambda_used, rho, pen, NORM_CONVERT,
                  NormConvertEvidence(gamma, base.rho_star))


def certificate_for_lambda(inst: MiqpInstance, pen: pen_mod.Penalty,
                           lambda_tilde: RatVec) -> RhoCertificate:
    """Full certificate at arbitrary multipliers for a norm kind."""
    base = certificate_for_norm(inst, pen) if pen.kind != pen_mod.LINF \
        else rho_dual_linf(inst)
    eta, shift, rho = _lambda_shift(base.rho_star, lambda_tilde,
                                    base.lambda_used, pen)
    return _issue(inst, lambda_tilde, rho, pen, LAMBDA_SHIFT,
                  LambdaShiftEvidence(eta, shift, base.rho_star))


@dataclass(frozen=True)
class EmpiricalBound:
    rho_min_upper: Fraction
    achieved: bool


def rho_bisect_empirical(inst: MiqpInstance, lam: RatVec,
                         pen: pen_mod.Penalty, rho_max) -> EmpiricalBound:
    """Bisection oracle for the minimal certifying weight (norm kinds).

    Returns an upper bound within EMPIRICAL_WIDTH (2**-10) of the minimal
    weight at which the relaxation value equals the integer optimum, or
    achieved=False when even rho_max fails.

    The bound is the one a bisection of [0, rho_max] down to width
    EMPIRICAL_WIDTH returns: halving K times (K fixed by rho_max alone)
    leaves the smallest grid point rho_max * k / 2**K that closes the gap,
    0 when rho = 0 does.  Closing the gap is a per-slice test: z_lr never
    exceeds z_ip (the integer optimum has zero residual), so it equals
    z_ip exactly when every slice's minimum is at least z_ip, and each
    slice's minimum is nondecreasing in rho.  So the grid index is the
    maximum over the slices of each one's own smallest passing index: the
    table is walked once with the running index k, a slice passing at k
    costs one solve, and a slice failing there is bisected alone over
    (k, 2**K] after one check at rho_max, which raises k.
    """
    if not pen.is_norm:
        raise UnsupportedKindError("empirical bisection needs a norm kind")
    family = SliceFamily(inst, lam, pen)
    rho_max = rat(rho_max)
    if rho_max < 0:
        raise ValueError("rho_max must be nonnegative")
    z_ip = ground_truth(inst).value
    halvings, width = 0, rho_max
    while width > EMPIRICAL_WIDTH:
        halvings, width = halvings + 1, width / 2
    top = 2 ** halvings

    def passes(row, k: int) -> bool:
        value = family.at(rho_max * k / top).minimum(row)[1]
        return value is not None and value >= z_ip

    k = 0
    for row in family.at(_ZERO).candidates():
        if passes(row, k):
            continue
        if not passes(row, top):
            return EmpiricalBound(rho_max, False)
        lo, hi = k, top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if passes(row, mid):
                hi = mid
            else:
                lo = mid
        k = hi
    return EmpiricalBound(rho_max * k / top, True)


def certificate_empirical(inst: MiqpInstance, lam: RatVec,
                          pen: pen_mod.Penalty, rho_max) -> RhoCertificate:
    bound = rho_bisect_empirical(inst, lam, pen, rho_max)
    if not bound.achieved:
        raise BisectionCapError(f"no certifying weight below {rho_max}")
    return _issue(inst, lam, bound.rho_min_upper, pen, EMPIRICAL,
                  EmpiricalEvidence(EMPIRICAL_WIDTH))
