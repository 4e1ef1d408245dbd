"""Every slice program the slicer builds from the slice table equals the one
the earlier generic substitution built.

The reference below is that substitution, kept verbatim in substance: the
objective (Q, c, const) lives over the full variable vector; fixing x2
moves each right-hand side to ``base - X2 x2``, the x1 linear term to
c1 + Q12 x2 and the constant to const + c2.x2 + 1/2 x2^T Q22 x2; sql2 is
absorbed into the full-width objective (Q + 2 rho A^T A, c - 2 rho A^T b,
const + rho b.b).  The slicer now builds each program from a table row's
r2, s2, f2 and g1 instead; the two must agree term for term.
"""

from fractions import Fraction

import pytest

from aldual import ald
from aldual.ald import integer_box, lambda_bar
from aldual.convexsolve import LinearProgram, QuadraticProgram
from aldual.numkit import RatMat, RatVec
from aldual.penalty import SQL2, epigraph_rows, evaluate, parse_penalty

from conftest import d1_instance
from corpus import GRID_SHAPES, grid_corpus

_ZERO = Fraction(0)
KINDS = ("linf", "l1", "slinf:3/2", "sql2")
# pure-integer (n1 = 0) and mixed grid shapes, all with m = 2 but one
SHAPES = [(0, 2, 1, 1, 2, 100), (0, 3, 2, 0, 2, 300), (1, 2, 2, 0, 2, 700),
          (2, 2, 2, 1, 2, 1100), (3, 1, 2, 1, 2, 1900)]


class _Substitution:
    """The slice programs of min 1/2 x^T Q x + c^T x + const (+ w_weight
    times the epigraph's w), x2 substituted into the full-width data."""

    def __init__(self, inst, Qfull, cfull, const, pen=None, w_weight=_ZERO,
                 include_eq=False):
        self.inst, self.pen, self.w_weight = inst, pen, w_weight
        n1, n = inst.n1, inst.n
        enc = epigraph_rows(pen, inst.A, inst.b) if pen is not None else None
        n_aux = enc.n_aux if enc is not None else 0
        idx1, idx2 = list(range(n1)), list(range(n1, n))
        self.Q12 = Qfull.submatrix(idx1, idx2)
        self.Q22 = Qfull.submatrix(idx2, idx2)
        self.c1, self.c2, self.const = cfull[:n1], cfull[n1:], const
        self.aux_cost = [_ZERO] * (n_aux - 1) + [w_weight] if n_aux else []
        width = n1 + n_aux
        self.Qsub = RatMat.vstack([
            RatMat.hstack([Qfull.submatrix(idx1, idx1), RatMat.zeros(n1, n_aux)]),
            RatMat.zeros(n_aux, width)], cols=width)
        ineq = [RatMat.hstack([inst.E, RatMat.zeros(inst.m2, n_aux)])]
        ineq_rhs = list(inst.f)
        eq = [RatMat.hstack([inst.A, RatMat.zeros(inst.m, n_aux)])] \
            if include_eq else []
        eq_rhs = list(inst.b) if include_eq else []
        if enc is not None:
            ineq.append(enc.ineq_lhs)
            ineq_rhs += enc.ineq_rhs
            eq.append(enc.eq_lhs)
            eq_rhs += enc.eq_rhs

        def split(parts):
            M = RatMat.vstack(parts, cols=n + n_aux)
            return (RatMat.hstack([M.col_block(0, n1), M.col_block(n, n + n_aux)]),
                    M.col_block(n1, n))

        self.ineq_mat, self.ineq_x2 = split(ineq)
        self.eq_mat, self.eq_x2 = split(eq)
        self.ineq_base, self.eq_base = RatVec(ineq_rhs), RatVec(eq_rhs)

    def constant(self, x2v):
        return self.const + self.c2.dot(x2v) + x2v.dot(self.Q22.matvec(x2v)) / 2

    def program(self, x2v):
        lin = RatVec(list(self.c1 + self.Q12.matvec(x2v)) + self.aux_cost)
        ineq_rhs = self.ineq_base - self.ineq_x2.matvec(x2v)
        eq_rhs = self.eq_base - self.eq_x2.matvec(x2v)
        if self.Qsub.is_zero():
            return LinearProgram(lin, self.eq_mat, eq_rhs, self.ineq_mat, ineq_rhs)
        return QuadraticProgram(self.Qsub, lin, self.eq_mat, eq_rhs,
                                self.ineq_mat, ineq_rhs)

    def point_value(self, x2v):
        value = self.constant(x2v)
        if self.pen is not None:
            value += self.w_weight * evaluate(self.pen, self.inst.b
                                              - self.inst.A.matvec(x2v))
        return value


def _reference(inst, Q, c, const, pen, rho):
    """The substitution's slicer of  min 1/2 x^T Q x + c^T x + const
    + rho psi(b - Ax)."""
    if rho == 0 or inst.m == 0:
        return _Substitution(inst, Q, c, const)
    if pen.kind == SQL2:
        At = inst.A.transpose()
        return _Substitution(inst, Q + At.matmul(inst.A).scale(2 * rho),
                             c - At.matvec(inst.b).scale(2 * rho),
                             const + rho * inst.b.dot(inst.b))
    return _Substitution(inst, Q, c, const, pen, rho)


def _slicer_pairs(inst):
    """(slicer, reference) for solve_ip's slicer, rho_sufficient's per
    kind, and the relaxation's per kind at rho 0 and 1/2, at lambda_bar
    and at a second multiplier."""
    n, m = inst.n, inst.m
    zero_lam = RatVec.zeros(m)
    pairs = [(ald.SliceFamily(inst, zero_lam, None, include_eq=True).at(_ZERO),
              _Substitution(inst, inst.Q, inst.c, _ZERO, include_eq=True))]
    other = RatVec(Fraction((-1) ** i, i + 2) for i in range(m))
    for spec in KINDS:
        pen = parse_penalty(spec, m)
        pairs.append((
            ald.SliceFamily(inst, zero_lam, pen, objective=False).at(1),
            _reference(inst, RatMat.zeros(n, n), RatVec.zeros(n), _ZERO, pen,
                       Fraction(1))))
        for lam in (lambda_bar(inst).lambda_bar, lambda_bar(inst).lambda_bar + other):
            chat, const = inst.c - inst.A.tmatvec(lam), lam.dot(inst.b)
            for rho in (_ZERO, Fraction(1, 2)):
                pairs.append((ald.SliceFamily(inst, lam, pen).at(rho),
                              _reference(inst, inst.Q, chat, const, pen, rho)))
    return pairs


def _cases():
    insts = dict(zip(GRID_SHAPES, grid_corpus()))
    return [d1_instance()] + [insts[shape] for shape in SHAPES]


@pytest.mark.parametrize("idx", range(len(SHAPES) + 1))
def test_slice_programs_equal_the_substitution(idx):
    inst = _cases()[idx]
    rows = list(ald._box_rows(inst, integer_box(inst).assignments()))
    table = ald._slices(inst) if inst.n1 == 0 else ()
    for slicer, ref in _slicer_pairs(inst):
        for row in rows:
            x2v = RatVec(row.x2)
            assert slicer.program(row) == ref.program(x2v), row.x2
            assert slicer.constant(row) == ref.constant(x2v), row.x2
        for row in table:
            assert slicer.minimum(row) == (None, ref.point_value(RatVec(row.x2)))


def test_cases_cover_both_slice_kinds():
    # point slices, LP and QP slices, and the sql2 coupling term A1^T r2
    insts = _cases()
    assert any(inst.n1 == 0 for inst in insts)
    mixed = [inst for inst in insts if inst.n1 > 0]
    assert any(not inst.split_cols(inst.A)[0].is_zero() for inst in mixed)
    quad = [slicer.quad_free for inst in mixed for slicer, _ in _slicer_pairs(inst)]
    assert True in quad and False in quad
