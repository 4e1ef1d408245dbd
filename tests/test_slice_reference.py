"""The slice table's integer kernel and the pure-integer class walk against
the code they replaced.

``reference_box_rows`` below is the earlier ``ald._box_rows`` kept verbatim
but for its name: each row's terms in Fraction matrix-vector arithmetic.
``ald._box_rows`` now evaluates them through ``numkit.affine_at_ints`` and
``numkit.quadratic_at_ints`` on Python ints, and must give the identical
rows, each number a Fraction (``to_wire`` would render a stray int as a
JSON integer, not as the string of a rational).

On a pure-integer instance the walks that seek a least minimum visit one
row per residual class (``ald._point_classes``).  The reference walk is
the full table: ``SliceSolver.candidates`` replaced by ``rows``, which is
how every walk ran before.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aldual import ald
from aldual.ald import SliceRow, eval_lr_plus, lambda_bar, solve_ip
from aldual.exactrho import rho_bisect_empirical
from aldual.instance import MiqpInstance
from aldual.numkit import RatMat, RatVec
from aldual.penalty import parse_penalty

from conftest import d1_instance
from corpus import grid_corpus, pure_integer_corpus


def reference_box_rows(inst: MiqpInstance, points):
    """The SliceRow of each integer point, x1 left None."""
    A2, E2 = inst.split_cols(inst.A)[1], inst.split_cols(inst.E)[1]
    _, Q12, Q22 = inst.q_blocks()
    c1, c2 = inst.c_split()
    for x2 in points:
        x2v = RatVec(x2)
        yield SliceRow(x2, inst.b - A2.matvec(x2v), inst.f - E2.matvec(x2v),
                       c2.dot(x2v) + x2v.dot(Q22.matvec(x2v)) / 2,
                       c1 + Q12.matvec(x2v), None)


_entries = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                     st.fractions(-3, 3, max_denominator=12))


def _matrix(draw, rows, cols):
    return RatMat([draw(st.lists(_entries, min_size=cols, max_size=cols))
                   for _ in range(rows)], cols=cols)


def _vector(draw, dim):
    return RatVec(draw(st.lists(_entries, min_size=dim, max_size=dim)))


@st.composite
def _instances_and_points(draw):
    """An instance's data (any Q, not only symmetric PSD ones: the terms
    are formulas of the blocks) and integer points in [-4, 4]."""
    n1, n2 = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    m, m2 = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    n = n1 + n2
    inst = MiqpInstance(Q=_matrix(draw, n, n), c=_vector(draw, n),
                        A=_matrix(draw, m, n), b=_vector(draw, m),
                        E=_matrix(draw, m2, n), f=_vector(draw, m2),
                        n1=n1, n2=n2)
    point = st.tuples(*[st.integers(-4, 4)] * n2)
    return inst, draw(st.lists(point, min_size=1, max_size=4))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_instances_and_points())
def test_box_rows_equal_the_fraction_reference(case):
    inst, points = case
    rows = list(ald._box_rows(inst, points))
    assert rows == list(reference_box_rows(inst, points))
    for row in rows:
        assert row.x1 is None
        assert type(row.f2) is Fraction
        assert all(type(e) is Fraction for v in (row.r2, row.s2, row.g1) for e in v)


# ------------------------------------------------- one row per residual class

def _tied_classes():
    """x = (u, v) in [-2, 2]^2, objective v^2, one dualized row u = 0: each
    class (a value of u) has its least f2 at v = 0, after its first row
    v = -2, and at lam = 0, rho = 0 every class ties."""
    return MiqpInstance(Q=RatMat([[0, 0], [0, 2]]), c=RatVec([0, 0]),
                        A=RatMat([[1, 0]]), b=RatVec([0]),
                        E=RatMat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                        f=RatVec([2, 2, 2, 2]), n1=0, n2=2)


def _class_cases():
    """d1, the pure-integer corpus, the grid corpus's pure-integer
    instances not already in it, and the constructed tie."""
    cases = [d1_instance()] + [inst for inst, _ in pure_integer_corpus()]
    cases += [inst for inst in grid_corpus() if inst.n1 == 0 and inst not in cases]
    return cases + [_tied_classes()]


_SPECS = ("linf", "l1", "slinf:3/2", "sql2")
_RHOS = (0, Fraction(1, 2), 1, 4)


def _walks(inst):
    """Every result the class walk changes the route to: solve_ip, and at
    lambda_bar and at zeros each kind's RelaxReport at several rho and each
    norm kind's EmpiricalBound."""
    inst = dataclasses.replace(inst)  # a fresh copy: no stored facts
    out = [solve_ip(inst)]
    for lam in (lambda_bar(inst).lambda_bar, RatVec.zeros(inst.m)):
        for spec in _SPECS:
            pen = parse_penalty(spec, inst.m)
            out += [eval_lr_plus(inst, lam, rho, pen) for rho in _RHOS]
            if pen.is_norm:
                out.append(rho_bisect_empirical(inst, lam, pen, 4))
    return out


@pytest.mark.parametrize("idx", range(len(_class_cases())))
def test_class_walk_equals_the_full_table_walk(idx, monkeypatch):
    inst = _class_cases()[idx]
    assert inst.n1 == 0
    classes = _walks(inst)
    monkeypatch.setattr(ald.SliceSolver, "candidates", ald.SliceSolver.rows)
    assert _walks(inst) == classes


def test_point_classes_pick_the_first_least_f2():
    inst = _tied_classes()
    assert [row.x2 for row in ald._point_classes(inst)] == [
        (u, 0) for u in range(-2, 3)]
    # the first minimizer over the table is (-2, 0), not the first row (-2, -2)
    rep = eval_lr_plus(inst, RatVec([0]), 0, parse_penalty("linf", 1))
    assert rep.assignment == (-2, 0) and rep.value == 0


def test_eval_visits_one_row_per_class(d1, monkeypatch):
    visited = []
    minimum = ald.SliceSolver.minimum

    def counting(self, row):
        visited.append(row.x2)
        return minimum(self, row)

    monkeypatch.setattr(ald.SliceSolver, "minimum", counting)
    lam = lambda_bar(d1).lambda_bar
    eval_lr_plus(d1, lam, 1, parse_penalty("linf", 1))
    assert len(visited) == 13
    assert len(ald._slices(d1)) == 49
    visited.clear()
    assert solve_ip(d1).x == RatVec([0, 1])
    assert visited == [(0, 1)]
