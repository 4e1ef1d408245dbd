"""Slice programs and reports with every row of E put back.

A slicer builds each slice program over the rows of E whose continuous
part E1 is nonzero only; an x2-only row j would be the constant row
[0 | 0] <= s2_j, and ``ald`` checks it once per box point instead.  The
helpers below rebuild the program with every row, each x2-only row at its
own place among the first m2 inequality rows, and put a zero multiplier
on each such row of a report.  The x2-only rows are found here from the
instance's E, not read from ``ald``.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from aldual.numkit import RatMat, RatVec

_ZERO = Fraction(0)


def x2_only_rows(inst) -> list[int]:
    """The rows of E with a zero continuous part, in order."""
    E1 = inst.split_cols(inst.E)[0]
    return [j for j in range(inst.m2) if all(a == 0 for a in E1.row(j))]


def full_program(inst, program, s2: RatVec):
    """``program`` with each x2-only row j of E put back as [0 | 0] <= s2_j
    (``s2`` = f - E2 x2, one entry per row of E)."""
    G, h = program.ineq_lhs.row_list(), list(program.ineq_rhs)
    width = program.ineq_lhs.cols
    for j in x2_only_rows(inst):
        G.insert(j, [_ZERO] * width)
        h.insert(j, s2[j])
    return dataclasses.replace(program, ineq_lhs=RatMat(G, cols=width),
                               ineq_rhs=RatVec(h))


def full_report(inst, report):
    """``report`` with a zero multiplier on each x2-only row of E."""
    if report.ineq_duals is None:
        return report
    y = list(report.ineq_duals)
    for j in x2_only_rows(inst):
        y.insert(j, _ZERO)
    return dataclasses.replace(report, ineq_duals=RatVec(y))
